"""Tests for corridor construction and corridor-restricted search."""

from __future__ import annotations

import pytest

from repro.approx.corridor import (
    Corridor,
    CorridorKey,
    build_corridor,
    expand_hops,
)
from repro.core.builder import build_backbone_index
from repro.core.params import BackboneParams
from repro.core.query import backbone_query
from repro.graph.generators import road_network
from repro.graph.mcrn import MultiCostGraph
from repro.qa import reference
from repro.search.bbs import skyline_paths
from repro.service.cache import ResultCache, key_generation

PARAMS = BackboneParams(m_max=12, m_min=3, p=0.2)


@pytest.fixture(scope="module")
def network():
    return road_network(120, dim=2, seed=21)


@pytest.fixture(scope="module")
def index(network):
    return build_backbone_index(network, PARAMS)


def pair(network, offset=0):
    nodes = sorted(network.nodes())
    return nodes[offset], nodes[-(offset + 1)]


class TestExpandHops:
    def test_zero_radius_is_identity(self, network):
        s, t = pair(network)
        nodes = {s, t}
        assert expand_hops(network, set(nodes), 0) == nodes

    def test_expansion_adds_neighbors(self, network):
        s, _ = pair(network)
        grown = expand_hops(network, {s}, 1)
        assert grown == {s} | set(network.neighbors(s))

    def test_expansion_monotone_in_radius(self, network):
        s, t = pair(network)
        previous = expand_hops(network, {s, t}, 1)
        wider = expand_hops(network, {s, t}, 2)
        assert previous <= wider

    def test_directed_expansion_uses_both_directions(self):
        graph = MultiCostGraph(dim=1, directed=True)
        # 0 -> 1 -> 2 plus an incoming edge 3 -> 1.
        graph.add_edge(0, 1, (1.0,))
        graph.add_edge(1, 2, (1.0,))
        graph.add_edge(3, 1, (1.0,))
        grown = expand_hops(graph, {1}, 1)
        assert grown == {0, 1, 2, 3}


class TestCorridorObject:
    def test_always_contains_endpoints(self):
        corridor = Corridor(1, 2, frozenset({5}))
        assert 1 in corridor and 2 in corridor and 5 in corridor
        assert len(corridor) == 3

    def test_key_generation_field_drives_invalidation(self):
        cache = ResultCache(8)
        old = CorridorKey(1, 2, 2, 0)
        new = CorridorKey(1, 2, 2, 3)
        assert key_generation(old) == 0
        cache.put(old, "stale")
        cache.put(new, "fresh")
        cache.invalidate_generations_below(3)
        assert cache.get(old) is None
        assert cache.get(new) == "fresh"

    def test_mask_is_memoized_per_snapshot(self, network, index):
        from repro.accel.csr import CSRSnapshot

        s, t = pair(network)
        corridor = build_corridor(index, s, t, radius=1)
        snapshot = CSRSnapshot.from_graph(network)
        mask = corridor.mask_for(snapshot)
        assert corridor.mask_for(snapshot) is mask
        assert sum(mask) == len(corridor)
        for node in corridor.nodes:
            assert mask[snapshot.dense_of(node)]


class TestBuildCorridor:
    def test_covers_unpacked_backbone_paths(self, network, index):
        s, t = pair(network)
        corridor = build_corridor(index, s, t, radius=0)
        sketch = backbone_query(index, s, t)
        assert corridor.seed_paths  # connected network: paths exist
        assert len(corridor.seed_paths) == len(sketch.paths)
        for path in corridor.seed_paths:
            assert path.nodes[0] == s and path.nodes[-1] == t
            assert set(path.nodes) <= corridor.nodes

    def test_radius_widens_the_corridor(self, network, index):
        s, t = pair(network)
        narrow = build_corridor(index, s, t, radius=0)
        wide = build_corridor(index, s, t, radius=3)
        assert narrow.nodes <= wide.nodes
        assert len(wide) > len(narrow)

    def test_generation_stamped(self, network, index):
        s, t = pair(network)
        corridor = build_corridor(index, s, t, generation=7)
        assert corridor.generation == 7


class TestRestrictedSearch:
    def test_restricted_result_subset_is_dominance_consistent(
        self, network, index
    ):
        from repro.qa.invariants import (
            approximation_errors,
            non_dominance_errors,
            path_errors,
        )

        s, t = pair(network)
        exact = skyline_paths(network, s, t).paths
        corridor = build_corridor(index, s, t, radius=2)
        restricted = skyline_paths(
            network, s, t,
            restrict_to=corridor,
            seed_with_shortest_paths=False,
            seed_paths=corridor.seed_paths,
        ).paths
        assert restricted
        for path in restricted:
            assert not path_errors(network, path, source=s, target=t)
        assert not non_dominance_errors(restricted)
        assert not approximation_errors(restricted, exact, rac_bound=None)

    def test_python_and_flat_restricted_runs_are_bit_identical(
        self, network, index
    ):
        from repro.accel.csr import CSRSnapshot

        snapshot = CSRSnapshot.from_graph(network)
        for offset in range(3):
            s, t = pair(network, offset)
            corridor = build_corridor(index, s, t, radius=2)
            kwargs = dict(
                restrict_to=corridor,
                seed_with_shortest_paths=False,
                seed_paths=corridor.seed_paths,
            )
            python = reference.skyline_paths(network, s, t, **kwargs)
            flat = skyline_paths(network, s, t, snapshot=snapshot, **kwargs)
            assert [p.nodes for p in python.paths] == [
                p.nodes for p in flat.paths
            ]
            assert [p.cost for p in python.paths] == [
                p.cost for p in flat.paths
            ]
            assert (
                python.stats.pruned_by_corridor
                == flat.stats.pruned_by_corridor
            )

    @pytest.mark.parametrize("radius", [0, 1, 2])
    def test_corridor_bounds_keep_answers_and_never_expand_more(
        self, network, index, radius
    ):
        """The bounds of a restricted search are reverse Dijkstra
        inside the corridor: the answer paths equal the reference run's
        with full-graph exact bounds, and the tighter bounds never
        expand more."""
        from repro.accel.csr import CSRSnapshot
        from repro.qa.bounds import ExactBounds

        snapshot = CSRSnapshot.from_graph(network)
        tighter = 0
        for offset in range(6):
            s, t = pair(network, offset)
            corridor = build_corridor(index, s, t, radius=radius)
            kwargs = dict(
                restrict_to=corridor,
                seed_with_shortest_paths=False,
                seed_paths=corridor.seed_paths,
            )
            masked = skyline_paths(network, s, t, snapshot=snapshot, **kwargs)
            full = reference.skyline_paths(
                network, s, t, bounds=ExactBounds(network, [t]), **kwargs
            )
            # Same paths.  A corridor seed path's cost (summed by the
            # backbone) may differ from the searched cost of the same
            # walk in the last ulp, so costs compare approximately.
            masked_costs = {p.nodes: p.cost for p in masked.paths}
            full_costs = {p.nodes: p.cost for p in full.paths}
            assert masked_costs.keys() == full_costs.keys()
            for nodes, cost in masked_costs.items():
                assert cost == pytest.approx(full_costs[nodes], rel=1e-12)
            assert masked.stats.expansions <= full.stats.expansions
            tighter += masked.stats.expansions < full.stats.expansions
        if radius == 0:
            assert tighter, "a radius-0 corridor should tighten some bound"

    def test_corridor_pruning_is_counted(self, network, index):
        s, t = pair(network)
        corridor = build_corridor(index, s, t, radius=0)
        if len(corridor) == network.num_nodes:
            pytest.skip("corridor covers the whole graph at this seed")
        outcome = skyline_paths(
            network, s, t,
            restrict_to=corridor,
            seed_with_shortest_paths=False,
            seed_paths=corridor.seed_paths,
        )
        assert outcome.stats.pruned_by_corridor > 0

    def test_full_graph_restriction_matches_unrestricted(self, network):
        s, t = pair(network)
        unrestricted = skyline_paths(network, s, t).paths
        everything = frozenset(network.nodes())
        restricted = skyline_paths(
            network, s, t, restrict_to=everything
        ).paths
        assert [p.nodes for p in restricted] == [
            p.nodes for p in unrestricted
        ]
