"""Tests for the BackboneIndex container: stats, save/load, expansion."""

from __future__ import annotations

import pytest

from repro.core.builder import build_backbone_index
from repro.core.index import BackboneIndex
from repro.core.params import AggressiveMode, BackboneParams
from repro.errors import BuildError
from repro.graph.generators import road_network

from tests.conftest import assert_valid_walk, costs_of


@pytest.fixture(scope="module")
def network():
    return road_network(350, dim=3, seed=91)


@pytest.fixture(scope="module")
def index(network):
    return build_backbone_index(
        network, BackboneParams(m_max=35, m_min=6, p=0.02)
    )


class TestStats:
    def test_stats_keys(self, index):
        stats = index.stats()
        for key in (
            "height",
            "label_paths",
            "labelled_nodes",
            "top_graph_nodes",
            "top_graph_edges",
            "size_bytes",
            "build_seconds",
            "shortcuts",
        ):
            assert key in stats
        assert stats["height"] == index.height
        assert stats["size_bytes"] > 0

    def test_size_grows_with_label_count(self, network):
        small = build_backbone_index(
            network, BackboneParams(m_max=10, m_min=2, p=0.02, max_levels=1)
        )
        big = build_backbone_index(
            network, BackboneParams(m_max=60, m_min=10, p=0.02)
        )
        assert big.size_bytes() != small.size_bytes()

    def test_repr(self, index):
        text = repr(index)
        assert "BackboneIndex" in text and "L=" in text


class TestSaveLoad:
    def test_roundtrip_preserves_queries(self, tmp_path, network, index):
        path = tmp_path / "index.rbi"
        index.save(path)
        loaded = BackboneIndex.load(path, network)
        assert loaded.height == index.height
        assert loaded.label_path_count() == index.label_path_count()
        assert sorted(loaded.top_graph.nodes()) == sorted(
            index.top_graph.nodes()
        )
        nodes = sorted(network.nodes())
        s, t = nodes[2], nodes[-3]
        assert costs_of(loaded.query(s, t)) == costs_of(index.query(s, t))

    def test_bad_file_rejected(self, tmp_path, network):
        path = tmp_path / "bogus.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(BuildError):
            BackboneIndex.load(path, network)

    def test_wrong_version_rejected(self, tmp_path, network):
        path = tmp_path / "v2.json"
        path.write_text('{"format": "repro-backbone-index", "version": 99}')
        with pytest.raises(BuildError):
            BackboneIndex.load(path, network)


class TestExpandPath:
    def test_expansion_yields_original_walk(self, network):
        index = build_backbone_index(
            network, BackboneParams(m_max=35, m_min=6, p=0.02)
        )
        nodes = sorted(network.nodes())
        results = index.query(nodes[1], nodes[-2])
        assert results
        for path in results[:5]:
            expanded = index.expand_path(path)
            assert expanded.source == path.source
            assert expanded.target == path.target
            assert_valid_walk(network, expanded)

    def test_expansion_identity_without_aggressive(self, network):
        index = build_backbone_index(
            network,
            BackboneParams(
                m_max=35, m_min=6, p=0.02, aggressive=AggressiveMode.NONE
            ),
        )
        nodes = sorted(network.nodes())
        results = index.query(nodes[1], nodes[-2])
        assert results
        for path in results[:5]:
            expanded = index.expand_path(path)
            # no shortcuts exist, so the walk is already original
            assert expanded.nodes == path.nodes
            assert_valid_walk(network, expanded)


class TestNoLandmarkIndex:
    def test_index_lifecycle_never_selects_landmarks(
        self, tmp_path, monkeypatch
    ):
        """Build, persist, reload, query and maintain an index with
        landmark selection made to fail: no step may need landmarks."""
        import repro.qa.bounds as landmark_module
        from repro.core.maintenance import MaintainableIndex
        from repro.core.query import backbone_query
        from repro.core.verify import verify_index

        def forbid(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("the backbone index must not select landmarks")

        monkeypatch.setattr(landmark_module, "select_landmarks", forbid)
        graph = road_network(200, dim=2, seed=5)
        params = BackboneParams(m_max=25, m_min=4, p=0.05)
        built = build_backbone_index(graph, params)
        assert verify_index(built).ok
        nodes = sorted(graph.nodes())
        source, target = nodes[3], nodes[-4]
        path = tmp_path / "index.rbi"
        built.save(path)
        loaded = BackboneIndex.load(path, graph)
        assert costs_of(backbone_query(loaded, source, target).paths) == (
            costs_of(backbone_query(built, source, target).paths)
        )

        maintained = MaintainableIndex(graph, params)
        u, v, cost = next(iter(graph.edges()))
        maintained.update_edge_cost(u, v, cost, tuple(c * 2 for c in cost))
        assert maintained.generation == 1
        assert maintained.query(source, target)
