"""Tests for the index self-validation (verify_index)."""

from __future__ import annotations

import pytest

from repro.core.builder import build_backbone_index
from repro.core.params import AggressiveMode, BackboneParams
from repro.core.verify import verify_index
from repro.graph.generators import road_network
from repro.paths.path import Path


@pytest.fixture(scope="module")
def network():
    return road_network(300, dim=3, seed=251)


@pytest.mark.parametrize(
    "mode", [AggressiveMode.NONE, AggressiveMode.NORMAL, AggressiveMode.EACH]
)
def test_fresh_indexes_verify_clean(network, mode):
    index = build_backbone_index(
        network, BackboneParams(m_max=30, m_min=5, p=0.1, aggressive=mode)
    )
    report = verify_index(index)
    assert report.ok, report.problems[:5]
    assert report.labels_checked > 0
    assert report.paths_checked > 0


def test_maintained_index_verifies_clean(network):
    from repro.core.maintenance import MaintainableIndex

    maintainer = MaintainableIndex(
        network, BackboneParams(m_max=30, m_min=5, p=0.1)
    )
    u, v = next(iter(maintainer.graph.edge_pairs()))
    old = maintainer.graph.edge_costs(u, v)[0]
    maintainer.update_edge_cost(u, v, old, tuple(c * 2 for c in old))
    report = verify_index(maintainer.index)
    assert report.ok, report.problems[:5]


def test_loaded_index_verifies_clean(network, tmp_path):
    from repro.core.index import BackboneIndex

    index = build_backbone_index(
        network, BackboneParams(m_max=30, m_min=5, p=0.1)
    )
    path = tmp_path / "index.rbi"
    index.save(path)
    loaded = BackboneIndex.load(path, network)
    assert verify_index(loaded).ok


class TestCorruptionDetected:
    def build(self, network):
        return build_backbone_index(
            network, BackboneParams(m_max=30, m_min=5, p=0.1)
        )

    def test_detects_wrong_endpoint_path(self, network):
        index = self.build(network)
        level = index.levels[0]
        node = next(iter(level.nodes()))
        label = level.get(node)
        entrance = next(iter(label.entrances))
        # smuggle in a path with the wrong source
        label.entrances[entrance]._inner._entries.append(
            ((1.0, 1.0, 1.0), Path((999_999, entrance), (1.0, 1.0, 1.0)))
        )
        report = verify_index(index)
        assert not report.ok
        assert any("endpoints" in p for p in report.problems)

    def test_detects_negative_cost(self, network):
        index = self.build(network)
        level = index.levels[0]
        node = next(iter(level.nodes()))
        label = level.get(node)
        entrance = next(iter(label.entrances))
        bad = Path((node, entrance), (-1.0, 1.0, 1.0))
        label.entrances[entrance]._inner._entries.append((bad.cost, bad))
        report = verify_index(index)
        assert not report.ok
        assert any("negative" in p for p in report.problems)

    def test_detects_dangling_entrance(self, network):
        index = self.build(network)
        level = index.levels[-1]
        node = next(iter(level.nodes()))
        label = level.get(node)
        from repro.paths.frontier import PathSet

        label.entrances[123_456_789] = PathSet(
            [Path((node, 123_456_789), (1.0, 1.0, 1.0))]
        )
        report = verify_index(index)
        assert not report.ok
        assert any("survives" in p for p in report.problems)

    def test_detects_broken_provenance(self, network):
        index = build_backbone_index(
            network,
            BackboneParams(
                m_max=30, m_min=5, p=0.1, aggressive=AggressiveMode.EACH
            ),
        )
        if not index.provenance:
            pytest.skip("no shortcuts on this input")
        key = next(iter(index.provenance))
        index.provenance[key] = (key[0], 987_654_321, key[1])
        # rebuild the pair-provenance cache the constructor made
        index._pair_provenance.clear()
        for (u, v, _cost), sequence in index.provenance.items():
            canonical = (u, v) if u <= v else (v, u)
            index._pair_provenance.setdefault(canonical, []).append(sequence)
        report = verify_index(index)
        assert not report.ok
