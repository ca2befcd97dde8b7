"""Tests for parameter validation and the exception hierarchy."""

from __future__ import annotations

import pytest

from repro.core.params import (
    AggressiveMode,
    BackboneParams,
    ClusteringStrategy,
    LabelScope,
    TreePolicy,
)
from repro.errors import (
    BuildError,
    DimensionMismatchError,
    EdgeNotFoundError,
    GraphError,
    NodeNotFoundError,
    QueryError,
    ReproError,
    SearchTimeoutError,
)


class TestBackboneParams:
    def test_paper_defaults(self):
        params = BackboneParams()
        assert params.m_max == 200
        assert params.m_min == 30
        assert params.p == 0.01
        assert params.p_ind == 0.3
        assert params.aggressive is AggressiveMode.NORMAL
        assert params.clustering is ClusteringStrategy.DENSE
        assert params.tree_policy is TreePolicy.DEGREE_PAIR
        assert params.label_scope is LabelScope.REMOVED_EDGES

    def test_frozen(self):
        params = BackboneParams()
        with pytest.raises(AttributeError):
            params.m_max = 5  # type: ignore[misc]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"m_max": 0},
            {"m_min": -1},
            {"m_min": 300},  # exceeds default m_max
            {"p": 0.0},
            {"p": 1.0},
            {"p_ind": 1.0},
            {"p_ind": -0.2},
            {"m_max": 10, "m_min": 11},  # exceeds an explicit m_max
            {"max_levels": 0},
            {"max_levels": -3},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(BuildError):
            BackboneParams(**kwargs)

    def test_replace_preserves_validation(self):
        from dataclasses import replace

        params = BackboneParams(m_max=50, m_min=10)
        with pytest.raises(BuildError):
            replace(params, m_max=5)  # m_min 10 > m_max 5

    def test_enum_round_trips(self):
        for mode in AggressiveMode:
            assert AggressiveMode(mode.value) is mode
        for strategy in ClusteringStrategy:
            assert ClusteringStrategy(strategy.value) is strategy
        for policy in TreePolicy:
            assert TreePolicy(policy.value) is policy
        for scope in LabelScope:
            assert LabelScope(scope.value) is scope


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for cls in (
            GraphError,
            NodeNotFoundError,
            EdgeNotFoundError,
            DimensionMismatchError,
            BuildError,
            QueryError,
            SearchTimeoutError,
        ):
            assert issubclass(cls, ReproError)

    def test_graph_errors_derive_from_graph_error(self):
        for cls in (NodeNotFoundError, EdgeNotFoundError, DimensionMismatchError):
            assert issubclass(cls, GraphError)

    def test_node_not_found_carries_node(self):
        error = NodeNotFoundError(42)
        assert error.node == 42
        assert "42" in str(error)

    def test_edge_not_found_carries_endpoints(self):
        error = EdgeNotFoundError(1, 2)
        assert (error.u, error.v) == (1, 2)
        assert "1" in str(error) and "2" in str(error)

    def test_dimension_mismatch_carries_dims(self):
        error = DimensionMismatchError(3, 2)
        assert error.expected == 3
        assert error.actual == 2

    def test_search_timeout_carries_partials(self):
        error = SearchTimeoutError("too slow", partial_results=["p"])
        assert error.partial_results == ["p"]
        assert SearchTimeoutError("x").partial_results == []

    def test_one_except_catches_everything(self):
        caught = 0
        for raiser in (
            lambda: (_ for _ in ()).throw(NodeNotFoundError(1)),
            lambda: (_ for _ in ()).throw(BuildError("b")),
            lambda: (_ for _ in ()).throw(QueryError("q")),
        ):
            try:
                next(raiser())
            except ReproError:
                caught += 1
        assert caught == 3
