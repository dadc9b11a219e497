"""Property-based equivalence: CSR-native kernels == the dict-path algorithms.

The acceptance contract of the kernel layer (:mod:`repro.ctc.kernels`) is
that for any graph and any query, running Basic, BulkDelete, LCTC or the
Truss baseline on an :class:`EngineSnapshot`'s arrays returns *exactly* the
community the dict-path classes return — same node set, same edge set, same
trussness, same query distance, same diameter, same iteration count, and
the same ``NoCommunityFoundError`` / ``QueryError`` outcomes — so an
engine answers exactly what the paper-reference dict path answers.  (Extends the
``tests/trusses/test_delta_equivalence.py`` pattern from snapshot
maintenance to query execution.)
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.ctc.api import build_index, search
from repro.ctc.basic import BasicCTC
from repro.ctc.bulk_delete import BulkDeleteCTC
from repro.ctc.kernels import QueryKernel, kernel_of
from repro.engine import CTCEngine
from repro.exceptions import NoCommunityFoundError, QueryError
from repro.graph.generators import (
    complete_graph,
    connect_components,
    erdos_renyi_graph,
    relaxed_caveman_graph,
)
from repro.trusses.index import TrussIndex

common_settings = settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: Method matrix: (method name, search() keyword arguments).
METHODS = (
    ("basic", {}),
    ("bulk-delete", {}),
    ("lctc", {"eta": 6}),
    ("lctc", {"eta": 40, "gamma": 0.0}),
    ("lctc", {"eta": 40, "max_trussness_k": 3}),
    ("truss", {}),
)


@st.composite
def graphs_and_queries(draw):
    """Random graphs plus a small stream of random queries against them."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    kind = draw(st.sampled_from(["er", "caveman", "complete"]))
    if kind == "er":
        graph = erdos_renyi_graph(
            draw(st.integers(min_value=4, max_value=24)),
            draw(st.floats(min_value=0.15, max_value=0.7)),
            seed=seed,
        )
    elif kind == "caveman":
        graph = relaxed_caveman_graph(
            draw(st.integers(min_value=2, max_value=4)),
            draw(st.integers(min_value=3, max_value=6)),
            draw(st.floats(min_value=0.0, max_value=0.4)),
            seed=seed,
        )
    else:
        graph = complete_graph(draw(st.integers(min_value=3, max_value=8)))
    if draw(st.booleans()):
        graph.add_node("isolated")  # exercises the vertex-trussness < 2 paths
    nodes = sorted(graph.nodes(), key=repr)
    queries = draw(
        st.lists(
            st.lists(
                st.sampled_from(nodes), min_size=1, max_size=4, unique=True
            ),
            min_size=1,
            max_size=4,
        )
    )
    return graph, queries


def outcome(target, query, method, **kwargs):
    """Run one search, normalizing result/exception into a comparable value."""
    try:
        result = search(target, query, method=method, **kwargs)
    except (NoCommunityFoundError, QueryError) as exc:
        return (type(exc).__name__, str(exc))
    return {
        "nodes": frozenset(result.nodes),
        "edges": frozenset(result.graph.edges()),
        "trussness": result.trussness,
        "query_distance": result.query_distance,
        "diameter": result.diameter(),
        "iterations": result.iterations,
        "query": result.query,
        "extras": {
            key: value
            for key, value in result.extras.items()
            if key != "timed_out"  # timing-dependent by design
        },
    }


class TestKernelEquivalence:
    @common_settings
    @given(data=graphs_and_queries())
    def test_kernels_match_dict_path(self, data):
        """Every method, every query: snapshot kernels == dict-path search."""
        graph, queries = data
        index = TrussIndex(graph)
        snapshot = CTCEngine(graph).snapshot()
        for query in queries:
            for method, kwargs in METHODS:
                expected = outcome(index, query, method, **kwargs)
                actual = outcome(snapshot, query, method, **kwargs)
                assert actual == expected, (method, query, kwargs)
        # The kernel path never thaws the dict form of the snapshot.
        assert snapshot._graph is None

    @common_settings
    @given(data=graphs_and_queries())
    def test_engine_matches_paper_reference(self, data):
        """The engine facade answers what the dict path answers on its store."""
        graph, queries = data
        engine = CTCEngine(graph)
        reference = build_index(engine.graph.copy())
        for query in queries[:2]:
            via_engine = outcome(engine, query, "lctc", eta=10)
            via_reference = outcome(reference, query, "lctc", eta=10)
            assert via_engine == via_reference


class TestBulkDeleteKnobs:
    @common_settings
    @given(
        seed=st.integers(min_value=0, max_value=500),
        threshold_offset=st.sampled_from([0, 1]),
        batch_limit=st.sampled_from([None, 1, 3]),
    )
    def test_class_level_knobs_match(self, seed, threshold_offset, batch_limit):
        """threshold_offset / batch_limit behave identically on both paths."""
        graph = erdos_renyi_graph(18, 0.4, seed=seed)
        index = TrussIndex(graph)
        snapshot = CTCEngine(graph).snapshot()
        query = sorted(graph.nodes())[:2]
        via_dict = BulkDeleteCTC(
            index, threshold_offset=threshold_offset, batch_limit=batch_limit
        ).search(query)
        via_kernel = BulkDeleteCTC(
            snapshot, threshold_offset=threshold_offset, batch_limit=batch_limit
        ).search(query)
        assert via_kernel.nodes == via_dict.nodes
        assert set(via_kernel.graph.edges()) == set(via_dict.graph.edges())
        assert via_kernel.trussness == via_dict.trussness
        assert via_kernel.iterations == via_dict.iterations


class TestKernelDetails:
    def test_max_iterations_parity(self):
        graph = erdos_renyi_graph(20, 0.4, seed=42)
        index = TrussIndex(graph)
        snapshot = CTCEngine(graph).snapshot()
        for cap in (0, 1, 2):
            via_dict = BasicCTC(index, max_iterations=cap).search([0, 1])
            via_kernel = BasicCTC(snapshot, max_iterations=cap).search([0, 1])
            assert via_kernel.nodes == via_dict.nodes
            assert via_kernel.iterations == via_dict.iterations <= cap

    def test_time_budget_reports_timed_out_flag(self):
        snapshot = CTCEngine(erdos_renyi_graph(20, 0.4, seed=1)).snapshot()
        result = BasicCTC(snapshot, time_budget_seconds=1e9).search([0, 1])
        assert result.extras["timed_out"] is False
        exhausted = BasicCTC(snapshot, time_budget_seconds=0.0).search([0, 1])
        assert exhausted.extras["timed_out"] is True
        assert exhausted.contains_query()

    def test_unknown_kernel_rejected(self):
        """The input type picks the path; there is no ``kernel`` argument."""
        engine = CTCEngine(complete_graph(4))
        with pytest.raises(TypeError):
            search(engine, [0], method="lctc", kernel="simd")
        with pytest.raises(TypeError):
            engine.query([0], method="lctc", kernel="dict")

    def test_kernel_of_dispatch_seam(self):
        graph = complete_graph(5)
        snapshot = CTCEngine(graph).snapshot()
        assert isinstance(kernel_of(snapshot), QueryKernel)
        assert kernel_of(TrussIndex(graph)) is None
        assert kernel_of(graph) is None
        kernel = snapshot.kernel
        assert kernel_of(kernel) is kernel

    def test_baselines_route_through_snapshot_graph(self):
        graph = erdos_renyi_graph(15, 0.4, seed=9)
        snapshot = CTCEngine(graph).snapshot()
        for method in ("mdc", "qdc"):
            via_snapshot = search(snapshot, [0, 1], method=method)
            direct = search(graph, [0, 1], method=method)
            assert via_snapshot.nodes == direct.nodes
        # Baselines read the snapshot's graph, thawed from its arrays.
        assert snapshot._graph is not None

    def test_array_peel_forced_through_search_matches_dict_index(self, monkeypatch):
        """With the array threshold floored, every snapshot search peels on
        masks + incidence — and still matches the dict-index path exactly."""
        import repro.ctc.kernels.peeling as peeling

        monkeypatch.setattr(peeling, "DEFAULT_ARRAY_THRESHOLD", 0)
        graph = relaxed_caveman_graph(3, 6, 0.3, seed=11)
        index = TrussIndex(graph)
        snapshot = CTCEngine(graph).snapshot()
        for query in ([0, 1], [5], [2, 9, 14]):
            for method, kwargs in METHODS:
                assert outcome(snapshot, query, method, **kwargs) == outcome(
                    index, query, method, **kwargs
                ), (method, query)


class TestPeelEngineEquivalence:
    """The array peel engine == the dict peel engine, bit for bit."""

    @common_settings
    @given(data=graphs_and_queries())
    def test_array_vs_dict_peel_all_methods(self, data):
        from repro.ctc.kernels import search as kernel_search

        graph, queries = data
        kernel = CTCEngine(graph).snapshot().kernel
        runs = (
            (kernel_search.basic_search, {}),
            (kernel_search.bulk_delete_search, {}),
            (kernel_search.bulk_delete_search, {"batch_limit": 2}),
            (kernel_search.lctc_search, {"eta": 8, "gamma": 1.0}),
        )
        for query in queries:
            for function, kwargs in runs:
                results = {}
                for engine in ("dict", "array"):
                    try:
                        result = function(kernel, query, peel_engine=engine, **kwargs)
                    except (NoCommunityFoundError, QueryError) as exc:
                        results[engine] = (type(exc).__name__, str(exc))
                        continue
                    results[engine] = (
                        frozenset(result.nodes),
                        frozenset(result.graph.edges()),
                        result.trussness,
                        result.query_distance,
                        result.iterations,
                    )
                assert results["array"] == results["dict"], (function.__name__, query, kwargs)

    @common_settings
    @given(
        seed=st.integers(min_value=0, max_value=300),
        cap=st.sampled_from([0, 1, 3]),
    )
    def test_max_iterations_parity_across_engines(self, seed, cap):
        from repro.ctc.kernels.search import basic_search, bulk_delete_search

        kernel = CTCEngine(erdos_renyi_graph(20, 0.4, seed=seed)).snapshot().kernel
        for function in (basic_search, bulk_delete_search):
            via_dict = function(kernel, [0, 1], max_iterations=cap, peel_engine="dict")
            via_array = function(kernel, [0, 1], max_iterations=cap, peel_engine="array")
            assert via_array.nodes == via_dict.nodes
            assert via_array.iterations == via_dict.iterations <= cap

    def test_timeout_parity_across_engines(self):
        from repro.ctc.kernels.search import basic_search

        kernel = CTCEngine(erdos_renyi_graph(20, 0.4, seed=1)).snapshot().kernel
        for engine in ("dict", "array"):
            exhausted = basic_search(
                kernel, [0, 1], time_budget_seconds=0.0, peel_engine=engine
            )
            assert exhausted.extras["timed_out"] is True
            assert exhausted.contains_query()
            relaxed = basic_search(
                kernel, [0, 1], time_budget_seconds=1e9, peel_engine=engine
            )
            assert relaxed.extras["timed_out"] is False
        # A zero budget freezes both engines after the same first iteration.
        dict_frozen = basic_search(kernel, [0, 1], time_budget_seconds=0.0, peel_engine="dict")
        array_frozen = basic_search(kernel, [0, 1], time_budget_seconds=0.0, peel_engine="array")
        assert array_frozen.nodes == dict_frozen.nodes
        assert array_frozen.iterations == dict_frozen.iterations == 0

    def test_unknown_peel_engine_rejected(self):
        from repro.ctc.kernels.peeling import basic_selector, peel

        kernel = CTCEngine(complete_graph(5)).snapshot().kernel
        with pytest.raises(ValueError):
            peel(
                kernel,
                list(range(5)),
                list(range(10)),
                2,
                [0],
                basic_selector(kernel, [0]),
                start_time=0.0,
                engine="simd",
            )

    def test_local_kernel_peel_matches_snapshot_peel(self):
        """LCTC's step-4 contract: peeling a ``csr.edge_subgraph(G0)`` local
        kernel gives, once ids are mapped back, exactly what peeling the
        snapshot kernel gives — on both engines."""
        import time as time_module

        import numpy as np

        from repro.ctc.kernels.find_g0 import find_g0
        from repro.ctc.kernels.peeling import (
            basic_selector,
            bulk_delete_selector,
            peel,
        )

        selectors = (
            lambda kernel, query: bulk_delete_selector(kernel, query),
            lambda kernel, query: bulk_delete_selector(kernel, query, threshold_offset=0),
            lambda kernel, query: bulk_delete_selector(kernel, query, batch_limit=2),
            basic_selector,
        )
        for seed in (7, 11):
            kernel = CTCEngine(erdos_renyi_graph(30, 0.35, seed=seed)).snapshot().kernel
            for query in ([0, 1], [2, 9, 17]):
                g0_nodes, g0_edges, k = find_g0(kernel, query)
                sub = kernel.csr.edge_subgraph(
                    sorted(g0_edges), include_node_ids=sorted(g0_nodes)
                )
                local_kernel = QueryKernel(sub.csr, kernel.trussness[sub.edge_origin])
                local_nodes = np.searchsorted(sub.node_origin, g0_nodes).tolist()
                local_edges = list(range(sub.csr.number_of_edges()))
                local_query = np.searchsorted(sub.node_origin, query).tolist()
                for make_selector in selectors:
                    outcomes = []
                    for engine in ("dict", "array"):
                        on_snapshot = peel(
                            kernel,
                            g0_nodes,
                            g0_edges,
                            k,
                            query,
                            make_selector(kernel, query),
                            start_time=time_module.perf_counter(),
                            engine=engine,
                        )
                        on_local = peel(
                            local_kernel,
                            local_nodes,
                            local_edges,
                            k,
                            local_query,
                            make_selector(local_kernel, local_query),
                            start_time=time_module.perf_counter(),
                            engine=engine,
                        )
                        outcomes.append(
                            (
                                on_snapshot.node_ids,
                                on_snapshot.edge_ids,
                                on_snapshot.query_distance,
                                on_snapshot.iterations,
                            )
                        )
                        outcomes.append(
                            (
                                {int(sub.node_origin[node]) for node in on_local.node_ids},
                                {int(sub.edge_origin[edge]) for edge in on_local.edge_ids},
                                on_local.query_distance,
                                on_local.iterations,
                            )
                        )
                    assert all(entry == outcomes[0] for entry in outcomes[1:]), (seed, query)

    def test_k2_triangle_free_array_peel_matches_dict(self, monkeypatch):
        """At k = 2 (a triangle-free grid of >= 256 edges) the forced array
        engine equals the dict engine, and builds no incidence peel state."""
        import repro.ctc.kernels.peeling as peeling_mod
        from repro.ctc.kernels.search import basic_search, bulk_delete_search
        from repro.graph.simple_graph import UndirectedGraph

        side = 12
        grid = UndirectedGraph()
        for row in range(side):
            for col in range(side):
                if col + 1 < side:
                    grid.add_edge((row, col), (row, col + 1))
                if row + 1 < side:
                    grid.add_edge((row, col), (row + 1, col))
        assert grid.number_of_edges() >= 256
        kernel = CTCEngine(grid).snapshot().kernel

        built = []
        original_state = peeling_mod.IncidencePeelState

        def recording_state(*args, **kwargs):
            built.append(args)
            return original_state(*args, **kwargs)

        monkeypatch.setattr(peeling_mod, "IncidencePeelState", recording_state)
        queries = ([(0, 0)], [(0, 0), (5, 5)], [(2, 3), (9, 1), (11, 11)])
        runs = (
            (basic_search, {}),
            (bulk_delete_search, {}),
            (bulk_delete_search, {"batch_limit": 3}),
        )
        for query in queries:
            for function, kwargs in runs:
                results = {}
                for engine in ("dict", "array"):
                    result = function(kernel, query, peel_engine=engine, **kwargs)
                    assert result.trussness == 2
                    results[engine] = (
                        frozenset(result.nodes),
                        frozenset(result.graph.edges()),
                        result.query_distance,
                        result.iterations,
                    )
                assert results["array"] == results["dict"], (function.__name__, query)
        assert built == []

    def test_bulk_delete_selector_defers_repr_ranks(self):
        """Without a batch limit, BulkDelete selection never derives the
        kernel's repr ranks (a sort of every label by repr)."""
        import numpy as np

        from repro.ctc.kernels.peeling import bulk_delete_selector

        engine = CTCEngine(erdos_renyi_graph(20, 0.4, seed=2))
        snapshot = engine.snapshot()
        kernel = QueryKernel(snapshot.csr, snapshot.trussness)
        selector = bulk_delete_selector(kernel, [0])
        maxima = np.arange(kernel.csr.number_of_nodes(), dtype=np.float64)
        alive = np.arange(kernel.csr.number_of_nodes(), dtype=np.int64)
        assert selector.select_array(maxima, alive).size
        assert selector.select_table({0: 0.0, 1: 2.0, 2: 2.0}) == {1, 2}
        assert kernel._repr_rank is None
        limited = bulk_delete_selector(kernel, [0], batch_limit=1)
        assert limited.select_array(maxima, alive).size == 1
        assert kernel._repr_rank is not None

    @common_settings
    @given(
        seed=st.integers(min_value=0, max_value=300),
        limit=st.integers(min_value=1, max_value=6),
    )
    def test_top_k_selection_matches_full_sort(self, seed, limit):
        """The argpartition top-K equals sorted(..., reverse=True)[:limit]."""
        import numpy as np

        from repro.ctc.kernels.peeling import _top_k_by_distance_rank

        rng = np.random.default_rng(seed)
        size = int(rng.integers(limit + 1, 25))
        nodes = np.arange(size, dtype=np.int64)
        distances = rng.integers(0, 5, size=size).astype(np.float64)
        distances[rng.random(size) < 0.2] = float("inf")
        ranks = rng.permutation(size).astype(np.int64)
        picked = _top_k_by_distance_rank(nodes, distances, ranks, limit)
        assert picked.size == limit
        expected = sorted(
            nodes.tolist(),
            key=lambda node: (distances[node], ranks[node]),
            reverse=True,
        )[:limit]
        assert set(picked.tolist()) == set(expected)

    def test_masked_find_g0_strategy_matches_scalar(self, monkeypatch):
        """LEVEL_SEARCH_THRESHOLD floored: the binary-search masked strategy
        must return the same (k, G0) the scalar union-find sweep does."""
        import importlib

        # The package re-exports find_g0 the *function*, so reach the
        # module through importlib to monkeypatch its threshold.
        find_g0_mod = importlib.import_module("repro.ctc.kernels.find_g0")

        for seed in range(12):
            graph = erdos_renyi_graph(22, 0.35, seed=seed)
            graph.add_node("isolated")
            kernel = CTCEngine(graph).snapshot().kernel
            for query in ([0, 1], [4], [2, 7, 13], [0, "isolated"]):
                query_ids = [kernel.csr.node_id(node) for node in query]
                results = {}
                for name, threshold in (("scalar", 10**9), ("masked", 0)):
                    monkeypatch.setattr(
                        find_g0_mod, "LEVEL_SEARCH_THRESHOLD", threshold
                    )
                    try:
                        results[name] = find_g0_mod.find_g0(kernel, query_ids)
                    except NoCommunityFoundError as exc:
                        results[name] = (type(exc).__name__, str(exc))
                assert results["masked"] == results["scalar"], (seed, query)

    def test_masked_steiner_sweep_matches_scalar(self, monkeypatch):
        """MASKED_SWEEP_THRESHOLD floored: the ordered masked witness-path
        BFS must recover the exact paths (and hence trees) of the scalar
        queue — and the whole LCTC pipeline must still match the dict path."""
        import repro.ctc.kernels.steiner as steiner_mod

        for seed in range(8):
            graph = relaxed_caveman_graph(3, 7, 0.3, seed=seed)
            kernel = CTCEngine(graph).snapshot().kernel
            index = TrussIndex(graph)
            for query in ([0, 1], [2, 9, 14], [5]):
                query_ids = [kernel.csr.node_id(node) for node in query]
                trees = {}
                for name, threshold in (("scalar", 10**9), ("masked", 0)):
                    monkeypatch.setattr(
                        steiner_mod, "MASKED_SWEEP_THRESHOLD", threshold
                    )
                    trees[name] = steiner_mod.build_truss_steiner_tree(
                        kernel, query_ids, gamma=0.3
                    )
                assert trees["masked"] == trees["scalar"], (seed, query)
                # End-to-end: forced-masked LCTC == dict-path LCTC.
                monkeypatch.setattr(steiner_mod, "MASKED_SWEEP_THRESHOLD", 0)
                snapshot = CTCEngine(graph).snapshot()
                assert outcome(snapshot, query, "lctc", eta=10) == outcome(
                    index, query, "lctc", eta=10
                ), (seed, query)

    def test_lctc_incidence_reuse_matches_all_paths(self, monkeypatch):
        """LCTC re-decomposing its expansion on the snapshot's triangle
        incidence (instead of enumerating the subgraph afresh) changes
        nothing observable, against both the fresh-kernel and dict paths."""
        import repro.ctc.kernels.search as kernel_search

        # Force the reuse branch even on small test expansions.
        monkeypatch.setattr(kernel_search, "DEFAULT_VECTOR_THRESHOLD", 1)
        graph = erdos_renyi_graph(35, 0.25, seed=3)
        engine = CTCEngine(graph, decomp="vector")
        snapshot = engine.snapshot()
        assert snapshot.kernel.incidence is not None
        bare_kernel = QueryKernel(snapshot.csr, snapshot.trussness)
        assert bare_kernel.incidence is None
        index = TrussIndex(graph)
        for query in ([0, 1], [5, 9, 12], [3]):
            for eta in (10, 100):
                reused = kernel_search.lctc_search(snapshot.kernel, query, eta=eta, gamma=3.0)
                fresh = kernel_search.lctc_search(bare_kernel, query, eta=eta, gamma=3.0)
                via_dict = outcome(index, query, "lctc", eta=eta)
                assert reused.nodes == fresh.nodes
                assert reused.trussness == fresh.trussness
                assert outcome(snapshot, query, "lctc", eta=eta) == via_dict


@st.composite
def layered_graphs_and_queries(draw):
    """Graphs whose terminals sit below the top trussness levels, plus one query.

    A connected caveman body is bridged to a denser clique (the top levels),
    pendant nodes hang off random nodes (vertex trussness 2), and a triangle
    sits in a component of its own.  The query has 2-8 nodes; when
    ``detached`` is drawn, its last node is in the triangle.
    """
    seed = draw(st.integers(min_value=0, max_value=10_000))
    graph = relaxed_caveman_graph(
        draw(st.integers(min_value=2, max_value=3)),
        draw(st.integers(min_value=3, max_value=5)),
        draw(st.floats(min_value=0.0, max_value=0.3)),
        seed=seed,
    )
    connect_components(graph, random.Random(seed))
    body = sorted(graph.nodes())
    for u, v in complete_graph(draw(st.integers(min_value=5, max_value=8)), offset=100).edges():
        graph.add_edge(u, v)
    graph.add_edge(draw(st.sampled_from(body)), 100)
    for pendant in range(draw(st.integers(min_value=1, max_value=4))):
        anchor = draw(st.sampled_from(sorted(graph.nodes(), key=repr)))
        graph.add_edge(f"p{pendant}", anchor)
    for u, v in (("x0", "x1"), ("x1", "x2"), ("x0", "x2")):
        graph.add_edge(u, v)
    connected = sorted((node for node in graph.nodes() if node not in {"x0", "x1", "x2"}), key=repr)
    query = draw(
        st.lists(st.sampled_from(connected), min_size=2, max_size=8, unique=True)
    )
    detached = draw(st.booleans())
    if detached:
        query[-1] = "x0"
    return graph, query, draw(st.sampled_from([0.0, 0.3, 3.0])), detached


class TestSteinerSweepPruning:
    """The per-source, Lemma-1-pruned threshold sweep of the array Steiner
    kernel returns what the dict path's per-pair full sweep returns."""

    @common_settings
    @given(data=layered_graphs_and_queries())
    def test_pruned_sweep_matches_dict_path(self, data):
        import repro.ctc.kernels.steiner as steiner_mod
        from repro.ctc import steiner as dict_steiner

        graph, query, gamma, detached = data
        index = TrussIndex(graph)
        snapshot = CTCEngine(graph).snapshot()
        kernel = snapshot.kernel
        csr = kernel.csr
        ids = [csr.node_id(node) for node in query]
        for threshold in (10**9, 0):  # scalar queue, then ordered masked BFS
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(steiner_mod, "MASKED_SWEEP_THRESHOLD", threshold)
                for position, source in enumerate(query):
                    for target in query[position + 1:]:
                        value, path = steiner_mod.truss_distance_between(
                            kernel, csr.node_id(source), csr.node_id(target), gamma
                        )
                        labels = None if path is None else [csr.node_label(n) for n in path]
                        assert (value, labels) == dict_steiner.truss_distance_between(
                            index, source, target, gamma
                        ), (threshold, source, target)
                try:
                    expected = dict_steiner.build_truss_steiner_tree(index, query, gamma)
                except QueryError:
                    assert detached
                    with pytest.raises(QueryError):
                        steiner_mod.build_truss_steiner_tree(kernel, ids, gamma)
                else:
                    nodes, edges = steiner_mod.build_truss_steiner_tree(kernel, ids, gamma)
                    assert {csr.node_label(n) for n in nodes} == set(expected.nodes())
                    assert {
                        frozenset((csr.node_label(csr.edge_u[e]), csr.node_label(csr.edge_v[e])))
                        for e in edges
                    } == {frozenset(edge) for edge in expected.edges()}
                actual = outcome(snapshot, query, "lctc", eta=12, gamma=gamma)
                assert actual == outcome(index, query, "lctc", eta=12, gamma=gamma)
                if detached:
                    assert actual[0] == "QueryError"

    def test_sweep_runs_one_bfs_per_source_and_admissible_level(self, monkeypatch):
        """Work bound, no wall clock: every restricted BFS runs at a level
        within the vertex trussness of its source and of each target it
        seeks, and no source sweeps one level twice."""
        import repro.ctc.kernels.steiner as steiner_mod

        graph = relaxed_caveman_graph(3, 5, 0.2, seed=4)
        for u, v in complete_graph(7, offset=100).edges():
            graph.add_edge(u, v)
        graph.add_edge(0, 100)
        graph.add_edge("p0", 3)
        graph.add_edge("p1", 101)
        query = ["p0", "p1", 1, 6, 11, 100, 104, 13]
        kernel = CTCEngine(graph).snapshot().kernel
        vertex_tau = kernel.vertex_trussness
        assert len(set(vertex_tau)) >= 3  # terminals below the top level exist
        ids = [kernel.csr.node_id(node) for node in query]

        calls = []
        original = steiner_mod._restricted_bfs_paths

        def recorder(kernel, source, targets, threshold, cutoff):
            calls.append((source, frozenset(targets), threshold))
            return original(kernel, source, targets, threshold, cutoff)

        monkeypatch.setattr(steiner_mod, "_restricted_bfs_paths", recorder)
        nodes, edges = steiner_mod.build_truss_steiner_tree(kernel, ids, gamma=3.0)
        assert set(ids) <= nodes and edges
        assert calls
        for source, targets, threshold in calls:
            assert threshold <= vertex_tau[source], (source, threshold)
            assert all(threshold <= vertex_tau[target] for target in targets)
        sweeps = [(source, threshold) for source, _targets, threshold in calls]
        assert len(sweeps) == len(set(sweeps))


class TestPeelWorkBound:
    """Work bound, no wall clock: the peel runs on the kernel's own arrays."""

    def test_peel_restricts_no_incidence_and_bfs_walks_the_live_view(self, monkeypatch):
        """On the 1x dblp-like graph: BulkDelete restricts no incidence,
        default-eta LCTC restricts exactly one (its local decomposition),
        and every peel BFS runs on the live view with no edge mask."""
        import sys

        import repro.ctc.kernels.peeling as peeling_mod
        import repro.graph.csr_triangles as triangles_mod
        from repro.ctc.kernels.search import bulk_delete_search, lctc_search
        from repro.ctc.local import DEFAULT_ETA, DEFAULT_GAMMA
        from repro.datasets import load_dataset

        restrictions = []
        original_subset = triangles_mod.subset_incidence

        def counting_subset(*args, **kwargs):
            restrictions.append(args)
            return original_subset(*args, **kwargs)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") and (
                getattr(module, "subset_incidence", None) is original_subset
            ):
                monkeypatch.setattr(module, "subset_incidence", counting_subset)

        bfs_masks = []
        original_bfs = peeling_mod.masked_bfs

        def recording_bfs(*args, **kwargs):
            bfs_masks.append(kwargs.get("edge_alive"))
            return original_bfs(*args, **kwargs)

        monkeypatch.setattr(peeling_mod, "masked_bfs", recording_bfs)

        graph = load_dataset("dblp-like").graph
        kernel = CTCEngine(graph).snapshot().kernel
        nodes = sorted(graph.nodes(), key=repr)
        rng = random.Random(3)
        queries = [[nodes[0]], rng.sample(nodes, 2), rng.sample(nodes, 3)]
        for query in queries:
            restrictions.clear()
            result = bulk_delete_search(kernel, query)
            assert result.contains_query()
            assert restrictions == [], query
            restrictions.clear()
            result = lctc_search(kernel, query, eta=DEFAULT_ETA, gamma=DEFAULT_GAMMA)
            assert result.contains_query()
            assert len(restrictions) == 1, query
        assert bfs_masks, "no query reached the array peel engine"
        assert all(mask is None for mask in bfs_masks)
