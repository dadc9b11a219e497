"""Property-based equivalence: the delta pipeline == full rebuilds.

The acceptance contract of delta-based snapshot maintenance is *bit-for-bit
equivalence*: for any graph and any mutation stream, chaining
``CSRGraph.apply_delta`` and ``incremental_truss_update`` must produce
exactly the same CSR arrays and trussness values as freezing and
decomposing the mutated graph from scratch, and a delta-applying
:class:`CTCEngine` must serve exactly the snapshots a full-rebuild engine
serves.  (Extends the ``tests/trusses/test_csr_equivalence.py`` pattern to
the dynamic setting.)
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine import CTCEngine
from repro.graph.csr import CSRGraph
from repro.graph.csr_triangles import csr_triangle_incidence, patch_incidence
from repro.graph.delta import GraphDelta
from repro.graph.generators import (
    complete_graph,
    erdos_renyi_graph,
    relaxed_caveman_graph,
)
from repro.trusses.csr_decomposition import csr_truss_decomposition
from repro.trusses.incremental import incremental_truss_update
from repro.trusses.index import TrussIndex

common_settings = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def base_graphs(draw):
    """Random graphs with enough triangles to exercise truss maintenance."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    kind = draw(st.sampled_from(["er", "caveman", "complete"]))
    if kind == "er":
        n = draw(st.integers(min_value=4, max_value=25))
        p = draw(st.floats(min_value=0.2, max_value=0.7))
        return erdos_renyi_graph(n, p, seed=seed)
    if kind == "caveman":
        cliques = draw(st.integers(min_value=2, max_value=4))
        size = draw(st.integers(min_value=3, max_value=6))
        rewire = draw(st.floats(min_value=0.0, max_value=0.4))
        return relaxed_caveman_graph(cliques, size, rewire, seed=seed)
    return complete_graph(draw(st.integers(min_value=3, max_value=8)))


mutation_streams = st.lists(
    st.tuples(
        st.sampled_from(["add_edge", "remove_edge", "remove_node", "add_node"]),
        st.integers(min_value=0, max_value=10_000),
    ),
    min_size=1,
    max_size=12,
)


def _next_delta(graph, op, pick):
    """Mutate ``graph`` per ``(op, pick)`` and return the normalized delta.

    Mirrors what the engine's mutation methods record; returns ``None``
    when the drawn operation is a no-op on the current graph.
    """
    nodes = sorted(graph.nodes())
    if op == "add_edge":
        absent = [
            (u, v)
            for i, u in enumerate(nodes)
            for v in nodes[i + 1:]
            if not graph.has_edge(u, v)
        ]
        absent.append((nodes[pick % len(nodes)], max(nodes) + 1 + pick % 7))
        u, v = absent[pick % len(absent)]
        added_nodes = [x for x in (u, v) if not graph.has_node(x)]
        graph.add_edge(u, v)
        return GraphDelta(added_nodes=added_nodes, added_edges=[(u, v)])
    if op == "remove_edge":
        edges = sorted(graph.edges())
        if not edges:
            return None
        u, v = edges[pick % len(edges)]
        graph.remove_edge(u, v)
        return GraphDelta(removed_edges=[(u, v)])
    if op == "remove_node":
        if len(nodes) <= 2:
            return None
        node = nodes[pick % len(nodes)]
        incident = [(node, other) for other in graph.neighbors(node)]
        graph.remove_node(node)
        return GraphDelta(removed_nodes=[node], removed_edges=incident)
    node = max(nodes) + 500 + pick % 13
    graph.add_node(node)
    return GraphDelta(added_nodes=[node])


def _edge_trussness(snapshot) -> dict:
    """The snapshot's per-edge trussness, keyed like the dict path's."""
    return {
        snapshot.csr.edge_key_of(edge): int(snapshot.trussness[edge])
        for edge in range(snapshot.csr.number_of_edges())
    }


class TestCsrDeltaEquivalence:
    @common_settings
    @given(graph=base_graphs(), stream=mutation_streams)
    def test_apply_delta_matches_from_graph(self, graph, stream):
        """Chained apply_delta snapshots are bit-for-bit full freezes."""
        csr = CSRGraph.from_graph(graph)
        for op, pick in stream:
            delta = _next_delta(graph, op, pick)
            if delta is None:
                continue
            csr = csr.apply_delta(delta).csr
            fresh = CSRGraph.from_graph(graph)
            assert csr.labels() == fresh.labels()
            for name in ("indptr", "indices", "slot_edge", "edge_u", "edge_v"):
                assert np.array_equal(getattr(csr, name), getattr(fresh, name)), name

    @common_settings
    @given(graph=base_graphs(), stream=mutation_streams)
    def test_incremental_trussness_matches_decomposition(self, graph, stream):
        """Incrementally maintained trussness equals a from-scratch peel."""
        csr = CSRGraph.from_graph(graph)
        trussness = csr_truss_decomposition(csr)
        for op, pick in stream:
            delta = _next_delta(graph, op, pick)
            if delta is None:
                continue
            patch = csr.apply_delta(delta)
            trussness, changed = incremental_truss_update(csr, trussness, patch)
            csr = patch.csr
            expected = csr_truss_decomposition(csr)
            assert np.array_equal(trussness, expected)
            # The changed set is exact: untouched edges carried their value.
            carried = patch.edge_origin >= 0
            stable = np.setdiff1d(np.arange(csr.number_of_edges()), changed)
            assert bool(carried[stable].all())

    @common_settings
    @given(graph=base_graphs(), stream=mutation_streams)
    def test_composed_delta_equals_stepwise(self, graph, stream):
        """Applying the one composed delta equals applying each step in turn."""
        csr = CSRGraph.from_graph(graph)
        deltas = []
        for op, pick in stream:
            delta = _next_delta(graph, op, pick)
            if delta is not None:
                deltas.append(delta)
        composed = GraphDelta.chain(deltas)
        patched = csr.apply_delta(composed).csr
        fresh = CSRGraph.from_graph(graph)
        assert patched.labels() == fresh.labels()
        for name in ("indptr", "indices", "slot_edge", "edge_u", "edge_v"):
            assert np.array_equal(getattr(patched, name), getattr(fresh, name)), name


class TestLabelOrderFlip:
    @common_settings
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_nodes=st.integers(min_value=12, max_value=22),
        pick=st.integers(min_value=0, max_value=10_000),
        removals=st.integers(min_value=0, max_value=3),
    )
    def test_repr_fallback_reorders_edge_ids(self, seed, num_nodes, pick, removals):
        """A new ``str`` label makes the labels incomparable, so the node
        order falls back to ``repr`` (``10`` now sorts before ``2``): the
        remap is not monotone, edge ids must be re-sorted rather than
        merged, and the incidence re-grouped rather than carried."""
        graph = erdos_renyi_graph(num_nodes, 0.35, seed=seed)
        csr = CSRGraph.from_graph(graph)
        incidence = csr_triangle_incidence(csr)
        trussness = csr_truss_decomposition(csr)
        nodes = sorted(graph.nodes())
        removed = sorted(graph.edges())[:removals]
        added = [("x", nodes[pick % num_nodes]), ("x", nodes[(pick + 1) % num_nodes])]
        for u, v in removed:
            graph.remove_edge(u, v)
        for u, v in added:
            graph.add_edge(u, v)
        patch = csr.apply_delta(
            GraphDelta(added_nodes=["x"], added_edges=added, removed_edges=removed)
        )
        assert not patch.preserves_edge_order()
        fresh = CSRGraph.from_graph(graph)
        assert patch.csr.labels() == fresh.labels()
        for name in ("indptr", "indices", "slot_edge", "edge_u", "edge_v"):
            assert np.array_equal(getattr(patch.csr, name), getattr(fresh, name)), name
        patched = patch_incidence(incidence, patch)
        expected = csr_triangle_incidence(fresh)
        assert np.array_equal(patched.edges, expected.edges)
        assert np.array_equal(patched.inc_indptr, expected.inc_indptr)
        assert np.array_equal(patched.inc_triangles, expected.inc_triangles)
        updated, _changed = incremental_truss_update(
            csr, trussness, patch, incidence=incidence, new_incidence=patched
        )
        assert np.array_equal(updated, csr_truss_decomposition(fresh))


class TestEngineDeltaEquivalence:
    @common_settings
    @given(graph=base_graphs(), stream=mutation_streams)
    def test_delta_engine_serves_full_rebuild_snapshots(self, graph, stream):
        """A patching engine and a rebuilding engine are indistinguishable."""
        delta_engine = CTCEngine(graph, delta_threshold=float("inf"))
        rebuild_engine = CTCEngine(graph, delta_threshold=0)
        delta_engine.snapshot()
        for op, pick in stream:
            mirror = graph.copy()
            delta = _next_delta(mirror, op, pick)
            if delta is None:
                continue
            for engine in (delta_engine, rebuild_engine):
                for node in delta.added_nodes:
                    engine.add_node(node)
                for u, v in delta.added_edges:
                    engine.add_edge(u, v)
                for u, v in delta.removed_edges:
                    if engine.graph.has_edge(u, v):
                        engine.remove_edge(u, v)
                for node in delta.removed_nodes:
                    engine.remove_node(node)
            graph = mirror
            patched = delta_engine.snapshot()
            rebuilt = rebuild_engine.snapshot()
            assert patched.graph == rebuilt.graph
            # Both match the paper-reference dict decomposition of the store.
            oracle = TrussIndex(delta_engine.graph.copy()).all_edge_trussness()
            assert _edge_trussness(patched) == oracle
            assert _edge_trussness(rebuilt) == oracle
        assert rebuild_engine.stats.delta_applies == 0


class TestGraphDeltaAlgebra:
    def test_cancellation(self):
        add = GraphDelta(added_edges=[(1, 2)])
        remove = GraphDelta(removed_edges=[(2, 1)])
        assert add.then(remove).is_empty()
        assert remove.then(add).is_empty()

    def test_node_edge_cancellation(self):
        grow = GraphDelta(added_nodes=[9], added_edges=[(1, 9)])
        shrink = GraphDelta(removed_nodes=[9], removed_edges=[(9, 1)])
        assert grow.then(shrink).is_empty()

    def test_chain_keeps_net_effect(self):
        deltas = [
            GraphDelta(removed_edges=[(1, 2)]),
            GraphDelta(added_edges=[(1, 2)]),
            GraphDelta(removed_edges=[(1, 2)]),
        ]
        combined = GraphDelta.chain(deltas)
        assert combined.removed_edges == frozenset({(1, 2)})
        assert not combined.added_edges

    def test_size_and_touched_labels(self):
        delta = GraphDelta(added_nodes=[7], added_edges=[(7, 3)], removed_edges=[(4, 5)])
        assert delta.size() == 3
        assert delta.touched_labels() == {3, 4, 5, 7}
