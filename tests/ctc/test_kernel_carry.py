"""Property test: a kernel carried across a delta equals a fresh one.

``CTCEngine`` derives a delta-built snapshot's :class:`QueryKernel` from the
base snapshot's (:meth:`QueryKernel.carried`): the label-only structures are
shared and only the touched rows of the trussness-sorted arrays re-sort.
The oracle here shares none of that: on every version of a mutation stream
the served kernel is compared, structure by structure, against a fresh
``QueryKernel`` over a from-scratch freeze and decomposition of the
engine's store.  Deltas that add or remove nodes relabel the ids, so they
take the lazy fresh path instead; the test asserts which path each version
took and checks both.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.ctc.kernels import QueryKernel
from repro.engine import CTCEngine
from repro.graph.csr import CSRGraph
from repro.graph.generators import erdos_renyi_graph, relaxed_caveman_graph
from repro.trusses.csr_decomposition import csr_decompose

stream_settings = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def base_graphs(draw):
    """Random graphs with enough triangles for trussness to move."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    if draw(st.booleans()):
        n = draw(st.integers(min_value=5, max_value=22))
        return erdos_renyi_graph(n, draw(st.floats(min_value=0.25, max_value=0.6)), seed=seed)
    cliques = draw(st.integers(min_value=2, max_value=4))
    size = draw(st.integers(min_value=3, max_value=6))
    return relaxed_caveman_graph(cliques, size, 0.25, seed=seed)


mutation_streams = st.lists(
    st.tuples(
        st.sampled_from(
            ["add_edge", "add_edge", "remove_edge", "remove_edge", "add_node", "remove_node"]
        ),
        st.integers(min_value=0, max_value=10_000),
    ),
    min_size=1,
    max_size=14,
)


def _mutate(engine: CTCEngine, op: str, pick: int) -> bool:
    """Apply one mutation through the engine; return whether nodes changed."""
    graph = engine.graph
    nodes = sorted(graph.nodes())
    if op == "add_edge":
        absent = [
            (u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:]
            if not graph.has_edge(u, v)
        ]
        if absent:
            engine.add_edge(*absent[pick % len(absent)])
        return False
    if op == "remove_edge":
        edges = sorted(graph.edges())
        if edges:
            engine.remove_edge(*edges[pick % len(edges)])
        return False
    if op == "add_node":
        engine.add_node(max(nodes) + 1 + pick % 5)
        return True
    if len(nodes) > 3:
        engine.remove_node(nodes[pick % len(nodes)])
        return True
    return False


def _assert_kernel_matches_fresh(kernel: QueryKernel, fresh: QueryKernel) -> None:
    """Every derived structure of ``kernel`` equals ``fresh``'s."""
    assert kernel.csr.labels() == fresh.csr.labels()
    for name in ("indptr", "indices", "slot_edge", "edge_u", "edge_v"):
        assert np.array_equal(getattr(kernel.csr, name), getattr(fresh.csr, name)), name
    assert np.array_equal(kernel.trussness, fresh.trussness)
    for carried, expected in zip(kernel.sorted_arrays, fresh.sorted_arrays):
        assert np.array_equal(carried, expected)
    nodes = np.arange(fresh.csr.number_of_nodes(), dtype=np.int64)
    for threshold in [*fresh.levels, fresh.max_trussness + 1]:
        assert np.array_equal(
            kernel.sorted_row_stops(threshold)(nodes), fresh.sorted_row_stops(threshold)(nodes)
        ), threshold
    assert kernel.repr_rank == fresh.repr_rank
    assert np.array_equal(kernel.repr_rank_array, fresh.repr_rank_array)
    assert kernel.label_array.tolist() == fresh.label_array.tolist()
    assert kernel.vertex_trussness == fresh.vertex_trussness
    assert kernel.levels == fresh.levels
    assert kernel.max_trussness == fresh.max_trussness
    assert kernel.sorted_adjacency == fresh.sorted_adjacency
    assert kernel.edge_order_desc == fresh.edge_order_desc


def _fresh_kernel(engine: CTCEngine) -> QueryKernel:
    csr = CSRGraph.from_graph(engine.graph)
    return QueryKernel(csr, csr_decompose(csr).trussness)


class TestCarriedKernel:
    @stream_settings
    @given(graph=base_graphs(), stream=mutation_streams)
    def test_every_version_matches_a_fresh_kernel(self, graph, stream):
        engine = CTCEngine(graph, delta_threshold=math.inf)
        previous = engine.snapshot().kernel
        _assert_kernel_matches_fresh(previous, _fresh_kernel(engine))
        for op, pick in stream:
            version = engine.version
            nodes_changed = _mutate(engine, op, pick)
            if engine.version == version:
                continue
            kernel = engine.snapshot().kernel
            if nodes_changed:
                # Relabelled ids: a fresh, fully lazy kernel.
                assert kernel._sorted_np is None and kernel._repr_rank is None
            else:
                # Carried: label structures shared, sorted rows already built.
                assert kernel._sorted_np is not None
                assert kernel._repr_rank is previous._repr_rank
                assert kernel._label_array is previous._label_array
            _assert_kernel_matches_fresh(kernel, _fresh_kernel(engine))
            previous = kernel
        assert engine.stats.full_rebuilds == 1

    def test_carry_skips_structures_the_base_never_built(self):
        """Only what the base kernel derived is carried; the rest stays lazy."""
        engine = CTCEngine(relaxed_caveman_graph(3, 5, 0.2, seed=4), delta_threshold=math.inf)
        base = engine.snapshot().kernel
        assert base._sorted_np is None
        u, v = sorted(engine.graph.edges())[0]
        engine.remove_edge(u, v)
        kernel = engine.snapshot().kernel
        assert kernel._sorted_np is None and kernel._sorted_keys is None
        _assert_kernel_matches_fresh(kernel, _fresh_kernel(engine))
