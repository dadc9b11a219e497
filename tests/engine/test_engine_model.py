"""Model-based test of :class:`CTCEngine`'s state transitions.

A hypothesis ``RuleBasedStateMachine`` drives one durable engine through
random interleavings of edge and node mutations (including a remove +
re-add that cancels out), queries, leases and their release, time-travel
reads, checkpoints, and close + ``recover()``.  The oracles share none of
the engine's carried state:

* a **dict-of-sets model** of the store, with one frozen copy per version
  for ``snapshot_at`` and for the versions leases pin;
* a **from-scratch rebuild** of the model graph (``CSRGraph.from_graph`` +
  ``csr_decompose`` + a fresh ``QueryKernel``), which every served
  snapshot — delta-patched incidence, incrementally maintained trussness
  and carried kernel included — must equal array for array;
* the paper-reference **dict path** (``search`` on the model graph) for
  query answers.

The run is derandomized, so tier-1 replays the same programs every time;
it is sized to take a few seconds.
"""

from __future__ import annotations

import shutil
import tempfile

import numpy as np
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.ctc.api import search
from repro.ctc.kernels import QueryKernel
from repro.engine import CTCEngine, DurabilityConfig
from repro.exceptions import ReproError
from repro.graph.csr import CSRGraph
from repro.graph.csr_triangles import csr_triangle_incidence
from repro.graph.generators import relaxed_caveman_graph
from repro.graph.simple_graph import UndirectedGraph
from repro.trusses.csr_decomposition import csr_decompose

picks = st.integers(min_value=0, max_value=10**6)

#: Engine knobs: a small cache and log so eviction, log trimming and the
#: rebuild fallback all happen within one program.
ENGINE_KWARGS = dict(cache_size=3, delta_log_limit=12)


def _frozen(model: dict[int, set[int]]) -> dict[int, frozenset[int]]:
    return {node: frozenset(neighbors) for node, neighbors in model.items()}


def _graph_of(model) -> UndirectedGraph:
    graph = UndirectedGraph()
    for node, neighbors in model.items():
        graph.add_node(node)
        for other in neighbors:
            graph.add_edge(node, other)
    return graph


def _community(result) -> tuple:
    edges = sorted(tuple(sorted(edge)) for edge in result.graph.edges())
    return sorted(result.nodes), edges, result.trussness, result.query_distance


def _answer(target, query, method):
    try:
        return _community(search(target, query, method=method, eta=12))
    except ReproError as error:
        return type(error).__name__


def _assert_snapshot_matches(snapshot, model) -> None:
    """``snapshot`` equals the model and a from-scratch rebuild of it."""
    csr = snapshot.csr
    assert csr.labels() == sorted(model)
    assert {frozenset(csr.edge_key_of(e)) for e in range(csr.number_of_edges())} == {
        frozenset((node, other)) for node, row in model.items() for other in row
    }
    fresh_csr = CSRGraph.from_graph(_graph_of(model))
    for name in ("indptr", "indices", "slot_edge", "edge_u", "edge_v"):
        assert np.array_equal(getattr(csr, name), getattr(fresh_csr, name)), name
    decomposition = csr_decompose(fresh_csr)
    assert np.array_equal(snapshot.trussness, decomposition.trussness)
    assert np.array_equal(snapshot.supports, decomposition.supports)
    if snapshot.incidence is not None:
        fresh_incidence = csr_triangle_incidence(fresh_csr)
        assert np.array_equal(snapshot.incidence.edges, fresh_incidence.edges)
        assert np.array_equal(
            snapshot.incidence.inc_triangles, fresh_incidence.inc_triangles
        )
    kernel = snapshot.kernel
    fresh = QueryKernel(fresh_csr, decomposition.trussness)
    for carried, expected in zip(kernel.sorted_arrays, fresh.sorted_arrays):
        assert np.array_equal(carried, expected)
    nodes = np.arange(fresh_csr.number_of_nodes(), dtype=np.int64)
    for threshold in fresh.levels:
        assert np.array_equal(
            kernel.sorted_row_stops(threshold)(nodes),
            fresh.sorted_row_stops(threshold)(nodes),
        )
    assert kernel.repr_rank == fresh.repr_rank
    assert kernel.label_array.tolist() == fresh.label_array.tolist()
    assert kernel.vertex_trussness == fresh.vertex_trussness
    assert kernel.levels == fresh.levels


class EngineModel(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.directory = tempfile.mkdtemp(prefix="engine-model-")
        self.config = DurabilityConfig(
            path=self.directory, fsync="off", checkpoint_every=None
        )
        graph = relaxed_caveman_graph(3, 5, 0.3, seed=7)
        self.engine = CTCEngine(graph, durability=self.config, **ENGINE_KWARGS)
        self.model = {node: set(graph.neighbors(node)) for node in graph.nodes()}
        self.history = {0: _frozen(self.model)}
        self.leases: list = []
        self.next_label = 100

    def teardown(self) -> None:
        for lease, _model in self.leases:
            lease.release()
        self.engine.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    # -- bookkeeping -----------------------------------------------------
    def _committed(self) -> None:
        """Record the model as the next version (one effective mutation)."""
        assert self.engine.version == max(self.history) + 1
        self.history[self.engine.version] = _frozen(self.model)

    def _edges(self) -> list[tuple[int, int]]:
        return sorted((u, v) for u, row in self.model.items() for v in row if u < v)

    # -- mutations -------------------------------------------------------
    @rule(pick=picks)
    def add_edge(self, pick):
        nodes = sorted(self.model)
        absent = [
            (u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:]
            if v not in self.model[u]
        ]
        if not absent:
            return
        u, v = absent[pick % len(absent)]
        self.engine.add_edge(u, v)
        self.model[u].add(v)
        self.model[v].add(u)
        self._committed()

    @rule(pick=picks)
    def remove_edge(self, pick):
        edges = self._edges()
        if not edges:
            return
        u, v = edges[pick % len(edges)]
        self.engine.remove_edge(u, v)
        self.model[u].discard(v)
        self.model[v].discard(u)
        self._committed()

    @rule(pick=picks)
    def add_node(self, pick):
        label = self.next_label + pick % 3
        self.next_label += 3
        self.engine.add_node(label)
        self.model[label] = set()
        self._committed()

    @rule(pick=picks)
    def remove_node(self, pick):
        if len(self.model) <= 4:
            return
        node = sorted(self.model)[pick % len(self.model)]
        self.engine.remove_node(node)
        for other in self.model.pop(node):
            self.model[other].discard(node)
        self._committed()

    @rule(pick=picks)
    def remove_and_readd(self, pick):
        """Two versions whose deltas compose to nothing."""
        edges = self._edges()
        if not edges:
            return
        u, v = edges[pick % len(edges)]
        self.engine.remove_edge(u, v)
        self.model[u].discard(v)
        self.model[v].discard(u)
        self._committed()
        self.engine.add_edge(u, v)
        self.model[u].add(v)
        self.model[v].add(u)
        self._committed()

    # -- reads -----------------------------------------------------------
    @rule(pick=picks, method=st.sampled_from(["lctc", "bulk-delete", "truss"]))
    def query(self, pick, method):
        nodes = sorted(self.model)
        first = nodes[pick % len(nodes)]
        neighbors = sorted(self.model[first])
        query = [first] if not neighbors else [first, neighbors[pick % len(neighbors)]]
        expected = _answer(_graph_of(self.model), query, method)
        assert _answer(self.engine, query, method) == expected

    @rule()
    def lease(self):
        self.leases.append((self.engine.lease(), self.history[self.engine.version]))

    @rule(pick=picks)
    def release(self, pick):
        if not self.leases:
            return
        lease, model = self.leases.pop(pick % len(self.leases))
        _assert_snapshot_matches(lease.snapshot, model)
        assert self.engine.snapshot_at(lease.version) is lease.snapshot
        lease.release()

    @rule(pick=picks)
    def snapshot_at(self, pick):
        oldest, newest = self.engine.retained_versions()
        version = oldest + pick % (newest - oldest + 1)
        snapshot = self.engine.snapshot_at(version)
        assert snapshot.version == version
        _assert_snapshot_matches(snapshot, self.history[version])

    # -- durability ------------------------------------------------------
    @rule()
    def checkpoint(self):
        self.engine.checkpoint()

    @rule()
    def close_and_recover(self):
        for lease, _model in self.leases:
            lease.release()
        self.leases.clear()
        version = self.engine.version
        self.engine.close()
        self.engine = CTCEngine.recover(self.config, **ENGINE_KWARGS)
        assert self.engine.version == version
        assert self.engine.last_recovery.recovered_version == version

    # -- the served snapshot, after every step ---------------------------
    @invariant()
    def served_snapshot_matches_the_model(self):
        snapshot = self.engine.snapshot()
        assert snapshot.version == self.engine.version
        _assert_snapshot_matches(snapshot, self.model)


EngineModel.TestCase.settings = settings(
    max_examples=30,
    stateful_step_count=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestEngineModel = EngineModel.TestCase
