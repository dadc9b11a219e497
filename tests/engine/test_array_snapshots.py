"""Engine snapshots are arrays only; independent oracles check what they hold.

Two contracts:

* **The dict form stays lazy.**  No delta build and no array-kernel query
  reads or copies the dict-form store: a delta-built snapshot's ``graph``
  stays unthawed (``_graph is None``) through LCTC and BulkDelete queries,
  and the ``mdc``/``qdc`` baselines, which do thaw it from the CSR, answer
  exactly what they answer on a copy of the live store.
* **Evicted snapshots are freed on eviction.**  A snapshot and its lazy
  kernel form no reference cycle, so dropping a snapshot frees its arrays
  at once instead of when the cyclic collector next runs — which, with no
  per-version dict copies left to allocate, can be many versions later.
* **networkx agrees on every version.**  Per-edge trussness of every
  snapshot along a random mutation stream (served by the delta path)
  matches ``networkx.k_truss`` for every ``k`` — an oracle that shares no
  design with either the array or the dict implementation.
"""

from __future__ import annotations

import gc
import weakref

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.ctc.api import search
from repro.engine import CTCEngine
from repro.exceptions import NoCommunityFoundError, QueryError
from repro.graph.convert import networkx_available, to_networkx
from repro.graph.generators import erdos_renyi_graph, relaxed_caveman_graph


def _outcome(target, query, method):
    """One search's community, or the typed error it raised."""
    try:
        result = search(target, query, method=method)
    except (NoCommunityFoundError, QueryError) as exc:
        return type(exc).__name__
    return frozenset(result.nodes), frozenset(result.graph.edges())


class TestDictFormStaysLazy:
    def test_delta_snapshots_never_thaw_the_store(self):
        engine = CTCEngine(
            relaxed_caveman_graph(4, 6, 0.2, seed=3), delta_threshold=float("inf")
        )
        base, base_ran_baselines = engine.snapshot(), False
        for step in range(8):
            if step % 2:
                engine.remove_edge(*sorted(engine.graph.edges())[step])
            else:
                engine.add_edge(step, 900 + step)
            snapshot = engine.snapshot()
            assert snapshot._graph is None, step
            if not base_ran_baselines:
                # Nothing but the delta build read the base: still unthawed.
                assert base._graph is None, step
            query = list(sorted(engine.graph.edges())[step])
            engine.query(query, method="lctc", eta=20)
            engine.query(query, method="bulk-delete")
            assert snapshot._graph is None, step
            if step % 2:
                for method in ("mdc", "qdc"):
                    assert _outcome(engine, query, method) == _outcome(
                        engine.graph.copy(), query, method
                    ), (method, step)
            base, base_ran_baselines = snapshot, bool(step % 2)
        assert engine.stats.delta_applies == 8
        assert engine.stats.full_rebuilds == 1


class TestEviction:
    def test_evicted_snapshot_is_freed_without_the_cycle_collector(self):
        engine = CTCEngine(erdos_renyi_graph(30, 0.3, seed=5), cache_size=1)
        engine.query([0, 1], method="lctc", eta=20)
        evicted = weakref.ref(engine.snapshot())
        gc.disable()
        try:
            engine.add_edge(0, 999)
            engine.query([0, 1], method="lctc", eta=20)
            assert evicted() is None
        finally:
            gc.enable()


@st.composite
def _streams(draw):
    """A small random graph plus a stream of edge additions and removals."""
    graph = erdos_renyi_graph(
        draw(st.integers(min_value=5, max_value=14)),
        draw(st.floats(min_value=0.3, max_value=0.8)),
        seed=draw(st.integers(min_value=0, max_value=10_000)),
    )
    ops = draw(
        st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=10_000)),
            min_size=1,
            max_size=10,
        )
    )
    return graph, ops


@pytest.mark.skipif(not networkx_available(), reason="networkx oracle unavailable")
class TestNetworkxTrussOracle:
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=_streams())
    def test_snapshot_trussness_matches_networkx_k_truss(self, data):
        import networkx as nx

        graph, ops = data
        engine = CTCEngine(graph, delta_threshold=float("inf"))
        engine.snapshot()
        for add, pick in ops:
            nodes = sorted(engine.graph.nodes())
            edges = sorted(engine.graph.edges())
            if add or not edges:
                u = nodes[pick % len(nodes)]
                v = nodes[(pick // 7) % len(nodes)] if pick % 3 else max(nodes) + 1
                if u == v:
                    continue
                engine.add_edge(u, v)
            else:
                engine.remove_edge(*edges[pick % len(edges)])
            snapshot = engine.snapshot()
            csr = snapshot.csr
            trussness = {
                frozenset(csr.edge_key_of(edge)): int(snapshot.trussness[edge])
                for edge in range(csr.number_of_edges())
            }
            reference = to_networkx(engine.graph)
            top = max(trussness.values(), default=2)
            for k in range(2, top + 2):
                expected = {frozenset(edge) for edge in nx.k_truss(reference, k).edges()}
                actual = {edge for edge, value in trussness.items() if value >= k}
                assert actual == expected, (engine.version, k)
        assert engine.stats.full_rebuilds == 1
