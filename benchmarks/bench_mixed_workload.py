"""Queries/sec on an interleaved read/write stream: delta apply vs full rebuild.

This is the acceptance gate for the delta-propagation pipeline.  The
workload interleaves one edge mutation (alternating removals and
re-insertions, never cancelling to a no-op) with every CTC query, so every
query misses the snapshot cache and the engine must refresh its read
replica.  Two otherwise identical engines differ only in rebuild policy:

* **delta engine** — default ``delta_threshold``: snapshots are patched via
  ``CSRGraph.apply_delta`` + incremental truss maintenance, arrays only
  (no copy of the dict-form store).
* **rebuild engine** — ``delta_threshold=0``: every miss re-freezes the
  store and re-runs the full CSR decomposition (the PR 1 behaviour).

``test_delta_speedup_at_least_2x`` gates the delta path at >=
``TARGET_SPEEDUP`` x the full rebuild's queries/sec, on the **median** of
``GATE_ROUNDS`` back-to-back measurements (a transient CPU-throttling
window poisons at most one round); ``test_paths_agree_on_results`` pins
down that the speedup does not change any answer.
``test_mixed_json_artifact`` writes the measurements to a JSON trajectory
file (``BENCH_MIXED_JSON`` env var, default ``BENCH_mixed.json``).

Gate history: 3x while full rebuilds paid an eager O(m) TrussIndex build
per snapshot; 2.5x after the CSR-native kernel layer made that index lazy
(full rebuilds got ~1.5x faster while the delta path held).  The
incidence-carrying delta path did not widen this particular ratio: the
LCTC csr kernel peels its eta-bounded local expansions on the dict peel
engine, so per-version triangle re-enumeration was never on this gate's
hot path (unlike the windowed-churn gate), and both policies kept
improving together.  Measured margin on the current tree: per-round
ratios between 2.3x and 3.9x across runs (host-noise dominated), medians
2.5-3.9x — so the gate sits at 2.0x with real headroom instead of riding
the noise band.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_mixed_workload.py -q -s
"""

from __future__ import annotations

import statistics
import time

import pytest
from _artifact import write_artifact

from repro.datasets.queries import EdgeChurn, QueryWorkloadGenerator
from repro.datasets.registry import load_dataset
from repro.engine import CTCEngine

#: How many times the interleaved query+mutation workload is replayed.
ROUNDS = 3

#: The acceptance gate: delta apply >= this multiple of full rebuild
#: (median over GATE_ROUNDS back-to-back measurements).
TARGET_SPEEDUP = 2.0

#: Back-to-back (rebuild, delta) measurements the gate medians over.
GATE_ROUNDS = 3

#: Community-search method under test; lctc is the paper's headline method.
METHOD = "lctc"
ETA = 50


@pytest.fixture(scope="module")
def network():
    return load_dataset("dblp-like")


@pytest.fixture(scope="module")
def queries(network):
    generator = QueryWorkloadGenerator(network.graph, seed=7)
    return generator.random_queries(2, 4)


def _run_mixed_workload(engine: CTCEngine, queries) -> tuple[int, list]:
    """Interleave one mutation with every query; return (count, results).

    The shared :class:`EdgeChurn` stream is seeded, so the two engines under
    comparison see the identical mutations; edges incident to query nodes
    are protected so every query stays answerable.
    """
    protected = {node for query in queries for node in query}
    churn = EdgeChurn(engine, seed=11, protect=protected)
    assert churn.mutable_edges > 0
    results = []
    count = 0
    for _ in range(ROUNDS):
        for query in queries:
            assert churn.step()
            result = engine.query(query, method=METHOD, eta=ETA)
            assert result.contains_query()
            results.append((result.nodes, result.trussness))
            count += 1
    return count, results


def test_bench_full_rebuild_path(benchmark, network, queries):
    """Rebuild policy off: every mutation forces a from-scratch snapshot."""
    engine = CTCEngine(network.graph, delta_threshold=0)
    count, _ = benchmark.pedantic(
        _run_mixed_workload, args=(engine, queries), rounds=1, iterations=1
    )
    assert count == ROUNDS * len(queries)
    assert engine.stats.delta_applies == 0
    assert engine.stats.full_rebuilds == engine.stats.misses


def test_bench_delta_apply_path(benchmark, network, queries):
    """Default policy: every mutation is absorbed by patching the snapshot."""
    engine = CTCEngine(network.graph)
    engine.snapshot()  # warm base snapshot the deltas patch from
    count, _ = benchmark.pedantic(
        _run_mixed_workload, args=(engine, queries), rounds=1, iterations=1
    )
    assert count == ROUNDS * len(queries)
    # Single-edge deltas are far below the threshold: all misses after the
    # warm-up are served by the delta path.
    assert engine.stats.delta_applies == engine.stats.misses - 1


def test_paths_agree_on_results(network, queries):
    """Both policies must return identical communities on the same stream."""
    delta_engine = CTCEngine(network.graph)
    rebuild_engine = CTCEngine(network.graph, delta_threshold=0)
    _, delta_results = _run_mixed_workload(delta_engine, queries)
    _, rebuild_results = _run_mixed_workload(rebuild_engine, queries)
    assert delta_results == rebuild_results
    assert delta_engine.stats.delta_applies > 0


def _measure_policies(network, queries) -> tuple[float, float]:
    """Return ``(rebuild_qps, delta_qps)`` on identically-seeded streams."""
    rebuild_engine = CTCEngine(network.graph, delta_threshold=0)
    delta_engine = CTCEngine(network.graph)
    # Warm-up outside the timed region (first snapshot build + allocations).
    rebuild_engine.query(queries[0], method=METHOD, eta=ETA)
    delta_engine.query(queries[0], method=METHOD, eta=ETA)

    started = time.perf_counter()
    rebuild_count, _ = _run_mixed_workload(rebuild_engine, queries)
    rebuild_elapsed = time.perf_counter() - started

    started = time.perf_counter()
    delta_count, _ = _run_mixed_workload(delta_engine, queries)
    delta_elapsed = time.perf_counter() - started

    return rebuild_count / rebuild_elapsed, delta_count / delta_elapsed


def test_mixed_json_artifact(network, queries):
    """Measure both policies and write the JSON trajectory."""
    rebuild_qps, delta_qps = _measure_policies(network, queries)
    path = write_artifact(
        "bench_mixed_workload",
        {
            "dataset": "dblp-like (registry recipe)",
            "rounds": ROUNDS,
            "gate": {"target_speedup": TARGET_SPEEDUP},
        },
        env_var="BENCH_MIXED_JSON",
        default_path="BENCH_mixed.json",
        rows=[
            {
                "policy": "full-rebuild",
                "queries_per_sec": round(rebuild_qps, 2),
            },
            {
                "policy": "delta-apply",
                "queries_per_sec": round(delta_qps, 2),
                "speedup": round(delta_qps / rebuild_qps, 2),
            },
        ],
        medians=("queries_per_sec",),
    )
    print(
        f"\nmixed trajectory -> {path}"
        f"\nfull rebuild: {rebuild_qps:8.1f} queries/sec"
        f"\ndelta apply:  {delta_qps:8.1f} queries/sec "
        f"({delta_qps / rebuild_qps:.2f}x)"
    )
    assert rebuild_qps > 0 and delta_qps > 0


def test_delta_speedup_at_least_2x(network, queries):
    """Acceptance gate: delta-apply throughput >= TARGET_SPEEDUP x full rebuild.

    Measured in ``GATE_ROUNDS`` back-to-back rounds, gated on the median
    ratio (see the module docstring).
    """
    ratios = []
    report = [""]
    for round_index in range(GATE_ROUNDS):
        rebuild_qps, delta_qps = _measure_policies(network, queries)
        ratios.append(delta_qps / rebuild_qps)
        report.append(
            f"round {round_index}: rebuild {rebuild_qps:8.1f} q/s, "
            f"delta {delta_qps:8.1f} q/s ({ratios[-1]:.2f}x)"
        )
    speedup = statistics.median(ratios)
    report.append(f"median speedup: {speedup:.2f}x")
    print("\n".join(report))
    assert speedup >= TARGET_SPEEDUP, (
        f"delta path is not >= {TARGET_SPEEDUP}x full rebuild: "
        f"median {speedup:.2f}x over {GATE_ROUNDS} rounds"
    )
