"""The per-layer metrics of the traced run and the end-to-end metric each should move.

Time metrics are self time in ms divided by a count of parent operations:
layers that work for queries (including snapshot builds a checkpoint
triggers inside a mutation) per query, WAL and checkpoint work per
mutation, set-up layers per set-up and recovery per recovery.  Counts are
per query unless the unit says otherwise.  A metric that does not apply to
a workload reads 0 there.
"""

from __future__ import annotations

from dataclasses import dataclass

from perfbench.tracing import WORKER, Tracer


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    source: str
    moves: str
    workloads: str


#: Operation kinds whose spans count toward the timed phase.
TIMED = ("query", "mutation", WORKER)

#: metric -> (span name, op kinds summed, denominator).
TIME_SOURCES = {
    "graph.store_copy_ms": ("graph.store_copy", TIMED, "query"),
    "graph.csr_apply_delta_ms": ("graph.csr_apply_delta", TIMED, "query"),
    "graph.patch_incidence_ms": ("graph.patch_incidence", TIMED, "query"),
    "trusses.incremental_update_ms": ("trusses.incremental_update", TIMED, "query"),
    "engine.snapshot_ms": ("engine.snapshot", TIMED, "query"),
    "engine.query_self_ms": ("engine.query", TIMED, "query"),
    "graph.csr_freeze_ms": ("graph.csr_freeze", ("setup",), "setup"),
    "trusses.decompose_ms": ("trusses.decompose", ("setup",), "setup"),
    "graph.masked_bfs_ms": ("graph.masked_bfs", TIMED, "query"),
    "kernels.steiner_ms": ("kernels.steiner", TIMED, "query"),
    "kernels.expand_ms": ("kernels.expand", TIMED, "query"),
    "trusses.local_decompose_ms": ("trusses.local_decompose", TIMED, "query"),
    "graph.edge_subgraph_ms": ("graph.edge_subgraph", TIMED, "query"),
    "kernels.find_g0_ms": ("kernels.find_g0", TIMED, "query"),
    "kernels.peel_ms": ("kernels.peel", TIMED, "query"),
    "kernels.search_self_ms": ("kernels.search", TIMED, "query"),
    "persistence.wal_append_ms": ("persistence.wal_append", TIMED, "mutation"),
    "persistence.checkpoint_ms": ("persistence.checkpoint", TIMED, "mutation"),
    "persistence.recover_ms": ("persistence.recover", ("recover",), "recover"),
    "serving.query_batch_ms": ("serving.query_batch", TIMED, "query"),
}

_T = "ms/op"
_C = "count/op"
LAYER_METRICS = [
    LayerMetric("graph.store_copy_ms", _T, "lower", "UndirectedGraph.copy",
                "query_p50_ms, ops_per_s, peak_rss_mb", "churn (no change on read)"),
    LayerMetric("graph.csr_apply_delta_ms", _T, "lower", "CSRGraph.apply_delta",
                "query_p50_ms", "churn, serve"),
    LayerMetric("graph.patch_incidence_ms", _T, "lower", "repro.engine.core.patch_incidence",
                "query_p50_ms", "churn, serve"),
    LayerMetric("trusses.incremental_update_ms", _T, "lower",
                "repro.engine.core.incremental_truss_update",
                "query_p50_ms, query_p95_ms", "churn"),
    LayerMetric("engine.snapshot_ms", _T, "lower", "CTCEngine.snapshot_at (self)",
                "query_p50_ms", "churn"),
    LayerMetric("engine.query_self_ms", _T, "lower", "CTCEngine.query (self)",
                "query_p50_ms", "read, churn"),
    LayerMetric("engine.misses", _C, "lower", "EngineStats.misses", "query_p95_ms", "churn"),
    LayerMetric("engine.delta_applies", _C, "lower", "EngineStats.delta_applies",
                "query_p95_ms", "churn"),
    LayerMetric("engine.full_rebuilds", _C, "lower", "EngineStats.full_rebuilds",
                "query_p95_ms", "churn"),
    LayerMetric("engine.incidence_enumerations", _C, "lower",
                "EngineStats.incidence_enumerations", "query_p95_ms", "churn"),
    LayerMetric("graph.csr_freeze_ms", "ms/setup", "lower", "CSRGraph.from_graph",
                "setup_s", "all"),
    LayerMetric("trusses.decompose_ms", "ms/setup", "lower", "repro.engine.core.csr_decompose",
                "setup_s", "all"),
    LayerMetric("graph.masked_bfs_ms", _T, "lower",
                "masked_bfs in ctc.kernels.{steiner,peeling,find_g0}",
                "query_p95_ms, ops_per_s", "read"),
    LayerMetric("graph.masked_bfs_calls", _C, "lower", "span count of graph.masked_bfs",
                "query_p95_ms, ops_per_s", "read"),
    LayerMetric("kernels.steiner_ms", _T, "lower", "build_truss_steiner_tree (self)",
                "query_p95_ms (|Q|=8)", "read"),
    LayerMetric("kernels.expand_ms", _T, "lower", "expand",
                "query_p50_ms (default eta)", "read"),
    LayerMetric("kernels.expanded_edges", "count/lctc", "lower",
                "result.extras['expanded_edges'] per LCTC query",
                "query_p50_ms (default eta)", "read"),
    LayerMetric("trusses.local_decompose_ms", _T, "lower",
                "csr_decompose / peel_incidence in ctc.kernels.search",
                "query_p50_ms", "read"),
    LayerMetric("graph.edge_subgraph_ms", _T, "lower", "CSRGraph.edge_subgraph",
                "query_p50_ms", "read"),
    LayerMetric("kernels.find_g0_ms", _T, "lower", "find_g0 in ctc.kernels.search",
                "ops_per_s (BulkDelete)", "read (no change on churn)"),
    LayerMetric("kernels.peel_ms", _T, "lower", "peel (self)",
                "ops_per_s (BulkDelete)", "read (no change on churn)"),
    LayerMetric("kernels.peel_iterations", _C, "lower", "result.iterations",
                "ops_per_s (BulkDelete)", "read (no change on churn)"),
    LayerMetric("kernels.search_self_ms", _T, "lower",
                "lctc_search / bulk_delete_search (self)", "query_p50_ms", "all"),
    LayerMetric("persistence.wal_append_ms", "ms/mutation", "lower", "WriteAheadLog.append",
                "mutation_p50_ms, ops_per_s", "churn"),
    LayerMetric("persistence.wal_fsyncs", "count/mutation", "lower",
                "durability_stats()['wal_fsyncs']", "mutation_p50_ms, ops_per_s", "churn"),
    LayerMetric("persistence.wal_bytes_per_mutation", "B/mutation", "lower",
                "WriteAheadLog.size_bytes growth across append",
                "mutation_p50_ms, ops_per_s", "churn"),
    LayerMetric("persistence.checkpoint_ms", "ms/mutation", "lower",
                "DurabilityManager.write_checkpoint", "ops_per_s", "churn"),
    LayerMetric("persistence.checkpoints", "count/run", "lower",
                "durability_stats()['checkpoints'] in the timed phase", "ops_per_s", "churn"),
    LayerMetric("persistence.recover_ms", "ms/recovery", "lower", "CTCEngine.recover",
                "recover_s", "churn"),
    LayerMetric("persistence.replayed_deltas", "count/recovery", "lower",
                "RecoveryReport.replayed_deltas", "recover_s", "churn"),
    LayerMetric("persistence.disk_bytes_per_edge", "B/edge", "lower",
                "data-directory bytes / live edges after close()", "none (space)", "churn"),
    LayerMetric("serving.query_batch_ms", _T, "lower", "ServingEngine.query_batch",
                "query_p50_ms, ops_per_s", "serve"),
    LayerMetric("serving.worker_build_ms", _T, "lower",
                "engine_stats()['build_seconds'] / queries", "query_p50_ms", "serve"),
    LayerMetric("serving.coalesced_ratio", "ratio", "higher",
                "ServingStats.coalesced_queries / queries", "ops_per_s", "serve"),
    LayerMetric("serving.snapshot_reuses", _C, "higher", "ServingStats.snapshot_reuses",
                "ops_per_s", "serve"),
    LayerMetric("serving.requeued_queries", _C, "lower", "ServingStats.requeued_queries",
                "failed_ratio, ops_per_s", "serve"),
    LayerMetric("serving.timeouts", _C, "lower", "ServingStats.timeouts",
                "failed_ratio", "serve"),
    LayerMetric("serving.worker_crashes", _C, "lower", "ServingStats.worker_crashes",
                "failed_ratio", "serve"),
    LayerMetric("trace.untraced_ops_per_s", "ops/s", "higher",
                "ops_per_s of the untraced half of the traced run", "(overhead)", "all"),
    LayerMetric("trace.traced_ops_per_s", "ops/s", "higher",
                "ops_per_s of the traced half of the traced run", "(overhead)", "all"),
    LayerMetric("trace.overhead_pct", "%", "lower",
                "100 * (1 - traced / untraced ops_per_s)", "(overhead)", "all"),
]


def layer_values(
    tracer: Tracer, denominators: dict[str, int], counts: dict[str, float]
) -> dict[str, float]:
    """Every metric of :data:`LAYER_METRICS`; ``counts`` supplies the non-span ones."""
    totals = tracer.totals()
    values: dict[str, float] = {}
    for metric in LAYER_METRICS:
        if metric.name in TIME_SOURCES:
            span, kinds, per = TIME_SOURCES[metric.name]
            seconds = sum(totals.get((span, kind), (0.0, 0))[0] for kind in kinds)
            values[metric.name] = seconds * 1e3 / max(1, denominators.get(per, 0))
        else:
            values[metric.name] = float(counts.get(metric.name, 0.0))
    calls = sum(totals.get(("graph.masked_bfs", kind), (0.0, 0))[1] for kind in TIMED)
    values["graph.masked_bfs_calls"] = calls / max(1, denominators.get("query", 0))
    wal_bytes = sum(tracer.counters.get(("persistence.wal_append_growth", kind), 0.0)
                    for kind in TIMED)
    values["persistence.wal_bytes_per_mutation"] = wal_bytes / max(
        1, denominators.get("mutation", 0)
    )
    return values
