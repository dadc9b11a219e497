"""The ``read``, ``churn`` and ``serve`` workloads.

Each workload is a closed loop with one client: the next operation is
sent when the previous one returns.  All inputs come from the workload
seed and are generated before the program sees them; the program gets
only the generated graph and operations.

* ``read`` -- a static 8x dblp-like graph (12,000 nodes, 50,968 edges),
  queries only.  The stream cycles through every pairing of method
  (LCTC eta=50, LCTC at the default eta, BulkDelete) and query size
  (1, 2, 4, 8), so every run holds the same mix.
* ``churn`` -- the same graph in a durable engine (``fsync="batch"``).  One
  single-edge :class:`EdgeChurn` mutation, then one LCTC eta=50 query of two
  nodes, over and over; edges touching query nodes are never mutated.  The
  run ends with ``close()``, recoveries and a query on each.
* ``serve`` -- a process-mode :class:`ServingEngine` with two workers over 8
  disjoint relabeled 1x replicas.  Each window is 8 mutations, then one
  ``query_batch`` of 8 LCTC eta=50 queries of two nodes.

Every answer is checked as it returns, with the clock stopped (see
:mod:`perfbench.checks`).
"""

from __future__ import annotations

import gc
import hashlib
import multiprocessing
import os
import random
import resource
import statistics
import tempfile
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field

from _populations import scaled_dblp_like
from repro import build_index, search
from repro.datasets.queries import EdgeChurn, QueryWorkloadGenerator
from repro.engine import DEFAULT_FSYNC_BATCH, CTCEngine, DurabilityConfig, ServingEngine
from repro.graph.simple_graph import UndirectedGraph

from perfbench.checks import answer_key, result_problems
from perfbench.layers import LAYER_METRICS, layer_values
from perfbench.stats import latency_summary, min_samples
from perfbench.tracing import PROBES, Probes, Tracer

#: Latency percentile reported beside the median.
TAIL = 95

#: ``ops_per_s`` is the median completion rate over this many equal slices
#: of the timed phase, so a few slow seconds on a shared machine do not
#: move it the way they move the overall rate.
SLICES = 5

READ_METHODS = (("lctc", 50), ("lctc", None), ("bulk-delete", None))
QUERY_SIZES = (1, 2, 4, 8)
#: The query of ``churn`` and ``serve``: budget-local LCTC.
LOCAL_METHOD, LOCAL_ETA = "lctc", 50


@dataclass(frozen=True)
class Config:
    """Sizes and settings of the workloads (the defaults are the benchmark's)."""

    scale: int = 8
    replica_scale: int = 1
    replicas: int = 8
    workers: int = 2
    setup_repeats: int = 5
    recover_repeats: int = 3
    fsync: str = "batch"
    fsync_batch: int = DEFAULT_FSYNC_BATCH
    checkpoint_every: int = 50
    window_mutations: int = 8
    window_queries: int = 8
    read_ops: int = 1200
    churn_pairs: int = 1500
    serve_windows: int = 1500
    query_pool: int = 64
    reference_samples: int = 2
    replay_windows: int = 6
    extra_seconds: float = 60.0


# ----------------------------------------------------------------------
# op streams: ("q", method, eta or None, query) / ("+", u, v) / ("-", u, v)
# ----------------------------------------------------------------------
def digest(stream: list) -> str:
    return hashlib.sha256(repr(stream).encode()).hexdigest()[:16]


class _Recorder:
    """A private copy of a graph that logs the mutations applied to it."""

    def __init__(self, graph: UndirectedGraph) -> None:
        self.graph = graph.copy()
        self.ops: list[tuple] = []

    def add_edge(self, u, v) -> None:
        self.graph.add_edge(u, v)
        self.ops.append(("+", u, v))

    def remove_edge(self, u, v) -> None:
        self.graph.remove_edge(u, v)
        self.ops.append(("-", u, v))


def churn_mutations(graph: UndirectedGraph, seed: int, protect: set, count: int) -> list:
    recorder = _Recorder(graph)
    churn = EdgeChurn(recorder, seed=seed, protect=protect)
    for _ in range(count):
        if not churn.step():
            raise RuntimeError("edge churn ran out of mutable edges")
    return recorder.ops


def apply_mutation(target, op: tuple) -> None:
    if op[0] == "+":
        target.add_edge(op[1], op[2])
    else:
        target.remove_edge(op[1], op[2])


def query_kwargs(op: tuple) -> dict:
    return {} if op[2] is None else {"eta": op[2]}


def relabeled_union(base: UndirectedGraph, replicas: int) -> UndirectedGraph:
    union = UndirectedGraph()
    for replica in range(replicas):
        for u, v in base.edges():
            union.add_edge((replica, u), (replica, v))
    return union


# ----------------------------------------------------------------------
# measurement helpers
# ----------------------------------------------------------------------
@dataclass
class Phase:
    """What one timed phase did.

    Answers are checked as they arrive, with the clock stopped, and only
    compact facts are kept: the failures, a few sampled results for the
    reference comparison, and (``serve``) every answer's fingerprint.
    """

    ops: list = field(default_factory=list)
    failures: dict = field(default_factory=dict)
    query_latency: list = field(default_factory=list)
    mutation_latency: list = field(default_factory=list)
    expanded_edges: list = field(default_factory=list)
    iterations: list = field(default_factory=list)
    kept: dict = field(default_factory=dict)
    keys: dict = field(default_factory=dict)
    #: Active (unpaused) time at which each op completed.
    marks: list = field(default_factory=list)
    #: Seconds of the loop spent checking answers; not part of ``elapsed``.
    paused: float = 0.0
    elapsed: float = 0.0

    @property
    def queries(self) -> int:
        return len(self.query_latency)

    @property
    def mutations(self) -> int:
        return len(self.mutation_latency)

    @property
    def ops_per_s(self) -> float:
        return len(self.ops) / self.elapsed

    def sliced_ops_per_s(self, slices: int) -> float:
        """Median of the completion rates in ``slices`` equal slices of the phase."""
        width = self.elapsed / slices
        counts = [0] * slices
        for mark in self.marks:
            counts[min(slices - 1, int(mark / width))] += 1
        return statistics.median(count / width for count in counts)


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb(with_children: bool = False) -> float:
    """Peak resident memory of this process, plus its live children's peaks."""
    kilobytes = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kilobytes += sum(_vm_hwm_kb(child.pid) for child in multiprocessing.active_children())
    return kilobytes / 1024.0


def directory_bytes(path: str) -> int:
    total = 0
    for root, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, name)) for name in files)
    return total


def edge_set(graph: UndirectedGraph) -> frozenset:
    return frozenset(frozenset(edge) for edge in graph.edges())


@dataclass
class Outcome:
    """A workload run's result: metrics by name as ``(value, unit)``."""

    metrics: dict
    attempted: int
    failed: int
    lines: list


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class Workload:
    """Shared workload logic: set-up, the closed loop, answer checks and reporting."""

    name = ""
    has_mutations = True
    #: Whether every answer's fingerprint is kept for a replay comparison.
    keep_keys = False

    def __init__(self, config: Config, seed: int, workdir: str) -> None:
        self.config = config
        self.seed = seed
        self.workdir = workdir
        self.tracer: Tracer | None = None
        self.graph, self.stream = self.inputs()
        self.problems: list[str] = []
        self._setups = 0
        self._mirror: UndirectedGraph | None = None
        self._sampled: frozenset = frozenset()
        self._live = None

    # -- hooks ---------------------------------------------------------
    def inputs(self) -> tuple[UndirectedGraph, list]:
        raise NotImplementedError

    def setup(self):
        raise NotImplementedError

    def teardown(self, system) -> None:
        pass

    def counters(self, system) -> dict:
        return dict(system.stats.as_dict())

    def finish(self, system, phase: Phase, failures: list) -> dict:
        """Post-phase work on a live system; returns report values, closes it."""
        self.teardown(system)
        return {}

    def layer_counts(self, before: dict, after: dict, phase: Phase, extra: dict) -> dict:
        queries = max(1, phase.queries)
        counts = {
            f"engine.{key}": (after.get(key, 0) - before.get(key, 0)) / queries
            for key in ("misses", "delta_applies", "full_rebuilds", "incidence_enumerations")
        }
        counts["kernels.expanded_edges"] = (
            statistics.fmean(phase.expanded_edges) if phase.expanded_edges else 0.0
        )
        counts["kernels.peel_iterations"] = (
            statistics.fmean(phase.iterations) if phase.iterations else 0.0
        )
        return counts

    # -- driving -------------------------------------------------------
    def _operation(self, kind: str):
        return self.tracer.operation(kind) if self.tracer is not None else nullcontext()

    def setups(self, repeats: int) -> tuple[object, list[float]]:
        """Set the system up ``repeats`` times (keeping the last); return it and the times."""
        times: list[float] = []
        system = None
        for _ in range(repeats):
            if system is not None:
                self.teardown(system)
                system = None
            gc.collect()
            with self._operation("setup"):
                started = time.perf_counter()
                system = self.setup()
                times.append(time.perf_counter() - started)
            self._live = system
            self._setups += 1
        return system, times

    def close(self) -> None:
        """Close the last system set up, also if an exception left it open (closes are idempotent)."""
        system, self._live = self._live, None
        if system is not None:
            system.close()

    def step(self, system, position: int, phase: Phase) -> int:
        """Run the op at ``position``, then check it; return the next position."""
        op = self.stream[position]
        if op[0] == "q":
            with self._operation("query"):
                started = time.perf_counter()
                try:
                    outcome = system.query(list(op[3]), op[1], **query_kwargs(op))
                except Exception as exc:  # counted as a failure, never raised
                    outcome = exc
                phase.query_latency.append(time.perf_counter() - started)
        else:
            with self._operation("mutation"):
                started = time.perf_counter()
                try:
                    apply_mutation(system, op)
                    outcome = None
                except Exception as exc:
                    outcome = exc
                phase.mutation_latency.append(time.perf_counter() - started)
        self.observe(phase, op, outcome)
        return position + 1

    def observe(self, phase: Phase, op: tuple, outcome) -> None:
        """Record and check one op's outcome against the mirror; the clock is stopped."""
        started = time.perf_counter()
        position = len(phase.ops)
        phase.ops.append(op)
        phase.marks.append(started - self._phase_start - phase.paused)
        if isinstance(outcome, Exception):
            phase.failures[position] = f"op {position} {op!r} raised {outcome!r}"
        elif op[0] != "q":
            apply_mutation(self._mirror, op)
        else:
            defects = result_problems(outcome, op[3], self._mirror.has_edge)
            if defects:
                phase.failures[position] = f"op {position} {op!r}: {defects[0]}"
            phase.iterations.append(outcome.iterations)
            if "expanded_edges" in outcome.extras:
                phase.expanded_edges.append(outcome.extras["expanded_edges"])
            if position in self._sampled:
                phase.kept[position] = outcome
            if self.keep_keys:
                phase.keys[position] = answer_key(outcome)
        phase.paused += time.perf_counter() - started

    def timed(self, system, seconds: float, need: int) -> Phase:
        """Run the closed loop for ``seconds``, longer until ``need`` samples exist.

        Time spent checking answers is excluded, so it neither counts as
        work nor shortens the phase.
        """
        phase = Phase()
        self._mirror = self.graph.copy()
        self._sampled = self._reference_positions()
        cap = seconds + self.config.extra_seconds
        position = 0
        gc.collect()
        started = self._phase_start = time.perf_counter()
        while position < len(self.stream):
            elapsed = time.perf_counter() - started - phase.paused
            if elapsed >= cap:
                break
            if elapsed >= seconds and phase.queries >= need and (
                not self.has_mutations or phase.mutations >= need
            ):
                break
            position = self.step(system, position, phase)
        phase.elapsed = time.perf_counter() - started - phase.paused
        self._mirror = None
        return phase

    def _reference_positions(self) -> frozenset:
        """Seeded query positions, among the first ones every run reaches, for references."""
        early = [
            index for index, op in enumerate(self.stream) if op[0] == "q"
        ][: min_samples(TAIL)]
        rng = random.Random(self.seed)
        return frozenset(rng.sample(early, min(self.config.reference_samples, len(early))))

    def check_references(self, phase: Phase) -> None:
        """Answer the kept results again on the dict reference path and compare.

        The reference is ``search(build_index(graph), query, method)`` on a
        copy of the graph replayed to the op's position.
        """
        if not phase.kept:
            return
        mirror = self.graph.copy()
        last = max(phase.kept)
        index = None
        for position, op in enumerate(phase.ops[: last + 1]):
            if op[0] != "q":
                if position not in phase.failures:
                    apply_mutation(mirror, op)
                    index = None
                continue
            if position not in phase.kept:
                continue
            if index is None:
                index = build_index(mirror)
            reference = search(index, list(op[3]), op[1], **query_kwargs(op))
            if answer_key(reference) != answer_key(phase.kept[position]):
                phase.failures[position] = f"op {position} {op!r} differs from the dict reference"

    # -- the two kinds of run -----------------------------------------
    def run(self, seconds: float, trace: bool) -> Outcome:
        # The generated inputs are the benchmark's, not the program's: keep
        # the collector from walking them during the program's collections.
        gc.collect()
        gc.freeze()
        return self._run_traced(seconds) if trace else self._run_plain(seconds)

    def _run_plain(self, seconds: float) -> Outcome:
        config = self.config
        system, setup_times = self.setups(config.setup_repeats)
        phase = self.timed(system, seconds, min_samples(TAIL))
        rss = peak_rss_mb(with_children=True)
        extra_failures: list = []
        report = self.finish(system, phase, extra_failures)
        self.check_references(phase)
        attempted = len(phase.ops) + report.pop("extra_ops", 0)
        failures = len(phase.failures) + len(extra_failures)
        self.problems.extend(list(phase.failures.values()) + extra_failures)

        p50, p95 = latency_summary(phase.query_latency)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "ops_per_s": (phase.sliced_ops_per_s(SLICES), "ops/s"),
            "query_p50_ms": (p50, "ms"),
            "query_p95_ms": (p95, "ms"),
            "peak_rss_mb": (rss, "MB"),
        }
        lines = [
            f"setup_s          {metrics['setup_s'][0]:.4f} s      "
            f"(median of {len(setup_times)} set-ups)",
            f"ops_per_s        {metrics['ops_per_s'][0]:.3f} ops/s  "
            f"(median of {SLICES} slices; {len(phase.ops)} ops in {phase.elapsed:.2f} s; "
            f"{phase.paused:.2f} s of checks excluded)",
            f"query_p50_ms     {p50:.3f} ms",
            f"query_p95_ms     {p95:.3f} ms     ({phase.queries} samples)",
        ]
        if self.has_mutations:
            m50, m95 = latency_summary(phase.mutation_latency)
            lines += [
                f"mutation_p50_ms  {m50:.4f} ms",
                f"mutation_p95_ms  {m95:.4f} ms    ({phase.mutations} samples)",
            ]
        if "recover_s" in report:
            lines.append(
                f"recover_s        {report['recover_s']:.4f} s      "
                f"(median of {report['recoveries']} recoveries)"
            )
        if "checkpoints" in report:
            lines.append(
                f"checkpoints      {report['checkpoints']} in the timed phase "
                f"(one every {config.checkpoint_every} mutations)"
            )
        lines += [
            f"peak_rss_mb      {rss:.1f} MB",
            f"failed_ratio     {failures / max(1, attempted):.4f}      "
            f"({failures} of {attempted} ops)",
        ]
        return Outcome(metrics, attempted, failures, lines)

    def _run_traced(self, seconds: float) -> Outcome:
        config = self.config
        half = seconds / 2.0
        system, _ = self.setups(1)
        untraced = self.timed(system, half, 0)
        self.teardown(system)

        self.tracer = tracer = Tracer()
        self._setups = 0
        extra_failures: list = []
        with Probes(tracer, PROBES):
            if self.name == "serve":
                tracer.follow_forks(self.workdir)
            system, _ = self.setups(config.setup_repeats)
            before = self.counters(system)
            traced = self.timed(system, half, 0)
            after = self.counters(system)
            report = self.finish(system, traced, extra_failures)
            tracer.adopt_worker_spans()
        self.tracer = None
        self.check_references(traced)

        attempted = len(untraced.ops) + len(traced.ops) + report.pop("extra_ops", 0)
        failures = len(untraced.failures) + len(traced.failures) + len(extra_failures)
        self.problems.extend(
            list(untraced.failures.values()) + list(traced.failures.values()) + extra_failures
        )
        denominators = {
            "query": traced.queries,
            "mutation": traced.mutations,
            "setup": self._setups,
            "recover": report.get("recoveries", 0),
        }
        counts = self.layer_counts(before, after, traced, report)
        plain_rate = untraced.sliced_ops_per_s(SLICES)
        traced_rate = traced.sliced_ops_per_s(SLICES)
        counts["trace.untraced_ops_per_s"] = plain_rate
        counts["trace.traced_ops_per_s"] = traced_rate
        counts["trace.overhead_pct"] = 100.0 * (1.0 - traced_rate / plain_rate)
        values = layer_values(tracer, denominators, counts)
        metrics = {metric.name: (values[metric.name], metric.unit) for metric in LAYER_METRICS}
        tracer.dump(os.path.join(os.path.dirname(self.workdir),
                                 f"spans-{self.name}-seed{self.seed}.json"))
        lines = [
            f"traced phase     {len(traced.ops)} ops in {traced.elapsed:.2f} s, "
            f"{len(tracer.spans)} spans; untraced phase {len(untraced.ops)} ops in "
            f"{untraced.elapsed:.2f} s",
            f"tracing overhead {counts['trace.overhead_pct']:.2f} % "
            f"({plain_rate:.3f} -> {traced_rate:.3f} ops/s, medians of {SLICES} slices)",
        ]
        lines += [
            f"{name:34s} {value:14.4f} {unit}" for name, (value, unit) in metrics.items()
        ]
        return Outcome(metrics, attempted, failures, lines)


class ReadWorkload(Workload):
    name = "read"
    has_mutations = False

    def inputs(self):
        graph = scaled_dblp_like(self.config.scale)
        generator = QueryWorkloadGenerator(graph, seed=self.seed)
        per_size = -(-self.config.read_ops // len(QUERY_SIZES))
        pools = {1: generator.random_queries(1, per_size)}
        for size in QUERY_SIZES[1:]:
            pools[size] = generator.inter_distance_queries(2, size, per_size)
        stream = []
        for position in range(self.config.read_ops):
            size = QUERY_SIZES[position % len(QUERY_SIZES)]
            method, eta = READ_METHODS[(position // len(QUERY_SIZES)) % len(READ_METHODS)]
            pool = pools[size]
            stream.append(("q", method, eta, tuple(pool[position // len(QUERY_SIZES) % len(pool)])))
        return graph, stream

    def setup(self):
        engine = CTCEngine(self.graph)
        engine.snapshot()
        return engine


class ChurnWorkload(Workload):
    name = "churn"

    def inputs(self):
        graph = scaled_dblp_like(self.config.scale)
        generator = QueryWorkloadGenerator(graph, seed=self.seed)
        queries = generator.inter_distance_queries(2, 2, self.config.query_pool)
        protect = {node for query in queries for node in query}
        mutations = churn_mutations(graph, self.seed, protect, self.config.churn_pairs)
        rng = random.Random(self.seed)
        self.queries = queries
        stream = []
        for mutation in mutations:
            stream.append(mutation)
            stream.append(("q", LOCAL_METHOD, LOCAL_ETA, tuple(rng.choice(queries))))
        return graph, stream

    def durability(self, path: str) -> DurabilityConfig:
        config = self.config
        return DurabilityConfig(
            path,
            fsync=config.fsync,
            fsync_batch=config.fsync_batch,
            checkpoint_every=config.checkpoint_every,
        )

    def setup(self):
        self.data_dir = tempfile.mkdtemp(prefix="store-", dir=self.workdir)
        engine = CTCEngine(self.graph, durability=self.durability(self.data_dir))
        engine.snapshot()
        return engine

    def teardown(self, system) -> None:
        system.close()

    def counters(self, system) -> dict:
        counters = dict(system.stats.as_dict())
        counters.update(system.durability_stats())
        return counters

    def layer_counts(self, before, after, phase, extra):
        counts = super().layer_counts(before, after, phase, extra)
        mutations = max(1, phase.mutations)
        counts["persistence.wal_fsyncs"] = (after["wal_fsyncs"] - before["wal_fsyncs"]) / mutations
        counts["persistence.checkpoints"] = after["checkpoints"] - before["checkpoints"]
        counts["persistence.replayed_deltas"] = extra["replayed_deltas"]
        counts["persistence.disk_bytes_per_edge"] = extra["disk_bytes_per_edge"]
        return counts

    def finish(self, system, phase, failures):
        """Close, then recover several times; each recovery must match the live engine."""
        rng = random.Random(self.seed + 1)
        samples = rng.sample(self.queries, min(2, len(self.queries)))
        checkpoints = system.durability_stats()["checkpoints"]
        live_edges = edge_set(system.graph)
        live = [
            answer_key(system.query(list(query), LOCAL_METHOD, eta=LOCAL_ETA))
            for query in samples
        ]
        system.close()
        disk = directory_bytes(self.data_dir)
        times, replayed = [], []
        for attempt in range(self.config.recover_repeats):
            gc.collect()
            engine = None
            try:
                with self._operation("recover"):
                    started = time.perf_counter()
                    engine = CTCEngine.recover(self.durability(self.data_dir))
                    first = engine.query(list(samples[0]), LOCAL_METHOD, eta=LOCAL_ETA)
                    times.append(time.perf_counter() - started)
                answers = [answer_key(first)] + [
                    answer_key(engine.query(list(query), LOCAL_METHOD, eta=LOCAL_ETA))
                    for query in samples[1:]
                ]
                if answers != live:
                    failures.append(f"recovery {attempt}: answers differ from live")
                if edge_set(engine.graph) != live_edges:
                    failures.append(f"recovery {attempt}: edge set differs from live")
                replayed.append(engine.last_recovery.replayed_deltas)
            except Exception as exc:  # counted as a failure, never raised
                failures.append(f"recovery {attempt} raised {exc!r}")
            finally:
                if engine is not None:
                    engine.close()
        return {
            "extra_ops": self.config.recover_repeats,
            "recoveries": len(times),
            "recover_s": statistics.median(times) if times else float("nan"),
            "replayed_deltas": statistics.fmean(replayed) if replayed else 0.0,
            "disk_bytes_per_edge": disk / max(1, len(live_edges)),
            "checkpoints": checkpoints,
        }


class ServeWorkload(Workload):
    name = "serve"
    keep_keys = True

    def inputs(self):
        config = self.config
        base = scaled_dblp_like(config.replica_scale)
        union = relabeled_union(base, config.replicas)
        generator = QueryWorkloadGenerator(base, seed=self.seed)
        rng = random.Random(self.seed)
        pool = []
        for query in generator.inter_distance_queries(2, 2, config.query_pool):
            replica = rng.randrange(config.replicas)
            pool.append(tuple((replica, node) for node in query))
        protect = {node for query in pool for node in query}
        mutations = churn_mutations(
            union, self.seed, protect, config.serve_windows * config.window_mutations
        )
        stream = []
        for window in range(config.serve_windows):
            start = window * config.window_mutations
            stream.extend(mutations[start:start + config.window_mutations])
            stream.extend(
                ("q", LOCAL_METHOD, LOCAL_ETA, rng.choice(pool))
                for _ in range(config.window_queries)
            )
        return union, stream

    @property
    def window(self) -> int:
        return self.config.window_mutations + self.config.window_queries

    def setup(self):
        return ServingEngine(self.graph, workers=self.config.workers, mode="process")

    def teardown(self, system) -> None:
        system.close()

    def counters(self, system) -> dict:
        counters = dict(system.stats.as_dict())
        counters.update(system.engine_stats())
        return counters

    def layer_counts(self, before, after, phase, extra):
        counts = super().layer_counts(before, after, phase, extra)
        queries = max(1, phase.queries)

        def delta(key: str) -> float:
            return after.get(key, 0) - before.get(key, 0)

        counts["serving.worker_build_ms"] = delta("build_seconds") * 1e3 / queries
        counts["serving.coalesced_ratio"] = delta("coalesced_queries") / queries
        for key in ("snapshot_reuses", "requeued_queries", "timeouts", "worker_crashes"):
            counts[f"serving.{key}"] = delta(key) / queries
        return counts

    def step(self, system, position, phase):
        """One window: its mutations one by one, then its queries as one batch."""
        window = self.stream[position:position + self.window]
        if len(window) < self.window:
            return len(self.stream)
        mutations = window[: self.config.window_mutations]
        queries = window[self.config.window_mutations:]
        for offset in range(len(mutations)):
            super().step(system, position + offset, phase)
        with self._operation("query"):
            started = time.perf_counter()
            try:
                results = system.query_batch(
                    [list(op[3]) for op in queries], LOCAL_METHOD, eta=LOCAL_ETA
                )
            except Exception as exc:
                results = [exc] * len(queries)
            latency = time.perf_counter() - started
        phase.query_latency.extend([latency] * len(queries))
        for op, result in zip(queries, results):
            self.observe(phase, op, result)
        return position + self.window

    def finish(self, system, phase, failures):
        """Close, then replay the stream on one single-threaded :class:`CTCEngine`.

        Every window's mutations are replayed; the queries of
        ``replay_windows`` seeded windows are answered by the replay engine
        and must equal what the serving engine returned.
        """
        self.teardown(system)
        windows = len(phase.ops) // self.window
        rng = random.Random(self.seed + 2)
        sampled = set(rng.sample(range(windows), min(self.config.replay_windows, windows)))
        engine = CTCEngine(self.graph)
        mutations = self.config.window_mutations
        for window in range(windows):
            start = window * self.window
            for position in range(start, start + mutations):
                if position not in phase.failures:
                    apply_mutation(engine, phase.ops[position])
            if window not in sampled:
                continue
            positions = range(start + mutations, start + self.window)
            try:
                replayed = engine.query_batch(
                    [list(phase.ops[position][3]) for position in positions],
                    LOCAL_METHOD, eta=LOCAL_ETA,
                )
            except Exception as exc:  # counted as a failure, never raised
                failures.append(f"window {window}: the CTCEngine replay raised {exc!r}")
                continue
            for position, expected in zip(positions, replayed):
                if phase.keys.get(position) != answer_key(expected):
                    failures.append(f"op {position} differs from the CTCEngine replay")
        return {}


WORKLOADS = {workload.name: workload for workload in (ReadWorkload, ChurnWorkload, ServeWorkload)}


def describe(workload: Workload) -> dict:
    """The configuration a result was measured under."""
    return {"workload": workload.name, "seed": workload.seed, **asdict(workload.config)}
