"""Outside-in span recorder for the traced run.

The program is not edited: :class:`Probes` replaces layer-boundary
functions with timing wrappers for the duration of the traced phase and
restores the originals afterwards.  Each wrapper is installed where the
*caller* looks the name up (``repro.ctc.kernels.search.find_g0``, not the
defining module), so one function called from two layers can carry two
span names.  Submodules are fetched with :func:`importlib.import_module`
because :mod:`repro.ctc.kernels` re-exports functions that shadow
same-named submodules.

A span records its name, start, end, parent span and the operation (a
query, a mutation, a set-up or a recovery) it ran under.  Spans stay in
memory; :meth:`Tracer.dump` writes them out when the run ends.  A span's
self time is its duration minus the durations of its children.

Forked serving workers inherit the wrappers installed before the fork.
:meth:`Tracer.follow_forks` gives each worker a fresh span list that it
writes out when it exits, and :meth:`Tracer.adopt_worker_spans` merges
those files back under the operation kind ``"worker"``.
"""

from __future__ import annotations

import functools
import glob
import importlib
import json
import multiprocessing.util
import os
import time
from collections import defaultdict
from dataclasses import dataclass

#: Operation kind of spans recorded by a forked worker (no parent operation).
WORKER = "worker"


class Span:
    """One timed call: ``name``, ``start``/``end`` (s), ``parent`` span index, ``op`` id."""

    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name: str, start: float, end: float, parent: int | None, op: int | None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children (seconds)."""
    own = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.end - span.start
    return own


class Tracer:
    """Records nested spans grouped under operations of named kinds."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        #: op id -> kind (``"query"``, ``"mutation"``, ``"setup"``, ``"recover"``).
        self.op_kinds: list[str] = []
        #: (counter name, op kind) -> amount.
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self._stack: list[int] = []
        self._op: int | None = None
        self._fork_dir: str | None = None
        #: Whether spans outside any operation are kept (true in forked workers).
        self._free_spans = False

    # -- recording -----------------------------------------------------
    def _recording(self) -> bool:
        return self._op is not None or self._free_spans

    def begin(self, name: str) -> int:
        """Open a span; outside an operation in the driving process, record nothing."""
        if not self._recording():
            return -1
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), 0.0, parent, self._op))
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        if index < 0:
            return
        self.spans[index].end = self.clock()
        self._stack.pop()

    def operation(self, kind: str) -> "_Operation":
        """Context manager for one root operation; spans inside belong to it."""
        return _Operation(self, kind)

    def count(self, name: str, amount: float = 1.0) -> None:
        if not self._recording():
            return
        self.counters[(name, self._kind())] += amount

    def _kind(self) -> str:
        return WORKER if self._op is None else self.op_kinds[self._op]

    # -- aggregation ---------------------------------------------------
    def totals(self) -> dict[tuple[str, str], tuple[float, int]]:
        """(span name, op kind) -> (total self seconds, call count)."""
        own = self_times(self.spans)
        totals: dict[tuple[str, str], list] = defaultdict(lambda: [0.0, 0])
        for span, seconds in zip(self.spans, own):
            kind = WORKER if span.op is None else self.op_kinds[span.op]
            entry = totals[(span.name, kind)]
            entry[0] += seconds
            entry[1] += 1
        return {key: (value[0], value[1]) for key, value in totals.items()}

    # -- output --------------------------------------------------------
    def as_json(self) -> dict:
        return {
            "ops": self.op_kinds,
            "spans": [
                [span.name, span.start, span.end, span.parent, span.op]
                for span in self.spans
            ],
            "counters": [[name, kind, value] for (name, kind), value in self.counters.items()],
        }

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.as_json(), handle)

    # -- forked workers ------------------------------------------------
    def follow_forks(self, directory: str) -> None:
        """Make processes forked from now on record spans and write them to ``directory``."""
        self._fork_dir = directory
        multiprocessing.util.register_after_fork(self, Tracer._start_in_child)

    def _start_in_child(self) -> None:
        if self._fork_dir is None:
            return
        self.spans, self.op_kinds, self._stack, self._op = [], [], [], None
        self.counters = defaultdict(float)
        self._free_spans = True
        multiprocessing.util.Finalize(None, self._dump_child, exitpriority=10)

    def _dump_child(self) -> None:
        self.dump(os.path.join(self._fork_dir, f"worker-{os.getpid()}.json"))

    def adopt_worker_spans(self) -> int:
        """Merge span files written by exited workers; return how many were read."""
        paths = sorted(glob.glob(os.path.join(self._fork_dir or "", "worker-*.json")))
        for path in paths:
            with open(path) as handle:
                payload = json.load(handle)
            offset = len(self.spans)
            for name, start, end, parent, _ in payload["spans"]:
                self.spans.append(
                    Span(name, start, end, None if parent is None else parent + offset, None)
                )
            for name, _, value in payload["counters"]:
                self.counters[(name, WORKER)] += value
            os.remove(path)
        self._fork_dir = None
        return len(paths)


class _Operation:
    def __init__(self, tracer: Tracer, kind: str) -> None:
        self._tracer = tracer
        self._kind = kind

    def __enter__(self) -> None:
        tracer = self._tracer
        tracer._op = len(tracer.op_kinds)
        tracer.op_kinds.append(self._kind)
        self._index = tracer.begin(f"op.{self._kind}")

    def __exit__(self, *exc_info) -> None:
        self._tracer.end(self._index)
        self._tracer._op = None


@dataclass(frozen=True)
class Probe:
    """Wrap ``module.attr`` (``attr`` may be ``Class.method``) as span ``span``.

    ``growth`` names an attribute of the call's first argument whose
    increase across the call is added to the counter ``<span>_growth``.
    """

    module: str
    attr: str
    span: str
    growth: str | None = None


def _wrap(func, tracer: Tracer, probe: Probe):
    name = probe.span
    if probe.growth is None:
        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = tracer.begin(name)
            try:
                return func(*args, **kwargs)
            finally:
                tracer.end(index)
        return traced

    attribute = probe.growth

    @functools.wraps(func)
    def traced_growth(owner, *args, **kwargs):
        before = getattr(owner, attribute)
        index = tracer.begin(name)
        try:
            return func(owner, *args, **kwargs)
        finally:
            tracer.end(index)
            tracer.count(f"{name}_growth", getattr(owner, attribute) - before)
    return traced_growth


class Probes:
    """Installs a set of :class:`Probe` wrappers and restores the originals."""

    def __init__(self, tracer: Tracer, probes: list[Probe]) -> None:
        self._tracer = tracer
        self._probes = probes
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for probe in self._probes:
            owner = importlib.import_module(probe.module)
            attr = probe.attr
            if "." in attr:
                class_name, attr = attr.split(".")
                owner = getattr(owner, class_name)
                raw = owner.__dict__[attr]
            else:
                raw = getattr(owner, attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(_wrap(raw.__func__, self._tracer, probe))
            else:
                wrapped = _wrap(raw, self._tracer, probe)
            setattr(owner, attr, wrapped)
            self._saved.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Probes":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()


#: Every layer boundary the traced run wraps, by the module that looks it up.
PROBES = [
    Probe("repro.graph.simple_graph", "UndirectedGraph.copy", "graph.store_copy"),
    Probe("repro.graph.csr", "CSRGraph.from_graph", "graph.csr_freeze"),
    Probe("repro.graph.csr", "CSRGraph.apply_delta", "graph.csr_apply_delta"),
    Probe("repro.graph.csr", "CSRGraph.edge_subgraph", "graph.edge_subgraph"),
    Probe("repro.engine.core", "patch_incidence", "graph.patch_incidence"),
    Probe("repro.engine.core", "incremental_truss_update", "trusses.incremental_update"),
    Probe("repro.engine.core", "csr_decompose", "trusses.decompose"),
    Probe("repro.engine.core", "CTCEngine.snapshot_at", "engine.snapshot"),
    Probe("repro.engine.core", "CTCEngine.query", "engine.query"),
    Probe("repro.engine.core", "CTCEngine.recover", "persistence.recover"),
    Probe("repro.ctc.kernels.steiner", "masked_bfs", "graph.masked_bfs"),
    Probe("repro.ctc.kernels.peeling", "masked_bfs", "graph.masked_bfs"),
    Probe("repro.ctc.kernels.find_g0", "masked_bfs", "graph.masked_bfs"),
    Probe("repro.ctc.kernels.search", "build_truss_steiner_tree", "kernels.steiner"),
    Probe("repro.ctc.kernels.search", "expand", "kernels.expand"),
    Probe("repro.ctc.kernels.search", "csr_decompose", "trusses.local_decompose"),
    Probe("repro.ctc.kernels.search", "peel_incidence", "trusses.local_decompose"),
    Probe("repro.ctc.kernels.search", "find_g0", "kernels.find_g0"),
    Probe("repro.ctc.kernels.search", "peel", "kernels.peel"),
    Probe("repro.ctc.local", "_kernel_lctc_search", "kernels.search"),
    Probe("repro.ctc.bulk_delete", "_kernel_bulk_delete_search", "kernels.search"),
    Probe(
        "repro.engine.persistence", "WriteAheadLog.append", "persistence.wal_append",
        growth="size_bytes",
    ),
    Probe(
        "repro.engine.persistence", "DurabilityManager.write_checkpoint",
        "persistence.checkpoint",
    ),
    Probe("repro.engine.serving", "ServingEngine.query_batch", "serving.query_batch"),
]
