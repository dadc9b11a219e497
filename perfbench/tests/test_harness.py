"""Self-tests of the benchmark harness.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from perfbench.checks import community_problems
from perfbench.layers import LAYER_METRICS
from perfbench.stats import InsufficientSamples, min_samples, percentile
from perfbench.tracing import PROBES, Probes, Span, Tracer, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# percentile rule
# ----------------------------------------------------------------------
def test_p95_needs_ten_samples_beyond_it():
    assert min_samples(95) == 200
    assert percentile(range(200), 95) == 189
    with pytest.raises(InsufficientSamples):
        percentile(range(199), 95)


def test_median_needs_ten_samples_beyond_it():
    assert min_samples(50) == 20
    assert percentile(range(1, 21), 50) == 10
    with pytest.raises(InsufficientSamples):
        percentile(range(19), 50)


# ----------------------------------------------------------------------
# span recorder
# ----------------------------------------------------------------------
def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.child", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 9.0, 0, 0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_tracer_groups_self_time_by_operation_kind():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.operation("query"):      # op.query: 0 .. 5
        outer = tracer.begin("layer")     # 1 .. 4
        inner = tracer.begin("leaf")      # 2 .. 3
        tracer.end(inner)
        tracer.count("bytes", 5)
        tracer.end(outer)
    tracer.end(tracer.begin("outside"))  # no operation: not recorded
    with tracer.operation("mutation"):
        tracer.end(tracer.begin("layer"))
    totals = tracer.totals()
    assert totals[("leaf", "query")] == (1.0, 1)
    assert totals[("layer", "query")] == (2.0, 1)
    assert totals[("op.query", "query")] == (2.0, 1)
    assert totals[("layer", "mutation")] == (1.0, 1)
    assert not any(name == "outside" for name, _ in totals)
    assert tracer.counters[("bytes", "query")] == 5


def test_probes_wrap_where_the_caller_looks_up_and_restore():
    import importlib

    search = importlib.import_module("repro.ctc.kernels.search")
    from repro.graph.csr import CSRGraph

    original_find_g0 = search.find_g0
    original_from_graph = CSRGraph.__dict__["from_graph"]
    tracer = Tracer()
    with Probes(tracer, PROBES):
        assert search.find_g0 is not original_find_g0
        assert isinstance(CSRGraph.__dict__["from_graph"], classmethod)
        assert CSRGraph.__dict__["from_graph"] is not original_from_graph
    assert search.find_g0 is original_find_g0
    assert CSRGraph.__dict__["from_graph"] is original_from_graph


def test_probes_record_spans_under_an_operation():
    from repro.engine import CTCEngine
    from repro.graph.generators import complete_graph

    tracer = Tracer()
    with Probes(tracer, PROBES):
        with tracer.operation("setup"):
            engine = CTCEngine(complete_graph(6))
            engine.snapshot()
        with tracer.operation("query"):
            engine.query([0, 1], "lctc", eta=50)
    names = {name for name, _ in tracer.totals()}
    assert {"graph.csr_freeze", "trusses.decompose", "engine.query", "kernels.search",
            "kernels.steiner"} <= names


# ----------------------------------------------------------------------
# answer checker
# ----------------------------------------------------------------------
K4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_checker_accepts_a_truss_containing_the_query():
    assert community_problems(range(4), K4, [0, 3], 4) == []


def test_checker_rejects_a_community_that_is_not_a_truss():
    path = [(0, 1), (1, 2), (2, 3)]
    problems = community_problems(range(4), path, [0, 3], 3)
    assert any("support" in problem for problem in problems)


def test_checker_rejects_a_disconnected_community():
    triangles = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    problems = community_problems(range(6), triangles, [0, 3], 3)
    assert any("disconnected" in problem for problem in problems)


def test_checker_rejects_a_missing_query_node():
    problems = community_problems(range(4), K4, [0, 9], 4)
    assert any("missing" in problem for problem in problems)


def test_checker_rejects_an_edge_absent_from_the_graph():
    problems = community_problems(range(4), K4, [0], 4, has_edge=lambda u, v: (u, v) != (2, 3))
    assert any("not in the graph" in problem for problem in problems)


# ----------------------------------------------------------------------
# inputs and the benchmark definition
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["read", "churn", "serve"])
def test_op_stream_digest_follows_the_seed(tmp_path, name):
    from perfbench.workloads import WORKLOADS, Config, digest

    config = Config(scale=1, replicas=2, read_ops=120, churn_pairs=60, serve_windows=8)
    first = digest(WORKLOADS[name](config, 1, str(tmp_path)).stream)
    again = digest(WORKLOADS[name](config, 1, str(tmp_path)).stream)
    other = digest(WORKLOADS[name](config, 2, str(tmp_path)).stream)
    assert first == again
    assert first != other


def test_benchmark_json_lists_every_layer_metric():
    definition = _benchmark_json()
    assert [entry["name"] for entry in definition["per_layer"]] == [
        metric.name for metric in LAYER_METRICS
    ]
    for entry, metric in zip(definition["per_layer"], LAYER_METRICS):
        assert entry == {"name": metric.name, "unit": metric.unit, "better": metric.better}
    readme = open(os.path.join(ROOT, "perfbench", "README.md")).read()
    for metric in LAYER_METRICS:
        assert f"`{metric.name}`" in readme


# ----------------------------------------------------------------------
# smoke runs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", ["read", "churn", "serve"])
def test_tiny_run_is_correct_and_reports_every_metric(name, trace):
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    section = "per_layer" if trace else "end_to_end"
    expected = {entry["name"]: entry["unit"] for entry in _benchmark_json()[section]}
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == expected
    if not trace:
        assert "failed_ratio     0.0000" in completed.stdout


def _session_members(session: int) -> list[int]:
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:  # ended while listed
            continue
        if int(fields[3]) == session:
            members.append(int(entry))
    return members


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
@pytest.mark.parametrize("trace", [0, 1])
def test_serve_run_leaves_no_process_behind(trace):
    """Workers and the shared-memory resource tracker have ended when the run exits."""
    process = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "serve", "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    assert process.wait(timeout=170) == 0
    assert _session_members(process.pid) == []
