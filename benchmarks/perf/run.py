#!/usr/bin/env python3
"""End-to-end HTTP benchmark of ``repro serve`` (see README.md here).

Run from the repository root::

    python3 benchmarks/perf/run.py --workload point-zipf --seed 1
    python3 benchmarks/perf/run.py --seed 1 --runs 5 --trace --out F

Each run generates the inputs from ``--seed``, starts a fresh server
(set up ``Size.setups`` times; ``setup_s`` is the median), warms it up
untimed, drives one measured phase of ``--seconds`` from this process,
stops the server and checks the sampled replies against a fresh
in-process engine.  ``--trace`` reruns the workload on a server started
through ``traced_serve.py`` and reports the per-layer metrics.

Every metric is printed as ``<workload> <name> <value> <unit>``; the
last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the ``end_to_end`` metrics of
``BENCHMARK.json``, or its ``per_layer`` ones with ``--trace``).  The
exit status is 1 when any request failed or any reply was wrong, 2 when
the repository is not there to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from perf_harness import (
    CONNECTIONS,
    FULL,
    ROOT,
    SMOKE,
    SRC,
    WORK,
    Client,
    Inputs,
    Recorder,
    Sample,
    Server,
    Size,
    WriteRead,
    closed_loop,
    count_mismatches,
    cpu_plan,
    expected_citations,
    make_inputs,
    open_loop,
    oracle_engine,
    replay_mismatches,
    serve_argv,
    wide_mix,
)
from traced_serve import LAYERS

WORKLOADS = ("point-zipf", "point-uniform", "wide-mix", "write-read")
#: ``point-uniform`` replies checked per connection (the first texts of
#: each seeded stream).
UNIFORM_CHECKED_PER_CONNECTION = 50
#: ``write-read`` cycles replayed through the oracle.
REPLAYED_CYCLES = 10

Metrics = dict[str, tuple[float, str]]


@dataclass
class Phase:
    """One measured phase against one server."""

    recorders: list[Recorder]
    start: float
    end: float
    before: dict[str, Any]
    after: dict[str, Any]
    rss_mb: float
    warm_texts: set[str]

    @property
    def samples(self) -> list[Sample]:
        return [s for r in self.recorders for s in r.samples]

    def replies(self) -> dict[str, Counter[bytes]]:
        merged: dict[str, Counter[bytes]] = defaultdict(Counter)
        for recorder in self.recorders:
            for text, bodies in recorder.replies.items():
                merged[text].update(bodies)
        return merged

    def log(self) -> list[tuple[Any, ...]]:
        return [entry for r in self.recorders for entry in r.log]


@dataclass
class Run:
    """Everything one run of one workload measured."""

    metrics: Metrics = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0


class Workload:
    """Drives one named workload against a started server."""

    def __init__(self, name: str, inputs: Inputs, size: Size) -> None:
        self.name = name
        self.inputs = inputs
        self.size = size
        self.writer = WriteRead(inputs)

    def _uniform_rngs(self, label: str) -> list[random.Random]:
        """``point-uniform``'s seeded per-connection text draws."""
        return [self.inputs.rng(self.name, label, connection)
                for connection in range(CONNECTIONS)]

    def checked(self) -> set[str]:
        """Texts whose every reply the oracle checks."""
        if self.name == "point-zipf":
            return set(self.inputs.hot)
        if self.name == "wide-mix":
            return set(self.inputs.hot) | set(self.inputs.wide)
        if self.name == "point-uniform":
            return {
                rng.choices(self.inputs.pool)[0]
                for rng in self._uniform_rngs("measure")
                for __ in range(UNIFORM_CHECKED_PER_CONNECTION)
            }
        return set()  # write-read: checked by replaying its log

    def drive(self, port: int, seconds: float, label: str,
              checked: set[str]) -> list[Recorder]:
        inputs = self.inputs
        if self.name == "point-zipf":
            return open_loop(port, inputs.hot, inputs.hot_weights,
                             inputs.rng(self.name, label, "arrivals"),
                             seconds, checked)
        if self.name == "wide-mix":
            return wide_mix(port, inputs,
                            inputs.rng(self.name, label, "points"),
                            seconds, checked)
        if self.name == "write-read":
            logged = REPLAYED_CYCLES if label == "measure" else 0
            return [self.writer.run(
                port, inputs.rng(self.name, label, "reads"), seconds,
                checked, logged_cycles=logged,
            )]
        return closed_loop(port, inputs.pool, self._uniform_rngs(label),
                           seconds, checked)

    def warm_up(self, port: int) -> set[str]:
        """Send every hot (and wide) text once, then run the workload
        untimed; returns the texts sent."""
        first = list(self.inputs.hot) if self.name != "point-uniform" else []
        if self.name == "wide-mix":
            first += self.inputs.wide
        with Client(port) as client:
            for text in first:
                status, __ = client.post("/cite", {"query": text})
                if status != 200:
                    raise RuntimeError(f"warm-up /cite answered {status}")
        recorders = self.drive(port, self.size.warmup_s, "warmup", set())
        return set(first) | {s.text for r in recorders for s in r.samples}


def measure(workload: Workload, server: Server, seconds: float) -> Phase:
    """Warm up, then one measured phase bracketed by ``/stats``."""
    warm_texts = workload.warm_up(server.port)
    with Client(server.port) as client:
        before = client.stats()
        start = time.monotonic()
        recorders = workload.drive(server.port, seconds, "measure",
                                   workload.checked())
        end = max((s.done for r in recorders for s in r.samples),
                  default=time.monotonic())
        after = client.stats()
    return Phase(recorders, start, end, before, after,
                 server.peak_rss_mb(), warm_texts)


def serve_phase(workload: Workload, seconds: float, setups: int,
                server_cpu: int | None,
                trace_file: Path | None) -> tuple[list[float], Phase]:
    """Set the server up ``setups`` times and run one measured phase on
    the one started halfway: the set-ups before and after the phase
    sample the machine's speed at both ends of the run."""
    argv = serve_argv(workload.inputs.project, trace_file)
    tag = "traced" if trace_file else "plain"
    log = WORK / f"serve-{workload.name}-{tag}.log"
    measured = (setups - 1) // 2
    setup_times = []
    for attempt in range(setups):
        with Server(argv, server_cpu, log) as server:
            setup_times.append(server.start(workload.inputs.hot[0]))
            if attempt == measured:
                phase = measure(workload, server, seconds)
    return setup_times, phase


def check_answers(workload: Workload, phases: list[Phase]) -> int:
    """Oracle: wrong replies among every checked reply of ``phases``."""
    project = workload.inputs.project
    wrong = 0
    replies = [phase.replies() for phase in phases]
    texts = {text for per_phase in replies for text in per_phase}
    if texts:
        expected = expected_citations(oracle_engine(project), texts)
        wrong += sum(count_mismatches(expected, r) for r in replies)
    for phase in phases:
        if phase.log():
            wrong += replay_mismatches(oracle_engine(project), phase.log())
    return wrong


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def latencies(phase: Phase, kind: str) -> list[float]:
    """Milliseconds from due to answered, for the 2xx requests of a
    class (due is when sent, except in the open loop)."""
    return [(s.done - s.due) * 1000.0 for s in phase.samples
            if s.kind == kind and 200 <= s.status < 300]


def end_to_end(phase: Phase, setup_times: list[float]) -> Metrics:
    ok = [s for s in phase.samples if 200 <= s.status < 300]
    metrics: Metrics = {"setup_s": (statistics.median(setup_times), "s")}
    point = latencies(phase, "point")
    metrics["point_p50_ms"] = (percentile(point, 0.50), "ms")
    metrics["point_p90_ms"] = (percentile(point, 0.90), "ms")
    metrics["point_p99_ms"] = (percentile(point, 0.99), "ms")
    metrics["point_samples"] = (float(len(point)), "count")
    wide = latencies(phase, "wide")
    if wide:
        metrics["wide_p50_ms"] = (percentile(wide, 0.50), "ms")
        metrics["wide_p90_ms"] = (percentile(wide, 0.90), "ms")
        metrics["wide_samples"] = (float(len(wide)), "count")
    writes = latencies(phase, "write")
    if writes:
        metrics["write_p50_ms"] = (percentile(writes, 0.50), "ms")
        metrics["read_after_write_p50_ms"] = (
            percentile(latencies(phase, "read_after_write"), 0.50), "ms"
        )
        metrics["write_samples"] = (float(len(writes)), "count")
    metrics["throughput_rps"] = (
        len(ok) / (phase.end - phase.start), "req/s"
    )
    metrics["peak_rss_mb"] = (phase.rss_mb, "MB")
    return metrics


def percentile(values: list[float], fraction: float) -> float:
    """The ``fraction`` quantile (``statistics.quantiles`` cut point)."""
    if len(values) < 2:
        return values[0] if values else float("nan")
    return statistics.quantiles(values, n=100)[round(fraction * 100) - 1]


def endpoint_totals(stats: dict[str, Any],
                    endpoint: str) -> tuple[int, float]:
    """(request count, summed server milliseconds) of one endpoint."""
    latency = (
        stats["service"]["endpoints"].get(endpoint, {}).get("latency", {})
    )
    count = latency.get("count", 0)
    return count, count * latency.get("mean_ms", 0.0)


def _delta(phase: Phase, *path: str) -> float:
    before: Any = phase.before
    after: Any = phase.after
    for key in path:
        before, after = before[key], after[key]
    return after - before


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def trace_breakdown(trace_file: Path, start: float,
                    end: float) -> dict[str, Any]:
    """Per-layer calls and self time of the lane jobs (root spans) that
    started inside ``[start, end)``.  A span's self time is its
    duration minus the durations of its children, which nest inside it
    on the same thread."""
    spans = json.loads(trace_file.read_text())["spans"]
    # span: [id, layer, name, start, end, parent, root, thread, size]
    roots = {
        span[0]: span for span in spans
        if span[5] == 0 and start <= span[3] < end
    }
    children: dict[int, float] = defaultdict(float)
    for span in spans:
        if span[5]:
            children[span[5]] += span[4] - span[3]
    calls: Counter[str] = Counter()
    self_s: dict[str, float] = defaultdict(float)
    for span in spans:
        if span[6] in roots:
            calls[span[1]] += 1
            self_s[span[1]] += span[4] - span[3] - children[span[0]]
    batches = [
        (span[8], span[4] - span[3]) for span in roots.values()
        if span[2] == "CitationEngine.cite_batch"
    ]
    return {
        "calls": calls,
        "self_s": self_s,
        "root_s": sum(span[4] - span[3] for span in roots.values()),
        "batches": batches,
    }


def per_layer(phase: Phase, breakdown: dict[str, Any]) -> Metrics:
    samples = phase.samples
    ok = [s for s in samples if 200 <= s.status < 300]
    completed = len(ok)
    root_ms = breakdown["root_s"] * 1000.0
    metrics: Metrics = {}

    def layer(name: str, calls: float, self_ms: float) -> None:
        metrics[f"{name}.calls_per_req"] = (_ratio(calls, completed),
                                            "count")
        metrics[f"{name}.ms_per_req"] = (_ratio(self_ms, completed), "ms")
        metrics[f"{name}.share"] = (_ratio(self_ms, root_ms), "fraction")

    # service.protocol: what the client waits beyond the server's own
    # request time (framing, sockets, the client's JSON encoding).
    cites = [s for s in ok if s.kind != "write"]
    count_before, ms_before = endpoint_totals(phase.before, "POST /cite")
    count_after, ms_after = endpoint_totals(phase.after, "POST /cite")
    server_cite_ms = _ratio(ms_after - ms_before, count_after - count_before)
    client_cite_ms = _ratio(
        sum(s.done - s.sent for s in cites) * 1000.0, len(cites)
    )
    overhead_ms = client_cite_ms - server_cite_ms
    requests = sum(
        endpoint_totals(phase.after, name)[0]
        - endpoint_totals(phase.before, name)[0]
        for name in ("POST /cite", "POST /insert", "POST /delete")
    )
    layer("service.protocol", requests, overhead_ms * len(cites))
    metrics["service.protocol.overhead_ms"] = (overhead_ms, "ms")

    # service.batcher: server time outside the batch a request rode in
    # (queueing behind other lane jobs, the linger, parsing, analysis).
    batches = _delta(phase, "service", "batching", "batches_executed")
    batched = _delta(phase, "service", "batching", "batched_requests")
    ridden_ms = _ratio(
        sum(size * seconds for size, seconds in breakdown["batches"]),
        sum(size for size, __ in breakdown["batches"]),
    ) * 1000.0
    wait_ms = server_cite_ms - ridden_ms
    layer("service.batcher", batches, wait_ms * len(cites))
    metrics["service.batcher.batch_size_mean"] = (_ratio(batched, batches),
                                                  "count")
    metrics["service.batcher.wait_ms"] = (wait_ms, "ms")
    metrics["service.batcher.busy_share"] = (
        breakdown["root_s"] / (phase.end - phase.start), "fraction"
    )

    for name in LAYERS:
        layer(name, breakdown["calls"][name],
              breakdown["self_s"][name] * 1000.0)

    engine = ("engine",)
    for metric, cache in (("citation.cache.hit_ratio", "rewriting_cache"),
                          ("cq.plan.hit_ratio", "plan_cache"),
                          ("cq.subplan.hit_ratio", "subplan_memo")):
        hits = _delta(phase, *engine, cache, "hits")
        misses = _delta(phase, *engine, cache, "misses")
        metrics[metric] = (_ratio(hits, hits + misses), "fraction")
    metrics["cq.plan.evictions"] = (
        _delta(phase, *engine, "plan_cache", "evictions"), "count"
    )

    seen = set(phase.warm_texts)
    repeats = 0
    for sample in sorted(samples, key=lambda s: s.sent):
        repeats += sample.text in seen
        seen.add(sample.text)
    metrics["loadgen.late_p90_ms"] = (
        percentile([(s.sent - s.due) * 1000.0 for s in samples], 0.90), "ms"
    )
    metrics["loadgen.repeat_share"] = (_ratio(repeats, len(samples)),
                                       "fraction")
    metrics["loadgen.requests"] = (float(len(samples)), "count")
    return metrics


# ---------------------------------------------------------------------------
# runs and reporting
# ---------------------------------------------------------------------------


def run_workload(name: str, inputs: Inputs, size: Size, seconds: float,
                 trace: bool, server_cpu: int | None) -> Run:
    workload = Workload(name, inputs, size)
    setups, phase = serve_phase(workload, seconds, size.setups,
                                server_cpu, None)
    phases = [phase]
    trace_file = WORK / f"trace-{name}.json"
    if trace:
        trace_file.unlink(missing_ok=True)
        phases.append(serve_phase(workload, seconds, 1, server_cpu,
                                  trace_file)[1])
    run = Run(wrong=check_answers(workload, phases))
    for each in phases:
        run.attempted += len(each.samples)
        run.failed += sum(not 200 <= s.status < 300 for s in each.samples)
    run.metrics = end_to_end(phase, setups)
    run.metrics["error_rate"] = (
        (run.failed + run.wrong) / run.attempted, "fraction"
    )
    if trace:
        traced = phases[1]
        run.metrics.update(per_layer(
            traced, trace_breakdown(trace_file, traced.start, traced.end)
        ))
        traced_p50 = percentile(latencies(traced, "point"), 0.50)
        run.metrics["trace.overhead"] = (
            traced_p50 / run.metrics["point_p50_ms"][0] - 1.0, "fraction"
        )
    return run


def summarize(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def load_benchmark() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured phase length; a runner of "
                             "BENCHMARK.json's command passes its "
                             "run_seconds here (default: run_seconds; "
                             "1 with --smoke)")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1),
                        help="also run traced and report per-layer "
                             "metrics (--trace alone means 1)")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload; medians and quartiles "
                             "are printed")
    parser.add_argument("--out", type=Path,
                        help="also write every value as JSON here")
    parser.add_argument("--smoke", action="store_true",
                        help="200 families and 1 s phases (self-test)")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    bench = load_benchmark()
    size = SMOKE if args.smoke else FULL
    seconds = args.seconds or (1.0 if args.smoke else bench["run_seconds"])
    server_cpu, loadgen_cpus = cpu_plan()
    if loadgen_cpus is not None:
        os.sched_setaffinity(0, loadgen_cpus)
    WORK.mkdir(parents=True, exist_ok=True)
    inputs = make_inputs(args.seed, size, WORK)
    workloads = args.workload or list(WORKLOADS)

    runs: dict[str, list[Run]] = {}
    for name in workloads:
        runs[name] = [
            run_workload(name, inputs, size, seconds, bool(args.trace),
                         server_cpu)
            for __ in range(args.runs)
        ]

    report: dict[str, Any] = {
        "seed": args.seed, "runs": args.runs, "seconds": seconds,
        "families": size.families, "nproc": os.cpu_count(),
        "python": platform.python_version(), "workloads": {},
    }
    listed = bench["per_layer" if args.trace else "end_to_end"]
    result_metrics: dict[str, Any] = {}
    for name, workload_runs in runs.items():
        table = report["workloads"][name] = {}
        for metric, (__, unit) in workload_runs[0].metrics.items():
            values = [run.metrics[metric][0] for run in workload_runs]
            median, q1, q3 = summarize(values)
            table[metric] = {"unit": unit, "median": median, "q1": q1,
                             "q3": q3, "values": values}
            quartiles = f" q1={q1:.4f} q3={q3:.4f}" if len(values) > 1 else ""
            print(f"{name} {metric} {median:.4f} {unit}{quartiles}")
        for entry in listed:
            key = entry["name"]
            median = table[key]["median"]
            if len(runs) > 1:
                key = f"{name}/{key}"
            result_metrics[key] = {"value": median, "unit": entry["unit"]}

    every = [run for workload_runs in runs.values() for run in workload_runs]
    correct = all(run.wrong == 0 for run in every)
    failed = sum(run.failed + run.wrong for run in every)
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(run.attempted for run in every),
        "failed": failed,
        "metrics": result_metrics,
    }))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
