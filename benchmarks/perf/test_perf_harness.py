"""Self-test of the ``repro serve`` HTTP benchmark at smoke size.

One ``run.py --smoke --trace`` run (all four workloads, untraced and
traced, 200 families, 1 s phases) checks the output format and the
per-layer contrasts the traced run exists to show; the oracle is
checked directly against replies corrupted on purpose.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import perf_harness
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def smoke() -> tuple[dict[tuple[str, str], tuple[float, str]], dict]:
    """``{(workload, metric): (value, unit)}`` and the JSON result line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    *lines, last = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines:
        workload, metric, value, unit = line.split()
        printed[workload, metric] = (float(value), unit)
    return printed, json.loads(last)


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_listed_metric_is_printed_with_its_unit(smoke, spec):
    printed, __ = smoke
    listed = spec["end_to_end"] + spec["per_layer"]
    for workload in spec["workloads"]:
        for entry in listed:
            key = (workload["name"], entry["name"])
            assert key in printed, key
            assert printed[key][1] == entry["unit"], key


def test_names_are_well_formed(smoke, spec):
    printed, result = smoke
    names = {metric for __, metric in printed}
    names |= {entry["name"] for entry in spec["workloads"]}
    for name in names:
        assert NAME.fullmatch(name), name
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0


def test_view_materialization_only_follows_writes(smoke):
    printed, __ = smoke
    assert printed["point-zipf", "views.registry.calls_per_req"][0] == 0
    assert printed["write-read", "views.registry.calls_per_req"][0] > 0


def test_oracle_flags_corrupted_replies(tmp_path):
    inputs = perf_harness.make_inputs(3, perf_harness.SMOKE, tmp_path)
    text = inputs.hot[0]
    engine = perf_harness.oracle_engine(inputs.project)
    expected = perf_harness.expected_citations(engine, [text])
    good = json.dumps(expected[text]).encode()
    corrupted = json.loads(good)
    corrupted["citations"] = corrupted["citations"][:-1]
    bad = json.dumps(corrupted).encode()
    replies = {text: Counter({good: 3, bad: 2, b"not json": 1})}
    assert perf_harness.count_mismatches(expected, replies) == 3

    row = ["fw1", "Written1", inputs.write_type]
    log = [("insert", row), ("read", text, 200, good),
           ("delete", row), ("read", text, 200, bad)]
    assert perf_harness.replay_mismatches(
        perf_harness.oracle_engine(inputs.project), log
    ) == 1


def test_untraced_server_runs_without_wrappers(tmp_path):
    project = tmp_path / "project.json"
    launcher = str(HERE / "traced_serve.py")
    plain = perf_harness.serve_argv(project, None)
    assert plain[1:4] == ["-m", "repro.cli", "serve"]
    assert launcher not in plain
    traced = perf_harness.serve_argv(project, tmp_path / "trace.json")
    assert traced[1] == launcher
