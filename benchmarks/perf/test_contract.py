"""Contract test: what ``run.py`` emits is what ``BENCHMARK.json`` declares.

Outside tier-1's ``testpaths``; run it with::

    python -m pytest benchmarks/perf/test_contract.py

Each workload runs for one round (no warm-up) in its own process; the
processes run side by side because nothing here reads a timing.
"""

import json
import pathlib
import re
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: the per-layer names are the same on every workload, so one traced
#: run (on the cheapest workload) covers them
TRACED = "q5_index_smpe"

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def runs():
    """``{(workload, trace): (returncode, stdout lines)}``."""
    jobs = [(w, 0) for w in WORKLOADS] + [(TRACED, 1)]
    procs = {
        job: subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload", job[0],
             "--trace", str(job[1]), "--rounds", "1", "--warmup", "0"],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        for job in jobs}
    results = {}
    for job, proc in procs.items():
        out, __ = proc.communicate()
        results[job] = (proc.returncode, out.splitlines())
    return results


def test_benchmark_json_is_within_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = ([w["name"] for w in SPEC["workloads"]]
             + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    assert setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def check(lines, declared):
    """The last line is the result object; above it every declared
    metric is printed by name with its unit and direction."""
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    printed = {line.split()[0]: line.split() for line in lines[:-1]
               if line and not line.startswith("#")}
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert set(emitted) == {"value", "unit"}
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
        name, __, unit, better, *__ = printed[metric["name"]]
        assert (unit, better) == (metric["unit"], metric["better"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_the_end_to_end_metrics(runs, workload):
    code, lines = runs[(workload, 0)]
    assert code == 0
    check(lines, SPEC["end_to_end"])
    values = json.loads(lines[-1])["metrics"]
    assert all(v["value"] > 0 for v in values.values())


def test_traced_run_emits_the_per_layer_metrics(runs):
    code, lines = runs[(TRACED, 1)]
    assert code == 0
    check(lines, SPEC["per_layer"])
    values = json.loads(lines[-1])["metrics"]
    shares = [values[f"{layer}.host_self_share"]["value"] for layer in (
        "cluster", "engine", "storage", "core", "plan", "service",
        "ingest", "baselines", "python")]
    assert abs(sum(shares) - 1.0) < 1e-9
    assert values["cluster.host_self_share"]["value"] == max(shares)
    assert values["harness.trace_overhead_ratio"]["value"] > 1.0
    spans = json.loads((HERE / "out" / f"trace_{TRACED}.json").read_text())
    assert {"setup.datagen", "setup.build_structures",
            "setup.reference_answers", "round", "job.build",
            "job.execute", "job.verify"} <= {s["name"]
                                             for s in spans["spans"]}
