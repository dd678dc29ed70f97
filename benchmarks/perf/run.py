#!/usr/bin/env python3
"""The repo's two-clock benchmark runner (see README.md beside this file).

    python3 benchmarks/perf/run.py                       # all five workloads
    python3 benchmarks/perf/run.py --workload q5_index_smpe --seed 3
    python3 benchmarks/perf/run.py --workload serve_burst --trace 1
    python3 benchmarks/perf/run.py --selfcheck

One workload runs per process, on one thread.  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` adds one round under ``cProfile`` with
harness spans, runs the layer probes, and reports the per-layer metrics.
Metric names, units and directions are declared once, in
``BENCHMARK.json`` at the repo root; the last line of standard output is
one JSON object holding the values.
"""

from __future__ import annotations

import argparse
import cProfile
import functools
import gc
import json
import math
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} "
             "is missing")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from layers import LAYERS, Tracer, profile_layers  # noqa: E402
from probes import run_probes  # noqa: E402
from repro.service import percentile  # noqa: E402
from workloads import GOODPUT_LIMIT_S, WORKLOADS, Round  # noqa: E402

SETUPS = 5
WARMUP_ROUNDS = 3
#: when filling ``--seconds``, stop warming up once this much host time
#: went into it (a workload with multi-second rounds warms up once)
WARMUP_CAP_S = 2.0


@functools.cache
def declared() -> dict[str, list[dict]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


# -- what one round says ---------------------------------------------------


def summarize(rnd: Round) -> dict[str, float]:
    """The simulated-clock end-to-end numbers of one verified round.

    Deterministic for a fixed seed: two commits compare exactly.
    """
    done = [o for o in rnd.outcomes if o.state == "completed"]
    latencies = [o.sim_latency for o in done]
    good = sum(1 for o in done if o.sim_latency <= GOODPUT_LIMIT_S)
    return {
        "sim_job_ms_p50": statistics.median(latencies) * 1e3,
        "sim_job_ms_p95": percentile(latencies, 0.95) * 1e3,
        "sim_goodput_jobs_per_s": good / rnd.sim_seconds,
        "record_accesses_per_job":
            statistics.fmean(o.record_accesses for o in done),
        "failed_share": 1.0 - len(done) / len(rnd.outcomes),
    }


def fingerprint(rnd: Round) -> dict[str, float]:
    """Everything about a round that must repeat bit for bit."""
    out = summarize(rnd)
    out.update(rnd.counters)
    out["jobs"] = len(rnd.outcomes)
    out["record_accesses"] = sum(o.record_accesses for o in rnd.outcomes)
    out["sim_seconds"] = rnd.sim_seconds
    if rnd.events is not None:
        out["cluster.sim_events_per_round"] = rnd.events
    return out


def first_difference(a: dict, b: dict, rel_tol: float = 0.0):
    """The first name whose values differ, as ``(name, a's, b's)``."""
    for name in sorted(set(a) | set(b)):
        x, y = a.get(name), b.get(name)
        if x != y and (x is None or y is None
                       or not math.isclose(x, y, rel_tol=rel_tol)):
            return name, x, y
    return None


class Measurement:
    """Rounds of one workload: host times, and the one deterministic
    fingerprint every round must reproduce."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.host_seconds: list[float] = []
        self.fingerprint = None
        self.attempted = self.wrong = self.errored = 0
        self.drift = None

    def round(self, keep: bool = True, profile=None) -> float:
        self.workload.reset()
        with self.workload.tracer.span("round"):
            if profile is not None:
                profile.enable()
            start = time.perf_counter()
            rnd = self.workload.run_round()
            seconds = time.perf_counter() - start
            if profile is not None:
                profile.disable()
        wrong = self.workload.verify(rnd)
        this_round = fingerprint(rnd)
        if self.fingerprint is None:
            self.fingerprint = this_round
        elif self.drift is None:
            # Rounds on a long-lived cluster start at a later simulated
            # clock, so their latencies differ in the last float digits;
            # anything beyond that is non-determinism.
            self.drift = first_difference(self.fingerprint, this_round,
                                          rel_tol=1e-9)
        if keep:
            self.host_seconds.append(seconds)
            self.attempted += len(rnd.outcomes)
            self.wrong += wrong
            self.errored += sum(o.state == "failed" for o in rnd.outcomes)
        return seconds


def warm_up(m: Measurement, args) -> None:
    warmups = WARMUP_ROUNDS if args.warmup is None else args.warmup
    spent = 0.0
    for __ in range(warmups):
        if args.warmup is None and spent >= WARMUP_CAP_S:
            break
        spent += m.round(keep=False)


def measure_rounds(m: Measurement, args, seconds: float) -> None:
    """Measure ``--rounds`` rounds, or as many as fit in ``seconds`` of
    host time (never fewer than one)."""
    deadline = time.perf_counter() + seconds
    while True:
        m.round()
        if args.rounds is not None:
            if len(m.host_seconds) >= args.rounds:
                return
        elif (time.perf_counter() + statistics.median(m.host_seconds)
                > deadline):
            return


# -- one workload, one process ---------------------------------------------


def header(args, workload_cls) -> dict:
    info = {
        "workload": workload_cls.name,
        "seed": args.seed,
        "trace": args.trace,
        "loop": workload_cls.loop,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "threads": 1,
    }
    print(f"# workload {info['workload']}  seed {info['seed']}  "
          f"trace {info['trace']}")
    print(f"# {info['loop']}")
    print(f"# python {info['python']}  nproc {info['nproc']}  "
          f"loadavg(1m) {info['loadavg_1m']:.2f}  one process, one thread")
    return info


def set_up(workload_cls, seed: int, tracer: Tracer, times: int):
    """``times`` cold set-ups (each drops the one before); returns the
    last workload and every set-up's host seconds."""
    workload, seconds = None, []
    for __ in range(times):
        workload = None
        gc.collect()
        with tracer.span("setup") as span:
            workload = workload_cls(seed, tracer)
        seconds.append(span.seconds)
    return workload, seconds


def run_untraced(args, workload_cls) -> tuple[dict, Measurement]:
    tracer = Tracer(record=False)
    workload, setups = set_up(workload_cls, args.seed, tracer, SETUPS)
    gc.collect()
    gc.freeze()
    m = Measurement(workload)
    warm_up(m, args)
    measure_rounds(m, args, args.seconds)
    values = {name: m.fingerprint[name] for name in (
        "sim_job_ms_p50", "sim_job_ms_p95", "sim_goodput_jobs_per_s",
        "record_accesses_per_job")}
    values["setup_s"] = statistics.median(setups)
    values["round_host_ms_p50"] = statistics.median(m.host_seconds) * 1e3
    values["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return values, m


def run_traced(args, workload_cls) -> tuple[dict, Measurement, Tracer]:
    tracer = Tracer(record=True)
    workload, __ = set_up(workload_cls, args.seed, tracer, 1)
    gc.collect()
    gc.freeze()
    gen2_before = gc.get_stats()[2]["collections"]
    m = Measurement(workload)
    # A short untraced baseline the traced round is compared to.  It is
    # not warmed up: its median shrugs off a cold first round, and a
    # multi-second warm-up would double the traced run's length.
    measure_rounds(m, args, args.seconds / 4)
    profile = cProfile.Profile()
    traced_seconds = m.round(keep=False, profile=profile)
    gen2 = gc.get_stats()[2]["collections"] - gen2_before

    layer_seconds, steps, funnel_calls = profile_layers(profile)
    fp = m.fingerprint
    if fp.get("cluster.sim_events_per_round", steps) != steps:
        raise SystemExit(
            f"traced round fired {steps} kernel events, the result "
            f"objects report {fp['cluster.sim_events_per_round']}")
    host = m.host_seconds
    round_s = statistics.median(host)
    accesses = fp["record_accesses"]
    resets = workload.reset_seconds
    quartiles = statistics.quantiles(host, n=4) if len(host) > 1 else None

    values = dict.fromkeys((d["name"] for d in declared()["per_layer"]), 0.0)
    values.update({name: value for name, value in fp.items()
                   if name in values})
    total = sum(layer_seconds.values())
    for layer in LAYERS:
        values[f"{layer}.host_self_ms"] = layer_seconds[layer] * 1e3
        values[f"{layer}.host_self_share"] = layer_seconds[layer] / total
    values.update({
        "cluster.sim_events_per_round": steps,
        "cluster.events_per_record_access": steps / accesses,
        "cluster.host_us_per_event": round_s * 1e6 / steps,
        "engine.funnel_calls_per_record_access": funnel_calls / accesses,
        "engine.host_us_per_record_access": round_s * 1e6 / accesses,
        "service.host_ms_per_job":
            round_s * 1e3 / fp["jobs"] if "service.admitted" in fp else 0.0,
        "core.build_all_s": tracer.total("setup.build_structures"),
        "datagen.host_s": tracer.total("setup.datagen"),
        "harness.round_host_ms_p90": percentile(host, 0.9) * 1e3,
        "harness.round_host_ms_iqr":
            (quartiles[2] - quartiles[0]) * 1e3 if quartiles else 0.0,
        "harness.gc_gen2_collections": gen2,
        "harness.reset_s": statistics.fmean(resets) if resets else 0.0,
        "harness.trace_overhead_ratio": traced_seconds / round_s,
        "harness.loadavg_1m": os.getloadavg()[0],
    })
    values.update(run_probes())
    return values, m, tracer


def emit(kind: str, values: dict, m: Measurement, info: dict,
         extra: dict) -> int:
    """Print every declared metric by name with its unit, write the
    result file, and end with the one-line JSON result."""
    metrics = declared()[kind]
    names = {d["name"] for d in metrics}
    if names != set(values):
        print(f"run.py: emitted and declared {kind} metrics differ: "
              f"{sorted(names ^ set(values))}", file=sys.stderr)
        return 2
    samples = len(m.host_seconds)
    print(f"# {samples} measured round{'s' * (samples != 1)}, "
          f"{m.attempted} jobs attempted, {m.wrong} wrong answers, "
          f"{m.errored} engine failures")
    for d in metrics:
        note = (f"  (n={samples} rounds)"
                if d["name"] == "round_host_ms_p50" else "")
        print(f"{d['name']:<42s} {values[d['name']]:>16.6f} "
              f"{d['unit']:<9s} {d['better']} is better{note}")
    if kind == "end_to_end":
        # Not gated by the driver (they are 0 or absent on most
        # workloads), but part of every untraced report.
        for name in ("failed_share", "sim_commit_ms_p50"):
            if name in m.fingerprint:
                print(f"{name:<42s} {m.fingerprint[name]:>16.6f}")
    correct = m.wrong == 0 and m.errored == 0 and m.drift is None
    if m.drift is not None:
        print("run.py: rounds of one seed disagree on "
              f"{m.drift[0]}: {m.drift[1]!r} != {m.drift[2]!r}",
              file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": m.attempted,
        "failed": m.wrong + m.errored,
        "metrics": {d["name"]: {"value": values[d["name"]],
                                "unit": d["unit"]} for d in metrics},
    }
    OUT.mkdir(exist_ok=True)
    stem = info["workload"] if kind == "end_to_end" else (
        f"trace_{info['workload']}")
    (OUT / f"{stem}.json").write_text(json.dumps({
        "header": info,
        "declared": metrics,
        "result": result,
        "deterministic": m.fingerprint,
        "round_host_seconds": m.host_seconds,
        **extra,
    }, indent=1))
    print(json.dumps(result))
    return 0 if correct else 1


def run_workload(args) -> int:
    workload_cls = WORKLOADS[args.workload]
    info = header(args, workload_cls)
    if args.trace:
        values, m, tracer = run_traced(args, workload_cls)
        extra = {"spans": [s.as_dict() for s in tracer.spans]}
        return emit("per_layer", values, m, info, extra)
    values, m = run_untraced(args, workload_cls)
    return emit("end_to_end", values, m, info, {})


# -- every workload, each in a fresh process --------------------------------


def child_command(args, name: str, *more: str) -> list[str]:
    return [sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(args.seed), *more]


def run_all(args) -> int:
    """One workload process alive at a time, so peak RSS does not leak
    from one workload into the next."""
    more = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.rounds is not None:
        more += ["--rounds", str(args.rounds)]
    if args.warmup is not None:
        more += ["--warmup", str(args.warmup)]
    status = 0
    for name in WORKLOADS:
        status = max(status, subprocess.run(
            child_command(args, name, *more)).returncode)
        print()
    return status


# -- selfcheck ---------------------------------------------------------------


def fingerprint_once(name: str, seed: int) -> dict:
    m = Measurement(WORKLOADS[name](seed, Tracer(record=False)))
    m.round()
    if m.wrong or m.errored:
        raise SystemExit(f"selfcheck: {name} answered wrongly")
    return m.fingerprint


def selfcheck(args) -> int:
    """One round of each workload twice in-process and once more under
    another ``PYTHONHASHSEED``: every simulated metric and counter must
    be bit-identical."""
    other_hash = "7" if os.environ.get("PYTHONHASHSEED") != "7" else "8"
    for name in WORKLOADS:
        first = fingerprint_once(name, args.seed)
        runs = {"second in-process run": fingerprint_once(name, args.seed)}
        child = subprocess.run(
            child_command(args, name, "--fingerprint"),
            env={**os.environ, "PYTHONHASHSEED": other_hash},
            capture_output=True, text=True, check=True)
        runs[f"subprocess with PYTHONHASHSEED={other_hash}"] = json.loads(
            child.stdout.splitlines()[-1])
        for label, other in runs.items():
            diff = first_difference(first, other)
            if diff is not None:
                print(f"selfcheck FAILED: {name}: {diff[0]} is "
                      f"{diff[1]!r} but {diff[2]!r} in the {label}")
                return 1
        print(f"selfcheck ok: {name}: {len(first)} deterministic values "
              "identical across 3 runs")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload in this process "
                             "(default: all, each in a fresh subprocess)")
    parser.add_argument("--seed", type=int, default=1,
                        help="data, arrival and ingest streams derive "
                             "from it")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="host seconds of measured rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int,
                        help="measure exactly this many rounds instead of "
                             "filling --seconds")
    parser.add_argument("--warmup", type=int,
                        help="discarded warm-up rounds (default 3, cut "
                             f"short after {WARMUP_CAP_S:g} s)")
    parser.add_argument("--selfcheck", action="store_true",
                        help="check that simulated metrics repeat exactly")
    parser.add_argument("--fingerprint", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.selfcheck:
        return selfcheck(args)
    if args.workload is None:
        return run_all(args)
    if args.fingerprint:
        print(json.dumps(fingerprint_once(args.workload, args.seed)))
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
