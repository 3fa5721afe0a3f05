#!/usr/bin/env python3
"""Benchmark of the `sturmian` toolkit: one workload per run.

    python3 bench/run.py --workload search --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`, and the run fails (exit 1, no result) when it is not there.
The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics (`setup_s`, `wall_s`,
`peak_rss_mb`); `--trace 1` reports the per-layer metrics of
`tracer.METRICS`.  A run makes one untimed round of the workload's
operations, then timed rounds until `--seconds` have passed, each
scaled by the speed probe of `speed.py`.  Then it checks the outputs
of the first round against `reference`; every later round must print
the same.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_MIN_SAMPLES = 11
MAX_REASONS = 5
# The speed probe runs before an operation once this much operation
# time has passed since it last ran, and after the round's last one.
PROBE_EVERY_S = 0.25


def _import_program() -> None:
    sys.path.insert(0, str(SRC))
    try:
        import sturmian
    except ImportError as exc:
        sys.exit(f"error: cannot import sturmian from {SRC}: {exc}")
    if Path(sturmian.__file__).resolve().parent != SRC / "sturmian":
        sys.exit(f"error: sturmian was imported from {sturmian.__file__}, not {SRC}")


def _setup_seconds(cmd, probe) -> float:
    """One fresh interpreter importing the package and building the
    workload's inputs (`inputs.py` run as a script), scaled by probes
    run just before and just after it."""
    before = probe.seconds()
    start = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    spent = time.perf_counter() - start
    return probe.scale(spent, (before + probe.seconds()) / 2)


def _call(op):
    try:
        return op.call()
    except Exception as exc:  # a crash is one failed operation
        return ("raised", f"{type(exc).__name__}: {exc}")


def _round(ops, probe):
    """Run every operation once.  Returns the outputs and the round's
    time, raw and scaled by the median of the probes run among the
    operations."""
    outputs = []
    spent = 0.0
    probes = []
    since_probe = PROBE_EVERY_S
    for op in ops:
        gc.collect()
        if since_probe >= PROBE_EVERY_S:
            probes.append(probe.seconds())
            since_probe = 0.0
        start = time.perf_counter()
        outputs.append(_call(op))
        took = time.perf_counter() - start
        spent += took
        since_probe += took
    probes.append(probe.seconds())
    return outputs, (spent, probe.scale(spent, statistics.median(probes)))


def _failures(ops, outputs) -> list:
    """Per operation, the (reason, known) of each wrong answer; the
    first few reasons go to stderr."""
    wrong = [op.failures(out) for op, out in zip(ops, outputs)]
    reasons = [(op, r) for op, w in zip(ops, wrong) for r, _ in w]
    for op, reason in reasons[:MAX_REASONS]:
        print(f"FAILED {op.name}: {reason}", file=sys.stderr)
    return wrong


@dataclass
class Rounds:
    """What `_rounds` measured."""

    first: list  # outputs of the untimed first round: the ones checked
    peak_mb: float  # peak resident memory after the first round
    probe: speed.Probe
    differing: list  # per operation, later outputs unlike the first
    times: list = field(default_factory=list)  # (raw, scaled) per untraced round
    traced_times: list = field(default_factory=list)
    tracers: list = field(default_factory=list)
    count: int = 1  # rounds run, the first one included


def _rounds(ops, seconds, between=None, tracing=None) -> Rounds:
    """One untimed round, then timed rounds until `seconds` pass,
    calling `between(probe)` after each.

    The untimed round warms caches and gives the outputs that are
    checked; the peak memory is read after it, before the probe's ring
    exists, so that it is the package's.  With `tracing` (a Tracer
    factory), timed rounds alternate untraced and traced, and each
    traced output must equal the untraced one before it.
    """
    first = []
    for op in ops:
        gc.collect()
        first.append(_call(op))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run = Rounds(first, peak_mb, speed.Probe(), [0] * len(ops))
    # Objects that live through the run are frozen, so the collection
    # before each operation scans only what the previous one left.
    gc.collect()
    gc.freeze()
    start = time.perf_counter()
    while not run.times or time.perf_counter() - start < seconds:
        outputs, spent = _round(ops, run.probe)
        run.times.append(spent)
        _count_differences(run.differing, outputs, first)
        run.count += 1
        if tracing is not None:
            tracer = tracing()
            tracer.install()
            try:
                traced, spent = _round(ops, run.probe)
            finally:
                tracer.uninstall()
            run.traced_times.append(spent)
            run.tracers.append(tracer)
            _count_differences(run.differing, traced, outputs)
            run.count += 1
        if between is not None:
            between(run.probe)
    return run


def _count_differences(differing, outputs, expected):
    for i, (a, b) in enumerate(zip(outputs, expected)):
        differing[i] += a != b


def _result(ops, run: Rounds, metrics):
    """An answer fails in every round if it is wrong in the first, and
    every answer of an operation fails in each round whose output
    differs from the first.  `correct` holds when only known faults
    fail."""
    wrong = _failures(ops, run.first)
    failed = sum(
        run.count * len(w) if w else n * op.answers
        for op, w, n in zip(ops, wrong, run.differing)
    )
    return {
        "correct": not any(run.differing) and all(known for w in wrong for _, known in w),
        "attempted": run.count * sum(op.answers for op in ops),
        "failed": failed,
        "metrics": metrics,
    }


def _median_scaled(times) -> float:
    return statistics.median(scaled for _, scaled in times)


def measure(workload: str, seed: int, seconds: float) -> dict:
    import workloads

    cmd = [sys.executable, str(BENCH / "inputs.py"), workload, str(seed)]
    # unmeasured: warms the bytecode cache
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    ops = workloads.build(workload, seed)
    setup = []
    # Set-up samples are spread over the run, one after each round, so
    # one slow spell of the shared machine does not set the median.
    run = _rounds(ops, seconds, between=lambda probe: setup.append(_setup_seconds(cmd, probe)))
    while len(setup) < SETUP_MIN_SAMPLES:
        setup.append(_setup_seconds(cmd, run.probe))
    raw_s = statistics.median(raw for raw, _ in run.times)
    print(f"{len(run.times)} timed rounds, unscaled median {raw_s:.4f} s", file=sys.stderr)
    return _result(ops, run, {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "wall_s": {"value": _median_scaled(run.times), "unit": "s"},
        "peak_rss_mb": {"value": run.peak_mb, "unit": "MB"},
    })


def measure_traced(workload: str, seed: int, seconds: float) -> dict:
    import tracer
    import workloads

    ops = workloads.build(workload, seed)
    run = _rounds(ops, seconds, tracing=tracer.Tracer)
    units = {name: unit for name, unit, _ in tracer.METRICS}
    per_round = []
    # Times and rates of each traced round go to the reference speed,
    # as the round's own time does.
    for t, (raw, scaled) in zip(run.tracers, run.traced_times):
        k = scaled / raw
        per_round.append({
            name: v * k if units[name] == "s" else v / k if units[name] == "1/s" else v
            for name, v in t.layer_metrics().items()
        })
    # median_low keeps a count an integer when the rounds are even in number
    values = {k: statistics.median_low([r[k] for r in per_round]) for k in per_round[0]}
    values["cli.stdout_bytes"] = sum(
        len(out[1].encode()) for op, out in zip(ops, run.first) if op.cli
    )
    values.update(tracer.import_times(ROOT))
    values["trace.overhead_s"] = _median_scaled(run.traced_times) - _median_scaled(run.times)
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit, _ in tracer.METRICS
    }
    return _result(ops, run, metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("search", "profile", "exact"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # `verify tpr`, `verify zd` and `pal profile` read a default cap from
    # STURM_CAP; the workloads run at the package's own defaults.
    os.environ.pop("STURM_CAP", None)
    _import_program()
    if args.trace:
        result = measure_traced(args.workload, args.seed, args.seconds)
    else:
        result = measure(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
