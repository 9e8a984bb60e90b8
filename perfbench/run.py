"""pulsegate benchmark: end-to-end metrics per workload, or a traced per-layer run.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/` tree. `--trace 0` prints the end-to-end metrics named in
BENCHMARK.json, `--trace 1` the per-layer metrics. The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

Lines before it give each metric with its sample count, and a
`determinism` record: a digest of every schedule received plus the
deterministic work counters, identical between runs of the same code and
seed. A per-layer metric whose hook is absent, or that a workload should
reach but never calls, is printed as `missing` and has value null.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One thread: keep numpy's BLAS pool from starting workers.
THREAD_ENV = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(THREAD_ENV)

import program  # noqa: E402  (after the environment is fixed)
import reference  # noqa: E402
import stats  # noqa: E402
from spans import Tracer, totals  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402

SETUP_REPS = 5  # fresh processes (after one warm-up) per setup_s reading
PROCESS_REPS = 5  # fresh `pulsegate.cli compile` processes per cli.process_s reading
WARMUP_TARGETS = 64
MIN_PASSES = 3  # a target's latency is the median of its passes
MAX_MEASURE_S = 150.0  # safety stop for a run that cannot finish MIN_PASSES

# Span hooks, "module.function" in pulsegate: every hook some workload reaches.
HOOKS = sorted(set().union(*(w.target_hooks | w.setup_hooks for w in WORKLOADS.values())))
SETUP_HOOKS = sorted(set().union(*(w.setup_hooks for w in WORKLOADS.values())))

MISSING = None


class Tally:
    """Checks every pass's outputs; keeps the first pass's outcomes and digest."""

    def __init__(self, workload, items):
        self.workload = workload
        self.items = items
        self.attempted = self.failed = self.wrong = 0
        self.first = None
        self.digest = None
        self.nondeterministic = False

    def add(self, outs) -> None:
        outcomes = [self.workload.check(it, o) for it, o in zip(self.items, outs)]
        self.attempted += len(outcomes)
        self.failed += sum(o.failed for o in outcomes)
        self.wrong += sum(o.wrong for o in outcomes)
        d = digest(outcomes)
        if self.first is None:
            self.first, self.digest = outcomes, d
        elif d != self.digest:
            self.nondeterministic = True


def probe_setup(workload: str) -> float:
    """Set-up seconds of one fresh process at reference speed, as timed inside it."""
    r = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload],
        cwd=ROOT, env=os.environ.copy(), capture_output=True, text=True, timeout=120,
    )
    if r.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {r.stderr.strip()}")
    seconds, loop_seconds = (float(x) for x in r.stdout.split()[-2:])
    return seconds * reference.REF_SECONDS / loop_seconds


def setup_seconds(workload: str) -> list[float]:
    probe_setup(workload)  # warm-up: writes bytecode caches
    return [probe_setup(workload) for _ in range(SETUP_REPS)]


def process_seconds() -> float | None:
    """Median wall time of a fresh `python -m pulsegate.cli compile --gate H`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for rep in range(PROCESS_REPS + 1):
        t0 = time.perf_counter()
        r = subprocess.run(
            [sys.executable, "-m", "pulsegate.cli", "compile", "--gate", "H"],
            cwd=ROOT, env=env, capture_output=True, timeout=120,
        )
        elapsed = time.perf_counter() - t0
        if r.returncode != 0:
            return MISSING
        if rep:  # the first is a warm-up
            times.append(elapsed)
    return statistics.median(times)


def load_program(workload):
    pg, state = program.setup(workload.name)
    origin = Path(pg.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise RuntimeError(f"imported pulsegate from {origin}, not from {SRC}")
    return pg, state


def warm_up(workload, pg, state, items) -> None:
    workload.run_pass(pg, state, items[:WARMUP_TARGETS])


def timed_pass(workload, pg, state, items, mark=None):
    """One pass in chunks, with a reference-loop sample between chunks.

    Returns (latencies, pass seconds, outputs, speed scales), the times
    stated at reference speed.
    """
    samples = [reference.sample()]
    chunks = []
    for j in range(0, len(items), workload.chunk):
        offset = None if mark is None else (lambda i, j=j: mark(j + i))
        chunks.append(workload.run_pass(pg, state, items[j:j + workload.chunk], offset))
        samples.append(reference.sample())
    scales = reference.scales(samples)
    lat = array("d")
    outs = []
    for scale, (chunk_lat, chunk_outs, _) in zip(scales, chunks):
        lat.extend(x * scale for x in chunk_lat)
        outs.extend(chunk_outs)
    seconds = math.fsum(scale * wall for scale, (_, _, wall) in zip(scales, chunks))
    return lat, seconds, outs, scales


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quality(outcomes):
    ok = [o for o in outcomes if not o.failed]
    if not ok:
        return math.nan, math.nan, 0
    return (math.fsum(o.distance for o in ok) / len(ok),
            math.fsum(o.pulses for o in ok) / len(ok), len(ok))


def untraced_run(workload, seed: int, seconds: float, workdir: str):
    setups = setup_seconds(workload.name)
    pg, state = load_program(workload)
    items = workload.inputs(seed, state, workdir)
    warm_up(workload, pg, state, items)
    tally = Tally(workload, items)
    passes = []
    rates = []
    speed = []
    started = time.perf_counter()
    while (time.perf_counter() - started < seconds or len(passes) < MIN_PASSES) and \
            time.perf_counter() - started < MAX_MEASURE_S:
        lat, wall, outs, scales = timed_pass(workload, pg, state, items)
        passes.append(lat)
        rates.append(len(lat) / wall)
        speed.extend(scales)
        tally.add(outs)
    loop_ms = reference.REF_SECONDS / statistics.median(speed) * 1e3
    print(f"reference loop: median {loop_ms:.4g} ms; times below are scaled to "
          f"{reference.REF_SECONDS * 1e3:g} ms")
    problems = workload.cross_check(pg, tally.first) if hasattr(workload, "cross_check") else []
    for p in problems:
        print(f"run_sweep mismatch: {p}")
    # Each target's latency is its median over the passes, which drops the
    # stalls a shared machine adds to single calls; percentiles are over targets.
    per_target = sorted(statistics.median(repeats) for repeats in zip(*passes))
    dist, pulses, n_ok = quality(tally.first)
    values = {
        "latency_us_p50": (stats.percentile(per_target, 50) * 1e6, len(per_target)),
        "latency_us_p99": (stats.percentile(per_target, 99) * 1e6, len(per_target)),
        "targets_per_s": (statistics.median(rates), len(rates)),
        "setup_s": (statistics.median(setups), len(setups)),
        "peak_rss_mb": (peak_rss_mb(), 1),
        "dist_mean": (dist, n_ok),
        "pulses_mean": (pulses, n_ok),
        "ok_frac": ((tally.attempted - tally.failed) / tally.attempted, tally.attempted),
    }
    counters = {
        "iterations": sum(o.iterations for o in tally.first),
        "damped_steps": sum(o.damped for o in tally.first),
        "pulses": sum(o.pulses for o in tally.first),
    }
    return tally, values, counters, not problems


class ReportCounters:
    """Work counters read from each traced greedy_compile's CompileReport."""

    FIELDS = ("iterations", "damped_steps", "pre_pass_pulse_count", "post_pass_pulse_count")

    def __init__(self):
        self.sums = dict.fromkeys(self.FIELDS, 0)
        self.broken = False  # the report lost a field: its counters are missing

    def __call__(self, result) -> None:
        try:
            report = result[1]
            for f in self.FIELDS:
                self.sums[f] += getattr(report, f)
        except (TypeError, IndexError, AttributeError):
            self.broken = True


def axes_bytes(pg, counts) -> int | None:
    """Peak bytes traced while building the workload's axis sets."""
    if not counts:
        return 0
    build = getattr(getattr(pg, "greedy", None), "allowed_axes", None)
    if build is None:
        return MISSING
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        kept = [build(n) for n in counts]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del kept
    return peak - base


def traced_run(workload, seed: int, seconds: float, workdir: str):
    pg, state = load_program(workload)
    tracer = Tracer()
    setup_fn = program.SETUPS[workload.name][1]
    setup_self = {h: [] for h in SETUP_HOOKS}
    for _ in range(SETUP_REPS):
        first = len(tracer)
        tracer.install(HOOKS)
        try:
            setup_fn(pg)
        finally:
            tracer.uninstall()
        rep = totals(tracer, first)
        for h in SETUP_HOOKS:
            setup_self[h].append(rep.get(h, (0, 0))[1])
    setup_calls = totals(tracer)
    n_bytes = axes_bytes(pg, workload.axes_counts(pg))

    items = workload.inputs(seed, state, workdir)
    warm_up(workload, pg, state, items)
    tally = Tally(workload, items)
    counters = ReportCounters()
    first_pass = None
    tot: dict[str, list[int]] = {}  # per hook over traced passes: calls, self ns, inclusive ns
    plain_rates, traced_rates = [], []
    started = time.perf_counter()
    while time.perf_counter() - started < seconds or not traced_rates:
        _, wall, outs, _ = timed_pass(workload, pg, state, items)
        plain_rates.append(len(items) / wall)
        tally.add(outs)
        start = len(tracer)
        tracer.install(HOOKS, {"greedy.greedy_compile": counters})
        try:
            _, wall, outs, _ = timed_pass(workload, pg, state, items, tracer.set_target)
        finally:
            tracer.uninstall()
        traced_rates.append(len(items) / wall)
        tally.add(outs)
        pass_totals = totals(tracer, start)
        for hook, row in pass_totals.items():
            tot[hook] = [a + b for a, b in zip(tot.get(hook, (0, 0, 0)), row)]
        if first_pass is None:
            first_pass = (pass_totals, dict(counters.sums), start, len(tracer))
        else:  # keep the set-up and first traced pass's spans; later ones are summed
            tracer.truncate(start)
    problems = workload.cross_check(pg, tally.first) if hasattr(workload, "cross_check") else []
    for p in problems:
        print(f"run_sweep mismatch: {p}")

    n = len(items) * len(traced_rates)
    values: dict[str, tuple] = {}
    for hook in HOOKS:
        reached = hook in workload.target_hooks
        row = tot.get(hook)
        if hook in tracer.missing or (row is None and reached):
            calls = self_us = MISSING
        elif row is None:
            calls = self_us = 0.0
        else:
            calls, self_us = row[0] / n, row[1] / 1e3 / n
        values[f"{hook}.calls"] = (calls, n)
        values[f"{hook}.self_us"] = (self_us, n)
    for hook in SETUP_HOOKS:  # set-up layers: microseconds per workload set-up
        reached = hook in workload.setup_hooks
        if hook in tracer.missing or (reached and hook not in setup_calls):
            value = MISSING
        else:
            value = statistics.median(setup_self[hook]) / 1e3
        values[f"{hook}.self_us"] = (value, SETUP_REPS)
    values["greedy.allowed_axes.bytes"] = (n_bytes, 1)

    def ratio(num, den):
        return MISSING if num is MISSING or den is MISSING or not den else num / den

    greedy_ok = "greedy.greedy_compile" not in tracer.missing and not counters.broken
    s = counters.sums
    values["greedy.iterations"] = (s["iterations"] / n if greedy_ok else MISSING, n)
    values["greedy.damped_steps"] = (s["damped_steps"] / n if greedy_ok else MISSING, n)
    values["greedy.accept_ratio"] = (
        ratio(values["greedy.iterations"][0], values["greedy.best_axis_step.calls"][0]), n)
    step, compile_ = tot.get("greedy.best_axis_step"), tot.get("greedy.greedy_compile")
    values["greedy.best_axis_step.share"] = (
        ratio(step[1] if step else MISSING, compile_[2] if compile_ else MISSING), n)
    values["ir.merge_ratio"] = (
        ratio(s["post_pass_pulse_count"] if greedy_ok else MISSING,
              s["pre_pass_pulse_count"] if greedy_ok else MISSING), n)
    values["cli.process_s"] = (
        process_seconds() if "cli.main" in workload.target_hooks else 0.0, PROCESS_REPS)
    values["trace.overhead_frac"] = (
        1.0 - statistics.median(traced_rates) / statistics.median(plain_rates), len(traced_rates))

    calls0, sums0, span_first, span_last = first_pass
    record_counters = {f"{h}.calls": c for h, (c, _, _) in sorted(calls0.items())}
    record_counters.update({f"greedy.{k}": v for k, v in sums0.items()})
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload.name}.tsv", span_first, span_last)
    return tally, values, record_counters, not problems


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pulsegate" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        run = traced_run if args.trace else untraced_run
        tally, values, counters, cross_ok = run(workload, args.seed, args.seconds, workdir)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value, count = values.get(m["name"], (MISSING, 0))
        if value is not MISSING and not math.isfinite(value):  # e.g. a mean over no targets
            value = MISSING
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        shown = "missing" if value is MISSING else f"{value:.6g} {m['unit']}"
        print(f"metric {m['name']} = {shown} (n={count}, {m['better']} is better)")
    record = {"workload": workload.name, "seed": args.seed, "digest": tally.digest,
              "counters": counters}
    print("determinism " + json.dumps(record, sort_keys=True))
    correct = tally.wrong == 0 and not tally.nondeterministic and cross_ok
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
