"""fedgm benchmark: four protocol workloads, end-to-end and per-layer metrics.

Run from the root of a fedgm checkout:

    python3 perfbench/run.py --workload dg-moons-gm --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 15 --trace 0

With ``--trace 0`` one process sets up the workload, warms up, then calls the
protocol repeatedly for about ``--seconds`` and reports the end-to-end
metrics of BENCHMARK.json (set-up time, run time, SGD rows per second,
headline accuracy, peak memory). Set-up and run times are wall times scaled
to a reference machine speed (see SpeedRef); the unscaled wall times are
printed too. With ``--trace 1`` it alternates untraced
and traced protocol calls and reports the per-layer metrics, the tracing
overhead and the dispatch floor; the spans are written to
``.bench_out/trace-<workload>-seed<seed>.json``. When the floor's bare step
cannot reproduce the engine's tape (other op tags, tape layout or numerics),
the two floor metrics are left out and the reason is printed; that is not a
failed run.

Every protocol call passes the result gate in workloads.py; a failed gate
makes the run exit with code 1. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_SLICE_S = 0.1
SETUP_MIN_PER_SLICE = 2
# Median time of one SpeedRef chunk on the machine the bounds were set on
# (Intel Xeon, 2 cores, CPython 3.11, numpy 2.4). Timings are scaled by
# REF_CHUNK_S / (chunk time measured around them).
REF_CHUNK_S = 580e-6
FLOOR_REPS = 400
MIN_PAIRS = 2


def _checkout_problem() -> str | None:
    for rel in ("BENCHMARK.json", "src/fedgm/__init__.py", "results/directional.json"):
        if not (ROOT / rel).is_file():
            return f"{rel} not found under {ROOT}; run from the root of a fedgm checkout"
    return None


# --- environment block ---------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    import numpy as np

    info = {"vendor": "unknown", "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    # ask a loaded OpenBLAS for its thread count; fall back to the env vars
    try:
        import ctypes

        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ln.split()[-1].startswith("/")})
        for path in libs:
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    fn.argtypes = []
                    info["threads"] = int(fn())
                    return info
    except OSError:
        pass
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if var in os.environ:
            info["threads"] = os.environ[var]
            break
    return info


def _git_commit() -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None  # not a git tree, or one that only encloses this checkout
    return lines[1]


def environment(load_at_start) -> dict:
    import numpy as np

    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": np.__version__,
        "blas": _blas(),
        "load_avg_at_start": list(load_at_start),
        "ref_chunk_us_at_start": SpeedRef().chunk_s() * 1e6,
        "git_commit": _git_commit(),
    }


# --- statistics -------------------------------------------------------------------


def tail(values: list[float]) -> tuple[int, float] | None:
    """Highest percentile with at least ten samples beyond it, as (p, value)."""
    n = len(values)
    if n < 11:
        return None
    k = n - 10  # 1-based rank of the order statistic with ten samples above it
    return math.floor(100 * k / n), sorted(values)[k - 1]


def _fmt(v: float) -> str:
    return f"{v:.6g}"


# --- trace 0: end-to-end ------------------------------------------------------------


class SpeedRef:
    """Machine speed, read from a fixed numpy kernel mix at the program's
    array sizes (16x32 by 32x32 matmul, relu, sum).

    On a shared host the CPU's speed swings by up to 1.6x over seconds to
    minutes, which moves every timing of a run together. Times scaled by
    REF_CHUNK_S / (this kernel's time measured around them) keep the
    program's own cost and cancel most of the swing. The kernel is part of
    the benchmark, so no change to fedgm can speed it up or slow it down.
    """

    CHUNKS = 15

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._x = rng.normal(size=(16, 32))
        self._w = rng.normal(size=(32, 32))

    def chunk_s(self) -> float:
        """Median time of one chunk of 100 kernel rounds, in seconds."""
        np, x, w = self._np, self._x, self._w
        times = []
        for _ in range(self.CHUNKS):
            t0 = perf_counter()
            for _ in range(100):
                np.maximum(x @ w, 0.0).sum()
            times.append(perf_counter() - t0)
        return statistics.median(times)


class SetupTimer:
    """Set-up time (generation, split, init), sampled between protocol calls.

    Spreading the samples over the whole run exposes set-up to the same
    machine-speed swings as the protocol calls, instead of to one second.
    """

    def __init__(self, wl, seeds):
        from workloads import setup_once

        self._setup_once = setup_once
        self.wl = wl
        self.seeds = seeds
        self.splits = {s: setup_once(wl.config(s)) for s in seeds}  # warm-up
        self.times: list[float] = []

    def sample(self, scale: float) -> None:
        t_slice = perf_counter()
        n = 0
        while n < SETUP_MIN_PER_SLICE or perf_counter() - t_slice < SETUP_SLICE_S:
            cfg = self.wl.config(self.seeds[len(self.times) % len(self.seeds)])
            t0 = perf_counter()
            self._setup_once(cfg)
            self.times.append((perf_counter() - t0) * scale)
            n += 1


class Runner:
    """Protocol calls of one invocation, each gated and counted."""

    def __init__(self, wl, gate):
        self.wl = wl
        self.gate = gate
        self.attempted = 0
        self.failed = 0

    def call(self, seed, protocol=None):
        """Run one seed; returns (table, seconds, config) or None on failure."""
        cfg = self.wl.config(seed)
        self.attempted += 1
        try:
            if protocol is None:
                t0 = perf_counter()
                table = self.wl.protocol(cfg)
                dt = perf_counter() - t0
            else:
                table, dt = protocol(cfg)
        except Exception:  # a diverging or crashing run is a counted failure
            self.failed += 1
            print(f"run failed: workload {self.wl.name} seed {seed}", file=sys.stderr)
            traceback.print_exc()
            return None
        problems = self.gate.check(seed, cfg, table)
        if problems:
            self.failed += 1
            for p in problems:
                print(f"result gate: {self.wl.name}: {p}", file=sys.stderr)
            return None
        return table, dt, cfg


def end_to_end(wl, seeds, runner, seconds) -> dict:
    from workloads import sgd_rows

    speed = SpeedRef()
    setup = SetupTimer(wl, seeds)
    wl.protocol(wl.warmup_config(seeds[0]))

    wall_s: list[float] = []
    run_s: list[float] = []
    rows_per_s: list[float] = []
    ref_before = speed.chunk_s()
    t_start = perf_counter()
    k = 0
    while k < 2 * len(seeds) or (
        wall_s and perf_counter() - t_start + statistics.median(wall_s) <= seconds
    ):
        seed = seeds[k % len(seeds)]
        k += 1
        setup.sample(REF_CHUNK_S / ref_before)
        got = runner.call(seed)
        ref_after = speed.chunk_s()
        if got is not None:
            table, dt, cfg = got
            wall_s.append(dt)
            run_s.append(dt * 2 * REF_CHUNK_S / (ref_before + ref_after))
            rows_per_s.append(sgd_rows(wl, cfg, setup.splits[seed], table) / run_s[-1])
        ref_before = ref_after
    if not run_s:
        return {}

    accs = [runner.gate.observed[s]["accuracy"] for s in seeds if s in runner.gate.observed]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = statistics.median(setup.times)
    metrics = {
        "setup_s": setup_s,
        "run_s": statistics.median(run_s),
        "rows_per_s": statistics.median(rows_per_s),
        "final_acc": math.fsum(accs) / len(accs),
        "peak_rss_mb": peak_mb,
    }
    t = tail(run_s)
    print(f"  setup_s      {_fmt(setup_s)} s  (median of {len(setup.times)} set-ups)")
    print(
        f"  run_s        {_fmt(metrics['run_s'])} s  (at reference speed; median of {len(run_s)} runs; "
        + (f"p{t[0]} = {_fmt(t[1])} s)" if t else "no percentile has ten runs beyond it)")
    )
    print(f"  runs         {' '.join(_fmt(v) for v in run_s)} s")
    print(f"  wall         {' '.join(_fmt(v) for v in wall_s)} s  (unscaled; median {_fmt(statistics.median(wall_s))} s)")
    print(f"  rows_per_s   {_fmt(metrics['rows_per_s'])} rows/s")
    print(f"  final_acc    {_fmt(metrics['final_acc'])}  (mean over seeds {seeds[0]}..{seeds[-1]})")
    print(f"  failed_frac  {_fmt(runner.failed / max(runner.attempted, 1))}  ({runner.failed} of {runner.attempted} runs)")
    print(f"  peak_rss_mb  {_fmt(peak_mb)} MiB")
    return metrics


# --- trace 1: per layer -------------------------------------------------------------


def per_layer(wl, seeds, runner, seconds, out_path) -> dict:
    from tracing import SPAN_TARGETS, Tracer

    tracer = Tracer()
    wl.protocol(wl.warmup_config(seeds[0]))

    def traced(cfg):
        return tracer.traced_run(wl.protocol, cfg)

    plain_s: list[float] = []
    traced_s: list[float] = []
    summaries: list[dict] = []
    t_start = perf_counter()
    k = 0
    while k < MIN_PAIRS or (
        traced_s and perf_counter() - t_start + statistics.median(plain_s) + statistics.median(traced_s) <= seconds
    ):
        seed = seeds[k % len(seeds)]
        order = ("plain", "traced") if k % 2 == 0 else ("traced", "plain")
        k += 1
        for side in order:
            if side == "plain":
                got = runner.call(seed)
                if got is not None:
                    plain_s.append(got[1])
            else:
                got = runner.call(seed, traced)
                if got is not None:
                    traced_s.append(got[1])
                    summaries.append(tracer.summarize(tracer.run))
    if not summaries or not plain_s:
        return {}

    bad_cover = [s["trace.self_sum_error_s"] for s in summaries if s["trace.self_sum_error_s"] > 1e-6]
    if bad_cover:
        runner.failed += 1
        print(f"tracer: span self times miss the run time by {max(bad_cover):.3g} s", file=sys.stderr)

    metrics = {name: statistics.median(s[name] for s in summaries) for name in summaries[0]}
    del metrics["trace.self_sum_error_s"]
    metrics["trace.overhead_frac"] = statistics.median(traced_s) / statistics.median(plain_s) - 1.0

    floor_metrics, floor_problem = dispatch_floor(tracer, metrics["trace.step_us_p50"])
    metrics.update(floor_metrics)

    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(out_path)
    if tracer.missing:
        print(f"  not traced (attribute not found): {sorted(tracer.missing)}")
    run_s = metrics["trace.run_s"]
    print(f"  traced runs {len(summaries)}, untraced {len(plain_s)}; overhead {metrics['trace.overhead_frac']:+.3f}")
    print(f"  steady-state step: {metrics['autodiff.ops_per_step']} ops, {_fmt(metrics['trace.step_us_p50'])} us traced")
    if floor_problem:
        print(f"  dispatch floor not available, its metrics are left out: {floor_problem}")
    else:
        print(f"  dispatch floor {_fmt(metrics['autodiff.floor_us_per_step'])} us, "
              f"dispatch share {_fmt(metrics['autodiff.dispatch_share'])}")
    print(f"  self time of traced run_s = {_fmt(run_s)} s:")
    rows = [(m, metrics[f"{m}.self_s"]) for m in SPAN_TARGETS] + [("federation.residual_s", metrics["federation.residual_s"])]
    for name, val in sorted(rows, key=lambda r: -r[1]):
        print(f"    {name:32s} {_fmt(val):>10s} s  {100 * val / run_s:5.1f} %")
    print(f"  spans written to {out_path.relative_to(ROOT)}")
    return metrics


def dispatch_floor(tracer, step_us: float) -> tuple[dict, str | None]:
    """Floor metrics of the captured step, or ({}, reason) when the bare step
    cannot stand in for it: an engine with another tape layout or op tags,
    or other numerics, is a change to measure, not a failed run."""
    import floor

    if tracer.captured is None:
        return {}, tracer.capture_problem or "no post-round-1 step was traced"
    tape, loss, grads = tracer.captured
    try:
        step, _ = floor.build_step(tape, loss)
        problems = floor.verify(step, tape, grads)
    except Exception as exc:  # a tape this module cannot read
        return {}, f"cannot build the bare step: {exc!r}"
    if problems:
        return {}, f"bare step does not reproduce the engine: {problems[0]} ({len(problems)} differences)"
    if step_us <= 0:
        return {}, "no traced step time"
    floor.floor_us(step, FLOOR_REPS // 4)  # warm-up
    f_us = floor.floor_us(step, FLOOR_REPS)
    return {"autodiff.floor_us_per_step": f_us, "autodiff.dispatch_share": 1.0 - f_us / step_us}, None


# --- entry point ------------------------------------------------------------------------


def run_one(args, load_at_start) -> int:
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    expected = workloads.committed_expectations(ROOT / "results" / "directional.json")[wl.name]
    seeds = [args.seed + k for k in range(wl.window)]
    print(json.dumps({"environment": environment(load_at_start)}, sort_keys=True))
    print(f"workload {wl.name}: protocol seeds {seeds[0]}..{seeds[-1]}, trace {args.trace}")
    runner = Runner(wl, workloads.ResultGate(wl, expected))
    if args.trace:
        out_path = OUT_DIR / f"trace-{wl.name}-seed{args.seed}.json"
        metrics = per_layer(wl, seeds, runner, args.seconds, out_path)
    else:
        metrics = end_to_end(wl, seeds, runner, args.seconds)
    if not metrics:
        print("error: no protocol run succeeded", file=sys.stderr)
        return 1
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    unlisted = sorted(set(metrics) - {m["name"] for m in listed})
    if unlisted:
        print(f"warning: metrics not in BENCHMARK.json are left out: {unlisted}", file=sys.stderr)
    ok = runner.failed == 0
    print(
        json.dumps(
            {
                "correct": ok,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                            for m in listed if m["name"] in metrics},
            }
        )
    )
    return 0 if ok else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb stays per workload."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: workload {name} printed no result (exit {proc.returncode})", file=sys.stderr)
            return 1
        combined["correct"] &= bool(result["correct"]) and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    load_at_start = os.getloadavg()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    problem = _checkout_problem()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import fedgm

    if Path(fedgm.__file__).resolve().parent != ROOT / "src" / "fedgm":
        print(f"error: imported fedgm from {fedgm.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)} or 'all'",
              file=sys.stderr)
        return 2
    return run_one(args, load_at_start)


if __name__ == "__main__":
    sys.exit(main())
