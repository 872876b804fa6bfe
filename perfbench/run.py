#!/usr/bin/env python3
"""Run one bitmod benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fp3-layer-roundtrip --seed 0 \\
        --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from the
checkout's ``src/`` and the PE oracle from its ``tests/``.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, measured for ``--seconds``; ``--trace 1`` runs a fixed
set of ops untraced and then traced, and reports the per-layer metrics.
The environment, the named metrics and (traced) the spans are also
written under ``.perfbench_out/`` in the checkout.  See README.md.
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
import time
import traceback
from pathlib import Path

# Pinned before numpy loads, and inherited by the set-up probes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("fp3-layer-roundtrip", "gemv-fp3-int6", "simulate-sweep")
# Each set-up sample runs in a fresh process, so lazily built tables and
# import-time work are paid in every sample.
SETUP_SAMPLES = 7
E2E_UNITS = {
    "main_per_s": "1/s",
    "side_a_per_s": "1/s",
    "side_b_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
MAX_LOGGED_FAILURES = 3
COVER_GRACE_S = 60


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def step(self, other):
        self.a += other.a
        self.b += other.b * 0.5


def calibration_loop() -> int:
    """Fixed interpreter-bound work that does not touch bitmod."""
    p, seen, xs = _Point(0, 0.0), {}, []
    for i in range(4000):
        q = _Point(i & 255, float(i))
        p.step(q)
        seen[i & 63] = q
        xs.append(p.a ^ i)
    return p.a + len(xs)


class HostSpeed:
    """Scales host times to a reference host, op by op.

    On a shared 2-CPU VM the host's speed drifted by up to 2x for seconds
    to minutes at a time, so the same op's time moved by 30-70 % between
    runs, whichever statistic of the op times was taken.  A probe
    times ``calibration_loop`` right before and after each op (reusing a
    probe younger than ``MAX_AGE_S``); the op's times are multiplied by
    ``REFERENCE_S`` over the mean probe time.  Values then read as if
    measured on a host where the probe takes ``REFERENCE_S``: this 2-CPU
    host when unloaded.  A change to bitmod moves op times, not the probe.
    """

    REFERENCE_S = 1.5e-3
    MAX_AGE_S = 0.05

    def __init__(self):
        self.last_s = 0.0
        self.taken_at = -math.inf

    def probe(self) -> float:
        if time.perf_counter() - self.taken_at > self.MAX_AGE_S:
            t0 = time.perf_counter()
            calibration_loop()
            t1 = time.perf_counter()
            calibration_loop()
            t2 = time.perf_counter()
            self.last_s, self.taken_at = min(t1 - t0, t2 - t1), t2
        return self.last_s

    def scale(self, before_s: float, after_s: float) -> float:
        return 2 * self.REFERENCE_S / (before_s + after_s)


def bootstrap() -> None:
    """Import bitmod from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "bitmod" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'bitmod'} not found; run from the "
                         "root of a full source checkout")
    sys.path[:0] = [str(src), str(HERE)]
    sys.path.append(str(ROOT / "tests"))  # pe_oracle


def set_up(name: str, seed: int, tiny: bool, speed: HostSpeed):
    """Import, program-side preparation and one untimed warm-up op.

    Returns the workload and the set-up time scaled to the reference host.
    numpy is imported before the clock starts: no bitmod change can move
    its import time, and that time was the noisiest part of a set-up.
    """
    import numpy  # noqa: F401

    before = speed.probe()
    t0 = time.perf_counter()
    import workloads

    w = workloads.WORKLOADS[name](seed, tiny=tiny)
    try:
        w.run(next(iter(w.timed_keys())))
    except Exception:  # noqa: BLE001 - the measured ops count failures
        print(f"warm-up op failed:\n{traceback.format_exc()}", file=sys.stderr)
    elapsed = time.perf_counter() - t0
    w.reset()
    return w, elapsed * speed.scale(before, speed.probe())


class Runner:
    def __init__(self, w, speed: HostSpeed):
        self.w = w
        self.speed = speed
        self.attempted = 0
        self.failed = 0

    def run(self, key) -> None:
        """One op; an exception or failed check counts against it."""
        self.attempted += 1
        before = self.speed.probe()
        try:
            self.w.run(key)
        except Exception:  # noqa: BLE001 - every op failure is counted
            self.w.pending.clear()
            self.failed += 1
            if self.failed <= MAX_LOGGED_FAILURES:
                print(f"op {key!r} failed:\n{traceback.format_exc()}",
                      file=sys.stderr)
            return
        self.w.commit(self.speed.scale(before, self.speed.probe()))


def probe_setup(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-probe"] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def timed_run(runner: Runner, args, setup_s: float) -> dict:
    w = runner.w
    deadline = time.perf_counter() + args.seconds
    for key in w.timed_keys():
        runner.run(key)
        now = time.perf_counter()
        # Past the deadline, go on only until every kind of op has a
        # sample; a kind whose ops all fail gets COVER_GRACE_S more.
        if now >= deadline and (w.covered() or now >= deadline + COVER_GRACE_S):
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples = [setup_s] + [probe_setup(args)
                           for _ in range(1 if args.tiny else SETUP_SAMPLES - 1)]
    values = dict(w.end_to_end(), setup_s=statistics.median(samples),
                  peak_rss_mb=rss_mb)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in E2E_UNITS.items()}


def trace_run(runner: Runner) -> tuple[dict, dict]:
    import workloads
    from tracer import Tracer

    w = runner.w
    keys = list(w.trace_keys())
    for key in keys:
        runner.run(key)
    untraced_s = w.timed_seconds()

    tracer = Tracer()
    for target in workloads.TRACE_TARGETS:
        tracer.wrap(*target)
    w.reset()
    w.tracer = tracer
    tracer.enabled = True
    try:
        for key in keys:
            runner.run(key)
    finally:
        tracer.enabled = False
        tracer.unwrap_all()

    summary = tracer.summary()
    values = w.trace_counters(tracer)
    values["trace.overhead_ratio"] = workloads.ratio(w.timed_seconds(),
                                                     untraced_s) - 1.0
    values["trace.absent_targets"] = len(tracer.absent)
    metrics = {}
    for name, unit in workloads.PER_LAYER_UNITS.items():
        span, _, field = name.rpartition(".")
        if field in ("self_s", "calls"):
            value = summary.get(span, {}).get(field, 0)
        else:
            value = values.get(name, 0)
        metrics[name] = {"value": value, "unit": unit}
    spans = {"absent": tracer.absent, "spans": tracer.spans}
    return metrics, spans


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment(args) -> dict:
    import numpy

    import bitmod

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": bitmod.KERNEL_BACKEND,
        "bitmod_path": str(Path(bitmod.__file__).parent),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": args.seed,
        "seconds": args.seconds,
        "git_commit": git_commit(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the self-test")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap()
    speed = HostSpeed()
    if args.setup_probe:
        _, setup_s = set_up(args.workload, args.seed, args.tiny, speed)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    w, setup_s = set_up(args.workload, args.seed, args.tiny, speed)
    runner = Runner(w, speed)
    spans = None
    if args.trace:
        metrics, spans = trace_run(runner)
    else:
        metrics = timed_run(runner, args, setup_s)
    for name, m in metrics.items():
        if not math.isfinite(m["value"]):
            raise SystemExit(f"error: metric {name} is {m['value']}")

    report = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args),
        "failed_ops_ratio": runner.failed / max(runner.attempted, 1),
    }
    if not args.trace:
        report["named_metrics"] = {
            name: {"value": w.rate(path), "unit": w.named_unit}
            for name, path in w.named.items()}
    result = {"correct": runner.failed == 0 and runner.attempted > 0,
              "attempted": runner.attempted, "failed": runner.failed,
              "metrics": metrics}

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump({**report, "result": result}, fh, indent=1)
    if spans is not None:
        with open(OUT_DIR / f"{stem}-spans.json", "w") as fh:
            json.dump(spans, fh)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
