#!/usr/bin/env python3
"""Fast self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  For every workload, one tiny
untraced run and one tiny traced run must check their outputs with no
failed op and emit exactly the metric names and units that BENCHMARK.json
declares.  A wrapped function that does not exist must be reported as
absent, and the benchmark must refuse to run in a directory that holds
only BENCHMARK.json and the benchmark's own files.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run

RUN = Path(run.__file__).resolve()
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {message}")


def invoke(script: Path, cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=300)


def check_workload(workload: str, trace: int, declared: dict) -> None:
    proc = invoke(RUN, run.ROOT, workload, trace)
    label = f"{workload} --trace {trace}"
    expect(proc.returncode == 0, f"{label} exited {proc.returncode}:\n"
                                 f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(result) == RESULT_KEYS, f"{label}: result keys {set(result)}")
    expect(result["correct"] is True and result["failed"] == 0
           and result["attempted"] >= 1,
           f"{label}: {result['attempted']} attempted, {result['failed']} "
           f"failed, correct={result['correct']}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == declared, f"{label}: metrics {got} != declared {declared}")
    for name, m in result["metrics"].items():
        expect(isinstance(m["value"], (int, float))
               and math.isfinite(m["value"]), f"{label}: {name} = {m}")
    print(f"ok  {label}: {result['attempted']} ops checked")


def check_absent_target() -> None:
    from tracer import Tracer

    tracer = Tracer()
    tracer.wrap("bitmod.pe", "no_such_stage", "pe.no_such_stage")
    tracer.wrap("bitmod.no_such_module", "f", "no_such_module.f")
    expect(tracer.absent == ["pe.no_such_stage", "no_such_module.f"],
           f"absent targets {tracer.absent}")
    print("ok  missing wrap targets are reported absent")


def check_refuses_bare_directory() -> None:
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = invoke(bare / run.HERE.name / RUN.name, bare,
                      run.WORKLOAD_NAMES[0], 0)
    finally:
        shutil.rmtree(bare)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"bare directory run exited {proc.returncode}: {proc.stdout!r}")
    print("ok  refuses to run without the sources")


def main() -> int:
    run.bootstrap()
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect(tuple(w["name"] for w in spec["workloads"]) == run.WORKLOAD_NAMES
           == tuple(workloads.WORKLOADS),
           "BENCHMARK.json, run.WORKLOAD_NAMES and workloads.WORKLOADS "
           "name different workloads")
    declared = {trace: {m["name"]: m["unit"] for m in spec[key]}
                for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    for workload in run.WORKLOAD_NAMES:
        for trace in (0, 1):
            check_workload(workload, trace, declared[trace])
    check_absent_target()
    check_refuses_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
