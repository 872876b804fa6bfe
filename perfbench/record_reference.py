#!/usr/bin/env python3
"""Record the outputs that reference-seed runs are checked against.

    python3 perfbench/record_reference.py

Run from the root of a source checkout.  Writes ``perfbench/reference/``:
the BMOD sha256 and error report of every block of the round-trip tensor,
the digest of every GEMV output for both dtypes, and every SimReport
field of every sweep config.  Re-recording changes what counts as a
correct output, so do it only in a change that re-baselines the benchmark.
"""

import json

import run

run.bootstrap()

import workloads  # noqa: E402  (needs the paths set by bootstrap)

SEED = workloads.REFERENCE_SEED


def roundtrip() -> dict:
    w = workloads.Roundtrip(SEED, use_reference=False)
    return {"seed": SEED, "rows": w.rows, "width": w.width,
            "blocks": [w.run(i) for i in range(w.n_blocks)]}


def gemv() -> dict:
    w = workloads.Gemv(SEED, use_reference=False)
    out = {"seed": SEED, "rows": w.rows, "width": w.width}
    for name in w.DTYPES:
        out[name] = [w.run((name, j))["sha256"] for j in range(w.n_acts)]
    return out


def sweep() -> dict:
    w = workloads.Sweep(SEED, use_reference=False)
    return {"rows": {f"{s}/{n}/{d}": w.run((s, n, d))
                     for s, n, d in w.trace_keys()}}


def main() -> int:
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for record in (sweep, gemv, roundtrip):
        path = workloads.REFERENCE_DIR / f"{record.__name__}.json"
        with open(path, "w") as fh:
            json.dump(record(), fh, indent=1)
            fh.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
