"""Command-line front end.

Subcommands: gen, quant-eval, bitserial-check, simulate, pack, unpack.
Exit codes: 0 success, 1 partial failure, 2 usage error.

Every output file embeds the resolved run configuration and the tool
version, so a result can always be traced back to its inputs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import fields, replace
from fractions import Fraction
from importlib import resources

import numpy as np

from . import KERNEL_BACKEND, __version__
from . import archsim, packfile, synth
from .bitserial import (
    SpecialValueRegister,
    booth_encode,
    encode_weight,
    term_value_sum,
)
from .dtype import DataType, GroupingConfig, effective_grid, spec_for
from .errors import BitmodError, ConfigError, TooManySetBits
from .quant import (
    dequantize_tensor,
    error_report,
    memory_footprint_bits,
    quantize_tensor,
)

SIM_COLUMNS = [
    "workload", "dtype", "bits_per_weight", "compute_cycles", "dram_cycles",
    "total_cycles", "weight_bytes", "activation_bytes", "energy_compute_J",
    "energy_sram_J", "energy_dram_J", "speedup_vs_baseline",
]


def _resolved_config(args: argparse.Namespace) -> dict:
    cfg = {k: v for k, v in vars(args).items() if k != "func"}
    cfg["version"] = __version__
    cfg["kernel_backend"] = KERNEL_BACKEND
    return cfg


def _emit_rows(rows: list[dict], columns: list[str], args) -> None:
    cfg = _resolved_config(args)
    if args.format == "json":
        payload = json.dumps({"config": cfg, "rows": rows}, indent=2,
                             sort_keys=True, default=str)
    else:
        buf = io.StringIO()
        buf.write(f"# bitmod {__version__}\n")
        buf.write(f"# config: {json.dumps(cfg, sort_keys=True, default=str)}\n")
        writer = csv.DictWriter(buf, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        payload = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload if payload.endswith("\n") else payload + "\n")


def _load_npy(path: str) -> np.ndarray:
    arr = np.load(path, allow_pickle=False)
    if arr.dtype == np.float16:
        arr = arr.astype(np.float32)
    if arr.dtype != np.float32:
        raise ValueError(f"{path}: expected float32/float16, got {arr.dtype}")
    if arr.ndim != 2:
        raise ValueError(f"{path}: expected a 2-D tensor, got shape {arr.shape}")
    if 0 in arr.shape:
        raise ValueError(f"{path}: tensor is empty, shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{path}: tensor contains NaN/Inf")
    return arr


def _dtype_list(value: str) -> list[DataType]:
    return [spec_for(name).name for name in value.split(",") if name]


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    k, d = args.shape
    arr = synth.sample(args.dist, (k, d), seed=args.seed)
    np.save(args.out, arr)
    print(f"wrote {args.out}: {args.dist} {k}x{d} (seed {args.seed})")
    return 0


# ---------------------------------------------------------------------------
# quant-eval
# ---------------------------------------------------------------------------

QUANT_COLUMNS = [
    "tensor", "dtype", "mse", "normalized_error", "max_abs_error",
    "bits_per_weight", "sv_count_0", "sv_count_1", "sv_count_2", "sv_count_3",
]


def cmd_quant_eval(args) -> int:
    rows = []
    failures = 0
    for path in args.tensors:
        try:
            tensor = _load_npy(path)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            failures += 1
            continue
        grouping = GroupingConfig(group_size=args.group_size)
        for dt in args.dtypes:
            spec = spec_for(dt)
            channels = quantize_tensor(tensor, spec, grouping)
            deq = dequantize_tensor(channels)[:, : tensor.shape[1]]
            rep = error_report(tensor, deq)
            hist = [0, 0, 0, 0]
            if spec.is_bitmod:
                hist = np.bincount(np.concatenate(
                    [cq.sv_index for cq in channels]), minlength=4).tolist()
            rows.append({
                "tensor": path,
                "dtype": str(spec.name),
                "mse": rep.mse,
                "normalized_error": rep.normalized_error,
                "max_abs_error": rep.max_abs_error,
                "bits_per_weight": float(memory_footprint_bits(spec, grouping)),
                "sv_count_0": hist[0], "sv_count_1": hist[1],
                "sv_count_2": hist[2], "sv_count_3": hist[3],
            })
    rows.sort(key=lambda r: (r["tensor"], r["dtype"]))
    _emit_rows(rows, QUANT_COLUMNS, args)
    if failures == len(args.tensors):
        return 1
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# bitserial-check
# ---------------------------------------------------------------------------

def _check_int(spec) -> tuple[int, int, list[str]]:
    bits = spec.bits_per_code
    qmax = (1 << (bits - 1)) - 1
    ok = bad = 0
    msgs = []
    for value in range(-qmax - 1, qmax + 1):
        if term_value_sum(booth_encode(value, bits)) == value:
            ok += 1
        else:
            bad += 1
            msgs.append(f"{spec.name} code {value}: term sum mismatch")
    return ok, bad, msgs


def _check_fp(spec, svreg) -> tuple[int, int, list[str]]:
    ok = bad = 0
    msgs = []
    n_sv = max(1, len(spec.special_values))
    n_codes = len(effective_grid(spec, 0))
    for code in range(n_codes):
        exact = True
        for sv_index in range(n_sv):
            grid = effective_grid(spec, sv_index)
            try:
                terms = encode_weight(code, spec, svreg, sv_index)
            except TooManySetBits as exc:
                msgs.append(f"{spec.name} sv {sv_index} code {code}: {exc}")
                exact = False
                continue
            if term_value_sum(terms) != grid[code]:
                msgs.append(
                    f"{spec.name} sv {sv_index} code {code}: "
                    f"{term_value_sum(terms)} != {grid[code]}"
                )
                exact = False
        if exact:
            ok += 1
        else:
            bad += 1
    return ok, bad, msgs


def cmd_bitserial_check(args) -> int:
    checks = []
    for name in ("INT8_SYM", "INT6_SYM"):
        checks.append((spec_for(name), None))
    for name in ("FP4_BITMOD", "FP3_BITMOD"):
        spec = spec_for(name)
        svreg = SpecialValueRegister.program(spec)
        if args.sv_override is not None:
            values = list(spec.special_values)
            values[0] = Fraction(args.sv_override)
            svreg = SpecialValueRegister(values)
        checks.append((spec, svreg))
    total_ok = total = 0
    all_msgs = []
    for spec, svreg in checks:
        if spec.is_fp:
            ok, bad, msgs = _check_fp(spec, svreg)
        else:
            ok, bad, msgs = _check_int(spec)
        total_ok += ok
        total += ok + bad
        all_msgs.extend(msgs)
    for msg in all_msgs:
        print(msg, file=sys.stderr)
    print(f"{total_ok}/{total} codes exact")
    return 0 if total_ok == total else 1


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _load_arch_config(path: str | None) -> archsim.ArchConfig:
    if not path:
        return archsim.ArchConfig()
    with open(path) as fh:
        try:
            overrides = json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    if not isinstance(overrides, dict):
        raise ConfigError(f"{path}: expected a JSON object of ArchConfig keys")
    unknown = set(overrides) - {f.name for f in fields(archsim.ArchConfig)}
    if unknown:
        raise ConfigError(f"{path}: unknown ArchConfig keys {sorted(unknown)}")
    return replace(archsim.ArchConfig(), **overrides)


def _load_workload(path: str, args) -> archsim.WorkloadSpec:
    bundled = resources.files("bitmod.shapes").joinpath(f"{path}.shape")
    if bundled.is_file():
        text = bundled.read_text()
    else:
        with open(path) as fh:
            text = fh.read()
    w = archsim.profile_shapes(text)
    return replace(w, prefill_tokens=args.prefill_tokens,
                   decode_tokens=args.decode_tokens)


def _sim_row(workload, spec_name, bits, rep) -> dict:
    return {
        "workload": workload, "dtype": spec_name,
        "bits_per_weight": float(bits),
        "compute_cycles": rep.compute_cycles,
        "dram_cycles": rep.dram_cycles,
        "total_cycles": rep.total_cycles,
        "weight_bytes": rep.weight_bytes,
        "activation_bytes": rep.activation_bytes,
        "energy_compute_J": rep.energy.compute_j,
        "energy_sram_J": rep.energy.sram_j,
        "energy_dram_J": rep.energy.dram_j,
        "speedup_vs_baseline": rep.speedup_vs_baseline,
    }


def cmd_simulate(args) -> int:
    try:
        workload = _load_workload(args.shape_file, args)
    except (OSError, BitmodError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    cfg = _load_arch_config(args.config)
    grouping = GroupingConfig(group_size=args.group_size)
    baseline = archsim.baseline_fp16_sim(workload, cfg)
    baseline.speedup_vs_baseline = 1.0
    rows = [_sim_row(workload.name, "FP16_BASELINE",
                     archsim.FP16_BITS_PER_WEIGHT, baseline)]
    for dt in args.dtypes:
        spec = spec_for(dt)
        rep = archsim.simulate_workload(workload, spec, grouping, cfg)
        archsim.with_speedup(rep, baseline)
        rows.append(_sim_row(workload.name, str(spec.name),
                             memory_footprint_bits(spec, grouping), rep))
    _emit_rows(rows, SIM_COLUMNS, args)
    # Weight-vs-activation DRAM traffic summary.
    for row in rows:
        ratio = (row["weight_bytes"] / row["activation_bytes"]
                 if row["activation_bytes"] else float("inf"))
        print(f"{row['dtype']:>14}: weight {row['weight_bytes']:.3e} B, "
              f"activation {row['activation_bytes']:.3e} B "
              f"(ratio {ratio:.1f}x)", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# pack / unpack
# ---------------------------------------------------------------------------

def cmd_pack(args) -> int:
    try:
        tensor = _load_npy(args.tensor)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    spec = spec_for(args.dtype)
    grouping = GroupingConfig(group_size=args.group_size)
    channels = quantize_tensor(tensor, spec, grouping)
    data = packfile.pack(channels, grouping, tensor.shape[1])
    with open(args.out, "wb") as fh:
        fh.write(data)
    print(f"wrote {args.out}: {len(data)} bytes "
          f"({float(memory_footprint_bits(spec, grouping)):.4f} bits/weight)")
    return 0


def cmd_unpack(args) -> int:
    with open(args.file, "rb") as fh:
        data = fh.read()
    tensor = packfile.unpack_to_tensor(data).astype(np.float32)
    np.save(args.out, tensor)
    print(f"wrote {args.out}: shape {tensor.shape}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _int_at_least(value: str, lo: int) -> int:
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {value!r}") from None
    if n < lo:
        raise argparse.ArgumentTypeError(f"must be >= {lo}, got {n}")
    return n


def _positive_int(value: str) -> int:
    return _int_at_least(value, 1)


def _nonnegative_int(value: str) -> int:
    return _int_at_least(value, 0)


def _shape_pair(value: str):
    try:
        k, d = value.lower().split("x")
        return int(k), int(d)
    except ValueError:
        raise argparse.ArgumentTypeError("shape must look like 1024x1024")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="bitmod",
                                description="Per-group adaptive quantization "
                                            "and bit-serial accelerator model")
    p.add_argument("--version", action="version",
                   version=f"bitmod {__version__} "
                           f"(kernel backend: {KERNEL_BACKEND})")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, fmt=True):
        sp.add_argument("--out", default=None, help="output path")
        if fmt:
            sp.add_argument("--format", choices=("csv", "json"), default="csv")

    g = sub.add_parser("gen", help="generate a synthetic tensor (NPY)")
    g.add_argument("--dist", choices=synth.DISTRIBUTIONS, default="gaussian")
    g.add_argument("--shape", type=_shape_pair, default=(1024, 1024))
    g.add_argument("--seed", type=int, default=synth.DEFAULT_SEED)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    q = sub.add_parser("quant-eval", help="quantization error report")
    q.add_argument("tensors", nargs="+", help="NPY tensor files")
    q.add_argument("--dtype", dest="dtypes", type=_dtype_list,
                   default=[DataType.FP3_BITMOD, DataType.FP3_BASIC],
                   help="comma-separated data types")
    q.add_argument("--group-size", type=_positive_int, default=128)
    common(q)
    q.set_defaults(func=cmd_quant_eval)

    b = sub.add_parser("bitserial-check",
                       help="exhaustive term-reconstruction check")
    b.add_argument("--sv-override", type=int, default=None,
                   help="mis-program the first FP special value (diagnostics)")
    b.set_defaults(func=cmd_bitserial_check)

    s = sub.add_parser("simulate", help="accelerator cycle/energy simulation")
    s.add_argument("shape_file",
                   help="shape file path or bundled name (toy, opt-1.3b, "
                        "llama-2-7b)")
    s.add_argument("--dtype", dest="dtypes", type=_dtype_list,
                   default=[DataType.INT6_SYM],
                   help="comma-separated data types")
    s.add_argument("--group-size", type=_positive_int, default=128)
    s.add_argument("--prefill-tokens", type=_nonnegative_int, default=256)
    s.add_argument("--decode-tokens", type=_nonnegative_int, default=0)
    s.add_argument("--config", default=None, help="JSON ArchConfig overrides")
    common(s)
    s.set_defaults(func=cmd_simulate)

    pk = sub.add_parser("pack", help="quantize a tensor into a BMOD file")
    pk.add_argument("tensor", help="NPY tensor file")
    pk.add_argument("--dtype", default="FP3_BITMOD")
    pk.add_argument("--group-size", type=_positive_int, default=128)
    pk.add_argument("--out", required=True)
    pk.set_defaults(func=cmd_pack)

    up = sub.add_parser("unpack", help="dequantize a BMOD file to NPY")
    up.add_argument("file", help="BMOD file")
    up.add_argument("--out", required=True)
    up.set_defaults(func=cmd_unpack)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (BitmodError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
