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
import math
import os
import sys
import tokenize
import warnings
from dataclasses import asdict, fields, replace
from fractions import Fraction
from functools import partial
from importlib import resources

import numpy as np

from . import KERNEL_BACKEND, __version__
from . import archsim, packfile, synth
from .bitserial import encode_weight, term_value_sum
from .dtype import DataType, GroupingConfig, spec_for
from .errors import (BitmodError, ConfigError, FormatError, ParseError,
                     TooManySetBits, UnrepresentableValue, UnsupportedDtype)
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
        writer.writerows(rows)
        payload = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload if payload.endswith("\n") else payload + "\n")


def _load_npy(path: str) -> np.ndarray:
    """Read a 2-D float32 or float16 NPY file as float32.

    The header is checked before the array is read, so a shape the bytes
    after it cannot hold allocates nothing; every refusal is one
    :class:`FormatError` that names the file.
    """
    fmt = np.lib.format
    with open(path, "rb") as fh:
        try:
            version = fmt.read_magic(fh)
            if version not in ((1, 0), (2, 0), (3, 0)):
                raise ValueError(f"unknown version {version}")
            # Version 3 differs from 2 only in the header's text encoding,
            # UTF-8 for latin-1, which agree on ASCII headers.
            read = (fmt.read_array_header_1_0 if version == (1, 0)
                    else fmt.read_array_header_2_0)
            shape, fortran_order, dtype = read(fh)
        except (ValueError, tokenize.TokenError) as exc:
            reason = str(exc).partition("\n")[0]
            raise FormatError(f"{path}: not an NPY file ({reason})") from None
        if dtype not in (np.float16, np.float32):
            raise FormatError(f"{path}: expected float32/float16, got {dtype}")
        # numpy's header check takes a bool for an int.
        if len(shape) != 2 or any(isinstance(n, bool) for n in shape):
            raise FormatError(f"{path}: expected a 2-D tensor, got shape "
                              f"{shape}")
        if min(shape) < 0:
            raise FormatError(f"{path}: NPY header's shape {shape} has a "
                              "negative dimension")
        if 0 in shape:
            raise FormatError(f"{path}: tensor is empty, shape {shape}")
        count = math.prod(shape)
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if count * dtype.itemsize > left:
            raise FormatError(f"{path}: NPY header's shape {shape} does not "
                              f"fit the {left} bytes after it")
        arr = np.fromfile(fh, dtype=dtype, count=count)
    arr = arr.reshape(shape, order="F" if fortran_order else "C")
    if not np.all(np.isfinite(arr)):
        raise FormatError(f"{path}: tensor contains NaN/Inf")
    return arr.astype(np.float32, copy=False)


def _dtype_name(value: str) -> DataType:
    try:
        return spec_for(value).name
    except UnsupportedDtype as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _dtype_list(value: str) -> list[DataType]:
    names = [_dtype_name(name) for name in value.split(",") if name]
    if not names:
        raise argparse.ArgumentTypeError("expected at least one data type")
    return names


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    k, d = args.shape
    try:
        arr = synth.sample(args.dist, (k, d), seed=args.seed)
    except (ValueError, MemoryError) as exc:  # numpy cannot hold the shape
        raise ConfigError(f"shape {k}x{d}: {exc}") from None
    with open(args.out, "wb") as fh:  # np.save would add ".npy" to a path
        np.save(fh, arr)
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
        except (OSError, FormatError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            failures += 1
            continue
        grouping = GroupingConfig(group_size=args.group_size)
        for dt in args.dtypes:
            spec = spec_for(dt)
            qt = quantize_tensor(tensor, spec, grouping)
            rep = error_report(tensor, dequantize_tensor(qt))
            hist = [0, 0, 0, 0]
            if spec.is_bitmod:
                hist = np.bincount(qt.sv_index.ravel(), minlength=4).tolist()
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
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# bitserial-check
# ---------------------------------------------------------------------------

def cmd_bitserial_check(args) -> int:
    """Encode every code of every grid of two INT and two BitMoD types and
    compare the terms' sum with the value the code stands for; a code
    counts as exact when it is exact on every grid of its type."""
    ok = total = 0
    for name in ("INT8_SYM", "INT6_SYM", "FP4_BITMOD", "FP3_BITMOD"):
        spec = spec_for(name)
        register = list(spec.special_values)
        if spec.is_fp:
            if args.sv_override is not None:
                register[0] = Fraction(args.sv_override)
            codes = range(len(spec.grids[0]))
        else:
            half = 1 << (spec.bits_per_code - 1)
            codes = range(-half, half)
        for code in codes:
            exact = True
            for sv_index, grid in enumerate(spec.grids):
                want = grid[code] if spec.is_fp else code
                try:
                    got = term_value_sum(encode_weight(code, spec, register,
                                                       sv_index))
                except (TooManySetBits, UnrepresentableValue) as exc:
                    problem = str(exc)
                else:
                    if got == want:
                        continue
                    problem = (f"{got} != {want}" if spec.is_fp
                               else "term sum mismatch")
                where = f"{spec.name} sv {sv_index}" if spec.is_fp else spec.name
                print(f"{where} code {code}: {problem}", file=sys.stderr)
                exact = False
            ok += exact
            total += 1
    print(f"{ok}/{total} codes exact")
    return 0 if ok == total else 1


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _load_arch_config(path: str | None) -> archsim.ArchConfig:
    if not path:
        return archsim.ArchConfig()
    with open(path) as fh:
        try:
            overrides = json.load(fh, object_pairs_hook=_unique_keys)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"{path}: {exc}") from None
    if not isinstance(overrides, dict):
        raise ConfigError(f"{path}: expected a JSON object of ArchConfig keys")
    unknown = set(overrides) - {f.name for f in fields(archsim.ArchConfig)}
    if unknown:
        raise ConfigError(f"{path}: unknown ArchConfig keys {sorted(unknown)}")
    return replace(archsim.ArchConfig(), **overrides)


def _unique_keys(pairs) -> dict:
    """A JSON object's dict; a repeated key is a :class:`ConfigError`."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def _load_workload(path: str, args) -> archsim.WorkloadSpec:
    bundled = resources.files("bitmod.shapes").joinpath(f"{path}.shape")
    try:
        if bundled.is_file():
            text = bundled.read_text(encoding="utf-8")
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                         f"{exc.start})") from None
    w = archsim.profile_shapes(text)
    return replace(w, prefill_tokens=args.prefill_tokens,
                   decode_tokens=args.decode_tokens)


def _sim_row(workload, spec_name, bits, rep) -> dict:
    row = asdict(rep)
    # SimReport's energy.compute_j is the column energy_compute_J.
    row.update((f"energy_{k[:-2]}_J", v) for k, v in row.pop("energy").items())
    return dict(row, workload=workload, dtype=spec_name,
                bits_per_weight=float(bits))


def cmd_simulate(args) -> int:
    workload = _load_workload(args.shape_file, args)
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
        ratio = row["weight_bytes"] / row["activation_bytes"]
        print(f"{row['dtype']:>14}: weight {row['weight_bytes']:.3e} B, "
              f"activation {row['activation_bytes']:.3e} B "
              f"(ratio {ratio:.1f}x)", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# pack / unpack
# ---------------------------------------------------------------------------

def cmd_pack(args) -> int:
    tensor = _load_npy(args.tensor)
    spec = spec_for(args.dtype)
    grouping = GroupingConfig(group_size=args.group_size)
    qt = quantize_tensor(tensor, spec, grouping)
    data = packfile.pack(qt, grouping, tensor.shape[1])
    with open(args.out, "wb") as fh:
        fh.write(data)
    print(f"wrote {args.out}: {len(data)} bytes "
          f"({8 * len(data) / tensor.size:.4f} bits/weight)")
    return 0


def cmd_unpack(args) -> int:
    with open(args.file, "rb") as fh:
        data = fh.read()
    tensor = packfile.unpack_to_tensor(data)
    with open(args.out, "wb") as fh:
        np.save(fh, tensor)
    print(f"wrote {args.out}: shape {tensor.shape}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _int_at_least(value: str, lo: int, hi: int | None = None) -> int:
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {value!r}") from None
    if n < lo:
        raise argparse.ArgumentTypeError(f"must be >= {lo}, got {n}")
    if hi is not None and n > hi:
        raise argparse.ArgumentTypeError(f"must be <= {hi}, got {n}")
    return n


_positive_int = partial(_int_at_least, lo=1)
_nonnegative_int = partial(_int_at_least, lo=0)


# The simulator's float columns (bytes, energies) equal sequential float
# sums, which stop growing with the integer cycle counts past about 2^53
# steps; at 2^40 they are within about 2e-4 of the exact totals (1.9e-4,
# llama-2-7b's INT6_SYM weight_bytes).
MAX_TOKENS = 1 << 40


_token_count = partial(_int_at_least, lo=0, hi=MAX_TOKENS)


def _shape_pair(value: str):
    try:
        k, d = (int(n) for n in value.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "shape must look like 1024x1024") from None
    if k < 1 or d < 1:
        raise argparse.ArgumentTypeError(
            f"both dimensions must be >= 1, got {value}")
    return k, d


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="bitmod",
                                description="Per-group adaptive quantization "
                                            "and bit-serial accelerator model")
    p.add_argument("--version", action="version",
                   version=f"bitmod {__version__} "
                           f"(kernel backend: {KERNEL_BACKEND})")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", default=None, help="output path")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")

    g = sub.add_parser("gen", help="generate a synthetic tensor (NPY)")
    g.add_argument("--dist", choices=synth.DISTRIBUTIONS, default="gaussian")
    g.add_argument("--shape", type=_shape_pair, default=(1024, 1024))
    g.add_argument("--seed", type=_nonnegative_int, default=synth.DEFAULT_SEED)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    q = sub.add_parser("quant-eval", help="quantization error report")
    q.add_argument("tensors", nargs="+", help="NPY tensor files")
    q.add_argument("--dtype", dest="dtypes", type=_dtype_list,
                   default=[DataType.FP3_BITMOD, DataType.FP3_BASIC],
                   help="comma-separated data types")
    q.add_argument("--group-size", type=_positive_int,
                   default=GroupingConfig.group_size)
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
    s.add_argument("--group-size", type=_positive_int,
                   default=GroupingConfig.group_size)
    s.add_argument("--prefill-tokens", type=_token_count,
                   default=archsim.WorkloadSpec.prefill_tokens)
    s.add_argument("--decode-tokens", type=_token_count, default=0)
    s.add_argument("--config", default=None, help="JSON ArchConfig overrides")
    common(s)
    s.set_defaults(func=cmd_simulate)

    pk = sub.add_parser("pack", help="quantize a tensor into a BMOD file")
    pk.add_argument("tensor", help="NPY tensor file")
    pk.add_argument("--dtype", type=_dtype_name, default=DataType.FP3_BITMOD)
    pk.add_argument("--group-size", type=_positive_int,
                    default=GroupingConfig.group_size)
    pk.add_argument("--out", required=True)
    pk.set_defaults(func=cmd_pack)

    up = sub.add_parser("unpack", help="dequantize a BMOD file to NPY")
    up.add_argument("file", help="BMOD file")
    up.add_argument("--out", required=True)
    up.set_defaults(func=cmd_unpack)
    return p


def _show_warning(message, *_):
    """A warning as one line, like an error, without Python's source echo."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "simulate" and not (args.prefill_tokens
                                           or args.decode_tokens):
        parser.error("simulate: --prefill-tokens and --decode-tokens are "
                     "both 0, so there is nothing to simulate")
    with warnings.catch_warnings():  # restores the hook for in-process callers
        warnings.showwarning = _show_warning
        try:
            return args.func(args)
        except (BitmodError, OSError, MemoryError) as exc:
            # numpy's MemoryError names the array the host cannot hold, such
            # as the padded chunk of a huge --group-size; Python's own
            # carries no message.
            print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
