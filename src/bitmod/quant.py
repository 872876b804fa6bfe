"""Quantization and dequantization math.

Symmetric/asymmetric integer quantization, nonlinear grid quantization,
per-group special-value adaptation, second-level INT8 quantization of the
per-group scaling factors, and error metrics.  The quantizers work along
the last axis, so a channel's groups are quantized as one (n_groups, G)
array and a single group is an array with one row.

Rounding convention: ``Round`` in the integer quantizers is
round-half-away-from-zero, applied uniformly to codes and zero-points.
The nearest-grid tie-break picks the grid value with smaller magnitude
(the negative one when magnitudes are equal).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dtype import DataTypeSpec, GroupingConfig, grid_absmax
from .errors import LengthMismatch, UnsupportedDtype


def round_half_away(x):
    """Round to nearest integer, ties away from zero."""
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def check_finite(tensor: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(tensor)):
        raise ValueError("tensor contains NaN or Inf")
    return tensor


@dataclass
class QuantizedGroup:
    """One weight group, as :func:`bitmod.pe.group_dot` takes it.

    ``codes`` index the effective grid for FP types and hold signed
    (symmetric) or unsigned (asymmetric) integers for INT types.
    """

    codes: np.ndarray
    sv_index: int = 0
    scale_q: int = 0
    zero_point: int | None = None
    # Unquantized per-group scale; None once only scale_q is known.
    delta: float | None = None


@dataclass
class ChannelQuantization:
    """One quantized channel: per-group arrays with one row per group.

    ``codes`` has shape ``(n_groups, G)``; ``sv_index``, ``scale_q`` and
    ``delta`` (the unquantized group scales, ``None`` after
    :func:`bitmod.packfile.unpack`) have shape ``(n_groups,)``, and so does
    ``zero_point``, which only asymmetric dtypes have.
    """

    codes: np.ndarray
    sv_index: np.ndarray
    scale_q: np.ndarray
    delta: np.ndarray | None
    channel_scale: float
    dtype: DataTypeSpec
    valid_size: int  # channel size before zero-padding
    zero_point: np.ndarray | None = None

    @property
    def groups(self) -> tuple[QuantizedGroup, ...]:
        """One :class:`QuantizedGroup` per group, built on each access; its
        codes are a read-only view of the row."""
        rows = self.codes.view()
        rows.flags.writeable = False
        n = len(rows)
        delta = [None] * n if self.delta is None else self.delta.tolist()
        zero_point = ([None] * n if self.zero_point is None
                      else self.zero_point.tolist())
        return tuple(QuantizedGroup(c, s, q, z, d) for c, s, q, z, d in zip(
            rows, self.sv_index.tolist(), self.scale_q.tolist(), zero_point,
            delta))


@dataclass(frozen=True)
class ErrorReport:
    mse: float
    normalized_error: float
    max_abs_error: float


def _divisor(delta):
    """``delta`` as a divisor along the last axis; 1 where it is 0: the
    group is all zero (or constant), or so small that its scale underflows,
    and its codes come out as for the value 0."""
    return np.where(delta == 0, 1.0, delta)[..., None]


def quantize_symmetric(group, bits: int):
    """Symmetric integer quantization along the last axis.

    Returns (codes, delta); ``delta`` has the leading shape (a scalar for
    one group) and is 0 for an all-zero group, whose codes are 0, as are
    those of a group whose delta underflows to 0.
    """
    if not 2 <= bits <= 8:
        raise ValueError("bits must be in [2, 8]")
    w = np.asarray(group, dtype=np.float64)
    qmax = (1 << (bits - 1)) - 1
    absmax = np.max(np.abs(w), axis=-1, initial=0.0)
    delta = absmax / qmax
    codes = np.clip(round_half_away(w / _divisor(delta)), -qmax, qmax)
    return codes.astype(np.int64), delta[()]


def quantize_asymmetric(group, bits: int):
    """Asymmetric integer quantization along the last axis.

    Returns (codes, delta, zero_point), the last two with the leading shape.
    A constant group, or one whose delta underflows to 0, is degenerate:
    codes, delta and zero-point are 0, so it dequantizes to 0.
    """
    if not 2 <= bits <= 8:
        raise ValueError("bits must be in [2, 8]")
    w = np.asarray(group, dtype=np.float64)
    qmax = (1 << bits) - 1
    lo = np.min(w, axis=-1)
    rng = np.max(w, axis=-1) - lo
    delta = rng / qmax
    div = _divisor(delta)
    z = np.where(delta == 0, 0, round_half_away(-lo / div[..., 0]))
    codes = np.clip(round_half_away(w / div) + z[..., None], 0, qmax)
    codes = np.where(delta[..., None] == 0, 0, codes)
    return codes.astype(np.int64), delta[()], z.astype(np.int64)[()]


def nearest_grid_index(scaled: np.ndarray, grid_f: np.ndarray) -> np.ndarray:
    """Index of the nearest grid value; ties go to the smaller magnitude."""
    n = len(grid_f)
    idx = np.searchsorted(grid_f, scaled)
    lo = np.clip(idx - 1, 0, n - 1)
    hi = np.clip(idx, 0, n - 1)
    d_lo = np.abs(scaled - grid_f[lo])
    d_hi = np.abs(grid_f[hi] - scaled)
    take_hi = d_hi < d_lo
    tie = d_hi == d_lo
    # Tie: smaller |grid value| wins; equal magnitudes fall back to the
    # negative (lower) one.
    take_hi |= tie & (np.abs(grid_f[hi]) < np.abs(grid_f[lo]))
    return np.where(take_hi, hi, lo)


def nonlinear_quantize(group, grid):
    """Quantize onto an arbitrary sorted grid containing 0: exact
    rationals, or their float values (a row of ``DataTypeSpec.grid_table``).

    Works along the last axis.  Returns (codes, delta) where codes index
    ``grid`` and delta = max|w| / grid_absmax per group (0 for an all-zero
    group, whose codes all index 0, as do those of a group whose delta
    underflows to 0).  For a BitMoD grid that absmax
    includes the merged special value: an EA candidate's scale is max|w|/6
    for FP3 (max|w|/8 for FP4) where the other grids use max|w|/4
    (max|w|/6), so EA also gives the bulk of the group a finer step.
    """
    if 0 not in grid:
        raise ValueError("grid must contain 0")
    w = np.asarray(group, dtype=np.float64)
    absmax = np.max(np.abs(w), axis=-1, initial=0.0)
    delta = absmax / float(grid_absmax(grid))
    codes = nearest_grid_index(w / _divisor(delta),
                               np.asarray(grid, dtype=np.float64))
    return codes.astype(np.int64), delta[()]


def _best_grid(rows: np.ndarray, spec: DataTypeSpec):
    """Quantize each row of a (n_groups, G) array onto every grid of
    ``spec`` and keep, per row, the grid of least MSE (the lowest index
    wins ties).

    Returns (codes, delta, sv_index, mse), each with one entry per row.
    """
    codes, delta, mse = [], [], []
    for grid_f in spec.grid_table:
        c, d = nonlinear_quantize(rows, grid_f)
        deq = grid_f[c] * d[:, None]
        codes.append(c)
        delta.append(d)
        mse.append(np.mean((rows - deq) ** 2, axis=-1))
    best = np.argmin(mse, axis=0)
    pick = (best, np.arange(len(rows)))
    return (np.stack(codes)[pick], np.stack(delta)[pick], best,
            np.stack(mse)[pick])


def adaptive_quant(group, spec: DataTypeSpec):
    """Pick the special value minimizing group MSE (lowest index on ties).

    Each candidate grid is scaled by its own absmax (see
    ``nonlinear_quantize``): ER candidates by max|w|/4 for FP3 (max|w|/6
    for FP4), EA candidates by max|w|/6 (max|w|/8).  EA therefore also
    quantizes the bulk with a finer step: for FP3 it wins on most Gaussian
    groups as well as on one-sided outliers, and ER wins on flat,
    light-tailed groups.

    Returns (QuantizedGroup with unquantized delta, chosen special value,
    mse).
    """
    if not spec.is_bitmod:
        raise UnsupportedDtype(f"{spec.name} has no special values to adapt")
    rows = np.asarray(group, dtype=np.float64)[None]
    codes, delta, best, mse = _best_grid(rows, spec)
    sv_index = int(best[0])
    qg = QuantizedGroup(codes=codes[0], sv_index=sv_index, delta=float(delta[0]))
    return qg, spec.special_values[sv_index], float(mse[0])


def quantize_scales(per_group_deltas):
    """Second-level INT8 quantization of the per-group scaling factors.

    Works along the last axis.  Returns (scale_q int array in [0, 127],
    channel_scale), the latter with the leading shape.
    """
    deltas = np.asarray(per_group_deltas, dtype=np.float64)
    dmax = np.max(deltas, axis=-1, initial=0.0)
    # Rounded to float32 so the packed-file f32 field is lossless.  It is 0
    # when every delta is 0 or below the float32 subnormal range; then
    # nothing representable remains and every scale_q rounds to 0.
    channel_scale = (dmax / 127.0).astype(np.float32).astype(np.float64)
    scale_q = np.clip(round_half_away(deltas / _divisor(channel_scale)),
                      0, 127)
    return scale_q.astype(np.int64), channel_scale[()]


def quantize_channel(values, spec: DataTypeSpec,
                     grouping: GroupingConfig) -> ChannelQuantization:
    """Quantize one weight channel: all of its groups in one pass, then
    their scales."""
    w = check_finite(np.asarray(values, dtype=np.float64))
    if w.ndim != 1:
        raise ValueError("channel must be 1-D")
    g = grouping.group_size
    rows = np.concatenate([w, np.zeros((-w.size) % g)]).reshape(-1, g)
    sv_index = np.zeros(len(rows), dtype=np.int64)
    zero_point = None
    if spec.is_fp:
        codes, delta, sv_index, _ = _best_grid(rows, spec)
    elif spec.asymmetric:
        codes, delta, zero_point = quantize_asymmetric(rows, spec.bits_per_code)
    else:
        codes, delta = quantize_symmetric(rows, spec.bits_per_code)
    scale_q, channel_scale = quantize_scales(delta)
    return ChannelQuantization(codes=codes, sv_index=sv_index, scale_q=scale_q,
                               delta=delta, zero_point=zero_point,
                               channel_scale=float(channel_scale), dtype=spec,
                               valid_size=w.size)


def dequantize_channel(cq: ChannelQuantization) -> np.ndarray:
    """Reconstruct the channel; padded lanes are dropped."""
    spec = cq.dtype
    if spec.is_fp:
        values = spec.grid_table[cq.sv_index[:, None], cq.codes]
    elif spec.asymmetric:
        values = cq.codes - cq.zero_point[:, None]
    else:
        values = cq.codes
    delta_hat = cq.scale_q * cq.channel_scale
    return (values * delta_hat[:, None]).ravel()[: cq.valid_size]


def quantize_tensor(tensor, spec: DataTypeSpec,
                    grouping: GroupingConfig) -> list[ChannelQuantization]:
    """Quantize a 2-D tensor channel by channel (rows are channels)."""
    w = check_finite(np.asarray(tensor, dtype=np.float64))
    if w.ndim != 2:
        raise ValueError("tensor must be 2-D (out_channels x channel_size)")
    if w.size == 0:
        raise ValueError(f"tensor is empty, shape {w.shape}")
    return [quantize_channel(row, spec, grouping) for row in w]


def dequantize_tensor(channels: list[ChannelQuantization]) -> np.ndarray:
    return np.stack([dequantize_channel(cq) for cq in channels])


def error_report(original, dequantized) -> ErrorReport:
    w = np.asarray(original, dtype=np.float64)
    w_hat = np.asarray(dequantized, dtype=np.float64)
    if w.shape != w_hat.shape:
        raise LengthMismatch(f"{w.shape} vs {w_hat.shape}")
    err = w - w_hat
    mse = float(np.mean(err ** 2)) if w.size else 0.0
    denom = float(np.mean(w ** 2)) if w.size else 0.0
    return ErrorReport(
        mse=mse,
        normalized_error=mse / denom if denom > 0 else 0.0,
        max_abs_error=float(np.max(np.abs(err))) if w.size else 0.0,
    )


def memory_footprint_bits(spec: DataTypeSpec, grouping: GroupingConfig) -> Fraction:
    """Stored bits per weight including per-group metadata.

    BitMoD types carry an 8-bit scale plus a 2-bit special-value index per
    group; symmetric INT and basic FP types carry the 8-bit scale only.
    The asymmetric-INT software baseline is modeled with a 16-bit scale and
    an 8-bit zero-point per group.
    """
    g = grouping.group_size
    if spec.asymmetric:
        overhead = 16 + 8
    else:
        overhead = 8 + spec.sv_bits
    return Fraction(spec.bits_per_code) + Fraction(overhead, g)
