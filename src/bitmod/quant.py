"""Quantization and dequantization math.

Symmetric/asymmetric integer quantization, FP grid quantization with
per-group special-value adaptation, second-level INT8 quantization of the
per-group scaling factors, and error metrics.  :func:`quantize_groups` is
the one group quantizer for every dtype: it takes groups as the rows of an
(n, G) array, so a single group is an array with one row.  Its INT
branches read their top code from the dtype's grid, which
:mod:`bitmod.dtype` builds: ``qmax`` of a symmetric type and ``2^b - 1``
of an asymmetric one.  A tensor is quantized into one
:class:`QuantizedTensor` (``qt[i]`` is channel ``i``) in chunks of whole
channels, about ``CHUNK_WEIGHTS`` weights each, one
:func:`quantize_groups` call per chunk.

The nearest grid value is found by counting the midpoints of adjacent
grid values that a scaled weight lies above.  A BitMoD dtype's candidate
grids that share a grid absmax share their scale, so one count over the
union of their midpoints serves all of them (two counts for FP3/FP4, not
four searches).  The group keeps the grid of least MSE, and its codes are
gathered once, from that grid's code row.  The tests check the count
against ``nearest_grid_index``, a search for the nearest value, and the
search against ``per_grid_best_grid``, which gathers every grid's codes,
both in ``tests/conftest.py``.

Rounding convention: ``Round`` in the integer quantizers is
round-half-away-from-zero, applied uniformly to codes and zero-points.
The nearest-grid tie-break picks the grid value with smaller magnitude
(the negative one when magnitudes are equal).  Every quantizer raises
``ValueError`` on NaN or Inf input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from functools import cache
from itertools import groupby
from typing import NamedTuple

import numpy as np

from .dtype import (SCALE_Q_BITS, DataTypeSpec, GroupingConfig, check_range,
                    code_range, sv_range)
from .errors import OutOfRange, ShapeMismatch


def round_half_away(x):
    """Round to nearest integer, ties away from zero."""
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def check_finite(tensor: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(tensor)):
        raise ValueError("tensor contains NaN or Inf")
    return tensor


def _fields_equal(a, b):
    """``a == b`` field by field; array fields compare by content, and
    ``None`` equals only ``None``."""
    if type(a) is not type(b):
        return NotImplemented
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            if x is None or y is None or not np.array_equal(x, y):
                return False
        elif x != y:
            return False
    return True


@dataclass
class QuantizedGroup:
    """One weight group, the three fields :func:`bitmod.pe.group_dot`
    reads: ``codes``, which index the effective grid for FP types and are
    signed integers for symmetric INT types, the special-value index
    ``sv_index`` and the 8-bit group scale ``scale_q``.
    """

    codes: np.ndarray
    sv_index: int = 0
    scale_q: int = 0

    __eq__ = _fields_equal


@dataclass
class QuantizedTensor:
    """Arrays with a leading shape, ``(K,)`` for K channels or ``()`` for
    one channel ``qt[i]``; ``len(qt)`` is K and ``qt[a:b]`` is a tensor.

    The fields are those of a BMOD file, plus ``zero_point`` for the
    asymmetric INT baselines, which the file cannot hold; so
    ``packfile.unpack(packfile.pack(qt, ...))[0] == qt`` for every
    packable dtype.  ``codes`` is ``(..., n_groups, G)`` and ``channel_scale`` ``(...)``;
    ``sv_index``, ``scale_q`` and ``zero_point`` ``(..., n_groups)``.
    ``codes`` are ``dtype.code_dtype`` (int8 for symmetric INT, else
    uint8), ``sv_index`` and ``scale_q`` uint8, ``channel_scale`` float64
    and ``zero_point`` int64.
    """

    codes: np.ndarray
    sv_index: np.ndarray
    scale_q: np.ndarray
    channel_scale: np.ndarray
    dtype: DataTypeSpec
    valid_size: int  # channel size before zero-padding
    zero_point: np.ndarray | None = None

    __eq__ = _fields_equal

    def __len__(self) -> int:
        if self.channel_scale.ndim:
            return len(self.channel_scale)
        raise TypeError("one channel has no length; use qt[i:i + 1]")

    def __getitem__(self, key) -> QuantizedTensor:
        len(self)  # raises for one channel, which has no channel axis
        return replace(self, **{f.name: v[key] for f in fields(self) if
                                isinstance(v := getattr(self, f.name),
                                           np.ndarray)})

    @property
    def groups(self) -> tuple[QuantizedGroup, ...]:
        """One channel's groups, one :class:`QuantizedGroup` each, built on
        each access; its codes are a read-only view of the row."""
        if self.codes.ndim != 2:
            raise TypeError("groups is a view of one channel")
        rows = self.codes.view()
        rows.flags.writeable = False
        return tuple(map(QuantizedGroup, rows, self.sv_index.tolist(),
                         self.scale_q.tolist()))


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


def _quantize_symmetric(w: np.ndarray, qmax: int):
    """Symmetric integer quantization along the last axis onto the codes
    ``-qmax..qmax``.

    Returns (int8 codes, delta); ``delta`` has the leading shape (a scalar
    for one group) and is 0 for an all-zero group, whose codes are 0, as
    are those of a group whose delta underflows to 0.
    """
    # A NaN or an Inf in a group makes its absmax NaN or Inf.
    absmax = check_finite(np.max(np.abs(w), axis=-1, initial=0.0))
    delta = absmax / qmax
    codes = np.clip(round_half_away(w / _divisor(delta)), -qmax, qmax)
    return codes.astype(np.int8), delta[()]


def _quantize_asymmetric(w: np.ndarray, qmax: int):
    """Asymmetric integer quantization along the last axis onto the codes
    ``0..qmax``.

    Returns (uint8 codes, delta, zero_point), the last two with the
    leading shape.  A constant group, or one whose delta underflows to 0,
    is degenerate: codes, delta and zero-point are 0, so it dequantizes
    to 0.
    """
    # A NaN in a group makes its min and max NaN, an Inf one of them.
    lo = check_finite(np.min(w, axis=-1))
    rng = check_finite(np.max(w, axis=-1)) - lo
    delta = rng / qmax
    div = _divisor(delta)
    z = np.where(delta == 0, 0, round_half_away(-lo / div[..., 0]))
    codes = np.clip(round_half_away(w / div) + z[..., None], 0, qmax)
    codes = np.where(delta[..., None] == 0, 0, codes)
    return codes.astype(np.uint8), delta[()], z.astype(np.int64)[()]


def _midpoints(grid_f: np.ndarray) -> np.ndarray:
    """Midpoints of adjacent values of a sorted grid."""
    return (grid_f[:-1] + grid_f[1:]) / 2


def _count_above(scaled: np.ndarray, mids) -> np.ndarray:
    """How many of the sorted midpoints ``mids`` each scaled value passes.

    A value passes a negative midpoint when ``s >= m`` and any other when
    ``s > m``, so a value on a midpoint goes to the neighbour of smaller
    magnitude (the lower one at midpoint 0), the module's tie-break.
    On a grid whose midpoints are ``mids`` the count is the index of the
    nearest value.  On the dtype grids the distances to the two neighbours
    are exact near a midpoint (Sterbenz), so the count agrees with a
    nearest-value search on every float but NaN, which the quantizers
    refuse and which counts 0 here.
    """
    count = np.zeros(scaled.shape, dtype=np.min_scalar_type(len(mids)))
    for m in mids:
        passed = scaled >= m if m < 0 else scaled > m
        count += passed.view(np.uint8)
    return count


class _SharedScale(NamedTuple):
    """Consecutive candidate grids of a dtype with the same grid absmax,
    hence the same scale for a group.

    ``mids`` is the sorted union of their midpoints.  Each interval between
    them, numbered by the count :func:`_count_above` returns, lies inside
    one nearest-value cell of every such grid: ``codes[c, j]`` is the
    index of that cell's value in grid ``grids[c]``, and ``values[c, j]``
    the value itself.
    """

    absmax: float
    mids: tuple[float, ...]
    grids: tuple[int, ...]
    codes: np.ndarray
    values: np.ndarray


@cache
def _shared_scales(spec: DataTypeSpec) -> tuple[_SharedScale, ...]:
    """``spec.grid_table`` split into runs of grids that share a scale, in
    grid order."""
    table = spec.grid_table
    absmax = np.abs(table).max(axis=1)
    scales = []
    for a, run in groupby(range(len(table)), key=absmax.__getitem__):
        grids = tuple(run)
        own = [_midpoints(table[i]) for i in grids]
        mids = sorted(set(np.concatenate(own).tolist()))
        # Past the first j union midpoints a value has passed exactly the
        # grid's own midpoints among them.
        codes = np.array([np.searchsorted(o, [-np.inf, *mids], side="right")
                          for o in own], dtype=np.uint8)
        values = np.take_along_axis(table[list(grids)], codes, axis=1)
        codes.flags.writeable = values.flags.writeable = False
        scales.append(_SharedScale(float(a), tuple(mids), grids, codes,
                                   values))
    return tuple(scales)


@cache
def _grid_codes(spec: DataTypeSpec):
    """Every candidate grid's :class:`_SharedScale` code row, in grid
    order, as one flat read-only ``table``; returns (table, start, scale).
    Grid ``i``'s code for interval ``j`` of its shared scale is
    ``table[start[i] + j]``, and ``scale[i]`` is the position of that
    shared scale in :func:`_shared_scales`."""
    scales = _shared_scales(spec)
    rows = [codes for scale in scales for codes in scale.codes]
    fields = (np.concatenate(rows), np.cumsum([0, *map(len, rows[:-1])]),
              np.array([k for k, s in enumerate(scales) for _ in s.grids]))
    for a in fields:
        a.flags.writeable = False
    return fields


def _best_grid(rows: np.ndarray, spec: DataTypeSpec, out=None):
    """Quantize each row of a (n_groups, G) array onto every grid of
    ``spec`` and keep, per row, the grid of least MSE (the lowest index
    wins ties).  Grids that share a scale share one midpoint count; each
    row's codes are gathered once, from its winning grid's code row.

    Returns (codes, delta, sv_index, mse) per row; ``out`` gets the codes.
    """
    n, g = rows.shape
    absmax = check_finite(np.max(np.abs(rows), axis=-1, initial=0.0))
    scales = _shared_scales(spec)
    deltas = np.empty((len(scales), n))
    intervals = np.empty((len(scales), n, g), dtype=np.intp)
    mse = np.empty((len(spec.grids), n))
    # Per weight, so that each pass below is one loop over the chunk rather
    # than one per row; both buffers serve every scale and grid.
    delta_w, err = np.empty((2, n, g))
    for scale, delta, interval in zip(scales, deltas, intervals):
        np.divide(absmax, scale.absmax, out=delta)
        np.copyto(err, _divisor(delta))
        # intp, so that no take below converts the uint8 count again.
        interval[...] = _count_above(np.divide(rows, err, out=err),
                                     scale.mids)
        np.copyto(delta_w, delta[:, None])
        for i, values in zip(scale.grids, scale.values):
            # (rows - value * delta) ** 2, in place.
            values.take(interval, out=err, mode="clip")
            np.multiply(err, delta_w, out=err)
            np.subtract(rows, err, out=err)
            np.add.reduce(np.square(err, out=err), axis=-1, out=mse[i])
    # Means are compared, not sums: at a G that is not a power of two, two
    # sums can round to one mean, a tie.
    mse /= g
    best = mse.argmin(axis=0)  # the first, lowest index on ties
    table, start, scale_of = _grid_codes(spec)
    r = np.arange(n)
    won = scale_of[best]
    index = intervals[won, r]
    index += start[best][:, None]
    # Indices are in range; "raise" would buffer the output.
    codes = table.take(index, out=out, mode="clip")
    return codes, deltas[won, r], best.astype(np.uint8), mse[best, r]


def quantize_groups(rows, spec: DataTypeSpec, out=None):
    """Quantize each row of an (n, G) array as one group of ``spec``.

    FP types try every candidate grid of the dtype (one for a basic type),
    each scaled by its own absmax: delta = max|w| / grid absmax.  A row
    keeps the grid of least MSE, the lowest index on ties.  For a BitMoD
    dtype that picks the special value: ER candidates are scaled by
    max|w|/4 for FP3 (max|w|/6 for FP4), EA candidates by max|w|/6
    (max|w|/8).  EA therefore also quantizes the bulk with a finer step:
    for FP3 it wins on most Gaussian groups as well as on one-sided
    outliers, and ER wins on flat, light-tailed groups.  INT types
    round onto their grid's codes, up to its top code ``grids[0][-1]``:
    ``-qmax..qmax`` for a symmetric type (:func:`_quantize_symmetric`) and
    ``0..2^b - 1`` with a zero-point for an asymmetric one
    (:func:`_quantize_asymmetric`).

    Returns (codes, delta, sv_index, zero_point), the last three one per
    row: codes of ``spec.code_dtype``, uint8 ``sv_index``, all 0 for a
    dtype without special values, and ``zero_point``, ``None`` for a
    symmetric one.  The codes are written into ``out`` when it is given.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise ValueError("rows must be 2-D (groups x group_size), got shape "
                         f"{rows.shape}")
    if spec.is_fp:
        codes, delta, sv_index, _ = _best_grid(rows, spec, out=out)
        return codes, delta, sv_index, None
    zero_point = None
    qmax = int(spec.grids[0][-1])
    if spec.asymmetric:
        codes, delta, zero_point = _quantize_asymmetric(rows, qmax)
    else:
        codes, delta = _quantize_symmetric(rows, qmax)
    if out is not None:
        out[...] = codes
        codes = out
    return codes, delta, np.zeros(len(rows), dtype=np.uint8), zero_point


def quantize_scales(per_group_deltas):
    """Second-level INT8 quantization of the per-group scaling factors.

    Works along the last axis.  Returns (scale_q, uint8 in [0, 127],
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
    return scale_q.astype(np.uint8), channel_scale[()]


# Weights per numpy pass of ``quantize_tensor``, ``dequantize_tensor`` and
# ``packfile.pack``: whole channels, at least one.  A chunk and its
# temporaries stay in cache, and peak memory does not grow with the tensor
# beyond its outputs.  ``packfile`` reads in chunks of its own,
# ``packfile.READ_CHUNK_WEIGHTS``: reading holds far fewer temporaries per
# weight, so its chunks can be larger for the same memory.
CHUNK_WEIGHTS = 1 << 14


def channel_chunks(n_channels: int, channel_weights: int,
                   chunk_weights: int = CHUNK_WEIGHTS):
    """Slices of whole channels of ``channel_weights`` weights each, about
    ``chunk_weights`` weights (at least one channel) per slice."""
    step = max(1, chunk_weights // channel_weights)
    return (slice(start, start + step)
            for start in range(0, n_channels, step))


def quantize_tensor(tensor, spec: DataTypeSpec,
                    grouping: GroupingConfig) -> QuantizedTensor:
    """Quantize a 2-D tensor whose rows are channels, in chunks of whole
    channels of about ``CHUNK_WEIGHTS`` weights, then all channel scales."""
    w = np.asarray(tensor)
    if w.ndim != 2:
        raise ValueError("tensor must be 2-D (out_channels x channel_size)")
    if w.size == 0:
        raise ValueError(f"tensor is empty, shape {w.shape}")
    n_channels, size = w.shape
    g = grouping.group_size
    n_groups = grouping.n_groups(size)
    # Filled in place: joining per-chunk parts would hold the codes twice.
    codes = np.empty((n_channels, n_groups, g), dtype=spec.code_dtype)
    group_fields = []  # (delta, sv_index, zero_point) per chunk, per group
    for chunk in channel_chunks(n_channels, n_groups * g):
        block = w[chunk]
        # The only float64 copy of the input: one chunk, zero-padded.
        rows = np.zeros((len(block), n_groups * g))
        rows[:, :size] = block
        rows = rows.reshape(-1, g)
        out = codes[chunk].reshape(rows.shape)  # a view
        group_fields.append(quantize_groups(rows, spec, out=out)[1:])
    delta, sv_index, zero_point = (
        None if parts[0] is None
        else np.concatenate(parts).reshape(n_channels, n_groups)
        for parts in zip(*group_fields))
    scale_q, channel_scale = quantize_scales(delta)
    return QuantizedTensor(codes=codes, sv_index=sv_index, scale_q=scale_q,
                           channel_scale=channel_scale, dtype=spec,
                           valid_size=size, zero_point=zero_point)


def dequantize_tensor(qt: QuantizedTensor) -> np.ndarray:
    """Reconstruct a tensor or one channel ``qt[i]``; padding is dropped.

    Every dtype takes one path.  A weight is its grid value, less its
    group's zero-point for an asymmetric INT type, times its group's
    ``scale_q * channel_scale``; an INT grid holds its own codes.  A chunk
    of whole channels at a time, each code's grid value is gathered by its
    index ``sv_index * n_grid + code - lo`` in the flattened
    ``grid_table`` straight into one float64 output, then scaled there in
    place.  ``lo..hi`` is :func:`code_range`, or ``0..n_grid - 1`` for an
    asymmetric type; a code off it, an ``sv_index`` off :func:`sv_range`,
    or a channel scale that is not finite raises :class:`OutOfRange`
    (:class:`InvalidSpecialValueIndex` for ``sv_index``).
    """
    spec = qt.dtype
    *_, n_groups, g = qt.codes.shape
    # One channel is read as a one-channel tensor.
    codes = qt.codes.reshape(-1, n_groups, g)
    sv_index = qt.sv_index.reshape(-1, n_groups)
    n_grid = spec.grid_table.shape[1]
    lo, hi = (0, n_grid - 1) if spec.asymmetric else code_range(spec)
    # A flat index would read the next grid's values for an off-grid code.
    check_range("sv_index", sv_index, *sv_range(spec), spec)
    check_range("code", codes, lo, hi, spec)
    channel_scale = qt.channel_scale.reshape(-1, 1)
    if not np.isfinite(channel_scale).all():
        c = int(np.argmax(~np.isfinite(channel_scale)))
        raise OutOfRange(f"channel_scale {channel_scale[c, 0]} at channel "
                         f"{c} is not finite")
    # Each group's column of code 0 in the flattened table: a code's
    # column in its grid is code - lo.
    zero_column = sv_index * n_grid + (-lo)
    scale_q = qt.scale_q.reshape(-1, n_groups)
    table = spec.grid_table.reshape(-1)
    values = np.empty(codes.shape)
    for chunk in channel_chunks(len(codes), n_groups * g):
        out = values[chunk]
        # As uint8: every index is below 256, so the wraparound of a
        # negative code cancels in the sum.
        index = np.add(codes[chunk], zero_column[chunk, :, None],
                       dtype=np.uint8, casting="unsafe")
        # Indices are in range; "raise" would buffer the output.
        table.take(index, out=out, mode="clip")
        if spec.asymmetric:
            out -= qt.zero_point.reshape(-1, n_groups)[chunk, :, None]
        out *= (scale_q[chunk] * channel_scale[chunk])[..., None]
    return values.reshape(*qt.codes.shape[:-2], -1)[..., :qt.valid_size]


def error_report(original, dequantized) -> ErrorReport:
    """The error of ``dequantized`` against ``original``, of one shape.
    Either holding NaN or Inf raises ``ValueError``, as the quantizers do;
    the inputs are scanned only when the maximum error is not finite."""
    w = np.asarray(original)
    w_hat = np.asarray(dequantized)
    if w.shape != w_hat.shape:
        raise ShapeMismatch(f"{w.shape} vs {w_hat.shape}")
    if not w.size:
        return ErrorReport(mse=0.0, normalized_error=0.0, max_abs_error=0.0)
    # One float64 buffer beside the inputs, reused for every term.
    with np.errstate(invalid="ignore"):  # inf - inf, refused below
        err = np.subtract(w, w_hat, dtype=np.float64)
    max_abs_error = float(np.abs(err, out=err).max())
    # A NaN or Inf input makes its error NaN or Inf; so does a difference
    # beyond the float64 range, which the scans tell apart.
    if not math.isfinite(max_abs_error):
        check_finite(w)
        check_finite(w_hat)
    mse = float(np.mean(np.square(err, out=err)))
    denom = float(np.mean(np.square(w, out=err, dtype=np.float64)))
    return ErrorReport(
        mse=mse,
        normalized_error=mse / denom if denom > 0 else 0.0,
        max_abs_error=max_abs_error,
    )


@cache  # asked once per simulation and once per CLI output row
def memory_footprint_bits(spec: DataTypeSpec, grouping: GroupingConfig) -> Fraction:
    """Stored bits per weight including per-group metadata.

    A symmetric type carries a ``SCALE_Q_BITS``-wide scale and a
    ``sv_bits``-wide special-value index per group (2 bits for the BitMoD
    types, none for the others).  The asymmetric-INT software baseline is
    modeled with a 16-bit scale and an 8-bit zero-point per group.
    """
    overhead = 16 + 8 if spec.asymmetric else SCALE_Q_BITS + spec.sv_bits
    return Fraction(spec.bits_per_code) + Fraction(overhead,
                                                   grouping.group_size)
