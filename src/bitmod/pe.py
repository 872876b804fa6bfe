"""Bit-accurate functional model of the bit-serial processing element.

The PE computes a 4-way dot product per cycle between bit-serial weight
terms and FP16 activations, accumulates over a weight group, and rescales
the group partial sum by the unsigned 8-bit group scale, which the
hardware does with an 8-cycle shift-and-add multiplier.
:func:`group_dot` is the PE's entry point: one quantized group against its
activations.

Numeric model (documented choices, not hardware claims):

* 32-bit accumulator mantissa, leading set bit kept in window [24, 31];
* per-lane alignment to the max lane exponent with round-to-nearest-even
  (3 guard bits preserve exact RNE);
* FP16 subnormal activations flush to zero at ingestion; NaN/Inf rejected.

Activations enter as exact float64 operands (:func:`decode_fp16`) and
weights as the exact float64 values of their terms, gathered lane-major
(:func:`encode_group_terms`); :mod:`bitmod._kernels` states why its
float64 lane stage is exact.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .bitserial import term_table
from .dtype import DataTypeSpec, code_range
from .errors import OutOfRange, ShapeMismatch
from .quant import QuantizedGroup

DOT_WIDTH = 4
DEQUANT_CYCLES = 8
# The baseline FP16 MAC PE does one multiply-accumulate per cycle, so a
# DOT_WIDTH-wide dot takes this many cycles.
FP16_MAC_CYCLES_PER_DOT = 4


def decode_fp16(values):
    """Decode activations to FP16 operands, one float64 per value.

    Each value is rounded to FP16; its operand is ``(-1)^s * a_m * 2^a_e``,
    the 11-bit mantissa (hidden bit included) times 2 to the biased
    exponent, which is the value times 2^25.  Operands are below 2^41, so
    float64 holds them exactly.  Subnormals flush to zero; a NaN or
    infinite value, including one that overflows FP16, raises
    ``ValueError``.
    """
    half = np.asarray(values)
    if half.dtype != np.float16:
        with np.errstate(over="ignore"):  # overflow lands on inf, rejected below
            half = half.astype(np.float16)
    if (half.view(np.uint16) & 0x7C00).max(initial=0) == 0x7C00:
        raise ValueError("NaN/Inf activation rejected")  # exponent all ones
    ops = half.astype(np.float64)
    ops *= 2.0 ** 25
    ops[np.abs(ops) < 2.0 ** 11] = 0.0  # subnormals: below 2^-14 * 2^25
    return ops


@dataclass(frozen=True)
class GroupPartialSum:
    m_grp: int
    e_grp: int

    @property
    def value(self) -> float:
        return math.ldexp(self.m_grp, self.e_grp)


def bit_serial_dequant(m_acc: int, e_acc: int, scale_q: int):
    """Multiply the accumulator ``(m_acc, e_acc)`` by the unsigned 8-bit
    group scale, exactly; the hardware's shift-and-add takes 8 cycles.

    Returns (GroupPartialSum, DEQUANT_CYCLES).
    """
    scale_q = operator.index(scale_q)
    if not 0 <= scale_q <= 255:
        raise ValueError("scale_q must be an unsigned 8-bit value")
    return GroupPartialSum(m_grp=m_acc * scale_q, e_grp=e_acc), DEQUANT_CYCLES


def encode_group_terms(weights: QuantizedGroup, spec: DataTypeSpec):
    """Gather a quantized group's term values from the (spec, sv_index)
    table, lane-major.

    Returns ``(w, bsig)``: ``w`` is float64 of shape ``(4, G/4,
    terms_per_code)``, where lane ``l`` of quad ``q`` is weight ``4q + l``,
    and ``bsig`` the per-slot significance.  Codes are widened to intp
    before any arithmetic; a code off the dtype's grid, or not a whole
    number, raises :class:`OutOfRange`.
    """
    lo, hi = code_range(spec)
    codes = np.asarray(weights.codes)
    if np.can_cast(codes.dtype, np.intp):
        rows = np.subtract(codes, lo, dtype=np.intp)
        whole = True
    else:  # floats, uint64: only whole values can be on the grid
        with np.errstate(invalid="ignore"):
            rows = codes.astype(np.intp)
        whole = np.array_equal(rows, codes)
        rows -= lo
    # A negative row wraps to a huge unsigned one: one max checks both ends.
    if not whole or rows.view(np.uintp).max(initial=0) > hi - lo:
        bad = (rows.view(np.uintp) > hi - lo) | (rows + lo != codes)
        raise OutOfRange(f"{spec.name} code {codes[bad][0]} off the grid "
                         f"[{lo}, {hi}]")
    table = term_table(spec, weights.sv_index)
    return table.value.take(rows.reshape(-1, DOT_WIDTH).T, axis=0), table.bsig


def group_dot(weights: QuantizedGroup, acts, spec: DataTypeSpec):
    """Dot product of one quantized group with FP16 activations.

    Returns (GroupPartialSum, compute_cycles); the 8-cycle dequantization
    overlaps the next group and is not added to the cycle count.
    """
    shape = np.shape(weights.codes)
    if len(shape) != 1:
        raise ShapeMismatch(f"a group's codes must be 1-D, got shape {shape}")
    g = shape[0]
    if np.shape(acts) != shape:
        raise ShapeMismatch(f"expected {g} activations, got shape "
                            f"{np.shape(acts)}")
    if g == 0 or g % DOT_WIDTH != 0:
        raise ShapeMismatch(f"group size {g} not a positive multiple of "
                            f"dot width {DOT_WIDTH}")
    ops = decode_fp16(acts)
    w, bsig = encode_group_terms(weights, spec)
    m_acc, e_acc = _kernels.run_group_dot(w, bsig, ops)
    gps, _ = bit_serial_dequant(m_acc, e_acc, weights.scale_q)
    return gps, (g // DOT_WIDTH) * spec.terms_per_code


def drain_accumulate(partials, channel_scale: float) -> np.float32:
    """Align and sum group partial sums exactly, then apply the channel scale."""
    if not partials:
        raise ValueError("at least one partial sum required")
    live = [p for p in partials if p.m_grp != 0]
    if not live:
        return np.float32(0.0)
    e_min = min(p.e_grp for p in live)
    total = sum(p.m_grp << (p.e_grp - e_min) for p in live)
    return np.float32(math.ldexp(float(total), e_min) * channel_scale)


def throughput_vs_fp16(spec: DataTypeSpec) -> float:
    """Per-PE throughput ratio over the FP16 MAC baseline."""
    return FP16_MAC_CYCLES_PER_DOT / spec.terms_per_code
