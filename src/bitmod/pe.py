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
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .bitserial import Terms, term_table
from .dtype import DataTypeSpec, code_range
from .errors import OutOfRange, ShapeMismatch
from .quant import QuantizedGroup

DOT_WIDTH = 4
DEQUANT_CYCLES = 8


def decode_fp16(values):
    """Decode activations to FP16 operand fields ``(sign, a_e, a_m)``.

    Each value is rounded to FP16; the fields come from its bit pattern as
    int64 arrays of the input's shape.  Subnormals flush to zero (their
    sign is kept); a NaN or infinite value, including one that overflows
    FP16, raises ``ValueError``.
    """
    with np.errstate(over="ignore"):  # overflow lands on inf, rejected below
        bits = np.asarray(values, dtype=np.float16).view(np.uint16)
    bits = bits.astype(np.int64)
    exp = (bits >> 10) & 0x1F
    if exp.max(initial=0) == 0x1F:
        raise ValueError("NaN/Inf activation rejected")
    a_m = (0x400 | (bits & 0x3FF)) * (exp != 0)
    return bits >> 15, exp, a_m


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


def encode_group_terms(weights: QuantizedGroup, spec: DataTypeSpec) -> Terms:
    """Gather a quantized group's terms from the (spec, sv_index) table.

    Returns :class:`Terms` with ``(G, terms_per_code)`` arrays.  A code off
    the dtype's grid raises :class:`OutOfRange`.
    """
    lo, hi = code_range(spec)
    codes = np.asarray(weights.codes, dtype=np.int64)
    off_grid = (codes < lo) | (codes > hi)
    if off_grid.any():
        raise OutOfRange(f"{spec.name} code {codes[off_grid][0]} off the grid "
                         f"[{lo}, {hi}]")
    return term_table(spec, weights.sv_index).take(codes - lo)


def group_dot(weights: QuantizedGroup, acts, spec: DataTypeSpec):
    """Dot product of one quantized group with FP16 activations.

    Returns (GroupPartialSum, compute_cycles); the 8-cycle dequantization
    overlaps the next group and is not added to the cycle count.
    """
    g = len(weights.codes)
    if len(acts) != g:
        raise ShapeMismatch(f"expected {g} activations, got {len(acts)}")
    if g % DOT_WIDTH != 0:
        raise ShapeMismatch(f"group size {g} not divisible by dot width 4")
    ops = decode_fp16(acts)
    terms = encode_group_terms(weights, spec)
    m_acc, e_acc = _kernels.run_group_dot(terms, ops)
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


def fp16_mac_cycles_per_dot() -> int:
    """Cycles for the baseline FP16 MAC PE to finish 4 multiply-accumulates."""
    return 4


def throughput_vs_fp16(spec: DataTypeSpec) -> float:
    """Per-PE throughput ratio over the FP16 MAC baseline."""
    return fp16_mac_cycles_per_dot() / spec.terms_per_code
