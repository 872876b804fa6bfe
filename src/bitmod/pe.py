"""Bit-accurate functional model of the bit-serial processing element.

The PE computes a 4-way dot product per cycle between bit-serial weight
terms and FP16 activations, accumulates over a weight group, and rescales
the group partial sum by the unsigned 8-bit group scale, which the
hardware does with a shift-and-add multiplier in ``DEQUANT_CYCLES``
cycles.
:func:`group_dot` is the PE's entry point: one quantized group against its
activations.

Numeric model (documented choices, not hardware claims):

* 32-bit accumulator mantissa, leading set bit kept in window [24, 31];
* per-lane alignment to the max lane exponent with round-to-nearest-even
  (3 guard bits preserve exact RNE);
* FP16 subnormal activations flush to zero at ingestion; NaN/Inf rejected.

Activations enter as exact float64 operands, gathered by FP16 bit
pattern from one table built on first use (:func:`decode_fp16`), and
weights as the exact float64 values of their terms, gathered lane-major
in one step by the codes themselves from the 256-row term table, which is
indexed by a code's low byte (:func:`encode_group_terms`).
:mod:`bitmod._kernels` runs the group on float64 throughout and states
why each of its values is exact: the lane stage and the accumulator both
round half to even onto a grid ``2^k`` as ``x + c - c`` with
``c = 1.5 * 2^(k+52)``.

NaN rule: both tables hold NaN where they hold nothing valid, the operand
table at every NaN and infinite FP16 pattern and the term table at every
row of no code.  So a NaN or infinite activation gathers a NaN operand,
and a code off the grid, if it is of the dtype's own ``code_dtype``, a
NaN term.  The kernel refuses a group whose accumulator ends NaN, which
it does exactly when some operand or term was NaN (:mod:`bitmod._kernels`
proves it), and :func:`group_dot` scans nothing before the work: only on
an error does it run the checks that name the first bad field.
"""

from __future__ import annotations

import math
from functools import cache
from typing import NamedTuple

import numpy as np

from . import _kernels
from .bitserial import term_table
from .dtype import (SCALE_Q_BITS, SCALE_Q_RANGE, DataTypeSpec, check_range,
                    code_range)
from .errors import OutOfRange, ShapeMismatch
from .quant import QuantizedGroup

DOT_WIDTH = 4
# The bit-serial dequantizer's latency: one shift-and-add per scale bit.
DEQUANT_CYCLES = SCALE_Q_BITS


def decode_fp16(values):
    """Decode activations to FP16 operands, one float64 per value.

    Each value is rounded to FP16; its operand is ``(-1)^s * a_m * 2^a_e``,
    the 11-bit mantissa (hidden bit included) times 2 to the biased
    exponent, which is the value times ``2^OPERAND_SHIFT`` (2^25, in
    :mod:`bitmod._kernels`).  Operands are below 2^41, so float64 holds
    them exactly.  Subnormals flush to zero; a NaN or infinite value,
    including one that overflows FP16, raises ``ValueError``: the gather,
    :func:`_gather_fp16`, then its check that no operand is NaN.
    :func:`group_dot` runs the gather alone.
    """
    ops = _gather_fp16(values)
    if math.isnan(ops.max(initial=0.0)):
        raise ValueError("NaN/Inf activation rejected")
    return ops


def _gather_fp16(values) -> np.ndarray:
    """The operands of :func:`decode_fp16`, unchecked: one gather from
    :func:`_fp16_operands`, indexed by the FP16 bit pattern, so a NaN or
    infinite value gathers NaN."""
    half = np.asarray(values)
    if half.dtype != np.float16:
        with np.errstate(over="ignore"):  # overflow lands on inf, so NaN
            half = half.astype(np.float16)
    # take gives a 0-d input's operand as a scalar; asarray makes it 0-d.
    return np.asarray(_fp16_operands().take(half.view(np.uint16)))


@cache
def _fp16_operands() -> np.ndarray:
    """The operand of every FP16 bit pattern, built on first use.

    A read-only float64 array of 65 536 entries: entry ``p`` is the
    :func:`decode_fp16` operand of the pattern ``p``, or NaN where the
    exponent field is all ones (NaN and infinity).
    """
    bits = np.arange(1 << 16, dtype=np.uint16)
    exponent = bits & 0x7C00
    ops = bits.view(np.float16).astype(np.float64)
    with np.errstate(invalid="ignore"):  # scaling the NaN patterns
        ops *= 2.0 ** _kernels.OPERAND_SHIFT
    ops[exponent == 0] = 0.0  # zeros and subnormals
    ops[exponent == 0x7C00] = np.nan  # NaN and infinity
    ops.flags.writeable = False
    return ops


class GroupPartialSum(NamedTuple):
    """A group's partial sum, exactly ``m_grp * 2^e_grp``."""

    m_grp: int
    e_grp: int


def bit_serial_dequant(m_acc: int, e_acc: int, scale_q: int):
    """Multiply the accumulator ``(m_acc, e_acc)`` by the unsigned 8-bit
    group scale, exactly; the hardware's shift-and-add takes
    ``DEQUANT_CYCLES``.  A ``scale_q`` that is not a whole number in
    0..255 raises :class:`OutOfRange`.
    """
    check_range("scale_q", scale_q, *SCALE_Q_RANGE)
    return GroupPartialSum(m_acc * int(scale_q), e_acc)


def group_cycles(spec: DataTypeSpec, g: int) -> int:
    """Compute cycles of one group of ``g`` weights: each DOT_WIDTH-wide
    quad takes one cycle per term slot."""
    return g // DOT_WIDTH * spec.terms_per_code


def encode_group_terms(weights: QuantizedGroup, spec: DataTypeSpec):
    """Gather a quantized group's term values from the (spec, sv_index)
    table, lane-major.

    Returns float64 of shape ``(4, G/4, terms_per_code)``, where lane
    ``l`` of quad ``q`` is weight ``4q + l``.  Codes of the dtype's own
    ``code_dtype`` (one byte) index the table as they are, without a
    check: a negative code counts from the table's end, which is the row
    of its low byte, and a byte that is no code gathers its NaN row.
    Codes of any other dtype are checked and then cast to ``code_dtype``:
    one off the dtype's grid, or not a whole number, raises
    :class:`OutOfRange`.  An ``sv_index`` off :func:`bitmod.dtype.sv_range`
    raises its subclass :class:`InvalidSpecialValueIndex`.
    """
    codes = np.asarray(weights.codes)
    if codes.dtype != spec.code_dtype:
        check_range("code", codes, *code_range(spec), spec)
        codes = codes.astype(spec.code_dtype)
    return term_table(spec, weights.sv_index).take(
        codes.reshape(-1, DOT_WIDTH).T, axis=0)


def group_dot(weights: QuantizedGroup, acts, spec: DataTypeSpec):
    """Dot product of one quantized group with FP16 activations.

    Returns (GroupPartialSum, compute_cycles); the ``DEQUANT_CYCLES`` of
    the dequantization overlap the next group and are not added to the
    cycle count.

    The group is checked by its result (the module's NaN rule): operands
    and terms are gathered unchecked, and a NaN or infinite activation or
    an off-grid code makes the kernel raise.  On that error, or any error
    of the gather, the checks run in order, activations
    (:func:`decode_fp16`), then codes, then ``sv_index``, and the first
    that fails raises; ``scale_q`` is checked last, by
    :func:`bit_serial_dequant`.
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
    try:
        ops = _gather_fp16(acts)
        m_acc, e_acc = _kernels.run_group_dot(
            encode_group_terms(weights, spec), ops)
    except Exception:  # name the first bad field, as the checks order it
        decode_fp16(acts)
        check_range("code", weights.codes, *code_range(spec), spec)
        term_table(spec, weights.sv_index)
        raise
    return (bit_serial_dequant(m_acc, e_acc, weights.scale_q),
            group_cycles(spec, g))


def drain_accumulate(partials, channel_scale: float) -> np.float32:
    """Sum group partial sums exactly, rounding once half to even, then
    apply the channel scale.

    A partial is ``m_grp * 2^e_grp`` with ``|m_grp| < 2^33 * 255 < 2^41``,
    so float64 holds it exactly.  Its accumulator is a multiple of a
    rounding grid no finer than ``2^-25``, and the grid ``2^e_grp`` lies at
    most 24 bits below the accumulator's leading one, so ``e_grp >= -49``.
    Each of a group's at most G trees is below ``2^25`` (four FP16 lanes of
    at most 65504 * 2^7), so a channel of D weights sums to below about
    ``D * 2^33``.  The exact sum is thus a normal, finite float64 before it
    is rounded, and :func:`math.fsum` rounds it once, half to even.  A
    channel scale that is not finite raises :class:`OutOfRange`, as
    :func:`bitmod.packfile.pack` does, and so does a scaled sum that
    rounds beyond float32, as in :func:`bitmod.packfile.unpack_to_tensor`.
    """
    if not partials:
        raise ValueError("at least one partial sum required")
    if not math.isfinite(channel_scale):
        raise OutOfRange(f"channel_scale {channel_scale} is not finite")
    y = math.fsum(math.ldexp(m, e) for m, e in partials) * channel_scale
    # float32 rounds the midpoint of its largest finite value and 2**128,
    # and everything above it, to infinity.
    if abs(y) >= 2.0 ** 128 - 2.0 ** 103:
        raise OutOfRange(f"drained sum {y} is beyond the float32 range")
    return np.float32(y)
