"""Unified bit-serial term encoding.

Every weight code, regardless of data type, is decomposed into terms of the
form ``(-1)^sign * 2^exp * man * 2^bsig``:

* INT8/INT6 codes go through radix-4 Booth encoding (one term per 2-bit
  position, digits in {0, +-1, +-2}).
* The extended FP4/FP3 grids are first converted to a sign-magnitude
  fixed-point layout (4 integer bits I3..I0 plus 1 fraction bit F0) and
  then split into exactly two terms by a leading-one detector: one over the
  window {I3..I0} (bsig 0) and one over {I2, I1, I0, F0} (bsig -1), with
  the first detected bit masked before the second search.

The code pattern that would denote -0 in the FP encodings stands for the
active entry of the special-value register, :func:`encode_weight`'s
``register`` tuple (the spec's own special values unless given).

A code's terms depend only on (dtype, sv_index, code), so :func:`term_table`
encodes every code of a grid once, with :func:`encode_weight`, into each
term's full value, and the PE gathers a group's terms from that table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from .dtype import (DataTypeSpec, check_range, code_range, effective_grid,
                    sv_range)
from .errors import OutOfRange, TooManySetBits, UnrepresentableValue


@dataclass(frozen=True)
class BitSerialTerm:
    sign: int  # 1 bit
    exp: int   # 2-bit field, 0..3
    man: int   # 1 bit
    bsig: int  # shared per term slot

    @property
    def value(self) -> Fraction:
        if self.man == 0:
            return Fraction(0)
        v = Fraction(2) ** (self.exp + self.bsig)
        return -v if self.sign else v


def _term(sign: int, exp: int, bsig: int) -> BitSerialTerm:
    """The term ``(-1)^sign * 2^exp`` of slot ``bsig``, or the slot's zero
    term when ``exp < 0``."""
    if exp < 0:
        return BitSerialTerm(sign=0, exp=0, man=0, bsig=bsig)
    return BitSerialTerm(sign=sign, exp=exp, man=1, bsig=bsig)


@dataclass(frozen=True)
class FixedPointCode:
    """Sign-magnitude fixed point: 1 sign, 4 integer bits, 1 fraction bit.

    ``mag_half`` is the magnitude in units of the 0.5 LSB, 0..31: bits 4..1
    are I3..I0 and bit 0 is F0, so magnitudes run from 0 to 15.5 in steps
    of 0.5.  This is the one range rule of the encoder; any other
    ``mag_half`` raises :class:`UnrepresentableValue`.  Only a magnitude
    with at most two set bits splits into terms (:func:`lod_decode`).
    """

    sign: int
    mag_half: int

    def __post_init__(self):
        if not 0 <= self.mag_half < 32:
            raise UnrepresentableValue(
                f"fixed-point magnitude {self.mag_half}/2 is outside 0..15.5")

    @property
    def value(self) -> Fraction:
        v = Fraction(self.mag_half, 2)
        return -v if self.sign else v

    @property
    def set_bits(self) -> int:
        return bin(self.mag_half).count("1")


def fixed_point_of(value) -> FixedPointCode:
    """Convert a rational grid value to the sign-magnitude fixed-point layout.

    The layout holds magnitudes 0..15.5 in steps of 0.5, and
    :func:`lod_decode` splits one only when it has at most two set bits.
    A value finer than the 0.5 LSB raises :class:`UnrepresentableValue`
    here; :class:`FixedPointCode` refuses one beyond 15.5.
    """
    v = Fraction(value)
    mag2 = abs(v) * 2
    if mag2.denominator != 1:
        raise UnrepresentableValue(f"{value} is finer than the 0.5 LSB")
    return FixedPointCode(sign=1 if v < 0 else 0, mag_half=int(mag2))


# Radix-4 Booth digit of the bit triple (b_{2i+1}, b_{2i}, b_{2i-1}).
_BOOTH_DIGIT = (0, 1, 1, 2, -2, -1, -1, 0)


def booth_encode(value: int, bits: int) -> list[BitSerialTerm]:
    """Radix-4 Booth decomposition of a two's-complement integer.

    Emits ceil(bits/2) terms; term i covers bit pair (2i+1, 2i) and carries
    bsig = 2i.  The signed digits sum to ``value`` exactly.
    """
    if bits < 2:
        raise OutOfRange("bits must be >= 2")
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    if not lo <= value <= hi:
        raise OutOfRange(f"{value} not representable in {bits}-bit two's complement")
    ext = value << 1  # b_{-1} = 0; ``>>`` sign-extends past the top bit
    digits = (_BOOTH_DIGIT[(ext >> 2 * i) & 7] for i in range((bits + 1) // 2))
    return [_term(int(d < 0), abs(d) - 1, 2 * i) for i, d in enumerate(digits)]


def lod_decode(fp: FixedPointCode) -> list[BitSerialTerm]:
    """Split a fixed-point code into exactly two bit-serial terms.

    Term 1 takes the leading set bit of {I3..I0} at bsig 0; that bit is
    masked, and term 2 takes the leading set bit of {I2, I1, I0, F0} at
    bsig -1.  Values with more than two set magnitude bits cannot be
    represented and raise :class:`TooManySetBits`.  With at most two set
    bits, the one left for term 2 always lies below the one term 1 took,
    so both windows together cover every such value.
    """
    if fp.set_bits > 2:
        raise TooManySetBits(
            f"fixed-point magnitude {fp.mag_half}/2 has {fp.set_bits} set bits"
        )
    top = fp.mag_half.bit_length() - 1  # I3..I0 are bits 4..1
    rest = fp.mag_half - (1 << top) if top >= 1 else fp.mag_half
    return [_term(fp.sign, top - 1, 0),
            _term(fp.sign, rest.bit_length() - 1, -1)]


def encode_weight(code: int, spec: DataTypeSpec, register=None,
                  sv_index: int = 0) -> list[BitSerialTerm]:
    """Encode one weight code of a symmetric type into its term list.

    FP codes index the effective grid of (spec, sv_index); the special
    value's slot decodes as ``register[sv_index]`` (``spec.special_values``
    unless given).  INT codes are signed values, Booth-encoded over the
    whole two's-complement range of ``bits_per_code``, one code past the
    PE's ``code_range``, so that the reconstruction check covers every
    pattern (-128 of INT8, -32 of INT6).  The result has exactly
    ``spec.terms_per_code`` entries.  An FP code off the grid raises
    :class:`OutOfRange`, an ``sv_index`` off :func:`bitmod.dtype.sv_range`
    its subclass :class:`InvalidSpecialValueIndex`, and an asymmetric type
    :class:`UnsupportedDtype`.
    """
    lo, hi = code_range(spec)
    grid = effective_grid(spec, sv_index)
    if not spec.is_fp:
        return booth_encode(code, spec.bits_per_code)
    check_range("code", code, lo, hi, spec)
    value, sv_index = grid[int(code)], int(sv_index)
    if spec.is_bitmod and value == spec.special_values[sv_index]:
        value = (register or spec.special_values)[sv_index]
    return lod_decode(fixed_point_of(value))


def term_table(spec: DataTypeSpec, sv_index: int = 0) -> np.ndarray:
    """Term values of every on-grid code of (spec, sv_index), encoded once
    with :func:`encode_weight` and the spec's own special-value register.

    A read-only float64 array of shape ``(256, terms_per_code)``, indexed
    by the code's low byte: row ``code % 256`` holds ``float(t.value)`` of
    each of a code's terms, 0 or +-2^k with -1 <= k <= 7, which float64
    holds exactly.  Every code range fits in one byte, so ``table[code]``
    (a negative code counting from the end, as numpy indexes) is the
    code's row for any on-grid code of any integer type; the rows of no
    code hold NaN, so a one-byte code off the grid gathers NaN terms,
    which the PE kernel refuses.  An ``sv_index`` off
    :func:`bitmod.dtype.sv_range`, which is 0 alone for an integer type,
    raises :class:`InvalidSpecialValueIndex`.
    """
    check_range("sv_index", sv_index, *sv_range(spec), spec)
    return _term_table(spec, sv_index)


@cache
def _term_table(spec: DataTypeSpec, sv_index: int) -> np.ndarray:
    lo, hi = code_range(spec)
    table = np.full((256, spec.terms_per_code), np.nan)
    for code in range(lo, hi + 1):
        table[code] = [float(t.value)
                       for t in encode_weight(code, spec, sv_index=sv_index)]
    table.flags.writeable = False
    return table


def term_value_sum(terms) -> Fraction:
    return sum((t.value for t in terms), Fraction(0))
