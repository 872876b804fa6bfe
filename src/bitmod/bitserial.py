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

The code pattern that would denote -0 in the FP encodings is substituted by
the active entry of the special-value register before decoding.

A code's terms depend only on (dtype, sv_index, code), so :func:`term_table`
encodes every code of a grid once, with :func:`encode_weight`, and the PE
gathers a group's terms from that table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import NamedTuple

import numpy as np

from .dtype import HALF, DataTypeSpec, code_range, effective_grid
from .errors import (
    InvalidSpecialValueIndex,
    OutOfRange,
    TooManySetBits,
    UnrepresentableValue,
)

# Sentinel for the redundant negative-zero code pattern of the FP formats.
NEG_ZERO = object()


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


def zero_term(bsig: int = 0) -> BitSerialTerm:
    return BitSerialTerm(sign=0, exp=0, man=0, bsig=bsig)


@dataclass(frozen=True)
class FixedPointCode:
    """Sign-magnitude fixed point: 1 sign, 4 integer bits, 1 fraction bit.

    ``mag_half`` is the magnitude in units of the 0.5 LSB, 0..31.
    """

    sign: int
    mag_half: int

    def __post_init__(self):
        if not 0 <= self.mag_half < 32:
            raise UnrepresentableValue(f"magnitude {self.mag_half}/2 out of range")

    def bit(self, name: str) -> int:
        # I3..I0 weigh 8..1; F0 weighs 0.5.
        pos = {"I3": 4, "I2": 3, "I1": 2, "I0": 1, "F0": 0}[name]
        return (self.mag_half >> pos) & 1

    @property
    def value(self) -> Fraction:
        v = Fraction(self.mag_half, 2)
        return -v if self.sign else v

    @property
    def set_bits(self) -> int:
        return bin(self.mag_half).count("1")


def fixed_point_of(value) -> FixedPointCode:
    """Convert a rational grid value to the sign-magnitude fixed-point layout."""
    v = Fraction(value)
    mag2 = abs(v) * 2
    if mag2.denominator != 1:
        raise UnrepresentableValue(f"{value} is finer than the 0.5 LSB")
    if mag2 > 16:
        raise UnrepresentableValue(f"|{value}| exceeds the 4-integer-bit range")
    return FixedPointCode(sign=1 if v < 0 else 0, mag_half=int(mag2))


class SpecialValueRegister:
    """Four fixed-point special values; programmed once per data type."""

    def __init__(self, values=()):
        self.entries: list[FixedPointCode] = [fixed_point_of(v) for v in values]

    @classmethod
    def program(cls, spec: DataTypeSpec) -> "SpecialValueRegister":
        return cls(spec.special_values)

    def entry(self, sv_index: int) -> FixedPointCode:
        if not 0 <= sv_index < len(self.entries):
            raise InvalidSpecialValueIndex(f"sv_index {sv_index} not programmed")
        return self.entries[sv_index]


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

    def bit(k: int) -> int:
        if k < 0:
            return 0
        k = min(k, bits - 1)  # sign extension
        return (value >> k) & 1

    terms = []
    for i in range((bits + 1) // 2):
        digit = bit(2 * i - 1) + bit(2 * i) - 2 * bit(2 * i + 1)
        if digit == 0:
            terms.append(zero_term(bsig=2 * i))
        else:
            terms.append(
                BitSerialTerm(
                    sign=1 if digit < 0 else 0,
                    exp=0 if abs(digit) == 1 else 1,
                    man=1,
                    bsig=2 * i,
                )
            )
    return terms


def fp_code_to_fixed_point(grid_value, svreg: SpecialValueRegister | None = None,
                           sv_index: int = 0) -> FixedPointCode:
    """Decode an FP grid value (or the -0 pattern) to fixed point.

    Pass :data:`NEG_ZERO` for the redundant negative-zero code pattern; it
    is substituted by the registered special value before decoding.
    """
    if grid_value is NEG_ZERO:
        if svreg is None:
            raise UnrepresentableValue("-0 pattern requires a programmed SV register")
        return svreg.entry(sv_index)
    return fixed_point_of(grid_value)


# Window bit order: (name, value-weight exponent within the window).
_WINDOW1 = (("I3", 3), ("I2", 2), ("I1", 1), ("I0", 0))
_WINDOW2 = (("I2", 3), ("I1", 2), ("I0", 1), ("F0", 0))


def lod_decode(fp: FixedPointCode) -> list[BitSerialTerm]:
    """Split a fixed-point code into exactly two bit-serial terms.

    Term 1 takes the leading set bit of {I3..I0} at bsig 0; that bit is
    masked, and term 2 takes the leading set bit of {I2, I1, I0, F0} at
    bsig -1.  Values with more than two set magnitude bits cannot be
    represented and raise :class:`TooManySetBits`.
    """
    if fp.set_bits > 2:
        raise TooManySetBits(
            f"fixed-point magnitude {fp.mag_half}/2 has {fp.set_bits} set bits"
        )
    remaining = {n: fp.bit(n) for n in ("I3", "I2", "I1", "I0", "F0")}
    terms = []
    for window, bsig in ((_WINDOW1, 0), (_WINDOW2, -1)):
        hit = None
        for name, exp in window:
            if remaining[name]:
                hit = (name, exp)
                break
        if hit is None:
            terms.append(zero_term(bsig=bsig))
        else:
            remaining[hit[0]] = 0
            terms.append(BitSerialTerm(sign=fp.sign, exp=hit[1], man=1, bsig=bsig))
    if any(remaining.values()):
        raise TooManySetBits(
            f"fixed-point magnitude {fp.mag_half}/2 not coverable by two terms"
        )
    return terms


def encode_weight(code: int, spec: DataTypeSpec,
                  svreg: SpecialValueRegister | None = None,
                  sv_index: int = 0, zero_point: int = 0) -> list[BitSerialTerm]:
    """Encode one weight code of any supported type into its term list.

    FP codes index the effective grid of (spec, sv_index); integer codes
    are the signed (symmetric) or unsigned (asymmetric) quantized values.
    Asymmetric codes are re-centered by the zero-point so the terms always
    represent a signed integer.  The result has exactly
    ``spec.terms_per_code`` entries: ``ceil(bits / 2)`` Booth digits of
    ``bits_per_code`` (plus one for the re-centered asymmetric range).
    """
    if spec.is_fp:
        grid = effective_grid(spec, sv_index)
        value = grid[code]
        if spec.is_bitmod and value == spec.special_values[sv_index]:
            if svreg is None:
                svreg = SpecialValueRegister.program(spec)
            fp = fp_code_to_fixed_point(NEG_ZERO, svreg, sv_index)
        else:
            fp = fp_code_to_fixed_point(value)
        return lod_decode(fp)
    if spec.asymmetric:
        return booth_encode(code - zero_point, spec.bits_per_code + 1)
    return booth_encode(code, spec.bits_per_code)


class Terms(NamedTuple):
    """Bit-serial terms as the PE reads them, one row per weight code.

    ``value`` is float64 of shape ``(n, terms_per_code)``: each term's
    signed value without its slot's significance, ``(-1)^sign * man *
    2^exp``, which is 0 or +-2^exp with exp <= 3, so products with it are
    exact.  Term slot ``t`` of every row carries bit-significance
    ``bsig[t]``.
    """

    value: np.ndarray
    bsig: np.ndarray


def term_table(spec: DataTypeSpec, sv_index: int = 0) -> Terms:
    """Terms of every on-grid code of (spec, sv_index), encoded once with
    :func:`encode_weight` and the spec's own special-value register.

    Row ``code - code_range(spec)[0]`` holds a code's terms; the arrays
    are read-only.  Integer types have one grid, so their ``sv_index`` is
    ignored, as it is by :func:`encode_weight`.
    """
    return _term_table(spec, sv_index if spec.is_fp else 0)


@cache
def _term_table(spec: DataTypeSpec, sv_index: int) -> Terms:
    lo, hi = code_range(spec)
    rows = [encode_weight(code, spec, sv_index=sv_index)
            for code in range(lo, hi + 1)]
    table = Terms(np.array([[(-1) ** t.sign * t.man * 2 ** t.exp
                             for t in row] for row in rows],
                           dtype=np.float64),
                  np.array([t.bsig for t in rows[0]], dtype=np.int64))
    for array in table:
        array.flags.writeable = False
    return table


def term_value_sum(terms) -> Fraction:
    return sum((t.value for t in terms), Fraction(0))


__all__ = [
    "BitSerialTerm",
    "FixedPointCode",
    "Terms",
    "SpecialValueRegister",
    "NEG_ZERO",
    "booth_encode",
    "fp_code_to_fixed_point",
    "fixed_point_of",
    "lod_decode",
    "encode_weight",
    "term_table",
    "term_value_sum",
    "zero_term",
    "HALF",
]
