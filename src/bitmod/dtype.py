"""Quantization data-type definitions.

Every supported data type is an immutable :class:`DataTypeSpec` holding its
quantization grid as exact rationals (``fractions.Fraction`` with
power-of-two denominators), so sorting and equality are exact.  The extended
FP3/FP4 types carry four candidate special values that replace the redundant
negative zero of the sign-magnitude encoding; which one is active is chosen
per weight group (2-bit index).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import EmptyGrid, InvalidSpecialValueIndex, UnsupportedDtype

HALF = Fraction(1, 2)


class DataType(Enum):
    INT8_SYM = 0
    INT6_SYM = 1
    INT6_ASYM = 2
    INT4_SYM = 3
    INT4_ASYM = 4
    INT3_ASYM = 5
    FP4_BASIC = 6
    FP3_BASIC = 7
    FP4_BITMOD = 8
    FP3_BITMOD = 9

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class DataTypeSpec:
    """A named quantization grid with precision metadata.

    ``basic_values`` are the always-available quantization levels;
    ``special_values`` are the per-group selectable extras of the BitMoD
    types (empty otherwise).  ``terms_per_code`` is the number of bit-serial
    terms the PE consumes per weight of this type.
    """

    name: DataType
    basic_values: tuple[Fraction, ...]
    special_values: tuple[Fraction, ...] = ()
    bits_per_code: int = 0
    terms_per_code: int = 0
    asymmetric: bool = False  # integer code-space grid with a zero-point

    @property
    def is_bitmod(self) -> bool:
        return len(self.special_values) > 0

    @cached_property
    def is_fp(self) -> bool:
        return self.name in (
            DataType.FP4_BASIC,
            DataType.FP3_BASIC,
            DataType.FP4_BITMOD,
            DataType.FP3_BITMOD,
        )

    @property
    def sv_bits(self) -> int:
        return 2 if self.is_bitmod else 0

    @cached_property
    def grids(self) -> tuple[tuple[Fraction, ...], ...]:
        """Sorted grid per special value, or ``(basic_values,)`` without."""
        return tuple(tuple(sorted({*self.basic_values, sv}))
                     for sv in self.special_values) or (self.basic_values,)

    @cached_property
    def grid_table(self) -> np.ndarray:
        """``grids`` as a read-only float64 array, one row per grid."""
        table = np.array(self.grids, dtype=np.float64)
        table.flags.writeable = False
        return table


def _sym_fp_grid(*magnitudes) -> tuple[Fraction, ...]:
    vals = {Fraction(0)}
    for m in magnitudes:
        f = Fraction(m)
        vals.add(f)
        vals.add(-f)
    return tuple(sorted(vals))


def _sym_int_grid(bits: int) -> tuple[Fraction, ...]:
    qmax = (1 << (bits - 1)) - 1
    return tuple(Fraction(v) for v in range(-qmax, qmax + 1))


def _asym_code_grid(bits: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in range(1 << bits))


FP3_VALUES = _sym_fp_grid(1, 2, 4)
FP4_VALUES = _sym_fp_grid(HALF, 1, Fraction(3, 2), 2, 3, 4, 6)

# Special-value candidates: extended resolution (ER) first, extended
# asymmetry (EA) second; index order is the deterministic tie-break.
FP3_SPECIALS = (Fraction(3), Fraction(-3), Fraction(6), Fraction(-6))
FP4_SPECIALS = (Fraction(5), Fraction(-5), Fraction(8), Fraction(-8))


SPECS: dict[DataType, DataTypeSpec] = {
    DataType.INT8_SYM: DataTypeSpec(
        DataType.INT8_SYM, _sym_int_grid(8), bits_per_code=8, terms_per_code=4
    ),
    DataType.INT6_SYM: DataTypeSpec(
        DataType.INT6_SYM, _sym_int_grid(6), bits_per_code=6, terms_per_code=3
    ),
    # Asymmetric grids live in code space; the zero-point re-centers them.
    # terms_per_code covers the worst-case re-centered range (b+1 signed bits).
    DataType.INT6_ASYM: DataTypeSpec(
        DataType.INT6_ASYM,
        _asym_code_grid(6),
        bits_per_code=6,
        terms_per_code=4,
        asymmetric=True,
    ),
    DataType.INT4_SYM: DataTypeSpec(
        DataType.INT4_SYM, _sym_int_grid(4), bits_per_code=4, terms_per_code=2
    ),
    DataType.INT4_ASYM: DataTypeSpec(
        DataType.INT4_ASYM,
        _asym_code_grid(4),
        bits_per_code=4,
        terms_per_code=3,
        asymmetric=True,
    ),
    DataType.INT3_ASYM: DataTypeSpec(
        DataType.INT3_ASYM,
        _asym_code_grid(3),
        bits_per_code=3,
        terms_per_code=2,
        asymmetric=True,
    ),
    DataType.FP4_BASIC: DataTypeSpec(
        DataType.FP4_BASIC, FP4_VALUES, bits_per_code=4, terms_per_code=2
    ),
    DataType.FP3_BASIC: DataTypeSpec(
        DataType.FP3_BASIC, FP3_VALUES, bits_per_code=3, terms_per_code=2
    ),
    DataType.FP4_BITMOD: DataTypeSpec(
        DataType.FP4_BITMOD,
        FP4_VALUES,
        FP4_SPECIALS,
        bits_per_code=4,
        terms_per_code=2,
    ),
    DataType.FP3_BITMOD: DataTypeSpec(
        DataType.FP3_BITMOD,
        FP3_VALUES,
        FP3_SPECIALS,
        bits_per_code=3,
        terms_per_code=2,
    ),
}


def spec_for(name: DataType | str) -> DataTypeSpec:
    if isinstance(name, str):
        name = DataType[name.upper().replace("-", "_")]
    return SPECS[name]


@dataclass(frozen=True)
class GroupingConfig:
    """Per-group quantization layout: G weights per group along a channel.

    Channels whose size is not a multiple of ``group_size`` are padded with
    zeros up to the next multiple; padded lanes quantize like weights of
    value 0 and are excluded from error metrics.
    """

    group_size: int = 128

    def __post_init__(self):
        if self.group_size < 1:
            raise ValueError("group_size must be positive")


def effective_grid(spec: DataTypeSpec, sv_index: int = 0) -> tuple[Fraction, ...]:
    """Quantization grid with the selected special value merged in.

    Non-BitMoD types require ``sv_index == 0`` and return the basic grid.
    """
    if spec.is_bitmod:
        if not 0 <= sv_index < len(spec.special_values):
            raise InvalidSpecialValueIndex(
                f"sv_index {sv_index} out of range for {spec.name}"
            )
    elif sv_index != 0:
        raise InvalidSpecialValueIndex(
            f"{spec.name} has no special values; sv_index must be 0"
        )
    return spec.grids[sv_index]


def grid_absmax(grid) -> Fraction:
    """max(|min|, |max|) of a non-empty grid."""
    if len(grid) == 0:
        raise EmptyGrid("grid is empty")
    return max(abs(min(grid)), abs(max(grid)))


def code_range(spec: DataTypeSpec) -> tuple[int, int]:
    """Lowest and highest code a symmetric dtype stores: the grid indices
    of an FP type, or -qmax..qmax of a symmetric INT type.  Other bit
    patterns are invalid.  Asymmetric types, whose codes need a zero-point,
    raise :class:`UnsupportedDtype`.
    """
    if spec.asymmetric:
        raise UnsupportedDtype(
            f"{spec.name} is a software baseline only; the PE and the BMOD "
            "format take symmetric INT and FP types"
        )
    if spec.is_fp:
        return 0, len(spec.grids[0]) - 1
    qmax = (1 << (spec.bits_per_code - 1)) - 1
    return -qmax, qmax
