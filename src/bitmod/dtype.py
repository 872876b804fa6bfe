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

from .errors import InvalidSpecialValueIndex, OutOfRange, UnsupportedDtype


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


@dataclass(frozen=True, eq=False)
class DataTypeSpec:
    """A named quantization grid with precision metadata.

    ``basic_values`` are the always-available quantization levels;
    ``special_values`` are the per-group selectable extras of the BitMoD
    types (empty otherwise).  The precision metadata, ``bits_per_code``
    among it, is derived from these.  The ten :data:`SPECS` are the only
    instances: a spec compares and hashes by identity, so it is a cheap
    cache key, and copies and pickles come back as the same object.
    """

    name: DataType
    basic_values: tuple[Fraction, ...]
    special_values: tuple[Fraction, ...] = ()
    asymmetric: bool = False  # integer code-space grid with a zero-point

    def __reduce__(self):
        return spec_for, (self.name,)

    @property
    def is_bitmod(self) -> bool:
        return len(self.special_values) > 0

    @cached_property
    def is_fp(self) -> bool:
        """Whether the grid is an FP one: an INT grid holds every integer
        between its ends, and an FP grid does not."""
        grid = self.grids[0]
        return grid != tuple(range(int(grid[0]), int(grid[-1]) + 1))

    @cached_property
    def code_dtype(self) -> np.dtype:
        """The array dtype of this type's codes: int8 for the signed codes
        of a symmetric INT type, uint8 for FP grid indices and asymmetric
        INT codes."""
        return np.dtype(np.int8 if not (self.is_fp or self.asymmetric)
                        else np.uint8)

    @property
    def sv_bits(self) -> int:
        """Stored bits per ``sv_index``: the width that indexes every grid
        (0 for a dtype with one grid)."""
        return (len(self.grids) - 1).bit_length()

    @cached_property
    def bits_per_code(self) -> int:
        """Stored bits per code: the width that indexes every value of a
        grid (all grids of a dtype are the same length)."""
        return (len(self.grids[0]) - 1).bit_length()

    @cached_property
    def terms_per_code(self) -> int:
        """Bit-serial terms the PE consumes per weight: two leading-one
        terms for an FP code, one radix-4 Booth digit per two bits of an
        INT code (b + 1 signed bits once a zero-point re-centers it)."""
        if self.is_fp:
            return 2
        return (self.bits_per_code + self.asymmetric + 1) // 2

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
    vals = {Fraction(0), *map(Fraction, magnitudes)}
    return tuple(sorted(vals | {-v for v in vals}))


def _sym_int_grid(bits: int) -> tuple[Fraction, ...]:
    qmax = (1 << (bits - 1)) - 1
    return tuple(Fraction(v) for v in range(-qmax, qmax + 1))


def _asym_code_grid(bits: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in range(1 << bits))


FP3_VALUES = _sym_fp_grid(1, 2, 4)
FP4_VALUES = _sym_fp_grid(Fraction(1, 2), 1, Fraction(3, 2), 2, 3, 4, 6)

# Special-value candidates: extended resolution (ER) first, extended
# asymmetry (EA) second; index order is the deterministic tie-break.
FP3_SPECIALS = (Fraction(3), Fraction(-3), Fraction(6), Fraction(-6))
FP4_SPECIALS = (Fraction(5), Fraction(-5), Fraction(8), Fraction(-8))


SPECS: dict[DataType, DataTypeSpec] = {spec.name: spec for spec in (
    DataTypeSpec(DataType.INT8_SYM, _sym_int_grid(8)),
    DataTypeSpec(DataType.INT6_SYM, _sym_int_grid(6)),
    # Asymmetric grids live in code space; the zero-point re-centers them.
    DataTypeSpec(DataType.INT6_ASYM, _asym_code_grid(6), asymmetric=True),
    DataTypeSpec(DataType.INT4_SYM, _sym_int_grid(4)),
    DataTypeSpec(DataType.INT4_ASYM, _asym_code_grid(4), asymmetric=True),
    DataTypeSpec(DataType.INT3_ASYM, _asym_code_grid(3), asymmetric=True),
    DataTypeSpec(DataType.FP4_BASIC, FP4_VALUES),
    DataTypeSpec(DataType.FP3_BASIC, FP3_VALUES),
    DataTypeSpec(DataType.FP4_BITMOD, FP4_VALUES, FP4_SPECIALS),
    DataTypeSpec(DataType.FP3_BITMOD, FP3_VALUES, FP3_SPECIALS),
)}


def spec_for(name: DataType | str) -> DataTypeSpec:
    if isinstance(name, str):
        try:
            name = DataType[name.upper().replace("-", "_")]
        except KeyError:
            raise UnsupportedDtype(
                f"unknown data type {name!r}; expected one of "
                f"{', '.join(t.name for t in DataType)}") from None
    return SPECS[name]


@dataclass(frozen=True)
class GroupingConfig:
    """Per-group quantization layout: G weights per group along a channel.

    Channels whose size is not a multiple of ``group_size`` are padded with
    zeros up to the next multiple; padded lanes quantize like weights of
    value 0 and are excluded from error metrics.  ``group_size`` is a
    positive Python or numpy integer, not a bool, and is stored as a Python
    int, so group counts and cycle totals never wrap at a numpy width.
    """

    group_size: int = 128

    def __post_init__(self):
        g = self.group_size
        if type(g) is bool or not isinstance(g, (int, np.integer)) or g < 1:
            raise ValueError(f"group_size must be an integer >= 1, got {g!r}")
        object.__setattr__(self, "group_size", int(g))

    def n_groups(self, size: int) -> int:
        """Groups in a channel of ``size`` weights, the last one padded."""
        return -(-size // self.group_size)


def effective_grid(spec: DataTypeSpec, sv_index: int = 0) -> tuple[Fraction, ...]:
    """Quantization grid with the selected special value merged in.

    Non-BitMoD types have one grid, so ``sv_index`` must be 0; one off
    :func:`sv_range` raises :class:`InvalidSpecialValueIndex`.
    """
    check_range("sv_index", sv_index, *sv_range(spec), spec)
    return spec.grids[int(sv_index)]


def code_range(spec: DataTypeSpec) -> tuple[int, int]:
    """Lowest and highest code a symmetric dtype stores, read from the
    length ``n`` of its grid: the grid indices ``0..n - 1`` of an FP type,
    or the grid's own values ``-(n // 2)..n // 2`` of a symmetric INT
    type.  Other bit patterns are invalid.  Asymmetric types, whose codes
    need a zero-point, raise :class:`UnsupportedDtype`.
    """
    if spec.asymmetric:
        raise UnsupportedDtype(
            f"{spec.name} is a software baseline only; the PE and the BMOD "
            "format take symmetric INT and FP types"
        )
    n = len(spec.grids[0])
    return (0, n - 1) if spec.is_fp else (-(n // 2), n // 2)


# The unsigned 8-bit group scale the PE multiplies by and a record stores.
SCALE_Q_BITS = 8
SCALE_Q_RANGE = (0, (1 << SCALE_Q_BITS) - 1)


def sv_range(spec: DataTypeSpec) -> tuple[int, int]:
    """Lowest and highest ``sv_index`` a group may hold: one per special
    value, and 0 alone for a dtype without them."""
    return 0, len(spec.grids) - 1


def check_range(field: str, values, lo: int, hi: int,
                spec: DataTypeSpec | None = None) -> None:
    """Raise :class:`OutOfRange` (for ``sv_index`` its subclass
    :class:`InvalidSpecialValueIndex`) naming the first of ``values``, a
    scalar or an array, that is not a whole number in ``lo..hi``, and its
    channel and group if the array is (channels, groups, ...)."""
    if type(values) is int and lo <= values <= hi:
        return
    values = np.asarray(values)
    kind = values.dtype.kind
    # Unsigned and boolean values cannot lie below a bound of 0 or less.
    if kind in "biu" and (values.size == 0 or (
            ((kind != "i" and lo <= 0) or values.min() >= lo)
            and values.max() <= hi)):
        return
    with np.errstate(invalid="ignore"):
        bad = ~((values >= lo) & (values <= hi) & (values % 1 == 0))
    if not bad.any():
        return
    at = np.unravel_index(np.argmax(bad), bad.shape)
    where = f" at channel {at[0]}, group {at[1]}" if len(at) > 1 else ""
    error = InvalidSpecialValueIndex if field == "sv_index" else OutOfRange
    raise error(f"{field} {values[at]}{where} is outside [{lo}, {hi}]"
                + (f" for {spec.name}" if spec else ""))
