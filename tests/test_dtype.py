import copy
import pickle
import re
from fractions import Fraction

import numpy as np
import pytest

from bitmod.dtype import (
    DataType,
    GroupingConfig,
    SPECS,
    effective_grid,
    spec_for,
)
from bitmod.errors import InvalidSpecialValueIndex

F = Fraction


def grid(*vals):
    return tuple(F(v) for v in vals)


def test_fp3_basic_values():
    assert spec_for("FP3_BASIC").basic_values == grid(-4, -2, -1, 0, 1, 2, 4)


def test_fp4_basic_values():
    spec = spec_for("FP4_BASIC")
    assert spec.basic_values == grid(
        -6, -4, -3, -2, F(-3, 2), -1, F(-1, 2), 0,
        F(1, 2), 1, F(3, 2), 2, 3, 4, 6,
    )


def test_special_value_order_er_before_ea():
    assert spec_for("FP3_BITMOD").special_values == grid(3, -3, 6, -6)
    assert spec_for("FP4_BITMOD").special_values == grid(5, -5, 8, -8)


def test_int_grids():
    assert spec_for("INT4_SYM").basic_values == tuple(F(v) for v in range(-7, 8))
    assert spec_for("INT4_ASYM").basic_values == tuple(F(v) for v in range(16))
    assert spec_for("INT8_SYM").basic_values[0] == -127
    assert spec_for("INT8_SYM").basic_values[-1] == 127


@pytest.mark.parametrize("name,bits,terms", [
    ("INT8_SYM", 8, 4),
    ("INT6_SYM", 6, 3),
    ("INT6_ASYM", 6, 4),
    ("INT4_SYM", 4, 2),
    ("INT4_ASYM", 4, 3),
    ("INT3_ASYM", 3, 2),
    ("FP4_BASIC", 4, 2),
    ("FP3_BASIC", 3, 2),
    ("FP4_BITMOD", 4, 2),
    ("FP3_BITMOD", 3, 2),
])
def test_precision_metadata(name, bits, terms):
    spec = spec_for(name)
    assert spec.bits_per_code == bits
    assert spec.terms_per_code == terms


@pytest.mark.parametrize("dt", list(DataType), ids=str)
def test_specs_are_singletons(dt):
    # A spec is a cache key by identity: copies and pickles must come back
    # as the one instance in SPECS.
    spec = SPECS[dt]
    assert copy.copy(spec) is spec
    assert copy.deepcopy(spec) is spec
    assert pickle.loads(pickle.dumps(spec)) is spec
    assert hash(spec) == object.__hash__(spec)


def test_spec_for_accepts_enum_and_loose_strings():
    assert spec_for(DataType.FP3_BITMOD) is SPECS[DataType.FP3_BITMOD]
    assert spec_for("fp3-bitmod").name is DataType.FP3_BITMOD


def test_effective_grid_merges_special_value():
    spec = spec_for("FP3_BITMOD")
    ea_plus = spec.special_values.index(F(6))
    assert effective_grid(spec, ea_plus) == grid(-4, -2, -1, 0, 1, 2, 4, 6)
    assert effective_grid(spec_for("FP3_BASIC"), 0) == grid(-4, -2, -1, 0, 1, 2, 4)


def test_effective_grid_fp4_minus_5():
    spec = spec_for("FP4_BITMOD")
    idx = spec.special_values.index(F(-5))
    assert effective_grid(spec, idx) == grid(
        -6, -5, -4, -3, -2, F(-3, 2), -1, F(-1, 2), 0,
        F(1, 2), 1, F(3, 2), 2, 3, 4, 6,
    )


def test_effective_grid_always_adds_exactly_one_value():
    for name in ("FP3_BITMOD", "FP4_BITMOD"):
        spec = spec_for(name)
        for i in range(4):
            g = effective_grid(spec, i)
            assert len(g) == len(spec.basic_values) + 1
            assert list(g) == sorted(g)


def test_effective_grid_index_errors():
    with pytest.raises(InvalidSpecialValueIndex):
        effective_grid(spec_for("FP3_BITMOD"), 4)
    with pytest.raises(InvalidSpecialValueIndex):
        effective_grid(spec_for("FP3_BASIC"), 1)


def test_er_preserves_absmax_ea_extends_it():
    for name, base, ea in (("FP3_BITMOD", 4, 6), ("FP4_BITMOD", 6, 8)):
        spec = spec_for(name)
        absmax = [max(map(abs, effective_grid(spec, i))) for i in range(4)]
        assert absmax == [base, base, ea, ea]


def test_grouping_config_rejects_nonpositive_group_size():
    # A float, a bool, a string and None used to be accepted, or refused by
    # a bare comparison, and failed later with numpy's or Fraction's
    # TypeError.
    for g in (0, -1, -128, 128.0, True, "128", None):
        message = f"group_size must be an integer >= 1, got {g!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GroupingConfig(group_size=g)


@pytest.mark.parametrize("g, size, n_groups", [
    (128, 300, 3), (128, 256, 2), (32, 1, 1), (7, 300, 43), (1, 5, 5),
    # A numpy size is stored as an int.  It used to be kept as it was, and
    # the count then came back as a numpy integer, or raised OverflowError
    # ("Python integer -100 out of bounds for uint8").
    (np.int64(128), 300, 3), (np.uint8(128), 100, 1), (np.int8(64), 300, 5),
    (np.uint64(128), 300, 3)])
def test_grouping_config_counts_padded_groups(g, size, n_groups):
    grouping = GroupingConfig(group_size=g)
    assert type(grouping.group_size) is int and grouping.group_size == g
    count = grouping.n_groups(size)
    assert type(count) is int and count == n_groups


def test_dtype_ids_are_stable():
    # These feed the packed-file header; changing them breaks old files.
    assert DataType.INT8_SYM.value == 0
    assert DataType.FP4_BITMOD.value == 8
    assert DataType.FP3_BITMOD.value == 9


@pytest.mark.parametrize("dt", list(DataType), ids=str)
def test_is_fp_matches_fp_membership_and_is_cached(dt):
    spec = SPECS[dt]
    assert spec.is_fp is (dt in (DataType.FP4_BASIC, DataType.FP3_BASIC,
                                 DataType.FP4_BITMOD, DataType.FP3_BITMOD))
    # Computed once, then read from the instance like a field.
    assert vars(spec)["is_fp"] is spec.is_fp
