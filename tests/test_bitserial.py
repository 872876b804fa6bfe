from fractions import Fraction

import pytest

import pe_oracle
from bitmod.bitserial import (
    BitSerialTerm,
    FixedPointCode,
    booth_encode,
    encode_weight,
    fixed_point_of,
    lod_decode,
    term_value_sum,
)
from bitmod.dtype import effective_grid, spec_for
from bitmod.errors import (
    InvalidSpecialValueIndex,
    OutOfRange,
    TooManySetBits,
    UnrepresentableValue,
    UnsupportedDtype,
)

F = Fraction


def test_term_value():
    assert BitSerialTerm(sign=0, exp=2, man=1, bsig=-1).value == 2
    assert BitSerialTerm(sign=1, exp=1, man=1, bsig=0).value == -2
    assert BitSerialTerm(sign=1, exp=3, man=0, bsig=0).value == 0


def test_booth_example_value_3_int8():
    terms = booth_encode(3, 8)
    assert len(terms) == 4
    assert terms[0] == BitSerialTerm(sign=1, exp=0, man=1, bsig=0)  # -1
    assert terms[1] == BitSerialTerm(sign=0, exp=0, man=1, bsig=2)  # +4
    assert terms[2].man == 0 and terms[3].man == 0
    assert term_value_sum(terms) == 3


@pytest.mark.parametrize("bits,n_terms", [(8, 4), (6, 3), (4, 2), (3, 2), (2, 1)])
def test_booth_exhaustive_reconstruction(bits, n_terms):
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    for value in range(lo, hi + 1):
        terms = booth_encode(value, bits)
        assert len(terms) == n_terms
        assert term_value_sum(terms) == value
        for i, t in enumerate(terms):
            assert t.bsig == 2 * i
            assert t.exp in (0, 1)


def test_booth_matches_table_driven_oracle():
    # Odd widths lean on ``>>`` sign-extending past the top bit.
    for bits in range(2, 9):
        n_terms = (bits + 1) // 2
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
        for value in range(lo, hi + 1):
            got = tuple((t.sign, t.exp, t.man, t.bsig)
                        for t in booth_encode(value, bits))
            assert got == pe_oracle.booth_terms(value, n_terms)


def test_booth_range_errors():
    with pytest.raises(OutOfRange):
        booth_encode(128, 8)
    with pytest.raises(OutOfRange):
        booth_encode(-129, 8)
    with pytest.raises(OutOfRange):
        booth_encode(0, 1)


def test_fixed_point_of():
    fp = fixed_point_of(F(3, 2))
    assert (fp.sign, fp.mag_half) == (0, 3)
    assert fp.value == F(3, 2)
    fp = fixed_point_of(-6)
    assert (fp.sign, fp.mag_half) == (1, 12)
    assert fixed_point_of(8).mag_half == 16
    assert fixed_point_of(12).mag_half == 24
    with pytest.raises(UnrepresentableValue):
        fixed_point_of(F(1, 4))  # finer than the 0.5 LSB
    with pytest.raises(UnrepresentableValue):
        fixed_point_of(16)  # beyond 15.5, the top of the 4 integer bits
    with pytest.raises(UnrepresentableValue):
        FixedPointCode(sign=0, mag_half=32)


def test_fixed_point_bits():
    fp = fixed_point_of(F(13, 2))  # 6.5 = 0110.1
    assert fp.mag_half == 0b01101  # I3 I2 I1 I0 F0
    assert fp.set_bits == 3


def test_lod_two_window_split_of_6():
    t1, t2 = lod_decode(fixed_point_of(6))
    assert (t1.exp, t1.bsig, t1.value) == (2, 0, 4)
    assert (t2.exp, t2.bsig, t2.value) == (2, -1, 2)


def test_lod_single_window_values():
    t1, t2 = lod_decode(fixed_point_of(4))
    assert t1.value == 4 and t2.man == 0
    t1, t2 = lod_decode(fixed_point_of(F(1, 2)))
    assert t1.man == 0 and t2.value == F(1, 2)


def test_lod_rejects_three_set_bits():
    with pytest.raises(TooManySetBits):
        lod_decode(fixed_point_of(7))  # 111.0
    with pytest.raises(TooManySetBits):
        lod_decode(fixed_point_of(F(13, 2)))


def test_lod_exhaustive_against_oracle():
    for mag_half in range(32):
        for sign in (0, 1):
            fp = FixedPointCode(sign=sign, mag_half=mag_half)
            value = fp.value
            if fp.set_bits > 2:
                continue
            try:
                got = tuple((t.sign, t.exp, t.man, t.bsig)
                            for t in lod_decode(fp))
            except TooManySetBits:
                with pytest.raises(ValueError):
                    pe_oracle.fp_terms(value)
                continue
            assert term_value_sum(lod_decode(fp)) == value
            if mag_half:
                assert got == pe_oracle.fp_terms(value)


def test_lod_covers_every_two_bit_pattern():
    # Window 1 takes the leading integer bit; window 2 reaches down to F0,
    # so any magnitude with at most two set bits decodes exactly.
    t1, t2 = lod_decode(FixedPointCode(sign=0, mag_half=0b10001))  # 8.5
    assert t1.value == 8 and t2.value == F(1, 2)


def test_encoder_range_matches_oracle():
    # The encoder and the independent oracle accept the same fixed-point
    # range, 0..15.5, and split each value in it the same way.  Each
    # half-integer in -16.5..16.5 goes through the special slot of
    # FP3_BITMOD (code 6 at sv_index 0).
    spec = spec_for("FP3_BITMOD")
    for v in (F(h, 2) for h in range(-33, 34)):
        register = (v,) + spec.special_values[1:]
        try:
            got = tuple((t.sign, t.exp, t.man, t.bsig)
                        for t in encode_weight(6, spec, register, 0))
        except (UnrepresentableValue, TooManySetBits):
            with pytest.raises(ValueError):
                pe_oracle.fp_terms(v)
        else:
            assert got == pe_oracle.fp_terms(v), v


def test_encode_weight_fp_codes_round_trip_all_svs():
    for name in ("FP3_BITMOD", "FP4_BITMOD", "FP3_BASIC", "FP4_BASIC"):
        spec = spec_for(name)
        n_sv = len(spec.special_values) if spec.is_bitmod else 1
        for sv_index in range(n_sv):
            grid = effective_grid(spec, sv_index)
            for code, value in enumerate(grid):
                terms = encode_weight(code, spec, sv_index=sv_index)
                assert len(terms) == spec.terms_per_code
                assert term_value_sum(terms) == value


def test_encode_weight_special_slot_uses_register_entry():
    # Mis-programming the register must change the decoded special value
    # and nothing else.
    spec = spec_for("FP3_BITMOD")
    reg = (5, -3, 6, -6)
    grid = effective_grid(spec, 0)  # contains +3 at the special slot
    for code, value in enumerate(grid):
        got = term_value_sum(encode_weight(code, spec, reg, 0))
        assert got == (5 if value == 3 else value)


def test_encode_weight_int_paths():
    sym = spec_for("INT6_SYM")
    for code in (-31, -1, 0, 17, 31):
        terms = encode_weight(code, sym)
        assert len(terms) == 3
        assert term_value_sum(terms) == code
    # Asymmetric codes need a zero-point, which neither the PE nor the
    # encoder takes.
    with pytest.raises(UnsupportedDtype):
        encode_weight(3, spec_for("INT4_ASYM"))


def test_encode_weight_rejects_an_unprogrammed_sv_index():
    with pytest.raises(InvalidSpecialValueIndex):
        encode_weight(0, spec_for("FP3_BITMOD"), sv_index=4)
    # An INT type has one grid; index 5 returned terms.
    with pytest.raises(InvalidSpecialValueIndex):
        encode_weight(0, spec_for("INT6_SYM"), sv_index=5)


@pytest.mark.parametrize("name,code", [("FP3_BITMOD", -1), ("FP3_BITMOD", 8),
                                       ("FP4_BASIC", -1), ("FP4_BASIC", 15)])
def test_encode_weight_rejects_off_grid_fp_codes(name, code):
    # A negative code must not wrap to the top of the grid.
    with pytest.raises(OutOfRange):
        encode_weight(code, spec_for(name))
