import math

import numpy as np
import pytest

import pe_oracle
from conftest import exact_dot, oracle_acts, oracle_weight_terms
from bitmod.bitserial import (
    BitSerialTerm,
    SpecialValueRegister,
    encode_weight,
    term_table,
)
from bitmod.dtype import GroupingConfig, code_range, spec_for
from bitmod.errors import OutOfRange, ShapeMismatch, UnsupportedDtype
from bitmod.pe import (
    DEQUANT_CYCLES,
    FP16_MAC_CYCLES_PER_DOT,
    bit_serial_dequant,
    decode_fp16,
    drain_accumulate,
    encode_group_terms,
    group_dot,
    throughput_vs_fp16,
)
from bitmod.quant import (QuantizedGroup, dequantize_tensor, quantize_channel,
                          quantize_symmetric)

PE_DTYPES = ("INT8_SYM", "INT6_SYM", "INT4_SYM",
             "FP3_BASIC", "FP4_BASIC", "FP3_BITMOD", "FP4_BITMOD")


def make_group(rng, spec, g, outlier=False, shift=0.0):
    w = rng.standard_normal(g) + shift
    if outlier:
        w[rng.integers(g)] *= 6.0
    cq = quantize_channel(w, spec, GroupingConfig(group_size=g))
    return cq.groups[0]


def acts_from(rng, g, positive=False):
    a = rng.standard_normal(g)
    if positive:
        a = np.abs(a) + 0.25
    return a.astype(np.float16).astype(np.float64)


def wide_acts_from(rng, g):
    """FP16 activations over every normal exponent (2^-14 .. 2^15), with
    +-0 and subnormals mixed in, so alignment shifts reach their maximum."""
    bits = (rng.integers(0, 2, g) << 15) | (rng.integers(1, 31, g) << 10) \
        | rng.integers(0, 1 << 10, g)
    special = rng.choice(g, 8, replace=False)
    bits[special[:2]] = (0x0000, 0x8000)
    bits[special[2:]] = (rng.integers(0, 2, 6) << 15) \
        | rng.integers(1, 1 << 10, 6)
    return bits.astype(np.uint16).view(np.float16).astype(np.float64)


def int_group(codes):
    return QuantizedGroup(codes=np.array(codes, dtype=np.int64), scale_q=1)


def oracle_group_dot(qg, spec, avals):
    return pe_oracle.dequant(
        pe_oracle.group_dot(oracle_weight_terms(qg, spec), oracle_acts(avals),
                            len(qg.codes), spec.terms_per_code), qg.scale_q)


# ---------------------------------------------------------------------------
# FP16 operand ingestion
# ---------------------------------------------------------------------------

def test_decode_fp16_every_bit_pattern():
    values = np.arange(1 << 16, dtype=np.uint32).astype(np.uint16).view(
        np.float16)
    finite = np.isfinite(values)
    # Every finite FP16 pattern, then float64 values that round to FP16.
    rng = np.random.default_rng(21)
    inputs = np.concatenate([values[finite].astype(np.float64),
                             rng.standard_normal(500) * 100])
    ops = decode_fp16(inputs)
    assert ops.dtype == np.float64 and ops.shape == inputs.shape
    for i, x in enumerate(inputs):
        sign, a_e, a_m = pe_oracle.fp16_operand(x)
        assert ops[i] == (-1) ** sign * a_m * 2 ** a_e
    assert np.all((ops == 0) == (np.abs(inputs.astype(np.float16))
                                 < 2.0 ** -14))
    # NaN and infinite patterns, and float64 values that overflow FP16.
    for x in [*values[~finite], 65520.0, -1e9]:
        with pytest.raises(ValueError):
            decode_fp16([1.0, x])
        with pytest.raises(ValueError):
            decode_fp16(x)


# ---------------------------------------------------------------------------
# lanes that leave the accumulator unchanged
# ---------------------------------------------------------------------------

def test_group_dot_inactive_lanes_keep_state():
    # A quad of zero codes, or of zero activations, adds no term: the
    # 8-weight group equals its live quad alone.
    spec = spec_for("INT4_SYM")
    live, acts = [3, -7, 5, 1], [1.5, -0.75, 2.0, 0.375]
    want = oracle_group_dot(int_group(live), spec, acts)
    for codes, avals in ((live + [0] * 4, acts + [1.0] * 4),
                         ([0] * 4 + live, [1.0] * 4 + acts),
                         (live + [6, -5, 7, 2], acts + [0.0, -0.0, 0.0, 0.0])):
        qg = int_group(codes)
        gps, _ = group_dot(qg, avals, spec)
        assert (gps.m_grp, gps.e_grp) == oracle_group_dot(qg, spec, avals) \
            == want


def test_group_dot_exact_cancellation_keeps_state():
    # Codes 1, -1, 3, -3 Booth-encode to digits that cancel in both term
    # slots, so against equal activations every adder tree sums to 0.
    spec = spec_for("INT4_SYM")
    live, acts = [3, -7, 5, 1], [1.5, -0.75, 2.0, 0.375]
    want = oracle_group_dot(int_group(live), spec, acts)
    assert want[0] != 0
    for codes, avals in ((live + [1, -1, 3, -3], acts + [2.5] * 4),
                         ([1, -1, 3, -3] + live, [2.5] * 4 + acts)):
        qg = int_group(codes)
        gps, _ = group_dot(qg, avals, spec)
        assert (gps.m_grp, gps.e_grp) == oracle_group_dot(qg, spec, avals) \
            == want


# ---------------------------------------------------------------------------
# dequantization
# ---------------------------------------------------------------------------

def test_bit_serial_dequant_exact_and_fixed_latency():
    for m in (123456789, -(1 << 31), (1 << 32) - 1):
        for sq in (0, 1, 77, 127, 255, np.uint8(200)):
            gps, cycles = bit_serial_dequant(m, -7, sq)
            assert cycles == DEQUANT_CYCLES == 8
            assert gps.m_grp == m * int(sq) and type(gps.m_grp) is int
            assert gps.e_grp == -7
    for sq in (256, -1):
        with pytest.raises(ValueError):
            bit_serial_dequant(123456789, -7, sq)


# ---------------------------------------------------------------------------
# group dot products
# ---------------------------------------------------------------------------

def test_group_dot_cycle_counts():
    rng = np.random.default_rng(23)
    for name, expect in (("FP3_BITMOD", 64), ("FP4_BITMOD", 64),
                         ("INT6_SYM", 96), ("INT8_SYM", 128)):
        spec = spec_for(name)
        qg = make_group(rng, spec, 128)
        _, cycles = group_dot(qg, acts_from(rng, 128), spec)
        assert cycles == expect


def test_group_dot_on_grid_is_exact():
    spec = spec_for("FP3_BASIC")
    codes = np.array([spec.basic_values.index(1)] * 8)
    qg = QuantizedGroup(codes=codes, scale_q=1)
    gps, cycles = group_dot(qg, [1.0] * 8, spec)
    assert gps.value == 8.0
    assert cycles == 4


def test_group_dot_rejects_asymmetric_and_bad_shapes():
    spec = spec_for("INT4_ASYM")
    qg = QuantizedGroup(codes=np.zeros(8, dtype=np.int64), scale_q=1)
    with pytest.raises(UnsupportedDtype):
        group_dot(qg, [1.0] * 8, spec)
    sym = spec_for("INT4_SYM")
    with pytest.raises(ShapeMismatch):
        group_dot(QuantizedGroup(codes=np.zeros(6, dtype=np.int64)),
                  [1.0] * 6, sym)
    with pytest.raises(ShapeMismatch):
        group_dot(QuantizedGroup(codes=np.zeros(8, dtype=np.int64)),
                  [1.0] * 4, sym)
    # The lane-major layout would broadcast a second axis silently.
    with pytest.raises(ShapeMismatch):
        group_dot(QuantizedGroup(codes=np.zeros((4, 4), dtype=np.int64)),
                  [1.0] * 4, sym)
    with pytest.raises(ShapeMismatch):
        group_dot(QuantizedGroup(codes=np.zeros(4, dtype=np.int64)),
                  [[1.0, 2.0]] * 4, sym)


@pytest.mark.parametrize("name", PE_DTYPES)
def test_group_dot_matches_oracle(name):
    rng = np.random.default_rng(24)
    spec = spec_for(name)
    for g in (16, 32, 64, 128):
        for _ in range(40):
            qg = make_group(rng, spec, g, outlier=rng.random() < 0.3)
            avals = acts_from(rng, g) if g < 128 else wide_acts_from(rng, g)
            gps, _ = group_dot(qg, avals, spec)
            assert (gps.m_grp, gps.e_grp) == oracle_group_dot(qg, spec, avals)


@pytest.mark.parametrize("name", ("FP3_BITMOD", "INT8_SYM"))
def test_group_dot_relative_error(name):
    rng = np.random.default_rng(25)
    spec = spec_for(name)
    # Positive-mean weights and activations keep the dot product well
    # conditioned, so the bound measures arithmetic error, not cancellation.
    for _ in range(100):
        qg = make_group(rng, spec, 128, shift=4.0)
        avals = acts_from(rng, 128, positive=True)
        gps, _ = group_dot(qg, avals, spec)
        exact = exact_dot(qg, spec, avals)
        if exact == 0.0:
            assert gps.m_grp == 0
            continue
        assert abs(gps.value - exact) / abs(exact) < 2.0 ** -7


@pytest.mark.parametrize(("name", "code"), [
    ("FP3_BITMOD", -1), ("FP3_BITMOD", 8), ("FP3_BASIC", -3),
    ("FP3_BASIC", 7), ("FP4_BASIC", 15), ("INT6_SYM", -32), ("INT6_SYM", 32),
    ("INT8_SYM", -128)])
def test_group_dot_rejects_off_grid_codes(name, code):
    spec = spec_for(name)
    codes = np.zeros(8, dtype=np.int64)
    codes[5] = code
    with pytest.raises(OutOfRange):
        group_dot(QuantizedGroup(codes=codes, scale_q=1), [1.0] * 8, spec)


@pytest.mark.parametrize("codes", ([2.7, 1, 0, 3], [2, 1, 0, 3.5],
                                   [np.nan, 1, 0, 3], [2, 1, 0, np.inf]))
def test_group_dot_rejects_non_integer_codes(codes):
    # Truncating 2.7 to 2 would give the result of [2, 1, 0, 3] silently.
    spec = spec_for("FP3_BITMOD")
    qg = QuantizedGroup(codes=np.array(codes), scale_q=1)
    with pytest.raises(OutOfRange):
        group_dot(qg, [1.0, 0.5, -2.0, 3.0], spec)
    whole = QuantizedGroup(codes=np.array([2.0, 1.0, 0.0, 3.0]), scale_q=1)
    assert group_dot(whole, [1.0, 0.5, -2.0, 3.0], spec) == group_dot(
        QuantizedGroup(codes=np.array([2, 1, 0, 3]), scale_q=1),
        [1.0, 0.5, -2.0, 3.0], spec)


def test_group_dot_rejects_empty_group():
    for spec in (spec_for("FP3_BITMOD"), spec_for("INT6_SYM")):
        with pytest.raises(ShapeMismatch):
            group_dot(QuantizedGroup(codes=np.zeros(0, dtype=np.int64),
                                     scale_q=1), [], spec)


@pytest.mark.parametrize(("name", "codes"), [
    # Unwidened, int8 100 - lo (-127) wraps and uint8 codes - lo (-31)
    # raises OverflowError.
    ("INT8_SYM", [100, -127, 127, 0, -3, 55, 1, -100]),
    ("INT6_SYM", [31, 0, 5, 17, 2, 30, 1, 9]),
    ("FP3_BITMOD", [7, 0, 3, 4, 6, 1, 2, 5])])
def test_group_dot_code_dtypes_agree(name, codes):
    spec = spec_for(name)
    sv_index = 1 if spec.is_bitmod else 0
    avals = [1.5, -0.75, 2.0, 0.375, 65504.0, 2.0 ** -14, -3.0, 0.0]
    want = group_dot(QuantizedGroup(codes=codes, sv_index=sv_index,
                                    scale_q=200), avals, spec)
    ref = QuantizedGroup(codes=np.array(codes), sv_index=sv_index,
                         scale_q=200)
    assert (want[0].m_grp, want[0].e_grp) == oracle_group_dot(ref, spec,
                                                              avals)
    dtypes = (np.int8, np.int16, np.int64) + ((np.uint8,) if min(codes) >= 0
                                              else ())
    for dt in dtypes:
        qg = QuantizedGroup(codes=np.array(codes, dtype=dt),
                            sv_index=sv_index, scale_q=200)
        assert group_dot(qg, avals, spec) == want, dt


def test_encode_group_terms_layout():
    spec = spec_for("INT6_SYM")
    codes, _ = quantize_symmetric([1.0, -1.0, 0.5, 0.25, -0.75, 0.0, 0.125,
                                   -0.5], 6)
    w, bsig = encode_group_terms(QuantizedGroup(codes=codes), spec)
    # Lane-major: lane l of quad q is weight 4q + l.
    assert w.shape == (4, 2, 3) and w.dtype == np.float64
    assert bsig.tolist() == [0, 2, 4]
    for i, code in enumerate(codes):
        want = [(-1) ** t.sign * t.man * 2 ** t.exp
                for t in encode_weight(int(code), spec)]
        assert w[i % 4, i // 4].tolist() == want


@pytest.mark.parametrize("name", PE_DTYPES)
def test_term_table_matches_encode_weight(name):
    spec = spec_for(name)
    lo, hi = code_range(spec)
    svreg = SpecialValueRegister.program(spec) if spec.is_bitmod else None
    for sv_index in range(max(1, len(spec.special_values))):
        table = term_table(spec, sv_index)
        n_codes = (len(spec.grids[sv_index]) if spec.is_fp
                   else 2 ** spec.bits_per_code - 1)
        assert hi - lo + 1 == n_codes
        assert table.sign.shape == (n_codes, spec.terms_per_code)
        assert not table.sign.flags.writeable
        for code in range(lo, hi + 1):
            want = encode_weight(code, spec, svreg, sv_index)
            got = [BitSerialTerm(int(table.sign[code - lo, t]),
                                 int(table.exp[code - lo, t]),
                                 int(table.man[code - lo, t]),
                                 int(table.bsig[t]))
                   for t in range(spec.terms_per_code)]
            assert got == want, (name, sv_index, code)
            assert table.value[code - lo].tolist() == [
                (-1) ** t.sign * t.man * 2 ** t.exp for t in want]


def test_drain_accumulate():
    from bitmod.pe import GroupPartialSum
    parts = [GroupPartialSum(3, 2), GroupPartialSum(-5, 0), GroupPartialSum(0, 9)]
    assert drain_accumulate(parts, 0.5) == np.float32((12 - 5) * 0.5)
    assert drain_accumulate([GroupPartialSum(0, 0)], 1.0) == np.float32(0.0)
    with pytest.raises(ValueError):
        drain_accumulate([], 1.0)


def test_throughput_ratios():
    assert FP16_MAC_CYCLES_PER_DOT == 4
    assert throughput_vs_fp16(spec_for("FP3_BITMOD")) == 2.0
    assert throughput_vs_fp16(spec_for("FP4_BITMOD")) == 2.0
    assert throughput_vs_fp16(spec_for("INT6_SYM")) == pytest.approx(4 / 3)
    assert throughput_vs_fp16(spec_for("INT8_SYM")) == 1.0


def test_channel_dot_end_to_end_close_to_float():
    # Quantize a channel, run every group through the PE, drain, and compare
    # against the plain float dot product of the dequantized channel.
    rng = np.random.default_rng(26)
    spec = spec_for("FP4_BITMOD")
    grouping = GroupingConfig(group_size=32)
    w = rng.standard_normal(128) + 3.0
    avals = acts_from(rng, 128, positive=True)
    cq = quantize_channel(w, spec, grouping)
    parts = []
    for i, qg in enumerate(cq.groups):
        gps, _ = group_dot(qg, avals[i * 32:(i + 1) * 32], spec)
        parts.append(gps)
    got = drain_accumulate(parts, cq.channel_scale)
    want = float(np.dot(dequantize_tensor(cq), avals))
    assert math.isclose(float(got), want, rel_tol=2.0 ** -7)
