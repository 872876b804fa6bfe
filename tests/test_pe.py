import math
import re

import numpy as np
import pytest

import pe_oracle
from conftest import PE_DTYPES, exact_dot, oracle_acts, oracle_weight_terms
from bitmod import _kernels, bitserial, synth
from bitmod.archsim import FP16_MAC_CYCLES_PER_DOT
from bitmod.bitserial import encode_weight, term_table
from bitmod.dtype import (GroupingConfig, code_range, effective_grid,
                          spec_for, sv_range)
from bitmod.errors import (InvalidSpecialValueIndex, OutOfRange,
                           ShapeMismatch, UnsupportedDtype)
from bitmod.pe import (
    DEQUANT_CYCLES,
    bit_serial_dequant,
    decode_fp16,
    drain_accumulate,
    encode_group_terms,
    group_cycles,
    group_dot,
)
from bitmod.quant import (QuantizedGroup, _quantize_symmetric,
                          dequantize_tensor, quantize_tensor)


def make_group(rng, spec, g, outlier=False, shift=0.0):
    w = rng.standard_normal(g) + shift
    if outlier:
        w[rng.integers(g)] *= 6.0
    qt = quantize_tensor(w[None], spec, GroupingConfig(group_size=g))
    return qt[0].groups[0]


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
    # The latency is a constant, not a return value.
    assert DEQUANT_CYCLES == 8
    for m in (123456789, -(1 << 31), (1 << 32) - 1):
        for sq in (0, 1, 77, 127, 255, np.uint8(200)):
            gps = bit_serial_dequant(m, -7, sq)
            assert gps.m_grp == m * int(sq) and type(gps.m_grp) is int
            assert gps.e_grp == -7
    for sq in (256, -1, 2.5):
        with pytest.raises(OutOfRange):
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
        assert cycles == group_cycles(spec, 128) == expect


def test_group_dot_on_grid_is_exact():
    spec = spec_for("FP3_BASIC")
    codes = np.array([spec.basic_values.index(1)] * 8)
    qg = QuantizedGroup(codes=codes, scale_q=1)
    gps, cycles = group_dot(qg, [1.0] * 8, spec)
    assert math.ldexp(gps.m_grp, gps.e_grp) == 8.0
    assert cycles == 4


def test_group_dot_reraises_a_kernel_error_on_valid_inputs(monkeypatch):
    # Every check passes, so the kernel's own error is what comes out.
    error = RuntimeError("kernel failed")

    def fail(terms, ops):
        raise error

    monkeypatch.setattr(_kernels, "run_group_dot", fail)
    rng = np.random.default_rng(59)
    spec = spec_for("FP3_BITMOD")
    with pytest.raises(RuntimeError) as ei:
        group_dot(make_group(rng, spec, 32), acts_from(rng, 32), spec)
    assert ei.value is error


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
        got = math.ldexp(gps.m_grp, gps.e_grp)
        assert abs(got - exact) / abs(exact) < 2.0 ** -7


@pytest.mark.parametrize(("name", "code"), [
    ("FP3_BITMOD", -1), ("FP3_BITMOD", 8), ("FP3_BASIC", -3),
    ("FP3_BASIC", 7), ("FP4_BASIC", 15), ("INT6_SYM", -32), ("INT6_SYM", 32),
    ("INT8_SYM", -128),
    # Off the grid, but their low byte is an on-grid code's: 259 and 3,
    # 261 and 5, -253 and 3, 256 and 0.
    ("FP3_BITMOD", 259), ("INT6_SYM", 261), ("INT6_SYM", -253),
    ("INT4_SYM", 256)])
def test_group_dot_rejects_off_grid_codes(name, code):
    spec = spec_for(name)
    lo, hi = code_range(spec)
    message = re.escape(f"code {code} is outside [{lo}, {hi}] for {name}")
    for dt in (np.int8, np.uint8, np.int16, np.int64):
        if not np.iinfo(dt).min <= code <= np.iinfo(dt).max:
            continue
        codes = np.zeros(8, dtype=dt)
        codes[5] = code
        with pytest.raises(OutOfRange, match=message):
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


@pytest.mark.parametrize(("name", "field", "value", "error"), [
    ("FP3_BITMOD", "scale_q", 300, OutOfRange),
    ("FP3_BITMOD", "scale_q", -1, OutOfRange),
    ("FP3_BITMOD", "scale_q", 2.5, OutOfRange),
    ("FP3_BITMOD", "sv_index", 4, InvalidSpecialValueIndex),
    ("FP3_BITMOD", "sv_index", 1.5, InvalidSpecialValueIndex),
    ("FP3_BASIC", "sv_index", 1, InvalidSpecialValueIndex),
    ("INT6_SYM", "sv_index", 5, InvalidSpecialValueIndex)])
def test_group_dot_refuses_what_a_record_cannot_hold(name, field, value,
                                                     error):
    # scale_q 300 and -1 raised ValueError, 2.5 TypeError; an INT group's
    # sv_index 5 passed, though pack refuses it.
    qg = QuantizedGroup(codes=np.zeros(8, dtype=np.int64), scale_q=1)
    setattr(qg, field, value)
    with pytest.raises(error, match=f"{field} {value} is outside"):
        group_dot(qg, [1.0] * 8, spec_for(name))


def seeded_codes(rng, spec, g):
    lo, hi = code_range(spec)
    return rng.integers(lo, hi + 1, g).astype(spec.code_dtype)


def zero_codes(spec, sv_index, g):
    """``g`` codes of value 0, whose terms are all 0."""
    zero = effective_grid(spec, sv_index).index(0) if spec.is_fp else 0
    return np.full(g, zero, dtype=spec.code_dtype)


@pytest.mark.parametrize("name", ("FP3_BITMOD", "INT6_SYM"))
def test_group_dot_rejects_nan_inf_activations(name):
    # Every NaN/Inf FP16 pattern in lane 0 of an 8-weight group, and NaN,
    # Inf and values that overflow FP16 at every position of a 128-weight
    # group; against seeded codes, and against codes of value 0, where no
    # live term meets the bad lane.
    spec = spec_for(name)
    rng = np.random.default_rng(31)
    sv_index = 2 if spec.is_bitmod else 0
    bits = np.arange(1 << 16).astype(np.uint16)
    patterns = bits[bits & 0x7C00 == 0x7C00]
    assert len(patterns) == 2048
    cases = []
    for p in patterns:
        acts = acts_from(rng, 8).astype(np.float16)
        acts.view(np.uint16)[0] = p
        cases.append(acts)
    for x in (np.nan, np.inf, 65520.0, -1e9):
        for i in range(128):
            acts = acts_from(rng, 128)
            acts[i] = x
            cases.append(acts)
    for acts in cases:
        g = len(acts)
        for codes in (seeded_codes(rng, spec, g),
                      zero_codes(spec, sv_index, g)):
            qg = QuantizedGroup(codes=codes, sv_index=sv_index, scale_q=77)
            with pytest.raises(ValueError,
                               match="NaN/Inf activation rejected"):
                group_dot(qg, acts, spec)


@pytest.mark.parametrize("name", PE_DTYPES)
def test_group_dot_rejects_every_byte_that_is_no_code(name):
    # Codes of the dtype's own code_dtype index the term table as they are.
    spec = spec_for(name)
    lo, hi = code_range(spec)
    byte = np.iinfo(spec.code_dtype)
    rng = np.random.default_rng(32)
    acts = acts_from(rng, 8)
    for sv_index in range(sv_range(spec)[1] + 1):
        for code in range(byte.min, byte.max + 1):
            if lo <= code <= hi:
                continue
            message = re.escape(f"code {code} is outside [{lo}, {hi}] "
                                f"for {name}")
            for lane in range(4):
                codes = seeded_codes(rng, spec, 8)
                codes[lane] = code
                qg = QuantizedGroup(codes=codes, sv_index=sv_index,
                                    scale_q=5)
                with pytest.raises(OutOfRange, match=message) as raised:
                    group_dot(qg, acts, spec)
                assert type(raised.value) is OutOfRange


@pytest.mark.parametrize("code_dtype", ("own", np.int64))
@pytest.mark.parametrize(("name", "off_grid", "bad_sv"), [
    ("FP3_BITMOD", 8, 4), ("INT6_SYM", -32, 1)])
@pytest.mark.parametrize(("fields", "error", "message"), [
    (("act", "code"), ValueError, "NaN/Inf activation rejected"),
    (("act", "sv_index"), ValueError, "NaN/Inf activation rejected"),
    (("code", "sv_index"), OutOfRange, "code {code} is outside [{lo}, {hi}]"
                                       " for {name}"),
    (("code", "scale_q"), OutOfRange, "code {code} is outside [{lo}, {hi}]"
                                      " for {name}")])
def test_group_dot_which_bad_field_is_named(name, off_grid, bad_sv,
                                            code_dtype, fields, error,
                                            message):
    # Of two bad fields, the one checked first names the error: the
    # activations, then the codes, then sv_index, then scale_q.
    spec = spec_for(name)
    lo, hi = code_range(spec)
    codes = np.array([1, 2, 3, 0, 1, 2, 3, 0],
                     dtype=spec.code_dtype if code_dtype == "own"
                     else code_dtype)
    acts = [1.5, -0.75, 2.0, 0.375, 3.0, -1.0, 0.5, 4.0]
    qg = QuantizedGroup(codes=codes, sv_index=0, scale_q=1)
    if "act" in fields:
        acts[5] = math.nan
    if "code" in fields:
        codes[2] = off_grid
    if "sv_index" in fields:
        qg.sv_index = bad_sv
    if "scale_q" in fields:
        qg.scale_q = 300
    with pytest.raises(error) as info:
        group_dot(qg, acts, spec)
    assert type(info.value) is error
    assert str(info.value) == message.format(code=off_grid, lo=lo, hi=hi,
                                             name=name)


@pytest.mark.parametrize("order", [(2, 2.0), (2.0, 2)])
def test_group_dot_whole_float_sv_index_is_that_index(order):
    # 2.0 raised TypeError until 2 had filled the term-table cache.
    spec = spec_for("FP3_BITMOD")
    avals = [1.5, -0.75, 2.0, 0.375, 3.0, -1.0, 0.5, 4.0]
    results = []
    bitserial._term_table.cache_clear()
    for sv_index in order:
        qg = QuantizedGroup(codes=np.arange(8), sv_index=sv_index, scale_q=3)
        results.append(group_dot(qg, avals, spec))
    assert results[0] == results[1]


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
    # INT6_SYM's top code is (1 << (6 - 1)) - 1 = 31.
    codes, _ = _quantize_symmetric([1.0, -1.0, 0.5, 0.25, -0.75, 0.0, 0.125,
                                    -0.5], (1 << (6 - 1)) - 1)
    w = encode_group_terms(QuantizedGroup(codes=codes), spec)
    # Lane-major: lane l of quad q is weight 4q + l.
    assert w.shape == (4, 2, 3) and w.dtype == np.float64
    for i, code in enumerate(codes):
        want = [float(t.value) for t in encode_weight(int(code), spec)]
        assert w[i % 4, i // 4].tolist() == want


@pytest.mark.parametrize("name", PE_DTYPES)
def test_term_table_matches_encode_weight(name):
    spec = spec_for(name)
    lo, hi = code_range(spec)
    for sv_index in range(max(1, len(spec.special_values))):
        table = term_table(spec, sv_index)
        n_codes = (len(spec.grids[sv_index]) if spec.is_fp
                   else 2 ** spec.bits_per_code - 1)
        assert hi - lo + 1 == n_codes
        # Indexed by the code's low byte; the rows of no code hold NaN.
        assert table.shape == (256, spec.terms_per_code)
        assert table.dtype == np.float64
        assert not table.flags.writeable
        for code in range(lo, hi + 1):
            want = encode_weight(code, spec, sv_index=sv_index)
            assert table[code % 256].tolist() == [
                float(t.value) for t in want], (name, sv_index, code)
        rows = np.arange(lo, hi + 1) % 256
        assert np.isnan(np.delete(table, rows, axis=0)).all(), (name,
                                                                sv_index)


@pytest.mark.parametrize("name", PE_DTYPES)
def test_term_table_rows_sum_to_their_code(name):
    # Each row's terms sum to the value its code stands for: the effective
    # grid's entry for FP, the code itself for INT.
    spec = spec_for(name)
    lo, hi = code_range(spec)
    for sv_index in range(max(1, len(spec.special_values))):
        want = (effective_grid(spec, sv_index) if spec.is_fp
                else range(lo, hi + 1))
        sums = term_table(spec, sv_index)[np.arange(lo, hi + 1)].sum(axis=1)
        assert sums.tolist() == [float(v) for v in want], (name, sv_index)


def test_drain_accumulate():
    from bitmod.pe import GroupPartialSum
    parts = [GroupPartialSum(3, 2), GroupPartialSum(-5, 0), GroupPartialSum(0, 9)]
    assert drain_accumulate(parts, 0.5) == np.float32((12 - 5) * 0.5)
    assert drain_accumulate([GroupPartialSum(0, 0)], 1.0) == np.float32(0.0)
    with pytest.raises(ValueError):
        drain_accumulate([], 1.0)


@pytest.mark.parametrize("scale", [float("nan"), float("inf"),
                                   np.float32("-inf")],
                         ids=["nan", "inf", "float32-minus-inf"])
def test_drain_accumulate_refuses_a_channel_scale_that_is_not_finite(scale):
    # Used to return float32 inf or NaN; pack refuses such a scale too.
    from bitmod.pe import GroupPartialSum
    with pytest.raises(OutOfRange, match=re.escape(
            f"channel_scale {scale} is not finite")):
        drain_accumulate([GroupPartialSum(1, 0)], scale)


def _bigint_drain(partials, channel_scale):
    """The reference drain: shift each partial's integer mantissa to the
    smallest exponent, sum the Python ints exactly, and round once."""
    live = [p for p in partials if p.m_grp != 0]
    if not live:
        return np.float32(0.0)
    e_min = min(p.e_grp for p in live)
    total = sum(p.m_grp << (p.e_grp - e_min) for p in live)
    return np.float32(math.ldexp(float(total), e_min) * channel_scale)


def test_drain_accumulate_keeps_what_cancellation_leaves():
    # Partials at the bounds of drain_accumulate's docstring: 2^52 and
    # -2^52 cancel, and a float64 running sum would lose the 2^-49 left.
    from bitmod.pe import GroupPartialSum
    big, tiny = GroupPartialSum(2 ** 40, 12), GroupPartialSum(1, -49)
    neg = GroupPartialSum(-(2 ** 40), 12)
    for parts in ([big, tiny, neg], [tiny, big, neg], [big, neg, tiny]):
        assert drain_accumulate(parts, 1.0) == np.float32(2.0 ** -49)
        assert drain_accumulate(parts, 0.5).tobytes() == \
            _bigint_drain(parts, 0.5).tobytes()


@pytest.mark.parametrize("g", (32, 128))
@pytest.mark.parametrize("name", PE_DTYPES)
def test_drain_accumulate_matches_bigint_drain_at_fp16_extremes(name, g):
    # Activations at FP16's smallest normal and largest finite magnitudes,
    # all of one sign or of random signs, and normals over six decades.
    spec = spec_for(name)
    rows, width = 20, 512
    qt = quantize_tensor(synth.sample("outlier_mixture", (rows, width),
                                      seed=11), spec, GroupingConfig(g))
    rng = np.random.default_rng(12)
    signs = rng.choice([-1.0, 1.0], width)
    act_sets = {"+-2^-14": signs * 2.0 ** -14,
                "+65504": np.full(width, 65504.0), "+-65504": signs * 65504.0}
    for scale in (1.0, 1e-4, 1e3):
        act_sets[f"normal*{scale:g}"] = rng.standard_normal(width) * scale
    for label, acts in act_sets.items():
        acts = acts.astype(np.float16)
        for r in range(rows):
            cq = qt[r]
            partials = [group_dot(qg, acts[i * g:(i + 1) * g], spec)[0]
                        for i, qg in enumerate(cq.groups)]
            # The bounds drain_accumulate's docstring states.
            for p in partials:
                assert abs(p.m_grp) < 2 ** 41
                assert p.m_grp == 0 or p.e_grp >= -49
            total = math.fsum(math.ldexp(m, e) for m, e in partials)
            assert abs(total) < width * 2.0 ** 33
            got = drain_accumulate(partials, cq.channel_scale)
            want = _bigint_drain(partials, cq.channel_scale)
            assert got.tobytes() == want.tobytes(), (label, r)


def test_throughput_ratios():
    assert FP16_MAC_CYCLES_PER_DOT == 4
    for name, ratio in (("FP3_BITMOD", 2.0), ("FP4_BITMOD", 2.0),
                        ("INT6_SYM", pytest.approx(4 / 3)), ("INT8_SYM", 1.0)):
        assert FP16_MAC_CYCLES_PER_DOT / spec_for(name).terms_per_code == ratio


def test_channel_dot_end_to_end_close_to_float():
    # Quantize a channel, run every group through the PE, drain, and compare
    # against the plain float dot product of the dequantized channel.
    rng = np.random.default_rng(26)
    spec = spec_for("FP4_BITMOD")
    grouping = GroupingConfig(group_size=32)
    w = rng.standard_normal(128) + 3.0
    avals = acts_from(rng, 128, positive=True)
    cq = quantize_tensor(w[None], spec, grouping)[0]
    parts = []
    for i, qg in enumerate(cq.groups):
        gps, _ = group_dot(qg, avals[i * 32:(i + 1) * 32], spec)
        parts.append(gps)
    got = drain_accumulate(parts, cq.channel_scale)
    want = float(np.dot(dequantize_tensor(cq), avals))
    assert math.isclose(float(got), want, rel_tol=2.0 ** -7)
