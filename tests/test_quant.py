from fractions import Fraction

import numpy as np
import pytest

from bitmod.dtype import DataType, GroupingConfig, effective_grid, spec_for
from bitmod.errors import LengthMismatch, UnsupportedDtype
from bitmod.quant import (
    adaptive_quant,
    dequantize_channel,
    dequantize_tensor,
    error_report,
    memory_footprint_bits,
    nearest_grid_index,
    nonlinear_quantize,
    quantize_asymmetric,
    quantize_channel,
    quantize_scales,
    quantize_symmetric,
    quantize_tensor,
    round_half_away,
)

F = Fraction


def grid_f(spec, sv_index=0):
    return np.array([float(v) for v in effective_grid(spec, sv_index)])


def test_round_half_away():
    x = np.array([0.5, -0.5, 1.5, -1.5, 2.4, -2.4, 0.0])
    assert round_half_away(x).tolist() == [1, -1, 2, -2, 2, -2, 0]


def test_quantize_symmetric_hand_example():
    codes, delta = quantize_symmetric([2.0, -1.0, 0.4], 3)
    # absmax 2, qmax 3 -> delta 2/3; scaled [3, -1.5, 0.6] -> [3, -2, 1]
    assert delta == pytest.approx(2 / 3)
    assert codes.tolist() == [3, -2, 1]


def test_quantize_symmetric_roundtrip_bound():
    rng = np.random.default_rng(7)
    for bits in (3, 4, 6, 8):
        w = rng.standard_normal(256)
        codes, delta = quantize_symmetric(w, bits)
        err = np.abs(w - codes * delta)
        assert np.all(err <= delta / 2 + 1e-12)


def test_quantize_symmetric_degenerate_zero_group():
    # All zero, or so small that delta underflows to 0: codes are 0.
    for group, bits in ((np.zeros(8), 4), ([5e-324], 3)):
        codes, delta = quantize_symmetric(group, bits)
        assert delta == 0.0 and not codes.any()
    # On an FP grid the codes all index the value 0.
    grid = spec_for("FP3_BASIC").basic_values
    codes, delta = nonlinear_quantize([5e-324, 0.0], grid)
    assert delta == 0.0 and codes.tolist() == [grid.index(0)] * 2


def test_quantize_asymmetric_hand_example():
    codes, delta, z = quantize_asymmetric([-1.0, 0.0, 2.0], 2)
    # range 3, qmax 3 -> delta 1, z = 1; codes = [0, 1, 3]
    assert delta == pytest.approx(1.0)
    assert z == 1
    assert codes.tolist() == [0, 1, 3]


def test_quantize_asymmetric_constant_group():
    # Constant, or a range so small that delta underflows to 0.
    for group, bits in (([5.0, 5.0, 5.0], 4), ([0.0, 5e-324], 3)):
        codes, delta, z = quantize_asymmetric(group, bits)
        assert delta == 0.0 and z == 0 and not codes.any()


def test_quantize_asymmetric_roundtrip_bound():
    rng = np.random.default_rng(8)
    for bits in (3, 4, 6):
        w = rng.standard_normal(256) + 0.7
        codes, delta, z = quantize_asymmetric(w, bits)
        err = np.abs(w - (codes - z) * delta)
        # The zero-point itself is rounded, costing up to delta/2 extra.
        assert np.all(err <= delta + 1e-12)


def test_nearest_grid_index_tie_breaks():
    g = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    # 1.5 ties between 1 and 2: smaller magnitude wins.
    assert nearest_grid_index(np.array([1.5]), g).tolist() == [3]
    assert nearest_grid_index(np.array([-1.5]), g).tolist() == [1]
    # 0.5 ties between 0 and 1: zero wins.
    assert nearest_grid_index(np.array([0.5]), g).tolist() == [2]
    # Equal magnitudes (scaled value 0 between -1 and 1 on a no-zero grid):
    g2 = np.array([-1.0, 1.0])
    assert nearest_grid_index(np.array([0.0]), g2).tolist() == [0]


def test_nonlinear_quantize_on_grid_input_is_exact():
    spec = spec_for("FP3_BITMOD")
    sv = spec.special_values.index(F(6))
    grid = effective_grid(spec, sv)
    w = np.array([-4.0, -2.0, 0.0, 6.0]) * 0.37
    codes, delta = nonlinear_quantize(w, grid)
    assert delta == pytest.approx(0.37)
    deq = grid_f(spec, sv)[codes] * delta
    np.testing.assert_allclose(deq, w, rtol=0, atol=1e-15)


def test_nonlinear_quantize_hand_example():
    spec = spec_for("FP3_BITMOD")
    sv = spec.special_values.index(F(-6))
    grid = effective_grid(spec, sv)
    codes, delta = nonlinear_quantize([0.9, -0.9, 3.6], grid)
    assert delta == pytest.approx(0.6)
    # scaled = [1.5, -1.5, 6]; ties at +-1.5 go to the smaller magnitude,
    # and 6 clamps to the largest positive grid value 4.
    deq = grid_f(spec, sv)[codes] * delta
    np.testing.assert_allclose(deq, [0.6, -0.6, 2.4], atol=1e-15)


def test_nonlinear_quantize_brute_force_agreement():
    rng = np.random.default_rng(11)
    spec = spec_for("FP4_BITMOD")
    for sv in range(4):
        grid = effective_grid(spec, sv)
        gf = grid_f(spec, sv)
        w = rng.standard_normal(64)
        codes, delta = nonlinear_quantize(w, grid)
        brute = np.abs(w[:, None] / delta - gf[None, :]).argmin(axis=1)
        # argmin picks the first (most negative) on ties; only compare
        # where the distances are strictly ordered.
        d = np.abs(w[:, None] / delta - gf[None, :])
        strict = np.sum(d == d.min(axis=1, keepdims=True), axis=1) == 1
        assert np.array_equal(codes[strict], brute[strict])


def test_nonlinear_quantize_requires_zero():
    with pytest.raises(ValueError):
        nonlinear_quantize([1.0], (F(-1), F(1)))


def test_adaptive_quant_on_grid_ties_to_index_zero():
    spec = spec_for("FP3_BITMOD")
    w = np.array([0.0, 1.0, -2.0, 4.0] * 32) * 0.01
    qg, sv, mse = adaptive_quant(w, spec)
    assert mse == 0.0
    assert qg.sv_index == 0 and sv == F(3)


def test_adaptive_quant_picks_matching_sign_on_outliers():
    rng = np.random.default_rng(3)
    spec = spec_for("FP3_BITMOD")
    w = rng.standard_normal(128)
    w[5] = 6.0
    qg, sv, _ = adaptive_quant(w, spec)
    assert sv == F(6)
    qg, sv, _ = adaptive_quant(-w, spec)
    assert sv == F(-6)


def test_adaptive_quant_never_worse_than_basic():
    rng = np.random.default_rng(4)
    spec = spec_for("FP3_BITMOD")
    basic = spec_for("FP3_BASIC")
    bf = grid_f(basic)
    for _ in range(200):
        w = rng.standard_normal(128)
        _, _, mse = adaptive_quant(w, spec)
        codes, delta = nonlinear_quantize(w, basic.basic_values)
        basic_mse = float(np.mean((w - bf[codes] * delta) ** 2))
        assert mse <= basic_mse + 1e-15


def test_adaptive_quant_scaling_invariance():
    rng = np.random.default_rng(5)
    spec = spec_for("FP4_BITMOD")
    w = rng.standard_normal(128)
    a, _, _ = adaptive_quant(w, spec)
    b, _, _ = adaptive_quant(w * 37.5, spec)
    assert a.sv_index == b.sv_index
    assert np.array_equal(a.codes, b.codes)


def test_adaptive_quant_rejects_non_bitmod():
    with pytest.raises(UnsupportedDtype):
        adaptive_quant(np.ones(4), spec_for("FP3_BASIC"))


def test_quantize_scales_hand_example():
    scale_q, cs = quantize_scales([0.127, 0.254])
    assert cs == pytest.approx(0.254 / 127, rel=1e-6)
    # 0.127/cs sits at 63.5 in decimal; binary float noise can land either
    # side of the tie, but the result must match the stated rounding rule.
    assert scale_q.tolist() == round_half_away(np.array([0.127, 0.254]) / cs).tolist()
    assert scale_q[1] == 127


def test_quantize_scales_half_away_tie():
    # A binary-exact tie: deltas [63.5, 127] with channel_scale exactly 1.
    scale_q, cs = quantize_scales([63.5, 127.0])
    assert cs == 1.0
    assert scale_q.tolist() == [64, 127]


def test_quantize_scales_single_group_is_exact():
    scale_q, cs = quantize_scales([1.0])
    assert scale_q.tolist() == [127]
    assert 127 * cs == pytest.approx(1.0, rel=1e-6)


def test_quantize_scales_reconstruction_bound():
    rng = np.random.default_rng(6)
    deltas = rng.random(64) * 0.3
    scale_q, cs = quantize_scales(deltas)
    assert np.all(np.abs(deltas - scale_q * cs) <= cs / 2 + 1e-12)
    assert quantize_scales([0.0, 0.0])[1] == 0.0


def test_quantize_scales_channel_scale_is_f32_exact():
    _, cs = quantize_scales([0.1, 0.03])
    assert float(np.float32(cs)) == cs


@pytest.mark.parametrize("name", [
    "FP3_BITMOD", "FP4_BITMOD", "FP3_BASIC", "INT6_SYM", "INT4_ASYM",
])
def test_channel_roundtrip_error_bound(name):
    rng = np.random.default_rng(12)
    spec = spec_for(name)
    grouping = GroupingConfig(group_size=32)
    w = rng.standard_normal(96)
    cq = quantize_channel(w, spec, grouping)
    deq = dequantize_channel(cq)
    assert deq.shape == w.shape
    # Scale quantization perturbs each group scale by <= channel_scale/2;
    # with grid absmax <= 8 the end-to-end error stays bounded.
    bound = 4.0 * max(qg.delta for qg in cq.groups) + 8 * cq.channel_scale
    assert np.max(np.abs(w - deq)) <= bound


@pytest.mark.parametrize("name", [dt.name for dt in DataType])
def test_quantize_channel_matches_per_group(name):
    spec = spec_for(name)
    g = 32
    rng = np.random.default_rng(15)
    w = rng.standard_normal(5 * g + 7) * 3  # ragged tail of 7 weights
    w[g:2 * g] = 0.0  # an all-zero group
    cq = quantize_channel(w, spec, GroupingConfig(group_size=g))
    padded = np.concatenate([w, np.zeros(g - 7)])
    # One array per field, one row per group.
    assert cq.codes.shape == (6, g) and cq.codes.dtype == np.int64
    for field in (cq.sv_index, cq.scale_q):
        assert field.shape == (6,) and field.dtype == np.int64
    assert cq.delta.shape == (6,) and cq.delta.dtype == np.float64
    if spec.asymmetric:
        assert cq.zero_point.shape == (6,) and cq.zero_point.dtype == np.int64
    else:
        assert cq.zero_point is None
    assert len(cq.groups) == 6
    for i, qg in enumerate(cq.groups):
        assert np.array_equal(qg.codes, cq.codes[i])
        assert not qg.codes.flags.writeable
        assert (qg.sv_index, qg.scale_q, qg.delta) == (
            cq.sv_index[i], cq.scale_q[i], cq.delta[i])
        if spec.asymmetric:
            assert qg.zero_point == cq.zero_point[i]
        chunk = padded[i * g:(i + 1) * g]
        sv_index, zero_point = 0, None
        if spec.is_bitmod:
            one, _, _ = adaptive_quant(chunk, spec)
            codes, delta, sv_index = one.codes, one.delta, one.sv_index
        elif spec.is_fp:
            codes, delta = nonlinear_quantize(chunk, spec.basic_values)
        elif spec.asymmetric:
            codes, delta, zero_point = quantize_asymmetric(chunk,
                                                           spec.bits_per_code)
        else:
            codes, delta = quantize_symmetric(chunk, spec.bits_per_code)
        assert np.array_equal(qg.codes, codes)
        assert qg.sv_index == sv_index
        assert qg.zero_point == zero_point
        assert np.float64(qg.delta).tobytes() == np.float64(delta).tobytes()
    assert cq.groups[1].delta == 0.0
    scale_q, channel_scale = quantize_scales([qg.delta for qg in cq.groups])
    assert [qg.scale_q for qg in cq.groups] == scale_q.tolist()
    assert cq.channel_scale == channel_scale


def test_channel_padding_dropped():
    spec = spec_for("FP3_BITMOD")
    grouping = GroupingConfig(group_size=32)
    w = np.linspace(-1, 1, 40)
    cq = quantize_channel(w, spec, grouping)
    assert len(cq.groups) == 2
    assert cq.valid_size == 40
    assert dequantize_channel(cq).shape == (40,)


def test_tensor_roundtrip_shape_and_finiteness_checks():
    spec = spec_for("FP4_BITMOD")
    grouping = GroupingConfig(group_size=16)
    rng = np.random.default_rng(13)
    w = rng.standard_normal((3, 48))
    channels = quantize_tensor(w, spec, grouping)
    deq = dequantize_tensor(channels)
    assert deq.shape == w.shape
    with pytest.raises(ValueError):
        quantize_tensor(np.array([1.0, np.nan]).reshape(1, 2), spec, grouping)
    with pytest.raises(ValueError):
        quantize_tensor(np.ones(8), spec, grouping)
    for empty in ((2, 0), (0, 8)):
        with pytest.raises(ValueError, match="empty"):
            quantize_tensor(np.zeros(empty), spec, grouping)


def test_negation_symmetry():
    rng = np.random.default_rng(14)
    spec = spec_for("FP3_BITMOD")
    grouping = GroupingConfig(group_size=32)
    w = rng.standard_normal(64)
    a = dequantize_channel(quantize_channel(w, spec, grouping))
    b = dequantize_channel(quantize_channel(-w, spec, grouping))
    np.testing.assert_array_equal(a, -b)


def test_error_report():
    rep = error_report([1.0, -1.0], [1.0, -0.5])
    assert rep.mse == pytest.approx(0.125)
    assert rep.normalized_error == pytest.approx(0.125)
    assert rep.max_abs_error == pytest.approx(0.5)
    zero = error_report(np.zeros(4), np.zeros(4))
    assert zero.normalized_error == 0.0
    with pytest.raises(LengthMismatch):
        error_report([1.0], [1.0, 2.0])


def test_memory_footprint_bits():
    g = GroupingConfig(group_size=128)
    assert memory_footprint_bits(spec_for("FP3_BITMOD"), g) == F(3) + F(10, 128)
    assert memory_footprint_bits(spec_for("FP4_BITMOD"), g) == F(4) + F(10, 128)
    assert memory_footprint_bits(spec_for("FP3_BASIC"), g) == F(3) + F(8, 128)
    assert memory_footprint_bits(spec_for("INT6_SYM"), g) == F(6) + F(8, 128)
    assert memory_footprint_bits(spec_for("INT4_ASYM"), g) == F(4) + F(24, 128)
