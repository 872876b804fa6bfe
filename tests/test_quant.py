import copy
import dataclasses
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import nearest_grid_index, per_grid_best_grid
from bitmod import quant, synth
from bitmod.dtype import DataType, GroupingConfig, effective_grid, spec_for
from bitmod.errors import InvalidSpecialValueIndex, OutOfRange, ShapeMismatch
from bitmod.quant import (
    CHUNK_WEIGHTS,
    ErrorReport,
    _best_grid,
    _quantize_asymmetric,
    _quantize_symmetric,
    dequantize_tensor,
    error_report,
    memory_footprint_bits,
    quantize_groups,
    quantize_scales,
    quantize_tensor,
    round_half_away,
)

F = Fraction


def sym_qmax(bits):
    """The top code of a symmetric INT type of ``bits`` bits."""
    return (1 << (bits - 1)) - 1


def asym_qmax(bits):
    """The top code of an asymmetric INT type of ``bits`` bits."""
    return (1 << bits) - 1


def grid_f(spec, sv_index=0):
    return np.array([float(v) for v in effective_grid(spec, sv_index)])


def test_round_half_away():
    x = np.array([0.5, -0.5, 1.5, -1.5, 2.4, -2.4, 0.0])
    assert round_half_away(x).tolist() == [1, -1, 2, -2, 2, -2, 0]


def test_quantize_symmetric_hand_example():
    codes, delta = _quantize_symmetric([2.0, -1.0, 0.4], sym_qmax(3))
    # absmax 2, qmax 3 -> delta 2/3; scaled [3, -1.5, 0.6] -> [3, -2, 1]
    assert delta == pytest.approx(2 / 3)
    assert codes.tolist() == [3, -2, 1]


def test_quantize_symmetric_roundtrip_bound():
    rng = np.random.default_rng(7)
    for bits in (3, 4, 6, 8):
        w = rng.standard_normal(256)
        codes, delta = _quantize_symmetric(w, sym_qmax(bits))
        err = np.abs(w - codes * delta)
        assert np.all(err <= delta / 2 + 1e-12)


def test_quantize_symmetric_degenerate_zero_group():
    # All zero, or so small that delta underflows to 0: codes are 0.
    for group, bits in ((np.zeros(8), 4), ([5e-324], 3)):
        codes, delta = _quantize_symmetric(group, sym_qmax(bits))
        assert delta == 0.0 and not codes.any()
    # On an FP grid the codes all index the value 0.
    spec = spec_for("FP3_BASIC")
    codes, delta, _, _ = quantize_groups([[5e-324, 0.0]], spec)
    grid = spec.basic_values
    assert delta.tolist() == [0.0] and codes.tolist() == [[grid.index(0)] * 2]


def test_quantize_asymmetric_hand_example():
    codes, delta, z = _quantize_asymmetric([-1.0, 0.0, 2.0], asym_qmax(2))
    # range 3, qmax 3 -> delta 1, z = 1; codes = [0, 1, 3]
    assert delta == pytest.approx(1.0)
    assert z == 1
    assert codes.tolist() == [0, 1, 3]


def test_quantize_asymmetric_constant_group():
    # Constant, or a range so small that delta underflows to 0.
    for group, bits in (([5.0, 5.0, 5.0], 4), ([0.0, 5e-324], 3)):
        codes, delta, z = _quantize_asymmetric(group, asym_qmax(bits))
        assert delta == 0.0 and z == 0 and not codes.any()


def test_quantize_asymmetric_roundtrip_bound():
    rng = np.random.default_rng(8)
    for bits in (3, 4, 6):
        w = rng.standard_normal(256) + 0.7
        codes, delta, z = _quantize_asymmetric(w, asym_qmax(bits))
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


def test_quantize_groups_on_grid_input_is_exact():
    spec = spec_for("FP3_BITMOD")
    sv = spec.special_values.index(F(6))
    w = np.array([[-4.0, -2.0, 0.0, 6.0]]) * 0.37
    codes, delta, sv_index, zero_point = quantize_groups(w, spec)
    assert sv_index.tolist() == [sv] and zero_point is None
    assert delta[0] == pytest.approx(0.37)
    deq = grid_f(spec, sv)[codes] * delta[:, None]
    np.testing.assert_allclose(deq, w, rtol=0, atol=1e-15)


def test_quantize_groups_hand_example():
    spec = spec_for("FP3_BASIC")
    codes, delta, sv_index, _ = quantize_groups([[0.9, -0.9, 2.4]], spec)
    assert delta[0] == pytest.approx(0.6) and sv_index.tolist() == [0]
    # scaled = [1.5, -1.5, 4]; ties at +-1.5 go to the smaller magnitude.
    deq = grid_f(spec)[codes] * delta[:, None]
    np.testing.assert_allclose(deq, [[0.6, -0.6, 2.4]], atol=1e-15)


@pytest.mark.parametrize("shape", [(8,), (2, 2, 4)], ids=["1-D", "3-D"])
@pytest.mark.parametrize("name", ["FP3_BITMOD", "INT4_SYM", "INT4_ASYM"])
def test_quantize_groups_refuses_rows_that_are_not_2d(name, shape):
    # 1-D rows used to give INT4_SYM one sv_index per weight and a scalar
    # delta, and FP3_BITMOD a bare unpacking ValueError.
    message = f"rows must be 2-D (groups x group_size), got shape {shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        quantize_groups(np.ones(shape), spec_for(name))


def test_quantize_groups_brute_force_agreement():
    w = np.random.default_rng(11).standard_normal((64, 64))
    for name in ("FP4_BASIC", "FP4_BITMOD"):
        spec = spec_for(name)
        codes, delta, sv_index, _ = quantize_groups(w, spec)
        # Each row on the grid it chose.
        d = np.abs(w[:, :, None] / delta[:, None, None]
                   - spec.grid_table[sv_index][:, None, :])
        brute = d.argmin(axis=-1)
        # argmin picks the first (most negative) on ties; only compare
        # where the distances are strictly ordered.
        strict = np.sum(d == d.min(axis=-1, keepdims=True), axis=-1) == 1
        assert np.array_equal(codes[strict], brute[strict])


def best_grid_rows(spec, g: int, seed: int) -> np.ndarray:
    """Seeded (n, g) groups for ``spec``: outlier, Gaussian and flat ones;
    mirrored ones, each the negated reverse of itself up to a shuffle; all
    zero; scaled by 1e-310 (a subnormal delta) and by 1e150; and groups
    exactly on each grid's values or midpoints, times a delta."""
    rng = np.random.default_rng(seed)
    gauss = rng.standard_normal((8, g))
    half = rng.standard_normal((256, g // 2))
    mirrored = rng.permuted(np.concatenate([half, -half[:, ::-1]], axis=1),
                            axis=1)
    parts = [synth.sample("outlier_mixture", (8, g), rng=rng), gauss,
             rng.uniform(-1, 1, (8, g)), mirrored, np.zeros((2, g)),
             gauss[:4] * 1e-310, gauss[:4] * 1e150]
    for values in spec.grid_table:
        for points in (values, (values[:-1] + values[1:]) / 2):
            for delta in (0.37, 0.125):
                row = rng.choice(points, g)
                # The grid's absmax sets the delta.
                row[rng.integers(g)] = values[np.abs(values).argmax()]
                parts.append(row[None] * delta)
    return np.concatenate(parts)


@pytest.mark.parametrize("name", ["FP3_BITMOD", "FP4_BITMOD", "FP3_BASIC",
                                  "FP4_BASIC"])
@pytest.mark.parametrize("g", [128, 32, 100, 12])
def test_best_grid_matches_per_grid_reference(name, g):
    # Mirrored groups give grid pairs whose error sums differ in the last
    # place and round to one mean at G = 100 and 12: a tie, which keeps
    # the lower index.
    spec = spec_for(name)
    rows = best_grid_rows(spec, g, seed=g)
    want = per_grid_best_grid(rows, spec)
    out = np.empty(rows.shape, dtype=np.uint8)
    got = _best_grid(rows, spec, out=out)
    assert got[0] is out
    for field, a, b in zip(("codes", "delta", "sv_index", "mse"), got, want):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape,
                                                   b.tobytes()), field


def test_adaptive_quant_on_grid_ties_to_index_zero():
    spec = spec_for("FP3_BITMOD")
    w = np.array([0.0, 1.0, -2.0, 4.0] * 32) * 0.01
    _, _, sv_index, mse = _best_grid(w[None], spec)
    assert mse[0] == 0.0
    assert sv_index[0] == 0 and spec.special_values[0] == F(3)


def test_adaptive_quant_picks_matching_sign_on_outliers():
    rng = np.random.default_rng(3)
    spec = spec_for("FP3_BITMOD")
    w = rng.standard_normal(128)
    w[5] = 6.0
    sv_index = quantize_groups(w[None], spec)[2][0]
    assert spec.special_values[sv_index] == F(6)
    sv_index = quantize_groups(-w[None], spec)[2][0]
    assert spec.special_values[sv_index] == F(-6)


def test_adaptive_quant_never_worse_than_basic():
    rng = np.random.default_rng(4)
    spec = spec_for("FP3_BITMOD")
    basic = spec_for("FP3_BASIC")
    w = rng.standard_normal((200, 128))
    codes, delta, _, _ = quantize_groups(w, basic)
    basic_mse = np.mean((w - grid_f(basic)[codes] * delta[:, None]) ** 2,
                        axis=-1)
    for row, b in zip(w, basic_mse):
        mse = _best_grid(row[None], spec)[3][0]
        assert mse <= b + 1e-15


def test_adaptive_quant_scaling_invariance():
    rng = np.random.default_rng(5)
    spec = spec_for("FP4_BITMOD")
    w = rng.standard_normal(128)
    a_codes, _, a_sv, _ = quantize_groups(w[None], spec)
    b_codes, _, b_sv, _ = quantize_groups(w[None] * 37.5, spec)
    assert a_sv[0] == b_sv[0]
    assert np.array_equal(a_codes, b_codes)


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
    cq = quantize_tensor(w[None], spec, grouping)[0]
    deq = dequantize_tensor(cq)
    assert deq.shape == w.shape
    delta = quantize_groups(w.reshape(-1, 32), spec)[1]
    # Scale quantization perturbs each group scale by <= channel_scale/2;
    # with grid absmax <= 8 the end-to-end error stays bounded.
    bound = 4.0 * max(delta) + 8 * cq.channel_scale
    assert np.max(np.abs(w - deq)) <= bound


@pytest.mark.parametrize("name", [dt.name for dt in DataType])
def test_quantize_channel_matches_per_group(name):
    spec = spec_for(name)
    g = 32
    rng = np.random.default_rng(15)
    w = rng.standard_normal(5 * g + 7) * 3  # ragged tail of 7 weights
    w[g:2 * g] = 0.0  # an all-zero group
    cq = quantize_tensor(w[None], spec, GroupingConfig(group_size=g))[0]
    padded = np.concatenate([w, np.zeros(g - 7)])
    # One array per field, one row per group.
    assert cq.codes.shape == (6, g) and cq.codes.dtype == spec.code_dtype
    assert spec.code_dtype == (np.int8 if not (spec.is_fp or spec.asymmetric)
                               else np.uint8)
    for field in (cq.sv_index, cq.scale_q):
        assert field.shape == (6,) and field.dtype == np.uint8
    if spec.asymmetric:
        assert cq.zero_point.shape == (6,) and cq.zero_point.dtype == np.int64
    else:
        assert cq.zero_point is None
    assert len(cq.groups) == 6
    deltas = []
    for i, qg in enumerate(cq.groups):
        assert np.array_equal(qg.codes, cq.codes[i])
        assert not qg.codes.flags.writeable
        assert (qg.sv_index, qg.scale_q) == (cq.sv_index[i], cq.scale_q[i])
        # The group quantized on its own.
        codes, delta, sv_index, zero_point = quantize_groups(
            padded[None, i * g:(i + 1) * g], spec)
        assert np.array_equal(qg.codes, codes[0])
        assert qg.sv_index == sv_index[0]
        if spec.asymmetric:
            assert cq.zero_point[i] == zero_point[0]
        else:
            assert zero_point is None
        assert delta.shape == (1,) and delta.dtype == np.float64
        deltas.append(delta[0])
    assert deltas[1] == 0.0
    scale_q, channel_scale = quantize_scales(deltas)
    assert [qg.scale_q for qg in cq.groups] == scale_q.tolist()
    assert cq.channel_scale == channel_scale


def test_channel_padding_dropped():
    spec = spec_for("FP3_BITMOD")
    grouping = GroupingConfig(group_size=32)
    w = np.linspace(-1, 1, 40)
    cq = quantize_tensor(w[None], spec, grouping)[0]
    assert len(cq.groups) == 2
    assert cq.valid_size == 40
    assert dequantize_tensor(cq).shape == (40,)


def test_records_compare_by_content():
    # Array fields used to make == raise "truth value ... is ambiguous".
    w = np.random.default_rng(5).standard_normal(256)
    cq = quantize_tensor(w[None], spec_for("FP3_BITMOD"),
                         GroupingConfig(group_size=128))[0]
    assert cq == copy.deepcopy(cq)
    assert cq.groups[0] == cq.groups[0]
    assert cq.groups[0] != cq.groups[1]
    # Records of two classes are unequal, whichever side is asked.
    assert cq.groups[0] != cq and cq != cq.groups[0]
    for field in ("codes", "sv_index", "scale_q"):
        other = copy.deepcopy(cq)
        if field == "codes":
            other.codes[0, 0] += 1
        elif field == "sv_index":
            other.sv_index[0] = (other.sv_index[0] + 1) % 4
        else:
            other.scale_q[0] ^= 1
        assert other != cq, field
        assert other.groups[0] != cq.groups[0], field
        assert other.groups[1] == cq.groups[1], field
    # None equals only None.
    aq = quantize_tensor(w[None], spec_for("INT4_ASYM"),
                         GroupingConfig(group_size=128))
    assert aq == copy.deepcopy(aq)
    assert dataclasses.replace(aq, zero_point=None) != aq
    assert aq != dataclasses.replace(aq, zero_point=None)


def test_views_of_the_wrong_rank_raise_type_error():
    qt = quantize_tensor(np.ones((2, 64)), spec_for("FP3_BITMOD"),
                         GroupingConfig(group_size=32))
    with pytest.raises(TypeError, match="groups is a view of one channel"):
        qt.groups
    one = "one channel has no length; use qt[i:i + 1]"
    with pytest.raises(TypeError, match=re.escape(one)):
        len(qt[0])
    with pytest.raises(TypeError, match=re.escape(one)):
        qt[0][0]
    assert len(qt[0:1]) == 1 and qt[0:1][0] == qt[0]


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


@pytest.mark.parametrize("g", [np.uint8(128), np.int8(64), np.uint64(128)],
                         ids=repr)
def test_quantize_tensor_at_a_numpy_group_size(g):
    # The padded group count of a 300-wide channel used to raise
    # OverflowError at these widths.
    w = np.random.default_rng(17).standard_normal((2, 300))
    spec = spec_for("FP3_BITMOD")
    assert (quantize_tensor(w, spec, GroupingConfig(group_size=g))
            == quantize_tensor(w, spec, GroupingConfig(group_size=int(g))))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("quantize", [
    lambda w: quantize_groups(np.atleast_2d(w), spec_for("FP3_BITMOD")),
    lambda w: quantize_groups(np.atleast_2d(w), spec_for("FP4_BASIC")),
    lambda w: _quantize_symmetric(w, sym_qmax(4)),
    lambda w: _quantize_asymmetric(w, asym_qmax(4)),
], ids=["adaptive", "nonlinear", "symmetric", "asymmetric"])
def test_quantizers_reject_non_finite_input(quantize, bad):
    # NaN used to come back as codes [7, 7, 7, 7] with delta and mse NaN
    # (the BitMoD grid search) or as codes of -2**63 (_quantize_symmetric).
    with pytest.raises(ValueError, match="NaN or Inf"):
        quantize(np.array([1.0, bad, 0.5, 2.0]))
    w = np.ones((2, 4))  # a bad value in a later group of a batch
    w[1, 2] = bad
    with pytest.raises(ValueError, match="NaN or Inf"):
        quantize(w)


@pytest.mark.parametrize("name", [dt.name for dt in DataType])
def test_quantize_tensor_rejects_non_finite_in_a_later_chunk(name):
    # The quantizers check each chunk; nothing checks the whole tensor first.
    g = 128
    w = np.ones((CHUNK_WEIGHTS // g + 1, g), dtype=np.float32)
    w[-1, 3] = np.nan
    with pytest.raises(ValueError, match="NaN or Inf"):
        quantize_tensor(w, spec_for(name), GroupingConfig(group_size=g))


def _traced_peak(fn, *args):
    """(result, tracemalloc peak in bytes while ``fn`` ran)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_quantize_tensor_memory_beyond_outputs():
    # A float64 copy of this input is 16 MiB; the chunk buffers are 1/128.
    w = np.random.default_rng(17).standard_normal((512, 4096)) \
        .astype(np.float32)
    qt, peak = _traced_peak(quantize_tensor, w, spec_for("FP3_BITMOD"),
                            GroupingConfig(group_size=128))
    outputs = sum(v.nbytes for f in dataclasses.fields(qt)
                  if isinstance(v := getattr(qt, f.name), np.ndarray))
    assert peak - outputs < 4 << 20


def test_error_report_memory():
    rng = np.random.default_rng(18)
    w = rng.standard_normal((512, 4096)).astype(np.float32)
    w_hat = w + rng.standard_normal(w.shape) * 1e-3
    rep, peak = _traced_peak(error_report, w, w_hat)
    assert peak <= w.size * 8 + (1 << 20)
    err = w.astype(np.float64) - w_hat
    assert rep.max_abs_error == np.max(np.abs(err))
    assert rep.mse == np.mean(err ** 2)


def _same_record(a, b):
    """Field by field, arrays by dtype, shape and bytes."""
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert isinstance(y, np.ndarray), f.name
            assert (x.dtype, x.shape) == (y.dtype, y.shape), f.name
            assert x.tobytes() == y.tobytes(), f.name
        else:
            assert type(x) is type(y) and x == y, f.name


@pytest.mark.parametrize("name", [dt.name for dt in DataType])
@pytest.mark.parametrize("width, g", [(1000, 128), (200, 32)])
def test_quantize_tensor_chunks_match_per_channel(name, width, g):
    # A chunk holds CHUNK_WEIGHTS // padded width whole channels; a tensor
    # of one chunk less one row, one chunk, and one chunk plus a row must
    # give each channel what quantizing it alone gives.
    spec = spec_for(name)
    grouping = GroupingConfig(group_size=g)
    step = CHUNK_WEIGHTS // (-(-width // g) * g)
    rng = np.random.default_rng(16)
    for k in (1, step - 1, step, step + 1):
        w = rng.standard_normal((k, width)) * rng.uniform(0.1, 10, (k, 1))
        w[0, :g] = 0.0  # an all-zero group
        qt = quantize_tensor(w, spec, grouping)
        assert len(qt) == k
        deq = dequantize_tensor(qt)
        for i, (row, cq) in enumerate(zip(w, qt, strict=True)):
            one = quantize_tensor(row[None], spec, grouping)[0]
            _same_record(cq, one)
            _same_record(qt[i], one)
            # A channel dequantizes to its row of the tensor, bit for bit.
            assert dequantize_tensor(qt[i]).tobytes() == deq[i].tobytes()
        with pytest.raises(TypeError):
            len(qt[0])  # one channel has no channel axis


def fancy_index_dequantize(qt):
    """The oracle for ``dequantize_tensor``: its earlier whole-tensor
    formula, an FP grid value by a two-array fancy index."""
    spec = qt.dtype
    if spec.is_fp:
        values = spec.grid_table[qt.sv_index[..., None], qt.codes]
    elif spec.asymmetric:
        values = np.subtract(qt.codes, qt.zero_point[..., None],
                             dtype=np.float64)
    else:
        values = qt.codes.astype(np.float64)
    values *= (qt.scale_q * np.expand_dims(qt.channel_scale, -1))[..., None]
    return values.reshape(*values.shape[:-2], -1)[..., :qt.valid_size]


def _same_array(got, want):
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", [dt.name for dt in DataType])
@pytest.mark.parametrize("width, g", [(300, 32), (512, 128)])
def test_dequantize_tensor_matches_fancy_index(name, width, g):
    # Channels of 10 groups of 32 (the last one part padding) or 4 of 128;
    # the tensor spans 4 chunks, and its slices start and end inside one.
    spec = spec_for(name)
    step = CHUNK_WEIGHTS // (-(-width // g) * g)
    k = 3 * step + 5
    rng = np.random.default_rng(19)
    w = rng.standard_normal((k, width)) * rng.uniform(0.1, 10, (k, 1))
    w[0, :g] = 0.0  # an all-zero group
    qt = quantize_tensor(w, spec, GroupingConfig(group_size=g))
    _same_array(dequantize_tensor(qt), fancy_index_dequantize(qt))
    for i in (0, step, k - 1):
        _same_array(dequantize_tensor(qt[i]), fancy_index_dequantize(qt[i]))
    for a, b in ((1, step + 2), (step - 1, k)):
        _same_array(dequantize_tensor(qt[a:b]),
                    fancy_index_dequantize(qt[a:b]))


@pytest.mark.parametrize("field, value, at, message", [
    # Code 9 of grid 0 is past its 8 values; a flat index would read
    # grid 1's code 1.
    ("codes", 9, (2, 1, 5), "code 9 at channel 2, group 1 is outside "
                            "[0, 7] for FP3_BITMOD"),
    ("sv_index", 4, (1, 3), "sv_index 4 at channel 1, group 3 is outside "
                            "[0, 3] for FP3_BITMOD"),
    # INT types take the same path: -128 is an int8 but no code of the
    # symmetric grid, 16 a uint8 past the 4-bit codes.
    ("codes", -128, (2, 7, 31), "code -128 at channel 2, group 7 is "
                                "outside [-127, 127] for INT8_SYM"),
    ("codes", 16, (1, 0, 3), "code 16 at channel 1, group 0 is outside "
                             "[0, 15] for INT4_ASYM"),
    ("sv_index", 1, (2, 5), "sv_index 1 at channel 2, group 5 is outside "
                            "[0, 0] for INT6_SYM"),
])
def test_dequantize_tensor_refuses_off_grid_fields(field, value, at, message):
    spec = spec_for(message.split()[-1])  # the message ends with the dtype
    error = InvalidSpecialValueIndex if field == "sv_index" else OutOfRange
    w = np.random.default_rng(20).standard_normal((3, 256))
    qt = quantize_tensor(w, spec, GroupingConfig(32))
    qt.sv_index[...], qt.codes[...] = 0, 0
    getattr(qt, field)[at] = value
    with pytest.raises(error, match=rf"^{re.escape(message)}$"):
        dequantize_tensor(qt)
    # One channel is read as channel 0 of a one-channel tensor.
    one = message.replace(f"channel {at[0]}", "channel 0")
    with pytest.raises(error, match=rf"^{re.escape(one)}$"):
        dequantize_tensor(qt[at[0]])


@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf")])
def test_dequantize_tensor_refuses_a_channel_scale_that_is_not_finite(value):
    # Used to return the channel's weights as NaN or Inf; pack refuses the
    # same tensor.
    w = np.random.default_rng(22).standard_normal((3, 256))
    qt = quantize_tensor(w, spec_for("FP3_BITMOD"), GroupingConfig(128))
    qt.channel_scale[1] = value
    with pytest.raises(OutOfRange, match=re.escape(
            f"channel_scale {value} at channel 1 is not finite")):
        dequantize_tensor(qt)
    with pytest.raises(OutOfRange, match=re.escape(
            f"channel_scale {value} at channel 0 is not finite")):
        dequantize_tensor(qt[1])
    dequantize_tensor(qt[::2])


@pytest.mark.parametrize("valid_size", [1000, 257, 128, 0, -5])
def test_quantized_tensor_refuses_a_valid_size_its_groups_do_not_hold(
        valid_size):
    # Two groups of 128 hold 129..256 weights a channel.  valid_size 1000
    # used to make pack write 436 bytes that unpack refused ("sv_index 175
    # out of range", byte offset 125) and dequantize_tensor give shape
    # (4, 256); valid_size -5 gave (4, 251).
    w = np.random.default_rng(23).standard_normal((4, 256))
    qt = quantize_tensor(w, spec_for("FP3_BITMOD"), GroupingConfig(128))
    message = (f"valid_size {valid_size} does not fit codes of shape "
               "(4, 2, 128)")
    with pytest.raises(ShapeMismatch, match=f"^{re.escape(message)}$"):
        dataclasses.replace(qt, valid_size=valid_size)
    for fits in (129, 256):
        assert dataclasses.replace(qt, valid_size=fits)[0].valid_size == fits
    # One channel, qt[i], runs the same check.
    qt.valid_size = valid_size
    with pytest.raises(ShapeMismatch, match=re.escape("shape (2, 128)")):
        qt[0]


def test_dequantize_tensor_memory_beyond_output():
    # Beyond its output, the chunked gather holds one chunk's uint8 index
    # and the intp copy ``take`` makes of it, 9 bytes a weight, and one
    # byte per group; a gather of the whole tensor at once would hold 9
    # bytes for each of its weights.
    # INT types take the same path, an asymmetric one with its zero-point.
    w = np.random.default_rng(21).standard_normal((256, 4096))
    for name in ("FP3_BITMOD", "INT6_SYM", "INT4_ASYM"):
        qt = quantize_tensor(w, spec_for(name), GroupingConfig(128))
        out, peak = _traced_peak(dequantize_tensor, qt)
        _same_array(out, fancy_index_dequantize(qt))
        assert peak - out.nbytes < 10 * CHUNK_WEIGHTS, name


def test_negation_symmetry():
    rng = np.random.default_rng(14)
    spec = spec_for("FP3_BITMOD")
    grouping = GroupingConfig(group_size=32)
    w = rng.standard_normal(64)
    a = dequantize_tensor(quantize_tensor(w[None], spec, grouping)[0])
    b = dequantize_tensor(quantize_tensor(-w[None], spec, grouping)[0])
    np.testing.assert_array_equal(a, -b)


def test_error_report():
    rep = error_report([1.0, -1.0], [1.0, -0.5])
    assert rep.mse == pytest.approx(0.125)
    assert rep.normalized_error == pytest.approx(0.125)
    assert rep.max_abs_error == pytest.approx(0.5)
    zero = error_report(np.zeros(4), np.zeros(4))
    assert zero.normalized_error == 0.0
    assert error_report(np.zeros(0), np.zeros(0)) == ErrorReport(0.0, 0.0, 0.0)
    with pytest.raises(ShapeMismatch):
        error_report([1.0], [1.0, 2.0])


@pytest.mark.parametrize("original,dequantized", [
    ([1.0, float("nan")], [1.0, 1.0]), ([1.0, 1.0], [float("inf"), 1.0]),
    ([float("inf"), 1.0], [float("inf"), 1.0]),
    ([1.0, float("-inf")], [1.0, float("nan")]),
])
def test_error_report_refuses_nan_or_inf(original, dequantized):
    # [1, nan] against [1, 1] used to give mse NaN but normalized_error 0.
    with pytest.raises(ValueError, match="NaN or Inf"):
        error_report(np.array(original), np.array(dequantized))


def test_error_report_scans_inputs_only_for_a_result_not_finite(monkeypatch):
    scans = []
    monkeypatch.setattr(quant, "check_finite", scans.append)
    error_report([1.0, -1.0], [1.0, -0.5])
    assert scans == []
    # Finite inputs whose difference is beyond float64 are scanned, one
    # scan each, and pass; their error is reported as it is computed.
    with np.errstate(over="ignore"):
        error_report([1e308], [-1e308])
        assert len(scans) == 2
        monkeypatch.undo()
        assert error_report([1e308], [-1e308]).max_abs_error == float("inf")


def test_memory_footprint_bits():
    g = GroupingConfig(group_size=128)
    assert memory_footprint_bits(spec_for("FP3_BITMOD"), g) == F(3) + F(10, 128)
    assert memory_footprint_bits(spec_for("FP4_BITMOD"), g) == F(4) + F(10, 128)
    assert memory_footprint_bits(spec_for("FP3_BASIC"), g) == F(3) + F(8, 128)
    assert memory_footprint_bits(spec_for("INT6_SYM"), g) == F(6) + F(8, 128)
    assert memory_footprint_bits(spec_for("INT4_ASYM"), g) == F(4) + F(24, 128)
