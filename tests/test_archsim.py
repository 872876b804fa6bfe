import dataclasses
import hashlib
import json
import math
import re
import sys
import time
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import PE_DTYPES, one_gemm
from bitmod import archsim, cli
from bitmod.archsim import (
    _PLAIN_RUN,
    ArchConfig,
    LayerShape,
    SimReport,
    WorkloadSpec,
    _accumulate,
    _repeat_add,
    baseline_fp16_sim,
    check_no_stall,
    parse_shape_file,
    profile_shapes,
    simulate_workload,
    with_speedup,
)
from bitmod.dtype import GroupingConfig, spec_for
from bitmod.errors import ConfigError, ParseError
from bitmod.quant import memory_footprint_bits

G128 = GroupingConfig(group_size=128)


def test_arch_config_defaults_and_validation():
    # A zero baseline tile used to divide by zero; a negative one gave
    # negative baseline cycles.  A zero frequency or DRAM bandwidth gave
    # one message that named neither field.
    for name, value in (("tiles_x", 0), ("frequency_hz", 0),
                        ("dram_bandwidth_bytes_per_s", 0),
                        ("baseline_pe_rows", 0), ("baseline_pe_cols", -8)):
        with pytest.raises(ConfigError, match=f"^{name} must be positive"):
            ArchConfig(**{name: value})


def test_arch_config_names_the_first_bad_field():
    # One rule per field, checked in field order: type, then bound.
    with pytest.raises(ConfigError, match="^tiles_y must be positive"):
        ArchConfig(tiles_y=0, frequency_hz=-1, baseline_pe_cols="8")
    with pytest.raises(ConfigError, match="^e_sram_byte must be >= 0"):
        ArchConfig(e_sram_byte=-1e-12, baseline_pe_rows="6")


def test_compute_energy_counts_each_arrays_own_pes():
    # The bit-serial array has 4x4 tiles of 8x8 PEs, the FP16 baseline 4x4
    # tiles of 6x8; each pays e_pe_cycle per PE per compute cycle.
    cfg = ArchConfig()
    layer = LayerShape(m=64, k=1024, n=512)
    rep = one_gemm(layer, spec_for("FP3_BITMOD"), G128, cfg)
    assert rep.energy.compute_j == (rep.compute_cycles * (4 * 4 * 8 * 8)
                                    * cfg.e_pe_cycle)
    base = one_gemm(layer, cfg=cfg)
    assert base.energy.compute_j == (base.compute_cycles * (4 * 4 * 6 * 8)
                                     * cfg.e_pe_cycle)


@pytest.mark.parametrize("overrides", [
    {"tiles_x": "2"}, {"tiles_x": 2.5}, {"pe_rows": True},
    {"baseline_pe_cols": None}, {"frequency_hz": None},
    {"frequency_hz": True}, {"frequency_hz": "1e9"},
    {"dram_bandwidth_bytes_per_s": math.inf}, {"e_dram_byte": math.nan},
    {"e_pe_cycle": 10 ** 400},
], ids=["int-str", "int-float", "int-bool", "int-none", "float-none",
        "float-bool", "float-str", "float-inf", "float-nan",
        "float-int-beyond-range"])
def test_arch_config_rejects_wrongly_typed_values(overrides):
    with pytest.raises(ConfigError, match=next(iter(overrides))):
        ArchConfig(**overrides)


@pytest.mark.parametrize("name", ("e_pe_cycle", "e_sram_byte", "e_dram_byte"))
def test_arch_config_rejects_negative_energy_costs(name):
    # A negative per-event cost used to give silently wrong energies.
    with pytest.raises(ConfigError, match=name):
        ArchConfig(**{name: -1e-12})
    assert getattr(ArchConfig(**{name: 0}), name) == 0  # zero stays valid


def test_arch_config_accepts_int_for_float_fields():
    cfg = ArchConfig(frequency_hz=10 ** 9, e_sram_byte=0)
    assert cfg.frequency_hz == 1e9


def test_check_no_stall_all_supported_combinations():
    for name in PE_DTYPES:
        spec = spec_for(name)
        for g in (16, 32, 64, 128, 256):
            assert check_no_stall(spec, GroupingConfig(group_size=g))


def test_check_no_stall_warns_when_violated():
    # A hypothetical 1-term dtype at G=16 would give 4 < 8 compute cycles;
    # the nearest real trigger is G=8 with a 2-term type.
    with pytest.warns(UserWarning):
        ok = check_no_stall(spec_for("FP3_BITMOD"), GroupingConfig(group_size=8))
    assert not ok


def test_simulate_layer_closed_form_cycles():
    cfg = ArchConfig()
    spec = spec_for("INT6_SYM")
    layer = LayerShape(m=256, k=4096, n=4096)
    rep = one_gemm(layer, spec, G128, cfg)
    waves_m = math.ceil(256 / (4 * 8))
    waves_n = math.ceil(4096 / (4 * 8))
    groups = 4096 // 128
    assert rep.compute_cycles == waves_m * waves_n * groups * (128 // 4) * 3
    bits = memory_footprint_bits(spec, G128)
    assert rep.weight_bytes == pytest.approx(float(4096 * 4096 * bits / 8))
    assert rep.activation_bytes == (256 * 4096 + 256 * 4096) * 2
    assert rep.total_cycles == max(rep.compute_cycles, rep.dram_cycles)


def test_simulate_layer_k_padding_and_repeat():
    spec = spec_for("FP3_BITMOD")
    one = one_gemm(LayerShape(m=4, k=100, n=8), spec, G128)
    # K pads to one full group of 128.
    assert one.compute_cycles == 1 * 1 * 1 * 64
    three = one_gemm(LayerShape(m=4, k=100, n=8, repeat=3), spec, G128)
    assert three.compute_cycles == 3 * one.compute_cycles
    assert one_gemm(LayerShape(m=4, k=100, n=8, repeat=0), spec,
                    G128).total_cycles == 0
    # A workload skips a phase of no tokens, so m = 0 costs nothing; a
    # zero K or N is refused.
    with pytest.raises(ConfigError):
        one_gemm(LayerShape(m=4, k=0, n=8), spec, G128)
    # The FP16 baseline pads K to whole DOT_WIDTH-wide dots: 26 dots of 4
    # cycles each, for K = 102 as for K = 104.
    for k in (102, 104):
        assert one_gemm(LayerShape(m=4, k=k, n=8)).compute_cycles == 26 * 4


@pytest.mark.parametrize("simulate", [
    lambda w: simulate_workload(w, spec_for("FP3_BITMOD"), G128),
    baseline_fp16_sim], ids=["bitserial", "fp16"])
def test_negative_repeat_raises_config_error(simulate):
    # Used to give compute_cycles -192 on the bit-serial array.
    w = WorkloadSpec("w", (LayerShape(0, 128, 8, -3),), 4, 0)
    with pytest.raises(ConfigError, match=re.escape(
            "negative repeat in LayerShape(m=4, k=128, n=8, repeat=-3)")):
        simulate(w)


@pytest.mark.parametrize("simulate", [
    lambda layer: one_gemm(layer, spec_for("FP3_BITMOD"), G128),
    one_gemm], ids=["bitserial", "fp16"])
def test_gemm_figures_beyond_float_range_raise_config_error(simulate):
    # Used to end in an OverflowError from the int-to-float conversions.
    layer = LayerShape(1, 10**160, 10**160)
    with pytest.raises(ConfigError, match="overflow") as info:
        simulate(layer)
    assert str(layer) in str(info.value)


@pytest.mark.parametrize("big", (2**53 + 1, 3 * 2**53 + 1))
@pytest.mark.parametrize("axis", ("m", "n"))
@pytest.mark.parametrize(("simulate", "tile_rows", "tile_cols", "per_wave"), [
    (lambda layer: one_gemm(layer, spec_for("FP3_BITMOD"), G128),
     4 * 8, 4 * 8, 64),
    (one_gemm, 4 * 6, 4 * 8, 128)], ids=["bitserial", "fp16"])
def test_compute_cycles_exact_past_2_53(simulate, tile_rows, tile_cols,
                                        per_wave, axis, big):
    # Float ceilings of m / rows and n / cols used to lose the last
    # partial wave: 64 cycles short at m = 2^53 + 1 on the bit-serial array.
    # On the baseline's 24 rows that m divides to an exact float; 3 * 2^53
    # + 1 does not.
    dims = {"m": 1, "n": 1, axis: big}
    waves = ((dims["m"] + tile_rows - 1) // tile_rows
             * ((dims["n"] + tile_cols - 1) // tile_cols))
    rep = simulate(LayerShape(dims["m"], 128, dims["n"]))
    assert rep.compute_cycles == waves * per_wave


def test_accumulate_raises_on_a_float_total_beyond_range():
    big = (1e308, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(OverflowError):
        _accumulate(big, big, 1)


@pytest.mark.parametrize("simulate", [
    lambda w: simulate_workload(w, spec_for("FP3_BITMOD"), G128),
    baseline_fp16_sim], ids=["bitserial", "fp16"])
def test_workload_totals_beyond_float_range_raise_config_error(simulate):
    # Every GEMM's figures are finite, but their sum over 2^40 decode steps
    # is not; it used to be reported as inf.
    w = dataclasses.replace(
        profile_shapes(f"name = huge\nhidden = {10**150}\nblocks = 1\n"),
        decode_tokens=2**40)
    with pytest.raises(ConfigError, match="overflow") as info:
        simulate(w)
    assert "'huge'" in str(info.value)


@pytest.mark.parametrize("g", (2, 6, 130))
def test_simulate_layer_rejects_group_not_multiple_of_dot_width(g):
    # G=2 used to give FP3 zero compute cycles; G=6 rounded down.
    with pytest.raises(ConfigError):
        one_gemm(LayerShape(m=4, k=128, n=8), spec_for("FP3_BITMOD"),
                 GroupingConfig(group_size=g))


def test_baseline_uses_its_own_smaller_tile():
    # The default 6x8 baseline tile against an 8x8 one: the smaller tile
    # needs more row waves, and the bytes moved stay the same.
    tall = LayerShape(m=256, k=128, n=128)
    small = one_gemm(tall)
    big = one_gemm(tall, cfg=ArchConfig(baseline_pe_rows=8,
                                        baseline_pe_cols=8))
    assert small.compute_cycles > big.compute_cycles
    assert small.weight_bytes == big.weight_bytes == 128 * 128 * 2


def test_compute_bound_speedup_ratios_exact():
    # With DRAM made effectively free, speedups equal the PE-count-weighted
    # throughput ratios: (8x8/6x8) * 4/terms.
    cfg = ArchConfig(dram_bandwidth_bytes_per_s=1e18)
    layer = LayerShape(m=384, k=4096, n=4096)
    base = one_gemm(layer, cfg=cfg)
    for name, terms in (("FP3_BITMOD", 2), ("FP4_BITMOD", 2),
                        ("INT6_SYM", 3), ("INT8_SYM", 4)):
        rep = one_gemm(layer, spec_for(name), G128, cfg)
        with_speedup(rep, base)
        expect = (64 / 48) * (4 / terms)
        assert rep.speedup_vs_baseline == pytest.approx(expect, rel=1e-12)


def test_memory_bound_speedup_tracks_footprint():
    # With compute made effectively free, speedup approaches the byte ratio.
    cfg = ArchConfig(dram_bandwidth_bytes_per_s=1.0)
    w = WorkloadSpec("t", (LayerShape(m=0, k=4096, n=4096),),
                     prefill_tokens=1, decode_tokens=0)
    spec = spec_for("FP3_BITMOD")
    rep = simulate_workload(w, spec, G128, cfg)
    base = baseline_fp16_sim(w, cfg)
    with_speedup(rep, base)
    total_bits = float(memory_footprint_bits(spec, G128))
    byte_ratio = (16 * 4096 * 4096 + 16 * (4096 + 4096) * 2 * 8) / \
                 (total_bits * 4096 * 4096 + 16 * (4096 + 4096) * 2 * 8 / 2)
    assert rep.speedup_vs_baseline == pytest.approx(byte_ratio, rel=0.05)
    assert rep.speedup_vs_baseline > 4.0


def test_workload_phases_decode_refetches_weights():
    layers = (LayerShape(m=0, k=512, n=512),)
    spec = spec_for("INT6_SYM")
    prefill_only = simulate_workload(
        WorkloadSpec("p", layers, prefill_tokens=256, decode_tokens=0),
        spec, G128)
    generative = simulate_workload(
        WorkloadSpec("g", layers, prefill_tokens=256, decode_tokens=64),
        spec, G128)
    per_fetch = one_gemm(LayerShape(256, 512, 512), spec, G128).weight_bytes
    assert prefill_only.weight_bytes == per_fetch
    assert generative.weight_bytes == per_fetch * 65


def test_energy_accumulates_and_scales_with_bytes():
    spec = spec_for("INT8_SYM")
    small = one_gemm(LayerShape(m=8, k=256, n=256), spec, G128)
    big = one_gemm(LayerShape(m=8, k=256, n=512), spec, G128)
    assert big.energy.dram_j > small.energy.dram_j


# ---------------------------------------------------------------------------
# shape files
# ---------------------------------------------------------------------------

TOY = """
# comment
name = toy
hidden = 64
ffn = 256
heads = 4
blocks = 1
"""


def test_parse_shape_file():
    v = parse_shape_file(TOY)
    assert v == {"name": "toy", "hidden": 64, "ffn": 256, "heads": 4,
                 "blocks": 1}


def test_parse_shape_file_errors_carry_line_numbers():
    with pytest.raises(ParseError) as ei:
        parse_shape_file("name = x\nbogus line\n")
    assert ei.value.line == 2
    with pytest.raises(ParseError):
        parse_shape_file("name = x\nhidden = abc\nblocks = 1\n")
    with pytest.raises(ParseError):
        parse_shape_file("hidden = 64\nblocks = 1\n")  # missing name
    with pytest.raises(ParseError):
        parse_shape_file("\n# only comments\n")
    # A repeated key used to take its last value without a word.
    with pytest.raises(ParseError, match="repeated key 'hidden'") as ei:
        parse_shape_file("name = x\nhidden = 64\nblocks = 1\nHidden = 128\n")
    assert ei.value.line == 4


@pytest.mark.parametrize("line", ("heads = 0", "blocks = 0", "hidden = -64"))
def test_parse_shape_file_rejects_out_of_range_integers(line):
    # heads = 0 used to raise ZeroDivisionError.
    text = f"name = x\nhidden = 64\nblocks = 1\n{line}\n"
    with pytest.raises(ParseError) as ei:
        profile_shapes(text)
    assert ei.value.line == 4


@pytest.mark.parametrize("line", ("decode_tokens = -1", "prefill_tokens = -5",
                                  "decode_tokens = 1000"))
def test_parse_shape_file_rejects_token_keys(line):
    # Token counts come from the caller; a shape file that set them was
    # silently overridden.
    text = f"name = x\nhidden = 64\nblocks = 1\n{line}\n"
    with pytest.raises(ParseError, match="unknown key") as ei:
        profile_shapes(text)
    assert ei.value.line == 4


@pytest.mark.parametrize("lines, message", [
    ("ffn_gemms = 4", "ffn_gemms must be 2 or 3"),
    ("heads = 3", "heads must divide hidden and kv_heads <= heads"),
    ("heads = 4\nkv_heads = 8",
     "heads must divide hidden and kv_heads <= heads"),
], ids=["ffn-gemms", "heads", "kv-heads"])
def test_profile_shapes_rejects_inconsistent_counts(lines, message):
    with pytest.raises(ParseError) as ei:
        profile_shapes(f"name = x\nhidden = 64\nblocks = 1\n{lines}\n")
    assert str(ei.value) == message and ei.value.line is None


def test_profile_shapes_gemm_list():
    w = profile_shapes(TOY)
    assert w.name == "toy"
    # Q, K, V, O, FFN up, FFN down (ffn_gemms defaults to 2).
    assert len(w.layers) == 6
    assert w.layers[0] == LayerShape(m=0, k=64, n=64, repeat=1)
    assert w.layers[4] == LayerShape(m=0, k=64, n=256, repeat=1)
    assert w.layers[5] == LayerShape(m=0, k=256, n=64, repeat=1)


def test_profile_shapes_gqa_and_gated_ffn_and_vocab():
    text = ("name = m\nhidden = 64\nffn = 128\nheads = 8\nkv_heads = 2\n"
            "blocks = 3\nffn_gemms = 3\nvocab = 1000\n")
    w = profile_shapes(text)
    # K/V GEMMs shrink with grouped-query attention.
    assert w.layers[1].n == 64 * 2 // 8
    assert sum(1 for l in w.layers if l.n == 128) == 2  # up + gate
    assert w.layers[-1] == LayerShape(m=0, k=64, n=1000, repeat=1)
    assert all(l.repeat == 3 for l in w.layers[:-1])


def test_bundled_llama_shape_weight_count():
    from importlib import resources
    text = resources.files("bitmod.shapes").joinpath("llama-2-7b.shape") \
        .read_text()
    w = profile_shapes(text)
    n_weights = sum(l.k * l.n * l.repeat for l in w.layers)
    fp16_bytes = baseline_fp16_sim(w).weight_bytes
    assert fp16_bytes == n_weights * 2
    # Llama-2-7B linear layers hold ~6.6B parameters (13.2 GB in FP16).
    assert 12e9 < fp16_bytes < 15e9


def test_llama_generative_int6_speedup_band():
    from importlib import resources
    text = resources.files("bitmod.shapes").joinpath("llama-2-7b.shape") \
        .read_text()
    from dataclasses import replace
    w = replace(profile_shapes(text), prefill_tokens=256, decode_tokens=256)
    spec = spec_for("INT6_SYM")
    rep = simulate_workload(w, spec, G128)
    base = baseline_fp16_sim(w)
    with_speedup(rep, base)
    assert 1.8 <= rep.speedup_vs_baseline <= 2.7
    assert rep.weight_bytes / rep.activation_bytes >= 10.0


# ---------------------------------------------------------------------------
# closed-form totals
# ---------------------------------------------------------------------------

def _loop_add(s, x, n):
    for _ in range(n):
        s += x
    return s


_MIN_NORMAL = sys.float_info.min
_FEW_BITS = st.builds(math.ldexp, st.integers(1, 15),
                      st.integers(-1078, 1020))  # ties; 0 and subnormals too
_NONNEG = st.one_of(
    st.just(0.0),
    _FEW_BITS,
    st.floats(min_value=0.0, max_value=_MIN_NORMAL, exclude_max=True),
    st.floats(min_value=2.0 ** 1020, allow_infinity=False),
    # a few ulps below a power of two, so short runs cross binades
    st.builds(lambda r, e: math.ldexp(2 ** 53 - r, e),
              st.integers(1, 2 ** 12), st.integers(-1074, 971)),
    st.floats(min_value=0.0, allow_infinity=False, allow_nan=False),
)


@st.composite
def _addend_pairs(draw):
    s = draw(_NONNEG)
    how = draw(st.sampled_from(("any", "fraction", "ulps")))
    if how == "any" or not math.isfinite(s):
        x = draw(_NONNEG)
    elif how == "fraction":  # a few-bit fraction of s: tiny steps near its ulp
        x = s * draw(st.builds(math.ldexp, st.integers(1, 15),
                               st.integers(-60, 0)))
    else:  # lowest set bit at ulp(s) * 2**(j - 1): x / ulp is a tie j
        # binades up, which long runs reach after a jump
        ulp_exp = math.frexp(math.ulp(s))[1] - 1
        m = draw(st.integers(1, 15) | st.integers(1, 2 ** 52)) | 1
        x = math.ldexp(m, min(ulp_exp + draw(st.integers(0, 12)) - 1, 970))
    return s, x


@settings(max_examples=300, deadline=None)
@given(_addend_pairs(), st.integers(min_value=0, max_value=20_000))
def test_repeat_add_equals_sequential_additions(pair, n):
    s, x = pair
    assert _repeat_add(s, x, n).hex() == _loop_add(s, x, n).hex()


@pytest.mark.parametrize("s, x, n", [
    (0.0, 0.1, 1_000_003),
    (1.0, 2.0 ** -53, 100_000),        # a tie from an even s: never moves
    (1.0 + 2.0 ** -52, 2.0 ** -53, 100_000),  # a tie from an odd s
    (0.0, 5e-324, 100_000),            # subnormal steps into the normals
    (2.0 ** 1023, 2.0 ** 1020, 100),   # overflows to inf
    (2.0 ** 53 - 71, 1.0, 2000),       # the jump must stop short of 2**53
    (2.0 ** 53 - 190, 3.0, 2000),      # past 2**53, 3 = 1.5 ulps lands odd
    # An infinite operand, from no addition (s itself) to three.
    *[(s, x, n) for s, x in [(math.inf, 1.0), (math.inf, 0.0),
                             (1.0, math.inf), (0.0, math.inf),
                             (math.inf, math.inf)] for n in range(4)],
])
def test_repeat_add_edge_cases(s, x, n):
    assert _repeat_add(s, x, n).hex() == _loop_add(s, x, n).hex()


@pytest.mark.parametrize("s, x, n", [
    # x = 1.5 = 3/2 over the finer denominator 2: the numerator of
    # s + n*x is 2**53 - 1 (every partial sum a float: the exact-sum path),
    # then 2**53 and 2**53 + 1 (the loop paths).
    (2.0 ** 52 - 152, 1.5, 101),
    (2.0 ** 52 - 150, 1.5, 100),
    (2.0 ** 52 - 151, 1.5, 101),
    (7 * 5e-324, 3 * 5e-324, 1000),  # subnormal dyadic steps, all exact
    (0.0, 0.1, 65),                  # the shortest run past the plain loop
    (2.0 ** 53 - 10, 1.0, 100),      # the loop stops at 2**53, not 2**53 + 90
])
def test_repeat_add_either_side_of_the_exact_sum_bound(s, x, n):
    assert _repeat_add(s, x, n).hex() == _loop_add(s, x, n).hex()


def test_repeat_add_long_inexact_run_returns_at_once():
    n = 10 ** 12  # a plain loop would take hours
    t0 = time.perf_counter()
    got = _repeat_add(0.0, 0.1, n)  # 0.1 has a full 53-bit mantissa
    assert time.perf_counter() - t0 < 0.05
    assert got == pytest.approx(n * 0.1, rel=1e-3)


@pytest.mark.parametrize("s, x, want", [
    (3.0, 0.0, 3.0),
    (1.0, 2.0 ** -54, 1.0),   # under half an ulp: no step moves s
    (math.inf, 1.0, math.inf),
])
def test_repeat_add_returns_at_once_when_s_stops_moving(s, x, want):
    n = 10 ** 7  # a plain loop would take about a second
    t0 = time.perf_counter()
    assert _repeat_add(s, x, n) == want
    assert time.perf_counter() - t0 < 0.05


def test_repeat_add_counts_past_2_53():
    # From 0 in steps of 3: 2**53 // 3 exact steps, one that rounds to
    # 2**53, 2**51 steps of 4 (3 is a tie of 1.5 ulps, rounded to the even
    # 2) up to 2**54, then steps of 4 (0.75 ulps) until 2**55.  A count of
    # 2**53 + 1 ends among the last, and a float would hold it as 2**53.
    n = 2 ** 53 + 1
    ends_at_2_54 = 2 ** 53 // 3 + 1 + 2 ** 51
    assert _repeat_add(0.0, 3.0, n) == 2 ** 54 + 4 * (n - ends_at_2_54)
    # At 2**55, 3 is under half an ulp: no count moves s further.
    assert _repeat_add(0.0, 3.0, 10 ** 40) == 2 ** 55


@settings(max_examples=200, deadline=None)
@given(st.lists(_addend_pairs(), min_size=5, max_size=5),
       st.integers(0, 2 * _PLAIN_RUN) | st.integers(0, 5_000))
@example([(0.5, 0.1), (3.0, 2.0 ** -40), (1e-12, 4e-12), (7.0, 1.5),
          (1.0, 1.0)], _PLAIN_RUN + 1)
@example([(1.0, 1.0)] * 4 + [(2.0 ** 1023, 2.0 ** 1020)], _PLAIN_RUN)
def test_accumulate_equals_per_field_sequential_additions(pairs, times):
    totals = tuple(s for s, _ in pairs)
    figures = tuple(x for _, x in pairs)
    want = [_loop_add(s, x, times) for s, x in pairs]
    if not all(map(math.isfinite, want)):
        with pytest.raises(OverflowError):
            _accumulate(totals, figures, times)
        return
    got = _accumulate(totals, figures, times)
    assert [v.hex() for v in got] == [v.hex() for v in want]


def _add_once(out, rep):
    """One sequential addition of every column."""
    out.compute_cycles += rep.compute_cycles
    out.dram_cycles += rep.dram_cycles
    out.total_cycles += rep.total_cycles
    out.weight_bytes += rep.weight_bytes
    out.activation_bytes += rep.activation_bytes
    out.energy.compute_j += rep.energy.compute_j
    out.energy.sram_j += rep.energy.sram_j
    out.energy.dram_j += rep.energy.dram_j


def _oracle_workload(w, spec=None):
    """Workload total by one addition per block and per decode step, on
    the bit-serial array for ``spec`` at G = 128, or on the FP16 baseline
    when ``spec`` is None."""
    phases = [(w.prefill_tokens, 1)] if w.prefill_tokens else []
    if w.decode_tokens:
        phases.append((1, w.decode_tokens))
    out = SimReport()
    for m, mult in phases:
        for layer in w.layers:
            rep = one_gemm(dataclasses.replace(layer, m=m, repeat=1), spec,
                           G128)
            per_layer = SimReport()
            for _ in range(layer.repeat):
                _add_once(per_layer, rep)
            for _ in range(mult):
                _add_once(out, per_layer)
    return out


def _bundled(shape):
    return profile_shapes(resources.files("bitmod.shapes")
                          .joinpath(f"{shape}.shape").read_text())


def _hex_fields(rep):
    row = dataclasses.asdict(rep)
    row.update(row.pop("energy"))
    return {k: v.hex() if isinstance(v, float) else v for k, v in row.items()}


GQA = ("name = gqa\nhidden = 256\nffn = 688\nheads = 32\nkv_heads = 8\n"
       "blocks = 4\nffn_gemms = 3\nvocab = 1000\n")
A = LayerShape(m=0, k=256, n=512, repeat=3)
B = LayerShape(m=0, k=512, n=256, repeat=3)


@pytest.mark.parametrize("decode", (0, 1, 256))
@pytest.mark.parametrize("w, calls_per_phase", [
    # Q, K + V, O, up + gate, down, LM head: K and V form a run, Q and O
    # do not (kv_heads < heads).
    (profile_shapes(GQA), 6),
    # Equal layers that are not adjacent are simulated apart.
    (WorkloadSpec("aba", (A, B, A)), 3),
    # Layers that differ only in their placeholder m form one run.
    (WorkloadSpec("m", (A, dataclasses.replace(A, m=77))), 1),
    # Layers that differ only in their repeat do not.
    (WorkloadSpec("r", (A, dataclasses.replace(A, repeat=5))), 2),
    # Each GEMM's own repeat totals on both sides of the plain-loop cutoff;
    # the run of repeat 0 has no work and is not costed.
    (WorkloadSpec("repeats", tuple(dataclasses.replace(A, repeat=r)
                                   for r in (0, 1, 64, 65))), 3),
], ids=["gqa", "aba", "m-placeholder", "repeat-differs", "repeats"])
def test_runs_of_equal_gemms_equal_sequential_sums(w, calls_per_phase,
                                                   decode, monkeypatch):
    w = dataclasses.replace(w, decode_tokens=decode)
    spec = spec_for("FP3_BITMOD")
    want = _oracle_workload(w, spec)
    calls = []
    accumulate = archsim._accumulate
    monkeypatch.setattr(archsim, "_accumulate", lambda *args: (
        calls.append(args) or accumulate(*args)))
    got = simulate_workload(w, spec, G128)
    assert _hex_fields(got) == _hex_fields(want)
    # A costed GEMM is two additions: its figures summed over its repeat,
    # then that sum added to the totals for every layer and step it stands
    # for.
    assert len(calls) == 2 * calls_per_phase * (1 + (decode > 0))
    assert (_hex_fields(baseline_fp16_sim(w))
            == _hex_fields(_oracle_workload(w)))


# The 100 000-step decode runs for one shape and dtype: the oracle loop
# takes about half a second per workload there.
@pytest.mark.parametrize("shape, decode, dtype_name", [
    *((s, d, n) for s in ("toy", "opt-1.3b", "llama-2-7b") for d in (0, 1, 256)
      for n in ("FP3_BITMOD", "INT6_SYM", "FP16")),
    ("llama-2-7b", 100_000, "FP3_BITMOD"),
])
def test_closed_form_totals_equal_sequential_sums(shape, decode, dtype_name):
    w = dataclasses.replace(_bundled(shape), decode_tokens=decode)
    if dtype_name == "FP16":
        got = baseline_fp16_sim(w)
        want = _oracle_workload(w)
    else:
        spec = spec_for(dtype_name)
        got = simulate_workload(w, spec, G128)
        want = _oracle_workload(w, spec)
    assert dataclasses.asdict(got) == dataclasses.asdict(want)


# The benchmark's recorded simulate-sweep rows: {llama-2-7b, opt-1.3b} x
# {INT6_SYM, INT8_SYM, FP4_BITMOD, FP3_BITMOD} x decode {0, 256, 100000}
# at G = 128.  Only the file is read.
SWEEP = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                    / "reference" / "sweep.json").read_text())["rows"]
SWEEP_KEYS = [f"{shape}/{name}/{decode}"
              for shape in ("llama-2-7b", "opt-1.3b")
              for name in ("INT6_SYM", "INT8_SYM", "FP4_BITMOD", "FP3_BITMOD")
              for decode in (0, 256, 100000)]


def _sweep_row(rep):
    row = dataclasses.asdict(rep)
    row.update((f"energy_{k}", v) for k, v in row.pop("energy").items())
    return row


def test_sweep_reference_holds_every_config():
    assert sorted(SWEEP) == sorted(SWEEP_KEYS)


@pytest.mark.parametrize("key", SWEEP_KEYS)
def test_simulate_rows_equal_recorded_sweep(key, capsys):
    shape, name, decode = key.split("/")
    w = dataclasses.replace(_bundled(shape), decode_tokens=int(decode))
    base = baseline_fp16_sim(w)
    rep = with_speedup(simulate_workload(w, spec_for(name), G128), base)
    assert _sweep_row(rep) == SWEEP[key]["dtype"]
    assert _sweep_row(base) == SWEEP[key]["baseline"]
    # The CLI's rows hold the same fields, its energy_*_J named energy_*_j;
    # its FP16 row reports a speedup of 1.0 where the record has none.
    assert cli.main(["simulate", shape, "--dtype", name, "--decode-tokens",
                     decode, "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [r["dtype"] for r in rows] == ["FP16_BASELINE", name]
    records = (dict(SWEEP[key]["baseline"], speedup_vs_baseline=1.0),
               SWEEP[key]["dtype"])
    for row, record in zip(rows, records):
        row = {k.lower() if k.startswith("energy_") else k: v
               for k, v in row.items()}
        assert {field: row[field] for field in record} == record


# Every simulate row beyond the benchmark's sweep: the three bundled shapes,
# the seven PE dtypes and the FP16 baseline, prefill-only, decode-only,
# one-token and long runs, on the default array and on a 1x1-tile, 1x1-PE
# array with 1e9 B/s of DRAM.  The digest covers every int and every
# float's hex, and was recorded before the workload pass was rewritten.
PIN_DTYPES = ("INT8_SYM", "INT6_SYM", "INT4_SYM", "FP4_BASIC", "FP3_BASIC",
              "FP4_BITMOD", "FP3_BITMOD")
PIN_CONFIGS = ({}, {"tiles_x": 1, "tiles_y": 1, "pe_rows": 1, "pe_cols": 1,
                    "baseline_pe_rows": 1, "baseline_pe_cols": 1,
                    "dram_bandwidth_bytes_per_s": 1e9})
PIN_TOKENS = ((256, 0), (0, 1), (1, 1), (256, 256), (0, 2 ** 40))
PIN_SHA256 = "a47def0976703ddf36c2aae90c6322929912c659658f506d693b6aed6b47c73b"


def _pin_columns(rep):
    e = rep.energy
    floats = (rep.weight_bytes, rep.activation_bytes, e.compute_j, e.sram_j,
              e.dram_j)
    speedup = rep.speedup_vs_baseline
    return [rep.compute_cycles, rep.dram_cycles, rep.total_cycles,
            *(v.hex() for v in floats),
            None if speedup is None else speedup.hex()]


def test_simulate_rows_equal_pinned_digest():
    rows = []
    for shape in ("toy", "opt-1.3b", "llama-2-7b"):
        for overrides in PIN_CONFIGS:
            cfg = ArchConfig(**overrides)
            for prefill, decode in PIN_TOKENS:
                w = dataclasses.replace(_bundled(shape),
                                        prefill_tokens=prefill,
                                        decode_tokens=decode)
                base = baseline_fp16_sim(w, cfg)
                rows.append([shape, prefill, decode, "FP16_BASELINE",
                             *_pin_columns(base)])
                for name in PIN_DTYPES:
                    rep = with_speedup(
                        simulate_workload(w, spec_for(name), G128, cfg), base)
                    rows.append([shape, prefill, decode, name,
                                 *_pin_columns(rep)])
    assert len(rows) == 3 * 2 * 5 * 8
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == PIN_SHA256


def test_numpy_group_size_totals_equal_python_int_ones():
    # At np.int64(128) the cycle totals were np.int64: compute_cycles
    # wrapped to 2 828 260 566 814 556 160 here, against the exact
    # 113 508 725 009 071 865 856.
    w = dataclasses.replace(_bundled("llama-2-7b"), decode_tokens=2 ** 40)
    spec = spec_for("FP3_BITMOD")
    got = simulate_workload(w, spec, GroupingConfig(group_size=np.int64(128)))
    want = simulate_workload(w, spec, G128)
    assert dataclasses.asdict(got) == dataclasses.asdict(want)
    assert want.compute_cycles == 113_508_725_009_071_865_856
    for column in ("compute_cycles", "dram_cycles", "total_cycles"):
        assert type(getattr(got, column)) is int


def test_workload_gemms_are_built_once_and_stay_out_of_the_fields():
    w = _bundled("toy")
    same = dataclasses.replace(w)
    gemms = w._gemms
    simulate_workload(w, spec_for("FP3_BITMOD"), G128)
    baseline_fp16_sim(w)
    assert w._gemms is gemms
    assert (w == same and hash(w) == hash(same) and repr(w) == repr(same))
    # A replaced token count gets its own list.
    decode = dataclasses.replace(w, decode_tokens=3)
    assert decode._gemms == gemms + tuple((1, k, n, r, 3 * length)
                                          for _, k, n, r, length in gemms)


def _stalls_and_overflows(w):
    """A stalling spec on ``w`` with its GEMM widened past the float range:
    the GEMM's overflow error comes before the stall warning.  A GEMM of
    repeat 0 has no figures, so it neither raises nor warns."""
    layer = dataclasses.replace(w.layers[0], n=10 ** 400)
    w = dataclasses.replace(w, layers=(layer,))
    if not layer.repeat:
        return simulate_workload(w, spec_for("FP3_BITMOD"),
                                 GroupingConfig(group_size=8))
    with pytest.raises(ConfigError, match=r"^LayerShape\(m=4, k=128, n=1000"
                       r"\d*, repeat=2\): byte or energy figures overflow"):
        simulate_workload(w, spec_for("FP3_BITMOD"),
                          GroupingConfig(group_size=8))


@pytest.mark.parametrize("simulate, warns", [
    (lambda w: simulate_workload(w, spec_for("FP3_BITMOD"),
                                 GroupingConfig(group_size=8)), True),
    (lambda w: simulate_workload(w, spec_for("FP3_BITMOD"), G128), False),
    (baseline_fp16_sim, False),
    (_stalls_and_overflows, False),
], ids=["stalls", "no-stall", "fp16", "stalls-overflow"])
@pytest.mark.parametrize("repeat", (0, 2))
def test_stall_warning_only_after_a_simulated_gemm(simulate, warns, repeat):
    w = WorkloadSpec("w", (LayerShape(0, 128, 8, repeat),), 4, 1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        simulate(w)
    # One warning per call, though the prefill pass and the decode step
    # are both simulated GEMMs.
    assert len(caught) == (1 if warns and repeat else 0)
