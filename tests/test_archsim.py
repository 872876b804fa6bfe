import dataclasses
import math
import sys
import time
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from bitmod import archsim
from bitmod.archsim import (
    ArchConfig,
    LayerShape,
    SimReport,
    WorkloadSpec,
    _repeat_add,
    baseline_fp16_layer,
    baseline_fp16_sim,
    check_no_stall,
    parse_shape_file,
    profile_shapes,
    simulate_layer,
    simulate_workload,
    with_speedup,
    workload_weight_bytes,
)
from bitmod.dtype import GroupingConfig, spec_for
from bitmod.errors import ConfigError, ParseError
from bitmod.quant import memory_footprint_bits

G128 = GroupingConfig(group_size=128)


def test_arch_config_defaults_and_validation():
    cfg = ArchConfig()
    assert cfg.n_pes == 4 * 4 * 8 * 8
    with pytest.raises(ConfigError):
        ArchConfig(tiles_x=0)
    with pytest.raises(ConfigError):
        ArchConfig(dram_bandwidth_bytes_per_s=0)


@pytest.mark.parametrize("overrides", [
    {"tiles_x": "2"}, {"tiles_x": 2.5}, {"pe_rows": True},
    {"act_buffer_bytes": None}, {"frequency_hz": None},
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
    for name in ("INT8_SYM", "INT6_SYM", "INT4_SYM", "FP4_BASIC", "FP3_BASIC",
                 "FP4_BITMOD", "FP3_BITMOD"):
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
    rep = simulate_layer(layer, spec, G128, cfg)
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
    one = simulate_layer(LayerShape(m=4, k=100, n=8), spec, G128)
    # K pads to one full group of 128.
    assert one.compute_cycles == 1 * 1 * 1 * 64
    three = simulate_layer(LayerShape(m=4, k=100, n=8, repeat=3), spec, G128)
    assert three.compute_cycles == 3 * one.compute_cycles
    assert simulate_layer(LayerShape(m=4, k=100, n=8, repeat=0), spec,
                          G128).total_cycles == 0
    with pytest.raises(ConfigError):
        simulate_layer(LayerShape(m=0, k=8, n=8), spec, G128)


@pytest.mark.parametrize("g", (2, 6, 130))
def test_simulate_layer_rejects_group_not_multiple_of_dot_width(g):
    # G=2 used to give FP3 zero compute cycles; G=6 rounded down.
    with pytest.raises(ConfigError):
        simulate_layer(LayerShape(m=4, k=128, n=8), spec_for("FP3_BITMOD"),
                       GroupingConfig(group_size=g))


def test_baseline_uses_its_own_smaller_tile():
    # The default 6x8 baseline tile against an 8x8 one: the smaller tile
    # needs more row waves, and the bytes moved stay the same.
    tall = LayerShape(m=256, k=128, n=128)
    small = baseline_fp16_layer(tall)
    big = baseline_fp16_layer(tall, ArchConfig(baseline_pe_rows=8,
                                               baseline_pe_cols=8))
    assert small.compute_cycles > big.compute_cycles
    assert small.weight_bytes == big.weight_bytes == 128 * 128 * 2


def test_compute_bound_speedup_ratios_exact():
    # With DRAM made effectively free, speedups equal the PE-count-weighted
    # throughput ratios: (8x8/6x8) * 4/terms.
    cfg = ArchConfig(dram_bandwidth_bytes_per_s=1e18)
    layer = LayerShape(m=384, k=4096, n=4096)
    base = baseline_fp16_layer(layer, cfg)
    for name, terms in (("FP3_BITMOD", 2), ("FP4_BITMOD", 2),
                        ("INT6_SYM", 3), ("INT8_SYM", 4)):
        rep = simulate_layer(layer, spec_for(name), G128, cfg)
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
    per_fetch = workload_weight_bytes(
        WorkloadSpec("w", layers), memory_footprint_bits(spec, G128))
    assert prefill_only.weight_bytes == pytest.approx(per_fetch)
    assert generative.weight_bytes == pytest.approx(per_fetch * 65)


def test_energy_accumulates_and_scales_with_bytes():
    spec = spec_for("INT8_SYM")
    small = simulate_layer(LayerShape(m=8, k=256, n=256), spec, G128)
    big = simulate_layer(LayerShape(m=8, k=256, n=512), spec, G128)
    assert big.energy.dram_j > small.energy.dram_j
    assert big.energy.total_j == pytest.approx(
        big.energy.compute_j + big.energy.sram_j + big.energy.dram_j)


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


@pytest.mark.parametrize("line", ("heads = 0", "blocks = 0", "hidden = -64",
                                  "decode_tokens = -1", "prefill_tokens = -5"))
def test_parse_shape_file_rejects_out_of_range_integers(line):
    # heads = 0 used to raise ZeroDivisionError; negative token counts
    # acted as 0.
    text = f"name = x\nhidden = 64\nblocks = 1\n{line}\n"
    with pytest.raises(ParseError) as ei:
        profile_shapes(text)
    assert ei.value.line == 4


def test_parse_shape_file_allows_zero_tokens():
    w = profile_shapes(TOY + "prefill_tokens = 0\ndecode_tokens = 0\n")
    assert (w.prefill_tokens, w.decode_tokens) == (0, 0)


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
    fp16_bytes = workload_weight_bytes(w, Fraction(16))
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
])
def test_repeat_add_edge_cases(s, x, n):
    assert _repeat_add(s, x, n).hex() == _loop_add(s, x, n).hex()


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


def _oracle_workload(w, one_gemm):
    """Workload total by one addition per block and per decode step."""
    phases = [(w.prefill_tokens * w.batch, 1)] if w.prefill_tokens else []
    if w.decode_tokens:
        phases.append((w.batch, w.decode_tokens))
    out = SimReport()
    for m, mult in phases:
        for layer in w.layers:
            rep = one_gemm(dataclasses.replace(layer, m=m, repeat=1))
            per_layer = SimReport()
            for _ in range(layer.repeat):
                _add_once(per_layer, rep)
            for _ in range(mult):
                _add_once(out, per_layer)
    return out


def _bundled(shape):
    return profile_shapes(resources.files("bitmod.shapes")
                          .joinpath(f"{shape}.shape").read_text())


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
        want = _oracle_workload(w, baseline_fp16_layer)
    else:
        spec = spec_for(dtype_name)
        got = simulate_workload(w, spec, G128)
        want = _oracle_workload(
            w, lambda layer: simulate_layer(layer, spec, G128))
    assert dataclasses.asdict(got) == dataclasses.asdict(want)
