"""End-to-end acceptance gate.

Each test covers one numbered acceptance criterion and prints a single
PASS/FAIL line (undiverted from pytest's capture) with the measured
quantities, so a full run reads as a checklist.
"""

import math
import time
from fractions import Fraction

import numpy as np

import pe_oracle
from conftest import (exact_dot, nearest_grid_index, oracle_acts,
                      oracle_weight_terms, single_outlier_groups)
from bitmod import archsim, packfile, synth
from bitmod.archsim import FP16_MAC_CYCLES_PER_DOT
from bitmod.bitserial import encode_weight, term_value_sum
from bitmod.dtype import GroupingConfig, effective_grid, spec_for
from bitmod.pe import group_dot
from bitmod.quant import (
    _best_grid,
    dequantize_tensor,
    memory_footprint_bits,
    quantize_groups,
    quantize_tensor,
)

F = Fraction
SEED = synth.DEFAULT_SEED


def report(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {detail}",
              flush=True)


# ---------------------------------------------------------------------------
# 1. exhaustive bit-serial reconstruction
# ---------------------------------------------------------------------------

def test_criterion_01_bitserial_reconstruction(capsys):
    t0 = time.perf_counter()
    checked = exact = 0
    for name in ("INT8_SYM", "INT6_SYM"):
        spec = spec_for(name)
        qmax = (1 << (spec.bits_per_code - 1)) - 1
        for value in range(-qmax - 1, qmax + 1):
            checked += 1
            exact += term_value_sum(encode_weight(value, spec)) == value
    for name in ("FP4_BITMOD", "FP3_BITMOD"):
        spec = spec_for(name)
        for sv in range(4):
            grid = effective_grid(spec, sv)
            for code, want in enumerate(grid):
                checked += 1
                exact += term_value_sum(
                    encode_weight(code, spec, sv_index=sv)) == want
    elapsed = time.perf_counter() - t0
    ok = exact == checked == 256 + 64 + 16 * 4 + 8 * 4 and elapsed < 1.0
    report(capsys, 1, ok,
           f"{exact}/{checked} codes reconstruct exactly in {elapsed:.3f}s")
    assert ok


# ---------------------------------------------------------------------------
# 2. cycle budgets and throughput ratios
# ---------------------------------------------------------------------------

def test_criterion_02_cycle_budgets(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    grouping = GroupingConfig(group_size=128)
    got = {}
    for name in ("FP4_BITMOD", "FP3_BITMOD", "INT6_SYM", "INT8_SYM"):
        spec = spec_for(name)
        qg = quantize_tensor(rng.standard_normal((1, 128)), spec,
                             grouping)[0].groups[0]
        _, cycles = group_dot(qg, rng.standard_normal(128), spec)
        got[name] = cycles
    cycles_ok = (got["FP4_BITMOD"] == got["FP3_BITMOD"] == 64
                 and got["INT6_SYM"] == 96 and got["INT8_SYM"] == 128)
    ratios = [FP16_MAC_CYCLES_PER_DOT / spec_for(name).terms_per_code
              for name in ("FP3_BITMOD", "FP4_BITMOD", "INT6_SYM")]
    ratios_ok = ratios == [2.0, 2.0, 4 / 3]
    elapsed = time.perf_counter() - t0
    ok = cycles_ok and ratios_ok and elapsed < 1.0
    report(capsys, 2, ok,
           f"G=128 cycles {got['FP3_BITMOD']}/{got['INT6_SYM']}/"
           f"{got['INT8_SYM']} (FP/INT6/INT8), throughput 2x and 4/3x exact, "
           f"{elapsed:.3f}s")
    assert ok


# ---------------------------------------------------------------------------
# 3. no pipeline stall from bit-serial dequantization
# ---------------------------------------------------------------------------

def test_criterion_03_no_stall(capsys):
    names = ("INT8_SYM", "INT6_SYM", "INT6_ASYM", "INT4_SYM", "INT4_ASYM",
             "INT3_ASYM", "FP4_BASIC", "FP3_BASIC", "FP4_BITMOD", "FP3_BITMOD")
    sizes = (16, 32, 64, 128, 256)
    ok = all(archsim.check_no_stall(spec_for(n), GroupingConfig(group_size=g))
             for n in names for g in sizes)
    report(capsys, 3, ok,
           f"8-cycle dequant fits under group compute for {len(names)} dtypes "
           f"x G in {sizes}")
    assert ok


# ---------------------------------------------------------------------------
# 4. grid-inclusion monotonicity and error ordering
# ---------------------------------------------------------------------------

def _group_mse(w, spec):
    """Per-row MSE of ``quantize_groups`` on the (n, G) groups ``w``."""
    codes, delta, sv_index, _ = quantize_groups(w, spec)
    w_hat = spec.grid_table[sv_index[:, None], codes] * delta[:, None]
    return np.mean((w - w_hat) ** 2, axis=-1)


def _forced_grid_mse(w, table):
    """Per-row MSE on the best of the grids ``table``, each scaled by its
    own absmax (nonzero rows only)."""
    absmax = np.max(np.abs(w), axis=-1, keepdims=True)
    best = None
    for grid in table:
        delta = absmax / np.max(np.abs(grid))
        w_hat = grid[nearest_grid_index(w / delta, grid)] * delta
        mse = np.mean((w - w_hat) ** 2, axis=-1)
        best = mse if best is None else np.minimum(best, mse)
    return best


def test_criterion_04_monotonicity_and_ordering(capsys):
    t0 = time.perf_counter()
    spec = spec_for("FP3_BITMOD")
    basic = spec_for("FP3_BASIC")

    violations = 0
    total = 0
    for i, dist in enumerate(synth.DISTRIBUTIONS):
        groups = synth.sample(dist, (3334 if i == 0 else 3333, 128),
                              seed=SEED + i)
        w = groups.astype(np.float64)
        total += len(w)
        mse = _group_mse(w, spec)
        basic_mse = _group_mse(w, basic)
        violations += int(np.sum(mse > basic_mse + 1e-15))
        # The batched MSE is what one-group calls report.
        sample = np.random.default_rng([SEED, 4, i]).choice(len(w), 50,
                                                            replace=False)
        for j in sample:
            assert _best_grid(w[j][None], spec)[3][0] == mse[j], (dist, j)
        if dist == "outlier_mixture":
            power = np.mean(w ** 2, axis=-1)
            m_basic = float(np.mean(basic_mse / power))
            m_er = float(np.mean(_forced_grid_mse(w, spec.grid_table[:2])
                                 / power))
            m_ea = float(np.mean(_forced_grid_mse(w, spec.grid_table[2:])
                                 / power))
    elapsed = time.perf_counter() - t0
    ok = (total == 10000 and violations == 0
          and m_ea < m_er < m_basic and elapsed < 30.0)
    report(capsys, 4, ok,
           f"{total} groups, {violations} monotonicity violations; "
           f"outlier-mixture mean normalized error EA {m_ea:.4f} < "
           f"ER {m_er:.4f} < basic {m_basic:.4f}, {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# 5. special-value selection majorities
# ---------------------------------------------------------------------------

def test_criterion_05_special_value_selection(capsys):
    spec = spec_for("FP3_BITMOD")
    n = 1000

    def sv_index_of(groups, tag):
        sv_index = quantize_groups(groups, spec)[2]
        # One-group calls choose the same special values.
        sample = np.random.default_rng([SEED, 5, tag]).choice(n, 50,
                                                              replace=False)
        for j in sample:
            assert (quantize_groups(groups[j][None], spec)[2][0]
                    == sv_index[j])
        return sv_index

    def er_share_of(groups, tag):  # ER candidates are indices 0 and 1
        return float(np.mean(sv_index_of(groups, tag) <= 1))

    # ER (+-3) adds a level in the coarse upper part of the range, between
    # 2 and 4, so it pays on light-tailed groups whose weights fill that
    # range: flat groups are its input.  Gaussian groups are not.  The scale
    # is delta = max|w|/absmax(grid), so an EA grid (absmax 6) also gives
    # the bulk a finer step (max/6 instead of max/4), and minimum MSE picks
    # EA, on the side of the larger tail, for about 85% of Gaussian groups
    # (ER share 0.15 at SEED).  That share is printed but not gated.
    flat = np.random.default_rng(SEED).uniform(-1, 1, (n, 128)) \
        .astype(np.float32)
    er_share = er_share_of(flat, 0)
    gaussian = synth.sample("gaussian", (n, 128), seed=SEED)
    gaussian_er_share = er_share_of(gaussian, 1)
    outlier = single_outlier_groups(n, 128, 6.0, seed=SEED + 1)
    ea_share = float(np.mean(sv_index_of(outlier, 2)
                             == spec.special_values.index(F(6))))

    ok = er_share >= 0.60 and ea_share >= 0.60
    report(capsys, 5, ok,
           f"ER share on flat groups {er_share:.2f} (need >= 0.60), "
           f"+6 share on 6-sigma outliers {ea_share:.2f} (need >= 0.60), "
           f"ER share on Gaussian {gaussian_er_share:.2f} (not gated)")
    assert ok


# ---------------------------------------------------------------------------
# 6. PE equivalence with the independent oracle
# ---------------------------------------------------------------------------

def test_criterion_06_pe_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    g = 16
    grouping = GroupingConfig(group_size=g)
    names = ("INT8_SYM", "INT6_SYM", "FP4_BITMOD", "FP3_BITMOD")
    per_dtype = 10000
    mismatches = 0
    max_rel = 0.0
    for name in names:
        spec = spec_for(name)
        # Well-conditioned batches: positive-mean magnitudes with random
        # global signs, so the exact dot is never a catastrophic cancellation
        # and the 2^-7 bound measures arithmetic error.
        w_all = (rng.standard_normal((per_dtype, g)) + 4.0) \
            * rng.choice([-1.0, 1.0], size=(per_dtype, 1))
        a_all = (np.abs(rng.standard_normal((per_dtype, g))) + 0.25) \
            * rng.choice([-1.0, 1.0], size=(per_dtype, 1)) \
            * np.exp2(rng.integers(-4, 5, size=(per_dtype, 1)))
        scale_qs = rng.integers(1, 128, size=per_dtype)
        # One batched call quantizes every row as a one-row call would;
        # a seeded sample of rows checks that.
        qt = quantize_tensor(w_all, spec, grouping)
        sample = np.random.default_rng([SEED, 6]).choice(per_dtype, 200,
                                                         replace=False)
        for i in sample:
            assert qt[i] == quantize_tensor(w_all[i][None], spec,
                                            grouping)[0], i
        for i, (avals, sq) in enumerate(zip(a_all, scale_qs)):
            qg = qt[i].groups[0]
            qg.scale_q = int(sq)
            gps, _ = group_dot(qg, avals, spec)
            want = pe_oracle.dequant(
                pe_oracle.group_dot(oracle_weight_terms(qg, spec),
                                    oracle_acts(avals), g,
                                    spec.terms_per_code),
                qg.scale_q)
            if (gps.m_grp, gps.e_grp) != want:
                mismatches += 1
                continue
            exact = exact_dot(qg, spec, avals)
            if exact != 0.0:
                got = math.ldexp(gps.m_grp, gps.e_grp)
                max_rel = max(max_rel, abs(got - exact) / abs(exact))
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and max_rel < 2.0 ** -7 and elapsed < 60.0
    report(capsys, 6, ok,
           f"{per_dtype} pairs x {len(names)} dtypes, {mismatches} oracle "
           f"mismatches, max relative error {max_rel:.2e} "
           f"(bound {2.0 ** -7:.2e}), {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# 7. second-level scale quantization bound
# ---------------------------------------------------------------------------

def test_criterion_07_scale_quantization_bound(capsys):
    rng = np.random.default_rng(SEED)
    worst = 0.0
    checked = 0
    for name in ("FP3_BITMOD", "FP4_BITMOD", "INT6_SYM", "INT4_ASYM"):
        spec = spec_for(name)
        for _ in range(25):
            w = rng.standard_normal(1024) * float(np.exp(rng.normal()))
            cq = quantize_tensor(w[None], spec,
                                 GroupingConfig(group_size=128))[0]
            delta = quantize_groups(w.reshape(-1, 128), spec)[1]
            for d, scale_q in zip(delta.tolist(), cq.scale_q.tolist()):
                checked += 1
                err = abs(d - scale_q * cq.channel_scale)
                if cq.channel_scale:
                    worst = max(worst, err / (cq.channel_scale / 2))
                assert err <= cq.channel_scale / 2 + 1e-15
    ok = worst <= 1.0 + 1e-12
    report(capsys, 7, ok,
           f"{checked} groups, worst |delta - delta_hat| is "
           f"{worst:.3f} of the channel_scale/2 bound")
    assert ok


# ---------------------------------------------------------------------------
# 8. memory footprint arithmetic
# ---------------------------------------------------------------------------

def test_criterion_08_footprint(capsys):
    g = GroupingConfig(group_size=128)
    got = {
        "FP3_BITMOD": memory_footprint_bits(spec_for("FP3_BITMOD"), g),
        "FP4_BITMOD": memory_footprint_bits(spec_for("FP4_BITMOD"), g),
        "INT4_ASYM": memory_footprint_bits(spec_for("INT4_ASYM"), g),
    }
    ok = (got["FP3_BITMOD"] == F(3) + F(10, 128)
          and got["FP4_BITMOD"] == F(4) + F(10, 128)
          and got["INT4_ASYM"] == F(4) + F(24, 128))
    report(capsys, 8, ok,
           "bits/weight 3+10/128, 4+10/128, 4+24/128 for "
           "FP3-BitMoD, FP4-BitMoD, INT4-asym")
    assert ok


# ---------------------------------------------------------------------------
# 9. simulator directional checks
# ---------------------------------------------------------------------------

def test_criterion_09_simulator_directional(capsys):
    t0 = time.perf_counter()
    from dataclasses import replace
    from importlib import resources
    text = resources.files("bitmod.shapes").joinpath("llama-2-7b.shape") \
        .read_text()
    w = replace(archsim.profile_shapes(text),
                prefill_tokens=256, decode_tokens=256)
    grouping = GroupingConfig(group_size=128)
    rep = archsim.simulate_workload(w, spec_for("INT6_SYM"), grouping)
    base = archsim.baseline_fp16_sim(w)
    archsim.with_speedup(rep, base)
    ratio = rep.weight_bytes / rep.activation_bytes
    speedup = rep.speedup_vs_baseline
    elapsed = time.perf_counter() - t0
    ok = ratio >= 10.0 and 1.8 <= speedup <= 2.7 and elapsed < 10.0
    report(capsys, 9, ok,
           f"generative Llama-2-7B-like: weight/activation traffic "
           f"{ratio:.0f}x (need >= 10), INT6 speedup {speedup:.2f} "
           f"(band [1.8, 2.7]), {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# 10. pack/unpack round trip
# ---------------------------------------------------------------------------

def test_criterion_10_pack_roundtrip(capsys):
    rng = np.random.default_rng(SEED)
    names = ("FP3_BITMOD", "FP4_BITMOD", "FP3_BASIC", "FP4_BASIC",
             "INT8_SYM", "INT6_SYM", "INT4_SYM")
    failures = 0
    for i in range(20):
        name = names[i % len(names)]
        spec = spec_for(name)
        g = int(rng.choice([16, 32, 64, 128]))
        k = int(rng.integers(1, 6))
        d = int(rng.integers(1, 5)) * g + int(rng.integers(0, g))
        grouping = GroupingConfig(group_size=g)
        w = (rng.standard_normal((k, d)) * float(np.exp(rng.normal()))) \
            .astype(np.float32).astype(np.float64)
        channels = quantize_tensor(w, spec, grouping)
        data = packfile.pack(channels, grouping, d)
        got_channels, got_grouping, got_spec = packfile.unpack(data)
        same = (got_spec.name == spec.name
                and got_grouping.group_size == g
                and np.array_equal(packfile.unpack_to_tensor(data),
                                   dequantize_tensor(channels)
                                   .astype(np.float32))
                and packfile.pack(got_channels, got_grouping, d) == data)
        if not same:
            failures += 1
    ok = failures == 0
    report(capsys, 10, ok,
           f"20 tensors round-trip byte-exact with {failures} failures")
    assert ok
