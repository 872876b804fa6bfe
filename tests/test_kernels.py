import math

import numpy as np
import pytest

import pe_oracle
from conftest import PE_DTYPES, oracle_acts, oracle_weight_terms
from bitmod import _kernels
from bitmod.dtype import code_range, spec_for
from bitmod.pe import decode_fp16, encode_group_terms, group_dot
from bitmod.quant import QuantizedGroup

# 132000 quads of four term slots at one significance, weight +-8 in every
# lane: 528000 cycles whose sum passes 2^32 once, so the accumulator carries
# out of bit 31 and renormalizes by one RNE shift.  Full-scale lanes give
# trees that are multiples of 4; lanes of unequal mantissas give odd ones,
# whose carry drops a half that rounds the kept bits up.
CARRY_QUADS = 132000


@pytest.mark.parametrize(("sign", "lanes", "want"), [
    (1, [65504] * 4, (2161632000, 9)),
    (-1, [65504] * 4, (-2161632000, 9)),
    (1, [65504, 65504, 65504, 65472], (2161369696, 9)),
    (-1, [65504, 65408, 65504, 65504], (-2160838368, 9))])
def test_run_group_dot_carry_past_bit_31(sign, lanes, want):
    w = np.full((4, CARRY_QUADS, 4), sign * 8.0)
    a = decode_fp16(np.tile(np.array(lanes, dtype=np.float64), CARRY_QUADS))
    # ``want`` was recorded from tests/pe_oracle.group_dot on the same
    # operands.
    assert _kernels.run_group_dot(w, a) == want


@pytest.mark.parametrize("direction", ("falling", "rising"))
@pytest.mark.parametrize("name", PE_DTYPES)
def test_run_group_dot_activation_ramp(name, direction, monkeypatch):
    # Activations whose binades fall from 2^14 to 2^-14 leave a large
    # accumulator on a grid coarser than the later trees', so the general
    # path rounds each tree onto the accumulator's grid.  Rising ones keep
    # each tree's grid above the accumulator's, the fast path.
    general, align_add = [], _kernels._align_add
    monkeypatch.setattr(_kernels, "_align_add",
                        lambda *args: general.append(args) or align_add(*args))
    rng = np.random.default_rng(26)
    spec = spec_for(name)
    lo, hi = code_range(spec)
    g = 128
    qg = QuantizedGroup(codes=rng.integers(lo, hi + 1, g), scale_q=201)
    binades = np.linspace(14, -14, g)
    if direction == "rising":
        binades = binades[::-1]
    acts = rng.choice([-1.0, 1.0], g) * rng.uniform(1, 2, g) * 2.0 ** binades
    gps, _ = group_dot(qg, acts, spec)
    want = pe_oracle.dequant(
        pe_oracle.group_dot(oracle_weight_terms(qg, spec), oracle_acts(acts),
                            g, spec.terms_per_code), qg.scale_q)
    assert (gps.m_grp, gps.e_grp) == want
    if direction == "falling":
        assert general


def oracle_accumulator(qg, spec, acts):
    return pe_oracle.group_dot(oracle_weight_terms(qg, spec), oracle_acts(acts),
                               len(qg.codes), spec.terms_per_code)


@pytest.mark.parametrize(("acts", "want"), [
    ([1024, 0.5, 1.5, 2.5], 1028),
    ([1024, -1.5, 0.5, 0.25], 1022),
    ([1024, 0.5, 1.5, 2.5, 0, 0, 0, 0, 1024, -1.5, 0.5, 0.25], 1028 + 1022)])
def test_lane_rounding_ties_and_dead_cycles(acts, want):
    # INT4_SYM code 1 is the terms (1, 0): slot 0 holds each lane's
    # activation, slot 1 is a dead cycle.  A lane of 1024 puts its cycle
    # on the grid 1, so lanes of 0.5, 1.5, 2.5 and -1.5 are ties: half a
    # step past 0 and 2 they round down to the even multiple, past 1 and
    # -1 away from 0.  In the third group, quad 1 is four zero lanes
    # between the two live quads.
    spec = spec_for("INT4_SYM")
    qg = QuantizedGroup(codes=np.ones(len(acts), dtype=np.int8), scale_q=1)
    m, e = _kernels.run_group_dot(encode_group_terms(qg, spec),
                                  decode_fp16(acts))
    assert (m, e) == oracle_accumulator(qg, spec, acts)
    assert math.ldexp(m, e) == want


def test_cancelled_tree_leaves_a_finer_accumulator_alone():
    # Quad 0 leaves 1 + 2^-10 on the grid 2^-10.  Quad 1's lanes of +-1024
    # cancel on the grid 1; rounding the accumulator onto that grid, as a
    # step with this tree would, drops the 2^-10.
    spec = spec_for("INT4_SYM")
    qg = QuantizedGroup(codes=np.array([1, 0, 0, 0, 1, -1, 0, 0]), scale_q=1)
    acts = [1 + 2.0 ** -10, 0, 0, 0, 1024, 1024, 0, 0]
    m, e = _kernels.run_group_dot(encode_group_terms(qg, spec),
                                  decode_fp16(acts))
    assert (m, e) == oracle_accumulator(qg, spec, acts)
    assert math.ldexp(m, e) == 1 + 2.0 ** -10


@pytest.mark.parametrize(("codes", "acts"), [
    ([1, -1, 1, -1] * 2, [3.0, 3.0, 5.0, 5.0] * 2),  # each tree cancels
    ([1, 2, 3, 4] * 2, [0.0, -0.0, 2.0 ** -15, 0.0] * 2)])  # flushed or 0
def test_group_of_zero_trees_is_zero(codes, acts):
    spec = spec_for("INT4_SYM")
    qg = QuantizedGroup(codes=np.array(codes), scale_q=7)
    w, a = encode_group_terms(qg, spec), decode_fp16(acts)
    assert _kernels.run_group_dot(w, a) == (0, 0) \
        == oracle_accumulator(qg, spec, acts)
    gps, _ = group_dot(qg, acts, spec)
    assert (gps.m_grp, gps.e_grp) == (0, 0)


@pytest.mark.parametrize("name", ("FP3_BITMOD", "INT6_SYM"))
def test_one_nan_operand_or_term_raises(name):
    # The module's NaN rule: one NaN anywhere ends the accumulator NaN,
    # whether it meets a live factor or a 0, and whatever path the steps
    # after it take.  Activations falling over 28 binades send later
    # trees down the general path.
    spec = spec_for(name)
    rng = np.random.default_rng(33)
    lo, hi = code_range(spec)
    codes = rng.integers(lo, hi + 1, 64).astype(spec.code_dtype)
    acts = rng.standard_normal(64) * 2.0 ** np.linspace(14, -14, 64)
    acts[::5] = 0.0
    w = encode_group_terms(QuantizedGroup(codes=codes), spec)
    a = decode_fp16(acts)
    assert _kernels.run_group_dot(w, a) == oracle_accumulator(
        QuantizedGroup(codes=codes), spec, acts)
    for terms in (w, np.zeros_like(w)):
        for i in range(len(a)):
            bad = a.copy()
            bad[i] = np.nan
            with pytest.raises(ValueError, match="NaN operand or term"):
                _kernels.run_group_dot(terms, bad)
    for operands in (a, np.zeros_like(a)):
        for cell in np.ndindex(w.shape):
            bad = w.copy()
            bad[cell] = np.nan
            with pytest.raises(ValueError, match="NaN operand or term"):
                _kernels.run_group_dot(bad, operands)
