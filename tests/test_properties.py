"""Property-based checks complementing the exhaustive/enumerated tests."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

import pe_oracle
from conftest import oracle_acts, oracle_weight_terms
from bitmod.bitserial import booth_encode, term_value_sum
from bitmod.dtype import code_range, spec_for
from bitmod.packfile import _pack_codes, _unpack_codes
from bitmod.pe import group_dot
from bitmod.quant import (
    QuantizedGroup,
    _count_above,
    _midpoints,
    _shared_scales,
    nearest_grid_index,
    quantize_scales,
    quantize_symmetric,
)


@given(st.integers(min_value=2, max_value=8), st.data())
def test_booth_reconstructs_any_representable_value(bits, data):
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    value = data.draw(st.integers(min_value=lo, max_value=hi))
    assert term_value_sum(booth_encode(value, bits)) == value


PACKABLE = ("FP3_BITMOD", "FP4_BITMOD", "FP3_BASIC", "FP4_BASIC",
            "INT8_SYM", "INT6_SYM", "INT4_SYM")


@given(st.sampled_from(PACKABLE), st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=64), st.data())
def test_code_bitstream_roundtrip(name, rows, count, data):
    spec = spec_for(name)
    bits = spec.bits_per_code
    # Every stored bit pattern: FP codes are unsigned, INT codes signed.
    lo, hi = (0, (1 << bits) - 1) if spec.is_fp else \
        (-(1 << (bits - 1)), (1 << (bits - 1)) - 1)
    codes = np.array(data.draw(st.lists(
        st.lists(st.integers(lo, hi), min_size=count, max_size=count),
        min_size=rows, max_size=rows)))
    raw = _pack_codes(codes, spec)
    nbytes = (count * bits + 7) // 8
    assert raw.shape == (rows, nbytes) and raw.dtype == np.uint8
    for row, packed in zip(codes.tolist(), raw):
        # Reference layout: LSB-first stream of two's-complement fields.
        acc = sum((c & ((1 << bits) - 1)) << (i * bits)
                  for i, c in enumerate(row))
        assert packed.tobytes() == acc.to_bytes(nbytes, "little")
    assert np.array_equal(_unpack_codes(raw, count, spec), codes)


@given(st.lists(st.one_of(st.just(0.0),
                          st.floats(min_value=1e-30, max_value=1e6)),
                min_size=1, max_size=64))
def test_scale_quantization_bound_holds(deltas):
    scale_q, cs = quantize_scales(deltas)
    if cs == 0.0:
        assert not scale_q.any()
        return
    err = np.abs(np.asarray(deltas) - scale_q * cs)
    assert np.all(err <= cs / 2 * (1 + 1e-12) + 1e-300)


@settings(max_examples=50)
@given(st.lists(st.floats(min_value=-1e4, max_value=1e4,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=32),
       st.integers(min_value=2, max_value=8))
def test_symmetric_quantization_error_bound(values, bits):
    codes, delta = quantize_symmetric(values, bits)
    err = np.abs(np.asarray(values) - codes * delta)
    bound = delta / 2 * (1 + 1e-12)
    # A subnormal delta = fl(absmax / qmax) is off by up to half its fixed
    # ulp, 2**-1074 / 2, so the largest code's product qmax * delta misses
    # absmax by up to qmax * 2**-1074 / 2.  Where that beats delta / 2, the
    # clip to qmax binds and the error is that miss.  A delta that
    # underflows to 0 gives codes 0, and then |w| <= absmax <= that same
    # miss.  A normal delta's ulp is relative, inside the 1e-12 slack.
    if delta < np.finfo(np.float64).tiny:
        qmax = (1 << (bits - 1)) - 1
        bound += qmax * 2.0 ** -1074 / 2
    assert np.all(err <= bound)


FP_DTYPES = ("FP3_BASIC", "FP4_BASIC", "FP3_BITMOD", "FP4_BITMOD")


def _grid_edges() -> list[float]:
    """For every FP grid: its exact midpoints and the floats one ulp either
    side, +-0, +-absmax, its ends, and values beyond both ends."""
    edges = [0.0, -0.0, 1e300, -1e300]
    for name in FP_DTYPES:
        for row in spec_for(name).grid_table:
            a = float(np.abs(row).max())
            edges += [a, -a, 2 * a, -2 * a, np.nextafter(row[-1], np.inf),
                      np.nextafter(row[0], -np.inf)]
            for m in _midpoints(row).tolist():
                edges += [m, np.nextafter(m, -np.inf), np.nextafter(m, np.inf)]
    return edges


@given(st.sampled_from(FP_DTYPES),
       st.lists(st.one_of(st.sampled_from(_grid_edges()), st.floats(
           allow_nan=False)), min_size=1, max_size=64))
def test_midpoint_count_matches_nearest_grid_index(name, values):
    spec = spec_for(name)
    table = spec.grid_table
    scaled = np.array(values)
    want = [nearest_grid_index(scaled, row) for row in table]
    # One count per shared scale serves each of its grids ...
    seen = []
    for scale in _shared_scales(spec):
        interval = _count_above(scaled, scale.mids)
        for i, codes, vals in zip(scale.grids, scale.codes, scale.values):
            assert float(np.abs(table[i]).max()) == scale.absmax
            assert codes[interval].tolist() == want[i].tolist()
            assert vals[interval].tolist() == table[i][want[i]].tolist()
            seen.append(i)
    assert seen == list(range(len(table)))
    # ... and a count over one grid's midpoints serves that grid.
    for row, idx in zip(table, want):
        assert (_count_above(scaled, _midpoints(row).tolist()).tolist()
                == idx.tolist())


def test_bitmod_candidates_share_two_scales():
    for name, absmax in (("FP3_BITMOD", (4.0, 6.0)),
                         ("FP4_BITMOD", (6.0, 8.0))):
        scales = _shared_scales(spec_for(name))
        assert [(s.absmax, s.grids) for s in scales] == [
            (absmax[0], (0, 1)), (absmax[1], (2, 3))]


PE_DTYPES = PACKABLE  # the PE takes the same seven symmetric dtypes
# Any finite FP16 bit pattern (exponent field not all ones), with +-0 and
# subnormals; and per lane a raw draw that picks an on-grid code.
FINITE_FP16 = st.integers(0, 0xFFFF).filter(lambda b: b & 0x7C00 != 0x7C00)
LANES = st.sampled_from((4, 8)).flatmap(lambda g: st.lists(
    st.tuples(FINITE_FP16, st.integers(0, 255)), min_size=g, max_size=g))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(PE_DTYPES), LANES, st.integers(0, 3),
       st.integers(0, 255))
# 65504 times FP4_BITMOD's special value 8 (weight exponent 3) beside
# 2^-14 times 1 in one quad: the largest alignment shift, 32 bits.
@example("FP4_BITMOD", [(0x7BFF, 15), (0x0400, 10), (0x8400, 13),
                        (0x83FF, 2)], 2, 255)
def test_group_dot_matches_oracle_on_any_operands(name, lanes, sv, scale_q):
    spec = spec_for(name)
    lo, hi = code_range(spec)
    bits, raw = zip(*lanes)
    qg = QuantizedGroup(codes=np.array([lo + r % (hi - lo + 1) for r in raw]),
                        sv_index=sv % max(1, len(spec.special_values)),
                        scale_q=scale_q)
    avals = np.array(bits, dtype=np.uint16).view(np.float16)
    gps, cycles = group_dot(qg, avals, spec)
    want = pe_oracle.dequant(
        pe_oracle.group_dot(oracle_weight_terms(qg, spec), oracle_acts(avals),
                            len(lanes), spec.terms_per_code), scale_q)
    assert (gps.m_grp, gps.e_grp) == want
    assert cycles == len(lanes) // 4 * spec.terms_per_code
