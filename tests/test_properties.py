"""Property-based checks complementing the exhaustive/enumerated tests."""

import numpy as np
from hypothesis import given, settings, strategies as st

from bitmod.bitserial import booth_encode, term_value_sum
from bitmod.dtype import spec_for
from bitmod.packfile import _pack_codes, _unpack_codes
from bitmod.quant import quantize_scales, quantize_symmetric


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
    assert np.all(err <= delta / 2 * (1 + 1e-12))
