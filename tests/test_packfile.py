import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bitmod import packfile
from bitmod.dtype import GroupingConfig, spec_for
from bitmod.errors import FormatError, UnsupportedDtype
from bitmod.quant import dequantize_tensor, quantize_tensor


PACKABLE = ("FP3_BITMOD", "FP4_BITMOD", "FP3_BASIC", "FP4_BASIC",
            "INT8_SYM", "INT6_SYM", "INT4_SYM")


def roundtrip_tensor(rng, name, shape, g):
    spec = spec_for(name)
    grouping = GroupingConfig(group_size=g)
    w = rng.standard_normal(shape)
    qt = quantize_tensor(w, spec, grouping)
    data = packfile.pack(qt, grouping, shape[1])
    return w, qt, data


def test_header_layout():
    rng = np.random.default_rng(41)
    _, _, data = roundtrip_tensor(rng, "FP3_BITMOD", (2, 64), 32)
    magic, version, dtype_id, k, d, g = struct.unpack_from("<4sHHIII", data, 0)
    assert magic == b"BMOD"
    assert version == 1
    assert dtype_id == spec_for("FP3_BITMOD").name.value == 9
    assert (k, d, g) == (2, 64, 32)


def test_record_size_math():
    spec = spec_for("FP3_BITMOD")
    # 2 metadata bytes + ceil(32*3/8) code bytes.
    assert packfile.group_record_bytes(spec, 32) == 2 + 12
    rng = np.random.default_rng(42)
    _, _, data = roundtrip_tensor(rng, "FP3_BITMOD", (2, 64), 32)
    assert len(data) == 20 + 2 * (4 + 2 * 14)


@pytest.mark.parametrize("name,g", [
    ("FP3_BITMOD", 128), ("FP4_BITMOD", 64), ("FP3_BASIC", 32),
    ("INT6_SYM", 128), ("INT8_SYM", 16), ("INT4_SYM", 128),
])
def test_roundtrip_bit_exact(name, g):
    rng = np.random.default_rng(43)
    w, qt, data = roundtrip_tensor(rng, name, (3, 2 * g), g)
    got, grouping, spec = packfile.unpack(data)
    assert spec.name.name == name
    assert got.channel_scale.dtype == np.float64
    # f32-exact by construction
    assert np.array_equal(qt.channel_scale, got.channel_scale)
    for field, want in (("codes", spec.code_dtype), ("sv_index", np.uint8),
                        ("scale_q", np.uint8)):
        arr = getattr(got, field)
        assert arr.dtype == want
        assert arr.shape == getattr(qt, field).shape
        assert arr.shape[:2] == (3, 2)
        assert np.array_equal(getattr(qt, field), arr)
    assert got.delta is None and got.zero_point is None
    for b in got:
        for i, gb in enumerate(b.groups):
            assert np.array_equal(gb.codes, b.codes[i])
            assert (gb.sv_index, gb.scale_q, gb.delta) == (
                b.sv_index[i], b.scale_q[i], None)
    np.testing.assert_array_equal(dequantize_tensor(qt),
                                  packfile.unpack_to_tensor(data))


@pytest.mark.parametrize("name", PACKABLE)
def test_unpack_gives_quantize_tensor_fields(name):
    # 200 ragged channels of 300 weights (3 groups of 128) span 5 chunks.
    rng = np.random.default_rng(53)
    _, qt, data = roundtrip_tensor(rng, name, (200, 300), 128)
    got, _, _ = packfile.unpack(data)
    assert len(got) == 200 and got.codes.shape[1:] == (3, 128)
    for f in dataclasses.fields(qt):
        x, y = getattr(qt, f.name), getattr(got, f.name)
        if isinstance(x, np.ndarray) and y is not None:
            assert x.dtype == y.dtype, f.name
    assert got == dataclasses.replace(qt, delta=None)


def test_repack_is_byte_identical():
    rng = np.random.default_rng(44)
    _, _, data = roundtrip_tensor(rng, "FP4_BITMOD", (4, 96), 32)
    qt, grouping, _ = packfile.unpack(data)
    assert packfile.pack(qt, grouping, 96) == data


def test_ragged_channel_pads_groups():
    rng = np.random.default_rng(45)
    w, qt, data = roundtrip_tensor(rng, "FP3_BITMOD", (2, 100), 32)
    got = packfile.unpack_to_tensor(data)
    assert got.shape == (2, 100)
    np.testing.assert_array_equal(got, dequantize_tensor(qt))


def test_negative_int_codes_survive():
    rng = np.random.default_rng(46)
    _, qt, data = roundtrip_tensor(rng, "INT8_SYM", (1, 32), 16)
    got, _, _ = packfile.unpack(data)
    assert any(int(c) < 0 for qg in got[0].groups for c in qg.codes)


def test_asymmetric_types_not_packable():
    rng = np.random.default_rng(47)
    spec = spec_for("INT4_ASYM")
    grouping = GroupingConfig(group_size=16)
    qt = quantize_tensor(rng.standard_normal((1, 32)), spec, grouping)
    with pytest.raises(UnsupportedDtype):
        packfile.pack(qt, grouping, 32)


def test_format_errors_with_offsets():
    rng = np.random.default_rng(48)
    _, _, data = roundtrip_tensor(rng, "FP3_BITMOD", (2, 64), 32)
    with pytest.raises(FormatError):
        packfile.unpack(data[:10])
    with pytest.raises(FormatError) as ei:
        packfile.unpack(b"JUNK" + data[4:])
    assert ei.value.offset == 0
    with pytest.raises(FormatError):
        packfile.unpack(data[:-3])  # truncated group record
    with pytest.raises(FormatError) as ei:
        packfile.unpack(data + b"\x00")
    assert ei.value.offset == len(data)
    bad_ver = data[:4] + struct.pack("<H", 9) + data[6:]
    with pytest.raises(FormatError):
        packfile.unpack(bad_ver)
    bad_dtype = data[:6] + struct.pack("<H", 200) + data[8:]
    with pytest.raises(FormatError):
        packfile.unpack(bad_dtype)


def test_header_sizes_allocate_nothing_before_their_bytes_exist():
    # K and D at the u32 maximum describe about 2**64 weights; unpack must
    # report the missing bytes, not try to allocate room for them.
    rng = np.random.default_rng(52)
    _, _, data = roundtrip_tensor(rng, "FP3_BITMOD", (1, 64), 32)
    buf = bytearray(data)
    struct.pack_into("<II", buf, 8, 2 ** 32 - 1, 2 ** 32 - 1)
    with pytest.raises(FormatError, match="truncated group record") as ei:
        packfile.unpack(bytes(buf))
    assert ei.value.offset == len(data)


def _put(fmt, at, value):
    return lambda buf: struct.pack_into(fmt, buf, at, value)


def _code(index, raw, bits):
    """Overwrite stored code ``index`` of the first group with ``raw``."""
    def edit(buf):
        start = 20 + 4 + 2  # header, channel scale, group metadata
        acc = int.from_bytes(buf[start:start + 8], "little")
        acc &= ~(((1 << bits) - 1) << (index * bits))
        acc |= raw << (index * bits)
        buf[start:start + 8] = acc.to_bytes(8, "little")
    return edit


@pytest.mark.parametrize("name,edit,offset", [
    ("FP3_BITMOD", _put("<I", 16, 0), 16),
    ("FP3_BASIC", _code(3, 7, 3), 27),
    ("FP4_BASIC", _code(5, 15, 4), 28),
    ("INT6_SYM", _code(2, 32, 6), 27),
    ("INT4_SYM", _put("<H", 6, 4), 6),
    ("FP3_BITMOD", _put("<f", 20, float("nan")), 20),
    ("INT8_SYM", _put("<f", 20, float("inf")), 20),
    ("FP3_BITMOD", _put("<B", 25, 4), 25),
    ("INT6_SYM", _put("<B", 25, 1), 25),
    ("FP3_BITMOD", _put("<I", 8, 0), 8),
    ("INT8_SYM", _put("<I", 12, 0), 12),
], ids=["group-size-0", "fp3-basic-code-7", "fp4-basic-code-15",
        "int6-code-minus-32", "asymmetric-dtype", "nan-channel-scale",
        "inf-channel-scale", "bitmod-sv-index-4", "int-sv-index-1",
        "no-channels", "channel-size-0"])
def test_malformed_fields_raise_format_error(name, edit, offset):
    rng = np.random.default_rng(49)
    _, _, data = roundtrip_tensor(rng, name, (1, 64), 32)
    buf = bytearray(data)
    edit(buf)
    with pytest.raises(FormatError) as ei:
        packfile.unpack(bytes(buf))
    assert ei.value.offset == offset


def test_pack_requires_channels():
    rng = np.random.default_rng(50)
    _, qt, _ = roundtrip_tensor(rng, "FP3_BITMOD", (2, 32), 16)
    with pytest.raises(ValueError, match="no channels"):
        packfile.pack(qt[:0], GroupingConfig(group_size=16), 32)


def test_pack_checks_grouping_and_size_against_tensor():
    # A smaller channel size used to drop the weights past it from every
    # channel; a larger one, or another group size, wrote a file that
    # failed only at unpack.
    rng = np.random.default_rng(51)
    _, qt, data = roundtrip_tensor(rng, "FP3_BITMOD", (2, 100), 32)
    assert packfile.pack(qt, GroupingConfig(group_size=32), 100) == data
    for g, size in [(16, 100), (64, 100), (32, 99), (32, 101), (32, 96),
                    (32, 128)]:
        with pytest.raises(ValueError, match="not match"):
            packfile.pack(qt, GroupingConfig(group_size=g), size)


@st.composite
def damaged_files(draw):
    """A valid BMOD file (ragged widths included) with bytes overwritten,
    then possibly truncated, then possibly extended."""
    g = draw(st.sampled_from([8, 16, 32]))
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 3 * g)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    _, _, data = roundtrip_tensor(rng, draw(st.sampled_from(PACKABLE)),
                                  shape, g)
    buf = bytearray(data)
    # Half of the writes land in the header or the first channel scale.
    pos = st.one_of(st.integers(0, 23), st.integers(0, len(buf) - 1))
    for at, byte in draw(st.lists(st.tuples(pos, st.integers(0, 255)),
                                  max_size=4)):
        buf[at] = byte
    buf = buf[:draw(st.integers(0, len(buf)))] if draw(st.booleans()) else buf
    return bytes(buf) + draw(st.binary(max_size=8))


@settings(max_examples=300, deadline=None)
@given(damaged_files())
def test_unpack_damaged_file_raises_only_format_error(data):
    try:
        qt, _, _ = packfile.unpack(data)
    except FormatError:
        return
    k, d = struct.unpack_from("<II", data, 8)
    deq = dequantize_tensor(qt)
    assert deq.shape == (k, d)
    assert np.all(np.isfinite(deq))
