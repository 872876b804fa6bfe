import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bitmod import packfile
from bitmod.dtype import GroupingConfig, spec_for
from bitmod.errors import FormatError, UnsupportedDtype
from bitmod.quant import dequantize_tensor, quantize_tensor


def roundtrip_tensor(rng, name, shape, g):
    spec = spec_for(name)
    grouping = GroupingConfig(group_size=g)
    w = rng.standard_normal(shape)
    channels = quantize_tensor(w, spec, grouping)
    data = packfile.pack(channels, grouping, shape[1])
    return w, channels, data


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
    w, channels, data = roundtrip_tensor(rng, name, (3, 2 * g), g)
    got_channels, grouping, spec = packfile.unpack(data)
    assert spec.name.name == name
    for a, b in zip(channels, got_channels):
        assert a.channel_scale == b.channel_scale  # f32-exact by construction
        for field in ("codes", "sv_index", "scale_q"):
            got = getattr(b, field)
            assert got.dtype == np.int64
            assert np.array_equal(getattr(a, field), got)
        assert b.delta is None and b.zero_point is None
        for i, gb in enumerate(b.groups):
            assert np.array_equal(gb.codes, b.codes[i])
            assert (gb.sv_index, gb.scale_q, gb.delta) == (
                b.sv_index[i], b.scale_q[i], None)
    np.testing.assert_array_equal(dequantize_tensor(channels),
                                  packfile.unpack_to_tensor(data))


def test_repack_is_byte_identical():
    rng = np.random.default_rng(44)
    _, _, data = roundtrip_tensor(rng, "FP4_BITMOD", (4, 96), 32)
    channels, grouping, _ = packfile.unpack(data)
    assert packfile.pack(channels, grouping, 96) == data


def test_ragged_channel_pads_groups():
    rng = np.random.default_rng(45)
    w, channels, data = roundtrip_tensor(rng, "FP3_BITMOD", (2, 100), 32)
    got = packfile.unpack_to_tensor(data)
    assert got.shape == (2, 100)
    np.testing.assert_array_equal(got, dequantize_tensor(channels))


def test_negative_int_codes_survive():
    rng = np.random.default_rng(46)
    _, channels, data = roundtrip_tensor(rng, "INT8_SYM", (1, 32), 16)
    got, _, _ = packfile.unpack(data)
    assert any(int(c) < 0 for qg in got[0].groups for c in qg.codes)


def test_asymmetric_types_not_packable():
    rng = np.random.default_rng(47)
    spec = spec_for("INT4_ASYM")
    grouping = GroupingConfig(group_size=16)
    channels = quantize_tensor(rng.standard_normal((1, 32)), spec, grouping)
    with pytest.raises(UnsupportedDtype):
        packfile.pack(channels, grouping, 32)


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
    with pytest.raises(ValueError):
        packfile.pack([], GroupingConfig(group_size=16), 0)


PACKABLE = ("FP3_BITMOD", "FP4_BITMOD", "FP3_BASIC", "FP4_BASIC",
            "INT8_SYM", "INT6_SYM", "INT4_SYM")


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
        channels, _, _ = packfile.unpack(data)
    except FormatError:
        return
    k, d = struct.unpack_from("<II", data, 8)
    deq = dequantize_tensor(channels)
    assert deq.shape == (k, d)
    assert np.all(np.isfinite(deq))
