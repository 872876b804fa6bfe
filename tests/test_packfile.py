import dataclasses
import hashlib
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import PACKABLE, one_gemm
from bitmod import packfile, synth
from bitmod.archsim import LayerShape
from bitmod.dtype import GroupingConfig, code_range, spec_for
from bitmod.errors import (FormatError, OutOfRange, ShapeMismatch,
                           UnsupportedDtype)
from bitmod.quant import dequantize_tensor, quantize_tensor
from unpack_error_cases import DTYPES, FILE_SETS, WIDTH, base_file


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


@pytest.mark.parametrize("g, n_groups", [(32, 10), (128, 3)])
@pytest.mark.parametrize("name", PACKABLE)
def test_file_size_is_header_plus_channel_records(name, g, n_groups):
    # A file is the 20-byte header, then per channel a float32 scale and
    # one record per group, the last group padded: 300 weights leave a
    # ragged last group at both sizes.
    spec = spec_for(name)
    k, d = 5, 300
    _, _, data = roundtrip_tensor(np.random.default_rng(57), name, (k, d), g)
    assert len(data) == 20 + k * (4 + n_groups
                                  * packfile.group_record_bytes(spec, g))
    # On whole groups of whole bytes of codes, the file is the weight bytes
    # the simulator charges for the same layer, plus per group the record's
    # 16 metadata bits less the 8 + sv_bits charged, plus per channel its
    # float32 scale, plus the header.
    d = 256
    grouping = GroupingConfig(group_size=g)
    _, _, data = roundtrip_tensor(np.random.default_rng(57), name, (k, d), g)
    charged = one_gemm(1, LayerShape(d, k), spec, grouping).weight_bytes
    metadata = k * (d // g) * (16 - 8 - spec.sv_bits) / 8
    assert len(data) == charged + metadata + k * 4 + 20


def test_pack_refuses_one_channel():
    # qt[i] is one channel, not a tensor; this used to fail on a numpy
    # scalar's missing len().
    _, qt, _ = roundtrip_tensor(np.random.default_rng(58), "FP3_BITMOD",
                                (2, 64), 32)
    with pytest.raises(TypeError, match=re.escape(
            "one channel has no length; use qt[i:i + 1]")):
        packfile.pack(qt[0], GroupingConfig(group_size=32), 64)
    assert packfile.unpack(packfile.pack(
        qt[0:1], GroupingConfig(group_size=32), 64))[0] == qt[0:1]


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
    assert got.zero_point is None
    # Array fields compare by content, so the dtypes are checked above.
    assert got == qt
    for b in got:
        for i, gb in enumerate(b.groups):
            assert np.array_equal(gb.codes, b.codes[i])
            assert (gb.sv_index, gb.scale_q) == (b.sv_index[i], b.scale_q[i])
    np.testing.assert_array_equal(dequantize_tensor(qt).astype(np.float32),
                                  packfile.unpack_to_tensor(data))


@pytest.mark.parametrize("name", PACKABLE)
def test_unpack_gives_quantize_tensor_fields(name):
    # 200 ragged channels of 300 weights (3 groups of 128) span 2 read
    # chunks.
    rng = np.random.default_rng(53)
    _, qt, data = roundtrip_tensor(rng, name, (200, 300), 128)
    got, _, _ = packfile.unpack(data)
    assert len(got) == 200 and got.codes.shape[1:] == (3, 128)
    for f in dataclasses.fields(qt):
        x, y = getattr(qt, f.name), getattr(got, f.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype, f.name
    assert got == qt


@pytest.mark.parametrize("g", [128, 100])
@pytest.mark.parametrize("name", PACKABLE)
def test_roundtrip_across_read_chunks(name, g):
    # 700 channels of 300 weights: read chunks of 170 channels at G = 128
    # (5 chunks) and of 218 at G = 100 (4 chunks), the last one partial.
    w = synth.sample("outlier_mixture", (700, 300),
                     rng=np.random.default_rng(54))
    grouping = GroupingConfig(group_size=g)
    qt = quantize_tensor(w, spec_for(name), grouping)
    step = packfile.READ_CHUNK_WEIGHTS // qt.codes[0].size
    assert 700 // step >= 3 and 700 % step
    data = packfile.pack(qt, grouping, 300)
    assert packfile.unpack(data)[0] == qt
    want = dequantize_tensor(qt).astype(np.float32)
    assert packfile.unpack_to_tensor(data).tobytes() == want.tobytes()


# sha256 of the BMOD bytes of ``synth.sample("outlier_mixture", (8, 300),
# seed=61)`` per (dtype, group size); 300 weights leave a ragged last group
# for every size but 100, and 7 splits codes across 8-code runs.  Each file
# also unpacks to the tensor it was packed from.
PINNED_DIGESTS = {
    ("FP3_BITMOD", 128):
        "a9b377443f949155a49b0113c2233fd6e49927383d494bf18145de92a19f8713",
    ("FP3_BITMOD", 32):
        "9c02e83516fc8d0b9dfc16557d5b95801a14ebc72cc8d37dd6be95a7945b592c",
    ("FP3_BITMOD", 100):
        "b8450cd2c8dbc7c097f2826973f1816f296d0619ed91e1350da2cc51f473991a",
    ("FP3_BITMOD", 7):
        "a7d285d3b66cc51ac2273d26eda732ac5487b2695f1cada3ffd1919b93cffb6c",
    ("FP4_BITMOD", 128):
        "20638689eac58133673423cf1b7df2b990e7ef7fbabac4180c47215954b0c340",
    ("FP4_BITMOD", 32):
        "bacdefd8e0d0d4dc54f69eed690cdfb2c58e94ca53ff7394806faa85cab3682a",
    ("FP4_BITMOD", 100):
        "21aaa99c9297cc58bb9aae02b346e689df55e1d9563eba4c1241550dec5c1070",
    ("FP4_BITMOD", 7):
        "926909f61ee2a997da52f67a34218cb40e189f3b992714b5c6ac77082a47436e",
    ("FP3_BASIC", 128):
        "0ba57b34826833b5548dfb9b237dc4581f866d8bd69f89d1a989cdf32a66c0fc",
    ("FP3_BASIC", 32):
        "e59c5cfea78f26cfd723efafe7776f3b67eba1293a06e5dd6d386845c13819a0",
    ("FP3_BASIC", 100):
        "c5bbbd71ed71a087cd37ecae7f736b5521fea551996a0199e67d0f35e8118b58",
    ("FP3_BASIC", 7):
        "f273e8b5565388650c0a30f46dacdaed77be14473fdab0de0b6aa426ea9fc5c3",
    ("FP4_BASIC", 128):
        "442ad8f60807069aa1be44c268c7440d4e4fd16603c39cf20dfe9de45087d958",
    ("FP4_BASIC", 32):
        "0cc7737edfbe6abd3845474d09ea7516ae5ed35be2d03fbef76df74272256116",
    ("FP4_BASIC", 100):
        "7141a2d80304030576395e47cb35c1913ee6ccc7877468670b4ad66e448ddf32",
    ("FP4_BASIC", 7):
        "0a62c23c419e889b9ac87be8987773a5642d8563f1ff3e6c05872197886f5f55",
    ("INT8_SYM", 128):
        "b155f6571841c08e0e4abc2e322a2b90838b2ba5a3440998b0190d06b33fb763",
    ("INT8_SYM", 32):
        "420e49125b6a85717427cce6b9ffbd6a04abf13000a44ffff0333df9d731d87c",
    ("INT8_SYM", 100):
        "1fabd7b3b0ecb84951c4be227738f72486767ec707c385892d10710090cebb56",
    ("INT8_SYM", 7):
        "8a1ad818a1e15216f349af4eeb126c3273bb52b54db0aadd6ba7a8356f2b1ce7",
    ("INT6_SYM", 128):
        "a822b16c562dbb49a02672aac2111a9b70825015c6a9c7e33dea7ecbfb69b90e",
    ("INT6_SYM", 32):
        "71017e544bca7852ad3fc2e96bc113b25dcb7fbaffecc30bc4b76fdd80bcfe7e",
    ("INT6_SYM", 100):
        "904f8892c364168e32f08c70f1422b115a983115d3b2fd0618f08e877543a808",
    ("INT6_SYM", 7):
        "961a76169ac0a3a20fbf4dac0a569ef7451d0d01efe57fca0b8c911dd816252d",
    ("INT4_SYM", 128):
        "86614b76f76fd961e862d2c7a99a6a4bffb64775ab331886c2223e67d857decb",
    ("INT4_SYM", 32):
        "68928b6fb601f4f89afffb84b0d1ae5e0b1a4096080f239873ac11e151d90d2e",
    ("INT4_SYM", 100):
        "36a08685ec5954e127aa1c20ddd080ff92d06317232edfc30b0da7a07d81b0b9",
    ("INT4_SYM", 7):
        "cfbf51d873cd2274af077c3f363bb5861036ab5bf2c5d12fd63f80f46957ba80",
}


@pytest.mark.parametrize("name,g", sorted(PINNED_DIGESTS))
def test_pack_bytes_are_pinned(name, g):
    w = synth.sample("outlier_mixture", (8, 300), seed=61)
    grouping = GroupingConfig(group_size=g)
    qt = quantize_tensor(w, spec_for(name), grouping)
    data = packfile.pack(qt, grouping, 300)
    assert hashlib.sha256(data).hexdigest() == PINNED_DIGESTS[name, g]
    assert packfile.unpack(data)[0] == qt


def bitplane_pack_codes(codes, spec):
    """Reference for ``packfile._pack_codes``: each code's low
    ``bits_per_code`` bits spread to one byte per bit, LSB first, then
    packed to bytes again, each row padded to a byte."""
    stored = np.asarray(codes).astype(np.uint8)
    planes = np.unpackbits(stored[..., None], axis=-1,
                           count=spec.bits_per_code, bitorder="little")
    return np.packbits(planes.reshape(*stored.shape[:-1], -1), axis=-1,
                       bitorder="little")


@pytest.mark.parametrize("name", PACKABLE)
def test_pack_codes_matches_bitplane_reference(name):
    spec = spec_for(name)
    lo, hi = code_range(spec)
    rng = np.random.default_rng(54)
    for lead in [(), (3,), (2, 5)]:
        for n in range(1, 18):
            codes = rng.integers(lo, hi + 1, (*lead, n)).astype(
                spec.code_dtype)
            got = packfile._pack_codes(codes, spec)
            want = bitplane_pack_codes(codes, spec)
            assert got.dtype == np.uint8
            assert got.shape == want.shape == (*lead, (n * spec.bits_per_code
                                                       + 7) // 8)
            assert np.array_equal(got, want), (lead, n)
            assert np.array_equal(packfile._unpack_codes(got, n, spec), codes)


def bitplane_unpack_codes(raw, count, spec):
    """Reference for ``packfile._unpack_codes``: each row's bits, LSB
    first, cut into ``count`` codes of ``bits_per_code`` bits, INT codes
    read as two's complement."""
    bits = spec.bits_per_code
    planes = np.unpackbits(raw, axis=-1, bitorder="little")
    planes = planes[..., :count * bits].reshape(*raw.shape[:-1], count, bits)
    codes = (planes.astype(np.int64) << np.arange(bits)).sum(axis=-1)
    if not spec.is_fp:
        codes -= (codes >> (bits - 1)) << bits
    return codes.astype(spec.code_dtype)


@pytest.mark.parametrize("name", PACKABLE)
def test_unpack_codes_matches_bitplane_reference(name):
    # Every stored bit pattern, and random bits past the last code.  The
    # codes are a non-contiguous slice of whole records, as ``unpack``
    # reads them, and most counts leave rows that are not whole 3-byte runs.
    spec = spec_for(name)
    rng = np.random.default_rng(55)
    for count in range(1, 301):
        lead = [(), (3,), (2, 3)][count % 3]
        nbytes = (count * spec.bits_per_code + 7) // 8
        records = rng.integers(0, 256, (*lead, 2 + nbytes), dtype=np.uint8)
        raw = records[..., 2:]
        got = packfile._unpack_codes(raw, count, spec)
        assert got.dtype == spec.code_dtype
        assert got.shape == (*lead, count)
        assert np.array_equal(got, bitplane_unpack_codes(raw, count, spec)), \
            count


@pytest.mark.parametrize("name", PACKABLE)
def test_pack_codes_keeps_each_code_in_its_lane(name):
    # Every code at every position of rows of 8 codes and of 13 (a partial
    # last run), among neighbours of the lowest code, the highest code and,
    # for INT types, the all-ones byte -1: a bit that leaks across a lane
    # of the fold changes a neighbour.
    spec = spec_for(name)
    lo, hi = code_range(spec)
    fills = (lo, hi) if spec.is_fp else (lo, hi, -1)
    for n in (8, 13):
        for fill in fills:
            codes = np.full((hi - lo + 1, n, n), fill)
            for p in range(n):
                codes[:, p, p] = np.arange(lo, hi + 1)
            codes = codes.astype(spec.code_dtype)
            got = packfile._pack_codes(codes, spec)
            assert np.array_equal(got, bitplane_pack_codes(codes, spec)), \
                (n, fill)
            assert np.array_equal(packfile._unpack_codes(got, n, spec), codes)


@pytest.mark.parametrize("name", ["FP3_BITMOD", "INT6_SYM"])
@pytest.mark.parametrize("g", [128, 100])
def test_pack_of_strided_channels_leaves_the_tensor_alone(name, g):
    # Every other channel is a strided view of the tensor's arrays; packing
    # it writes the same bytes as a contiguous copy, and no code of the
    # tensor.
    _, qt, _ = roundtrip_tensor(np.random.default_rng(62), name, (9, 300), g)
    before = qt.codes.copy()
    half = qt[::2]
    copy = dataclasses.replace(half, **{
        f.name: np.ascontiguousarray(v) for f in dataclasses.fields(half)
        if isinstance(v := getattr(half, f.name), np.ndarray)})
    assert not half.codes.flags.c_contiguous and copy.codes.flags.c_contiguous
    grouping = GroupingConfig(group_size=g)
    assert packfile.pack(half, grouping, 300) == packfile.pack(copy,
                                                               grouping, 300)
    assert np.array_equal(qt.codes, before)


@pytest.mark.parametrize("name", ["FP3_BITMOD", "FP4_BITMOD", "INT4_SYM",
                                  "INT6_SYM"])
def test_pack_memory_beyond_output(name):
    # ``pack`` returns the one bytearray it fills, so beyond the output it
    # holds only one chunk's buffers: 41 793-43 639 bytes here for 3-bit
    # codes, 43 969-46 643 for 4-bit ones (FP, and INT with its mask pass)
    # and 48 353-51 251 for 6-bit ones, whose fold takes four-pass steps;
    # the bound leaves 12-37% above that.  A second copy of the file, as
    # ``bytes(out)`` made, would fail it, and so would buffers for the
    # whole tensor, over 256 KB.
    w = np.random.default_rng(23).standard_normal((64, 4096))
    grouping = GroupingConfig(group_size=128)
    qt = quantize_tensor(w, spec_for(name), grouping)
    tracemalloc.start()
    try:
        data = packfile.pack(qt, grouping, 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(data) == {"FP3_BITMOD": 102_676, "FP4_BITMOD": 135_444,
                         "INT4_SYM": 135_444, "INT6_SYM": 200_980}[name]
    assert peak - len(data) < 56 << 10


@pytest.mark.parametrize("name,bound", [
    # 308 450 bytes measured for 3-bit codes and 659 602 for 8-bit ones,
    # whose temporaries are the widest, by a call that also builds the code
    # width's field table, as a process's first one does; each bound leaves
    # about 20-30% above that.  Decoding the 4 read chunks of these files at
    # once would hold about four times as much.
    ("FP3_BITMOD", 370 << 10), ("INT8_SYM", 840 << 10),
])
def test_unpack_memory_beyond_output(name, bound):
    w = np.random.default_rng(23).standard_normal((64, 4096))
    grouping = GroupingConfig(group_size=128)
    qt = quantize_tensor(w, spec_for(name), grouping)
    data = packfile.pack(qt, grouping, 4096)
    assert -(-64 * 4096 // packfile.READ_CHUNK_WEIGHTS) == 4
    packfile._field_table.cache_clear()  # counted in the call below
    tracemalloc.start()
    try:
        got, _, _ = packfile.unpack(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = sum(a.nbytes for a in (got.codes, got.sv_index, got.scale_q,
                                 got.channel_scale))
    assert peak - out < bound


@pytest.mark.parametrize("name", ["FP3_BITMOD", "INT8_SYM"])
def test_unpack_to_tensor_memory_beyond_output(name):
    # Beyond its float32 output, ``unpack_to_tensor`` holds one read chunk's
    # codes and float64 dequantization: 761 197 bytes measured for 3-bit
    # codes and 746 934 for 8-bit ones, by a call that builds the field
    # table.  The bound leaves about 15% above that.  Building the whole
    # ``QuantizedTensor`` first, with its 262 144 code bytes, measured
    # 961 437 and 947 190 bytes, which fail it.
    w = np.random.default_rng(23).standard_normal((64, 4096))
    grouping = GroupingConfig(group_size=128)
    qt = quantize_tensor(w, spec_for(name), grouping)
    data = packfile.pack(qt, grouping, 4096)
    assert -(-64 * 4096 // packfile.READ_CHUNK_WEIGHTS) == 4
    packfile._field_table.cache_clear()  # counted in the call below
    tracemalloc.start()
    try:
        got = packfile.unpack_to_tensor(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - got.nbytes < 860 << 10


def test_read_chunks_checks_the_header_at_once_and_the_body_as_it_reads():
    _, _, data = roundtrip_tensor(np.random.default_rng(48), "FP3_BITMOD",
                                  (2, 64), 32)
    with pytest.raises(FormatError, match="bad magic") as ei:
        packfile.read_chunks(b"JUNK" + data[4:])
    assert ei.value.offset == 0
    nan_scale = data[:20] + struct.pack("<f", float("nan")) + data[24:]
    # A bad field, a truncated last channel and trailing bytes.
    for damaged in (nan_scale, data[:-3], data + b"\0"):
        with pytest.raises(FormatError) as want:
            packfile.unpack(damaged)
        *_, chunks = packfile.read_chunks(damaged)
        with pytest.raises(FormatError) as ei:
            list(chunks)
        assert (str(ei.value), ei.value.offset) == (str(want.value),
                                                    want.value.offset)


@pytest.mark.parametrize("name", DTYPES)
def test_read_chunks_tile_the_channels_in_file_order(name):
    # The 600-channel file of the second pinned unpack table: read chunks
    # of 256, 256 and 88 channels.
    fs = FILE_SETS[1]
    data = base_file(name, fs)
    whole, grouping, spec = packfile.unpack(data)
    got_spec, got_grouping, d, n, chunks = packfile.read_chunks(data)
    assert (got_spec, got_grouping, d, n) == (spec, grouping, WIDTH,
                                              fs.channels)
    rows = []
    for chunk, part in chunks:
        rows.append(range(n)[chunk])
        want = whole[chunk]
        assert part == want
        for f in dataclasses.fields(want):
            if isinstance(x := getattr(want, f.name), np.ndarray):
                assert getattr(part, f.name).dtype == x.dtype, f.name
    assert [len(r) for r in rows] == [256, 256, 88]
    assert [i for r in rows for i in r] == list(range(n))


def test_unpack_to_tensor_refuses_a_weight_beyond_float32():
    # A finite float32 channel scale times its scale_q and grid values can
    # exceed float32.  ``unpack`` reads such a file, but a float32 tensor
    # cannot hold it, so ``unpack_to_tensor`` refuses it rather than write
    # an infinity; a damaged file still raises its FormatError, though its
    # bad field comes after that weight.
    _, _, data = roundtrip_tensor(np.random.default_rng(49), "FP3_BITMOD",
                                  (3, 64), 32)
    width = 4 + 2 * packfile.group_record_bytes(spec_for("FP3_BITMOD"), 32)
    big = bytearray(data)
    struct.pack_into("<f", big, 20 + width, 3e38)  # channel 1
    qt, _, _ = packfile.unpack(bytes(big))
    assert np.abs(dequantize_tensor(qt[1:2])).max() > np.finfo(np.float32).max
    with pytest.raises(OutOfRange, match=r"^channels 0\.\.2 hold a weight "
                       r"beyond the float32 range$"):
        packfile.unpack_to_tensor(bytes(big))
    with pytest.raises(FormatError, match="1 trailing bytes"):
        packfile.unpack_to_tensor(bytes(big) + b"\0")


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
    np.testing.assert_array_equal(got,
                                  dequantize_tensor(qt).astype(np.float32))


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


def _edited(qt, field, at, value, dtype=None):
    arr = getattr(qt, field).astype(dtype or getattr(qt, field).dtype)
    arr[at] = value
    return dataclasses.replace(qt, **{field: arr})


@pytest.mark.parametrize("name,field,at,value,dtype,match", [
    ("FP3_BITMOD", "codes", (1, 0, 5), 9, None,
     "code 9 at channel 1, group 0"),
    ("FP3_BITMOD", "codes", (0, 1, 0), -1, np.int64,
     "code -1 at channel 0, group 1"),
    ("FP3_BITMOD", "sv_index", (1, 1), 5, None,
     "sv_index 5 at channel 1, group 1 is outside \\[0, 3\\]"),
    ("FP3_BITMOD", "scale_q", (0, 1), 300, np.int64,
     "scale_q 300 at channel 0, group 1 is outside \\[0, 255\\]"),
    ("FP3_BITMOD", "scale_q", (0, 0), 2.5, np.float64, "scale_q 2.5"),
    ("INT6_SYM", "codes", (1, 1, 3), -32, None,
     "code -32 at channel 1, group 1 is outside \\[-31, 31\\]"),
    ("INT8_SYM", "sv_index", (0, 0), 1, None, "sv_index 1"),
    ("FP3_BITMOD", "channel_scale", 1, float("nan"), None,
     "channel_scale nan at channel 1"),
    ("FP3_BITMOD", "channel_scale", 0, 1e300, None, "channel_scale 1e\\+300"),
    ("INT6_SYM", "channel_scale", 1, float("-inf"), None,
     "channel_scale -inf"),
    ("FP4_BITMOD", "channel_scale", 0, 0.1, None, "channel_scale 0.1 at"),
], ids=["fp3-code-9", "fp3-int64-code-minus-1", "fp3-sv-index-5",
        "int64-scale-q-300", "float-scale-q-2.5", "int6-code-minus-32",
        "int-sv-index-1", "nan-channel-scale", "huge-channel-scale",
        "inf-channel-scale", "channel-scale-not-float32"])
def test_pack_refuses_fields_the_file_cannot_hold(name, field, at, value,
                                                  dtype, match):
    # Unchecked, each would make a file that unpack rejects or reads back
    # as another value.
    rng = np.random.default_rng(55)
    _, qt, _ = roundtrip_tensor(rng, name, (2, 256), 128)
    with pytest.raises(OutOfRange, match=match):
        packfile.pack(_edited(qt, field, at, value, dtype),
                      GroupingConfig(group_size=128), 256)


@pytest.mark.parametrize("field,cut", [
    ("sv_index", np.s_[:, :1]), ("scale_q", np.s_[:1]),
    ("channel_scale", np.s_[:1]),
])
def test_pack_refuses_a_field_of_another_shape(field, cut):
    # Each field was broadcast against the others: an sv_index of shape
    # (4, 1) made a 436-byte file.
    _, qt, _ = roundtrip_tensor(np.random.default_rng(59), "FP3_BITMOD",
                                (4, 256), 128)
    edited = dataclasses.replace(qt, **{field: getattr(qt, field)[cut]})
    with pytest.raises(ShapeMismatch, match=f"^{field} has shape "):
        packfile.pack(edited, GroupingConfig(group_size=128), 256)


def test_pack_reads_int_codes_of_any_integer_dtype():
    # uint8 or uint16 INT6_SYM codes raised OverflowError: their min was
    # taken with initial=-31.
    rng = np.random.default_rng(56)
    _, qt, _ = roundtrip_tensor(rng, "INT6_SYM", (2, 256), 128)
    qt = dataclasses.replace(qt, codes=np.abs(qt.codes))
    grouping = GroupingConfig(group_size=128)
    want = packfile.pack(qt, grouping, 256)
    for dtype in (np.uint8, np.uint16, np.int64, np.float64):
        edited = dataclasses.replace(qt, codes=qt.codes.astype(dtype))
        assert packfile.pack(edited, grouping, 256) == want, dtype


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_pack_roundtrips_or_refuses_an_edited_field(data):
    name = data.draw(st.sampled_from(PACKABLE))
    g = data.draw(st.sampled_from([8, 16, 32]))
    shape = (data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3 * g)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    _, qt, _ = roundtrip_tensor(rng, name, shape, g)
    field = data.draw(st.sampled_from(
        ["channel_scale", "scale_q", "sv_index", "codes"]))
    arr = getattr(qt, field)
    at = data.draw(st.tuples(*(st.integers(0, n - 1) for n in arr.shape)))
    if field == "channel_scale":
        dtype = None
        value = data.draw(st.floats() | st.floats(width=32))
    else:
        dtype = data.draw(st.sampled_from([arr.dtype, np.dtype(np.int64),
                                           np.dtype(np.uint16),
                                           np.dtype(np.float64)]))
        if dtype.kind == "f":
            value = data.draw(st.integers(-300, 300) | st.floats())
        else:
            info = np.iinfo(dtype)
            value = data.draw(st.integers(max(-300, info.min),
                                          min(300, info.max))
                              | st.integers(info.min, info.max))
    qt = _edited(qt, field, at, value, dtype)
    try:
        packed = packfile.pack(qt, GroupingConfig(group_size=g), shape[1])
    except OutOfRange:
        return
    got, _, _ = packfile.unpack(packed)
    assert got == qt


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
    except FormatError as exc:
        with pytest.raises(FormatError) as ei:
            packfile.unpack_to_tensor(data)
        assert (str(ei.value), ei.value.offset) == (str(exc), exc.offset)
        return
    k, d = struct.unpack_from("<II", data, 8)
    deq = dequantize_tensor(qt)
    assert deq.shape == (k, d)
    assert np.all(np.isfinite(deq))
    with np.errstate(over="ignore"):  # a reference that float32 cannot hold
        want = deq.astype(np.float32)
    if np.isinf(want).any():
        with pytest.raises(OutOfRange, match="beyond the float32 range"):
            packfile.unpack_to_tensor(data)
        return
    got = packfile.unpack_to_tensor(data)
    assert got.dtype == np.float32 and got.shape == (k, d)
    assert np.all(np.isfinite(got)) and got.tobytes() == want.tobytes()
