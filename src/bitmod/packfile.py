"""Packed quantized-tensor file (BMOD format).

Little-endian layout:

    magic "BMOD" (4 bytes), version u16 = 1, dtype id u16,
    K u32 (output channels), D u32 (channel size), G u32 (group size);
    per channel:  channel_scale f32;
      per group (ceil(D / G) records):
                  scale_q u8, sv_index u8,
                  codes bit-packed LSB-first at bits_per_code bits each,
                  padded to a byte boundary.

``pack`` checks a :class:`bitmod.quant.QuantizedTensor` against what the
format holds, then fills one preallocated file body, a (channels,
4 + n_groups * record) uint8 view, bit-packing the codes in chunks of whole
channels, about ``quant.CHUNK_WEIGHTS`` weights each.  Each run of 8 codes,
one byte each, is one little-endian uint64 that a SWAR fold ("SIMD within
a register") packs in place: three mask-and-shift steps join byte pairs,
then 16-bit pairs, then 32-bit pairs, which leaves the run's codes LSB
first in its first ``bits_per_code`` bytes.  A step whose joined pair fits
its doubled lane (every step of 3- and 4-bit codes) takes three passes,
shift, or and mask, and needs the bits between codes to be zero, as they
are for range-checked FP codes and for INT codes after one mask pass; the
others (6-bit codes) take four, mask, shift, mask and or.

``read_chunks`` is the one reader.  It checks the header at once, then
yields chunks of whole channels of about ``READ_CHUNK_WEIGHTS`` weights,
four times as many, each one such view of the file checked at once and
returned as a ``QuantizedTensor`` chunk.  ``unpack`` copies its chunks
into one tensor; ``unpack_to_tensor`` dequantizes each straight into its
float32 output, so it never holds the whole tensor.  The reader reads a
row's codes as fixed-width fields of whole codes: one byte (two 4-bit
codes, or one 8-bit code) or 12 bits (four 3-bit codes, or two 6-bit
codes; two fields in three bytes).  Each field is one index into a table
of its codes, already sign-extended for INT types, built on first use per
code width and signedness.

Asymmetric INT types carry a zero-point the format has no field for; they
are software baselines, so ``pack`` refuses them and ``unpack`` rejects
their dtype ids.
"""

from __future__ import annotations

import struct
from functools import cache

import numpy as np

from .dtype import (SCALE_Q_RANGE, DataType, DataTypeSpec, GroupingConfig,
                    check_range, code_range, spec_for, sv_range)
from .errors import FormatError, OutOfRange, ShapeMismatch
from .quant import (CHUNK_WEIGHTS, QuantizedTensor, channel_chunks,
                    dequantize_tensor)

MAGIC = b"BMOD"
VERSION = 1

_HEADER = struct.Struct("<4sHHIII")

# Weights per chunk of ``read_chunks``: whole channels, at least one.  At
# ``CHUNK_WEIGHTS`` a chunk's cost is the ~20 numpy calls it makes, not its
# decoding; at 16 times that it read little faster than at 4 times.
# Reading holds 4-10 bytes of temporaries per weight (3- to 8-bit codes)
# against the quantizer's ~56, so a read chunk stays within the
# quantizer's own ~0.9 MB of temporaries.
READ_CHUNK_WEIGHTS = 4 * CHUNK_WEIGHTS


@cache
def _fold_steps(bits: int) -> tuple:
    """``(lo, hi, shift)`` of each step of ``_pack_codes``' fold of
    ``bits``-bit codes: step ``s`` joins pairs of ``8 << s``-bit lanes that
    each hold ``bits << s`` bits.  A step that would shift by 0 is left out,
    so 8-bit codes need none.  ``hi`` is None for a step whose joined pair
    fits its doubled lane (``lane >= 2 * width``, every step of 3- and
    4-bit codes); its ``lo`` then keeps the joined pair's ``2 * width``
    bits."""
    steps = []
    for s in range(3):
        width, lane = bits << s, 8 << s
        if width == lane:
            continue
        fits = lane >= 2 * width
        lo = sum(((1 << (2 * width if fits else width)) - 1) << 2 * lane * i
                 for i in range(4 >> s))
        steps.append((np.uint64(lo), None if fits else np.uint64(lo << lane),
                      np.uint64(lane - width)))
    return tuple(steps)


@cache
def _run_bytes(n: int, bits: int) -> np.ndarray:
    """The index of each packed byte of a row of ``n`` folded codes: the
    first ``bits`` bytes of each 8-byte run, up to the row's last byte."""
    j = np.arange((n * bits + 7) // 8)
    index = j // bits * 8 + j % bits
    index.flags.writeable = False  # shared by every caller
    return index


def _pack_codes(codes, spec: DataTypeSpec) -> np.ndarray:
    """Bit-pack codes along the last axis: ``bits_per_code`` bits each,
    LSB first, INT codes in two's complement, each row padded to a byte.
    FP codes must lie in ``0..2**bits_per_code - 1``, as ``pack`` checks.

    Each run of 8 codes, one byte each and zero-padded to whole runs, is
    one little-endian uint64 whose byte ``i`` holds code ``i``.  A SWAR fold
    then closes the gaps between them in place, in three steps of
    ``_fold_steps`` that join byte pairs, then 16-bit pairs, then 32-bit
    pairs.  Each step moves the upper lane of a pair down against the lower
    one, so code ``i`` ends at bit ``bits * i``: LSB-first order needs no
    step of its own.  A step takes one of two forms:

    * ``t = w >> shift; w |= t; w &= lo`` where the joined pair fits its
      doubled lane.  It needs the bits between codes to be zero: the shift
      moves each lower lane wholly below its own pair, and the mask clears
      it and the upper lane's old place.  FP codes are zero there; INT codes
      (a negative one sets its byte's high bits) get one mask pass to their
      low ``bits`` bits first.
    * ``t = w & hi; t >>= shift; w &= lo; w |= t`` otherwise (6-bit codes),
      which needs no zero gap: its first step's masks keep only each
      code's low ``bits`` bits, which cuts INT codes to ``bits``-bit two's
      complement, and leave the gaps zero.

    ``_run_bytes`` then gathers each run's first ``bits`` bytes.  It is
    cached per (codes per row, ``bits``), so the cache holds one small
    index for each group size and code width a process packs.
    """
    bits = spec.bits_per_code
    codes = np.asarray(codes)
    *lead, n = codes.shape
    if n % 8:
        stored = np.zeros((*lead, -(-n // 8) * 8), np.uint8)
        stored[..., :n] = codes
    else:  # whole runs: one copy
        stored = codes.astype(np.uint8, order="C")
    word = stored.view("<u8")
    t = np.empty_like(word)
    steps = _fold_steps(bits)
    if steps and steps[0][1] is None and not spec.is_fp:
        word &= np.uint64(0x0101010101010101 * ((1 << bits) - 1))
    for lo, hi, shift in steps:
        if hi is None:
            np.right_shift(word, shift, out=t)
            word |= t
            word &= lo
        else:
            np.bitwise_and(word, hi, out=t)
            t >>= shift
            word &= lo
            word |= t
    return stored.take(_run_bytes(n, bits), axis=-1)


def _field_bits(bits: int) -> int:
    """The width of the fields ``_unpack_codes`` reads: 8 bits, one byte,
    for 4- and 8-bit codes; 12 bits, two fields in three bytes, for 3- and
    6-bit codes."""
    return 8 if 8 % bits == 0 else 12


@cache
def _field_table(bits: int, signed: bool) -> np.ndarray:
    """The codes of every field value, LSB first as ``_pack_codes`` writes
    them, sign-extended if ``signed``.  Entry ``v`` holds the
    ``_field_bits(bits) // bits`` code bytes of field ``v`` as one unsigned
    integer, so that one ``take`` gathers a field's codes at once."""
    width = _field_bits(bits)
    # uint16 keeps the one-time build small: the sign extension wraps, and
    # the int8 cast keeps the right low byte.
    codes = np.arange(1 << width, dtype=np.uint16)[:, None] \
        >> np.arange(0, width, bits, dtype=np.uint16)
    codes &= (1 << bits) - 1
    if signed:
        codes -= (codes & (1 << (bits - 1))) << 1
    table = codes.astype(np.int8 if signed else np.uint8)
    table = table.view(f"u{table.shape[1]}")[:, 0]
    table.flags.writeable = False  # shared by every caller
    return table


def _unpack_codes(raw, count: int, spec: DataTypeSpec) -> np.ndarray:
    """Inverse of ``_pack_codes``: the first ``count`` codes of each row of
    the uint8 array ``raw``, as ``spec.code_dtype``; INT codes are
    sign-extended.  Each row is read as fields of whole codes, each one
    index into ``_field_table``."""
    bits = spec.bits_per_code
    *lead, n = raw.shape
    if not raw.size:  # no rows, and ``count`` may be a damaged header's
        return np.empty((*lead, count), spec.code_dtype)
    if _field_bits(bits) == 8:
        fields = raw
    else:
        # Rows zero-padded to whole 3-byte runs, one contiguous copy.  A
        # run's first field is the low 12 bits of the little-endian uint16
        # at its first byte, its second the high 12 bits of the one at its
        # second byte.
        runs = np.zeros((*lead, 3 * -(-n // 3)), np.uint8)
        runs[..., :n] = raw
        fields = np.empty((runs.size // 3, 2), np.intp)
        first, second = (np.ndarray(len(fields), "<u2", runs, offset=i,
                                    strides=3) for i in (0, 1))
        np.bitwise_and(first, 0xFFF, out=fields[:, 0])
        np.right_shift(second, 4, out=fields[:, 1])
    codes = _field_table(bits, not spec.is_fp).take(fields)
    return codes.view(spec.code_dtype).reshape(*lead, -1)[..., :count]


def group_record_bytes(spec: DataTypeSpec, group_size: int) -> int:
    return 2 + (group_size * spec.bits_per_code + 7) // 8


def _channels(rows, rec: int):
    """Views of the channels stored one per row of the uint8 array
    ``rows``: their ``<f4`` scales, and their group records of ``rec``
    bytes as an (n, n_groups, rec) array."""
    n = len(rows)
    return rows[:, :4].view("<f4")[:, 0], rows[:, 4:].reshape(n, -1, rec)


def pack(qt: QuantizedTensor, grouping: GroupingConfig,
         channel_size: int) -> bytearray:
    """Serialize a quantized tensor to BMOD bytes; ``grouping`` and
    ``channel_size`` must be those it was quantized with.  Returns the
    one buffer it filled, so the file is never held twice.

    A field the file cannot hold exactly, or that ``unpack`` would reject,
    raises :class:`OutOfRange` before any byte is written: a channel scale
    that is not a finite float32, a ``scale_q`` outside 0..255, an
    ``sv_index`` or a code outside the dtype's range.  A field whose shape
    is not the one ``codes`` gives it (``codes.shape[:2]`` for ``sv_index``
    and ``scale_q``, ``codes.shape[:1]`` for ``channel_scale``) raises
    :class:`ShapeMismatch`, and so is never broadcast.  An asymmetric
    dtype raises :class:`UnsupportedDtype`, from
    :func:`bitmod.dtype.code_range`.
    """
    if len(qt) == 0:
        raise ValueError("no channels to pack")
    spec = qt.dtype
    lo, hi = code_range(spec)
    k, n_groups, g = qt.codes.shape
    for field, want in (("sv_index", (k, n_groups)),
                        ("scale_q", (k, n_groups)), ("channel_scale", (k,))):
        shape = np.shape(getattr(qt, field))
        if shape != want:
            raise ShapeMismatch(f"{field} has shape {shape}, but codes of "
                                f"shape {qt.codes.shape} need {want}")
    if (grouping.group_size, channel_size) != (g, qt.valid_size):
        raise ValueError(f"group size {grouping.group_size} and channel size "
                         f"{channel_size} do not match the tensor's "
                         f"{g} and {qt.valid_size}")
    with np.errstate(over="ignore"):  # a too large scale becomes inf
        scale = qt.channel_scale.astype("<f4")
    bad = (scale != qt.channel_scale) | ~np.isfinite(scale)
    if bad.any():
        c = int(np.argmax(bad))
        raise OutOfRange(f"channel_scale {qt.channel_scale[c]} at channel "
                         f"{c} is not a finite float32 value")
    check_range("scale_q", qt.scale_q, *SCALE_Q_RANGE, spec)
    check_range("sv_index", qt.sv_index, *sv_range(spec), spec)
    check_range("code", qt.codes, lo, hi, spec)
    rec = group_record_bytes(spec, g)
    width = 4 + n_groups * rec
    out = bytearray(_HEADER.size + k * width)
    _HEADER.pack_into(out, 0, MAGIC, VERSION, spec.name.value, k,
                      channel_size, g)
    body = np.frombuffer(out, np.uint8, offset=_HEADER.size).reshape(k, width)
    scales, records = _channels(body, rec)
    scales[:] = scale
    records[..., 0], records[..., 1] = qt.scale_q, qt.sv_index
    # Chunks of whole channels keep the packer's temporaries small.
    for chunk in channel_chunks(k, n_groups * g):
        records[chunk, :, 2:] = _pack_codes(qt.codes[chunk], spec)
    return out


def _read_channels(rows, pos: int, spec: DataTypeSpec, g: int, rec: int):
    """Read the channels in the uint8 array ``rows``, one per row, each its
    f32 scale then complete group records of ``rec`` bytes; ``rows[0]``
    starts at file offset ``pos``.

    Returns (channel scales as float64, records of shape (n, n_groups,
    rec), codes).
    Raises :class:`FormatError` for the bad field at the lowest offset: a
    channel's scale, then its first bad record's ``sv_index``, then that
    record's first bad code.
    """
    width = rows.shape[1]
    scale, records = _channels(rows, rec)
    codes = _unpack_codes(records[..., 2:], g, spec)
    bad_sv = records[..., 1] > sv_range(spec)[1]
    bad_record = bad_sv
    lo, hi = code_range(spec)
    # Only FP_BASIC and INT*_SYM leave some stored bit patterns unused.
    if hi - lo + 1 < 1 << spec.bits_per_code:
        bad_code = (codes < lo) | (codes > hi)
        bad_record = bad_sv | bad_code.any(axis=-1)
    bad_scale = ~np.isfinite(scale)
    bad = bad_scale | bad_record.any(axis=-1)
    if bad.any():
        c = int(np.argmax(bad))
        at = pos + c * width
        if bad_scale[c]:
            raise FormatError(f"channel scale {float(scale[c])}", offset=at)
        r = int(np.argmax(bad_record[c]))
        at += 4 + r * rec
        if bad_sv[c, r]:
            raise FormatError(f"sv_index {records[c, r, 1]} out of range "
                              f"for {spec.name}", offset=at + 1)
        i = int(np.argmax(bad_code[c, r]))
        raise FormatError(f"code {codes[c, r, i]} out of range for "
                          f"{spec.name}",
                          offset=at + 2 + i * spec.bits_per_code // 8)
    # float64, as ``QuantizedTensor`` holds it: ``dequantize_tensor`` would
    # scale by a float32 one in float32.
    return scale.astype(np.float64), records, codes


def read_chunks(data: bytes):
    """Check the header of BMOD bytes and return ``(spec, grouping,
    channel_size, n_channels, chunks)``.

    ``n_channels`` counts the complete channels, sized by the bytes present
    rather than by the header.  ``chunks`` yields ``(slice,
    QuantizedTensor)`` for each chunk of whole channels of about
    ``READ_CHUNK_WEIGHTS`` weights, in file order; each chunk is one view
    of the file checked at once, and its ``sv_index`` and ``scale_q`` are
    views of ``data``.  A bad header raises :class:`FormatError`
    from the call.  Iterating raises it for the body's first bad field in
    file order, whatever the chunk size: a field of a complete channel,
    then a truncated last channel, checked as far as its bytes go, then
    trailing bytes.
    """
    if len(data) < _HEADER.size:
        raise FormatError("truncated header", offset=len(data))
    magic, version, dtype_id, k, d, g = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}", offset=0)
    if version != VERSION:
        raise FormatError(f"unsupported version {version}", offset=4)
    try:
        spec = spec_for(DataType(dtype_id))
    except ValueError:
        raise FormatError(f"unknown dtype id {dtype_id}", offset=6) from None
    if spec.asymmetric:
        raise FormatError(f"{spec.name} needs a zero-point the format "
                          "cannot hold", offset=6)
    if k == 0:
        raise FormatError("no channels", offset=8)
    if d == 0:
        raise FormatError("channel size 0", offset=12)
    if g == 0:
        raise FormatError("group size 0", offset=16)
    grouping = GroupingConfig(group_size=g)
    n_groups = grouping.n_groups(d)
    rec = group_record_bytes(spec, g)
    width = 4 + n_groups * rec
    # Sized by the channels whose bytes are all there, not by the header.
    n_full = min(k, (len(data) - _HEADER.size) // width)

    def chunks():
        body = np.ndarray((n_full, width), np.uint8, data, _HEADER.size)
        for chunk in channel_chunks(n_full, n_groups * g, READ_CHUNK_WEIGHTS):
            scale, records, codes = _read_channels(
                body[chunk], _HEADER.size + chunk.start * width, spec, g, rec)
            yield chunk, QuantizedTensor(codes, records[..., 1], records[..., 0],
                                         scale, spec, valid_size=d)
        pos = _HEADER.size + body.size
        if n_full < k:
            if pos + 4 > len(data):
                raise FormatError("truncated channel scale", offset=pos)
            n = (len(data) - pos - 4) // rec
            rows = np.frombuffer(data, np.uint8, 4 + n * rec, pos)
            _read_channels(rows[None], pos, spec, g, rec)
            raise FormatError("truncated group record", offset=pos + rows.size)
        if pos != len(data):
            raise FormatError(f"{len(data) - pos} trailing bytes", offset=pos)

    return spec, grouping, d, n_full, chunks()


def unpack(data: bytes):
    """Parse BMOD bytes back into (QuantizedTensor, grouping, spec): each
    chunk of :func:`read_chunks` is copied into one preallocated tensor, and
    a damaged file raises its :class:`FormatError`."""
    spec, grouping, d, n, chunks = read_chunks(data)
    shape = (n, grouping.n_groups(d))
    qt = QuantizedTensor(np.empty((*shape, grouping.group_size),
                                  spec.code_dtype),
                         np.empty(shape, np.uint8), np.empty(shape, np.uint8),
                         np.empty(n), spec, valid_size=d)
    for chunk, q in chunks:
        qt.codes[chunk], qt.sv_index[chunk] = q.codes, q.sv_index
        qt.scale_q[chunk], qt.channel_scale[chunk] = q.scale_q, q.channel_scale
    return qt, grouping, spec


def unpack_to_tensor(data: bytes) -> np.ndarray:
    """Parse BMOD bytes and dequantize them into a (K, D) float32 array, one
    chunk of :func:`read_chunks` at a time, so the whole
    ``QuantizedTensor`` is never built: each value is its float64
    dequantization, rounded once to float32.

    A damaged file raises the :class:`FormatError` that ``unpack`` raises.
    A weight that float32 cannot hold, from a channel scale too large for
    its ``scale_q`` and codes, raises :class:`OutOfRange`.
    """
    _, _, d, n, chunks = read_chunks(data)
    out = np.empty((n, d), np.float32)
    try:
        with np.errstate(over="raise"):
            for chunk, q in chunks:
                out[chunk] = dequantize_tensor(q)
    except FloatingPointError:  # from the float32 cast of a chunk
        list(chunks)  # the rest, so that a damaged file raises FormatError
        raise OutOfRange(f"channels {chunk.start}..{min(chunk.stop, n) - 1} "
                         "hold a weight beyond the float32 range") from None
    return out
