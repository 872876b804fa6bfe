"""Packed quantized-tensor file (BMOD format).

Little-endian layout:

    magic "BMOD" (4 bytes), version u16 = 1, dtype id u16,
    K u32 (output channels), D u32 (channel size), G u32 (group size);
    per channel:  channel_scale f32;
      per group (ceil(D / G) records):
                  scale_q u8, sv_index u8,
                  codes bit-packed LSB-first at bits_per_code bits each,
                  padded to a byte boundary.

``pack`` writes a :class:`bitmod.quant.QuantizedTensor` in chunks of whole
channels; ``unpack`` reads and checks one channel's group records at a
time, as one (n_groups, record) uint8 block.

Asymmetric INT types carry a zero-point the format has no field for; they
are software baselines, so ``pack`` refuses them and ``unpack`` rejects
their dtype ids.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .dtype import DataType, DataTypeSpec, GroupingConfig, code_range, spec_for
from .errors import FormatError, UnsupportedDtype
from .quant import CHUNK_WEIGHTS, QuantizedTensor, dequantize_tensor

MAGIC = b"BMOD"
VERSION = 1

_HEADER = struct.Struct("<4sHHIII")


def _pack_codes(codes, spec: DataTypeSpec) -> np.ndarray:
    """Bit-pack codes along the last axis: ``bits_per_code`` bits each,
    LSB first, INT codes in two's complement, each row padded to a byte."""
    bits = spec.bits_per_code
    stored = (np.asarray(codes) & ((1 << bits) - 1)).astype(np.uint8)
    planes = np.unpackbits(stored[..., None], axis=-1, count=bits,
                           bitorder="little")
    return np.packbits(planes.reshape(*stored.shape[:-1], -1), axis=-1,
                       bitorder="little")


def _unpack_codes(raw, count: int, spec: DataTypeSpec) -> np.ndarray:
    """Inverse of ``_pack_codes``: the first ``count`` codes of each row of
    the uint8 array ``raw``; INT codes are sign-extended."""
    bits = spec.bits_per_code
    raw = np.asarray(raw, dtype=np.uint8)
    planes = np.unpackbits(raw, axis=-1, count=count * bits,
                           bitorder="little")
    weights = 1 << np.arange(bits, dtype=np.uint8)
    stored = (planes.reshape(*raw.shape[:-1], count, bits) @ weights) \
        .astype(np.int64)
    if spec.is_fp:
        return stored
    return stored - ((stored & (1 << (bits - 1))) << 1)


def group_record_bytes(spec: DataTypeSpec, group_size: int) -> int:
    return 2 + (group_size * spec.bits_per_code + 7) // 8


def pack(qt: QuantizedTensor, grouping: GroupingConfig,
         channel_size: int) -> bytes:
    """Serialize a quantized tensor to BMOD bytes; ``grouping`` and
    ``channel_size`` must be those it was quantized with."""
    if len(qt) == 0:
        raise ValueError("no channels to pack")
    spec = qt.dtype
    if spec.asymmetric:
        raise UnsupportedDtype(f"{spec.name} has a zero-point; not packable")
    if (grouping.group_size, channel_size) != (qt.codes.shape[-1],
                                               qt.valid_size):
        raise ValueError(f"group size {grouping.group_size} and channel size "
                         f"{channel_size} do not match the tensor's "
                         f"{qt.codes.shape[-1]} and {qt.valid_size}")
    out = bytearray()
    out += _HEADER.pack(MAGIC, VERSION, spec.name.value, len(qt),
                        channel_size, grouping.group_size)
    # Chunks of whole channels keep the bit planes small.
    step = max(1, CHUNK_WEIGHTS // qt.codes[0].size)
    for start in range(0, len(qt), step):
        part = qt[start:start + step]
        meta = np.stack([part.scale_q, part.sv_index & 0x3], axis=-1)
        records = np.concatenate([meta.astype(np.uint8),
                                  _pack_codes(part.codes, spec)], axis=-1)
        scale = part.channel_scale.astype("<f4").view(np.uint8).reshape(-1, 4)
        out += np.concatenate([scale, records.reshape(len(part), -1)],
                              axis=1).tobytes()
    return bytes(out)


def unpack(data: bytes):
    """Parse BMOD bytes back into (QuantizedTensor, grouping, spec)."""
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
    groups_per_channel = -(-d // g)
    rec = group_record_bytes(spec, g)
    n_sv = max(1, len(spec.special_values))
    lo, hi = code_range(spec)
    # Only FP_BASIC and INT*_SYM leave some stored bit patterns unused.
    check_codes = hi - lo + 1 < 1 << spec.bits_per_code
    pos = _HEADER.size
    # Sized by the channels whose bytes are all there, not by the header.
    shape = (min(k, (len(data) - pos) // (4 + groups_per_channel * rec)),
             groups_per_channel)
    qt = QuantizedTensor(np.empty((*shape, g), np.int64),
                         np.empty(shape, np.int64), np.empty(shape, np.int64),
                         None, np.empty(shape[0]), spec, valid_size=d)
    for c in range(k):
        if pos + 4 > len(data):
            raise FormatError("truncated channel scale", offset=pos)
        (channel_scale,) = struct.unpack_from("<f", data, pos)
        if not math.isfinite(channel_scale):
            raise FormatError(f"channel scale {channel_scale}", offset=pos)
        pos += 4
        # The channel's complete group records, checked field by field in
        # file order before a missing record is reported.
        n = min(groups_per_channel, (len(data) - pos) // rec)
        records = np.frombuffer(data, np.uint8, n * rec, pos).reshape(n, rec)
        codes = _unpack_codes(records[:, 2:], g, spec)
        bad = records[:, 1] >= n_sv
        if check_codes:
            bad_code = (codes < lo) | (codes > hi)
            bad |= bad_code.any(axis=1)
        if bad.any():
            r = int(np.argmax(bad))
            at = pos + r * rec
            if records[r, 1] >= n_sv:
                raise FormatError(f"sv_index {records[r, 1]} out of range "
                                  f"for {spec.name}", offset=at + 1)
            i = int(np.argmax(bad_code[r]))
            raise FormatError(f"code {codes[r, i]} out of range for "
                              f"{spec.name}",
                              offset=at + 2 + i * spec.bits_per_code // 8)
        if n < groups_per_channel:
            raise FormatError("truncated group record", offset=pos + n * rec)
        pos += n * rec
        qt.channel_scale[c], qt.codes[c] = channel_scale, codes
        qt.scale_q[c], qt.sv_index[c] = records[:, :2].T
    if pos != len(data):
        raise FormatError(f"{len(data) - pos} trailing bytes", offset=pos)
    return qt, GroupingConfig(group_size=g), spec


def unpack_to_tensor(data: bytes) -> np.ndarray:
    qt, _, _ = unpack(data)
    return dequantize_tensor(qt)
