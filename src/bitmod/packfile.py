"""Packed quantized-tensor file (BMOD format).

Little-endian layout:

    magic "BMOD" (4 bytes), version u16 = 1, dtype id u16,
    K u32 (output channels), D u32 (channel size), G u32 (group size);
    per channel:  channel_scale f32;
      per group (ceil(D / G) records):
                  scale_q u8, sv_index u8,
                  codes bit-packed LSB-first at bits_per_code bits each,
                  padded to a byte boundary.

``pack`` writes, and ``unpack`` reads and checks, each channel's group
records as one (n_groups, record) uint8 block.

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
from .quant import ChannelQuantization, dequantize_tensor

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


def pack(channels: list[ChannelQuantization], grouping: GroupingConfig,
         channel_size: int) -> bytes:
    """Serialize quantized channels (all sharing one dtype) to BMOD bytes."""
    if not channels:
        raise ValueError("no channels to pack")
    spec = channels[0].dtype
    if spec.asymmetric:
        raise UnsupportedDtype(f"{spec.name} has a zero-point; not packable")
    out = bytearray()
    out += _HEADER.pack(MAGIC, VERSION, spec.name.value, len(channels),
                        channel_size, grouping.group_size)
    for cq in channels:
        out += struct.pack("<f", cq.channel_scale)
        meta = np.stack([cq.scale_q, cq.sv_index & 0x3], axis=1)
        out += np.concatenate([meta.astype(np.uint8),
                               _pack_codes(cq.codes, spec)], axis=1).tobytes()
    return bytes(out)


def unpack(data: bytes):
    """Parse BMOD bytes back into (channels, grouping, spec)."""
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
    channels = []
    for _ in range(k):
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
        channels.append(ChannelQuantization(
            codes=codes, sv_index=records[:, 1].astype(np.int64),
            scale_q=records[:, 0].astype(np.int64), delta=None,
            channel_scale=channel_scale, dtype=spec, valid_size=d,
        ))
    if pos != len(data):
        raise FormatError(f"{len(data) - pos} trailing bytes", offset=pos)
    return channels, GroupingConfig(group_size=g), spec


def unpack_to_tensor(data: bytes) -> np.ndarray:
    channels, _, _ = unpack(data)
    return dequantize_tensor(channels)
