"""Packed quantized-tensor file (BMOD format).

Little-endian layout:

    magic "BMOD" (4 bytes), version u16 = 1, dtype id u16,
    K u32 (output channels), D u32 (channel size), G u32 (group size);
    per channel:  channel_scale f32;
      per group:  scale_q u8, sv_index u8,
                  codes bit-packed LSB-first at bits_per_code bits each,
                  padded to a byte boundary.

Asymmetric INT types carry a zero-point the format has no field for; they
are software baselines, so ``pack`` refuses them and ``unpack`` rejects
their dtype ids.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .dtype import DataType, DataTypeSpec, GroupingConfig, spec_for
from .errors import FormatError, UnsupportedDtype
from .quant import ChannelQuantization, QuantizedGroup, dequantize_tensor

MAGIC = b"BMOD"
VERSION = 1

_HEADER = struct.Struct("<4sHHIII")


def _code_to_stored(code: int, spec: DataTypeSpec) -> int:
    if spec.is_fp:
        return code
    return code & ((1 << spec.bits_per_code) - 1)  # two's complement


def _stored_to_code(raw: int, spec: DataTypeSpec) -> int:
    if spec.is_fp:
        return raw
    sign_bit = 1 << (spec.bits_per_code - 1)
    return raw - (1 << spec.bits_per_code) if raw & sign_bit else raw


def _pack_codes(codes, spec: DataTypeSpec) -> bytes:
    bits = spec.bits_per_code
    acc = 0
    nbits = 0
    out = bytearray()
    for code in codes:
        acc |= _code_to_stored(int(code), spec) << nbits
        nbits += bits
        while nbits >= 8:
            out.append(acc & 0xFF)
            acc >>= 8
            nbits -= 8
    if nbits:
        out.append(acc & 0xFF)
    return bytes(out)


def _unpack_codes(raw: bytes, count: int, spec: DataTypeSpec) -> np.ndarray:
    bits = spec.bits_per_code
    mask = (1 << bits) - 1
    acc = int.from_bytes(raw, "little")
    codes = np.empty(count, dtype=np.int64)
    for i in range(count):
        codes[i] = _stored_to_code((acc >> (i * bits)) & mask, spec)
    return codes


def _code_range(spec: DataTypeSpec) -> tuple[int, int]:
    """Lowest and highest code a dtype stores; other bit patterns are invalid."""
    if spec.is_fp:
        return 0, len(spec.grids[0]) - 1
    qmax = (1 << (spec.bits_per_code - 1)) - 1
    return -qmax, qmax


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
        for qg in cq.groups:
            out += struct.pack("<BB", qg.scale_q, qg.sv_index & 0x3)
            out += _pack_codes(qg.codes, spec)
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
    if g == 0:
        raise FormatError("group size 0", offset=16)
    grouping = GroupingConfig(group_size=g, channel_size=d, out_channels=k)
    groups_per_channel = grouping.groups_per_channel()
    rec = group_record_bytes(spec, g)
    n_sv = max(1, len(spec.special_values))
    lo, hi = _code_range(spec)
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
        groups = []
        for _ in range(groups_per_channel):
            if pos + rec > len(data):
                raise FormatError("truncated group record", offset=pos)
            scale_q, sv_index = struct.unpack_from("<BB", data, pos)
            if sv_index >= n_sv:
                raise FormatError(f"sv_index {sv_index} out of range for "
                                  f"{spec.name}", offset=pos + 1)
            codes = _unpack_codes(data[pos + 2:pos + rec], g, spec)
            if check_codes and (codes.min() < lo or codes.max() > hi):
                i = int(np.flatnonzero((codes < lo) | (codes > hi))[0])
                raise FormatError(f"code {codes[i]} out of range for "
                                  f"{spec.name}",
                                  offset=pos + 2 + i * spec.bits_per_code // 8)
            groups.append(QuantizedGroup(codes=codes, sv_index=sv_index,
                                         scale_q=scale_q))
            pos += rec
        channels.append(ChannelQuantization(
            groups=groups, channel_scale=channel_scale, dtype=spec,
            valid_size=d,
        ))
    if pos != len(data):
        raise FormatError(f"{len(data) - pos} trailing bytes", offset=pos)
    return channels, grouping, spec


def unpack_to_tensor(data: bytes) -> np.ndarray:
    channels, _, _ = unpack(data)
    return dequantize_tensor(channels)
