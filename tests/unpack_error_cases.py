#!/usr/bin/env python3
"""Seeded damaged BMOD files and what ``packfile.unpack`` reports for them.

    PYTHONPATH=src python tests/unpack_error_cases.py

writes one table per file set in ``FILE_SETS``: for FP3_BITMOD,
FP3_BASIC and INT6_SYM files of ragged channels, each case's edits and the
``FormatError`` message and offset it raised, or the sha256 of the float64
dequantized tensor when the damaged file still parses.
``test_unpack_errors.py`` replays the tables.  Re-recording changes what
counts as correct, so do it only where the error contract changes.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path
from typing import NamedTuple

import numpy as np

from bitmod import packfile, synth
from bitmod.dtype import GroupingConfig, spec_for
from bitmod.errors import FormatError
from bitmod.quant import dequantize_tensor, quantize_tensor

DATA = Path(__file__).resolve().parent / "data"
DTYPES = ("FP3_BITMOD", "FP3_BASIC", "INT6_SYM")
# 4 groups of 64 per 200-weight channel, 256 weights padded.
WIDTH, GROUP = 200, 64
HEADER = 20


class FileSet(NamedTuple):
    table: Path
    channels: int
    chunk: int  # the channels per chunk its cases were placed for
    seed: int  # of the files; seed + 1 is that of the cases


FILE_SETS = (
    # Chunks of 64, 64 and 22 channels, ``CHUNK_WEIGHTS`` weights each.
    # The file is one read chunk, so these chunk-boundary cases cross no
    # read-chunk boundary; they stay as recorded.
    FileSet(DATA / "unpack_errors.json", 150, 64, 15),
    # Read chunks of 256, 256 and 88 channels.
    FileSet(DATA / "unpack_errors_read_chunks.json", 600, 256, 17),
)


def base_file(name: str, fs: FileSet) -> bytes:
    spec = spec_for(name)
    grouping = GroupingConfig(group_size=GROUP)
    w = synth.sample("outlier_mixture", (fs.channels, WIDTH),
                     rng=np.random.default_rng([fs.seed, DTYPES.index(name)]))
    return packfile.pack(quantize_tensor(w, spec, grouping), grouping, WIDTH)


def damage(data: bytes, case: dict) -> bytes:
    buf = bytearray(data)
    for at, byte in case["edits"]:
        buf[at] = byte
    if case["truncate"] is not None:
        del buf[case["truncate"]:]
    return bytes(buf) + bytes.fromhex(case["append"])


def outcome(data: bytes) -> dict:
    try:
        qt, _, _ = packfile.unpack(data)
    except FormatError as exc:
        return {"error": str(exc), "offset": exc.offset}
    digest = hashlib.sha256(dequantize_tensor(qt).tobytes()).hexdigest()
    return {"error": None, "sha256": digest}


def cases(name: str, size: int, fs: FileSet) -> list[dict]:
    """The edits of every case for a ``size``-byte file of dtype ``name``
    in file set ``fs``."""
    spec = spec_for(name)
    rec = packfile.group_record_bytes(spec, GROUP)
    n_groups = -(-WIDTH // GROUP)
    chan = 4 + n_groups * rec
    n_sv = max(1, len(spec.special_values))
    rng = np.random.default_rng([fs.seed + 1, DTYPES.index(name)])

    def pick(lo, hi):
        return int(rng.integers(lo, hi))

    def scale_at(c):
        return HEADER + c * chan

    def record_at(c, r):
        return scale_at(c) + 4 + r * rec

    def bad_sv(c):
        return [record_at(c, pick(0, n_groups)) + 1, pick(n_sv, 256)]

    def bad_scale(c, value):
        at = scale_at(c)
        return [[at + i, b] for i, b in enumerate(struct.pack("<f", value))]

    out = []

    def add(kind, edits=(), truncate=None, append=""):
        out.append({"kind": kind, "edits": [list(e) for e in edits],
                    "truncate": truncate, "append": append})

    for _ in range(4):
        add("header-byte", [[pick(0, HEADER), pick(0, 256)]])
    for _ in range(20):
        add("body-byte", [[pick(HEADER, size), pick(0, 256)]])
    for _ in range(8):
        c, r = pick(0, fs.channels), pick(0, n_groups)
        add("sv-byte", [[record_at(c, r) + 1, pick(0, 256)]])
    for _ in range(10):
        at = record_at(pick(0, fs.channels), pick(0, n_groups)) + 2
        add("code-byte", [[at + pick(0, rec - 2), pick(0, 256)]])
    for value in (float("nan"), float("inf"), float("-inf")):
        add("scale", bad_scale(pick(0, fs.channels), value))
    for _ in range(3):
        add("scale-top-byte", [[scale_at(pick(0, fs.channels)) + 3,
                                pick(0, 256)]])
    # Two bad records in two channels of one chunk, the later one edited
    # first; then a bad scale after, and in the same channel as, a bad
    # record.
    for chunk in range(-(-fs.channels // fs.chunk)):
        lo, hi = chunk * fs.chunk, min(fs.channels, (chunk + 1) * fs.chunk)
        first, second = sorted(rng.choice(np.arange(lo, hi), 2, replace=False))
        add("two-channels-one-chunk", [bad_sv(int(second)), bad_sv(int(first))])
    c = pick(0, fs.chunk - 1)
    add("bad-record-then-bad-scale",
        [bad_sv(c), *bad_scale(c + 1 + pick(0, 3), float("nan"))])
    add("bad-scale-and-record-one-channel",
        [bad_sv(c), *bad_scale(c, float("inf"))])
    # A first code of 7 (FP3_BASIC) or -32 (INT6_SYM): off the grid.
    off_grid = {"FP3_BASIC": 0x07, "INT6_SYM": 0x20}.get(name)
    if off_grid is not None:
        c, r = pick(0, fs.channels - 1), pick(0, n_groups - 1)
        add("bad-code-then-bad-sv", [[record_at(c, r + 1) + 1, n_sv],
                                     [record_at(c, r) + 2, off_grid]])
        add("bad-sv-and-code-one-record", [[record_at(c, r) + 2, off_grid],
                                           [record_at(c, r) + 1, n_sv]])
        c = fs.chunk + pick(0, fs.chunk - 1)
        add("bad-codes-two-channels-one-chunk",
            [[record_at(c + 1, 0) + 2, off_grid],
             [record_at(c, n_groups - 1) + 2, off_grid]])
    for _ in range(8):
        add("truncate", truncate=pick(HEADER, size))
    for c in (fs.chunk, 2 * fs.chunk, fs.channels - 1):
        add("truncate-at-channel", truncate=scale_at(c))
        add("truncate-in-scale", truncate=scale_at(c) + 2)
    for _ in range(3):
        c = pick(0, fs.channels)
        add("bad-record-and-truncate", [bad_sv(c)],
            truncate=pick(HEADER, size))
    add("trailing-bytes", append="00ff00")
    return out


def record(fs: FileSet) -> dict:
    table = {}
    for name in DTYPES:
        data = base_file(name, fs)
        rows = cases(name, len(data), fs)
        for case in rows:
            case.update(outcome(damage(data, case)))
        table[name] = {"sha256": hashlib.sha256(data).hexdigest(),
                       "cases": rows}
    return table


def dumps(table: dict) -> str:
    """JSON with one case per line, so a re-recording diffs case by case."""
    blocks = []
    for name, t in table.items():
        rows = ",\n".join("   " + json.dumps(case) for case in t["cases"])
        blocks.append(f' {json.dumps(name)}: {{"sha256": '
                      f'{json.dumps(t["sha256"])}, "cases": [\n{rows}\n ]}}')
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for fs in FILE_SETS:
        fs.table.write_text(dumps(record(fs)))
        print(f"wrote {fs.table}")
