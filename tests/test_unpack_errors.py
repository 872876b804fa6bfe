"""``packfile.unpack``'s reports on damaged files, pinned.

Each table of ``unpack_error_cases.FILE_SETS`` (written by
``unpack_error_cases.py``) holds, per dtype, the sha256 of a file of
ragged channels and a seeded set of single-byte corruptions, bad scales,
pairs of bad records in one chunk, truncations and trailing bytes, each
with the ``FormatError`` message and byte offset it raised, or the digest
of the dequantized tensor when the file still parses.  The 600-channel
file spans three read chunks, the last one partial; the 150-channel one
fits in one.  ``unpack_to_tensor`` replays the same tables.
"""

import hashlib
import json

import numpy as np
import pytest

from bitmod.errors import FormatError, OutOfRange
from bitmod.packfile import READ_CHUNK_WEIGHTS, unpack, unpack_to_tensor
from bitmod.quant import dequantize_tensor
from unpack_error_cases import (DTYPES, FILE_SETS, GROUP, WIDTH, base_file,
                                damage, outcome)

OLD, READ = FILE_SETS
READ_CHUNK = READ_CHUNK_WEIGHTS // (-(-WIDTH // GROUP) * GROUP)


def wrong_outcomes(fs, name):
    """The recorded cases of ``fs`` and ``name`` whose outcome differs."""
    recorded = json.loads(fs.table.read_text())[name]
    data = base_file(name, fs)
    assert hashlib.sha256(data).hexdigest() == recorded["sha256"]
    fields = ("error", "offset", "sha256")
    wrong = []
    for case in recorded["cases"]:
        want = {k: case[k] for k in fields if k in case}
        got = outcome(damage(data, case))
        if got != want:
            wrong.append((case["kind"], case["edits"], case["truncate"],
                          want, got))
    return wrong


@pytest.mark.parametrize("name", DTYPES)
def test_unpack_reports_match_recorded_table(name):
    # The cases were placed for chunks of 64 channels, within one read chunk.
    assert OLD.channels <= READ_CHUNK
    assert not wrong_outcomes(OLD, name)


@pytest.mark.parametrize("name", DTYPES)
def test_unpack_reports_across_read_chunks_match_recorded_table(name):
    # The cases were placed for read chunks: three, the last one partial.
    assert READ.chunk == READ_CHUNK
    assert -(-READ.channels // READ.chunk) == 3
    assert READ.channels % READ.chunk
    assert not wrong_outcomes(READ, name)


def wrong_tensor_outcomes(fs, name):
    """The recorded cases of ``fs`` and ``name`` on which
    ``unpack_to_tensor`` does not raise the recorded ``FormatError`` or, for
    a file that parses, does not give the float32 bytes of ``unpack``'s
    dequantized tensor; where float32 cannot hold one of its weights, it
    must raise ``OutOfRange`` instead."""
    recorded = json.loads(fs.table.read_text())[name]
    data = base_file(name, fs)
    wrong = []
    for case in recorded["cases"]:
        damaged = damage(data, case)
        if case["error"] is None:
            with np.errstate(over="ignore"):  # the overflow is the finding
                want = dequantize_tensor(unpack(damaged)[0]).astype(np.float32)
            want = OutOfRange if np.isinf(want).any() else want.tobytes()
        else:
            want = {"error": case["error"], "offset": case["offset"]}
        try:
            got = unpack_to_tensor(damaged).tobytes()
        except FormatError as exc:
            got = {"error": str(exc), "offset": exc.offset}
        except OutOfRange:
            got = OutOfRange
        if got != want:
            wrong.append((case["kind"], case["edits"], case["truncate"],
                          want if isinstance(want, dict) else "parses"))
    return wrong


@pytest.mark.parametrize("name", DTYPES)
@pytest.mark.parametrize("fs", FILE_SETS, ids=lambda fs: fs.table.stem)
def test_unpack_to_tensor_matches_recorded_tables(fs, name):
    assert not wrong_tensor_outcomes(fs, name)
