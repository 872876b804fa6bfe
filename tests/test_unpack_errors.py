"""``packfile.unpack``'s reports on damaged files, pinned.

``data/unpack_errors.json`` (written by ``unpack_error_cases.py``) holds,
per dtype, the sha256 of a 150-channel file spanning three unpack chunks
and a seeded set of single-byte corruptions, bad scales, pairs of bad
records in one chunk, truncations and trailing bytes, each with the
``FormatError`` message and byte offset it raised, or the digest of the
dequantized tensor when the file still parses.
"""

import hashlib
import json

import pytest

from bitmod.quant import CHUNK_WEIGHTS
from unpack_error_cases import (CHANNELS, CHUNK, DTYPES, GROUP, TABLE, WIDTH,
                                base_file, damage, outcome)

RECORDED = json.loads(TABLE.read_text())


@pytest.mark.parametrize("name", DTYPES)
def test_unpack_reports_match_recorded_table(name):
    # The cases were placed for chunks of CHUNK channels.
    assert CHUNK == CHUNK_WEIGHTS // (-(-WIDTH // GROUP) * GROUP)
    assert -(-CHANNELS // CHUNK) == 3
    data = base_file(name)
    assert hashlib.sha256(data).hexdigest() == RECORDED[name]["sha256"]
    fields = ("error", "offset", "sha256")
    wrong = []
    for case in RECORDED[name]["cases"]:
        want = {k: case[k] for k in fields if k in case}
        got = outcome(damage(data, case))
        if got != want:
            wrong.append((case["kind"], case["edits"], case["truncate"],
                          want, got))
    assert not wrong
