"""The benchmark's recorded round-trip outputs, checked as a unit test.

``perfbench/workloads.py``'s ``Roundtrip`` workload is imported read-only.
Each ``run`` quantizes one seed-0 16 x 4096 FP3_BITMOD block, packs,
unpacks and dequantizes it, checks that the two dequantizations agree and
that repacking gives the same bytes, and compares the BMOD sha256 and the
error report against ``perfbench/reference/roundtrip.json``; a mismatch
raises ``CheckFailed``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

BLOCKS = range(0, 256, 32)  # 8 of the 256 blocks, spread over the tensor


@pytest.fixture(scope="module")
def roundtrip():
    return workloads.Roundtrip(seed=workloads.REFERENCE_SEED)


@pytest.mark.parametrize("block", BLOCKS)
def test_roundtrip_matches_recorded_block(roundtrip, block):
    assert roundtrip.reference is not None
    assert roundtrip.run(block) == roundtrip.reference[block]
