"""The benchmark's recorded GEMV outputs, checked as a unit test.

``perfbench/workloads.py``'s ``Gemv`` workload is imported read-only.  Each
``run`` multiplies the seed-0 2 x 4096 row block by one FP16 activation
vector through ``pe.group_dot`` and checks group 0 against the PE oracle,
every output row against a float64 dot product, and the output digest
against ``perfbench/reference/gemv.json``; a mismatch raises ``CheckFailed``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def gemv():
    return workloads.Gemv(seed=workloads.REFERENCE_SEED)


@pytest.mark.parametrize("name", workloads.Gemv.DTYPES)
def test_gemv_matches_recorded_digests(gemv, name):
    assert gemv.reference is not None
    for j in range(0, gemv.n_acts, 8):
        out = gemv.run((name, j))
        assert out["sha256"] == gemv.reference[name][j]
