import numpy as np
import pytest

from bitmod import _kernels
from bitmod.pe import decode_fp16

# 132000 quads of four term slots at one significance, weight +-8 in every
# lane: 528000 cycles whose sum passes 2^32 once, so the accumulator carries
# out of bit 31 and renormalizes by one RNE shift.  Full-scale lanes give
# trees that are multiples of 4; lanes of unequal mantissas give odd ones,
# whose carry drops a half that rounds the kept bits up.
CARRY_QUADS = 132000


@pytest.mark.parametrize(("sign", "lanes", "want"), [
    (1, [65504] * 4, (2161632000, 9)),
    (-1, [65504] * 4, (-2161632000, 9)),
    (1, [65504, 65504, 65504, 65472], (2161369696, 9)),
    (-1, [65504, 65408, 65504, 65504], (-2160838368, 9))])
def test_run_group_dot_carry_past_bit_31(sign, lanes, want):
    w = np.full((4, CARRY_QUADS, 4), sign * 8.0)
    a = decode_fp16(np.tile(np.array(lanes, dtype=np.float64), CARRY_QUADS))
    # ``want`` was recorded from tests/pe_oracle.group_dot on the same
    # operands.
    assert _kernels.run_group_dot(w, a) == want
