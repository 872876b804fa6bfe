"""The bit-serial PE kernel: an exact float64 numpy lane stage and a
Python-int accumulator.

Per cycle the hardware computes

* lane product = 11-bit activation mantissa x 1-bit weight mantissa,
* alignment right-shift to the max lane exponent with round-to-nearest-even
  (the 3 guard bits of the hardware shifter preserve exact RNE),
* 4-lane signed adder tree,
* accumulation at the larger exponent with RNE alignment of the smaller
  operand, then renormalization keeping the leading set bit of the 32-bit
  accumulator mantissa in bit window [24, 31].  Both of these shifts, by
  ``s >= 1`` bits, round half to even by one formula (``>>`` floors):
  ``(x + (1 << (s - 1)) - 1 + ((x >> s) & 1)) >> s`` rounds up when the
  dropped bits are above the half, or at it with the kept low bit set.

The lane stage of every cycle of a group runs at once in float64, and
every step of it is exact.  An activation operand from
:func:`bitmod.pe.decode_fp16` is ``(-1)^s * a_m * 2^a_e``: 11 significant
bits, below 2^41.  A term value from :func:`bitmod.bitserial.term_table`
is its full value, 0 or +-2^k with -1 <= k <= 7.  Their product has at
most 11 significant bits and is below 2^48, so it is exact, and
``np.frexp`` reads its exponent ``a_e + k + 11`` (0 for a dead lane, at
least 11 for a live one, so a dead lane never sets a cycle's max).
Scaling a lane by a power of two to the max exponent of its cycle is
exact, and ``np.rint`` rounds half to even, so the aligned lanes are the
hardware's RNE shifts bit for bit; their sum is below 2^13.  Activation
scale convention: the operand ``a_m * 2^a_e`` has value
``a_m * 2^(a_e - 25)``, so a tree aligned to max exponent ``max_e`` has
exponent ``max_e - 11 - 25``.
"""

import numpy as np


def run_group_dot(w, a):
    """Group dot product before dequantization.

    ``w`` holds the group's term values lane-major, shape ``(4, G/4, T)``:
    lane ``l`` of quad ``q`` is weight ``4q + l``.  ``a`` holds the G
    activation operands.
    Each quad takes one cycle per term slot, in quad-major, slot-minor
    order.  The lane stage of every cycle runs at once; only the
    accumulation is sequential.  Returns the accumulator (m_acc, e_acc).
    """
    v = a.reshape(-1, len(w)).T[:, :, None] * w
    max_e = np.frexp(v)[1].max(axis=0)
    tree = np.rint(np.ldexp(v, 11 - max_e)).sum(axis=0)
    e_tree = max_e - 36
    m_acc = e_acc = 0
    for tree_m, e_t in zip(tree.astype(np.int64).ravel().tolist(),
                           e_tree.ravel().tolist()):
        if tree_m == 0:
            continue
        if m_acc == 0:
            m_acc, e_acc = tree_m, e_t
        else:
            # Align the operand at the smaller exponent with RNE, then add.
            if e_acc >= e_t:
                s, x = e_acc - e_t, tree_m
            else:
                s, x, m_acc, e_acc = e_t - e_acc, m_acc, tree_m, e_t
            if s:
                x = (x + (1 << (s - 1)) - 1 + ((x >> s) & 1)) >> s
            m_acc += x
        # Renormalize.  A sum adds a tree, below 2^13, to an accumulator
        # below 2^32, so it carries at most one bit past bit 31, and its
        # RNE shift by 1 cannot carry again.
        k = m_acc.bit_length()
        if k > 32:
            m_acc = (m_acc + ((m_acc >> 1) & 1)) >> 1
            e_acc += 1
        elif k < 25 and m_acc:
            m_acc <<= 25 - k
            e_acc -= 25 - k
    return (m_acc, e_acc) if m_acc else (0, 0)
