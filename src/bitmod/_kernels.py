"""The bit-serial PE kernel: an exact float64 numpy lane stage and a
Python-int accumulator.

Per cycle the hardware computes

* lane product = 11-bit activation mantissa x 1-bit weight mantissa,
* alignment right-shift to the max lane exponent with round-to-nearest-even
  (the 3 guard bits of the hardware shifter preserve exact RNE),
* 4-lane signed adder tree,
* accumulation at the larger exponent with RNE alignment of the smaller
  operand, then renormalization keeping the leading set bit of the 32-bit
  accumulator mantissa in bit window [24, 31].

The lane stage of every cycle of a group runs at once in float64, and
every step of it is exact.  An activation operand from
:func:`bitmod.pe.decode_fp16` is ``(-1)^s * a_m * 2^a_e``: 11 significant
bits, below 2^41.  A term value from :class:`bitmod.bitserial.Terms` is 0
or +-2^exp with exp <= 3.  Their product has at most 11 significant bits
and is below 2^44, so it is exact, and ``np.frexp`` reads its exponent
``a_e + exp + 11`` (0 for a dead lane, at least 12 for a live one).
Scaling a lane by a power of two to the max exponent of its cycle is
exact, and ``np.rint`` rounds half to even, so the aligned lanes are the
hardware's RNE shifts bit for bit; their sum is below 2^13.  Activation
scale convention: the operand ``a_m * 2^a_e`` has value
``a_m * 2^(a_e - 25)``.
"""

import numpy as np


def rne_rshift(m: int, s: int) -> int:
    """Round m / 2**s to the nearest integer, ties to even.

    The flooring shift makes this exact for either sign of m, and
    ties-to-even is symmetric, so it equals -rne_rshift(-m, s).
    """
    if s <= 0:
        return m << (-s)
    q = m >> s
    rem = m - (q << s)
    half = 1 << (s - 1)
    if rem > half or (rem == half and q & 1):
        q += 1
    return q


def normalize(m: int, e: int):
    """Keep the accumulator's leading set bit inside [24, 31]."""
    if m == 0:
        return 0, 0
    k = m.bit_length() - 1
    if k > 31:
        m = rne_rshift(m, k - 31)
        e += k - 31
        if m.bit_length() - 1 > 31:  # rounding carried out
            m = rne_rshift(m, 1)
            e += 1
    elif k < 24:
        m <<= 24 - k
        e -= 24 - k
    return m, e


def run_group_dot(w, bsig, a):
    """Group dot product before dequantization.

    ``w`` holds the group's term values lane-major, shape ``(4, G/4, T)``:
    lane ``l`` of quad ``q`` is weight ``4q + l``.  ``bsig`` is the per-slot
    significance, shape ``(T,)``, and ``a`` the G activation operands.
    Each quad takes one cycle per term slot, in quad-major, slot-minor
    order.  The lane stage of every cycle runs at once; only the
    accumulation is sequential.  Returns the accumulator (m_acc, e_acc).
    """
    v = a.reshape(-1, 4).T[:, :, None] * w
    max_e = np.frexp(v)[1].max(axis=0)
    tree = np.rint(np.ldexp(v, 11 - max_e)).sum(axis=0)
    e_tree = max_e + (bsig - 36)
    m_acc = e_acc = 0
    for tree_m, e_t in zip(tree.astype(np.int64).ravel().tolist(),
                           e_tree.ravel().tolist()):
        if tree_m == 0:
            continue
        if m_acc == 0:
            m_acc, e_acc = tree_m, e_t
        else:
            # Align the operand at the smaller exponent with RNE
            # (rne_rshift, inline), then add.
            if e_acc >= e_t:
                s, x = e_acc - e_t, tree_m
            else:
                s, x, m_acc, e_acc = e_t - e_acc, m_acc, tree_m, e_t
            if s:
                q = x >> s
                rem = x - (q << s)
                half = 1 << (s - 1)
                if rem > half or (rem == half and q & 1):
                    q += 1
                x = q
            m_acc += x
        # normalize, inline except when a carry passes bit 31.
        k = m_acc.bit_length()
        if k > 32:
            m_acc, e_acc = normalize(m_acc, e_acc)
        elif k < 25 and m_acc:
            m_acc <<= 25 - k
            e_acc -= 25 - k
    return (m_acc, e_acc) if m_acc else (0, 0)  # as normalize(0, e) reads
