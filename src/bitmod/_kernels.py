"""The bit-serial PE kernel: an int64 numpy lane stage and a Python-int
accumulator.

All arithmetic is integer:

* lane product = 11-bit activation mantissa x 1-bit weight mantissa,
* alignment right-shift to the max lane exponent with round-to-nearest-even
  (the 3 guard bits of the hardware shifter preserve exact RNE),
* 4-lane signed adder tree,
* accumulation at the larger exponent with RNE alignment of the smaller
  operand, then renormalization keeping the leading set bit of the 32-bit
  accumulator mantissa in bit window [24, 31].

Weights arrive as :class:`bitmod.bitserial.Terms` arrays and activations
as the field arrays of :func:`bitmod.pe.decode_fp16`.  Activation scale
convention: an FP16 operand with biased exponent a_e and 11-bit mantissa a_m
(hidden bit included) has value a_m * 2^(a_e - 25).
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


def run_group_dot(terms, acts):
    """Group dot product before dequantization.

    ``terms`` holds ``(sign, exp, man, bsig)``: int64 arrays of shape
    ``(G, T)`` and the per-slot ``bsig`` of shape ``(T,)``.  ``acts`` holds
    the ``(sign, a_e, a_m)`` int64 arrays of the G activations.  Each group
    of 4 weights takes one cycle per term slot, in quad-major, slot-minor
    order.  The lane stage of every cycle runs at once in int64; only the
    accumulation is sequential.  Returns the accumulator (m_acc, e_acc).
    """
    w_sign, w_exp, w_man, bsig = terms
    a_sign, a_e, a_m = acts
    g, t = w_man.shape
    lanes = (g // 4, 4, t)
    # Signed lane products; zero marks an inactive lane.
    p = ((a_m - 2 * a_sign * a_m)[:, None]
         * (w_man - 2 * w_sign * w_man)).reshape(lanes)
    # Live lane exponents are >= 1 (FP16 normals), so 0 never wins the max.
    lane_e = (a_e[:, None] + w_exp).reshape(lanes) * (p != 0)
    max_e = lane_e.max(axis=1)
    # Align each lane to the max exponent: p / 2**shift rounded to nearest,
    # ties to even, as (x + 2**(s-1) - 1 + lsb) >> s, where x = 2p,
    # s = shift + 1 >= 1 and lsb is bit s of x (the result's last bit).  The
    # flooring shift makes this exact for p < 0 too.
    x, s = p << 1, max_e[:, None, :] + 1 - lane_e
    aligned = (x + (1 << (s - 1)) - 1 + ((x >> s) & 1)) >> s
    tree = aligned.sum(axis=1).ravel()
    live = np.flatnonzero(tree)
    e_tree = (max_e + bsig - 25).ravel()[live]
    m_acc = e_acc = 0
    for tree_m, e_t in zip(tree[live].tolist(), e_tree.tolist()):
        if m_acc == 0:
            m_acc, e_acc = tree_m, e_t
        elif e_acc >= e_t:
            m_acc += rne_rshift(tree_m, e_acc - e_t)
        else:
            m_acc = rne_rshift(m_acc, e_t - e_acc) + tree_m
            e_acc = e_t
        m_acc, e_acc = normalize(m_acc, e_acc)
    return m_acc, e_acc

