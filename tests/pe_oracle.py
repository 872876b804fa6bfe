"""Straight-line reference model of the bit-serial PE.

Written independently of ``bitmod.pe`` and ``bitmod._kernels`` against the
documented numeric model.  It is deliberately naive: table-driven Booth
recoding, guard/round/sticky rounding, and plain tuples for state, so that
bit-identical agreement with the production kernels is a meaningful check
rather than the same code run twice.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

import numpy as np

ACT_SHIFT = 25  # activation value = a_m * 2^(a_e - 25)

# Classic radix-4 Booth table indexed by the 3-bit window
# (b_{2i+1}, b_{2i}, b_{2i-1}).
BOOTH_TABLE = {0: 0, 1: 1, 2: 1, 3: 2, 4: -2, 5: -1, 6: -1, 7: 0}


@cache
def booth_terms(value: int, n_terms: int):
    """Radix-4 Booth recoding into a tuple of (sign, exp, man, bsig) tuples;
    cached, and a tuple so that no caller can change a cached result."""
    width = 2 * n_terms + 1
    field = value & ((1 << width) - 1)  # two's complement at full width
    shifted = field << 1                # makes the b_{-1}=0 slot explicit
    out = []
    for i in range(n_terms):
        digit = BOOTH_TABLE[(shifted >> (2 * i)) & 7]
        if digit == 0:
            out.append((0, 0, 0, 2 * i))
        else:
            out.append((1 if digit < 0 else 0,
                        1 if abs(digit) == 2 else 0,
                        1, 2 * i))
    return tuple(out)


@cache
def fp_terms(value):
    """Two-term split of an FP grid value via leading-one detection, as a
    tuple of two (sign, exp, man, bsig) tuples; cached like booth_terms.

    ``value`` is the already-resolved grid value (the special value when the
    -0 pattern is active).  Magnitude is expressed in 0.5 units; window one
    covers the four integer bits at bsig 0, window two the low three integer
    bits plus the fraction bit at bsig -1.
    """
    v = Fraction(value)
    sign = 1 if v < 0 else 0
    mag2 = abs(v) * 2
    if mag2.denominator != 1 or mag2 > 31:
        raise ValueError(f"{value} not representable in fixed point")
    mh = int(mag2)
    out = []
    int_bits = mh & 0b11110
    if int_bits:
        lead = int_bits.bit_length() - 1
        out.append((sign, lead - 1, 1, 0))
        mh ^= 1 << lead
    else:
        out.append((0, 0, 0, 0))
    low = mh & 0b01111
    if low:
        lead = low.bit_length() - 1
        out.append((sign, lead, 1, -1))
        mh ^= 1 << lead
    else:
        out.append((0, 0, 0, -1))
    if mh:
        raise ValueError(f"{value} needs more than two set bits")
    return tuple(out)


def fp16_operand(x):
    """(sign, a_e, a_m) of an FP16 activation; subnormals flush to zero."""
    h = float(np.float16(x))
    if math.isnan(h) or math.isinf(h):
        raise ValueError("non-finite activation")
    if abs(h) < 2.0 ** -14:  # zero or subnormal
        return (0, 0, 0)
    frac, e = math.frexp(abs(h))
    return (1 if h < 0 else 0, e + 14, int(frac * 2048))


def rne(p: int, s: int) -> int:
    """Guard/round/sticky round-to-nearest-even of p / 2**s, p >= 0."""
    if s <= 0:
        return p << -s
    q = p >> s
    low = p & ((1 << s) - 1)
    round_bit = low >> (s - 1)
    sticky = low & ((1 << (s - 1)) - 1)
    if round_bit and (sticky or q & 1):
        q += 1
    return q


def srne(m: int, s: int) -> int:
    return -rne(-m, s) if m < 0 else rne(m, s)


def normalize(m: int, e: int):
    if m == 0:
        return (0, 0)
    k = abs(m).bit_length() - 1
    if k > 31:
        m = srne(m, k - 31)
        e += k - 31
        if abs(m).bit_length() > 32:
            m = srne(m, 1)
            e += 1
        return (m, e)
    if k < 24:
        return (m << (24 - k), e - (24 - k))
    return (m, e)


def cycle(state, terms4, acts4):
    """One PE cycle over 4 lanes; lanes with a zero factor are inactive."""
    m_acc, e_acc = state
    active = []
    for (w_s, w_e, w_m, _), (a_s, a_e, a_m) in zip(terms4, acts4):
        if w_m and a_m:
            active.append((w_s ^ a_s, a_e + w_e, a_m))
    if not active:
        return state
    e_max = max(e for _, e, _ in active)
    tree = 0
    for s, e, p in active:
        v = rne(p, e_max - e)
        tree += -v if s else v
    if tree == 0:
        return state
    e_t = e_max + terms4[0][3] - ACT_SHIFT
    if m_acc == 0:
        return normalize(tree, e_t)
    if e_acc >= e_t:
        return normalize(m_acc + srne(tree, e_acc - e_t), e_acc)
    return normalize(srne(m_acc, e_t - e_acc) + tree, e_t)


def group_dot(weight_terms, acts, group_size: int, terms_per_code: int):
    """Accumulate a full group: lane batches outer, term slots inner.

    ``weight_terms`` holds one term list per weight; ``acts`` one
    (sign, a_e, a_m) triple per weight.
    """
    state = (0, 0)
    for j in range(0, group_size, 4):
        for t in range(terms_per_code):
            terms4 = [weight_terms[j + lane][t] for lane in range(4)]
            acts4 = [acts[j + lane] for lane in range(4)]
            state = cycle(state, terms4, acts4)
    return state


def dequant(state, scale_q: int):
    m, e = state
    return (m * scale_q, e)


def to_float(pair) -> float:
    return math.ldexp(pair[0], pair[1])
