"""The bit-serial PE inner loop, in plain Python integers.

All arithmetic is integer:

* lane product = 11-bit activation mantissa x 1-bit weight mantissa,
* alignment right-shift to the max lane exponent with round-to-nearest-even
  (the 3 guard bits of the hardware shifter preserve exact RNE),
* 4-lane signed adder tree,
* accumulation at the larger exponent with RNE alignment of the smaller
  operand, then renormalization keeping the leading set bit of the 32-bit
  accumulator mantissa in bit window [24, 31].

Weights arrive as :class:`bitmod.bitserial.BitSerialTerm` objects and
activations as :class:`bitmod.pe.Fp16Operand` objects; only their fields are
read.  Activation scale convention: an FP16 operand with biased exponent a_e
and 11-bit mantissa a_m (hidden bit included) has value a_m * 2^(a_e - 25).
"""


def rne_rshift(p: int, s: int) -> int:
    """Round p / 2**s to the nearest integer, ties to even (p >= 0)."""
    if s <= 0:
        return p << (-s)
    q = p >> s
    rem = p - (q << s)
    half = 1 << (s - 1)
    if rem > half:
        q += 1
    elif rem == half:
        q += q & 1
    return q


def rne_rshift_signed(m: int, s: int) -> int:
    if m < 0:
        return -rne_rshift(-m, s)
    return rne_rshift(m, s)


def normalize(m: int, e: int):
    """Keep the accumulator's leading set bit inside [24, 31]."""
    if m == 0:
        return 0, 0
    k = abs(m).bit_length() - 1
    if k > 31:
        m = rne_rshift_signed(m, k - 31)
        e += k - 31
        if abs(m).bit_length() - 1 > 31:  # rounding carried out
            m = rne_rshift_signed(m, 1)
            e += 1
    elif k < 24:
        m <<= 24 - k
        e -= 24 - k
    return m, e


def pe_cycle_core(m_acc: int, e_acc: int, terms, acts):
    """One PE cycle: 4-way dot of bit-serial terms and FP16 activations.

    ``terms`` and ``acts`` hold one entry per lane; the terms share one
    bit-significance.  Returns the updated (m_acc, e_acc).
    """
    max_e = None
    prods = []
    for w, a in zip(terms, acts):
        if w.man and a.a_m:
            lane_e = a.a_e + w.exp
            prods.append((w.sign ^ a.sign, a.a_m, lane_e))
            if max_e is None or lane_e > max_e:
                max_e = lane_e
    if not prods:
        return m_acc, e_acc
    tree = 0
    for negative, p, lane_e in prods:
        mant = rne_rshift(p, max_e - lane_e)
        if negative:
            tree -= mant
        else:
            tree += mant
    if tree == 0:
        return m_acc, e_acc
    e_t = max_e + terms[0].bsig - 25
    if m_acc == 0:
        return normalize(tree, e_t)
    if e_acc >= e_t:
        return normalize(m_acc + rne_rshift_signed(tree, e_acc - e_t), e_acc)
    return normalize(rne_rshift_signed(m_acc, e_t - e_acc) + tree, e_t)


def run_group_dot(terms, acts, terms_per_code: int):
    """Full group dot product, before dequantization.

    ``terms[i]`` is the term list of weight i (``terms_per_code`` entries)
    and ``acts[i]`` its activation.  Each group of 4 weights takes one cycle
    per term slot.  Returns the accumulator (m_acc, e_acc).
    """
    m_acc, e_acc = 0, 0
    for j in range(0, len(terms), 4):
        lane_terms = terms[j:j + 4]
        lane_acts = acts[j:j + 4]
        for t in range(terms_per_code):
            m_acc, e_acc = pe_cycle_core(
                m_acc, e_acc, [w[t] for w in lane_terms], lane_acts)
    return m_acc, e_acc


def dequant_shift_add(m_acc: int, scale_q: int) -> int:
    """8-step shift-and-add multiply by the unsigned 8-bit group scale."""
    out = 0
    for i in range(8):
        if (scale_q >> i) & 1:
            out += m_acc << i
    return out
