"""The bit-serial PE kernel: an exact float64 lane stage and an exact
float64 accumulator.

Per cycle the hardware computes

* lane product = 11-bit activation mantissa x 1-bit weight mantissa,
* alignment right-shift to the max lane exponent with round-to-nearest-even
  (the 3 guard bits of the hardware shifter preserve exact RNE),
* 4-lane signed adder tree,
* accumulation at the larger exponent with RNE alignment of the smaller
  operand, then renormalization keeping the leading set bit of the 32-bit
  accumulator mantissa in bit window [24, 31].

One rounding rule serves both stages.  Round half to even to a multiple
of ``2^k`` is ``x + c - c`` with ``c = 1.5 * 2^(k+52)``: for
``|x| < 2^(k+51)`` the sum ``x + c`` lies in ``[2^(k+52), 2^(k+53))``,
where float64's spacing is ``2^k``, so the FPU's own round-to-nearest-even
rounds it onto the ``2^k`` grid; ``c`` is an even multiple of ``2^k``, so
ties go to the even multiple of ``2^k``, and subtracting ``c`` is exact.
The kernel names each grid by its ``c``: a larger ``c`` is a coarser grid,
and ``|x| * 1.5 * 2^28 < c``, a product float64 holds exactly, is
``|x| < 2^(k+24)``.

The lane stage of every cycle of a group runs at once in float64, and
every step of it is exact.  An activation operand from
:func:`bitmod.pe.decode_fp16` is ``(-1)^s * a_m * 2^a_e``, the value times
``2^OPERAND_SHIFT`` (2^25): 11 significant bits, below 2^41.  A term
value from :func:`bitmod.bitserial.term_table` is its full value, 0 or
+-2^k with -1 <= k <= 7.  (The tables also hold NaN, for a NaN or
infinite activation and for a byte that is no code; the NaN rule below
covers a group with one.  This paragraph and the next three are about a
group without.)  Their product ``v`` has at most 11 significant bits and
is below 2^48, so it is exact, and ``np.frexp`` reads its exponent
``a_e + k + 11`` (0 for a dead lane, at least 11 for a live one, so a dead
lane never sets a cycle's max).  With ``max_e`` the largest of a cycle's
four, every lane has ``|v| < 2^max_e``, and the hardware's RNE shift onto
the cycle's grid ``2^f``, ``f = max_e - 11``, is the rule above with
``cv = 1.5 * 2^(max_e + 41)``: ``v + cv`` lies in
``[2^(max_e + 41), 2^(max_e + 42))``, where the spacing is ``2^f``.  A
tree, the sum of the four rounded lanes, is an integer below 2^13 times
``2^f``, exact in float64, and ``cv`` is the ``c`` of its grid.  Trees,
their ``c`` and the accumulator stay in operand units; the returned
exponent subtracts ``OPERAND_SHIFT``.

The accumulator is a float64 value ``acc = m * 2^e`` with ``|m| < 2^33``,
so float64 holds it exactly, and every sum of two values on one grid
``2^k`` below ``2^(k+33)`` is exact too.  Its grid ``e`` is the grid of
its last rounding, or finer where the hardware's renormalization shifts
the mantissa left to keep 25 bits: ``e = min(e_last, ilog2|acc| - 24)``.
A tree of 0 leaves it as it is.

Fast path: ``|acc| < 2^(f+24)`` puts the accumulator's grid below the
tree's, so the step rounds ``acc`` onto ``2^f`` and adds ``t``; the sum
stays below ``2^(f+25)``, far from a carry past bit 31, and the grid
rule above replaces the renormalization.  That is about 99.9% of the
steps of a 128-weight group.  Any other step takes the general path: it
rounds both operands onto the larger of the two grids (one of them is on
it already), adds them, and rounds the sum onto the next grid up when it
carries past bit 31, which cannot carry again.

NaN rule: :func:`run_group_dot` raises ``ValueError`` when its accumulator
ends NaN, and that happens exactly when some operand or term was NaN.
Without one, every value above is finite, so the accumulator is too.
With one:

* its lane product is NaN, since NaN times anything, 0 included, is NaN;
  ``np.frexp`` gives NaN the exponent 0, so the cycle's ``cv`` stays
  finite, the lane stays NaN through ``+ cv - cv``, and the cycle's tree,
  a sum with a NaN term, is NaN;
* a NaN tree is truthy, so the loop does not skip it, and either path
  adds it into the accumulator, which becomes NaN;
* every ``<`` test on a NaN accumulator is false, so each later nonzero
  tree takes the general path, whose sums keep it NaN (its carry test, a
  ``>=``, is false too), and a tree of 0 leaves it as it is;
* ``not acc`` is false for NaN, so the end test reaches it.
"""

import math

import numpy as np

OPERAND_SHIFT = 25  # an activation operand is its FP16 value times 2^25
_C = 1.5 * 2.0 ** 52  # c of the grid 2^0; c of 2^k is _C * 2^k
_B = 1.5 * 2.0 ** 28  # |x| * _B < c of the grid 2^k: |x| < 2^(k+24)
_LANE_C = 1.5 * 2.0 ** 41  # _LANE_C * 2^max_e: c of the grid 2^(max_e - 11)


def run_group_dot(w, a):
    """Group dot product before dequantization.

    ``w`` holds the group's term values lane-major, shape ``(4, G/4, T)``:
    lane ``l`` of quad ``q`` is weight ``4q + l``.  ``a`` holds the G
    activation operands.
    Each quad takes one cycle per term slot, in quad-major, slot-minor
    order.  The lane stage of every cycle runs at once; only the
    accumulation is sequential, over the cycles whose tree is not 0.
    Returns the accumulator (m_acc, e_acc).  Raises ``ValueError`` if an
    operand or a term is NaN (the module's NaN rule).
    """
    v = a.reshape(-1, len(w)).T[:, :, None] * w
    cv = np.ldexp(_LANE_C, np.frexp(v)[1].max(axis=0))
    v += cv
    v -= cv
    acc, c_acc = 0.0, _C
    for t, c in zip(v.sum(axis=0).ravel().tolist(), cv.ravel().tolist()):
        if not t:
            continue
        if abs(acc) * _B < c:  # |acc| < 2^(f+24): the fast path
            acc = acc + c - c + t
            c_acc = c
        else:
            acc, c_acc = _align_add(acc, c_acc, t, c)
    if not acc:
        return (0, 0)
    if math.isnan(acc):
        raise ValueError("NaN operand or term")
    e = math.frexp(_grid(acc, c_acc))[1] - 53
    return int(math.ldexp(acc, -e)), e - OPERAND_SHIFT


def _grid(acc, c_acc):
    """The c of the grid of a nonzero accumulator last rounded with
    ``c_acc``: that grid, or the one that leaves its mantissa 25 bits."""
    if abs(acc) * _B < c_acc:
        return math.ldexp(_C, math.frexp(acc)[1] - 25)
    return c_acc


def _align_add(acc, c_acc, t, c):
    """The general path: the new (acc, c_acc) after adding the tree ``t``
    on the grid of ``c``."""
    k = _grid(acc, c_acc)
    if k < c:
        k = c
    acc = (acc + k - k) + (t + k - k)
    if abs(acc) * _B >= k * 2.0 ** 8:  # a carry past bit 31
        k += k
        acc = acc + k - k
    return acc, k
