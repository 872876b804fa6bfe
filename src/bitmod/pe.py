"""Bit-accurate functional model of the bit-serial processing element.

The PE computes a 4-way dot product per cycle between bit-serial weight
terms and FP16 activations, accumulates over a weight group, and rescales
the group partial sum by the unsigned 8-bit group scale with an 8-cycle
shift-and-add multiplier.

Numeric model (documented choices, not hardware claims):

* 32-bit accumulator mantissa, leading set bit kept in window [24, 31];
* per-lane alignment to the max lane exponent with round-to-nearest-even
  (3 guard bits preserve exact RNE);
* FP16 subnormal activations flush to zero at ingestion; NaN/Inf rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .bitserial import BitSerialTerm, SpecialValueRegister, encode_weight
from .dtype import DataTypeSpec
from .errors import ShapeMismatch, UnsupportedDtype
from .quant import QuantizedGroup

DOT_WIDTH = 4
DEQUANT_CYCLES = 8

# Activation value = (-1)^sign * a_m * 2^(a_e - 25): 10 fraction bits plus
# the FP16 exponent bias of 15.
_ACT_SCALE_SHIFT = 25


@dataclass(frozen=True)
class Fp16Operand:
    sign: int
    a_e: int   # biased 5-bit exponent
    a_m: int   # 11-bit mantissa including the hidden bit

    @classmethod
    def from_float(cls, x) -> "Fp16Operand":
        with np.errstate(over="ignore"):  # overflow lands on inf, rejected below
            h = np.float16(x)
        bits = int(h.view(np.uint16))
        sign = (bits >> 15) & 1
        exp = (bits >> 10) & 0x1F
        frac = bits & 0x3FF
        if exp == 0x1F:
            raise ValueError("NaN/Inf activation rejected")
        if exp == 0:
            # Subnormals flush to zero.
            return cls(sign=sign, a_e=0, a_m=0)
        return cls(sign=sign, a_e=exp, a_m=0x400 | frac)

    @property
    def value(self) -> float:
        v = math.ldexp(self.a_m, self.a_e - _ACT_SCALE_SHIFT)
        return -v if self.sign else v


@dataclass(frozen=True)
class AccumulatorState:
    m_acc: int = 0
    e_acc: int = 0

    @property
    def value(self) -> float:
        return math.ldexp(self.m_acc, self.e_acc)


@dataclass(frozen=True)
class GroupPartialSum:
    m_grp: int
    e_grp: int

    @property
    def value(self) -> float:
        return math.ldexp(self.m_grp, self.e_grp)


def pe_cycle(terms, acts, acc: AccumulatorState) -> AccumulatorState:
    """One PE cycle; the four terms must share one bit-significance."""
    if len(terms) != DOT_WIDTH or len(acts) != DOT_WIDTH:
        raise ShapeMismatch("pe_cycle consumes exactly 4 terms and 4 activations")
    bsigs = {t.bsig for t in terms}
    if len(bsigs) != 1:
        raise ShapeMismatch(f"terms must share one bsig, got {sorted(bsigs)}")
    m, e = _kernels.pe_cycle_core(acc.m_acc, acc.e_acc, terms, acts)
    return AccumulatorState(m, e)


def bit_serial_dequant(acc: AccumulatorState, scale_q: int):
    """Multiply the accumulator by the 8-bit scale; always 8 cycles, exact."""
    if not 0 <= scale_q <= 255:
        raise ValueError("scale_q must be an unsigned 8-bit value")
    m_grp = _kernels.dequant_shift_add(acc.m_acc, scale_q)
    return GroupPartialSum(m_grp=m_grp, e_grp=acc.e_acc), DEQUANT_CYCLES


def _as_operands(acts) -> list[Fp16Operand]:
    return [a if isinstance(a, Fp16Operand) else Fp16Operand.from_float(a)
            for a in acts]


def encode_group_terms(weights: QuantizedGroup, spec: DataTypeSpec,
                       svreg: SpecialValueRegister | None = None
                       ) -> list[list[BitSerialTerm]]:
    """Encode a quantized group into one term list per weight."""
    if spec.asymmetric:
        raise UnsupportedDtype(
            f"{spec.name} is a software baseline only; the PE consumes "
            "symmetric INT and FP types"
        )
    if svreg is None and spec.is_bitmod:
        svreg = SpecialValueRegister.program(spec)
    return [encode_weight(int(code), spec, svreg, weights.sv_index)
            for code in weights.codes]


def group_dot(weights: QuantizedGroup, acts, spec: DataTypeSpec,
              svreg: SpecialValueRegister | None = None):
    """Dot product of one quantized group with FP16 activations.

    Returns (GroupPartialSum, compute_cycles); the 8-cycle dequantization
    overlaps the next group and is not added to the cycle count.
    """
    g = len(weights.codes)
    if len(acts) != g:
        raise ShapeMismatch(f"expected {g} activations, got {len(acts)}")
    if g % DOT_WIDTH != 0:
        raise ShapeMismatch(f"group size {g} not divisible by dot width 4")
    ops = _as_operands(acts)
    terms = encode_group_terms(weights, spec, svreg)
    m_acc, e_acc = _kernels.run_group_dot(terms, ops, spec.terms_per_code)
    cycles = (g // DOT_WIDTH) * spec.terms_per_code
    gps, _ = bit_serial_dequant(AccumulatorState(m_acc, e_acc),
                                weights.scale_q)
    return gps, cycles


def drain_accumulate(partials, channel_scale: float) -> np.float32:
    """Align and sum group partial sums exactly, then apply the channel scale."""
    if not partials:
        raise ValueError("at least one partial sum required")
    live = [p for p in partials if p.m_grp != 0]
    if not live:
        return np.float32(0.0)
    e_min = min(p.e_grp for p in live)
    total = sum(p.m_grp << (p.e_grp - e_min) for p in live)
    return np.float32(math.ldexp(float(total), e_min) * channel_scale)


def fp16_mac_cycles_per_dot() -> int:
    """Cycles for the baseline FP16 MAC PE to finish 4 multiply-accumulates."""
    return 4


def throughput_vs_fp16(spec: DataTypeSpec) -> float:
    """Per-PE throughput ratio over the FP16 MAC baseline."""
    return fp16_mac_cycles_per_dot() / spec.terms_per_code
