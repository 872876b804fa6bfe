from functools import cache

import numpy as np

import pe_oracle
from bitmod.dtype import effective_grid, spec_for


@cache
def _oracle_code_terms(name, sv_index: int) -> dict:
    """The reference encoders' terms of every code of (dtype, sv_index),
    keyed by code: FP codes index the effective grid, INT codes are the
    signed values of ``bits_per_code`` bits."""
    spec = spec_for(name)
    if spec.is_fp:
        return {code: pe_oracle.fp_terms(value) for code, value
                in enumerate(effective_grid(spec, sv_index))}
    half = 1 << (spec.bits_per_code - 1)
    return {code: pe_oracle.booth_terms(code, spec.terms_per_code)
            for code in range(-half, half)}


def oracle_weight_terms(qg, spec):
    """Encode a quantized group with the reference encoders in pe_oracle."""
    table = _oracle_code_terms(spec.name, int(qg.sv_index) if spec.is_fp
                               else 0)
    return [table[c] for c in np.asarray(qg.codes).tolist()]


def oracle_acts(values):
    return [pe_oracle.fp16_operand(v) for v in values]


def exact_dot(qg, spec, act_values) -> float:
    """Double-precision reference: grid values times FP16 activations."""
    if spec.is_fp:
        grid = np.array([float(v) for v in effective_grid(spec, qg.sv_index)])
        w = grid[np.asarray(qg.codes)]
    else:
        w = np.asarray(qg.codes, dtype=np.float64)
    a = np.float16(np.asarray(act_values, dtype=np.float64)).astype(np.float64)
    return float(np.dot(w, a)) * qg.scale_q
