from dataclasses import replace
from functools import cache

import numpy as np

import pe_oracle
from bitmod.archsim import (ArchConfig, WorkloadSpec, baseline_fp16_sim,
                            simulate_workload)
from bitmod.dtype import SPECS, effective_grid, spec_for
from bitmod.quant import _count_above, _divisor, _shared_scales, check_finite

# The symmetric dtypes, those ``dtype.code_range`` takes: the seven the PE
# computes with and the BMOD format packs.  No test depends on their order.
PE_DTYPES = PACKABLE = tuple(str(name) for name, spec in SPECS.items()
                             if not spec.asymmetric)


def one_gemm(layer, spec=None, grouping=None, cfg=ArchConfig()):
    """The report of one GEMM, ``layer``, on the bit-serial array for
    ``spec`` and ``grouping``, or on the FP16 baseline when ``spec`` is
    None: a workload of ``layer`` alone, prefilled with ``layer.m`` tokens.
    A workload skips a phase of no tokens, so ``m = 0`` costs nothing."""
    w = WorkloadSpec(str(layer), (replace(layer, m=0),), layer.m, 0)
    if spec is None:
        return baseline_fp16_sim(w, cfg)
    return simulate_workload(w, spec, grouping, cfg)


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


# fp16_operand rounds to FP16 first, so one operand per FP16 value serves
# every activation that rounds to it.
_fp16_operand = cache(pe_oracle.fp16_operand)


def oracle_acts(values):
    return [_fp16_operand(v)
            for v in np.asarray(values).astype(np.float16).tolist()]


def exact_dot(qg, spec, act_values) -> float:
    """Double-precision reference: grid values times FP16 activations."""
    if spec.is_fp:
        grid = np.array([float(v) for v in effective_grid(spec, qg.sv_index)])
        w = grid[np.asarray(qg.codes)]
    else:
        w = np.asarray(qg.codes, dtype=np.float64)
    a = np.float16(np.asarray(act_values, dtype=np.float64)).astype(np.float64)
    return float(np.dot(w, a)) * qg.scale_q


def nearest_grid_index(scaled: np.ndarray, grid_f: np.ndarray) -> np.ndarray:
    """Index of the nearest grid value; ties go to the smaller magnitude.

    The reference for the midpoint count the quantizers use.
    """
    n = len(grid_f)
    idx = np.searchsorted(grid_f, scaled)
    lo = np.clip(idx - 1, 0, n - 1)
    hi = np.clip(idx, 0, n - 1)
    d_lo = np.abs(scaled - grid_f[lo])
    d_hi = np.abs(grid_f[hi] - scaled)
    take_hi = d_hi < d_lo
    tie = d_hi == d_lo
    # Tie: smaller |grid value| wins; equal magnitudes fall back to the
    # negative (lower) one.
    take_hi |= tie & (np.abs(grid_f[hi]) < np.abs(grid_f[lo]))
    return np.where(take_hi, hi, lo)


def per_grid_best_grid(rows: np.ndarray, spec):
    """``quant._best_grid`` grid by grid: each candidate grid's codes are
    gathered and kept where its mean squared error is strictly lower, so
    the lowest index wins ties.

    The reference for the one gather from the winning grid's code row.
    """
    absmax = check_finite(np.max(np.abs(rows), axis=-1, initial=0.0))
    best_mse = None
    for scale in _shared_scales(spec):
        delta = absmax / scale.absmax
        interval = _count_above(rows / _divisor(delta),
                                scale.mids).astype(np.intp)
        for i, codes, values in zip(scale.grids, scale.codes, scale.values):
            err = values.take(interval)
            np.multiply(err, delta[:, None], out=err)
            np.subtract(rows, err, out=err)
            mse = np.mean(np.square(err, out=err), axis=-1)
            if best_mse is None:
                best_mse, best_delta = mse, delta
                best = np.full(len(rows), i, dtype=np.uint8)
                best_codes = codes.take(interval)
                continue
            better = mse < best_mse
            best_mse = np.where(better, mse, best_mse)
            best_delta = np.where(better, delta, best_delta)
            best = np.where(better, i, best)
            np.copyto(best_codes, codes.take(interval), where=better[:, None])
    return best_codes, best_delta, best, best_mse


def single_outlier_groups(n_groups: int, group_size: int, sigma_mult: float,
                          seed: int) -> np.ndarray:
    """Gaussian groups, each with one entry forced to +sigma_mult standard
    deviations."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n_groups, group_size))
    cols = rng.integers(0, group_size, size=n_groups)
    x[np.arange(n_groups), cols] = sigma_mult
    return x.astype(np.float32)
