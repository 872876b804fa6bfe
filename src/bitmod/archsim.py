"""Cycle- and energy-level accelerator model.

A 4x4 grid of systolic tiles, each with 8x8 bit-serial PEs performing a
4-way dot product per cycle, output-stationary dataflow and a
bandwidth-abstracted DRAM model.  DRAM transfers overlap compute fully, so
per-layer latency is max(compute, DRAM) cycles.  On-chip SRAM is modelled
only as a per-byte energy on every byte moved, not as a sized buffer:
nothing here bounds or counts its capacity.

The FP16 baseline accelerator uses one-MAC-per-cycle FP16 PEs and, by
default, 6x8 PEs per tile for iso-compute-area comparisons (the bit-serial
PE is smaller, so more of them fit in the same area).  Both arrays share one
GEMM cost model; they differ only in the tile, the cycles per group of K
and the stored bits per weight.

Energy numbers are placeholder per-event costs supplied via configuration;
they are NOT silicon measurements, and only ratios between runs that share
a config are meaningful.

A layer repeated over blocks, a run of adjacent equal GEMMs (Q, K, V and O
when ``kv_heads = heads``) and a phase repeated over decode steps add the
same per-GEMM figures many times.  A workload is added in one pass over
plain numbers: its runs of equal GEMMs are found once per
:class:`WorkloadSpec`, each run's GEMM is costed once per phase as two
cycle counts and five float figures (two byte columns, three energies)
summed over its ``repeat``, and :func:`_accumulate` adds those figures to
the workload's totals with a count, so host time grows only with the
logarithm of ``decode_tokens``.  A count up to 64 is one plain loop of
five additions, and a larger one is computed in closed form per total.
The float columns still equal, bit for bit, what that many sequential
additions give: a sum that no partial sum rounds, as in most byte columns,
is one multiply-add, and the others jump a binade at a time, in float
arithmetic.  Cycle counts are exact for any shape: every ceiling is an
integer one.  A byte or energy total that overflows the float range, in
one GEMM or over a workload, raises :class:`ConfigError` naming the layer
or the workload.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cached_property
from itertools import groupby
from typing import NamedTuple

import numpy as np

from .dtype import DataTypeSpec, GroupingConfig
from .errors import ConfigError, ParseError
from .pe import DEQUANT_CYCLES, DOT_WIDTH, group_cycles
from .quant import memory_footprint_bits

FP16_BITS_PER_WEIGHT = Fraction(16)
# The baseline FP16 MAC PE does one multiply-accumulate per cycle, so a
# DOT_WIDTH-wide dot takes this many cycles.
FP16_MAC_CYCLES_PER_DOT = DOT_WIDTH
# The FP16 baseline walks K one DOT_WIDTH-wide dot at a time.
_FP16_GROUPING = GroupingConfig(group_size=DOT_WIDTH)


def _finite(value: int | float) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


@dataclass(frozen=True)
class ArchConfig:
    tiles_x: int = 4
    tiles_y: int = 4
    pe_rows: int = 8
    pe_cols: int = 8
    frequency_hz: float = 1e9
    dram_bandwidth_bytes_per_s: float = 25.6e9  # single-channel DDR4-3200 class
    # Placeholder energy table (joules); not measured silicon data.
    e_pe_cycle: float = 4e-12
    e_sram_byte: float = 1e-12
    e_dram_byte: float = 2e-11
    # FP16 baseline tile for iso-compute-area runs (fewer, larger PEs).
    baseline_pe_rows: int = 6
    baseline_pe_cols: int = 8

    def __post_init__(self):
        for name, types in _FIELD_TYPES:
            value = getattr(self, name)
            if type(value) not in types or not _finite(value):
                kind = "an integer" if types == (int,) else "a finite number"
                raise ConfigError(f"{name} must be {kind}, got {value!r}")
            if value < 0 or (value == 0 and name not in _MAY_BE_ZERO):
                bound = ">= 0" if name in _MAY_BE_ZERO else "positive"
                raise ConfigError(f"{name} must be {bound}, got {value!r}")
        if not 0 < self.dram_bytes_per_cycle < math.inf:
            raise ConfigError("DRAM bytes per cycle, dram_bandwidth_bytes_per_s"
                              " / frequency_hz, must be finite and positive, "
                              f"got {self.dram_bytes_per_cycle!r}")

    @property
    def dram_bytes_per_cycle(self) -> float:
        return self.dram_bandwidth_bytes_per_s / self.frequency_hz


# Value types each ArchConfig field accepts, by its annotation.  The type is
# compared exactly, so a bool (an int subclass) is refused.
_FIELD_TYPES = tuple((f.name, {"int": (int,), "float": (int, float)}[f.type])
                     for f in fields(ArchConfig))
# The per-event energies may be 0; every other field must be positive.
_MAY_BE_ZERO = ("e_pe_cycle", "e_sram_byte", "e_dram_byte")


class LayerShape(NamedTuple):
    """One row of a workload's GEMM table: (M x K) activations times
    (K x N) weights, repeated ``repeat`` times; M is set by each phase."""

    k: int
    n: int
    repeat: int = 1


def _count(value, low: int, field: str, where) -> int:
    """``value`` as a Python int, or :class:`ConfigError` naming ``field``
    in ``where`` unless it is an int or a numpy integer (a bool or a float
    is refused) of at least ``low``."""
    if type(value) is not int and isinstance(value, np.integer):
        value = int(value)
    if type(value) is not int or value < low:
        raise ConfigError(f"{where}: {field} must be an integer >= {low}, "
                          f"got {value!r}")
    return value


@dataclass(frozen=True)
class WorkloadSpec:
    """A model's GEMM table, ``layers``, run for a prefill pass of
    ``prefill_tokens`` tokens and then ``decode_tokens`` one-token decode
    steps."""

    name: str
    layers: tuple[LayerShape, ...]
    prefill_tokens: int = 256
    decode_tokens: int = 0

    @cached_property
    def _gemms(self) -> tuple[tuple[int, int, int, int, int], ...]:
        """``(m, k, n, repeat, times)`` for each run of adjacent equal
        layers (Q, K, V and O when ``kv_heads = heads``) in each phase that
        has work: the prefill pass (``m`` is ``prefill_tokens``, one step)
        and the decode steps (``m`` is 1).  ``times``, the run's length
        times the phase's steps, is how often the run's GEMM is added.

        The one owner of a workload's numbers: each layer's ``k`` and ``n``
        must be at least 1, its ``repeat`` and both token counts at least
        0, each an int or a numpy integer (taken as an int), or
        :class:`ConfigError` names the field and its layer or workload.
        Layers are checked before they are compared, so no unchecked value
        reaches an ``==``.  A run of ``repeat`` 0 is left out, as is a
        phase of no tokens.  Built on first use and kept outside the
        fields, so equality, hashing and ``repr`` ignore it, and
        ``dataclasses.replace`` builds it afresh.
        """
        where = f"workload {self.name!r}"
        prefill = _count(self.prefill_tokens, 0, "prefill_tokens", where)
        decode = _count(self.decode_tokens, 0, "decode_tokens", where)
        rows = [tuple(map(_count, layer, (1, 1, 0), LayerShape._fields,
                          (layer,) * 3)) for layer in self.layers]
        runs = [(*row, len(list(group))) for row, group in groupby(rows)]
        # Every decode step re-fetches all weights (no cross-token reuse).
        return tuple((m, k, n, repeat, steps * length)
                     for m, steps in ((prefill, 1), (1, decode))
                     if m > 0 and steps > 0
                     for k, n, repeat, length in runs if repeat)


@dataclass
class EnergyBreakdown:
    compute_j: float = 0.0
    sram_j: float = 0.0
    dram_j: float = 0.0


@dataclass
class SimReport:
    compute_cycles: int = 0
    dram_cycles: int = 0
    total_cycles: int = 0
    weight_bytes: float = 0.0
    activation_bytes: float = 0.0
    energy: EnergyBreakdown = field(default_factory=EnergyBreakdown)
    speedup_vs_baseline: float | None = None


# A GEMM's or a workload's five float figures, in SimReport's order:
# weight_bytes, activation_bytes, then the compute, SRAM and DRAM energies.
_NO_FIGURES = (0.0,) * 5


def _accumulate(totals: tuple[float, ...], figures: tuple[float, ...],
                times: int) -> tuple[float, ...]:
    """``totals`` after adding ``figures`` to them ``times`` times, as that
    many sequential additions per total; raise ``OverflowError`` when a
    total is not finite.

    Up to ``_PLAIN_RUN`` times is one plain loop: the totals never meet, so
    one loop over all five adds what five loops would.  More is
    :func:`_repeat_add` per total.
    """
    w, a, c, s, d = totals
    if times <= _PLAIN_RUN:
        dw, da, dc, ds, dd = figures
        for _ in range(times):
            w += dw
            a += da
            c += dc
            s += ds
            d += dd
    else:
        w, a, c, s, d = map(_repeat_add, totals, figures, [times] * 5)
    # x - x is 0.0 for a finite x and NaN otherwise.
    if (w - w) + (a - a) + (c - c) + (s - s) + (d - d):
        raise OverflowError("a float total overflows the float range")
    return w, a, c, s, d


# _accumulate adds runs up to this long in a plain loop, cheaper there than
# _repeat_add.
_PLAIN_RUN = 64
# s / ulp(s) stays below this in every binade; at it the ulp doubles.  It is
# also the bound below which every integer is a float.
_BINADE_ULPS = 1 << 53
# A jump leaves s at most this many ulps into its binade.
_BINADE_ROOM = float(_BINADE_ULPS - 2)
# q + _RNE - _RNE is q >= 0 rounded to an integer, half to even, below 2**51.
_RNE = 1.5 * 2.0 ** 52


def _repeat_add(s: float, x: float, n: int) -> float:
    """``s`` after ``n`` sequential ``s += x``, bit for bit, for s, x >= 0.

    Two paths, each exact for any ``n``; :func:`_accumulate` calls it
    only past ``_PLAIN_RUN`` additions, below which its plain loop is
    cheaper:

    * Exact sums: ``s`` and ``x`` are integers over power-of-two
      denominators; over the finer one they are ``a / D`` and ``c / D``.  If
      ``a + n * c < 2**53``, every partial sum ``(a + i * c) / D`` is a
      float, so no addition rounds and ``s + n * x`` (each operation exact
      for the same reason) is the loop's result.  This covers the byte
      columns, whose figures have few bits.
    * Binade jumps: inside one binade (between consecutive powers of two)
      every step adds the same ``d = round(x / ulp(s))`` ulps,
      round-half-even as in IEEE addition, so a run of steps is one exact
      multiply-add.  A jump stops 2 or more ulps below the binade's end,
      and up to two plain steps after it cross the boundary.  A plain step
      is also taken while ``s <= 8 * x`` (a binade then holds at most 8
      steps), and when ``x / ulp`` is a tie and ``s / ulp`` is odd (after
      it ``s / ulp`` is even and stays even).  About three steps per
      binade that ``s`` crosses.

    The jumps run in float arithmetic, and every value in them is exact:

    * ``ulps = s / ulp(s)``: ``s`` is a multiple of its ulp, fewer than
      2**53 of them.
    * ``q = x / ulp`` is below 2**50, as ``x < s / 8``, so
      ``d = q + 1.5 * 2**52 - 1.5 * 2**52`` is ``q`` rounded half to even:
      the sum lies where the float spacing is 1, and ``1.5 * 2**52`` is
      even.
    * ``k = (2**53 - 2 - ulps) // d``: float floor division of integers
      below 2**53 is exact.  ``n`` stays an int of any size: Python
      compares it with the float ``k`` exactly.
    * ``ulps + k * d`` is at most ``2**53 - 2``, and scaling it by the
      power of two ``ulp`` is exact.

    Zero additions leave ``s`` as it is; once ``s`` or ``x`` is infinite,
    every later sum is ``s + x``.
    """
    if not n:
        return s
    if not (math.isfinite(s) and math.isfinite(x)):
        return s + x
    (a, da), (c, dc) = s.as_integer_ratio(), x.as_integer_ratio()
    den = max(da, dc)  # both powers of two
    if a * (den // da) + n * c * (den // dc) < _BINADE_ULPS:
        return s + n * x
    while n > 0 and s < math.inf:
        steps = 1
        if s > 8 * x:
            u = math.ulp(s)
            ulps = s / u
            q = x / u  # exact, or too small to round to a nonzero d
            d = q + _RNE - _RNE  # ties to even, as IEEE addition rounds
            if not (abs(q - d) == 0.5 and ulps % 2):
                if not d:
                    return s  # no step moves s
                # A run that ends 2 or more ulps below the binade's end
                # keeps every exact sum inside it, so each step adds d ulps.
                k = (_BINADE_ROOM - ulps) // d
                if k > n:
                    k = n
                if k > 0:
                    s = (ulps + k * d) * u
                    n -= int(k)
                    steps = 2  # s is under d + 2 ulps below the binade's end
        steps = min(steps, n)
        for _ in range(steps):
            s += x
        n -= steps
    return s


def check_no_stall(spec: DataTypeSpec, grouping: GroupingConfig) -> bool:
    """Dequantization (``DEQUANT_CYCLES``) must fit under the group
    compute time."""
    compute = group_cycles(spec, grouping.group_size)
    ok = DEQUANT_CYCLES <= compute
    if not ok:
        warnings.warn(
            f"group size {grouping.group_size} with {spec.name} gives only "
            f"{compute} compute cycles per group; the {DEQUANT_CYCLES}-cycle "
            "bit-serial dequantization would stall the pipeline",
            stacklevel=2,
        )
    return ok


def _simulate(name: str, gemms, cfg: ArchConfig, spec: DataTypeSpec = None,
              grouping: GroupingConfig = None) -> SimReport:
    """Total of each ``(m, k, n, repeat, times)`` run of ``gemms``: an
    (m x k) by (k x n) GEMM, added ``repeat`` times and that sum ``times``
    times, on the bit-serial array for ``spec`` and ``grouping``, or on the
    FP16 baseline when ``spec`` is None.

    ``gemms`` is a workload's table, :attr:`WorkloadSpec._gemms`, whose
    numbers are already checked, so the loop holds only the cost model.
    The group size is checked before the loop, even for a table with no
    rows; a GEMM whose byte or energy figures overflow raises
    :class:`ConfigError` naming its row and M, and totals that overflow
    name the workload.

    Output-stationary: each wave of output tiles walks all of K, padded to
    whole groups by the array's grouping (:meth:`GroupingConfig.n_groups`);
    the FP16 baseline's grouping is one ``DOT_WIDTH``-wide dot.  Adding a
    GEMM's figures ``times`` times is the same float additions in the same
    order as adding them once per layer of a run and per step of a phase.
    A stalling ``spec`` warns once, after the first GEMM that passes the
    overflow check.

    Weights cost the array's bits per weight each, for the bit-serial array
    :func:`bitmod.quant.memory_footprint_bits`: ``bits_per_code`` bits a
    weight and ``8 + sv_bits`` bits a group.  That is the layout the
    simulator charges, not the BMOD file's: it leaves out the file's
    16-bit group records (``scale_q`` and ``sv_index`` a byte each), the
    byte padding of each record's codes, the float32 scale of each channel
    and the 20-byte header (:mod:`bitmod.packfile`).
    """
    if spec is None:
        # One 4-MAC dot in 4 cycles (one MAC per cycle) on the iso-area
        # baseline tile, 6x8 PEs by default against the bit-serial 8x8.
        rows, cols = cfg.baseline_pe_rows, cfg.baseline_pe_cols
        grouping, per_group = _FP16_GROUPING, FP16_MAC_CYCLES_PER_DOT
        bits = FP16_BITS_PER_WEIGHT
    else:
        rows, cols = cfg.pe_rows, cfg.pe_cols
        per_group = group_cycles(spec, grouping.group_size)
        bits = memory_footprint_bits(spec, grouping)
    wave_m, wave_n = cfg.tiles_y * rows, cfg.tiles_x * cols
    n_pes = cfg.tiles_x * cfg.tiles_y * rows * cols
    num, den = bits.numerator, 8 * bits.denominator  # bytes per weight
    per_cycle = cfg.dram_bytes_per_cycle
    compute = dram = total = 0
    floats = _NO_FIGURES
    if grouping.group_size % DOT_WIDTH:
        raise ConfigError(f"group size {grouping.group_size} not "
                          f"divisible by dot width {DOT_WIDTH}")
    unchecked = spec is not None
    for m, k, n, repeat, times in gemms:
        c = (-(-m // wave_m) * -(-n // wave_n) * grouping.n_groups(k)
             * per_group)
        try:
            # int / int rounds once: the float of the exact rational.
            weight_bytes = k * n * num / den
            act_bytes = float((m * k + m * n) * 2)  # FP16 in and out
            moved = weight_bytes + act_bytes
            d = math.ceil(moved / per_cycle)
            figures = _accumulate(_NO_FIGURES, (
                weight_bytes, act_bytes, c * n_pes * cfg.e_pe_cycle,
                moved * cfg.e_sram_byte, moved * cfg.e_dram_byte), repeat)
        except OverflowError:  # an int beyond the float range, or an inf
            raise ConfigError(f"{LayerShape(k, n, repeat)} at M {m}: byte or"
                              " energy figures overflow the float range"
                              ) from None
        if unchecked:
            check_no_stall(spec, grouping)
            unchecked = False
        compute += c * repeat * times
        dram += d * repeat * times
        total += max(c, d) * repeat * times
        try:
            floats = _accumulate(floats, figures, times)
        except OverflowError:
            raise ConfigError(f"workload {name!r}: byte or energy totals "
                              "overflow the float range") from None
    w, a, c, s, d = floats
    return SimReport(compute, dram, total, w, a, EnergyBreakdown(c, s, d))


def simulate_workload(w: WorkloadSpec, spec: DataTypeSpec,
                      grouping: GroupingConfig,
                      cfg: ArchConfig = ArchConfig()) -> SimReport:
    return _simulate(w.name, w._gemms, cfg, spec, grouping)


def baseline_fp16_sim(w: WorkloadSpec,
                      cfg: ArchConfig = ArchConfig()) -> SimReport:
    return _simulate(w.name, w._gemms, cfg)


def with_speedup(report: SimReport, baseline: SimReport) -> SimReport:
    report.speedup_vs_baseline = (
        baseline.total_cycles / report.total_cycles
        if report.total_cycles else None
    )
    return report


# ---------------------------------------------------------------------------
# Shape files: line-oriented `key = value`; '#' starts a comment.
# Keys: name, hidden, blocks (required); ffn (default 4*hidden), heads,
# kv_heads (default heads), ffn_gemms (2 or 3, default 2), vocab (adds an
# LM-head GEMM when present).  Every integer must be >= 1, and a key may
# appear only once.  A shape file describes the model only; token counts
# are the caller's (``bitmod simulate --prefill-tokens/--decode-tokens``).
# ---------------------------------------------------------------------------

_INT_KEYS = {"hidden", "ffn", "heads", "kv_heads", "blocks", "vocab",
             "ffn_gemms"}


def parse_shape_file(text: str) -> dict:
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", line=lineno)
        key, _, val = line.partition("=")
        key, val = key.strip().lower(), val.strip()
        if key in values:
            raise ParseError(f"repeated key {key!r}", line=lineno)
        if key in _INT_KEYS:
            try:
                values[key] = int(val)
            except ValueError:
                raise ParseError(f"{key} must be an integer, got {val!r}",
                                 line=lineno) from None
            if values[key] < 1:
                raise ParseError(f"{key} must be >= 1, got {val}",
                                 line=lineno)
        elif key == "name":
            values[key] = val
        else:
            raise ParseError(f"unknown key {key!r}", line=lineno)
    if not values:
        raise ParseError("empty shape file", line=1)
    for req in ("name", "hidden", "blocks"):
        if req not in values:
            raise ParseError(f"missing required key {req!r}", line=1)
    return values


def profile_shapes(text: str) -> WorkloadSpec:
    """Expand a model shape file into its per-block GEMM list."""
    v = parse_shape_file(text)
    hidden = v["hidden"]
    ffn = v.get("ffn", 4 * hidden)
    heads = v.get("heads", 1)
    kv_heads = v.get("kv_heads", heads)
    blocks = v["blocks"]
    ffn_gemms = v.get("ffn_gemms", 2)
    if ffn_gemms not in (2, 3):
        raise ParseError("ffn_gemms must be 2 or 3")
    if hidden % heads or kv_heads > heads:
        raise ParseError("heads must divide hidden and kv_heads <= heads")
    kv_dim = hidden * kv_heads // heads
    # Q, K, V, output proj, FFN up (and gate when gated), FFN down.
    dims = [(hidden, hidden), (hidden, kv_dim), (hidden, kv_dim),
            (hidden, hidden), *[(hidden, ffn)] * (ffn_gemms - 1),
            (ffn, hidden)]
    layers = [LayerShape(k, n, blocks) for k, n in dims]
    if "vocab" in v:
        layers.append(LayerShape(hidden, v["vocab"]))  # LM head
    return WorkloadSpec(name=v["name"], layers=tuple(layers))

