"""Cycle- and energy-level accelerator model.

A 4x4 grid of systolic tiles, each with 8x8 bit-serial PEs performing a
4-way dot product per cycle, output-stationary dataflow, double-buffered
on-chip SRAM and a bandwidth-abstracted DRAM model.  DRAM transfers overlap
compute fully, so per-layer latency is max(compute, DRAM) cycles.

The FP16 baseline accelerator uses one-MAC-per-cycle FP16 PEs and, by
default, 6x8 PEs per tile for iso-compute-area comparisons (the bit-serial
PE is smaller, so more of them fit in the same area).

Energy numbers are placeholder per-event costs supplied via configuration;
they are NOT silicon measurements, and only ratios between runs that share
a config are meaningful.

A layer repeated over blocks and a phase repeated over decode steps add the
same per-GEMM report many times.  Those totals are computed in closed form
(``SimReport.accumulate`` with a count), so host time does not depend on
``decode_tokens``; the float columns still equal, bit for bit, what that
many sequential additions give.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction

from .dtype import DataTypeSpec, GroupingConfig
from .errors import ConfigError, ParseError
from .pe import DEQUANT_CYCLES, DOT_WIDTH, fp16_mac_cycles_per_dot
from .quant import memory_footprint_bits

FP16_BITS_PER_WEIGHT = Fraction(16)


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
    dot_width: int = DOT_WIDTH
    frequency_hz: float = 1e9
    act_buffer_bytes: int = 512 * 1024
    weight_buffer_bytes: int = 512 * 1024
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
        for name in ("tiles_x", "tiles_y", "pe_rows", "pe_cols", "dot_width"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.frequency_hz <= 0 or self.dram_bandwidth_bytes_per_s <= 0:
            raise ConfigError("frequency and DRAM bandwidth must be positive")
        for name in ("e_pe_cycle", "e_sram_byte", "e_dram_byte"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, "
                                  f"got {getattr(self, name)!r}")

    @property
    def n_pes(self) -> int:
        return self.tiles_x * self.tiles_y * self.pe_rows * self.pe_cols


# Value types each ArchConfig field accepts, by its annotation.  The type is
# compared exactly, so a bool (an int subclass) is refused.
_FIELD_TYPES = tuple((f.name, {"int": (int,), "float": (int, float)}[f.type])
                     for f in fields(ArchConfig))


@dataclass(frozen=True)
class LayerShape:
    """One GEMM: (M x K) activations times (K x N) weights, repeated."""

    m: int
    k: int
    n: int
    repeat: int = 1


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    layers: tuple[LayerShape, ...]  # layer M is a placeholder; phases set it
    prefill_tokens: int = 256
    decode_tokens: int = 0
    batch: int = 1


@dataclass
class EnergyBreakdown:
    compute_j: float = 0.0
    sram_j: float = 0.0
    dram_j: float = 0.0

    @property
    def total_j(self) -> float:
        return self.compute_j + self.sram_j + self.dram_j


@dataclass
class SimReport:
    compute_cycles: int = 0
    dram_cycles: int = 0
    total_cycles: int = 0
    weight_bytes: float = 0.0
    activation_bytes: float = 0.0
    energy: EnergyBreakdown = field(default_factory=EnergyBreakdown)
    speedup_vs_baseline: float | None = None

    def accumulate(self, other: "SimReport", times: int):
        """Add ``other`` ``times`` times, as that many sequential additions."""
        self.compute_cycles += other.compute_cycles * times
        self.dram_cycles += other.dram_cycles * times
        self.total_cycles += other.total_cycles * times
        self.weight_bytes = _repeat_add(self.weight_bytes, other.weight_bytes,
                                        times)
        self.activation_bytes = _repeat_add(self.activation_bytes,
                                            other.activation_bytes, times)
        e, o = self.energy, other.energy
        e.compute_j = _repeat_add(e.compute_j, o.compute_j, times)
        e.sram_j = _repeat_add(e.sram_j, o.sram_j, times)
        e.dram_j = _repeat_add(e.dram_j, o.dram_j, times)


# Runs up to this many additions are plain loops: cheaper than the jumps.
_PLAIN_HEAD = 64
# s / ulp(s) stays below this in every binade; at it the ulp doubles.
_BINADE_ULPS = 1 << 53


def _repeat_add(s: float, x: float, n: int) -> float:
    """``s`` after ``n`` sequential ``s += x``, bit for bit, for s, x >= 0.

    Inside one binade (between consecutive powers of two) every step adds
    the same ``d = round(x / ulp(s))`` ulps, round-half-even as in IEEE
    addition, so a run of steps is one exact multiply-add.  A plain step is
    taken when ``x >= s``, when ``x / ulp`` is a tie and ``s / ulp`` is odd
    (after it ``s / ulp`` is even and stays even), and next to a binade
    boundary.  O(log n) steps after the plain head.
    """
    head = min(n, _PLAIN_HEAD)
    for _ in range(head):
        s += x
    n -= head
    while n > 0 and x > 0.0 and s < math.inf:
        if x < s:
            u = math.ulp(s)
            ulps = int(s / u)
            q = x / u  # exact, or too small to round to a nonzero d
            d = round(q)  # ties to even, as IEEE addition rounds
            if not (abs(q - d) == 0.5 and ulps & 1):
                if d == 0:
                    return s  # no step moves s
                # A run that ends 2 or more ulps below the binade's end
                # keeps every exact sum inside it, so each step adds d ulps.
                k = min(n, (_BINADE_ULPS - 2 - ulps) // d)
                if k > 0:
                    s = (ulps + k * d) * u
                    n -= k
                    continue
        s += x
        n -= 1
    return s


def check_no_stall(spec: DataTypeSpec, grouping: GroupingConfig,
                   cfg: ArchConfig = ArchConfig()) -> bool:
    """Dequantization (8 cycles) must fit under the group compute time."""
    compute = (grouping.group_size // cfg.dot_width) * spec.terms_per_code
    ok = DEQUANT_CYCLES <= compute
    if not ok:
        warnings.warn(
            f"group size {grouping.group_size} with {spec.name} gives only "
            f"{compute} compute cycles per group; the 8-cycle bit-serial "
            "dequantization would stall the pipeline",
            stacklevel=2,
        )
    return ok


def _cycles_and_bytes(m: int, k: int, n: int, terms_per_code: int,
                      bits_per_weight: Fraction, grouping: GroupingConfig,
                      cfg: ArchConfig, pe_rows: int, pe_cols: int):
    g = grouping.group_size
    k_padded = ((k + g - 1) // g) * g
    row_waves = math.ceil(m / (cfg.tiles_y * pe_rows))
    col_waves = math.ceil(n / (cfg.tiles_x * pe_cols))
    group_cycles = (g // cfg.dot_width) * terms_per_code
    compute = row_waves * col_waves * (k_padded // g) * group_cycles
    weight_bytes = float(k * n * bits_per_weight / 8)
    act_bytes = float((m * k + m * n) * 2)  # FP16 activations in and out
    return compute, weight_bytes, act_bytes


def _finish(compute, weight_bytes, act_bytes, cfg: ArchConfig,
            n_pes: int) -> SimReport:
    bytes_per_cycle = cfg.dram_bandwidth_bytes_per_s / cfg.frequency_hz
    dram = math.ceil((weight_bytes + act_bytes) / bytes_per_cycle)
    energy = EnergyBreakdown(
        compute_j=compute * n_pes * cfg.e_pe_cycle,
        sram_j=(weight_bytes + act_bytes) * cfg.e_sram_byte,
        dram_j=(weight_bytes + act_bytes) * cfg.e_dram_byte,
    )
    return SimReport(
        compute_cycles=compute,
        dram_cycles=dram,
        total_cycles=max(compute, dram),
        weight_bytes=weight_bytes,
        activation_bytes=act_bytes,
        energy=energy,
    )


def simulate_layer(layer: LayerShape, spec: DataTypeSpec,
                   grouping: GroupingConfig, cfg: ArchConfig = ArchConfig()
                   ) -> SimReport:
    """Latency, traffic and energy of one GEMM on the bit-serial array."""
    if layer.m <= 0 or layer.k <= 0 or layer.n <= 0:
        raise ConfigError(f"non-positive GEMM dimension in {layer}")
    if grouping.group_size % cfg.dot_width:
        raise ConfigError(f"group size {grouping.group_size} not divisible "
                          f"by dot width {cfg.dot_width}")
    if layer.repeat == 0:
        return SimReport()
    check_no_stall(spec, grouping, cfg)
    compute, wb, ab = _cycles_and_bytes(
        layer.m, layer.k, layer.n, spec.terms_per_code,
        memory_footprint_bits(spec, grouping), grouping, cfg,
        cfg.pe_rows, cfg.pe_cols,
    )
    rep = _finish(compute, wb, ab, cfg, cfg.n_pes)
    out = SimReport()
    out.accumulate(rep, layer.repeat)
    return out


def baseline_fp16_layer(layer: LayerShape,
                        cfg: ArchConfig = ArchConfig()) -> SimReport:
    """Same GEMM on the FP16 MAC baseline accelerator.

    The baseline PE finishes one 4-MAC batch in 4 cycles (one MAC per
    cycle); its iso-area tile (``baseline_pe_rows`` x ``baseline_pe_cols``,
    6x8 by default) replaces the 8x8 bit-serial tile.
    """
    if layer.m <= 0 or layer.k <= 0 or layer.n <= 0:
        raise ConfigError(f"non-positive GEMM dimension in {layer}")
    if layer.repeat == 0:
        return SimReport()
    rows, cols = cfg.baseline_pe_rows, cfg.baseline_pe_cols
    grouping = GroupingConfig(group_size=cfg.dot_width)
    compute, wb, ab = _cycles_and_bytes(
        layer.m, layer.k, layer.n, fp16_mac_cycles_per_dot(),
        FP16_BITS_PER_WEIGHT, grouping, cfg, rows, cols,
    )
    n_pes = cfg.tiles_x * cfg.tiles_y * rows * cols
    rep = _finish(compute, wb, ab, cfg, n_pes)
    out = SimReport()
    out.accumulate(rep, layer.repeat)
    return out


def _phased_layers(w: WorkloadSpec):
    """Yield (layer-with-M, multiplicity) covering prefill and decode."""
    if w.prefill_tokens > 0:
        for layer in w.layers:
            yield replace(layer, m=w.prefill_tokens * w.batch), 1
    # Every decode step re-fetches all weights (no cross-token residency).
    if w.decode_tokens > 0:
        for layer in w.layers:
            yield replace(layer, m=1 * w.batch), w.decode_tokens


def simulate_workload(w: WorkloadSpec, spec: DataTypeSpec,
                      grouping: GroupingConfig,
                      cfg: ArchConfig = ArchConfig()) -> SimReport:
    out = SimReport()
    for layer, mult in _phased_layers(w):
        out.accumulate(simulate_layer(layer, spec, grouping, cfg), mult)
    return out


def baseline_fp16_sim(w: WorkloadSpec,
                      cfg: ArchConfig = ArchConfig()) -> SimReport:
    out = SimReport()
    for layer, mult in _phased_layers(w):
        out.accumulate(baseline_fp16_layer(layer, cfg), mult)
    return out


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
# LM-head GEMM when present), decode_tokens (default 0).
# ---------------------------------------------------------------------------

_INT_KEYS = {"hidden", "ffn", "heads", "kv_heads", "blocks", "vocab",
             "ffn_gemms", "decode_tokens", "prefill_tokens"}
# Token counts may be 0 (phase skipped); every other integer must be >= 1.
_COUNT_KEYS = {"decode_tokens", "prefill_tokens"}


def parse_shape_file(text: str) -> dict:
    values: dict = {}
    any_content = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        any_content = True
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", line=lineno)
        key, _, val = line.partition("=")
        key, val = key.strip().lower(), val.strip()
        if key in _INT_KEYS:
            try:
                values[key] = int(val)
            except ValueError:
                raise ParseError(f"{key} must be an integer, got {val!r}",
                                 line=lineno) from None
            lo = 0 if key in _COUNT_KEYS else 1
            if values[key] < lo:
                raise ParseError(f"{key} must be >= {lo}, got {val}",
                                 line=lineno)
        elif key == "name":
            values[key] = val
        else:
            raise ParseError(f"unknown key {key!r}", line=lineno)
    if not any_content:
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
    layers = [
        LayerShape(m=0, k=hidden, n=hidden, repeat=blocks),   # Q
        LayerShape(m=0, k=hidden, n=kv_dim, repeat=blocks),   # K
        LayerShape(m=0, k=hidden, n=kv_dim, repeat=blocks),   # V
        LayerShape(m=0, k=hidden, n=hidden, repeat=blocks),   # output proj
        LayerShape(m=0, k=hidden, n=ffn, repeat=blocks),      # FFN up
    ]
    if ffn_gemms == 3:
        layers.append(LayerShape(m=0, k=hidden, n=ffn, repeat=blocks))  # gate
    layers.append(LayerShape(m=0, k=ffn, n=hidden, repeat=blocks))      # down
    if "vocab" in v:
        layers.append(LayerShape(m=0, k=hidden, n=v["vocab"], repeat=1))
    return WorkloadSpec(
        name=v["name"],
        layers=tuple(layers),
        prefill_tokens=v.get("prefill_tokens", 256),
        decode_tokens=v.get("decode_tokens", 0),
    )


def workload_weight_bytes(w: WorkloadSpec, bits_per_weight: Fraction) -> float:
    """One full fetch of every weight tensor in the workload."""
    return float(sum(l.k * l.n * l.repeat for l in w.layers)
                 * bits_per_weight / 8)
