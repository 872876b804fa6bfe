"""The benchmark's three workloads and the per-layer metrics they expose.

Each workload prepares its inputs from the seed, runs ops, times the calls
into bitmod's public functions around which its end-to-end metrics are
defined, and checks every op's outputs.  A failed check raises
:class:`CheckFailed`; the runner counts it against the op instead of
aborting.  Calls go through module attributes (``quant.quantize_tensor``,
not a local alias) so that the tracer's wrappers are the ones called.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import statistics
from collections import defaultdict
from importlib import resources
from pathlib import Path
from time import perf_counter

import numpy as np

import pe_oracle
from bitmod import archsim, dtype, packfile, pe, quant, synth
from tracer import Tracer

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# Outputs recorded for this seed are compared bit for bit on every op.
REFERENCE_SEED = 0
GROUP_SIZE = 128

# (module, attribute, span name) of every wrapped function.
TRACE_TARGETS = (
    ("bitmod.quant", "quantize_tensor", "quant.quantize_tensor"),
    ("bitmod.quant", "adaptive_quant", "quant.adaptive_quant"),
    ("bitmod.quant", "quantize_scales", "quant.quantize_scales"),
    ("bitmod.quant", "dequantize_tensor", "quant.dequantize_tensor"),
    ("bitmod.dtype", "effective_grid", "dtype.effective_grid"),
    ("bitmod.packfile", "pack", "packfile.pack"),
    ("bitmod.packfile", "unpack", "packfile.unpack"),
    ("bitmod.pe", "group_dot", "pe.group_dot"),
    ("bitmod.pe", "encode_group_terms", "pe.encode_group_terms"),
    ("bitmod.bitserial", "encode_weight", "bitserial.encode_weight"),
    ("bitmod._kernels", "run_group_dot", "kernels.run_group_dot"),
    ("bitmod.pe", "bit_serial_dequant", "pe.bit_serial_dequant"),
    ("bitmod.pe", "drain_accumulate", "pe.drain_accumulate"),
    ("bitmod.archsim", "profile_shapes", "archsim.profile_shapes"),
    ("bitmod.archsim", "simulate_workload", "archsim.simulate_workload"),
    ("bitmod.archsim", "baseline_fp16_sim", "archsim.baseline_fp16_sim"),
    ("bitmod.archsim", "simulate_layer", "archsim.simulate_layer"),
)

# Per-layer metrics in emission order.  ``<span>.self_s`` and
# ``<span>.calls`` come from the spans; the rest are counters.
PER_LAYER_UNITS = {
    "quant.quantize_tensor.self_s": "s",
    "quant.adaptive_quant.self_s": "s",
    "quant.quantize_scales.self_s": "s",
    "dtype.effective_grid.calls": "count",
    "dtype.effective_grid.self_s": "s",
    "packfile.pack.self_s": "s",
    "packfile.bytes_written": "bytes",
    "packfile.unpack.self_s": "s",
    "quant.dequantize_tensor.self_s": "s",
    "pe.group_dot.self_s": "s",
    "pe.encode_group_terms.self_s": "s",
    "bitserial.encode_weight.calls": "count",
    "bitserial.encode_weight.self_s": "s",
    "bitserial.encode_weight.gemv_share": "ratio",
    "kernels.run_group_dot.self_s": "s",
    "pe.bit_serial_dequant.self_s": "s",
    "pe.drain_accumulate.self_s": "s",
    "pe.macs": "count",
    "pe.modeled_cycles": "cycles",
    "archsim.profile_shapes.self_s": "s",
    "archsim.simulate_workload.self_s": "s",
    "archsim.baseline_fp16_sim.self_s": "s",
    "archsim.simulate_layer.calls": "count",
    "archsim.simulate_layer.self_s": "s",
    "archsim.host_ns_per_gemm_event": "ns",
    "archsim.host_ns_per_gemm_event.decode_0": "ns",
    "archsim.host_ns_per_gemm_event.decode_100000": "ns",
    "archsim.simulated_cycles": "cycles",
    "trace.overhead_ratio": "ratio",
    "trace.absent_targets": "count",
}


class CheckFailed(Exception):
    """An op produced an output that does not match its check."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def sha256(data) -> str:
    return hashlib.sha256(data).hexdigest()


def ratio(num: float, den: float) -> float:
    """num / den, or 0 when every op that would have fed den failed."""
    return num / den if den else 0.0


def load_reference(name: str) -> dict:
    with open(REFERENCE_DIR / f"{name}.json") as fh:
        return json.load(fh)


class Workload:
    """Shared bookkeeping: op times per (path, kind of op), counters.

    A path is what one end-to-end throughput measures; a kind is one
    distinct op on it, such as one sweep config.  All ops of a kind do the
    same work, so a throughput is taken at each kind's median op time.
    An op's times stay pending until the runner commits them scaled to
    the reference host (see ``run.HostSpeed``), or drops them if the op
    failed.
    """

    name = ""
    # The issue's metric names -> path, in (main, side_a, side_b) order;
    # "" means every path.
    named: dict[str, str] = {}
    named_unit = ""

    def __init__(self, seed: int, tiny: bool, use_reference: bool):
        self.seed = seed
        self.tiny = tiny
        self.use_reference = use_reference and seed == REFERENCE_SEED and not tiny
        self.tracer = Tracer()
        self.reset()

    def reset(self) -> None:
        self.times = defaultdict(list)
        self.work = {}
        self.pending = []
        self.counters = defaultdict(int)

    def add(self, path: str, work: float, seconds: float, kind: str = "") -> None:
        self.pending.append((path, kind, work, seconds))

    def commit(self, scale: float) -> None:
        for path, kind, work, seconds in self.pending:
            self.times[path, kind].append(seconds * scale)
            self.work[path, kind] = work
        self.pending.clear()

    def rate(self, path: str = "") -> float:
        """Work per second of one op of each kind, at median op times."""
        keys = [k for k in self.times if not path or k[0] == path]
        return ratio(sum(self.work[k] for k in keys),
                     sum(statistics.median(self.times[k]) for k in keys))

    def path_seconds(self, path: str) -> float:
        return sum(sum(v) for k, v in self.times.items() if k[0] == path)

    def timed_seconds(self) -> float:
        return sum(sum(v) for v in self.times.values())

    @property
    def paths(self) -> tuple[str, ...]:
        return tuple(self.named.values())

    def required(self) -> set[tuple[str, str]]:
        return {(p, "") for p in self.paths if p}

    def covered(self) -> bool:
        """Every kind of op an end-to-end metric needs has a sample."""
        return self.required() <= self.times.keys()

    def end_to_end(self) -> dict[str, float]:
        main, side_a, side_b = self.paths
        return {"main_per_s": self.rate(main),
                "side_a_per_s": self.rate(side_a),
                "side_b_per_s": self.rate(side_b)}

    def trace_counters(self, tracer: Tracer) -> dict[str, float]:
        return dict(self.counters)


class Roundtrip(Workload):
    """FP3_BITMOD quantize -> error_report -> pack -> unpack -> dequantize.

    The tensor is ``outlier_mixture`` 4096 x 4096, streamed in blocks of
    16 rows (64 k weights); op ``i`` processes block ``i mod 256``.
    """

    name = "fp3-layer-roundtrip"
    named = {"quantize_wps": "quantize", "pack_wps": "pack",
             "unpack_wps": "unpack"}
    named_unit = "weights/s"

    def __init__(self, seed, tiny=False, use_reference=True):
        super().__init__(seed, tiny, use_reference)
        self.rows, self.width, self.n_blocks = \
            (2, 512, 4) if tiny else (16, 4096, 256)
        self.spec = dtype.spec_for("FP3_BITMOD")
        self.grouping = dtype.GroupingConfig(group_size=GROUP_SIZE)
        self.reference = (load_reference("roundtrip")["blocks"]
                          if self.use_reference else None)

    def block(self, i: int) -> np.ndarray:
        rng = np.random.default_rng([self.seed, 0, i % self.n_blocks])
        return synth.sample("outlier_mixture", (self.rows, self.width),
                            rng=rng)

    def timed_keys(self):
        return itertools.count()

    def trace_keys(self):
        return range(1 if self.tiny else 4)

    def run(self, i: int) -> dict:
        w = self.block(i)
        with self.tracer.span("op"):
            t0 = perf_counter()
            channels = quant.quantize_tensor(w, self.spec, self.grouping)
            t1 = perf_counter()
            data = packfile.pack(channels, self.grouping, self.width)
            t2 = perf_counter()
            unpacked, grouping, spec = packfile.unpack(data)
            restored = quant.dequantize_tensor(unpacked)
            t3 = perf_counter()
        self.add("quantize", w.size, t1 - t0)
        self.add("pack", w.size, t2 - t1)
        self.add("unpack", w.size, t3 - t2)
        self.counters["packfile.bytes_written"] += len(data)

        with self.tracer.paused():
            direct = quant.dequantize_tensor(channels)
            report = quant.error_report(w, direct)
            repacked = packfile.pack(unpacked, grouping, self.width)
        check(spec.name == self.spec.name, f"unpacked dtype {spec.name}")
        check(repacked == data, "pack(unpack(b)) != b")
        check(restored.shape == direct.shape
              and np.array_equal(restored.view(np.uint64),
                                 direct.view(np.uint64)),
              "unpacked dequantization differs from the direct one")
        out = {"sha256": sha256(data), **dataclasses.asdict(report)}
        if self.reference is not None:
            want = self.reference[i % self.n_blocks]
            check(out == want, f"block {i % self.n_blocks}: {out} != {want}")
        return out


class Gemv(Workload):
    """Bit-accurate GEMV through the PE model, FP3_BITMOD against INT6_SYM.

    One 2 x 4096 ``outlier_mixture`` row block is quantized to both dtypes
    during set-up.  Op ``i`` multiplies dtype ``i mod 2`` with activation
    vector ``(i // 2) mod 128``, so both dtypes see the same activations.
    """

    name = "gemv-fp3-int6"
    DTYPES = ("FP3_BITMOD", "INT6_SYM")
    named = {"gemv_macs_per_s": "", "gemv_fp3_macs_per_s": "FP3_BITMOD",
             "gemv_int6_macs_per_s": "INT6_SYM"}
    named_unit = "MAC/s"

    def __init__(self, seed, tiny=False, use_reference=True):
        super().__init__(seed, tiny, use_reference)
        self.rows, self.width, self.n_acts = \
            (1, 256, 2) if tiny else (2, 4096, 128)
        grouping = dtype.GroupingConfig(group_size=GROUP_SIZE)
        w = synth.sample("outlier_mixture", (self.rows, self.width),
                         rng=np.random.default_rng([seed, 1]))
        self.layers = {}
        for name in self.DTYPES:
            spec = dtype.spec_for(name)
            channels = quant.quantize_tensor(w, spec, grouping)
            self.layers[name] = (spec, channels,
                                 quant.dequantize_tensor(channels))
        self.reference = load_reference("gemv") if self.use_reference else None

    def activation(self, j: int) -> np.ndarray:
        rng = np.random.default_rng([self.seed, 2, j % self.n_acts])
        return rng.standard_normal(self.width).astype(np.float16)

    def timed_keys(self):
        return ((self.DTYPES[i % 2], i // 2 % self.n_acts)
                for i in itertools.count())

    def trace_keys(self):
        return list(itertools.islice(self.timed_keys(), 2 if self.tiny else 4))

    def run(self, key) -> dict:
        name, j = key
        spec, channels, weights = self.layers[name]
        act = self.activation(j)
        y = np.empty(self.rows, dtype=np.float32)
        cycles = 0
        first_row = None
        with self.tracer.span("op"):
            t0 = perf_counter()
            for r, cq in enumerate(channels):
                partials = []
                for gi, qg in enumerate(cq.groups):
                    gps, c = pe.group_dot(
                        qg, act[gi * GROUP_SIZE:(gi + 1) * GROUP_SIZE], spec)
                    partials.append(gps)
                    cycles += c
                y[r] = pe.drain_accumulate(partials, cq.channel_scale)
                if first_row is None:
                    first_row = partials
            t1 = perf_counter()
        macs = self.rows * self.width
        self.add(name, macs, t1 - t0)
        self.counters["pe.macs"] += macs
        self.counters["pe.modeled_cycles"] += cycles

        with self.tracer.paused():
            qg = channels[0].groups[0]
            if spec.is_fp:
                grid = dtype.effective_grid(spec, qg.sv_index)
                terms = [pe_oracle.fp_terms(grid[int(c)]) for c in qg.codes]
            else:
                terms = [pe_oracle.booth_terms(int(c), spec.terms_per_code)
                         for c in qg.codes]
            acts = [pe_oracle.fp16_operand(float(v)) for v in act[:GROUP_SIZE]]
            want = pe_oracle.dequant(
                pe_oracle.group_dot(terms, acts, GROUP_SIZE,
                                    spec.terms_per_code), qg.scale_q)
        got = (first_row[0].m_grp, first_row[0].e_grp)
        check(got == want, f"{name} act {j}: group 0 {got} != oracle {want}")
        # The PE keeps at least 24 accumulator bits, so the row sums agree
        # with a float64 dot product far inside this tolerance.
        a = act.astype(np.float64)
        exact = weights @ a
        tol = 1e-4 * (np.abs(weights) @ np.abs(a)) + 1e-30
        check(bool(np.all(np.abs(y - exact) <= tol)),
              f"{name} act {j}: GEMV {y} far from float64 {exact}")
        out = {"sha256": sha256(y.tobytes())}
        if self.reference is not None:
            want_sha = self.reference[name][j % self.n_acts]
            check(out["sha256"] == want_sha, f"{name} act {j}: digest")
        return out

    def trace_counters(self, tracer: Tracer) -> dict[str, float]:
        """Adds the share of GEMV time spent encoding weights into terms."""
        summary = tracer.summary()
        encode_s = summary.get("bitserial.encode_weight", {}).get("total_s", 0.0)
        return dict(self.counters, **{
            "bitserial.encode_weight.gemv_share":
                ratio(encode_s, summary.get("op", {}).get("total_s", 0.0))})


def gemm_events(w) -> int:
    """Modelled GEMM executions: sum over layers of repeat x multiplicity."""
    per_pass = sum(layer.repeat for layer in w.layers)
    return per_pass * ((1 if w.prefill_tokens > 0 else 0) + w.decode_tokens)


SIM_FIELDS = ("compute_cycles", "dram_cycles", "total_cycles",
              "weight_bytes", "activation_bytes", "speedup_vs_baseline")


def sim_row(rep) -> dict:
    row = {f: getattr(rep, f) for f in SIM_FIELDS}
    row.update(energy_compute_j=rep.energy.compute_j,
               energy_sram_j=rep.energy.sram_j,
               energy_dram_j=rep.energy.dram_j)
    return row


class Sweep(Workload):
    """``bitmod simulate``-style configs: shape x dtype x decode tokens.

    Each decode length is a class.  The next op comes from the class
    furthest below its share of the host time so far.  So the millisecond
    prefill-only configs are measured over seconds, and each 0.4 s
    100 k-decode config runs several times.  Within a class, configs cycle
    in a seeded order.
    """

    name = "simulate-sweep"
    SHAPES = ("llama-2-7b", "opt-1.3b")
    DTYPES = ("INT6_SYM", "INT8_SYM", "FP4_BITMOD", "FP3_BITMOD")
    DECODES = (0, 256, 100000)
    SHARES = (1, 1, 4)  # relative host time per decode class
    named_unit = "configs/s"

    def __init__(self, seed, tiny=False, use_reference=True):
        super().__init__(seed, tiny, use_reference)
        if tiny:
            self.SHAPES, self.DTYPES = ("toy",), ("INT6_SYM", "FP3_BITMOD")
            self.DECODES = (0, 16, 1000)
        first, last = self.DECODES[0], self.DECODES[-1]
        self.named = {"sim_configs_per_s": "",
                      f"sim_configs_per_s.decode_{first}": f"decode_{first}",
                      f"sim_configs_per_s.decode_{last}": f"decode_{last}"}
        self.texts = {
            s: resources.files("bitmod.shapes").joinpath(f"{s}.shape").read_text()
            for s in self.SHAPES}
        self.grouping = dtype.GroupingConfig(group_size=GROUP_SIZE)
        rng = np.random.default_rng([seed, 3])
        configs = [(s, d) for s in self.SHAPES for d in self.DTYPES]
        self.order = {dec: [configs[k] for k in rng.permutation(len(configs))]
                      for dec in self.DECODES}
        self.reference = (load_reference("sweep")["rows"]
                          if self.use_reference else None)

    def required(self):
        return {(f"decode_{dec}", f"{s}/{n}")
                for dec in self.DECODES for s, n in self.order[dec]}

    def timed_keys(self):
        done = defaultdict(int)
        while True:
            _, dec = min((self.path_seconds(f"decode_{d}") / share, d)
                         for d, share in zip(self.DECODES, self.SHARES))
            shape, name = self.order[dec][done[dec] % len(self.order[dec])]
            done[dec] += 1
            yield shape, name, dec

    def trace_keys(self):
        return [(s, n, dec) for dec in self.DECODES for s, n in self.order[dec]]

    def run(self, key) -> dict:
        shape, name, dec = key
        spec = dtype.spec_for(name)
        with self.tracer.span(f"op.decode_{dec}"):
            t0 = perf_counter()
            w = dataclasses.replace(archsim.profile_shapes(self.texts[shape]),
                                    decode_tokens=dec)
            base = archsim.baseline_fp16_sim(w)
            rep = archsim.with_speedup(
                archsim.simulate_workload(w, spec, self.grouping), base)
            t1 = perf_counter()
        self.add(f"decode_{dec}", 1, t1 - t0, kind=f"{shape}/{name}")
        self.counters[f"events.decode_{dec}"] += 2 * gemm_events(w)
        self.counters["archsim.simulated_cycles"] += (rep.total_cycles
                                                      + base.total_cycles)

        # Each GEMM takes max(compute, DRAM) cycles, so the sums bound it.
        for r in (rep, base):
            check(max(r.compute_cycles, r.dram_cycles) <= r.total_cycles
                  <= r.compute_cycles + r.dram_cycles,
                  f"{key}: total_cycles outside [max, sum] of compute, DRAM")
        check(rep.speedup_vs_baseline == base.total_cycles / rep.total_cycles,
              f"{key}: speedup_vs_baseline")
        out = {"dtype": sim_row(rep), "baseline": sim_row(base)}
        if self.reference is not None:
            want = self.reference[f"{shape}/{name}/{dec}"]
            for part in ("dtype", "baseline"):
                for field, value in want[part].items():
                    check(out[part].get(field) == value,
                          f"{key} {part}.{field}: {out[part].get(field)} "
                          f"!= {value}")
        return out

    def trace_counters(self, tracer: Tracer) -> dict[str, float]:
        """Host time per modelled GEMM event, overall and per decode class."""
        ns = defaultdict(int)
        for idx, (name, start, end, _) in enumerate(tracer.spans):
            if name in ("archsim.simulate_workload", "archsim.baseline_fp16_sim"):
                ns[tracer.parent_name(idx)] += end - start
        out = {k: v for k, v in self.counters.items()
               if not k.startswith("events.")}
        total_ns = total_events = 0
        for dec in self.DECODES:
            events = self.counters[f"events.decode_{dec}"]
            t = ns[f"op.decode_{dec}"]
            total_ns += t
            total_events += events
            out[f"archsim.host_ns_per_gemm_event.decode_{dec}"] = ratio(t, events)
        out["archsim.host_ns_per_gemm_event"] = ratio(total_ns, total_events)
        return out


WORKLOADS = {cls.name: cls for cls in (Roundtrip, Gemv, Sweep)}
