import csv
import dataclasses
import hashlib
import io
import json
import struct
import time
import warnings
from importlib import resources

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from conftest import PACKABLE
from bitmod import archsim, cli, synth
from bitmod.cli import main
from bitmod.dtype import DataType, GroupingConfig, spec_for
from bitmod.errors import FormatError
from bitmod.packfile import unpack, unpack_to_tensor
from bitmod.quant import dequantize_tensor


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def tensor_file(tmp_path, capsys):
    path = tmp_path / "w.npy"
    code, out, _ = run(capsys, "gen", "--dist", "outlier_mixture",
                       "--shape", "64x256", "--seed", "7", "--out", str(path))
    assert code == 0
    return path


def parse_csv(text):
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    comments = [l for l in text.splitlines() if l.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines)))), comments


def test_gen_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.npy", tmp_path / "b.npy"
    run(capsys, "gen", "--shape", "8x32", "--seed", "5", "--out", str(a))
    run(capsys, "gen", "--shape", "8x32", "--seed", "5", "--out", str(b))
    np.testing.assert_array_equal(np.load(a), np.load(b))
    arr = np.load(a)
    assert arr.shape == (8, 32) and arr.dtype == np.float32


@pytest.mark.parametrize("verb", ("gen", "unpack"))
def test_out_path_is_written_as_given(verb, tensor_file, tmp_path, capsys):
    # np.save used to add ".npy" to an --out path without it, while the
    # message named the path as given.
    out = tmp_path / "out"
    if verb == "gen":
        argv = ("gen", "--shape", "2x8", "--out", str(out))
    else:
        packed = tmp_path / "w.bmod"
        assert run(capsys, "pack", str(tensor_file), "--out",
                   str(packed))[0] == 0
        argv = ("unpack", str(packed), "--out", str(out))
    code, stdout, _ = run(capsys, *argv)
    assert code == 0 and stdout.startswith(f"wrote {out}: ")
    assert sorted(p.name for p in tmp_path.iterdir() if "out" in p.name) \
        == ["out"]
    assert np.load(out).shape == ((2, 8) if verb == "gen" else (64, 256))


@pytest.mark.parametrize("failure", ("too-big", "no-memory"))
def test_gen_shape_numpy_cannot_hold_is_one_line_error(failure, tmp_path,
                                                       capsys, monkeypatch):
    # A shape past numpy's size limit ended in a ValueError traceback.
    # numpy refuses it before allocating; the MemoryError of a shape within
    # the limit but beyond the host's memory is raised here by a stand-in.
    shape = f"{10 ** 13}x{10 ** 13}"
    if failure == "no-memory":
        def sample(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 GiB")
        monkeypatch.setattr("bitmod.synth.sample", sample)
        shape = "100000x100000"
    out = tmp_path / "w.npy"
    code, _, err = run(capsys, "gen", "--shape", shape, "--out", str(out))
    assert code == 1
    assert err.startswith(f"error: shape {shape}: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("verb, message", [
    ("quant-eval", "Unable to allocate 7.45 GiB for an array with shape "
                   "(1, 1000000000) and data type float64"),
    ("pack", ""),
], ids=("quant-eval", "pack"))
def test_memory_error_is_one_line_error(verb, message, tensor_file, tmp_path,
                                        capsys, monkeypatch):
    # A --group-size far above the channel size pads each chunk to whole
    # groups, and numpy's MemoryError for that chunk ended in a traceback.
    # A stand-in raises it here, so the array is never allocated; Python's
    # own MemoryError carries no message.
    def quantize_tensor(*args):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "quantize_tensor", quantize_tensor)
    out = tmp_path / "out"
    code, stdout, err = run(capsys, verb, str(tensor_file), "--group-size",
                            "1000000000", "--out", str(out))
    assert (code, stdout) == (1, "")
    assert err == f"error: {message or 'out of memory'}\n"
    assert not out.exists()


def test_quant_eval_csv(tensor_file, tmp_path, capsys):
    out = tmp_path / "report.csv"
    code, _, _ = run(capsys, "quant-eval", str(tensor_file),
                     "--dtype", "FP3_BITMOD,FP3_BASIC", "--out", str(out))
    assert code == 0
    rows, comments = parse_csv(out.read_text())
    assert any("config" in c for c in comments)
    by_dtype = {r["dtype"]: r for r in rows}
    assert set(by_dtype) == {"FP3_BITMOD", "FP3_BASIC"}
    assert float(by_dtype["FP3_BITMOD"]["mse"]) < \
        float(by_dtype["FP3_BASIC"]["mse"])
    assert float(by_dtype["FP3_BITMOD"]["bits_per_weight"]) == \
        pytest.approx(3 + 10 / 128)
    # Outlier mixture drives a nonzero spread of special-value picks.
    counts = [int(by_dtype["FP3_BITMOD"][f"sv_count_{i}"]) for i in range(4)]
    assert sum(c > 0 for c in counts) >= 2
    assert sum(counts) == 64 * 2  # 64 channels x 2 groups of 128


def test_quant_eval_json_embeds_config(tensor_file, capsys):
    code, out, _ = run(capsys, "quant-eval", str(tensor_file),
                       "--format", "json", "--dtype", "FP4_BITMOD")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["group_size"] == 128
    assert "version" in doc["config"]
    assert doc["config"]["kernel_backend"] == "pure"
    assert "seed" not in doc["config"]
    assert len(doc["rows"]) == 1


def test_quant_eval_missing_file_partial_failure(tensor_file, tmp_path, capsys):
    code, _, err = run(capsys, "quant-eval", str(tensor_file),
                       str(tmp_path / "nope.npy"),
                       "--out", str(tmp_path / "r.csv"))
    assert code == 1
    assert "error" in err


# sha256 of the JSON ``quant-eval`` rows of all ten dtypes, less the tensor
# path, on ``gen --dist outlier_mixture --shape 64x300 --seed 25`` per
# group size.  300 weights leave a ragged last group at 128 and 32; at 100
# and 12, not powers of two, two different error sums can round to one
# mean, which ties the grids.
PINNED_QUANT_EVAL = {
    128: "c5f1433187c8110a6654437b822513a395bc7714269da8db076ed23c9fb17229",
    32: "95a140557406c51faaea5bc94072536925392f0d49b16481a373bca7fa09d8c7",
    100: "0699257c217be10265eabc64323bef330d62a99f5ffa7287e51aee62d5f0334c",
    12: "992c4f31fc4c8fa3510d17542edae159d9f979ad093043dffe17c5b8032b927b",
}


@pytest.mark.parametrize("g", sorted(PINNED_QUANT_EVAL))
def test_quant_eval_rows_are_pinned(g, tmp_path, capsys):
    path = tmp_path / "w.npy"
    run(capsys, "gen", "--dist", "outlier_mixture", "--shape", "64x300",
        "--seed", "25", "--out", str(path))
    code, out, _ = run(capsys, "quant-eval", str(path), "--dtype",
                       ",".join(t.name for t in DataType), "--group-size",
                       str(g), "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 10
    body = json.dumps([{k: v for k, v in r.items() if k != "tensor"}
                       for r in rows], sort_keys=True)
    assert hashlib.sha256(body.encode()).hexdigest() == PINNED_QUANT_EVAL[g]


def test_bitserial_check_reports_all_codes_exact(capsys):
    code, out, err = run(capsys, "bitserial-check")
    assert code == 0
    assert (out, err) == ("344/344 codes exact\n", "")


def test_bitserial_check_detects_misprogrammed_register(capsys):
    # Programming +7 as a special value needs three set bits; the check
    # must fail loudly rather than mask the encoding gap.
    code, out, err = run(capsys, "bitserial-check", "--sv-override", "7")
    assert code == 1
    assert out == "342/344 codes exact\n"
    assert err == (
        "FP4_BITMOD sv 0 code 14: fixed-point magnitude 14/2 has 3 set bits\n"
        "FP3_BITMOD sv 0 code 6: fixed-point magnitude 14/2 has 3 set bits\n")


def test_bitserial_check_reports_wrong_special_value(capsys):
    # +5 is encodable (two set bits) but is not the grid's +3.
    code, out, err = run(capsys, "bitserial-check", "--sv-override", "5")
    assert code == 1
    assert out == "343/344 codes exact\n"
    assert err == "FP3_BITMOD sv 0 code 6: 5 != 3\n"


@pytest.mark.parametrize("value", (12, -12))
def test_bitserial_check_reports_wrong_two_bit_special_value(value, capsys):
    # |12| = 8 + 4 is inside the fixed-point range 0..15.5 and has two set
    # bits, so it encodes; it is only the wrong value for both grids.
    code, out, err = run(capsys, "bitserial-check", "--sv-override",
                         str(value))
    assert code == 1
    assert out == "342/344 codes exact\n"
    assert err == (f"FP4_BITMOD sv 0 code 14: {value} != 5\n"
                   f"FP3_BITMOD sv 0 code 6: {value} != 3\n")


@pytest.mark.parametrize("value", (16, 20))
def test_bitserial_check_reports_unrepresentable_special_value(value, capsys):
    # A special value beyond the fixed-point range used to end the whole
    # check in one error line, with no per-code lines and no count.
    code, out, err = run(capsys, "bitserial-check", "--sv-override",
                         str(value))
    assert code == 1
    assert out == "342/344 codes exact\n"
    problem = f"fixed-point magnitude {2 * value}/2 is outside 0..15.5"
    assert err == (f"FP4_BITMOD sv 0 code 14: {problem}\n"
                   f"FP3_BITMOD sv 0 code 6: {problem}\n")


def test_bitserial_check_reports_an_int_term_sum_mismatch(monkeypatch,
                                                          capsys):
    # An encoder whose terms sum to one more than each code: an INT code
    # has one line with no value, an FP code one per grid with both.
    real = cli.term_value_sum
    monkeypatch.setattr(cli, "term_value_sum", lambda terms: real(terms) + 1)
    code, out, err = run(capsys, "bitserial-check")
    assert (code, out) == (1, "0/344 codes exact\n")
    lines = err.splitlines()
    assert "INT8_SYM code -128: term sum mismatch" in lines
    assert "FP3_BITMOD sv 0 code 0: -3 != -4" in lines


def test_sample_refuses_an_unknown_distribution():
    with pytest.raises(ValueError, match="unknown distribution 'cauchy'"):
        synth.sample("cauchy", (2, 8))


def test_simulate_bundled_shape(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    code, _, err = run(capsys, "simulate", "toy",
                       "--dtype", "FP3_BITMOD,INT6_SYM",
                       "--decode-tokens", "8", "--out", str(out))
    assert code == 0
    rows, _ = parse_csv(out.read_text())
    assert [r["dtype"] for r in rows] == ["FP16_BASELINE", "FP3_BITMOD",
                                          "INT6_SYM"]
    base = rows[0]
    assert float(base["speedup_vs_baseline"]) == 1.0
    for r in rows[1:]:
        assert float(r["speedup_vs_baseline"]) > 1.0
        # total is the sum of per-layer max(compute, dram) cycles.
        hi = int(r["compute_cycles"]) + int(r["dram_cycles"])
        lo = max(int(r["compute_cycles"]), int(r["dram_cycles"]))
        assert lo <= int(r["total_cycles"]) <= hi
    assert "weight" in err  # traffic summary on stderr


def test_simulate_shape_file_path_and_errors(tmp_path, capsys):
    shape = tmp_path / "tiny.shape"
    shape.write_text("name = tiny\nhidden = 64\nblocks = 2\n")
    code, out, _ = run(capsys, "simulate", str(shape), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"][0]["workload"] == "tiny"

    code, _, err = run(capsys, "simulate", str(tmp_path / "missing.shape"))
    assert code == 1 and "error" in err

    bad = tmp_path / "bad.shape"
    bad.write_text("hidden = 64\n")
    code, _, err = run(capsys, "simulate", str(bad))
    assert code == 1 and "name" in err


def test_shape_file_token_counts_are_one_line_error(tmp_path, capsys):
    # Token counts come only from --prefill-tokens/--decode-tokens; a
    # shape file that set them used to be overridden without a word.
    shape = tmp_path / "tokens.shape"
    shape.write_text("name = x\nhidden = 64\nblocks = 2\ndecode_tokens = 8\n")
    code, out, err = run(capsys, "simulate", str(shape))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "unknown key 'decode_tokens'" in err


def test_shape_beyond_float_range_is_one_line_error(tmp_path, capsys):
    # 10^160: one GEMM overflows; this used to end in an OverflowError
    # traceback.  10^150: every GEMM is finite but the sum over 2^40 decode
    # steps is not; this used to print inf and exit 0.
    shape = tmp_path / "huge.shape"
    for hidden, decode in ((10**160, 0), (10**150, 1 << 40)):
        shape.write_text(f"name = huge\nhidden = {hidden}\nblocks = 1\n")
        code, out, err = run(capsys, "simulate", str(shape),
                             "--decode-tokens", str(decode))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "overflow the float range" in err


@pytest.mark.parametrize("lines, message", [
    ("ffn_gemms = 4", "ffn_gemms must be 2 or 3"),
    ("heads = 4\nkv_heads = 8",
     "heads must divide hidden and kv_heads <= heads"),
], ids=["ffn-gemms", "kv-heads"])
def test_inconsistent_shape_file_is_one_line_error(lines, message, tmp_path,
                                                   capsys):
    shape = tmp_path / "bad.shape"
    shape.write_text(f"name = x\nhidden = 64\nblocks = 1\n{lines}\n")
    code, out, err = run(capsys, "simulate", str(shape))
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_repeated_shape_key_is_one_line_error(tmp_path, capsys):
    # Used to take the last value without a word.
    shape = tmp_path / "twice.shape"
    shape.write_text("name = x\nhidden = 64\nblocks = 2\nhidden = 128\n")
    code, out, err = run(capsys, "simulate", str(shape))
    assert code == 1 and out == ""
    assert err == "error: line 4: repeated key 'hidden'\n"


def test_non_utf8_shape_file_is_one_line_error(tmp_path, capsys):
    # Used to end in a UnicodeDecodeError traceback.
    bad = tmp_path / "bad.shape"
    bad.write_bytes(b"\xff\xfename = x\nhidden = 64\nblocks = 2\n")
    code, out, err = run(capsys, "simulate", str(bad))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "UTF-8" in err


def test_simulate_stall_warning_is_one_line(capsys):
    hook = warnings.showwarning
    code, out, err = run(capsys, "simulate", "toy", "--dtype", "FP3_BITMOD",
                         "--group-size", "4")
    assert code == 0
    assert [r["dtype"] for r in parse_csv(out)[0]] == ["FP16_BASELINE",
                                                       "FP3_BITMOD"]
    # One line for the prefill and decode GEMMs, then the traffic summary;
    # no source line is echoed.
    first, *summary = err.splitlines()
    assert first == ("warning: group size 4 with FP3_BITMOD gives only 2 "
                     "compute cycles per group; the 8-cycle bit-serial "
                     "dequantization would stall the pipeline")
    assert [line.split(":")[0].strip() for line in summary] == [
        "FP16_BASELINE", "FP3_BITMOD"]
    assert warnings.showwarning is hook


def test_simulate_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        run(capsys, "simulate", "opt-1.3b", "--dtype", "FP4_BITMOD",
            "--out", str(path))
    strip = lambda p: [l for l in p.read_text().splitlines()
                       if not l.startswith("#")]
    assert strip(a) == strip(b)


def test_simulate_arch_config_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dram_bandwidth_bytes_per_s": 1e15}))
    out = tmp_path / "sim.csv"
    code, _, _ = run(capsys, "simulate", "toy", "--dtype", "INT8_SYM",
                     "--config", str(cfg), "--out", str(out))
    assert code == 0
    rows, _ = parse_csv(out.read_text())
    for r in rows:
        assert int(r["total_cycles"]) == int(r["compute_cycles"])


def test_simulate_host_time_does_not_grow_with_decode_tokens(capsys):
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "simulate", "llama-2-7b",
                       "--decode-tokens", str(2 ** 40), "--format", "json")
    assert code == 0
    assert time.perf_counter() - t0 < 2.0
    # Cycle totals are linear in decode steps: the prefill alone plus 2^40,
    # the largest count the CLI takes, times one decode step alone.
    text = resources.files("bitmod.shapes").joinpath("llama-2-7b.shape") \
        .read_text()
    w = archsim.profile_shapes(text)
    g128 = GroupingConfig(group_size=128)
    phases = (dataclasses.replace(w, prefill_tokens=256, decode_tokens=0),
              dataclasses.replace(w, prefill_tokens=0, decode_tokens=1))
    sims = {"FP16_BASELINE": archsim.baseline_fp16_sim,
            "INT6_SYM": lambda p: archsim.simulate_workload(
                p, spec_for("INT6_SYM"), g128)}
    rows = json.loads(out)["rows"]
    assert [r["dtype"] for r in rows] == list(sims)
    for row in rows:
        prefill, step = (sims[row["dtype"]](p).compute_cycles for p in phases)
        assert row["compute_cycles"] == prefill + 2 ** 40 * step


def test_float_columns_track_cycles_at_the_token_bound(capsys):
    # 2^40 decode steps, the largest count the CLI takes: bytes and
    # energies, sums of 2^40 float additions, drift from the exact totals
    # by up to about 2e-4 (1.9e-4 for llama-2-7b's INT6_SYM weight_bytes)
    # but still grow with the cycles.
    rows = {}
    for n in (1, 2 ** 40):
        code, out, _ = run(capsys, "simulate", "llama-2-7b", "--dtype",
                           "FP3_BITMOD", "--prefill-tokens", "0",
                           "--decode-tokens", str(n), "--format", "json")
        assert code == 0
        rows[n] = json.loads(out)["rows"]
    for one, many in zip(rows[1], rows[2 ** 40]):
        assert many["total_cycles"] == one["total_cycles"] * 2 ** 40
        for key in ("weight_bytes", "activation_bytes", "energy_compute_J",
                    "energy_sram_J", "energy_dram_J"):
            assert many[key] / 2 ** 40 == pytest.approx(one[key], rel=1e-3)


def test_negative_energy_cost_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"e_dram_byte": -2e-11}))
    code, _, err = run(capsys, "simulate", "toy", "--config", str(cfg))
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "e_dram_byte" in err


@pytest.mark.parametrize("overrides", [{"baseline_pe_rows": 0},
                                       {"baseline_pe_cols": -8},
                                       {"frequency_hz": 0}])
def test_nonpositive_baseline_tile_is_config_error(overrides, tmp_path,
                                                   capsys):
    # Rows 0 used to end in ZeroDivisionError; cols -8 printed negative
    # baseline cycles and exited 0.  Frequency 0, like every field, now
    # has the same one-line error naming it; it used to name no field.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(overrides))
    code, _, err = run(capsys, "simulate", "toy", "--config", str(cfg))
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert next(iter(overrides)) in err


def test_pack_unpack_roundtrip(tensor_file, tmp_path, capsys):
    packed = tmp_path / "w.bmod"
    code, out, _ = run(capsys, "pack", str(tensor_file),
                       "--dtype", "FP3_BITMOD", "--out", str(packed))
    assert code == 0 and "bits/weight" in out
    restored = tmp_path / "restored.npy"
    code, _, _ = run(capsys, "unpack", str(packed), "--out", str(restored))
    assert code == 0
    got = np.load(restored)
    want = unpack_to_tensor(packed.read_bytes())
    np.testing.assert_array_equal(got, want)
    assert got.shape == (64, 256)


@pytest.mark.parametrize("name", PACKABLE)
def test_unpack_writes_whole_tensor_float32_bytes(name, tmp_path, capsys):
    # `unpack` dequantizes a chunk of channels at a time into float32; the
    # NPY bytes are those of the whole float64 dequantization cast once.
    # 300 ragged channels of 3 groups each fill several chunks.
    w = np.random.default_rng(23).standard_normal((300, 300)) \
        .astype(np.float32)
    np.save(tmp_path / "w.npy", w)
    packed, restored = tmp_path / "w.bmod", tmp_path / "restored.npy"
    assert run(capsys, "pack", str(tmp_path / "w.npy"), "--dtype", name,
               "--out", str(packed))[0] == 0
    assert run(capsys, "unpack", str(packed), "--out", str(restored))[0] == 0
    qt, _, _ = unpack(packed.read_bytes())
    np.save(tmp_path / "want.npy", dequantize_tensor(qt).astype(np.float32))
    assert restored.read_bytes() == (tmp_path / "want.npy").read_bytes()


@pytest.mark.parametrize("shape, g, size, rate", [
    ("64x300", "128", 9876, "4.1150"),
    ("2x128", "1000000", 750032, "23438.5000"),
])
def test_pack_prints_the_files_own_rate(shape, g, size, rate, tmp_path,
                                        capsys):
    # 8 * bytes / weights counts the header, the channel scales and the
    # padding, which the nominal memory_footprint_bits (3.0781 and 3 bits
    # here) leaves out.
    w, packed = tmp_path / "w.npy", tmp_path / "w.bmod"
    assert run(capsys, "gen", "--shape", shape, "--seed", "3", "--out",
               str(w))[0] == 0
    code, out, _ = run(capsys, "pack", str(w), "--group-size", g, "--out",
                       str(packed))
    assert code == 0 and packed.stat().st_size == size
    assert out == f"wrote {packed}: {size} bytes ({rate} bits/weight)\n"


def test_pack_rejects_asymmetric(tensor_file, tmp_path, capsys):
    code, _, err = run(capsys, "pack", str(tensor_file),
                       "--dtype", "INT4_ASYM",
                       "--out", str(tmp_path / "x.bmod"))
    assert code == 1
    assert "error" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["simulate"])  # missing positional
    assert ei.value.code == 2
    with pytest.raises(SystemExit) as ei:
        main(["no-such-command"])
    assert ei.value.code == 2


@pytest.mark.parametrize("verb", ("pack", "unpack"))
def test_missing_input_file_is_one_line_error(verb, tmp_path, capsys):
    code, _, err = run(capsys, verb, str(tmp_path / "nope"),
                       "--out", str(tmp_path / "out"))
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("shape", [(2, 0), (0, 8)], ids=["no-columns",
                                                           "no-rows"])
@pytest.mark.parametrize("verb", ("quant-eval", "pack"))
def test_empty_tensor_is_one_line_error(verb, shape, tmp_path, capsys):
    path = tmp_path / "empty.npy"
    np.save(path, np.zeros(shape, dtype=np.float32))
    out = tmp_path / "out"
    code, _, err = run(capsys, verb, str(path), "--out", str(out))
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "empty" in err
    if verb == "pack":
        assert not out.exists()


def _damaged_npy_header(kind: str) -> bytes:
    """A (2, 8) float32 NPY file with one field of its header changed:
    the dict left unclosed, the format version 9.0, the dtype unknown, a
    shape of (-2, 8), (True, 8) or (0, 10^23), or 10 000 spaces more than
    numpy reads; or a 300-byte one whose header claims shape
    (10^12, 10^12)."""
    buf = io.BytesIO()
    np.save(buf, np.ones((2, 8), dtype=np.float32))
    data = buf.getvalue()
    if kind == "unclosed-header":
        return data.replace(b"}", b" ", 1)
    if kind == "long-header":  # version 2, whose length field has 4 bytes
        header = data[10:data.index(b"\n")] + b" " * 10000 + b"\n"
        return (b"\x93NUMPY\x02\x00" + struct.pack("<I", len(header))
                + header + data[data.index(b"\n") + 1:])
    if kind == "version-9":
        return data[:6] + b"\x09\x00" + data[8:]
    if kind == "unknown-dtype":
        return data.replace(b"'<f4'", b"'<f5'", 1)
    shape = b"(2, 8), }"
    changed = {"negative-dim": b"(-2, 8),}", "bool-dim": b"(True, 8), }",
               "zero-and-huge-dim": b"(0, %d), }" % 10 ** 23,
               "huge-shape": b"(%d, %d), }" % (10 ** 12, 10 ** 12)}[kind]
    # A longer shape takes the place of header padding, so the header
    # length field stays right.
    data = data.replace(shape + b" " * (len(changed) - len(shape)), changed,
                        1)
    return data + bytes(300 - len(data)) if kind == "huge-shape" else data


@pytest.mark.parametrize("kind", ["zero-bytes", "npz-archive", "bad-zip",
                                  "unclosed-header", "huge-shape",
                                  "negative-dim", "object", "bool-dim",
                                  "zero-and-huge-dim", "version-9",
                                  "unknown-dtype", "long-header",
                                  "nan-value"])
@pytest.mark.parametrize("verb", ("quant-eval", "pack"))
def test_malformed_npy_is_one_line_error(verb, kind, tmp_path, capsys):
    # These ended in an EOFError, AttributeError, BadZipFile,
    # tokenize.TokenError, MemoryError, TypeError (bool-dim) or
    # OverflowError (zero-and-huge-dim) traceback; the errors of an object
    # array, an unknown format version and an unknown dtype did not name
    # the file, and a header longer than numpy reads gave a three-line
    # error.
    path = tmp_path / "bad.npy"
    if kind == "npz-archive":
        with open(path, "wb") as fh:
            np.savez(fh, w=np.ones((2, 8), dtype=np.float32))
    elif kind == "object":
        np.save(path, np.ones((2, 8), dtype=object), allow_pickle=True)
    elif kind == "nan-value":  # well formed, but holds a NaN
        bad = np.ones((2, 8), dtype=np.float32)
        bad[1, 3] = np.nan
        np.save(path, bad)
    elif kind in ("zero-bytes", "bad-zip"):
        # "bad-zip" has a zip signature and nothing a zip reader accepts.
        path.write_bytes(b"" if kind == "zero-bytes"
                         else b"PK\x03\x04" + bytes(16))
    else:
        path.write_bytes(_damaged_npy_header(kind))
    out = tmp_path / "out"
    # quant-eval goes on to the tensors after a bad one.
    good = tmp_path / "w.npy"
    np.save(good, np.ones((2, 8), dtype=np.float32))
    inputs = (path, good) if verb == "quant-eval" else (path,)
    code, _, err = run(capsys, verb, *map(str, inputs), "--out", str(out))
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err
    if kind == "nan-value":
        assert err == f"error: {path}: tensor contains NaN/Inf\n"
    # The refusal is a FormatError, and its text is the line printed.
    with pytest.raises(FormatError) as refused:
        cli._load_npy(str(path))
    assert err == f"error: {refused.value}\n"
    if verb == "pack":
        assert not out.exists()
    else:
        rows, _ = parse_csv(out.read_text())
        assert rows and {r["tensor"] for r in rows} == {str(good)}


@pytest.mark.parametrize("overrides", [{"tiles_x": "2"},
                                       {"frequency_hz": None}])
def test_wrongly_typed_arch_config_value_is_config_error(overrides, tmp_path,
                                                         capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(overrides))
    code, _, err = run(capsys, "simulate", "toy", "--config", str(cfg))
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert next(iter(overrides)) in err


@pytest.mark.parametrize("overrides", [
    {"frequency_hz": 1e308, "dram_bandwidth_bytes_per_s": 1e-308},
    {"frequency_hz": 1e-300}], ids=["zero", "infinite"])
def test_dram_bytes_per_cycle_out_of_range_is_config_error(overrides, tmp_path,
                                                           capsys):
    # Bytes per cycle of 0 (the quotient underflows) ended in a
    # ZeroDivisionError traceback; of inf, every row had 0 DRAM cycles and
    # the run exited 0.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(overrides))
    code, _, err = run(capsys, "simulate", "toy", "--config", str(cfg))
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "bytes per cycle" in err


def test_repeated_arch_config_key_is_config_error(tmp_path, capsys):
    # The last value used to win silently.
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"tiles_x": 1, "tiles_x": 2}')
    code, _, err = run(capsys, "simulate", "toy", "--config", str(cfg))
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "repeated key 'tiles_x'" in err and str(cfg) in err


def test_arch_config_not_an_object_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    code, out, err = run(capsys, "simulate", "toy", "--config", str(cfg))
    assert (code, out) == (1, "")
    assert err == (f"error: {cfg}: expected a JSON object of ArchConfig "
                   "keys\n")


def test_unknown_arch_config_key_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tiles_x": 2, "tile_count": 9}))
    code, _, err = run(capsys, "simulate", "toy", "--config", str(cfg))
    assert code == 1
    assert err.startswith("error: ") and "tile_count" in err


@pytest.mark.parametrize("argv", [
    ("quant-eval", "w.npy", "--group-size", "0"),
    ("pack", "w.npy", "--out", "w.bmod", "--group-size", "-4"),
    ("simulate", "toy", "--group-size", "0"),
    ("simulate", "toy", "--prefill-tokens", "-1"),
    ("simulate", "toy", "--decode-tokens", "-256"),
    ("quant-eval", "w.npy", "--seed", "3"),
    ("quant-eval", "w.npy", "--dtype", "bogus"),
    ("quant-eval", "w.npy", "--dtype", ","),
    ("simulate", "toy", "--dtype", "FP3_BITMOD,bogus"),
    ("simulate", "toy", "--dtype", ","),
    ("pack", "w.npy", "--out", "w.bmod", "--dtype", "bogus"),
    ("gen", "--out", "w.npy", "--seed", "-1"),
    ("gen", "--out", "w.npy", "--shape=-2x4"),
    ("gen", "--out", "w.npy", "--shape", "0x4"),
    ("simulate", "toy", "--decode-tokens", str(2 ** 40 + 1)),
    ("simulate", "toy", "--prefill-tokens", str(2 ** 40 + 1)),
    ("simulate", "toy", "--prefill-tokens", "0", "--decode-tokens", "0"),
], ids=["quant-eval-group-size-0", "pack-group-size-negative",
        "simulate-group-size-0", "simulate-prefill-negative",
        "simulate-decode-negative", "quant-eval-seed-removed",
        "quant-eval-dtype-unknown", "quant-eval-dtype-empty",
        "simulate-dtype-unknown", "simulate-dtype-empty",
        "pack-dtype-unknown", "gen-seed-negative", "gen-shape-negative",
        "gen-shape-0", "simulate-decode-above-2^40",
        "simulate-prefill-above-2^40", "simulate-no-tokens"])
def test_out_of_range_arguments_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as ei:
        main(list(argv))
    assert ei.value.code == 2


def test_simulate_without_tokens_names_both_flags(capsys):
    # Used to print all-zero rows, an empty speedup and "(ratio infx)",
    # with exit 0.  The default decode count is 0.
    with pytest.raises(SystemExit) as ei:
        main(["simulate", "toy", "--prefill-tokens", "0"])
    assert ei.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--prefill-tokens" in captured.err
    assert "--decode-tokens" in captured.err


# ---------------------------------------------------------------------------
# fuzzing the input surfaces (shape files, --config JSON, NPY headers and
# integer arguments): every input ends in exit 0, one `error:` line and
# exit 1, or a usage error and exit 2, never a traceback
# ---------------------------------------------------------------------------

# Up to 10^150: big enough that one GEMM's figures (hidden and blocks both
# huge) or a workload's totals (hidden huge over 2^40 decode steps)
# overflow the float range.
_FUZZ_INTS = st.one_of(st.integers(-2, 300), st.integers(1, 10 ** 150))
_FUZZ_TOKENS = st.sampled_from(("0", "1", "256", str(2 ** 40)))
_FUZZ = settings(max_examples=40, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


def _cli_exit(capsys, *argv):
    """Run ``bitmod`` in-process; check that it ends in exit 0, 1 or 2
    with at most one error line, and return the exit code and stderr."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert sum("error:" in line for line in err.splitlines()) <= 1
    assert "Traceback" not in err
    return code, err


@st.composite
def _shape_texts(draw):
    lines = draw(st.lists(st.one_of(
        st.builds("{} = {}".format,
                  st.sampled_from(sorted(archsim._INT_KEYS)), _FUZZ_INTS),
        st.builds("name = {}".format, st.text(max_size=8)),
        st.text(max_size=16)), max_size=6))
    if draw(st.booleans()):  # the required keys, so most files simulate
        lines += ["name = fuzz", f"hidden = {draw(_FUZZ_INTS)}",
                  f"blocks = {draw(_FUZZ_INTS)}"]
    return "\n".join(draw(st.permutations(lines)))


@_FUZZ
@given(text=_shape_texts(), prefill=_FUZZ_TOKENS, decode=_FUZZ_TOKENS)
@example(text=f"name = x\nhidden = {10 ** 150}\nblocks = {10 ** 150}",
         prefill="256", decode="0")
@example(text=f"name = x\nhidden = {10 ** 150}\nblocks = 1", prefill="0",
         decode=str(2 ** 40))
def test_fuzzed_shape_file_ends_in_one_line_or_usage_error(
        tmp_path, capsys, text, prefill, decode):
    shape = tmp_path / "fuzz.shape"
    shape.write_text(text, encoding="utf-8")
    _cli_exit(capsys, "simulate", str(shape), "--prefill-tokens", prefill,
              "--decode-tokens", decode)


_ARCH_KEYS = [f.name for f in dataclasses.fields(archsim.ArchConfig)]


@_FUZZ
@given(text=st.one_of(
    st.dictionaries(st.sampled_from(_ARCH_KEYS + ["bogus"]),
                    st.one_of(_FUZZ_INTS, st.floats(), st.booleans(),
                              st.none(), st.text(max_size=4)),
                    max_size=4).map(json.dumps),
    st.text(max_size=12)), decode=_FUZZ_TOKENS)
@example(text=json.dumps({"e_pe_cycle": 10 ** 150, "tiles_x": 10 ** 150,
                          "pe_cols": 10 ** 150}), decode="0")
@example(text=json.dumps({"e_pe_cycle": 10 ** 150, "tiles_x": 10 ** 150}),
         decode=str(2 ** 40))
def test_fuzzed_arch_config_ends_in_one_line_or_usage_error(
        tmp_path, capsys, text, decode):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text, encoding="utf-8")
    _cli_exit(capsys, "simulate", "toy", "--config", str(cfg),
              "--decode-tokens", decode)


_NPY_DESCRS = ("'<f4'", "'<f2'", "'>f4'", "'<f8'", "'|u1'", "'|O'", "'|V0'",
               "'<U0'", "[]", "[('a', '<f4')]", "('<f4', (2,))",
               "('<f4', ())", "'<f5'", "5")
_NPY_DIMS = st.one_of(st.integers(-2, 24).map(str),
                      st.integers(0, 10 ** 30).map(str),
                      st.sampled_from(("True", "2.5", "'x'", "None")))


@st.composite
def _npy_files(draw):
    """NPY bytes: a version, a header of the three keys (some values off
    their type or range, a key sometimes missing) or of any text, a header
    length that is sometimes wrong, and up to 2 KB of data."""
    version = draw(st.sampled_from(((1, 0), (2, 0), (3, 0), (9, 9))))
    if draw(st.booleans()):
        dims = draw(st.lists(_NPY_DIMS, max_size=3))
        fields = {"descr": draw(st.sampled_from(_NPY_DESCRS)),
                  "fortran_order": draw(st.sampled_from(
                      ("False", "True", "0", "None"))),
                  "shape": "(" + "".join(f"{n}, " for n in dims) + ")"}
        keys = draw(st.permutations(sorted(fields)))[:draw(st.integers(2, 3))]
        header = "{" + ", ".join(f"'{k}': {fields[k]}" for k in keys) + "}\n"
    else:
        header = draw(st.text(max_size=40))
    text = header.encode("utf-8")
    length = draw(st.one_of(st.just(len(text)), st.integers(0, 300)))
    size = "<H" if version == (1, 0) else "<I"
    data = draw(st.one_of(st.binary(max_size=256), st.integers(0, 512).map(
        lambda n: np.linspace(-1, 1, n, dtype=np.float32).tobytes())))
    return (b"\x93NUMPY" + bytes(version) + struct.pack(size, length) + text
            + data)


@_FUZZ
@given(data=_npy_files(), verb=st.sampled_from(("quant-eval", "pack")))
def test_fuzzed_npy_header_ends_in_one_line_error(tmp_path, capsys, data,
                                                  verb):
    path = tmp_path / "fuzz.npy"
    path.write_bytes(data)
    code, err = _cli_exit(capsys, verb, str(path), "--out",
                          str(tmp_path / "out"))
    assert code in (0, 1)
    assert code == 0 or str(path) in err


# Words that int() takes (a sign, blanks, an underscore, an Arabic-Indic
# digit) or refuses (beyond its 4300-digit limit too).
_INT_WORDS = st.sampled_from(("", "x", "1.5", "0x10", "1e3", "+7", " 9 ",
                              "1_0", "\u0663", "9" * 5000))
_ANY_INT = st.one_of(st.integers(-3, 300).map(str),
                     st.integers(-10 ** 30, 10 ** 30).map(str), _INT_WORDS)
# A group size far above the channel size pads every channel to one whole
# group; up to 4096 that stays small.
_GROUP_SIZES = st.one_of(st.integers(-10 ** 30, 4096).map(str), _INT_WORDS)
# A tensor dimension: small, or so large that numpy refuses the float64
# draw before allocating it (2^61 values take 2^64 bytes, past its limit).
_DIMS = st.one_of(st.integers(-2, 64).map(str),
                  st.integers(2 ** 61, 10 ** 30).map(str), _INT_WORDS)


@st.composite
def _integer_argvs(draw):
    """A verb and its integer options, with ``{in}`` and ``{out}`` for
    the input tensor and the output path."""
    verb = draw(st.sampled_from(("gen", "quant-eval", "pack", "simulate",
                                 "bitserial-check")))
    if verb == "gen":
        return ["gen", f"--shape={draw(_DIMS)}x{draw(_DIMS)}",
                f"--seed={draw(_ANY_INT)}", "--out", "{out}"]
    if verb == "bitserial-check":
        return [verb, f"--sv-override={draw(_ANY_INT)}"]
    group_size = f"--group-size={draw(_GROUP_SIZES)}"
    if verb == "simulate":
        return [verb, "toy", group_size,
                f"--prefill-tokens={draw(_ANY_INT)}",
                f"--decode-tokens={draw(_ANY_INT)}"]
    dtype = draw(st.sampled_from(("INT8_SYM", "INT4_ASYM", "FP3_BITMOD")))
    return [verb, "{in}", group_size, f"--dtype={dtype}", "--out", "{out}"]


@_FUZZ
@given(argv=_integer_argvs())
def test_fuzzed_integer_arguments_end_in_one_line_or_usage_error(
        tmp_path, capsys, argv):
    tensor = tmp_path / "w.npy"
    np.save(tensor, np.linspace(-1, 1, 3 * 40, dtype=np.float32)
            .reshape(3, 40))
    _cli_exit(capsys, *(str({"{in}": tensor, "{out}": tmp_path / "out"}
                            .get(a, a)) for a in argv))


def test_version_mentions_backend(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["--version"])
    assert ei.value.code == 0
    out = capsys.readouterr().out
    assert "kernel backend" in out
