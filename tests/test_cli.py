import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from hatlm import checkpoint, config, infer, metrics, model
from hatlm.cli import main

from conftest import DATA, REPO, write_hatckpt2


def run_cli(*args):
    """Run the CLI in-process, capturing stdout."""
    import contextlib
    import io
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(args))
    return code, buf.getvalue()


def test_split_text():
    code, out = run_cli("split", "--text", "FooBar")
    assert code == 0 and out == "Foo\nBar\n"


def test_split_offsets():
    code, out = run_cli("split", "--text", "Hello, world!", "--offsets")
    assert code == 0 and out == "0:6\n6:13\n"


def test_count_params_matches_library():
    code, out = run_cli("count-params", "--config", "table1", "--format", "kv")
    assert code == 0
    kv = dict(line.split("=") for line in out.splitlines())
    want = model.count_params(config.table1())
    assert int(kv["encoder"]) == want["encoder"] == 119_291_904
    assert int(kv["backbone"]) == want["backbone"]
    assert int(kv["total"]) == 7_192_495_104


def test_count_params_from_cfg_file():
    code, out = run_cli("count-params", "--config", str(DATA / "table2.cfg"),
                        "--format", "kv")
    assert code == 0
    assert "total=69302847488" in out


def test_compress_matches_library(tmp_path):
    f = tmp_path / "c.txt"
    f.write_bytes(b"Hello world")
    code, out = run_cli("compress", str(f), "--format", "kv")
    assert code == 0
    rep = metrics.compression_report([f])
    assert f"bytes_per_position={rep.bytes_per_position:.4f}" in out


def test_generate_deterministic(tmp_path):
    ckpt = tmp_path / "toy.ckpt"
    cfg = config.micro()
    checkpoint.save(ckpt, cfg, model.init_params(cfg, seed=2))
    args = ("generate", "--ckpt", str(ckpt), "--prompt", "ab", "--max-bytes", "16",
            "--greedy", "--seed", "7", "--hex")
    out1 = run_cli(*args)
    out2 = run_cli(*args)
    assert out1 == out2 and out1[0] == 0


def test_generate_matches_library(tmp_path):
    from hatlm import infer
    ckpt = tmp_path / "toy.ckpt"
    cfg = config.micro()
    params = model.init_params(cfg, seed=2)
    checkpoint.save(ckpt, cfg, params)
    code, out = run_cli("generate", "--ckpt", str(ckpt), "--prompt", "ab",
                        "--max-bytes", "12", "--greedy", "--hex")
    s = infer.GenSession(params, cfg, infer.SamplingConfig("greedy"), max_new_bytes=12)
    infer.generate(s, b"ab")
    assert out.strip() == bytes(s.generated).hex()


def test_ckpt_roundtrip_command(tmp_path):
    code, out = run_cli("ckpt-roundtrip", "--config", "micro", "--seed", "5",
                        "--out", str(tmp_path / "rt.ckpt"))
    assert code == 0 and "forward=bit-exact" in out


def test_train_toy_quick(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes(b"abcabcabc " * 12)
    curve = tmp_path / "curve.tsv"
    ckpt = tmp_path / "trained.ckpt"
    metrics_path = tmp_path / "metrics.jsonl"
    code, out = run_cli("train-toy", "--config", "micro", "--corpus", str(corpus),
                        "--steps", "8", "--warmup", "2", "--decay", "2",
                        "--seq-len", "64", "--save", str(ckpt),
                        "--loss-curve", str(curve), "--metrics", str(metrics_path))
    assert code == 0 and "final_loss=" in out
    assert len(curve.read_text().splitlines()) == 8
    rows = [json.loads(line) for line in metrics_path.read_text().splitlines()]
    assert [row["step"] for row in rows] == list(range(8))
    for row in rows:
        assert set(row) == {"step", "loss", "lr", "grad_norm", "bytes_per_s", "peak_rss_mb"}
        assert all(math.isfinite(v) for v in row.values())
        assert row["grad_norm"] > 0 and row["bytes_per_s"] > 0 and row["peak_rss_mb"] > 0
    rss = [row["peak_rss_mb"] for row in rows]
    assert rss == sorted(rss)       # a peak never falls
    cfg2, params2 = checkpoint.load(ckpt)
    assert set(params2) == set(model.param_shapes(cfg2))


def test_train_toy_cuts_documents_between_codepoints(tmp_path):
    # at 52 bytes a raw cut would split a 2-byte codepoint of the German text
    code, out = run_cli("train-toy", "--config", "micro", "--corpus",
                        str(DATA / "german_sample.txt"), "--steps", "2", "--warmup", "1",
                        "--decay", "1", "--seq-len", "52")
    assert code == 0 and "final_loss=" in out


def test_train_toy_names_seq_len_when_a_codepoint_cannot_fit(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes("a€b€c".encode() * 3)
    code, _ = run_cli("train-toy", "--config", "micro", "--corpus", str(corpus),
                      "--steps", "1", "--seq-len", "2")
    err = capsys.readouterr().err
    assert code == 1 and "seq_len 2" in err and "offset 1" in err


@pytest.mark.parametrize("args,field", [
    (("--lr", "nan"), "stable_lr"), (("--lr", "-1"), "stable_lr"), (("--lr", "inf"), "stable_lr"),
    (("--steps", "-3"), "steps"), (("--warmup", "-1"), "warmup_steps")])
def test_train_toy_refuses_what_it_cannot_train(tmp_path, capsys, args, field):
    # it once wrote a NaN checkpoint, trained uphill or printed steps=-3, and exited 0
    ckpt = tmp_path / "x.npz"
    code, out = run_cli("train-toy", "--corpus", str(DATA / "overfit_ascii.txt"),
                        "--steps", "1", *args, "--save", str(ckpt))
    err = capsys.readouterr().err
    assert (code, out) == (1, "") and not ckpt.exists()
    assert err.startswith(f"error: {field} must ") and err.count("\n") == 1


@pytest.mark.parametrize("policy,message", [
    ("backbone.lr_multiplier=nan\n", "lr multipliers must be finite and positive"),
    ("backbone.frozen_until_step=2\nbackbone.frozen_until_step=x\n",
     "line 2: policy key backbone.frozen_until_step given twice")])
def test_train_toy_refuses_a_policy_it_cannot_use(tmp_path, capsys, policy, message):
    # a NaN multiplier once took step 0's update and died at step 1 with
    # "loss diverged to nan", naming neither the policy nor the key
    path, ckpt = tmp_path / "policy.txt", tmp_path / "x.npz"
    path.write_text(policy)
    code, out = run_cli("train-toy", "--corpus", str(DATA / "overfit_ascii.txt"),
                        "--steps", "2", "--policy", str(path), "--save", str(ckpt))
    assert (code, out) == (1, "") and not ckpt.exists()
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("temperature", ["nan", "inf", "0"])
def test_generate_refuses_a_temperature_that_is_not_finite_and_positive(capsys, temperature):
    code, out = run_cli("generate", "--prompt", "hi", "--temperature", temperature)
    assert (code, out) == (1, "")
    assert capsys.readouterr().err.startswith("error: temperature must be finite and positive")


def test_count_params_refuses_a_config_key_given_twice(tmp_path, capsys):
    path = tmp_path / "twice.cfg"
    path.write_text((DATA / "micro.cfg").read_text() + "encoder.n_layers=7\n")
    code, out = run_cli("count-params", "--config", str(path))
    assert (code, out) == (1, "")
    assert "config key encoder.n_layers given twice" in capsys.readouterr().err


def test_bench_sched_outputs_accounting(tmp_path):
    prompts = tmp_path / "prompts.txt"
    prompts.write_text("hello there\nsecond one\n")
    trace = tmp_path / "trace.log"
    code, out = run_cli("bench-sched", "--config", "micro", "--seed", "3",
                        "--prompts", str(prompts), "--policy", "boundary_sync",
                        "--max-bytes", "32", "--trace", str(trace))
    assert code == 0
    kv = dict(line.split("=") for line in out.splitlines())
    assert int(kv["backbone_calls"]) == (int(kv["gen_word_closes"])
                                         + int(kv["prefill_words"])
                                         + int(kv["sessions"]))
    assert trace.read_text().startswith("0\ts0=P s1=P")
    for key in ("prefill_s", "prefill_bytes_per_s", "gen_s", "gen_bytes_per_s",
                "gap_ms_p50", "gap_ms_p95"):
        assert float(kv[key]) > 0, key
    assert float(kv["gap_ms_p50"]) <= float(kv["gap_ms_p95"])
    # 32 bytes per session, so at least 31 byte ticks; each holds one or both
    ticks = trace.read_text().splitlines()[1:]
    byte_ticks = [t.count("=B:") for t in ticks if "=B:" in t]
    assert float(kv["byte_batch_mean"]) == pytest.approx(np.mean(byte_ticks), abs=1e-4)
    assert 1 <= float(kv["byte_batch_mean"]) <= 2 and len(byte_ticks) >= 31
    # the ticks that ran a word step (4 closes at seed 3), and their median wall time
    assert int(kv["word_ticks"]) == sum("=W" in t for t in ticks) >= 1
    assert float(kv["word_tick_ms_p50"]) > 0


def test_zero_byte_budget_generates_nothing(tmp_path):
    code, out = run_cli("generate", "--config", "micro", "--prompt", "hello wor",
                        "--max-bytes", "0", "--greedy", "--hex")
    assert (code, out) == (0, "\n")
    prompts = tmp_path / "prompts.txt"
    prompts.write_text("hello wor\nsecond\n")
    code, out = run_cli("bench-sched", "--config", "micro", "--prompts", str(prompts),
                        "--max-bytes", "0")
    kv = dict(line.split("=") for line in out.splitlines())
    assert code == 0 and (kv["generated_bytes"], kv["ticks"]) == ("0", "0")
    assert kv["gap_ms_p50"] == kv["gap_ms_p95"] == "nan" and kv["byte_batch_mean"] == "0.0000"
    assert (kv["word_ticks"], kv["word_tick_ms_p50"]) == ("0", "nan")


def test_generate_out_of_byte_positions_writes_its_bytes_then_exits_1(tmp_path, capsys,
                                                                       micro_cfg):
    # the step that finds no byte position fails after the bytes before it
    cfg = replace(micro_cfg, encoder=replace(micro_cfg.encoder, max_positions=24),
                  decoder=replace(micro_cfg.decoder, max_positions=24))
    path = tmp_path / "short.cfg"
    path.write_text(config.to_text(cfg))
    code, out = run_cli("generate", "--config", str(path), "--prompt", "hi", "--max-bytes", "64",
                        "--greedy", "--hex")
    s = infer.GenSession(model.init_params(cfg, seed=0), cfg, infer.SamplingConfig("greedy"),
                         max_new_bytes=64)
    with pytest.raises(infer.SessionError, match="byte positions exhausted"):
        infer.generate(s, b"hi")
    assert len(s.generated) == 22
    assert (code, out) == (1, bytes(s.generated).hex() + "\n")
    assert capsys.readouterr().err == "error: byte positions exhausted (24)\n"


@pytest.mark.parametrize("command", ["generate", "bench-sched"])
def test_negative_byte_budget_exits_1(tmp_path, capsys, command):
    prompts = tmp_path / "prompts.txt"
    prompts.write_text("hello\n")
    where = ("--prompt", "hello") if command == "generate" else ("--prompts", str(prompts))
    code, out = run_cli(command, "--config", "micro", *where, "--max-bytes", "-3")
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == "error: max_new_bytes must be >= 0, got -3\n"


def test_bench_sched_names_the_prompt_that_is_not_utf8(tmp_path, capsys):
    # the file is read as bytes, so the bad line reaches prefill_all, which
    # names its session and the splitter's offset
    prompts = tmp_path / "prompts.txt"
    prompts.write_bytes(b"hello there\n\n  \nab\xff cd\n")
    code, out = run_cli("bench-sched", "--config", "micro", "--prompts", str(prompts),
                        "--max-bytes", "4")
    assert code == 1 and out == ""
    assert capsys.readouterr().err == "error: s1: invalid UTF-8 at byte offset 2\n"


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["split"])  # neither --text nor --file
    assert exc.value.code == 2


def test_operational_error_exits_1(tmp_path):
    code, _ = run_cli("compress", str(tmp_path / "missing.txt"))
    assert code == 1


@pytest.mark.parametrize("flag", ["--ckpt", "--config"])
def test_malformed_model_input_exits_1(tmp_path, capsys, micro_cfg, micro_params, flag):
    if flag == "--ckpt":
        path = tmp_path / "no_head.ckpt"
        params = {k: v for k, v in micro_params.items() if k != "decoder.lm_head"}
        checkpoint.save(path, micro_cfg, params)
    else:
        path = tmp_path / "bad.cfg"
        path.write_text(config.to_text(micro_cfg).replace(
            "encoder.n_kv_heads=1", "encoder.n_kv_heads=0"))
    code, out = run_cli("generate", flag, str(path), "--prompt", "hi", "--max-bytes", "2")
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("edit", ["max_word_bytes=none", "norm_eps=none", "norm_eps=nan",
                                  "softcap=0.0", "softcap=nan", "backbone.mlp_expansion=inf",
                                  "backbone.window=4"])
def test_bad_config_value_exits_1(tmp_path, capsys, micro_cfg, edit):
    key = edit.split("=")[0]
    path = tmp_path / "bad.cfg"
    path.write_text("".join(edit + "\n" if ln.startswith(key + "=") else ln + "\n"
                            for ln in config.to_text(micro_cfg).splitlines()))
    code, out = run_cli("generate", "--config", str(path), "--prompt", "hi", "--max-bytes", "2")
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert err.startswith(f"error: {key} ") and err.count("\n") == 1


def test_old_checkpoint_format_exits_1(tmp_path, capsys, micro_cfg, micro_params):
    path = tmp_path / "old.ckpt"
    write_hatckpt2(path, micro_cfg, micro_params)
    code, out = run_cli("generate", "--ckpt", str(path), "--prompt", "hi", "--max-bytes", "2")
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert err.startswith("error: unsupported HATCKPT2") and err.count("\n") == 1


@pytest.mark.parametrize("args", [("split", "--text"),
                                  ("generate", "--config", "micro", "--max-bytes", "2",
                                   "--prompt")], ids=["split", "generate"])
def test_undecodable_argument_reports_its_offset(capsys, args):
    # an argv byte that is not UTF-8 arrives as a lone surrogate; it goes
    # back to its byte, which the splitter refuses with its offset
    code, out = run_cli(*args, "a\udcff")
    assert code == 1 and out == ""
    assert capsys.readouterr().err == "error: invalid UTF-8 at byte offset 1\n"


def test_console_entrypoint_runs():
    # the child process does not inherit pytest's `pythonpath` setting
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-m", "hatlm.cli", "split", "--text", "ab cd"],
                         capture_output=True, text=True, cwd=REPO,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.returncode == 0
    assert out.stdout == "ab\n cd\n"
