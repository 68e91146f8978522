import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ctclab.cli
from ctclab.cli import gradcheck_battery, main
from ctclab.config import RunConfig
from ctclab.ctc import greedy_decode, write_logits_file
from ctclab.data import generate_dataset
from ctclab.tensor import record_op
from ctclab.trainer import (
    Model,
    OptimizerState,
    checkpoint_from_model,
    evaluate,
    load_checkpoint,
    save_checkpoint,
)

TINY_CONFIG = """
model.layers=2
model.d_model=16
model.heads=2
model.d_ff=24
task.vocab=3
task.dim=6
task.train_size=32
task.dev_size=8
task.test_size=8
train.epochs=1
train.batch=8
train.seed=5
train.average_last=1
"""
# a key at a value other than its default beside a setting that ignores it
IGNORED_KEY_CONFIGS = ["loss.position=2\n", "loss.variant=random\nloss.k=2\n",
                       "model.conv_kernel=3\n"]

# dev token error rate of the tiny run above, pinned after the first
# verified run with these seeds
GOLDEN_TINY_DEV_TER = 0.59375

# the same run on a Conformer for two epochs
TINY_CONFORMER_CONFIG = (TINY_CONFIG.replace("train.epochs=1", "train.epochs=2")
                         + "model.kind=conformer\n")
# its metrics.log, pinned from the run whose Conformer layers were composed
# from tensor primitives; the fused blocks keep every float32 bit of it
GOLDEN_TINY_CONFORMER_METRICS = "1\t10.918310\t0.593750\n2\t10.935892\t0.625000\n"
# sha256 of the averaged.ckpt each of the two runs writes.  A change that
# moves a float32 bit of training re-pins both and says so in CHANGES.md.
GOLDEN_TINY_AVERAGED_SHA256 = \
    "cbe5e5e8eb5c344fc8bf138466e4558f3e6b6ce1d3c6fa9d62843a0add203701"
GOLDEN_TINY_CONFORMER_AVERAGED_SHA256 = \
    "1aaa5900cd703d028fff4d723d1bd45193445452bfd5ad4ac67f28915df19dee"


@pytest.fixture
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    config = out / "run.cfg"
    config.write_text(TINY_CONFIG)
    assert main(["train", "--config", str(config), "--out", str(out)]) == 0
    return out


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def thread_vars_after_import(**preset):
    """The BLAS and OpenMP thread variables as a fresh interpreter sees them
    after `import ctclab.cli`, with the six unset but for `preset`."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(preset)
    env["PYTHONPATH"] = str(Path(ctclab.cli.__file__).resolve().parents[1])
    code = ("import json, os, ctclab.cli; "
            f"print(json.dumps({{k: os.environ.get(k) for k in {THREAD_VARS!r}}}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


class TestBlasThreads:
    def test_unset_variables_pinned_to_one(self):
        assert thread_vars_after_import() == {k: "1" for k in THREAD_VARS}

    def test_user_value_kept(self):
        seen = thread_vars_after_import(OPENBLAS_NUM_THREADS="2")
        assert seen["OPENBLAS_NUM_THREADS"] == "2"
        assert all(seen[k] == "1" for k in THREAD_VARS if k != "OPENBLAS_NUM_THREADS")


class TestTrain:
    def test_writes_checkpoints_and_metrics(self, tiny_run, capsys):
        assert (tiny_run / "epoch_0.ckpt").exists()
        assert (tiny_run / "epoch_1.ckpt").exists()
        assert (tiny_run / "averaged.ckpt").exists()
        log = (tiny_run / "metrics.log").read_text().strip().split("\t")
        assert log[0] == "1" and len(log) == 3
        assert sha256(tiny_run / "averaged.ckpt") == GOLDEN_TINY_AVERAGED_SHA256

    def test_golden_conformer_metrics_pinned_seed(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(TINY_CONFORMER_CONFIG)
        assert main(["train", "--config", str(config), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "metrics.log").read_text() == GOLDEN_TINY_CONFORMER_METRICS
        assert sha256(tmp_path / "averaged.ckpt") == GOLDEN_TINY_CONFORMER_AVERAGED_SHA256

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["train", "--config", str(tmp_path / "none.cfg"),
                     "--out", str(tmp_path)])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_key_named(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("model.depth=3\n")
        code = main(["train", "--config", str(config), "--out", str(tmp_path)])
        assert code == 1
        assert "model.depth" in capsys.readouterr().err

    def test_config_with_no_drawable_utterance_rejected(self, tmp_path, capsys):
        # one token id and one frame per token: generation would never end;
        # two token ids and 40 one-frame tokens: one draw in 2**39 fits
        for text in ("task.vocab=1\ntask.min_duration=1\ntask.max_duration=1\n",
                     "task.vocab=2\ntask.min_duration=1\ntask.max_duration=1\n"
                     "task.min_label=40\ntask.max_label=40\n"):
            config = tmp_path / "bad.cfg"
            config.write_text(text)
            code = main(["train", "--config", str(config), "--out", str(tmp_path / "out")])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", [
        "loss.variant=lower\nloss.position=9\n",
        "loss.variant=multiple\nloss.k=9\n",
        *IGNORED_KEY_CONFIGS,
        "model.layers=1\n",
        "task.train_size=0\n",
        "task.dev_size=0\n",
        "train.seed=-1\n",
        "task.seed=-1\n",
    ])
    def test_config_rejected_before_any_output(self, tmp_path, text, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text(text)
        out = tmp_path / "out"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        if "seed" in text or text in IGNORED_KEY_CONFIGS:
            assert text.splitlines()[-1].partition("=")[0] in err
        assert not out.exists()

    def test_missing_required_argument(self, capsys):
        assert main(["train", "--out", "somewhere"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_divergence_exits_two_with_one_line(self, tmp_path):
        # a fresh interpreter, so every line numpy would print reaches stderr
        config = tmp_path / "run.cfg"
        config.write_text(TINY_CONFIG)
        argv = ["train", "--config", str(config), "--out", str(tmp_path / "out")]
        code = ("import sys, ctclab.trainer; ctclab.trainer.PEAK_LR_FACTOR = 1e30; "
                f"from ctclab.cli import main; sys.exit(main({argv!r}))")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(ctclab.cli.__file__).resolve().parents[1]))
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True)
        assert run.returncode == 2
        assert run.stderr.startswith("training diverged: ")
        assert run.stderr.count("\n") == 1

    def test_dev_decode_overflow_exits_two_with_one_line(self, tmp_path, monkeypatch,
                                                         capsys):
        # the last of the epoch's four updates leaves a finite weight so
        # large that the dev decode's forward overflows
        init, update = OptimizerState.init, OptimizerState.apply_gradients
        params = {}

        def recording(packed, d_model):
            params.update(packed)
            return init(packed, d_model)

        def poisoning(state):
            update(state)
            if state.step == 4:
                params["encoder.layer1.ffn.w1"].data[...] = 3e38
        monkeypatch.setattr(OptimizerState, "init", recording)
        monkeypatch.setattr(OptimizerState, "apply_gradients", poisoning)
        config = tmp_path / "run.cfg"
        config.write_text(TINY_CONFIG)
        assert main(["train", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("training diverged: non-finite value in the dev decode "
                              "after epoch 1") and err.count("\n") == 1


class TestFileErrors:
    @pytest.mark.parametrize("argv", [
        ["eval", "--checkpoint", "{dir}"],
        ["decode", "--logits", "{dir}"],
        ["average", "--inputs", "{dir}", "--out", "{dir}/avg.ckpt"],
        ["train", "--config", "{dir}", "--out", "{dir}/out"],
        ["train", "--config", "{file}", "--out", "{file}"],
    ], ids=["eval_checkpoint_dir", "decode_logits_dir", "average_inputs_dir",
            "train_config_dir", "train_out_is_file"])
    def test_exit_one_with_one_line(self, tmp_path, argv, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(TINY_CONFIG)
        argv = [arg.format(dir=tmp_path, file=config) for arg in argv]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestEval:
    def test_matches_library_evaluation(self, tiny_run, capsys):
        code = main(["eval", "--checkpoint", str(tiny_run / "epoch_1.ckpt"),
                     "--split", "dev"])
        assert code == 0
        printed = capsys.readouterr().out.strip()
        ckpt = load_checkpoint(tiny_run / "epoch_1.ckpt")
        cfg = RunConfig.parse(ckpt.config_echo)
        expect = evaluate(ckpt, generate_dataset(cfg.task, "dev")).rate
        assert printed == f"dev_ter={expect:.6f}"

    def test_golden_rate_pinned_seed(self, tiny_run, capsys):
        main(["eval", "--checkpoint", str(tiny_run / "epoch_1.ckpt"),
              "--split", "dev"])
        printed = capsys.readouterr().out.strip()
        assert printed == f"dev_ter={GOLDEN_TINY_DEV_TER:.6f}"

    def test_corrupted_magic(self, tiny_run, capsys):
        bad = tiny_run / "bad.ckpt"
        blob = bytearray((tiny_run / "epoch_1.ckpt").read_bytes())
        blob[:4] = b"JUNK"
        bad.write_bytes(bytes(blob))
        assert main(["eval", "--checkpoint", str(bad)]) == 1
        assert "magic" in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt", [lambda good: b"ICTC\x01\x00",
                                         lambda good: good + b"\x00" * 7],
                             ids=["six_byte_header", "seven_trailing_bytes"])
    def test_truncated_or_padded_checkpoint(self, tiny_run, corrupt, capsys):
        bad = tiny_run / "bad.ckpt"
        bad.write_bytes(corrupt((tiny_run / "epoch_1.ckpt").read_bytes()))
        assert main(["eval", "--checkpoint", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestMalformedCheckpoint:
    @pytest.mark.parametrize("damage, named", [
        (lambda blob: blob[:4] + struct.pack("<I", 2) + blob[8:],
         "unsupported checkpoint version 2"),
        (lambda blob: blob.replace(b"encoder.layer1.ffn.w2", b"encoder.layer1.ffn.w1"),
         "duplicate parameter name 'encoder.layer1.ffn.w1'"),
    ], ids=["version_2", "repeated_name"])
    def test_eval_rejects(self, tmp_path, damage, named, capsys):
        cfg = RunConfig.parse(TINY_CONFIG)
        path = tmp_path / "bad.ckpt"
        save_checkpoint(path, checkpoint_from_model(Model.from_run_config(cfg),
                                                    cfg.to_text()))
        path.write_bytes(damage(path.read_bytes()))
        assert main(["eval", "--checkpoint", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err


class TestNonFiniteCheckpoint:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                             ids=["nan", "+inf", "-inf"])
    def test_eval_and_average_reject(self, tmp_path, value, capsys):
        cfg = RunConfig.parse(TINY_CONFIG)
        ckpt = checkpoint_from_model(Model.from_run_config(cfg), cfg.to_text())
        ckpt.params["encoder.layer1.ffn.w1"][2, 3] = value
        poisoned, out = tmp_path / "poisoned.ckpt", tmp_path / "avg.ckpt"
        save_checkpoint(poisoned, ckpt)
        for argv in (["eval", "--checkpoint", str(poisoned)],
                     ["average", "--inputs", str(poisoned), "--out", str(out)]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "'encoder.layer1.ffn.w1'" in err
        assert not out.exists()

    def test_eval_overflowing_weights_exits_one_with_one_line(self, tmp_path, capsys):
        # every weight is finite, but the first forward overflows
        cfg = RunConfig.parse(TINY_CONFIG)
        ckpt = checkpoint_from_model(Model.from_run_config(cfg), cfg.to_text())
        ckpt.params["encoder.layer1.ffn.w1"][...] = 3e38
        path = tmp_path / "huge.ckpt"
        save_checkpoint(path, ckpt)
        assert main(["eval", "--checkpoint", str(path)]) == 1
        assert capsys.readouterr().err == "error: op produced a non-finite value\n"


class TestDecode:
    def test_uniform_grid_ties_resolve_to_blank(self, tmp_path, capsys):
        # all rows tie; the lowest id (blank) wins, so the output is empty
        path = tmp_path / "grid.txt"
        write_logits_file(path, np.full((2, 2), -np.log(2.0)))
        assert main(["decode", "--logits", str(path)]) == 0
        assert capsys.readouterr().out == "\n"

    def test_round_trip_with_random_grid(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(7, 4))
        grid = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        path = tmp_path / "grid.txt"
        write_logits_file(path, grid)
        assert main(["decode", "--logits", str(path)]) == 0
        printed = capsys.readouterr().out.split()
        assert [tuple(int(t) for t in printed)] == greedy_decode(grid[None])

    @pytest.mark.parametrize("row", ["nan 0 0", "0 inf 0", "+inf 0 0"])
    def test_nan_and_positive_infinity_rejected(self, tmp_path, row, capsys):
        path = tmp_path / "grid.txt"
        path.write_text(f"1 2\n{row}\n")
        assert main(["decode", "--logits", str(path)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_negative_infinity_accepted(self, tmp_path, capsys):
        path = tmp_path / "grid.txt"
        path.write_text("2 2\n-inf 0 -inf\n-inf -inf 0\n")
        assert main(["decode", "--logits", str(path)]) == 0
        assert capsys.readouterr().out == "1 2\n"

    def test_rows_past_header_length_rejected(self, tmp_path, capsys):
        path = tmp_path / "grid.txt"
        path.write_text("1 1\n0 -1\n-1 0\n-1 0\n")
        assert main(["decode", "--logits", str(path)]) == 1
        err = capsys.readouterr().err
        assert "line 3" in err and err.count("\n") == 1

    def test_trailing_blank_lines_accepted(self, tmp_path, capsys):
        path = tmp_path / "grid.txt"
        path.write_text("1 1\n-1 0\n\n  \n")
        assert main(["decode", "--logits", str(path)]) == 0
        assert capsys.readouterr().out == "1\n"

    @pytest.mark.parametrize("text, named", [
        ("2 x\n0 0 0\n0 0 0\n", "non-integer header"),
        ("0 2\n", "must be positive"),
        ("3 1\n0 -1\n-1 0", "expected 3 rows of log-probabilities, got 2"),
    ], ids=["non_integer_header", "zero_extent", "fewer_rows_than_T"])
    def test_bad_header_or_row_count_rejected(self, tmp_path, text, named, capsys):
        path = tmp_path / "grid.txt"
        path.write_text(text)
        assert main(["decode", "--logits", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err

    def test_malformed_header(self, tmp_path, capsys):
        path = tmp_path / "grid.txt"
        path.write_text("3\n0 0\n0 0\n0 0\n")
        assert main(["decode", "--logits", str(path)]) == 1


class TestGradcheckCommand:
    def test_small_scale_passes_quickly(self, capsys):
        import time
        start = time.perf_counter()
        assert main(["gradcheck", "--scale", "small"]) == 0
        assert time.perf_counter() - start < 10.0
        out = capsys.readouterr().out
        assert "9/9 passed" in out
        assert "FAIL" not in out

    def test_report_lists_per_parameter_errors(self, capsys):
        assert main(["gradcheck", "--scale", "small", "--verbose"]) == 0
        out = capsys.readouterr().out
        # per-parameter lines appear under the per-check summaries
        assert "max_rel_error" in out
        assert any(line.startswith("    ") for line in out.splitlines())

    def test_sign_flipped_backward_detected(self, capsys, monkeypatch):
        # mutation test: flip the sign of the fused conv module's backward
        # (its forward unchanged) and the suite must fail
        conv_module = ctclab.cli._conv_module

        def sign_flipped(*args):
            out = conv_module(*args)
            return record_op(out.data, (out,), lambda g: (-g,))

        monkeypatch.setattr(ctclab.cli, "_conv_module", sign_flipped)
        assert main(["gradcheck", "--scale", "small"]) == 2
        assert "FAIL conv_module" in capsys.readouterr().out


class TestOracleCommand:
    def test_two_hundred_trials_pass(self, capsys):
        assert main(["oracle", "--trials", "200"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_seeded_reproducibility(self, capsys):
        assert main(["oracle", "--trials", "50", "--seed", "11"]) == 0
        first = capsys.readouterr().out
        assert main(["oracle", "--trials", "50", "--seed", "11"]) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_no_trials_is_a_usage_error(self, trials, capsys):
        assert main(["oracle", "--trials", trials]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: ") and captured.err.count("\n") == 1


class TestAverageCommand:
    def test_delegates_to_trainer_averaging(self, tiny_run, tmp_path, capsys):
        out = tmp_path / "avg.ckpt"
        code = main(["average",
                     "--inputs", str(tiny_run / "epoch_0.ckpt"),
                     str(tiny_run / "epoch_1.ckpt"), "--out", str(out)])
        assert code == 0
        averaged = load_checkpoint(out)
        a = load_checkpoint(tiny_run / "epoch_0.ckpt")
        b = load_checkpoint(tiny_run / "epoch_1.ckpt")
        for name in a.params:
            expect = np.stack([a.params[name].astype(np.float64),
                               b.params[name].astype(np.float64)]) \
                .mean(axis=0).astype(np.float32)
            np.testing.assert_array_equal(averaged.params[name], expect)

    def test_mismatched_inputs_rejected(self, tiny_run, tmp_path, capsys):
        other_cfg = tmp_path / "other.cfg"
        other_cfg.write_text(TINY_CONFIG + "model.d_model=24\n")
        other_dir = tmp_path / "other"
        assert main(["train", "--config", str(other_cfg),
                     "--out", str(other_dir)]) == 0
        code = main(["average",
                     "--inputs", str(tiny_run / "epoch_1.ckpt"),
                     str(other_dir / "epoch_1.ckpt"),
                     "--out", str(tmp_path / "avg.ckpt")])
        assert code == 1
