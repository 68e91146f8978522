import numpy as np
import pytest

import ctclab.cli
from ctclab.cli import gradcheck_battery, main
from ctclab.config import RunConfig
from ctclab.ctc import greedy_decode, write_logits_file
from ctclab.data import generate_dataset
from ctclab.tensor import record_op
from ctclab.trainer import evaluate, load_checkpoint

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

# dev token error rate of the tiny run above, pinned after the first
# verified run with these seeds
GOLDEN_TINY_DEV_TER = 0.59375

# the same run on a Conformer for two epochs
TINY_CONFORMER_CONFIG = (TINY_CONFIG.replace("train.epochs=1", "train.epochs=2")
                         + "model.kind=conformer\n")
# its metrics.log, pinned from the run whose Conformer layers were composed
# from tensor primitives; the fused blocks keep every float32 bit of it
GOLDEN_TINY_CONFORMER_METRICS = "1\t10.918310\t0.593750\n2\t10.935892\t0.625000\n"


@pytest.fixture
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    config = out / "run.cfg"
    config.write_text(TINY_CONFIG)
    assert main(["train", "--config", str(config), "--out", str(out)]) == 0
    return out


class TestTrain:
    def test_writes_checkpoints_and_metrics(self, tiny_run, capsys):
        assert (tiny_run / "epoch_0.ckpt").exists()
        assert (tiny_run / "epoch_1.ckpt").exists()
        assert (tiny_run / "averaged.ckpt").exists()
        log = (tiny_run / "metrics.log").read_text().strip().split("\t")
        assert log[0] == "1" and len(log) == 3

    def test_golden_conformer_metrics_pinned_seed(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(TINY_CONFORMER_CONFIG)
        assert main(["train", "--config", str(config), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "metrics.log").read_text() == GOLDEN_TINY_CONFORMER_METRICS

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

    def test_missing_required_argument(self, capsys):
        assert main(["train", "--out", "somewhere"]) == 1
        assert "usage error" in capsys.readouterr().err


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
        assert tuple(int(t) for t in printed) == greedy_decode(grid)

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
        assert "10/10 passed" in out
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

        def sign_flipped(x, norm, p):
            out = conv_module(x, norm, p)
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
