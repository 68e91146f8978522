"""Each check in reference.py passes on ctclab's real output and rejects a
deliberately corrupted copy of it; the tracer survives a missing function;
BENCHMARK.json names what the runs report.  Run with
`python3 -m pytest bench -q`."""
import json
import signal
import time

import numpy as np
import pytest

import reference
import run
import tracing
from ctclab import ctc, data, objective, trainer
from ctclab.config import RunConfig

TINY = ("model.layers=2\nmodel.d_model=16\nmodel.heads=2\nmodel.d_ff=24\n"
        "task.train_size=16\ntask.dev_size=8\ntask.test_size=12\ntrain.seed=3\n")


@pytest.fixture(scope="module")
def cfg():
    return RunConfig.parse(TINY)


@pytest.fixture(scope="module")
def model(cfg):
    return trainer.Model.from_run_config(cfg)


def test_decode_check_rejects_a_changed_hypothesis_or_rate(cfg, model, tmp_path):
    path = tmp_path / "model.ckpt"
    trainer.save_checkpoint(path, trainer.checkpoint_from_model(model, cfg.to_text()))
    dataset = data.generate_dataset(cfg.task, "test")
    result = trainer.evaluate(trainer.load_checkpoint(path), dataset)
    blob = path.read_bytes()
    assert reference.check_decode(blob, dataset, result.decodes, result.rate) == ([], 0)

    changed = list(result.decodes)
    changed[3] = changed[3] + (1,)
    assert reference.check_decode(blob, dataset, changed, result.rate)[0]
    assert reference.check_decode(blob, dataset, result.decodes, result.rate + 1e-9)[0]


def test_a_near_tie_excuses_only_its_own_frame():
    clear, tied = -5.0, -1e-4
    log_post = np.array([[clear, 0.0, clear, clear],   # 1, clearly
                         [0.0, clear, tied, clear],    # blank or 2
                         [clear, clear, clear, 0.0]])  # 3, clearly
    assert reference.greedy(log_post) == (1, 3)
    assert reference.greedy_with_ties(log_post, (1, 3))
    assert reference.greedy_with_ties(log_post, (1, 2, 3))
    assert not reference.greedy_with_ties(log_post, (1, 2))
    assert not reference.greedy_with_ties(log_post, (2, 3))
    assert not reference.greedy_with_ties(log_post, (1, 3, 3))


def test_ctc_check_rejects_a_perturbed_loss_or_gradient():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(9, 4))
    grid = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    labels = (1, 3, 3)
    loss, dgrid = ctc.ctc_forward_backward(grid, labels)
    assert reference.check_ctc([(grid, labels, loss, dgrid)]) == []

    assert reference.check_ctc([(grid, labels, loss * (1 + 1e-4), dgrid)])
    moved = dgrid.copy()
    moved[4, 0] += 1e-3  # keeps the row sum at -1
    moved[4, 1] -= 1e-3
    assert reference.check_ctc([(grid, labels, loss, moved)])
    assert reference.check_ctc([(grid, labels, loss, dgrid * 1.001)])


def test_gradient_check_rejects_a_perturbed_gradient(cfg):
    model64 = trainer.Model.from_run_config(cfg, dtype=np.float64)
    utts = data.generate_dataset(cfg.task, "train")[:2]
    spec = cfg.loss_spec()
    plan = objective.plan_step(spec, cfg.layers, np.random.default_rng(0))
    loss_at, params, grads = run.tape_gradient(model64, utts, spec, plan)
    assert reference.check_directional_gradient(
        loss_at, params, grads, np.random.default_rng(1)) == []

    scaled = {name: g * 1.01 for name, g in grads.items()}
    assert reference.check_directional_gradient(
        loss_at, params, scaled, np.random.default_rng(1))


def test_average_check_rejects_a_flipped_payload_byte(cfg, model, tmp_path):
    paths = []
    for seed in (4, 5, 6):
        other = trainer.Model.from_run_config(RunConfig.parse(TINY + f"train.seed={seed}\n"))
        paths.append(tmp_path / f"{seed}.ckpt")
        trainer.save_checkpoint(paths[-1], trainer.checkpoint_from_model(other, cfg.to_text()))
    averaged = tmp_path / "averaged.ckpt"
    trainer.save_checkpoint(averaged, trainer.average_checkpoints(paths))
    window = [p.read_bytes() for p in paths]
    blob = averaged.read_bytes()
    assert reference.check_average(window, blob) == []

    flipped = bytearray(blob)
    first_payload = 4 + 8 + 4 + len("encoder.frontend.weight") + 1 + 8
    flipped[first_payload + 5] ^= 0xFF
    assert reference.check_average(window, bytes(flipped))
    assert reference.check_average(window, blob + b"\0")
    assert reference.check_average(window, blob[:-1])


def test_loss_must_fall():
    assert reference.check_loss_falls([3.0, 2.5]) == []
    assert reference.check_loss_falls([3.0, 3.0])
    assert reference.check_loss_falls([3.0])


def test_tracer_reports_a_missing_function_as_unmeasured(monkeypatch, cfg):
    monkeypatch.setattr(tracing, "SPANS", tracing.SPANS + (
        ("encoder.gone", "ctclab.encoder", "no_such_function"),))
    original = objective.total_loss
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert objective.total_loss is not original
        model = trainer.Model.from_run_config(cfg)
        utt = data.generate_dataset(cfg.task, "dev")[0]
        trainer.evaluate_model(model, [utt])
    finally:
        tracer.uninstall()
    assert objective.total_loss is original
    assert tracer.unmeasured == ["ctclab.encoder.no_such_function"]
    values = tracer.report(utterances=1, generated=1)
    assert values["tensor.ops"] > 0 and values["tensor.tape_entries"] == 0
    assert values["encoder.attention_ms"] > 0



def test_host_speed_leaves_its_slices_out_and_restores_the_alarm():
    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass
        return seconds

    before = signal.getsignal(signal.SIGALRM)
    host = run.HostSpeed()
    with host.sampling():
        result, seconds = host.timed(busy, 0.3)
        assert host.scale() > 0
    assert result == 0.3 and len(host.slices) >= 3
    assert seconds == pytest.approx(0.3 - sum(host.slices), abs=0.02)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    wall = run.HostSpeed(sample=False)
    with wall.sampling():
        assert wall.timed(busy, 0.1)[1] >= 0.1 and wall.scale() == 1.0
    assert wall.slices == []


def test_benchmark_json_lists_the_metrics_the_runs_report():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.metric_names()
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "utts_per_s", "frames_per_s", "peak_rss_mb"]
