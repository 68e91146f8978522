"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the two training-based criteria dominate the runtime (~12 minutes on
a laptop CPU).
"""
import functools
import itertools
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from ctclab.cli import gradcheck_battery
from ctclab.config import RunConfig
from ctclab.ctc import CTCHead, ctc_loss, oracle_trials
from ctclab.data import generate_dataset
from ctclab.encoder import Encoder, EncoderConfig, survival_probability
from ctclab.metrics import edit_distance
from ctclab.objective import (
    CTCHeads,
    IntermediateLossSpec,
    plan_step,
    resolve_positions,
    stack_losses,
)
from ctclab.tensor import Tensor, take
from ctclab.trainer import (
    Checkpoint,
    average_checkpoints,
    evaluate,
    load_checkpoint,
    run_training,
    save_checkpoint,
)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_ctc_oracle_equivalence():
    started = time.perf_counter()
    worst = oracle_trials(trials=200, seed=0, max_frames=6, max_vocab=3,
                          max_labels=3)
    elapsed = time.perf_counter() - started
    ok = worst < 1e-10 and elapsed < 30.0
    report(1, ok, f"ctc_loss vs brute force over 200 cases: "
                  f"worst diff {worst:.2e} (< 1e-10), {elapsed:.1f}s (< 30s)")


def test_criterion_2_gradient_suite():
    started = time.perf_counter()
    results = gradcheck_battery(scale="full", seed=0)
    elapsed = time.perf_counter() - started
    failures = [name for name, tol, rep in results if not rep.ok(tol)]
    worst = max(rep.max_rel_error for _, _, rep in results)
    ok = not failures and elapsed < 120.0
    report(2, ok, f"{len(results)} finite-difference checks "
                  f"(primitives < 1e-6, composites < 1e-4): worst {worst:.2e}, "
                  f"{elapsed:.1f}s (< 2 min); failures: {failures or 'none'}")


def test_criterion_3_stochastic_depth_statistics():
    cfg = EncoderConfig(num_layers=12, d_model=2, n_heads=1, d_ff=2,
                        conv_kernel=3, survival_floor=0.7, input_dim=1, seed=0)
    enc = Encoder.build(cfg)
    x = Tensor(np.zeros((1, 1, 1)))
    rng = np.random.default_rng(321)
    draws = 10000
    skipped = np.zeros(cfg.num_layers)
    for _ in range(draws):
        trace = enc.forward(x, draws=rng.random((1, cfg.num_layers)))
        skipped += 1.0 - np.array(trace.skip_mask[0])
    deviations = [abs(skipped[l - 1] / draws - (1.0 - survival_probability(l, 12, 0.7)))
                  for l in range(1, 13)]
    rate_ok = max(deviations) < 0.02

    full = EncoderConfig(num_layers=3, d_model=8, n_heads=2, d_ff=12,
                         survival_floor=1.0, input_dim=4, seed=1)
    enc_full = Encoder.build(full)
    xin = Tensor(np.random.default_rng(5).normal(size=(1, 6, 4)))
    train_states = enc_full.forward(
        xin, draws=np.random.default_rng(9).random((1, 3))).states
    eval_states = enc_full.forward(xin).states
    bitwise_ok = all((a.data == b.data).all()
                     for a, b in zip(train_states, eval_states))
    report(3, rate_ok and bitwise_ok,
           f"skip rates over {draws} draws within +-0.02 of 1-p_l "
           f"(worst dev {max(deviations):.4f}); survival-floor-1 train==eval "
           f"bitwise: {bitwise_ok}")


def _frozen_model():
    cfg = EncoderConfig(num_layers=4, d_model=8, n_heads=2, d_ff=12,
                        survival_floor=1.0, input_dim=5, seed=42)
    enc = Encoder.build(cfg)
    heads = CTCHeads.shared(CTCHead.build(8, 3, np.random.default_rng(43)))
    x = Tensor(np.random.default_rng(44).normal(size=(1, 6, 5)))
    return enc, heads, x, (1, 3)


def test_criterion_4_loss_composition():
    enc, heads, x, labels = _frozen_model()

    def trace():
        return enc.forward(x)

    def loss(layers, spec, rng=None):  # the one utterance's row of stack_losses
        (breakdown,) = stack_losses(layers, [6], [labels], heads, plan_step(spec, 4, rng))
        return breakdown

    plain = ctc_loss(take(heads.final(trace().final), 0), labels).item()
    none_bd = loss(trace(), IntermediateLossSpec("none"))
    zero_bd = loss(trace(), IntermediateLossSpec("middle", weight=0.0))
    bit_ok = none_bd.total.item() == plain and zero_bd.total.item() == plain

    det = loss(trace(), IntermediateLossSpec("middle", weight=0.3)).total.item()
    rng = np.random.default_rng(777)
    spec = IntermediateLossSpec("stochastic", weight=0.3)
    frozen = trace()
    samples = np.array([loss(frozen, spec, rng).total.item() for _ in range(10000)])
    stderr = samples.std(ddof=1) / np.sqrt(samples.size)
    mc_ok = abs(samples.mean() - det) < 2 * stderr
    report(4, bit_ok and mc_ok,
           f"none/w=0 bit-equal plain CTC: {bit_ok}; stochastic MC mean "
           f"{samples.mean():.6f} vs deterministic {det:.6f} "
           f"(|diff| {abs(samples.mean() - det):.2e} < 2 SE {2 * stderr:.2e})")


def test_criterion_5_position_resolution():
    middle = resolve_positions(IntermediateLossSpec("middle"), 12)
    k3 = resolve_positions(IntermediateLossSpec("multiple", count=3), 24)
    k7 = resolve_positions(IntermediateLossSpec("multiple", count=7), 48)
    exact_ok = (middle == [6] and k3 == [6, 12, 18]
                and k7 == [6, 12, 18, 24, 30, 36, 42])
    rng = np.random.default_rng(0)
    random_ok = True
    for num_layers in (2, 5, 12, 48):
        for _ in range(300):
            (pos,) = resolve_positions(IntermediateLossSpec("random"),
                                       num_layers, rng)
            random_ok &= num_layers // 2 <= pos <= num_layers - 1
    report(5, exact_ok and random_ok,
           f"middle/12 -> {middle}, K=3/24 -> {k3}, K=7/48 -> {k7}; "
           f"random draws within [L/2, L-1]: {random_ok}")


def test_criterion_6_synthetic_task_training(tmp_path):
    # the trained model is, per the training protocol, the average of the
    # last checkpoints; its dev error is what the criterion measures
    cfg = RunConfig.default()
    started = time.perf_counter()
    result = run_training(cfg, tmp_path)
    dev = generate_dataset(cfg.task, "dev")
    rate = evaluate(load_checkpoint(result.averaged_path), dev).rate
    elapsed = time.perf_counter() - started
    ok = rate < 0.05 and elapsed < 600.0
    report(6, ok, f"default 4-layer transformer, 20 epochs: dev TER "
                  f"{rate:.4f} (< 0.05), {elapsed:.0f}s (< 600s)")


HARD_SETTING = """
model.layers=8
model.d_model=32
model.heads=2
model.d_ff=64
model.p_last=1.0
task.sigma=0.5
task.train_size=512
task.dev_size=128
task.test_size=128
task.seed=7
train.epochs=40
loss.variant={variant}
train.seed={seed}
"""


def _hard_setting_run(job):
    variant, seed = job
    cfg = RunConfig.parse(HARD_SETTING.format(variant=variant, seed=seed))
    with tempfile.TemporaryDirectory() as out:
        result = run_training(cfg, out)
        test_set = generate_dataset(cfg.task, "test")
        rate = evaluate(load_checkpoint(result.averaged_path), test_set).rate
    return variant, seed, rate


def test_criterion_7_regularization_effect():
    jobs = [(variant, seed) for seed in (1, 2, 3)
            for variant in ("none", "middle")]
    rates = {"none": {}, "middle": {}}
    with ProcessPoolExecutor(max_workers=2) as pool:
        for variant, seed, rate in pool.map(_hard_setting_run, jobs):
            rates[variant][seed] = rate
    baseline = np.mean(list(rates["none"].values()))
    middle = np.mean(list(rates["middle"].values()))
    detail = "; ".join(
        f"seed {s}: baseline {rates['none'][s]:.4f} vs middle {rates['middle'][s]:.4f}"
        for s in (1, 2, 3))
    report(7, middle <= baseline,
           f"hard setting (8-layer narrow, sigma 0.5) over 3 seeds: mean test "
           f"TER middle {middle:.4f} <= baseline {baseline:.4f} | {detail}")


def test_criterion_8_checkpoint_averaging(tmp_path):
    rng = np.random.default_rng(8)
    params = {"w": rng.normal(size=(4, 3)).astype(np.float32),
              "b": rng.normal(size=5).astype(np.float32)}
    ckpt = Checkpoint(1, params, "train.seed=1\n")
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, ckpt)
    loaded = load_checkpoint(path)
    roundtrip_ok = (loaded.config_echo == ckpt.config_echo and
                    all(loaded.params[n].tobytes() == params[n].tobytes()
                        for n in params))

    save_checkpoint(tmp_path / "a2.ckpt", ckpt)
    same = average_checkpoints([path, tmp_path / "a2.ckpt"])
    idempotent_ok = all((same.params[n] == params[n]).all() for n in params)

    neg = Checkpoint(1, {n: -a for n, a in params.items()}, ckpt.config_echo)
    save_checkpoint(tmp_path / "neg.ckpt", neg)
    zeros = average_checkpoints([path, tmp_path / "neg.ckpt"])
    zeros_ok = all((zeros.params[n] == 0.0).all() for n in params)
    report(8, roundtrip_ok and idempotent_ok and zeros_ok,
           f"round-trip bit-exact: {roundtrip_ok}; idempotence: {idempotent_ok}; "
           f"average(p, -p) == 0: {zeros_ok}")


@functools.lru_cache(maxsize=None)
def _oracle_distance(ref: tuple, hyp: tuple) -> int:
    if not ref:
        return len(hyp)
    if not hyp:
        return len(ref)
    return min(
        _oracle_distance(ref[1:], hyp[1:]) + (ref[0] != hyp[0]),
        _oracle_distance(ref, hyp[1:]) + 1,
        _oracle_distance(ref[1:], hyp) + 1,
    )


def test_criterion_9_edit_distance_exhaustive():
    started = time.perf_counter()
    seqs = [seq for n in range(7) for seq in itertools.product((1, 2, 3), repeat=n)]
    checked = 0
    mismatches = 0
    try:
        for ref in seqs:
            for hyp in seqs:
                if edit_distance(ref, hyp) != _oracle_distance(ref, hyp):
                    mismatches += 1
                checked += 1
    finally:
        _oracle_distance.cache_clear()  # about 1.2 million entries by now
    elapsed = time.perf_counter() - started
    report(9, mismatches == 0,
           f"exhaustive agreement with the recursive oracle on {checked} "
           f"pairs (lengths <= 6, 3-token alphabet), {mismatches} mismatches, "
           f"{elapsed:.0f}s")
