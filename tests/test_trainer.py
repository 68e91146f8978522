import gc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import ctclab.trainer
from ctclab.config import RunConfig
from ctclab.ctc import ctc_loss
from ctclab.data import Utterance, generate_dataset
from ctclab.objective import eval_decode, plan_step, stack_losses
from ctclab.tensor import Tape, weighted_sum
from ctclab.trainer import (
    Checkpoint,
    Model,
    OptimizerState,
    TrainingDiverged,
    average_checkpoints,
    checkpoint_from_model,
    evaluate,
    evaluate_model,
    load_checkpoint,
    load_model_state,
    micro_batches,
    run_training,
    save_checkpoint,
    step_losses,
)

TINY = """
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
train.average_last=2
"""


def tiny_cfg(extra=""):
    return RunConfig.parse(TINY + extra)


def random_checkpoint(rng, names=("a.w", "b.w")):
    params = {n: rng.normal(size=(3, 4)).astype(np.float32) for n in names}
    return Checkpoint(1, params, "train.seed=1\n")


class TestCheckpointFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        ckpt = Checkpoint(1, {
            "w": rng.normal(size=(4, 5)).astype(np.float32),
            "b": rng.normal(size=7).astype(np.float32),
        }, "model.layers=2\n")
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        assert loaded.version == 1
        assert list(loaded.params) == ["w", "b"]
        for name in ckpt.params:
            assert loaded.params[name].tobytes() == ckpt.params[name].tobytes()
        assert loaded.config_echo == ckpt.config_echo

    def test_layout_starts_with_magic_and_version(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, random_checkpoint(np.random.default_rng(1)))
        blob = path.read_bytes()
        assert blob[:4] == b"ICTC"
        assert int.from_bytes(blob[4:8], "little") == 1
        assert int.from_bytes(blob[8:12], "little") == 2  # parameter count

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, random_checkpoint(np.random.default_rng(2)))
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_every_truncation_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, random_checkpoint(np.random.default_rng(4)))
        blob = path.read_bytes()
        cut = tmp_path / "cut.ckpt"
        for length in range(len(blob)):
            cut.write_bytes(blob[:length])
            with pytest.raises(ValueError):
                load_checkpoint(cut)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, random_checkpoint(np.random.default_rng(5)))
        path.write_bytes(path.read_bytes() + b"\x00" * 7)
        with pytest.raises(ValueError, match="7 trailing bytes"):
            load_checkpoint(path)

    def test_float64_payload_rejected(self, tmp_path):
        ckpt = Checkpoint(1, {"w": np.zeros((2, 2))}, "")
        with pytest.raises(ValueError):
            save_checkpoint(tmp_path / "m.ckpt", ckpt)


# any text UTF-8 can encode: every code point but the lone surrogates
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)


@st.composite
def checkpoints(draw):
    """Checkpoints of 1-4 finite float32 parameters of rank 0-3 under
    distinct names, non-ASCII ones included, with a drawn config echo."""
    names = draw(st.lists(_TEXT, min_size=1, max_size=4, unique=True))
    params = {}
    for name in names:
        shape = draw(array_shapes(min_dims=0, max_dims=3, min_side=1, max_side=4))
        params[name] = draw(arrays(np.float32, shape, elements=st.floats(
            width=32, allow_nan=False, allow_infinity=False)))
    return Checkpoint(1, params, draw(_TEXT))


class TestCheckpointProperties:
    @given(ckpt=checkpoints(), data=st.data())
    def test_round_trip_and_damage(self, tmp_path_factory, ckpt, data):
        path = tmp_path_factory.getbasetemp() / "drawn.ckpt"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        assert loaded.version == ckpt.version
        assert loaded.config_echo == ckpt.config_echo
        assert list(loaded.params) == list(ckpt.params)
        for name, arr in ckpt.params.items():
            assert loaded.params[name].shape == arr.shape
            assert loaded.params[name].tobytes() == arr.tobytes()

        blob = path.read_bytes()
        cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
        path.write_bytes(blob[:cut])
        with pytest.raises(ValueError):
            load_checkpoint(path)
        suffix = data.draw(st.binary(min_size=1, max_size=16), label="suffix")
        path.write_bytes(blob + suffix)
        with pytest.raises(ValueError):
            load_checkpoint(path)


class TestAveraging:
    def test_idempotent_on_identical_inputs(self, tmp_path):
        ckpt = random_checkpoint(np.random.default_rng(3))
        paths = []
        for i in range(3):
            p = tmp_path / f"{i}.ckpt"
            save_checkpoint(p, ckpt)
            paths.append(p)
        avg = average_checkpoints(paths)
        for name in ckpt.params:
            np.testing.assert_array_equal(avg.params[name], ckpt.params[name])

    def test_opposite_pair_gives_zeros(self, tmp_path):
        base = random_checkpoint(np.random.default_rng(4))
        neg = Checkpoint(1, {n: -a for n, a in base.params.items()}, base.config_echo)
        save_checkpoint(tmp_path / "p.ckpt", base)
        save_checkpoint(tmp_path / "n.ckpt", neg)
        avg = average_checkpoints([tmp_path / "p.ckpt", tmp_path / "n.ckpt"])
        for arr in avg.params.values():
            np.testing.assert_array_equal(arr, np.zeros_like(arr))

    def test_mean_matches_recomputation_and_permutation(self, tmp_path):
        rng = np.random.default_rng(5)
        ckpts = [random_checkpoint(rng) for _ in range(3)]
        paths = []
        for i, c in enumerate(ckpts):
            p = tmp_path / f"{i}.ckpt"
            save_checkpoint(p, c)
            paths.append(p)
        avg = average_checkpoints(paths)
        for name in ckpts[0].params:
            expect = np.stack([c.params[name].astype(np.float64) for c in ckpts]) \
                .mean(axis=0).astype(np.float32)
            np.testing.assert_array_equal(avg.params[name], expect)
        shuffled = average_checkpoints([paths[2], paths[0], paths[1]])
        for name in avg.params:
            np.testing.assert_array_equal(shuffled.params[name], avg.params[name])

    def test_name_mismatch_rejected(self, tmp_path):
        rng = np.random.default_rng(6)
        save_checkpoint(tmp_path / "a.ckpt", random_checkpoint(rng))
        save_checkpoint(tmp_path / "b.ckpt", random_checkpoint(rng, names=("a.w", "c.w")))
        with pytest.raises(ValueError):
            average_checkpoints([tmp_path / "a.ckpt", tmp_path / "b.ckpt"])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_checkpoints([])


class TestTraining:
    def test_zero_epochs_initial_checkpoint_only(self, tmp_path):
        result = run_training(tiny_cfg("train.epochs=0\n"), tmp_path)
        assert [p.name for p in result.checkpoint_paths] == ["epoch_0.ckpt"]
        assert result.averaged_path is None
        assert result.metrics == []

    def test_one_epoch_outputs(self, tmp_path):
        result = run_training(tiny_cfg(), tmp_path)
        names = [p.name for p in result.checkpoint_paths]
        assert names == ["epoch_0.ckpt", "epoch_1.ckpt"]
        assert result.averaged_path.name == "averaged.ckpt"
        assert len(result.metrics) == 1
        epoch, train_loss, dev_ter = result.metrics[0]
        assert epoch == 1 and np.isfinite(train_loss) and 0 <= dev_ter
        log = (tmp_path / "metrics.log").read_text()
        assert log == f"1\t{train_loss:.6f}\t{dev_ter:.6f}\n"

    def test_equal_seeds_byte_identical_checkpoints(self, tmp_path):
        a = run_training(tiny_cfg(), tmp_path / "a")
        b = run_training(tiny_cfg(), tmp_path / "b")
        blob_a = (tmp_path / "a" / "epoch_1.ckpt").read_bytes()
        blob_b = (tmp_path / "b" / "epoch_1.ckpt").read_bytes()
        assert blob_a == blob_b
        assert a.metrics == b.metrics

    def test_config_echo_reproduces_run(self, tmp_path):
        cfg = tiny_cfg()
        run_training(cfg, tmp_path)
        ckpt = load_checkpoint(tmp_path / "epoch_1.ckpt")
        assert RunConfig.parse(ckpt.config_echo) == cfg

    def test_first_batch_loss_decreases_over_fifty_steps(self):
        # smoke threshold pinned from the first verified run: the loss on the
        # first batch falls well below half its initial value
        cfg = RunConfig.default()
        train = generate_dataset(cfg.task, "train")[:16]
        model = Model.from_run_config(cfg)
        params = model.parameters()
        optimizer = OptimizerState.init(params, cfg.d_model)
        rng = np.random.default_rng([cfg.seed, 100])
        spec = cfg.loss_spec()

        def eval_loss():
            return float(np.mean([
                ctc_loss(model.heads.final(model.trace(u.features[None]).final).data[0],
                         u.labels).item() for u in train]))

        before = eval_loss()
        for _ in range(50):
            plan = plan_step(spec, cfg.layers, rng)
            step_losses(model, train, plan, rng.random((len(train), cfg.layers)))
            optimizer.apply_gradients(params)
        assert eval_loss() < 0.5 * before

    def test_infeasible_utterances_skipped_and_counted(self, tmp_path, monkeypatch):
        cfg = tiny_cfg()
        real = generate_dataset

        def with_bad_sample(task_cfg, split, dtype=np.float32):
            data = real(task_cfg, split, dtype)
            if split == "train":
                bad = Utterance(np.zeros((1, task_cfg.input_dim), dtype=np.float32),
                                (1, 1))  # needs 3 frames, has 1
                data = [bad] + data
            return data

        monkeypatch.setattr(ctclab.trainer, "generate_dataset", with_bad_sample)
        result = run_training(cfg, tmp_path)
        assert result.skipped_utterances == 1
        assert len(result.metrics) == 1  # training continued

    def test_divergence_aborts_with_diagnostic(self, tmp_path, monkeypatch):
        # non-finite values surface as FloatingPointError inside a step; the
        # trainer must convert that into an abort with context
        def poisoned(*args, **kwargs):
            raise FloatingPointError("op produced a non-finite value")

        monkeypatch.setattr(ctclab.trainer, "step_losses", poisoned)
        with pytest.raises(TrainingDiverged, match="epoch 1"):
            run_training(tiny_cfg(), tmp_path)


PROPERTY_CONFIG = """
model.layers=3
model.d_model=8
model.heads=2
model.d_ff=12
model.conv_kernel=3
model.p_last=0.5
model.separate_heads=true
loss.variant=multiple
loss.k=2
task.vocab=3
task.dim=5
"""


class TestMicroBatches:
    """A step trained in padded micro-batches against the same step trained
    one utterance per tape, in float64."""

    @settings(max_examples=30)
    @given(utterances=st.lists(st.tuples(st.integers(1, 30),
                                         st.lists(st.booleans(), min_size=3, max_size=3)),
                               min_size=1, max_size=6),
           infeasible=st.integers(0, 5), budget=st.sampled_from([1, 40, 128]),
           kind=st.sampled_from(["transformer", "conformer"]))
    def test_matches_one_utterance_tapes(self, utterances, infeasible, budget, kind):
        cfg = RunConfig.parse(PROPERTY_CONFIG + f"model.kind={kind}\n")
        model = Model.from_run_config(cfg, dtype=np.float64)
        params = model.parameters()
        rng = np.random.default_rng(len(utterances))
        for p in params.values():
            p.data[...] = rng.uniform(-0.5, 0.5, size=p.shape)
        batch = []
        for index, (steps, _) in enumerate(utterances):
            labels = tuple(int(t) for t in rng.integers(1, 4, size=max(1, steps // 3)))
            if index == infeasible % len(utterances):
                labels = (1, 2) * steps  # needs 2T frames
            batch.append(Utterance(rng.normal(size=(steps, 5)), labels))
        # a draw of 0 keeps every layer, 0.999 skips it (p_l <= 5/6)
        draws = np.array([[0.0 if kept else 0.999 for kept in keep]
                          for _, keep in utterances])
        spec = cfg.loss_spec()
        plan = plan_step(spec, cfg.layers)

        alone, masks = [], []
        for utt, row in zip(batch, draws):
            with Tape() as tape:
                trace = model.trace(utt.features[None], draws=row[None])
                masks.append(trace.skip_mask[0])
                (breakdown,) = stack_losses(trace, [utt.features.shape[0]], [utt.labels],
                                            model.heads, plan)
                if breakdown is None:
                    alone.append(None)
                    continue
                loss = weighted_sum(breakdown.total, np.full((), 1.0 / len(batch)))
            tape.backward(loss)
            alone.append(breakdown)
        expect = {name: p.grad.copy() for name, p in params.items()}
        for p in params.values():
            p.zero_grad()

        saved = ctclab.trainer.TRAIN_FRAMES
        ctclab.trainer.TRAIN_FRAMES = budget
        try:
            got = step_losses(model, batch, plan, draws)
            groups = micro_batches([utt.features.shape[0] for utt in batch])
        finally:
            ctclab.trainer.TRAIN_FRAMES = saved

        assert [b is None for b in got] == [b is None for b in alone]
        assert sum(b is None for b in got) == 1  # the skipped count
        for a, b in zip(alone, got):
            if a is not None:
                assert abs(a.total.item() - b.total.item()) < 1e-12
                assert abs(a.ctc_final - b.ctc_final) < 1e-12
                assert [pos for pos, _ in a.ctc_intermediate] == \
                    [pos for pos, _ in b.ctc_intermediate] == [1, 2]
                for (_, x), (_, y) in zip(a.ctc_intermediate, b.ctc_intermediate):
                    assert abs(x - y) < 1e-12
        for name, p in params.items():
            np.testing.assert_allclose(p.grad, expect[name], rtol=0, atol=1e-12,
                                       err_msg=name)
            p.zero_grad()
        for group in groups:
            lengths = [batch[i].features.shape[0] for i in group]
            stack = np.zeros((len(group), max(lengths), 5))
            for row, i in enumerate(group):
                stack[row, :lengths[row]] = batch[i].features
            trace = model.trace(stack, lengths=lengths, draws=draws[group])
            assert trace.skip_mask == [masks[i] for i in group]


class TestTapeLifetime:
    def test_utterance_tapes_freed_without_cyclic_collector(self):
        # the 6-layer Conformer with stochastic depth and two intermediate
        # losses, trained in padded micro-batches; with the cyclic collector
        # off, reference counting alone must free each micro-batch's tape
        # and leave no cycle behind
        cfg = RunConfig.parse(
            "model.kind=conformer\nmodel.layers=6\nloss.variant=multiple\n"
            "loss.k=2\ntask.min_label=8\ntask.max_label=18\n"
            "task.min_duration=3\ntask.max_duration=5\ntask.train_size=6\n")
        model = Model.from_run_config(cfg)
        spec = cfg.loss_spec()
        rng = np.random.default_rng(0)
        utterances = generate_dataset(cfg.task, "train")
        groups = micro_batches([utt.features.shape[0] for utt in utterances])
        gc.collect()
        gc.disable()
        try:
            for _ in range(2):
                plan = plan_step(spec, cfg.layers, rng)
                step_losses(model, utterances, plan,
                            rng.random((len(utterances), cfg.layers)))
            live_tapes = sum(isinstance(o, Tape) for o in gc.get_objects())
            found = gc.collect()
        finally:
            gc.enable()
        assert len(utterances) == 6
        assert 1 < len(groups) < 6  # several tapes, some padded
        assert live_tapes == 0
        assert found == 0


class TestEvaluate:
    def test_overfit_tiny_model_reaches_zero_error(self, monkeypatch):
        monkeypatch.setattr(ctclab.trainer, "PEAK_LR_FACTOR", 0.5)
        monkeypatch.setattr(ctclab.trainer, "WARMUP_STEPS", 100)
        cfg = RunConfig.parse(
            "model.layers=2\nmodel.d_model=32\nmodel.heads=2\nmodel.d_ff=64\n"
            "model.p_last=1.0\nloss.variant=none\ntask.vocab=3\ntask.dim=8\n"
            "task.train_size=4\ntask.sigma=0.1\ntrain.seed=3\n")
        data = generate_dataset(cfg.task, "train")
        model = Model.from_run_config(cfg)
        params = model.parameters()
        optimizer = OptimizerState.init(params, cfg.d_model)
        rng = np.random.default_rng(0)
        spec = cfg.loss_spec()
        for _ in range(250):
            plan = plan_step(spec, cfg.layers, rng)
            step_losses(model, data, plan, rng.random((len(data), cfg.layers)))
            optimizer.apply_gradients(params)
        result = evaluate_model(model, data)
        assert result.rate == 0.0
        assert result.decodes == [utt.labels for utt in data]

    def test_empty_dataset_rejected(self):
        model = Model.from_run_config(tiny_cfg())
        with pytest.raises(ValueError):
            evaluate_model(model, [])

    def test_checkpoint_evaluation_matches_model(self, tmp_path):
        cfg = tiny_cfg()
        result = run_training(cfg, tmp_path)
        dev = generate_dataset(cfg.task, "dev")
        ckpt = load_checkpoint(result.checkpoint_paths[-1])
        from_ckpt = evaluate(ckpt, dev)
        assert from_ckpt.rate == result.metrics[-1][2]

    def test_decode_deterministic_across_calls(self):
        cfg = tiny_cfg()
        model = Model.from_run_config(cfg)
        dev = generate_dataset(cfg.task, "dev")
        a = evaluate_model(model, dev)
        b = evaluate_model(model, dev)
        assert a.rate == b.rate and a.decodes == b.decodes

    # frame budgets over the mixed-length dev split below: 1 forwards each
    # utterance alone, 12 cuts the three 6-frame utterances into stacks of
    # two and one and forwards every longer one alone, and the default
    # forwards each length's group whole
    @pytest.mark.parametrize("frames", [1, 12, ctclab.trainer.EVAL_FRAMES])
    def test_mixed_lengths_decode_in_dataset_order(self, monkeypatch, frames):
        monkeypatch.setattr(ctclab.trainer, "EVAL_FRAMES", frames)
        cfg = tiny_cfg("task.dev_size=24\n")
        model = Model.from_run_config(cfg, dtype=np.float64)
        dev = generate_dataset(cfg.task, "dev")
        lengths = [utt.features.shape[0] for utt in dev]
        assert 1 < len(set(lengths)) < len(lengths)  # mixed, and some stack
        result = evaluate_model(model, dev)
        alone = [eval_decode(model.trace(utt.features[None]), model.heads)[0]
                 for utt in dev]
        assert result.decodes == alone and len(set(alone)) > 1
        assert evaluate_model(model, dev[::-1]).decodes == result.decodes[::-1]

    @pytest.mark.parametrize("frames", [1, 12, 44, ctclab.trainer.EVAL_FRAMES])
    def test_stacks_hold_one_length_within_the_frame_budget(self, monkeypatch, frames):
        monkeypatch.setattr(ctclab.trainer, "EVAL_FRAMES", frames)
        cfg = tiny_cfg("task.dev_size=24\n")
        model = Model.from_run_config(cfg)
        dev = generate_dataset(cfg.task, "dev")
        shapes = []
        trace = model.trace

        def recording(features, *args, **kwargs):
            shapes.append(np.shape(features))
            return trace(features, *args, **kwargs)
        monkeypatch.setattr(model, "trace", recording)
        evaluate_model(model, dev)
        counts = Counter(utt.features.shape[0] for utt in dev)
        stacked = Counter()
        for batch, steps, _ in shapes:
            assert batch * steps <= frames or batch == 1
            stacked[steps] += batch
        assert stacked == counts
        # each length's group is cut into as few stacks as the budget allows
        assert len(shapes) == sum(-(-n // max(1, frames // steps))
                                  for steps, n in counts.items())

    def test_load_state_rejects_name_mismatch(self):
        model = Model.from_run_config(tiny_cfg())
        ckpt = checkpoint_from_model(model, "")
        del ckpt.params[next(iter(ckpt.params))]
        with pytest.raises(ValueError):
            load_model_state(model, ckpt)


class TestModelTrace:
    def test_an_utterance_is_a_one_row_stack(self):
        # `bench/run.py` traces single (T, F) utterances
        cfg = tiny_cfg()
        model = Model.from_run_config(cfg)
        features = generate_dataset(cfg.task, "dev")[0].features
        alone, stacked = model.trace(features), model.trace(features[None])
        assert alone.skip_mask == stacked.skip_mask == [[1] * cfg.layers]
        for a, b in zip(alone.states, stacked.states):
            assert a.shape == (1, features.shape[0], cfg.d_model)
            assert np.array_equal(a.data, b.data)


class TestOptimizer:
    def test_learning_rate_schedule_shape(self):
        state = OptimizerState.init({}, d_model=64)
        warmup = [state.learning_rate(s) for s in (1, 500, 1000)]
        assert warmup[0] < warmup[1] < warmup[2]
        after = [state.learning_rate(s) for s in (1000, 2000, 4000)]
        assert after[0] > after[1] > after[2]
        # peak at the warmup boundary scales with d_model ** -0.5
        assert state.learning_rate(1000) == pytest.approx(
            ctclab.trainer.PEAK_LR_FACTOR * 64 ** -0.5 * 1000 ** -0.5)

    def test_moment_shapes_match_parameters(self):
        model = Model.from_run_config(tiny_cfg())
        params = model.parameters()
        state = OptimizerState.init(params, 16)
        for name, p in params.items():
            assert state.first_moment[name].shape == p.data.shape
            assert state.second_moment[name].shape == p.data.shape

    def test_separate_heads_config(self):
        model = Model.from_run_config(tiny_cfg("model.separate_heads=true\n"))
        names = model.parameters()
        assert "head_final.weight" in names and "head_inter.weight" in names
        shared = Model.from_run_config(tiny_cfg())
        assert "head.weight" in shared.parameters()
