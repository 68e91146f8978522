"""Training loop, checkpointing, and evaluation for the synthetic task.

The optimizer is Adam under an inverse-square-root schedule with linear
warmup (1000 steps) and a peak scaled by d_model**-0.5.  Training runs in
float32; checkpoints store float32 payloads bit-exactly.  All randomness
derives from the config seeds, so equal seeds give byte-identical runs.

Each optimizer step draws its objective plan and then one row of
stochastic-depth draws per utterance, in batch order.  It sorts its
utterances by length, stably, and cuts them into micro-batches of at most
TRAIN_FRAMES padded frames.  Each micro-batch is one padded (B, T, F)
stack with one tape and one backward, through which every utterance adds
1/batch of its gradient before the step's one Adam update; each CTC loss
is still computed on its own utterance's unpadded grid.  Evaluation has no
tape and no draws: it groups utterances by length and forwards each group
in (B, T, F) stacks of at most EVAL_FRAMES frames, so no utterance is
padded, and greedy-decodes each stack with one argmax.  A non-finite value
in a step or in the per-epoch dev decode ends training with
TrainingDiverged.
"""
from __future__ import annotations

import logging
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import RunConfig
from .ctc import CTCHead
from .data import Utterance, generate_dataset
from .encoder import Encoder, LayerTrace
from .metrics import corpus_rate
from .objective import CTCHeads, LossBreakdown, plan_step, stack_losses, eval_decode
from .tensor import Tape, Tensor, record_op

logger = logging.getLogger(__name__)

CHECKPOINT_MAGIC = b"ICTC"
CHECKPOINT_VERSION = 1

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-9
WARMUP_STEPS = 1000
PEAK_LR_FACTOR = 3.0
# Most frames (utterances x their common length) one eval forward takes;
# an utterance longer than that is a stack of its own.  At 240 the largest
# array of a default-config stack, the (240, d_ff) hidden layer or the
# attention scores at T = 32, stays under 128 KiB, glibc's default mmap
# threshold, so no forward maps and unmaps fresh pages.  On a 2-vCPU host a
# 1950-utterance split of 26 lengths (4-29 frames) decoded at 4929, 6894,
# 7943, 8153 and 7949 utt/s with budgets of 64, 120, 240, 480 and 960
# (medians of 10 alternating calls), so the budget costs little speed for
# its bounded memory.
EVAL_FRAMES = 240
# Most padded frames (utterances x the longest's length) one training tape
# takes; the tape's saved arrays grow with it.  With one tape per
# utterance, `bench/run.py` read 558 utt/s on train-default and 102 on
# train-conformer-long (2-vCPU host).  Budgets of 64, 128, 192 and 256
# read about 787, 894, 919 and 878 utt/s and 100, 110, 112 and 113 utt/s
# (two seeds each), and raised peak RSS by 1%, 4%, 6% and 9% and by 0%,
# 6%, 13% and 22%.
TRAIN_FRAMES = 128


class TrainingDiverged(RuntimeError):
    pass


# --- model -------------------------------------------------------------------

class Model:
    """Encoder plus CTC output heads, with a flat named-parameter view."""

    def __init__(self, encoder: Encoder, heads: CTCHeads):
        self.encoder = encoder
        self.heads = heads

    @classmethod
    def from_run_config(cls, cfg: RunConfig, dtype=np.float32) -> "Model":
        encoder = Encoder.build(cfg.encoder_config(), dtype=dtype)
        head_rng = np.random.default_rng([cfg.seed, 7])
        final = CTCHead.build(cfg.d_model, cfg.task.vocab, head_rng, dtype=dtype)
        if cfg.separate_heads:
            inter = CTCHead.build(cfg.d_model, cfg.task.vocab, head_rng, dtype=dtype)
            heads = CTCHeads(final, inter)
        else:
            heads = CTCHeads.shared(final)
        return cls(encoder, heads)

    def parameters(self) -> dict[str, Tensor]:
        named = {f"encoder.{k}": v for k, v in self.encoder.parameters().items()}
        named.update(self.heads.parameters())
        return named

    def trace(self, features: np.ndarray, lengths=None,
              draws: np.ndarray | None = None) -> LayerTrace:
        """Forward a (B, T, F) stack, with the lengths and stochastic-depth
        draws `Encoder.forward` takes.  (T, F) features are viewed as a
        one-row stack: the program passes stacks only, and `bench/run.py`
        traces single utterances."""
        x0 = np.asarray(features, dtype=self.encoder.dtype)
        return self.encoder.forward(Tensor(x0.reshape(-1, *x0.shape[-2:])),
                                    lengths=lengths, draws=draws)


# --- optimizer ---------------------------------------------------------------

@dataclass
class OptimizerState:
    step: int
    first_moment: dict[str, np.ndarray]
    second_moment: dict[str, np.ndarray]
    d_model: int

    @classmethod
    def init(cls, params: dict[str, Tensor], d_model: int) -> "OptimizerState":
        return cls(step=0,
                   first_moment={k: np.zeros_like(p.data) for k, p in params.items()},
                   second_moment={k: np.zeros_like(p.data) for k, p in params.items()},
                   d_model=d_model)

    def learning_rate(self, step: int) -> float:
        return (PEAK_LR_FACTOR * self.d_model ** -0.5
                * min(step ** -0.5, step * WARMUP_STEPS ** -1.5))

    def apply_gradients(self, params: dict[str, Tensor]) -> None:
        """One Adam update from the accumulated grads, which are then reset."""
        self.step += 1
        lr = self.learning_rate(self.step)
        c1 = 1.0 - ADAM_BETA1 ** self.step
        c2 = 1.0 - ADAM_BETA2 ** self.step
        for name, p in params.items():
            g = p.grad
            m = self.first_moment[name]
            v = self.second_moment[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            p.data -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
            p.zero_grad()


# --- checkpoints -------------------------------------------------------------

@dataclass
class Checkpoint:
    version: int
    params: dict[str, np.ndarray]  # float32, insertion-ordered
    config_echo: str


def checkpoint_from_model(model: Model, config_echo: str) -> Checkpoint:
    params = {name: p.data.astype(np.float32, copy=True)
              for name, p in model.parameters().items()}
    return Checkpoint(CHECKPOINT_VERSION, params, config_echo)


def load_model_state(model: Model, ckpt: Checkpoint) -> None:
    params = model.parameters()
    if set(params) != set(ckpt.params):
        missing = set(params) ^ set(ckpt.params)
        raise ValueError(f"checkpoint/model parameter names differ: {sorted(missing)}")
    for name, p in params.items():
        stored = ckpt.params[name]
        if stored.shape != p.data.shape:
            raise ValueError(f"{name}: shape {stored.shape} != {p.data.shape}")
        p.data[...] = stored.astype(p.data.dtype)


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Bit-exact layout: magic, u32 version, u32 count, then per parameter
    u32 name length + name, u8 rank, u32 extents, little-endian binary32
    payload; finally a u32-length-prefixed UTF-8 config echo."""
    chunks = [CHECKPOINT_MAGIC,
              struct.pack("<II", ckpt.version, len(ckpt.params))]
    for name, arr in ckpt.params.items():
        if arr.dtype != np.float32:
            raise ValueError(f"{name}: checkpoint payloads must be float32")
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    echo = ckpt.config_echo.encode("utf-8")
    chunks.append(struct.pack("<I", len(echo)))
    chunks.append(echo)
    Path(path).write_bytes(b"".join(chunks))


def load_checkpoint(path) -> Checkpoint:
    """Parse the layout written by save_checkpoint.  A file that ends early,
    runs on past the config echo or holds a NaN or infinite weight raises
    ValueError."""
    blob = Path(path).read_bytes()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: bad checkpoint magic {blob[:4]!r}")
    view = memoryview(blob)
    offset = 4

    def take(n: int) -> memoryview:
        nonlocal offset
        if offset + n > len(blob):
            raise ValueError(f"{path}: checkpoint truncated at byte {len(blob)} "
                             f"(needs at least {offset + n})")
        offset += n
        return view[offset - n:offset]

    version, count = struct.unpack("<II", take(8))
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    params: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4))
        name = str(take(name_len), "utf-8")
        (rank,) = struct.unpack("<B", take(1))
        shape = struct.unpack(f"<{rank}I", take(4 * rank))
        n = int(np.prod(shape)) if rank else 1
        arr = np.frombuffer(take(4 * n), dtype="<f4")
        if name in params:
            raise ValueError(f"{path}: duplicate parameter name {name!r}")
        if not np.isfinite(arr).all():
            raise ValueError(f"{path}: parameter {name!r} holds a non-finite value")
        params[name] = arr.reshape(shape).copy()
    (echo_len,) = struct.unpack("<I", take(4))
    echo = str(take(echo_len), "utf-8")
    if offset != len(blob):
        raise ValueError(f"{path}: {len(blob) - offset} trailing bytes after "
                         f"the config echo")
    return Checkpoint(version, params, echo)


def average_checkpoints(paths) -> Checkpoint:
    """Elementwise mean of the parameters across checkpoint files; optimizer
    state is never part of the format, so nothing else survives."""
    ckpts = [load_checkpoint(p) for p in paths]
    if not ckpts:
        raise ValueError("no checkpoints to average")
    first = ckpts[0]
    names = list(first.params)
    for ckpt in ckpts[1:]:
        if list(ckpt.params) != names:
            raise ValueError("checkpoints disagree on parameter names")
        for name in names:
            if ckpt.params[name].shape != first.params[name].shape:
                raise ValueError(f"{name}: shape mismatch across checkpoints")
    averaged = {}
    for name in names:
        # float64 accumulation is exact for small N, so the mean is
        # permutation-invariant before the final float32 rounding
        stack = np.stack([c.params[name].astype(np.float64) for c in ckpts])
        averaged[name] = stack.mean(axis=0).astype(np.float32)
    return Checkpoint(first.version, averaged, first.config_echo)


# --- training & evaluation ----------------------------------------------------

@dataclass
class TrainResult:
    checkpoint_paths: list[Path]
    averaged_path: Path | None
    metrics: list[tuple[int, float, float]]  # (epoch, train_loss, dev_ter)
    skipped_utterances: int


def micro_batches(lengths: list[int]) -> list[list[int]]:
    """Indices of a step's utterances, sorted stably by length and cut into
    groups whose size times their longest length is at most TRAIN_FRAMES;
    an utterance longer than that is a group of its own."""
    groups: list[list[int]] = []
    for index in np.argsort(lengths, kind="stable").tolist():
        if groups and (len(groups[-1]) + 1) * lengths[index] <= TRAIN_FRAMES:
            groups[-1].append(index)
        else:
            groups.append([index])
    return groups


def step_losses(model: Model, batch: list[Utterance], plan,
                draws: np.ndarray) -> list[LossBreakdown | None]:
    """Forward and backward one step's utterances in micro-batches, pushing
    1/len(batch) of each utterance's gradient onto the parameters.  Row i
    of `draws` holds utterance i's stochastic-depth draws.  Returns each
    utterance's loss breakdown in batch order, None where its target is
    infeasible; such an utterance adds no gradient."""
    lengths = [utt.features.shape[0] for utt in batch]
    breakdowns: list[LossBreakdown | None] = [None] * len(batch)
    for group in micro_batches(lengths):
        group_lengths = [lengths[i] for i in group]
        stack = np.zeros((len(group), max(group_lengths), batch[0].features.shape[1]),
                         dtype=model.encoder.dtype)
        for row, i in enumerate(group):
            stack[row, :lengths[i]] = batch[i].features
        with Tape() as tape:
            trace = model.trace(stack, lengths=group_lengths, draws=draws[group])
            losses = stack_losses(trace, group_lengths, [batch[i].labels for i in group],
                                  model.heads, plan)
            totals = tuple(b.total for b in losses if b is not None)
            share = None
            if totals:  # the micro-batch's share of the step's mean loss
                c = 1.0 / len(batch)
                share = record_op(sum(t.data for t in totals) * c, totals,
                                  lambda g: [g * c] * len(totals))
        if share is not None:
            tape.backward(share)
        for i, breakdown in zip(group, losses):
            breakdowns[i] = breakdown
    return breakdowns


def run_training(cfg: RunConfig, out_dir) -> TrainResult:
    """Train per the config, writing one checkpoint per epoch, a metrics log,
    and the average of the last `average_last` epoch checkpoints."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    echo = cfg.to_text()
    spec = cfg.loss_spec()

    train_set = generate_dataset(cfg.task, "train")
    dev_set = generate_dataset(cfg.task, "dev")
    model = Model.from_run_config(cfg)
    params = model.parameters()
    optimizer = OptimizerState.init(params, cfg.d_model)
    rng = np.random.default_rng([cfg.seed, 100])  # one stream for all step draws

    paths = [out_dir / "epoch_0.ckpt"]
    save_checkpoint(paths[0], checkpoint_from_model(model, echo))
    metrics: list[tuple[int, float, float]] = []
    metrics_lines: list[str] = []
    skipped = 0

    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(train_set))
        epoch_losses: list[float] = []
        for start in range(0, len(order), cfg.batch_size):
            batch = [train_set[i] for i in order[start:start + cfg.batch_size]]
            plan = plan_step(spec, cfg.layers, rng)
            draws = rng.random((len(batch), cfg.layers))
            try:
                breakdowns = step_losses(model, batch, plan, draws)
            except FloatingPointError as err:
                raise TrainingDiverged(
                    f"non-finite value at epoch {epoch}, step {optimizer.step + 1}: {err}"
                ) from err
            for utt, breakdown in zip(batch, breakdowns):
                if breakdown is None:
                    skipped += 1
                    logger.warning("skipping infeasible utterance (T=%d, U=%d)",
                                   utt.features.shape[0], len(utt.labels))
            batch_losses = [b.total.item() for b in breakdowns if b is not None]
            if not batch_losses:
                continue
            optimizer.apply_gradients(params)
            mean_loss = float(np.mean(batch_losses))
            if not np.isfinite(mean_loss):
                raise TrainingDiverged(
                    f"loss diverged at epoch {epoch}, step {optimizer.step}")
            epoch_losses.append(mean_loss)

        train_loss = float(np.mean(epoch_losses)) if epoch_losses else float("nan")
        try:
            dev_ter = evaluate_model(model, dev_set).rate
        except FloatingPointError as err:
            raise TrainingDiverged(
                f"non-finite value in the dev decode after epoch {epoch}: {err}") from err
        metrics.append((epoch, train_loss, dev_ter))
        metrics_lines.append(f"{epoch}\t{train_loss:.6f}\t{dev_ter:.6f}")
        logger.info("epoch %d: train_loss=%.4f dev_ter=%.4f", epoch, train_loss, dev_ter)
        path = out_dir / f"epoch_{epoch}.ckpt"
        save_checkpoint(path, checkpoint_from_model(model, echo))
        paths.append(path)

    (out_dir / "metrics.log").write_text("\n".join(metrics_lines) + "\n"
                                         if metrics_lines else "")
    averaged_path = None
    if cfg.epochs >= 1:
        window = min(cfg.average_last, cfg.epochs)
        averaged = average_checkpoints(paths[-window:])
        averaged_path = out_dir / "averaged.ckpt"
        save_checkpoint(averaged_path, averaged)
    if skipped:
        logger.info("skipped %d infeasible utterances", skipped)
    return TrainResult(paths, averaged_path, metrics, skipped)


@dataclass
class EvalResult:
    rate: float
    decodes: list[tuple[int, ...]]


def evaluate_model(model: Model, dataset: list[Utterance]) -> EvalResult:
    """Greedy-decode every utterance, forwarding equal-length utterances
    together in stacks of at most EVAL_FRAMES frames (one utterance when it
    is longer), and score the decodes; they come back in dataset order."""
    if not dataset:
        raise ValueError("cannot evaluate on an empty dataset")
    by_length: dict[int, list[int]] = {}
    for index, utt in enumerate(dataset):
        by_length.setdefault(utt.features.shape[0], []).append(index)
    decodes: list[tuple[int, ...]] = [()] * len(dataset)
    for steps, indices in by_length.items():
        size = max(1, EVAL_FRAMES // steps)
        for start in range(0, len(indices), size):
            stack = indices[start:start + size]
            trace = model.trace(np.stack([dataset[i].features for i in stack]))
            for index, hyp in zip(stack, eval_decode(trace, model.heads)):
                decodes[index] = hyp
    rate = corpus_rate([(utt.labels, hyp) for utt, hyp in zip(dataset, decodes)])
    return EvalResult(rate, decodes)


def evaluate(ckpt: Checkpoint, dataset: list[Utterance]) -> EvalResult:
    """Greedy-decode the dataset with the model stored in a checkpoint."""
    cfg = RunConfig.parse(ckpt.config_echo)
    model = Model.from_run_config(cfg)
    load_model_state(model, ckpt)
    return evaluate_model(model, dataset)
