"""Reference computations the benchmark checks ctclab's outputs against.

Nothing here imports ctclab.  Each check recomputes what the program
produced by another route: a parser of the documented checkpoint layout,
a float64 numpy forward of the Transformer encoder with its own sinusoidal
table, a scaled probability-domain CTC forward-backward, and a two-row
edit distance.  Every check returns a list of problems; an empty list
means the output passed.  `check_decode` also returns how many
hypotheses it excused on near-tied frames.
"""
from __future__ import annotations

import struct
from typing import Callable, Sequence

import numpy as np

CHECKPOINT_MAGIC = b"ICTC"
NORM_EPS = 1e-5
# Reference and program may pick different argmax symbols only on frames
# whose two best reference log-posteriors lie closer than this: the program
# runs in float32, the reference in float64.
DECODE_TIE_TOLERANCE = 1e-3
CTC_LOSS_RTOL = 1e-5
CTC_GRAD_ATOL = 1e-8
FD_STEP = 1e-6
FD_RTOL = 1e-4


# --- checkpoints -------------------------------------------------------------

def parse_checkpoint(blob: bytes) -> tuple[dict[str, np.ndarray], str]:
    """Read the layout `trainer.save_checkpoint` documents: magic, u32
    version, u32 count, then per parameter u32 name length, name, u8 rank,
    u32 extents and a little-endian float32 payload; last a u32-length
    UTF-8 config echo.  Truncated or padded files raise ValueError."""
    pos = 0

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(blob):
            raise ValueError(f"checkpoint truncated at byte {pos} (needs {n} more)")
        chunk = blob[pos:pos + n]
        pos += n
        return chunk

    if take(4) != CHECKPOINT_MAGIC:
        raise ValueError("bad checkpoint magic")
    _version, count = struct.unpack("<II", take(8))
    params: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4))
        name = take(name_len).decode("utf-8")
        rank = take(1)[0]
        shape = struct.unpack(f"<{rank}I", take(4 * rank))
        size = int(np.prod(shape, dtype=np.int64))
        params[name] = np.frombuffer(take(4 * size), dtype="<f4").reshape(shape)
    (echo_len,) = struct.unpack("<I", take(4))
    echo = take(echo_len).decode("utf-8")
    if pos != len(blob):
        raise ValueError(f"{len(blob) - pos} trailing bytes after the config echo")
    return params, echo


def parse_echo(echo: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in echo.splitlines() if "=" in line)


def check_average(window: Sequence[bytes], averaged: bytes) -> list[str]:
    """The averaged checkpoint holds, bit for bit, the float32 rounding of
    the float64 mean of the window checkpoints' parameters."""
    try:
        parsed = [parse_checkpoint(blob)[0] for blob in window]
        got, _ = parse_checkpoint(averaged)
    except ValueError as err:
        return [f"averaged checkpoint: {err}"]
    problems = []
    if list(got) != list(parsed[0]):
        return ["averaged checkpoint: parameter names or order differ from the window"]
    for name, value in got.items():
        acc = np.zeros(value.shape, dtype=np.float64)
        for params in parsed:
            acc += params[name]
        want = (acc / len(parsed)).astype(np.float32)
        if not np.array_equal(want.view(np.uint32), value.view(np.uint32)):
            bad = int((want.view(np.uint32) != value.view(np.uint32)).sum())
            problems.append(f"averaged checkpoint: {name} differs from the "
                            f"float64 window mean in {bad} entries")
    return problems


# --- CTC -----------------------------------------------------------------------

def ctc_reference(grid: np.ndarray, labels: Sequence[int]) -> tuple[float, np.ndarray]:
    """Negative log-likelihood and its gradient with respect to the
    log-posterior grid, from a probability-domain forward-backward whose
    alpha and beta rows are rescaled to sum to one at every frame."""
    probs = np.exp(np.asarray(grid, dtype=np.float64))
    steps, width = probs.shape
    ext = np.zeros(2 * len(labels) + 1, dtype=np.intp)
    ext[1::2] = labels
    states = ext.size
    skip = np.zeros(states, dtype=bool)
    skip[2:] = (ext[2:] != 0) & (ext[2:] != ext[:-2])
    emit = probs[:, ext]

    alpha = np.zeros((steps, states))
    alpha[0, :2] = emit[0, :2]
    log_scale = 0.0
    for t in range(steps):
        if t:
            prev = alpha[t - 1]
            cur = prev.copy()
            cur[1:] += prev[:-1]
            cur[2:] += np.where(skip[2:], prev[:-2], 0.0)
            alpha[t] = cur * emit[t]
        norm = alpha[t].sum()
        alpha[t] /= norm
        log_scale += np.log(norm)
    nll = -(log_scale + np.log(alpha[-1, -2:].sum()))

    beta = np.zeros((steps, states))
    beta[-1, -2:] = 1.0
    for t in range(steps - 2, -1, -1):
        nxt = beta[t + 1] * emit[t + 1]
        cur = nxt.copy()
        cur[:-1] += nxt[1:]
        cur[:-2] += np.where(skip[2:], nxt[2:], 0.0)
        beta[t] = cur / cur.sum()
    occupancy = alpha * beta
    occupancy /= occupancy.sum(axis=1, keepdims=True)
    grad = np.zeros((steps, width))
    for s, sym in enumerate(ext):
        grad[:, sym] -= occupancy[:, s]
    return float(nll), grad


def check_ctc(samples) -> list[str]:
    """`samples` holds (grid, labels, loss, dgrid) from the program: the loss
    it reported in training and its gradient with respect to the grid."""
    problems = []
    if not samples:
        return ["no CTC grids were sampled"]
    for index, (grid, labels, loss, dgrid) in enumerate(samples):
        want_loss, want_grad = ctc_reference(grid, labels)
        if not abs(loss - want_loss) <= CTC_LOSS_RTOL * max(1.0, abs(want_loss)):
            problems.append(f"ctc sample {index}: loss {loss!r} != reference {want_loss!r}")
        row_sums = np.asarray(dgrid, dtype=np.float64).sum(axis=1)
        if not np.allclose(row_sums, -1.0, rtol=0.0, atol=CTC_GRAD_ATOL):
            problems.append(f"ctc sample {index}: gradient rows sum to "
                            f"{row_sums.min():.9f}..{row_sums.max():.9f}, not -1")
        err = float(np.abs(np.asarray(dgrid, dtype=np.float64) - want_grad).max())
        if not err <= CTC_GRAD_ATOL:
            problems.append(f"ctc sample {index}: gradient differs from reference by {err:.3e}")
    return problems


# --- gradient ------------------------------------------------------------------

def check_directional_gradient(loss_at: Callable[[], float],
                               params: dict[str, np.ndarray],
                               grads: dict[str, np.ndarray],
                               rng: np.random.Generator) -> list[str]:
    """Central finite difference of the loss along one random unit direction
    against the same projection of the tape gradient.  `params` are the
    float64 arrays `loss_at` reads; they are restored afterwards."""
    direction = {name: rng.normal(size=p.shape) for name, p in params.items()}
    norm = np.sqrt(sum(float((d * d).sum()) for d in direction.values()))
    analytic = sum(float((grads[name] * d).sum()) for name, d in direction.items()) / norm
    originals = {name: p.copy() for name, p in params.items()}
    values = []
    for sign in (1.0, -1.0):
        for name, p in params.items():
            p[...] = originals[name] + sign * FD_STEP * direction[name] / norm
        values.append(loss_at())
    for name, p in params.items():
        p[...] = originals[name]
    numeric = (values[0] - values[1]) / (2.0 * FD_STEP)
    err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
    if not err <= FD_RTOL:
        return [f"directional derivative: tape {analytic:.10g} vs finite "
                f"difference {numeric:.10g} (relative error {err:.2e})"]
    return []


def check_loss_falls(epoch_losses: Sequence[float]) -> list[str]:
    if len(epoch_losses) < 2:
        return ["fewer than two epochs recorded"]
    if not epoch_losses[-1] < epoch_losses[0]:
        return [f"train loss did not fall: {epoch_losses[0]:.6f} -> {epoch_losses[-1]:.6f}"]
    return []


# --- decoding ------------------------------------------------------------------

def _layer_norm(x, gain, bias):
    centred = x - x.mean(axis=-1, keepdims=True)
    return centred / np.sqrt((centred ** 2).mean(axis=-1, keepdims=True) + NORM_EPS) * gain + bias


def _positions(steps: int, dim: int) -> np.ndarray:
    column = np.arange(dim)
    rate = 10000.0 ** (-(column - column % 2) / dim)
    angle = np.arange(steps)[:, None] * rate[None, :]
    return np.where(column % 2 == 0, np.sin(angle), np.cos(angle))


def transformer_log_posteriors(p: dict[str, np.ndarray], config: dict[str, str],
                               features: np.ndarray) -> np.ndarray:
    """Eval-mode forward of the pre-norm Transformer encoder and the final
    CTC head in float64, from the checkpoint's named weights as float64
    arrays."""
    if config.get("model.kind", "transformer") != "transformer":
        raise ValueError("the reference forward covers the Transformer encoder only")
    layers = int(config["model.layers"])
    heads = int(config["model.heads"])
    x = features.astype(np.float64) @ p["encoder.frontend.weight"] + p["encoder.frontend.bias"]
    steps, dim = x.shape
    x = x + _positions(steps, dim)
    head_dim = dim // heads
    for index in range(1, layers + 1):
        pre = f"encoder.layer{index}."
        h = _layer_norm(x, p[pre + "att_norm.gain"], p[pre + "att_norm.bias"])
        q, k, v = ((h @ p[pre + f"attention.w{n}"] + p[pre + f"attention.b{n}"])
                   .reshape(steps, heads, head_dim) for n in "qkv")
        scores = np.einsum("thd,shd->hts", q, k) / np.sqrt(head_dim)
        weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
        weights /= weights.sum(axis=-1, keepdims=True)
        mixed = np.einsum("hts,shd->thd", weights, v).reshape(steps, dim)
        x = x + mixed @ p[pre + "attention.wo"] + p[pre + "attention.bo"]
        h = _layer_norm(x, p[pre + "ffn_norm.gain"], p[pre + "ffn_norm.bias"])
        hidden = np.maximum(h @ p[pre + "ffn.w1"] + p[pre + "ffn.b1"], 0.0)
        x = x + hidden @ p[pre + "ffn.w2"] + p[pre + "ffn.b2"]
    head = "head." if "head.weight" in p else "head_final."
    logits = x @ p[head + "weight"] + p[head + "bias"]
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def greedy(log_posteriors: np.ndarray) -> tuple[int, ...]:
    path = np.argmax(log_posteriors, axis=1)
    keep = np.ones(path.size, dtype=bool)
    keep[1:] = path[1:] != path[:-1]
    return tuple(int(s) for s in path[keep] if s != 0)


def greedy_with_ties(log_posteriors: np.ndarray, hypothesis: Sequence[int]) -> bool:
    """Whether `hypothesis` is the greedy decode of some path that leaves
    the argmax only on frames where another symbol lies within
    DECODE_TIE_TOLERANCE of the best; there the path may take any such
    symbol.  Tracks, frame by frame, every reachable (tokens emitted,
    previous symbol) pair of the collapse."""
    hyp = tuple(hypothesis)
    near = log_posteriors > log_posteriors.max(axis=1, keepdims=True) - DECODE_TIE_TOLERANCE
    states = {(0, -1)}
    for row in near:
        reached = set()
        for emitted, prev in states:
            for sym in np.flatnonzero(row).tolist():
                if sym == prev or sym == 0:
                    reached.add((emitted, sym))
                elif emitted < len(hyp) and hyp[emitted] == sym:
                    reached.add((emitted + 1, sym))
        states = reached
    return any(emitted == len(hyp) for emitted, _ in states)


def edit_distance(ref: Sequence[int], hyp: Sequence[int]) -> int:
    row = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, start=1):
        prev, row = row, [i] + [0] * len(hyp)
        for j, h in enumerate(hyp, start=1):
            row[j] = min(prev[j] + 1, row[j - 1] + 1, prev[j - 1] + (r != h))
    return row[-1]


def check_decode(checkpoint: bytes, utterances, hypotheses,
                 reported_rate: float) -> tuple[list[str], int]:
    """Every hypothesis equals the reference greedy decode, or differs from
    it only through frames where the reference's best posteriors are
    within DECODE_TIE_TOLERANCE (`greedy_with_ties`); the reported error
    rate equals the reference edit distance total over the program's
    hypotheses.  Returns the problems and the number of hypotheses excused
    on near-tied frames."""
    params, echo = parse_checkpoint(checkpoint)
    params = {name: value.astype(np.float64) for name, value in params.items()}
    config = parse_echo(echo)
    problems = []
    excused = 0
    if len(hypotheses) != len(utterances):
        return [f"{len(hypotheses)} hypotheses for {len(utterances)} utterances"], 0
    for index, (utt, hyp) in enumerate(zip(utterances, hypotheses)):
        log_post = transformer_log_posteriors(params, config, utt.features)
        if tuple(hyp) == greedy(log_post):
            continue
        if greedy_with_ties(log_post, hyp):
            excused += 1
        else:
            problems.append(f"utterance {index}: hypothesis {tuple(hyp)} != "
                            f"reference {greedy(log_post)}")
    distance = sum(edit_distance(utt.labels, hyp) for utt, hyp in zip(utterances, hypotheses))
    ref_length = sum(len(utt.labels) for utt in utterances)
    if distance / max(1, ref_length) != reported_rate:
        problems.append(f"reported error rate {reported_rate!r} != "
                        f"{distance}/{ref_length}")
    return problems, excused
