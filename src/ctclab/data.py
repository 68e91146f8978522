"""Synthetic token-sequence task: each token id owns a fixed prototype
vector, utterances concatenate per-token prototypes held for a few frames,
and Gaussian noise is added on top.  Stands in for a real corpus at desk
scale."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .ctc import required_length

SPLITS = ("train", "dev", "test")
# Draws of one utterance before generation gives up: a config whose
# utterances almost never fit their labels (at 1 frame per token, 2 token
# ids and 40 tokens, one draw in 2**39 fits) would otherwise spin forever.
MAX_DRAWS = 10_000


@dataclass(frozen=True)
class SyntheticTaskConfig:
    vocab: int = 5
    input_dim: int = 16
    min_label_length: int = 2
    max_label_length: int = 8
    min_duration: int = 2    # frames emitted per token
    max_duration: int = 4
    noise_sigma: float = 0.25
    train_size: int = 2048
    dev_size: int = 256
    test_size: int = 256
    seed: int = 1

    def __post_init__(self):
        if self.vocab < 1:
            raise ValueError("vocab must be positive")
        if self.min_duration < 1:
            raise ValueError("per-token duration must be at least 1 frame")
        if not 1 <= self.min_label_length <= self.max_label_length:
            raise ValueError("bad label length range")
        if self.min_duration > self.max_duration:
            raise ValueError("bad duration range")
        if not 0 <= self.noise_sigma < math.inf:
            raise ValueError(
                f"noise sigma must be finite and non-negative, got {self.noise_sigma}")
        # one token id means every label repeats it, and CTC needs a blank
        # between repeats: n tokens need 2n - 1 frames, and 1-frame tokens give n
        if self.vocab == 1 and self.max_duration == 1 and self.min_label_length >= 2:
            raise ValueError("vocab 1 with max_duration 1 fits no label of 2 or more "
                             "tokens, so no utterance can be drawn")

    def size_of(self, split: str) -> int:
        return {"train": self.train_size, "dev": self.dev_size,
                "test": self.test_size}[split]


class Utterance(NamedTuple):
    features: np.ndarray        # (T, input_dim)
    labels: tuple[int, ...]


def token_prototypes(cfg: SyntheticTaskConfig) -> np.ndarray:
    """One fixed vector per token id, rows 0..vocab-1 for ids 1..vocab."""
    rng = np.random.default_rng([cfg.seed, 0])
    return rng.normal(size=(cfg.vocab, cfg.input_dim))


def generate_dataset(cfg: SyntheticTaskConfig, split: str,
                     dtype=np.float32) -> list[Utterance]:
    """Deterministic per (seed, split); splits use disjoint derived seeds."""
    if split not in SPLITS:
        raise ValueError(f"split must be one of {SPLITS}, got {split!r}")
    protos = token_prototypes(cfg)
    rng = np.random.default_rng([cfg.seed, 1 + SPLITS.index(split)])
    utterances = []
    for _ in range(cfg.size_of(split)):
        for _ in range(MAX_DRAWS):
            length = int(rng.integers(cfg.min_label_length, cfg.max_label_length + 1))
            labels = tuple(int(t) for t in rng.integers(1, cfg.vocab + 1, size=length))
            durations = rng.integers(cfg.min_duration, cfg.max_duration + 1,
                                     size=length)
            frames = np.repeat(protos[np.array(labels) - 1], durations, axis=0)
            if cfg.noise_sigma > 0:
                frames = frames + rng.normal(scale=cfg.noise_sigma, size=frames.shape)
            # guaranteed when min_duration >= 2; regenerate if a custom range
            # ever produces an infeasible pair
            if frames.shape[0] >= required_length(labels):
                break
        else:
            raise ValueError(
                f"no utterance drawn from task.vocab, task.min_label..task.max_label "
                f"and task.min_duration..task.max_duration fits its labels in "
                f"{MAX_DRAWS} draws; with task.min_duration of 2 or more every draw fits")
        utterances.append(Utterance(frames.astype(dtype), labels))
    return utterances
