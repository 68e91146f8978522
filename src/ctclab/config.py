"""Plain key=value run configuration: parsing, validation, and the canonical
echo that gets embedded into checkpoints so a run can be reproduced from its
artifacts.

A `RunConfig` holds the run's `EncoderConfig`, `IntermediateLossSpec` and
`SyntheticTaskConfig` and the run-level fields, and every default lives on
the dataclass field it sets.  Every key is one row of `_TABLE`: (key,
attribute, caster), where the attribute is a dotted path from the
`RunConfig`, such as `encoder.n_heads`.  `RunConfig.parse` casts each line
with its row's caster and leaves unset keys at their field defaults, except
that the task seed falls back to the run's seed; the encoder's input width
and seed are taken from `task.dim` and `train.seed`.  A key that only one
setting reads (`loss.position`, `loss.k`, `model.conv_kernel`) must keep its
default under any other.  `RunConfig.to_text` walks the table in order, so
the echo lists the keys as the table does and leaves out a value of None
(an unset loss position).
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

import numpy as np

from .data import SyntheticTaskConfig
from .encoder import EncoderConfig
from .objective import IntermediateLossSpec, plan_step


class ConfigError(ValueError):
    pass


def _parse_bool(text: str) -> bool:
    if text.lower() in ("true", "1", "yes"):
        return True
    if text.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


_TABLE = (
    ("model.kind", "encoder.kind", str),
    ("model.layers", "encoder.num_layers", int),
    ("model.d_model", "encoder.d_model", int),
    ("model.heads", "encoder.n_heads", int),
    ("model.d_ff", "encoder.d_ff", int),
    ("model.conv_kernel", "encoder.conv_kernel", int),
    ("model.p_last", "encoder.survival_floor", float),
    ("model.separate_heads", "separate_heads", _parse_bool),
    ("loss.variant", "loss.variant", str),
    ("loss.w", "loss.weight", float),
    ("loss.k", "loss.count", int),
    ("loss.position", "loss.position", int),
    ("task.vocab", "task.vocab", int),
    ("task.dim", "task.input_dim", int),
    ("task.min_label", "task.min_label_length", int),
    ("task.max_label", "task.max_label_length", int),
    ("task.min_duration", "task.min_duration", int),
    ("task.max_duration", "task.max_duration", int),
    ("task.sigma", "task.noise_sigma", float),
    ("task.train_size", "task.train_size", int),
    ("task.dev_size", "task.dev_size", int),
    ("task.test_size", "task.test_size", int),
    ("task.seed", "task.seed", int),
    ("train.epochs", "epochs", int),
    ("train.batch", "batch_size", int),
    ("train.seed", "seed", int),
    ("train.average_last", "average_last", int),
)
_ROWS = {key: (attr, caster) for key, attr, caster in _TABLE}


@dataclass(frozen=True)
class RunConfig:
    encoder: EncoderConfig
    loss: IntermediateLossSpec
    task: SyntheticTaskConfig
    separate_heads: bool = False
    epochs: int = 20
    batch_size: int = 16
    seed: int = 1
    average_last: int = 5

    @classmethod
    def parse(cls, text: str) -> "RunConfig":
        parts = {"": {}, "encoder": {}, "loss": {}, "task": {}}
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"line {line_no}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _ROWS:
                raise ConfigError(f"line {line_no}: unknown key {key!r}")
            attr, caster = _ROWS[key]
            part, _, name = attr.rpartition(".")
            try:
                parts[part][name] = caster(value)
            except ValueError as err:
                raise ConfigError(f"line {line_no}: bad value for {key}: {err}") from None

        run = parts[""]
        seed = run.get("seed", cls.seed)  # the class attribute is the field default
        try:
            task = SyntheticTaskConfig(**{"seed": seed, **parts["task"]})
            encoder = EncoderConfig(input_dim=task.input_dim, seed=seed, **parts["encoder"])
            loss = IntermediateLossSpec(**parts["loss"])
            # every intermediate position the loss can pick must be a layer
            # below the last; the random variant's lies in [L/2, L-1], so any
            # one draw of it shows whether that range exists
            plan_step(loss, encoder.num_layers, np.random.default_rng(0))
        except ValueError as err:
            raise ConfigError(str(err)) from None
        cfg = cls(encoder=encoder, loss=loss, task=task, **run)
        # a key that only one setting reads keeps its default under any
        # other, so that no echo names a value that had no effect
        for key, default, setting, reader in (
                ("loss.position", IntermediateLossSpec.position, "loss.variant", "lower"),
                ("loss.k", IntermediateLossSpec.count, "loss.variant", "multiple"),
                ("model.conv_kernel", EncoderConfig.conv_kernel, "model.kind", "conformer")):
            value = attrgetter(_ROWS[key][0])(cfg)
            if value != default and attrgetter(_ROWS[setting][0])(cfg) != reader:
                raise ConfigError(
                    f"{key}={_fmt(value)} has no effect without {setting}={reader}")
        bounds = [("train.epochs", cfg.epochs, 0), ("train.batch", cfg.batch_size, 1),
                  ("train.average_last", cfg.average_last, 1),
                  ("train.seed", cfg.seed, 0), ("task.seed", cfg.task.seed, 0)]
        bounds += [(f"task.{split}_size", getattr(cfg.task, f"{split}_size"), 1)
                   for split in ("train", "dev", "test")]
        for key, value, least in bounds:
            if value < least:
                raise ConfigError(f"{key} must be at least {least}, got {value}")
        return cfg

    @classmethod
    def load(cls, path) -> "RunConfig":
        return cls.parse(Path(path).read_text())

    @property
    def layers(self) -> int:
        """`encoder.num_layers`, kept for `bench/run.py`."""
        return self.encoder.num_layers

    def loss_spec(self) -> IntermediateLossSpec:
        """`loss`, kept for `bench/run.py`."""
        return self.loss

    def to_text(self) -> str:
        """Canonical echo; parsing it back reproduces this config exactly."""
        lines = []
        for key, attr, _ in _TABLE:
            value = attrgetter(attr)(self)
            if value is not None:
                lines.append(f"{key}={_fmt(value)}")
        return "\n".join(lines) + "\n"
