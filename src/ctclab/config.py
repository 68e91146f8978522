"""Plain key=value run configuration: parsing, validation, and the canonical
echo that gets embedded into checkpoints so a run can be reproduced from its
artifacts.

Every key is one row of `_TABLE`: (key, attribute, caster, default).  The
attribute is a `RunConfig` field, or `task.<field>` for a field of the
run's `SyntheticTaskConfig`.  `RunConfig.parse` casts each line with its
row's caster and fills unset keys from the defaults; `RunConfig.to_text`
walks the table in order, so the echo lists the keys as the table does and
leaves out a value of None.  A default of None is resolved by `parse`: the
task seed falls back to the run's seed, and the loss position stays unset.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

import numpy as np

from .data import SyntheticTaskConfig
from .encoder import EncoderConfig
from .objective import IntermediateLossSpec, resolve_positions


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
    ("model.kind", "kind", str, "transformer"),
    ("model.layers", "layers", int, 4),
    ("model.d_model", "d_model", int, 64),
    ("model.heads", "heads", int, 4),
    ("model.d_ff", "d_ff", int, 128),
    ("model.conv_kernel", "conv_kernel", int, 7),
    ("model.p_last", "p_last", float, 0.7),
    ("model.separate_heads", "separate_heads", _parse_bool, False),
    ("loss.variant", "loss_variant", str, "middle"),
    ("loss.w", "loss_weight", float, 0.3),
    ("loss.k", "loss_count", int, 1),
    ("loss.position", "loss_position", int, None),
    ("task.vocab", "task.vocab", int, 5),
    ("task.dim", "task.input_dim", int, 16),
    ("task.min_label", "task.min_label_length", int, 2),
    ("task.max_label", "task.max_label_length", int, 8),
    ("task.min_duration", "task.min_duration", int, 2),
    ("task.max_duration", "task.max_duration", int, 4),
    ("task.sigma", "task.noise_sigma", float, 0.25),
    ("task.train_size", "task.train_size", int, 2048),
    ("task.dev_size", "task.dev_size", int, 256),
    ("task.test_size", "task.test_size", int, 256),
    ("task.seed", "task.seed", int, None),
    ("train.epochs", "epochs", int, 20),
    ("train.batch", "batch_size", int, 16),
    ("train.seed", "seed", int, 1),
    ("train.average_last", "average_last", int, 5),
)
_CASTERS = {key: caster for key, _, caster, _ in _TABLE}


@dataclass(frozen=True)
class RunConfig:
    kind: str
    layers: int
    d_model: int
    heads: int
    d_ff: int
    conv_kernel: int
    p_last: float
    separate_heads: bool
    loss_variant: str
    loss_weight: float
    loss_count: int
    loss_position: int | None
    task: SyntheticTaskConfig
    epochs: int
    batch_size: int
    seed: int
    average_last: int

    @classmethod
    def parse(cls, text: str) -> "RunConfig":
        values = {}
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"line {line_no}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _CASTERS:
                raise ConfigError(f"line {line_no}: unknown key {key!r}")
            try:
                values[key] = _CASTERS[key](value)
            except ValueError as err:
                raise ConfigError(f"line {line_no}: bad value for {key}: {err}") from None

        fields, task = {}, {}
        for key, attr, _, default in _TABLE:
            value = values.get(key, default)
            if attr.startswith("task."):
                task[attr.removeprefix("task.")] = value
            else:
                fields[attr] = value
        if task["seed"] is None:
            task["seed"] = fields["seed"]
        try:
            cfg = cls(task=SyntheticTaskConfig(**task), **fields)
            cfg.encoder_config()  # validate model fields eagerly
            # every intermediate position the loss can pick must be a layer
            # below the last; the random variant's lies in [L/2, L-1], so any
            # one draw of it shows whether that range exists
            resolve_positions(cfg.loss_spec(), cfg.layers, np.random.default_rng(0))
        except ValueError as err:
            raise ConfigError(str(err)) from None
        bounds = [("train.epochs", cfg.epochs, 0), ("train.batch", cfg.batch_size, 1),
                  ("train.average_last", cfg.average_last, 1)]
        bounds += [(f"task.{split}_size", getattr(cfg.task, f"{split}_size"), 1)
                   for split in ("train", "dev", "test")]
        for key, value, least in bounds:
            if value < least:
                raise ConfigError(f"{key} must be at least {least}, got {value}")
        return cfg

    @classmethod
    def load(cls, path) -> "RunConfig":
        return cls.parse(Path(path).read_text())

    @classmethod
    def default(cls) -> "RunConfig":
        return cls.parse("")

    def encoder_config(self) -> EncoderConfig:
        return EncoderConfig(
            num_layers=self.layers,
            kind=self.kind,
            d_model=self.d_model,
            n_heads=self.heads,
            d_ff=self.d_ff,
            conv_kernel=self.conv_kernel,
            survival_floor=self.p_last,
            input_dim=self.task.input_dim,
            seed=self.seed,
        )

    def loss_spec(self) -> IntermediateLossSpec:
        return IntermediateLossSpec(
            variant=self.loss_variant,
            weight=self.loss_weight,
            count=self.loss_count,
            position=self.loss_position,
        )

    def to_text(self) -> str:
        """Canonical echo; parsing it back reproduces this config exactly."""
        lines = []
        for key, attr, _, _ in _TABLE:
            value = attrgetter(attr)(self)
            if value is not None:
                lines.append(f"{key}={_fmt(value)}")
        return "\n".join(lines) + "\n"
