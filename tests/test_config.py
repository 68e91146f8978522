from operator import attrgetter

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from ctclab.config import _TABLE, ConfigError, RunConfig
from ctclab.objective import VARIANTS

# the echo of the default config and of one non-default config, taken from
# the code before the key table; checkpoints embed these bytes
DEFAULT_ECHO = (
    "model.kind=transformer\n"
    "model.layers=4\n"
    "model.d_model=64\n"
    "model.heads=4\n"
    "model.d_ff=128\n"
    "model.conv_kernel=7\n"
    "model.p_last=0.7\n"
    "model.separate_heads=false\n"
    "loss.variant=middle\n"
    "loss.w=0.3\n"
    "loss.k=1\n"
    "task.vocab=5\n"
    "task.dim=16\n"
    "task.min_label=2\n"
    "task.max_label=8\n"
    "task.min_duration=2\n"
    "task.max_duration=4\n"
    "task.sigma=0.25\n"
    "task.train_size=2048\n"
    "task.dev_size=256\n"
    "task.test_size=256\n"
    "task.seed=1\n"
    "train.epochs=20\n"
    "train.batch=16\n"
    "train.seed=1\n"
    "train.average_last=5\n"
)
CONFORMER_LOWER_TEXT = (
    "model.kind=conformer\nloss.variant=lower\nloss.position=2\ntask.sigma=0.5\n")
CONFORMER_LOWER_ECHO = (
    "model.kind=conformer\n"
    "model.layers=4\n"
    "model.d_model=64\n"
    "model.heads=4\n"
    "model.d_ff=128\n"
    "model.conv_kernel=7\n"
    "model.p_last=0.7\n"
    "model.separate_heads=false\n"
    "loss.variant=lower\n"
    "loss.w=0.3\n"
    "loss.k=1\n"
    "loss.position=2\n"
    "task.vocab=5\n"
    "task.dim=16\n"
    "task.min_label=2\n"
    "task.max_label=8\n"
    "task.min_duration=2\n"
    "task.max_duration=4\n"
    "task.sigma=0.5\n"
    "task.train_size=2048\n"
    "task.dev_size=256\n"
    "task.test_size=256\n"
    "task.seed=1\n"
    "train.epochs=20\n"
    "train.batch=16\n"
    "train.seed=1\n"
    "train.average_last=5\n"
)


class TestParsing:
    def test_defaults(self):
        cfg = RunConfig.parse("")
        assert cfg.encoder.kind == "transformer"
        assert cfg.encoder.num_layers == 4
        assert cfg.encoder.d_model == 64
        assert cfg.encoder.survival_floor == 0.7
        assert cfg.loss.variant == "middle"
        assert cfg.loss.weight == 0.3
        assert cfg.epochs == 20
        assert cfg.batch_size == 16
        assert cfg.average_last == 5
        assert cfg.task.vocab == 5
        assert cfg.task.noise_sigma == 0.25
        assert cfg.task.train_size == 2048

    def test_unknown_key_named_in_error(self):
        with pytest.raises(ConfigError, match="model.widht"):
            RunConfig.parse("model.widht=3")

    def test_comments_and_blanks_skipped(self):
        cfg = RunConfig.parse("# a comment\n\nmodel.layers=6\n")
        assert cfg.encoder.num_layers == 6

    def test_bad_value_type(self):
        with pytest.raises(ConfigError, match="model.layers"):
            RunConfig.parse("model.layers=four")

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            RunConfig.parse("model.layers 4")

    def test_task_seed_defaults_to_train_seed(self):
        cfg = RunConfig.parse("train.seed=99")
        assert cfg.task.seed == 99
        explicit = RunConfig.parse("train.seed=99\ntask.seed=3")
        assert explicit.task.seed == 3

    def test_invalid_model_values_surface_as_config_errors(self):
        with pytest.raises(ConfigError):
            RunConfig.parse("model.d_model=10\nmodel.heads=4")
        with pytest.raises(ConfigError):
            RunConfig.parse("model.kind=conformer\nmodel.conv_kernel=4")
        with pytest.raises(ConfigError):
            RunConfig.parse("model.p_last=0.0")
        with pytest.raises(ConfigError):
            RunConfig.parse("loss.variant=upside")
        with pytest.raises(ConfigError):
            RunConfig.parse("loss.w=1.5")

    @pytest.mark.parametrize("text, named", [
        ("model.heads=0", "n_heads"),
        ("model.heads=-1", "n_heads"),
        ("model.d_model=0", "d_model"),
        ("model.d_ff=0", "d_ff"),
        ("task.dim=0", "input_dim"),
        ("model.kind=conformer\nmodel.conv_kernel=-1", "conv_kernel"),
        ("task.sigma=nan", "sigma"),
        ("task.sigma=inf", "sigma"),
        ("task.sigma=-inf", "sigma"),
        ("task.vocab=1\ntask.min_duration=1\ntask.max_duration=1", "vocab 1"),
        ("loss.variant=lower\nloss.position=9", r"positions \[9\] outside \[1, 3\]"),
        ("loss.variant=lower\nloss.position=4", r"positions \[4\] outside \[1, 3\]"),
        ("loss.variant=multiple\nloss.k=9", "outside"),
        ("loss.position=2", "loss.position=2 has no effect without loss.variant=lower"),
        ("loss.variant=random\nloss.k=2",
         "loss.k=2 has no effect without loss.variant=multiple"),
        ("model.conv_kernel=3",
         "model.conv_kernel=3 has no effect without model.kind=conformer"),
        ("model.layers=1", "at least 2 layers"),
        ("model.layers=1\nloss.variant=lower", "at least 2 layers"),
        ("model.layers=1\nloss.variant=random", "at least 2 layers"),
        ("model.layers=1\nloss.variant=stochastic", "at least 2 layers"),
        ("model.layers=1\nloss.variant=multiple", "at least 2 layers"),
        ("task.train_size=0", "task.train_size"),
        ("task.train_size=-3", "task.train_size"),
        ("task.dev_size=0", "task.dev_size"),
        ("task.test_size=0", "task.test_size"),
        ("task.test_size=-3", "task.test_size"),
        ("train.epochs=-1", "train.epochs must be at least 0, got -1"),
        ("train.batch=0", "train.batch must be at least 1, got 0"),
        ("train.average_last=0", "train.average_last must be at least 1, got 0"),
    ])
    def test_values_that_crash_hang_or_mislead_are_rejected(self, text, named):
        with pytest.raises(ConfigError, match=named):
            RunConfig.parse(text)

    def test_later_value_of_a_repeated_key_wins(self):
        assert RunConfig.parse("train.seed=5\ntrain.seed=8").seed == 8

    def test_separate_heads_boolean(self):
        assert RunConfig.parse("model.separate_heads=true").separate_heads
        assert not RunConfig.parse("model.separate_heads=false").separate_heads
        with pytest.raises(ConfigError):
            RunConfig.parse("model.separate_heads=maybe")


class TestEcho:
    def test_round_trip_exact(self):
        cfg = RunConfig.parse(
            "model.kind=conformer\nmodel.conv_kernel=5\nloss.variant=multiple\n"
            "loss.k=2\nmodel.layers=8\ntask.sigma=0.5\ntrain.seed=7\n")
        assert RunConfig.parse(cfg.to_text()) == cfg

    def test_default_round_trip(self):
        cfg = RunConfig.parse("")
        assert RunConfig.parse(cfg.to_text()) == cfg

    def test_lower_position_round_trip(self):
        cfg = RunConfig.parse("loss.variant=lower\nloss.position=3\nmodel.layers=12")
        assert cfg.loss.position == 3
        assert RunConfig.parse(cfg.to_text()) == cfg

    def test_derived_configs(self):
        cfg = RunConfig.parse("model.layers=6\ntrain.seed=11\ntask.dim=9")
        assert cfg.encoder.num_layers == 6
        assert cfg.encoder.seed == 11
        assert cfg.encoder.survival_floor == 0.7
        assert cfg.encoder.input_dim == cfg.task.input_dim == 9
        assert cfg.loss.variant == "middle"
        assert cfg.loss.weight == 0.3

    def test_default_echo_pinned(self):
        assert RunConfig.parse("").to_text() == DEFAULT_ECHO

    def test_conformer_lower_echo_pinned(self):
        assert RunConfig.parse(CONFORMER_LOWER_TEXT).to_text() == CONFORMER_LOWER_ECHO


# a value other than the default for each key, valid with every other key
# at its default, except that a key only one setting reads is valid beside
# that setting (READERS)
OTHER_VALUES = {
    "model.kind": "conformer", "model.layers": "6", "model.d_model": "32",
    "model.heads": "2", "model.d_ff": "96", "model.conv_kernel": "5",
    "model.p_last": "0.5", "model.separate_heads": "true",
    "loss.variant": "lower", "loss.w": "0.5", "loss.k": "2", "loss.position": "2",
    "task.vocab": "7", "task.dim": "9", "task.min_label": "3", "task.max_label": "9",
    "task.min_duration": "3", "task.max_duration": "5", "task.sigma": "0.5",
    "task.train_size": "100", "task.dev_size": "10", "task.test_size": "12",
    "task.seed": "3", "train.epochs": "3", "train.batch": "8", "train.seed": "7",
    "train.average_last": "2",
}
READERS = {"loss.position": ("loss.variant", "lower"), "loss.k": ("loss.variant", "multiple"),
           "model.conv_kernel": ("model.kind", "conformer")}


def echo_values(cfg):
    return dict(line.split("=", 1) for line in cfg.to_text().splitlines())


class TestTable:
    @pytest.mark.parametrize("key, attr, caster", _TABLE, ids=[row[0] for row in _TABLE])
    def test_key_sets_its_attribute_and_echo_line_only(self, key, attr, caster):
        reader = "{}={}\n".format(*READERS[key]) if key in READERS else ""
        default = RunConfig.parse(reader)
        cfg = RunConfig.parse(f"{reader}{key}={OTHER_VALUES[key]}\n")
        value = attrgetter(attr)(cfg)
        assert value == caster(OTHER_VALUES[key]) != attrgetter(attr)(default)
        before, after = echo_values(default), echo_values(cfg)
        moved = {k for k in before.keys() | after.keys() if before.get(k) != after.get(k)}
        # the task seed falls back to the run's seed
        assert moved == ({key, "task.seed"} if key == "train.seed" else {key})
        if key == "train.seed":
            assert cfg.task.seed == value


@st.composite
def config_texts(draw):
    """key=value text of a valid config: each key set or left at its
    default, in a drawn order."""
    heads = draw(st.integers(1, 8))
    layers = draw(st.integers(2, 12))
    vocab = draw(st.integers(1, 12))
    min_label = draw(st.integers(1, 6))
    min_duration = draw(st.integers(1, 3))
    max_duration = draw(st.integers(min_duration, 6))
    assume(not (vocab == 1 and max_duration == 1 and min_label >= 2))
    unit = st.floats(0.0, 1.0)
    values = {
        "model.kind": draw(st.sampled_from(["transformer", "conformer"])),
        "model.layers": layers,
        "model.d_model": heads * draw(st.integers(1, 16)),
        "model.heads": heads,
        "model.d_ff": draw(st.integers(1, 256)),
        "model.conv_kernel": 2 * draw(st.integers(0, 7)) + 1,
        "model.p_last": draw(st.floats(0.0, 1.0, exclude_min=True)),
        "model.separate_heads": draw(st.sampled_from(
            ["true", "false", "1", "0", "yes", "no"])),
        "loss.variant": draw(st.sampled_from(VARIANTS)),
        "loss.w": draw(unit),
        "loss.k": draw(st.integers(1, min(4, layers - 1))),
        "loss.position": draw(st.integers(1, layers - 1)),
        "task.vocab": vocab,
        "task.dim": draw(st.integers(1, 64)),
        "task.min_label": min_label,
        "task.max_label": draw(st.integers(min_label, 20)),
        "task.min_duration": min_duration,
        "task.max_duration": max_duration,
        "task.sigma": draw(st.floats(0.0, 1e6)),
        "task.train_size": draw(st.integers(1, 10_000)),
        "task.dev_size": draw(st.integers(1, 1000)),
        "task.test_size": draw(st.integers(1, 1000)),
        "task.seed": draw(st.integers(0, 2**63 - 1)),
        "train.epochs": draw(st.integers(0, 100)),
        "train.batch": draw(st.integers(1, 128)),
        "train.seed": draw(st.integers(0, 2**63 - 1)),
        "train.average_last": draw(st.integers(1, 20)),
    }
    # keys whose valid values depend on one another are set or left together
    groups = [["model.heads", "model.d_model"],
              ["model.layers", "loss.k", "loss.position"],
              ["task.vocab", "task.min_label", "task.max_label",
               "task.min_duration", "task.max_duration"]]
    grouped = {key for group in groups for key in group}
    groups += [[key] for key in values if key not in grouped]
    kept = {key: values[key] for group in groups if draw(st.booleans()) for key in group}
    # a key only one setting reads is set only beside that setting, which it
    # sets unless another kept value of the setting overrules it
    for key, (setting, value) in READERS.items():
        if key in kept and kept.setdefault(setting, value) != value:
            del kept[key]
    lines = draw(st.permutations(list(kept.items())))
    return "".join(f"{key}={value!r}\n" if isinstance(value, float)
                   else f"{key}={value}\n" for key, value in lines)


class TestEchoProperties:
    @given(config_texts())
    def test_echo_round_trips(self, text):
        cfg = RunConfig.parse(text)
        echo = cfg.to_text()
        assert RunConfig.parse(echo) == cfg
        assert RunConfig.parse(echo).to_text() == echo
