import numpy as np
import pytest

from ctclab.ctc import required_length
from ctclab.data import SyntheticTaskConfig, Utterance, generate_dataset, token_prototypes


def small_cfg(**kw):
    defaults = dict(vocab=4, input_dim=6, train_size=32, dev_size=8, test_size=8,
                    seed=5)
    defaults.update(kw)
    return SyntheticTaskConfig(**defaults)


class TestConfigValidation:
    def test_duration_at_least_one_frame(self):
        with pytest.raises(ValueError):
            small_cfg(min_duration=0)

    def test_bad_label_range(self):
        with pytest.raises(ValueError):
            small_cfg(min_label_length=5, max_label_length=3)

    def test_negative_sigma(self):
        with pytest.raises(ValueError):
            small_cfg(noise_sigma=-0.1)

    @pytest.mark.parametrize("kw", [dict(min_label_length=1, max_duration=1),
                                    dict(max_duration=2, max_label_length=3)],
                             ids=["one_token_labels", "two_frame_tokens"])
    def test_single_token_configs_with_a_feasible_draw_generate(self, kw):
        cfg = small_cfg(vocab=1, min_duration=1, **kw)
        for utt in generate_dataset(cfg, "dev"):
            assert utt.features.shape[0] >= required_length(utt.labels)


class TestGeneration:
    def test_zero_noise_frames_equal_prototypes(self):
        cfg = small_cfg(noise_sigma=0.0)
        protos = token_prototypes(cfg)
        for utt in generate_dataset(cfg, "dev"):
            t = 0
            for token in utt.labels:
                # every frame of this token's span matches its prototype
                proto = protos[token - 1].astype(np.float32)
                while t < utt.features.shape[0] and np.array_equal(utt.features[t], proto):
                    t += 1
            assert t == utt.features.shape[0]

    def test_bitwise_reproducible(self):
        cfg = small_cfg()
        a = generate_dataset(cfg, "train")
        b = generate_dataset(cfg, "train")
        assert len(a) == len(b) == 32
        for ua, ub in zip(a, b):
            assert ua.labels == ub.labels
            assert (ua.features == ub.features).all()

    def test_splits_differ(self):
        cfg = small_cfg()
        train = generate_dataset(cfg, "train")
        dev = generate_dataset(cfg, "dev")
        assert not all(t.labels == d.labels for t, d in zip(train, dev))

    def test_every_sample_feasible(self):
        # holds even with 1-frame tokens thanks to the regeneration guard
        cfg = small_cfg(min_duration=1, max_duration=2, train_size=200)
        for utt in generate_dataset(cfg, "train"):
            assert utt.features.shape[0] >= required_length(utt.labels)

    def test_marginals_match_configured_ranges(self):
        cfg = small_cfg(train_size=10000)
        data = generate_dataset(cfg, "train")
        lengths = np.array([len(u.labels) for u in data])
        # uniform over [2, 8]: each length within 3 percentage points of 1/7
        for n in range(2, 9):
            assert abs((lengths == n).mean() - 1 / 7) < 0.03
        assert lengths.min() == 2 and lengths.max() == 8
        tokens = np.concatenate([u.labels for u in data])
        for token in range(1, 5):
            assert abs((tokens == token).mean() - 0.25) < 0.02
        frames = np.array([u.features.shape[0] for u in data])
        per_token = frames / lengths
        assert per_token.min() >= 2.0 and per_token.max() <= 4.0

    def test_unknown_split(self):
        with pytest.raises(ValueError):
            generate_dataset(small_cfg(), "validation")

    def test_dtype(self):
        utt = generate_dataset(small_cfg(), "test")[0]
        assert isinstance(utt, Utterance)
        assert utt.features.dtype == np.float32
