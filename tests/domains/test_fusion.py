"""Fusion archetype: shot store, synthetic campaign, full pipeline."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.domains.fusion.pipeline import CHANNEL_ORDER, FusionArchetype, window_features
from repro.domains.fusion.shottree import ShotTreeError, ShotTreeStore
from repro.domains.fusion.synthetic import (
    FusionCampaignConfig,
    generate_shot,
    synthesize_campaign,
)
from repro.io.tfrecord import TFRecordReader
from repro.transforms.align import Signal

CONFIG = FusionCampaignConfig(n_shots=16, seed=5)


@pytest.fixture(scope="module")
def result(tmp_path_factory):
    arch = FusionArchetype(seed=5, config=CONFIG)
    return arch.run(tmp_path_factory.mktemp("fusion"))


class TestShotTree:
    def test_write_read_round_trip(self, tmp_path, rng):
        store = ShotTreeStore(tmp_path)
        signal = Signal("ip", np.linspace(0, 1, 50), rng.normal(size=50), units="MA")
        store.write_shot(1000, {"ip": signal}, attrs={"disruptive": True})
        signals, attrs = store.read_shot(1000)
        back = signals["ip"]
        assert np.array_equal(back.times, signal.times)
        assert np.array_equal(back.values, signal.values)
        assert back.units == "MA"
        assert attrs["disruptive"] is True

    def test_shot_listing(self, tmp_path, rng):
        store = ShotTreeStore(tmp_path)
        for shot in (5, 3, 9):
            store.write_shot(shot, {}, {})
        assert store.shots() == [3, 5, 9]

    def test_missing_shot_and_signal(self, tmp_path, rng):
        store = ShotTreeStore(tmp_path)
        store.write_shot(1, {"ip": Signal("ip", np.arange(3.0), np.zeros(3))}, {})
        with pytest.raises(ShotTreeError, match="no tree for shot 2"):
            store.read_shot(2)
        assert "density" not in store.read_shot(1)[0]

    def test_signal_names_vary_by_shot(self, tmp_path, rng):
        store = ShotTreeStore(tmp_path)
        s = Signal("ip", np.arange(3.0), np.zeros(3))
        store.write_shot(1, {"ip": s}, {})
        store.write_shot(2, {"ip": s, "mirnov": Signal("mirnov", np.arange(3.0), np.zeros(3))}, {})
        assert list(store.read_shot(1)[0]) == ["ip"]
        assert list(store.read_shot(2)[0]) == ["ip", "mirnov"]


class TestSyntheticCampaign:
    def test_disruptive_shots_have_quench(self, rng):
        config = FusionCampaignConfig(disruption_fraction=1.0, seed=1)
        signals, attrs = generate_shot(1, config, rng)
        assert attrs["disruptive"] and attrs["quench_time"] > 0
        # current collapses after the quench
        ip = signals["ip"]
        post = ip.values[ip.times > attrs["quench_time"] + 0.03]
        if post.size:
            assert np.abs(post).max() < 0.2

    def test_precursor_grows_before_disruption(self, rng):
        config = FusionCampaignConfig(disruption_fraction=1.0, seed=2)
        signals, attrs = generate_shot(1, config, rng)
        mirnov = signals["mirnov"]
        quench = attrs["quench_time"]
        early = np.abs(mirnov.values[mirnov.times < quench - 0.5]).mean()
        late = np.abs(
            mirnov.values[(mirnov.times > quench - 0.1) & (mirnov.times < quench)]
        ).mean()
        assert late > early * 2

    def test_channels_multi_rate(self, rng):
        signals, _ = generate_shot(1, FusionCampaignConfig(missing_channel_fraction=0, seed=3), rng)
        rates = {name: s.mean_rate() for name, s in signals.items()}
        assert rates["mirnov"] > rates["density"] * 4

    def test_campaign_writes_all_shots(self, tmp_path):
        manifest = synthesize_campaign(tmp_path, CONFIG)
        assert len(manifest["shots"]) == CONFIG.n_shots


def per_window_features(window, dt):
    """The per-window formula the block kernel replaced, body unchanged."""
    ip = window[:, CHANNEL_ORDER.index("ip")]
    mirnov = window[:, CHANNEL_ORDER.index("mirnov")]
    dip = np.gradient(ip, dt)
    envelope = np.abs(mirnov)
    half = envelope.size // 2
    growth = envelope[half:].mean() - envelope[:half].mean()
    per_channel = np.concatenate(
        [window.mean(axis=0), window.std(axis=0), np.ptp(window, axis=0)]
    )
    extras = np.asarray(
        [
            dip.mean(),
            dip.min(),  # current quench shows as a large negative dIp/dt
            dip.std(),
            envelope.mean(),
            growth,
        ]
    )
    return np.concatenate([per_channel, extras]).astype(np.float64)


@st.composite
def shots(draw):
    """One shot's ``(n, T, C)`` window block: any window count, odd or even
    lengths, magnitudes from subnormal squares to overflowing sums, and
    optionally a channel that never moves (std 0)."""
    n = draw(st.integers(1, 40))
    length = draw(st.integers(2, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-300, 1.0, 1e8, 1e150, 1e300]))
    windows = rng.normal(size=(n, length, len(CHANNEL_ORDER))) * scale
    constant = draw(st.none() | st.integers(0, len(CHANNEL_ORDER) - 1))
    if constant is not None:
        windows[:, :, constant] = draw(st.floats(-1e300, 1e300))
    return windows


class TestWindowFeatures:
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(windows=shots(), dt=st.sampled_from([1e-3, 0.37]))
    @example(windows=np.arange(8.0).reshape(1, 2, 4), dt=1e-3)
    @example(windows=np.ones((3, 3, 4)), dt=1e-3)
    def test_block_kernel_is_bitwise_the_per_window_formula(self, windows, dt):
        with np.errstate(all="ignore"):  # the largest magnitudes overflow, alike
            block = window_features(windows, dt)
            reference = [per_window_features(window, dt) for window in windows]
        assert block.shape == (len(windows), 3 * len(CHANNEL_ORDER) + 5)
        for i, row in enumerate(reference):
            assert block[i].tobytes() == row.tobytes(), i


class TestPipeline:
    def test_reaches_level_5(self, result):
        assert result.readiness_level == 5, result.assessment.gap_report()

    def test_window_tensor_layout(self, result):
        ds = result.dataset
        assert ds["window"].shape[1:] == (256, len(CHANNEL_ORDER))
        assert ds["window"].dtype == np.float32

    def test_labels_fully_resolved(self, result):
        labels = result.dataset["disruptive"]
        assert set(np.unique(labels)) <= {0, 1}

    def test_disruptive_windows_cluster_near_quench(self, result):
        ds = result.dataset
        positives = ds.take(ds["disruptive"] == 1)
        negatives = ds.take(ds["disruptive"] == 0)
        assert positives.n_samples > 0 and negatives.n_samples > 0
        # positive windows start later in their shots on average (precursors
        # precede the quench which ends the discharge)
        assert positives["t_start"].mean() > negatives["t_start"].mean()

    def test_group_split_no_shot_leakage(self, result):
        shard_dir = result.run.context.artifacts["manifest"]
        ds = result.dataset
        from repro.io.shards import ShardSet

        # read back each split's shots from the shard files
        directory = result.run.context.artifacts["tfrecord_dir"].parent
        shard_set = ShardSet(directory)
        shots_by_split = {}
        for split in shard_set.splits:
            loaded = shard_set.load_split(split)
            shots_by_split[split] = set(loaded["shot"].tolist())
        splits = list(shots_by_split)
        for i in range(len(splits)):
            for j in range(i + 1, len(splits)):
                assert not shots_by_split[splits[i]] & shots_by_split[splits[j]]

    def test_tfrecord_export_readable(self, result):
        tf_dir = result.run.context.artifacts["tfrecord_dir"]
        examples = list(TFRecordReader(tf_dir / "train.tfrecord").read_examples())
        assert examples
        first = examples[0]
        assert first.float_array("window").size == 256 * len(CHANNEL_ORDER)
        kind, values = first.features["disruptive"]
        assert kind == "int64" and values[0] in (0, 1)

    def test_challenges_detected(self, result):
        text = " ".join(result.detected_challenges)
        assert "limited labels" in text
        assert "access restrictions" in text

    def test_physics_features_separate_classes(self, result):
        """The mirnov-growth feature distinguishes disruptive windows —
        i.e. the synthetic data carries real signal."""
        ds = result.dataset
        growth = ds["features"][:, -1]  # envelope growth feature
        positives = growth[ds["disruptive"] == 1]
        negatives = growth[ds["disruptive"] == 0]
        assert positives.mean() > negatives.mean()
