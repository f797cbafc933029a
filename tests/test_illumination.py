import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bisim.channel import PathTable, WaveformConfig, synth_cfr
from bisim.errors import ConfigError
from bisim.illumination import (
    doppler_precompensate,
    focusing_gain,
    residual_spread,
    time_reversal_prefilter,
)
from bisim.processing import delay_doppler_map


def cfr_from_paths(paths, k=256, delta_f=78125.0):
    kk = np.arange(k)
    out = np.zeros(k, dtype=complex)
    for delay, gain in zip(paths.delay, paths.gain):
        out += gain * np.exp(-2j * np.pi * delta_f * delay * kk)
    return out


class TestTimeReversalPrefilter:
    def test_unit_energy(self):
        rng = np.random.default_rng(1)
        cfr = rng.normal(size=128) + 1j * rng.normal(size=128)
        g = time_reversal_prefilter(cfr)
        assert np.sum(np.abs(g) ** 2) == pytest.approx(1.0, rel=1e-12)

    def test_all_zero_rejected(self):
        with pytest.raises(ConfigError):
            time_reversal_prefilter(np.zeros(16, dtype=complex))

    def test_single_path_constant_cascade(self):
        k = 128
        delta_f = 78125.0
        paths = PathTable([11 / (k * delta_f) * k], [0.7 - 0.2j], [0.0])
        cfr = cfr_from_paths(paths, k, delta_f)
        g = time_reversal_prefilter(cfr)
        cascade = cfr * g
        assert np.allclose(np.abs(cascade), np.abs(cascade[0]), rtol=1e-12)
        profile = np.abs(np.fft.ifft(cascade))
        assert np.argmax(profile) == 0
        assert profile[0] / profile[1:].max() > 1e9

    def test_cascade_is_real_nonnegative_and_not_identity(self):
        rng = np.random.default_rng(2)
        cfr = rng.normal(size=64) + 1j * rng.normal(size=64)
        g = time_reversal_prefilter(cfr)
        cascade = cfr * g
        assert np.allclose(cascade.imag, 0.0, atol=1e-12)
        assert np.all(cascade.real >= 0)
        # twice-conjugated spectrum comes back energy-normalized, not as the
        # original channel: the prefilter is not an involution on channels
        twice = time_reversal_prefilter(g)
        assert not np.allclose(twice, cfr)
        assert np.allclose(twice, cfr / np.linalg.norm(cfr))
        # prefilter of the cascade is itself real and nonnegative
        cascade_pre = time_reversal_prefilter(cascade)
        assert np.allclose(cascade_pre.imag, 0.0, atol=1e-12)
        assert np.all(cascade_pre.real >= 0)

    def test_equal_power_paths_gain_is_n(self):
        rng = np.random.default_rng(3)
        k = 512
        delta_f = 78125.0
        bandwidth = k * delta_f
        for n in (2, 4, 8):
            bins = rng.choice(np.arange(1, k // 2), size=n, replace=False)
            paths = PathTable(bins / bandwidth, np.exp(2j * np.pi * rng.random(n)), np.zeros(n))
            cfr = cfr_from_paths(paths, k, delta_f)
            assert focusing_gain(cfr, time_reversal_prefilter(cfr)) == pytest.approx(n, rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 12))
    def test_gain_at_least_one(self, seed, n):
        rng = np.random.default_rng(seed)
        k = 128
        delta_f = 78125.0
        paths = PathTable(
            rng.uniform(0, (k / 2) / (k * delta_f), n),
            rng.normal(size=n) + 1j * rng.normal(size=n),
            np.zeros(n),
        )
        cfr = cfr_from_paths(paths, k, delta_f)
        if np.sum(np.abs(cfr) ** 2) == 0:
            return
        assert focusing_gain(cfr, time_reversal_prefilter(cfr)) >= 1.0 - 1e-9


class TestDopplerPrecompensate:
    def test_single_path_zero_offsets(self):
        out = doppler_precompensate(PathTable([0.0], [1.0 + 0j], [435.0]))
        assert out.spread_before_hz == 0.0
        assert out.spread_after_hz == 0.0
        assert out.offsets_hz[0] == pytest.approx(0.0)
        assert out.reference_hz == pytest.approx(435.0)

    def test_two_paths_collapse(self):
        paths = PathTable([0.0, 1e-7], [1.0 + 0j, 1.0 + 0j], [100.0, 400.0])
        out = doppler_precompensate(paths)
        assert out.spread_before_hz == pytest.approx(150.0)  # equal-power std
        assert out.spread_after_hz == 0.0
        assert out.reference_hz == pytest.approx(250.0)
        assert all(f == pytest.approx(250.0) for f in paths.doppler + out.offsets_hz)

    def test_power_preserved_and_spread_reduced(self):
        rng = np.random.default_rng(4)
        paths = PathTable(
            rng.uniform(0, 1e-6, 6),
            rng.normal(size=6) + 1j * rng.normal(size=6),
            rng.uniform(-800, 800, 6),
        )
        before = np.sum(np.abs(paths.gain) ** 2)
        out = doppler_precompensate(paths)
        after = np.sum(np.abs(paths.gain) ** 2)
        assert after == pytest.approx(before, rel=1e-12)
        assert out.spread_after_hz <= out.spread_before_hz
        assert out.spread_after_hz <= 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_after_spread_is_the_residual_of_the_offsets(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        paths = PathTable(rng.uniform(0, 1e-6, n), rng.normal(size=n) + 1j * rng.normal(size=n),
                          rng.uniform(-5e3, 5e3, n))
        out = doppler_precompensate(paths)
        assert out.spread_before_hz > 1.0
        assert out.spread_after_hz <= 1e-9
        assert out.spread_after_hz == residual_spread(paths, out.offsets_hz)
        wrong = out.offsets_hz.copy()
        wrong[0] += 1.0
        assert residual_spread(paths, wrong) > 1e-3
        assert residual_spread(paths, -out.offsets_hz) > out.spread_before_hz

    def test_compensated_table_keeps_delays_and_gains(self):
        paths = PathTable([0.0, 2e-7, 5e-7], [1.0 + 0j, 0.3 - 0.4j, 0.2j], [120.0, -340.0, 75.0])
        out = doppler_precompensate(paths)
        assert np.allclose(paths.doppler + out.offsets_hz, np.full(3, out.reference_hz), rtol=1e-15, atol=0)
        # input untouched: the compensated paths are its delays and gains at the reference Doppler
        assert np.array_equal(paths.delay, [0.0, 2e-7, 5e-7])
        assert np.array_equal(paths.gain, [1.0 + 0j, 0.3 - 0.4j, 0.2j])
        assert np.array_equal(paths.doppler, [120.0, -340.0, 75.0])

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            doppler_precompensate(PathTable([], [], []))

    def test_map_shows_single_ridge_after_compensation(self):
        w = WaveformConfig(3.7e9, 20e6, 64, 128)
        res = 1.0 / (w.n_symbols * w.t_sym)
        paths = PathTable(np.array([3, 9, 15]) / w.bandwidth, [1.0, 0.8, 0.6],
                          np.array([10, -14, 27]) * res)
        before = delay_doppler_map(synth_cfr(paths, w))
        comp = doppler_precompensate(paths)
        # shift the common reference onto the Doppler grid for a bin-exact test
        ref = round(comp.reference_hz / res) * res
        aligned = PathTable(paths.delay, paths.gain, np.full(len(paths), ref))
        after = delay_doppler_map(synth_cfr(aligned, w))

        def occupied_doppler_bins(ddm):
            power = np.abs(ddm.data) ** 2
            col = power.sum(axis=0)
            return np.flatnonzero(col > col.max() * 1e-9)

        assert len(occupied_doppler_bins(before)) == 3
        assert len(occupied_doppler_bins(after)) == 1
