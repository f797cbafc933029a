from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bisim.channel import (
    PathTable,
    SlowTimeCube,
    WaveformConfig,
    add_noise,
    cir_from_cfr,
    delay_axis,
    join_paths,
    path_rows,
    phase_ramps,
    nyquist_check,
    synth_cfr,
)
from bisim.errors import ConfigError, UsageError
from bisim.geometry import C0, NodePose, bistatic_doppler, bistatic_range, vec3

LAM = C0 / 3.7e9


def small_waveform(m=64, k=64):
    return WaveformConfig(f_c=3.7e9, bandwidth=20e6, n_subcarriers=k, n_symbols=m)


class TestWaveformConfig:
    def test_reference_numerology(self):
        w = WaveformConfig(3.7e9, 160e6, 1280, 2048)
        assert w.delta_f == 125e3
        assert w.t_sym == 8e-6

    def test_orthogonality_violation_rejected(self):
        with pytest.raises(ConfigError):
            WaveformConfig(3.7e9, 160e6, 1280, 2048, t_sym=9e-6)

    def test_capture_duration(self):
        w = WaveformConfig(3.7e9, 160e6, 1280, 2500)
        assert w.duration == pytest.approx(0.02, rel=1e-12)

    def test_subcarrier_axis_labels_the_synthesized_frequencies(self):
        w = WaveformConfig(3.7e9, 40e6, 128, 4)
        tau = 3.3 / w.bandwidth   # off the delay grid
        # a unit-magnitude path carries its carrier phase exp(-j2π f_c τ) in its gain
        cube = synth_cfr(PathTable([tau], [np.exp(-2j * np.pi * w.f_c * tau)]), w)
        expected = np.exp(-2j * np.pi * w.subcarrier_frequencies() * tau)
        assert np.max(np.abs(cube.data - expected)) <= 1e-12


class TestPathTable:
    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigError, match="delay"):
            PathTable([1e-7, -1e-9], [1.0, 1.0])

    def test_gain_shape_must_match_delay(self):
        with pytest.raises(ConfigError, match="shape"):
            PathTable([1e-7, 2e-7], [1.0])

    def test_doppler_shape_must_match_delay(self):
        with pytest.raises(ConfigError, match="shape"):
            PathTable([1e-7, 2e-7], [1.0, 0.5], doppler=[0.0, 1.0, 2.0])

    def test_empty_table_synthesizes_a_silent_capture(self):
        table = PathTable([], [])
        assert len(table) == 0 and table.doppler is None
        cube = synth_cfr(table, small_waveform(8, 16))
        assert cube.data.shape == (8, 16) and not cube.data.any()


class TestSynthFixed:
    def test_static_path_constant_slow_time(self):
        w = small_waveform()
        tau = 3.3 / w.bandwidth
        paths = PathTable(delay=[tau], gain=[1.0 + 0j], doppler=[0.0])
        cube = synth_cfr(paths, w)
        assert np.allclose(cube.data, cube.data[0][None, :])
        # linear phase ramp across subcarriers with slope -2*pi*df*tau
        dphi = np.angle(cube.data[0, 1:] * np.conj(cube.data[0, :-1]))
        expected = -2 * np.pi * w.delta_f * tau
        expected = np.angle(np.exp(1j * expected))
        assert np.allclose(dphi, expected, atol=1e-12)

    def test_doppler_phasor_step(self):
        w = small_waveform()
        fd = 740.0
        paths = PathTable(delay=[0.0], gain=[1.0 + 0j], doppler=[fd])
        cube = synth_cfr(paths, w)
        dphi = np.angle(cube.data[1:, 0] * np.conj(cube.data[:-1, 0]))
        assert np.allclose(dphi, 2 * np.pi * fd * w.t_sym, atol=1e-12)

    def test_mode_mismatch_raises(self):
        w = small_waveform()
        with pytest.raises(UsageError):
            synth_cfr(lambda t: [], w, mode="fixed")
        with pytest.raises(UsageError):
            synth_cfr(PathTable([], []), w, mode="geometric")
        with pytest.raises(UsageError):
            synth_cfr(PathTable([], []), w, mode="bogus")

    def test_linearity_of_superposition(self):
        w = small_waveform()
        rng = np.random.default_rng(5)
        mk = lambda: PathTable(
            delay=rng.uniform(0, 20, 3) / w.bandwidth,
            gain=rng.normal(size=3) + 1j * rng.normal(size=3),
            doppler=rng.uniform(-2000, 2000, 3),
        )
        p1, p2 = mk(), mk()
        combined = synth_cfr(join_paths([p1, p2], ()), w).data
        separate = synth_cfr(p1, w).data + synth_cfr(p2, w).data
        assert np.allclose(combined, separate, rtol=1e-12, atol=1e-15)


def crossing_target_callback(w, tx, rx, p0=None, vel=None):
    """Single point target on a linear track; returns (block callback, range_of_t)."""
    p0 = vec3(50.0, 200.0, 0.0) if p0 is None else p0
    vel = vec3(20.0, 0.0, 0.0) if vel is None else vel

    def ranges(t):
        rb, _ = bistatic_range(tx.position, rx.position, p0 + vel * t)
        return rb

    def callback(times):
        rb = np.array([ranges(t) for t in times])[:, None]
        return PathTable(delay=rb / C0, gain=np.exp(-2j * np.pi * rb / LAM))

    return callback, ranges, p0, vel


class TestSynthGeometric:
    tx = NodePose(vec3(0, 0, 0))
    rx = NodePose(vec3(100, 0, 0))

    def test_geometric_vs_fixed_phase_bound(self):
        w = WaveformConfig(3.7e9, 160e6, 256, 512)
        callback, ranges, p0, vel = crossing_target_callback(w, self.tx, self.rx)
        geo = synth_cfr(callback, w, mode="geometric")

        rb0 = ranges(0.0)
        fd0 = bistatic_doppler(self.tx, self.rx, p0, vel, LAM)
        fixed = synth_cfr(
            PathTable(delay=[rb0 / C0], gain=[np.exp(-2j * np.pi * rb0 / LAM)], doppler=[fd0]),
            w,
        )
        times = geo.symbol_times()
        linear = rb0 - fd0 * LAM * times
        residual = np.array([ranges(t) for t in times]) - linear
        bound = 2 * np.pi * np.max(np.abs(residual)) / LAM
        assert bound > 1e-5  # scenario actually bends the range history

        phase_err = np.abs(np.angle(geo.data * np.conj(fixed.data)))
        # carrier term alone at k=0; delay-ramp term adds at most B/f_c more
        assert phase_err[:, 0].max() <= bound * (1 + 1e-6) + 1e-10
        assert phase_err.max() <= bound * (1 + w.bandwidth / w.f_c) + 1e-10

    def test_carrier_phase_coherency(self):
        # approaching track: per-step range change stays well away from zero
        w = WaveformConfig(3.7e9, 20e6, 8, 256)
        callback, ranges, _, _ = crossing_target_callback(
            w, self.tx, self.rx, p0=vec3(150, 80, 0), vel=vec3(-15, -10, 0)
        )
        cube = synth_cfr(callback, w, mode="geometric")
        times = cube.symbol_times()
        h = cube.data[:, 0]
        dphi = np.angle(h[1:] * np.conj(h[:-1]))
        dr = np.array([ranges(t) for t in times])
        expected = -2 * np.pi * np.diff(dr) / LAM
        assert np.max(np.abs(dphi - expected) / np.abs(expected)) <= 1e-6

    def test_frame_contiguity(self):
        w = WaveformConfig(3.7e9, 20e6, 16, 128)
        w2 = WaveformConfig(3.7e9, 20e6, 16, 256)
        callback, *_ = crossing_target_callback(w, self.tx, self.rx)
        frame_a = synth_cfr(callback, w, mode="geometric", t0=0.0)
        frame_b = synth_cfr(callback, w, mode="geometric", t0=w.n_symbols * w.t_sym)
        whole = synth_cfr(callback, w2, mode="geometric", t0=0.0)
        stitched = np.vstack([frame_a.data, frame_b.data])
        jump = np.abs(np.angle(whole.data[w.n_symbols] * np.conj(stitched[w.n_symbols])))
        assert jump.max() <= 1e-9


class TestPhaseRamps:
    def test_recurrence_matches_direct_exp_at_4096(self):
        # delays cover the whole unambiguous span [0, 1/Δf]. z^k carries k
        # roundings of z, each worth up to ε of a 2π phase, so the recurrence
        # stays within 2πKε of the exact ramp; the direct exp rounds a ~2πK
        # argument and lands within the same order, so the two agree to twice that
        n_sub, df = 4096, 125e3
        bound = 2 * np.pi * n_sub * np.finfo(float).eps
        rng = np.random.default_rng(7)
        delay = np.concatenate([np.linspace(0.0, 1.0 / df, 33), rng.uniform(0.0, 1.0 / df, 99)])
        ramps = phase_ramps(delay, df, n_sub)
        direct = np.exp(-2j * np.pi * df * np.outer(delay, np.arange(n_sub)))
        assert np.abs(ramps - direct).max() <= 2 * bound
        assert np.all(ramps[:, 0] == 1.0)
        # exact ramp: Δf·τ·k reduced mod 1 in rational arithmetic, sampled k
        ks = [*range(0, n_sub, 61), n_sub - 1]
        exact = np.array([[np.exp(-2j * np.pi * float(Fraction(df) * Fraction(tau) * k % 1))
                           for k in ks] for tau in delay])
        assert np.abs(ramps[:, ks] - exact).max() <= bound


class TestPathRows:
    def test_blocks_and_carrier_offset(self):
        # P·n = 2100 entries per row: blocks of 1, then 31 rows, the last one partial
        n_rows, n_paths, n, df, f0 = 40, 7, 300, 1e5, 3.5e9
        rng = np.random.default_rng(3)
        delay = rng.uniform(0.0, 1e-7, (n_rows, n_paths))
        weight = rng.normal(size=(n_rows, n_paths)) + 1j * rng.normal(size=(n_rows, n_paths))
        asked = []

        def paths_of(rows):
            asked.append((rows.start, rows.stop))
            return delay[rows], weight[rows]
        rows = path_rows(paths_of, n_rows, df, n, f0=f0)
        assert asked == [(0, 1), (1, 32), (32, 40)]
        freqs = f0 + df * np.arange(n)
        direct = np.einsum("mp,mpk->mk", weight, np.exp(-2j * np.pi * freqs * delay[..., None]))
        assert np.abs(rows - direct).max() <= 1e-11 * np.abs(direct).max()


class TestAddNoise:
    def test_infinite_snr_identity(self):
        w = small_waveform()
        cube = synth_cfr(PathTable([0.0], [1.0 + 0j]), w)
        noisy = add_noise(cube, np.inf, seed=1)
        assert np.array_equal(noisy.data, cube.data)

    def test_empirical_snr(self):
        w = WaveformConfig(3.7e9, 20e6, 1000, 1000)
        cube = SlowTimeCube(np.ones((1000, 1000), dtype=complex), w)
        noisy = add_noise(cube, 13.0, seed=99)
        noise_power = np.mean(np.abs(noisy.data - cube.data) ** 2)
        snr = 10 * np.log10(1.0 / noise_power)
        assert abs(snr - 13.0) <= 0.1

    def test_deterministic_for_seed(self):
        w = small_waveform()
        cube = synth_cfr(PathTable([0.0], [1.0 + 0j]), w)
        a = add_noise(cube, 10.0, seed=1234)
        b = add_noise(cube, 10.0, seed=1234)
        assert np.array_equal(a.data, b.data)
        c = add_noise(cube, 10.0, seed=1235)
        assert not np.array_equal(a.data, c.data)


class TestCirFromCfr:
    def test_on_grid_delay_peaks_at_bin(self):
        w = small_waveform()
        n = 9
        paths = PathTable(delay=[n / w.bandwidth], gain=[1.0 + 0j], doppler=[0.0])
        cube = synth_cfr(paths, w)
        h = cir_from_cfr(cube.data[0])
        assert np.argmax(np.abs(h)) == n
        assert abs(h[n]) == pytest.approx(1.0, rel=1e-12)

    def test_parseval(self):
        rng = np.random.default_rng(11)
        row = rng.normal(size=128) + 1j * rng.normal(size=128)
        h = cir_from_cfr(row)
        lhs = np.sum(np.abs(h) ** 2)
        rhs = np.sum(np.abs(row) ** 2) / row.size
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_off_grid_split_between_bins(self):
        w = small_waveform()
        n = 7
        tau = (n + 0.5) / w.bandwidth
        cube = synth_cfr(PathTable([tau], [1.0 + 0j]), w)
        h = np.abs(cir_from_cfr(cube.data[0]))
        assert h[n] == pytest.approx(h[n + 1], rel=1e-12)
        assert set(np.argsort(h)[-2:]) == {n, n + 1}

    def test_delay_axis_spacing(self):
        ax = delay_axis(64, 20e6)
        assert ax[1] - ax[0] == pytest.approx(1 / 20e6)


class TestNyquistCheck:
    def test_reference_case(self):
        out = nyquist_check(30.0, 8.1e-2, 8e-6)
        assert out["ok"]
        assert out["spatial_step"] == pytest.approx(0.24e-3)

    def test_boundary_is_strict(self):
        lam, t_sym = 8.1e-2, 8e-6
        v = lam / (2 * t_sym)
        assert not nyquist_check(v, lam, t_sym)["ok"]

    def test_static_ok(self):
        assert nyquist_check(0.0, 8.1e-2, 8e-6)["ok"]


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.integers(1, 4),
)
def test_linearity_property(seed, n_paths):
    rng = np.random.default_rng(seed)
    w = small_waveform(16, 16)
    paths = PathTable(
        delay=rng.uniform(0, 10, n_paths) / w.bandwidth,
        gain=rng.normal(size=n_paths) + 1j * rng.normal(size=n_paths),
        doppler=rng.uniform(-1000, 1000, n_paths),
    )
    total = synth_cfr(paths, w).data
    parts = sum(synth_cfr(PathTable(paths.delay[[i]], paths.gain[[i]], paths.doppler[[i]]), w).data
                for i in range(n_paths))
    assert np.allclose(total, parts, rtol=1e-10, atol=1e-14)
