import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bisim import channel
from bisim.channel import (
    PathTable,
    SlowTimeCube,
    WaveformConfig,
    add_noise,
    delay_axis,
    first_order,
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

    def test_capture_duration(self):
        w = WaveformConfig(3.7e9, 160e6, 1280, 2500)
        assert w.duration == pytest.approx(0.02, rel=1e-12)

    def test_subcarrier_axis_labels_the_synthesized_frequencies(self):
        w = WaveformConfig(3.7e9, 40e6, 128, 4)
        tau = 3.3 / w.bandwidth   # off the delay grid
        # a unit-magnitude path carries its carrier phase exp(-j2π f_c τ) in its gain
        cube = synth_cfr(first_order(PathTable([tau], [np.exp(-2j * np.pi * w.f_c * tau)]), w), w)
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
        w = small_waveform(8, 16)
        cube = synth_cfr(first_order(table, w), w)
        assert cube.data.shape == (8, 16) and not cube.data.any()


class TestSynthFixed:
    def test_static_path_constant_slow_time(self):
        w = small_waveform()
        tau = 3.3 / w.bandwidth
        paths = PathTable(delay=[tau], gain=[1.0 + 0j], doppler=[0.0])
        cube = synth_cfr(first_order(paths, w), w)
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
        cube = synth_cfr(first_order(paths, w), w)
        dphi = np.angle(cube.data[1:, 0] * np.conj(cube.data[:-1, 0]))
        assert np.allclose(dphi, 2 * np.pi * fd * w.t_sym, atol=1e-12)

    def test_multi_instant_table_raises(self):
        # first_order is fixed mode, which holds each path at one instant
        w = small_waveform()
        with pytest.raises(UsageError, match="single-instant"):
            first_order(PathTable(np.zeros((2, 1)), np.ones((2, 1))), w)

    def test_linearity_of_superposition(self):
        w = small_waveform()
        rng = np.random.default_rng(5)
        mk = lambda: PathTable(
            delay=rng.uniform(0, 20, 3) / w.bandwidth,
            gain=rng.normal(size=3) + 1j * rng.normal(size=3),
            doppler=rng.uniform(-2000, 2000, 3),
        )
        p1, p2 = mk(), mk()
        combined = synth_cfr(first_order(join_paths([p1, p2], ()), w), w).data
        separate = synth_cfr(first_order(p1, w), w).data + synth_cfr(first_order(p2, w), w).data
        assert np.allclose(combined, separate, rtol=1e-12, atol=1e-15)


def crossing_target_callback(w, tx, rx, p0=None, vel=None):
    """Single point target on a linear track; returns (times -> row callback, range_of_t, p0, vel)."""
    p0 = vec3(50.0, 200.0, 0.0) if p0 is None else p0
    vel = vec3(20.0, 0.0, 0.0) if vel is None else vel

    def ranges(t):
        rb, _ = bistatic_range(tx.position, rx.position, p0 + vel * t)
        return rb

    def callback(times):
        def rows(at):
            rb = np.array([ranges(t) for t in times[at]])[:, None]
            return rb / C0, np.exp(-2j * np.pi * rb / LAM)
        return rows

    return callback, ranges, p0, vel


class TestSynthGeometric:
    tx = NodePose(vec3(0, 0, 0))
    rx = NodePose(vec3(100, 0, 0))

    def test_geometric_vs_fixed_phase_bound(self):
        w = WaveformConfig(3.7e9, 160e6, 256, 512)
        callback, ranges, p0, vel = crossing_target_callback(w, self.tx, self.rx)
        geo = synth_cfr(callback(w.symbol_times()), w)

        rb0 = ranges(0.0)
        fd0 = bistatic_doppler(self.tx, self.rx, p0, vel, LAM)
        table = PathTable(delay=[rb0 / C0], gain=[np.exp(-2j * np.pi * rb0 / LAM)], doppler=[fd0])
        fixed = synth_cfr(first_order(table, w), w)
        times = w.symbol_times()
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
        times = w.symbol_times()
        cube = synth_cfr(callback(times), w)
        h = cube.data[:, 0]
        dphi = np.angle(h[1:] * np.conj(h[:-1]))
        dr = np.array([ranges(t) for t in times])
        expected = -2 * np.pi * np.diff(dr) / LAM
        assert np.max(np.abs(dphi - expected) / np.abs(expected)) <= 1e-6

    def test_frame_contiguity(self):
        w = WaveformConfig(3.7e9, 20e6, 16, 128)
        w2 = WaveformConfig(3.7e9, 20e6, 16, 256)
        callback, *_ = crossing_target_callback(w, self.tx, self.rx)
        frame_a = synth_cfr(callback(w.symbol_times()), w)
        frame_b = synth_cfr(callback(w.symbol_times(w.duration)), w)
        whole = synth_cfr(callback(w2.symbol_times()), w2)
        stitched = np.vstack([frame_a.data, frame_b.data])
        jump = np.abs(np.angle(whole.data[w.n_symbols] * np.conj(stitched[w.n_symbols])))
        assert jump.max() <= 1e-9


class TestPhaseRamps:
    def test_recurrence_matches_direct_exp_at_4096(self):
        # delays cover the whole unambiguous span [0, 1/Δf]. The ramps are
        # frequency-major, (K, P): one exp gives z = exp(-j2πΔfτ), b squarings
        # give z^(2^b), and row k is the product of z^(2^b) over the set bits b
        # of k. The argument of z carries about 2ε relative error, which the
        # squarings scale with the exponent: 2ε·2πkΔfτ over row k. The exp
        # and each squaring of a unit number add about ε absolute, and each
        # squaring doubles the error it is given, so z^(2^b) is off by
        # (2^(b+1) - 1)ε beyond its argument, and the set bits of k sum that
        # to (2k - popcount(k))ε < 2kε; each product adds about 2ε. Row k thus
        # lies within 2ε·2πkΔfτ + 2ε·popcount(k) + 2kε of the exact ramp, plus
        # 8ε for the rounding of the reference itself, inside the bound below
        n_sub, df = 4096, 125e3
        eps = np.finfo(float).eps
        rng = np.random.default_rng(7)
        delay = np.concatenate([np.linspace(0.0, 1.0 / df, 33), rng.uniform(0.0, 1.0 / df, 99)])
        ramps = phase_ramps(delay, df, n_sub)
        assert ramps.shape == (n_sub, delay.size) and ramps.flags.c_contiguous
        assert np.all(ramps[0] == 1.0)
        # exact ramp: Δf·τ·k reduced mod 1 in rational arithmetic, sampled k
        ks = np.array([*range(0, n_sub, 61), 2047, 3071, n_sub - 1])
        exact = np.array([[np.exp(-2j * np.pi * float(Fraction(df) * Fraction(tau) * int(k) % 1))
                           for tau in delay] for k in ks])
        popcount = np.array([bin(int(k)).count("1") for k in ks])[:, None]
        err = np.abs(ramps[ks] - exact)
        k = ks[:, None]
        assert np.all(err <= 2 * eps * 2 * np.pi * k * df * delay + 4 * eps * (popcount + 2) + 2 * eps * k)
        assert err.max() <= 2 * np.pi * n_sub * eps
        # and the direct exp, which rounds a ~2πK argument, within twice that
        direct = np.exp(-2j * np.pi * df * np.outer(np.arange(n_sub), delay))
        assert np.abs(ramps - direct).max() <= 4 * np.pi * n_sub * eps

    @pytest.mark.parametrize("n_sub", [1, 2, 5, 300])
    def test_leading_axis_is_frequency_for_any_delay_shape(self, n_sub):
        delay = np.random.default_rng(1).uniform(0.0, 1e-6, (3, 4))
        ramps = phase_ramps(delay, 1e5, n_sub)
        assert ramps.shape == (n_sub, 3, 4)
        for i in range(3):
            assert np.array_equal(ramps[:, i], phase_ramps(delay[i], 1e5, n_sub))
        assert phase_ramps(np.zeros((2, 0)), 1e5, n_sub).shape == (n_sub, 2, 0)


def _direct_rows(delay, weight, df, n, f0):
    """sum_p w_p exp(-j2π(f0 + kΔf)τ_p) by one exp per entry."""
    freqs = f0 + df * np.arange(n)
    return np.sum(weight[..., None] * np.exp(-2j * np.pi * freqs * delay[..., None]), axis=1)


class TestPathRows:
    def test_blocks_and_carrier_offset(self):
        # 7 paths a row: one row, then the other 39 in one call of up to
        # _PATH_BUDGET // 7 = 585 rows; n = 300 is 10 high x 32 low ramps
        n_rows, n_paths, n, df, f0 = 40, 7, 300, 1e5, 3.5e9
        rng = np.random.default_rng(3)
        delay = rng.uniform(0.0, 1e-7, (n_rows, n_paths))
        weight = rng.normal(size=(n_rows, n_paths)) + 1j * rng.normal(size=(n_rows, n_paths))
        asked = []

        def paths_of(rows):
            asked.append((rows.start, rows.stop))
            return delay[rows], weight[rows] * np.exp(-2j * np.pi * f0 * delay[rows])   # the band starts at f0
        rows = path_rows(paths_of, n_rows, df, n)
        assert asked == [(0, 1), (1, 40)]
        direct = _direct_rows(delay, weight, df, n, f0)
        assert np.abs(rows - direct).max() <= 1e-11 * np.abs(direct).max()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 70), st.integers(0, 9), st.integers(1, 700),
           st.sampled_from([0.0, 3.5e9]))
    @example(seed=1, n_rows=5, n_paths=3, n=1, f0=0.0)          # one subcarrier
    @example(seed=2, n_rows=4, n_paths=0, n=64, f0=3.5e9)       # no paths
    @example(seed=3, n_rows=50, n_paths=9, n=300, f0=0.0)       # n not a power of two, partial last block
    @example(seed=4, n_rows=6, n_paths=4, n=3, f0=0.0)          # 2 x 2 ramp product, one column dropped
    @example(seed=5, n_rows=7, n_paths=5, n=5, f0=3.5e9)        # 2 x 4 ramp product, three dropped
    @example(seed=6, n_rows=20, n_paths=48, n=1024, f0=3.5e9)   # the flyover's 32 x 32 shape
    def test_equals_the_direct_exp_sum(self, seed, n_rows, n_paths, n, f0):
        # delays up to 1/Δf span every phase of the ramps; up to 1e-7 s where the
        # weights take a carrier offset, so the direct exp's argument stays below 3e3
        df = 1e5
        rng = np.random.default_rng(seed)
        delay = rng.uniform(0.0, 1e-7 if f0 else 1.0 / df, (n_rows, n_paths))
        weight = rng.normal(size=(n_rows, n_paths)) + 1j * rng.normal(size=(n_rows, n_paths))
        asked = []

        def paths_of(rows):
            asked.append((rows.start, rows.stop))
            return delay[rows], weight[rows] * np.exp(-2j * np.pi * f0 * delay[rows])   # the band starts at f0
        rows = path_rows(paths_of, n_rows, df, n)
        assert [a for a, _ in asked] == [0, *[b for _, b in asked[:-1]]] and asked[-1][1] == n_rows
        scale = np.abs(weight).sum(axis=1).max()
        assert np.abs(rows - _direct_rows(delay, weight, df, n, f0)).max() <= 1e-11 * scale

    def test_equals_the_direct_exp_sum_at_4096(self):
        # n = 4096 is L = Q = 64 low and high ramps: the high ramps are powers of z^64,
        # six squarings of one exp, and entry qL + r is their product with low ramp r,
        # which carries the error terms of ramp qL + r of phase_ramps plus one product.
        # Delays span [0, 1/Δf], where those ramps lie within 4πnε of the direct exp
        # (TestPhaseRamps), so each row sum lies within 4πnε·sum_p |w_p| of it
        n_rows, n_paths, n, df = 6, 40, 4096, 125e3
        eps = np.finfo(float).eps
        rng = np.random.default_rng(11)
        delay = np.vstack([np.linspace(0.0, 1.0 / df, n_paths), rng.uniform(0.0, 1.0 / df, (n_rows - 1, n_paths))])
        weight = rng.normal(size=(n_rows, n_paths)) + 1j * rng.normal(size=(n_rows, n_paths))
        rows = path_rows(lambda at: (delay[at], weight[at]), n_rows, df, n)
        scale = np.abs(weight).sum(axis=1, keepdims=True)
        assert np.all(np.abs(rows - _direct_rows(delay, weight, df, n, 0.0)) <= 4 * np.pi * n * eps * scale)

    @pytest.mark.parametrize("budget, slab, n_rows, n_paths, n", [
        (64, 1 << 16, 100, 8, 64),     # 8 rows a call, the last call partial
        (64, 1 << 10, 100, 8, 300),    # each call walked in one-row blocks
        (64, 600, 37, 7, 40),          # 9 rows a call, in blocks of 4, 4 and 1 rows
        (5, 1 << 16, 12, 7, 16),       # P above the budget: one row a call
        (64, 1 << 16, 9, 0, 16),       # no paths: 64 rows a call
        (4096, 1 << 16, 341, 48, 1024),  # the flyover's shape: 5 calls
    ])
    def test_asks_for_each_row_once_in_budgeted_calls(self, budget, slab, n_rows, n_paths, n):
        df, f0 = 1e5, 3.5e9
        rng = np.random.default_rng(n_rows)
        delay = rng.uniform(0.0, 1e-7, (n_rows, n_paths))
        weight = rng.normal(size=(n_rows, n_paths)) + 1j * rng.normal(size=(n_rows, n_paths))
        asked = []

        def paths_of(rows):
            asked.append((rows.start, rows.stop))
            return delay[rows], weight[rows] * np.exp(-2j * np.pi * f0 * delay[rows])   # the band starts at f0
        with mock.patch.object(channel, "_PATH_BUDGET", budget), mock.patch.object(channel, "_SLAB_ELEMENTS", slab):
            rows = path_rows(paths_of, n_rows, df, n)
        per_call = max(1, budget // max(1, n_paths))   # the most rows whose paths fit the budget
        assert asked == [(0, 1), *[(a, min(a + per_call, n_rows)) for a in range(1, n_rows, per_call)]]
        if n_paths and budget % n_paths == 0:
            assert len(asked) <= 1 + math.ceil((n_rows - 1) * n_paths / budget)
        scale = np.abs(weight).sum(axis=1).max()
        direct = np.concatenate([_direct_rows(delay[i:i + 16], weight[i:i + 16], df, n, f0)
                                 for i in range(0, n_rows, 16)])   # 16 rows keep the exps near 13 MB
        assert np.abs(rows - direct).max() <= 1e-11 * scale


class TestAddNoise:
    def test_infinite_snr_identity(self):
        w = small_waveform()
        cube = synth_cfr(first_order(PathTable([0.0], [1.0 + 0j]), w), w)
        noisy = add_noise(cube, np.inf, seed=1)
        assert noisy is cube

    def test_empirical_snr(self):
        w = WaveformConfig(3.7e9, 20e6, 1000, 1000)
        cube = SlowTimeCube(np.ones((1000, 1000), dtype=complex), w)
        noisy = add_noise(SlowTimeCube(cube.data.copy(), w), 13.0, seed=99)
        noise_power = np.mean(np.abs(noisy.data - cube.data) ** 2)
        snr = 10 * np.log10(1.0 / noise_power)
        assert abs(snr - 13.0) <= 0.1

    def test_deterministic_for_seed(self):
        w = small_waveform()
        cube = synth_cfr(first_order(PathTable([0.0], [1.0 + 0j]), w), w)
        a = add_noise(SlowTimeCube(cube.data.copy(), w), 10.0, seed=1234)
        b = add_noise(SlowTimeCube(cube.data.copy(), w), 10.0, seed=1234)
        assert np.array_equal(a.data, b.data)
        c = add_noise(SlowTimeCube(cube.data.copy(), w), 10.0, seed=1235)
        assert not np.array_equal(a.data, c.data)

    def test_row_blocks_add_the_one_call_normals_in_place(self):
        # rows of 1000 subcarriers go in blocks of 65: 300 rows end in a partial block of 40
        w = WaveformConfig(3.7e9, 20e6, 1000, 300)
        assert 300 % (channel._SLAB_ELEMENTS // 1000) != 0
        cube = synth_cfr(first_order(PathTable([3e-7, 8e-7], [1.0 + 0j, 0.2 - 0.5j], [30.0, -70.0]), w), w)
        m, e = cube.scaled_power()
        want = np.random.default_rng(21).standard_normal((300, 1000, 2)).view(complex)[..., 0]
        want *= math.ldexp(math.sqrt(m / 10.0 ** (17.0 / 10.0) / 2.0), e)
        want += cube.data
        data = cube.data
        noisy = add_noise(cube, 17.0, seed=21)
        assert np.array_equal(noisy.data, want)
        assert np.shares_memory(noisy.data, data)


class TestSlowTimeCube:
    @staticmethod
    def unaligned(shape):
        a = np.zeros(math.prod(shape) * 16 + 1, dtype=np.uint8)[1:].view(complex).reshape(shape)
        assert not a.flags.aligned
        return a

    @staticmethod
    def read_only(shape):
        a = np.zeros(shape, dtype=complex)
        a.flags.writeable = False
        return a

    @pytest.mark.parametrize("make", [read_only, unaligned, lambda shape: np.zeros(shape, dtype=complex, order="F")])
    def test_an_array_that_cannot_be_worked_in_place_is_copied(self, make):
        w = small_waveform(8, 4)
        data = make((8, 4))
        cube = SlowTimeCube(data, w)
        assert not np.shares_memory(cube.data, data)
        assert cube.data.flags.c_contiguous and cube.data.flags.aligned and cube.data.flags.writeable
        assert np.array_equal(cube.data, data)

    def test_an_owned_c_array_is_kept(self):
        data = np.zeros((8, 4), dtype=complex)
        assert SlowTimeCube(data, small_waveform(8, 4)).data is data


class TestCirFromCfr:
    def test_on_grid_delay_peaks_at_bin(self):
        w = small_waveform()
        n = 9
        paths = PathTable(delay=[n / w.bandwidth], gain=[1.0 + 0j], doppler=[0.0])
        cube = synth_cfr(first_order(paths, w), w)
        h = np.fft.ifft(cube.data[0])
        assert np.argmax(np.abs(h)) == n
        assert abs(h[n]) == pytest.approx(1.0, rel=1e-12)

    def test_off_grid_split_between_bins(self):
        w = small_waveform()
        n = 7
        tau = (n + 0.5) / w.bandwidth
        cube = synth_cfr(first_order(PathTable([tau], [1.0 + 0j]), w), w)
        h = np.abs(np.fft.ifft(cube.data[0]))
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
    total = synth_cfr(first_order(paths, w), w).data
    one = lambda i: first_order(PathTable(paths.delay[[i]], paths.gain[[i]], paths.doppler[[i]]), w)
    parts = sum(synth_cfr(one(i), w).data for i in range(n_paths))
    assert np.allclose(total, parts, rtol=1e-10, atol=1e-14)
