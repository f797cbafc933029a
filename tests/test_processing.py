import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import yaml
from conftest import FULL_SCENE, ROTOR_SCENE, tone_cube
from scipy.ndimage import maximum_filter
from scipy.signal import get_window
from scipy.signal.windows import gaussian

import bisim
from bisim.archive import Axis, ResultArchive, export_csv
from bisim.channel import (PathTable, SlowTimeCube, WaveformConfig, add_noise, first_order, named_window,
                           synth_cfr)
from bisim.errors import ConfigError, NumericalError
from bisim.geometry import C0, NodePose, Trajectory, bistatic_doppler, bistatic_range, vec3
from bisim.processing import (
    DelayDopplerMap,
    _fit_static_path,
    delay_doppler_map,
    detect_peaks,
    magnitude_db,
    stft_spectrogram,
    subtract_dominant_paths,
    time_gate,
)
from bisim.scene import SceneConfig, SceneNode, link_callback
from bisim.targets import RigidTarget, cloud

LAM = C0 / 3.7e9


def waveform(m=128, k=128, bandwidth=20e6):
    return WaveformConfig(3.7e9, bandwidth, k, m)


def on_grid_doppler(w, n):
    return n / (w.n_symbols * w.t_sym)


class TestDelayDopplerMap:
    def test_static_path_collapses_at_zero_doppler(self):
        w = waveform()
        cube = synth_cfr(first_order(PathTable([7.3 / w.bandwidth], [1.0 + 0j], [0.0]), w), w)
        ddm = delay_doppler_map(cube)
        energy = np.abs(ddm.data) ** 2
        zero = ddm.zero_doppler_bin
        assert ddm.doppler_hz[zero] == 0.0
        assert energy[:, zero].sum() / energy.sum() >= 1 - 1e-12

    def test_on_grid_tone_single_bin(self):
        w = waveform()
        fd = on_grid_doppler(w, 9)
        ddm = delay_doppler_map(tone_cube(PathTable([4 / w.bandwidth], [1.0 + 0j], [fd]), w))
        energy = np.abs(ddm.data) ** 2
        i, j = np.unravel_index(np.argmax(energy), energy.shape)
        assert i == 4
        assert ddm.doppler_hz[j] == pytest.approx(fd)
        assert energy[i, j] / energy.sum() >= 1 - 1e-12

    def test_scene_target_peak_at_predicted_bins(self):
        w = waveform(m=256, k=256)
        tx = SceneNode("tx0", NodePose(vec3(0, 0, 0)))
        rx = SceneNode("rx0", NodePose(vec3(400, 0, 0)))
        target = RigidTarget(
            cloud([[0, 0, 0]], [5.0]),
            Trajectory.from_waypoints([(0.0, (150, 180, 0)), (1.0, (150, 140, 0))]),
            name="car",
        )
        clutter = cloud([vec3(80, -60, 0), vec3(300, 90, 0)], [1.0, 1.0])
        scene = SceneConfig([tx], [rx], [target], clutter, wavelength=LAM)
        cube = synth_cfr(link_callback(scene, *scene.links()[0], w.symbol_times()), w)
        ddm = delay_doppler_map(cube)

        t_mid = w.n_symbols * w.t_sym / 2
        from bisim.geometry import pose_at

        pose = pose_at(target.trajectory, t_mid)
        rb, _ = bistatic_range(tx.motion.position, rx.motion.position, pose.position)
        fd = bistatic_doppler(tx.motion, rx.motion, pose.position, pose.velocity, LAM)
        pred_delay_bin = int(round(rb / C0 * w.bandwidth))
        pred_doppler_bin = int(np.argmin(np.abs(ddm.doppler_hz - fd)))

        masked = np.abs(ddm.data) ** 2
        masked[:, ddm.zero_doppler_bin] = 0.0
        i, j = np.unravel_index(np.argmax(masked), masked.shape)
        assert i == pred_delay_bin
        assert j == pred_doppler_bin

    def test_energy_parseval(self):
        rng = np.random.default_rng(3)
        w = waveform(64, 64)
        cube = SlowTimeCube(rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64)), w)
        ddm = delay_doppler_map(SlowTimeCube(cube.data.copy(), w))
        assert np.sum(np.abs(ddm.data) ** 2) == pytest.approx(np.sum(np.abs(cube.data) ** 2), rel=1e-10)

    # odd and even M: a fftshift folded into the slow window, as (-1)^m for even M, moves odd M's bytes
    @pytest.mark.parametrize("m", [2, 3, 31, 32, 33])
    @pytest.mark.parametrize("fast, slow", [("none", "none"), ("rect", "hann"), ("hann", "rectangular"),
                                            ("gaussian", "hann")])
    def test_map_is_the_windowed_transforms_bit_for_bit(self, fast, slow, m):
        rng = np.random.default_rng(5)
        w = waveform(m, 48)
        cube = SlowTimeCube(rng.normal(size=(m, 48)) + 1j * rng.normal(size=(m, 48)), w)
        wf, ws = named_window(fast, 48), named_window(slow, m)
        dd = np.fft.ifft(cube.data * wf, axis=1, norm="ortho") * ws[:, None]
        want = np.fft.fftshift(np.fft.fft(dd, axis=0, norm="ortho"), axes=0).T
        ddm = delay_doppler_map(cube, fast, slow)
        assert np.array_equal(ddm.data, want)
        assert ddm.data.flags.c_contiguous and np.shares_memory(ddm.data, cube.data)   # made in the cube

    def test_doppler_axis_resolution_and_span(self):
        w = WaveformConfig(3.7e9, 4 * 125e3, 4, 2048)  # t_sym = 8 us
        assert w.t_sym == 8e-6
        cube = synth_cfr(first_order(PathTable([0.0], [1.0 + 0j], [0.0]), w), w)
        ddm = delay_doppler_map(cube)
        res = ddm.doppler_hz[1] - ddm.doppler_hz[0]
        assert res == pytest.approx(61.03515625, rel=1e-12)
        assert ddm.doppler_hz[0] == pytest.approx(-62500.0)
        assert ddm.doppler_hz[-1] == pytest.approx(62500.0 - res)


class TestTimeGate:
    axis = np.linspace(-16e-9, 16e-9, 129)

    def test_full_width_identity(self):
        vals = np.arange(129, dtype=complex)
        out = time_gate(vals, self.axis, 0.0, 1.0)
        assert np.array_equal(out, vals)

    def test_hard_gate_zeroes_outside(self):
        vals = np.ones(129, dtype=complex)
        out = time_gate(vals, self.axis, 0.0, 2e-9)
        outside = np.abs(self.axis) > 1e-9
        assert np.all(out[outside] == 0)
        assert np.all(out[~outside] == 1)

    def test_parasitic_removed(self):
        vals = np.zeros(129, dtype=complex)
        target_bin = int(np.argmin(np.abs(self.axis)))
        parasitic_bin = int(np.argmin(np.abs(self.axis - 1.4e-9)))
        vals[target_bin] = 1.0
        vals[parasitic_bin] = 0.3
        out = time_gate(vals, self.axis, 0.0, 2e-9)
        assert out[target_bin] == 1.0
        assert out[parasitic_bin] == 0.0

    def test_gate_outside_axis_rejected(self):
        with pytest.raises(ConfigError):
            time_gate(np.ones(129), self.axis, 1.0, 2e-9)

    @pytest.mark.parametrize("edge_ns", [1.5, 1.0 + 1e-9, -0.5, float("nan")])
    def test_edge_beyond_half_the_width_is_rejected_by_name(self, edge_ns):
        # at width 2 ns and edge 1.5 ns the falling taper overwrote the rising one (0.957 at
        # -0.3 ns, 0.448 at +0.3 ns), and a negative edge gave a hard gate
        with pytest.raises(ConfigError, match="edge_ns"):
            time_gate(np.ones(129), self.axis, 0.0, 2e-9, edge_s=edge_ns * 1e-9)

    def test_edge_of_half_the_width_is_symmetric(self):
        out = time_gate(np.ones(129), self.axis, 0.0, 8e-9, edge_s=4e-9)
        # the axis is symmetric to rounding, and so is the mask
        assert np.abs(out - out[::-1]).max() <= 1e-12 and out[64] == 1.0 and out.min() == 0.0

    def test_raised_cosine_edges(self):
        vals = np.ones(129, dtype=complex)
        out = time_gate(vals, self.axis, 0.0, 8e-9, edge_s=2e-9)
        inner = np.abs(self.axis) <= 1.9e-9
        assert np.all(out[inner] == 1)
        edge = (self.axis > 2.1e-9) & (self.axis < 3.9e-9)
        assert np.all((np.abs(out[edge]) > 0) & (np.abs(out[edge]) < 1))
        outside = np.abs(self.axis) > 4.1e-9
        assert np.all(out[outside] == 0)


class TestSubtractDominantPaths:
    def test_zero_paths_identity(self):
        w = waveform(32, 32)
        cube = synth_cfr(first_order(PathTable([3.3 / w.bandwidth], [1.0 + 0j], [0.0]), w), w)
        data, before = cube.data, cube.data.copy()
        res = subtract_dominant_paths(cube, 0)
        assert cube.data is data and np.array_equal(cube.data, before)
        assert len(res.removed) == 0 and res.removed.doppler is None

    def test_single_path_removed_below_60db(self):
        w = waveform(64, 128)
        tau = 13.37 / w.bandwidth  # deliberately off-grid
        cube = synth_cfr(first_order(PathTable([tau], [0.8 - 0.3j], [0.0]), w), w)
        residual = SlowTimeCube(cube.data.copy(), w)
        res = subtract_dominant_paths(residual, 1)
        assert np.sum(np.abs(residual.data) ** 2) <= 1e-6 * np.sum(np.abs(cube.data) ** 2)
        assert res.removed.delay[0] == pytest.approx(tau, abs=1e-14)

    def test_two_paths_with_weak_mover(self):
        # strong direct path + dominant reflection + weak moving target
        w = waveform(256, 256)
        fd = on_grid_doppler(w, 23)
        # direct path, reflection and a -30 dB target
        paths = PathTable(np.array([20.4, 35.8, 50.1]) / w.bandwidth,
                          [1.0 + 0j, 0.4 - 0.2j, 0.0316 + 0j], [0.0, 0.0, fd])
        cube = synth_cfr(first_order(paths, w), w)
        residual = SlowTimeCube(cube.data.copy(), w)
        res = subtract_dominant_paths(residual, 2)

        static_before = np.sum(np.abs(cube.data.mean(axis=0)) ** 2)
        static_after = np.sum(np.abs(residual.data.mean(axis=0)) ** 2)
        assert 10 * np.log10(static_after / static_before) <= -60.0

        ddm = delay_doppler_map(residual)
        energy = np.abs(ddm.data) ** 2
        i, j = np.unravel_index(np.argmax(energy), energy.shape)
        assert ddm.doppler_hz[j] == pytest.approx(fd)
        assert i == 50
        delays = np.sort(res.removed.delay)
        assert delays[0] == pytest.approx(paths.delay[0], abs=1e-13)
        assert delays[1] == pytest.approx(paths.delay[1], abs=1e-13)

    def test_never_increases_energy_on_noise(self):
        rng = np.random.default_rng(8)
        w = waveform(32, 64)
        cube = SlowTimeCube(
            rng.normal(size=(32, 64)) + 1j * rng.normal(size=(32, 64)), w
        )
        before = np.sum(np.abs(cube.data) ** 2)
        subtract_dominant_paths(cube, 2)   # the residual is left in cube
        assert np.sum(np.abs(cube.data) ** 2) <= before * (1 + 1e-12)

    def test_idempotent_on_own_residual(self):
        # re-subtracting the already-removed paths changes nothing: the
        # residual is orthogonal to their model ramps
        w = waveform(32, 64)
        paths = PathTable(np.array([12.3, 30.7]) / w.bandwidth, [1.0 + 0j, 0.5 - 0.2j])
        cube = add_noise(synth_cfr(first_order(paths, w), w), 40.0, seed=3)
        before = np.sum(np.abs(cube.data) ** 2)
        res = subtract_dominant_paths(cube, 2)   # the residual is left in cube
        assert np.sum(np.abs(cube.data) ** 2) <= before
        k = np.arange(w.n_subcarriers)
        mean_row = cube.data.mean(axis=0)
        for delay, gain in zip(res.removed.delay, res.removed.gain):
            ramp = np.exp(-2j * np.pi * w.delta_f * delay * k)
            coeff = abs(np.vdot(ramp, mean_row)) / w.n_subcarriers
            assert coeff <= 1e-9 * abs(gain)

    def test_residual_is_the_cube_minus_the_removed_paths(self):
        w = waveform(32, 64)
        paths = PathTable(np.array([12.3, 30.7, 41.2]) / w.bandwidth,
                          [1.0 + 0j, 0.5 - 0.2j, 0.1 + 0.3j])
        cube = add_noise(synth_cfr(first_order(paths, w), w), 30.0, seed=4)
        given = SlowTimeCube(cube.data.copy(), w)
        data = given.data
        res = subtract_dominant_paths(given, 3)
        assert given.data is data and res.removed.doppler is None
        k = np.arange(w.n_subcarriers)
        removed = sum(gain * np.exp(-2j * np.pi * w.delta_f * delay * k)
                      for delay, gain in zip(res.removed.delay, res.removed.gain))
        assert np.abs(given.data - (cube.data - removed)).max() <= 1e-12
        assert not np.shares_memory(given.data, cube.data)

    def test_fitted_delay_is_a_stationary_maximum(self):
        # noisy rows of three paths: the correlation is lower 1e-3 bins either side
        rng = np.random.default_rng(11)
        for k in (64, 128, 512):
            w = waveform(8, k)
            ramp = lambda tau: np.exp(-2j * np.pi * w.delta_f * tau * np.arange(k))
            for trial in range(10):
                paths = PathTable(rng.uniform(2, k - 3, 3) / w.bandwidth,
                                  rng.normal(size=3) + 1j * rng.normal(size=3))
                row = add_noise(synth_cfr(first_order(paths, w), w), 10.0, seed=trial).data.mean(axis=0)
                tau, amp = _fit_static_path(row, w.delta_f, w.bandwidth)
                corr = lambda t: abs(np.vdot(ramp(t), row))
                step = 1e-3 / w.bandwidth
                assert corr(tau - step) < corr(tau) > corr(tau + step)
                assert amp == pytest.approx(np.vdot(ramp(tau), row) / k, rel=1e-12)

    def test_off_grid_single_paths_recovered_to_1e_14_s(self):
        rng = np.random.default_rng(12)
        for k in (64, 128, 512):
            w = waveform(8, k)
            for tau_bins in [0.05, 0.5, k - 1.2, *rng.uniform(0.0, k - 1.0, 10)]:
                tau = tau_bins / w.bandwidth
                cube = synth_cfr(first_order(PathTable([tau], [complex(*rng.normal(size=2))]), w), w)
                res = subtract_dominant_paths(cube, 1)
                assert res.removed.delay[0] == pytest.approx(tau, abs=1e-14), (k, tau_bins)

    @pytest.mark.parametrize("offset_bins", [-0.95, -0.8, -0.6, 0.6, 0.8, 0.95])
    def test_fit_from_a_far_hint_falls_back_to_the_bracket(self, offset_bins):
        # the hint sits where |S|^2 curves upward: plain Newton steps would walk away
        w = waveform(8, 128)
        tau = 40.3 / w.bandwidth
        cube = synth_cfr(first_order(PathTable([tau], [0.7 + 0.2j], [0.0]), w), w)
        row = cube.data.mean(axis=0)
        fit, amp = _fit_static_path(row, w.delta_f, w.bandwidth, tau_hint=tau + offset_bins / w.bandwidth)
        assert fit == pytest.approx(tau, abs=1e-14)
        assert amp == pytest.approx(0.7 + 0.2j, abs=1e-12)

    def test_fit_of_a_subnormal_scale_row(self):
        # |r|² underflows: θ·curv once rounded to -0.0 and the Newton step divided by it
        w = waveform(8, 128, bandwidth=40e6)
        tau = 20.2 / w.bandwidth
        row = 3.7e-166 * np.exp(-2j * np.pi * np.arange(128) * w.delta_f * tau)
        fit, _ = _fit_static_path(row, w.delta_f, w.bandwidth)
        assert np.isfinite(fit) and abs(fit - tau) <= 1 / w.bandwidth

    def test_noise_floor_flagging(self):
        rng = np.random.default_rng(9)
        w = waveform(32, 64)
        cube = SlowTimeCube(
            1e-3 * (rng.normal(size=(32, 64)) + 1j * rng.normal(size=(32, 64))), w
        )
        res = subtract_dominant_paths(cube, 2)
        assert all(res.at_noise_floor)


class TestSpectrogram:
    def test_pure_tone_single_ridge(self):
        t_step = 8e-6
        n = 2048 + 32 * 8
        fft_size, hop = 2048, 32
        fd = 40 / (fft_size * t_step)  # on the STFT grid
        series = np.exp(2j * np.pi * fd * np.arange(n) * t_step)
        spec = stft_spectrogram(series, t_step, fft_size, hop, "gaussian")
        assert spec.data.shape[1] == fft_size
        for frame in spec.data:
            j = int(np.argmax(frame))
            assert spec.doppler_hz[j] == pytest.approx(fd)
        assert spec.doppler_hz[0] == pytest.approx(-1 / (2 * t_step))

    def test_observation_window_20ms(self):
        t_step = 8e-6
        series = np.ones(2500, dtype=complex)
        spec = stft_spectrogram(series, t_step, 2048, 32, "gaussian")
        assert 2500 * t_step == pytest.approx(0.02, rel=1e-12)
        assert spec.time_s.size == (2500 - 2048) // 32 + 1

    def test_modulation_shifts_spectrogram(self):
        rng = np.random.default_rng(4)
        t_step = 8e-6
        n = 2048 + 32 * 4
        fft_size = 2048
        series = rng.normal(size=n) + 1j * rng.normal(size=n)
        q = 57
        f0 = q / (fft_size * t_step)
        shifted = series * np.exp(2j * np.pi * f0 * np.arange(n) * t_step)
        a = stft_spectrogram(series, t_step, fft_size, 32, "gaussian")
        b = stft_spectrogram(shifted, t_step, fft_size, 32, "gaussian")
        assert np.allclose(b.data, np.roll(a.data, q, axis=1), atol=1e-6)

    def test_series_too_short_rejected(self):
        with pytest.raises(ConfigError):
            stft_spectrogram(np.ones(100, dtype=complex), 8e-6, 2048, 32, "gaussian")

    @pytest.mark.parametrize("fft_size, hop", [(0, 32), (-8, 32), (64, 0), (64, -1)])
    def test_sizes_below_one_rejected(self, fft_size, hop):
        with pytest.raises(ConfigError, match="fft_size >= 1 and hop >= 1"):
            stft_spectrogram(np.ones(256, dtype=complex), 8e-6, fft_size, hop, "gaussian")

    def test_frames_past_the_entry_bound_rejected(self, monkeypatch):
        monkeypatch.setattr(bisim.channel, "MAX_ENTRIES", 4096)   # 193 frames x 64 is 12352 entries
        with pytest.raises(ConfigError, match="spectrogram of frames x fft_size"):
            stft_spectrogram(np.ones(256, dtype=complex), 8e-6, 64, 1, "gaussian")
        assert stft_spectrogram(np.ones(256, dtype=complex), 8e-6, 64, 4, "gaussian").data.size <= 4096


class TestNamedWindow:
    def test_values_match_the_scipy_windows(self):
        n = 257
        assert np.array_equal(named_window("none", n), np.ones(n))
        assert np.array_equal(named_window("rect", n), np.ones(n))
        assert np.array_equal(named_window("hann", n), get_window("hann", n, fftbins=True))
        assert np.array_equal(named_window("hann", n, sym=True), get_window("hann", n, fftbins=False))
        assert np.array_equal(named_window("gaussian", n), gaussian(n, std=n / 6.0, sym=False))

    @pytest.mark.parametrize("name", ["bogus", "kaiser", ""])
    def test_unknown_or_incomplete_name_rejected(self, name):
        with pytest.raises(ConfigError, match="window"):
            named_window(name, 16)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 16, 64, 255, 256, 1024])
    def test_own_formulas_match_scipy_at_any_length(self, n):
        for sym in (False, True):
            assert np.array_equal(named_window("hann", n, sym=sym), get_window("hann", n, fftbins=not sym))
            assert np.array_equal(named_window("gaussian", n, sym=sym), gaussian(n, std=n / 6.0, sym=sym))

    def test_other_windows_without_scipy_name_the_extra(self):
        code = textwrap.dedent("""
            import sys
            sys.modules["scipy"] = None   # as if scipy were not installed
            from bisim.channel import named_window
            from bisim.errors import ConfigError
            assert named_window("hann", 8).shape == named_window("gaussian", 8).shape == (8,)
            for name in ("hann", "gaussian"):   # below two points scipy gives ones, and so do the own formulas
                for sym in (False, True):
                    assert named_window(name, 1, sym=sym).tolist() == [1.0], (name, sym)
            try:
                named_window("hamming", 8)
            except ConfigError as err:
                sys.exit(0 if "bisim[windows]" in str(err) else f"message: {err}")
            sys.exit("no ConfigError")
        """)
        src = str(Path(bisim.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                              timeout=120, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_clean_and_localize_runs_import_no_scipy(self, tmp_path):
        (tmp_path / "full.yaml").write_text(textwrap.dedent(FULL_SCENE))
        code = textwrap.dedent(f"""
            import sys
            import yaml
            from bisim.cli import main
            for sub in ("clean", "localize"):
                argv = [sub, "--config", {str(tmp_path / "full.yaml")!r}, "--out", {str(tmp_path / "out")!r}]
                assert main([*argv, "--clean", "2"]) == 0, sub
            summary = yaml.safe_load(open({str(tmp_path / "out" / "clean_summary.yaml")!r}))
            assert len(summary["results"]["tx0_rx0"]["removed"]) == 2
            loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
            sys.exit(f"imported {{loaded}}" if loaded else 0)
        """)
        src = str(Path(bisim.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                              timeout=120, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_startup_and_config_load_do_not_import_scipy_signal(self, tmp_path):
        doc = yaml.safe_load(textwrap.dedent(FULL_SCENE))
        doc["processing"].update(fast_window="hann", slow_window="hann")
        doc["flyover"]["sweep_window"] = "hann"
        (tmp_path / "hann.yaml").write_text(yaml.safe_dump(doc))
        (tmp_path / "rotor.yaml").write_text(textwrap.dedent(ROTOR_SCENE))
        code = textwrap.dedent(f"""
            import sys
            import bisim, bisim.pipeline
            from bisim.config import load_config
            load_config({str(tmp_path / "rotor.yaml")!r})
            load_config({str(tmp_path / "hann.yaml")!r})
            sys.exit(3 if "scipy.signal" in sys.modules else 0)
        """)
        src = str(Path(bisim.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                              timeout=120, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr or "scipy.signal was imported"

    def test_startup_and_config_load_do_not_import_scipy_ndimage_or_optimize(self, tmp_path):
        (tmp_path / "full.yaml").write_text(textwrap.dedent(FULL_SCENE))
        code = textwrap.dedent(f"""
            import sys
            import bisim.pipeline
            from bisim.config import load_config
            load_config({str(tmp_path / "full.yaml")!r})
            loaded = [m for m in ("scipy.ndimage", "scipy.optimize") if m in sys.modules]
            sys.exit(f"imported {{loaded}}" if loaded else 0)
        """)
        src = str(Path(bisim.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                              timeout=120, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr


def noise_map(rng, n=48):
    data = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    delay = np.arange(n) / 20e6
    doppler = np.fft.fftshift(np.fft.fftfreq(n, 8e-6))
    return DelayDopplerMap(data, delay, doppler)


class TestDetectPeaks:
    def test_noise_only_false_alarm_rate(self):
        rng = np.random.default_rng(12)
        false_alarms = sum(
            len(detect_peaks(noise_map(rng), 20.0)) for _ in range(400)
        )
        assert false_alarms == 0

    def test_single_target_detected(self):
        rng = np.random.default_rng(13)
        ddm = noise_map(rng)
        floor = np.median(magnitude_db(ddm.data))
        ddm.data[17, 29] = 10 ** ((floor + 30) / 20)
        dets = detect_peaks(ddm, 20.0)
        assert len(dets) == 1
        assert (dets[0].delay_bin, dets[0].doppler_bin) == (17, 29)

    def test_exclude_zero_doppler_hides_static_scene(self):
        w = waveform(64, 64)
        cube = synth_cfr(
            first_order(PathTable(np.array([5, 11]) / w.bandwidth, [1.0 + 0j, 0.5 + 0j]), w),
            w,
        )
        ddm = delay_doppler_map(cube)
        assert detect_peaks(ddm, 20.0, exclude_zero_doppler=True) == []
        assert len(detect_peaks(ddm, 20.0, exclude_zero_doppler=False)) >= 1

    @staticmethod
    def reference(ddm, threshold_db, exclude_zero_doppler=False):
        """The definition: the median of the dB map, and the 3 x 3 wrap-around maximum filter."""
        db = magnitude_db(ddm.data)
        hit = (db >= maximum_filter(db, size=3, mode="wrap")) & (db >= np.median(db) + threshold_db)
        if exclude_zero_doppler:
            hit[:, ddm.zero_doppler_bin] = False
        return sorted((int(i), int(j), float(db[i, j])) for i, j in np.argwhere(hit))

    @staticmethod
    def found(dets):
        assert [d.power_db for d in dets] == sorted((d.power_db for d in dets), reverse=True)
        return sorted((d.delay_bin, d.doppler_bin, d.power_db) for d in dets)

    @pytest.mark.parametrize("shape", [(48, 48), (5, 7), (2, 9), (1, 6), (6, 1), (1, 1)])
    def test_local_maxima_match_the_wraparound_maximum_filter(self, shape):
        # magnitudes on a coarse lattice make ties between neighbours common
        rng = np.random.default_rng(15)
        data = rng.integers(1, 4, shape) + 0j
        ddm = DelayDopplerMap(data, np.arange(shape[0]) / 20e6, np.arange(shape[1]) * 100.0)
        assert self.found(detect_peaks(ddm, -1e3)) == self.reference(ddm, -1e3)

    # odd and even cell counts (one or two middle values); exact zeros, all of them at a -1e3 dB
    # threshold, whose limit lies below DB_FLOOR; distinct magnitudes that tie at DB_FLOOR
    @pytest.mark.parametrize("shape", [(7, 9), (8, 9), (48, 48), (1, 6), (5, 1)])
    @pytest.mark.parametrize("fill, share", [(0.0, 0.0), (0.0, 0.3), (0.0, 1.0), (1e-16, 0.5)])
    @pytest.mark.parametrize("threshold_db", [-1e3, 0.0, 6.0, 20.0])
    def test_detections_match_the_reference_definition(self, shape, fill, share, threshold_db):
        rng = np.random.default_rng([16, *shape])
        data = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        data.flat[rng.integers(data.size, size=3)] *= 100.0
        filled = rng.random(shape) < share
        data[filled] = fill * rng.random(np.count_nonzero(filled))
        ddm = DelayDopplerMap(data, np.arange(shape[0]) / 20e6, np.arange(shape[1]) * 100.0 - 200.0)
        for exclude in (False, True):
            assert self.found(detect_peaks(ddm, threshold_db, exclude)) == self.reference(ddm, threshold_db, exclude)
        if share == 1.0 and threshold_db == -1e3:   # every zero is a candidate, and a tie with its neighbours
            assert len(detect_peaks(ddm, threshold_db)) == data.size

    def test_a_cell_within_1e_9_db_of_the_limit(self):
        rng = np.random.default_rng(17)
        ddm = noise_map(rng, 49)
        limit = np.median(magnitude_db(ddm.data)) + 20.0
        at = below = 10.0 ** (limit / 20.0)
        while magnitude_db(at) < limit:
            at = np.nextafter(at, np.inf)
        while magnitude_db(below) >= limit:
            below = np.nextafter(below, 0.0)
        assert 0.0 <= magnitude_db(at) - limit < 1e-9 and 0.0 < limit - magnitude_db(below) < 1e-9
        # the two largest cells lie above the median, so the median stays put when they are replaced
        at_cell, below_cell = zip(*np.unravel_index(np.argsort(np.abs(ddm.data), axis=None)[-2:], ddm.data.shape))
        ddm.data[at_cell], ddm.data[below_cell] = at, below
        assert np.median(magnitude_db(ddm.data)) + 20.0 == limit
        want = [(int(at_cell[0]), int(at_cell[1]), float(magnitude_db(at)))]
        assert self.found(detect_peaks(ddm, 20.0)) == self.reference(ddm, 20.0) == want

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_cell_raises(self, bad):
        rng = np.random.default_rng(13)
        ddm = noise_map(rng)
        ddm.data[17, 29] = 1e3
        assert len(detect_peaks(ddm, 20.0)) == 1
        ddm.data[3, 4] = bad
        with pytest.raises(NumericalError, match="1 non-finite"):
            detect_peaks(ddm, 20.0)

    def test_non_finite_capture_exits_3(self, full_scene_config, tmp_path, monkeypatch):
        from bisim import pipeline
        from bisim.cli import main

        def corrupt(cube, *args, **kwargs):
            data = cube.data.copy()
            data[3, 5] = np.nan   # the transforms spread it over the whole map
            return SlowTimeCube(data, cube.waveform)

        monkeypatch.setattr(pipeline, "add_noise", corrupt)
        assert main(["ddmap", "--config", str(full_scene_config), "--out", str(tmp_path / "out")]) == 3

    def test_summary_excess_delay_is_delay_less_los_delay(self, tmp_path):
        # a detection holds its delay only; the summary subtracts the link's LoS delay, which
        # simulate reports, in one float64 subtraction
        from bisim.config import parse_config
        from bisim.pipeline import run

        cfg = parse_config(yaml.safe_load(textwrap.dedent(FULL_SCENE)))
        los = {f"{link['tx']}_{link['rx']}": link["los_delay_s"]
               for link in run("simulate", cfg, tmp_path)[0].summary["results"]["links"]}
        for sub in ("ddmap", "localize"):
            results = run(sub, cfg, tmp_path)[0].summary["results"]
            links = results["links"] if sub == "localize" else results
            assert links.keys() == los.keys()
            dets = [(d, los[name]) for name, entry in links.items() for d in entry["detections"]]
            assert len(dets) >= len(los)
            for d, los_s in dets:
                assert d["excess_delay_s"] == d["delay_s"] - los_s
                assert d["excess_delay_ns"] == (d["delay_s"] - los_s) * 1e9



class TestPipelineLinearity:
    def test_map_of_difference(self):
        rng = np.random.default_rng(21)
        w = waveform(32, 32)
        a = SlowTimeCube(rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32)), w)
        b = SlowTimeCube(rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32)), w)
        lhs = delay_doppler_map(SlowTimeCube(a.data - b.data, w)).data
        rhs = delay_doppler_map(a).data - delay_doppler_map(b).data
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-14)


class TestMagnitudeDb:
    def test_zero_floor(self):
        out = magnitude_db(np.array([0.0, 1.0, 10.0]))
        assert out[0] == -300.0
        assert out[1] == 0.0
        assert out[2] == pytest.approx(20.0)

    def test_nan_stays_nan_through_csv_export(self, tmp_path):
        # only an exact zero takes the floor: a corrupted entry must not read as silence
        values = np.array([np.nan + 0j, 0j, complex(1.0, np.nan)])
        out = magnitude_db(values)
        assert np.isnan(out[0]) and out[1] == -300.0 and np.isnan(out[2])
        archive = ResultArchive()
        archive.add("p", values, [Axis("delay", "ns", np.arange(3.0))])
        export_csv(archive, "p", tmp_path / "p.csv")
        assert (tmp_path / "p.csv").read_text().splitlines() == [
            "delay_ns,power_db", "0,nan", "1,-300.0000000000", "2,nan"]
