import numpy as np
import pytest

from bisim.channel import WaveformConfig, synth_cfr
from bisim.errors import ConfigError
from bisim.geometry import C0, NodePose, Trajectory, direction_from_angles, vec3
from bisim.targets import (
    FOUR_PI,
    FrequencyBand,
    LinkBudget,
    PointScatterer,
    RigidTarget,
    Rotor,
    equivalent_rcs,
    flyover_scan,
    link_budget,
    reflectivity_scan,
    scatterer_states,
    select_polarization,
    target_paths,
)

LAM = C0 / 3.7e9


def single_point_target(amplitude=0.05, track=((0.0, (50, 40, 0)),)):
    return RigidTarget(
        [PointScatterer([0, 0, 0], amplitude)], Trajectory.from_waypoints(track)
    )


def make_rotor(radius=0.12, rate=625.0, blades=2, samples=32):
    return Rotor(
        hub_offset=vec3(10, 0, 0),
        axis=vec3(0, 0, 1),
        blade_radius=radius,
        rate=rate,
        n_blades=blades,
        samples_per_blade=samples,
        sample_amplitude=0.01,
    )


class TestScattererStates:
    def test_rotor_periodicity(self):
        rotor = make_rotor()
        period = 2 * np.pi / rotor.rate
        a = scatterer_states(rotor, 0.37)
        b = scatterer_states(rotor, 0.37 + period)
        assert np.allclose(a.positions, b.positions, atol=1e-9)
        assert np.allclose(a.velocities, b.velocities, atol=1e-6)

    @pytest.mark.parametrize("axis", [(0, 0, 1), (1, 0, 0), (0.6, 0, 0.8)])
    def test_rotor_basis_computed_once_and_right_handed(self, axis):
        rotor = make_rotor()
        rotor.axis = vec3(*axis)
        e1, e2 = rotor.basis
        assert rotor.basis is rotor.basis
        assert np.allclose([e1 @ e1, e2 @ e2, e1 @ e2, e1 @ rotor.axis], [1, 1, 0, 0], atol=1e-12)
        assert np.allclose(np.cross(e1, e2), rotor.axis, atol=1e-12)
        # blade samples stay in the rotor plane through the hub
        states = scatterer_states(rotor, np.linspace(0.0, 0.01, 5))
        assert np.allclose((states.positions - rotor.hub_offset) @ rotor.axis, 0.0, atol=1e-12)

    def test_rotor_tip_speed(self):
        rotor = make_rotor()
        states = scatterer_states(rotor, 0.123)
        speeds = np.linalg.norm(states.velocities, axis=1)
        assert speeds.max() == pytest.approx(rotor.rate * rotor.blade_radius, rel=1e-12)
        # speed grows linearly along the blade
        radii = np.linalg.norm(states.positions - rotor.hub_offset, axis=1)
        assert np.allclose(speeds, rotor.rate * radii, rtol=1e-9)

    def test_rotor_velocity_perpendicular(self):
        rotor = make_rotor()
        states = scatterer_states(rotor, 0.05)
        arms = states.positions - rotor.hub_offset
        dots_arm = np.abs(np.sum(states.velocities * arms, axis=1))
        dots_axis = np.abs(states.velocities @ rotor.axis)
        assert dots_arm.max() < 1e-9
        assert dots_axis.max() < 1e-12

    def test_rigid_target_shares_track_velocity(self):
        target = RigidTarget(
            [PointScatterer([0.2, 0, 0], 0.1), PointScatterer([-0.2, 0.1, 0], 0.1)],
            Trajectory.from_waypoints([(0, (0, 0, 0)), (2, (20, 10, 0))]),
        )
        states = scatterer_states(target, 1.0)
        assert np.allclose(states.velocities, [10, 5, 0])

    def test_rotor_sampling_check(self):
        rotor = make_rotor(samples=32)
        assert rotor.sampling_ok(LAM)  # 3.75 mm spacing < 20 mm
        coarse = make_rotor(samples=2)
        assert not coarse.sampling_ok(LAM)


class TestTargetPaths:
    def test_amplitude_matches_radar_equation(self):
        # single scatterer equidistant from both antennas
        d = 80.0
        tx = NodePose(vec3(-d, 0, 0))
        rx = NodePose(vec3(d, 0, 0))
        s = 0.05
        target = single_point_target(s, track=((0.0, (0, 0, 0)),))
        (path,) = target_paths(target, tx, rx, 0.0, LAM).paths()
        assert abs(path.gain) == pytest.approx(s * LAM / (FOUR_PI * d * d), rel=1e-12)
        # and the gain squared is the radar equation with sigma = 4*pi*s^2
        sigma = equivalent_rcs(s)
        expected_power = LAM**2 * sigma / (FOUR_PI**3 * d**2 * d**2)
        assert abs(path.gain) ** 2 == pytest.approx(expected_power, rel=1e-12)

    def test_distance_doubling_drops_12db(self):
        tx = NodePose(vec3(-60, 0, 0))
        rx = NodePose(vec3(60, 0, 0))
        near = target_paths(single_point_target(track=((0, (0, 25, 0)),)), tx, rx, 0.0, LAM).paths()[0]
        tx2 = NodePose(vec3(-120, 0, 0))
        rx2 = NodePose(vec3(120, 0, 0))
        far = target_paths(single_point_target(track=((0, (0, 50, 0)),)), tx2, rx2, 0.0, LAM).paths()[0]
        drop = 20 * np.log10(abs(near.gain) / abs(far.gain))
        assert drop == pytest.approx(20 * np.log10(4), rel=1e-9)

    def test_drone_sized_target_within_2ns(self):
        # two scatterers 0.3 m apart along the bistatic bisector
        tx = NodePose(vec3(-100, 0, 0))
        rx = NodePose(vec3(100, 0, 0))
        target = RigidTarget(
            [PointScatterer([0, 0.15, 0], 0.05), PointScatterer([0, -0.15, 0], 0.05)],
            Trajectory.from_waypoints([(0.0, (0, 60, 0))]),
        )
        paths = target_paths(target, tx, rx, 0.0, LAM).paths()
        spread = max(p.delay for p in paths) - min(p.delay for p in paths)
        assert spread <= 2e-9

    def test_doppler_from_scatterer_velocity(self):
        rotor = make_rotor()
        tx = NodePose(vec3(-50, 0, 0))
        rx = NodePose(vec3(50, 0, 0))
        paths = target_paths(rotor, tx, rx, 0.0, LAM, doppler=True).paths()
        tip_speed = rotor.rate * rotor.blade_radius
        bound = 2 * tip_speed / LAM  # loosest possible bistatic bound
        assert all(abs(p.doppler) <= bound * (1 + 1e-9) for p in paths)
        assert any(abs(p.doppler) > 0 for p in paths)

    def test_polarization_selection(self):
        jones = np.array([[1.0, 0.2j], [0.1, -1.0]])
        tx = NodePose(vec3(-50, 0, 0))
        rx = NodePose(vec3(50, 0, 0))
        target = RigidTarget(
            [PointScatterer([0, 0, 0], 0.05, jones)],
            Trajectory.from_waypoints([(0.0, (0, 30, 0))]),
        )
        paths = target_paths(target, tx, rx, 0.0, LAM)
        states = scatterer_states(target, 0.0)
        hh = select_polarization(paths, states, tx_pol=0, rx_pol=0)
        vh = select_polarization(paths, states, tx_pol=0, rx_pol=1)
        assert hh.gain[0] == pytest.approx(paths.gain[0] * jones[0, 0])
        assert vh.gain[0] == pytest.approx(paths.gain[0] * jones[1, 0])


class TestRcsAndLinkBudget:
    def test_unit_sphere_rcs(self):
        s = 1.0 / (2 * np.sqrt(np.pi))
        assert equivalent_rcs(s) == pytest.approx(1.0, rel=1e-12)

    def test_processing_gain(self):
        b = LinkBudget(30.0, 0.0, 0.0, LAM, 100.0, 100.0, 1.0,
                       n_subcarriers=1280, n_symbols=2048)
        out = link_budget(b)
        assert out["processing_gain_db"] == pytest.approx(64.185, abs=0.01)

    def test_synthesized_power_matches_budget(self):
        d_tx, d_rx = 120.0, 75.0
        s = 0.03
        tx = NodePose(vec3(-d_tx, 0, 0))
        rx = NodePose(vec3(d_rx, 0, 0))
        target = single_point_target(s, track=((0.0, (0, 0, 0)),))
        paths = target_paths(target, tx, rx, 0.0, LAM, doppler=True).paths()
        w = WaveformConfig(C0 / LAM, 20e6, 32, 16)
        cube = synth_cfr(paths, w)
        power_db = 10 * np.log10(cube.mean_power())
        budget = LinkBudget(0.0, 0.0, 0.0, LAM, d_tx, d_rx, equivalent_rcs(s))
        expected = link_budget(budget)["received_power_dbm"]
        assert abs(power_db - expected) <= 0.01

    def test_bad_distance_rejected(self):
        with pytest.raises(ConfigError):
            LinkBudget(0.0, 0.0, 0.0, LAM, -1.0, 10.0, 1.0)


def centered_scatterer(amplitude=0.05):
    return RigidTarget(
        [PointScatterer([0, 0, 0], amplitude)],
        Trajectory.from_waypoints([(0.0, (0, 0, 0))]),
    )


def small_grid(az_tx, el_tx, az_rx, el_rx):
    return {
        "az_tx": np.atleast_1d(az_tx),
        "el_tx": np.atleast_1d(el_tx),
        "az_rx": np.atleast_1d(az_rx),
        "el_rx": np.atleast_1d(el_rx),
    }


class TestReflectivityScan:
    band = FrequencyBand(2e9, 6e9, 32)

    def test_centered_point_is_isotropic(self):
        grid = small_grid([0, 45, 90, 180], [0, 30], [10, 120, 250], [0, 45])
        tensor = reflectivity_scan(centered_scatterer(), grid, 8.0, 11.0, self.band)
        mags = np.abs(tensor.data[..., 0, 0])
        peak = mags.max(axis=4)
        assert np.allclose(peak, peak.flat[0], rtol=1e-9)

    def test_reciprocity_with_jones_transpose(self):
        rng = np.random.default_rng(17)
        jones = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        make = lambda j: RigidTarget(
            [
                PointScatterer([0.3, 0.1, 0.0], 0.05, j),
                PointScatterer([-0.2, 0.0, 0.1], 0.03 + 0.01j, j),
            ],
            Trajectory.from_waypoints([(0.0, (0, 0, 0))]),
        )
        fwd = reflectivity_scan(
            make(jones), small_grid(20, 0, 130, 10), 9.0, 13.0, self.band
        )
        rev = reflectivity_scan(
            make(jones.T), small_grid(130, 10, 20, 0), 13.0, 9.0, self.band
        )
        swapped = np.swapaxes(rev.data[0, 0, 0, 0], -1, -2)
        assert np.allclose(fwd.data[0, 0, 0, 0], swapped, rtol=1e-9, atol=1e-18)

    def test_two_point_interferometer_fringes(self):
        # narrowband fringe pattern vs the analytic two-point prediction
        d = 0.3
        f0 = 10e9
        target = RigidTarget(
            [PointScatterer([0, d / 2, 0], 0.05), PointScatterer([0, -d / 2, 0], 0.05)],
            Trajectory.from_waypoints([(0.0, (0, 0, 0))]),
        )
        band = FrequencyBand(f0 - 1e6, f0 + 1e6, 3)
        az = np.linspace(-60, 60, 241)
        tensor = reflectivity_scan(
            target, small_grid(0.0, 0.0, az, 0.0), 50.0, 50.0, band
        )
        response = np.abs(tensor.data[0, 0, :, 0].sum(axis=1)[:, 0, 0])
        # fringe count over the swept span: spacing c/(f0*d) in sin(theta)
        measured_maxima = 0
        for i in range(1, len(az) - 1):
            if response[i] > response[i - 1] and response[i] >= response[i + 1]:
                measured_maxima += 1
        span = np.sin(np.deg2rad(60)) - np.sin(np.deg2rad(-60))
        expected = span / (C0 / (f0 * d))
        assert abs(measured_maxima - expected) <= 1.5

    def test_joint_rotation_invariance(self):
        rng = np.random.default_rng(23)
        offsets = rng.normal(scale=0.2, size=(3, 3))
        amps = rng.normal(size=3) + 1j * rng.normal(size=3)
        phi = 37.0
        c, s = np.cos(np.deg2rad(phi)), np.sin(np.deg2rad(phi))
        rot = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])
        base = RigidTarget(
            [PointScatterer(o, a) for o, a in zip(offsets, amps)],
            Trajectory.from_waypoints([(0.0, (0, 0, 0))]),
        )
        spun = RigidTarget(
            [PointScatterer(rot @ o, a) for o, a in zip(offsets, amps)],
            Trajectory.from_waypoints([(0.0, (0, 0, 0))]),
        )
        g1 = small_grid([10, 80], 0, [140, 220], 0)
        g2 = small_grid([10 + phi, 80 + phi], 0, [140 + phi, 220 + phi], 0)
        t1 = reflectivity_scan(base, g1, 9.0, 9.0, self.band)
        t2 = reflectivity_scan(spun, g2, 9.0, 9.0, self.band)
        assert np.allclose(t1.data, t2.data, rtol=1e-9, atol=1e-18)

    def test_monostatic_diagonal_matches_backscatter(self):
        rng = np.random.default_rng(5)
        offsets = rng.normal(scale=0.15, size=(4, 3))
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        target = RigidTarget(
            [PointScatterer(o, a) for o, a in zip(offsets, amps)],
            Trajectory.from_waypoints([(0.0, (0, 0, 0))]),
        )
        d = 12.0
        az = np.array([0.0, 30.0, 75.0, 160.0])
        tensor = reflectivity_scan(target, small_grid(az, 0, az, 0), d, d, self.band)
        freqs = self.band.frequencies()
        for i, a in enumerate(az):
            u = direction_from_angles(a, 0.0)
            p = d * u
            # classical monostatic backscatter of the same cloud, de-embedded
            h = np.zeros(len(freqs), dtype=complex)
            for o, s in zip(offsets, amps):
                r = np.linalg.norm(p - o)
                lamf = C0 / freqs
                h += s * lamf / (FOUR_PI * r * r) * np.exp(
                    -2j * np.pi * freqs * (2 * r - 2 * d) / C0
                )
            oracle = np.fft.fftshift(np.fft.ifft(h))
            assert np.allclose(tensor.data[i, 0, i, 0, :, 0, 0], oracle, rtol=1e-9, atol=1e-18)

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            reflectivity_scan(centered_scatterer(), {"az_tx": []}, 8.0, 8.0, self.band)

    def test_antenna_inside_target_rejected(self):
        big = RigidTarget(
            [PointScatterer([5.0, 0, 0], 0.05)],
            Trajectory.from_waypoints([(0.0, (0, 0, 0))]),
        )
        with pytest.raises(ConfigError):
            reflectivity_scan(big, small_grid(0, 0, 0, 0), 2.0, 8.0, self.band)


class TestFlyoverScan:
    band = FrequencyBand(2e9, 18e9, 512)

    def test_center_point_flat_trace(self):
        fly = flyover_scan(centered_scatterer(), 0.0, (10, 180, 10), 10.0, 10.0, self.band)
        peak_bins = np.argmax(np.abs(fly.data), axis=1)
        zero_bin = int(np.argmin(np.abs(fly.delay_s)))
        assert np.all(peak_bins == zero_bin)

    def test_extended_target_spread_shrinks(self):
        target = RigidTarget(
            [PointScatterer([0.15, 0, 0], 0.05), PointScatterer([-0.15, 0, 0], 0.05)],
            Trajectory.from_waypoints([(0.0, (0, 0, 0))]),
        )
        fly = flyover_scan(target, 0.0, (10, 170, 20), 10.0, 10.0, self.band,
                           sweep_window="hann")

        def spread(row):
            p = np.abs(row) ** 2
            sel = p >= p.max() * 1e-2
            return fly.delay_s[sel].max() - fly.delay_s[sel].min()

        s10 = spread(fly.data[0])
        s170 = spread(fly.data[-1])
        assert s170 < 0.5 * s10
        assert s10 <= 2.2e-9  # a 30 cm pair stays at the 2 ns gate scale

    def test_sweep_validation(self):
        with pytest.raises(ConfigError):
            flyover_scan(centered_scatterer(), 0.0, (10, 5, 10), 10.0, 10.0, self.band)
