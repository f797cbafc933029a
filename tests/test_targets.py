import ast
import textwrap
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from conftest import FULL_SCENE, first_link_paths
from scipy.signal import get_window

import bisim
from bisim import targets
from bisim.channel import _SLAB_ELEMENTS, WaveformConfig, synth_cfr
from bisim.config import parse_config
from bisim.errors import ConfigError
from bisim.geometry import C0, NodePose, Trajectory, direction_from_angles, pose_at, vec3
from bisim.pipeline import run
from bisim.scene import SceneConfig, SceneNode, link_callback
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


class TestTargetPose:
    def test_rotor_pose_is_the_hub_at_rest(self):
        rotor = make_rotor()
        for t in (0.0, 0.37, np.linspace(0.0, 1.0, 4)):
            pose = rotor.pose(t)
            assert np.array_equal(pose.position, rotor.hub_offset)
            assert np.array_equal(pose.velocity, np.zeros(3))

    def test_rigid_pose_is_its_track(self):
        target = single_point_target(track=((0.0, (50, 40, 0)), (1.0, (58, 34, 1)), (2.0, (60, 30, 1))))
        for t in (-1.0, 0.25, 1.0, np.array([0.1, 1.5, 3.0])):
            pose, track = target.pose(t), pose_at(target.trajectory, t)
            assert np.array_equal(pose.position, track.position)
            assert np.array_equal(pose.velocity, track.velocity)

    def test_track_yaw_is_the_heading_of_the_track_velocity(self):
        # segments: moving, at rest, moving back, straight up; times before, on, between and after waypoints
        track = ((0.0, (50, 40, 0)), (1.0, (58, 34, 1)), (2.0, (58, 34, 1)), (3.0, (52, 34.5, 0)),
                 (3.5, (52, 34.5, 2)), (4.0, (53, 30, 2)))
        target = RigidTarget([PointScatterer([0.3, 0.1, 0], 0.05), PointScatterer([-0.2, 0, 0.1], 0.03j)],
                             Trajectory.from_waypoints(track), yaw="track")
        t = np.array([-1.0, 0.0, 0.4, 1.0, 1.5, 2.0, 2.7, 3.0, 3.2, 3.5, 3.9, 4.0, 9.0])
        for at in (t, t[1:].reshape(3, 4), *t):
            with mock.patch.object(targets, "pose_at", side_effect=AssertionError("pose_at called")):
                rot = target.rotation(at)
            # the rotation as it was made from the track velocity, and the world states it gave
            pose, body = target.pose(at), target.body
            vx, vy = pose.velocity[..., 0], pose.velocity[..., 1]
            yaw = np.where(np.hypot(vx, vy) < 1e-12, 0.0, np.arctan2(vy, vx))
            c, s, zero, one = np.cos(yaw), np.sin(yaw), np.zeros(np.shape(yaw)), np.ones(np.shape(yaw))
            want = np.stack([c, -s, zero, s, c, zero, zero, zero, one], -1).reshape(*np.shape(yaw), 3, 3)
            assert np.array_equal(rot, want)
            r = want[..., None, :, :]
            turn = lambda v: r[..., 0] * v[..., 0:1] + r[..., 1] * v[..., 1:2] + r[..., 2] * v[..., 2:3]
            world = targets.states(target, at, doppler=True)
            assert np.array_equal(world.positions, pose.position[..., None, :] + turn(body.positions))
            assert np.array_equal(world.velocities, pose.velocity[..., None, :] + turn(body.velocities))
        a, b, c = np.arctan2(-6, 8), np.arctan2(0.5, -6), np.arctan2(-9, 2)
        rot = target.rotation(t)
        assert np.allclose(np.arctan2(rot[:, 1, 0], rot[:, 0, 0]), [0, a, a, 0, 0, b, b, 0, 0, c, c, 0, 0],
                           rtol=0, atol=1e-15)


class Forwarding:
    """A target of no bisim class: it forwards the four interface members to another."""

    def __init__(self, inner):
        self.inner, self.name = inner, inner.name

    def pose(self, t):
        return self.inner.pose(t)

    def rotation(self, t):
        return self.inner.rotation(t)

    @property
    def body(self):
        return self.inner.body


class TestTargetInterface:
    """Scenes and scans reach a target only through name, pose(t), rotation(t) and body."""

    def target(self):
        jones = np.array([[1.0, 0.2j], [-0.1, 0.7 + 0.1j]])
        track = [(0.0, (40, 30, 0)), (0.5, (44, 27, 0.5)), (1.0, (49, 27, 1))]
        return RigidTarget([PointScatterer([0.3, 0.1, 0], 0.05, jones), PointScatterer([-0.2, 0, 0.1], 0.03j)],
                           Trajectory.from_waypoints(track), yaw="track", name="car")

    def scene(self, target):
        rx_track = Trajectory.from_waypoints([(0.0, (90, 0, 0)), (1.0, (90, 6, 0))])
        return SceneConfig([SceneNode("tx0", NodePose(vec3(0, 0, 0)))], [SceneNode("rx0", rx_track)],
                           [target], clutter=[PointScatterer(vec3(20, -30, 0), 1.0)], wavelength=LAM)

    @staticmethod
    def assert_same_table(a, b):
        for field in ("delay", "gain", "doppler"):
            x, y = getattr(a, field), getattr(b, field)
            assert (x is None and y is None) or np.array_equal(x, y), field

    def test_link_paths_are_bit_identical(self):
        target = self.target()
        wrapped, plain = self.scene(Forwarding(target)), self.scene(target)
        assert wrapped.target("car").inner is target
        times = np.linspace(0.2, 0.7, 9)
        self.assert_same_table(first_link_paths(wrapped, times), first_link_paths(plain, times))
        self.assert_same_table(first_link_paths(wrapped, 0.3, doppler=True),
                               first_link_paths(plain, 0.3, doppler=True))

    def test_scans_are_bit_identical(self):
        target = self.target()
        band = FrequencyBand(3.6e9, 3.8e9, 16)
        grid = small_grid([0, 90], [0, 20], [0, 60, 180], [-10, 0])
        a = reflectivity_scan(Forwarding(target), grid, 8.0, 9.0, band)
        b = reflectivity_scan(target, grid, 8.0, 9.0, band)
        assert np.array_equal(a.data, b.data)
        a = flyover_scan(Forwarding(target), 0.0, (10, 180, 17), 8.0, 9.0, band)
        b = flyover_scan(target, 0.0, (10, 180, 17), 8.0, 9.0, band)
        assert np.array_equal(a.data, b.data)

    def test_rigid_body_is_the_cloud_at_rest(self):
        target = self.target()
        body = target.body
        assert np.array_equal(body.positions, np.stack([s.position for s in target.scatterers]))
        assert np.array_equal(body.velocities, np.zeros((2, 3)))

    @pytest.mark.parametrize("kind", ["rigid", "rotor"])
    def test_states_are_pose_plus_rotated_body(self, kind):
        target = self.target() if kind == "rigid" else make_rotor(samples=8)
        for t in (0.0, 0.37, np.linspace(0.0, 0.9, 3)):
            pose, rot, body = target.pose(t), target.rotation(t), target.body
            world = targets.states(target, t, doppler=True)
            rot = np.eye(3) if rot is None else rot
            turn = lambda v: np.einsum("...ij,...nj->...ni", np.broadcast_to(rot, (*np.shape(t), 3, 3)), v)
            assert np.allclose(world.positions, pose.position[..., None, :] + turn(body.positions), rtol=0, atol=1e-12)
            assert np.allclose(world.velocities, pose.velocity[..., None, :] + turn(body.velocities), rtol=0,
                               atol=1e-9)
            assert np.array_equal(world.amplitudes, body.amplitudes) and np.array_equal(world.jones, body.jones)


def test_no_module_branches_on_target_class():
    """No isinstance call in src/bisim names RigidTarget or Rotor: code reaches a target
    only through name, pose(t), rotation(t) and body."""
    found = []
    for path in sorted(Path(bisim.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
                names = {getattr(n, "id", getattr(n, "attr", None)) for arg in node.args[1:] for n in ast.walk(arg)}
                if names & {"RigidTarget", "Rotor"}:
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, found


class TestScattererStates:
    def test_rotor_periodicity(self):
        rotor = make_rotor()
        period = 2 * np.pi / rotor.rate
        a = targets.states(rotor, 0.37, doppler=True)
        b = targets.states(rotor, 0.37 + period, doppler=True)
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
        states = targets.states(rotor, np.linspace(0.0, 0.01, 5))
        assert np.allclose((states.positions - rotor.hub_offset) @ rotor.axis, 0.0, atol=1e-12)

    def test_rotor_tip_speed(self):
        rotor = make_rotor()
        states = targets.states(rotor, 0.123, doppler=True)
        speeds = np.linalg.norm(states.velocities, axis=1)
        assert speeds.max() == pytest.approx(rotor.rate * rotor.blade_radius, rel=1e-12)
        # speed grows linearly along the blade
        radii = np.linalg.norm(states.positions - rotor.hub_offset, axis=1)
        assert np.allclose(speeds, rotor.rate * radii, rtol=1e-9)

    def test_rotor_velocity_perpendicular(self):
        rotor = make_rotor()
        states = targets.states(rotor, 0.05, doppler=True)
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
        states = targets.states(target, 1.0, doppler=True)
        assert np.allclose(states.velocities, [10, 5, 0])

    def test_rotor_sampling_check(self):
        rotor = make_rotor(samples=32)
        assert rotor.sampling_ok(LAM)  # 3.75 mm spacing < 20 mm
        coarse = make_rotor(samples=2)
        assert not coarse.sampling_ok(LAM)


class TestRigidBody:
    """Every target is a rigid body: its body is built once, motion lives in pose(t) and rotation(t)."""

    def rigid(self):
        return RigidTarget([PointScatterer([0.3, 0.1, 0], 0.05), PointScatterer([-0.2, 0, 0.1], 0.03j)],
                           Trajectory.from_waypoints([(0.0, (40, 30, 0)), (1.0, (44, 27, 1))]), yaw="track")

    @pytest.mark.parametrize("axis", [(0, 0, 1), (1, 0, 0), (1, 1, 2)])
    def test_rotor_rotation_turns_the_blades_about_the_axis(self, axis):
        rotor = Rotor(vec3(0.1, -0.05, 0.02), vec3(*axis) / np.linalg.norm(axis), blade_radius=0.3, rate=40.0,
                      n_blades=3, samples_per_blade=8, phase0=0.3)
        assert np.allclose(rotor.rotation(0.0), np.eye(3), rtol=0, atol=1e-15)
        period = 2 * np.pi / rotor.rate
        t = np.array([0.0, 0.013, 0.37, 2.9])
        rot = rotor.rotation(t)
        assert np.allclose(rot @ np.swapaxes(rot, -1, -2), np.eye(3), rtol=0, atol=1e-15)
        assert np.allclose(np.linalg.det(rot), 1.0, rtol=0, atol=1e-15)
        assert np.allclose(rot @ rotor.axis, rotor.axis, rtol=0, atol=1e-15)
        assert np.allclose(rotor.rotation(t + period), rot, rtol=0, atol=1e-12)
        for at in t:
            assert np.allclose(targets.states(rotor, at).positions, rotor_samples(rotor, at), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["rigid", "rotor"])
    def test_body_is_built_once_and_velocities_only_for_doppler(self, kind):
        target = self.rigid() if kind == "rigid" else make_rotor(samples=8)
        assert target.body is target.body
        for t in (0.4, np.linspace(0.0, 0.9, 3)):
            assert targets.states(target, t).velocities is None
            assert targets.states(target, t, doppler=False).velocities is None
            assert targets.states(target, t, doppler=True).velocities.shape == (*np.shape(t), len(target.body), 3)


class TestTargetPaths:
    def test_amplitude_matches_radar_equation(self):
        # single scatterer equidistant from both antennas
        d = 80.0
        tx = NodePose(vec3(-d, 0, 0))
        rx = NodePose(vec3(d, 0, 0))
        s = 0.05
        target = single_point_target(s, track=((0.0, (0, 0, 0)),))
        paths = target_paths(target, tx, rx, 0.0, LAM)
        assert len(paths) == 1
        gain = paths.gain[0]
        assert abs(gain) == pytest.approx(s * LAM / (FOUR_PI * d * d), rel=1e-12)
        # and the gain squared is the radar equation with sigma = 4*pi*s^2
        sigma = equivalent_rcs(s)
        expected_power = LAM**2 * sigma / (FOUR_PI**3 * d**2 * d**2)
        assert abs(gain) ** 2 == pytest.approx(expected_power, rel=1e-12)

    def test_distance_doubling_drops_12db(self):
        tx = NodePose(vec3(-60, 0, 0))
        rx = NodePose(vec3(60, 0, 0))
        near = target_paths(single_point_target(track=((0, (0, 25, 0)),)), tx, rx, 0.0, LAM).gain[0]
        tx2 = NodePose(vec3(-120, 0, 0))
        rx2 = NodePose(vec3(120, 0, 0))
        far = target_paths(single_point_target(track=((0, (0, 50, 0)),)), tx2, rx2, 0.0, LAM).gain[0]
        drop = 20 * np.log10(abs(near) / abs(far))
        assert drop == pytest.approx(20 * np.log10(4), rel=1e-9)

    def test_drone_sized_target_within_2ns(self):
        # two scatterers 0.3 m apart along the bistatic bisector
        tx = NodePose(vec3(-100, 0, 0))
        rx = NodePose(vec3(100, 0, 0))
        target = RigidTarget(
            [PointScatterer([0, 0.15, 0], 0.05), PointScatterer([0, -0.15, 0], 0.05)],
            Trajectory.from_waypoints([(0.0, (0, 60, 0))]),
        )
        paths = target_paths(target, tx, rx, 0.0, LAM)
        spread = paths.delay.max() - paths.delay.min()
        assert spread <= 2e-9

    def test_doppler_from_scatterer_velocity(self):
        rotor = make_rotor()
        tx = NodePose(vec3(-50, 0, 0))
        rx = NodePose(vec3(50, 0, 0))
        paths = target_paths(rotor, tx, rx, 0.0, LAM, doppler=True)
        tip_speed = rotor.rate * rotor.blade_radius
        bound = 2 * tip_speed / LAM  # loosest possible bistatic bound
        assert np.all(np.abs(paths.doppler) <= bound * (1 + 1e-9))
        assert np.any(np.abs(paths.doppler) > 0)


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
        paths = target_paths(target, tx, rx, 0.0, LAM, doppler=True)
        w = WaveformConfig(C0 / LAM, 20e6, 32, 16)
        cube = synth_cfr(paths, w)
        power_db = 10 * np.log10(np.mean(np.abs(cube.data) ** 2))
        budget = LinkBudget(0.0, 0.0, 0.0, LAM, d_tx, d_rx, equivalent_rcs(s))
        expected = link_budget(budget)["received_power_dbm"]
        assert abs(power_db - expected) <= 0.01

    def test_bad_distance_rejected(self):
        with pytest.raises(ConfigError):
            LinkBudget(0.0, 0.0, 0.0, LAM, -1.0, 10.0, 1.0)

    def test_zero_rcs_rejected(self):
        with pytest.raises(ConfigError, match="RCS"):
            LinkBudget(0.0, 0.0, 0.0, LAM, 10.0, 10.0, 0.0)

    def test_extreme_but_valid_inputs_give_finite_power(self):
        # λ²σ/((4π)³ d_tx² d_rx²) under- or overflows as a product here
        for d_tx, rcs in ((150.0, 5e-324), (1e200, 1.0)):
            out = link_budget(LinkBudget(30.0, 0.0, 0.0, LAM, d_tx, 120.0, rcs))
            expected = 30.0 + 20 * np.log10(LAM) + 10 * np.log10(rcs) - 30 * np.log10(4 * np.pi) \
                - 20 * np.log10(d_tx) - 20 * np.log10(120.0)
            assert out["received_power_dbm"] == pytest.approx(expected, abs=1e-9)


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

    def test_rotor_scan_centres_on_its_hub(self):
        # 1 m antenna radii: inside 8 m of the origin, outside the 0.12 m blades about the hub
        make = lambda hub: Rotor(vec3(*hub), vec3(0, 0, 1), blade_radius=0.12, rate=625.0, samples_per_blade=16)
        grid = small_grid([0, 90], [0, 20], [0, 60, 180], [-10, 0])
        a, b = (reflectivity_scan(make(hub), grid, 1.0, 1.0, self.band).data for hub in ((0, 8, 0), (0, 0, 0)))
        assert np.array_equal(a, b)
        a, b = (flyover_scan(make(hub), 0.0, (10, 180, 17), 1.0, 1.5, self.band).data
                for hub in ((0, 8, 0), (0, 0, 0)))
        assert np.array_equal(a, b)

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            reflectivity_scan(centered_scatterer(), {"az_tx": []}, 8.0, 8.0, self.band)

    def test_decreasing_axis_rejected_before_the_scan(self):
        big = RigidTarget([PointScatterer([5.0, 0, 0], 0.05)], Trajectory.from_waypoints([(0.0, (0, 0, 0))]))
        # antennas inside the target fail the scan set-up, so the axis check must come first
        with pytest.raises(ConfigError, match="'az_rx' must be strictly increasing"):
            reflectivity_scan(big, small_grid(0, 0, [90, 0], 0), 2.0, 2.0, self.band)

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


def direction(az_deg, el_deg):
    az, el = np.deg2rad(az_deg), np.deg2rad(el_deg)
    return np.array([np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)])


def oracle_profile(positions, amps, jones, u_tx, u_rx, d_tx, d_rx, band, taper):
    """(n_freq, 2, 2) delay profile at one direction pair, one scatterer at a time."""
    freqs = np.linspace(band.f_lo, band.f_hi, band.n_points)
    h = np.zeros((band.n_points, 2, 2), dtype=complex)
    for p, s, j in zip(positions, amps, jones):
        r1, r2 = np.linalg.norm(p - d_tx * u_tx), np.linalg.norm(p - d_rx * u_rx)
        h += (s * (C0 / freqs) / (4 * np.pi * r1 * r2)
              * np.exp(-2j * np.pi * freqs * (r1 + r2 - d_tx - d_rx) / C0))[:, None, None] * j
    h *= (taper / taper.mean())[:, None, None]
    return np.fft.fftshift(np.fft.ifft(h, axis=0), axes=0)


def jones_cloud(n=5, seed=41):
    """Rigid cloud whose scatterers have distinct, non-symmetric Jones matrices."""
    rng = np.random.default_rng(seed)
    offsets = rng.uniform(-0.4, 0.4, size=(n, 3))
    amps = rng.normal(size=n) + 1j * rng.normal(size=n)
    jones = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
    target = RigidTarget([PointScatterer(o, a, j) for o, a, j in zip(offsets, amps, jones)],
                         Trajectory.from_waypoints([(0.0, (0, 0, 0))]))
    return target, offsets, amps, jones


def rotor_samples(rotor, t):
    """World positions of the blade samples, from the rotor's own (e1, e2) plane."""
    e1, e2 = rotor.basis
    pos = []
    for b in range(rotor.n_blades):
        phi = rotor.phase0 + rotor.rate * t + 2 * np.pi * b / rotor.n_blades
        for i in range(1, rotor.samples_per_blade + 1):
            r = rotor.blade_radius * i / rotor.samples_per_blade
            pos.append(rotor.hub_offset + r * (np.cos(phi) * e1 + np.sin(phi) * e2))
    return np.array(pos)


def jones_columns(jones):
    """Distinct HH/HV/VH/VV columns of (N, 2, 2) Jones matrices with a nonzero entry."""
    return len({tuple(c) for c in np.reshape(jones, (-1, 4)).T if np.any(c != 0)})


def scan_blocks(n_tx, n_scat, n_freq, n_cols):
    """(Tx, Rx) block sizes of a reflectivity scan, Tx blocks outside: each Tx
    block's ramps folded with the n_cols Jones columns, each Rx block's ramps,
    and their per-frequency product each fill at most one slab."""
    width = max(n_cols, 1)
    tx = max(1, min(n_tx, _SLAB_ELEMENTS // (width * n_scat * n_freq)))
    rx = max(1, min(_SLAB_ELEMENTS // (n_scat * n_freq), _SLAB_ELEMENTS // (tx * width * n_freq)))
    return tx, rx


def spans_partial_blocks(n, block):
    return n > block and n % block != 0


def scan_oracle(pos, amps, jones, grid, d_tx, d_rx, band, taper):
    """Reflectivity tensor data from oracle_profile, one direction pair at a time."""
    shape = tuple(len(grid[k]) for k in ("az_tx", "el_tx", "az_rx", "el_rx"))
    oracle = np.empty(shape + (band.n_points, 2, 2), dtype=complex)
    for i, k, l, m in np.ndindex(shape):
        oracle[i, k, l, m] = oracle_profile(pos, amps, jones, direction(grid["az_tx"][i], grid["el_tx"][k]),
                                            direction(grid["az_rx"][l], grid["el_rx"][m]),
                                            d_tx, d_rx, band, taper)
    return oracle


class TestBlockedScan:
    def test_reflectivity_matches_per_point_oracle(self):
        cloud, offsets, amps, jones = jones_cloud(n=12)
        rotor = Rotor(vec3(0.1, -0.05, 0.02), np.array([1.0, 1.0, 2.0]) / np.sqrt(6.0),
                      blade_radius=0.3, rate=40.0, n_blades=2, samples_per_blade=16,
                      sample_amplitude=0.01 + 0.004j, phase0=0.3)
        cases = [
            (cloud, offsets, amps, jones, "hann",
             small_grid([0, 40, 95, 150, 200, 260, 330], [-10, 5, 30], np.arange(11) * 31.0,
                        [0, 8, 16, 24, 40])),
            (rotor, rotor_samples(rotor, 0.0) - rotor.hub_offset, np.full(32, rotor.sample_amplitude),
             np.broadcast_to(np.eye(2), (32, 2, 2)), "none",
             small_grid([0, 70, 140, 210, 280], [0, 25, 50, 70], np.arange(13) * 27.0, [-5, 12])),
        ]
        band = FrequencyBand(3e9, 5e9, 128)
        d_tx, d_rx = 6.0, 9.0
        for target, pos, s, j, window, grid in cases:
            n_tx, n_rx = len(grid["az_tx"]) * len(grid["el_tx"]), len(grid["az_rx"]) * len(grid["el_rx"])
            tx_block, rx_block = scan_blocks(n_tx, len(s), band.n_points, jones_columns(j))
            assert spans_partial_blocks(n_tx, tx_block) and spans_partial_blocks(n_rx, rx_block)
            tensor = reflectivity_scan(target, grid, d_tx, d_rx, band, sweep_window=window)
            taper = get_window(window, band.n_points, fftbins=False) if window != "none" \
                else np.ones(band.n_points)
            oracle = scan_oracle(pos, s, j, grid, d_tx, d_rx, band, taper)
            assert np.max(np.abs(tensor.data - oracle)) <= 1e-9 * np.max(np.abs(oracle))

    # Jones structures the scan folds into fewer than four columns. The grid has 27 Tx and
    # 14 Rx directions, so with 10 scatterers at 256 frequencies it spans partial Tx and Rx
    # blocks for 1, 2 and 3 columns.
    JONES_GRID = small_grid(np.arange(9) * 40.0, [-10, 5, 30], np.arange(7) * 50.0, [0, 20])
    JONES_BAND = FrequencyBand(3e9, 5e9, 256)

    def scan_jones(self, jones):
        """Scan of a 10-scatterer cloud with the given Jones matrices, checked against the oracle."""
        rng = np.random.default_rng(43)
        offsets = rng.uniform(-0.4, 0.4, size=(10, 3))
        amps = rng.normal(size=10) + 1j * rng.normal(size=10)
        target = RigidTarget([PointScatterer(o, a, j) for o, a, j in zip(offsets, amps, jones)],
                             Trajectory.from_waypoints([(0.0, (0, 0, 0))]))
        grid, band = self.JONES_GRID, self.JONES_BAND
        n_tx, n_rx = len(grid["az_tx"]) * len(grid["el_tx"]), len(grid["az_rx"]) * len(grid["el_rx"])
        tx_block, rx_block = scan_blocks(n_tx, 10, band.n_points, jones_columns(jones))
        assert spans_partial_blocks(n_tx, tx_block) and spans_partial_blocks(n_rx, rx_block)
        tensor = reflectivity_scan(target, grid, 6.0, 9.0, band)
        oracle = scan_oracle(offsets, amps, jones, grid, 6.0, 9.0, band, np.ones(band.n_points))
        assert np.max(np.abs(tensor.data - oracle)) <= 1e-9 * np.max(np.abs(oracle))
        return tensor

    def test_identity_and_diagonal_scatterers(self):
        jones = np.array([np.eye(2) if n % 3 else np.diag([1.0, 0.5]) for n in range(10)], dtype=complex)
        assert jones_columns(jones) == 2
        self.scan_jones(jones)

    def test_duplicate_nonzero_column(self):
        jones = np.random.default_rng(44).normal(size=(10, 2, 2)) + 1j
        jones[:, 0, 1] = jones[:, 0, 0]   # HV column equals HH column
        assert jones_columns(jones) == 3
        tensor = self.scan_jones(jones)
        assert np.array_equal(tensor.data[..., 0, 1], tensor.data[..., 0, 0])

    def test_one_zero_jones_among_identity(self):
        jones = np.array([np.eye(2)] * 10, dtype=complex)
        jones[4] = 0.0
        assert jones_columns(jones) == 1
        self.scan_jones(jones)

    def test_all_zero_jones_gives_zero_tensor(self):
        tensor = self.scan_jones(np.zeros((10, 2, 2), dtype=complex))
        assert tensor.data.shape == (9, 3, 7, 2, self.JONES_BAND.n_points, 2, 2)
        assert not np.any(tensor.data)

    def test_identity_cloud_copies_hh_to_vv_and_zeroes_cross_pol(self):
        tensor = self.scan_jones(np.array([np.eye(2)] * 10, dtype=complex))
        assert tensor.data[..., 0, 0].tobytes() == tensor.data[..., 1, 1].tobytes()
        cross = tensor.data[..., [0, 1], [1, 0]]                        # HV and VH
        assert np.all(cross == 0)
        assert not np.any(np.signbit(cross.real) | np.signbit(cross.imag))   # +0.0: never computed

    def test_flyover_matches_per_point_oracle(self):
        cloud, offsets, amps, jones = jones_cloud()
        band = FrequencyBand(2e9, 18e9, 512)
        fly = flyover_scan(cloud, 20.0, (10, 178, 3), 6.0, 9.0, band, elevation_deg=7.0,
                           sweep_window="hann")
        assert spans_partial_blocks(len(fly.angles_deg), _SLAB_ELEMENTS // (len(amps) * band.n_points))
        taper = get_window("hann", band.n_points, fftbins=False)
        oracle = np.array([
            oracle_profile(offsets, amps, jones, direction(20.0, 7.0), direction(20.0 + a, 7.0),
                           6.0, 9.0, band, taper)[:, 0, 0]
            for a in fly.angles_deg])
        assert np.max(np.abs(fly.data - oracle)) <= 1e-9 * np.max(np.abs(oracle))

    def test_cross_pol_channels_follow_jones_entries(self):
        jones = np.array([[1.0 + 0.5j, -0.3 + 0.2j], [0.7 - 0.1j, -0.4j]])
        target = RigidTarget([PointScatterer([0.2, -0.1, 0.05], 0.05, jones)],
                             Trajectory.from_waypoints([(0.0, (0, 0, 0))]))
        tensor = reflectivity_scan(target, small_grid([0, 60], 10, [30, 120, 200], 0), 7.0, 7.0,
                                   FrequencyBand(3e9, 4e9, 16))
        hh = tensor.data[..., 0, 0]
        for p, q in np.ndindex(2, 2):
            assert np.allclose(tensor.data[..., p, q], jones[p, q] / jones[0, 0] * hh,
                               rtol=1e-12, atol=0.0)

    def test_memory_stays_bounded(self):
        rotor = Rotor(vec3(0, 0, 0), vec3(0, 0, 1), blade_radius=0.5, rate=10.0,
                      n_blades=4, samples_per_blade=256)
        band = FrequencyBand(3e9, 4e9, 16)
        angles = np.arange(16) * 22.5
        grid = small_grid(angles, [0, 10, 20, 30], angles, [0, 10, 20, 30])
        n_scat = rotor.n_blades * rotor.samples_per_blade
        assert 16 * 4 * 16 * 4 * n_scat * band.n_points * 16 >= 1e9   # unblocked slab, bytes
        tracemalloc.start()
        try:
            tensor = reflectivity_scan(rotor, grid, 5.0, 5.0, band)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < tensor.data.nbytes + 32e6
        assert np.all(np.isfinite(tensor.data)) and np.any(tensor.data != 0)

    def test_benchmark_car_scan_transient_stays_small(self, bench_workloads):
        cfg = parse_config(bench_workloads.make_inputs("angle_sweeps", 1)[0])
        job = cfg.reflectivity
        target = cfg.scene.target(job.target)
        tracemalloc.start()
        try:
            tensor = reflectivity_scan(target, job.grid, job.d_tx, job.d_rx, job.band,
                                       sweep_window=job.sweep_window)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tensor.data.nbytes > 28e6
        assert peak - tensor.data.nbytes <= 4e6

    def test_benchmark_car_flyover_transient_stays_small(self, bench_workloads):
        cfg = parse_config(bench_workloads.make_inputs("angle_sweeps", 1)[0])
        job = cfg.flyover
        target = cfg.scene.target(job.target)
        tracemalloc.start()
        try:
            fly = flyover_scan(target, job.fixed_angle_deg, (job.start_deg, job.stop_deg, job.step_deg),
                               job.d_tx, job.d_rx, job.band, elevation_deg=job.elevation_deg,
                               sweep_window=job.sweep_window)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert fly.data.nbytes > 5e6
        assert peak - fly.data.nbytes <= 2e6

    def test_reflectivity_archive_same_for_any_thread_count(self, tmp_path):
        doc = yaml.safe_load(textwrap.dedent(FULL_SCENE))
        doc["reflectivity"].update(az_rx={"start": 0, "stop": 350, "n": 35}, el_rx=[0, 10, 20],
                                   band={"f_lo": 3.6e9, "f_hi": 3.8e9, "n_points": 2048})
        assert spans_partial_blocks(35 * 3, scan_blocks(2, 1, 2048, 1)[1])   # 7 Rx blocks to spread
        blobs = []
        for threads in (1, 4):
            run("reflectivity", parse_config(doc), out_dir=tmp_path / f"t{threads}", threads=threads)
            blobs.append((tmp_path / f"t{threads}" / "reflectivity.bisim").read_bytes())
        assert blobs[0] == blobs[1]


class TestSynthesisMatchesScan:
    """Geometric synthesis and the reflectivity scan sum the same two-hop scatterer
    responses. At symbol m, H[m, k] exp(+j2π f_k τ0) λ_k/λ_c, τ0 = (d_tx + d_rx)/c,
    is the untapered scan sweep at that symbol's body-frame antenna directions and
    radii, over the subcarrier frequencies f_k = f_c + kΔf."""

    waveform = WaveformConfig(3.7e9, 40e6, 64, 96)
    tx, rx = vec3(-4.0, 3.0, 1.0), vec3(3.0, 5.0, -0.5)

    def target(self, kind):
        if kind == "rotor":
            return Rotor(vec3(0.1, -0.05, 0.02), np.array([1.0, 1.0, 2.0]) / np.sqrt(6.0),
                         blade_radius=0.3, rate=600.0, samples_per_blade=12,
                         sample_amplitude=0.01 + 0.004j, phase0=0.3)
        rng = np.random.default_rng(17)
        offsets, amps = rng.uniform(-0.4, 0.4, (6, 3)), rng.normal(size=6) + 1j * rng.normal(size=6)
        # the heading turns between symbols 37 and 95
        track = [(0.0, (0, 0, 0)), (8e-5, (0.02, 0.01, 0)), (1e-3, (0.05, 0.3, 0.01))]
        return RigidTarget([PointScatterer(o, a) for o, a in zip(offsets, amps)],
                           Trajectory.from_waypoints(track), yaw="track")

    def to_body(self, target, t, p):
        """World point p in the scan frame of the target at time t: rotation(t)ᵀ(p − pose(t))."""
        rot, e = target.rotation(t), p - target.pose(t).position
        return e if rot is None else rot.T @ e

    @pytest.mark.parametrize("kind", ["rigid", "rotor"])
    def test_cfr_rows_equal_scan_sweeps(self, kind):
        w, target = self.waveform, self.target(kind)
        scene = SceneConfig([SceneNode("tx0", NodePose(self.tx))], [SceneNode("rx0", NodePose(self.rx))],
                            [target], wavelength=w.wavelength, include_los=False)
        cube = synth_cfr(link_callback(scene, *scene.links()[0]), w)
        freqs = w.subcarrier_frequencies()
        band = FrequencyBand(freqs[0], freqs[-1], w.n_subcarriers)
        for m in (0, 37, 95):
            t = m * w.t_sym
            grid, radii = {}, []
            for side, p in (("tx", self.tx), ("rx", self.rx)):
                e = self.to_body(target, t, p)
                radii.append(float(np.linalg.norm(e)))
                grid[f"az_{side}"] = [np.degrees(np.arctan2(e[1], e[0]))]
                grid[f"el_{side}"] = [np.degrees(np.arcsin(e[2] / radii[-1]))]
            profile = reflectivity_scan(target, grid, *radii, band).data[0, 0, 0, 0, :, 0, 0]
            sweep = np.fft.fft(np.fft.ifftshift(profile))
            row = cube.data[m] * np.exp(2j * np.pi * freqs * sum(radii) / C0) * w.f_c / freqs
            assert np.max(np.abs(row - sweep)) <= 1e-12 * np.max(np.abs(sweep))
