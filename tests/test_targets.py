import ast
import itertools
import math
import re
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
from bisim.channel import _SLAB_ELEMENTS, WaveformConfig, first_order, synth_cfr
from bisim.config import parse_config
from bisim.errors import ConfigError
from bisim.geometry import C0, NodePose, Trajectory, direction_from_angles, pose_at, vec3
from bisim.pipeline import run
from bisim.scene import SceneConfig, SceneNode, link_callback
from bisim.targets import (
    FOUR_PI,
    FrequencyBand,
    LinkBudget,
    RigidTarget,
    cloud,
    equivalent_rcs,
    flyover_scan,
    link_budget,
    _scan_blocks,
    reflectivity_scan,
    stepped_axis,
    target_paths,
)

LAM = C0 / 3.7e9


def single_point_target(amplitude=0.05, track=((0.0, (50, 40, 0)),)):
    return RigidTarget(
        cloud([[0, 0, 0]], [amplitude]), Trajectory.from_waypoints(track)
    )


# blade parameters of make_rotor, which the oracles read
ROTOR = dict(hub=vec3(10, 0, 0), axis=vec3(0, 0, 1), radius=0.12, rate=625.0, blades=2, samples_per_blade=32,
             sample_amplitude=0.01)


def make_rotor(**changes):
    """targets.rotor of ROTOR's blade parameters, with changes."""
    return targets.rotor(**{**ROTOR, **changes})


def config_rotor(**changes):
    """The target that a `kind: rotor` entry of a config document builds from the same parameters."""
    entry = {"kind": "rotor"}
    for key, value in {**ROTOR, **changes}.items():
        value = [value.real, value.imag] if isinstance(value, complex) else np.asarray(value).tolist()
        entry["rate_rad_s" if key == "rate" else key] = value
    doc = yaml.safe_load(textwrap.dedent(FULL_SCENE))
    doc["scene"]["targets"] = [entry]
    del doc["reflectivity"], doc["flyover"]   # they scan the car, which this scene no longer has
    return parse_config(doc).scene.targets[0]


def rotor_samples(t, hub, axis, radius, rate, blades=2, samples_per_blade=32, phase0=0.0, **_):
    """World positions of the blade samples at time t, laid out from the blade parameters
    in the rotor plane (e1, e2), e1 x e2 = axis, with e1 ⟂ +z unless the axis is near it."""
    ref = np.array([1.0, 0, 0]) if abs(axis[2]) > 0.9 else np.array([0, 0, 1.0])
    e1 = np.cross(ref, axis) / np.linalg.norm(np.cross(ref, axis))
    e2 = np.cross(axis, e1)
    pos = []
    for b in range(blades):
        phi = phase0 + rate * t + 2 * np.pi * b / blades
        for i in range(1, samples_per_blade + 1):
            r = radius * i / samples_per_blade
            pos.append(hub + r * (np.cos(phi) * e1 + np.sin(phi) * e2))
    return np.array(pos)


class TestTargetPose:
    def test_rotor_pose_is_the_hub_at_rest(self):
        rotor = make_rotor()
        for t in (0.0, 0.37, np.linspace(0.0, 1.0, 4)):
            pose = rotor.pose(t)
            assert pose is rotor.pose(-1.0)   # one pose, made once
            assert np.array_equal(pose.position, ROTOR["hub"])
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
        target = RigidTarget(cloud([[0.3, 0.1, 0], [-0.2, 0, 0.1]], [0.05, 0.03j]),
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

    def test_yaw_rotation_is_the_explicit_z_turn(self):
        """A yaw turns through Spin's axis-angle formula about +z: in value, a float yaw's and a
        track yaw's rotation(t) are [[c, -s, 0], [s, c, 0], [0, 0, 1]] of the yaw's angle."""
        def z_turn(angle):
            c, s, zero, one = np.cos(angle), np.sin(angle), np.zeros_like(angle), np.ones_like(angle)
            return np.stack([c, -s, zero, s, c, zero, zero, zero, one], -1).reshape(*np.shape(angle), 3, 3)

        t = np.array([[-1.0, 0.0, 0.3], [1.0, 2.5, 4.0]])
        body = cloud([[0.3, 0.1, 0.0]], [0.05])
        for yaw in (0.0, -0.0, 0.3, -2.1, np.pi / 2, np.pi, 7.5, -1e-300):
            target = RigidTarget(body, Trajectory.from_waypoints([(0.0, (5, 4, 0))]), yaw=yaw)
            for at in (0.7, t):
                assert np.array_equal(target.rotation(at), z_turn(np.full(np.shape(at), yaw)))
        track = Trajectory.from_waypoints([(0.0, (0, 0, 0)), (1.0, (3, -4, 1)), (2.0, (3, -4, 2)), (3.0, (-5, 1, 2))])
        target = RigidTarget(body, track, yaw="track")
        # before and after the track, and on its vertical segment, the heading is 0
        heading = np.array([[0.0, np.arctan2(-4, 3), np.arctan2(-4, 3)], [0.0, np.arctan2(5, -8), 0.0]])
        assert np.array_equal(target.rotation(t), z_turn(heading))


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
        return RigidTarget(cloud([[0.3, 0.1, 0], [-0.2, 0, 0.1]], [0.05, 0.03j], [jones, np.eye(2)]),
                           Trajectory.from_waypoints(track), yaw="track", name="car")

    def scene(self, target):
        rx_track = Trajectory.from_waypoints([(0.0, (90, 0, 0)), (1.0, (90, 6, 0))])
        return SceneConfig([SceneNode("tx0", NodePose(vec3(0, 0, 0)))], [SceneNode("rx0", rx_track)],
                           [target], clutter=cloud([vec3(20, -30, 0)], [1.0]), wavelength=LAM)

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
        assert np.array_equal(a, b)
        angles = stepped_axis(10, 180, 17, "flyover sweep")
        a = flyover_scan(Forwarding(target), 0.0, angles, 8.0, 9.0, band)
        b = flyover_scan(target, 0.0, angles, 8.0, 9.0, band)
        assert np.array_equal(a, b)

    def test_rigid_body_is_the_cloud_at_rest(self):
        target = self.target()
        body = target.body
        assert np.array_equal(body.positions, [[0.3, 0.1, 0], [-0.2, 0, 0.1]])
        assert np.array_equal(body.velocities, np.zeros((2, 3)))

    @pytest.mark.parametrize("kind", ["rigid", "rotor"])
    def test_states_are_pose_plus_rotated_body(self, kind):
        target = self.target() if kind == "rigid" else make_rotor(samples_per_blade=8)
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
    """No isinstance call in src/bisim names RigidTarget, and targets.py defines no target
    class besides it: code reaches a target only through name, pose(t), rotation(t) and body."""
    found = []
    for path in sorted(Path(bisim.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
                names = {getattr(n, "id", getattr(n, "attr", None)) for arg in node.args[1:] for n in ast.walk(arg)}
                if "RigidTarget" in names:
                    found.append(f"{path.name}:{node.lineno}")
            if path.name == "targets.py" and isinstance(node, ast.ClassDef) and node.name != "RigidTarget":
                methods = {d.name for d in node.body if isinstance(d, ast.FunctionDef)}
                if methods & {"pose", "rotation"}:
                    found.append(f"{path.name}:{node.lineno} class {node.name}")
    assert not found, found


class TestCloud:
    def test_arrays_are_kept_and_the_jones_is_one_shared_identity(self):
        positions, amplitudes = np.arange(12.0).reshape(4, 3), np.full(4, 0.1 + 0.2j)
        c = cloud(positions, amplitudes)
        assert c.positions is positions and c.amplitudes is amplitudes and len(c) == 4
        assert np.array_equal(c.velocities, np.zeros((4, 3)))
        assert c.jones.strides[0] == 0 and not c.jones.flags.writeable
        assert np.array_equal(c.jones, np.broadcast_to(np.eye(2), (4, 2, 2)))
        assert len(cloud(np.empty((0, 3)), [])) == 0

    @pytest.mark.parametrize("field, index", [("position", 2), ("amplitude", 1), ("jones", 3)])
    def test_the_first_non_finite_scatterer_is_named(self, field, index):
        arrays = {"position": np.zeros((5, 3)), "amplitude": np.ones(5, dtype=complex),
                  "jones": np.tile(np.eye(2, dtype=complex), (5, 1, 1))}
        bad = arrays[field].reshape(5, -1)   # a view: the writes land in the array
        bad[4, 0], bad[index, -1] = np.nan, np.inf
        with pytest.raises(ConfigError, match=re.escape(f"scatterers[{index}].{field}:")):
            cloud(arrays["position"], arrays["amplitude"], arrays["jones"])

    @pytest.mark.parametrize("positions, amplitudes, jones", [
        (np.zeros((3, 2)), np.ones(3), None), (np.zeros((3, 3)), np.ones(2), None),
        (np.zeros((3, 3)), np.ones((3, 1)), None), (np.zeros((3, 3)), np.ones(3), np.ones((3, 2)))])
    def test_shapes_must_agree(self, positions, amplitudes, jones):
        with pytest.raises(ConfigError, match=re.escape("positions (N, 3), amplitudes (N,) and Jones (N, 2, 2)")):
            cloud(positions, amplitudes, jones)

    def test_a_spin_sets_the_body_velocities_once_and_leaves_the_cloud_at_rest(self):
        c = cloud([[0.3, 0.1, 0.0], [-0.2, 0.0, 0.1]], [0.05, 0.03j])
        target = RigidTarget(c, Trajectory.from_waypoints([(0.0, (0, 0, 0))]), spin=targets.Spin([0, 0, 1], 10.0))
        assert np.array_equal(c.velocities, np.zeros((2, 3)))
        assert np.array_equal(target.body.velocities, 10.0 * np.cross([0, 0, 1.0], c.positions))
        assert target.body.positions is c.positions and target.body.jones is c.jones


class TestScattererStates:
    def test_rotor_periodicity(self):
        rotor = make_rotor()
        period = 2 * np.pi / rotor.spin.rate
        a = targets.states(rotor, 0.37, doppler=True)
        b = targets.states(rotor, 0.37 + period, doppler=True)
        assert np.allclose(a.positions, b.positions, atol=1e-9)
        assert np.allclose(a.velocities, b.velocities, atol=1e-6)

    @pytest.mark.parametrize("axis", [(0, 0, 1), (1, 0, 0), (0.6, 0, 0.8)])
    def test_rotor_blades_stay_in_their_plane_through_the_hub(self, axis):
        rotor = make_rotor(axis=vec3(*axis))
        assert np.allclose(rotor.body.positions @ rotor.spin.axis, 0.0, atol=1e-12)
        states = targets.states(rotor, np.linspace(0.0, 0.01, 5))
        assert np.allclose((states.positions - ROTOR["hub"]) @ rotor.spin.axis, 0.0, atol=1e-12)

    def test_rotor_tip_speed(self):
        rotor = make_rotor()
        states = targets.states(rotor, 0.123, doppler=True)
        speeds = np.linalg.norm(states.velocities, axis=1)
        assert speeds.max() == pytest.approx(ROTOR["rate"] * ROTOR["radius"], rel=1e-12)
        # speed grows linearly along the blade
        radii = np.linalg.norm(states.positions - ROTOR["hub"], axis=1)
        assert np.allclose(speeds, ROTOR["rate"] * radii, rtol=1e-9)

    def test_rotor_velocity_perpendicular(self):
        rotor = make_rotor()
        states = targets.states(rotor, 0.05, doppler=True)
        arms = states.positions - ROTOR["hub"]
        dots_arm = np.abs(np.sum(states.velocities * arms, axis=1))
        dots_axis = np.abs(states.velocities @ ROTOR["axis"])
        assert dots_arm.max() < 1e-9
        assert dots_axis.max() < 1e-12

    def test_rigid_target_shares_track_velocity(self):
        target = RigidTarget(
            cloud([[0.2, 0, 0], [-0.2, 0.1, 0]], [0.1, 0.1]),
            Trajectory.from_waypoints([(0, (0, 0, 0)), (2, (20, 10, 0))]),
        )
        states = targets.states(target, 1.0, doppler=True)
        assert np.allclose(states.velocities, [10, 5, 0])


class TestRigidBody:
    """Every target is a rigid body: its body is built once, motion lives in pose(t) and rotation(t)."""

    def rigid(self):
        return RigidTarget(cloud([[0.3, 0.1, 0], [-0.2, 0, 0.1]], [0.05, 0.03j]),
                           Trajectory.from_waypoints([(0.0, (40, 30, 0)), (1.0, (44, 27, 1))]), yaw="track")

    @pytest.mark.parametrize("build", [make_rotor, config_rotor], ids=["python", "config"])
    @pytest.mark.parametrize("axis", [(0, 0, 1), (1, 0, 0), (1, 1, 2)])
    def test_rotor_rotation_turns_the_blades_about_the_axis(self, axis, build):
        blades = dict(hub=vec3(0.1, -0.05, 0.02), axis=vec3(*axis) / np.linalg.norm(axis), radius=0.3, rate=40.0,
                      blades=3, samples_per_blade=8, phase0=0.3)
        rotor = build(**blades)
        assert np.allclose(rotor.rotation(0.0), np.eye(3), rtol=0, atol=1e-15)
        period = 2 * np.pi / blades["rate"]
        t = np.array([0.0, 0.013, 0.37, 2.9])
        rot = rotor.rotation(t)
        assert np.allclose(rot @ np.swapaxes(rot, -1, -2), np.eye(3), rtol=0, atol=1e-15)
        assert np.allclose(np.linalg.det(rot), 1.0, rtol=0, atol=1e-15)
        assert np.allclose(rot @ blades["axis"], blades["axis"], rtol=0, atol=1e-15)
        assert np.allclose(rotor.rotation(t + period), rot, rtol=0, atol=1e-12)
        for at in t:
            assert np.allclose(targets.states(rotor, at).positions, rotor_samples(at, **blades), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("axis", [(0, 0, 1), (1, 1, 2)])
    def test_config_rotor_is_the_python_rotor(self, axis):
        blades = dict(axis=vec3(*axis) / np.linalg.norm(axis), sample_amplitude=0.01 + 0.004j, phase0=0.3)
        a, b = make_rotor(**blades), config_rotor(**blades)
        assert type(a) is type(b) is RigidTarget
        for field in ("positions", "velocities", "amplitudes", "jones"):
            assert np.array_equal(getattr(a.body, field), getattr(b.body, field)), field
        assert np.array_equal(a.spin.axis, b.spin.axis) and a.spin.rate == b.spin.rate
        assert np.array_equal(a.trajectory.points, b.trajectory.points) and a.yaw is b.yaw is None

    @pytest.mark.parametrize("kind", ["rigid", "rotor", "rotor-config"])
    def test_body_is_built_once_and_velocities_only_for_doppler(self, kind):
        make = {"rigid": self.rigid, "rotor": make_rotor, "rotor-config": config_rotor}[kind]
        target = make() if kind == "rigid" else make(samples_per_blade=8)
        assert target.body is target.body
        for t in (0.4, np.linspace(0.0, 0.9, 3)):
            assert targets.states(target, t).velocities is None
            assert targets.states(target, t, doppler=False).velocities is None
            assert targets.states(target, t, doppler=True).velocities.shape == (*np.shape(t), len(target.body), 3)


class TestSpinningTrack:
    """A RigidTarget that spins on a two-segment track with yaw="track": its body turns by
    the heading times the spin, and its Doppler velocities are the rate of its positions."""

    axis, rate = np.array([0.0, 0.6, 0.8]), 40.0
    track = ((0.0, (40, 30, 0)), (0.5, (44, 27, 0.5)), (1.0, (44, 31, 1.0)))
    offsets = np.array([[0.3, 0.1, 0], [-0.2, 0, 0.1], [0, 0.25, -0.1]])

    def target(self):
        return RigidTarget(cloud(self.offsets, [0.05] * len(self.offsets)), Trajectory.from_waypoints(self.track),
                           yaw="track", spin=targets.Spin(self.axis, self.rate))

    def oracle(self, t: float) -> np.ndarray:
        """pose + Rz(heading)·Rodrigues(axis, rate·t)·b, the track written out: inside segment i
        the position runs from its first waypoint at its slope, whose heading the yaw follows."""
        times, points = np.array([w[0] for w in self.track]), np.array([w[1] for w in self.track], float)
        i = int(np.searchsorted(times, t, side="right")) - 1
        slope = (points[i + 1] - points[i]) / (times[i + 1] - times[i])
        heading = math.atan2(slope[1], slope[0])
        yaw = np.array([[math.cos(heading), -math.sin(heading), 0], [math.sin(heading), math.cos(heading), 0],
                        [0, 0, 1]])
        a, theta = self.axis, self.rate * t
        k = np.array([[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]])
        spin = np.eye(3) + math.sin(theta) * k + (1 - math.cos(theta)) * k @ k
        return points[i] + slope * (t - times[i]) + self.offsets @ (yaw @ spin).T

    times = np.array([0.013, 0.2, 0.37, 0.49, 0.51, 0.77, 0.98])   # both segments, off the waypoints

    def test_states_are_the_pose_plus_the_turned_body(self):
        target = self.target()
        world = targets.states(target, self.times)
        for t, positions in zip(self.times, world.positions):
            assert np.allclose(positions, self.oracle(t), rtol=0, atol=1e-12)
            assert np.array_equal(targets.states(target, t).positions, positions)

    def test_doppler_velocities_are_the_rate_of_the_positions(self):
        target, h = self.target(), 1e-6
        world = targets.states(target, self.times, doppler=True)
        rate = (targets.states(target, self.times + h).positions
                - targets.states(target, self.times - h).positions) / (2 * h)
        assert np.allclose(world.velocities, rate, rtol=0, atol=1e-6)
        # the spin's share is several m/s on top of the track's
        track = targets.pose_at(target.trajectory, self.times).velocity[:, None, :]
        assert np.abs(world.velocities - track).max() > 5.0
        # and the path Dopplers are the rate of the bistatic ranges, -(c dτ/dt)/λ
        tx, rx = NodePose(vec3(0, 0, 0)), NodePose(vec3(90, 0, 0))
        paths = target_paths(target, tx, rx, self.times, LAM, doppler=True)
        delays = [target_paths(target, tx, rx, self.times + d, LAM).delay for d in (h, -h)]
        assert np.allclose(paths.doppler, -C0 * (delays[0] - delays[1]) / (2 * h) / LAM, rtol=0, atol=1e-3)


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
            cloud([[0, 0.15, 0], [0, -0.15, 0]], [0.05, 0.05]),
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
        tip_speed = ROTOR["rate"] * ROTOR["radius"]
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
        cube = synth_cfr(first_order(paths, w), w)
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
        cloud([[0, 0, 0]], [amplitude]),
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
        mags = np.abs(tensor[..., 0, 0])
        peak = mags.max(axis=4)
        assert np.allclose(peak, peak.flat[0], rtol=1e-9)

    def test_reciprocity_with_jones_transpose(self):
        rng = np.random.default_rng(17)
        jones = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        make = lambda j: RigidTarget(
            cloud([[0.3, 0.1, 0.0], [-0.2, 0.0, 0.1]], [0.05, 0.03 + 0.01j], [j, j]),
            Trajectory.from_waypoints([(0.0, (0, 0, 0))]),
        )
        fwd = reflectivity_scan(
            make(jones), small_grid(20, 0, 130, 10), 9.0, 13.0, self.band
        )
        rev = reflectivity_scan(
            make(jones.T), small_grid(130, 10, 20, 0), 13.0, 9.0, self.band
        )
        swapped = np.swapaxes(rev[0, 0, 0, 0], -1, -2)
        assert np.allclose(fwd[0, 0, 0, 0], swapped, rtol=1e-9, atol=1e-18)

    def test_two_point_interferometer_fringes(self):
        # narrowband fringe pattern vs the analytic two-point prediction
        d = 0.3
        f0 = 10e9
        target = RigidTarget(
            cloud([[0, d / 2, 0], [0, -d / 2, 0]], [0.05, 0.05]),
            Trajectory.from_waypoints([(0.0, (0, 0, 0))]),
        )
        band = FrequencyBand(f0 - 1e6, f0 + 1e6, 3)
        az = np.linspace(-60, 60, 241)
        tensor = reflectivity_scan(
            target, small_grid(0.0, 0.0, az, 0.0), 50.0, 50.0, band
        )
        response = np.abs(tensor[0, 0, :, 0].sum(axis=1)[:, 0, 0])
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
            cloud(offsets, amps),
            Trajectory.from_waypoints([(0.0, (0, 0, 0))]),
        )
        spun = RigidTarget(
            cloud([rot @ o for o in offsets], amps),
            Trajectory.from_waypoints([(0.0, (0, 0, 0))]),
        )
        g1 = small_grid([10, 80], 0, [140, 220], 0)
        g2 = small_grid([10 + phi, 80 + phi], 0, [140 + phi, 220 + phi], 0)
        t1 = reflectivity_scan(base, g1, 9.0, 9.0, self.band)
        t2 = reflectivity_scan(spun, g2, 9.0, 9.0, self.band)
        assert np.allclose(t1, t2, rtol=1e-9, atol=1e-18)

    def test_monostatic_diagonal_matches_backscatter(self):
        rng = np.random.default_rng(5)
        offsets = rng.normal(scale=0.15, size=(4, 3))
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        target = RigidTarget(
            cloud(offsets, amps),
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
            assert np.allclose(tensor[i, 0, i, 0, :, 0, 0], oracle, rtol=1e-9, atol=1e-18)

    def test_rotor_scan_centres_on_its_hub(self):
        # 1 m antenna radii: inside 8 m of the origin, outside the 0.12 m blades about the hub
        make = lambda hub: make_rotor(hub=vec3(*hub), samples_per_blade=16)
        grid = small_grid([0, 90], [0, 20], [0, 60, 180], [-10, 0])
        a, b = (reflectivity_scan(make(hub), grid, 1.0, 1.0, self.band) for hub in ((0, 8, 0), (0, 0, 0)))
        assert np.array_equal(a, b)
        a, b = (flyover_scan(make(hub), 0.0, stepped_axis(10, 180, 17, "flyover sweep"), 1.0, 1.5, self.band)
                for hub in ((0, 8, 0), (0, 0, 0)))
        assert np.array_equal(a, b)

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            reflectivity_scan(centered_scatterer(), {"az_tx": []}, 8.0, 8.0, self.band)

    def test_decreasing_axis_rejected_before_the_scan(self):
        big = RigidTarget(cloud([[5.0, 0, 0]], [0.05]), Trajectory.from_waypoints([(0.0, (0, 0, 0))]))
        # antennas inside the target fail the scan set-up, so the axis check must come first
        with pytest.raises(ConfigError, match="'az_rx' must be strictly increasing"):
            reflectivity_scan(big, small_grid(0, 0, [90, 0], 0), 2.0, 2.0, self.band)

    def test_antenna_inside_target_rejected(self):
        big = RigidTarget(
            cloud([[5.0, 0, 0]], [0.05]),
            Trajectory.from_waypoints([(0.0, (0, 0, 0))]),
        )
        with pytest.raises(ConfigError):
            reflectivity_scan(big, small_grid(0, 0, 0, 0), 2.0, 8.0, self.band)


class TestFlyoverScan:
    band = FrequencyBand(2e9, 18e9, 512)

    def test_center_point_flat_trace(self):
        fly = flyover_scan(centered_scatterer(), 0.0, stepped_axis(10, 180, 10, "flyover sweep"), 10.0, 10.0,
                           self.band)
        peak_bins = np.argmax(np.abs(fly), axis=1)
        zero_bin = int(np.argmin(np.abs(self.band.delay_axis())))
        assert np.all(peak_bins == zero_bin)

    def test_extended_target_spread_shrinks(self):
        target = RigidTarget(
            cloud([[0.15, 0, 0], [-0.15, 0, 0]], [0.05, 0.05]),
            Trajectory.from_waypoints([(0.0, (0, 0, 0))]),
        )
        fly = flyover_scan(target, 0.0, stepped_axis(10, 170, 20, "flyover sweep"), 10.0, 10.0, self.band,
                           sweep_window="hann")
        delay_s = self.band.delay_axis()

        def spread(row):
            p = np.abs(row) ** 2
            sel = p >= p.max() * 1e-2
            return delay_s[sel].max() - delay_s[sel].min()

        s10 = spread(fly[0])
        s170 = spread(fly[-1])
        assert s170 < 0.5 * s10
        assert s10 <= 2.2e-9  # a 30 cm pair stays at the 2 ns gate scale

    def test_sweep_validation(self):
        # the check that reflectivity_scan runs on each grid axis; a config sweep with stop < start
        # fails stepped_axis at parse time (test_config.TestScanBounds)
        for angles in ([], [10, 5], [10, 10]):
            with pytest.raises(ConfigError, match="flyover angle axis"):
                flyover_scan(centered_scatterer(), 0.0, angles, 10.0, 10.0, self.band)


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
    target = RigidTarget(cloud(offsets, amps, jones),
                         Trajectory.from_waypoints([(0.0, (0, 0, 0))]))
    return target, offsets, amps, jones


def jones_columns(jones):
    """Distinct HH/HV/VH/VV columns of (N, 2, 2) Jones matrices with a nonzero entry."""
    return len({tuple(c) for c in np.reshape(jones, (-1, 4)).T if np.any(c != 0)})


def scan_blocks(n_tx, n_scat, n_freq, n_cols):
    """(Tx, Rx) block sizes the reflectivity scan uses with n_cols Jones columns."""
    return _scan_blocks(n_tx, n_scat, n_freq, max(n_cols, 1))


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
        blades = dict(hub=vec3(0.1, -0.05, 0.02), axis=np.array([1.0, 1.0, 2.0]) / np.sqrt(6.0), radius=0.3,
                      rate=40.0, blades=2, samples_per_blade=16, sample_amplitude=0.01 + 0.004j, phase0=0.3)
        rotor = targets.rotor(**blades)
        rotor_pos = rotor_samples(0.0, **blades) - blades["hub"]
        rotor_jones = np.broadcast_to(np.eye(2), (32, 2, 2))
        # (target, ..., grid, whether one Tx block takes every direction): the cloud's four
        # columns and the rotor's one span partial Tx and Rx blocks; the small rotor grid's
        # fold fits one Tx block, and its Rx blocks are partial
        cases = [
            (cloud, offsets, amps, jones, "hann",
             small_grid([0, 40, 95, 150, 200, 260, 300, 330], [-10, 5, 30], np.arange(11) * 31.0,
                        [0, 8, 16, 24, 32, 40]), False),
            (rotor, rotor_pos, np.full(32, blades["sample_amplitude"]), rotor_jones, "none",
             small_grid(np.arange(9) * 40.0, [0, 25, 50, 70], np.arange(13) * 27.0, [-5, 12]), False),
            (rotor, rotor_pos, np.full(32, blades["sample_amplitude"]), rotor_jones, "none",
             small_grid([0, 70, 140, 210, 280], [0, 25, 50, 70], np.arange(13) * 27.0, [-5, 12]), True),
        ]
        band = FrequencyBand(3e9, 5e9, 128)
        d_tx, d_rx = 6.0, 9.0
        for target, pos, s, j, window, grid, one_tx_block in cases:
            n_tx, n_rx = len(grid["az_tx"]) * len(grid["el_tx"]), len(grid["az_rx"]) * len(grid["el_rx"])
            tx_block, rx_block = scan_blocks(n_tx, len(s), band.n_points, jones_columns(j))
            assert (tx_block == n_tx) if one_tx_block else spans_partial_blocks(n_tx, tx_block)
            assert spans_partial_blocks(n_rx, rx_block)
            tensor = reflectivity_scan(target, grid, d_tx, d_rx, band, sweep_window=window)
            taper = get_window(window, band.n_points, fftbins=False) if window != "none" \
                else np.ones(band.n_points)
            oracle = scan_oracle(pos, s, j, grid, d_tx, d_rx, band, taper)
            assert np.max(np.abs(tensor - oracle)) <= 1e-9 * np.max(np.abs(oracle))

    def test_blocks_keep_the_fold_within_two_slabs_and_the_rest_within_one(self):
        for n_tx, n_scat, n_freq, width in itertools.product([1, 7, 32, 1100, 5000], [1, 10, 48, 1024, 70000],
                                                             [1, 16, 64, 128, 2048, 100000], [1, 2, 3, 4]):
            tx, rx = _scan_blocks(n_tx, n_scat, n_freq, width)
            assert 1 <= tx <= n_tx and rx >= 1
            assert tx * width * n_scat * n_freq <= 2 * _SLAB_ELEMENTS or tx == 1
            assert rx * n_freq * (n_scat + tx * width) <= _SLAB_ELEMENTS \
                or tx == rx == 1 and n_freq * (n_scat + width) > _SLAB_ELEMENTS
        assert _scan_blocks(32, 48, 64, 1) == (32, 12)   # the benchmark car: one Tx block

    def test_one_scatterer_many_tx_directions(self):
        # a fold of 2000 Tx directions fits in two slabs, but their product with one Rx
        # direction would not fit in one slab beside the Rx ramps: two Tx blocks
        s = np.array([0.05 - 0.02j])
        pos = np.array([[0.2, -0.1, 0.05]])
        target = RigidTarget(cloud([pos[0]], [s[0]]), Trajectory.from_waypoints([(0.0, (0, 0, 0))]))
        grid = small_grid(np.arange(500) * 0.7, [0, 10, 20, 30], [30, 120, 200], 5)
        band = FrequencyBand(3e9, 4e9, 64)
        tx_block, rx_block = scan_blocks(2000, 1, band.n_points, 1)
        assert spans_partial_blocks(2000, tx_block) and rx_block == 1
        tracemalloc.start()
        try:
            tensor = reflectivity_scan(target, grid, 6.0, 9.0, band)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - tensor.nbytes < 3 * 16 * _SLAB_ELEMENTS   # 2.2 slabs; one Tx block would need 4
        oracle = scan_oracle(pos, s, np.eye(2)[None], grid, 6.0, 9.0, band, np.ones(band.n_points))
        assert np.max(np.abs(tensor - oracle)) <= 1e-9 * np.max(np.abs(oracle))

    # Jones structures the scan folds into fewer than four columns. The grid has 54 Tx and
    # 14 Rx directions, so with 10 scatterers at 256 frequencies it spans partial Tx and Rx
    # blocks for 0, 1, 2 and 3 columns.
    JONES_GRID = small_grid(np.arange(18) * 20.0, [-10, 5, 30], np.arange(7) * 50.0, [0, 20])
    JONES_BAND = FrequencyBand(3e9, 5e9, 256)

    def scan_jones(self, jones):
        """Scan of a 10-scatterer cloud with the given Jones matrices, checked against the oracle."""
        rng = np.random.default_rng(43)
        offsets = rng.uniform(-0.4, 0.4, size=(10, 3))
        amps = rng.normal(size=10) + 1j * rng.normal(size=10)
        target = RigidTarget(cloud(offsets, amps, jones),
                             Trajectory.from_waypoints([(0.0, (0, 0, 0))]))
        grid, band = self.JONES_GRID, self.JONES_BAND
        n_tx, n_rx = len(grid["az_tx"]) * len(grid["el_tx"]), len(grid["az_rx"]) * len(grid["el_rx"])
        tx_block, rx_block = scan_blocks(n_tx, 10, band.n_points, jones_columns(jones))
        assert spans_partial_blocks(n_tx, tx_block) and spans_partial_blocks(n_rx, rx_block)
        tensor = reflectivity_scan(target, grid, 6.0, 9.0, band)
        oracle = scan_oracle(offsets, amps, jones, grid, 6.0, 9.0, band, np.ones(band.n_points))
        assert np.max(np.abs(tensor - oracle)) <= 1e-9 * np.max(np.abs(oracle))
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
        assert np.array_equal(tensor[..., 0, 1], tensor[..., 0, 0])

    def test_one_zero_jones_among_identity(self):
        jones = np.array([np.eye(2)] * 10, dtype=complex)
        jones[4] = 0.0
        assert jones_columns(jones) == 1
        self.scan_jones(jones)

    def test_all_zero_jones_gives_zero_tensor(self):
        tensor = self.scan_jones(np.zeros((10, 2, 2), dtype=complex))
        assert tensor.shape == (18, 3, 7, 2, self.JONES_BAND.n_points, 2, 2)
        assert not np.any(tensor)

    def test_identity_cloud_copies_hh_to_vv_and_zeroes_cross_pol(self):
        tensor = self.scan_jones(np.array([np.eye(2)] * 10, dtype=complex))
        assert tensor[..., 0, 0].tobytes() == tensor[..., 1, 1].tobytes()
        cross = tensor[..., [0, 1], [1, 0]]                        # HV and VH
        assert np.all(cross == 0)
        assert not np.any(np.signbit(cross.real) | np.signbit(cross.imag))   # +0.0: never computed

    def test_flyover_matches_per_point_oracle(self):
        cloud, offsets, amps, jones = jones_cloud()
        band = FrequencyBand(2e9, 18e9, 512)
        angles = stepped_axis(10, 178, 3, "flyover sweep")
        fly = flyover_scan(cloud, 20.0, angles, 6.0, 9.0, band, elevation_deg=7.0, sweep_window="hann")
        assert spans_partial_blocks(len(angles), _SLAB_ELEMENTS // (len(amps) * band.n_points))
        taper = get_window("hann", band.n_points, fftbins=False)
        oracle = np.array([
            oracle_profile(offsets, amps, jones, direction(20.0, 7.0), direction(20.0 + a, 7.0),
                           6.0, 9.0, band, taper)[:, 0, 0]
            for a in angles])
        assert np.max(np.abs(fly - oracle)) <= 1e-9 * np.max(np.abs(oracle))

    def test_cross_pol_channels_follow_jones_entries(self):
        jones = np.array([[1.0 + 0.5j, -0.3 + 0.2j], [0.7 - 0.1j, -0.4j]])
        target = RigidTarget(cloud([[0.2, -0.1, 0.05]], [0.05], [jones]),
                             Trajectory.from_waypoints([(0.0, (0, 0, 0))]))
        tensor = reflectivity_scan(target, small_grid([0, 60], 10, [30, 120, 200], 0), 7.0, 7.0,
                                   FrequencyBand(3e9, 4e9, 16))
        hh = tensor[..., 0, 0]
        for p, q in np.ndindex(2, 2):
            assert np.allclose(tensor[..., p, q], jones[p, q] / jones[0, 0] * hh,
                               rtol=1e-12, atol=0.0)

    def test_memory_stays_bounded(self):
        rotor = targets.rotor(vec3(0, 0, 0), vec3(0, 0, 1), 0.5, 10.0, blades=4, samples_per_blade=256)
        band = FrequencyBand(3e9, 4e9, 16)
        angles = np.arange(16) * 22.5
        grid = small_grid(angles, [0, 10, 20, 30], angles, [0, 10, 20, 30])
        n_scat = 4 * 256
        assert 16 * 4 * 16 * 4 * n_scat * band.n_points * 16 >= 1e9   # unblocked slab, bytes
        tracemalloc.start()
        try:
            tensor = reflectivity_scan(rotor, grid, 5.0, 5.0, band)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < tensor.nbytes + 32e6
        assert np.all(np.isfinite(tensor)) and np.any(tensor != 0)

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
        assert tensor.nbytes > 28e6
        assert peak - tensor.nbytes <= 4e6

    def test_benchmark_car_flyover_transient_stays_small(self, bench_workloads):
        cfg = parse_config(bench_workloads.make_inputs("angle_sweeps", 1)[0])
        job = cfg.flyover
        target = cfg.scene.target(job.target)
        angles = stepped_axis(job.start_deg, job.stop_deg, job.step_deg, "flyover sweep")
        tracemalloc.start()
        try:
            fly = flyover_scan(target, job.fixed_angle_deg, angles, job.d_tx, job.d_rx, job.band,
                               elevation_deg=job.elevation_deg, sweep_window=job.sweep_window)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert fly.nbytes > 5e6
        assert peak - fly.nbytes <= 2e6

    def test_reflectivity_archive_same_for_any_thread_count(self, tmp_path):
        doc = yaml.safe_load(textwrap.dedent(FULL_SCENE))
        doc["reflectivity"].update(az_rx={"start": 0, "stop": 350, "n": 35}, el_rx=[0, 10, 20],
                                   band={"f_lo": 3.6e9, "f_hi": 3.8e9, "n_points": 2048})
        assert spans_partial_blocks(35 * 3, scan_blocks(2, 1, 2048, 1)[1])   # 11 Rx blocks to spread
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
        if kind in ("rotor", "rotor-config"):
            build = make_rotor if kind == "rotor" else config_rotor
            return build(hub=vec3(0.1, -0.05, 0.02), axis=np.array([1.0, 1.0, 2.0]) / np.sqrt(6.0), radius=0.3,
                         rate=600.0, samples_per_blade=12, sample_amplitude=0.01 + 0.004j, phase0=0.3)
        rng = np.random.default_rng(17)
        offsets, amps = rng.uniform(-0.4, 0.4, (6, 3)), rng.normal(size=6) + 1j * rng.normal(size=6)
        # the heading turns between symbols 37 and 95
        track = [(0.0, (0, 0, 0)), (8e-5, (0.02, 0.01, 0)), (1e-3, (0.05, 0.3, 0.01))]
        return RigidTarget(cloud(offsets, amps),
                           Trajectory.from_waypoints(track), yaw="track")

    def to_body(self, target, t, p):
        """World point p in the scan frame of the target at time t: rotation(t)ᵀ(p − pose(t))."""
        rot, e = target.rotation(t), p - target.pose(t).position
        return e if rot is None else rot.T @ e

    @pytest.mark.parametrize("kind", ["rigid", "rotor", "rotor-config"])
    def test_cfr_rows_equal_scan_sweeps(self, kind):
        w, target = self.waveform, self.target(kind)
        scene = SceneConfig([SceneNode("tx0", NodePose(self.tx))], [SceneNode("rx0", NodePose(self.rx))],
                            [target], wavelength=C0 / w.f_c, include_los=False)
        cube = synth_cfr(link_callback(scene, *scene.links()[0], w.symbol_times()), w)
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
            profile = reflectivity_scan(target, grid, *radii, band)[0, 0, 0, 0, :, 0, 0]
            sweep = np.fft.fft(np.fft.ifftshift(profile))
            row = cube.data[m] * np.exp(2j * np.pi * freqs * sum(radii) / C0) * w.f_c / freqs
            assert np.max(np.abs(row - sweep)) <= 1e-12 * np.max(np.abs(sweep))
