import math
import tracemalloc

import numpy as np
import pytest
import yaml
from conftest import first_link_paths

from bisim.channel import WaveformConfig, synth_cfr
from bisim.cli import main
from bisim.errors import ConfigError, GeometryError
from bisim.geometry import C0, NodePose, Trajectory, vec3
from bisim.illumination import doppler_precompensate, focusing_gain, time_reversal_prefilter
from bisim.scene import (
    SceneConfig,
    SceneNode,
    illumination_paths,
    link_callback,
)
from bisim.targets import FOUR_PI, PointScatterer, RigidTarget, Rotor

LAM = C0 / 3.7e9


def basic_scene(**kwargs):
    tx = SceneNode("tx0", NodePose(vec3(0, 0, 0)))
    rx = SceneNode("rx0", NodePose(vec3(100, 0, 0)))
    return SceneConfig([tx], [rx], wavelength=LAM, **kwargs)


class TestSceneConfig:
    def test_duplicate_ids_rejected(self):
        tx = SceneNode("n0", NodePose(vec3(0, 0, 0)))
        rx = SceneNode("n0", NodePose(vec3(10, 0, 0)))
        with pytest.raises(ConfigError, match="n0"):
            SceneConfig([tx], [rx], wavelength=LAM)

    def test_needs_tx_and_rx(self):
        tx = SceneNode("tx0", NodePose(vec3(0, 0, 0)))
        with pytest.raises(ConfigError):
            SceneConfig([tx], [], wavelength=LAM)

    def test_links_enumeration(self):
        tx = [SceneNode(f"tx{i}", NodePose(vec3(i, 0, 0))) for i in range(2)]
        rx = [SceneNode(f"rx{i}", NodePose(vec3(0, i + 1, 0))) for i in range(3)]
        scene = SceneConfig(tx, rx, wavelength=LAM)
        assert scene.links() == [(t, r) for t in tx for r in rx]


class TestSceneNodePose:
    TIMES = np.array([-0.5, 0.0, 0.13, 0.5, 0.77, 1.0, 2.0])

    @pytest.mark.parametrize("motion", [
        NodePose(vec3(3, -4, 1)),   # at rest: a static node with a velocity is rejected
        Trajectory.from_waypoints([(0.0, (0, 0, 0)), (0.5, (10, 3, 0)), (1.0, (7, 9, 2))]),
    ], ids=["static", "trajectory"])
    def test_times_array_equals_scalar_poses_bit_for_bit(self, motion):
        node = SceneNode("rx3", motion)
        many = node.pose(self.TIMES)
        shape = (len(self.TIMES), 3)
        for i, t in enumerate(self.TIMES):
            one = node.pose(t)
            assert np.array_equal(np.broadcast_to(many.position, shape)[i], one.position)
            assert np.array_equal(np.broadcast_to(many.velocity, shape)[i], one.velocity)

    def test_static_node_with_a_velocity_is_rejected_by_name(self):
        with pytest.raises(ConfigError, match="rx3"):
            SceneNode("rx3", NodePose(vec3(3, -4, 1), vec3(20, 0, 0)))

    def test_los_doppler_of_a_moving_node_is_the_same_in_both_modes(self):
        # the Rx recedes along the line of sight at 20 m/s, so the path length grows linearly
        w = WaveformConfig(3.7e9, 4e6, 16, 64)
        rx = SceneNode("rx0", Trajectory.from_waypoints([(0.0, (100, 0, 0)), (1.0, (120, 0, 0))]))
        scene = SceneConfig([SceneNode("tx0", NodePose(vec3(0, 0, 0)))], [rx], wavelength=w.wavelength)
        fixed = first_link_paths(scene, 0.0, doppler=True).doppler[0]
        phase = np.unwrap(np.angle(synth_cfr(link_callback(scene, *scene.links()[0]), w).data[:, 0]))
        slope = (phase[-1] - phase[0]) / (2 * np.pi * (w.n_symbols - 1) * w.t_sym)
        assert fixed == pytest.approx(-20 / w.wavelength, rel=1e-12)
        assert slope == pytest.approx(fixed, rel=1e-9)

    def test_static_node_returns_its_stored_pose(self):
        stored = NodePose(vec3(3, -4, 1))
        node = SceneNode("tx1", stored)
        assert node.pose(0.0) is node.pose(self.TIMES) is node.motion is stored


class TestLinkPaths:
    def test_los_only(self):
        scene = basic_scene()
        los = first_link_paths(scene, 0.0, doppler=True)
        assert len(los) == 1
        assert los.delay[0] == pytest.approx(100 / C0)
        assert abs(los.gain[0]) == pytest.approx(LAM / (FOUR_PI * 100))
        assert los.doppler[0] == 0.0

    def test_los_can_be_disabled(self):
        scene = basic_scene(include_los=False)
        assert len(first_link_paths(scene, 0.0)) == 0

    def test_clutter_and_target_counts(self):
        target = RigidTarget(
            [PointScatterer([0, 0, 0], 0.05), PointScatterer([0.1, 0, 0], 0.05)],
            Trajectory.from_waypoints([(0.0, (50, 40, 0))]),
        )
        scene = basic_scene(
            targets=[target],
            clutter=[PointScatterer(vec3(20, -30, 0), 1.0)],
        )
        paths = first_link_paths(scene, 0.0)
        assert len(paths) == 1 + 1 + 2

    def test_clutter_delay_and_gain(self):
        sc = PointScatterer(vec3(30, 40, 0), 2.0)
        scene = basic_scene(clutter=[sc])
        paths = first_link_paths(scene, 0.0, doppler=True)
        d1 = 50.0
        d2 = np.linalg.norm(np.array([100, 0, 0]) - sc.position)
        assert paths.delay[1] == pytest.approx((d1 + d2) / C0)
        assert abs(paths.gain[1]) == pytest.approx(2.0 * LAM / (FOUR_PI * d1 * d2))
        assert paths.doppler[1] == 0.0

    def test_geometric_synthesis_runs(self):
        target = RigidTarget(
            [PointScatterer([0, 0, 0], 1.0)],
            Trajectory.from_waypoints([(0.0, (50, 60, 0)), (1.0, (60, 60, 0))]),
        )
        scene = basic_scene(targets=[target])
        w = WaveformConfig(3.7e9, 20e6, 32, 16)
        cube = synth_cfr(link_callback(scene, *scene.links()[0]), w)
        assert cube.data.shape == (16, 32)
        assert np.sum(np.abs(cube.data) ** 2) > 0

    @pytest.mark.parametrize("doppler", [True, False])
    def test_fixed_synthesis_is_the_explicit_path_sum(self, doppler):
        # sum_p a_p exp(+j2π f_D,p m T) exp(-j2π k Δf τ_p); doppler=False gives static paths
        target = RigidTarget(
            [PointScatterer([0, 0, 0], 1.0), PointScatterer([0.4, 0.2, 0], 0.6)],
            Trajectory.from_waypoints([(0.0, (50, 60, 0)), (1.0, (62, 55, 0))]),
        )
        scene = basic_scene(targets=[target], clutter=[PointScatterer(vec3(20, -30, 0), 1.0)])
        paths = first_link_paths(scene, 0.25, doppler=doppler)
        assert (paths.doppler is not None) == doppler
        w = WaveformConfig(3.7e9, 20e6, 48, 40)
        cube = synth_cfr(paths, w)
        f_d = paths.doppler if doppler else np.zeros(len(paths))
        m, k = np.arange(w.n_symbols), np.arange(w.n_subcarriers)
        expected = np.zeros((w.n_symbols, w.n_subcarriers), dtype=complex)
        for tau, a, f in zip(paths.delay, paths.gain, f_d):
            expected += a * np.outer(np.exp(2j * np.pi * f * m * w.t_sym),
                                     np.exp(-2j * np.pi * k * w.delta_f * tau))
        assert np.abs(cube.data - expected).max() <= 1e-12 * np.abs(expected).max()
        if doppler:
            assert np.any(paths.doppler != 0.0)
        else:
            assert np.allclose(cube.data, cube.data[0])


def oracle_scene(w):
    """LoS, one clutter point, a turning yaw-track target, a rotor, and an Rx.

    The Rx track and the target track both end mid-capture, so their poses
    clamp for the rest and the parked target's heading falls back to +x.
    """
    t_sym = w.t_sym
    rx_track = Trajectory.from_waypoints(
        [(0.0, (60, 5, 0)), (40.5 * t_sym, (60, 5 + 25 * 40.5 * t_sym, 0))]
    )
    target = RigidTarget(
        [PointScatterer([0.6, 0, 0], 0.2), PointScatterer([-0.4, 0.3, 0.2], 0.1j)],
        Trajectory.from_waypoints([
            (0.0, (30, 25, 1)),
            (30.25 * t_sym, (30 + 12 * 30.25 * t_sym, 25, 1)),
            (70.25 * t_sym, (30 + 12 * 30.25 * t_sym, 25 - 9 * 40 * t_sym, 1)),
        ]),
        yaw="track",
    )
    rotor = Rotor(vec3(25, -10, 2), vec3(0, 0.6, 0.8), blade_radius=0.1, rate=900.0,
                  n_blades=2, samples_per_blade=16, sample_amplitude=0.02, phase0=0.3)
    return SceneConfig(
        [SceneNode("tx0", NodePose(vec3(0, 0, 0)))],
        [SceneNode("rx0", rx_track)],
        targets=[target, rotor],
        clutter=[PointScatterer(vec3(20, -15, 0), 1.5)],
        wavelength=LAM,
    )


def scalar_pose(traj, t):
    """Position and velocity on a piecewise-linear track, written out apart
    from bisim: np.interp clamps at both ends, where the velocity is zero."""
    pos = np.array([np.interp(t, traj.times, traj.points[:, i]) for i in range(3)])
    if t < traj.times[0] or t >= traj.times[-1]:
        return pos, np.zeros(3)
    i = int(np.flatnonzero(traj.times <= t)[-1])
    return pos, (traj.points[i + 1] - traj.points[i]) / (traj.times[i + 1] - traj.times[i])


def direct_cfr(scene, w):
    """H[m, k] as the direct sum over symbols, paths and subcarriers, from
    scalar poses and per-path norms."""
    k = np.arange(w.n_subcarriers)
    tx = scene.tx_nodes[0].motion.position
    target, rotor = scene.targets
    ref = np.array([0.0, 0.0, 1.0])
    e1 = np.cross(ref, rotor.axis)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(rotor.axis, e1)
    data = np.zeros((w.n_symbols, w.n_subcarriers), dtype=complex)
    for m in range(w.n_symbols):
        t = m * w.t_sym
        rx, _ = scalar_pose(scene.rx_nodes[0].motion, t)
        d = np.linalg.norm(rx - tx)
        data[m] += LAM / (FOUR_PI * d) * np.exp(-2j * np.pi * d / LAM) * np.exp(
            -2j * np.pi * k * w.delta_f * d / C0)
        points = [(sc.position, sc.amplitude) for sc in scene.clutter]
        position, velocity = scalar_pose(target.trajectory, t)
        vx, vy = velocity[:2]
        yaw = math.atan2(vy, vx) if math.hypot(vx, vy) >= 1e-12 else 0.0
        rot = np.array([[math.cos(yaw), -math.sin(yaw), 0], [math.sin(yaw), math.cos(yaw), 0],
                        [0, 0, 1]])
        points += [(position + rot @ s.position, s.amplitude) for s in target.scatterers]
        for b in range(rotor.n_blades):
            ang = rotor.phase0 + rotor.rate * t + 2 * np.pi * b / rotor.n_blades
            for s in range(1, rotor.samples_per_blade + 1):
                r = rotor.blade_radius * s / rotor.samples_per_blade
                pos = rotor.hub_offset + r * (math.cos(ang) * e1 + math.sin(ang) * e2)
                points.append((pos, rotor.sample_amplitude))
        for pos, amp in points:
            d1, d2 = np.linalg.norm(pos - tx), np.linalg.norm(pos - rx)
            gain = amp * LAM / (FOUR_PI * d1 * d2) * np.exp(-2j * np.pi * (d1 + d2) / LAM)
            data[m] += gain * np.exp(-2j * np.pi * k * w.delta_f * (d1 + d2) / C0)
    return data


class TestGeometricSynthesis:
    def test_matches_direct_sum(self):
        # 36 paths x 64 subcarriers: blocks of 28 symbols after the first
        w = WaveformConfig(3.7e9, 4e6, 64, 96)
        scene = oracle_scene(w)
        assert scene.rx_nodes[0].motion.times[-1] < w.duration / 2
        assert scene.targets[0].trajectory.times[-1] < w.duration
        cube = synth_cfr(link_callback(scene, *scene.links()[0]), w)
        ref = direct_cfr(scene, w)
        assert np.max(np.abs(cube.data - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_coincidence_inside_a_block_raises(self, tmp_path):
        # the target passes exactly through the Rx at symbol 100, which lies
        # inside the second block (symbols 1..255), not at a block start
        w = WaveformConfig(3.7e9, 20e6, 64, 256)
        t_hit = 100 * w.t_sym
        track = [[0.0, [100.0, -0.5, 0.0]], [t_hit, [100.0, 0.0, 0.0]],
                 [2 * t_hit, [100.0, 0.5, 0.0]]]
        scene = basic_scene(targets=[RigidTarget(
            [PointScatterer([0, 0, 0], 1.0)], Trajectory.from_waypoints(track))])
        blocks = []

        def callback(times):
            blocks.append(times)
            return first_link_paths(scene, times)

        with pytest.raises(GeometryError):
            synth_cfr(callback, w)
        assert blocks[-1][0] < t_hit <= blocks[-1][-1] and t_hit in blocks[-1]

        doc = {
            "waveform": {"carrier_hz": 3.7e9, "bandwidth_hz": 20e6, "n_subcarriers": 64,
                         "n_symbols": 256},
            "scene": {
                "tx_nodes": [{"id": "tx0", "position": [0.0, 0.0, 0.0]}],
                "rx_nodes": [{"id": "rx0", "position": [100.0, 0.0, 0.0]}],
                "targets": [{"kind": "rigid", "name": "crosser",
                             "scatterers": [{"amplitude": 1.0}], "trajectory": track}],
            },
        }
        path = tmp_path / "crossing.yaml"
        path.write_text(yaml.safe_dump(doc))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_memory_stays_bounded(self):
        # unblocked, the (M x P x K) slab of this capture would take 1.07 GB
        w = WaveformConfig(3.7e9, 20e6, 512, 2048)
        rotor = Rotor(vec3(50, 40, 0), vec3(0, 0, 1), blade_radius=0.3, rate=200.0,
                      n_blades=2, samples_per_blade=32)
        scene = basic_scene(targets=[rotor], include_los=False)
        assert w.n_symbols * 64 * w.n_subcarriers * 16 >= 1e9
        tracemalloc.start()
        try:
            cube = synth_cfr(link_callback(scene, *scene.links()[0]), w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32e6
        assert np.all(np.isfinite(cube.data)) and np.sum(np.abs(cube.data) ** 2) > 0


class TestIlluminationPaths:
    def test_direct_plus_bounces(self):
        scene = basic_scene(
            clutter=[PointScatterer(vec3(20, 30, 0), 1.5), PointScatterer(vec3(40, -25, 0), 1.0)]
        )
        point = vec3(60, 10, 0)
        paths = illumination_paths(scene, scene.tx_nodes[0].pose(0.0), NodePose(point))
        assert len(paths) == 3
        assert paths.delay[0] == pytest.approx(np.linalg.norm(point) / C0)
        assert paths.delay[1] > paths.delay[0]

    def test_moving_point_gets_per_path_doppler(self):
        scene = basic_scene(clutter=[PointScatterer(vec3(20, 30, 0), 1.5)])
        moving = NodePose(vec3(60, 10, 0), vec3(-12, 3, 0))
        paths = illumination_paths(scene, scene.tx_nodes[0].pose(0.0), moving)
        dopplers = {round(f, 6) for f in paths.doppler.tolist()}
        assert len(dopplers) == len(paths)  # distinct per-path shifts
        out = doppler_precompensate(paths)
        assert out.spread_before_hz > 0
        assert out.spread_after_hz == 0.0

    def test_focusing_gain_over_multipath(self):
        scene = basic_scene(
            clutter=[PointScatterer(vec3(20, 35, 0), 4.0), PointScatterer(vec3(45, -30, 0), 4.0)]
        )
        w = WaveformConfig(3.7e9, 160e6, 256, 1)
        paths = illumination_paths(scene, scene.tx_nodes[0].pose(0.0), NodePose(vec3(60, 10, 0)))
        k = np.arange(w.n_subcarriers)
        cfr = np.zeros(w.n_subcarriers, dtype=complex)
        for delay, gain in zip(paths.delay, paths.gain):
            cfr += gain * np.exp(-2j * np.pi * w.delta_f * delay * k)
        assert focusing_gain(cfr, time_reversal_prefilter(cfr)) > 1.0

    def test_coincident_point_rejected(self):
        scene = basic_scene()
        with pytest.raises(GeometryError):
            illumination_paths(scene, scene.tx_nodes[0].pose(0.0), NodePose(vec3(0, 0, 0)))
