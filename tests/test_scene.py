import copy
import math
import re
import textwrap
import tracemalloc

import numpy as np
import pytest
import yaml
from conftest import FULL_SCENE, ROTOR_SCENE, first_link_paths, simulated_links

from bisim import fusion, pipeline
from bisim.channel import PathTable, WaveformConfig, first_order, synth_cfr
from bisim.cli import main
from bisim.config import parse_config
from bisim.errors import ConfigError, GeometryError
from bisim.geometry import C0, NodePose, Trajectory, vec3
from bisim.illumination import doppler_precompensate, focusing_gain, time_reversal_prefilter
from bisim.scene import (
    SceneConfig,
    SceneNode,
    illumination_paths,
    link_callback,
    link_paths,
)
from bisim.targets import FOUR_PI, RigidTarget, cloud, rotor, states

LAM = C0 / 3.7e9


def basic_scene(**kwargs):
    tx = SceneNode("tx0", NodePose(vec3(0, 0, 0)))
    rx = SceneNode("rx0", NodePose(vec3(100, 0, 0)))
    return SceneConfig([tx], [rx], wavelength=LAM, **kwargs)


class TestSceneConfig:
    @pytest.mark.parametrize("tx_ids, rx_ids, named", [
        (["n0"], ["n0"], "duplicate node id 'n0'"),
        # links a_b -> c and a -> b_c would both write the datasets and files of a_b_c
        (["a_b", "a"], ["c", "b_c"], "links 'a_b' -> 'c' and 'a' -> 'b_c' share the name 'a_b_c'"),
        (["tx0"], ["x/../../escaped"], repr("x/../../escaped")),
        ([r"tx\0"], ["rx0"], repr(r"tx\0")),
        (["tx0"], ["rx\0"], repr("rx\0")),
    ], ids=["repeated", "link-names", "slash", "backslash", "nul"])
    def test_duplicate_ids_rejected(self, tx_ids, rx_ids, named):
        # an id names a link's datasets and output files, so it must name one link and no path
        tx = [SceneNode(node_id, NodePose(vec3(i, 0, 0))) for i, node_id in enumerate(tx_ids)]
        rx = [SceneNode(node_id, NodePose(vec3(10, i, 0))) for i, node_id in enumerate(rx_ids)]
        with pytest.raises(ConfigError, match=re.escape(named)):
            SceneConfig(tx, rx, wavelength=LAM)

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
        scene = SceneConfig([SceneNode("tx0", NodePose(vec3(0, 0, 0)))], [rx], wavelength=C0 / w.f_c)
        fixed = first_link_paths(scene, 0.0, doppler=True).doppler[0]
        cube = synth_cfr(link_callback(scene, *scene.links()[0], w.symbol_times()), w)
        phase = np.unwrap(np.angle(cube.data[:, 0]))
        slope = (phase[-1] - phase[0]) / (2 * np.pi * (w.n_symbols - 1) * w.t_sym)
        assert fixed == pytest.approx(-20 / (C0 / w.f_c), rel=1e-12)
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
            cloud([[0, 0, 0], [0.1, 0, 0]], [0.05, 0.05]),
            Trajectory.from_waypoints([(0.0, (50, 40, 0))]),
        )
        scene = basic_scene(
            targets=[target],
            clutter=cloud([vec3(20, -30, 0)], [1.0]),
        )
        paths = first_link_paths(scene, 0.0)
        assert len(paths) == 1 + 1 + 2

    def test_clutter_delay_and_gain(self):
        sc = cloud([vec3(30, 40, 0)], [2.0])
        scene = basic_scene(clutter=sc)
        paths = first_link_paths(scene, 0.0, doppler=True)
        d1 = 50.0
        d2 = np.linalg.norm(np.array([100, 0, 0]) - sc.positions[0])
        assert paths.delay[1] == pytest.approx((d1 + d2) / C0)
        assert abs(paths.gain[1]) == pytest.approx(2.0 * LAM / (FOUR_PI * d1 * d2))
        assert paths.doppler[1] == 0.0

    def test_geometric_synthesis_runs(self):
        target = RigidTarget(
            cloud([[0, 0, 0]], [1.0]),
            Trajectory.from_waypoints([(0.0, (50, 60, 0)), (1.0, (60, 60, 0))]),
        )
        scene = basic_scene(targets=[target])
        w = WaveformConfig(3.7e9, 20e6, 32, 16)
        cube = synth_cfr(link_callback(scene, *scene.links()[0], w.symbol_times()), w)
        assert cube.data.shape == (16, 32)
        assert np.sum(np.abs(cube.data) ** 2) > 0

    @pytest.mark.parametrize("doppler", [True, False])
    def test_fixed_synthesis_is_the_explicit_path_sum(self, doppler):
        # the t0 table to first order in Δt = mT: sum_p a_p exp(+j2π f_D,p Δt)
        # exp(-j2π k Δf (τ_p - f_D,p Δt / f_c)); doppler=False gives static paths
        target = RigidTarget(
            cloud([[0, 0, 0], [0.4, 0.2, 0]], [1.0, 0.6]),
            Trajectory.from_waypoints([(0.0, (50, 60, 0)), (1.0, (62, 55, 0))]),
        )
        scene = basic_scene(targets=[target], clutter=cloud([vec3(20, -30, 0)], [1.0]))
        paths = first_link_paths(scene, 0.25, doppler=doppler)
        assert (paths.doppler is not None) == doppler
        w = WaveformConfig(3.7e9, 20e6, 48, 40)
        cube = synth_cfr(first_order(paths, w), w)
        f_d = paths.doppler if doppler else np.zeros(len(paths))
        dt, freqs = np.arange(w.n_symbols) * w.t_sym, np.arange(w.n_subcarriers) * w.delta_f
        expected = np.zeros((w.n_symbols, w.n_subcarriers), dtype=complex)
        frozen = expected.copy()   # the same sum with every delay held at t0
        for tau, a, f in zip(paths.delay, paths.gain, f_d):
            phasor = a * np.exp(2j * np.pi * f * dt)[:, None]
            expected += phasor * np.exp(-2j * np.pi * np.outer(tau - f / w.f_c * dt, freqs))
            frozen += phasor * np.exp(-2j * np.pi * tau * freqs)
        peak = np.abs(expected).max()
        assert np.abs(cube.data - expected).max() <= 1e-12 * peak
        if doppler:
            assert np.any(paths.doppler != 0.0)
            assert np.abs(cube.data - frozen).max() > 1e-9 * peak   # the delays do move
        else:
            assert np.allclose(cube.data, cube.data[0])


# blade parameters of oracle_scene's rotor, which direct_cfr lays out on its own
ORACLE_ROTOR = dict(hub=vec3(25, -10, 2), axis=vec3(0, 0.6, 0.8), radius=0.1, rate=900.0, blades=2,
                    samples_per_blade=16, sample_amplitude=0.02, phase0=0.3)


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
        cloud([[0.6, 0, 0], [-0.4, 0.3, 0.2]], [0.2, 0.1j]),
        Trajectory.from_waypoints([
            (0.0, (30, 25, 1)),
            (30.25 * t_sym, (30 + 12 * 30.25 * t_sym, 25, 1)),
            (70.25 * t_sym, (30 + 12 * 30.25 * t_sym, 25 - 9 * 40 * t_sym, 1)),
        ]),
        yaw="track",
    )
    return SceneConfig(
        [SceneNode("tx0", NodePose(vec3(0, 0, 0)))],
        [SceneNode("rx0", rx_track)],
        targets=[target, rotor(**ORACLE_ROTOR)],
        clutter=cloud([vec3(20, -15, 0)], [1.5]),
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
    target = scene.targets[0]
    blades = ORACLE_ROTOR
    ref = np.array([0.0, 0.0, 1.0])
    e1 = np.cross(ref, blades["axis"])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(blades["axis"], e1)
    data = np.zeros((w.n_symbols, w.n_subcarriers), dtype=complex)
    for m in range(w.n_symbols):
        t = m * w.t_sym
        rx, _ = scalar_pose(scene.rx_nodes[0].motion, t)
        d = np.linalg.norm(rx - tx)
        data[m] += LAM / (FOUR_PI * d) * np.exp(-2j * np.pi * d / LAM) * np.exp(
            -2j * np.pi * k * w.delta_f * d / C0)
        points = list(zip(scene.clutter.positions, scene.clutter.amplitudes))
        position, velocity = scalar_pose(target.trajectory, t)
        vx, vy = velocity[:2]
        yaw = math.atan2(vy, vx) if math.hypot(vx, vy) >= 1e-12 else 0.0
        rot = np.array([[math.cos(yaw), -math.sin(yaw), 0], [math.sin(yaw), math.cos(yaw), 0],
                        [0, 0, 1]])
        points += [(position + rot @ b, a) for b, a in zip(target.body.positions, target.body.amplitudes)]
        for b in range(blades["blades"]):
            ang = blades["phase0"] + blades["rate"] * t + 2 * np.pi * b / blades["blades"]
            for s in range(1, blades["samples_per_blade"] + 1):
                r = blades["radius"] * s / blades["samples_per_blade"]
                pos = blades["hub"] + r * (math.cos(ang) * e1 + math.sin(ang) * e2)
                points.append((pos, blades["sample_amplitude"]))
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
        cube = synth_cfr(link_callback(scene, *scene.links()[0], w.symbol_times()), w)
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
            cloud([[0, 0, 0]], [1.0]), Trajectory.from_waypoints(track))])
        blocks = []

        geometric = link_callback(scene, *scene.links()[0], w.symbol_times())

        def callback(rows):
            blocks.append(w.symbol_times()[rows])
            return geometric(rows)

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
        blades = rotor(vec3(50, 40, 0), vec3(0, 0, 1), 0.3, 200.0, blades=2, samples_per_blade=32)
        scene = basic_scene(targets=[blades], include_los=False)
        assert w.n_symbols * 64 * w.n_subcarriers * 16 >= 1e9
        tracemalloc.start()
        try:
            cube = synth_cfr(link_callback(scene, *scene.links()[0], w.symbol_times()), w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32e6
        assert np.all(np.isfinite(cube.data)) and np.sum(np.abs(cube.data) ** 2) > 0


# A target and an Rx on straight tracks, the target crossing close to both nodes, with a
# clutter point and LoS: every path of its one link has its own range acceleration
STRAIGHT_TRACKS = {
    "t0": 0.2,
    "waveform": {"carrier_hz": 3.7e9, "bandwidth_hz": 40e6, "n_subcarriers": 64, "n_symbols": 2048},
    "scene": {
        "tx_nodes": [{"id": "tx0", "position": [0.0, 0.0, 0.0]}],
        "rx_nodes": [{"id": "rx0", "trajectory": [[0.0, [100.0, -4.0, 0.0]], [1.0, [100.0, 16.0, 0.0]]]}],
        "targets": [{"kind": "rigid", "name": "crosser", "yaw": "track",
                     "scatterers": [{"amplitude": 1.0}, {"offset": [0.5, 0.2, 0.0], "amplitude": 0.5}],
                     "trajectory": [[0.0, [50.0, 8.0, 0.0]], [1.0, [50.0, 68.0, 0.0]]]}],
        "clutter": [{"position": [60.0, -30.0, 0.0], "amplitude": 1.0}],
    },
}


def range_acceleration(scene, tx_node, rx_node, times) -> np.ndarray:
    """R'' = sum over hops of |v_⊥|²/d of each path of link_paths at the times, (len(times), P).

    On straight tracks each end of a hop moves at a constant velocity, so a hop of length
    d = |Δp| has d' = Δv·Δp/d and d'' = (|Δv|² - d'²)/d = |v_⊥|²/d, v_⊥ the part of the
    relative velocity Δv across the line of sight.
    """
    def hop(a, va, b, vb):
        dp, dv = a - b, va - vb
        d = np.linalg.norm(dp, axis=-1)
        rate = np.sum(dv * dp, axis=-1) / d
        return (np.sum(dv * dv, axis=-1) - rate ** 2) / d

    shape = (len(times), 1, 3)
    tx, rx = tx_node.pose(times), rx_node.pose(times)
    (tp, tv), (rp, rv) = [(np.broadcast_to(n.position, (len(times), 3))[:, None],
                           np.broadcast_to(n.velocity, (len(times), 3))[:, None]) for n in (tx, rx)]
    points = [(np.broadcast_to(c, shape), np.zeros(shape)) for c in scene.clutter.positions]
    for target in scene.targets:
        st = states(target, times, doppler=True)
        points.append((st.positions, st.velocities))
    curvature = [hop(tp, tv, rp, rv)] if scene.include_los else []
    curvature += [hop(p, v, tp, tv) + hop(p, v, rp, rv) for p, v in points]
    return np.concatenate(curvature, axis=1)


class TestFixedModeBound:
    """Fixed mode against geometric mode, path by path, within the second-order Taylor term.

    A path of bistatic range R(t) has the geometric phase -2π(f_c + kΔf)R(t)/c at subcarrier
    k, its gain carrying the carrier's share. Fixed mode takes the t0 table to first order,
    delay τ0 - (f_D / f_c)Δt with f_D = -R'0/λ, that is (R0 + R'0Δt)/c, and gain
    a0 exp(+j2π f_D Δt), so its phase is -2π(f_c + kΔf)(R0 + R'0Δt)/c. Taylor's theorem with
    the Lagrange remainder gives R(t) - R0 - R'0Δt = R''(ξ)Δt²/2 for some ξ in [t0, t], so the
    phase error is at most π(f_c + kΔf)·max|R''|·Δt²/c: π f_c (R''/c) Δt², plus the ramp share
    kΔf/f_c < B/f_c of it. On straight tracks R'' is range_acceleration's closed form. A
    delay held at τ0 would add the first-order error 2πkΔf|R'0|Δt/c, which both scenes make
    larger than the bound, so the test tells the two apart.
    """

    @pytest.mark.parametrize("scene", ["FULL_SCENE", "STRAIGHT_TRACKS"])
    def test_each_path_within_the_second_order_term(self, scene):
        doc = yaml.safe_load(textwrap.dedent(FULL_SCENE)) if scene == "FULL_SCENE" else STRAIGHT_TRACKS
        cfg = parse_config(doc)
        w, t0 = cfg.waveform, cfg.t0
        dt = np.arange(w.n_symbols) * w.t_sym
        freqs = w.subcarrier_frequencies()
        frozen_over = tight = 0.0
        for tx_node, rx_node in cfg.scene.links():
            table = link_paths(cfg.scene, tx_node.pose(t0), rx_node.pose(t0), t0, doppler=True)
            geometric = link_callback(cfg.scene, tx_node, rx_node, t0 + dt)
            curvature = range_acceleration(cfg.scene, tx_node, rx_node, t0 + dt).max(axis=0)
            for p in range(len(table)):
                def alone(rows, p=p):
                    delay, gain = geometric(rows)
                    return delay[:, [p]], gain[:, [p]]

                path = PathTable(table.delay[[p]], table.gain[[p]], table.doppler[[p]])
                fixed = synth_cfr(first_order(path, w), w)
                geo = synth_cfr(alone, w)
                error = np.abs(np.angle(geo.data * np.conj(fixed.data)))
                bound = np.pi * np.outer(curvature[p] * dt ** 2, freqs) / C0
                # 1e-9 rad covers rounding: a carrier phase of 2πR/λ < 4e4 rad carries about 1e-11
                assert np.all(error <= bound * (1 + 1e-6) + 1e-9), (p, (error - bound).max())
                if curvature[p] > 0:
                    frozen = 2 * np.pi * (freqs[-1] - w.f_c) * abs(table.doppler[p]) / w.f_c * dt[-1]
                    frozen_over = max(frozen_over, frozen / bound[-1, -1])
                    tight = max(tight, error[-1, 0] / bound[-1, 0])
        # a frozen delay breaks the bound on some path, and the bound is the error's own
        # order: at the last symbol it is within a factor 2 of it
        assert frozen_over > 1 and tight > 0.5, (frozen_over, tight)

    def test_full_scene_within_1e3_of_each_row_peak(self):
        # measured 7.3e-4, 8.8e-4 and 3.9e-4 of the row peak; delays held at t0 give 4.0e-3,
        # 7.0e-3 and 2.8e-3
        doc = yaml.safe_load(textwrap.dedent(FULL_SCENE))
        doc.pop("noise")
        cubes = {mode: [cube.data for _, cube in simulated_links(parse_config(dict(doc, mode=mode)))]
                 for mode in ("fixed", "geometric")}
        for fixed, geo in zip(cubes["fixed"], cubes["geometric"]):
            assert (np.abs(fixed - geo).max(axis=1) / np.abs(geo).max(axis=1)).max() <= 1e-3

    def test_a_scene_at_rest_gives_bit_equal_modes(self):
        # with the car held at one waypoint nothing moves: geometric mode's link_callback gives the
        # t0 table at every symbol, and first_order carries it with zero Dopplers, delay τ - 0 and
        # gain a·exp(0), so the two row callbacks give the same rows and the same cubes
        doc = yaml.safe_load(textwrap.dedent(FULL_SCENE))
        doc.update(noise={})
        doc["scene"]["targets"][0]["trajectory"] = doc["scene"]["targets"][0]["trajectory"][:1]
        cubes = {mode: [cube.data for _, cube in simulated_links(parse_config(dict(doc, mode=mode)))]
                 for mode in ("fixed", "geometric")}
        assert len(cubes["fixed"]) == 3
        assert all(np.array_equal(a, b) for a, b in zip(cubes["fixed"], cubes["geometric"]))


class TestFrameInvariance:
    """FULL_SCENE simulate without noise, as given and moved: every node, waypoint and clutter
    position translated by OFFSET, or t0 and every waypoint time shifted by SHIFT. Synthesis sees
    only relative positions and times since t0, so the cubes stay the same."""

    OFFSET, SHIFT = np.array([1000.0, -500.0, 0.0]), 0.25

    def moved(self, doc, transform) -> dict:
        """doc, in place, translated by OFFSET ("translate") or shifted in time by SHIFT."""
        offset, shift = (self.OFFSET, 0.0) if transform == "translate" else (np.zeros(3), self.SHIFT)
        scene = doc["scene"]
        for item in scene["tx_nodes"] + scene["rx_nodes"] + scene["clutter"]:
            item["position"] = (item["position"] + offset).tolist()
        for target in scene["targets"]:
            target["trajectory"] = [[t + shift, (p + offset).tolist()] for t, p in target["trajectory"]]
        doc["t0"] = shift
        return doc

    def cubes(self, mode, transform, tmp_path):
        doc = yaml.safe_load(textwrap.dedent(FULL_SCENE))
        doc.update(mode=mode, noise={})
        given = parse_config(doc)
        moved = parse_config(self.moved(doc, transform))
        runs = [pipeline.run("simulate", cfg, tmp_path)[0].datasets for cfg in (given, moved)]
        names = [f"cfr_{tx.node_id}_{rx.node_id}" for tx, rx in moved.scene.links()]
        return moved, [(runs[0][n].values, runs[1][n].values) for n in names]

    @pytest.mark.parametrize("transform", ["translate", "shift"])
    def test_fixed_mode_cubes_are_bit_equal(self, transform, tmp_path):
        # fixed mode takes the paths at t0, where every moved position is exact
        _, pairs = self.cubes("fixed", transform, tmp_path)
        assert len(pairs) == 3 and all(np.array_equal(a, b) for a, b in pairs)

    @pytest.mark.parametrize("transform", ["translate", "shift"])
    def test_geometric_cubes_within_the_rounding_of_the_largest_coordinate(self, transform, tmp_path):
        # a coordinate of size X rounds by up to εX/2, so a hop's length moves by up to √3·εX from
        # its two ends, a path's two hops by 2√3·εX, and the norms' own rounding adds under εX:
        # each path's carrier phase moves by at most 2π·5·εX/λ, its CFR term by |a|·2π·5·εX/λ
        cfg, pairs = self.cubes("geometric", transform, tmp_path)
        scene = cfg.scene
        x = np.abs(np.concatenate([[n.pose(cfg.t0).position for n in scene.tx_nodes + scene.rx_nodes],
                                   scene.targets[0].trajectory.points, scene.clutter.positions])).max()
        for (tx, rx), (a, b) in zip(scene.links(), pairs):
            gains = link_paths(scene, tx.pose(cfg.t0), rx.pose(cfg.t0), cfg.t0).gain
            bound = np.abs(gains).sum() * 2 * np.pi * 5 * np.finfo(float).eps * x / scene.wavelength
            assert np.abs(a - b).max() <= bound

    @pytest.mark.parametrize("mode", ["fixed", "geometric"])
    def test_swapping_tx_and_rx_keeps_the_cube(self, mode):
        # FULL_SCENE's first link, tx0 -> rx0, and the same link with its two nodes swapped. Every
        # hop length, delay and carrier phase is the same bit for bit: a sum d_tx + d_rx, a Doppler
        # sum and the norm of a negated vector all are. Only a scattered path's 4π·d_tx·d_rx takes
        # its factors in the other order: each order is within ε of the exact product, and the
        # division and the complex product with the carrier phasor add ε/2 and √5·ε/2 a side, so
        # the gains differ by under 6ε|w|. path_rows then rounds each entry's product into its
        # high ramp and its P-term dot product, within (P + 1)·2ε·Σ|w| a side (|z^k| = 1 to
        # rounding). So |Δ| <= (6 + 4(P + 1))·ε·Σ|w| at the symbol of largest Σ|w|.
        doc = yaml.safe_load(textwrap.dedent(FULL_SCENE))
        doc.update(mode=mode, noise={})
        scene = doc["scene"]
        scene["rx_nodes"] = scene["rx_nodes"][:1]
        cfgs = [parse_config(doc), parse_config(dict(doc, scene=dict(
            scene, tx_nodes=scene["rx_nodes"], rx_nodes=scene["tx_nodes"])))]
        (a,), (b,) = [[cube.data for _, cube in simulated_links(cfg)] for cfg in cfgs]
        if mode == "fixed":
            # the t0 table's gains round alike in both orders here: measured 0
            assert np.array_equal(a, b)
            return
        cfg = cfgs[0]
        times = cfg.waveform.symbol_times(cfg.t0)
        (tx, rx), = cfg.scene.links()
        gains = link_paths(cfg.scene, tx.pose(times), rx.pose(times), times).gain
        bound = (6 + 4 * (gains.shape[1] + 1)) * np.finfo(float).eps * np.abs(gains).sum(axis=1).max()
        assert np.abs(a - b).max() <= bound

    THETA = 0.7   # rad

    def turned_full_scene(self, mode, yaw):
        """FULL_SCENE's cubes, noise off, as given and turned by THETA about z, the car given a
        second scatterer off its origin so the turn reaches the body, and the yaw (None: none;
        "track" stays "track") that it turns with; and the bound on each link's |Δ|.

        A turn rounds each coordinate of a point at distance ρ from the z axis by under
        (√2 + 1/2)ερ (the rounded cos and sin, two products and a sum), so a point moves by
        under 3εX, X the largest ρ: a node by 3εX, and the car by 3εX from its waypoints, 2εX a
        side from interpolating them, and under εX from turning its body by the rounded yaw (the
        unturned car without a yaw keeps its body exact). A "track" yaw is arctan2 of the slope
        of waypoints Δp apart, which their 3εX a side and the rounding of its difference and
        quotient move by under 6εX + 2ε|Δp|, so its direction turns by under (6X/|Δp| + 2)ε;
        arctan2 rounds each side's heading by under 2 ulps, 4ε for |h| <= π, and the turn
        rounds θ by under ε, so the body, ρ_b from the car's origin at most, moves by under
        ρ_b(6X/|Δp| + 11)ε, which the test checks is within that εX. A path's two hops move by
        up to 2·(3 + 7)εX = 20εX, and the norms' own rounding adds under 3εX. Fixed mode's Dopplers
        come from waypoint slopes, which move by 6εX/Δt for waypoints Δt apart, so over the
        capture's span T its phase moves by up to 2π·2·6εX·(T/Δt)/λ more. Each path's CFR term
        moves by |a| times the phase bound."""
        doc = yaml.safe_load(textwrap.dedent(FULL_SCENE))
        doc.update(mode=mode, noise={})
        car = doc["scene"]["targets"][0]
        car["scatterers"] = [*car["scatterers"], {"offset": [1.5, -0.75, 0.5], "amplitude": 1.0}]
        if yaw is not None:
            car["yaw"] = yaw
        turned = copy.deepcopy(doc)
        scene = turned["scene"]
        for item in scene["tx_nodes"] + scene["rx_nodes"] + scene["clutter"]:
            item["position"] = self.turn(item["position"])
        turned_car = scene["targets"][0]
        turned_car["trajectory"] = [[t, self.turn(p)] for t, p in turned_car["trajectory"]]
        turned_car["yaw"] = self.THETA if yaw is None else yaw if yaw == "track" else yaw + self.THETA
        cfgs = [parse_config(doc), parse_config(turned)]
        a, b = [[cube.data for _, cube in simulated_links(cfg)] for cfg in cfgs]
        cfg = cfgs[0]
        points = np.concatenate([[n.pose(cfg.t0).position for n in cfg.scene.tx_nodes + cfg.scene.rx_nodes],
                                 cfg.scene.targets[0].trajectory.points, cfg.scene.clutter.positions])
        x = np.hypot(points[:, 0], points[:, 1]).max()
        waypoint_dt = np.diff(cfg.scene.targets[0].trajectory.times).min()
        if yaw == "track":
            step = np.linalg.norm(np.diff(cfg.scene.targets[0].trajectory.points, axis=0), axis=1).min()
            rho = np.hypot(*cfg.scene.targets[0].body.positions[:, :2].T).max()
            assert rho * (6 * x / step + 11) <= x   # 72 against 300 here
        k = 23 + (12 * cfg.waveform.duration / waypoint_dt if mode == "fixed" else 0)
        assert len(a) == 3
        for (tx, rx), cube, turned_cube in zip(cfg.scene.links(), a, b):
            gains = link_paths(cfg.scene, tx.pose(cfg.t0), rx.pose(cfg.t0), cfg.t0).gain
            bound = np.abs(gains).sum() * 2 * np.pi * k * np.finfo(float).eps * x / cfg.scene.wavelength
            yield np.abs(cube - turned_cube).max(), bound

    def turn(self, p):
        c, s = np.cos(self.THETA), np.sin(self.THETA)
        return [c * p[0] - s * p[1], s * p[0] + c * p[1], p[2]]

    @pytest.mark.parametrize("mode", ["fixed", "geometric"])
    def test_turning_the_scene_about_z_keeps_the_cube(self, mode):
        # the car has a float yaw, which grows by THETA; measured 3.4e-13 (geometric) and 1.3e-13
        # (fixed) of the cube's peak
        for delta, bound in self.turned_full_scene(mode, 0.3):
            assert delta <= bound

    @pytest.mark.parametrize("mode", ["fixed", "geometric"])
    def test_turning_a_target_without_a_yaw_gives_it_the_turn_as_its_yaw(self, mode):
        for delta, bound in self.turned_full_scene(mode, None):
            assert delta <= bound

    @pytest.mark.parametrize("mode", ["fixed", "geometric"])
    def test_turning_a_track_yawed_target_keeps_its_track_yaw(self, mode):
        # the heading turns with the track, through arctan2 of the turned slope
        for delta, bound in self.turned_full_scene(mode, "track"):
            assert delta <= bound

    def test_turning_a_rotor_turns_its_hub_and_its_tilted_spin_axis(self):
        # ROTOR_SCENE with its spin axis tilted off z, turned by THETA about z: every node, the
        # hub and the axis. rotor() starts its blades from e1 = unit(z × axis) for an axis more
        # than acos(0.9) off z, and z × (Tz a) = Tz (z × a), so the turned rotor's body is the
        # turned body, its spin the turned spin, and every sample at time t the turned sample.
        # Rounding, for X the largest ρ of a node or the hub plus the radius r: nodes and hub
        # move by under 3εX as a turned point does, and hub + R(t)·b adds under εX a side. The
        # turned axis a' is within 3ε of Tz a; the spin's three terms take a'a'ᵀ (6ε), [a']ₓ
        # (3ε) and a'a'ᵀ again (6ε), and each side rounds its sums of products by under 12ε, so
        # R' is within 15 + 24 = 39ε of Tz R Tzᵀ. e1' moves by 2·3ε/|a_xy| (|a_xy| >= 0.43 here,
        # so 14ε) and 4ε of rounding, e2' = a' × e1' by 3 + 18 + 2ε, and b = r(cos e1 + sin e2)
        # rounds by 3ε: a blade sample moves by under (18 + 23 + 3)·ε·r = 44εr, and R'·b' by
        # (39 + 44 + 6)εr, under 100εr. A path's two hops so move by up to
        # 2·(3 + 3 + 2)εX + 2·100εr, and the norms' own rounding adds under 3εX. Subcarrier
        # phases take delays at up to f_c + B, so λ is C0/(f_c + B); each path's CFR term moves
        # by |a| times 2π/λ times that length bound.
        doc = yaml.safe_load(textwrap.dedent(ROTOR_SCENE))
        rotor_doc = doc["scene"]["targets"][0]
        rotor_doc["axis"] = [0.6, 0.0, 0.8]
        turned = copy.deepcopy(doc)
        scene = turned["scene"]
        for item in scene["tx_nodes"] + scene["rx_nodes"]:
            item["position"] = self.turn(item["position"])
        turned_rotor = scene["targets"][0]
        turned_rotor["hub"], turned_rotor["axis"] = self.turn(rotor_doc["hub"]), self.turn(rotor_doc["axis"])
        cfgs = [parse_config(doc), parse_config(turned)]
        (a,), (b,) = [[cube.data for _, cube in simulated_links(cfg)] for cfg in cfgs]
        cfg = cfgs[0]
        points = np.array([n.pose(cfg.t0).position for n in cfg.scene.tx_nodes + cfg.scene.rx_nodes])
        r = rotor_doc["radius"]
        x = max(np.hypot(points[:, 0], points[:, 1]).max(), np.hypot(*rotor_doc["hub"][:2]) + r)
        w = cfg.waveform
        wavelength = C0 / (w.f_c + w.bandwidth)
        times = w.symbol_times(cfg.t0)
        (tx, rx), = cfg.scene.links()
        gains = link_paths(cfg.scene, tx.pose(times), rx.pose(times), times).gain
        length = (2 * 8 + 3) * x + 2 * 100 * r
        bound = np.abs(gains).sum(axis=1).max() * 2 * np.pi * length * np.finfo(float).eps / wavelength
        assert np.abs(a - b).max() <= bound

    def test_ddmap_and_localize_move_with_a_translated_scene(self, tmp_path):
        """FULL_SCENE in fixed mode, noise as given, and translated by OFFSET: the cubes, so the
        noise, the DD maps and every detection are the same bit for bit, and localize's position
        moves by OFFSET and its velocity stays, within rounding and the solver's tolerance.

        Only the LoS delays and the fusion's hops see the moved coordinates, each rounded by up
        to εX/2, X the largest coordinate. A link's range target, C0·excess + baseline, takes
        the baseline norm twice (through the LoS delay and directly), each moved by under
        √3εX + εD in either frame, D <= R the baseline, and its own sums and products round by
        under 3εR, R the largest target: under 4√3εX + 7εR between the frames. A range that the
        solver evaluates sums two hops of under √3εX + εR each: 4√3εX + 4εR between the frames.
        So each link's misfit moves by under δ = 8√3εX + 11εR, and the least-squares minimiser
        by under √L·δ/σ, σ the least singular value of the range Jacobian (rows û_tx + û_rx). Each
        frame's Gauss-Newton stops on a step under _STEP_TOL, which its quadratic convergence
        here leaves within _STEP_TOL of that frame's minimiser; the moved estimate rounds by εX.
        So |Δp - OFFSET| <= 2·_STEP_TOL + √L·δ/σ + εX = B_p.
        The Dopplers are the same, so the velocity solve sees only its rows -(û_tx + û_rx)/λ
        move: each unit vector by under 2e/d for a point e = B_p + √3εX off at hop length d.
        With A's least singular value s, least-squares residual r and ‖δA‖_F from those rows,
        the first-order bound ‖A⁺‖‖δA‖(‖v‖ + ‖A⁺‖‖r‖), doubled for the second-order terms, holds
        |Δv|."""
        doc = yaml.safe_load(textwrap.dedent(FULL_SCENE))
        doc["mode"] = "fixed"
        cfgs = [parse_config(doc), parse_config(self.moved(copy.deepcopy(doc), "translate"))]
        maps, dets, estimates = [], [], []
        for k, cfg in enumerate(cfgs):
            archive = pipeline.run("ddmap", cfg, tmp_path / f"d{k}")[0]
            maps.append([ds.values for ds in archive.datasets.values()])
            dets.append([[(d["delay_s"], d["doppler_hz"], d["power_db"]) for d in link["detections"]]
                         for link in archive.summary["results"].values()])
            estimates.append(pipeline.run("localize", cfg, tmp_path / f"l{k}")[0].summary["results"]["estimate"])
        assert len(maps[0]) == 3 and all(np.array_equal(a, b) for a, b in zip(*maps))
        assert dets[0] == dets[1] and all(dets[0])
        eps = np.finfo(float).eps
        p0, p1 = (np.array(e["position_m"]) for e in estimates)
        v0, v1 = (np.array(e["velocity_m_s"]) for e in estimates)
        moved = cfgs[1].scene
        x = np.abs(np.concatenate([[n.pose(0.0).position for n in moved.tx_nodes + moved.rx_nodes],
                                   moved.targets[0].trajectory.points, moved.clutter.positions, [p1]])).max()
        tx = np.array([tx.pose(0.0).position for tx, _ in cfgs[0].scene.links()])
        rx = np.array([rx.pose(0.0).position for _, rx in cfgs[0].scene.links()])
        hops = [p0 - tx, p0 - rx]
        d_tx, d_rx = (np.linalg.norm(h, axis=1) for h in hops)
        r = (d_tx + d_rx).max()
        u = hops[0] / d_tx[:, None] + hops[1] / d_rx[:, None]
        delta = 8 * np.sqrt(3) * eps * x + 11 * eps * r
        bound_p = 2 * fusion._STEP_TOL + np.sqrt(len(tx)) * delta / np.linalg.svd(u[:, :2], compute_uv=False)[-1] \
            + eps * x
        assert np.linalg.norm(p1 - p0 - self.OFFSET) <= bound_p
        lam = cfgs[0].scene.wavelength
        a = -u[:, :2] / lam
        pinv = 1 / np.linalg.svd(a, compute_uv=False)[-1]
        e = bound_p + np.sqrt(3) * eps * x
        da = np.sqrt((((2 * e / d_tx + 2 * e / d_rx) / lam) ** 2).sum())
        residual = estimates[0]["velocity_residual_rms_hz"] * np.sqrt(len(tx))
        assert np.linalg.norm(v1 - v0) <= 2 * pinv * da * (np.linalg.norm(v0) + pinv * residual)

    def test_ddmap_and_localize_stay_with_a_time_shifted_scene(self, tmp_path):
        """FULL_SCENE in fixed mode, noise as given, and shifted in time by SHIFT: every pose at
        t0 = SHIFT is exact, so the cubes, the DD maps, every detection and localize's position
        and velocity are the same bit for bit."""
        doc = yaml.safe_load(textwrap.dedent(FULL_SCENE))
        doc["mode"] = "fixed"
        cfgs = [parse_config(doc), parse_config(self.moved(copy.deepcopy(doc), "shift"))]
        maps, dets, estimates = [], [], []
        for k, cfg in enumerate(cfgs):
            archive = pipeline.run("ddmap", cfg, tmp_path / f"d{k}")[0]
            maps.append([ds.values for ds in archive.datasets.values()])
            dets.append([[(d["delay_s"], d["doppler_hz"], d["power_db"]) for d in link["detections"]]
                         for link in archive.summary["results"].values()])
            located = pipeline.run("localize", cfg, tmp_path / f"l{k}")[0].datasets
            estimates.append([located[name].values for name in ("position", "velocity")])
        assert len(maps[0]) == 3 and all(np.array_equal(a, b) for a, b in zip(*maps))
        assert dets[0] == dets[1] and all(dets[0])
        assert all(np.array_equal(a, b) for a, b in zip(*estimates))


class TestIlluminationPaths:
    def test_direct_plus_bounces(self):
        scene = basic_scene(
            clutter=cloud([vec3(20, 30, 0), vec3(40, -25, 0)], [1.5, 1.0])
        )
        point = vec3(60, 10, 0)
        paths = illumination_paths(scene, scene.tx_nodes[0].pose(0.0), NodePose(point))
        assert len(paths) == 3
        assert paths.delay[0] == pytest.approx(np.linalg.norm(point) / C0)
        assert paths.delay[1] > paths.delay[0]

    def test_moving_point_gets_per_path_doppler(self):
        scene = basic_scene(clutter=cloud([vec3(20, 30, 0)], [1.5]))
        moving = NodePose(vec3(60, 10, 0), vec3(-12, 3, 0))
        paths = illumination_paths(scene, scene.tx_nodes[0].pose(0.0), moving)
        dopplers = {round(f, 6) for f in paths.doppler.tolist()}
        assert len(dopplers) == len(paths)  # distinct per-path shifts
        out = doppler_precompensate(paths)
        assert out.spread_before_hz > 0
        assert out.spread_after_hz == 0.0

    def test_focusing_gain_over_multipath(self):
        scene = basic_scene(
            clutter=cloud([vec3(20, 35, 0), vec3(45, -30, 0)], [4.0, 4.0])
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
