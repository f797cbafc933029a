import tracemalloc

import numpy as np
import pytest
from scipy.optimize import least_squares

from bisim import fusion
from bisim.errors import ConfigError
from bisim.fusion import (
    BistaticObservation,
    estimate_velocity,
    fuse,
    geometry_condition,
    localize,
)
from bisim.geometry import C0, NodePose, bistatic_doppler, bistatic_range, vec3

LAM = C0 / 3.7e9


def make_obs(nodes, links, target, velocity=None, lam=LAM):
    velocity = np.zeros(3) if velocity is None else np.asarray(velocity, float)
    obs = []
    for tx_id, rx_id in links:
        tx, rx = nodes[tx_id], nodes[rx_id]
        _, excess = bistatic_range(tx.position, rx.position, target)
        fd = bistatic_doppler(tx, rx, target, velocity, lam)
        obs.append(BistaticObservation(tx, rx, excess / C0, fd, lam))
    return obs


def three_link_scene(rng, span=80.0, min_cond=None):
    """Random planar scene: one Tx, three Rx spread around a target."""
    while True:
        target = np.append(rng.uniform(-span / 3, span / 3, 2), 0.0)
        vel = np.append(rng.uniform(-20, 20, 2), 0.0)
        angles = rng.uniform(0, 2 * np.pi) + np.array([0, 1, 2]) * (2 * np.pi / 3)
        angles += rng.uniform(-0.3, 0.3, 3)
        radii = rng.uniform(0.5 * span, span, 3)
        rx = [
            target + radii[i] * np.array([np.cos(a), np.sin(a), 0.0])
            for i, a in enumerate(angles)
        ]
        tx = np.append(rng.uniform(-span, span, 2), 0.0)
        if min(np.linalg.norm(target - p) for p in [tx, *rx]) < 5.0:
            continue
        nodes = {
            "tx0": NodePose(tx),
            "rx0": NodePose(rx[0]),
            "rx1": NodePose(rx[1]),
            "rx2": NodePose(rx[2]),
        }
        links = [("tx0", "rx0"), ("tx0", "rx1"), ("tx0", "rx2")]
        if min_cond is not None:
            cond = geometry_condition(
                [(nodes[a], nodes[b]) for a, b in links], target, dim=2
            )
            if cond["position_gdop"] > min_cond:
                continue
        return nodes, links, target, vel


class TestLocalize:
    def test_three_links_recover_position(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            nodes, links, target, _ = three_link_scene(rng, min_cond=20.0)
            obs = make_obs(nodes, links, target)
            est = localize(obs, dim=2)
            assert est.converged
            assert np.linalg.norm(est.position - target) <= 1e-6
            assert not est.ambiguous

    def test_agrees_with_brute_force_grid_oracle(self):
        rng = np.random.default_rng(32)
        nodes, links, target, _ = three_link_scene(rng, min_cond=20.0)
        obs = make_obs(nodes, links, target)
        est = localize(obs, dim=2)

        # independent oracle: dense 1 cm grid around the scene center
        xs = np.arange(target[0] - 2.0, target[0] + 2.0, 0.01)
        ys = np.arange(target[1] - 2.0, target[1] + 2.0, 0.01)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        cost = np.zeros_like(gx)
        for o, (a, b) in zip(obs, links):
            tx, rx = nodes[a], nodes[b]
            baseline = np.linalg.norm(rx.position - tx.position)
            rb = C0 * o.excess_delay + baseline
            d1 = np.hypot(gx - tx.position[0], gy - tx.position[1])
            d2 = np.hypot(gx - rx.position[0], gy - rx.position[1])
            cost += (d1 + d2 - rb) ** 2
        i, j = np.unravel_index(np.argmin(cost), cost.shape)
        oracle = np.array([xs[i], ys[j], 0.0])
        assert np.linalg.norm(est.position - oracle) <= 0.01

    def test_two_links_return_twin_solutions(self):
        # all nodes collinear: ellipse intersections mirror across the axis
        nodes = {
            "tx0": NodePose(vec3(-50, 0, 0)),
            "rx0": NodePose(vec3(50, 0, 0)),
            "rx1": NodePose(vec3(10, 0, 0)),
        }
        target = vec3(15, 30, 0)
        twin = vec3(15, -30, 0)
        obs = make_obs(nodes, [("tx0", "rx0"), ("tx0", "rx1")], target)
        est = localize(obs, dim=2)
        assert est.ambiguous
        found = [est.position, *est.alternates]
        d_target = min(np.linalg.norm(p - target) for p in found)
        d_twin = min(np.linalg.norm(p - twin) for p in found)
        assert d_target <= 1e-6
        assert d_twin <= 1e-6

    def test_forward_scattering_degenerate(self):
        nodes = {
            "tx0": NodePose(vec3(-40, 0, 0)),
            "rx0": NodePose(vec3(40, 0, 0)),
        }
        obs = [BistaticObservation(nodes["tx0"], nodes["rx0"], 0.0, 0.0, LAM)]
        est = localize(obs, dim=2)
        assert est.ambiguous
        assert est.position_residual_rms <= 1e-6

    def test_one_link_in_two_d_is_unconditioned(self):
        # one range row cannot fix two axes: the same verdict as geometry_condition
        nodes = {"tx0": NodePose(vec3(-40, 0, 0)),
                 "rx0": NodePose(vec3(40, 0, 0))}
        target = vec3(5, 30, 0)
        est = fuse(make_obs(nodes, [("tx0", "rx0")], target, velocity=vec3(3, -2, 0)), dim=2)
        assert est.ambiguous
        assert np.isinf(est.range_condition)
        assert np.isinf(est.doppler_condition)
        gdop = geometry_condition([(nodes["tx0"], nodes["rx0"])], est.position, dim=2)
        assert np.isinf(gdop["position_gdop"]) and np.isinf(gdop["velocity_condition"])

    def test_no_observations_rejected(self):
        with pytest.raises(ConfigError):
            localize([], dim=2)

    def test_three_d_recovery(self):
        nodes = {
            "tx0": NodePose(vec3(-30, 0, 2)),
            "rx0": NodePose(vec3(30, 5, 0)),
            "rx1": NodePose(vec3(0, 35, 10)),
            "rx2": NodePose(vec3(-5, -28, 6)),
            "rx3": NodePose(vec3(12, 8, 30)),
        }
        target = vec3(4, 7, 12)
        links = [("tx0", r) for r in ("rx0", "rx1", "rx2", "rx3")]
        obs = make_obs(nodes, links, target)
        est = localize(obs, dim=3, grid_cell=2.0)
        assert np.linalg.norm(est.position - target) <= 1e-6


class TestEstimateVelocity:
    def test_tangential_single_link_is_blind(self):
        nodes = {
            "tx0": NodePose(vec3(-50, 0, 0)),
            "rx0": NodePose(vec3(50, 0, 0)),
        }
        target = vec3(0, 40, 0)
        vel = vec3(9.0, 0, 0)  # tangential to the iso-range ellipse here
        obs = make_obs(nodes, [("tx0", "rx0")], target, vel)
        assert obs[0].doppler == pytest.approx(0.0, abs=1e-9)
        est = estimate_velocity(obs, target, dim=2)
        assert est.doppler_rank == 1
        assert est.blind_directions is not None
        assert np.linalg.norm(est.velocity) <= 1e-9
        # the blind direction is the tangential (x) axis
        blind = est.blind_directions[:, 0]
        assert abs(abs(blind[0]) - 1.0) <= 1e-9

    def test_three_links_recover_velocity(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            nodes, links, target, vel = three_link_scene(rng, min_cond=20.0)
            obs = make_obs(nodes, links, target, vel)
            est = estimate_velocity(obs, target, dim=2)
            assert est.doppler_rank == 2
            assert np.linalg.norm(est.velocity - vel) <= 1e-9

    def test_moving_nodes_compensated(self):
        nodes = {
            "tx0": NodePose(vec3(-60, 10, 0), vec3(5, -3, 0)),
            "rx0": NodePose(vec3(70, 0, 0), vec3(-4, 2, 0)),
            "rx1": NodePose(vec3(0, 90, 0), vec3(1, 6, 0)),
        }
        target = vec3(5, 20, 0)
        vel = vec3(-7, 11, 0)
        obs = make_obs(nodes, [("tx0", "rx0"), ("tx0", "rx1")], target, vel)
        est = estimate_velocity(obs, target, dim=2)
        assert np.linalg.norm(est.velocity - vel) <= 1e-9

    def test_blind_directions_are_null_space(self):
        nodes = {
            "tx0": NodePose(vec3(-50, 0, 0)),
            "rx0": NodePose(vec3(50, 0, 0)),
        }
        target = vec3(10, 25, 0)
        obs = make_obs(nodes, [("tx0", "rx0")], target, vec3(3, 4, 0))
        est = estimate_velocity(obs, target, dim=2)
        tx, rx = nodes["tx0"], nodes["rx0"]
        u1 = (target - tx.position) / np.linalg.norm(target - tx.position)
        u2 = (target - rx.position) / np.linalg.norm(target - rx.position)
        row = (u1 + u2)[:2]
        assert np.abs(row @ est.blind_directions).max() <= 1e-12


class TestGeometryCondition:
    def test_collinear_links_degenerate(self):
        target = vec3(0, 0, 0)
        links = [
            (NodePose(vec3(-50, 0, 0)), NodePose(vec3(-20, 0, 0))),
            (NodePose(vec3(20, 0, 0)), NodePose(vec3(50, 0, 0))),
            (NodePose(vec3(-80, 0, 0)), NodePose(vec3(80, 0, 0))),
        ]
        out = geometry_condition(links, target, dim=2)
        assert np.isinf(out["position_gdop"])
        assert np.isinf(out["velocity_condition"])

    @pytest.mark.parametrize("wavelengths", [[LAM], [LAM] * 4])
    def test_one_wavelength_per_link_required(self, wavelengths):
        links = [(NodePose(vec3(-50, 0, 0)), NodePose(vec3(50, 0, 0)))] * 3
        with pytest.raises(ConfigError, match="one wavelength per link"):
            geometry_condition(links, vec3(0, 30, 0), wavelengths=wavelengths)

    @pytest.mark.parametrize("dim", [1, 7])
    def test_dim_other_than_two_or_three_rejected(self, dim):
        links = [(NodePose(vec3(-50, 0, 0)), NodePose(vec3(50, 0, 0)))] * 3
        with pytest.raises(ConfigError, match="dim must be 2 or 3"):
            geometry_condition(links, vec3(0, 30, 0), dim=dim)

    def test_symmetric_triangle_well_conditioned(self):
        target = vec3(0, 0, 0)
        links = []
        for a in (90, 210, 330):
            u = np.array([np.cos(np.deg2rad(a)), np.sin(np.deg2rad(a)), 0.0])
            links.append((NodePose(50 * u), NodePose(80 * u)))
        out = geometry_condition(links, target, dim=2)
        assert out["position_gdop"] < 1.5
        assert out["velocity_condition"] < 1.5

    def test_well_placed_fourth_link_never_hurts(self):
        rng = np.random.default_rng(37)
        for _ in range(25):
            nodes, links, target, _ = three_link_scene(rng)
            pairs = [(nodes[a], nodes[b]) for a, b in links]
            base = geometry_condition(pairs, target, dim=2)
            if not np.isfinite(base["position_gdop"]) or base["position_gdop"] < 1.01:
                continue
            rows = []
            for tx, rx in pairs:
                u1 = (target - tx.position) / np.linalg.norm(target - tx.position)
                u2 = (target - rx.position) / np.linalg.norm(target - rx.position)
                rows.append((u1 + u2)[:2])
            _, sv, vt = np.linalg.svd(np.array(rows))
            v_min = np.append(vt[-1], 0.0)
            c = min(0.9 * np.sqrt(sv[0] ** 2 - sv[-1] ** 2), 1.9)
            phi = np.arccos(c / 2.0)
            rot = lambda a: np.array(
                [
                    [np.cos(a), -np.sin(a), 0],
                    [np.sin(a), np.cos(a), 0],
                    [0, 0, 1],
                ]
            )
            d = 60.0
            extra = (
                NodePose(target - d * (rot(phi) @ v_min)),
                NodePose(target - d * (rot(-phi) @ v_min)),
            )
            out = geometry_condition(pairs + [extra], target, dim=2)
            assert out["position_gdop"] <= base["position_gdop"] * (1 + 1e-9)
            assert out["velocity_condition"] <= base["velocity_condition"] * (1 + 1e-9)


class TestClosedLoop:
    def test_fuse_round_trip(self):
        rng = np.random.default_rng(40)
        for _ in range(25):
            nodes, links, target, vel = three_link_scene(rng, min_cond=25.0)
            obs = make_obs(nodes, links, target, vel)
            est = fuse(obs, dim=2)
            assert np.linalg.norm(est.position - target) <= 1e-6
            assert np.linalg.norm(est.velocity - vel) <= 1e-9

    def test_rigid_transform_invariance(self):
        rng = np.random.default_rng(41)
        nodes, links, target, vel = three_link_scene(rng, min_cond=25.0)
        obs = make_obs(nodes, links, target, vel)
        est = fuse(obs, dim=2)

        ang = 0.77
        c, s = np.cos(ang), np.sin(ang)
        rot = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])
        shift = vec3(120, -45, 0)
        moved = {
            k: NodePose(rot @ n.position + shift, rot @ n.velocity)
            for k, n in nodes.items()
        }
        # the measurements are invariants of the geometry: reuse them on the moved poses
        moved_obs = [BistaticObservation(moved[a], moved[b], o.excess_delay, o.doppler, o.wavelength)
                     for o, (a, b) in zip(obs, links)]
        est2 = fuse(moved_obs, dim=2)
        assert np.linalg.norm(est2.position - (rot @ target + shift)) <= 1e-6
        assert np.linalg.norm(est2.velocity - rot @ vel) <= 1e-8

    def test_snapshot_consistency_along_trajectory(self):
        nodes = {
            "tx0": NodePose(vec3(-90, 0, 0)),
            "rx0": NodePose(vec3(90, 10, 0)),
            "rx1": NodePose(vec3(0, 100, 0)),
            "rx2": NodePose(vec3(20, -80, 0)),
        }
        links = [("tx0", "rx0"), ("tx0", "rx1"), ("tx0", "rx2")]
        p0 = vec3(10, 20, 0)
        vel = vec3(12, -6, 0)
        for t in np.linspace(0.0, 0.4, 5):
            pos_t = p0 + vel * t
            obs = make_obs(nodes, links, pos_t, vel)
            est = fuse(obs, dim=2)
            assert np.linalg.norm(est.position - pos_t) <= 1e-6
            assert np.linalg.norm(est.velocity - vel) <= 1e-9


def noisy_scene(rng, n_links, sigma_m=0.3):
    """Random planar scene of three or four links (a second Tx adds the
    fourth), observed with Gaussian range noise, so the least-squares
    solution is not the target itself."""
    nodes, links, target, vel = three_link_scene(rng, min_cond=20.0)
    if n_links == 4:
        ang = rng.uniform(0, 2 * np.pi)
        nodes["tx1"] = NodePose(target + rng.uniform(40, 80) * np.array([np.cos(ang), np.sin(ang), 0]))
        links.append(("tx1", "rx0"))
    obs = make_obs(nodes, links, target, vel)
    for o in obs:
        o.excess_delay = max(o.excess_delay + rng.normal(0, sigma_m) / C0, 0.0)
    return nodes, links, obs


def dense_grid_oracle(nodes, links, obs, cell=1.0, margin=30.0):
    """Best cell of a dense grid over the node bounding box plus a margin,
    then least-squares refinement from it (numpy and scipy, apart from bisim)."""
    tx = np.array([nodes[a].position[:2] for a, _ in links])
    rx = np.array([nodes[b].position[:2] for _, b in links])
    rb = np.array([C0 * o.excess_delay for o in obs]) + np.linalg.norm(rx - tx, axis=1)
    pts = np.concatenate([tx, rx])
    xs = np.arange(pts[:, 0].min() - margin, pts[:, 0].max() + margin, cell)
    ys = np.arange(pts[:, 1].min() - margin, pts[:, 1].max() + margin, cell)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    cost = np.zeros_like(gx)
    for (x1, y1), (x2, y2), r in zip(tx, rx, rb):
        cost += (np.hypot(gx - x1, gy - y1) + np.hypot(gx - x2, gy - y2) - r) ** 2
    i, j = np.unravel_index(np.argmin(cost), cost.shape)

    def residuals(p):
        return np.linalg.norm(p - tx, axis=1) + np.linalg.norm(p - rx, axis=1) - rb

    fit = least_squares(residuals, [xs[i], ys[j]], method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15)
    return np.array([xs[i], ys[j], 0.0]), np.append(fit.x, 0.0)


def rx_for_twins(p, q, tx, offset):
    """A receiver `offset` m along the perpendicular bisector of p and q from
    which p and q have the same bistatic range to tx (bisection on the
    hyperbola |p - r| - |q - r| = |q - tx| - |p - tx|)."""
    e = (q - p) / np.linalg.norm(q - p)
    at = lambda t: (p + q) / 2 + offset * np.array([-e[1], e[0], 0.0]) + t * e
    gap = np.linalg.norm(q - tx) - np.linalg.norm(p - tx)
    f = lambda t: np.linalg.norm(p - at(t)) - np.linalg.norm(q - at(t)) - gap
    lo, hi = -1e3, 1e3
    assert f(lo) < 0 < f(hi)
    for _ in range(100):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if f(mid) < 0 else (lo, mid)
    return at(lo)


class TestCoarseToFine:
    @pytest.mark.parametrize("n_links", [3, 4])
    def test_random_scenes_match_a_dense_grid_oracle(self, n_links):
        rng = np.random.default_rng(50 + n_links)
        for _ in range(10):
            nodes, links, obs = noisy_scene(rng, n_links)
            est = localize(obs, dim=2)
            cell, refined = dense_grid_oracle(nodes, links, obs)
            assert est.converged
            assert np.linalg.norm(est.position - cell) <= 1.0
            assert np.linalg.norm(est.position - refined) <= 1e-6

    def test_twins_closer_than_a_coarse_cell_are_both_found(self):
        # two links whose ellipses cross twice, 4-8 m apart, in a box of
        # several hundred meters: one coarse cell spans both crossings
        rng = np.random.default_rng(61)
        for _ in range(20):
            p = np.append(rng.uniform(-20, 20, 2), 0.0)
            ang = rng.uniform(0, 2 * np.pi)
            q = p + rng.uniform(4, 8) * np.array([np.cos(ang), np.sin(ang), 0.0])
            side = ang + np.pi / 2 + rng.uniform(-0.3, 0.3)
            tx = p + rng.uniform(80, 150) * np.array([np.cos(side), np.sin(side), 0.0])
            nodes = {
                "tx0": NodePose(tx),
                "rx0": NodePose(rx_for_twins(p, q, tx, rng.uniform(60, 120))),
                "rx1": NodePose(rx_for_twins(p, q, tx, -rng.uniform(60, 120))),
            }
            obs = make_obs(nodes, [("tx0", "rx0"), ("tx0", "rx1")], p)
            est = localize(obs, dim=2)
            found = [est.position, *est.alternates]
            assert est.ambiguous
            assert min(np.linalg.norm(x - p) for x in found) <= 1e-6
            assert min(np.linalg.norm(x - q) for x in found) <= 1e-6

    def test_node_on_a_coarse_grid_cell_is_clamped(self, monkeypatch):
        # link tx0-rx0 alone sets the search box: center 0, 64 cells per
        # axis over 1.5x its ellipse's extent; rx1 then sits on one of them
        target = vec3(20, 50, 0)
        nodes = {"tx0": NodePose(vec3(-200, 0, 0)),
                 "rx0": NodePose(vec3(200, 0, 0)),
                 "rx2": NodePose(vec3(-30, 40, 0))}
        a = bistatic_range(nodes["tx0"].position, nodes["rx0"].position, target)[0] / 2
        xs = np.linspace(-1.5 * (200 + a), 1.5 * (200 + a), 64)
        ys = np.linspace(-1.5 * a, 1.5 * a, 64)
        node = vec3(xs[np.argmin(abs(xs - 60))], ys[np.argmin(abs(ys + 20))], 0)
        nodes["rx1"] = NodePose(node)
        obs = make_obs(nodes, [("tx0", "rx0"), ("tx0", "rx1"), ("tx0", "rx2")], target)

        scored = []
        hops = fusion._hops

        def spy(points, tx, rx, strict=False):
            scored.append(np.any(np.all(np.reshape(points, (-1, 3)) == node, axis=1)))
            return hops(points, tx, rx, strict)

        monkeypatch.setattr(fusion, "_hops", spy)
        est = localize(obs, dim=2)
        assert any(scored), "no scored cell fell on the node"
        assert est.converged
        assert np.linalg.norm(est.position - target) <= 1e-6

    def test_three_d_fuse_memory_is_bounded(self):
        # 2 Tx x 4 Rx on a 240 m arc (masts 0-25 m high); a dense grid at
        # grid_cell over its 3-D search box would hold about 1e9 cells
        bearing = np.deg2rad([228.0, 312.0, 200.0, 256.0, 284.0, 340.0])
        heights = [10.0, 25.0, 0.0, 15.0, 5.0, 20.0]
        pos = [vec3(240 * np.cos(b), 240 * np.sin(b), h) for b, h in zip(bearing, heights)]
        names = ["tx0", "tx1", "rx0", "rx1", "rx2", "rx3"]
        nodes = {n: NodePose(p) for n, p in zip(names, pos)}
        links = [(t, r) for t in names[:2] for r in names[2:]]
        target, vel = vec3(4, -7, 1.5), vec3(18, -12, 0)
        obs = make_obs(nodes, links, target, vel)
        tracemalloc.start()
        try:
            est = fuse(obs, dim=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10e6
        assert np.linalg.norm(est.position - target) <= 1e-6
        assert np.linalg.norm(est.velocity - vel) <= 1e-6
