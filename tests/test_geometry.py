import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bisim.errors import ConfigError, GeometryError
from bisim.geometry import (
    NodePose,
    Trajectory,
    bistatic_doppler,
    bistatic_range,
    pose_at,
    two_hop,
    vec3,
)

coord = st.floats(-500.0, 500.0)
speed = st.floats(-40.0, 40.0)


def random_scene(rng, min_sep=1.0):
    """Random (tx, rx, target, velocities) with the target off the antennas."""
    while True:
        tx = rng.uniform(-100, 100, 3)
        rx = rng.uniform(-100, 100, 3)
        tgt = rng.uniform(-100, 100, 3)
        if (
            np.linalg.norm(tgt - tx) > min_sep
            and np.linalg.norm(tgt - rx) > min_sep
            and np.linalg.norm(tx - rx) > min_sep
        ):
            break
    v_tx = rng.uniform(-30, 30, 3)
    v_rx = rng.uniform(-30, 30, 3)
    v_tgt = rng.uniform(-30, 30, 3)
    return tx, rx, tgt, v_tx, v_rx, v_tgt


class TestNodePose:
    def test_accepts_stacks_of_three_vectors(self):
        pose = NodePose(np.zeros((4, 3)), np.ones((4, 3)))
        assert pose.position.shape == pose.velocity.shape == (4, 3)
        assert NodePose(np.zeros((4, 3))).velocity.shape == (3,)

    @pytest.mark.parametrize("field", ["position", "velocity"])
    def test_rejects_a_last_axis_other_than_three(self, field):
        with pytest.raises(ConfigError, match=r"\(4, 2\)"):
            NodePose(**{"position": np.zeros((4, 3)), field: np.zeros((4, 2))})

    @pytest.mark.parametrize("field", ["position", "velocity"])
    def test_rejects_non_finite_values(self, field):
        bad = np.zeros((4, 3))
        bad[2, 1] = np.nan
        with pytest.raises(ConfigError, match="finite"):
            NodePose(**{"position": np.zeros((4, 3)), field: bad})


class TestPoseAt:
    def test_midpoint_interpolation(self):
        traj = Trajectory.from_waypoints([(0, (0, 0, 0)), (1, (10, 0, 0))])
        pose = pose_at(traj, 0.5)
        assert np.allclose(pose.position, [5, 0, 0])
        assert np.allclose(pose.velocity, [10, 0, 0])

    def test_single_waypoint_static(self):
        traj = Trajectory.from_waypoints([(0.0, (3, 2, 1))])
        for t in (-5.0, 0.0, 17.0):
            pose = pose_at(traj, t)
            assert np.allclose(pose.position, [3, 2, 1])
            assert np.allclose(pose.velocity, 0)

    def test_clamping_beyond_range(self):
        traj = Trajectory.from_waypoints([(0, (0, 0, 0)), (1, (10, 0, 0))])
        pose = pose_at(traj, 2.5)
        assert np.allclose(pose.position, [10, 0, 0])
        assert np.allclose(pose.velocity, 0)
        before = pose_at(traj, -1.0)
        assert np.allclose(before.position, [0, 0, 0])
        assert np.allclose(before.velocity, 0)

    def test_waypoint_uses_following_segment(self):
        traj = Trajectory.from_waypoints(
            [(0, (0, 0, 0)), (1, (10, 0, 0)), (2, (10, 20, 0))]
        )
        pose = pose_at(traj, 1.0)
        assert np.allclose(pose.velocity, [0, 20, 0])

    def test_empty_trajectory_rejected(self):
        with pytest.raises(ConfigError):
            Trajectory.from_waypoints([])

    def test_nonmonotonic_times_rejected(self):
        with pytest.raises(ConfigError):
            Trajectory.from_waypoints([(0, (0, 0, 0)), (0, (1, 0, 0))])


class TestBistaticRange:
    def test_forward_scattering_zero_excess(self):
        rb, excess = bistatic_range((0, 0, 0), (100, 0, 0), (50, 0, 0))
        assert rb == pytest.approx(100.0)
        assert excess == 0.0

    def test_pythagorean_geometry(self):
        rb, excess = bistatic_range((0, 0, 0), (100, 0, 0), (50, 37.5, 0))
        assert rb == pytest.approx(125.0)
        assert excess == pytest.approx(25.0)

    def test_monostatic_doubles_distance(self):
        p = vec3(7, -3, 2)
        tgt = vec3(10, 4, -5)
        rb, _ = bistatic_range(p, p, tgt)
        assert rb == pytest.approx(2 * np.linalg.norm(tgt - p))

    def test_coincident_target_raises(self):
        with pytest.raises(GeometryError):
            bistatic_range((0, 0, 0), (10, 0, 0), (0, 0, 0))

    @pytest.mark.parametrize("far", [(1e200, 0, 0), (1e308, -1e308, 0)])
    def test_overflowing_hop_raises(self, far):
        # finite coordinates whose distance overflows to inf
        points = np.array([[1.0, 2.0, 0.0], [3.0, 0.0, 1.0]])
        with pytest.raises(GeometryError, match="not finite"):
            two_hop(points, np.zeros(3), np.array(far))
        with pytest.raises(GeometryError, match="not finite"):
            bistatic_range(far, (10, 0, 0), (1, 2, 0))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.lists(st.integers(1, 4), max_size=3), st.floats(-3.0, 150.0))
    def test_distances_are_linalg_norm_bit_for_bit(self, seed, lead, log_scale):
        # points and antennas broadcast against each other, at magnitudes 1e-3 to 1e150
        rng = np.random.default_rng(seed)
        scale = 10.0 ** log_scale
        points = rng.normal(size=(*[1 if rng.random() < 0.3 else n for n in lead], 3)) * scale
        p_tx = rng.normal(size=3) * scale
        p_rx = rng.normal(size=(*[1 if rng.random() < 0.3 else n for n in lead], 3)) * scale
        d_tx, d_rx = two_hop(points, p_tx, p_rx)
        assert np.array_equal(d_tx, np.linalg.norm(points - p_tx, axis=-1))
        assert np.array_equal(d_rx, np.linalg.norm(points - p_rx, axis=-1))

    def test_distance_that_overflows_where_norm_does_raises(self):
        # squares of 1e160 overflow, as in np.linalg.norm, though the coordinates are finite
        points = np.random.default_rng(2).normal(size=(4, 5, 3)) * 1e160
        with np.errstate(over="ignore"):
            assert np.isinf(np.linalg.norm(points, axis=-1)).all()
        with pytest.raises(GeometryError, match="not finite"):
            two_hop(points, np.zeros(3), np.ones(3))

    def test_excess_nonnegative_random(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            tx, rx, tgt, *_ = random_scene(rng)
            _, excess = bistatic_range(tx, rx, tgt)
            assert excess >= 0.0

    def test_excess_zero_iff_on_segment(self):
        tx, rx = vec3(-20, 5, 0), vec3(30, 5, 0)
        on = tx + 0.3 * (rx - tx)
        _, excess_on = bistatic_range(tx, rx, on)
        assert excess_on <= 1e-12
        off = on + vec3(0, 1e-3, 0)
        _, excess_off = bistatic_range(tx, rx, off)
        assert excess_off > 0


class TestBistaticDoppler:
    lam = 0.081

    def test_tangential_motion_is_doppler_blind(self):
        tx = NodePose(vec3(-50, 0, 0))
        rx = NodePose(vec3(50, 0, 0))
        tgt = vec3(0, 40, 0)
        # sum of unit vectors points along +y here; any x motion is tangential
        fd = bistatic_doppler(tx, rx, tgt, vec3(13.0, 0, 0), self.lam)
        assert fd == pytest.approx(0.0, abs=1e-9)

    def test_monostatic_approach(self):
        pos = NodePose(vec3(0, 0, 0))
        v = 20.0
        fd = bistatic_doppler(pos, pos, vec3(100, 0, 0), vec3(-v, 0, 0), self.lam)
        assert fd == pytest.approx(2 * v / self.lam, rel=1e-12)

    def test_approach_is_positive(self):
        tx = NodePose(vec3(-50, 0, 0))
        rx = NodePose(vec3(50, 0, 0))
        fd = bistatic_doppler(tx, rx, vec3(0, 40, 0), vec3(0, -5, 0), self.lam)
        assert fd > 0

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(42)
        dt = 1e-6
        for _ in range(300):
            tx, rx, tgt, v_tx, v_rx, v_tgt = random_scene(rng)
            fd = bistatic_doppler(
                NodePose(tx, v_tx), NodePose(rx, v_rx), tgt, v_tgt, self.lam
            )
            rb_p, _ = bistatic_range(tx + v_tx * dt, rx + v_rx * dt, tgt + v_tgt * dt)
            rb_m, _ = bistatic_range(tx - v_tx * dt, rx - v_rx * dt, tgt - v_tgt * dt)
            fd_num = -(rb_p - rb_m) / (2 * dt) / self.lam
            scale = max(abs(fd_num), 1.0)
            assert abs(fd - fd_num) / scale <= 1e-6


def _random_rotation(rng):
    # Rodrigues rotation about a random axis
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    ang = rng.uniform(0, 2 * np.pi)
    k = np.array(
        [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
    )
    return np.eye(3) + np.sin(ang) * k + (1 - np.cos(ang)) * (k @ k)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_rigid_transform_invariance(seed):
    rng = np.random.default_rng(seed)
    tx, rx, tgt, v_tx, v_rx, v_tgt = random_scene(rng)
    rot = _random_rotation(rng)
    shift = rng.uniform(-200, 200, 3)
    lam = 0.081

    rb, excess = bistatic_range(tx, rx, tgt)
    fd = bistatic_doppler(NodePose(tx, v_tx), NodePose(rx, v_rx), tgt, v_tgt, lam)

    t_tx, t_rx, t_tgt = (rot @ tx + shift, rot @ rx + shift, rot @ tgt + shift)
    rb2, excess2 = bistatic_range(t_tx, t_rx, t_tgt)
    fd2 = bistatic_doppler(
        NodePose(t_tx, rot @ v_tx), NodePose(t_rx, rot @ v_rx), t_tgt, rot @ v_tgt, lam
    )
    assert rb2 == pytest.approx(rb, rel=1e-9)
    assert excess2 == pytest.approx(excess, rel=1e-9, abs=1e-9)
    assert fd2 == pytest.approx(fd, rel=1e-6, abs=1e-6)
