"""Scene geometry: node kinematics and bistatic range and Doppler math.

All positions are meters in a fixed right-handed East-North-Up frame,
velocities m/s, Doppler Hz. Sign convention: a shrinking bistatic range
produces a positive Doppler shift (an approaching target is "blue").
NodePose is the one kinematic state of nodes and target centres, at one
instant or at many: pose_at gives it on a Trajectory for any array of times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError, GeometryError

C0 = 299_792_458.0  # speed of light, m/s

_EPS_COINCIDENT = 1e-9  # below this separation two points count as coincident


def vec3(x: float, y: float, z: float = 0.0) -> np.ndarray:
    """Build a finite 3-vector (ENU, meters or m/s)."""
    v = np.array([x, y, z], dtype=float)
    if not np.all(np.isfinite(v)):
        raise ConfigError(f"vector components must be finite, got {v}")
    return v


def as_vec3(v, many: bool = False) -> np.ndarray:
    """v as a finite float 3-vector (3,); many=True also accepts stacks (..., 3)."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (3,) or (v.ndim != 1 and not many):
        raise ConfigError(f"expected a 3-vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ConfigError(f"vector components must be finite, got {v}")
    return v


def unit(v: np.ndarray) -> np.ndarray:
    n = float(np.linalg.norm(v))
    if n < _EPS_COINCIDENT:
        raise GeometryError("cannot normalize a (near-)zero vector")
    return v / n


def direction_from_angles(az_deg: float, el_deg: float) -> np.ndarray:
    """Unit vector for azimuth (from +x toward +y) and elevation (from xy plane)."""
    az = np.deg2rad(az_deg)
    el = np.deg2rad(el_deg)
    return np.array([np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)])


@dataclass(eq=False)
class NodePose:
    """Position and velocity of a node or target centre, with no name: finite (3,)
    vectors at one instant (they broadcast over any times), or (..., 3) at many."""

    position: np.ndarray
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.position = as_vec3(self.position, many=True)
        self.velocity = as_vec3(self.velocity, many=True)


@dataclass(eq=False)
class Trajectory:
    """Piecewise-linear track: positions interpolated, velocity = segment slope.

    Outside the waypoint span the pose clamps to the nearest endpoint with
    zero velocity. At an interior waypoint the velocity of the *following*
    segment applies; by the same rule the velocity at and beyond the final
    waypoint is zero.
    """

    times: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        self.times = np.atleast_1d(np.asarray(self.times, dtype=float))
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        if self.times.size == 0:
            raise ConfigError("trajectory needs at least one waypoint")
        if self.points.shape != (self.times.size, 3):
            raise ConfigError(
                f"trajectory points shape {self.points.shape} does not match "
                f"{self.times.size} waypoint times"
            )
        if self.times.size > 1 and not np.all(np.diff(self.times) > 0):
            raise ConfigError("waypoint times must be strictly increasing")
        if not (np.all(np.isfinite(self.times)) and np.all(np.isfinite(self.points))):
            raise ConfigError("trajectory waypoints must be finite")

    @classmethod
    def from_waypoints(cls, waypoints) -> "Trajectory":
        """Build from an iterable of (time, position) pairs."""
        wps = list(waypoints)
        if not wps:
            raise ConfigError("trajectory needs at least one waypoint")
        times = np.array([t for t, _ in wps], dtype=float)
        points = np.array([as_vec3(p) for _, p in wps], dtype=float)
        return cls(times, points)

    @cached_property
    def slopes(self) -> np.ndarray:
        """Velocity on each segment, then the zero velocity at rest (row -1): (n, 3)."""
        return np.concatenate([np.diff(self.points, axis=0) / np.diff(self.times)[:, None], np.zeros((1, 3))])

    def segment(self, t) -> np.ndarray:
        """Row of slopes that is the velocity at time(s) t: the segment holding t,
        the following one at an interior waypoint, and row -1 (at rest) before
        the first waypoint and at or after the last one."""
        t = np.asarray(t, dtype=float)
        i = np.searchsorted(self.times, t, side="right") - 1
        return np.where((t < self.times[0]) | (t >= self.times[-1]), -1, i)


def pose_at(traj: Trajectory, t) -> NodePose:
    """Anonymous pose on a trajectory at time(s) t, arrays of shape t.shape + (3,).

    Before the first waypoint and at or after the last one the position
    holds with zero velocity.
    """
    t = np.asarray(t, dtype=float)
    times, pts = traj.times, traj.points
    i = traj.segment(t)
    velocity = traj.slopes[i]
    pos = pts[i] + velocity * (t - times[i])[..., None]
    before, after = (t < times[0])[..., None], (t >= times[-1])[..., None]
    return NodePose(np.where(before, pts[0], np.where(after, pts[-1], pos)), velocity)


def _distance(points, p) -> np.ndarray:
    """|points - p| over the last axis of (..., 3) arrays, summed in the order
    np.linalg.norm(axis=-1) sums, so bit for bit its result, at less cost."""
    d = np.subtract(points, p, dtype=float)
    d *= d
    return np.sqrt(d[..., 0] + d[..., 1] + d[..., 2])


def two_hop(points, p_tx, p_rx) -> tuple[np.ndarray, np.ndarray]:
    """Tx-to-point and point-to-Rx distances of (..., 3) arrays, broadcast
    over leading axes; GeometryError if any point coincides with an antenna
    or any distance is not finite (coordinates so large that it overflows)."""
    with np.errstate(over="ignore"):   # an overflow is reported below
        d_tx = _distance(points, p_tx)
        d_rx = _distance(points, p_rx)
    if d_tx.size and min(d_tx.min(), d_rx.min()) < _EPS_COINCIDENT:
        raise GeometryError("scatterer coincides with an antenna position")
    if d_tx.size and not max(d_tx.max(), d_rx.max()) < np.inf:
        raise GeometryError("a hop distance is not finite: node, target or antenna coordinates too large")
    return d_tx, d_rx


def bistatic_range(p_tx, p_rx, p_tgt) -> tuple[float, float]:
    """Bistatic range |tgt-tx| + |tgt-rx| and its excess over the Tx-Rx baseline.

    The excess is the measurable of a passively sensed link: the sensing
    path delay relative to the direct line-of-sight delay. It is >= 0 by
    the triangle inequality, with equality exactly for a target on the
    Tx-Rx segment (forward scattering).
    """
    p_tx, p_rx, p_tgt = as_vec3(p_tx), as_vec3(p_rx), as_vec3(p_tgt)
    d_tx, d_rx = two_hop(p_tgt, p_tx, p_rx)
    baseline = float(np.linalg.norm(p_rx - p_tx))
    rb = float(d_tx + d_rx)
    return rb, max(rb - baseline, 0.0)


def bistatic_doppler(tx: NodePose, rx: NodePose, tgt_pos, tgt_vel, lam: float) -> float:
    """Analytic bistatic Doppler of a point mover seen over one Tx/Rx link.

    f_D = -(1/lambda) d/dt [ |p_tgt - p_tx| + |p_tgt - p_rx| ], with all
    three endpoints allowed to move. Equals zero when the target velocity
    is tangential to the local iso-range ellipsoid (the Doppler-blind case).
    """
    if lam <= 0:
        raise ConfigError("wavelength must be positive")
    tgt_pos, tgt_vel = as_vec3(tgt_pos), as_vec3(tgt_vel)
    r_tx = tgt_pos - tx.position
    r_rx = tgt_pos - rx.position
    d_tx, d_rx = two_hop(tgt_pos, tx.position, rx.position)
    range_rate = float(
        np.dot(r_tx / d_tx, tgt_vel - tx.velocity)
        + np.dot(r_rx / d_rx, tgt_vel - rx.velocity)
    )
    return -range_rate / lam
