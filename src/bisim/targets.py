"""Extended-target scattering: point clouds, rotors, reflectivity scans, RCS.

Every scatterer is a PointScatterer: a position (in its target's body
frame, or in the world frame for clutter), a complex scattering length s
(meters) and an optional 2x2 Jones matrix over the (H, V) polarization
basis. The conventions are tied together so link budgets are exact by
construction:

    sigma = 4π |s|^2                         (equivalent-sphere RCS)
    a     = s λ / (4π d_tx d_rx) e^{-j2πR/λ} (per-scatterer channel gain)
    P_r   = P_t G_t G_r λ^2 σ / ((4π)^3 d_tx^2 d_rx^2)

so |a|^2 of a single-scatterer channel reproduces the bistatic radar
equation at unity gains. Spherical wavefronts are kept throughout: every
scatterer has its own Tx/Rx distances, which is what makes the model valid
in the near field and scalable with antenna distance.

Polarization lives in the scans only. Synthesis is single-polarization:
a link's paths carry the scalar s alone. reflectivity_scan weights each
scatterer by all four entries of its Jones matrix, flyover_scan (the
gantry HH map) by J_HH. The config sets no Jones matrix, so every
scatterer it builds has the identity.

A target (RigidTarget, Rotor) is a rigid body: name, pose(t) (its body
origin and that origin's velocity), rotation(t) (its body axes in world
coordinates, (..., 3, 3), or None for the world axes) and body, its
samples in the body frame, built once. states(target, t) is the one
body-to-world map, pose(t) + rotation(t)·body; a scan centres on the pose
and sees the body in its own frame. No code branches on the kind of target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .channel import _SLAB_ELEMENTS, PathTable, check_entries, named_window, path_rows, phase_ramps
from .errors import ConfigError
from .geometry import C0, NodePose, Trajectory, as_vec3, direction_from_angles, pose_at, two_hop, unit
from .geometry import bistatic_doppler  # noqa: F401  unused; bench/tracing.py counts calls made through it

FOUR_PI = 4.0 * np.pi
MAX_AXIS_POINTS = 1 << 20  # longest scan angle axis, and most samples of one rotor


def stepped_axis(start: float, stop: float, step: float, what: str) -> np.ndarray:
    """start, start + step, ... up to stop and never beyond it (1e-9 slack), at most
    MAX_AXIS_POINTS points: a config {start, stop, step} angle axis or a flyover sweep.
    A ConfigError names the axis as `what`."""
    if not step > 0 or stop < start:
        raise ConfigError(f"{what} ({start}, {stop}, {step}): expected step > 0 and stop >= start")
    n = int(round((stop - start) / step)) + 1 if stop - start < step * MAX_AXIS_POINTS else 0
    if not 1 <= n <= MAX_AXIS_POINTS:
        raise ConfigError(f"{what} ({start}, {stop}, {step}): more than {MAX_AXIS_POINTS} points")
    points = start + step * np.arange(n)
    return points[points <= stop + 1e-9]


def _as_jones(j) -> np.ndarray:
    if j is None:
        return np.eye(2, dtype=complex)
    j = np.ascontiguousarray(j, dtype=complex)
    if j.shape != (2, 2):
        raise ConfigError(f"Jones matrix must be 2x2, got shape {j.shape}")
    if not np.all(np.isfinite(j)):
        raise ConfigError("Jones matrix entries must be finite")
    return j


@dataclass(eq=False)
class PointScatterer:
    """Point scatterer: position (target body frame; world frame for clutter), s (m), Jones."""

    position: np.ndarray
    amplitude: complex
    jones: np.ndarray | None = None

    def __post_init__(self):
        self.position = as_vec3(self.position)
        self.amplitude = complex(self.amplitude)
        self.jones = _as_jones(self.jones)


@dataclass(eq=False)
class ScattererStates:
    """States of all N samples of one target, or of the clutter, at time(s) t.

    positions and velocities (None without Doppler) have shape t.shape + (N, 3);
    amplitudes (N,) and jones (N, 2, 2) do not change with time.
    """

    positions: np.ndarray
    velocities: np.ndarray | None
    amplitudes: np.ndarray  # (N,) complex
    jones: np.ndarray       # (N, 2, 2) complex

    def __len__(self) -> int:
        return self.amplitudes.shape[0]

    @classmethod
    def stack(cls, scatterers) -> "ScattererStates":
        """States of scatterers at rest at their own positions, (N, 3)."""
        positions = np.stack([s.position for s in scatterers])
        return cls(positions, np.zeros_like(positions), np.array([s.amplitude for s in scatterers], dtype=complex),
                   np.stack([s.jones for s in scatterers]))


@dataclass(eq=False)
class RigidTarget:
    """Rigid scatterer cloud on a piecewise-linear track.

    yaw=None keeps the body frame aligned with the world axes; a float yaw
    rotates the cloud about +z by that fixed angle; yaw="track" points the
    body +x axis along the horizontal track direction (piecewise-constant
    heading, contributing no rotational velocity).
    """

    scatterers: list[PointScatterer]
    trajectory: Trajectory
    yaw: float | str | None = None
    name: str = "target"

    def __post_init__(self):
        if not self.scatterers:
            raise ConfigError("rigid target needs at least one scatterer")

    def pose(self, t) -> NodePose:
        """The cloud's body-frame origin on its track at time(s) t."""
        return pose_at(self.trajectory, t)

    @cached_property
    def _headings(self) -> np.ndarray:
        """Yaw of each row of the track's slopes, 0 where its horizontal speed is below 1e-12 m/s."""
        vx, vy = self.trajectory.slopes[:, 0], self.trajectory.slopes[:, 1]
        return np.where(np.hypot(vx, vy) < 1e-12, 0.0, np.arctan2(vy, vx))

    def rotation(self, t) -> np.ndarray | None:
        """The body axes in world coordinates, t.shape + (3, 3): a turn about +z by the
        yaw at time(s) t; None without a yaw."""
        if self.yaw is None:
            return None
        if self.yaw == "track":
            yaw = self._headings[self.trajectory.segment(t)]
        else:
            yaw = np.full(np.shape(t), float(self.yaw))
        return _z_turn(yaw)

    @cached_property
    def body(self) -> ScattererStates:
        """The cloud at rest in its body frame."""
        return ScattererStates.stack(self.scatterers)


@dataclass(eq=False)
class Rotor:
    """Rotating blade set, sampled as uniform line arrays along each blade.

    hub_offset is the hub position in the world frame and is the rotor's
    pose; body holds the blade samples about the hub at phase0, and
    rotation(t) turns them by rate·t about axis (unit; rate in rad/s). Every
    sample has scattering length sample_amplitude and speed rate·r at radius
    r. For spectrally smooth micro-Doppler keep the sample spacing
    blade_radius/samples_per_blade below λ/4 (sampling_ok).
    """

    hub_offset: np.ndarray
    axis: np.ndarray
    blade_radius: float
    rate: float
    n_blades: int = 2
    samples_per_blade: int = 32
    sample_amplitude: complex = 1e-2
    phase0: float = 0.0
    name: str = "rotor"

    def __post_init__(self):
        self.hub_offset = as_vec3(self.hub_offset)
        self.axis = as_vec3(self.axis)
        n = float(np.linalg.norm(self.axis))
        if not math.isclose(n, 1.0, rel_tol=1e-9):
            raise ConfigError("rotor axis must be unit-norm")
        if self.blade_radius <= 0:
            raise ConfigError("blade radius must be positive")
        if self.n_blades < 1 or self.samples_per_blade < 2:
            raise ConfigError("need n_blades >= 1 and samples_per_blade >= 2")
        if self.n_blades * self.samples_per_blade > MAX_AXIS_POINTS:
            raise ConfigError(f"{self.n_blades} blades x {self.samples_per_blade} samples_per_blade: "
                              f"more than {MAX_AXIS_POINTS} rotor samples")
        self.sample_amplitude = complex(self.sample_amplitude)
        self._hub = NodePose(self.hub_offset)   # made once: synthesis asks on every block

    def pose(self, t) -> NodePose:
        """The hub, at rest at every time."""
        return self._hub

    def sampling_ok(self, lam: float) -> bool:
        """True if blade sampling is finer than λ/4."""
        return self.blade_radius / self.samples_per_blade < lam / 4.0

    @cached_property
    def basis(self) -> tuple[np.ndarray, np.ndarray]:
        """Unit vectors (e1, e2) spanning the rotor plane, e1 x e2 = axis."""
        ref = np.array([0.0, 0.0, 1.0])
        if abs(np.dot(ref, self.axis)) > 0.9:
            ref = np.array([1.0, 0.0, 0.0])
        e1 = unit(np.cross(ref, self.axis))
        return e1, np.cross(self.axis, e1)

    @cached_property
    def _frame(self) -> np.ndarray:
        """F = [e1 e2 axis], the rotor frame's axes as columns."""
        return np.stack([*self.basis, self.axis], axis=1)

    def rotation(self, t) -> np.ndarray:
        """The turn by rate·t about axis, F·Rz(rate·t)·Fᵀ, t.shape + (3, 3); the identity at t = 0."""
        return self._frame @ _z_turn(self.rate * np.asarray(t, dtype=float)) @ self._frame.T

    @cached_property
    def body(self) -> ScattererStates:
        """Every blade sample about the hub at phase0, with its velocity rate·r(−sin φ e1 + cos φ e2)."""
        e1, e2 = self.basis
        r = (self.blade_radius * np.arange(1, self.samples_per_blade + 1) / self.samples_per_blade)[:, None]
        blade_angles = self.phase0 + 2.0 * np.pi * np.arange(self.n_blades) / self.n_blades
        cos, sin = np.cos(blade_angles)[:, None, None], np.sin(blade_angles)[:, None, None]  # against r (S, 1)
        n = self.n_blades * self.samples_per_blade
        return ScattererStates((r * (cos * e1 + sin * e2)).reshape(n, 3),
                               (self.rate * r * (-sin * e1 + cos * e2)).reshape(n, 3),
                               np.full(n, self.sample_amplitude, dtype=complex),
                               np.broadcast_to(np.eye(2, dtype=complex), (n, 2, 2)))


def _z_turn(angle) -> np.ndarray:
    """Turns about +z by angle(s), angle.shape + (3, 3)."""
    c, s = np.cos(angle), np.sin(angle)
    zero, one = np.zeros_like(c), np.ones_like(c)
    return np.stack([c, -s, zero, s, c, zero, zero, zero, one], -1).reshape(*c.shape, 3, 3)


def _rotate(rotation: np.ndarray, v: np.ndarray) -> np.ndarray:
    """rotation · v for every sample: (..., 3, 3) against (..., N, 3), summed over body axes
    0, 1, 2 in elementwise products, so no fused multiply-add moves a bit."""
    r = rotation[..., None, :, :]
    return r[..., 0] * v[..., 0:1] + r[..., 1] * v[..., 1:2] + r[..., 2] * v[..., 2:3]


def states(target, t, doppler: bool = False) -> ScattererStates:
    """World states of every sample of a target at time(s) t: pose(t) + rotation(t)·body.

    Velocities, None unless doppler=True, are the pose velocity plus the rotated body
    velocities, so a turning body frame (a rigid target's yaw) adds none of its own.
    """
    pose, rotation, body = target.pose(t), target.rotation(t), target.body
    turn = (lambda v: v) if rotation is None else partial(_rotate, rotation)
    velocities = pose.velocity[..., None, :] + turn(body.velocities) if doppler else None
    return ScattererStates(pose.position[..., None, :] + turn(body.positions), velocities,
                           body.amplitudes, body.jones)


def scatterer_gain(amplitude: complex, d_tx, d_rx, lam: float):
    """Two-hop spherical-spreading gain with carrier phase folded in (distance arrays)."""
    return amplitude * lam / (FOUR_PI * d_tx * d_rx) * np.exp(-2j * np.pi * (d_tx + d_rx) / lam)


def bounce_paths(states: ScattererStates, tx: NodePose, rx: NodePose, lam: float,
                 doppler: bool = False) -> PathTable:
    """One single-bounce path per scatterer, between two (moving) antennas.

    Delay is the per-scatterer bistatic delay (no far-field plane-wave
    shortcut) and the gain is scatterer_gain, both of shape
    positions.shape[:-1]; tx/rx positions and velocities (3,) or (..., 3)
    broadcast against the states' leading axes. doppler=True adds each
    path's analytic bistatic Doppler from its own velocity.
    """
    p_tx, p_rx = tx.position[..., None, :], rx.position[..., None, :]
    d_tx, d_rx = two_hop(states.positions, p_tx, p_rx)
    table = PathTable((d_tx + d_rx) / C0, scatterer_gain(states.amplitudes, d_tx, d_rx, lam))
    if doppler:
        v = states.velocities
        rate = np.sum((states.positions - p_tx) / d_tx[..., None] * (v - tx.velocity[..., None, :])
                      + (states.positions - p_rx) / d_rx[..., None] * (v - rx.velocity[..., None, :]),
                      axis=-1)
        table.doppler = -rate / lam
    return table


def target_paths(target, tx: NodePose, rx: NodePose, t, lam: float, doppler: bool = False) -> PathTable:
    """One propagation path per scatterer of the target: a t.shape + (N,) table."""
    return bounce_paths(states(target, t, doppler), tx, rx, lam, doppler)


# ---------------------------------------------------------------------------
# Bistatic reflectivity scanning
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class FrequencyBand:
    """Inclusive sweep f_lo..f_hi with n_points samples (VNA style)."""

    f_lo: float
    f_hi: float
    n_points: int

    def __post_init__(self):
        if self.f_lo <= 0 or self.f_hi <= self.f_lo:
            raise ConfigError("need 0 < f_lo < f_hi")
        if self.n_points < 2:
            raise ConfigError("need at least two frequency points")

    def frequencies(self) -> np.ndarray:
        return np.linspace(self.f_lo, self.f_hi, self.n_points)

    @property
    def delta_f(self) -> float:
        return (self.f_hi - self.f_lo) / (self.n_points - 1)

    def delay_axis(self) -> np.ndarray:
        """Centered delay axis of the de-embedded profile (s, around 0)."""
        return (np.arange(self.n_points) - self.n_points // 2) * (1.0 / (self.n_points * self.delta_f))


@dataclass(eq=False)
class ReflectivityTensor:
    """Angle-gridded, delay-resolved, polarimetric bistatic reflectivity.

    data[i_az_tx, i_el_tx, i_az_rx, i_el_rx, i_delay, p_rx, p_tx] holds the
    complex delay profile of the full 2x2 Jones response for antennas at
    the scan's radii (d_tx, d_rx) in the given directions, both about the
    target's pose and along its body axes. The delay axis is relative to the
    target-center bistatic delay (d_tx + d_rx)/c.
    """

    az_tx_deg: np.ndarray
    el_tx_deg: np.ndarray
    az_rx_deg: np.ndarray
    el_rx_deg: np.ndarray
    delay_s: np.ndarray
    data: np.ndarray

    def __post_init__(self):
        expected = (
            len(self.az_tx_deg), len(self.el_tx_deg),
            len(self.az_rx_deg), len(self.el_rx_deg),
            len(self.delay_s), 2, 2,
        )
        if self.data.shape != expected:
            raise ConfigError(
                f"tensor shape {self.data.shape} inconsistent with axes {expected}"
            )


def _scan_states(target, d_tx: float, d_rx: float) -> ScattererStates:
    """The body of a scan target, about its pose, whose extent both antenna radii must exceed."""
    states = target.body
    extent = float(np.max(np.linalg.norm(states.positions, axis=1))) if len(states) else 0.0
    if d_tx <= extent or d_rx <= extent:
        raise ConfigError(
            f"antenna radii ({d_tx}, {d_rx}) must exceed target extent {extent:.3f} m"
        )
    return states


def _map_in_order(fn, items, threads: int) -> list:
    """[fn(x) for x in items], on a thread pool when threads > 1; same order either way."""
    if threads <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _directions(az_deg, el_deg) -> np.ndarray:
    """Unit vectors (..., 3) of azimuth/elevation arrays broadcast to one shape (...)."""
    return np.moveaxis(direction_from_angles(*np.broadcast_arrays(az_deg, el_deg)), 0, -1)


def _sweep_scale(band: FrequencyBand, sweep_window: str) -> np.ndarray:
    """Per-frequency factor of a scan sweep: λ_f times a unit-mean taper, times
    exp(-j2πk⌊n/2⌋/n), which centres the inverse transform on zero delay (the fftshift)."""
    n = band.n_points
    taper = named_window(sweep_window, n, sym=True)
    shift = np.exp(-2j * np.pi * (np.arange(n) * (n // 2) % n) / n)
    return C0 / band.frequencies() * taper / taper.mean() * shift


def reflectivity_scan(target, grid: dict, d_tx: float, d_rx: float,
                      band: FrequencyBand, sweep_window: str = "none",
                      threads: int = 1) -> ReflectivityTensor:
    """Full 4-D angular scan of a solitaire target's bistatic reflectivity.

    The scan centres on the target's pose and sums its body samples in the
    body frame, so neither where the target sits nor how it moves or turns
    matters. grid maps the four angle axes ("az_tx", "el_tx", "az_rx",
    "el_rx") to strictly increasing arrays of degrees. Antennas sit at radii
    d_tx / d_rx in each direction pair; the sweep over the band is the tapered
    sum_n s_n λ_f/(4π r1 r2) exp(-j2π f (τ1 + τ2)) jones_n, τ1 = (r1 - d_tx)/c,
    τ2 = (r2 - d_rx)/c, and its inverse transform, centred on the
    target-center delay, is the delay profile.

    Each hop depends on one direction only, so the grid is evaluated as the
    product of its az_tx x el_tx Tx and az_rx x el_rx Rx directions:
    sweep[i, j, f] = sum_n A[i, n, f] jones_n B[j, n, f], A = s_n
    exp(-j2π f τ1)/(4π r1) and B = exp(-j2π f τ2)/r2 from phase_ramps,
    which is frequency-major. Only the n_col distinct nonzero HH/HV/VH/VV
    Jones columns enter the product (one for identity Jones), each result is
    written to every polarisation it serves, and the rest stay exactly 0.
    Tx blocks are the outer loop: each builds its ramps once, folded with the
    Jones columns and the per-frequency factor as (n_freq, I_b·n_col, N), and
    each Rx block under it builds its (n_freq, N, J_b) ramps and makes one
    stacked product per frequency, inverse-transformed in place. I_b and J_b
    keep the fold, the Rx ramps and the product within _SLAB_ELEMENTS complex
    entries each. threads spreads the Rx blocks over a pool (with BLAS on one
    thread, it pays); each writes its own slice, so the result does not
    depend on it.
    """
    axes = []
    for key in ("az_tx", "el_tx", "az_rx", "el_rx"):
        if key not in grid or len(np.atleast_1d(grid[key])) == 0:
            raise ConfigError(f"angle grid {key!r} is missing or empty")
        axes.append(np.atleast_1d(np.asarray(grid[key], dtype=float)))
        if not np.all(np.diff(axes[-1]) > 0):
            raise ConfigError(f"angle grid {key!r} must be strictly increasing")
    check_entries(math.prod(map(len, axes)) * band.n_points * 4,
                  "reflectivity tensor of az_tx x el_tx x az_rx x el_rx x band.n_points x 2 x 2")
    states = _scan_states(target, d_tx, d_rx)
    az_tx, el_tx, az_rx, el_rx = axes
    u_tx = _directions(az_tx[:, None], el_tx).reshape(-1, 3)
    u_rx = _directions(az_rx[:, None], el_rx).reshape(-1, 3)
    n_tx, n_rx, n_scat, n_freq = len(u_tx), len(u_rx), len(states), band.n_points
    check_entries(4 * n_scat * n_freq, "reflectivity Jones columns of 4 x scan samples x band.n_points")
    jones = states.jones.reshape(n_scat, 4).T                          # (4, N): HH, HV, VH, VV
    slots = np.flatnonzero(np.any(jones != 0, axis=1))
    cols, col_of = np.unique(jones[slots], axis=0, return_inverse=True)
    n_col = len(cols)
    width = max(n_col, 1)                                              # with 0 columns the operands are empty
    out = np.zeros((n_tx, n_rx, n_freq, 4), dtype=complex)
    tx_block = max(1, min(n_tx, _SLAB_ELEMENTS // (width * n_scat * n_freq)))
    rx_block = max(1, min(_SLAB_ELEMENTS // (n_scat * n_freq), _SLAB_ELEMENTS // (tx_block * width * n_freq)))
    amps = states.amplitudes / FOUR_PI
    cols = _sweep_scale(band, sweep_window)[:, None, None, None] * cols   # (n_freq, 1, n_col, N)

    def hop_ramps(points, antennas, d, gains):
        """(n_freq, ...) ramps of the delays (r - d)/c of the hops between points and antennas,
        both (..., 3) and broadcast, weighted by gains/r and the f_lo phase."""
        r, _ = two_hop(points, antennas, antennas)   # coincidence- and overflow-checked
        tau = (r - d) / C0
        z = phase_ramps(tau, band.delta_f, n_freq)
        z *= gains / r * np.exp(-2j * np.pi * band.f_lo * tau)
        return z

    def evaluate(ti: slice, fold: np.ndarray, start: int) -> None:
        rj = slice(start, start + rx_block)
        rx = hop_ramps(states.positions[:, None], d_rx * u_rx[rj], d_rx, 1.0)   # (n_freq, N, J_b)
        sweep = fold.reshape(n_freq, -1, n_scat) @ rx                  # (n_freq, I_b·n_col, J_b)
        np.fft.ifft(sweep, axis=0, out=sweep)
        sweep = sweep.reshape(fold.shape[:3] + rx.shape[2:]).transpose(1, 3, 0, 2)
        for slot, c in zip(slots, col_of.ravel()):
            out[ti, rj, :, slot] = sweep[..., c]

    for i in range(0, n_tx, tx_block):
        ti = slice(i, i + tx_block)
        tx = hop_ramps(states.positions, d_tx * u_tx[ti, None], d_tx, amps)   # (n_freq, I_b, N)
        fold = tx[:, :, None] * cols                                   # (n_freq, I_b, n_col, N)
        del tx                                                         # freed before the Rx blocks run
        _map_in_order(partial(evaluate, ti, fold), range(0, n_rx, rx_block), threads)
    data = out.reshape(len(az_tx), len(el_tx), len(az_rx), len(el_rx), n_freq, 2, 2)
    return ReflectivityTensor(az_tx, el_tx, az_rx, el_rx, band.delay_axis(), data)


@dataclass(eq=False)
class FlyoverMap:
    """(sweep angle x relative delay) complex map from a gantry-style sweep."""

    angles_deg: np.ndarray
    delay_s: np.ndarray
    data: np.ndarray


def flyover_scan(target, fixed_angle_deg: float, sweep: tuple[float, float, float],
                 d_tx: float, d_rx: float, band: FrequencyBand,
                 elevation_deg: float = 0.0, sweep_window: str = "none") -> FlyoverMap:
    """Emulate a flyover: one antenna fixed, the other swept in azimuth.

    Like reflectivity_scan it sees the body about the target's pose, in its
    own frame. The swept angle is the bistatic separation relative to the fixed
    antenna, running e.g. 10..180 degrees from quasi-monostatic to forward
    scattering, with at most MAX_AXIS_POINTS angles. Both antennas sit at
    elevation_deg (default 0) and the H-H polarization is extracted, so the
    output is directly comparable to gantry measurement maps. The fixed
    Tx direction shares no ramp with another, so each swept angle is one
    row of channel.path_rows, the kernel geometric synthesis runs on: the
    delays τ = (r1 + r2 - d_tx - d_rx)/c with weights
    s_n J_HH/(4π r1 r2) exp(-j2π f_lo τ), as reflectivity_scan's hops take
    theirs, times the per-frequency factor, inverse-transformed in place.
    path_rows asks for the hops of as many angles at once as its path
    budget holds (85 for 48 scatterers) and sums each angle's sweep as
    high x low ramps (32 x 32 for 1024 frequencies).
    """
    angles = stepped_axis(*sweep, "flyover sweep")
    check_entries(len(angles) * band.n_points, "flyover map of swept angles x band.n_points")
    states = _scan_states(target, d_tx, d_rx)
    p_tx = d_tx * direction_from_angles(fixed_angle_deg, elevation_deg)
    p_rx = d_rx * _directions(fixed_angle_deg + angles, elevation_deg)[:, None]
    weights = states.amplitudes * states.jones[:, 0, 0] / FOUR_PI

    def block(rows: slice):
        r1, r2 = two_hop(states.positions, p_tx, p_rx[rows])   # coincidence- and overflow-checked
        tau = (r1 + r2 - (d_tx + d_rx)) / C0
        return tau, weights / (r1 * r2) * np.exp(-2j * np.pi * band.f_lo * tau)
    data = path_rows(block, len(angles), band.delta_f, band.n_points)
    data *= _sweep_scale(band, sweep_window)
    np.fft.ifft(data, axis=1, out=data)
    return FlyoverMap(angles, band.delay_axis(), data)


# ---------------------------------------------------------------------------
# RCS calibration and link budget
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class LinkBudget:
    """Inputs of the bistatic radar equation plus coherent integration size."""

    tx_power_dbm: float
    tx_gain_dbi: float
    rx_gain_dbi: float
    wavelength: float
    d_tx: float
    d_rx: float
    rcs_m2: float
    n_subcarriers: int = 1
    n_symbols: int = 1

    def __post_init__(self):
        if self.wavelength <= 0 or self.d_tx <= 0 or self.d_rx <= 0:
            raise ConfigError("wavelength and distances must be positive")
        if not self.rcs_m2 > 0:
            raise ConfigError("RCS must be > 0")
        if self.n_subcarriers < 1 or self.n_symbols < 1:
            raise ConfigError("budget needs n_subcarriers >= 1 and n_symbols >= 1")


def equivalent_rcs(s: complex) -> float:
    """RCS of the equivalent sphere reflecting the same power: σ = 4π|s|²."""
    return FOUR_PI * abs(s) ** 2


def link_budget(b: LinkBudget) -> dict:
    """Bistatic radar equation in dB plus the coherent processing gain.

    received_power_dbm = P_t + G_t + G_r + 10 log10(λ²σ / ((4π)³ d_tx² d_rx²));
    processing_gain_db = 10 log10(K·M) for K subcarriers by M symbols.
    """
    # summed in logs, so no product under- or overflows for positive finite inputs
    spread_db = (20.0 * math.log10(b.wavelength) + 10.0 * math.log10(b.rcs_m2) - 30.0 * math.log10(FOUR_PI)
                 - 20.0 * math.log10(b.d_tx) - 20.0 * math.log10(b.d_rx))
    received = b.tx_power_dbm + b.tx_gain_dbi + b.rx_gain_dbi + spread_db
    gain = 10.0 * math.log10(b.n_subcarriers * b.n_symbols)
    return {"received_power_dbm": received, "processing_gain_db": gain}
