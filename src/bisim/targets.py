"""Extended-target scattering: point clouds, rotors, reflectivity scans, RCS.

Targets are superpositions of point scatterers with complex scattering
length s (meters) and an optional 2x2 Jones matrix over the (H, V)
polarization basis. The conventions are tied together so link budgets are
exact by construction:

    sigma = 4π |s|^2                         (equivalent-sphere RCS)
    a     = s λ / (4π d_tx d_rx) e^{-j2πR/λ} (per-scatterer channel gain)
    P_r   = P_t G_t G_r λ^2 σ / ((4π)^3 d_tx^2 d_rx^2)

so |a|^2 of a single-scatterer channel reproduces the bistatic radar
equation at unity gains. Spherical wavefronts are kept throughout: every
scatterer has its own Tx/Rx distances, which is what makes the model valid
in the near field and scalable with antenna distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import _SLAB_ELEMENTS, PathTable, check_entries, named_window, path_rows, phase_ramps
from .errors import ConfigError
from .geometry import C0, NodePose, NodeTrack, Trajectory, as_vec3, direction_from_angles, track_at, two_hop, unit
from .geometry import bistatic_doppler  # noqa: F401  unused; bench/tracing.py counts calls made through it

FOUR_PI = 4.0 * np.pi
MAX_AXIS_POINTS = 1 << 20  # longest scan angle axis: a config {start, stop, n | step} form or a flyover sweep


def jones_identity() -> np.ndarray:
    return np.eye(2, dtype=complex)


def _as_jones(j) -> np.ndarray:
    if j is None:
        return jones_identity()
    j = np.ascontiguousarray(j, dtype=complex)
    if j.shape != (2, 2):
        raise ConfigError(f"Jones matrix must be 2x2, got shape {j.shape}")
    if not np.all(np.isfinite(j)):
        raise ConfigError("Jones matrix entries must be finite")
    return j


@dataclass(eq=False)
class PointScatterer:
    """Point scatterer: body-frame offset, scattering length s (m), Jones."""

    offset: np.ndarray
    amplitude: complex
    jones: np.ndarray | None = None

    def __post_init__(self):
        self.offset = as_vec3(self.offset)
        self.amplitude = complex(self.amplitude)
        self.jones = _as_jones(self.jones)


@dataclass(eq=False)
class StaticScatterer:
    """A fixed environment scatterer (clutter) at an absolute position."""

    position: np.ndarray
    amplitude: complex
    jones: np.ndarray | None = None

    def __post_init__(self):
        self.position = as_vec3(self.position)
        self.amplitude = complex(self.amplitude)
        self.jones = _as_jones(self.jones)


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

    def extent(self) -> float:
        """Largest scatterer offset from the body origin."""
        return max(float(np.linalg.norm(s.offset)) for s in self.scatterers)


@dataclass(eq=False)
class Rotor:
    """Rotating blade set, sampled as uniform line arrays along each blade.

    hub_offset is the hub position (world frame for a standalone rotor),
    axis the unit rotation axis, rate the signed angular rate in rad/s.
    Every sample shares sample_amplitude as its scattering length. The
    sample speed grows linearly with radius up to rate*blade_radius at the
    tips. For spectrally smooth micro-Doppler keep the inter-sample spacing
    blade_radius/samples_per_blade below a quarter wavelength
    (see sampling_ok).
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
        self.sample_amplitude = complex(self.sample_amplitude)

    @property
    def sample_spacing(self) -> float:
        return self.blade_radius / self.samples_per_blade

    def sampling_ok(self, lam: float) -> bool:
        """True if blade sampling is finer than λ/4."""
        return self.sample_spacing < lam / 4.0

    def extent(self) -> float:
        return float(np.linalg.norm(self.hub_offset)) + self.blade_radius

    @cached_property
    def basis(self) -> tuple[np.ndarray, np.ndarray]:
        """Unit vectors (e1, e2) spanning the rotor plane, e1 x e2 = axis."""
        ref = np.array([0.0, 0.0, 1.0])
        if abs(np.dot(ref, self.axis)) > 0.9:
            ref = np.array([1.0, 0.0, 0.0])
        e1 = unit(np.cross(ref, self.axis))
        return e1, np.cross(self.axis, e1)


@dataclass(eq=False)
class ScattererStates:
    """World-frame states of all N samples of one target at time(s) t.

    positions and velocities have shape t.shape + (N, 3); amplitudes (N,)
    and jones (N, 2, 2) do not change with time.
    """

    positions: np.ndarray
    velocities: np.ndarray
    amplitudes: np.ndarray  # (N,) complex
    jones: np.ndarray       # (N, 2, 2) complex

    def __len__(self) -> int:
        return self.amplitudes.shape[0]


def _rigid_states(target: RigidTarget, t) -> ScattererStates:
    track = track_at(target.trajectory, t)
    offsets = np.stack([s.offset for s in target.scatterers])
    if target.yaw == "track":
        vx, vy = track.velocity[..., 0], track.velocity[..., 1]
        yaw = np.where(np.hypot(vx, vy) < 1e-12, 0.0, np.arctan2(vy, vx))
    else:
        yaw = np.full(np.shape(t), float(target.yaw or 0.0))
    c, s = np.cos(yaw)[..., None], np.sin(yaw)[..., None]   # rotation about +z
    ox, oy, oz = offsets.T
    body = np.stack([c * ox - s * oy, s * ox + c * oy, np.broadcast_to(oz, (*yaw.shape, oz.size))], -1)
    positions = track.position[..., None, :] + body
    velocities = np.broadcast_to(track.velocity[..., None, :], positions.shape)
    amps = np.array([s.amplitude for s in target.scatterers], dtype=complex)
    jones = np.stack([s.jones for s in target.scatterers])
    return ScattererStates(positions, velocities, amps, jones)


def _rotor_states(rotor: Rotor, t) -> ScattererStates:
    e1, e2 = rotor.basis
    radii = rotor.blade_radius * np.arange(1, rotor.samples_per_blade + 1) / rotor.samples_per_blade
    t = np.asarray(t, dtype=float)[..., None]
    blade_angles = rotor.phase0 + rotor.rate * t + 2.0 * np.pi * np.arange(rotor.n_blades) / rotor.n_blades
    cos, sin = np.cos(blade_angles)[..., None, None], np.sin(blade_angles)[..., None, None]
    r = radii[:, None]                              # (S, 1) against (..., B, 1, 1)
    positions = rotor.hub_offset + r * (cos * e1 + sin * e2)
    velocities = rotor.rate * r * (-sin * e1 + cos * e2)
    n = rotor.n_blades * rotor.samples_per_blade
    shape = (*t.shape[:-1], n, 3)
    amps = np.full(n, rotor.sample_amplitude, dtype=complex)
    jones = np.broadcast_to(jones_identity(), (n, 2, 2))
    return ScattererStates(positions.reshape(shape), velocities.reshape(shape), amps, jones)


def scatterer_states(target, t) -> ScattererStates:
    """World-frame (position, velocity, amplitude, jones) of every sample.

    t is a time or an array of times; positions and velocities gain its
    shape as leading axes.
    """
    if isinstance(target, RigidTarget):
        return _rigid_states(target, t)
    if isinstance(target, Rotor):
        return _rotor_states(target, t)
    raise ConfigError(f"unsupported target type {type(target).__name__}")


def scatterer_gain(amplitude: complex, d_tx, d_rx, lam: float):
    """Two-hop spherical-spreading gain with carrier phase folded in (distance arrays)."""
    return amplitude * lam / (FOUR_PI * d_tx * d_rx) * np.exp(-2j * np.pi * (d_tx + d_rx) / lam)


def bounce_paths(states: ScattererStates, tx: NodePose | NodeTrack, rx: NodePose | NodeTrack,
                 lam: float, doppler: bool = False) -> PathTable:
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


def target_paths(target, tx: NodePose | NodeTrack, rx: NodePose | NodeTrack, t, lam: float,
                 doppler: bool = False) -> PathTable:
    """One propagation path per scatterer of the target: a t.shape + (N,) table."""
    return bounce_paths(scatterer_states(target, t), tx, rx, lam, doppler)


def select_polarization(table: PathTable, states: ScattererStates, tx_pol: int = 0,
                        rx_pol: int = 0) -> PathTable:
    """A target's paths for one (rx, tx) polarization pair, weighted by the
    Jones matrices of its scatterer states; H=0, V=1. H-H default."""
    return PathTable(table.delay, table.gain * states.jones[:, rx_pol, tx_pol], table.doppler)


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
    radii (d_tx, d_rx) in the given directions. The delay axis is relative
    to the target-center bistatic delay (d_tx + d_rx)/c.
    """

    az_tx_deg: np.ndarray
    el_tx_deg: np.ndarray
    az_rx_deg: np.ndarray
    el_rx_deg: np.ndarray
    delay_s: np.ndarray
    data: np.ndarray
    d_tx: float
    d_rx: float
    band: FrequencyBand

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


def _body_states(target, t: float = 0.0) -> ScattererStates:
    """Scatterer states of a solitaire object centered for a range scan."""
    if isinstance(target, RigidTarget):
        offsets = np.stack([s.offset for s in target.scatterers])
        amps = np.array([s.amplitude for s in target.scatterers], dtype=complex)
        jones = np.stack([s.jones for s in target.scatterers])
        return ScattererStates(offsets, np.zeros_like(offsets), amps, jones)
    if isinstance(target, Rotor):
        return _rotor_states(target, t)
    if isinstance(target, (list, tuple)):
        sc = [s if isinstance(s, PointScatterer) else PointScatterer(*s) for s in target]
        return _body_states(RigidTarget(sc, Trajectory.from_waypoints([(0.0, (0, 0, 0))])))
    raise ConfigError(f"unsupported scan target type {type(target).__name__}")


def _scan_states(target, t: float, d_tx: float, d_rx: float) -> ScattererStates:
    """Body states of a scan target whose extent both antenna radii must exceed."""
    states = _body_states(target, t)
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
                      band: FrequencyBand, t: float = 0.0,
                      sweep_window: str = "none",
                      threads: int = 1) -> ReflectivityTensor:
    """Full 4-D angular scan of a solitaire target's bistatic reflectivity.

    grid maps the four angle axes ("az_tx", "el_tx", "az_rx", "el_rx") to
    strictly increasing arrays of degrees. Antennas sit at radii d_tx / d_rx
    in each direction pair; the sweep over the band is the tapered
    sum_n s_n λ_f/(4π r1 r2) exp(-j2π f (τ1 + τ2)) jones_n, τ1 = (r1 - d_tx)/c,
    τ2 = (r2 - d_rx)/c, and its inverse transform, centred on the
    target-center delay, is the delay profile.

    Each hop depends on one direction only, so the grid is evaluated as the
    product of its az_tx x el_tx Tx and az_rx x el_rx Rx directions:
    sweep[i, j, f] = sum_n A[i, n, f] jones_n B[j, n, f], A = s_n
    exp(-j2π f τ1)/(4π r1) and B = exp(-j2π f τ2)/r2 from phase_ramps.
    Rx blocks build their ramps once; Tx blocks fold theirs with the Jones
    columns and the per-frequency factor, and each pair of blocks is one
    stacked product per frequency, (I_b·4 x N) @ (N x J_b), inverse-
    transformed in place. Every temporary stays within _SLAB_ELEMENTS
    complex entries. threads spreads the Rx blocks over a pool; each writes
    its own slice, so the result does not depend on it.
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
    states = _scan_states(target, t, d_tx, d_rx)
    az_tx, el_tx, az_rx, el_rx = axes
    u_tx = _directions(az_tx[:, None], el_tx).reshape(-1, 3)
    u_rx = _directions(az_rx[:, None], el_rx).reshape(-1, 3)
    n_tx, n_rx, n_scat, n_freq = len(u_tx), len(u_rx), len(states), band.n_points
    out = np.empty((n_tx, n_rx, n_freq, 4), dtype=complex)
    tx_block = max(1, min(n_tx, _SLAB_ELEMENTS // (4 * n_scat * n_freq)))
    rx_block = max(1, min(_SLAB_ELEMENTS // (n_scat * n_freq), _SLAB_ELEMENTS // (tx_block * 4 * n_freq)))
    amps = states.amplitudes / FOUR_PI
    cols = _sweep_scale(band, sweep_window)[:, None, None, None] * states.jones.reshape(n_scat, 4).T

    def hop_ramps(u, d, gains):
        """(n, N, n_freq) ramps of the delays (r - d)/c of the hops between the scatterers and
        antennas at d·u (n, 3), weighted by gains/r and the f_lo phase."""
        r, _ = two_hop(states.positions, d * u[:, None], d * u[:, None])   # coincidence-checked
        tau = (r - d) / C0
        z = phase_ramps(tau, band.delta_f, n_freq)
        z *= (gains / r * np.exp(-2j * np.pi * band.f_lo * tau))[..., None]
        return z

    def evaluate(start: int) -> None:
        rj = slice(start, start + rx_block)
        rx = np.ascontiguousarray(hop_ramps(u_rx[rj], d_rx, 1.0).transpose(2, 1, 0))   # (n_freq, N, J_b)
        fold = np.empty((n_freq, tx_block, 4, n_scat), dtype=complex)
        for i in range(0, n_tx, tx_block):
            ti = slice(i, i + tx_block)
            a = fold[:, :len(u_tx[ti])]                                # (n_freq, I_b, 4, N)
            tx = hop_ramps(u_tx[ti], d_tx, amps).transpose(2, 0, 1)
            np.multiply(tx[:, :, None, :], cols, out=a)
            del tx                                                     # one Tx slab at a time
            sweep = a.reshape(n_freq, -1, n_scat) @ rx                 # (n_freq, I_b·4, J_b)
            np.fft.ifft(sweep, axis=0, out=sweep)
            out[ti, rj] = sweep.reshape(a.shape[:3] + (-1,)).transpose(1, 3, 0, 2)

    _map_in_order(evaluate, range(0, n_rx, rx_block), threads)
    data = out.reshape(len(az_tx), len(el_tx), len(az_rx), len(el_rx), n_freq, 2, 2)
    return ReflectivityTensor(az_tx, el_tx, az_rx, el_rx, band.delay_axis(), data, d_tx, d_rx, band)


@dataclass(eq=False)
class FlyoverMap:
    """(sweep angle x relative delay) complex map from a gantry-style sweep."""

    angles_deg: np.ndarray
    delay_s: np.ndarray
    data: np.ndarray
    d_tx: float
    d_rx: float
    band: FrequencyBand


def flyover_scan(target, fixed_angle_deg: float, sweep: tuple[float, float, float],
                 d_tx: float, d_rx: float, band: FrequencyBand,
                 elevation_deg: float = 0.0, t: float = 0.0,
                 sweep_window: str = "none") -> FlyoverMap:
    """Emulate a flyover: one antenna fixed, the other swept in azimuth.

    The swept angle is the bistatic separation relative to the fixed
    antenna, running e.g. 10..180 degrees from quasi-monostatic to forward
    scattering, with at most MAX_AXIS_POINTS angles. Both antennas sit at
    elevation_deg (default 0) and the H-H polarization is extracted, so the
    output is directly comparable to gantry measurement maps. The fixed
    Tx direction shares no ramp with another, so each swept angle is one
    row of channel.path_rows, the kernel geometric synthesis runs on: the
    delays (r1 + r2 - d_tx - d_rx)/c with weights s_n J_HH/(4π r1 r2) and
    f0 = f_lo, times the per-frequency factor, inverse-transformed in place.
    """
    start, stop, step = sweep
    if step <= 0 or stop <= start:
        raise ConfigError("sweep must be (start, stop, step) with step > 0")
    n = int(round((stop - start) / step)) + 1 if stop - start < step * MAX_AXIS_POINTS else 0
    if not 1 <= n <= MAX_AXIS_POINTS:
        raise ConfigError(f"sweep ({start}, {stop}, {step}): expected 1 to {MAX_AXIS_POINTS} angles")
    check_entries(n * band.n_points, "flyover map of swept angles x band.n_points")
    angles = start + step * np.arange(n)
    angles = angles[angles <= stop + 1e-9]
    states = _scan_states(target, t, d_tx, d_rx)
    p_tx = d_tx * direction_from_angles(fixed_angle_deg, elevation_deg)
    p_rx = d_rx * _directions(fixed_angle_deg + angles, elevation_deg)[:, None]
    weights = states.amplitudes * states.jones[:, 0, 0] / FOUR_PI

    def block(rows: slice):
        r1, r2 = two_hop(states.positions, p_tx, p_rx[rows])   # coincidence-checked
        return (r1 + r2 - (d_tx + d_rx)) / C0, weights / (r1 * r2)
    data = path_rows(block, len(angles), band.delta_f, band.n_points, f0=band.f_lo)
    data *= _sweep_scale(band, sweep_window)
    np.fft.ifft(data, axis=1, out=data)
    return FlyoverMap(angles, band.delay_axis(), data, d_tx, d_rx, band)


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
