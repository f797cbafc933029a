"""Radar echo processing: delay-Doppler maps, clutter removal, micro-Doppler.

The chain mirrors a passive OFDM sensing receiver: inverse transform over
subcarriers (fast time -> delay), forward transform over symbols (slow time
-> Doppler), static clutter collapsing at the 0 Hz bin, dominant-path
subtraction ahead of the Doppler FFT, and STFT spectrograms for
time-variant targets. Both map transforms are orthonormal so total map
energy equals cube energy with rectangular windows. The Doppler FFT runs
along contiguous rows of the transposed delay profiles. Detection takes
its floor as the median |x| in dB and goes to dB only on the candidate
cells that a linear pre-threshold picks.

One buffer per link: clean and the DD map work in the cube they are given
and overwrite its data. Clean leaves its residual in that cube and returns
only what it removed, and the map lands in its buffer; the DD map's
transposed rows are its one map-sized temporary. A detection holds its
delay, not the excess over the LoS delay: the caller holds the link.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .channel import PathTable, SlowTimeCube, check_entries, delay_axis, named_window
from .errors import ConfigError, NumericalError, UsageError

DB_FLOOR = -300.0
_REFINE_CYCLES = 3          # clean's alternating re-fit cycles over all found paths
_FLOOR_MARGIN_DB = 10.0     # a path peak less far above the profile median is at the noise floor
_PRE_MARGIN_DB = 1e-6       # detection's linear pre-threshold lies this far below the limit: far
                            # beyond log10's rounding, so no cell at the limit is missed


def magnitude_db(x) -> np.ndarray:
    """20 log10 |x| clamped below at DB_FLOOR (exact zeros included); NaN stays NaN."""
    with np.errstate(divide="ignore"):
        return np.maximum(20.0 * np.log10(np.abs(np.asarray(x))), DB_FLOOR)


@dataclass(eq=False)
class DelayDopplerMap:
    """Complex (delay bin x Doppler bin) map with centered Doppler axis."""

    data: np.ndarray          # (n_delay, n_doppler)
    delay_s: np.ndarray
    doppler_hz: np.ndarray

    def __post_init__(self):
        if self.data.shape != (len(self.delay_s), len(self.doppler_hz)):
            raise UsageError("map shape inconsistent with axes")

    @property
    def zero_doppler_bin(self) -> int:
        return int(np.argmin(np.abs(self.doppler_hz)))


def delay_doppler_map(cube: SlowTimeCube, fast_window: str = "none",
                      slow_window: str = "none") -> DelayDopplerMap:
    """Delay-Doppler map of a slow-time capture, made in cube.data.

    Unitary IFFT over subcarriers per symbol, windowed and transformed in
    cube.data, then one transposed copy, so each delay bin's slow-time
    series is a contiguous row, and a unitary FFT over symbols along those
    rows, in place. The fftshift copies the rows back into the cube's
    buffer, which then holds the map in C order, so 0 Hz is an exact center
    bin (even M keeps the zero-Doppler energy in one unstraddled bin).
    Static paths land entirely in that bin; movers separate along the
    Doppler axis at resolution 1/(M*T_sym).
    """
    w = cube.waveform
    if w.n_symbols < 2:
        raise UsageError("need at least two symbols for Doppler resolution")
    wf = named_window(fast_window, w.n_subcarriers)
    ws = named_window(slow_window, w.n_symbols)
    data = cube.data
    # a window of ones is skipped: multiplying by it changes no finite value
    if not np.all(wf == 1.0):
        data *= wf
    np.fft.ifft(data, axis=1, norm="ortho", out=data)   # delay profiles
    if not np.all(ws == 1.0):
        data *= ws[:, None]
    rows = data.T.copy()   # (delay, symbol) in C order: the Doppler FFT runs along contiguous rows
    np.fft.fft(rows, axis=1, norm="ortho", out=rows)
    dd = data.reshape(rows.shape)   # the map, in the cube's buffer
    s = w.n_symbols // 2   # fftshift: column i moves to (i + s) mod M
    dd[:, s:] = rows[:, :-s]
    dd[:, :s] = rows[:, -s:]
    doppler = np.fft.fftshift(np.fft.fftfreq(w.n_symbols, w.t_sym))
    return DelayDopplerMap(dd, delay_axis(w.n_subcarriers, w.bandwidth), doppler)


def check_gate(width_s: float, edge_s: float) -> None:
    """ConfigError unless width_s > 0 and 0 <= edge_s <= width_s / 2, where the two tapers meet."""
    if not (width_s > 0 and 0 <= edge_s <= width_s / 2):
        raise ConfigError(f"gate needs width_ns > 0 and edge_ns in [0, width_ns / 2], got {width_s * 1e9:g} "
                          f"and {edge_s * 1e9:g}")


def time_gate(values: np.ndarray, delay_s: np.ndarray, center_s: float,
              width_s: float, edge_s: float = 0.0) -> np.ndarray:
    """Zero delay bins outside [center - width/2, center + width/2].

    Gating applies along the last axis of `values`. edge_s > 0 replaces the
    hard edges with raised-cosine tapers of that width, one at each end, a
    function of the distance to the nearer end. Width and edge pass check_gate.
    """
    check_gate(width_s, edge_s)
    lo = center_s - width_s / 2.0
    hi = center_s + width_s / 2.0
    if hi < delay_s[0] or lo > delay_s[-1]:
        raise ConfigError("gate lies entirely outside the delay axis")
    if edge_s == 0:
        return values * ((delay_s >= lo) & (delay_s <= hi)).astype(float)
    phase = np.clip(np.pi * np.minimum(delay_s - lo, hi - delay_s) / edge_s, 0.0, np.pi)
    return values * (0.5 * (1 - np.cos(phase)))


@dataclass(eq=False)
class CleanResult:
    """The static paths clean removed, a PathTable without Dopplers; the residual is the cube clean was given."""

    removed: PathTable = field(default_factory=lambda: PathTable([], []))
    peak_db_above_floor: list[float] = field(default_factory=list)   # each path's peak over the profile median, dB

    @property
    def at_noise_floor(self) -> list[bool]:
        """Whether each path's peak rose less than _FLOOR_MARGIN_DB above the profile median."""
        return [above < _FLOOR_MARGIN_DB for above in self.peak_db_above_floor]


def parabolic_offset(m1: float, p0: float, p1: float) -> float:
    """Vertex of the parabola through three unit-spaced samples, within +/- 0.5."""
    denom = m1 - 2.0 * p0 + p1
    if denom == 0:
        return 0.0
    return float(np.clip(0.5 * (m1 - p1) / denom, -0.5, 0.5))


def _ramp(tau: float, k: np.ndarray, delta_f: float) -> np.ndarray:
    return np.exp(-2j * np.pi * delta_f * tau * k)


@lru_cache(maxsize=8)
def _moment_basis(n: int) -> np.ndarray:
    """Rows [1, kc, kc²] of the centred index kc = k - (n-1)/2 (|S| is unchanged, sums stay small)."""
    kc = np.arange(n) - (n - 1) / 2.0
    basis = np.stack([np.ones(n), kc, kc * kc])
    basis.flags.writeable = False
    return basis


def _fit_static_path(mean_row: np.ndarray, delta_f: float, bandwidth: float, tau_hint: float | None = None,
                     profile: np.ndarray | None = None) -> tuple[float, complex]:
    """Best (delay, amplitude) of one static path against a mean CFR row.

    The delay x (in bins of 1/B) maximizes f = |S(x)|^2, the matched-ramp
    correlation S(x) = sum_k r_k exp(+j2π k x Δf/B), within +/- one bin of
    the profile peak or of tau_hint. A safeguarded Newton iteration on the
    analytic f' and f'' starts from a parabola through the three profile
    samples at the peak; a step that leaves the shrinking bracket, or meets
    curvature that is not negative, bisects the bracket instead. The
    amplitude is then the closed-form least-squares fit. profile, where the
    caller has it, is the row's |IFFT|.
    """
    n = mean_row.size
    if tau_hint is None:
        profile = np.abs(np.fft.ifft(mean_row)) if profile is None else profile
        centre = int(np.argmax(profile))
        x = centre + parabolic_offset(profile[centre - 1], profile[centre], profile[(centre + 1) % n])
    else:
        x = centre = tau_hint * bandwidth
    lo, hi = centre - 1.0, centre + 1.0
    basis = _moment_basis(n)
    kc = basis[1]                              # centred index
    # an exact power-of-two scale to a unit peak: products of the sums neither under- nor overflow
    scale = 2.0 ** -max(math.frexp(float(np.max(np.abs(mean_row))))[1], -1000)
    moments = mean_row * scale * basis
    theta = 2.0 * np.pi * delta_f / bandwidth
    for _ in range(64):   # bisection alone would shrink the bracket below 1e-10 bins in 35
        s0, s1, s2 = (moments * np.exp(1j * theta * x * kc)).sum(axis=1).tolist()
        slope = (s0.conjugate() * s1).imag     # f'(x) = -2θ·slope
        curv = abs(s1) ** 2 - (s0.conjugate() * s2).real   # f''(x) = 2θ²·curv
        lo, hi = (x, hi) if slope < 0 else (lo, x)
        step = slope / (theta * curv) if theta * curv < 0 else np.inf   # θ·curv may underflow to -0
        x, x_old = (x + step if lo <= x + step <= hi else 0.5 * (lo + hi)), x
        if abs(x - x_old) <= 1e-10:   # bins; Newton's next step would be quadratically smaller
            break
    tau = max(x / bandwidth, 0.0)
    return tau, complex(np.vdot(_ramp(tau, np.arange(n), delta_f), mean_row) / n)


def check_clean_paths(n_paths: int, n_subcarriers: int) -> None:
    """ConfigError unless 0 <= n_paths <= n_subcarriers: clean resolves at most one path per delay bin."""
    if not 0 <= n_paths <= n_subcarriers:
        raise ConfigError(f"clean_paths = {n_paths}: expected 0 to n_subcarriers = {n_subcarriers}")


def subtract_dominant_paths(cube: SlowTimeCube, n_paths: int) -> CleanResult:
    """Iteratively remove the strongest static (zero-Doppler) paths.

    Each pass locates the strongest delay peak of the slow-time-averaged
    profile, refines its delay by a safeguarded Newton iteration on the
    matched-ramp correlation (numpy only, no scipy), least-squares fits the
    complex amplitude against the model phase ramp and subtracts the reconstructed
    path. _REFINE_CYCLES alternating re-fit cycles polish mutually
    interfering paths. Subtracting a static path shifts the slow-time mean
    row by exactly that path's ramp, so the fits run on the mean row alone,
    each fit's ramp is built once and serves its add-back in the re-fit
    cycles, and the residual is the cube less the sum of the fitted paths,
    subtracted once at the end from cube.data, in place: the residual is the
    cube it is given, also for n_paths = 0. Paths whose peak rises less than
    _FLOOR_MARGIN_DB above the profile median are flagged as at the noise
    floor. n_paths passes check_clean_paths.
    """
    w = cube.waveform
    check_clean_paths(n_paths, w.n_subcarriers)
    if n_paths == 0:
        return CleanResult()
    k = np.arange(w.n_subcarriers)
    mean_row = cube.data.mean(axis=0)
    estimates: list[tuple[float, complex, np.ndarray]] = []   # (delay, amplitude, its ramp)
    peak_db_above_floor = []
    for _ in range(n_paths):
        profile = np.abs(np.fft.ifft(mean_row))
        floor = float(np.median(profile))
        peak = float(profile.max())
        above = 20.0 * np.log10(peak / floor) if floor > 0 else np.inf
        tau, amp = _fit_static_path(mean_row, w.delta_f, w.bandwidth, profile=profile)
        ramp = _ramp(tau, k, w.delta_f)
        mean_row = mean_row - amp * ramp
        estimates.append((tau, amp, ramp))
        peak_db_above_floor.append(above)
    for _ in range(_REFINE_CYCLES if len(estimates) > 1 else 0):
        for i, (tau_i, amp_i, ramp_i) in enumerate(estimates):
            mean_row = mean_row + amp_i * ramp_i
            tau, amp = _fit_static_path(mean_row, w.delta_f, w.bandwidth, tau_hint=tau_i)
            ramp = _ramp(tau, k, w.delta_f)
            mean_row = mean_row - amp * ramp
            estimates[i] = (tau, amp, ramp)
    cube.data -= sum(amp * ramp for _, amp, ramp in estimates)
    delays, gains, _ = zip(*estimates)
    return CleanResult(PathTable(delays, gains), peak_db_above_floor)


def check_stft(fft_size: int, hop: int) -> None:
    """ConfigError unless fft_size >= 1 and hop >= 1."""
    if fft_size < 1 or hop < 1:
        raise ConfigError(f"need fft_size >= 1 and hop >= 1, got {fft_size} and {hop}")


@dataclass(eq=False)
class Spectrogram:
    """STFT magnitude over slow time, dB normalized to the map peak."""

    data: np.ndarray              # (n_frames, fft_size) dB
    time_s: np.ndarray
    doppler_hz: np.ndarray


def stft_spectrogram(series: np.ndarray, t_step: float, fft_size: int, hop: int, window: str,
                     t0: float = 0.0) -> Spectrogram:
    """Sliding-window Doppler spectrogram of a complex slow-time series.

    Frames start every `hop` samples; each is windowed (a Gaussian has
    sigma = fft_size/6), FFT'd, fftshift-centered, and converted to dB
    relative to the spectrogram peak. The series' first sample is at time
    t0, so a frame's time, at its centre, is t0 + (start + fft_size/2) t_step.
    The Doppler axis spans +/- 1/(2 t_step); fft_size and hop pass check_stft.
    """
    series = np.asarray(series, dtype=complex)
    if series.ndim != 1:
        raise UsageError("spectrogram input must be a 1-D slow-time series")
    check_stft(fft_size, hop)
    if series.size < fft_size:
        raise ConfigError(
            f"series of {series.size} samples is shorter than fft_size={fft_size}"
        )
    win = named_window(window, fft_size)
    starts = np.arange(0, series.size - fft_size + 1, hop)
    check_entries(len(starts) * fft_size, "spectrogram of frames x fft_size")
    frames = np.stack([series[s:s + fft_size] * win for s in starts])
    spec = np.fft.fftshift(np.fft.fft(frames, axis=1), axes=1)
    db = magnitude_db(spec)
    peak = db.max()
    if peak > DB_FLOOR:
        db = np.maximum(db - peak, DB_FLOOR)
    doppler = np.fft.fftshift(np.fft.fftfreq(fft_size, t_step))
    times = t0 + (starts + fft_size / 2.0) * t_step
    return Spectrogram(db, times, doppler)


@dataclass(eq=False)
class Detection:
    """One delay-Doppler peak above the detection threshold."""

    delay: float
    doppler: float
    power_db: float
    delay_bin: int
    doppler_bin: int


def detect_peaks(ddm: DelayDopplerMap, threshold_db: float,
                 exclude_zero_doppler: bool = False) -> list[Detection]:
    """Local maxima above (median noise floor + threshold).

    The floor is the median map magnitude in dB, robust to sparse targets;
    dB is monotone in |x|, so it is the middle |x| in dB, as np.median takes
    it. A linear pre-threshold just below the limit picks candidate cells,
    and only they go to dB for the limit and the 3 x 3 wrap-around
    neighbourhood tests. exclude_zero_doppler drops the 0 Hz bin column,
    separating static clutter from movers. A map with a non-finite cell
    raises NumericalError: its floor means nothing.
    """
    if not np.isfinite(threshold_db):
        raise ConfigError("threshold must be finite")
    mag = np.abs(ddm.data)
    if not np.all(np.isfinite(mag)):
        raise NumericalError(f"delay-Doppler map has {np.count_nonzero(~np.isfinite(mag))} non-finite cells")
    half = mag.size // 2
    part = np.partition(mag, half, axis=None)   # one selection: the lower middle is the left half's max
    lower = part[half] if mag.size % 2 else part[:half].max()
    limit = float(np.mean(magnitude_db(np.array([lower, part[half]])))) + threshold_db
    pre_db = limit - _PRE_MARGIN_DB   # exact zeros stay candidates while the limit is at the floor
    with np.errstate(over="ignore"):   # a limit above every finite |x| selects nothing
        least = 0.0 if pre_db <= DB_FLOOR else np.power(10.0, pre_db / 20.0)
    rows, cols = mag.shape
    i, j = np.divmod(np.flatnonzero(mag >= least), cols)
    if exclude_zero_doppler:
        moving = j != ddm.zero_doppler_bin
        i, j = i[moving], j[moving]
    db = magnitude_db(mag[i, j])
    keep = db >= limit
    for di, dj in ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)):
        keep &= db >= magnitude_db(mag[(i + di) % rows, (j + dj) % cols])
    out = [
        Detection(
            delay=float(ddm.delay_s[a]),
            doppler=float(ddm.doppler_hz[b]),
            power_db=float(p),
            delay_bin=int(a),
            doppler_bin=int(b),
        )
        for a, b, p in zip(i[keep], j[keep], db[keep])
    ]
    out.sort(key=lambda d: -d.power_db)
    return out
