"""Phase-coherent OFDM channel frequency response synthesis over slow time.

A capture is an M x K complex matrix H[m, k] (symbol x subcarrier). Two
synthesis modes:

* fixed      -- paths hold their delay/gain, Doppler applied as a per-symbol
                phasor:  H[m,k] = sum_i a_i exp(-j2πkΔf τ_i) exp(+j2π f_Di m T)
* geometric  -- a block callback maps an array of symbol times to a
                PathTable of delays and gains, so delays and carrier phases
                track the scene geometry and Doppler emerges from the
                carrier phase rotation itself.

Both modes build the ramps exp(-j2πkΔf τ) by a phasor recurrence (see
phase_ramps): z = exp(-j2πΔf τ) once per path, and per symbol in geometric
mode, then z^k by a cumulative product over subcarriers. Geometric mode
runs on path_rows, the one blocked path-sum kernel, which the flyover scan
of targets.py shares: it reduces each block's ramps with its weights, and
one (block x P x K) complex slab is live at a time, about 1 MiB whatever
the capture size. Fixed mode builds one ramp set for all symbols and stays
one einsum product.

Fractional delays are exact frequency-domain phase ramps; the carrier phase
of a path lives in its complex gain, keeping delay-bin positions baseband
consistent. Doppler is a per-symbol phasor only (no intra-symbol ICI), valid
while f_D * T_sym << 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, UsageError

_ORTHO_RTOL = 1e-12
MAX_ENTRIES = 1 << 28  # largest capture, reflectivity tensor or flyover map: complex entries, 4 GiB


def check_entries(entries: int, what: str) -> None:
    """ConfigError naming `what` if an output of that many complex entries exceeds MAX_ENTRIES."""
    if entries > MAX_ENTRIES:
        raise ConfigError(f"{what}: {entries} complex entries, more than the {MAX_ENTRIES} allowed")


@dataclass(eq=False)
class WaveformConfig:
    """OFDM numerology: carrier, bandwidth, subcarrier and symbol counts.

    T_sym must equal 1/Δf (Δf = B/K) to within 1e-12 relative, the
    orthogonality condition; omit t_sym to derive it exactly.
    """

    f_c: float
    bandwidth: float
    n_subcarriers: int
    n_symbols: int
    t_sym: float | None = None

    def __post_init__(self):
        if self.f_c <= 0 or self.bandwidth <= 0:
            raise ConfigError("carrier and bandwidth must be positive")
        if self.n_subcarriers < 1 or self.n_symbols < 1:
            raise ConfigError("need at least one subcarrier and one symbol")
        check_entries(self.n_symbols * self.n_subcarriers, "capture of n_symbols x n_subcarriers")
        if self.t_sym is None:
            self.t_sym = 1.0 / self.delta_f
        elif not math.isclose(self.t_sym * self.delta_f, 1.0, rel_tol=_ORTHO_RTOL):
            raise ConfigError(
                f"t_sym={self.t_sym} violates orthogonality: expected "
                f"1/Δf = {1.0 / self.delta_f}"
            )

    @property
    def delta_f(self) -> float:
        return self.bandwidth / self.n_subcarriers

    @property
    def wavelength(self) -> float:
        from .geometry import C0

        return C0 / self.f_c

    @property
    def duration(self) -> float:
        """Slow-time span of one capture."""
        return self.n_symbols * self.t_sym

    def subcarrier_frequencies(self) -> np.ndarray:
        """Absolute frequency f_c + kΔf of subcarrier k = 0..K-1, as synthesized."""
        return self.f_c + np.arange(self.n_subcarriers) * self.delta_f


@dataclass(eq=False)
class SlowTimeCube:
    """Complex channel frequency response over (symbol x subcarrier)."""

    data: np.ndarray
    waveform: WaveformConfig
    t0: float = 0.0

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=complex)
        expected = (self.waveform.n_symbols, self.waveform.n_subcarriers)
        if self.data.shape != expected:
            raise UsageError(
                f"cube shape {self.data.shape} does not match waveform {expected}"
            )

    def energy(self) -> float:
        return float(np.sum(np.abs(self.data) ** 2))

    def mean_power(self) -> float:
        return float(np.mean(np.abs(self.data) ** 2))

    def symbol_times(self) -> np.ndarray:
        return self.t0 + np.arange(self.waveform.n_symbols) * self.waveform.t_sym


@dataclass(eq=False)
class PathTable:
    """P propagation paths at one or more times; arrays have shape (..., P).

    delay (s, >= 0) and gain carry the leading time axes; the gain holds the
    path's carrier phase exp(-j2π f_c τ). doppler (Hz) is filled on request:
    fixed-mode synthesis, illumination channels and clean's removed paths
    carry it, and None means static paths. Geometric synthesis leaves it
    None, as Doppler there emerges from the delays over time.
    """

    delay: np.ndarray
    gain: np.ndarray
    doppler: np.ndarray | None = None

    def __post_init__(self):
        self.delay, self.gain = np.asarray(self.delay, dtype=float), np.asarray(self.gain, dtype=complex)
        self.doppler = None if self.doppler is None else np.asarray(self.doppler, dtype=float)
        shape = self.delay.shape
        if self.gain.shape != shape or (self.doppler is not None and self.doppler.shape != shape):
            raise ConfigError(f"path gain and doppler must have the delay shape {shape}")
        if self.delay.size and self.delay.min() < 0:
            raise ConfigError(f"path delay must be >= 0, got {self.delay.min()}")

    def __len__(self) -> int:
        return self.delay.shape[-1]


def join_paths(tables: Sequence[PathTable], shape: tuple) -> PathTable:
    """Concatenate tables along the path axis, each broadcast to shape + (P_i,);
    a single table that already has that shape is returned as it is."""
    if not tables:
        return PathTable(np.zeros((*shape, 0)), np.zeros((*shape, 0), dtype=complex))
    if len(tables) == 1 and tables[0].delay.shape[:-1] == tuple(shape):
        return tables[0]

    def cat(arrays):
        return np.concatenate([np.broadcast_to(a, (*shape, a.shape[-1])) for a in arrays], axis=-1)

    doppler = None if tables[0].doppler is None else cat([t.doppler for t in tables])
    return PathTable(cat([t.delay for t in tables]), cat([t.gain for t in tables]), doppler)


_SLAB_ELEMENTS = 1 << 16  # complex entries of one (block x P x K) slab: 1 MiB


def phase_ramps(delay, delta_f: float, n_subcarriers: int) -> np.ndarray:
    """Frequency ramps exp(-j2π k Δf τ), k = 0..K-1, of delays (..., P) -> (..., P, K).

    exp is taken once per delay; z^k comes from a cumulative product over the
    subcarriers, whose rounding error grows about linearly in k.
    """
    z = np.exp(-2j * np.pi * delta_f * np.asarray(delay))
    ramps = np.repeat(z[..., None], n_subcarriers, axis=-1)
    ramps[..., 0] = 1.0
    return np.cumprod(ramps, axis=-1, out=ramps)


def path_rows(paths_of: Callable[[slice], tuple], n_rows: int, delta_f: float, n: int,
              f0: float = 0.0) -> np.ndarray:
    """Rows of path sums sum_p w_p exp(-j2π(f0 + kΔf)τ_p), k = 0..n-1 -> (n_rows, n).

    paths_of(rows) gives the (delay, weight) arrays, each (b, P), of the b
    consecutive rows of a slice. The first block is one row; later blocks
    hold as many rows as keep one (b x P x n) phase_ramps slab within
    _SLAB_ELEMENTS, or one row if P*n alone exceeds it. exp(-j2π f0 τ) is
    folded into the weights when f0 is not 0. The reduction is an einsum,
    not `@`: threaded zgemm spins its helper threads on every block.
    """
    out = np.empty((n_rows, n), dtype=complex)
    start, block = 0, 1
    while start < n_rows:
        delay, weight = paths_of(slice(start, min(start + block, n_rows)))
        if f0:
            weight = weight * np.exp(-2j * np.pi * f0 * delay)
        out[start:start + block] = np.einsum("mp,mpk->mk", weight, phase_ramps(delay, delta_f, n))
        start += block
        block = max(1, _SLAB_ELEMENTS // max(1, delay.shape[-1] * n))
    return out


def synth_cfr(
    paths: PathTable | Callable[[np.ndarray], PathTable],
    waveform: WaveformConfig,
    mode: str = "fixed",
    t0: float = 0.0,
) -> SlowTimeCube:
    """Synthesize a slow-time CFR capture from path parameters.

    fixed mode takes a single-instant PathTable of shape (P,); its doppler
    array sets each path's per-symbol phasor, and doppler=None means static
    paths. geometric mode takes a block callback: an array of consecutive
    symbol times t0 + m*T_sym in, a PathTable with delay and gain of shape
    (len(times), P) out, called on the symbol blocks of path_rows. Fixed
    mode stays one einsum: zgemm measured faster but spins BLAS threads.
    Superposition is exactly linear in the path set.
    """
    w = waveform
    if mode == "fixed":
        if callable(paths) or paths.delay.ndim != 1:
            raise UsageError("fixed mode takes a single-instant path table, not a callback")
        dopplers = np.zeros(len(paths)) if paths.doppler is None else paths.doppler
        phasors = np.exp(2j * np.pi * w.t_sym * np.outer(np.arange(w.n_symbols), dopplers))
        gains = phasors * paths.gain
        ramps = phase_ramps(paths.delay, w.delta_f, w.n_subcarriers)
        data = np.einsum("mp,pk->mk", gains, ramps)   # not `@`: threaded zgemm spins per link
    elif mode == "geometric":
        if not callable(paths):
            raise UsageError("geometric mode needs a block callback times -> PathTable")
        times = t0 + np.arange(w.n_symbols) * w.t_sym

        def block(at: slice):
            table = paths(times[at])
            return table.delay, table.gain
        data = path_rows(block, w.n_symbols, w.delta_f, w.n_subcarriers)
    else:
        raise UsageError(f"unknown synthesis mode {mode!r}")
    return SlowTimeCube(data, w, t0)


def add_noise(cube: SlowTimeCube, snr_db: float, seed: int) -> SlowTimeCube:
    """Add circularly-symmetric complex white noise at the given SNR.

    The noise variance is mean(|H|^2) / 10^(snr/10); snr_db = +inf returns
    the cube unchanged. The full noise block is drawn from one seeded
    generator in a single call, so the result is independent of any
    worker-pool parallelism in the surrounding pipeline; its (re, im)
    pairs are read as complex, scaled and summed with the cube in place.
    """
    if np.isinf(snr_db) and snr_db > 0:
        return SlowTimeCube(cube.data.copy(), cube.waveform, cube.t0)
    if not np.isfinite(snr_db):
        raise ConfigError("snr_db must be finite or +inf")
    sig_power = cube.mean_power()
    var = sig_power / (10.0 ** (snr_db / 10.0))
    try:
        rng = np.random.default_rng(seed)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"noise seed {seed!r}: {err}") from None
    noisy = rng.standard_normal((*cube.data.shape, 2)).view(complex)[..., 0]
    noisy *= math.sqrt(var / 2.0)
    noisy += cube.data
    return SlowTimeCube(noisy, cube.waveform, cube.t0)


def cir_from_cfr(row: np.ndarray, window: str = "none") -> np.ndarray:
    """Inverse DFT of one subcarrier vector -> complex delay profile.

    Delay bin spacing is 1/B for a K-point row spanning bandwidth B. With
    window="none" energy is preserved in the 1/K-IDFT sense:
    sum|h|^2 = (1/K) sum|H|^2.
    """
    row = np.asarray(row, dtype=complex)
    if row.ndim != 1:
        raise UsageError("cir_from_cfr expects a 1-D subcarrier vector")
    if window != "none":
        row = row * named_window(window, row.size)
    return np.fft.ifft(row)


def named_window(name: str | None, n: int, sym: bool = False,
                 sigma: float | None = None) -> np.ndarray:
    """Named window of length n, periodic (for FFTs) unless sym=True.

    "none", "rect" and "rectangular" give ones; "hann" and "gaussian"
    (standard deviation sigma, default n/6) use scipy.signal's formulas,
    bit for bit, without importing it; any other name goes to scipy's
    get_window. An unknown name, or another name without scipy installed,
    raises ConfigError.
    """
    if name in (None, "none", "rect", "rectangular"):
        return np.ones(n)
    if name in ("hann", "gaussian") and n >= 2:
        m = n if sym else n + 1   # a periodic window is a symmetric one of n + 1 points, truncated
        if name == "hann":
            w = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, m))
        else:
            std = n / 6.0 if sigma is None else sigma
            k = np.arange(0, m, dtype=float) - (m - 1.0) / 2.0
            w = np.exp(-k ** 2 / (2 * std * std))
        return w[:n]
    try:   # slow to import, so only for the rarer windows; scipy is the optional "windows" extra
        from scipy.signal import get_window
    except ImportError:
        raise ConfigError(f"window {name!r} needs scipy: install bisim[windows]") from None
    spec = ("gaussian", n / 6.0 if sigma is None else sigma) if name == "gaussian" else name
    try:
        return get_window(spec, n, fftbins=not sym)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"window {name!r}: {err}") from None


def delay_axis(n_subcarriers: int, bandwidth: float) -> np.ndarray:
    """Delay bin centers for an n-point CIR over the given bandwidth."""
    return np.arange(n_subcarriers) / bandwidth


def nyquist_check(v_max: float, lam: float, t_sym: float) -> dict:
    """Spatial sampling check: one symbol of motion must stay under λ/2."""
    if v_max < 0 or lam <= 0 or t_sym <= 0:
        raise ConfigError("need v_max >= 0 and positive wavelength/symbol time")
    step = v_max * t_sym
    return {"ok": step < lam / 2.0, "spatial_step": step}
