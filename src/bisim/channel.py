"""Phase-coherent OFDM channel frequency response synthesis over slow time.

A capture is an M x K complex matrix H[m, k] (symbol x subcarrier), the
path sum sum_p a_p(t_m) exp(-j2πkΔf τ_p(t_m)) at t_m = t0 + mT. synth_cfr
evaluates it on one kernel, path_rows, fed the delays and gains of each
block of symbols by one of two row callbacks:

* scene.link_callback evaluates the scene at the symbol times, so delays
  and carrier phases track its geometry and Doppler emerges from the
  carrier phase rotation itself (geometric mode);
* first_order takes a PathTable of shape (P,), the paths at t0 with their
  Dopplers, to first order in Δt = t - t0: delay τ_p - (f_D,p / f_c)Δt and
  gain a_p exp(+j2π f_D,p Δt) (fixed mode). As each gain carries the
  carrier phase exp(-j2π f_c τ), that is the Taylor expansion of the
  geometric table, less the second-order term of the range acceleration.

path_rows builds the ramps exp(-j2πkΔfτ) from one exp per delay,
z = exp(-j2πΔfτ), by doubling (see _powers): rows [n, 2n) are rows [0, n)
times z^n, and z^(2n) is z^n squared. The flyover scan of targets.py
shares it. It asks for the geometry of as many rows at once as hold
_PATH_BUDGET paths, and splits each row's K ramps into about √K low and √K
high ones, all powers of the one z: the high ramps take the weights, and a
block of rows is one batched (high x P) @ (P x low) product. The low
ramps, the high ramps and the product stay within _SLAB_ELEMENTS, 1 MiB,
whatever the capture size. The products run on BLAS; pipeline.run pins it
to one thread (one_blas_thread).

Fractional delays are exact frequency-domain phase ramps; the carrier phase
of a path lives in its complex gain, keeping delay-bin positions baseband
consistent. A path holds still within a symbol (no intra-symbol ICI),
valid while f_D * T_sym << 1.

One buffer per link: add_noise adds its noise into the cube it is given,
and the processing functions work in that cube in turn, so SlowTimeCube
copies an array that is read-only, unaligned or not C-order, once.
"""

from __future__ import annotations

import ctypes
import functools
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, UsageError

GAUSSIAN_SPAN = 6.0    # standard deviations across a "gaussian" window: n points have std n / GAUSSIAN_SPAN
MAX_ENTRIES = 1 << 28  # largest capture, scan output, or array of paths x frequencies or symbols: 4 GiB


def check_entries(entries: int, what: str) -> None:
    """ConfigError naming `what` if an output of that many complex entries exceeds MAX_ENTRIES."""
    if entries > MAX_ENTRIES:
        raise ConfigError(f"{what}: {entries} complex entries, more than the {MAX_ENTRIES} allowed")


@functools.cache
def _openblas():
    """The OpenBLAS that numpy bundles, through ctypes, or None where it is not found."""
    here = Path(np.__file__).parent   # wheels keep it in numpy.libs beside numpy, or in numpy/.dylibs
    for path in sorted([*here.parent.glob("numpy.libs/*openblas*"), *here.glob(".dylibs/*openblas*")]):
        try:
            lib = ctypes.CDLL(str(path))
            get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return lib
    return None


@contextmanager
def one_blas_thread():
    """Run the body with numpy's OpenBLAS on one thread, and restore its thread count after.

    The products of a run are many and small, and OpenBLAS's helper threads
    cost more CPU than they save on them; with one BLAS thread a thread pool
    of the caller's scales instead. Without that library this does nothing.
    The count is the process's: runs that overlap in two threads share it.
    """
    lib = _openblas()
    if lib is None:
        yield
        return
    old = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(old)


@dataclass(eq=False)
class WaveformConfig:
    """OFDM numerology: carrier, bandwidth, subcarrier and symbol counts.

    The symbol time and the subcarrier spacing are derived, never given:
    T_sym = 1/Δf, the orthogonality condition, with Δf = B/K.
    """

    f_c: float
    bandwidth: float
    n_subcarriers: int
    n_symbols: int

    def __post_init__(self):
        if self.f_c <= 0 or self.bandwidth <= 0:
            raise ConfigError("carrier and bandwidth must be positive")
        if self.n_subcarriers < 1 or self.n_symbols < 1:
            raise ConfigError("need at least one subcarrier and one symbol")
        check_entries(self.n_symbols * self.n_subcarriers, "capture of n_symbols x n_subcarriers")
        if not self.delta_f > 0 or math.isinf(self.t_sym):
            raise ConfigError(f"bandwidth {self.bandwidth} over {self.n_subcarriers} subcarriers "
                              "gives no finite symbol time")

    @property
    def delta_f(self) -> float:
        return self.bandwidth / self.n_subcarriers

    @property
    def t_sym(self) -> float:
        return 1.0 / self.delta_f

    @property
    def duration(self) -> float:
        """Slow-time span of one capture."""
        return self.n_symbols * self.t_sym

    def symbol_times(self, t0: float = 0.0) -> np.ndarray:
        return t0 + np.arange(self.n_symbols) * self.t_sym

    def subcarrier_frequencies(self) -> np.ndarray:
        """Absolute frequency f_c + kΔf of subcarrier k = 0..K-1, as synthesized."""
        return self.f_c + np.arange(self.n_subcarriers) * self.delta_f


@dataclass(eq=False)
class SlowTimeCube:
    """Complex channel frequency response over (symbol x subcarrier)."""

    data: np.ndarray
    waveform: WaveformConfig

    def __post_init__(self):
        # worked in place: a ResultArchive.read view, read-only and unaligned, is copied
        self.data = np.require(self.data, complex, "CAW")
        expected = (self.waveform.n_symbols, self.waveform.n_subcarriers)
        if self.data.shape != expected:
            raise UsageError(
                f"cube shape {self.data.shape} does not match waveform {expected}"
            )

    def scaled_power(self) -> tuple[float, int]:
        """Mean |H|^2 as (m, e), mean |H|^2 = m·4^e, where 2^e is the power of two
        just above the peak |H| (e = 0 for an all-zero cube). |H| is scaled by 2^-e
        before it is squared, so no square overflows; the scaling is exact, so
        m·4^e is the unscaled mean bit for bit wherever that is a normal float."""
        mag = np.abs(self.data)
        e = math.frexp(float(mag.max(initial=0.0)))[1]
        np.ldexp(mag, -e, out=mag)
        return float(np.mean(np.square(mag, out=mag))), e

    def mean_power_db(self) -> float:
        """10 log10 of the mean |H|^2, as 10 log10(m) + 20e log10(2) of scaled_power,
        so finite for any finite cube; -3000 dB for an all-zero one."""
        m, e = self.scaled_power()
        return float(10 * np.log10(max(m, 1e-300)) + e * (20 * np.log10(2.0)))


@dataclass(eq=False)
class PathTable:
    """P propagation paths at one or more times; arrays have shape (..., P).

    delay (s, >= 0) and gain carry the leading time axes; the gain holds the
    path's carrier phase exp(-j2π f_c τ). doppler (Hz) is filled on request:
    a (P,) table at t0, which first_order carries to first order in t - t0,
    and illumination channels carry it; None means static paths, as clean's
    removed paths are. Geometric mode's tables leave it None, as Doppler
    there emerges from the delays over time.
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


_SLAB_ELEMENTS = 1 << 16  # complex entries of one block's temporaries in a blocked kernel: 1 MiB
_PATH_BUDGET = 1 << 12    # paths of one path_rows geometry call after its first


def _powers(z, n: int) -> np.ndarray:
    """Powers z^k, k = 0..n-1, of an array z (...) -> (n, ...), by doubling.

    Row 0 is 1, and rows [m, 2m) are rows [0, m) times z^m for
    m = 1, 2, 4, ..., where z^(2m) is z^m squared in place: row k carries
    popcount(k) products and z is left as its 2^ceil(log2 n)-th power (z^n
    for n a power of two). More than MAX_ENTRIES powers raise ConfigError
    before any is made.
    """
    check_entries(n * z.size, f"phase ramps of {n} frequencies x {z.size} delays")
    out = np.empty((n, *z.shape), dtype=complex)
    out[0] = 1.0
    m = 1
    while m < n:
        k = min(m, n - m)
        np.multiply(out[:k], z, out=out[m:m + k])
        z *= z
        m *= 2
    return out


def phase_ramps(delay, delta_f: float, n_subcarriers: int) -> np.ndarray:
    """Frequency ramps exp(-j2π k Δf τ), k = 0..K-1, of delays (...) -> (K, ...).

    One exp per delay, z = exp(-j2πΔfτ), then its powers z^k by doubling
    and squaring (_powers). More than MAX_ENTRIES ramps raise ConfigError
    before any is made.
    """
    delay = np.asarray(delay, dtype=float)
    return _powers(np.exp(-2j * np.pi * delta_f * delay), n_subcarriers)


def path_rows(paths_of: Callable[[slice], tuple], n_rows: int, delta_f: float, n: int) -> np.ndarray:
    """Rows of path sums sum_p w_p exp(-j2πkΔfτ_p), k = 0..n-1 -> (n_rows, n).

    paths_of(rows) gives the (delay, weight) arrays, each (b, P), of the b
    consecutive rows of a slice. Its first call asks for one row, which
    gives P; each later call asks for as many rows as hold _PATH_BUDGET
    paths, or one row if P alone exceeds it. A sum over a band that starts
    at f0 rather than 0 takes exp(-j2π f0 τ) in its weights.

    Each row is a low x high ramp product. With L = 2^ceil(log2(n)/2),
    Q = ceil(n/L) and z_p = exp(-j2πΔfτ_p), entry qL + r is
    sum_p (w_p z_p^(qL)) z_p^r: one exp per delay gives z_p, its powers the
    L low ramps, and the powers of z_p^L, which their squarings leave, the
    Q high ramps. The high ramps take the weights in place, and a block of
    b rows is one batched product (b, Q, P) @ (b, P, L), of which the first
    n columns are kept. That is P exps and (L + Q)·P products per row where
    a full ramp set takes n·P, and the n·P multiply-adds run on BLAS.
    Blocks keep the low ramps, the high ramps and the product together
    within _SLAB_ELEMENTS, or are one row.
    """
    out = np.empty((n_rows, n), dtype=complex)
    low = 1 << ((n - 1).bit_length() + 1) // 2
    high = -(-n // low)
    start, rows = 0, 1
    while start < n_rows:
        stop = min(start + rows, n_rows)
        delay, weight = paths_of(slice(start, stop))
        n_paths = delay.shape[-1]
        block = max(1, _SLAB_ELEMENTS // ((low + high) * n_paths + high * low))
        for i in range(start, stop, block):
            at = slice(i - start, min(i + block, stop) - start)
            z = np.exp(-2j * np.pi * delta_f * delay[at])
            lo = _powers(z, low)   # leaves z^low in z
            hi = _powers(z, high)
            hi *= weight[at]
            b = hi.shape[1]
            out[i:i + b] = np.matmul(hi.transpose(1, 0, 2), lo.transpose(1, 2, 0)).reshape(b, -1)[:, :n]
        start, rows = stop, max(1, _PATH_BUDGET // max(1, n_paths))
    return out


def first_order(paths: PathTable, waveform: WaveformConfig) -> Callable[[slice], tuple]:
    """Fixed mode's row callback: a (P,) table of the paths at t0 (else UsageError) taken to
    first order in Δt = mT, computed as m·T and not as t - t0, so a shift of t0 moves no bit:
    delay τ - (f_D / f_c)Δt and gain a exp(+j2π f_D Δt); doppler=None means static paths.
    These rows are no PathTable, as a first-order delay may fall below 0."""
    if paths.delay.ndim != 1:
        raise UsageError("fixed mode takes a single-instant path table of shape (P,)")
    w = waveform
    dt = np.arange(w.n_symbols) * w.t_sym
    f_d = np.zeros(len(paths)) if paths.doppler is None else paths.doppler

    def rows(at: slice):
        step = dt[at, None]
        return paths.delay - f_d / w.f_c * step, paths.gain * np.exp(2j * np.pi * f_d * step)
    return rows


def synth_cfr(paths_of: Callable[[slice], tuple], waveform: WaveformConfig) -> SlowTimeCube:
    """The CFR capture on path_rows, whose row callback paths_of gives the (delay, gain) of the
    symbols of a slice: fixed mode's first_order or geometric mode's scene.link_callback.
    Superposition is exactly linear in the path set."""
    return SlowTimeCube(path_rows(paths_of, waveform.n_symbols, waveform.delta_f, waveform.n_subcarriers), waveform)


def add_noise(cube: SlowTimeCube, snr_db: float, seed: int) -> SlowTimeCube:
    """Add circularly-symmetric complex white noise at the given SNR, in place.

    The noise variance is mean(|H|^2) / 10^(snr/10); its per-component standard
    deviation, 2^e·sqrt(m / 10^(snr/10) / 2) from scaled_power's (m, e), is finite
    wherever it is a float, even where the variance overflows, and ConfigError
    otherwise. The noise is added into cube.data, which is overwritten, and the cube
    is returned; snr_db = +inf returns it as it is. The noise is drawn from one seeded
    generator in row blocks of at most _SLAB_ELEMENTS entries (or one row), in row
    order, which gives the normals of a single (M, K, 2) draw, so the result is
    independent of any worker-pool parallelism in the surrounding pipeline; each
    block's (re, im) pairs are read as complex, scaled and added to its rows.
    """
    if np.isinf(snr_db) and snr_db > 0:
        return cube
    m, e = cube.scaled_power()
    try:   # bit for bit sqrt(var / 2) wherever m·4^e and var / 2 are normal floats
        std = math.ldexp(math.sqrt(m / 10.0 ** (snr_db / 10.0) / 2.0), e)
    except (OverflowError, ZeroDivisionError):
        std = math.inf
    if not math.isfinite(std):
        raise ConfigError(f"snr_db {snr_db:g} and signal power {cube.mean_power_db():.1f} dB "
                          "give no finite noise variance")
    try:
        rng = np.random.default_rng(seed)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"noise seed {seed!r}: {err}") from None
    n_rows, n = cube.data.shape
    rows = max(1, _SLAB_ELEMENTS // n)
    for i in range(0, n_rows, rows):
        noise = rng.standard_normal((min(rows, n_rows - i), n, 2)).view(complex)[..., 0]
        noise *= std
        cube.data[i:i + rows] += noise
    return cube


def named_window(name: str | None, n: int, sym: bool = False) -> np.ndarray:
    """Named window of length n, periodic (for FFTs) unless sym=True.

    "none", "rect" and "rectangular" give ones; "hann" and "gaussian"
    (standard deviation n/GAUSSIAN_SPAN) use scipy.signal's formulas,
    bit for bit, without importing it, and as scipy does give ones below two
    points; any other name goes to scipy's get_window. An unknown name, or
    another name without scipy installed, raises ConfigError.
    """
    own = name in ("hann", "gaussian")
    if name in (None, "none", "rect", "rectangular") or (own and n < 2):
        return np.ones(n)
    if own:
        m = n if sym else n + 1   # a periodic window is a symmetric one of n + 1 points, truncated
        if name == "hann":
            w = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, m))
        else:
            std = n / GAUSSIAN_SPAN
            k = np.arange(0, m, dtype=float) - (m - 1.0) / 2.0
            w = np.exp(-k ** 2 / (2 * std * std))
        return w[:n]
    try:   # slow to import, so only for the rarer windows; scipy is the optional "windows" extra
        from scipy.signal import get_window
    except ImportError:
        raise ConfigError(f"window {name!r} needs scipy: install bisim[windows]") from None
    try:
        return get_window(name, n, fftbins=not sym)
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
