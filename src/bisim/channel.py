"""Phase-coherent OFDM channel frequency response synthesis over slow time.

A capture is an M x K complex matrix H[m, k] (symbol x subcarrier). Two
synthesis modes, which synth_cfr tells apart by its input:

* fixed      -- a PathTable: paths hold their delay/gain, Doppler applied
                as a per-symbol phasor:
                H[m,k] = sum_i a_i exp(-j2πkΔf τ_i) exp(+j2π f_Di m T)
* geometric  -- a callable: a block callback maps an array of symbol times
                to a PathTable of delays and gains, so delays and carrier
                phases track the scene geometry and Doppler emerges from the
                carrier phase rotation itself.

Both modes build the ramps exp(-j2πkΔfτ) frequency-major, (K, ...), from
one exp per delay, z = exp(-j2πΔfτ), by doubling (see phase_ramps): rows
[n, 2n) are rows [0, n) times z^n, and z^(2n) is z^n squared. Geometric
mode runs on path_rows, the one blocked path-sum kernel, which the flyover
scan of targets.py shares. It asks for the geometry of as many rows at
once as hold _PATH_BUDGET paths, and splits each row's K ramps into about
√K low and √K high ones, all powers of the one z: the high ramps take the
weights, and a block of rows is one batched (high x P) @ (P x low)
product. The low ramps, the high ramps
and the product stay within _SLAB_ELEMENTS, 1 MiB, whatever the capture
size. Fixed mode builds one ramp set for all symbols and is one matrix
product, gains @ ramps. Both products run on BLAS; pipeline.run pins it to
one thread (one_blas_thread).

Fractional delays are exact frequency-domain phase ramps; the carrier phase
of a path lives in its complex gain, keeping delay-bin positions baseband
consistent. Doppler is a per-symbol phasor only (no intra-symbol ICI), valid
while f_D * T_sym << 1.
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

_ORTHO_RTOL = 1e-12
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


def synth_cfr(
    paths: PathTable | Callable[[np.ndarray], PathTable],
    waveform: WaveformConfig,
    t0: float = 0.0,
) -> SlowTimeCube:
    """Synthesize a slow-time CFR capture from path parameters.

    The input picks the mode. A PathTable means fixed mode: it must be
    single-instant, of shape (P,); its doppler array sets each path's
    per-symbol phasor, and doppler=None means static paths. A callable means
    geometric mode: a block callback, an array of consecutive symbol times
    t0 + m*T_sym in, a PathTable with delay and gain of shape
    (len(times), P) out, called first on one symbol and then on chunks of
    path_rows's path budget (128 symbols a call for 32 paths). Fixed
    mode is one product, (M x P) gains @ (P x K) ramps, the ramps made
    C-contiguous: a transposed operand measured a larger peak RSS.
    Superposition is exactly linear in the path set.
    """
    w = waveform
    if callable(paths):
        times = t0 + np.arange(w.n_symbols) * w.t_sym

        def block(at: slice):
            table = paths(times[at])
            return table.delay, table.gain
        data = path_rows(block, w.n_symbols, w.delta_f, w.n_subcarriers)
    else:
        if paths.delay.ndim != 1:
            raise UsageError("fixed mode takes a single-instant path table of shape (P,)")
        check_entries(w.n_symbols * len(paths), "fixed-mode phasors of n_symbols x paths")
        dopplers = np.zeros(len(paths)) if paths.doppler is None else paths.doppler
        phasors = np.exp(2j * np.pi * w.t_sym * np.outer(np.arange(w.n_symbols), dopplers))
        gains = phasors * paths.gain
        data = gains @ np.ascontiguousarray(phase_ramps(paths.delay, w.delta_f, w.n_subcarriers).T)
    return SlowTimeCube(data, w, t0)


def add_noise(cube: SlowTimeCube, snr_db: float, seed: int) -> SlowTimeCube:
    """Add circularly-symmetric complex white noise at the given SNR.

    The noise variance is mean(|H|^2) / 10^(snr/10); its per-component standard
    deviation, 2^e·sqrt(m / 10^(snr/10) / 2) from scaled_power's (m, e), is finite
    wherever it is a float, even where the variance overflows, and ConfigError
    otherwise. snr_db = +inf returns the cube unchanged. The full noise block is drawn
    from one seeded generator in a single call, so the result is independent
    of any worker-pool parallelism in the surrounding pipeline; its (re, im)
    pairs are read as complex, scaled and summed with the cube in place.
    """
    if np.isinf(snr_db) and snr_db > 0:
        return SlowTimeCube(cube.data.copy(), cube.waveform, cube.t0)
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
    noisy = rng.standard_normal((*cube.data.shape, 2)).view(complex)[..., 0]
    noisy *= std
    noisy += cube.data
    return SlowTimeCube(noisy, cube.waveform, cube.t0)


def named_window(name: str | None, n: int, sym: bool = False) -> np.ndarray:
    """Named window of length n, periodic (for FFTs) unless sym=True.

    "none", "rect" and "rectangular" give ones; "hann" and "gaussian"
    (standard deviation n/6) use scipy.signal's formulas,
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
            std = n / 6.0
            k = np.arange(0, m, dtype=float) - (m - 1.0) / 2.0
            w = np.exp(-k ** 2 / (2 * std * std))
        return w[:n]
    try:   # slow to import, so only for the rarer windows; scipy is the optional "windows" extra
        from scipy.signal import get_window
    except ImportError:
        raise ConfigError(f"window {name!r} needs scipy: install bisim[windows]") from None
    spec = ("gaussian", n / 6.0) if name == "gaussian" else name
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
