"""Transmit-side target-link predistortion: time reversal and Doppler matching.

Time reversal convolves the transmit signal with the conjugated,
time-mirrored illumination channel; in the frequency domain that is simply
the conjugate spectrum. All multipath copies then coincide at the target in
time and add in phase, focusing the illumination power. Doppler matching
pre-offsets each illumination path so their Doppler shifts collapse onto a
common reference, removing the effective Doppler spread at the target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import PathTable
from .errors import ConfigError


def time_reversal_prefilter(tx_to_target_cfr: np.ndarray) -> np.ndarray:
    """Unit-energy conjugate of the illumination spectrum.

    Frequency-domain equivalent of transmitting the time-mirrored conjugate
    impulse response; normalized so that sum |g|^2 = 1, which makes focusing
    comparisons power-fair. An energy that is not positive and finite
    raises ConfigError.
    """
    cfr = np.asarray(tx_to_target_cfr, dtype=complex)
    if cfr.ndim != 1:
        raise ConfigError("prefilter expects a 1-D subcarrier vector")
    with np.errstate(over="ignore"):   # an overflow is reported below
        energy = float(np.sum(np.abs(cfr) ** 2))
    if not 0.0 < energy < math.inf:
        raise ConfigError(f"illumination channel energy {energy:g} is not positive and finite")
    return np.conj(cfr) / np.sqrt(energy)


def focusing_gain(tx_to_target_cfr: np.ndarray, prefilter: np.ndarray) -> float:
    """Peak received power with time reversal over the unfocused peak.

    prefilter is the channel's time_reversal_prefilter. Both excitations
    carry unit transmit energy: the prefilter versus a flat spectrum. The
    cascade H·conj(H) is real and nonnegative, so its peak is the coherent
    sum of all path power; the ratio is >= 1 for every channel and exactly N
    for N equal-power paths at distinct on-grid delays.
    """
    cfr = np.asarray(tx_to_target_cfr, dtype=complex)
    flat = np.ones(cfr.size) / np.sqrt(cfr.size)
    focused_peak = float(np.max(np.abs(np.fft.ifft(cfr * prefilter)) ** 2))
    unfocused_peak = float(np.max(np.abs(np.fft.ifft(cfr * flat)) ** 2))
    return focused_peak / unfocused_peak


def _weighted_spread(dopplers: np.ndarray, powers: np.ndarray) -> tuple[float, float]:
    total = float(powers.sum())
    if not 0.0 < total < math.inf:
        raise ConfigError(f"path power sum {total:g} is not positive and finite")
    mean = float(np.sum(powers * dopplers) / total)
    if np.ptp(dopplers) == 0.0:
        return float(dopplers[0]), 0.0
    with np.errstate(over="ignore"):   # an overflow is reported below
        spread = float(np.sqrt(np.sum(powers * (dopplers - mean) ** 2) / total))
    if not math.isfinite(spread):
        raise ConfigError(f"power-weighted Doppler spread {spread:g} Hz is not finite")
    return mean, spread


@dataclass(eq=False)
class DopplerCompensation:
    """Per-path Doppler matching result with before/after spreads (Hz)."""

    offsets_hz: np.ndarray
    reference_hz: float
    spread_before_hz: float
    spread_after_hz: float


def doppler_precompensate(paths: PathTable) -> DopplerCompensation:
    """Shift every illumination path's Doppler onto the power-weighted mean.

    Takes a (P,) table whose doppler is filled (None reads as static).
    Applies the per-path offset -f_D,i + f_ref, so in the ideal per-path
    model the residual power-weighted Doppler spread is zero while the total
    path power is untouched. Both the original spread and the residual one
    are reported; the residual is residual_spread of the input Dopplers plus
    the offsets, so only rounding (well under 1e-9 Hz) separates it from
    zero, and a wrong offset shows. A power sum or a spread that is not
    finite raises ConfigError.
    """
    if len(paths) == 0:
        raise ConfigError("need at least one path")
    dopplers = np.zeros(len(paths)) if paths.doppler is None else paths.doppler
    f_ref, before = _weighted_spread(dopplers, np.abs(paths.gain) ** 2)
    offsets = f_ref - dopplers
    return DopplerCompensation(offsets, f_ref, before, residual_spread(paths, offsets))


def residual_spread(paths: PathTable, offsets_hz) -> float:
    """Power-weighted Doppler spread (Hz) left once each path's Doppler is
    shifted by its offset; None Dopplers read as static."""
    dopplers = np.zeros(len(paths)) if paths.doppler is None else paths.doppler
    return _weighted_spread(dopplers + offsets_hz, np.abs(paths.gain) ** 2)[1]
