"""Seeded workload inputs and independent output checks.

Each workload is a YAML run configuration, a list of subcommands, and a
``truth`` record that the checks compare against. Everything here is
numpy/yaml only: the reference values are computed without calling bisim,
so a check can catch a wrong result even when bisim is self-consistent.

Sizes are fixed per workload; the seed moves only the geometry, phases and
amplitudes, so every seed does the same amount of work.
"""

from __future__ import annotations

import math

import numpy as np

C0 = 299_792_458.0
WORKLOADS = ("rotor_microdoppler", "multistatic_fixed", "angle_sweeps")

# Subcommands of each workload, run in this order, with their output format.
STEPS = {
    "rotor_microdoppler": [("spectrogram", None)],
    "multistatic_fixed": [("simulate", "csv"), ("clean", None), ("ddmap", None),
                          ("localize", None)],
    "angle_sweeps": [("reflectivity", None), ("flyover", None)],
}

# Tolerances of the output checks.
SUPPORT_REL_TOL = 0.05        # rotor -20 dB Doppler support vs tip bound
CLEAN_DELAY_TOL_BINS = 0.05   # clean delays vs geometric delays, in 1/B
ENERGY_REL_TOL = 1e-10        # ddmap energy vs clean residual energy
CSV_DB_TOL = 1e-9             # CSV dB values vs 20 log10 |archive|
POSITION_TOL_M = 1.5          # localize position vs track at t0 (c/B = 3 m)
VELOCITY_TOL_M_S = 3.0        # localize velocity (range-rate bin 8.2 m/s)
SWEEP_REL_TOL = 1e-9          # sampled sweep responses vs numpy recomputation
SWEEP_SAMPLES = 12            # sampled grid points / flyover angles per check


# ---------------------------------------------------------------------------
# Input generation
# ---------------------------------------------------------------------------

def _rotor(rng, tiny: bool) -> tuple[dict, dict]:
    """ROTOR_SCENE of the test suite; the seed sets the blade phase."""
    phase0 = float(rng.uniform(0.0, 2.0 * np.pi))
    n_symbols, fft_size, hop, samples = (2304, 2048, 32, 16)
    if tiny:
        n_symbols, fft_size, hop, samples = (2304, 2048, 32, 8)
    cfg = {
        "mode": "geometric",
        "waveform": {"carrier_hz": 3.7e9, "bandwidth_hz": 16e6, "n_subcarriers": 128,
                     "n_symbols": n_symbols},
        "scene": {
            "include_los": False,
            "tx_nodes": [{"id": "tx0", "position": [-10.0, 0.0, 0.0]}],
            "rx_nodes": [{"id": "rx0", "position": [10.0, 0.5, 0.0]}],
            "targets": [{
                "kind": "rotor", "name": "prop", "hub": [0.0, 8.0, 0.0],
                "axis": [0.0, 0.0, 1.0], "radius": 0.12, "rate_rad_s": 625.0,
                "blades": 2, "samples_per_blade": samples, "sample_amplitude": 0.01,
                "phase0": phase0,
            }],
        },
        "processing": {"stft": {"fft_size": fft_size, "hop": hop, "window": "gaussian"}},
    }
    truth = {"carrier_hz": 3.7e9, "tx": [-10.0, 0.0, 0.0], "rx": [10.0, 0.5, 0.0],
             "hub": [0.0, 8.0, 0.0], "radius": 0.12, "rate": 625.0,
             "t_sym": 128 / 16e6, "fft_size": fft_size}
    return cfg, truth


def _bistatic(p, a, b) -> float:
    return float(np.linalg.norm(p - a) + np.linalg.norm(p - b))


def _link_record(tx_id, a, rx_id, b, clutter, amp_c, tgt, vel, amp_t, bw, k, m, lam):
    """Static path delays of one link, or None if the link is unusable."""
    static = [float(np.linalg.norm(b - a))] + [_bistatic(c, a, b) for c in clutter]
    delays = np.array(static + [_bistatic(tgt, a, b)]) / C0
    sep = np.abs(delays[:, None] - delays[None, :]) * bw
    u = (tgt - a) / np.linalg.norm(tgt - a) + (tgt - b) / np.linalg.norm(tgt - b)
    fd = -float(u @ vel) / lam
    # path gains up to the common factor lam / 4 pi
    g_los = 1.0 / np.linalg.norm(b - a)
    g_t = amp_t / (np.linalg.norm(tgt - a) * np.linalg.norm(tgt - b))
    g_c = np.abs(amp_c) / np.array(
        [np.linalg.norm(c - a) * np.linalg.norm(c - b) for c in clutter])
    if (sep[np.triu_indices(len(delays), 1)].min() < 4.0
            or delays.max() * bw > 0.8 * k
            or not 2.0 <= abs(fd) * k * m / bw <= 0.4 * m
            or g_c.min() < max(g_t, 0.01 * g_los)):
        return None
    return {"tx": tx_id, "rx": rx_id, "static_delays_s": [r / C0 for r in static]}


def _multistatic(rng, tiny: bool) -> tuple[dict, dict]:
    """2 Tx x 4 Rx, one moving point target, LoS and three clutter scatterers.

    The six nodes stand on a fixed arc around the scene centre, so the
    fusion grid, and with it the work and memory of localize, is the same
    for every seed. The seed places and moves the target, places the clutter
    and sets the noise. Draws are repeated until every link keeps its paths
    at least four delay bins apart (so clean removes the static paths, not
    the target), inside the unambiguous delay span, with the target Doppler
    at least two bins off the 0 Hz column and every clutter path stronger
    than the target path and no more than 40 dB below the LoS path.
    """
    f_c, bw, k, m = 28e9, 100e6, 512, 256
    radius = 120.0 if tiny else 240.0
    lam = C0 / f_c
    bearing = np.deg2rad([228.0, 312.0, 200.0, 256.0, 284.0, 340.0])
    nodes = radius * np.stack([np.cos(bearing), np.sin(bearing), np.zeros(6)], axis=1)
    tx, rx = nodes[:2], nodes[2:]
    for _ in range(10_000):
        tgt = np.array([*rng.uniform(-15.0, 15.0, 2), 0.0])
        heading = rng.uniform(0.0, 2.0 * np.pi)
        vel = rng.uniform(20.0, 30.0) * np.array([math.cos(heading), math.sin(heading), 0.0])
        clutter_bearing = rng.uniform(0.0, 2.0 * np.pi, 3)
        clutter = rng.uniform(0.25, 0.6, (3, 1)) * radius * np.stack(
            [np.cos(clutter_bearing), np.sin(clutter_bearing), np.zeros(3)], axis=1)
        amp_c = rng.uniform(5.0, 20.0, 3) * np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
        amp_t = float(rng.uniform(1.0, 2.0))
        links = [_link_record(f"tx{i}", a, f"rx{j}", b, clutter, amp_c, tgt, vel, amp_t,
                              bw, k, m, lam)
                 for i, a in enumerate(tx) for j, b in enumerate(rx)]
        if all(links):
            break
    else:
        raise RuntimeError("no valid multistatic layout found")
    node = lambda name, p: {"id": name, "position": [float(x) for x in p]}
    cfg = {
        "mode": "fixed",
        "waveform": {"carrier_hz": f_c, "bandwidth_hz": bw, "n_subcarriers": k,
                     "n_symbols": m},
        "scene": {
            "include_los": True,
            "tx_nodes": [node(f"tx{i}", p) for i, p in enumerate(tx)],
            "rx_nodes": [node(f"rx{j}", p) for j, p in enumerate(rx)],
            "targets": [{
                "kind": "rigid", "name": "mover",
                "scatterers": [{"amplitude": amp_t}],
                # t0 = 0 sits on the first segment, so the velocity is vel.
                "trajectory": [[0.0, [float(x) for x in tgt]],
                               [10.0, [float(x) for x in tgt + 10.0 * vel]]],
            }],
            "clutter": [{"position": [float(x) for x in c],
                         "amplitude": [float(z.real), float(z.imag)]}
                        for c, z in zip(clutter, amp_c)],
        },
        "processing": {"clean_paths": 1 + len(clutter), "detect_threshold_db": 20.0},
        "noise": {"snr_db": 25.0, "seed": int(rng.integers(1, 2**31))},
    }
    truth = {"bandwidth_hz": bw, "links": links, "position": tgt.tolist(),
             "velocity": vel.tolist()}
    return cfg, truth


def _angle_sweeps(rng, tiny: bool) -> tuple[dict, dict]:
    """A car-sized rigid cloud of 48 scatterers, scanned on a 4-D grid and flown over."""
    n_scat = 16 if tiny else 48
    half = np.array([2.25, 0.9, 0.75])
    offsets = rng.uniform(-half, half, size=(n_scat, 3))
    amps = rng.uniform(0.05, 0.5, size=n_scat) * np.exp(
        1j * rng.uniform(0.0, 2.0 * np.pi, size=n_scat))
    if tiny:
        grid = {"az_tx": {"start": 0, "stop": 90, "n": 3}, "el_tx": [0, 20],
                "az_rx": {"start": 0, "stop": 180, "n": 5}, "el_rx": [0, 15],
                "band": {"f_lo": 3.5e9, "f_hi": 4.0e9, "n_points": 32}}
        fly_step, fly_points = 10.0, 128
    else:
        grid = {"az_tx": {"start": 0, "stop": 315, "n": 8}, "el_tx": [0, 10, 20, 30],
                "az_rx": {"start": 0, "stop": 345, "n": 24},
                "el_rx": {"start": 0, "stop": 40, "n": 9},
                "band": {"f_lo": 3.5e9, "f_hi": 4.0e9, "n_points": 64}}
        fly_step, fly_points = 0.5, 1024
    target = {
        "kind": "rigid", "name": "car",
        "scatterers": [{"offset": [float(x) for x in o],
                        "amplitude": [float(a.real), float(a.imag)]}
                       for o, a in zip(offsets, amps)],
        "trajectory": [[0.0, [0.0, 0.0, 0.0]]],
    }
    cfg = {
        "waveform": {"carrier_hz": 3.7e9, "bandwidth_hz": 40e6, "n_subcarriers": 64,
                     "n_symbols": 16},
        "scene": {"tx_nodes": [{"id": "tx0", "position": [-50.0, 0.0, 0.0]}],
                  "rx_nodes": [{"id": "rx0", "position": [50.0, 0.0, 0.0]}],
                  "targets": [target]},
        "reflectivity": {"d_tx": 10.0, "d_rx": 10.0, "target": "car", **grid},
        "flyover": {"d_tx": 12.0, "d_rx": 12.0, "fixed_angle_deg": 0.0,
                    "start_deg": 10.0, "stop_deg": 180.0, "step_deg": fly_step,
                    "elevation_deg": 5.0, "sweep_window": "hann", "target": "car",
                    "band": {"f_lo": 2e9, "f_hi": 18e9, "n_points": fly_points}},
    }
    truth = {
        "offsets": offsets.tolist(),
        "amplitudes": [[float(a.real), float(a.imag)] for a in amps],
        "reflectivity": {"d_tx": 10.0, "d_rx": 10.0, "f_lo": 3.5e9, "f_hi": 4.0e9,
                         "n_points": grid["band"]["n_points"]},
        "flyover": {"d_tx": 12.0, "d_rx": 12.0, "fixed": 0.0, "elevation": 5.0,
                    "f_lo": 2e9, "f_hi": 18e9, "n_points": fly_points},
        "sample_seed": int(rng.integers(1, 2**31)),
    }
    return cfg, truth


_MAKERS = {"rotor_microdoppler": _rotor, "multistatic_fixed": _multistatic,
           "angle_sweeps": _angle_sweeps}


def make_inputs(workload: str, seed: int, tiny: bool = False) -> tuple[dict, dict]:
    """(config document, truth record) of one workload for one seed."""
    return _MAKERS[workload](np.random.default_rng([seed, WORKLOADS.index(workload)]), tiny)


# ---------------------------------------------------------------------------
# Output checks: each returns None when the output is right, else a reason.
# ---------------------------------------------------------------------------

def _support_edge(freq, prof_db, thr_db) -> float:
    """Largest |f| where the profile crosses thr_db, linearly interpolated."""
    idx = np.flatnonzero(prof_db >= thr_db)
    edges = []
    for side, nxt in ((idx.max(), idx.max() + 1), (idx.min(), idx.min() - 1)):
        if 0 <= nxt < len(freq) and prof_db[nxt] < thr_db:
            frac = (prof_db[side] - thr_db) / (prof_db[side] - prof_db[nxt])
            edges.append(abs(freq[side] + frac * (freq[nxt] - freq[side])))
        else:
            edges.append(abs(freq[side]))
    return max(edges)


def _gaussian_tone_half_width(fft_size: int, t_step: float, f0: float = 600.0) -> float:
    """-20 dB half-width of a pure tone seen through the Gaussian STFT frame."""
    n = np.arange(fft_size)
    win = np.exp(-0.5 * ((n - fft_size / 2.0) / (fft_size / 6.0)) ** 2)
    spec = np.fft.fftshift(np.fft.fft(win * np.exp(2j * np.pi * f0 * n * t_step)))
    power = np.abs(spec) ** 2
    freq = np.fft.fftshift(np.fft.fftfreq(fft_size, t_step))
    return _support_edge(freq, 10 * np.log10(power / power.max()), -20.0) - f0


def check_spectrogram(archive, truth) -> str | None:
    ds = archive.datasets["spectrogram_tx0_rx0"]
    freq = ds.axes[1].values
    power = (10 ** (ds.values / 10)).mean(axis=0)
    prof_db = 10 * np.log10(power / power.max())
    lam = C0 / truth["carrier_hz"]
    phis = np.linspace(0, 2 * np.pi, 7200, endpoint=False)
    ring = np.stack([np.cos(phis), np.sin(phis), np.zeros_like(phis)], axis=1)
    tangent = np.stack([-np.sin(phis), np.cos(phis), np.zeros_like(phis)], axis=1)
    tips = np.array(truth["hub"]) + truth["radius"] * ring
    vels = truth["rate"] * truth["radius"] * tangent
    u1 = tips - np.array(truth["tx"])
    u2 = tips - np.array(truth["rx"])
    u = u1 / np.linalg.norm(u1, axis=1)[:, None] + u2 / np.linalg.norm(u2, axis=1)[:, None]
    bound = np.abs(np.sum(u * vels, axis=1)).max() / lam
    support = _support_edge(freq, prof_db, -20.0) - _gaussian_tone_half_width(
        truth["fft_size"], truth["t_sym"])
    err = abs(support - bound) / bound
    if err > SUPPORT_REL_TOL:
        return f"Doppler support {support:.0f} Hz vs tip bound {bound:.0f} Hz ({err:.1%})"
    return None


def check_csv(archive, csv_paths) -> str | None:
    for name, path in csv_paths.items():
        values = archive.datasets[name].values
        with open(path) as fh:
            fh.readline()
            text = fh.read()
        rows = text.count("\n")
        table = np.array(text.replace("\n", ",").split(",")[:-1], dtype=float).reshape(rows, -1)
        expected = 20.0 * np.log10(np.abs(values))
        if table.shape != (values.shape[0], values.shape[1] + 1):
            return f"{path}: shape {table.shape} for a {values.shape} dataset"
        err = float(np.max(np.abs(table[:, 1:] - expected)))
        if not err <= CSV_DB_TOL:
            return f"{path}: CSV dB values differ from 20 log10|.| by {err:.3g} dB"
    return None


def check_clean(archive, truth) -> str | None:
    bw = truth["bandwidth_hz"]
    for link in truth["links"]:
        key = f"{link['tx']}_{link['rx']}"
        removed = sorted(p["delay_s"] for p in archive.summary["results"][key]["removed"])
        expected = sorted(link["static_delays_s"])
        err = np.max(np.abs(np.array(removed) - np.array(expected))) * bw
        if not err <= CLEAN_DELAY_TOL_BINS:
            return f"{key}: clean delays off the static path delays by {err:.4f} bins"
    return None


def check_ddmap(archive, clean_archive) -> str | None:
    for name, ds in archive.datasets.items():
        residual = clean_archive.datasets["clean_residual_" + name[len("ddmap_"):]]
        e_map = float(np.sum(np.abs(ds.values) ** 2))
        e_res = float(np.sum(np.abs(residual.values) ** 2))
        if not abs(e_map - e_res) <= ENERGY_REL_TOL * e_res:
            return f"{name}: map energy {e_map:.6g} vs residual energy {e_res:.6g}"
    return None


def check_localize(archive, truth) -> str | None:
    est = archive.summary["results"]["estimate"]
    dp = np.linalg.norm(np.array(est["position_m"]) - np.array(truth["position"]))
    dv = np.linalg.norm(np.array(est["velocity_m_s"]) - np.array(truth["velocity"]))
    if not (est["converged"] and dp <= POSITION_TOL_M and dv <= VELOCITY_TOL_M_S):
        return f"position off by {dp:.2f} m, velocity off by {dv:.2f} m/s"
    return None


def _direction(az_deg, el_deg) -> np.ndarray:
    az, el = np.deg2rad(az_deg), np.deg2rad(el_deg)
    return np.array([np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)])


def _profile(truth, u_tx, u_rx, d_tx, d_rx, freqs, taper) -> np.ndarray:
    """Two-hop spherical sum over the scatterers, tapered, IFFT, fftshift."""
    pos = np.array(truth["offsets"])
    amps = np.array([complex(*a) for a in truth["amplitudes"]])
    r1 = np.linalg.norm(pos - d_tx * u_tx, axis=1)
    r2 = np.linalg.norm(pos - d_rx * u_rx, axis=1)
    tau = (r1 + r2 - (d_tx + d_rx)) / C0
    lam = C0 / freqs[:, None]
    resp = np.sum(amps * lam / (4 * np.pi * r1 * r2) * np.exp(-2j * np.pi * freqs[:, None] * tau),
                  axis=1)
    return np.fft.fftshift(np.fft.ifft(resp * taper))


def _rel_err(got, ref) -> float:
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


def check_reflectivity(archive, truth) -> str | None:
    ds = archive.datasets["reflectivity"]
    job = truth["reflectivity"]
    freqs = np.linspace(job["f_lo"], job["f_hi"], job["n_points"])
    rng = np.random.default_rng(truth["sample_seed"])
    shape = ds.values.shape[:4]
    for _ in range(SWEEP_SAMPLES):
        i, j, k, l = (int(rng.integers(n)) for n in shape)
        ax = [a.values for a in ds.axes]
        ref = _profile(truth, _direction(ax[0][i], ax[1][j]), _direction(ax[2][k], ax[3][l]),
                       job["d_tx"], job["d_rx"], freqs, np.ones(freqs.size))
        got = ds.values[i, j, k, l]
        err = max(_rel_err(got[:, 0, 0], ref), _rel_err(got[:, 1, 1], ref),
                  float(np.max(np.abs(got[:, 0, 1])) + np.max(np.abs(got[:, 1, 0])))
                  / float(np.max(np.abs(ref))))
        if not err <= SWEEP_REL_TOL:
            return f"grid point {(i, j, k, l)}: relative error {err:.3g}"
    return None


def check_flyover(archive, truth) -> str | None:
    ds = archive.datasets["flyover"]
    job = truth["flyover"]
    freqs = np.linspace(job["f_lo"], job["f_hi"], job["n_points"])
    taper = np.hanning(freqs.size)
    taper = taper / taper.mean()
    u_tx = _direction(job["fixed"], job["elevation"])
    rng = np.random.default_rng(truth["sample_seed"] + 1)
    angles = ds.axes[0].values
    for i in rng.integers(angles.size, size=SWEEP_SAMPLES):
        u_rx = _direction(job["fixed"] + angles[i], job["elevation"])
        ref = _profile(truth, u_tx, u_rx, job["d_tx"], job["d_rx"], freqs, taper)
        err = _rel_err(ds.values[i], ref)
        if not err <= SWEEP_REL_TOL:
            return f"flyover angle {angles[i]:.2f} deg: relative error {err:.3g}"
    return None
