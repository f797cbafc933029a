"""Run orchestration: subcommands from config to ResultArchive.

SUBCOMMANDS are the keys of one runner table. run() makes the archive,
whose summary echoes the config and names the subcommand; the runner adds
its datasets and returns its results, a pure function of (RunConfig,
threads); run() then writes the archive, its YAML summary sidecar, and
optional CSV exports where the echoed outputs say. Synthesis starts at t0,
and the scans see their target's body in its own frame. Identical config +
seed produce byte-identical archives for any worker count: threads only fan
out the fixed blocks of Rx directions of a reflectivity scan, whose
boundaries come from a memory budget and not from the worker count, each
written to its own slice of the output; links are streamed in order, one at
a time, each synthesized and noised (from its own seeded generator) just
before it is processed. A link is resolved once into a Link of its two
nodes and their poses at t0: fixed mode takes its paths at those poses,
geometric mode asks the nodes for their poses block by block, and the Link
names its datasets and summary keys, gives its LoS delay and rides on its
fusion observation.
"""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from . import __version__
from .archive import Axis, ResultArchive, export_csv
from .channel import SlowTimeCube, add_noise, one_blas_thread, phase_ramps, synth_cfr
from .config import OUTPUTS, RunConfig, config_echo
from .errors import ConfigError, UsageError
from .fusion import BistaticObservation, fuse
from .geometry import C0, NodePose
from .illumination import doppler_precompensate, focusing_gain, time_reversal_prefilter
from .processing import (
    delay_doppler_map,
    detect_peaks,
    magnitude_db,
    parabolic_offset,
    stft_spectrogram,
    subtract_dominant_paths,
    time_gate,
)
from .scene import SceneNode, illumination_paths, link_callback, link_paths
from .targets import flyover_scan, link_budget, reflectivity_scan

class Link(NamedTuple):
    """One Tx/Rx link: its two nodes, which hold the names, and their poses at t0."""

    tx_node: SceneNode
    rx_node: SceneNode
    tx: NodePose
    rx: NodePose

    @property
    def name(self) -> str:
        return f"{self.tx_node.node_id}_{self.rx_node.node_id}"

    @property
    def los_delay(self) -> float:
        # the norm of one 3-vector: los_paths's norm(axis=-1) can differ in the last bit
        return float(np.linalg.norm(self.rx.position - self.tx.position)) / C0


def _link_cube(cfg: RunConfig, i: int, link: Link) -> SlowTimeCube:
    """The CFR cube of link i, noised from generator seed [noise seed, i]."""
    if cfg.mode == "geometric":
        paths = link_callback(cfg.scene, link.tx_node, link.rx_node)
    else:
        paths = link_paths(cfg.scene, link.tx, link.rx, cfg.t0, doppler=True)
    cube = synth_cfr(paths, cfg.waveform, t0=cfg.t0)
    if cfg.noise.snr_db is None:
        return cube
    return add_noise(cube, cfg.noise.snr_db, seed=[cfg.noise.seed, i])


def _simulate_links(cfg: RunConfig) -> Iterator[tuple[Link, SlowTimeCube]]:
    """Each link and its cube in link order, the cube made when asked for and held only by the
    caller, so a run holds one link's cube beyond its archive. A pool over links measured slower."""
    for i, (tx, rx) in enumerate(cfg.scene.links()):
        link = Link(tx, rx, tx.pose(cfg.t0), rx.pose(cfg.t0))
        yield link, _link_cube(cfg, i, link)


def _cube_axes(cube: SlowTimeCube) -> list[Axis]:
    return [
        Axis("slow_time", "s", cube.symbol_times()),
        Axis("subcarrier", "Hz", cube.waveform.subcarrier_frequencies()),
    ]


def run_simulate(cfg: RunConfig, archive: ResultArchive, threads: int) -> dict:
    links = []
    for link, cube in _simulate_links(cfg):
        archive.add(f"cfr_{link.name}", cube.data, _cube_axes(cube))
        los = link.los_delay
        links.append(
            {
                "tx": link.tx_node.node_id,
                "rx": link.rx_node.node_id,
                "los_delay_s": los,
                "los_delay_ns": los * 1e9,
                "mean_power_db": cube.mean_power_db(),
            }
        )
    return {"links": links}


def _detections_summary(dets, limit: int = 10) -> list[dict]:
    return [
        {
            "delay_s": d.delay,
            "delay_ns": d.delay * 1e9,
            "excess_delay_s": d.excess_delay,
            "excess_delay_ns": d.excess_delay * 1e9,
            "doppler_hz": d.doppler,
            "power_db": d.power_db,
        }
        for d in dets[:limit]
    ]


def _detected_links(cfg: RunConfig, exclude_zero_doppler: bool):
    """Each link, its DD map after clean and its detections, in link order."""
    proc = cfg.processing
    for link, cube in _simulate_links(cfg):
        if proc.clean_paths > 0:
            cube = subtract_dominant_paths(cube, proc.clean_paths).residual
        ddm = delay_doppler_map(cube, proc.fast_window, proc.slow_window)
        del cube  # so detect_peaks' temporaries do not sit on top of it
        dets = detect_peaks(ddm, proc.detect_threshold_db,
                            exclude_zero_doppler=exclude_zero_doppler, los_delay_s=link.los_delay)
        yield link, ddm, dets
        del ddm   # so a caller that lets the map go frees it before the next link's is made


def run_ddmap(cfg: RunConfig, archive: ResultArchive, threads: int) -> dict:
    results = {}
    for link, ddm, dets in _detected_links(cfg, cfg.processing.exclude_zero_doppler):
        archive.add(
            f"ddmap_{link.name}",
            ddm.data,
            [Axis("delay", "s", ddm.delay_s), Axis("doppler", "Hz", ddm.doppler_hz)],
        )
        results[link.name] = {"detections": _detections_summary(dets)}
    return results


def _delay_bin_series(cube: SlowTimeCube) -> tuple[np.ndarray, int]:
    """Slow-time series at the strongest mean-power delay bin, copied out so the
    profiles are freed before the caller's STFT."""
    profiles = np.fft.ifft(cube.data, axis=1)
    bin_idx = int(np.argmax(np.mean(np.abs(profiles) ** 2, axis=0)))
    return profiles[:, bin_idx].copy(), bin_idx


def run_spectrogram(cfg: RunConfig, archive: ResultArchive, threads: int) -> dict:
    results = {}
    st = cfg.processing.stft
    for link, cube in _simulate_links(cfg):
        series, bin_idx = _delay_bin_series(cube)
        spec = stft_spectrogram(series, cube.waveform.t_sym, st.fft_size, st.hop, st.window,
                                t0=cube.t0)
        archive.add(
            f"spectrogram_{link.name}",
            spec.data,
            [Axis("slow_time", "s", spec.time_s), Axis("doppler", "Hz", spec.doppler_hz)],
        )
        results[link.name] = {
            "fft_size": spec.fft_size,
            "hop": spec.hop,
            "window": spec.window,
            "gaussian_sigma": spec.sigma,
            "delay_bin": bin_idx,
            "observation_s": float(cube.waveform.duration),
        }
    return results


def run_clean(cfg: RunConfig, archive: ResultArchive, threads: int) -> dict:
    results = {}
    n = cfg.processing.clean_paths
    for link, cube in _simulate_links(cfg):
        res = subtract_dominant_paths(cube, n)
        archive.add(f"clean_residual_{link.name}", res.residual.data, _cube_axes(cube))
        results[link.name] = {
            "removed": [
                {
                    "delay_s": delay,
                    "delay_ns": delay * 1e9,
                    "gain_db": float(magnitude_db(gain)),
                    "at_noise_floor": bool(flag),
                }
                for delay, gain, flag in zip(res.removed.delay.tolist(), res.removed.gain,
                                             res.at_noise_floor)
            ]
        }
    return results


def _observation(cfg: RunConfig, link: Link, ddm, d) -> BistaticObservation:
    """Detection d of a link's DD map, refined to a sub-bin delay and Doppler from |.| of
    the peak cell and its four neighbours, wrapping round the map's edges."""
    i, j = d.delay_bin, d.doppler_bin
    n, m = ddm.data.shape
    up, peak, down, left, right = np.abs(ddm.data[[i - 1, i, (i + 1) % n, i, i], [j, j, j, j - 1, (j + 1) % m]])
    di, dj = parabolic_offset(up, peak, down), parabolic_offset(left, peak, right)
    delay = d.delay + di / cfg.waveform.bandwidth
    doppler = d.doppler + dj * float(ddm.doppler_hz[1] - ddm.doppler_hz[0])
    return BistaticObservation(link.tx, link.rx, excess_delay=max(delay - link.los_delay, 0.0),
                               doppler=doppler, wavelength=cfg.scene.wavelength)


def run_localize(cfg: RunConfig, archive: ResultArchive, threads: int) -> dict:
    """Per-link peak extraction followed by multistatic fusion."""
    obs = []
    per_link = {}
    for link, ddm, dets in _detected_links(cfg, exclude_zero_doppler=True):
        per_link[link.name] = {"detections": _detections_summary(dets, 3)}
        if dets:
            obs.append(_observation(cfg, link, ddm, dets[0]))
        del ddm   # else this map lives on while the next link's is made (_detected_links lets it go too)
    if not obs:
        raise ConfigError("no link produced a detection; cannot localize")
    est = fuse(obs, dim=2)
    if not est.converged:
        archive.summary["numerical_failure"] = "localization did not converge"
    archive.add("position", est.position, [Axis("axis", "index", np.arange(3))])
    archive.add("velocity", est.velocity, [Axis("axis", "index", np.arange(3))])
    return {
        "links": per_link,
        "estimate": {
            "position_m": [float(x) for x in est.position],
            "velocity_m_s": [float(x) for x in est.velocity],
            "position_residual_rms_m": est.position_residual_rms,
            "velocity_residual_rms_hz": est.velocity_residual_rms,
            "range_condition": float(est.range_condition),
            "doppler_condition": float(est.doppler_condition),
            "doppler_rank": est.doppler_rank,
            "ambiguous": est.ambiguous,
            "converged": est.converged,
            "alternates_m": [[float(x) for x in p] for p in est.alternates],
        },
    }


def run_reflectivity(cfg: RunConfig, archive: ResultArchive, threads: int) -> dict:
    if cfg.reflectivity is None:
        raise ConfigError("config has no reflectivity section")
    job = cfg.reflectivity
    target = cfg.scene.target(job.target)
    tensor = reflectivity_scan(target, job.grid, job.d_tx, job.d_rx, job.band,
                               sweep_window=job.sweep_window, threads=threads)
    pol = np.array([0.0, 1.0])
    archive.add(
        "reflectivity",
        tensor.data,
        [
            Axis("az_tx", "deg", tensor.az_tx_deg),
            Axis("el_tx", "deg", tensor.el_tx_deg),
            Axis("az_rx", "deg", tensor.az_rx_deg),
            Axis("el_rx", "deg", tensor.el_rx_deg),
            Axis("delay", "s", tensor.delay_s),
            Axis("rx_pol", "index", pol),
            Axis("tx_pol", "index", pol),
        ],
    )
    return {
        "target": target.name,
        "d_tx_m": job.d_tx,
        "d_rx_m": job.d_rx,
        "grid_points": math.prod(tensor.data.shape[:4]),
    }


def run_flyover(cfg: RunConfig, archive: ResultArchive, threads: int) -> dict:
    if cfg.flyover is None:
        raise ConfigError("config has no flyover section")
    job = cfg.flyover
    target = cfg.scene.target(job.target)
    fly = flyover_scan(target, job.fixed_angle_deg, (job.start_deg, job.stop_deg, job.step_deg), job.d_tx,
                       job.d_rx, job.band, elevation_deg=job.elevation_deg, sweep_window=job.sweep_window)
    data = fly.data
    if cfg.processing.gate is not None:
        g = cfg.processing.gate
        data = time_gate(data, fly.delay_s, g.center_ns * 1e-9, g.width_ns * 1e-9,
                         g.edge_ns * 1e-9)
    archive.add(
        "flyover",
        data,
        [Axis("bistatic_angle", "deg", fly.angles_deg), Axis("delay", "ns", fly.delay_s * 1e9)],
    )
    return {
        "target": target.name,
        "angles_deg": [float(a) for a in fly.angles_deg],
        "delay_resolution_ns": float(1e9 / (job.band.f_hi - job.band.f_lo)),
        "gated": cfg.processing.gate is not None,
    }


def run_focus(cfg: RunConfig, archive: ResultArchive, threads: int) -> dict:
    """Time-reversal prefilters and Doppler matching for every Tx node."""
    center = cfg.scene.target().pose(cfg.t0)
    w = cfg.waveform
    results = {}
    for tx in cfg.scene.tx_nodes:
        paths = illumination_paths(cfg.scene, tx.pose(cfg.t0), center)
        cfr = phase_ramps(paths.delay, w.delta_f, w.n_subcarriers) @ paths.gain
        pre = time_reversal_prefilter(cfr)
        gain = focusing_gain(cfr, pre)
        comp = doppler_precompensate(paths)
        archive.add(
            f"prefilter_{tx.node_id}",
            pre,
            [Axis("subcarrier", "Hz", w.subcarrier_frequencies())],
        )
        results[tx.node_id] = {
            "n_paths": len(paths),
            "focusing_gain": gain,
            "focusing_gain_db": float(10 * np.log10(gain)),
            "doppler_spread_before_hz": comp.spread_before_hz,
            "doppler_spread_after_hz": comp.spread_after_hz,
            "doppler_reference_hz": comp.reference_hz,
        }
    return results


def run_linkbudget(cfg: RunConfig, archive: ResultArchive, threads: int) -> dict:
    if cfg.budget is None:
        raise ConfigError("config has no budget section")
    out = link_budget(cfg.budget)
    archive.add(
        "received_power_dbm",
        np.array([out["received_power_dbm"]]),
        [Axis("value", "dBm", np.zeros(1))],
    )
    archive.add(
        "processing_gain_db",
        np.array([out["processing_gain_db"]]),
        [Axis("value", "dB", np.zeros(1))],
    )
    return dict(out)


_RUNNERS = {
    "simulate": run_simulate,
    "ddmap": run_ddmap,
    "spectrogram": run_spectrogram,
    "clean": run_clean,
    "localize": run_localize,
    "reflectivity": run_reflectivity,
    "flyover": run_flyover,
    "focus": run_focus,
    "linkbudget": run_linkbudget,
}
SUBCOMMANDS = tuple(_RUNNERS)


def run(subcommand: str, cfg: RunConfig, out_dir=None, threads: int = 1,
        fmt: str | None = None) -> tuple[ResultArchive, list[Path]]:
    """Execute one subcommand, write its archive + summary, return both.

    out_dir and fmt, where given, replace outputs.directory and outputs.format
    (checked as file values are, and echoed; the caller's cfg is kept). The
    runner adds its datasets to the archive and returns the summary's
    results, with numpy's BLAS on one thread. Returns the archive and the
    files written to outputs.directory; format csv adds every dataset of
    <= 2 dimensions.
    """
    if subcommand not in _RUNNERS:
        raise UsageError(f"unknown subcommand {subcommand!r}")
    given = {"directory": None if out_dir is None else str(out_dir), "format": fmt}
    outputs = {**OUTPUTS.emit(cfg.outputs), **{k: v for k, v in given.items() if v is not None}}
    cfg = replace(cfg, outputs=OUTPUTS.parse(outputs, "outputs", None))
    # "results" is placed ahead of any numerical_failure the runner records
    archive = ResultArchive(summary={"tool": "bisim", "version": __version__, "subcommand": subcommand,
                                     "config": config_echo(cfg), "results": {}})
    with one_blas_thread():
        archive.summary["results"] = _RUNNERS[subcommand](cfg, archive, threads)
    out_dir = Path(cfg.outputs.directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    bin_path = out_dir / f"{subcommand}.bisim"
    archive.write(bin_path)
    written.append(bin_path)
    summary_path = out_dir / f"{subcommand}_summary.yaml"
    archive.write_summary(summary_path)
    written.append(summary_path)
    if cfg.outputs.format == "csv":
        for name, ds in archive.datasets.items():
            if ds.values.ndim <= 2:
                csv_path = out_dir / f"{subcommand}_{name}.csv"
                export_csv(archive, name, csv_path)
                written.append(csv_path)
    return archive, written
