"""Run orchestration: subcommands from config to ResultArchive.

SUBCOMMANDS are the keys of one runner table. run() makes the archive,
whose summary echoes the config and names the subcommand; the runner adds
its datasets and returns its results, a pure function of (RunConfig,
threads); run() then writes the archive, its YAML summary sidecar, and
optional CSV exports where the echoed outputs say, and the summary names
those files. Synthesis starts at t0, and the scans see their target's body
in its own frame. Identical config + seed produce byte-identical archives
for any worker count: threads only fan out the fixed blocks of Rx
directions of a reflectivity scan, whose boundaries come from a memory
budget and not from the worker count, each written to its own slice of the
output; links are streamed in order, one at a time, each synthesized and
noised (from its own seeded generator) just before it is processed. A link
is resolved once into a Link of its two nodes and their poses at t0.
_link_cube alone reads the mode, and hands synth_cfr one row callback:
channel.first_order of the paths and Dopplers at those poses (fixed), or
scene.link_callback, the nodes' poses block by block (geometric). The Link
names its datasets and summary keys, gives its LoS delay and rides on its
fusion observation. One buffer per link: noise, clean and the delay
transforms each work in the cube they are given, which the runner owns, so
clean's residual, the DD map and the delay profiles are that cube's buffer.
Results hand back no inputs: a runner labels axes and settings from the
config that the summary echoes (the scan grid, the flyover's stepped_axis
sweep, the scan band's delay_axis(), the STFT settings) and takes excess
delays from its Link.
The spectrogram picks its delay bin from row slabs of the profiles, summing
|P|^2 in symbol order as the whole-cube mean does, so the bin is the same
and the choice needs one slab, not a |P|^2 of the whole cube.
Stage memo: a link's stages are its cube (0), clean's residual (1) and
its DD map after clean (2). run() makes every dataset of a simulate, clean
or ddmap archive read-only and holds it, weakly, under (the key of its
stage, its name). _link_stage, the one source of a link's array at a stage,
uses a map that a live archive holds as it is (detection and the fusion
observation only read it), copies a held cube or residual, and else makes
the stage from the one before. The same bytes, as identical config + seed
give identical stages. Nothing is held once the caller drops the archive,
and a run in a fresh process makes every stage.
"""

from __future__ import annotations

import marshal
import math
import weakref
from dataclasses import replace
from itertools import accumulate
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from . import __version__
from .archive import Axis, ResultArchive, export_csv
from .channel import (_SLAB_ELEMENTS, GAUSSIAN_SPAN, SlowTimeCube, add_noise, first_order, one_blas_thread,
                      phase_ramps, synth_cfr)
from .config import OUTPUTS, RunConfig, config_echo
from .errors import ConfigError, UsageError
from .fusion import BistaticObservation, fuse
from .geometry import C0, NodePose
from .illumination import doppler_precompensate, focusing_gain, time_reversal_prefilter
from .processing import (
    DelayDopplerMap,
    dd_axes,
    delay_doppler_map,
    detect_peaks,
    magnitude_db,
    parabolic_offset,
    stft_spectrogram,
    subtract_dominant_paths,
    time_gate,
)
from .scene import SceneNode, illumination_paths, link_callback, link_name, link_paths
from .targets import flyover_scan, link_budget, reflectivity_scan, stepped_axis

class Link(NamedTuple):
    """One Tx/Rx link: its two nodes, which hold the names, and their poses at t0."""

    tx_node: SceneNode
    rx_node: SceneNode
    tx: NodePose
    rx: NodePose

    @property
    def name(self) -> str:
        return link_name(self.tx_node, self.rx_node)

    @property
    def los_delay(self) -> float:
        # the norm of one 3-vector: los_paths's norm(axis=-1) can differ in the last bit
        return float(np.linalg.norm(self.rx.position - self.tx.position)) / C0


def _link_cube(cfg: RunConfig, i: int, link: Link) -> SlowTimeCube:
    """The CFR cube of link i, noised from generator seed [noise seed, i]."""
    if cfg.mode == "geometric":
        rows = link_callback(cfg.scene, link.tx_node, link.rx_node, cfg.waveform.symbol_times(cfg.t0))
    else:
        rows = first_order(link_paths(cfg.scene, link.tx, link.rx, cfg.t0, doppler=True), cfg.waveform)
    cube = synth_cfr(rows, cfg.waveform)
    if cfg.noise.snr_db is None:
        return cube
    return add_noise(cube, cfg.noise.snr_db, seed=[cfg.noise.seed, i])


# (stage key, dataset name) -> a read-only cfr, clean residual or DD map array of an archive that is
# still alive
_HELD: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
# subcommand -> the link stage that its archive's datasets hold, and the prefix of their names
_HOLDS = {"simulate": (0, "cfr_"), "clean": (1, "clean_residual_"), "ddmap": (2, "ddmap_")}
_PREFIXES = dict(_HOLDS.values())


def _stage_keys(echo: dict) -> tuple[bytes, bytes, bytes]:
    """The echoed values that each stage is a function of, as marshal bytes: the cube key holds
    the mode, t0, waveform, scene and noise sections (link cubes are single-polarisation, so the
    Jones matrices that the echo omits cannot change them), the residual key adds
    processing.clean_paths, and the map key adds the fast and slow windows. marshal bytes end
    where their value does, so a key of one stage never equals one of another. Equal bytes
    are equal values of equal types, and at marshal version 2 equal values give equal bytes:
    it records neither whether a string is interned nor which objects are shared, as versions 3
    and up do, so equal configs parsed apart hit. marshal writes floats as their bits: on a
    65,536-scatterer cloud it is 15 times faster than repr."""
    proc = echo["processing"]
    return tuple(accumulate([
        marshal.dumps([echo[section] for section in ("mode", "t0", "waveform", "scene", "noise")], 2),
        marshal.dumps(proc["clean_paths"], 2),
        marshal.dumps([proc["fast_window"], proc["slow_window"]], 2),
    ]))


def _link_stage(cfg: RunConfig, keys: tuple, i: int, link: Link, stage: int) -> SlowTimeCube | DelayDopplerMap:
    """Link i's cube (stage 0), clean's residual (1) or DD map after clean (2): a live archive's
    held map as it is, else a copy of its held cube or residual, else made from the stage
    before, in that stage's buffer, which no local here keeps."""
    held = _HELD.get((keys[stage], _PREFIXES[stage] + link.name))
    if held is not None:
        return DelayDopplerMap(held, *dd_axes(cfg.waveform)) if stage == 2 else SlowTimeCube(held, cfg.waveform)
    if stage == 0:
        return _link_cube(cfg, i, link)
    proc, cube = cfg.processing, _link_stage(cfg, keys, i, link, stage - 1)
    if stage == 2:
        return delay_doppler_map(cube, proc.fast_window, proc.slow_window)
    if proc.clean_paths > 0:
        subtract_dominant_paths(cube, proc.clean_paths)
    return cube


def _links(cfg: RunConfig) -> Iterator[Link]:
    for tx, rx in cfg.scene.links():
        yield Link(tx, rx, tx.pose(cfg.t0), rx.pose(cfg.t0))


def _simulate_links(cfg: RunConfig, keys: tuple, stage: int) -> Iterator[tuple[Link, SlowTimeCube | DelayDopplerMap]]:
    """Each link and its array at stage in link order, made when asked for and held only by the
    caller (no local here keeps it across the yield), so a run holds one link's array beyond its
    archive. A pool over links measured slower."""
    for i, link in enumerate(_links(cfg)):
        yield link, _link_stage(cfg, keys, i, link, stage)


def _cube_axes(cfg: RunConfig) -> list[Axis]:
    return [
        Axis("slow_time", "s", cfg.waveform.symbol_times(cfg.t0)),
        Axis("subcarrier", "Hz", cfg.waveform.subcarrier_frequencies()),
    ]


def run_simulate(cfg: RunConfig, archive: ResultArchive, threads: int) -> dict:
    """Each link's cube, with its LoS delay and mean power."""
    links = []
    for link, cube in _simulate_links(cfg, _stage_keys(archive.summary["config"]), 0):
        archive.add(f"cfr_{link.name}", cube.data, _cube_axes(cfg))
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


def _detections_summary(link: Link, dets, limit: int = 10) -> list[dict]:
    los = link.los_delay
    return [
        {
            "delay_s": d.delay,
            "delay_ns": d.delay * 1e9,
            "excess_delay_s": d.delay - los,
            "excess_delay_ns": (d.delay - los) * 1e9,
            "doppler_hz": d.doppler,
            "power_db": d.power_db,
        }
        for d in dets[:limit]
    ]


def _detected_links(cfg: RunConfig, keys: tuple, exclude_zero_doppler: bool):
    """Each link, its DD map after clean and its detections, in link order."""
    for link, ddm in _simulate_links(cfg, keys, 2):
        dets = detect_peaks(ddm, cfg.processing.detect_threshold_db, exclude_zero_doppler=exclude_zero_doppler)
        yield link, ddm, dets
        del ddm   # a made map is its cube's buffer: it may not be held while the next link's is made


def run_ddmap(cfg: RunConfig, archive: ResultArchive, threads: int) -> dict:
    """Each link's DD map after clean, and its detections."""
    results = {}
    keys = _stage_keys(archive.summary["config"])
    for link, ddm, dets in _detected_links(cfg, keys, cfg.processing.exclude_zero_doppler):
        archive.add(f"ddmap_{link.name}", ddm.data,
                    [Axis("delay", "s", ddm.delay_s), Axis("doppler", "Hz", ddm.doppler_hz)])
        results[link.name] = {"detections": _detections_summary(link, dets)}
    return results


def _delay_bin_series(cube: SlowTimeCube) -> tuple[np.ndarray, int]:
    """Slow-time series at the strongest mean-power delay bin, copied out of the delay
    profiles, which overwrite cube.data. Each row slab's |P|^2, at most _SLAB_ELEMENTS
    entries, goes into rows 1.. of one buffer whose row 0 holds the running sum, so
    each bin is summed in symbol order, as np.mean(|P|^2, axis=0) sums it with more
    than one bin: the means, and the bin (the lowest of equal means), are the
    whole-cube ones bit for bit."""
    profiles = np.fft.ifft(cube.data, axis=1, out=cube.data)
    n_sym, n = profiles.shape
    rows = max(1, min(n_sym, _SLAB_ELEMENTS // n))
    power = np.zeros((rows + 1, n))
    for i in range(0, n_sym, rows):
        block = profiles[i:i + rows]
        slab = power[:1 + len(block)]
        np.square(np.abs(block, out=slab[1:]), out=slab[1:])
        power[0] = np.add.reduce(slab, axis=0)
    bin_idx = int(np.argmax(power[0] / n_sym))
    return profiles[:, bin_idx].copy(), bin_idx


def run_spectrogram(cfg: RunConfig, archive: ResultArchive, threads: int) -> dict:
    results = {}
    st, w = cfg.processing.stft, cfg.waveform
    for link, cube in _simulate_links(cfg, _stage_keys(archive.summary["config"]), 0):
        series, bin_idx = _delay_bin_series(cube)
        del cube   # spent on its profiles; else held while the next link's cube is made
        spec = stft_spectrogram(series, w.t_sym, st.fft_size, st.hop, st.window, t0=cfg.t0)
        archive.add(
            f"spectrogram_{link.name}",
            spec.data,
            [Axis("slow_time", "s", spec.time_s), Axis("doppler", "Hz", spec.doppler_hz)],
        )
        results[link.name] = {
            "fft_size": st.fft_size,
            "hop": st.hop,
            "window": st.window,
            "gaussian_sigma": st.fft_size / GAUSSIAN_SPAN if st.window == "gaussian" else 0.0,
            "delay_bin": bin_idx,
            "observation_s": float(w.duration),
        }
    return results


def run_clean(cfg: RunConfig, archive: ResultArchive, threads: int) -> dict:
    """Each link's residual, and the paths that clean removed."""
    results = {}
    n = cfg.processing.clean_paths
    for link, cube in _simulate_links(cfg, _stage_keys(archive.summary["config"]), 0):
        res = subtract_dominant_paths(cube, n)
        archive.add(f"clean_residual_{link.name}", cube.data, _cube_axes(cfg))
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
    for link, ddm, dets in _detected_links(cfg, _stage_keys(archive.summary["config"]), exclude_zero_doppler=True):
        per_link[link.name] = {"detections": _detections_summary(link, dets, 3)}
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
    data = reflectivity_scan(target, job.grid, job.d_tx, job.d_rx, job.band,
                             sweep_window=job.sweep_window, threads=threads)
    pol = np.array([0.0, 1.0])
    angles = [Axis(key, "deg", axis) for key, axis in job.grid.items()]   # az_tx, el_tx, az_rx, el_rx
    archive.add("reflectivity", data,
                [*angles, Axis("delay", "s", job.band.delay_axis()), Axis("rx_pol", "index", pol),
                 Axis("tx_pol", "index", pol)])
    return {
        "target": target.name,
        "d_tx_m": job.d_tx,
        "d_rx_m": job.d_rx,
        "grid_points": math.prod(data.shape[:4]),
    }


def run_flyover(cfg: RunConfig, archive: ResultArchive, threads: int) -> dict:
    if cfg.flyover is None:
        raise ConfigError("config has no flyover section")
    job = cfg.flyover
    target = cfg.scene.target(job.target)
    angles = stepped_axis(job.start_deg, job.stop_deg, job.step_deg, "flyover sweep")
    data = flyover_scan(target, job.fixed_angle_deg, angles, job.d_tx, job.d_rx, job.band,
                        elevation_deg=job.elevation_deg, sweep_window=job.sweep_window)
    delay_s = job.band.delay_axis()   # after the scan, whose entry check bounds band.n_points
    if cfg.processing.gate is not None:
        g = cfg.processing.gate
        data = time_gate(data, delay_s, g.center_ns * 1e-9, g.width_ns * 1e-9,
                         g.edge_ns * 1e-9)
    archive.add(
        "flyover",
        data,
        [Axis("bistatic_angle", "deg", angles), Axis("delay", "ns", delay_s * 1e9)],
    )
    return {
        "target": target.name,
        "angles_deg": [float(a) for a in angles],
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
    for key, unit in (("received_power_dbm", "dBm"), ("processing_gain_db", "dB")):
        archive.add(key, np.array([out[key]]), [Axis("value", unit, np.zeros(1))])
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
    <= 2 dimensions. The summary's files lists their names, so a file
    that an earlier run left there can be told apart. Each file is created
    fresh: a rerun unlinks the old file first, so a symlink or read-only
    file there is replaced, not written through, and a killed write leaves
    a short file. Every dataset of a simulate, clean or ddmap archive is
    read-only, and while that archive lives a later run whose config gives
    the same stage key starts from it (see the module docstring).
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
    if subcommand in _HOLDS:
        key = _stage_keys(archive.summary["config"])[_HOLDS[subcommand][0]]
        for name, ds in archive.datasets.items():
            ds.values.flags.writeable = False
            _HELD[key, name] = ds.values
    csv = [name for name, ds in archive.datasets.items() if cfg.outputs.format == "csv" and ds.values.ndim <= 2]
    files = [f"{subcommand}.bisim", f"{subcommand}_summary.yaml", *(f"{subcommand}_{name}.csv" for name in csv)]
    archive.summary["files"] = files
    out_dir = Path(cfg.outputs.directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    archive.write(out_dir / files[0])
    archive.write_summary(out_dir / files[1])
    for name, file in zip(csv, files[2:]):
        export_csv(archive, name, out_dir / file)
    return archive, [out_dir / file for file in files]
