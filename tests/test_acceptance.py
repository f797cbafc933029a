"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here, not deferred.
"""

import textwrap
import time

import numpy as np
import pytest

from bisim.channel import PathTable, WaveformConfig, first_order, synth_cfr
from bisim.config import load_config
from bisim.fusion import BistaticObservation, estimate_velocity, fuse, localize
from bisim.geometry import (
    C0,
    NodePose,
    Trajectory,
    bistatic_doppler,
    bistatic_range,
    pose_at,
    vec3,
)
from bisim.illumination import doppler_precompensate, focusing_gain, time_reversal_prefilter
from bisim.pipeline import run
from bisim.processing import delay_doppler_map, stft_spectrogram, subtract_dominant_paths
from bisim.scene import SceneConfig, SceneNode, link_callback
from bisim.targets import (
    FrequencyBand,
    LinkBudget,
    RigidTarget,
    cloud,
    equivalent_rcs,
    flyover_scan,
    link_budget,
    rotor,
    stepped_axis,
    target_paths,
)

LAM = C0 / 3.7e9


def report(criterion: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


class Timer:
    def __init__(self, budget_s: float):
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False

    def ok(self) -> bool:
        return self.elapsed < self.budget


def test_criterion_1_numerology_fidelity():
    with Timer(1.0) as t:
        w = WaveformConfig(f_c=3.7e9, bandwidth=160e6, n_subcarriers=1280, n_symbols=2500)
        exact = w.delta_f == 125e3 and w.t_sym == 8e-6
        span_ok = abs(w.duration - 0.02) <= 1e-12 * 0.02
    report(
        1,
        exact and span_ok and t.ok(),
        f"delta_f={w.delta_f} Hz, t_sym={w.t_sym} s, 2500 symbols span "
        f"{w.duration * 1e3:.6f} ms ({t.elapsed:.3f} s)",
    )


def test_criterion_2_doppler_oracle():
    rng = np.random.default_rng(2025)
    dt = 1e-6
    worst = 0.0
    with Timer(10.0) as t:
        n = 0
        while n < 1000:
            tx = rng.uniform(-100, 100, 3)
            rx = rng.uniform(-100, 100, 3)
            tgt = rng.uniform(-100, 100, 3)
            if (
                np.linalg.norm(tgt - tx) < 1.0
                or np.linalg.norm(tgt - rx) < 1.0
                or np.linalg.norm(tx - rx) < 1.0
            ):
                continue
            v_tx = rng.uniform(-30, 30, 3)
            v_rx = rng.uniform(-30, 30, 3)
            v_tgt = rng.uniform(-30, 30, 3)
            fd = bistatic_doppler(NodePose(tx, v_tx), NodePose(rx, v_rx), tgt, v_tgt, LAM)
            rp, _ = bistatic_range(tx + v_tx * dt, rx + v_rx * dt, tgt + v_tgt * dt)
            rm, _ = bistatic_range(tx - v_tx * dt, rx - v_rx * dt, tgt - v_tgt * dt)
            fd_num = -(rp - rm) / (2 * dt) / LAM
            if abs(fd_num) < 1.0:  # skip near-blind cases; relative error undefined
                continue
            worst = max(worst, abs(fd - fd_num) / abs(fd_num))
            n += 1
    report(2, worst <= 1e-6 and t.ok(), f"{n} scenes, worst rel err {worst:.2e} ({t.elapsed:.2f} s)")


def clutter_scene():
    tx = SceneNode("tx0", NodePose(vec3(0, 0, 0)))
    rx = SceneNode("rx0", NodePose(vec3(300, 0, 0)))
    target = RigidTarget(
        cloud([[0, 0, 0]], [2.0]),
        Trajectory.from_waypoints([(0.0, (120, 90, 0)), (1.0, (160, 50, 0))]),
        name="mover",
    )
    clutter = cloud(
        [vec3(60, -50, 0), vec3(210, 80, 0), vec3(90, 140, 0), vec3(250, -120, 0), vec3(30, 70, 0)],
        [1.0, 0.8, 1.2, 0.9, 1.1],
    )
    return SceneConfig([tx], [rx], [target], clutter, wavelength=LAM)


def test_criterion_3_clutter_collapse():
    with Timer(30.0) as t:
        w = WaveformConfig(3.7e9, 40e6, 256, 1024)
        scene = clutter_scene()
        background = SceneConfig(
            scene.tx_nodes, scene.rx_nodes, [], scene.clutter, wavelength=LAM
        )
        bg_cube = synth_cfr(link_callback(background, *background.links()[0], w.symbol_times()), w)
        bg_map = delay_doppler_map(bg_cube)
        energy = np.abs(bg_map.data) ** 2
        frac = energy[:, bg_map.zero_doppler_bin].sum() / energy.sum()

        cube = synth_cfr(link_callback(scene, *scene.links()[0], w.symbol_times()), w)
        ddm = delay_doppler_map(cube)
        t_mid = w.duration / 2
        pose = pose_at(scene.targets[0].trajectory, t_mid)
        tx0 = scene.tx_nodes[0].pose(t_mid)
        rx0 = scene.rx_nodes[0].pose(t_mid)
        rb, _ = bistatic_range(tx0.position, rx0.position, pose.position)
        fd = bistatic_doppler(tx0, rx0, pose.position, pose.velocity, LAM)
        pred = (int(round(rb / C0 * w.bandwidth)), int(np.argmin(np.abs(ddm.doppler_hz - fd))))
        masked = np.abs(ddm.data) ** 2
        masked[:, ddm.zero_doppler_bin] = 0.0
        peak = np.unravel_index(np.argmax(masked), masked.shape)
    report(
        3,
        frac >= 0.999 and tuple(peak) == pred and t.ok(),
        f"clutter zero-Doppler fraction {frac:.6f}, target peak {tuple(peak)} vs "
        f"predicted {pred} ({t.elapsed:.2f} s)",
    )


def test_criterion_4_clean_efficacy():
    with Timer(30.0) as t:
        w = WaveformConfig(3.7e9, 40e6, 256, 1024)
        tx = SceneNode("tx0", NodePose(vec3(0, 0, 0)))
        rx = SceneNode("rx0", NodePose(vec3(300, 0, 0)))
        # one dominant reflector plus a weak mover 30 dB below the LoS
        los_gain = LAM / (4 * np.pi * 300.0)
        reflector = cloud([vec3(150, 120, 0)], [6.0])
        # choose the mover's scattering length for -30 dB vs LoS at mid-CPI
        target_pos = vec3(120, 90, 0)
        d1 = np.linalg.norm(target_pos)
        d2 = np.linalg.norm(target_pos - vec3(300, 0, 0))
        s_target = 10 ** (-30 / 20) * los_gain * (4 * np.pi * d1 * d2) / LAM
        target = RigidTarget(
            cloud([[0, 0, 0]], [s_target]),
            Trajectory.from_waypoints([(0.0, (120, 90, 0)), (1.0, (160, 50, 0))]),
        )
        scene = SceneConfig([tx], [rx], [target], reflector, wavelength=LAM)
        cube = synth_cfr(link_callback(scene, *scene.links()[0], w.symbol_times()), w)

        subtract_dominant_paths(cube, 2)   # the residual is left in cube
        # residual static-path power: what survives of (LoS + reflection)
        # after subtraction, isolated from the mover by exact superposition
        static_scene = SceneConfig([tx], [rx], [], reflector, wavelength=LAM)
        static_cube = synth_cfr(link_callback(static_scene, *static_scene.links()[0], w.symbol_times()), w)
        target_scene = SceneConfig([tx], [rx], [target], wavelength=LAM, include_los=False)
        target_cube = synth_cfr(link_callback(target_scene, *target_scene.links()[0], w.symbol_times()), w)
        leftover = cube.data - target_cube.data
        suppression_db = 10 * np.log10(
            np.sum(np.abs(leftover) ** 2) / np.sum(np.abs(static_cube.data) ** 2)
        )

        ddm = delay_doppler_map(cube)
        energy = np.abs(ddm.data) ** 2
        i, j = np.unravel_index(np.argmax(energy), energy.shape)
        t_mid = w.duration / 2
        pose = pose_at(target.trajectory, t_mid)
        rb, _ = bistatic_range(tx.motion.position, rx.motion.position, pose.position)
        fd = bistatic_doppler(tx.motion, rx.motion, pose.position, pose.velocity, LAM)
        peak_ok = (
            i == int(round(rb / C0 * w.bandwidth))
            and j == int(np.argmin(np.abs(ddm.doppler_hz - fd)))
            and j != ddm.zero_doppler_bin
        )
    report(
        4,
        suppression_db <= -60.0 and peak_ok and t.ok(),
        f"static residual {suppression_db:.1f} dB, target is global non-zero-Doppler "
        f"peak: {peak_ok} ({t.elapsed:.2f} s)",
    )


def _support_edge(freq, prof_db, thr_db):
    """Largest |f| where the profile crosses thr_db, linearly interpolated."""
    above = prof_db >= thr_db
    idx = np.flatnonzero(above)
    edges = []
    for side in (idx.max(), idx.min()):
        nxt = side + 1 if side == idx.max() else side - 1
        if 0 <= nxt < len(freq) and prof_db[nxt] < thr_db:
            frac = (prof_db[side] - thr_db) / (prof_db[side] - prof_db[nxt])
            edges.append(abs(freq[side] + frac * (freq[nxt] - freq[side])))
        else:
            edges.append(abs(freq[side]))
    return max(edges)


def test_criterion_5_micro_doppler_band():
    with Timer(60.0) as t:
        hub, radius, rate = vec3(0, 8, 0), 0.12, 625.0   # tip speed 75 m/s
        blades = rotor(hub, vec3(0, 0, 1), radius, rate, blades=2, samples_per_blade=32, sample_amplitude=0.01)
        tx = SceneNode("tx0", NodePose(vec3(-10, 0.25, 0)))
        rx = SceneNode("rx0", NodePose(vec3(-10, -0.25, 0)))
        scene = SceneConfig([tx], [rx], [blades], wavelength=LAM, include_los=False)
        w = WaveformConfig(3.7e9, 16e6, 128, 2048 + 32 * 14)  # t_sym = 8 us
        cube = synth_cfr(link_callback(scene, *scene.links()[0], w.symbol_times()), w)

        profiles = np.fft.ifft(cube.data, axis=1)
        series = profiles[:, int(np.argmax(np.mean(np.abs(profiles) ** 2, axis=0)))]
        spec = stft_spectrogram(series, w.t_sym, fft_size=2048, hop=32, window="gaussian")
        power = (10 ** (spec.data / 10)).mean(axis=0)
        prof_db = 10 * np.log10(power / power.max())

        # geometric tip-Doppler bound over one revolution, true tip positions
        phis = np.linspace(0, 2 * np.pi, 7200, endpoint=False)
        e1, e2 = np.array([1.0, 0, 0]), np.array([0, 1.0, 0])
        tips = hub + radius * (
            np.cos(phis)[:, None] * e1 + np.sin(phis)[:, None] * e2
        )
        vels = rate * radius * (
            -np.sin(phis)[:, None] * e1 + np.cos(phis)[:, None] * e2
        )
        u1 = tips - tx.motion.position
        u1 /= np.linalg.norm(u1, axis=1)[:, None]
        u2 = tips - rx.motion.position
        u2 /= np.linalg.norm(u2, axis=1)[:, None]
        bound = np.abs(np.sum((u1 + u2) * vels, axis=1)).max() / LAM

        # instrument correction: -20 dB half-width of an identically processed tone
        n = len(series)
        tone = np.exp(2j * np.pi * 600.0 * np.arange(n) * w.t_sym)
        tone_spec = stft_spectrogram(tone, w.t_sym, 2048, 32, "gaussian")
        tone_power = (10 ** (tone_spec.data / 10)).mean(axis=0)
        tone_db = 10 * np.log10(tone_power / tone_power.max())
        half_width = _support_edge(tone_spec.doppler_hz, tone_db, -20.0) - 600.0

        raw = _support_edge(spec.doppler_hz, prof_db, -20.0)
        support = raw - half_width
        rel_err = abs(support - bound) / bound

        inner = np.abs(spec.doppler_hz) <= 0.9 * bound
        band_min = prof_db[inner].min()
        continuous = band_min >= -30.0  # no isolated lines: no gaps inside the band
    report(
        5,
        rel_err <= 0.05 and continuous and t.ok(),
        f"support {support:.0f} Hz vs bound {bound:.0f} Hz (err {rel_err * 100:.1f}%), "
        f"band min {band_min:.1f} dB ({t.elapsed:.1f} s)",
    )


def drone_pair_target():
    return RigidTarget(
        cloud([[0.15, 0, 0], [-0.15, 0, 0]], [0.05, 0.05]),
        Trajectory.from_waypoints([(0.0, (0, 0, 0))]),
        name="drone",
    )


def test_criterion_6_flyover_delay_spread_trend():
    with Timer(120.0) as t:
        band = FrequencyBand(2e9, 18e9, 512)
        fly = flyover_scan(
            drone_pair_target(), 0.0, stepped_axis(10, 170, 10, "flyover sweep"), 10.0, 10.0, band,
            sweep_window="hann",
        )
        delay_s = band.delay_axis()

        def spread(row):
            p = np.abs(row) ** 2
            sel = p >= p.max() * 1e-2  # -20 dB support
            return delay_s[sel].max() - delay_s[sel].min()

        spreads = np.array([spread(r) for r in fly])
        bin_s = delay_s[1] - delay_s[0]
        monotone = np.all(np.diff(spreads) <= bin_s + 1e-15)
        start_ok = 1.5e-9 <= spreads[0] <= 2.2e-9
        ratio_ok = spreads[-1] < 0.5 * spreads[0]
        # target contributions stay inside the 2 ns gate at every angle:
        # every above-threshold lobe center lies within +/- 1 ns
        in_gate = True
        for row in fly:
            p = np.abs(row) ** 2
            sel = p >= p.max() * 1e-2
            lobes = delay_s[sel]
            in_gate &= bool(np.all(np.abs(lobes) <= 1e-9 + bin_s))
    report(
        6,
        monotone and start_ok and ratio_ok and in_gate and t.ok(),
        f"spread 10deg {spreads[0] * 1e9:.2f} ns -> 170deg {spreads[-1] * 1e9:.2f} ns, "
        f"monotone={monotone}, in 2 ns gate={in_gate} ({t.elapsed:.2f} s)",
    )


def fusion_scene(rng, span=80.0):
    while True:
        target = np.append(rng.uniform(-span / 3, span / 3, 2), 0.0)
        vel = np.append(rng.uniform(-20, 20, 2), 0.0)
        angles = rng.uniform(0, 2 * np.pi) + np.array([0, 1, 2]) * (2 * np.pi / 3)
        angles += rng.uniform(-0.3, 0.3, 3)
        radii = rng.uniform(0.5 * span, span, 3)
        rx = [
            target + r * np.array([np.cos(a), np.sin(a), 0.0])
            for r, a in zip(radii, angles)
        ]
        tx = np.append(rng.uniform(-span, span, 2), 0.0)
        if min(np.linalg.norm(target - p) for p in [tx, *rx]) < 5.0:
            continue
        nodes = {"tx0": NodePose(tx)}
        nodes.update(
            {f"rx{i}": NodePose(p) for i, p in enumerate(rx)}
        )
        links = [("tx0", f"rx{i}") for i in range(3)]
        rows = []
        for a, b in links:
            u1 = (target - nodes[a].position)
            u1 /= np.linalg.norm(u1)
            u2 = (target - nodes[b].position)
            u2 /= np.linalg.norm(u2)
            rows.append((u1 + u2)[:2])
        sv = np.linalg.svd(np.array(rows), compute_uv=False)
        if sv[-1] < 0.15 * sv[0]:  # keep geometries well conditioned
            continue
        return nodes, links, target, vel


def test_criterion_7_fusion_closed_loop():
    rng = np.random.default_rng(7)
    worst_pos, worst_vel = 0.0, 0.0
    with Timer(30.0) as t:
        for _ in range(100):
            nodes, links, target, vel = fusion_scene(rng)
            obs = []
            for a, b in links:
                _, excess = bistatic_range(nodes[a].position, nodes[b].position, target)
                fd = bistatic_doppler(nodes[a], nodes[b], target, vel, LAM)
                obs.append(BistaticObservation(nodes[a], nodes[b], excess / C0, fd, LAM))
            est = fuse(obs, dim=2)
            worst_pos = max(worst_pos, float(np.linalg.norm(est.position - target)))
            worst_vel = max(worst_vel, float(np.linalg.norm(est.velocity - vel)))

        # single-link Doppler blindness: tangential velocity measures 0 Hz
        blind_nodes = {
            "tx0": NodePose(vec3(-50, 0, 0)),
            "rx0": NodePose(vec3(50, 0, 0)),
        }
        pos = vec3(0, 40, 0)
        fd_blind = bistatic_doppler(
            blind_nodes["tx0"], blind_nodes["rx0"], pos, vec3(9, 0, 0), LAM
        )
        blind_obs = [BistaticObservation(blind_nodes["tx0"], blind_nodes["rx0"], 1e-7, fd_blind, LAM)]
        blind_est = estimate_velocity(blind_obs, pos, dim=2)
        blind_ok = abs(fd_blind) <= 1e-9 and blind_est.doppler_rank == 1
    report(
        7,
        worst_pos <= 1e-6 and worst_vel <= 1e-9 and blind_ok and t.ok(),
        f"100 scenes: worst position err {worst_pos:.2e} m, worst velocity err "
        f"{worst_vel:.2e} m/s, blind case rank {blind_est.doppler_rank} ({t.elapsed:.1f} s)",
    )


def test_criterion_8_time_reversal_focusing():
    rng = np.random.default_rng(8)
    with Timer(5.0) as t:
        k = 512
        delta_f = 78125.0
        bins = rng.choice(np.arange(1, k // 2), size=8, replace=False)
        kk = np.arange(k)
        cfr = np.zeros(k, dtype=complex)
        gains, dopplers = [], []
        for b in bins:
            gains.append(np.exp(2j * np.pi * rng.random()))
            dopplers.append(rng.uniform(-500, 500))
            cfr += gains[-1] * np.exp(-2j * np.pi * b * kk / k)
        gain = focusing_gain(cfr, time_reversal_prefilter(cfr))
        gain_ok = abs(gain - 8.0) / 8.0 <= 1e-6
        comp = doppler_precompensate(PathTable(bins / (k * delta_f), gains, dopplers))
        comp_ok = comp.spread_after_hz <= 1e-9 and comp.spread_before_hz > 0
    report(
        8,
        gain_ok and comp_ok and t.ok(),
        f"focusing gain {gain:.9f} (target 8), Doppler spread "
        f"{comp.spread_before_hz:.1f} Hz -> {comp.spread_after_hz} Hz ({t.elapsed:.2f} s)",
    )


def test_criterion_9_link_budget_consistency():
    with Timer(1.0) as t:
        d_tx, d_rx = 140.0, 95.0
        s = 0.04
        tx = NodePose(vec3(-d_tx, 0, 0))
        rx = NodePose(vec3(d_rx, 0, 0))
        target = RigidTarget(
            cloud([[0, 0, 0]], [s]),
            Trajectory.from_waypoints([(0.0, (0, 0, 0))]),
        )
        paths = target_paths(target, tx, rx, 0.0, LAM, doppler=True)
        w = WaveformConfig(3.7e9, 20e6, 64, 16)
        cube = synth_cfr(first_order(paths, w), w)
        synth_db = 10 * np.log10(np.mean(np.abs(cube.data) ** 2))
        budget = link_budget(
            LinkBudget(0.0, 0.0, 0.0, LAM, d_tx, d_rx, equivalent_rcs(s),
                       n_subcarriers=1280, n_symbols=2048)
        )
        mismatch = abs(synth_db - budget["received_power_dbm"])
        gain = budget["processing_gain_db"]
        gain_ok = abs(gain - 10 * np.log10(1280 * 2048)) <= 1e-12 and abs(gain - 64.2) <= 0.1
    report(
        9,
        mismatch <= 0.01 and gain_ok and t.ok(),
        f"synth vs radar equation mismatch {mismatch:.2e} dB, processing gain "
        f"{gain:.2f} dB ({t.elapsed:.2f} s)",
    )


DETERMINISM_CONFIG = """
mode: geometric
waveform:
  carrier_hz: 3.7e+9
  bandwidth_hz: 40e6
  n_subcarriers: 256
  n_symbols: 512
scene:
  tx_nodes: [{id: tx0, position: [0, 0, 0]}]
  rx_nodes: [{id: rx0, position: [300, 0, 0]}]
  targets:
    - kind: rigid
      name: mover
      scatterers: [{amplitude: 2.0}]
      trajectory: [[0.0, [120, 90, 0]], [1.0, [160, 50, 0]]]
    - kind: rotor
      name: prop
      hub: [80, 40, 0]
      radius: 0.12
      rate_rad_s: 625.0
      blades: 2
      samples_per_blade: 8
  clutter:
    - {position: [60, -50, 0], amplitude: 1.0}
    - {position: [210, 80, 0], amplitude: 0.8}
    - {position: [90, 140, 0], amplitude: 1.2}
    - {position: [250, -120, 0], amplitude: 0.9}
    - {position: [30, 70, 0], amplitude: 1.1}
processing:
  clean_paths: 2
  stft: {fft_size: 256, hop: 32, window: gaussian}
noise:
  snr_db: 30.0
  seed: 424242
flyover:
  d_tx: 10.0
  d_rx: 10.0
  start_deg: 10
  stop_deg: 170
  step_deg: 20
  band: {f_lo: 2e9, f_hi: 18e9, n_points: 256}
  sweep_window: hann
  target: mover
"""


def test_criterion_10_determinism_across_workers(tmp_path):
    cfg_path = tmp_path / "det.yaml"
    cfg_path.write_text(textwrap.dedent(DETERMINISM_CONFIG))
    subcommands = ("ddmap", "clean", "spectrogram", "flyover")
    with Timer(240.0) as t:
        digests = {}
        for threads in (1, 4, 16):
            for sub in subcommands:
                cfg = load_config(cfg_path)
                out = tmp_path / f"w{threads}_{sub}"
                run(sub, cfg, out_dir=out, threads=threads)
                digests.setdefault(sub, []).append(
                    (out / f"{sub}.bisim").read_bytes()
                )
        same = all(all(b == blobs[0] for b in blobs) for blobs in digests.values())
    report(
        10,
        same and t.ok(),
        f"{len(subcommands)} pipelines x workers (1,4,16) byte-identical: {same} "
        f"({t.elapsed:.1f} s)",
    )
