import math
import os
import resource
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from conftest import FULL_SCENE, ROTOR_SCENE

import bisim
from bisim import channel, pipeline
from bisim.archive import ResultArchive
from bisim.cli import OVERRIDES, main
from bisim.config import RunConfig, config_echo, load_config, parse_config
from bisim.errors import ConfigError
from bisim.geometry import C0, pose_at
from bisim.pipeline import run
from bisim.targets import flyover_scan, reflectivity_scan

# 2 Tx x 4 Rx in fixed mode: eight 256 x 512 links with LoS, two clutter
# scatterers and a mover, noised and cleaned
EIGHT_LINK_FIXED = """
mode: fixed
waveform: {carrier_hz: 28e9, bandwidth_hz: 100e6, n_subcarriers: 512, n_symbols: 256}
scene:
  include_los: true
  tx_nodes:
    - {id: tx0, position: [-160, -178, 0]}
    - {id: tx1, position: [160, -178, 0]}
  rx_nodes:
    - {id: rx0, position: [-225, -82, 0]}
    - {id: rx1, position: [-58, -233, 0]}
    - {id: rx2, position: [58, -233, 0]}
    - {id: rx3, position: [225, -82, 0]}
  targets:
    - kind: rigid
      name: mover
      scatterers: [{amplitude: 2.0}]
      trajectory: [[0.0, [0, 12, 0]], [10.0, [-60, 244, 0]]]
  clutter:
    - {position: [95, -60, 0], amplitude: [-16.0, -1.0]}
    - {position: [-91, 58, 0], amplitude: [-17.0, -7.0]}
processing: {clean_paths: 3, detect_threshold_db: 20.0}
noise: {snr_db: 25.0, seed: 7}
"""


class TestPipelineSubcommands:
    def test_simulate_writes_link_datasets(self, full_scene_config, tmp_path):
        cfg = load_config(full_scene_config)
        archive, written = run("simulate", cfg, out_dir=tmp_path / "o")
        assert {"cfr_tx0_rx0", "cfr_tx0_rx1", "cfr_tx0_rx2"} <= set(archive.datasets)
        assert (tmp_path / "o" / "simulate.bisim").exists()
        assert (tmp_path / "o" / "simulate_summary.yaml").exists()
        reread = ResultArchive.read(tmp_path / "o" / "simulate.bisim")
        assert np.array_equal(
            reread.datasets["cfr_tx0_rx0"].values, archive.datasets["cfr_tx0_rx0"].values
        )

    @pytest.mark.parametrize("scene", ["FULL_SCENE", "ROTOR_SCENE", "FULL_SCENE_MOVING_RX"])
    def test_both_modes_give_each_link_the_same_first_row(self, scene):
        # fixed mode takes its paths at the Link's t0 poses, geometric mode asks the Link's
        # nodes for their poses block by block: at t0 both sum the same paths
        doc = yaml.safe_load(textwrap.dedent(ROTOR_SCENE if scene == "ROTOR_SCENE" else FULL_SCENE))
        doc.pop("noise", None)
        if scene == "FULL_SCENE_MOVING_RX":   # rx1 on a track, and a capture that starts at 0.3 s
            doc["t0"] = 0.3
            doc["scene"]["rx_nodes"][1] = {"id": "rx1", "trajectory": [[0.0, [80, 260, 0]], [1.0, [95, 240, 3]]]}
        rows = {}
        for mode in ("fixed", "geometric"):
            cfg = parse_config(dict(doc, mode=mode))
            rows[mode] = [(link.name, cube.data[0]) for link, cube in pipeline._simulate_links(cfg)]
        assert [name for name, _ in rows["fixed"]] == [name for name, _ in rows["geometric"]]
        for (name, fixed), (_, geometric) in zip(rows["fixed"], rows["geometric"]):
            assert np.abs(fixed - geometric).max() <= 1e-14 * np.abs(geometric).max(), name

    def test_ddmap_detection_matches_ground_truth(self, full_scene_config, tmp_path):
        cfg = load_config(full_scene_config)
        archive, _ = run("ddmap", cfg, out_dir=tmp_path / "o")
        target = cfg.scene.targets[0]
        t_mid = cfg.waveform.duration / 2
        pose = pose_at(target.trajectory, t_mid)
        from bisim.geometry import bistatic_doppler, bistatic_range

        for rx in cfg.scene.rx_nodes:
            dets = archive.summary["results"][f"tx0_{rx.node_id}"]["detections"]
            assert dets, f"no detection on link tx0-{rx.node_id}"
            best = dets[0]
            rb, _ = bistatic_range(
                cfg.scene.tx_nodes[0].pose(0).position, rx.pose(0).position, pose.position
            )
            fd = bistatic_doppler(
                cfg.scene.tx_nodes[0].pose(0), rx.pose(0), pose.position, pose.velocity,
                cfg.scene.wavelength,
            )
            delay_bin = 1.0 / cfg.waveform.bandwidth
            doppler_bin = 1.0 / cfg.waveform.duration
            assert abs(best["delay_s"] - rb / C0) <= delay_bin
            assert abs(best["doppler_hz"] - fd) <= doppler_bin

    def test_localize_recovers_position(self, full_scene_config, tmp_path):
        cfg = load_config(full_scene_config)
        archive, _ = run("localize", cfg, out_dir=tmp_path / "o")
        est = archive.summary["results"]["estimate"]
        target = cfg.scene.targets[0]
        t_mid = cfg.waveform.duration / 2
        truth = pose_at(target.trajectory, t_mid).position
        err = np.linalg.norm(np.array(est["position_m"]) - truth)
        # bin-level measurements: expect accuracy within ~a delay bin in range
        assert err <= 2 * C0 / cfg.waveform.bandwidth
        assert est["converged"]

    def test_spectrogram_metadata_recorded(self, rotor_config, tmp_path):
        cfg = load_config(rotor_config)
        archive, _ = run("spectrogram", cfg, out_dir=tmp_path / "o")
        meta = archive.summary["results"]["tx0_rx0"]
        assert meta["fft_size"] == 2048
        assert meta["hop"] == 32
        assert meta["window"] == "gaussian"
        spec = archive.datasets["spectrogram_tx0_rx0"]
        assert spec.values.shape[1] == 2048
        assert meta["observation_s"] == pytest.approx(2304 * cfg.waveform.t_sym)

    def test_spectrogram_frame_times_start_at_t0(self, tmp_path):
        (tmp_path / "rotor.yaml").write_text(textwrap.dedent(ROTOR_SCENE) + "t0: 0.5\n")
        cfg = load_config(tmp_path / "rotor.yaml")
        archive, _ = run("spectrogram", cfg, out_dir=tmp_path / "o")
        times = archive.datasets["spectrogram_tx0_rx0"].axes[0].values
        # the first frame is centred fft_size/2 symbols into a capture that starts at t0
        assert times[0] == pytest.approx(0.5 + 2048 / 2 * cfg.waveform.t_sym, rel=1e-12)

    def test_clean_reports_removed_paths(self, full_scene_config, tmp_path):
        cfg = load_config(full_scene_config)
        cfg.processing.clean_paths = 2
        archive, _ = run("clean", cfg, out_dir=tmp_path / "o")
        removed = archive.summary["results"]["tx0_rx0"]["removed"]
        assert len(removed) == 2
        los_delay = 300.0 / C0
        assert min(abs(r["delay_s"] - los_delay) for r in removed) <= 1e-10

    def test_flyover_axes(self, full_scene_config, tmp_path):
        cfg = load_config(full_scene_config)
        archive, _ = run("flyover", cfg, out_dir=tmp_path / "o")
        ds = archive.datasets["flyover"]
        assert ds.axes[0].unit == "deg"
        assert ds.axes[0].values[0] == 10.0
        assert ds.axes[0].values[-1] <= 180.0
        assert ds.axes[1].unit == "ns"

    def test_reflectivity_shape(self, full_scene_config, tmp_path):
        cfg = load_config(full_scene_config)
        archive, _ = run("reflectivity", cfg, out_dir=tmp_path / "o")
        ds = archive.datasets["reflectivity"]
        assert ds.values.shape == (2, 1, 3, 1, 16, 2, 2)

    def test_focus_reports_gain(self, full_scene_config, tmp_path):
        cfg = load_config(full_scene_config)
        archive, _ = run("focus", cfg, out_dir=tmp_path / "o")
        res = archive.summary["results"]["tx0"]
        assert res["focusing_gain"] >= 1.0
        assert res["doppler_spread_after_hz"] == 0.0
        pre = archive.datasets["prefilter_tx0"].values
        assert np.sum(np.abs(pre) ** 2) == pytest.approx(1.0, rel=1e-12)

    def test_linkbudget_values(self, full_scene_config, tmp_path):
        cfg = load_config(full_scene_config)
        archive, _ = run("linkbudget", cfg, out_dir=tmp_path / "o")
        res = archive.summary["results"]
        k, m = cfg.waveform.n_subcarriers, cfg.waveform.n_symbols
        assert res["processing_gain_db"] == pytest.approx(10 * np.log10(k * m), abs=1e-9)
        lam, sigma = cfg.scene.wavelength, 1.0
        expected = 36.0 + 10 * np.log10(
            lam**2 * sigma / ((4 * np.pi) ** 3 * 150.0**2 * 120.0**2)
        )
        assert res["received_power_dbm"] == pytest.approx(expected, abs=1e-9)

    def test_missing_section_raises_config_error(self, rotor_config, tmp_path):
        cfg = load_config(rotor_config)
        with pytest.raises(ConfigError):
            run("linkbudget", cfg, out_dir=tmp_path / "o")

    def test_csv_format_exports_2d(self, full_scene_config, tmp_path):
        cfg = load_config(full_scene_config)
        _, written = run("flyover", cfg, out_dir=tmp_path / "o", fmt="csv")
        assert any(p.suffix == ".csv" for p in written)

    def test_summary_contains_full_config_echo(self, full_scene_config, tmp_path):
        cfg = load_config(full_scene_config)
        archive, _ = run("linkbudget", cfg, out_dir=tmp_path / "o")
        echo = archive.summary["config"]
        assert echo["processing"]["stft"]["fft_size"] == 2048
        assert echo["noise"]["seed"] == 20250810
        assert echo["scene"]["targets"][0]["name"] == "car"


class TestDeterminism:
    def test_identical_bytes_same_seed(self, full_scene_config, tmp_path):
        for sub in ("simulate", "ddmap"):
            outs = []
            for run_dir in ("a", "b"):
                cfg = load_config(full_scene_config)
                run(sub, cfg, out_dir=tmp_path / run_dir)
                outs.append((tmp_path / run_dir / f"{sub}.bisim").read_bytes())
            assert outs[0] == outs[1], f"{sub} not reproducible"

    def test_identical_bytes_across_workers(self, full_scene_config, tmp_path):
        blobs = []
        for threads in (1, 4):
            cfg = load_config(full_scene_config)
            run("simulate", cfg, out_dir=tmp_path / f"t{threads}", threads=threads)
            blobs.append((tmp_path / f"t{threads}" / "simulate.bisim").read_bytes())
        assert blobs[0] == blobs[1]

    def test_seed_changes_bytes(self, full_scene_config, tmp_path):
        cfg1 = load_config(full_scene_config)
        run("simulate", cfg1, out_dir=tmp_path / "s1")
        cfg2 = load_config(full_scene_config)
        cfg2.noise.seed = 7
        run("simulate", cfg2, out_dir=tmp_path / "s2")
        assert (
            (tmp_path / "s1" / "simulate.bisim").read_bytes()
            != (tmp_path / "s2" / "simulate.bisim").read_bytes()
        )


class TestCliMain:
    def test_linkbudget_exit_zero(self, full_scene_config, tmp_path, capsys):
        code = main(
            [
                "linkbudget",
                "--config",
                str(full_scene_config),
                "--out",
                str(tmp_path / "cli_out"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "linkbudget.bisim" in out
        assert (tmp_path / "cli_out" / "linkbudget.bisim").exists()

    def test_missing_config_exit_two(self, tmp_path):
        code = main(["simulate", "--config", str(tmp_path / "absent.yaml")])
        assert code == 2

    def test_invalid_config_exit_two(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("waveform: {carrier_hz: -1}\n")
        assert main(["simulate", "--config", str(bad)]) == 2

    def test_flyover_gate_override(self, full_scene_config, tmp_path):
        code = main(
            [
                "flyover",
                "--config",
                str(full_scene_config),
                "--out",
                str(tmp_path / "g"),
                "--gate-ns",
                "2.0",
            ]
        )
        assert code == 0

    @pytest.mark.parametrize("flag", ["--fft", "--hop"])
    def test_stft_size_override_below_one_exits_2(self, rotor_config, tmp_path, flag):
        out = tmp_path / "s"
        assert main(["spectrogram", "--config", str(rotor_config), "--out", str(out), flag, "0"]) == 2
        assert not (out / "spectrogram.bisim").exists()

    def test_negative_seed_override_exits_2(self, full_scene_config, tmp_path):
        out = tmp_path / "n"
        assert main(["simulate", "--config", str(full_scene_config), "--out", str(out), "--seed", "-1"]) == 2

    @pytest.mark.parametrize("width", ["nan", "inf"])
    def test_non_finite_gate_width_exits_2(self, full_scene_config, tmp_path, caplog, width):
        out = tmp_path / "g"
        assert main(["flyover", "--config", str(full_scene_config), "--out", str(out), "--gate-ns", width]) == 2
        assert "processing.gate.width_ns" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exits_2(self, full_scene_config, tmp_path, threads):
        out = tmp_path / "t"
        with pytest.raises(SystemExit) as exit_:
            main(["linkbudget", "--config", str(full_scene_config), "--out", str(out), "--threads", threads])
        assert exit_.value.code == 2
        assert not out.exists()

    SAMPLE_TEXT = {"--out": "sample_out", "--format": "csv", "--seed": "42", "--clean": "2", "--gate-ns": "2.5",
                   "--fft": "1024", "--hop": "64"}

    @pytest.mark.parametrize("override", OVERRIDES, ids=lambda o: o.flag)
    def test_override_is_echoed_and_the_echo_parses_back(self, override, full_scene_config, tmp_path, capsys,
                                                         monkeypatch):
        monkeypatch.chdir(tmp_path)   # the relative sample --out, which comes last and wins, lands here
        sub, text = override.subcommands[0], self.SAMPLE_TEXT[override.flag]
        assert main([sub, "--config", str(full_scene_config), "--out", "o", override.flag, text]) == 0
        summary = next(p for p in capsys.readouterr().out.split() if p.endswith("_summary.yaml"))
        echo = yaml.safe_load(Path(summary).read_text())["config"]
        node = echo
        for key in override.path:
            node = node[key]
        assert node == override.value(yaml.safe_load(text))
        assert config_echo(parse_config(echo)) == echo

    def test_out_and_format_are_echoed_as_they_ran(self, full_scene_config, tmp_path):
        out = str(tmp_path / "flags")
        assert main(["simulate", "--config", str(full_scene_config), "--out", out, "--format", "csv"]) == 0
        echo = yaml.safe_load((tmp_path / "flags" / "simulate_summary.yaml").read_text())["config"]
        assert echo["outputs"] == {"directory": out, "format": "csv"}
        assert (tmp_path / "flags" / "simulate_cfr_tx0_rx0.csv").exists()
        cfg = load_config(full_scene_config)
        archive, written = run("linkbudget", cfg, out_dir=tmp_path / "run", fmt="csv")
        assert archive.summary["config"]["outputs"] == {"directory": str(tmp_path / "run"), "format": "csv"}
        assert tmp_path / "run" / "linkbudget_received_power_dbm.csv" in written
        assert config_echo(cfg)["outputs"] == {"directory": "out", "format": "bin"}   # the caller's cfg is kept

    def test_unknown_format_exits_2_and_names_the_key(self, full_scene_config, tmp_path, caplog):
        out = tmp_path / "x"
        assert main(["linkbudget", "--config", str(full_scene_config), "--out", str(out), "--format", "xml"]) == 2
        assert "outputs.format" in caplog.text
        assert not out.exists()
        with pytest.raises(ConfigError, match="outputs.format"):
            run("linkbudget", load_config(full_scene_config), out_dir=out, fmt="xml")
        assert not out.exists()

    @pytest.mark.parametrize("override, section", [
        pytest.param(o, o.path[:d], id=f"{o.flag}:{'.'.join(o.path[:d])}")
        for o in OVERRIDES for d in range(1, len(o.path))])
    def test_override_into_a_non_mapping_exits_2_with_the_parser_message(self, override, section, tmp_path,
                                                                         caplog, capsys):
        doc = yaml.safe_load(textwrap.dedent(FULL_SCENE))
        node = doc
        for key in section[:-1]:
            node = node.setdefault(key, {})
        node[section[-1]] = [1, 2]
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        sub, text = override.subcommands[0], self.SAMPLE_TEXT[override.flag]
        assert main([sub, "--config", str(cfg), "--out", str(tmp_path / "o"), override.flag, text]) == 2
        assert f"{'.'.join(section)}: expected a mapping" in caplog.text
        assert "Traceback" not in capsys.readouterr().err

    def run_edited(self, sub, section, key, value, tmp_path, capsys) -> int:
        """main() on FULL_SCENE with section.key set to value; stderr must hold no traceback."""
        doc = yaml.safe_load(textwrap.dedent(FULL_SCENE))
        doc[section][key] = value
        cfg = tmp_path / "edited.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        code = main([sub, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert "Traceback" not in capsys.readouterr().err
        return code

    @pytest.mark.parametrize("key, value", [("n_subcarriers", 0), ("n_symbols", -1)])
    def test_budget_count_below_one_exits_2(self, key, value, tmp_path, caplog, capsys):
        assert self.run_edited("linkbudget", "budget", key, value, tmp_path, capsys) == 2
        assert key in caplog.text

    @pytest.mark.parametrize("snr_db", [1e308, -1e308])
    def test_snr_without_a_finite_noise_variance_exits_2(self, snr_db, tmp_path, caplog, capsys):
        assert self.run_edited("simulate", "noise", "snr_db", snr_db, tmp_path, capsys) == 2
        assert "snr_db" in caplog.text

    def test_noise_on_a_cube_whose_mean_power_overflows_is_finite(self, tmp_path, capsys):
        # mean |H|^2 is near 10^587 and overflows, but the noise standard deviation
        # at 40 dB SNR, near 1e291, is a float
        doc = yaml.safe_load(textwrap.dedent(FULL_SCENE))
        doc["waveform"]["n_symbols"] = 64
        doc["scene"]["clutter"][0]["amplitude"] = 1e300
        cfg = tmp_path / "loud.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert "Traceback" not in capsys.readouterr().err
        noisy = ResultArchive.read(tmp_path / "o" / "simulate.bisim").datasets
        del doc["noise"]
        clean, _ = run("simulate", parse_config(doc), out_dir=tmp_path / "clean")
        for name, ds in clean.datasets.items():
            signal, noise = ds.values / 1e290, (noisy[name].values - ds.values) / 1e290
            assert np.all(np.isfinite(noisy[name].values))
            snr_db = 10 * np.log10(np.mean(np.abs(signal) ** 2) / np.mean(np.abs(noise) ** 2))
            assert snr_db == pytest.approx(40.0, abs=0.5), name

    @pytest.mark.parametrize("sub, distance", [("reflectivity", 1e200), ("flyover", 1e308)])
    def test_scan_radius_that_overflows_a_hop_exits_2(self, sub, distance, tmp_path, caplog, capsys):
        assert self.run_edited(sub, sub, "d_tx", distance, tmp_path, capsys) == 2
        assert "not finite" in caplog.text
        assert not (tmp_path / "o" / f"{sub}.bisim").exists()

    def test_node_so_far_that_a_path_overflows_exits_2(self, tmp_path, caplog, capsys):
        # without a noise section nothing downstream notices the NaN paths
        doc = yaml.safe_load(textwrap.dedent(FULL_SCENE))
        doc["scene"]["rx_nodes"][0]["position"] = [1e200, 0, 0]
        del doc["noise"]
        cfg = tmp_path / "far.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "not finite" in caplog.text
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "o" / "simulate.bisim").exists()

    @pytest.mark.parametrize("path, value, message", [
        (("scene", "clutter", 0, "amplitude"), 1e300, "energy inf is not positive and finite"),
        (("scene", "targets", 0, "trajectory", 1, 0), 1e-300, "Doppler spread inf Hz is not finite"),
    ], ids=["clutter_amplitude_1e300", "second_waypoint_at_1e-300_s"])
    def test_focus_whose_illumination_overflows_exits_2(self, path, value, message, tmp_path, caplog, capsys):
        # |cfr|^2 overflows, or the target moves so fast that its Doppler spread does
        doc = yaml.safe_load(textwrap.dedent(FULL_SCENE))
        doc["waveform"]["n_symbols"] = 256
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        cfg = tmp_path / "focus.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        assert main(["focus", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert message in caplog.text
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "o" / "focus.bisim").exists()

    def run_rotor(self, sub, edit, tmp_path, capsys) -> int:
        """main() on ROTOR_SCENE after edit(doc); stderr must hold no traceback."""
        doc = yaml.safe_load(textwrap.dedent(ROTOR_SCENE))
        edit(doc)
        cfg = tmp_path / "rotor.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        code = main([sub, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert "Traceback" not in capsys.readouterr().err
        return code

    def test_mean_power_of_a_cube_whose_squares_overflow_is_finite(self, tmp_path, capsys):
        # |H| reaches 1.3e297, whose square overflows; the summary's mean power is still
        # the 0.01-amplitude rotor's plus 20 log10(1e302) dB, and numpy warns of nothing
        def power_db(amplitude):
            out = tmp_path / str(amplitude)
            out.mkdir()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = self.run_rotor("simulate", lambda doc: doc["scene"]["targets"][0].update(
                    sample_amplitude=amplitude), out, capsys)
            assert code == 0 and not caught
            summary = yaml.safe_load((out / "o" / "simulate_summary.yaml").read_text())
            return summary["results"]["links"][0]["mean_power_db"]
        huge = power_db(1e300)
        assert math.isfinite(huge) and huge == pytest.approx(power_db(0.01) + 6040.0, abs=1e-6)

    SCAN = {"d_tx": 10.0, "d_rx": 10.0, "az_tx": [0, 90], "el_tx": [0], "az_rx": [0, 90, 180], "el_rx": [0],
            "band": {"f_lo": 3.6e9, "f_hi": 3.8e9, "n_points": 16}, "target": "prop"}
    FLYOVER = {"d_tx": 10.0, "d_rx": 10.0, "start_deg": 10, "stop_deg": 180, "step_deg": 17,
               "band": {"f_lo": 2e9, "f_hi": 18e9, "n_points": 128}, "target": "prop"}
    SMALL = {"carrier_hz": 3.7e9, "bandwidth_hz": 16e6, "n_subcarriers": 16, "n_symbols": 8}

    def test_rotor_reflectivity_centres_on_the_hub(self, tmp_path, capsys):
        # the hub sits 8 m from the origin, and the blades reach 0.12 m from it
        scan = dict(self.SCAN, d_tx=1.0, d_rx=1.0)
        assert self.run_rotor("reflectivity", lambda doc: doc.update(reflectivity=scan), tmp_path, capsys) == 0

    @pytest.mark.parametrize("sub", ["flyover", "reflectivity"])
    def test_rotor_scan_is_the_same_at_every_t0(self, sub, tmp_path):
        # at 625 rad/s, t0 = 4e-4 s turns the blades by 0.25 rad; a scan sees the body in its own frame
        doc = dict(yaml.safe_load(textwrap.dedent(ROTOR_SCENE)), flyover=self.FLYOVER, reflectivity=self.SCAN)
        maps = [run(sub, parse_config(dict(doc, t0=t0)), out_dir=tmp_path / str(t0))[0].datasets[sub].values
                for t0 in (0.0, 4e-4)]
        cfg = parse_config(doc)
        if sub == "flyover":
            job = cfg.flyover
            scan = flyover_scan(cfg.scene.target(job.target), job.fixed_angle_deg,
                                (job.start_deg, job.stop_deg, job.step_deg), job.d_tx, job.d_rx, job.band,
                                elevation_deg=job.elevation_deg, sweep_window=job.sweep_window)
        else:
            job = cfg.reflectivity
            scan = reflectivity_scan(cfg.scene.target(job.target), job.grid, job.d_tx, job.d_rx, job.band,
                                     sweep_window=job.sweep_window)
        assert maps[0].tobytes() == maps[1].tobytes() == np.ascontiguousarray(scan.data).tobytes()

    # Each case lets its outputs through MAX_ENTRIES (lowered to keep it fast) but not an array
    # of paths or scan samples x frequencies or symbols: the low ramps of a block of synthesis
    # rows (L x b x P), fixed mode's phasors (M x P), a scan's Jones columns (4 x N x n_freq) and
    # the low ramps of a block of flyover rows (L x b x N).
    BOUNDED = {
        "geometric ramps": ("simulate", 64 * 128, "phase ramps", lambda doc: (
            doc["waveform"].update(n_symbols=64), doc["scene"]["targets"][0].update(samples_per_blade=64))),
        "fixed phasors": ("simulate", 256 * 16, "fixed-mode phasors", lambda doc: (
            doc.update(mode="fixed"), doc["waveform"].update(n_symbols=256, n_subcarriers=16),
            doc["scene"]["targets"][0].update(samples_per_blade=64))),
        "scan columns": ("reflectivity", 6 * 16 * 4, "Jones columns", lambda doc: doc.update(
            waveform=TestCliMain.SMALL, reflectivity=TestCliMain.SCAN)),
        "flyover ramps": ("flyover", 11 * 128, "phase ramps", lambda doc: doc.update(
            waveform=TestCliMain.SMALL, flyover=TestCliMain.FLYOVER)),
    }

    @pytest.mark.parametrize("case", list(BOUNDED))
    def test_paths_times_frequencies_past_the_bound_exit_2(self, case, tmp_path, caplog, capsys, monkeypatch):
        sub, entries, what, edit = self.BOUNDED[case]
        monkeypatch.setattr(channel, "MAX_ENTRIES", entries)
        assert self.run_rotor(sub, edit, tmp_path, capsys) == 2
        assert what in caplog.text and "allowed" in caplog.text
        assert not (tmp_path / "o" / f"{sub}.bisim").exists()

    def test_an_allocation_the_process_cannot_make_exits_2(self, tmp_path):
        # 2^28 cells pass MAX_ENTRIES, but the 4 GiB cube does not fit a 3 GiB address space
        doc = yaml.safe_load(textwrap.dedent(ROTOR_SCENE))
        doc["waveform"].update(n_subcarriers=512, n_symbols=1 << 19)
        cfg = tmp_path / "rotor.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        src = str(Path(bisim.__file__).resolve().parents[1])
        code = "import sys; from bisim.cli import main; sys.exit(main(sys.argv[1:]))"
        done = subprocess.run(
            [sys.executable, "-c", code, "simulate", "--config", str(cfg), "--out", str(tmp_path / "o")],
            # one BLAS thread from the start, so that the cube is the only allocation the limit can stop
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
            timeout=120, capture_output=True, text=True,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30)))
        assert done.returncode == 2, done.stderr
        assert "simulate: out of memory" in done.stderr and "Traceback" not in done.stderr
        assert len(done.stderr.splitlines()) == 1
        assert not (tmp_path / "o" / "simulate.bisim").exists()

    def test_seed_override(self, full_scene_config, tmp_path):
        assert (
            main(
                [
                    "simulate",
                    "--config",
                    str(full_scene_config),
                    "--out",
                    str(tmp_path / "x"),
                    "--seed",
                    "42",
                ]
            )
            == 0
        )


class TestOneBlasThread:
    @pytest.fixture
    def blas(self):
        """numpy's OpenBLAS, its thread count restored after the test."""
        lib = channel._openblas()
        if lib is None:
            pytest.skip("numpy's bundled OpenBLAS not found")
        old = lib.scipy_openblas_get_num_threads64_()
        yield lib
        lib.scipy_openblas_set_num_threads64_(old)

    def test_run_pins_one_thread_and_restores_the_count(self, blas, full_scene_config, tmp_path, monkeypatch):
        seen = []

        def runner(cfg, archive, threads):
            seen.append(blas.scipy_openblas_get_num_threads64_())
            return {}
        monkeypatch.setitem(pipeline._RUNNERS, "linkbudget", runner)
        blas.scipy_openblas_set_num_threads64_(2)
        before = blas.scipy_openblas_get_num_threads64_()
        run("linkbudget", load_config(full_scene_config), out_dir=tmp_path / "o")
        assert seen == [1]
        assert blas.scipy_openblas_get_num_threads64_() == before

    def test_count_restored_after_a_runner_raises(self, blas, rotor_config, tmp_path):
        blas.scipy_openblas_set_num_threads64_(2)
        before = blas.scipy_openblas_get_num_threads64_()
        with pytest.raises(ConfigError, match="no reflectivity section"):
            run("reflectivity", load_config(rotor_config), out_dir=tmp_path / "o")
        assert blas.scipy_openblas_get_num_threads64_() == before

    def test_no_library_no_change(self, monkeypatch):
        lib = channel._openblas()
        monkeypatch.setattr(channel, "_openblas", lambda: None)
        counts = []
        with channel.one_blas_thread():
            if lib is not None:
                counts.append(lib.scipy_openblas_get_num_threads64_())
        if lib is not None:
            assert counts == [lib.scipy_openblas_get_num_threads64_()]

    def test_archive_bytes_do_not_depend_on_the_blas_thread_count(self, blas, full_scene_config, tmp_path):
        for sub in ("simulate", "reflectivity"):
            blobs = []
            for count in (1, 2):
                blas.scipy_openblas_set_num_threads64_(count)
                run(sub, load_config(full_scene_config), out_dir=tmp_path / f"b{count}")
                blobs.append((tmp_path / f"b{count}" / f"{sub}.bisim").read_bytes())
            assert blobs[0] == blobs[1], sub


class TestRunMemory:
    def test_ddmap_holds_one_link_in_flight(self, tmp_path):
        (tmp_path / "eight.yaml").write_text(textwrap.dedent(EIGHT_LINK_FIXED))
        cfg = load_config(tmp_path / "eight.yaml")
        tracemalloc.start()
        try:
            archive, _ = run("ddmap", cfg, out_dir=tmp_path / "o")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        cube_bytes = cfg.waveform.n_symbols * cfg.waveform.n_subcarriers * 16
        archive_bytes = sum(ds.values.nbytes + sum(ax.values.nbytes for ax in ds.axes)
                            for ds in archive.datasets.values())
        assert len(archive.datasets) == 8
        # every link's cube alive at once would cost 8 cubes on their own
        assert peak < archive_bytes + 8 * cube_bytes, (peak - archive_bytes) / cube_bytes

    @staticmethod
    def peak_above_archive(sub, doc, tmp_path) -> tuple[int, RunConfig]:
        """tracemalloc peak of a second run of sub on doc, less its archive's bytes, and its config."""
        cfg = parse_config(doc)
        run(sub, cfg, out_dir=tmp_path / "o")   # warm-up: one-off allocations stay out of the peak
        tracemalloc.start()
        try:
            archive, _ = run(sub, cfg, out_dir=tmp_path / "o")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        archive_bytes = sum(ds.values.nbytes + sum(ax.values.nbytes for ax in ds.axes)
                            for ds in archive.datasets.values())
        return peak - archive_bytes, cfg

    # tracemalloc peak above the archive, in link cubes: the measured peak + 0.5 cube
    # (FULL_SCENE simulate 1.0, clean 2.0, ddmap 3.0, localize 4.0, spectrogram 3.0;
    # ROTOR_SCENE 0.5, 1.0, 3.0, 4.0, 2.5; FULL_SCENE with clean_paths 2: clean 2.0,
    # ddmap 3.0, localize 4.0), so one more cube held across a link fails
    CUBE_BUDGETS = {
        "FULL_SCENE": {"simulate": 1.5, "clean": 2.5, "ddmap": 3.5, "localize": 4.5, "spectrogram": 3.5},
        "ROTOR_SCENE": {"simulate": 1.0, "clean": 1.5, "ddmap": 3.5, "localize": 4.5, "spectrogram": 3.0},
        "FULL_SCENE_CLEAN_2": {"clean": 2.5, "ddmap": 3.5, "localize": 4.5},
    }

    @pytest.mark.parametrize("sub, scene", [(sub, scene) for scene, subs in CUBE_BUDGETS.items() for sub in subs])
    def test_link_streaming_runner_peak_above_its_archive(self, sub, scene, tmp_path):
        doc = yaml.safe_load(textwrap.dedent(ROTOR_SCENE if scene == "ROTOR_SCENE" else FULL_SCENE))
        if scene == "FULL_SCENE_CLEAN_2":   # clean's residual replaces the cube it was made from
            doc["processing"]["clean_paths"] = 2
        above, cfg = self.peak_above_archive(sub, doc, tmp_path)
        cubes = above / (cfg.waveform.n_symbols * cfg.waveform.n_subcarriers * 16)
        assert cubes < self.CUBE_BUDGETS[scene][sub], cubes

    # tracemalloc peak above the archive on FULL_SCENE, in KB: the measured peak + 25 KB
    # (reflectivity 78, flyover 78, focus 76, linkbudget 75: most of it is common to every
    # run, as linkbudget's archive is 32 bytes), so a scan or prefilter temporary of 25 KB fails
    KB_BUDGETS = {"reflectivity": 103, "flyover": 103, "focus": 101, "linkbudget": 100}

    @pytest.mark.parametrize("sub", list(KB_BUDGETS))
    def test_scan_runner_peak_above_its_archive(self, sub, tmp_path):
        above, _ = self.peak_above_archive(sub, yaml.safe_load(textwrap.dedent(FULL_SCENE)), tmp_path)
        assert above < self.KB_BUDGETS[sub] * 1024, above / 1024
