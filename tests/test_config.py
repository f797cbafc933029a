import copy
import re
import textwrap
import tracemalloc

import numpy as np
import pytest
import yaml
from conftest import FULL_SCENE, ROTOR_SCENE
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import DETERMINISM_CONFIG

from bisim import config
from bisim.archive import _summary_text
from bisim.cli import main
from bisim.config import config_echo, load_config, load_document, parse_config
from bisim.errors import ConfigError
from bisim.channel import MAX_ENTRIES
from bisim.pipeline import SUBCOMMANDS, run
from bisim.targets import states

MINIMAL = """
waveform:
  carrier_hz: 3.7e+9
  bandwidth_hz: 20e6
  n_subcarriers: 64
  n_symbols: 32
scene:
  tx_nodes:
    - id: tx0
      position: [0, 0, 0]
  rx_nodes:
    - id: rx0
      position: [100, 0, 0]
  targets:
    - kind: rigid
      name: blip
      scatterers:
        - amplitude: 0.05
      trajectory:
        - [0.0, [50, 40, 0]]
"""


def write(tmp_path, text, name="run.yaml"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return path


class TestLoadConfig:
    def test_minimal_scene_with_defaults(self, tmp_path):
        cfg = load_config(write(tmp_path, MINIMAL))
        assert cfg.waveform.n_subcarriers == 64
        assert cfg.scene.tx_nodes[0].node_id == "tx0"
        assert cfg.mode == "geometric"
        assert cfg.processing.stft.fft_size == 2048
        assert cfg.processing.stft.hop == 32
        assert cfg.outputs.format == "bin"
        # wavelength defaults to c/f_c
        assert cfg.scene.wavelength == pytest.approx(299792458.0 / 3.7e9)

    def test_string_numbers_accepted(self, tmp_path):
        # YAML 1.1 resolves "160e6" as a string; the loader must coerce it
        cfg = load_config(
            write(tmp_path, MINIMAL.replace("20e6", '"160e6"').replace("64", "1280"))
        )
        assert cfg.waveform.bandwidth == 160e6

    def test_paper_numerology(self, tmp_path):
        text = MINIMAL.replace("20e6", "160e6").replace(
            "n_subcarriers: 64", "n_subcarriers: 1280"
        ).replace("n_symbols: 32", "n_symbols: 2048")
        cfg = load_config(write(tmp_path, text))
        assert cfg.waveform.delta_f == 125e3
        assert cfg.waveform.t_sym == 8e-6

    @pytest.mark.parametrize("tx, rx, named", [
        ("tx0", "tx0", "'tx0'"),
        # Tx a_b, a and Rx c, b_c: links a_b -> c and a -> b_c would share the datasets and files of a_b_c
        ("a_b, a", "c, b_c", "'a_b_c'"),
        ("tx0", "x/../../escaped", "'x/../../escaped'"),
        ("tx0", r"rx\\0", repr("rx\\0")),   # a YAML escape each: a backslash, then NUL
        ("tx0", r"rx\0", repr("rx\0")),
    ], ids=["repeated", "link-names", "slash", "backslash", "nul"])
    def test_duplicate_node_id_named(self, tmp_path, tx, rx, named):
        def nodes(ids, y):
            return "".join(f'    - id: "{node_id}"\n      position: [{y}, {i}, 0]\n'
                           for i, node_id in enumerate(ids.split(", ")))

        text = MINIMAL.replace("    - id: tx0\n      position: [0, 0, 0]\n", nodes(tx, 0)).replace(
            "    - id: rx0\n      position: [100, 0, 0]\n", nodes(rx, 100))
        path = write(tmp_path, text)
        with pytest.raises(ConfigError, match=re.escape(named)):
            load_config(path)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out"), "--format", "csv"]) == 2
        assert not (tmp_path / "out").exists()

    def test_seed_required_with_noise(self, tmp_path):
        text = MINIMAL + "\nnoise:\n  snr_db: 20\n"
        with pytest.raises(ConfigError, match="seed"):
            load_config(write(tmp_path, text))

    def test_parse_error_reports_line_and_column(self, tmp_path):
        bad = "waveform:\n  carrier_hz: [unclosed\n"
        with pytest.raises(ConfigError, match=r"line \d+, column \d+"):
            load_config(write(tmp_path, bad))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.yaml")

    def test_missing_field_named(self, tmp_path):
        text = MINIMAL.replace("      position: [100, 0, 0]\n", "")
        with pytest.raises(ConfigError, match="rx_nodes"):
            load_config(write(tmp_path, text))

    def test_rotor_target(self, tmp_path):
        text = """
        waveform:
          carrier_hz: 3.7e+9
          bandwidth_hz: 16e6
          n_subcarriers: 128
          n_symbols: 64
        scene:
          tx_nodes: [{id: tx0, position: [0, 0, 0]}]
          rx_nodes: [{id: rx0, position: [20, 0, 0]}]
          targets:
            - kind: rotor
              name: prop
              hub: [10, 0, 0]
              radius: 0.12
              rate_rpm: 6000
              blades: 2
        flyover:
          d_tx: 10
          d_rx: 10
          band: {f_lo: 2e9, f_hi: 18e9, n_points: 128}
        """
        cfg = load_config(write(tmp_path, text))
        rotor = cfg.scene.targets[0]
        assert rotor.spin.rate == pytest.approx(6000 * 2 * np.pi / 60)
        assert len(rotor.body) == 2 * 32   # samples_per_blade defaults to 32
        assert cfg.flyover.band.n_points == 128

    def test_rigid_target_with_a_spin(self):
        doc = full_scene()
        doc["scene"]["targets"][0]["spin"] = {"axis": [0, 0.6, 0.8], "rate_rad_s": 40}
        cfg = parse_config(doc)
        car = cfg.scene.targets[0]
        assert np.array_equal(car.spin.axis, [0, 0.6, 0.8]) and car.spin.rate == 40.0
        assert config_echo(cfg)["scene"]["targets"][0]["spin"] == {"axis": [0.0, 0.6, 0.8], "rate_rad_s": 40.0}
        del doc["scene"]["targets"][0]["spin"]
        assert parse_config(doc).scene.targets[0].spin is None
        assert "spin" not in config_echo(parse_config(doc))["scene"]["targets"][0]

    def test_unknown_target_kind(self, tmp_path):
        text = MINIMAL.replace("kind: rigid", "kind: hologram")
        with pytest.raises(ConfigError, match="hologram"):
            load_config(write(tmp_path, text))


LOADERS = [pytest.param(yaml.SafeLoader, id="python"),
           pytest.param(getattr(yaml, "CSafeLoader", None), id="libyaml",
                        marks=pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"),
                                                 reason="PyYAML built without libyaml"))]


def test_config_loader_is_libyaml_where_present():
    assert config._LOADER is getattr(yaml, "CSafeLoader", yaml.SafeLoader)


@pytest.mark.parametrize("loader", LOADERS)
class TestLoaders:
    """Config files parse alike with PyYAML's Python loader and with libyaml's."""

    @pytest.mark.parametrize("text", [FULL_SCENE, ROTOR_SCENE, MINIMAL, DETERMINISM_CONFIG],
                             ids=["full", "rotor", "minimal", "determinism"])
    def test_scenes_parse_to_equal_documents(self, tmp_path, monkeypatch, loader, text):
        monkeypatch.setattr(config, "_LOADER", loader)
        assert load_document(write(tmp_path, text)) == yaml.load(textwrap.dedent(text), yaml.SafeLoader)

    @pytest.mark.parametrize("text, line, column", [
        ("waveform:\n  carrier_hz: [unclosed\n", 3, 1),
        ("waveform:\n  carrier_hz: 1\n bad: 2\n", 3, 2),
        ("scene:\n  - x\n  y: 1\n", 3, 3),
        ("a: 'unterminated\n", 2, 1),
        ("\tkey: 1\n", 1, 1),
        ("a: *nope\n", 1, 4),
        ("a: 1\n---\nb: 2\n", 2, 1),
        ("a: !!python/object:os.system 1\n", 1, 4),
    ])
    def test_malformed_document_exits_2_naming_line_and_column(self, tmp_path, monkeypatch, caplog,
                                                              loader, text, line, column):
        monkeypatch.setattr(config, "_LOADER", loader)
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(text)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert f"parse error at line {line}, column {column}:" in caplog.text


class TestConfigEcho:
    def test_every_default_is_echoed(self, tmp_path):
        cfg = load_config(write(tmp_path, MINIMAL))
        echo = config_echo(cfg)
        assert echo["mode"] == "geometric"
        assert echo["processing"]["stft"] == {
            "fft_size": 2048,
            "hop": 32,
            "window": "gaussian",
        }
        assert echo["processing"]["clean_paths"] == 0
        assert echo["processing"]["detect_threshold_db"] == 20.0
        assert echo["noise"] == {"snr_db": None, "seed": None}
        assert echo["outputs"] == {"directory": "out", "format": "bin"}
        assert echo["waveform"]["subcarrier_spacing_hz"] == pytest.approx(20e6 / 64)
        assert echo["scene"]["include_los"] is True

    def test_echo_reparses_to_same_scene(self, tmp_path):
        cfg = load_config(write(tmp_path, MINIMAL))
        echo = config_echo(cfg)
        again = parse_config(echo)
        assert again.waveform.n_symbols == cfg.waveform.n_symbols
        assert again.scene.tx_nodes[0].node_id == "tx0"
        assert len(again.scene.targets) == 1
        assert config_echo(again) == echo
        for name, text in [("full", FULL_SCENE), ("rotor", ROTOR_SCENE),
                           ("determinism", DETERMINISM_CONFIG)]:
            cfg = load_config(write(tmp_path, text, f"{name}.yaml"))
            echo = config_echo(cfg)
            again = parse_config(echo)
            assert again.waveform.n_symbols == cfg.waveform.n_symbols, name
            assert again.scene.tx_nodes[0].node_id == "tx0", name
            assert len(again.scene.targets) == len(cfg.scene.targets) >= 1, name
            # the echo is a fixed point: echo -> parse -> echo changes nothing
            assert config_echo(again) == echo, name


    def test_rotor_echo_reparses_to_the_same_body(self, tmp_path):
        cfg = load_config(write(tmp_path, ROTOR_SCENE))
        echo = config_echo(cfg)
        # a builder-made target echoes as its builder's table, whatever its sample count
        assert echo["scene"]["targets"][0] == {
            "kind": "rotor", "name": "prop", "hub": [0.0, 8.0, 0.0], "axis": [0.0, 0.0, 1.0], "radius": 0.12,
            "rate_rad_s": 625.0, "blades": 2, "samples_per_blade": 16, "sample_amplitude": [0.01, 0.0], "phase0": 0.0}
        rotor, again = cfg.scene.targets[0], parse_config(yaml.safe_load(yaml.safe_dump(echo))).scene.targets[0]
        for field in ("positions", "velocities", "amplitudes", "jones"):
            assert np.array_equal(getattr(rotor.body, field), getattr(again.body, field)), field
        assert again.name == rotor.name == "prop"
        t = np.linspace(0.0, 1e-3, 7)
        assert np.array_equal(states(again, t, doppler=True).positions, states(rotor, t, doppler=True).positions)
        assert np.array_equal(states(again, t, doppler=True).velocities, states(rotor, t, doppler=True).velocities)

    def test_large_rotor_parses_within_its_body_and_echoes_as_its_table(self):
        """4 x 16,384 samples, a sixteenth of MAX_AXIS_POINTS: parsing peaks below 3x the body record's
        bytes, the target's echo stays as short as the 32-sample rotor's, and echo -> parse -> echo is a
        fixed point, through the summary's text, with a bit-identical body."""
        doc = yaml.safe_load(textwrap.dedent(ROTOR_SCENE))
        small = _summary_text(config_echo(parse_config(doc))["scene"]["targets"][0])
        doc["scene"]["targets"][0].update(blades=4, samples_per_blade=16384)
        tracemalloc.start()
        try:
            cfg = parse_config(doc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        body = cfg.scene.targets[0].body
        assert len(body) == 65536 and body.jones.strides[0] == 0   # one identity Jones, shared
        held = body.positions.nbytes + body.velocities.nbytes + body.amplitudes.nbytes + body.jones[0].nbytes
        assert peak < 3 * held, peak / held
        echo = config_echo(cfg)
        entry = _summary_text(echo["scene"]["targets"][0])
        assert entry.count("\n") == small.count("\n") <= 20, entry
        text = _summary_text(echo)
        again = parse_config(yaml.safe_load(text))
        assert _summary_text(config_echo(again)) == text
        for field in ("positions", "velocities", "amplitudes", "jones"):
            assert np.array_equal(getattr(again.scene.targets[0].body, field), getattr(body, field)), field


FULL_DOC = yaml.safe_load(textwrap.dedent(FULL_SCENE))


def full_scene() -> dict:
    return copy.deepcopy(FULL_DOC)


def subtrees(node, path=()):
    """Path of every node of a parsed YAML tree, the root first."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from subtrees(child, path + (key,))


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def put(doc, path, value):
    """value at path in doc. A list too short for an index on the path first gets copies of
    its first entry appended, so a case can name an entry past FULL_SCENE's one scatterer."""
    node = doc
    for i, key in enumerate(path):
        while isinstance(key, int) and len(node) <= key:
            node.append(copy.deepcopy(node[0]))
        if i == len(path) - 1:
            node[key] = value
        node = node[key]


def dotted(path) -> str:
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


# Each of these escaped as a traceback or was silently accepted before the
# parser was strict: (path in FULL_SCENE, value put there, subcommand).
MALFORMED = [
    pytest.param(("scene", "targets", 0), 5, "simulate", id="target-not-a-mapping"),
    pytest.param(("scene", "targets", 0, "scatterers", 0), "big", "simulate",
                 id="scatterer-not-a-mapping"),
    pytest.param(("processing",), [1, 2], "ddmap", id="processing-not-a-mapping"),
    pytest.param(("outputs",), "out", "simulate", id="outputs-not-a-mapping"),
    pytest.param(("budget",), 3, "linkbudget", id="budget-not-a-mapping"),
    pytest.param(("scene", "tx_nodes"), 7, "simulate", id="tx-nodes-not-a-list"),
    pytest.param(("reflectivity", "az_rx"), {"start": 0, "stop": 180, "step": 0}, "reflectivity",
                 id="angle-step-zero"),
    pytest.param(("waveform", "carrier_hz"), float("nan"), "simulate", id="carrier-nan"),
    pytest.param(("scene", "include_los"), "false", "simulate", id="bool-as-string"),
    pytest.param(("noise", "seed"), 1.7, "simulate", id="fractional-seed"),
    pytest.param(("waveform", "n_symbols"), True, "simulate", id="bool-as-int"),
    pytest.param(("waveform", "n_symbol"), 32, "simulate", id="misspelled-key"),
    pytest.param(("processing", "fast_window"), "bogus", "ddmap", id="unknown-window"),
    pytest.param(("scene", "rx_nodes", 0, "velocity"), [20, 0, 0], "simulate", id="static-node-velocity"),
    pytest.param(("scene", "targets", 0, "scatterers", 2, "offset"), [1.0, float("nan"), 0.0], "simulate",
                 id="nan-offset-at-index-2"),
    pytest.param(("scene", "targets", 0, "scatterers", 2, "offset"), [1.0, 2.0], "simulate",
                 id="two-element-offset-at-index-2"),
    pytest.param(("scene", "clutter", 1, "amplitude"), "loud", "simulate", id="text-amplitude-at-index-1"),
]


class TestStrictParsing:
    @pytest.mark.parametrize("path, value, sub", MALFORMED)
    def test_malformed_input_is_a_config_error_naming_its_path(self, path, value, sub):
        doc = full_scene()
        put(doc, path, value)
        with pytest.raises(ConfigError, match=re.escape(dotted(path))):
            parse_config(doc)

    @pytest.mark.parametrize("path, value, sub", MALFORMED)
    def test_cli_exits_2_without_traceback(self, path, value, sub, tmp_path, capsys):
        doc = full_scene()
        put(doc, path, value)
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        assert main([sub, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit, message", [
        ("time", "scene.targets[0].trajectory[0].t: expected a number, got 'x'"),
        ("order", "scene.targets[0].trajectory: waypoint times must be strictly increasing"),
    ])
    def test_a_bad_waypoint_names_its_key_path_once(self, edit, message):
        doc = full_scene()
        trajectory = doc["scene"]["targets"][0]["trajectory"]
        if edit == "time":
            trajectory[0][0] = "x"
        else:
            trajectory[1][0] = trajectory[0][0]
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert str(err.value) == message

    @pytest.mark.parametrize("text, value", [
        ('"2048"', 2048), ("2048.0", 2048), ('"4e3"', 4000), ("-3", -3)])
    def test_integers_of_exact_integral_value_accepted(self, text, value):
        doc = full_scene()
        doc["noise"]["seed"] = yaml.safe_load(text)
        assert parse_config(doc).noise.seed == value

    def test_infinite_snr_means_no_noise_but_other_infinities_fail(self):
        doc = full_scene()
        doc["noise"]["snr_db"] = float("inf")
        assert parse_config(doc).noise.snr_db == float("inf")
        for path in (("noise", "snr_db"), ("t0",), ("budget", "d_tx")):
            doc = full_scene()
            at(doc, path[:-1])[path[-1]] = -float("inf")
            with pytest.raises(ConfigError, match=re.escape(dotted(path))):
                parse_config(doc)

    def test_echo_only_key_accepted_and_ignored(self):
        # accepted when it is the derived bandwidth_hz / n_subcarriers within 1e-12 relative, the
        # echo's own value included; the derived value is used either way
        doc = full_scene()
        for value in (config_echo(parse_config(doc))["waveform"]["subcarrier_spacing_hz"], 40e6 / 128 * (1 + 5e-13),
                      "312500"):
            doc["waveform"]["subcarrier_spacing_hz"] = value
            assert parse_config(doc).waveform.delta_f == 40e6 / 128
        for value in ("abc", True, 30e3, 40e6 / 128 * (1 + 2e-12)):
            doc["waveform"]["subcarrier_spacing_hz"] = value
            with pytest.raises(ConfigError, match=re.escape("waveform.subcarrier_spacing_hz")):
                parse_config(doc)

    def test_symbol_time_is_echo_only(self, tmp_path, capsys, caplog):
        # waveform.symbol_s is 1/Δf, derived: a given value within 1e-12 relative is accepted and
        # not used, and one off by 1e-9 relative exits 2 naming it
        doc = full_scene()
        t_sym = 1.0 / (40e6 / 128)
        assert config_echo(parse_config(doc))["waveform"]["symbol_s"] == t_sym
        doc["waveform"]["symbol_s"] = t_sym * (1 + 5e-13)
        assert parse_config(doc).waveform.t_sym == t_sym
        doc["waveform"]["symbol_s"] = t_sym * (1 + 1e-9)
        cfg = tmp_path / "symbol.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "waveform.symbol_s" in caplog.text
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("spec, expected", [
        ({"start": 0, "stop": 90, "step": 30}, [0, 30, 60, 90]),
        ({"start": 0, "stop": 90, "n": 4}, [0, 30, 60, 90]),
        ([5, 7], [5, 7]),
        (12, [12]),
    ])
    def test_angle_axis_forms(self, spec, expected):
        doc = full_scene()
        doc["reflectivity"]["az_tx"] = spec
        assert np.allclose(parse_config(doc).reflectivity.grid["az_tx"], expected)

    def test_stepped_axis_and_flyover_sweep_never_pass_stop(self, tmp_path):
        doc = full_scene()
        doc["reflectivity"]["az_tx"] = {"start": 0, "stop": 1, "step": 0.6}
        doc["flyover"].update(start_deg=0, stop_deg=1, step_deg=0.6)
        cfg = parse_config(doc)
        archive, _ = run("flyover", cfg, out_dir=tmp_path / "o")
        angles = archive.datasets["flyover"].axes[0].values
        assert cfg.reflectivity.grid["az_tx"].tolist() == angles.tolist() == [0, 0.6]

    @pytest.mark.parametrize("spec", [
        {"start": 0, "stop": 90, "step": -5},
        {"start": 0, "stop": 90, "n": 4, "step": 30},
        {"start": 0, "stop": 90},
        {"start": 90, "stop": 0, "step": 30},
        {"start": 0, "stop": 90, "n": -1},
        {"start": 0, "stop": 1e300, "step": 1e-300},
    ])
    def test_bad_angle_axis_rejected(self, spec):
        doc = full_scene()
        doc["reflectivity"]["az_tx"] = spec
        with pytest.raises(ConfigError, match="reflectivity.az_tx"):
            parse_config(doc)

    @pytest.mark.parametrize("path, value, replaces", [
        (("budget", "scattering_length"), [1e200, 0.0], "rcs_m2"),  # 4π|s|² overflows
        (("waveform", "bandwidth_hz"), 5e-324, None),               # Δf = B/K rounds to 0
    ])
    def test_value_whose_arithmetic_overflows_is_a_config_error(self, path, value, replaces):
        doc = full_scene()
        at(doc, path[:-1]).pop(replaces, None)
        at(doc, path[:-1])[path[-1]] = value
        with pytest.raises(ConfigError, match=re.escape(dotted(path[:1]))):
            parse_config(doc)

    @pytest.mark.parametrize("path, value, replaces, sub", [
        (("budget", "rcs_m2"), 0.0, None, "linkbudget"),
        (("budget", "scattering_length"), [0.0, 0.0], "rcs_m2", "linkbudget"),
        (("flyover", "step_deg"), 1e-300, None, "flyover"),
    ])
    def test_degenerate_value_exits_2_without_traceback(self, path, value, replaces, sub, tmp_path,
                                                        capsys):
        doc = full_scene()
        at(doc, path[:-1]).pop(replaces, None)
        at(doc, path[:-1])[path[-1]] = value
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        assert main([sub, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # Each size is one numpy refuses (or cannot allocate), or 129 clean passes of milliseconds,
    # so a missing check fails fast.
    @pytest.mark.parametrize("scene, paths, value, sub, key", [
        (FULL_SCENE, [("waveform", "n_symbols")], 2**62, "simulate", "n_symbols"),
        (FULL_SCENE, [("reflectivity", axis) for axis in ("az_tx", "el_tx", "az_rx", "el_rx")],
         {"start": 0, "stop": 359, "n": 1 << 20}, "reflectivity", "az_tx"),
        (FULL_SCENE, [("flyover", "band", "n_points")], 2**62, "flyover", "n_points"),
        (ROTOR_SCENE, [("scene", "targets", 0, "samples_per_blade")], 2**62, "simulate",
         "samples_per_blade"),
        (ROTOR_SCENE, [("scene", "targets", 0, "blades")], 2**62, "simulate", "blades"),
        (FULL_SCENE, [("processing", "clean_paths")], 129, "clean", "clean_paths"),
    ], ids=["capture", "reflectivity-tensor", "flyover-map", "rotor-samples", "rotor-blades",
            "clean-paths"])
    def test_oversized_output_exits_2_naming_its_key(self, scene, paths, value, sub, key, tmp_path,
                                                     capsys, caplog):
        doc = yaml.safe_load(textwrap.dedent(scene))
        for path in paths:
            at(doc, path[:-1])[path[-1]] = value
        cfg = tmp_path / "big.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        assert main([sub, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert key in caplog.text
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("axis", [[0, 0, 0], [0, 0, 2], [0.6, 0, 0.7]])
    def test_spin_axis_not_unit_exits_2_naming_its_key(self, axis, tmp_path, capsys, caplog):
        doc = full_scene()
        doc["scene"]["targets"][0]["spin"] = {"axis": axis, "rate_rad_s": 10.0}
        cfg = tmp_path / "spin.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "scene.targets[0].spin.axis" in caplog.text
        assert "Traceback" not in capsys.readouterr().err

    # (key, value, what the error names) of each rotor key a malformed value fails on
    @pytest.mark.parametrize("key, value, named", [
        ("axis", [0, 0, 0], "scene.targets[0].axis"), ("axis", [0, 0, 2], "scene.targets[0].axis"),
        ("hub", [0, 8], "scene.targets[0].hub"), ("radius", 0, "radius"), ("radius", -0.1, "radius"),
        ("blades", 0, "blades"), ("samples_per_blade", 1, "samples_per_blade"),
        ("samples_per_blade", 1.5, "scene.targets[0].samples_per_blade"), ("rate_rad_s", None, "rate_rad_s"),
        ("rate_rpm", 6000, "rate_rpm"), ("sample_amplitude", "loud", "scene.targets[0].sample_amplitude"),
        ("phase0", float("nan"), "scene.targets[0].phase0"), ("pitch", 0.2, "scene.targets[0].pitch"),
    ])
    def test_rotor_error_names_its_key(self, key, value, named):
        doc = yaml.safe_load(textwrap.dedent(ROTOR_SCENE))
        doc["scene"]["targets"][0][key] = value
        with pytest.raises(ConfigError, match=re.escape(named)) as err:
            parse_config(doc)
        assert str(err.value).startswith("scene.targets[0]")

    def test_exactly_one_alternative(self):
        doc = full_scene()
        doc["budget"]["scattering_length"] = 0.1
        with pytest.raises(ConfigError, match="rcs_m2"):
            parse_config(doc)
        del doc["budget"]["rcs_m2"]
        assert parse_config(doc).budget.rcs_m2 == pytest.approx(4 * np.pi * 0.01)


# Processing values out of bounds, each of which only some subcommands use: until parse_config
# checked them, every other subcommand echoed them and exited 0. FULL_SCENE has 128 subcarriers.
BAD_PROCESSING = [
    pytest.param(("processing", "gate"), {"center_ns": 0, "width_ns": 2, "edge_ns": 5}, id="gate-edge-past-half-width"),
    pytest.param(("processing", "gate"), {"center_ns": 0, "width_ns": 2, "edge_ns": -1}, id="gate-edge-negative"),
    pytest.param(("processing", "gate"), {"center_ns": 0, "width_ns": 0}, id="gate-width-zero"),
    pytest.param(("processing", "clean_paths"), -3, id="clean-paths-negative"),
    pytest.param(("processing", "clean_paths"), 129, id="clean-paths-past-n-subcarriers"),
    pytest.param(("processing", "stft"), {"fft_size": 0, "hop": 0}, id="stft-zero"),
    pytest.param(("processing", "stft"), {"hop": 0}, id="stft-hop-zero"),
]


class TestProcessingBounds:
    @pytest.mark.parametrize("sub", ["simulate", "linkbudget"])
    @pytest.mark.parametrize("path, value", BAD_PROCESSING)
    def test_every_subcommand_refuses_a_bad_processing_value(self, path, value, sub, tmp_path, capsys, caplog):
        doc = full_scene()
        put(doc, path, value)
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        assert main([sub, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert f"{sub}: {dotted(path)}: " in caplog.text
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_the_bounds_themselves_are_accepted(self):
        # fft_size is not held to n_symbols here: the 2048 default would refuse every short capture
        doc = full_scene()
        doc["processing"].update(gate={"center_ns": 0, "width_ns": 2, "edge_ns": 1}, clean_paths=128,
                                 stft={"fft_size": 4096, "hop": 1})
        proc = parse_config(doc).processing
        assert (proc.gate.edge_ns, proc.clean_paths, proc.stft.fft_size, proc.stft.hop) == (1, 128, 4096, 1)
        doc["processing"].update(gate={"center_ns": 0, "width_ns": 2}, clean_paths=0, stft={"fft_size": 1})
        assert parse_config(doc).processing.stft.fft_size == 1


# Scan sections that their scan refuses, so that every subcommand must refuse them at parse time:
# (edits as {path: value}, the key path that the error names).
OFF_AXIS = {("scene", "targets", 0, "scatterers", 1, "offset"): [1.5, 0, 0]}   # the car's extent is 1.5 m
BAD_SCANS = [
    pytest.param({("flyover", "step_deg"): 0}, "flyover.start_deg, stop_deg, step_deg", id="flyover-step-zero"),
    pytest.param({("flyover", "stop_deg"): 5}, "flyover.start_deg, stop_deg, step_deg", id="flyover-stop-below-start"),
    pytest.param({("reflectivity", "az_tx"): [90, 0]}, "reflectivity.az_tx", id="reflectivity-az-tx-decreasing"),
    pytest.param({("reflectivity", "el_rx"): []}, "reflectivity.el_rx", id="reflectivity-el-rx-empty"),
    pytest.param({("flyover", "d_rx"): -10.0}, "flyover", id="flyover-d-rx-negative"),
    pytest.param({("reflectivity", "d_rx"): -8.0}, "reflectivity", id="reflectivity-d-rx-negative"),
    pytest.param({**OFF_AXIS, ("reflectivity", "d_tx"): 1.0}, "reflectivity", id="reflectivity-d-tx-inside"),
    pytest.param({**OFF_AXIS, ("flyover", "d_tx"): 1.5}, "flyover", id="flyover-d-tx-at-extent"),
    pytest.param({("flyover", "target"): "truck"}, "flyover.target", id="flyover-unknown-target"),
    pytest.param({("reflectivity", "target"): "truck"}, "reflectivity.target", id="reflectivity-unknown-target"),
]


class TestScanBounds:
    @pytest.mark.parametrize("sub", ["simulate", "linkbudget"])
    @pytest.mark.parametrize("edits, where", BAD_SCANS)
    def test_every_subcommand_refuses_a_bad_scan_section(self, edits, where, sub, tmp_path, capsys, caplog):
        doc = full_scene()
        for path, value in edits.items():
            put(doc, path, value)
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        assert main([sub, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert f"{sub}: {where}" in caplog.text
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # a scan's output size, checked by the function its scan runs: one swept angle or grid point
    # at MAX_ENTRIES entries is accepted, one entry more is refused
    SIZES = {"flyover": ({"start_deg": 30, "stop_deg": 30}, MAX_ENTRIES),
             "reflectivity": ({key: [0] for key in ("az_tx", "el_tx", "az_rx", "el_rx")}, MAX_ENTRIES // 4)}

    @pytest.mark.parametrize("sub", SUBCOMMANDS)
    @pytest.mark.parametrize("scan", ["flyover", "reflectivity"])
    def test_every_subcommand_refuses_a_scan_past_max_entries(self, scan, sub, tmp_path, capsys, caplog):
        doc = full_scene()
        doc[scan]["band"]["n_points"] = 1 << 40
        cfg = tmp_path / "big.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        assert main([sub, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert f"{sub}: {scan}: {scan} " in caplog.text and "complex entries" in caplog.text
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scan", ["flyover", "reflectivity"])
    def test_a_scan_of_max_entries_parses_and_one_more_is_refused(self, scan):
        doc = full_scene()
        axes, n_points = self.SIZES[scan]
        doc[scan].update(axes)
        doc[scan]["band"]["n_points"] = n_points
        assert parse_config(doc)
        doc[scan]["band"]["n_points"] = n_points + 1
        with pytest.raises(ConfigError, match=f"^{scan}: {scan} .* more than the {MAX_ENTRIES} allowed"):
            parse_config(doc)

    def test_the_bounds_themselves_are_accepted(self):
        # a one-angle sweep, a one-point grid axis and radii just past the target's extent
        doc = full_scene()
        for path, value in OFF_AXIS.items():
            put(doc, path, value)
        doc["flyover"].update(start_deg=30, stop_deg=30, d_tx=1.5000001)
        doc["reflectivity"].update(az_tx=[45], d_rx=1.5000001)
        cfg = parse_config(doc)
        assert (cfg.flyover.stop_deg, cfg.reflectivity.grid["az_tx"].tolist()) == (30, [45])


YAML_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8,
)
FULL_PATHS = list(subtrees(FULL_DOC))
MAPPING_PATHS = [p for p in FULL_PATHS if isinstance(at(FULL_DOC, p), dict)]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    op=st.sampled_from(["drop", "add", "replace"]),
    path=st.sampled_from(FULL_PATHS[1:]),
    mapping=st.sampled_from(MAPPING_PATHS),
    key=st.text(max_size=12),
    value=YAML_VALUES,
)
def test_any_mutation_of_full_scene_parses_or_is_a_config_error(op, path, mapping, key, value):
    doc = full_scene()
    if op == "drop":
        del at(doc, path[:-1])[path[-1]]
    elif op == "add":
        at(doc, mapping)[key] = value
    else:
        at(doc, path[:-1])[path[-1]] = value
    try:
        parse_config(doc)
    except ConfigError:
        pass
