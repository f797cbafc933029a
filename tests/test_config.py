import copy
import re
import textwrap

import numpy as np
import pytest
import yaml
from conftest import FULL_SCENE, ROTOR_SCENE
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import DETERMINISM_CONFIG

from bisim.cli import main
from bisim.config import config_echo, load_config, parse_config
from bisim.errors import ConfigError
from bisim.targets import flyover_scan

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

    def test_duplicate_node_id_named(self, tmp_path):
        text = MINIMAL.replace("id: rx0", "id: tx0")
        with pytest.raises(ConfigError, match="tx0"):
            load_config(write(tmp_path, text))

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
        assert rotor.rate == pytest.approx(6000 * 2 * np.pi / 60)
        assert rotor.samples_per_blade == 32
        assert cfg.flyover.band.n_points == 128

    def test_unknown_target_kind(self, tmp_path):
        text = MINIMAL.replace("kind: rigid", "kind: hologram")
        with pytest.raises(ConfigError, match="hologram"):
            load_config(write(tmp_path, text))


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
]


class TestStrictParsing:
    @pytest.mark.parametrize("path, value, sub", MALFORMED)
    def test_malformed_input_is_a_config_error_naming_its_path(self, path, value, sub):
        doc = full_scene()
        at(doc, path[:-1])[path[-1]] = value
        with pytest.raises(ConfigError, match=re.escape(dotted(path))):
            parse_config(doc)

    @pytest.mark.parametrize("path, value, sub", MALFORMED)
    def test_cli_exits_2_without_traceback(self, path, value, sub, tmp_path, capsys):
        doc = full_scene()
        at(doc, path[:-1])[path[-1]] = value
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        assert main([sub, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, value", [
        ('"2048"', 2048), ("2048.0", 2048), ('"4e3"', 4000), ("-3", -3)])
    def test_integers_of_exact_integral_value_accepted(self, text, value):
        doc = full_scene()
        doc["processing"]["clean_paths"] = yaml.safe_load(text)
        assert parse_config(doc).processing.clean_paths == value

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

    def test_stepped_axis_and_flyover_sweep_never_pass_stop(self):
        doc = full_scene()
        doc["reflectivity"]["az_tx"] = {"start": 0, "stop": 1, "step": 0.6}
        doc["flyover"].update(start_deg=0, stop_deg=1, step_deg=0.6)
        cfg = parse_config(doc)
        job = cfg.flyover
        fly = flyover_scan(cfg.scene.target(job.target), job.fixed_angle_deg,
                           (job.start_deg, job.stop_deg, job.step_deg), job.d_tx, job.d_rx, job.band)
        assert cfg.reflectivity.grid["az_tx"].tolist() == fly.angles_deg.tolist() == [0, 0.6]

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

    def test_exactly_one_alternative(self):
        doc = full_scene()
        doc["budget"]["scattering_length"] = 0.1
        with pytest.raises(ConfigError, match="rcs_m2"):
            parse_config(doc)
        del doc["budget"]["rcs_m2"]
        assert parse_config(doc).budget.rcs_m2 == pytest.approx(4 * np.pi * 0.01)


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
