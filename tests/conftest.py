import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from bisim import pipeline
from bisim.channel import SlowTimeCube
from bisim.config import config_echo
from bisim.scene import link_paths

BENCH = Path(__file__).resolve().parents[1] / "bench"

FULL_SCENE = """
mode: geometric
waveform:
  carrier_hz: 3.7e+9
  bandwidth_hz: 40e6
  n_subcarriers: 128
  n_symbols: 2048
scene:
  include_los: true
  tx_nodes:
    - id: tx0
      position: [0, 0, 0]
  rx_nodes:
    - id: rx0
      position: [300, 0, 0]
    - id: rx1
      position: [80, 260, 0]
    - id: rx2
      position: [-200, 100, 0]
  targets:
    - kind: rigid
      name: car
      scatterers:
        - amplitude: 2.0
      trajectory:
        - [0.0, [120, 90, 0]]
        - [1.0, [160, 50, 0]]
  clutter:
    - position: [60, -50, 0]
      amplitude: 1.0
processing:
  detect_threshold_db: 25.0
  clean_paths: 0
noise:
  snr_db: 40.0
  seed: 20250810
outputs:
  directory: out
  format: bin
budget:
  tx_power_dbm: 30.0
  tx_gain_dbi: 3.0
  rx_gain_dbi: 3.0
  rcs_m2: 1.0
  d_tx: 150.0
  d_rx: 120.0
flyover:
  d_tx: 10.0
  d_rx: 10.0
  start_deg: 10
  stop_deg: 180
  step_deg: 17
  band: {f_lo: 2e9, f_hi: 18e9, n_points: 128}
  target: car
reflectivity:
  d_tx: 8.0
  d_rx: 8.0
  az_tx: [0, 90]
  el_tx: [0]
  az_rx: {start: 0, stop: 180, n: 3}
  el_rx: [0]
  band: {f_lo: 3.6e9, f_hi: 3.8e9, n_points: 16}
  target: car
"""

ROTOR_SCENE = """
mode: geometric
waveform:
  carrier_hz: 3.7e+9
  bandwidth_hz: 16e6
  n_subcarriers: 128
  n_symbols: 2304
scene:
  include_los: false
  tx_nodes:
    - id: tx0
      position: [-10, 0, 0]
  rx_nodes:
    - id: rx0
      position: [10, 0.5, 0]
  targets:
    - kind: rotor
      name: prop
      hub: [0, 8, 0]
      axis: [0, 0, 1]
      radius: 0.12
      rate_rad_s: 625.0
      blades: 2
      samples_per_blade: 16
      sample_amplitude: 0.01
processing:
  stft: {fft_size: 2048, hop: 32, window: gaussian}
outputs:
  directory: out
"""


def tone_cube(paths, w):
    """The cube of a (P,) table's paths held at their delays, each Doppler a per-symbol phasor:
    one DD-map tone per path. synth_cfr's first-order delays would migrate by f_D/f_c per second,
    and the band's spread of Doppler, f_D·B/f_c, would leak each tone into the bins around it."""
    m, k = np.arange(w.n_symbols), np.arange(w.n_subcarriers)
    return SlowTimeCube(sum(a * np.outer(np.exp(2j * np.pi * f * m * w.t_sym),
                                         np.exp(-2j * np.pi * k * w.delta_f * tau))
                            for tau, a, f in zip(paths.delay, paths.gain, paths.doppler)), w)


def first_link_paths(scene, t, doppler=False):
    """link_paths of a scene's first link, at its two nodes' poses at time(s) t."""
    tx, rx = scene.links()[0]
    return link_paths(scene, tx.pose(t), rx.pose(t), t, doppler)


def simulated_links(cfg):
    """pipeline._simulate_links of cfg under the cube key that a run of cfg uses."""
    return pipeline._simulate_links(cfg, pipeline._cube_key(config_echo(cfg)))


@pytest.fixture
def full_scene_config(tmp_path):
    path = tmp_path / "scene.yaml"
    path.write_text(textwrap.dedent(FULL_SCENE))
    return path


@pytest.fixture
def rotor_config(tmp_path):
    path = tmp_path / "rotor.yaml"
    path.write_text(textwrap.dedent(ROTOR_SCENE))
    return path


@pytest.fixture
def bench_workloads(monkeypatch):
    """The benchmark's workloads module: seeded inputs and its own output checks."""
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    import workloads

    return workloads
