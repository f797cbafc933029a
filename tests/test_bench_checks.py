"""bisim's workloads pass the benchmark's own output checks.

bench/workloads.py compares sampled reflectivity and flyover profiles with
an independent numpy recomputation at 1e-9 relative, and checks the rotor's
Doppler support, the CSV values, clean's delays, the map energy and the
localised position of the synthesis workloads. Running those checks on the
tiny inputs here makes a change that breaks them fail the test suite, not
only the benchmark.
"""

import pytest

from bisim.config import parse_config
from bisim.pipeline import run


@pytest.mark.parametrize("seed", [1, 2])
def test_angle_sweeps_pass_the_benchmark_checks(bench_workloads, tmp_path, seed):
    doc, truth = bench_workloads.make_inputs("angle_sweeps", seed, tiny=True)
    cfg = parse_config(doc)
    reflectivity, _ = run("reflectivity", cfg, out_dir=tmp_path)
    flyover, _ = run("flyover", cfg, out_dir=tmp_path)
    assert bench_workloads.check_reflectivity(reflectivity, truth) is None
    assert bench_workloads.check_flyover(flyover, truth) is None


@pytest.mark.parametrize("workload, seed", [("rotor_microdoppler", 1), ("rotor_microdoppler", 2),
                                            ("multistatic_fixed", 1)])
def test_synthesis_workloads_pass_the_benchmark_checks(bench_workloads, tmp_path, workload, seed):
    from child import _check   # the per-subcommand dispatch of the benchmark's child runs

    doc, truth = bench_workloads.make_inputs(workload, seed, tiny=True)
    cfg = parse_config(doc)
    done = {}
    for sub, fmt in bench_workloads.STEPS[workload]:
        done[sub], written = run(sub, cfg, out_dir=tmp_path, fmt=fmt)
        assert _check(sub, done[sub], written, done, truth) is None
