"""bisim's scans pass the benchmark's own output checks.

bench/workloads.py compares sampled reflectivity and flyover profiles with
an independent numpy recomputation at 1e-9 relative. Running those checks
on the tiny angle_sweeps inputs here makes a scan change that breaks them
fail the test suite, not only the benchmark.
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
