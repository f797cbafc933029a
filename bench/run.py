"""Benchmark of bisim's three heavy paths: geometric synthesis, multistatic
processing and fusion, and angle-resolved reflectivity sweeps.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. NAME is one of rotor_microdoppler,
multistatic_fixed, angle_sweeps. The seed makes the workload's inputs; the
program sees only the generated config. Each fresh interpreter times its
set-up, then runs the workload's subcommands through ``bisim.pipeline.run``
with one worker thread REPS times, checking every output after each timed
repetition. Interpreters are started until S seconds have passed, at least
MIN_CHILDREN of them. One more interpreter with two worker threads must
then write byte-identical archives.

--trace 0 prints the end-to-end metrics, medians over repetitions (run_s,
cpu_s) or interpreters (setup_s, peak_rss_mb). --trace 1 pairs untraced
and traced interpreters and prints the per-layer metrics of the traced
repetitions, plus the tracing overhead. The last stdout line is one JSON
object with keys correct, attempted, failed and metrics. See
bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import yaml

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_CHILDREN = 2           # fresh interpreters per untraced run, at least
REPS = 3                   # timed repetitions of the workload per interpreter
DEADLINE_S = 150.0         # start no interpreter after this; a run must end in 180 s

END_TO_END = {"run_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "setup.import_s": "s", "config.load_s": "s",
    "scene.link_paths_calls": "count", "scene.link_paths_s": "s",
    "targets.target_paths_s": "s", "targets.paths_built": "count",
    "geometry.bistatic_doppler_calls": "count",
    "channel.synth_cfr_s": "s", "channel.synth_self_s": "s", "channel.synth_cpu_s": "s",
    "channel.cfr_cells": "count", "channel.add_noise_s": "s",
    "processing.clean_s": "s", "processing.ddmap_s": "s", "processing.detect_s": "s",
    "processing.stft_s": "s", "fusion.fuse_s": "s",
    "targets.reflectivity_scan_s": "s", "targets.flyover_scan_s": "s",
    "targets.sweep_points": "count",
    "archive.write_s": "s", "archive.write_mb": "MB", "archive.csv_s": "s",
    "archive.csv_mb": "MB", "archive.summary_s": "s",
    "pipeline.self_s": "s", "host.spin_s": "s", "trace.overhead_s": "s",
}


def spin() -> float:
    """Seconds of a fixed pure-Python loop; no program change moves it."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i * i % 7
    return time.perf_counter() - t0


class Runner:
    """Fresh interpreters running one workload, in one scratch directory."""

    def __init__(self, workload: str, seed: int, tiny: bool = False):
        self.workload = workload
        self.steps = [sub for sub, _ in wl.STEPS[workload]]
        WORK.mkdir(exist_ok=True)
        self.dir = WORK / f"{workload}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir()
        cfg, truth = wl.make_inputs(workload, seed, tiny)
        (self.dir / "config.yaml").write_text(yaml.safe_dump(cfg, sort_keys=False))
        (self.dir / "truth.json").write_text(json.dumps(truth))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.start = time.perf_counter()
        self.count = 0

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def child(self, reps=REPS, threads=1, trace=False) -> dict:
        """One interpreter's result; every operation fails if the interpreter died."""
        self.count += 1
        spec = {"workload": self.workload, "src": str(SRC), "threads": threads,
                "reps": reps, "trace": trace,
                "config": str(self.dir / "config.yaml"), "truth": str(self.dir / "truth.json"),
                "out": str(self.dir / f"out{self.count}"),
                "result": str(self.dir / f"result{self.count}.json"),
                "trace_file": str(WORK / f"trace_{self.workload}.json")}
        spec_path = self.dir / f"spec{self.count}.json"
        spec_path.write_text(json.dumps(spec))
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec_path)],
                                  env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL,
                                  timeout=max(10.0, 175.0 - self.elapsed()))
            ok = proc.returncode == 0
        except subprocess.TimeoutExpired:
            ok = False
        if not ok:
            died = [{"op": sub, "ok": False, "reason": "interpreter died"} for sub in self.steps]
            return {"reps": [{"ops": died} for _ in range(reps)], "out": spec["out"]}
        return {**json.loads(Path(spec["result"]).read_text()), "out": spec["out"]}

    def drop_outputs(self, result: dict):
        shutil.rmtree(result["out"], ignore_errors=True)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def _check_determinism(one: dict, two: dict):
    """Fail each of two's operations whose archive differs from one's."""
    for op in two["reps"][0]["ops"]:
        a = Path(one["out"]) / f"{op['op']}.bisim"
        b = Path(two["out"]) / f"{op['op']}.bisim"
        if op["ok"] and not (a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()):
            op.update(ok=False, reason="archive differs between 1 and 2 worker threads")


def _layer_metrics(result: dict) -> dict:
    layers, counts = result["layers"], result["counts"]
    total = lambda name: layers[name]["total_s"]
    top = sum(entry["top_level_s"] for entry in layers.values())
    return {
        "setup.import_s": total("setup.import"),
        "config.load_s": total("config.load"),
        "scene.link_paths_calls": layers["scene.link_paths"]["calls"],
        "scene.link_paths_s": total("scene.link_paths"),
        "targets.target_paths_s": total("targets.target_paths"),
        "targets.paths_built": counts.get("targets.paths_built", 0),
        "geometry.bistatic_doppler_calls": counts.get("geometry.bistatic_doppler_calls", 0),
        "channel.synth_cfr_s": total("channel.synth_cfr"),
        "channel.synth_self_s": layers["channel.synth_cfr"]["self_s"],
        "channel.synth_cpu_s": layers["channel.synth_cfr"]["cpu_s"],
        "channel.cfr_cells": counts.get("channel.cfr_cells", 0),
        "channel.add_noise_s": total("channel.add_noise"),
        "processing.clean_s": total("processing.clean"),
        "processing.ddmap_s": total("processing.ddmap"),
        "processing.detect_s": total("processing.detect"),
        "processing.stft_s": total("processing.stft"),
        "fusion.fuse_s": total("fusion.fuse"),
        "targets.reflectivity_scan_s": total("targets.reflectivity_scan"),
        "targets.flyover_scan_s": total("targets.flyover_scan"),
        "targets.sweep_points": counts.get("targets.sweep_points", 0),
        "archive.write_s": total("archive.write"),
        "archive.write_mb": counts.get("archive.write_mb", 0.0),
        "archive.csv_s": total("archive.csv"),
        "archive.csv_mb": counts.get("archive.csv_mb", 0.0),
        "archive.summary_s": total("archive.summary"),
        "pipeline.self_s": result["run_s"] - top,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """The benchmark's result object for one run."""
    runner = Runner(workload, seed, tiny)
    try:
        timed, traced, spins = [], [], []
        min_children = 1 if trace or tiny else MIN_CHILDREN
        while (len(timed) < min_children or runner.elapsed() < seconds) \
                and runner.elapsed() < DEADLINE_S:
            spins.append(spin())
            timed.append(runner.child())
            if len(timed) > 1:
                runner.drop_outputs(timed[-1])
            if trace:
                traced.append(runner.child(trace=True))
        det = runner.child(reps=1, threads=2)
        _check_determinism(timed[0], det)
    finally:
        runner.close()
    reps = lambda children: [r for c in children for r in c["reps"]]
    ops = [op for r in reps(timed + traced + [det]) for op in r["ops"]]
    for op in ops:
        if not op["ok"]:
            print(f"FAILED {workload}/{op['op']}: {op['reason']}", file=sys.stderr)
    failed = sum(not op["ok"] for op in ops)
    med = lambda items, key: statistics.median(x[key] for x in items if key in x)
    if trace:
        per_rep = [_layer_metrics(r) for r in reps(traced) if "layers" in r]
        metrics = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
        metrics["host.spin_s"] = statistics.median(spins)
        metrics["trace.overhead_s"] = med(reps(traced), "run_s") - med(reps(timed), "run_s")
        units = PER_LAYER
    else:
        metrics = {"run_s": med(reps(timed), "run_s"), "cpu_s": med(reps(timed), "cpu_s"),
                   "setup_s": med(timed + [det], "setup_s"),
                   "peak_rss_mb": med(timed, "peak_rss_mb")}
        units = END_TO_END
    print(f"{workload} seed {seed}: {len(timed)} interpreters, run_s "
          f"{[round(r.get('run_s', -1), 3) for r in reps(timed)]}, host.spin_s "
          f"{[round(x, 3) for x in spins]}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bisim" / "__init__.py").is_file():
        print(f"bisim sources not found under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
