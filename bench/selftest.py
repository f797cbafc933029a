"""Quick self-test of the benchmark on tiny inputs.

    python3 bench/selftest.py

Runs every workload once untraced and once traced, at a tiny size, and
asserts that every output check passes, that each run reports exactly the
metrics BENCHMARK.json names, that the saved trace holds one entry per
named layer span, that every layer the workload exercises recorded a span,
and that pipeline.self_s is not negative. Takes about a minute and a half
on two cores.
"""

from __future__ import annotations

import json
import sys

import run
import tracing
import workloads as wl

# Layer spans each workload must record; the other named layers stay empty.
EXERCISED = {
    "rotor_microdoppler": {"scene.link_paths", "targets.target_paths", "channel.synth_cfr",
                           "processing.stft"},
    "multistatic_fixed": {"scene.link_paths", "targets.target_paths", "channel.synth_cfr",
                          "channel.add_noise", "processing.clean", "processing.ddmap",
                          "processing.detect", "fusion.fuse", "archive.csv"},
    "angle_sweeps": {"targets.reflectivity_scan", "targets.flyover_scan"},
}
COMMON = {"setup.import", "config.load", "pipeline.run", "archive.write", "archive.summary"}


def check(workload: str) -> None:
    for trace, names in ((False, run.END_TO_END), (True, run.PER_LAYER)):
        result = run.measure(workload, seed=1, seconds=0, trace=trace, tiny=True)
        assert result["correct"] and result["failed"] == 0, (workload, trace, result)
        assert result["attempted"] > 0
        assert set(result["metrics"]) == set(names), (workload, sorted(result["metrics"]))
        for name, metric in result["metrics"].items():
            assert metric["unit"] == names[name]
    assert result["metrics"]["pipeline.self_s"]["value"] >= 0.0, result
    saved = json.loads((run.WORK / f"trace_{workload}.json").read_text())
    assert len(saved) == run.REPS
    for rep in saved:
        assert list(rep["layers"]) == list(tracing.LAYER_SPANS), sorted(rep["layers"])
        recorded = {name for name, entry in rep["layers"].items() if entry["calls"]}
        assert recorded == EXERCISED[workload] | COMMON, (workload, sorted(recorded))
        assert {span[0] for span in rep["spans"]} == recorded


def main() -> int:
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in manifest["workloads"]] == list(wl.WORKLOADS)
    for key, names in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in manifest[key]} == names, key
    for workload in wl.WORKLOADS:
        check(workload)
        print(f"{workload}: ok", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
