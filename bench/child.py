"""Repetitions of a workload in one fresh interpreter.

    python3 bench/child.py SPEC.json

SPEC names the workload, its config and truth files, the output directory,
the thread count, the number of repetitions, and whether to trace. The
child times set-up (``import bisim`` + ``load_config``), then runs the
subcommand sequence through ``bisim.pipeline.run`` that many times. After
each timed repetition, outside its timed part, it checks every output.
It writes one JSON result to SPEC's ``result`` path. A failed subcommand or
check marks that operation failed; the child itself still exits 0 so the
caller sees every repetition.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _same_archive(a, b) -> bool:
    """Bit-exact equality of two archives' datasets and axes."""
    if list(a.datasets) != list(b.datasets):
        return False
    for name, x in a.datasets.items():
        y = b.datasets[name]
        if x.values.dtype != y.values.dtype or x.values.shape != y.values.shape:
            return False
        if x.values.tobytes() != y.values.tobytes():
            return False
        for ax, ay in zip(x.axes, y.axes):
            if (ax.name, ax.unit) != (ay.name, ay.unit) or \
                    ax.values.tobytes() != ay.values.tobytes():
                return False
    return True


def _check(sub, archive, written, done, truth):
    """Reason an operation's output is wrong, or None."""
    import workloads as wl
    from bisim.archive import ResultArchive

    bin_path = next(p for p in written if p.suffix == ".bisim")
    if not _same_archive(archive, ResultArchive.read(bin_path)):
        return f"{bin_path.name}: archive read back differs from the in-memory result"
    if sub == "spectrogram":
        return wl.check_spectrogram(archive, truth)
    if sub == "simulate":
        csv = {p.stem[len("simulate_"):]: p for p in written if p.suffix == ".csv"}
        if sorted(csv) != sorted(archive.datasets):
            return f"CSV exports {sorted(csv)} do not cover {sorted(archive.datasets)}"
        return wl.check_csv(archive, csv)
    if sub == "clean":
        return wl.check_clean(archive, truth)
    if sub == "ddmap":
        if "clean" not in done:
            return "no clean residual to compare the map energy with"
        return wl.check_ddmap(archive, done["clean"])
    if sub == "localize":
        return wl.check_localize(archive, truth)
    if sub == "reflectivity":
        return wl.check_reflectivity(archive, truth)
    if sub == "flyover":
        return wl.check_flyover(archive, truth)
    return f"no check for subcommand {sub!r}"


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    t_start = time.perf_counter()
    import bisim
    from bisim import pipeline
    from bisim.config import load_config

    t_import = time.perf_counter()
    cfg = load_config(spec["config"])
    t_setup = time.perf_counter()
    src = Path(spec["src"]).resolve()
    if src not in Path(bisim.__file__).resolve().parents:
        raise SystemExit(f"imported bisim from {bisim.__file__}, not from {src}")
    result = {"setup_s": t_setup - t_start}

    # Imported after set-up is timed: these load numpy ahead of bisim otherwise.
    import workloads as wl
    from tracing import Tracer

    truth = json.loads(Path(spec["truth"]).read_text())
    out = Path(spec["out"])
    steps = wl.STEPS[spec["workload"]]
    result["reps"] = []
    traces = []
    for rep in range(spec["reps"]):
        tracer = None
        if spec["trace"]:
            tracer = Tracer()
            tracer.add_span("setup.import", t_start, t_import)
            tracer.add_span("config.load", t_import, t_setup)
            tracer.install()
        done, written, errors = {}, {}, {}
        c0 = time.process_time()
        w0 = time.perf_counter()
        for sub, fmt in steps:
            try:
                done[sub], written[sub] = pipeline.run(sub, cfg, out_dir=out,
                                                       threads=spec["threads"], fmt=fmt)
            except Exception:  # a failed subcommand is a failed operation
                errors[sub] = traceback.format_exc(limit=3)
        w1 = time.perf_counter()
        c1 = time.process_time()
        record = {"run_s": w1 - w0, "cpu_s": c1 - c0}
        if rep == 0:
            # Before any check runs: the checks' own arrays must not count.
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()
            record["layers"] = tracer.summary()
            record["counts"] = dict(tracer.counts)
            traces.append({**record, "spans": tracer.spans})
        ops = []
        for sub, _ in steps:
            reason = errors.get(sub)
            if reason is None:
                try:
                    reason = _check(sub, done[sub], written[sub], done, truth)
                except Exception:  # a check that cannot run marks the operation failed
                    reason = traceback.format_exc(limit=3)
            ops.append({"op": sub, "ok": reason is None, "reason": reason})
        record["ops"] = ops
        result["reps"].append(record)
    if traces:
        Path(spec["trace_file"]).write_text(json.dumps(traces))
    Path(spec["result"]).write_text(json.dumps(result))

if __name__ == "__main__":
    main(sys.argv[1])
