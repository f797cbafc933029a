"""Layer tracing from outside the program.

The tracer rebinds bisim's public functions at the names their callers
look up (``bisim.pipeline.synth_cfr``, ``bisim.scene.link_paths``, ...).
Each wrapper records a span (name, start, end, parent, CPU time) and the
work counts of that call, in memory. Nothing under ``src/`` is changed;
``uninstall`` restores every original binding.
"""

from __future__ import annotations

import math
import os
import time
from collections import Counter

# Every span the traced run can record, in report order. A run records a
# subset; the summary still holds one entry per name.
LAYER_SPANS = (
    "setup.import",
    "config.load",
    "pipeline.run",
    "scene.link_paths",
    "targets.target_paths",
    "channel.synth_cfr",
    "channel.add_noise",
    "processing.clean",
    "processing.ddmap",
    "processing.detect",
    "processing.stft",
    "fusion.fuse",
    "targets.reflectivity_scan",
    "targets.flyover_scan",
    "archive.write",
    "archive.csv",
    "archive.summary",
)

MB = 1e6


def _sweep_points(counts, args, result):
    # angle points x frequencies: a reflectivity tensor also has two polarisation axes
    shape = result.data.shape
    counts["targets.sweep_points"] += math.prod(shape[:5] if len(shape) == 7 else shape)


def _file_mb(key, index):
    def count(counts, args, result):
        counts[key] += os.path.getsize(args[index]) / MB
    return count


class Tracer:
    """Spans and counts of one traced run, kept in memory until written."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, cpu_s]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def add_span(self, name, start, end):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, 0.0])

    def _wrap(self, owner, attr, name, count=None):
        fn = getattr(owner, attr)
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, 0.0])
            stack.append(idx)
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                rec = spans[idx]
                rec[1], rec[2], rec[4] = t0, t1, time.process_time() - c0
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))

    def _count(self, owner, attr, key):
        fn = getattr(owner, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, counted)
        self._undo.append((owner, attr, fn))

    def install(self):
        from bisim import pipeline, scene, targets
        from bisim.archive import ResultArchive

        cells = lambda c, a, r: c.update({"channel.cfr_cells": r.data.size})
        built = lambda c, a, r: c.update({"targets.paths_built": len(r)})
        self._wrap(pipeline, "link_paths", "scene.link_paths")    # fixed mode
        self._wrap(scene, "link_paths", "scene.link_paths")       # geometric callback
        self._wrap(scene, "target_paths", "targets.target_paths", built)
        self._count(targets, "bistatic_doppler", "geometry.bistatic_doppler_calls")
        self._count(scene, "bistatic_doppler", "geometry.bistatic_doppler_calls")
        self._wrap(pipeline, "synth_cfr", "channel.synth_cfr", cells)
        self._wrap(pipeline, "add_noise", "channel.add_noise")
        self._wrap(pipeline, "subtract_dominant_paths", "processing.clean")
        self._wrap(pipeline, "delay_doppler_map", "processing.ddmap")
        self._wrap(pipeline, "detect_peaks", "processing.detect")
        self._wrap(pipeline, "stft_spectrogram", "processing.stft")
        self._wrap(pipeline, "fuse", "fusion.fuse")
        self._wrap(pipeline, "reflectivity_scan", "targets.reflectivity_scan", _sweep_points)
        self._wrap(pipeline, "flyover_scan", "targets.flyover_scan", _sweep_points)
        self._wrap(ResultArchive, "write", "archive.write", _file_mb("archive.write_mb", 1))
        self._wrap(ResultArchive, "write_summary", "archive.summary")
        self._wrap(pipeline, "export_csv", "archive.csv", _file_mb("archive.csv_mb", 2))
        self._wrap(pipeline, "run", "pipeline.run")

    def uninstall(self):
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def summary(self) -> dict:
        """Per span name: calls, inclusive, self and CPU seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        layers = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "cpu_s": 0.0,
                         "top_level_s": 0.0}
                  for name in LAYER_SPANS}
        for i, (name, start, end, parent, cpu) in enumerate(self.spans):
            entry = layers[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
            entry["cpu_s"] += cpu
            if parent >= 0 and self.spans[parent][0] == "pipeline.run":
                entry["top_level_s"] += end - start
        return layers
