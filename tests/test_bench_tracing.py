"""The benchmark's layer tracer still finds every name it rebinds.

bench/tracing.py records spans by replacing bisim functions at the names
their callers look up (scene.bistatic_doppler, pipeline.synth_cfr, ...). A
refactor that drops one of those names breaks the benchmark without failing
any other test, so install and uninstall it here.
"""

import sys

from conftest import BENCH

from bisim import pipeline, scene


def test_tracer_installs_and_restores_bisim_functions(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    import tracing

    link_paths, synth_cfr = scene.link_paths, pipeline.synth_cfr
    tracer = tracing.Tracer()
    tracer.install()   # an AttributeError here names a binding the tracer can no longer find
    try:
        assert scene.link_paths is not link_paths and pipeline.synth_cfr is not synth_cfr
    finally:
        tracer.uninstall()
    assert scene.link_paths is link_paths and pipeline.synth_cfr is synth_cfr
