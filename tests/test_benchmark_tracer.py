"""The benchmark's tracer must find every program name it wraps.

benchmark/tracing.py replaces functions at module attributes of the package
(see its SPANS and COUNTERS tables).  Deleting or renaming one of them breaks
the traced benchmark run, so this test loads the tracer from its file and
installs and uninstalls it.  It only reads the benchmark's files.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_recorder_installs_and_uninstalls():
    tracing = load_tracing()
    wrapped = [(m, a) for m, a, _, _ in tracing.SPANS + tracing.COUNTERS]
    originals = {
        (m, a): getattr(importlib.import_module(m), a) for m, a in wrapped
    }
    recorder = tracing.Recorder()
    recorder.install()
    try:
        for (m, a), original in originals.items():
            assert getattr(importlib.import_module(m), a) is not original
    finally:
        recorder.uninstall()
    for (m, a), original in originals.items():
        assert getattr(importlib.import_module(m), a) is original
