"""The benchmark's tracer finds every package function it wraps.

``bench/tracing.py`` replaces package functions at their module attributes
for the traced benchmark runs.  A package change that removes or renames
one of them breaks ``bench/run.py --smoke`` and ``--trace``; this test
fails on it first.
"""

import pathlib

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def test_tracer_installs_and_restores_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    tracer = tracing.Tracer()
    try:
        tracer.install()
        saved = list(tracer._saved)
        assert saved
        assert all(getattr(owner, attr) is not original for owner, attr, original in saved)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is original for owner, attr, original in saved)
