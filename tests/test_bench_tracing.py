"""The benchmark's tracer finds every name it wraps, and puts each one back.

bench/tracing.py patches program functions by attribute, so a rename or a
deletion in src/ that the tracer still names breaks the benchmark's traced
run. This test enters the tracer's patch block, so the same change fails
here first.
"""

from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_the_bench_tracer_wraps_each_name_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        patched = list(tracer._patched)
        assert patched
        for owner, attr, orig in patched:
            assert vars(owner)[attr].__wrapped__ is orig, f"{owner!r}.{attr}"
    assert tracer._patched == []
    for owner, attr, orig in patched:
        assert vars(owner)[attr] is orig, f"{owner!r}.{attr}"
