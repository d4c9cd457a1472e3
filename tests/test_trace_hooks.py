"""The benchmark's tracer wraps spde_pv at the bindings the package calls; every one must exist.

`perfbench/tracing.py` is loaded from its file, as the benchmark worker does.  Its
`instrument` raises AttributeError on a binding a refactor has dropped, so that shows
here instead of in a later `--trace 1` run.
"""

import importlib.util
from pathlib import Path

from spde_pv import cli, harness, limits, simulator, variations

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings():
    owners = (cli, harness, limits, simulator, variations, variations.VariationSeries)
    return {(owner.__name__, name): value for owner in owners for name, value in vars(owner).items()}


def test_instrument_binds_and_restore_undoes_it():
    tracing = load_tracing()
    before = bindings()
    tracer = tracing.Tracer()
    try:
        tracing.instrument(tracer)
        patched = list(tracer._patched)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, f"{owner.__name__}.{attr} was not wrapped"
    finally:
        tracer.restore()
    after = bindings()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []
