"""The benchmark's tracer wraps spde_pv at the bindings the package calls; every one must exist.

`perfbench/tracing.py` is loaded from its file, as the benchmark worker does.  Its
`instrument` raises AttributeError on a binding a refactor has dropped, so that shows
here instead of in a later `--trace 1` run; a traced run shows a parameter the tracer
reads by name that a refactor has renamed.
"""

import importlib.util
import math
from pathlib import Path

from spde_pv import cli, harness, limits, simulator, variations
from spde_pv.limits import RegimeParams, norm_power_functional
from spde_pv.simulator import SimConfig
from spde_pv.spectrum import UNIT_PI_INTERVAL

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


def test_traced_convergence_records_every_layer():
    tracing = load_tracing()
    sim = SimConfig(params=RegimeParams(r=-1.0, gamma=1.0, domain=UNIT_PI_INTERVAL), modes=16, delta=1.0 / 32.0,
                    horizon=1.0, seed=3)
    spec = harness.ExperimentSpec(
        name="traced",
        sim=sim,
        variations=(
            variations.VariationRequest(r=-1.0, p=2.0),
            variations.VariationRequest(r=-1.0, f=variations.F_PRESETS["min_square_one"]),
            variations.VariationRequest(r=-1.0, F=norm_power_functional(2.0)),
        ),
        delta_grid=(1.0 / 16.0, 1.0 / 32.0),
        replicates=2,
    )
    tracer = tracing.Tracer()
    try:
        tracing.instrument(tracer)
        rows = harness.run_convergence(spec)
    finally:
        tracer.restore()
    assert len(rows) == 6 and all(math.isfinite(row.mean_V_at_T) for row in rows)
    names = {span["name"] for span in tracer.spans}
    for name in ("variations.series_from_norms", "simulator.iter_additive_states", "limits.mu_rF_estimate"):
        assert name in names, f"no {name} span"
