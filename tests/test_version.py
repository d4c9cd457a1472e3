"""The random generator, the output files and the block budget each have one home in `spde_pv._version`.

`rng_for` builds every generator the program draws from; `write_json` and `write_csv`
write every JSON and CSV file; `BLOCK_ELEMENTS` bounds every block of an array the program
cuts.  These tests pin what the writers promise (exact float round trip, sorted 2-space strict
JSON with a final newline), that the samplers draw from `rng_for`, that no other module builds a
generator, writes a file by hand or sets a block size of its own, that every block keeps
the budget, and the version that names the current random streams.
"""

import ast
import csv
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import qmc

import spde_pv
from spde_pv import qform
from spde_pv._version import BLOCK_ELEMENTS, rng_for, write_json
from spde_pv.cli import cli
from spde_pv.limits import RegimeParams, norm_power_functional, norm_weights, ou_law
from spde_pv.rqmc import _direction_numbers, _normals, _scrambled_sobol, mu_rF_estimate
from spde_pv.simulator import SIGMA_PRESETS, SimConfig, iter_additive_states, iter_field_states, normal_stream
from spde_pv.spectrum import UNIT_PI_INTERVAL, eigenvalues

PI = math.pi
SIM = {
    "domain": {"dim": 1, "sides": [PI]},
    "gamma": 1.0,
    "r": -1.0,
    "modes": 16,
    "delta": 1.0 / 32.0,
    "horizon": 1.0,
    "sigma": {"mode": "constant", "value": 1.0},
    "seed": 4242,
}


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def run_converge(tmp_path):
    exp = {"name": "demo", "sim": SIM, "variations": [{"r": -1.0, "p": 2.0}, {"r": 0.0, "p": 4.0}],
           "delta_grid": [1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0], "replicates": 3}
    assert cli(["converge", "--config", write_config(tmp_path / "exp.json", exp), "--out", str(tmp_path / "c")]) == 0
    return tmp_path / "c"


def test_convergence_csv_round_trips_the_summary_floats(tmp_path):
    out = run_converge(tmp_path)
    with open(out / "demo_convergence.csv") as fh:
        csv_rows = list(csv.DictReader(fh))
    rows = json.loads((out / "demo_summary.json").read_text())["rows"]
    assert len(csv_rows) == len(rows) == 6
    for line, row in zip(csv_rows, rows):
        assert line["request"] == row["request"]
        for key in ("delta", "mean_V_at_T", "std_error", "theoretical_limit", "abs_error", "sup_error_over_grid"):
            assert float(line[key]) == row[key], key


def test_json_outputs_are_sorted_indented_and_newline_terminated(tmp_path, capsys):
    out = run_converge(tmp_path)
    assert cli(["simulate", "--config", write_config(tmp_path / "sim.json", SIM), "--out", str(tmp_path / "s")]) == 0
    constants = {"domain": SIM["domain"], "gamma": 1.0, "r": -1.0, "orders": [1, 2]}
    assert cli(["constants", "--config", write_config(tmp_path / "k.json", constants), "--out", str(tmp_path / "k")]) == 0
    holder = {"sim": {**SIM, "horizon": 2.0}, "r": -1.0, "delta_grid": [1 / 8, 1 / 16, 1 / 32, 1 / 64], "replicates": 20}
    assert cli(["holder", "--config", write_config(tmp_path / "h.json", holder), "--out", str(tmp_path / "h")]) == 0
    capsys.readouterr()
    files = [out / "demo_summary.json", tmp_path / "s" / "path.json", tmp_path / "k" / "constants.json",
             tmp_path / "h" / "holder.json"]
    for path in files:
        text = path.read_text()
        payload = json.loads(text)
        assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n", path.name
        assert set(payload["meta"]) == {"version", "spec_sha256", "created_utc"}, path.name


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_json_outputs_refuse_nan_and_infinity(tmp_path, bad):
    # json.dumps would write NaN or Infinity, which no strict JSON reader accepts; nothing reaches the disk
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_json(tmp_path / "out" / "report.json", {"values": [1.0, bad]}, {})
    assert not (tmp_path / "out").exists()


def test_mu_rF_estimate_draws_from_rng_for():
    # w = 1: the coefficients are the normals of the points themselves; the first block is the first scrambling's
    # 3000 // 16 rounded down to a power of two = 128 points
    blocks = []

    def record(coeffs, lam, r):
        blocks.append(coeffs.copy())
        return coeffs[:, 0]

    params = RegimeParams(r=-1.0, gamma=1.0, domain=UNIT_PI_INTERVAL)
    mu_rF_estimate(record, 1.0, params, truncation=5, samples=3000, seed=99)
    points = qmc.Sobol(d=5, scramble=True, rng=rng_for(99)).random(128)
    assert np.array_equal(blocks[0], _normals(points))


def test_additive_stream_draws_from_rng_for():
    cfg = SimConfig(params=RegimeParams(r=-1.0, gamma=1.0, domain=UNIT_PI_INTERVAL), modes=8, delta=1 / 64,
                    horizon=1.0, seed=314)
    _, _, variance = ou_law(eigenvalues(UNIT_PI_INTERVAL, 8), 1.0, cfg.delta)
    scale = cfg.sigma.value * np.sqrt(variance(cfg.delta))
    assert np.array_equal(next(iter_additive_states(cfg))[0], scale * rng_for(314).standard_normal(8))
    assert type(rng_for(0).bit_generator).__name__ == "SFC64"
    # mu_rF_estimate scrambles its Sobol points from these children
    assert {type(g.bit_generator).__name__ for g in rng_for(0).spawn(16)} == {"SFC64"}


def test_version_is_the_release_of_the_current_streams():
    # 0.4.0: `converge` estimates the additive scheme's rows with two levels in the mode count, whose base
    # replicates draw K / 8 modes and whose coupled replicates take the seeds past the base ones; 0.5.0: two
    # levels from K = 512 on (MIN_BASE_MODES = 64), so the additive runs with 512 <= K < 1024 and M >= 3 moved;
    # 0.6.0: `holder` takes the same two levels, its base samples drawing K / 8 modes from the stream of sim.seed
    # and its coupled samples the stream of derive_seed(sim.seed, 1), so its runs with K >= 512 and M >= 3 moved;
    # 0.7.0: `holder` runs on a ladder of levels K / 8^j down to 64 modes, each sized by Giles' rule, so its runs
    # with K >= 512 and M >= 3 moved again; 0.8.0: `converge` integrates the modes past K0 out exactly for the
    # even powers, so a constant-sigma run with an even-power row and two levels draws no coupled replicate for it;
    # 0.9.0: the M <= 2 rule of one level counts pilots only where a row needs the coupled level, so an all-even
    # constant-sigma `converge` run with K >= 512 and M <= 2 conditions on its K0 modes too
    assert spde_pv.__version__ == "0.9.0"
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE).group(1) == spde_pv.__version__


def test_numpy_is_the_only_runtime_dependency_and_the_sobol_table_ships():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())
    assert [re.match(r"[\w.-]+", dep).group() for dep in project["project"]["dependencies"]] == ["numpy"]
    shipped = project["tool"]["setuptools"]["package-data"]["spde_pv"]
    assert sorted(shipped) == ["_joe_kuo.npz", "_joe_kuo_LICENSE.txt"]
    assert all((Path(spde_pv.__file__).parent / name).is_file() for name in shipped)


def test_only_version_module_builds_generators_and_writes_files():
    patterns = {
        "builds a generator": re.compile(r"\b(Philox|PCG64|PCG64DXSM|MT19937|SFC64|Generator)\(|default_rng"),
        "writes a file": re.compile(r"\.write_text\(|\bopen\([^)]*['\"][wax]"),
    }
    offenders = []
    for path in sorted(Path(spde_pv.__file__).parent.glob("*.py")):
        if path.name == "_version.py":
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            offenders += [f"{path.name}:{lineno} {what}" for what, pat in patterns.items() if pat.search(line)]
    assert offenders == []


def test_no_module_reads_the_environment():
    # every setting comes from a flag or a config key, so a run is described by its command line and files
    reads_env = re.compile(r"\bos\.environ\b|\bgetenv\b|\benviron\[")
    offenders = [
        f"{path.name}:{lineno}"
        for path in sorted(Path(spde_pv.__file__).parent.glob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if reads_env.search(line)
    ]
    assert offenders == []


def test_the_package_draws_normals_only_in_normal_stream():
    # every scheme and sampler takes its normals from the one draw site, so a stream change has one place to go;
    # only `validate`'s self-check draws test matrices of its own, and the harness, which runs the streams of
    # `converge` and `holder`, imports no generator, so that no draw layer grows there
    package = Path(spde_pv.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}

    def calls(module, match):  # the top-level definitions of `module` that make a call `match` accepts
        return [getattr(stmt, "name", "<module>") for stmt in trees[module].body
                if any(isinstance(node, ast.Call) and match(node.func) for node in ast.walk(stmt))]

    draws = [f"{module}.{name}" for module in trees
             for name in calls(module, lambda f: isinstance(f, ast.Attribute) and f.attr == "standard_normal")]
    assert draws == ["cli._validation_checks", "simulator.normal_stream"]
    assert calls("simulator", lambda f: isinstance(f, ast.Name) and f.id == "_rng_for") == ["normal_stream"]
    harness = trees["harness"]
    imported = {alias.name for node in ast.walk(harness) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not imported & {"rng_for", "_rng_for"}
    from_random = {node.attr for node in ast.walk(harness) if isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Attribute) and node.value.attr == "random"}
    assert from_random == {"SeedSequence"}  # `derive_seed`'s seeds, not a generator


def test_every_top_level_definition_is_used_in_the_package():
    # a top-level function or class that no module of the package names, as a name, an attribute or an import,
    # and that no literal `__all__` lists, is dead code
    trees = [ast.parse(path.read_text()) for path in sorted(Path(spde_pv.__file__).parent.glob("*.py"))]
    defined = [node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    named = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.add(node.name)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            named.update(elt.value for elt in getattr(node.value, "elts", ()))
    assert len(defined) > 100 and [name for name in defined if name not in named] == []


def test_every_block_holds_at_most_the_block_budget(monkeypatch):
    # every array the program cuts comes in blocks of at most BLOCK_ELEMENTS numbers, or of one row where a row is
    # wider: the normal stream, both state streams, the RQMC points, the log-Laplace arguments and the Fourier rows
    def within(rows, width):
        return rows * width <= BLOCK_ELEMENTS or rows == 1

    for width in (1, 7, 1000, BLOCK_ELEMENTS, 2 * BLOCK_ELEMENTS):
        assert all(within(*block.shape) for block in normal_stream(3, width)(70))
    params = RegimeParams(r=-1.0, gamma=1.0, domain=UNIT_PI_INTERVAL)
    additive = SimConfig(params=params, modes=1000, delta=1 / 256, horizon=1.0)
    field = SimConfig(params=params, modes=16, delta=1 / 4096, horizon=1.0, sigma=SIGMA_PRESETS["sin_x"],
                      spatial_grid=32)
    for stream in (iter_additive_states(additive), iter_field_states(field)):
        shapes = [block.shape for block in stream]
        assert len(shapes) > 1 and all(within(*shape) for shape in shapes)
    for d in (1000, 2000):
        shapes = [block.shape for block in _scrambled_sobol(_direction_numbers(d, 1024), 1024, rng_for(d))]
        assert len(shapes) > 1 and all(within(*shape) for shape in shapes)

    form = qform._QuadraticForm(*norm_weights(RegimeParams(r=-0.7, gamma=1.0, domain=UNIT_PI_INTERVAL), 1.0, 1000))
    arguments, rows = [], []
    log_sums = form._log_sums
    monkeypatch.setattr(form, "_log_sums", lambda z: arguments.append(z.size) or log_sums(z))

    class OuterSpy:  # numpy as qform sees it, with np.outer, which only the Fourier rows use, recording its shapes
        def __getattr__(self, name):
            return getattr(np, name)

        def outer(self, a, b):
            rows.append((np.size(a), np.size(b)))
            return np.outer(a, b)

    monkeypatch.setattr(qform, "np", OuterSpy())
    form.norm_density()  # r = -0.7 takes the Fourier route
    assert len(arguments) > 1 and all(within(size, form.a.size) for size in arguments)
    assert len(rows) > 1 and all(within(*shape) for shape in rows)


def test_lms_matrices_are_drawn_in_chunks_within_the_block_budget():
    # the shift bits, then the 30 x 30 bit matrices of at most BLOCK_ELEMENTS bits per draw, in dimension order
    class Spy:
        def __init__(self, g):
            self.g, self.sizes = g, []

        def integers(self, *args, size, **kwargs):
            self.sizes.append(size)
            return self.g.integers(*args, size=size, **kwargs)

    for d in (1000, 2000):
        spy = Spy(rng_for(d))
        next(_scrambled_sobol(_direction_numbers(d, 2), 2, spy))
        shift, *chunks = spy.sizes
        assert shift == (d, 30)
        assert len(chunks) > 1 and all(size[1:] == (30, 30) and math.prod(size) <= BLOCK_ELEMENTS for size in chunks)
        assert sum(size[0] for size in chunks) == d


def test_mu_rF_estimate_peak_memory_does_not_grow_with_the_dimension():
    # the traced allocation peak of a default-size estimate stays under 3 MiB at 1000 and 2000 dimensions, and
    # within 0.5 MB of itself: the LMS matrices are drawn within the block budget, not all at once
    def peak(truncation):
        tracemalloc.start()
        try:
            mu_rF_estimate(norm_power_functional(2.0), 1.0, RegimeParams(r=-1.0, gamma=1.0, domain=UNIT_PI_INTERVAL),
                           truncation=truncation, samples=2**14)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    low, high = peak(1000), peak(2000)
    assert max(low, high) < 3 * 2**20
    assert high - low < 0.5e6


def test_only_version_module_sets_a_block_size():
    # a block size is a module or class constant named *BLOCK* or *CHUNK*, or a number stepping a range; the one
    # exception is _covariance_factor's node chunk, which bounds one Gram-matrix product rather than a stream
    exempt = {("limits.py", "_covariance_factor")}
    offenders = []
    for path in sorted(Path(spde_pv.__file__).parent.glob("*.py")):
        if path.name == "_version.py":
            continue
        tree = ast.parse(path.read_text())
        scopes = [tree, *(node for node in ast.walk(tree) if isinstance(node, ast.ClassDef))]
        for scope in scopes:
            for node in scope.body:
                targets = getattr(node, "targets", [getattr(node, "target", None)])
                names = [t.id for t in targets if isinstance(t, ast.Name)]
                offenders += [f"{path.name}:{node.lineno} {name}" for name in names
                              if re.search(r"BLOCK|CHUNK", name, re.IGNORECASE)]
        for fn in (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)):
            if (path.name, fn.name) in exempt:
                continue
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "range"
                        and len(node.args) == 3 and isinstance(node.args[2], ast.Constant) and node.args[2].value > 2):
                    offenders.append(f"{path.name}:{node.lineno} range step {node.args[2].value}")
    assert offenders == []


def test_integer_config_fields_are_checked_not_truncated():
    # int() would read 16.7 as 16 and true as 1; `_version.json_int` rejects them and names the field
    truncating = re.compile(r"\bint\((obj|cfg)(\[|\.get\()")
    offenders = [
        f"{path.name}:{lineno}"
        for path in sorted(Path(spde_pv.__file__).parent.glob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if truncating.search(line)
    ]
    assert offenders == []


def test_real_config_fields_are_checked_not_converted():
    # float() would read true as 1 and "0.125" as 0.125; `_version.json_float` rejects them and names the field
    converting = re.compile(r"\bfloat\((obj|cfg|case|table|expected)\b")
    offenders = [
        f"{path.name}:{lineno}"
        for path in sorted(Path(spde_pv.__file__).parent.glob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if converting.search(line)
    ]
    assert offenders == []


def test_no_module_imports_scipy():
    # numpy is the only runtime dependency: the integrals, the t quantile and the inverse normal are done in numpy,
    # and the Sobol direction numbers ship with the package.  Function bodies count, and so does any dynamic import
    # or module lookup (find_spec), whose module name this check cannot read
    def scipy(dotted):
        return dotted == "scipy" or dotted.startswith("scipy.")

    lookups = ("import_module", "__import__", "find_spec")
    offenders = []
    for path in sorted(Path(spde_pv.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                hits = [alias.name for alias in node.names if scipy(alias.name)]
            elif isinstance(node, ast.ImportFrom):
                hits = [node.module] if scipy(node.module or "") else []
            elif isinstance(node, ast.Call) and ast.unparse(node.func).endswith(lookups):
                hits = [ast.unparse(node)]
            else:
                hits = []
            offenders += [f"{path.name}:{node.lineno} {hit}" for hit in hits]
    assert offenders == []


LAYERS = ("_version", "spectrum", "combinatorics", "limits", "qform", "rqmc", "variations", "simulator", "harness",
          "cli", "__init__")


def test_modules_import_only_earlier_layers():
    # each module imports package modules only from earlier in LAYERS, function bodies included: so limits imports
    # neither the quadratic-form law (qform) nor the sampler (rqmc), which build on it, and no import cycle can form
    package = Path(spde_pv.__file__).parent
    assert sorted(path.stem for path in package.glob("*.py")) == sorted(LAYERS)
    offenders = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module == "spde_pv"):
                names = [node.module] if node.level and node.module else [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("spde_pv."):
                names = [node.module.split(".")[1]]
            elif isinstance(node, ast.Import):
                names = [alias.name.split(".")[1] for alias in node.names if alias.name.startswith("spde_pv.")]
            else:
                names = []
            offenders += [f"{path.name}:{node.lineno} imports {name}" for name in names
                          if LAYERS.index(name) >= LAYERS.index(path.stem)]
    assert offenders == []
