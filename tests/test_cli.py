import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spde_pv
from spde_pv.cli import build_parser, cli
from spde_pv.limits import RegimeParams, norm_power_functional
from spde_pv.rqmc import mu_rF_estimate
from spde_pv.spectrum import UNIT_PI_INTERVAL

PI = math.pi
HEAVY_SCIPY = ("scipy.stats", "scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.special")


def write_json(path, payload):
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


@pytest.fixture
def sim_block():
    return {
        "domain": {"dim": 1, "sides": [PI]},
        "gamma": 1.0,
        "r": -1.0,
        "modes": 16,
        "delta": 1.0 / 32.0,
        "horizon": 1.0,
        "sigma": {"mode": "constant", "value": 1.0},
        "seed": 4242,
    }


class TestConverge:
    def test_happy_path(self, tmp_path, sim_block, capsys):
        cfg = write_json(
            tmp_path / "exp.json",
            {
                "name": "demo",
                "sim": sim_block,
                "variations": [{"r": -1.0, "p": 2.0}],
                "delta_grid": [1.0 / 16.0, 1.0 / 32.0],
                "replicates": 3,
            },
        )
        assert cli(["converge", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "demo_convergence.csv").exists()
        assert (tmp_path / "out" / "demo_summary.json").exists()
        assert "target=" in capsys.readouterr().out

    def test_missing_config_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert cli(["converge", "--config", str(missing)]) == 2
        assert str(missing) in capsys.readouterr().err

    def test_invalid_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli(["converge", "--config", str(bad)]) == 2

    def test_bad_experiment_block_exits_2(self, tmp_path, sim_block):
        cfg = write_json(
            tmp_path / "exp.json",
            {"name": "demo", "sim": sim_block, "variations": [{"r": -1.0, "p": 2.0}], "delta_grid": [0.3], "replicates": 1},
        )
        assert cli(["converge", "--config", cfg, "--out", str(tmp_path / "out")]) == 2

    def test_non_nested_grid_exits_2(self, tmp_path, sim_block, capsys):
        cfg = write_json(
            tmp_path / "exp.json",
            {
                "name": "demo",
                "sim": {**sim_block, "delta": 1.0 / 3.0},
                "variations": [{"r": -1.0, "p": 2.0}],
                "delta_grid": [1.0 / 2.0, 1.0 / 3.0],
                "replicates": 2,
            },
        )
        assert cli(["converge", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "not nested" in capsys.readouterr().err

    def test_rejected_config_leaves_no_out_dir(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "exp.json",
            {"name": "demo", "sim": {}, "variations": [{"r": -1.0, "p": 2.0}], "delta_grid": [0.5], "replicates": 1},
        )
        assert cli(["converge", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "config error: converge:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_flag_exits_2(self, capsys):
        assert cli(["converge", "--nonsense"]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_threads_below_one_exit_2(self, tmp_path, sim_block, capsys):
        cfg = write_json(
            tmp_path / "exp.json",
            {"name": "demo", "sim": sim_block, "variations": [{"r": -1.0, "p": 2.0}], "delta_grid": [1.0 / 32.0],
             "replicates": 2},
        )
        assert cli(["converge", "--config", cfg, "--out", str(tmp_path / "out"), "--threads", "0"]) == 2
        assert "--threads must be at least 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "out" / "demo_convergence.csv").exists()

    @pytest.mark.parametrize("name", ["../escaped", "a/b", "/abs", "", ".", "..", None, ["a"], 7])
    def test_name_outside_out_exits_2(self, tmp_path, sim_block, capsys, name):
        # the name prefixes <name>_convergence.csv and <name>_summary.json: they must land inside --out, and a
        # name that is not a string is not turned into one (None_convergence.csv)
        cfg = write_json(
            tmp_path / "exp.json",
            {"name": name, "sim": sim_block, "variations": [{"r": -1.0, "p": 2.0}], "delta_grid": [1.0 / 32.0],
             "replicates": 2},
        )
        assert cli(["converge", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert f"experiment name {name!r} must be one file name" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["exp.json"]

    def test_f_preset_keeps_its_name(self, tmp_path, sim_block, capsys):
        exp = {"name": "demo", "sim": sim_block, "variations": [{"r": 0.0, "f": "min_square_one"}],
               "delta_grid": [1.0 / 16.0, 1.0 / 32.0], "replicates": 2}
        cfg = write_json(tmp_path / "exp.json", exp)
        assert cli(["converge", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert "r0_fmin_square_one: mean=" in capsys.readouterr().out
        summary = json.loads((tmp_path / "out" / "demo_summary.json").read_text())
        assert summary["spec"]["variations"] == [{"r": 0.0, "f": "min_square_one", "label": "r0_fmin_square_one"}]
        assert [row["request"] for row in summary["rows"]] == ["r0_fmin_square_one"] * 2
        var_cfg = write_json(tmp_path / "var.json", {"sim": sim_block, "variations": [{"r": -1.0, "f": "square"}]})
        assert cli(["variation", "--config", var_cfg, "--out", str(tmp_path / "v")]) == 0
        assert (tmp_path / "v" / "variation_r-1_fsquare.csv").exists()

    def test_normalizer_override_exits_2(self, tmp_path, sim_block, capsys):
        # a fixed normalizer would be applied at every mesh, while each target assumes tau_n at its own
        request = {"r": -1.0, "p": 2.0, "normalizer": 2.0**-5}
        exp = {"name": "demo", "sim": sim_block, "variations": [request],
               "delta_grid": [1.0 / 16.0, 1.0 / 32.0], "replicates": 2}
        cfg = write_json(tmp_path / "exp.json", exp)
        assert cli(["converge", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "fixes 'normalizer'" in capsys.readouterr().err
        assert not (tmp_path / "out" / "demo_convergence.csv").exists()
        # variation has no target and keeps honouring the override
        var_cfg = write_json(tmp_path / "var.json", {"sim": sim_block, "variations": [request]})
        assert cli(["variation", "--config", var_cfg, "--out", str(tmp_path / "v")]) == 0
        assert (tmp_path / "v" / "variation_r-1_p2.csv").exists()

    def test_empty_variations_exit_2(self, tmp_path, sim_block, capsys):
        cfg = write_json(
            tmp_path / "exp.json",
            {"name": "demo", "sim": sim_block, "variations": [], "delta_grid": [1.0 / 32.0], "replicates": 2},
        )
        assert cli(["converge", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "'variations' is empty" in capsys.readouterr().err
        assert not (tmp_path / "out" / "demo_convergence.csv").exists()


class TestOtherCommands:
    def test_constants(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "c.json",
            {"domain": {"dim": 1, "sides": [PI]}, "gamma": 1.0, "r": -1.0, "orders": [1, 2]},
        )
        assert cli(["constants", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["k_r"] == pytest.approx(PI**2 / 6.0, abs=1e-9)
        assert (tmp_path / "out" / "constants.json").exists()

    def test_constants_out_of_range_exits_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", {"domain": {"dim": 1, "sides": [PI]}, "gamma": 1.0, "r": 0.9})
        assert cli(["constants", "--config", cfg]) == 2
        assert "config error" in capsys.readouterr().err

    def test_simulate_and_variation(self, tmp_path, sim_block):
        sim_cfg = write_json(tmp_path / "sim.json", sim_block)
        assert cli(["simulate", "--config", sim_cfg, "--out", str(tmp_path / "s")]) == 0
        assert (tmp_path / "s" / "path.npy").exists()
        assert (tmp_path / "s" / "path.json").exists()
        assert (tmp_path / "s" / "path_norms.csv").exists()

        var_cfg = write_json(
            tmp_path / "var.json",
            {"sim": sim_block, "variations": [{"r": -1.0, "p": 2.0, "label": "qv"}, {"r": -1.0, "f": "square"}]},
        )
        assert cli(["variation", "--config", var_cfg, "--out", str(tmp_path / "v")]) == 0
        assert (tmp_path / "v" / "variation_qv.csv").exists()

    def test_simulate_three_dimensional_box_without_r(self, tmp_path):
        sim = {"domain": {"dim": 3, "sides": [PI, PI, PI]}, "gamma": 0.5, "modes": 8, "delta": 0.1, "horizon": 1.0}
        assert cli(["simulate", "--config", write_json(tmp_path / "sim.json", sim), "--out", str(tmp_path / "s")]) == 0
        assert json.loads((tmp_path / "s" / "path.json").read_text())["config"]["r"] == -2.0

    def test_variation_with_empty_variations_exits_2(self, tmp_path, sim_block, capsys):
        cfg = write_json(tmp_path / "var.json", {"sim": sim_block, "variations": []})
        assert cli(["variation", "--config", cfg, "--out", str(tmp_path / "v")]) == 2
        assert "'variations' is empty" in capsys.readouterr().err
        assert not (tmp_path / "v").exists()

    def test_seed_override_changes_path(self, tmp_path, sim_block):
        sim_cfg = write_json(tmp_path / "sim.json", sim_block)
        assert cli(["simulate", "--config", sim_cfg, "--out", str(tmp_path / "a"), "--seed", "1"]) == 0
        assert cli(["simulate", "--config", sim_cfg, "--out", str(tmp_path / "b"), "--seed", "2"]) == 0
        a = (tmp_path / "a" / "path.npy").read_bytes()
        b = (tmp_path / "b" / "path.npy").read_bytes()
        assert a != b

    def test_seed_flag_matches_the_config_seed(self, tmp_path, sim_block):
        # `--seed 7` on a config seeded 4242 writes what a config seeded 7 writes, and records 7
        request = [{"r": -1.0, "p": 2.0}]
        configs = {
            "simulate": lambda sim: sim,
            "variation": lambda sim: {"sim": sim, "variations": request},
            "converge": lambda sim: {"name": "demo", "sim": sim, "variations": request,
                                     "delta_grid": [1.0 / 16.0, 1.0 / 32.0], "replicates": 2},
        }
        outputs = {"simulate": "path.npy", "variation": "variation_r-1_p2.csv", "converge": "demo_convergence.csv"}
        for command, make in configs.items():
            flagged, configured = tmp_path / command / "flag", tmp_path / command / "config"
            cfg = write_json(tmp_path / f"{command}_4242.json", make(sim_block))
            assert cli([command, "--config", cfg, "--out", str(flagged), "--seed", "7"]) == 0
            cfg = write_json(tmp_path / f"{command}_7.json", make({**sim_block, "seed": 7}))
            assert cli([command, "--config", cfg, "--out", str(configured)]) == 0
            assert (flagged / outputs[command]).read_bytes() == (configured / outputs[command]).read_bytes(), command
        assert json.loads((tmp_path / "simulate" / "flag" / "path.json").read_text())["config"]["seed"] == 7
        summary = json.loads((tmp_path / "converge" / "flag" / "demo_summary.json").read_text())
        assert summary["spec"]["sim"]["seed"] == 7

    def test_holder(self, tmp_path, sim_block, capsys):
        cfg = write_json(
            tmp_path / "h.json",
            {
                "sim": {**sim_block, "modes": 64, "horizon": 2.0},
                "r": -1.0,
                "delta_grid": [1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0],
                "replicates": 200,
            },
        )
        assert cli(["holder", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        payload = json.loads((tmp_path / "out" / "holder.json").read_text())
        assert abs(payload["estimate"]["slope"] - 0.5) < 0.1
        assert 0.0 < payload["estimate"]["mc_stderr"] < 0.05
        assert f"Monte Carlo stderr {payload['estimate']['mc_stderr']:.4f}" in capsys.readouterr().out

    def test_holder_seed_override(self, tmp_path, sim_block):
        config = {
            "sim": {**sim_block, "modes": 64, "horizon": 2.0},
            "r": -1.0,
            "delta_grid": [1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0],
            "replicates": 200,
        }
        cfg = write_json(tmp_path / "h.json", config)

        def run(seed, name):
            assert cli(["holder", "--config", cfg, "--out", str(tmp_path / name), "--seed", str(seed)]) == 0
            return (tmp_path / name / "holder.json").read_text()

        one, two, again = run(1, "a"), run(2, "b"), run(1, "c")
        assert json.loads(one)["estimate"]["slope"] != json.loads(two)["estimate"]["slope"]
        stamp = re.compile(r'^ *"created_utc": .*\n', re.MULTILINE)
        assert stamp.search(one) and stamp.sub("", one) == stamp.sub("", again)
        effective = {**config, "sim": {**config["sim"], "seed": 1}}
        digest = hashlib.sha256(json.dumps(effective, sort_keys=True).encode()).hexdigest()
        assert json.loads(one)["meta"]["spec_sha256"] == digest

    def test_shipped_holder_super_takes_two_levels(self, tmp_path):
        # K = 2048, M = 400: the base level runs at K0 = 256 with at least the M samples, the coupled level at K
        # with at least its max(2, M K0 / (8 K)) = 7 pilot rows, and the slope lands within 0.03 of alpha(0) = 1/4
        config = str(Path(__file__).parents[1] / "configs" / "holder_super.json")
        assert cli(["holder", "--config", config, "--out", str(tmp_path)]) == 0
        estimate = json.loads((tmp_path / "holder.json").read_text())["estimate"]
        assert [level["modes"] for level in estimate["levels"]] == [256, 2048]
        (k0, m0), (k, m1) = ((level["modes"], level["replicates"]) for level in estimate["levels"])
        assert m0 >= 400 and 7 <= m1 < m0
        assert [level["normals"] for level in estimate["levels"]] == [k0 * m0, k * m1]
        assert all(level["variance"] > 0.0 for level in estimate["levels"])
        assert len(estimate["mean_norm_stderr"]) == 7 and all(se > 0.0 for se in estimate["mean_norm_stderr"])
        assert abs(estimate["slope"] - 0.25) <= 0.03

    def test_holder_seed_override_needs_a_sim_object(self, tmp_path, capsys):
        config = {"sim": 5, "r": -1.0, "delta_grid": [1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0], "replicates": 10}
        cfg = write_json(tmp_path / "h.json", config)
        assert cli(["holder", "--config", cfg, "--out", str(tmp_path / "out"), "--seed", "1"]) == 2
        assert "sim must be a JSON object, got int" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_version(self, capsys):
        assert cli(["--version"]) == 0
        assert "spde-pv" in capsys.readouterr().out

    def test_start_does_not_import_scipy_stats(self):
        # scipy.stats adds about half a second to every start, scipy.integrate with the optimize and sparse
        # packages it brings about 0.2 s, and scipy.special 0.2 s and 24 MB; the program ships its own Sobol
        # table, and integrates and inverts the normal law in numpy
        src = str(Path(spde_pv.__file__).parents[1])
        code = "import sys, spde_pv.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": src}, check=True)
        assert done.stdout.strip() == "[]"

    def test_holder_and_constant_sigma_converge_do_not_import_scipy_integrate(self, tmp_path, sim_block):
        # the converge targets include the time integral of the limit process (r = 0) and a fractional power mean;
        # numpy.ma (12 ms, loaded by np.unique) stays out too
        sim = sim_block
        holder = {"sim": {**sim, "horizon": 2.0}, "r": -1.0, "delta_grid": [1 / 8, 1 / 16, 1 / 32, 1 / 64],
                  "replicates": 20}
        exp = {"name": "tiny", "sim": sim, "variations": [{"r": 0.0, "p": 4.0}, {"r": -1.0, "p": 3.0}],
               "delta_grid": [1 / 16, 1 / 32], "replicates": 2}
        write_json(tmp_path / "holder.json", holder)
        write_json(tmp_path / "exp.json", exp)
        src = str(Path(spde_pv.__file__).parents[1])
        demo = str(Path(__file__).parents[1] / "configs" / "simulate_demo.json")
        for argv in (["holder", "--config", str(tmp_path / "holder.json"), "--out", str(tmp_path / "h")],
                     ["converge", "--config", str(tmp_path / "exp.json"), "--out", str(tmp_path / "c")],
                     ["simulate", "--config", demo, "--out", str(tmp_path / "s")]):
            code = (f"import sys, spde_pv.cli; code = spde_pv.cli.cli({argv!r}); "
                    f"print(code, [m for m in sys.modules if m in {(*HEAVY_SCIPY, 'numpy.ma')!r}])")
            done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                                  env={**os.environ, "PYTHONPATH": src}, check=True)
            assert done.stdout.strip().splitlines()[-1] == "0 []", argv[0]

    def test_F_target_does_not_import_scipy_stats(self):
        # the sampler reads the Sobol direction numbers from the table shipped with the package, and maps the
        # points to normals in numpy, not with scipy.special.ndtri: no scipy module at all
        src = str(Path(spde_pv.__file__).parents[1])
        code = (
            "import sys, numpy as np\n"
            "from spde_pv.limits import RegimeParams, norm_power_functional\n"
            "from spde_pv.rqmc import mu_rF_estimate\n"
            "from spde_pv.spectrum import UNIT_PI_INTERVAL\n"
            "params = RegimeParams(r=-1.0, gamma=1.0, domain=UNIT_PI_INTERVAL)\n"
            "est = mu_rF_estimate(norm_power_functional(2.0), 1.0, params, truncation=5, samples=256)\n"
            "print(np.isfinite(est.mean), [m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": src}, check=True)
        assert done.stdout.strip() == "True []"

    def test_every_command_and_the_F_sampler_run_without_scipy(self, tmp_path, sim_block):
        # sys.modules["scipy"] = None makes every import of scipy fail, as if it were not installed: the package
        # imports, each command exits 0, and the sampler's estimate is the one computed here with scipy present
        holder = {"sim": {**sim_block, "horizon": 2.0}, "r": -1.0, "delta_grid": [1 / 8, 1 / 16, 1 / 32, 1 / 64],
                  "replicates": 20}
        exp = {"name": "tiny", "sim": sim_block, "variations": [{"r": -1.0, "p": 2.0}, {"r": -1.0, "f": "square"},
               {"r": 0.0, "p": 4.0}], "delta_grid": [1 / 16, 1 / 32], "replicates": 2}
        constants = {"domain": sim_block["domain"], "gamma": 1.0, "r": -1.0, "orders": [1, 2]}
        configs = Path(__file__).parents[1] / "configs"
        runs = [["validate", "--table", str(configs / "reference_table.json")],
                ["constants", "--config", write_json(tmp_path / "k.json", constants), "--out", str(tmp_path / "k")],
                ["simulate", "--config", str(configs / "simulate_demo.json"), "--out", str(tmp_path / "s")],
                ["converge", "--config", write_json(tmp_path / "exp.json", exp), "--out", str(tmp_path / "c")],
                ["holder", "--config", write_json(tmp_path / "h.json", holder), "--out", str(tmp_path / "h")]]
        code = (
            "import contextlib, io, json, sys\n"
            "sys.modules['scipy'] = None\n"
            "import spde_pv.cli\n"
            "from spde_pv.limits import RegimeParams, norm_power_functional\n"
            "from spde_pv.rqmc import mu_rF_estimate\n"
            "from spde_pv.spectrum import UNIT_PI_INTERVAL\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [spde_pv.cli.cli(argv) for argv in {runs!r}]\n"
            "params = RegimeParams(r=-1.0, gamma=1.0, domain=UNIT_PI_INTERVAL)\n"
            "est = mu_rF_estimate(norm_power_functional(2.0), 1.0, params, truncation=1000, samples=2**14, seed=7)\n"
            "print(json.dumps([codes, est.mean.hex(), est.stderr.hex()]))"
        )
        src = str(Path(spde_pv.__file__).parents[1])
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr
        params = RegimeParams(r=-1.0, gamma=1.0, domain=UNIT_PI_INTERVAL)
        est = mu_rF_estimate(norm_power_functional(2.0), 1.0, params, truncation=1000, samples=2**14, seed=7)
        assert json.loads(done.stdout) == [[0] * len(runs), est.mean.hex(), est.stderr.hex()]


# the flags each command's handler reads, and no others
COMMAND_FLAGS = {
    "constants": {"--config", "--out"},
    "simulate": {"--config", "--seed", "--out"},
    "variation": {"--config", "--seed", "--out"},
    "converge": {"--config", "--seed", "--out", "--threads"},
    "holder": {"--config", "--seed", "--out"},
    "validate": {"--table"},
}


class TestRejectedInputs:
    @pytest.mark.parametrize(
        "argv",
        [
            *([command, "--threads", "4"] for command in ("constants", "simulate", "variation", "holder", "validate")),
            ["validate", "--out", "results"],
            ["validate", "--seed", "1"],
            ["validate", "--config", "configs/reference_table.json"],
            ["constants", "--seed", "1"],
        ],
        ids=lambda argv: argv[0] + argv[1],
    )
    def test_unread_flag_exits_2(self, argv, capsys):
        assert argv[1] not in COMMAND_FLAGS[argv[0]]
        assert cli(argv) == 2
        assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err

    def test_each_command_has_exactly_its_flags(self):
        subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        flags = {
            name: {flag for action in p._actions for flag in action.option_strings} - {"-h", "--help"}
            for name, p in subparsers.choices.items()
        }
        assert flags == COMMAND_FLAGS
        assert sum(len(f) for f in flags.values()) == 16

    @pytest.mark.parametrize(
        "command,edit,message",
        [
            ("simulate", lambda c: {**c, "sigma": {"mode": "fieldd", "preset": "linear_state"}}, "unknown sigma mode"),
            ("simulate", lambda c: {**c, "sigma": {"mode": "constant", "valeu": 2.0}}, "unknown constant sigma key"),
            ("simulate", lambda c: {**c, "sedd": 1}, "unknown sim key"),
            ("simulate", lambda c: {**c, "domain": {"dim": 1, "sides": [PI], "side": PI}}, "unknown domain key"),
            ("converge", lambda c: {**c, "replicatess": 3}, "unknown experiment key"),
            ("converge", lambda c: {**c, "sim": {**c["sim"], "sedd": 1}}, "unknown sim key"),
            ("converge", lambda c: {**c, "variations": [{"r": -1.0, "p": 2.0, "lable": "q"}]}, "unknown variation key"),
            ("variation", lambda c: {**c, "delta_grid": [0.5]}, "unknown variation config key"),
            ("holder", lambda c: {**c, "replicatess": 3}, "unknown holder key"),
            ("constants", lambda c: {**c, "order": [1]}, "unknown constants key"),
            # a block that is not a JSON object
            ("simulate", lambda c: {**c, "sigma": 5}, "sigma must be a JSON object, got int"),
            ("simulate", lambda c: [c], "sim must be a JSON object, got list"),
            ("simulate", lambda c: {**c, "domain": [PI]}, "domain must be a JSON object, got list"),
            ("converge", lambda c: {**c, "sim": {**c["sim"], "sigma": [1.0]}}, "sigma must be a JSON object, got list"),
            ("converge", lambda c: {**c, "variations": ["p"]}, "variation must be a JSON object, got str"),
            ("converge", lambda c: "demo", "experiment must be a JSON object, got str"),
            ("variation", lambda c: {**c, "sim": {**c["sim"], "sigma": "constant"}}, "sigma must be a JSON object, got str"),
            ("holder", lambda c: {**c, "sim": {**c["sim"], "sigma": 5}}, "sigma must be a JSON object, got int"),
            ("holder", lambda c: [c], "holder must be a JSON object, got list"),
            ("constants", lambda c: [c], "constants must be a JSON object, got list"),
        ],
    )
    def test_unknown_keys_and_modes_exit_2(self, tmp_path, sim_block, capsys, command, edit, message):
        configs = {
            "simulate": sim_block,
            "converge": {"name": "demo", "sim": sim_block, "variations": [{"r": -1.0, "p": 2.0}],
                         "delta_grid": [1.0 / 16.0, 1.0 / 32.0], "replicates": 2},
            "variation": {"sim": sim_block, "variations": [{"r": -1.0, "p": 2.0}]},
            "holder": {"sim": sim_block, "r": -1.0, "delta_grid": [1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0],
                       "replicates": 10},
            "constants": {"domain": {"dim": 1, "sides": [PI]}, "gamma": 1.0, "r": -1.0, "orders": [1]},
        }
        cfg = write_json(tmp_path / "cfg.json", edit(configs[command]))
        assert cli([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,config",
        [
            # the factorial coefficients of the order-172 Bell polynomial
            ("constants", lambda sim: {"domain": sim["domain"], "gamma": 1.0, "r": -1.0, "orders": [172]}),
            # the cumulants of the quadratic form in the target
            ("converge", lambda sim: {"name": "demo", "sim": sim, "variations": [{"r": -1.0, "p": 344.0}],
                                      "delta_grid": [1.0 / 16.0, 1.0 / 32.0], "replicates": 2}),
            # the power-sum moments of the Monte Carlo moment table
            ("converge", lambda sim: {"name": "demo", "sim": {**sim, "modes": 512},
                                      "variations": [{"r": 0.0, "p": 400.0}], "delta_grid": [1.0 / 16.0, 1.0 / 32.0],
                                      "replicates": 3}),
            # sigma^2 in the target, and in the increment weights
            ("converge", lambda sim: {"name": "demo", "sim": {**sim, "sigma": {"mode": "constant", "value": 1e200}},
                                      "variations": [{"r": -1.0, "p": 2.0}], "delta_grid": [1.0 / 16.0, 1.0 / 32.0],
                                      "replicates": 2}),
            ("holder", lambda sim: {"sim": {**sim, "sigma": {"mode": "constant", "value": 1e200}}, "r": -1.0,
                                    "delta_grid": [1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0], "replicates": 10}),
            # the eigenvalues underflow to 0, whose negative power is the zeta tail
            ("constants", lambda sim: {"domain": {"dim": 1, "sides": [1e200]}, "gamma": 1.0, "r": -1.0, "orders": [1]}),
            # every increment norm is 0, and log 0 has no slope
            ("holder", lambda sim: {"sim": {**sim, "sigma": {"mode": "constant", "value": 0.0}}, "r": -1.0,
                                    "delta_grid": [1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0], "replicates": 10}),
        ],
        ids=["bell-order-172", "converge-p344", "converge-p400", "converge-sigma-1e200", "holder-sigma-1e200",
             "side-1e200", "holder-sigma-0"],
    )
    def test_input_past_float64_range_exits_2_without_traceback(self, tmp_path, sim_block, command, config):
        # a subprocess, because some of these runs warn on the way to the refusal, and in-process the warnings
        # would be errors under the suite's filterwarnings
        cfg = write_json(tmp_path / "cfg.json", config(sim_block))
        src = str(Path(spde_pv.__file__).parents[1])
        done = subprocess.run([sys.executable, "-m", "spde_pv.cli", command, "--config", cfg, "--out",
                               str(tmp_path / "out")], capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 2, done.stderr
        assert done.stderr.splitlines()[-1].startswith(f"config error: {command}:"), done.stderr
        assert "Traceback" not in done.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command,edit,message",
        [
            ("converge", lambda c: {**c, "variations": {"r": -1.0, "p": 2.0}}, "`variations` must be a JSON list, got dict"),
            ("variation", lambda c: {**c, "variations": {"r": -1.0, "p": 2.0}}, "`variations` must be a JSON list, got dict"),
            ("converge", lambda c: {**c, "delta_grid": 0.03125}, "`delta_grid` must be a JSON list, got float"),
            ("holder", lambda c: {**c, "delta_grid": 0.03125}, "`delta_grid` must be a JSON list, got float"),
            ("constants", lambda c: {**c, "domain": {"dim": 1, "sides": 3.14}}, "`sides` must be a JSON list, got float"),
            ("simulate", lambda c: {**c, "domain": {"dim": 1, "sides": "pi"}}, "`sides` must be a JSON list, got str"),
            ("constants", lambda c: {**c, "orders": 2}, "`orders` must be a JSON list, got int"),
            ("validate", lambda c: {"cases": {"r": -1.0}}, "`cases` must be a JSON list, got dict"),
        ],
    )
    def test_list_field_that_is_not_a_list_exits_2_naming_it(self, tmp_path, sim_block, capsys, command, edit, message):
        configs = {
            "simulate": sim_block,
            "converge": {"name": "demo", "sim": sim_block, "variations": [{"r": -1.0, "p": 2.0}],
                         "delta_grid": [1.0 / 16.0, 1.0 / 32.0], "replicates": 2},
            "variation": {"sim": sim_block, "variations": [{"r": -1.0, "p": 2.0}]},
            "holder": {"sim": sim_block, "r": -1.0, "delta_grid": [1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0],
                       "replicates": 10},
            "constants": {"domain": {"dim": 1, "sides": [PI]}, "gamma": 1.0, "r": -1.0, "orders": [1]},
            "validate": {},
        }
        cfg = write_json(tmp_path / "cfg.json", edit(configs[command]))
        flag = "--table" if command == "validate" else "--config"
        extra = [] if command == "validate" else ["--out", str(tmp_path / "out")]
        assert cli([command, flag, cfg, *extra]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,edit,field",
        [
            ("holder", lambda c: {**c, "sim": {**c["sim"], "modes": 16.7, "seed": 3.9}, "replicates": 5.9}, "modes"),
            ("holder", lambda c: {**c, "sim": {**c["sim"], "modes": True}, "replicates": "20"}, "modes"),
            ("holder", lambda c: {**c, "replicates": 5.9}, "replicates"),
            ("holder", lambda c: {**c, "sim": {**c["sim"], "seed": 3.9}}, "seed"),
            ("converge", lambda c: {**c, "replicates": True}, "replicates"),
            ("converge", lambda c: {**c, "replicates": "20"}, "replicates"),
            ("simulate", lambda c: {**c, "sigma": {"mode": "field", "preset": "sin_x"}, "spatial_grid": 32.5},
             "spatial_grid"),
            ("simulate", lambda c: {**c, "seed": "7"}, "seed"),
        ],
    )
    def test_integer_field_that_is_not_an_integer_exits_2_naming_it(self, tmp_path, sim_block, capsys, command, edit, field):
        configs = {
            "simulate": sim_block,
            "converge": {"name": "demo", "sim": sim_block, "variations": [{"r": -1.0, "p": 2.0}],
                         "delta_grid": [1.0 / 16.0, 1.0 / 32.0], "replicates": 2},
            "holder": {"sim": sim_block, "r": -1.0, "delta_grid": [1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0],
                       "replicates": 10},
        }
        cfg = write_json(tmp_path / "cfg.json", edit(configs[command]))
        assert cli([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert f"`{field}` must be an integer" in capsys.readouterr().err

    def test_integral_float_in_an_integer_field_is_read_as_the_integer(self, tmp_path, sim_block):
        as_float = write_json(tmp_path / "float.json", {**sim_block, "modes": 16.0, "seed": 4242.0})
        assert cli(["simulate", "--config", as_float, "--out", str(tmp_path / "f")]) == 0
        assert cli(["simulate", "--config", write_json(tmp_path / "int.json", sim_block), "--out", str(tmp_path / "i")]) == 0
        assert (tmp_path / "f" / "path.npy").read_bytes() == (tmp_path / "i" / "path.npy").read_bytes()

    @pytest.mark.parametrize(
        "command,edit,field",
        [
            ("simulate", lambda c: {**c, "gamma": True}, "gamma"),
            ("simulate", lambda c: {**c, "r": "-1"}, "r"),
            ("simulate", lambda c: {**c, "delta": "0.125"}, "delta"),
            ("simulate", lambda c: {**c, "horizon": "1"}, "horizon"),
            ("simulate", lambda c: {**c, "domain": {"dim": 1, "sides": ["3.14"]}}, "sides"),
            ("simulate", lambda c: {**c, "sigma": {"mode": "constant", "value": True}}, "value"),
            ("converge", lambda c: {**c, "variations": [{"r": "-1", "p": 2.0}]}, "r"),
            ("converge", lambda c: {**c, "variations": [{"r": -1.0, "p": True}]}, "p"),
            ("converge", lambda c: {**c, "delta_grid": ["0.0625", 0.03125]}, "delta_grid"),
            ("variation", lambda c: {**c, "variations": [{"r": -1.0, "p": 2.0, "normalizer": "0.1"}]}, "normalizer"),
            ("holder", lambda c: {**c, "r": "-1"}, "r"),
            ("holder", lambda c: {**c, "delta_grid": [0.125, 0.0625, 0.03125, True]}, "delta_grid"),
            ("constants", lambda c: {**c, "gamma": "1"}, "gamma"),
            ("validate", lambda c: {**c, "rtol": "1e-6"}, "rtol"),
            ("validate", lambda c: {"cases": [{**c["cases"][0], "k_r": "1.6449"}]}, "k_r"),
            ("validate", lambda c: {"cases": [{**c["cases"][0], "constants": {"1": True}}]}, "constants"),
            ("validate", lambda c: {"cases": [{**c["cases"][0], "holder_alpha": "0.5"}]}, "holder_alpha"),
        ],
    )
    def test_real_field_that_is_not_a_number_exits_2_naming_it(self, tmp_path, sim_block, capsys, command, edit, field):
        # float() would read true as 1 and "0.125" as 0.125 and run on them
        configs = {
            "simulate": sim_block,
            "converge": {"name": "demo", "sim": sim_block, "variations": [{"r": -1.0, "p": 2.0}],
                         "delta_grid": [1.0 / 16.0, 1.0 / 32.0], "replicates": 2},
            "variation": {"sim": sim_block, "variations": [{"r": -1.0, "p": 2.0}]},
            "holder": {"sim": sim_block, "r": -1.0, "delta_grid": [1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0],
                       "replicates": 10},
            "constants": {"domain": {"dim": 1, "sides": [PI]}, "gamma": 1.0, "r": -1.0, "orders": [1]},
            "validate": {"cases": [{"domain": {"dim": 1, "sides": [PI]}, "gamma": 1.0, "r": -1.0, "k_r": PI**2 / 6.0}]},
        }
        cfg = write_json(tmp_path / "cfg.json", edit(configs[command]))
        flag = "--table" if command == "validate" else "--config"
        extra = [] if command == "validate" else ["--out", str(tmp_path / "out")]
        assert cli([command, flag, cfg, *extra]) == 2
        assert f"`{field}` must be a number" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", [None, ["a"], 7])
    def test_holder_name_that_is_not_a_string_exits_2(self, tmp_path, sim_block, capsys, name):
        # as in converge, a name that is not a string is not turned into one
        config = {"name": name, "sim": sim_block, "r": -1.0,
                  "delta_grid": [1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0], "replicates": 10}
        cfg = write_json(tmp_path / "cfg.json", config)
        assert cli(["holder", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert f"experiment name {name!r} must be one file name: a string" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command,sim,message",
        [
            # the field limits integrate sigma^2 on an interval and the grid-noise scheme has one axis
            ("converge", {"domain": {"dim": 2, "sides": [PI, PI]}, "gamma": 2.0, "r": -1.5,
                          "sigma": {"mode": "field", "preset": "sin_x"}, "spatial_grid": 32},
             "non-constant sigma needs d = 1"),
            ("simulate", {"gamma": 0.4, "sigma": {"mode": "state", "preset": "cos_state"}, "spatial_grid": 32},
             "state sigma needs gamma > d/2"),
        ],
    )
    def test_sigma_rules_are_checked_when_the_config_is_read(self, tmp_path, sim_block, capsys, command, sim, message):
        sim = {**sim_block, **sim}
        configs = {
            "converge": {"name": "demo", "sim": sim, "variations": [{"r": sim["r"], "p": 2.0}],
                         "delta_grid": [1.0 / 16.0, 1.0 / 32.0], "replicates": 2},
            "simulate": sim,
        }
        cfg = write_json(tmp_path / "cfg.json", configs[command])
        assert cli([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_holder_sim_r_must_match_r(self, tmp_path, sim_block, capsys):
        config = {"sim": {**sim_block, "modes": 64, "horizon": 2.0}, "r": 0.0,
                  "delta_grid": [1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0], "replicates": 20}
        cfg = write_json(tmp_path / "h.json", config)
        assert cli(["holder", "--config", cfg, "--out", str(tmp_path / "a")]) == 2
        assert "sim r = -1 differs from r = 0" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()
        # an absent sim.r defaults to -1 and is not a disagreement
        config["sim"].pop("r")
        cfg = write_json(tmp_path / "h.json", config)
        assert cli(["holder", "--config", cfg, "--out", str(tmp_path / "b")]) == 0

    @pytest.mark.parametrize("command", ["simulate", "variation", "converge", "holder"])
    def test_non_finite_constant_sigma_exits_2(self, tmp_path, sim_block, capsys, command):
        # json reads NaN; a NaN amplitude must not reach the simulation
        sim = {**sim_block, "sigma": {"mode": "constant", "value": math.nan}}
        configs = {
            "simulate": sim,
            "variation": {"sim": sim, "variations": [{"r": -1.0, "p": 2.0}]},
            "converge": {"name": "demo", "sim": sim, "variations": [{"r": -1.0, "p": 2.0}],
                         "delta_grid": [1.0 / 16.0, 1.0 / 32.0], "replicates": 2},
            "holder": {"sim": sim, "r": -1.0, "delta_grid": [1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0],
                       "replicates": 10},
        }
        cfg = write_json(tmp_path / "cfg.json", configs[command])
        assert cli([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "constant sigma value must be finite, got nan" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,horizon,grid", [
        *(pytest.param(command, math.inf, None, id=f"{command}-horizon-inf") for command in ("simulate", "converge",
                                                                                             "holder")),
        *(pytest.param(command, 1.0, [delta], id=f"{command}-delta-{delta}") for command in ("converge", "holder")
          for delta in (0.0, math.inf, -0.25, math.nan)),
    ])
    def test_degenerate_mesh_exits_2_naming_the_field(self, tmp_path, sim_block, capsys, command, horizon, grid):
        # json reads Infinity and NaN: an infinite horizon overflowed the step count, a zero or infinite mesh divided
        # by zero, and a negative or NaN mesh was reported as something else
        sim = {**sim_block, "horizon": horizon}
        configs = {
            "simulate": sim,
            "converge": {"name": "demo", "sim": sim, "variations": [{"r": -1.0, "p": 2.0}],
                         "delta_grid": grid or [1.0 / 16.0, 1.0 / 32.0], "replicates": 2},
            "holder": {"sim": sim, "r": -1.0, "delta_grid": grid or [1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0],
                       "replicates": 10},
        }
        cfg = write_json(tmp_path / "cfg.json", configs[command])
        assert cli([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert ("horizon" if grid is None else "delta_grid") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_simulate_norms_use_the_sim_r(self, tmp_path, sim_block):
        # the sidecar's r is the r of the norms CSV: at r = 0 the H_r norm is the Euclidean norm
        cfg = write_json(tmp_path / "sim.json", {**sim_block, "r": 0.0})
        assert cli(["simulate", "--config", cfg, "--out", str(tmp_path / "s")]) == 0
        assert json.loads((tmp_path / "s" / "path.json").read_text())["config"]["r"] == 0.0
        coeffs = np.load(tmp_path / "s" / "path.npy")
        norms = np.loadtxt(tmp_path / "s" / "path_norms.csv", delimiter=",", skiprows=1)[:, 1]
        assert np.allclose(norms, np.linalg.norm(coeffs, axis=1), rtol=1e-14, atol=0.0)

    def test_simulate_rejects_norm_r(self, tmp_path, sim_block, capsys):
        cfg = write_json(tmp_path / "sim.json", {**sim_block, "norm_r": 0.0})
        assert cli(["simulate", "--config", cfg, "--out", str(tmp_path / "s")]) == 2
        assert "unknown sim key(s) ['norm_r']" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("r", [math.nan, 5.0])  # -inf: test_non_finite_regime_parameters_exit_2
    def test_simulate_r_outside_the_solution_space_exits_2(self, tmp_path, sim_block, capsys, r):
        # gamma = 1 on an interval: the solution lives in H_r only for r < 1/2
        cfg = write_json(tmp_path / "sim.json", {**sim_block, "r": r})
        assert cli(["simulate", "--config", cfg, "--out", str(tmp_path / "s")]) == 2
        assert f"r = {r} is out of range" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize(
        "command,edit,field",
        [("simulate", {"r": -math.inf}, "r"), ("constants", {"r": -math.inf}, "r"),
         ("constants", {"gamma": math.inf}, "gamma")],
    )
    def test_non_finite_regime_parameters_exit_2(self, tmp_path, sim_block, capsys, monkeypatch, command, edit, field):
        from spde_pv import harness, simulator

        def computed(*args, **kwargs):
            raise AssertionError("a rejected config reached the computation")

        monkeypatch.setattr(simulator, "simulate", computed)
        monkeypatch.setattr(harness, "report_constants", computed)
        base = {"simulate": sim_block, "constants": {"domain": {"dim": 1, "sides": [PI]}, "gamma": 1.0, "r": -1.0}}
        cfg = write_json(tmp_path / "cfg.json", {**base[command], **edit})
        assert cli([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert f"{field} must be finite" in captured.err and captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("order", [2.5, math.inf])
    def test_constants_non_integer_order_exits_2(self, tmp_path, capsys, order):
        cfg = write_json(
            tmp_path / "c.json", {"domain": {"dim": 1, "sides": [PI]}, "gamma": 1.0, "r": -1.0, "orders": [1, order]}
        )
        assert cli(["constants", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert "p must be a positive integer" in captured.err and captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "request_,message",
        [
            ({"r": -1.0, "p": 2.0, "f": "square"}, "sets both 'p' and 'f'"),
            ({"r": -1.0, "p": math.nan}, "p must be positive and finite, got nan"),
            ({"r": -1.0, "p": math.inf}, "p must be positive and finite, got inf"),
            ({"r": -1.0, "p": 2.0, "normalizer": math.nan}, "normalizer must be positive and finite, got nan"),
            ({"r": math.nan, "p": 2.0, "normalizer": 0.1}, "smoothness r must be finite, got nan"),
            # the label names the request's rows and its file variation_<label>.csv inside --out
            ({"r": -1.0, "p": 2.0, "label": "x/../../escaped"}, "variation label 'x/../../escaped' must be one file name"),
            ({"r": -1.0, "p": 2.0, "label": 7}, "variation label 7 must be one file name: a string"),
            ([{"r": -1.0, "p": 2.0, "label": "q"}, {"r": -1.0, "p": 4.0, "label": "q"}], "variation label 'q' is given twice"),
        ],
    )
    @pytest.mark.parametrize("command", ["variation", "converge"])
    def test_unhonourable_variation_requests_exit_2(self, tmp_path, sim_block, capsys, command, request_, message):
        requests = request_ if isinstance(request_, list) else [request_]
        configs = {
            "variation": {"sim": sim_block, "variations": requests},
            "converge": {"name": "demo", "sim": sim_block, "variations": requests,
                         "delta_grid": [1.0 / 16.0, 1.0 / 32.0], "replicates": 2},
        }
        cfg = write_json(tmp_path / "cfg.json", configs[command])
        assert cli([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
        assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"]


class TestValidate:
    def test_validate_passes(self, capsys):
        assert cli(["validate"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_validate_good_table(self, tmp_path):
        table = write_json(
            tmp_path / "table.json",
            {
                "rtol": 1e-6,
                "cases": [
                    {
                        "domain": {"dim": 1, "sides": [PI]},
                        "gamma": 1.0,
                        "r": -1.0,
                        "k_r": PI**2 / 6.0,
                        "constants": {"1": PI**2 / 6.0},
                        "holder_alpha": 0.5,
                    }
                ],
            },
        )
        assert cli(["validate", "--table", table]) == 0

    def test_validate_corrupted_table_exits_1(self, tmp_path, capsys):
        table = write_json(
            tmp_path / "table.json",
            {
                "cases": [
                    {"domain": {"dim": 1, "sides": [PI]}, "gamma": 1.0, "r": -1.0, "k_r": 1.9}
                ]
            },
        )
        assert cli(["validate", "--table", table]) == 1
        assert "[FAIL]" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "table,message",
        [
            ({"rtoll": 1e-6, "cases": []}, "unknown table key(s) ['rtoll']"),
            ({"cases": [{"domain": {"dim": 1, "sides": [PI]}, "gamma": 1.0, "r": -1.0, "k_R": 99.0}]},
             "unknown table case key(s) ['k_R']"),
        ],
    )
    def test_validate_unknown_table_keys_exit_2(self, tmp_path, capsys, table, message):
        assert cli(["validate", "--table", write_json(tmp_path / "table.json", table)]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "[PASS]" not in captured.out

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda c: {**c, "gamma": "1"}, "`gamma` must be a number, got '1'"),
            (lambda c: {key: v for key, v in c.items() if key != "r"}, "missing key 'r'"),
            (lambda c: {key: v for key, v in c.items() if key != "k_r"},
             "the case names none of k_r, constants, holder_alpha: nothing is checked"),
            (lambda c: {**{key: v for key, v in c.items() if key != "k_r"}, "constants": {}},
             "the case names none of k_r, constants, holder_alpha: nothing is checked"),
            (lambda c: {**c, "k_r": "pi^2/6"}, "`k_r` must be a number, got 'pi^2/6'"),
            (lambda c: {**c, "constants": [PI**2 / 6.0]}, "`constants` must be a JSON object, got list"),
            (lambda c: {**c, "constants": {"x": 1.0}}, "table case 2: `constants` key 'x' must be an integer order p"),
            (lambda c: {**c, "constants": {"1": PI**2 / 6.0, "2.0": 4.87}},
             "table case 2: `constants` key '2.0' must be an integer order p"),
        ],
    )
    def test_validate_unreadable_case_exits_2_before_any_check(self, tmp_path, capsys, edit, message):
        # a case the program cannot read is a config error, not a failed check; a good case comes first, and the
        # table is read whole before the first check prints
        case = {"domain": {"dim": 1, "sides": [PI]}, "gamma": 1.0, "r": -1.0, "k_r": PI**2 / 6.0}
        table = write_json(tmp_path / "table.json", {"cases": [case, edit(case)]})
        assert cli(["validate", "--table", table]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
