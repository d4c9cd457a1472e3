import hashlib
import json
import math
import re

import pytest

from spde_pv.cli import cli

PI = math.pi


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

    def test_unknown_flag_exits_2(self, capsys):
        assert cli(["converge", "--nonsense"]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_threads_env_fallback(self, tmp_path, sim_block, monkeypatch):
        monkeypatch.setenv("SPDE_PV_THREADS", "2")
        cfg = write_json(
            tmp_path / "exp.json",
            {
                "name": "envdemo",
                "sim": sim_block,
                "variations": [{"r": -1.0, "p": 2.0}],
                "delta_grid": [1.0 / 16.0],
                "replicates": 2,
            },
        )
        assert cli(["converge", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


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

    def test_seed_override_changes_path(self, tmp_path, sim_block):
        sim_cfg = write_json(tmp_path / "sim.json", sim_block)
        assert cli(["simulate", "--config", sim_cfg, "--out", str(tmp_path / "a"), "--seed", "1"]) == 0
        assert cli(["simulate", "--config", sim_cfg, "--out", str(tmp_path / "b"), "--seed", "2"]) == 0
        a = (tmp_path / "a" / "path.npy").read_bytes()
        b = (tmp_path / "b" / "path.npy").read_bytes()
        assert a != b

    def test_holder(self, tmp_path, sim_block):
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

    def test_version(self, capsys):
        assert cli(["--version"]) == 0
        assert "spde-pv" in capsys.readouterr().out


class TestRejectedInputs:
    @pytest.mark.parametrize("command", ["constants", "simulate", "variation", "holder", "validate"])
    def test_threads_only_on_converge(self, command, capsys):
        assert cli([command, "--threads", "4"]) == 2
        assert "unrecognized arguments: --threads" in capsys.readouterr().err

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

    def test_simulate_accepts_norm_r(self, tmp_path, sim_block):
        cfg = write_json(tmp_path / "sim.json", {**sim_block, "norm_r": 0.0})
        assert cli(["simulate", "--config", cfg, "--out", str(tmp_path / "s")]) == 0


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
