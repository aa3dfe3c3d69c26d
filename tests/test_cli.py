import json
import os

from mvhedge import oracle
from mvhedge.cli import main

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def cfg(name):
    return os.path.join(CONFIGS, name)


class TestFrontierCommand:
    def test_discrete_benchmark_output(self, capsys):
        code = main(["frontier", "--model", cfg("iid_3assets_t4.json")])
        out = capsys.readouterr().out
        assert code == 0
        values = {}
        for line in out.splitlines():
            if line.startswith(("L0 =", "V0(1) =", "eps2_0(1) =")):
                key, _, val = line.partition(" = ")
                values[key] = float(val)
        assert abs(values["L0"] - 0.57571) < 5e-6
        assert abs(values["V0(1)"] - 0.30381 / 0.57571) < 1e-4
        assert abs(values["eps2_0(1)"] - 0.024179) < 5e-7
        assert "1.22624724269" in out  # second-moment slope at 12 digits
        assert "0.226247242686" in out  # variance slope

    def test_ito_benchmark_output(self, capsys):
        code = main(["frontier", "--model", cfg("pii_4assets_t5.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "2.21772300848" in out
        assert "1.20696210704" in out
        assert "0.28028620465" in out

    def test_arbitrage_config_exits_2(self, capsys):
        code = main(["frontier", "--model", cfg("pii_arbitrage.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert "no-arbitrage" in err

    def test_csv_deterministic(self, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            assert main(
                ["frontier", "--model", cfg("iid_3assets_t4.json"), "--out", str(out)]
            ) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[0]
        assert header == "mean,variance,second_moment"

    def test_missing_file_exits_2(self, capsys):
        assert main(["frontier", "--model", "no_such_file.json"]) == 2

    def test_missing_model_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "no_sigma.json"
        path.write_text(json.dumps({"model": {"kind": "iid", "mu": [0.1], "T": 2}}))
        assert main(["frontier", "--model", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["iid model config lacks the key 'sigma'"]


class TestHedgeCommand:
    def test_complete_tree_has_zero_error_column(self, tmp_path, capsys):
        out = tmp_path / "hedge.csv"
        code = main(
            ["hedge", "--model", cfg("tree_call_binomial.json"), "--out", str(out)]
        )
        stdout = capsys.readouterr().out
        assert code == 0
        rows = out.read_text().strip().splitlines()
        header = rows[0].split(",")
        eps_col = header.index("eps2")
        for row in rows[1:]:
            assert abs(float(row.split(",")[eps_col])) < 1e-12
        assert "hedging error" in stdout

    def test_printed_error_consistent_with_processes(self, capsys):
        code = main(["hedge", "--model", cfg("tree_call_binomial.json")])
        out = capsys.readouterr().out
        assert code == 0
        values = {
            line.split("=")[0].strip(): float(line.split("=")[1])
            for line in out.splitlines()
            if "=" in line
        }
        expected = (
            values["L0"] * (values["wealth"] - values["V0"]) ** 2 + values["eps2_0"]
        )
        assert abs(values["hedging error"] - expected) < 1e-10

    def test_wealth_defaults_to_tracking_value(self, capsys, tmp_path):
        data = json.loads(
            open(cfg("tree_call_binomial.json"), encoding="utf-8").read()
        )
        data.pop("wealth")
        path = tmp_path / "t.json"
        path.write_text(json.dumps(data))
        code = main(["hedge", "--model", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        values = {
            line.split("=")[0].strip(): float(line.split("=")[1])
            for line in out.splitlines()
            if "=" in line
        }
        assert abs(values["wealth"] - values["V0"]) < 1e-14
        assert abs(values["hedging error"] - values["eps2_0"]) < 1e-14

    def test_tree_required(self, capsys):
        assert main(["hedge", "--model", cfg("iid_3assets_t4.json")]) == 2


class TestOracleCommand:
    def test_all_numeraires_pass(self, capsys):
        code = main(
            ["oracle", "--model", cfg("tree_call_binomial.json"), "--wealth", "0.3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") == 2
        assert "FAIL" not in out

    def test_impossible_tolerance_exits_3(self, capsys):
        code = main(
            ["oracle", "--model", cfg("tree_call_binomial.json"), "--tol", "0"]
        )
        out = capsys.readouterr().out
        assert code == 3
        # the constant-asset check is literally the same problem twice -> 0 gap
        assert "PASS" in out and "FAIL" in out

    def test_hedge_and_oracle_agree(self, capsys):
        # the error printed by `hedge` equals the objective printed by `oracle`
        # for the same config and wealth
        assert main(
            ["hedge", "--model", cfg("tree_call_binomial.json"), "--wealth", "0.35"]
        ) == 0
        hedge_out = capsys.readouterr().out
        assert main(
            ["oracle", "--model", cfg("tree_call_binomial.json"), "--wealth", "0.35"]
        ) == 0
        oracle_out = capsys.readouterr().out
        hedge_err = float(
            [l for l in hedge_out.splitlines() if l.startswith("hedging error")][0]
            .split("=")[1]
        )
        dp_obj = float(
            [l for l in oracle_out.splitlines() if l.startswith("dp objective")][0]
            .split("=")[1]
        )
        assert abs(hedge_err - dp_obj) < 1e-10

    def test_base_dp_solved_once(self, capsys, monkeypatch):
        # one undiscounted solve shared by both numeraire checks, plus one
        # discounted solve per positive asset
        calls = []
        dp_solve = oracle.dp_solve

        def counting(*args, **kwargs):
            calls.append(args[0])
            return dp_solve(*args, **kwargs)

        monkeypatch.setattr(oracle, "dp_solve", counting)
        assert main(["oracle", "--model", cfg("tree_call_binomial.json")]) == 0
        assert capsys.readouterr().out.count("PASS") == 2
        assert len(calls) == 3


class TestSimulateCommand:
    def test_tree_enumeration_matches_analytic(self, capsys):
        code = main(
            ["simulate", "--model", cfg("tree_call_binomial.json"), "--seed", "5"]
        )
        out = capsys.readouterr().out
        assert code == 0
        values = {
            line.split("=")[0].strip(): line.split("=")[1].strip()
            for line in out.splitlines()
            if "=" in line
        }
        assert values["exact"] == "True"
        empirical = float(values["empirical error second moment"])
        analytic = float(values["analytic hedging error"])
        assert abs(empirical - analytic) < 1e-12

    def test_euler_simulation_reads_step_from_config(self, capsys):
        code = main(
            [
                "simulate",
                "--model",
                cfg("pii_4assets_t5.json"),
                "--paths",
                "2000",
                "--seed",
                "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        values = {
            line.split("=")[0].strip(): line.split("=")[1].strip()
            for line in out.splitlines()
            if "=" in line
        }
        empirical = float(values["empirical error second moment"])
        analytic = float(values["analytic hedging error"])
        # Euler bias plus sampling noise: loose sanity band only
        assert abs(empirical - analytic) < 0.25 * (1 + analytic)

    def test_non_numeric_step_exits_2(self, tmp_path, capsys):
        with open(cfg("pii_4assets_t5.json"), encoding="utf-8") as fh:
            data = json.load(fh)
        data["step"] = "x"
        path = tmp_path / "bad_step.json"
        path.write_text(json.dumps(data))
        assert main(["simulate", "--model", str(path), "--paths", "10"]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["step must be a number, got 'x'"]

    def test_gaussian_simulation_runs(self, capsys):
        code = main(
            [
                "simulate",
                "--model",
                cfg("iid_3assets_t4.json"),
                "--paths",
                "20000",
                "--seed",
                "7",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        values = {
            line.split("=")[0].strip(): line.split("=")[1].strip()
            for line in out.splitlines()
            if "=" in line
        }
        gap = abs(
            float(values["empirical error second moment"])
            - float(values["analytic hedging error"])
        )
        assert gap < 6 * float(values["standard error"])


class TestSolveQpCommand:
    def test_demo_problem(self, capsys):
        code = main(["solve-qp", "--model", cfg("qp_example.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "x_hat" in out and "value" in out
        assert "agrees to" in out

    def test_unbounded_reports_direction(self, tmp_path, capsys):
        path = tmp_path / "unbounded.json"
        path.write_text(
            json.dumps(
                {
                    "C": [[0.0, 0.0], [0.0, 0.0]],
                    "F": [0.0, 1.0],
                    "A": [[1.0, 0.0]],
                    "b": [0.0],
                }
            )
        )
        code = main(["solve-qp", "--model", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "unbounded below" in out
        assert "descent direction" in out

    def test_bad_field_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"C": [[1.0]]}))
        assert main(["solve-qp", "--model", str(path)]) == 2
