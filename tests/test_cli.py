import json
import os
import re

import numpy as np
import pytest

from mvhedge import engine, oracle
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

    def test_unreadable_model_file_exits_2(self, tmp_path, capsys):
        binary = tmp_path / "binary.json"
        binary.write_bytes(b"\xff\xfe\x00")
        for path in (tmp_path, binary):
            assert main(["frontier", "--model", str(path)]) == 2
            assert len(capsys.readouterr().err.splitlines()) == 1

    def test_program_errors_are_not_input_errors(self, monkeypatch, capsys):
        # a ValueError from inside the library is a bug, not invalid input
        def broken(*args, **kwargs):
            raise ValueError("internal failure")

        monkeypatch.setattr(engine, "closed_form_values", broken)
        with pytest.raises(ValueError, match="internal failure"):
            main(["frontier", "--model", cfg("iid_3assets_t4.json")])

    def test_failed_factorization_exits_2(self, monkeypatch, capsys):
        # LinAlgError subclasses ValueError, so it needs its own entry
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        assert main(["solve-qp", "--model", cfg("qp_example.json")]) == 2
        assert capsys.readouterr().err.splitlines() == ["SVD did not converge"]

    def test_missing_model_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "no_sigma.json"
        path.write_text(json.dumps({"model": {"kind": "iid", "mu": [0.1], "T": 2}}))
        assert main(["frontier", "--model", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["iid model config lacks the key 'sigma'"]

    def test_malformed_model_or_claim_exits_2(self, tmp_path, capsys):
        model = {"kind": "iid", "mu": [0.1], "sigma": [[0.04]], "T": 2}
        tree = {
            "kind": "tree",
            "root": "r",
            "nodes": [
                {
                    "id": "r",
                    "time": 0,
                    "prices": [1.0],
                    "branches": [{"prob": 0.5, "child": "u"}, {"prob": 0.5, "child": "d"}],
                },
                {"id": "u", "time": 1, "prices": [1.2]},
                {"id": "d", "time": 1, "prices": [0.9]},
            ],
        }
        bad_prob = json.loads(json.dumps(tree))
        bad_prob["nodes"][0]["branches"][0]["prob"] = "x"
        cases = [
            ({"model": []}, "the 'model' section must be a mapping"),
            (
                {"model": model, "claim": [1]},
                "claim must be a number or a mapping of numbers, got [1]",
            ),
            (
                {"model": {"kind": "pii", "segments": [[1, 2, 3]]}},
                "each segment must be a mapping",
            ),
            ({"model": {"kind": "pii", "segments": 5}}, "'segments' must be a list"),
            (
                {"model": dict(tree, nodes=[[1, 2]])},
                "each tree node must be a mapping",
            ),
            ({"model": dict(tree, payoff=[1])}, "'payoff' must be a mapping"),
            ({"model": dict(model, T="x")}, "T must be a number, got 'x'"),
            (
                {"model": dict(model, mu="abc")},
                "mu must be a rectangular array of numbers, got 'abc'",
            ),
            (
                {"model": dict(model, mu=[0.1, 0.2], sigma=[[0.04, 0.0], [0.0]])},
                "sigma must be a rectangular array of numbers, "
                "got [[0.04, 0.0], [0.0]]",
            ),
            ({"model": bad_prob}, "branch prob must be a number, got 'x'"),
        ]
        for data, message in cases:
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(data))
            assert main(["frontier", "--model", str(path)]) == 2
            assert capsys.readouterr().err.splitlines() == [message]

    def test_absurd_magnitudes_exit_2(self, tmp_path, capsys):
        def load(name):
            with open(cfg(name), encoding="utf-8") as fh:
                return json.load(fh)

        iid, pii = load("iid_3assets_t4.json"), load("pii_4assets_t5.json")
        rich, huge = load("tree_call_binomial.json"), load("tree_call_binomial.json")
        steep = load("tree_call_binomial.json")
        iid["model"]["T"] = 1e300
        pii["model"]["segments"][0]["duration"] = 1e300
        rich["wealth"] = 1e300
        huge["model"]["payoff"]["nuu"] = 1e300
        steep["model"]["nodes"][0]["prices"][1] = 1e300  # node "nuu"
        steps = "n_periods must be at most 1000000, got 1e+300"
        bound = "must be at most 1e+150 in magnitude, got"
        cases = [
            ("frontier", iid, steps),
            ("simulate", iid, steps),
            (
                "simulate",
                pii,
                "the value processes overflow over the horizon 1e+300: "
                "exp(log L) or exp(log V) exceeds the float range",
            ),
            ("hedge", rich, f"wealth {bound} 1e+300"),
            ("hedge", huge, f"a claim value {bound} 1e+300"),
            ("oracle", huge, f"a claim value {bound} 1e+300"),
            ("hedge", steep, f"every edge return {bound} 8e+299"),
        ]
        for command, data, message in cases:
            path = tmp_path / "absurd.json"
            path.write_text(json.dumps(data))
            assert main([command, "--model", str(path)]) == 2
            assert capsys.readouterr().err.splitlines() == [message]


# Flags each command does not read; argparse rejects them (exit 2).
UNREAD_FLAGS = [
    ("frontier", "--claim"),
    ("frontier", "--wealth"),
    ("frontier", "--seed"),
    ("frontier", "--paths"),
    ("frontier", "--tol"),
    ("hedge", "--seed"),
    ("hedge", "--paths"),
    ("hedge", "--tol"),
    ("oracle", "--out"),
    ("oracle", "--seed"),
    ("oracle", "--paths"),
    ("simulate", "--out"),
    ("simulate", "--tol"),
    ("solve-qp", "--claim"),
    ("solve-qp", "--wealth"),
    ("solve-qp", "--out"),
    ("solve-qp", "--seed"),
    ("solve-qp", "--paths"),
    ("solve-qp", "--tol"),
]


@pytest.mark.parametrize("command, flag", UNREAD_FLAGS)
def test_unread_flag_exits_2(command, flag, capsys):
    with pytest.raises(SystemExit) as err:
        main([command, "--model", cfg("tree_call_binomial.json"), flag, "3"])
    assert err.value.code == 2
    assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err


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

    def test_negative_tolerance_exits_2(self, capsys):
        argv = ["oracle", "--model", cfg("tree_call_binomial.json"), "--tol", "-0.001"]
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            "--tol must be non-negative, got -0.001"
        ]

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

    def test_path_count_below_one_exits_2(self, capsys):
        for paths in ("0", "-3"):
            argv = ["simulate", "--model", cfg("iid_3assets_t4.json"), "--paths", paths]
            assert main(argv) == 2
            assert capsys.readouterr().err.splitlines() == [
                f"the path count must be at least 1, got {paths}"
            ]

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

    def test_reads_one_right_hand_side(self, tmp_path, capsys):
        with open(cfg("qp_example.json"), encoding="utf-8") as fh:
            data = json.load(fh)
        cases = [
            (dict(data, F=[[0.4, 0.1], [-0.2, 0.0], [0.3, 0.2]]), "F and b must be vectors"),
            (dict(data, b=[[1.0, 2.0]]), "F and b must be vectors"),
            (dict(data, C="x"), "QP file fields must be arrays of numbers"),
            ([1, 2], "a QP file must be a mapping"),
        ]
        path = tmp_path / "qp.json"
        for case, message in cases:
            path.write_text(json.dumps(case))
            assert main(["solve-qp", "--model", str(path)]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and message in err[0]


# Every value printed by the tree and QP commands, at 12 significant digits.
# The roundoff diagnostics (objective gap, max holdings gap, agrees to) are
# masked: they measure disagreement at machine precision, not results.
PINNED = {
    "hedge": (
        ["hedge", "--model", cfg("tree_call_binomial.json"), "--wealth", "0.25"],
        "L0 = 0.825210935453\n"
        "V0 = 0.111111111111\n"
        "eps2_0 = 2.81317025749e-17\n"
        "wealth = 0.25\n"
        "hedging error = 0.0159184208228\n",
    ),
    "oracle": (
        ["oracle", "--model", cfg("tree_call_binomial.json")],
        "dp objective at wealth 0.2 = 0.00652018516901\n"
        "numeraire asset 1: PASS (objective gap *, max holdings gap *, "
        "E[X_T^2] 1)\n"
        "numeraire asset 2: PASS (objective gap *, max holdings gap *, "
        "E[X_T^2] 1.42444225)\n",
    ),
    "simulate": (
        ["simulate", "--model", cfg("tree_call_binomial.json")],
        "paths = 4\n"
        "seed = 0\n"
        "exact = True\n"
        "empirical error second moment = 0.00652018516901\n"
        "empirical error mean = 0.0733520831514\n"
        "standard error = 0\n"
        "analytic hedging error = 0.00652018516901\n",
    ),
    "solve-qp": (
        ["solve-qp", "--model", cfg("qp_example.json")],
        "x_hat = [0.326359832636, -0.359832635983, 1.03347280335]\n"
        "value = -0.367782426778\n"
        "solution set dimension = 0\n"
        "alternative representation (direct) agrees to *\n",
    ),
}


@pytest.mark.parametrize("command", sorted(PINNED))
def test_printed_values_pinned(command, capsys):
    argv, expected = PINNED[command]
    assert main(argv) == 0
    out = capsys.readouterr().out
    masked = re.sub(
        r"(objective gap|max holdings gap|agrees to) [-+.0-9e]+", r"\1 *", out
    )
    assert masked == expected
