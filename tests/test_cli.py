import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from rovecover import cli, monte_carlo
from rovecover.cli import main
from rovecover.combinatorics import rational_from_json
from rovecover.subset_scheme import Params, coverage_pmf


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def cli_env(**overrides):
    """Environment for a CLI child process: the caller's own (so PYTHONPATH
    and the like still reach it) with this checkout's ``src`` first on
    PYTHONPATH, without any ambient budget, plus the test's overrides."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.pop("ROVE_COVER_BUDGET", None)
    env.update(overrides)
    return env


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "rovecover", *argv],
        capture_output=True,
        text=True,
        env=cli_env(),
    )


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDist:
    def test_json_envelope(self, capsys):
        code, out, err = run_main(
            capsys, "dist", "--scheme", "subset", "--n", "4", "--m", "2", "--k", "2"
        )
        assert code == 0
        assert err == ""
        envelope = json.loads(out)
        assert envelope["command"] == "dist"
        assert envelope["format_version"] == "1.0.0"
        assert envelope["params_echo"] == {"n": 4, "m": 2, "k": 2, "scheme": "subset"}
        pmf = {
            entry["t"]: rational_from_json(entry)
            for entry in envelope["result"]["pmf"]
        }
        assert pmf == {2: Fraction(1, 6), 3: Fraction(2, 3), 4: Fraction(1, 6)}

    def test_json_round_trip_is_exact(self, capsys):
        code, out, _ = run_main(
            capsys, "dist", "--scheme", "multinomial", "--n", "6", "--m", "3", "--k", "2"
        )
        assert code == 0
        envelope = json.loads(out)
        from rovecover.multinomial_scheme import multinomial_coverage_pmf

        exact = multinomial_coverage_pmf(Params(6, 3, 2))
        for entry in envelope["result"]["pmf"]:
            assert rational_from_json(entry) == exact.pmf[entry["t"]]

    def test_csv_output(self, capsys):
        code, out, _ = run_main(
            capsys, "dist", "--n", "4", "--m", "2", "--k", "2", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [row["t"] for row in rows] == ["2", "3", "4"]
        reconstructed = {
            int(row["t"]): Fraction(int(row["num"]), int(row["den"])) for row in rows
        }
        assert reconstructed == dict(coverage_pmf(Params(4, 2, 2)).pmf)

    def test_ascending_t_order(self, capsys):
        _, out, _ = run_main(capsys, "dist", "--n", "9", "--m", "3", "--k", "3")
        ts = [entry["t"] for entry in json.loads(out)["result"]["pmf"]]
        assert ts == sorted(ts)

    def test_point_query(self, capsys):
        code, out, _ = run_main(
            capsys, "dist", "--n", "4", "--m", "2", "--k", "2", "--t", "3"
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["t"] == 3
        assert rational_from_json(result["probability"]) == Fraction(2, 3)

    def test_point_query_outside_support_is_zero(self, capsys):
        code, out, _ = run_main(
            capsys, "dist", "--n", "4", "--m", "2", "--k", "2", "--t", "1"
        )
        assert code == 0
        assert rational_from_json(json.loads(out)["result"]["probability"]) == 0


class TestScalarCommands:
    def test_mean(self, capsys):
        code, out, _ = run_main(capsys, "mean", "--n", "4", "--m", "2", "--k", "2")
        assert code == 0
        assert rational_from_json(json.loads(out)["result"]["mean"]) == 3

    def test_tail(self, capsys):
        code, out, _ = run_main(
            capsys, "tail", "--n", "4", "--m", "2", "--k", "2", "--tau", "4"
        )
        assert code == 0
        assert rational_from_json(json.loads(out)["result"]["probability"]) == Fraction(1, 6)

    def test_stirling(self, capsys):
        code, out, _ = run_main(capsys, "stirling", "--N", "3", "--K", "2")
        assert code == 0
        assert json.loads(out)["result"]["value"] == "3"

    def test_bounds(self, capsys):
        code, out, _ = run_main(capsys, "bounds", "--n", "100", "--m", "5", "--k", "3")
        assert code == 0
        result = json.loads(out)["result"]
        assert rational_from_json(result["all_stages_markov_bound"]) == Fraction(3, 10)
        assert result["all_stages_clamped"] is False

    def test_theorem2(self, capsys):
        code, out, _ = run_main(capsys, "theorem2", "--n", "4", "--m", "2", "--k", "2")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["all_hold"] is True
        assert [row["t"] for row in result["rows"]] == [2, 3, 4]

    def test_plan_expected(self, capsys):
        code, out, _ = run_main(capsys, "plan", "--n", "4", "--m", "2", "--alpha", "3/4")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["k"] == 2
        assert result["verified_at_k_minus_1"] is True

    def test_plan_confident(self, capsys):
        code, out, _ = run_main(
            capsys, "plan", "--n", "4", "--m", "2", "--tau", "4", "--p", "1/6"
        )
        assert code == 0
        assert json.loads(out)["result"]["k"] == 2

    def test_plan_cap_exceeded_exit(self, capsys):
        code, out, _ = run_main(
            capsys,
            "plan", "--n", "4", "--m", "2", "--tau", "4", "--p", "999/1000",
            "--k-max", "10",
        )
        assert code == 3
        result = json.loads(out)["result"]
        assert result["cap_exceeded"] is True
        assert result["k"] is None


class TestErrorHandling:
    def test_validation_error_exit_2(self):
        proc = run_cli("dist", "--n", "0", "--m", "2", "--k", "2")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.strip().splitlines()) == 1
        assert "Traceback" not in proc.stderr

    def test_unknown_flag_single_line(self):
        proc = run_cli("dist", "--n", "4", "--m", "2", "--k", "2", "--bogus", "1")
        assert proc.returncode == 2
        assert len(proc.stderr.strip().splitlines()) == 1

    def test_invalid_numeric_single_line(self):
        proc = run_cli("dist", "--n", "four", "--m", "2", "--k", "2")
        assert proc.returncode == 2
        assert len(proc.stderr.strip().splitlines()) == 1

    def test_budget_refusal_exit_3(self):
        proc = run_cli("enumerate", "--scheme", "subset", "--n", "50", "--m", "10", "--k", "5")
        assert proc.returncode == 3
        assert "budget" in proc.stderr.lower()

    def test_nested_requires_k4(self):
        proc = run_cli("crosscheck", "--n", "4", "--m", "2", "--k", "3")
        assert proc.returncode == 2

    def test_env_budget_applies(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rovecover", "enumerate",
             "--n", "4", "--m", "2", "--k", "2"],
            capture_output=True,
            text=True,
            env=cli_env(ROVE_COVER_BUDGET="10"),
        )
        assert proc.returncode == 3

    def test_budget_flag_overrides_env(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rovecover", "enumerate",
             "--n", "4", "--m", "2", "--k", "2", "--budget", "100"],
            capture_output=True,
            text=True,
            env=cli_env(ROVE_COVER_BUDGET="10"),
        )
        assert proc.returncode == 0

    def test_bad_env_budget_rejected(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rovecover", "enumerate",
             "--n", "4", "--m", "2", "--k", "2"],
            capture_output=True,
            text=True,
            env=cli_env(ROVE_COVER_BUDGET="lots"),
        )
        assert proc.returncode == 2
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1
        assert "ROVE_COVER_BUDGET" in lines[0]


    @pytest.mark.parametrize("target", [[], ["--tau", "3"]])
    def test_plan_bad_target_single_line(self, capsys, target):
        code, out, err = run_main(capsys, "plan", "--n", "4", "--m", "2", *target)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1

    def test_plan_confidence_one_rejected(self, capsys):
        code, _, err = run_main(
            capsys, "plan", "--n", "4", "--m", "2", "--tau", "4", "--p", "1"
        )
        assert code == 2
        assert "confidence of 1 is infeasible" in err

    def test_closed_stdout_exits_1_without_traceback(self):
        # `dist ... | head -1`: the ~140 kB answer overflows the pipe, so the
        # writes after the reader closes it fail with EPIPE.
        proc = subprocess.Popen(
            [sys.executable, "-m", "rovecover", "dist", "--n", "300", "--m", "30",
             "--k", "8"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=cli_env(),
        )
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err
        assert err == ""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_unprintable_answer_fails_before_output(self, capsys, fmt):
        # S(3000, 40) has more digits than CPython's default int->str limit;
        # the answer is serialized before anything is printed.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code, out, err = run_main(capsys, "stirling", "--N", "3000", "--K", "40",
                                      "--format", fmt)
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 2
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert "set_int_max_str_digits" in lines[0]


class TestSimulationCommands:
    def test_simulate_json(self, capsys):
        code, out, _ = run_main(
            capsys,
            "simulate", "--scheme", "multinomial", "--n", "6", "--m", "2", "--k", "2",
            "--trials", "5000", "--seed", "9",
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert sum(entry["count"] for entry in result["counts"]) == 5000
        assert "repetition_event_count" in result

    def test_simulate_deterministic_bytes(self):
        argv = ["simulate", "--n", "5", "--m", "2", "--k", "2",
                "--trials", "20000", "--seed", "42"]
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_simulate_csv(self, capsys):
        code, out, _ = run_main(
            capsys,
            "simulate", "--n", "5", "--m", "2", "--k", "2",
            "--trials", "1000", "--seed", "1", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert sum(int(row["count"]) for row in rows) == 1000

    def test_compare_reports_distance(self, capsys):
        code, out, _ = run_main(
            capsys,
            "compare", "--n", "6", "--m", "2", "--k", "2",
            "--trials", "50000", "--seed", "4",
        )
        assert code == 0
        comparison = json.loads(out)["result"]["comparison"]
        assert 0 <= comparison["total_variation_distance"] <= 0.05

    def test_workers_capped_at_cpu_count(self, capsys, monkeypatch):
        pools = []

        class SerialExecutor:
            # Records the pool size asked for and starts no thread.
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return list(map(fn, items))

        monkeypatch.setattr(monte_carlo, "ThreadPoolExecutor", SerialExecutor)
        argv = ["simulate", "--n", "6", "--m", "2", "--k", "3", "--trials", "9000",
                "--seed", "3"]
        code, out, _ = run_main(capsys, *argv)
        one_worker = json.loads(out)
        monkeypatch.setattr(monte_carlo.os, "cpu_count", lambda: 2)
        code, out, _ = run_main(capsys, *argv, "--workers", "100000")
        assert code == 0
        assert pools == [2]  # three blocks, two CPUs
        many = json.loads(out)
        assert many["params_echo"]["workers"] == many["result"]["workers"] == 100000
        assert many["result"]["counts"] == one_worker["result"]["counts"]
        monkeypatch.setattr(monte_carlo.os, "cpu_count", lambda: None)
        code, out, _ = run_main(capsys, *argv, "--workers", "100000")
        assert code == 0
        assert pools == [2]  # an unknown CPU count runs on the calling thread
        assert json.loads(out)["result"]["counts"] == one_worker["result"]["counts"]

    def test_enumerate_json(self, capsys):
        code, out, _ = run_main(
            capsys, "enumerate", "--scheme", "subset", "--n", "4", "--m", "2", "--k", "2"
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["total_outcomes"] == 36
        assert {entry["t"]: entry["count"] for entry in result["counts"]} == {
            2: 6, 3: 24, 4: 6,
        }

    def test_crosscheck_agrees(self, capsys):
        code, out, _ = run_main(capsys, "crosscheck", "--n", "6", "--m", "2", "--k", "4")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["nested_vs_closed_agree"] is True
        assert result["discrepancies"] == []
        assert result["enumeration_agrees_closed"] is True


EXACT_ONLY_SCRIPT = """
import contextlib, io, sys
import rovecover, rovecover.cli
argvs = [
    "dist --n 6 --m 2 --k 3",
    "mean --n 10 --m 3 --k 2",
    "tail --n 20 --m 3 --k 5 --tau 12",
    "bounds --n 100 --m 5 --k 3",
    "theorem2 --n 6 --m 2 --k 2",
    "stirling --N 12 --K 5",
    "crosscheck --n 6 --m 2 --k 4",
    "enumerate --scheme multinomial --n 4 --m 2 --k 2",
    "plan --n 10 --m 3 --alpha 9/10",
    "plan --n 4 --m 2 --tau 4 --p 1/6",
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [rovecover.cli.main(argv.split()) for argv in argvs]
assert codes == [0] * len(argvs), codes
assert "numpy" not in sys.modules
assert "rovecover.monte_carlo" not in sys.modules
assert set(rovecover.__all__) <= set(dir(rovecover))
assert rovecover.simulate.__module__ == "rovecover.monte_carlo"
from rovecover import SimulationConfig
assert SimulationConfig is sys.modules["rovecover.monte_carlo"].SimulationConfig
try:
    rovecover.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("rovecover.no_such_name resolved")
print("ok")
"""


def test_exact_commands_run_without_numpy():
    # Only simulate, compare and the sampling API load monte_carlo (and
    # numpy); every exact subcommand runs in a process that never imports it.
    proc = subprocess.run(
        [sys.executable, "-c", EXACT_ONLY_SCRIPT],
        capture_output=True,
        text=True,
        env=cli_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_every_result_class_has_both_forms():
    # The CLI prints a result through to_json_dict() or to_csv_rows(), so a
    # class with one form must have the other.
    import importlib
    import pkgutil

    import rovecover

    for info in pkgutil.iter_modules(rovecover.__path__):
        if info.name != "__main__":
            importlib.import_module(f"rovecover.{info.name}")
    results = {
        value
        for name, module in sys.modules.items()
        if name == "rovecover" or name.startswith("rovecover.")
        for value in vars(module).values()
        if isinstance(value, type) and "to_json_dict" in vars(value)
    }
    assert {cls.__name__ for cls in results} >= {
        "BoundReport", "ComparisonReport", "ComparisonRun", "CoverageDistribution",
        "CrosscheckReport", "EmpiricalDistribution", "OracleResult", "PlanResult",
        "ScalarResult", "Theorem2Report",
    }
    for cls in results:
        assert "to_csv_rows" in vars(cls), cls.__name__


@pytest.mark.parametrize("command", [[], *[[name] for name in cli._COMMANDS]])
def test_help_exits_zero(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        main([*command, "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: rovecover {' '.join(command)}".rstrip())
