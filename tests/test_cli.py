"""Command-line behaviour: output formats, exit codes, determinism."""

import json

import pytest

from crankq.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_named_series(capsys):
    code, out, _ = run(capsys, "expand", "--series", "C", "--order", "6")
    assert code == 0
    assert out.strip() == "1, -3, 2, -1, 5, -5"


def test_expand_quotient_with_negative_valuation(capsys):
    code, out, _ = run(capsys, "expand", "--quotient",
                       "q^-1 * f2 * f5^5 * f1^-1 * f10^-5", "--order", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "start_exponent: -1"
    assert lines[1] == "1, 1, 1, 2, 2"


def test_expand_json(capsys):
    code, out, _ = run(capsys, "expand", "--series", "a", "--order", "5",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["coeffs"] == [1, 3, 7, 16, 32]
    assert payload["start_exponent"] == 0


def test_dissect(capsys):
    code, out, _ = run(capsys, "dissect", "--series", "p", "--m", "5",
                       "--r", "4", "--order", "20")
    assert code == 0
    assert out.strip() == "5, 30, 135, 490"


def test_pmn_rendering(capsys):
    code, out, _ = run(capsys, "pmn", "--m", "1", "--n", "-1")
    assert code == 0
    assert out.strip() == "K - 2 + 4*K^-1"
    code, out, _ = run(capsys, "pmn", "--m", "2", "--n", "0")
    assert out.strip() == "K^2 + 2"


def test_verify_single_theorem(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "thm12", "--order", "100")
    assert code == 0
    assert out.startswith("PASS thm12")


def test_verify_failure_exit_code_and_witness(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "f52")
    assert code == 1
    assert "FAIL f52" in out and "witness" in out and '"exponent": 11' in out


def test_verify_requires_selection(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2
    assert "verify needs" in err


def test_unknown_task_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--theorem", "bogus")
    assert code == 2
    assert "unknown task id" in err


def test_bad_quotient_is_usage_error(capsys):
    code, _, err = run(capsys, "expand", "--quotient", "h4xx0r", "--order", "9")
    assert code == 2
    assert "cannot parse" in err


def test_unknown_flag_is_usage_error(capsys):
    assert run(capsys, "expand", "--nope", "3")[0] == 2
    assert run(capsys, "frobnicate")[0] == 2


def test_oracle_exit_codes(capsys):
    code, out, _ = run(capsys, "oracle", "--which", "colored", "--n-max", "6")
    assert code == 0
    assert "PASS colored-partition" in out


def test_oracle_crank_excludes_known_discrepancy(capsys):
    code, out, _ = run(capsys, "oracle", "--which", "crank", "--n-max", "6")
    assert code == 0
    assert "excluded: known discrepancy" in out


def test_pmn_json(capsys):
    code, out, _ = run(capsys, "pmn", "--m", "0", "--n", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["terms"] == {"-1": 4}


@pytest.mark.slow
def test_report_json_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "report", "--format", "json")
    code2, out2, _ = run(capsys, "report", "--format", "json")
    assert code1 == code2 == 1          # the documented f52 failure
    assert out1 == out2                 # byte-identical without --timings
    lines = out1.strip().splitlines()
    parsed = [json.loads(line) for line in lines]
    assert [p["task"] for p in parsed] == sorted(p["task"] for p in parsed)
    outcomes = {p["task"]: p["outcome"] for p in parsed}
    assert outcomes["f52"] == "fail"
    assert all(key != "elapsed_ms" for p in parsed for key in p)


def test_verify_json_carries_full_serialization(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "k33", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["task", "params", "order", "outcome", "elapsed_ms"]
    code, out, _ = run(capsys, "verify", "--theorem", "f52", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert list(payload) == ["task", "params", "order", "outcome", "witness",
                             "elapsed_ms"]


def test_verify_all_finishes_every_task_after_usage_errors(capsys):
    from crankq.tasks import task_ids
    code, out, err = run(capsys, "verify", "--all", "--order", "5")
    assert code == 2
    assert "error: dis31: order must be >= 25" in err
    reported = {line.split()[1] for line in out.splitlines()}
    errored = {line.split(":")[1].strip() for line in err.splitlines()}
    assert reported | errored == set(task_ids())
    assert reported and errored and not reported & errored
    # a usage error outranks a failed check
    code, out, err = run(capsys, "verify", "--theorem", "f52",
                         "--theorem", "dis31", "--order", "20")
    assert code == 2
    assert "FAIL f52" in out and "error: dis31:" in err


def test_verify_thm11_honours_order(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "thm11", "--order", "50",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [c["n_max"] for c in payload["params"]["classes"]] == [9, 0]
    assert payload["order"] == 100     # index 99 of the alpha = 1 class
    code, out, _ = run(capsys, "verify", "--theorem", "thm11", "--format", "json")
    payload = json.loads(out)
    assert [c["n_max"] for c in payload["params"]["classes"]] == [200, 8]
    assert payload["order"] == 1100


@pytest.mark.parametrize("tid, default_n_max", [("oracle-crank", 40),
                                                ("oracle-colored", 35)])
def test_verify_oracle_honours_order(capsys, tid, default_n_max):
    code, out, _ = run(capsys, "verify", "--theorem", tid, "--order", "10",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["params"]["n_max"], payload["order"]) == (9, 10)
    code, out, _ = run(capsys, "verify", "--theorem", tid, "--format", "json")
    assert json.loads(out)["params"]["n_max"] == default_n_max
    code, out, err = run(capsys, "verify", "--theorem", tid, "--order", "100")
    assert code == 2 and out == ""
    assert f"error: {tid}: n_max = 99 exceeds" in err and "enumeration cap" in err


@pytest.mark.parametrize("tid, flag, name", [("thm12", "--p", "p"),
                                             ("binom", "--alpha", "alpha"),
                                             ("dis31", "--n-max", "n_max")])
def test_verify_unsupported_parameter_is_usage_error(capsys, tid, flag, name):
    code, out, err = run(capsys, "verify", "--theorem", tid, flag, "3")
    assert code == 2 and out == ""
    assert err.strip() == f"error: {tid}: unsupported parameter '{name}'"
