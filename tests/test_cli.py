"""Command-line behaviour: output formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from crankq.cli import EXIT_CLOSED_PIPE, main
from crankq.congruence import ORACLE_CAP


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


@pytest.mark.parametrize("which", ["crank", "colored"])
def test_oracle_n_max_above_cap_is_usage_error(capsys, which):
    code, out, err = run(capsys, "oracle", "--which", which, "--n-max",
                         str(ORACLE_CAP + 1))
    assert code == 2 and out == ""
    assert f"n_max = {ORACLE_CAP + 1} exceeds" in err
    assert f"oracle cap {ORACLE_CAP}" in err


@pytest.mark.parametrize("which", ["crank", "colored"])
def test_oracle_negative_n_max_is_usage_error(capsys, which):
    code, out, err = run(capsys, "oracle", "--which", which, "--n-max", "-1")
    assert code == 2 and out == ""
    assert err.strip() == "error: n_max must be >= 0, got -1"


@pytest.mark.parametrize("tid", ["ch-d", "ch-h"])
def test_verify_negative_n_max_is_usage_error(capsys, tid):
    # a negative scan length used to pass vacuously
    code, out, err = run(capsys, "verify", "--theorem", tid, "--n-max", "-1")
    assert code == 2 and out == ""
    assert err.strip() == f"error: {tid}: n_max must be >= 0, got -1"


@pytest.mark.parametrize("tid", ["thm12", "a51", "a54", "smoke5", "oracle-crank"])
def test_verify_order_below_one_is_usage_error(capsys, tid):
    # one check in run_task, in place of a leaked internal message or a
    # vacuous PASS
    code, out, err = run(capsys, "verify", "--theorem", tid, "--order", "0")
    assert code == 2 and out == ""
    assert err.strip() == f"error: {tid}: order must be >= 1, got 0"


@pytest.mark.parametrize("tid, argv", [
    ("pmn-eval", ["--n-max", "-5", "--order", "50"]),
    ("rec35", ["--n-max", "-9"]),
    ("rec36", ["--n-max", "-9"]),
], ids=["pmn-eval", "rec35", "rec36"])
def test_verify_empty_grid_is_usage_error(capsys, tid, argv):
    # n_max below the grid's n_min = -3 used to pass with nothing checked
    code, out, err = run(capsys, "verify", "--theorem", tid, *argv)
    assert code == 2 and out == ""
    n_max = argv[1]
    assert err.strip() == (f"error: {tid}: the grid m in [0, 4], n in [-3, {n_max}] "
                           "is empty")


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_verify_pmn_eval_order_at_most_m_max_is_usage_error(capsys, order):
    # checked once, before any work, against the grid's m_max = 4 rather
    # than whichever grid point failed first
    code, out, err = run(capsys, "verify", "--theorem", "pmn-eval",
                         "--order", str(order))
    assert code == 2 and out == ""
    assert err.strip() == f"error: pmn-eval: order must exceed m_max = 4, got {order}"


@pytest.mark.parametrize("tid, order", [("f52", 1), ("f52", 2), ("f52-corrected", 1),
                                        ("f52-corrected", 2)],
                         ids=["f52-1", "f52-2", "f52-corrected-1", "f52-corrected-2"])
def test_verify_f52_order_below_three_is_usage_error(capsys, tid, order):
    # the reductions carry a q^2 term; the message names --order, not the
    # internal shift of whichever term failed first
    code, out, err = run(capsys, "verify", "--theorem", tid, "--order", str(order))
    assert code == 2 and out == ""
    assert err.strip() == f"error: {tid}: order must be >= 3, got {order}"


@pytest.mark.parametrize("tid", ["thm12", "a51", "a54", "f52", "f52-corrected",
                                 "k33", "k34"])
def test_verify_identity_task_honours_order(capsys, tid):
    # run_task passes --order only to a task whose signature names it
    code, out, _ = run(capsys, "verify", "--theorem", tid, "--order", "37",
                       "--format", "json")
    assert code == (1 if tid == "f52" else 0)
    assert json.loads(out)["order"] == 37


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
    code, out, err = run(capsys, "verify", "--theorem", tid, "--order",
                         str(ORACLE_CAP + 2))
    assert code == 2 and out == ""
    assert f"error: {tid}: n_max = {ORACLE_CAP + 1} exceeds" in err
    assert f"oracle cap {ORACLE_CAP}" in err


@pytest.mark.parametrize("tid, flag, name", [("thm12", "--p", "p"),
                                             ("binom", "--alpha", "alpha"),
                                             ("dis31", "--n-max", "n_max")])
def test_verify_unsupported_parameter_is_usage_error(capsys, tid, flag, name):
    code, out, err = run(capsys, "verify", "--theorem", tid, flag, "3")
    assert code == 2 and out == ""
    assert err.strip() == f"error: {tid}: unsupported parameter '{name}'"


@pytest.mark.parametrize("tid", ["thm13", "thm11", "ch-d", "oracle-colored"])
def test_verify_n_max_with_order_is_usage_error(capsys, tid):
    # both bound the same scan; neither may be silently dropped
    code, out, err = run(capsys, "verify", "--theorem", tid, "--n-max", "2",
                         "--order", "5000")
    assert code == 2 and out == ""
    assert err.strip() == f"error: {tid}: n_max and order both bound the scan; give one"


@pytest.mark.parametrize("m, n", [(1100, 0), (0, 1100)])
def test_pmn_deep_index(capsys, m, n):
    # one recurrence step per index: far beyond the interpreter's
    # recursion limit.  P(m, 0) is the Lucas polynomial L_m(K) and
    # P(0, n) is L_n(4/K), so the two leading terms are known in closed form.
    code, out, _ = run(capsys, "pmn", "--m", str(m), "--n", str(n),
                       "--format", "json")
    assert code == 0
    terms = json.loads(out)["terms"]
    if n == 0:
        assert (terms[str(m)], terms[str(m - 2)]) == (1, m)
        assert min(map(int, terms)) == 0
    else:
        assert (terms[str(-n)], terms[str(2 - n)]) == (4 ** n, n * 4 ** (n - 2))
        assert max(map(int, terms)) == 0


_ORACLE_ROWS = {
    "crank": [(0, 1, 1), (1, -1, -3), (2, 2, 2), (3, -1, -1), (4, 5, 5),
              (5, -5, -5), (6, 3, 3)],
    "colored": [(0, 1, 1), (1, 3, 3), (2, 7, 7), (3, 16, 16), (4, 32, 32),
                (5, 61, 61), (6, 112, 112)],
}
_ORACLE_TEXT = {
    "crank": [
        "n=  0  enumeration=           1  coefficient=           1",
        "n=  1  enumeration=          -1  coefficient=          -3"
        "  (excluded: known discrepancy)",
        "n=  2  enumeration=           2  coefficient=           2",
        "n=  3  enumeration=          -1  coefficient=          -1",
        "n=  4  enumeration=           5  coefficient=           5",
        "n=  5  enumeration=          -5  coefficient=          -5",
        "n=  6  enumeration=           3  coefficient=           3",
    ],
    "colored": [
        "n=  0  enumeration=           1  coefficient=           1",
        "n=  1  enumeration=           3  coefficient=           3",
        "n=  2  enumeration=           7  coefficient=           7",
        "n=  3  enumeration=          16  coefficient=          16",
        "n=  4  enumeration=          32  coefficient=          32",
        "n=  5  enumeration=          61  coefficient=          61",
        "n=  6  enumeration=         112  coefficient=         112",
    ],
}


@pytest.mark.parametrize("n_max", [0, 1, 6])
@pytest.mark.parametrize("which", ["crank", "colored"])
def test_oracle_output_is_pinned(capsys, which, n_max):
    label, excluded = {"crank": ("crank-parity", [1]),
                       "colored": ("colored-partition", [])}[which]
    code, out, err = run(capsys, "oracle", "--which", which, "--n-max", str(n_max))
    verdict = f"PASS {label} (n <= {n_max}" + (", excluding [1])" if excluded else ")")
    assert (code, err) == (0, "")
    assert out == "\n".join(_ORACLE_TEXT[which][:n_max + 1] + [verdict]) + "\n"
    code, out, err = run(capsys, "oracle", "--which", which, "--n-max", str(n_max),
                         "--format", "json")
    rows = [{"n": n, "enumeration": e, "coefficient": c}
            for n, e, c in _ORACLE_ROWS[which][:n_max + 1]]
    assert (code, err) == (0, "")
    assert out == json.dumps({"oracle": label, "n_max": n_max, "excluded": excluded,
                              "rows": rows, "outcome": "pass"}) + "\n"


@pytest.mark.parametrize("tid, p, residues", [
    ("thm16", 11, "{13, 17, 19, 23} mod 24"),
    ("thm16", 65, "{13, 17, 19, 23} mod 24"),     # 5 * 13
    ("cr2", 13, "{7, 11} mod 12"),
    ("cr2", 35, "{7, 11} mod 12"),                # 5 * 7
    ("ch-h", 11, "{13, 17, 19, 23} mod 24"),
    ("ch-h", 65, "{13, 17, 19, 23} mod 24"),
])
def test_inadmissible_p_is_usage_error(capsys, tid, p, residues):
    # a p outside the residue classes, or composite inside them
    code, out, err = run(capsys, "verify", "--theorem", tid, "--p", str(p))
    assert (code, out) == (2, "")
    assert err == f"error: {tid}: p must be a prime in {residues}\n"


# ----------------------------------------------------------------------
# a reader that closes stdout early

_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _crankq(*argv, stdout=subprocess.PIPE, unbuffered=False):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [_SRC, os.environ.get("PYTHONPATH")])))
    flags = ["-u"] if unbuffered else []
    return subprocess.Popen([sys.executable, *flags, "-m", "crankq", *argv],
                            stdout=stdout, stderr=subprocess.PIPE, env=env)


def test_report_into_a_pipe_closed_after_the_first_line():
    # as `crankq report --format json | head -1`: unbuffered, so each
    # report line is its own write.  The 33 lines fit in a pipe, so the
    # run may also finish before the reader goes (status 1, f52 fails).
    proc = _crankq("report", "--format", "json", unbuffered=True)
    first = json.loads(proc.stdout.readline())
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) in (EXIT_CLOSED_PIPE, 1)
    assert first["task"] == "a51"
    assert err == b""


def test_expand_into_a_pipe_closed_after_twenty_bytes():
    # as `crankq expand --series p --order 100000 | head -c 20`, at an
    # order whose 2 MB line cannot fit in a pipe: the write must fail
    proc = _crankq("expand", "--series", "p", "--order", "20000")
    assert proc.stdout.read(20) == b"1, 1, 2, 3, 5, 7, 11"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == EXIT_CLOSED_PIPE
    assert err == b""


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["report", "--format", "json"],
                                  ["expand", "--series", "p", "--order", "50"]],
                         ids=["report", "expand"])
def test_pipe_closed_before_any_output(argv, unbuffered):
    # no reader at all: the first write fails, or with a buffered stdout
    # the flush at the end of main, and both give the closed-pipe status
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _crankq(*argv, stdout=write, unbuffered=unbuffered)
    finally:
        os.close(write)
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == EXIT_CLOSED_PIPE
    assert err == b""
