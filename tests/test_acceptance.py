"""Acceptance gate: every verification criterion at its stated scope.

All arithmetic is exact, so "tolerance" everywhere means exact equality
(of integers, or of residues for the modular claims).  Each criterion
prints one PASS/FAIL line; run with ``pytest -s`` to see them live, or
use ``crankq report`` for the same checks through the CLI.

Criterion 10f checks a refutation: the quoted three-term mod-25
reduction of the f(5n+2) column carries a misprinted middle term (f_10^2
where the surrounding exact algebra forces f_10^5).  It passes when the
faithful check ``f52`` refutes the quoted reduction at exponent 11 with
residues 20 vs 5 mod 25, and when the naive oracles of ``tests/oracles.py``
confirm that witness independently.  The repaired identity is verified
separately and does hold; see ``f52-corrected``.
"""

import json

from crankq.tasks import run_task

from oracles import naive_euler, naive_inv, naive_mul, naive_pow


def criterion(number, description, *reports):
    ok = all(r.passed for r in reports)
    print(f"ACCEPT {'PASS' if ok else 'FAIL'} #{number:<3} {description}")
    for r in reports:
        if not r.passed:
            print(f"    {r.text_line()}")
    assert ok, f"criterion {number} failed: " + "; ".join(
        r.text_line() for r in reports if not r.passed)


def refuted(number, description, report, witness):
    """Like :func:`criterion`, for a claim that must be refuted: passes
    when the report fails with exactly ``witness``."""
    ok = report.outcome == "fail" and report.witness == witness
    print(f"ACCEPT {'PASS' if ok else 'FAIL'} #{number:<3} {description}")
    if not ok:
        print(f"    {report.text_line()}")
    assert ok, (f"criterion {number} failed: expected witness="
                f"{json.dumps(witness)}, got {report.text_line()}")


def naive_eta(exponents, n, shift=0):
    """q^shift prod f_m^e below q^n, from the naive oracles only."""
    out = [1] + [0] * (n - 1)
    for m, e in exponents.items():
        f = naive_euler(m, n)
        out = naive_mul(out, naive_pow(f if e > 0 else naive_inv(f, n), abs(e), n), n)
    return ([0] * shift + out)[:n]


def naive_f52_column(n):
    """f(5j+2) for j < n: the exact column C(5i+4)/5 of C = f_1^3/f_2^2,
    convolved with sum q^(k(k+1)/2), then every fifth coefficient from 2."""
    f_order = 5 * n - 2
    c = naive_eta({1: 3, 2: -2}, 5 * f_order)
    assert all(c[5 * i + 4] % 5 == 0 for i in range(f_order))
    column = [c[5 * i + 4] // 5 for i in range(f_order)]
    triangular = {k * (k + 1) // 2 for k in range(f_order)}
    tri = [int(i in triangular) for i in range(f_order)]
    return naive_mul(tri, column, f_order)[2::5]


def naive_f52_reduction(middle_f10, n):
    """f_1^3 f_10^2/(f_2^2 f_5) - 5q f_10^e/(f_2 f_5^2)
    + 5q^2 f_1^2 f_10^8/f_5^4 below q^n, with e = ``middle_f10``."""
    terms = (naive_eta({1: 3, 10: 2, 2: -2, 5: -1}, n),
             naive_eta({10: middle_f10, 2: -1, 5: -2}, n, shift=1),
             naive_eta({1: 2, 10: 8, 5: -4}, n, shift=2))
    return [a - 5 * b + 5 * c for a, b, c in zip(*terms)]


def test_criterion_1_exact_column_identity():
    criterion(1, "C(5n+4) column equals 5 f_1^2 f_5 f_10^2 / f_2^4 to order 300",
              run_task("thm12", order=300))


def test_criterion_2_divisibility_classes():
    criterion(2, "5 | C(5n+4) for n <= 200 and 25 | C(125n+99) for n <= 1100",
              run_task("thm11", alpha=0, n_max=200),
              run_task("thm11", alpha=1, n_max=8))


def test_criterion_3_pentagonal_crank_sums():
    criterion(3, "pentagonal-weighted crank sums over 50n+49, /5, vanish mod 5",
              run_task("thm13", n_max=10))


def test_criterion_4_mod7_family():
    criterion(4, "a(7n+2) = 0 mod 7 for n <= 100 and d(7n+16) = 49 d(n/7)",
              run_task("thm14", n_max=100),
              run_task("ch-d", n_max=100))


def test_criterion_5_triangular_sums():
    criterion(5, "triangular sums: a over 25n+16 mod 5; C over 125n+114, /5, mod 25",
              run_task("thm15a", n_max=20),
              run_task("thm15b", n_max=7))


def test_criterion_6_square_sums_and_cubic_relation():
    criterion(6, "alternating-square sums at p=13 (shift 176) and the "
                 "h(13n+35) = +-13 h(n/13) relation with vanishing",
              run_task("thm16", p=13, n_max=1),
              run_task("ch-h", p=13, n_max=100, corollary_n_max=5))


def test_criterion_7_closing_congruences():
    criterion(7, "pentagonal sums of a over 25n+21 mod 5; cubic sums at p=7 "
                 "(shift 131)",
              run_task("cr1", n_max=20),
              run_task("cr2", p=7, n_max=1))


def test_criterion_8_identity_suite():
    criterion(8, "quintic dissections, K identities, four closed sums, "
                 "binomial congruences",
              run_task("dis31", order=150),
              run_task("dis32", order=150),
              run_task("k33", order=150),
              run_task("k34", order=150),
              run_task("theta-triangular", order=200),
              run_task("theta-squares", order=200),
              run_task("theta-pent", order=200),
              run_task("theta-cubic", order=200),
              run_task("binom", order=150, pairs=((1, 1),)),
              run_task("binom", order=150, pairs=((2, 1),)),
              run_task("binom", order=150, pairs=((1, 2),)))


def test_criterion_9_pmn_system():
    criterion(9, "P(m,n) recurrences, symbol/series agreement, five-term "
                 "combination and micro-identities",
              run_task("rec35", m_max=4, n_min=-3, n_max=3),
              run_task("rec36", m_max=4, n_min=-3, n_max=3),
              run_task("pmn-eval", order=100, m_max=4, n_min=-3, n_max=3),
              run_task("combo456", order=100))


def test_criterion_10_reduced_columns():
    criterion(10, "A(5n+4) column mod 5 with A(10n+9) vanishing; a(5n+1) "
                  "column mod 5",
              run_task("a54", order=150, n_max=100),
              run_task("a51", order=150))


def test_criterion_10_f_column_quoted_identity():
    """The faithful check of the quoted three-term reduction of the
    f(5n+2) column mod 25, at order 100, refutes it at exponent 11.

    The quoted middle term is -5q f_10^2/(f_2 f_5^2) where the exact
    algebra around it forces -5q f_10^5/(f_2 f_5^2).  Criterion 10f
    passes when ``f52`` reports exactly the witness below (residues 20
    vs 5 mod 25), and the naive oracles derive the same witness: the
    column agrees with the quoted reduction mod 25 below exponent 11,
    differs there with these residues, and agrees with the repaired
    reduction throughout.  The repaired identity is asserted in the
    companion test below.
    """
    witness = {"check": "identity", "exponent": 11, "lhs": 20, "rhs": 5}
    refuted("10f", "f(5n+2) column refutes the quoted three-term reduction "
                   "mod 25 at exponent 11 (known misprint; 20 vs 5)",
            run_task("f52", order=100, which="identity"), witness)

    n = witness["exponent"] + 1
    column = [x % 25 for x in naive_f52_column(n)]
    quoted = [x % 25 for x in naive_f52_reduction(2, n)]
    repaired = [x % 25 for x in naive_f52_reduction(5, n)]
    assert column == repaired
    assert column[:-1] == quoted[:-1]
    assert (column[-1], quoted[-1]) == (witness["lhs"], witness["rhs"])


def test_criterion_10_f_column_corrected_and_vanishing():
    criterion("10g", "f(5n+2) column matches the repaired reduction; "
                     "f(25n+22) vanishes mod 25 for n <= 10",
              run_task("f52-corrected", order=100),
              run_task("f52", which="vanishing", n_max=10))


def test_criterion_11_oracles():
    criterion(11, "enumeration oracles match the series (crank parity "
                  "excludes the documented n=1 discrepancy)",
              run_task("oracle-crank", n_max=40),
              run_task("oracle-colored", n_max=35))


def test_criterion_12_smoke_congruences():
    criterion(12, "partition congruences mod 5, 7, 11 for n <= 100",
              run_task("smoke5", n_max=100),
              run_task("smoke7", n_max=100),
              run_task("smoke11", n_max=100))
