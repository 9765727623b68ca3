"""Sparse-factor passes against the naive oracles and the dense route.

Every eta quotient, R(q) and P(m,n) evaluation the package builds goes
through ``series.sparse_pass``; these tests compare the kernel and what
is built on it, coefficient for coefficient, with
``tests/oracles.py``, with a local copy of the dense route (powers of
whole series and ``Series.invert``) that the passes replaced, and with a
local copy of the unblocked per-coefficient kernel that the blocked one
replaced, and with local copies of the corner-first and the centre-out
P(m,n) lattice walks that the hub walk replaced, and of the ladder that
climbed its first step out of 1 by passes.  Multiplies that run on one
packed integer are also checked at the edges of their slots.
Planned eta quotients are also compared with the plain route, |e| passes
of f_m.
"""

import copy
import random
from functools import cache, partial
from math import sqrt
from typing import Iterator

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crankq import etaq, series, tasks
from crankq.errors import CrankqError
from crankq.etaq import (NAMED_SPECS, SUMS, EtaQuotientSpec, Factor, SeriesName,
                         ThetaKind, apply_factors, eta_factors, eta_quotient,
                         eta_series, factor_product, named_series,
                         plan_quotient, rr_factors, rr_stretch, theta_terms)
from crankq.kalgebra import (KPolynomial, PmnIndex, _check_grid, eval_at_K,
                             eval_at_K_many, pmn, pmn_series, pmn_series_grid)
from crankq.report import first_mismatch
from crankq.series import Series, sparse_pass
from crankq.tasks import run_task

from oracles import (RR_TERMS, naive_euler, naive_inv, naive_mul, naive_pow,
                     naive_residue_product)

DIFF = settings(max_examples=40, deadline=None)


@st.composite
def sparse_factor(draw):
    """A dense list of length n and the terms of some 1 + sum c q^k, with
    exponents allowed past the list's end."""
    n = draw(st.integers(1, 60))
    coeffs = draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n))
    ks = sorted(draw(st.sets(st.integers(1, n + 5), max_size=8)))
    cs = draw(st.lists(st.integers(-4, 4).filter(bool), min_size=len(ks),
                       max_size=len(ks)))
    return coeffs, list(zip(ks, cs))


def dense_of(terms, n):
    out = [1] + [0] * (n - 1)
    for k, c in terms:
        if k < n:
            out[k] = c
    return out


@given(sparse_factor(), st.integers(1, 3))
@DIFF
def test_multiply_pass_matches_naive_product(case, e):
    coeffs, terms = case
    n = len(coeffs)
    got = list(coeffs)
    sparse_pass(got, terms, e)
    assert got == naive_mul(coeffs, naive_pow(dense_of(terms, n), e, n), n)


@given(sparse_factor(), st.integers(1, 3))
@DIFF
def test_divide_pass_matches_naive_inverse(case, e):
    coeffs, terms = case
    n = len(coeffs)
    got = list(coeffs)
    sparse_pass(got, terms, -e)
    inverse = naive_pow(naive_inv(dense_of(terms, n), n), e, n)
    assert got == naive_mul(coeffs, inverse, n)


@given(sparse_factor(), st.integers(1, 3))
@DIFF
def test_divide_after_multiply_round_trips(case, e):
    coeffs, terms = case
    got = list(coeffs)
    sparse_pass(got, terms, e)
    sparse_pass(got, terms, -e)
    assert got == coeffs


def reference_pass(coeffs, terms, e=1):
    """The unblocked kernel the blocked one replaced: one comprehension
    per term to multiply, the scalar recurrence over every term to divide."""
    n = len(coeffs)
    for _ in range(e):
        src = coeffs[:]
        for k, c in terms:
            if k >= n:
                break
            coeffs[k:] = [x + c * y for x, y in zip(coeffs[k:], src)]
    for _ in range(-e):
        for i in range(1, n):
            s = coeffs[i]
            for k, c in terms:
                if k > i:
                    break
                s -= c * coeffs[i - k]
            coeffs[i] = s


def check_pass(coeffs, terms, e):
    """sparse_pass against the reference kernel and, up to n = 300, the
    naive oracles (quadratic in n, so too slow for the longest lists)."""
    n = len(coeffs)
    got, ref = list(coeffs), list(coeffs)
    sparse_pass(got, terms, e)
    reference_pass(ref, terms, e)
    assert got == ref
    if n > 300:
        return
    factor = dense_of(terms, n)
    if e < 0:
        factor = naive_inv(factor, n)
    assert got == naive_mul(coeffs, naive_pow(factor, abs(e), n), n)


BLOCK = series._BLOCK
# exponents at and around the first multiples of the divide block, and
# around the first exponent of each far-term octave, BLOCK 2^j for j <= 4
NEAR_BLOCKS = sorted(({j * BLOCK + d for j in range(5) for d in (-2, -1, 0, 1, 2)}
                      | {(BLOCK << j) + d for j in range(5) for d in (-1, 0, 1)})
                     - {-2, -1, 0})


@st.composite
def blocked_factor(draw):
    """A dense list of length n <= 1300 and the terms of some 1 + sum c q^k
    whose exponents sit at and around block multiples and octave starts
    and past n, with +-1 and weighted coefficients mixed.  The entries of
    the list come from a drawn seed, so long lists stay cheap to draw."""
    n = draw(st.integers(1, 300) | st.integers(301, 1300))
    rng = random.Random(draw(st.integers(0, 2**32)))
    coeffs = [rng.randint(-20, 20) for _ in range(n)]
    ks = draw(st.sets(st.sampled_from(NEAR_BLOCKS) | st.integers(1, n + 70),
                      min_size=1, max_size=12))
    cs = draw(st.lists(st.sampled_from([1, -1, 1, -1, 2, -3, 5]),
                       min_size=len(ks), max_size=len(ks)))
    return coeffs, list(zip(sorted(ks), cs))


@given(blocked_factor(), st.integers(-3, 3))
@DIFF
def test_blocked_pass_matches_naive_and_reference(case, e):
    check_pass(*case, e)


# list lengths around multiples of the block and around 64 and 128, lists
# shorter than one block whose terms near their end are all near terms
@pytest.mark.parametrize("n", sorted({63, 64, 65, 128, 199, 300, BLOCK - 1, BLOCK,
                                      BLOCK + 1, 2 * BLOCK, 3 * BLOCK + 7}))
@pytest.mark.parametrize("e", [-3, -2, -1, 1, 2, 3])
@pytest.mark.parametrize("weights", [(1, -1), (1, -1, -1, 1, 2, 1, -1, -3)],
                         ids=["unit", "mixed"])
def test_pass_at_block_boundaries_matches_naive_and_reference(n, e, weights):
    # a term at every exponent near a block multiple, each of them +-1 in
    # the unit case, reaches every later block; one past the list's end
    # is skipped
    rng = random.Random(n * 10 + e)
    coeffs = [rng.randint(-9, 9) for _ in range(n)]
    ks = sorted({1, 2, 3} | {k for k in NEAR_BLOCKS if k < n + 3} | {n - 1, n, n + 1})
    check_pass(coeffs, [(k, weights[i % len(weights)]) for i, k in enumerate(ks)], e)


# ----------------------------------------------------------------------
# multiplies, each run on one packed integer, against the reference kernel
# and the naive oracles; the slots, packed at word widths through an array
# and at wider ones entry by entry

# +-1 as in eta and R(q), +-2 as in squares, +-(2k+1) as in jacobi
PACKED_WEIGHTS = [1, -1, 2, -2] + [s * (2 * k + 1) for k in range(1, 30) for s in (1, -1)]


@pytest.mark.parametrize("w", [1, 2, 4, 8, 11])
@pytest.mark.parametrize("start", [0, 1, 5])
def test_pack_round_trips_the_edges_of_its_slots(w, start):
    # the largest, the smallest and the most negative entry of a w-byte
    # slot, next to small ones, packed against the signed sum built by
    # shifts and read back from start on
    top = 1 << 8 * w - 1
    xs = [top - 1, 1 - top, -top, 0, -1, 1, -top, top - 1]
    biased, flip = series._pack(xs, w)
    assert flip == sum(top << 8 * w * i for i in range(len(xs)))
    assert biased - flip == sum(x << 8 * w * i for i, x in enumerate(xs))
    assert series._unpack(biased, w, len(xs), flip, start) == xs[start:]


@pytest.mark.parametrize("bits, w", [(8, 1), (9, 2), (16, 2), (17, 4), (32, 4),
                                     (33, 8), (64, 8), (65, 9), (72, 9), (73, 10)])
def test_slot_width_rounds_up_to_a_word_up_to_8_bytes(bits, w):
    # bits for max|x| = 2^(bits - 3) - 1 times 1 + q, whose 1 + sum |c| = 2
    # takes 2 bits, and a sign bit: up to 8 whole bytes are rounded up to
    # the next word width
    coeffs = [(1 << bits - 3) - 1, 0]
    assert series._slot_bytes(coeffs, [(1, 1)], 1) == w


@st.composite
def packed_factor(draw):
    """A list of length n <= 400 with entries up to +-2^300, the terms of
    some 1 + sum c q^k with 1 to 120 of them below n (and a few past it),
    a power e in 1..3 and, for e = 1, a resume point.  Up to three
    entries are replaced by the edge values of the slot width computed for
    the rest of the list."""
    live = draw(st.integers(1, 120))
    n = draw(st.integers(live + 1, 400))
    e = draw(st.integers(1, 3))
    rng = random.Random(draw(st.integers(0, 2**32)))
    size = 1 << draw(st.integers(0, 300))
    coeffs = [rng.randint(-size, size) for _ in range(n)]
    ks = sorted(rng.sample(range(1, n), live))
    terms = [(k, rng.choice(PACKED_WEIGHTS)) for k in ks]
    terms += [(k, 1) for k in sorted(draw(st.sets(st.integers(n, n + 9), max_size=2)))]
    top = 1 << 8 * series._slot_bytes(coeffs, terms[:live], e) - 1
    for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        coeffs[i] = rng.choice([top - 1, 1 - top, -top])
    start = draw(st.integers(0, n)) if e == 1 else 0
    return coeffs, terms, e, start


@given(packed_factor())
@example(([15] * 20, [(k, 1) for k in range(1, 15)], 1, 0))
@example(([-1] * 40, [(k, 2 * k + 1) for k in range(1, 15)], 3, 0))
@example(([127, -128, 5], [(1, 1)], 1, 1))
@DIFF
def test_packed_multiply_matches_reference_and_naive(case):
    coeffs, terms, e, start = case
    n = len(coeffs)
    live = [(k, c) for k, c in terms if k < n]
    packed = list(coeffs)
    series._packed_multiply(packed, live, e, start)
    check_pass(coeffs, terms, e)        # a fresh pass, through sparse_pass
    whole = list(coeffs)
    reference_pass(whole, terms, e)
    got = list(coeffs)
    sparse_pass(got, terms, e, start)
    assert got == packed == coeffs[:start] + whole[start:]


@pytest.mark.parametrize("size", [2 ** 4 - 2, 2 ** 5 - 2])
@pytest.mark.parametrize("e", [1, 2, 3])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("spare", [0, 1])
def test_packed_product_reaches_the_edge_of_its_slot(size, e, sign, spare):
    # size terms of weight 1, so 1 + sum |c| = 2^L - 1, and every entry
    # 2^b - 1: once the index passes e * size, an entry is
    # (2^b - 1)(2^L - 1)^e, whose bit length is b + e L.  With b + e L + 1
    # = 8 w (spare 0) it fills its slot up to the sign bit; with
    # b + e L = 8 (w - 1) (spare 1) it fills whole bytes, and the sign bit
    # takes one more.  A slot of exactly 8 bytes is a word, packed through
    # an array; one of 12 is packed entry by entry
    bits = (size + 1).bit_length()
    n = e * size + 5
    terms = [(k, 1) for k in range(1, size + 1)]
    for w in (8, 12):
        b = 8 * w - 1 - 7 * spare - e * bits
        coeffs = [sign * ((1 << b) - 1)] * n
        assert series._slot_bytes(coeffs, terms, e) == w
        got, want = list(coeffs), list(coeffs)
        sparse_pass(got, terms, e)
        reference_pass(want, terms, e)
        assert got == want
        assert got[-1] == sign * ((1 << b) - 1) * (2 ** bits - 1) ** e
        assert max(map(abs, got)).bit_length() == b + e * bits


def packed_multiplies(monkeypatch, run):
    """Calls of sparse_pass's packed multiply while ``run()`` builds from
    an empty cache."""
    calls = 0

    def counted(coeffs, terms, e, start):
        nonlocal calls
        calls += 1
        multiply(coeffs, terms, e, start)

    multiply = series._packed_multiply
    with monkeypatch.context() as patched:
        patched.setattr(etaq, "_CACHE", {})
        patched.setattr(series, "_packed_multiply", counted)
        run()
    return calls


# multiply passes, every one of them packed
@pytest.mark.parametrize("run, packed", [
    # the R(q) lattice walk and the K ladder of the P(m,n) grid at order 400
    (lambda: run_task("pmn-eval", order=400), 114),
    # d = jacobi(q) f_1 phi(-q^2) f_4 and A = phi(-q) jacobi(q^5)^2 /
    # jacobi(q^2): the multiply passes left after the laid-out pairs
    (lambda: (named_series("d", 4000), named_series("A", 4000)), 3),
], ids=["pmn-eval-400", "d-and-A-4000"])
def test_packed_multiplies_fire_where_the_terms_are_many(run, packed, monkeypatch):
    assert packed_multiplies(monkeypatch, run) == packed


def test_zero_power_is_no_pass():
    coeffs = [3, 1, 4, 1, 5]
    sparse_pass(coeffs, [(1, -1), (2, 7)], 0)
    assert coeffs == [3, 1, 4, 1, 5]


def test_theta_terms_of_f1_are_pentagonal():
    assert theta_terms(3, 1, 27) == [(1, -1), (2, -1), (5, 1), (7, 1),
                                     (12, -1), (15, -1), (22, 1), (26, 1)]
    for p, r in [(0, 0), (5, 5), (5, -1), (4, 1)]:
        with pytest.raises(ValueError):
            theta_terms(p, r, 10)


# ----------------------------------------------------------------------
# the centre-out u/v walk that the hub walk replaced, kept verbatim as a
# reference for values and for term-step counts

def climb(coeffs: list[int], factors: list[Factor], steps: int) -> Iterator[list[int]]:
    """Yield ``coeffs`` times X^0, X^1, ..., X^steps, X the product of
    ``factors``, every step by passes (divided by X when ``steps`` is
    negative).  One list is multiplied in place between yields, so a
    caller that keeps a power keeps a copy."""
    step = factors if steps >= 0 else [(name, m, -e) for name, m, e in factors]
    yield coeffs
    for _ in range(abs(steps)):
        apply_factors(coeffs, step)
        yield coeffs


_U = rr_factors(1, 1) + rr_factors(2, 2)    # u = q R1 R2^2, without its q
_V = rr_factors(1, 2) + rr_factors(2, -1)   # v = R1^2 / R2


def _direct_move(m: int, n: int) -> list[Factor]:
    """The factors of u^m v^n = R1^(m+2n) R2^(2m-n), without its q^m."""
    return rr_factors(1, m + 2 * n) + rr_factors(2, 2 * m - n)


def _row(x: list[int], sign: int, s: int, lo: int, hi: int) -> Iterator[list[int]]:
    """x v^(sign (n - s)) for n = lo, ..., hi, climbed outward from x, the
    point at n = s.  The points below s are kept until they are yielded;
    the rest are one list multiplied in place, as in :func:`climb`."""
    below = [y[:] for y in climb(x[:], _V, sign * (lo - s))]
    yield from reversed(below[1:])
    yield from climb(x, _V, sign * (hi - s))


def reference_centre_out_grid(m_min: int, m_max: int, n_min: int, n_max: int,
                              order: int) -> Iterator[tuple[PmnIndex, Series]]:
    """P(m, n) evaluated directly from the R-series on a grid, m-major.

    The two defining terms are t = q^m R1^(m+2n) R2^(2m-n) and its
    reciprocal, signed by (-1)^(m+n), with R1 = R(q), R2 = R(q^2).  As
    t = u^m v^n and 1/t = u^-m v^-n, the grid needs the lattice points
    +-(m, n), each one step of six passes from a neighbour.  The walk
    starts at the point of row m_min that the fewest passes reach from 1
    (1 itself when m_min = 0 and the n range holds 0), climbs the axis
    by u and u^-1 one row at a time, and climbs each row by v outward
    from its axis point.  Row m = 0 through 1 is climbed once, over the
    union of the n ranges of t and 1/t.  Only the current axis pair and
    row pair are kept.
    """
    if m_min < 0:
        raise ValueError("m must be >= 0")
    _check_grid(m_min, m_max, n_min, n_max)
    if order <= m_max:
        raise ValueError(f"order must exceed m = {m_max} for the reciprocal term")
    width = order + m_max        # 1/t(m, n) starts at q^-m
    s = min(range(n_min, n_max + 1),
            key=lambda n: sum(abs(e) for _, _, e in _direct_move(m_min, n)))
    axes = []
    for sign in (1, -1):
        x = [1] + [0] * (width - 1)
        apply_factors(x, _direct_move(sign * m_min, sign * s))
        axes.append(climb(x, _U, sign * (m_max - m_min)))
    for m, (t_axis, inv_axis) in enumerate(zip(*axes), m_min):
        if (m, s) == (0, 0):
            lo, hi = min(n_min, -n_max), max(n_max, -n_min)
            row = [y[:] for y in _row(t_axis[:], 1, 0, lo, hi)]
            pairs = ((row[n - lo], row[-n - lo]) for n in range(n_min, n_max + 1))
        else:
            pairs = zip(_row(t_axis[:], 1, s, n_min, n_max),
                        _row(inv_axis[:], -1, s, n_min, n_max))
        for n, (t, inv) in enumerate(pairs, n_min):
            sign = 1 if (m + n) % 2 == 0 else -1
            yield (PmnIndex(m, n), Series(-m, inv[:order + m], order)
                   + Series(m, t[:order - m], order) * sign)


# ----------------------------------------------------------------------
# factor lists applied in any order

ORDERED_LISTS = {
    **{f"plan-{name.value}": plan_quotient(spec) for name, spec in NAMED_SPECS.items()},
    "rr-1": rr_factors(1), "rr-2-inverse": rr_factors(2, -1),
    "lattice-u": _U, "lattice-v": _V,
    "lattice-v-inverse": [(name, m, -e) for name, m, e in _V],
}


@pytest.mark.parametrize("factors", ORDERED_LISTS.values(), ids=ORDERED_LISTS)
def test_shuffled_factors_give_the_same_list(factors):
    # apply_factors runs multiplies before divides; any order of exact
    # truncated passes gives the same list
    order = 320
    want = [1] + [0] * (order - 1)
    for name, m, e in factors:
        terms = SUMS[name][1](-(-order // m))
        reference_pass(want, [(m * k, c) for k, c in terms], e)
    rng = random.Random(order)
    for _ in range(3):
        shuffled = list(factors)
        rng.shuffle(shuffled)
        got = [1] + [0] * (order - 1)
        apply_factors(got, shuffled)
        assert got == want
        one_by_one = [1] + [0] * (order - 1)
        for factor in shuffled:
            apply_factors(one_by_one, [factor])
        assert one_by_one == want


# ----------------------------------------------------------------------
# eta quotients and R(q)

def naive_eta(exponents, n):
    """prod f_m^e below q^n, from the naive oracles only."""
    out = [1] + [0] * (n - 1)
    for m, e in exponents.items():
        f = naive_euler(m, n)
        out = naive_mul(out, naive_pow(f if e > 0 else naive_inv(f, n), abs(e), n), n)
    return out


@given(st.dictionaries(st.integers(1, 12), st.integers(-6, 6).filter(bool),
                       max_size=3),
       st.integers(-5, 5), st.integers(1, 120))
@DIFF
def test_eta_quotient_matches_naive_product(exponents, shift, width):
    order = shift + width
    got = eta_series(exponents, order, shift)
    assert got.order == order
    assert [got.coeff(shift + i) for i in range(width)] == naive_eta(exponents, width)
    assert got.valuation >= shift


@pytest.mark.parametrize("m", [2, 3, 5])
def test_rr_stretch_matches_naive_residue_product(m):
    # R(q^m) directly as a residue product mod 5m
    terms = [(m * r, e) for r, e in RR_TERMS]
    got = rr_stretch(m, 200)
    assert got.order == 200
    assert [got.coeff(n) for n in range(200)] == naive_residue_product(5 * m, terms, 200)


# ----------------------------------------------------------------------
# P(m, n) and K against the dense route the passes replaced

def naive_r(m, n):
    """R(q^m) below q^n as a Series, from the naive residue product."""
    return Series(0, naive_residue_product(5 * m, [(m * r, e) for r, e in RR_TERMS], n), n)


def dense_pmn_series(m, n, order):
    window = order + 2 * m
    t = ((naive_r(1, window) ** (m + 2 * n)) * (naive_r(2, window) ** (2 * m - n))).shift(m)
    signed = t if (m + n) % 2 == 0 else -t
    return (t.invert() + signed).truncate(order)


def dense_eval_at_K(p, order):
    if not p:
        return Series.zero(order)
    degrees = p.degrees()
    window = order + max(degrees[-1] - 1, 0)
    k_series = Series(-1, naive_eta({1: -1, 2: 1, 5: 5, 10: -5}, window + 1), window)
    k_inv = k_series.invert() if degrees[0] < 0 else None
    total = Series.zero(order)
    for d, c in p.items():
        if d == 0:
            piece = Series.const(c, window)
        elif d > 0:
            piece = (k_series ** d) * c
        else:
            piece = (k_inv ** (-d)) * c
        total = total + piece
    return total.truncate(order)


# the grid of the registry task pmn-eval
PMN_GRID = [(m, n) for m in range(5) for n in range(-3, 4)]


@pytest.mark.parametrize("m, n", PMN_GRID)
def test_pmn_series_matches_dense_route(m, n):
    for order in (m + 1, m + 2, 7, 90):
        assert pmn_series(m, n, order) == dense_pmn_series(m, n, order)


@pytest.mark.parametrize("m, n", PMN_GRID)
def test_eval_at_K_matches_dense_route(m, n):
    p = pmn(m, n)
    for order in (1, 2, 3, 7, 90):
        assert eval_at_K(p, order) == dense_eval_at_K(p, order)


LOW_DEGREE_POLYS = [KPolynomial({-3: 2}), KPolynomial({-5: 1, -1: 3}),
                    KPolynomial({-2: 1, 3: -2}), KPolynomial({4: -1}),
                    KPolynomial({0: 7}), KPolynomial()]


@pytest.mark.parametrize("p", LOW_DEGREE_POLYS)
def test_eval_at_K_at_orders_up_to_the_degree(p):
    # orders at or below |d| leave a negative-degree term K^d = O(q^|d|)
    # wholly above the window
    for order in range(1, 8):
        assert eval_at_K(p, order) == dense_eval_at_K(p, order)


# ----------------------------------------------------------------------
# the batched grid: one K ladder and one u/v lattice for many points

@pytest.mark.parametrize("order", [5, 6, 7, 90])
def test_batched_grid_matches_dense_routes_on_task_grid(order):
    # orders m_max + 1, m_max + 2, 7 and 90 on the pmn-eval grid
    direct = list(pmn_series_grid(0, 4, -3, 3, order))
    assert [tuple(index) for index, _ in direct] == PMN_GRID
    for (m, n), (_, got) in zip(PMN_GRID, direct):
        assert got == dense_pmn_series(m, n, order)
    symbolic = eval_at_K_many([pmn(m, n) for m, n in PMN_GRID], order)
    for (m, n), got in zip(PMN_GRID, symbolic, strict=True):
        assert got == dense_eval_at_K(pmn(m, n), order)


@pytest.mark.parametrize("m_min, m_max, n_min, n_max", [
    (0, 0, -3, 3),      # m_max = 0
    (0, 3, 1, 4),       # n_min > 0
    (0, 3, -4, -1),     # n_max < 0
    (2, 4, -1, 1),      # rows that do not start at m = 0
    (3, 3, 2, 2),       # one point, away from the origin
])
def test_batched_grid_shapes_match_dense_route(m_min, m_max, n_min, n_max):
    for order in (m_max + 1, m_max + 2, 7, 60):
        got = list(pmn_series_grid(m_min, m_max, n_min, n_max, order))
        want = [(m, n) for m in range(m_min, m_max + 1)
                for n in range(n_min, n_max + 1)]
        assert [tuple(index) for index, _ in got] == want
        for (m, n), (_, series) in zip(want, got):
            assert series == dense_pmn_series(m, n, order)
        if m_min == 0:
            params = {"m_max": m_max, "n_min": n_min, "n_max": n_max}
            assert run_task("pmn-eval", order=order, **params).passed


def test_batched_eval_at_orders_up_to_the_degree():
    # negative K-degrees wholly above the window share the ladder with
    # positive ones
    for order in range(1, 8):
        got = list(eval_at_K_many(LOW_DEGREE_POLYS, order))
        assert got == [dense_eval_at_K(p, order) for p in LOW_DEGREE_POLYS]


def test_batched_eval_of_nothing_is_empty():
    assert list(eval_at_K_many([], 10)) == []


def test_grid_refuses_empty_and_too_low_order():
    with pytest.raises(CrankqError):
        list(pmn_series_grid(0, 2, 1, 0, 10))
    with pytest.raises(CrankqError):
        list(pmn_series_grid(3, 2, 0, 0, 10))
    with pytest.raises(ValueError):
        list(pmn_series_grid(0, 4, 0, 0, 4))


def reference_pmn_grid(m_min, m_max, n_min, n_max, order):
    """The lattice walk the centre-out one replaced: the corners t(m_min,
    n_min) and 1/t(m_min, n_min) built from their factors, each row's first
    point climbed from the one before by u, and each row by v."""
    width = order + m_max
    corner = rr_factors(1, m_min + 2 * n_min) + rr_factors(2, 2 * m_min - n_min)
    firsts = []
    for sign in (1, -1):
        x = [1] + [0] * (width - 1)
        apply_factors(x, [(name, m, sign * e) for name, m, e in corner])
        firsts.append(climb(x, _U, sign * (m_max - m_min)))
    for m, (t_first, inv_first) in enumerate(zip(*firsts), m_min):
        row = zip(climb(t_first[:], _V, n_max - n_min),
                  climb(inv_first[:], _V, n_min - n_max))
        for n, (t, inv) in enumerate(row, n_min):
            sign = 1 if (m + n) % 2 == 0 else -1
            yield ((m, n), Series(-m, inv[:order + m], order)
                   + Series(m, t[:order - m], order) * sign)


@st.composite
def grid_shape(draw):
    """m_min >= 0 and n ranges that hold 0 or not, asymmetric ones too,
    with an order from m_max + 1 to 200."""
    m_min = draw(st.integers(0, 4))
    m_max = m_min + draw(st.integers(0, 3))
    n_min = draw(st.integers(-6, 5))
    n_max = n_min + draw(st.integers(0, 6))
    return m_min, m_max, n_min, n_max, draw(st.integers(m_max + 1, 200))


@given(grid_shape())
@DIFF
def test_centre_out_grid_matches_reference_lattice(shape):
    got = [(tuple(index), series) for index, series in pmn_series_grid(*shape)]
    assert got == list(reference_pmn_grid(*shape))


def grid_pass_log(monkeypatch, grid):
    """(|e|, |e| * terms) of each sparse pass run while a grid streams out:
    its passes and its term-steps, a term-step being one term of a sparse
    sum applied to one coefficient."""
    log = []

    def counted(coeffs, terms, e=1, start=0):
        log.append((abs(e), abs(e) * len(terms)))
        sparse_pass(coeffs, terms, e, start)

    with monkeypatch.context() as patched:
        patched.setattr(etaq, "sparse_pass", counted)
        for _ in grid:
            pass
    return log


def grid_passes(monkeypatch, grid):
    """The sparse passes run while a grid streams out."""
    return sum(passes for passes, _ in grid_pass_log(monkeypatch, grid))


def grid_term_steps(monkeypatch, grid):
    """The term-steps (per coefficient) run while a grid streams out."""
    return sum(steps for _, steps in grid_pass_log(monkeypatch, grid))


def test_default_grid_runs_298_passes(monkeypatch):
    # 63 lattice points u^i v^j, |i| <= 4, |j| <= 3: the centre-out walk
    # reached them from 1 by 62 steps of six passes, 372 passes and 8064
    # term-steps at order 400; the hub walk hangs rows +-1, +-2 and +-4
    # from the hubs of rows 0 and +-3, 300 passes and 5760 term-steps, and
    # lays out the multiply of its two moves out of 1, R1 and 1/R1; the
    # corner walk ran 444
    shape = (0, 4, -3, 3, 400)
    assert grid_passes(monkeypatch, pmn_series_grid(*shape)) == 298
    assert grid_term_steps(monkeypatch, pmn_series_grid(*shape)) == 5711
    assert grid_passes(monkeypatch, reference_centre_out_grid(*shape)) == 372
    assert grid_term_steps(monkeypatch, reference_centre_out_grid(*shape)) == 8064
    assert grid_passes(monkeypatch, reference_pmn_grid(*shape)) == 444


@pytest.mark.parametrize("m_min, m_max, n_min, n_max", [
    # the shapes of test_batched_grid_shapes_match_dense_route
    (0, 0, -3, 3), (0, 3, 1, 4), (0, 3, -4, -1), (2, 4, -1, 1), (3, 3, 2, 2),
    # one-point grids
    (0, 0, 0, 0), (0, 0, -3, -3), (1, 1, 2, 2), (2, 2, -1, -1), (4, 4, -3, -3),
    (5, 5, 0, 0),
])
def test_grid_runs_no_more_passes_than_reference(m_min, m_max, n_min, n_max,
                                                 monkeypatch):
    shape = (m_min, m_max, n_min, n_max, 60)
    assert (grid_passes(monkeypatch, pmn_series_grid(*shape))
            <= grid_passes(monkeypatch, reference_pmn_grid(*shape)))


@pytest.mark.parametrize("m_min, m_max, n_min, n_max", [
    # the shapes of test_grid_runs_no_more_passes_than_reference
    (0, 0, -3, 3), (0, 3, 1, 4), (0, 3, -4, -1), (2, 4, -1, 1), (3, 3, 2, 2),
    (0, 0, 0, 0), (0, 0, -3, -3), (1, 1, 2, 2), (2, 2, -1, -1), (4, 4, -3, -3),
    (5, 5, 0, 0),
    # the pmn-eval grid, by default and with --n-max 5
    (0, 4, -3, 3), (0, 4, -3, 5),
    # a column and a strip of rows away from 0, where the first chain is
    # built from its factors
    (3, 9, -3, -3), (4, 10, -2, -2), (1, 7, 1, 3),
])
def test_grid_runs_no_more_term_steps_than_centre_out(m_min, m_max, n_min, n_max,
                                                      monkeypatch):
    shape = (m_min, m_max, n_min, n_max, 60)
    log = grid_pass_log(monkeypatch, pmn_series_grid(*shape))
    assert all(passes for passes, _ in log)     # no pass at exponent 0
    assert (sum(steps for _, steps in log)
            <= grid_term_steps(monkeypatch, reference_centre_out_grid(*shape)))
    assert list(pmn_series_grid(*shape)) == list(reference_centre_out_grid(*shape))


# ----------------------------------------------------------------------
# first steps out of 1, laid out by _Product in place of passes

def reference_power_sums(sums, factors, order):
    """The ladder power_sums replaced: every step, the first one out of 1
    included, climbed by passes."""
    sums = [[t for t in terms if t[0] < order] for terms in sums]
    powers = {p for terms in sums for _, _, p in terms}
    low = min((s for terms in sums for s, _, _ in terms), default=0)
    ladder = {}
    for top in (max(powers, default=0), min(powers, default=0)):
        x = [1] + [0] * (order - low - 1)
        for k, xk in enumerate(climb(x, factors, top)):
            p = k if top >= 0 else -k
            if p in powers:
                ladder[p] = xk[:]
    for terms in sums:
        out = [0] * (order - low)
        for s, c, p in terms:
            out[s - low:] = [o + c * y for o, y in zip(out[s - low:], ladder[p])]
        yield Series(low, out, order)


# orders at and around 64, 256 and 512, the divide block sizes tried
AROUND_BLOCKS = [n + d for n in (64, 256, 512) for d in (-1, 0, 1)]
# the R(q^5) brackets of dis31 and dis32, one power alone, and no term
BRACKETS = [[(0, 1, -1), (1, -1, 0), (2, -1, 1)],
            [(0, 1, -4), (1, 1, -3), (2, 2, -2), (3, 3, -1), (4, 5, 0),
             (5, -3, 1), (6, 2, 2), (7, -1, 3), (8, 1, 4)],
            [(3, -2, 2)], [(0, 7, -1)], [(5, 1, 0)], []]


@pytest.mark.parametrize("order", AROUND_BLOCKS)
def test_ladders_match_climbs_from_1(order):
    polys = [pmn(m, n) for m, n in PMN_GRID]
    k_plan = plan_quotient(NAMED_SPECS[SeriesName.K_PARAM])
    assert list(eval_at_K_many(polys, order)) == list(reference_power_sums(
        [[(-d, c, d) for d, c in p.items()] for p in polys], k_plan, order))
    for factors in (rr_factors(5), _U, _V, [("jacobi", 1, 2), ("squares", 2, -1)]):
        assert (list(etaq.power_sums(BRACKETS, factors, order))
                == list(reference_power_sums(BRACKETS, factors, order)))


@pytest.mark.parametrize("order", AROUND_BLOCKS)
@pytest.mark.parametrize("shape", [(0, 1, -2, 2), (2, 4, -1, 1), (4, 7, -2, -2)])
def test_grid_matches_climbs_from_1(shape, order):
    # a grid with row 0 moves out of 1 by R1 and 1/R1; the other two reach
    # their first chain from 1 by the factors of one of its points
    assert (list(pmn_series_grid(*shape, order))
            == list(reference_centre_out_grid(*shape, order)))


def test_ladders_out_of_1_lay_out_their_first_step(monkeypatch):
    # at order 400 the K ladder of the default grid climbs K^1 .. K^4 and
    # K^-1 .. K^-3 by K's four passes, q^-1 psi(q) pent(q^5) / (f_2
    # jacobi(q^10)), 28 in all; the first step each way lays out its two
    # multiplies
    polys = [pmn(m, n) for m, n in PMN_GRID]
    assert grid_passes(monkeypatch, eval_at_K_many(polys, 400)) == 24
    # the tasks from an empty cache: dis31 and dis32 climb R(q^5) one and
    # four steps each way, then run their quotient's passes on the bracket
    # (f_25 one, f_25^5 / f_5^6 five), and combo456 climbs no ladder
    for tid, passes in (("dis31", 3), ("dis32", 20), ("combo456", 0)):
        monkeypatch.setattr(etaq, "_CACHE", {})
        assert grid_passes(monkeypatch, map(partial(run_task, order=400), [tid])) == passes


def test_grid_witness_is_first_failure_in_m_major_order(monkeypatch):
    # corrupt two points; (1, 2) comes first in m-major order, (3, -1)
    # would come first in n-major order
    bad = {(1, 2): KPolynomial({0: 1}), (3, -1): KPolynomial({-2: 5})}
    true_pmn = tasks.pmn
    monkeypatch.setattr(tasks, "pmn",
                        lambda m, n: bad.get((m, n)) or true_pmn(m, n))
    order = 40
    report = run_task("pmn-eval", order=order, m_max=4, n_min=-3, n_max=3)
    per_point = []
    for m, n in PMN_GRID:
        diff = first_mismatch(eval_at_K(tasks.pmn(m, n), order),
                              pmn_series(m, n, order), keys=("symbolic", "direct"))
        if diff:
            per_point.append({"m": m, "n": n, **diff})
    assert [(f["m"], f["n"]) for f in per_point] == [(1, 2), (3, -1)]
    assert not report.passed
    assert report.witness == per_point[0]


# ----------------------------------------------------------------------
# planned eta quotients: the plan, the plain route and the naive product

@cache
def euler(m, n):
    return tuple(naive_euler(m, n))


def naive_quotient(exponents, n):
    """prod f_m^e below q^n: numerator and denominator multiplied out from
    the sparse f_m, then one naive inverse of the denominator."""
    num, den = [1] + [0] * (n - 1), [1] + [0] * (n - 1)
    for m, e in exponents.items():
        for _ in range(abs(e)):
            if e > 0:
                num = naive_mul(euler(m, n), num, n)
            else:
                den = naive_mul(euler(m, n), den, n)
    return naive_mul(num, naive_inv(den, n), n) if any(den[1:]) else num


def planner_price(factors):
    """What plan_quotient minimises: the price of every pass at q^m, less
    the two dearest multiply passes, which _Product lays out with no pass."""
    passes = [(etaq._price(name, e) / sqrt(m), e > 0)
              for name, m, e in factors for _ in range(abs(e))]
    dearest = sorted((price for price, multiply in passes if multiply), reverse=True)
    return sum(price for price, _ in passes) - sum(dearest[:2])


def check_three_routes(spec, order):
    planned = eta_quotient(spec, order)
    plain = factor_product(eta_factors(spec), order, spec.shift)
    assert planned == plain
    width = order - spec.shift
    assert ([planned.coeff(spec.shift + i) for i in range(width)]
            == naive_quotient(dict(spec.factors), width))
    # the planner searches the plain route, or at each level a make-up of
    # f_m's power that costs no more
    plan = plan_quotient(spec)
    assert planner_price(plan) <= planner_price(eta_factors(spec)) + 1e-6
    # and the plan leads with its two dearest multiplies, which _Product lays out
    multiplies = [etaq._price(name, 1) / sqrt(m) for name, m, e in plan for _ in range(e)]
    assert multiplies[:2] == sorted(multiplies, reverse=True)[:2]


@given(st.dictionaries(st.sampled_from([1, 2, 4, 5, 10]),
                       st.integers(-8, 8).filter(bool), max_size=5),
       st.integers(-5, 5), st.integers(1, 150))
@DIFF
def test_planned_quotient_matches_plain_route_and_naive_product(exponents, shift,
                                                                 width):
    check_three_routes(EtaQuotientSpec.make(exponents, shift), shift + width)


@pytest.mark.parametrize("name", sorted(NAMED_SPECS, key=lambda n: n.value),
                         ids=lambda n: n.value)
def test_named_series_match_plain_route_and_naive_product(name):
    check_three_routes(NAMED_SPECS[name], 1500)
    assert named_series(name, 1500) == eta_quotient(NAMED_SPECS[name], 1500)


def test_K_ladder_matches_plain_route_and_naive_product():
    # K^d = q^-d (f_2 f_5^5 / (f_1 f_10^5))^d over the pmn-eval degrees
    k_spec = NAMED_SPECS[SeriesName.K_PARAM]
    order = 300
    degrees = range(-3, 5)
    ladder = eval_at_K_many([KPolynomial({d: 1}) for d in degrees], order)
    for d, got in zip(degrees, ladder, strict=True):
        power = EtaQuotientSpec.make({m: d * e for m, e in k_spec.factors}, -d)
        plain = factor_product([(name, m, d * e) for name, m, e in eta_factors(k_spec)],
                               order, -d)
        assert got == plain
        assert [got.coeff(-d + i) for i in range(order + d)] == naive_quotient(
            dict(power.factors), order + d)


@pytest.mark.parametrize("m", [1, 2, 5, 10])
@pytest.mark.parametrize("name", [name for name, (exps, _) in SUMS.items() if exps])
def test_each_sum_equals_its_eta_quotient(name, m):
    # the identity behind every planner row, Jacobi's cube included, at
    # q -> q^m against the naive product f_m^a f_2m^b
    order = 400
    a, b = SUMS[name][0]
    assert (factor_product([(name, m, 1)], order)
            == Series(0, naive_quotient({m: a, 2 * m: b}, order), order))


def test_identity_checks_do_not_build_through_the_plan(monkeypatch):
    # corrupt the q^1 coefficient of a ThetaKind row that K's plan uses
    # (triangular): theta-<row>, k33 and k34 compare against the plain
    # route, so each must now fail
    used = {name for name, _, _ in plan_quotient(NAMED_SPECS[SeriesName.K_PARAM])}
    row = next(kind.value for kind in ThetaKind if kind.value in used)
    assert row != ThetaKind.SQUARES.value
    exps, terms = SUMS[row]

    def corrupted(order):
        return [(k, c + (k == 1)) for k, c in terms(order)]

    monkeypatch.setitem(SUMS, row, (exps, corrupted))
    monkeypatch.setattr(etaq, "_CACHE", {})
    for tid in (f"theta-{row}", "k33", "k34"):
        assert not run_task(tid).passed, tid
    assert run_task("theta-squares").passed


# ----------------------------------------------------------------------
# resumed passes and cached products extended in place

@given(blocked_factor(), st.data())
@DIFF
def test_resumed_pass_matches_one_pass(case, data):
    # a pass over the first n0 entries, then resumed over the rest, equals
    # one pass over all of them; n0 sits at and around block multiples
    # and far-term exponents as often as anywhere else
    coeffs, terms = case
    n = len(coeffs)
    splits = {s for s in NEAR_BLOCKS + [k + d for k, _ in terms for d in (-1, 0, 1)]
              if 0 <= s <= n}
    n0 = data.draw(st.sampled_from(sorted(splits | {0, n})) | st.integers(0, n))
    for e in (1, -1):
        whole = list(coeffs)
        reference_pass(whole, terms, e)
        if e > 0:
            got = list(coeffs)
            sparse_pass(got, terms, 1, n0)
            assert got == coeffs[:n0] + whole[n0:]
        else:
            got = coeffs[:n0]
            sparse_pass(got, terms, -1)
            got += coeffs[n0:]
            sparse_pass(got, terms, -1, n0)
            assert got == whole


def test_resuming_more_than_one_pass_is_refused():
    with pytest.raises(ValueError):
        sparse_pass([1, 2, 3], [(1, 1)], -2, 1)


@st.composite
def factor_list(draw):
    """Up to three factors drawn from SUMS: weighted rows, +-1 rows and
    the halves of R(q), at q -> q^m, to powers -3..3."""
    names = draw(st.lists(st.sampled_from(sorted(SUMS)), min_size=0, max_size=3))
    return [(name, draw(st.sampled_from([1, 2, 3, 5])),
             draw(st.integers(-3, 3).filter(bool))) for name in names]


@st.composite
def ascending_orders(draw):
    """An ascending run of orders up to 330: at and around block
    multiples and the exponents of the sums, or anywhere."""
    far = [k + d for k, _ in SUMS["eta"][1](330) if k >= BLOCK for d in (-1, 0, 1)]
    points = (st.sampled_from([k for k in NEAR_BLOCKS if k <= 330] + far)
              | st.integers(1, 330))
    return sorted(draw(st.sets(points, min_size=1, max_size=5)))


def naive_factor_product(factors, n):
    """The product of factors below q^n from the naive oracles only."""
    out = [1] + [0] * (n - 1)
    for name, m, e in factors:
        base = dense_of([(m * k, c) for k, c in SUMS[name][1](n)], n)
        if e < 0:
            base = naive_inv(base, n)
        out = naive_mul(out, naive_pow(base, abs(e), n), n)
    return out


# Boundary cases of the multiply pair that factor_product and the cache
# lay out sparse by sparse: one sum twice, as in d (squares(1)^2); two
# weighted sums; eta(1)^2 below q^7, whose pair terms 1 + 5 and 2 + 5 land
# on n - 1 and on n; a pair followed by a multiply and by a divide.
SQUARED = [("squares", 1, 2)]
WEIGHTED_PAIR = [("jacobi", 1, 1), ("squares", 2, 1)]
EDGE_PAIR = [("eta", 1, 2)]
PAIR_THEN_MULTIPLY = [("squares", 1, 2), ("eta", 2, 1)]
PAIR_THEN_DIVIDE = [("jacobi", 1, 1), ("eta", 2, 1), ("squares", 2, -1)]
# two multiply passes after the pair, with and without a divide after
# them: an extension runs both fresh, and with no divide restores the
# prefix of the cached Series
PAIR_THEN_TWO_MULTIPLIES_THEN_DIVIDE = [("jacobi", 1, 2), ("eta", 2, 2), ("squares", 2, -1)]
PAIR_THEN_TWO_MULTIPLIES = [("squares", 1, 2), ("eta", 2, 2)]


@given(factor_list(), st.integers(-3, 3), st.integers(1, 150))
@example([], 2, 5)
@example(SQUARED, 0, 150)
@example(WEIGHTED_PAIR, -1, 150)
@example(EDGE_PAIR, 0, 7)
@example(PAIR_THEN_MULTIPLY, 0, 65)
@example(PAIR_THEN_DIVIDE, -3, 64)
@DIFF
def test_one_shot_product_matches_naive_product(factors, shift, width):
    # factor_product lays out the first two multiplies of the unit list
    # sparse by sparse rather than by passes
    order = shift + width
    want = Series(shift, naive_factor_product(factors, width), order)
    assert factor_product(factors, order, shift) == want


def reference_product(factors, n):
    """The product of factors below q^n, one reference_pass per factor."""
    out = [1] + [0] * (n - 1)
    for name, m, e in factors:
        reference_pass(out, [(m * k, c) for k, c in SUMS[name][1](n)], e)
    return out


class Draws:
    """Stands in for ``st.data()`` in an explicit example: hands out the
    given values in turn, whatever the strategy."""

    def __init__(self, *values):
        self.values = iter(values)

    def draw(self, strategy):
        return next(self.values)


@given(factor_list(), factor_list(), st.integers(-3, 3), ascending_orders(),
       ascending_orders(), st.data())
@example(SQUARED, WEIGHTED_PAIR, 0, [3, 64, 65, 200], [63, 64, 65],
         Draws(64, 1))
@example(EDGE_PAIR, EDGE_PAIR, 2, [5, 6, 7, 64, 65], [6, 7, 8], Draws(8, 7))
@example(PAIR_THEN_MULTIPLY, PAIR_THEN_DIVIDE, -1, [64, 65, 66],
         [1, 64, 65, 330], Draws(64, 65))
@example(PAIR_THEN_TWO_MULTIPLIES_THEN_DIVIDE, PAIR_THEN_TWO_MULTIPLIES, 1,
         [2, 64, 65, 200], [30, 64, 65, 201], Draws(100, 150))
@example(PAIR_THEN_TWO_MULTIPLIES, PAIR_THEN_TWO_MULTIPLIES_THEN_DIVIDE, -2,
         [1, 63, 64, 300], [64, 65, 330], Draws(3, 64))
@DIFF
def test_extended_products_match_one_shot_builds(first, second, shift, up1, up2,
                                                 data):
    # two cached products grown in turn along their own ascending runs:
    # every result equals a fresh build of the same order, and a later
    # lower request returns the truncation of the largest
    products = [(etaq._Product(first, shift), first, [shift + n for n in up1]),
                (etaq._Product(second), second, up2)]
    for step in range(max(len(up1), len(up2))):
        for product, factors, orders in products:
            if step < len(orders):
                order = orders[step]
                got = product.get(order)
                assert got == factor_product(factors, order, product.shift)
    for product, factors, orders in products:
        top = orders[-1]
        width = top - product.shift
        want = reference_product(factors, width)
        assert want == naive_factor_product(factors, width)
        assert product.get(top) == Series(product.shift, want, top)
        lower = data.draw(st.integers(product.shift + 1, top))
        assert product.get(lower) == product.get(top).truncate(lower)
        assert product.series.order == top


@pytest.mark.parametrize("orders", [(3, 64, 65, 200), (130, 131), (1, 503)])
def test_extended_f_matches_one_shot_build(orders, monkeypatch):
    # f's source is the exactly divided C column, read from C's entry
    monkeypatch.setattr(etaq, "_CACHE", {})
    for order in orders:
        column = (eta_series({1: 3, 2: -2}, 5 * order + 5).extract(5, 4)
                  .exact_div(5).truncate(order))
        coeffs = [0] * column.valuation + list(column.coeffs)
        apply_factors(coeffs, [("triangular", 1, 1)])
        assert named_series("f", order) == Series(0, coeffs, order)


@pytest.mark.parametrize("key", ["K", "d", "A"])
def test_an_extension_that_raises_leaves_the_entry_as_it_was(key, monkeypatch):
    # each runs two passes from 300 to 700: K two divides, d two
    # multiplies, A a multiply and a divide
    monkeypatch.setattr(etaq, "_CACHE", {})
    named_series(key, 300)
    entry = etaq._CACHE[etaq.resolve_name(key)]
    before, kept = entry.series, copy.deepcopy(entry.kept)
    calls = []

    def failing(coeffs, terms, e=1, start=0):
        calls.append(e)
        if len(calls) == 2:
            raise RuntimeError("the second pass")
        sparse_pass(coeffs, terms, e, start)

    monkeypatch.setattr(etaq, "sparse_pass", failing)
    with pytest.raises(RuntimeError, match="the second pass"):
        named_series(key, 700)
    assert entry.series == before and entry.series.order == 300
    assert entry.kept == kept
    monkeypatch.setattr(etaq, "sparse_pass", sparse_pass)
    assert named_series(key, 700) == eta_quotient(NAMED_SPECS[etaq.resolve_name(key)], 700)


# (sparse passes per build, lists kept) of each named series: the first
# two multiplies of the unit list, the plan's two dearest, are laid out
# sparse by sparse, so h runs no pass and C only its divide, and only a
# divide that is not the last keeps a list
NAMED_PASSES = {"p": (1, 0), "C": (1, 0), "a": (1, 0), "d": (2, 0), "h": (0, 0),
                "K": (2, 1), "A": (2, 0), "R": (1, 0)}


@pytest.mark.parametrize("key", NAMED_PASSES)
def test_named_builds_run_fixed_passes_and_keep_fixed_lists(key, monkeypatch):
    passes, kept = NAMED_PASSES[key]
    calls = []

    def counted(coeffs, terms, e=1, start=0):
        calls.append(e)
        sparse_pass(coeffs, terms, e, start)

    monkeypatch.setattr(etaq, "_CACHE", {})
    monkeypatch.setattr(etaq, "sparse_pass", counted)
    build = etaq.rr_series if key == "R" else partial(named_series, key)
    for order in (1, 30, 64, 65, 130, 700):     # fresh, then extended
        calls.clear()
        build(order)
        assert len(calls) == passes and all(e in (1, -1) for e in calls)
        entry = etaq._CACHE["R" if key == "R" else etaq.resolve_name(key)]
        assert len(entry.kept) == kept
        assert all(len(coeffs) == order - entry.shift for coeffs in entry.kept)
    calls.clear()
    build(300)                                  # a lower request is a hit
    assert calls == []
