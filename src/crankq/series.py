"""Exact truncated Laurent series over arbitrary-precision integers.

A :class:`Series` stores dense integer coefficients for the exponent
window ``[valuation, order)``: entry ``i`` of ``coeffs`` is the
coefficient of ``q**(valuation + i)``.  Every exponent below ``order``
is exact; nothing is claimed at or above it.  The canonical zero has no
coefficients and ``valuation == order``.

Order propagation rules (stated here once, tested in the suite):

* ``a + b``            -> ``min(a.order, b.order)``
* ``a * b``            -> ``min(a.valuation + b.order, b.valuation + a.order)``
* ``a.invert()``       -> ``a.order - 2 * a.valuation``
* ``a.stretch(m)``     -> ``m * a.order`` (exponents that are not
  multiples of ``m`` are known to vanish, so the whole window below
  ``m * a.order`` is exact)
* ``a.extract(m, r)``  -> ``ceil((a.order - r) / m)``
* ``a.shift(s)``       -> ``a.order + s``

All values are immutable after construction and all operations are pure,
so series may be shared freely between threads.

:func:`sparse_pass` is the one product kernel: it multiplies or divides
a dense coefficient list, in place, by a sparse unit series
``1 + sum c q^k``.  Every eta quotient, R(q) and P(m,n) evaluation is a
sequence of such passes, and :meth:`Series.invert` is one divide pass.
Terms with coefficient +-1 (all of f_m, psi and both halves of R(q)) run
as C-level ``map`` slices, except the unit terms of a divide below
:data:`_BLOCK` = 256; those and the weighted terms cost one bytecode
step each per coefficient.  A divide pushes its far unit terms once per
finished block of their octave, 256, 512, 1024, ... entries: a smaller
block costs more in slices than the scalar loop it bypasses.
A pass can resume on a longer list where it stopped (``start``), which
is how the cached series of :mod:`crankq.etaq` grow to a higher order
without recomputing their prefix.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, sub
from typing import Iterable, Iterator, Optional, Sequence

from .errors import InexactDivision, NonUnitLeadingCoefficient, OrderExceeded

__all__ = ["Series", "sparse_pass", "signed_terms"]


def _nnz(coeffs: tuple[int, ...]) -> int:
    return sum(1 for c in coeffs if c)


def signed_terms(terms: Iterable[tuple[int, int]], var: str,
                 limit: Optional[int] = None) -> str:
    """The (exponent, coefficient) terms as ``-3*q^-1 + 1 - q^2``, in the
    order given; past ``limit`` terms, ``+ ...`` ends the text."""
    parts = []
    for e, c in terms:
        if len(parts) == limit:
            parts.append("+ ...")
            break
        mag = abs(c)
        power = var if e == 1 else f"{var}^{e}"
        body = str(mag) if e == 0 else power if mag == 1 else f"{mag}*{power}"
        sign = "-" if c < 0 else "+"
        parts.append(f"{sign} {body}" if parts else body if c > 0 else f"-{body}")
    return " ".join(parts)


# The smallest octave of a divide pass.  A unit term with k >= _BLOCK
# reaches only later blocks, so each finished block of its octave is pushed
# into them by one C-level map.  Smaller blocks pay more slices, larger ones
# keep more terms in the Python loop.  Pushing a 64- or 128-entry block
# costs more than the sign-split loop it bypasses: on C's f_2 divide and on
# rr-den, 256 against 64 took 0.91x the time at N = 404, 0.93-0.95x at
# 2004 and 4004, 0.84-0.96x at 10015 and 1.02x at 30000 (interleaved
# process-time medians).  Dropping the pushes altogether took 1.09-1.21x
# the time at N = 30000 and 1.19-1.32x at 75015, so they stay from 256 up.
_BLOCK = 256


def sparse_pass(coeffs: list[int], terms: Sequence[tuple[int, int]],
                e: int = 1, start: int = 0) -> None:
    """Multiply ``coeffs`` in place by ``(1 + sum c q^k)^e`` over ``terms``.

    ``terms`` holds the (k, c) of the sparse unit series, k >= 1 and
    ascending.  Each of the ``|e|`` passes costs ``len(coeffs)`` steps per
    term.  A multiply (e > 0) adds each shifted copy in one slice: a
    C-level ``map(add|sub, ...)`` for c = +-1, a comprehension otherwise.
    A divide (e < 0) runs the convolution recurrence
    ``b[n] = a[n] - sum c * b[n - k]``.  A unit term with k >= _BLOCK is
    far: it sits in the octave S <= k < 2S (S = _BLOCK, 2 _BLOCK, ...),
    reaches only entries at least S later, and is pushed forward by one
    ``map`` from each finished block of S entries, counted from
    ``start``.  The near unit terms and every weighted term run per
    coefficient: each joins the recurrence when the index reaches its k,
    into a +1, a -1 or a weighted list, so the loops neither test k nor
    multiply by +-1.  The list is a truncation, and every entry stays
    exact.

    ``start`` resumes one pass (e = +-1) that already ran on a list
    ``start`` long, so only the entries from ``start`` on are computed,
    at ``len(coeffs) - start`` steps per term.  A multiply reads its input
    from the whole list and writes the product over ``coeffs[start:]``,
    leaving ``coeffs[:start]`` as input.  A divide finds its quotient in
    ``coeffs[:start]`` and its new input after it: it first pushes the
    finished prefix through the far unit terms into the new entries, then
    runs the recurrence from ``start``, its octave blocks aligned there.
    A fresh pass is ``start = 0``.
    """
    n = len(coeffs)
    if start and e not in (1, -1):
        raise ValueError(f"only a single pass resumes, got e = {e}")
    for _ in range(e):
        src = coeffs[:]
        for k, c in terms:
            if k >= n:
                break
            lo = max(k, start)
            shifted = src if lo == k else src[lo - k:]
            if c == 1:
                coeffs[lo:] = map(add, coeffs[lo:], shifted)
            elif c == -1:
                coeffs[lo:] = map(sub, coeffs[lo:], shifted)
            else:
                coeffs[lo:] = [x + c * y for x, y in zip(coeffs[lo:], shifted)]
    if e >= 0:
        return
    near = [(k, c) for k, c in terms if k < _BLOCK or c not in (1, -1)]
    far = [(k, sub if c == 1 else add) for k, c in terms
           if k >= _BLOCK and c in (1, -1)]
    octaves: dict[int, list] = {}
    for k, op in far:
        octaves.setdefault(_BLOCK << (k // _BLOCK).bit_length() - 1, []).append((k, op))
    for _ in range(-e):
        for k, op in far if start else ():
            if k >= n:
                break
            lo = max(start - k, 0)
            coeffs[lo + k:start + k] = map(op, coeffs[lo + k:start + k],
                                           coeffs[lo:start])
        plus, minus, weighted = [], [], []
        joins = iter(near + [(n, 0)])
        k, c = next(joins)
        i = start
        while i < n:
            while k <= i:
                if c == 1:
                    plus.append(k)
                elif c == -1:
                    minus.append(k)
                else:
                    weighted.append((k, c))
                k, c = next(joins)
            # a segment ends at the next block end or where the next term joins
            hi = min(i - (i - start) % _BLOCK + _BLOCK, k, n)
            for i in range(i, hi):
                s = coeffs[i]
                for d in plus:
                    s -= coeffs[i - d]
                for d in minus:
                    s += coeffs[i - d]
                for d, w in weighted:
                    s -= w * coeffs[i - d]
                coeffs[i] = s
            i = hi
            for size, group in octaves.items():
                if (hi - start) % size:
                    continue
                lo = hi - size
                block = coeffs[lo:hi]
                for d, op in group:
                    if lo + d >= n:
                        break
                    coeffs[lo + d:hi + d] = map(op, coeffs[lo + d:hi + d], block)


class Series:
    """Truncated Laurent series with exact integer coefficients."""

    __slots__ = ("valuation", "coeffs", "order")

    def __init__(self, valuation: int, coeffs: Iterable[int], order: int):
        coeffs = tuple(coeffs)
        if len(coeffs) != order - valuation:
            raise ValueError(
                f"coefficient window [{valuation}, {order}) needs "
                f"{order - valuation} entries, got {len(coeffs)}"
            )
        if not all(map(isinstance, coeffs, repeat(int))):
            bad = next(c for c in coeffs if not isinstance(c, int))
            raise TypeError(f"coefficients must be int, got {type(bad).__name__}")
        lead = 0
        while lead < len(coeffs) and coeffs[lead] == 0:
            lead += 1
        if lead == len(coeffs):
            valuation, coeffs = order, ()
        elif lead:
            valuation += lead
            coeffs = coeffs[lead:]
        self.valuation = valuation
        self.coeffs = coeffs
        self.order = order

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, order: int) -> "Series":
        return cls(order, (), order)

    @classmethod
    def const(cls, c: int, order: int) -> "Series":
        if order < 1:
            raise ValueError("constant term needs order >= 1")
        if c == 0:
            return cls.zero(order)
        return cls(0, [c] + [0] * (order - 1), order)

    @classmethod
    def monomial(cls, c: int, exponent: int, order: int) -> "Series":
        if c == 0:
            return cls.zero(order)
        if exponent >= order:
            raise ValueError(f"exponent {exponent} not below order {order}")
        return cls(exponent, [c] + [0] * (order - exponent - 1), order)

    # ------------------------------------------------------------------
    # inspection

    def is_zero(self) -> bool:
        return not self.coeffs

    def _at(self, n: int) -> int:
        """Coefficient of q**n without an order check (internal)."""
        i = n - self.valuation
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def coeff(self, n: int) -> int:
        """Coefficient of q**n; zero below the valuation.

        Raises :class:`OrderExceeded` for ``n >= order``: the caller must
        recompute the series at a higher order instead of silently
        reading an unknown coefficient.
        """
        if n >= self.order:
            raise OrderExceeded(
                f"coefficient of q^{n} requested but series is only exact "
                f"below q^{self.order}"
            )
        return self._at(n)

    def terms(self) -> Iterator[tuple[int, int]]:
        """Yield (exponent, coefficient) for the nonzero entries."""
        for i, c in enumerate(self.coeffs):
            if c:
                yield self.valuation + i, c

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return (self.valuation == other.valuation
                and self.coeffs == other.coeffs
                and self.order == other.order)

    def __hash__(self) -> int:
        return hash((self.valuation, self.coeffs, self.order))

    def first_diff(self, other: "Series") -> Optional[int]:
        """Lowest exponent where the two series disagree, or None.

        Comparison runs over the common validity window.
        """
        limit = min(self.order, other.order)
        low = min(self.valuation, other.valuation)
        if low >= limit:
            return None
        if self.valuation != other.valuation:
            return low      # the lower one's leading coefficient is nonzero
        a, b = self.coeffs[:limit - low], other.coeffs[:limit - low]
        if a == b:
            return None
        return low + next(i for i, (x, y) in enumerate(zip(a, b)) if x != y)

    def agree(self, other: "Series") -> bool:
        return self.first_diff(other) is None

    # ------------------------------------------------------------------
    # ring operations

    def _lift(self, other) -> Optional["Series"]:
        if isinstance(other, Series):
            return other
        if isinstance(other, int):
            return Series.const(other, max(self.order, 1))
        return None

    def __add__(self, other) -> "Series":
        other = self._lift(other)
        if other is None:
            return NotImplemented
        order = min(self.order, other.order)
        val = min(self.valuation, other.valuation, order)
        out = [0] * (order - val)
        for src in (self, other):
            window = src.coeffs[:max(order - src.valuation, 0)]
            lo, hi = src.valuation - val, src.valuation - val + len(window)
            out[lo:hi] = map(add, out[lo:hi], window)
        return Series(val, out, order)

    __radd__ = __add__

    def __neg__(self) -> "Series":
        return Series(self.valuation, [-c for c in self.coeffs], self.order)

    def __sub__(self, other) -> "Series":
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Series":
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Series":
        if isinstance(other, int):
            if other == 0:
                return Series.zero(self.order)
            return Series(self.valuation, [other * c for c in self.coeffs],
                          self.order)
        if not isinstance(other, Series):
            return NotImplemented
        order = min(self.valuation + other.order, other.valuation + self.order)
        if self.is_zero() or other.is_zero():
            return Series.zero(order)
        val = self.valuation + other.valuation
        length = order - val
        if length <= 0:
            return Series.zero(order)
        # Schoolbook product; the operand with fewer nonzero entries
        # drives the outer loop so sparse factors cost O(N * nnz).
        a, b = self.coeffs, other.coeffs
        if _nnz(a) > _nnz(b):
            a, b = b, a
        out = [0] * length
        len_b = len(b)
        for i, ai in enumerate(a):
            if not ai:
                continue
            lim = length - i
            if lim <= 0:
                break
            seg = b if len_b <= lim else b[:lim]
            hi = i + len(seg)
            out[i:hi] = [x + ai * y if y else x for x, y in zip(out[i:hi], seg)]
        return Series(val, out, order)

    __rmul__ = __mul__

    def invert(self) -> "Series":
        """Multiplicative inverse, exact up to ``order - 2 * valuation``.

        With ``c = c0 * (1 + sum c0*c[k] q^k)`` and ``c0 = +-1`` the inverse
        is ``c0`` divided by that unit series (:func:`sparse_pass`), which
        stays in the integers exactly when the leading coefficient is a unit.
        """
        if self.is_zero():
            raise NonUnitLeadingCoefficient("the zero series has no inverse")
        c = self.coeffs
        c0 = c[0]
        if c0 not in (1, -1):
            raise NonUnitLeadingCoefficient(
                f"leading coefficient {c0} is not +-1; only units over the "
                f"integers are invertible"
            )
        b = [c0] + [0] * (len(c) - 1)
        sparse_pass(b, [(k, c0 * ck) for k, ck in enumerate(c) if ck and k], -1)
        return Series(-self.valuation, b, self.order - 2 * self.valuation)

    def __pow__(self, k: int) -> "Series":
        if not isinstance(k, int):
            return NotImplemented
        if k == 0:
            return Series.const(1, max(self.order, 1))
        if k < 0:
            return self.invert() ** (-k)
        result: Optional[Series] = None
        base = self
        e = k
        while True:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if not e:
                break
            base = base * base
        assert result is not None
        return result

    # ------------------------------------------------------------------
    # reindexing and reduction

    def shift(self, s: int) -> "Series":
        """Multiply by q**s (exponents move by s)."""
        if s == 0:
            return self
        return Series(self.valuation + s, self.coeffs, self.order + s)

    def stretch(self, m: int) -> "Series":
        """Substitute q -> q**m."""
        if m < 1:
            raise ValueError("stretch factor must be >= 1")
        if m == 1:
            return self
        if self.is_zero():
            return Series.zero(m * self.order)
        length = m * (self.order - self.valuation)
        out = [0] * length
        out[0::m] = self.coeffs
        return Series(m * self.valuation, out, m * self.order)

    def extract(self, m: int, r: int) -> "Series":
        """Arithmetic-progression component: sum of c(m*n + r) q**n.

        This is one piece of the m-dissection, reindexed so the result is
        again a series in q.
        """
        if m < 1:
            raise ValueError("dissection modulus must be >= 1")
        if not 0 <= r < m:
            raise ValueError(f"residue {r} not in [0, {m})")
        new_order = -((r - self.order) // m)  # ceil((order - r) / m)
        n_lo = -((r - self.valuation) // m)
        return Series(n_lo, self.coeffs[m * n_lo + r - self.valuation::m], new_order)

    def reduce_mod(self, modulus: int) -> "Series":
        """Reduce every coefficient to its least non-negative residue."""
        if modulus < 2:
            raise ValueError("modulus must be >= 2")
        return Series(self.valuation, [c % modulus for c in self.coeffs],
                      self.order)

    def exact_div(self, divisor: int) -> "Series":
        """Divide every coefficient exactly; raise InexactDivision otherwise."""
        if divisor == 0:
            raise ZeroDivisionError("exact_div by zero")
        out = []
        for i, c in enumerate(self.coeffs):
            quot, rem = divmod(c, divisor)
            if rem:
                raise InexactDivision(
                    f"coefficient {c} of q^{self.valuation + i} is not "
                    f"divisible by {divisor}"
                )
            out.append(quot)
        return Series(self.valuation, out, self.order)

    def truncate(self, new_order: int) -> "Series":
        """Restrict the validity claim to exponents below ``new_order``."""
        if new_order > self.order:
            raise ValueError(
                f"cannot extend order {self.order} to {new_order}"
            )
        if new_order == self.order:
            return self
        if new_order <= self.valuation:
            return Series.zero(new_order)
        return Series(self.valuation, self.coeffs[: new_order - self.valuation],
                      new_order)

    # ------------------------------------------------------------------

    def __str__(self) -> str:
        body = signed_terms(self.terms(), "q", limit=10)
        return f"{body} + O(q^{self.order})" if body else f"O(q^{self.order})"

    __repr__ = __str__
