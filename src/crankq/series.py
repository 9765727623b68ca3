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
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .errors import InexactDivision, NonUnitLeadingCoefficient, OrderExceeded

__all__ = ["Series", "sparse_pass"]


def _nnz(coeffs: tuple[int, ...]) -> int:
    return sum(1 for c in coeffs if c)


def sparse_pass(coeffs: list[int], terms: Sequence[tuple[int, int]],
                e: int = 1) -> None:
    """Multiply ``coeffs`` in place by ``(1 + sum c q^k)^e`` over ``terms``.

    ``terms`` holds the (k, c) of the sparse unit series, k >= 1 and
    ascending.  Each of the ``|e|`` passes costs ``len(coeffs)`` steps per
    term: a multiply (e > 0) is one slice comprehension per term, a divide
    (e < 0) the convolution recurrence ``b[n] = a[n] - sum c * b[n - k]``.
    The list is a truncation, and every entry stays exact.
    """
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


class Series:
    """Truncated Laurent series with exact integer coefficients."""

    __slots__ = ("valuation", "coeffs", "order")

    def __init__(self, valuation: int, coeffs: Iterable[int], order: int):
        coeffs = list(coeffs)
        if len(coeffs) != order - valuation:
            raise ValueError(
                f"coefficient window [{valuation}, {order}) needs "
                f"{order - valuation} entries, got {len(coeffs)}"
            )
        for c in coeffs:
            if not isinstance(c, int):
                raise TypeError(f"coefficients must be int, got {type(c).__name__}")
        lead = 0
        while lead < len(coeffs) and coeffs[lead] == 0:
            lead += 1
        if lead == len(coeffs):
            valuation, coeffs = order, []
        elif lead:
            valuation += lead
            coeffs = coeffs[lead:]
        self.valuation = valuation
        self.coeffs = tuple(coeffs)
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

    @classmethod
    def from_terms(cls, terms: Mapping[int, int] | Iterable[tuple[int, int]],
                   order: int) -> "Series":
        """Build a series from sparse (exponent, coefficient) data.

        Exponents at or above ``order`` are discarded: the result only
        claims the window it can see.
        """
        items = terms.items() if isinstance(terms, Mapping) else terms
        kept: dict[int, int] = {}
        for e, c in items:
            if e < order:
                kept[e] = kept.get(e, 0) + c
        kept = {e: c for e, c in kept.items() if c}
        if not kept:
            return cls.zero(order)
        val = min(kept)
        dense = [0] * (order - val)
        for e, c in kept.items():
            dense[e - val] = c
        return cls(val, dense, order)

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

    def first_diff(self, other: "Series", upto: Optional[int] = None) -> Optional[int]:
        """Lowest exponent where the two series disagree, or None.

        Comparison runs over the common validity window, additionally
        capped by ``upto`` when given.
        """
        limit = min(self.order, other.order)
        if upto is not None:
            limit = min(limit, upto)
        start = min(self.valuation, other.valuation, limit)
        for n in range(start, limit):
            if self._at(n) != other._at(n):
                return n
        return None

    def agree(self, other: "Series", upto: Optional[int] = None) -> bool:
        return self.first_diff(other, upto) is None

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
            lo = max(src.valuation, val)
            hi = min(src.order, order)
            for n in range(lo, hi):
                out[n - val] += src._at(n)
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
        if n_lo >= new_order:
            return Series.zero(new_order)
        out = [self._at(m * n + r) for n in range(n_lo, new_order)]
        return Series(n_lo, out, new_order)

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
        parts = []
        for e, c in self.terms():
            if len(parts) == 10:
                parts.append("+ ...")
                break
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                qpart = "q" if e == 1 else f"q^{e}"
                body = qpart if mag == 1 else f"{mag}*{qpart}"
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        parts.append(f"+ O(q^{self.order})" if parts else f"O(q^{self.order})")
        return " ".join(parts)

    __repr__ = __str__
