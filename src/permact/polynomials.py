"""Exact polynomials over the integers, and the basis changes used
throughout the package: gamma expansions, the bivariate (s+t)/(st) basis,
the 2-adic peak-count scaling, q-factorials and exact division by p + q.

A polynomial in one variable is a tuple of int coefficients, constant term
first, in the form ``strip_zeros`` returns: the zero polynomial is (0,).
``IntPolynomial`` holds only the polynomials in (p, q), (p, q, t) and
(s, t), and ``uni`` turns a tuple into one for output.

All arithmetic is exact; there are no floats anywhere.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb
from typing import Iterable, Mapping, NamedTuple, Sequence


class NotSymmetricError(ValueError):
    """Coefficient sequence is not palindromic about the requested degree."""


class NonzeroRemainderError(ArithmeticError):
    """A peel-off expansion terminated with a nonzero remainder."""


class NoExpansionError(ArithmeticError):
    """The linear system for a basis expansion has no (unique) solution."""


class NonIntegralError(ArithmeticError):
    """An exact division or solve produced a non-integer where one was required."""


class IntPolynomial:
    """Sparse polynomial with integer coefficients in named variables.

    Terms are stored as a dict mapping exponent tuples to nonzero integer
    coefficients; the exponent tuple is aligned with ``vars``.

    >>> p, q = (IntPolynomial.variable(v, ("p", "q")) for v in "pq")
    >>> str((p + q) ** 2)
    'q^2 + 2pq + p^2'
    """

    __slots__ = ("vars", "terms")

    def __init__(
        self,
        variables: Iterable[str],
        terms: Mapping[tuple[int, ...], int] | Iterable[tuple[tuple[int, ...], int]] = (),
    ):
        self.vars: tuple[str, ...] = tuple(variables)
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[tuple[int, ...], int] = {}
        for exps, c in items:
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(self.vars):
                raise ValueError(f"exponent tuple {exps} does not match vars {self.vars}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            c = int(c)
            if c:
                clean[exps] = clean.get(exps, 0) + c
        self.terms = {e: c for e, c in clean.items() if c}

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, variables: Iterable[str]) -> "IntPolynomial":
        return cls(variables)

    @classmethod
    def constant(cls, variables: Iterable[str], c: int) -> "IntPolynomial":
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): int(c)})

    @classmethod
    def variable(cls, name: str, variables: Iterable[str] | None = None) -> "IntPolynomial":
        variables = (name,) if variables is None else tuple(variables)
        exps = tuple(1 if v == name else 0 for v in variables)
        if sum(exps) != 1:
            raise ValueError(f"{name!r} does not occur exactly once in {variables}")
        return cls(variables, {exps: 1})

    @classmethod
    def from_counts(
        cls, variables: Iterable[str], counts: Mapping[tuple[int, ...], int]
    ) -> "IntPolynomial":
        """The polynomial of an accumulated {exponents: count} tally; the
        constructor checks and copies every term, as for any mapping."""
        return cls(variables, counts)

    # -- ring operations ----------------------------------------------

    def _coerce(self, other: "IntPolynomial | int") -> "IntPolynomial":
        if isinstance(other, IntPolynomial):
            if other.vars != self.vars:
                raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")
            return other
        if isinstance(other, int):
            return IntPolynomial.constant(self.vars, other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return IntPolynomial(self.vars, terms)

    __radd__ = __add__

    def __mul__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial(self.vars, {e: c * other for e, c in self.terms.items()})
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return IntPolynomial(self.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "IntPolynomial":
        if k < 0:
            raise ValueError("negative power")
        result = IntPolynomial.constant(self.vars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.terms == IntPolynomial.constant(self.vars, other).terms
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.vars, frozenset(self.terms.items())))

    # -- inspection -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def swap_vars(self, a: str, b: str) -> "IntPolynomial":
        """Exchange two variables, keeping the variable tuple fixed."""
        i, j = self.vars.index(a), self.vars.index(b)
        terms = {}
        for exps, c in self.terms.items():
            e = list(exps)
            e[i], e[j] = e[j], e[i]
            terms[tuple(e)] = c
        return IntPolynomial(self.vars, terms)

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "vars": list(self.vars),
            "terms": [{"e": list(e), "c": c} for e, c in sorted(self.terms.items())],
        }

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, c in sorted(self.terms.items()):
            body = "".join(
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.vars, exps)
                if e
            )
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append("-" + body)
            else:
                parts.append(f"{c}{body}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"IntPolynomial({self.vars!r}, {dict(sorted(self.terms.items()))!r})"


def uni(coeffs: Sequence[int]) -> IntPolynomial:
    """The IntPolynomial in t of dense coefficients (constant first): the one
    conversion, made where a polynomial in t is printed."""
    return IntPolynomial(("t",), {(i,): c for i, c in enumerate(coeffs)})


# -- gamma expansion ----------------------------------------------------


def _add_gamma_term(coeffs: list[int], g: int, i: int, e: int) -> None:
    """Add g t^i (1+t)^e into a dense coefficient list."""
    for j in range(e + 1):
        coeffs[i + j] += g * comb(e, j)


class GammaExpansion(NamedTuple):
    """p(t) = sum_i gamma_i t^i (1+t)^(d-2i), for a palindrome of center d/2."""

    d: int
    gamma: tuple[int, ...]

    def reconstruct(self) -> tuple[int, ...]:
        """The polynomial in t; its t^m coefficient is sum_i gamma_i C(d-2i, m-i).

        >>> GammaExpansion(3, (1, 8)).reconstruct()
        (1, 11, 11, 1)
        """
        if self.gamma and 2 * (len(self.gamma) - 1) > self.d:
            raise ValueError(
                f"negative power: gamma has {len(self.gamma)} entries, d = {self.d}"
            )
        coeffs = [0] * (self.d + 1)
        for i, g in enumerate(self.gamma):
            _add_gamma_term(coeffs, g, i, self.d - 2 * i)
        return strip_zeros(coeffs)

    def to_json_dict(self) -> dict:
        return {"d": self.d, "gamma": list(self.gamma)}


def gamma_expand(p: Sequence[int], d: int) -> GammaExpansion:
    """Expand a palindromic polynomial in t in the t^i (1+t)^(d-2i) basis.

    >>> gamma_expand((1, 11, 11, 1), 3).gamma
    (1, 8)
    """
    if d < 0:
        raise ValueError("d must be nonnegative")
    if any(p[d + 1 :]):
        raise NotSymmetricError(f"degree exceeds d={d}")
    coeffs = list(p[: d + 1]) + [0] * (d + 1 - len(p))
    if coeffs != coeffs[::-1]:
        raise NotSymmetricError(f"coefficients {coeffs} are not palindromic for d={d}")
    gamma = []
    for i in range(d // 2 + 1):
        g = coeffs[i]
        gamma.append(g)
        if g:
            _add_gamma_term(coeffs, -g, i, d - 2 * i)
    if any(coeffs):
        raise NonzeroRemainderError(f"nonzero remainder {coeffs} after peeling")
    return GammaExpansion(d, strip_zeros(gamma))


def strip_zeros(xs: Sequence[int]) -> tuple[int, ...]:
    """Drop trailing zeros, keeping at least one entry.

    >>> strip_zeros([1, 2, 0, 0])
    (1, 2)
    """
    out = list(xs)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out) or (0,)


def dense(counts: Mapping[int, int]) -> tuple[int, ...]:
    """The polynomial sum of c t^k over the items (k, c) of a tally.

    >>> dense({2: 1, 0: 3})
    (3, 0, 1)
    """
    coeffs = [0] * (max(counts, default=0) + 1)
    for k, c in counts.items():
        coeffs[k] += c
    return strip_zeros(coeffs)


def peak_scale(cnt: int, i: int, n: int) -> int:
    """cnt * 2^(2i+1-n) for 2i < n, exactly: the coefficient of
    t^i (1+t)^(n-1-2i) that cnt words with i peaks contribute.  Raises
    NonIntegralError when the result is not an integer.

    >>> peak_scale(4, 0, 3)
    1
    """
    q, r = divmod(cnt, 1 << (n - 1 - 2 * i))
    if r:
        raise NonIntegralError(f"{cnt} * 2^({2 * i + 1 - n}) is not an integer")
    return q


# -- bivariate (s+t)^k (st)^j (1+st)^(n-k-1-2j) expansion -----------------


class GesselExpansion(NamedTuple):
    """F(s,t) = sum c[(k,j)] (s+t)^k (st)^j (1+st)^(n-k-1-2j)."""

    n: int
    coeffs: dict[tuple[int, int], int]

    def reconstruct(self) -> IntPolynomial:
        acc = IntPolynomial.zero(("s", "t"))
        for (k, j), c in sorted(self.coeffs.items()):
            acc = acc + c * _gessel_basis(self.n, k, j)
        return acc

    def negative_entries(self) -> list[tuple[int, int, int]]:
        return [(k, j, c) for (k, j), c in sorted(self.coeffs.items()) if c < 0]


def _gessel_pairs(n: int) -> list[tuple[int, int]]:
    return [(k, j) for j in range((n - 1) // 2 + 1) for k in range(n - 2 * j)]


def _gessel_basis(n: int, k: int, j: int) -> IntPolynomial:
    s = IntPolynomial.variable("s", ("s", "t"))
    t = IntPolynomial.variable("t", ("s", "t"))
    one = IntPolynomial.constant(("s", "t"), 1)
    return (s + t) ** k * (s * t) ** j * (one + s * t) ** (n - k - 1 - 2 * j)


@lru_cache(maxsize=None)
def _gessel_terms(n: int, k: int, j: int) -> tuple[tuple[int, int, int], ...]:
    """(s exponent, t exponent, coefficient) of every term of
    (s+t)^k (st)^j (1+st)^(n-1-k-2j): the term C(k,a) C(e,b) of
    s^(k-a) t^a (st)^(j+b), one per (a, b)."""
    e = n - 1 - k - 2 * j
    return tuple((k - a + j + b, a + j + b, comb(k, a) * comb(e, b))
                 for a in range(k + 1) for b in range(e + 1))


def gessel_expand(F: IntPolynomial, n: int) -> GesselExpansion:
    """The coefficients of F in the (s+t)^k (st)^j (1+st)^(n-1-k-2j) basis,
    by an integer peel on dense coefficients.

    The basis element of (k, j) has total degree at least D = k + 2j, and at
    degree D its terms run over t^j .. t^(D-j), starting with s^(D-j) t^j at
    coefficient 1.  So, taken by D ascending and then j ascending, each
    c(k, j) is the residual's coefficient at s^(D-j) t^j: the peel is
    triangular and divides by nothing.  Raises NoExpansionError when a
    residual is left.  Zero coefficients are dropped.

    >>> s, t = (IntPolynomial.variable(v, ("s", "t")) for v in "st")
    >>> gessel_expand(1 + s * t, 2).coeffs
    {(0, 0): 1}
    """
    if F.vars != ("s", "t"):
        raise ValueError("expected a polynomial in vars ('s', 't')")
    size = max([n, *(max(e) + 1 for e in F.terms)])
    rest = [[0] * size for _ in range(size)]
    for (a, b), c in F.terms.items():
        rest[a][b] = c
    values = {}
    for D in range(n):
        for j in range(D // 2 + 1):
            c = rest[D - j][j]
            if c:
                values[(D - 2 * j, j)] = c
                for a, b, x in _gessel_terms(n, D - 2 * j, j):
                    rest[a][b] -= c * x
    if any(map(any, rest)):
        raise NoExpansionError(f"no expansion exists for n={n}")
    return GesselExpansion(n, values)


def gessel_expand_via_solve(F: IntPolynomial, n: int) -> GesselExpansion:
    """Independent route to gessel_expand: solve for the coefficients with
    Fraction elimination over the sparse basis polynomials.

    Raises NoExpansionError if the system is inconsistent (or, defensively, if
    the basis were dependent) and NonIntegralError if a coefficient is not an
    integer.  Zero coefficients are dropped.
    """
    from fractions import Fraction  # on first use: only this oracle needs it

    if F.vars != ("s", "t"):
        raise ValueError("expected a polynomial in vars ('s', 't')")
    pairs = _gessel_pairs(n)
    basis = [_gessel_basis(n, k, j) for k, j in pairs]
    monomials = sorted(set(itertools.chain(F.terms, *(b.terms for b in basis))))
    # rows: one equation per monomial; columns: one unknown per basis element
    rows = [
        [Fraction(b.terms.get(m, 0)) for b in basis] + [Fraction(F.terms.get(m, 0))]
        for m in monomials
    ]
    ncols = len(pairs)
    pivot_of_col: dict[int, int] = {}
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivot_of_col[col] = r
        r += 1
    for i in range(r, len(rows)):
        if rows[i][ncols] != 0:
            raise NoExpansionError(f"no expansion exists for n={n}")
    if len(pivot_of_col) < ncols:
        raise NoExpansionError(f"basis is linearly dependent at n={n}; expansion ambiguous")
    values = {}
    for col, (k, j) in enumerate(pairs):
        val = rows[pivot_of_col[col]][ncols]
        if val.denominator != 1:
            raise NonIntegralError(f"coefficient c[{k},{j}] = {val} is not an integer")
        if val:
            values[(k, j)] = int(val)
    expansion = GesselExpansion(n, values)
    if expansion.reconstruct() != F:
        raise NoExpansionError("internal: reconstruction mismatch after solve")
    return expansion


# -- q-analogues ----------------------------------------------------------


def q_factorial(n: int) -> tuple[int, ...]:
    """[n]_q! = prod_k (1 + q + ... + q^(k-1)), by dense convolution: the
    factor k sums each k consecutive coefficients.

    >>> q_factorial(3)
    (1, 2, 2, 1)
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    acc = [1]
    for k in range(2, n + 1):
        acc = [sum(acc[max(0, m - k + 1) : m + 1]) for m in range(len(acc) + k - 1)]
    return tuple(acc)


# -- exact division --------------------------------------------------------


def divide_by_p_plus_q(f: IntPolynomial) -> IntPolynomial | None:
    """f / (p + q) for f in the variables (p, q), or None when p + q does
    not divide f exactly.

    p + q is homogeneous, so each total degree D of f divides on its own.
    Dense in p, f_D = sum c_a p^a q^(D-a), and the quotient's coefficients
    are b_a = c_a - b_(a-1) (synthetic division at p = -q): the division is
    exact iff b_(D-1) = c_D.

    >>> p, q = (IntPolynomial.variable(v, ("p", "q")) for v in "pq")
    >>> divide_by_p_plus_q(p * p + 2 * p * q + q * q) == p + q
    True
    """
    rows: dict[int, list[int]] = {}  # D -> [c_0, ..., c_D]
    for (i, j), c in f.terms.items():
        rows.setdefault(i + j, [0] * (i + j + 1))[i] = c
    quotient = {}
    for D, row in rows.items():
        b = 0
        for a in range(D):
            b = row[a] - b
            quotient[a, D - 1 - a] = b
        if b != row[D]:
            return None
    return IntPolynomial(f.vars, quotient)


# -- LaTeX rendering --------------------------------------------------------


def _latex_power(base: str, e: int) -> str:
    if e == 0:
        return ""
    if e == 1:
        return base
    return f"{base}^{e}" if e < 10 else f"{base}^{{{e}}}"


def latex_poly(p: IntPolynomial) -> str:
    """Deterministic LaTeX-ish rendering: terms sorted by descending exponents."""
    if not p.terms:
        return "0"
    parts = []
    for exps, c in sorted(p.terms.items(), reverse=True):
        body = "".join(_latex_power(v, e) for v, e in zip(p.vars, exps) if e)
        if not body:
            parts.append(str(c))
        elif c == 1:
            parts.append(body)
        elif c == -1:
            parts.append("-" + body)
        else:
            parts.append(f"{c}{body}")
    out = " + ".join(parts)
    return out.replace("+ -", "- ")


def latex_gamma_form(
    bs: Sequence[IntPolynomial | int], d: int, tvar: str = "t"
) -> str:
    """Render sum_i b_i t^i (1+t)^(d-2i), skipping zero b_i.

    >>> p = IntPolynomial.variable("p", ("p", "q"))
    >>> q = IntPolynomial.variable("q", ("p", "q"))
    >>> latex_gamma_form([1, p + q], 2)
    '(1+t)^2 + (p+q)t'
    """
    pieces = []
    for i, b in enumerate(bs):
        if isinstance(b, IntPolynomial):
            if b.is_zero():
                continue
            if b == 1:
                coeff = ""
            else:
                coeff = "(" + latex_poly(b).replace(" ", "") + ")"
        else:
            if b == 0:
                continue
            coeff = "" if b == 1 else str(b)
        factors = [coeff]
        factors.append(_latex_power(tvar, i))
        e = d - 2 * i
        if e > 0:
            factors.append(_latex_power(f"(1+{tvar})", 1) if e == 1 else f"(1+{tvar})^{e}")
        body = "".join(factors)
        pieces.append(body if body else "1")
    return " + ".join(pieces) if pieces else "0"
