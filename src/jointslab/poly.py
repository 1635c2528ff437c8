"""Sparse multivariate polynomials, coordinate maps and expansion rows.

Polynomials are maps from exponent vectors (tuples of d nonnegative
ints) to nonzero field elements.  The canonical monomial enumeration is
graded lexicographic with x1 > x2 > ... > xd, which fixes the row layout
used by the vanishing-basis machinery.

A parametrization phi is read through its coordinate maps: x_i(phi(t))
as a {beta: c} map over the t variables, one per x_i, each value an
``int`` where it is integral.  ``affine_coordinates`` and
``shifted_coordinates`` give those of x = A y + b and x = z + y.
``expansion_row`` evaluates g -> [t^gamma] g(phi(t)) on every monomial;
every vanishing-condition row, ledger and rank rows alike, is one, and
so is the coefficient list of every derivative operator.  Over Q a row
is built in ints when the coordinates are, as the one reader below makes
them.
``coefficient_along`` is the one reader of [t^gamma] g(phi(t)) for a
given g, g's coefficients summed against that row: ``polynomial_along``
(and through it ``Polynomial.substitute`` and ``taylor_shift``),
``Polynomial.evaluate``, ``lowest_term`` (and through it
``vanishing_order``), ``HasseOperator.evaluate``, the hypersurface
framing, gradient and series solve, and the witness all call it.  Over Q
it reads in ints: the row is read along the coordinates times the lcm D
of their denominators (``_integral_coordinates``), g's coefficients are
read over their common denominator, and only the quotient is a
``Fraction``; coordinates that are all ints are read as they are.
``AffineMap`` holds a map built from outside values, a graph member's
frame or a test's map, with its inverse; no library code builds one.
``HasseOperator`` acts by Hasse^w x^e = C(e, w) x^(e-w), the binomial
computed coordinatewise over Z and then reduced into the field, which
keeps the calculus correct in small characteristic; it is library API
and the test oracle for the rows, and no pipeline or verify path builds
one.  ``conjugate_operator`` is the operator's change of frame, kept as
the oracle of ``varieties.derivative_operator``.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .errors import DimensionMismatch, MalformedInput, SingularMap
from .field import FieldElement, FieldSpec, as_int, binom

ExponentVector = tuple

NEG_INF = -math.inf


# ---------------------------------------------------------------------------
# Monomial enumeration (graded lex, x1 > x2 > ... > xd)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def exponents_of_degree(d: int, r: int) -> tuple:
    """All exponent vectors in d variables of total degree exactly r,
    in lexicographic order with the first variable dominant."""
    if d == 0:
        return ((),) if r == 0 else ()
    if d == 1:
        return ((r,),)
    out = []
    for e1 in range(r, -1, -1):
        for rest in exponents_of_degree(d - 1, r - e1):
            out.append((e1,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def monomials_upto(d: int, n: int) -> tuple:
    """Graded-lex enumeration of all monomials of degree at most n."""
    out = []
    for r in range(n + 1):
        out.extend(exponents_of_degree(d, r))
    return tuple(out)


def grlex_key(exps: ExponentVector):
    return (sum(exps), tuple(-e for e in exps))


# ---------------------------------------------------------------------------
# Polynomial
# ---------------------------------------------------------------------------


class Polynomial:
    """Sparse polynomial over a FieldSpec in a fixed number of variables."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field: FieldSpec, nvars: int, terms: dict | None = None):
        self.field = field
        self.nvars = nvars
        self.terms = {e: c for e, c in (terms or {}).items() if c}

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, field, nvars):
        return cls(field, nvars)

    @classmethod
    def constant(cls, field, nvars, c):
        c = field.of(c)
        return cls(field, nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, field, nvars, i):
        e = [0] * nvars
        e[i] = 1
        return cls(field, nvars, {tuple(e): field.one})

    @classmethod
    def monomial(cls, field, nvars, exps, c=None):
        c = field.one if c is None else field.of(c)
        return cls(field, nvars, {tuple(exps): c})

    # -- basics --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self):
        """Total degree; -inf for the zero polynomial."""
        if not self.terms:
            return NEG_INF
        return max(sum(e) for e in self.terms)

    def coefficient(self, exps) -> FieldElement:
        return self.terms.get(tuple(exps), self.field.zero)

    def _check(self, other: "Polynomial"):
        if self.nvars != other.nvars or self.field != other.field:
            raise DimensionMismatch("polynomial rings do not match")

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field, self.nvars, frozenset(self.terms.items())))

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        self._check(other)
        F = self.field
        terms = dict(self.terms)
        for e, c in other.terms.items():
            _accumulate(F, terms, e, c)
        return Polynomial(F, self.nvars, terms)

    def __neg__(self):
        F = self.field
        return Polynomial(F, self.nvars, {e: F.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        F = self.field
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                _accumulate(F, terms, tuple(a + b for a, b in zip(e1, e2)), F.mul(c1, c2))
        return Polynomial(F, self.nvars, terms)

    def evaluate(self, point) -> FieldElement:
        """g(point), the t^0 coefficient of g along the constant
        coordinates point, which ``coefficient_along`` reads."""
        return coefficient_along(self, [{(): as_int(self.field.of(x))} for x in point], (), {})

    def substitute(self, images: list) -> "Polynomial":
        """Substitute variable i -> images[i] (polynomials over the same
        field, all in a common ring): ``polynomial_along`` their terms."""
        nv = images[0].nvars if images else 0
        if any(h.nvars != nv or h.field != self.field for h in images):
            raise DimensionMismatch("images must lie in one ring over the polynomial's field")
        # integral values as ints: over Q the rows are then built in ints
        return polynomial_along(self, [{e: as_int(c) for e, c in h.terms.items()}
                                       for h in images], nv)

    # -- text form -----------------------------------------------------

    def __repr__(self):
        return f"Polynomial({format_poly(self)!r})"


# ---------------------------------------------------------------------------
# Text serialization: "coeff * x1^e1 x2^e2" terms joined by " + "
# ---------------------------------------------------------------------------


def format_poly(g: Polynomial) -> str:
    if g.is_zero():
        return "0"
    parts = []
    for e in sorted(g.terms, key=grlex_key):
        c = g.terms[e]
        factors = []
        for i, k in enumerate(e):
            if k == 1:
                factors.append(f"x{i + 1}")
            elif k > 1:
                factors.append(f"x{i + 1}^{k}")
        if factors:
            parts.append(f"{c} * " + " ".join(factors))
        else:
            parts.append(str(c))
    return " + ".join(parts)


def _accumulate(F: FieldSpec, terms: dict, e, c) -> None:
    """terms[e] += c in a sparse {exponent: coefficient} map, the term
    dropped when the sum is zero."""
    s = F.add(terms.get(e, F.zero), c)
    if s:
        terms[e] = s
    else:
        terms.pop(e, None)


_COEFF = re.compile(r"-?\d+(?:/\d*[1-9]\d*)?")
_FACTOR = re.compile(r"x(\d+)(?:\^(\d+))?")


def parse_poly(text: str, field: FieldSpec, nvars: int) -> Polynomial:
    """Read the text form written by ``format_poly``.

    Terms are joined by '+'.  A term is a coefficient (an integer or a/b,
    with an optional leading '-'), a monomial, or 'coefficient * monomial';
    a monomial is factors x<i> or x<i>^<e> separated by spaces, with
    1 <= i <= nvars and e >= 1.  Anything else, such as '-' between terms
    or '2 x1', raises MalformedInput.
    """
    text = text.strip()
    if text in ("", "0"):
        return Polynomial.zero(field, nvars)
    F = field
    terms: dict = {}
    for part in text.split("+"):
        coeff_s, star, mono_s = (s.strip() for s in part.partition("*"))
        if not star and coeff_s.startswith("x"):
            coeff_s, mono_s = "1", coeff_s
        if not _COEFF.fullmatch(coeff_s) or (star and not mono_s):
            raise MalformedInput(f"malformed term {part.strip()!r} in {text!r}")
        exps = [0] * nvars
        for factor in mono_s.split():
            m = _FACTOR.fullmatch(factor)
            if not m or not 1 <= int(m[1]) <= nvars or (m[2] and int(m[2]) < 1):
                raise MalformedInput(f"malformed factor {factor!r} in a ring of {nvars} variables")
            exps[int(m[1]) - 1] += int(m[2] or 1)
        _accumulate(F, terms, tuple(exps), F.of(Fraction(coeff_s)))
    return Polynomial(field, nvars, terms)


# ---------------------------------------------------------------------------
# Hasse calculus
# ---------------------------------------------------------------------------


def binom_vec(a, b) -> int:
    """Coordinatewise product of binomials C(a_i, b_i) over Z."""
    out = 1
    for x, y in zip(a, b):
        out *= binom(x, y)
        if out == 0:
            return 0
    return out


def hasse_apply(omega, g: Polynomial) -> Polynomial:
    """Hasse^omega applied to g."""
    if len(omega) != g.nvars:
        raise DimensionMismatch("operator/ring dimension mismatch")
    F = g.field
    terms: dict = {}
    for e, c in g.terms.items():
        if any(ei < wi for ei, wi in zip(e, omega)):
            continue
        b = F.of(binom_vec(e, omega))
        if not b:
            continue
        _accumulate(F, terms, tuple(ei - wi for ei, wi in zip(e, omega)), F.mul(b, c))
    return Polynomial(F, g.nvars, terms)


class HasseOperator:
    """A finitely supported linear combination of Hasse derivatives."""

    __slots__ = ("field", "nvars", "combo")

    def __init__(self, field: FieldSpec, nvars: int, combo: dict | None = None):
        self.field = field
        self.nvars = nvars
        self.combo = {w: c for w, c in (combo or {}).items() if c}

    @property
    def order(self):
        if not self.combo:
            return NEG_INF
        return max(sum(w) for w in self.combo)

    def __eq__(self, other):
        return (
            isinstance(other, HasseOperator)
            and self.nvars == other.nvars
            and self.field == other.field
            and self.combo == other.combo
        )

    def __hash__(self):
        return hash((self.field, self.nvars, frozenset(self.combo.items())))

    def compose(self, other: "HasseOperator") -> "HasseOperator":
        """Operator product; Hasse derivatives commute, so the order of
        the factors is irrelevant."""
        if self.nvars != other.nvars:
            raise DimensionMismatch("operator dimension mismatch")
        F = self.field
        combo: dict = {}
        for a, ca in self.combo.items():
            for b, cb in other.combo.items():
                w = tuple(x + y for x, y in zip(a, b))
                m = F.of(binom_vec(w, a))
                if not m:
                    continue
                _accumulate(F, combo, w, F.mul(F.mul(ca, cb), m))
        return HasseOperator(F, self.nvars, combo)

    def evaluate(self, g: Polynomial, point) -> FieldElement:
        """(D g)(point) without materializing D g.  By Taylor's formula
        (Hasse^w g)(point) is [y^w] g(point + y), which
        ``coefficient_along`` reads."""
        F = self.field
        coords, memo = shifted_coordinates([F.of(x) for x in point]), {}
        acc = F.zero
        for w, c in self.combo.items():
            acc = F.add(acc, F.mul(c, coefficient_along(g, coords, w, memo)))
        return acc

    def monomial_functional(self, delta, point) -> FieldElement:
        """(D x^delta)(point): one entry of the functional row g -> Dg(p)."""
        return self.evaluate(Polynomial.monomial(self.field, self.nvars, delta), point)

    def __repr__(self):
        parts = [
            f"{c}*H^{w}" for w, c in sorted(self.combo.items(), key=lambda t: grlex_key(t[0]))
        ]
        return "HasseOperator(" + " + ".join(parts or ["0"]) + ")"


# ---------------------------------------------------------------------------
# Affine maps and coordinate maps
# ---------------------------------------------------------------------------


class AffineMap:
    """x -> A x + b with A square and invertible, built from outside
    values only: a graph member's frame, or a test's map.  The one
    constructor coerces every entry into the field, checks the shape and
    inverts A once, raising ``SingularMap`` when A is singular; ``inverse``
    holds A^-1, which a graph's carrier reads."""

    __slots__ = ("field", "matrix", "translation", "inverse")

    def __init__(self, field: FieldSpec, matrix, translation):
        self.field = field
        self.matrix = [[field.of(a) for a in row] for row in matrix]
        self.translation = [field.of(t) for t in translation]
        d = len(self.translation)
        if len(self.matrix) != d or any(len(row) != d for row in self.matrix):
            raise DimensionMismatch(f"affine map needs a {d}x{d} matrix")
        self.inverse = linalg.inverse(field, self.matrix)
        if self.inverse is None:
            raise SingularMap("affine map matrix is singular")

    @property
    def dim(self):
        return len(self.translation)


def affine_form(F: FieldSpec, coeffs, const) -> Polynomial:
    """The polynomial sum_j coeffs[j] x_j + const."""
    d = len(coeffs)
    return Polynomial(F, d, dict(zip((*exponents_of_degree(d, 1), (0,) * d), [*coeffs, const])))


def affine_coordinates(A, b) -> list:
    """x = A y + b as {beta: c} maps over y, one per x_i, for a square A
    given by its rows and b, both in canonical field elements; each value
    an ``int`` where it is integral."""
    zero, units = (0,) * len(b), exponents_of_degree(len(b), 1)
    out = []
    for row, c in zip(A, b):
        x = {zero: as_int(c)} if c else {}
        x.update((e, as_int(a)) for e, a in zip(units, row) if a)
        out.append(x)
    return out


def shifted_coordinates(z) -> list:
    """x = z + y as {beta: c} maps over y, one per entry of the point z in
    canonical field elements; each value an ``int`` where it is integral."""
    zero = (0,) * len(z)
    return [{zero: as_int(c), e: 1} if c else {e: 1}
            for c, e in zip(z, exponents_of_degree(len(z), 1))]


def polynomial_along(g: Polynomial, coords, nvars: int) -> Polynomial:
    """g(phi(t)) as a polynomial in ``nvars`` variables t, for
    ``coords[i]`` = x_i(phi(t)) as {beta: c} maps: ``coefficient_along``
    reads the t^gamma coefficient for every gamma up to deg g times the
    top degree of the maps."""
    top = max((sum(e) for x in coords for e in x), default=0)
    bound = max(map(sum, g.terms), default=0) * top
    memo: dict = {}
    return Polynomial(g.field, nvars, {
        gamma: coefficient_along(g, coords, gamma, memo) for gamma in monomials_upto(nvars, bound)
    })


def taylor_shift(g: Polynomial, a) -> Polynomial:
    """h with h(y) = g(a + y); the y^w coefficient is (Hasse^w g)(a)."""
    if len(a) != g.nvars:
        raise DimensionMismatch("point dimension mismatch")
    F = g.field
    return polynomial_along(g, shifted_coordinates([F.of(x) for x in a]), g.nvars)


def vanishing_order(g: Polynomial, point):
    """Minimum total degree of a nonzero term of g shifted to point;
    +inf for the zero polynomial."""
    if g.is_zero():
        return math.inf
    F = g.field
    return sum(lowest_term(g, shifted_coordinates([F.of(x) for x in point]))[0])


def lowest_term(g: Polynomial, coords) -> tuple:
    """(gamma, c) for the graded-lex-first term c y^gamma of least degree
    of g(x(y)), g nonzero, for ``coords[i]`` = x_i(y) as {beta: c} maps
    over as many variables y as g has, such as ``affine_coordinates``
    give.  The coefficients are read by ``coefficient_along`` in graded
    order up to the first nonzero one, so when g does not vanish at x(0)
    this costs one expansion row."""
    memo: dict = {}
    return next((w, c) for r in range(int(g.degree) + 1) for w in exponents_of_degree(g.nvars, r)
                if (c := coefficient_along(g, coords, w, memo)))


@lru_cache(maxsize=None)
def _monomial_index(d: int, n: int) -> dict:
    """Position of each x^delta in monomials_upto(d, n)."""
    return {e: k for k, e in enumerate(monomials_upto(d, n))}


@lru_cache(maxsize=None)
def _expansion_steps(d: int, n: int) -> tuple:
    """Per monomial x^delta after the first in monomials_upto(d, n): (i, k)
    with x_i the first variable of x^delta and k the index of x^(delta - e_i)."""
    index = _monomial_index(d, n)
    out = []
    for delta in monomials_upto(d, n)[1:]:
        i = next(i for i, e in enumerate(delta) if e)
        out.append((i, index[delta[:i] + (delta[i] - 1,) + delta[i + 1 :]]))
    return tuple(out)


def expansion_row(F: FieldSpec, coords, n: int, gamma, memo: dict) -> list:
    """[t^gamma] x^delta(phi(t)) for every x^delta in monomials_upto(d, n).

    ``coords[i]`` is x_i(phi(t)) as a {beta: c} map and ``gamma`` a tuple
    over the t variables; the row is the functional g -> [t^gamma] g(phi(t))
    on F[x]_{<= n}.  By x^delta = x^(delta - e_i) * x_i, each entry is
        sum over beta <= gamma of c_{i,beta} [t^(gamma - beta)] x^(delta - e_i),
    where beta = 0 reads the row being built and every other beta a row
    below gamma.  The row is seeded with the ints 1 and 0, so over Q it
    is built in ints when the coordinates are.  ``memo`` maps gamma to
    its row for one (coords, n) pair; callers share its rows and must not
    modify them.
    """
    row = memo.get(gamma)
    if row is not None:
        return row
    zero = (0,) * len(gamma)
    const = [ci.get(zero, 0) for ci in coords]
    lower = [
        [
            (c, expansion_row(F, coords, n, tuple(g - b for g, b in zip(gamma, beta)), memo))
            for beta, c in ci.items()
            if beta != zero and all(b <= g for b, g in zip(beta, gamma))
        ]
        for ci in coords
    ]
    p = F.p
    row = [1 if gamma == zero else 0]
    for i, k in _expansion_steps(len(coords), n):
        acc = const[i] * row[k]
        for c, below in lower[i]:
            acc += c * below[k]
        row.append(acc % p if p else acc)
    memo[gamma] = row
    return row


def _integral_coordinates(coords) -> tuple:
    """(psi, D) with ``coords`` = psi / D: D the lcm of the values'
    denominators and psi the {beta: c} maps times D, in ints.  Maps whose
    values are all ints are returned as they are, the same list, with
    D = 1: ``varieties._solve_series`` grows such maps in place between
    reads that share one memo."""
    if all(type(c) is int for x in coords for c in x.values()):
        return coords, 1
    D = math.lcm(*(c.denominator for x in coords for c in x.values()))
    return [{b: c.numerator * (D // c.denominator) for b, c in x.items()} for x in coords], D


def coefficient_along(g: Polynomial, coords, gamma, memo: dict) -> FieldElement:
    """[t^gamma] g(phi(t)) for ``coords[i]`` = x_i(phi(t)) as {beta: c}
    maps: g's coefficients summed against the ``expansion_row`` of gamma
    at degree n = deg g.  Over Q it is read in ints: with g = G / m and
    coords = psi / D (``_integral_coordinates``), G and psi integral,
        [t^gamma] g(phi) = sum_delta G_delta D^(n - |delta|) [t^gamma] psi^delta / (m D^n),
    so the row is read along psi and only the quotient is a ``Fraction``.
    ``memo`` is the row memo of one (coords, n) pair: it holds the rows
    along psi and, over Q, (psi, D) under the key None."""
    if len(coords) != g.nvars:
        raise DimensionMismatch("one coordinate per variable required")
    F, n = g.field, max(map(sum, g.terms), default=0)
    index = _monomial_index(g.nvars, n)
    if F.p:
        row = expansion_row(F, coords, n, gamma, memo)
        return sum(c * row[index[e]] for e, c in g.terms.items()) % F.p
    if None not in memo:
        memo[None] = _integral_coordinates(coords)
    psi, D = memo[None]
    row = expansion_row(F, psi, n, gamma, memo)
    m = math.lcm(*(c.denominator for c in g.terms.values()))
    acc = sum(c.numerator * (m // c.denominator) * D ** (n - sum(e)) * row[index[e]]
              for e, c in g.terms.items())
    return Fraction(acc, m * D ** n)


def conjugate_operator(D: HasseOperator, T: AffineMap) -> HasseOperator:
    """The operator D' with D' g = (D (g o T)) o T^{-1}.

    No library path calls it: conjugating a chart's framed operator with
    the chart's parametrization, its frame completed to a square one,
    gives its ambient one, which
    ``varieties.derivative_operator`` reads off one expansion row, and the
    tests check the two against each other; the benchmark's per-layer
    trace counts it.

    For an affine T: x -> Ax + b one has
        Hasse^w (g o T) = sum_delta m_{w,delta} (Hasse^delta g) o T,
    where m_{w,delta} is the y^w coefficient of prod_j (A_j . y)^{delta_j},
    the expansion row of y^w along the linear forms A_j . y; only
    |delta| = |w| contributes.  The translation b plays no role in the
    operator coefficients.
    """
    F = D.field
    d = D.nvars
    if T.dim != d:
        raise DimensionMismatch("map/operator dimension mismatch")
    r = D.order
    if r is NEG_INF:
        return HasseOperator(F, d)
    units = exponents_of_degree(d, 1)
    forms = [{e: a for e, a in zip(units, row) if a} for row in T.matrix]
    monos = monomials_upto(d, r)
    memo: dict = {}
    combo: dict = {}
    for w, c in D.combo.items():
        for delta, m in zip(monos, expansion_row(F, forms, r, w, memo)):
            if m:
                combo[delta] = F.add(combo.get(delta, F.zero), F.mul(c, m))
    return HasseOperator(F, d, combo)
