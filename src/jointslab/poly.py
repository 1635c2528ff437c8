"""Sparse multivariate polynomials, affine maps and expansion rows.

Polynomials are maps from exponent vectors (tuples of d nonnegative
ints) to nonzero field elements.  The canonical monomial enumeration is
graded lexicographic with x1 > x2 > ... > xd, which fixes the row layout
used by the vanishing-basis machinery.

``expansion_row`` evaluates g -> [t^gamma] g(phi(t)) on every monomial
for a parametrization phi; every vanishing-condition row, ledger and
rank rows and the witness alike, is one, and so is the coefficient list
of every derivative operator.  ``HasseOperator`` acts by
Hasse^w x^e = C(e, w) x^(e-w), the binomial computed coordinatewise over
Z and then reduced into the field, which keeps the calculus correct in
small characteristic; it is library API and the test oracle for the
rows, and no pipeline or verify path builds one.  ``conjugate_operator``
is the operator's change of frame, kept as the oracle of
``varieties.derivative_operator``.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .errors import DimensionMismatch, MalformedInput, SingularMap
from .field import FieldElement, FieldSpec, binom

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
            s = F.add(terms.get(e, F.zero), c)
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
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
                e = tuple(a + b for a, b in zip(e1, e2))
                s = F.add(terms.get(e, F.zero), F.mul(c1, c2))
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
        return Polynomial(F, self.nvars, terms)

    def scale(self, c):
        F = self.field
        c = F.of(c)
        return Polynomial(F, self.nvars, {e: F.mul(c, v) for e, v in self.terms.items()})

    def truncate(self, n: int) -> "Polynomial":
        """Drop all terms of total degree > n."""
        return Polynomial(
            self.field, self.nvars, {e: c for e, c in self.terms.items() if sum(e) <= n}
        )

    def evaluate(self, point) -> FieldElement:
        if len(point) != self.nvars:
            raise DimensionMismatch("point dimension mismatch")
        F = self.field
        point = [F.of(x) for x in point]
        acc = F.zero
        for e, c in self.terms.items():
            v = c
            for x, k in zip(point, e):
                if k:
                    v = F.mul(v, F.pow(x, k))
            acc = F.add(acc, v)
        return acc

    def substitute(self, images: list, truncation: int | None = None) -> "Polynomial":
        """Substitute variable i -> images[i] (polynomials over the same
        field, all in a common ring).  Optionally truncate the running
        total degree, which keeps power-series work bounded."""
        if len(images) != self.nvars:
            raise DimensionMismatch("one image per variable required")
        F = self.field
        nv = images[0].nvars if images else 0
        pows: list[dict[int, Polynomial]] = [dict() for _ in images]

        def power(i, k):
            if k not in pows[i]:
                if k == 0:
                    pows[i][k] = Polynomial.constant(F, nv, 1)
                else:
                    p = power(i, k - 1) * images[i]
                    if truncation is not None:
                        p = p.truncate(truncation)
                    pows[i][k] = p
            return pows[i][k]

        acc = Polynomial.zero(F, nv)
        for e, c in self.terms.items():
            term = Polynomial.constant(F, nv, c)
            for i, k in enumerate(e):
                if k:
                    term = term * power(i, k)
                    if truncation is not None:
                        term = term.truncate(truncation)
            acc = acc + term
        return acc

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
        e = tuple(exps)
        s = F.add(terms.get(e, F.zero), F.of(Fraction(coeff_s)))
        if s:
            terms[e] = s
        else:
            terms.pop(e, None)
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
        ne = tuple(ei - wi for ei, wi in zip(e, omega))
        s = F.add(terms.get(ne, F.zero), F.mul(b, c))
        if s:
            terms[ne] = s
        else:
            terms.pop(ne, None)
    return Polynomial(F, g.nvars, terms)


class HasseOperator:
    """A finitely supported linear combination of Hasse derivatives."""

    __slots__ = ("field", "nvars", "combo")

    def __init__(self, field: FieldSpec, nvars: int, combo: dict | None = None):
        self.field = field
        self.nvars = nvars
        self.combo = {w: c for w, c in (combo or {}).items() if c}

    @classmethod
    def single(cls, field, nvars, omega, c=None):
        c = field.one if c is None else field.of(c)
        return cls(field, nvars, {tuple(omega): c})

    def is_zero(self):
        return not self.combo

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
                s = F.add(combo.get(w, F.zero), F.mul(F.mul(ca, cb), m))
                if s:
                    combo[w] = s
                else:
                    combo.pop(w, None)
        return HasseOperator(F, self.nvars, combo)

    def apply(self, g: Polynomial) -> Polynomial:
        acc = Polynomial.zero(g.field, g.nvars)
        for w, c in self.combo.items():
            acc = acc + hasse_apply(w, g).scale(c)
        return acc

    def evaluate(self, g: Polynomial, point) -> FieldElement:
        """(D g)(point) without materializing D g."""
        F = self.field
        point = [F.of(x) for x in point]
        acc = F.zero
        for e, c in g.terms.items():
            acc = F.add(acc, F.mul(c, self.monomial_functional(e, point)))
        return acc

    def monomial_functional(self, delta, point) -> FieldElement:
        """(D x^delta)(point): one entry of the functional row g -> Dg(p)."""
        F = self.field
        acc = F.zero
        for w, cw in self.combo.items():
            if any(d < wi for d, wi in zip(delta, w)):
                continue
            b = F.of(binom_vec(delta, w))
            if not b:
                continue
            v = F.mul(cw, b)
            for x, k in zip(point, (d - wi for d, wi in zip(delta, w))):
                if k:
                    v = F.mul(v, F.pow(F.of(x), k))
            acc = F.add(acc, v)
        return acc

    def __repr__(self):
        parts = [
            f"{c}*H^{w}" for w, c in sorted(self.combo.items(), key=lambda t: grlex_key(t[0]))
        ]
        return "HasseOperator(" + " + ".join(parts or ["0"]) + ")"


# ---------------------------------------------------------------------------
# Affine maps and Taylor machinery
# ---------------------------------------------------------------------------


class AffineMap:
    """x -> A x + b with A square and invertible.

    A map built from outside values coerces every entry into the field
    and checks the shape and the rank.  ``_trusted=True`` is for the
    library's own maps: it keeps the rows and the translation it is given
    as they are, so the caller passes freshly built rows of canonical
    field elements, of a square invertible matrix, that nothing else
    holds or mutates."""

    __slots__ = ("field", "matrix", "translation")

    def __init__(self, field: FieldSpec, matrix, translation, _trusted=False):
        self.field = field
        if _trusted:
            self.matrix, self.translation = matrix, translation
            return
        self.matrix = [[field.of(a) for a in row] for row in matrix]
        self.translation = [field.of(t) for t in translation]
        d = len(self.translation)
        if len(self.matrix) != d or any(len(row) != d for row in self.matrix):
            raise DimensionMismatch(f"affine map needs a {d}x{d} matrix")
        if linalg.rank(field, self.matrix) != d:
            raise SingularMap("affine map matrix is singular")

    @classmethod
    def identity(cls, field, d):
        return cls(field, linalg.identity(field, d), [field.zero] * d, _trusted=True)

    @classmethod
    def translation_map(cls, field, b):
        d = len(b)
        return cls(field, linalg.identity(field, d), [field.of(x) for x in b], _trusted=True)

    @property
    def dim(self):
        return len(self.translation)

    def apply(self, point):
        F = self.field
        point = [F.of(x) for x in point]
        return [
            F.add(sum_row, t)
            for sum_row, t in zip(linalg.mat_vec(F, self.matrix, point), self.translation)
        ]

    def compose(self, other: "AffineMap") -> "AffineMap":
        """self after other: x -> self(other(x))."""
        F = self.field
        A = linalg.mat_mul(F, self.matrix, other.matrix)
        b = [
            F.add(v, t)
            for v, t in zip(linalg.mat_vec(F, self.matrix, other.translation), self.translation)
        ]
        return AffineMap(F, A, b, _trusted=True)

    def inverse(self) -> "AffineMap":
        F = self.field
        Ainv = linalg.inverse(F, self.matrix)
        if Ainv is None:
            raise SingularMap("affine map matrix is singular")
        b = [F.neg(v) for v in linalg.mat_vec(F, Ainv, self.translation)]
        return AffineMap(F, Ainv, b, _trusted=True)


def pullback(g: Polynomial, T: AffineMap) -> Polynomial:
    """g composed with T, i.e. substitute x -> Ax + b and expand."""
    if T.dim != g.nvars:
        raise DimensionMismatch("map/ring dimension mismatch")
    F = g.field
    images = []
    for i in range(g.nvars):
        terms: dict = {}
        for j, a in enumerate(T.matrix[i]):
            if a:
                e = [0] * g.nvars
                e[j] = 1
                terms[tuple(e)] = a
        if T.translation[i]:
            terms[(0,) * g.nvars] = T.translation[i]
        images.append(Polynomial(F, g.nvars, terms))
    return g.substitute(images)


def taylor_shift(g: Polynomial, a) -> Polynomial:
    """h with h(y) = g(a + y); the y^w coefficient is (Hasse^w g)(a)."""
    if len(a) != g.nvars:
        raise DimensionMismatch("point dimension mismatch")
    return pullback(g, AffineMap.translation_map(g.field, a))


def vanishing_order(g: Polynomial, point):
    """Minimum total degree of a nonzero term of g shifted to point;
    +inf for the zero polynomial."""
    if g.is_zero():
        return math.inf
    shifted = taylor_shift(g, point)
    return min(sum(e) for e in shifted.terms)


@lru_cache(maxsize=None)
def _expansion_steps(d: int, n: int) -> tuple:
    """Per monomial x^delta after the first in monomials_upto(d, n): (i, k)
    with x_i the first variable of x^delta and k the index of x^(delta - e_i)."""
    monos = monomials_upto(d, n)
    index = {e: k for k, e in enumerate(monos)}
    out = []
    for delta in monos[1:]:
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


def conjugate_operator(D: HasseOperator, T: AffineMap) -> HasseOperator:
    """The operator D' with D' g = (D (g o T)) o T^{-1}.

    No library path calls it: conjugating a chart's framed operator with
    the chart's parametrization gives its ambient one, which
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
