"""Variety kinds, local-coordinate charts, and derivative operators.

A chart frames a regular point p of a k-dimensional variety V so that p
sits at the origin with the tangent space along the first k coordinates;
the remaining coordinates are graphs of power series h_i with no
constant or linear part: zero for a flat, a graph's Taylor shift, and
for a hypersurface the solution of its framed equation E(t, h(t)) = 0,
solved one coefficient at a time, in graded order, each read off one
``poly.expansion_row`` row along (t, h), and only as far as a reader
asks.  ``Chart.coordinates(r)`` is the resulting parametrization phi of
V near p through degree r.  The functional g -> D^gamma g(p) attached to
a local exponent vector gamma is g -> [t^gamma] g(phi(t)), which reads
phi through degree |gamma| only; ledgers, the rank check and the witness
read it as ``poly.expansion_row`` rows.  Ledgers and the rank check read
them along ``Chart.scaled_coordinates``, x(phi(lambda t)) for the chart's
fixed ``scale`` lambda, whose coefficients over Q are ints in every
degree >= 1: each row is then lambda^|gamma| times the exact one and is
built in ints.  ``derivative_operator`` writes the same functional as
ambient Hasse derivatives, its coefficients one expansion row along the
centered coordinates phi(t) - p: library API and the test oracle for
those rows.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field as dc_field

from . import linalg
from .errors import (
    DimensionMismatch,
    MalformedInput,
    NotOnVariety,
    SingularPoint,
    UnsupportedKind,
)
from .field import FieldSpec, as_int, binom, json_int
from .poly import (
    AffineMap,
    HasseOperator,
    Polynomial,
    affine_form,
    coefficient_along,
    expansion_row,
    exponents_of_degree,
    format_poly,
    monomials_upto,
    parse_poly,
    pullback,
    taylor_shift,
)

KINDS = ("flat", "graph", "hypersurface")


@dataclass(frozen=True)
class VarietySpec:
    """One of the supported variety kinds with its defining payload.

    flat:          point + dim independent direction vectors
    graph:         frame to standard position + polys f_{k+1..d} in the
                   k tangent variables, each with no constant/linear part
    hypersurface:  a (k+1)-flat (point + directions) plus one defining
                   polynomial in the flat's internal coordinates
    """

    kind: str
    ambient: int
    dim: int
    degree: int
    point: tuple = ()
    directions: tuple = ()
    frame: AffineMap | None = None
    graph_polys: tuple = ()
    surface_poly: Polynomial | None = None
    label: str = ""

    def __post_init__(self):
        if self.kind not in KINDS:
            raise UnsupportedKind(f"unknown variety kind {self.kind!r}")
        if self.kind in ("flat", "hypersurface"):
            d = self.ambient
            if len(self.point) != d or any(len(u) != d for u in self.directions):
                raise DimensionMismatch(f"{self.kind} point and directions need {d} entries")
        if self.kind == "flat":
            if len(self.directions) != self.dim:
                raise DimensionMismatch("flat needs dim direction vectors")
            if self.degree != 1:
                raise ValueError("flats have degree 1")
        if self.kind == "graph":
            if self.frame is None or self.frame.dim != self.ambient:
                raise DimensionMismatch(f"graph frame must act on {self.ambient} coordinates")
            if len(self.graph_polys) != self.ambient - self.dim:
                raise DimensionMismatch("graph needs ambient-dim defining polynomials")
            for f in self.graph_polys:
                if f.nvars != self.dim:
                    raise DimensionMismatch("graph polynomials live in the tangent variables")
                if not f.is_zero() and min(sum(e) for e in f.terms) < 2:
                    raise ValueError("graph polynomials must have no constant or linear terms")
            # over a generic line of t-space the graph is a curve of degree
            # max(1, max_j deg f_j): the degree of a curve (k = 1), a lower
            # bound on the degree for k >= 2
            top = _graph_degree(self.graph_polys)
            if self.degree < top or (self.dim == 1 and self.degree != top):
                need = f"exactly {top}" if self.dim == 1 else f"at least {top}"
                raise ValueError(f"a graph of dim {self.dim} with polynomials of degree up to "
                                 f"{top} has degree {need}, not {self.degree}")
        if self.kind == "hypersurface":
            if len(self.directions) != self.dim + 1:
                raise DimensionMismatch("hypersurface flat needs dim+1 directions")
            if self.surface_poly is None or self.surface_poly.nvars != self.dim + 1:
                raise DimensionMismatch("defining polynomial must use the flat coordinates")
            if self.degree != self.surface_poly.degree:
                raise ValueError("declared degree must match the defining polynomial")


def _graph_degree(polys) -> int:
    """max(1, max_j deg f_j) over a graph's polynomials f_j."""
    return max([1] + [int(f.degree) for f in polys if not f.is_zero()])


@dataclass
class Chart:
    """Framed local presentation of a variety at a regular point.

    The chart is its parametrization: ``frame_inverse`` is the affine map
    x = A'y + b' from framed coordinates y to ambient ones, b' the center
    and the first k columns of A' spanning the tangent space, and the
    series give the framed coordinates y_{k+1..d} = h(y_1..y_k) of V near
    the center.  No forward frame is kept; a reader that needs one
    inverts ``frame_inverse``.

    Readers pass the order r they need and get series and coordinates
    exact through degree r, possibly with higher terms: a hypersurface's
    series grows by ``_solve_series`` steps, one degree each, on demand.

    ``scale`` is a positive integer lambda, fixed when the chart is made,
    such that the coordinates x(phi(lambda t)) have integral coefficients
    in every degree >= 1 (1 over F_p).  Rows read along them are rows read
    along x(phi(t)) times lambda^|gamma|, so they span the same conditions
    and can be built in ints; ``scaled_coordinates`` holds them."""

    owner: VarietySpec
    center: tuple
    frame_inverse: AffineMap  # local -> ambient; the origin maps to the center
    _series: list = dc_field(repr=False)  # h_{k+1..d} as {beta: c} maps
    _solver: object = dc_field(default=None, repr=False, compare=False)  # None: exact
    _solved: float = dc_field(default=math.inf, repr=False)  # exact through this degree
    scale: int = 1
    _coords: tuple | None = dc_field(default=None, repr=False)  # (exact through, coordinates)
    # (coordinates, scaled_coordinates of them)
    _scaled_coords: tuple = dc_field(default=(None, None), repr=False, compare=False)
    # the expansion rows that basis.functional_rows reads, one gamma -> row
    # memo per degree bound
    expansion_memos: dict = dc_field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def field(self) -> FieldSpec:
        return self.frame_inverse.field

    def _grow(self, r: int) -> None:
        while self._solved < r:
            self._solved = next(self._solver)

    def series(self, r: int) -> list:
        """h_{k+1..d} as polynomials in the local variables, exact through
        degree r."""
        self._grow(r)
        return [Polynomial(self.field, self.owner.dim, h) for h in self._series]

    def coordinates(self, r: int) -> list:
        """x_i(phi(t)) for each ambient coordinate, as {beta: c} maps over
        the local variables, exact through degree r: b'_i + sum_j A'_ij img_j
        for the inverse frame x = A'y + b', with img_j = t_j for j < k and
        the series h_j otherwise.  It is rebuilt only when the series grows.
        Each map is read off the row of A' and the series maps: the series
        have no constant or linear part, so only their terms can collide."""
        if self._coords is None or self._coords[0] < r:
            self._grow(r)
            k, p = self.owner.dim, self.field.p
            zero, units = (0,) * k, exponents_of_degree(k, 1)
            inv = self.frame_inverse
            coords = []
            for row, b in zip(inv.matrix, inv.translation):
                x = {zero: b} if b else {}
                x.update((e, a) for e, a in zip(units, row) if a)
                for a, h in zip(row[k:], self._series):
                    if a:
                        for beta, c in h.items():
                            v = x.get(beta, 0) + a * c
                            if p:
                                v %= p
                            if v:
                                x[beta] = v
                            else:  # a * c != 0, so x held beta and it cancelled
                                del x[beta]
                coords.append(x)
            self._coords = self._solved, coords
        return self._coords[1]

    def scaled_coordinates(self, r: int) -> list:
        """x_i(phi(lambda t)), lambda = ``scale``: the ``coordinates``
        with the t^beta coefficient times lambda^|beta|, exact through
        degree r.  Over Q every value is held as an ``int`` where it is
        integral (all but non-integral constant terms); over F_p they are
        the ``coordinates`` themselves.  Rebuilt only when those are."""
        coords = self.coordinates(r)
        if self.field.p:
            return coords
        if self._scaled_coords[0] is not coords:
            self._scaled_coords = coords, _scaled(coords, self.scale)
        return self._scaled_coords[1]


# ---------------------------------------------------------------------------
# Point membership and defining equations
# ---------------------------------------------------------------------------


def _coerce_point(F: FieldSpec, p):
    return [F.of(x) for x in p]


def contains_point(V: VarietySpec, p, F: FieldSpec) -> bool:
    p = _coerce_point(F, p)
    if len(p) != V.ambient:
        raise DimensionMismatch("point dimension mismatch")
    if V.kind == "flat":
        dirs = [_coerce_point(F, u) for u in V.directions]
        base = _coerce_point(F, V.point)
        diff = [F.sub(a, b) for a, b in zip(p, base)]
        return linalg.rank(F, dirs + [diff]) == V.dim
    if V.kind == "graph":
        y = V.frame.apply(p)
        k = V.dim
        t = y[:k]
        return all(f.evaluate(t) == y[k + j] for j, f in enumerate(V.graph_polys))
    # hypersurface
    z = _flat_coordinates(V, p, F)
    if z is None:
        return False
    return not V.surface_poly.evaluate(z)


def _flat_coordinates(V: VarietySpec, p, F: FieldSpec):
    """Internal coordinates of p in the hypersurface's carrier flat, or
    None if p is off the flat."""
    base = _coerce_point(F, V.point)
    dirs = [_coerce_point(F, u) for u in V.directions]
    cols = [[u[i] for u in dirs] for i in range(V.ambient)]  # ambient x (k+1)
    rhs = [F.sub(a, b) for a, b in zip(p, base)]
    return linalg.solve(F, cols, rhs)


def ambient_equations(V: VarietySpec, F: FieldSpec | None = None) -> list:
    """Generators (for the supported kinds) of polynomials vanishing on V,
    as ambient polynomials over F; a flat carries no field, so F is
    required for one."""
    if F is None:
        F = _spec_field(V)
    d = V.ambient
    if V.kind == "flat":
        return _flat_equations(F, d, V.point, V.directions)
    if V.kind == "graph":
        k = V.dim
        out = []
        for j, f in enumerate(V.graph_polys):
            q = Polynomial.variable(F, d, k + j) - _embed(f, d)
            out.append(pullback(q, V.frame))
        return out
    # hypersurface
    m = V.dim + 1
    base = _coerce_point(F, V.point)
    dirs = [_coerce_point(F, u) for u in V.directions]
    cols = [[u[i] for u in dirs] for i in range(d)]
    basis = linalg.complete_basis(F, [list(c) for c in zip(*cols)], d)
    M = [[basis[j][i] for j in range(d)] for i in range(d)]  # columns = basis vectors
    Minv = linalg.inverse(F, M)[:m]
    shift = linalg.mat_vec(F, Minv, base)
    coord_polys = [affine_form(F, row, F.neg(c)) for row, c in zip(Minv, shift)]
    eqs = [V.surface_poly.substitute(coord_polys)]
    eqs += _flat_equations(F, d, V.point, V.directions)
    return eqs


def _spec_field(V: VarietySpec) -> FieldSpec:
    if V.kind == "graph":
        return V.frame.field
    if V.kind == "hypersurface":
        return V.surface_poly.field
    raise UnsupportedKind("flats carry no field; pass one explicitly")


def _flat_equations(F, d, point, directions):
    dirs = [[F.of(x) for x in u] for u in directions]
    base = [F.of(x) for x in point]
    normals = linalg.nullspace(F, dirs) if dirs else linalg.identity(F, d)
    return [affine_form(F, a, F.neg(c)) for a, c in zip(normals, linalg.mat_vec(F, normals, base))]


def _embed(f: Polynomial, d: int) -> Polynomial:
    """View a polynomial in the first k variables inside the d-variable ring."""
    pad = d - f.nvars
    return Polynomial(f.field, d, {e + (0,) * pad: c for e, c in f.terms.items()})


# ---------------------------------------------------------------------------
# Chart construction
# ---------------------------------------------------------------------------


def make_chart(V: VarietySpec, p, F: FieldSpec | None = None) -> Chart:
    """Build the local chart of V at the regular point p.

    A graph's series is its Taylor shift to p.  A hypersurface's is solved
    by ``_solve_series`` from its equation in the in-flat frame, tangent
    directions first and the gradient direction last, as far as the
    chart's readers ask."""
    if F is None:
        F = _spec_field(V)
    p = _coerce_point(F, p)
    d, k = V.ambient, V.dim
    if len(p) != d:
        raise DimensionMismatch("point dimension mismatch")

    if V.kind == "flat":
        if not contains_point(V, p, F):
            raise NotOnVariety("point is not on the flat")
        dirs = [_coerce_point(F, u) for u in V.directions]
        inv = _parametrization(F, linalg.complete_basis(F, dirs, d), p)
        return Chart(V, tuple(p), inv, [{} for _ in range(d - k)],
                     scale=_denominator_lcm(F, itertools.chain(*inv.matrix)))

    if V.kind == "graph":
        y0 = V.frame.apply(p)
        t0 = y0[:k]
        for j, f in enumerate(V.graph_polys):
            if f.evaluate(t0) != y0[k + j]:
                raise NotOnVariety("point does not satisfy the graph equations")
        series = []
        shear = []  # linear parts of the shifted graph polynomials
        for j, f in enumerate(V.graph_polys):
            g = taylor_shift(f, t0)
            lin = [g.coefficient(tuple(1 if i == a else 0 for a in range(k))) for i in range(k)]
            shear.append(lin)
            series.append({e: c for e, c in g.terms.items() if sum(e) >= 2})
        # x = frame^-1(y0 + S y), the shear S lifting the first k axes onto
        # the tangent space; frame^-1(y0) is p
        S = linalg.identity(F, d)
        for j in range(d - k):
            for i in range(k):
                S[k + j][i] = shear[j][i]
        A = linalg.mat_mul(F, linalg.inverse(F, V.frame.matrix), S)
        scale = _denominator_lcm(F, itertools.chain(*A, *(h.values() for h in series)))
        return Chart(V, tuple(p), AffineMap(F, A, p, _trusted=True), series, scale=scale)

    # hypersurface
    z0 = _flat_coordinates(V, p, F)
    if z0 is None or V.surface_poly.evaluate(z0):
        raise NotOnVariety("point is not on the hypersurface")
    m = k + 1
    E1 = taylor_shift(V.surface_poly, z0)
    grad = [E1.coefficient(tuple(1 if j == i else 0 for j in range(m))) for i in range(m)]
    i0 = next((i for i, l in enumerate(grad) if l), None)
    if i0 is None:
        raise SingularPoint("all first-order coefficients vanish at the point")
    # in-flat change of basis: tangent vectors first, gradient direction last
    tangent_z = []
    for i in range(m):
        if i == i0:
            continue
        v = [F.zero] * m
        v[i] = F.one
        v[i0] = F.neg(F.div(grad[i], grad[i0]))
        tangent_z.append(v)
    B_cols = tangent_z + [[F.one if j == i0 else F.zero for j in range(m)]]
    B = [[B_cols[c][r] for c in range(m)] for r in range(m)]
    E2 = pullback(E1, AffineMap(F, B, [F.zero] * m, _trusted=True))
    dirs = [_coerce_point(F, u) for u in V.directions]
    # ambient images of the in-flat basis vectors
    amb_tangent = [_flat_combo(F, dirs, v) for v in tangent_z]
    amb_normal = _flat_combo(F, dirs, [F.one if j == i0 else F.zero for j in range(m)])
    inv = _parametrization(F, linalg.complete_basis(F, amb_tangent + [amb_normal], d), p)
    h: dict = {}
    return Chart(V, tuple(p), inv, [h] + [{} for _ in range(d - k - 1)],
                 _solver=_solve_series(F, E2, h), _solved=1,
                 scale=_denominator_lcm(F, itertools.chain(*inv.matrix)) * _series_scale(F, E2))


def _denominator_lcm(F: FieldSpec, values) -> int:
    """The lcm of the denominators of the values over Q; 1 over F_p."""
    return 1 if F.p else math.lcm(*(x.denominator for x in values))


def _series_scale(F: FieldSpec, E: Polynomial) -> int:
    """A positive integer c such that s(c tau) has integral coefficients,
    for the series s = h(t) that ``_solve_series`` solves from E; 1 over F_p.

    Scaled to primitive integer coefficients, E is c s + Q(t, s) with Q
    integral of order >= 2 (no constant or linear t-terms), so s = -Q(t, s)
    / c.  Then sigma(tau) = s(c tau) / c solves sigma = -sum_j c^(j-2)
    Q_j(tau, sigma) over the homogeneous parts Q_j, j >= 2, of Q, which
    has integral coefficients degree by degree.  This is the case A = 1,
    B = c of Eisenstein's theorem (Dwork and van der Poorten, "The
    Eisenstein constant", Duke Math. J. 65, 1992)."""
    if F.p:
        return 1
    m = _denominator_lcm(F, E.terms.values())
    content = math.gcd(*(a.numerator * (m // a.denominator) for a in E.terms.values()))
    c = E.coefficient((0,) * (E.nvars - 1) + (1,))
    return abs(c.numerator) * (m // c.denominator) // content


def _scaled(coords, scale: int) -> list:
    """{beta: c} maps times scale^|beta| per term, each value an ``int``
    where it is integral."""
    return [{beta: as_int(c * scale ** sum(beta)) for beta, c in x.items()} for x in coords]


def _solve_series(F: FieldSpec, E: Polynomial, h: dict):
    """Solve into the {gamma: c} map h the series s = h(t) with
    E(t, h(t)) = 0 and no constant or linear part, for E in (t_1..t_k, s)
    with E(0) = 0, no linear t-terms and s-coefficient c != 0.  A
    generator: step r = 2, 3, ... stores the coefficients of degree r and
    yields r, so a chart solves only the degrees its readers reach.

    Coefficients are solved in graded order.  The t^gamma coefficient of
    E(t, h(t)) is ``coefficient_along`` (t, h): E's coefficients summed
    against the expansion row of gamma.  As h has no constant or linear
    part, the only entry that reads h_gamma is that of the monomial s,
    which equals h_gamma; read while h_gamma is still missing, it is 0, so
    h_gamma = -[t^gamma] E(t, h(t)) / c.  Storing h_gamma leaves gamma's
    memo row stale, so the row is dropped before any higher gamma reads it.
    """
    k = E.nvars - 1
    minus_c_inv = F.neg(F.inv(E.coefficient((0,) * k + (1,))))
    coords = [{e: F.one} for e in exponents_of_degree(k, 1)] + [h]
    memo: dict = {}
    for r in itertools.count(2):
        for gamma in exponents_of_degree(k, r):
            acc = coefficient_along(E, coords, gamma, memo)
            if acc:
                h[gamma] = F.mul(acc, minus_c_inv)
                del memo[gamma]
        yield r


def _flat_combo(F, dirs, coeffs):
    d = len(dirs[0])
    out = [F.zero] * d
    for c, u in zip(coeffs, dirs):
        if c:
            out = [F.add(a, F.mul(c, b)) for a, b in zip(out, u)]
    return out


def _parametrization(F: FieldSpec, basis_vectors, center: list) -> AffineMap:
    """The chart parametrization y -> center + sum_i y_i basis_vectors[i],
    read off the vectors with no inverse taken."""
    d = len(center)
    return AffineMap(F, [[v[i] for v in basis_vectors] for i in range(d)], center, _trusted=True)


def tangent_space(C: Chart) -> list:
    """The tangent directions: the first k columns of the parametrization's
    matrix A'."""
    k = C.owner.dim
    inv = C.frame_inverse
    return [[inv.matrix[i][j] for i in range(C.owner.ambient)] for j in range(k)]


# ---------------------------------------------------------------------------
# Directional derivative operators
# ---------------------------------------------------------------------------


def derivative_operator(C: Chart, gamma, ambient: bool = True) -> HasseOperator:
    """The operator sum_w c_w Hasse^w with D g(center) = [t^gamma] g(phi(t)).

    By Taylor's formula g(center + u) = sum_w (Hasse^w g)(center) u^w, so
    c_w is [t^gamma] u(t)^w for u(t) = phi(t) - center: the expansion row
    of gamma along the centered chart coordinates.  As u has no constant
    term, |w| <= |gamma| suffices.  With ambient=False the operator acts
    in the framed coordinates, where the center is the origin and
    u(t) = (t, h(t)).
    """
    F = C.field
    d, k = C.owner.ambient, C.owner.dim
    gamma = tuple(gamma)
    if len(gamma) != k:
        raise DimensionMismatch("gamma must use the local variables")
    r = sum(gamma)
    if ambient:
        zero = (0,) * k
        coords = [{b: c for b, c in x.items() if b != zero} for x in C.coordinates(r)]
    else:
        coords = [{e: F.one} for e in exponents_of_degree(k, 1)] + [h.terms for h in C.series(r)]
    row = expansion_row(F, coords, r, gamma, {})
    return HasseOperator(F, d, {w: F.of(c) for w, c in zip(monomials_upto(d, r), row)})


def derivative_space(C: Chart, r: int) -> list:
    """All D^gamma with |gamma| = r, in graded-lex gamma order.

    No library path calls it; the benchmark's per-layer trace counts it."""
    return [derivative_operator(C, g) for g in exponents_of_degree(C.owner.dim, r)]


def well_defined_check(C: Chart, D: HasseOperator, trials: int = 20, seed: int = 0) -> dict:
    """Check that g -> Dg(center) kills the defining ideal: for random
    polynomials q and each defining generator e, D(e q)(center) must be 0."""
    F = C.field
    d = C.owner.ambient
    rng = random.Random(seed)
    eqs = ambient_equations(C.owner, F)
    max_deg = max(2, int(D.order if D.combo else 0))
    monos = monomials_upto(d, max_deg)
    for t in range(trials):
        if t == 0:
            q = Polynomial.constant(F, d, 1)
        else:
            terms = {}
            for e in monos:
                v = rng.randrange(F.p) if F.kind == "prime" else rng.randint(-9, 9)
                if v:
                    terms[e] = F.of(v)
            q = Polynomial(F, d, terms)
        for e_idx, e in enumerate(eqs):
            val = D.evaluate(e * q, C.center)
            if val:
                return {
                    "pass": False,
                    "trial": t,
                    "equation": e_idx,
                    "value": val,
                    "witness": format_poly(e * q),
                }
    return {"pass": True, "trials": trials}


# ---------------------------------------------------------------------------
# Dimension of R_{V, <= n}
# ---------------------------------------------------------------------------


def dim_regular_functions(V: VarietySpec, n: int, F: FieldSpec | None = None) -> int:
    """Exact dimension of the regular functions on V representable by
    ambient polynomials of degree at most n."""
    if F is None:
        F = _spec_field(V)
    k = V.dim
    if V.kind == "flat":
        return binom(n + k, k)
    if V.kind == "graph":
        # the rank of restricting F[y]_{<=n} to y = (t, f(t)), read off its
        # transpose: the expansion rows of every t^gamma, |gamma| <= n deg f,
        # along (t, f(t)).  Over Q they are read along (lambda t, f(lambda t)),
        # lambda clearing the denominators of f, in ints: each row is the
        # same row times lambda^|gamma|.
        maxdeg = _graph_degree(V.graph_polys)
        coords = [{e: 1} for e in exponents_of_degree(k, 1)] + [f.terms for f in V.graph_polys]
        if not F.p:
            scale = _denominator_lcm(F, (c for f in V.graph_polys for c in f.terms.values()))
            coords = _scaled(coords, scale)
        red = linalg.IncrementalRowReducer(F)
        memo: dict = {}
        for gamma in monomials_upto(k, n * maxdeg):
            red.insert(expansion_row(F, coords, n, gamma, memo))
        return red.rank
    # hypersurface
    e = V.degree
    return binom(n + k + 1, k + 1) - binom(n - e + k + 1, k + 1)


# ---------------------------------------------------------------------------
# JSON (de)serialization of variety specs
# ---------------------------------------------------------------------------


def variety_to_json(V: VarietySpec, F: FieldSpec) -> dict:
    obj: dict = {"kind": V.kind, "dim": V.dim, "ambient": V.ambient, "degree": V.degree}
    if V.label:
        obj["label"] = V.label
    if V.kind == "flat":
        obj["point"] = [str(x) for x in V.point]
        obj["directions"] = [[str(x) for x in u] for u in V.directions]
    elif V.kind == "graph":
        obj["frame_matrix"] = [[str(x) for x in row] for row in V.frame.matrix]
        obj["frame_translation"] = [str(x) for x in V.frame.translation]
        obj["equations"] = [format_poly(f) for f in V.graph_polys]
    else:
        obj["point"] = [str(x) for x in V.point]
        obj["directions"] = [[str(x) for x in u] for u in V.directions]
        obj["equations"] = [format_poly(V.surface_poly)]
    return obj


def variety_from_json(obj: dict, F: FieldSpec) -> VarietySpec:
    """The member an object of a JSON config describes.  A declared
    ``degree`` is passed to ``VarietySpec``, which checks it; a missing
    one is the kind's own: 1 for a flat or a graph, the equation's degree
    for a hypersurface."""

    def degree(derived: int) -> int:
        return json_int(obj.get("degree", derived), "member degree")

    kind = obj["kind"]
    dim = json_int(obj["dim"], "member dim")
    ambient = json_int(obj["ambient"], "member ambient")
    label = obj.get("label", "")
    if kind in ("graph", "hypersurface"):
        equations = obj["equations"]
        if type(equations) is not list or not all(type(e) is str for e in equations):
            raise MalformedInput(f"{kind} equations must be a list of strings, not {equations!r}")
    if kind in ("flat", "hypersurface"):
        directions = tuple(tuple(F.of(x) for x in u) for u in obj["directions"])
        if linalg.rank(F, directions) < len(directions):
            raise MalformedInput(f"{kind} directions are dependent")
    if kind == "flat":
        return VarietySpec(
            kind="flat",
            ambient=ambient,
            dim=dim,
            degree=degree(1),
            point=tuple(F.of(x) for x in obj["point"]),
            directions=directions,
            label=label,
        )
    if kind == "graph":
        frame = AffineMap(
            F,
            [[F.of(x) for x in row] for row in obj["frame_matrix"]],
            [F.of(x) for x in obj["frame_translation"]],
        )
        polys = tuple(parse_poly(s, F, dim) for s in equations)
        return VarietySpec(
            kind="graph", ambient=ambient, dim=dim, degree=degree(1),
            frame=frame, graph_polys=polys, label=label,
        )
    if kind == "hypersurface":
        if len(equations) != 1:
            raise MalformedInput(f"a hypersurface has one equation, not {len(equations)}")
        poly = parse_poly(equations[0], F, dim + 1)
        if poly.degree < 1:
            raise MalformedInput(f"a hypersurface equation of degree below 1: {equations[0]!r}")
        return VarietySpec(
            kind="hypersurface", ambient=ambient, dim=dim, degree=degree(int(poly.degree)),
            point=tuple(F.of(x) for x in obj["point"]),
            directions=directions, surface_poly=poly, label=label,
        )
    raise UnsupportedKind(f"unknown variety kind {kind!r}")
