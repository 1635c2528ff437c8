"""Variety kinds, local-coordinate charts, and derivative operators.

Every member lives in a carrier, an affine space base + span(dirs) with
coordinates z = W (x - base), worked out once per (member, field) when a
config is loaded (``_Carrier``): a flat is its own carrier, a
hypersurface's is the (k+1)-flat of its equation, and a graph's is the
whole space in its frame's coordinates.  Membership, charts and ambient
equations each read the carrier first and then V's own equations in z:
none for a flat, the graph equations, or the hypersurface's equation.
``contains_point`` returns a point's z, or None off V, and the chart
built there keeps it.

A chart frames a regular point p of a k-dimensional variety V in c
coordinates w, c the carrier's dimension, with p at w = 0, the tangent
space along the first k and the others power series h_i(t) with no
constant or linear part: none for a flat, a graph's Taylor shift, and
for a hypersurface the solution of its framed equation E(t, h(t)) = 0,
solved one coefficient at a time, in graded order, each read off one
``poly.expansion_row`` row along (t, h), and only as far as a reader
asks.  A chart holds its frames as plain rows, with no ``AffineMap``
built.  ``Chart.coordinates(r)`` is the parametrization phi of V near p
through degree r.  The functional g -> D^gamma g(p) attached to a local
exponent vector gamma is g -> [t^gamma] g(phi(t)), which reads phi
through degree |gamma| only; ledgers, the rank check and the witness
read it as ``poly.expansion_row`` rows.  The rank check reads them along
``Chart.scaled_coordinates``, x(phi(lambda t)), and every ledger along
``Chart.row_coordinates``, z + B (lambda t, h(lambda t)) in the space
the chart reads its rows in: a flat's own, a hypersurface's carrier
flat, a graph's ambient space.  Restriction takes F[x]_{<= n} onto
F[u]_{<= n} on that space, so its rows have the same independent
subsets as ambient ones, on C(n+c, c) columns instead of C(n+d, d).
Each lambda is fixed with the chart, and its coordinates over Q are
ints in every degree >= 1, so each row is lambda^|gamma| times the exact
one and is built in ints.  ``derivative_operator`` writes the same
functional as ambient Hasse derivatives, its coefficients one expansion
row along the centered coordinates phi(t) - p: library API and the test
oracle for those rows.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field as dc_field
from operator import mul

from . import linalg
from .errors import (
    DimensionMismatch,
    MalformedInput,
    NotOnVariety,
    SingularPoint,
    UnsupportedKind,
)
from .field import FieldSpec, as_int, binom, json_typed
from .poly import (
    AffineMap,
    HasseOperator,
    Polynomial,
    affine_coordinates,
    affine_form,
    coefficient_along,
    expansion_row,
    exponents_of_degree,
    format_poly,
    monomials_upto,
    parse_poly,
    polynomial_along,
    shifted_coordinates,
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
    # field -> the member's _Carrier, filled on first use; no part of the
    # value, its equality or its hash
    _carriers: dict = dc_field(default_factory=dict, init=False, repr=False, compare=False)

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
            # e = max(1, max_j deg f_j), so the degree is at least e; a
            # generic codimension-k linear section is k equations of degree
            # at most e in the k unknowns t, with no points at infinity, so
            # by Bezout it is at most e^k.  For a curve (k = 1) both are e.
            top = _graph_degree(self.graph_polys)
            most = top ** self.dim
            if not top <= self.degree <= most:
                need = f"exactly {top}" if most == top else f"from {top} to {most}"
                raise ValueError(f"a graph of dim {self.dim} with polynomials of degree up to "
                                 f"{top} has degree {need}, not {self.degree}")
        if self.kind == "hypersurface":
            if len(self.directions) != self.dim + 1:
                raise DimensionMismatch("hypersurface flat needs dim+1 directions")
            if self.surface_poly is None or self.surface_poly.nvars != self.dim + 1:
                raise DimensionMismatch("defining polynomial must use the flat coordinates")
            if self.surface_poly.degree < 1:
                raise ValueError("a hypersurface equation has degree at least 1")
            if self.degree != self.surface_poly.degree:
                raise ValueError("declared degree must match the defining polynomial")


def _graph_degree(polys) -> int:
    """max(1, max_j deg f_j) over a graph's polynomials f_j."""
    return max([1] + [int(f.degree) for f in polys if not f.is_zero()])


@dataclass
class Chart:
    """Framed local presentation of a variety at a regular point.

    The series ``h`` give V near the center as w = (t, h(t)), t the k
    local variables and h_{k+1..c} power series with no constant or
    linear part, c - k of them: none for a flat, one for a hypersurface,
    d - k for a graph.  The chart holds w in two coordinate systems, each
    an affine map q + M w read as plain rows.  ``center`` and ``frame``
    (d x c, whose first k columns span the tangent space) give ambient
    ones, x = center + A' w; no forward frame and no inverse is kept.
    ``z`` and ``basis`` (c x c) give those its ledger rows are read in,
    z + B w, onto which restriction from F[x]_{<= n} is onto: a flat's own
    coordinates u, with z = u_p and B = I; a hypersurface's carrier flat,
    with z the coordinates its membership test read; and for a graph the
    ambient ones, z = center and B = A'.

    Readers pass the order r they need and get series and coordinates
    exact through degree r, possibly with higher terms: a hypersurface's
    ``solver``, the ``_solve_series`` generator (None for every other
    chart), grows its series one degree per step, on demand.

    Each reader has a positive integer scale lambda, fixed when the chart
    is made (1 over F_p), such that its coordinates at lambda t have
    integral coefficients in every degree >= 1.  Rows read along them are
    rows read along the exact ones times lambda^|gamma|, so they span the
    same conditions and can be built in ints.  ``scale`` serves the
    ambient ``scaled_coordinates`` that the rank check reads, so it clears
    the denominators of A', that is of the carrier's directions as well;
    ``row_scale`` serves ``row_coordinates`` and clears only those of B
    and the series."""

    owner: VarietySpec
    center: tuple
    field: FieldSpec
    frame: list = dc_field(repr=False)  # rows of A' (d x c); w = 0 maps to the center
    z: list = dc_field(repr=False)  # the center in the row coordinates
    basis: list = dc_field(repr=False)  # rows of B (c x c)
    h: list = dc_field(repr=False)  # h_{k+1..c} as {beta: c} maps
    scale: int = 1
    row_scale: int = 1
    solver: object = dc_field(default=None, repr=False, compare=False)
    # the series are exact through this degree: every degree without a
    # solver, else 1 until the solver steps
    _solved: float = dc_field(init=False, repr=False)
    # (exact through, coordinates), one per coordinate system
    _coords: tuple | None = dc_field(default=None, init=False, repr=False)
    _rows: tuple | None = dc_field(default=None, init=False, repr=False, compare=False)
    # (coordinates, scaled_coordinates of them)
    _scaled_coords: tuple = dc_field(default=(None, None), init=False, repr=False, compare=False)
    # the expansion rows that basis.functional_rows reads, one gamma -> row
    # memo per degree bound
    expansion_memos: dict = dc_field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self._solved = math.inf if self.solver is None else 1

    def _grow(self, r: int) -> None:
        while self._solved < r:
            self._solved = next(self.solver)

    def series(self, r: int) -> list:
        """h_{k+1..c} as polynomials in t, exact through degree r."""
        self._grow(r)
        return [Polynomial(self.field, self.owner.dim, h) for h in self.h]

    def _along(self, q, rows) -> list:
        """q_i + sum_j M_ij w_j for each row of M, as {beta: c} maps over
        the local variables, with w_j = t_j for j < k and the series h_j
        otherwise.  Each map is read off the row: the series have no
        constant or linear part, so only their terms can collide."""
        k, p = self.owner.dim, self.field.p
        zero, units = (0,) * k, exponents_of_degree(k, 1)
        coords = []
        for row, b in zip(rows, q):
            x = {zero: b} if b else {}
            x.update((e, a) for e, a in zip(units, row) if a)
            for a, h in zip(row[k:], self.h):
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
        return coords

    def coordinates(self, r: int) -> list:
        """x(phi(t)) = center + A' (t, h(t)), exact through degree r, rebuilt
        only when the series grows."""
        if self._coords is None or self._coords[0] < r:
            self._grow(r)
            self._coords = self._solved, self._along(self.center, self.frame)
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

    def row_coordinates(self, r: int) -> list:
        """z + B (lambda t, h(lambda t)), lambda = ``row_scale``, what ledger
        rows are read along, exact through degree r, each value an ``int``
        where it is integral over Q; rebuilt only when the series grows."""
        if self._rows is None or self._rows[0] < r:
            self._grow(r)
            coords = self._along(self.z, self.basis)
            self._rows = self._solved, coords if self.field.p else _scaled(coords, self.row_scale)
        return self._rows[1]


# ---------------------------------------------------------------------------
# Carriers: point membership and defining equations
# ---------------------------------------------------------------------------


def _coerce_point(F: FieldSpec, p):
    return [F.of(x) for x in p]


def contains_point(V: VarietySpec, p, F: FieldSpec) -> list | None:
    """p's carrier coordinates z = W (p - base) if p is on V, else None.

    p is on V when it is on V's carrier, by the carrier's equations, and
    z is on V's equations there: none for a flat, z_{k+j} = f_j(z_1..z_k)
    for a graph and E(z) = 0 for a hypersurface.  The point is read in
    canonical field elements, or in ints, as ``make_chart`` and detection
    pass it, so it is coerced once per chart attempt, by its caller.
    ``make_chart`` keeps z on its chart, so a chart reads it once."""
    if len(p) != V.ambient:
        raise DimensionMismatch("point dimension mismatch")
    car = _carrier(V, F)
    if not car.holds(p):
        return None
    z = car.coordinates(p)
    if V.kind == "graph":
        k = V.dim
        on = all(f.evaluate(z[:k]) == z[k + j] for j, f in enumerate(V.graph_polys))
    else:
        on = V.kind == "flat" or not V.surface_poly.evaluate(z)
    return z if on else None


class _Carrier:
    """The affine space base + span(dirs) that a member lives in, over one
    field: what its incidence, charts and equations read at every point,
    worked out once per (member, field) by ``_carrier``.  A flat is its
    own carrier and a hypersurface's is the (k+1)-flat of its equation.  A
    graph's is the whole space in its frame's coordinates y = A x + b:
    base = A^-1 (-b) and dirs the columns of A^-1, the ``inverse`` that
    the frame took once, when it was built.

    ``coordinate_rows`` are the rows W with z = W v for every
    v = sum_i z_i dirs_i, so the carrier coordinates of a point p on it
    are W (p - base); a graph's W is A.  ``normals`` and ``offsets`` are
    the carrier's equations a.x = c, which ``holds`` evaluates; a graph
    has none.  A flat's are read off one reduced row echelon form, of the
    rows (dirs_i | e_i) with the d direction columns in reverse order: the
    nullspace of its first d columns, read back in order, is the normals,
    and its last columns hold W.  Directions that are not independent
    raise ``MalformedInput``."""

    __slots__ = ("field", "base", "dirs", "normals", "offsets", "coordinate_rows")

    def __init__(self, V: VarietySpec, F: FieldSpec):
        d = V.ambient
        self.field = F
        if V.kind == "graph":
            A = V.frame.inverse
            self.base = linalg.mat_vec(F, A, [F.neg(b) for b in V.frame.translation])
            self.dirs = [list(u) for u in zip(*A)]
            self.coordinate_rows = V.frame.matrix
            self.normals, self.offsets = [], []
            return
        self.base = _coerce_point(F, V.point)
        self.dirs = dirs = [_coerce_point(F, u) for u in V.directions]
        k = len(dirs)
        red = linalg.IncrementalRowReducer(F)
        for i, u in enumerate(dirs):
            red.insert(u[::-1] + [F.one if j == i else F.zero for j in range(k)])
        pivots = red.rref()
        if any(c >= d for c in pivots):
            raise MalformedInput(f"{V.kind} directions are dependent")
        self.normals = [a[::-1] for a in linalg.rref_nullspace(F, pivots, d)]
        self.offsets = linalg.mat_vec(F, self.normals, self.base)
        self.coordinate_rows = W = [[F.zero] * d for _ in range(k)]
        for c, row in pivots.items():
            for j in range(k):
                W[j][d - 1 - c] = row[d + j]

    def holds(self, p) -> bool:
        """Whether the point p, in canonical field elements, is on the
        carrier."""
        q = self.field.p
        for a, c in zip(self.normals, self.offsets):
            v = sum(map(mul, a, p))
            if (v % q if q else v) != c:
                return False
        return True

    def coordinates(self, p) -> list:
        """W (p - base): the carrier coordinates of a point p on the
        carrier, in canonical field elements."""
        F = self.field
        return linalg.mat_vec(F, self.coordinate_rows, [F.sub(a, b) for a, b in zip(p, self.base)])


def _carrier(V: VarietySpec, F: FieldSpec) -> _Carrier:
    """V's ``_Carrier`` over F, built on the first call and kept on V.  A
    graph's frame and a hypersurface's equation hold their own field, so
    a curved member is read over that field only."""
    got = V._carriers.get(F)
    if got is None:
        if V.kind != "flat" and _spec_field(V) != F:
            raise DimensionMismatch(f"a {V.kind} over {_spec_field(V)} read over {F}")
        got = V._carriers[F] = _Carrier(V, F)
    return got


def ambient_equations(V: VarietySpec, F: FieldSpec | None = None) -> list:
    """Generators of the polynomials vanishing on V, as ambient polynomials
    over F: V's equations in its carrier coordinates (none for a flat,
    y_{k+j} - f_j(y_1..y_k) for a graph, E for a hypersurface) with
    z = W (x - base) substituted, then the carrier's equations a.x - c.  A
    flat carries no field, so F is required for one."""
    if F is None:
        F = _spec_field(V)
    d, k = V.ambient, V.dim
    car = _carrier(V, F)
    if V.kind == "graph":
        inner = [Polynomial.variable(F, d, k + j) - _embed(f, d)
                 for j, f in enumerate(V.graph_polys)]
    else:
        inner = [V.surface_poly] if V.kind == "hypersurface" else []
    shift = linalg.mat_vec(F, car.coordinate_rows, car.base)
    z = [affine_form(F, row, F.neg(c)) for row, c in zip(car.coordinate_rows, shift)]
    return ([q.substitute(z) for q in inner]
            + [affine_form(F, a, F.neg(c)) for a, c in zip(car.normals, car.offsets)])


def _spec_field(V: VarietySpec) -> FieldSpec:
    if V.kind == "graph":
        return V.frame.field
    if V.kind == "hypersurface":
        return V.surface_poly.field
    raise UnsupportedKind("flats carry no field; pass one explicitly")


def _embed(f: Polynomial, d: int) -> Polynomial:
    """View a polynomial in the first k variables inside the d-variable ring."""
    pad = d - f.nvars
    return Polynomial(f.field, d, {e + (0,) * pad: c for e, c in f.terms.items()})


# ---------------------------------------------------------------------------
# Chart construction
# ---------------------------------------------------------------------------


def make_chart(V: VarietySpec, p, F: FieldSpec | None = None) -> Chart:
    """Build the local chart of V at the regular point p.

    The point is coerced once, and one ``contains_point`` settles
    membership and gives its carrier coordinates z.  Each kind gives a
    basis of its carrier in z's coordinates, tangent vectors first, and
    its series: for a flat the axes and no series; for a graph the axes,
    the first k of them plus the linear parts of the f_j Taylor-shifted
    to z, whose higher parts are the series; for a hypersurface the
    tangent vectors, then the gradient direction, of E at z, and one
    series, of E framed once, E(z + B w), along the ``affine_coordinates``
    of that frame, solved by ``_solve_series`` as far as readers ask.  The
    frame's columns are that basis mapped through the carrier's
    directions, with no inverse taken.  Rows are read at z along that
    basis, but a graph's along its frame, at its center: its frame
    coordinates would put ``Fraction`` centers in its rows."""
    if F is None:
        F = _spec_field(V)
    p = _coerce_point(F, p)
    z = contains_point(V, p, F)
    if z is None:
        raise NotOnVariety(f"point is not on the {V.kind}")
    d, k = V.ambient, V.dim
    car = _carrier(V, F)
    series, solver, lam = [], None, 1
    cols = list(zip(*car.dirs))
    if V.kind == "flat":
        rows, frame = linalg.identity(F, k), [list(row) for row in cols]
    elif V.kind == "graph":
        shifted = [taylor_shift(f, z[:k]) for f in V.graph_polys]
        B = linalg.identity(F, d)
        for i, e in enumerate(exponents_of_degree(k, 1)):
            B[i][k:] = [g.coefficient(e) for g in shifted]
        series = [{e: c for e, c in g.terms.items() if sum(e) >= 2} for g in shifted]
        frame = [list(row) for row in zip(*(linalg.mat_vec(F, cols, v) for v in B))]
        z, rows = p, frame
    else:
        m, memo = k + 1, {}
        grad = [coefficient_along(V.surface_poly, shifted_coordinates(z), e, memo)
                for e in exponents_of_degree(m, 1)]
        i0 = next((i for i, a in enumerate(grad) if a), None)
        if i0 is None:
            raise SingularPoint("all first-order coefficients vanish at the point")
        B = []
        for i in range(m):
            if i != i0:
                v = [F.zero] * m
                v[i], v[i0] = F.one, F.neg(F.div(grad[i], grad[i0]))
                B.append(v)
        B.append([F.one if j == i0 else F.zero for j in range(m)])
        rows = [list(row) for row in zip(*B)]
        E2 = polynomial_along(V.surface_poly, affine_coordinates(rows, z), m)
        series = [{}]
        solver = _solve_series(F, E2, series[0])
        lam = _series_scale(F, E2)
        frame = [list(row) for row in zip(*(linalg.mat_vec(F, cols, v) for v in B))]
    values = [h.values() for h in series]
    scale = _denominator_lcm(F, itertools.chain(*frame, *values)) * lam
    row_scale = _denominator_lcm(F, itertools.chain(*rows, *values)) * lam
    return Chart(V, tuple(p), F, frame, z, rows, series, scale, row_scale, solver)


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


def tangent_space(C: Chart) -> list:
    """The tangent directions: the first k columns of the chart's
    ``frame`` A'."""
    return [[row[j] for row in C.frame] for j in range(C.owner.dim)]


# ---------------------------------------------------------------------------
# Directional derivative operators
# ---------------------------------------------------------------------------


def derivative_operator(C: Chart, gamma, ambient: bool = True) -> HasseOperator:
    """The operator sum_w c_w Hasse^w with D g(center) = [t^gamma] g(phi(t)).

    By Taylor's formula g(center + u) = sum_w (Hasse^w g)(center) u^w, so
    c_w is [t^gamma] u(t)^w for u(t) = phi(t) - center: the expansion row
    of gamma along the centered chart coordinates.  As u has no constant
    term, |w| <= |gamma| suffices.  With ambient=False the operator acts
    in the chart's c framed coordinates w, where the center is the origin
    and u(t) = (t, h(t)).
    """
    F = C.field
    k = C.owner.dim
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
    nvars = len(coords)
    return HasseOperator(F, nvars, {w: F.of(c) for w, c in zip(monomials_upto(nvars, r), row)})


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
    """The member an object of a JSON config describes, with its
    ``_carrier`` over F built here, which refuses dependent directions; a
    graph's frame is inverted as it is built, which refuses a singular
    one.  A declared ``degree`` is passed to ``VarietySpec``, which checks
    it; a missing one is the member's own: 1 for a flat, the equation's
    degree for a hypersurface, and e = max(1, max_j deg f_j) for a graph of
    dimension 1 or with every f_j zero.  A graph of higher dimension k
    with a nonzero f_j has only the bounds e <= degree <= e^k, so it must
    declare its degree.  Lists and vectors must be JSON arrays and a label
    a string (``json_typed``)."""

    def degree(derived) -> int:
        return json_typed(obj["degree"], int, "member degree") if "degree" in obj else derived

    kind = obj["kind"]
    dim = json_typed(obj["dim"], int, "member dim")
    ambient = json_typed(obj["ambient"], int, "member ambient")
    label = json_typed(obj.get("label", ""), str, "member label")
    if kind in ("graph", "hypersurface"):
        equations = [json_typed(e, str, f"a {kind} equation")
                     for e in json_typed(obj["equations"], list, f"{kind} equations")]
    if kind in ("flat", "hypersurface"):
        point = tuple(F.of(x) for x in json_typed(obj["point"], list, "member point"))
        directions = tuple(tuple(F.of(x) for x in json_typed(u, list, "member direction"))
                           for u in json_typed(obj["directions"], list, "member directions"))
    if kind == "flat":
        V = VarietySpec(
            kind="flat",
            ambient=ambient,
            dim=dim,
            degree=degree(1),
            point=point,
            directions=directions,
            label=label,
        )
    elif kind == "graph":
        matrix = [json_typed(row, list, "frame_matrix row")
                  for row in json_typed(obj["frame_matrix"], list, "frame_matrix")]
        translation = json_typed(obj["frame_translation"], list, "frame_translation")
        frame = AffineMap(F, matrix, translation)
        polys = tuple(parse_poly(s, F, dim) for s in equations)
        top = _graph_degree(polys)
        if "degree" not in obj and dim > 1 and top > 1:
            raise MalformedInput(f"a graph of dim {dim} needs its degree, at least {top}")
        V = VarietySpec(
            kind="graph", ambient=ambient, dim=dim, degree=degree(top),
            frame=frame, graph_polys=polys, label=label,
        )
    elif kind == "hypersurface":
        if len(equations) != 1:
            raise MalformedInput(f"a hypersurface has one equation, not {len(equations)}")
        poly = parse_poly(equations[0], F, dim + 1)
        V = VarietySpec(
            kind="hypersurface", ambient=ambient, dim=dim, degree=degree(poly.degree),
            point=point, directions=directions, surface_poly=poly, label=label,
        )
    else:
        raise UnsupportedKind(f"unknown variety kind {kind!r}")
    _carrier(V, F)
    return V
