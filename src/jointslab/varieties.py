"""Variety kinds, local-coordinate charts, and derivative spaces.

A chart frames a regular point p of a k-dimensional variety V so that p
sits at the origin with the tangent space along the first k coordinates;
the remaining coordinates are graphs of truncated power series h_i with
no constant or linear part.  ``Chart.coordinates`` is the resulting
parametrization phi of V near p, one power series per ambient
coordinate.  The functional g -> D^gamma g(p) attached to a local
exponent vector gamma is g -> [t^gamma] g(phi(t)); ledgers and the rank
check read it as ``poly.expansion_row`` rows.  The same functional as a
linear combination of ambient Hasse derivatives (``derivative_operator``,
``derivative_space``) serves the witness and is the test oracle for
those rows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field

from . import linalg
from .errors import (
    DimensionMismatch,
    NotOnVariety,
    SingularPoint,
    TruncationTooLow,
    UnsupportedKind,
)
from .field import FieldSpec, binom
from .poly import (
    AffineMap,
    HasseOperator,
    Polynomial,
    conjugate_operator,
    expansion_row,
    exponents_of_degree,
    format_poly,
    monomials_upto,
    parse_poly,
    pullback,
    taylor_shift,
)

KINDS = ("flat", "graph", "hypersurface", "raw")


@dataclass(frozen=True)
class VarietySpec:
    """One of the supported variety kinds with its defining payload.

    flat:          point + dim independent direction vectors
    graph:         frame to standard position + polys f_{k+1..d} in the
                   k tangent variables, each with no constant/linear part
    hypersurface:  a (k+1)-flat (point + directions) plus one defining
                   polynomial in the flat's internal coordinates
    raw:           a spanning list for I(V) cap F[x]_{<=n} at a declared
                   working degree, plus declared dim and degree
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
    slice_polys: tuple = ()
    slice_degree: int = 0
    label: str = ""

    def __post_init__(self):
        if self.kind not in KINDS:
            raise UnsupportedKind(f"unknown variety kind {self.kind!r}")
        if self.kind == "flat":
            if len(self.directions) != self.dim:
                raise DimensionMismatch("flat needs dim direction vectors")
            if self.degree != 1:
                raise ValueError("flats have degree 1")
        if self.kind == "graph":
            if len(self.graph_polys) != self.ambient - self.dim:
                raise DimensionMismatch("graph needs ambient-dim defining polynomials")
            for f in self.graph_polys:
                if f.nvars != self.dim:
                    raise DimensionMismatch("graph polynomials live in the tangent variables")
                if not f.is_zero() and min(sum(e) for e in f.terms) < 2:
                    raise ValueError("graph polynomials must have no constant or linear terms")
        if self.kind == "hypersurface":
            if len(self.directions) != self.dim + 1:
                raise DimensionMismatch("hypersurface flat needs dim+1 directions")
            if self.surface_poly is None or self.surface_poly.nvars != self.dim + 1:
                raise DimensionMismatch("defining polynomial must use the flat coordinates")
            if self.degree != self.surface_poly.degree:
                raise ValueError("declared degree must match the defining polynomial")


@dataclass
class Chart:
    """Framed local presentation of a variety at a regular point."""

    owner: VarietySpec
    center: tuple
    frame: AffineMap  # ambient -> local; center maps to the origin
    series: list  # h_{k+1..d}, polynomials in the dim local variables
    truncation: int
    _frame_inv: AffineMap | None = dc_field(default=None, repr=False)
    _framed_eqs: list | None = dc_field(default=None, repr=False)
    _coords: list | None = dc_field(default=None, repr=False)
    # basis.functional_rows results, keyed by (joint, order, degree bound),
    # and the expansion rows behind them, one gamma -> row memo per degree bound
    row_cache: dict = dc_field(default_factory=dict, init=False, repr=False, compare=False)
    expansion_memos: dict = dc_field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def field(self) -> FieldSpec:
        return self.frame.field

    @property
    def frame_inverse(self) -> AffineMap:
        if self._frame_inv is None:
            self._frame_inv = self.frame.inverse()
        return self._frame_inv

    def framed_equations(self) -> list:
        """Defining equations rewritten in the chart coordinates."""
        if self._framed_eqs is None:
            eqs = ambient_equations(self.owner)
            self._framed_eqs = [pullback(e, self.frame_inverse) for e in eqs]
        return self._framed_eqs

    def local_expansion(self, g: Polynomial, truncation: int | None = None) -> Polynomial:
        """g as a truncated power series in the local coordinates:
        substitute (x_1, ..., x_k, h_{k+1}, ..., h_d) into the framed g."""
        N = self.truncation if truncation is None else truncation
        k = self.owner.dim
        F = self.field
        framed = pullback(g, self.frame_inverse)
        images = [Polynomial.variable(F, k, i) for i in range(k)]
        images += [h.truncate(N) for h in self.series]
        return framed.substitute(images, truncation=N)

    def coordinates(self) -> list:
        """x_i(phi(t)) for each ambient coordinate, as {beta: c} maps over
        the local variables: the chart's parametrization of V near the
        center, exact up to the truncation degree."""
        if self._coords is None:
            F, d = self.field, self.owner.ambient
            self._coords = [
                self.local_expansion(Polynomial.variable(F, d, i)).terms for i in range(d)
            ]
        return self._coords


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
    if V.kind == "hypersurface":
        z = _flat_coordinates(V, p, F)
        if z is None:
            return False
        return not V.surface_poly.evaluate(z)
    # raw: membership at the slice degree only
    return all(not g.evaluate(p) for g in V.slice_polys)


def _flat_coordinates(V: VarietySpec, p, F: FieldSpec):
    """Internal coordinates of p in the hypersurface's carrier flat, or
    None if p is off the flat."""
    base = _coerce_point(F, V.point)
    dirs = [_coerce_point(F, u) for u in V.directions]
    cols = [[u[i] for u in dirs] for i in range(V.ambient)]  # ambient x (k+1)
    rhs = [F.sub(a, b) for a, b in zip(p, base)]
    return linalg.solve(F, cols, rhs)


def ambient_equations(V: VarietySpec) -> list:
    """Generators (for the supported kinds) of polynomials vanishing on V,
    as ambient polynomials."""
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
    if V.kind == "hypersurface":
        m = V.dim + 1
        base = _coerce_point(F, V.point)
        dirs = [_coerce_point(F, u) for u in V.directions]
        cols = [[u[i] for u in dirs] for i in range(d)]
        basis = linalg.complete_basis(F, [list(c) for c in zip(*cols)], d)
        M = [[basis[j][i] for j in range(d)] for i in range(d)]  # columns = basis vectors
        Minv = linalg.inverse(F, M)
        coord_polys = []
        for i in range(m):
            terms = {}
            const = F.zero
            for j in range(d):
                a = Minv[i][j]
                if a:
                    e = [0] * d
                    e[j] = 1
                    terms[tuple(e)] = a
                    const = F.sub(const, F.mul(a, base[j]))
            if const:
                terms[(0,) * d] = const
            coord_polys.append(Polynomial(F, d, terms))
        eqs = [V.surface_poly.substitute(coord_polys)]
        eqs += _flat_equations(F, d, V.point, V.directions)
        return eqs
    return list(V.slice_polys)


def _spec_field(V: VarietySpec) -> FieldSpec:
    if V.kind == "graph":
        return V.frame.field
    if V.kind == "hypersurface":
        return V.surface_poly.field
    if V.kind == "raw":
        return V.slice_polys[0].field
    raise UnsupportedKind("flats carry no field; pass one explicitly")


def _flat_equations(F, d, point, directions):
    dirs = [[F.of(x) for x in u] for u in directions]
    base = [F.of(x) for x in point]
    normals = linalg.nullspace(F, dirs) if dirs else linalg.identity(F, d)
    out = []
    for a in normals:
        terms = {}
        const = F.zero
        for j, c in enumerate(a):
            if c:
                e = [0] * d
                e[j] = 1
                terms[tuple(e)] = c
                const = F.sub(const, F.mul(c, base[j]))
        if const:
            terms[(0,) * d] = const
        out.append(Polynomial(F, d, terms))
    return out


def _embed(f: Polynomial, d: int) -> Polynomial:
    """View a polynomial in the first k variables inside the d-variable ring."""
    pad = d - f.nvars
    return Polynomial(f.field, d, {e + (0,) * pad: c for e, c in f.terms.items()})


# ---------------------------------------------------------------------------
# Chart construction
# ---------------------------------------------------------------------------


def make_chart(V: VarietySpec, p, N: int, F: FieldSpec | None = None) -> Chart:
    """Build the local chart of V at the regular point p, with the graph
    series truncated at total degree N."""
    if V.kind == "raw":
        raise UnsupportedKind("charts for raw ideal slices must be user-supplied")
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
        basis = linalg.complete_basis(F, dirs, d)
        frame = _frame_from_columns(F, basis, p)
        series = [Polynomial.zero(F, k) for _ in range(d - k)]
        return Chart(V, tuple(p), frame, series, N)

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
            terms = {e: c for e, c in g.terms.items() if sum(e) >= 2 and sum(e) <= N}
            series.append(Polynomial(F, k, terms))
        # shear so that the tangent space lands on the first k coordinates
        S = linalg.identity(F, d)
        for j in range(d - k):
            for i in range(k):
                S[k + j][i] = F.neg(shear[j][i])
        shift = AffineMap.translation_map(F, [F.neg(v) for v in y0])
        frame = AffineMap(F, S, [F.zero] * d, _trusted=True).compose(shift.compose(V.frame))
        return Chart(V, tuple(p), frame, series, N)

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
    c = E2.coefficient(tuple(0 if i < k else 1 for i in range(m)))
    # solve s = h(t) from E2(t, s) = 0 by the contraction w -> w - E2(t,w)/c
    h = Polynomial.zero(F, k)
    t_images = [Polynomial.variable(F, k, i) for i in range(k)]
    for _ in range(N + 1):
        val = E2.substitute(t_images + [h], truncation=N)
        nxt = h - val.scale(F.inv(c))
        if nxt == h:
            break
        h = nxt
    if any(sum(e) < 2 for e in h.terms):
        raise SingularPoint("series solve produced constant or linear terms")
    dirs = [_coerce_point(F, u) for u in V.directions]
    # ambient images of the in-flat basis vectors
    amb_tangent = [_flat_combo(F, dirs, v) for v in tangent_z]
    amb_normal = _flat_combo(F, dirs, [F.one if j == i0 else F.zero for j in range(m)])
    basis = linalg.complete_basis(F, amb_tangent + [amb_normal], d)
    frame = _frame_from_columns(F, basis, p)
    series = [h] + [Polynomial.zero(F, k) for _ in range(d - k - 1)]
    return Chart(V, tuple(p), frame, series, N)


def _flat_combo(F, dirs, coeffs):
    d = len(dirs[0])
    out = [F.zero] * d
    for c, u in zip(coeffs, dirs):
        if c:
            out = [F.add(a, F.mul(c, b)) for a, b in zip(out, u)]
    return out


def _frame_from_columns(F, basis_vectors, center):
    """AffineMap sending center to 0 and basis vector i to e_i."""
    d = len(center)
    M = [[basis_vectors[j][i] for j in range(d)] for i in range(d)]  # columns = vectors
    A = linalg.inverse(F, M)
    b = [F.neg(v) for v in linalg.mat_vec(F, A, center)]
    return AffineMap(F, A, b, _trusted=True)


def tangent_space(C: Chart) -> list:
    """Images of the first k coordinate directions under the inverse frame."""
    F = C.field
    k = C.owner.dim
    inv = C.frame_inverse
    return [[inv.matrix[i][j] for i in range(C.owner.ambient)] for j in range(k)]


# ---------------------------------------------------------------------------
# Directional derivative operators
# ---------------------------------------------------------------------------


def derivative_operator(C: Chart, gamma, ambient: bool = True) -> HasseOperator:
    """The operator attached to the local exponent vector gamma.

    In the framed coordinates it is sum_w c_w Hasse^w where c_w is the
    x^gamma coefficient of x_1^{w_1}...x_k^{w_k} h_{k+1}^{w_{k+1}}...
    h_d^{w_d}, read off the expansion row of gamma along (x, h(x)); the
    support is restricted to |w| <= |gamma|, whose sufficiency follows
    from the series having no constant or linear terms.  With
    ambient=True the operator is conjugated with the frame so that it
    acts in ambient coordinates and evaluates at the center.
    """
    F = C.field
    d, k = C.owner.ambient, C.owner.dim
    gamma = tuple(gamma)
    if len(gamma) != k:
        raise DimensionMismatch("gamma must use the local variables")
    r = sum(gamma)
    if r > C.truncation:
        raise TruncationTooLow(f"chart truncated at {C.truncation}, need {r}")
    framed_coords = [{e: F.one} for e in exponents_of_degree(k, 1)] + [h.terms for h in C.series]
    row = expansion_row(F, framed_coords, r, gamma, {})
    framed = HasseOperator(F, d, dict(zip(monomials_upto(d, r), row)))
    if not ambient:
        return framed
    return conjugate_operator(framed, C.frame_inverse)


def derivative_space(C: Chart, r: int) -> list:
    """All D^gamma with |gamma| = r, in graded-lex gamma order."""
    if r > C.truncation:
        raise TruncationTooLow(f"chart truncated at {C.truncation}, need {r}")
    return [derivative_operator(C, g) for g in exponents_of_degree(C.owner.dim, r)]


def well_defined_check(C: Chart, D: HasseOperator, trials: int = 20, seed: int = 0) -> dict:
    """Check that g -> Dg(center) kills the defining ideal: for random
    polynomials q and each defining generator e, D(e q)(center) must be 0."""
    F = C.field
    d = C.owner.ambient
    rng = random.Random(seed)
    eqs = ambient_equations(C.owner)
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
        # rank of the substitution map F[y]_{<=n} -> F[t_1..t_k]
        maxdeg = max([1] + [int(f.degree) for f in V.graph_polys if not f.is_zero()])
        target = monomials_upto(k, n * maxdeg)
        index = {e: i for i, e in enumerate(target)}
        red = linalg.IncrementalRowReducer(F)
        t_vars = [Polynomial.variable(F, k, i) for i in range(k)]
        images = t_vars + list(V.graph_polys)
        for mono in monomials_upto(V.ambient, n):
            restricted = Polynomial.monomial(F, V.ambient, mono).substitute(images)
            row = [F.zero] * len(target)
            for e, c in restricted.terms.items():
                row[index[e]] = c
            red.insert(row)
        return red.rank
    if V.kind == "hypersurface":
        e = V.degree
        return binom(n + k + 1, k + 1) - binom(n - e + k + 1, k + 1)
    # raw ideal slice
    monos = monomials_upto(V.ambient, n)
    index = {m: i for i, m in enumerate(monos)}
    red = linalg.IncrementalRowReducer(F)
    for g in V.slice_polys:
        row = [F.zero] * len(monos)
        for exp, c in g.terms.items():
            row[index[exp]] = c
        red.insert(row)
    return binom(n + V.ambient, V.ambient) - red.rank


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
    elif V.kind == "hypersurface":
        obj["point"] = [str(x) for x in V.point]
        obj["directions"] = [[str(x) for x in u] for u in V.directions]
        obj["equations"] = [format_poly(V.surface_poly)]
    else:
        obj["equations"] = [format_poly(g) for g in V.slice_polys]
        obj["slice_degree"] = V.slice_degree
    return obj


def variety_from_json(obj: dict, F: FieldSpec) -> VarietySpec:
    kind = obj["kind"]
    dim = int(obj["dim"])
    ambient = int(obj["ambient"])
    degree = int(obj.get("degree", 1))
    label = obj.get("label", "")
    if kind == "flat":
        return VarietySpec(
            kind="flat",
            ambient=ambient,
            dim=dim,
            degree=1,
            point=tuple(F.of(x) for x in obj["point"]),
            directions=tuple(tuple(F.of(x) for x in u) for u in obj["directions"]),
            label=label,
        )
    if kind == "graph":
        frame = AffineMap(
            F,
            [[F.of(x) for x in row] for row in obj["frame_matrix"]],
            [F.of(x) for x in obj["frame_translation"]],
        )
        polys = tuple(parse_poly(s, F, dim) for s in obj["equations"])
        return VarietySpec(
            kind="graph", ambient=ambient, dim=dim, degree=degree,
            frame=frame, graph_polys=polys, label=label,
        )
    if kind == "hypersurface":
        poly = parse_poly(obj["equations"][0], F, dim + 1)
        return VarietySpec(
            kind="hypersurface", ambient=ambient, dim=dim, degree=int(poly.degree),
            point=tuple(F.of(x) for x in obj["point"]),
            directions=tuple(tuple(F.of(x) for x in u) for u in obj["directions"]),
            surface_poly=poly, label=label,
        )
    if kind == "raw":
        polys = tuple(parse_poly(s, F, ambient) for s in obj["equations"])
        return VarietySpec(
            kind="raw", ambient=ambient, dim=dim, degree=degree,
            slice_polys=polys, slice_degree=int(obj.get("slice_degree", 0)), label=label,
        )
    raise UnsupportedKind(f"unknown variety kind {kind!r}")
