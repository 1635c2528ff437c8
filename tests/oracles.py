"""Oracles that the tests build from the library's public pieces: the
algebra of affine maps, a polynomial's expansion in a chart's local
coordinates, read coefficient by coefficient, a flat's incidence and
chart worked out at each point, its restriction to its own coordinates,
a ledger walked on ambient rows, and W_p multiplied tuple by tuple."""

import math
from fractions import Fraction

from jointslab import linalg
from jointslab.balance import RootValue
from jointslab.basis import BasisLedger, LedgerStep, default_cap, step_order
from jointslab.field import binom
from jointslab.poly import (
    AffineMap,
    Polynomial,
    coefficient_along,
    expansion_row,
    exponents_of_degree,
    monomials_upto,
    pullback,
)
from jointslab.varieties import dim_regular_functions


# The maps below are built as the library builds its own, ``_trusted``:
# their entries are fresh rows of field elements, kept as they are.


def identity_map(F, d) -> AffineMap:
    return AffineMap(F, linalg.identity(F, d), [F.zero] * d, _trusted=True)


def compose(S: AffineMap, T: AffineMap) -> AffineMap:
    """S after T: x -> S(T(x))."""
    F = S.field
    b = [F.add(v, t) for v, t in zip(linalg.mat_vec(F, S.matrix, T.translation), S.translation)]
    return AffineMap(F, linalg.mat_mul(F, S.matrix, T.matrix), b, _trusted=True)


def inverse(T: AffineMap) -> AffineMap:
    F = T.field
    A = linalg.inverse(F, T.matrix)
    return AffineMap(F, A, [F.neg(v) for v in linalg.mat_vec(F, A, T.translation)], _trusted=True)


def substitute_through(g: Polynomial, images: list, N: int) -> Polynomial:
    """g with variable i -> images[i], through degree N: the t^gamma
    coefficients with |gamma| <= N, each read by ``coefficient_along``."""
    nv, memo = images[0].nvars, {}
    coords = [h.terms for h in images]
    return Polynomial(g.field, nv, {
        gamma: coefficient_along(g, coords, gamma, memo) for gamma in monomials_upto(nv, N)
    })


def local_expansion(C, g: Polynomial, N: int) -> Polynomial:
    """g as a power series in the chart's local coordinates through degree
    N: (t_1, ..., t_k, h_{k+1}, ..., h_d) substituted into the framed g."""
    k = C.owner.dim
    images = [Polynomial.variable(C.field, k, i) for i in range(k)] + C.series(N)
    return substitute_through(pullback(g, C.frame_inverse), images, N)


def v_vector(p, r: int, h, P) -> dict:
    """Vanishing orders forced at each point of P by the time step (p, r)
    of the handicap h is reached: the smallest order whose step has not
    yet been processed."""
    out = {}
    for q in P:
        bump = 1 if h.position(q) < h.position(p) else 0
        out[q] = max(r - h.of(p) + h.of(q) + bump if q != p else r, 0)
    return out


def flat_contains(V, p, F) -> bool:
    """p is on the flat V iff p - base adds nothing to the span of its
    directions."""
    dirs = [[F.of(x) for x in u] for u in V.directions]
    diff = [F.sub(F.of(a), F.of(b)) for a, b in zip(p, V.point)]
    return linalg.rank(F, dirs + [diff]) == V.dim


def flat_chart_parts(V, p, F) -> tuple:
    """(center, frame_inverse matrix, translation, scale, tangent rows) of
    the flat V's chart at p, from its directions completed by
    ``complete_basis`` at the point: the matrix's columns are that basis,
    and the scale the lcm of its denominators over Q."""
    p = [F.of(x) for x in p]
    dirs = [[F.of(x) for x in u] for u in V.directions]
    basis = linalg.complete_basis(F, dirs, V.ambient)
    matrix = [[v[i] for v in basis] for i in range(V.ambient)]
    scale = 1 if F.p else math.lcm(*(x.denominator for row in matrix for x in row))
    return tuple(p), matrix, p, scale, dirs


def carrier_coordinates(V, p, F):
    """The coordinates z of p - base in the directions of the flat V or of
    the hypersurface V's carrier flat, by one solve, or None if p is off
    that flat."""
    dirs = [[F.of(x) for x in u] for u in V.directions]
    cols = [[u[i] for u in dirs] for i in range(V.ambient)]
    return linalg.solve(F, cols, [F.sub(F.of(a), F.of(b)) for a, b in zip(p, V.point)])


def restriction_matrix(V, F, n) -> list:
    """The matrix of g -> g(base + D u) from F[x]_{<= n} onto F[u]_{<= n},
    for the flat V = base + D u: row epsilon is the expansion row of
    u^epsilon along base + D u, over ``monomials_upto(d, n)``.  A row over
    ``monomials_upto(k, n)`` times it is the ambient row of the same
    functional."""
    k, units = V.dim, exponents_of_degree(V.dim, 1)
    coords = []
    for i, b in enumerate(V.point):
        x = {e: F.of(u[i]) for e, u in zip(units, V.directions) if F.of(u[i])}
        if F.of(b):
            x[(0,) * k] = F.of(b)
        coords.append(x)
    memo: dict = {}
    return [expansion_row(F, coords, n, eps, memo) for eps in monomials_upto(k, n)]


def restricted(F, row, R) -> list:
    """row times the matrix R, in canonical field elements."""
    return [F.of(sum(a * b for a, b in zip(row, col))) for col in zip(*R)]


def ambient_ledger(cfg, ref, h, n, cap=None) -> tuple:
    """(ledger, rows) of ``build_ledger``'s walk with every row ambient:
    the expansion row of gamma along the chart's ``scaled_coordinates``
    over ``monomials_upto(d, n)``, built afresh, with no walk store.
    ``rows`` maps (joint, gamma) to the row of each selected gamma."""
    F, V = cfg.field, cfg.member(ref)
    charts = {j: cfg.charts[j][ref] for j in cfg.joints_on(ref)}
    on = [j for j, C in charts.items() if C is not None]
    target = dim_regular_functions(V, n, F)
    red = linalg.IncrementalRowReducer(F)
    steps, counts, rows = [], {j: {} for j in on}, {}
    for j, r in step_order(h, on, default_cap(V, n) if cap is None else cap):
        if red.rank >= target:
            break
        coords, memo, picked = charts[j].scaled_coordinates(r), {}, []
        for gamma in exponents_of_degree(V.dim, r):
            row = expansion_row(F, coords, n, gamma, memo)
            if red.insert(row):
                picked.append(gamma)
                rows[j, gamma] = row
        if picked:
            counts[j][r] = len(picked)
            steps.append(LedgerStep(j, r, picked))
    cap_hit = bool(on) and red.rank < target
    return BasisLedger(ref, n, target, red.rank, steps, counts, cap_hit), rows


def W_by_tuples(cfg, ledgers, n) -> dict:
    """W_p with one factor |D_{p,V}| / C(n + dim V, dim V) per (qualifying
    tuple, member V of it), and root index M(p)."""
    out = {}
    for j, tuples in enumerate(cfg.multiplicity):
        Q = Fraction(1)
        for choice in tuples:
            for ref in choice:
                k = cfg.families[ref[0]].k
                Q *= Fraction(ledgers[ref].joint_total(j), binom(n + k, k))
        out[j] = RootValue(Q, len(tuples))
    return out
