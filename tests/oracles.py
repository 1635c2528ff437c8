"""Oracles that the tests build from the library's public pieces: the
algebra of matrices and affine maps, a solve and a nullspace, greedy
basis completion, a polynomial scaled and pulled back along an affine
map, a Hasse operator applied to a polynomial, a coefficient of a
polynomial along coordinates read in field elements, a hypersurface's
series solved in field elements, a polynomial's expansion in a chart's
local coordinates, read coefficient by coefficient, a flat's incidence
and chart worked out at each point, its restriction to its own
coordinates, a ledger walked on ambient rows, detection by
``is_joint`` on every tuple with the records read off its tuple lists,
W_p multiplied tuple by tuple, and root values compared by cross powers
and sorted by that comparison."""

import functools
import itertools
import math
from collections import Counter
from fractions import Fraction

import sympy

from jointslab import linalg
from jointslab.balance import RootValue
from jointslab.basis import BasisLedger, LedgerStep, default_cap, step_order
from jointslab.config import is_joint
from jointslab.errors import DimensionMismatch, SingularPoint
from jointslab.field import binom
from jointslab.poly import (
    AffineMap,
    HasseOperator,
    Polynomial,
    affine_form,
    coefficient_along,
    expansion_row,
    exponents_of_degree,
    hasse_apply,
    monomials_upto,
)
from jointslab.varieties import contains_point, dim_regular_functions, make_chart


def mat_mul(F, A, B) -> list:
    """The matrix product A B."""
    cols = list(zip(*B))
    return [linalg.mat_vec(F, cols, row) for row in A]


def solve(F, A, b):
    """One solution of A x = b, free variables set to zero, or None if the
    system is inconsistent."""
    n = len(A[0]) if A else 0
    red = linalg.IncrementalRowReducer(F)
    for row, bv in zip(A, b):
        red.insert([*row, bv])
    pivots = red.rref()
    if n in pivots:
        return None
    x = [F.zero] * n
    for c, row in pivots.items():
        x[c] = row[n]
    return x


def nullspace(F, A):
    """Basis of the right nullspace of A: one vector per free column, in
    column order."""
    red = linalg.IncrementalRowReducer(F)
    for row in A:
        red.insert(row)
    return linalg.rref_nullspace(F, red.rref(), len(A[0]) if A else 0)


def complete_basis(F, vectors, n: int) -> list:
    """Independent vectors extended to a basis of F^n with standard basis
    vectors, chosen greedily in index order."""
    red = linalg.IncrementalRowReducer(F)
    out = [list(v) for v in vectors]
    if not all(red.insert(v) for v in out):
        raise ValueError("input vectors are dependent")
    for j in range(n):
        e = [F.one if i == j else F.zero for i in range(n)]
        if red.insert(e):
            out.append(e)
    return out


def apply(T: AffineMap, point) -> list:
    """T(point) = A point + b."""
    F = T.field
    point = [F.of(x) for x in point]
    return [F.add(v, t) for v, t in zip(linalg.mat_vec(F, T.matrix, point), T.translation)]


def scale(g: Polynomial, c) -> Polynomial:
    """c g."""
    F = g.field
    c = F.of(c)
    return Polynomial(F, g.nvars, {e: F.mul(c, v) for e, v in g.terms.items()})


def apply_operator(D: HasseOperator, g: Polynomial) -> Polynomial:
    """D g = sum_w c_w Hasse^w g, by ``hasse_apply``'s binomials."""
    acc = Polynomial.zero(g.field, g.nvars)
    for w, c in D.combo.items():
        acc = acc + scale(hasse_apply(w, g), c)
    return acc


def identity_map(F, d) -> AffineMap:
    return AffineMap(F, linalg.identity(F, d), [F.zero] * d)


def compose(S: AffineMap, T: AffineMap) -> AffineMap:
    """S after T: x -> S(T(x))."""
    F = S.field
    b = [F.add(v, t) for v, t in zip(linalg.mat_vec(F, S.matrix, T.translation), S.translation)]
    return AffineMap(F, mat_mul(F, S.matrix, T.matrix), b)


def inverse(T: AffineMap) -> AffineMap:
    F, A = T.field, T.inverse
    return AffineMap(F, A, [F.neg(v) for v in linalg.mat_vec(F, A, T.translation)])


def pullback(g: Polynomial, T: AffineMap) -> Polynomial:
    """g composed with T, i.e. substitute x -> Ax + b and expand."""
    if T.dim != g.nvars:
        raise DimensionMismatch("map/ring dimension mismatch")
    return g.substitute([affine_form(g.field, row, b) for row, b in zip(T.matrix, T.translation)])


def coefficient_in_field(g: Polynomial, coords, gamma, memo: dict):
    """[t^gamma] g(phi(t)) read in field elements, the oracle of
    ``coefficient_along``: g's coefficients summed against the expansion
    row of gamma along the coordinates as they are, ``Fraction``s
    included.  ``memo`` is that row memo, for one (coords, deg g) pair."""
    if len(coords) != g.nvars:
        raise DimensionMismatch("one coordinate per variable required")
    n = max(map(sum, g.terms), default=0)
    row = expansion_row(g.field, coords, n, gamma, memo)
    index = {e: k for k, e in enumerate(monomials_upto(g.nvars, n))}
    return g.field.of(sum(c * row[index[e]] for e, c in g.terms.items()))


def polynomial_in_field(g: Polynomial, coords, nvars: int) -> Polynomial:
    """g(phi(t)) in ``nvars`` variables t, every coefficient read by
    ``coefficient_in_field``: the oracle of ``polynomial_along``."""
    top = max((sum(e) for x in coords for e in x), default=0)
    memo: dict = {}
    return Polynomial(g.field, nvars, {
        gamma: coefficient_in_field(g, coords, gamma, memo)
        for gamma in monomials_upto(nvars, int(max(g.degree, 0)) * top)
    })


def series_in_field(F, E: Polynomial, N: int) -> dict:
    """The series s = h(t) with E(t, h(t)) = 0 and no constant or linear
    part, through degree N, for E in (t_1..t_k, s) with E(0) = 0, no
    linear t-terms and s-coefficient c != 0, solved in field elements: the
    oracle of ``varieties._solve_series``.  In graded order,
    h_gamma = -[t^gamma] E(t, h(t)) / c, read by ``coefficient_in_field``
    along the exact (t, h) while h_gamma is still missing, so that the
    entry of the monomial s reads 0; storing h_gamma leaves gamma's memo
    row stale, so it is dropped."""
    k = E.nvars - 1
    minus_c_inv = F.neg(F.inv(E.coefficient((0,) * k + (1,))))
    h: dict = {}
    coords = [{e: F.one} for e in exponents_of_degree(k, 1)] + [h]
    memo: dict = {}
    for r in range(2, N + 1):
        for gamma in exponents_of_degree(k, r):
            acc = coefficient_in_field(E, coords, gamma, memo)
            if acc:
                h[gamma] = F.mul(acc, minus_c_inv)
                del memo[gamma]
    return h


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
    N: (t_1, ..., t_k, h_{k+1}, ..., h_c) substituted into g framed by the
    chart's d x c frame."""
    F, k = C.field, C.owner.dim
    images = [Polynomial.variable(F, k, i) for i in range(k)] + C.series(N)
    framed = g.substitute([affine_form(F, row, b) for row, b in zip(C.frame, C.center)])
    return substitute_through(framed, images, N)


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
    """(center, frame rows, scale, tangent rows) of the flat V's chart at
    p: the frame's k columns are its directions, and the scale the lcm of
    their denominators over Q."""
    p = [F.of(x) for x in p]
    dirs = [[F.of(x) for x in u] for u in V.directions]
    matrix = [[u[i] for u in dirs] for i in range(V.ambient)]
    scale = 1 if F.p else math.lcm(*(x.denominator for row in matrix for x in row))
    return tuple(p), matrix, scale, dirs


def carrier_coordinates(V, p, F):
    """The coordinates z of p - base in the directions of the flat V or of
    the hypersurface V's carrier flat, by one solve, or None if p is off
    that flat."""
    dirs = [[F.of(x) for x in u] for u in V.directions]
    cols = [[u[i] for u in dirs] for i in range(V.ambient)]
    return solve(F, cols, [F.sub(F.of(a), F.of(b)) for a, b in zip(p, V.point)])


def restriction_matrix(V, F, n) -> list:
    """The matrix of g -> g(base + D u) from F[x]_{<= n} onto F[u]_{<= n},
    for the space base + D u, u in c coordinates, that a chart of V reads
    its ledger rows in: a flat itself, a hypersurface's carrier flat
    (c = len(V.directions)), and for a graph the whole space (base 0 and
    D = I, so the matrix is the identity).  Row epsilon is the expansion
    row of u^epsilon along base + D u, over ``monomials_upto(d, n)``.  A
    row over ``monomials_upto(c, n)`` times it is the ambient row of the
    same functional."""
    d = V.ambient
    if V.kind == "graph":
        base, dirs = (0,) * d, [[int(i == j) for j in range(d)] for i in range(d)]
    else:
        base, dirs = V.point, V.directions
    c = len(dirs)
    units = exponents_of_degree(c, 1)
    coords = []
    for i, b in enumerate(base):
        x = {e: F.of(u[i]) for e, u in zip(units, dirs) if F.of(u[i])}
        if F.of(b):
            x[(0,) * c] = F.of(b)
        coords.append(x)
    memo: dict = {}
    return [expansion_row(F, coords, n, eps, memo) for eps in monomials_upto(c, n)]


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
    return BasisLedger(ref, n, red.rank, steps, counts, cap_hit), rows


def detect_by_is_joint(F, families, candidates) -> list:
    """Tuple-by-tuple detection, the oracle for ``detect_joints``: one
    chart per regular member through a candidate, then ``is_joint`` on
    every ``itertools.product`` tuple of each family's combinations, each
    flattened to its (family, member) refs.  Per distinct candidate:
    (point, qualifying tuples in that order, number of tuples tried)."""
    out, seen = [], set()
    for raw in candidates:
        p = tuple(F.of(x) for x in raw)
        if p in seen:
            continue
        seen.add(p)
        charts, per_family = {}, []
        for fi, fam in enumerate(families):
            regular = []
            for mi, V in enumerate(fam.members):
                if contains_point(V, p, F) is not None:
                    try:
                        charts[fi, mi] = make_chart(V, p, F)
                    except SingularPoint:
                        continue
                    regular.append(mi)
            per_family.append(list(itertools.combinations(regular, fam.m)))
        tried = [tuple((fi, mi) for fi, picks in enumerate(choice) for mi in picks)
                 for choice in itertools.product(*per_family)]
        qualifying = [refs for refs in tried if is_joint(p, [charts[ref] for ref in refs])]
        out.append((p, qualifying, len(tried)))
    return out


def tuple_counts(tuples) -> dict:
    """member ref -> the number of the tuples that hold it."""
    return dict(Counter(ref for refs in tuples for ref in refs))


def joint_records(cfg) -> tuple:
    """(joints, chosen, uses, M) of a configuration."""
    return cfg.joints, cfg.chosen, cfg.uses, [cfg.M(j) for j in range(len(cfg.joints))]


def records_of_tuples(oracle) -> tuple:
    """The (joints, chosen, uses, M) that detection must give, read off
    the tuple lists of ``detect_by_is_joint``'s output: the candidates
    with a qualifying tuple, each one's first tuple, the number of its
    tuples through each member, and how many tuples it has."""
    found = [(p, q) for p, q, _ in oracle if q]
    return ([p for p, _ in found], [q[0] for _, q in found],
            [tuple_counts(q) for _, q in found], [len(q) for _, q in found])


def W_by_tuples(cfg, tuples, ledgers, n) -> dict:
    """W_p with one factor |D_{p,V}| / C(n + dim V, dim V) per (qualifying
    tuple, member V of it), and root index M(p), from ``tuples``, each
    joint's list of qualifying tuples; then in lowest terms: with g the
    gcd of M(p) and the number of tuples through each member, the exact
    g-th root of that product, to the root index M(p) / g."""
    out = {}
    for j, choices in enumerate(tuples):
        Q = Fraction(1)
        for choice in choices:
            for ref in choice:
                k = cfg.families[ref[0]].k
                Q *= Fraction(ledgers[ref].joint_total(j), binom(n + k, k))
        g = math.gcd(len(choices), *Counter(ref for choice in choices for ref in choice).values())
        root = [sympy.integer_nthroot(x, g) for x in (Q.numerator, Q.denominator)]
        assert all(exact for _, exact in root)
        out[j] = RootValue(Fraction(root[0][0], root[1][0]), len(choices) // g)
    return out


def cmp_by_cross_powers(a: RootValue, b: RootValue) -> int:
    """-1 / 0 / 1 comparison of two root values by raising each radicand
    to the other's root index: Q1^(1/M1) against Q2^(1/M2) is Q1^(M2/g)
    against Q2^(M1/g), g = gcd(M1, M2).  Exact, and slow when the root
    indices are large and differ."""
    g = math.gcd(a.M, b.M)
    u, v = a.Q ** (b.M // g), b.Q ** (a.M // g)
    return (u > v) - (u < v)


def sorted_desc_by_cmp(W: dict) -> list:
    """(joint, W) pairs, W descending, ties by joint ascending, sorted by
    one exact ``cmp_by_cross_powers`` per pair of joints compared."""
    key = functools.cmp_to_key(lambda i, j: cmp_by_cross_powers(W[j], W[i]) or i - j)
    order = sorted(W, key=key)
    return [(j, W[j]) for j in order]
