"""Executable checks behind the counting argument and the final bounds.

The rank check stacks, at every joint, the products of one vanishing
condition per designated variety and verifies that they annihilate no
nonzero polynomial of degree at most n.  A product whose total order
|gamma| exceeds n*D, D the highest t-degree of any term of the joint
coordinates it is read along, is zero on F[x]_{<= n}: it is counted in
``rows`` but neither built nor inserted.  The witness shows, for a given
polynomial and joint, per-variety orders whose product recovers the
leading coefficient of the polynomial's local expansion.  Both read a
product as one ``poly.expansion_row`` row along the joint coordinates
p + sum_i (phi_i(t_i) - p) of the designated charts.  The bound report
evaluates both headline inequalities exactly: part (a) by cross-powering,
part (b) by ``balance.exceeds``; no floating point touches a pass/fail
decision.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from math import factorial

from .balance import RootValue, exceeds
from .config import is_joint
from .errors import LedgerMissing, MalformedInput, NotAJoint, ZeroPolynomial
from .field import as_int, binom
from .linalg import IncrementalRowReducer
from .poly import (
    AffineMap,
    Polynomial,
    coefficient_along,
    expansion_row,
    lowest_term,
    vanishing_order,
)
from .varieties import tangent_space


# ---------------------------------------------------------------------------
# Rank and parameter-count checks
# ---------------------------------------------------------------------------


def vanishing_rank_check(cfg, ledgers: dict, n: int) -> dict:
    """Stack the product functionals D_1 ... D_s g(p) over all joints and
    check that they have full rank C(n+d, d) on F[x]_{<= n}.

    The product row of a pick (gamma_1, ..., gamma_s) is the expansion row
    of t_1^gamma_1 ... t_s^gamma_s along the joint coordinates of the
    designated charts.  Each chart is read along its ``scaled_coordinates``,
    so the row is the product row times prod_i lambda_i^|gamma_i|, with
    lambda_i the chart's ``scale``: a row scalar, which leaves the rank as
    it is and over Q lets the row be built in ints.  Picks run over the
    product of the ledgers' selected gammas.  That row reads each chart's
    coordinates at exponents beta <= gamma_i only, so each chart is read
    through the highest order its ledger selected at the joint.

    Let D be the highest total t-degree of any term of the joint's
    coordinates so read.  Every x^delta with |delta| <= n then has no
    t^gamma term with |gamma| > n*D, so such a pick's row is zero, on flat
    (D = 1) and curved charts alike.  Its row is neither built nor
    inserted, but the pick is still counted in ``rows``, the number of
    picks visited up to the one whose row brings the rank to C(n+d, d).
    """
    F = cfg.field
    d = cfg.ambient
    expected = binom(n + d, d)
    red = IncrementalRowReducer(F)
    rows_seen = 0
    for j, p in enumerate(cfg.joints):
        gammas = [_ledger(ledgers, ref).selected_gammas(j) for ref in cfg.chosen[j]]
        coords = joint_coordinates([as_int(x) for x in p], [
            (C.owner.dim, C.scaled_coordinates(max((sum(g) for g in gs), default=0)))
            for C, gs in zip(cfg.designated_charts(j), gammas)
        ])
        top = n * max(sum(beta) for ci in coords for beta in ci)
        memo: dict = {}
        for pick in itertools.product(*gammas):
            rows_seen += 1
            gamma = sum(pick, ())
            if sum(gamma) > top:
                continue
            red.insert(expansion_row(F, coords, n, gamma, memo))
            if red.rank >= expected:
                return {"rank": red.rank, "expected": expected, "rows": rows_seen, "pass": True}
    return {"rank": red.rank, "expected": expected, "rows": rows_seen, "pass": red.rank == expected}


def joint_coordinates(p, blocks: list) -> list:
    """p + sum_i (phi_i(t_i) - p) as {beta: c} maps, one per ambient
    coordinate, for blocks [(k_i, phi_i)] with phi_i a chart's
    ``coordinates`` at p over its own k_i variables t_i.

    By Hasse^a Hasse^b = C(a+b, a) Hasse^(a+b), the product D_1 ... D_s of
    the charts' operators of orders gamma_1, ..., gamma_s takes g to the
    t_1^gamma_1 ... t_s^gamma_s coefficient of g along these coordinates.
    """
    total = sum(k for k, _ in blocks)
    coords = [{(0,) * total: p_i} for p_i in p]
    before = 0
    for k, phi in blocks:
        pad = (0,) * before, (0,) * (total - before - k)
        for terms, ci in zip(coords, phi):
            terms.update((pad[0] + beta + pad[1], c) for beta, c in ci.items() if any(beta))
        before += k
    return coords


def _ledger(ledgers: dict, ref):
    led = ledgers.get(ref)
    if led is None:
        raise LedgerMissing(f"no ledger for member {ref}")
    return led


def parameter_count_check(cfg, ledgers: dict, n: int) -> dict:
    """Sum over joints of the designated-tuple count products vs C(n+d,d)."""
    d = cfg.ambient
    lhs = 0
    for j in range(len(cfg.joints)):
        prod = 1
        for ref in cfg.chosen[j]:
            prod *= _ledger(ledgers, ref).joint_total(j)
        lhs += prod
    rhs = binom(n + d, d)
    return {"lhs": lhs, "rhs": rhs, "pass": lhs >= rhs}


# ---------------------------------------------------------------------------
# Witness construction
# ---------------------------------------------------------------------------


def hasse_vanishing_witness(p, charts: list, g: Polynomial) -> dict:
    """Per-chart orders gamma_i with D_1 ... D_s g(p) != 0, D_i the chart's
    operator of order gamma_i.

    Frames g at p by the stacked tangent blocks, x = p + sum_i T_i y_i,
    and reads off the ``lowest_term`` c y^gamma of the framed polynomial,
    split into per-chart blocks gamma_i.  The
    product's ``value`` is the gamma coefficient of g along the joint
    coordinates, read by ``coefficient_along``, and ``coefficient`` is c.
    Each phi_i - p is L_i t_i plus terms of degree >= 2, and those terms
    cannot reach the t^gamma coefficient, since every term of the framed
    g has degree >= |gamma|.  So each chart is read through degree 1
    only, and ``pass``, value == coefficient, checks that the
    ``tangent_space`` framing T_i agrees with the charts' linear terms
    L_i.  sum |gamma_i| is the local vanishing order.
    """
    if g.is_zero():
        raise ZeroPolynomial("witness needs a nonzero polynomial")
    if not is_joint(p, charts):
        raise NotAJoint("tangent spaces do not span")
    F = charts[0].field
    point = [F.of(x) for x in p]
    columns = list(zip(*(v for C in charts for v in tangent_space(C))))
    gamma, c_val = lowest_term(g, AffineMap(F, columns, point, _trusted=True))
    ends = itertools.accumulate(C.owner.dim for C in charts)
    gammas = [gamma[end - C.owner.dim : end] for C, end in zip(charts, ends)]
    coords = joint_coordinates(point, [(C.owner.dim, C.coordinates(1)) for C in charts])
    value = coefficient_along(g, coords, gamma, {})
    return {
        "orders": [sum(b) for b in gammas],
        "gammas": gammas,
        "value": value,
        "coefficient": c_val,
        "total_order": sum(gamma),
        "pass": value == c_val,
    }


# ---------------------------------------------------------------------------
# Schwartz-Zippel with multiplicities
# ---------------------------------------------------------------------------


def schwartz_zippel_mult(g: Polynomial, A: list) -> dict:
    """Sum of vanishing orders of g over the grid A^nvars vs the bound
    |A|^(nvars-1) * deg g.  The lemma is stated for a set A, so values
    of A that coincide in g's field are an input error."""
    if g.is_zero():
        raise ZeroPolynomial("vanishing orders of the zero polynomial are infinite")
    F = g.field
    values = [F.of(a) for a in A]
    if len(set(values)) < len(values):
        raise MalformedInput("values of A repeat in the field: " + ", ".join(map(str, A)))
    pts = [tuple(q) for q in itertools.product(values, repeat=g.nvars)]
    lhs = sum(vanishing_order(g, q) for q in pts)
    rhs = len(A) ** (g.nvars - 1) * int(g.degree)
    return {"lhs": lhs, "rhs": rhs, "pass": lhs <= rhs}


# ---------------------------------------------------------------------------
# Bound reports
# ---------------------------------------------------------------------------


def decimal12(x) -> str:
    """12-significant-digit decimal rendering (reports only)."""
    if isinstance(x, RootValue):
        lo, hi = x.brackets(64)
        x = (lo + hi) / 2
    f = Fraction(x)
    with localcontext() as ctx:
        ctx.prec = 12
        return str(Decimal(f.numerator) / Decimal(f.denominator))


@dataclass
class BoundReport:
    joint_count: int
    s: int
    degree_product: int  # prod (deg V_i)^{m_i}
    constant_a: RootValue
    constant_b: RootValue
    rhs_a: RootValue
    rhs_b: RootValue
    mult_sum_brackets: tuple  # rational (lo, hi) for sum M(p)^{1/(s-1)}
    pass_a: bool
    pass_b: bool
    applicable: bool
    notes: str = ""

    def to_json(self) -> dict:
        return {
            "joint_count": self.joint_count,
            "s": self.s,
            "degree_product": self.degree_product,
            "constant_a": decimal12(self.constant_a),
            "constant_b": decimal12(self.constant_b),
            "rhs_a": decimal12(self.rhs_a),
            "rhs_b": decimal12(self.rhs_b),
            "mult_sum_lo": decimal12(self.mult_sum_brackets[0]),
            "mult_sum_hi": decimal12(self.mult_sum_brackets[1]),
            "pass": self.pass_a and self.pass_b,
            "pass_a": self.pass_a,
            "pass_b": self.pass_b,
            "applicable": self.applicable,
            "notes": self.notes,
        }


def bound_report(cfg) -> BoundReport:
    """Evaluate both headline inequalities for the configuration."""
    s = cfg.s
    J = len(cfg.joints)
    one = RootValue(Fraction(1))
    if J == 0:
        return BoundReport(0, s, 1, one, one, one, one,
                           (Fraction(0), Fraction(0)), True, True, True,
                           "empty configuration: 0 <= bound")
    if s < 2:
        return BoundReport(J, s, 1, one, one, one, one,
                           (Fraction(0), Fraction(0)), True, True, False,
                           "single-variety joints carry no counting bound")
    d = cfg.ambient
    m = s - 1
    denom_a, denom_b, deg_prod = 1, 1, 1
    fact = factorial(d)
    for fam in cfg.families:
        kf, mf = fam.k, fam.m
        denom_a *= factorial(kf)**mf * mf**mf
        denom_b *= factorial(kf)**mf * factorial(mf)
        deg_fam = sum(V.degree for V in fam.members)
        deg_prod *= deg_fam**mf
    const_a = RootValue(Fraction(fact, denom_a), m)
    const_b = RootValue(Fraction(fact, denom_b), m)
    rhs_a = RootValue(Fraction(fact * deg_prod, denom_a), m)
    rhs_b = RootValue(Fraction(fact * deg_prod, denom_b), m)
    # part (a): |J|^m <= fact*deg_prod/denom_a, exact
    pass_a = Fraction(J) ** m <= rhs_a.Q
    # part (b): sum_p M(p)^(1/m) <= rhs_b, decided exactly by ``exceeds``;
    # the brackets of the sum are those at the bits that decided it
    roots = [RootValue(Fraction(cfg.M(j)), m) for j in range(J)]
    over, bits = exceeds(roots, [rhs_b])
    brackets = [x.brackets(bits) for x in roots]
    mult_sum = (sum(lo for lo, _ in brackets), sum(hi for _, hi in brackets))
    return BoundReport(J, s, deg_prod, const_a, const_b, rhs_a, rhs_b,
                       mult_sum, pass_a, not over, True)

