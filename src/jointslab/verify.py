"""Executable checks behind the counting argument and the final bounds.

The rank check stacks, at every joint, the products of one vanishing
condition per designated variety, each product read as one Taylor
coefficient along the sum of the varieties' parametrizations, and
verifies that they annihilate no nonzero polynomial of degree at most n.
The witness constructs, for a
given polynomial and joint, per-variety operators whose product recovers
the leading coefficient of the polynomial's local expansion.  The bound
report evaluates both headline inequalities with exact cross-powered
comparisons; no floating point touches a pass/fail decision.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

from . import linalg
from .balance import RootValue
from .errors import LedgerMissing, NotAJoint, ZeroPolynomial
from .field import binom
from .linalg import IncrementalRowReducer
from .poly import (
    HasseOperator,
    Polynomial,
    conjugate_operator,
    expansion_row,
    exponents_of_degree,
    grlex_key,
    pullback,
    vanishing_order,
)
from .varieties import derivative_space, tangent_space


# ---------------------------------------------------------------------------
# Rank and parameter-count checks
# ---------------------------------------------------------------------------


def vanishing_rank_check(cfg, ledgers: dict, n: int) -> dict:
    """Stack the product functionals D_1 ... D_s g(p) over all joints and
    check that they have full rank C(n+d, d) on F[x]_{<= n}.

    With phi_i the designated charts' parametrizations at p, the product
    row of a pick (gamma_1, ..., gamma_s) is the expansion row of
    t_1^gamma_1 ... t_s^gamma_s along p + sum_i (phi_i(t_i) - p), one
    variable block per chart.  Picks run over the product of the ledgers'
    selected gammas.
    """
    F = cfg.field
    d = cfg.ambient
    expected = binom(n + d, d)
    red = IncrementalRowReducer(F)
    rows_seen = 0
    for j, p in enumerate(cfg.joints):
        designated = [(cfg.member(ref).dim, _ledger(ledgers, ref)) for ref in cfg.chosen[j]]
        total = sum(k for k, _ in designated)
        coords = [{(0,) * total: p_i} for p_i in p]
        before = 0
        for k, led in designated:
            pad = (0,) * before, (0,) * (total - before - k)
            for terms, ci in zip(coords, led.coordinates[j]):
                terms.update((pad[0] + beta + pad[1], c) for beta, c in ci.items() if any(beta))
            before += k
        memo: dict = {}
        for pick in itertools.product(*(led.selected_gammas(j) for _, led in designated)):
            rows_seen += 1
            red.insert(expansion_row(F, coords, n, sum(pick, ()), memo))
            if red.rank >= expected:
                return {"rank": red.rank, "expected": expected, "rows": rows_seen, "pass": True}
    return {"rank": red.rank, "expected": expected, "rows": rows_seen, "pass": red.rank == expected}


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
    """Operators D_i along each chart with D_1 ... D_s g(p) != 0.

    Frames the point so the tangent spaces occupy disjoint coordinate
    blocks, reads off the graded-lex-first minimal-degree monomial
    c x^gamma of the framed polynomial, splits gamma into per-chart
    blocks of sizes r_i, and realizes each block's top derivative inside
    the span of the chart's order-r_i operators.  The product evaluates
    to exactly c, and sum r_i is the local vanishing order.
    """
    if g.is_zero():
        raise ZeroPolynomial("witness needs a nonzero polynomial")
    F = charts[0].field
    d = charts[0].owner.ambient
    blocks = [c.owner.dim for c in charts]
    if sum(blocks) != d:
        raise NotAJoint("tangent dimensions do not sum to the ambient dimension")
    point = [F.of(x) for x in p]
    basis = []
    for c in charts:
        if tuple(c.center) != tuple(point):
            raise NotAJoint("chart not centered at the point")
        basis.extend(tangent_space(c))
    if linalg.rank(F, basis) != d:
        raise NotAJoint("tangent spaces do not span")
    from .varieties import _frame_from_columns

    phi = _frame_from_columns(F, basis, point)
    phi_inv = phi.inverse()
    framed = pullback(g, phi_inv)
    r = min(sum(e) for e in framed.terms)
    gamma = min((e for e in framed.terms if sum(e) == r), key=grlex_key)
    c_val = framed.terms[gamma]
    # split gamma into per-chart coordinate blocks
    orders, ops = [], []
    offset = 0
    for i, C in enumerate(charts):
        k = blocks[i]
        block = gamma[offset : offset + k]
        offset += k
        ri = sum(block)
        orders.append(ri)
        if ri == 0:
            ops.append(HasseOperator.identity(F, d))
            continue
        delta = (0,) * (offset - k) + block + (0,) * (d - offset)
        target = conjugate_operator(HasseOperator.single(F, d, delta), phi_inv)
        ops.append(_in_chart_span(C, ri, target))
    op = ops[0]
    for other in ops[1:]:
        op = op.compose(other)
    value = op.evaluate(g, point)
    return {
        "orders": orders,
        "operators": ops,
        "value": value,
        "coefficient": c_val,
        "total_order": r,
        "pass": bool(value) and value == c_val and sum(orders) == r,
    }


def _in_chart_span(C, r: int, target: HasseOperator) -> HasseOperator:
    """Operator in the span of the chart's order-r operators whose top
    part matches the target's top part."""
    F = C.field
    d = C.owner.ambient
    space = derivative_space(C, r)
    cols = exponents_of_degree(d, r)
    idx = {e: i for i, e in enumerate(cols)}
    A = [[F.zero] * len(space) for _ in cols]
    for jcol, op in enumerate(space):
        for w, c in op.top_part().combo.items():
            A[idx[w]][jcol] = c
    rhs = [F.zero] * len(cols)
    for w, c in target.top_part().combo.items():
        rhs[idx[w]] = c
    lam = linalg.solve(F, A, rhs)
    if lam is None:
        raise NotAJoint("target derivative is not tangential to the chart")
    out = HasseOperator(F, d)
    for c, op in zip(lam, space):
        if c:
            out = out + op.scale(c)
    return out


# ---------------------------------------------------------------------------
# Schwartz-Zippel with multiplicities
# ---------------------------------------------------------------------------


def schwartz_zippel_mult(g: Polynomial, A: list) -> dict:
    """Sum of vanishing orders of g over the grid A^nvars vs the bound
    |A|^(nvars-1) * deg g."""
    if g.is_zero():
        raise ZeroPolynomial("vanishing orders of the zero polynomial are infinite")
    F = g.field
    pts = [tuple(q) for q in itertools.product([F.of(a) for a in A], repeat=g.nvars)]
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
    fact = 1
    for i in range(2, d + 1):
        fact *= i
    for fam in cfg.families:
        kf, mf = fam.k, fam.m
        kfact = 1
        for i in range(2, kf + 1):
            kfact *= i
        mfact = 1
        for i in range(2, mf + 1):
            mfact *= i
        denom_a *= kfact**mf * mf**mf
        denom_b *= kfact**mf * mfact
        deg_fam = sum(max(1, V.degree) for V in fam.members)
        deg_prod *= deg_fam**mf
    const_a = RootValue(Fraction(fact, denom_a), m)
    const_b = RootValue(Fraction(fact, denom_b), m)
    rhs_a = RootValue(Fraction(fact * deg_prod, denom_a), m)
    rhs_b = RootValue(Fraction(fact * deg_prod, denom_b), m)
    # part (a): |J|^m <= fact*deg_prod/denom_a, exact
    pass_a = Fraction(J) ** m <= rhs_a.Q
    # part (b): sum_p M(p)^(1/m) <= rhs_b; bracket the sum, refine on demand
    bits = 48
    while True:
        lo = Fraction(0)
        hi = Fraction(0)
        for j in range(J):
            l, hgh = RootValue(Fraction(cfg.M(j)), m).brackets(bits)
            lo += l
            hi += hgh
        rlo, rhi = rhs_b.brackets(bits)
        if hi <= rlo:
            pass_b = True
            break
        if lo > rhi:
            pass_b = False
            break
        if bits >= 768:
            # boundary case: compare the exact sum when every term is rational
            exact = _exact_sum(cfg, m)
            if exact is not None and rhs_b.to_rational() is not None:
                pass_b = exact <= rhs_b.to_rational()
            else:
                pass_b = hi <= rhi
            break
        bits *= 2
    return BoundReport(J, s, deg_prod, const_a, const_b, rhs_a, rhs_b,
                       (lo, hi), pass_a, pass_b, True)


def _exact_sum(cfg, m):
    total = Fraction(0)
    for j in range(len(cfg.joints)):
        v = RootValue(Fraction(cfg.M(j)), m).to_rational()
        if v is None:
            return None
        total += v
    return total
