"""Handicap balancing: per-joint products W_p and lexicographic descent.

W_p aggregates, over every qualifying tuple at p, the per-variety counts
|D_{p,V}| normalized by the dimension count of the ambient degree-n
space on V; the M(p)-th root is carried exactly as a (radicand, root
index) pair and compared by cross-powering.  The descent repeatedly
decrements the handicaps of the currently largest W values until no
consecutive gap in the sorted list exceeds the threshold tau.

``exceeds`` decides every comparison of sums of such roots with a
rational, the descent's gap tests and the bound report's part (b): an
exact test on the terms grouped by rational ratio, which settles a
difference of rational value, then brackets refined until they part; it
returns the bits that decided it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import groupby
from math import gcd, isqrt, lcm

from .basis import Handicap, build_ledger
from .errors import Disconnected, LedgerMissing
from .field import binom


# ---------------------------------------------------------------------------
# Exact M-th roots of nonnegative rationals
# ---------------------------------------------------------------------------


def integer_nth_root(x: int, m: int) -> int:
    """floor(x**(1/m)) for x >= 0, exact."""
    if x < 0:
        raise ValueError("negative radicand")
    if x in (0, 1) or m == 1:
        return x
    k = 1 << ((x.bit_length() + m - 1) // m)  # upper bound
    while True:
        nk = ((m - 1) * k + x // k ** (m - 1)) // m
        if nk >= k:
            break
        k = nk
    while k ** m > x:
        k -= 1
    return k


@dataclass(frozen=True)
class RootValue:
    """The exact nonnegative real Q**(1/M)."""

    Q: Fraction
    M: int = 1

    def __post_init__(self):
        if self.Q < 0 or self.M < 1:
            raise ValueError("need Q >= 0 and M >= 1")

    def is_zero(self) -> bool:
        return self.Q == 0

    def cmp(self, other: "RootValue") -> int:
        """-1 / 0 / 1 comparison of the real values, exact: Q1^(1/M1)
        against Q2^(1/M2) is Q1^(M2/g) against Q2^(M1/g), g = gcd(M1, M2)."""
        if self.M == other.M:
            a, b = self.Q, other.Q
        else:
            g = gcd(self.M, other.M)
            a, b = self.Q ** (other.M // g), other.Q ** (self.M // g)
        return (a > b) - (a < b)

    def __lt__(self, other):
        return self.cmp(other) < 0

    def __eq__(self, other):
        return isinstance(other, RootValue) and self.cmp(other) == 0

    def __hash__(self):
        # Equal values must hash equal, so hash the canonical form: the
        # root index reduced by the largest g | M for which Q is a perfect
        # g-th power, i.e. the least M' with value**M' rational.
        M = self.M
        low = [g for g in range(1, isqrt(M) + 1) if M % g == 0]
        for g in sorted({*low, *(M // g for g in low)}, reverse=True):
            q = RootValue(self.Q, g).to_rational()
            if q is not None:
                return hash((q, M // g))

    def to_rational(self) -> Fraction | None:
        """Exact rational value when Q is a perfect M-th power, else None."""
        num = integer_nth_root(self.Q.numerator, self.M)
        den = integer_nth_root(self.Q.denominator, self.M)
        if num**self.M == self.Q.numerator and den**self.M == self.Q.denominator:
            return Fraction(num, den)
        return None

    def brackets(self, bits: int = 48) -> tuple:
        """Rational lo <= value <= hi with hi - lo <= 2**-bits."""
        N = 1 << bits
        A = self.Q.numerator * N**self.M
        B = self.Q.denominator
        k = integer_nth_root(A // B, self.M)
        while (k + 1) ** self.M * B <= A:
            k += 1
        return Fraction(k, N), Fraction(k + 1, N)

    def approx(self) -> float:
        """The value correctly rounded to a float: the rational value's
        when there is one, else brackets refined until both ends round to
        the same float, which every value between them then rounds to."""
        q = self.to_rational()
        if q is not None:
            return float(q)
        bits = 64
        while True:
            lo, hi = self.brackets(bits)
            if float(lo) == float(hi):
                return float(lo)
            bits *= 2


def exceeds(pos: list, neg: list, tau=Fraction(0)) -> tuple:
    """Exact verdict on sum(pos) - sum(neg) > tau for lists of root values
    and a rational tau, with the bracket bits that decided it.

    The nonzero terms are grouped by rational ratio, tau in the group of
    1: a / b is rational iff (a.Q^(L/a.M) / b.Q^(L/b.M))^(1/L) is, for
    L = lcm(a.M, b.M).  By Mordell's theorem (Pacific J. Math. 3, 1953),
    positive reals that have a rational power, no two in a rational
    ratio, are linearly independent over Q.  So the difference equals tau
    iff every group's rational coefficient is 0.  When every group but
    tau's has coefficient 0 (all terms rational, say), sum(pos) - sum(neg)
    - tau is tau's coefficient exactly, and its sign is the verdict, at 48
    bits.  Otherwise the brackets, refined from 48 bits by doubling, part
    from tau at some width.
    """
    groups = [[RootValue(Fraction(1)), -Fraction(tau)]]  # [representative, coefficient]
    for sign, terms in ((1, pos), (-1, neg)):
        for x in terms:
            if x.is_zero():
                continue
            if x.M == 1:  # rational: in tau's group, with ratio x.Q
                groups[0][1] += sign * x.Q
                continue
            for group in groups:
                b = group[0]
                L = lcm(x.M, b.M)
                r = RootValue(x.Q ** (L // x.M) / b.Q ** (L // b.M), L).to_rational()
                if r is not None:
                    group[1] += sign * r
                    break
            else:
                groups.append([x, Fraction(sign)])
    bits = 48
    if not any(c for _, c in groups[1:]):
        # the difference is the rational coefficient of tau's group
        return groups[0][1] > 0, bits
    while True:
        p = [x.brackets(bits) for x in pos]
        n = [x.brackets(bits) for x in neg]
        if sum(lo for lo, _ in p) - sum(hi for _, hi in n) > tau:
            return True, bits
        if sum(hi for _, hi in p) - sum(lo for lo, _ in n) <= tau:
            return False, bits
        bits *= 2


# ---------------------------------------------------------------------------
# W products
# ---------------------------------------------------------------------------


def build_all_ledgers(cfg, h: Handicap, n: int) -> dict:
    return {ref: build_ledger(cfg, ref, h, n) for ref in cfg.all_members()}


def compute_W(cfg, ledgers: dict, n: int) -> dict:
    """Exact W_p for every joint, from the ledgers of every member.

    W_p = [ prod over qualifying tuples, over varieties V in the tuple,
    of |D_{p,V}| / C(n + dim V, dim V) ] ** (1/M(p)), one RootValue.
    The radicand is taken as prod_V |D_{p,V}|^c_V / prod_V C(n + dim V,
    dim V)^c_V, c_V the number of the joint's qualifying tuples that
    contain V, which the configuration keeps (``cfg.uses``): one integer
    power per member and one Fraction per joint.  It is written in lowest
    terms: with g = gcd(M(p), every c_V), each power is c_V / g and the
    root index M(p) / g, the same value with a radicand g times shorter.
    """
    out = {}
    for j, uses in enumerate(cfg.uses):
        M = cfg.M(j)
        g = gcd(M, *uses.values())
        num = den = 1
        for ref, c in uses.items():
            led = ledgers.get(ref)
            if led is None:
                raise LedgerMissing(f"no ledger for member {ref}")
            k = cfg.families[ref[0]].k
            num *= led.joint_total(j) ** (c // g)
            den *= binom(n + k, k) ** (c // g)
        out[j] = RootValue(Fraction(num, den), M // g)
    return out


# ---------------------------------------------------------------------------
# Descent
# ---------------------------------------------------------------------------


@dataclass
class BalanceState:
    alpha: Handicap
    status: str  # "balanced" | "cap-hit"
    log: list  # per-iteration dicts
    ledgers: dict  # member ref -> BasisLedger at alpha

    @property
    def iteration(self) -> int:
        return len(self.log)


def _sorted_desc(W: dict) -> list:
    """(joint, W) pairs, W descending, ties by joint ascending.  Each W is
    keyed once by ``approx()``: it is correctly rounded, so it is
    monotone in W, and joints whose floats differ are in order.  Only a
    run of equal floats is ordered again, by exact comparison."""
    approx = {j: w.approx() for j, w in W.items()}
    exact = cmp_to_key(lambda i, j: W[j].cmp(W[i]) or i - j)
    runs = groupby(sorted(W, key=lambda j: (-approx[j], j)), key=approx.get)
    return [(j, W[j]) for _, run in runs for j in sorted(run, key=exact)]


def _lex_cmp(a: list, b: list) -> int:
    """Compare two descending RootValue lists lexicographically."""
    for (_, x), (_, y) in zip(a, b):
        c = x.cmp(y)
        if c:
            return c
    return (len(a) > len(b)) - (len(a) < len(b))


def default_tau(cfg, n: int) -> Fraction:
    s = cfg.s
    maxdeg = max((V.degree for f in cfg.families for V in f.members), default=1)
    return Fraction(8 * s * maxdeg**s, n)


def balance(cfg, n: int, tau=None, cap: int = 10**4) -> BalanceState:
    """Lexicographic descent on the sorted W values.

    Repeatedly finds the least t whose consecutive sorted gap exceeds
    tau, decrements the handicaps of the top-t joints (with doubling
    step size until the W multiset changes), and rebuilds.  Stops when
    no gap exceeds tau or the rebuild cap is hit.  The returned state
    carries the ledgers built at its final handicaps.  The handicap only
    orders the steps, and every ledger reads the configuration's charts,
    so each chart and functional row is built once per configuration and
    shared by the ledgers of every handicap tried.  Each member
    keeps the walks of its ledger builds (``basis.build_ledger``): a
    ledger whose walked steps begin a later step order is reused as it
    is, found by ``basis.begins_step_order`` with no sort, and any other
    build resumes after the longest step-order prefix it shares with a
    stored walk.  The reducers of a member's walks share one pack memo,
    so over F_p each chart row is packed once per descent, not once per
    insert; the walk store, and with it the memo, is local to the call
    and freed when it returns.  An attempt whose ledgers are the very
    ledgers of the attempt before reuses that attempt's W, and each W is
    sorted by one float key per value (``_sorted_desc``).  The rebuild
    count and ``cap`` still count attempts, reused ones included, so
    ``status``, ``alpha`` and ``log`` are what building every ledger and
    W afresh would give.
    """
    from .config import connected_components

    if len(connected_components(cfg)) > 1:
        raise Disconnected("balance requires a connected configuration")
    if tau is None:
        tau = default_tau(cfg, n)
    tau = Fraction(tau)
    joints = list(range(len(cfg.joints)))
    h = Handicap.zero(joints)
    rebuilds = 0
    log = []
    walks = {ref: [] for ref in cfg.all_members()}  # member ref -> its basis.Walks
    last = None  # (ledgers, sorted W) of the latest attempt

    def attempt(h: Handicap) -> tuple:
        nonlocal last, rebuilds
        rebuilds += 1
        ledgers = {ref: build_ledger(cfg, ref, h, n, walks=walks[ref]) for ref in walks}
        if last is None or any(ledgers[ref] is not last[0][ref] for ref in ledgers):
            last = (ledgers, _sorted_desc(compute_W(cfg, ledgers, n)))
        return last

    ledgers, sw = attempt(h)
    status = "balanced"
    move_cap = 4 * n * max(1, len(joints))  # largest decrement tried per move
    while True:
        gaps = [
            i + 1
            for i in range(len(sw) - 1)
            if exceeds([sw[i][1]], [sw[i + 1][1]], tau)[0]
        ]
        if not gaps:
            break
        moved = False
        used_t = gaps[0]
        # least gap position first; fall through to wider blocks when the
        # narrow move cannot lower the sorted multiset
        for t in gaps:
            top = [j for j, _ in sw[:t]]
            step = 1
            while step <= move_cap and rebuilds < cap:
                alpha2 = dict(h.alpha)
                for j in top:
                    alpha2[j] -= step
                h2 = Handicap(alpha2, list(h.preassigned))
                ledgers2, sw2 = attempt(h2)
                # accept only strictly lex-decreasing multisets; a changed
                # but larger multiset means the step is not yet big enough
                # to push the top block below the rest, so keep doubling
                if _lex_cmp(sw2, sw) < 0:
                    h, sw, ledgers = h2, sw2, ledgers2
                    moved = True
                    used_t = t
                    break
                step *= 2
            if moved or rebuilds >= cap:
                break
        lo, hi = sw[-1][1], sw[0][1]
        log.append(
            {
                "iteration": len(log) + 1,
                "t": used_t,
                "min_W": lo.approx(),
                "max_W": hi.approx(),
                "changed": moved,
            }
        )
        if not moved or rebuilds >= cap:
            status = "cap-hit"
            break
    return BalanceState(h, status, log, ledgers)
