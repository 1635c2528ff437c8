"""Handicap balancing: per-joint products W_p and lexicographic descent.

W_p aggregates, over every qualifying tuple at p, the per-variety counts
|D_{p,V}| normalized by the dimension count of the ambient degree-n
space on V; the M(p)-th root is carried exactly as a (radicand, root
index) pair, whose one canonical form decides equality and rational
ratio.  The descent repeatedly decrements the handicaps of the currently
largest W values until no consecutive gap in the sorted list exceeds the
threshold tau.

``exceeds`` decides every comparison of sums of such roots with a
rational, the descent's gap tests and the bound report's part (b): an
exact test on the terms grouped by rational ratio, which settles a
difference of rational value, then brackets refined until they part; it
returns the bits that decided it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key
from itertools import groupby
from math import gcd, isqrt, log2

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
    # Newton from above falls to the floor and stops there; a start 2^-30
    # over the root leaves a few steps.  With t the top 64 bits of x,
    # x < (t + 1) 2^s, s = q m + r, so the root is below 2^(q + e); the
    # float carries c <= 52 of the q bits, with error far below 2^-30
    s = max(x.bit_length() - 64, 0)
    q, r = divmod(s, m)
    e = (log2((x >> s) + 1) + r) / m
    c = min(q, 52)
    k = (int(2 ** (e + c) * (1 + 2**-30)) + 1) << (q - c)
    while True:
        nk = ((m - 1) * k + x // k ** (m - 1)) // m
        if nk >= k:
            return k
        k = nk


def _exact_root(q: Fraction, m: int) -> Fraction | None:
    """q**(1/m) when it is rational, else None."""
    num, den = integer_nth_root(q.numerator, m), integer_nth_root(q.denominator, m)
    if num**m == q.numerator and den**m == q.denominator:
        return Fraction(num, den)
    return None


@dataclass(frozen=True)
class RootValue:
    """The exact nonnegative real Q**(1/M)."""

    Q: Fraction
    M: int = 1

    def __post_init__(self):
        if self.Q < 0 or self.M < 1:
            raise ValueError("need Q >= 0 and M >= 1")

    @cached_property
    def canonical(self) -> tuple:
        """(q, m): m the least root index of the value, the least m with
        value**m rational, and q = value**m.  The largest g | M for which
        Q is a perfect g-th power, g = 1 if no larger one is, gives
        m = M / g.  Two values are equal iff their forms are; and a / b is
        rational iff a and b have the same m and q_a / q_b is a perfect
        m-th power, since a**m_b rational forces m_a | m_b."""
        M = self.M
        low = [g for g in range(1, isqrt(M) + 1) if M % g == 0]
        for g in sorted({*low, *(M // g for g in low)} - {1}, reverse=True):
            q = _exact_root(self.Q, g)
            if q is not None:
                return q, M // g
        return self.Q, M

    def cmp(self, other: "RootValue") -> int:
        """-1 / 0 / 1 comparison of the real values, exact: radicands at a
        shared root index, else equal canonical forms, else ``exceeds``,
        whose brackets part values that differ."""
        if self.M == other.M:
            return (self.Q > other.Q) - (self.Q < other.Q)
        if self.canonical == other.canonical:
            return 0
        return 1 if exceeds([self], [other])[0] else -1

    def __lt__(self, other):
        return self.cmp(other) < 0

    def __eq__(self, other):
        return isinstance(other, RootValue) and self.canonical == other.canonical

    def __hash__(self):
        return hash(self.canonical)

    def brackets(self, bits: int = 48) -> tuple:
        """Rational lo <= value <= hi with hi - lo <= 2**-bits: the floor
        of the M-th root of floor(Q 2^(bits M)) is that of Q 2^(bits M)."""
        k = integer_nth_root((self.Q.numerator << bits * self.M) // self.Q.denominator, self.M)
        return Fraction(k, 1 << bits), Fraction(k + 1, 1 << bits)

    def approx(self) -> float:
        """The value correctly rounded to a float: the rational value's
        when there is one, else brackets refined until both ends round to
        the same float, which every value between them then rounds to."""
        q, m = self.canonical
        if m == 1:
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

    The terms are grouped by rational ratio (``canonical``), tau in the
    group of 1 with the rational terms, zeros among them.  By Mordell's
    theorem (Pacific J. Math. 3, 1953), positive reals that have a
    rational power, no two in a rational ratio, are linearly independent
    over Q.  So the difference equals tau iff every group's rational
    coefficient is 0.  When every group but tau's has coefficient 0 (all
    terms rational, say), sum(pos) - sum(neg) - tau is tau's coefficient
    exactly, and its sign is the verdict, at 48 bits.  Otherwise the
    brackets, refined from 48 bits by doubling, part from tau at some
    width.
    """
    rational = -Fraction(tau)  # tau's group's coefficient
    groups = []  # [q, m, coefficient], one per irrational group
    for sign, terms in ((1, pos), (-1, neg)):
        for x in terms:
            q, m = x.canonical
            if m == 1:
                rational += sign * q
                continue
            for group in groups:
                r = _exact_root(q / group[0], m) if m == group[1] else None
                if r is not None:
                    group[2] += sign * r
                    break
            else:
                groups.append([q, m, Fraction(sign)])
    bits = 48
    if not any(c for _, _, c in groups):
        # the difference is the rational coefficient of tau's group
        return rational > 0, bits
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
                if [w for _, w in sw2] < [w for _, w in sw]:
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
