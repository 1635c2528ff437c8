"""Handicap balancing: per-joint products W_p and lexicographic descent.

W_p aggregates, over every qualifying tuple at p, the per-variety counts
|D_{p,V}| normalized by the dimension count of the ambient degree-n
space on V; the M(p)-th root is carried exactly as a (radicand, root
index) pair and compared by cross-powering.  The descent repeatedly
decrements the handicaps of the currently largest W values until no
consecutive gap in the sorted list exceeds the threshold tau.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

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
        for g in range(self.M, 0, -1):
            if self.M % g == 0:
                q = RootValue(self.Q, g).to_rational()
                if q is not None:
                    return hash((q, self.M // g))

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
        lo, hi = self.brackets(48)
        return float((lo + hi) / 2)


def root_gap_exceeds(a: RootValue, b: RootValue, tau: Fraction) -> bool:
    """Exact verdict on a - b > tau for nonnegative root values.

    Equal values are decided by ``cmp``, two rationals directly.
    Otherwise a - b != tau, so refining the brackets always ends.  For if
    a = b + tau with b irrational, b has a conjugate b*zeta != b (zeta a
    root of unity), and b*zeta + tau is then a conjugate of a, so
    |b*zeta + tau| = a = b + tau, which forces tau = 0 and a = b.  If b
    is rational, a = b + tau would be rational too.
    """
    if a.cmp(b) == 0:
        return 0 > tau
    ra, rb = a.to_rational(), b.to_rational()
    if ra is not None and rb is not None:
        return ra - rb > tau
    bits = 48
    while True:
        alo, ahi = a.brackets(bits)
        blo, bhi = b.brackets(bits)
        if alo - bhi > tau:
            return True
        if ahi - blo <= tau:
            return False
        bits *= 2


# ---------------------------------------------------------------------------
# W products
# ---------------------------------------------------------------------------


def build_all_ledgers(cfg, h: Handicap, n: int) -> dict:
    return {ref: build_ledger(cfg, ref, h, n) for ref in cfg.all_members()}


def compute_W(cfg, h: Handicap, n: int, ledgers=None) -> dict:
    """Exact W_p for every joint.

    W_p = [ prod over qualifying tuples, over varieties V in the tuple,
    of |D_{p,V}| / C(n + dim V, dim V) ] ** (1/M(p)), one RootValue.
    """
    if ledgers is None:
        ledgers = build_all_ledgers(cfg, h, n)
    out = {}
    for j in range(len(cfg.joints)):
        tuples = cfg.multiplicity[j]
        M = len(tuples)
        if M == 0:
            raise LedgerMissing(f"joint {j} has no qualifying tuples")
        Q = Fraction(1)
        for choice in tuples:
            for fi, picks in enumerate(choice):
                k = cfg.families[fi].k
                norm = binom(n + k, k)
                for mi in picks:
                    led = ledgers.get((fi, mi))
                    if led is None:
                        raise LedgerMissing(f"no ledger for member {(fi, mi)}")
                    Q *= Fraction(led.joint_total(j), norm)
        out[j] = RootValue(Q, M)
    return out


# ---------------------------------------------------------------------------
# Descent
# ---------------------------------------------------------------------------


@dataclass
class BalanceState:
    alpha: Handicap
    W: dict
    sortedW: list  # (joint, RootValue) descending
    iteration: int
    status: str  # "balanced" | "cap-hit"
    log: list  # per-iteration dicts
    ledgers: dict  # member ref -> BasisLedger at alpha


def _sorted_desc(W: dict) -> list:
    order = sorted(W, key=lambda j: (W[j], -j))
    order.reverse()
    return [(j, W[j]) for j in order]


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
    is, and any other build resumes after the longest step-order prefix
    it shares with a stored walk.  An attempt whose ledgers are the very
    ledgers of the attempt before reuses that attempt's W.  The rebuild
    count and ``cap`` still count attempts, reused ones included, so
    ``status``, ``alpha``, ``log`` and the iteration count are what
    building every ledger and W afresh would give.
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
    last = None  # (ledgers, W, sorted W) of the latest attempt

    def attempt(h: Handicap) -> tuple:
        nonlocal last
        ledgers = {ref: build_ledger(cfg, ref, h, n, walks=walks[ref]) for ref in walks}
        if last is None or any(ledgers[ref] is not last[0][ref] for ref in ledgers):
            W = compute_W(cfg, h, n, ledgers=ledgers)
            last = (ledgers, W, _sorted_desc(W))
        return last

    ledgers, W, sw = attempt(h)
    rebuilds += 1
    iteration = 0
    status = "balanced"
    move_cap = 4 * n * max(1, len(joints))  # largest decrement tried per move
    while True:
        gaps = [
            i + 1
            for i in range(len(sw) - 1)
            if root_gap_exceeds(sw[i][1], sw[i + 1][1], tau)
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
                ledgers2, W2, sw2 = attempt(h2)
                rebuilds += 1
                # accept only strictly lex-decreasing multisets; a changed
                # but larger multiset means the step is not yet big enough
                # to push the top block below the rest, so keep doubling
                if _lex_cmp(sw2, sw) < 0:
                    h, W, sw, ledgers = h2, W2, sw2, ledgers2
                    moved = True
                    used_t = t
                    break
                step *= 2
            if moved or rebuilds >= cap:
                break
        iteration += 1
        lo, hi = sw[-1][1], sw[0][1]
        log.append(
            {
                "iteration": iteration,
                "t": used_t,
                "min_W": lo.approx(),
                "max_W": hi.approx(),
                "changed": moved,
            }
        )
        if not moved or rebuilds >= cap:
            status = "cap-hit"
            break
    return BalanceState(h, W, sw, iteration, status, log, ledgers)
