"""Exact dense linear algebra against sympy oracles."""

import inspect
import random
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from jointslab.field import DEFAULT_PRIME, FieldSpec
from jointslab.linalg import (
    IncrementalRowReducer,
    identity,
    inverse,
    mat_vec,
    rank,
)

from oracles import complete_basis, mat_mul, nullspace, solve

FQ = FieldSpec("rational")
FP = FieldSpec("prime", 101)


def random_matrix(rng, F, m, n):
    if F.kind == "prime":
        return [[F.of(rng.randrange(F.p)) for _ in range(n)] for _ in range(m)]
    return [[F.of(rng.randint(-5, 5)) for _ in range(n)] for _ in range(m)]


@given(seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_rank_and_det_match_sympy(seed):
    rng = random.Random(seed)
    m, n = rng.randint(1, 5), rng.randint(1, 5)
    A = random_matrix(rng, FQ, m, n)
    S = sympy.Matrix([[sympy.Rational(a) for a in row] for row in A])
    assert rank(FQ, A) == S.rank()
    if m == n:
        inv = inverse(FQ, A)
        if S.det() == 0:
            assert inv is None
        else:
            assert inv == [[Fraction(a) for a in row] for row in S.inv().tolist()]


@given(seed=st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_inverse_and_solve(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    A = random_matrix(rng, FP, n, n)
    inv = inverse(FP, A)
    if rank(FP, A) < n:
        assert inv is None
        return
    assert mat_mul(FP, A, inv) == identity(FP, n)
    b = [FP.of(rng.randrange(FP.p)) for _ in range(n)]
    x = solve(FP, A, b)
    assert mat_vec(FP, A, x) == b


def test_solve_inconsistent_and_underdetermined():
    A = [[FQ.of(1), FQ.of(1)], [FQ.of(2), FQ.of(2)]]
    assert solve(FQ, A, [FQ.of(1), FQ.of(3)]) is None
    x = solve(FQ, [[FQ.of(1), FQ.of(1)]], [FQ.of(4)])
    assert x is not None and x[0] + x[1] == 4


@given(seed=st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_nullspace(seed):
    rng = random.Random(seed)
    m, n = rng.randint(1, 4), rng.randint(1, 5)
    A = random_matrix(rng, FQ, m, n)
    basis = nullspace(FQ, A)
    assert len(basis) == n - rank(FQ, A)
    for v in basis:
        assert all(x == 0 for x in mat_vec(FQ, A, v))
    assert rank(FQ, basis) == len(basis)


def test_complete_basis():
    vecs = [[FQ.of(1), FQ.of(1), FQ.of(0)]]
    basis = complete_basis(FQ, vecs, 3)
    assert len(basis) == 3 and rank(FQ, basis) == 3
    assert basis[0] == vecs[0]
    with pytest.raises(ValueError):
        complete_basis(FQ, [[FQ.of(1), FQ.of(0)], [FQ.of(2), FQ.of(0)]], 2)


def test_incremental_reducer_streaming():
    rng = random.Random(3)
    red = IncrementalRowReducer(FP)
    rows = random_matrix(rng, FP, 8, 5)
    seen = []
    for row in rows:
        before = red.fork()
        grew = red.insert(row)
        seen.append(row)
        assert red.rank == rank(FP, seen)
        assert not red.fork().insert(row)
        # a row is dependent exactly when the rows before it span it
        assert before.fork().insert(row) == grew
    combo = [FP.zero] * 5
    for row in rows[:3]:
        c = FP.of(rng.randrange(FP.p))
        combo = [FP.add(a, FP.mul(c, b)) for a, b in zip(combo, row)]
    assert not red.fork().insert(combo)


class ReferenceReducer:
    """The RREF elimination loop with one ``FieldSpec`` call per entry:
    after every insert its ``pivots`` map each pivot column to the
    normalized, fully reduced row, which is what
    ``IncrementalRowReducer.rref()`` must reproduce exactly."""

    def __init__(self, F):
        self.F = F
        self.pivots = {}

    def fork(self):
        child = ReferenceReducer(self.F)
        child.pivots = dict(self.pivots)
        return child

    def reduce(self, row):
        F = self.F
        row = list(row)
        for c in sorted(self.pivots):
            if row[c]:
                f = row[c]
                row = [F.sub(a, F.mul(f, b)) for a, b in zip(row, self.pivots[c])]
        return row

    def insert(self, row):
        F = self.F
        row = self.reduce(row)
        lead = next((c for c, a in enumerate(row) if a), None)
        if lead is None:
            return False
        inv = F.inv(row[lead])
        row = [F.mul(inv, a) for a in row]
        for c, prow in self.pivots.items():
            if prow[lead]:
                f = prow[lead]
                self.pivots[c] = [F.sub(a, F.mul(f, b)) for a, b in zip(prow, row)]
        self.pivots[lead] = row
        return True


def sparse_rows(rng, F, m, n):
    """Rows with many zero entries, some of them combinations of earlier
    rows, so that both insert verdicts and the zero-entry path occur."""
    def entry():
        if rng.random() < 0.5:
            return F.zero
        return F.of(rng.randrange(F.p)) if F.kind == "prime" else F.of(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))

    rows = []
    for _ in range(m):
        if rows and rng.random() < 0.3:
            row = [F.zero] * n
            for other in rng.sample(rows, min(2, len(rows))):
                c = entry()
                row = [F.add(a, F.mul(c, b)) for a, b in zip(row, other)]
        else:
            row = [entry() for _ in range(n)]
        rows.append(row)
    return rows


P62 = FieldSpec("prime", 2**62 - 57)  # the largest prime below 2^62
FIELDS = [FieldSpec("prime", 2), FieldSpec("prime", 3), FieldSpec("prime", DEFAULT_PRIME), P62,
          FQ]


def assert_canonical(F, store):
    for prow in store.values():
        if F.kind == "prime":
            assert all(type(a) is int and 0 <= a < F.p for a in prow)
        else:
            assert all(type(a) is Fraction for a in prow)


def reference_loop_streams(F):
    """The row streams of ``test_reducer_matches_reference_loop``."""
    rng = random.Random(F.p or 0)
    for _ in range(40):
        m, n = rng.randint(1, 9), rng.randint(1, 7)
        yield sparse_rows(rng, F, m, n)


@pytest.mark.parametrize("F", FIELDS, ids=["F2", "F3", "Fp", "P62", "Q"])
def test_reducer_matches_reference_loop(F):
    for rows in reference_loop_streams(F):
        red, ref = IncrementalRowReducer(F), ReferenceReducer(F)
        for row in rows:
            assert red.insert(row) == ref.insert(row)
            assert red.rref() == ref.pivots
        assert_canonical(F, red.rref())


def lead_slot_cases(F, streams) -> set:
    """Which of the F_p lead-slot cases ``insert`` meets on the streams:
    "zero mod p", a lead slot that is nonzero but 0 mod p, read where
    ``f %= p`` runs, and "leading zeros", a row whose slot 0 is empty,
    read where the first nonzero slot is searched for."""
    lines, first = inspect.getsourcelines(IncrementalRowReducer.insert)
    at = {text: first + next(k for k, line in enumerate(lines) if text in line)
          for text in ("f %= p", "(R & -R)")}
    seen = set()

    def local(frame, event, arg):
        if event == "line":
            if frame.f_lineno == at["f %= p"]:
                f = frame.f_locals["f"]
                if f and not f % F.p:
                    seen.add("zero mod p")
            elif frame.f_lineno == at["(R & -R)"]:
                seen.add("leading zeros")
        return local

    def calls(frame, event, arg):
        return local if frame.f_code is IncrementalRowReducer.insert.__code__ else None

    before = sys.gettrace()
    sys.settrace(calls)
    try:
        for rows in streams:
            red = IncrementalRowReducer(F)
            for row in rows:
                red.insert(row)
    finally:
        sys.settrace(before)
    return seen


@pytest.mark.parametrize("F", FIELDS[:-1], ids=["F2", "F3", "Fp", "P62"])
def test_reference_loop_reaches_every_lead_slot_case(F):
    # both branches of the F_p row step, and a lead that only reads 0
    # once it is taken mod p, so dropping that reduction fails the loop
    assert lead_slot_cases(F, reference_loop_streams(F)) == {"zero mod p", "leading zeros"}


def field_entries(F):
    """Canonical elements, zero half the time; over Q they include
    numerators and denominators of up to 40 digits."""
    if F.kind == "prime":
        nonzero = st.integers(1, F.p - 1)
    else:
        big = 10**40
        nonzero = st.one_of(
            st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)),
            st.builds(Fraction, st.integers(-big, big), st.integers(1, big)),
        ).filter(bool)
    return st.one_of(st.just(F.zero), nonzero)


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_reducer_streams_with_forks_match_reference(data):
    """Random row streams into a growing family of forked reducers: every
    insert verdict, rank, forked insert and rref() equal the reference loop's,
    and solve, inverse and nullspace agree with answers read off the
    reference store.  ``fork(rank)`` matches a reference fed the first
    ``rank`` rows that raised the rank."""
    F = data.draw(st.sampled_from(FIELDS), label="field")
    n = data.draw(st.integers(1, 7), label="columns")
    entry = field_entries(F)
    # each line: an IncrementalRowReducer, its reference, the rows
    # inserted, the rows among them that raised the rank
    lines = [(IncrementalRowReducer(F), ReferenceReducer(F), [], [])]
    for _ in range(data.draw(st.integers(1, 14), label="steps")):
        k = data.draw(st.integers(0, len(lines) - 1), label="line")
        red, ref, rows, raised = lines[k]
        op = data.draw(st.integers(0, 5), label="op")
        if op == 0:
            lines.append((red.fork(), ref.fork(), list(rows), list(raised)))
            continue
        if op == 1:
            rank = data.draw(st.integers(0, red.rank), label="rank")
            child, child_ref = red.fork(rank), reference_reducer(F, raised[:rank])
            assert child.rank == rank and child.rref() == child_ref.pivots
            lines.append((child, child_ref, raised[:rank], raised[:rank]))
            continue
        if rows and data.draw(st.booleans(), label="combination"):
            row = [F.zero] * n
            for other in rows:
                c = data.draw(entry, label="coefficient")
                row = [F.add(a, F.mul(c, b)) for a, b in zip(row, other)]
        else:
            row = data.draw(st.lists(entry, min_size=n, max_size=n), label="row")
        probe = data.draw(st.lists(entry, min_size=n, max_size=n), label="probe")
        assert red.fork().insert(probe) == ref.fork().insert(probe)
        grew = red.insert(row)
        assert grew == ref.insert(row)
        rows.append(row)
        if grew:
            raised.append(row)
        assert red.rank == len(ref.pivots)
        assert not red.fork().insert(row)
    for red, ref, rows, _ in lines:
        assert red.rref() == ref.pivots
        assert_canonical(F, red.rref())
        if rows:
            check_solvers_against_reference(F, rows)


def reference_reducer(F, rows):
    ref = ReferenceReducer(F)
    for row in rows:
        ref.insert(row)
    return ref


def reference_store(F, rows):
    return reference_reducer(F, rows).pivots


def check_solvers_against_reference(F, rows):
    n = len(rows[0])
    store = reference_store(F, rows)
    expected = []
    for fc in (c for c in range(n) if c not in store):
        v = [F.zero] * n
        v[fc] = F.one
        for pc, prow in store.items():
            v[pc] = F.neg(prow[fc])
        expected.append(v)
    assert nullspace(F, rows) == expected
    # the last column as right-hand side
    if n > 1:
        A, b = [row[:-1] for row in rows], [row[-1] for row in rows]
        x = None
        if n - 1 not in store:
            x = [F.zero] * (n - 1)
            for c, prow in store.items():
                x[c] = prow[n - 1]
        assert solve(F, A, b) == x
    m = min(len(rows), n)
    A = [row[:m] for row in rows[:m]]
    store = reference_store(F, [row + e for row, e in zip(A, identity(F, m))])
    inv = None if any(c >= m for c in store) else [store[i][m:] for i in range(m)]
    assert inverse(F, A) == inv


def test_insert_leaves_input_rows_alone():
    rng = random.Random(7)
    for F in (FP, FQ):
        red = IncrementalRowReducer(F)
        for row in random_matrix(rng, F, 6, 4) * 2:
            before = list(row)
            red.insert(row)
            red.fork().insert(row)
            assert row == before


def bound_rows(F, n):
    """n - 1 rows whose tails after the lead, scaled to lead 1, are all
    ones, then the row that reduces to zero against them with factor -1
    at every pivot: its last entry grows by (p - 1)^2 at each of the n - 1
    steps, the most a packed slot can grow."""
    p = F.p
    rows = [[0] * c + [1] * (n - c) for c in range(n - 1)]
    return rows + [[(-1 - c) % p for c in range(n - 1)] + [(1 - n) % p]]


def chain_rows(rng, F, n, m):
    """m dense rows, each after the first a random combination of all the
    rows before it, plus a dense random row every third time, so that
    every insert takes a step at nearly every pivot."""
    rows = [[rng.randrange(F.p) for _ in range(n)]]
    while len(rows) < m:
        row = [0] * n
        for other in rows:
            c = rng.randrange(1, F.p)
            row = [(a + c * b) % F.p for a, b in zip(row, other)]
        if len(rows) % 3 == 0:
            row = [(a + rng.randrange(F.p)) % F.p for a in row]
        rows.append(row)
    return rows


@pytest.mark.parametrize("n", [30, 67, 120])
@pytest.mark.parametrize("F", [FieldSpec("prime", DEFAULT_PRIME), P62], ids=["Fp", "P62"])
def test_packed_rows_match_reference_at_the_slot_bound(F, n):
    # long rows over F_p with slot growth at its bound; forks cut back to
    # every rank the stream reached match a reference fed the rows that
    # raised the rank
    rng = random.Random(n)
    for rows in (bound_rows(F, n), chain_rows(rng, F, n, n)):
        red, ref, raised = IncrementalRowReducer(F), ReferenceReducer(F), []
        for row in rows:
            grew = red.insert(row)
            assert grew == ref.insert(row)
            if grew:
                raised.append(row)
        assert red.rref() == ref.pivots
        assert_canonical(F, red.rref())
        for rank in sorted({0, 1, len(raised) // 2, len(raised) - 1, len(raised)}):
            assert red.fork(rank).rref() == reference_reducer(F, raised[:rank]).pivots


@pytest.mark.parametrize("F", FIELDS[:-1], ids=["F2", "F3", "Fp", "P62"])
def test_rows_of_non_canonical_ints_reduce_as_their_residues(F):
    # entries shifted by multiples of p, negative and >= p, some nonzero
    # but 0 mod p, give the verdicts and the store of their residues
    rng = random.Random(F.p)
    p = F.p
    for _ in range(20):
        n = rng.randint(1, 9)
        red, shifted = IncrementalRowReducer(F), IncrementalRowReducer(F)
        for row in sparse_rows(rng, F, rng.randint(1, 9), n):
            moved = [a + rng.randint(-3, 3) * p for a in row]
            assert shifted.fork().insert(moved) == red.fork().insert(row)
            assert shifted.insert(moved) == red.insert(row)
        assert shifted.rref() == red.rref()


@pytest.mark.parametrize("F", [FP, P62, FQ], ids=["F101", "P62", "Q"])
def test_rows_of_another_length_are_refused(F):
    red = IncrementalRowReducer(F)
    red.insert([F.one, F.zero, F.one])
    for n in (2, 4):
        with pytest.raises(ValueError):
            red.insert([F.zero] * n)
        with pytest.raises(ValueError):
            red.fork().insert([F.one] * n)
    assert red.rank == 1 and not red.insert([F.zero] * 3)
