"""Exact dense linear algebra against sympy oracles."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from jointslab.field import DEFAULT_PRIME, FieldSpec
from jointslab.linalg import (
    IncrementalRowReducer,
    complete_basis,
    identity,
    inverse,
    mat_mul,
    mat_vec,
    nullspace,
    rank,
    solve,
)

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
        grew = red.insert(row)
        seen.append(row)
        assert red.rank == rank(FP, seen)
        assert red.in_span(row)
        if not grew:
            # a dependent row reduces to zero
            assert all(not a for a in red.reduce(row))
    combo = [FP.zero] * 5
    for row in rows[:3]:
        c = FP.of(rng.randrange(FP.p))
        combo = [FP.add(a, FP.mul(c, b)) for a, b in zip(combo, row)]
    assert red.in_span(combo)


class ReferenceReducer:
    """The elimination loop with one ``FieldSpec`` call per entry: the
    slow path that ``IncrementalRowReducer``'s field-specialised row
    operation must reproduce exactly."""

    def __init__(self, F):
        self.F = F
        self.pivots = {}

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


@pytest.mark.parametrize("F", [
    FieldSpec("prime", 2), FieldSpec("prime", 3), FieldSpec("prime", DEFAULT_PRIME), FQ,
], ids=["F2", "F3", "Fp", "Q"])
def test_reducer_matches_reference_loop(F):
    rng = random.Random(F.p or 0)
    for _ in range(40):
        m, n = rng.randint(1, 9), rng.randint(1, 7)
        red, ref = IncrementalRowReducer(F), ReferenceReducer(F)
        for row in sparse_rows(rng, F, m, n):
            assert red.reduce(row) == ref.reduce(row)
            assert red.insert(row) == ref.insert(row)
            assert red.pivots == ref.pivots
        for prow in red.pivots.values():
            if F.kind == "prime":
                assert all(type(a) is int and 0 <= a < F.p for a in prow)
            else:
                assert all(type(a) is Fraction for a in prow)


def test_insert_leaves_input_rows_alone():
    rng = random.Random(7)
    for F in (FP, FQ):
        red = IncrementalRowReducer(F)
        for row in random_matrix(rng, F, 6, 4) * 2:
            before = list(row)
            red.insert(row)
            red.reduce(row)
            assert row == before
