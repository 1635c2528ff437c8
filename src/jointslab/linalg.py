"""Exact dense linear algebra over a FieldSpec.

Matrices are lists of row lists of canonical field elements.  There is
one elimination loop, ``IncrementalRowReducer``: it streams rows into a
pivot store that maps each pivot column to its normalized, fully reduced
row, so the store is the reduced row echelon form (RREF) of the rows seen
so far.  ``rank``, ``solve``, ``inverse`` and ``nullspace`` read their
answers off that store; since the RREF is unique, they do not depend on
the order in which rows are inserted.  ``fork`` copies a reducer, so row
sets that share a prefix reduce the prefix once and go on from a copy.
The loop has one row operation, row - f * pivot_row, specialised by
field: ``(a - f*b) % p`` on ints over F_p and ``a - f*b`` on ``Fraction``
values over Q, leaving entries where the pivot row is zero as they are.
Field elements are canonical, so this gives exactly what
``FieldSpec.sub``/``FieldSpec.mul`` give, without a method call per
entry.  The sizes that show up in practice (hundreds of rows, columns
bounded by C(n+d, d)) keep this comfortably interactive.
"""

from __future__ import annotations

from .field import FieldSpec


def mat_vec(F: FieldSpec, A, v):
    return [
        _dot(F, row, v)
        for row in A
    ]


def _dot(F: FieldSpec, row, v):
    acc = F.zero
    for a, b in zip(row, v):
        if a and b:
            acc = F.add(acc, F.mul(a, b))
    return acc


def mat_mul(F: FieldSpec, A, B):
    cols = list(zip(*B))
    return [[_dot(F, row, col) for col in cols] for row in A]


def identity(F: FieldSpec, n: int):
    return [[F.one if i == j else F.zero for j in range(n)] for i in range(n)]


def rank(F: FieldSpec, rows) -> int:
    return _reduced(F, rows).rank


def _reduced(F: FieldSpec, rows) -> "IncrementalRowReducer":
    red = IncrementalRowReducer(F)
    for r in rows:
        red.insert(r)
    return red


def inverse(F: FieldSpec, A):
    """Inverse of a square matrix, or None if singular."""
    n = len(A)
    red = _reduced(F, (list(row) + e for row, e in zip(A, identity(F, n))))
    if any(c >= n for c in red.pivots):
        return None
    return [red.pivots[i][n:] for i in range(n)]


def solve(F: FieldSpec, A, b):
    """One solution of A x = b, or None if inconsistent.

    Free variables are set to zero, which keeps the output deterministic.
    """
    n = len(A[0]) if A else 0
    red = _reduced(F, (list(row) + [bv] for row, bv in zip(A, b)))
    if n in red.pivots:
        return None
    x = [F.zero] * n
    for c, row in red.pivots.items():
        x[c] = row[n]
    return x


def nullspace(F: FieldSpec, A):
    """Basis of the right nullspace of A (deterministic): one vector per
    free column, in column order."""
    n = len(A[0]) if A else 0
    pivots = _reduced(F, A).pivots
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        v = [F.zero] * n
        v[fc] = F.one
        for pc, row in pivots.items():
            v[pc] = F.neg(row[fc])
        basis.append(v)
    return basis


def complete_basis(F: FieldSpec, vectors, n: int):
    """Extend independent vectors to a basis of F^n with standard basis
    vectors, chosen greedily in index order."""
    red = IncrementalRowReducer(F)
    out = [list(v) for v in vectors]
    for v in out:
        if not red.insert(v):
            raise ValueError("input vectors are dependent")
    for j in range(n):
        e = [F.zero] * n
        e[j] = F.one
        if red.insert(e):
            out.append(e)
    if len(out) != n:
        raise ValueError("could not complete basis")
    return out


class IncrementalRowReducer:
    """Reduced row echelon pivot store supporting streaming inserts.

    Each stored pivot row is normalized to a leading 1 and is zero in
    every other pivot column; inserted rows are reduced against all
    existing pivots before deciding independence.  Input rows are never
    modified.
    """

    def __init__(self, F: FieldSpec):
        self.F = F
        self.pivots: dict[int, list] = {}  # pivot column -> normalized row
        self._p = F.p if F.kind == "prime" else None

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def fork(self) -> "IncrementalRowReducer":
        """An independent reducer holding the same rows.  A shallow copy of
        the store suffices: ``insert`` replaces pivot rows, never mutates
        them, so inserts into either reducer leave the other alone."""
        child = IncrementalRowReducer(self.F)
        child.pivots = dict(self.pivots)
        return child

    def _sub_multiple(self, row, f, prow):
        """row - f * prow as a new row; entries where prow is 0 are kept."""
        p = self._p
        if p is None:
            return [a - f * b if b else a for a, b in zip(row, prow)]
        return [(a - f * b) % p if b else a for a, b in zip(row, prow)]

    def reduce(self, row):
        """Return row reduced against the current pivots (copy)."""
        # Pivot row c is zero in every other pivot column, so subtracting
        # it leaves those entries alone and the order of pivots is moot.
        row = list(row)
        for c, prow in self.pivots.items():
            f = row[c]
            if f:
                row = self._sub_multiple(row, f, prow)
        return row

    def insert(self, row) -> bool:
        """Insert a row; True iff it increased the rank."""
        row = self.reduce(row)
        lead = next((c for c, a in enumerate(row) if a), None)
        if lead is None:
            return False
        inv = self.F.inv(row[lead])
        p = self._p
        if p is None:
            row = [a * inv if a else a for a in row]
        else:
            row = [a * inv % p if a else a for a in row]
        # Keep the store fully reduced: clear the new pivot column from
        # every existing pivot row so that sequential reduction is exact.
        for c, prow in self.pivots.items():
            f = prow[lead]
            if f:
                self.pivots[c] = self._sub_multiple(prow, f, row)
        self.pivots[lead] = row
        return True

    def in_span(self, row) -> bool:
        return all(not a for a in self.reduce(row))
