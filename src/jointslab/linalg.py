"""Exact dense linear algebra over a FieldSpec.

Matrices are lists of row lists of canonical field elements.  There is
one elimination loop, ``IncrementalRowReducer.insert``: it streams rows
into an echelon store that keeps, for each pivot column, the row that
first led there, from that column on.  A row is reduced against the
store in increasing column order and raises the rank at its first
nonzero entry in a column without a pivot.  Most callers (ledgers, joint
detection, the rank check, ``T_dimension``) ask only that, so nothing is
back-substituted while rows stream in.  ``rref()`` back-substitutes
once, for ``solve``, ``inverse`` and ``nullspace``; the reduced row
echelon form is unique, so their answers do not depend on the order in
which rows are inserted.  ``fork`` copies a reducer, whole or as it was
at a lower rank, so row sets that share a prefix reduce the prefix once
and go on from a copy.

The row step is specialised by field, with no method call per entry.
Over F_p a pivot row is normalized to lead 1 and the step is
``(a - f*b) % p`` on ints.  Over Q a row enters as a primitive integer
vector (denominators cleared by their lcm, then divided by the content;
a row of ints, as the ledgers and the rank check build, is only divided
by its content); the step is the fraction-free ``b*row - a*pivot_row``,
with a, b divided by their gcd, followed by division by the new content.
So no ``Fraction`` is built while rows stream in.  The sizes that show up in
practice (thousands of rows, columns bounded by C(n+d, d)) keep this
comfortably interactive.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import gcd, lcm

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
    pivots = _reduced(F, (list(row) + e for row, e in zip(A, identity(F, n)))).rref()
    if any(c >= n for c in pivots):
        return None
    return [pivots[i][n:] for i in range(n)]


def solve(F: FieldSpec, A, b):
    """One solution of A x = b, or None if inconsistent.

    Free variables are set to zero, which keeps the output deterministic.
    """
    n = len(A[0]) if A else 0
    pivots = _reduced(F, (list(row) + [bv] for row, bv in zip(A, b))).rref()
    if n in pivots:
        return None
    x = [F.zero] * n
    for c, row in pivots.items():
        x[c] = row[n]
    return x


def nullspace(F: FieldSpec, A):
    """Basis of the right nullspace of A (deterministic): one vector per
    free column, in column order."""
    n = len(A[0]) if A else 0
    pivots = _reduced(F, A).rref()
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
    """Echelon pivot store supporting streaming inserts.

    The store maps each pivot column c to the entries, from column c on,
    of the reduced row that raised the rank there: residues with lead 1
    over F_p, a primitive integer vector over Q.  Input rows are never
    modified and stored rows are never mutated.
    """

    def __init__(self, F: FieldSpec):
        self.F = F
        self._rows: dict[int, list] = {}  # pivot column -> row from there on
        self._p = F.p if F.kind == "prime" else None

    @property
    def rank(self) -> int:
        return len(self._rows)

    def fork(self, rank: int | None = None) -> "IncrementalRowReducer":
        """An independent reducer holding the same rows, or with ``rank``
        the first ``rank`` of them: the reducer as it was when its rank
        was ``rank``, since the store only grows and keeps its pivots in
        insertion order.  A shallow copy of the store suffices, since
        stored rows are never mutated."""
        child = IncrementalRowReducer(self.F)
        rows = self._rows
        child._rows = dict(rows) if rank is None else dict(islice(rows.items(), rank))
        return child

    def insert(self, row) -> bool:
        """Insert a row; True iff it increased the rank."""
        rows, p = self._rows, self._p
        if p is None:
            row = _primitive(row)
            if row is None:
                return False
        start = 0  # row holds the entries from column start on
        while True:
            for i, f in enumerate(row):
                if f:
                    break
            else:
                return False
            c = start + i
            prow = rows.get(c)
            if prow is None:
                if p is None:
                    rows[c] = row[i:]
                else:
                    inv = pow(f, -1, p)
                    rows[c] = [a * inv % p for a in row[i:]]
                return True
            start = c + 1
            if p is None:
                b = prow[0]
                g = gcd(f, b)
                f, b = f // g, b // g
                row = [b * x - f * y for x, y in zip(row[i + 1:], prow[1:])]
                g = gcd(*row)
                if not g:
                    return False
                if g > 1:
                    row = [x // g for x in row]
            else:
                row = [(x - f * y) % p if y else x for x, y in zip(row[i + 1:], prow[1:])]

    def rref(self) -> dict:
        """The reduced row echelon form of the rows inserted so far, as
        {pivot column: full row} in canonical field elements, in column
        order: each row has lead 1 and is zero in every other pivot
        column.  One back-substitution pass over the store."""
        F, p = self.F, self._p
        done: dict[int, list] = {}
        for c in sorted(self._rows, reverse=True):
            tail = self._rows[c]
            if p is None:
                row = [F.zero] * c + [Fraction(x, tail[0]) for x in tail]
            else:
                row = [0] * c + tail
            # rows in done are already zero in every other pivot column,
            # so the order in which they are subtracted is moot
            for pc, prow in done.items():
                f = row[pc]
                if f:
                    if p is None:
                        row = [a - f * b if b else a for a, b in zip(row, prow)]
                    else:
                        row = [(a - f * b) % p if b else a for a, b in zip(row, prow)]
            done[c] = row
        return dict(sorted(done.items()))


def _primitive(row) -> list | None:
    """A rational row as a primitive integer vector with the same span
    (denominators cleared by their lcm, then divided by the content), or
    None for a zero row.  A row of ints skips the denominators: ``gcd``
    takes no ``Fraction``, and one raises on the first."""
    try:
        g = gcd(*row)
    except TypeError:
        m = lcm(*(x.denominator for x in row))
        row = [x.numerator * (m // x.denominator) for x in row]
        g = gcd(*row)
    if not g:
        return None
    return [x // g for x in row] if g > 1 else row
