"""Exact dense linear algebra over a FieldSpec.

Matrices are lists of row lists of canonical field elements.  There is
one elimination loop, ``IncrementalRowReducer.insert``: it streams rows
into an echelon store that keeps, for each pivot column, the row that
first led there, from that column on.  A row is reduced against the
store in increasing column order and raises the rank at its first
nonzero entry in a column without a pivot.  The first row fixes the
row length: a row of another length raises ``ValueError``.  Most
callers (ledgers, joint detection, the rank check, ``T_dimension``) ask
only that, so nothing is back-substituted while rows stream in.
``rref()`` back-substitutes once, for ``inverse`` and for the readers
that take a point or a nullspace (``rref_nullspace``) off one form; the
reduced row echelon form is unique, so their answers do not depend on
the order in which rows are inserted.  ``fork`` copies a reducer, whole
or as it was at a lower rank, so row sets that share a prefix reduce the
prefix once and go on from a copy.

The row step is specialised by field, with no method call per entry.
Over F_p a row is one Python ``int``: its residues packed in fixed-width
slots, slot j at bit j*w.  A pivot row is stored with lead 1, as the
residues after its lead, negated mod p, so that reducing a row at a
pivot is one big-int expression, ``R = (R >> w) + f * stored``, whatever
the row length.  The lead is read at slot 0, the next column, and only
when that slot is empty is the first nonzero slot found from the lowest
set bit.  Only the lead slot is read mod p, and a lead that is nonzero
but 0 mod p is passed over like a zero one; every other slot
starts below p and grows by less than p^2 per step, at most one step per
pivot column, so w = bit_length((p-1) + ncols*(p-1)^2) bits keep the
slots apart; the first row inserted fixes ncols, and with it w.
``rref()`` unpacks each stored row to canonical residues before
back-substituting.

Over Q a row enters as a primitive integer vector (denominators cleared
by their lcm, then divided by the content; a row of ints, as the ledgers
and the rank check build, is only divided by its content); the step is
the fraction-free ``b*row - a*pivot_row``, with a, b divided by their
gcd, followed by division by the new content.  So no ``Fraction`` is
built while rows stream in.  The sizes that show up in practice
(thousands of rows, columns bounded by C(n+d, d)) keep this comfortably
interactive.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import gcd, lcm
from operator import mul

from .field import FieldSpec


def mat_vec(F: FieldSpec, A, v):
    return [
        _dot(F, row, v)
        for row in A
    ]


def _dot(F: FieldSpec, row, v):
    """row . v in canonical form: over F_p one exact sum, reduced once mod
    p; over Q the sum of the nonzero terms only, as a Fraction product is
    dear."""
    if F.p:
        return sum(map(mul, row, v)) % F.p
    return sum((a * b for a, b in zip(row, v) if a and b), F.zero)


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


def rref_nullspace(F: FieldSpec, pivots: dict, n: int):
    """The right nullspace of the first n columns of a reduced row echelon
    form, {pivot column: row} as ``rref()`` gives it, whose pivots all lie
    in those columns: one vector per free column, in column order.  Its
    rows may run on past column n; those entries are not read."""
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


class IncrementalRowReducer:
    """Echelon pivot store supporting streaming inserts.

    The store maps each pivot column c to the reduced row that raised the
    rank there: over Q its entries from column c on, a primitive integer
    vector; over F_p, scaled to lead 1, its entries after column c negated
    mod p and packed into one ``int``, slot j holding column c+1+j.  The
    first insert fixes the row length (see the module docstring).  Input
    rows are never modified and stored rows are never mutated.

    Over F_p, ``insert`` reads each lead at slot 0 and searches for the
    first nonzero slot only when slot 0 is empty: on a dense row, as the
    ledgers' and the rank check's are, each pivot column it passes costs
    one mask, one shift and the ``f * stored`` step.
    """

    def __init__(self, F: FieldSpec):
        self.F = F
        self._rows: dict = {}  # pivot column -> row from there on, or its packed tail
        self._p = F.p if F.kind == "prime" else None
        self._ncols = None  # row length, fixed by the first insert
        self._w = 0  # F_p slot width in bits
        self._shifts: list = []  # F_p slot j starts at bit _shifts[j] = j*w

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
        child._ncols, child._w, child._shifts = self._ncols, self._w, self._shifts
        return child

    def insert(self, row) -> bool:
        """Insert a row; True iff it increased the rank."""
        rows, p, n = self._rows, self._p, len(row)
        if n != self._ncols:
            if self._ncols is not None:
                raise ValueError(f"a row of {n} entries for a reducer of {self._ncols} columns")
            self._ncols = n
            if p is not None:
                self._w = w = ((p - 1) + n * (p - 1) ** 2).bit_length()
                self._shifts = list(range(0, n * w, w))
        if p is not None:
            w, shifts = self._w, self._shifts
            mask = (1 << w) - 1
            R = sum([(x % p) << s for x, s in zip(row, shifts) if x])
            start = 0  # R holds the entries from column start on, slot 0 first
            while R:
                f = R & mask
                if not f:  # skip to the first nonzero slot
                    i = ((R & -R).bit_length() - 1) // w
                    R >>= i * w
                    start += i
                    f = R & mask
                R >>= w
                c = start
                start += 1
                f %= p
                if not f:
                    continue
                prow = rows.get(c)
                if prow is None:
                    g = -pow(f, -1, p)  # store the tail scaled to lead 1, negated
                    rows[c] = sum([((R >> s) & mask) * g % p << s for s in shifts[:n - start]])
                    return True
                R += f * prow
            return False
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
                rows[c] = row[i:]
                return True
            start = c + 1
            b = prow[0]
            g = gcd(f, b)
            f, b = f // g, b // g
            row = [b * x - f * y for x, y in zip(row[i + 1:], prow[1:])]
            g = gcd(*row)
            if not g:
                return False
            if g > 1:
                row = [x // g for x in row]

    def rref(self) -> dict:
        """The reduced row echelon form of the rows inserted so far, as
        {pivot column: full row} in canonical field elements, in column
        order: each row has lead 1 and is zero in every other pivot
        column.  One back-substitution pass over the store."""
        F, p = self.F, self._p
        mask = (1 << self._w) - 1
        done: dict[int, list] = {}
        for c in sorted(self._rows, reverse=True):
            tail = self._rows[c]
            if p is None:
                row = [F.zero] * c + [Fraction(x, tail[0]) for x in tail]
            else:
                row = [0] * c + [1] + [-((tail >> s) & mask) % p
                                       for s in self._shifts[:self._ncols - c - 1]]
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
