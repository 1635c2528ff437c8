"""Exact scalar arithmetic over a prime field F_p or the rationals.

Elements are stored in canonical form: residues 0 <= v < p for prime
fields (plain ints) and reduced ``Fraction`` values for the rationals,
so equality of elements is representational equality.  A ``FieldSpec``
carries the arithmetic; it is immutable and safe to share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import DivisionByZero, MalformedInput

FieldElement = Union[int, Fraction]

# Default experiment field: a fixed 31-bit prime.
DEFAULT_PRIME = 2147483629

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all n < 3.3e24."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """F_p for a prime p (< 2^62) or the field of rationals."""

    kind: str  # "prime" | "rational"
    p: int | None = None

    def __post_init__(self):
        if self.kind == "prime":
            if self.p is None or not is_prime(self.p):
                raise ValueError(f"modulus {self.p!r} is not prime")
            if self.p >= 1 << 62:
                raise ValueError("modulus must fit in 62 bits")
        elif self.kind == "rational":
            if self.p is not None:
                raise ValueError("rationals take no modulus")
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")

    # -- element construction ------------------------------------------

    def of(self, x) -> FieldElement:
        """Coerce an int, Fraction, or 'a/b' string into canonical form.

        An int in a prime field and a Fraction in the rationals, the
        values the library itself passes, take an exact-type fast path:
        ``isinstance(x, Fraction)`` goes through the ABC machinery.  A
        string of ASCII digits with at most a leading '-', as configs hold
        them, is read by ``int()``, with no regex and, over F_p, no
        inverse of a denominator; any other string goes through
        ``Fraction``, which reads or refuses it.  A float is no exact
        value and a bool, JSON's true or false, is no number: both raise
        ValueError."""
        cls = type(x)
        if self.kind == "prime":
            if cls is int:
                return x % self.p
        elif cls is Fraction:
            return x
        if cls is bool:
            raise ValueError(f"{x!r} is a boolean, not a field element")
        if isinstance(x, float):
            raise ValueError(f"{x!r} is a float; give an exact value, such as '1/4'")
        if isinstance(x, str):
            digits = x[1:] if x[:1] == "-" else x
            if digits.isascii() and digits.isdigit():
                x = int(x)
                return x % self.p if self.kind == "prime" else Fraction(x)
            x = Fraction(x)
        if self.kind == "prime":
            if isinstance(x, Fraction):
                return self.div(x.numerator % self.p, x.denominator % self.p)
            return int(x) % self.p
        return Fraction(x)

    @property
    def zero(self) -> FieldElement:
        return 0 if self.kind == "prime" else Fraction(0)

    @property
    def one(self) -> FieldElement:
        return 1 if self.kind == "prime" else Fraction(1)

    # -- arithmetic ----------------------------------------------------

    def add(self, a, b):
        return (a + b) % self.p if self.kind == "prime" else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.kind == "prime" else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.kind == "prime" else a * b

    def neg(self, a):
        return (-a) % self.p if self.kind == "prime" else -a

    def inv(self, a):
        if not a:
            raise DivisionByZero("inverse of zero")
        if self.kind == "prime":
            return pow(a, -1, self.p)
        return 1 / Fraction(a)

    def div(self, a, b):
        if not b:
            raise DivisionByZero("division by zero")
        if self.kind == "prime":
            return a * pow(b, -1, self.p) % self.p
        return Fraction(a) / Fraction(b)

    def pow(self, a, e: int):
        if self.kind == "prime":
            return pow(a, e, self.p)
        return Fraction(a) ** e

    # -- serialization -------------------------------------------------

    def to_json(self) -> dict:
        if self.kind == "prime":
            return {"kind": "prime", "p": self.p}
        return {"kind": "rational"}

    @staticmethod
    def from_json(obj: dict) -> "FieldSpec":
        """The field ``to_json`` wrote; anything but an object with a known
        kind, or a modulus on the rationals, raises ValueError."""
        if not isinstance(obj, dict):
            raise ValueError(f"a field is an object with a kind, not {obj!r}")
        kind = obj.get("kind")
        if kind == "prime":
            return FieldSpec("prime", json_typed(obj["p"], int, "field p"))
        return FieldSpec(kind, obj.get("p"))


_JSON_TYPES = {int: "an integer", list: "an array", str: "a string"}


def json_typed(x, kind: type, name: str):
    """x when its type is exactly ``kind``: ``int`` for a JSON integer, not
    a ``bool`` or 2.7; ``list`` for an array, not an object, whose keys a
    loop would read, nor a string, whose characters it would; ``str`` for
    a string.  Anything else is malformed."""
    if type(x) is not kind:
        raise MalformedInput(f"{name} must be {_JSON_TYPES[kind]}, not {x!r}")
    return x


def as_int(x) -> FieldElement:
    """x as an ``int`` when it is integral, else as it is: a rational row
    or coordinate held in ints stays in ints through ``+`` and ``*``,
    where one integral ``Fraction`` would turn every result into one."""
    return x.numerator if x.denominator == 1 else x


def binom(n: int, k: int) -> int:
    """Integer binomial coefficient, 0 when k < 0 or k > n."""
    if k < 0 or k > n or n < 0:
        return 0
    return math.comb(n, k)
