"""Exact linear algebra over the rationals and prime fields.

Scalars are plain values: over Q ints and ``fractions.Fraction`` (in lowest
terms with positive denominator), over F_p canonical residues in
``[0, p)``.  Field objects supply the scalar arithmetic.  The one
elimination is in plain int arithmetic: a canonical residual and its
insertion into reduced rows, on residues over F_p and fraction-free over Q
(``int_elimination``, ``int_rref``).  A covector is stored as its own
canonical residual (``normalize_covector``): primitive integers with a
positive lead over Q, residues with lead 1 over F_p; it takes the lead-1
form, with "a/b" entries over Q, only as JSON (``covector_to_json``).
Everything is immutable and deterministic.
"""

from __future__ import annotations

import re
from bisect import bisect
from fractions import Fraction
from functools import partial
from math import gcd, lcm
from typing import Iterable, Sequence


class FieldError(ValueError):
    """Mixed fields, bad field parameters, or unconvertible scalars."""


# Miller-Rabin with the first 13 primes as bases is deterministic below
# PRIME_LIMIT, the least strong pseudoprime to all of them (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality below ``PRIME_LIMIT``; ``FieldError`` above it."""
    if n < 2:
        return False
    for q in _PRIME_BASES:
        if n % q == 0:
            return n == q
    if n < 43 * 43:
        return True
    if n >= PRIME_LIMIT:
        raise FieldError(f"cannot certify {n} prime: primes must be below {PRIME_LIMIT}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# the scalar spellings of JSON strings, in ASCII digits only: int() and
# Fraction() also take spaces, underscores, decimals, exponents and non-ASCII
# digits
_INTEGER = re.compile("-?[0-9]+")
_RATIONAL = re.compile("-?[0-9]+(/[0-9]+)?")


class Rationals:
    """The field Q.  A single shared instance is exposed as ``QQ``."""

    kind = "Q"
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x) -> int | Fraction:
        """An int or a ``Fraction`` as it is, or a string "n" or "n/d" in
        ASCII digits with d nonzero."""
        if type(x) is int or isinstance(x, Fraction):  # bool: JSON true is not a scalar
            return x
        if isinstance(x, str) and _RATIONAL.fullmatch(x):
            try:
                return Fraction(x)
            except (ValueError, ZeroDivisionError):  # past int()'s digit limit, or d = 0
                pass
        raise FieldError(f"cannot interpret {x!r} as a rational")

    @staticmethod
    def add(a: Fraction, b: Fraction) -> Fraction:
        return a + b

    @staticmethod
    def sub(a: Fraction, b: Fraction) -> Fraction:
        return a - b

    @staticmethod
    def mul(a: Fraction, b: Fraction) -> Fraction:
        return a * b

    @staticmethod
    def neg(a: Fraction) -> Fraction:
        return -a

    def inv(self, a: int | Fraction) -> Fraction:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in Q")
        return self.one / a

    def __eq__(self, other) -> bool:
        return isinstance(other, Rationals)

    def __hash__(self) -> int:
        return hash("Q")

    def __repr__(self) -> str:
        return "QQ"


QQ = Rationals()


class PrimeField:
    """The prime field F_p; scalars are ints reduced into ``[0, p)``."""

    kind = "Fp"

    def __init__(self, p: int):
        if not is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def coerce(self, x) -> int:
        if type(x) is int:  # excludes bool
            return x % self.p
        if isinstance(x, str) and _INTEGER.fullmatch(x):
            try:
                return int(x) % self.p
            except ValueError:  # past int()'s digit limit
                pass
        raise FieldError(f"cannot interpret {x!r} as an element of F_{self.p}")

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of zero in F_{self.p}")
        return pow(a, self.p - 2, self.p)

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("Fp", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


# a PEP 604 union: typing.Union would keep the classes in typing's cache, and
# with them this module, after the package is dropped and imported afresh
Field = Rationals | PrimeField


def field_to_json(field: Field):
    return "Q" if field.kind == "Q" else {"Fp": field.p}


def field_from_json(data) -> Field:
    if data == "Q":
        return QQ
    if isinstance(data, dict) and set(data) == {"Fp"}:
        p = data["Fp"]
        if isinstance(p, int) and not isinstance(p, bool):
            return PrimeField(p)
    raise FieldError(f"unrecognized field spec {data!r}")


def integer_row(row: Sequence[int | Fraction]) -> tuple[int, ...]:
    """A rational row times the lcm of its denominators."""
    den = lcm(*[x.denominator for x in row])
    return tuple([x.numerator * (den // x.denominator) for x in row])


def int_elimination(field: Field):
    """The plain-int elimination of the field: (``residual``, ``insert``).
    Over Q the rows are fraction-free (``residual_int``, ``insert_int``),
    over F_p residues in rref (``residual_mod``, ``insert_mod``, with lead
    inverses memoized for the life of the returned functions); either row
    set is unique for its row space.  ``residual(rows, pivots, v)`` is the
    canonical residual of an int row v (normalized covectors are int rows),
    or ``None`` when v lies in the row space; ``insert(rows, pivots, r)``
    adds a residual to the rows."""
    if field.kind == "Q":
        return residual_int, insert_int
    return partial(residual_mod, field.p, {}), partial(insert_mod, field.p)


def int_rref(field: Field, rows: Iterable[Sequence[int]]):
    """The reduced rows of int rows, inserted one at a time by the field's
    ``int_elimination``; returns (rows, pivots)."""
    residual, insert = int_elimination(field)
    reduced, pivots = (), ()
    for row in rows:
        r = residual(reduced, pivots, row)
        if r is not None:
            reduced, pivots = insert(reduced, pivots, r)
    return reduced, pivots


def residual_mod(p: int, inverses: dict, rows, pivots, vector):
    """The residual of a vector of residues modulo rref rows over F_p: the
    vector minus its pivot-column entries times the rows, scaled to lead 1.
    It vanishes on the pivot columns, so it is the same for every nonzero
    multiple of the vector plus any combination of the rows.  ``None`` when
    the vector lies in the row space.  ``inverses`` memoizes the leads'
    inverses.

    The rows are reduced, so the coefficient of row i is the vector's own
    entry at pivot i; the residual therefore takes one pass and one
    reduction mod p per entry.
    """
    v = vector
    for row, c in zip(rows, pivots):
        f = vector[c]
        if f:
            v = [a - f * b for a, b in zip(v, row)]
    v = [a % p for a in v]
    for x in v:
        if x:
            break
    else:
        return None
    if x != 1:
        scale = inverses.get(x)
        if scale is None:
            scale = inverses[x] = pow(x, p - 2, p)
        v = [a * scale % p for a in v]
    return tuple(v)


def insert_mod(p: int, rows, pivots, r):
    """The rref rows over F_p extended by a residual ``r`` (lead 1, zero on
    the pivot columns): r is subtracted from each row in proportion to its
    entry at r's lead, and placed by its lead."""
    for lead, x in enumerate(r):
        if x:
            break
    new_rows = []
    for row in rows:
        f = row[lead]
        if f:
            row = tuple([(a - f * b) % p for a, b in zip(row, r)])
        new_rows.append(row)
    k = bisect(pivots, lead)
    new_rows.insert(k, r)
    return tuple(new_rows), pivots[:k] + (lead,) + pivots[k:]


def residual_int(rows, pivots, vector):
    """The canonical residual of an integer vector modulo fraction-free
    reduced rows: the unique primitive integer vector with a positive lead
    that vanishes on the pivot columns and lies in the span of the vector
    and the rows.  ``None`` when the vector lies in the row space.  Each
    elimination cross-multiplies by the two entries over their gcd, and the
    result is divided by its signed content.
    """
    v = vector
    for row, c in zip(rows, pivots):
        f = v[c]
        if f:
            g = gcd(row[c], f)
            a, f = row[c] // g, f // g
            v = [a * x - f * y for x, y in zip(v, row)]
    content = gcd(*v)
    if not content:
        return None
    for x in v:
        if x:
            break
    if x < 0:
        content = -content
    if content == 1:
        return tuple(v)
    return tuple([x // content for x in v])


def insert_int(rows, pivots, r):
    """Fraction-free reduced rows extended by a residual ``r`` (primitive,
    positive lead, zero on the pivot columns): each row with an entry at r's
    lead is cross-multiplied against r and divided by its content, and r is
    placed by its lead.

    Each row is primitive with a positive pivot and is zero in the other
    rows' pivot columns: a positive multiple of the rref row with the same
    pivot, hence unique, so the rows key the row space exactly.
    """
    for lead, a in enumerate(r):
        if a:
            break
    new_rows = []
    for row in rows:
        f = row[lead]
        if f:
            g = gcd(a, f)
            a_g, f_g = a // g, f // g
            row = [a_g * x - f_g * y for x, y in zip(row, r)]
            content = gcd(*row)
            row = tuple([x // content for x in row])
        new_rows.append(row)
    k = bisect(pivots, lead)
    new_rows.insert(k, r)
    return tuple(new_rows), pivots[:k] + (lead,) + pivots[k:]


def normalize_covector(field: Field, v: Sequence) -> tuple[int, ...]:
    """The canonical form of a covector, the same for every nonzero multiple:
    its residual modulo no rows, so primitive integers with a positive lead
    over Q and residues with lead 1 over F_p.  ``integer_row`` clears the
    denominators over Q and leaves residues as they are."""
    residual = int_elimination(field)[0]
    r = residual((), (), integer_row([field.coerce(x) for x in v]))
    if r is None:
        raise ValueError("cannot normalize the zero covector")
    return r


def covector_to_json(cov: Sequence[int]) -> list:
    """A normalized covector scaled to lead 1, as JSON: ints, and "a/b"
    strings for the entries that are not integers.  Over F_p the lead is
    already 1 and the entries are written as they are."""
    lead = next(x for x in cov if x)
    out = []
    for x in cov:
        g = gcd(x, lead)
        out.append(x // g if g == lead else f"{x // g}/{lead // g}")
    return out
