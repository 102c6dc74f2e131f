"""Shared helpers: deterministic random arrangements and multiplicities, and
the field-generic rref (one row insertion at a time) and kernel basis that
the integer eliminations are checked against."""

from __future__ import annotations

import random
from fractions import Fraction

from divflag.arrangement import Arrangement, make_arrangement
from divflag.exactalg import QQ, Field, normalize_covector
from divflag.multi import MultiArrangement, Multiplicity


def random_arrangement(rng: random.Random, dim: int, n: int, field=QQ,
                       coeff_lo: int = -2, coeff_hi: int = 2) -> Arrangement:
    """n distinct random hyperplanes with small integer covectors.

    The coefficient range widens automatically when the requested count
    exceeds the directions available in the initial box.  A line (dim 1)
    has one hyperplane over any field, and over F_q at most
    (q^dim - 1)/(q - 1) hyperplanes exist; asking for more is a ValueError.
    """
    if dim == 1 and n > 1:
        raise ValueError(f"a line has one hyperplane, not {n}")
    if field != QQ and n > (field.p ** dim - 1) // (field.p - 1):
        raise ValueError(f"F_{field.p}^{dim} has fewer than {n} hyperplanes")
    covs = set()
    attempts = 0
    while len(covs) < n:
        attempts += 1
        if attempts % 500 == 0:
            coeff_lo -= 1
            coeff_hi += 1
        raw = tuple(rng.randint(coeff_lo, coeff_hi) for _ in range(dim))
        if field != QQ:
            raw = tuple(field.coerce(x) for x in raw)
        if all(x == field.zero for x in raw):
            continue
        covs.add(normalize_covector(field, raw))
    return make_arrangement(field, dim, sorted(covs, key=_lead_one))


def _lead_one(cov):
    """A normalized covector scaled to lead 1: the order of the hyperplanes
    of ``random_arrangement``, over Q and F_p alike."""
    lead = next(x for x in cov if x)
    return tuple(Fraction(x, lead) for x in cov)


def random_rank2_multi(rng: random.Random, field=QQ, max_lines: int = 5,
                       max_mult: int = 4) -> MultiArrangement:
    """Random 2-dimensional multiarrangement, occasionally past the
    closed-form regime so the solver path gets exercised."""
    n = rng.randint(2, max_lines)
    arr = random_arrangement(rng, 2, n, field=field, coeff_lo=-3, coeff_hi=3)
    mult = Multiplicity(tuple(rng.randint(1, max_mult) for _ in range(len(arr))))
    return MultiArrangement(arr, mult)


def reduce_against(field: Field, rows, pivots, vector):
    """Residual of ``vector`` after elimination by an rref row set."""
    zero = field.zero
    sub, mul = field.sub, field.mul
    v = [field.coerce(x) for x in vector]
    for row, c in zip(rows, pivots):
        factor = v[c]
        if factor != zero:
            v = [sub(v[j], mul(factor, row[j])) for j in range(len(v))]
    return v


def extend_rref(field: Field, rows, pivots, vector):
    """Insert one row into an rref row set, keeping it in rref form.

    Returns ``None`` when the vector already lies in the row space,
    otherwise the extended ``(rows, pivots)``.  Equal to a full rref of the
    stacked matrix, by uniqueness of the reduced echelon form.
    """
    zero = field.zero
    sub, mul, inv = field.sub, field.mul, field.inv
    v = reduce_against(field, rows, pivots, vector)
    lead = None
    for j, x in enumerate(v):
        if x != zero:
            lead = j
            break
    if lead is None:
        return None
    scale = inv(v[lead])
    if scale != field.one:
        v = [mul(scale, x) for x in v]
    new_rows = []
    new_pivots = []
    inserted = False
    for row, c in zip(rows, pivots):
        if not inserted and lead < c:
            new_rows.append(v)
            new_pivots.append(lead)
            inserted = True
        factor = row[lead]
        if factor != zero:
            row = [sub(row[j], mul(factor, v[j])) for j in range(len(row))]
        new_rows.append(list(row))
        new_pivots.append(c)
    if not inserted:
        new_rows.append(v)
        new_pivots.append(lead)
    return tuple(tuple(r) for r in new_rows), tuple(new_pivots)


def reference_rref(field: Field, rows):
    """The rref of rows of field scalars (or ints, coerced into the field),
    inserted one at a time by ``extend_rref``; returns (rows, pivots)."""
    reduced, pivots = (), ()
    for row in rows:
        extended = extend_rref(field, reduced, pivots, [field.coerce(x) for x in row])
        if extended is not None:
            reduced, pivots = extended
    return reduced, pivots


def reference_kernel(field: Field, rows, ncols: int):
    """Canonical kernel basis read off the free columns of ``reference_rref``."""
    reduced, pivots = reference_rref(field, rows)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [field.zero] * ncols
        v[fc] = field.one
        for row, pc in zip(reduced, pivots):
            v[pc] = field.neg(row[fc])
        basis.append(tuple(v))
    return basis
