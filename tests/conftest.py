"""Shared helpers: deterministic random arrangements and multiplicities."""

from __future__ import annotations

import random

from divflag.arrangement import Arrangement, make_arrangement
from divflag.exactalg import QQ, normalize_covector
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
    return make_arrangement(field, dim, sorted(covs))


def random_rank2_multi(rng: random.Random, field=QQ, max_lines: int = 5,
                       max_mult: int = 4) -> MultiArrangement:
    """Random 2-dimensional multiarrangement, occasionally past the
    closed-form regime so the solver path gets exercised."""
    n = rng.randint(2, max_lines)
    arr = random_arrangement(rng, 2, n, field=field, coeff_lo=-3, coeff_hi=3)
    mult = Multiplicity(tuple(rng.randint(1, max_mult) for _ in range(len(arr))))
    return MultiArrangement(arr, mult)
