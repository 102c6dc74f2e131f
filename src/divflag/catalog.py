"""Deterministic generators for the named arrangement families.

Irrational geometry (the pentagon, roots of unity) is realized over prime
fields with explicit residue choices and validated against a second prime:
the intersection lattices of the two realizations must agree level by
level.
"""

from __future__ import annotations

import itertools
from math import gcd
from typing import NamedTuple

from . import intpoly
from .arrangement import (
    Arrangement,
    ArrangementError,
    Flat,
    FrozenRecord,
    cone,
    flat_from_members,
    make_arrangement,
    restrict_to_hyperplane,
)
from .exactalg import PrimeField, QQ, is_prime
from .lattice import build_lattice


class CatalogError(ValueError):
    """Bad generator parameters or a prime that degenerates the geometry."""


class RootSystemSpec(FrozenRecord):
    """Positive roots of the classical crystallographic types A-D."""

    __slots__ = ("type", "rank")

    def __init__(self, type: str, rank: int):
        if type not in ("A", "B", "C", "D"):
            raise CatalogError(f"unsupported root system type {type!r}")
        minimum = 2 if type == "D" else 1
        if rank < minimum:
            raise CatalogError(f"type {type} needs rank >= {minimum}")
        object.__setattr__(self, "type", type)
        object.__setattr__(self, "rank", rank)

    @property
    def coxeter_number(self) -> int:
        return {
            "A": self.rank + 1,
            "B": 2 * self.rank,
            "C": 2 * self.rank,
            "D": 2 * self.rank - 2,
        }[self.type]

    @property
    def positive_roots(self) -> tuple[tuple[int, ...], ...]:
        n = self.rank
        roots: list[tuple[int, ...]] = []
        if self.type == "A":
            # essential realization: consecutive sums of simple-root coordinates
            for i in range(n):
                for j in range(i, n):
                    roots.append(tuple(1 if i <= k <= j else 0 for k in range(n)))
            return tuple(roots)
        for i in range(n):
            for j in range(i + 1, n):
                roots.append(tuple(1 if k == i else (-1 if k == j else 0) for k in range(n)))
                roots.append(tuple(1 if k in (i, j) else 0 for k in range(n)))
        if self.type == "B":
            for i in range(n):
                roots.append(tuple(1 if k == i else 0 for k in range(n)))
        elif self.type == "C":
            for i in range(n):
                roots.append(tuple(2 if k == i else 0 for k in range(n)))
        return tuple(roots)


def boolean(rank: int) -> Arrangement:
    if rank < 1:
        raise CatalogError("boolean arrangement needs rank >= 1")
    covs = [[1 if k == i else 0 for k in range(rank)] for i in range(rank)]
    return make_arrangement(QQ, rank, covs)


def braid(rank: int) -> Arrangement:
    """Differences x_i - x_j in K^rank (non-essential: chi keeps a factor t)."""
    if rank < 2:
        raise CatalogError("braid arrangement needs rank >= 2")
    covs = []
    for i in range(rank):
        for j in range(i + 1, rank):
            covs.append([1 if k == i else (-1 if k == j else 0) for k in range(rank)])
    return make_arrangement(QQ, rank, covs)


def weyl_b(rank: int) -> Arrangement:
    return make_arrangement(QQ, rank, RootSystemSpec("B", rank).positive_roots)


def weyl_d(rank: int) -> Arrangement:
    return make_arrangement(QQ, rank, RootSystemSpec("D", rank).positive_roots)


def shi(spec: RootSystemSpec, k: int) -> Arrangement:
    """Cone of the k-extended Shi system: levels -k+1..k of every positive
    root, plus the coning hyperplane."""
    if k < 1:
        raise CatalogError("Shi level k must be positive")
    affine = []
    for root in spec.positive_roots:
        for j in range(-k + 1, k + 1):
            affine.append((root, j))
    return cone(QQ, spec.rank, affine)


def _rho_divisor(n: int) -> int:
    """A proper divisor of a composite n with no prime factor below 1000:
    Pollard's rho on x -> x^2 + c from x = 2, with Brent's cycle detection
    and one gcd per batch of 128 steps; c = 1, 2, ... until a run splits n,
    so the divisor is deterministic."""
    for c in itertools.count(1):
        y, g, q, r = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: step again from its start, one gcd a step
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def _prime_factors(n: int) -> set[int]:
    """The distinct prime factors of 1 <= n < PRIME_LIMIT: trial division by
    d < 1000, then the cofactor split by ``_rho_divisor`` until ``is_prime``
    certifies every part."""
    factors, d = set(), 2
    while d < 1000 and d * d <= n:
        while n % d == 0:
            factors.add(d)
            n //= d
        d += 1
    parts = [n] if n > 1 else []
    while parts:
        m = parts.pop()
        if is_prime(m):
            factors.add(m)
        else:
            g = _rho_divisor(m)
            parts += [g, m // g]
    return factors


def _primitive_root(p: int) -> int:
    factors = _prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise CatalogError(f"no primitive root modulo {p}")


def _root_of_unity(p: int, r: int) -> int:
    if r == 1:
        return 1
    if (p - 1) % r != 0:
        raise CatalogError(f"F_{p} has no element of order {r}: {p} != 1 mod {r}")
    return pow(_primitive_root(p), (p - 1) // r, p)


def _next_good_prime(start: int, r: int) -> int:
    q = start + 1
    while True:
        if is_prime(q) and (r == 1 or (q - 1) % r == 0):
            return q
        q += 1


def _intermediate_raw(rank: int, k: int, r: int, p: int) -> Arrangement:
    field = PrimeField(p)
    zeta = _root_of_unity(p, r)
    covs = []
    for i in range(k):
        covs.append([1 if t == i else 0 for t in range(rank)])
    power = 1
    powers = []
    for _ in range(r):
        powers.append(power)
        power = power * zeta % p
    for i in range(rank):
        for j in range(i + 1, rank):
            for zn in powers:
                covs.append([1 if t == i else ((-zn) % p if t == j else 0) for t in range(rank)])
    try:
        return make_arrangement(field, rank, covs)
    except ArrangementError as exc:
        raise CatalogError(f"intermediate arrangement degenerates over F_{p}: {exc}") from None


def _second_prime(arr: Arrangement, build, p: int, r: int) -> Arrangement:
    """``arr``, the realization ``build(p)``, once ``build`` at the next prime
    q = 1 (mod r) gives a lattice with the same level sizes."""
    q = _next_good_prime(p, r)
    sizes, sizes2 = build_lattice(arr).level_sizes(), build_lattice(build(q)).level_sizes()
    if sizes != sizes2:
        raise CatalogError(f"lattice disagrees between F_{p} {sizes} and F_{q} {sizes2}")
    return arr


def intermediate(rank: int, k: int, r: int, p: int) -> Arrangement:
    """Coordinate hyperplanes x_1..x_k together with x_i = z^n x_j for an
    order-r element z of F_p; validated against a second prime."""
    if not 0 <= k <= rank:
        raise CatalogError(f"k must lie in 0..{rank}")
    if r < 1:
        raise CatalogError("r must be positive")
    if not is_prime(p):
        raise CatalogError(f"{p} is not prime")
    arr = _intermediate_raw(rank, k, r, p)
    return _second_prime(arr, lambda q: _intermediate_raw(rank, k, r, q), p, r)


def edelman_reiner_restriction() -> Arrangement:
    """The four coordinate hyperplanes of Q^4 together with the eight
    hyperplanes x_1 + a*x_2 + b*x_3 + c*x_4 over all sign choices."""
    covs = [[1 if k == i else 0 for k in range(4)] for i in range(4)]
    for a2, a3, a4 in itertools.product((1, -1), repeat=3):
        covs.append([1, a2, a3, a4])
    return make_arrangement(QQ, 4, covs)


def xyzw_example() -> Arrangement:
    """The five hyperplanes x, y, z, w, x+y+z+w in Q^4."""
    covs = [[1 if k == i else 0 for k in range(4)] for i in range(4)]
    covs.append([1, 1, 1, 1])
    return make_arrangement(QQ, 4, covs)


def xyzw_restriction() -> Arrangement:
    """The restriction of the previous example onto w = 0: x, y, z, x+y+z."""
    covs = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]
    return make_arrangement(QQ, 3, covs)


class PentagonCone(NamedTuple):
    arrangement: Arrangement
    infinite_index: int
    special_flat: Flat


def _sqrt5(p: int) -> int:
    """The lesser square root of 5 modulo a prime p = 1 (mod 5): the Gauss sum
    z - z^2 - z^3 + z^4 of z = a^((p-1)/5) for the least a >= 2 with z != 1."""
    z = next(z for z in (pow(a, (p - 1) // 5, p) for a in range(2, p)) if z != 1)
    w = (z - z**2 - z**3 + z**4) % p
    return min(w, p - w)


def pentagon_cone(p: int = 31) -> PentagonCone:
    """Cone (twice) of the edges and diagonals of a regular pentagon.

    The pentagon lives over F_p via the golden ratio: vertices are
    (cos, sin/sin72)-coordinates, which only involve sqrt(5).  Realizes 11
    planes whose second coning has the one flat common to all of them;
    validates the counts |A| = 11 and |A^H| = 5 for every pentagon plane,
    and the lattice against a second prime.
    """
    pent = _pentagon_raw(p)
    _second_prime(pent.arrangement, lambda q: _pentagon_raw(q).arrangement, p, 5)
    return pent


def _pentagon_raw(p: int) -> PentagonCone:
    if not is_prime(p):
        raise CatalogError(f"{p} is not prime")
    if p % 5 != 1:
        raise CatalogError(f"need p = 1 mod 5, got {p}")
    field = PrimeField(p)
    w = _sqrt5(p)
    inv4 = field.inv(4)
    c1 = field.mul(w - 1, inv4)          # cos 72
    c2 = field.neg(field.mul(w + 1, inv4))  # cos 144
    vertices = [
        (field.one, field.zero),
        (c1, field.one),
        (c2, field.mul(2, c1)),
        (c2, field.neg(field.mul(2, c1))),
        (c1, field.neg(field.one)),
    ]
    if len(set(vertices)) != 5:
        raise CatalogError(f"pentagon vertices collide over F_{p}")
    affine = []
    for (x1, y1), (x2, y2) in itertools.combinations(vertices, 2):
        a = field.sub(y1, y2)
        b = field.sub(x2, x1)
        c = field.add(field.mul(a, x1), field.mul(b, y1))
        affine.append(((a, b), c))
    try:
        plane = cone(field, 2, affine)
    except ArrangementError:
        raise CatalogError(f"pentagon lines collide over F_{p}") from None
    if len(plane) != 11:
        raise CatalogError(f"expected 11 pentagon planes, got {len(plane)} over F_{p}")
    for h in range(11):
        size = len(restrict_to_hyperplane(plane, h).arrangement)
        if size != 5:
            raise CatalogError(
                f"pentagon plane {h} has restriction size {size}, expected 5 over F_{p}"
            )
    coned = cone(field, 3, [(cov, field.zero) for cov in plane.hyperplanes])
    infinite = plane.hyperplanes.index((field.zero, field.zero, field.one))
    special = flat_from_members(coned, range(11))
    if special.codim != 3 or len(special.members) != 11:
        raise CatalogError("special pentagon flat degenerates")
    return PentagonCone(coned, infinite, special)


class CatalogEntry(NamedTuple):
    """A named arrangement with its closed-form chi, where one is known."""

    name: str
    arrangement: Arrangement
    expected_chi: intpoly.IntPoly | None


def _shi_entry(rank: int = 2, k: int = 1, roots: str = "A", **_):
    spec = RootSystemSpec(roots, rank)
    chi = intpoly.from_roots([1] + [k * spec.coxeter_number] * rank)
    return f"-{roots.lower()}{rank}-k{k}", shi(spec, k), chi


# name -> a builder of (name suffix, arrangement, closed-form chi or None)
# from the parameters the entry takes, whose defaults favour the small cases;
# a builder ignores every other parameter
_ENTRIES = {
    "boolean": lambda rank=3, **_: (f"-{rank}", boolean(rank), intpoly.from_roots([1] * rank)),
    "braid": lambda rank=3, **_: (f"-{rank}", braid(rank), intpoly.from_roots(range(rank))),
    "weyl-b": lambda rank=3, **_: (
        str(rank), weyl_b(rank), intpoly.from_roots([2 * i - 1 for i in range(1, rank + 1)])),
    "weyl-d": lambda rank=4, **_: (
        str(rank), weyl_d(rank), intpoly.from_roots([2 * i - 1 for i in range(1, rank)] + [rank - 1])),
    "shi": _shi_entry,
    "intermediate": lambda rank=3, k=1, r=3, p=7, **_: (
        f"-{rank}-{k}-{r}-p{p}", intermediate(rank, k, r, p), None),
    "edelman-reiner": lambda **_: ("", edelman_reiner_restriction(), intpoly.from_roots([1, 3, 3, 5])),
    "pentagon-cone": lambda p=31, **_: (
        f"-p{p}", pentagon_cone(p).arrangement, intpoly.from_roots([1, 1, 5, 5])),
    "xyzw": lambda **_: ("", xyzw_example(), intpoly.mul((-1, 1), (-4, 6, -4, 1))),
    "xyzw-restriction": lambda **_: ("", xyzw_restriction(), intpoly.mul((-1, 1), (3, -3, 1))),
}
CATALOG_NAMES = tuple(_ENTRIES)


def build_entry(name: str, **params) -> CatalogEntry:
    """Catalog access by name; an entry ignores the parameters it does not take."""
    if name not in _ENTRIES:
        raise CatalogError(f"unknown catalog name {name!r}")
    suffix, arrangement, chi = _ENTRIES[name](**params)
    return CatalogEntry(name + suffix, arrangement, chi)
