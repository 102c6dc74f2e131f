"""Multiarrangement machinery: Ziegler restrictions, exact exponents of
rank-2 multiarrangements, the local-global second Betti number, remainder
divisions, and the exact rank-3 freeness decision; the b2 gap of a Ziegler
restriction has one home, ``ziegler_gap``, on one L(A) and at most one
restriction.

Rank-2 exponents are the workhorse: ``exp2`` gives them by a closed form
or by one kernel count of the exact linear system for derivations; its
second generator is the first degree-d2 kernel vector that passes the
Saito determinant condition with the first.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb, gcd, lcm
from typing import NamedTuple

from . import intpoly
from .arrangement import Arrangement, Flat, FrozenRecord, restrict_to_hyperplane, restriction
from .exactalg import Field, int_rref
from .lattice import IntersectionLattice, build_lattice, rank2_flats


class Multiplicity(FrozenRecord):
    """Positive integer multiplicity per hyperplane index."""

    __slots__ = ("values",)

    def __init__(self, values: tuple[int, ...]):
        if any(v < 1 for v in values):
            raise ValueError("multiplicities must be positive")
        object.__setattr__(self, "values", values)

    @property
    def total(self) -> int:
        return sum(self.values)

    def bump(self, h: int, delta: int) -> "Multiplicity":
        if not 0 <= h < len(self.values):
            raise IndexError(f"hyperplane index {h} out of range")
        vals = list(self.values)
        vals[h] += delta
        return Multiplicity(tuple(vals))


class MultiArrangement(FrozenRecord):
    __slots__ = ("base", "mult")

    def __init__(self, base: Arrangement, mult: Multiplicity):
        if len(mult.values) != len(base):
            raise ValueError("multiplicity size does not match the arrangement")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "mult", mult)


def constant_multiplicity(arr: Arrangement) -> MultiArrangement:
    return MultiArrangement(arr, Multiplicity((1,) * len(arr)))


class Exponents2(NamedTuple):
    d1: int
    d2: int


def ziegler_restriction(arr: Arrangement, h: int) -> MultiArrangement:
    """Restriction onto hyperplane h with collapse counts as multiplicities."""
    if arr.dim < 2:
        raise ValueError("Ziegler restriction needs ambient dimension >= 2")
    restricted, trace = restrict_to_hyperplane(arr, h)
    mult = Multiplicity(tuple(len(t) for t in trace))
    return MultiArrangement(restricted, mult)


def _two_coordinates(arr: Arrangement) -> list[tuple[int, int]]:
    """The lines of a rank-2 arrangement as integer pairs (a, b): each
    covector read at the two pivots of the rref."""
    _, pivots = int_rref(arr.field, arr.hyperplanes)
    if len(pivots) != 2:
        raise ValueError(f"expected a rank-2 arrangement, got rank {len(pivots)}")
    p0, p1 = pivots
    return [(cov[p0], cov[p1]) for cov in arr.hyperplanes]


def _modulus(field: Field) -> int:
    """p over F_p, 0 over Q."""
    return field.p if field.kind == "Fp" else 0


def _reduce(p: int, v):
    """The entries of v mod p over F_p; v itself over Q (p = 0)."""
    return [x % p for x in v] if p else v


def _axis_coordinates(field: Field, pairs, mults) -> list[tuple[int, int]]:
    """The lines in the basis of the two of largest multiplicity, i and j
    (ties to the lowest index): (a, b) -> (a*b_j - b*a_j, a_i*b - b_i*a),
    primitive over Q and mod p over F_p.  Line i becomes x = 0 and line j
    y = 0; the change of coordinates has determinant a_i*b_j - a_j*b_i,
    nonzero in the field, so the multiarrangement is an isomorphic one."""
    i, j = sorted(range(len(mults)), key=lambda k: -mults[k])[:2]
    (ai, bi), (aj, bj) = pairs[i], pairs[j]
    p = _modulus(field)
    out = []
    for a, b in pairs:
        a, b = a * bj - b * aj, ai * b - bi * a
        if p:
            out.append((a % p, b % p))
        else:
            g = gcd(a, b)
            out.append((a // g, b // g))
    return out


def _containment_rows(pairs, mults, d: int, p: int) -> list[list[int]]:
    """Integer rows whose vanishing on (P, Q), the coefficients of
    x^(d-i) y^i, says that (a*x + b*y)^m divides F = a*P + b*Q on every line
    that is not a coordinate line: the first m Hasse coefficients of
    s -> F(s - b, a) vanish, the j-th being sum_i F_i C(d-i, j)
    (-b)^(d-i-j) a^i.  (s - b, a) crosses the line at s = 0, so this tests
    divisibility in every characteristic, m >= p included.  A multiplicity
    above d leaves only F = 0, which the first d + 1 rows already say.  A
    coordinate line gets no rows: ``_derivation_kernel`` drops its columns.
    """
    ncols = 2 * (d + 1)
    rows = []
    for (a, b), m in zip(pairs, mults):
        if not (a and b):
            continue
        a_pow = [a**k for k in range(d + 1)]
        nb_pow = [(-b) ** k for k in range(d + 1)]
        for j in range(min(m, d + 1)):
            row = [0] * ncols
            for i in range(d - j + 1):
                w = comb(d - i, j) * nb_pow[d - i - j] * a_pow[i]
                row[i] = a * w
                row[d + 1 + i] = b * w
            rows.append(_reduce(p, row))
    return rows


def _derivation_kernel(field: Field, pairs, mults, d: int) -> list[tuple[int, ...]]:
    """Integer basis of the kernel of the degree-d containment conditions
    for derivations (P, Q).  A coordinate line's condition is monomial:
    x^m | P for (a, 0), y^m | Q for (0, b), so its min(m, d + 1) columns
    (P's at x-degree below m, Q's at y-degree below m) are zero and drop out
    with their rows.  The other lines' rows are reduced on the surviving
    columns, and there is one vector per free column, written back at full
    width: v[fc] is the lcm of the pivots of the rows that meet fc, and each
    such row's pivot column gets -row[fc] * (lcm / row[pc]).  Over F_p the
    pivots are 1 and the vector is reduced mod p."""
    p = _modulus(field)
    ncols = 2 * (d + 1)
    dropped = set()
    for (a, b), m in zip(pairs, mults):
        m = min(m, d + 1)
        if not b:
            dropped.update(range(d + 1 - m, d + 1))
        elif not a:
            dropped.update(range(d + 1, d + 1 + m))
    keep = [c for c in range(ncols) if c not in dropped]
    rows, pivots = int_rref(field, [[row[c] for c in keep]
                                    for row in _containment_rows(pairs, mults, d, p)])
    pivot_set = set(pivots)
    basis = []
    for fc in range(len(keep)):
        if fc in pivot_set:
            continue
        meets = [(row[fc], row[pc], pc) for row, pc in zip(rows, pivots) if row[fc]]
        scale = lcm(*[lead for _, lead, _ in meets])
        v = [0] * ncols
        v[keep[fc]] = scale
        for x, lead, pc in meets:
            v[keep[pc]] = -x * (scale // lead)
        basis.append(tuple(_reduce(p, v)))
    return basis


def _saito_check(field: Field, theta1, d1, theta2, d2, pairs, mults) -> bool:
    """Determinant of the two derivations equals a nonzero constant times
    the product of the defining forms with multiplicity.  The forms are
    integer polynomials in y (x = 1), mod p over F_p; with lead the first
    nonzero coefficient of the product, det[lead] != 0 and
    det * target[lead] - target * det[lead] = 0."""
    p = _modulus(field)

    def canonical(f):
        return intpoly.poly(_reduce(p, f))

    p1, q1 = theta1[: d1 + 1], theta1[d1 + 1:]
    p2, q2 = theta2[: d2 + 1], theta2[d2 + 1:]
    det = canonical(intpoly.sub(intpoly.mul(p1, q2), intpoly.mul(q1, p2)))
    if not det:
        return False
    target = intpoly.ONE
    for (a, b), m in zip(pairs, mults):
        power = [comb(m, k) * a ** (m - k) * b**k for k in range(m + 1)]
        target = canonical(intpoly.mul(target, power))
    lead = next(i for i, c in enumerate(target) if c)
    if lead >= len(det) or not det[lead]:
        return False
    return not canonical(intpoly.sub(intpoly.scale(det, target[lead]), intpoly.scale(target, det[lead])))


def _closed_form(n: int, total: int) -> Exponents2 | None:
    """Exponents of n lines with total multiplicity |m| <= 2n - 1, else None."""
    if total > 2 * n - 1:
        return None
    lo, hi = sorted((total - n + 1, n - 1))
    return Exponents2(lo, hi)


def exp2(ma: MultiArrangement) -> Exponents2:
    """Exact exponents of a rank-2 multiarrangement.

    Fast path (``_closed_form``): when |m| <= 2|A| - 1 the exponents are
    (|m| - |A| + 1, |A| - 1).  Otherwise one kernel count settles them: the
    multiarrangement is free with d1 <= d2 and d1 + d2 = |m|, so at
    c = floor(|m|/2), d1 <= c <= d2, the kernel has dimension
    k = c - d1 + 1, plus one exactly when d1 = d2 = c; it is never empty.
    k = 2 with |m| even is either the balanced case, where any two
    independent kernel vectors have a nonzero determinant and the Saito
    check on the first two returns (c, c) after this one solve, or d1 =
    c - 1, where both are multiples of one generator and the check fails.
    Every other case has d1 = c - k + 1 < d2.

    The kernels are solved in plain ints, on the field's
    ``int_elimination``: the lines are integer pairs, written in the basis
    of the two of largest multiplicity (``_axis_coordinates``), whose
    monomial conditions drop min(m, d + 1) columns each; every other
    containment condition is a row of Hasse coefficients on the surviving
    columns, and an integer basis is read off the free columns.  The first
    generator theta1 is the first kernel vector at d1, and the second is the
    first kernel vector at d2 that passes the Saito determinant condition
    with theta1, on integer forms, mod p over F_p.  That one check both
    picks and certifies it: the degree-d2 derivations are the multiples
    f * theta1 plus a * theta2, and det(theta1, f * theta1 + a * theta2) =
    a * det(theta1, theta2) is a nonzero multiple of the defining product
    exactly when a != 0, so the first vector to pass is the first outside
    the span of the multiples of theta1.
    """
    arr = ma.base
    field = arr.field
    n = len(arr)
    mults = ma.mult.values
    total = ma.mult.total
    pairs = _two_coordinates(arr)
    closed = _closed_form(n, total)
    if closed is not None:
        return closed

    pairs = _axis_coordinates(field, pairs, mults)
    c = total // 2
    kernel = _derivation_kernel(field, pairs, mults, c)
    if not kernel:
        raise AssertionError(
            f"no derivation of degree {c}, half the total multiplicity {total} rounded down"
        )
    if len(kernel) == 2 and 2 * c == total and _saito_check(
            field, kernel[0], c, kernel[1], c, pairs, mults):
        return Exponents2(c, c)
    # d1 <= c < d2
    d1 = c - len(kernel) + 1
    d2 = total - d1
    if d1 != c:
        kernel = _derivation_kernel(field, pairs, mults, d1)
    theta1 = kernel[0]
    kernel = _derivation_kernel(field, pairs, mults, d2)
    if not any(_saito_check(field, theta1, d1, theta2, d2, pairs, mults) for theta2 in kernel):
        raise AssertionError(
            f"no derivation of degree {d2} passes the Saito determinant condition"
            f" with the first generator, of degree {d1}"
        )
    return Exponents2(d1, d2)


def euler_mult_rank2(ma: MultiArrangement, h: int) -> int:
    """Euler multiplicity at the center of a rank-2 multiarrangement: the
    exponent shared between the multiplicity and its drop at h."""
    if not 0 <= h < len(ma.base):
        raise IndexError(f"hyperplane index {h} out of range")
    if ma.mult.values[h] < 2:
        raise ValueError("Euler multiplicity step needs multiplicity at least 2")
    e = tuple(exp2(ma))
    e_drop = tuple(exp2(MultiArrangement(ma.base, ma.mult.bump(h, -1))))
    shared = list((Counter(e) & Counter(e_drop)).elements())
    if len(shared) != 1:
        raise AssertionError(
            f"exponent pairs {e} and {e_drop} do not differ in exactly one place"
        )
    return shared[0]


def _local_exponents(arr: Arrangement, mults, flats) -> tuple[Exponents2, ...]:
    """exp2 of (arr, mults) localized at each flat, given by its members."""
    return tuple(exp2(MultiArrangement(
        Arrangement(arr.field, arr.dim, tuple(arr.hyperplanes[h] for h in members)),
        Multiplicity(tuple(mults[h] for h in members)))) for members in flats)


def b2_multi(ma: MultiArrangement) -> int:
    """Second Betti number of a multiarrangement via the local-global
    formula: the sum of exponent products over the codimension-2 flats."""
    flats = (flat.members for flat in rank2_flats(ma.base))
    return sum(d1 * d2 for d1, d2 in _local_exponents(ma.base, ma.mult.values, flats))


def ziegler_gap(lattice: IntersectionLattice, level: int, index: int, k: int) -> tuple:
    """(gap, b2, local exponents) of the Ziegler restriction of A^X, X =
    levels[level][index], onto Y = levels[level + 1][k]: gap is b2(A^X)
    after deconing less the local-global b2 of its exponents at the flats
    W ⊇ Y two levels above Y; at rank 3, gap = 0 exactly when A^X is free
    (Yoshinaga, *Invent. Math.* 157, 2004).  Line c, a cover class of Y in
    the order ``restriction`` numbers them, has multiplicity the number of X's
    classes inside Y | c, less one; a wall W holds the lines inside it.  Only
    a wall beyond ``_closed_form`` needs A restricted onto Y, once."""
    y = lattice.mask(level + 1, k)
    lines = sorted(lattice.cover_classes(level + 1, k), key=lambda c: c & -c)
    mults = [sum(1 for c in lattice.cover_classes(level, index) if not c & ~(y | line)) - 1
             for line in lines]
    sizes = lattice.level_sizes()
    walls = [[j for j, line in enumerate(lines) if line & w]
             for w in (lattice.mask(level + 3, i) for i in range(sizes[level + 3] if len(sizes) > level + 3 else 0))
             if not y & ~w]
    exponents = tuple(_closed_form(len(wall), sum(mults[j] for j in wall)) for wall in walls)
    if not all(exponents):
        restricted = restriction(lattice.arrangement, lattice.flat(level + 1, k)).arrangement
        exponents = _local_exponents(restricted, mults, walls)
    b2 = intpoly.coeff(_chi0(lattice.restriction_chi(level, index)), lattice.arrangement.dim - level - 3)
    gap = b2 - sum(d1 * d2 for d1, d2 in exponents)
    if gap < 0:
        raise AssertionError(f"b2 gap {gap} is negative")
    return gap, b2, exponents


class RemainderReport(NamedTuple):
    """Division of chi0 by the restriction's chi0 at one hyperplane."""

    pivot: int
    quotient_root: int
    r: intpoly.IntPoly
    r0: int
    alternating_r: tuple[int, ...]
    chi0: intpoly.IntPoly
    chi0_restriction: intpoly.IntPoly


def _chi0(chi: intpoly.IntPoly) -> intpoly.IntPoly:
    """chi/(t - 1), for the charpoly of a nonempty arrangement."""
    return intpoly.div_rem(chi, (-1, 1))[0]


def chi0_remainder(lattice: IntersectionLattice, h: int,
                   deleted: int = 0) -> tuple[int, intpoly.IntPoly]:
    """(root, r) with chi0(A - S) = (t - root) * chi0(A^H) + r and root =
    |A - S| - |A^H|, for S the bitmask ``deleted``, read off one lattice of
    A.  A - S and A^H must be nonempty."""
    atom = lattice.atom(h)
    root = len(lattice.arrangement) - deleted.bit_count() - len(lattice.cover_classes(1, atom))
    product = intpoly.mul((-root, 1), _chi0(lattice.restriction_chi(1, atom)))
    return root, intpoly.sub(_chi0(lattice.restriction_chi(0, 0, deleted)), product)


def remainder_division(arr: Arrangement, h: int) -> RemainderReport:
    """chi0(A) = (t - (|A| - |A^H|)) * chi0(A^H) + r(t), with the remainder's
    alternating-sign coefficient view.

    The leading remainder coefficient r0 is nonnegative; a violation would
    contradict the local-global bound on b2 and is raised as an internal
    error.
    """
    ell = arr.dim
    if ell < 3:
        raise ValueError("remainder division needs ambient dimension >= 3")
    if len(arr) == 0:
        raise ValueError("remainder division needs a nonempty arrangement")
    lattice = build_lattice(arr)
    atom = lattice.atom(h)
    if not lattice.cover_classes(1, atom):
        raise ValueError("restriction is empty; chi0 is undefined")
    root, r = chi0_remainder(lattice, h)
    if intpoly.degree(r) > ell - 3:
        raise AssertionError("remainder degree exceeds dim - 3")
    alternating_r = tuple(
        (-1) ** i * intpoly.coeff(r, ell - 3 - i) for i in range(ell - 2)
    )
    r0 = alternating_r[0]
    if r0 < 0:
        raise AssertionError(f"leading remainder coefficient {r0} is negative")
    return RemainderReport(
        pivot=h,
        quotient_root=root,
        r=r,
        r0=r0,
        alternating_r=alternating_r,
        chi0=_chi0(lattice.restriction_chi(0, 0)),
        chi0_restriction=_chi0(lattice.restriction_chi(1, atom)),
    )


def b2_gap(arr: Arrangement, h: int) -> int:
    """b2 after deconing minus the Ziegler restriction's b2; zero exactly
    when the arrangement is locally free in codimension 3 along h."""
    if len(arr) == 0:
        raise ValueError("b2 gap needs a nonempty arrangement")
    if arr.dim < 3:
        raise ValueError("b2 gap needs ambient dimension >= 3")
    lattice = build_lattice(arr)
    return ziegler_gap(lattice, 0, 0, lattice.atom(h))[0]


@dataclass(frozen=True)
class Rank3FreenessReport:
    free: bool
    exponents: tuple[int, ...] | None
    witness_h: int
    gap: int
    b2_dec: int
    b2_ziegler: int


def free3_decide(arr: Arrangement) -> Rank3FreenessReport:
    """Exact freeness decision for rank-3 arrangements.

    The Ziegler restriction onto any hyperplane is a rank-2
    multiarrangement, hence free; freeness of the arrangement is then
    equivalent to the vanishing of the b2 gap at that hyperplane, and the
    exponents are 1 together with the Ziegler exponents.  The Ziegler
    restriction has one rank-2 flat, its centre, so its b2 is the product
    of its exponents.
    """
    if len(arr) == 0:
        raise ValueError("freeness decision needs a nonempty arrangement")
    lattice = build_lattice(arr)
    if len(lattice.level_sizes()) != 4:
        raise ValueError(f"expected a rank-3 arrangement, got rank {len(lattice.level_sizes()) - 1}")
    witness = 0
    gap, b2d, ((d1, d2),) = ziegler_gap(lattice, 0, 0, lattice.atom(witness))
    exponents = tuple(sorted((1, d1, d2))) if gap == 0 else None
    return Rank3FreenessReport(gap == 0, exponents, witness, gap, b2d, b2d - gap)


def local_codim3_division_check(arr: Arrangement, h: int):
    """Does chi((A^H)_Y) divide chi(A_Y) for every codimension-3 flat Y of A
    on H = H_h?  Returns (all_divide, violating flats of A^H).

    Both localizations are minors of L(A): with S the hyperplanes outside Y,
    A_Y = A - S and (A^H)_Y = (A - S)^H, so both charpolys are read off one
    lattice.  The violations come in ascending index of Y at level 3 of
    L(A), each as the flat of A^H of the restricted hyperplanes whose traces
    lie in Y."""
    if arr.dim < 3:
        raise ValueError("local division check needs ambient dimension >= 3")
    lattice = build_lattice(arr)
    atom, everything, sizes = lattice.atom(h), (1 << len(arr)) - 1, lattice.level_sizes()
    violations = []
    for index in range(sizes[3] if len(sizes) > 3 else 0):
        y = lattice.mask(3, index)
        if y >> h & 1 and not intpoly.divides(lattice.restriction_chi(1, atom, everything & ~y),
                                              lattice.restriction_chi(0, 0, everything & ~y)):
            violations.append(y)
    if not violations:
        return True, ()
    restricted, trace = restriction(arr, lattice.flat(1, atom))
    return False, tuple(Flat(restricted, 2, tuple(j for j, t in enumerate(trace) if y >> t[0] & 1))
                        for y in violations)
