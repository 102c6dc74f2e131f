"""Multiarrangement machinery: Ziegler restrictions, exact exponents of
rank-2 multiarrangements, the local-global second Betti number, remainder
divisions, and the exact rank-3 freeness decision.

Rank-2 exponents are the workhorse.  When the total multiplicity is small
(|m| <= 2|A| - 1) they are given by a closed form.  Otherwise a rank-2
multiarrangement is free (Ziegler), so the dimension of one kernel of the
exact linear system for derivations, at degree ceil(|m|/2) - 1, gives both
exponents; a generator is then solved at each exponent degree and the pair
is certified by the Saito determinant condition.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import intpoly
from .arrangement import (
    Arrangement,
    essentialize,
    flat_from_members,
    localization,
    rank_of,
    restrict_to_hyperplane,
)
from .exactalg import Field, extend_rref, kernel_basis, matrix, normalize_covector, _rref_rows
from .lattice import build_lattice, char_data, rank2_flats


@dataclass(frozen=True)
class Multiplicity:
    """Positive integer multiplicity per hyperplane index."""

    values: tuple[int, ...]

    def __post_init__(self):
        if any(v < 1 for v in self.values):
            raise ValueError("multiplicities must be positive")

    @property
    def total(self) -> int:
        return sum(self.values)

    def bump(self, h: int, delta: int) -> "Multiplicity":
        vals = list(self.values)
        vals[h] += delta
        return Multiplicity(tuple(vals))


@dataclass(frozen=True)
class MultiArrangement:
    base: Arrangement
    mult: Multiplicity

    def __post_init__(self):
        if len(self.mult.values) != len(self.base):
            raise ValueError("multiplicity size does not match the arrangement")


def constant_multiplicity(arr: Arrangement, value: int = 1) -> MultiArrangement:
    return MultiArrangement(arr, Multiplicity((value,) * len(arr)))


@dataclass(frozen=True)
class Exponents2:
    d1: int
    d2: int

    def __iter__(self):
        return iter((self.d1, self.d2))

    def as_multiset(self) -> tuple[int, int]:
        return (self.d1, self.d2)


def ziegler_restriction(arr: Arrangement, h: int) -> MultiArrangement:
    """Restriction onto hyperplane h with collapse counts as multiplicities."""
    if arr.dim < 2:
        raise ValueError("Ziegler restriction needs ambient dimension >= 2")
    restricted, trace = restrict_to_hyperplane(arr, h)
    mult = Multiplicity(tuple(len(t) for t in trace))
    return MultiArrangement(restricted, mult)


def _two_coordinates(arr: Arrangement) -> list[tuple]:
    """Essentialize a rank-2 arrangement to two canonical coordinates."""
    rows, pivots = _rref_rows(arr.field, arr.hyperplanes)
    if len(pivots) != 2:
        raise ValueError(f"expected a rank-2 arrangement, got rank {len(pivots)}")
    return [normalize_covector(arr.field, (cov[pivots[0]], cov[pivots[1]])) for cov in arr.hyperplanes]


def _monomial_rem_table(field: Field, root: object, m: int, d: int):
    """t^i mod (t + root)^m for i = 0..d, as length-m coefficient rows."""
    g = [field.one]
    for _ in range(m):
        # multiply by (t + root)
        nxt = [field.zero] * (len(g) + 1)
        for i, c in enumerate(g):
            nxt[i + 1] = field.add(nxt[i + 1], c)
            nxt[i] = field.add(nxt[i], field.mul(root, c))
        g = nxt
    table = []
    cur = [field.zero] * m
    cur[0] = field.one
    table.append(tuple(cur))
    for _ in range(d):
        shifted = [field.zero] + cur[: m - 1]
        overflow = cur[m - 1]
        if overflow != field.zero:
            # t^m = -(g - t^m) modulo g, g monic of degree m
            shifted = [field.sub(shifted[j], field.mul(overflow, g[j])) for j in range(m)]
        cur = shifted
        table.append(tuple(cur))
    return table


def _derivation_kernel(field: Field, pairs, mults, d):
    """Kernel of the degree-d containment conditions for derivations (P, Q).

    A derivation sends the defining form a*x + b*y to F = a*P + b*Q; the
    condition is divisibility of F by (a*x + b*y)^m, expressed as linear
    constraints on the 2(d+1) coefficients of P and Q.
    """
    ncols = 2 * (d + 1)
    rows = []
    for (a, b), m in zip(pairs, mults):
        if a == field.zero:
            # divisibility by y^m: the first m coefficients of F vanish
            # (all of them when m exceeds the degree, i.e. F = 0)
            for i in range(min(m, d + 1)):
                row = [field.zero] * ncols
                row[i] = a
                row[d + 1 + i] = b
                rows.append(row)
        else:
            # dehomogenize at y = 1: f(t) = sum_i F_i t^(d-i); reduce mod (t + b/a)^m
            root = field.mul(field.inv(a), b)
            if m > d + 1:
                for i in range(d + 1):
                    row = [field.zero] * ncols
                    row[i] = a
                    row[d + 1 + i] = b
                    rows.append(row)
                continue
            table = _monomial_rem_table(field, root, m, d)
            for j in range(m):
                row = [field.zero] * ncols
                for i in range(d + 1):
                    w = table[d - i][j]
                    if w != field.zero:
                        row[i] = field.mul(a, w)
                        row[d + 1 + i] = field.mul(b, w)
                rows.append(row)
    if not rows:
        rows = [[field.zero] * ncols]
    return kernel_basis(matrix(field, rows, ncols))


def _form_mul(field: Field, f, g):
    out = [field.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a != field.zero:
            for j, b in enumerate(g):
                if b != field.zero:
                    out[i + j] = field.add(out[i + j], field.mul(a, b))
    return out


def _saito_check(field: Field, theta1, d1, theta2, d2, pairs, mults) -> bool:
    """Determinant of the two derivations equals a nonzero constant times
    the product of the defining forms with multiplicity."""
    p1, q1 = theta1[: d1 + 1], theta1[d1 + 1:]
    p2, q2 = theta2[: d2 + 1], theta2[d2 + 1:]
    det = [field.sub(a, b) for a, b in zip(_form_mul(field, p1, q2), _form_mul(field, q1, p2))]
    target = [field.one]
    for (a, b), m in zip(pairs, mults):
        form = [a, b]
        for _ in range(m):
            target = _form_mul(field, target, form)
    if len(det) < len(target):
        det = det + [field.zero] * (len(target) - len(det))
    lead = None
    for i, c in enumerate(target):
        if c != field.zero:
            lead = i
            break
    if lead is None or det[lead] == field.zero:
        return False
    ratio = field.mul(det[lead], field.inv(target[lead]))
    scaled = [field.mul(ratio, c) for c in target]
    return scaled == det


def exp2(ma: MultiArrangement) -> Exponents2:
    """Exact exponents of a rank-2 multiarrangement.

    Fast path: when |m| <= 2|A| - 1 the exponents are
    (|m| - |A| + 1, |A| - 1).  Otherwise one kernel count settles them: the
    multiarrangement is free with d1 <= d2 and d1 + d2 = |m|, so at
    d = ceil(|m|/2) - 1 < d2 the kernel has dimension k = max(0, d - d1 + 1);
    k > 0 gives d1 = d - k + 1, and k = 0 gives d1 = d2 = |m|/2.  The first
    generator is the first kernel vector at d1, the second the first kernel
    vector at d2 independent of the polynomial multiples of the first, and
    the pair is certified by the Saito determinant condition.
    """
    arr = ma.base
    field = arr.field
    n = len(arr)
    mults = ma.mult.values
    total = ma.mult.total
    pairs = _two_coordinates(arr)
    if total <= 2 * n - 1:
        lo, hi = sorted((total - n + 1, n - 1))
        return Exponents2(lo, hi)

    d = (total + 1) // 2 - 1
    kernel = _derivation_kernel(field, pairs, mults, d)
    if kernel:
        d1 = d - len(kernel) + 1
    elif total % 2:
        raise AssertionError(
            f"no derivation of degree {d} below the odd total multiplicity {total}"
        )
    else:
        d1 = total // 2
    d2 = total - d1
    if d1 != d:
        kernel = _derivation_kernel(field, pairs, mults, d1)
    theta1 = kernel[0]
    if d2 != d1:
        kernel = _derivation_kernel(field, pairs, mults, d2)
    theta2 = _independent_second(field, theta1, d1, kernel, d2)
    return _finish_exp2(field, theta1, d1, theta2, d2, pairs, mults, total)


def _shift_theta(field: Field, theta, d_from: int, d_to: int, offset: int):
    """Multiply the derivation (P, Q) by x^(d_to-d_from-offset) * y^offset."""
    p, q = theta[: d_from + 1], theta[d_from + 1:]
    width = d_to + 1
    new_p = [field.zero] * width
    new_q = [field.zero] * width
    for i in range(d_from + 1):
        new_p[i + offset] = p[i]
        new_q[i + offset] = q[i]
    return tuple(new_p) + tuple(new_q)


def _independent_second(field: Field, theta1, d1, kernel, d):
    multiples = [_shift_theta(field, theta1, d1, d, off) for off in range(d - d1 + 1)]
    span_rows, span_pivots = _rref_rows(field, multiples)
    for vec in kernel:
        if extend_rref(field, span_rows, span_pivots, vec) is not None:
            return vec
    return None


def _finish_exp2(field, theta1, d1, theta2, d2, pairs, mults, total) -> Exponents2:
    if d1 + d2 != total:
        raise AssertionError(
            f"exponent degrees {d1}+{d2} do not sum to the total multiplicity {total}"
        )
    if not _saito_check(field, theta1, d1, theta2, d2, pairs, mults):
        raise AssertionError("Saito determinant condition failed for the computed basis")
    lo, hi = sorted((d1, d2))
    return Exponents2(lo, hi)


def euler_mult_rank2(ma: MultiArrangement, h: int) -> int:
    """Euler multiplicity at the center of a rank-2 multiarrangement: the
    exponent shared between the multiplicity and its drop at h."""
    if ma.mult.values[h] < 2:
        raise ValueError("Euler multiplicity step needs multiplicity at least 2")
    e = exp2(ma).as_multiset()
    e_drop = exp2(MultiArrangement(ma.base, ma.mult.bump(h, -1))).as_multiset()
    shared = _multiset_intersection(e, e_drop)
    if len(shared) != 1:
        raise AssertionError(
            f"exponent pairs {e} and {e_drop} do not differ in exactly one place"
        )
    return shared[0]


def _multiset_intersection(a, b) -> tuple[int, ...]:
    out = []
    rest = list(b)
    for x in a:
        if x in rest:
            rest.remove(x)
            out.append(x)
    return tuple(out)


def b2_multi(ma: MultiArrangement) -> int:
    """Second Betti number of a multiarrangement via the local-global
    formula: the sum of exponent products over the codimension-2 flats."""
    base = ma.base
    total = 0
    for flat in rank2_flats(base):
        local = localization(base, flat)
        local_mult = Multiplicity(tuple(ma.mult.values[h] for h in flat.members))
        d1, d2 = exp2(MultiArrangement(local, local_mult))
        total += d1 * d2
    return total


@dataclass(frozen=True)
class RemainderReport:
    """Division of chi0 by the restriction's chi0 at one hyperplane."""

    pivot: int
    quotient_root: int
    r: intpoly.IntPoly
    r0: int
    alternating_r: tuple[int, ...]
    chi0: intpoly.IntPoly
    chi0_restriction: intpoly.IntPoly


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
    if not lattice.covers[1][atom]:
        raise ValueError("restriction is empty; chi0 is undefined")
    chi0 = char_data(arr, lattice).chi0
    chi0_res = intpoly.div_rem(lattice.restriction_chi(1, atom), (-1, 1))[0]
    root = len(arr) - len(lattice.covers[1][atom])
    product = intpoly.mul((-root, 1), chi0_res)
    r = intpoly.sub(chi0, product)
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
        chi0=chi0,
        chi0_restriction=chi0_res,
    )


def b2_gap(arr: Arrangement, h: int) -> int:
    """b2 after deconing minus the Ziegler restriction's b2; zero exactly
    when the arrangement is locally free in codimension 3 along h."""
    if len(arr) == 0:
        raise ValueError("b2 gap needs a nonempty arrangement")
    if arr.dim < 3:
        raise ValueError("b2 gap needs ambient dimension >= 3")
    gap = char_data(arr).b2_dec - b2_multi(ziegler_restriction(arr, h))
    if gap < 0:
        raise AssertionError(f"b2 gap {gap} is negative")
    return gap


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
    exponents are 1 together with the Ziegler exponents.
    """
    if len(arr) == 0:
        raise ValueError("freeness decision needs a nonempty arrangement")
    if rank_of(arr) != 3:
        raise ValueError(f"expected a rank-3 arrangement, got rank {rank_of(arr)}")
    ess = essentialize(arr)
    witness = 0
    ziegler = ziegler_restriction(ess, witness)
    b2z = b2_multi(ziegler)
    b2d = char_data(ess).b2_dec
    gap = b2d - b2z
    if gap < 0:
        raise AssertionError(f"b2 gap {gap} is negative")
    if gap != 0:
        return Rank3FreenessReport(False, None, witness, gap, b2d, b2z)
    d1, d2 = exp2(ziegler)
    return Rank3FreenessReport(True, tuple(sorted((1, d1, d2))), witness, 0, b2d, b2z)


def local_codim3_division_check(arr: Arrangement, h: int):
    """Check the restriction's chi against the full chi on every rank-3
    localization along h; returns (all_divide, violating flats of A^H)."""
    if arr.dim < 3:
        raise ValueError("local division check needs ambient dimension >= 3")
    restricted, trace = restrict_to_hyperplane(arr, h)
    violations = []
    for flat in rank2_flats(restricted):
        members_in_arr = {h}
        for j in flat.members:
            members_in_arr.update(trace[j])
        local_full = localization(arr, flat_from_members(arr, members_in_arr))
        local_res = localization(restricted, flat)
        chi_full = char_data(local_full).chi
        chi_res = char_data(local_res).chi
        if not intpoly.divides(chi_res, chi_full):
            violations.append(flat)
    return (not violations, tuple(violations))
