"""Freeness certification by characteristic polynomial division.

A hyperplane whose restriction has a dividing characteristic polynomial
certifies freeness once the restriction itself is free; iterating down to
dimension two yields a divisional flag, a purely combinatorial freeness
certificate.  This module implements the flag search, its second-Betti-
number characterization, inductive freeness, and the rank-3 shortcuts.
The flag and IF searches share one division step, ``_dividing_covers``.
"""

from __future__ import annotations

from typing import NamedTuple

from . import intpoly
from .arrangement import Arrangement, Flat, add_hyperplane, make_arrangement
from .lattice import IntersectionLattice, build_lattice, char_data
from .multi import chi0_remainder, ziegler_gap


class DivisionalFlag(NamedTuple):
    """Chain of flats whose restriction charpolys divide consecutively.

    ``flats[i]`` has codimension i; ``charpolys[i]`` is the characteristic
    polynomial of the restriction onto ``flats[i]``.  The chain normally
    reaches codimension dim-2; it is shorter only for degenerate inputs
    whose restrictions run out of hyperplanes early.
    """

    flats: tuple[Flat, ...]
    charpolys: tuple[intpoly.IntPoly, ...]
    exponents: tuple[int, ...] | None

    def verify(self, arr: Arrangement) -> bool:
        """Check the chain on one build of L(A): each level lists, in
        increasing order, the closed member set of a flat of its codimension
        inside the previous one; the chain ends where the search ends and
        not before; and the charpolys are the restrictions' and divide
        consecutively, and the exponents are the integer roots of χ(A)."""
        lattice = build_lattice(arr)
        ids: list[tuple[int, int]] = []
        for i, flat in enumerate(self.flats):
            members = list(flat.members)
            if members != sorted(set(members)) or any(h < 0 for h in members):
                return False
            where = lattice.locate(members)
            if where is None or where[0] != i or ids and lattice.mask(*ids[-1]) & ~lattice.mask(*where):
                return False
            ids.append(where)
        if [_flag_ends(lattice, *where) for where in ids] != [False] * (len(ids) - 1) + [True]:
            return False
        polys = tuple(lattice.restriction_chi(*where) for where in ids)
        return polys == self.charpolys and self.exponents == intpoly.linear_roots(polys[0]) and all(
            intpoly.divides(polys[i + 1], polys[i]) for i in range(len(polys) - 1))


def _flag_ends(lattice: IntersectionLattice, level: int, index: int) -> bool:
    """A flag stops at X when A^X has dimension at most two or no hyperplanes."""
    return lattice.arrangement.dim - level <= 2 or not lattice.cover_classes(level, index)


def division_check(arr: Arrangement, h: int) -> bool:
    """Does the restriction's charpoly divide the full one at hyperplane h?"""
    if len(arr) == 0:
        raise ValueError("division check needs a nonempty arrangement")
    lattice = build_lattice(arr)
    return intpoly.divides(lattice.restriction_chi(1, lattice.atom(h)),
                           lattice.restriction_chi(0, 0))


def _candidates(lat: IntersectionLattice, level: int, index: int,
                deleted: int = 0) -> list[tuple[int, int]]:
    """The hyperplanes of the minor (A − S)^X, as pairs (k, |(A − S)^Y|) for
    its covers Y = levels[level + 1][k], by decreasing restriction size, then
    by min(members Y − members X − S), which is the order in which the
    restrictions and deletions that lead to the minor number them (a
    heuristic only; the searches stay exhaustive).  The covers are X | c for
    X's live classes c; disjoint, so each key is unique."""
    base, keyed = lat.mask(level, index), []
    for c in lat.cover_classes(level, index):
        present = c & ~deleted
        if present:
            k = lat.index_of(base | c)
            size = sum(1 for d in lat.cover_classes(level + 1, k) if d & ~deleted)
            keyed.append((-size, present & -present, k))
    keyed.sort()
    return [(k, -size) for size, _, k in keyed]


def _dividing_covers(lat: IntersectionLattice, level: int, index: int, deleted: int = 0):
    """The covers k of X = levels[level][index], in ``_candidates`` order, at
    which χ(M^H) divides χ(M), for M = (A − S)^X, S the bitmask ``deleted``
    and H the hyperplane of M at Y = levels[level + 1][k].  As χ(M − H) =
    χ(M) + χ(M^H) (Orlik–Terao, Thm 2.56), that is the IF search's test too.
    The quotient is t − (|M| − |M^H|), so a cover at which χ(M) has no such
    root is skipped before its Weisner walk."""
    chi = lat.restriction_chi(level, index, deleted)
    candidates = _candidates(lat, level, index, deleted)
    for k, size in candidates:
        if not intpoly.eval_at(chi, len(candidates) - size) and intpoly.divides(
                lat.restriction_chi(level + 1, k, deleted), chi):
            yield k


class _FlagSearch:
    """Divisional-flag search on the intervals of one lattice, memoized by
    the member mask of each flat."""

    def __init__(self, lattice: IntersectionLattice):
        self.lattice = lattice
        self.memo: dict[int, tuple[tuple[int, int], ...] | None] = {}

    def search(self, level: int, index: int):
        """Chain of (level, index) flats below X = levels[level][index] with
        consecutively dividing charpolys, or None when A^X has no divisional
        flag."""
        lat = self.lattice
        if _flag_ends(lat, level, index):
            return ()
        base = lat.mask(level, index)
        if base not in self.memo:
            self.memo[base] = None
            for k in _dividing_covers(lat, level, index):
                tail = self.search(level + 1, k)
                if tail is not None:
                    self.memo[base] = ((level + 1, k),) + tail
                    break
        return self.memo[base]


def divisional_flag_search(arr: Arrangement) -> DivisionalFlag | None:
    """Exhaustive memoized search for a divisional flag; None means the
    arrangement is not divisionally free."""
    lattice = build_lattice(arr)
    chain = _FlagSearch(lattice).search(0, 0)
    if chain is None:
        return None
    ids = ((0, 0),) + chain
    charpolys = tuple(lattice.restriction_chi(*where) for where in ids)
    flats = tuple(lattice.flat(*where) for where in ids)
    return DivisionalFlag(flats, charpolys, intpoly.linear_roots(charpolys[0]))


def _flag_flats(arr: Arrangement, flag) -> tuple[Flat, ...]:
    flats = tuple(flag.flats) if isinstance(flag, DivisionalFlag) else tuple(flag)
    if not flats:
        raise ValueError("empty flag")
    for i, flat in enumerate(flats):
        if flat.parent != arr:
            raise ValueError("flag flat belongs to a different arrangement")
        if flat.codim != i:
            raise ValueError(f"flag flat {i} has codimension {flat.codim}")
        if i > 0 and not set(flats[i - 1].members) <= set(flat.members):
            raise ValueError("flag flats are not nested")
    return flats


def flag_b2_bound(arr: Arrangement, flag) -> tuple[int, int]:
    """Both sides of the flag inequality: b2 after deconing against the
    telescoping sum of restriction sizes along the flag."""
    flats = _flag_flats(arr, flag)
    lattice = build_lattice(arr)
    where = [lattice.locate(flat.members) for flat in flats]
    if None in where:
        raise ValueError("flag member lists must be closed")
    for i, (level, _) in enumerate(where):
        if level != i:
            raise ValueError(f"flag flat {i} has the members of a flat of codimension {level}")
    sizes = [len(lattice.cover_classes(level, index)) for level, index in where]
    rhs = 0
    for i in range(len(flats) - 1):
        rhs += (sizes[i] - sizes[i + 1]) * (sizes[i + 1] - 1)
    lhs = char_data(arr, lattice).b2_dec
    if lhs < rhs:
        raise AssertionError(f"flag inequality violated: {lhs} < {rhs}")
    return lhs, rhs


def df_via_b2(arr: Arrangement, flag) -> bool:
    """Second-Betti-number test: the flag certifies divisional freeness
    exactly when the flag inequality is an equality."""
    flats = _flag_flats(arr, flag)
    if len(flats) != max(arr.dim - 1, 1):
        raise ValueError("flag must reach codimension dim - 2")
    lhs, rhs = flag_b2_bound(arr, flats)
    return lhs == rhs


class IFStep(NamedTuple):
    covector: tuple
    restriction_chi: intpoly.IntPoly


class IFCertificate(NamedTuple):
    """Addition order from the empty arrangement with the restriction
    charpoly of every step, whose division is checked in the ambient dimension."""

    field: object
    dim: int
    steps: tuple[IFStep, ...]

    def verify(self, target: Arrangement) -> bool:
        """Check the steps on one build of L(A): they add the target's
        hyperplanes over its field and dimension, and each step on H is
        χ((A − S)^H), S the hyperplanes added later, and in dimension 3 or
        more divides the charpoly before the step.  That charpoly is kept
        from t^ℓ, at S = A, by deletion–restriction: adding H subtracts
        χ((A − S)^H)."""
        added = make_arrangement(self.field, self.dim, [step.covector for step in self.steps])
        if (self.field, self.dim, sorted(added.hyperplanes)) != (
                target.field, target.dim, sorted(target.hyperplanes)):
            return False
        lattice = build_lattice(target)
        index = {cov: h for h, cov in enumerate(target.hyperplanes)}
        deleted, chi = (1 << len(target)) - 1, intpoly.poly([0] * self.dim + [1])
        for cov, step in zip(added.hyperplanes, self.steps):
            h = index[cov]
            deleted &= ~(1 << h)
            chi_res = lattice.restriction_chi(1, lattice.atom(h), deleted)
            if chi_res != step.restriction_chi or self.dim >= 3 and not intpoly.divides(chi_res, chi):
                return False
            chi = intpoly.sub(chi, chi_res)
        return True


NOT_IF = "refuted"
IF_CERTIFIED = "certified"
IF_EXHAUSTED = "exhausted"


class IFResult(NamedTuple):
    status: str
    certificate: IFCertificate | None
    nodes: int


_EXHAUSTED = object()


class _IFSearch:
    """Addition–deletion search on the minors (A − S)^X of one lattice, for a
    flat X and a bitmask S of deleted hyperplanes of A.  The hyperplanes of
    the minor are the covers Y of X with a member outside X and S: restricting
    to Y moves X to Y, and deleting Y adds its members outside X to S.  The
    deletion's charpoly is read off the minor's and the restriction's, which
    the search already holds (``IntersectionLattice.deletion_chi``)."""

    def __init__(self, lattice: IntersectionLattice, budget: int):
        self.lattice = lattice
        self.memo: dict[tuple[int, int], tuple[bool, int | None]] = {}
        self.budget = budget
        self.nodes = 0  # nodes expanded, each counted against the budget

    def trivial(self, level: int, index: int, deleted: int) -> bool:
        """Has the minor rank at most two?  Its rank is its dimension less the
        lowest degree of its charpoly."""
        chi = self.lattice.restriction_chi(level, index, deleted)
        return self.lattice.arrangement.dim - level - next(i for i, c in enumerate(chi) if c) <= 2

    def search(self, level: int, index: int, deleted: int):
        """True/False verdict or the exhaustion sentinel.  The winning cover
        is memoized per minor for certificate replay."""
        if self.trivial(level, index, deleted):
            return True
        lat = self.lattice
        base = lat.mask(level, index)
        key = (base, lat.deleted_classes(level, index, deleted))
        if key in self.memo:
            return self.memo[key][0]
        self.nodes += 1
        if self.nodes > self.budget:
            return _EXHAUSTED
        exhausted = False
        for k in _dividing_covers(lat, level, index, deleted):
            sub = self.search(level + 1, k, deleted)
            if sub is _EXHAUSTED:
                exhausted = True
                continue
            if sub is not True:
                continue
            # cache χ(M − H) where the deletion's minor looks it up: no walk
            lat.deletion_chi(level, index, deleted, k)
            sub = self.search(level, index, deleted | lat.mask(level + 1, k) & ~base)
            if sub is _EXHAUSTED:
                exhausted = True
                continue
            if sub is True:
                self.memo[key] = (True, k)
                return True
        if exhausted:
            return _EXHAUSTED
        self.memo[key] = (False, None)
        return False


def inductively_free(arr: Arrangement, budget: int = 200_000) -> IFResult:
    """Search for an inductive-freeness certificate.

    Refutation is exhaustive over the reachable deletion tree; a budget on
    search nodes separates a true refutation from an aborted search.  The
    certificate adds back in reverse the memoized deletions down to rank two
    and then the rest by decreasing index.
    """
    lattice = build_lattice(arr)
    search = _IFSearch(lattice, budget)
    verdict = search.search(0, 0, 0)
    if verdict is _EXHAUSTED:
        return IFResult(IF_EXHAUSTED, None, search.nodes)
    if verdict is False:
        return IFResult(NOT_IF, None, search.nodes)
    steps: list[IFStep] = []
    full, deleted = (1 << len(arr)) - 1, 0
    while deleted != full:
        if search.trivial(0, 0, deleted):
            h = (full & ~deleted).bit_length() - 1
        else:
            h = lattice.mask(1, search.memo[0, deleted][1]).bit_length() - 1
        steps.append(IFStep(arr.hyperplanes[h], lattice.restriction_chi(1, lattice.atom(h), deleted)))
        deleted |= 1 << h
    steps.reverse()
    return IFResult(IF_CERTIFIED, IFCertificate(arr.field, arr.dim, tuple(steps)), search.nodes)


def hereditarily_df(arr: Arrangement):
    """Divisional flag search on the restriction to every positive-
    dimensional flat, one search over the intervals of L(A); returns
    (all_pass, failing flats)."""
    lattice = build_lattice(arr)
    search = _FlagSearch(lattice)
    failing = tuple(lattice.flat(level, index)
                    for level, size in enumerate(lattice.level_sizes()[:arr.dim])
                    for index in range(size) if search.search(level, index) is None)
    return (not failing, failing)


class Rank3Conditions(NamedTuple):
    chi_splits: bool
    deleted_chi_matches: bool
    restriction_size_matches: bool


def _rank3_lattice(arr: Arrangement, h: int, error: str) -> tuple[IntersectionLattice, int]:
    lattice = build_lattice(arr)
    if len(lattice.level_sizes()) != 4:
        raise ValueError(error)
    return lattice, lattice.atom(h)


def rank3_triple_conditions(arr: Arrangement, h: int, d1: int, d2: int) -> Rank3Conditions:
    """The three interchangeable rank-3 conditions tying the triple's
    charpolys and the restriction size to candidate exponents (d1, d2).  The
    charpolys are those of the essential arrangements: t^(dim−3) is shifted
    out of χ(A) and χ(A')."""
    lattice, atom = _rank3_lattice(arr, h, "rank-3 conditions need a rank-3 arrangement")
    extra = arr.dim - 3
    return Rank3Conditions(
        chi_splits=lattice.restriction_chi(0, 0)[extra:] == intpoly.from_roots([1, d1, d2]),
        deleted_chi_matches=(lattice.deletion_chi(0, 0, 0, atom)[extra:]
                             == intpoly.from_roots([1, d1, d2 - 1])),
        restriction_size_matches=len(lattice.cover_classes(1, atom)) == d1 + 1,
    )


def rank3_division_remainder(arr: Arrangement, h: int) -> int:
    """The remainder of dividing chi0 by the restriction's chi0 at rank
    3: chi0 of the essential arrangement evaluated at |A^H| - 1.
    Nonnegative; zero certifies freeness.  At rank 3 the remainder r of
    ``chi0_remainder`` is t^(dim−3)·(b − (|A| − |A^H|)(|A^H| − 1)), b the
    deconed b2, and this is its one coefficient."""
    lattice, _ = _rank3_lattice(arr, h, "rank-3 remainder needs a rank-3 arrangement")
    a = intpoly.coeff(chi0_remainder(lattice, h)[1], arr.dim - 3)
    if a < 0:
        raise AssertionError(f"rank-3 remainder {a} is negative")
    return a


def division_addition_check(arr: Arrangement, covector) -> bool:
    """Add the hyperplane, restrict onto it, and test division against the
    original charpoly; a dividing free restriction certifies freeness of
    the original arrangement."""
    extended = add_hyperplane(arr, covector)
    lattice = build_lattice(extended)
    atom = lattice.atom(len(arr))
    return intpoly.divides(lattice.restriction_chi(1, atom), lattice.deletion_chi(0, 0, 0, atom))


class EquivalenceReport(NamedTuple):
    """The five combinatorial division conditions at one hyperplane.

    When the restriction is free they are all equivalent; hypothesis
    failure (a non-free restriction) is the only way they may disagree.
    """

    divides_full: bool
    divides_deleted: bool
    gcd_degree_full: bool
    remainder_zero: bool
    deleted_remainder_zero: bool
    restriction_certified_free: bool | None

    def all_conditions(self) -> tuple[bool, bool, bool, bool, bool]:
        return (
            self.divides_full,
            self.divides_deleted,
            self.gcd_degree_full,
            self.remainder_zero,
            self.deleted_remainder_zero,
        )


def division_equivalences(arr: Arrangement, h: int) -> EquivalenceReport:
    if len(arr) == 0:
        raise ValueError("division equivalences need a nonempty arrangement")
    ell = arr.dim
    lattice = build_lattice(arr)
    atom = lattice.atom(h)
    n_res = len(lattice.cover_classes(1, atom))  # |A^H|
    chi = lattice.restriction_chi(0, 0)
    chi_res = lattice.restriction_chi(1, atom)
    chi_del = lattice.deletion_chi(0, 0, 0, atom)
    cond4 = intpoly.divides(chi_res, chi)
    cond5 = intpoly.divides(chi_res, chi_del)
    cond6 = intpoly.degree(intpoly.gcd_monic(chi, chi_del)) == ell - 1
    if n_res == 0:
        cond7 = cond4
        cond8 = cond5
    else:
        cond7 = intpoly.coeff(chi0_remainder(lattice, h)[1], ell - 3) == 0
        cond8 = intpoly.coeff(chi0_remainder(lattice, h, 1 << h)[1], ell - 3) == 0
    res_rank = len(lattice.level_sizes()) - 2  # the interval above H_h
    # A^H of rank <= 2 is free, one of rank 3 exactly when its b2 gap at
    # its least-index hyperplane is 0
    certified = True if res_rank <= 2 else None
    if res_rank == 3:
        k = min(lattice.index_of(1 << h | c) for c in lattice.cover_classes(1, atom))
        certified = ziegler_gap(lattice, 1, atom, k)[0] == 0
    report = EquivalenceReport(cond4, cond5, cond6, cond7, cond8, certified)
    if certified:
        conditions = report.all_conditions()
        if any(conditions) != all(conditions):
            raise AssertionError(
                "division conditions disagree although the restriction is free"
            )
    return report
