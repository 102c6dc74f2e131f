"""Freeness certification by characteristic polynomial division.

A hyperplane whose restriction has a dividing characteristic polynomial
certifies freeness once the restriction itself is free; iterating down to
dimension two yields a divisional flag, a purely combinatorial freeness
certificate.  This module implements the flag search, its second-Betti-
number characterization, inductive freeness, and the rank-3 shortcuts.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import intpoly
from .arrangement import (
    Arrangement,
    Flat,
    add_hyperplane,
    canonical_key,
    deletion,
    essentialize,
    rank_of,
    restrict_to_hyperplane,
)
from .lattice import IntersectionLattice, build_lattice, char_data
from .multi import free3_decide


@dataclass(frozen=True)
class DivisionalFlag:
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
        consecutively."""
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
        return polys == self.charpolys and all(
            intpoly.divides(polys[i + 1], polys[i]) for i in range(len(polys) - 1))


def _flag_ends(lattice: IntersectionLattice, level: int, index: int) -> bool:
    """A flag stops at X when A^X has dimension at most two or no hyperplanes."""
    return lattice.arrangement.dim - level <= 2 or not lattice.covers[level][index]


class _ChiCache:
    """Characteristic polynomials memoized on structural arrangement keys."""

    def __init__(self):
        self._store = {}

    def chi(self, arr: Arrangement) -> intpoly.IntPoly:
        key = canonical_key(arr)
        val = self._store.get(key)
        if val is None:
            val = char_data(arr).chi
            self._store[key] = val
        return val


def division_check(arr: Arrangement, h: int) -> bool:
    """Does the restriction's charpoly divide the full one at hyperplane h?"""
    if len(arr) == 0:
        raise ValueError("division check needs a nonempty arrangement")
    restricted, _ = restrict_to_hyperplane(arr, h)
    return intpoly.divides(char_data(restricted).chi, char_data(arr).chi)


def _ordered_hyperplanes(arr: Arrangement):
    """Candidates in decreasing restriction size (a search heuristic only;
    the search stays exhaustive), ties by index."""
    sized = []
    for h in range(len(arr)):
        restricted, _ = restrict_to_hyperplane(arr, h)
        sized.append((-len(restricted), h, restricted))
    sized.sort(key=lambda t: (t[0], t[1]))
    return [(h, restricted) for _, h, restricted in sized]


class _FlagSearch:
    """Divisional-flag search on the intervals of one lattice, memoized by
    the member mask of each flat."""

    def __init__(self, lattice: IntersectionLattice):
        self.lattice = lattice
        self.memo: dict[int, tuple[tuple[int, int], ...] | None] = {}

    def search(self, level: int, index: int):
        """Chain of (level, index) flats below X = levels[level][index] with
        consecutively dividing charpolys, or None when A^X has no divisional
        flag.  Candidates are the covers Y of X by decreasing |A^Y|, then by
        min(members Y − members X), which is the order in which
        ``restriction`` numbers the hyperplanes of A^X (a heuristic only; the
        search stays exhaustive)."""
        lat = self.lattice
        if _flag_ends(lat, level, index):
            return ()
        base = lat.mask(level, index)
        if base not in self.memo:
            chi = lat.restriction_chi(level, index)

            def order(k):
                new = lat.mask(level + 1, k) & ~base
                return -len(lat.covers[level + 1][k]), new & -new

            self.memo[base] = None
            for k in sorted(lat.covers[level][index], key=order):
                if intpoly.divides(lat.restriction_chi(level + 1, k), chi):
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
    flats = tuple(lattice.levels[level][index] for level, index in ids)
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
    sizes = [len(lattice.covers[level][index]) for level, index in where]
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


@dataclass(frozen=True)
class IFStep:
    covector: tuple
    restriction_chi: intpoly.IntPoly


@dataclass(frozen=True)
class IFCertificate:
    """Addition order from the empty arrangement with the division checked
    at every step (in the ambient dimension; lower levels are re-searched
    on verification)."""

    field: object
    dim: int
    steps: tuple[IFStep, ...]

    def verify(self, target: Arrangement) -> bool:
        from .arrangement import make_arrangement

        covs: list[tuple] = []
        prev_chi = None
        for step in self.steps:
            prev = make_arrangement(self.field, self.dim, covs) if covs else None
            covs.append(step.covector)
            current = make_arrangement(self.field, self.dim, covs)
            h = len(covs) - 1
            restricted, _ = restrict_to_hyperplane(current, h)
            chi_res = char_data(restricted).chi
            if chi_res != step.restriction_chi:
                return False
            if self.dim >= 3:
                chi_prev = char_data(prev).chi if prev is not None else intpoly.poly(
                    [0] * self.dim + [1]
                )
                if not intpoly.divides(chi_res, chi_prev):
                    return False
        final = make_arrangement(self.field, self.dim, covs)
        return sorted(final.hyperplanes) == sorted(target.hyperplanes)


NOT_IF = "refuted"
IF_CERTIFIED = "certified"
IF_EXHAUSTED = "exhausted"


@dataclass
class IFResult:
    status: str
    certificate: IFCertificate | None
    nodes: int


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self) -> bool:
        self.used += 1
        return self.used <= self.limit


_EXHAUSTED = object()


class _IFSearch:
    def __init__(self, budget: int):
        self.cache = _ChiCache()
        self.memo: dict[tuple, tuple[bool, tuple | None]] = {}
        self.budget = _Budget(budget)

    def search(self, arr: Arrangement):
        """True/False verdict or the exhaustion sentinel.  A winning
        hyperplane covector is memoized per key for certificate replay."""
        if len(arr) == 0 or arr.dim <= 2 or rank_of(arr) <= 2:
            return True
        key = canonical_key(arr)
        if key in self.memo:
            return self.memo[key][0]
        if not self.budget.spend():
            return _EXHAUSTED
        exhausted = False
        for h, restricted in _ordered_hyperplanes(arr):
            deleted = deletion(arr, h)
            if not intpoly.divides(self.cache.chi(restricted), self.cache.chi(deleted)):
                continue
            sub = self.search(restricted)
            if sub is _EXHAUSTED:
                exhausted = True
                continue
            if sub is not True:
                continue
            sub = self.search(deleted)
            if sub is _EXHAUSTED:
                exhausted = True
                continue
            if sub is True:
                self.memo[key] = (True, arr.hyperplanes[h])
                return True
        if exhausted:
            return _EXHAUSTED
        self.memo[key] = (False, None)
        return False


def inductively_free(arr: Arrangement, budget: int = 200_000) -> IFResult:
    """Search for an inductive-freeness certificate.

    Refutation is exhaustive over the reachable deletion tree; a budget on
    search nodes separates a true refutation from an aborted search.
    """
    search = _IFSearch(budget)
    verdict = search.search(arr)
    if verdict is _EXHAUSTED:
        return IFResult(IF_EXHAUSTED, None, search.budget.used)
    if verdict is False:
        return IFResult(NOT_IF, None, search.budget.used)
    steps: list[IFStep] = []
    current = arr
    while len(current) > 0 and current.dim >= 3 and rank_of(current) > 2:
        key = canonical_key(current)
        _, covector = search.memo[key]
        h = current.hyperplanes.index(covector)
        restricted, _ = restrict_to_hyperplane(current, h)
        steps.append(IFStep(covector, search.cache.chi(restricted)))
        current = deletion(current, h)
    for h in range(len(current) - 1, -1, -1):
        restricted, _ = (
            restrict_to_hyperplane(current, h) if current.dim >= 2 else (None, None)
        )
        chi_res = search.cache.chi(restricted) if restricted is not None else intpoly.ONE
        steps.append(IFStep(current.hyperplanes[h], chi_res))
        current = deletion(current, h)
    steps.reverse()
    return IFResult(IF_CERTIFIED, IFCertificate(arr.field, arr.dim, tuple(steps)), search.budget.used)


def hereditarily_df(arr: Arrangement):
    """Divisional flag search on the restriction to every positive-
    dimensional flat, one search over the intervals of L(A); returns
    (all_pass, failing flats)."""
    lattice = build_lattice(arr)
    search = _FlagSearch(lattice)
    failing = tuple(flat for level, flats in enumerate(lattice.levels[:arr.dim])
                    for index, flat in enumerate(flats) if search.search(level, index) is None)
    return (not failing, failing)


@dataclass(frozen=True)
class Rank3Conditions:
    chi_splits: bool
    deleted_chi_matches: bool
    restriction_size_matches: bool


def rank3_triple_conditions(arr: Arrangement, h: int, d1: int, d2: int) -> Rank3Conditions:
    """The three interchangeable rank-3 conditions tying the triple's
    charpolys and the restriction size to candidate exponents (d1, d2)."""
    if rank_of(arr) != 3:
        raise ValueError("rank-3 conditions need a rank-3 arrangement")
    ess = essentialize(arr)
    chi = char_data(ess).chi
    chi_deleted = char_data(deletion(ess, h)).chi
    restricted, _ = restrict_to_hyperplane(ess, h)
    return Rank3Conditions(
        chi_splits=(chi == intpoly.from_roots([1, d1, d2])),
        deleted_chi_matches=(chi_deleted == intpoly.from_roots([1, d1, d2 - 1])),
        restriction_size_matches=(len(restricted) == d1 + 1),
    )


def rank3_division_remainder(arr: Arrangement, h: int) -> int:
    """Scalar remainder of dividing chi0 by the restriction's chi0 at rank
    3: chi0 evaluated at |A^H| - 1.  Nonnegative; zero certifies freeness."""
    if rank_of(arr) != 3:
        raise ValueError("rank-3 remainder needs a rank-3 arrangement")
    ess = essentialize(arr)
    restricted, _ = restrict_to_hyperplane(ess, h)
    a = intpoly.eval_at(char_data(ess).chi0, len(restricted) - 1)
    if a < 0:
        raise AssertionError(f"rank-3 remainder {a} is negative")
    return a


def division_addition_check(arr: Arrangement, covector) -> bool:
    """Add the hyperplane, restrict onto it, and test division against the
    original charpoly; a dividing free restriction certifies freeness of
    the original arrangement."""
    extended = add_hyperplane(arr, covector)
    restricted, _ = restrict_to_hyperplane(extended, len(extended) - 1)
    return intpoly.divides(char_data(restricted).chi, char_data(arr).chi)


@dataclass(frozen=True)
class EquivalenceReport:
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
    restricted, _ = restrict_to_hyperplane(arr, h)
    deleted = deletion(arr, h)
    chi = char_data(arr).chi
    chi_res = char_data(restricted).chi
    chi_del = char_data(deleted).chi
    cond4 = intpoly.divides(chi_res, chi)
    cond5 = intpoly.divides(chi_res, chi_del)
    cond6 = intpoly.degree(intpoly.gcd_monic(chi, chi_del)) == ell - 1
    if len(restricted) == 0:
        cond7 = cond4
        cond8 = cond5
    else:
        chi0_res = char_data(restricted).chi0
        r = intpoly.sub(
            char_data(arr).chi0,
            intpoly.mul((-(len(arr) - len(restricted)), 1), chi0_res),
        )
        cond7 = intpoly.coeff(r, ell - 3) == 0
        if len(deleted) == 0:
            cond8 = cond5
        else:
            rp = intpoly.sub(
                char_data(deleted).chi0,
                intpoly.mul((-(len(deleted) - len(restricted)), 1), chi0_res),
            )
            cond8 = intpoly.coeff(rp, ell - 3) == 0
    res_rank = rank_of(restricted) if len(restricted) else 0
    certified: bool | None
    if res_rank <= 2:
        certified = True
    elif res_rank == 3:
        certified = free3_decide(restricted).free
    else:
        certified = None
    report = EquivalenceReport(cond4, cond5, cond6, cond7, cond8, certified)
    if certified:
        conditions = report.all_conditions()
        if any(conditions) != all(conditions):
            raise AssertionError(
                "division conditions disagree although the restriction is free"
            )
    return report
