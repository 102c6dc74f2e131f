"""Freeness certification by characteristic polynomial division.

A hyperplane whose restriction has a dividing characteristic polynomial
certifies freeness once the restriction itself is free; iterating down to
dimension two yields a divisional flag, a purely combinatorial freeness
certificate.  This module implements the flag search, its second-Betti-
number characterization, inductive freeness, and the rank-3 shortcuts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import intpoly
from .arrangement import (
    Arrangement,
    Flat,
    add_hyperplane,
    canonical_key,
    deletion,
    essentialize,
    flat_from_members,
    rank_of,
    restriction,
    restrict_to_hyperplane,
    top_flat,
)
from .lattice import build_lattice, char_data
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
        """Recompute the chain from scratch and check the stored data."""
        if not self.flats or self.flats[0].members != ():
            return False
        rebuilt = []
        for i, flat in enumerate(self.flats):
            closed = flat_from_members(arr, flat.members)
            if closed.codim != i or closed.members != flat.members:
                return False
            if i > 0 and not set(self.flats[i - 1].members) <= set(flat.members):
                return False
            rebuilt.append(closed)
        polys = tuple(
            char_data(arr if i == 0 else restriction(arr, flat).arrangement).chi
            for i, flat in enumerate(rebuilt)
        )
        if polys != self.charpolys:
            return False
        for i in range(len(polys) - 1):
            if not intpoly.divides(polys[i + 1], polys[i]):
                return False
        return True


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


def division_check(arr: Arrangement, h: int, _cache: _ChiCache | None = None) -> bool:
    """Does the restriction's charpoly divide the full one at hyperplane h?"""
    if len(arr) == 0:
        raise ValueError("division check needs a nonempty arrangement")
    cache = _cache or _ChiCache()
    restricted, _ = restrict_to_hyperplane(arr, h)
    return intpoly.divides(cache.chi(restricted), cache.chi(arr))


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
    def __init__(self):
        self.cache = _ChiCache()
        self.memo: dict[tuple, tuple[int, ...] | None] = {}

    def search(self, arr: Arrangement):
        """Chain of per-level hyperplane indices, or None when no divisional
        flag exists.  Memoized on the structural key of each restriction."""
        if arr.dim <= 2 or len(arr) == 0:
            return ()
        key = canonical_key(arr)
        if key in self.memo:
            return self.memo[key]
        chi = self.cache.chi(arr)
        result = None
        for h, restricted in _ordered_hyperplanes(arr):
            if not intpoly.divides(self.cache.chi(restricted), chi):
                continue
            tail = self.search(restricted)
            if tail is not None:
                result = (h,) + tail
                break
        self.memo[key] = result
        return result


def divisional_flag_search(arr: Arrangement) -> DivisionalFlag | None:
    """Exhaustive memoized search for a divisional flag; None means the
    arrangement is not divisionally free."""
    search = _FlagSearch()
    chain = search.search(arr)
    if chain is None:
        return None
    return _flag_from_chain(arr, chain, search.cache)


def _flag_from_chain(arr: Arrangement, chain: Sequence[int], cache: _ChiCache) -> DivisionalFlag:
    flats = [top_flat(arr)]
    charpolys = [cache.chi(arr)]
    current = arr
    reps = list(range(len(arr)))  # representative index in arr per current hyperplane
    members: set[int] = set()
    for k in chain:
        members.add(reps[k])
        flat = flat_from_members(arr, members)
        flats.append(flat)
        restricted, trace = restrict_to_hyperplane(current, k)
        charpolys.append(cache.chi(restricted))
        reps = [reps[t[0]] for t in trace]
        current = restricted
        members = set(flat.members)
    chi = charpolys[0]
    return DivisionalFlag(tuple(flats), tuple(charpolys), intpoly.linear_roots(chi))


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


def _restriction_sizes(arr: Arrangement, flats: Sequence[Flat]) -> list[int]:
    sizes = []
    for flat in flats:
        if flat.codim == 0:
            sizes.append(len(arr))
        else:
            sizes.append(len(restriction(arr, flat).arrangement))
    return sizes


def flag_b2_bound(arr: Arrangement, flag) -> tuple[int, int]:
    """Both sides of the flag inequality: b2 after deconing against the
    telescoping sum of restriction sizes along the flag."""
    flats = _flag_flats(arr, flag)
    sizes = _restriction_sizes(arr, flats)
    rhs = 0
    for i in range(len(flats) - 1):
        rhs += (sizes[i] - sizes[i + 1]) * (sizes[i + 1] - 1)
    lhs = char_data(arr).b2_dec
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
    dimensional flat; returns (all_pass, failing flats)."""
    search = _FlagSearch()
    failing = []
    lattice = build_lattice(arr)
    for level in lattice.levels:
        for flat in level:
            if arr.dim - flat.codim < 1:
                continue
            sub = arr if flat.codim == 0 else restriction(arr, flat).arrangement
            if search.search(sub) is None:
                failing.append(flat)
    return (not failing, tuple(failing))


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
