import random

import pytest

from divflag import freeness, intpoly
from divflag.arrangement import (
    Flat,
    deletion,
    essentialize,
    flat_from_members,
    make_arrangement,
    rank_of,
    restrict_to_hyperplane,
    restriction,
    top_flat,
)
from divflag.catalog import (
    RootSystemSpec,
    boolean,
    braid,
    edelman_reiner_restriction,
    intermediate,
    pentagon_cone,
    shi,
    weyl_b,
    weyl_d,
    xyzw_example,
    xyzw_restriction,
)
from divflag.exactalg import QQ, PrimeField
from divflag.freeness import (
    _EXHAUSTED,
    IF_CERTIFIED,
    IF_EXHAUSTED,
    NOT_IF,
    DivisionalFlag,
    EquivalenceReport,
    IFCertificate,
    IFStep,
    _FlagSearch,
    _candidates,
    _dividing_covers,
    df_via_b2,
    division_addition_check,
    division_check,
    division_equivalences,
    divisional_flag_search,
    flag_b2_bound,
    hereditarily_df,
    inductively_free,
    rank3_division_remainder,
    rank3_triple_conditions,
)
from divflag.lattice import IntersectionLattice, build_lattice, char_data
from divflag.multi import free3_decide, remainder_division

from conftest import random_arrangement


def test_division_check_er():
    assert division_check(edelman_reiner_restriction(), 3)


def test_division_check_xyzw_all_false():
    A = xyzw_example()
    assert not any(division_check(A, h) for h in range(len(A)))


def test_division_check_single_hyperplane():
    arr = make_arrangement(QQ, 3, [[1, 0, 0]])
    assert division_check(arr, 0)


def test_flag_search_er_chain():
    B = edelman_reiner_restriction()
    flag = divisional_flag_search(B)
    assert flag is not None
    assert flag.charpolys == (
        intpoly.from_roots([1, 3, 3, 5]),
        intpoly.from_roots([1, 3, 3]),
        intpoly.from_roots([1, 3]),
    )
    assert flag.exponents == (1, 3, 3, 5)
    assert flag.verify(B)


def test_flag_search_intermediate_k0_refuted():
    assert divisional_flag_search(intermediate(3, 0, 3, 7)) is None


def test_flag_search_dim2_trivial():
    arr = make_arrangement(QQ, 2, [[1, 0], [0, 1], [1, 1]])
    flag = divisional_flag_search(arr)
    assert flag is not None
    assert len(flag.flats) == 1


def test_flag_soundness_random():
    rng = random.Random(109)
    found = 0
    for _ in range(40):
        arr = random_arrangement(rng, rng.randint(3, 4), rng.randint(2, 7))
        flag = divisional_flag_search(arr)
        if flag is not None:
            assert flag.verify(arr)
            found += 1
    assert found > 0


def test_df_implies_split_chi():
    rng = random.Random(113)
    for _ in range(40):
        arr = random_arrangement(rng, 3, rng.randint(2, 8))
        flag = divisional_flag_search(arr)
        if flag is not None:
            assert flag.exponents is not None


def test_df_via_b2_er():
    B = edelman_reiner_restriction()
    flag = divisional_flag_search(B)
    sizes = [12, 7, 4]
    assert (sizes[0] - sizes[1]) * (sizes[1] - 1) + (sizes[1] - sizes[2]) * (sizes[2] - 1) == 39
    assert df_via_b2(B, flag)


def test_df_via_b2_boolean():
    arr = boolean(3)
    flag = divisional_flag_search(arr)
    assert df_via_b2(arr, flag)


def test_df_via_b2_rejects_nondividing_flag():
    # a flag through a non-dividing hyperplane of B misses the b2 equality
    B = edelman_reiner_restriction()
    lat = build_lattice(B)
    flag_ok = divisional_flag_search(B)
    good = {tuple(f.members) for f in flag_ok.flats}
    for x1 in lat.levels[1]:
        for x2 in lat.levels[2]:
            if set(x1.members) <= set(x2.members):
                flats = (top_flat(B), x1, x2)
                if all(tuple(f.members) in good for f in flats):
                    continue
                if not df_via_b2(B, flats):
                    lhs, rhs = flag_b2_bound(B, flats)
                    assert lhs > rhs
                    return
    pytest.fail("expected some non-divisional flag")


def _malformed_flag(case):
    """The Edelman–Reiner restriction and a flag that ``_flag_flats`` or
    ``flag_b2_bound`` must reject, changed from its divisional flag."""
    B = edelman_reiner_restriction()
    top, line, plane = divisional_flag_search(B).flats
    h = line.members[0]
    level2 = build_lattice(B).levels[2]
    apart = next(f for f in level2 if h not in f.members)
    wide = next(f for f in level2 if h in f.members and len(f.members) > 2)
    unclosed = Flat(B, 2, (h, next(k for k in wide.members if k != h)))
    return B, {
        "empty": (),
        "other-arrangement": (top_flat(xyzw_example()), line, plane),
        "codimension": (top, Flat(B, 2, line.members), plane),
        "not-nested": (top, line, apart),
        "not-closed": (top, line, unclosed),
        # nested, of the declared codimensions, but () closes to the top flat
        "closes-lower": (top, Flat(B, 1, ()), Flat(B, 2, ())),
        "short": (top, line),
    }[case]


FLAG_ERRORS = [
    ("empty", "^empty flag$"),
    ("other-arrangement", "^flag flat belongs to a different arrangement$"),
    ("codimension", "^flag flat 1 has codimension 2$"),
    ("not-nested", "^flag flats are not nested$"),
    ("not-closed", "^flag member lists must be closed$"),
    ("closes-lower", "^flag flat 1 has the members of a flat of codimension 0$"),
]


@pytest.mark.parametrize("check", [flag_b2_bound, df_via_b2], ids=["flag_b2_bound", "df_via_b2"])
@pytest.mark.parametrize("case,message", FLAG_ERRORS, ids=[case for case, _ in FLAG_ERRORS])
def test_flag_validation_errors(case, message, check):
    arr, flag = _malformed_flag(case)
    with pytest.raises(ValueError, match=message):
        check(arr, flag)


def test_df_via_b2_rejects_short_flag():
    arr, flag = _malformed_flag("short")
    flag_b2_bound(arr, flag)  # a partial flag has a bound
    with pytest.raises(ValueError, match="^flag must reach codimension dim - 2$"):
        df_via_b2(arr, flag)


def _all_flags(lattice):
    """Every maximal chain of flats stepping one codimension at a time."""
    levels = lattice.levels
    if len(levels) < 2:
        yield (levels[0][0],)
        return
    chains = [[(levels[0][0], 0)]]
    for i in range(1, len(levels)):
        new_chains = []
        for chain in chains:
            flat, idx = chain[-1]
            for k in lattice.covers[i - 1][idx]:
                new_chains.append(chain + [(levels[i][k], k)])
        chains = new_chains
    for chain in chains:
        yield tuple(f for f, _ in chain)


def test_flag_b2_characterization_exhaustive():
    # search succeeds exactly when some full flag hits the b2 equality
    rng = random.Random(127)
    for _ in range(12):
        arr = random_arrangement(rng, 3, rng.randint(3, 7))
        lat = build_lattice(arr)
        if len(lat.levels) < arr.dim:  # non-essential; flags cannot reach codim dim-2... skip
            continue
        searched = divisional_flag_search(arr) is not None
        by_b2 = any(
            df_via_b2(arr, flag[: arr.dim - 1])
            for flag in _all_flags(lat)
            if len(flag) >= arr.dim - 1
        )
        assert searched == by_b2


def test_flag_inequality_random_flags():
    rng = random.Random(131)
    checked = 0
    for _ in range(40):
        arr = random_arrangement(rng, rng.randint(3, 4), rng.randint(3, 7))
        lat = build_lattice(arr)
        flags = list(_all_flags(lat))
        if not flags:
            continue
        flag = flags[rng.randrange(len(flags))]
        lhs, rhs = flag_b2_bound(arr, flag[: min(len(flag), arr.dim - 1)])
        assert lhs >= rhs
        checked += 1
    assert checked > 20


def test_if_boolean():
    result = inductively_free(boolean(4))
    assert result.status == IF_CERTIFIED
    assert result.certificate.verify(boolean(4))


def test_if_weyl_b3():
    result = inductively_free(weyl_b(3))
    assert result.status == IF_CERTIFIED
    assert result.certificate.verify(weyl_b(3))


def test_if_dim2_always():
    arr = make_arrangement(QQ, 2, [[1, 0], [0, 1], [1, 2], [1, -3]])
    result = inductively_free(arr)
    assert result.status == IF_CERTIFIED
    assert result.certificate.verify(arr)


def test_if_xyzw_refuted():
    result = inductively_free(xyzw_example())
    assert result.status == NOT_IF


def test_if_exhausted_outcome():
    result = inductively_free(weyl_b(4), budget=1)
    assert result.status == "exhausted"
    assert result.certificate is None


def test_if_subset_df():
    rng = random.Random(137)
    for _ in range(25):
        arr = random_arrangement(rng, 3, rng.randint(2, 7))
        result = inductively_free(arr, budget=2000)
        if result.status == IF_CERTIFIED:
            assert divisional_flag_search(arr) is not None


def test_hdf_boolean():
    ok, failing = hereditarily_df(boolean(4))
    assert ok and failing == ()


def test_hdf_er():
    ok, failing = hereditarily_df(edelman_reiner_restriction())
    assert ok


def test_hdf_xyzw_fails_at_top():
    ok, failing = hereditarily_df(xyzw_example())
    assert not ok
    assert any(f.codim == 0 for f in failing)


def test_rank3_conditions_er_restriction():
    C = make_arrangement(QQ, 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1],
                                 [1, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1]])
    conds = rank3_triple_conditions(C, 0, 3, 3)
    assert conds.chi_splits
    assert conds.restriction_size_matches


def test_rank3_conditions_boolean():
    conds = rank3_triple_conditions(boolean(3), 0, 1, 1)
    assert conds.chi_splits and conds.deleted_chi_matches and conds.restriction_size_matches


def test_rank3_conditions_xyzw_restriction_never_splits():
    A = xyzw_restriction()
    for h in range(len(A)):
        for d1 in range(1, 4):
            for d2 in range(d1, 4):
                assert not rank3_triple_conditions(A, h, d1, d2).chi_splits


def test_rank3_remainder_values():
    C = make_arrangement(QQ, 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1],
                                 [1, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1]])
    # chi0(C) = (t-3)^2 evaluated at |C^H| - 1 = 3
    assert rank3_division_remainder(C, 0) == 0
    assert rank3_division_remainder(boolean(3), 0) == 0
    A = xyzw_restriction()
    assert all(rank3_division_remainder(A, h) > 0 for h in range(len(A)))


def test_rank3_remainder_zero_iff_free3():
    rng = random.Random(139)
    for _ in range(40):
        arr = random_arrangement(rng, 3, rng.randint(3, 8))
        if rank_of(arr) != 3:
            continue
        certified = any(rank3_division_remainder(arr, h) == 0 for h in range(len(arr)))
        decided = free3_decide(arr).free
        if certified:
            assert decided
        # the tested distribution has no free instance without a dividing hyperplane
        if decided:
            assert certified


def test_division_addition_check():
    two = make_arrangement(QQ, 3, [[1, 0, 0], [0, 1, 0]])
    assert division_addition_check(two, [0, 0, 1])
    B = edelman_reiner_restriction()
    Bp = deletion(B, 0)
    assert division_addition_check(Bp, B.hyperplanes[0]) == \
        division_equivalences(B, 0).divides_deleted
    with pytest.raises(Exception):
        division_addition_check(two, [2, 0, 0])


def test_equivalences_er_all_true():
    rep = division_equivalences(edelman_reiner_restriction(), 3)
    assert all(rep.all_conditions())
    assert rep.restriction_certified_free


def test_equivalences_xyzw_hypothesis_fails():
    rep = division_equivalences(xyzw_example(), 3)
    assert rep.remainder_zero          # r0 = 0
    assert not rep.divides_full        # but no division
    assert rep.restriction_certified_free is False


def test_equivalences_boolean_all_true():
    for dim in (3, 4):
        rep = division_equivalences(boolean(dim), 0)
        assert all(rep.all_conditions())


def test_equivalences_agree_when_restriction_free():
    rng = random.Random(149)
    for _ in range(40):
        arr = random_arrangement(rng, rng.randint(3, 4), rng.randint(2, 7))
        h = rng.randrange(len(arr))
        rep = division_equivalences(arr, h)
        if rep.restriction_certified_free:
            conditions = rep.all_conditions()
            assert all(conditions) or not any(conditions)


def test_lattice_only_dependence():
    # the same catalog item over two good primes gets the same DF verdict
    for k in (0, 1, 2):
        verdicts = set()
        for p in (7, 13):
            arr = intermediate(3, k, 3, p)
            verdicts.add(divisional_flag_search(arr) is not None)
        assert len(verdicts) == 1


def test_if_rank2_in_higher_dimension():
    from divflag.catalog import braid
    arr = braid(3)  # rank 2 inside dim 3
    result = inductively_free(arr)
    assert result.status == IF_CERTIFIED
    assert result.certificate.verify(arr)


def test_flag_search_empty_and_single():
    empty = make_arrangement(QQ, 4, [])
    flag = divisional_flag_search(empty)
    assert flag is not None and len(flag.flats) == 1
    single = make_arrangement(QQ, 4, [[1, 0, 0, 0]])
    flag = divisional_flag_search(single)
    assert flag is not None
    assert flag.verify(single)


def test_division_addition_check_false_case():
    from divflag.catalog import xyzw_example
    A = deletion(xyzw_example(), 0)
    assert not division_addition_check(A, (1, 0, 0, 0))


# The geometric flag layer that the search on lattice intervals replaced: it
# builds a new restriction and a new lattice for every flat it visits.  Its
# memo is keyed by the sorted covectors but stores hyperplane indices, so a
# memoized chain may belong to the same covectors in another order; the
# verdicts are structural and stay right.


def canonical_key(arr):
    """Structural identity under hyperplane reordering; memoization key."""
    return (arr.field, arr.dim, tuple(sorted(arr.hyperplanes)))


def _reference_chi(cache, arr):
    key = canonical_key(arr)
    if key not in cache:
        cache[key] = char_data(arr).chi
    return cache[key]


def _reference_ordered_hyperplanes(arr):
    restricted = [restrict_to_hyperplane(arr, h).arrangement for h in range(len(arr))]
    return sorted(enumerate(restricted), key=lambda item: (-len(item[1]), item[0]))


class _ReferenceFlagSearch:
    def __init__(self):
        self.cache = {}
        self.memo = {}

    def search(self, arr):
        if arr.dim <= 2 or len(arr) == 0:
            return ()
        key = canonical_key(arr)
        if key in self.memo:
            return self.memo[key]
        chi = _reference_chi(self.cache, arr)
        result = None
        for h, restricted in _reference_ordered_hyperplanes(arr):
            if not intpoly.divides(_reference_chi(self.cache, restricted), chi):
                continue
            tail = self.search(restricted)
            if tail is not None:
                result = (h,) + tail
                break
        self.memo[key] = result
        return result


def _reference_flag_from_chain(arr, chain, cache):
    flats = [top_flat(arr)]
    charpolys = [_reference_chi(cache, arr)]
    current = arr
    reps = list(range(len(arr)))  # representative index in arr per current hyperplane
    members = set()
    for k in chain:
        members.add(reps[k])
        flat = flat_from_members(arr, members)
        flats.append(flat)
        restricted, trace = restrict_to_hyperplane(current, k)
        charpolys.append(_reference_chi(cache, restricted))
        reps = [reps[t[0]] for t in trace]
        current = restricted
        members = set(flat.members)
    return DivisionalFlag(tuple(flats), tuple(charpolys), intpoly.linear_roots(charpolys[0]))


def _reference_flag_search(arr):
    search = _ReferenceFlagSearch()
    chain = search.search(arr)
    return None if chain is None else _reference_flag_from_chain(arr, chain, search.cache)


def _reference_verify(flag, arr):
    """The old check: no test of where the chain ends."""
    if not flag.flats or flag.flats[0].members != ():
        return False
    rebuilt = []
    for i, flat in enumerate(flag.flats):
        closed = flat_from_members(arr, flat.members)
        if closed.codim != i or closed.members != flat.members:
            return False
        if i > 0 and not set(flag.flats[i - 1].members) <= set(flat.members):
            return False
        rebuilt.append(closed)
    polys = tuple(
        char_data(arr if i == 0 else restriction(arr, flat).arrangement).chi
        for i, flat in enumerate(rebuilt)
    )
    if polys != flag.charpolys:
        return False
    return all(intpoly.divides(polys[i + 1], polys[i]) for i in range(len(polys) - 1))


def _reference_hereditarily_df(arr):
    search = _ReferenceFlagSearch()
    failing = []
    for level in build_lattice(arr).levels:
        for flat in level:
            if arr.dim - flat.codim < 1:
                continue
            sub = arr if flat.codim == 0 else restriction(arr, flat).arrangement
            if search.search(sub) is None:
                failing.append(flat)
    return (not failing, tuple(failing))


def _flag_data(flag):
    if flag is None:
        return None
    return [list(f.members) for f in flag.flats], flag.charpolys, flag.exponents


def _assert_flag_layer_matches_reference(arr):
    flag = divisional_flag_search(arr)
    assert _flag_data(flag) == _flag_data(_reference_flag_search(arr))
    if flag is not None:
        assert flag.verify(arr) and _reference_verify(flag, arr)
    ok, failing = hereditarily_df(arr)
    ref_ok, ref_failing = _reference_hereditarily_df(arr)
    assert ok == ref_ok
    assert [f.members for f in failing] == [f.members for f in ref_failing]


CATALOG_FLAG_INPUTS = [
    ("boolean-4", boolean(4)),
    ("braid-5", braid(5)),
    ("weyl-b4", weyl_b(4)),
    ("weyl-d4", weyl_d(4)),
    ("shi-a2-k1", shi(RootSystemSpec("A", 2), 1)),
    ("edelman-reiner", edelman_reiner_restriction()),
    ("xyzw", xyzw_example()),
    ("xyzw-restriction", xyzw_restriction()),
    ("intermediate-3-1", intermediate(3, 1, 3, 7)),
    ("intermediate-3-0", intermediate(3, 0, 3, 7)),
    ("intermediate-4-1", intermediate(4, 1, 3, 7)),
    ("pentagon-cone", pentagon_cone(31).arrangement),
]


@pytest.mark.parametrize("name,arr", CATALOG_FLAG_INPUTS, ids=[n for n, _ in CATALOG_FLAG_INPUTS])
def test_flag_layer_matches_reference_catalog(name, arr):
    # the arrangement and its restriction to every flat of dimension >= 3
    lat = build_lattice(arr)
    for level in lat.levels[:arr.dim - 2]:
        for flat in level:
            _assert_flag_layer_matches_reference(
                arr if flat.codim == 0 else restriction(arr, flat).arrangement)


@pytest.mark.parametrize("p", [None, 5, 7, 11])
def test_flag_layer_matches_reference_random(p):
    field = QQ if p is None else PrimeField(p)
    rng = random.Random(151 if p is None else 151 + p)
    found = 0
    for _ in range(30):
        arr = random_arrangement(rng, rng.randint(3, 5), rng.randint(3, 9), field=field)
        _assert_flag_layer_matches_reference(arr)
        found += divisional_flag_search(arr) is not None
    assert 0 < found < 30


def _flag_chains(lat, level=0, index=0):
    """Every chain from the top that steps down covers and stops where a
    divisional flag stops (dimension <= 2 or no hyperplanes left)."""
    dim = lat.arrangement.dim
    if dim - level <= 2 or not lat.covers[level][index]:
        yield ((level, index),)
        return
    for k in lat.covers[level][index]:
        for tail in _flag_chains(lat, level + 1, k):
            yield ((level, index),) + tail


def test_verify_matches_reference_on_every_chain():
    rng = random.Random(157)
    verdicts = set()
    for _ in range(12):
        arr = random_arrangement(rng, rng.randint(3, 4), rng.randint(3, 7))
        lat = build_lattice(arr)
        for chain in _flag_chains(lat):
            flats = tuple(lat.levels[level][index] for level, index in chain)
            polys = tuple(char_data(arr if f.codim == 0 else restriction(arr, f).arrangement).chi
                          for f in flats)
            # the reference does not read the exponents; verify requires the
            # integer roots of chi(A), so a flag that claims none is rejected
            flag = DivisionalFlag(flats, polys, intpoly.linear_roots(polys[0]))
            verdict = flag.verify(arr)
            assert verdict == _reference_verify(flag, arr)
            assert not DivisionalFlag(flats, polys, None).verify(arr)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def _memoized_chains_divide(arr):
    """Every chain the search memoized is a divisional flag of the
    restriction onto its own flat, checked there with its own numbering."""
    lat = build_lattice(arr)
    search = _FlagSearch(lat)
    for level in range(min(arr.dim, len(lat.levels))):
        for index in range(len(lat.levels[level])):
            search.search(level, index)
    chains = 0
    for base, chain in search.memo.items():
        if chain is None:
            continue
        level, index = lat.locate(h for h in range(len(arr)) if base >> h & 1)
        flat = lat.levels[level][index]
        restricted = restriction(arr, flat).arrangement if level else arr
        # hyperplane j of A^X is the cover of X with the j-th smallest new member
        ups = sorted(lat.covers[level][index], key=lambda k: min(
            set(lat.levels[level + 1][k].members) - set(flat.members)))
        ids = ((level, index),) + chain
        flats = []
        for lvl, k in ids:
            members = [j for j, up in enumerate(ups)
                       if lat.mask(level + 1, up) & ~lat.mask(lvl, k) == 0]
            flats.append(flat_from_members(restricted, members))
        polys = tuple(lat.restriction_chi(*where) for where in ids)
        assert tuple(f.codim for f in flats) == tuple(range(len(flats)))
        assert DivisionalFlag(tuple(flats), polys, intpoly.linear_roots(polys[0])).verify(restricted)
        chains += 1
    return chains


def test_memoized_chains_divide_in_their_own_flat():
    chains = 0
    for _, arr in CATALOG_FLAG_INPUTS[:6]:
        chains += _memoized_chains_divide(arr)
    rng = random.Random(163)
    for _ in range(20):
        chains += _memoized_chains_divide(random_arrangement(rng, rng.randint(3, 5), rng.randint(3, 9)))
    assert chains > 100


# The coordinate IF layer that the search on minors of L(A) replaced: every
# node restricts, deletes and builds a new lattice, and the memo merges
# nodes with the same sorted covectors.


class _Budget:
    def __init__(self, limit):
        self.limit = limit
        self.used = 0

    def spend(self):
        self.used += 1
        return self.used <= self.limit


class _ReferenceIFSearch:
    def __init__(self, budget):
        self.cache = {}
        self.memo = {}
        self.budget = _Budget(budget)

    def search(self, arr):
        if len(arr) == 0 or arr.dim <= 2 or rank_of(arr) <= 2:
            return True
        key = canonical_key(arr)
        if key in self.memo:
            return self.memo[key][0]
        if not self.budget.spend():
            return _EXHAUSTED
        exhausted = False
        for h, restricted in _reference_ordered_hyperplanes(arr):
            deleted = deletion(arr, h)
            if not intpoly.divides(_reference_chi(self.cache, restricted),
                                   _reference_chi(self.cache, deleted)):
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


def _reference_inductively_free(arr, budget=200_000):
    search = _ReferenceIFSearch(budget)
    verdict = search.search(arr)
    if verdict is _EXHAUSTED:
        return IF_EXHAUSTED, None, search.budget.used
    if verdict is False:
        return NOT_IF, None, search.budget.used
    steps = []
    current = arr
    while len(current) > 0 and current.dim >= 3 and rank_of(current) > 2:
        _, covector = search.memo[canonical_key(current)]
        h = current.hyperplanes.index(covector)
        restricted, _ = restrict_to_hyperplane(current, h)
        steps.append(IFStep(covector, _reference_chi(search.cache, restricted)))
        current = deletion(current, h)
    for h in range(len(current) - 1, -1, -1):
        chi_res = (_reference_chi(search.cache, restrict_to_hyperplane(current, h).arrangement)
                   if current.dim >= 2 else intpoly.ONE)
        steps.append(IFStep(current.hyperplanes[h], chi_res))
        current = deletion(current, h)
    steps.reverse()
    return IF_CERTIFIED, IFCertificate(arr.field, arr.dim, tuple(steps)), search.budget.used


def _reference_if_verify(cert, target):
    """The old check: no test of the field or the dimension."""
    covs = []
    for step in cert.steps:
        prev = make_arrangement(cert.field, cert.dim, covs) if covs else None
        covs.append(step.covector)
        current = make_arrangement(cert.field, cert.dim, covs)
        restricted, _ = restrict_to_hyperplane(current, len(covs) - 1)
        chi_res = char_data(restricted).chi
        if chi_res != step.restriction_chi:
            return False
        if cert.dim >= 3:
            prev_chi = char_data(prev).chi if prev is not None else intpoly.poly([0] * cert.dim + [1])
            if not intpoly.divides(chi_res, prev_chi):
                return False
    final = make_arrangement(cert.field, cert.dim, covs)
    return sorted(final.hyperplanes) == sorted(target.hyperplanes)


IF_BUDGETS = (1, 2000, 20_000, 200_000)


def _assert_if_matches_reference(arr, budgets=IF_BUDGETS):
    statuses = []
    ref = None
    for budget in sorted(budgets, reverse=True):
        result = inductively_free(arr, budget=budget)
        if ref is None or ref[2] > budget:  # a search within budget ends the same under any larger one
            ref = _reference_inductively_free(arr, budget)
        assert (result.status, result.certificate) == ref[:2]
        if result.certificate is not None:
            assert result.certificate.verify(arr) and _reference_if_verify(result.certificate, arr)
        statuses.append(result.status)
    return statuses


CATALOG_IF_INPUTS = CATALOG_FLAG_INPUTS + [
    ("weyl-b5", weyl_b(5)),
    ("braid-3", braid(3)),
    ("weyl-b3", weyl_b(3)),
    ("shi-a3-k1", shi(RootSystemSpec("A", 3), 1)),
    ("intermediate-3-2", intermediate(3, 2, 3, 7)),
    ("weyl-d4-over-f7", make_arrangement(PrimeField(7), 4, [[int(x) for x in c]
                                                            for c in weyl_d(4).hyperplanes])),
]


@pytest.mark.parametrize("name,arr", CATALOG_IF_INPUTS, ids=[n for n, _ in CATALOG_IF_INPUTS])
def test_if_matches_reference_catalog(name, arr):
    _assert_if_matches_reference(arr)


@pytest.mark.parametrize("p", [None, 5, 7, 11])
def test_if_matches_reference_random(p):
    field = QQ if p is None else PrimeField(p)
    rng = random.Random(167 if p is None else 167 + p)
    statuses = set()
    for _ in range(25):
        arr = random_arrangement(rng, rng.randint(3, 5), rng.randint(3, 10), field=field)
        statuses.update(_assert_if_matches_reference(arr))
    assert statuses == {IF_CERTIFIED, NOT_IF, IF_EXHAUSTED}


def _tampered(cert):
    """Certificates that change one thing about a valid one."""
    steps = cert.steps
    yield "reversed", IFCertificate(cert.field, cert.dim, steps[::-1])
    for i in range(len(steps) - 1):
        swapped = steps[:i] + (steps[i + 1], steps[i]) + steps[i + 2:]
        yield f"swap-{i}", IFCertificate(cert.field, cert.dim, swapped)
        moved = (IFStep(steps[i + 1].covector, steps[i].restriction_chi),
                 IFStep(steps[i].covector, steps[i + 1].restriction_chi))
        yield f"swap-covectors-{i}", IFCertificate(cert.field, cert.dim, steps[:i] + moved + steps[i + 2:])
    for i in range(len(steps)):
        yield f"drop-{i}", IFCertificate(cert.field, cert.dim, steps[:i] + steps[i + 1:])
        wrong = IFStep(steps[i].covector, intpoly.mul(steps[i].restriction_chi, (-1, 1)))
        yield f"poly-{i}", IFCertificate(cert.field, cert.dim, steps[:i] + (wrong,) + steps[i + 1:])


@pytest.mark.parametrize("name,arr", CATALOG_FLAG_INPUTS[:6], ids=[n for n, _ in CATALOG_FLAG_INPUTS[:6]])
def test_if_verify_matches_reference_on_tampered(name, arr):
    cert = inductively_free(arr).certificate
    verdicts = set()
    for label, forged in _tampered(cert):
        verdict = forged.verify(arr)
        assert verdict == _reference_if_verify(forged, arr), label
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_if_verify_rejects_field_and_dim_mismatch():
    # five planes in dimension 3 that are not IF over Q but are over F_2;
    # the old check accepted the F_2 certificate for the rational ones
    covs = [[0, 1, 1], [1, 1, 1], [1, 0, 1], [0, 0, 1], [1, 1, 0]]
    over_q = make_arrangement(QQ, 3, covs)
    over_f2 = make_arrangement(PrimeField(2), 3, covs)
    assert inductively_free(over_q).status == NOT_IF
    cert = inductively_free(over_f2).certificate
    assert cert.verify(over_f2)
    assert _reference_if_verify(cert, over_q) and not cert.verify(over_q)
    # boolean(3) has the same lattice over both fields
    assert not inductively_free(make_arrangement(PrimeField(2), 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
                                ).certificate.verify(boolean(3))
    wide = make_arrangement(QQ, 4, [list(c) + [0] for c in boolean(3).hyperplanes])
    cert = inductively_free(boolean(3)).certificate
    assert not cert.verify(wide) and not inductively_free(wide).certificate.verify(boolean(3))


def _reference_candidates(lat, level, index, deleted=0):
    """``_candidates`` with |(A − S)^Y| counted by scanning Y's covers at the
    next level, as before the sort key read Y's cover classes."""
    base = lat.mask(level, index)

    def order(k):
        above = lat.mask(level + 1, k)
        present = above & ~base & ~deleted
        size = sum(1 for z in lat.covers[level + 1][k] if lat.mask(level + 2, z) & ~above & ~deleted)
        return -size, present & -present

    return [(k, -order(k)[0]) for k in sorted(
        (k for k in lat.covers[level][index] if lat.mask(level + 1, k) & ~base & ~deleted), key=order)]


@pytest.mark.parametrize("arr", [weyl_b(4), weyl_d(4), braid(5)], ids=["B4", "D4", "braid5"])
def test_candidates_match_the_cover_scan(arr):
    # on every flat, with no deletion, random deletions, and deletions of
    # whole or partial cover classes
    rng = random.Random(len(arr))
    lat = build_lattice(arr)
    for level, size in enumerate(lat.level_sizes()):
        for index in range(size):
            classes = lat.cover_classes(level, index)
            masks = [0, *(rng.getrandbits(len(arr)) for _ in range(4)),
                     *(c & (c - rng.randrange(2)) for c in rng.sample(classes, min(2, len(classes))))]
            for deleted in masks:
                assert _candidates(lat, level, index, deleted) == \
                    _reference_candidates(lat, level, index, deleted)


@pytest.mark.parametrize("arr", [weyl_b(4), braid(5), intermediate(4, 1, 3, 7), xyzw_example(),
                                 edelman_reiner_restriction()],
                         ids=["B4", "braid5", "intermediate", "xyzw", "er"])
def test_search_screens_only_skip_covers_that_do_not_divide(arr):
    """The division step both searches share: for M = (A − S)^X and H its
    hyperplane at Y, χ(M^H) divides χ(M − H) exactly when it divides χ(M)
    (deletion–restriction), χ(M) then vanishes at |M| − |M^H|, and
    ``_dividing_covers`` yields exactly the covers where it divides."""
    rng = random.Random(len(arr))
    lat = build_lattice(arr)
    for level, size in enumerate(lat.level_sizes()[:-1]):
        for index in range(size):
            for deleted in (0, *(rng.getrandbits(len(arr)) & ~lat.mask(level, index) for _ in range(3))):
                chi = lat.restriction_chi(level, index, deleted)
                live = sum(1 for c in lat.cover_classes(level, index) if c & ~deleted)
                dividing = []
                for k, _ in _candidates(lat, level, index, deleted):
                    root = live - sum(1 for c in lat.cover_classes(level + 1, k) if c & ~deleted)
                    chi_y = lat.restriction_chi(level + 1, k, deleted)
                    divides = intpoly.divides(chi_y, lat.deletion_chi(level, index, deleted, k))
                    assert divides == intpoly.divides(chi_y, chi)
                    assert not divides or intpoly.eval_at(chi, root) == 0
                    dividing += [k] * divides
                assert list(_dividing_covers(lat, level, index, deleted)) == dividing


def test_refuted_if_search_walks_only_screened_covers(monkeypatch):
    """The refuted IF search on intermediate(4, 1, 3, 7) expands 11 nodes
    and walks 10 minors; without the screen it walked 43.  The searches on
    Weyl B5 and D4 take the walks pinned here: a division step that walked
    a minor it could screen, or a deletion whose charpoly was not cached,
    would add to them."""
    walks = []
    walk = IntersectionLattice._weisner_walk

    def counted(lattice, level, index, deleted):
        walks.append((level, index, deleted))
        return walk(lattice, level, index, deleted)

    monkeypatch.setattr(IntersectionLattice, "_weisner_walk", counted)
    result = inductively_free(intermediate(4, 1, 3, 7))
    assert (result.status, result.nodes, len(walks)) == (NOT_IF, 11, 10)
    for arr, nodes, if_walks in ((weyl_b(5), 362, 225), (weyl_d(4), 30, 33)):
        del walks[:]
        result = inductively_free(arr)
        assert (result.status, result.nodes, len(walks)) == (IF_CERTIFIED, nodes, if_walks)
    del walks[:]
    assert divisional_flag_search(weyl_b(5)) is not None and len(walks) == 3
    del walks[:]
    assert hereditarily_df(weyl_b(5)) == (True, ()) and len(walks) == 253


def test_if_candidates_follow_the_coordinate_numbering():
    # random restriction and deletion paths, followed in coordinates and on
    # L(A): at every node the candidates come in the reference's order,
    # including nodes where a deletion above took the smallest member of a
    # cover but not all of it
    rng = random.Random(179)
    checked = partial = 0
    for _ in range(200):
        field = rng.choice([QQ, PrimeField(5), PrimeField(7)])
        arr = random_arrangement(rng, rng.randint(4, 5), rng.randint(5, 12), field=field)
        lat = build_lattice(arr)
        current = arr
        behind = [1 << h for h in range(len(arr))]  # undeleted hyperplanes of A per hyperplane
        level, index, deleted = 0, 0, 0
        while len(current) and current.dim >= 3:
            base = lat.mask(level, index)
            cover = {j: next(k for k in lat.covers[level][index]
                             if lat.mask(level + 1, k) & ~base & ~deleted == behind[j])
                     for j in range(len(current))}
            ordered = [j for j, _ in _reference_ordered_hyperplanes(current)]
            assert [k for k, _ in _candidates(lat, level, index, deleted)] == [cover[j] for j in ordered]
            checked += 1
            new = [lat.mask(level + 1, cover[j]) & ~base for j in range(len(current))]
            partial += any(m & -m & deleted for m in new)
            j = rng.randrange(len(current))
            if rng.random() < 0.4:
                current, trace = restrict_to_hyperplane(current, j)
                behind = [sum(behind[i] for i in t) for t in trace]
                level, index = level + 1, cover[j]
            else:
                current = deletion(current, j)
                deleted |= new[j]
                del behind[j]
    assert checked > 1000 and partial >= 5


# The geometric division helpers that one lattice per call replaced: each
# restricts, deletes or essentializes and builds a lattice per arrangement.


def _reference_division_answers(arr, h):
    restricted = restrict_to_hyperplane(arr, h).arrangement
    deleted = deletion(arr, h)
    chi, chi_res, chi_del = (char_data(a).chi for a in (arr, restricted, deleted))
    ell = arr.dim
    cond4 = intpoly.divides(chi_res, chi)
    cond5 = intpoly.divides(chi_res, chi_del)
    cond6 = intpoly.degree(intpoly.gcd_monic(chi, chi_del)) == ell - 1
    if len(restricted) == 0:
        cond7, cond8 = cond4, cond5
    else:
        chi0_res = char_data(restricted).chi0
        r = intpoly.sub(char_data(arr).chi0, intpoly.mul((-(len(arr) - len(restricted)), 1), chi0_res))
        cond7 = intpoly.coeff(r, ell - 3) == 0
        cond8 = cond5
        if len(deleted):
            rp = intpoly.sub(char_data(deleted).chi0,
                             intpoly.mul((-(len(deleted) - len(restricted)), 1), chi0_res))
            cond8 = intpoly.coeff(rp, ell - 3) == 0
    res_rank = rank_of(restricted) if len(restricted) else 0
    certified = True if res_rank <= 2 else free3_decide(restricted).free if res_rank == 3 else None
    answers = {"check": cond4, "equivalences": (cond4, cond5, cond6, cond7, cond8, certified),
               "addition": cond5}
    if ell >= 3 and len(restricted):
        chi0 = char_data(arr).chi0
        root = len(arr) - len(restricted)
        answers["remainder"] = (root, intpoly.sub(chi0, intpoly.mul((-root, 1), char_data(restricted).chi0)))
    if rank_of(arr) == 3:
        ess = essentialize(arr)
        ess_res = restrict_to_hyperplane(ess, h).arrangement
        answers["rank3"] = (char_data(ess).chi, char_data(deletion(ess, h)).chi, len(ess_res),
                            intpoly.eval_at(char_data(ess).chi0, len(ess_res) - 1))
    return answers


def _division_answers(arr, h):
    rep = division_equivalences(arr, h)
    answers = {"check": division_check(arr, h),
               "equivalences": rep.all_conditions() + (rep.restriction_certified_free,),
               "addition": division_addition_check(deletion(arr, h), arr.hyperplanes[h])}
    if arr.dim >= 3 and len(arr) > 1:
        remainder = remainder_division(arr, h)
        answers["remainder"] = (remainder.quotient_root, remainder.r)
    if rank_of(arr) == 3:
        rank3 = []
        for d1, d2 in ((1, 1), (1, 2), (2, 3), (3, 3)):
            conds = rank3_triple_conditions(arr, h, d1, d2)
            rank3.append((conds.chi_splits, conds.deleted_chi_matches, conds.restriction_size_matches))
        answers["rank3"] = (rank3, rank3_division_remainder(arr, h))
    return answers


def _assert_division_matches_reference(arr):
    for h in range(len(arr)):
        ref = _reference_division_answers(arr, h)
        got = _division_answers(arr, h)
        for key in ("check", "equivalences", "addition"):
            assert got[key] == ref[key], key
        assert got.get("remainder") == ref.get("remainder")
        if "rank3" in ref:
            chi, chi_del, size, remainder = ref["rank3"]
            expected = [(chi == intpoly.from_roots([1, d1, d2]),
                         chi_del == intpoly.from_roots([1, d1, d2 - 1]), size == d1 + 1)
                        for d1, d2 in ((1, 1), (1, 2), (2, 3), (3, 3))]
            assert got["rank3"] == (expected, remainder)


@pytest.mark.parametrize("name,arr", CATALOG_FLAG_INPUTS, ids=[n for n, _ in CATALOG_FLAG_INPUTS])
def test_division_helpers_match_reference_catalog(name, arr):
    _assert_division_matches_reference(arr)


@pytest.mark.parametrize("p", [None, 2, 3, 5, 7, 11])
def test_division_helpers_match_reference_random(p):
    field = QQ if p is None else PrimeField(p)
    rng = random.Random(181 if p is None else 181 + p)
    for _ in range(15):
        dim = rng.randint(3, 5)
        most = 9 if p is None else min(9, (p ** dim - 1) // (p - 1))
        _assert_division_matches_reference(random_arrangement(rng, dim, rng.randint(1, most), field=field))
    # rank 3 in dimension 5, where the rank-3 helpers shift out t^2
    for _ in range(5):
        arr = random_arrangement(rng, 3, rng.randint(4, 7), field=field)
        _assert_division_matches_reference(
            make_arrangement(field, 5, [list(cov) + [0, 0] for cov in arr.hyperplanes]))


def test_division_helpers_in_dimension_one():
    # A^H is the zero-dimensional flat, whose empty arrangement has chi 1
    line = make_arrangement(QQ, 1, [[1]])
    assert division_check(line, 0)
    assert division_addition_check(make_arrangement(QQ, 1, []), [3])
    report = division_equivalences(line, 0)
    assert report.all_conditions() == (True,) * 5
    assert report.restriction_certified_free is True


def test_equivalences_with_one_hyperplane_read_no_remainder(monkeypatch):
    # one hyperplane restricts to the empty arrangement, so conditions 7
    # and 8 are conditions 4 and 5, and no chi0 remainder is taken
    monkeypatch.setattr(freeness, "chi0_remainder", None)
    for dim in range(1, 5):
        report = division_equivalences(make_arrangement(QQ, dim, [[1] * dim]), 0)
        assert report == EquivalenceReport(True, True, True, True, True, True)


def test_weisner_walks_are_counted(monkeypatch):
    """Every one-step deletion is read off charpolys already computed:
    Weyl B4's IF search takes 41 walks and its verify 16, one per step;
    each division helper takes the walk for A^H only, and χ(A) none."""
    walks = []
    walk = IntersectionLattice._weisner_walk

    def counted(lattice, level, index, deleted):
        walks.append((level, index, deleted))
        return walk(lattice, level, index, deleted)

    monkeypatch.setattr(IntersectionLattice, "_weisner_walk", counted)
    arr = weyl_b(4)
    result = inductively_free(arr)
    assert (result.status, result.nodes, len(walks)) == (IF_CERTIFIED, 47, 41)
    del walks[:]
    assert result.certificate.verify(arr)
    assert len(walks) == 16 and all(level == 1 for level, _, _ in walks)
    er = edelman_reiner_restriction()
    for call in (lambda: division_equivalences(er, 3), lambda: division_check(er, 3),
                 lambda: division_addition_check(deletion(er, 3), er.hyperplanes[3]),
                 lambda: rank3_triple_conditions(xyzw_restriction(), 0, 1, 2)):
        del walks[:]
        call()
        assert [level for level, _, _ in walks] == [1]
