import fractions
import itertools
import random
import sys
import tracemalloc

import pytest

from divflag import exactalg, freeness, intpoly, lattice, multi
from divflag.arrangement import (
    ArrangementError,
    Flat,
    deletion,
    flat_from_members,
    make_arrangement,
    rank_of,
    restrict_to_hyperplane,
    restriction,
)
from divflag.catalog import (
    CATALOG_NAMES,
    boolean,
    braid,
    build_entry,
    edelman_reiner_restriction,
    weyl_b,
    weyl_d,
)
from divflag.exactalg import QQ, PrimeField, int_elimination, int_rref, integer_row
from divflag.lattice import (
    BadPrimeError,
    EmptyArrangementError,
    IntersectionLattice,
    build_lattice,
    char_data,
    point_count_oracle,
    rank2_flats,
    whitney_oracle,
)

from conftest import e_roots, extend_rref, random_arrangement, reduce_against, reference_rref


def _member_rref(arr, flat):
    """The field-generic rref of the covectors of a flat's members."""
    return reference_rref(arr.field, [arr.hyperplanes[h] for h in flat.members])


def test_boolean3_levels_and_mobius():
    lat = build_lattice(boolean(3))
    assert lat.level_sizes() == (1, 3, 3, 1)
    assert lat.mobius == ((1,), (-1, -1, -1), (1, 1, 1), (-1,))


def test_braid3_center():
    lat = build_lattice(braid(3))
    assert lat.level_sizes() == (1, 3, 1)
    assert lat.mobius[2] == (2,)


def test_mobius_defining_recursion():
    rng = random.Random(12)
    for _ in range(15):
        arr = random_arrangement(rng, rng.randint(2, 4), rng.randint(2, 7))
        lat = build_lattice(arr)
        flats = [(f, m) for level, mob in zip(lat.levels, lat.mobius)
                 for f, m in zip(level, mob)]
        for f, _ in flats:
            if f.codim == 0:
                continue
            total = sum(m for g, m in flats if set(g.members) <= set(f.members))
            assert total == 0


def test_members_are_maximal():
    rng = random.Random(13)
    for _ in range(10):
        arr = random_arrangement(rng, 3, rng.randint(3, 7))
        lat = build_lattice(arr)
        for flat in lat.flats():
            rows, pivots = _member_rref(arr, flat)
            zero = arr.field.zero
            for h, cov in enumerate(arr.hyperplanes):
                inside = all(
                    x == zero for x in reduce_against(arr.field, rows, pivots, cov)
                )
                assert inside == (h in flat.members)


def _reference_lattice(arr):
    """The lattice by the direct route, as a test oracle for build_lattice.

    Every flat is extended by every hyperplane it does not contain, every
    covector is re-reduced against each new flat for its member set, and
    μ comes from its defining recursion over all pairs of flats.  Returns
    (normal-space rows, member masks, Möbius values) per level.
    """
    field, n, dim = arr.field, len(arr), arr.dim
    levels = [[((), (), 0)]]
    while len(levels) - 1 < dim:
        found = {}
        for rows, pivots, mask in levels[-1]:
            for h in range(n):
                if mask >> h & 1:
                    continue
                extended = extend_rref(field, rows, pivots, arr.hyperplanes[h])
                found.setdefault(extended[0], extended[1])
        if not found:
            break
        level = []
        for rows in sorted(found):
            pivots = found[rows]
            mask = 0
            for h, cov in enumerate(arr.hyperplanes):
                if all(x == field.zero for x in reduce_against(field, rows, pivots, cov)):
                    mask |= 1 << h
            level.append((rows, pivots, mask))
        levels.append(level)
    masks = [[mask for _, _, mask in level] for level in levels]
    mobius = [[1]]
    for k in range(1, len(levels)):
        mobius.append([
            -sum(mu for j in range(k) for above, mu in zip(masks[j], mobius[j])
                 if above & mask == above)
            for mask in masks[k]
        ])
    rows = [[r for r, _, _ in level] for level in levels]
    return rows, masks, mobius


def _assert_matches_reference(arr):
    rows, masks, mobius = _reference_lattice(arr)
    lat = build_lattice(arr)
    assert [list(m) for m in lat._masks] == masks
    assert lat.covers == _all_pairs_covers(lat)
    assert [list(m) for m in lat.mobius] == mobius
    assert len(lat.levels) == len(rows)
    for codim, (level, level_rows, level_masks) in enumerate(zip(lat.levels, rows, masks)):
        assert [_member_rref(arr, f)[0] for f in level] == level_rows
        assert [f.codim for f in level] == [codim] * len(level)
        assert [f.members for f in level] == [
            tuple(h for h in range(len(arr)) if mask >> h & 1) for mask in level_masks
        ]


# Weyl B3 with x1 halved: the pivots of its levels 1 and 2 have lcm 2, and
# its restrictions have four-line levels with lcm 1 and with lcm 2, so the
# level order is checked with and without scaling
B3_HALF = [[2, -1, 0], [2, 1, 0], [2, 0, -1], [2, 0, 1], [0, 1, -1], [0, 1, 1],
           [2, 0, 0], [0, 1, 0], [0, 0, 1]]


def _catalog_arrangements():
    for name in CATALOG_NAMES:
        yield name, build_entry(name).arrangement
    yield "weyl-b4", weyl_b(4)
    yield "braid5", braid(5)
    yield "b3-half", make_arrangement(QQ, 3, B3_HALF)


@pytest.mark.parametrize("name,arr", list(_catalog_arrangements()))
def test_build_matches_reference_catalog(name, arr):
    _assert_matches_reference(arr)
    for h in range(len(arr)):
        _assert_matches_reference(restrict_to_hyperplane(arr, h).arrangement)


F_P = PrimeField(2**31 - 1)


def _shuffled(base, seed, field=QQ):
    """The hyperplanes of ``base`` in a seeded order, over Q or reduced mod p."""
    covs = list(base.hyperplanes)
    random.Random(seed).shuffle(covs)
    if field != QQ:
        covs = [[x % field.p for x in cov] for cov in covs]
    return make_arrangement(field, base.dim, covs)


# the shapes of the large benchmark lattices at a smaller rank: every level
# is ordered by its head rows
HEAD_ROW_CASES = [(f"{name}-{field.kind}", _shuffled(base, seed, field))
                  for name, base, seed in (("weyl-b5", weyl_b(5), 5), ("braid6", braid(6), 6))
                  for field in (QQ, F_P)]


@pytest.mark.parametrize("name,arr", HEAD_ROW_CASES, ids=[name for name, _ in HEAD_ROW_CASES])
def test_build_matches_reference_shuffled(name, arr):
    # every build runs down to the center, so one build has every level
    _assert_matches_reference(arr)


def _sort_paths(monkeypatch, arr):
    """(carried pivot lcm, heads flag, key) for each level of a build, the
    key "head" (the head row), "rows" (the rows) or "scaled" (the rows
    scaled to the level's lcm), read by applying it to the level."""
    paths, row_order = [], lattice._row_order

    def spy(field, level, den, heads):
        key = row_order(field, level, den, heads)
        if all(key(entry) is entry[0][0] for entry in level):
            paths.append((den, heads, "head"))
        else:
            paths.append((den, heads, "rows" if all(key(e) is e[0] for e in level) else "scaled"))
        return key

    monkeypatch.setattr(lattice, "_row_order", spy)
    build_lattice(arr)
    monkeypatch.undo()
    return paths


def test_level_order_takes_each_path(monkeypatch):
    """Every level of the shuffled Weyl B5 and braid 6 is sorted by its head
    rows; Weyl D5, Shi A3 (k = 2) and Edelman-Reiner each sort a level by
    its full rows after an elimination; Weyl B3 with x1 halved carries its
    pivot lcm 2 and never scans its rows for it."""
    for name, arr in HEAD_ROW_CASES:
        paths = _sort_paths(monkeypatch, arr)
        assert paths == [(1, True, "head")] * rank_of(arr), name
    for arr in (weyl_d(5), build_entry("shi", roots="A", rank=3, k=2).arrangement,
                build_entry("edelman-reiner").arrangement):
        assert (0, False, "rows") in _sort_paths(monkeypatch, arr), arr
    paths = _sort_paths(monkeypatch, make_arrangement(QQ, 3, B3_HALF))
    assert (2, True, "scaled") in paths
    assert all(den for den, _, _ in paths)


def test_build_of_a_wide_space_makes_no_square_table():
    """Two hyperplanes in dimension 3000: the build allocates about its
    rows, not a dim x dim table of unit covectors."""
    dim = 3000
    arr = make_arrangement(QQ, dim, [[int(i == h) for i in range(dim)] for h in (0, 1)])
    tracemalloc.start()
    try:
        lat = build_lattice(arr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lat.level_sizes() == (1, 2, 1)
    assert peak < 1 << 20


def _built(lat):
    """What a build returns: masks, Möbius values and the cover classes."""
    return lat._masks, lat.mobius, [[sorted(c) for c in level] for level in lat._classes]


def test_builds_over_q_and_fp_alternating_are_independent():
    """The same covectors over Q and over F_p, built alternately in one
    process: each build equals the reference and the first build of its
    arrangement, so the residual id tables of one build never reach another."""
    rng = random.Random(97)
    cases = [(covs, PrimeField(7)) for covs in (weyl_b(4).hyperplanes, braid(5).hyperplanes,
                                                B3_HALF)]
    cases += [(random_arrangement(rng, dim, dim + 4, coeff_lo=-3, coeff_hi=3).hyperplanes,
               PrimeField(2**31 - 1)) for dim in (3, 4, 5)]
    for covs, fp in cases:
        dim = len(covs[0])
        arrs = (make_arrangement(QQ, dim, covs),
                make_arrangement(fp, dim, [[int(x) % fp.p for x in c] for c in covs]))
        for arr in arrs:
            _assert_matches_reference(arr)
        first = [_built(build_lattice(arr)) for arr in arrs]
        for _ in range(3):
            for arr, expected in zip(arrs, first):
                assert _built(build_lattice(arr)) == expected


@pytest.mark.parametrize("p", [None, 2, 3, 5, 7, 11])
def test_build_matches_reference_random(p):
    field = QQ if p is None else PrimeField(p)
    rng = random.Random(71 if p is None else 71 + p)
    for dim in range(2, 6):
        # distinct hyperplanes over F_p are the (p^dim - 1)/(p - 1) projective points
        available = 12 if p is None else (p ** dim - 1) // (p - 1)
        for _ in range(17):
            arr = random_arrangement(rng, dim, rng.randint(1, min(available, 9)), field=field)
            _assert_matches_reference(arr)
            rng.randint(1, dim)  # the draw stays, so each seed keeps its arrangements


# (1, 0) and (1, MODULUS) are distinct lines that coincide mod the prime
# MODULUS, so a key computed mod a prime would merge them
MODULUS = 2**61 - 1
COLLIDING = [(1, 0), (1, MODULUS), (1, 1)]


def _hadamard_bound_sq(int_rows, k):
    """The square of a bound on |det| of every square submatrix of at most
    k rows of the nonzero integer rows (Hadamard's inequality)."""
    bound = 1
    for norm in sorted((sum(x * x for x in row) for row in int_rows), reverse=True)[:k]:
        bound *= norm
    return bound


def test_build_keeps_lines_that_collide_mod_p():
    arr = make_arrangement(QQ, 2, COLLIDING)
    _assert_matches_reference(arr)
    assert build_lattice(arr).level_sizes() == (1, 3, 1)


def test_build_matches_reference_wide_coefficients():
    # entries up to 10^6 put the Hadamard bound on both sides of MODULUS^2,
    # the bound below which reduction mod MODULUS keeps every rank
    rng = random.Random(89)
    sides = set()
    for dim in range(3, 6):
        for _ in range(12):
            bound = 10 ** rng.randint(1, 6)
            arr = random_arrangement(rng, dim, rng.randint(dim, dim + 4),
                                     coeff_lo=-bound, coeff_hi=bound)
            ints = arr.hyperplanes
            sides.add(_hadamard_bound_sq(ints, min(dim, len(ints))) < MODULUS * MODULUS)
            _assert_matches_reference(arr)
    assert sides == {True, False}


def _assert_covers_partition_non_members(arr):
    """The covers X of each flat Y partition its non-members: the sets
    members(X) − members(Y) are disjoint and their union is every h ∉ Y."""
    lat = build_lattice(arr)
    everything = (1 << len(arr)) - 1
    for level, flats in enumerate(lat.levels):
        for index in range(len(flats)):
            base = lat.mask(level, index)
            union = 0
            for k in lat.covers[level][index]:
                added = lat.mask(level + 1, k) & ~base
                assert added and not added & union
                union |= added
            assert union == everything & ~base


@pytest.mark.parametrize("name,arr", list(_catalog_arrangements()))
def test_covers_partition_non_members_catalog(name, arr):
    _assert_covers_partition_non_members(arr)


@pytest.mark.parametrize("p", [None, 2, 3, 5, 7])
def test_covers_partition_non_members_random(p):
    field = QQ if p is None else PrimeField(p)
    rng = random.Random(307 if p is None else 307 + p)
    for dim in range(2, 6):
        available = 12 if p is None else (p ** dim - 1) // (p - 1)
        for _ in range(10):
            arr = random_arrangement(rng, dim, rng.randint(1, min(available, 10)), field=field)
            _assert_covers_partition_non_members(arr)


def _assert_residuals_group_covers(arr):
    """For each flat Y, grouping the h > max(Y) by their residual modulo Y
    gives the same classes as grouping them by the rref of Y ∧ H_h, and the
    classes are the parts above max(Y) of the cover classes of Y."""
    field, n = arr.field, len(arr)
    residual = int_elimination(field)[0]
    lat = build_lattice(arr)
    for level, flats in enumerate(lat.levels):
        for index, flat in enumerate(flats):
            rows, pivots = _member_rref(arr, flat)
            int_rows = [integer_row(row) for row in rows]  # the rows themselves over F_p
            by_residual, by_extension = {}, {}
            start = max(flat.members, default=-1) + 1
            for h in range(start, n):
                r = residual(int_rows, pivots, arr.hyperplanes[h])
                by_residual[r] = by_residual.get(r, 0) | 1 << h
                key = extend_rref(field, rows, pivots, arr.hyperplanes[h])[0]
                by_extension[key] = by_extension.get(key, 0) | 1 << h
            classes = sorted(by_residual.values())
            assert classes == sorted(by_extension.values())
            base = lat.mask(level, index)
            covers = ((lat.mask(level + 1, k) & ~base) >> start << start
                      for k in lat.covers[level][index])
            assert classes == sorted(c for c in covers if c)


@pytest.mark.parametrize("name,arr", list(_catalog_arrangements()))
def test_residual_classes_are_cover_classes_catalog(name, arr):
    _assert_residuals_group_covers(arr)


@pytest.mark.parametrize("p", [None, 5, 7, 2**31 - 1])
def test_residual_classes_are_cover_classes_random(p):
    field = QQ if p is None else PrimeField(p)
    rng = random.Random(223 if p is None else 223 + p % 1000)
    for dim in range(2, 6):
        available = 9 if p is None else (p ** dim - 1) // (p - 1)
        for _ in range(8):
            arr = random_arrangement(rng, dim, rng.randint(1, min(available, 9)), field=field)
            _assert_residuals_group_covers(arr)


def _lead(r):
    return next(c for c, x in enumerate(r) if x)


def _lowest(bits):
    return (bits & -bits).bit_length() - 1


def _counting(monkeypatch, names):
    """Wrap the named ``exactalg`` functions; returns their call counts."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _fn=getattr(exactalg, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(exactalg, name, counted)
    return calls


@pytest.mark.parametrize("arr,sizes", [(weyl_b(4), (16, 62, 115)), (braid(5), (10, 20, 51))],
                         ids=["weyl-b4", "braid5"])
def test_build_eliminates_nothing_on_weyl_b_and_braid(monkeypatch, arr, sizes):
    """On Weyl B4 and braid 5 the build makes no insert: each flat X's
    rows are its finder's rows under X's class residual, which no finder
    row is nonzero at.  It makes one one-row reduction per distinct pair of
    the build, and no residual at V, where each normalized covector is its
    own class: a new flat X of codimension below dim - 1 takes its
    partition from the first flat Y of the level above that it covers,
    reducing each other class r' of Y that is nonzero at the lead of X's
    class r by r.  A pair whose two residuals lead at the same column is
    one pair in either order, since r' reduced by r is r reduced by r'.  A
    line's one class needs no reduction."""
    calls = _counting(monkeypatch, ("residual_int", "insert_int"))
    lat = build_lattice(arr)
    monkeypatch.undo()
    residual = int_elimination(arr.field)[0]
    covectors = arr.hyperplanes
    pairs = set()
    for level in range(1, arr.dim - 1):
        for index in range(len(lat.levels[level])):
            parent = next(y for y, ks in enumerate(lat.covers[level - 1]) if index in ks)
            base = lat.mask(level - 1, parent)
            members = lat.levels[level - 1][parent].members
            rows, pivots = int_rref(arr.field, [covectors[h] for h in members])
            classes = [lat.mask(level, k) & ~base for k in lat.covers[level - 1][parent]]
            r = residual(rows, pivots, covectors[_lowest(lat.mask(level, index) & ~base)])
            for bits in classes:
                other = residual(rows, pivots, covectors[_lowest(bits)])
                if other != r and other[_lead(r)]:
                    pairs.add(tuple(sorted((r, other))) if _lead(other) == _lead(r)
                              else (r, other))
    flats = sum(lat.level_sizes())
    assert calls == {"residual_int": len(pairs), "insert_int": 0}
    assert (len(arr), len(pairs), flats - 1) == sizes


@pytest.mark.parametrize("p", [0, 2, 2**31 - 1])
def test_one_reduction_serves_a_same_lead_pair_in_either_order(p):
    """The build reduces a pair of canonical residuals with one lead once:
    span(r, s) meets the hyperplane x_lead = 0 in one line, whose canonical
    vector is r reduced by s and s reduced by r.  When the leads differ,
    the vector with the higher lead is zero at the other's lead, and
    reducing it by the other returns it unchanged."""
    field = QQ if p == 0 else PrimeField(p)
    residual = int_elimination(field)[0]
    rng = random.Random(3100 + p % 1000)
    same = differ = 0
    while min(same, differ) < 150:
        dim = rng.randint(2, 5)
        r, s = (exactalg.normalize_covector(field, v) for v in _nonzero_vectors(rng, dim, 2, p))
        if r == s:
            continue
        if _lead(r) == _lead(s):
            same += 1
            lead = _lead(r)
            assert residual((r,), (lead,), s) == residual((s,), (lead,), r)
        else:
            differ += 1
            low, high = sorted((r, s), key=_lead)
            assert residual((low,), (_lead(low),), high) == high


def _nonzero_vectors(rng, dim, n, p):
    """n int vectors of length dim with entries in -3..3, reduced mod p
    unless p is 0, nonzero, and often zero in front, so that many pairs
    share a lead."""
    out = []
    while len(out) < n:
        zeros = rng.randint(0, dim - 1)
        v = [0] * zeros + [rng.randint(-3, 3) for _ in range(dim - zeros)]
        if p:
            v = [x % p for x in v]
        if any(v):
            out.append(v)
    return out


def test_e6_build_eliminates_and_counts_its_reductions(monkeypatch):
    """E6, 36 hyperplanes in dimension 8 from the E8 roots: every level,
    χ = t^2 (t - 1)(t - 4)(t - 5)(t - 7)(t - 8)(t - 11) from its exponents
    (Orlik–Terao, ch. 6), and the one-row reductions and inserts of its
    build, the first tier-1 input at this scale whose build eliminates."""
    arr = make_arrangement(QQ, 8, e_roots(6))
    calls = _counting(monkeypatch, ("residual_int", "insert_int"))
    lat = build_lattice(arr)
    monkeypatch.undo()
    assert lat.level_sizes() == (1, 36, 390, 1530, 2001, 639, 1)
    assert char_data(arr, lat).chi == intpoly.from_roots([0, 0, 1, 4, 5, 7, 8, 11])
    assert calls == {"residual_int": 9689, "insert_int": 3571}


@pytest.mark.parametrize("arr", [weyl_d(4), build_entry("edelman-reiner").arrangement],
                         ids=["weyl-d4", "edelman-reiner"])
def test_build_inserts_to_eliminate(monkeypatch, arr):
    """Some rref rows of Weyl D4 and of the Edelman-Reiner arrangement are
    not covectors of A, so some finder has a row nonzero at the lead of the
    class it extends by: the build inserts to eliminate there, and still
    equals the reference."""
    calls = _counting(monkeypatch, ("insert_int",))
    build_lattice(arr)
    monkeypatch.undo()
    assert calls["insert_int"] > 0
    _assert_matches_reference(arr)


def test_build_leaves_normal_spaces_unread_and_makes_no_fraction():
    """Over Q the covectors are integer rows, the flats are keyed by
    integer rows, and ``rank_of`` and ``flat_from_members`` reduce integer
    rows too; none of them runs any code of the fractions module."""
    arr = weyl_b(4)
    called = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            called.add(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        lat = build_lattice(arr)
        rank = rank_of(arr)
        spanned = flat_from_members(arr, lat.levels[2][0].members[:2])
    finally:
        sys.setprofile(None)
    assert called == set()
    assert rank == 4
    assert spanned == lat.levels[2][0]


def test_read_and_unread_flats_compare_equal():
    """A flat is its parent, codimension and member set: the same flat from
    two builds and from ``flat_from_members`` compares and hashes equal."""
    arr = weyl_b(3)
    built, rebuilt = build_lattice(arr).levels[2], build_lattice(arr).levels[2]
    spanned = tuple(flat_from_members(arr, f.members) for f in built)
    assert built == rebuilt == spanned
    assert [hash(f) for f in built] == [hash(f) for f in rebuilt] == [hash(f) for f in spanned]
    assert list(Flat._fields) == ["parent", "codim", "members"]


def test_flats_are_made_on_demand(monkeypatch):
    """A build makes no ``Flat``; ``flat`` and ``members`` read one from its
    mask, ``levels`` makes them all on first read, and the flag searches
    make one per flat they return."""
    from divflag import freeness, lattice
    made = []

    def counting_flat(*args):
        made.append(args[1:])
        return Flat(*args)

    monkeypatch.setattr(lattice, "Flat", counting_flat)
    arr = weyl_b(4)
    lat = build_lattice(arr)
    assert made == []
    assert lat.members(2, 3) == lat.flat(2, 3).members and len(made) == 1
    flats = [flat for level in lat.levels for flat in level]
    assert len(made) == 1 + sum(lat.level_sizes()) == 1 + len(flats)
    assert flats == [lat.flat(level, index) for level, size in enumerate(lat.level_sizes())
                     for index in range(size)]
    assert [list(f.members) for f in flats] == [
        [h for h in range(len(arr)) if mask >> h & 1] for level in lat._masks for mask in level]
    del made[:]
    flag = freeness.divisional_flag_search(arr)
    assert len(made) == len(flag.flats) == 3
    del made[:]
    ok, failing = freeness.hereditarily_df(arr)
    assert ok and made == []


@pytest.mark.parametrize("name,arr", list(_catalog_arrangements()))
def test_normal_space_on_demand_matches_flat_from_members(name, arr):
    for flat in build_lattice(arr).flats():
        spanned = flat_from_members(arr, flat.members)
        assert spanned == flat
        assert flat.codim == len(_member_rref(arr, flat)[1])


def test_covers_step_one_codim():
    lat = build_lattice(boolean(3))
    for i, level in enumerate(lat.covers[:-1]):
        for j, ups in enumerate(level):
            lower = lat.levels[i][j]
            for k in ups:
                upper = lat.levels[i + 1][k]
                assert set(lower.members) <= set(upper.members)


def _all_pairs_covers(lat):
    """The cover relation by testing every pair of adjacent-level masks."""
    out = [
        tuple(tuple(k for k, um in enumerate(upper) if lm & um == lm) for lm in lower)
        for lower, upper in zip(lat._masks, lat._masks[1:])
    ]
    return tuple(out) + (tuple(() for _ in lat.levels[-1]),)


def _cover_arrangements():
    yield "braid4", braid(4)  # not essential: its center is a line
    yield "empty", make_arrangement(QQ, 3, [])
    yield "one-plane", make_arrangement(QQ, 3, [[1, 2, 3]])
    for p in (2, 3, 2**31 - 1):
        rng = random.Random(401 + p % 1000)
        for dim in range(2, 5):
            available = (p ** dim - 1) // (p - 1)
            arr = random_arrangement(rng, dim, min(available, 9), field=PrimeField(p))
            yield f"f{p}-dim{dim}", arr


@pytest.mark.parametrize("name,arr", list(_cover_arrangements()))
def test_covers_match_all_pairs_at_every_cap(name, arr):
    # every build runs down to the center, whose flats have no covers
    lat = build_lattice(arr)
    assert lat.covers == _all_pairs_covers(lat)
    assert all(ups == () for ups in lat.covers[-1])


def _assert_interval_queries(arr):
    """covers, locate and restriction_chi against a restriction per flat."""
    lat = build_lattice(arr)
    assert lat.covers == _all_pairs_covers(lat)
    assert lat.restriction_chi(0, 0) == char_data(arr).chi
    for level, flats in enumerate(lat.levels):
        for index, flat in enumerate(flats):
            assert lat.locate(flat.members) == (level, index)
            if 0 < level < arr.dim:
                restricted = restriction(arr, flat).arrangement
                assert lat.restriction_chi(level, index) == char_data(restricted).chi
                assert len(lat.covers[level][index]) == len(restricted)
    if arr.dim == len(lat.levels) - 1:  # essential: the center is a point
        assert lat.restriction_chi(arr.dim, 0) == intpoly.ONE


@pytest.mark.parametrize("name,arr", list(_catalog_arrangements()))
def test_interval_queries_catalog(name, arr):
    _assert_interval_queries(arr)


@pytest.mark.parametrize("p", [None, 5, 7])
def test_interval_queries_random(p):
    field = QQ if p is None else PrimeField(p)
    rng = random.Random(97 if p is None else 97 + p)
    for dim in range(2, 6):
        available = 9 if p is None else (p ** dim - 1) // (p - 1)
        for _ in range(8):
            arr = random_arrangement(rng, dim, rng.randint(1, min(available, 9)), field=field)
            _assert_interval_queries(arr)


def _geometric_minor(arr, lat, level, index, deleted):
    """(A − S)^X built with ``deletion`` then ``restriction`` onto the
    subspace X.  Only S − members(X) is deleted: the hyperplanes that
    contain X do not enter (A − S)^X, and keeping them leaves X spanned by
    its members in the deleted arrangement."""
    members = lat.levels[level][index].members
    deleted &= ~sum(1 << h for h in members)
    minor = arr
    for h in reversed(range(len(arr))):
        if deleted >> h & 1:
            minor = deletion(minor, h)
    if level == 0:
        return minor
    kept = [h for h in range(len(arr)) if not deleted >> h & 1]
    return restriction(minor, Flat(minor, level, tuple(kept.index(h) for h in members))).arrangement


def _assert_minor_charpolys(arr, rng, tries=3):
    """restriction_chi(level, index, S) against char_data of (A − S)^X on
    every flat X with a positive dimension, for random S, the members of X,
    and every hyperplane but one class of covers."""
    lat = build_lattice(arr)
    n = len(arr)
    for level, flats in enumerate(lat.levels[:arr.dim]):
        for index in range(len(flats)):
            base = lat.mask(level, index)
            masks = [rng.getrandbits(n) for _ in range(tries)] + [base]
            if lat.covers[level][index]:
                keep = lat.mask(level + 1, lat.covers[level][index][0]) & ~base
                masks.append(((1 << n) - 1) & ~keep)
            for deleted in masks:
                minor = _geometric_minor(arr, lat, level, index, deleted)
                assert lat.restriction_chi(level, index, deleted) == char_data(minor).chi
    assert lat.restriction_chi(0, 0, (1 << n) - 1) == intpoly.poly([0] * arr.dim + [1])


@pytest.mark.parametrize("name,arr", [(n, a) for n, a in _catalog_arrangements() if len(a) <= 16])
def test_minor_charpolys_catalog(name, arr):
    _assert_minor_charpolys(arr, random.Random(len(arr)), tries=1)


@pytest.mark.parametrize("p", [None, 5, 7, 11])
def test_minor_charpolys_random(p):
    field = QQ if p is None else PrimeField(p)
    rng = random.Random(173 if p is None else 173 + p)
    for dim in range(2, 6):
        available = 9 if p is None else (p ** dim - 1) // (p - 1)
        for _ in range(6):
            arr = random_arrangement(rng, dim, rng.randint(1, min(available, 9)), field=field)
            _assert_minor_charpolys(arr, rng)


def _reference_weisner_walk(lat, level, index, deleted):
    """The walk keyed by flat index, on the ``covers`` table: μ(X, Z) =
    −Σ μ(X, W) over the covers W ⋖ Z with the atom K = max(members Z −
    members X − S) not in W."""
    dim = lat.arrangement.dim
    coeffs = [0] * (dim - level + 1)
    coeffs[dim - level] = 1
    current = {index: 1}
    free = ~(lat.mask(level, index) | deleted)
    for lvl in range(level, len(lat.level_sizes()) - 1):
        sums = {}
        for w, mu in current.items():
            below = lat.mask(lvl, w)
            for z in lat.covers[lvl][w]:
                atom = 1 << (lat.mask(lvl + 1, z) & free).bit_length() >> 1
                if atom and not below & atom:
                    sums[z] = sums.get(z, 0) + mu
        current = {z: -s for z, s in sums.items()}
        coeffs[dim - lvl - 1] = sum(current.values())
    return intpoly.poly(coeffs)


def _assert_walk_matches_reference(arr, rng, tries=3):
    """restriction_chi, its cache emptied so that it walks, against the
    index-keyed walk on every flat, for S empty, the members of X, seeded
    masks and every hyperplane but one cover class of X."""
    lat = build_lattice(arr)
    n = len(arr)
    for level, size in enumerate(lat.level_sizes()):
        for index in range(size):
            base = lat.mask(level, index)
            masks = [0, base] + [rng.getrandbits(n) for _ in range(tries)]
            masks += [((1 << n) - 1) & ~c for c in lat.cover_classes(level, index)[:1]]
            for deleted in masks:
                lat._chis.clear()
                expected = _reference_weisner_walk(
                    lat, level, index, lat.deleted_classes(level, index, deleted))
                assert lat.restriction_chi(level, index, deleted) == expected, (level, index, deleted)


@pytest.mark.parametrize("name,arr", list(_catalog_arrangements()))
def test_walk_matches_index_keyed_walk_catalog(name, arr):
    _assert_walk_matches_reference(arr, random.Random(len(arr)), tries=2)


@pytest.mark.parametrize("p", [None, 2, 3, 5, 7])
def test_walk_matches_index_keyed_walk_random(p):
    field = QQ if p is None else PrimeField(p)
    rng = random.Random(331 if p is None else 331 + p)
    for dim in range(2, 6):
        available = 10 if p is None else (p ** dim - 1) // (p - 1)
        for _ in range(5):
            arr = random_arrangement(rng, dim, rng.randint(1, min(available, 10)), field=field)
            _assert_walk_matches_reference(arr, rng)


def test_library_paths_never_build_the_covers_table(monkeypatch):
    """Every search, verifier and division helper that reads covers of flats
    reads the build's cover classes; with ``covers`` made to raise, each runs
    and returns what it returns with the table in place."""
    er, b4, braid5 = edelman_reiner_restriction(), weyl_b(4), braid(5)
    b3_half = make_arrangement(QQ, 3, B3_HALF)

    def runs():
        out = []
        for arr in (er, b4, braid5, b3_half, weyl_d(4)):
            flag = freeness.divisional_flag_search(arr)
            result = freeness.inductively_free(arr)
            out += [flag, result, freeness.hereditarily_df(arr),
                    flag.verify(arr) if flag else None,
                    result.certificate.verify(arr) if result.certificate else None,
                    freeness.flag_b2_bound(arr, flag) if flag else None,
                    [freeness.division_equivalences(arr, h) for h in range(len(arr))],
                    [multi.remainder_division(arr, h) for h in range(len(arr))],
                    [multi.b2_gap(arr, h) for h in range(len(arr))]]
        for arr in (b3_half, weyl_b(3), build_entry("xyzw-restriction").arrangement):
            out += [multi.free3_decide(arr),
                    [freeness.rank3_triple_conditions(arr, h, 1, 1) for h in range(len(arr))],
                    [freeness.rank3_division_remainder(arr, h) for h in range(len(arr))]]
        return out

    expected = runs()

    def refuse(self):
        raise AssertionError("the covers table was built")

    monkeypatch.setattr(IntersectionLattice, "covers", property(refuse))
    with pytest.raises(AssertionError, match="covers table"):
        build_lattice(er).covers
    assert runs() == expected


def test_restriction_chi_caches_one_entry_per_minor():
    lat = build_lattice(weyl_b(4))
    rng = random.Random(181)
    for level, flats in enumerate(lat.levels):
        for index in range(len(flats)):
            base = lat.mask(level, index)
            assert lat.deleted_classes(level, index, base) == 0
            for k in lat.covers[level][index]:
                cls = lat.mask(level + 1, k) & ~base
                assert lat.deleted_classes(level, index, cls | base) == cls
                assert lat.deleted_classes(level, index, cls & (cls - 1)) == 0
            for _ in range(3):
                deleted = rng.getrandbits(16)
                classes = lat.deleted_classes(level, index, deleted)
                assert classes & ~deleted == 0
                assert lat.restriction_chi(level, index, deleted) is \
                    lat.restriction_chi(level, index, classes)
    assert all(lat.deleted_classes(*key) == key[2] for key in lat._chis)


def _assert_deletion_chi(arr, lat, fresh, geometric, level, index, deleted, k):
    """deletion_chi(level, index, S, k) on ``lat``, its cache emptied first so
    that the identity runs on walks, against restriction_chi of M − H on
    ``fresh``, whose cache holds walks only, and against char_data of the
    geometric minor, memoized in ``geometric`` by reduced key."""
    removed = deleted | lat.mask(level + 1, k) & ~lat.mask(level, index)
    lat._chis.clear()
    chi = lat.deletion_chi(level, index, deleted, k)
    assert chi == fresh.restriction_chi(level, index, removed)
    key = (level, index, lat.deleted_classes(level, index, removed))
    if key not in geometric:
        geometric[key] = char_data(_geometric_minor(arr, lat, level, index, removed)).chi
    assert chi == geometric[key]
    assert lat.restriction_chi(level, index, removed) is chi  # cached for the walk's lookup


@pytest.mark.parametrize("name,arr", [("weyl-b3", weyl_b(3)), ("braid4", braid(4))])
def test_deletion_chi_every_minor(name, arr):
    """Every flat X, every union S of its cover classes (the minors S can
    reach) and every cover k whose class S leaves."""
    lat, fresh, geometric = build_lattice(arr), build_lattice(arr), {}
    for level, flats in enumerate(lat.levels[:arr.dim]):
        for index in range(len(flats)):
            base, ups = lat.mask(level, index), lat.covers[level][index]
            classes = [lat.mask(level + 1, k) & ~base for k in ups]
            for chosen in itertools.product((0, 1), repeat=len(classes)):
                deleted = sum(c for c, x in zip(classes, chosen) if x)
                for k, c in zip(ups, classes):
                    if not c & deleted:
                        _assert_deletion_chi(arr, lat, fresh, geometric, level, index, deleted, k)


def _deletion_chi_arrangements(field, rng):
    """B4, D4 and braid 5 over the field where their hyperplanes stay
    distinct (over F_2 only braid 5), and two seeded random arrangements."""
    for arr in (weyl_b(4), weyl_d(4), braid(5)):
        try:
            yield make_arrangement(field, arr.dim, arr.hyperplanes)
        except ArrangementError:
            pass
    for dim in (3, 4):
        available = 9 if field == QQ else (field.p ** dim - 1) // (field.p - 1)
        yield random_arrangement(rng, dim, min(available, 9), field=field)


@pytest.mark.parametrize("p", [None, 2, 3, 5, 7])
def test_deletion_chi_seeded_minors(p):
    field = QQ if p is None else PrimeField(p)
    rng = random.Random(607 if p is None else 607 + p)
    for arr in _deletion_chi_arrangements(field, rng):
        lat, fresh, geometric = build_lattice(arr), build_lattice(arr), {}
        flats = [(level, index) for level, size in enumerate(lat.level_sizes()[:arr.dim])
                 for index in range(size) if lat.covers[level][index]]
        for _ in range(30):
            level, index = rng.choice(flats)
            k = rng.choice(lat.covers[level][index])
            cls = lat.mask(level + 1, k) & ~lat.mask(level, index)
            # any S that leaves one hyperplane of the cover's class
            deleted = rng.getrandbits(len(arr)) & ~(cls & -cls)
            _assert_deletion_chi(arr, lat, fresh, geometric, level, index, deleted, k)


def test_deletion_chi_rejects_a_deleted_or_foreign_cover():
    lat = build_lattice(weyl_b(3))
    k = lat.covers[1][0][0]
    cls = lat.mask(2, k) & ~lat.mask(1, 0)
    foreign = next(j for j in range(lat.level_sizes()[2]) if j not in lat.covers[1][0])
    for deleted, cover in ((cls, k), (cls | lat.mask(1, 0), k), (0, foreign)):
        with pytest.raises(ValueError, match=f"^flat {cover} at level 2 is not a hyperplane of the minor$"):
            lat.deletion_chi(1, 0, deleted, cover)


def test_chi_from_mobius_matches_whitney(monkeypatch):
    """χ(A) read off the build's Möbius values against the subset sum, with
    the walk made to fail; char_data reads the same values, so it is no
    check of them.  The walk at X = V and S = ∅ agrees too."""
    rng = random.Random(613)
    arrangements = [a for _, a in _catalog_arrangements() if len(a) <= 12]
    arrangements.append(make_arrangement(QQ, 3, []))
    for p in (None, 2, 3, 5, 7):
        field = QQ if p is None else PrimeField(p)
        for dim in range(2, 5):
            available = 9 if p is None else (p ** dim - 1) // (p - 1)
            arrangements += [random_arrangement(rng, dim, rng.randint(1, min(available, 9)), field=field)
                             for _ in range(4)]
    walk = IntersectionLattice._weisner_walk
    with monkeypatch.context() as patch:
        patch.setattr(IntersectionLattice, "_weisner_walk", None)
        for arr in arrangements:
            assert build_lattice(arr).restriction_chi(0, 0) == whitney_oracle(arr)
    for arr in arrangements:
        assert walk(build_lattice(arr), 0, 0, 0) == whitney_oracle(arr)


def test_atom():
    lat = build_lattice(weyl_b(3))
    assert all(lat.mask(1, lat.atom(h)) == 1 << h for h in range(9))
    for h in (-1, 9):
        with pytest.raises(IndexError):
            lat.atom(h)


def test_locate_rejects_unclosed_sets():
    lat = build_lattice(weyl_b(3))
    assert lat.locate([9]) is None  # no hyperplane 9
    level2 = lat.levels[2][0].members
    assert len(level2) > 2 and lat.locate(level2[:2]) is None


def test_char_data_er():
    data = char_data(edelman_reiner_restriction())
    assert data.chi == intpoly.from_roots([1, 3, 3, 5])
    assert data.b2_dec == 39


def test_char_data_weyl_b3():
    assert char_data(weyl_b(3)).chi == intpoly.from_roots([1, 3, 5])


def test_char_data_empty():
    arr = make_arrangement(QQ, 3, [])
    data = char_data(arr)
    assert data.chi == intpoly.poly([0, 0, 0, 1])
    with pytest.raises(EmptyArrangementError):
        data.chi0


def test_poincare_identity():
    # pi(t) = (-t)^dim chi(-1/t) as an identity on coefficients:
    # b_i(A) with all signs positive
    rng = random.Random(29)
    for _ in range(20):
        arr = random_arrangement(rng, rng.randint(2, 4), rng.randint(1, 7))
        data = char_data(arr)
        ell = arr.dim
        expected = [(-1) ** i * intpoly.coeff(data.chi, ell - i) for i in range(ell + 1)]
        assert list(data.poincare) + [0] * (ell + 1 - len(data.poincare)) == expected
        assert data.betti == tuple(expected)


def test_chi_factor_t_minus_one():
    rng = random.Random(43)
    for _ in range(40):
        arr = random_arrangement(rng, rng.randint(2, 4), rng.randint(1, 8))
        data = char_data(arr)
        assert intpoly.mul((-1, 1), data.chi0) == data.chi


def test_whitney_oracle_small():
    assert whitney_oracle(boolean(3)) == intpoly.from_roots([1, 1, 1])
    xyzw = make_arrangement(QQ, 4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                                    [0, 0, 0, 1], [1, 1, 1, 1]])
    assert whitney_oracle(xyzw) == intpoly.mul((-1, 1), (-4, 6, -4, 1))


def _reference_whitney(arr):
    """Σ over subsets B of (-1)^|B| t^(dim - rank B), each rank by the
    field-generic ``extend_rref``."""
    coeffs = [0] * (arr.dim + 1)
    for size in range(len(arr) + 1):
        for subset in itertools.combinations(arr.hyperplanes, size):
            rows, pivots = (), ()
            for cov in subset:
                rows, pivots = extend_rref(arr.field, rows, pivots, cov) or (rows, pivots)
            coeffs[arr.dim - len(pivots)] += (-1) ** size
    return intpoly.poly(coeffs)


@pytest.mark.parametrize("p", [None, 3, 7])
def test_whitney_oracle_matches_subset_ranks(p):
    field = QQ if p is None else PrimeField(p)
    rng = random.Random(229 if p is None else 229 + p)
    for _ in range(12):
        dim = rng.randint(2, 4)
        available = 8 if p is None else (p ** dim - 1) // (p - 1)
        arr = random_arrangement(rng, dim, rng.randint(0, min(available, 8)), field=field)
        assert whitney_oracle(arr) == _reference_whitney(arr)


def test_whitney_oracle_cap():
    with pytest.raises(ValueError):
        whitney_oracle(weyl_b(5))


def test_whitney_matches_mobius_random():
    rng = random.Random(47)
    for _ in range(60):
        arr = random_arrangement(rng, rng.randint(2, 4), rng.randint(1, 9))
        assert whitney_oracle(arr) == char_data(arr).chi


def test_deletion_restriction_formula():
    rng = random.Random(53)
    for _ in range(40):
        arr = random_arrangement(rng, rng.randint(2, 4), rng.randint(2, 8))
        h = rng.randrange(len(arr))
        chi = char_data(arr).chi
        chi_del = char_data(deletion(arr, h)).chi
        chi_res = char_data(restrict_to_hyperplane(arr, h).arrangement).chi
        assert chi == intpoly.sub(chi_del, chi_res)


def test_b2_equals_local_sum():
    rng = random.Random(59)
    for _ in range(30):
        arr = random_arrangement(rng, rng.randint(2, 4), rng.randint(2, 8))
        data = char_data(arr)
        expected = sum(len(f.members) - 1 for f in rank2_flats(arr))
        assert data.betti[2] == expected


def test_point_count_boolean():
    assert point_count_oracle(boolean(3), 5) == 64


def test_point_count_er():
    # chi evaluated at 7: 6 * 4^2 * 2
    assert point_count_oracle(edelman_reiner_restriction(), 7) == 192


def test_point_count_braid():
    assert point_count_oracle(braid(3), 5) == 60


def test_point_count_matches_chi_random():
    rng = random.Random(61)
    checked = 0
    while checked < 25:
        arr = random_arrangement(rng, rng.randint(2, 3), rng.randint(1, 6))
        chi = char_data(arr).chi
        for q in (5, 7):
            try:
                count = point_count_oracle(arr, q)
            except BadPrimeError:
                continue
            assert count == intpoly.eval_at(chi, q)
            checked += 1


def test_point_count_bad_prime_names_level():
    # x - y and x + y collide modulo 2
    arr = make_arrangement(QQ, 2, [[1, -1], [1, 1]])
    with pytest.raises(BadPrimeError):
        point_count_oracle(arr, 2)


def test_point_count_requires_prime():
    with pytest.raises(BadPrimeError):
        point_count_oracle(boolean(2), 6)


def test_char_data_rejects_the_lattice_of_another_arrangement():
    lat = build_lattice(weyl_b(3))
    assert char_data(weyl_b(3), lat) == char_data(weyl_b(3))
    for other in (weyl_d(3), braid(4), _shuffled(weyl_b(3), 1), _shuffled(weyl_b(3), 0, F_P)):
        with pytest.raises(ValueError, match="lattice of this arrangement"):
            char_data(other, lat)


def test_prime_field_lattice():
    f7 = PrimeField(7)
    arr = make_arrangement(f7, 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
    lat = build_lattice(arr)
    assert lat.level_sizes() == (1, 4, 6, 1)
