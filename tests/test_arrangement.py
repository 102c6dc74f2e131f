import itertools
import random

import pytest

from divflag import intpoly
from divflag.arrangement import (
    ArrangementError,
    cone,
    deletion,
    essentialize,
    flat_from_members,
    hyperplane_flat,
    localization,
    make_arrangement,
    rank_of,
    restrict_to_hyperplane,
    restriction,
    top_flat,
    triple,
)
from divflag.arrangement import Flat
from divflag.catalog import (
    CATALOG_NAMES,
    boolean,
    braid,
    build_entry,
    edelman_reiner_restriction,
    pentagon_cone,
    xyzw_example,
)
from divflag.exactalg import QQ, PrimeField, normalize_covector
from divflag.lattice import build_lattice, char_data

from conftest import random_arrangement, reference_kernel, reference_rref


def test_make_arrangement_boolean():
    arr = make_arrangement(QQ, 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert len(arr) == 3
    assert arr.dim == 3


def test_make_arrangement_er_size():
    assert len(edelman_reiner_restriction()) == 12


def test_make_arrangement_rejects_proportional():
    with pytest.raises(ArrangementError):
        make_arrangement(QQ, 2, [[1, 0], [2, 0]])


def test_make_arrangement_rejects_zero():
    with pytest.raises(ArrangementError):
        make_arrangement(QQ, 2, [[0, 0]])


def test_make_arrangement_rejects_length_mismatch():
    with pytest.raises(ArrangementError):
        make_arrangement(QQ, 2, [[1, 0, 0]])


def test_localization_top_is_empty():
    arr = boolean(3)
    loc = localization(arr, top_flat(arr))
    assert len(loc) == 0
    assert loc.dim == 3


def test_localization_boolean_pair():
    arr = boolean(3)
    flat = flat_from_members(arr, [0, 1])
    loc = localization(arr, flat)
    assert loc.hyperplanes == arr.hyperplanes[:2]


def test_localization_pentagon_special_flat():
    pent = pentagon_cone(31)
    loc = localization(pent.arrangement, pent.special_flat)
    assert len(loc) == 11


def test_localization_foreign_flat_rejected():
    arr = boolean(3)
    other = boolean(2)
    with pytest.raises(ValueError):
        localization(arr, top_flat(other))


def test_restriction_er_chain():
    B = edelman_reiner_restriction()
    C, trace = restrict_to_hyperplane(B, 3)
    assert len(C) == 7
    assert char_data(C).chi == intpoly.from_roots([1, 3, 3])
    # the x3 hyperplane of C restricts once more to chi = (t-1)(t-3)
    x3 = next(j for j, t in enumerate(trace) if t == (2,))
    D, _ = restrict_to_hyperplane(C, x3)
    assert char_data(D).chi == intpoly.from_roots([1, 3])
    assert len(D) == 4


def test_restriction_boolean():
    arr = boolean(4)
    sub, trace = restrict_to_hyperplane(arr, 3)
    assert len(sub) == 3
    assert sub.hyperplanes == boolean(3).hyperplanes
    assert all(len(t) == 1 for t in trace)


def test_restriction_trace_sums_to_deleted_size():
    rng = random.Random(31)
    for _ in range(30):
        arr = random_arrangement(rng, rng.randint(2, 4), rng.randint(2, 7))
        h = rng.randrange(len(arr))
        sub, trace = restrict_to_hyperplane(arr, h)
        assert sum(len(t) for t in trace) == len(arr) - 1
        assert len(sub) <= len(arr) - 1


def test_restriction_members_reproduce_localization():
    rng = random.Random(37)
    for _ in range(20):
        arr = random_arrangement(rng, 3, rng.randint(3, 7))
        lat = build_lattice(arr)
        for flat in lat.flats():
            loc = localization(arr, flat)
            assert loc.hyperplanes == tuple(arr.hyperplanes[h] for h in flat.members)


def _reference_restriction(arr, flat):
    """Each non-member covector projected onto the kernel basis of the
    members' covectors and normalized; equal projections share a trace."""
    field = arr.field
    basis = reference_kernel(field, [arr.hyperplanes[h] for h in flat.members], arr.dim)
    index, covs, trace = {}, [], []
    for h, cov in enumerate(arr.hyperplanes):
        if h in flat.members:
            continue
        projected = [sum((field.mul(x, y) for x, y in zip(cov, b)), field.zero) for b in basis]
        norm = normalize_covector(field, projected)
        if norm not in index:
            index[norm] = len(covs)
            covs.append(norm)
            trace.append([])
        trace[index[norm]].append(h)
    return tuple(covs), tuple(tuple(t) for t in trace)


def _assert_restrictions_match_reference(arr):
    for flat in build_lattice(arr).flats():
        if flat.codim < arr.dim:
            restricted, trace = restriction(arr, flat)
            assert (restricted.hyperplanes, trace) == _reference_restriction(arr, flat)
            assert restricted.dim == arr.dim - flat.codim


@pytest.mark.parametrize("name", [n for n in CATALOG_NAMES
                                  if len(build_entry(n).arrangement) <= 16])
def test_restriction_matches_kernel_projection_catalog(name):
    _assert_restrictions_match_reference(build_entry(name).arrangement)


@pytest.mark.parametrize("p", [None, 7, 11])
def test_restriction_matches_kernel_projection_random(p):
    field = QQ if p is None else PrimeField(p)
    rng = random.Random(211 if p is None else 211 + p)
    for dim in range(2, 6):
        available = 9 if p is None else (p ** dim - 1) // (p - 1)
        for _ in range(8):
            bound = rng.choice([2, 2, 10**6])
            arr = random_arrangement(rng, dim, rng.randint(1, min(available, 9)), field=field,
                                     coeff_lo=-bound, coeff_hi=bound)
            _assert_restrictions_match_reference(arr)


@pytest.mark.parametrize("p", [None, 2, 7])
def test_restricted_covectors_are_normalized(p):
    """A restriction reads each class's canonical residual at the free
    columns, which is already canonical: every covector of every
    restriction equals its own ``normalize_covector``."""
    field = QQ if p is None else PrimeField(p)
    rng = random.Random(307 if p is None else 307 + p)
    for dim in range(2, 6):
        available = 9 if p is None else (p ** dim - 1) // (p - 1)
        for _ in range(6):
            bound = rng.choice([2, 5, 10**4])
            arr = random_arrangement(rng, dim, rng.randint(1, min(available, 9)), field=field,
                                     coeff_lo=-bound, coeff_hi=bound)
            for flat in build_lattice(arr).flats():
                if flat.codim < dim:
                    for cov in restriction(arr, flat).arrangement.hyperplanes:
                        assert normalize_covector(field, cov) == cov


def test_restriction_rejects_a_flat_missing_a_member():
    # a codimension that is not the members' rank, or a member left out of
    # a flat whose members span it (braid(3)'s third hyperplane contains
    # the line cut out by the first two)
    arr, br = boolean(3), braid(3)
    for flat in (Flat(arr, 1, ()), Flat(arr, 2, (0,)), Flat(arr, 1, (0, 1))):
        with pytest.raises(ValueError, match="rank"):
            restriction(arr, flat)
    with pytest.raises(ValueError, match="not one of its members"):
        restriction(br, Flat(br, 2, (0, 1)))


def test_restriction_zero_dimensional_rejected():
    arr = boolean(2)
    flat = flat_from_members(arr, [0, 1])
    with pytest.raises(ValueError):
        restriction(arr, flat)


def test_deletion():
    arr = boolean(3)
    assert deletion(arr, 2).hyperplanes == arr.hyperplanes[:2]
    with pytest.raises(IndexError):
        deletion(arr, 5)


def test_deletion_xyzw_gives_boolean():
    A = xyzw_example()
    assert deletion(A, 4).hyperplanes == boolean(4).hyperplanes


def test_triple_cardinalities():
    A = edelman_reiner_restriction()
    t = triple(A, 0)
    assert len(t.deleted) == len(A) - 1
    assert sum(len(tr) for tr in t.trace) == len(A) - 1


def test_cone_of_empty():
    arr = cone(QQ, 2, [])
    assert len(arr) == 1
    assert arr.dim == 3


def test_cone_shi_a2_count():
    roots = [(1, 0), (0, 1), (1, 1)]
    affine = [(r, j) for r in roots for j in (0, 1)]
    arr = cone(QQ, 2, affine)
    assert len(arr) == 7
    assert arr.dim == 3


def test_cone_duplicate_rejected():
    with pytest.raises(ArrangementError):
        cone(QQ, 2, [((1, 0), 1), ((2, 0), 2)])


def _affine_whitney(field, dim, affine, t):
    """chi of an affine arrangement by subset expansion; independent oracle."""
    total = 0
    for size in range(len(affine) + 1):
        for subset in itertools.combinations(affine, size):
            rows = [list(cov) for cov, _ in subset]
            aug = [list(cov) + [c] for cov, c in subset]
            _, piv = reference_rref(field, rows)
            _, piv_aug = reference_rref(field, aug)
            if len(piv) == len(piv_aug):  # consistent system
                total += (-1) ** size * t ** (dim - len(piv))
    return total


def test_cone_matches_affine_whitney():
    rng = random.Random(41)
    for _ in range(15):
        dim = rng.randint(2, 3)
        affine = []
        seen = set()
        for _ in range(rng.randint(1, 5)):
            cov = tuple(rng.randint(-2, 2) for _ in range(dim))
            c = rng.randint(-2, 2)
            if any(cov) and (cov, c) not in seen:
                seen.add((cov, c))
                affine.append((cov, c))
        # skip sets that collide after coning (same hyperplane twice)
        try:
            coned = cone(QQ, dim, affine)
        except ArrangementError:
            continue
        chi0 = char_data(coned).chi0
        for t in (2, 5, 11):
            assert intpoly.eval_at(chi0, t) == _affine_whitney(QQ, dim, affine, t)


def test_rank_and_essentialize():
    br = make_arrangement(QQ, 3, [[1, -1, 0], [1, 0, -1], [0, 1, -1]])
    assert rank_of(br) == 2
    ess = essentialize(br)
    assert ess.dim == 2
    assert len(ess) == 3
    assert char_data(ess).chi == intpoly.from_roots([1, 2])


def test_hyperplane_flat():
    arr = boolean(3)
    flat = hyperplane_flat(arr, 1)
    assert flat.codim == 1
    assert flat.members == (1,)


def test_random_arrangement_rejects_more_lines_than_exist():
    # the projective line over F_3 has 4 points: 5 distinct lines do not exist
    f3 = PrimeField(3)
    assert len(random_arrangement(random.Random(0), 2, 4, field=f3)) == 4
    with pytest.raises(ValueError):
        random_arrangement(random.Random(0), 2, 5, field=f3)


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["Q", "F3"])
def test_random_arrangement_rejects_two_hyperplanes_on_a_line(field):
    # every nonzero covector in dimension 1 is the same hyperplane
    assert len(random_arrangement(random.Random(0), 1, 1, field=field)) == 1
    with pytest.raises(ValueError, match="line"):
        random_arrangement(random.Random(0), 1, 2, field=field)
