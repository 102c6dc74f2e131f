import pytest

from divflag import catalog, intpoly
from divflag.arrangement import localization, rank_of, restrict_to_hyperplane
from divflag.catalog import (
    CATALOG_NAMES,
    CatalogError,
    RootSystemSpec,
    boolean,
    braid,
    build_entry,
    edelman_reiner_restriction,
    intermediate,
    pentagon_cone,
    shi,
    weyl_b,
    weyl_d,
    xyzw_example,
    xyzw_restriction,
)
from divflag.cli import run
from divflag.exactalg import is_prime
from divflag.freeness import divisional_flag_search
from divflag.lattice import build_lattice, char_data, whitney_oracle


def test_root_counts():
    assert len(RootSystemSpec("A", 3).positive_roots) == 6
    assert len(RootSystemSpec("B", 4).positive_roots) == 16
    assert len(RootSystemSpec("C", 3).positive_roots) == 9
    assert len(RootSystemSpec("D", 4).positive_roots) == 12


def test_coxeter_numbers():
    assert RootSystemSpec("A", 2).coxeter_number == 3
    assert RootSystemSpec("B", 2).coxeter_number == 4
    assert RootSystemSpec("C", 5).coxeter_number == 10
    assert RootSystemSpec("D", 4).coxeter_number == 6


def test_bad_root_system():
    with pytest.raises(CatalogError):
        RootSystemSpec("E", 8)
    with pytest.raises(CatalogError):
        RootSystemSpec("D", 1)


def test_family_sizes():
    assert len(boolean(4)) == 4
    assert len(braid(4)) == 6
    assert len(weyl_b(3)) == 9
    assert len(weyl_d(4)) == 12
    assert len(edelman_reiner_restriction()) == 12
    assert len(xyzw_example()) == 5
    assert len(xyzw_restriction()) == 4


def test_boolean_chi():
    assert char_data(boolean(4)).chi == intpoly.from_roots([1, 1, 1, 1])


def test_braid_chi():
    assert char_data(braid(3)).chi == whitney_oracle(braid(3))
    assert char_data(braid(3)).chi == intpoly.mul((0, 1), intpoly.from_roots([1, 2]))


def test_weyl_b_chi():
    for rank in (2, 3, 4):
        expected = intpoly.from_roots([2 * i - 1 for i in range(1, rank + 1)])
        assert char_data(weyl_b(rank)).chi == expected


def test_weyl_b_restricts_to_lower_rank():
    b3 = weyl_b(3)
    sub, _ = restrict_to_hyperplane(b3, 2)  # x3 = 0
    assert sorted(sub.hyperplanes) == sorted(weyl_b(2).hyperplanes)


def test_weyl_d_chi():
    expected = intpoly.from_roots([1, 3, 3, 5])
    assert char_data(weyl_d(4)).chi == expected


def test_shi_counts_and_chi():
    cases = [("A", 2, 1, 7), ("A", 2, 2, 13), ("B", 2, 1, 9), ("A", 3, 1, 13)]
    for type_, rank, k, size in cases:
        spec = RootSystemSpec(type_, rank)
        arr = shi(spec, k)
        assert len(arr) == 1 + 2 * k * len(spec.positive_roots)
        assert len(arr) == size
        kh = k * spec.coxeter_number
        assert char_data(arr).chi == intpoly.from_roots([1] + [kh] * rank)


def test_shi_divisional_flags():
    for type_, rank, k in [("A", 2, 1), ("A", 2, 2), ("B", 2, 1), ("A", 3, 1)]:
        arr = shi(RootSystemSpec(type_, rank), k)
        assert divisional_flag_search(arr) is not None


def test_intermediate_counts():
    assert len(intermediate(3, 1, 3, 7)) == 10
    assert len(intermediate(3, 0, 3, 7)) == 9
    assert len(intermediate(2, 2, 1, 5)) == 3


def test_intermediate_df_verdicts():
    assert divisional_flag_search(intermediate(3, 0, 3, 7)) is None
    assert divisional_flag_search(intermediate(3, 1, 3, 7)) is not None
    assert divisional_flag_search(intermediate(3, 2, 3, 7)) is not None
    assert divisional_flag_search(intermediate(2, 2, 1, 5)) is not None


def test_intermediate_bad_prime():
    with pytest.raises(CatalogError):
        intermediate(3, 1, 3, 5)  # 5 != 1 mod 3
    with pytest.raises(CatalogError):
        intermediate(3, 4, 3, 7)  # k > rank


def test_intermediate_dual_prime_stability():
    sizes = {
        p: build_lattice(intermediate(3, 1, 3, p)).level_sizes()
        for p in (7, 13)
    }
    assert sizes[7] == sizes[13]


def test_er_chain_values():
    B = edelman_reiner_restriction()
    assert char_data(B).chi == intpoly.from_roots([1, 3, 3, 5])
    C, _ = restrict_to_hyperplane(B, 3)
    assert char_data(C).chi == intpoly.from_roots([1, 3, 3])
    assert divisional_flag_search(B) is not None


def test_pentagon_counts():
    pent = pentagon_cone(31)
    B = pent.arrangement
    assert len(B) == 12
    assert pent.special_flat.codim == 3
    assert len(pent.special_flat.members) == 11


def test_pentagon_localization_chis():
    pent = pentagon_cone(31)
    B = pent.arrangement
    BX = localization(B, pent.special_flat)
    assert char_data(BX).chi == intpoly.mul((0, 1), intpoly.from_roots([1, 5, 5]))
    res, _ = restrict_to_hyperplane(BX, pent.infinite_index)
    assert char_data(res).chi == intpoly.mul((0, 1), intpoly.from_roots([1, 4]))
    assert not intpoly.divides(char_data(res).chi, char_data(BX).chi)


def test_pentagon_alternate_prime():
    for p in (11, 41):
        pent = pentagon_cone(p)
        assert len(pent.arrangement) == 12


def test_pentagon_bad_prime():
    with pytest.raises(CatalogError):
        pentagon_cone(7)  # 7 != 1 mod 5


def test_sqrt5_matches_a_scan():
    # the Gauss sum gives the lesser root, the one a scan from 1 finds first;
    # p = 1 (mod 5) and odd means p = 1 (mod 10)
    for p in range(11, 10**4, 10):
        if is_prime(p):
            assert catalog._sqrt5(p) == next(x for x in range(1, p) if x * x % p == 5), p


def test_xyzw_values():
    A = xyzw_example()
    assert char_data(A).chi == intpoly.mul((-1, 1), intpoly.poly([-4, 6, -4, 1]))
    AH, _ = restrict_to_hyperplane(A, 3)
    assert char_data(AH).chi == intpoly.mul((-1, 1), intpoly.poly([3, -3, 1]))
    assert rank_of(xyzw_restriction()) == 3


def test_build_entry_expected_data():
    entry = build_entry("weyl-b", rank=3)
    assert entry.expected_chi == char_data(entry.arrangement).chi
    entry = build_entry("shi", roots="A", rank=2, k=1)
    assert entry.expected_chi == char_data(entry.arrangement).chi
    entry = build_entry("xyzw")
    assert entry.expected_chi == char_data(entry.arrangement).chi
    with pytest.raises(CatalogError):
        build_entry("unknown-name")


# one more parameter set for every entry that takes one
OTHER_PARAMETERS = [("boolean", dict(rank=5)), ("braid", dict(rank=5)), ("weyl-b", dict(rank=4)),
                    ("weyl-d", dict(rank=5)), ("shi", dict(roots="B", rank=3)),
                    ("shi", dict(roots="C", rank=3)), ("shi", dict(roots="D", rank=3)),
                    ("shi", dict(rank=2, k=2)), ("intermediate", dict(rank=4, k=1, r=3, p=7)),
                    ("pentagon-cone", dict(p=11))]


@pytest.mark.parametrize("name,params", [(name, {}) for name in CATALOG_NAMES] + OTHER_PARAMETERS,
                         ids=lambda x: x if isinstance(x, str) else "-".join(map(str, x.values())))
def test_every_closed_form_chi(name, params):
    entry = build_entry(name, **params)
    assert not params or entry.name != build_entry(name).name
    if entry.expected_chi is None:
        assert name == "intermediate"
    else:
        assert entry.expected_chi == char_data(entry.arrangement).chi


def test_catalog_names_list_the_registry_once():
    assert CATALOG_NAMES == tuple(catalog._ENTRIES) == (
        "boolean", "braid", "weyl-b", "weyl-d", "shi", "intermediate", "edelman-reiner",
        "pentagon-cone", "xyzw", "xyzw-restriction")
    assert len(set(CATALOG_NAMES)) == len(CATALOG_NAMES)
    assert [build_entry(name).name for name in CATALOG_NAMES] == [
        "boolean-3", "braid-3", "weyl-b3", "weyl-d4", "shi-a2-k1", "intermediate-3-1-3-p7",
        "edelman-reiner", "pentagon-cone-p31", "xyzw", "xyzw-restriction"]


def test_entries_ignore_parameters_they_do_not_take():
    assert build_entry("boolean", k=9, p=3) == build_entry("boolean")
    assert build_entry("xyzw", rank=7, roots="B") == build_entry("xyzw")
    assert build_entry("pentagon-cone", rank=2, k=3, r=4) == build_entry("pentagon-cone")
    assert run(["lattice", "--catalog", "boolean", "--k", "9", "--p", "3"]) == 0
