"""The records keep the surface of the frozen dataclasses they replaced:
field names and order, constructor, value equality, hash, repr and
immutability, and the validators' exceptions."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import divflag
from divflag.arrangement import Arrangement, Flat, Triple, make_arrangement, triple
from divflag.catalog import CatalogEntry, CatalogError, RootSystemSpec, build_entry, intermediate, weyl_b
from divflag.exactalg import QQ
from divflag.freeness import (
    DivisionalFlag,
    EquivalenceReport,
    IFCertificate,
    IFResult,
    IFStep,
    Rank3Conditions,
    division_equivalences,
    divisional_flag_search,
    inductively_free,
    rank3_triple_conditions,
)
from divflag.lattice import IntersectionLattice, build_lattice
from divflag.multi import MultiArrangement, Multiplicity, RemainderReport, remainder_division, ziegler_restriction


def _records():
    """(record, its fields in order, a field to change, a new value for it)
    for every record that was a dataclass, but the lattice."""
    arr = weyl_b(3)
    certified = inductively_free(arr)
    zr = ziegler_restriction(arr, 0)
    return {
        Arrangement: (arr, ("field", "dim", "hyperplanes"), "dim", 4),
        Flat: (build_lattice(arr).flat(2, 1), ("parent", "codim", "members"), "codim", 1),
        Triple: (triple(arr, 0), ("full", "deleted", "restricted", "pivot", "trace"), "pivot", 1),
        CatalogEntry: (build_entry("braid"), ("name", "arrangement", "expected_chi"), "name", "x"),
        DivisionalFlag: (divisional_flag_search(arr), ("flats", "charpolys", "exponents"), "exponents", None),
        IFStep: (certified.certificate.steps[0], ("covector", "restriction_chi"), "restriction_chi", (1,)),
        IFCertificate: (certified.certificate, ("field", "dim", "steps"), "dim", 4),
        IFResult: (inductively_free(intermediate(4, 1, 3, 7)), ("status", "certificate", "nodes"), "nodes", 0),
        Rank3Conditions: (rank3_triple_conditions(arr, 0, 3, 5),
                          ("chi_splits", "deleted_chi_matches", "restriction_size_matches"),
                          "chi_splits", False),
        EquivalenceReport: (division_equivalences(arr, 0),
                            ("divides_full", "divides_deleted", "gcd_degree_full", "remainder_zero",
                             "deleted_remainder_zero", "restriction_certified_free"),
                            "restriction_certified_free", None),
        RemainderReport: (remainder_division(arr, 0),
                          ("pivot", "quotient_root", "r", "r0", "alternating_r", "chi0", "chi0_restriction"),
                          "pivot", 1),
        RootSystemSpec: (RootSystemSpec("B", 3), ("type", "rank"), "rank", 4),
        Multiplicity: (zr.mult, ("values",), "values", (9,) * len(zr.mult.values)),
        MultiArrangement: (zr, ("base", "mult"), "mult", zr.mult.bump(0, 1)),
    }


RECORDS = _records()


@pytest.mark.parametrize("cls", list(RECORDS), ids=[cls.__name__ for cls in RECORDS])
def test_record_keeps_the_dataclass_surface(cls):
    record, fields, name, value = RECORDS[cls]
    values = tuple(getattr(record, field) for field in fields)
    assert list(inspect.signature(cls).parameters) == list(fields)
    assert cls(*values) == cls(**dict(zip(fields, values))) == record
    assert hash(cls(*values)) == hash(record) == hash(values)
    assert cls(**{**dict(zip(fields, values)), name: value}) != record
    # the dataclass it was, on the same values
    mirror = dataclasses.make_dataclass(cls.__name__, fields, frozen=True)(*values)
    assert repr(record) == repr(mirror)
    assert repr(record).startswith(f"{cls.__name__}({fields[0]}=")
    assert hash(record) == hash(mirror)
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) == values[fields.index(name)]


def test_named_records_are_named_tuples_and_the_rest_are_slotted():
    for cls, (record, fields, _, _) in RECORDS.items():
        if issubclass(cls, tuple):
            assert cls._fields == fields
        else:
            assert cls.__slots__ == fields
            assert not hasattr(record, "__dict__")
    assert [cls.__name__ for cls in RECORDS if not issubclass(cls, tuple)] == [
        "Arrangement", "RootSystemSpec", "Multiplicity", "MultiArrangement"]


def test_lattice_compares_by_its_levels_and_ignores_its_caches():
    arr = weyl_b(3)
    lat, again = build_lattice(arr), build_lattice(arr)
    again.restriction_chi(1, 0)
    assert again.levels and again._chis
    assert lat == again and lat != build_lattice(weyl_b(4)) and lat != lat.mobius
    with pytest.raises(TypeError):
        hash(lat)
    fields = ("arrangement", "mobius", "_masks")
    mirror = dataclasses.make_dataclass("IntersectionLattice", fields)(*(getattr(lat, f) for f in fields))
    assert repr(lat) == repr(mirror)
    twin = IntersectionLattice(lat.arrangement, lat.mobius, lat._masks, lat._classes)
    assert twin == lat and twin._chis == {} and twin._levels is None
    assert not hasattr(lat, "__dict__")


@pytest.mark.parametrize("make,error,message", [
    (lambda: Multiplicity((1, 0)), ValueError, "multiplicities must be positive"),
    (lambda: Multiplicity((1, -2, 3)), ValueError, "multiplicities must be positive"),
    (lambda: Multiplicity((1, None)), TypeError, "not supported between"),
    (lambda: MultiArrangement(weyl_b(2), Multiplicity((1, 1))), ValueError,
     "multiplicity size does not match the arrangement"),
    (lambda: MultiArrangement(weyl_b(2), (1, 1, 1, 1)), AttributeError, "values"),
    (lambda: RootSystemSpec("E", 6), CatalogError, "unsupported root system type 'E'"),
    (lambda: RootSystemSpec("D", 1), CatalogError, "type D needs rank >= 2"),
    (lambda: RootSystemSpec("A", 0), CatalogError, "type A needs rank >= 1"),
    (lambda: RootSystemSpec("B", "3"), TypeError, "not supported between"),
], ids=["zero", "negative", "none", "size", "not-a-multiplicity", "type", "rank-d", "rank-a", "rank-str"])
def test_validators_raise_as_before(make, error, message):
    with pytest.raises(error, match=message):
        make()


def test_only_the_replaced_records_are_dataclasses():
    """``CharData`` and ``Rank3FreenessReport`` stay dataclasses, for
    ``dataclasses.replace``; every other record is defined without one."""
    found = set()
    for info in pkgutil.iter_modules(divflag.__path__):
        module = importlib.import_module(f"divflag.{info.name}")
        for name, obj in vars(module).items():
            if isinstance(obj, type) and obj.__module__ == module.__name__ and \
                    hasattr(obj, "__dataclass_fields__"):
                found.add(f"{info.name}.{name}")
    assert found == {"lattice.CharData", "multi.Rank3FreenessReport"}


def test_arrangements_of_other_classes_never_compare_equal():
    arr = make_arrangement(QQ, 2, [[1, 0], [0, 1]])
    assert arr != (arr.field, arr.dim, arr.hyperplanes)
    assert arr != Flat(arr, 0, ()) and Flat(arr, 0, ()) != arr
    assert len(arr) == 2 and bool(Arrangement(QQ, 2, ())) is False
