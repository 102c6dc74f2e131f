"""Central hyperplane arrangements and their basic constructions.

An arrangement is an ambient dimension plus a duplicate-free list of
normalized covectors over one field, each in the canonical int form of
``exactalg``'s elimination: primitive integers with a positive lead over Q,
residues with lead 1 over F_p.  A flat is its closed member set, the
maximal set of hyperplane indices containing it, which makes flat identity
a tuple comparison; whatever needs its coordinates reduces the members'
covectors with ``int_rref``.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .exactalg import Field, FieldError, int_elimination, int_rref, normalize_covector


class ArrangementError(ValueError):
    """Malformed arrangement input: zero, duplicate, or mismatched covectors,
    or an entry that is not a scalar of the field."""


class FrozenRecord:
    """Base of the records that validate their fields or define ``__len__``.
    A subclass names its fields in ``__slots__`` and sets them in
    ``__init__`` with ``object.__setattr__``; equality (between records of
    one class), hash and repr then read the fields in that order, as a
    frozen dataclass does, and no field can be assigned or deleted."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Arrangement(FrozenRecord):
    __slots__ = ("field", "dim", "hyperplanes")

    def __init__(self, field: Field, dim: int, hyperplanes: tuple[tuple, ...]):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "hyperplanes", hyperplanes)

    def __len__(self) -> int:
        return len(self.hyperplanes)


def make_arrangement(field: Field, dim: int, covectors: Iterable[Sequence]) -> Arrangement:
    if dim < 1:
        raise ArrangementError("ambient dimension must be at least 1")
    normalized = []
    seen = {}
    for i, raw in enumerate(covectors):
        row = list(raw)
        if len(row) != dim:
            raise ArrangementError(f"covector {i} has length {len(row)}, expected {dim}")
        try:
            cov = normalize_covector(field, row)
        except FieldError as exc:
            raise ArrangementError(f"covector {i}: {exc}") from None
        except ValueError:
            raise ArrangementError(f"covector {i} is zero") from None
        if cov in seen:
            raise ArrangementError(f"covectors {seen[cov]} and {i} define the same hyperplane")
        seen[cov] = i
        normalized.append(cov)
    return Arrangement(field, dim, tuple(normalized))


class Flat(NamedTuple):
    """Element of the intersection lattice: its codimension and the full
    set of hyperplane indices containing it."""

    parent: Arrangement
    codim: int
    members: tuple[int, ...]


def top_flat(arr: Arrangement) -> Flat:
    return Flat(arr, 0, ())


def hyperplane_flat(arr: Arrangement, h: int) -> Flat:
    if not 0 <= h < len(arr):
        raise IndexError(f"hyperplane index {h} out of range")
    return Flat(arr, 1, (h,))


def _reduced_rows(arr: Arrangement, members: Iterable[int]):
    """``int_rref`` of the members' covectors: (rows, pivots)."""
    return int_rref(arr.field, [arr.hyperplanes[h] for h in members])


def flat_from_members(arr: Arrangement, members: Iterable[int]) -> Flat:
    """Flat spanned by the given hyperplanes; members are closed up to the
    maximal set containing the intersection."""
    idx = sorted(set(members))
    for h in idx:
        if not 0 <= h < len(arr):
            raise IndexError(f"hyperplane index {h} out of range")
    rows, pivots = _reduced_rows(arr, idx)
    residual = int_elimination(arr.field)[0]
    members = tuple(h for h, cov in enumerate(arr.hyperplanes)
                    if residual(rows, pivots, cov) is None)
    return Flat(arr, len(rows), members)


def _check_flat(arr: Arrangement, flat: Flat) -> None:
    if flat.parent != arr:
        raise ValueError("flat does not belong to this arrangement")


def localization(arr: Arrangement, flat: Flat) -> Arrangement:
    """Sub-arrangement of the hyperplanes containing the flat, same ambient."""
    _check_flat(arr, flat)
    return Arrangement(arr.field, arr.dim, tuple(arr.hyperplanes[h] for h in flat.members))


class Restriction(NamedTuple):
    arrangement: Arrangement
    trace: tuple[tuple[int, ...], ...]


def restriction(arr: Arrangement, flat: Flat) -> Restriction:
    """Traces of the remaining hyperplanes on the flat, in canonical flat
    coordinates.

    The trace records which hyperplanes collapse onto each restricted
    hyperplane; its multiplicities are the Ziegler multiplicity data.  The
    coordinate basis of the flat comes from the free columns of the
    members' reduced rows (``int_rref``), so restrictions are reproducible
    bit for bit: a covector restricts to its residual modulo those rows,
    read at the free columns.  A residual is canonical and zero at the
    pivot columns, so it stays canonical when read at the free columns, and
    two hyperplanes have the same trace exactly when their residuals are
    equal.
    """
    _check_flat(arr, flat)
    new_dim = arr.dim - flat.codim
    if new_dim < 1:
        raise ValueError("cannot restrict to a zero-dimensional flat")
    rows, pivots = _reduced_rows(arr, flat.members)
    if len(pivots) != flat.codim:
        raise ValueError(f"a flat of codimension {flat.codim} has members of rank {len(pivots)}")
    field = arr.field
    residual = int_elimination(field)[0]
    free = [c for c in range(arr.dim) if c not in pivots]
    member_set = set(flat.members)
    classes: dict[tuple, int] = {}  # residual -> index of its restricted hyperplane
    covs: list[tuple] = []
    trace: list[list[int]] = []
    for h, cov in enumerate(arr.hyperplanes):
        if h in member_set:
            continue
        r = residual(rows, pivots, cov)
        if r is None:
            raise ValueError(f"hyperplane {h} contains the flat but is not one of its members")
        j = classes.get(r)
        if j is None:
            classes[r] = len(covs)
            covs.append(tuple([r[c] for c in free]))
            trace.append([h])
        else:
            trace[j].append(h)
    new_arr = Arrangement(field, new_dim, tuple(covs))
    return Restriction(new_arr, tuple(tuple(t) for t in trace))


def restrict_to_hyperplane(arr: Arrangement, h: int) -> Restriction:
    return restriction(arr, hyperplane_flat(arr, h))


def deletion(arr: Arrangement, h: int) -> Arrangement:
    if not 0 <= h < len(arr):
        raise IndexError(f"hyperplane index {h} out of range")
    covs = arr.hyperplanes[:h] + arr.hyperplanes[h + 1:]
    return Arrangement(arr.field, arr.dim, covs)


class Triple(NamedTuple):
    """An arrangement with the deletion and restriction at one hyperplane."""

    full: Arrangement
    deleted: Arrangement
    restricted: Arrangement
    pivot: int
    trace: tuple[tuple[int, ...], ...]


def triple(arr: Arrangement, h: int) -> Triple:
    restricted, trace = restrict_to_hyperplane(arr, h)
    return Triple(arr, deletion(arr, h), restricted, h, trace)


def cone(field: Field, dim: int, affine: Iterable[tuple[Sequence, object]]) -> Arrangement:
    """Central arrangement on the affine one: each (covector, c) becomes the
    hyperplane {covector = c*z} in one more dimension, plus {z = 0}."""
    covs = []
    for covector, c in affine:
        row = [field.coerce(x) for x in covector] + [field.neg(field.coerce(c))]
        covs.append(row)
    covs.append([field.zero] * dim + [field.one])
    try:
        return make_arrangement(field, dim + 1, covs)
    except ArrangementError as exc:
        raise ArrangementError(f"affine hyperplanes collide after coning: {exc}") from None


def rank_of(arr: Arrangement) -> int:
    _, pivots = _reduced_rows(arr, range(len(arr)))
    return len(pivots)


def essentialize(arr: Arrangement) -> Arrangement:
    """Same lattice in rank-many coordinates.

    The normals span an r-dimensional space with a canonical reduced basis;
    each covector is rewritten in that basis by reading its pivot-column
    entries, which is injective on the span so no hyperplanes collide.
    """
    _, pivots = _reduced_rows(arr, range(len(arr)))
    covs = [tuple(cov[p] for p in pivots) for cov in arr.hyperplanes]
    return make_arrangement(arr.field, len(pivots), covs)


def add_hyperplane(arr: Arrangement, covector: Sequence) -> Arrangement:
    """Arrangement with one more hyperplane appended (index len(arr))."""
    norm = normalize_covector(arr.field, covector)
    if norm in set(arr.hyperplanes):
        raise ArrangementError("hyperplane already present")
    return Arrangement(arr.field, arr.dim, arr.hyperplanes + (norm,))
