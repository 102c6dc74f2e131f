"""Intersection lattices, Möbius functions, characteristic polynomials,
and two independent oracles for cross-checking them.

The lattice is built rank by rank (``build_lattice``).  Each flat keeps its
member set as a bitmask, so interval containment (reverse inclusion) is a
single subset test, and the class masks of its cover partition, one per
cover, from which the covers are read.
"""

from __future__ import annotations

import itertools
from bisect import bisect
from dataclasses import dataclass
from math import lcm
from operator import itemgetter

from . import intpoly
from .arrangement import Arrangement, Flat, make_arrangement, ArrangementError
from .exactalg import QQ, int_elimination


class EmptyArrangementError(ValueError):
    """chi0 and the deconed Betti numbers are undefined for the empty arrangement."""


class BadPrimeError(ValueError):
    """The prime degenerates the lattice; finite-field counting is invalid."""


class IntersectionLattice:
    """L(A) as ``build_lattice`` leaves it: per level the member masks of the
    flats and their Möbius values from V, and per flat the class masks
    members(X) − members(Y) of its covers X (``()`` on the last level).  The
    remaining slots are caches filled on first read.  Every level down to
    the center is built, so every interval and minor can be read off it.  Two
    lattices compare equal by their arrangement, Möbius values and masks."""

    __slots__ = ("arrangement", "mobius", "_masks", "_classes",
                 "_levels", "_covers", "_where", "_chis")
    __hash__ = None

    def __init__(self, arrangement: Arrangement, mobius: tuple[tuple[int, ...], ...],
                 _masks: tuple[tuple[int, ...], ...],
                 _classes: tuple[tuple[tuple[int, ...], ...], ...],
                 _levels: tuple[tuple[Flat, ...], ...] | None = None,
                 _covers: tuple[tuple[tuple[int, ...], ...], ...] | None = None,
                 _where: dict[int, tuple[int, int]] | None = None,
                 _chis: dict[tuple[int, int, int], intpoly.IntPoly] | None = None):
        self.arrangement, self.mobius = arrangement, mobius
        self._masks, self._classes = _masks, _classes
        self._levels, self._covers, self._where = _levels, _covers, _where
        self._chis = {} if _chis is None else _chis

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.arrangement, self.mobius, self._masks)
                    == (other.arrangement, other.mobius, other._masks))
        return NotImplemented

    def __repr__(self) -> str:
        return (f"IntersectionLattice(arrangement={self.arrangement!r}, mobius={self.mobius!r}, "
                f"_masks={self._masks!r})")

    @property
    def levels(self) -> tuple[tuple[Flat, ...], ...]:
        """levels[i] = the flats of codimension i, made from the member
        masks on first read."""
        if self._levels is None:
            self._levels = tuple(tuple(self.flat(level, index) for index in range(len(masks)))
                                 for level, masks in enumerate(self._masks))
        return self._levels

    def level_sizes(self) -> tuple[int, ...]:
        return tuple(map(len, self._masks))

    def flats(self):
        for level in self.levels:
            yield from level

    def mask(self, level: int, index: int) -> int:
        return self._masks[level][index]

    def members(self, level: int, index: int) -> tuple[int, ...]:
        """The members of levels[level][index]: the set bits of its mask, in
        increasing order."""
        mask, bits = self._masks[level][index], []
        while mask:
            low = mask & -mask
            bits.append(low.bit_length() - 1)
            mask ^= low
        return tuple(bits)

    def flat(self, level: int, index: int) -> Flat:
        """levels[level][index], made anew from its member mask."""
        return Flat(self.arrangement, level, self.members(level, index))

    def _index(self) -> dict[int, tuple[int, int]]:
        """member bitmask -> (level, index), built on first use."""
        if self._where is None:
            self._where = {m: (level, index) for level, masks in enumerate(self._masks)
                           for index, m in enumerate(masks)}
        return self._where

    def locate(self, members) -> tuple[int, int] | None:
        """(level, index) of the flat with exactly these members, or None."""
        return self._index().get(sum(1 << h for h in set(members)))

    def index_of(self, mask: int) -> int:
        """Index within its level of the flat with this member mask."""
        return self._index()[mask][1]

    @property
    def covers(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """covers[i][j] = indices k at level i+1 with levels[i][j] covered by
        levels[i+1][k], ascending; their number is |A^X| for X = levels[i][j].
        Each is the flat whose members are members(X) ∪ c for one of the
        cover classes c that the build kept for X; the last level has none.
        A test oracle: the library reads ``cover_classes`` and ``index_of``."""
        if self._covers is None:
            where = self._index()
            self._covers = tuple(
                tuple(tuple(sorted(where[m | c][1] for c in classes))
                      for m, classes in zip(masks, level))
                for masks, level in zip(self._masks, self._classes))
        return self._covers

    def atom(self, h: int) -> int:
        """Index at level 1 of hyperplane h."""
        if not 0 <= h < len(self.arrangement):
            raise IndexError(f"hyperplane index {h} out of range")
        return self._masks[1].index(1 << h)

    def cover_classes(self, level: int, index: int) -> tuple[int, ...]:
        """The cover classes of X = levels[level][index], one per hyperplane of A^X."""
        return self._classes[level][index]

    def deleted_classes(self, level: int, index: int, deleted: int) -> int:
        """The union of the cover classes members(Y) − members(X) of
        X = levels[level][index] that lie inside the bitmask ``deleted``.
        The minor (A − S)^X depends on S only through it."""
        return sum(c for c in self._classes[level][index] if not c & ~deleted)

    def restriction_chi(self, level: int, index: int, deleted: int = 0) -> intpoly.IntPoly:
        """χ((A − S)^X; t) = Σ_Z μ(X, Z) t^{dim Z} for X = levels[level][index]
        and S the bitmask ``deleted``.  S is first reduced to
        ``deleted_classes``, so one minor is computed once whichever S
        reaches it, and each result is cached.  χ(A), at X = V and S = ∅, is
        the sum of each level's Möbius values, which the build computed by
        the same recursion; every other minor takes one ``_weisner_walk``."""
        if deleted:
            deleted = self.deleted_classes(level, index, deleted)
        chi = self._chis.get((level, index, deleted))
        if chi is None:
            if level == deleted == 0:
                coeffs = [0] * (self.arrangement.dim + 1)
                for codim, mob in enumerate(self.mobius):
                    coeffs[-1 - codim] = sum(mob)
                chi = intpoly.poly(coeffs)
            else:
                chi = self._weisner_walk(level, index, deleted)
            self._chis[level, index, deleted] = chi
        return chi

    def deletion_chi(self, level: int, index: int, deleted: int, k: int) -> intpoly.IntPoly:
        """χ(M − H) for the minor M = (A − S)^X, X = levels[level][index] and S
        the bitmask ``deleted``, and H the hyperplane of M given by the cover
        Y = levels[level + 1][k] of X; M − H deletes members(Y) − members(X)
        too.  By deletion–restriction (Orlik–Terao, *Arrangements of
        Hyperplanes*, Thm 2.56), χ(M − H) = χ(M) + χ(M^H) with M^H =
        (A − S)^Y, both through ``restriction_chi``.  The result is cached
        where ``restriction_chi`` looks M − H up, so no walk computes it."""
        cls = self._masks[level + 1][k] & ~self._masks[level][index]
        if cls not in self._classes[level][index] or not cls & ~deleted:
            raise ValueError(f"flat {k} at level {level + 1} is not a hyperplane of the minor")
        key = (level, index, self.deleted_classes(level, index, deleted | cls))
        chi = self._chis.get(key)
        if chi is None:
            chi = self._chis[key] = intpoly.add(self.restriction_chi(level, index, deleted),
                                                self.restriction_chi(level + 1, k, deleted))
        return chi

    def _weisner_walk(self, level: int, index: int, deleted: int) -> intpoly.IntPoly:
        """χ((A − S)^X) over the flats Z = W ∧ K of the minor: W its flat one
        level down, K ∉ S.  Weisner's theorem with the atom K =
        max(members Z − members X − S) gives μ(X, Z) = −Σ μ(X, W) over the
        minor's W ⋖ Z with K ∉ W, as in ``build_lattice`` (X = V, S = ∅).
        The sums are keyed by mask: W reaches Z = W | c for each cover class
        c of W, K ∉ W exactly when K ∈ c, and each W's index is looked up once."""
        dim = self.arrangement.dim
        coeffs = [0] * (dim - level + 1)
        coeffs[dim - level] = 1
        base = self._masks[level][index]
        current = {base: 1}  # μ(X, W) over the minor's flats W of one level
        where, free = self._index(), ~(base | deleted)
        for lvl in range(level, len(self._masks) - 1):
            classes = self._classes[lvl]
            sums: dict[int, int] = {}
            for w, mu in current.items():
                for c in classes[where[w][1]]:
                    z = w | c
                    if 1 << (z & free).bit_length() >> 1 & c:
                        sums[z] = sums.get(z, 0) + mu
            current = {z: -s for z, s in sums.items()}
            coeffs[dim - lvl - 1] = sum(current.values())
        return intpoly.poly(coeffs)


def _row_order(field, level, den, heads):
    """Sort key ordering the entries of a level by their rows (entry[0]).

    Over Q the rows are fraction-free: row i, scaled by L/d_i for d_i its
    pivot and L the lcm of the level's pivots, is L times the rref row.
    Every flat of a level has as many rows, so the flattened integers sort
    in the order of the rref rows, and the sort compares ints.  The build
    carries L as ``den``, and the rows are scanned only when it is 0.  When
    L is 1 (as on every level of a Weyl or braid arrangement) the keys are
    the rows, as over F_p.  If also ``heads`` (each flat has its finder's
    rows under a new head row), flats with one head row differ in their
    finders' rows and come in their finders' order: sorting stably by the
    head row is the rref order.
    """
    if field != QQ:
        den = 1
    elif not den:
        den = lcm(*(row[c] for entry in level for row, c in zip(entry[0], entry[1])))
    if den != 1:
        return lambda entry: tuple(x * (den // row[c]) for row, c in zip(entry[0], entry[1])
                                   for x in row)
    return (lambda entry: entry[0][0]) if heads else itemgetter(0)


def build_lattice(arr: Arrangement) -> IntersectionLattice:
    """Levels, members, and Möbius values of the intersection lattice, every
    level from V down to the center.

    Each flat Y of a level carries its cover partition: the non-members of
    Y grouped into classes, one per cover Y ⋖ X, with members(X) =
    members(Y) ∪ class.  h and h' share a class exactly when their covectors
    have the same canonical ``residual`` modulo Y's rows, and the classes
    are disjoint and cover every non-member (the covers of a flat partition
    its non-members; Oxley, *Matroid Theory*, ch. 1).  So a class r of Y
    names the exact member mask of its cover, and the next level is every
    such mask, found once.  V's classes are the hyperplanes themselves.

    The first Y in level order to reach X gives X its rows, Y's with r
    placed by its lead ℓ; ``insert`` runs only to eliminate, when a row of
    Y is nonzero at ℓ (never in a Weyl or braid arrangement).  Y also gives
    X its partition: each other class r' of Y keeps its bits and its
    residual reduced by r alone.  That residual is canonical for X:
    r' − (r'[ℓ]/r[ℓ])·r vanishes on every pivot of X and lies in the span
    of any covector of the class and the rows of X, and a canonical
    residual is unique.  When
    r'[ℓ] = 0, r' is already canonical and kept as it is.  The reduction
    depends on (r, r') only, and in a root system the same pairs recur
    across the build, so each pair is reduced once per build.  When r' also
    leads at ℓ, span(r, r') meets x_ℓ = 0 in one line, so r reduced by r' is
    the same canonical residual, and one reduction is kept for both orders;
    when the leads differ, the one with the higher lead is zero at the
    other's and is kept as it is (Weyl B6: 235 one-row reductions per
    build, E6: 9 689 beside 3 571 inserts).  Residuals go by small int ids,
    given the first time a reduction makes one (hyperplane h has id h), so
    a partition maps ids to class bits and the per-pair table maps ids to
    ids; the tables are local to the call.  A line X (codimension dim - 1)
    needs none: its only cover is the origin, so its partition is one
    class, every non-member, whose residual is the unit vector of the one
    column that is not a pivot of X, made when a line first needs it.

    Every cover pair Y ⋖ X is visited, and with m = max(X) the pairs that
    avoid H_m are those with m in Y's class.  Weisner's theorem for the atom
    H_m gives μ(X) = -Σ μ(Y) over them (Stanley, *Enumerative Combinatorics*
    I, §3.9; Orlik–Terao, *Arrangements of Hyperplanes*, ch. 2).

    Rows are built in plain int arithmetic (``int_elimination``): the rref
    over F_p, and over Q the fraction-free reduced rows of the integer
    covectors, which are exact for any coefficients.  They order each level
    and are kept for the last level built only.  The lattice keeps each
    flat's member mask and the class masks of its partition, not the
    residuals; ``flat`` and ``levels`` make ``Flat`` objects from the masks
    on demand, and ``covers`` reads the cover relation from the classes; the
    last level, the center, has no non-members, so its partitions are empty
    and the build stops when it finds no further level.
    """
    field = arr.field
    residual, insert = int_elimination(field)

    # residual id -> residual, and back; at V every hyperplane is a class,
    # and a normalized covector is its own residual modulo no rows, so the
    # id of hyperplane h is h
    vecs = list(arr.hyperplanes)
    ids = {cov: h for h, cov in enumerate(vecs)}

    def intern(v) -> int:
        i = ids.get(v)
        if i is None:
            i = ids[v] = len(vecs)
            vecs.append(v)
        return i

    # a partition maps the residual id of each class to its bits
    partition = {h: 1 << h for h in range(len(vecs))}
    masks, mobius, classes = [(0,)], [(1,)], []
    # the flats of the last level: [rows, pivots, member mask, μ, partition, pivot lcm]
    frontier = [[(), (), 0, 1, partition, 1]]
    # c -> id of e_c, the residual of every non-member of a line whose free column is c
    units: dict[int, int] = {}
    # a level has at most C(dim, codim) pivot sets, each kept as one tuple
    pivot_sets: dict[tuple[int, ...], tuple[int, ...]] = {}
    everything = (1 << len(arr)) - 1
    # class id r -> (its lead, {id s -> id of s reduced by r}): the same pair
    # recurs across the flats of a root system
    reductions: dict[int, tuple[int, dict[int, int]]] = {}
    while True:
        lines = len(masks) == arr.dim - 1
        found: dict[int, list] = {}  # member mask -> [rows, pivots, mask, Σμ, partition, lcm]
        heads = True  # every new flat's rows are its finder's under a new head row
        frontier.reverse()
        level_classes: list[tuple[int, ...]] = []
        classes.append(level_classes)
        while frontier:
            rows, pivots, mask, mu, partition, den = frontier.pop()
            level_classes.append(tuple(partition.values()))
            for r, bits in partition.items():
                x = mask | bits
                entry = found.get(x)
                if entry is None:
                    vr = vecs[r]
                    known = reductions.get(r)
                    if known is None:
                        for lead, a in enumerate(vr):
                            if a:
                                break
                        known = reductions[r] = (lead, {})
                    lead, reduced = known
                    for row in rows:
                        if row[lead]:
                            new_rows, new_pivots = insert(rows, pivots, vr)
                            new_den, heads = 0, False
                            break
                    else:
                        k = bisect(pivots, lead)
                        if k:
                            heads = False
                        new_rows = rows[:k] + (vr,) + rows[k:]
                        new_pivots = pivots[:k] + (lead,) + pivots[k:]
                        new_den = den if vr[lead] == 1 else lcm(den, vr[lead])
                    if lines:
                        # a line's only cover is the origin; its pivots are
                        # every column but one, the sum 0 + 1 + ... + (dim - 1)
                        # less theirs
                        rest = everything & ~x
                        free = arr.dim * (arr.dim - 1) // 2 - sum(new_pivots)
                        if free not in units:
                            units[free] = intern(tuple(int(i == free) for i in range(arr.dim)))
                        child = {units[free]: rest} if rest else {}
                    else:
                        child = {}
                        for s, other in partition.items():
                            if s != r:
                                t = reduced.get(s)
                                if t is None:
                                    vs = vecs[s]
                                    if vs[lead]:
                                        t = intern(residual((vr,), (lead,), vs))
                                        if not any(vs[:lead]):
                                            # s leads at r's lead too, and r
                                            # reduced by s is the same residual
                                            reductions.setdefault(s, (lead, {}))[1][r] = t
                                    else:
                                        # a class zero at r's lead keeps its residual
                                        t = s
                                    reduced[s] = t
                                # a new class is Y's int itself, not a copy of it
                                child[t] = child[t] | other if t in child else other
                    new_pivots = pivot_sets.setdefault(new_pivots, new_pivots)
                    entry = found[x] = [new_rows, new_pivots, x, 0, child, new_den]
                # bits and mask are disjoint, so max(X) is in Y's class
                # exactly when bits > mask
                if bits > mask:
                    entry[3] += mu
        if not found:
            break
        frontier = list(found.values())
        frontier.sort(key=_row_order(field, frontier, lcm(*(e[5] for e in frontier)), heads))
        for entry in frontier:
            entry[3] = -entry[3]
        masks.append(tuple(entry[2] for entry in frontier))
        mobius.append(tuple(entry[3] for entry in frontier))

    return IntersectionLattice(
        arrangement=arr,
        mobius=tuple(mobius),
        _masks=tuple(masks),
        _classes=tuple(map(tuple, classes)),
    )


def rank2_flats(arr: Arrangement) -> tuple[Flat, ...]:
    """The codimension-2 flats, level 2 of L(A)."""
    lat = build_lattice(arr)
    sizes = lat.level_sizes()
    return tuple(lat.flat(2, index) for index in range(sizes[2])) if len(sizes) > 2 else ()


@dataclass(frozen=True)
class CharData:
    """Characteristic and Poincaré polynomials with their Betti views."""

    arrangement: Arrangement
    chi: intpoly.IntPoly
    poincare: intpoly.IntPoly
    betti: tuple[int, ...]
    _chi0: intpoly.IntPoly | None
    _betti_dec: tuple[int, ...] | None

    @property
    def chi0(self) -> intpoly.IntPoly:
        if self._chi0 is None:
            raise EmptyArrangementError("chi0 is undefined for the empty arrangement")
        return self._chi0

    @property
    def betti_dec(self) -> tuple[int, ...]:
        if self._betti_dec is None:
            raise EmptyArrangementError("deconed Betti numbers need a nonempty arrangement")
        return self._betti_dec

    @property
    def b2_dec(self) -> int:
        """Coefficient of t^(dim-3) in chi0: the second Betti number after deconing."""
        return self.betti_dec[2] if len(self.betti_dec) > 2 else 0


def char_data(arr: Arrangement, lattice: IntersectionLattice | None = None) -> CharData:
    if lattice is None:
        lattice = build_lattice(arr)
    elif lattice.arrangement != arr:
        raise ValueError("char_data needs the lattice of this arrangement")
    ell = arr.dim
    chi = lattice.restriction_chi(0, 0)
    betti = tuple((-1) ** i * intpoly.coeff(chi, ell - i) for i in range(ell + 1))
    poincare = intpoly.poly(betti)
    if len(arr) == 0:
        chi0 = None
        betti_dec = None
    else:
        chi0, rem = intpoly.div_rem(chi, (-1, 1))
        if rem != intpoly.ZERO:
            raise ArithmeticError("(t-1) must divide chi of a nonempty arrangement")
        betti_dec = tuple((-1) ** i * intpoly.coeff(chi0, ell - 1 - i) for i in range(ell))
    return CharData(arr, chi, poincare, betti, chi0, betti_dec)


WHITNEY_CAP = 16


def whitney_oracle(arr: Arrangement) -> intpoly.IntPoly:
    """Characteristic polynomial by brute force over all subsets:
    sum over B of (-1)^|B| t^(dim - rank(B)).  Independent of the Möbius path.
    The subsets are visited depth first, each reduced rows of its parent
    extended by one hyperplane, so each costs one ``residual``."""
    n = len(arr)
    if n > WHITNEY_CAP:
        raise ValueError(f"whitney oracle capped at {WHITNEY_CAP} hyperplanes, got {n}")
    residual, insert = int_elimination(arr.field)
    coeffs = [0] * (arr.dim + 1)

    def visit(start, rows, pivots, sign):
        # the subsets that extend the current one by hyperplanes from start on
        coeffs[arr.dim - len(pivots)] += sign
        for h in range(start, n):
            r = residual(rows, pivots, arr.hyperplanes[h])
            if r is None:
                visit(h + 1, rows, pivots, -sign)
            else:
                visit(h + 1, *insert(rows, pivots, r), -sign)

    visit(0, (), (), 1)
    return intpoly.poly(coeffs)


def point_count_oracle(arr: Arrangement, q: int) -> int:
    """Points of F_q^dim avoiding every hyperplane; equals chi(q) for good q.

    A prime is good when reduction does not change the lattice; level sizes
    over F_q are compared against the rational ones and the first
    disagreeing level is reported otherwise.
    """
    from .exactalg import PrimeField, is_prime

    if not is_prime(q):
        raise BadPrimeError(f"{q} is not prime")
    if arr.field != QQ:
        raise ValueError("the point count oracle reduces arrangements over Q")
    fq = PrimeField(q)
    reduced = []
    for i, cov in enumerate(arr.hyperplanes):
        row = tuple(c % q for c in cov)
        if all(x == 0 for x in row):
            raise BadPrimeError(f"hyperplane {i} vanishes modulo {q}")
        reduced.append(row)
    try:
        arr_q = make_arrangement(fq, arr.dim, reduced)
    except ArrangementError as exc:
        raise BadPrimeError(f"hyperplanes collide modulo {q}: {exc}") from None
    sizes_q = build_lattice(arr_q).level_sizes()
    sizes = build_lattice(arr).level_sizes()
    if sizes_q != sizes:
        for lvl in range(max(len(sizes), len(sizes_q))):
            a = sizes[lvl] if lvl < len(sizes) else 0
            b = sizes_q[lvl] if lvl < len(sizes_q) else 0
            if a != b:
                raise BadPrimeError(
                    f"level {lvl} has {b} flats modulo {q} but {a} over Q"
                )
    count = 0
    for point in itertools.product(range(q), repeat=arr.dim):
        for cov in reduced:
            s = 0
            for c, x in zip(cov, point):
                s += c * x
            if s % q == 0:
                break
        else:
            count += 1
    return count
