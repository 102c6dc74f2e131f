import collections
import fractions
import random
import sys
from math import comb, gcd, lcm

import pytest

from divflag import intpoly
from divflag import arrangement, freeness, lattice
from divflag.arrangement import (
    flat_from_members,
    localization,
    make_arrangement,
    restrict_to_hyperplane,
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
from divflag import multi
from divflag.exactalg import PrimeField, QQ, int_rref
from divflag.freeness import division_equivalences
from divflag.lattice import build_lattice, char_data, rank2_flats
from divflag.multi import (
    MultiArrangement,
    Multiplicity,
    b2_gap,
    b2_multi,
    constant_multiplicity,
    euler_mult_rank2,
    exp2,
    free3_decide,
    local_codim3_division_check,
    remainder_division,
    Rank3FreenessReport,
    ziegler_gap,
    ziegler_restriction,
)

from conftest import extend_rref, random_arrangement, random_rank2_multi, reference_kernel, reference_rref


def _lines(*covs):
    return make_arrangement(QQ, 2, covs)


def test_ziegler_xyzw():
    ma = ziegler_restriction(xyzw_example(), 3)
    assert len(ma.base) == 4
    assert ma.mult.values == (1, 1, 1, 1)
    assert ma.mult.total == 4


def test_ziegler_er():
    ma = ziegler_restriction(edelman_reiner_restriction(), 3)
    assert sorted(ma.mult.values) == [1, 1, 1, 2, 2, 2, 2]
    assert ma.mult.total == 11


def test_ziegler_boolean():
    ma = ziegler_restriction(boolean(3), 2)
    assert ma.mult.values == (1, 1)
    assert ma.base.hyperplanes == boolean(2).hyperplanes


def test_ziegler_total_always_size_minus_one():
    rng = random.Random(67)
    for _ in range(30):
        arr = random_arrangement(rng, rng.randint(2, 4), rng.randint(2, 7))
        h = rng.randrange(len(arr))
        assert ziegler_restriction(arr, h).mult.total == len(arr) - 1


def test_ziegler_dim1_rejected():
    arr = make_arrangement(QQ, 1, [[1]])
    with pytest.raises(ValueError):
        ziegler_restriction(arr, 0)


def test_exp2_closed_form():
    assert tuple(exp2(MultiArrangement(_lines((1, 0), (0, 1)), Multiplicity((2, 1))))) == (1, 2)
    tri = _lines((1, 0), (0, 1), (1, -1))
    assert tuple(exp2(constant_multiplicity(tri))) == (1, 2)


def test_exp2_solver_decomposable():
    # basis x^3 d/dx, y d/dy; second exponent stays >= |A| - 1
    ma = MultiArrangement(_lines((1, 0), (0, 1)), Multiplicity((3, 1)))
    assert tuple(exp2(ma)) == (1, 3)


def test_exp2_solver_balanced_triple():
    ma = MultiArrangement(_lines((1, 0), (0, 1), (1, 1)), Multiplicity((2, 2, 2)))
    assert tuple(exp2(ma)) == (3, 3)


def test_exp2_sum_is_total():
    rng = random.Random(71)
    for _ in range(60):
        ma = random_rank2_multi(rng)
        d1, d2 = exp2(ma)
        assert d1 + d2 == ma.mult.total
        assert d1 <= d2


def test_exp2_rejects_other_ranks():
    with pytest.raises(ValueError):
        exp2(constant_multiplicity(boolean(3)))


def test_exp2_embedded_rank2():
    # rank-2 arrangement sitting inside dim 4 gets essentialized first
    arr = make_arrangement(QQ, 4, [[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0]])
    assert tuple(exp2(constant_multiplicity(arr))) == (1, 2)


def _reference_two_coordinates(arr):
    """The lines of a rank-2 arrangement as pairs of field scalars, read at
    the pivots of the field-generic rref."""
    field = arr.field
    rows, pivots = reference_rref(field, arr.hyperplanes)
    if len(pivots) != 2:
        raise ValueError(f"expected a rank-2 arrangement, got rank {len(pivots)}")
    return [(field.coerce(cov[pivots[0]]), field.coerce(cov[pivots[1]])) for cov in arr.hyperplanes]


def _reference_rem_table(field, root, m, d):
    """t^i mod (t + root)^m for i = 0..d, as length-m coefficient rows."""
    g = [field.one]
    for _ in range(m):
        nxt = [field.zero] * (len(g) + 1)
        for i, c in enumerate(g):
            nxt[i + 1] = field.add(nxt[i + 1], c)
            nxt[i] = field.add(nxt[i], field.mul(root, c))
        g = nxt
    table = []
    cur = [field.zero] * m
    cur[0] = field.one
    table.append(tuple(cur))
    for _ in range(d):
        shifted = [field.zero] + cur[: m - 1]
        overflow = cur[m - 1]
        if overflow != field.zero:
            shifted = [field.sub(shifted[j], field.mul(overflow, g[j])) for j in range(m)]
        cur = shifted
        table.append(tuple(cur))
    return table


def _reference_kernel(field, pairs, mults, d):
    """The kernel of the degree-d containment conditions, with each line's
    rows taken from remainders mod (t + b/a)^m and solved by the
    field-generic ``reference_kernel``."""
    ncols = 2 * (d + 1)
    rows = []
    for (a, b), m in zip(pairs, mults):
        if a == field.zero or m > d + 1:
            for i in range(min(m, d + 1)):
                row = [field.zero] * ncols
                row[i] = a
                row[d + 1 + i] = b
                rows.append(row)
            continue
        table = _reference_rem_table(field, field.mul(field.inv(a), b), m, d)
        for j in range(m):
            row = [field.zero] * ncols
            for i in range(d + 1):
                w = table[d - i][j]
                row[i] = field.mul(a, w)
                row[d + 1 + i] = field.mul(b, w)
            rows.append(row)
    return reference_kernel(field, rows, ncols)


def _reference_form_mul(field, f, g):
    out = [field.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = field.add(out[i + j], field.mul(a, b))
    return out


def _reference_saito(field, theta1, d1, theta2, d2, pairs, mults):
    p1, q1 = theta1[: d1 + 1], theta1[d1 + 1:]
    p2, q2 = theta2[: d2 + 1], theta2[d2 + 1:]
    det = [field.sub(a, b) for a, b in zip(_reference_form_mul(field, p1, q2),
                                           _reference_form_mul(field, q1, p2))]
    target = [field.one]
    for (a, b), m in zip(pairs, mults):
        for _ in range(m):
            target = _reference_form_mul(field, target, [a, b])
    lead = next(i for i, c in enumerate(target) if c != field.zero)
    if det[lead] == field.zero:
        return False
    ratio = field.mul(det[lead], field.inv(target[lead]))
    return [field.mul(ratio, c) for c in target] == det


def _reference_second(field, theta1, d1, kernel, d):
    """The first kernel vector outside the span of the shifts of theta1, or
    None."""
    rows, pivots = (), ()
    for off in range(d - d1 + 1):
        zeros = [field.zero] * (d - d1 - off)
        p, q = list(theta1[: d1 + 1]), list(theta1[d1 + 1:])
        shift = [field.zero] * off + p + zeros + [field.zero] * off + q + zeros
        rows, pivots = extend_rref(field, rows, pivots, shift)
    for vec in kernel:
        if extend_rref(field, rows, pivots, vec) is not None:
            return vec
    return None


def _reference_exp2(ma):
    """The degree-by-degree scan that exp2's one-kernel rule replaced, on
    field scalars: d1 is the first degree with a derivation, d2 the first
    degree whose kernel outgrows the polynomial multiples of the first
    generator, and the pair must pass the Saito determinant condition."""
    field = ma.base.field
    n = len(ma.base)
    mults = ma.mult.values
    total = ma.mult.total
    pairs = _reference_two_coordinates(ma.base)
    if total <= 2 * n - 1:
        lo, hi = sorted((total - n + 1, n - 1))
        return multi.Exponents2(lo, hi)
    d1 = theta1 = None
    for d in range(total + 1):
        kernel = _reference_kernel(field, pairs, mults, d)
        if d1 is None and kernel:
            d1, theta1 = d, kernel[0]
        if d1 is not None and len(kernel) > d - d1 + 1:
            theta2 = _reference_second(field, theta1, d1, kernel, d)
            if theta2 is not None:
                assert d1 + d == total
                assert _reference_saito(field, theta1, d1, theta2, d, pairs, mults)
                return multi.Exponents2(d1, d)
    raise AssertionError("rank-2 exponent search exceeded the total multiplicity bound")


def _solver_regime(ma, exponents):
    """Which case of the one-kernel rule decides a multiarrangement past the
    closed form, at c = floor(|m|/2): the exponents are (c, c), or d1 = c
    below d2 = c + 1, or d1 lies below c."""
    c = ma.mult.total // 2
    d1, d2 = exponents
    return "balanced" if d1 == d2 else ("at" if d1 == c else "below")


@pytest.mark.parametrize("field", [QQ, PrimeField(5), PrimeField(7), PrimeField(101),
                                   PrimeField(2**31 - 1)],
                         ids=["Q", "F5", "F7", "F101", "F2147483647"])
def test_exp2_matches_reference_scan(field):
    # primes with at least 6 points on the projective line: the generator
    # needs as many distinct lines as it draws
    rng = random.Random(163 if field == QQ else 163 + field.p)
    regimes = set()
    for _ in range(60):
        ma = random_rank2_multi(rng, field=field, max_mult=6)
        expected = _reference_exp2(ma)
        assert exp2(ma) == expected
        if ma.mult.total > 2 * len(ma.base) - 1:
            regimes.add(_solver_regime(ma, expected))
    assert regimes == {"balanced", "at", "below"}


@pytest.mark.parametrize("lines,mults", [
    ([(1, 0), (0, 1), (1, 1)], (4, 4, 4)),  # balanced
    ([(1, 0), (0, 1), (1, 1), (1, -1)], (3, 3, 3, 3)),  # balanced
    ([(1, 0), (0, 1), (1, 1)], (9, 1, 1)),  # dominant
    ([(1, 0), (0, 1), (1, 1), (1, 2)], (10, 2, 1, 1)),  # dominant
    ([(1, 0), (0, 1), (1, 1), (1, -1), (1, 2)], (8,) * 5),
    ([(1, 0), (0, 1), (1, 1), (1, -1), (1, 2)], (1, 2, 3, 4, 5)),
    ([(1, 0), (0, 1), (1, 1), (1, 2)], (2, 8, 2, 2)),  # even, d1 = |m|/2 - 1
    ([(1, 0), (0, 1), (1, 1), (1, -1), (1, 2)], (2, 2, 2, 10, 2)),  # even, d1 = |m|/2 - 1
])
def test_exp2_matches_reference_named(lines, mults):
    ma = MultiArrangement(_lines(*lines), Multiplicity(mults))
    assert exp2(ma) == _reference_exp2(ma)


def _full_width_rows(pairs, mults, d, p):
    """The containment rows of every line on all 2(d + 1) columns, a line
    (0, b) included: the row builder that the axis reduction replaced."""
    ncols = 2 * (d + 1)
    rows = []
    for (a, b), m in zip(pairs, mults):
        m = min(m, d + 1)
        if a == 0:
            for i in range(m):
                row = [0] * ncols
                row[d + 1 + i] = b
                rows.append(row)
            continue
        for j in range(m):
            row = [0] * ncols
            for i in range(d - j + 1):
                w = comb(d - i, j) * (-b) ** (d - i - j) * a**i
                row[i] = a * w
                row[d + 1 + i] = b * w
            rows.append([x % p for x in row] if p else row)
    return rows


def _full_width_kernel(field, pairs, mults, d):
    """The kernel of the full-width system, solved by ``int_rref`` on all
    2(d + 1) columns with no column dropped: the oracle for the axis
    reduction of ``_derivation_kernel``."""
    p = field.p if field.kind == "Fp" else 0
    ncols = 2 * (d + 1)
    rows, pivots = int_rref(field, _full_width_rows(pairs, mults, d, p))
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        meets = [(row[fc], row[pc], pc) for row, pc in zip(rows, pivots) if row[fc]]
        scale = lcm(*[lead for _, lead, _ in meets])
        v = [0] * ncols
        v[fc] = scale
        for x, lead, pc in meets:
            v[pc] = -x * (scale // lead)
        basis.append(tuple(x % p for x in v) if p else tuple(v))
    return basis


# the lines (a, b) with a, b != 0 that the general-position batteries draw
GENERAL_LINES = [(a, b) for a in (1, 2, 3) for b in range(-4, 5) if b and gcd(a, b) == 1]


def _general_position_multi(rng, field, max_lines, max_mult):
    """A rank-2 multiarrangement no line of which is a coordinate line.  Over
    F_2 every rank-2 arrangement has one in its two coordinates, so there
    the three lines of F_2^2 sit in F_2^3 on planes that are not coordinate
    planes."""
    if field == PrimeField(2):
        arr = make_arrangement(field, 3, [(1, 1, 0), (0, 1, 1), (1, 0, 1)])
    else:
        pool = [(1, s) for s in range(1, field.p)] if field != QQ and field.p < 11 else GENERAL_LINES
        lines = rng.sample(pool, rng.randint(2, min(max_lines, len(pool))))
        arr = make_arrangement(field, 2, lines)
        assert all(a and b for a, b in multi._two_coordinates(arr))
    return MultiArrangement(arr, Multiplicity(tuple(rng.randint(1, max_mult) for _ in arr.hyperplanes)))


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(7),
                                   PrimeField(2**31 - 1)],
                         ids=["Q", "F2", "F3", "F5", "F7", "F2147483647"])
def test_axis_kernel_matches_full_width_oracle(field):
    # in the basis of the two heaviest lines, the reduced system has the
    # kernel dimension of the full-width system at every degree, and the
    # exponents are the oracle's
    rng = random.Random(181 if field == QQ else 181 + field.p)
    for _ in range(10):
        ma = _general_position_multi(rng, field, max_lines=4, max_mult=6)
        mults = ma.mult.values
        pairs = multi._two_coordinates(ma.base)
        axes = multi._axis_coordinates(field, pairs, mults)
        for d in range(ma.mult.total + 1):
            assert len(multi._derivation_kernel(field, axes, mults, d)) == \
                len(_full_width_kernel(field, pairs, mults, d))
        assert exp2(ma) == _reference_exp2(ma)


@pytest.mark.parametrize("field,dim,lines,mults", [
    (QQ, 2, [(1, 1), (1, 2), (1, 3), (1, -1)], (3, 5, 5, 2)),  # tied top multiplicities
    (QQ, 2, [(1, 1), (1, 2), (1, 3), (1, -1)], (4, 4, 4, 4)),  # all tied
    (QQ, 2, [(1, 1), (1, 2), (1, 3)], (9, 1, 1)),  # m_i = 9 > d = 5: all of P drops
    (QQ, 2, [(2, 1), (1, -3), (1, 1)], (1, 12, 2)),  # the heaviest line is not the first
    (QQ, 2, [(1, 1), (1, 2)], (4, 3)),  # two lines: no rows remain
    (PrimeField(2), 3, [(1, 1, 0), (0, 1, 1), (1, 0, 1)], (5, 4, 3)),  # m past p = 2
    (PrimeField(3), 2, [(1, 1), (1, 2), (1, 0), (0, 1)], (7, 4, 5, 3)),  # m past p = 3
    (QQ, 4, [(1, 0, 2, 0), (0, 1, 0, 3), (1, 1, 2, 3), (1, -1, 2, -3), (2, 1, 4, 3)],
     (4, 4, 3, 3, 2)),  # a rank-2 arrangement in dimension 4
], ids=["tied-top", "all-tied", "heavy-above-d", "heavy-last", "two-lines", "F2-past-p",
        "F3-past-p", "embedded-dim4"])
def test_exp2_axis_basis_named(field, dim, lines, mults):
    ma = MultiArrangement(make_arrangement(field, dim, lines), Multiplicity(mults))
    assert exp2(ma) == _reference_exp2(ma)


def test_exp2_solves_the_reduced_system(monkeypatch):
    # five lines in general position with m = (8,)*5: at d = 19 the two
    # heaviest lines drop 8 columns each, so 24 of the 40 columns reach
    # int_rref, and exp2's one solve, at d = 20, has 26 of 42; a fallback to
    # the full-width system fails here
    field = QQ
    ma = MultiArrangement(_lines((1, 1), (1, 2), (1, 3), (1, -1), (2, 1)), Multiplicity((8,) * 5))
    widths = []
    solve = multi.int_rref

    def spy(field, rows):
        rows = list(rows)
        widths.append({len(row) for row in rows})
        return solve(field, rows)

    pairs = multi._two_coordinates(ma.base)
    assert len(_full_width_rows(pairs, ma.mult.values, 19, 0)[0]) == 40
    axes = multi._axis_coordinates(field, pairs, ma.mult.values)
    monkeypatch.setattr(multi, "int_rref", spy)
    multi._derivation_kernel(field, axes, ma.mult.values, 19)
    assert widths == [{24}]
    # the axes are the two heaviest lines wherever they sit: at d = 11,
    # m = (2, 9, 3, 9, 1) leaves 24 - 9 - 9 columns
    heavy = (2, 9, 3, 9, 1)
    widths.clear()
    multi._derivation_kernel(field, multi._axis_coordinates(field, pairs, heavy), heavy, 11)
    assert widths == [{6}]
    widths.clear()
    assert tuple(exp2(ma)) == (20, 20)
    assert {26} in widths and {42} not in widths


SAITO_FAILURE = "no derivation of degree .* passes the Saito determinant condition with the first generator"


def _saito_spy(monkeypatch):
    """The (d1, d2, verdict) of every Saito check exp2 makes, in order."""
    check = multi._saito_check
    seen = []

    def spy(field, theta1, d1, theta2, d2, pairs, mults):
        verdict = check(field, theta1, d1, theta2, d2, pairs, mults)
        seen.append((d1, d2, verdict))
        return verdict

    monkeypatch.setattr(multi, "_saito_check", spy)
    return seen


def test_exp2_saito_guard_fires(monkeypatch):
    # at m = (1, 2, 2, 4) the first two degree-5 kernel vectors are
    # multiples of the degree-4 generator, so their determinants with it
    # are 0; a kernel truncated to them has no second generator, and the
    # Saito check must reject both and raise by name, also under python -O
    solve = multi._derivation_kernel
    kernels = {}

    def truncated(field, pairs, mults, d):
        kernels[d] = solve(field, pairs, mults, d)[: 2 if d == 5 else None]
        return kernels[d]

    monkeypatch.setattr(multi, "_derivation_kernel", truncated)
    seen = _saito_spy(monkeypatch)
    ma = MultiArrangement(_lines((1, 0), (0, 1), (1, 1), (1, 2)), Multiplicity((1, 2, 2, 4)))
    with pytest.raises(AssertionError, match=SAITO_FAILURE):
        exp2(ma)
    assert seen == [(4, 5, False), (4, 5, False)]
    assert _reference_second(QQ, kernels[4][0], 4, kernels[5], 5) is None


@pytest.mark.parametrize("field,lines,mults,exponents,seen", [
    (QQ, [(1, 0), (0, 1), (1, 1), (1, 2)], (1, 2, 2, 4), (4, 5),
     [(4, 5, False), (4, 5, False), (4, 5, True)]),
    # the even total first tries the balanced pair at 9
    (QQ, [(1, 0), (0, 1), (1, 1), (1, 2), (1, 3)], (1, 5, 5, 6, 1), (8, 10),
     [(9, 9, False)] + [(8, 10, False)] * 3 + [(8, 10, True)]),
    (PrimeField(5), [(1, 0), (0, 1), (1, 1)], (2, 5, 6), (6, 7),
     [(6, 7, False), (6, 7, False), (6, 7, True)]),
], ids=["Q-4-lines", "Q-5-lines", "F5-3-lines"])
def test_exp2_second_generator_past_the_first_try(monkeypatch, field, lines, mults, exponents, seen):
    # the second generator is the first degree-d2 kernel vector that passes
    # the Saito check with the first; here the kernel opens with multiples of
    # the first generator, which the check rejects before one passes
    spied = _saito_spy(monkeypatch)
    ma = MultiArrangement(make_arrangement(field, 2, lines), Multiplicity(mults))
    assert tuple(exp2(ma)) == exponents == _reference_exp2(ma)
    assert spied == seen


def test_exp2_inconsistent_kernel_raises(monkeypatch):
    # an empty kernel at floor(|m|/2) contradicts freeness, for an odd and
    # an even total alike; it must raise even under python -O
    monkeypatch.setattr(multi, "_derivation_kernel", lambda field, pairs, mults, d: [])
    for mults in ((5, 1, 1), (2, 2, 2)):
        ma = MultiArrangement(_lines((1, 0), (0, 1), (1, 1)), Multiplicity(mults))
        with pytest.raises(AssertionError, match="no derivation of degree .*, half the total multiplicity"):
            exp2(ma)


FIVE_GENERAL_LINES = [(1, 1), (1, 2), (1, 3), (1, -1), (2, 1)]


@pytest.mark.parametrize("field", [QQ, PrimeField(2**31 - 1)], ids=["Q", "F2147483647"])
@pytest.mark.parametrize("lines,mults,exponents,degrees", [
    (FIVE_GENERAL_LINES, (8,) * 5, (20, 20), [20]),  # balanced: one solve
    ([(1, 0), (0, 1), (1, 1)], (6, 5, 6), (8, 9), [8, 9]),  # odd, d1 = floor(|m|/2)
    (FIVE_GENERAL_LINES, (18, 4, 4, 4, 4), (16, 18), [17, 16, 18]),  # even, d1 = |m|/2 - 1
    ([(1, 0), (0, 1), (1, 1)], (3, 9, 2), (5, 9), [7, 5, 9]),  # d1 below |m|/2 - 1
], ids=["balanced", "odd-at-half", "even-one-below", "even-far-below"])
def test_exp2_solve_degrees_per_regime(monkeypatch, field, lines, mults, exponents, degrees):
    # the degrees of exp2's kernel solves, in order, are deterministic: the
    # count at floor(|m|/2) first, then d1 unless it is that degree, then d2
    # unless the count already settled a balanced pair
    solve = multi._derivation_kernel
    seen = []

    def spy(field, pairs, mults, d):
        seen.append(d)
        return solve(field, pairs, mults, d)

    monkeypatch.setattr(multi, "_derivation_kernel", spy)
    ma = MultiArrangement(make_arrangement(field, 2, lines), Multiplicity(mults))
    assert tuple(exp2(ma)) == exponents
    assert seen == degrees


def test_exp2_missing_second_generator_raises(monkeypatch):
    # a kernel that holds only the first generator leaves no second one;
    # that must raise by name even under python -O
    solve = multi._derivation_kernel
    monkeypatch.setattr(multi, "_derivation_kernel",
                        lambda field, pairs, mults, d: solve(field, pairs, mults, d)[:1])
    ma = MultiArrangement(_lines((1, 0), (0, 1), (1, 1)), Multiplicity((2, 2, 2)))
    with pytest.raises(AssertionError, match=SAITO_FAILURE):
        exp2(ma)


@pytest.mark.parametrize("p,lines", [(2, 3), (3, 4)], ids=["F2", "F3"])
def test_exp2_matches_reference_small_characteristic(p, lines):
    # multiplicities up to 8 reach past p, where the Hasse coefficients of
    # the containment rows differ from ordinary derivatives
    field = PrimeField(p)
    rng = random.Random(173 + p)
    for _ in range(40):
        ma = random_rank2_multi(rng, field=field, max_lines=lines, max_mult=8)
        assert exp2(ma) == _reference_exp2(ma)


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["Q", "F3"])
def test_saito_check_accepts_the_product_up_to_a_unit(field):
    # lines x and y with multiplicity 1; derivations of degree 1 as the
    # coefficients of x, y in P and then in Q
    pairs, mults = [(1, 0), (0, 1)], (1, 1)
    x_dx, y_dy = (1, 0, 0, 0), (0, 0, 0, 1)

    def check(theta2):
        return multi._saito_check(field, x_dx, 1, theta2, 1, pairs, mults)

    assert check(y_dy)  # det = xy
    assert check((0, 0, 0, 2))  # det = 2xy, a unit multiple
    assert not check(x_dx)  # det = 0
    assert not check((0, 0, 1, 1))  # det = x(x + y)
    assert check((0, 0, 0, 3)) == (field == QQ)  # det = 3xy, zero over F_3


def test_exp2_runs_no_fraction_arithmetic():
    """Over Q the covectors are integer rows, and exp2 runs no code of the
    fractions module."""
    ma = MultiArrangement(_lines((1, 0), (0, 1), (1, 1), (1, -1), (1, 2)), Multiplicity((8,) * 5))
    called = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            called.add(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        exponents = exp2(ma)
    finally:
        sys.setprofile(None)
    assert tuple(exponents) == (20, 20)
    assert called == set()


def test_euler_mult_examples():
    tri = _lines((1, 0), (0, 1), (1, -1))
    assert euler_mult_rank2(MultiArrangement(tri, Multiplicity((2, 1, 1))), 0) == 2
    two = _lines((1, 0), (0, 1))
    assert euler_mult_rank2(MultiArrangement(two, Multiplicity((2, 2))), 0) == 2


def test_euler_mult_fast_regime_is_size_minus_one():
    rng = random.Random(73)
    for _ in range(40):
        ma = random_rank2_multi(rng, max_mult=2)
        if ma.mult.total > 2 * len(ma.base) - 1:
            continue
        h = next((i for i, v in enumerate(ma.mult.values) if v >= 2), None)
        if h is None:
            continue
        assert euler_mult_rank2(ma, h) == len(ma.base) - 1


def test_euler_mult_requires_mult2():
    two = _lines((1, 0), (0, 1))
    with pytest.raises(ValueError):
        euler_mult_rank2(MultiArrangement(two, Multiplicity((1, 1))), 0)


def test_euler_mult_and_bump_reject_indices_out_of_range():
    # h = -1 once read and bumped the last line, and the step returned 2
    ma = MultiArrangement(_lines((1, 0), (0, 1), (1, 1)), Multiplicity((1, 1, 3)))
    for h in (-1, -3, 3):
        with pytest.raises(IndexError, match=f"^hyperplane index {h} out of range$"):
            euler_mult_rank2(ma, h)
        with pytest.raises(IndexError, match=f"^hyperplane index {h} out of range$"):
            ma.mult.bump(h, 1)
    assert ma.mult.bump(2, -1).values == (1, 1, 2)
    with pytest.raises(ValueError, match="at least 2"):
        euler_mult_rank2(ma, 0)
    assert euler_mult_rank2(ma, 2) == 2


def test_exponent_drop_by_one():
    rng = random.Random(79)
    for _ in range(60):
        ma = random_rank2_multi(rng)
        h = next((i for i, v in enumerate(ma.mult.values) if v >= 2), None)
        if h is None:
            continue
        e = sorted(exp2(ma))
        e_drop = sorted(exp2(MultiArrangement(ma.base, ma.mult.bump(h, -1))))
        diffs = [(a, b) for a, b in zip(e, e_drop) if a != b]
        if not diffs:
            # sorted views can mask which slot moved; totals must still differ by 1
            assert sum(e) == sum(e_drop) + 1
        else:
            assert len(diffs) == 1 and diffs[0][0] - diffs[0][1] == 1


def test_b2_simple_matches_lattice():
    rng = random.Random(83)
    for _ in range(20):
        arr = random_arrangement(rng, rng.randint(2, 4), rng.randint(2, 7))
        assert b2_multi(constant_multiplicity(arr)) == char_data(arr).betti[2]


def test_b2_er_ziegler():
    assert b2_multi(ziegler_restriction(edelman_reiner_restriction(), 3)) == 39


def test_b2_braid():
    assert b2_multi(constant_multiplicity(braid(3))) == 2


def test_b2_step_bound_rank2():
    rng = random.Random(89)
    for _ in range(50):
        ma = random_rank2_multi(rng)
        h = next((i for i, v in enumerate(ma.mult.values) if v >= 2), None)
        if h is None:
            continue
        d1, d2 = exp2(ma)
        e1, e2 = exp2(MultiArrangement(ma.base, ma.mult.bump(h, -1)))
        assert d1 * d2 - e1 * e2 >= len(ma.base) - 1


def test_b2_difference_is_euler_multiplicity():
    rng = random.Random(97)
    for _ in range(40):
        ma = random_rank2_multi(rng)
        h = next((i for i, v in enumerate(ma.mult.values) if v >= 2), None)
        if h is None:
            continue
        d1, d2 = exp2(ma)
        e1, e2 = exp2(MultiArrangement(ma.base, ma.mult.bump(h, -1)))
        assert d1 * d2 - e1 * e2 == euler_mult_rank2(ma, h)


def test_remainder_xyzw():
    rep = remainder_division(xyzw_example(), 3)
    assert rep.quotient_root == 1
    assert rep.r == intpoly.poly([-1])
    assert rep.alternating_r == (0, 1)
    assert rep.r0 == 0


def test_remainder_er_divides():
    rep = remainder_division(edelman_reiner_restriction(), 3)
    assert rep.r == intpoly.ZERO
    assert rep.r0 == 0


def test_remainder_boolean():
    rep = remainder_division(boolean(3), 0)
    assert rep.quotient_root == 1
    assert rep.r == intpoly.ZERO
    assert rep.chi0 == intpoly.from_roots([1, 1])
    assert rep.chi0_restriction == intpoly.from_roots([1])


def test_remainder_r0_nonnegative_random():
    rng = random.Random(101)
    for _ in range(60):
        arr = random_arrangement(rng, rng.randint(3, 4), rng.randint(2, 8))
        h = rng.randrange(len(arr))
        assert remainder_division(arr, h).r0 >= 0


def test_remainder_low_dim_rejected():
    with pytest.raises(ValueError):
        remainder_division(boolean(2), 0)


def test_b2_gap_er_zero():
    assert b2_gap(edelman_reiner_restriction(), 3) == 0


def test_b2_gap_pentagon_zero_despite_division_failure():
    pent = pentagon_cone(31)
    assert b2_gap(pent.arrangement, pent.infinite_index) == 0
    ok, violations = local_codim3_division_check(pent.arrangement, pent.infinite_index)
    assert not ok
    assert violations


def test_b2_gap_nonnegative_random():
    rng = random.Random(103)
    for _ in range(40):
        arr = random_arrangement(rng, rng.randint(3, 4), rng.randint(2, 7))
        h = rng.randrange(len(arr))
        assert b2_gap(arr, h) >= 0


def test_free3_er_restriction():
    C = make_arrangement(QQ, 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1],
                                 [1, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1]])
    report = free3_decide(C)
    assert report.free
    assert report.exponents == (1, 3, 3)


def test_free3_xyzw_restriction():
    report = free3_decide(xyzw_restriction())
    assert not report.free
    assert report.exponents is None
    assert report.gap > 0


def test_free3_boolean():
    report = free3_decide(boolean(3))
    assert report.free
    assert report.exponents == (1, 1, 1)


def test_free3_requires_rank3():
    with pytest.raises(ValueError, match="^expected a rank-3 arrangement, got rank 2$"):
        free3_decide(boolean(2))
    with pytest.raises(ValueError, match="^expected a rank-3 arrangement, got rank 2$"):
        free3_decide(braid(3))  # rank 2 inside dim 3
    with pytest.raises(ValueError, match="^expected a rank-3 arrangement, got rank 4$"):
        free3_decide(boolean(4))


def test_free3_matches_terao_split():
    rng = random.Random(107)
    for _ in range(25):
        arr = random_arrangement(rng, 3, rng.randint(3, 8))
        from divflag.arrangement import rank_of
        if rank_of(arr) != 3:
            continue
        report = free3_decide(arr)
        roots = intpoly.linear_roots(char_data(arr).chi)
        if report.free:
            assert roots is not None
            assert tuple(sorted(roots)) == report.exponents


def _reference_b2_multi(ma):
    """b2 of a multiarrangement on its own lattice: exp2 at each geometric
    localization at a codimension-2 flat."""
    total = 0
    for flat in rank2_flats(ma.base):
        local_mult = Multiplicity(tuple(ma.mult.values[h] for h in flat.members))
        d1, d2 = exp2(MultiArrangement(localization(ma.base, flat), local_mult))
        total += d1 * d2
    return total


def _reference_b2_gap(arr, h):
    """The b2 gap on the geometric Ziegler restriction and a second lattice."""
    if len(arr) == 0:
        raise ValueError("b2 gap needs a nonempty arrangement")
    if arr.dim < 3:
        raise ValueError("b2 gap needs ambient dimension >= 3")
    gap = char_data(arr).b2_dec - _reference_b2_multi(ziegler_restriction(arr, h))
    if gap < 0:
        raise AssertionError(f"b2 gap {gap} is negative")
    return gap


def _reference_free3(arr):
    """The rank-3 decision on exp2 of the geometric Ziegler restriction at
    hyperplane 0 and b2 from ``char_data``."""
    if len(arr) == 0:
        raise ValueError("freeness decision needs a nonempty arrangement")
    lat = build_lattice(arr)
    if len(lat.level_sizes()) != 4:
        raise ValueError(f"expected a rank-3 arrangement, got rank {len(lat.level_sizes()) - 1}")
    witness = 0
    d1, d2 = exp2(ziegler_restriction(arr, witness))
    b2z = d1 * d2
    b2d = char_data(arr, lat).b2_dec
    gap = b2d - b2z
    if gap < 0:
        raise AssertionError(f"b2 gap {gap} is negative")
    if gap != 0:
        return Rank3FreenessReport(False, None, witness, gap, b2d, b2z)
    return Rank3FreenessReport(True, tuple(sorted((1, d1, d2))), witness, 0, b2d, b2z)


def _assert_ziegler_gaps_match_reference(arr):
    """b2_gap at every h; free3_decide on A and on every A^H of rank 3; and
    ziegler_gap at level 1, on A^H and each of its hyperplanes, against the
    reference gap of the geometric A^H."""
    lat = build_lattice(arr)
    if len(lat.level_sizes()) == 4:
        assert free3_decide(arr) == _reference_free3(arr)
    for h in range(len(arr)):
        assert b2_gap(arr, h) == _reference_b2_gap(arr, h)
        restricted, trace = restrict_to_hyperplane(arr, h)
        if not restricted.hyperplanes:
            continue
        if len(build_lattice(restricted).level_sizes()) == 4:
            assert free3_decide(restricted) == _reference_free3(restricted)
        if restricted.dim >= 3:
            atom = lat.atom(h)
            for k in lat.covers[1][atom]:
                j = next(j for j, t in enumerate(trace) if lat.mask(2, k) >> t[0] & 1)
                gap, b2, exponents = multi.ziegler_gap(lat, 1, atom, k)
                assert (gap, b2) == (_reference_b2_gap(restricted, j), char_data(restricted).b2_dec)
                assert b2 - gap == sum(d1 * d2 for d1, d2 in exponents)


ZIEGLER_GAP_INPUTS = [
    ("edelman-reiner", edelman_reiner_restriction()),
    ("xyzw", xyzw_example()),
    ("xyzw-restriction", xyzw_restriction()),
    ("pentagon-cone-31", pentagon_cone(31).arrangement),
    ("weyl-b3", weyl_b(3)),
    ("weyl-b4", weyl_b(4)),
    ("weyl-d4", weyl_d(4)),
    ("braid-5", braid(5)),
    ("intermediate-4-1", intermediate(4, 1, 3, 7)),
    ("shi-b3-k1", shi(RootSystemSpec("B", 3), 1)),
]


@pytest.fixture
def ziegler_branches(monkeypatch):
    """The branch of each ``ziegler_gap`` call, made directly or by b2_gap
    and free3_decide: True when it restricted A for a kernel solve, False
    when every wall took the closed form."""
    branches = []
    restrict, gap = multi.restriction, multi.ziegler_gap

    def restriction(*args):
        assert branches[-1] is False, "a second restriction in one ziegler_gap call"
        branches[-1] = True
        return restrict(*args)

    def ziegler_gap(*args):
        branches.append(False)
        return gap(*args)

    monkeypatch.setattr(multi, "restriction", restriction)
    monkeypatch.setattr(multi, "ziegler_gap", ziegler_gap)
    return branches


@pytest.mark.parametrize("name,arr", ZIEGLER_GAP_INPUTS, ids=[n for n, _ in ZIEGLER_GAP_INPUTS])
def test_ziegler_gaps_match_reference_catalog(name, arr, ziegler_branches):
    _assert_ziegler_gaps_match_reference(arr)
    assert set(ziegler_branches) == ZIEGLER_BRANCHES[name]


# the branches each catalog input takes: both over Q (Edelman–Reiner, D4,
# Shi) and over F_p (the pentagon cone over F_31, intermediate over F_7)
ZIEGLER_BRANCHES = {
    "edelman-reiner": {False, True},
    "xyzw": {False},
    "xyzw-restriction": {False},
    "pentagon-cone-31": {False, True},
    "weyl-b3": {True},
    "weyl-b4": {True},
    "weyl-d4": {False, True},
    "braid-5": {False},
    "intermediate-4-1": {False, True},
    "shi-b3-k1": {False, True},
}


@pytest.mark.parametrize("p", [None, 2, 3, 5, 7])
def test_ziegler_gaps_match_reference_random(p, ziegler_branches):
    field = QQ if p is None else PrimeField(p)
    rng = random.Random(223 if p is None else 223 + p)
    for dim in (3, 4, 5):
        for _ in range(4):
            most = 9 if p is None else min(9, (p ** dim - 1) // (p - 1))
            _assert_ziegler_gaps_match_reference(
                random_arrangement(rng, dim, rng.randint(2, most), field=field))
    # rank 3 padded to dimension 5
    for _ in range(4):
        arr = random_arrangement(rng, 3, rng.randint(4, 7), field=field)
        _assert_ziegler_gaps_match_reference(
            make_arrangement(field, 5, [list(cov) + [0, 0] for cov in arr.hyperplanes]))
    # some calls need the kernel solve and some take the closed form on every wall
    assert set(ziegler_branches) == {False, True}


def test_local_codim3_xyzw_all_divide():
    ok, violations = local_codim3_division_check(xyzw_example(), 3)
    assert ok
    assert violations == ()


def test_local_codim3_localization_polys():
    A = xyzw_example()
    restricted, trace = restrict_to_hyperplane(A, 3)
    for flat in rank2_flats(restricted):
        members = {3}
        for j in flat.members:
            members.update(trace[j])
        loc = localization(A, flat_from_members(A, members))
        assert char_data(loc).chi == intpoly.mul((0, 1), intpoly.from_roots([1, 1, 1]))
        loc_res = localization(restricted, flat)
        assert char_data(loc_res).chi == intpoly.mul((0, 1), intpoly.from_roots([1, 1]))


def _reference_local_codim3_division_check(arr, h):
    """The geometric local check that one lattice replaced: it restricts and
    localizes in coordinates, with two lattice builds per codimension-2 flat
    of A^H, and lists the violations in the order of A^H's own lattice."""
    if arr.dim < 3:
        raise ValueError("local division check needs ambient dimension >= 3")
    restricted, trace = restrict_to_hyperplane(arr, h)
    violations = []
    for flat in rank2_flats(restricted):
        members_in_arr = {h}
        for j in flat.members:
            members_in_arr.update(trace[j])
        local_full = localization(arr, flat_from_members(arr, members_in_arr))
        local_res = localization(restricted, flat)
        chi_full = char_data(local_full).chi
        chi_res = char_data(local_res).chi
        if not intpoly.divides(chi_res, chi_full):
            violations.append(flat)
    return (not violations, tuple(violations))


def _assert_local_check_matches_reference(arr):
    lat = build_lattice(arr)
    for h in range(len(arr)):
        ok, violations = local_codim3_division_check(arr, h)
        ref_ok, ref_violations = _reference_local_codim3_division_check(arr, h)
        restricted, trace = restrict_to_hyperplane(arr, h)
        assert ok == ref_ok == (not violations)
        assert all(flat.parent == restricted and flat.codim == 2 for flat in violations)
        members = lambda flat: flat.members
        assert sorted(violations, key=members) == sorted(ref_violations, key=members)
        # in ascending index of Y = H_h ∧ (the traces of the flat's members) in L(A)
        where = [lat.locate({h}.union(*(trace[j] for j in flat.members))) for flat in violations]
        assert [level for level, _ in where] == [3] * len(where)
        assert [index for _, index in where] == sorted({index for _, index in where})


LOCAL_CHECK_INPUTS = [
    ("edelman-reiner", edelman_reiner_restriction()),
    ("xyzw", xyzw_example()),
    ("pentagon-cone-11", pentagon_cone(11).arrangement),
    ("pentagon-cone-31", pentagon_cone(31).arrangement),
    ("weyl-b4", weyl_b(4)),
    ("weyl-d4", weyl_d(4)),
    ("braid-5", braid(5)),
    ("intermediate-4-1", intermediate(4, 1, 3, 7)),
    ("shi-b3-k1", shi(RootSystemSpec("B", 3), 1)),
]


@pytest.mark.parametrize("name,arr", LOCAL_CHECK_INPUTS, ids=[n for n, _ in LOCAL_CHECK_INPUTS])
def test_local_check_matches_reference_catalog(name, arr):
    _assert_local_check_matches_reference(arr)


def test_local_check_violations_in_lattice_order():
    # Shi B3 fails on three flats at hyperplane 4; the reference lists them
    # in the order of A^H's lattice, the check in the order of Y in L(A)
    arr = shi(RootSystemSpec("B", 3), 1)
    ok, violations = local_codim3_division_check(arr, 4)
    assert not ok
    assert [flat.members for flat in violations] == [(2, 3, 4), (2, 8), (4, 5, 6, 8)]
    ref_violations = _reference_local_codim3_division_check(arr, 4)[1]
    assert [flat.members for flat in ref_violations] == [(4, 5, 6, 8), (2, 8), (2, 3, 4)]


@pytest.mark.parametrize("p", [None, 2, 3, 5, 7])
def test_local_check_matches_reference_random(p):
    field = QQ if p is None else PrimeField(p)
    rng = random.Random(211 if p is None else 211 + p)
    for dim in (3, 4, 5):
        for _ in range(3):
            most = 9 if p is None else min(9, (p ** dim - 1) // (p - 1))
            _assert_local_check_matches_reference(
                random_arrangement(rng, dim, rng.randint(3, most), field=field))
    # rank 3 padded to dimension 5
    for _ in range(3):
        arr = random_arrangement(rng, 3, rng.randint(4, 7), field=field)
        _assert_local_check_matches_reference(
            make_arrangement(field, 5, [list(cov) + [0, 0] for cov in arr.hyperplanes]))


def test_local_check_reads_one_lattice(monkeypatch):
    # the local check, b2_gap, free3_decide and division_equivalences (A^H of
    # rank 3) each build L(A) once, and the Ziegler b2 takes no charpoly,
    # rank-2 lattice or localization of its own.  The local check restricts A
    # once when it has violations, to name its flats of A^H (the pentagon
    # cone), and never when it has none (B4); ziegler_gap restricts A once
    # when some wall needs the kernel solve (the pentagon cone and B4 at
    # hyperplane 0, the centre of B3's Ziegler restriction, B4's A^H) and
    # never when every wall is in closed form (xyzw-restriction, the
    # Edelman–Reiner A^H)
    calls = collections.Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    b3, xyzw3 = weyl_b(3), xyzw_restriction()
    for module, names in ((multi, ("build_lattice", "rank2_flats", "restrict_to_hyperplane", "restriction")),
                          (freeness, ("build_lattice", "char_data")),
                          (lattice, ("build_lattice", "char_data", "rank2_flats")),
                          (arrangement, ("localization", "flat_from_members", "restrict_to_hyperplane",
                                         "restriction"))):
        for name in names:
            count(module, name)
    assert not hasattr(multi, "flat_from_members") and not hasattr(multi, "rank_of")
    assert not hasattr(multi, "char_data") and not hasattr(multi, "localization")
    assert not hasattr(freeness, "restrict_to_hyperplane") and not hasattr(freeness, "free3_decide")
    pent = pentagon_cone(31)
    b4, er = weyl_b(4), edelman_reiner_restriction()
    for run, args, restrictions in ((local_codim3_division_check, (pent.arrangement, pent.infinite_index), 1),
                                    (local_codim3_division_check, (b4, 0), 0),
                                    (b2_gap, (pent.arrangement, pent.infinite_index), 1),
                                    (b2_gap, (b4, 0), 1),
                                    (free3_decide, (b3,), 1),
                                    (free3_decide, (xyzw3,), 0),
                                    (division_equivalences, (b4, 0), 1),
                                    (division_equivalences, (er, 3), 0)):
        calls.clear()
        run(*args)
        # a Counter compares missing names as zero counts
        assert calls == collections.Counter(build_lattice=1, restriction=restrictions), run.__name__


def test_boolean_local_division_clean():
    ok, violations = local_codim3_division_check(boolean(4), 0)
    assert ok and violations == ()


def test_multiplicity_validation():
    with pytest.raises(ValueError):
        Multiplicity((0, 1))
    with pytest.raises(ValueError):
        MultiArrangement(boolean(2), Multiplicity((1,)))


def test_exp2_prime_field():
    from divflag.exactalg import PrimeField
    f7 = PrimeField(7)
    arr = make_arrangement(f7, 2, [[1, 0], [0, 1], [1, 6]])
    assert tuple(exp2(MultiArrangement(arr, Multiplicity((2, 2, 2))))) == (3, 3)
    assert tuple(exp2(constant_multiplicity(arr))) == (1, 2)


def test_exp2_second_exponent_bound_dense():
    # once |m| >= 2|A| both exponents stay >= |A| - 1
    rng = random.Random(151)
    checked = 0
    while checked < 25:
        ma = random_rank2_multi(rng, max_mult=5)
        if ma.mult.total < 2 * len(ma.base):
            continue
        d1, d2 = exp2(ma)
        assert d1 >= len(ma.base) - 1
        checked += 1


def test_exp2_kernel_dimension_profile():
    # the solution space at degree d has dimension sum_i max(0, d - d_i + 1),
    # an independent confirmation of the exponent pair; the integer kernel
    # and the field-generic oracle both have it
    from divflag.multi import _derivation_kernel, _two_coordinates
    rng = random.Random(157)
    for _ in range(15):
        ma = random_rank2_multi(rng, max_lines=4, max_mult=3)
        d1, d2 = exp2(ma)
        field = ma.base.field
        pairs = _two_coordinates(ma.base)
        reference_pairs = _reference_two_coordinates(ma.base)
        for d in range(ma.mult.total + 1):
            expected = max(0, d - d1 + 1) + max(0, d - d2 + 1)
            assert len(_reference_kernel(field, reference_pairs, ma.mult.values, d)) == expected
            assert len(_derivation_kernel(field, pairs, ma.mult.values, d)) == expected


def _line_power_divides(field, a, b, m, form):
    """Whether (a*x + b*y)^m divides the binary form sum_i form[i] x^(d-i) y^i,
    by m synthetic divisions over the field."""
    zero = field.zero
    for _ in range(m):
        if all(c == zero for c in form):
            return True
        if a != zero:
            # form = (a*x + b*y) * q: form[k] = a*q[k] + b*q[k-1]
            inv, q = field.inv(a), []
            for c in form[:-1]:
                q.append(field.mul(field.sub(c, field.mul(b, q[-1] if q else zero)), inv))
            if form[-1] != field.mul(b, q[-1] if q else zero):
                return False
        else:
            # form = b*y * q: form[0] = 0 and form[k] = b*q[k-1]
            if form[0] != zero:
                return False
            inv = field.inv(b)
            q = [field.mul(c, inv) for c in form[1:]]
        form = q
    return True


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), PrimeField(7)],
                         ids=["Q", "F2", "F3", "F7"])
def test_exp2_kernel_vectors_satisfy_containment(field):
    # every integer kernel vector (P, Q) makes a*P + b*Q divisible by
    # (a*x + b*y)^m over the field, checked by polynomial division; in
    # characteristic 2 and 3 multiplicities reach past p, where Hasse and
    # ordinary derivatives differ
    lines = 3 if field == PrimeField(2) else 4
    rng = random.Random(167 if field == QQ else 167 + field.p)
    for _ in range(12):
        ma = random_rank2_multi(rng, field=field, max_lines=lines, max_mult=6)
        pairs = multi._two_coordinates(ma.base)
        axes = multi._axis_coordinates(field, pairs, ma.mult.values)
        for coords in (pairs, axes):
            for d in range(ma.mult.total + 1):
                for vec in multi._derivation_kernel(field, coords, ma.mult.values, d):
                    vec = [field.coerce(x) for x in vec]
                    assert any(x != field.zero for x in vec)
                    for (a, b), m in zip(coords, ma.mult.values):
                        a, b = field.coerce(a), field.coerce(b)
                        form = [field.add(field.mul(a, x), field.mul(b, y))
                                for x, y in zip(vec[: d + 1], vec[d + 1:])]
                        assert _line_power_divides(field, a, b, m, form)


def test_exp2_pentagon_directions():
    # the five direction lines of the pentagon with multiplicity 2 are
    # balanced: exponents (5, 5), not the generic (4, 6)
    from divflag.arrangement import essentialize
    pent = pentagon_cone(31)
    B = pent.arrangement
    BH, trace = restrict_to_hyperplane(B, pent.infinite_index)
    doubled = [j for j, t in enumerate(trace) if len(t) == 2]
    assert len(doubled) == 5
    flat = flat_from_members(BH, doubled)
    lines = localization(BH, flat)
    ma = MultiArrangement(essentialize(lines), Multiplicity((2,) * 5))
    assert tuple(exp2(ma)) == (5, 5)


def test_er_local_division_clean():
    # the dividing hyperplane forces division on every rank-3 localization
    ok, violations = local_codim3_division_check(edelman_reiner_restriction(), 3)
    assert ok and violations == ()
