import random
from fractions import Fraction
from math import gcd

import pytest

from divflag.exactalg import (
    FieldError,
    PrimeField,
    QQ,
    PRIME_LIMIT,
    insert_int,
    insert_mod,
    int_elimination,
    int_rref,
    integer_row,
    is_prime,
    normalize_covector,
    residual_int,
    residual_mod,
)

from conftest import extend_rref, reference_kernel, reference_rref


def test_rref_identity():
    rows = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert int_rref(QQ, rows) == (rows, (0, 1, 2))


def test_rref_zero():
    assert int_rref(QQ, [(0, 0, 0, 0), (0, 0, 0, 0)]) == ((), ())


def test_rref_proportional_rows():
    assert int_rref(QQ, [(1, 1), (2, 2)]) == (((1, 1),), (0,))


def test_rref_idempotent_random():
    rng = random.Random(7)
    for p in (None, 7):
        field = QQ if p is None else PrimeField(p)
        for _ in range(50):
            rows = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(rng.randint(1, 5))]
            if p is not None:
                rows = [[x % p for x in row] for row in rows]
            reduced = int_rref(field, rows)
            assert int_rref(field, reduced[0]) == reduced


def _reference_rref_rows(rows, ncols, field=QQ):
    """Field-generic Gauss-Jordan elimination on field scalars (``Fraction``
    entries over Q), a test oracle for ``int_rref`` and ``reference_rref``."""
    work = [list(r) for r in rows]
    zero = field.zero
    sub, mul, inv = field.sub, field.mul, field.inv
    pivots = []
    pr = 0
    for c in range(ncols):
        pivot = None
        for r in range(pr, len(work)):
            if work[r][c] != zero:
                pivot = r
                break
        if pivot is None:
            continue
        work[pr], work[pivot] = work[pivot], work[pr]
        row = work[pr]
        scale = inv(row[c])
        if scale != field.one:
            work[pr] = row = [mul(scale, x) for x in row]
        for r in range(len(work)):
            if r == pr:
                continue
            factor = work[r][c]
            if factor != zero:
                other = work[r]
                work[r] = [sub(other[j], mul(factor, row[j])) for j in range(ncols)]
        pivots.append(c)
        pr += 1
        if pr == len(work):
            break
    return tuple(tuple(work[r]) for r in range(pr)), tuple(pivots)


def _random_rational(rng):
    roll = rng.random()
    if roll < 0.35:
        return Fraction(0)
    if roll < 0.7:
        return Fraction(rng.randint(-6, 6))
    return Fraction(rng.randint(-30, 30), rng.randint(1, 12))


def _divided_by_pivots(reduced):
    """Fraction-free rows divided by their pivots: the rational rref."""
    rows, pivots = reduced
    return tuple(tuple(Fraction(x, row[c]) for x in row) for row, c in zip(rows, pivots)), pivots


@pytest.mark.parametrize("shape", ["square", "tall", "wide"])
def test_rref_rows_q_matches_fraction_elimination(shape):
    rng = random.Random({"square": 29, "tall": 31, "wide": 37}[shape])
    for _ in range(200):
        k = rng.randint(1, 6)
        nrows, ncols = {"square": (k, k), "tall": (k + rng.randint(1, 6), k),
                        "wide": (k, k + rng.randint(1, 8))}[shape]
        rows = [[_random_rational(rng) for _ in range(ncols)] for _ in range(nrows)]
        if rng.random() < 0.4:  # a proportional row and a zero row
            rows.append([Fraction(rng.randint(-5, 5), rng.randint(1, 5)) * x for x in rows[0]])
            rows.append([Fraction(0)] * ncols)
            rng.shuffle(rows)
        expected = _reference_rref_rows(rows, ncols)
        assert _divided_by_pivots(int_rref(QQ, [integer_row(row) for row in rows])) == expected
        assert reference_rref(QQ, rows) == expected


@pytest.mark.parametrize("p", [2, 3, 7, 2**31 - 1])
def test_rref_rows_fp_matches_field_elimination(p):
    field = PrimeField(p)
    rng = random.Random(41 + p % 1000)
    for _ in range(200):
        ncols = rng.randint(1, 7)
        rows = [[rng.choice([0, 0, 1, rng.randrange(p)]) for _ in range(ncols)]
                for _ in range(rng.randint(0, 8))]
        if rows and rng.random() < 0.4:  # a proportional row and a zero row
            rows.append([field.mul(rng.randrange(p), x) for x in rows[0]])
            rows.append([0] * ncols)
            rng.shuffle(rows)
        expected = _reference_rref_rows(rows, ncols, field)
        assert int_rref(field, rows) == expected
        assert reference_rref(field, rows) == expected


def test_rref_rows_q_edge_cases():
    half, third = Fraction(1, 2), Fraction(1, 3)
    cases = [
        ([], 3),
        ([[Fraction(0)] * 4] * 3, 4),
        ([[half, third], [Fraction(3), Fraction(2)]], 2),  # proportional, non-integer
        ([[Fraction(0), half], [third, Fraction(0)]], 2),  # pivot swap
        ([[Fraction(-7, 3)]], 1),
        ([[Fraction(10**30, 7), Fraction(1, 10**20)], [Fraction(1), Fraction(-1, 3)]], 2),
    ]
    for rows, ncols in cases:
        result = int_rref(QQ, [integer_row(row) for row in rows])
        assert _divided_by_pivots(result) == _reference_rref_rows(rows, ncols)
        assert all(type(x) is int for row in result[0] for x in row)
    assert int_rref(QQ, [integer_row(row) for row in [[half, third], [Fraction(3), Fraction(2)]]]) == \
        (((3, 2),), (0,))


def test_kernel_identity_empty():
    assert reference_kernel(QQ, [[1, 0], [0, 1]], 2) == []


def test_kernel_rank_nullity():
    basis = reference_kernel(QQ, [[1, 1, 1]], 3)
    assert len(basis) == 2
    for v in basis:
        assert sum(v) == 0


def test_kernel_full_column_rank():
    assert reference_kernel(QQ, [[1, 0], [0, 1], [1, 1]], 2) == []


def test_rank_plus_nullity_random():
    """The rank from ``int_rref`` plus the oracle's nullity is the column
    count, and every oracle kernel vector is orthogonal to every row."""
    rng = random.Random(11)
    for p in (None, 5):
        field = QQ if p is None else PrimeField(p)
        for _ in range(50):
            cols = rng.randint(1, 5)
            rows = [[field.coerce(rng.randint(-2, 2)) for _ in range(cols)]
                    for _ in range(rng.randint(1, 5))]
            _, pivots = int_rref(field, rows)
            basis = reference_kernel(field, rows, cols)
            assert len(pivots) + len(basis) == cols
            for v in basis:
                for row in rows:
                    dot = field.zero
                    for x, y in zip(row, v):
                        dot = field.add(dot, field.mul(x, y))
                    assert dot == field.zero


def test_normalize_rational():
    assert normalize_covector(QQ, (2, -4, 6)) == (1, -2, 3)
    assert normalize_covector(QQ, (0, 5, 5)) == (0, 1, 1)
    assert normalize_covector(QQ, (-2, 3, 0)) == (2, -3, 0)
    assert normalize_covector(QQ, ("1/2", Fraction(-1, 3), "0")) == (3, -2, 0)


def test_normalize_rational_is_the_primitive_int_row_of_every_multiple():
    """Over Q a covector is stored as primitive ints with a positive lead,
    whatever nonzero rational multiple (ints, ``Fraction``s or "a/b"
    strings) it is given as."""
    rng = random.Random(29)
    for _ in range(200):
        v = [rng.randint(-6, 6) for _ in range(rng.randint(1, 4))]
        if not any(v):
            continue
        norm = normalize_covector(QQ, v)
        assert all(type(x) is int for x in norm)
        assert next(x for x in norm if x) > 0 and gcd(*norm) == 1
        i = next(j for j, x in enumerate(v) if x)
        assert all(x * v[i] == y * norm[i] for x, y in zip(norm, v))  # proportional
        c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
        scaled = [c * x for x in v]
        assert normalize_covector(QQ, scaled) == norm
        assert normalize_covector(QQ, [str(x) for x in scaled]) == norm


def test_normalize_prime_field():
    # 3^(-1) = 5 in F_7, confirmed by brute force over the residues
    f7 = PrimeField(7)
    inverse = next(x for x in range(7) if 3 * x % 7 == 1)
    assert inverse == 5
    assert normalize_covector(f7, (3, 1)) == (1, 5)


def test_normalize_zero_rejected():
    with pytest.raises(ValueError):
        normalize_covector(QQ, (0, 0))


def test_normalize_scale_invariant():
    rng = random.Random(3)
    for _ in range(100):
        v = [rng.randint(-4, 4) for _ in range(3)]
        if not any(v):
            continue
        c = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        if rng.random() < 0.5:
            c = -c
        scaled = [c * Fraction(x) for x in v]
        assert normalize_covector(QQ, v) == normalize_covector(QQ, scaled)


def test_normalize_idempotent():
    v = normalize_covector(QQ, (3, -6, 9))
    assert normalize_covector(QQ, v) == v


def test_extend_rref_matches_full_rref():
    rng = random.Random(19)
    for _ in range(60):
        cols = rng.randint(2, 5)
        base = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rng.randint(0, 3))]
        extra = [rng.randint(-2, 2) for _ in range(cols)]
        rows, pivots = _reference_rref_rows([[Fraction(x) for x in row] for row in base], cols)
        extended = extend_rref(QQ, rows, pivots, [Fraction(x) for x in extra])
        full = _reference_rref_rows([[Fraction(x) for x in row] for row in base + [extra]], cols)
        if extended is None:
            assert full == (rows, pivots)
        else:
            assert extended == full


def test_extend_rref_mod_matches_prime_field():
    rng = random.Random(23)
    for p in (2, 3, 7, 2**31 - 1, 2**61 - 1):
        field = PrimeField(p)
        for _ in range(40):
            cols = rng.randint(2, 5)
            base = [[rng.randrange(p) for _ in range(cols)] for _ in range(rng.randint(0, 3))]
            extra = tuple(rng.randrange(p) for _ in range(cols))
            rows, pivots = int_rref(field, base)
            r = residual_mod(p, {}, rows, pivots, extra)
            extended = None if r is None else insert_mod(p, rows, pivots, r)
            assert extended == extend_rref(field, rows, pivots, extra)


def _extend_int(rows, pivots, vector):
    """One integer row inserted into fraction-free reduced rows: ``None``
    when it lies in the row space, otherwise the extended (rows, pivots)."""
    r = residual_int(rows, pivots, vector)
    return None if r is None else insert_int(rows, pivots, r)


def _battery_vector(rng, rows, cols):
    """A random integer vector: wide, a combination of the rows so far (a
    zero residual), a multiple of one of them, or one with a non-unit lead."""
    kind = rng.randrange(4)
    if kind == 1 and rows:
        return tuple(sum(rng.randint(-3, 3) * row[j] for row in rows) for j in range(cols))
    if kind == 2 and rows:
        factor = rng.choice([-5, -1, 2, 7])
        return tuple(factor * x for x in rng.choice(rows))
    if kind == 3:
        return tuple([0] * rng.randrange(cols) + [rng.choice([-6, 2, 3, 4])]
                     + [rng.randint(-3, 3) for _ in range(cols)])[:cols]
    bound = 10 ** rng.randint(1, 15)
    return tuple(rng.randint(-bound, bound) for _ in range(cols))


def test_extend_rref_int_matches_rational():
    rng = random.Random(29)
    nones = 0
    for _ in range(150):
        cols = rng.randint(1, 6)
        rows_int, pivots_int = (), ()
        rows_q, pivots_q = (), ()
        added = []
        for _ in range(rng.randint(1, cols + 2)):
            vec = _battery_vector(rng, added, cols)
            added.append(vec)
            if not any(vec):
                continue
            ext_int = _extend_int(rows_int, pivots_int, vec)
            ext_q = extend_rref(QQ, rows_q, pivots_q, [Fraction(x) for x in vec])
            assert (ext_int is None) == (ext_q is None)
            if ext_int is None:
                nones += 1
                continue
            rows_int, pivots_int = ext_int
            rows_q, pivots_q = ext_q
            assert pivots_int == pivots_q
            for row, c in zip(rows_int, pivots_int):
                assert row[c] > 0 and gcd(*row) == 1
                assert all(row[d] == 0 for d in pivots_int if d != c)
            assert tuple(tuple(Fraction(x, row[c]) for x in row)
                         for row, c in zip(rows_int, pivots_int)) == rows_q
    assert nones > 20


def test_extend_rref_int_keeps_a_non_unit_pivot():
    assert _extend_int((), (), (-4, 2, 6)) == (((2, -1, -3),), (0,))
    assert _extend_int(((2, -1, -3),), (0,), (0, 3, 0)) == (((2, 0, -3), (0, 1, 0)), (0, 1))
    assert _extend_int(((2, 0, -3), (0, 1, 0)), (0, 1), (4, 5, -6)) is None
    assert int_rref(QQ, [(-4, 2, 6), (0, 3, 0), (4, 5, -6)]) == (((2, 0, -3), (0, 1, 0)), (0, 1))


@pytest.mark.parametrize("p", [None, 5, 7, 2**31 - 1])
def test_residual_is_invariant_under_row_additions(p):
    """residual(k·v + Σ c_i·row_i) = residual(v) for k ≠ 0: the residual is
    canonical for the span of v modulo the rows, and vanishes on the pivot
    columns; over Q it is primitive with a positive lead, over F_p monic."""
    field = QQ if p is None else PrimeField(p)
    residual, insert = int_elimination(field)
    rng = random.Random(43 if p is None else 43 + p % 1000)
    nonzero = 0
    for _ in range(120):
        cols = rng.randint(1, 6)
        rows, pivots, added = (), (), []
        for _ in range(rng.randint(0, cols)):
            vec = _battery_vector(rng, added, cols)
            added.append(vec)
            r = residual(rows, pivots, [field.coerce(x) for x in vec])
            if r is not None:
                rows, pivots = insert(rows, pivots, r)
        v = [field.coerce(x) for x in _battery_vector(rng, added, cols)]
        k = rng.choice([-3, -1, 1, 2, 10**9 + 7])  # a unit mod every p here
        w = [k * x for x in v]
        for row in rows:
            c = rng.randint(-10**6, 10**6)
            w = [x + c * y for x, y in zip(w, row)]
        if p is not None:
            w = [x % p for x in w]
        r = residual(rows, pivots, v)
        assert residual(rows, pivots, tuple(w)) == r
        if r is None:
            continue
        nonzero += bool(rows)
        assert all(r[c] == 0 for c in pivots)
        lead = next(x for x in r if x)
        if p is None:
            assert lead > 0 and gcd(*r) == 1
        else:
            assert lead == 1 and all(0 <= x < p for x in r)
    assert nonzero > 30


def test_residual_and_insert_by_hand():
    assert residual_int((), (), (-4, 2, 6)) == (2, -1, -3)
    assert residual_int(((2, -1, -3),), (0,), (1, 1, 0)) == (0, 1, 1)
    assert residual_int(((2, -1, -3),), (0,), (-6, 3, 9)) is None
    assert insert_int(((2, -1, -3),), (0,), (0, 1, 1)) == (((1, 0, -1), (0, 1, 1)), (0, 1))
    assert insert_int(((0, 1, 1),), (1,), (1, 0, 0)) == (((1, 0, 0), (0, 1, 1)), (0, 1))
    inverses = {}
    assert residual_mod(7, inverses, ((1, 0, 2),), (0,), (3, 3, 1)) == (0, 1, 3)
    assert residual_mod(7, inverses, (), (), (3, 1, 0)) == (1, 5, 0)
    assert inverses == {3: 5}
    assert insert_mod(7, ((1, 2, 2),), (0,), (0, 1, 5)) == (((1, 0, 6), (0, 1, 5)), (0, 1))


def test_int_elimination_memoizes_inverses_per_call():
    field = PrimeField(2**31 - 1)
    first, second = int_elimination(field)[0], int_elimination(field)[0]
    assert first((), (), (2, 1)) == second((), (), (2, 1)) == (1, 2**30)
    assert first.args[1] == {2: 2**30} and first.args[1] is not second.args[1]


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_is_prime_agrees_with_trial_division():
    assert [n for n in range(10**5) if is_prime(n)] == \
        [n for n in range(10**5) if _trial_division(n)]


def test_is_prime_large():
    assert not is_prime(561)  # a Carmichael number
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5 and 7
    assert is_prime(2**61 - 1)
    assert is_prime(2**31 - 1)
    assert not is_prime((2**31 - 1) ** 2)
    with pytest.raises(FieldError):
        is_prime(PRIME_LIMIT)
    with pytest.raises(FieldError):
        PrimeField(2**89 - 1)


def test_prime_field_requires_prime():
    with pytest.raises(FieldError):
        PrimeField(6)


def test_prime_field_arithmetic():
    f5 = PrimeField(5)
    assert f5.add(3, 4) == 2
    assert f5.inv(2) == 3
    assert f5.coerce(-1) == 4


def test_rational_inverse_is_exact():
    for a, inverse in ((2, Fraction(1, 2)), (-3, Fraction(-1, 3)), (Fraction(2, 3), Fraction(3, 2))):
        assert QQ.inv(a) == inverse and type(QQ.inv(a)) is Fraction
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)


def test_coerce_reads_the_documented_spellings():
    assert QQ.coerce("-12") == -12 and QQ.coerce("3/6") == Fraction(1, 2)
    assert QQ.coerce("-0/5") == 0 and QQ.coerce(7) == 7
    assert PrimeField(5).coerce("-12") == 3


# JSON true and false are Python bools, which count as ints; "1/2" is a
# rational but not a residue
@pytest.mark.parametrize("field,x", [
    *((field, x) for field in (QQ, PrimeField(5))
      for x in (True, False, 1.0, float("nan"), "x", "1/0", None)),
    (PrimeField(5), "1/2"),
    # int() and Fraction() read these, but they are not the ASCII spellings
    # -?[0-9]+ and -?[0-9]+/[0-9]+
    *((field, x) for field in (QQ, PrimeField(5))
      for x in ("1.5", "1e3", "1_0", " 3 ", "3\n", "+3", "1/-2", "\u0663", "")),
])
def test_coerce_rejects_non_scalars(field, x):
    with pytest.raises(FieldError, match="cannot interpret"):
        field.coerce(x)
