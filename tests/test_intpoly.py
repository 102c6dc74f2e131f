import random
from fractions import Fraction

import pytest

from divflag import intpoly
from divflag.intpoly import (
    ONE,
    ZERO,
    div_rem,
    divides,
    eval_at,
    from_roots,
    gcd_monic,
    linear_roots,
    mul,
    poly,
    sub,
)


def test_div_rem_division_chain():
    f = from_roots([1, 3, 3, 5])
    g = from_roots([1, 3, 3])
    q, r = div_rem(f, g)
    assert q == poly([-5, 1])
    assert r == ZERO


def test_div_rem_with_remainder():
    # long division done by hand: t^3-4t^2+6t-4 = (t-1)(t^2-3t+3) - 1
    f = poly([-4, 6, -4, 1])
    g = poly([3, -3, 1])
    q, r = div_rem(f, g)
    assert q == poly([-1, 1])
    assert r == poly([-1])


def test_div_rem_self():
    f = poly([2, 0, 1])
    q, r = div_rem(f, f)
    assert q == poly([1])
    assert r == ZERO


def test_div_rem_nonmonic_rejected():
    with pytest.raises(ValueError):
        div_rem(poly([1, 1]), poly([1, 2]))


def test_div_rem_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        div_rem(poly([1, 1]), ZERO)


def test_reconstruction_property():
    rng = random.Random(5)
    for _ in range(200):
        f = poly([rng.randint(-6, 6) for _ in range(rng.randint(0, 6))])
        g_body = [rng.randint(-4, 4) for _ in range(rng.randint(0, 4))]
        g = poly(g_body + [1])
        q, r = div_rem(f, g)
        assert intpoly.add(mul(q, g), r) == f
        assert intpoly.degree(r) < intpoly.degree(g)


def test_divides_cases():
    assert divides(from_roots([1, 3]), from_roots([1, 3, 3]))
    assert not divides(mul(poly([-1, 1]), poly([3, -3, 1])),
                       mul(poly([-1, 1]), poly([-4, 6, -4, 1])))
    assert divides(poly([1]), from_roots([2, 7]))


def test_mutual_division_forces_equality():
    rng = random.Random(17)
    for _ in range(50):
        f = from_roots([rng.randint(0, 4) for _ in range(rng.randint(0, 4))])
        g = from_roots([rng.randint(0, 4) for _ in range(rng.randint(0, 4))])
        if divides(f, g) and divides(g, f):
            assert f == g


def test_linear_roots_splits():
    assert linear_roots(from_roots([1, 3, 3, 5])) == (1, 3, 3, 5)
    assert linear_roots(poly([0, 0, 1])) == (0, 0)
    assert linear_roots(poly([1])) == ()


def test_linear_roots_not_split():
    # has the single integer root 2 but does not split completely
    assert linear_roots(poly([-4, 6, -4, 1])) is None
    assert linear_roots(poly([1, 0, 1])) is None


def test_linear_roots_random_multisets():
    rng = random.Random(23)
    for _ in range(100):
        roots = sorted(rng.randint(0, 6) for _ in range(rng.randint(0, 5)))
        assert linear_roots(from_roots(roots)) == tuple(roots)


def test_linear_roots_negative():
    assert linear_roots(from_roots([-2, 3])) == (-2, 3)


def test_eval_and_sub():
    f = from_roots([1, 3])
    assert eval_at(f, 7) == 6 * 4
    assert sub(f, f) == ZERO


def test_gcd_monic():
    f = from_roots([1, 3, 5])
    g = from_roots([1, 3, 7])
    assert gcd_monic(f, g) == from_roots([1, 3])
    assert gcd_monic(f, from_roots([2])) == poly([1])


def _reference_gcd_monic(f, g):
    """The monic gcd by Euclid's algorithm over Q, in Fractions."""
    a = [Fraction(c) for c in f]
    b = [Fraction(c) for c in g]
    while any(b):
        a, b = b, _fraction_rem(a, b)
    while a and a[-1] == 0:
        a.pop()
    if not a:
        return ZERO
    monic = [c / a[-1] for c in a]
    assert all(c.denominator == 1 for c in monic)
    return poly([int(c) for c in monic])


def _fraction_rem(f, g):
    rem = list(f)
    while g and g[-1] == 0:
        g = g[:-1]
    dg = len(g) - 1
    for k in range(len(rem) - dg - 1, -1, -1):
        c = rem[k + dg]
        if c:
            factor = c / g[-1]
            for j in range(dg + 1):
                rem[k + j] -= factor * g[j]
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


def test_gcd_monic_matches_fraction_euclid():
    """Products of linear factors, some times an irreducible quadratic,
    sharing a random part of their roots."""
    rng = random.Random(31)
    quadratics = [ONE, poly([1, 0, 1]), poly([2, 1, 1]), poly([-3, 0, 1])]
    for _ in range(300):
        shared = [rng.randint(-6, 9) for _ in range(rng.randint(0, 4))]
        f = mul(from_roots(shared + [rng.randint(-6, 9) for _ in range(rng.randint(0, 4))]),
                rng.choice(quadratics))
        g = mul(from_roots(shared + [rng.randint(-6, 9) for _ in range(rng.randint(0, 4))]),
                rng.choice(quadratics))
        expected = _reference_gcd_monic(f, g)
        assert gcd_monic(f, g) == gcd_monic(g, f) == expected
        assert divides(expected, f) and divides(expected, g)
        assert divides(from_roots(shared), expected)


def test_gcd_monic_with_zero():
    f = from_roots([2, 2, -1])
    assert gcd_monic(f, ZERO) == gcd_monic(ZERO, f) == f
    assert gcd_monic(ZERO, ZERO) == ZERO
    assert gcd_monic(f, ONE) == ONE
