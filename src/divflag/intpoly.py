"""Univariate polynomials with exact integer coefficients.

A polynomial is a tuple of ints, lowest degree first, with no trailing
zeros; the zero polynomial is the empty tuple.  Division only supports
monic divisors, which keeps every computation inside Z.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable

IntPoly = tuple  # tuple[int, ...]

ZERO: IntPoly = ()
ONE: IntPoly = (1,)


def poly(coeffs: Iterable[int]) -> IntPoly:
    """Canonicalize a coefficient sequence (strip trailing zeros)."""
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(int(x) for x in c)


def degree(f: IntPoly) -> int:
    return len(f) - 1


def is_monic(f: IntPoly) -> bool:
    return bool(f) and f[-1] == 1


def add(f: IntPoly, g: IntPoly) -> IntPoly:
    n = max(len(f), len(g))
    return poly([(f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n)])


def sub(f: IntPoly, g: IntPoly) -> IntPoly:
    n = max(len(f), len(g))
    return poly([(f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0) for i in range(n)])


def mul(f: IntPoly, g: IntPoly) -> IntPoly:
    if not f or not g:
        return ZERO
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return poly(out)


def scale(f: IntPoly, c: int) -> IntPoly:
    return poly([c * a for a in f])


def coeff(f: IntPoly, k: int) -> int:
    return f[k] if 0 <= k < len(f) else 0


def eval_at(f: IntPoly, x: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def from_roots(roots: Iterable[int]) -> IntPoly:
    out: IntPoly = ONE
    for r in roots:
        out = mul(out, (-r, 1))
    return out


def div_rem(f: IntPoly, g: IntPoly) -> tuple[IntPoly, IntPoly]:
    """Exact division with remainder by a monic divisor: f = q*g + r."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    if not is_monic(g):
        raise ValueError("divisor must be monic for integer division")
    rem = list(f)
    dg = degree(g)
    q = [0] * max(len(f) - dg, 0)
    for k in range(len(rem) - dg - 1, -1, -1):
        c = rem[k + dg]
        if c:
            q[k] = c
            for j in range(dg + 1):
                rem[k + j] -= c * g[j]
    return poly(q), poly(rem)


def divides(g: IntPoly, f: IntPoly) -> bool:
    """True when g | f (g monic nonzero)."""
    _, r = div_rem(f, g)
    return r == ZERO


def linear_roots(f: IntPoly):
    """Integer roots with multiplicity when f splits as prod (t - d_i).

    Returns a sorted tuple, or ``None`` when f (monic) is not a product of
    linear integer factors.  Candidates are the divisors of the running
    constant term, removed with multiplicity.
    """
    if not is_monic(f):
        raise ValueError("root extraction expects a monic polynomial")
    roots = []
    work = f
    while coeff(work, 0) == 0 and degree(work) > 0:
        roots.append(0)
        work = work[1:]
    while degree(work) > 0:
        c0 = abs(work[0])
        found = None
        for d in sorted(_divisors(c0)):
            for cand in (d, -d):
                if eval_at(work, cand) == 0:
                    found = cand
                    break
            if found is not None:
                break
        if found is None:
            return None
        roots.append(found)
        work, rem = div_rem(work, (-found, 1))
        if rem != ZERO:
            raise ArithmeticError(f"root {found} leaves the remainder {rem} on division")
    return tuple(sorted(roots))


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return out


def gcd_monic(f: IntPoly, g: IntPoly) -> IntPoly:
    """Monic gcd of two monic integer polynomials (integral by Gauss's lemma).

    Euclid's algorithm on primitive pseudo-remainders: each remainder is
    taken by ``lead(b)``-scaled steps, which stay in Z, and divided by its
    content, which keeps the coefficients small and the gcd unchanged up
    to a constant (Knuth, *TAOCP* 2, §4.6.1).  The last nonzero remainder
    is then the primitive gcd, which is monic when the gcd over Q is
    integral."""
    a, b = _primitive(f), _primitive(g)
    while b:
        a, b = b, _primitive(_pseudo_rem(a, b))
    if a and a[-1] != 1:
        raise ArithmeticError("the monic gcd of monic integer polynomials is not integral")
    return a


def _primitive(f: IntPoly) -> IntPoly:
    """f divided by its content, with a positive lead; ZERO stays ZERO."""
    if not f:
        return ZERO
    content = gcd(*f) if f[-1] > 0 else -gcd(*f)
    return tuple(c // content for c in f)


def _pseudo_rem(f: IntPoly, g: IntPoly) -> IntPoly:
    """A remainder of lead(g)^k * f by g (g nonzero), for some k >= 0."""
    rem, lead, dg = list(f), g[-1], len(g) - 1
    while len(rem) > dg:
        c, k = rem[-1], len(rem) - 1 - dg
        rem = [lead * x for x in rem]
        for j, y in enumerate(g):
            rem[k + j] -= c * y
        while rem and rem[-1] == 0:
            rem.pop()
    return tuple(rem)


def to_string(f: IntPoly) -> str:
    if not f:
        return "0"
    parts = []
    for k in range(degree(f), -1, -1):
        c = f[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        if k == 0:
            body = str(mag)
        elif k == 1:
            body = "t" if mag == 1 else f"{mag}*t"
        else:
            body = f"t^{k}" if mag == 1 else f"{mag}*t^{k}"
        parts.append(f"{sign}{body}" if not parts else f" {sign} {body}")
    return "".join(parts)
