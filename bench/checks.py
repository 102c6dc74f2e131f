"""Output checks computed apart from divflag.

Nothing here imports the program.  Every expected value comes from a
closed form (Stirling numbers, known exponents), a theorem-backed property
(Rota's sign rule, divisibility along a flag, rank-2 exponent rules) or a
small independent computation (rank-2 flats grouped by Plucker vectors).
Polynomials are integer coefficient lists, lowest degree first, which is
also the program's JSON encoding.  A failed check raises ``CheckFailed``.
"""

from __future__ import annotations

import itertools
import json
from math import comb, gcd


class CheckFailed(AssertionError):
    """An output of the program disagrees with the independent computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------- polynomials


def trim(f) -> list[int]:
    out = list(f)
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_mul(f, g) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return trim(out)


def from_roots(roots) -> list[int]:
    """prod (t - r) over the roots."""
    out = [1]
    for r in roots:
        out = poly_mul(out, [-r, 1])
    return out


def poly_rem(f, g) -> list[int]:
    """Remainder of f by a monic integer polynomial g."""
    g = trim(g)
    require(bool(g) and g[-1] == 1, f"divisor {g} is not monic")
    rem = trim(f)
    dg = len(g) - 1
    while len(rem) - 1 >= dg and rem:
        c = rem[-1]
        shift = len(rem) - 1 - dg
        for j, b in enumerate(g):
            rem[shift + j] -= c * b
        rem = trim(rem)
    return rem


def divides(g, f) -> bool:
    return not poly_rem(f, g)


# ------------------------------------------------------------- closed forms


def stirling2(n: int, k: int) -> int:
    """Set partitions of n elements into k blocks."""
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    row = [1] + [0] * k  # S(0, j)
    for m in range(1, n + 1):
        new = [0] * (k + 1)
        for j in range(1, min(m, k) + 1):
            new[j] = j * row[j] + row[j - 1]
        row = new
    return row[k]


def braid_level_sizes(n: int) -> list[int]:
    """Flats of x_i = x_j in K^n are set partitions; codim c has n - c blocks."""
    return [stirling2(n, n - c) for c in range(n)]


def weyl_b_level_sizes(n: int) -> list[int]:
    """Flats of B_n: a set of zeroed coordinates plus a partition of the rest
    into d blocks, each block carrying one of 2^(size-1) sign patterns."""
    sizes = []
    for codim in range(n + 1):
        d = n - codim
        sizes.append(sum(
            comb(n, j) * 2 ** (n - j - d) * stirling2(n - j, d)
            for j in range(n - d + 1)
        ))
    return sizes


def exponents_weyl_b(ell: int) -> list[int]:
    return [2 * i - 1 for i in range(1, ell + 1)]


def exponents_weyl_d(ell: int) -> list[int]:
    return sorted([2 * i - 1 for i in range(1, ell)] + [ell - 1])


def exponents_braid(ell: int) -> list[int]:
    return list(range(ell))


def exponents_shi(coxeter_number: int, k: int, rank: int) -> list[int]:
    """Coned k-extended Shi arrangement: 1 and kh repeated rank times."""
    return [1] + [k * coxeter_number] * rank


EXPONENTS_EDELMAN_REINER = [1, 3, 3, 5]


def exponents_intermediate(ell: int, k: int, r: int) -> list[int]:
    """A_ell^k(r) (Orlik-Terao): 1, r+1, ..., (ell-2)r+1, (ell-1)r-ell+k+1."""
    return sorted([1] + [i * r + 1 for i in range(1, ell - 1)] + [(ell - 1) * r - ell + k + 1])


# ---------------------------------------------------------- lattice reports


def check_lattice_report(report: dict, level_sizes, exponents) -> None:
    """A `divflag lattice --json` report against closed-form level sizes and
    exponents, with Rota's sign rule on every flat."""
    require(report["level_sizes"] == list(level_sizes),
            f"level sizes {report['level_sizes']} != {list(level_sizes)}")
    chi = from_roots(exponents)
    require(report["chi"] == chi, f"chi {report['chi']} != {chi}")
    flats = report["flats"]
    require(len(flats) == sum(level_sizes), f"{len(flats)} flats, expected {sum(level_sizes)}")
    dim = len(chi) - 1
    per_level = [0] * len(level_sizes)
    from_mobius = [0] * (dim + 1)
    for flat in flats:
        codim, mu, members = flat["codim"], flat["mobius"], flat["members"]
        require((-1) ** codim * mu > 0, f"Rota's sign rule fails at {flat}")
        require(len(members) >= codim and members == sorted(set(members)),
                f"malformed member list {members}")
        per_level[codim] += 1
        from_mobius[dim - codim] += mu
    require(per_level == list(level_sizes), f"flats per codim {per_level}")
    require(trim(from_mobius) == chi, "sum of mu t^dim X differs from chi")


# ------------------------------------------------------------- certificates


def check_flag_certificate(cert: dict, dim: int, exponents) -> None:
    """Divisional flag: nested members from the empty flat down to codim
    dim-2, the top charpoly equal to the closed form, and each restriction
    charpoly dividing the one before it."""
    require(cert.get("kind") == "divisional-flag", "not a divisional-flag certificate")
    levels = cert["levels"]
    require(len(levels) == dim - 1, f"{len(levels)} levels, expected {dim - 1}")
    chi = from_roots(exponents)
    require(levels[0]["members"] == [] and levels[0]["charpoly"] == chi,
            f"top level {levels[0]} does not carry chi {chi}")
    for i in range(1, len(levels)):
        above, below = levels[i - 1], levels[i]
        require(set(above["members"]) < set(below["members"]), f"level {i} is not nested")
        f, g = above["charpoly"], below["charpoly"]
        require(len(g) == dim - i + 1 and g[-1] == 1, f"level {i} charpoly {g} has the wrong shape")
        require(divides(g, f), f"level {i} charpoly {g} does not divide {f}")
    require(sorted(cert["exponents"]) == sorted(exponents),
            f"exponents {cert['exponents']} != {sorted(exponents)}")


def check_if_certificate(cert: dict, arrangement_json: dict, exponents) -> None:
    """Inductive-freeness certificate: every hyperplane added exactly once,
    restriction charpolys monic of degree dim-1, the last one dividing chi."""
    require(cert.get("kind") == "inductive-freeness", "not an inductive-freeness certificate")
    dim = arrangement_json["dim"]
    steps = cert["steps"]
    added = sorted(json.dumps(step["covector"]) for step in steps)
    require(added == sorted(json.dumps(c) for c in arrangement_json["hyperplanes"]),
            "certificate does not add exactly the arrangement's hyperplanes")
    for step in steps:
        g = step["restriction_charpoly"]
        require(len(g) == dim and g[-1] == 1, f"restriction charpoly {g} has the wrong shape")
    chi = from_roots(exponents)
    last = steps[-1]["restriction_charpoly"]
    require(divides(last, chi), f"last restriction charpoly {last} does not divide {chi}")


# ------------------------------------------------------------ rank-3 and b2


def _primitive(v) -> tuple[int, ...]:
    """The nonzero integer vector divided by its content, first entry positive."""
    g = 0
    for x in v:
        g = gcd(g, x)
    if next(x for x in v if x) < 0:
        g = -g
    return tuple(x // g for x in v)


def _plucker(u, v) -> tuple[int, ...]:
    return tuple(u[i] * v[j] - u[j] * v[i] for i, j in itertools.combinations(range(len(u)), 2))


def rank2_flat_sizes(normals) -> list[int]:
    """Hyperplanes through each codimension-2 flat, found by grouping pairs of
    distinct integer normals by the primitive Plucker vector of their span
    (in dimension 3, the cross product up to sign and order)."""
    flats: dict[tuple, set] = {}
    for i, j in itertools.combinations(range(len(normals)), 2):
        k = _plucker(normals[i], normals[j])
        require(any(k), f"normals {i} and {j} are proportional")
        flats.setdefault(_primitive(k), set()).update((i, j))
    return sorted(len(members) for members in flats.values())


def b2_deconed(normals) -> int:
    """b2 of the deconed arrangement: b2 - b1 + b0 with b2 = sum (|X| - 1)."""
    return sum(s - 1 for s in rank2_flat_sizes(normals)) - len(normals) + 1


def rank3_chi(normals) -> list[int]:
    """chi of an essential rank-3 arrangement in dimension 3 from its rank-2
    flats: t^3 - n t^2 + b2 t - (b2 - n + 1)."""
    n = len(normals)
    b2 = sum(s - 1 for s in rank2_flat_sizes(normals))
    return [-(b2 - n + 1), b2, -n, 1]


def check_free3(report, normals) -> None:
    """A free3_decide report against chi from the rank-2 flats: b2 of the
    deconed arrangement agrees, and a free verdict splits chi as
    (t-1)(t-d1)(t-d2) with exponents summing to |A|."""
    chi = rank3_chi(normals)
    require(report.b2_dec == b2_deconed(normals),
            f"b2 deconed {report.b2_dec} != {b2_deconed(normals)}")
    if report.free:
        exps = list(report.exponents)
        require(exps[0] == 1 and sum(exps) == len(normals), f"exponents {exps} of a free verdict")
        require(from_roots(exps) == chi, f"free verdict with exponents {exps}, chi {chi}")
    else:
        require(report.exponents is None and report.gap > 0, "non-free verdict without a gap")


def check_b2_gap(gap: int, normals) -> None:
    """0 <= gap <= b2 of the deconed arrangement (the Ziegler b2 is >= 0)."""
    require(0 <= gap <= b2_deconed(normals), f"b2 gap {gap} outside [0, {b2_deconed(normals)}]")


# ------------------------------------------------------------ rank-2 exponents


def expected_exp2(n_lines: int, mults) -> tuple[int, int] | None:
    """Exponents forced by a theorem, or None when only d1 + d2 = |m| is known.

    - a dominant multiplicity, 2 m_H >= |m|: (|m| - m_H, m_H).
    - three lines otherwise: (floor(|m|/2), ceil(|m|/2)) (Wakamiko 2007).
    """
    total = sum(mults)
    top = max(mults)
    if 2 * top >= total:
        return (total - top, top)
    if n_lines == 3:
        return (total // 2, total - total // 2)
    return None


def check_exp2(result, n_lines: int, mults) -> None:
    d1, d2 = result
    require(d1 <= d2 and d1 + d2 == sum(mults), f"exponents {(d1, d2)} for |m| = {sum(mults)}")
    expected = expected_exp2(n_lines, mults)
    require(expected is None or (d1, d2) == expected,
            f"exponents {(d1, d2)} != {expected} for m = {tuple(mults)}")
