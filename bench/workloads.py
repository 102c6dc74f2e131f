"""The benchmark's workloads: their inputs and their operations.

``setup(lib, seed, workdir)`` builds a workload's inputs with the freshly
imported ``divflag`` package ``lib`` and returns its operations.  Inputs are
plain data and files, never divflag objects, so every round can run on a
fresh import of the package.  An operation receives the package of its
round, runs one CLI command or one library call, and is checked against
``checks``; no check compares with a stored copy of an earlier output.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable, NamedTuple

import checks
from checks import require

F_P = 2**31 - 1


@dataclass
class Op:
    """One operation; ``check`` raises ``checks.CheckFailed`` on a wrong output
    and returns a short summary of a right one.  ``fault`` names a known
    program fault that makes this operation fail every time."""

    name: str
    run: Callable[[object], object]
    check: Callable[[object], str]
    prepare: Callable[[], None] | None = None
    fault: str | None = None


class CliResult(NamedTuple):
    code: int
    stdout: str
    stderr: str


def _cli(lib, argv) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = lib.cli.run(list(argv))
    return CliResult(code, out.getvalue(), err.getvalue())


def _load(path: str):
    with open(path) as fh:
        return json.load(fh)


def _dump(path: str, data) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh)


def _remove(*paths: str) -> Callable[[], None]:
    def prepare():
        for path in paths:
            if os.path.exists(path):
                os.remove(path)

    return prepare


def _code(result: CliResult, expected: int) -> None:
    require(result.code == expected,
            f"exit {result.code}, expected {expected}: {result.stderr.strip()[:200]}")


def cli_op(name: str, argv, check, outputs=(), prepare=None, fault=None) -> Op:
    """A CLI command; files in ``outputs`` are removed before it runs, so a
    check never reads what an earlier round wrote."""
    clear = _remove(*outputs)

    def before():
        clear()
        if prepare is not None:
            prepare()

    return Op(name, lambda lib: _cli(lib, argv), check, before, fault)


def _write_arrangement(lib, path: str, arrangement) -> dict:
    data = lib.jsonio.arrangement_to_json(arrangement)
    lib.jsonio.save_json(path, data)
    return data


def _integer_rank(rows) -> int:
    work = [list(r) for r in rows]
    rank = 0
    for c in range(len(work[0])):
        pivot = next((r for r in range(rank, len(work)) if work[r][c]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for r in range(len(work)):
            if r != rank and work[r][c]:
                a, b = work[rank][c], work[r][c]
                work[r] = [a * x - b * y for x, y in zip(work[r], work[rank])]
        rank += 1
    return rank


# ------------------------------------------------------------ lattice-large


def lattice_large(lib, seed: int, workdir: str) -> list[Op]:
    """Weyl B6 over Q, braid 7 over Q and the B6 covectors over F_(2^31-1),
    each with its hyperplanes in a seeded order."""
    rng = random.Random(seed)
    b6 = list(lib.catalog.weyl_b(6).hyperplanes)
    rng.shuffle(b6)
    braid7 = list(lib.catalog.braid(7).hyperplanes)
    rng.shuffle(braid7)
    fp = lib.exactalg.PrimeField(F_P)
    inputs = (
        ("b6-q", lib.arrangement.make_arrangement(lib.QQ, 6, b6),
         checks.weyl_b_level_sizes(6), checks.exponents_weyl_b(6)),
        ("braid7-q", lib.arrangement.make_arrangement(lib.QQ, 7, braid7),
         checks.braid_level_sizes(7), checks.exponents_braid(7)),
        ("b6-fp", lib.arrangement.make_arrangement(fp, 6, [[int(x) % F_P for x in c] for c in b6]),
         checks.weyl_b_level_sizes(6), checks.exponents_weyl_b(6)),
    )
    ops = []
    for name, arrangement, sizes, exponents in inputs:
        path = os.path.join(workdir, f"{name}.json")
        report = os.path.join(workdir, f"{name}.lattice.json")
        _write_arrangement(lib, path, arrangement)

        def check(result, report=report, sizes=sizes, exponents=exponents):
            _code(result, 0)
            checks.check_lattice_report(_load(report), sizes, exponents)
            return f"{sum(sizes)} flats"

        ops.append(cli_op(f"lattice {name}", ["lattice", path, "--json", report], check,
                          outputs=[report]))
    return ops


# ------------------------------------------------------------------ certify

# name, catalog parameters, exponents, ambient dimension
DF_INPUTS = (
    ("weyl-b5", dict(name="weyl-b", rank=5), checks.exponents_weyl_b(5), 5),
    ("weyl-d5", dict(name="weyl-d", rank=5), checks.exponents_weyl_d(5), 5),
    ("braid6", dict(name="braid", rank=6), checks.exponents_braid(6), 6),
    ("shi-a3-k2", dict(name="shi", roots="A", rank=3, k=2), checks.exponents_shi(4, 2, 3), 4),
    ("shi-b3-k1", dict(name="shi", roots="B", rank=3, k=1), checks.exponents_shi(6, 1, 3), 4),
    ("edelman-reiner", dict(name="edelman-reiner"), checks.EXPONENTS_EDELMAN_REINER, 4),
    ("a4-1-3-f7", dict(name="intermediate", rank=4, k=1, r=3, p=7),
     checks.exponents_intermediate(4, 1, 3), 4),
)
IF_INPUTS = (
    ("weyl-b4", dict(name="weyl-b", rank=4), checks.exponents_weyl_b(4)),
    ("weyl-d4", dict(name="weyl-d", rank=4), checks.exponents_weyl_d(4)),
    ("braid5", dict(name="braid", rank=5), checks.exponents_braid(5)),
)
NOT_DF_INPUTS = (
    ("xyzw", dict(name="xyzw")),
    ("a3-0-3-f7", dict(name="intermediate", rank=3, k=0, r=3, p=7)),
)


def _malformed_inputs(workdir: str) -> list[tuple[str, str, str, str]]:
    """(name, arrangement file, certificate file, fault) for documents that
    must end in exit 1; none depends on the seed."""
    er = os.path.join(workdir, "edelman-reiner.json")
    docs = (
        ("df-level-list", er, {"kind": "divisional-flag", "levels": [[], [0]], "exponents": None},
         "AttributeError in jsonio.flag_from_json"),
        ("if-step-no-covector", er,
         {"kind": "inductive-freeness", "field": "Q", "dim": 4,
          "steps": [{"restriction_charpoly": [0, 0, 0, 1]}]},
         "KeyError in jsonio.if_certificate_from_json"),
        ("df-member-string", er,
         {"kind": "divisional-flag", "exponents": None, "levels": [
             {"members": [], "charpoly": checks.from_roots(checks.EXPONENTS_EDELMAN_REINER)},
             {"members": ["a"], "charpoly": [0, 0, 1]}]},
         "TypeError in arrangement.flat_from_members"),
    )
    out = []
    for name, arrangement, cert, fault in docs:
        path = os.path.join(workdir, f"{name}.cert.json")
        _dump(path, cert)
        out.append((name, arrangement, path, fault))
    bool_dim = os.path.join(workdir, "dim-true.json")
    _dump(bool_dim, {"field": "Q", "dim": True, "hyperplanes": [[1]]})
    cert = os.path.join(workdir, "dim-true.cert.json")
    _dump(cert, {"kind": "divisional-flag", "exponents": [1],
                 "levels": [{"members": [], "charpoly": [-1, 1]}]})
    out.append(("dim-true", bool_dim, cert, "jsonio.arrangement_from_json takes a bool as an int"))
    return out


def certify(lib, seed: int, workdir: str) -> list[Op]:
    """Certificates emitted and re-verified from files, exhaustive negative
    searches, and tampered and malformed certificates.  The search inputs are
    fixed; the seed picks what the tampered certificates change."""
    rng = random.Random(seed)
    paths: dict[str, str] = {}
    docs: dict[str, dict] = {}
    for name, params, *_ in DF_INPUTS + IF_INPUTS + NOT_DF_INPUTS:
        entry = lib.catalog.build_entry(**params)
        paths[name] = os.path.join(workdir, f"{name}.json")
        docs[name] = _write_arrangement(lib, paths[name], entry.arrangement)

    def out(name: str, kind: str) -> str:
        return os.path.join(workdir, f"{name}.{kind}.json")

    def verify_op(name: str, cert: str, expected: int, label: str, prepare=None) -> Op:
        report = out(name, f"{label}-verify")

        def check(result):
            _code(result, expected)
            require(_load(report) == {"valid": expected == 0}, f"report {_load(report)}")
            return "valid" if expected == 0 else "invalid"

        return cli_op(f"verify-cert {name} {label}", ["verify-cert", paths[name], cert, "--json", report],
                      check, outputs=[report], prepare=prepare)

    ops = []
    for name, _, exponents, dim in DF_INPUTS:
        cert, report = out(name, "df"), out(name, "df-report")

        def check_df(result, cert=cert, report=report, dim=dim, exponents=exponents):
            _code(result, 0)
            require(_load(report)["divisionally_free"] is True, "not reported divisionally free")
            checks.check_flag_certificate(_load(cert), dim, exponents)
            return "flag"

        ops.append(cli_op(f"df-check {name}",
                          ["df-check", paths[name], "--certificate", cert, "--json", report],
                          check_df, outputs=[cert, report]))
        ops.append(verify_op(name, cert, 0, "df"))

    for name, _, exponents in IF_INPUTS:
        cert, report = out(name, "if"), out(name, "if-report")

        def check_if(result, name=name, cert=cert, report=report, exponents=exponents):
            _code(result, 0)
            require(_load(report)["status"] == "certified", f"status {_load(report)['status']}")
            checks.check_if_certificate(_load(cert), docs[name], exponents)
            return "certified"

        ops.append(cli_op(f"if-check {name}",
                          ["if-check", paths[name], "--certificate", cert, "--json", report],
                          check_if, outputs=[cert, report]))
        ops.append(verify_op(name, cert, 0, "if"))

    refuted = out("a4-1-3-f7", "if-report")

    def check_refuted(result):
        _code(result, 2)
        require(_load(refuted)["status"] == "refuted", f"status {_load(refuted)['status']}")
        return "refuted"

    ops.append(cli_op("if-check a4-1-3-f7", ["if-check", paths["a4-1-3-f7"], "--json", refuted],
                      check_refuted, outputs=[refuted]))

    for name in ("weyl-b4", "braid5"):
        report = out(name, "hdf-report")

        def check_hdf(result, report=report):
            _code(result, 0)
            data = _load(report)
            require(data["hereditarily_divisionally_free"] is True and data["failing_flats"] == [],
                    f"report {data}")
            return "hereditarily df"

        ops.append(cli_op(f"hdf-check {name}", ["hdf-check", paths[name], "--json", report],
                          check_hdf, outputs=[report]))

    for name, _ in NOT_DF_INPUTS:
        report = out(name, "df-report")

        def check_not_df(result, report=report):
            _code(result, 2)
            require(_load(report) == {"divisionally_free": False}, f"report {_load(report)}")
            return "not df"

        ops.append(cli_op(f"df-check {name}", ["df-check", paths[name], "--json", report],
                          check_not_df, outputs=[report]))

    # well-formed tampered certificates: exit 2; the Edelman-Reiner flag has
    # levels 0..2 in dimension 4, level i carrying a charpoly of degree 4 - i
    level = rng.randrange(3)
    coefficient = rng.randrange(5 - level)
    dropped = rng.randrange(len(docs["braid5"]["hyperplanes"]))

    def tamper(source: str, target: str, change) -> Callable[[], None]:
        def prepare():
            cert = _load(source)
            change(cert)
            _dump(target, cert)

        return prepare

    def bump(cert):
        cert["levels"][level]["charpoly"][coefficient] += 1

    def reverse(cert):
        cert["steps"].reverse()

    def drop(cert):
        del cert["steps"][dropped]

    for name, source, label, change in (
        ("edelman-reiner", out("edelman-reiner", "df"), "charpoly-changed", bump),
        ("braid5", out("braid5", "if"), "steps-reversed", reverse),
        ("braid5", out("braid5", "if"), "step-dropped", drop),
    ):
        target = out(name, label)
        ops.append(verify_op(name, target, 2, label, prepare=tamper(source, target, change)))

    # malformed input: exit 1 with a one-line error
    for name, arrangement, cert, fault in _malformed_inputs(workdir):

        def check_error(result):
            _code(result, 1)
            lines = result.stderr.strip().splitlines()
            require(len(lines) == 1 and lines[0].startswith("error:"), f"stderr {result.stderr!r}")
            return "rejected"

        ops.append(cli_op(f"verify-cert {name}", ["verify-cert", arrangement, cert], check_error,
                          fault=fault))
    return ops


# --------------------------------------------------------- exponent-battery

DIRECTIONS_B3 = [v for v in itertools.product((-1, 0, 1), repeat=3)
                 if any(v) and next(x for x in v if x) > 0 and sum(map(abs, v)) <= 2]
DIRECTIONS_3 = [v for v in itertools.product((-1, 0, 1), repeat=3)
                if any(v) and next(x for x in v if x) > 0]
DIRECTIONS_4 = [v for v in itertools.product((-1, 0, 1), repeat=4)
                if any(v) and next(x for x in v if x) > 0]

# rank-3 inputs: (direction pool, size) per slot; subsets of B3 are mostly
# free, larger subsets of the 13 directions mostly not
RANK3_SLOTS = [(DIRECTIONS_B3, 5 + i % 3) for i in range(24)] + \
              [(DIRECTIONS_3, 6 + i % 5) for i in range(24)]
RANK4_SLOTS = [6 + i % 4 for i in range(10)]

# rank-2 multiplicities per slot, on the first lines of BASE_LINES in seeded
# coordinates and order; most are past the closed form |m| <= 2|A| - 1 and a
# few are dominant.  The seed changes coordinates and labels only: the cost
# of exp2 follows the exponents, which depend on where the lines sit relative
# to each other, so seeded line configurations would make the work per round
# vary by seed.
BASE_LINES = [(1, 0), (0, 1), (1, 1), (1, 2), (1, 3)]
EXP2_SLOTS = [
    (2, 1, 1), (2, 2, 1, 1), (2, 2, 2, 1, 1),
    (5, 4, 3), (6, 6, 5), (7, 5, 4), (9, 3, 2), (4, 4, 4), (8, 7, 6), (10, 9, 9),
    (4, 3, 3, 2), (5, 5, 4, 4), (6, 3, 3, 3), (8, 2, 2, 2), (5, 4, 4, 3), (7, 6, 5, 4),
    (6, 5, 5, 4), (7, 7, 6, 6),
    (3, 3, 3, 2, 2), (4, 3, 3, 3, 2), (5, 4, 3, 3, 2), (10, 2, 2, 2, 2), (4, 4, 4, 3, 3),
    (5, 5, 5, 4, 4), (6, 5, 4, 4, 3), (6, 6, 5, 5, 4),
]
# heavy constant multiplicities on fixed lines and coordinates: their cost
# also grows with the size of the line coefficients
HEAVY_LINES = [(0, 1), (1, 0), (1, 1), (1, -1), (1, 2)]
HEAVY_EXP2 = [(HEAVY_LINES[:4], (6, 6, 6, 6)), (HEAVY_LINES, (8, 8, 8, 8, 8))]


def _signed_permutation(rng: random.Random, dim: int) -> list[list[int]]:
    """A seeded change of coordinates that keeps every coefficient's size,
    on which the cost of exact arithmetic depends."""
    order = rng.sample(range(dim), dim)
    return [[rng.choice((-1, 1)) if j == order[i] else 0 for j in range(dim)] for i in range(dim)]


def _random_normals(rng: random.Random, pool, size: int, dim: int) -> list[list[int]]:
    """A full-rank subset of the pool in seeded coordinates (the whole pool
    when ``size`` is its length)."""
    while True:
        subset = rng.sample(pool, size)
        if _integer_rank(subset) == dim:
            break
    u = _signed_permutation(rng, dim)
    return [[sum(v[k] * u[k][j] for k in range(dim)) for j in range(dim)] for v in subset]


def exponent_battery(lib, seed: int, workdir: str) -> list[Op]:
    """free3_decide and b2_gap on seeded rank-3 inputs, b2_gap on seeded
    rank-4 inputs and on B4 and D4, exp2 on seeded rank-2 multiarrangements."""
    rng = random.Random(seed)
    rank3 = [_random_normals(rng, pool, size, 3) for pool, size in RANK3_SLOTS]
    rank4 = [_random_normals(rng, DIRECTIONS_4, size, 4) for size in RANK4_SLOTS]
    coxeter4 = [lib.jsonio.arrangement_to_json(lib.catalog.weyl_b(4))["hyperplanes"],
                lib.jsonio.arrangement_to_json(lib.catalog.weyl_d(4))["hyperplanes"]]
    multis = []
    for mults in EXP2_SLOTS:
        pairs = list(zip(_random_normals(rng, BASE_LINES[:len(mults)], len(mults), 2), mults))
        rng.shuffle(pairs)  # relabels the hyperplanes of the same multiarrangement
        multis.append(tuple(map(list, zip(*pairs))))
    multis += HEAVY_EXP2

    def arrangement(lib, normals):
        return lib.arrangement.make_arrangement(lib.QQ, len(normals[0]), normals)

    verdicts: dict[int, bool] = {}
    ops = []
    for i, normals in enumerate(rank3):

        def check_free3(report, i=i, normals=normals):
            checks.check_free3(report, normals)
            verdicts[i] = report.free
            return f"free {tuple(report.exponents)}" if report.free else f"gap {report.gap}"

        ops.append(Op(f"free3_decide rank3-{i}",
                      lambda lib, normals=normals: lib.multi.free3_decide(arrangement(lib, normals)),
                      check_free3, prepare=lambda i=i: verdicts.pop(i, None)))
    for i, normals in enumerate(rank3):
        h = rng.randrange(len(normals))

        def check_gap3(gap, i=i, normals=normals):
            checks.check_b2_gap(gap, normals)
            require(i in verdicts, "no free3_decide verdict to compare with")
            require((gap == 0) == verdicts[i], f"b2 gap {gap} but free3_decide free={verdicts[i]}")
            return f"gap {gap}"

        ops.append(Op(f"b2_gap rank3-{i} h={h}",
                      lambda lib, normals=normals, h=h: lib.multi.b2_gap(arrangement(lib, normals), h),
                      check_gap3))
    for i, normals in enumerate(rank4 + coxeter4):
        h = rng.randrange(len(normals))
        free = i >= len(rank4)  # Coxeter arrangements are free, so their gap is 0

        def check_gap4(gap, normals=normals, free=free):
            checks.check_b2_gap(gap, normals)
            require(not free or gap == 0, f"b2 gap {gap} on a free arrangement")
            return f"gap {gap}"

        label = f"rank4-{i}" if not free else ("weyl-b4", "weyl-d4")[i - len(rank4)]
        ops.append(Op(f"b2_gap {label} h={h}",
                      lambda lib, normals=normals, h=h: lib.multi.b2_gap(arrangement(lib, normals), h),
                      check_gap4))
    for i, (lines, mults) in enumerate(multis):

        def run_exp2(lib, lines=lines, mults=mults):
            multi = lib.multi
            base = arrangement(lib, lines)
            return multi.exp2(multi.MultiArrangement(base, multi.Multiplicity(tuple(mults))))

        def check_exp2(result, lines=lines, mults=mults):
            checks.check_exp2(tuple(result), len(lines), mults)
            return f"exp {tuple(result)}"

        ops.append(Op(f"exp2 {len(lines)} lines m={tuple(mults)}", run_exp2, check_exp2))
    return ops


WORKLOADS = {
    "lattice-large": lattice_large,
    "certify": certify,
    "exponent-battery": exponent_battery,
}
