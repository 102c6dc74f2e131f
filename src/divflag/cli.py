"""Command-line front end.

Exit codes follow a certification contract: 0 means success or a positive
verdict, 2 means a sound negative verdict (not divisionally free, not
free, refuted, or search budget exhausted), 1 means a usage or input
error.  All output orderings are deterministic.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import intpoly
from .arrangement import Arrangement, make_arrangement
from .catalog import CATALOG_NAMES, CatalogEntry, build_entry
from .exactalg import QQ, is_prime, normalize_covector
from .freeness import (
    IF_CERTIFIED,
    division_equivalences,
    divisional_flag_search,
    hereditarily_df,
    inductively_free,
)
from .jsonio import (
    SchemaError,
    arrangement_to_json,
    flag_to_json,
    if_certificate_to_json,
    lattice_report,
    load_arrangement,
    poly_to_json,
    save_json,
    verify_certificate,
)
from .lattice import (WHITNEY_CAP, BadPrimeError, build_lattice, char_data, point_count_oracle,
                      whitney_oracle)
from .multi import free3_decide, remainder_division, ziegler_restriction

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CERTIFIED = 2


def _catalog_entry(name: str, args) -> CatalogEntry:
    return build_entry(name, **{key: getattr(args, key) for key in ("rank", "k", "r", "p", "roots")
                                if getattr(args, key) is not None})


def _resolve_arrangement(args) -> Arrangement:
    if args.catalog and args.input:
        raise SchemaError("give either an input file or --catalog, not both")
    if args.catalog:
        return _catalog_entry(args.catalog, args).arrangement
    if not args.input:
        raise SchemaError("an input file or --catalog is required")
    return load_arrangement(args.input)


def _emit(args, report: dict) -> None:
    if args.json_out:
        save_json(args.json_out, report)


def _cmd_charpoly(args) -> int:
    arr = _resolve_arrangement(args)
    data = char_data(arr)
    print(f"hyperplanes: {len(arr)}  dim: {arr.dim}")
    print(f"chi: {intpoly.to_string(data.chi)}")
    if len(arr):
        print(f"chi0: {intpoly.to_string(data.chi0)}")
    roots = intpoly.linear_roots(data.chi)
    print(f"integer roots: {list(roots) if roots is not None else 'does not split'}")
    report = {
        "dim": arr.dim,
        "hyperplanes": len(arr),
        "chi": poly_to_json(data.chi),
        "chi0": poly_to_json(data.chi0) if len(arr) else None,
        "roots": list(roots) if roots is not None else None,
    }
    _emit(args, report)
    return EXIT_OK


def _cmd_lattice(args) -> int:
    arr = _resolve_arrangement(args)
    lat = build_lattice(arr)
    data = char_data(arr, lat)
    sizes = lat.level_sizes()
    print(f"level sizes: {list(sizes)}")
    print(f"flats: {sum(sizes)}")
    print(f"chi: {intpoly.to_string(data.chi)}")
    if args.json_out:
        save_json(args.json_out, lattice_report(lat, data.chi))
    return EXIT_OK


def _cmd_df_check(args) -> int:
    arr = _resolve_arrangement(args)
    flag = divisional_flag_search(arr)
    if flag is None:
        print("not divisionally free (exhaustive flag search)")
        _emit(args, {"divisionally_free": False})
        return EXIT_NOT_CERTIFIED
    members = [list(f.members) for f in flag.flats]
    print(f"divisionally free; flag members per level: {members}")
    for chi in flag.charpolys:
        print(f"  chi: {intpoly.to_string(chi)}")
    if flag.exponents is not None:
        print(f"exponents: {list(flag.exponents)}")
    report = {"divisionally_free": True, "certificate": flag_to_json(flag)}
    if args.certificate:
        save_json(args.certificate, flag_to_json(flag))
    _emit(args, report)
    return EXIT_OK


def _cmd_if_check(args) -> int:
    if args.budget < 0:
        raise ValueError(f"--budget must be nonnegative, got {args.budget}")
    arr = _resolve_arrangement(args)
    result = inductively_free(arr, budget=args.budget)
    print(f"inductive freeness: {result.status} (nodes: {result.nodes})")
    report = {"status": result.status, "nodes": result.nodes}
    if result.status == IF_CERTIFIED:
        cert = if_certificate_to_json(result.certificate)
        report["certificate"] = cert
        if args.certificate:
            save_json(args.certificate, cert)
        _emit(args, report)
        return EXIT_OK
    _emit(args, report)
    return EXIT_NOT_CERTIFIED


def _cmd_hdf_check(args) -> int:
    arr = _resolve_arrangement(args)
    ok, failing = hereditarily_df(arr)
    if ok:
        print("hereditarily divisionally free")
    else:
        print(f"not hereditarily divisionally free; failing flats: "
              f"{[list(f.members) for f in failing]}")
    _emit(args, {
        "hereditarily_divisionally_free": ok,
        "failing_flats": [list(f.members) for f in failing],
    })
    return EXIT_OK if ok else EXIT_NOT_CERTIFIED


def _cmd_free3(args) -> int:
    arr = _resolve_arrangement(args)
    report = free3_decide(arr)
    if report.free:
        print(f"free; exponents {list(report.exponents)} "
              f"(b2 gap 0 at hyperplane {report.witness_h})")
    else:
        print(f"not free (b2 gap {report.gap} at hyperplane {report.witness_h})")
    _emit(args, {
        "free": report.free,
        "exponents": list(report.exponents) if report.exponents else None,
        "witness_h": report.witness_h,
        "gap": report.gap,
        "b2_deconed": report.b2_dec,
        "b2_ziegler": report.b2_ziegler,
    })
    return EXIT_OK if report.free else EXIT_NOT_CERTIFIED


def _cmd_ziegler(args) -> int:
    arr = _resolve_arrangement(args)
    ma = ziegler_restriction(arr, args.pivot)
    print(f"restriction size: {len(ma.base)}  multiplicities: {list(ma.mult.values)}  "
          f"|m| = {ma.mult.total}")
    _emit(args, {
        "pivot": args.pivot,
        "restriction": arrangement_to_json(ma.base),
        "multiplicities": list(ma.mult.values),
        "total": ma.mult.total,
    })
    return EXIT_OK


def _cmd_remainder(args) -> int:
    arr = _resolve_arrangement(args)
    rep = remainder_division(arr, args.pivot)
    print(f"chi0 = (t - {rep.quotient_root}) * chi0_restriction + r")
    print(f"r: {intpoly.to_string(rep.r)}  r0: {rep.r0}  alternating view: {list(rep.alternating_r)}")
    _emit(args, {
        "pivot": rep.pivot,
        "quotient_root": rep.quotient_root,
        "r": poly_to_json(rep.r),
        "r0": rep.r0,
        "alternating_coefficients": list(rep.alternating_r),
        "chi0": poly_to_json(rep.chi0),
        "chi0_restriction": poly_to_json(rep.chi0_restriction),
    })
    return EXIT_OK


def _cmd_same_eq(args) -> int:
    arr = _resolve_arrangement(args)
    rep = division_equivalences(arr, args.pivot)
    names = (
        "chi(A^H) | chi(A)",
        "chi(A^H) | chi(A')",
        "gcd degree dim-1",
        "r0 = 0",
        "r0' = 0",
    )
    for name, value in zip(names, rep.all_conditions()):
        print(f"{name}: {value}")
    print(f"restriction certified free: {rep.restriction_certified_free}")
    _emit(args, {
        "divides_full": rep.divides_full,
        "divides_deleted": rep.divides_deleted,
        "gcd_degree_full": rep.gcd_degree_full,
        "remainder_zero": rep.remainder_zero,
        "deleted_remainder_zero": rep.deleted_remainder_zero,
        "restriction_certified_free": rep.restriction_certified_free,
    })
    return EXIT_OK


def _cmd_catalog(args) -> int:
    entry = _catalog_entry(args.name, args)
    arrangement = entry.arrangement
    print(f"{entry.name}: {len(arrangement)} hyperplanes in dim {arrangement.dim}")
    if args.emit:
        save_json(args.emit, arrangement_to_json(arrangement))
        print(f"wrote {args.emit}")
    return EXIT_OK


def _oracle_verify_one(arr: Arrangement, primes) -> list[str]:
    failures = []
    data = char_data(arr)
    if len(arr) <= WHITNEY_CAP:
        whitney = whitney_oracle(arr)
        if whitney != data.chi:
            failures.append("whitney oracle disagrees with the Moebius computation")
    if arr.field == QQ:
        for q in primes:
            try:
                count = point_count_oracle(arr, q)
            except BadPrimeError:
                continue
            if count != intpoly.eval_at(data.chi, q):
                failures.append(f"point count at q={q} disagrees with chi({q})")
    return failures


def _random_arrangement(rng: random.Random) -> Arrangement:
    """A rational arrangement of 1 to 8 distinct hyperplanes in dimension 2
    to 4, with covector entries in [-2, 2]."""
    dim = rng.randint(2, 4)
    n = rng.randint(1, 8)
    covs = set()
    while len(covs) < n:
        cov = tuple(rng.randint(-2, 2) for _ in range(dim))
        if any(cov):
            covs.add(normalize_covector(QQ, cov))
    return make_arrangement(QQ, dim, sorted(covs))


def _cmd_oracle_verify(args) -> int:
    primes = args.primes or [5, 7]
    # a prime bad for one arrangement is skipped there; a number that is
    # not prime is bad for every one, so no point count would run
    not_prime = [q for q in primes if not is_prime(q)]
    if not_prime:
        raise ValueError(f"--primes: {not_prime[0]} is not prime")
    if args.random is not None and args.random < 0:
        raise ValueError(f"--random must be nonnegative, got {args.random}")
    reports = []
    if args.random is not None:
        rng = random.Random(args.seed)
        checked = 0
        while checked < args.random:
            reports.extend(_oracle_verify_one(_random_arrangement(rng), primes))
            checked += 1
        print(f"checked {checked} random arrangements (seed {args.seed})")
    else:
        arr = _resolve_arrangement(args)
        reports = _oracle_verify_one(arr, primes)
        print(f"checked 1 arrangement against {len(primes)} primes")
    if reports:
        for line in reports:
            print(f"MISMATCH: {line}")
        _emit(args, {"agree": False, "failures": reports})
        return EXIT_NOT_CERTIFIED
    print("oracles agree")
    _emit(args, {"agree": True, "failures": []})
    return EXIT_OK


def _cmd_verify_cert(args) -> int:
    arr = load_arrangement(args.arrangement)
    with open(args.certificate) as fh:
        cert = json.load(fh)
    ok = verify_certificate(arr, cert)
    print("certificate valid" if ok else "certificate INVALID")
    _emit(args, {"valid": ok})
    return EXIT_OK if ok else EXIT_NOT_CERTIFIED


_CATALOG_PARAMETERS = (
    (("--l", "--rank"), dict(dest="rank", type=int, help="catalog rank parameter")),
    (("--k",), dict(type=int, help="catalog k parameter (shi, intermediate)")),
    (("--r",), dict(type=int, help="catalog r parameter (intermediate)")),
    (("--p",), dict(type=int, help="catalog prime parameter")),
    (("--roots",), dict(choices=("A", "B", "C", "D"), help="root system type (shi)")),
)
_JSON = (("--json",), dict(dest="json_out", metavar="OUT", help="write a JSON report"))
_INPUT = ((("input",), dict(nargs="?", help="arrangement JSON file")),
          (("--catalog",), dict(choices=CATALOG_NAMES, help="use a catalog arrangement")),
          *_CATALOG_PARAMETERS, _JSON)
_CERTIFICATE = (("--certificate",), dict(metavar="OUT", help="write the certificate JSON"))
_PIVOT = (("--pivot",), dict(type=int, default=0, help="hyperplane index"))

# command -> (handler, arguments), in the order `divflag --help` lists them;
# an argument is its option strings or positional name and the keywords
# build_parser passes to add_argument
COMMANDS = {
    "charpoly": (_cmd_charpoly, _INPUT),
    "lattice": (_cmd_lattice, _INPUT),
    "df-check": (_cmd_df_check, (*_INPUT, _CERTIFICATE)),
    "if-check": (_cmd_if_check, (*_INPUT, _CERTIFICATE, (
        ("--budget",), dict(type=int, default=200_000, help="search node budget")))),
    "hdf-check": (_cmd_hdf_check, _INPUT),
    "free3": (_cmd_free3, _INPUT),
    "ziegler": (_cmd_ziegler, (*_INPUT, _PIVOT)),
    "remainder": (_cmd_remainder, (*_INPUT, _PIVOT)),
    "same-eq": (_cmd_same_eq, (*_INPUT, _PIVOT)),
    "catalog": (_cmd_catalog, (
        (("name",), dict(choices=CATALOG_NAMES, help="catalog arrangement name")),
        *_CATALOG_PARAMETERS,
        (("--emit",), dict(metavar="FILE", help="write the arrangement JSON")),
    )),
    "oracle-verify": (_cmd_oracle_verify, (
        *_INPUT,
        (("--random",), dict(type=int, metavar="N", help="verify N random arrangements")),
        (("--seed",), dict(type=int, default=0, help="seed for --random")),
        (("--primes",), dict(type=int, nargs="*", help="point-count primes")),
    )),
    "verify-cert": (_cmd_verify_cert, (
        (("arrangement",), dict(help="arrangement JSON file")),
        (("certificate",), dict(help="certificate JSON file")),
        _JSON,
    )),
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of every command in COMMANDS; ``run`` builds it
    only for lines that ``_parse`` declines."""
    parser = argparse.ArgumentParser(
        prog="divflag",
        description="Exact lattice computations and freeness certification "
        "for central hyperplane arrangements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, arguments) in COMMANDS.items():
        p = sub.add_parser(name)
        for names, keywords in arguments:
            p.add_argument(*names, **keywords)
        p.set_defaults(fn=fn)
    return parser


def _parse(argv) -> argparse.Namespace | None:
    """The namespace ``build_parser().parse_args(argv)`` gives when argv is a
    command name, its declared options spelled in full, each with one value
    not beginning with '-', and its declared positionals, every value passing
    its type and choices; None for any other line.  Never prints or exits."""
    if not argv or argv[0] not in COMMANDS:
        return None
    fn, arguments = COMMANDS[argv[0]]
    values = {"command": argv[0], "fn": fn}
    options, positionals = {}, []
    for names, keywords in arguments:
        if names[0][0] == "-":
            dest = keywords.get("dest", names[0][2:].replace("-", "_"))
            options.update(dict.fromkeys(names, (dest, keywords)))
        else:
            dest = names[0]
            positionals.append((dest, keywords))
        values[dest] = keywords.get("default")
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-" and positionals:
            dest, keywords = positionals.pop(0)
        elif token in options and "nargs" not in options[token][1]:
            (dest, keywords), token = options[token], next(tokens, "-")
            if token[:1] == "-":
                return None
        else:
            return None
        try:
            values[dest] = keywords.get("type", str)(token)
        except (TypeError, ValueError):
            return None
        if "choices" in keywords and values[dest] not in keywords["choices"]:
            return None
    if any("nargs" not in keywords for _, keywords in positionals):
        return None
    return argparse.Namespace(**values)


def run(argv) -> int:
    """Run one command line and return its exit code.

    A well-formed line is read straight from COMMANDS by ``_parse``.  Any
    other line goes to the argparse parser, which prints help, usage and
    every usage error (exit 1).
    """
    args = _parse(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return EXIT_ERROR if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except (ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
