import argparse
import hashlib
import json
import os
import pathlib
import random
import re
import shlex
import subprocess
import sys
import types

import pytest

import divflag

from divflag import cli
from divflag.cli import build_parser, run
from divflag.jsonio import (
    arrangement_from_json,
    arrangement_to_json,
    flag_from_json,
    flag_to_json,
    if_certificate_from_json,
    if_certificate_to_json,
    load_arrangement,
    save_json,
    verify_certificate,
)
from divflag.catalog import edelman_reiner_restriction, intermediate, weyl_b, xyzw_example
from divflag.freeness import IF_CERTIFIED, divisional_flag_search, inductively_free
from divflag.lattice import char_data
from divflag.exactalg import PrimeField, QQ
from divflag.arrangement import make_arrangement
from fractions import Fraction


def test_arrangement_json_roundtrip():
    arr = make_arrangement(QQ, 2, [[1, Fraction(1, 2)], [0, 1]])
    data = arrangement_to_json(arr)
    assert data["hyperplanes"][0] == [1, "1/2"]
    assert arrangement_from_json(data) == arr


# Weyl B3 with x1 replaced by x1/2: covectors stored as primitive int rows
# with non-unit leads, written to JSON scaled to lead 1
B3_HALF = [[2, -1, 0], [2, 1, 0], [2, 0, -1], [2, 0, 1], [0, 1, -1], [0, 1, 1],
           [2, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_json_writes_covectors_at_lead_one_and_reads_them_back():
    arr = make_arrangement(QQ, 3, B3_HALF)
    assert arr.hyperplanes[0] == (2, -1, 0) and arr.hyperplanes[6] == (1, 0, 0)
    data = json.loads(json.dumps(arrangement_to_json(arr)))
    assert data["hyperplanes"][:3] == [[1, "-1/2", 0], [1, "1/2", 0], [1, 0, "-1/2"]]
    assert arrangement_from_json(data) == arr
    result = inductively_free(arr)
    assert result.status == IF_CERTIFIED
    cert = json.loads(json.dumps(if_certificate_to_json(result.certificate)))
    written = [step["covector"] for step in cert["steps"]]
    assert sorted(map(json.dumps, written)) == sorted(map(json.dumps, data["hyperplanes"]))
    assert sorted(make_arrangement(QQ, 3, written).hyperplanes) == sorted(arr.hyperplanes)
    assert verify_certificate(arr, cert)
    assert if_certificate_to_json(if_certificate_from_json(cert)) == cert


def test_arrangement_json_prime_field():
    arr = make_arrangement(PrimeField(7), 2, [[3, 1], [0, 1]])
    data = arrangement_to_json(arr)
    assert data["field"] == {"Fp": 7}
    assert arrangement_from_json(data) == arr


def test_arrangement_json_errors_name_field():
    with pytest.raises(ValueError, match="hyperplanes"):
        arrangement_from_json({"field": "Q", "dim": 2})
    with pytest.raises(ValueError, match="field"):
        arrangement_from_json({"field": "R", "dim": 2, "hyperplanes": []})


def test_catalog_emit_roundtrip(tmp_path, capsys):
    out = tmp_path / "er.json"
    assert run(["catalog", "edelman-reiner", "--emit", str(out)]) == 0
    assert load_arrangement(str(out)) == edelman_reiner_restriction()
    report1 = tmp_path / "r1.json"
    report2 = tmp_path / "r2.json"
    assert run(["charpoly", str(out), "--json", str(report1)]) == 0
    assert run(["charpoly", "--catalog", "edelman-reiner", "--json", str(report2)]) == 0
    assert json.loads(report1.read_text()) == json.loads(report2.read_text())


def test_df_check_certificate_reverifies(tmp_path):
    arr_path = tmp_path / "er.json"
    cert_path = tmp_path / "cert.json"
    assert run(["catalog", "edelman-reiner", "--emit", str(arr_path)]) == 0
    assert run(["df-check", str(arr_path), "--certificate", str(cert_path)]) == 0
    assert run(["verify-cert", str(arr_path), str(cert_path)]) == 0
    # verification uses only the two files
    arr = load_arrangement(str(arr_path))
    cert = json.loads(cert_path.read_text())
    assert verify_certificate(arr, cert)


def test_verify_cert_rejects_unclosed_level(tmp_path):
    arr_path = tmp_path / "wb4.json"
    cert_path = tmp_path / "cert.json"
    out = tmp_path / "verify.json"
    assert run(["catalog", "weyl-b", "--l", "4", "--emit", str(arr_path)]) == 0
    assert run(["df-check", str(arr_path), "--certificate", str(cert_path)]) == 0
    cert = json.loads(cert_path.read_text())
    # any two members of a codimension-2 flat span it, so the cut list has
    # the same closure and only the closedness check can reject it
    members = cert["levels"][2]["members"]
    assert len(members) > 2
    members.pop()
    cert_path.write_text(json.dumps(cert))
    assert run(["verify-cert", str(arr_path), str(cert_path), "--json", str(out)]) == 2
    assert json.loads(out.read_text()) == {"valid": False}


def test_flag_from_json_puts_level_i_at_codimension_i():
    arr = weyl_b(4)
    flag = divisional_flag_search(arr)
    assert flag_from_json(arr, flag_to_json(flag)) == flag
    # a cut member list is kept as listed, at its level, and verify rejects it
    doc = flag_to_json(flag)
    doc["levels"][2]["members"].pop()
    parsed = flag_from_json(arr, doc)
    assert [f.codim for f in parsed.flats] == [0, 1, 2]
    assert parsed.flats[2].members == tuple(doc["levels"][2]["members"])
    assert not parsed.verify(arr)
    # the smallest index out of range is named
    doc["levels"][2]["members"] = [16, 0, -2, -1]
    with pytest.raises(IndexError, match="^hyperplane index -2 out of range$"):
        flag_from_json(arr, doc)


def _weyl_b4_certificate(tmp_path):
    arr_path = tmp_path / "wb4.json"
    cert_path = tmp_path / "cert.json"
    assert run(["catalog", "weyl-b", "--l", "4", "--emit", str(arr_path)]) == 0
    assert run(["df-check", str(arr_path), "--certificate", str(cert_path)]) == 0
    return arr_path, cert_path, json.loads(cert_path.read_text())


def _verify_exit(tmp_path, arr_path, cert):
    cert_path = tmp_path / "forged.json"
    out = tmp_path / "verify.json"
    cert_path.write_text(json.dumps(cert))
    code = run(["verify-cert", str(arr_path), str(cert_path), "--json", str(out)])
    if code != 1:
        assert json.loads(out.read_text()) == {"valid": code == 0}
    return code


@pytest.mark.parametrize("arr", [xyzw_example(), intermediate(3, 0, 3, 7)], ids=["xyzw", "a3-0-3-f7"])
def test_verify_cert_rejects_one_level_flag(tmp_path, arr):
    # neither arrangement is divisionally free; a flag that stops at the top
    # level, where A has dimension 4 and hyperplanes, must not certify it
    arr_path = tmp_path / "arr.json"
    arr_path.write_text(json.dumps(arrangement_to_json(arr)))
    assert run(["df-check", str(arr_path)]) == 2
    cert = {"kind": "divisional-flag", "exponents": None,
            "levels": [{"members": [], "charpoly": list(char_data(arr).chi)}]}
    assert _verify_exit(tmp_path, arr_path, cert) == 2


def test_verify_cert_rejects_truncated_flag(tmp_path):
    arr_path, _, cert = _weyl_b4_certificate(tmp_path)
    assert len(cert["levels"]) == 3
    del cert["levels"][-1]
    assert _verify_exit(tmp_path, arr_path, cert) == 2


def _reverse_last(cert):
    cert["levels"][-1]["members"].reverse()


def _duplicate_last(cert):
    members = cert["levels"][-1]["members"]
    members.insert(0, members[0])


def _move_middle(cert):
    outside = min(set(range(16)) - set(cert["levels"][2]["members"]))
    cert["levels"][1]["members"] = [outside]


def _bump_last_charpoly(cert):
    cert["levels"][-1]["charpoly"][0] += 1


@pytest.mark.parametrize("change", [_reverse_last, _duplicate_last, _move_middle, _bump_last_charpoly],
                         ids=["unsorted", "duplicated", "not-nested", "last-charpoly"])
def test_verify_cert_rejects_changed_flag(tmp_path, change):
    arr_path, _, cert = _weyl_b4_certificate(tmp_path)
    assert _verify_exit(tmp_path, arr_path, cert) == 0
    change(cert)
    assert _verify_exit(tmp_path, arr_path, cert) == 2


@pytest.mark.parametrize("exponents", [[2, 2, 2, 2], None], ids=["wrong", "null"])
def test_verify_cert_rejects_forged_exponents(tmp_path, exponents):
    arr_path, _, cert = _weyl_b4_certificate(tmp_path)
    assert cert["exponents"] == [1, 3, 5, 7]
    cert["exponents"] = exponents
    assert _verify_exit(tmp_path, arr_path, cert) == 2


def test_verify_cert_rejects_if_certificate_for_another_field(tmp_path):
    # the same covectors over Q and over F_2: only the F_2 arrangement is
    # inductively free, and its certificate must not verify the rational one
    covs = [[0, 1, 1], [1, 1, 1], [1, 0, 1], [0, 0, 1], [1, 1, 0]]
    q_path, f2_path = tmp_path / "q.json", tmp_path / "f2.json"
    q_path.write_text(json.dumps({"field": "Q", "dim": 3, "hyperplanes": covs}))
    f2_path.write_text(json.dumps({"field": {"Fp": 2}, "dim": 3, "hyperplanes": covs}))
    assert run(["if-check", str(q_path)]) == 2
    assert run(["df-check", str(q_path)]) == 2
    assert run(["free3", str(q_path)]) == 2
    cert_path = tmp_path / "f2.cert.json"
    assert run(["if-check", str(f2_path), "--certificate", str(cert_path)]) == 0
    cert = json.loads(cert_path.read_text())
    assert _verify_exit(tmp_path, f2_path, cert) == 0
    assert _verify_exit(tmp_path, q_path, cert) == 2


def test_verify_cert_rejects_if_certificate_for_another_dim(tmp_path):
    # Weyl B3 and the same hyperplanes in one more dimension
    arr_path, cert_path = tmp_path / "wb3.json", tmp_path / "cert.json"
    assert run(["catalog", "weyl-b", "--l", "3", "--emit", str(arr_path)]) == 0
    assert run(["if-check", str(arr_path), "--certificate", str(cert_path)]) == 0
    wide = json.loads(arr_path.read_text())
    wide["dim"] = 4
    wide["hyperplanes"] = [cov + [0] for cov in wide["hyperplanes"]]
    wide_path = tmp_path / "wide.json"
    wide_path.write_text(json.dumps(wide))
    assert _verify_exit(tmp_path, wide_path, json.loads(cert_path.read_text())) == 2
    # with no hyperplanes only the dimension tells them apart
    empty_path = tmp_path / "empty.json"
    empty_path.write_text(json.dumps({"field": "Q", "dim": 3, "hyperplanes": []}))
    cert = {"kind": "inductive-freeness", "field": "Q", "dim": 3, "steps": []}
    assert _verify_exit(tmp_path, empty_path, cert) == 0
    assert _verify_exit(tmp_path, empty_path, dict(cert, dim=4)) == 2


def test_verify_cert_member_out_of_range(tmp_path, capsys):
    arr_path, _, cert = _weyl_b4_certificate(tmp_path)
    cert["levels"][1]["members"] = [99]
    capsys.readouterr()
    assert _verify_exit(tmp_path, arr_path, cert) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and err.startswith("error:")
    assert "Traceback" not in err


def test_verify_cert_rejects_bool_charpoly(tmp_path, capsys):
    arr_path = tmp_path / "wb4.json"
    cert_path = tmp_path / "cert.json"
    assert run(["catalog", "weyl-b", "--l", "4", "--emit", str(arr_path)]) == 0
    assert run(["df-check", str(arr_path), "--certificate", str(cert_path)]) == 0
    cert = json.loads(cert_path.read_text())
    # JSON true reads as a Python bool, which is an int equal to 1
    assert cert["levels"][0]["charpoly"][-1] == 1
    cert["levels"][0]["charpoly"][-1] = True
    cert_path.write_text(json.dumps(cert))
    capsys.readouterr()
    assert run(["verify-cert", str(arr_path), str(cert_path)]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and err.startswith("error:")
    assert "Traceback" not in err


def test_df_check_refuted_exit_code(tmp_path):
    arr_path = tmp_path / "xyzw.json"
    assert run(["catalog", "xyzw", "--emit", str(arr_path)]) == 0
    assert run(["df-check", str(arr_path)]) == 2


def test_if_check_certificate_reverifies(tmp_path):
    arr_path = tmp_path / "wb3.json"
    cert_path = tmp_path / "cert.json"
    assert run(["catalog", "weyl-b", "--l", "3", "--emit", str(arr_path)]) == 0
    assert run(["if-check", str(arr_path), "--certificate", str(cert_path)]) == 0
    assert run(["verify-cert", str(arr_path), str(cert_path)]) == 0


def test_if_certificate_in_dimension_one_reverifies(tmp_path):
    # the restriction onto the only hyperplane is zero-dimensional, with chi 1
    arr_path, cert_path = tmp_path / "line.json", tmp_path / "cert.json"
    arr_path.write_text(json.dumps({"field": "Q", "dim": 1, "hyperplanes": [[1]]}))
    assert run(["if-check", str(arr_path), "--certificate", str(cert_path)]) == 0
    cert = json.loads(cert_path.read_text())
    assert cert["steps"] == [{"covector": [1], "restriction_charpoly": [1]}]
    assert _verify_exit(tmp_path, arr_path, cert) == 0


def test_same_eq_in_dimension_one(tmp_path, capsys):
    arr_path = tmp_path / "line.json"
    arr_path.write_text(json.dumps({"field": "Q", "dim": 1, "hyperplanes": [[1]]}))
    capsys.readouterr()
    assert run(["same-eq", str(arr_path), "--pivot", "0"]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert out.out.splitlines() == [
        "chi(A^H) | chi(A): True",
        "chi(A^H) | chi(A'): True",
        "gcd degree dim-1: True",
        "r0 = 0: True",
        "r0' = 0: True",
        "restriction certified free: True",
    ]


def test_tampered_certificate_rejected(tmp_path):
    arr_path = tmp_path / "er.json"
    cert_path = tmp_path / "cert.json"
    run(["catalog", "edelman-reiner", "--emit", str(arr_path)])
    run(["df-check", str(arr_path), "--certificate", str(cert_path)])
    cert = json.loads(cert_path.read_text())
    cert["levels"][1]["charpoly"][0] += 1
    cert_path.write_text(json.dumps(cert))
    assert run(["verify-cert", str(arr_path), str(cert_path)]) == 2


def test_free3_exit_codes():
    assert run(["free3", "--catalog", "xyzw-restriction"]) == 2
    assert run(["free3", "--catalog", "boolean", "--l", "3"]) == 0


def test_oracle_verify_catalog():
    assert run(["oracle-verify", "--catalog", "boolean", "--l", "3"]) == 0


def test_oracle_verify_weyl_b3_primes(capsys):
    # 5 and 7 are primes; the point counts at both run and agree
    assert run(["oracle-verify", "--catalog", "weyl-b", "--l", "3", "--primes", "5", "7"]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert out.out.splitlines() == ["checked 1 arrangement against 2 primes", "oracles agree"]


def test_oracle_verify_random_seeded():
    assert run(["oracle-verify", "--random", "5", "--seed", "11"]) == 0


@pytest.mark.parametrize("argv", [["--random", "0"], ["--random", "0", "--catalog", "boolean", "--l", "2"]],
                         ids=["alone", "with-catalog"])
def test_oracle_verify_random_zero(capsys, argv):
    # --random 0 checks zero random arrangements, whatever else is given
    assert run(["oracle-verify", *argv]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert out.out.splitlines() == ["checked 0 random arrangements (seed 0)", "oracles agree"]


def test_remainder_and_same_eq():
    assert run(["remainder", "--catalog", "xyzw", "--pivot", "3"]) == 0
    assert run(["same-eq", "--catalog", "xyzw", "--pivot", "3"]) == 0
    assert run(["ziegler", "--catalog", "edelman-reiner", "--pivot", "3"]) == 0


def test_hdf_check():
    assert run(["hdf-check", "--catalog", "boolean", "--l", "3"]) == 0
    assert run(["hdf-check", "--catalog", "xyzw"]) == 2


@pytest.mark.parametrize("argv,files,message", [
    pytest.param(["catalog", "weyl-d", "--l", "1"], {}, "type D needs rank >= 2", id="catalog-parameter"),
    pytest.param(["verify-cert", "arr.json", "cert.json"],
                 {"cert.json": {"kind": "inductive-freeness", "field": {"Fp": 4}, "dim": 3,
                                "steps": []}}, "4 is not prime", id="if-field-not-prime"),
    pytest.param(["charpoly", "arr.json"], {"arr.json": '{"field": "Q", "dim": '},
                 "Expecting value", id="bad-json"),
    pytest.param(["charpoly", "missing.json"], {}, "No such file or directory", id="missing-file"),
    pytest.param(["verify-cert", "arr.json", "cert.json"],
                 {"cert.json": {"kind": "divisional-flag", "exponents": None, "levels": [
                     {"members": [], "charpoly": [0, -15, 23, -9, 1]},
                     {"members": [9], "charpoly": [0, 3, -4, 1]}]}},
                 "hyperplane index 9 out of range", id="member-out-of-range"),
    pytest.param(["verify-cert", "arr.json", "cert.json"],
                 {"cert.json": {"kind": "divisional-flag", "exponents": None, "levels": [
                     {"members": [], "charpoly": [0, -15, 23, -9, 1]},
                     {"members": [0, -1], "charpoly": [0, 3, -4, 1]}]}},
                 "hyperplane index -1 out of range", id="member-negative"),
    pytest.param(["oracle-verify", "--catalog", "weyl-b", "--l", "3", "--primes", "1", "4"], {},
                 "--primes: 1 is not prime", id="oracle-primes-not-prime"),
    pytest.param(["oracle-verify", "arr.json", "--primes", "5", "9"], {},
                 "--primes: 9 is not prime", id="oracle-primes-composite"),
    pytest.param(["oracle-verify", "--random", "-2"], {},
                 "--random must be nonnegative, got -2", id="oracle-random-negative"),
    pytest.param(["if-check", "arr.json", "--budget", "-1"], {},
                 "--budget must be nonnegative, got -1", id="if-budget-negative"),
])
def test_input_errors_exit_1_with_one_line(tmp_path, capsys, monkeypatch, argv, files, message):
    monkeypatch.chdir(tmp_path)
    assert run(["catalog", "weyl-b", "--l", "3", "--emit", "arr.json"]) == 0
    for name, content in files.items():
        (tmp_path / name).write_text(content if isinstance(content, str) else json.dumps(content))
    capsys.readouterr()
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


@pytest.mark.parametrize("dim,message", [
    (0, "'dim' must be at least 1, got 0"), (-1, "'dim' must be at least 1, got -1"),
    (True, "'dim' must be an integer"), (1.5, "'dim' must be an integer")])
def test_dim_errors_name_dim(tmp_path, capsys, dim, message):
    path = tmp_path / "arr.json"
    path.write_text(json.dumps({"field": "Q", "dim": dim, "hyperplanes": []}))
    assert run(["lattice", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def _json_paths(doc, path=()):
    """The path of every value inside a JSON document, depth first."""
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield path + (key,)
            yield from _json_paths(value, path + (key,))


# bools, strings, floats, huge ints and empty containers in place of a value
FUZZ_VALUES = (True, False, "x", "1/2", 1.5, 2.0, 10**40, -(10**40), [], {}, None)


def _mutant(rng, doc):
    """A copy of doc with one value dropped, renamed, replaced or truncated."""
    doc = json.loads(json.dumps(doc))
    *where, key = rng.choice(list(_json_paths(doc)))
    parent = doc
    for step in where:
        parent = parent[step]
    value = parent[key]
    kinds = ["drop", "replace"] + ["rename"] * isinstance(parent, dict) + ["truncate"] * (
        isinstance(value, list) and bool(value))
    kind = rng.choice(kinds)
    if kind == "drop":
        del parent[key]
    elif kind == "rename":
        parent[key + "_"] = parent.pop(key)
    elif kind == "replace":
        parent[key] = rng.choice(FUZZ_VALUES)
    else:
        del value[rng.randrange(len(value)):]
    return doc


def test_verify_cert_mutation_fuzz(tmp_path, capsys):
    # a mutant is an input error (exit 1, one line), invalid (exit 2), or
    # valid (exit 0), and then the arrangement has what the certificate claims
    rng = random.Random(20151)
    arr_path, cert_path = tmp_path / "arr.json", tmp_path / "cert.json"
    verdicts, codes = {}, set()
    for catalog in (["edelman-reiner"], ["weyl-b", "--l", "3"], ["intermediate", "--l", "3", "--k", "1",
                                                                   "--r", "3", "--p", "7"]):
        assert run(["catalog", *catalog, "--emit", str(arr_path)]) == 0
        arr_doc = json.loads(arr_path.read_text())
        for check in ("df-check", "if-check"):
            assert run([check, str(arr_path), "--certificate", str(cert_path)]) == 0
            cert_doc = json.loads(cert_path.read_text())
            for _ in range(100):
                mutate_arrangement = rng.random() < 0.5
                arr_path.write_text(json.dumps(_mutant(rng, arr_doc) if mutate_arrangement else arr_doc))
                cert_path.write_text(json.dumps(cert_doc if mutate_arrangement else _mutant(rng, cert_doc)))
                capsys.readouterr()
                code = run(["verify-cert", str(arr_path), str(cert_path)])
                err = capsys.readouterr().err
                codes.add(code)
                assert (err.startswith("error: ") and err.count("\n") == 1) if code == 1 else err == ""
                if code == 0:
                    arr = load_arrangement(str(arr_path))
                    kind = json.loads(cert_path.read_text())["kind"]
                    if (arr, kind) not in verdicts:
                        verdicts[arr, kind] = (divisional_flag_search(arr) is not None
                                               if kind == "divisional-flag"
                                               else inductively_free(arr).status == IF_CERTIFIED)
                    assert verdicts[arr, kind]
            arr_path.write_text(json.dumps(arr_doc))
    assert codes == {0, 1, 2}


def test_usage_errors():
    assert run(["charpoly"]) == 1  # no input
    assert run(["charpoly", "/nonexistent/file.json"]) == 1
    assert run(["not-a-command"]) == 1
    assert run([]) == 1
    assert run(["-h"]) == 0
    assert run(["--help"]) == 0


def _subcommands(parser):
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return list(sub.choices)


# the order of `divflag --help`, which the one-command usage line repeats
COMMAND_ORDER = ["charpoly", "lattice", "df-check", "if-check", "hdf-check", "free3", "ziegler",
                 "remainder", "same-eq", "catalog", "oracle-verify", "verify-cert"]


def test_parser_registers_the_table():
    assert _subcommands(build_parser()) == list(cli.COMMANDS) == COMMAND_ORDER
    readme = pathlib.Path(__file__).parents[1] / "README.md"
    assert set(re.findall(r"^divflag ([a-z0-9-]+)", readme.read_text(), re.M)) == set(COMMAND_ORDER)
    for name in COMMAND_ORDER:
        assert _subcommands(build_parser(name)) == [name]


def test_every_declared_argument_has_help():
    for name, (_, arguments) in cli.COMMANDS.items():
        for names, keywords in arguments:
            assert keywords.get("help"), (name, names)


def test_run_builds_only_the_command_it_runs(monkeypatch):
    # a well-formed line builds no parser; help and an unknown name build the
    # full parser, a malformed line for a known command only that command's
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(command) or real(command))
    assert run(["catalog", "boolean"]) == 0
    assert built == []
    assert run(["--help"]) == 0
    assert run(["catalo"]) == 1
    assert built == [None, None]
    assert run(["catalog", "boolean", "--bogus"]) == 1
    assert run(["catalog", "--help"]) == 0
    assert built == [None, None, "catalog", "catalog"]


# --help, a missing positional, a bad positional or choice, a bad int,
# extra arguments, an unknown option, an abbreviated option, --opt=value, a
# negative number, --, and a repeated option (the last value wins)
PARSE_CASES = [("--help",), (), ("nope",), ("--catalog", "nope"), ("--l", "x"),
               ("a", "b", "c"), ("boolean", "--bogus"), ("a", "--cert", "c"), ("a", "--json=x"),
               ("a", "--budget", "-1"), ("--", "a"), ("a", "--json", "r", "--json", "s")]


@pytest.mark.parametrize("columns", ["40", "200"])
@pytest.mark.parametrize("command", COMMAND_ORDER)
def test_one_command_parser_reads_as_the_full_parser(command, columns, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", columns)
    full = cli.build_parser
    for case in PARSE_CASES:
        argv = [command, *case]
        one = run(argv), capsys.readouterr()
        with monkeypatch.context() as m:
            m.setattr(cli, "build_parser", lambda command=None: full())
            assert (run(argv), capsys.readouterr()) == one, argv
    assert list(tmp_path.iterdir()) == []


def _argparse_namespace(argv):
    try:
        return build_parser(argv[0]).parse_args(argv)
    except SystemExit:
        return None


# what _parse declines, and argparse reads: abbreviations, --opt=value, -h,
# --help, -- and -, negative numbers, nargs="*", unknown, missing or extra
# arguments, bad ints and bad choices
DECLINED = [
    [], ["nope"], ["--help"], ["-h"], ["df-check", "a", "--cert", "c"], ["lattice", "--cat", "braid"],
    ["lattice", "a", "--json=x"], ["lattice", "--catalog=braid"], ["lattice", "-h"], ["lattice", "--help"],
    ["lattice", "--", "a"], ["lattice", "-"], ["if-check", "a", "--budget", "-1"],
    ["ziegler", "a", "--pivot", "-2"], ["oracle-verify", "--primes", "5", "7"], ["oracle-verify", "--primes"],
    ["lattice", "a", "--bogus", "x"], ["lattice", "--json"], ["lattice", "a", "--json"], ["verify-cert", "a"],
    ["verify-cert"], ["catalog"], ["catalog", "--l", "3"], ["lattice", "a", "b"], ["verify-cert", "a", "b", "c"],
    ["catalog", "boolean", "x"], ["lattice", "--l", "x"], ["lattice", "--l", "1.5"], ["lattice", "--l", ""],
    ["lattice", "--catalog", "nope"], ["lattice", "--roots", "E"], ["catalog", "nope"],
    ["lattice", "--l", "3", "--l", "x"], ["lattice", "--catalog", "nope", "--catalog", "braid"],
]


@pytest.mark.parametrize("argv", DECLINED, ids=lambda argv: shlex.join(argv) or "no-arguments")
def test_parse_declines_what_argparse_reads(argv):
    assert cli._parse(argv) is None


def _draw_value(rng, keywords):
    """A good value for the argument, or now and then a bad one."""
    if "choices" in keywords:
        good, bad = keywords["choices"], ["nope", keywords["choices"][0].upper()]
    elif keywords.get("type") is int:
        good, bad = ["3", "0", "12", " 7", "+2", "1_0", "\u0663"], ["x", "1.5", "", "-1"]
    else:
        good, bad = ["a.json", "b", "", "x y"], ["-", "--json"]
    return rng.choice(bad if rng.random() < 0.1 else good)


def _draw_line(rng, command):
    """A seeded command line from the command's declarations: options in any
    order, some repeated, some dropped, good and bad values, and missing and
    extra positionals; now and then a token that _parse declines."""
    _, arguments = cli.COMMANDS[command]
    positionals = [keywords for names, keywords in arguments if names[0][0] != "-"]
    options = [(names, keywords) for names, keywords in arguments if names[0][0] == "-"]
    given = len(positionals) if rng.random() < 0.7 else rng.randint(0, len(positionals))
    items = [[_draw_value(rng, keywords)] for keywords in positionals[:given]]
    if rng.random() < 0.2:
        items.append([_draw_value(rng, rng.choice(positionals or [{}]))])
    for _ in range(rng.randint(0, len(options) + 1)):
        names, keywords = rng.choice(options)
        items.insert(rng.randint(0, len(items)), [rng.choice(names), _draw_value(rng, keywords)])
    if rng.random() < 0.2:
        names, keywords = rng.choice(options)
        value = _draw_value(rng, keywords)
        items.insert(rng.randint(0, len(items)), rng.choice([
            [names[0][:-1], value], [f"{names[0]}={value}"], ["-h"], ["--help"], ["--"], ["-"],
            [names[0], "-1"], ["--bogus", value], [names[0]], ["--primes", "5", "7"]]))
    return [command, *(token for item in items for token in item)]


@pytest.mark.parametrize("command", COMMAND_ORDER)
def test_parse_gives_the_argparse_namespace(command):
    rng = random.Random(f"parse {command}")
    fast = 0
    for _ in range(200):
        argv = _draw_line(rng, command)
        namespace = cli._parse(argv)
        if namespace is not None:
            fast += 1
            expected = _argparse_namespace(argv)
            assert expected is not None and vars(namespace) == vars(expected), argv
    assert fast >= 50, fast


def test_optional_positionals_come_last():
    # _parse hands positionals their values in order, as argparse does when
    # no optional positional precedes a required one
    for _, arguments in cli.COMMANDS.values():
        nargs = [keywords.get("nargs") for names, keywords in arguments if names[0][0] != "-"]
        assert nargs == sorted(nargs, key=bool)


def _readme_cli_lines():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()]


def _workload_lines(tmp_path, monkeypatch):
    """Every command line the CLI workloads of bench/workloads.py issue."""
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).parents[1] / "bench"))
    import workloads
    lines = []
    recorder = types.SimpleNamespace(cli=types.SimpleNamespace(run=lambda argv: lines.append(argv) or 0))
    for name in ("lattice-large", "certify"):
        for op in workloads.WORKLOADS[name](divflag, 1, str(tmp_path)):
            op.run(recorder)
    return lines


def test_readme_and_workload_lines_take_the_fast_path(tmp_path, monkeypatch):
    readme, issued = _readme_cli_lines(), _workload_lines(tmp_path, monkeypatch)
    assert len(readme) == 13 and issued
    for argv in readme + issued:
        namespace = cli._parse(argv)
        assert namespace is not None, argv
        assert vars(namespace) == vars(build_parser(argv[0]).parse_args(argv)), argv


def test_malformed_json_input(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"field": "Q", "dim": 2}')
    assert run(["charpoly", str(bad)]) == 1


def test_lattice_report(tmp_path):
    out = tmp_path / "lat.json"
    assert run(["lattice", "--catalog", "boolean", "--l", "3", "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["level_sizes"] == [1, 3, 3, 1]
    assert report["chi"] == [-1, 3, -3, 1]
    assert len(report["flats"]) == 8


# sha256 of the `lattice --json` report of Weyl B5 (648 flats) with its
# hyperplanes shuffled by random.Random(13); any change to a level's order, a
# member set or a Möbius value changes the bytes
LATTICE_REPORT_SHA256 = {
    None: "3740a8b7702d75c8b260ab1b63efdfa817f718bddc01a734ce2257b81bcf83b2",
    2**31 - 1: "c02375f9560228c5ec50cdbb308ba9f9bf4fe09bd1e00a18e124fb3a22369b52",
}


@pytest.mark.parametrize("p", sorted(LATTICE_REPORT_SHA256, key=bool))
def test_lattice_report_bytes_are_pinned(tmp_path, capsys, p):
    covectors = list(weyl_b(5).hyperplanes)
    random.Random(13).shuffle(covectors)
    if p is None:
        arr = make_arrangement(QQ, 5, covectors)
    else:
        arr = make_arrangement(PrimeField(p), 5, [[int(x) % p for x in c] for c in covectors])
    path, out = tmp_path / "b5.json", tmp_path / "b5.lattice.json"
    save_json(str(path), arrangement_to_json(arr))
    assert run(["lattice", str(path), "--json", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == LATTICE_REPORT_SHA256[p]
    assert capsys.readouterr().out.splitlines()[:2] == [
        "level sizes: [1, 25, 170, 330, 121, 1]", "flats: 648"]


ER_FLAG_TOP = {"members": [], "charpoly": [0, 0, 0, 0, 1]}


@pytest.mark.parametrize("arrangement,certificate", [
    pytest.param(None, {"kind": "divisional-flag", "levels": [[], [0]], "exponents": None},
                 id="df-level-list"),
    pytest.param(None, {"kind": "divisional-flag", "exponents": None, "levels": [
        ER_FLAG_TOP, {"members": ["a"], "charpoly": [0, 0, 1]}]}, id="df-member-string"),
    pytest.param(None, {"kind": "divisional-flag", "exponents": None, "levels": [
        ER_FLAG_TOP, {"members": [True], "charpoly": [0, 0, 1]}]}, id="df-member-bool"),
    pytest.param(None, {"kind": "divisional-flag", "exponents": 4, "levels": [ER_FLAG_TOP]},
                 id="df-exponents-int"),
    pytest.param(None, {"kind": "inductive-freeness", "field": "Q", "dim": 4,
                        "steps": [{"restriction_charpoly": [0, 0, 0, 1]}]},
                 id="if-step-no-covector"),
    pytest.param(None, {"kind": "inductive-freeness", "field": "Q", "dim": 4,
                        "steps": {"covector": [1]}}, id="if-steps-object"),
    pytest.param(None, {"kind": "inductive-freeness", "field": "Q", "dim": 4,
                        "steps": [[1, 0, 0, 0]]}, id="if-step-list"),
    pytest.param(None, {"kind": "inductive-freeness", "field": "Q", "dim": True, "steps": []},
                 id="if-dim-true"),
    pytest.param(None, {"kind": "inductive-freeness", "field": {"Fp": [7]}, "dim": 4,
                        "steps": []}, id="if-field-prime-list"),
    pytest.param({"field": "Q", "dim": True, "hyperplanes": [[1]]},
                 {"kind": "divisional-flag", "exponents": [1],
                  "levels": [{"members": [], "charpoly": [-1, 1]}]}, id="dim-true"),
    pytest.param({"field": "Q", "dim": 2, "hyperplanes": [5]}, {"kind": "divisional-flag"},
                 id="covector-int"),
    pytest.param({"field": "Q", "dim": 2, "hyperplanes": [["1/0", 1]]}, {"kind": "divisional-flag"},
                 id="scalar-zero-denominator"),
])
def test_malformed_input_is_input_error(tmp_path, capsys, arrangement, certificate):
    arr_path = tmp_path / "arr.json"
    cert_path = tmp_path / "cert.json"
    if arrangement is None:
        assert run(["catalog", "edelman-reiner", "--emit", str(arr_path)]) == 0
    else:
        arr_path.write_text(json.dumps(arrangement))
    cert_path.write_text(json.dumps(certificate))
    capsys.readouterr()
    assert run(["verify-cert", str(arr_path), str(cert_path)]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("field,entry,shown", [
    ("Q", 1.5, "1.5"),
    ("Q", "1/0", "'1/0'"),
    ("Q", "x", "'x'"),
    ("Q", float("nan"), "nan"),
    ("Q", True, "True"),
    ({"Fp": 2}, 1.0, "1.0"),
    ({"Fp": 2}, "1/2", "'1/2'"),
    ({"Fp": 2}, True, "True"),
    # int() and Fraction() read these, but they are not the documented
    # ASCII spellings of JSON scalars
    *(("Q", s, repr(s)) for s in ("1.5", "1e3", "1_0", " 3 ", "\u0663")),
    *(({"Fp": 2}, s, repr(s)) for s in ("1.5", "1e3", "1_0", " 3 ", "\u0663")),
])
def test_bad_covector_entry_is_named(tmp_path, capsys, field, entry, shown):
    arr_path = tmp_path / "arr.json"
    arr_path.write_text(json.dumps({"field": field, "dim": 2, "hyperplanes": [[0, 1], [entry, 1]]}))
    capsys.readouterr()
    assert run(["lattice", str(arr_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad 'hyperplanes' entry: covector 1: cannot interpret {shown} ")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_zero_covector_is_named(tmp_path, capsys):
    arr_path = tmp_path / "arr.json"
    arr_path.write_text(json.dumps({"field": "Q", "dim": 2, "hyperplanes": [[0, 1], [0, "0/3"]]}))
    capsys.readouterr()
    assert run(["lattice", str(arr_path)]) == 1
    assert capsys.readouterr().err == "error: bad 'hyperplanes' entry: covector 1 is zero\n"


def test_if_certificate_bool_covector_is_input_error(tmp_path, capsys):
    arr_path, cert_path = tmp_path / "wb3.json", tmp_path / "cert.json"
    assert run(["catalog", "weyl-b", "--l", "3", "--emit", str(arr_path)]) == 0
    assert run(["if-check", str(arr_path), "--certificate", str(cert_path)]) == 0
    cert = json.loads(cert_path.read_text())
    covector = cert["steps"][0]["covector"]
    covector[covector.index(1)] = True
    capsys.readouterr()
    assert _verify_exit(tmp_path, arr_path, cert) == 1
    assert "cannot interpret True" in capsys.readouterr().err


def _python_m(module, *argv):
    src = os.path.dirname(os.path.dirname(divflag.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", module, *argv],
                          env=env, capture_output=True, text=True, timeout=120)


def test_python_m_divflag_cli():
    result = _python_m("divflag.cli", "charpoly", "--catalog", "braid")
    assert result.returncode == 0, result.stderr
    assert result.stdout


def test_oversized_prime_is_input_error(tmp_path, capsys):
    arr_path = tmp_path / "arr.json"
    arr_path.write_text(json.dumps({"field": {"Fp": 2**89 - 1}, "dim": 2,
                                    "hyperplanes": [[1, 0], [0, 1]]}))
    capsys.readouterr()
    assert run(["charpoly", str(arr_path)]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and err.startswith("error:")


def test_mersenne_61_field(tmp_path):
    arr_path = tmp_path / "arr.json"
    arr_path.write_text(json.dumps({"field": {"Fp": 2**61 - 1}, "dim": 2,
                                    "hyperplanes": [[1, 0], [0, 1], [1, 1]]}))
    out = tmp_path / "chi.json"
    assert run(["charpoly", str(arr_path), "--json", str(out)]) == 0
    assert json.loads(out.read_text())["chi"] == [2, -3, 1]


def test_python_m_divflag():
    result = _python_m("divflag", "charpoly", "--catalog", "braid")
    assert result.returncode == 0, result.stderr
    assert result.stdout
