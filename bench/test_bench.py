"""Tests of the benchmark itself: its checkers on small known cases, its
traced and untraced rounds, and its handling of wrong outputs.

    python3 -m pytest bench

No test asserts anything about elapsed time.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
import run
import workloads
from speed import Speedometer

sys.path.insert(0, run.SRC)

B3 = [list(v) for v in workloads.DIRECTIONS_B3]
A3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [0, 1, 1], [1, 1, 1]]


@pytest.fixture()
def lib():
    return run.fresh_import()


def cli_json(lib, tmp_path, argv, name="out.json"):
    path = str(tmp_path / name)
    result = workloads._cli(lib, [*argv, "--json", path])
    with open(path) as fh:
        return result, json.load(fh)


# ------------------------------------------------------------ closed forms


def test_level_sizes_closed_forms():
    assert checks.braid_level_sizes(4) == [1, 6, 7, 1]
    assert checks.braid_level_sizes(7) == [1, 21, 140, 350, 301, 63, 1]
    assert checks.weyl_b_level_sizes(3) == [1, 9, 13, 1]
    assert sum(checks.weyl_b_level_sizes(6)) == 4088


def test_exponent_closed_forms():
    assert checks.exponents_weyl_b(3) == [1, 3, 5]
    assert checks.exponents_weyl_d(4) == [1, 3, 3, 5]
    assert checks.exponents_braid(4) == [0, 1, 2, 3]
    assert checks.exponents_shi(4, 2, 3) == [1, 8, 8, 8]
    assert checks.exponents_intermediate(4, 1, 3) == [1, 4, 7, 7]
    assert checks.from_roots([1, 2]) == [2, -3, 1]


def test_polynomial_division():
    chi = checks.from_roots([1, 3, 5])
    assert checks.divides(checks.from_roots([1, 3]), chi)
    assert not checks.divides(checks.from_roots([1, 2]), chi)
    assert checks.poly_rem(chi, checks.from_roots([1, 3])) == []


# ---------------------------------------------------------- rank 3 and b2


def test_rank2_flats_and_chi_of_b3_and_braid4():
    assert checks.rank2_flat_sizes(B3) == [2] * 6 + [3] * 4 + [4] * 3
    assert checks.rank3_chi(B3) == checks.from_roots([1, 3, 5])
    assert checks.rank3_chi(A3) == checks.from_roots([1, 2, 3])
    assert checks.b2_deconed(A3) == 6  # chi0 = (t - 2)(t - 3)


def test_free3_checker_against_the_program(lib):
    arrangement = lib.arrangement.make_arrangement(lib.QQ, 3, B3)
    report = lib.multi.free3_decide(arrangement)
    checks.check_free3(report, B3)
    with pytest.raises(checks.CheckFailed):
        checks.check_free3(dataclasses.replace(report, exponents=(1, 3, 4)), B3)
    generic = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 2, 3], [1, -1, 2]]
    checks.check_free3(lib.multi.free3_decide(lib.arrangement.make_arrangement(lib.QQ, 3, generic)),
                       generic)


def test_b2_gap_checker():
    checks.check_b2_gap(0, B3)
    with pytest.raises(checks.CheckFailed):
        checks.check_b2_gap(checks.b2_deconed(B3) + 1, B3)


# ------------------------------------------------------------ rank-2 exponents


@pytest.mark.parametrize("mults, expected", [
    ((2, 2, 2), (3, 3)),
    ((3, 2, 2), (3, 4)),
    ((4, 4, 3), (5, 6)),
    ((5, 1, 1), (2, 5)),
    ((3, 2, 1), (3, 3)),
])
def test_exp2_checker_on_three_lines(lib, mults, expected):
    assert checks.expected_exp2(3, mults) == expected
    lines = [(1, 0), (0, 1), (1, 1)]
    base = lib.arrangement.make_arrangement(lib.QQ, 2, lines)
    result = lib.multi.exp2(lib.multi.MultiArrangement(base, lib.multi.Multiplicity(mults)))
    checks.check_exp2(tuple(result), 3, mults)


def test_exp2_checker_rejects_wrong_exponents():
    with pytest.raises(checks.CheckFailed):
        checks.check_exp2((2, 4), 3, (2, 2, 2))
    with pytest.raises(checks.CheckFailed):
        checks.check_exp2((4, 4), 4, (2, 2, 2, 1))  # sum differs from |m|
    assert checks.expected_exp2(4, (3, 3, 2, 2)) is None


# ------------------------------------------------------------ CLI reports


def test_lattice_report_checker(lib, tmp_path):
    path = str(tmp_path / "braid4.json")
    lib.jsonio.save_json(path, lib.jsonio.arrangement_to_json(lib.catalog.braid(4)))
    result, report = cli_json(lib, tmp_path, ["lattice", path])
    assert result.code == 0
    sizes, exponents = checks.braid_level_sizes(4), checks.exponents_braid(4)
    checks.check_lattice_report(report, sizes, exponents)
    flipped = json.loads(json.dumps(report))
    flipped["flats"][-1]["mobius"] *= -1
    with pytest.raises(checks.CheckFailed, match="Rota"):
        checks.check_lattice_report(flipped, sizes, exponents)
    with pytest.raises(checks.CheckFailed, match="level sizes"):
        checks.check_lattice_report(report, [1, 6, 6, 1], exponents)


def test_flag_certificate_checker(lib, tmp_path):
    path = str(tmp_path / "b3.json")
    cert_path = str(tmp_path / "b3.df.json")
    lib.jsonio.save_json(path, lib.jsonio.arrangement_to_json(lib.catalog.weyl_b(3)))
    assert workloads._cli(lib, ["df-check", path, "--certificate", cert_path]).code == 0
    with open(cert_path) as fh:
        cert = json.load(fh)
    checks.check_flag_certificate(cert, 3, checks.exponents_weyl_b(3))
    cert["levels"][1]["charpoly"][0] += 1
    with pytest.raises(checks.CheckFailed, match="divide"):
        checks.check_flag_certificate(cert, 3, checks.exponents_weyl_b(3))


def test_if_certificate_checker(lib, tmp_path):
    path = str(tmp_path / "braid4.json")
    cert_path = str(tmp_path / "braid4.if.json")
    doc = lib.jsonio.arrangement_to_json(lib.catalog.braid(4))
    lib.jsonio.save_json(path, doc)
    assert workloads._cli(lib, ["if-check", path, "--certificate", cert_path]).code == 0
    with open(cert_path) as fh:
        cert = json.load(fh)
    checks.check_if_certificate(cert, doc, checks.exponents_braid(4))
    del cert["steps"][0]
    with pytest.raises(checks.CheckFailed, match="hyperplanes"):
        checks.check_if_certificate(cert, doc, checks.exponents_braid(4))


# ------------------------------------------------------------ the harness

def _light_exp2(op) -> bool:
    return not op.name.startswith("exp2") or sum(ast.literal_eval(op.name.split("m=")[1])) < 16


CHEAP = {
    "lattice-large": lambda op: "braid7" in op.name,
    "certify": lambda op: not any(s in op.name for s in ("weyl-b5", "weyl-d5", "shi-a3")),
    "exponent-battery": _light_exp2,
}


def cheap_ops(lib, name, workdir):
    ops = workloads.WORKLOADS[name](lib, 7, str(workdir))
    return [op for op in ops if CHEAP[name](op)]


def outputs(outcomes):
    return [(o.name, o.ok, o.detail) for o in outcomes]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_and_untraced_rounds_agree(lib, tmp_path, name):
    ops = cheap_ops(lib, name, tmp_path)
    plain = run.run_round(run.fresh_import(), ops, Speedometer())
    lib = run.fresh_import()
    tracer = run.new_tracer(keep_spans=True)
    tracer.install(lib)
    traced = run.run_round(lib, ops, Speedometer(), tracer)
    assert outputs(plain) == outputs(traced)
    correct, attempted, failed = run.tally(ops, [plain])
    assert correct and attempted == len(ops)
    assert failed <= sum(op.fault is not None for op in ops)
    assert tracer.span_count > len(ops)
    spans = tracer.spans
    assert len(spans) == tracer.span_count
    assert all(start <= end for _, start, end, _ in spans)


@pytest.mark.parametrize("name", ["certify", "exponent-battery"])
def test_two_traced_rounds_give_identical_counts(lib, tmp_path, name):
    ops = cheap_ops(lib, name, tmp_path)
    counts = []
    for _ in range(2):
        lib = run.fresh_import()
        tracer = run.new_tracer(keep_spans=False)
        tracer.install(lib)
        run.run_round(lib, ops, Speedometer(), tracer)
        counts.append(run.layer_counts(tracer))
    assert counts[0] == counts[1]
    assert counts[0]["lattice.builds"] > 0


def test_a_wrong_output_is_a_failed_operation(lib, tmp_path):
    ops = cheap_ops(lib, "lattice-large", tmp_path)
    lib = run.fresh_import()
    real = lib.cli.char_data

    def altered(arr, lattice=None):
        data = real(arr, lattice)
        return dataclasses.replace(data, chi=data.chi[:-2] + (data.chi[-2] + 1, data.chi[-1]))

    lib.cli.char_data = altered
    outcomes = run.run_round(lib, ops, Speedometer())
    assert [o.ok for o in outcomes] == [False]
    assert outcomes[0].detail.startswith("CheckFailed: chi")
    assert run.tally(ops, [outcomes]) == (False, 1, 1)


def test_known_faults_keep_outputs_correct(lib, tmp_path):
    ops = [op for op in workloads.certify(lib, 3, str(tmp_path)) if op.fault is not None]
    assert len(ops) == 4
    outcomes = run.run_round(run.fresh_import(), ops, Speedometer())
    correct, attempted, failed = run.tally(ops, [outcomes])
    assert correct and attempted == 4
    assert failed == sum(not o.ok for o in outcomes)


def test_benchmark_json_names_every_metric():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "certify", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
