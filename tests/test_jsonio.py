"""``save_json`` against ``json.dumps(data, indent=2, sort_keys=True)``, the
format it promises, byte for byte: random documents, the leaf types json
treats specially, and every file the CLI writes."""

import json
import math
import random
import tracemalloc

import pytest

from divflag import jsonio
from divflag.arrangement import make_arrangement
from divflag.catalog import weyl_b
from divflag.cli import run
from divflag.exactalg import QQ, PrimeField
from divflag.jsonio import lattice_report, poly_to_json, save_json
from divflag.lattice import build_lattice

from conftest import random_arrangement
from test_lattice import _catalog_arrangements


def oracle(data) -> bytes:
    return (json.dumps(data, indent=2, sort_keys=True) + "\n").encode()


def written(tmp_path, data) -> bytes:
    path = tmp_path / "out.json"
    save_json(str(path), data)
    return path.read_bytes()


# quotes, backslashes, control characters, DEL, non-ASCII, astral and lone
# surrogate characters, and plain ones
CHARACTERS = ['"', "\\", "/", "\x00", "\x1f", "\n", "\t", "\x7f", "é", "ß", "中",
              " ", "\U0001f600", "\ud800", "a", "Z", " ", "0"]
FLOATS = [0.0, -0.0, 1.5, -2.25, 1e308, 5e-324, 1e16, math.nan, math.inf, -math.inf]


def random_int(rng: random.Random) -> int:
    bound = 10 ** rng.choice((1, 3, 20, 400))
    return rng.randint(-bound, bound)


def random_string(rng: random.Random) -> str:
    return "".join(rng.choice(CHARACTERS) for _ in range(rng.randint(0, 6)))


def random_leaf(rng: random.Random):
    kind = rng.randrange(6)
    if kind == 0:
        return random_int(rng)
    if kind == 1:
        return rng.choice((True, False, None))
    if kind == 2:
        return random_string(rng)
    if kind == 3:
        return rng.choice(FLOATS)
    if kind == 4:  # an int list, sometimes with a bool mixed in
        items = [random_int(rng) for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.5:
            items.insert(rng.randrange(len(items) + 1), rng.choice((True, False)))
        return items
    return rng.choice(([], {}, [[]], [{}], {"": []}, {"a": {}}, ()))


def random_document(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return random_leaf(rng)
    items = [random_document(rng, depth - 1) for _ in range(rng.randint(0, 4))]
    kind = rng.randrange(3)
    if kind == 0:
        return items
    if kind == 1:
        return tuple(items)
    return {random_string(rng): item for item in items}


def test_random_documents_match_json_dumps(tmp_path):
    rng = random.Random(14)
    for case in range(500):
        doc = random_document(rng, rng.randint(0, 5))
        assert written(tmp_path, doc) == oracle(doc), case


@pytest.mark.parametrize("doc", [
    None, True, False, 0, -1, 10**400, -(10**400), "", "\U0001f600", 1.5, math.nan,
    [], {}, (), [[]], [{}], {"a": []}, {"a": {}}, [[], {}, ()],
    [1, True, 0, False], [True], (1, 2), {"b": (True, 1)}, [None, 1], {"a": [{"b": [1, True]}]},
    {"z": 1, "a": [1, 2], "é": {"y": None, "x": [1.0, math.inf]}},
], ids=repr)
def test_edge_documents_match_json_dumps(tmp_path, doc):
    assert written(tmp_path, doc) == oracle(doc)


# a non-str key, which json.dumps would convert, and a leaf json cannot encode
@pytest.mark.parametrize("doc", [{1: 2}, {"a": {None: 1}}, [{"a": 1, 2.5: 1}], {True: 1},
                                 {"a": [object()]}])
def test_unencodable_documents_raise_type_error(tmp_path, doc):
    with pytest.raises(TypeError):
        save_json(str(tmp_path / "out.json"), doc)


def _reference_lattice_report(lat, chi) -> dict:
    """The `divflag lattice --json` report with one dict and one member
    list per flat, as the command built it before ``lattice_report``."""
    flats = [{"codim": codim, "members": list(lat.members(codim, index)), "mobius": mu}
             for codim, mob in enumerate(lat.mobius) for index, mu in enumerate(mob)]
    return {"level_sizes": list(lat.level_sizes()), "flats": flats, "chi": poly_to_json(chi)}


def _report_inputs():
    yield from _catalog_arrangements()
    b5 = weyl_b(5).hyperplanes
    p = 2**31 - 1
    yield "b5-fp", make_arrangement(PrimeField(p), 5, [[x % p for x in c] for c in b5])
    yield "no-hyperplanes", make_arrangement(QQ, 2, [])
    yield "one-plane", make_arrangement(QQ, 3, [[0, 1, 0]])
    for p in (None, 2, 3, 5, 7):
        field = QQ if p is None else PrimeField(p)
        rng = random.Random(421 if p is None else 421 + p)
        for case in range(6):
            dim = rng.randint(2, 5)
            available = 12 if p is None else (p ** dim - 1) // (p - 1)
            arr = random_arrangement(rng, dim, rng.randint(1, min(available, 10)), field=field)
            yield f"{field}-{case}", arr


@pytest.mark.parametrize("name,arr", list(_report_inputs()))
def test_lattice_report_writes_the_reference_bytes(tmp_path, name, arr):
    lat = build_lattice(arr)
    chi = lat.restriction_chi(0, 0)
    expected = written(tmp_path, _reference_lattice_report(lat, chi))
    assert written(tmp_path, lattice_report(lat, chi)) == expected == \
        oracle(_reference_lattice_report(lat, chi))


def _byte_table_inputs():
    """n lines in the plane for n on either side of each multiple of 8, whose
    top flat's mask fills every byte table, and 20 planes in space, whose
    masks mix several members in one byte."""
    for field in (QQ, PrimeField(67)):
        for n in (0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65):
            lines = [[0, 1]] + [[1, k] for k in range(n - 1)] if n else []
            random.Random(n).shuffle(lines)
            yield f"{field}-lines-{n}", make_arrangement(field, 2, lines)
    yield "planes-20", random_arrangement(random.Random(25), 3, 20, coeff_lo=-3, coeff_hi=3)


@pytest.mark.parametrize("name,arr", list(_byte_table_inputs()))
def test_lattice_report_across_byte_tables(tmp_path, name, arr):
    lat = build_lattice(arr)
    chi = lat.restriction_chi(0, 0)
    assert written(tmp_path, lattice_report(lat, chi)) == oracle(_reference_lattice_report(lat, chi))


def test_lattice_report_flats_iterate_again():
    lat = build_lattice(weyl_b(4))
    flats = lattice_report(lat, lat.restriction_chi(0, 0))["flats"]
    texts = list(flats)
    assert list(flats) == texts and len(flats) == len(texts) == sum(lat.level_sizes())


def test_lattice_report_peak_memory_below_half_the_file(tmp_path):
    # the report is made inside the window: its flats' texts are made and
    # dropped one at a time, so the peak stays far below the file it writes
    lat = build_lattice(weyl_b(6))
    chi = lat.restriction_chi(0, 0)
    path = tmp_path / "b6.json"
    tracemalloc.start()
    try:
        save_json(str(path), lattice_report(lat, chi))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size // 2


def _b6_reports() -> tuple[bytes, list[dict]]:
    """The B6 report's expected bytes, and the report as dicts and pre-encoded."""
    lat = build_lattice(weyl_b(6))
    chi = lat.restriction_chi(0, 0)
    reference = _reference_lattice_report(lat, chi)
    return oracle(reference), [reference, lattice_report(lat, chi)]


def test_streams_the_outer_levels(tmp_path, monkeypatch):
    expected, reports = _b6_reports()
    path = tmp_path / "b6.json"
    writes = []

    class Recorder:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            writes.append(len(text))
            return self.fh.write(text)

    for report in reports:
        writes.clear()
        monkeypatch.setattr(jsonio, "open", lambda *a, **k: Recorder(open(*a, **k)), raising=False)
        save_json(str(path), report)
        monkeypatch.undo()
        assert path.read_bytes() == expected
        # one write per flat, none much longer than the longest flat's text
        assert len(writes) >= len(report["flats"])
        assert max(writes) < 1000 < len(expected) // 500


def test_peak_memory_not_above_json_dump(tmp_path):
    _, (reference, encoded) = _b6_reports()
    path = str(tmp_path / "b6.json")

    def peak(write) -> int:
        tracemalloc.start()
        try:
            write()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def with_json_dump():
        with open(path, "w") as fh:
            json.dump(reference, fh, indent=2, sort_keys=True)
            fh.write("\n")

    bound = peak(with_json_dump)
    assert peak(lambda: save_json(path, reference)) <= bound
    assert peak(lambda: save_json(path, encoded)) <= bound


# every command that writes JSON, through each of its writing options
CLI_RUNS = [
    ["catalog", "weyl-b", "--l", "3", "--emit"],
    ["catalog", "shi", "--l", "3", "--emit"],
    ["catalog", "intermediate", "--l", "3", "--k", "0", "--r", "3", "--p", "7", "--emit"],
    ["charpoly", "--catalog", "edelman-reiner", "--json"],
    ["lattice", "--catalog", "weyl-b", "--l", "4", "--json"],
    ["lattice", "--catalog", "intermediate", "--l", "3", "--k", "0", "--r", "3", "--p", "7",
     "--json"],
    ["df-check", "--catalog", "edelman-reiner", "--json"],
    ["df-check", "--catalog", "edelman-reiner", "--certificate"],
    ["df-check", "--catalog", "xyzw", "--json"],
    ["if-check", "--catalog", "weyl-b", "--l", "3", "--json"],
    ["if-check", "--catalog", "weyl-b", "--l", "3", "--certificate"],
    ["hdf-check", "--catalog", "xyzw", "--json"],
    ["free3", "--catalog", "weyl-b", "--l", "3", "--json"],
    ["ziegler", "--catalog", "weyl-b", "--l", "3", "--json"],
    ["remainder", "--catalog", "weyl-b", "--l", "3", "--json"],
    ["same-eq", "--catalog", "weyl-b", "--l", "3", "--json"],
    ["oracle-verify", "--catalog", "braid", "--l", "3", "--json"],
]


@pytest.mark.parametrize("argv", CLI_RUNS, ids=" ".join)
def test_cli_outputs_are_their_json_dumps_reencoding(tmp_path, argv):
    out = tmp_path / "out.json"
    assert run([*argv, str(out)]) in (0, 2)
    data = out.read_bytes()
    assert data == oracle(json.loads(data))


def test_verify_cert_output_is_its_json_dumps_reencoding(tmp_path):
    arr_path, cert_path, out = tmp_path / "er.json", tmp_path / "cert.json", tmp_path / "out.json"
    assert run(["catalog", "edelman-reiner", "--emit", str(arr_path)]) == 0
    assert run(["df-check", str(arr_path), "--certificate", str(cert_path)]) == 0
    assert run(["verify-cert", str(arr_path), str(cert_path), "--json", str(out)]) == 0
    for path in (arr_path, cert_path, out):
        data = path.read_bytes()
        assert data == oracle(json.loads(data))
