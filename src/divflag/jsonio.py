"""JSON encodings: arrangements, polynomials, and certificates.

Arrangement schema: ``{"field": "Q" | {"Fp": p}, "dim": n,
"hyperplanes": [[...], ...]}`` with rational entries as ints or "a/b"
strings and prime-field entries as residues.  Polynomials are integer
coefficient arrays, lowest degree first.

Output format: every file ``save_json`` writes is the text of
``json.dump(data, fh, indent=2, sort_keys=True)`` plus a newline: 2-space
indent, keys sorted, ASCII only (other characters as ``\\u`` escapes), and a
trailing newline.  ``save_json`` is this module's own encoder, not
``json.dump``, whose indenting encoder is pure Python and about twice as
slow; ``tests/test_jsonio.py`` holds it to ``json.dumps`` byte for byte.
The flats of a lattice report (``lattice_report``) are encoded from their
member masks one at a time, as ``save_json`` writes them; the tests hold
those reports to ``json.dumps`` of the plain dicts.
"""

from __future__ import annotations

import json
from itertools import repeat
from json.encoder import encode_basestring_ascii

from . import intpoly
from .arrangement import Arrangement, Flat, make_arrangement
from .exactalg import covector_to_json, field_from_json, field_to_json, normalize_covector
from .freeness import DivisionalFlag, IFCertificate, IFStep
from .lattice import IntersectionLattice


class SchemaError(ValueError):
    """Input JSON does not match the expected schema."""


def _is_int(x) -> bool:
    """A JSON integer; ``true`` and ``false`` are bools, which Python counts as ints."""
    return isinstance(x, int) and not isinstance(x, bool)


def arrangement_to_json(arr: Arrangement) -> dict:
    return {
        "field": field_to_json(arr.field),
        "dim": arr.dim,
        "hyperplanes": [covector_to_json(cov) for cov in arr.hyperplanes],
    }


def arrangement_from_json(data) -> Arrangement:
    if not isinstance(data, dict):
        raise SchemaError("arrangement JSON must be an object")
    for key in ("field", "dim", "hyperplanes"):
        if key not in data:
            raise SchemaError(f"missing field {key!r} in arrangement JSON")
    try:
        field = field_from_json(data["field"])
    except ValueError as exc:
        raise SchemaError(f"bad 'field' entry: {exc}") from None
    dim = data["dim"]
    if not _is_int(dim):
        raise SchemaError("'dim' must be an integer")
    if dim < 1:
        raise SchemaError(f"'dim' must be at least 1, got {dim}")
    hyperplanes = data["hyperplanes"]
    if not isinstance(hyperplanes, list) or not all(isinstance(h, list) for h in hyperplanes):
        raise SchemaError("'hyperplanes' must be a list of covectors")
    try:
        return make_arrangement(field, dim, hyperplanes)
    except ValueError as exc:
        raise SchemaError(f"bad 'hyperplanes' entry: {exc}") from None


def load_arrangement(path: str) -> Arrangement:
    with open(path) as fh:
        return arrangement_from_json(json.load(fh))


_CONSTANTS = {None: "null", True: "true", False: "false"}
_INT_ONLY = frozenset((int,))


class _KeyPrefixes(dict):
    """Each dict key's encoded ``"key": ``, made on first use."""

    def __missing__(self, key) -> str:
        if not isinstance(key, str):
            raise TypeError(f"keys must be str, not {type(key).__name__}")
        head = self[key] = encode_basestring_ascii(key) + ": "
        return head


def save_json(path: str, data) -> None:
    """Write ``data`` to ``path`` in the output format of the module docstring.

    The top-level container and the containers directly inside it go out one
    item per write, so a large report is never held as one string.  Leaves
    other than str, int, bool and None, such as floats with nan and inf, are
    encoded by ``json.dumps``; a dict key that is not a str raises
    ``TypeError``.
    """
    prefix = _KeyPrefixes()

    def encode(value, nl: str) -> str:
        """``value`` as one string; ``nl`` is the newline and indent of its
        closing bracket."""
        kind = type(value)
        if kind is int:
            return int.__repr__(value)
        if isinstance(value, str):
            return encode_basestring_ascii(value)
        if value is None or kind is bool:
            return _CONSTANTS[value]
        if isinstance(value, dict):
            if not value:
                return "{}"
            inner = nl + "  "
            body = [prefix[key] + (int.__repr__(x) if type(x) is int else encode(x, inner))
                    for key, x in sorted(value.items())]
            return f"{{{inner}{(',' + inner).join(body)}{nl}}}"
        if isinstance(value, (list, tuple)):
            if not value:
                return "[]"
            inner = nl + "  "
            if _INT_ONLY.issuperset(map(type, value)):  # type(x) is int: a bool is not
                body = map(int.__repr__, value)
            else:
                body = [encode(x, inner) for x in value]
            return f"[{inner}{(',' + inner).join(body)}{nl}]"
        return json.dumps(value)

    def write(value, nl: str, levels: int) -> None:
        """Write ``value``, streaming its outer ``levels`` container levels."""
        if not (levels and isinstance(value, (list, tuple, dict, _Flats)) and value):
            fh.write(encode(value, nl))
            return
        sep = inner = nl + "  "
        fh.write("{" if isinstance(value, dict) else "[")
        if type(value) is _Flats:  # finished texts, one write each
            for text in value:
                fh.write(sep + text)
                sep = "," + inner
        else:
            items = ([(prefix[key], x) for key, x in sorted(value.items())]
                     if isinstance(value, dict) else zip(repeat(""), value))
            for head, item in items:
                fh.write(sep + head)
                write(item, inner, levels - 1)
                sep = "," + inner
        fh.write(nl + ("}" if isinstance(value, dict) else "]"))

    with open(path, "w") as fh:
        write(data, "\n", 2)
        fh.write("\n")


class _Flats:
    """The ``"flats"`` of a lattice report: iterating makes, one flat at a
    time, the text ``save_json`` writes for each item ``{"codim": ...,
    "members": [...], "mobius": ...}``, its members looked up by mask byte."""

    def __init__(self, lattice: IntersectionLattice):
        n = len(lattice.arrangement)
        self.lattice, self.tables, self.tails = lattice, [], {}  # tails: Möbius value -> text
        for low in range(0, n, 8):  # tables[j][b]: the members 8j + i for the set bits i of b
            table = [""]
            for piece in (",\n        " + str(h) for h in range(low, min(low + 8, n))):
                table += [text + piece for text in table]
            self.tables.append(table)

    def __len__(self) -> int:
        return sum(map(len, self.lattice.mobius))

    def __iter__(self):
        lattice, tables, tails = self.lattice, self.tables, self.tails
        for codim, mob in enumerate(lattice.mobius):
            head = f'{{\n      "codim": {codim},\n      "members": ['
            for mask, mu in zip(map(lattice.mask, repeat(codim), range(len(mob))), mob):
                members = "".join(map(list.__getitem__, tables, mask.to_bytes(len(tables), "little")))
                tail = tails.get(mu) or tails.setdefault(mu, f',\n      "mobius": {mu}\n    }}')
                yield f"{head}{members[1:]}\n      ]{tail}" if members else f"{head}]{tail}"


def lattice_report(lattice: IntersectionLattice, chi: intpoly.IntPoly) -> dict:
    """The ``divflag lattice --json`` report: level sizes, one item per flat
    with its codim, members and Möbius value, and chi; its ``"flats"`` are
    encoded as ``save_json`` writes them."""
    return {"level_sizes": list(lattice.level_sizes()), "flats": _Flats(lattice),
            "chi": poly_to_json(chi)}


def poly_to_json(f: intpoly.IntPoly) -> list[int]:
    return list(f)


def poly_from_json(data) -> intpoly.IntPoly:
    if not isinstance(data, list) or not all(_is_int(c) for c in data):
        raise SchemaError("polynomial must be a list of integer coefficients")
    return intpoly.poly(data)


def flag_to_json(flag: DivisionalFlag) -> dict:
    return {
        "kind": "divisional-flag",
        "levels": [
            {"members": list(flat.members), "charpoly": poly_to_json(chi)}
            for flat, chi in zip(flag.flats, flag.charpolys)
        ],
        "exponents": list(flag.exponents) if flag.exponents is not None else None,
    }


def flag_from_json(arr: Arrangement, data) -> DivisionalFlag:
    if not isinstance(data, dict) or data.get("kind") != "divisional-flag":
        raise SchemaError("expected a divisional-flag certificate")
    levels = data.get("levels")
    if not isinstance(levels, list) or not levels:
        raise SchemaError("certificate needs a nonempty 'levels' list")
    flats = []
    charpolys = []
    for i, entry in enumerate(levels):
        if not isinstance(entry, dict):
            raise SchemaError("each level must be an object")
        members = entry.get("members")
        if not isinstance(members, list) or not all(_is_int(h) for h in members):
            raise SchemaError("each level needs a 'members' list of hyperplane indices")
        if bad := [h for h in members if not 0 <= h < len(arr)]:
            raise IndexError(f"hyperplane index {min(bad)} out of range")
        # kept as listed: verify checks that they close to a flat of codimension i
        flats.append(Flat(arr, i, tuple(members)))
        charpolys.append(poly_from_json(entry.get("charpoly")))
    exponents = data.get("exponents")
    if exponents is not None and (
        not isinstance(exponents, list) or not all(_is_int(e) for e in exponents)
    ):
        raise SchemaError("'exponents' must be null or a list of integers")
    return DivisionalFlag(
        tuple(flats),
        tuple(charpolys),
        tuple(exponents) if exponents is not None else None,
    )


def if_certificate_to_json(cert: IFCertificate) -> dict:
    return {
        "kind": "inductive-freeness",
        "field": field_to_json(cert.field),
        "dim": cert.dim,
        "steps": [
            {
                # a step read from a file holds the covector as written
                "covector": covector_to_json(normalize_covector(cert.field, step.covector)),
                "restriction_charpoly": poly_to_json(step.restriction_chi),
            }
            for step in cert.steps
        ],
    }


def if_certificate_from_json(data) -> IFCertificate:
    if not isinstance(data, dict) or data.get("kind") != "inductive-freeness":
        raise SchemaError("expected an inductive-freeness certificate")
    field = field_from_json(data.get("field"))
    dim = data.get("dim")
    if not _is_int(dim):
        raise SchemaError("'dim' must be an integer")
    entries = data.get("steps", [])
    if not isinstance(entries, list):
        raise SchemaError("'steps' must be a list")
    steps = []
    for entry in entries:
        if not isinstance(entry, dict) or not {"covector", "restriction_charpoly"} <= set(entry):
            raise SchemaError("each step must be an object with 'covector' and 'restriction_charpoly'")
        if not isinstance(entry["covector"], list):
            raise SchemaError("a step's 'covector' must be a list")
        cov = tuple(field.coerce(x) for x in entry["covector"])
        steps.append(IFStep(cov, poly_from_json(entry["restriction_charpoly"])))
    return IFCertificate(field, dim, tuple(steps))


def verify_certificate(arr: Arrangement, data) -> bool:
    """Re-verify an emitted certificate against the arrangement alone."""
    kind = data.get("kind") if isinstance(data, dict) else None
    if kind == "divisional-flag":
        flag = flag_from_json(arr, data)
        return flag.verify(arr)
    if kind == "inductive-freeness":
        cert = if_certificate_from_json(data)
        return cert.verify(arr)
    raise SchemaError(f"unknown certificate kind {kind!r}")
