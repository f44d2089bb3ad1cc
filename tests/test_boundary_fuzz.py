"""A seeded fuzzer over the documents every command reads.

The golden ``gen-6x2`` instance and its allocation, fractional point and
score documents are mutated in five families (structure, types, sizes,
values and bytes), and every command that reads the mutated document runs
on it in process through ``cli.main``.  Whatever the input, a run exits 0
with strict JSON on standard output, or exits 2 with one ``error:`` line on
standard error and nothing on standard output; that line, the mutated
file's path taken out, is at most ``ERROR_LINE_CAP`` characters, however
long the document's numbers are.  Each family mutates each
document ``CASES`` times, taking its mutations in turn and drawing their
choices from one fixed seed, so the cases are the same on every run.
"""

import contextlib
import copy
import io
import json
from pathlib import Path

import numpy as np
import pytest

from efxkit import cli

GOLDEN = Path(__file__).parent / "golden"
SEED = 20260
CASES = 16
ERROR_LINE_CAP = 250
# Each kind of document: its golden file and the key its payload sits under.
DOCUMENTS = {
    "instance": ("gen-6x2.json", "values"),
    "allocation": ("alloc-6x2.json", "owner"),
    "x": ("x-6x2.json", "x"),
    "y": ("y-6x2.json", "y"),
}
# Every command that reads a document, with the kinds each one reads.
COMMANDS = [
    ["check", "--instance", "instance", "--allocation", "allocation"],
    ["oracle", "--instance", "instance"],
    ["lovasz", "--instance", "instance"],
    ["extension", "eval", "--instance", "instance", "--x", "x"],
    ["extension", "eval", "--instance", "instance", "--y", "y"],
    ["dca", "--instance", "instance"],
    ["fixedpoint", "--instance", "instance"],
    ["compare", "--instance", "instance"],
]
# JSON texts that stand in for a number, or for an owner: a raw literal
# goes into the document text as it is.
LITERALS = [
    "0", "-0", "0.0", "-0.0", "5e-324", "-5e-324", "2.2250738585072014e-308", "1e308", "-1e308",
    "1" * 400, "-" + "1" * 400, "1" * 5000, "1e400", "NaN", "Infinity", "-Infinity",
]
WRONG_TYPES = ["true", "false", '"1"', "null", "[1.0]", "{}", "[]"]


class Raw(str):
    """JSON text to splice into a document in place of a value."""


def _text(doc) -> str:
    """``doc`` as JSON text, with every ``Raw`` value spliced in verbatim."""
    raws = []

    def mark(value):
        if isinstance(value, Raw):
            raws.append(value)
            return f"@raw{len(raws) - 1}@"
        if isinstance(value, dict):
            return {key: mark(entry) for key, entry in value.items()}
        if isinstance(value, list):
            return [mark(entry) for entry in value]
        return value

    text = json.dumps(mark(doc))
    for index, raw in enumerate(raws):
        text = text.replace(f'"@raw{index}@"', raw, 1)
    return text


def _leaves(doc: dict, key: str) -> list[tuple]:
    """Paths to the payload's numbers (and to the instance's sizes)."""
    payload = doc[key]
    if key == "owner":
        return [(key, k) for k in range(len(payload))]
    paths = [(key, k, i) for k, row in enumerate(payload) for i in range(len(row))]
    return paths + ([("m",), ("n",)] if key == "values" else [])


def _put(doc: dict, path: tuple, value) -> dict:
    doc = copy.deepcopy(doc)
    target = doc
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return doc


def _pick(rng, options):
    return options[rng.integers(len(options))]


# Each mutation takes (rng, doc, key) and returns the file's bytes, or None
# for a directory in place of the file.


def nest(rng, doc, key):
    depth = int(_pick(rng, [1, 3, 200, 200_000]))
    path = _pick(rng, [(key,), *_leaves(doc, key)])
    inner = _text(doc[path[0]]) if len(path) == 1 else "0.5"
    return _text(_put(doc, path, Raw("[" * depth + inner + "]" * depth))).encode()


def wrong_container(rng, doc, key):
    return _text(_pick(rng, [
        list(doc.items()),
        list(doc.values()),
        {"document": doc},
        _put(doc, (key,), dict(enumerate(doc[key]))),
        _put(doc, (key,), {"rows": doc[key]}),
        _put(doc, (key, 0), {"row": doc[key][0]}),
    ])).encode()


def missing_key(rng, doc, key):
    doc = copy.deepcopy(doc)
    del doc[_pick(rng, sorted(doc))]
    return _text(doc).encode()


def extra_key(rng, doc, key):
    extra = _pick(rng, ["M", "N", "owner", "values", "x", "y", "comment", ""])
    if extra in doc:
        extra += "_extra"
    return _text({**doc, extra: _pick(rng, [None, 1, "text", [1.0], {"m": 2}])}).encode()


def duplicated_key(rng, doc, key):
    # json.loads keeps the last value of a repeated key.
    duplicate = _pick(rng, sorted(doc))
    value = _pick(rng, [doc[duplicate], Raw(_pick(rng, WRONG_TYPES)), Raw(_pick(rng, LITERALS))])
    text = _text(doc)
    return (text[:-1] + f", {json.dumps(duplicate)}: {_text(value)}}}").encode()


def wrong_type(rng, doc, key):
    return _text(_put(doc, _pick(rng, _leaves(doc, key)), Raw(_pick(rng, WRONG_TYPES)))).encode()


def small_size(rng, doc, key):
    size = int(rng.integers(2))
    payload = doc[key]
    if key == "values":
        axis = _pick(rng, ["m", "n"])
        rows = payload[:size] if axis == "m" else [row[:size] for row in payload]
        resized = _pick(rng, [rows, payload])  # the listed values fit the new size or not
        return _text({**doc, axis: size, key: resized}).encode()
    if key == "owner":
        return _text({**doc, key: payload[:size]}).encode()
    return _text({**doc, key: _pick(rng, [payload[:size], [row[:size] for row in payload]])}).encode()


def ragged_rows(rng, doc, key):
    payload = copy.deepcopy(doc[key])
    if key == "owner":
        payload = payload[:-1] if rng.integers(2) else [*payload, 1]
    else:
        row = payload[rng.integers(len(payload))]
        row.pop() if rng.integers(2) else row.append(0.5)
    return _text({**doc, key: payload}).encode()


def _huge(rng, doc, key, axis):
    if key == "values":
        return _text({**doc, axis: int(_pick(rng, [10**9, 10**12, 2**63, 10**400]))}).encode()
    # The other documents take their shape from the instance: a list far
    # longer than it, or rows far longer than its agents.
    payload = doc[key]
    if axis == "n" and key != "owner":
        payload = [row * 500 for row in payload]
    else:
        payload = payload * 500
    return _text({**doc, key: payload}).encode()


def huge_m(rng, doc, key):
    return _huge(rng, doc, key, "m")


def huge_n(rng, doc, key):
    return _huge(rng, doc, key, "n")


def special_value(rng, doc, key):
    literal = Raw(_pick(rng, LITERALS))
    scope = _pick(rng, ["entry", "row", "all"])
    paths = [path for path in _leaves(doc, key) if path[0] == key]
    if scope == "entry":
        paths = [_pick(rng, paths)]
    elif scope == "row":
        row = _pick(rng, paths)[:2]
        paths = [path for path in paths if path[:2] == row]
    for path in paths:
        doc = _put(doc, path, literal)
    return _text(doc).encode()


def invalid_utf8(rng, doc, key):
    data = _text(doc).encode()
    cut = int(rng.integers(len(data) + 1))
    return data[:cut] + _pick(rng, [b"\xff", b"\xc3\x28", b"\xed\xa0\x80", b"\x80"]) + data[cut:]


def byte_order_mark(rng, doc, key):
    return b"\xef\xbb\xbf" + _text(doc).encode()


def empty_file(rng, doc, key):
    return _pick(rng, [b"", b" ", b"\n"])


def truncated(rng, doc, key):
    data = _text(doc).encode()
    return data[: int(rng.integers(len(data)))]


def directory(rng, doc, key):
    return None


FAMILIES = {
    "structure": [nest, wrong_container, missing_key, extra_key, duplicated_key],
    "types": [wrong_type],
    "sizes": [small_size, ragged_rows, huge_m, huge_n],
    "values": [special_value],
    "bytes": [invalid_utf8, byte_order_mark, empty_file, truncated, directory],
}


def _invocation(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def _assert_boundary_holds(argv: list[str], path: str) -> int:
    code, out, err = _invocation(argv)
    if code == 0:
        assert err == "", (argv, err)
        doc = json.loads(out, parse_constant=_reject_constant)
        json.dumps(doc, allow_nan=False)
    else:
        assert code == 2, (argv, code, err)
        assert out == "", (argv, out)
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), (argv, err)
        assert len(err[:-1].replace(path, "")) <= ERROR_LINE_CAP, (argv, err)
    return code


@pytest.mark.parametrize("kind", sorted(DOCUMENTS))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_mutated_document_exits_zero_or_two(tmp_path, family, kind):
    rng = np.random.default_rng([SEED, sorted(FAMILIES).index(family), sorted(DOCUMENTS).index(kind)])
    name, key = DOCUMENTS[kind]
    doc = json.loads((GOLDEN / name).read_text())
    commands = [argv for argv in COMMANDS if kind in argv]
    codes = []
    for case in range(CASES):
        mutation = FAMILIES[family][case % len(FAMILIES[family])]
        # The documents not under test are the goldens themselves.
        files = {other: str(GOLDEN / DOCUMENTS[other][0]) for other in DOCUMENTS}
        files[kind] = str(tmp_path / f"{case}-{kind}.json")
        data = mutation(rng, doc, key)
        if data is None:
            Path(files[kind]).mkdir()
        else:
            Path(files[kind]).write_bytes(data)
        case_codes = [_assert_boundary_holds([files.get(word, word) for word in argv], files[kind]) for argv in commands]
        if mutation is extra_key:  # the loaders ignore keys they do not read
            assert case_codes == [0] * len(commands)
        codes += case_codes
    assert 2 in codes  # every family breaks some document
