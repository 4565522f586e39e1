"""Every reading subcommand answers a mutated input file with a documented exit
code and at most one error line, never a traceback.

Each example takes a valid process spec, matrix, measure or product file,
replaces one field (any key or list element, at any depth) with null, a
string, a bool, a nested list, a negative number or a huge number, and runs
``etamix.cli.main`` in-process on it.  A field nested 200,000 lists deep
must exit 2 as well.
"""
import contextlib
import copy
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etamix.cli import main

MUTATIONS = (None, "0.5", True, False, [[0.5]], -1, -0.5, 1e300, 10**400)

SPECS = (
    {"version": "etamix-0.2.0", "rate": {"kind": "builtin", "name": "sqrt"},
     "k_max": 3, "n_max": 12, "eps": [0.5, 0.3, 0.2]},
    {"rate": {"kind": "builtin", "name": "linear"}, "k_max": 2, "n_max": 16},
    {"rate": {"kind": "builtin", "name": "const", "value": 2}, "k_max": 2, "n_max": 8},
    {"rate": {"kind": "table", "values": [1, 2, 2, 3, 3, 3, 4, 4]}, "k_max": 2, "n_max": 8},
)
MATRIX = {"version": "etamix-0.2.0", "n": 3,
          "entries": [[0.0, 0.6, 0.4], [0.0, 0.0, 0.9], [0.0, 0.0, 0.0]]}
MEASURE = {"version": "etamix-0.2.0", "q": 2, "n": 2, "probs": [0.25, 0.25, 0.125, 0.375]}
PRODUCT = {"version": "etamix-0.2.0", "n": 2, "components": [
    {key: MEASURE[key] for key in ("q", "n", "probs")}] * 2}


def _paths(obj, path=()):
    """Path (a tuple of keys and indices) of every value below the root."""
    if path:
        yield path
    if isinstance(obj, dict):
        items = obj.items()
    else:
        items = enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def _mutated(docs):
    cases = [(doc, path) for doc in docs for path in _paths(doc)]

    @st.composite
    def draw(draw_):
        doc, path = draw_(st.sampled_from(cases))
        out = copy.deepcopy(doc)
        node = out
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = draw_(st.sampled_from(MUTATIONS))
        return out

    return draw()


def _run(command: str, doc) -> int:
    """Exit code of ``command`` on ``doc``, a JSON value or the input file's text."""
    with tempfile.TemporaryDirectory() as d:
        src = os.path.join(d, "input.json")
        with open(src, "w") as fh:
            fh.write(doc if isinstance(doc, str) else json.dumps(doc))
        argv = [command, src] + (["--t", "1.0"] if command == "bounds" else [])
        argv += [] if command == "validate" else ["-o", os.path.join(d, "out")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in range(7), (code, doc)
    if code in (2, 3, 5, 6):
        assert err.getvalue().count("\n") == 1, (code, doc, err.getvalue())
    return code


class TestMutatedInputs:
    @settings(max_examples=150, deadline=None)
    @given(_mutated(SPECS))
    def test_rate(self, doc):
        _run("rate", doc)

    @settings(max_examples=100, deadline=None)
    @given(_mutated([MATRIX]))
    def test_validate(self, doc):
        _run("validate", doc)

    @settings(max_examples=100, deadline=None)
    @given(_mutated([MATRIX]))
    def test_construct(self, doc):
        _run("construct", doc)

    @settings(max_examples=60, deadline=None)
    @given(_mutated([MEASURE, PRODUCT]))
    def test_mix(self, doc):
        _run("mix", doc)


READERS = (("mix", MEASURE), ("validate", MATRIX), ("rate", SPECS[0]), ("product", PRODUCT))


class TestVersionTag:
    @pytest.mark.parametrize("command,doc", READERS)
    @pytest.mark.parametrize("version", ["etamix-0.1.0", "etamix-0.2.0", "etamix-0.3.0", None])
    def test_known_or_missing_version_is_read(self, command, doc, version):
        doc = {key: value for key, value in doc.items() if key != "version"}
        if version is not None:
            doc["version"] = version
        assert _run(command, doc) == 0

    @pytest.mark.parametrize("command,doc", READERS)
    @pytest.mark.parametrize("version", ["bogus-9", "etamix-9.0.0", "", None, 0.3, ["etamix-0.3.0"]])
    def test_unknown_version_exit_code(self, command, doc, version):
        # one stderr line, checked by _run
        assert _run(command, dict(doc, version=version)) == 2


#: Each reading subcommand, with an input and the field to nest.
NESTED = {"mix": (MEASURE, "probs"), "product": (PRODUCT, "components"),
          "construct": (MATRIX, "entries"), "bounds": (MATRIX, "entries"),
          "validate": (MATRIX, "entries"), "rate": (SPECS[0], "eps")}


class TestDeepNesting:
    # the decoder's RecursionError used to exit 6, the code for a missed target
    @pytest.mark.parametrize("command", sorted(NESTED))
    def test_exit_code(self, command):
        doc, key = NESTED[command]
        deep = "[" * 200_000 + "]" * 200_000
        text = json.dumps(dict(doc, **{key: None})).replace(f'"{key}": null', f'"{key}": {deep}')
        assert deep in text
        assert _run(command, text) == 2


class TestNonpositiveStateCap:
    # a cap below 1 used to exit 3, the code for a space past the cap
    @pytest.mark.parametrize("cap", ["0", "-1"])
    @pytest.mark.parametrize("command", ["mix", "product", "scan"])
    def test_exit_code(self, tmp_path, capsys, command, cap):
        src = tmp_path / "m.json"
        src.write_text(json.dumps(MEASURE))
        argv = ["scan", "--n", "2"] if command == "scan" else [command, str(src)]
        assert main(argv + ["-o", str(tmp_path / "out"), "--state-cap", cap]) == 2
        assert capsys.readouterr().err == f"error: the state cap must be >= 1, got {cap}\n"
        assert not (tmp_path / "out").exists()
