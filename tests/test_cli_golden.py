"""Golden CLI corpus: stdout, exit code and first stderr line of fixed commands.

``golden/cases.json`` records what ``shiftlab.cli.main`` printed and returned
for each command.  The commands run in-process from ``tests/golden``, so the
input files under ``golden/inputs`` are named by relative paths and are
echoed the same way on every machine.

On the Python, numpy and libc versions named in the corpus header, stdout
must match byte for byte.  On other versions a libm may round ``pow`` or
``log`` differently, so there every key, string and int must still match
exactly while floats may differ by up to 4 ulp, and the texts with every
number token masked must match byte for byte, so key order, indentation and
separators are checked on every machine.

``python tests/test_cli_golden.py`` rewrites every expectation from the
current code.  Do that only for a deliberate change of output.
"""

import contextlib
import io
import json
import math
import os
import platform
import re
import warnings

import numpy as np
import pytest

from shiftlab.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
CASES_FILE = os.path.join(GOLDEN, "cases.json")
FLOAT_ULPS = 4
# a JSON number token, or a CSV field that is one
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _versions() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "libc": " ".join(platform.libc_ver()),
    }


def _load() -> dict:
    with open(CASES_FILE, encoding="utf-8") as f:
        return json.load(f)


def _run(argv: list[str]) -> dict:
    """Run ``main(argv)`` from the corpus directory and capture what it shows.

    A ``RuntimeWarning`` (a raw numpy overflow or invalid-value report)
    is raised as an error: the corpus is deterministic, so a command that
    prints one shows it on every run and must be fixed, not recorded.  So
    is a ``NaN`` or ``Infinity`` token in JSON stdout, which strict JSON
    readers refuse (see ``_parse``).
    """
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    lines = err.getvalue().splitlines()
    _parse(out.getvalue())
    return {"exit": code, "stderr": lines[0] if lines else "", "stdout": out.getvalue()}


def _scalar(field: str) -> object:
    for kind in (int, float):
        try:
            return kind(field)
        except ValueError:
            pass
    return field


def _refuse(token: str) -> object:
    raise AssertionError(f"JSON stdout holds {token}, which is not a JSON token")


def _parse(stdout: str) -> object:
    """A strict JSON document, or else the lines of CSV/plain text split into fields."""
    try:
        return json.loads(stdout, parse_constant=_refuse)
    except json.JSONDecodeError:
        return [[_scalar(f) for f in line.split(",")] for line in stdout.split("\n")]


def _close(a: object, b: object) -> bool:
    """Equal, except that floats may differ by FLOAT_ULPS units in the last place."""
    if isinstance(a, float) and isinstance(b, float):
        return a == b or abs(a - b) <= FLOAT_ULPS * math.ulp(max(abs(a), abs(b)))
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_close, a, b))
    return a == b


def _mask(text: str) -> str:
    """``text`` with every number token replaced by ``0``: its layout alone."""
    return _NUMBER.sub("0", text)


def _assert_same_output(got: str, expected: str) -> None:
    """Byte for byte on the corpus's versions; elsewhere the same layout, and floats within FLOAT_ULPS."""
    if _CORPUS["versions"] == _versions():
        assert got == expected
    else:
        assert _mask(got) == _mask(expected)
        assert _close(_parse(got), _parse(expected))


_CORPUS = _load()
# every case that writes a result: exit 0, 2 or 3, except --version, which argparse prints
_WRITERS = [c for c in _CORPUS["cases"] if c["exit"] in (0, 2, 3) and c["argv"] != ["--version"]]


@pytest.mark.parametrize("case", _CORPUS["cases"], ids=[c["name"] for c in _CORPUS["cases"]])
def test_cli_matches_golden_case(case):
    got = _run(case["argv"])
    assert (got["exit"], got["stderr"]) == (case["exit"], case["stderr"])
    _assert_same_output(got["stdout"], case["stdout"])


@pytest.mark.parametrize("case", _WRITERS, ids=[c["name"] for c in _WRITERS])
def test_out_file_holds_the_golden_stdout(case, tmp_path):
    target = tmp_path / "out"
    got = _run(case["argv"] + ["--out", str(target)])
    assert got == {"exit": case["exit"], "stderr": case["stderr"], "stdout": ""}
    _assert_same_output(target.read_bytes().decode("utf-8"), case["stdout"])


def test_close_allows_a_few_ulps_only():
    x = 0.1
    assert _close({"a": [x, 1, "s"]}, {"a": [x + 4 * math.ulp(x), 1, "s"]})
    assert not _close([x], [x + 8 * math.ulp(x)])
    assert not _close([1], [1.0])
    assert not _close({"a": 1}, {"b": 1})
    assert _parse("n,norm\n0,1.5\n") == [["n", "norm"], [0, 1.5], [""]]


def test_other_versions_still_check_layout(monkeypatch):
    text = json.dumps({"a": [0.1, -2e-05, 3], "b": "T1"}, indent=2)
    monkeypatch.setitem(_CORPUS, "versions", {"python": "other"})
    _assert_same_output(text.replace("0.1", "0.10000000000000002").replace("-2e-05", "-2.0000000000000003e-05"), text)
    for changed in (text.replace("\n  ", "\n   "), text.replace(": ", ":"), json.dumps({"b": "T1", "a": [0.1, -2e-05, 3]}, indent=2)):
        with pytest.raises(AssertionError):
            _assert_same_output(changed, text)


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_parse_refuses_non_json_tokens(token):
    with pytest.raises(AssertionError, match=token):
        _parse('{"max_residual": ' + token + "}")


if __name__ == "__main__":
    corpus = _load()
    for case in corpus["cases"]:
        case.update(_run(case["argv"]))
    corpus["versions"] = _versions()
    with open(CASES_FILE, "w", encoding="utf-8") as f:
        json.dump(corpus, f, indent=1)
        f.write("\n")
