"""The README's examples run as written and do what their comments say."""

import contextlib
import io
import os
import re
import shlex

import pytest

from shiftlab.cli import main

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _block(heading: str, lang: str) -> str:
    """The first fenced ``lang`` block after the line ``heading``."""
    with open(README, encoding="utf-8") as f:
        text = f.read()
    after = text[text.index("\n" + heading + "\n") :]
    return re.search(rf"^```{lang}\n(.*?)^```$", after, re.S | re.M).group(1)


def test_quick_start_prints_what_its_comments_state():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_block("## Library quick start", "python"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 5
    assert float(lines[0]) < 1e-9
    assert lines[1:4] == [
        "T1 MixingNotChaotic Analytic",
        "T2 TransitiveNotMixing Analytic",
        "T3 NotTransitive Analytic",
    ]
    assert float(lines[4]) >= 1.0


_EXAMPLES = [
    (shlex.split(cmd)[1:], int(code))
    for cmd, code in re.findall(r"^(shiftlab [^#\n]*?)\s*#.*\bexit (\d)\b", _block("Examples:", "sh"), re.M)
]


def test_every_example_with_a_stated_exit_code_is_found():
    assert [code for _, code in _EXAMPLES] == [0, 0, 3, 1]


@pytest.mark.parametrize("argv,code", _EXAMPLES, ids=[" ".join(argv) for argv, _ in _EXAMPLES])
def test_example_exits_as_stated(argv, code):
    assert main(argv) == code
