"""CLI exit codes, output shapes, and determinism."""

import cmath
import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab import (
    ConjugacyMap,
    GStep,
    HStep,
    __version__,
    cli,
    diag_similarity,
    map_to_dict,
    max_coord_diff,
    vector_from_dict,
    vector_to_dict,
)
from shiftlab.cli import _dumps, _orbit_work, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert out, f"no stdout; stderr was: {err!r}"
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# classify


def test_classify_constant_chaotic(capsys):
    code, doc = run_json(capsys, "classify", "--weights", "constant:2", "--p", "2")
    assert code == 0
    assert doc["command"] == "classify"
    assert doc["result"]["label"] == "Chaotic"
    assert doc["result"]["confidence"] == "Analytic"
    assert doc["version"]
    assert doc["seed"] == 0


def test_classify_example_descriptor(capsys):
    code, doc = run_json(capsys, "classify", "--weights", "example:T2")
    assert code == 0
    assert doc["result"]["label"] == "TransitiveNotMixing"


def test_classify_embedded_exponent_wins(capsys):
    # powerlaw alpha=0.5 on l^4 is chaotic (alpha * p = 2 > 1)
    code, doc = run_json(capsys, "classify", "--weights", "powerlaw:0.5:4", "--p", "2")
    assert code == 0
    assert doc["config"]["p"] == 4.0
    assert doc["result"]["label"] == "Chaotic"


def test_classify_small_horizon_is_usage_error(capsys):
    code, out, err = run(capsys, "classify", "--weights", "explicit:1,1,1", "--horizon", "50")
    assert code == 1
    assert "horizon" in err


def test_classify_inconclusive_exit_code(capsys):
    code, doc = run_json(capsys, "classify", "--weights", "explicit:1,1,1")
    assert code == 2
    assert doc["result"]["confidence"] == "Inconclusive"


def test_classify_blocks_descriptor(capsys):
    code, doc = run_json(capsys, "classify", "--weights", "blocks:0.5:2:b_first:2")
    assert code == 0
    assert doc["result"]["label"] == "TransitiveNotMixing"  # b_first puts the 2s first


def test_classify_rejects_malformed_descriptor(capsys):
    for desc in ("constant", "nonsense:1", "blocks:2:0.5:sideways:2", "explicit:", "example:T9"):
        code, out, err = run(capsys, "classify", "--weights", desc)
        assert code == 1, desc
        assert err.startswith("error:")


# ---------------------------------------------------------------------------
# conjugate-check


def test_conjugate_check_passes(capsys):
    code, doc = run_json(capsys, "conjugate-check", "--f", "2:2", "--g", "4:2", "--tol", "1e-9")
    assert code == 0
    r = doc["result"]
    assert r["conjugate"] is True
    assert r["passed"] is True
    assert r["chi_f"] == r["chi_g"] == 1
    assert r["residual"]["max_residual"] <= 1e-9
    assert r["map"]["steps"] == [{"kind": "h", "p": 2.0, "s": 2.0}]


def test_conjugate_check_cross_exponent(capsys):
    code, doc = run_json(capsys, "conjugate-check", "--f", "2:1", "--g", "4:3")
    assert code == 0
    kinds = [s["kind"] for s in doc["result"]["map"]["steps"]]
    assert kinds == ["h", "g"]


def test_conjugate_check_class_mismatch_exits_3(capsys):
    code, doc = run_json(capsys, "conjugate-check", "--f", "0.5:2", "--g", "1:2")
    assert code == 3
    r = doc["result"]
    assert r["conjugate"] is False
    assert (r["chi_f"], r["chi_g"]) == (-1, 0)
    assert "chi" in r["reason"]


def test_conjugate_check_over_tolerance_exits_2(capsys):
    code, doc = run_json(capsys, "conjugate-check", "--f", "2:1", "--g", "4:3", "--tol", "1e-16")
    assert code == 2
    assert doc["result"]["passed"] is False


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-9"])
def test_conjugate_check_rejects_tolerance_outside_domain(capsys, tol):
    code, out, err = run(capsys, "conjugate-check", "--f", "2:1", "--g", "4:3", f"--tol={tol}")
    assert code == 1
    assert out == ""
    assert err.startswith("error: --tol must be finite and >= 0")


def test_conjugate_check_complex_weight(capsys):
    # i B_2 and -1 B_4: both weights exactly on the unit circle; a value
    # starting with a dash has to ride in the --flag=value form
    code, doc = run_json(capsys, "conjugate-check", "--f", "0,1:2", "--g=-1:4")
    assert code == 0
    assert doc["result"]["chi_f"] == 0


@pytest.mark.parametrize(
    "f",
    [
        "1e300:2",  # |x_n|**p of a sample vector overflows in the tail sums
        "1.0000001:2",  # s is about 6.9e6, so t**s overflows in h_map
    ],
)
def test_conjugate_check_overflow_is_a_range_error(capsys, f):
    code, out, err = run(capsys, "conjugate-check", "--f", f, "--g", "2:2")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "coordinate" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# orbit


def test_orbit_t3_json(capsys):
    code, doc = run_json(capsys, "orbit", "--op", "example:T3", "--point", "example3:20", "--n", "400")
    assert code == 0
    norms = doc["result"]["norms"]
    assert len(norms) == 401
    assert min(norms[1:20]) >= 1.0 - 1e-12
    assert doc["result"]["valid_horizon"] == 400


def test_orbit_basis_vector_zeros(capsys):
    code, doc = run_json(capsys, "orbit", "--op", "constant:0.5:2", "--point", "e1", "--n", "5")
    assert code == 0
    assert doc["result"]["norms"] == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    assert doc["result"]["valid_horizon"] == 1


def test_orbit_box_point_csv(capsys):
    code, out, err = run(
        capsys, "orbit", "--op", "constant:1:2", "--point", "box:8", "--n", "8", "--format", "csv"
    )
    assert code == 0
    lines = out.split("\n")
    assert lines[0] == "n,norm"
    assert len(lines) == 11  # header + 9 rows + trailing newline split
    assert lines[-1] == ""
    assert "\r" not in out
    norms = [float(line.split(",")[1]) for line in lines[1:10]]
    assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))  # nonincreasing
    assert norms[8] == 0.0  # support exhausted


def test_orbit_box_point_seed_changes_start(capsys):
    _, doc1 = run_json(capsys, "orbit", "--op", "constant:1:2", "--point", "box:8", "--n", "2", "--seed", "1")
    _, doc2 = run_json(capsys, "orbit", "--op", "constant:1:2", "--point", "box:8", "--n", "2", "--seed", "2")
    assert doc1["result"]["norms"] != doc2["result"]["norms"]


def test_orbit_escape_demo(capsys):
    code, doc = run_json(capsys, "orbit", "--op", "constant:2:2", "--point", "escape", "--n", "6")
    assert code == 0
    assert doc["result"]["norms"] == [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]


def test_orbit_escape_needs_constant_operator(capsys):
    code, out, err = run(capsys, "orbit", "--op", "example:T2", "--point", "escape", "--n", "5")
    assert code == 1


def test_orbit_rejects_bad_point(capsys):
    code, out, err = run(capsys, "orbit", "--op", "constant:1:2", "--point", "basis:1", "--n", "2")
    assert code == 1


def test_orbit_overflowing_power_sums_give_finite_norms(capsys):
    code, out, err = run(capsys, "orbit", "--op", "constant:2", "--point", "box:1000", "--n", "1000")
    assert code == 0
    assert err == ""
    norms = json.loads(out)["result"]["norms"]
    assert all(isinstance(v, float) and math.isfinite(v) for v in norms)


def test_orbit_escape_past_squared_float_range(capsys):
    code, out, err = run(capsys, "orbit", "--op", "constant:10", "--point", "escape", "--n", "200")
    assert code == 0
    assert err == ""
    norms = json.loads(out)["result"]["norms"]
    assert len(norms) == 200
    assert all(v == pytest.approx(10.0**k, rel=1e-12) for k, v in enumerate(norms))


def test_orbit_powerlaw_weight_overflow_is_a_range_error(capsys):
    # w_2 = 2**1100 is beyond float range; a basis vector e1 takes no step
    code, out, err = run(capsys, "orbit", "--op", "powerlaw:1100", "--point", "box:5", "--n", "3")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "w_2" in err
    assert "Traceback" not in err
    code, doc = run_json(capsys, "orbit", "--op", "powerlaw:1100", "--point", "e1", "--n", "3")
    assert code == 0
    assert doc["result"]["norms"] == [1.0, 0.0, 0.0, 0.0]


def test_orbit_weight_modulus_beyond_float_range_is_refused_at_parse_time(capsys):
    code, out, err = run(capsys, "orbit", "--op", "constant:1.5e308,1.5e308", "--point", "escape", "--n", "1")
    assert code == 1
    assert out == ""
    assert err == "error: |(1.5e+308+1.5e+308j)| is beyond float range\n"


def test_orbit_escape_past_float_range_is_a_range_error(capsys):
    code, out, err = run(capsys, "orbit", "--op", "constant:10", "--point", "escape", "--n", "400")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "step 309" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("point, n", [("box:1000000", 1000000), ("e20000", 10000), ("example3:999", 101)])
def test_orbit_work_beyond_maximum_is_refused_before_the_point_is_built(capsys, monkeypatch, point, n):
    # min(--n, L) * L is the orbit's cost: 10**12, 2 * 10**8 and 999000 * 101
    for builder in ("FinSeqVector", "example3_point", "random_vectors"):
        monkeypatch.setattr(cli, builder, lambda *args, **kwargs: pytest.fail("the point was built"))
    code, out, err = run(capsys, "orbit", "--op", "constant:1", "--point", point, "--n", str(n))
    assert (code, out) == (1, "")
    assert err.startswith("error: min(--n, L) * L for --point of length L must be <= 100000000, got ")


def test_orbit_work_maximum_is_exact():
    _orbit_work(10**4, 10**4)
    _orbit_work(100, 10**6)
    with pytest.raises(ValueError, match="must be <= 100000000, got 100020001"):
        _orbit_work(10**6, 10**4 + 1)
    with pytest.raises(ValueError, match="got 101000000"):
        _orbit_work(101, 10**6)


def test_orbit_escape_is_linear_in_n(capsys):
    # one live coordinate per step: the quadratic form took hours at this n
    code, out, err = run(capsys, "orbit", "--op", "constant:1", "--point", "escape", "--n", "200000", "--format", "csv")
    assert (code, err) == (0, "")
    assert out.count("\n") == 200001 and out.endswith("\n199999,1.0\n")


# ---------------------------------------------------------------------------
# apply-map


@pytest.fixture
def vec_file(tmp_path):
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"p": 2.0, "coords": [[3, 4], [1, 0], [0, 2], [0.5, -0.5]]}))
    return str(path)


def test_apply_map_h_roundtrip(capsys, vec_file):
    code, doc = run_json(capsys, "apply-map", "--h", "s=2", "--in", vec_file, "--roundtrip")
    assert code == 0
    assert doc["result"]["roundtrip_max_deviation"] <= 1e-9
    assert doc["result"]["map"]["steps"][0]["kind"] == "h"
    assert len(doc["result"]["image"]["coords"]) == 4


def test_apply_map_g_chain_recovers_vector(capsys, vec_file, tmp_path):
    code, doc = run_json(capsys, "apply-map", "--g", "q=4", "--in", vec_file)
    assert code == 0
    assert doc["result"]["image"]["p"] == 4.0
    mid = tmp_path / "mid.json"
    mid.write_text(json.dumps(doc["result"]["image"]))
    code, doc2 = run_json(capsys, "apply-map", "--g", "q=2", "--in", str(mid))
    assert code == 0
    orig = json.loads(open(vec_file).read())["coords"]
    back = doc2["result"]["image"]["coords"]
    for (br, bi), (orr, ori) in zip(back, orig):
        assert math.hypot(br - orr, bi - ori) <= 1e-12 * math.hypot(orr, ori)


def test_apply_map_rejects_nonpositive_s(capsys, vec_file):
    code, out, err = run(capsys, "apply-map", "--h", "s=-1", "--in", vec_file)
    assert code == 1
    assert "error" in err


def test_apply_map_diag(capsys, vec_file):
    code, doc = run_json(capsys, "apply-map", "--diag", "2:-2", "--in", vec_file, "--roundtrip")
    assert code == 0
    assert doc["result"]["roundtrip_max_deviation"] == 0.0


def test_apply_map_diag_rejects_unequal_moduli(capsys, vec_file):
    code, out, err = run(capsys, "apply-map", "--diag", "2:3", "--in", vec_file)
    assert code == 1


def test_apply_map_h_overflow_is_a_range_error(capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"p": 2, "coords": [[1e10, 0], [3, 4]]}))
    code, out, err = run(capsys, "apply-map", "--h", "s=200", "--in", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "coordinate 1" in err
    assert "Traceback" not in err


def test_apply_map_g_overflow_is_a_range_error(capsys, tmp_path):
    # |x_1|**(4/1) = 1e1200 is beyond float range
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"p": 4, "coords": [[1e300, 0], [1, 0]]}))
    code, out, err = run(capsys, "apply-map", "--g", "q=1", "--in", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "coordinate 1" in err
    assert "Traceback" not in err


_BEYOND_FLOAT = int("9" * 400)  # a JSON integer that float() cannot take


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"p": 2, "coords": [[1, 0], [_BEYOND_FLOAT, 0]]}, "coordinate 2 is an integer beyond float range"),
        ({"p": 2, "coords": [[1, 0], [0, -_BEYOND_FLOAT]]}, "coordinate 2 is an integer beyond float range"),
        ({"p": 2, "coords": [_BEYOND_FLOAT]}, "coordinate 1 is an integer beyond float range"),
        ({"p": _BEYOND_FLOAT, "coords": [[1, 0]]}, "got an integer beyond float range"),
        # wrong JSON types: the first bad field is named
        ([[1, 0]], "a vector must be a JSON object with p and coords, got list"),
        ({"p": 2, "coords": 5}, "coords must be a list of [re, im] pairs or reals, got int"),
        ({"p": 2}, "coords must be a list of [re, im] pairs or reals, got NoneType"),
        ({"p": 2, "coords": [[1, 0], [None, 0]]}, "coordinate 2 must be an [re, im] pair or a real, got [None, 0]"),
        ({"p": 2, "coords": [[1, {}]]}, "coordinate 1 must be an [re, im] pair or a real, got [1, {}]"),
        ({"p": 2, "coords": [[1, 0], "x"]}, "coordinate 2 must be an [re, im] pair or a real, got 'x'"),
        ({"p": None, "coords": [[1, 0]]}, "exponent must satisfy 1 <= p < inf, got None"),
        ({"p": [2], "coords": [[1, 0]]}, "exponent must satisfy 1 <= p < inf, got [2]"),
        # a JSON true or false is not a number, though float() takes it as 1.0 or 0.0
        ({"p": True, "coords": [[True, False], [1, 2]]}, "coordinate 1 must be an [re, im] pair or a real, got [True, False]"),
        ({"p": 2, "coords": [[1, 0], [0, False]]}, "coordinate 2 must be an [re, im] pair or a real, got [0, False]"),
        ({"p": 2, "coords": [True]}, "coordinate 1 must be an [re, im] pair or a real, got True"),
        ({"p": True, "coords": [[1, 0]]}, "exponent must satisfy 1 <= p < inf, got True"),
    ],
)
def test_apply_map_integer_beyond_float_range_is_an_error(capsys, tmp_path, doc, message):
    path = tmp_path / "huge_int.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "apply-map", "--h", "s=2", "--in", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_apply_map_missing_file(capsys, tmp_path):
    code, out, err = run(capsys, "apply-map", "--h", "s=2", "--in", str(tmp_path / "nope.json"))
    assert code == 1


# ---------------------------------------------------------------------------
# config files, determinism, usage


def test_config_file_supplies_command_and_flags(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "classify", "weights": "example:T1", "horizon": 1000}))
    code, doc = run_json(capsys, "--config", str(cfg))
    assert code == 0
    assert doc["result"]["label"] == "MixingNotChaotic"
    assert doc["result"]["horizon"] == 1000


def test_explicit_flags_override_config(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "classify", "weights": "example:T1", "horizon": 1000}))
    code, doc = run_json(capsys, "--config", str(cfg), "--horizon", "5000")
    assert code == 0
    assert doc["result"]["horizon"] == 5000


def test_config_without_command_anywhere_fails(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"weights": "example:T1"}))
    code, out, err = run(capsys, "--config", str(cfg))
    assert code == 1


@pytest.mark.parametrize("flags", [("apply-map", "--h", "s=2", "--in"), ("--config",)])
def test_deeply_nested_json_file_is_an_error_line(capsys, tmp_path, flags):
    # the decoder recurses once per level, so this depth passes any recursion limit
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, *flags, str(deep))
    assert code == 1
    assert out == ""
    assert err == f"error: {deep}: JSON nested too deeply to read\n"
    assert "Traceback" not in err


def test_byte_identical_reruns(capsys):
    argv = ("conjugate-check", "--f", "2:1", "--g", "4:3", "--seed", "5")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_json_keys_are_sorted(capsys):
    code, out, err = run(capsys, "classify", "--weights", "constant:2")
    doc = json.loads(out)
    assert list(doc.keys()) == sorted(doc.keys())
    assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"


_NUMBERS = (
    st.integers()
    | st.integers(min_value=-(2**300), max_value=2**300)
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2e-308, 1e308, -1e308])
)
# text that often holds JSON punctuation, escapes, control and non-ASCII characters
_TEXT = st.text(st.characters() | st.sampled_from(',[]{}:"\\\n\x00\x1f\u00e9\u4e2d\U0001f600'))
_LISTS = (
    st.lists(_NUMBERS)  # flat numeric, including empty
    | st.lists(_NUMBERS | st.booleans() | st.none())  # bools and None among numbers
    | st.lists(_NUMBERS | _TEXT)  # strings among numbers
    | st.lists(st.lists(_NUMBERS, min_size=2, max_size=2))  # pairs, like coords
    | st.lists(st.lists(_NUMBERS, max_size=3))  # ragged, some inner lists empty
)
_JSON = st.recursive(
    st.none() | st.booleans() | _NUMBERS | _TEXT | _LISTS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=150)
@given(_JSON)
def test_dumps_is_byte_identical_to_indented_json_dumps(value):
    # strict JSON: a nan or inf anywhere is refused by both, as ValueError
    try:
        expected = json.dumps(value, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        with pytest.raises(ValueError, match="not JSON compliant"):
            _dumps(value)
    else:
        assert _dumps(value) == expected


def test_dumps_matches_json_dumps_on_full_size_vectors():
    rng = random.Random(9)
    coords = [[rng.uniform(-10, 10), rng.uniform(-10, 10)] for _ in range(4096)]
    weights = [[rng.uniform(-2, 2), 0.0] for _ in range(10_000)]
    transport = {"result": {"image": {"coords": coords, "p": 2.0}, "roundtrip_max_deviation": 1e-15}}
    explicit = {"config": {"weights": {"kind": "explicit", "weights": weights}, "horizon": 10_000}}
    for payload in (transport, explicit):
        assert _dumps(payload) == json.dumps(payload, sort_keys=True, indent=2)


def test_out_file_writing(capsys, tmp_path):
    target = tmp_path / "verdict.json"
    code, out, err = run(capsys, "classify", "--weights", "constant:2", "--out", str(target))
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["result"]["label"] == "Chaotic"


def test_unknown_command_is_usage_error(capsys):
    code, out, err = run(capsys, "frobnicate")
    assert code == 1


def test_missing_required_flag_is_usage_error(capsys):
    code, out, err = run(capsys, "classify")
    assert code == 1


def test_help_exits_zero(capsys):
    code, out, err = run(capsys, "--help")
    assert code == 0


def test_version_flag(capsys):
    code, out, err = run(capsys, "--version")
    assert code == 0


def test_one_parser_per_process_answers_as_a_fresh_process_does(capsys):
    # main() reuses the parser it built first; a usage error must leave no
    # state behind for the calls after it
    assert cli._build_parser() is cli._build_parser()
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    script = "import sys; from shiftlab.cli import main; sys.exit(main(sys.argv[1:]))"
    codes = []
    for argv in (
        ["classify", "--weights", "constant:2", "--bogus", "1"],
        ["classify", "--weights", "blocks:1.4:0.55:b_first", "--horizon", "1000"],
        ["--version"],
    ):
        fresh = subprocess.run(
            [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src)
        )
        assert run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr)
        codes.append(fresh.returncode)
    assert codes == [1, 0, 0] and fresh.stdout.startswith("shiftlab ")


# ---------------------------------------------------------------------------
# the input contract: every argv gets an answer or an `error:` line, never a traceback

_HUGE = "9" * 400  # an integer far beyond float and index range
# every float slot: edge values and unparsable text, and ordinary values
# about three times as often, so that many draws get past parsing
_VALUE = st.sampled_from(
    ["2", "0.5", "3", "1"] * 12
    + ["0", "-0", "5e-324", "1e300", "1e-300", "-1e300", "1.5e308", "nan", "inf", "-inf", "1e400", _HUGE]
    + ["-1", "x", "", "1,2", ":"]
)
# sizes: small, or beyond the CLI's maxima, which fail at once.  Never a size
# just under a maximum, which would allocate or loop for real.
_SIZE = st.sampled_from(["1", "3", "0", "-1", "1e400", "x", "10000000000"] + [_HUGE] * 3)
_SCALAR = _VALUE | st.builds("{},{}".format, _VALUE, _VALUE)
_SUFFIX = st.just("") | _VALUE.map(":{}".format)
_DESC = st.one_of(
    st.builds("constant:{}{}".format, _SCALAR, _SUFFIX),
    st.builds("example:{}{}".format, st.sampled_from(["T1", "t2", "T3", "T9"]), st.sampled_from(["", ":3"])),
    st.builds("explicit:{}{}".format, st.lists(_VALUE, min_size=1, max_size=3).map(",".join), _SUFFIX),
    st.builds("blocks:{}:{}:{}{}".format, _SCALAR, _SCALAR, st.sampled_from(["a_first", "b_first", "x"]), _SUFFIX),
    st.builds("powerlaw:{}{}".format, _VALUE, _SUFFIX),
    _VALUE,
)
_POINT = st.builds("{}{}".format, st.sampled_from(["e", "example3:", "box:"]), _SIZE) | st.sampled_from(["escape", "e"])


def _one(name, values):
    return st.tuples(st.just(name), values).map(lambda flag: [flag])


def _maybe(name, values):
    return st.just([]) | _one(name, values)


_SEED = _maybe("--seed", _SIZE)
# per subcommand, groups of (flag, value); a value of True is a bare switch
_FLAGS = {
    "classify": st.tuples(
        _one("--weights", _DESC),
        _maybe("--p", _VALUE),
        _maybe("--horizon", st.sampled_from(["100", "1000", "50", "-1", "x", "1000000000000", _HUGE])),
        _SEED,
    ),
    "conjugate-check": st.tuples(
        _one("--f", st.builds("{}:{}".format, _SCALAR, _VALUE) | _VALUE),
        _one("--g", st.builds("{}:{}".format, _SCALAR, _VALUE)),
        _one("--samples", st.sampled_from(["1", "3", "0", "-1", "x", "100000000", _HUGE])),
        _maybe("--tol", _VALUE),
        _SEED,
    ),
    "orbit": st.tuples(
        _one("--op", _DESC),
        _one("--point", _POINT),
        _one("--n", _SIZE),
        _maybe("--p", _VALUE),
        _maybe("--format", st.sampled_from(["json", "csv", "x"])),
        _SEED,
    ),
    "apply-map": st.tuples(
        _one("--h", _VALUE.map("s={}".format))
        | _one("--g", _VALUE.map("q={}".format))
        | _one("--diag", st.builds("{}:{}".format, _SCALAR, _SCALAR)),
        _one("--in", st.just("vec.json")),
        _maybe("--roundtrip", st.just(True)),
        _SEED,
    ),
}
_PART = st.floats(-1e3, 1e3) | _NUMBERS | st.sampled_from([None, "1", "x", int(_HUGE), [], {}])
_VECTOR = st.fixed_dictionaries(
    {
        "p": st.sampled_from([2, 3.5, "2"]) | st.sampled_from([int(_HUGE), None, 0.5, "x", [2], True]),
        "coords": st.lists(st.lists(_PART, min_size=2, max_size=2) | _PART, max_size=4) | _JSON,
    }
)


@st.composite
def _invocation(draw):
    """An argv for one subcommand, and the JSON files it reads, by name."""
    command = draw(st.sampled_from(sorted(_FLAGS)))
    flags = [pair for group in draw(_FLAGS[command]) for pair in group]
    files = {"vec.json": draw(_VECTOR | _JSON)} if command == "apply-map" else {}
    argv = [command] + [name if value is True else f"{name}={value}" for name, value in flags]
    how = draw(st.sampled_from(["argv", "argv", "argv", "config", "any config"]))
    if how != "argv":  # the same flags, or any JSON at all, from a --config file
        config = {"command": command, **{name[2:]: value for name, value in flags}}
        files["cfg.json"] = config if how == "config" else draw(_JSON)
        argv = ["--config", "cfg.json"]
    return argv, files


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_invocation())
def test_cli_gives_an_answer_or_an_error_line_for_every_input(invocation):
    argv, files = invocation
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in files.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as f:
                json.dump(doc, f)
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    code = main(argv)
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2, 3)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if code == 1:
        assert err.getvalue().startswith("error: ")
    if out.getvalue().startswith("{"):
        json.loads(out.getvalue(), parse_constant=lambda token: pytest.fail(f"bare {token} in the JSON output"))


# ---------------------------------------------------------------------------
# apply-map against a one-vector oracle

# a real as a vector file may hold it: float, int or numeric string
_REAL = (
    st.floats(-1e6, 1e6)
    | st.integers(-(10**6), 10**6)
    | st.floats(-1e6, 1e6).map(repr)
    | st.sampled_from([-0.0, 0.0, 5e-324, -1e-300, 1e200, 2**60 + 1])
)
_COORDS = st.lists(st.lists(_REAL, min_size=2, max_size=2) | _REAL, max_size=12)
_FILE = st.fixed_dictionaries({"p": st.sampled_from([1, 1.5, 2.0, "2", 3, 4.5]), "coords": _COORDS})
_MODULI = st.floats(0.25, 4.0)
_PHASE = st.floats(-math.pi, math.pi)
_MAP = st.one_of(
    st.tuples(st.just("h"), st.floats(0.1, 4.0) | st.sampled_from([1.0, 0.0, -1.0])),
    st.tuples(st.just("g"), st.floats(1.0, 5.0) | st.sampled_from([1.0, 0.5])),
    # equal moduli, and now and then unequal ones, which the map refuses
    st.tuples(st.just("diag"), st.tuples(_MODULI, _PHASE, _PHASE, st.sampled_from([1.0, 1.0, 1.0, 1.5]))),
)


def _oracle(doc: dict, kind: str, param, roundtrip: bool) -> tuple[int, str, str]:
    """apply-map's exit code, stdout and stderr, built from the one-vector API."""
    try:
        x = vector_from_dict(doc)
        if kind == "h":
            phi = ConjugacyMap((HStep(x.p, param),), x.p, x.p)
        elif kind == "g":
            phi = ConjugacyMap((GStep(x.p, param),), x.p, param)
        else:
            phi = diag_similarity(*param, x.p)
        image = phi.apply(x)
        result = {"map": map_to_dict(phi), "image": vector_to_dict(image)}
        if roundtrip:
            result["roundtrip_max_deviation"] = max_coord_diff(x, phi.inverse().apply(image))
    except (ValueError, OverflowError) as e:
        return 1, "", f"error: {e}\n"
    payload = {"command": "apply-map", "config": {"in": "vec.json", "roundtrip": roundtrip}, "result": result, "seed": 0, "version": __version__}
    return 0, json.dumps(payload, sort_keys=True, indent=2) + "\n", ""


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_FILE, _MAP, st.booleans())
def test_apply_map_matches_the_one_vector_oracle(doc, chosen, roundtrip):
    kind, param = chosen
    if kind == "diag":
        r, a, b, ratio = param
        param = (cmath.rect(r, a), cmath.rect(r * ratio, b))
        flag = "--diag=" + ":".join(f"{z.real!r},{z.imag!r}" for z in param)
    else:
        flag = f"--{kind}={'s' if kind == 'h' else 'q'}={param!r}"
    argv = ["apply-map", flag, "--in", "vec.json"] + (["--roundtrip"] if roundtrip else [])
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "vec.json"), "w", encoding="utf-8") as f:
            json.dump(doc, f)
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code = main(argv)
        finally:
            os.chdir(cwd)
    assert (code, out.getvalue(), err.getvalue()) == _oracle(doc, kind, param, roundtrip)
