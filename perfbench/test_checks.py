"""The benchmark's own tests: its checkers pass real outputs and reject corrupted ones.

    python3 -m pytest -q perfbench

A checker that accepted anything could not gate the benchmark, so each
workload's check is fed the program's real output for a seeded round, which
must pass, and then copies with one deliberate fault, which must not.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from shiftlab.cli import main  # noqa: E402

SEED = 7


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    return rc, out.getvalue()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """outputs(workload)[id] = (op, exit code, parsed stdout) for one seeded round."""
    cache = {}

    def get(workload):
        if workload not in cache:
            ops = workloads.build(workload, SEED, str(tmp_path_factory.mktemp(workload)))
            cache[workload] = {}
            for op in ops:
                rc, out = _run(op["argv"])
                cache[workload][op["id"]] = (op, rc, json.loads(out))
        return cache[workload]

    return get


def _problems(workload, op, rc, doc):
    return checks.check(workload, op, rc, json.dumps(doc))[0]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_real_outputs_pass(outputs, workload):
    for op, rc, doc in outputs(workload).values():
        problems, failed = checks.check(workload, op, rc, json.dumps(doc))
        assert problems == [], (op["id"], problems)
        assert failed == (op["id"].startswith("gatefault")), op["id"]


@pytest.mark.parametrize("ident", ["conj0", "conj10", "mismatch0", "mismatch1"])
def test_certify_rejects_flipped_verdict(outputs, ident):
    op, rc, doc = outputs("certify")[ident]
    bad = copy.deepcopy(doc)
    bad["result"]["conjugate"] = not bad["result"]["conjugate"]
    assert _problems("certify", op, rc, bad)
    bad = copy.deepcopy(doc)
    bad["result"]["chi_g"] = -bad["result"]["chi_g"] or 1
    assert _problems("certify", op, rc, bad)
    assert _problems("certify", op, 0 if rc else 3, doc)


def test_certify_rejects_wrong_map(outputs):
    op, rc, doc = outputs("certify")["conj2"]
    bad = copy.deepcopy(doc)
    h = next(st for st in bad["result"]["map"]["steps"] if st["kind"] == "h")
    h["s"] *= 1 + 1e-6
    assert _problems("certify", op, rc, bad)
    bad = copy.deepcopy(doc)
    bad["result"]["map"]["steps"] = bad["result"]["map"]["steps"][:-1]
    assert _problems("certify", op, rc, bad)


def test_certify_counts_gate_fault_as_failed_only_when_map_is_right(outputs):
    op, rc, doc = outputs("certify")["gatefault0"]
    assert rc == 2 and checks.check("certify", op, rc, json.dumps(doc)) == ([], True)
    bad = copy.deepcopy(doc)
    bad["result"]["map"]["steps"][0]["s"] *= 1 + 1e-6
    problems, failed = checks.check("certify", op, rc, json.dumps(bad))
    assert problems and not failed


@pytest.mark.parametrize("ident", ["h0", "g5", "diag8"])
def test_transport_rejects_roundtrip_off_by_1e_6(outputs, ident):
    op, rc, doc = outputs("transport")[ident]
    x, _ = checks._load_vector(op["vector"])
    bad = copy.deepcopy(doc)
    bad["result"]["roundtrip_max_deviation"] = 1e-6 * float(np.abs(x).max())
    assert _problems("transport", op, rc, bad)


@pytest.mark.parametrize("ident", ["h0", "h2", "g5", "diag8"])
def test_transport_rejects_perturbed_image(outputs, ident):
    op, rc, doc = outputs("transport")[ident]
    for k in (0, 700):
        bad = copy.deepcopy(doc)
        bad["result"]["image"]["coords"][k][0] *= 1 + 1e-6
        assert _problems("transport", op, rc, bad), k


@pytest.mark.parametrize("ident", ["T1box", "T3box", "blocks", "powerlaw", "T3witness", "escape"])
def test_orbit_rejects_perturbed_norm(outputs, ident):
    op, rc, doc = outputs("orbit")[ident]
    for k in (0, 5, 100):
        bad = copy.deepcopy(doc)
        bad["result"]["norms"][k] *= 1 + 1e-6
        assert _problems("orbit", op, rc, bad), k
    bad = copy.deepcopy(doc)
    bad["result"]["norms"][-1] = 1e-300
    assert _problems("orbit", op, rc, bad)


@pytest.mark.parametrize("ident", ["T1", "T2", "T3", "blocks", "powerlaw", "constant", "explicit"])
def test_classify_rejects_wrong_label(outputs, ident):
    op, rc, doc = outputs("classify")[ident]
    for label in ("Chaotic", "MixingNotChaotic", "TransitiveNotMixing", "NotTransitive"):
        if label != doc["result"]["label"]:
            bad = copy.deepcopy(doc)
            bad["result"]["label"] = label
            assert _problems("classify", op, rc, bad), label
    for key in ("head_log_max", "tail_log_min", "tail_log_max"):
        bad = copy.deepcopy(doc)
        value = bad["result"]["evidence"][key]
        bad["result"]["evidence"][key] = value + 1e-3 * max(1.0, abs(value))
        assert _problems("classify", op, rc, bad), key
