"""Seeded inputs for the four benchmark workloads.

Each workload function returns a list of operations.  An operation is a dict with an
``id``, the ``argv`` handed to ``shiftlab.cli.main`` and whatever the
checker needs to judge the output (``checks.py``).  The seed moves values
only: weights, exponents, vector coordinates and the ``--seed`` passed to the
program.  Sizes, horizons and the mix of operations are fixed, so every seed
does the same amount of work and the same share of operations fails.
"""

from __future__ import annotations

import cmath
import json
import math
import os

import numpy as np

WORKLOADS = ("certify", "transport", "orbit", "classify")

# Unit-modulus weights whose modulus is exactly 1.0 in floating point, so the
# boundary class chi = 0 is decided without rounding doubt.  None is 1 itself,
# so a pair of them always needs both diagonal steps.
UNIT_WEIGHTS = (
    (0.6, 0.8), (0.8, -0.6), (5 / 13, 12 / 13), (-12 / 13, 5 / 13),
    (8 / 17, 15 / 17), (0.28, -0.96), (20 / 29, 21 / 29), (0.0, 1.0), (-1.0, 0.0),
)

# Conjugate pairs (lam, p, omega, q) whose absolute residual stays far below
# the CLI tolerance on every seed.  Moduli are jittered by a few per cent,
# which never moves them across 1; complex weights also get a phase jitter.
CERTIFY_CONJUGATE = (
    (2.0, 2.0, 4.0, 2.0),
    (0.5, 2.0, 0.25, 2.0),
    (1.5, 2.0, 2.0, 4.0),
    (-3.0, 2.0, complex(3, 4), 2.0),
    (2j, 1.5, complex(-1.2, 0.9), 2.0),
    (0.7, 2.0, complex(0.2, 0.3), 3.0),
    (3.0, 4.0, 1.2, 1.0),
    (0.3, 1.0, 0.8, 2.0),
    (complex(1.8, 0.5), 2.0, 3.0, 2.0),
    (complex(0.4, 0.3), 2.5, 0.2, 2.0),
    ("unit", 2.0, "unit", 2.0),
    ("unit", 2.0, "unit", 3.0),
)

# Pairs in different classes: the correct outcome is exit 3.
CERTIFY_MISMATCH = (
    (2.0, 2.0, 0.5, 2.0),
    ("unit", 2.0, 2.0, 2.0),
    (0.5, 1.0, "unit", 2.0),
    (complex(1.3, 0.4), 3.0, complex(0.6, 0.2), 1.0),
)

# Correct conjugators that the CLI rejects: it gates on the absolute residual,
# which grows with |omega|**s, instead of on the residual relative to the
# vectors' size.  Fixed inputs, so they fail on every seed and every run.
CERTIFY_GATE_FAULT = (
    (2.0, 2.0, 100.0, 2.0),
    (1.5, 2.0, 100.0, 2.0),
    (0.8, 1.0, 0.3, 2.0),
    (1.01, 2.0, 2.0, 2.0),
)

TRANSPORT_VECTORS = ((1024, 2.0), (1536, 3.0), (2048, 2.0), (1280, 1.5))
# (vector index, map flag, base parameter)
TRANSPORT_OPS = (
    (0, "h", 2.0), (2, "h", 0.5), (1, "h", 3.5), (3, "h", 1.7), (2, "h", 1.3),
    (0, "g", 4.0), (1, "g", 1.0), (2, "g", 2.5), (3, "diag", None), (2, "diag", None),
)

CLASSIFY_EXPLICIT_LENGTH = 10_000


def _complex_arg(z: complex) -> str:
    """A complex weight in descriptor form <re> or <re,im>."""
    if z.imag == 0:
        return repr(z.real)
    return f"{z.real!r},{z.imag!r}"


def _jitter(rng: np.random.Generator, w, span: float = 0.03):
    """Scale the modulus by exp(+-span); rotate complex weights slightly."""
    if w == "unit":
        re, im = UNIT_WEIGHTS[int(rng.integers(len(UNIT_WEIGHTS)))]
        return complex(re, im)
    z = complex(w)
    mod = abs(z) * math.exp(rng.uniform(-span, span))
    if z.imag == 0:
        return complex(math.copysign(mod, z.real), 0.0)
    return cmath.rect(mod, cmath.phase(z) + rng.uniform(-0.2, 0.2))


def _cli_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _certify_op(ident, lam, p, omega, q, seed):
    return {
        "id": ident,
        "argv": ["conjugate-check", f"--f={_complex_arg(lam)}:{p!r}",
                 f"--g={_complex_arg(omega)}:{q!r}", f"--seed={seed}"],
        "lam": [lam.real, lam.imag], "p": p, "omega": [omega.real, omega.imag], "q": q,
        "seed": seed,
    }


def certify(seed: int, workdir: str) -> list[dict]:
    rng = np.random.default_rng([seed, 1])
    ops = []
    for i, (lam, p, omega, q) in enumerate(CERTIFY_CONJUGATE):
        ops.append(_certify_op(f"conj{i}", _jitter(rng, lam), p, _jitter(rng, omega), q,
                               _cli_seed(rng)))
    for i, (lam, p, omega, q) in enumerate(CERTIFY_MISMATCH):
        ops.append(_certify_op(f"mismatch{i}", _jitter(rng, lam), p, _jitter(rng, omega), q,
                               _cli_seed(rng)))
    for i, (lam, p, omega, q) in enumerate(CERTIFY_GATE_FAULT):
        ops.append(_certify_op(f"gatefault{i}", complex(lam), p, complex(omega), q, 0))
    return ops


def transport(seed: int, workdir: str) -> list[dict]:
    rng = np.random.default_rng([seed, 2])
    paths = []
    for i, (n, p) in enumerate(TRANSPORT_VECTORS):
        coords = rng.uniform(-10.0, 10.0, size=(n, 2)).tolist()
        path = os.path.join(workdir, f"vector{i}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"p": p, "coords": coords}, f)
        paths.append(path)
    ops = []
    for i, (v, kind, base) in enumerate(TRANSPORT_OPS):
        if kind == "diag":
            r = math.exp(rng.uniform(-0.5, 0.5))
            lam = cmath.rect(r, rng.uniform(-math.pi, math.pi))
            omega = cmath.rect(r, rng.uniform(-math.pi, math.pi))
            flag = f"--diag={_complex_arg(lam)}:{_complex_arg(omega)}"
            param = [lam.real, lam.imag, omega.real, omega.imag]
        else:
            param = base * math.exp(rng.uniform(-0.1, 0.1))
            if kind == "g":
                param = max(1.0, param)
            flag = f"--{kind}={'s' if kind == 'h' else 'q'}={param!r}"
        ops.append({
            "id": f"{kind}{i}",
            "argv": ["apply-map", flag, f"--in={paths[v]}", "--roundtrip"],
            "kind": kind, "param": param, "vector": paths[v],
        })
    return ops


def _orbit_op(ident, op_desc, weights, p, point, n, seed):
    return {
        "id": ident,
        "argv": ["orbit", f"--op={op_desc}", f"--point={point}", f"--n={n}", f"--seed={seed}"],
        "weights": weights, "p": p, "point": point, "n": n, "seed": seed,
    }


def orbit(seed: int, workdir: str) -> list[dict]:
    rng = np.random.default_rng([seed, 3])
    a = 1.5 * math.exp(rng.uniform(-0.05, 0.05))
    b = 0.6 * math.exp(rng.uniform(-0.05, 0.05))
    a_first = bool(rng.integers(2))
    order = "a_first" if a_first else "b_first"
    c = _jitter(rng, complex(1.0, 0.3))
    alpha = 0.7 * math.exp(rng.uniform(-0.1, 0.1))
    lam = _jitter(rng, 1.5)
    return [
        _orbit_op("T1box", "example:T1", ["powerlaw", 0.5], 2.0, "box:500", 500, _cli_seed(rng)),
        _orbit_op("T2box", "example:T2", ["blocks", 2.0, 0.5, True], 2.0, "box:400", 400, _cli_seed(rng)),
        _orbit_op("T3box", "example:T3", ["blocks", 0.5, 2.0, True], 2.0, "box:600", 600, _cli_seed(rng)),
        _orbit_op("blocks", f"blocks:{a!r}:{b!r}:{order}:3", ["blocks", a, b, a_first], 3.0,
                  "box:500", 500, _cli_seed(rng)),
        _orbit_op("constant", f"constant:{_complex_arg(c)}", ["constant", [c.real, c.imag]], 2.0,
                  "box:450", 450, _cli_seed(rng)),
        _orbit_op("powerlaw", f"powerlaw:{alpha!r}:1.5", ["powerlaw", alpha], 1.5,
                  "box:500", 500, _cli_seed(rng)),
        _orbit_op("T3witness", "example:T3", ["blocks", 0.5, 2.0, True], 2.0, "example3:20", 419,
                  _cli_seed(rng)),
        _orbit_op("escape", f"constant:{_complex_arg(lam)}", ["constant", [lam.real, lam.imag]], 2.0,
                  "escape", 150, _cli_seed(rng)),
    ]


def _classify_op(ident, desc, weights, p, horizon):
    return {
        "id": ident,
        "argv": ["classify", f"--weights={desc}", f"--horizon={horizon}"],
        "weights": weights, "p": p, "horizon": horizon,
    }


def classify(seed: int, workdir: str) -> list[dict]:
    rng = np.random.default_rng([seed, 4])
    # blocks with |a*b| kept well away from 1 on either side
    a = 1.4 * math.exp(rng.uniform(-0.1, 0.1))
    b = (0.85 if rng.integers(2) else 0.55) * math.exp(rng.uniform(-0.05, 0.05))
    alpha = float(rng.choice([0.2, 0.4, 0.6])) * math.exp(rng.uniform(-0.05, 0.05))
    c = _jitter(rng, complex(0.9, 0.2) if rng.integers(2) else complex(1.1, 0.2))
    explicit = [f"{w:.4f}" for w in rng.uniform(0.97, 1.06, CLASSIFY_EXPLICIT_LENGTH)]
    config = os.path.join(workdir, "explicit.json")
    with open(config, "w", encoding="utf-8") as f:
        json.dump({"command": "classify", "weights": "explicit:" + ",".join(explicit),
                   "horizon": CLASSIFY_EXPLICIT_LENGTH}, f)
    ops = [
        _classify_op("T1", "example:T1", ["powerlaw", 0.5], 2.0, 1_000_000),
        _classify_op("T2", "example:T2", ["blocks", 2.0, 0.5, True], 2.0, 2_000_000),
        _classify_op("T3", "example:T3", ["blocks", 0.5, 2.0, True], 2.0, 1_000_000),
        _classify_op("blocks", f"blocks:{a!r}:{b!r}:b_first", ["blocks", a, b, False], 2.0, 3_000_000),
        _classify_op("powerlaw", f"powerlaw:{alpha!r}:3", ["powerlaw", alpha], 3.0, 3_000_000),
        _classify_op("constant", f"constant:{_complex_arg(c)}", ["constant", [c.real, c.imag]], 2.0,
                     2_000_000),
    ]
    ops.append({
        "id": "explicit",
        "argv": ["--config", config],
        "weights": ["explicit", explicit], "p": 2.0, "horizon": CLASSIFY_EXPLICIT_LENGTH,
    })
    return ops


GENERATORS = {"certify": certify, "transport": transport, "orbit": orbit, "classify": classify}


def build(workload: str, seed: int, workdir: str) -> list[dict]:
    """The operations of one round of ``workload`` for ``seed``."""
    return GENERATORS[workload](seed, workdir)
