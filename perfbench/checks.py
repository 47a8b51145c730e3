"""Correctness checks made apart from the program.

Every check recomputes what an output claims from the operation's inputs,
with this file's own arithmetic (numpy, ``decimal``), or tests a property
the method must have.  Nothing is compared with a stored copy of an earlier
output.  ``check(workload, op, rc, stdout)`` returns the problems found and
whether the operation failed: only a ``conjugate-check`` that rejects a
conjugator this file verifies as correct counts as failed.
"""

from __future__ import annotations

import cmath
import json
import math
from decimal import Decimal, localcontext

import numpy as np

CLI_TOLERANCE = 1e-9  # conjugate-check's default --tol
RELATIVE_RESIDUAL_BOUND = 1e-12
CHECK_SAMPLES = 12
LOG_ESCAPE = math.log(10.0)
CHAOS_FLAT_TOL = 1e-6


def _chi(t: float) -> int:
    return (t > 1.0) - (t < 1.0)


def _vec(coords) -> np.ndarray:
    a = np.asarray(coords, dtype=np.float64).reshape(-1, 2)
    return a[:, 0] + 1j * a[:, 1]


def _norm(v: np.ndarray, p: float) -> float:
    """||v||_p with the largest modulus factored out, so nothing overflows."""
    m = np.abs(v)
    top = float(m.max()) if m.size else 0.0
    if top == 0.0:
        return 0.0
    return top * float(np.sum((m / top) ** p)) ** (1.0 / p)


def _phase(v: np.ndarray) -> np.ndarray:
    m = np.abs(v)
    return np.where(m > 0, v / np.where(m > 0, m, 1.0), 0)


# ---------------------------------------------------------------------------
# the conjugator's steps, in this file's own arithmetic


def _h(x: np.ndarray, p: float, s: float) -> np.ndarray:
    """Tail rescaling in the log domain: |y_n|^p = t_n^s - t_{n+1}^s."""
    a = np.abs(x) ** p
    tails = np.array([math.fsum(a[i:]) for i in range(len(a))])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.log1p(-a / tails)  # log(t_{n+1} / t_n), exact increment a_n
        log_mod = (s * np.log(tails) + np.log(-np.expm1(s * ratio))) / p
    return np.where(a > 0, _phase(x) * np.exp(np.where(a > 0, log_mod, 0.0)), 0)


def _g(x: np.ndarray, p: float, q: float) -> np.ndarray:
    return _phase(x) * np.abs(x) ** (p / q)


def _diag(x: np.ndarray, ratio: complex) -> np.ndarray:
    k = np.arange(len(x))
    return x * np.abs(ratio) ** k * np.exp(1j * cmath.phase(ratio) * k)


def _apply_map(steps: list, x: np.ndarray) -> np.ndarray:
    for st in steps:
        if st["kind"] == "h":
            x = _h(x, st["p"], st["s"])
        elif st["kind"] == "g":
            x = _g(x, st["p"], st["q"])
        elif st["kind"] == "diag":
            x = _diag(x, complex(*st["ratio"]))
        else:
            raise ValueError(f"unknown step kind {st['kind']!r}")
    return x


def relative_residual(steps, lam: complex, omega: complex, q: float, seed: int) -> float:
    """max over sample vectors of ||phi(lam S x) - omega S phi(x)||_q / ||omega S phi(x)||_q."""
    rng = np.random.default_rng([seed, 99])
    worst = 0.0
    for _ in range(CHECK_SAMPLES):
        n = int(rng.integers(2, 65))
        x = rng.uniform(-10, 10, n) + 1j * rng.uniform(-10, 10, n)
        lhs = _apply_map(steps, lam * x[1:])
        rhs = omega * _apply_map(steps, x)[1:]
        worst = max(worst, _norm(lhs - rhs, q) / _norm(rhs, q))
    return worst


# ---------------------------------------------------------------------------
# workloads


def check_certify(op, rc, doc):
    problems, failed = [], False
    lam, omega, p, q = complex(*op["lam"]), complex(*op["omega"]), op["p"], op["q"]
    chi_f, chi_g = _chi(math.hypot(lam.real, lam.imag)), _chi(math.hypot(omega.real, omega.imag))
    res = doc["result"]
    if res["conjugate"] != (chi_f == chi_g):
        return [f"verdict conjugate={res['conjugate']} but chi {chi_f} vs {chi_g}"], False
    if [res["chi_f"], res["chi_g"]] != [chi_f, chi_g]:
        problems.append(f"chi reported {res['chi_f']},{res['chi_g']}, expected {chi_f},{chi_g}")
    if chi_f != chi_g:
        if rc != 3:
            problems.append(f"class mismatch must exit 3, got {rc}")
        return problems, False
    m = res["map"]
    if (m["domain_p"], m["codomain_p"]) != (p, q):
        problems.append(f"map goes l^{m['domain_p']} -> l^{m['codomain_p']}, expected l^{p} -> l^{q}")
    for st in m["steps"]:
        if st["kind"] == "h":
            s = (q / p) * math.log(abs(omega)) / math.log(abs(lam))
            if abs(st["s"] - s) > 1e-12 * abs(s):
                problems.append(f"h step exponent {st['s']} != (q/p) log|omega|/log|lam| = {s}")
    rel = relative_residual(m["steps"], lam, omega, q, op["seed"])
    if not rel <= RELATIVE_RESIDUAL_BOUND:
        problems.append(f"relative intertwining residual {rel:.3g} > {RELATIVE_RESIDUAL_BOUND}")
    r = res["residual"]["max_residual"]
    if res["passed"] != (r <= CLI_TOLERANCE) or rc != (0 if res["passed"] else 2):
        problems.append(f"passed={res['passed']} and exit {rc} disagree with max_residual {r}")
    failed = rc == 2 and not problems
    return problems, failed


def _decimal_powers(v: np.ndarray, p: float) -> list:
    """|v_n|^p for every coordinate, in 40-digit decimal arithmetic."""
    half = Decimal(p) / 2
    out = []
    for z in v:
        sq = Decimal(z.real) ** 2 + Decimal(z.imag) ** 2
        out.append(sq**half if sq else Decimal(0))
    return out


def _decimal_tails(powers: list) -> list:
    tails, acc = [Decimal(0)] * (len(powers) + 1), Decimal(0)
    for i in range(len(powers) - 1, -1, -1):
        acc += powers[i]
        tails[i] = acc
    return tails


def _load_vector(path):
    with open(path, encoding="utf-8") as f:
        d = json.load(f)
    return _vec(d["coords"]), float(d["p"])


def check_transport(op, rc, doc):
    problems = []
    x, p = _load_vector(op["vector"])
    res = doc["result"]
    y, py = _vec(res["image"]["coords"]), res["image"]["p"]
    scale = float(np.abs(x).max())
    dev = res["roundtrip_max_deviation"]
    if rc != 0:
        problems.append(f"exit {rc}")
    if not dev <= 1e-9 * scale:
        problems.append(f"round trip deviation {dev:.3g} exceeds 1e-9 * max|x| = {1e-9 * scale:.3g}")
    if len(y) != len(x):
        return problems + [f"image has {len(y)} coordinates, input {len(x)}"], False
    kind = op["kind"]
    if kind in ("h", "g"):
        bad = np.abs(_phase(y) - _phase(x)) > 1e-12
        if bad.any():
            problems.append(f"phase changed at coordinate {int(np.argmax(bad)) + 1}")
    if kind == "h":
        s = op["param"]
        if py != p:
            problems.append(f"h image is in l^{py}, not l^{p}")
        with localcontext() as ctx:
            ctx.prec = 40
            tx, ty = _decimal_tails(_decimal_powers(x, p)), _decimal_tails(_decimal_powers(y, p))
            ds = Decimal(s)
            for k in sorted({0, 1, len(x) - 1, *range(0, len(x), max(1, len(x) // 24))}):
                want = tx[k] ** ds
                if abs(ty[k] - want) > Decimal("1e-11") * want:
                    problems.append(f"tail sum {k + 1}: {float(ty[k])!r} != t^s = {float(want)!r}")
                    break
    elif kind == "g":
        q = op["param"]
        if py != q:
            problems.append(f"g image is in l^{py}, not l^{q}")
        mx, my = np.abs(x) ** p, np.abs(y) ** q
        if (np.abs(my - mx) > 1e-12 * mx).any():
            problems.append("|g(x)_n|^q != |x_n|^p")
        with localcontext() as ctx:
            ctx.prec = 40
            sx, sy = sum(_decimal_powers(x, p)), sum(_decimal_powers(y, q))
            if abs(sy - sx) > Decimal("1e-12") * sx:
                problems.append(f"||g(x)||_q^q = {float(sy)!r} != ||x||_p^p = {float(sx)!r}")
    else:
        lr, li, orr, oi = op["param"]
        want = _diag(x, complex(lr, li) / complex(orr, oi))
        if py != p or (np.abs(y - want) > 1e-10 * np.abs(x)).any():
            problems.append("diagonal image differs from (lam/omega)^(n-1) x_n")
    return problems, False


def _weight_array(spec, n: int) -> np.ndarray:
    """Weights w_1..w_n built from the family's definition."""
    kind = spec[0]
    if kind == "constant":
        return np.full(n, complex(*spec[1]))
    if kind == "powerlaw":
        k = np.arange(2, n + 1, dtype=np.float64)
        return np.concatenate(([1.0], (k / (k - 1)) ** spec[1])).astype(np.complex128)
    if kind == "blocks":
        a, b, a_first = spec[1], spec[2], spec[3]
        first, second = (a, b) if a_first else (b, a)
        pairs = math.isqrt(n) + 2  # pair k ends at k(k+1) >= n
        k = np.arange(1, pairs + 1)
        values = np.repeat(np.tile([first, second], pairs), np.repeat(k, 2))
        return values[:n].astype(np.complex128)
    if kind == "explicit":
        return np.array([complex(w) for w in spec[1][:n]])
    raise ValueError(f"unknown weight family {kind!r}")


def _orbit_point(op) -> np.ndarray:
    point = op["point"]
    if point.startswith("box:"):
        # box:L is the program's seeded sample (seqspace.random_vectors):
        # support drawn first, then uniform real/imaginary parts on [-10, 10]
        rng = np.random.default_rng(op["seed"])
        length = int(point[4:])
        n = int(rng.integers(length, length + 1))
        parts = rng.uniform(-10.0, 10.0, size=(n, 2))
        return parts[:, 0] + 1j * parts[:, 1]
    if point.startswith("example3:"):
        k = int(point[9:])
        x = np.zeros(k * (k + 1), dtype=np.complex128)
        j = np.arange(1, k + 1)
        x[j * (j + 1) - 1] = 2.0 ** (1 - j)
        return x
    raise ValueError(f"unknown point {point!r}")


def check_orbit(op, rc, doc):
    problems = []
    norms = doc["result"]["norms"]
    n, p = op["n"], op["p"]
    if rc != 0:
        problems.append(f"exit {rc}")
    if any(not isinstance(v, float) and not isinstance(v, int) for v in norms):
        return problems + ["non-finite norm"], False
    norms = np.array(norms, dtype=np.float64)
    if op["point"] == "escape":
        lam = abs(complex(*op["weights"][1]))
        want = lam ** np.arange(n)
        if len(norms) != n or (np.abs(norms - want) > 1e-11 * want).any():
            problems.append("escape norms differ from |lam|^k")
        return problems, False
    x = _orbit_point(op)
    w = _weight_array(op["weights"], len(x))
    want = [_norm(x, p)]
    y = x
    for _ in range(n):
        y = w[: len(y) - 1] * y[1:]
        want.append(_norm(y, p))
    want = np.array(want)
    if len(norms) != n + 1:
        return problems + [f"{len(norms)} norms for n = {n}"], False
    bad = np.abs(norms - want) > 1e-10 * want
    if bad.any():
        k = int(np.argmax(bad))
        problems.append(f"norm {k}: {norms[k]!r}, independent value {want[k]!r}")
    if (norms[len(x):] != 0.0).any():
        problems.append("norm past the support is not exactly 0")
    if doc["result"]["valid_horizon"] != min(n, len(x)):
        problems.append(f"valid_horizon {doc['result']['valid_horizon']} != {min(n, len(x))}")
    if op["point"].startswith("example3:"):
        k = int(op["point"][9:])
        if (norms[: k - 1] < 1.0).any():
            problems.append(f"T3 witness norm drops below 1 before step {k - 1}")
    return problems, False


def _family_label(spec, p: float) -> str:
    """The class from the paper's criteria on beta(n) = w_1 ... w_n.

    chaotic iff sum |beta(n)|^-p < inf; mixing iff |beta(n)| -> inf;
    transitive iff sup |beta(n)| = inf.
    """
    kind = spec[0]
    if kind == "constant":  # |beta(n)| = |c|^n
        return "Chaotic" if abs(complex(*spec[1])) > 1 else "NotTransitive"
    if kind == "powerlaw":  # |beta(n)| = n^alpha
        alpha = spec[1]
        if alpha * p > 1:
            return "Chaotic"
        return "MixingNotChaotic" if alpha > 0 else "NotTransitive"
    if kind == "blocks":
        # |beta| at the end of pair k is m^(k(k+1)/2); inside pair k it peaks
        # at that of pair k-1 times |first|^k
        a, b, a_first = spec[1], spec[2], spec[3]
        m, first = abs(a * b), abs(a if a_first else b)
        if m > 1:
            return "Chaotic"
        if m < 1 or first <= 1:
            return "NotTransitive"
        return "TransitiveNotMixing"
    raise ValueError(f"no closed form for {kind!r}")


def _evidence(profile: np.ndarray, p: float) -> dict:
    h = len(profile)
    window = math.isqrt(h)
    with np.errstate(over="ignore", under="ignore"):
        terms = np.exp(-p * profile)
        partial, increment = float(terms.sum()), float(terms[h // 10:].sum())
    return {
        "window": window,
        "partial_sum": partial,
        "last_decade_increment": increment,
        "head_log_max": float(profile[:window].max()),
        "tail_log_min": float(profile[h - window:].min()),
        "tail_log_max": float(profile[h - window:].max()),
    }


def _evidence_label(ev: dict) -> tuple[str, str]:
    chaotic = math.isfinite(ev["partial_sum"]) and ev["last_decade_increment"] < CHAOS_FLAT_TOL
    mixing = ev["tail_log_min"] >= LOG_ESCAPE and ev["tail_log_min"] > ev["head_log_max"]
    transitive = ev["tail_log_max"] >= LOG_ESCAPE and ev["tail_log_max"] > ev["head_log_max"]
    if mixing:
        return ("Chaotic" if chaotic else "MixingNotChaotic"), "NumericEvidence"
    if transitive:
        return "TransitiveNotMixing", "NumericEvidence"
    if ev["tail_log_max"] <= max(ev["head_log_max"], 0.0):
        return "NotTransitive", "NumericEvidence"
    return "NotTransitive", "Inconclusive"


def _close(got, want: float, rel: float, absolute: float) -> bool:
    if isinstance(got, str):
        return float(got) == want
    return abs(got - want) <= absolute + rel * abs(want)


def check_classify(op, rc, doc):
    problems = []
    res = doc["result"]
    spec, p, horizon = op["weights"], op["p"], op["horizon"]
    profile = np.cumsum(np.log(np.abs(_weight_array(spec, horizon))))
    ev = _evidence(profile, p)
    if spec[0] == "explicit":
        label, confidence = _evidence_label(ev)
        echoed = doc["config"]["weights"]["weights"]
        if [complex(*w) for w in echoed] != [complex(w) for w in spec[1]]:
            problems.append("explicit weights echoed in the config differ from the input")
    else:
        label, confidence = _family_label(spec, p), "Analytic"
    if (res["label"], res["confidence"]) != (label, confidence):
        problems.append(f"label {res['label']}/{res['confidence']}, expected {label}/{confidence}")
    if rc != (2 if confidence == "Inconclusive" else 0):
        problems.append(f"exit {rc}")
    got = res["evidence"]
    if got["window"] != ev["window"] or got["horizon"] != horizon:
        problems.append("evidence window or horizon differs")
    for key in ("head_log_max", "tail_log_min", "tail_log_max"):
        if not _close(got[key], ev[key], 1e-9, 1e-6):
            problems.append(f"{key} {got[key]!r}, recomputed {ev[key]!r}")
    for key in ("partial_sum", "last_decade_increment"):
        if not _close(got[key], ev[key], 1e-6, 1e-300):
            problems.append(f"{key} {got[key]!r}, recomputed {ev[key]!r}")
    return problems, False


CHECKS = {
    "certify": check_certify,
    "transport": check_transport,
    "orbit": check_orbit,
    "classify": check_classify,
}


def check(workload: str, op: dict, rc: int, stdout: str) -> tuple[list[str], bool]:
    """Problems with one operation's output, and whether it counts as failed."""
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return [f"exit {rc} with no JSON on stdout"], False
    try:
        return CHECKS[workload](op, rc, doc)
    except (KeyError, TypeError, ValueError, IndexError) as e:
        return [f"malformed output: {type(e).__name__}: {e}"], False
