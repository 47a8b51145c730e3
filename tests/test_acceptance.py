"""Acceptance gate: the eleven headline checks, one PASS/FAIL line each.

Run ``pytest -v -s tests/test_acceptance.py`` to see the lines.  Criterion 8
is split: its classification half passes; its orbit-window half is
implemented exactly as stated and marked as a known failure (strict xfail),
because a start point with K = 20 nonzero entries can only prop up the
orbit norm for K - 1 = 19 steps, not 419.  Step n is witnessed by the
entry at position (n+1)(n+2), which the truncated point lacks for n >= K;
the companion check asserts the bound over the window where it provably
holds and the decay beyond it.
"""

import itertools
import math
import time

import pytest

from shiftlab import (
    Constant,
    FinSeqVector,
    ShiftOperator,
    beta_profile,
    build_conjugator,
    classify,
    conjugacy_class_decision,
    conjugacy_residual,
    diag_similarity,
    escape_demo,
    example3_point,
    g_map,
    h_map,
    lp_norm,
    make_example,
    max_coord_diff,
    orbit_norms,
    random_vectors,
    subtract,
    tail_power_sums,
)

SEED = 0
SAMPLES = 100


def _line(num: str, ok: bool, text: str) -> None:
    print(f"criterion {num} [{'PASS' if ok else 'FAIL'}] {text}")


def _residual(lam, p, om, q, samples=SAMPLES, seed=SEED):
    phi = build_conjugator(lam, p, om, q)
    rep = conjugacy_residual(
        ShiftOperator(Constant(lam), p), ShiftOperator(Constant(om), q), phi, samples=samples, seed=seed
    )
    return rep.max_residual


def test_criterion_01_title_conjugacies():
    t0 = time.perf_counter()
    r_up = _residual(2, 2.0, 4, 2.0)
    r_down = _residual(0.5, 2.0, 0.25, 2.0)
    elapsed = time.perf_counter() - t0
    ok = r_up <= 1e-9 and r_down <= 1e-9 and elapsed < 1.0
    _line(
        "01",
        ok,
        f"2B2~4B2 and 0.5B2~0.25B2 residuals {r_up:.2e}, {r_down:.2e} <= 1e-9 in {elapsed:.2f}s",
    )
    assert ok


def test_criterion_02_cross_exponent_conjugacies():
    r1 = _residual(2, 1.0, 4, 3.0)
    lam = 2.0 ** (4.0 / 2.0)  # omega^(q/p) with omega=2, p=2, q=4
    r2 = _residual(lam, 2.0, 2, 4.0)
    ok = r1 <= 1e-9 and r2 <= 1e-9
    _line("02", ok, f"(2,p=1)~(4,q=3) and (2^2,p=2)~(2,q=4) residuals {r1:.2e}, {r2:.2e} <= 1e-9")
    assert ok


def test_criterion_03_norm_transport_identity():
    worst = 0.0
    for p in (1.0, 2.0, 3.0):
        for x in random_vectors(1000, p, seed=SEED):
            tx = tail_power_sums(x)
            for s in (0.5, 2.0, 3.7):
                ty = tail_power_sums(h_map(x, s))
                for a, t in zip(ty, tx):
                    b = t**s
                    if b > 0.0:
                        worst = max(worst, abs(a - b) / b)
    ok = worst <= 1e-10
    _line("03", ok, f"tail sums transport as t -> t^s: worst rel err {worst:.2e} <= 1e-10")
    assert ok


def test_criterion_04_inverse_roundtrips():
    worst_h = worst_g = 0.0
    for p in (1.0, 2.0, 3.0):
        for x in random_vectors(1000, p, seed=SEED):
            nx = lp_norm(x)
            if nx == 0.0:
                continue
            for s in (0.5, 2.0, 3.7):
                back = h_map(h_map(x, 1.0 / s), s)
                worst_h = max(worst_h, lp_norm(subtract(back, x)) / nx)
            for q in (1.0, 2.0, 4.0):
                back = g_map(g_map(x, q), p)
                worst_g = max(worst_g, lp_norm(subtract(back, x)) / nx)
    ok = worst_h <= 1e-9 and worst_g <= 1e-9
    _line("04", ok, f"h and g inverse roundtrips: worst rel err {worst_h:.2e}, {worst_g:.2e} <= 1e-9")
    assert ok


def test_criterion_05_homogeneity():
    worst_h = worst_g = 0.0
    p, q = 2.0, 4.0
    for lam in (0.1, 3.0, 10.0):
        for x in random_vectors(1000, p, seed=SEED):
            if not x.coords:
                continue
            for s in (0.5, 2.0, 3.7):
                lhs = h_map(FinSeqVector(p, tuple(lam * c for c in x.coords)), s)
                rhs = FinSeqVector(p, tuple(lam**s * c for c in h_map(x, s).coords))
                ref = max(abs(c) for c in rhs.coords)
                if ref > 0.0:
                    worst_h = max(worst_h, max_coord_diff(lhs, rhs) / ref)
            lhs = g_map(FinSeqVector(p, tuple(lam * c for c in x.coords)), q)
            rhs = FinSeqVector(q, tuple(lam ** (p / q) * c for c in g_map(x, q).coords))
            ref = max(abs(c) for c in rhs.coords)
            if ref > 0.0:
                worst_g = max(worst_g, max_coord_diff(lhs, rhs) / ref)
    ok = worst_h <= 1e-10 and worst_g <= 1e-10
    _line("05", ok, f"h(ax)=a^s h(x), g(ax)=a^(p/q) g(x): worst rel err {worst_h:.2e}, {worst_g:.2e}")
    assert ok


def test_criterion_06_example1_profile_and_class():
    t1 = make_example("T1")
    prof = beta_profile(t1.weights, 10_000)
    worst = max(
        abs(prof[n - 1] - 0.5 * math.log(n)) / (0.5 * math.log(n)) for n in range(2, 10_001)
    )
    v = classify(t1.weights, t1.p)
    ok = prof[0] == 0.0 and worst <= 1e-10 and v.label == "MixingNotChaotic" and v.confidence == "Analytic"
    _line("06", ok, f"T1 profile = 0.5 ln n (worst rel {worst:.2e}); verdict {v.label.value}/{v.confidence.value}")
    assert ok


def test_criterion_07_example2_class_and_boundaries():
    t2 = make_example("T2")
    v = classify(t2.weights, t2.p)
    worst = max(abs(t2.weights.log_abs_profile(k * (k + 1) - 1, k * (k + 1))[0]) for k in range(1, 1001))
    ok = v.label == "TransitiveNotMixing" and worst <= 1e-10
    _line("07", ok, f"T2 verdict {v.label.value}; pair-boundary |log beta| <= {worst:.2e} for k <= 1000")
    assert ok


def test_criterion_08a_example3_classification():
    t3 = make_example("T3")
    v = classify(t3.weights, t3.p)
    ok = v.label == "NotTransitive" and v.confidence == "Analytic"
    _line("08a", ok, f"T3 verdict {v.label.value}/{v.confidence.value}")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="a 20-entry start point props the orbit norm up only through step 19: "
    "step n needs the entry at position (n+1)(n+2), so the stated 419-step window "
    "cannot hold for example3_point(20); see the supported-window check below",
)
def test_criterion_08b_orbit_window_as_stated():
    t3 = make_example("T3")
    trace = orbit_norms(t3, example3_point(20), 419)
    low = min(trace.norms)
    _line("08b", low >= 1.0 - 1e-12, f"min ||T3^n x|| over n = 0..419 is {low:.3e} (known shortfall)")
    assert low >= 1.0 - 1e-12


def test_criterion_08c_orbit_window_supported():
    # the provable window for K entries is n = 1..K-1; beyond it the norm
    # decays to exactly 2^-K at the end of the support
    t3 = make_example("T3")
    trace = orbit_norms(t3, example3_point(20), 419)
    low_valid = min(trace.norms[: 19 + 1])
    beyond = trace.norms[20]
    end = trace.norms[-1]
    ok = low_valid >= 1.0 - 1e-12 and beyond < 1.0 and abs(end - 2.0**-20) <= 1e-12 * 2.0**-20
    _line(
        "08c",
        ok,
        f"min ||T3^n x|| over n <= 19 is {low_valid:.6f} >= 1; " f"norm at 20 is {beyond:.3f}, at 419 is 2^-20",
    )
    assert ok


def test_criterion_09_decision_grid_exhaustive():
    # independent oracle: the side of 1 each modulus sits on, by hand
    side = {0.25: -1, 0.5: -1, 1.0: 0, 2.0: 1, 4.0: 1}
    bad = []
    for ml, mo in itertools.product(side, repeat=2):
        for p, q in itertools.product((1.0, 2.0, 4.0), repeat=2):
            expect = side[ml] == side[mo]
            if conjugacy_class_decision(ml, p, mo, q) != expect:
                bad.append((ml, p, mo, q))
    ok = not bad
    _line("09", ok, f"decision grid 25 moduli pairs x 9 exponent pairs: {225 - len(bad)}/225 agree")
    assert ok


def test_criterion_10_diagonal_similarity():
    pairs = [(2, -2), (1j, 1), (3 * complex(math.cos(math.pi / 7), math.sin(math.pi / 7)), 3)]
    worst = 0.0
    for lam, om in pairs:
        phi = diag_similarity(lam, om)
        rep = conjugacy_residual(
            ShiftOperator(Constant(lam), 2.0), ShiftOperator(Constant(om), 2.0), phi, samples=SAMPLES, seed=SEED
        )
        worst = max(worst, rep.max_residual)
    raised = False
    try:
        diag_similarity(2, 3)
    except ValueError:
        raised = True
    ok = worst <= 1e-12 and raised
    _line("10", ok, f"diagonal similarity residuals <= {worst:.2e}; unequal moduli rejected: {raised}")
    assert ok


def test_criterion_11_escape_demo():
    worst = 0.0
    for lam in (0.5, 1.0, 2.0):
        trace = escape_demo(lam, 2.0, 50)
        for n, v in enumerate(trace.norms):
            expect = abs(lam) ** n
            worst = max(worst, abs(v - expect) / expect)
    ok = worst <= 1e-12
    _line("11", ok, f"escape traces equal |lam|^(n-1) for lam in (0.5, 1, 2): worst rel {worst:.2e}")
    assert ok
