"""Classification, example operators, beta profiles, and orbit traces."""

import cmath
import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from shiftlab import (
    BalancedBlocks,
    Constant,
    Explicit,
    FinSeqVector,
    PowerLawBeta,
    RangeError,
    ShiftOperator,
    apply_shift,
    beta_profile,
    classify,
    escape_demo,
    example3_point,
    lp_norm,
    make_example,
    orbit_norms,
)
from shiftlab import dynamics
from shiftlab.dynamics import (
    Confidence,
    DynamicsLabel,
    HorizonEvidence,
    bounded_evidence,
    chaotic_evidence,
    horizon_evidence,
    mixing_evidence,
    transitive_evidence,
)

# ---------------------------------------------------------------------------
# classification: analytic paths


@pytest.mark.parametrize(
    "value,label",
    [
        (2.0, "Chaotic"),
        (-3.0, "Chaotic"),
        (2j, "Chaotic"),
        (1.0, "NotTransitive"),
        (-1.0, "NotTransitive"),
        (1j, "NotTransitive"),
        (0.5, "NotTransitive"),
    ],
)
def test_classify_constant(value, label):
    v = classify(Constant(value), 2.0)
    assert v.label == label
    assert v.confidence == Confidence.ANALYTIC


@pytest.mark.parametrize(
    "alpha,p,label",
    [
        (2.0, 2.0, "Chaotic"),  # alpha p = 4 > 1
        (0.75, 2.0, "Chaotic"),  # alpha p = 1.5 > 1
        (0.5, 2.0, "MixingNotChaotic"),  # alpha p = 1: sum 1/n diverges
        (0.5, 1.0, "MixingNotChaotic"),
        (0.25, 2.0, "MixingNotChaotic"),
        (0.5, 4.0, "Chaotic"),  # same weights, bigger p tips the sum
        (0.0, 2.0, "NotTransitive"),
        (-1.0, 2.0, "NotTransitive"),
    ],
)
def test_classify_powerlaw(alpha, p, label):
    v = classify(PowerLawBeta(alpha), p)
    assert v.label == label
    assert v.confidence == Confidence.ANALYTIC


@pytest.mark.parametrize(
    "a,b,a_first,label",
    [
        (2.0, 0.5, True, "TransitiveNotMixing"),  # balanced, amplifying first
        (0.5, 2.0, False, "TransitiveNotMixing"),  # same operator, swapped roles
        (0.5, 2.0, True, "NotTransitive"),  # balanced, attenuating first
        (2.0, 0.5, False, "NotTransitive"),
        (1.0, 1.0, True, "NotTransitive"),  # balanced with no excursions at all
        (3.0, 0.5, True, "Chaotic"),  # |ab| > 1
        (0.5, 3.0, True, "Chaotic"),
        (4.0, 0.5, False, "Chaotic"),
        (1.5, 0.5, True, "NotTransitive"),  # |ab| < 1
        (0.25, 2.0, True, "NotTransitive"),
        (1e200, 1e200, True, "Chaotic"),  # |ab| overflows
        (1e-200, 1e-200, True, "NotTransitive"),  # |ab| underflows
        (2.0**600, 2.0**-600, True, "TransitiveNotMixing"),  # an exact ridge
        (2.0**-600, 2.0**600, True, "NotTransitive"),
        (math.nextafter(1, 2), 1.0, True, "Chaotic"),  # |ab| one ulp off 1
        (math.nextafter(1, 0), 1.0, True, "NotTransitive"),
    ],
)
def test_classify_blocks(a, b, a_first, label):
    v = classify(BalancedBlocks(a, b, a_first), 2.0)
    assert v.label == label
    assert v.confidence == Confidence.ANALYTIC


# moduli over the whole float range, subnormals included, and near 1
_block_moduli = st.floats(5e-324, 1e300) | st.floats(0.5, 2.0) | st.sampled_from([1.0, 2.0**600, 2.0**-600])


@given(_block_moduli, _block_moduli, st.booleans(), st.booleans(), st.floats(-math.pi, math.pi))
@example(1e200, 1e200, False, True, 0.0)
@example(1e-200, 1e-200, False, False, 0.0)
@example(3.0, 0.0, True, True, 0.0)
@example(2.0**-600, 0.0, True, True, 1.0)
@settings(max_examples=500, deadline=None)
def test_blocks_label_is_the_rule_of_the_float_product(ma, mb, ridge, a_first, phase):
    # the label is decided from the logs of |first| and |first * second|; it
    # must be the rule of the float product |a| * |b| against 1, then |first|
    b = 1.0 / ma if ridge else mb
    assume(b < math.inf)
    w = BalancedBlocks(cmath.rect(ma, phase), b, a_first)
    m = abs(w.a) * abs(w.b)
    expected = "Chaotic" if m > 1.0 else "NotTransitive" if m < 1.0 or abs(w.first) <= 1.0 else "TransitiveNotMixing"
    assert w.analytic_label(2.0) == expected


def test_classify_validates_inputs():
    with pytest.raises(ValueError):
        classify(Constant(2), 0.5)
    with pytest.raises(ValueError):
        classify(Constant(2), 2.0, horizon=99)
    v = classify(PowerLawBeta(2000.0), 2.0)  # w_2 = 2**2000 is beyond float range, yet the label is analytic
    assert (v.label, v.confidence) == (DynamicsLabel.CHAOTIC, Confidence.ANALYTIC)


# ---------------------------------------------------------------------------
# classification: numeric path for explicit lists


def test_classify_explicit_growing_geometric():
    v = classify(Explicit((2.0,) * 200), 2.0)
    assert v.label == "Chaotic"
    assert v.confidence == Confidence.NUMERIC_EVIDENCE
    assert v.horizon == 200


def test_classify_explicit_bounded():
    v = classify(Explicit((1.0,) * 150), 2.0)
    assert v.label == "NotTransitive"
    assert v.confidence == Confidence.NUMERIC_EVIDENCE


def test_classify_explicit_decaying():
    v = classify(Explicit((0.5,) * 150), 2.0)
    assert v.label == "NotTransitive"
    assert v.confidence == Confidence.NUMERIC_EVIDENCE


def test_classify_explicit_mixing_profile():
    # weights sqrt(n/(n-1)) listed explicitly: same growth as the T1 family,
    # but the finite list can only ever earn NumericEvidence
    ws = tuple(math.sqrt(n / (n - 1)) if n > 1 else 1.0 for n in range(1, 2001))
    v = classify(Explicit(ws), 2.0)
    assert v.label == "MixingNotChaotic"
    assert v.confidence == Confidence.NUMERIC_EVIDENCE


def test_classify_explicit_transitive_not_mixing_profile():
    # T2's weights listed explicitly: at horizon 10^4 the tail window of 100
    # positions peaks at 2^100 but dips back to 2, so it is transitive only
    t2 = make_example("T2").weights
    v = classify(Explicit(tuple(t2.weight_range(0, 10_000).tolist())), 2.0, 10_000)
    assert v.label == "TransitiveNotMixing"
    assert v.confidence == Confidence.NUMERIC_EVIDENCE


def test_classify_explicit_slow_growth_is_inconclusive():
    # beta creeps up to ~1.5 over 150 steps: above the head window but far
    # from the escape threshold, so no label is defensible
    v = classify(Explicit((1.01,) * 150), 2.0)
    assert v.confidence == Confidence.INCONCLUSIVE
    assert v.label == "NotTransitive"  # fallback label, documented as such


def test_classify_explicit_short_list_is_inconclusive():
    v = classify(Explicit((2.0,) * 30), 2.0)
    assert v.confidence == Confidence.INCONCLUSIVE


def test_classify_explicit_never_analytic():
    for ws in ((2.0,) * 200, (1.0,) * 150):
        assert classify(Explicit(ws), 2.0).confidence != Confidence.ANALYTIC


def test_classify_horizon_caps_explicit_evidence():
    v = classify(Explicit((2.0,) * 500), 2.0, horizon=200)
    assert v.horizon == 200
    assert v.evidence.horizon == 200


def test_verdict_serializes_with_finite_and_infinite_scalars():
    v = classify(Constant(0.5), 2.0, horizon=100_000)
    d = v.to_dict()
    assert d["label"] == "NotTransitive"
    assert d["confidence"] == "Analytic"
    assert d["evidence"]["partial_sum"] == "inf"  # sum of 2^(2n) over 1e5 terms
    json.dumps(d)  # must stay strict-JSON serializable


# ---------------------------------------------------------------------------
# evidence scalars and the label checks


def test_evidence_hierarchy_chain_on_analytic_generators():
    # chaotic evidence implies mixing evidence implies transitive evidence
    cases = [
        (Constant(2.0), 2.0, 100_000),
        (Constant(4.0), 1.0, 100_000),
        (PowerLawBeta(1.5), 2.0, 10_000),
        (PowerLawBeta(2.0), 2.0, 10_000),
    ]
    for w, p, horizon in cases:
        ev = horizon_evidence(w, p, horizon)
        assert chaotic_evidence(ev)
        assert mixing_evidence(ev)
        assert transitive_evidence(ev)
        assert not bounded_evidence(ev)


def test_evidence_separates_the_three_example_operators():
    t1 = horizon_evidence(PowerLawBeta(0.5), 2.0, 100_000)
    assert mixing_evidence(t1) and not chaotic_evidence(t1)

    t2 = horizon_evidence(BalancedBlocks(2.0, 0.5), 2.0, 1_000_000)
    assert transitive_evidence(t2) and not mixing_evidence(t2)

    t3 = horizon_evidence(BalancedBlocks(0.5, 2.0), 2.0, 1_000_000)
    assert bounded_evidence(t3) and not transitive_evidence(t3)


def test_evidence_window_is_sqrt_horizon():
    ev = horizon_evidence(Constant(1.0), 2.0, 10_000)
    assert ev.window == 100
    assert ev.horizon == 10_000
    with pytest.raises(ValueError, match="profile length"):
        horizon_evidence(Constant(1.0), 2.0, 0)


def _full_array_evidence(w, p, horizon):
    """The evidence computed from the whole profile at once: the reference."""
    profile = beta_profile(w, horizon)
    window = math.isqrt(horizon)
    with np.errstate(over="ignore", under="ignore"):
        terms = np.exp(-p * profile)
        partial = float(terms.sum())
        increment = float(terms[horizon // 10 :].sum())
    head, tail = profile[:window], profile[horizon - window :]
    return HorizonEvidence(
        horizon, window, partial, increment, float(head.max()), float(tail.min()), float(tail.max())
    )


def _bits(ev):
    return [v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(ev)]


_LEAF = dynamics._LEAF
_near_one = st.builds(cmath.rect, st.floats(0.98, 1.02), st.floats(-math.pi, math.pi))


@st.composite
def _evidence_cases(draw):
    horizon = draw(
        st.one_of(
            st.integers(1, 300),  # one leaf
            st.integers(_LEAF - 16, 2 * _LEAF + 16),  # around the first split
            st.integers(2 * _LEAF, 16 * _LEAF),  # many leaves
        )
    )
    family = draw(st.sampled_from(["constant", "explicit", "blocks", "powerlaw"]))
    if family == "constant":
        w = Constant(draw(_near_one))
    elif family == "explicit":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        w = Explicit(tuple(rng.uniform(0.97, 1.03, horizon + draw(st.integers(0, 3)))))
    elif family == "blocks":
        w = BalancedBlocks(draw(_near_one), draw(_near_one), draw(st.booleans()))
    else:
        w = PowerLawBeta(draw(st.floats(-2.0, 2.0)))
    return w, draw(st.floats(1.0, 8.0)), horizon


def _jump_at(n0, length):
    """Weights 1.0 but w_(n0+1) = e**400: at p = 2 the terms n0.. are exactly 0.0, the earlier ones 1.0."""
    return Explicit((1.0,) * n0 + (math.exp(400.0),) + (1.0,) * (length - n0 - 1))


@given(_evidence_cases())
# saturated suffixes, which the sums take whole: from a mid-leaf term, from a
# leaf boundary of the full sum's tree, and all inf
@example((_jump_at(2 * _LEAF + 1000, 4 * _LEAF), 2.0, 4 * _LEAF))
@example((_jump_at(2 * _LEAF, 4 * _LEAF), 2.0, 4 * _LEAF))
@example((BalancedBlocks(1.4, 0.55, False), 2.0, 16 * _LEAF + 5))
@example((Constant(0.999 + 0.01j), 3.3, 8 * _LEAF + 5))
@example((Explicit(tuple(np.random.default_rng(0).uniform(0.97, 1.03, 100_003))), 2.7, 100_003))
@example((BalancedBlocks(1.01, 0.99, False), 1.0, 16 * _LEAF + 7))
@example((PowerLawBeta(0.37), 8.0, 99_999))
# the routes of _exp_in_place: chunks wholly below -750 (masked, with no lane
# kept), wholly above 710 (filled), mixed underflow with subnormal results,
# mixed overflow, and +-inf profiles
@example((Constant(1.15), 2.0, 16 * _LEAF + 3))
@example((Constant(0.9), 2.0, 16 * _LEAF + 1))
@example((BalancedBlocks(2.0, 0.5), 2.0, 600_011))
@example((BalancedBlocks(0.5, 2.0), 8.0, 16 * _LEAF + 7))
@example((PowerLawBeta(-1e308), 2.0, 4 * _LEAF + 9))
@example((PowerLawBeta(1e308), 2.0, 4 * _LEAF + 9))
@settings(max_examples=60, deadline=None)
def test_streamed_evidence_equals_the_full_array_form_bit_for_bit(case):
    w, p, horizon = case
    assert _bits(horizon_evidence(w, p, horizon)) == _bits(_full_array_evidence(w, p, horizon))


def test_saturated_suffix_is_found_where_the_terms_saturate():
    assert dynamics._saturated_suffix(_jump_at(2 * _LEAF + 1000, 4 * _LEAF), 2.0, 4 * _LEAF) == (2 * _LEAF + 1000, 0.0)
    assert dynamics._saturated_suffix(_jump_at(2 * _LEAF, 4 * _LEAF), 2.0, 4 * _LEAF) == (2 * _LEAF, 0.0)
    # 2n log 2 > 750 from n = 542 on, that is from term 541
    assert dynamics._saturated_suffix(Constant(2.0), 2.0, 10**6) == (541, 0.0)
    assert dynamics._saturated_suffix(Constant(0.5), 2.0, 10**6) == (512, math.inf)
    # never saturated, or only in part of the last _LEAF terms
    for w in (PowerLawBeta(0.5), BalancedBlocks(2.0, 0.5), _jump_at(4 * _LEAF - 10, 4 * _LEAF)):
        assert dynamics._saturated_suffix(w, 2.0, 4 * _LEAF) == (4 * _LEAF, None)


@pytest.mark.parametrize("w", [Constant(2.0), BalancedBlocks(1.4, 0.55, False), PowerLawBeta(1e308)])
def test_a_saturated_suffix_costs_no_profile_lanes(w, monkeypatch):
    horizon = 10**9
    asked = []
    profile = type(w).log_abs_profile
    monkeypatch.setattr(type(w), "log_abs_profile", lambda self, lo, hi: asked.append(hi - lo) or profile(self, lo, hi))
    n0, known = dynamics._saturated_suffix(w, 2.0, horizon)
    ev = horizon_evidence(w, 2.0, horizon)
    # the two windows, and the terms up to n0 in chunks of _LEAF or less
    assert n0 < 10_000 and sum(asked) <= 2 * math.isqrt(horizon) + n0 + _LEAF
    # nor many tree nodes, 2 * leaves - 1 of them: O(log horizon) past n0
    leaves = _drive(dynamics._tree(0, horizon, n0), lambda lo, hi: 0.0)[1]
    assert 2 * len(leaves) - 1 < 4 * math.log2(horizon)
    assert ev.last_decade_increment == known


_EDGES = [
    math.inf, -math.inf, -0.0, 0.0,
    -750.0, 710.0, -745.1332191019411, 709.782712893384,
    math.nextafter(-750.0, -math.inf), math.nextafter(710.0, math.inf),
]


def _chunk(kind):
    """8,192 terms for _exp_in_place, each kind aimed at one of its routes."""
    rng = np.random.default_rng(len(kind))
    n = _LEAF
    if kind.startswith("below"):
        x = rng.uniform(-3000.0, -750.5, n)
    elif kind.startswith("above"):
        x = rng.uniform(710.5, 3000.0, n)
    elif kind == "subnormal band":  # masked, with subnormal results among the lanes kept
        x = rng.uniform(-760.0, -700.0, n)
        x[0] = -760.0
    elif kind == "interior underflow":  # first and last lanes in range, the middle not
        x = rng.uniform(-900.0, 5.0, n)
        x[0], x[-1] = -1.0, 2.0
    elif kind == "mixed overflow":  # both ends overflow, so the min is looked at
        x = rng.uniform(-700.0, 800.0, n)
        x[0], x[-1] = 800.0, 800.0
    elif kind == "alternating":  # runs of one kept lane between masked ones
        x = rng.uniform(-700.0, 700.0, n)
        x[::2] = -800.0
    else:  # the edge values scattered over a mixed chunk whose ends are saturated
        x = rng.uniform(-1000.0, 1000.0, n)
        x[rng.integers(1, n - 1, 3 * len(_EDGES))] = _EDGES * 3
        x[0], x[-1] = -800.0, 800.0
    if kind.endswith("nan"):
        x[n // 2] = math.nan
    return x


@pytest.mark.parametrize(
    "kind",
    ["below", "below, one nan", "above", "above, one nan", "subnormal band", "interior underflow",
     "mixed overflow", "alternating", "edges", "edges, one nan"],
)
def test_exp_in_place_writes_the_bits_of_np_exp(kind):
    x = _chunk(kind)
    for chunk in (x, x[::-1].copy()):
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            expected = np.exp(chunk)
            got = chunk.copy()
            dynamics._exp_in_place(got)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("value", [math.nan, *_EDGES])
def test_exp_in_place_of_a_constant_chunk_writes_the_bits_of_np_exp(value):
    chunk = np.full(_LEAF, value)
    with np.errstate(over="ignore", under="ignore"):
        expected = np.exp(chunk)
        dynamics._exp_in_place(chunk)
    assert np.array_equal(chunk.view(np.int64), expected.view(np.int64))


def _drive(tree, leaf_sum):
    """Run a ``dynamics._tree`` to its end, sending it leaf_sum(lo, hi) for each leaf: its total and its leaves."""
    leaves = [next(tree)]
    try:
        while True:
            leaves.append(tree.send(leaf_sum(*leaves[-1])))
    except StopIteration as done:
        return done.value, leaves


def _streamed_sum(a, lo):
    """a[lo:].sum() leaf by leaf, driven through the tree that horizon_evidence uses."""
    return _drive(dynamics._tree(lo, len(a), len(a)), lambda lo, hi: float(a[lo:hi].sum()))[0]


@pytest.mark.parametrize("n", [129, 1000, 2**17 + 5, 10**6])
def test_streamed_sum_follows_numpys_pairwise_tree(n):
    # terms spread over 35 decades, so adding them in any other order changes bits;
    # a numpy whose np.sum walks another tree fails here before it changes evidence
    a = np.exp(np.random.default_rng(n).uniform(-40.0, 40.0, n))
    for lo in (0, n // 10):
        assert _streamed_sum(a, lo) == float(a[lo:].sum())


_SUM_FAMILIES = [
    PowerLawBeta(0.5),
    BalancedBlocks(2.0, 0.5, a_first=True),
    BalancedBlocks(0.5, 2.0, a_first=True),
    Constant(2.0),
    Constant(0.5),
    Explicit(tuple(np.random.default_rng(5).uniform(1.0, 1.03, 10**5))),  # saturates to 0.0 near n = 25,000
]


@pytest.mark.parametrize("horizon", [5 * _LEAF + 17, 10**5])
@pytest.mark.parametrize("w", _SUM_FAMILIES, ids=["T1", "T2", "T3", "constant 2", "constant 0.5", "explicit"])
def test_chaos_sums_of_many_starts_equal_np_sum_bit_for_bit(w, horizon):
    n0 = dynamics._saturated_suffix(w, 2.0, horizon)[0]
    starts = (0, horizon // 10, horizon // 8, horizon // 4, horizon // 2, min((n0 + horizon) // 2, horizon - 1))
    with np.errstate(over="ignore", under="ignore"):
        terms = np.exp(-2.0 * w.log_abs_profile(0, horizon))
        expected = [float(np.sum(terms[s:])) for s in starts]
    got = dynamics._chaos_sums(w, 2.0, horizon, starts)
    assert np.array(got).view(np.int64).tolist() == np.array(expected).view(np.int64).tolist()


def _evidence_peak(w, horizon):
    tracemalloc.start()
    try:
        horizon_evidence(w, 2.0, horizon)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_horizon_evidence_memory_does_not_grow_with_the_horizon():
    w = BalancedBlocks(2.0, 0.5)
    horizon_evidence(w, 2.0, 1000)
    assert _evidence_peak(w, 2_000_000) < 4 * 2**20  # the whole profile alone would take 16 MB


def test_horizon_evidence_peak_grows_only_by_the_window():
    # 64x the horizon adds 3,500 entries to each window and nothing to the
    # streamed sums, whose buffers are sized by _LEAF alone
    w = BalancedBlocks(2.0, 0.5)
    horizon_evidence(w, 2.0, 1000)
    assert _evidence_peak(w, 16_000_000) <= _evidence_peak(w, 250_000) + 64 * 2**10


# ---------------------------------------------------------------------------
# beta profiles


def test_beta_profile_constant_exact():
    prof = beta_profile(Constant(2.0), 1000)
    n = np.arange(1, 1001)
    assert np.max(np.abs(prof - n * math.log(2))) <= 1e-12 * 1000 * math.log(2)


def test_beta_profile_powerlaw_matches_half_log_n():
    prof = beta_profile(PowerLawBeta(0.5), 10_000)
    ref = 0.5 * np.log(np.arange(1, 10_001))
    assert prof[0] == 0.0
    rel = np.abs(prof[1:] - ref[1:]) / ref[1:]
    assert float(rel.max()) <= 1e-10


def test_beta_profile_explicit_matches_scalar_oracle():
    ws = (2.0, 0.5, 3.0, 1j, -0.25, 4.0, 1.0, 0.125)
    w = Explicit(ws)
    prof = beta_profile(w, len(ws))
    for n in range(1, len(ws) + 1):
        assert prof[n - 1] == pytest.approx(w.log_abs_profile(n - 1, n)[0], abs=1e-12)
    with pytest.raises(IndexError):
        beta_profile(w, len(ws) + 1)


def test_beta_profile_blocks_matches_scalar_oracle():
    w = BalancedBlocks(2.0, 0.5)
    prof = beta_profile(w, 5000)
    sample = list(range(1, 100)) + [512, 999, 1000, 2047, 4999, 5000]
    for n in sample:
        assert prof[n - 1] == pytest.approx(w.log_abs_profile(n - 1, n)[0], abs=1e-12)


def test_beta_profile_blocks_boundary_zeros_exact():
    prof = beta_profile(BalancedBlocks(2.0, 0.5), 1000 * 1001)
    boundaries = np.array([k * (k + 1) for k in range(1, 1001)]) - 1
    assert float(np.abs(prof[boundaries]).max()) == 0.0


def test_beta_profile_monotone_iff_amplifying():
    assert bool(np.all(np.diff(beta_profile(Constant(3.0), 500)) > 0))
    prof = beta_profile(BalancedBlocks(2.0, 0.5), 500)
    assert not bool(np.all(np.diff(prof) > 0))


def test_beta_profile_validates_length():
    with pytest.raises(ValueError):
        beta_profile(Constant(2.0), 0)


# ---------------------------------------------------------------------------
# example operators


def test_make_example_t1_weights():
    t1 = make_example("T1")
    assert t1.p == 2.0
    assert t1.weights.weight_range(0, 1)[0] == 1
    assert t1.weights.weight_range(1, 2)[0] == pytest.approx(math.sqrt(2), rel=1e-15)
    assert t1.weights.weight_range(9, 10)[0] == pytest.approx(math.sqrt(10 / 9), rel=1e-15)


def test_make_example_t2_t3_weight_listings():
    # first twelve weights, straight from the pair-block layout
    t2 = [make_example("T2").weights.weight_range(n - 1, n)[0] for n in range(1, 13)]
    assert t2 == [2, 0.5, 2, 2, 0.5, 0.5, 2, 2, 2, 0.5, 0.5, 0.5]
    t3 = [make_example("T3").weights.weight_range(n - 1, n)[0] for n in range(1, 13)]
    assert t3 == [0.5, 2, 0.5, 0.5, 2, 2, 0.5, 0.5, 0.5, 2, 2, 2]


def test_make_example_rejects_unknown():
    with pytest.raises(ValueError):
        make_example("T4")


def test_example_classifications():
    assert classify(make_example("T1").weights, 2.0).label == "MixingNotChaotic"
    assert classify(make_example("T2").weights, 2.0).label == "TransitiveNotMixing"
    assert classify(make_example("T3").weights, 2.0).label == "NotTransitive"


# ---------------------------------------------------------------------------
# the T3 start point and its orbit


def test_example3_point_listings():
    x1 = example3_point(1)
    assert len(x1.coords) == 2
    assert x1.coords == (0j, 1 + 0j)
    x2 = example3_point(2)
    assert len(x2.coords) == 6
    assert x2.coords[1] == 1 and x2.coords[5] == 0.5
    x3 = example3_point(3)
    assert len(x3.coords) == 12
    assert x3.coords[11] == 0.25
    assert sum(1 for c in x3.coords if c != 0) == 3
    with pytest.raises(ValueError):
        example3_point(0)


def test_example3_orbit_norm_stays_above_one_inside_window():
    # with K nonzero entries the lower bound ||T3^n x|| >= 1 holds for
    # n = 1..K-1: step n is witnessed by the entry at position (n+1)(n+2)
    t3 = make_example("T3")
    for k in (5, 20, 40):
        x = example3_point(k)
        trace = orbit_norms(t3, x, k - 1)
        assert min(trace.norms) >= 1.0 - 1e-12


def test_example3_orbit_decays_once_entries_run_out():
    # the witness entry for step n is the (n+1)-th one; a truncated point
    # has none beyond K, so the norm drops below 1 at step K and collapses
    # to 2^-K once only the last entry is left
    t3 = make_example("T3")
    k = 20
    x = example3_point(k)
    trace = orbit_norms(t3, x, k * (k + 1) - 1)
    assert trace.norms[k] < 1.0
    assert trace.norms[-1] == pytest.approx(2.0**-k, rel=1e-12)


def test_example3_orbit_step_witness_is_exact():
    # the dominant coordinate at step n is exactly 1: the entry value
    # 2^(1-k) at position k(k+1) meets the in-pair product 2^(k-1), k = n+1
    t3 = make_example("T3")
    y = example3_point(6)
    for n in range(1, 6):
        y = apply_shift(t3, y)  # T3^n x
        witness = y.coords[(n + 1) * (n + 2) - n - 1]
        assert witness == 1.0


# ---------------------------------------------------------------------------
# orbit traces


def test_orbit_norms_basis_vector_annihilation():
    t = ShiftOperator(Constant(0.5), 2.0)
    trace = orbit_norms(t, FinSeqVector(2.0, (1,)), 5)
    assert trace.norms == (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert trace.valid_horizon == 1


def test_orbit_norms_strictly_decreasing_ones_vector():
    t = ShiftOperator(Constant(0.5), 2.0)
    x = FinSeqVector(2.0, (1, 1, 1, 1))
    trace = orbit_norms(t, x, 6)
    # direct-iteration oracle, recomputed inline
    expect = []
    y = x
    for n in range(7):
        expect.append(lp_norm(y))
        y = apply_shift(t, y)
    assert trace.norms == tuple(expect)
    assert all(a > b for a, b in zip(trace.norms[:4], trace.norms[1:5]))
    assert trace.norms[4] == trace.norms[5] == 0.0


def test_orbit_norms_first_entry_is_start_norm():
    t = make_example("T2")
    x = example3_point(3)
    trace = orbit_norms(t, x, 10, point="example3:3")
    assert trace.norms[0] == lp_norm(x)
    assert trace.point == "example3:3"
    assert trace.operator["p"] == 2.0
    assert trace.operator["weights"]["kind"] == "blocks"


def test_orbit_norms_validates():
    t = ShiftOperator(Constant(1), 2.0)
    with pytest.raises(ValueError):
        orbit_norms(t, FinSeqVector(2.0, (1,)), -1)


def _iterated_norms(t, x, n):
    """The orbit norms by repeated apply_shift + lp_norm on Python complexes."""
    norms = [lp_norm(x)]
    for _ in range(n):
        x = apply_shift(t, x)
        norms.append(lp_norm(x))
    return norms


_part = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
_weight = st.builds(complex, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)).filter(lambda z: abs(z) > 1e-3)


@st.composite
def _orbit_cases(draw):
    p = draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    coords = draw(st.lists(st.builds(complex, _part, _part), max_size=30))
    family = draw(st.sampled_from(["constant", "explicit", "blocks", "powerlaw"]))
    if family == "constant":
        w = Constant(draw(_weight))
    elif family == "explicit":
        need = max(1, len(coords) - 1)
        w = Explicit(tuple(draw(st.lists(_weight, min_size=need, max_size=need + 3))))
    elif family == "blocks":
        w = BalancedBlocks(draw(_weight), draw(_weight), draw(st.booleans()))
    else:
        w = PowerLawBeta(draw(st.floats(-2.0, 2.0)))
    n = draw(st.integers(0, len(coords) + 5))  # up to 5 steps past the support
    return ShiftOperator(w, p), FinSeqVector(p, tuple(coords)), n


@given(_orbit_cases())
# power sums that overflow from about step 507 on, and single powers from about 510 on, while every norm fits
@example((ShiftOperator(Constant(2), 2.0), FinSeqVector(2.0, (3 + 4j, 1 - 2j) * 300), 599))
# finite parts whose modulus is inf at step 3, after power sums that overflow at steps 0-2
@example((ShiftOperator(Constant(1.1), 2.0), FinSeqVector(2.0, (1, 1, 1, 1, 1e308 + 1e308j)), 4))
# a nan coordinate beside a power that overflows
@example((ShiftOperator(Constant(2), 2.0), FinSeqVector(2.0, (1e200, complex(math.nan, 0.0))), 1))
# an inf modulus beside finite moduli whose sum overflows
@example((ShiftOperator(Constant(1), 1.0), FinSeqVector(1.0, (complex(1.5e308, 1.5e308), 1.7e308, 1.7e308)), 0))
@settings(max_examples=150)
def test_orbit_norms_bit_identical_to_repeated_application(case):
    # the same norms, or a RangeError naming the first step whose norm is inf or nan
    t, x, n = case
    want = _iterated_norms(t, x, n)
    bad = next((k for k, v in enumerate(want) if not math.isfinite(v)), None)
    if bad is None:
        assert [v.hex() for v in orbit_norms(t, x, n).norms] == [v.hex() for v in want]
    else:
        with pytest.raises(RangeError, match=f"step {bad} is {want[bad]!r}:"):
            orbit_norms(t, x, n)


def _pow_or_inf(m, p):
    try:
        return m**p
    except OverflowError:
        return math.inf


def test_float_power_is_python_pow_bit_for_bit():
    # orbit norms take their powers from np.float_power because its float64
    # loop calls libm's pow lane by lane, as Python's ** does; np.power is
    # vectorized and rounds differently.  A numpy whose float_power stops
    # matching ** must fail here, not deep in the golden corpus.
    rng = np.random.default_rng(15)
    tiny = np.finfo(np.float64).smallest_normal
    edge = np.array(math.sqrt(np.finfo(np.float64).max))  # m**2 overflows just above this
    moduli = np.concatenate(
        [
            [0.0, 1.0, 5e-324, tiny],
            np.ldexp(rng.random(2000), -rng.integers(1022, 1075, 2000)),  # subnormals of every exponent
            np.exp(rng.uniform(-745.0, 709.7, 20000)),
            (edge.view(np.int64) + rng.integers(-1000, 1000, 2000)).view(np.float64),  # ulps around the edge
        ]
    )
    for p in (1.0, 1.5, 2.0, 3.0, 8.0, 1 / 3, 0.5):
        want = np.array([_pow_or_inf(m, p) for m in moduli.tolist()])
        with np.errstate(over="ignore", under="ignore"):
            got = np.float_power(moduli, p)
        differ = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
        assert differ.size == 0, f"p = {p!r}: {differ.size} lanes differ, first m = {moduli[differ[0]]!r}"


def test_orbit_norms_checks_operator_only_when_stepping():
    # as with apply_shift, a short explicit list or an exponent mismatch
    # only matters once a step is taken
    x = FinSeqVector(2.0, (1, 2, 3, 4))
    short = ShiftOperator(Explicit((1, 2)), 2.0)
    assert orbit_norms(short, x, 0).norms == (lp_norm(x),)
    with pytest.raises(IndexError):
        orbit_norms(short, x, 1)
    other_p = ShiftOperator(Constant(2), 3.0)
    assert orbit_norms(other_p, x, 0).norms == (lp_norm(x),)
    with pytest.raises(ValueError, match=r"operator acts on l\^3\.0 but vector is in l\^2\.0"):
        orbit_norms(other_p, x, 1)


@pytest.mark.parametrize(
    "w", [Constant(2), Explicit((1,)), BalancedBlocks(2, 0.5), PowerLawBeta(1100.0)]
)
def test_orbit_norms_of_empty_and_one_coordinate_vectors(w):
    t = ShiftOperator(w, 2.0)
    assert orbit_norms(t, FinSeqVector(2.0, ()), 3).norms == (0.0,) * 4
    assert orbit_norms(t, FinSeqVector(2.0, (3 + 4j,)), 3).norms == (5.0, 0.0, 0.0, 0.0)


def test_orbit_norms_past_float_range_names_the_step():
    t = ShiftOperator(Constant(1e200), 1.0)
    with pytest.raises(RangeError, match="step 2"):
        orbit_norms(t, FinSeqVector(1.0, (1, 2, 3)), 2)


def test_orbit_norms_overflowing_power_sum_stays_finite():
    # |2^999 x_n|^2 overflows although every norm fits in a float
    t = ShiftOperator(Constant(2), 2.0)
    x = FinSeqVector(2.0, (3, 4) * 500)
    norms = orbit_norms(t, x, 999).norms
    assert all(math.isfinite(v) for v in norms)
    assert norms[998] == pytest.approx(2.0**998 * 5.0, rel=1e-15)


def test_orbit_trace_serialization_and_csv():
    t = ShiftOperator(Constant(2), 2.0)
    trace = orbit_norms(t, FinSeqVector(2.0, (1, 1)), 3)
    d = trace.to_dict()
    assert d["valid_horizon"] == 2
    assert len(d["norms"]) == 4
    json.dumps(d)
    rows = trace.csv_rows()
    assert rows[0] == ("n", "norm")
    assert len(rows) == 5
    assert rows[1] == ("0", repr(trace.norms[0]))


# ---------------------------------------------------------------------------
# escape demo


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_escape_demo_traces_are_exact_powers(lam):
    trace = escape_demo(lam, 2.0, 50)
    for n, v in enumerate(trace.norms):
        assert v == abs(lam) ** n  # exact for powers of two
    assert trace.valid_horizon == 49


def test_escape_demo_complex_weight():
    trace = escape_demo(2j, 2.0, 10)
    for n, v in enumerate(trace.norms):
        assert v == pytest.approx(2.0**n, rel=1e-12)


def test_escape_demo_validates():
    with pytest.raises(ValueError):
        escape_demo(0, 2.0, 5)
    with pytest.raises(ValueError):
        escape_demo(2, 2.0, 0)


@pytest.mark.parametrize("lam,p", [(1.5, 2.0), (0.7, 1.0), (complex(0.6, 0.8), 1.5), (complex(-1.1, 0.4), 3.0)])
def test_escape_demo_is_the_orbit_of_the_last_basis_vector(lam, p):
    n = 40
    t = ShiftOperator(Constant(lam), p)
    trace = escape_demo(lam, p, n)
    e_n = FinSeqVector(p, (0j,) * (n - 1) + (1 + 0j,))
    assert trace.norms == orbit_norms(t, e_n, n - 1).norms
    # and each entry is what shifting its own basis vector gives
    for k in range(1, n + 1):
        e_k = FinSeqVector(p, (0j,) * (k - 1) + (1 + 0j,))
        assert trace.norms[k - 1] == _iterated_norms(t, e_k, k - 1)[-1]


@pytest.mark.parametrize(
    "lam, p",
    [
        pytest.param(lam, p, id=f"{lam}" if p == 2.0 else f"{lam}-p{p:g}")  # p = 2 keeps the ids it had alone
        for p in (2.0, 1.0, 8.0)
        for lam in (10.0, complex(1e200, 1e200), complex(-1e200, 1e200), complex(1e154, -1e154), 1e-10)
    ],
)
def test_escape_demo_ends_as_the_orbit_of_the_last_basis_vector_ends(lam, p):
    # the same norms, or the same error at the same step, once the live
    # coordinate leaves float range or underflows; at p = 8 the power of
    # 10^k overflows from k = 39 on while its norm fits up to k = 308
    n = 400
    e_n = FinSeqVector(p, (0j,) * (n - 1) + (1 + 0j,))

    def outcome(f):
        try:
            return [v.hex() for v in f().norms]
        except RangeError as e:
            return str(e)

    orbit = outcome(lambda: orbit_norms(ShiftOperator(Constant(lam), p), e_n, n - 1))
    assert outcome(lambda: escape_demo(lam, p, n)) == orbit


def test_escape_demo_beyond_squared_float_range():
    # 10^k squared overflows from k = 155 on; the norm itself fits up to 10^308
    trace = escape_demo(10.0, 2.0, 200)
    for k, v in enumerate(trace.norms):
        assert v == pytest.approx(10.0**k, rel=1e-12)
    with pytest.raises(RangeError, match="step 309"):
        escape_demo(10.0, 2.0, 400)
