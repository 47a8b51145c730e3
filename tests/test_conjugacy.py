"""The conjugating homeomorphisms: identities, inverses, assembled chains."""

import cmath
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from shiftlab import (
    BalancedBlocks,
    ClassMismatchError,
    ConjugacyMap,
    Constant,
    DiagStep,
    Explicit,
    FinSeqVector,
    GStep,
    HStep,
    RangeError,
    ShiftOperator,
    apply_shift,
    build_conjugator,
    chi,
    conjugacy_class_decision,
    conjugacy_residual,
    diag_similarity,
    g_map,
    h_map,
    lp_norm,
    max_coord_diff,
    orbit_norms,
    random_vectors,
    subtract,
    tail_power_sums,
)
from shiftlab import conjugacy, seqspace
from shiftlab.cli import _dumps
from shiftlab.conjugacy import _residuals
from shiftlab.seqspace import _Batch, _shift, _tails

# vectors whose moduli stay in a friendly range; enough for every identity here
finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
coord = st.builds(complex, finite, finite).filter(lambda z: z == 0 or abs(z) > 1e-3)
vec = st.lists(coord, min_size=0, max_size=24).map(tuple)
exponent = st.sampled_from([1.0, 2.0, 3.0])
s_values = st.sampled_from([0.5, 2.0, 3.7, 1 / 3.7])


# ---------------------------------------------------------------------------
# chi


def test_chi_trichotomy():
    assert chi(2.0) == 1
    assert chi(1.0) == 0
    assert chi(0.5) == -1
    assert chi(1.0 + 1e-15) == 1  # exact comparison, no tolerance band


def test_chi_rejects_nonpositive_and_nonfinite():
    for bad in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            chi(bad)


def test_chi_of_exactly_unimodular_complexes():
    # these moduli are exactly 1.0 in floating point
    for z in (1 + 0j, -1 + 0j, 1j, -1j, 0.6 + 0.8j):
        assert chi(abs(z)) == 0


# ---------------------------------------------------------------------------
# h_map


def test_h_map_hand_example():
    # x = (1, 1) on l^2, s = 2: tails 2, 1, 0 -> moduli sqrt(4-1), sqrt(1)
    y = h_map(FinSeqVector(2.0, (1, 1)), 2.0)
    assert y.coords[0] == pytest.approx(math.sqrt(3), rel=1e-15)
    assert y.coords[1] == pytest.approx(1.0, rel=1e-15)


def test_h_map_matches_naive_formula_on_friendly_vectors():
    # independent route: evaluate the defining formula with direct powers;
    # safe here because moduli are comparable, so no catastrophic cancellation
    for x in random_vectors(40, 2.0, seed=101, support_range=(1, 8), box=5.0):
        x = FinSeqVector(2.0, tuple(c if abs(c) > 0.5 else c + 1 for c in x.coords))
        for s in (0.5, 2.0):
            tails = tail_power_sums(x)
            got = h_map(x, s)
            for k, c in enumerate(x.coords):
                naive = (c / abs(c)) * (tails[k] ** s - tails[k + 1] ** s) ** 0.5
                assert abs(got.coords[k] - naive) <= 1e-9 * abs(naive)


@given(vec, exponent, s_values)
@settings(max_examples=80)
def test_h_map_transports_tail_sums(coords, p, s):
    x = FinSeqVector(p, coords)
    tx = tail_power_sums(x)
    ty = tail_power_sums(h_map(x, s))
    for a, b in zip(ty, (t**s for t in tx)):
        assert abs(a - b) <= 1e-10 * max(b, 1e-300)


@given(vec, exponent, s_values)
@settings(max_examples=80)
def test_h_map_inverse_roundtrip(coords, p, s):
    x = FinSeqVector(p, coords)
    back = h_map(h_map(x, s), 1.0 / s)
    assert lp_norm(subtract(back, x)) <= 1e-9 * max(lp_norm(x), 1e-300)


def test_h_map_preserves_support_pattern():
    x = FinSeqVector(2.0, (1, 0, 2, 0, 0, 3))
    y = h_map(x, 3.7)
    assert [c == 0 for c in y.coords] == [c == 0 for c in x.coords]


def test_h_map_preserves_phases():
    x = FinSeqVector(2.0, (3 + 4j, -2j, 1))
    y = h_map(x, 2.0)
    for cx, cy in zip(x.coords, y.coords):
        assert abs(cy / abs(cy) - cx / abs(cx)) < 1e-15


@pytest.mark.parametrize("lam", [0.1, 3.0, 10.0])
@pytest.mark.parametrize("s", [0.5, 2.0, 3.7])
def test_h_map_homogeneity(lam, s):
    for x in random_vectors(25, 2.0, seed=7, support_range=(1, 24)):
        lhs = h_map(FinSeqVector(x.p, tuple(lam * c for c in x.coords)), s)
        rhs = FinSeqVector(x.p, tuple(lam**s * c for c in h_map(x, s).coords))
        scale_ref = max(abs(c) for c in rhs.coords)
        assert max_coord_diff(lhs, rhs) <= 1e-10 * scale_ref


def test_h_map_rejects_bad_exponent():
    x = FinSeqVector(2.0, (1,))
    for bad in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            h_map(x, bad)


def test_h_map_on_empty_vector():
    assert h_map(FinSeqVector(2.0, ()), 2.0).coords == ()


def test_h_map_overflow_is_a_range_error():
    # t_1**s - t_2**s is beyond float range although every tail fits
    x = FinSeqVector(2.0, (1e10, 3 + 4j))
    with pytest.raises(RangeError, match="coordinate 1"):
        h_map(x, 200.0)
    # t_2**s = 1e300 fits, but the product with expm1(...) silently gives inf
    with pytest.raises(RangeError, match="coordinate 1"):
        h_map(FinSeqVector(2.0, (90.0**0.5, 10.0)), 150.0)


# ---------------------------------------------------------------------------
# g_map


def test_g_map_hand_example():
    # modulus 1/4 from l^2 to l^4: (1/4)^(2/4) = 1/2
    y = g_map(FinSeqVector(2.0, (0.25,)), 4.0)
    assert y.p == 4.0
    assert y.coords == (0.5 + 0j,)


def test_g_map_keeps_phase_and_powers_modulus():
    y = g_map(FinSeqVector(2.0, (3 + 4j,)), 4.0)
    expect = ((3 + 4j) / 5) * 5**0.5
    assert abs(y.coords[0] - expect) < 1e-15


@given(vec, st.sampled_from([1.0, 2.0, 3.0]), st.sampled_from([1.0, 2.0, 4.0]))
@settings(max_examples=80)
def test_g_map_norm_power_identity(coords, p, q):
    x = FinSeqVector(p, coords)
    y = g_map(x, q)
    assert y.p == q
    assert lp_norm(y) ** q == pytest.approx(lp_norm(x) ** p, rel=1e-12, abs=1e-300)


@given(vec, st.sampled_from([1.0, 2.0, 3.0]), st.sampled_from([1.0, 2.0, 4.0]))
@settings(max_examples=80)
def test_g_map_inverse_roundtrip(coords, p, q):
    x = FinSeqVector(p, coords)
    back = g_map(g_map(x, q), p)
    assert max_coord_diff(back, x) <= 1e-12 * max([abs(c) for c in x.coords], default=1.0)


@pytest.mark.parametrize("lam", [0.1, 3.0, 10.0])
def test_g_map_homogeneity(lam):
    p, q = 2.0, 4.0
    for x in random_vectors(25, p, seed=8, support_range=(1, 24)):
        lhs = g_map(FinSeqVector(p, tuple(lam * c for c in x.coords)), q)
        rhs = FinSeqVector(q, tuple(lam ** (p / q) * c for c in g_map(x, q).coords))
        scale_ref = max(abs(c) for c in rhs.coords)
        assert max_coord_diff(lhs, rhs) <= 1e-10 * scale_ref


_BAD_Q = [0.5, 0.0, -1.0, math.inf, math.nan]


@pytest.mark.parametrize("q", _BAD_Q)
def test_g_map_rejects_bad_exponent(q):
    with pytest.raises(ValueError, match=r"^exponent must satisfy 1 <= p < inf, got "):
        g_map(FinSeqVector(2.0, (1,)), q)


def test_g_map_overflow_is_a_range_error():
    # (1e300)**(4/1) = 1e1200 is beyond float range; 1**4 is not
    with pytest.raises(RangeError, match="coordinate 1"):
        g_map(FinSeqVector(4.0, (1e300, 1)), 1.0)
    with pytest.raises(RangeError, match="coordinate 2"):
        g_map(FinSeqVector(4.0, (1, -1e300j)), 1.0)
    # the modulus of 1.5e308 + 1.5e308j is itself beyond float range
    with pytest.raises(RangeError, match="coordinate 1"):
        g_map(FinSeqVector(2.0, (complex(1.5e308, 1.5e308), 1)), 4.0)


def test_g_map_of_a_nan_coordinate_is_nan_after_any_earlier_overflow():
    # abs() of a complex with a nan part can raise a stale OverflowError
    # that an earlier caught overflow left behind
    try:
        1e200**2.0
    except OverflowError:
        pass
    image = g_map(FinSeqVector(2.0, (complex(math.nan, 0), 1)), 4.0)
    assert cmath.isnan(image.coords[0]) and image.coords[1] == 1


# ---------------------------------------------------------------------------
# steps and composite maps


def test_step_inverses_are_exact_parameter_flips():
    assert HStep(2.0, 2.0).inverse() == HStep(2.0, 0.5)
    assert GStep(2.0, 4.0).inverse() == GStep(4.0, 2.0)
    assert DiagStep(2.0, -1.0).inverse() == DiagStep(2.0, -1.0)
    assert DiagStep(2.0, 1j).inverse() == DiagStep(2.0, -1j)


def test_hstep_rejects_bad_s():
    with pytest.raises(ValueError):
        HStep(2.0, -1.0)


@pytest.mark.parametrize("q", _BAD_Q)
def test_gstep_checks_q_when_built(q):
    # a map onto l^q with q outside 1 <= q < inf is refused before it is applied or chained
    with pytest.raises(ValueError, match=r"^exponent must satisfy 1 <= p < inf, got "):
        GStep(2.0, q)


def test_gstep_holds_q_as_a_float():
    st_ = GStep(2.0, 3)
    assert type(st_.q) is float and st_.codomain_p == 3.0
    assert st_.to_dict() == {"kind": "g", "p": 2.0, "q": 3.0}


@pytest.mark.parametrize(
    "build",
    [
        lambda: HStep(0.5, 2.0),
        lambda: DiagStep(0.5, 1j),
        lambda: GStep(0.5, 2.0),
        lambda: ConjugacyMap((), 0.5, 0.5),
    ],
    ids=["h", "diag", "g", "empty-map"],
)
def test_steps_and_maps_check_their_domain_exponent_when_built(build):
    with pytest.raises(ValueError, match=r"^exponent must satisfy 1 <= p < inf, got 0\.5$"):
        build()


def test_maps_check_and_hold_both_exponents_as_floats():
    # the codomain is checked before the chain is compared with it
    with pytest.raises(ValueError, match=r"^exponent must satisfy 1 <= p < inf, got 0\.5$"):
        ConjugacyMap((), 2.0, 0.5)
    text = _dumps(ConjugacyMap((HStep(2, 2),), 2, 2))
    assert '"codomain_p": 2.0' in text and '"domain_p": 2.0' in text


@pytest.mark.parametrize("step", [HStep(2, 3), GStep(2, 3), DiagStep(2, 1j)], ids=["h", "g", "diag"])
def test_steps_hold_their_exponents_as_floats(step):
    exponents = [getattr(step, name) for name in ("p", "q", "s") if hasattr(step, name)]
    assert [type(e) for e in exponents] == [float] * len(exponents)


def test_diagstep_rejects_zero_ratio():
    with pytest.raises(ValueError):
        DiagStep(2.0, 0)


def test_diag_step_multiplies_geometric_phases():
    y = DiagStep(2.0, 1j).apply(FinSeqVector(2.0, (1, 1, 1, 1)))
    assert y.coords == (1 + 0j, 1j, -1 + 0j, -1j)


@pytest.mark.parametrize(
    "call,subject",
    [
        (HStep(2.0, 2.0).apply, "step"),
        (GStep(2.0, 4.0).apply, "step"),
        (DiagStep(2.0, 1j).apply, "step"),
        (ConjugacyMap((HStep(2.0, 2.0),), 2.0, 2.0).apply, "map"),
        (ConjugacyMap((), 2.0, 2.0).apply, "map"),
        (lambda x: apply_shift(ShiftOperator(Constant(2), 2.0), x), "operator"),
        (lambda x: orbit_norms(ShiftOperator(Constant(2), 2.0), x, 1), "operator"),
    ],
)
def test_step_rejects_a_vector_outside_its_domain(call, subject):
    # one rule for every map that acts on one l^p: a vector from another is refused
    with pytest.raises(ValueError, match=rf"^{subject} acts on l\^2\.0 but vector is in l\^3\.0$"):
        call(FinSeqVector(3.0, (1, 2)))


def test_conjugacy_map_validates_chain():
    with pytest.raises(ValueError):
        ConjugacyMap((GStep(2.0, 4.0), HStep(2.0, 2.0)), 2.0, 2.0)  # breaks at l^4 vs l^2
    with pytest.raises(ValueError):
        ConjugacyMap((GStep(2.0, 4.0),), 2.0, 2.0)  # wrong declared codomain
    with pytest.raises(ValueError):
        ConjugacyMap((HStep(4.0, 2.0),), 2.0, 4.0)  # wrong declared domain


def test_conjugacy_map_apply_checks_exponent():
    phi = ConjugacyMap((HStep(2.0, 2.0),), 2.0, 2.0)
    with pytest.raises(ValueError):
        phi.apply(FinSeqVector(1.0, (1,)))


def test_empty_map_is_identity():
    phi = ConjugacyMap((), 2.0, 2.0)
    x = FinSeqVector(2.0, (1, 2j))
    assert phi.apply(x) == x
    assert phi.inverse().apply(x) == x


def test_composite_inverse_roundtrip():
    phi = ConjugacyMap((DiagStep(2.0, 1j), HStep(2.0, 2.0), GStep(2.0, 4.0)), 2.0, 4.0)
    inv = phi.inverse()
    assert inv.domain_p == 4.0 and inv.codomain_p == 2.0
    for x in random_vectors(20, 2.0, seed=5, support_range=(1, 16)):
        back = inv.apply(phi.apply(x))
        assert lp_norm(subtract(back, x)) <= 1e-9 * max(lp_norm(x), 1e-300)


def test_map_dict_roundtrip():
    phi = ConjugacyMap((DiagStep(1.0, -1 + 0j), HStep(1.0, 6.0), GStep(1.0, 3.0)), 1.0, 3.0)
    assert json.loads(_dumps(phi)) == {
        "domain_p": 1.0,
        "codomain_p": 3.0,
        "steps": [
            {"kind": "diag", "p": 1.0, "ratio": [-1.0, 0.0]},
            {"kind": "h", "p": 1.0, "s": 6.0},
            {"kind": "g", "p": 1.0, "q": 3.0},
        ],
    }


# ---------------------------------------------------------------------------
# assembled conjugators


def test_build_conjugator_same_exponent_is_single_h_step():
    phi = build_conjugator(2, 2.0, 4, 2.0)
    assert phi.steps == (HStep(2.0, 2.0),)  # log 4 / log 2 is exactly 2.0
    phi = build_conjugator(0.5, 2.0, 0.25, 2.0)
    assert phi.steps == (HStep(2.0, 2.0),)


def test_build_conjugator_cross_exponent_shapes():
    phi = build_conjugator(2, 1.0, 4, 3.0)
    assert phi.steps == (HStep(1.0, 6.0), GStep(1.0, 3.0))
    # omega^(q/p) B_p vs omega B_q needs no tail rescaling at all
    phi = build_conjugator(2.0 ** (4.0 / 2.0), 2.0, 2, 4.0)
    assert phi.steps == (GStep(2.0, 4.0),)


def test_build_conjugator_identity_and_phase_cases():
    assert build_conjugator(2, 2.0, 2, 2.0).steps == ()
    phi = build_conjugator(-2, 2.0, 2, 2.0)
    assert phi.steps == (DiagStep(2.0, -1 + 0j),)
    phi = build_conjugator(1j, 2.0, 1, 4.0)
    assert phi.steps == (DiagStep(2.0, 1j), GStep(2.0, 4.0))


def test_build_conjugator_rejects_class_mismatch():
    with pytest.raises(ClassMismatchError) as info:
        build_conjugator(0.5, 2.0, 1, 2.0)
    assert info.value.chi_source == -1
    assert info.value.chi_target == 0
    with pytest.raises(ClassMismatchError):
        build_conjugator(2, 2.0, 0.5, 2.0)
    # it is a ValueError subclass so generic error handling still works
    assert issubclass(ClassMismatchError, ValueError)


def test_build_conjugator_validates_inputs():
    with pytest.raises(ValueError):
        build_conjugator(0, 2.0, 2, 2.0)
    with pytest.raises(ValueError):
        build_conjugator(2, 0.5, 2, 2.0)


def _certify(lam, p, om, q, seed=0):
    phi = build_conjugator(lam, p, om, q)
    rep = conjugacy_residual(
        ShiftOperator(Constant(lam), p), ShiftOperator(Constant(om), q), phi, samples=60, seed=seed
    )
    return rep.max_residual


@pytest.mark.parametrize(
    "lam,p,om,q",
    [
        (2, 2.0, 4, 2.0),
        (0.5, 2.0, 0.25, 2.0),
        (2, 1.0, 4, 3.0),
        (3, 2.0, 9, 4.0),
        (-2, 2.0, 2j, 2.0),
        (1j, 2.0, -1, 3.0),
        (0.5, 3.0, 0.9, 1.0),
    ],
)
def test_assembled_conjugators_certify(lam, p, om, q):
    assert _certify(lam, p, om, q) <= 1e-9


def test_intertwining_also_holds_through_the_inverse():
    lam, p, om, q = 2, 1.0, 4, 3.0
    phi = build_conjugator(lam, p, om, q)
    rep = conjugacy_residual(
        ShiftOperator(Constant(om), q), ShiftOperator(Constant(lam), p), phi.inverse(), samples=60, seed=2
    )
    assert rep.max_residual <= 1e-9


def test_residual_report_structure_and_determinism():
    phi = build_conjugator(2, 2.0, 4, 2.0)
    s = ShiftOperator(Constant(2), 2.0)
    t = ShiftOperator(Constant(4), 2.0)
    a = conjugacy_residual(s, t, phi, samples=30, seed=9)
    b = conjugacy_residual(s, t, phi, samples=30, seed=9)
    assert a == b
    residuals = [lp_norm(subtract(phi.apply(apply_shift(s, x)), apply_shift(t, phi.apply(x)))) for x in random_vectors(30, 2.0, 9)]
    assert a.sample_count == 30
    assert a.max_residual == residuals[a.worst_index] == max(residuals)
    assert json.loads(_dumps(a)) == {"max_residual": a.max_residual, "worst_index": a.worst_index, "sample_count": 30, "seed": 9}
    with pytest.raises(ValueError):
        conjugacy_residual(s, t, phi, samples=0)


def test_residual_rejects_exponent_mismatch():
    phi = build_conjugator(2, 2.0, 4, 2.0)
    with pytest.raises(ValueError, match="map domain"):
        conjugacy_residual(ShiftOperator(Constant(2), 1.0), ShiftOperator(Constant(4), 2.0), phi)
    with pytest.raises(ValueError, match="map codomain"):
        conjugacy_residual(ShiftOperator(Constant(2), 2.0), ShiftOperator(Constant(4), 1.0), phi)


# ---------------------------------------------------------------------------
# diagonal similarity


def test_diag_similarity_requires_equal_moduli():
    with pytest.raises(ValueError):
        diag_similarity(2, 3)
    with pytest.raises(ValueError):
        diag_similarity(0, 1)


@pytest.mark.parametrize("lam,om", [(2, -2), (1j, 1), (3 * cmath.exp(1j * math.pi / 7), 3)])
def test_diag_similarity_certifies(lam, om):
    phi = diag_similarity(lam, om)
    rep = conjugacy_residual(
        ShiftOperator(Constant(lam), 2.0), ShiftOperator(Constant(om), 2.0), phi, samples=60, seed=4
    )
    assert rep.max_residual <= 1e-12


def test_diag_similarity_respects_p():
    phi = diag_similarity(2, -2, p=3.0)
    assert phi.domain_p == phi.codomain_p == 3.0
    assert phi.steps == (DiagStep(3.0, -1 + 0j),)


# ---------------------------------------------------------------------------
# class decision


def test_conjugacy_class_decision_examples():
    assert conjugacy_class_decision(2, 1.0, 4, 3.0)
    assert conjugacy_class_decision(1j, 2.0, -1, 4.0)  # both exactly unimodular
    assert not conjugacy_class_decision(0.5, 2.0, 1, 2.0)
    assert not conjugacy_class_decision(2, 2.0, 0.5, 2.0)


def test_conjugacy_class_decision_validates():
    with pytest.raises(ValueError):
        conjugacy_class_decision(0, 2.0, 2, 2.0)
    with pytest.raises(ValueError):
        conjugacy_class_decision(2, 0.0, 2, 2.0)


@pytest.mark.parametrize(
    "use",
    [
        lambda w: conjugacy_class_decision(w, 2.0, 2, 2.0),
        lambda w: diag_similarity(1, w),
        Constant,
        lambda w: Explicit((1, w)),
        lambda w: BalancedBlocks(w, 1),
        lambda w: BalancedBlocks(1, w),
    ],
    ids=["class_decision", "diag_similarity", "constant", "explicit", "blocks_a", "blocks_b"],
)
def test_shift_weights_are_checked_in_one_place(use):
    with pytest.raises(RangeError) as got:
        use(complex(1.5e308, 1.5e308))  # finite parts, modulus beyond float range
    assert str(got.value) == "|(1.5e+308+1.5e+308j)| is beyond float range"
    for bad in (0, math.inf, complex(1, math.nan)):
        with pytest.raises(ValueError, match="weights must be (nonzero|finite)"):
            use(bad)


@given(
    st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]),
    st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]),
    st.sampled_from([1.0, 2.0, 4.0]),
    st.sampled_from([1.0, 2.0, 4.0]),
)
def test_decision_agrees_with_builder(ml, mo, p, q):
    # the decision and the constructive witness must never disagree
    decided = conjugacy_class_decision(ml, p, mo, q)
    try:
        build_conjugator(ml, p, mo, q)
        built = True
    except ClassMismatchError:
        built = False
    assert decided == built


# ---------------------------------------------------------------------------
# the batch kernel against one sample and one coordinate at a time


def _ref_tails(coords, p):
    """Per-suffix fsums, walking from the last coordinate: the first power or tail out of range raises.

    Each suffix is summed in coordinate order, as ``_suffix_fsums`` in
    test_seqspace.py sums it: ``math.fsum`` raises an intermediate overflow
    for (1.5 * 2**969, M/2, M/2), M the largest float, but not for
    (M/2, M/2, 1.5 * 2**969), whose exact sum rounds down to M.
    """
    powers, tails = [], [0.0]
    for k in range(len(coords), 0, -1):
        try:
            powers.append(abs(coords[k - 1]) ** p)
        except OverflowError:
            raise RangeError(f"|x_n|**p at coordinate {k} is beyond float range") from None
        try:
            tails.append(math.fsum(reversed(powers)))
        except OverflowError:
            tails.append(math.inf)
        if tails[-1] == math.inf:
            raise RangeError(f"tail power sum from coordinate {k} is inf: it left float range")
    return tails[::-1]


def _ref_outcome(f):
    try:
        return f()
    except RangeError as e:
        return str(e)


@st.composite
def tail_batches(draw):
    """An exponent and up to four vectors of 0 to 4,100 coordinates, each of one kind.

    The lengths cross the 64-lane cut and powers of two.
    """
    p = draw(st.sampled_from([1.0, 1.5, 2.0, 3.0, 3.7]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    size = st.one_of(st.integers(min_value=0, max_value=130), st.integers(min_value=0, max_value=4100))
    kind = st.sampled_from(["box", "equal", "subnormal", "wide", "near max", "beyond"])
    vectors = []
    for n, k in draw(st.lists(st.tuples(size, kind), min_size=1, max_size=4)):
        phase = np.exp(1j * rng.uniform(-np.pi, np.pi, n))
        if k == "box":
            v = rng.uniform(-10.0, 10.0, n) + 1j * rng.uniform(-10.0, 10.0, n)
        elif k == "equal":  # equal powers: many tails lie exactly halfway between two floats
            v = rng.choice([1, -1, 1j, -1j], n) * rng.choice([0.1, 0.3, 3.0, 7.0])
        elif k == "subnormal":  # powers from the least subnormal up to the least normal float
            v = phase * 10.0 ** (rng.uniform(-323.5, -307.7, n) / p)
        elif k == "wide":  # powers from 1e-300 to 1e300
            v = phase * 10.0 ** (rng.uniform(-300.0, 300.0, n) / p)
        elif k == "near max":  # powers up to 1 with subnormals, then tails that round down to the largest float or overflow
            top = np.array([sys.float_info.max / 2, sys.float_info.max / 2, 1.5 * 2.0**969]) ** (1 / p)
            v = np.append(10.0 ** (rng.uniform(-323.0, 0.0, max(n - 3, 0)) / p), top[: min(n, 3)])
        else:  # one coordinate that is inf, or whose power or modulus is beyond float range
            v = rng.uniform(-10.0, 10.0, n).astype(complex)
            if n:
                v[rng.integers(n)] = [math.inf, 1e200, complex(1.5e308, 1.5e308)][rng.integers(3)]
        vectors.append([complex(c) for c in v])
    return p, vectors


@settings(derandomize=True, max_examples=40, deadline=None)
@given(tail_batches())
@example((2.0, [[complex(*c) for c in np.random.default_rng(0).uniform(-10.0, 10.0, (4100, 2)).tolist()], [], [3 - 4j]]))  # the widest padding: the short rows are 4,101 wide
def test_batch_tails_match_per_suffix_fsums_and_the_walk_s_first_error(batch):
    p, vectors = batch
    # the walk goes from the last vector back, and the first that fails raises
    refs = [_ref_outcome(lambda: _ref_tails(coords, p)[:-1]) for coords in vectors]
    errors = [r for r in refs if isinstance(r, str)]
    want = errors[-1] if errors else [t.hex() for r in refs for t in r]
    got = _ref_outcome(lambda: [t.hex() for t in _tails(_Batch.of(p, _parts(*vectors)))[2].tolist()])
    assert got == want


def test_a_tail_whose_bound_straddles_a_midpoint_is_summed_exactly():
    # the walk meets 1.0 first and then powers summing to 2**-53 + 2**-110,
    # just above the midpoint of 1 and 1 + 2**-52: fl(s + c) is 1.0, and
    # the rounding errors of c's own sum (D > 0) exceed that margin, so the
    # lane is not certified and only the exact pass gives 1 + 2**-52
    tiny = [2.0**-60 + (3 if j % 2 else -3) * 2.0**-110 for j in range(128)] + [2.0**-110]
    coords = tiny + [1.0]
    assert math.fsum(coords) == 1.0 + 2.0**-52
    row = np.array([[0.0] + coords[::-1]])
    r, ok = seqspace._row_tails(row)
    assert r[0, -1] == 1.0 and not ok[0, -1]
    tails = _tails(_Batch.of(1.0, _parts(coords)))[2]
    assert tails[0] == 1.0 + 2.0**-52
    assert [t.hex() for t in tails.tolist()] == [t.hex() for t in _ref_tails(coords, 1.0)[:-1]]


def test_a_running_sum_that_overflows_near_the_largest_float_still_rounds_exactly():
    # the walk meets 1.5 * 2**969, then M/2 twice: the running float sum
    # reaches M + 2**970, a tie that rounds to inf, and so does fsum in the
    # walk's order, while the exact tail M + 1.5 * 2**969 rounds down to M;
    # the tails from 2**960 and 1.0 stay below the midpoint, and 2**969
    # more crosses it
    half = sys.float_info.max / 2
    coords = [1.0, 2.0**960, half, half, 1.5 * 2.0**969]
    with pytest.raises(OverflowError):
        math.fsum(coords[::-1])
    with np.errstate(over="ignore", invalid="ignore"):
        r, ok = seqspace._row_tails(np.array([[0.0] + coords[::-1]]))
    assert not np.isfinite(r[0, 3:]).any() and not ok[0, 3:].any()
    tails = _tails(_Batch.of(1.0, _parts(coords)))[2].tolist()
    assert tails == [sys.float_info.max] * 3 + [2.0**1023, 1.5 * 2.0**969]
    assert [t.hex() for t in tails] == [t.hex() for t in _ref_tails(coords, 1.0)[:-1]]
    with pytest.raises(RangeError, match=r"^tail power sum from coordinate 1 is inf: it left float range$"):
        _tails(_Batch.of(1.0, _parts([2.0**969] + coords)))


def _ref_pow_diff(a, b, d, s):
    """a**s - b**s for a = b + d, by expm1/log1p when a < 2b; inf when it overflows."""
    try:
        if b == 0.0:
            return a**s
        if d / b < 1.0:
            return (b**s) * math.expm1(s * math.log1p(d / b))
        return a**s - b**s
    except OverflowError:
        return math.inf


def _ref_step(st, coords, p):
    """One step of a conjugator, coordinate by coordinate."""
    if isinstance(st, DiagStep):
        factor, out = 1 + 0j, []
        for i, c in enumerate(coords):
            if i:
                factor *= st.ratio
            out.append(factor * c)
        return out
    if isinstance(st, HStep):
        tails, out = _ref_tails(coords, p), []
        for n, c in enumerate(coords, 1):
            if c == 0:
                out.append(0j)
                continue
            m = abs(c)
            diff = _ref_pow_diff(tails[n - 1], tails[n], m**p, st.s)
            if diff == math.inf:
                raise RangeError(f"h_map image at coordinate {n} is beyond float range (s = {st.s!r})")
            out.append((c / m) * diff ** (1.0 / p))
        return out
    out = []
    for n, c in enumerate(coords, 1):
        if c == 0:
            out.append(0j)
            continue
        try:
            m = abs(c)
        except OverflowError:
            raise RangeError(f"|x_n| at coordinate {n} is beyond float range") from None
        try:
            out.append((c / m) * m ** (p / st.q))
        except OverflowError:
            raise RangeError(f"g_map image at coordinate {n} is beyond float range (q = {st.q!r})") from None
    return out


def _ref_apply(phi, coords):
    p = phi.domain_p
    for st in phi.steps:
        coords = _ref_step(st, coords, p)
        p = st.codomain_p
    return coords


def _ref_shift(t, coords):
    return [t.weights.value * c for c in coords[1:]]


def _ref_norm(coords, p):
    moduli = [abs(c) for c in coords]
    try:
        return math.fsum([m**p for m in moduli]) ** (1.0 / p)
    except OverflowError:
        top = max(moduli)
        return top * math.fsum([(m / top) ** p for m in moduli]) ** (1.0 / p)


def _ref_residual(source, target, phi, samples, seed):
    """(max_residual.hex(), worst_index) of conjugacy_residual, one sample after another."""
    residuals = []
    for x in random_vectors(samples, source.p, seed):
        lhs = _ref_apply(phi, _ref_shift(source, list(x.coords)))
        rhs = _ref_shift(target, _ref_apply(phi, list(x.coords)))
        residuals.append(_ref_norm([a - b for a, b in zip(lhs, rhs)], target.p))
    worst = max(range(len(residuals)), key=residuals.__getitem__)
    return residuals[worst].hex(), worst


def _residual_outcome(f):
    try:
        return f()
    except RangeError as e:
        return str(e)


@st.composite
def conjugate_pairs(draw):
    """Constant shifts lam B_p and omega B_q in one class, moduli 1e-300 to 1e300, any phases."""
    log_ml = draw(st.floats(min_value=-300.0, max_value=300.0))
    log_mo = math.copysign(draw(st.floats(min_value=0.0, max_value=300.0)), log_ml)
    phase = st.one_of(st.just(0.0), st.floats(min_value=-math.pi, max_value=math.pi))
    lam = cmath.rect(10.0**log_ml, draw(phase))
    omega = cmath.rect(10.0**log_mo, draw(phase))
    p, q = (draw(st.floats(min_value=1.0, max_value=8.0)) for _ in range(2))
    return lam, p, omega, q


@settings(derandomize=True, max_examples=300, deadline=None)
@given(conjugate_pairs(), st.integers(min_value=1, max_value=50), st.integers(min_value=0, max_value=2**32 - 1))
def test_residual_batch_matches_a_serial_reference(pair, samples, seed):
    lam, p, omega, q = pair
    assume(conjugacy_class_decision(lam, p, omega, q))
    phi = build_conjugator(lam, p, omega, q)
    source, target = ShiftOperator(Constant(lam), p), ShiftOperator(Constant(omega), q)
    got = _residual_outcome(lambda: (lambda r: (r.max_residual.hex(), r.worst_index))(conjugacy_residual(source, target, phi, samples, seed)))
    assert got == _residual_outcome(lambda: _ref_residual(source, target, phi, samples, seed))


# the second pair's first failure is sample 8's: a tail sum beyond float range
@pytest.mark.parametrize("lam,p,omega,q", [(2j, 1.5, complex(-1.2, 0.9), 2.0), (10.0**37.32, 8.0, 2.0, 1.0)])
def test_residual_samples_split_into_batches_agree_with_the_serial_reference(monkeypatch, lam, p, omega, q):
    monkeypatch.setattr(conjugacy, "_BATCH", 3)
    phi = build_conjugator(lam, p, omega, q)
    source, target = ShiftOperator(Constant(lam), p), ShiftOperator(Constant(omega), q)
    got = _residual_outcome(lambda: (lambda r: (r.max_residual.hex(), r.worst_index))(conjugacy_residual(source, target, phi, 10, 12)))
    assert got == _residual_outcome(lambda: _ref_residual(source, target, phi, 10, 12))


def _parts(*vectors):
    return [np.array([[c.real, c.imag] for c in map(complex, v)]).reshape(-1, 2) for v in vectors]


def _bits(coords):
    return [(c.real.hex(), c.imag.hex()) for c in coords]


def test_kernels_keep_the_sign_of_zero_parts_as_python_complexes_do():
    coords = [complex(-0.0, 1.0), complex(0.0, -0.0), complex(-0.0, -2.0), complex(3.0, -0.0), complex(-0.0, -0.0)]
    batch = _Batch.of(2.0, _parts(coords, coords[::-1]))
    for st_ in (HStep(2.0, 0.7), GStep(2.0, 3.0), DiagStep(2.0, complex(-0.0, 1.0)), DiagStep(2.0, -1 + 0j)):
        images = st_.on_batch(batch).vectors()
        assert [_bits(y.coords) for y in images] == [_bits(_ref_step(st_, v, 2.0)) for v in (coords, coords[::-1])]
    shifted = _shift(ShiftOperator(Constant(complex(-0.0, 1.0)), 2.0), batch).vectors()
    assert [_bits(y.coords) for y in shifted] == [_bits(complex(-0.0, 1.0) * c for c in v[1:]) for v in (coords, coords[::-1])]


def test_a_zero_coordinate_inside_a_vector_maps_to_plus_zero():
    x = (1 + 2j, complex(-0.0, -0.0), 3 - 1j)
    for image in (h_map(FinSeqVector(2.0, x), 2.5), g_map(FinSeqVector(2.0, x), 3.0)):
        assert _bits(image.coords[1:2]) == _bits([0j])
    batch = _Batch.of(2.0, _parts((0.5,), x, (0j,), ()))
    images = HStep(2.0, 2.5).on_batch(batch).vectors()
    assert [_bits(y.coords) for y in images] == [_bits(h_map(FinSeqVector(2.0, v), 2.5).coords) for v in ((0.5,), x, (0j,), ())]


def test_the_error_of_a_batch_is_the_first_sample_s_lhs_before_rhs():
    # sample 0 fails only on the rhs, where h sees |1e200|**2; sample 3 fails
    # on the lhs, where the shift puts 1e150 * 1e10 at coordinate 2
    lam, p = 1e150, 2.0
    phi = build_conjugator(lam, p, 2.0, p)
    source, target = ShiftOperator(Constant(lam), p), ShiftOperator(Constant(2.0), p)
    samples = _parts((1e200, 1), (1, 1), (1, 1), (1, 1, 1e10))
    with pytest.raises(RangeError, match=r"^\|x_n\|\*\*p at coordinate 2 ") :
        _residuals(source, target, phi, samples[3:])
    with pytest.raises(RangeError, match=r"^\|x_n\|\*\*p at coordinate 1 "):
        _residuals(source, target, phi, samples)
