"""Vector arithmetic, weight generators, and shift application."""

import cmath
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    h_map,
    lp_norm,
    max_coord_diff,
    random_vectors,
    subtract,
    tail_power_sums,
    vector_from_dict,
    vector_to_dict,
    weights_to_dict,
)
from shiftlab import dynamics
from shiftlab import seqspace

# ---------------------------------------------------------------------------
# strategies

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
coord = st.builds(complex, finite, finite)
coords = st.lists(coord, min_size=0, max_size=32).map(tuple)
exponent = st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.0])
vectors = st.builds(FinSeqVector, exponent, coords)

nonzero_scalar = st.builds(complex, finite, finite).filter(lambda z: abs(z) > 1e-3)


# ---------------------------------------------------------------------------
# vectors


def test_vector_validation():
    with pytest.raises(ValueError):
        FinSeqVector(0.5, (1,))
    with pytest.raises(ValueError):
        FinSeqVector(float("inf"), (1,))
    x = FinSeqVector(2, (1, 1j))
    assert x.p == 2.0
    assert x.coords == (1 + 0j, 1j)


def test_lp_norm_hand_values():
    # (3, 4) in l^2 has norm 5; in l^1 norm 7
    assert lp_norm(FinSeqVector(2.0, (3, 4))) == 5.0
    assert lp_norm(FinSeqVector(1.0, (3, 4))) == 7.0
    assert lp_norm(FinSeqVector(2.0, ())) == 0.0


def test_lp_norm_scales_an_overflowing_power_sum():
    # the power sums 2e400 and 2e308 overflow; the norms fit or do not
    assert lp_norm(FinSeqVector(2.0, (1e200, 1e200))) == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-15)
    assert lp_norm(FinSeqVector(3.0, (1e200j,))) == pytest.approx(1e200, rel=1e-15)
    assert lp_norm(FinSeqVector(1.0, (1e308, 1e308))) == math.inf


def test_lp_norm_of_a_nan_coordinate_is_nan_after_any_earlier_overflow():
    # abs() of a complex with a nan part can raise a stale OverflowError
    # that an earlier caught overflow left behind
    try:
        1e200**2.0
    except OverflowError:
        pass
    assert math.isnan(lp_norm(FinSeqVector(2.0, (complex(math.nan, 0), 1))))
    # a modulus beyond float range makes the norm inf, as a norm beyond it does
    assert lp_norm(FinSeqVector(2.0, (1, complex(1.5e308, 1.5e308)))) == math.inf
    # also when another coordinate's power overflows first
    assert lp_norm(FinSeqVector(2.0, (1e200, complex(1.5e308, 1.5e308)))) == math.inf
    assert math.isnan(lp_norm(FinSeqVector(2.0, (1e200, complex(1.5e308, 1.5e308), complex(math.nan, 0)))))
    # and when the finite moduli beside an inf one sum beyond float range
    assert lp_norm(FinSeqVector(1.0, (complex(1.5e308, 1.5e308), 1.7e308, 1.7e308))) == math.inf


@given(vectors)
def test_lp_norm_matches_naive_sum(x):
    naive = sum(abs(c) ** x.p for c in x.coords) ** (1 / x.p) if x.coords else 0.0
    assert lp_norm(x) == pytest.approx(naive, rel=1e-12, abs=1e-300)


@given(vectors)
def test_tail_sums_telescope(x):
    # t_k - t_{k+1} reproduces |x_k|^p up to rounding of the tails themselves
    tails = tail_power_sums(x)
    assert tails[-1] == 0.0
    assert len(tails) == len(x.coords) + 1
    for k, c in enumerate(x.coords):
        d = abs(c) ** x.p
        assert abs((tails[k] - tails[k + 1]) - d) <= 1e-12 * (tails[k] + d)


def _suffix_fsums(x):
    """The per-suffix reference: an independent fsum over every suffix."""
    powers = [abs(c) ** x.p for c in x.coords]
    return [math.fsum(powers[i:]) for i in range(len(powers))] + [0.0]


def _bits(values):
    return [v.hex() for v in values]


@st.composite
def tail_vectors(draw):
    p = draw(st.floats(min_value=1.0, max_value=8.0))
    # log10 of |x_n|**p: from the subnormal range up to 1e300
    log_power = st.floats(min_value=-320.0, max_value=300.0)
    phase = st.floats(min_value=-math.pi, max_value=math.pi)
    spread = st.builds(lambda e, t: cmath.rect(10.0 ** (e / p), t), log_power, phase)
    m0 = 10.0 ** (draw(log_power) / p)
    near = st.builds(
        lambda j, unit: (m0 + j * math.ulp(m0)) * unit,
        st.integers(min_value=-4, max_value=4),
        st.sampled_from([1, -1, 1j, -1j]),
    )
    coord = st.one_of(st.just(0j), spread, near)
    return FinSeqVector(p, tuple(draw(st.lists(coord, max_size=40))))


@given(tail_vectors())
@settings(max_examples=300)
def test_tail_power_sums_match_per_suffix_fsums_bit_for_bit(x):
    assert _bits(tail_power_sums(x)) == _bits(_suffix_fsums(x))


def test_tail_power_sums_is_not_a_running_sum():
    # 1.0 enters the reverse pass first; each later 2**-60 is below half its
    # ulp, so a running total stays at 1.0 while the exact tail rounds up
    x = FinSeqVector(2.0, (2.0**-30,) * 1000 + (1.0,))
    tails = tail_power_sums(x)
    running = np.cumsum([abs(c) ** 2 for c in reversed(x.coords)])[::-1]
    assert running[0] == 1.0
    assert tails[0] == 1.0 + 2.0**-50
    assert _bits(tails) == _bits(_suffix_fsums(x))


def test_tail_power_sums_range_errors_name_the_coordinate():
    assert tail_power_sums(FinSeqVector(2.0, ())) == [0.0]
    # the power itself overflows
    with pytest.raises(RangeError, match="coordinate 2"):
        tail_power_sums(FinSeqVector(2.0, (1.0, 1e200)))
    # each power fits but their sum does not
    with pytest.raises(RangeError, match="coordinate 1"):
        tail_power_sums(FinSeqVector(2.0, (1e154, 1e154, 1.0)))


INF, NAN = complex(math.inf, 0.0), complex(math.nan, 0.0)


# walking from the last coordinate to the first, the first failure wins
@pytest.mark.parametrize(
    "p, coords, message",
    [
        (2.0, (1e200, 1e154, 1e154), "tail power sum from coordinate 2 is inf: it left float range"),
        (2.0, (1e200, INF), "tail power sum from coordinate 2 is inf: it left float range"),
        (2.0, (1, NAN, 2), "tail power sum from coordinate 2 is nan: it left float range"),
        (2.0, (NAN, 1e200), "|x_n|**p at coordinate 2 is beyond float range"),
        (2.0, (1e200, NAN), "tail power sum from coordinate 2 is nan: it left float range"),
        # every power is at least 2**53, so the tails are integers over 2**0
        (2.0, (1e154, 1e154), "tail power sum from coordinate 1 is inf: it left float range"),
        # the tails before the bad power overflow, but the walk meets the power first
        (2.0, (1e154, 1e154, 1e200), "|x_n|**p at coordinate 3 is beyond float range"),
        (1.0, (2.0**53, sys.float_info.max, sys.float_info.max), "tail power sum from coordinate 2 is inf: it left float range"),
        # a finite coordinate whose modulus itself is beyond float range
        (2.0, (NAN, complex(1.5e308, 1.5e308)), "|x_n|**p at coordinate 2 is beyond float range"),
    ],
)
@pytest.mark.parametrize("kernel", [tail_power_sums, lambda x: h_map(x, 0.5)], ids=["tail_power_sums", "h_map"])
def test_tail_range_errors_keep_their_coordinate_and_text(p, coords, message, kernel):
    with pytest.raises(RangeError) as caught:
        kernel(FinSeqVector(p, coords))
    assert str(caught.value) == message
    # abs() of a complex with a nan part can raise a stale OverflowError that
    # an earlier overflow left behind; the error must not depend on it
    with pytest.raises(OverflowError):
        1e200**2.0
    with pytest.raises(RangeError) as caught:
        kernel(FinSeqVector(p, coords))
    assert str(caught.value) == message


def test_a_tail_that_rounds_to_the_largest_float_is_not_an_error():
    # the exact sum is 2.5 * 2**969 below 2**1024, so it rounds down to the
    # largest float; a running float sum rounds M/2 + 1.5 * 2**969 up first
    # and then overflows
    top = sys.float_info.max
    powers = (top / 2, top / 2, 1.5 * 2.0**969)
    x = FinSeqVector(1.0, powers)
    assert tail_power_sums(x)[0] == top == math.fsum(powers)
    assert _bits(tail_power_sums(x)) == _bits(_suffix_fsums(x))


def _pow_diff(a, b, d, s):
    """a**s - b**s for a = b + d >= b >= 0, with the exact increment d.

    For a < 2b the difference is b**s * expm1(s * log1p(d / b)), which has
    small relative error even when a**s and b**s agree to many digits;
    otherwise direct subtraction is safe.
    """
    if b == 0.0:
        return a**s
    r = d / b
    if r < 1.0:
        return (b**s) * math.expm1(s * math.log1p(r))
    return a**s - b**s


def _h_map_reference(x, s):
    """h_map coordinate by coordinate: per-suffix fsums and the ``_pow_diff`` formula."""
    tails = _suffix_fsums(x)
    coords = []
    for i, c in enumerate(x.coords):
        if c == 0:
            coords.append(0j)
            continue
        m = abs(c)
        try:
            diff = _pow_diff(tails[i], tails[i + 1], m**x.p, s)
        except OverflowError:
            diff = math.inf
        if diff == math.inf:
            raise RangeError(f"h_map image at coordinate {i + 1} is beyond float range (s = {s!r})")
        coords.append((c / m) * diff ** (1.0 / x.p))
    return coords


def _outcome(f, *args):
    try:
        return [(c.real.hex(), c.imag.hex()) for c in f(*args)]
    except RangeError as e:
        return str(e)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(tail_vectors(), st.floats(min_value=1e-3, max_value=1e3))
def test_h_map_matches_a_per_coordinate_reference_bit_for_bit(x, s):
    assert _outcome(lambda: h_map(x, s).coords) == _outcome(_h_map_reference, x, s)


@given(vectors, nonzero_scalar)
def test_scale_and_subtract(x, c):
    y = FinSeqVector(x.p, tuple(c * v for v in x.coords))
    assert max_coord_diff(subtract(y, x), FinSeqVector(x.p, tuple((c - 1) * v for v in x.coords))) < 1e-9
    assert max_coord_diff(subtract(x, x), FinSeqVector(x.p, ())) == 0.0


def test_subtract_pads_support():
    x = FinSeqVector(2.0, (1, 2, 3))
    y = FinSeqVector(2.0, (1,))
    assert subtract(x, y).coords == (0j, 2 + 0j, 3 + 0j)
    with pytest.raises(ValueError):
        subtract(x, FinSeqVector(1.0, (1,)))


# ---------------------------------------------------------------------------
# weight generators


def _blocks_oracle(a, b, a_first, n):
    """Brute-force block layout: pair k is k firsts then k seconds."""
    first, second = (a, b) if a_first else (b, a)
    seq = []
    k = 1
    while len(seq) < n:
        seq.extend([first] * k + [second] * k)
        k += 1
    return seq[:n]


def test_weight_validation():
    with pytest.raises(ValueError):
        Constant(0)
    with pytest.raises(ValueError):
        Explicit(())
    with pytest.raises(ValueError):
        Explicit((1, 0, 1))
    with pytest.raises(ValueError):
        BalancedBlocks(0, 2)
    with pytest.raises(ValueError):
        PowerLawBeta(float("nan"))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(1, math.nan), complex(math.inf, 1)])
def test_weights_must_be_finite(bad):
    for make in (Constant, lambda v: Explicit((1, v, 2)), lambda v: BalancedBlocks(1, v), lambda v: BalancedBlocks(v, 1)):
        with pytest.raises(ValueError, match="finite"):
            make(bad)


def test_weight_at_families():
    assert Constant(3 - 1j).weight_range(16, 17)[0] == 3 - 1j
    w = Explicit((1, 2, 3))
    assert [w.weight_range(i - 1, i)[0] for i in (1, 2, 3)] == [1, 2, 3]
    with pytest.raises(IndexError):
        w.weight_range(3, 4)
    assert PowerLawBeta(0.5).weight_range(0, 1)[0] == 1
    assert PowerLawBeta(0.5).weight_range(1, 2)[0] == pytest.approx(math.sqrt(2), rel=1e-15)


@pytest.mark.parametrize("a_first", [True, False])
def test_blocks_weights_match_brute_force(a_first):
    w = BalancedBlocks(2.0, 0.5, a_first)
    expect = _blocks_oracle(2.0, 0.5, a_first, 300)
    got = [w.weight_range(n - 1, n)[0] for n in range(1, 301)]
    assert got == expect


def test_blocks_first_second_roles():
    w = BalancedBlocks(2.0, 0.5, a_first=False)
    assert w.first == 0.5
    assert w.second == 2.0


@pytest.mark.parametrize(
    "weights,error,message",
    [
        ((1, 0, math.nan), ValueError, "weights must be nonzero"),
        ((1, complex(math.nan, 1), 0), ValueError, "weights must be finite, got (nan+1j)"),
        ((1, -0.0j, "x"), ValueError, "weights must be nonzero"),  # complex() refuses "x", after the zero
        ((2, "x", 0), ValueError, "complex() arg is a malformed string"),
        ((1, 0, None), ValueError, "weights must be nonzero"),
        ((1, None, 0), TypeError, "complex() first argument must be a string or a number, not 'NoneType'"),
        ((1, 0, 10**400), ValueError, "weights must be nonzero"),
        ((1, 10**400, 0), OverflowError, "int too large to convert to float"),
        ((1, 1.5e308 + 1.5e308j, 0), RangeError, "|(1.5e+308+1.5e+308j)| is beyond float range"),
    ],
)
def test_explicit_raises_for_the_first_failing_weight_in_list_order(weights, error, message):
    # the message of the per-weight check of each weight in turn
    with pytest.raises(error) as reference:
        for v in weights:
            seqspace._checked_weight(v)
    assert str(reference.value) == message
    with pytest.raises(error) as got:
        Explicit(weights)
    assert str(got.value) == message
    with pytest.raises(error) as got:  # a one-pass iterable too
        Explicit(iter(weights))
    assert str(got.value) == message


def test_explicit_to_dict_matches_the_per_weight_forms_bit_for_bit():
    rng = np.random.default_rng(7)
    parts = rng.uniform(-10.0, 10.0, (2000, 2))
    signed_zeros = (complex(-0.0, 1.0), complex(2.0, -0.0), complex(-0.0, -3.5), complex(-1.5, 0.0), 5e-324j)
    for ws in (
        (*signed_zeros, *(complex(a, b) for a, b in parts.tolist())),
        (3 + 4j,),
    ):
        w = Explicit(ws)
        pairs = w.to_dict()["weights"]
        assert [[x.hex() for x in pair] for pair in pairs] == [[complex(v).real.hex(), complex(v).imag.hex()] for v in ws]
        assert all(type(x) is float for pair in pairs for x in pair)


def test_explicit_owns_one_read_only_complex128_array():
    given = np.array([2.0, 0.5j, -3.0, 1.5 + 1j])
    listed = [2.0, 0.5j, -3.0, 1.5 + 1j]
    for source in (given, listed):
        w = Explicit(source)
        assert w.weights.dtype == np.complex128 and w.weights.shape == (4,)
        assert not w.weights.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            w.weights[0] = 7.0
        profile, pairs = w.log_abs_profile(0, 4), w.to_dict()
        source[0] = 7.0  # the caller's input
        w.weight_range(0, 4)[1] = 7.0  # a range the list handed out
        assert w.weights.tolist() == [2.0, 0.5j, -3.0, 1.5 + 1j]
        assert [x.hex() for x in w.log_abs_profile(0, 4)] == [x.hex() for x in profile]
        assert w.to_dict() == pairs


def test_explicit_lists_compare_by_identity():
    w = Explicit((1.0, 2.0))
    assert w == w and w != Explicit((1.0, 2.0))
    assert ShiftOperator(w, 2.0) == ShiftOperator(w, 2.0)
    assert hash(w) == hash(w)


# ---------------------------------------------------------------------------
# the five-method protocol of the weight families


def _pair_index_reference(n):
    """The k with k(k-1) < n <= k(k+1)."""
    k = math.isqrt(n)
    while k * (k - 1) >= n:
        k -= 1
    while k * (k + 1) < n:
        k += 1
    return k


def _weight_at_reference(w, n):
    """The n-th weight, one index at a time, per family."""
    if isinstance(w, Constant):
        return w.value
    if isinstance(w, Explicit):
        return w.weights[n - 1]
    if isinstance(w, BalancedBlocks):
        k = _pair_index_reference(n)
        return w.first if n - k * (k - 1) <= k else w.second
    if n == 1:
        return 1 + 0j
    return complex((n / (n - 1)) ** w.alpha)


def _beta_profile_reference(w, n):
    """log |beta(k)| for k = 1..n, one whole-profile closed form per family."""
    if isinstance(w, Constant):
        return np.arange(1, n + 1, dtype=np.float64) * math.log(abs(w.value))
    if isinstance(w, PowerLawBeta):
        return w.alpha * np.log(np.arange(1, n + 1, dtype=np.float64))
    if isinstance(w, Explicit):
        return np.cumsum(np.log(np.abs(np.asarray(w.weights[:n], dtype=np.complex128))))
    idx = np.arange(1, n + 1, dtype=np.int64)
    bounds = np.array([k * (k + 1) for k in range(1, _pair_index_reference(n) + 1)], dtype=np.int64)
    k = np.searchsorted(bounds, idx, side="left") + 1
    m = idx - k * (k - 1)
    full = k * (k - 1) // 2
    ca = full + np.minimum(m, k)
    cb = full + np.maximum(0, m - k)
    shared = np.minimum(ca, cb)
    la = math.log(abs(w.first))
    lb = math.log(abs(w.second))
    lab = math.log(abs(w.first) * abs(w.second))
    return shared * lab + (ca - shared) * la + (cb - shared) * lb


_modulus = st.floats(min_value=0.05, max_value=20.0)
_phase = st.floats(min_value=-math.pi, max_value=math.pi)
_weight = st.builds(cmath.rect, _modulus, _phase)


@st.composite
def _family_ranges(draw):
    hi = draw(st.integers(min_value=1, max_value=2000))
    lo = draw(st.integers(min_value=0, max_value=hi - 1))
    family = draw(st.sampled_from(["constant", "explicit", "blocks", "powerlaw"]))
    if family == "constant":
        w = Constant(draw(_weight))
    elif family == "explicit":
        rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
        moduli = rng.uniform(0.05, 20.0, hi + draw(st.integers(0, 3)))
        w = Explicit(tuple(cmath.rect(m, t) for m, t in zip(moduli, rng.uniform(-math.pi, math.pi, moduli.size))))
    elif family == "blocks":
        w = BalancedBlocks(draw(_weight), draw(_weight), draw(st.booleans()))
    else:
        w = PowerLawBeta(draw(st.floats(min_value=-3.0, max_value=3.0)))
    return w, lo, hi


@given(_family_ranges())
@settings(max_examples=200, deadline=None)
def test_protocol_ranges_match_per_index_and_whole_profile_bit_for_bit(case):
    w, lo, hi = case
    ws = w.weight_range(lo, hi)
    ref = np.array([_weight_at_reference(w, n) for n in range(lo + 1, hi + 1)], dtype=np.complex128)
    assert ws.dtype == np.complex128 and ws.tobytes() == ref.tobytes()
    prof = w.log_abs_profile(lo, hi)
    assert prof.dtype == np.float64
    assert prof.tobytes() == beta_profile(w, hi)[lo:].tobytes() == _beta_profile_reference(w, hi)[lo:].tobytes()


def _blocks_reference(w, lo, hi):
    """weight_range and log_abs_profile of blocks over lo < n <= hi, position by position.

    Each position finds its pair k with a search over the pair ends and its
    offset t = n - k*k, and the profile is shared * log|first*second| plus
    excess * log|first| in int64 counts.
    """
    n = np.arange(lo + 1, hi + 1, dtype=np.int64)
    k0 = max(math.isqrt(lo), 1)
    ends = np.arange(k0, math.isqrt(hi) + 2, dtype=np.int64)
    ends *= ends + 1
    k = np.searchsorted(ends, n) + k0
    t = n - k * k
    la = math.log(abs(w.first))
    m = abs(w.first) * abs(w.second)
    lm = math.log(m) if 0.0 < m < math.inf else la + math.log(abs(w.second))
    profile = (k * (k - 1) // 2 + np.maximum(t, 0)) * lm + (k - np.abs(t)) * la
    return np.where(t <= 0, w.first, w.second), profile


_LEAF = dynamics._LEAF  # horizon_evidence asks for chunks of up to _LEAF terms
_K52 = 2**26 - 1  # pair _K52 ends at 2**52 - 2**26, the last pair end in the exact domain of the counts
_BLOCK_PAIRS = [
    (2.0, 0.5),
    (1.4 + 0.3j, 0.7j),
    (1.0, 3.0),
    (1e200, 1e200),  # |first * second| overflows
    (1e-200, 1e-200),  # |first * second| underflows
    (1e200, 1e-200),
]


def _pair_boundary(k, which):
    return (k * (k - 1), k * k, k * (k + 1))[which]


@st.composite
def _block_ranges(draw):
    if draw(st.booleans()):
        lo = draw(st.integers(0, 10**9))
    else:  # start where a pair or block ends, or one off it
        lo = max(_pair_boundary(draw(st.integers(1, 10**4)), draw(st.integers(0, 2))) + draw(st.integers(-1, 1)), 0)
    if draw(st.booleans()):
        hi = lo + draw(st.integers(0, 3 * _LEAF))
    else:  # end where a pair or block ends
        k = math.isqrt(lo) + draw(st.integers(0, 2 * math.isqrt(3 * _LEAF)))
        hi = min(max(_pair_boundary(k, draw(st.integers(0, 2))), lo), lo + 3 * _LEAF)
    a, b = draw(st.sampled_from(_BLOCK_PAIRS))
    return BalancedBlocks(a, b, draw(st.booleans())), lo, hi


@given(_block_ranges())
@example((BalancedBlocks(2.0, 0.5), 0, 0))
@example((BalancedBlocks(1e200, 1e200), 0, 3 * _LEAF))
@example((BalancedBlocks(1e-200, 1e-200, False), 10**8 - 1, 10**8 + 3 * _LEAF))
@example((BalancedBlocks(2.0, 0.5), 9999 * 10000, 9999 * 10000))
@example((BalancedBlocks(2.0, 0.5, False), 10**9 - 3 * _LEAF, 10**9))  # up to the largest --horizon
@example((BalancedBlocks(1.4 + 0.3j, 0.7j), 0, 1))  # the single position n = 1
@example((BalancedBlocks(1e200, 1e200), _K52 * (_K52 + 1) - _LEAF, _K52 * (_K52 + 1) + _LEAF))  # below 2**52
@settings(max_examples=300, deadline=None)
def test_block_ranges_match_the_position_by_position_reference_bit_for_bit(case):
    w, lo, hi = case
    weights, profile = _blocks_reference(w, lo, hi)
    got_weights, got_profile = w.weight_range(lo, hi), w.log_abs_profile(lo, hi)
    assert got_weights.dtype == weights.dtype == np.complex128
    assert got_weights.tobytes() == weights.tobytes()
    assert got_profile.dtype == profile.dtype == np.float64
    assert got_profile.tobytes() == profile.tobytes()


@st.composite
def _chunk_ranges(draw):
    """A family of any kind, a range of at most one chunk drawn as ``_block_ranges`` draws it, and an offset."""
    family = draw(st.sampled_from(["constant", "explicit", "blocks", "powerlaw"]))
    if family == "explicit":  # the list must hold the range
        lo = draw(st.integers(0, 3 * _LEAF))
    elif draw(st.booleans()):
        lo = draw(st.integers(0, 10**9))
    else:  # start where a pair or block ends, or one off it
        lo = max(_pair_boundary(draw(st.integers(1, 10**4)), draw(st.integers(0, 2))) + draw(st.integers(-1, 1)), 0)
    hi = lo + draw(st.integers(0, _LEAF))
    if family == "constant":
        w = Constant(draw(_weight))
    elif family == "explicit":
        w = Explicit(tuple(np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(0.05, 20.0, hi + 1)))
    elif family == "blocks":
        a, b = draw(st.sampled_from(_BLOCK_PAIRS))
        w = BalancedBlocks(a, b, draw(st.booleans()))
    else:
        w = PowerLawBeta(draw(st.floats(min_value=-3.0, max_value=3.0)))
    return w, lo, hi, draw(st.integers(0, 15))


@given(_chunk_ranges())
@example((PowerLawBeta(0.5), 10**9 - _LEAF, 10**9, 3))  # up to the largest --horizon
@example((BalancedBlocks(2.0, 0.5), 0, _LEAF, 1))
@example((Constant(0.5), 0, 0, 0))
@settings(max_examples=200, deadline=None)
def test_profile_written_into_a_view_has_the_bits_of_a_fresh_one(case):
    w, lo, hi, offset = case
    buf = np.full(offset + hi - lo + 8, math.nan)
    view = buf[offset : offset + hi - lo]
    assert w.log_abs_profile(lo, hi, out=view) is view
    assert view.tobytes() == w.log_abs_profile(lo, hi).tobytes()
    assert np.isnan(buf[:offset]).all() and np.isnan(buf[offset + hi - lo :]).all()


def test_whole_range_block_profile_takes_little_more_memory_than_its_output():
    w = BalancedBlocks(2.0, 0.5)
    tracemalloc.start()
    try:
        w.log_abs_profile(0, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * 10**6  # the output is 10**6 float64 entries, 7.63 MiB


_FAMILIES = [
    Constant(0.5 + 0.5j),
    Explicit((2, 0.5j, -3, 1 + 1j, 0.25, 1.1, 0.9, 7, 1 / 3, 2.5) * 30),
    BalancedBlocks(3.0, 0.25, a_first=False),
    PowerLawBeta(0.37),
]


@st.composite
def _bounded_ranges(draw):
    """A family and a nonempty range lo < n <= hi for ``log_abs_bounds``."""
    if draw(st.booleans()):
        return draw(_family_ranges())
    w, lo, hi = draw(_block_ranges())  # ranges on and inside blocks, |ab| = 1, != 1 and beyond float range
    return w, lo, max(hi, lo + 1)


@given(_bounded_ranges())
@example((BalancedBlocks(2.0, 0.5), 99 * 100 + 3, 100 * 100 - 2))  # inside a first block
@example((BalancedBlocks(0.5, 2.0, False), 100 * 100 + 3, 100 * 101 - 1))  # inside a second block
@example((BalancedBlocks(1.4, 0.55, False), 10**6 + 5, 10**6 + 3 * _LEAF))  # |ab| < 1
@example((BalancedBlocks(1.4, 0.85, False), 0, 3 * _LEAF))  # |ab| > 1
@example((BalancedBlocks(1e300, 1e300), 7, 5000))  # |ab| beyond float range
@example((BalancedBlocks(1e-300, 1e-300, False), 7, 5000))  # |ab| below float range
# np.log(9170) is below math.log(9170) and np.log(94869) above math.log(94869)
# (numpy 2.4.6 on x86-64 glibc 2.36), so both ends need their widening
@example((PowerLawBeta(1.0), 9169, 9200))
@example((PowerLawBeta(-1.0), 9169, 9200))
@example((PowerLawBeta(1.0), 94000, 94869))
@example((PowerLawBeta(1e308), 0, 100))
@example((PowerLawBeta(-1e308), 0, 100))
@example((PowerLawBeta(1e308), 3, 100))
@example((Constant(1.0), 0, 1000))
@example((Constant(-1j), 5, 1000))
@example((Constant(cmath.rect(1.0, 0.7)), 0, 1000))
@example((Constant(1e-300), 10**8, 10**8 + 10))
@example((BalancedBlocks(2.0, 0.5), 10**9 - 3 * _LEAF, 10**9))  # up to the largest --horizon
@example((BalancedBlocks(0.5, 2.0), 0, 1))  # the single position n = 1
@example((BalancedBlocks(1.4, 0.55, False), _K52 * (_K52 + 1) - _LEAF, _K52 * (_K52 + 1) + _LEAF))  # below 2**52
@settings(max_examples=300, deadline=None)
def test_log_abs_bounds_hold_for_every_profile_entry(case):
    w, lo, hi = case
    low, high = w.log_abs_bounds(lo, hi)
    profile = w.log_abs_profile(lo, hi)
    assert type(low) is float and type(high) is float
    assert low <= profile.min() and profile.max() <= high
    if isinstance(w, (Constant, Explicit)):  # the exact extrema, for these two
        assert (low, high) == (profile.min(), profile.max())


def test_explicit_bounds_past_the_list_are_an_index_error():
    with pytest.raises(IndexError, match="weight index 4 beyond explicit list of length 3"):
        Explicit((1, 2, 3)).log_abs_bounds(1, 4)


@pytest.mark.parametrize("w", _FAMILIES)
def test_log_abs_beta_is_the_profile_entry(w):
    prof = beta_profile(w, 300)
    for n in range(1, 301):
        assert w.log_abs_profile(n - 1, n)[0] == prof[n - 1]


@pytest.mark.parametrize("w", _FAMILIES)
def test_protocol_empty_ranges(w):
    for k in (0, 1, 7):
        ws, prof = w.weight_range(k, k), w.log_abs_profile(k, k)
        assert ws.shape == prof.shape == (0,)
        assert ws.dtype == np.complex128 and prof.dtype == np.float64


def test_explicit_range_past_the_list_is_an_index_error():
    w = Explicit((1, 2, 3))
    assert w.weight_range(1, 3).tolist() == [2, 3]
    with pytest.raises(IndexError, match="weight index 4 beyond explicit list of length 3"):
        w.weight_range(0, 4)
    with pytest.raises(IndexError, match="weight index 6 beyond explicit list of length 3"):
        w.weight_range(5, 7)
    with pytest.raises(IndexError, match="weight index 4 beyond explicit list of length 3"):
        w.log_abs_profile(2, 4)


def test_powerlaw_weight_overflow_is_a_range_error():
    w = PowerLawBeta(1100.0)
    assert w.weight_range(0, 1).tolist() == [1]
    with pytest.raises(RangeError, match="w_2 "):
        w.weight_range(0, 3)
    with pytest.raises(RangeError, match="w_4 "):
        PowerLawBeta(5000.0).weight_range(3, 6)


# ---------------------------------------------------------------------------
# beta products


@pytest.mark.parametrize(
    "w",
    [
        Constant(2.0),
        Constant(0.5 + 0.5j),
        Explicit(tuple(range(1, 40))),
        BalancedBlocks(2.0, 0.5),
        BalancedBlocks(0.5, 2.0),
        BalancedBlocks(3.0, 0.25, a_first=False),
        PowerLawBeta(0.5),
        PowerLawBeta(-1.25),
    ],
)
def test_beta_recursion(w):
    # beta(n) = beta(n-1) * w_n, the defining property of the product
    prof = [0.0] + beta_profile(w, 38).tolist()  # beta(0) = 1
    ws = w.weight_range(0, 38)
    for n in range(1, 39):
        step = prof[n] - prof[n - 1]
        assert step == pytest.approx(math.log(abs(ws[n - 1])), abs=1e-12)


def test_beta_explicit_matches_product_oracle():
    ws = (2, 0.5j, -3, 1 + 1j, 0.25)
    w = Explicit(ws)
    acc = 1 + 0j
    for n, v in enumerate(ws, start=1):
        acc *= v
        assert w.log_abs_profile(n - 1, n)[0] == pytest.approx(math.log(abs(acc)), abs=1e-14)
    with pytest.raises(IndexError):
        w.log_abs_profile(5, 6)


def test_powerlaw_beta_is_sqrt_n():
    w = PowerLawBeta(0.5)
    for n in list(range(1, 100)) + [512, 1000, 4096, 9999, 10_000]:
        assert abs(math.exp(w.log_abs_profile(n - 1, n)[0]) - math.sqrt(n)) <= 1e-12 * math.sqrt(n)


def test_blocks_beta_returns_to_one_at_pair_boundaries():
    # and peaks at 2^k after the k doubling weights of pair k
    w = BalancedBlocks(2.0, 0.5)
    for k in range(1, 30):
        assert w.log_abs_profile(k * (k + 1) - 1, k * (k + 1))[0] == 0.0
        assert w.log_abs_profile(k * k - 1, k * k)[0] == pytest.approx(k * math.log(2.0), rel=1e-15)


def test_log_abs_beta_matches_beta_where_small():
    for w in (Constant(1.5), BalancedBlocks(2.0, 0.5), PowerLawBeta(0.75), Explicit((2, 3, 0.5, 1j))):
        top = 4 if isinstance(w, Explicit) else 60
        acc = 1 + 0j  # beta(n) as a running product of the weights
        for n in range(1, top + 1):
            acc *= w.weight_range(n - 1, n)[0]
            assert w.log_abs_profile(n - 1, n)[0] == pytest.approx(math.log(abs(acc)), abs=1e-11)


def test_log_abs_beta_boundary_cancellation_is_exact():
    # |first * second| == 1 makes the pair-boundary value exactly 0.0,
    # far beyond where the raw product would overflow
    for w in (BalancedBlocks(2.0, 0.5), BalancedBlocks(0.5, 2.0)):
        for k in (1, 7, 100, 999, 1000, 5000):
            assert w.log_abs_profile(k * (k + 1) - 1, k * (k + 1))[0] == 0.0


def test_log_abs_beta_safe_far_beyond_float_range():
    # 2^(10^7) overflows any float, the log form must not care
    assert Constant(2.0).log_abs_profile(10_000_000 - 1, 10_000_000)[0] == pytest.approx(1e7 * math.log(2), rel=1e-15)
    # 10^6 = 999 * 1000 + 1000 ends the doubling block of pair 1000
    assert BalancedBlocks(2.0, 0.5).log_abs_profile(10**6 - 1, 10**6)[0] == pytest.approx(1000 * math.log(2.0), rel=1e-15)


# ---------------------------------------------------------------------------
# shift application


def test_apply_shift_drops_first_coordinate():
    t = ShiftOperator(Explicit((10, 20, 30)), 2.0)
    x = FinSeqVector(2.0, (1, 2, 3, 4))
    assert apply_shift(t, x).coords == (20 + 0j, 60 + 0j, 120 + 0j)


def test_apply_shift_exponent_mismatch():
    t = ShiftOperator(Constant(2), 2.0)
    with pytest.raises(ValueError, match=r"operator acts on l\^2\.0 but vector is in l\^1\.0"):
        apply_shift(t, FinSeqVector(1.0, (1,)))


def test_apply_shift_refuses_an_image_beyond_float_range():
    # 1e308 * 10 is inf: the image coordinate is named, not returned as inf
    t = ShiftOperator(Constant(1e308), 2.0)
    with pytest.raises(RangeError, match=r"^operator image at coordinate 1 is beyond float range$"):
        apply_shift(t, FinSeqVector(2.0, (1, 10)))


def test_shift_annihilates_basis_vector():
    t = ShiftOperator(Constant(0.5), 2.0)
    e1 = FinSeqVector(2.0, (1,))
    assert apply_shift(t, e1).coords == ()
    assert lp_norm(apply_shift(t, e1)) == 0.0


def test_constant_shift_scales_norm_on_l2():
    # ||lam B x||_2 = |lam| * ||tail of x||_2 for constant weights
    t = ShiftOperator(Constant(3.0), 2.0)
    x = FinSeqVector(2.0, (7, 1, 2, 2))
    assert lp_norm(apply_shift(t, x)) == pytest.approx(3.0 * lp_norm(FinSeqVector(2.0, (1, 2, 2))), rel=1e-15)


# ---------------------------------------------------------------------------
# sampling


def test_random_vectors_deterministic_and_in_box():
    a = random_vectors(20, 2.0, seed=42)
    b = random_vectors(20, 2.0, seed=42)
    assert a == b
    c = random_vectors(20, 2.0, seed=43)
    assert a != c
    for x in a:
        assert 1 <= len(x.coords) <= 64
        assert x.p == 2.0
        for z in x.coords:
            assert -10 <= z.real <= 10 and -10 <= z.imag <= 10


def test_random_vectors_of_none_and_the_order_of_their_errors():
    assert random_vectors(0, 2.0, seed=1) == []
    assert random_vectors(0, 2.0, seed=1, support_range=(3, 3)) == []
    with pytest.raises(ValueError, match="bad support range"):  # before the exponent
        random_vectors(1, 0.5, seed=0, support_range=(0, 3))
    with pytest.raises(ValueError, match="1 <= p < inf"):
        random_vectors(1, 0.5, seed=0)


def test_random_vectors_hold_the_parts_drawn_bit_for_bit():
    for x, a in zip(random_vectors(5, 3.0, seed=9, support_range=(1, 40)), seqspace._random_parts(5, 9, (1, 40))):
        assert x.p == 3.0 and all(type(z) is complex for z in x.coords)
        assert [(z.real.hex(), z.imag.hex()) for z in x.coords] == [(re.hex(), im.hex()) for re, im in a.tolist()]


def test_random_vectors_support_range():
    for x in random_vectors(10, 1.0, seed=0, support_range=(5, 5)):
        assert len(x.coords) == 5
    with pytest.raises(ValueError):
        random_vectors(1, 2.0, seed=0, support_range=(0, 3))


# ---------------------------------------------------------------------------
# serialization


@given(vectors)
@settings(max_examples=50)
def test_vector_json_roundtrip_exact(x):
    d = vector_to_dict(x)
    assert json.loads(json.dumps(d)) == d
    assert vector_from_dict(d) == x


@pytest.mark.parametrize("coord", [[math.nan, 0], [0, math.inf], -math.inf, ["nan", 0]])
def test_vector_from_dict_rejects_non_finite_coordinates(coord):
    with pytest.raises(ValueError, match="coordinate 2 must be finite"):
        vector_from_dict({"p": 2, "coords": [[1, 0], coord]})


def test_vector_from_dict_reads_numbers_and_numeric_strings_in_pairs_or_bare():
    d = {"p": "3", "coords": [[1, 2], ["0.5", "-1e3"], 4, -2.5, "7"]}
    assert vector_from_dict(d) == FinSeqVector(3.0, (1 + 2j, 0.5 - 1000j, 4, -2.5, 7))


@pytest.mark.parametrize(
    "d, message",
    [
        ({"p": 2, "coords": [[True, False], [1, 2]]}, "coordinate 1 must be an [re, im] pair or a real, got [True, False]"),
        ({"p": 2, "coords": [[1, 2], [0.5, True]]}, "coordinate 2 must be an [re, im] pair or a real, got [0.5, True]"),
        ({"p": 2, "coords": [1.5, False]}, "coordinate 2 must be an [re, im] pair or a real, got False"),
        ({"p": True, "coords": [[1, 2]]}, "exponent must satisfy 1 <= p < inf, got True"),
        ({"p": False, "coords": []}, "exponent must satisfy 1 <= p < inf, got False"),
    ],
)
def test_vector_from_dict_rejects_booleans(d, message):
    # a JSON true or false is not a number, though float() takes it as 1.0 or 0.0
    with pytest.raises(ValueError) as info:
        vector_from_dict(d)
    assert str(info.value) == message


def test_check_exponent_still_takes_a_bool_as_float_does():
    assert seqspace.check_exponent(True) == 1.0


def _by_loop(coords):
    """The parts of ``coords`` from the per-coordinate loop alone, or its error text."""
    try:
        return np.array([seqspace._coordinate(n, v) for n, v in enumerate(coords, 1)], dtype=np.float64).reshape(-1, 2)
    except ValueError as e:
        return str(e)


def _by_reader(coords):
    try:
        return seqspace._coord_parts(coords)
    except ValueError as e:
        return str(e)


_HUGE_INT = 10**400


@pytest.mark.parametrize(
    "coords",
    [
        [],
        [[1.5, -2.0], [0, 3], [-0.0, 0.0], [2**60 + 1, -(2**70) - 3]],
        [1.5, -0.0, 7, 2**64 + 1],
        [[1, 2], 3.5],  # pairs and bare reals mixed
        [["0.5", "-1e3"], "7", [1, 2]],  # numeric strings
        [[1e308, -1e308], [5e-324, -5e-324]],
        [[1, 0], [None, 0]],
        [[1, 0], [1, 2, 3]],
        [[1, 2, 3], [4, 5, 6]],
        [[1, 0], "x"],
        [[1, 0], [_HUGE_INT, 0]],
        [_HUGE_INT, 1.0],
        [[1, 0], ["nan", 0]],
        [[1, 0], [float("inf"), 0]],
        [[1, 0], {"re": 1}],
        [[1, {}]],
        [[1, [2]]],
        [[]],
        [[1], [2]],
        [[1.0, 2.0], [3.0, 4.0], [5.0, None]],
    ],
)
def test_reader_array_path_agrees_with_the_per_coordinate_loop(coords):
    slow, fast = _by_loop(coords), _by_reader(coords)
    if isinstance(slow, str):
        assert fast == slow
    else:
        assert fast.dtype == np.float64 and fast.shape == (len(coords), 2)
        assert fast.tobytes() == slow.tobytes()  # every bit, signs of zero included


@pytest.mark.parametrize("coords", [[], [[1.5, -2.0], [0, 3], [-0.0, 0.0]], [1.5, -0.0, 7], [[2**60 + 1, 5e-324]]])
def test_reader_reads_numbers_as_one_array(monkeypatch, coords):
    def loop(n, v):
        raise AssertionError("the per-coordinate loop ran")

    monkeypatch.setattr(seqspace, "_coordinate", loop)
    parts = seqspace._coord_parts(coords)
    monkeypatch.undo()
    assert parts.tobytes() == _by_loop(coords).tobytes()


def test_vector_dict_shape():
    d = vector_to_dict(FinSeqVector(2.0, (1 + 2j,)))
    assert d == {"p": 2.0, "coords": [[1.0, 2.0]]}


@pytest.mark.parametrize(
    "w",
    [
        Constant(2 - 1j),
        Explicit((1, 0.5j, -3)),
        BalancedBlocks(2, 0.5, a_first=False),
        PowerLawBeta(0.5),
    ],
)
def test_weights_json_roundtrip(w):
    d = weights_to_dict(w)
    assert json.loads(json.dumps(d)) == d
    assert d["kind"] in ("constant", "explicit", "blocks", "powerlaw")


# ---------------------------------------------------------------------------
# package


def test_package_exports_each_module_list_once():
    import shiftlab
    from shiftlab import conjugacy, dynamics, seqspace

    expected = ["__version__", *seqspace.__all__, *conjugacy.__all__, *dynamics.__all__]
    assert shiftlab.__all__ == expected
    assert len(set(expected)) == len(expected)
    for name in expected:
        assert hasattr(shiftlab, name), name
