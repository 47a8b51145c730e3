"""Dynamical classification of weighted backward shifts and orbit experiments.

The dynamical class of a weighted backward shift on l^p is governed entirely
by the growth of the running weight product beta(n):

* chaotic                 iff  sum_n 1 / |beta(n)|^p  converges
* strongly mixing         iff  |beta(n)| -> infinity
* topologically transitive iff limsup |beta(n)| = infinity

``classify`` turns these three criteria into one of four mutually exclusive
labels: ``Chaotic``, ``MixingNotChaotic``, ``TransitiveNotMixing``, or
``NotTransitive``.  Generator families with a closed form for beta (constant,
power law, balanced blocks) are decided analytically; explicitly listed
weights can only ever be judged from a finite horizon, so their verdicts
carry ``NumericEvidence`` or ``Inconclusive`` confidence together with the
raw horizon scalars that produced them.  Limits are semi-decidable from
samples at best; the confidence field is the honest record of that.

Three example operators exercise every class boundary:

* T1:  positive weights with beta(n) = sqrt(n); strongly mixing (the
  products escape) but not chaotic (sum 1/n diverges).
* T2:  balanced blocks, amplifying block first (2, 1/2, 2, 2, 1/2, 1/2, ...);
  the products return to 1 at every pair boundary but the in-pair peaks
  2^k grow without bound: transitive, not mixing.
* T3:  the same blocks attenuating-first; peaks never exceed 1, so the
  operator is not transitive, yet single orbits can still dodge collapse:
  ``example3_point`` builds the start vector whose orbit norm stays >= 1
  for as many steps as the vector has nonzero entries (minus one).

``orbit_norms`` and ``escape_demo`` produce plot-ready norm traces for those
experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .seqspace import (
    BalancedBlocks,
    Constant,
    FinSeqVector,
    PowerLawBeta,
    RangeError,
    ShiftOperator,
    WeightSequence,
    _LEAF,
    _cmul,
    _in_space,
    _power_norm,
    _running_powers,
    check_exponent,
)

__all__ = [
    "DynamicsLabel",
    "Confidence",
    "HorizonEvidence",
    "DynamicsVerdict",
    "OrbitTrace",
    "DEFAULT_HORIZON",
    "MIN_HORIZON",
    "LOG_ESCAPE",
    "CHAOS_FLAT_TOL",
    "beta_profile",
    "horizon_evidence",
    "classify",
    "make_example",
    "example3_point",
    "orbit_norms",
    "escape_demo",
]


class DynamicsLabel(str, Enum):
    CHAOTIC = "Chaotic"
    MIXING_NOT_CHAOTIC = "MixingNotChaotic"
    TRANSITIVE_NOT_MIXING = "TransitiveNotMixing"
    NOT_TRANSITIVE = "NotTransitive"


class Confidence(str, Enum):
    ANALYTIC = "Analytic"
    NUMERIC_EVIDENCE = "NumericEvidence"
    INCONCLUSIVE = "Inconclusive"


DEFAULT_HORIZON = 100_000
MIN_HORIZON = 100

# Escape threshold for the tail-window checks: one order of magnitude of
# product growth counts as evidence that |beta| is heading to infinity.
LOG_ESCAPE = math.log(10.0)

# A chaotic sum must look Cauchy at the horizon: the increment contributed
# by the last decade (from horizon/10 to horizon) has to be below this.
CHAOS_FLAT_TOL = 1e-6


def _json_float(v: float) -> object:
    return v if math.isfinite(v) else repr(v)


@dataclass(frozen=True, slots=True)
class HorizonEvidence:
    """Scalar diagnostics of the beta profile over a finite horizon.

    ``partial_sum`` and ``last_decade_increment`` watch the chaos criterion
    sum(1/|beta(n)|^p); the window extrema watch escape.  Window length is
    isqrt(horizon), short enough to probe only the profile's tail.  It is
    not long enough to see balanced-block oscillation whole: near the
    horizon, pair k of ``BalancedBlocks`` is 2k, about 2 * sqrt(horizon),
    positions long, so the window covers about half a pair and can miss
    every return of |beta| to 1 (or every peak).  ``to_dict`` writes a nan
    or inf scalar as a string, the one record whose JSON does.
    """

    horizon: int
    window: int
    partial_sum: float
    last_decade_increment: float
    head_log_max: float
    tail_log_min: float
    tail_log_max: float

    def to_dict(self) -> dict:
        return {f.name: _json_float(getattr(self, f.name)) for f in fields(self)}


@dataclass(frozen=True, slots=True)
class DynamicsVerdict:
    """A classification label plus how much to trust it.

    ``Analytic`` verdicts follow from a closed form for beta and are exact.
    ``NumericEvidence`` verdicts satisfied every scalar check for their
    label at the stated horizon; ``Inconclusive`` ones did not, and their
    label is only the default fallback (``NotTransitive``), carrying no
    evidential weight on its own.  The raw scalars are always attached.
    """

    label: DynamicsLabel
    confidence: Confidence
    horizon: int
    evidence: HorizonEvidence


# ---------------------------------------------------------------------------
# beta profiles


def beta_profile(w: WeightSequence, n: int) -> np.ndarray:
    """log |beta(k)| for k = 1..n as a float array, overflow-free by design.

    This is the family's ``log_abs_profile(0, n)``: closed forms wherever the
    family has one, so the profile is trustworthy far beyond where the raw
    products would leave float range.  Monotone increasing exactly when
    every weight has modulus > 1.
    """
    if n < 1:
        raise ValueError(f"profile length must be >= 1, got {n}")
    return w.log_abs_profile(0, n)


# The streamed pairwise sums take ranges of at most _LEAF terms as leaves,
# each summed by one np.sum call; the terms are computed in chunks of that
# many, so the rolling buffer of terms in flight holds twice that size.
# Any _LEAF of 128 or more gives the same bits: each leaf is a node of numpy's tree.
def _tree(lo: int, hi: int, whole: int):
    """The tree along which ``np.sum`` adds the float64 terms lo..hi-1, as a generator.

    It mirrors numpy's ``pairwise_sum`` for one contiguous array: a range
    of more than 128 terms splits after n//2 terms rounded down to a
    multiple of 8, and its sum is left + right.  Here a range is a leaf
    when it starts at or after ``whole``, or has at most _LEAF terms and
    ends by ``whole``, or has at most 128 terms, numpy's base case, so a
    leaf that straddles ``whole`` is short.  The generator yields (lo, hi)
    and takes that range's sum by ``send``.  A leaf is a node of numpy's
    tree, which ``np.sum`` of the leaf alone walks the same way, so
    sending each leaf's ``np.sum`` gives the bits of ``np.sum`` over the
    whole range, the total that the generator returns.  Leaves come in
    rising order, and the recursion is O(log((hi - lo) / 128)) deep.
    """
    n = hi - lo
    if lo >= whole or n <= (_LEAF if hi <= whole else 128):
        return (yield lo, hi)
    half = n // 2 - n // 2 % 8
    left = yield from _tree(lo, lo + half, whole)
    return left + (yield from _tree(lo + half, hi, whole))


# exp(x) is exactly 0.0 below _EXP_LOW and inf above _EXP_HIGH for any
# faithfully rounded exp: the float64 cutoffs are -745.1332191019411 and
# 709.782712893384, and the margins leave room for a last-bit error.
_EXP_LOW, _EXP_HIGH = -750.0, 710.0


def _exp_in_place(terms: np.ndarray) -> None:
    """``np.exp(terms, out=terms)``, bit for bit, with saturated lanes kept out of it.

    ``np.exp`` is 3-100 times slower on a lane whose result is 0.0 or inf
    than on one with a normal result.  The chunk's first and last terms,
    two float reads, pick the route:

    * an end below _EXP_LOW: ``np.exp`` runs with ``where=`` on the other
      lanes, if any, and the lanes below get 0.0.
    * both ends above _EXP_HIGH, and so is the chunk's min: filled with inf.
    * anything else, such as every chunk of a profile that stays in range:
      ``np.exp`` on the whole chunk.

    0.0 and inf are what ``np.exp`` gives on those lanes.  With ``where=``
    numpy runs the same inner loop on each run of kept lanes, and its
    vector loop rounds each lane on its own, whatever its neighbours, so
    the kept lanes keep their bits; ``tests/test_dynamics.py`` pins that.
    A nan is not below, and makes the min nan, so a chunk that holds one
    never gets the inf fill.  Overflow lanes of a mixed chunk stay inside
    ``np.exp``, since masking them measured slower, and so do subnormal
    results, which only ``np.exp`` rounds right.

    The inf fill only fires on the longest sweeps.  For T3 at p = 2 it
    takes 0 of the 3,052 chunks at horizon 10**8, 5 of 9,156 at 3 * 10**8
    and 6,627 of 30,518 at 10**9, where ``horizon_evidence`` took 10.5-11.0 s
    with it and 12.1 s without it on a 2-core Xeon.  At the sizes of the
    perfbench ``classify`` workload it takes at most one leaf of 128 lanes
    or fewer, just before n0 of a ``BalancedBlocks`` family.
    """
    first, last = terms.item(0), terms.item(-1)
    if first < _EXP_LOW or last < _EXP_LOW:
        low = terms < _EXP_LOW
        np.exp(terms, out=terms, where=~low)
        np.copyto(terms, 0.0, where=low)
    elif first > _EXP_HIGH < last and terms.min() > _EXP_HIGH:
        terms.fill(math.inf)
    else:
        np.exp(terms, out=terms)


def _saturated_suffix(w: WeightSequence, p: float, horizon: int) -> tuple[int, float | None]:
    """An n0 such that the terms n0..horizon-1 are all 0.0, or all inf, and that value.

    Terms lo..hi-1 are exp(fl(-p * x)) for x in ``log_abs_profile(lo, hi)``,
    and fl(-p * x) falls as x rises, so -p times the low bound of
    ``log_abs_bounds`` below _EXP_LOW makes them all 0.0, and -p times the
    high bound above _EXP_HIGH all inf.  The last _LEAF terms are checked
    first; while they hold, the part before the suffix found so far, as
    long as that suffix, is checked next, and the part that failed is
    bisected.  That is O(log horizon) bounds calls, and for ``Explicit``,
    whose bounds read their slice, at most three times the suffix read.
    (horizon, None) when the last _LEAF terms are not saturated.
    """

    def value(lo: int, hi: int) -> float | None:
        low, high = w.log_abs_bounds(lo, hi)
        return 0.0 if -p * low < _EXP_LOW else math.inf if -p * high > _EXP_HIGH else None

    n0 = lo = max(horizon - _LEAF, 0)
    if (known := value(n0, horizon)) is None:
        return horizon, None
    while n0 > 0 and value(lo := max(2 * n0 - horizon, 0), n0) == known:
        n0 = lo
    while n0 - lo > 1:  # the terms from n0 on hold, and value(lo, n0) fails
        mid = (lo + n0) // 2
        lo, n0 = (lo, mid) if value(mid, n0) == known else (mid, n0)
    return n0, known


def _chaos_sums(w: WeightSequence, p: float, horizon: int, starts: tuple[int, ...]) -> list[float]:
    """``np.sum(exp(-p * profile)[s:])`` for each s in ``starts``, streamed.

    ``_saturated_suffix`` first finds an n0 from which every term is 0.0,
    or every one inf.  Each start's ``_tree`` yields a node from n0 on as
    one leaf, and its sum is that value, which is also what ``np.sum``
    gives over its terms, so no term there is computed but those of the
    one leaf, of at most 128 terms, that straddles n0; a start equal to
    the horizon is one empty leaf, whose sum is 0.0.  The trees ask for
    their other leaves in one rising sweep: the pending leaf with the
    lowest start is served first.  One rolling buffer of 2 * _LEAF terms
    holds those from the lowest leaf in flight on.  When a leaf runs past
    its end, up to the next _LEAF terms before n0 are computed into it:
    ``log_abs_profile`` writes the chunk into a view of the buffer, which
    is then scaled by -p in place, so each term is computed once, the
    sweep makes about n0 / _LEAF profile calls, and a chunk allocates no
    array.  A fresh array per chunk would cost more than the chunk size
    saves: at 256 KiB it is above glibc's 128 KiB mmap threshold, so
    every chunk would fault in fresh pages.  Each chunk's exp goes
    through ``_exp_in_place``, which writes the bits of ``np.exp`` but
    keeps saturated lanes out of it.  Each leaf's sum is sent to its tree,
    which adds it in numpy's order and returns the start's total when its
    last leaf is in.
    """
    n0, known = _saturated_suffix(w, p, horizon)
    trees = [_tree(s, horizon, n0) for s in starts]
    asks = [next(tree) for tree in trees]  # a tree starts with a leaf or a node from n0 on
    totals = [0.0] * len(starts)
    buf = np.empty(min(2 * _LEAF, horizon))
    buf_lo, size = 0, 0  # buf[:size] holds the terms buf_lo .. buf_lo + size - 1
    with np.errstate(over="ignore", under="ignore"):
        while any(asks):
            i = min((ask[0], i) for i, ask in enumerate(asks) if ask)[1]
            lo, hi = asks[i]
            if lo < n0 and hi > buf_lo + size:
                start = max(lo, buf_lo + size)
                keep = start - lo
                buf[:keep] = buf[lo - buf_lo : size]
                end = max(hi, min(start + _LEAF, n0))
                buf_lo, size = lo, keep + end - start
                terms = w.log_abs_profile(start, end, out=buf[keep:size])
                terms *= -p
                _exp_in_place(terms)
            try:
                asks[i] = trees[i].send(0.0 if lo == hi else known if lo >= n0 else float(buf[lo - buf_lo : hi - buf_lo].sum()))
            except StopIteration as done:
                asks[i], totals[i] = None, done.value
    return totals


def horizon_evidence(w: WeightSequence, p: float, horizon: int) -> HorizonEvidence:
    """Compute the scalar diagnostics of the profile of ``w`` up to ``horizon``.

    The profile is never built whole.  The two sums of exp(-p * profile)
    share one sweep over it in chunks of _LEAF (32,768) terms, under one
    ``np.errstate``, and each adds its leaves along ``_tree``, the
    recursion ``np.sum`` follows.  Every chunk is written into one buffer
    of 2 * _LEAF terms, so the sweep allocates, and faults in, no fresh
    pages per chunk.  The head and tail windows are isqrt(horizon) long
    and built one at a time, so memory is O(_LEAF + isqrt(horizon)) where
    the full profile took O(horizon).  The bits are those of the
    full-array computation: each chunk of ``log_abs_profile`` has the bits
    of the same slice of ``beta_profile``, whether or not it is written
    into the buffer, the terms are elementwise, and both sums add their
    terms along the tree ``np.sum`` walks over the whole array.  For every
    family but the power law most terms are exactly 0.0 or inf.  Where all
    are from some n0 on, ``log_abs_bounds`` finds that suffix in
    O(log horizon) calls and the sums take each tree node inside it as its
    one value, so the sweep is O(n0 + log horizon), not O(horizon).
    Before n0, where ``np.exp`` is
    3-100 times slower per saturated lane, a chunk with an end below -750
    runs ``np.exp`` only on its lanes at or above -750 and gives the rest
    0.0, and a chunk whose terms are all above 710 is filled with inf, the
    values ``np.exp`` gives there; T3's sweep first meets such chunks past
    horizon 10**8 (``_exp_in_place`` gives the counts).  A chunk whose
    first and last terms are in range, such as every power-law chunk, goes
    to ``np.exp`` whole, as do subnormal and overflowing lanes of a mixed
    chunk, so each term keeps the bits of ``np.exp``.
    """
    if horizon < 1:
        raise ValueError(f"profile length must be >= 1, got {horizon}")
    window = math.isqrt(horizon)
    head_log_max = float(w.log_abs_profile(0, window).max())
    partial, increment = _chaos_sums(w, p, horizon, (0, horizon // 10))
    tail = w.log_abs_profile(horizon - window, horizon)
    return HorizonEvidence(
        horizon=horizon,
        window=window,
        partial_sum=partial,
        last_decade_increment=increment,
        head_log_max=head_log_max,
        tail_log_min=float(tail.min()),
        tail_log_max=float(tail.max()),
    )


# ---------------------------------------------------------------------------
# classification


def classify(w: WeightSequence, p: float, horizon: int = DEFAULT_HORIZON) -> DynamicsVerdict:
    """Classify the weighted backward shift with weights ``w`` on l^p.

    Constant, power-law, and balanced-block generators are decided from the
    closed form of beta and come back with ``Analytic`` confidence (the
    horizon then only sizes the attached evidence scalars).  Explicit lists
    go through the numeric checks on ``horizon_evidence`` at
    ``min(horizon, len(weights))``, in this order:

    * mixing: the whole tail window is at least LOG_ESCAPE and above the
      head window's max.  Then ``Chaotic`` when the chaos sum is finite and
      its last-decade increment is below CHAOS_FLAT_TOL, and
      ``MixingNotChaotic`` otherwise.
    * transitive: the tail window's max is at least LOG_ESCAPE and above
      the head window's max, ``TransitiveNotMixing``.
    * otherwise ``NotTransitive``, which is evidence only when the tail
      window's max is at most the head window's max or 0.0 (no new highs).

    A label earns ``NumericEvidence`` when its checks hold, and
    ``Inconclusive`` otherwise or when fewer than 100 weights are available.
    """
    check_exponent(p)
    if horizon < MIN_HORIZON:
        raise ValueError(f"horizon must be >= {MIN_HORIZON}, got {horizon}")

    analytic = w.analytic_label(p)
    if analytic is not None:
        ev = horizon_evidence(w, p, horizon)
        return DynamicsVerdict(DynamicsLabel(analytic), Confidence.ANALYTIC, horizon, ev)

    # numeric path: explicit weight lists only
    effective = min(horizon, len(w.weights))
    ev = horizon_evidence(w, p, effective)
    if ev.tail_log_min >= LOG_ESCAPE and ev.tail_log_min > ev.head_log_max:  # mixing
        chaotic = math.isfinite(ev.partial_sum) and ev.last_decade_increment < CHAOS_FLAT_TOL
        label = DynamicsLabel.CHAOTIC if chaotic else DynamicsLabel.MIXING_NOT_CHAOTIC
    elif ev.tail_log_max >= LOG_ESCAPE and ev.tail_log_max > ev.head_log_max:  # transitive
        label = DynamicsLabel.TRANSITIVE_NOT_MIXING
    else:
        label = DynamicsLabel.NOT_TRANSITIVE
    # a NotTransitive label is only evidence when the profile made no new highs
    decided = label is not DynamicsLabel.NOT_TRANSITIVE or ev.tail_log_max <= max(ev.head_log_max, 0.0)
    confidence = Confidence.NUMERIC_EVIDENCE if decided and effective >= MIN_HORIZON else Confidence.INCONCLUSIVE
    return DynamicsVerdict(label, confidence, effective, ev)


# ---------------------------------------------------------------------------
# example operators and orbit experiments


def make_example(which: str) -> ShiftOperator:
    """The three example operators, all on l^2.

    T1 has weights sqrt(n/(n-1)) (first weight 1), T2 is the balanced block
    operator with the amplifying block first in every pair, T3 the same
    blocks with the attenuating block first.
    """
    name = which.strip().upper()
    if name == "T1":
        return ShiftOperator(PowerLawBeta(0.5), 2.0)
    if name == "T2":
        return ShiftOperator(BalancedBlocks(2.0, 0.5, a_first=True), 2.0)
    if name == "T3":
        return ShiftOperator(BalancedBlocks(0.5, 2.0, a_first=True), 2.0)
    raise ValueError(f"unknown example operator {which!r}; expected T1, T2, or T3")


def example3_point(k: int) -> FinSeqVector:
    """The l^2 vector with coordinate j(j+1) equal to 2**(1-j) for j = 1..k.

    This is the start point for the T3 orbit experiment.  Its orbit under
    T3 keeps norm >= 1 for exactly k-1 steps: step n is propped up by the
    entry at position (n+1)(n+2), whose in-pair weight product is 2**(n+1)
    at the right moment, and a vector with k nonzero entries has no such
    entry once n reaches k.
    """
    if k < 1:
        raise ValueError(f"need at least one nonzero entry, got {k}")
    coords = [0j] * (k * (k + 1))
    for j in range(1, k + 1):
        coords[j * (j + 1) - 1] = complex(2.0 ** (1 - j))
    return FinSeqVector(2.0, tuple(coords))


@dataclass(frozen=True, slots=True)
class OrbitTrace:
    """Norms along an orbit, plus where finite support makes them trivial.

    ``norms[n]`` is ||T^n x||_p for n = 0..N.  Once n reaches the support
    length every coordinate has been shifted away, so the recorded norms are
    exactly 0 from there on; ``valid_horizon`` = min(N, support length) marks
    the last step that still carries information about the operator.
    ``operator`` is the ``ShiftOperator`` T and ``point`` names x.
    """

    norms: tuple[float, ...]
    valid_horizon: int
    operator: ShiftOperator
    point: str


def _orbit_range_error(step: int, norm: float) -> RangeError:
    return RangeError(f"orbit norm at step {step} is {norm!r}: the orbit left float range")


def orbit_norms(t: ShiftOperator, x: FinSeqVector, n: int, point: str = "") -> OrbitTrace:
    """The norm trace ||T^k x||_p for k = 0..n, bit for bit what apply_shift + lp_norm give.

    The trace always has n+1 entries; entries past the support length are
    exactly zero and ``valid_horizon`` reports where that happens.  For a
    support of length L the cost is O(L * min(n, L)) float operations.
    The coordinates live in two float64 arrays, real and imaginary parts, and
    each step is one slice product with the weights w_1..w_{L-1}, built once.
    The product is ``_cmul``, Python's complex multiplication on split
    parts, and the moduli come from ``np.hypot``, which is what ``abs`` of a
    Python complex calls: numpy's complex128 product and modulus do not
    round the same way.  The powers of each step's moduli come from one
    ``np.float_power`` call, which calls libm's ``pow`` per lane as Python's
    ``**`` does (``np.power`` is vectorized and does not round the same way;
    ``tests/test_dynamics.py`` pins that), and ``_power_norm`` sums them, or
    takes the scaled form when their sum leaves float range.  A power beyond
    float range is inf here, where ``**`` raises; a norm beyond it raises
    ``RangeError`` naming its step.  The operator and the space of ``x``
    are checked only when n >= 1, since T^0 x is x itself.
    """
    if n < 0:
        raise ValueError(f"orbit length must be >= 0, got {n}")
    coords = np.array(x.coords, dtype=np.complex128)
    re, im = coords.real, coords.imag
    if n >= 1:
        _in_space(t.p, x, "operator")
        w = t.weights.weight_range(0, max(len(re) - 1, 0))
    norms = []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(min(n, len(re)) + 1):
            if k > 0:
                j = len(re) - 1
                re, im = _cmul(w.real[:j], w.imag[:j], re[1:], im[1:])
            m = np.hypot(re, im)
            norms.append(_power_norm(np.float_power(m, x.p).tolist(), m, x.p))
            if not math.isfinite(norms[-1]):
                raise _orbit_range_error(k, norms[-1])
    return OrbitTrace(
        norms=tuple(norms + [0.0] * (n + 1 - len(norms))),
        valid_horizon=min(n, len(x.coords)),
        operator=t,
        point=point or f"support:{len(x.coords)}",
    )


def escape_demo(lam: complex, p: float, n: int) -> OrbitTrace:
    """Norms ||(lam B)^(k-1) e_k||_p for k = 1..n, in O(n) work.

    Entry k-1 of the trace is |lam^(k-1)|: the k-th basis vector survives
    exactly k-1 shifts, picking up one weight factor per step, and ends as
    lam^(k-1) e_1.  So only that one coordinate is carried: the running
    powers of lam, each Python's complex product of the one before and lam,
    as the orbit forms them.  Then one ``np.hypot`` call gives every
    modulus, one ``np.float_power`` every power and one more every norm, as
    the power to 1/p (the ``math.fsum`` of one power is that power); a lane
    whose power is not finite takes its modulus as its norm, which is what
    ``_power_norm`` gives for one modulus: M * 1.0 for a finite M, and M
    itself when it is inf or nan.
    That is bit for bit the trace of the orbit of e_n under
    ``orbit_norms``, whose other coordinates are exact zeros.  The trace
    demonstrates geometric escape (|lam| > 1), constancy (|lam| = 1), or
    decay to 0 (|lam| < 1) along a single family of unit vectors.  Every
    step is within each vector's support, so the whole trace is valid:
    ``valid_horizon`` = n - 1.  The first norm beyond float range raises
    ``RangeError`` naming its step.
    """
    if n < 1:
        raise ValueError(f"need at least one trace entry, got {n}")
    t = ShiftOperator(Constant(lam), p)
    z = _running_powers(t.weights.value, n)
    with np.errstate(over="ignore", invalid="ignore"):
        m = np.hypot(z.real, z.imag, out=z.real)  # in the parts' buffer, so no fourth array of n
        powers = np.float_power(m, t.p, out=z.imag)
        norms = np.float_power(powers, 1.0 / t.p)  # the fsum of one power is that power
    np.copyto(norms, m, where=~np.isfinite(powers))  # the scaled norm of one modulus is that modulus
    bad = ~np.isfinite(norms)
    if bad.any():
        k = int(np.argmax(bad))
        raise _orbit_range_error(k, float(norms[k]))
    return OrbitTrace(
        norms=tuple(norms.tolist()),
        valid_horizon=n - 1,
        operator=t,
        point="escape:basis",
    )
