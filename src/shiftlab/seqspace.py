"""Finitely supported l^p vectors and weighted backward shift operators.

A vector here is an exact element of l^p: an exponent p >= 1 together with a
finite tuple of complex coordinates (coordinate n is zero for n beyond the
tuple).  Every norm and tail sum is therefore a finite sum over the support,
correctly rounded (norms by ``math.fsum``, tails as exact integer sums
rounded once), so the identities tested elsewhere hold up to floating-point
rounding only; there is no series truncation error anywhere in this module.  ``check_exponent`` is the one
place that decides 1 <= p < inf.

Weight sequences come in four generator families:

* ``Constant(value)``             w_n = value for every n
* ``Explicit(weights)``           w_n read from a finite list
* ``BalancedBlocks(a, b)``        k copies of a, then k copies of b, k = 1, 2, ...
* ``PowerLawBeta(alpha)``         positive weights whose running product is n**alpha

Each family is one class with the same five methods, over the half-open
index range lo < n <= hi (0 <= lo <= hi):

* ``weight_range(lo, hi)``     the weights w_n, as a complex128 array
* ``log_abs_profile(lo, hi)``  log |beta(n)| with beta(n) = w_1 * ... * w_n,
                               as a float64 array that never overflows
* ``bound()``                  an upper bound for sup_n |w_n| (inf if too big)
* ``analytic_label(p)``        the closed-form dynamical label on l^p, as the
                               value of a ``dynamics.DynamicsLabel``, or None
                               when only numeric evidence can decide
* ``to_dict()``                the JSON-ready tagged form

Everything else (``apply_shift``, the ``dynamics`` profiles, labels and
orbits) goes through these methods, so a new family is one new class, plus
its descriptor in the CLI.

``BalancedBlocks`` tiles the index line with pairs of equal-length blocks:
pair k occupies positions k(k-1)+1 .. k(k+1), the first k of them carrying
the first value and the remaining k the second.  When ``|a * b| == 1`` the
running product returns to its starting modulus at every pair boundary,
which is the mechanism behind the transitive-but-not-mixing and
not-transitive example operators built on top of this module.

Sequence indices are 1-based, as in the paper: w_1 is the first weight,
``w.weight_range(0, 1)[0]``, and x_1 the first coordinate, ``x.coords[0]``.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, field
from itertools import accumulate, starmap
from typing import Union

import numpy as np

__all__ = [
    "RangeError",
    "check_exponent",
    "FinSeqVector",
    "Constant",
    "Explicit",
    "BalancedBlocks",
    "PowerLawBeta",
    "WeightSequence",
    "ShiftOperator",
    "lp_norm",
    "tail_power_sums",
    "apply_shift",
    "subtract",
    "max_coord_diff",
    "random_vectors",
    "vector_to_dict",
    "vector_from_dict",
    "weights_to_dict",
]


class RangeError(ValueError):
    """A result that should be a finite float is not: it left float range."""


def check_exponent(p: object) -> float:
    """``p`` as a float, or ``ValueError`` unless 1 <= p < inf.

    ``p`` may be anything ``float()`` takes, such as a number or a numeric
    string; any other value is an exponent outside the domain too.
    """
    try:
        p = float(p)
    except OverflowError:
        raise ValueError("exponent must satisfy 1 <= p < inf, got an integer beyond float range") from None
    except (TypeError, ValueError):
        raise ValueError(f"exponent must satisfy 1 <= p < inf, got {p!r}") from None
    if not math.isfinite(p) or p < 1.0:
        raise ValueError(f"exponent must satisfy 1 <= p < inf, got {p!r}")
    return p


# ---------------------------------------------------------------------------
# vectors


@dataclass(frozen=True, slots=True)
class FinSeqVector:
    """A finitely supported vector in l^p.

    ``coords[i]`` is the (i+1)-th coordinate; all later coordinates are zero.
    Trailing zero coordinates are allowed and preserved, so structural
    equality distinguishes ``(1,)`` from ``(1, 0)``; use ``max_coord_diff``
    for numeric comparison.
    """

    p: float
    coords: tuple[complex, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", check_exponent(self.p))
        object.__setattr__(self, "coords", tuple(map(complex, self.coords)))


def _modulus(w: complex) -> float:
    """|w|: inf when finite parts have a modulus beyond float range, nan for a nan part.

    ``abs`` raises ``OverflowError`` in the first case, and can raise a stale
    one left by an earlier overflow in the second; ``math.hypot`` of the
    parts gives the modulus, inf or nan, plainly.
    """
    try:
        return abs(w)
    except OverflowError:
        return math.hypot(w.real, w.imag)


def _norm_from_moduli(moduli: list[float], p: float) -> float:
    """(sum m**p)**(1/p) over the moduli, with a correctly rounded power sum.

    When the power sum overflows although the norm itself may fit, the
    largest modulus M is factored out (J. L. Blue, ACM TOMS 4, 1978;
    E. Anderson, ACM TOMS 44, 2017): M * (sum (m/M)**p)**(1/p).  Sums that
    fit never take that branch, so their bits are those of the direct form.
    The result is inf when the norm is beyond float range or a modulus is
    inf, and nan when a modulus is nan.
    """
    try:
        return math.fsum([m**p for m in moduli]) ** (1.0 / p)
    except OverflowError:
        top = max(moduli)
        if top == math.inf:  # inf/inf would be nan; the sum of the moduli is inf, or nan with a nan
            return math.fsum(moduli)
        return top * math.fsum([(m / top) ** p for m in moduli]) ** (1.0 / p)


def lp_norm(x: FinSeqVector) -> float:
    """The l^p norm of ``x``, computed as a correctly rounded power sum.

    A power sum that overflows is recomputed with the largest modulus
    factored out, so the norm is finite whenever it fits in a float.  It is
    inf when a modulus is beyond float range and nan for a nan coordinate.
    """
    return _norm_from_moduli(list(map(_modulus, x.coords)), x.p)


def _moduli_and_powers(x: FinSeqVector) -> tuple[list[float], list[float]]:
    """The moduli |x_n| and the powers |x_n|**p of the coordinates of ``x``.

    A modulus or power beyond float range raises the ``RangeError`` that
    ``tail_power_sums`` documents.
    """
    try:
        moduli = list(map(abs, x.coords))
        return moduli, [m**x.p for m in moduli]
    except OverflowError:
        raise _tail_range_error(x) from None


def _tail_sums(x: FinSeqVector, powers: list[float]) -> list[float]:
    """Every suffix sum of ``powers``, the powers of ``x``, correctly rounded; then 0.0.

    ``np.frexp`` splits each finite power into a 53-bit integer times a power
    of two, so over 2**-k, the least of those or 1, every power is an integer
    and ``accumulate`` sums them exactly from the end.  Each sum is rounded
    once: by ``float(int)``, which CPython rounds correctly, times 2**-k,
    which is exact while every tail is a normal float and every sum is below
    2**1023; otherwise by ``int / int`` true division, also correctly
    rounded, which raises ``OverflowError`` exactly when the tail rounds to
    inf.  So every tail has the bits of ``math.fsum`` over its powers.  A nan
    or inf power, or a tail beyond float range, raises the ``RangeError``
    that ``tail_power_sums`` documents.
    """
    frac, exp = np.frexp(powers)
    if not np.isfinite(frac).all():
        raise _tail_range_error(x)
    k = 53 - int(exp.min(initial=53))  # k >= 0, since min counts 53 in; every power is an integer over 2**k
    ints = (frac * 2.0**53).astype(np.int64)[::-1].tolist()  # power = ints * 2**(exp - 53), exactly
    sums = list(accumulate(map(operator.lshift, ints, (exp[::-1] + (k - 53)).tolist())))
    if k <= 1022 and (not sums or sums[-1] < 1 << 1023):  # nonzero tails are then at least 2**-1022
        scale = math.ldexp(1.0, -k)
        return [float(t) * scale for t in reversed(sums)] + [0.0]
    tails, denominator = [0.0], 1 << k
    for j, t in enumerate(sums):  # from the last coordinate back
        try:
            tails.append(t / denominator)
        except OverflowError:
            raise RangeError(f"tail power sum from coordinate {len(sums) - j} is inf: it left float range") from None
    return tails[::-1]


def _tail_range_error(x: FinSeqVector) -> RangeError:
    """The error of ``x``'s tail sums once one of its powers has failed.

    Walking from the last coordinate back, the first power that raises or is
    not finite names its coordinate, unless a tail of the finite powers after
    it has already left float range: ``_tail_sums`` of those powers, with
    zeros in front, raises that error itself.
    """
    powers: list[float] = []
    for k, c in zip(range(len(x.coords), 0, -1), reversed(x.coords)):
        try:
            v = _modulus(c) ** x.p
        except OverflowError:
            v = math.inf
        if v == math.inf and cmath.isfinite(c):  # |x_n| or its power is beyond float range
            error = RangeError(f"|x_n|**p at coordinate {k} is beyond float range")
            break
        if not math.isfinite(v):  # v + inf is inf, or nan for a nan power
            error = RangeError(f"tail power sum from coordinate {k} is {v + math.inf!r}: it left float range")
            break
        powers.append(v)
    _tail_sums(x, [0.0] * (len(x.coords) - len(powers)) + powers[::-1])
    return error


def tail_power_sums(x: FinSeqVector) -> list[float]:
    """All tail power sums of ``x``: entry i is sum_{n >= i+1} |x_n|^p.

    The list has length ``len(x.coords) + 1`` and ends with 0.0.  Each tail
    is the exact sum of its powers, taken over integers, rounded once to the
    nearest float, so it has the bits of ``math.fsum`` over its suffix
    rather than the accumulated error of a running total.  The cost is
    O(n) integer additions.  Walking from the last coordinate to the first,
    the first power beyond float range raises ``RangeError`` naming its
    coordinate, as does the first tail that is inf or nan.
    """
    return _tail_sums(x, _moduli_and_powers(x)[1])


def _padded(x: FinSeqVector, y: FinSeqVector) -> tuple[tuple[complex, ...], tuple[complex, ...]]:
    """The coordinate tuples of x and y, the shorter padded with 0j to equal length."""
    n = max(len(x.coords), len(y.coords))
    return x.coords + (0j,) * (n - len(x.coords)), y.coords + (0j,) * (n - len(y.coords))


def subtract(x: FinSeqVector, y: FinSeqVector) -> FinSeqVector:
    """x - y, padding the shorter coordinate tuple with zeros."""
    if x.p != y.p:
        raise ValueError(f"exponent mismatch: {x.p} vs {y.p}")
    return FinSeqVector(x.p, tuple(map(operator.sub, *_padded(x, y))))


def max_coord_diff(x: FinSeqVector, y: FinSeqVector) -> float:
    """max_n |x_n - y_n|, padding the shorter vector with zeros."""
    return max(map(abs, map(operator.sub, *_padded(x, y))), default=0.0)


# ---------------------------------------------------------------------------
# weight sequences


def _checked_weight(value: object) -> complex:
    """``value`` as a weight, or ``ValueError`` unless finite and nonzero."""
    w = complex(value)
    if w == 0:
        raise ValueError("weights must be nonzero")
    if not cmath.isfinite(w):
        raise ValueError(f"weights must be finite, got {w!r}")
    return w


@dataclass(frozen=True, slots=True)
class Constant:
    """The constant weight sequence w_n = value."""

    value: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", _checked_weight(self.value))

    def weight_range(self, lo: int, hi: int) -> np.ndarray:
        return np.full(hi - lo, self.value, dtype=np.complex128)

    def log_abs_profile(self, lo: int, hi: int) -> np.ndarray:
        return np.arange(lo + 1, hi + 1, dtype=np.float64) * math.log(abs(self.value))

    def bound(self) -> float:
        return _modulus(self.value)

    def analytic_label(self, p: float) -> str:
        # beta(n) = value^n: the chaos sum is geometric, so |value| > 1
        # settles everything; otherwise the products never escape.
        return "Chaotic" if abs(self.value) > 1.0 else "NotTransitive"

    def to_dict(self) -> dict:
        return {"kind": "constant", "value": _pair(self.value)}


@dataclass(frozen=True, slots=True)
class Explicit:
    """A finite, explicitly listed weight sequence."""

    weights: tuple[complex, ...]
    _log_abs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ws = tuple(_checked_weight(w) for w in self.weights)
        if not ws:
            raise ValueError("explicit weight list must be nonempty")
        object.__setattr__(self, "weights", ws)
        # the whole profile, once: a running sum from w_1 gives an entry the
        # same bits whichever range it is asked for in, and a list the caller
        # holds bounds its size
        with np.errstate(over="ignore"):
            log_abs = np.log(np.abs(np.array(ws, dtype=np.complex128)))
        object.__setattr__(self, "_log_abs", np.cumsum(log_abs))

    def _check_range(self, lo: int, hi: int) -> None:
        n = len(self.weights)
        if hi > n:
            raise IndexError(f"weight index {max(lo, n) + 1} beyond explicit list of length {n}")

    def weight_range(self, lo: int, hi: int) -> np.ndarray:
        self._check_range(lo, hi)
        return np.array(self.weights[lo:hi], dtype=np.complex128)

    def log_abs_profile(self, lo: int, hi: int) -> np.ndarray:
        self._check_range(lo, hi)
        return self._log_abs[lo:hi].copy()

    def bound(self) -> float:
        return max(_modulus(v) for v in self.weights)

    def analytic_label(self, p: float) -> None:
        return None  # a finite list only ever gives finite-horizon evidence

    def to_dict(self) -> dict:
        return {"kind": "explicit", "weights": [_pair(v) for v in self.weights]}


def _block_runs(lo: int, hi: int) -> list[tuple[int, int, bool, int, int]]:
    """The positions n = lo+1..hi cut into runs that lie in one block each.

    Pair k occupies k(k-1)+1 .. k(k+1): its first block k(k-1)+1 .. k*k and
    its second block k*k+1 .. k(k+1).  A run ``(start, stop, second, shared,
    excess)`` covers positions lo+start+1 .. lo+stop of a first or
    ``second`` block.  Up to its first position, ``shared`` second-block
    positions are matched by as many first-block ones, and ``excess``
    first-block positions are left over.  Along a first-block run the
    excess count rises by one per position; along a second-block run the
    shared count rises and the excess count falls.
    """
    k = max(math.isqrt(lo), 1)
    if k * (k + 1) <= lo:  # lo lies between k*k and (k+1)*(k+1): pair k ends before lo+1
        k += 1
    runs = []
    n = lo
    while n < hi:
        c = k * (k - 1) // 2  # the pairs before pair k have c positions in each block
        if n < k * k:
            stop, j = min(k * k, hi), n - k * (k - 1)  # n+1 is the (j+1)-th of its block
            runs.append((n - lo, stop - lo, False, c, j + 1))
        else:
            stop, j = min(k * (k + 1), hi), n - k * k
            runs.append((n - lo, stop - lo, True, c + j + 1, k - j - 1))
        n = stop
        if n == k * (k + 1):
            k += 1
    return runs


@dataclass(frozen=True, slots=True)
class BalancedBlocks:
    """Block-paired weights: pair k is k copies of ``a`` then k copies of ``b``.

    ``a_first=False`` swaps the roles, putting the ``b`` block first in every
    pair.  Pair k occupies positions k(k-1)+1 .. k(k+1).
    """

    a: complex
    b: complex
    a_first: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _checked_weight(self.a))
        object.__setattr__(self, "b", _checked_weight(self.b))
        object.__setattr__(self, "a_first", bool(self.a_first))

    @property
    def first(self) -> complex:
        return self.a if self.a_first else self.b

    @property
    def second(self) -> complex:
        return self.b if self.a_first else self.a

    def weight_range(self, lo: int, hi: int) -> np.ndarray:
        out = np.empty(hi - lo, dtype=np.complex128)
        for start, stop, second, _, _ in _block_runs(lo, hi):
            out[start:stop] = self.second if second else self.first
        return out

    def log_abs_profile(self, lo: int, hi: int) -> np.ndarray:
        """log |beta(n)| for lo < n <= hi: shared * log|first * second| + excess * log|first|.

        Up to any n there are never more second-block positions than
        first-block ones.  That shared count multiplies log|first * second|
        as an integer, so with |first * second| == 1 the value at every pair
        boundary is exactly 0.0 rather than a sum of opposing rounding
        errors.  Within a block run both counts step by one, so each run is
        one addition over slices of two tables built per call, count * log
        for the counts it spans.  The counts are exact in float64 below
        2**53, so every entry has the bits of the same two products and one
        sum formed position by position.
        """
        la = math.log(abs(self.first))
        m = abs(self.first) * abs(self.second)
        # a product that left float range is taken apart into a sum of logs
        lm = math.log(m) if 0.0 < m < math.inf else la + math.log(abs(self.second))
        runs = _block_runs(lo, hi)
        # the excess counts of each run, lowest and highest
        spans = [
            (e + 1 - (stop - start), e) if second else (e, e + stop - start - 1) for start, stop, second, _, e in runs
        ]
        e0 = min((low for low, _ in spans), default=0)
        excess = np.arange(e0, max((high for _, high in spans), default=0) + 1, dtype=np.float64)
        excess *= la
        # the shared counts rise through the second-block runs, each carrying on from the last
        s0 = next((s for _, _, second, s, _ in runs if second), 0)
        shared = np.arange(s0, s0 + sum(stop - start for start, stop, second, _, _ in runs if second), dtype=np.float64)
        shared *= lm
        out = np.empty(hi - lo)
        for start, stop, second, s, e in runs:
            size = stop - start
            if second:
                falling = excess[e + 1 - size - e0 : e + 1 - e0][::-1]
                np.add(shared[s - s0 : s - s0 + size], falling, out=out[start:stop])
            else:
                np.add(excess[e - e0 : e - e0 + size], s * lm, out=out[start:stop])
        return out

    def bound(self) -> float:
        return max(_modulus(self.a), _modulus(self.b))

    def analytic_label(self, p: float) -> str:
        m = abs(self.a) * abs(self.b)
        # Pair k multiplies |beta| by m^k overall, with an in-pair excursion
        # of factor |first|^k.  m decides escape; on the balanced ridge
        # m == 1 the excursions alone decide transitivity.
        if m > 1.0:
            return "Chaotic"
        if m < 1.0:
            return "NotTransitive"
        if abs(self.first) > 1.0:
            return "TransitiveNotMixing"
        return "NotTransitive"

    def to_dict(self) -> dict:
        return {"kind": "blocks", "a": _pair(self.a), "b": _pair(self.b), "a_first": self.a_first}


@dataclass(frozen=True, slots=True)
class PowerLawBeta:
    """Positive weights w_1 = 1, w_n = (n / (n-1))**alpha, so beta(n) = n**alpha."""

    alpha: float

    def __post_init__(self) -> None:
        a = float(self.alpha)
        if not math.isfinite(a):
            raise ValueError(f"alpha must be finite, got {self.alpha!r}")
        object.__setattr__(self, "alpha", a)

    def weight_range(self, lo: int, hi: int) -> np.ndarray:
        # Python's ** per weight: numpy's power rounds differently
        try:
            ws = [(n / (n - 1)) ** self.alpha if n > 1 else 1.0 for n in range(lo + 1, hi + 1)]
        except OverflowError:
            n = max(lo + 1, 2)  # the largest weight in the range overflows first
            raise RangeError(f"weight w_{n} = ({n}/{n - 1})**{self.alpha!r} is beyond float range") from None
        return np.array(ws, dtype=np.complex128)

    def log_abs_profile(self, lo: int, hi: int) -> np.ndarray:
        with np.errstate(over="ignore"):  # |alpha| * log(n) beyond float range saturates to +-inf
            return self.alpha * np.log(np.arange(lo + 1, hi + 1, dtype=np.float64))

    def bound(self) -> float:
        # w_n = (n/(n-1))**alpha is largest at n = 2 for alpha > 0 and
        # approaches 1 from below otherwise; w_1 = 1.
        try:
            return max(1.0, 2.0**self.alpha)
        except OverflowError:
            return math.inf

    def analytic_label(self, p: float) -> str:
        if self.alpha * p > 1.0:
            return "Chaotic"  # sum n^(-alpha p) converges
        if self.alpha > 0.0:
            return "MixingNotChaotic"  # n^alpha -> inf, sum diverges
        return "NotTransitive"  # bounded (alpha = 0) or decaying profile

    def to_dict(self) -> dict:
        return {"kind": "powerlaw", "alpha": self.alpha}


WeightSequence = Union[Constant, Explicit, BalancedBlocks, PowerLawBeta]


# ---------------------------------------------------------------------------
# shift operators


@dataclass(frozen=True, slots=True)
class ShiftOperator:
    """The weighted backward shift on l^p: (T x)_n = w_n * x_{n+1}."""

    weights: WeightSequence
    p: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", check_exponent(self.p))


def apply_shift(t: ShiftOperator, x: FinSeqVector) -> FinSeqVector:
    """One application of the weighted backward shift; shortens support by one.

    The weights come from one ``weight_range`` call and multiply as Python
    complexes: numpy's complex product does not round the same way.
    """
    if x.p != t.p:
        raise ValueError(f"operator is on l^{t.p} but vector is in l^{x.p}")
    n = len(x.coords)
    if n <= 1:
        return FinSeqVector(x.p, ())
    ws = t.weights.weight_range(0, n - 1).tolist()
    return FinSeqVector(x.p, tuple(w * c for w, c in zip(ws, x.coords[1:])))


# ---------------------------------------------------------------------------
# sampling


def random_vectors(
    count: int,
    p: float,
    seed: int,
    support_range: tuple[int, int] = (1, 64),
    box: float = 10.0,
) -> list[FinSeqVector]:
    """Deterministic sample of vectors with uniform coordinates in a box.

    Support lengths are drawn uniformly from ``support_range`` (inclusive)
    and each coordinate has real and imaginary parts uniform on
    ``[-box, box]``.  The same ``seed`` always yields the same sample.
    """
    lo, hi = support_range
    if not 1 <= lo <= hi:
        raise ValueError(f"bad support range {support_range!r}")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(lo, hi + 1))
        parts = rng.uniform(-box, box, size=(n, 2)).tolist()
        out.append(FinSeqVector(p, tuple(starmap(complex, parts))))
    return out


# ---------------------------------------------------------------------------
# serialization


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def vector_to_dict(x: FinSeqVector) -> dict:
    """JSON-ready form: ``{"p": p, "coords": [[re, im], ...]}``."""
    return {"p": x.p, "coords": [[c.real, c.imag] for c in x.coords]}


def vector_from_dict(d: object) -> FinSeqVector:
    """The vector of a ``vector_to_dict`` form, checked in one pass.

    ``d`` must be a dict.  Its ``p`` is anything ``check_exponent`` takes,
    and its ``coords`` a list whose entries are each an ``[re, im]`` pair or
    a bare real, where a real is a number or a numeric string, as for ``p``.
    Every coordinate must be finite.  The first field that breaks this
    raises ``ValueError`` naming it.
    """
    if not isinstance(d, dict):
        raise ValueError(f"a vector must be a JSON object with p and coords, got {type(d).__name__}")
    coords = d.get("coords")
    if type(coords) is not list:
        raise ValueError(f"coords must be a list of [re, im] pairs or reals, got {type(coords).__name__}")
    out = []
    for n, v in enumerate(coords, 1):
        re, im = v if type(v) is list and len(v) == 2 else (v, 0.0)
        try:
            z = complex(float(re), float(im))
        except OverflowError:
            raise ValueError(f"coordinate {n} is an integer beyond float range") from None
        except (TypeError, ValueError):
            raise ValueError(f"coordinate {n} must be an [re, im] pair or a real, got {v!r}") from None
        if not cmath.isfinite(z):
            raise ValueError(f"coordinate {n} must be finite, got {z!r}")
        out.append(z)
    return FinSeqVector(d.get("p"), tuple(out))


def weights_to_dict(w: WeightSequence) -> dict:
    """JSON-ready tagged form, ``kind`` one of constant/explicit/blocks/powerlaw."""
    return w.to_dict()
