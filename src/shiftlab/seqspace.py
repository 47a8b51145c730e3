"""Finitely supported l^p vectors and weighted backward shift operators.

A vector here is an exact element of l^p: an exponent p >= 1 together with a
finite tuple of complex coordinates (coordinate n is zero for n beyond the
tuple).  Every norm and tail sum is therefore a finite sum over the support,
correctly rounded (norms by ``math.fsum``; tails as double-double suffix
sums, each certified to round correctly, or else summed exactly over
integers), so the identities tested elsewhere hold up to floating-point
rounding only; there is no series truncation error anywhere in this module.
``check_exponent`` is the one place that decides 1 <= p < inf.

Weight sequences come in four generator families:

* ``Constant(value)``             w_n = value for every n
* ``Explicit(weights)``           w_n read from a finite list, which it holds as
                                  its own read-only complex128 array, ``weights``
* ``BalancedBlocks(a, b)``        k copies of a, then k copies of b, k = 1, 2, ...
* ``PowerLawBeta(alpha)``         positive weights whose running product is n**alpha

Each family is one class with the same five methods, over the half-open
index range lo < n <= hi (0 <= lo <= hi):

* ``weight_range(lo, hi)``     the weights w_n, as a complex128 array
* ``log_abs_profile(lo, hi, out=None)``
                               log |beta(n)| with beta(n) = w_1 * ... * w_n,
                               as a float64 array that never overflows,
                               written into ``out`` (hi - lo float64
                               entries) when given, with the same bits;
                               the chaos sweep in ``dynamics`` passes views
                               of its one buffer, so its chunks allocate
                               no array and fault in no fresh pages
* ``log_abs_bounds(lo, hi)``   (low, high) with low <= every entry of
                               ``log_abs_profile(lo, hi)`` <= high, for
                               lo < hi; they may be loose, and cost O(1)
                               but for ``Explicit``, which reads its slice
* ``analytic_label(p)``        the closed-form dynamical label on l^p, as the
                               value of a ``dynamics.DynamicsLabel``, or None
                               when only numeric evidence can decide
* ``to_dict()``                the JSON-ready tagged form

Everything else (``apply_shift``, the ``dynamics`` profiles, labels and
orbits) goes through these methods, so a new family is one new class, plus
its descriptor in the CLI.  Families compare by value, but for ``Explicit``,
which compares by identity rather than by its array.

``BalancedBlocks`` tiles the index line with pairs of equal-length blocks:
pair k occupies positions k(k-1)+1 .. k(k+1), the first k of them carrying
the first value and the remaining k the second.  When ``|a * b| == 1`` the
running product returns to its starting modulus at every pair boundary,
which is the mechanism behind the transitive-but-not-mixing and
not-transitive example operators built on top of this module.  Which block
holds n, and how many positions of each block lie up to n, come from one
closed form in n, ``_block_counts``, whose counts are exact for n <= 2**52.

Sequence indices are 1-based, as in the paper: w_1 is the first weight,
``w.weight_range(0, 1)[0]``, and x_1 the first coordinate, ``x.coords[0]``.
"""

from __future__ import annotations

import cmath
import math
import operator
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import accumulate, chain, repeat, starmap
from typing import Iterator, Union

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

    @classmethod
    def _of(cls, p: float, coords: tuple[complex, ...]) -> "FinSeqVector":
        """The vector of a checked exponent and a tuple of Python complexes, taken as they are."""
        x = object.__new__(cls)
        object.__setattr__(x, "p", p)
        object.__setattr__(x, "coords", coords)
        return x


@dataclass(frozen=True, slots=True)
class _Batch:
    """Vectors of one l^p side by side: the form every vector kernel runs on.

    Lane i is one coordinate, its real part ``re[i]`` and imaginary part
    ``im[i]`` as float64; vector j holds lanes ``bounds[j]`` to
    ``bounds[j+1] - 1``.  The parts stay apart because numpy's complex128
    product, quotient and modulus do not round as CPython's complex
    arithmetic does.  Written out on the parts as CPython 3.11 computes
    them, with products from ``_cmul``, moduli from ``np.hypot`` (what
    ``abs`` calls) and powers from ``np.float_power`` (libm's ``pow`` per
    lane, as ``**``), every lane has the bits of the Python expression.  A
    public vector function is its kernel run on a batch of one.
    """

    p: float
    re: np.ndarray
    im: np.ndarray
    bounds: np.ndarray

    @classmethod
    def of(cls, p: float, parts: list[np.ndarray]) -> "_Batch":
        """The batch of vectors given as (n, 2) arrays of real and imaginary parts, in order."""
        both = np.concatenate(parts)
        return cls(p, both[:, 0].copy(), both[:, 1].copy(), _bounds([len(a) for a in parts]))

    def vectors(self) -> list[FinSeqVector]:
        c = np.empty(len(self.re), dtype=np.complex128)
        c.real, c.imag = self.re, self.im
        coords, b = tuple(c.tolist()), self.bounds.tolist()
        return [FinSeqVector._of(self.p, coords[lo:hi]) for lo, hi in zip(b, b[1:])]

    def moduli(self) -> np.ndarray:
        with np.errstate(over="ignore"):  # finite parts whose modulus is beyond float range: inf
            return np.hypot(self.re, self.im)

    def positions(self) -> np.ndarray:
        """Each lane's 0-based index within its vector."""
        return np.arange(len(self.re)) - np.repeat(self.bounds[:-1], np.diff(self.bounds))


def _in_space(p: float, x, what: str):
    """``x``, a vector or batch, once checked to lie in l^p, the space that ``what`` acts on."""
    if x.p != p:
        raise ValueError(f"{what} acts on l^{p} but vector is in l^{x.p}")
    return x


def _lane_error(x: _Batch, bad: np.ndarray, message) -> RangeError:
    """``message(n)`` for the first lane where ``bad`` holds, n its coordinate in its vector."""
    lane = int(np.argmax(bad))
    return RangeError(message(int(x.positions()[lane]) + 1))


def _finite_image(x: _Batch, y: _Batch, what: str, detail: str = "") -> _Batch:
    """``y``, the image of ``x`` lane by lane, once every finite lane of ``x`` has a finite image.

    The first lane where ``x`` is finite and ``y`` is not raises
    ``RangeError`` naming its coordinate in ``y``: the one rule for an
    image that left float range.
    """
    bad = np.isfinite(x.re) & np.isfinite(x.im) & ~(np.isfinite(y.re) & np.isfinite(y.im))
    if bad.any():
        raise _lane_error(y, bad, lambda n: f"{what} image at coordinate {n} is beyond float range{detail}")
    return y


def _cmul(a, b, c, d):
    """(a + bi)(c + di) on split parts, as CPython multiplies complexes: (ac - bd, ad + bc)."""
    return a * c - b * d, a * d + b * c


def _running_powers(z: complex, n: int) -> np.ndarray:
    """The n >= 1 running powers 1, z, (1 * z) * z, ... as complex128.

    Each is the Python complex product of the one before and z, as an orbit
    under z forms it, which need not have the bits of Python's z**k.
    """
    return np.fromiter(accumulate(repeat(z, n - 1), operator.mul, initial=1 + 0j), dtype=np.complex128, count=n)


def _bounds(sizes) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))


def _one(x: FinSeqVector) -> _Batch:
    c = np.fromiter(x.coords, dtype=np.complex128, count=len(x.coords))
    return _Batch.of(x.p, [c.view(np.float64).reshape(-1, 2)])


def _power_norm(powers: list[float], moduli: np.ndarray, p: float) -> float:
    """The l^p norm (sum m**p)**(1/p) of ``moduli``, from their powers m**p.

    ``np.float_power`` gives those powers with the bits of ``**``, and their
    ``math.fsum`` is correctly rounded.  When that sum is not finite, the
    largest modulus M decides: the norm is M itself when M is inf or nan,
    and otherwise M is factored out (J. L. Blue, ACM TOMS 4, 1978;
    E. Anderson, ACM TOMS 44, 2017): M * (sum (m/M)**p)**(1/p), with m/M
    and its powers taken by numpy with the bits of ``/`` and ``**``.  Sums
    that fit never take that branch, so their bits are those of the direct
    form.  The result is inf when the norm is beyond float range.
    """
    try:
        total = math.fsum(powers)
    except OverflowError:  # finite powers whose sum is beyond float range
        total = math.inf
    if total < math.inf:
        return total ** (1.0 / p)
    top = float(moduli.max())
    if not math.isfinite(top):  # inf/inf would be nan; an inf modulus makes the norm inf, a nan one nan
        return top
    return top * math.fsum(np.float_power(moduli / top, p).tolist()) ** (1.0 / p)


def _norms(moduli: np.ndarray, bounds: list[int], p: float) -> list[float]:
    """The l^p norm of each segment of ``moduli``, the powers from one ``np.float_power`` call."""
    with np.errstate(over="ignore"):
        powers = np.float_power(moduli, p).tolist()
    return [_power_norm(powers[lo:hi], moduli[lo:hi], p) for lo, hi in zip(bounds, bounds[1:])]


def lp_norm(x: FinSeqVector) -> float:
    """The l^p norm of ``x``, computed as a correctly rounded power sum.

    A power sum that overflows is recomputed with the largest modulus
    factored out, so the norm is finite whenever it fits in a float.  It is
    inf when a modulus is beyond float range and nan for a nan coordinate.
    """
    return _norms(_one(x).moduli(), [0, len(x.coords)], x.p)[0]


def _cumsum_errors(terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.cumsum`` along each row of ``terms``, and the rounding error of each of its steps.

    ``np.cumsum`` adds in sequence, and TwoSum gives the error of each
    addition exactly, barring overflow (Knuth, TAOCP vol. 2, 4.2.2).  Every
    row starts with a 0, whose step is exact.  The errors are written
    over ``terms``: a large array costs more to allocate than to compute.
    """
    total = np.cumsum(terms, axis=1)
    before, after, term = total[:, :-1], total[:, 1:], terms[:, 1:]
    z = after - before
    term -= z
    term += np.subtract(before, np.subtract(after, z, out=z), out=z)
    return total, terms


def _row_tails(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every prefix sum along each row of ``a``, which starts with a 0 column, and where it is certified.

    s = cumsum(a) and its step errors e give each exact sum T = s + sum(e),
    and c = cumsum(e) and its step errors e2 give sum(e) = c + sum(e2).  As
    |c| < s, r = fl(s + c) and delta = c - (r - s) give s + c = r + delta
    exactly (Dekker's Fast2Sum), so T - r = delta + sum(e2): the cascade of
    Ogita, Rump and Oishi, SIAM J. Sci. Comput. 26 (2005).  Where
    D = cumsum(|e2|) is 0, T = s + c, and r rounds T correctly, ties
    included.  Elsewhere sum |e2| <= D * (1 + gamma), gamma = w * 2**-50 for
    rows of w lanes, which covers the rounding of D's cumsum and of that
    product, and r is certified when |delta| + D * (1 + gamma) is below half
    the smaller gap next to r: T then lies strictly inside r's rounding
    interval.  So a lane is left uncertified only where the error bound
    straddles a rounding boundary.  ``ok`` is False for a lane that is not
    certified or not finite: from a power that is not finite on, or a
    running sum s that overflows, every later lane of the row is nan or
    inf.  ``a`` is overwritten.
    """
    s, e = _cumsum_errors(a)
    c, e2 = _cumsum_errors(e)
    d = np.cumsum(np.abs(e2, out=e2), axis=1, out=e2)
    r = s + c
    bound = np.abs(np.subtract(c, np.subtract(r, s, out=s), out=s), out=s)
    below = (r.view(np.int64) - 1).view(np.float64)  # the float next below r, across the smaller gap
    ok = (d == 0.0) | (bound + d * (1.0 + a.shape[1] * 2.0**-50) < (r - below) * 0.5)
    return r, ok & (r < math.inf)


def _tails(x: _Batch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The moduli |x_n|, the powers |x_n|**p and every tail power sum of each vector of ``x``.

    The powers come from one ``np.float_power`` call.  Each vector's powers,
    from its last coordinate back, fill one row of a zero-padded array, and
    ``_row_tails`` sums every row in double-double and certifies the sums
    it rounds correctly.  All vectors share one array, as wide as the longest
    plus the leading 0 column: every batch a caller builds is one vector, or
    residual samples of at most 64 lanes each.  The lanes left uncertified take
    their tails from one exact pass over their vector: each power is a
    53-bit integer times a power of two, so scaled by a power of two from
    the least exponent in the vector every power is an integer, their
    partial sums are exact, and int / int true division rounds each once,
    whatever the order of its terms.  So every tail has the bits of
    ``math.fsum`` over its powers, and the cost stays O(n) per vector
    however many of its lanes are uncertified.

    The vectors are walked from the last one back, each from its last
    coordinate back, and the first failure met raises the ``RangeError``
    that ``tail_power_sums`` documents: a power that is not finite, or a
    tail beyond float range.
    """
    m = x.moduli()
    with np.errstate(over="ignore", invalid="ignore"):
        powers = np.float_power(m, x.p)
        rev, sizes = powers[::-1], np.diff(x.bounds)[::-1]  # the lanes run from the last back, so the vectors do too
        n = sizes.max()
        cells = np.arange(n + 1) > n - sizes[:, None]  # each row ends with its lanes, after at least one 0
        padded = np.zeros(cells.shape)
        padded[cells] = rev
        tails, ok = (a[cells] for a in _row_tails(padded))
    rb, end, lanes = _bounds(sizes), 0, np.flatnonzero(~ok)
    for j, power in zip(lanes.tolist(), rev[lanes].tolist()):  # in the walk's order
        if j >= end:  # its vector rev[lo:end] in exact partial sums: a power is a 53-bit integer times 2**(e - 53)
            lo, end = rb[np.searchsorted(rb, j, "right") - 1 :][:2].tolist()
            frac, e = np.frexp(np.where(np.isfinite(rev[lo:end]), rev[lo:end], 0.0))  # a power that is not finite raises before any sum from it is read
            scale = 1 << 53 - (least := min(int(e.min()), 53))  # times scale, every power is an integer
            sums = list(accumulate(map(operator.lshift, (frac * 2.0**53).astype(np.int64).tolist(), (e - least).tolist())))
        k = end - j  # the lane's coordinate in its vector
        if not math.isfinite(power):
            if math.isfinite(x.re[~j]) and math.isfinite(x.im[~j]):  # |x_n| or its power is beyond float range
                raise RangeError(f"|x_n|**p at coordinate {k} is beyond float range")
            raise RangeError(f"tail power sum from coordinate {k} is {power + math.inf!r}: it left float range")
        try:
            tails[j] = sums[j - lo] / scale  # int / int rounds correctly, and overflows exactly when the tail rounds to inf
        except OverflowError:
            raise RangeError(f"tail power sum from coordinate {k} is inf: it left float range") from None
    return m, powers, tails[::-1]


def tail_power_sums(x: FinSeqVector) -> list[float]:
    """All tail power sums of ``x``: entry i is sum_{n >= i+1} |x_n|^p.

    The list has length ``len(x.coords) + 1`` and ends with 0.0.  Each tail
    is its exact sum rounded once to the nearest float, so it has the bits
    of ``math.fsum`` over its suffix rather than the accumulated error of a
    running total: a double-double suffix sum whose error bound certifies
    the rounding, or, for the few tails whose bound straddles a rounding
    boundary, one exact integer pass over the vector.  The cost is O(n).  One
    walk, from the last coordinate to the first, decides every error: the
    first power met that is not finite raises ``RangeError`` naming its
    coordinate (``|x_n|**p ...`` when the coordinate is finite, ``tail power
    sum ... is nan`` or ``inf`` when it is not), as does the first tail
    beyond float range.
    """
    return _tails(_one(x))[2].tolist() + [0.0]


def _padded(x: FinSeqVector, y: FinSeqVector) -> tuple[tuple[complex, ...], tuple[complex, ...]]:
    """The coordinate tuples of x and y, the shorter padded with 0j to equal length."""
    n = max(len(x.coords), len(y.coords))
    return x.coords + (0j,) * (n - len(x.coords)), y.coords + (0j,) * (n - len(y.coords))


def _subtract(x: _Batch, y: _Batch) -> _Batch:
    """x - y lane by lane, for batches with the same bounds."""
    return _Batch(x.p, x.re - y.re, x.im - y.im, x.bounds)


def subtract(x: FinSeqVector, y: FinSeqVector) -> FinSeqVector:
    """x - y, padding the shorter coordinate tuple with zeros."""
    if x.p != y.p:
        raise ValueError(f"exponent mismatch: {x.p} vs {y.p}")
    xs, ys = _padded(x, y)
    return _subtract(_one(FinSeqVector(x.p, xs)), _one(FinSeqVector(x.p, ys))).vectors()[0]


def max_coord_diff(x: FinSeqVector, y: FinSeqVector) -> float:
    """max_n |x_n - y_n|, padding the shorter vector with zeros."""
    return max(map(abs, map(operator.sub, *_padded(x, y))), default=0.0)


# ---------------------------------------------------------------------------
# weight sequences


def _checked_weight(value: object) -> complex:
    """``value`` as a weight: the one rule every weight follows.

    ``ValueError`` unless it is finite and nonzero, and ``RangeError`` when
    its finite parts have a modulus beyond float range, so ``abs`` of a
    checked weight is a finite float and never raises.
    """
    w = complex(value)
    if w == 0:
        raise ValueError("weights must be nonzero")
    if not cmath.isfinite(w):
        raise ValueError(f"weights must be finite, got {w!r}")
    if math.hypot(w.real, w.imag) == math.inf:
        raise RangeError(f"|{w}| is beyond float range")
    return w


@dataclass(frozen=True, slots=True)
class Constant:
    """The constant weight sequence w_n = value."""

    value: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", _checked_weight(self.value))

    def weight_range(self, lo: int, hi: int) -> np.ndarray:
        return np.full(hi - lo, self.value, dtype=np.complex128)

    def log_abs_profile(self, lo: int, hi: int, out: np.ndarray | None = None) -> np.ndarray:
        x = _positions(lo, hi, out)
        return np.multiply(x, math.log(abs(self.value)), out=x)

    def log_abs_bounds(self, lo: int, hi: int) -> tuple[float, float]:
        # fl(n * v) is monotone in n, so the ends give the extrema, exactly
        return tuple(sorted(n * math.log(abs(self.value)) for n in (lo + 1, hi)))

    def analytic_label(self, p: float) -> str:
        # beta(n) = value^n: the chaos sum is geometric, so |value| > 1
        # settles everything; otherwise the products never escape.
        return "Chaotic" if abs(self.value) > 1.0 else "NotTransitive"

    def to_dict(self) -> dict:
        return {"kind": "constant", "value": _pair(self.value)}


@dataclass(frozen=True, slots=True, eq=False)
class Explicit:
    """A finite, explicitly listed weight sequence, compared by identity.

    ``weights`` is the list's own copy of the weights given, one read-only
    complex128 array.
    """

    weights: np.ndarray
    _log_abs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # the weights are checked as one array, a copy of an array given and of
        # the items of anything else; when one fails, or the conversion refuses
        # one or gives no 1-D array, _checked_weight of each in turn raises for the first
        ws = self.weights if isinstance(self.weights, np.ndarray) else tuple(self.weights)
        try:
            arr = np.array(ws, dtype=np.complex128)
        except (TypeError, ValueError, OverflowError):
            arr = None
        with np.errstate(over="ignore"):  # finite parts whose modulus is beyond float range: inf
            if arr is None or arr.ndim != 1 or not (arr.all() and np.isfinite(np.hypot(arr.real, arr.imag)).all()):
                arr = np.array(list(map(_checked_weight, ws)), dtype=np.complex128)
            if not len(arr):
                raise ValueError("explicit weight list must be nonempty")
            arr.flags.writeable = False
            object.__setattr__(self, "weights", arr)
            # the whole profile, once: a running sum from w_1 gives an entry the
            # same bits whichever range it is asked for in, and a list the caller
            # holds bounds its size
            object.__setattr__(self, "_log_abs", np.cumsum(np.log(np.abs(arr))))

    def _range(self, a: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """``a[lo:hi]`` of an array with one entry per weight, or ``IndexError`` past the list."""
        if hi > (n := len(self.weights)):
            raise IndexError(f"weight index {max(lo, n) + 1} beyond explicit list of length {n}")
        return a[lo:hi]

    def weight_range(self, lo: int, hi: int) -> np.ndarray:
        return self._range(self.weights, lo, hi).copy()

    def log_abs_profile(self, lo: int, hi: int, out: np.ndarray | None = None) -> np.ndarray:
        return np.concatenate((self._range(self._log_abs, lo, hi),), out=out)  # a copy, into out when given

    def log_abs_bounds(self, lo: int, hi: int) -> tuple[float, float]:
        part = self._range(self._log_abs, lo, hi)
        return float(part.min()), float(part.max())

    def analytic_label(self, p: float) -> None:
        return None  # a finite list only ever gives finite-horizon evidence

    def to_dict(self) -> dict:
        return {"kind": "explicit", "weights": self.weights.view(np.float64).reshape(-1, 2).tolist()}


# The streamed chaos sums in ``dynamics`` ask for profile chunks of at most
# _LEAF terms, the leaves of their sums, each written into their one buffer.
_LEAF = 1 << 15

# Positions are built, and block profiles rewritten, in pieces of _PIECE, so
# _STEPS and each temporary of ``_block_counts`` are 64 KiB: below glibc's
# 128 KiB mmap threshold, they live on the heap and reuse its pages instead
# of faulting in fresh ones, and importing this module maps no pages.
_PIECE = 1 << 13
_STEPS = np.arange(1.0, _PIECE + 1.0)


def _positions(lo: int, hi: int, out: np.ndarray | None = None) -> np.ndarray:
    """The positions lo+1..hi as float64, exact below 2**53, written into ``out`` when given.

    These are the bits of ``np.arange(lo + 1, hi + 1, dtype=np.float64)``,
    built as _STEPS plus a shift in pieces of _PIECE, so a given ``out``
    is the only array written.
    """
    out = np.empty(hi - lo) if out is None else out
    for start in range(0, hi - lo, _PIECE):
        np.add(_STEPS[: min(_PIECE, hi - lo - start)], lo + start, out=out[start : start + _PIECE])
    return out


def _block_counts(n: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """k, the shared count and d at each float64 position n >= 1, built in place of n.

    Pair k ends at k(k+1), with k = isqrt(n - 1) taken as floor(sqrt(n - 1)),
    exact for n <= 2**52, as is every count here, and d = n - k(k+1).
    Position n lies in the second block of pair k when d <= 0 and in the
    first block of pair k + 1 otherwise.  Up to n, the shared count
    k(k+1)/2 + min(d, 0) of second-block positions is matched by as many
    first-block ones, and |d| first-block positions are left over.  ``n`` is
    overwritten with d, so three float64 arrays of its length are alive at
    once, and for one step a boolean mask.  ``log_abs_profile`` passes it
    pieces of _PIECE positions of its output, so there that is three
    arrays per piece, one of them the piece itself.
    """
    k = n - 1.0
    np.sqrt(k, out=k)
    np.floor(k, out=k)
    shared = k + 1.0
    shared *= k
    n -= shared
    shared *= 0.5
    np.add(shared, n, out=shared, where=n < 0.0)
    return k, shared, n


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
        d = _block_counts(_positions(lo, hi))[2]
        return np.where(d <= 0.0, self.second, self.first)

    def log_abs_profile(self, lo: int, hi: int, out: np.ndarray | None = None) -> np.ndarray:
        """log |beta(n)| for lo < n <= hi: shared * log|first * second| + excess * log|first|.

        Up to any n there are never more second-block positions than
        first-block ones.  That shared count multiplies log|first * second|
        as an integer, so with |first * second| == 1 the value at every pair
        boundary is exactly 0.0 rather than a sum of opposing rounding
        errors.  Both counts come from the closed form of ``_block_counts``,
        exact for n <= 2**52, and the two products and the sum are taken in
        its arrays, so every entry has the bits of the same two products and
        one sum formed position by position.  The output, or ``out`` when
        given, starts as the positions and ``_block_counts`` takes it in
        pieces of _PIECE, each overwritten with its excess counts and
        then its entries, so the memory beyond the output is that of one
        piece, 64 KiB per temporary.
        """
        la, lm = self._logs()
        out = _positions(lo, hi, out)
        for start in range(0, hi - lo, _PIECE):
            _, shared, excess = _block_counts(out[start : start + _PIECE])
            np.abs(excess, out=excess)
            shared *= lm
            excess *= la
            excess += shared
        return out

    def _logs(self) -> tuple[float, float]:
        """log|first| and log|first * second|, the two factors of every profile entry."""
        la = math.log(abs(self.first))
        m = abs(self.first) * abs(self.second)
        # a product that left float range is taken apart into a sum of logs
        return la, (math.log(m) if 0.0 < m < math.inf else la + math.log(abs(self.second)))

    def log_abs_bounds(self, lo: int, hi: int) -> tuple[float, float]:
        """Each entry is fl(fl(shared * lm) + fl(excess * la)), monotone in both counts.

        The shared count rises with n, so it lies between its values at
        lo+1 and hi, and the excess count lies in [0, K] for the pair
        K = k + (d > 0) that holds hi.  The same products and sum of those
        ends bound every entry, in O(1).
        """
        la, lm = self._logs()
        k, shared, d = _block_counts(np.array([lo + 1.0, hi]))
        s_lo, s_hi = (shared * lm).tolist()
        e = float(k[1] + (d[1] > 0.0)) * la
        return min(s_lo, s_hi) + min(0.0, e), max(s_lo, s_hi) + max(0.0, e)

    def analytic_label(self, p: float) -> str:
        la, lm = self._logs()
        # Pair k multiplies |beta| by |first * second|^k overall, with an
        # in-pair excursion of factor |first|^k.  The sign of lm decides
        # escape; on the balanced ridge lm == 0 the excursions alone, by the
        # sign of la, decide transitivity.
        if lm > 0.0:
            return "Chaotic"
        if lm < 0.0:
            return "NotTransitive"
        if la > 0.0:
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

    def log_abs_profile(self, lo: int, hi: int, out: np.ndarray | None = None) -> np.ndarray:
        x = _positions(lo, hi, out)
        with np.errstate(over="ignore"):  # |alpha| * log(n) beyond float range saturates to +-inf
            return np.multiply(np.log(x, out=x), self.alpha, out=x)

    def log_abs_bounds(self, lo: int, hi: int) -> tuple[float, float]:
        # np.log is within a few ulps of math.log, and log(n) >= 0, so the
        # logs of the ends widened by 2**-49 (8 ulps or more) bound every
        # entry's log, and fl(alpha * x) is monotone in x
        return tuple(sorted(self.alpha * (math.log(n) * f) for n, f in ((lo + 1, 1 - 2**-49), (hi, 1 + 2**-49))))

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


def _shift(t: ShiftOperator, x: _Batch) -> _Batch:
    """``t`` applied to every vector of ``x``: each loses its first lane.

    The weights come from one ``weight_range`` call up to the longest
    vector, and lane n-1 of the image is w_(n-1) * x_n by ``_cmul``.  A
    product beyond float range raises ``RangeError`` naming its coordinate
    in the image.
    """
    _in_space(t.p, x, "operator")
    sizes = np.diff(x.bounds)
    pos = x.positions()
    keep = pos > 0
    w = t.weights.weight_range(0, int(sizes.max()) - 1) if sizes.max(initial=0) > 1 else np.empty(0, np.complex128)
    kept = _Batch(x.p, x.re[keep], x.im[keep], _bounds(np.maximum(sizes - 1, 0)))
    with np.errstate(over="ignore", invalid="ignore"):
        re, im = _cmul(w.real[pos[keep] - 1], w.imag[pos[keep] - 1], kept.re, kept.im)
    return _finite_image(kept, _Batch(x.p, re, im, kept.bounds), "operator")


def apply_shift(t: ShiftOperator, x: FinSeqVector) -> FinSeqVector:
    """One application of the weighted backward shift; shortens support by one.

    The weights come from one ``weight_range`` call and multiply as Python
    complexes do: numpy's complex product does not round the same way.
    """
    return _shift(t, _one(x)).vectors()[0]


# ---------------------------------------------------------------------------
# sampling


def _random_parts(count: int, seed: int, support_range: tuple[int, int] = (1, 64), box: float = 10.0) -> Iterator[np.ndarray]:
    """The draws of ``random_vectors``, as drawn: per vector, an (n, 2) array of real and imaginary parts."""
    lo, hi = support_range
    if not 1 <= lo <= hi:
        raise ValueError(f"bad support range {support_range!r}")
    rng = np.random.default_rng(seed)
    return (rng.uniform(-box, box, size=(int(rng.integers(lo, hi + 1)), 2)) for _ in range(count))


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
    A bad ``support_range`` raises before a bad ``p``.
    """
    parts, p = _random_parts(count, seed, support_range, box), check_exponent(p)
    return [FinSeqVector._of(p, tuple(a.view(np.complex128)[:, 0].tolist())) for a in parts]


# ---------------------------------------------------------------------------
# serialization


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def vector_to_dict(x: FinSeqVector) -> dict:
    """JSON-ready form: ``{"p": p, "coords": [[re, im], ...]}``, each part a Python float.

    ``apply-map`` writes its image as ``json.dumps`` writes this form of it.
    """
    return {"p": x.p, "coords": list(map(_pair, x.coords))}


_NUMBERS = {int, float}  # exact types: a JSON true or false is not a number here


def _coordinate(n: int, v: object) -> tuple[float, float]:
    """The parts of entry n of ``coords``, or ``ValueError`` naming it."""
    re, im = v if type(v) is list and len(v) == 2 else (v, 0.0)
    try:
        if bool in (type(re), type(im)):
            raise TypeError
        z = complex(float(re), float(im))
    except OverflowError:
        raise ValueError(f"coordinate {n} is an integer beyond float range") from None
    except (TypeError, ValueError):
        raise ValueError(f"coordinate {n} must be an [re, im] pair or a real, got {v!r}") from None
    if not cmath.isfinite(z):
        raise ValueError(f"coordinate {n} must be finite, got {z!r}")
    return z.real, z.imag


def _coord_parts(coords: list) -> np.ndarray:
    """The (n, 2) float64 real and imaginary parts of the entries of ``coords``.

    When every entry is a pair of exact ints and floats, one ``np.fromiter``
    pass over the parts in order reads them all, which skips the
    nested-sequence discovery that is most of ``np.array``'s time.  Any
    other list, and one holding an integer beyond float range or a part
    that is not finite, goes through ``_coordinate`` entry by entry, which
    reads bare reals, numeric strings and mixed entries and raises for the
    first bad entry.
    """
    if set(map(type, coords)) == {list} and set(map(len, coords)) == {2} and set(map(type, chain.from_iterable(coords))) <= _NUMBERS:
        with suppress(OverflowError):  # an integer beyond float range
            a = np.fromiter(chain.from_iterable(coords), np.float64, 2 * len(coords)).reshape(-1, 2)
            if np.isfinite(a).all():
                return a
    return np.array(list(starmap(_coordinate, enumerate(coords, 1))), dtype=np.float64).reshape(-1, 2)


def _read_vector(d: object) -> _Batch:
    """The vector of a ``vector_to_dict`` form, checked, as a batch of one.

    ``d`` must be a dict.  Its ``p`` is anything ``check_exponent`` takes
    but a bool, and its ``coords`` a list whose entries are each an
    ``[re, im]`` pair or a bare real, where a real is a number or a numeric
    string, as for ``p``, and never a bool.  Every coordinate must be
    finite.  The first field that breaks this raises ``ValueError`` naming
    it: the document, then ``coords``, each coordinate in order, then ``p``.
    """
    if not isinstance(d, dict):
        raise ValueError(f"a vector must be a JSON object with p and coords, got {type(d).__name__}")
    coords = d.get("coords")
    if type(coords) is not list:
        raise ValueError(f"coords must be a list of [re, im] pairs or reals, got {type(coords).__name__}")
    parts, p = _coord_parts(coords), d.get("p")
    if type(p) is bool:  # check_exponent, which the Python API shares, takes it as float() does
        raise ValueError(f"exponent must satisfy 1 <= p < inf, got {p!r}")
    return _Batch.of(check_exponent(p), [parts])


def vector_from_dict(d: object) -> FinSeqVector:
    """The vector of a ``vector_to_dict`` form, checked.

    ``p`` is a number or numeric string with 1 <= p < inf, and ``coords`` a
    list of ``[re, im]`` pairs or bare reals, each finite, where a real is a
    number or numeric string, never a bool.  The first field that breaks
    this raises ``ValueError`` naming it.  This is ``_read_vector``, which
    the CLI reads vector files with, turned from a batch of one into a
    vector.
    """
    return _read_vector(d).vectors()[0]


def weights_to_dict(w: WeightSequence) -> dict:
    """JSON-ready tagged form, ``kind`` one of constant/explicit/blocks/powerlaw."""
    return w.to_dict()
