"""Finitely supported l^p vectors and weighted backward shift operators.

A vector here is an exact element of l^p: an exponent p >= 1 together with a
finite tuple of complex coordinates (coordinate n is zero for n beyond the
tuple).  Every norm and tail sum is therefore a finite sum over the support,
evaluated with correctly rounded summation (``math.fsum``), so the identities
tested elsewhere hold up to floating-point rounding only; there is no series
truncation error anywhere in this module.

Weight sequences come in four generator families:

* ``Constant(value)``             w_n = value for every n
* ``Explicit(weights)``           w_n read from a finite list
* ``BalancedBlocks(a, b)``        k copies of a, then k copies of b, k = 1, 2, ...
* ``PowerLawBeta(alpha)``         positive weights whose running product is n**alpha

``BalancedBlocks`` tiles the index line with pairs of equal-length blocks:
pair k occupies positions k(k-1)+1 .. k(k+1), the first k of them carrying
the first value and the remaining k the second.  When ``|a * b| == 1`` the
running product returns to its starting modulus at every pair boundary,
which is the mechanism behind the transitive-but-not-mixing and
not-transitive example operators built on top of this module.

Indexing is 1-based throughout the public interface: ``weight_at(w, 1)`` is
the first weight and ``x.coord(1)`` the first coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "RangeError",
    "FinSeqVector",
    "Constant",
    "Explicit",
    "BalancedBlocks",
    "PowerLawBeta",
    "WeightSequence",
    "ShiftOperator",
    "weight_at",
    "weight_bound",
    "beta",
    "log_abs_beta",
    "lp_norm",
    "tail_power_sums",
    "apply_shift",
    "iterate_shift",
    "scale",
    "subtract",
    "max_coord_diff",
    "random_vectors",
    "vector_to_dict",
    "vector_from_dict",
    "weights_to_dict",
    "weights_from_dict",
]


class RangeError(ValueError):
    """A result that should be a finite float is not: it left float range."""


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
        p = float(self.p)
        if not math.isfinite(p) or p < 1.0:
            raise ValueError(f"exponent must satisfy 1 <= p < inf, got {self.p!r}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coords", tuple(complex(c) for c in self.coords))

    @property
    def support_length(self) -> int:
        """Length of the coordinate tuple (an upper bound for the support)."""
        return len(self.coords)

    def coord(self, n: int) -> complex:
        """The n-th coordinate, 1-based; zero beyond the stored tuple."""
        if n < 1:
            raise ValueError(f"coordinate index must be >= 1, got {n}")
        if n > len(self.coords):
            return 0j
        return self.coords[n - 1]


def _norm_from_moduli(moduli: list[float], p: float) -> float:
    """(sum m**p)**(1/p) over the moduli, with a correctly rounded power sum.

    When the power sum overflows although the norm itself may fit, the
    largest modulus M is factored out (J. L. Blue, ACM TOMS 4, 1978;
    E. Anderson, ACM TOMS 44, 2017): M * (sum (m/M)**p)**(1/p).  Sums that
    fit never take that branch, so their bits are those of the direct form.
    The result is inf (or nan) when the norm is beyond float range.
    """
    try:
        return math.fsum([m**p for m in moduli]) ** (1.0 / p)
    except OverflowError:
        top = max(moduli)
        return top * math.fsum([(m / top) ** p for m in moduli]) ** (1.0 / p)


def lp_norm(x: FinSeqVector) -> float:
    """The l^p norm of ``x``, computed as a correctly rounded power sum.

    A power sum that overflows is recomputed with the largest modulus
    factored out, so the norm is finite whenever it fits in a float.
    """
    return _norm_from_moduli([abs(c) for c in x.coords], x.p)


def tail_power_sums(x: FinSeqVector) -> list[float]:
    """All tail power sums of ``x``: entry i is sum_{n >= i+1} |x_n|^p.

    The list has length ``len(x.coords) + 1`` and ends with 0.0.  It is
    built in one O(n) pass from the last coordinate to the first that keeps
    the running suffix sum exactly, as a short list of non-overlapping
    Shewchuk partials (J. R. Shewchuk, DCG 18, 1997; the recipe behind
    ``math.fsum``).  Every entry is the ``fsum`` of those partials, so each
    tail is still correctly rounded rather than carrying accumulated error
    from a running total.  A power or tail that leaves float range raises
    ``RangeError`` naming its coordinate.
    """
    p = x.p
    n = len(x.coords)
    tails = [0.0]
    partials: list[float] = []
    for j, c in enumerate(reversed(x.coords)):
        try:
            v = abs(c) ** p
        except OverflowError:
            raise RangeError(f"|x_n|**p at coordinate {n - j} is beyond float range") from None
        i = 0
        for y in partials:  # hi + lo == v + y exactly, with |lo| below an ulp of hi
            if abs(v) < abs(y):
                v, y = y, v
            hi = v + y
            lo = y - (hi - v)
            if lo:
                partials[i] = lo
                i += 1
            v = hi
        if not math.isfinite(v):
            raise RangeError(f"tail power sum from coordinate {n - j} is {v!r}: it left float range")
        partials[i:] = [v]
        tails.append(math.fsum(partials))
    tails.reverse()
    return tails


def scale(x: FinSeqVector, c: complex) -> FinSeqVector:
    """The scalar multiple c * x on the same l^p."""
    return FinSeqVector(x.p, tuple(c * v for v in x.coords))


def subtract(x: FinSeqVector, y: FinSeqVector) -> FinSeqVector:
    """x - y, padding the shorter coordinate tuple with zeros."""
    if x.p != y.p:
        raise ValueError(f"exponent mismatch: {x.p} vs {y.p}")
    n = max(len(x.coords), len(y.coords))
    return FinSeqVector(x.p, tuple(x.coord(i) - y.coord(i) for i in range(1, n + 1)))


def max_coord_diff(x: FinSeqVector, y: FinSeqVector) -> float:
    """max_n |x_n - y_n|, padding the shorter vector with zeros."""
    n = max(len(x.coords), len(y.coords))
    if n == 0:
        return 0.0
    return max(abs(x.coord(i) - y.coord(i)) for i in range(1, n + 1))


# ---------------------------------------------------------------------------
# weight sequences


@dataclass(frozen=True, slots=True)
class Constant:
    """The constant weight sequence w_n = value."""

    value: complex

    def __post_init__(self) -> None:
        v = complex(self.value)
        if v == 0:
            raise ValueError("weights must be nonzero")
        object.__setattr__(self, "value", v)


@dataclass(frozen=True, slots=True)
class Explicit:
    """A finite, explicitly listed weight sequence."""

    weights: tuple[complex, ...]

    def __post_init__(self) -> None:
        ws = tuple(complex(w) for w in self.weights)
        if not ws:
            raise ValueError("explicit weight list must be nonempty")
        if any(w == 0 for w in ws):
            raise ValueError("weights must be nonzero")
        object.__setattr__(self, "weights", ws)


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
        a = complex(self.a)
        b = complex(self.b)
        if a == 0 or b == 0:
            raise ValueError("weights must be nonzero")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "a_first", bool(self.a_first))

    @property
    def first(self) -> complex:
        return self.a if self.a_first else self.b

    @property
    def second(self) -> complex:
        return self.b if self.a_first else self.a


@dataclass(frozen=True, slots=True)
class PowerLawBeta:
    """Positive weights w_1 = 1, w_n = (n / (n-1))**alpha, so beta(n) = n**alpha."""

    alpha: float

    def __post_init__(self) -> None:
        a = float(self.alpha)
        if not math.isfinite(a):
            raise ValueError(f"alpha must be finite, got {self.alpha!r}")
        object.__setattr__(self, "alpha", a)


WeightSequence = Union[Constant, Explicit, BalancedBlocks, PowerLawBeta]


def _pair_index(n: int) -> int:
    """The k with k(k-1) < n <= k(k+1) (which block pair position n falls in)."""
    k = math.isqrt(n)
    while k * (k - 1) >= n:
        k -= 1
    while k * (k + 1) < n:
        k += 1
    return k


def _block_counts(n: int) -> tuple[int, int]:
    """How many first-block and second-block positions lie in 1..n."""
    if n <= 0:
        return 0, 0
    k = _pair_index(n)
    full = k * (k - 1) // 2  # first-block (= second-block) count in pairs < k
    m = n - k * (k - 1)  # offset of n inside pair k, 1 <= m <= 2k
    return full + min(m, k), full + max(0, m - k)


def weight_at(w: WeightSequence, n: int) -> complex:
    """The n-th weight, 1-based."""
    if n < 1:
        raise ValueError(f"weight index must be >= 1, got {n}")
    if isinstance(w, Constant):
        return w.value
    if isinstance(w, Explicit):
        if n > len(w.weights):
            raise IndexError(f"weight index {n} beyond explicit list of length {len(w.weights)}")
        return w.weights[n - 1]
    if isinstance(w, BalancedBlocks):
        k = _pair_index(n)
        return w.first if n - k * (k - 1) <= k else w.second
    if isinstance(w, PowerLawBeta):
        if n == 1:
            return 1 + 0j
        return complex((n / (n - 1)) ** w.alpha)
    raise TypeError(f"not a weight sequence: {w!r}")


def weight_bound(w: WeightSequence) -> float:
    """An upper bound for sup_n |w_n|, or inf when it exceeds float range."""
    if isinstance(w, Constant):
        return abs(w.value)
    if isinstance(w, Explicit):
        return max(abs(v) for v in w.weights)
    if isinstance(w, BalancedBlocks):
        return max(abs(w.a), abs(w.b))
    if isinstance(w, PowerLawBeta):
        # w_n = (n/(n-1))**alpha is largest at n = 2 for alpha > 0 and
        # approaches 1 from below otherwise; w_1 = 1.
        try:
            return max(1.0, 2.0**w.alpha)
        except OverflowError:
            return math.inf
    raise TypeError(f"not a weight sequence: {w!r}")


def beta(w: WeightSequence, n: int) -> complex:
    """The running weight product beta(n) = w_1 * ... * w_n, with beta(0) = 1."""
    if n < 0:
        raise ValueError(f"beta index must be >= 0, got {n}")
    if n == 0:
        return 1 + 0j
    if isinstance(w, Constant):
        return w.value**n
    if isinstance(w, Explicit):
        if n > len(w.weights):
            raise IndexError(f"beta index {n} beyond explicit list of length {len(w.weights)}")
        return math.prod(w.weights[:n], start=1 + 0j)
    if isinstance(w, BalancedBlocks):
        ca, cb = _block_counts(n)
        return (w.first**ca) * (w.second**cb)
    if isinstance(w, PowerLawBeta):
        return complex(float(n) ** w.alpha)
    raise TypeError(f"not a weight sequence: {w!r}")


def log_abs_beta(w: WeightSequence, n: int) -> float:
    """log |beta(n)|, in closed form per family so huge products never overflow.

    For ``BalancedBlocks`` the shared count of first- and second-block
    positions is factored out so that log|first * second| multiplies an
    integer; with |first * second| == 1 this makes the value at every pair
    boundary exactly 0.0 rather than a sum of opposing rounding errors.
    """
    if n < 0:
        raise ValueError(f"beta index must be >= 0, got {n}")
    if n == 0:
        return 0.0
    if isinstance(w, Constant):
        return n * math.log(abs(w.value))
    if isinstance(w, Explicit):
        if n > len(w.weights):
            raise IndexError(f"beta index {n} beyond explicit list of length {len(w.weights)}")
        return math.fsum(math.log(abs(v)) for v in w.weights[:n])
    if isinstance(w, BalancedBlocks):
        ca, cb = _block_counts(n)
        la = math.log(abs(w.first))
        lb = math.log(abs(w.second))
        shared = min(ca, cb)
        return shared * math.log(abs(w.first) * abs(w.second)) + (ca - shared) * la + (cb - shared) * lb
    if isinstance(w, PowerLawBeta):
        return w.alpha * math.log(n)
    raise TypeError(f"not a weight sequence: {w!r}")


# ---------------------------------------------------------------------------
# shift operators


@dataclass(frozen=True, slots=True)
class ShiftOperator:
    """The weighted backward shift on l^p: (T x)_n = w_n * x_{n+1}."""

    weights: WeightSequence
    p: float

    def __post_init__(self) -> None:
        p = float(self.p)
        if not math.isfinite(p) or p < 1.0:
            raise ValueError(f"exponent must satisfy 1 <= p < inf, got {self.p!r}")
        object.__setattr__(self, "p", p)


def apply_shift(t: ShiftOperator, x: FinSeqVector) -> FinSeqVector:
    """One application of the weighted backward shift; shortens support by one."""
    if x.p != t.p:
        raise ValueError(f"operator is on l^{t.p} but vector is in l^{x.p}")
    n = len(x.coords)
    if n <= 1:
        return FinSeqVector(x.p, ())
    return FinSeqVector(x.p, tuple(weight_at(t.weights, i) * x.coords[i] for i in range(1, n)))


def iterate_shift(t: ShiftOperator, x: FinSeqVector, n: int) -> FinSeqVector:
    """The n-th iterate T^n x (n >= 0)."""
    if n < 0:
        raise ValueError(f"iterate count must be >= 0, got {n}")
    for _ in range(n):
        x = apply_shift(t, x)
    return x


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
        parts = rng.uniform(-box, box, size=(n, 2))
        out.append(FinSeqVector(p, tuple(complex(re, im) for re, im in parts)))
    return out


# ---------------------------------------------------------------------------
# serialization


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _unpair(v: object) -> complex:
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(float(v[0]), float(v[1]))
    if isinstance(v, (int, float)):
        return complex(v)
    raise ValueError(f"expected [re, im] pair, got {v!r}")


def vector_to_dict(x: FinSeqVector) -> dict:
    """JSON-ready form: ``{"p": p, "coords": [[re, im], ...]}``."""
    return {"p": x.p, "coords": [_pair(c) for c in x.coords]}


def vector_from_dict(d: dict) -> FinSeqVector:
    return FinSeqVector(float(d["p"]), tuple(_unpair(c) for c in d["coords"]))


def weights_to_dict(w: WeightSequence) -> dict:
    """JSON-ready tagged form, ``kind`` one of constant/explicit/blocks/powerlaw."""
    if isinstance(w, Constant):
        return {"kind": "constant", "value": _pair(w.value)}
    if isinstance(w, Explicit):
        return {"kind": "explicit", "weights": [_pair(v) for v in w.weights]}
    if isinstance(w, BalancedBlocks):
        return {"kind": "blocks", "a": _pair(w.a), "b": _pair(w.b), "a_first": w.a_first}
    if isinstance(w, PowerLawBeta):
        return {"kind": "powerlaw", "alpha": w.alpha}
    raise TypeError(f"not a weight sequence: {w!r}")


def weights_from_dict(d: dict) -> WeightSequence:
    kind = d.get("kind")
    if kind == "constant":
        return Constant(_unpair(d["value"]))
    if kind == "explicit":
        return Explicit(tuple(_unpair(v) for v in d["weights"]))
    if kind == "blocks":
        return BalancedBlocks(_unpair(d["a"]), _unpair(d["b"]), bool(d.get("a_first", True)))
    if kind == "powerlaw":
        return PowerLawBeta(float(d["alpha"]))
    raise ValueError(f"unknown weight kind: {kind!r}")
