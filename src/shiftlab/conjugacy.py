"""Homeomorphisms of l^p that intertwine weighted backward shifts.

Two coordinatewise nonlinear maps do all the work:

* the tail rescaling map ``h_map(x, s)``: coordinate n keeps the phase of
  x_n and its modulus becomes (t_n**s - t_{n+1}**s)**(1/p), where t_k is
  the k-th tail power sum of x.  The map transports every tail power sum
  t to t**s (telescoping), is inverted by the same map with exponent 1/s,
  and is positively homogeneous of degree s.
* the modulus power map ``g_map(x, q)``: coordinate n keeps its phase and
  its modulus m becomes m**(p/q).  It carries l^p onto l^q with
  ||g(x)||_q**q == ||x||_p**p and is inverted by the reverse map l^q -> l^p.

Composites of these with diagonal phase rescalings conjugate any constant
weighted backward shift to any other in the same modulus class.  The class
of lambda B_p is the sign chi(|lambda|) of log|lambda|: two constant shifts
are topologically conjugate exactly when their weights have moduli on the
same side of (or both on) the unit circle, regardless of the exponents
p and q.  ``build_conjugator`` assembles the witness map and
``conjugacy_residual`` measures how far it is from intertwining two
operators on a reproducible random sample.

Numerical contract.  Tail power sums are correctly rounded, as
``seqspace.tail_power_sums`` documents: double-double suffix sums (TwoSum
errors of a cumsum, summed again), kept where their error bound shows they
round correctly, and an exact integer sum where the bound straddles a
rounding boundary.  The difference t_n**s - t_{n+1}**s is evaluated
through ``expm1``/``log1p`` with the exact increment |x_n|**p whenever the
two tails are within a factor of two, so nearly equal tails never cancel
catastrophically.  A residual ||phi(S x) - T(phi x)||_q is absolute, so
it grows with the size of T(phi x) and no fixed tolerance fits every pair
of weights: on the default 100 samples it is below 1e-12 for 2B_2 onto
4B_2, but 0.0757 for 2B_2 onto 100B_2, and 0.502 for 1e-300 B_2 onto
0.5B_2, where |x_n|**2 of the shifted samples underflows.  A residual
relative to the size of the vectors is ROADMAP item 1.

Every map has one implementation, its step's ``on_batch``, a kernel on a
``seqspace._Batch``: many vectors side by side as split real and imaginary
float64 lanes.  The public functions run it on a batch of one, and
``conjugacy_residual`` runs all its samples through shift, steps,
subtraction and norm as one batch.
Each lane has the bits of the per-coordinate Python expression: moduli by
``np.hypot`` (what ``abs`` calls), powers by ``np.float_power`` (libm's
``pow`` per lane, as ``**``), complex products by ``seqspace._cmul`` and
quotients written out as CPython 3.11 computes them.  Tail sums are
numpy's too: each vector's reversed powers are one row of a zero-padded
array, summed along the rows.  One part stays scalar Python:
``math.log1p`` and ``math.expm1``, mapped over only the lanes that take the
expm1 form and streamed into arrays by ``np.fromiter``, because numpy's
versions round differently in 8-9 % of lanes.  Errors are those of one
vector after another: when a batch raises, its vectors go through again
one at a time.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import islice
from typing import Union

import numpy as np

from .seqspace import (
    FinSeqVector,
    ShiftOperator,
    _Batch,
    _checked_weight,
    _cmul,
    _finite_image,
    _in_space,
    _lane_error,
    _norms,
    _one,
    _pair,
    _random_parts,
    _running_powers,
    _shift,
    _subtract,
    _tails,
    check_exponent,
)

__all__ = [
    "chi",
    "ClassMismatchError",
    "HStep",
    "GStep",
    "DiagStep",
    "Step",
    "ConjugacyMap",
    "h_map",
    "g_map",
    "diag_similarity",
    "build_conjugator",
    "conjugacy_class_decision",
    "conjugacy_residual",
    "ResidualReport",
]


def chi(t: float) -> int:
    """Sign of log t: 1 for t > 1, 0 for t == 1, -1 for 0 < t < 1.

    The comparison is exact on the given float.  Callers who hold a weight
    as a complex number should be aware that ``abs`` introduces up to one
    ulp of rounding, so a weight constructed as ``cmath.exp(1j * theta)``
    may land on either side of 1; pass moduli that are exact by
    construction when the boundary class matters.
    """
    if not math.isfinite(t) or t <= 0.0:
        raise ValueError(f"chi is defined for finite t > 0, got {t!r}")
    return (t > 1.0) - (t < 1.0)


class ClassMismatchError(ValueError):
    """Raised when asked to conjugate shifts from different modulus classes."""

    def __init__(self, lam: complex, omega: complex, chi_source: int, chi_target: int):
        self.chi_source = chi_source
        self.chi_target = chi_target
        super().__init__(
            f"no conjugacy: chi(|{lam}|) = {chi_source} but chi(|{omega}|) = {chi_target}"
        )


# ---------------------------------------------------------------------------
# the coordinatewise maps, on batches of vectors


def _rescaled(x: _Batch, m: np.ndarray, f: np.ndarray, p: float) -> _Batch:
    """(c / m) * f in every lane c of ``x``, and +0j where the modulus m is 0.

    CPython 3.11 turns the float operand into a complex with a +0.0
    imaginary part, so the quotient is ``_Py_c_quot`` on such a complex,
    written out here, and the product is ``_cmul`` with f + 0i: they decide
    the sign of a zero part and what an inf or nan part becomes.
    """
    with np.errstate(all="ignore"):
        qr, qi = (x.re + x.im * 0.0) / m, (x.im - x.re * 0.0) / m
        re, im = _cmul(qr, qi, f, 0.0)
    zero = m == 0.0
    re[zero] = im[zero] = 0.0
    return _Batch(p, re, im, x.bounds)


# math.expm1 overflows exactly above this
_LOG_MAX = math.log(sys.float_info.max)


def h_map(x: FinSeqVector, s: float) -> FinSeqVector:
    """The tail rescaling homeomorphism of l^p with exponent s > 0.

    Coordinate n of the image keeps the phase of x_n and has modulus
    (t_n**s - t_{n+1}**s)**(1/p) with t_k the k-th tail power sum; zero
    coordinates stay zero.  Tail power sums transport as t -> t**s, the
    image has the same support pattern as x (as long as |x_n|**p does not
    underflow), and ``h_map(h_map(x, s), 1/s)`` recovers x up to rounding.
    An image coordinate beyond float range raises ``RangeError`` naming it.
    This is ``HStep(x.p, s)`` on a batch of one vector.
    """
    return HStep(x.p, s).apply(x)


def g_map(x: FinSeqVector, q: float) -> FinSeqVector:
    """The modulus power homeomorphism from l^p onto l^q.

    Coordinate n keeps its phase and its modulus m becomes m**(p/q), so
    the q-th power sum of the image equals the p-th power sum of x
    coordinate by coordinate.  Inverted by ``g_map(., p)`` from l^q.  A
    coordinate whose modulus or image is beyond float range raises
    ``RangeError`` naming it.  This is ``GStep(x.p, q)`` on a batch of one
    vector: moduli by ``np.hypot``, powers by ``np.float_power``.
    """
    return GStep(x.p, q).apply(x)


# ---------------------------------------------------------------------------
# composable steps


class _Step:
    """A step from l^p, by default onto itself: both exponents are the step's ``p``."""

    __slots__ = ()

    @property
    def domain_p(self) -> float:
        return self.p

    @property
    def codomain_p(self) -> float:
        return self.p

    def apply(self, x: FinSeqVector) -> FinSeqVector:
        """``on_batch`` of ``x`` as a batch of one."""
        return self.on_batch(_one(_in_space(self.p, x, "step"))).vectors()[0]


@dataclass(frozen=True, slots=True)
class HStep(_Step):
    """Tail rescaling with exponent s on l^p."""

    p: float
    s: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", check_exponent(self.p))
        object.__setattr__(self, "s", float(self.s))
        if not math.isfinite(self.s) or self.s <= 0.0:
            raise ValueError(f"exponent s must be finite and > 0, got {self.s!r}")

    def on_batch(self, x: _Batch) -> _Batch:
        """``h_map`` of every vector of ``x``.

        With tails a = t_n and b = t_(n+1) and the exact increment d = |x_n|**p,
        the difference a**s - b**s is taken directly when b == 0 or d >= b, and
        as b**s * expm1(s * log1p(d / b)) otherwise, so nearly equal tails never
        cancel.  Every t**s comes from one ``np.float_power`` call; ``log1p`` and
        ``expm1`` stay scalar ``math`` calls on only the lanes of the second
        form, because numpy's versions round differently in 8-9 % of lanes.
        Where a**s - b**s is not finite, a nonzero lane's image is not finite
        either, and ``_finite_image`` names the first such coordinate.
        """
        m, d, a = _tails(x)
        last = x.bounds[1:][np.diff(x.bounds) > 0] - 1  # the last lane of every vector, where b = 0
        with np.errstate(all="ignore"):
            a_s = np.float_power(a, self.s)
            b, b_s = np.empty_like(a), np.empty_like(a)
            b[:-1], b_s[:-1] = a[1:], a_s[1:]
            b[last] = b_s[last] = 0.0
            r = d / b
            near = (m != 0.0) & (b != 0.0) & (r < 1.0)
            diff = a_s - b_s  # b_s is +0.0 wherever b is 0, and a_s - 0.0 is a_s
            lanes = np.flatnonzero(near)
            v = self.s * np.fromiter(map(math.log1p, r[lanes].tolist()), np.float64, len(lanes))
            e = np.fromiter(map(math.expm1, np.where(v > _LOG_MAX, math.inf, v).tolist()), np.float64, len(lanes))
            diff[lanes] = b_s[lanes] * e
            f = np.float_power(diff, 1.0 / x.p)
        return _finite_image(x, _rescaled(x, m, f, x.p), "h_map", f" (s = {self.s!r})")

    def inverse(self) -> "HStep":
        return HStep(self.p, 1.0 / self.s)

    def to_dict(self) -> dict:
        return {"kind": "h", "p": self.p, "s": self.s}


@dataclass(frozen=True, slots=True)
class GStep(_Step):
    """Modulus power map from l^p onto l^q."""

    p: float
    q: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", check_exponent(self.p))
        object.__setattr__(self, "q", check_exponent(self.q))

    @property
    def codomain_p(self) -> float:
        return self.q

    def on_batch(self, x: _Batch) -> _Batch:
        """``g_map`` of every vector of ``x``."""
        q, m = self.q, x.moduli()
        with np.errstate(all="ignore"):
            f = np.float_power(m, x.p / q)
            huge = (m == math.inf) & np.isfinite(x.re) & np.isfinite(x.im)  # finite parts, modulus beyond range
            bad = huge | ((f == math.inf) & (m < math.inf))
        if bad.any():
            if huge[np.argmax(bad)]:
                raise _lane_error(x, bad, lambda n: f"|x_n| at coordinate {n} is beyond float range")
            raise _lane_error(x, bad, lambda n: f"g_map image at coordinate {n} is beyond float range (q = {q!r})")
        return _rescaled(x, m, f, q)

    def inverse(self) -> "GStep":
        return GStep(self.q, self.p)

    def to_dict(self) -> dict:
        return {"kind": "g", "p": self.p, "q": self.q}


@dataclass(frozen=True, slots=True)
class DiagStep(_Step):
    """Diagonal rescaling on l^p: coordinate n is multiplied by ratio**(n-1).

    With a unimodular ratio this is an isometric linear homeomorphism; for
    a general nonzero ratio it is still a bijection on finitely supported
    vectors, which is all the residual machinery needs.
    """

    p: float
    ratio: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", check_exponent(self.p))
        r = complex(self.ratio)
        if r == 0:
            raise ValueError("diagonal ratio must be nonzero")
        object.__setattr__(self, "ratio", r)

    apply = _Step.apply  # its own attribute, so that perfbench/layers.py wraps this step's apply alone

    def on_batch(self, x: _Batch) -> _Batch:
        """Lane n-1 of every vector times ratio**(n-1), the powers by running product.

        A finite lane whose image is not finite raises ``RangeError`` naming it.
        """
        pos = x.positions()
        factors = _running_powers(self.ratio, int(pos.max(initial=0)) + 1)
        with np.errstate(all="ignore"):
            return _finite_image(x, _Batch(x.p, *_cmul(factors.real[pos], factors.imag[pos], x.re, x.im), x.bounds), "diagonal step")

    def inverse(self) -> "DiagStep":
        return DiagStep(self.p, 1 / self.ratio)

    def to_dict(self) -> dict:
        return {"kind": "diag", "p": self.p, "ratio": _pair(self.ratio)}


Step = Union[HStep, GStep, DiagStep]


@dataclass(frozen=True, slots=True)
class ConjugacyMap:
    """A composite of steps, applied left to right, with exact formal inverse."""

    steps: tuple[Step, ...]
    domain_p: float
    codomain_p: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))
        object.__setattr__(self, "domain_p", check_exponent(self.domain_p))
        object.__setattr__(self, "codomain_p", check_exponent(self.codomain_p))
        prev = self.domain_p
        for st in self.steps:
            if st.domain_p != prev:
                raise ValueError(
                    f"step chain breaks: expected domain exponent {prev}, got {st.domain_p}"
                )
            prev = st.codomain_p
        if prev != self.codomain_p:
            raise ValueError(
                f"step chain ends on l^{prev}, not the declared codomain l^{self.codomain_p}"
            )

    def apply(self, x: FinSeqVector) -> FinSeqVector:
        """``on_batch`` of ``x`` as a batch of one."""
        return self.on_batch(_one(_in_space(self.domain_p, x, "map"))).vectors()[0]

    def on_batch(self, x: _Batch) -> _Batch:
        for st in self.steps:
            x = st.on_batch(x)
        return x

    def inverse(self) -> "ConjugacyMap":
        return ConjugacyMap(
            tuple(st.inverse() for st in reversed(self.steps)),
            self.codomain_p,
            self.domain_p,
        )


# ---------------------------------------------------------------------------
# constructors


def diag_similarity(lam: complex, omega: complex, p: float = 2.0) -> ConjugacyMap:
    """The diagonal linear conjugacy from lam*B onto omega*B when |lam| == |omega|.

    Coordinate n is multiplied by (lam/omega)**(n-1).  Requires the moduli
    to agree to relative 1e-12; for genuinely different moduli use
    ``build_conjugator`` instead.
    """
    lam, omega = complex(lam), complex(omega)
    ml, mo = abs(_checked_weight(lam)), abs(_checked_weight(omega))
    if abs(ml - mo) > 1e-12 * max(ml, mo):
        raise ValueError(
            f"diagonal similarity needs |lam| == |omega|; got {ml!r} vs {mo!r}"
        )
    return ConjugacyMap((DiagStep(p, lam / omega),), p, p)


def conjugacy_class_decision(lam: complex, p: float, omega: complex, q: float) -> bool:
    """Whether lam*B on l^p and omega*B on l^q are topologically conjugate.

    True exactly when chi(|lam|) == chi(|omega|); the exponents never
    affect the answer but are validated.  A zero or non-finite weight
    raises ``ValueError`` and a modulus beyond float range ``RangeError``.
    """
    check_exponent(p)
    check_exponent(q)
    return chi(abs(_checked_weight(lam))) == chi(abs(_checked_weight(omega)))


def build_conjugator(lam: complex, p: float, omega: complex, q: float) -> ConjugacyMap:
    """A homeomorphism phi of l^p onto l^q with phi(lam*B_p x) = omega*B_q phi(x).

    Raises ``ClassMismatchError`` when chi(|lam|) != chi(|omega|), in which
    case no such map exists.  The witness is assembled from at most four
    steps; steps that would be the identity are dropped, so conjugating an
    operator to itself yields the empty composite.

        1. diagonal with ratio lam/|lam|        lam B_p   -> |lam| B_p
        2. tail rescaling with |lam|**s == |omega|**(q/p)
        3. modulus power map onto l^q           |omega|**(q/p) B_p -> |omega| B_q
        4. diagonal with ratio |omega|/omega    |omega| B_q -> omega B_q
    """
    lam = complex(lam)
    omega = complex(omega)
    if not conjugacy_class_decision(lam, p, omega, q):
        raise ClassMismatchError(lam, omega, chi(abs(lam)), chi(abs(omega)))
    ml, mo = abs(lam), abs(omega)

    steps: list[Step] = []
    r1 = lam / ml
    if r1 != 1:
        steps.append(DiagStep(p, r1))
    if ml != 1.0:  # on the unit circle every tail exponent acts trivially
        s = (q / p) * (math.log(mo) / math.log(ml))
        if s != 1.0:
            steps.append(HStep(p, s))
    if p != q:
        steps.append(GStep(p, q))
    r2 = mo / omega
    if r2 != 1:
        steps.append(DiagStep(q, r2))
    return ConjugacyMap(tuple(steps), p, q)


# ---------------------------------------------------------------------------
# residual measurement


@dataclass(frozen=True, slots=True)
class ResidualReport:
    """Residuals ||phi(S x) - T(phi x)||_q over a reproducible sample."""

    max_residual: float
    worst_index: int
    sample_count: int
    seed: int


# samples per batch, drawn as they are needed: numpy gains nothing more
# past some thousands of coordinates, while the memory a batch takes grows
# with it
_BATCH = 1000


def _residuals(source: ShiftOperator, target: ShiftOperator, phi: ConjugacyMap, parts: list) -> list[float]:
    """||phi(source x) - target(phi x)|| of every vector x given by its parts, as one batch.

    When the batch raises, the vectors go through again one at a time, so
    the error is that of the first vector in order that fails, and within
    it the left side's before the right side's, as a loop would raise it.
    """
    try:
        x = _Batch.of(source.p, parts)
        diff = _subtract(phi.on_batch(_shift(source, x)), _shift(target, phi.on_batch(x)))
        return _norms(diff.moduli(), diff.bounds.tolist(), diff.p)
    except (ArithmeticError, LookupError, ValueError):
        if len(parts) == 1:
            raise
        return [r for one in parts for r in _residuals(source, target, phi, [one])]


def conjugacy_residual(
    source: ShiftOperator,
    target: ShiftOperator,
    phi: ConjugacyMap,
    samples: int = 100,
    seed: int = 0,
) -> ResidualReport:
    """Max of ||phi(source x) - target(phi x)||_target over random vectors.

    Vectors are drawn as ``random_vectors`` draws them (support length
    uniform on 1..64, coordinates in the complex box of half-side 10), so
    reports are reproducible from the seed alone.  The samples go through
    the kernels in batches of up to _BATCH, O(total coordinates) numpy work
    plus the scalar lanes the module docstring names, with the bits and the
    errors of one sample after another: the first sample in draw order that
    fails raises, its left side's error before its right side's.
    """
    if phi.domain_p != source.p:
        raise ValueError(f"map domain l^{phi.domain_p} does not match source l^{source.p}")
    if phi.codomain_p != target.p:
        raise ValueError(f"map codomain l^{phi.codomain_p} does not match target l^{target.p}")
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    draws, residuals = _random_parts(samples, seed), []
    for _ in range(0, samples, _BATCH):
        residuals += _residuals(source, target, phi, list(islice(draws, _BATCH)))
    worst = max(range(len(residuals)), key=residuals.__getitem__)
    return ResidualReport(
        max_residual=residuals[worst],
        worst_index=worst,
        sample_count=samples,
        seed=seed,
    )
