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

Numerical contract.  Tail power sums are correctly rounded (exact integer
sums, rounded once, as ``seqspace.tail_power_sums`` documents), and the
difference t_n**s - t_{n+1}**s is evaluated through
``expm1``/``log1p`` with the exact increment |x_n|**p whenever the two
tails are within a factor of two, so nearly equal tails never cancel
catastrophically.  Residuals of assembled conjugators stay below 1e-9 on
coordinate boxes of size 10 with supports up to 64 (see the test suite).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass
from typing import Union

from .seqspace import (
    FinSeqVector,
    RangeError,
    ShiftOperator,
    _checked_weight,
    _moduli_and_powers,
    _modulus,
    _pair,
    _tail_sums,
    apply_shift,
    check_exponent,
    lp_norm,
    random_vectors,
    subtract,
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
    "map_to_dict",
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
        self.lam = lam
        self.omega = omega
        self.chi_source = chi_source
        self.chi_target = chi_target
        super().__init__(
            f"no conjugacy: chi(|{lam}|) = {chi_source} but chi(|{omega}|) = {chi_target}"
        )


# ---------------------------------------------------------------------------
# the coordinatewise maps


def _pow_diff(a: float, b: float, d: float, s: float) -> float:
    """a**s - b**s for a = b + d >= b >= 0, stable when a and b nearly agree.

    ``d`` must be the exact increment.  For a < 2b the difference is
    b**s * expm1(s * log1p(d / b)), which has small relative error even
    when a**s and b**s agree to many digits; otherwise direct subtraction
    is safe.
    """
    if b == 0.0:
        return a**s
    r = d / b
    if r < 1.0:
        return (b**s) * math.expm1(s * math.log1p(r))
    return a**s - b**s


def h_map(x: FinSeqVector, s: float) -> FinSeqVector:
    """The tail rescaling homeomorphism of l^p with exponent s > 0.

    Coordinate n of the image keeps the phase of x_n and has modulus
    (t_n**s - t_{n+1}**s)**(1/p) with t_k the k-th tail power sum; zero
    coordinates stay zero.  Tail power sums transport as t -> t**s, the
    image has the same support pattern as x (as long as |x_n|**p does not
    underflow), and ``h_map(h_map(x, s), 1/s)`` recovers x up to rounding.
    An image coordinate beyond float range raises ``RangeError`` naming it.
    """
    if not math.isfinite(s) or s <= 0.0:
        raise ValueError(f"exponent s must be finite and > 0, got {s!r}")
    moduli, powers = _moduli_and_powers(x)
    tails = _tail_sums(x, powers)
    inv_p = 1.0 / x.p
    coords = []
    for n, (c, m, d, a, b) in enumerate(zip(x.coords, moduli, powers, tails, tails[1:]), 1):
        if not m:
            coords.append(0j)
            continue
        try:
            diff = _pow_diff(a, b, d, s)
        except OverflowError:
            diff = math.inf
        if diff == math.inf:  # the expm1 branch can also overflow without raising
            raise RangeError(f"h_map image at coordinate {n} is beyond float range (s = {s!r})")
        coords.append((c / m) * diff**inv_p)
    return FinSeqVector(x.p, tuple(coords))


def g_map(x: FinSeqVector, q: float) -> FinSeqVector:
    """The modulus power homeomorphism from l^p onto l^q.

    Coordinate n keeps its phase and its modulus m becomes m**(p/q), so
    the q-th power sum of the image equals the p-th power sum of x
    coordinate by coordinate.  Inverted by ``g_map(., p)`` from l^q.  A
    coordinate whose modulus or image is beyond float range raises
    ``RangeError`` naming it.
    """
    check_exponent(q)
    e = x.p / q
    coords = []
    for i, c in enumerate(x.coords):
        if c == 0:
            coords.append(0j)
            continue
        m = _modulus(c)
        if m == math.inf and cmath.isfinite(c):
            raise RangeError(f"|x_n| at coordinate {i + 1} is beyond float range")
        try:
            coords.append((c / m) * m**e)
        except OverflowError:
            raise RangeError(f"g_map image at coordinate {i + 1} is beyond float range (q = {q!r})") from None
    return FinSeqVector(q, tuple(coords))


# ---------------------------------------------------------------------------
# composable steps


class _EndoStep:
    """A step from l^p onto itself: both exponents are the step's ``p``."""

    __slots__ = ()

    @property
    def domain_p(self) -> float:
        return self.p

    @property
    def codomain_p(self) -> float:
        return self.p


@dataclass(frozen=True, slots=True)
class HStep(_EndoStep):
    """Tail rescaling with exponent s on l^p."""

    p: float
    s: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.s) or self.s <= 0.0:
            raise ValueError(f"exponent s must be finite and > 0, got {self.s!r}")

    def apply(self, x: FinSeqVector) -> FinSeqVector:
        return h_map(x, self.s)

    def inverse(self) -> "HStep":
        return HStep(self.p, 1.0 / self.s)

    def to_dict(self) -> dict:
        return {"kind": "h", "p": self.p, "s": self.s}


@dataclass(frozen=True, slots=True)
class GStep:
    """Modulus power map from l^p onto l^q."""

    p: float
    q: float

    @property
    def domain_p(self) -> float:
        return self.p

    @property
    def codomain_p(self) -> float:
        return self.q

    def apply(self, x: FinSeqVector) -> FinSeqVector:
        return g_map(x, self.q)

    def inverse(self) -> "GStep":
        return GStep(self.q, self.p)

    def to_dict(self) -> dict:
        return {"kind": "g", "p": self.p, "q": self.q}


@dataclass(frozen=True, slots=True)
class DiagStep(_EndoStep):
    """Diagonal rescaling on l^p: coordinate n is multiplied by ratio**(n-1).

    With a unimodular ratio this is an isometric linear homeomorphism; for
    a general nonzero ratio it is still a bijection on finitely supported
    vectors, which is all the residual machinery needs.
    """

    p: float
    ratio: complex

    def __post_init__(self) -> None:
        r = complex(self.ratio)
        if r == 0:
            raise ValueError("diagonal ratio must be nonzero")
        object.__setattr__(self, "ratio", r)

    def apply(self, x: FinSeqVector) -> FinSeqVector:
        """Multiply coordinate n by ratio**(n-1), by running product."""
        if x.p != self.p:
            raise ValueError(f"step acts on l^{self.p} but vector is in l^{x.p}")
        ratio = self.ratio
        coords = []
        factor = 1 + 0j
        for i, c in enumerate(x.coords):
            if i:
                factor *= ratio
            coords.append(factor * c)
        return FinSeqVector(x.p, tuple(coords))

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
        if x.p != self.domain_p:
            raise ValueError(f"map acts on l^{self.domain_p} but vector is in l^{x.p}")
        for st in self.steps:
            x = st.apply(x)
        return x

    def inverse(self) -> "ConjugacyMap":
        return ConjugacyMap(
            tuple(st.inverse() for st in reversed(self.steps)),
            self.codomain_p,
            self.domain_p,
        )


# ---------------------------------------------------------------------------
# constructors


def _shift_modulus(w: complex) -> float:
    """|w| of a constant shift weight.

    ``ValueError`` unless w is finite and nonzero (the rule every weight
    follows), ``RangeError`` when its finite parts have a modulus beyond
    float range.
    """
    w = _checked_weight(w)
    m = _modulus(w)
    if m == math.inf:
        raise RangeError(f"|{w}| is beyond float range")
    return m


def diag_similarity(lam: complex, omega: complex, p: float = 2.0) -> ConjugacyMap:
    """The diagonal linear conjugacy from lam*B onto omega*B when |lam| == |omega|.

    Coordinate n is multiplied by (lam/omega)**(n-1).  Requires the moduli
    to agree to relative 1e-12; for genuinely different moduli use
    ``build_conjugator`` instead.
    """
    lam, omega = complex(lam), complex(omega)
    ml, mo = _shift_modulus(lam), _shift_modulus(omega)
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
    return chi(_shift_modulus(lam)) == chi(_shift_modulus(omega))


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

    def to_dict(self) -> dict:
        return asdict(self)


def conjugacy_residual(
    source: ShiftOperator,
    target: ShiftOperator,
    phi: ConjugacyMap,
    samples: int = 100,
    seed: int = 0,
) -> ResidualReport:
    """Max of ||phi(source x) - target(phi x)||_target over random vectors.

    Vectors are drawn by ``random_vectors`` (support length uniform on
    1..64, coordinates in the complex box of half-side 10), so reports are
    reproducible from the seed alone.
    """
    if phi.domain_p != source.p:
        raise ValueError(f"map domain l^{phi.domain_p} does not match source l^{source.p}")
    if phi.codomain_p != target.p:
        raise ValueError(f"map codomain l^{phi.codomain_p} does not match target l^{target.p}")
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    residuals = []
    for x in random_vectors(samples, source.p, seed):
        lhs = phi.apply(apply_shift(source, x))
        rhs = apply_shift(target, phi.apply(x))
        residuals.append(lp_norm(subtract(lhs, rhs)))
    worst = max(range(len(residuals)), key=residuals.__getitem__)
    return ResidualReport(
        max_residual=residuals[worst],
        worst_index=worst,
        sample_count=samples,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# serialization


def map_to_dict(phi: ConjugacyMap) -> dict:
    """JSON-ready form: the two exponents and each step's ``to_dict``."""
    return {"domain_p": phi.domain_p, "codomain_p": phi.codomain_p, "steps": [st.to_dict() for st in phi.steps]}
