"""Scalar references for the batch kernels, one coordinate and one sample at a time.

Each rule the kernels implement is written here once, in plain Python
floats and complexes, and the tests compare the kernels to it bit for bit.
Nothing here calls the kernels it checks: only the public step classes,
``RangeError`` and ``random_vectors`` are imported.  Test modules import
this one as ``import reference``; pytest puts ``tests/`` on ``sys.path``.
"""

import math

from shiftlab import DiagStep, HStep, RangeError, random_vectors


def outcome(f, *args):
    """``f(*args)``, or the text of the ``RangeError`` it raises."""
    try:
        return f(*args)
    except RangeError as e:
        return str(e)


def tails(coords, p):
    """Per-suffix fsums, walking from the last coordinate: the first power or tail out of range raises.

    Each suffix is summed in coordinate order: ``math.fsum`` raises an
    intermediate overflow for (1.5 * 2**969, M/2, M/2), M the largest
    float, but not for (M/2, M/2, 1.5 * 2**969), whose exact sum rounds
    down to M.  The last tail is 0.0.
    """
    powers, out = [], [0.0]
    for k in range(len(coords), 0, -1):
        try:
            powers.append(abs(coords[k - 1]) ** p)
        except OverflowError:
            raise RangeError(f"|x_n|**p at coordinate {k} is beyond float range") from None
        try:
            out.append(math.fsum(reversed(powers)))
        except OverflowError:
            out.append(math.inf)
        if out[-1] == math.inf:
            raise RangeError(f"tail power sum from coordinate {k} is inf: it left float range")
    return out[::-1]


def pow_diff(a, b, d, s):
    """a**s - b**s for a = b + d >= b >= 0, with the exact increment d; inf when it overflows.

    For a < 2b the difference is b**s * expm1(s * log1p(d / b)), which has
    small relative error even when a**s and b**s agree to many digits;
    otherwise direct subtraction is safe.
    """
    try:
        if b == 0.0:
            return a**s
        if d / b < 1.0:
            return (b**s) * math.expm1(s * math.log1p(d / b))
        return a**s - b**s
    except OverflowError:
        return math.inf


def step(st, coords, p):
    """The image of ``coords`` in l^p under one step of a conjugator: diag, h or g."""
    if isinstance(st, DiagStep):
        factor, out = 1 + 0j, []
        for i, c in enumerate(coords):
            if i:
                factor *= st.ratio
            out.append(factor * c)
        return out
    if isinstance(st, HStep):
        t, out = tails(coords, p), []
        for n, c in enumerate(coords, 1):
            if c == 0:
                out.append(0j)
                continue
            m = abs(c)
            diff = pow_diff(t[n - 1], t[n], m**p, st.s)
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


def apply(phi, coords):
    """The image of ``coords`` under a ``ConjugacyMap``, step by step."""
    p = phi.domain_p
    for st in phi.steps:
        coords = step(st, coords, p)
        p = st.codomain_p
    return coords


def norm(coords, p):
    """The l^p norm by one fsum of the powers, or of the powers scaled by the largest modulus when that overflows."""
    moduli = [abs(c) for c in coords]
    try:
        return math.fsum([m**p for m in moduli]) ** (1.0 / p)
    except OverflowError:
        top = max(moduli)
        return top * math.fsum([(m / top) ** p for m in moduli]) ** (1.0 / p)


def residual(source, target, phi, samples, seed):
    """(max_residual.hex(), worst_index) of conjugacy_residual, one sample after another."""
    residuals = []
    for x in random_vectors(samples, source.p, seed):
        lhs = apply(phi, [source.weights.value * c for c in x.coords[1:]])
        rhs = [target.weights.value * c for c in apply(phi, list(x.coords))[1:]]
        residuals.append(norm([a - b for a, b in zip(lhs, rhs)], target.p))
    worst = max(range(len(residuals)), key=residuals.__getitem__)
    return residuals[worst].hex(), worst


def pow_or_inf(m, p):
    """``m ** p`` as Python computes it, or inf where it overflows."""
    try:
        return m**p
    except OverflowError:
        return math.inf
