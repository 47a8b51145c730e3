"""Command line front end.

Four subcommands wrap the library:

* ``classify``         dynamical class of a weight sequence
* ``conjugate-check``  build a conjugator between two constant shifts and
                       certify it by residual sampling
* ``orbit``            norm traces of orbits (including the escape demo)
* ``apply-map``        apply one homeomorphism step to a vector from JSON

Weight/operator descriptors (``--weights`` / ``--op``):

    constant:<re[,im]>[:<p>]
    example:T1|T2|T3
    explicit:<w1,w2,...>[:<p>]      entries are complex literals like 1, 0.5, 1+2j
    blocks:<a>:<b>:<order>[:<p>]    order is a_first or b_first
    powerlaw:<alpha>[:<p>]

A trailing ``:<p>`` in the descriptor wins over ``--p``; the default
exponent is 2.  The example operators live on l^2: ``example:T1|T2|T3``
fixes p = 2, takes no trailing ``:<p>``, and ignores ``--p``.  An exponent
anywhere (``--p``, ``:<p>``, a vector file's ``p``) must satisfy
1 <= p < inf.  Point descriptors for ``orbit``: ``e<k>`` (basis vector),
``example3:<K>``, ``box:<L>`` (seeded random vector with support L), or
``escape`` (the basis-vector escape demo; requires a constant operator).
On the command line, values that start with a dash (negative weights)
must use the ``--flag=value`` form, e.g. ``--g=-1:4``; a config file's
entries are folded into that form, so their values may start with a dash.

A vector file for ``apply-map`` holds one JSON object: ``p`` is a number or
numeric string with 1 <= p < inf, and ``coords`` is a list whose entries
are each an ``[re, im]`` pair or a bare real, every real a finite number or
numeric string (``true`` and ``false`` are not numbers).  Anything else
exits 1 with an ``error:`` line naming the field.

Sizes have fixed maxima, since work or memory grows with each:
``--horizon`` at most 10**9, ``--samples`` at most 10**5, and ``orbit``'s
``--n`` and the length L of its point at most 10**6 (K <= 999 for
``example3:<K>``, whose length is K(K+1)).  An orbit of a point other than
``escape`` also costs O(L * min(--n, L)), so min(--n, L) * L must be at
most 10**8.  A larger value exits 1 at once with an ``error:`` line naming
it.

Exit codes: 0 pass, 1 usage or config error or a result beyond float
range, 2 inconclusive verdict or residual over tolerance, 3 conjugacy class
mismatch.  Output is JSON with a stable key order that records the
command, its config, the seed and the library version; ``orbit --format
csv`` writes the trace rows alone, without seed or version.  ``--seed``
must be >= 0.  ``--config FILE`` (or ``--config=FILE``) loads flag values,
including optionally the command name, from a JSON object; explicit flags
override.  Each entry folds into one flag: ``true`` is the bare ``--key``,
``false`` is left out, and any other value is ``--key=value``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import fields, is_dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .conjugacy import (
    ClassMismatchError,
    ConjugacyMap,
    GStep,
    HStep,
    build_conjugator,
    chi,
    conjugacy_residual,
    diag_similarity,
)
from .dynamics import (
    DEFAULT_HORIZON,
    MIN_HORIZON,
    Confidence,
    classify,
    escape_demo,
    example3_point,
    make_example,
    orbit_norms,
)
from .seqspace import (
    BalancedBlocks,
    Constant,
    Explicit,
    FinSeqVector,
    PowerLawBeta,
    ShiftOperator,
    _NUMBERS,
    _read_vector,
    _subtract,
    check_exponent,
    random_vectors,
)

DEFAULT_P = 2.0
DEFAULT_TOL = 1e-9
DEFAULT_SAMPLES = 100
# the evidence sweep is O(horizon) up to a suffix of saturated terms, which
# costs O(log horizon); T2, whose terms never saturate, takes 12-15 s at the maximum
MAX_HORIZON = 10**9
MAX_SAMPLES = 10**5  # about 8 s and 51 MB at the maximum on a 2-core Xeon
MAX_LENGTH = 10**6  # orbit steps and point supports, each one list entry or more
MAX_ORBIT_WORK = 10**8  # min(--n, L) * L for a point of length L: about 8-18 s at the maximum


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 on usage problems, not 2
        raise ValueError(message)


def _at_most(name: str, value: int, maximum: int) -> int:
    if value > maximum:
        raise ValueError(f"{name} must be <= {maximum}, got {value}")
    return value


# ---------------------------------------------------------------------------
# descriptor parsing


def _parse_scalar(token: str) -> complex:
    """A complex scalar written as <re> or <re,im>."""
    parts = token.split(",")
    try:
        if len(parts) <= 2:  # complex(re) has imaginary part +0.0, as complex(re, 0.0) does
            return complex(*map(float, parts))
    except ValueError:
        pass
    raise ValueError(f"cannot parse scalar {token!r}; expected <re> or <re,im>")


def _parse_explicit(entries: str) -> Explicit:
    try:  # numpy's str -> complex128 cast is complex() per token
        weights = np.array(entries.split(","), dtype=np.complex128)
    except ValueError:
        raise ValueError(f"cannot parse explicit weights {entries!r}") from None
    return Explicit(weights)


def _parse_blocks(a: str, b: str, order: str) -> BalancedBlocks:
    first = order.strip().lower()
    if first not in ("a_first", "b_first"):
        raise ValueError(f"block order must be a_first or b_first, got {order!r}")
    return BalancedBlocks(_parse_scalar(a), _parse_scalar(b), first == "a_first")


# kind -> (number of fields before the optional trailing :<p>, builder)
_FAMILIES = {
    "constant": (1, lambda value: Constant(_parse_scalar(value))),
    "explicit": (1, _parse_explicit),
    "blocks": (3, _parse_blocks),
    "powerlaw": (1, lambda alpha: PowerLawBeta(float(alpha))),
}


def _parse_operator(desc: str, p_flag: float | None) -> ShiftOperator:
    """The operator a weight descriptor names, on l^p.

    p is the descriptor's trailing ``:<p>`` if it has one, else ``p_flag``
    (``--p``) if given, else DEFAULT_P; an example operator keeps its own p.
    The weights are built before the trailing ``:<p>`` is checked, so a
    descriptor wrong in both reports its weights.
    """
    kind, *fields = desc.split(":")
    kind = kind.strip().lower()
    if kind == "example" and len(fields) == 1:
        return make_example(fields[0])
    if kind in _FAMILIES:
        arity, build = _FAMILIES[kind]
        if len(fields) in (arity, arity + 1):
            w = build(*fields[:arity])
            return ShiftOperator(w, check_exponent(fields[arity]) if len(fields) > arity else (DEFAULT_P if p_flag is None else p_flag))
    raise ValueError(f"cannot parse weight descriptor {desc!r}")


def _parse_constant_shift(desc: str) -> tuple[complex, float]:
    """A constant shift written as <re[,im]>:<p> (for conjugate-check)."""
    parts = desc.split(":")
    if len(parts) != 2:
        raise ValueError(f"cannot parse shift {desc!r}; expected <re[,im]>:<p>")
    return _parse_scalar(parts[0]), check_exponent(parts[1])


def _orbit_work(n: int, length: int) -> None:
    _at_most("min(--n, L) * L for --point of length L", min(n, length) * length, MAX_ORBIT_WORK)


def _parse_point(desc: str, p: float, seed: int, n: int) -> FinSeqVector:
    """The point of ``orbit``, once its work for ``n`` steps is known to be within bounds."""
    name = desc.strip()
    if name.startswith("e") and name[1:].isdigit():
        k = _at_most("--point e<k>", int(name[1:]), MAX_LENGTH)
        if k < 1:
            raise ValueError(f"basis index must be >= 1, got {desc!r}")
        _orbit_work(n, k)
        return FinSeqVector(p, (0j,) * (k - 1) + (1 + 0j,))
    if name.startswith("example3:"):
        # the point has K(K+1) coordinates
        k = _at_most("--point example3:<K>", int(name.split(":", 1)[1]), math.isqrt(MAX_LENGTH) - 1)
        _orbit_work(n, k * (k + 1))
        return example3_point(k)
    if name.startswith("box:"):
        support = _at_most("--point box:<L>", int(name.split(":", 1)[1]), MAX_LENGTH)
        if support < 1:
            raise ValueError(f"support length must be >= 1, got {desc!r}")
        _orbit_work(n, support)
        return random_vectors(1, p, seed, support_range=(support, support))[0]
    raise ValueError(
        f"cannot parse point descriptor {desc!r}; expected e<k>, example3:<K>, box:<L>, or escape"
    )


# ---------------------------------------------------------------------------
# files in and text out


def _load(path: str) -> object:
    """The JSON value in the file at ``path``."""
    with open(path, encoding="utf-8") as f:
        try:
            return json.load(f)
        except RecursionError:  # the decoder recurses once per nesting level
            raise ValueError(f"{path}: JSON nested too deeply to read") from None


_compact = json.JSONEncoder(separators=(",", ":"), check_circular=False, allow_nan=False).encode


def _dumps(obj: object, indent: str = "\n") -> str:
    """What ``json.dumps`` writes with sorted keys and a 2-space indent, byte for byte.

    This is the one renderer of result records.  An object with a
    ``to_dict()`` is written as that dict; any other dataclass is written
    as its fields under their own names, so a record gains a key by gaining
    a field, and a ``str`` enum field is written as its value.  The tagged
    weight families and map steps keep a ``to_dict``, since their JSON is
    not their fields, and so does ``HorizonEvidence``, the one record whose
    nan or inf scalars are written, as strings (``_json_float``).

    The stdlib falls back to its pure-Python encoder whenever ``indent`` is
    set.  Here dicts, whose keys must be str, are walked in Python, but
    every scalar, and every list of numbers or of nonempty number lists
    (``weights``, ``norms``), is encoded compactly by the C encoder in one
    call and then re-indented with ``str.replace``: a number's text holds
    no comma or bracket.  That encoder skips the circular-reference check,
    since every payload is a tree that a command builds afresh.  A float64
    array (``apply-map``'s image ``coords``, its (n, 2) parts) is written
    with one ``%`` format, a ``%r`` per entry in the indented layout of its
    nested list: ``%r`` of a float is ``float.__repr__``, the text the C
    encoder writes, so the bytes are those of ``tolist``'s list.  A nan or
    inf, which JSON has no token for, is refused everywhere, so stdout is
    strict JSON.  ``indent`` is the newline and indentation that precede
    this value's closing bracket.
    """
    inner = indent + "  "
    if hasattr(obj, "to_dict"):
        obj = obj.to_dict()
    elif is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in fields(obj)}
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (encode_basestring_ascii(key) + ": " + _dumps(value, inner) for key, value in sorted(obj.items()))
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(obj, np.ndarray) and obj.dtype == np.float64:  # 1-D, or 2-D
        if not (obj.size and np.isfinite(obj).all()):  # "[]", or the encoder's own error
            return _dumps(obj.tolist(), indent)
        row = "%r" if obj.ndim == 1 else "[" + inner + "  " + ("," + inner + "  ").join(["%r"] * obj.shape[1]) + inner + "]"
        return ("[" + inner + ("," + inner).join([row] * len(obj)) + indent + "]") % tuple(obj.ravel().tolist())
    if not isinstance(obj, (list, tuple)):
        return _compact(obj)
    if not obj:
        return "[]"
    types = set(map(type, obj))
    if types <= _NUMBERS:
        return "[" + inner + _compact(obj)[1:-1].replace(",", "," + inner) + indent + "]"
    if types == {list} and all(obj) and set(map(type, chain.from_iterable(obj))) <= _NUMBERS:
        deeper = inner + "  "
        body = _compact(obj)[2:-2].replace(",", "," + deeper)
        body = body.replace("]," + deeper + "[", inner + "]," + inner + "[" + deeper)
        return "[" + inner + "[" + deeper + body + inner + "]" + indent + "]"
    return "[" + inner + ("," + inner).join(_dumps(value, inner) for value in obj) + indent + "]"


# ---------------------------------------------------------------------------
# commands: each returns (config, result, exit code) and writes nothing


def _cmd_classify(args: argparse.Namespace) -> tuple[dict, object, int]:
    _at_most("--horizon", args.horizon, MAX_HORIZON)
    op = _parse_operator(args.weights, args.p)
    verdict = classify(op.weights, op.p, args.horizon)
    config = {
        "weights": op.weights,
        "p": op.p,
        "horizon": args.horizon,
    }
    return config, verdict, 2 if verdict.confidence is Confidence.INCONCLUSIVE else 0


def _cmd_conjugate_check(args: argparse.Namespace) -> tuple[dict, dict, int]:
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise ValueError(f"--tol must be finite and >= 0, got {args.tol!r}")
    _at_most("--samples", args.samples, MAX_SAMPLES)
    lam, p = _parse_constant_shift(args.f)
    omega, q = _parse_constant_shift(args.g)
    config = {
        "f": {"weight": [lam.real, lam.imag], "p": p},
        "g": {"weight": [omega.real, omega.imag], "p": q},
        "tolerance": args.tol,
        "samples": args.samples,
    }
    try:
        phi = build_conjugator(lam, p, omega, q)
    except ClassMismatchError as e:
        result = {
            "conjugate": False,
            "chi_f": e.chi_source,
            "chi_g": e.chi_target,
            "reason": str(e),
        }
        return config, result, 3
    source = ShiftOperator(Constant(lam), p)
    target = ShiftOperator(Constant(omega), q)
    report = conjugacy_residual(source, target, phi, samples=args.samples, seed=args.seed)
    passed = report.max_residual <= args.tol
    result = {
        "conjugate": True,
        "chi_f": chi(abs(lam)),
        "chi_g": chi(abs(omega)),
        "map": phi,
        "residual": report,
        "passed": passed,
    }
    return config, result, 0 if passed else 2


def _cmd_orbit(args: argparse.Namespace) -> tuple[dict | None, object, int]:
    """With ``--format csv`` the config is None and the result is the CSV text."""
    if _at_most("--n", args.n, MAX_LENGTH) < 0:
        raise ValueError(f"--n must be >= 0, got {args.n}")
    op = _parse_operator(args.op, args.p)
    if args.point.strip() == "escape":
        if not isinstance(op.weights, Constant):
            raise ValueError("the escape demo needs a constant operator descriptor")
        if args.n < 1:
            raise ValueError("the escape demo needs --n >= 1")
        trace = escape_demo(op.weights.value, op.p, args.n)
    else:
        x = _parse_point(args.point, op.p, args.seed, args.n)
        trace = orbit_norms(op, x, args.n, point=args.point)
    if args.format == "csv":
        return None, "\n".join(["n,norm", *(f"{i},{v!r}" for i, v in enumerate(trace.norms))]), 0
    return {"op": trace.operator, "point": args.point, "n": args.n}, trace, 0


def _parse_param(token: str, name: str) -> float:
    prefix = name + "="
    if not token.startswith(prefix):
        raise ValueError(f"expected {name}=<value>, got {token!r}")
    try:
        return float(token[len(prefix) :])
    except ValueError:
        raise ValueError(f"cannot parse {token!r}") from None


def _cmd_apply_map(args: argparse.Namespace) -> tuple[dict, dict, int]:
    """Apply one map to a vector file, as one ``seqspace._Batch`` from file to output.

    The file is read straight into split float64 parts (``_read_vector``),
    mapped and, with ``--roundtrip``, inverted by the maps' batch kernels
    (``on_batch``), and the image is written from the (n, 2) array of its
    parts, which ``_dumps`` formats in one pass.  The round-trip deviation
    is the largest modulus of the lane differences, ``np.hypot`` of the
    parts, which has the bits of ``abs`` of the complex difference.  The
    bytes are those of the one-vector functions.
    """
    x = _read_vector(_load(args.infile))
    if args.h is not None:
        phi = ConjugacyMap((HStep(x.p, _parse_param(args.h, "s")),), x.p, x.p)
    elif args.g is not None:
        q = _parse_param(args.g, "q")
        phi = ConjugacyMap((GStep(x.p, q),), x.p, q)
    else:
        parts = args.diag.split(":")
        if len(parts) != 2:
            raise ValueError(f"cannot parse {args.diag!r}; expected <lam>:<omega>")
        phi = diag_similarity(_parse_scalar(parts[0]), _parse_scalar(parts[1]), x.p)
    image = phi.on_batch(x)
    result: dict = {"map": phi, "image": {"p": image.p, "coords": np.stack([image.re, image.im], axis=1)}}
    if args.roundtrip:
        back = phi.inverse().on_batch(image)
        result["roundtrip_max_deviation"] = max(_subtract(x, back).moduli().tolist(), default=0.0)
    return {"in": args.infile, "roundtrip": args.roundtrip}, result, 0


# ---------------------------------------------------------------------------
# parser assembly


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0, help="sampling seed, recorded in the output")
    sub.add_argument("--out", default=None, help="output file (default: stdout)")


@functools.cache  # parse_args keeps no state in the parser, so a process builds it once
def _build_parser() -> _Parser:
    parser = _Parser(prog="shiftlab", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"shiftlab {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    c = subs.add_parser("classify", help="dynamical class of a weight sequence")
    c.add_argument("--weights", required=True, help="weight descriptor")
    c.add_argument("--p", type=float, default=None, help="space exponent (default 2)")
    c.add_argument("--horizon", type=int, default=DEFAULT_HORIZON, help=f"{MIN_HORIZON} <= horizon <= {MAX_HORIZON}")
    _add_common(c)
    c.set_defaults(func=_cmd_classify)

    k = subs.add_parser("conjugate-check", help="build and certify a conjugator between constant shifts")
    k.add_argument("--f", required=True, help="source shift, <re[,im]>:<p>")
    k.add_argument("--g", required=True, help="target shift, <re[,im]>:<p>")
    k.add_argument("--tol", type=float, default=DEFAULT_TOL, help="max residual to pass, finite and >= 0")
    k.add_argument("--samples", type=int, default=DEFAULT_SAMPLES, help=f"number of sample vectors (<= {MAX_SAMPLES})")
    _add_common(k)
    k.set_defaults(func=_cmd_conjugate_check)

    o = subs.add_parser("orbit", help="orbit norm trace or escape demo")
    o.add_argument("--op", required=True, help="operator descriptor")
    o.add_argument("--point", required=True, help="e<k>, example3:<K>, box:<L>, or escape")
    o.add_argument("--n", type=int, required=True, help=f"steps, or escape trace entries (<= {MAX_LENGTH})")
    o.add_argument("--p", type=float, default=None, help="space exponent (default 2)")
    o.add_argument("--format", choices=("json", "csv"), default="json")
    _add_common(o)
    o.set_defaults(func=_cmd_orbit)

    a = subs.add_parser("apply-map", help="apply a homeomorphism step to a JSON vector")
    which = a.add_mutually_exclusive_group(required=True)
    which.add_argument("--h", default=None, metavar="s=<val>", help="tail rescaling with exponent s")
    which.add_argument("--g", default=None, metavar="q=<val>", help="modulus power map onto l^q")
    which.add_argument("--diag", default=None, metavar="<lam>:<omega>", help="diagonal similarity")
    a.add_argument("--in", dest="infile", required=True, help="input vector JSON file")
    a.add_argument("--roundtrip", action="store_true", help="also apply the inverse and report deviation")
    _add_common(a)
    a.set_defaults(func=_cmd_apply_map)

    return parser


def _expand_config(argv: list[str]) -> list[str]:
    """Fold a --config JSON file into flag form; explicit flags override it.

    An entry ``true`` is the bare switch ``--key``, ``false`` is left out,
    and any other value is the one token ``--key=value``.
    """
    argv = [t for a in argv for t in (a.split("=", 1) if a.startswith("--config=") else [a])]
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise ValueError("--config needs a file path")
    path = argv[i + 1]
    rest = argv[:i] + argv[i + 2 :]
    cfg = _load(path)
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    command = cfg.pop("command", None)
    # one token per entry, so a value that starts with a dash stays a value
    tokens = ["--" + str(key).replace("_", "-") + ("" if value is True else f"={value}")
              for key, value in cfg.items() if value is not False]
    if rest and not rest[0].startswith("-"):
        return [rest[0]] + tokens + rest[1:]
    if command is None:
        raise ValueError("config file must name a command when none is given on the command line")
    return [str(command)] + tokens + rest


def main(argv: list[str] | None = None) -> int:
    raw = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        expanded = _expand_config(raw)
        parser = _build_parser()
        try:
            args = parser.parse_args(expanded)
        except SystemExit:  # --help / --version; every other parse error raises ValueError
            return 0
        if args.seed < 0:
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        config, result, code = args.func(args)
        # the config is None for orbit --format csv, whose result is the text
        text = result if config is None else _dumps({"command": args.command, "config": config, "result": result, "seed": args.seed, "version": __version__})
        if args.out is None:
            sys.stdout.write(text + "\n")
        else:
            with open(args.out, "w", encoding="utf-8", newline="") as f:
                f.write(text + "\n")
        return code
    except (ValueError, OverflowError, OSError, KeyError, IndexError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
