"""Wall time and memory of the shiftlab CLI and of its kernels, in one JSON file.

    python3 bench/run.py --out BENCH_17.json
    python3 bench/run.py --compare BENCH_16.json BENCH_17.json

Run from the root of a checkout: shiftlab is imported from ``src/``.  The
script uses the standard library and numpy only, and takes about 50 s on a
2-core machine.  The file it writes has four fields:

* ``machine``  Python, numpy and libc versions, CPU model and count.
* ``e2e``      per CLI scenario: the median wall time in ms over REPEATS
               fresh interpreters with its interquartile range
               (``iqr_ms``), and the largest ``ru_maxrss`` among them in
               MB, read with ``os.wait4`` while this process is still
               small.  Every run must exit 0.
* ``layers``   per ``kernel@size``: the median in-process time in ms of at
               least five calls after one warm-up call, the same median
               scaled to a nominal machine speed with the interquartile
               range of the scaled calls (``scaled_iqr_ms``), and the
               ``tracemalloc`` peak in MiB of one more call.
* ``slope``    per kernel: the least-squares slope of log scaled time and
               of log peak against log size over its three sizes, 4x
               apart.  A time slope near 1 means O(n) work, near 2 O(n^2);
               a peak slope near 0 means memory that does not grow with
               the size.

Times are wall-clock on a shared machine, which can drift by tens of per
cent within minutes.  So each layer call is bracketed by perfbench's speed
reference, a fixed stdlib + numpy loop, and its scaled time is its raw time
times REFERENCE_NOMINAL_NS over the mean of the two references around it,
as perfbench scales its calls.  Compare scaled times across runs; the e2e
times are raw only, so compare those with runs made close together.

``--compare OLD NEW`` prints, per entry that both files hold, the ratio
NEW / OLD of the scaled median (of the raw median for e2e entries and for
files written before scaled times existed), and marks with ``*`` a ratio
that lies outside both files' spreads: one minus the ratio exceeds, in
absolute value, each file's interquartile range over its median.  A file
written before spreads were recorded counts as spread 0.  The marks are a
reading aid, not a gate; the exit status is 0.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import sys
import tempfile
import time
import tracemalloc
from functools import partial

from memory import spawn  # bench/ is on sys.path when this script runs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PERFBENCH = os.path.join(ROOT, "perfbench")
# the speed reference's nominal time, the same as perfbench/run.py's
REFERENCE_NOMINAL_NS = 2.5e6

REPEATS = 3
MIN_CALLS = 5
MIN_SECONDS = 0.5  # keep calling a fast kernel until this much time has passed
MAX_CALLS = 200

# name -> argv; "{vec}" is replaced by a file holding a 4096-coordinate vector
SCENARIOS = {
    "classify T2": ["classify", "--weights", "example:T2"],
    "classify T2 --horizon 1e7": ["classify", "--weights", "example:T2", "--horizon", "10000000"],
    # every term from about n = 2,700 on is inf: the sweep skips that suffix
    "classify blocks:1.4:0.55:b_first --horizon 1e9": [
        "classify", "--weights", "blocks:1.4:0.55:b_first", "--horizon", "1000000000"
    ],
    "conjugate-check 2:1 4:3": ["conjugate-check", "--f", "2:1", "--g", "4:3"],
    "conjugate-check 2:1 4:3 --samples 2000": ["conjugate-check", "--f", "2:1", "--g", "4:3", "--samples", "2000"],
    "orbit T3 example3:20 --n 419": ["orbit", "--op", "example:T3", "--point", "example3:20", "--n", "419"],
    "orbit T3 box:2000 --n 2000": ["orbit", "--op", "example:T3", "--point", "box:2000", "--n", "2000"],
    "orbit escape --n 300": ["orbit", "--op", "constant:2", "--point", "escape", "--n", "300"],
    "apply-map --h s=2 --roundtrip 4096": ["apply-map", "--h", "s=2", "--roundtrip", "--in", "{vec}"],
    "apply-map --g q=3 --roundtrip 4096": ["apply-map", "--g", "q=3", "--roundtrip", "--in", "{vec}"],
    "apply-map --diag 0.6,0.8:0.8,-0.6 --roundtrip 4096": [
        "apply-map", "--diag", "0.6,0.8:0.8,-0.6", "--roundtrip", "--in", "{vec}"
    ],
}


def _kernels() -> dict:
    """kernel -> (three sizes 4x apart, size -> a call with its inputs built).

    shiftlab and numpy are imported here, after the CLI runs: a child's
    ``ru_maxrss`` starts at the size of the process that spawned it, so
    this process stays small until those have been measured.
    """
    sys.path.insert(0, SRC)
    from shiftlab import (
        BalancedBlocks,
        Constant,
        PowerLawBeta,
        ShiftOperator,
        build_conjugator,
        conjugacy_residual,
        escape_demo,
        g_map,
        h_map,
        lp_norm,
        make_example,
        orbit_norms,
        random_vectors,
        tail_power_sums,
    )
    from shiftlab.cli import _parse_explicit
    from shiftlab.dynamics import beta_profile, horizon_evidence
    from shiftlab.seqspace import _Batch, _random_parts, _tails

    def vector(n, p):
        return random_vectors(1, p, seed=n, support_range=(n, n))[0]

    def on_vector(kernel, p, *args):
        return lambda n: partial(kernel, vector(n, p), *args)

    def residual(lam, p, omega, q):
        phi = build_conjugator(lam, p, omega, q)
        source, target = ShiftOperator(Constant(lam), p), ShiftOperator(Constant(omega), q)
        return lambda samples: partial(conjugacy_residual, source, target, phi, samples=samples, seed=1)

    t1, t2, t3 = make_example("T1"), make_example("T2"), make_example("T3")

    def tail_batch(samples):
        # the samples of conjugacy_residual, drawn as it draws them, side by side on l^2
        return partial(_tails, _Batch.of(2.0, list(_random_parts(samples, 1))))

    def evidence(w, p):
        return lambda n: partial(horizon_evidence, w, p, n)

    def explicit_list(n):
        # an inline explicit:... list of n weights with 4 decimals, as perfbench's classify list
        rng = random.Random(n)
        return partial(_parse_explicit, ",".join(f"{rng.uniform(0.97, 1.06):.4f}" for _ in range(n)))

    # the perfbench classify families: the sums' terms saturate differently in each
    families = {
        "T1": (t1.weights, 2.0),
        "T3": (t3.weights, 2.0),
        "blocks b_first": (BalancedBlocks(1.4, 0.55, a_first=False), 2.0),
        "constant": (Constant(0.9 + 0.2j), 2.0),
        "powerlaw": (PowerLawBeta(0.4), 3.0),
    }
    return {
        "cli._parse_explicit": ((16_384, 65_536, 262_144), explicit_list),
        "seqspace.lp_norm": ((2048, 8192, 32768), on_vector(lp_norm, 3.0)),
        "seqspace.tail_power_sums": ((1024, 4096, 16384), on_vector(tail_power_sums, 3.0)),
        "seqspace._tails[batch]": ((25, 100, 400), tail_batch),
        "conjugacy.h_map": ((512, 2048, 8192), on_vector(h_map, 2.0, 2.0)),
        "conjugacy.g_map": ((1024, 4096, 16384), on_vector(g_map, 2.0, 4.0)),
        "conjugacy.conjugacy_residual": ((25, 100, 400), residual(2.0, 2.0, 4.0, 3.0)),
        # a conjugator with all four step kinds: diag, h, g, diag
        "conjugacy.conjugacy_residual[complex]": ((25, 100, 400), residual(2j, 1.5, complex(-1.2, 0.9), 2.0)),
        "dynamics.orbit_norms": ((128, 512, 2048), lambda n: partial(orbit_norms, t3, vector(n, 2.0), n)),
        "dynamics.escape_demo": ((100, 400, 1600), lambda n: partial(escape_demo, 1.5, 2.0, n)),
        "dynamics.beta_profile": ((250_000, 1_000_000, 4_000_000), lambda n: partial(beta_profile, t2.weights, n)),
        "dynamics.horizon_evidence": ((250_000, 1_000_000, 4_000_000), evidence(t2.weights, 2.0)),
        **{
            f"dynamics.horizon_evidence[{name}]": ((250_000, 1_000_000, 4_000_000), evidence(w, p))
            for name, (w, p) in families.items()
        },
    }


def _iqr(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def _time_ms(call, speed_reference_ns) -> tuple[float, float, float]:
    """The median raw and scaled times in ms of repeated calls, and the scaled interquartile range."""
    call()  # warm-up
    times, scaled = [], []
    ref = speed_reference_ns()
    start = time.perf_counter()
    while len(times) < MAX_CALLS and (len(times) < MIN_CALLS or time.perf_counter() - start < MIN_SECONDS):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
        ref, before = speed_reference_ns(), ref
        scaled.append(times[-1] * 2 * REFERENCE_NOMINAL_NS / (before + ref))
    return statistics.median(times) * 1e3, statistics.median(scaled) * 1e3, _iqr(scaled) * 1e3


def _peak_mib(call) -> float:
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _slope(sizes, values) -> float:
    xs = [math.log(s) for s in sizes]
    ys = [math.log(v) for v in values]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def _run_cli(argv: list[str]) -> tuple[float, float]:
    """Wall time in ms and ru_maxrss in MB of one CLI run in a fresh interpreter."""
    code, wall, mb, err, _ = spawn(argv)
    if code != 0:
        raise SystemExit(f"shiftlab {' '.join(argv)} exited {code}: {err.strip()}")
    return wall * 1e3, mb


def _machine() -> dict:
    import numpy as np

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            model = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "libc": " ".join(platform.libc_ver()),
        "cpu": model or platform.processor(),
        "cpus": os.cpu_count(),
    }


def _timing(entry: dict, scaled: bool) -> tuple[float, float]:
    """An entry's scaled or raw median in ms, and its spread relative to that median."""
    key, iqr = ("scaled_ms", "scaled_iqr_ms") if scaled else ("median_ms", "iqr_ms")
    return entry[key], entry.get(iqr, 0.0) / entry[key]


def compare(old_path: str, new_path: str) -> list[str]:
    """One line per entry in both files: old and new medians, their ratio, and a mark."""
    with open(old_path, encoding="utf-8") as f:
        old = json.load(f)
    with open(new_path, encoding="utf-8") as f:
        new = json.load(f)
    rows = []
    for section in ("layers", "e2e"):
        for name in old.get(section, {}).keys() & new.get(section, {}).keys():
            entries = old[section][name], new[section][name]
            scaled = all("scaled_ms" in entry for entry in entries)
            (a, spread_old), (b, spread_new) = (_timing(entry, scaled) for entry in entries)
            mark = "*" if abs(b / a - 1) > max(spread_old, spread_new) else ""
            rows.append(f"{name + ('' if scaled else ' (raw)'):58} {a:10.3f} {b:10.3f} {b / a:7.3f} {mark}".rstrip())
    return [f"{'entry':58} {'old ms':>10} {'new ms':>10} {'ratio':>7}"] + sorted(rows)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--out", help="JSON file to write, e.g. BENCH_13.json")
    which.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="print NEW / OLD per entry of two such files")
    args = parser.parse_args()
    if args.compare:
        print("\n".join(compare(*args.compare)))
        return

    e2e = {}
    with tempfile.TemporaryDirectory() as tmp:
        vec = os.path.join(tmp, "vec.json")
        rng = random.Random(4096)
        with open(vec, "w", encoding="utf-8") as f:
            json.dump({"p": 2.0, "coords": [[rng.uniform(-10, 10), rng.uniform(-10, 10)] for _ in range(4096)]}, f)
        for name, argv in SCENARIOS.items():
            runs = [_run_cli([vec if a == "{vec}" else a for a in argv]) for _ in range(REPEATS)]
            e2e[name] = {
                "median_ms": statistics.median(ms for ms, _ in runs),
                "iqr_ms": _iqr([ms for ms, _ in runs]),
                "max_rss_mb": max(mb for _, mb in runs),
            }
            print(f"e2e  {name}: {e2e[name]}", file=sys.stderr)

    sys.path.insert(0, PERFBENCH)
    from worker import speed_reference_ns

    speed_reference_ns()  # its first call pays for first use of what it touches
    layers, slope = {}, {}
    for kernel, (sizes, make) in _kernels().items():
        times, peaks = [], []
        for n in sizes:
            call = make(n)
            raw, scaled, iqr = _time_ms(call, speed_reference_ns)
            times.append(scaled)
            peaks.append(_peak_mib(call))
            layers[f"{kernel}@{n}"] = {"median_ms": raw, "scaled_ms": scaled, "scaled_iqr_ms": iqr, "peak_mib": peaks[-1]}
            print(f"layer {kernel}@{n}: {layers[f'{kernel}@{n}']}", file=sys.stderr)
        slope[kernel] = {"time": _slope(sizes, times), "peak": _slope(sizes, peaks)}

    with open(args.out, "w", encoding="utf-8") as f:
        json.dump({"machine": _machine(), "e2e": e2e, "layers": layers, "slope": slope}, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
