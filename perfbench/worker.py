"""Closed-loop timing of one workload in a process of its own.

Run by ``run.py`` from the root of a checkout; imports shiftlab from
``src/``.  One caller, one thread: each ``shiftlab.cli.main(argv)`` call
starts after the previous one returned, with stdout and stderr captured.
The operations of a round run in a fixed order and every run does whole
rounds, so a slow spell of the machine falls on every kind of operation
alike and the share of each kind is the same in every run.

An untimed warm-up round comes first; its outputs are the ones handed back
for checking, and every timed call must reproduce them byte for byte.  With
``--trace 1`` rounds alternate between untraced and traced, so the tracing
overhead is measured against untraced rounds of the same run.

The machine is shared and its speed drifts by up to 1.8x in spells of
seconds to minutes, so a short fixed stdlib + numpy loop (the speed
reference, about 2.5 ms) is timed before the first timed call and after
every call: each call is bracketed by the references on either side of it.

Set-up time is sampled here too, between rounds and never during one: a
fresh interpreter imports shiftlab and builds the CLI parser, once before the
loop (untimed: it may compile bytecode, which a user pays once) and then
``SETUP_SPAWNS`` times spread evenly over the run.

The result goes to ``--out`` as JSON; the process's peak resident memory is
part of it, which is why nothing but this workload runs here.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import time

import numpy as np

from layers import Tracer

SETUP_SPAWNS = 10
SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, 'src'); from shiftlab.cli import main; "
    "raise SystemExit(main(['--version']))"
)


def speed_reference_ns() -> int:
    """Wall time of a fixed stdlib + numpy loop: how fast the machine runs now."""
    t0 = time.perf_counter_ns()
    acc = 0.0
    for i in range(8_000):
        acc += math.sqrt(i)
    json.dumps({str(i): [i * 0.5, i] for i in range(500)}, sort_keys=True, indent=2)
    a = np.arange(30_000, dtype=np.float64)
    for _ in range(5):
        a = np.sqrt(a + 1.0)
    return time.perf_counter_ns() - t0


def time_setup_ns() -> int:
    """Spawning a fresh interpreter until it exits with the CLI parser built."""
    t0 = time.perf_counter_ns()
    proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter_ns() - t0
    if proc.returncode != 0 or not proc.stdout.startswith("shiftlab "):
        raise RuntimeError(f"shiftlab does not start: {proc.stderr.strip()[-400:]}")
    return elapsed


def _call(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter_ns()
        rc = main(argv)
        t1 = time.perf_counter_ns()
    return rc, out.getvalue(), err.getvalue(), t1 - t0


def run(ops, seconds: float, trace: bool) -> dict:
    import shiftlab.cli as cli

    tracer = Tracer("shiftlab") if trace else None
    time_setup_ns()
    speed_reference_ns()  # its first call pays for first use of what it touches

    first = {}
    for ident, argv in ops:
        rc, out, err, _ = _call(cli.main, argv)
        first[ident] = [rc, out, err]

    calls_ns = []  # per round, each call's wall time in round order
    traced_rounds = []
    refs_ns = [speed_reference_ns()]  # refs_ns[k] and refs_ns[k + 1] bracket timed call k
    setup_ns = []
    output_bytes = 0
    differing = set()
    start = time.perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    spawn_every = int(seconds * 1e9 / SETUP_SPAWNS)
    while True:
        traced = tracer is not None and len(calls_ns) % 2 == 1
        if traced:
            tracer.install()
        main = tracer.main if traced else cli.main
        times = []
        for ident, argv in ops:
            rc, out, err, ns = _call(main, argv)
            refs_ns.append(speed_reference_ns())
            times.append(ns)
            if traced:
                output_bytes += len(out.encode())
            if rc != first[ident][0] or out != first[ident][1]:
                differing.add(ident)
        if traced:
            tracer.uninstall()
        calls_ns.append(times)
        traced_rounds.append(traced)
        now = time.perf_counter_ns()
        if len(setup_ns) < SETUP_SPAWNS and now >= start + len(setup_ns) * spawn_every:
            setup_ns.append(time_setup_ns())
        if now >= deadline and (tracer is None or len(calls_ns) % 2 == 0):
            break
    while len(setup_ns) < SETUP_SPAWNS:
        setup_ns.append(time_setup_ns())

    result = {
        "calls_ns": calls_ns,
        "traced_rounds": traced_rounds,
        "refs_ns": refs_ns,
        "setup_ns": setup_ns,
        "first": first,
        "differing": sorted(differing),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["self_ns"] = tracer.self_ns
        result["counts"] = tracer.counts
        result["output_bytes"] = output_bytes
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--ops", required=True, help="JSON list of [id, argv] pairs")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import shiftlab

    if not shiftlab.__file__.startswith(src + os.sep):
        print(f"error: shiftlab imported from {shiftlab.__file__}, not from {src}", file=sys.stderr)
        return 1
    with open(args.ops, encoding="utf-8") as f:
        ops = json.load(f)
    result = run(ops, args.seconds, bool(args.trace))
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
