"""End-to-end benchmark of the shiftlab command line.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0

Run from the root of a checkout: shiftlab is imported from ``src/``.  The
run builds the workload's inputs from the seed, then times
``shiftlab.cli.main(argv)`` calls and interpreter start-up in a separate
process for ``--seconds`` (``worker.py``), checks every distinct output
with ``checks.py`` and prints one JSON object as its last line:
``correct``, ``attempted``, ``failed`` and the metrics.  With ``--trace 0``
those are the end-to-end metrics; with ``--trace 1`` the per-layer metrics
of ``layers.py`` and the tracing overhead.  See README.md.

Times in the end-to-end metrics are scaled to a nominal machine speed: each
call is multiplied by REFERENCE_NOMINAL_NS over the mean of the two speed
references that bracket it (``worker.py``).  On the shared machine the
figures in README.md come from, the machine's speed changed by up to 1.9x
over minutes; scaled times of identical runs stayed within a few per cent.
The raw figures are printed as well.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

import checks
import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 150
# the speed reference's typical time on the 2-core machine behind README.md;
# it fixes the scale of the scaled times and nothing else
REFERENCE_NOMINAL_NS = 2.5e6


def tail_percentile(values: list[float]) -> tuple[float, float, int] | None:
    """The highest of p90/p99/p99.9 with at least ten samples beyond it."""
    n = len(values)
    if n < 40:
        return None
    ordered = sorted(values)
    best = None
    for pct in (90.0, 99.0, 99.9):
        beyond = n - math.ceil(pct / 100 * n)
        if beyond >= 10:
            best = (pct, ordered[math.ceil(pct / 100 * n) - 1], beyond)
    return best


def run_worker(root: str, ops_path: str, out_path: str, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--ops", ops_path,
           "--seconds", str(seconds), "--trace", str(trace), "--out", out_path]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed: {proc.stderr.strip()[-800:]}")
    with open(out_path, encoding="utf-8") as f:
        return json.load(f)


def check_outputs(workload: str, ops: list[dict], result: dict) -> tuple[list[str], set[str]]:
    problems, failed = [], set()
    for op in ops:
        rc, out, err = result["first"][op["id"]]
        found, op_failed = checks.check(workload, op, rc, out)
        problems.extend(f"{op['id']}: {msg}" for msg in found)
        if op_failed:
            failed.add(op["id"])
    problems.extend(f"{ident}: output differs between calls" for ident in result["differing"])
    return problems, failed


def scaled_rounds(result: dict) -> list[tuple[bool, list[float]]]:
    """Per round: whether it was traced, and its calls' scaled times in ns.

    A call's scale is the nominal reference time over the mean of the two
    references that bracket it.
    """
    refs = result["refs_ns"]
    out, k = [], 0
    for traced, times in zip(result["traced_rounds"], result["calls_ns"]):
        out.append((traced, [ns * 2 * REFERENCE_NOMINAL_NS / (refs[k + j] + refs[k + j + 1])
                             for j, ns in enumerate(times)]))
        k += len(times)
    return out


def typical_call_ms(result: dict) -> list[float]:
    """Each operation's median scaled call time over the untraced rounds."""
    rounds = [times for traced, times in scaled_rounds(result) if not traced]
    return [statistics.median(times[j] for times in rounds) / 1e6 for j in range(len(rounds[0]))]


def end_to_end(result: dict) -> dict:
    typical = typical_call_ms(result)
    # the spawns are spread over the run: scale them by the run's median reference
    setup_scale = REFERENCE_NOMINAL_NS / statistics.median(result["refs_ns"])
    return {
        "ops_per_s": {"value": len(typical) / (sum(typical) / 1e3), "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(typical), "unit": "ms"},
        "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024, "unit": "MB"},
        "setup_s": {"value": statistics.median(result["setup_ns"]) * setup_scale / 1e9, "unit": "s"},
    }


def per_layer(result: dict) -> dict:
    traced = [t for t in result["traced_rounds"] if t]
    ops = len(traced) * len(result["calls_ns"][0])
    metrics = {"cli.main.self_ms": {"value": result["self_ns"]["cli.main"] / 1e6 / ops, "unit": "ms"},
               "cli.output_kb": {"value": result["output_bytes"] / 1024 / ops, "unit": "KB"}}
    for name, (_, _, counters) in layers.LAYERS.items():
        metrics[f"{name}.self_ms"] = {"value": result["self_ns"][name] / 1e6 / ops, "unit": "ms"}
        for suffix in counters:
            metrics[f"{name}.{suffix}"] = {"value": result["counts"][f"{name}.{suffix}"] / ops,
                                           "unit": "count"}
    scaled = {True: [], False: []}
    for was_traced, times in scaled_rounds(result):
        scaled[was_traced].append(sum(times))
    overhead = statistics.mean(scaled[True]) / statistics.mean(scaled[False]) - 1
    metrics["trace.overhead_pct"] = {"value": 100 * overhead, "unit": "%"}
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "shiftlab", "cli.py")):
        print("error: run from the root of a shiftlab checkout (src/shiftlab/cli.py not found)",
              file=sys.stderr)
        return 2

    workdir = os.path.join(HERE, "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        ops_path = os.path.join(workdir, "ops.json")
        with open(ops_path, "w", encoding="utf-8") as f:
            json.dump([[op["id"], op["argv"]] for op in ops], f)
        result = run_worker(root, ops_path, os.path.join(workdir, "result.json"), args.seconds, args.trace)
        problems, failed_ids = check_outputs(args.workload, ops, result)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = len(result["calls_ns"])
    raw_ms = [ns / 1e6 for times, traced in zip(result["calls_ns"], result["traced_rounds"])
              if not traced for ns in times]
    refs_ms = [ns / 1e6 for ns in result["refs_ns"]]
    print(f"workload {args.workload} seed {args.seed}: {rounds} rounds of {len(ops)} ops, "
          f"failed per round: {sorted(failed_ids) or 'none'}")
    print(f"raw wall clock: {len(raw_ms) / (sum(raw_ms) / 1e3):.3f} ops/s over the timed calls, "
          f"p50 {statistics.median(raw_ms):.3f} ms")
    tail = tail_percentile(raw_ms)
    if tail:
        print(f"raw latency p{tail[0]:g} = {tail[1]:.3f} ms ({len(raw_ms)} samples, {tail[2]} beyond)")
    else:
        print(f"raw latency: {len(raw_ms)} samples, too few for a tail percentile")
    print(f"speed reference: {refs_ms[0]:.2f} ms at start, {refs_ms[-1]:.2f} ms at end, "
          f"median {statistics.median(refs_ms):.2f} ms over {len(refs_ms)} (nominal "
          f"{REFERENCE_NOMINAL_NS / 1e6:g} ms)")
    print("raw setup spawns (s): " + " ".join(f"{ns / 1e9:.4f}" for ns in result["setup_ns"]))
    for msg in problems:
        print(f"CHECK FAILED {msg}")
    if args.trace:
        metrics = per_layer(result)
        print(f"tracing overhead: {metrics['trace.overhead_pct']['value']:.1f} % per op")
    else:
        metrics = end_to_end(result)
    print(json.dumps({
        "correct": not problems,
        "attempted": rounds * len(ops),
        "failed": rounds * len(failed_ids),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
