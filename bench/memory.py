"""Peak memory of the CLI runs whose memory must not grow with their size.

    python3 bench/memory.py

Run from the root of a checkout: shiftlab is imported from ``src/``.  Each
run is a fresh interpreter whose own ``ru_maxrss`` and ``ru_minflt`` (minor
page faults) are read with ``os.wait4``; one line per run is printed, and
the exit status is 0 when both checks hold:

* ``classify`` of T2 and of T3 at horizon 10**8 each exit 0 under 256 MB.
  The beta-profile evidence is streamed in fixed-size chunks, so peak
  memory must not grow with the horizon.  T2's and T3's terms never
  saturate, so these are the largest sweeps the CLI makes here: T2's
  chunks with lanes below -750 go through ``np.exp`` with a mask, and all
  3,052 of T3's chunks go to ``np.exp`` whole.  None of T3's chunks is
  wholly above 710, so its inf fill first fires past this horizon: on 5
  of 9,156 chunks at 3 * 10**8 and 6,627 of 30,518 at 10**9.
* The escape demo of ``constant:1.1`` leaves float range at step 7448 of
  10**6, so it must exit 1 naming that step without norming the rest of
  the trace: its peak may be no higher than that of ``constant:1``, which
  norms every step.

Wall times and page faults are printed for the record, not checked.  The
sweep writes each chunk into one buffer, so a run's faults do not grow with
its horizon: about 5,000 at 10**6 and at 10**8 on a 2-core Xeon, most of
them interpreter and numpy start-up, where fresh pages for every chunk
took about 300,000 at 10**8.  ``spawn`` is also
how ``bench/run.py`` times its CLI scenarios.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
CLI = "import sys; from shiftlab.cli import main; sys.exit(main(sys.argv[1:]))"
MAX_CLASSIFY_MB = 256


def spawn(argv: list[str]) -> tuple[int, float, float, str, int]:
    """Exit code, wall time in s, ``ru_maxrss`` in MB, stderr and ``ru_minflt`` of one CLI run in a fresh interpreter."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", CLI, *argv],
        env=dict(os.environ, PYTHONPATH=SRC),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    with proc.stderr:
        err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024, err, usage.ru_minflt


def classify_stays_small() -> bool:
    ok = True
    for example in ("example:T2", "example:T3"):
        code, wall, mb, _, faults = spawn(["classify", "--weights", example, "--horizon", "100000000"])
        print(f"{example}: exit {code}, ru_maxrss {mb:.1f} MB, ru_minflt {faults}, wall {wall:.2f} s")
        ok = ok and code == 0 and mb < MAX_CLASSIFY_MB
    return ok


def escape_stops_early() -> bool:
    runs = {}
    for op in ("constant:1.1", "constant:1"):
        code, wall, mb, err, faults = runs[op] = spawn(["orbit", "--op", op, "--point", "escape", "--n", "1000000"])
        print(f"{op}: exit {code}, ru_maxrss {mb:.1f} MB, ru_minflt {faults}, wall {wall:.2f} s, stderr {err.strip()!r}")
    code, _, mb, err, _ = runs["constant:1.1"]
    return code == 1 and "step 7448" in err and mb <= runs["constant:1"][2]


def main() -> int:
    ok = classify_stays_small()
    return 0 if escape_stops_early() and ok else 1


if __name__ == "__main__":
    sys.exit(main())
