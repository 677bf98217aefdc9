"""Time one set-up step in a fresh interpreter.

    python3 perfbench/setup_probe.py corpus <workload> <seed> [smoke]
    python3 perfbench/setup_probe.py mops
    python3 perfbench/setup_probe.py networkx

``corpus`` times ``import mops`` plus building the workload's graphs; the
other two time a single import. The clock starts before the first import.
Prints the step's seconds, then the mean time of ``speed.probe_work`` in
this interpreter just before and just after the step, so the caller can
scale the step to reference speed.
"""

import os
import sys
import time

from speed import SpeedProbe  # noqa: E402  (stdlib only)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
PROBE_SAMPLES = 5


def main(argv: list[str]) -> None:
    what = argv[0]
    speed = SpeedProbe()
    for _ in range(PROBE_SAMPLES):
        speed.sample()
    start = time.perf_counter()
    if what == "networkx":
        import networkx  # noqa: F401
    elif what == "mops":
        import mops  # noqa: F401
    elif what == "corpus":
        import mops  # noqa: F401
        from workloads import WORKLOADS, build_corpus

        build_corpus(WORKLOADS[argv[1]], int(argv[2]), smoke=len(argv) > 3)
    else:
        raise SystemExit(f"unknown set-up step {what!r}")
    elapsed = time.perf_counter() - start
    for _ in range(PROBE_SAMPLES):
        speed.sample()
    print(elapsed, speed.mean_s())


if __name__ == "__main__":
    main(sys.argv[1:])
