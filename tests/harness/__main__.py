"""Run one test drill: ``python -m tests.harness <drill> <workdir>``.

Each row of :data:`DRILLS` is one drill with its arguments fixed.  A
drill raises on any property it finds broken, so the exit code is the
verdict; its JSON report lands in the workdir.
"""

from __future__ import annotations

import sys
from pathlib import Path

from .chaos import run_cluster_chaos
from .soak import SoakConfig, run_soak

DRILLS = {
    # Faultline soak: survival, exact dead-letter/ledger accounting,
    # bounded degradation and determinism -> report.json.
    "soak": lambda workdir: run_soak(
        SoakConfig(workdir, bots=16, days=2, max_restarts=25), log_stream=sys.stderr
    ),
    # Meshguard chaos: zero loss, CI containment and determinism under
    # seeded partition kills/wedges -> chaos-report.json.
    "cluster-chaos": lambda workdir: run_cluster_chaos(workdir, log=sys.stderr),
}


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in DRILLS:
        print(
            f"usage: python -m tests.harness {{{'|'.join(DRILLS)}}} WORKDIR",
            file=sys.stderr,
        )
        return 2
    drill, workdir = argv
    DRILLS[drill](Path(workdir))
    print(f"{drill} passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
