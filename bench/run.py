"""aqstate benchmark: three seeded, single-process, closed-loop workloads.

Run from the repository root:

    python3 bench/run.py --workload estimate-reuse --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke

Workloads: experiment-n12, estimate-reuse, acquire-n22 (see workloads.py).
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics from spans (see spans.py) with ``--trace 1``.  A fuller
report per run (machine, computed sizes, digests, failures, spans) is
written under bench/out/.  ``--smoke`` runs every workload at reduced size
in seconds.

The package is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits non-zero.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    if not (SRC / "aqstate" / "__init__.py").is_file():
        sys.exit(f"error: no aqstate sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import runner  # imports aqstate, so only after src/ is on the path

    return runner.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
