"""Performance ledger: seeded workloads, end-to-end and per-layer metrics.

The ledger measures the fill engine from outside: it generates every
input from a seed, drives the program only through public functions in
fresh child processes (:mod:`ledger.child`), keeps its own clock and
checks every output.  See ``ledger/README.md``.

Commands (from the repository root)::

    python -m ledger run --out DIR [--seed S] [--scale smoke]
    python -m ledger compare A.json B.json
    python -m ledger bench --workload W --seed S --seconds T --trace 0|1
"""

from pathlib import Path

#: repository root: the ledger lives at ``<root>/ledger``
ROOT = Path(__file__).resolve().parent.parent
#: the program under measurement
SRC = ROOT / "src"
