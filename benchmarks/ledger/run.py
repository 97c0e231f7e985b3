"""``python3 benchmarks/ledger/run.py`` — the ledger's entry point as a
script, for callers (the benchmark driver) that name a file rather than a
module. Same arguments as ``python -m benchmarks.ledger``."""

import sys
from pathlib import Path

if __name__ == "__main__":
    # a script's own directory leads sys.path; the package root must
    sys.path[0] = str(Path(__file__).resolve().parents[2])
    from benchmarks.ledger.cli import main

    sys.exit(main())
