"""Script entry point: ``python3 benchmarks/vssbench/run.py --workload ...``."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.vssbench.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
