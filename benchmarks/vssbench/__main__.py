"""``python -m benchmarks.vssbench`` is the same command as ``run.py``."""

from .cli import main

raise SystemExit(main())
