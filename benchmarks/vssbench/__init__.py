"""vssbench: the end-to-end benchmark every later perf PR is measured with.

Four deterministic workloads over one VSS store (see README.md):
``cold_mixed_reads``, ``hot_stream_reads``, ``remote_streams`` and
``ingest_follow``.  Run one with::

    python3 benchmarks/vssbench/run.py --workload hot_stream_reads --seed 0

The suite measures the system from outside: nothing under ``src/`` is
patched on disk, and tracing wraps public entry points at run time only.
"""
