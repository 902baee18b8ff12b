"""Benchmark of imputebounds; run ``python3 benchmarks/perfbench/run.py --help``."""
