"""Benchmark of the mblbfgs package; see run.py and README.md."""
