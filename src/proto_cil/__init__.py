"""Exemplar-free class-incremental learning engine and benchmark harness."""

__version__ = "0.1.0"
