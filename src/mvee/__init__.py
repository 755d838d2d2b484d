"""Minimum volume enclosing ellipsoid solvers and benchmark harness."""

__version__ = "0.1.0"
