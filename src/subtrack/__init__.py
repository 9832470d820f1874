"""Streaming subspace-tracking prognostics toolkit.

Tracks the low-dimensional subspace of healthy multivariate sensor data,
turns deviation from it into health-index curves, and estimates remaining
useful life by similarity-based curve matching. Includes a benchmark harness
for CMAPSS-format turbofan datasets.
"""

__version__ = "0.1.0"
