"""Healthy-subspace prognostics toolkit.

Fits the low-dimensional subspace of healthy multivariate sensor data, one
batch PCA per operating regime, turns deviation from it into health-index
curves, and estimates remaining useful life by similarity-based curve
matching. Includes a benchmark harness for CMAPSS-format turbofan datasets.
"""

__version__ = "0.1.0"
