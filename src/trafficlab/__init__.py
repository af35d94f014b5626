"""trafficlab: synthetic traffic data generation and sparse-sensor incident detection.

The package covers the full experiment loop: fit a demand curve to macroscopic
counts, run a microscopic 1 Hz simulation with injected incidents, capture
sparse roadside sensor readings, assemble rolling-window feature tables,
validate synthetic demand against the source counts, and train/evaluate a
gated boosted-tree detector ensemble.
"""
__version__ = "0.1.0"

__all__ = ["__version__"]
