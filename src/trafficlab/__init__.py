"""trafficlab: synthetic traffic data generation and sparse-sensor incident detection.

The package covers the full experiment loop: fit a demand curve to macroscopic
counts, run a microscopic 1 Hz simulation with injected incidents, capture
sparse roadside sensor readings, assemble rolling-window feature tables,
validate synthetic demand against the source counts, and train/evaluate a
gated boosted-tree detector ensemble.
"""
from contextlib import contextmanager

__version__ = "0.1.0"

__all__ = ["__version__"]


@contextmanager
def open_text(path, error):
    """`path` opened to read as UTF-8.  A byte that does not decode raises
    `error` naming the path and the line that holds it, wherever in the
    with block the file is read."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise error(f"{path}:{line}: byte 0x{data[exc.start]:02x} is "
                        f"not UTF-8 ({exc.reason})") from None
        raise
