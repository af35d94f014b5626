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


def read_csv(path, error, header, parse):
    """Call `parse(fields)` on every row of the headed comma-separated file
    at `path`, and return the header's column names.

    `header` is the line the file must start with, or, for a file whose
    columns vary, a predicate on the column names; spaces in the header are
    ignored.  Lines are stripped and blank ones skipped, a row must have as
    many fields as the header, and a ValueError from `parse` is raised as
    `error` naming the path and the line."""
    with open_text(path, error) as fh:
        got = fh.readline().strip()
        cols = got.replace(" ", "").split(",")
        if not (header(cols) if callable(header)
                else ",".join(cols) == header):
            raise error(f"{path}: unexpected header {got!r}")
        for lineno, raw in enumerate(fh, start=2):
            line = raw.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != len(cols):
                raise error(f"{path}:{lineno}: expected {len(cols)} fields, "
                            f"got {len(fields)}")
            try:
                parse(fields)
            except ValueError as exc:
                raise error(f"{path}:{lineno}: {exc}") from None
    return cols


def read_key_values(path, error, parse) -> dict:
    """`{key: parse(key, value)}` over the `key=value` lines of `path`.
    Blank lines and `#` comments are skipped; a line without `=` or a
    ValueError from `parse` is raised as `error` naming the path and the
    line."""
    out = {}
    with open_text(path, error) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, val = line.partition("=")
            if not eq:
                raise error(f"{path}:{lineno}: expected key=value, "
                            f"got {line!r}")
            key = key.strip()
            try:
                out[key] = parse(key, val.strip())
            except ValueError as exc:
                raise error(f"{path}:{lineno}: {exc}") from None
    return out
