"""trafficlab: synthetic traffic data generation and sparse-sensor incident detection.

The package covers the full experiment loop: fit a demand curve to macroscopic
counts, run a microscopic 1 Hz simulation with injected incidents, capture
sparse roadside sensor readings, assemble rolling-window feature tables,
validate synthetic demand against the source counts, and train/evaluate a
gated boosted-tree detector ensemble.
"""
from contextlib import ExitStack, contextmanager
from itertools import islice

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


def write_lines(path, lines) -> None:
    """Write `lines` to `path` as UTF-8, each ended by one newline, joined
    4096 at a time so a long file is never held as one string."""
    lines = iter(lines)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        while chunk := list(islice(lines, 4096)):
            fh.write("\n".join(chunk) + "\n")


def read_csv(path, error, header, parse, section=None):
    """`(columns, rows)` of the headed comma-separated file at `path`: the
    header's column names, and `parse(fields)` of each row.

    `header` is the line the file must start with, or, for a file whose
    columns vary, a predicate on the column names; spaces in the header are
    ignored.  `section`, if given, holds the `(line number, line)` pairs of
    one section of `path`, read in place of the whole file.  Lines are
    stripped and blank ones skipped, a row must have as many fields as the
    header, and a ValueError from `parse` is raised as `error` naming the
    path and the line."""
    rows = []
    with ExitStack() as stack:
        lines = iter(section if section is not None else enumerate(
            stack.enter_context(open_text(path, error)), start=1))
        lineno, got = next(lines, (1, ""))
        got = got.strip()
        cols = got.replace(" ", "").split(",")
        if not (header(cols) if callable(header)
                else ",".join(cols) == header):
            where = path if section is None else f"{path}:{lineno}"
            raise error(f"{where}: unexpected header {got!r}")
        for lineno, raw in lines:
            line = raw.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != len(cols):
                raise error(f"{path}:{lineno}: expected {len(cols)} fields, "
                            f"got {len(fields)}")
            try:
                rows.append(parse(fields))
            except ValueError as exc:
                raise error(f"{path}:{lineno}: {exc}") from None
    return cols, rows


def is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def kind_fault(value, default) -> str:
    """"" when `value` is of the kind of `default`, else what it must be:
    an integer (bools refused), a number, a string or a pair of numbers.
    A default of any other kind sets no rule.  The experiment YAML and
    model.json's training config share this one kind rule."""
    if isinstance(default, int):
        ok, what = is_number(value) and isinstance(value, int), "an integer"
    elif isinstance(default, float):
        ok, what = is_number(value), "a number"
    elif isinstance(default, str):
        ok, what = isinstance(value, str), "a string"
    elif isinstance(default, tuple):
        ok, what = (isinstance(value, (list, tuple)) and len(value) == 2
                    and all(map(is_number, value))), "a pair of numbers"
    else:
        return ""
    return "" if ok else what


def read_key_values(path, error, parse) -> dict:
    """`{key: parse(key, value)}` over the `key=value` lines of `path`.
    Blank lines and `#` comments are skipped; a line without `=`, a key
    set twice or a ValueError from `parse` is raised as `error` naming the
    path and the line."""
    out, first = {}, {}
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
            if key in first:
                raise error(f"{path}:{lineno}: duplicate key {key!r} "
                            f"(first on line {first[key]})")
            first[key] = lineno
            try:
                out[key] = parse(key, val.strip())
            except ValueError as exc:
                raise error(f"{path}:{lineno}: {exc}") from None
    return out
