"""The one CSV writer behind every cdrive artifact."""

from pathlib import Path

import numpy as np

_ROWS_PER_CHUNK = 1 << 16  # rows rendered per orjson call, so memory stays bounded


def _orjson_agrees(x):
    """Where orjson writes a double as repr does: zero and 1e-4 <= |x| < 1e16.
    x is a Python float or a float64 array; NaN and infinities are False."""
    a = abs(x)
    return (a == 0.0) | ((a >= 1e-4) & (a < 1e16))


def _cells(col: np.ndarray) -> list:
    """The column as Python values for orjson, with None as "" and the
    floats orjson would write differently as their repr."""
    values = col.tolist()
    if col.dtype == object:
        return ["" if v is None
                else repr(v) if isinstance(v, float) and not _orjson_agrees(v)
                else v
                for v in values]
    if col.dtype.kind == "f":
        for i in np.flatnonzero(~_orjson_agrees(col.astype(np.float64, copy=False))).tolist():
            values[i] = repr(values[i])
    return values


def write_csv(path, header, columns) -> None:
    """Write the columns under the header names, one line per row, streaming.

    This function owns the cell format: a float is the repr of the Python
    float (the shortest text that reads back as the same double), an int is
    written as is, and None is an empty cell.  Columns are equal-length
    arrays, or lists of Python numbers where one may hold None; each goes
    through ``tolist()``, so numpy scalars never reach the format.  The
    parent directory is created if missing.

    Cells are rendered by ``orjson.dumps`` of the row tuples, because its
    shortest round-trip digits are repr's at a fraction of repr's cost.  Its
    notation differs from repr's for nonzero |x| < 1e-4 (``0.00001`` against
    ``1e-05``), for |x| >= 1e16 (``1e16`` against ``1e+16``) and for NaN and
    infinities (``null``); those cells, and None, are pre-rendered as
    strings, whose quotes are then dropped (no repr text holds a quote).
    """
    import orjson  # loaded at the first write, not on import of the CLI

    columns = [np.asarray(col) for col in columns]
    n_rows = len(columns[0]) if columns else 0
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, n_rows, _ROWS_PER_CHUNK):
            rows = zip(*(_cells(col[start:start + _ROWS_PER_CHUNK]) for col in columns))
            text = orjson.dumps(list(rows))[2:-2]  # drop the outer "[[" and "]]"
            fh.write(text.replace(b"],[", b"\n").replace(b'"', b"") + b"\n")
