"""The one CSV writer behind every cdrive artifact.

Each chunk of rows is one ``orjson.dumps`` call over its cells in row-major
order (the float64 block itself when every column is a float, else one list),
whose shortest round-trip digits are repr's.  In that text, seen in place as
uint8, every k-th comma of k columns becomes a line break.  Only the cells
orjson spells differently from repr are then spliced in by cell index: nonzero
|x| < 1e-4 (``0.00001`` for ``1e-05``), |x| >= 1e16 (``1e16`` for ``1e+16``),
NaN and infinities (``null``), and None as the empty cell.
"""

from pathlib import Path

import numpy as np

from .errors import DomainError

_ROWS_PER_CHUNK = 1 << 16  # rows rendered per orjson call, so memory stays bounded


def _orjson_agrees(x):
    """Where orjson spells a float (or each of a float64 array) as repr: 0, 1e-4 <= |x| < 1e16."""
    a = abs(x)
    return (a == 0.0) | ((a >= 1e-4) & (a < 1e16))


def _chunk(parts) -> list:
    """The rows of the column slices as CSV text, a list of byte pieces."""
    import orjson  # loaded when the first rows are written, not on import of the CLI

    k = len(parts)
    if all(p.dtype.kind == "f" for p in parts):
        flat = np.column_stack(parts).astype(np.float64, copy=False).ravel()
        spliced = np.flatnonzero(~_orjson_agrees(flat))
        cells = [repr(v).encode() for v in flat[spliced].tolist()]
        text = bytearray(orjson.dumps(flat, option=orjson.OPT_SERIALIZE_NUMPY))
    else:
        flat = [None] * (k * len(parts[0]))
        for j, p in enumerate(parts):
            flat[j::k] = p.tolist()
        spliced = [i for i, v in enumerate(flat)
                   if v is None or isinstance(v, float) and not _orjson_agrees(v)]
        cells = [b"" if flat[i] is None else repr(flat[i]).encode() for i in spliced]
        text = bytearray(orjson.dumps(flat))
    view = np.frombuffer(text, np.uint8)
    commas = np.flatnonzero(view == ord(","))
    view[commas[k - 1::k]] = view[-1] = ord("\n")
    bounds = np.concatenate(([0], commas, [view.size - 1]))  # cell i lies between bounds i, i + 1
    spliced = np.asarray(spliced, dtype=np.intp)
    whole, pieces, pos = memoryview(text), [], 1
    for start, stop, cell in zip(bounds[spliced].tolist(), bounds[spliced + 1].tolist(), cells):
        pieces += (whole[pos:start + 1], cell)
        pos = stop
    return pieces + [whole[pos:]]


def write_csv(path, header, columns) -> None:
    """Write the columns under the header names, one line per row, streaming.

    This function owns the cell format: a float is the repr of the Python
    float (the shortest text that reads back as the same double), an int is
    written as is, and None is an empty cell.  Columns, one per header name,
    are equal-length arrays or lists of numbers and None; a numpy scalar is
    written as its Python number.  The parent directory is made if missing.
    """
    columns = [np.asarray(col) for col in columns]
    columns = [np.fromiter((v.item() if isinstance(v, np.generic) else v for v in col), object,
                           len(col)) if col.dtype == object else col for col in columns]
    lengths = [len(col) for col in columns]
    if len(header) != len(columns) or len(set(lengths)) > 1:
        raise DomainError(f"CSV header {tuple(header)} needs one column per name, all of "
                          f"one length; got columns of lengths {lengths}")
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, lengths[0] if columns else 0, _ROWS_PER_CHUNK):
            fh.writelines(_chunk([col[start:start + _ROWS_PER_CHUNK] for col in columns]))
