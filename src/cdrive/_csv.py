"""The one CSV writer behind every cdrive artifact."""

import numpy as np


def write_csv(path, header, columns) -> None:
    """Write the columns under the header names, one line per row, streaming.

    This function owns the cell format: a float is the repr of the Python
    float (the shortest text that reads back as the same double), an int is
    written as is, and None is an empty cell.  Columns are equal-length
    arrays, or lists of Python numbers where one may hold None; each goes
    through ``tolist()``, so numpy scalars never reach the format.
    """
    cells = []
    for col in map(np.asarray, columns):
        values = col.tolist()
        if col.dtype == object:
            values = ["" if v is None else v for v in values]
        cells.append(values)
    # str of a Python float is its repr
    template = ",".join(["%s"] * len(cells)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(map(template.__mod__, zip(*cells)))
