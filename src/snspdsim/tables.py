"""The one CSV table writer every plot-ready output goes through.

Number format: floats (NumPy floats included) are written as the shortest
string that reads back to the same double, `repr(float(x))`, so NaN is
`nan`; ints and strings are written with `str`, so an int has no `.0`.
A NumPy scalar gives the same bytes as the Python scalar of equal value.
"""

from __future__ import annotations

import numpy as np


def _cell(x) -> str:
    return repr(float(x)) if isinstance(x, (float, np.floating)) else str(x)


def write_csv(path, header: str, rows) -> None:
    """Write `header` as one line, then one comma-joined line per row."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")
