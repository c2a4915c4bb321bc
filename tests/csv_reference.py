"""Row-at-a-time reference for the CLI's grid CSV files.

These are the row generators and the row writer the CLI ran before it
wrote each file a column at a time (``cli._write_grid``): one tuple per
(node, entry), and one %-format string of the row's cell types per row.
The column writer must reproduce their bytes exactly.
"""

import csv

import numpy as np

from markovbsde.cli import _fmt

# %-conversions of the cell types that _fmt writes, giving the same text
_CONVERSIONS = {bool: "%s", np.bool_: "%s", int: "%d", np.int64: "%d",
                float: "%.17g", np.float64: "%.17g"}


def write_rows(path, header, rows):
    """Write the header and rows as ``csv.writer`` writes ``cli._fmt`` of
    each cell. A row of numbers and booleans goes through one %-format
    string of its cell types; any other row through ``csv.writer``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            row = tuple(row)
            try:
                line = ",".join([_CONVERSIONS[type(x)] for x in row]) % row
            except KeyError:
                writer.writerow([_fmt(x) for x in row])
            else:
                fh.write(line + "\r\n")


def grid_rows(grid, *columns):
    """(time, state, value of each column) rows, node by node and state by
    state, from (K+1, N) arrays on ``grid``."""
    cols = [c.tolist() for c in columns]
    for k, t in enumerate(grid.tolist()):
        for i in range(len(cols[0][k])):
            yield (t, i, *(c[k][i] for c in cols))


def curve_rows(grid, s):
    """(time, stock, state, price) rows of the (stocks, K+1, N) prices
    ``s`` on ``grid``."""
    prices = s.tolist()
    for k, t in enumerate(grid.tolist()):
        for j in range(len(prices)):
            for i, price in enumerate(prices[j][k]):
                yield (t, j, i, price)


def read_rows(path):
    """The rows of a CSV file after its header, each cell as a float."""
    with open(path, newline="") as fh:
        return [tuple(map(float, row)) for row in list(csv.reader(fh))[1:]]
