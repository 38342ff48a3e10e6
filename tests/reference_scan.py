"""The Werner scan as the per-row dicts it replaced.

``oracle.threshold_scan`` returns one float table and finds every
crossing with one comparison against an array of bounds, and
``qrgames sweep`` formats each W's r-independent fields once and writes
its ``\\r\\n`` lines itself.  Before, each W was a dict row, copied into a
second dict per r with that r's payoff, each crossing came from a loop
over those rows, and ``sweep`` wrote every field of every row through
``csv.writer``.  :func:`dict_rows`, :func:`dict_crossings` and
:func:`csv_writer_sweep` keep those loops as the reference the tables
and ``sweep.csv`` are held to byte for byte.
"""

import csv
import io

import numpy as np

from qrgames.games import SteeringGameSpec, _payoffs
from qrgames.oracle import werner_columns

_BOUNDS = {
    "witness2": 1.0,
    "steering2": np.sqrt(2.0),
    "steering3": np.sqrt(3.0),
    "chsh": 2.0,
    "qrs_payoff": 0.0,
}

_SWEEP_FIELDS = ("w", "r", "witness2", "steering2", "steering3", "chsh", "qrs_payoff")


def dict_rows(columns, r: float) -> list:
    """One dict per W: its r-independent fields, then the honest payoff at r
    in the calibrated game, the one ``sweep`` tabulates."""
    names = ("w", "witness2", "steering2", "steering3", "chsh")
    spec = SteeringGameSpec.ideal(r=r)
    payoffs = _payoffs(columns.e_ab, columns.e_b, spec.penalty_coefficient).tolist()
    return [
        {**dict(zip(names, values)), "qrs_payoff": p}
        for values, p in zip(columns.rows.tolist(), payoffs)
    ]


def dict_crossings(rows) -> dict:
    """The first W whose value lies strictly above each bound, or ``None``."""
    crossings = {}
    for name, bound in _BOUNDS.items():
        crossing = None
        for row in rows:
            if row[name] > bound:
                crossing = row["w"]
                break
        crossings[name] = crossing
    return crossings


def csv_writer_sweep(w_grid, r_grid) -> bytes:
    """The bytes of ``sweep.csv`` over the two grids, written row by row."""
    columns = werner_columns(SteeringGameSpec(), w_grid)
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow(_SWEEP_FIELDS)
    for r in r_grid:
        for row in dict_rows(columns, float(r)):
            writer.writerow(
                [repr(row["w"]), repr(float(r))] + [repr(row[name]) for name in _SWEEP_FIELDS[2:]]
            )
    return fh.getvalue().encode()
