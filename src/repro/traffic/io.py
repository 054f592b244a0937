"""Serialization of traffic matrices and flow traces.

Experiments want to pin workloads to disk: demand matrices as CSV (one
row per source, plain floats) and flow traces as CSV with a header
(``flow_id,src,dst,size_cells,arrival_slot``).  Formats are deliberately
dumb — diffable, editable, loadable by any tool.
"""

from __future__ import annotations

import csv
import pathlib
from typing import List, Union

import numpy as np

from ..errors import TrafficError
from .matrix import TrafficMatrix
from .workload import FlowsLike, FlowTable

__all__ = [
    "save_matrix_csv",
    "load_matrix_csv",
    "save_flows_csv",
    "load_flows_csv",
]

PathLike = Union[str, pathlib.Path]

FLOW_HEADER = ["flow_id", "src", "dst", "size_cells", "arrival_slot"]


def save_matrix_csv(matrix: TrafficMatrix, path: PathLike) -> None:
    """Write a demand matrix as a headerless CSV of floats."""
    np.savetxt(path, matrix.rates, delimiter=",", fmt="%.12g")


def load_matrix_csv(path: PathLike) -> TrafficMatrix:
    """Read a demand matrix written by :func:`save_matrix_csv`.

    Validation (squareness, non-negativity, zero diagonal) happens in the
    :class:`TrafficMatrix` constructor, so corrupted files fail loudly.
    """
    try:
        rates = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise TrafficError(f"cannot read matrix from {path}: {exc}") from exc
    return TrafficMatrix(rates)


def save_flows_csv(flows: FlowsLike, path: PathLike) -> None:
    """Write a flow trace with header ``flow_id,src,dst,size_cells,arrival_slot``.

    The ``flow_id`` column is the row index of the flow table."""
    table = FlowTable.of(flows)
    columns = zip(
        table.src.tolist(),
        table.dst.tolist(),
        table.size_cells.tolist(),
        table.arrival_slot.tolist(),
    )
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(FLOW_HEADER)
        for row, values in enumerate(columns):
            writer.writerow([row, *values])


def load_flows_csv(path: PathLike) -> FlowTable:
    """Read a flow trace written by :func:`save_flows_csv`.

    The ``flow_id`` column must count 0, 1, 2, ... in file order: row
    *i* of the returned table is flow *i*.
    """
    rows: List[List[int]] = []
    try:
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header != FLOW_HEADER:
                raise TrafficError(
                    f"unexpected flow-trace header {header!r} in {path}"
                )
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(FLOW_HEADER):
                    raise TrafficError(
                        f"{path}:{line_no}: expected {len(FLOW_HEADER)} fields, "
                        f"got {len(row)}"
                    )
                try:
                    values = [int(v) for v in row]
                except ValueError as exc:
                    raise TrafficError(f"{path}:{line_no}: {exc}") from exc
                if values[0] != len(rows):
                    raise TrafficError(
                        f"{path}:{line_no}: flow id {values[0]} is not the "
                        f"row index {len(rows)}"
                    )
                rows.append(values[1:])
    except OSError as exc:
        raise TrafficError(f"cannot read flow trace from {path}: {exc}") from exc
    columns = np.array(rows, dtype=np.int64).reshape(len(rows), 4)
    return FlowTable(*columns.T)
