"""Writer facade used by the ``write()`` instruction.

Writes the payload in the requested format and always emits the ``.mtd``
metadata file next to it, so later reads (and compile-time size
propagation) know dimensions without scanning.

Every write is crash-consistent: data lands in a temp file in the target
directory and is published with an atomic rename
(:func:`repro.io.atomic.atomic_open`), so a process killed mid-write
never leaves a partial file visible at the destination path.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import IOFormatError
from repro.io import binary as binary_io
from repro.io import csv as csv_io
from repro.io.atomic import atomic_open
from repro.io.mtd import write_mtd
from repro.io.readers import _param_bool, _param_str
from repro.tensor import BasicTensorBlock, Frame


def write_matrix(block: BasicTensorBlock, path: str, params: Dict) -> None:
    format_name = _param_str(params, "format", "csv")
    if format_name == "csv":
        csv_io.write_csv_matrix(block, path, sep=_param_str(params, "sep", ","))
    elif format_name == "binary":
        binary_io.write_binary_matrix(block, path)
    elif format_name == "text":
        _write_text_cells(block, path)
    else:
        raise IOFormatError(f"unknown format {format_name!r}")
    write_mtd(
        path, block.num_rows, block.num_cols, block.nnz,
        data_type="matrix", format_name=format_name,
    )


def _write_text_cells(block: BasicTensorBlock, path: str) -> None:
    csr = block.to_scipy().tocoo()
    with atomic_open(path, "w", encoding="utf-8") as handle:
        for i, j, v in zip(csr.row, csr.col, csr.data):
            handle.write(f"{i + 1} {j + 1} {v:.17g}\n")


def write_frame(frame: Frame, path: str, params: Dict) -> None:
    format_name = _param_str(params, "format", "csv")
    if format_name != "csv":
        raise IOFormatError(f"frames support csv only, not {format_name!r}")
    header = _param_bool(params, "header", True)
    csv_io.write_csv_frame(frame, path, sep=_param_str(params, "sep", ","), header=header)
    write_mtd(
        path, frame.num_rows, frame.num_cols, -1,
        data_type="frame", format_name="csv", header=header,
        schema=[vt.value for vt in frame.schema],
    )


def write_scalar(value, path: str, params: Dict) -> None:
    with atomic_open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{value}\n")
    write_mtd(path, 1, 1, 1, data_type="scalar", format_name="text")
