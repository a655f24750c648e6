"""File helpers: one atomic writer (temp file + rename) and streamed, checked CSV I/O."""

from __future__ import annotations

import csv
import io
import os
import tempfile
from contextlib import contextmanager

from .errors import DataError


@contextmanager
def atomic_writer(path: str):
    """Yield a binary file that replaces path when the block exits cleanly.

    The data goes to a temp file beside path; on any exception the temp
    file is deleted and whatever was at path is left untouched.
    """
    path = os.fspath(path)
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    with atomic_writer(path) as fh:
        fh.write(text.encode("utf-8"))


def write_csv(path: str, rows) -> None:
    """Write rows, the header first, as UTF-8 CSV with "\\n" line ends, one row at a time
    as the iterable yields them."""
    with atomic_writer(path) as fh, io.TextIOWrapper(fh, encoding="utf-8", newline="") as text:
        csv.writer(text, lineterminator="\n").writerows(rows)


def csv_rows(path: str):
    """Yield the rows of a UTF-8 CSV file one at a time; an unreadable file is a DataError,
    also when the fault is partway through it."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield from csv.reader(fh)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def parse_floats(row: list[str], path: str, line: int) -> list[float]:
    try:
        return [float(v) for v in row]
    except ValueError as exc:
        raise DataError(f"{path}: line {line}: {exc}") from exc
