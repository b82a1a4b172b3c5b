"""The text dialect every radkg artifact shares.

Writes are atomic: a temp file beside the target, moved onto it at the end.
Text files are UTF-8 lines; one leading byte-order mark is skipped, and a
line starting with ``#`` is a comment. Cells are split and quoted as the
``csv`` module does. Neither a comment nor a cell may hold a line break,
which the line reader would take as the line's end, so writers refuse one
before opening the target. Each format lives beside its data type.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import re
import secrets
import stat

from .errors import ParseError


@contextlib.contextmanager
def atomic_open(path, mode: str, **kwargs):
    """Open a new file beside ``path`` for writing and move it onto ``path``
    when the block ends; if the block raises, remove it and leave ``path``
    as it was. Every writer of radkg goes through this, so no reader ever
    sees a half-written artifact.

    The mode bits are those ``open(path, "w")`` gives: a new file gets 0o666
    less the umask, an existing file keeps its own. A symlink at ``path`` is
    written through, to the file it names.
    """
    target = os.path.realpath(path)
    directory, name = os.path.split(target)
    tmp = os.path.join(directory, f".{name}.{secrets.token_hex(8)}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with open(fd, mode, **kwargs) as fh:
            with contextlib.suppress(FileNotFoundError):
                os.chmod(fd, stat.S_IMODE(os.stat(target).st_mode))
            yield fh
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def comment_block(comments) -> str:
    """``comments`` as ``# `` lines, each ending in a newline. A comment with
    a line break raises ValueError, as its tail would read as data."""
    for line in comments:
        if "\n" in line or "\r" in line:
            raise ValueError(f"comment {line!r} holds a line break")
    return "".join(f"# {line}\n" for line in comments)


@contextlib.contextmanager
def open_commented(path, comments, **kwargs):
    """``atomic_open`` a UTF-8 text file that starts with ``comment_block``;
    a bad comment raises before ``path`` is opened."""
    head = comment_block(comments)
    with atomic_open(path, "w", encoding="utf-8", **kwargs) as fh:
        fh.write(head)
        yield fh


def check_cells(cells, what: str) -> None:
    """Raise ValueError naming the first of ``cells`` that holds a line
    break, which no reader reads back even quoted. One scan per column."""
    joined = "".join(cells)
    if "\n" in joined or "\r" in joined:
        bad = next(cell for cell in cells if "\n" in cell or "\r" in cell)
        raise ValueError(f"{what} {bad!r} holds a line break")


def data_lines(path):
    """Yield (1-based line number, text without its line end) for every
    non-blank, non-comment line.

    One leading UTF-8 byte-order mark, as spreadsheet "CSV UTF-8" exports
    write, is skipped. A line ends at LF, CRLF or CR alike, which universal
    newlines read as one LF. Bytes that are not UTF-8 raise ParseError at the
    line that holds them.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            for lineno, raw in enumerate(fh, start=1):
                text = raw.lstrip()
                if text and not text.startswith("#"):
                    yield lineno, raw.rstrip("\n")
            return
        except UnicodeDecodeError:
            pass
    # The decoder reads ahead of the lines it hands out, so find the line of
    # the first bad byte from the raw bytes.
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start].decode("utf-8")
        lineno = head.replace("\r\n", "\n").replace("\r", "\n").count("\n") + 1
        raise ParseError(path, lineno, f"byte {data[exc.start]:#04x} is not UTF-8") from None


def blocks(lines, size):
    """Lists of up to ``size`` items of ``lines``. A ParseError from ``lines``
    is raised after the block of the lines before it, so an error in an
    earlier line is reported first, as a line-by-line reader reports it."""
    block = []
    try:
        for line in lines:
            block.append(line)
            if len(block) == size:
                yield block
                block = []
    except ParseError:
        if block:
            yield block
        raise
    if block:
        yield block


def split_csv_line(text: str) -> list[str]:
    """The cells of one CSV line, as ``csv.reader`` splits them."""
    if '"' not in text:
        return text.split(",")
    return next(csv.reader(io.StringIO(text)))


_QUOTED = re.compile('[,"\r\n]')


def csv_cell(text: str, first: bool = False) -> str:
    """``text`` as ``csv.writer`` writes a cell: in quotes, with its quotes
    doubled, when it holds a comma, a quote or a line break. A ``first`` cell
    is quoted too when its line would otherwise read as a comment."""
    if _QUOTED.search(text) or first and text.lstrip().startswith("#"):
        return '"' + text.replace('"', '""') + '"'
    return text


def read_id_header(path, rows, what: str) -> tuple[int, list[str]]:
    """The line number and cells of the header that starts ``rows``: ``id,...``."""
    try:
        header_line, header_text = next(rows)
    except StopIteration:
        raise ParseError(path, 1, f"empty {what} file") from None
    header = split_csv_line(header_text)
    if not header or header[0] != "id":
        raise ParseError(path, header_line, f"first header column must be 'id', got {header[:1]}")
    return header_line, header
