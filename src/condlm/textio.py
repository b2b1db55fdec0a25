"""Line-by-line reading of the text artifacts (JSONL and TSV files).

Lines end at "\n" only, and a "\r" just before it is dropped with it.
``str.splitlines`` would also break at U+2028, U+2029, U+0085 and a few
control characters, which JSON strings may hold raw. A byte that is not
UTF-8 is reported at its line.
"""

from __future__ import annotations

from .errors import DataError


def read_lines(path, what: str) -> list[tuple[int, str]]:
    """(line number, text) for each line of the UTF-8 file ``path``. A file
    that cannot be read, or a byte that is not UTF-8, is a DataError naming
    the ``what`` and the file (and the line)."""
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as e:
        raise DataError(f"cannot read {what} {path}: {e}") from None
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        lineno = raw.count(b"\n", 0, e.start) + 1
        raise DataError(f"{path}:{lineno}: byte {raw[e.start]:#04x} of this {what} line "
                        f"is not UTF-8 ({e.reason})") from None
    lines = text.replace("\r\n", "\n").split("\n")
    if lines[-1] == "":  # the newline that ends the last line
        lines.pop()
    return list(enumerate(lines, start=1))
