"""Line-by-line reading of the text artifacts, and atomic writing of every artifact.

Lines end at "\n" only, and a "\r" just before it is dropped with it.
``str.splitlines`` would also break at U+2028, U+2029, U+0085 and a few
control characters, which JSON strings may hold raw. A byte that is not
UTF-8 is reported at its line.
"""

from __future__ import annotations

import contextlib
import fnmatch
import os
import re
import stat

from .errors import DataError

# Bytes-like parts are written this many bytes at a time. On a 2-vCPU Linux
# VM, one write call per 26 MB block made the first saves of a run about
# three times slower than slices do (90 against 30 ms for a 78 MB checkpoint).
WRITE_SLICE = 1 << 20

# ``write_atomic``'s temp file for ``<name>``, written by process ``<pid>``.
_TEMP_NAME = re.compile(r"\.(.+)\.(\d+)\.tmp")


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


def _write_parts(f, parts) -> None:
    for part in parts:
        if isinstance(part, str):
            f.write(part.encode("utf-8"))
            continue
        data = memoryview(part).cast("B")
        for a in range(0, len(data), WRITE_SLICE):
            f.write(data[a:a + WRITE_SLICE])


def write_atomic(path, parts) -> None:
    """Write ``parts`` (``str`` as UTF-8, or bytes-like such as numpy arrays)
    to ``.<name>.<pid>.tmp`` beside ``path``, fsync it, rename it over
    ``path`` and fsync the directory, so that a crash cannot lose the rename;
    on a failure before the rename remove the temp file, leaving the old
    file. The hidden name keeps a leftover out of ``ckpt-*`` listings, and
    an ``OSError`` names ``path``, not the temp file. A replaced file keeps
    its mode. A symlink is followed; a FIFO or a device such as /dev/stdout
    cannot be replaced and is written to."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "wb") as f:
            _write_parts(f, parts)
        return
    target = os.path.realpath(path)
    tmp = os.path.join(os.path.dirname(target), f".{os.path.basename(target)}.{os.getpid()}.tmp")
    try:
        mode = stat.S_IMODE(os.stat(target).st_mode)
    except OSError:
        mode = None  # a new file gets the default mode
    try:
        with open(tmp, "wb") as f:
            if mode is not None:
                os.fchmod(f.fileno(), mode)
            _write_parts(f, parts)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, target)
        fd = os.open(os.path.dirname(target), os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    except BaseException as e:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(e, OSError) and (e.filename == tmp or (e.filename is None and e.errno)):
            raise type(e)(e.errno, e.strerror, os.fspath(path)) from None
        raise


def remove_stale_temps(directory, pattern: str) -> list[str]:
    """Remove the temp files that ``write_atomic`` left in ``directory``, for
    targets whose names match the glob ``pattern``, when the process that
    wrote one is no longer running, as after a kill between the open and the
    rename. A missing directory holds none. Returns the paths removed."""
    try:
        names = sorted(os.listdir(directory))
    except FileNotFoundError:
        return []
    removed = []
    for name in names:
        m = _TEMP_NAME.fullmatch(name)
        if m is None or not fnmatch.fnmatchcase(m[1], pattern):
            continue
        try:
            os.kill(int(m[2]), 0)
        except ProcessLookupError:
            path = os.path.join(directory, name)
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
                removed.append(path)
        except (PermissionError, OverflowError):
            pass  # another user's process, or no process id at all
    return removed
