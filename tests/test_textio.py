import errno
import os
import stat
import subprocess
import sys
import threading

import numpy as np
import pytest

from condlm.textio import WRITE_SLICE, remove_stale_temps, write_atomic


def leftovers(directory):
    return [n for n in os.listdir(directory) if n.endswith(".tmp")]


def test_write_atomic_joins_str_and_bytes_like_parts(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old contents")
    block = np.arange(WRITE_SLICE // 4 + 3, dtype="<f4")  # more than one slice
    write_atomic(path, ["héader\n", b"\0\1", block])
    assert path.read_bytes() == "héader\n".encode() + b"\0\1" + block.tobytes()
    assert leftovers(tmp_path) == []


@pytest.mark.parametrize("fault", [OSError("disk full"), KeyboardInterrupt()])
def test_failing_parts_leave_the_old_file_and_no_temp(tmp_path, fault):
    path = tmp_path / "ckpt-0000004.bin"
    path.write_bytes(b"the last good checkpoint")

    def parts():
        yield b"the first part of a new one"
        raise fault

    with pytest.raises(type(fault)):
        write_atomic(path, parts())
    assert path.read_bytes() == b"the last good checkpoint"
    assert leftovers(tmp_path) == []


def test_a_fifo_is_written_directly_and_stays_a_fifo(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    write_atomic(fifo, ["row one\n", b"row two\n"])
    reader.join(timeout=10)
    assert got == [b"row one\nrow two\n"]
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert sorted(os.listdir(tmp_path)) == ["pipe"]


def test_a_symlink_stays_a_link_and_its_target_is_replaced(tmp_path):
    (tmp_path / "real").mkdir()
    target = tmp_path / "real" / "report.json"
    target.write_text("old\n")
    link = tmp_path / "report.json"
    link.symlink_to(target)
    write_atomic(link, ["new\n"])
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text() == "new\n"
    assert leftovers(tmp_path) == [] and leftovers(tmp_path / "real") == []


def test_a_replaced_file_keeps_its_mode(tmp_path):
    path = tmp_path / "tokenizer.tsv"
    path.write_text("old\n")
    os.chmod(path, 0o600)
    write_atomic(path, ["new\n"])
    assert path.read_text() == "new\n"
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o600
    made = tmp_path / "made.tsv"
    made.write_text("x")  # a plain open() under the process umask
    fresh = tmp_path / "fresh.tsv"
    write_atomic(fresh, ["new\n"])
    assert stat.S_IMODE(os.stat(fresh).st_mode) == stat.S_IMODE(os.stat(made).st_mode)


def test_a_missing_directory_fails_naming_the_target(tmp_path):
    path = tmp_path / "missing" / "df.tsv"
    with pytest.raises(FileNotFoundError) as info:
        write_atomic(path, ["row\n"])
    assert info.value.filename == str(path) and info.value.filename2 is None
    assert str(path) in str(info.value) and ".tmp" not in str(info.value)


def test_a_failed_write_names_the_target(tmp_path):
    path = tmp_path / "ckpt-0000004.bin"

    def parts():
        yield b"a first block"
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))  # as a full disk fails a write

    with pytest.raises(OSError) as info:
        write_atomic(path, parts())
    assert info.value.errno == errno.ENOSPC and info.value.filename == str(path)
    assert not path.exists() and leftovers(tmp_path) == []


def test_the_directory_is_fsynced_after_the_rename(tmp_path, monkeypatch):
    path = tmp_path / "df.tsv"
    path.write_text("old\n")
    synced = []  # (is a directory, inode, the target's contents) per fsync
    real_fsync = os.fsync

    def fsync(fd):
        st = os.fstat(fd)
        synced.append((stat.S_ISDIR(st.st_mode), st.st_ino, path.read_text()))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    write_atomic(path, ["new\n"])
    assert [(d, text) for d, _, text in synced] == [(False, "old\n"), (True, "new\n")]
    assert synced[1][1] == os.stat(tmp_path).st_ino


def test_a_failed_directory_fsync_names_the_target(tmp_path, monkeypatch):
    path = tmp_path / "tokenizer.tsv"
    real_fsync = os.fsync

    def fsync(fd):
        if stat.S_ISDIR(os.fstat(fd).st_mode):
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    with pytest.raises(OSError) as info:
        write_atomic(path, ["row\n"])
    assert info.value.errno == errno.EIO and info.value.filename == str(path)
    assert path.read_text() == "row\n" and leftovers(tmp_path) == []  # the rename was done


def test_remove_stale_temps_takes_only_matching_temps_of_exited_processes(tmp_path):
    child = subprocess.Popen([sys.executable, "-c", ""])
    child.wait()
    names = [f".ckpt-1.bin.{child.pid}.tmp",         # removed
             f".ckpt-2.bin.{os.getpid()}.tmp",       # its writer still runs
             f".final.bin.{child.pid}.tmp",          # another name
             f"ckpt-3.bin.{child.pid}.tmp",          # not hidden: not a temp file
             f".ckpt-4.bin.{10 ** 30}.tmp"]          # no process id
    for name in names:
        (tmp_path / name).write_bytes(b"")
    assert remove_stale_temps(tmp_path, "ckpt-*") == [os.path.join(tmp_path, names[0])]
    assert sorted(os.listdir(tmp_path)) == sorted(names[1:])
    assert remove_stale_temps(tmp_path / "missing", "ckpt-*") == []


def exited_pid() -> int:
    """The id of a process that has run and been reaped."""
    child = subprocess.Popen([sys.executable, "-c", ""])
    child.wait()
    return child.pid


@pytest.mark.parametrize("name", ["final.bin", "df.tsv"])
def test_write_atomic_removes_its_targets_temps_of_exited_processes(tmp_path, name):
    # a kill between the open and the rename leaves the temp file behind
    writer = subprocess.Popen([sys.executable, "-c", "import sys; sys.stdin.read()"],
                              stdin=subprocess.PIPE)
    try:
        stale = tmp_path / f".{name}.{exited_pid()}.tmp"
        live = tmp_path / f".{name}.{writer.pid}.tmp"        # its writer still runs
        mine = tmp_path / f".other.tsv.{os.getpid()}.tmp"    # the test process's, another target
        other = tmp_path / f".ckpt-1.bin.{exited_pid()}.tmp"  # another target's
        for path in (stale, live, mine, other):
            path.write_bytes(b"part of an artifact")
        write_atomic(tmp_path / name, ["row\n"])
    finally:
        writer.communicate(b"")
    assert sorted(os.listdir(tmp_path)) == sorted([name, live.name, mine.name, other.name])
    assert (tmp_path / name).read_text() == "row\n"


def test_write_atomic_takes_a_glob_character_in_its_target_literally(tmp_path):
    stale = tmp_path / f".ckpt-1.bin.{exited_pid()}.tmp"
    stale.write_bytes(b"part of a checkpoint")
    write_atomic(tmp_path / "ckpt-[1].bin", ["row\n"])
    assert sorted(os.listdir(tmp_path)) == sorted(["ckpt-[1].bin", stale.name])
