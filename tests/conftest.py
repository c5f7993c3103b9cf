import errno
import itertools
import os
import sys
import tracemalloc

from instruct_forge import archive

sys.path.insert(0, os.path.dirname(__file__))


def traced(op):
    """``op()``, then the bytes it still holds and its peak, by tracemalloc; memory made before the call
    does not count."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = op()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, held - before, peak - before


def held_beyond_output(op):
    """``op()`` and the bytes it holds between forward and backward beyond its output's data."""
    out, held, _ = traced(op)
    return out, held - out.data.nbytes


def fail_call(monkeypatch, at: int) -> list:
    """Make the ``at``-th call of ``archive``'s ``open`` or a write to a file it opened, or of ``os.fsync``,
    ``os.link``, ``os.replace``, ``os.unlink`` or ``os.open``, raise EIO. Returns the calls' names, in order."""
    calls = []

    def counted(name, real):
        def call(*args, **kwargs):
            calls.append(name)
            if len(calls) == at:
                raise OSError(errno.EIO, "injected")
            return real(*args, **kwargs)
        return call

    class File:
        def __init__(self, fh):
            self.fh, self.write = fh, counted("write", fh.write)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def __getattr__(self, name):
            return getattr(self.fh, name)

    for name in ("fsync", "link", "replace", "unlink", "open"):
        monkeypatch.setattr(os, name, counted(f"os.{name}", getattr(os, name)))
    opened = counted("open", open)
    monkeypatch.setattr(archive, "open", lambda *args: File(opened(*args)), raising=False)
    return calls


def tree(root) -> dict:
    """Each path under ``root``: a file's bytes, ``"-> target"`` for a symlink, None for a directory."""
    return {p.relative_to(root).as_posix(): f"-> {os.readlink(p)}" if p.is_symlink()
            else p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


def plant(root, entries: dict) -> None:
    """Make ``root`` and its tree holding ``entries``, in the form ``tree`` returns."""
    root.mkdir(parents=True)
    for name, entry in entries.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(entry, str):
            path.symlink_to(entry.removeprefix("-> "))
        else:
            path.write_bytes(entry)


def open_fds() -> list | None:
    """The file descriptors this process holds, or None where the system does not list them."""
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def assert_all_or_nothing(tmp_path, monkeypatch, earlier: dict, targets, run) -> None:
    """``run(root)`` over a fresh ``root`` holding ``earlier``, with the i-th call ``fail_call`` counts failing,
    for i = 1, 2, ... until a run makes fewer than i calls. ``run`` returns None when it succeeds, else its stderr.

    Each run either succeeds and leaves the tree that a run with no failure leaves, or fails with one
    ``error:`` line that names one of ``targets`` and leaves the tree as it was. No temporary file or second
    name is left, but for one second name when its removal, after the write committed, is what failed, and
    no run leaves a file descriptor open."""
    plant(tmp_path / "clean", earlier)
    assert run(tmp_path / "clean") is None
    done, wrong = tree(tmp_path / "clean"), []
    for at in itertools.count(1):
        root = tmp_path / str(at)
        plant(root, earlier)
        before = tree(root)
        fds = open_fds()
        with monkeypatch.context() as patch:
            calls = fail_call(patch, at)
            error = run(root)
        after, failed = tree(root), calls[at - 1] if at <= len(calls) else None
        if error is not None:
            kept = failed and after == before and error in {
                f"error: [Errno {errno.EIO}] injected: '{root / name}'\n" for name in targets}
        else:
            left = [name for name in after if name not in done]
            kept = {name: after.get(name) for name in done} == done and failed in (None, "os.unlink") and (
                not left or failed and len(left) == 1 and left[0].endswith(".tmp.old"))
        if not kept or open_fds() != fds:
            wrong.append((at, failed, error, sorted(after)))
        if failed is None:
            assert wrong == []
            return
