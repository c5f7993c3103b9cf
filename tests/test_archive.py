import errno
import itertools
import json
import os
import stat
import struct
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from instruct_forge import archive, training
from instruct_forge.archive import MAGIC, ArchiveError, load_archive, save_archive
from instruct_forge.cli import main
from instruct_forge.lora import LoraConfig, adapter_parameters, inject, load_adapters, save_adapters
from instruct_forge.model import DecoderModel, ModelConfig, load_checkpoint

TINY = ModelConfig(d_model=16, n_heads=2, n_layers=1, max_seq_len=16)


def arrays():
    return {"w": np.arange(6, dtype=np.float32).reshape(2, 3), "b": np.array([0.5, -1.0])}


def with_manifest(manifest, payload=b""):
    raw = json.dumps(manifest).encode("utf-8")
    return MAGIC + struct.pack("<Q", len(raw)) + raw + payload


def valid_blob(tmp_path):
    path = tmp_path / "valid.ifta"
    save_archive(path, arrays(), meta={"kind": "test"})
    return path.read_bytes()


def good_entry(**changes):
    return {"name": "w", "shape": [2], "elem_size": 4, "dtype": "<f4", "offset": 0, **changes}


class TestRoundTrip:
    def test_arrays_and_meta_survive(self, tmp_path):
        path = tmp_path / "a.ifta"
        save_archive(path, arrays(), meta={"kind": "test"})
        loaded, meta = load_archive(path)
        assert meta == {"kind": "test"}
        for name, arr in arrays().items():
            np.testing.assert_array_equal(loaded[name], arr)
            assert loaded[name].dtype == arr.dtype


class TestMalformedManifest:
    @pytest.mark.parametrize("manifest", [
        [1, 2, 3],
        {"meta": {}, "payload_size": 8},
        {"meta": {}, "entries": [], "payload_size": -8},
        {"meta": [], "entries": [], "payload_size": 0},
        {"meta": {}, "entries": [good_entry(offset=-40)], "payload_size": 8},
        {"meta": {}, "entries": [good_entry(elem_size=8)], "payload_size": 8},
        {"meta": {}, "entries": [good_entry(dtype="<i4")], "payload_size": 8},
        {"meta": {}, "entries": [good_entry(shape=[-2])], "payload_size": 8},
        {"meta": {}, "entries": [good_entry(shape=[2.0])], "payload_size": 8},
        {"meta": {}, "entries": [good_entry(name=3)], "payload_size": 8},
        {"meta": {}, "entries": ["w"], "payload_size": 8},
        {"meta": {}, "entries": [{k: v for k, v in good_entry().items() if k != "offset"}],
         "payload_size": 8},
        {"meta": {}, "entries": [good_entry(shape=[0, 2 ** 70])], "payload_size": 8},
    ], ids=["list", "no-entries", "negative-payload", "meta-list", "negative-offset", "elem-size",
            "dtype", "negative-dim", "float-dim", "name-type", "entry-type", "no-offset", "huge-dim"])
    def test_rejected_with_archive_error(self, tmp_path, manifest):
        path = tmp_path / "bad.ifta"
        path.write_bytes(with_manifest(manifest, payload=b"\0" * 8))
        with pytest.raises(ArchiveError, match="manifest|entry"):
            load_archive(path)

    def test_well_formed_manifest_loads(self, tmp_path):
        path = tmp_path / "ok.ifta"
        path.write_bytes(with_manifest({"meta": {}, "entries": [good_entry()], "payload_size": 8},
                                       payload=b"\0" * 8))
        loaded, _ = load_archive(path)
        np.testing.assert_array_equal(loaded["w"], np.zeros(2, dtype=np.float32))


class TestBadStoredConfig:
    def test_model_config(self, tmp_path):
        path = tmp_path / "m.ifta"
        save_archive(path, {}, meta={"kind": "decoder-model", "config": {"bogus": 1}})
        with pytest.raises(ArchiveError, match="bad model config"):
            load_checkpoint(path)

    def test_adapter_config(self, tmp_path):
        model = DecoderModel(TINY)
        path = tmp_path / "a.ifta"
        save_archive(path, {}, meta={"kind": "lora-adapters", "config": ["r"],
                                     "base_layout": model.config.attention_layout})
        with pytest.raises(ArchiveError, match="bad adapter config"):
            load_adapters(model, path)

    # JSON numbers and lists of the wrong type: each is one ArchiveError, not a
    # TypeError from building the model or injecting the adapters
    @pytest.mark.parametrize("change", [{"d_model": 16.0}, {"n_heads": 2.0}, {"d_ff": 64.0}, {"seed": 0.5},
                                        {"n_layers": True}], ids=lambda c: next(iter(c)))
    def test_mistyped_model_config(self, tmp_path, change):
        path = tmp_path / "m.ifta"
        save_archive(path, {}, meta={"kind": "decoder-model", "config": {**asdict(TINY), **change}})
        with pytest.raises(ArchiveError, match="bad model config"):
            load_checkpoint(path)

    @staticmethod
    def mistyped_adapters(path, change):
        save_archive(path, {}, meta={"kind": "lora-adapters", "config": {**asdict(LoraConfig()), **change},
                                     "base_layout": TINY.attention_layout})

    @pytest.mark.parametrize("change", [{"r": 2.0}, {"target_names": [1]}], ids=lambda c: next(iter(c)))
    def test_mistyped_adapter_config(self, tmp_path, change):
        self.mistyped_adapters(tmp_path / "a.ifta", change)
        with pytest.raises(ArchiveError, match="bad adapter config"):
            load_adapters(DecoderModel(TINY), tmp_path / "a.ifta")

    def test_int_alpha_round_trips(self, tmp_path):
        save_adapters(inject(DecoderModel(TINY), LoraConfig(alpha=16)), tmp_path / "a.ifta")
        assert load_archive(tmp_path / "a.ifta")[1]["config"]["alpha"] == 16
        assert load_adapters(DecoderModel(TINY), tmp_path / "a.ifta").lora_config.alpha == 16

    def test_generate_with_mistyped_adapters_is_one_error_line(self, tmp_path, capsys):
        DecoderModel(TINY).save_checkpoint(tmp_path / "m.ifta")
        self.mistyped_adapters(tmp_path / "a.ifta", {"r": 2.0})
        argv = ["generate", "--model", str(tmp_path / "m.ifta"), "--adapters", str(tmp_path / "a.ifta"),
                "--prompt", "hi"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert captured.out == "" and len(lines) == 1 and lines[0].startswith("error: ")
        assert "bad adapter config" in lines[0]


class TestFill:
    def test_model_name_mismatch_is_sorted_under_any_hash_seed(self, tmp_path):
        # the config says 1 layer, the arrays hold 2
        path = tmp_path / "m.ifta"
        two = DecoderModel(ModelConfig(**{**asdict(TINY), "n_layers": 2}))
        save_archive(path, {t.name: t.data for t in two.params.values()},
                     meta={"kind": "decoder-model", "config": asdict(TINY)})
        src = str(Path(archive.__file__).parents[1])
        lines = []
        for seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            run = subprocess.run([sys.executable, "-m", "instruct_forge.cli", "generate", "--model", str(path),
                                  "--prompt", "hi"], env=env, capture_output=True, text=True, timeout=120)
            assert run.returncode == 1 and run.stdout == ""
            lines.append(run.stderr.strip().splitlines())
        assert lines[0] == lines[1] and len(lines[0]) == 1
        extra = sorted(name for name in two.params if name.startswith("layers.1."))
        assert lines[0][0] == f"error: {path}: parameter names do not match (missing [], extra {extra})"

    def test_bad_shape_in_last_adapter_changes_no_adapter(self, tmp_path):
        config = LoraConfig(r=2)
        saved = inject(DecoderModel(TINY), config)
        arrays = {t.name: np.full(t.shape, 0.5, dtype=np.float32) for t in adapter_parameters(saved)}
        last_a = adapter_parameters(saved)[-2].name
        assert last_a.endswith(".lora_A")
        arrays[last_a] = np.ones((3, 16), dtype=np.float32)
        path = tmp_path / "a.ifta"
        save_archive(path, arrays, meta={"kind": "lora-adapters", "config": asdict(config),
                                         "base_layout": TINY.attention_layout})
        target = DecoderModel(TINY)
        with pytest.raises(ArchiveError, match="shape mismatch"):
            load_adapters(target, path)
        fresh = adapter_parameters(inject(DecoderModel(TINY), config))
        assert [t.name for t in adapter_parameters(target)] == [t.name for t in fresh]
        for got, injected in zip(adapter_parameters(target), fresh):
            np.testing.assert_array_equal(got.data, injected.data)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_archive_loads_or_raises_archive_error(tmp_path, data):
    blob = bytearray(valid_blob(tmp_path))
    for _ in range(data.draw(st.integers(1, 4))):
        blob[data.draw(st.integers(0, len(blob) - 1))] = data.draw(st.integers(0, 255))
    if data.draw(st.booleans()):
        blob = blob[: data.draw(st.integers(0, len(blob)))]
    path = tmp_path / "mutated.ifta"
    path.write_bytes(bytes(blob))
    try:
        loaded, meta = load_archive(path)
    except ArchiveError:
        return
    assert isinstance(meta, dict)
    assert all(isinstance(a, np.ndarray) for a in loaded.values())


class TestCrashSafeSave:
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "ckpt.ifta"
        save_archive(path, arrays(), meta={"kind": "old"})
        before = path.read_bytes()

        class FailingFile:
            def __init__(self, fh):
                self.fh = fh
                self.writes = 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.writes += 1
                if self.writes > 2:
                    raise OSError("disk full")
                return self.fh.write(data)

        monkeypatch.setattr(archive, "open", lambda p, mode: FailingFile(open(p, mode)), raising=False)
        with pytest.raises(OSError, match="disk full"):
            save_archive(path, {"w": np.ones(4)}, meta={"kind": "new"})
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.ifta"]

    @pytest.mark.skipif(not hasattr(os, "O_DIRECTORY"), reason="no directory descriptors")
    def test_fsyncs_the_file_then_its_directory(self, tmp_path, monkeypatch):
        # the rename is durable only once the directory that holds the new name is synced
        synced, fsync = [], os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: synced.append(os.fstat(fd)) or fsync(fd))
        save_archive(tmp_path / "ckpt.ifta", arrays())
        assert [stat.S_ISDIR(st.st_mode) for st in synced] == [False, True]
        assert synced[1].st_ino == tmp_path.stat().st_ino

    def test_failed_rename_names_the_target(self, tmp_path):
        # the error names the caller's path, not the temporary file's
        target = tmp_path / "taken"
        target.mkdir()
        (target / "x").write_text("", encoding="utf-8")
        with pytest.raises(OSError) as err:
            save_archive(target, arrays())
        assert err.value.filename == str(target) and ".tmp" not in str(err.value)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]

    def test_several_files_are_renamed_only_once_every_one_is_written(self, tmp_path):
        # a failure at the second file leaves the first file's earlier bytes, and no temporary file
        first, second = tmp_path / "first", tmp_path / "second"
        first.write_bytes(b"old")

        def full_disk():
            yield b"part"
            raise OSError(28, "No space left on device")

        with pytest.raises(OSError) as err:
            archive.write_atomic({first: [b"new"], second: full_disk()})
        assert err.value.filename == str(second)
        assert first.read_bytes() == b"old" and sorted(p.name for p in tmp_path.iterdir()) == ["first"]

    def test_a_failed_rename_puts_back_the_files_renamed_before_it(self, tmp_path):
        # a directory at the third path fails its rename; the first two used to stay renamed
        old, new, taken = tmp_path / "old", tmp_path / "new", tmp_path / "taken"
        old.write_bytes(b"old")
        taken.mkdir()
        (taken / "x").write_bytes(b"")
        with pytest.raises(OSError) as err:
            archive.write_atomic({old: [b"1"], new: [b"2"], taken: [b"3"]})
        assert err.value.filename == str(taken)
        assert old.read_bytes() == b"old" and sorted(p.name for p in tmp_path.iterdir()) == ["old", "taken"]
        archive.write_atomic({old: [b"1"], new: [b"2"]})   # and a write that succeeds leaves no second name
        assert [p.read_bytes() for p in sorted(tmp_path.iterdir()) if p.is_file()] == [b"2", b"1"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["new", "old", "taken"]

    @pytest.mark.skipif(not hasattr(os, "O_DIRECTORY"), reason="no directory descriptors")
    def test_fsyncs_every_file_then_their_directory_once(self, tmp_path, monkeypatch):
        synced, fsync = [], os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: synced.append(os.fstat(fd)) or fsync(fd))
        archive.write_atomic({tmp_path / "a": [b"1"], tmp_path / "b": [b"2"]})
        assert [stat.S_ISDIR(st.st_mode) for st in synced] == [False, False, True]
        assert [p.read_bytes() for p in sorted(tmp_path.iterdir())] == [b"1", b"2"]

    def test_replaces_existing_file(self, tmp_path):
        path = tmp_path / "ckpt.ifta"
        save_archive(path, arrays(), meta={"kind": "old"})
        save_archive(path, {"w": np.ones(4)}, meta={"kind": "new"})
        loaded, meta = load_archive(path)
        assert meta == {"kind": "new"} and list(loaded) == ["w"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.ifta"]


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


def assert_all_or_nothing(tmp_path, monkeypatch, earlier: dict, targets, run) -> None:
    """``run(root)`` over a fresh ``root`` holding ``earlier``, with the i-th call ``fail_call`` counts failing,
    for i = 1, 2, ... until a run makes fewer than i calls. ``run`` returns None when it succeeds, else its stderr.

    Each run either succeeds and leaves the tree that a run with no failure leaves, or fails with one
    ``error:`` line that names one of ``targets`` and leaves the tree as it was. No temporary file or second
    name is left, but for one second name when its removal, after the write committed, is what failed."""
    plant(tmp_path / "clean", earlier)
    assert run(tmp_path / "clean") is None
    done, wrong = tree(tmp_path / "clean"), []
    for at in itertools.count(1):
        root = tmp_path / str(at)
        plant(root, earlier)
        before = tree(root)
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
        if not kept:
            wrong.append((at, failed, error, sorted(after)))
        if failed is None:
            assert wrong == []
            return


class TestEveryFailingCall:
    """Any failure of a file system call while outputs are written, the directory fsync included, leaves every
    earlier output whole and no temporary file; a write that commits is reported as a success."""

    @pytest.mark.parametrize("earlier,names", [
        ({}, ["a", "b"]),
        ({"a": b"old a", "b": b"old b"}, ["a", "b"]),
        ({"a": b"old a", "b": b"old b", "c": b"old c"}, ["a", "b", "c"]),
        ({"a": b"old a", "sub/c": b"old c"}, ["a", "b", "sub/c"]),   # one new, and two directories to fsync
        ({"real": b"old", "link": "-> real"}, ["link", "b"]),   # a symlink is replaced, not written through
    ], ids=["two new", "two over earlier", "three over earlier", "three in two directories", "symlink"])
    def test_write_atomic(self, tmp_path, monkeypatch, earlier, names):
        def run(root):
            try:
                archive.write_atomic({root / name: [b"new ", name.encode()] for name in names})
            except OSError as exc:
                return f"error: {exc}\n"   # the line ``cli.main`` prints for it

        assert_all_or_nothing(tmp_path, monkeypatch, earlier, names, run)

    def test_train_over_an_earlier_run(self, tmp_path, monkeypatch, capsys):
        # a zero clock makes the report's `seconds`, and so every run's bytes, the same
        monkeypatch.setattr(training, "time", SimpleNamespace(monotonic=lambda: 0.0))
        data = tmp_path / "data.jsonl"
        data.write_text("".join(json.dumps({"instruction": f"say w{i}", "output": f"w{i}"}) + "\n" for i in range(2)),
                        encoding="utf-8")
        tiny = ["--data", str(data), "--d-model", "8", "--n-heads", "2", "--n-layers", "1", "--max-seq-len", "32",
                "--seq-len", "32", "--batch", "2", "--epochs", "1"]
        assert main(["train", "--out", str(tmp_path / "earlier"), *tiny, "--seed", "1"]) == 0
        capsys.readouterr()

        def run(root):
            code = main(["train", "--out", str(root), *tiny])
            out, err = capsys.readouterr()
            assert (code, bool(out)) == ((1, False) if err else (0, True)), (code, out, err)
            return err or None

        earlier = tree(tmp_path / "earlier")
        assert_all_or_nothing(tmp_path / "runs", monkeypatch, earlier, earlier, run)
