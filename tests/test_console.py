"""Legs of the console-script chain, run as the installed ``instruct-forge`` script runs the CLI:
``sys.exit(main())`` in a child process, so exit codes, stdout and stderr are the real ones. One
module fixture trains the tiny split-qv and fused-qkv runs that the legs load. CI runs the installed
script itself only for ``--help`` and one ``train``; every other console check is here."""

import errno
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import tree
from instruct_forge import cli

ENTRY = "import sys; from instruct_forge.cli import main; sys.exit(main())"
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SMALL = ["--d-model", "16", "--n-layers", "1", "--max-seq-len", "128", "--seq-len", "64"]
TASKS = [{"instruction": "pick", "fields": {"Input": c}, "choices": ["xx", "yy"], "gold": g}
         for c, g in (("x", 0), ("y", 1))]


def console(*argv, env=None, preexec_fn=None) -> subprocess.CompletedProcess:
    """The CLI on ``argv`` in a child process, with ``env`` over this process's environment and
    ``preexec_fn`` run in the child before the CLI starts; stdout and stderr as bytes."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join([str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]),
           **(env or {})}
    return subprocess.run([sys.executable, "-c", ENTRY, *map(str, argv)], env=env, capture_output=True, timeout=120,
                          preexec_fn=preexec_fn)


def write_jsonl(path: Path, rows) -> Path:
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    return path


def report_of(path: Path, *argv) -> bytes:
    """The ``--report`` file of a CLI run that exits 0."""
    done = console(*argv, "--report", path)
    assert done.returncode == 0, done.stderr.decode()
    return path.read_bytes()


@pytest.fixture(scope="module")
def chain(tmp_path_factory) -> Path:
    """A directory with ``data.jsonl``, ``tasks.jsonl``, ``items.jsonl``, ``run/`` (split-qv, q/v adapters) and
    ``fused/`` (fused-qkv, ``query_key_value`` and ``dense`` adapters): one epoch on four records in a
    128-token window."""
    d = tmp_path_factory.mktemp("chain")
    data = write_jsonl(d / "data.jsonl", [{"instruction": f"say {c}", "output": c} for c in "abcd"])
    write_jsonl(d / "tasks.jsonl", TASKS)
    write_jsonl(d / "items.jsonl", [{"question": "q", "response": "r"}])
    for name, layout in (("run", []), ("fused", ["--layout", "fused-qkv", "--targets", "query_key_value,dense"])):
        done = console("train", "--data", data, "--out", d / name, *SMALL, *layout)
        assert done.returncode == 0, done.stderr.decode()
    return d


def tuned(chain: Path, name: str) -> list:
    return ["--model", chain / name / "model.ifta", "--adapters", chain / name / "adapters-epoch0.ifta"]


def test_entry_runs_the_installed_scripts_function():
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts == {"instruct-forge": "instruct_forge.cli:main"}
    module, function = scripts["instruct-forge"].split(":")
    assert ENTRY == f"import sys; from {module} import {function}; sys.exit({function}())"


@pytest.mark.parametrize("name", ["run", "fused"])
def test_generate_exits_0(chain, name):
    done = console("generate", *tuned(chain, name), "--prompt", "hi", "--max-new-tokens", "4")
    assert done.returncode == 0, done.stderr.decode()


def test_temperature_too_small_is_one_error_line(chain):
    done = console("generate", "--model", chain / "run" / "model.ifta", "--prompt", "hi", "--temperature", "1e-310")
    assert done.returncode == 1 and done.stdout == b""
    assert done.stderr.count(b"\n") == 1 and done.stderr.startswith(b"error: temperature 1e-310 is too small")


def test_generate_across_the_window_repeats_byte_for_byte(chain):
    # 121 prompt tokens and 20 new ones: cached steps up to the 128-token window, then whole windows
    argv = ("generate", *tuned(chain, "run"), "--prompt", "x" * 120, "--max-new-tokens", "20",
            "--temperature", "0.8", "--repetition-penalty", "1.05")
    first, second = console(*argv), console(*argv)
    assert first.returncode == 0 and b"context overflowed" in first.stderr, first.stderr.decode()
    assert first.stdout == second.stdout


def test_fused_eval_and_ppl_count_the_overflowing_item(chain, tmp_path):
    # the fused-qkv layout of the paper's Japanese base model; a 300-byte question overflows the window
    evaluated = report_of(tmp_path / "eval.json", "eval", *tuned(chain, "fused"), "--tasks", chain / "tasks.jsonl",
                          "--shots", "0,1")
    assert set(json.loads(evaluated)["accuracy"]) == {"0", "1"}
    items = write_jsonl(tmp_path / "long.jsonl", [{"question": q, "response": "r"} for q in ("q", "x" * 300)])
    scored = report_of(tmp_path / "ppl.json", "ppl", *tuned(chain, "fused"), "--items", items)
    assert json.loads(scored)["model_overflows"] == 1


def test_mixed_eval_repeats_byte_for_byte(chain, tmp_path):
    # v0.2 queries of TASKS fit the window, so each runs its prompt once into a K/V cache and its choices on
    # branches of it; a row with a 300-byte Input overflows at both shot counts and is left-truncated per choice
    overflowing = {"instruction": "pick", "fields": {"Input": "z" * 300}, "choices": ["xx", "yy"], "gold": 0}
    tasks = write_jsonl(tmp_path / "mixed.jsonl", [*TASKS, overflowing])
    argv = ("eval", *tuned(chain, "fused"), "--tasks", tasks, "--prompt-version", "v0.2", "--shots", "0,1")
    first, second = (report_of(tmp_path / f"eval{n}.json", *argv) for n in (1, 2))
    assert first == second
    assert json.loads(first)["model_overflows"] == 2


def test_shared_prefix_ppl_repeats_byte_for_byte(chain, tmp_path):
    # the question template's shared prefix runs once into a K/V cache, a Japanese item among the items;
    # the item that overflows the window is left-truncated
    items = write_jsonl(tmp_path / "shared.jsonl", [{"question": q, "response": r} for q, r in (
        ("Why is the sky blue?", "Light scatters."), ("日本の首都は?", "東京です。"), ("x" * 300, "r"))])
    argv = ("ppl", *tuned(chain, "run"), "--items", items)
    first, second = (report_of(tmp_path / f"ppl{n}.json", *argv) for n in (1, 2))
    assert first == second
    assert json.loads(first)["model_overflows"] == 1


def test_train_at_one_and_two_blas_threads_is_bit_identical(tmp_path):
    # records past the 256-token window at the default width: each [8, 256, 256] gelu input runs in row
    # blocks; the same seed reproduces the run bit for bit, LoRA dropout included, and every record trains
    data = write_jsonl(tmp_path / "long-data.jsonl", [{"instruction": f"explain {i}: " + "why the sky is blue " * 16,
                                                       "output": "light scatters " * 4} for i in range(8)])
    for n in (1, 2):
        done = console("train", "--data", data, "--out", tmp_path / f"threads{n}", "--seq-len", "256", "--batch", "8",
                       "--mask-policy", "full-sequence", "--epochs", "2", "--dropout", "0.1",
                       env={"OPENBLAS_NUM_THREADS": str(n)})
        assert done.returncode == 0, done.stderr.decode()
    for name in ("model.ifta", "adapters-epoch0.ifta", "adapters-epoch1.ifta"):
        assert (tmp_path / "threads1" / name).read_bytes() == (tmp_path / "threads2" / name).read_bytes(), name
    epochs = [json.loads(line) for line in (tmp_path / "threads1" / "train-report.jsonl").read_text().splitlines()]
    assert len(epochs) == 2 and all(e["steps"] == 1 and e["dropped"] == 0 for e in epochs), epochs


def file_size_limit(limit: int):
    """A ``preexec_fn`` after which the child may not grow a file past ``limit`` bytes: a write past it
    fails with EFBIG, as on a full disk. Only the child is limited."""
    def limit_file_size():
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)

    return limit_file_size


@pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="needs RLIMIT_FSIZE and SIGXFSZ")
class TestFailedWriteKeepsTheOldFile:
    """An output write that fails part way: one `error:` line naming the output, the old file whole, no temp file."""

    def assert_kept(self, run, path, before):
        assert run.returncode == 1 and run.stdout == b"", run.stderr.decode()
        assert run.stderr.decode() == f"error: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}: '{path}'\n"
        assert path.read_bytes() == before
        assert list(path.parent.glob("*.tmp")) == []

    @pytest.mark.parametrize("command", ["eval", "ppl"])
    def test_report(self, chain, tmp_path, command):
        # the report used to be truncated and left as a 64-byte fragment
        inputs = {"eval": ["--tasks", chain / "tasks.jsonl", "--shots", "0,1"],
                  "ppl": ["--items", chain / "items.jsonl"]}[command]
        report = tmp_path / "r.json"
        report.write_text('{"an": "earlier report"}', encoding="utf-8")
        run = console(command, "--model", chain / "run" / "model.ifta", *inputs, "--report", report,
                      preexec_fn=file_size_limit(64))
        self.assert_kept(run, report, b'{"an": "earlier report"}')

    def test_build_dataset_output(self, chain, tmp_path):
        output = tmp_path / "out.jsonl"
        output.write_text('{"instruction": "old", "output": "old"}\n', encoding="utf-8")
        before = output.read_bytes()
        run = console("build-dataset", "--input", chain / "data.jsonl", "--output", output,
                      preexec_fn=file_size_limit(64))
        self.assert_kept(run, output, before)

    def test_train_report_over_an_earlier_run(self, chain, tmp_path):
        # the checkpoints fit under the limit and the report's new lines do not:
        # they used to be appended in part, and the file no longer parsed
        out = shutil.copytree(chain / "run", tmp_path / "run")
        log = out / "train-report.jsonl"
        lines = log.read_bytes()
        log.write_bytes(lines * (2 * (out / "model.ifta").stat().st_size // len(lines) + 1))   # many earlier runs
        before = tree(out)
        run = console("train", "--data", chain / "data.jsonl", "--out", out, *SMALL, "--seed", "1",
                      preexec_fn=file_size_limit(len(before[log.name]) + 16))
        self.assert_kept(run, log, before[log.name])
        # the checkpoints fit, and used to be replaced beside the earlier runs' report
        assert tree(out) == before
