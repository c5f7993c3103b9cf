"""Legs of the console-script chain, run as the installed ``instruct-forge`` script runs the CLI:
``sys.exit(main())`` in a child process, so exit codes, stdout and stderr are the real ones. One
module fixture trains the tiny split-qv and fused-qkv runs that the legs load."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from instruct_forge import cli

ENTRY = "import sys; from instruct_forge.cli import main; sys.exit(main())"
SMALL = ["--d-model", "16", "--n-layers", "1", "--max-seq-len", "128", "--seq-len", "64"]


def console(*argv) -> subprocess.CompletedProcess:
    """The CLI on ``argv`` in a child process; stdout and stderr as bytes."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join([str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", ENTRY, *map(str, argv)], env=env, capture_output=True, timeout=120)


@pytest.fixture(scope="module")
def chain(tmp_path_factory) -> Path:
    """A directory with ``run/`` (split-qv, q/v adapters) and ``fused/`` (fused-qkv, ``query_key_value`` and
    ``dense`` adapters): one epoch on four records in a 128-token window."""
    d = tmp_path_factory.mktemp("chain")
    data = d / "data.jsonl"
    data.write_text("".join(json.dumps({"instruction": f"say {c}", "output": c}) + "\n" for c in "abcd"))
    for name, layout in (("run", []), ("fused", ["--layout", "fused-qkv", "--targets", "query_key_value,dense"])):
        done = console("train", "--data", data, "--out", d / name, *SMALL, *layout)
        assert done.returncode == 0, done.stderr.decode()
    return d


def tuned(chain: Path, name: str) -> list:
    return ["--model", chain / name / "model.ifta", "--adapters", chain / name / "adapters-epoch0.ifta"]


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
