"""The benchmark's tracer (``perfbench/tracer.py``) looks up program names at
start-up: autodiff ops, public functions and methods. A name it reads that is
renamed or deleted must fail here, with that name, and not only in a
benchmark run."""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer")


def test_tracer_installs_and_removes_every_wrapper(tracer):
    instrumentation = tracer.Instrumentation(tracer.Recorder())
    sites = instrumentation._wrappers   # (owner, attribute, original, wrapper)
    assert {attr for _, attr, _, _ in sites} >= set(tracer.OPS) | {"mul", "tsum", "forward", "encode"}
    instrumentation.install()
    try:
        assert all(getattr(owner, attr) is wrapper for owner, attr, _, wrapper in sites)
    finally:
        instrumentation.remove()
    assert all(getattr(owner, attr) is original for owner, attr, original, _ in sites)


@pytest.mark.parametrize("name", ["tune", "score", "decode"])
def test_one_round_of_each_workload_passes_its_checks(name, tmp_path, monkeypatch):
    """Setup, one round and the checks of a workload, as the benchmark runs them:
    a program name that ``perfbench/workloads.py`` calls fails here too."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workload = importlib.import_module("workloads").WORKLOADS[name](1, tmp_path)
    workload.setup()
    workload.run_round()
    checks = workload.checks()
    assert workload.ops and [o for o in workload.ops if not o["ok"]] == []
    assert checks and [c for c in checks if not c[1]] == []


def test_a_traced_tune_round_records_each_backward_op(tracer, tmp_path):
    """The tracer times backward through each op output's ``_backward_fn``: a hook that backward no
    longer calls would leave that op's ``bwd_s`` at 0 and pass every check of a benchmark run."""
    workload = importlib.import_module("workloads").WORKLOADS["tune"](1, tmp_path)
    workload.setup()
    recorder = tracer.Recorder()
    instrumentation = tracer.Instrumentation(recorder)
    instrumentation.install()
    try:
        workload.run_round()
    finally:
        instrumentation.remove()
    ops = ("gelu", "layer_norm", "rotary", "softmax_cross_entropy")
    assert {f"autodiff.{op}.bwd" for op in ops} - set(recorder.arrays()["label"]) == set()
