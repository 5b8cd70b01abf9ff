"""The benchmark's workloads, run once each at K=2^6 so a refactor cannot silently break them.

Imports ``perfbench/workloads.py`` and runs every workload's op and its
check, the same pair the timed benchmark loop runs, untraced and under
``perfbench/tracing.py``; the whole module takes about a second.
"""
import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    yield _load("workloads")
    sys.modules.pop("perfbench_workloads", None)


@pytest.fixture(scope="module")
def tracing():
    yield _load("tracing")
    sys.modules.pop("perfbench_tracing", None)


@pytest.mark.parametrize("name", ["preprocess", "prepare_image", "sweep"])
def test_workload_op_passes_its_check(workloads, name):
    assert name in workloads.NAMES
    wl = workloads.build(name, seed=401, k=6)
    use = wl.check(wl.op())
    assert 0.0 <= use <= 1.0


@pytest.mark.parametrize("name", ["preprocess", "prepare_image", "sweep"])
def test_traced_workload_reports_every_layer_metric(workloads, tracing, name):
    # the tracer reports a metric as absent once the library function behind it is gone
    wl = workloads.build(name, seed=401, k=6)
    tracer = tracing.Tracer(workloads.qp)
    with tracer.installed():
        phase = workloads.measure(wl, 0.0, tracer)
    assert phase.failed == 0, phase.errors
    assert tracer.metrics()[1] == []


class ReferenceFormReached(Exception):
    """A workload op reached a reference form that the benchmark does not time."""


def _refuse(name):
    def refuse(*args, **kwargs):
        raise ReferenceFormReached(name)

    return refuse


class _RefusingJson:
    """Stands in for the ``json`` module inside ``qramprep.memory``: every name refuses."""

    def __getattr__(self, name):
        return _refuse(f"memory.json.{name}")


@pytest.fixture
def reference_forms_refused(workloads, monkeypatch):
    # the reference forms: the stdlib reading's pair-by-pair entry check (so
    # preprocess must read its matrix flat), the json module's writer of cells
    # wider than 64 bits, and image equality. The global json module stays:
    # the prepare_image op calls it itself
    qp = workloads.qp
    monkeypatch.setattr(qp.matrix, "_entry_array", _refuse("matrix._entry_array"))
    monkeypatch.setattr(qp.memory, "json", _RefusingJson())
    monkeypatch.setattr(qp.MemoryImage, "__eq__", _refuse("MemoryImage.__eq__"))
    return qp


@pytest.mark.parametrize("name", ["preprocess", "prepare_image", "sweep"])
def test_workloads_run_no_reference_form(workloads, reference_forms_refused, name):
    # each reference form is slower than the fast form beside it; no workload
    # times one, so a workload routed onto one would only get slower unnoticed
    wl = workloads.build(name, seed=401, k=6)
    assert 0.0 <= wl.check(wl.op()) <= 1.0


def test_each_refused_reference_form_is_reached_on_its_own_path(reference_forms_refused):
    qp = reference_forms_refused
    irregular = '{"rows": 1, "cols": 2, "entries": [[1, 0], [0, 1]], "note": "[]"}'
    with pytest.raises(ReferenceFormReached, match=r"^matrix\._entry_array$"):
        qp.load_matrix(irregular, "json")
    image, _ = qp.build_memory_image(qp.random_matrix(2, 2, seed=1), 40, "complex")
    with pytest.raises(ReferenceFormReached, match=r"^memory\.json\.dumps$"):
        image.to_json()
    with pytest.raises(ReferenceFormReached, match=r"^MemoryImage\.__eq__$"):
        image == image  # noqa: B015


def test_check_rejects_a_corrupted_image(workloads):
    wl = workloads.build("preprocess", seed=401, k=6)
    doc = json.loads(wl.op())
    doc["cells"][5] ^= 1 << (2 * doc["t"] - 1)  # top bit of one angle field
    with pytest.raises(workloads.CheckFailure):
        wl.check(json.dumps(doc))


def test_dropped_branch_fails_the_prepare_image_check(workloads, monkeypatch):
    # the fault perfbench/smoke.py injects: the op must run, and its check must refuse it
    simulator = workloads.qp.simulator
    shift = simulator.circular_shift

    def dropping_shift(state):
        out = shift(state)
        branches = dict(out.branches)
        branches.pop(max(branches))
        return dataclasses.replace(out, branches=branches)

    monkeypatch.setattr(simulator, "circular_shift", dropping_shift)
    wl = workloads.build("prepare_image", seed=401, k=6)
    out = wl.op()
    with pytest.raises(workloads.CheckFailure):
        wl.check(out)


@pytest.fixture(scope="module")
def smoke():
    # smoke.py imports its sibling modules by their bare names
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield _load("smoke")
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in ("perfbench_smoke", "tracing", "workloads"):
            sys.modules.pop(name, None)


def test_corrupted_cell_fails_sweep_ops(smoke):
    # smoke.py's own fault: it rebuilds the image with dataclasses.replace(image, cells=...)
    wl = smoke.workloads.build("sweep", seed=401, k=6)
    with smoke.tracing.substituted(smoke.qp, smoke.CORRUPT_CELL):
        phase = smoke.workloads.measure(wl, 0.0)
    assert phase.attempted > 0 and phase.failed == phase.attempted, phase.errors
    # the op ran on the corrupted image and its check refused the output
    assert all(error.startswith("CheckFailure: ") for error in phase.errors), phase.errors
    assert smoke.workloads.measure(wl, 0.0).failed == 0
