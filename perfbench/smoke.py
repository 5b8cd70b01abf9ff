"""Smoke check of the benchmark harness at K=2**6; runs in well under a minute.

    python3 perfbench/smoke.py

1. Runs every workload through ``run.py``, untraced and traced, and checks
   the result line against ``BENCHMARK.json``.
2. Proves that the correctness checks fire: a corrupted image cell or a
   dropped branch makes ops fail, and each check rejects a tampered output.
3. Proves that a layer function removed by a refactor shows up as an absent
   per-layer metric, not as an error.

Exits non-zero on the first failed assertion.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import math
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
K = 6
SEED = 3
qp = workloads.qp


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise AssertionError(message)


def check_runs() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for name in spec["workloads"]:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name["name"],
                 "--seed", str(SEED), "--seconds", "0.5", "--trace", str(trace), "--k", str(K)],
                stdout=subprocess.PIPE, text=True, timeout=120, check=True)
            report, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
            where = f"{name['name']} --trace {trace}"
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys")
            expect(result["correct"] and result["failed"] == 0, f"{where}: {report['errors']}")
            expect(report["absent"] == [], f"{where}: absent metrics {report['absent']}")
            units = {m["name"]: m["unit"] for m in listed}
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            expect(got == units, f"{where}: metrics {sorted(got)} != {sorted(units)}")
            expect(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                       for v in result["metrics"].values()), f"{where}: non-numeric value")
            if trace and name["name"] == "prepare_image":
                calls = result["metrics"]["memory.query_calls"]["value"]
                expect(calls == 2 * K + 2, f"prepare_image made {calls} queries, not {2 * K + 2}")
            print(f"ok  run.py {where}: {result['attempted']} ops")


# ---- injected faults -------------------------------------------------------------


def flip_cell(layout):
    """``layout`` whose image has the top angle bit of cell 1 flipped."""
    def corrupted(*args, **kwargs):
        image = layout(*args, **kwargs)
        cells = list(image.cells)
        cells[1] ^= 1 << (image.width - 1)
        return dataclasses.replace(image, cells=tuple(cells))
    return corrupted


def drop_branch(shift):
    """``shift`` that loses the branch with the highest label."""
    def dropped(state):
        out = shift(state)
        branches = dict(out.branches)
        branches.pop(max(branches))
        return dataclasses.replace(out, branches=branches)
    return dropped


CORRUPT_CELL = {qp.memory.layout_complex: flip_cell(qp.memory.layout_complex),
                qp.memory.layout_real_signed: flip_cell(qp.memory.layout_real_signed)}
DROP_BRANCH = {qp.simulator.circular_shift: drop_branch(qp.simulator.circular_shift)}


def check_faults() -> None:
    for name in workloads.NAMES:
        faults = [("corrupted image cell", CORRUPT_CELL)]
        if name != "preprocess":
            faults.append(("dropped branch", DROP_BRANCH))
        for label, fault in faults:
            with tracing.substituted(qp, fault):
                phase = workloads.measure(workloads.build(name, SEED, K), 0.1)
            fail_ratio = phase.failed / phase.attempted
            expect(fail_ratio > 0, f"{name}: {label} went unnoticed")
            print(f"ok  {name}: {label} -> fail_ratio {fail_ratio:g} ({phase.errors[0]})")


def _cell0_angle(doc): doc["cells"][0] |= 1 << 40
def _phase_bit(doc): doc["cells"][5] ^= 1 << 20
def _header(doc): doc["t"] = 31
def _cell_count(doc): doc["cells"].pop()
def _marker(doc): doc["branches"][0]["v"] = 0
def _duplicate(doc): doc["branches"][1]["address"] = 0
def _amplitude(doc): doc["branches"][2]["amp"][0] = 0.0


def _edited(text: str, edit) -> str:
    doc = json.loads(text)
    edit(doc)
    return json.dumps(doc)


def tampered_outputs(name, out):
    """(what was tampered, output) pairs, one per check of workload ``name``."""
    if name == "preprocess":
        for what, edit in (("cell 0 angle field", _cell0_angle), ("a phase field", _phase_bit),
                           ("the image header", _header), ("the cell count", _cell_count)):
            yield what, _edited(out, edit)
    elif name == "prepare_image":
        ledger, dump = out
        yield "query count", (dataclasses.replace(ledger, query_count=ledger.query_count + 1), dump)
        yield "routing time", (dataclasses.replace(ledger, k=ledger.k + 1), dump)
        for what, edit in (("a branch with v = 0", _marker), ("a duplicated address", _duplicate),
                           ("an amplitude", _amplitude)):
            yield what, (ledger, _edited(dump, edit))
    else:
        header, first, *rest = out.splitlines()
        t, err, bound = first.split(",")
        for what, row in (("a measured error", f"{t},{float(err) * (1 + 1e-9)!r},{bound}"),
                          ("a bound", f"{t},{err},{float(bound) * 2!r}")):
            yield what, "\n".join([header, row, *rest])
        yield "the t range", "\n".join([header, first, *rest[:-1]])


def check_tampering() -> None:
    for name in workloads.NAMES:
        wl = workloads.build(name, SEED, K)
        out = wl.op()
        wl.check(out)
        for what, bad in tampered_outputs(name, out):
            try:
                wl.check(bad)
            except workloads.CheckFailure as exc:
                print(f"ok  {name}: tampered {what} rejected ({exc})")
            else:
                raise AssertionError(f"{name}: tampered {what} passed the check")


# ---- a refactored layer ----------------------------------------------------------


@contextmanager
def without_splitting_angle():
    """Vectorized angle tree with no ``splitting_angle`` left, as a refactor might do."""
    original = qp.angles.splitting_angle
    holders = [m for m in (qp, qp.angles) if vars(m).get("splitting_angle") is original]
    scalar = qp.angles.build_angle_tree
    vectorized = {scalar: functools.wraps(scalar)(
        lambda tree: workloads.reference_angles(tree.levels[-1]))}
    for module in holders:
        delattr(module, "splitting_angle")
    try:
        with tracing.substituted(qp, vectorized):
            yield
    finally:
        for module in holders:
            module.splitting_angle = original


def check_absent() -> None:
    with without_splitting_angle():
        wl = workloads.build("preprocess", SEED, K)
        tracer = tracing.Tracer(qp)
        with tracer.installed():
            phase = workloads.measure(wl, 0.1, tracer)
        layer, absent = tracer.metrics()
    expect(phase.failed == 0, f"refactored preprocess failed: {phase.errors}")
    expect(absent == ["angles.splitting_angle_calls"], f"absent metrics: {absent}")
    expect("angles.angle_tree_s" in layer, "angles.angle_tree_s went missing")
    print(f"ok  preprocess without splitting_angle: absent {absent}")


if __name__ == "__main__":
    check_runs()
    check_faults()
    check_tampering()
    check_absent()
    print("smoke: all checks passed")
