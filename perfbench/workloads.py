"""The benchmark's workloads: seeded inputs, the timed op, and its checks.

Each op makes the same library calls as the matching ``qramprep`` CLI
command, without argparse, file I/O or printing. Inputs come from
``random_matrix(..., seed=<bench seed>)`` and are built before timing.
Checks run outside the timed region and compare the op's output with numpy
recomputations made here; none of them calls ``qramprep.verify``.
"""
from __future__ import annotations

import gc
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import qramprep as qp  # noqa: E402

if Path(qp.__file__).resolve().parent != SRC / "qramprep":
    raise ImportError(f"qramprep was imported from {qp.__file__}, not from {SRC}")

DEFAULT_K = {"preprocess": 16, "prepare_image": 16, "sweep": 12}
NAMES = tuple(DEFAULT_K)
IMAGE_T = 32
SWEEP_T = range(6, 22)
# The acceptance suite allows 4x the (k + pi) * 2**-t quantization budget.
BUDGET_SLACK = 4.0
# Float64 resolution of a recomputed angle or phase: numpy's arcsin may
# differ from math.asin in the last bits, which half a grid step must absorb.
FIELD_SLACK = 8 * float(np.spacing(math.tau))
# A sweep row's measured error must match this benchmark's model of the
# quantized state to float64 accuracy; pruning of 1e-15 amplitudes sits far below.
SWEEP_MATCH_TOL = 1e-12


class CheckFailure(Exception):
    """An op's output failed one of the benchmark's own checks."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailure(message)


@dataclass(frozen=True)
class Workload:
    name: str
    k: int
    t: str
    mode: str
    pipelines: int  # full preprocess-and/or-simulate pipelines per op
    nonzero: int
    input_bytes: int
    op: Callable[[], Any]
    check: Callable[[Any], float]  # raises CheckFailure, else returns budget_use

    def params(self) -> dict:
        return {
            "K": 1 << self.k,
            "k": self.k,
            "t": self.t,
            "mode": self.mode,
            "nonzero": self.nonzero,
            "input_bytes": self.input_bytes,
            "pipelines_per_op": self.pipelines,
        }


def _shape(k: int) -> tuple[int, int]:
    return 1 << (k // 2), 1 << (k - k // 2)


# ---- numpy reference computations ------------------------------------------------


def reference_angles(weights: np.ndarray) -> np.ndarray:
    """Splitting angles theta_z, z = 1..K-1, from the K leaf weights |a_z|**2, level by level."""
    levels = [weights]
    while levels[-1].size > 1:
        levels.append(levels[-1].reshape(-1, 2).sum(axis=1))
    levels.reverse()
    out = []
    for children in levels[1:]:
        pairs = children.reshape(-1, 2)
        total = pairs.sum(axis=1)
        ratio = np.divide(pairs[:, 1], total, out=np.zeros_like(total), where=total > 0)
        out.append(2.0 * np.arcsin(np.sqrt(np.clip(ratio, 0.0, 1.0))))
    return np.concatenate(out)


def reference_phases(entries: np.ndarray) -> np.ndarray:
    phases = np.mod(np.arctan2(entries.imag, entries.real), math.tau)
    return np.where(entries == 0, 0.0, phases)


def circular_distance(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    d = np.mod(x - y, math.tau)
    return np.minimum(d, math.tau - d)


def quantized_real_state(thetas: np.ndarray, negative: np.ndarray, t: int) -> np.ndarray:
    """Address amplitudes a real_signed run with t-bit angle cells must produce.

    Leaf z gets the product of cos(theta/2) (left turn) or sin(theta/2)
    (right turn) along its root path, with each theta rounded half up to the
    2**(2-t) grid, times -1 where the entry is negative.
    """
    grid = 2.0 ** (2 - t)
    half = 0.5 * np.floor(thetas / grid + 0.5) * grid
    cos, sin = np.cos(half), np.sin(half)
    amp = np.ones(1)
    while amp.size <= thetas.size:
        n = amp.size  # cells n..2n-1 split the n nodes of this level
        amp = np.stack((amp * cos[n - 1:2 * n - 1], amp * sin[n - 1:2 * n - 1]), axis=1).reshape(-1)
    return np.where(negative, -amp, amp)


def error_budget(k: int, t: int) -> float:
    return (k + math.pi) * 2.0 ** (-t)


# ---- workloads -------------------------------------------------------------------


def _preprocess(seed: int, k: int) -> Workload:
    """``qramprep preprocess``: matrix JSON bytes -> memory image JSON, complex, t=32."""
    rows, cols = _shape(k)
    entries = qp.random_matrix(rows, cols, seed=seed).entries
    data = json.dumps({
        "rows": rows,
        "cols": cols,
        "entries": np.column_stack((entries.real, entries.imag)).tolist(),
    }).encode()
    t = IMAGE_T
    thetas = reference_angles(entries.real ** 2 + entries.imag ** 2)
    phases = reference_phases(entries)

    def op():
        m = qp.load_matrix(data, "json")
        image, _ = qp.build_memory_image(m, t, "complex")
        return image.to_json()

    def check(text: str) -> float:
        doc = json.loads(text)
        _require((doc["mode"], doc["t"], doc["k"]) == ("complex", t, k), "image header is wrong")
        _require(len(doc["cells"]) == 1 << k, f"image has {len(doc['cells'])} cells, not {1 << k}")
        cells = np.array(doc["cells"], dtype=np.uint64)
        angle_bits = cells >> np.uint64(t)
        phase_bits = cells & np.uint64((1 << t) - 1)
        _require(angle_bits[0] == 0, "cell 0 angle field is not zero")
        angle_err = np.abs(angle_bits[1:] * 2.0 ** (2 - t) - thetas)
        phase_err = circular_distance(phase_bits * (math.tau / 2.0 ** t), phases)
        use = max(
            float(angle_err.max()) / (2.0 ** (1 - t) + FIELD_SLACK),
            float(phase_err.max()) / (math.pi * 2.0 ** (-t) + FIELD_SLACK),
        )
        _require(use <= 1.0, f"a decoded field is {use:.3g} half grid steps off")
        return use

    return Workload("preprocess", k, str(t), "complex", 1,
                    int(np.count_nonzero(entries)), len(data), op, check)


def _prepare_image(seed: int, k: int) -> Workload:
    """``qramprep prepare --input image.json``: image JSON -> state dump JSON, fixed mode."""
    rows, cols = _shape(k)
    m = qp.random_matrix(rows, cols, seed=seed)
    entries = m.entries
    t = IMAGE_T
    text = qp.build_memory_image(m, t, "complex")[0].to_json()
    oracle = entries / np.linalg.norm(entries)
    queries = 2 * k + 2

    def op():
        image = qp.MemoryImage.from_json_dict(json.loads(text))
        state, ledger = qp.prepare_complex(image)
        return ledger, json.dumps(qp.dump_state(state), sort_keys=True)

    def check(out) -> float:
        ledger, dump = out
        _require(ledger.query_count == queries, f"{ledger.query_count} queries, not {queries}")
        _require(ledger.routing_time == k * queries,
                 f"routing time {ledger.routing_time}, not {k * queries}")
        doc = json.loads(dump)
        _require(doc["k"] == k, "state dump has the wrong address width")
        branches = doc["branches"]
        address = np.array([b["address"] for b in branches], dtype=np.int64)
        marker = np.array([b["v"] for b in branches], dtype=np.int64)
        amp = np.array([b["amp"] for b in branches], dtype=np.float64).reshape(-1, 2)
        _require(bool(np.all(marker == 1)), "a branch has v = 0")
        _require(bool(np.all((address >= 0) & (address < 1 << k))), "an address is out of range")
        _require(np.unique(address).size == address.size, "two branches share an address")
        vec = np.zeros(1 << k, dtype=np.complex128)
        vec[address] = amp[:, 0] + 1j * amp[:, 1]
        err = float(np.linalg.norm(vec - oracle))
        bound = error_budget(k, t)
        _require(err <= BUDGET_SLACK * bound,
                 f"l2 error {err:.3e} exceeds {BUDGET_SLACK} x {bound:.3e}")
        return err / bound

    return Workload("prepare_image", k, str(t), "complex", 1,
                    int(np.count_nonzero(entries)), len(text.encode()), op, check)


def _sweep(seed: int, k: int) -> Workload:
    """``qramprep sweep``: one real_signed matrix, fixed-mode runs at t = 6..21 -> CSV."""
    rows, cols = _shape(k)
    m = qp.random_matrix(rows, cols, seed=seed, real=True, zero_fraction=0.5)
    entries = m.entries.real.copy()
    oracle = entries / np.linalg.norm(entries)
    thetas = reference_angles(entries ** 2)
    models = {t: float(np.linalg.norm(quantized_real_state(thetas, entries < 0, t) - oracle))
              for t in SWEEP_T}

    def op():
        return qp.sweep_csv(qp.precision_sweep(m, SWEEP_T, "real_signed"))

    def check(csv_text: str) -> float:
        lines = csv_text.splitlines()
        _require(lines[0] == "t,measured_error,bound", "sweep CSV header is wrong")
        rows_out = [line.split(",") for line in lines[1:]]
        _require([int(r[0]) for r in rows_out] == list(SWEEP_T), "sweep rows are not t = 6..21")
        use = 0.0
        for t_text, measured_text, bound_text in rows_out:
            t, measured, bound = int(t_text), float(measured_text), float(bound_text)
            _require(math.isclose(bound, error_budget(k, t), rel_tol=1e-12), f"t={t}: wrong bound")
            _require(abs(measured - models[t]) <= SWEEP_MATCH_TOL,
                     f"t={t}: measured error {measured!r}, quantized model {models[t]!r}")
            _require(measured <= BUDGET_SLACK * bound, f"t={t}: error {measured:.3e} over budget")
            use = max(use, measured / bound)
        return use

    return Workload("sweep", k, f"{SWEEP_T.start}..{SWEEP_T.stop - 1}", "real_signed",
                    len(SWEEP_T), int(np.count_nonzero(entries)), m.entries.nbytes, op, check)


_CONSTRUCTORS = {"preprocess": _preprocess, "prepare_image": _prepare_image, "sweep": _sweep}


def build(name: str, seed: int, k: int | None = None) -> Workload:
    """Inputs for workload ``name`` from ``seed``; K = 2**k cells (default per workload)."""
    return _CONSTRUCTORS[name](seed, DEFAULT_K[name] if k is None else k)


# ---- closed loop -----------------------------------------------------------------


def reference_kernel() -> None:
    """Fixed pure-Python dict, float and JSON work, timed just before every op.

    On a shared 2-vCPU VM every process ran up to ~1.9x slower for seconds
    to minutes at a time. An op's wall time divided by this kernel's wall
    time right before it cancels most of that: over 30 s windows whose
    median op time moved by 43%, the median ratio moved by 6%.
    """
    values = {i: i * 1.5 for i in range(40_000)}
    json.loads(json.dumps(list(values.values())))


@dataclass
class Phase:
    """What one closed-loop phase measured: timings of passing ops and every failure."""

    latencies: list[float] = field(default_factory=list)
    references: list[float] = field(default_factory=list)  # reference_kernel() before each op
    budget_uses: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)


def run_op(wl: Workload, phase: Phase, tracer=None) -> None:
    """Run, time and check one op; a raise or a failed check counts as a failure."""
    gc.collect()  # collect the previous op's garbage here, not inside this op's timing
    start = time.perf_counter()
    reference_kernel()
    reference = time.perf_counter() - start
    error = None
    if tracer is not None:
        tracer.begin_op()
    start = time.perf_counter()
    try:
        out = wl.op()
    except Exception as exc:  # the loop must survive any failing op and count it
        error = exc
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.end_op()
    phase.attempted += 1
    if error is None:
        try:
            use = wl.check(out)
        except Exception as exc:  # a malformed output is a failed op, not a crash
            error = exc
    if error is not None:
        phase.failed += 1
        if len(phase.errors) < 5:
            phase.errors.append(f"{type(error).__name__}: {error}")
        return
    phase.latencies.append(elapsed)
    phase.references.append(reference)
    phase.budget_uses.append(use)


def measure(wl: Workload, seconds: float, tracer=None) -> Phase:
    """One client, closed loop: start op after op until ``seconds`` have passed (at least one)."""
    phase = Phase()
    deadline = time.perf_counter() + seconds
    while phase.attempted == 0 or time.perf_counter() < deadline:
        run_op(wl, phase, tracer)
    return phase
