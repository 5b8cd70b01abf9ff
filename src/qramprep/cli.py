"""Command-line entry point: preprocess, prepare, example, sweep, resources.

Every command is a deterministic run: identical flags and input bytes produce
byte-identical output files (no timestamps or machine state in any output).
Exit code 0 means every asserted tolerance held.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from .errors import ExampleMismatchError, ParseError, QramPrepError
from .fixedpoint import phase_distance
from .matrix import ComplexMatrix, load_matrix, random_matrix, squared_moduli
from .memory import MemoryImage, build_memory_image
from .simulator import dump_state, prepare_complex
from .verify import (
    ERROR_SLACK,
    _prepare,
    error_bound,
    oracle_state,
    precision_sweep,
    resource_report,
    run_preparation,
    state_error,
    sweep_csv,
)
from .weight_tree import build_weight_tree

# Embedded 2x4 demo matrix (also shipped as data/example_matrix.json); the
# recorded values below are its hand-checked preprocessing and run trace.
EXAMPLE_ENTRIES = [
    [2 + 1j, -1 + 2j, 3 + 0j, 0 - 1j],
    [1 - 1j, 0 + 2j, -2 + 1j, 1 + 1j],
]
EXAMPLE_SQUARED_MODULI = [5.0, 5.0, 9.0, 1.0, 2.0, 4.0, 5.0, 2.0]
EXAMPLE_TREE_LEVELS = [[33.0], [20.0, 13.0], [10.0, 10.0, 6.0, 7.0]]
EXAMPLE_ANGLES = [1.357, math.pi / 2, 1.648, math.pi / 2, 0.644, 1.911, 1.128]
EXAMPLE_PHASES = [0.464, 2.034, 0.0, -math.pi / 2, -0.785, math.pi / 2, 2.678, 0.785]
EXAMPLE_STEP_MODULI = {
    1: {0b010: math.sqrt(20 / 33), 0b011: math.sqrt(13 / 33)},
    2: {
        0b100: math.sqrt(10 / 33),
        0b101: math.sqrt(10 / 33),
        0b110: math.sqrt(6 / 33),
        0b111: math.sqrt(7 / 33),
    },
    3: {
        0: math.sqrt(5 / 33),
        1: math.sqrt(5 / 33),
        2: 3 / math.sqrt(33),
        3: 1 / math.sqrt(33),
        4: math.sqrt(2 / 33),
        5: 2 / math.sqrt(33),
        6: math.sqrt(5 / 33),
        7: math.sqrt(2 / 33),
    },
}

ANGLE_TOL = 1e-3  # recorded angles and phases carry three decimals
STEP_TOL = 1e-6
FINAL_TOL = 1e-10
NORM_TOL = 1e-12  # a run from a memory image has no oracle; it must stay a unit vector


def example_matrix() -> ComplexMatrix:
    return ComplexMatrix.from_array(EXAMPLE_ENTRIES)


def _parse_t_range(spec: str) -> list[int]:
    try:
        if ":" in spec:
            lo, hi = spec.split(":", 1)
            lo, hi = int(lo), int(hi)
            if lo > hi:
                raise ValueError
            return list(range(lo, hi + 1))
        return [int(spec)]
    except ValueError:
        raise ParseError(f"--t expects N or LO:HI, got {spec!r}") from None


def _read_input(args) -> tuple[ComplexMatrix | None, MemoryImage | None]:
    """Resolve --input / --random into a matrix or a memory image."""
    if getattr(args, "random", None):
        try:
            rows, cols = (int(x) for x in args.random.lower().split("x", 1))
        except ValueError:
            raise ParseError(f"--random expects ROWSxCOLS, got {args.random!r}") from None
        real = getattr(args, "mode", "complex") == "real_signed"
        return random_matrix(rows, cols, seed=args.seed, real=real), None
    if not args.input:
        raise ParseError("no input: pass --input PATH (or --random ROWSxCOLS)")
    path = Path(args.input)
    data = path.read_bytes()
    if path.suffix.lower() == ".csv":
        return load_matrix(data, "csv"), None
    try:
        doc = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # also integers past the digit limit
        raise ParseError(f"{path}: {exc}") from exc
    if isinstance(doc, dict) and "cells" in doc:
        return None, MemoryImage.from_json_dict(doc)
    return ComplexMatrix.from_json_dict(doc), None


def _write_text(path: str | None, text: str) -> None:
    if path:
        Path(path).write_text(text, encoding="utf-8")


def _image_json_indented(image: MemoryImage) -> str:
    """``json.dumps(image.to_json_dict(), sort_keys=True, indent=2) + "\\n"``, written directly.

    With ``indent`` the json module drops to its pure-Python encoder; here
    the sorted header keys are spelled out and the cells joined as text.
    """
    doc = image.to_json_dict()
    cells = ",\n    ".join(map(str, doc["cells"]))
    return (
        f'{{\n  "cells": [\n    {cells}\n  ],\n  "k": {doc["k"]},\n'
        f'  "mode": {json.dumps(doc["mode"])},\n  "t": {doc["t"]}\n}}\n'
    )


def cmd_preprocess(args) -> int:
    m, img = _read_input(args)
    if m is None:
        raise ParseError("preprocess needs a matrix input, not a memory image")
    image, gamma = build_memory_image(m, args.t, args.mode)
    _write_text(args.output, _image_json_indented(image))
    print(f"matrix: {m.original_rows}x{m.original_cols} padded to {m.rows}x{m.cols} (K={m.size})")
    print(f"cells: {image.size} x {image.width} bits = {image.size * image.width} bits")
    print(f"preprocessing_ops: {gamma.preprocessing_ops}")
    if args.output:
        print(f"wrote {args.output}")
    return 0


def cmd_prepare(args) -> int:
    m, img = _read_input(args)
    if img is not None:
        if args.sim == "ideal":
            raise ParseError("ideal mode needs a matrix input (exact angles are not in the image)")
        state, ledger = _prepare(img)
        norm_error = abs(state.norm() - 1.0)
        clean = state.work_clean()
        marked = state.marker_set()
        ok = norm_error <= NORM_TOL and clean and marked
        checks = {"norm_error": f"{norm_error:.6e}", "work_clean": clean, "marker_set": marked}
    else:
        state, ledger, _ = run_preparation(m, args.t, mode=args.mode, sim=args.sim)
        err = state_error(state, oracle_state(m))
        tol = FINAL_TOL if args.sim == "ideal" else ERROR_SLACK * error_bound(m.depth, args.t)
        ok = err <= tol
        checks = {"state_error": f"{err:.6e}", "tolerance": f"{tol:.6e}"}
    print(f"queries: {ledger.query_count}")
    print(f"routing_time: {ledger.routing_time}")
    for name, value in checks.items():
        print(f"{name}: {value}")
    print(f"status: {'PASS' if ok else 'FAIL'}")
    if args.output:
        _write_text(args.output, json.dumps(dump_state(state), sort_keys=True) + "\n")
        print(f"wrote {args.output}")
    return 0 if ok else 1


def _check(name: str, ok: bool, detail: str) -> None:
    print(f"  {name}: {'ok' if ok else 'MISMATCH'} ({detail})")
    if not ok:
        raise ExampleMismatchError(f"{name}: {detail}")


def cmd_example(args) -> int:
    """Replay the recorded 2x4 run end to end, checking every quantity."""
    m = example_matrix()
    print(f"worked example: {m.original_rows}x{m.original_cols} complex matrix, "
          f"K={m.size}, k={m.depth}")

    sq = squared_moduli(m)
    _check("squared moduli", sq.tolist() == EXAMPLE_SQUARED_MODULI, f"{sq.tolist()}")
    _check(
        "normalization",
        math.fsum(sq.tolist()) == EXAMPLE_TREE_LEVELS[0][0],
        f"sum {math.fsum(sq.tolist())} == {EXAMPLE_TREE_LEVELS[0][0]}",
    )

    tree = build_weight_tree(sq)
    for h, expected in enumerate(EXAMPLE_TREE_LEVELS):
        got = tree.levels[h].tolist()
        _check(f"tree level {h}", got == expected, f"{got}")

    image, gamma = build_memory_image(m, args.t, "complex")
    worst = max(abs(float(g) - e) for g, e in zip(gamma.thetas, EXAMPLE_ANGLES))
    _check(
        "splitting angles z=1..7",
        worst <= ANGLE_TOL,
        f"max deviation {worst:.2e} <= {ANGLE_TOL}",
    )
    worst = max(
        phase_distance(float(g), e) for g, e in zip(gamma.phases, EXAMPLE_PHASES)
    )
    _check("leaf phases z=0..7", worst <= ANGLE_TOL, f"max deviation {worst:.2e} <= {ANGLE_TOL}")

    captured = {}
    state, ledger = prepare_complex(
        image, exact=gamma, on_iteration=lambda h, s: captured.update({h: s})
    )
    for h, expected in EXAMPLE_STEP_MODULI.items():
        got = captured[h]
        marker = (1 << m.depth) if h == m.depth else 0
        labels = {((1 << h) | p) if h < m.depth else (marker | p) for p in expected}
        _check(
            f"step 1 iteration h={h} branches",
            set(got.branches) == labels,
            f"{len(got.branches)} branches on the marker addresses",
        )
        worst = max(
            abs(abs(got.branches[((1 << h) | p) if h < m.depth else (marker | p)]) - mag)
            for p, mag in expected.items()
        )
        _check(f"step 1 iteration h={h} moduli", worst <= STEP_TOL, f"max deviation {worst:.2e}")

    err = state_error(state, oracle_state(m))
    _check("final state vs normalized entries", err <= FINAL_TOL, f"l2 error {err:.2e}")
    _check(
        "query ledger",
        ledger.query_count == 2 * m.depth + 2,
        f"{ledger.query_count} queries, routing_time {ledger.routing_time}",
    )
    print("worked example: all checks passed")
    return 0


def cmd_sweep(args) -> int:
    m, img = _read_input(args)
    if m is None:
        raise ParseError("sweep needs a matrix input, not a memory image")
    rows = precision_sweep(m, _parse_t_range(args.t), mode=args.mode)
    text = sweep_csv(rows)
    if args.output:
        _write_text(args.output, text)
        print(f"wrote {args.output} ({len(rows)} rows)")
    else:
        sys.stdout.write(text)
    ok = all(r.measured_error <= ERROR_SLACK * r.bound for r in rows)
    print(f"status: {'PASS' if ok else 'FAIL'} "
          f"(all errors within {ERROR_SLACK} x bound: {ok})")
    return 0 if ok else 1


def cmd_resources(args) -> int:
    report = resource_report(args.K, args.t, args.mode)
    text = json.dumps(dataclasses.asdict(report), sort_keys=True, indent=2) + "\n"
    sys.stdout.write(text)
    _write_text(args.output, text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qramprep",
        description="Preprocess matrices into fixed-point memory images, "
        "simulate the amplitude/phase preparation procedure, and verify it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, output_help):
        p.add_argument("--input", help="matrix file (.json or .csv)")
        p.add_argument("--random", metavar="ROWSxCOLS",
                       help="generate a random matrix instead of reading --input")
        p.add_argument("--seed", type=int, default=0, help="non-negative seed for --random")
        p.add_argument("--output", help=output_help)

    p = sub.add_parser("preprocess", help="build and write a memory image")
    add_io(p, "memory image JSON path")
    p.add_argument("--t", type=int, default=16, help="fixed-point bits per field")
    p.add_argument("--mode", choices=["complex", "real_signed"], default="complex")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("prepare", help="run the preparation procedure and verify it")
    add_io(p, "state dump JSON path")
    p.add_argument("--t", type=int, default=16)
    p.add_argument("--mode", choices=["complex", "real_signed"], default="complex")
    p.add_argument("--sim", choices=["fixed", "ideal"], default="fixed",
                   help="fixed: quantized angles from the image; ideal: exact angles")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("example", help="replay the recorded 2x4 worked example")
    p.add_argument("--t", type=int, default=16)
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("sweep", help="measure error against the budget across t")
    add_io(p, "CSV output path")
    p.add_argument("--t", default="6:16", help="precision range LO:HI (or single N)")
    p.add_argument("--mode", choices=["complex", "real_signed"], default="complex")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("resources", help="closed-form resource report")
    p.add_argument("--K", type=int, required=True, help="cell count (power of two)")
    p.add_argument("--t", type=int, default=32)
    p.add_argument("--mode", choices=["complex", "real_signed"], default="complex")
    p.add_argument("--output", help="report JSON path")
    p.set_defaults(func=cmd_resources)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except QramPrepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
