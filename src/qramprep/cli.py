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

from .angles import MODES
from .errors import ExampleMismatchError, ParseError, QramPrepError
from .fixedpoint import MAX_PRECISION, check_precision, phase_distance
from .matrix import (
    ComplexMatrix,
    _read_matrix_json,
    load_matrix,
    random_matrix,
    squared_moduli,
)
from .memory import MemoryImage, build_memory_image
from .simulator import dump_state, prepare_complex
from .verify import (
    ERROR_SLACK,
    SIM_MODES,
    _prepare,
    _vector_error,
    address_amplitudes,
    error_bound,
    oracle_state,
    precision_sweep,
    quantized_oracle,
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

ANGLE_TOL = 1e-3  # recorded angles and phases carry three decimals
STEP_TOL = 1e-6
FINAL_TOL = 1e-10
NORM_TOL = 1e-12  # every prepare run must end as a unit vector
MODEL_TOL = 1e-12  # and match the quantized state that its image's fields encode


def example_matrix() -> ComplexMatrix:
    return ComplexMatrix.from_array(EXAMPLE_ENTRIES)


def _parse_t_range(spec: str) -> range:
    try:
        lo, hi = (int(x) for x in spec.split(":", 1)) if ":" in spec else (int(spec),) * 2
        if lo > hi:
            raise ValueError
    except ValueError:
        raise ParseError(f"--t expects N or LO:HI, got {spec!r}") from None
    # both ends are checked before the range is built: no t in it can be out of range
    return range(check_precision(lo), check_precision(hi) + 1)


def _read_input(args) -> tuple[ComplexMatrix | None, MemoryImage | None]:
    """Resolve --input / --random into a matrix or a memory image."""
    if args.random:
        try:
            rows, cols = (int(x) for x in args.random.lower().split("x", 1))
        except ValueError:
            raise ParseError(f"--random expects ROWSxCOLS, got {args.random!r}") from None
        return random_matrix(rows, cols, seed=args.seed, real=args.mode == "real_signed"), None
    if not args.input:
        raise ParseError("no input: pass --input PATH (or --random ROWSxCOLS)")
    path = Path(args.input)
    data = path.read_bytes()
    try:  # every refusal of the file's content names the file
        if path.suffix.lower() == ".csv":
            return load_matrix(data, "csv"), None
        doc = _read_matrix_json(data)
        if isinstance(doc, ComplexMatrix):
            return doc, None
        if isinstance(doc, dict) and "cells" in doc:
            return None, MemoryImage.from_json_dict(doc)
        return ComplexMatrix.from_json_dict(doc), None
    except QramPrepError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _write_text(path: str | None, text: str) -> None:
    if path:
        Path(path).write_text(text, encoding="utf-8")


def cmd_preprocess(args) -> int:
    m, img = _read_input(args)
    if m is None:
        raise ParseError("preprocess needs a matrix input, not a memory image")
    image, _ = build_memory_image(m, args.t, args.mode)
    _write_text(args.output, image.to_json())
    print(f"matrix: {m.original_rows}x{m.original_cols} padded to {m.rows}x{m.cols} (K={m.size})")
    print(f"cells: {image.size} x {image.width} bits = {image.size * image.width} bits")
    print(f"preprocessing_ops: {resource_report(m.size, args.t, args.mode).preprocessing_ops}")
    if args.output:
        print(f"wrote {args.output}")
    return 0


def cmd_prepare(args) -> int:
    """Run an image, read or built from a matrix; judge it by the image and any matrix."""
    m, img = _read_input(args)
    if img is None:
        state, ledger, img = run_preparation(m, args.t, mode=args.mode, sim=args.sim)
    elif args.sim == "ideal":
        raise ParseError("ideal mode needs a matrix input, not a memory image: "
                         "it runs on the matrix's t = 62 image")
    else:
        state, ledger = _prepare(img)
    norm_error = abs(state.norm() - 1.0)
    clean, marked = state.work_clean(), state.marker_set()
    # name: (printed value, held); a dirty or unmarked state has no amplitudes to compare
    checks = {"norm_error": (f"{norm_error:.6e}", norm_error <= NORM_TOL),
              "work_clean": (clean, clean), "marker_set": (marked, marked)}
    if clean and marked:
        vec = address_amplitudes(state)  # one K-long vector for both oracles
        model_error = _vector_error(vec, quantized_oracle(img))
        checks["model_error"] = (f"{model_error:.6e}", model_error <= MODEL_TOL)
        if m is not None:
            err = _vector_error(vec, oracle_state(m))
            tol = FINAL_TOL if args.sim == "ideal" else ERROR_SLACK * error_bound(m.depth, args.t)
            checks["state_error"] = (f"{err:.6e}", err <= tol)
            checks["tolerance"] = (f"{tol:.6e}", True)
    failed = [name for name, (_, held) in checks.items() if not held]
    print(f"queries: {ledger.query_count}")
    print(f"routing_time: {ledger.routing_time}")
    for name, (value, _) in checks.items():
        print(f"{name}: {value}")
    if failed:
        print(f"failed: {', '.join(failed)}")
    print(f"status: {'FAIL' if failed else 'PASS'}")
    if args.output:
        _write_text(args.output, json.dumps(dump_state(state), sort_keys=True) + "\n")
        print(f"wrote {args.output}")
    return 1 if failed else 0


def _check(name: str, ok: bool, detail: str) -> None:
    print(f"  {name}: {'ok' if ok else 'MISMATCH'} ({detail})")
    if not ok:
        raise ExampleMismatchError(f"{name}: {detail}")


def cmd_example(args) -> int:
    """Replay the recorded 2x4 run end to end, checking every quantity."""
    m = example_matrix()
    print(f"worked example: {m.original_rows}x{m.original_cols} complex matrix, "
          f"K={m.size}, k={m.depth}")

    sq = squared_moduli(m).tolist()
    _check("squared moduli", sq == EXAMPLE_SQUARED_MODULI, f"{sq}")
    total, root = math.fsum(sq), EXAMPLE_TREE_LEVELS[0][0]
    _check("normalization", total == root, f"sum {total} == {root}")

    tree = build_weight_tree(sq)
    for h, expected in enumerate(EXAMPLE_TREE_LEVELS):
        got = tree.levels[h].tolist()
        _check(f"tree level {h}", got == expected, f"{got}")

    image, gamma = build_memory_image(m, MAX_PRECISION, "complex")
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
    state, ledger = prepare_complex(image, on_iteration=lambda h, s: captured.update({h: s}))
    # iteration h leaves sqrt(T_{h,p} / T_{0,0}) on node (h, p), marked by label
    # bit h: an address bit while h < k, and v at h = k
    for h, weights in enumerate([*EXAMPLE_TREE_LEVELS, EXAMPLE_SQUARED_MODULI][1:], 1):
        expected = {(1 << h) | p: math.sqrt(w / root) for p, w in enumerate(weights)}
        got = captured[h].branches
        _check(
            f"step 1 iteration h={h} branches",
            set(got) == set(expected),
            f"{len(got)} branches on the marker addresses",
        )
        worst = max(abs(abs(got[label]) - mag) for label, mag in expected.items())
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
    print(f"status: {'PASS' if ok else 'FAIL'} (all errors within {ERROR_SLACK} x bound: {ok})",
          file=sys.stdout if args.output else sys.stderr)  # stdout: the CSV alone
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
    p.add_argument("--mode", choices=MODES, default="complex")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("prepare", help="run the preparation procedure and verify it")
    add_io(p, "state dump JSON path")
    p.add_argument("--t", type=int, default=16,
                   help="fixed-point bits per field of a matrix input (an image carries its own)")
    p.add_argument("--mode", choices=MODES, default="complex",
                   help="mode of a matrix input (an image carries its own)")
    p.add_argument("--sim", choices=SIM_MODES, default="fixed",
                   help="fixed: the t-bit image; ideal: the same run on the t = 62 image, "
                   "with --t checked but unused")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("example", help="replay the recorded 2x4 worked example")
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("sweep", help="measure error against the budget across t")
    add_io(p, "CSV output path")
    p.add_argument("--t", default="6:16", help="precision range LO:HI (or single N)")
    p.add_argument("--mode", choices=MODES, default="complex")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("resources", help="closed-form resource report")
    p.add_argument("--K", type=int, required=True, help="cell count (power of two)")
    p.add_argument("--t", type=int, default=32)
    p.add_argument("--mode", choices=MODES, default="complex")
    p.add_argument("--output", help="report JSON path")
    p.set_defaults(func=cmd_resources)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (QramPrepError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
