import dataclasses
import json
import math
import statistics
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qramprep.errors import QramPrepError
from qramprep import simulator, verify
from qramprep.angles import MODES, build_angle_structures
from qramprep.fixedpoint import (
    MAX_PRECISION,
    encode_magnitude_angles,
    encode_phases,
    magnitude_grid,
)
from qramprep.matrix import ComplexMatrix, random_matrix
from qramprep.memory import MemoryImage, build_memory_image, layout_image
from qramprep.simulator import BranchState, dump_state, prepare_complex, prepare_real
from qramprep.verify import (
    ERROR_SLACK,
    SIM_MODES,
    SweepRow,
    error_bound,
    oracle_state,
    precision_sweep,
    quantized_oracle,
    resource_report,
    run_preparation,
    state_error,
    sweep_csv,
)
from test_simulator_differential import acceptance_matrices


def state_from_vector(vec):
    """Clean prepared-form state (v=1, work zero) holding the given amplitudes."""
    k = (len(vec)).bit_length() - 1
    branches = {
        (1 << k) | z: complex(a) for z, a in enumerate(vec) if a != 0
    }
    return BranchState(branches=branches, t=8, aux_width=8, k=k)


class TestOracleState:
    def test_example(self, example):
        vec = oracle_state(example)
        assert np.allclose(vec, example.entries / math.sqrt(33), rtol=0, atol=1e-15)
        assert math.isclose(float(np.linalg.norm(vec)), 1.0, rel_tol=1e-14)

    def test_unit_vector(self):
        m = ComplexMatrix.from_array([[1.0, 0.0]])
        assert oracle_state(m).tolist() == [1, 0]

    def test_padded_columns_are_zero(self):
        m = ComplexMatrix.from_array([[1, 2, 3], [4, 5, 6]])
        vec = oracle_state(m).reshape(2, 4)
        assert not vec[:, 3].any()


class TestStateError:
    def test_oracle_vs_itself_is_zero(self, example):
        vec = oracle_state(example)
        assert state_error(state_from_vector(vec), vec) == 0.0


class TestScaleRobustness:
    """Angles, phases and the oracle do not depend on the scale of the matrix."""

    SCALES = [1e-300, 1e-170, 1e-160, 1e160, 1e300]

    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("mode", ["complex", "real_signed"])
    def test_ideal_run_at_any_scale(self, scale, mode):
        base = random_matrix(8, 8, seed=3, real=mode == "real_signed", zero_fraction=0.25)
        m = ComplexMatrix.from_array(base.entries.reshape(base.rows, base.cols) * scale)
        state, _, _ = run_preparation(m, 16, mode, sim="ideal")
        assert state_error(state, oracle_state(m)) <= 1e-10
        assert np.allclose(oracle_state(m), oracle_state(base), rtol=0, atol=1e-15)

    def test_mixed_dynamic_range(self):
        m = ComplexMatrix.from_array([[1.0, 1e-200, -0.5j, 0.0], [1e-200j, 0.25, 2.0, -1e-200]])
        state, _, _ = run_preparation(m, 16, sim="ideal")
        assert state_error(state, oracle_state(m)) <= 1e-10

    def test_norm_beyond_the_float_range(self):
        # ||A||_F = 6e308 overflows a float; the normalized state does not
        m = ComplexMatrix.from_array(np.full((4, 4), 1.5e308))
        state, _, _ = run_preparation(m, 16, sim="ideal")
        assert np.array_equal(oracle_state(m), np.full(16, 0.25))
        assert state_error(state, oracle_state(m)) <= 1e-10

    @pytest.mark.parametrize("e", [-1000, 1020])
    def test_power_of_two_scale_keeps_image_and_state(self, e):
        base = random_matrix(4, 8, seed=6, zero_fraction=0.2)
        grid = base.entries.reshape(base.rows, base.cols)
        m = ComplexMatrix.from_array(np.ldexp(grid.real, e) + 1j * np.ldexp(grid.imag, e))
        state, _, img = run_preparation(m, 32)
        base_state, _, base_img = run_preparation(base, 32)
        assert img == base_img
        assert np.array_equal(state.amp, base_state.amp)
        assert np.array_equal(oracle_state(m), oracle_state(base))


class TestQuantizedOracle:
    """Fixed runs against the state their image's decoded cells define."""

    T_VALUES = [2, 8, 16, 32, 48, 62]
    MODEL_TOL = 1e-12

    @pytest.mark.parametrize("mode,aux_width", [("complex", 8), ("real_signed", 1)])
    def test_two_cells_by_hand(self, mode, aux_width):
        # cell 1 holds the root angle, 37 grid steps, and entry 1's phase, pi
        img = MemoryImage(cells=[0, 37 << aux_width | 1 << (aux_width - 1)], t=8, mode=mode)
        half = 37 * magnitude_grid(8) / 2
        assert np.allclose(quantized_oracle(img), [math.cos(half), -math.sin(half)],
                           rtol=0, atol=1e-15)

    @pytest.mark.parametrize("t", T_VALUES)
    @pytest.mark.parametrize("mode", ["complex", "real_signed"])
    def test_fixed_run_matches(self, mode, t):
        for zero_fraction in (0.0, 0.75, 0.95):
            m = random_matrix(16, 16, seed=t, real=mode == "real_signed",
                              zero_fraction=zero_fraction)
            state, _, img = run_preparation(m, t, mode)
            assert state_error(state, quantized_oracle(img)) <= self.MODEL_TOL, zero_fraction

    @pytest.mark.parametrize("scale", TestScaleRobustness.SCALES)
    @pytest.mark.parametrize("mode", ["complex", "real_signed"])
    def test_fixed_run_matches_at_any_scale(self, scale, mode):
        base = random_matrix(8, 8, seed=3, real=mode == "real_signed", zero_fraction=0.25)
        m = ComplexMatrix.from_array(base.entries.reshape(base.rows, base.cols) * scale)
        for t in self.T_VALUES:
            state, _, img = run_preparation(m, t, mode)
            assert state_error(state, quantized_oracle(img)) <= self.MODEL_TOL, t

    def test_catches_an_over_rotation_within_the_budget(self, monkeypatch):
        # every angle 3e-9 too large (relative): the state stays inside 4x the
        # budget, but no longer matches the cells it was prepared from
        m = random_matrix(256, 256, seed=7)
        grid = simulator.magnitude_grid
        monkeypatch.setattr(simulator, "magnitude_grid", lambda t: (1 + 3e-9) * grid(t))
        state, _, img = run_preparation(m, 32)
        assert state_error(state, oracle_state(m)) <= ERROR_SLACK * error_bound(m.depth, 32)
        assert state_error(state, quantized_oracle(img)) > self.MODEL_TOL


class TestErrorBound:
    def test_value(self):
        assert math.isclose(error_bound(3, 10), (3 + math.pi) / 1024, rel_tol=1e-15)
        assert error_bound(3, 10) == pytest.approx(6.0e-3, abs=1e-4)

    def test_extra_bit_halves_bound(self):
        for t in range(2, 40):
            assert error_bound(5, t + 1) == error_bound(5, t) / 2

    def test_vanishes_at_max_precision(self):
        for k in range(1, 31):
            assert error_bound(k, 62) < 2.3e-16

    def test_numpy_integer_k(self):
        assert error_bound(np.int64(3), 10) == error_bound(3, 10)


NUMPY_INTS = [np.int8, np.int16, np.int32, np.uint8, np.uint64]


@pytest.mark.filterwarnings("error")
class TestNumpyIntegerPrecision:
    """A t of any numpy integer type gives exactly what the Python int gives, and no warning.

    Each function converts t through ``check_precision``; computed on a
    fixed-width integer, ``1 << t`` and ``2.0 ** -t`` wrap or overflow (an
    int32 t = 40 gave a state 1.38 off, a uint8 t = 8 a budget of 3.2e75).
    """

    @pytest.mark.parametrize("dtype", NUMPY_INTS)
    @pytest.mark.parametrize("t", [2, 8, 16, 33, 40, 62])
    def test_encoders_and_images(self, dtype, t):
        for mode, real in (("complex", False), ("real_signed", True)):
            m = random_matrix(4, 4, seed=1, real=real)
            gamma = build_angle_structures(m, mode)
            assert np.array_equal(encode_magnitude_angles(gamma.thetas, dtype(t)),
                                  encode_magnitude_angles(gamma.thetas, t))
            assert np.array_equal(encode_phases(gamma.phases, dtype(t)),
                                  encode_phases(gamma.phases, t))
            got, want = build_memory_image(m, dtype(t), mode)[0], build_memory_image(m, t, mode)[0]
            assert type(got.t) is int
            assert got == want and got.to_json() == want.to_json()

    @pytest.mark.parametrize("dtype", NUMPY_INTS)
    @pytest.mark.parametrize("sim", SIM_MODES)
    @pytest.mark.parametrize("mode", MODES)
    def test_run_preparation(self, dtype, sim, mode):
        m = random_matrix(4, 4, seed=1, real=mode == "real_signed")
        for t in (8, 40):
            got, got_ledger, _ = run_preparation(m, dtype(t), mode, sim)
            want, want_ledger, _ = run_preparation(m, t, mode, sim)
            assert (got.t, type(got.t)) == (t if sim == "fixed" else MAX_PRECISION, int)
            assert dump_state(got) == dump_state(want)
            assert got_ledger.access_log == want_ledger.access_log

    @pytest.mark.parametrize("dtype", NUMPY_INTS)
    def test_budget_resources_and_sweep(self, dtype):
        for t in (2, 8, 16, 33, 62):
            assert error_bound(4, dtype(t)) == error_bound(4, t)
            for mode in MODES:
                report = resource_report(16, dtype(t), mode)
                assert report == resource_report(16, t, mode)
                assert json.dumps(dataclasses.asdict(report)) \
                    == json.dumps(dataclasses.asdict(resource_report(16, t, mode)))
        m = random_matrix(2, 4, seed=3)
        ts = [2, 8, 33, 40, 62]
        got = precision_sweep(m, map(dtype, ts))
        assert got == precision_sweep(m, ts)
        assert [type(row.t) for row in got] == [int] * len(ts)


class TestResourceReport:
    @pytest.mark.parametrize(
        "K,qubits,memory,queries",
        [
            (2 ** 10, 75, 65536, 22),
            (2 ** 20, 85, 67108864, 42),
            (2 ** 30, 95, 68719476736, 62),
        ],
    )
    def test_complex_scale_rows(self, K, qubits, memory, queries):
        rep = resource_report(K, 32, "complex")
        assert rep.qpu_qubits == qubits
        assert rep.memory_bits == memory
        assert rep.query_count == queries
        assert rep.cell_width_bits == 64
        assert rep.routing_time == queries * rep.k

    def test_closed_forms_random(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            k = int(rng.integers(1, 31))
            t = int(rng.integers(2, 63))
            mode = ["complex", "real_signed"][int(rng.integers(0, 2))]
            rep = resource_report(1 << k, t, mode)
            if mode == "complex":
                assert rep.qpu_qubits == k + 2 * t + 1
                assert rep.memory_bits == 2 * t * (1 << k)
            else:
                assert rep.qpu_qubits == k + t + 2
                assert rep.memory_bits == (t + 1) * (1 << k)
            assert rep.query_count == 2 * k + 2
            assert rep.routing_time == (2 * k + 2) * k
            assert rep.preprocessing_ops == 2 * (1 << k) - 1

    def test_smallest_size_two(self):
        # K = 2 (k = 1) is the smallest size
        rep = resource_report(2, 8)
        assert (rep.k, rep.query_count, rep.memory_bits) == (1, 4, 2 * 16)

    def test_numpy_integers_give_python_int_fields(self):
        rep = resource_report(np.int64(1024), np.int64(32))
        assert rep == resource_report(1024, 32)
        fields = dataclasses.asdict(rep)
        assert all(type(v) is int for k, v in fields.items() if k != "mode")
        assert json.loads(json.dumps(fields)) == fields


class TestPrecisionSweep:
    def test_example_rows_and_budget(self, example):
        rows = precision_sweep(example, range(6, 17))
        assert [r.t for r in rows] == list(range(6, 17))
        for r in rows:
            assert r.measured_error <= 4 * r.bound
            assert r.bound == error_bound(3, r.t)

    def test_example_non_increasing(self, example):
        rows = precision_sweep(example, range(6, 17))
        errs = [r.measured_error for r in rows]
        for a, b in zip(errs, errs[1:]):
            assert b <= a + 1e-12

    def test_high_precision_reaches_float_floor(self, example):
        (row,) = precision_sweep(example, [40])
        assert row.bound < 1e-9
        assert row.measured_error <= 4e-9

    def test_median_error_decreases_with_t(self):
        matrices = [random_matrix(4, 8, seed=s, zero_fraction=0.15) for s in range(15)]
        medians = []
        for t in (6, 9, 12, 15):
            errors = [precision_sweep(m, [t])[0].measured_error for m in matrices]
            medians.append(statistics.median(errors))
        for lo, hi in zip(medians[1:], medians[:-1]):
            assert lo < hi

    @pytest.mark.parametrize("mode,real", [("complex", False), ("real_signed", True)])
    def test_rows_equal_independent_runs(self, mode, real):
        # the sweep builds the angle structure once; each row must equal a full run at its t
        m = random_matrix(8, 8, seed=41, real=real, zero_fraction=0.5)
        oracle = oracle_state(m)
        for row in precision_sweep(m, range(6, 22), mode):
            state, _, _ = run_preparation(m, row.t, mode=mode, sim="fixed")
            assert row.measured_error == state_error(state, oracle)

    @pytest.mark.parametrize("m,mode", [
        *(pytest.param(m, mode, id=name) for name, m, mode in acceptance_matrices()),
        # the benchmark's sweep matrix: K = 2^12, half zero
        *(pytest.param(random_matrix(64, 64, seed=12, real=True, zero_fraction=0.5), mode,
                       id=f"sweep-workload-{mode}") for mode in MODES),
    ])
    def test_csv_equals_rows_of_logging_runs(self, m, mode):
        # the sweep's runs keep no address log; the rows must not notice
        ts = [2, 6, 16, 21, 32, MAX_PRECISION]
        oracle, gamma = oracle_state(m), build_angle_structures(m, mode)
        prepare = prepare_complex if mode == "complex" else prepare_real
        want = []
        for t in ts:
            state, ledger = prepare(layout_image(gamma, t))
            assert len(ledger.access_log) == 2 * m.depth + 2
            want.append(SweepRow(t, state_error(state, oracle), error_bound(m.depth, t)))
        assert sweep_csv(precision_sweep(m, ts, mode)) == sweep_csv(want)

    @pytest.mark.parametrize("mode", MODES)
    def test_each_run_is_called_through_the_module_without_the_log(self, monkeypatch, mode):
        # the benchmark's tracer times the sweep's runs by wrapping these names
        calls = []

        def counted(name):
            prepare = getattr(verify, name)

            def wrapper(img, **kwargs):
                state, ledger = prepare(img, **kwargs)
                calls.append((name, img.t, kwargs["access_log"], ledger.query_count,
                              ledger.access_log))
                return state, ledger
            return wrapper

        for name in ("prepare_complex", "prepare_real"):
            monkeypatch.setattr(verify, name, counted(name))
        m = random_matrix(4, 8, seed=6, real=mode == "real_signed")
        precision_sweep(m, [9, 6, 7, 6], mode)
        name = "prepare_complex" if mode == "complex" else "prepare_real"
        assert calls == [(name, t, False, 2 * 5 + 2, []) for t in (6, 7, 9)]

    def test_csv_format(self, example):
        rows = precision_sweep(example, [8, 6, 7])
        text = sweep_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "t,measured_error,bound"
        assert len(lines) == 4
        assert [int(l.split(",")[0]) for l in lines[1:]] == [6, 7, 8]
        # full precision: fields round-trip through float()
        t, err, bound = lines[1].split(",")
        assert float(err) == rows[0].measured_error
        assert float(bound) == rows[0].bound

    def test_numpy_integer_precisions(self, example):
        assert precision_sweep(example, np.arange(6, 9)) == precision_sweep(example, [6, 7, 8])

    def test_precisions_from_a_generator(self, example):
        # the values are checked, then swept: a one-shot iterable must serve both
        rows = precision_sweep(example, (t for t in (8, 6, 7)))
        assert rows == precision_sweep(example, [6, 7, 8])


class TestRunPreparation:
    @pytest.mark.parametrize("sim", SIM_MODES)
    def test_no_angles_kept_while_simulating(self, example, monkeypatch, sim):
        # a run of either kind reads only the image, so the angle structure is freed before it
        refs = []

        def building(m, t, mode):
            img, gamma = build_memory_image(m, t, mode)
            refs.append(weakref.ref(gamma))
            return img, gamma

        monkeypatch.setattr(verify, "build_memory_image", building)
        alive = []
        run_preparation(example, 12, sim=sim, on_iteration=lambda h, s: alive.append(refs[0]()))
        assert alive == [None] * example.depth

    @pytest.mark.parametrize("t", [2, 12, MAX_PRECISION])
    @pytest.mark.parametrize("mode", MODES)
    def test_ideal_run_is_the_fixed_run_at_max_precision(self, mode, t):
        m = random_matrix(8, 4, seed=29, real=mode == "real_signed", zero_fraction=0.25)
        state, ledger, img = run_preparation(m, t, mode, "ideal")
        want_img = build_memory_image(m, MAX_PRECISION, mode)[0]
        want, want_ledger = (prepare_complex if mode == "complex" else prepare_real)(want_img)
        assert img == want_img
        for name in ("addr", "v", "w_angle", "w_aux"):
            assert np.array_equal(getattr(state, name), getattr(want, name)), name
        assert state.amp.tobytes() == want.amp.tobytes()
        assert ledger.access_log == want_ledger.access_log


# every finite float, plus the zeros and the extremes of scale
ENTRIES = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, 1e-310, 1e308, -1e308, 1e160, 1e-160]
)


@st.composite
def pipeline_cases(draw):
    """A 1x1..5x5 matrix as nested lists, a mode, and a precision t."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    mode = draw(st.sampled_from(["complex", "real_signed"]))
    real = st.lists(st.lists(ENTRIES, min_size=cols, max_size=cols), min_size=rows, max_size=rows)
    arr = np.array(draw(real), dtype=np.complex128)
    if mode == "complex":
        arr = arr + 1j * np.array(draw(real))
    return arr.tolist(), mode, draw(st.sampled_from([2, 5, 16, 32, 48]))


class TestEveryAcceptedMatrixPrepares:
    """The whole pipeline, from ``from_array`` to both simulators, on arbitrary finite input."""

    @settings(max_examples=250, deadline=None)
    @given(pipeline_cases())
    @example(([[1e-9, 1.0]], "real_signed", 32))
    @example(([[1e-9, 1.0]], "complex", 32))
    @example(([[1e-9j, 1.0]], "complex", 48))
    def test_refused_by_type_or_prepared_right(self, case):
        arr, mode, t = case
        try:
            m = ComplexMatrix.from_array(arr)
        except QramPrepError:
            return
        oracle = oracle_state(m)
        fixed, _, img = run_preparation(m, t, mode, "fixed")
        assert state_error(fixed, oracle) <= ERROR_SLACK * error_bound(m.depth, t)
        assert state_error(fixed, quantized_oracle(img)) <= 1e-12
        ideal, _, _ = run_preparation(m, t, mode, "ideal")
        assert state_error(ideal, oracle) <= 1e-10
