import math
import statistics
import weakref

import numpy as np
import pytest

from qramprep.errors import (
    DirtyStateError,
    NotPowerOfTwoError,
    PrecisionOutOfRangeError,
    WrongModeError,
)
from qramprep import verify
from qramprep.matrix import ComplexMatrix, random_matrix
from qramprep.memory import build_memory_image
from qramprep.simulator import BranchState
from qramprep.verify import (
    error_bound,
    oracle_state,
    precision_sweep,
    resource_report,
    run_preparation,
    state_error,
    sweep_csv,
)


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

    def test_ideal_run_close(self, example):
        state, _, _ = run_preparation(example, 16, sim="ideal")
        assert state_error(state, oracle_state(example)) <= 1e-10

    def test_fixed_run_within_budget(self, example):
        state, _, _ = run_preparation(example, 10, sim="fixed")
        assert state_error(state, oracle_state(example)) <= 4 * (3 + math.pi) * 2 ** -10

    def test_dirty_state_rejected(self, example):
        vec = oracle_state(example)
        clean = state_from_vector(vec)
        state = BranchState({**clean.branches, 3: 0.5}, t=8, aux_width=8, k=clean.k)  # v = 0 branch
        with pytest.raises(DirtyStateError):
            state_error(state, vec)


class TestScaleRobustness:
    """Angles, phases and the oracle do not depend on the scale of the matrix."""

    SCALES = [1e-300, 1e-170, 1e-160, 1e160, 1e300]

    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("mode", ["complex", "real_signed"])
    def test_ideal_run_at_any_scale(self, scale, mode):
        base = random_matrix(8, 8, seed=3, real=mode == "real_signed", zero_fraction=0.25)
        m = ComplexMatrix.from_array(base.as_2d() * scale)
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
        grid = base.as_2d()
        m = ComplexMatrix.from_array(np.ldexp(grid.real, e) + 1j * np.ldexp(grid.imag, e))
        state, _, img = run_preparation(m, 32)
        base_state, _, base_img = run_preparation(base, 32)
        assert img == base_img
        assert np.array_equal(state.amp, base_state.amp)
        assert np.array_equal(oracle_state(m), oracle_state(base))


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

    def test_validation(self):
        with pytest.raises(NotPowerOfTwoError):
            error_bound(0, 10)
        with pytest.raises(PrecisionOutOfRangeError):
            error_bound(3, 1)

    def test_bool_k_refused(self):
        with pytest.raises(NotPowerOfTwoError):
            error_bound(True, 8)

    def test_numpy_integer_k(self):
        assert error_bound(np.int64(3), 10) == error_bound(3, 10)


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

    def test_real_signed(self):
        rep = resource_report(4, 8, "real_signed")
        assert rep.qpu_qubits == 2 + 8 + 2
        assert rep.cell_width_bits == 9
        assert rep.memory_bits == 36
        assert rep.query_count == 6

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

    def test_not_power_of_two(self):
        with pytest.raises(NotPowerOfTwoError):
            resource_report(1000, 32)

    def test_bad_mode(self):
        with pytest.raises(WrongModeError):
            resource_report(8, 8, "dense")


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

    def test_smallest_sufficient_t(self, example):
        k = example.depth
        for eta in (1e-3, 1e-6):
            t_star = 2
            while error_bound(k, t_star) > eta:
                t_star += 1
            assert error_bound(k, t_star) <= eta < error_bound(k, t_star - 1)
            (row,) = precision_sweep(example, [t_star])
            assert row.measured_error <= 4 * eta

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

    @pytest.mark.parametrize("t", [7.9, 8.0, "8"])
    def test_each_precision_checked_before_int(self, example, t):
        with pytest.raises(PrecisionOutOfRangeError):
            precision_sweep(example, [6, t])

    def test_numpy_integer_precisions(self, example):
        assert precision_sweep(example, np.arange(6, 9)) == precision_sweep(example, [6, 7, 8])


class TestRunPreparation:
    def test_oracle_equivalence_sample(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            k = int(rng.integers(1, 8))
            m_exp = int(rng.integers(0, k + 1))
            m = random_matrix(
                1 << m_exp, 1 << (k - m_exp), seed=int(rng.integers(1 << 30)),
                zero_fraction=0.2,
            )
            state, ledger, _ = run_preparation(m, 12, sim="ideal")
            assert state_error(state, oracle_state(m)) <= 1e-10
            assert ledger.query_count == 2 * m.depth + 2

    def test_bad_sim_mode(self, example):
        with pytest.raises(WrongModeError):
            run_preparation(example, 8, sim="approximate")

    @pytest.mark.parametrize("sim,kept", [("fixed", False), ("ideal", True)])
    def test_angles_kept_only_for_an_ideal_run(self, example, monkeypatch, sim, kept):
        # a fixed run reads only the image, so the angle structure is freed before it
        refs = []

        def building(m, t, mode):
            img, gamma = build_memory_image(m, t, mode)
            refs.append(weakref.ref(gamma))
            return img, gamma

        monkeypatch.setattr(verify, "build_memory_image", building)
        alive = []
        run_preparation(example, 12, sim=sim, on_iteration=lambda h, s: alive.append(refs[0]()))
        assert [gamma is not None for gamma in alive] == [kept] * example.depth
