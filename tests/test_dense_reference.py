"""The sparse simulator against a gate-by-gate dense statevector (``dense_reference``).

Both modes, k <= 4 and t <= 5 (at most 15 qubits), random and zero-heavy
matrices and the worked example: after every magnitude iteration and at the
end, the two states agree to 1e-12 in the packed label's bit order.
"""
import numpy as np
import pytest

import dense_reference
from qramprep.matrix import random_matrix
from qramprep.verify import resource_report, run_preparation

TOL = 1e-12


def _dense(state, n):
    vec = np.zeros(1 << n, dtype=np.complex128)
    vec[list(state.branches)] = list(state.branches.values())
    return vec


def assert_matches_dense(m, t, mode):
    sim_states = {}
    state, ledger, image = run_preparation(
        m, t, mode, "fixed", on_iteration=sim_states.__setitem__)
    dense_states = {}
    run = dense_reference.prepare(image, on_iteration=dense_states.__setitem__)
    k = image.k
    assert sorted(dense_states) == sorted(sim_states) == list(range(1, k + 1))
    for h in range(1, k + 1):
        gap = np.abs(_dense(sim_states[h], run.n) - dense_states[h]).max()
        assert gap <= TOL, f"iteration {h}: {gap:.3g}"
    assert np.abs(_dense(state, run.n) - run.vector).max() <= TOL
    assert run.n == resource_report(1 << k, t, mode).qpu_qubits
    assert run.gates == {"query": 2 * k + 2, "controlled_ry": k * t, "shift": k,
                         "controlled_phase": image.aux_width}
    assert ledger.query_count == run.gates["query"]


@pytest.mark.parametrize("mode", ["complex", "real_signed"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("t", [2, 3, 4, 5])
@pytest.mark.parametrize("zero_fraction", [0.0, 0.6], ids=["random", "zero_heavy"])
def test_simulator_matches_dense_gates(mode, k, t, zero_fraction):
    m = random_matrix(1 << (k // 2), 1 << (k - k // 2), seed=10 * k + t,
                      real=mode == "real_signed", zero_fraction=zero_fraction)
    assert_matches_dense(m, t, mode)


def test_worked_example_matches_dense_gates(example):
    assert_matches_dense(example, 5, "complex")
