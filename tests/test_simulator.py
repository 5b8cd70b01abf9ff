import dataclasses
import gc
import json
import math
import tracemalloc

import numpy as np
import pytest

from qramprep import simulator
from qramprep.errors import InvalidAmplitudeError, WidthMismatchError
from qramprep.fixedpoint import MAX_PRECISION, encode_phase
from qramprep.matrix import ComplexMatrix, random_matrix, squared_moduli
from qramprep.memory import QueryLedger, build_memory_image, cell_width, query
from qramprep.simulator import (
    BranchState,
    circular_shift,
    dump_state,
    init_state,
    marker_check,
    phase_cascade,
    prepare_complex,
    prepare_real,
    ry_cascade,
    ry_cascade_by_gates,
)
from qramprep.verify import address_amplitudes, oracle_state, run_preparation, state_error
from qramprep.weight_tree import WeightTree, build_weight_tree


def make_state(k, t, aux_width, branches):
    return BranchState(branches=branches, t=t, aux_width=aux_width, k=k)


class TestInitState:
    def test_widest_address_shifts(self):
        state = init_state(62, 8, "complex")
        assert state.addr.dtype == state.v.dtype == np.intp
        top = make_state(62, 8, 8, {(1 << 61) | 1: 1.0 + 0j})  # marker in the top address bit
        shifted = circular_shift(top)
        assert (shifted.addr.tolist(), shifted.v.tolist()) == ([2], [1])
        assert circular_shift(state).addr.tolist() == [2]

    @pytest.mark.parametrize("aux_width", [1, 62])
    def test_aux_width_bounds_are_accepted(self, aux_width):
        state = make_state(2, 8, np.int8(aux_width), {1: 1.0 + 0j})
        assert type(state.aux_width) is int and state.aux_width == aux_width
        assert phase_cascade(state).amp.tolist() == [1.0 + 0j]

    def test_state_stores_its_precision_as_a_python_int(self):
        state = make_state(2, np.int32(40), 40, {1: 1.0 + 0j})
        assert type(state.t) is int and state.t == 40
        assert type(init_state(2, np.uint8(40)).t) is int

    @pytest.mark.parametrize("mode", ["complex", "real_signed"])
    def test_label_with_every_bit_set_loads_each_register_within_its_width(self, mode):
        k, t = 3, 5
        aux_width = 1 if mode == "real_signed" else t
        label = (1 << (k + 1 + aux_width + t)) - 1
        state = make_state(k, t, aux_width, {label: 1.0 + 0j})
        registers = [state.addr, state.v, state.w_angle, state.w_aux]
        assert [r.tolist() for r in registers] == [[7], [1], [31], [(1 << aux_width) - 1]]
        assert list(state.branches) == [label]

    def test_branches_repr_is_the_label_dict(self):
        state = make_state(2, 4, 4, {1: 1.0 + 0j, (3 << 7) | 2: -0.5j})
        assert repr(state.branches) == repr({1: 1.0 + 0j, (3 << 7) | 2: -0.5j})

    @pytest.mark.parametrize("mode", ["complex", "real_signed"])
    @pytest.mark.parametrize("k,t", [(1, 2), (3, 12), (12, 21), (20, 32), (62, 62)])
    def test_matches_the_state_built_from_its_label(self, mode, k, t):
        # init_state builds its arrays directly; the label path is the reference.
        # The magnitude loop starts real: init_state's amplitude is float64,
        # while a state loaded from labels holds complex128
        got = init_state(k, t, mode)
        want = BranchState(branches={1: 1 + 0j}, t=t, aux_width=cell_width(t, mode) - t, k=k)
        assert dict(got.branches) == dict(want.branches) == {1: 1 + 0j}
        assert (got.t, got.aux_width, got.k) == (want.t, want.aux_width, want.k)
        for name in ("addr", "v", "w_angle", "w_aux", "amp"):
            mine, ref = getattr(got, name), getattr(want, name)
            assert mine.tolist() == ref.tolist(), name
            assert not mine.flags.writeable and not ref.flags.writeable, name
            if name != "amp":
                assert mine.dtype == ref.dtype, name
        assert (got.amp.dtype, want.amp.dtype) == (np.float64, np.complex128)


def load_by_constructor(branches):
    return make_state(2, 8, 8, branches)


def load_by_setter(branches):
    state = init_state(2, 8)
    state.branches = branches
    return state


def load_by_replace(branches):
    return dataclasses.replace(init_state(2, 8), branches=branches)


@pytest.mark.parametrize("load", [load_by_constructor, load_by_setter, load_by_replace])
class TestBranchLoading:
    """Every label -> amplitude load checks each pair, at k = 2, t = aux_width = 8."""

    def test_widest_label_loads(self, load):
        label = (1 << 19) - 1
        assert dict(load({label: -1.0}).branches) == {label: -1.0 + 0j}


@pytest.mark.parametrize("branches,error", [({3: None}, InvalidAmplitudeError),
                                            ({1 << 20: 1.0}, WidthMismatchError),
                                            (5, WidthMismatchError),
                                            (None, WidthMismatchError),
                                            ([(1, 2, 3)], WidthMismatchError),
                                            ([(3, 1.0)], WidthMismatchError)])
def test_refused_branches_leave_the_state_as_it_was(branches, error):
    state = make_state(2, 8, 8, {1: 0.6, 2: 0.8})
    with pytest.raises(error):
        state.branches = branches
    assert dict(state.branches) == {1: 0.6 + 0j, 2: 0.8 + 0j}
    assert state.addr.tolist() == [1, 2]


class TestReplaceState:
    def test_without_branches_keeps_them(self):
        state = make_state(2, 8, 8, {1: 0.6, (5 << 11) | 2: 0.8j})
        same = dataclasses.replace(state)
        assert same == state and same is not state
        for name in ("addr", "v", "w_angle", "w_aux", "amp"):
            assert getattr(same, name).tolist() == getattr(state, name).tolist(), name


class TestPreparationInvariants:
    """The loop keeps the state sorted by address and never sorts it."""

    @pytest.mark.parametrize("sim", ["fixed", "ideal"])
    @pytest.mark.parametrize("mode", ["complex", "real_signed"])
    @pytest.mark.parametrize("zeros", [0.0, 0.5])
    def test_sorted_intp_addresses_and_no_lexsort(self, monkeypatch, mode, sim, zeros):
        def no_sort(*args, **kwargs):
            raise AssertionError("the preparation loop sorted its branches")

        monkeypatch.setattr(np, "lexsort", no_sort)
        monkeypatch.setattr(np, "unique", no_sort)  # the pairing sort of _rotate_pairs
        seen = []

        def check(h, state):
            assert state.addr.dtype == np.intp
            assert np.all(state.addr[1:] > state.addr[:-1]), f"iteration {h} out of order"
            seen.append(h)

        m = random_matrix(16, 8, seed=3, real=mode == "real_signed", zero_fraction=zeros)
        state, _, img = run_preparation(m, 16, mode=mode, sim=sim, on_iteration=check)
        assert seen == list(range(1, img.k + 1))
        assert np.all(state.addr[1:] > state.addr[:-1])

    @pytest.mark.parametrize("mode", ["complex", "real_signed"])
    def test_each_step_is_called_through_the_module(self, monkeypatch, mode):
        # the benchmark's tracer times the steps by wrapping these module names
        calls = dict.fromkeys(["query", "ry_cascade", "circular_shift", "phase_cascade"], 0)

        def counted(name):
            step = getattr(simulator, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return step(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(simulator, name, counted(name))
        m = random_matrix(8, 4, seed=2, real=mode == "real_signed")
        img, _ = build_memory_image(m, 12, mode)
        prepare = prepare_complex if mode == "complex" else prepare_real
        prepare(img)
        k = img.k
        assert calls == {"query": 2 * k + 2, "ry_cascade": k, "circular_shift": k,
                         "phase_cascade": 1}

    @pytest.mark.parametrize("t", [2, 16, MAX_PRECISION])
    @pytest.mark.parametrize("mode", ["complex", "real_signed"])
    @pytest.mark.parametrize("zeros", [0.0, 0.5])
    def test_a_run_without_the_address_log_differs_only_in_the_log(self, mode, t, zeros):
        m = random_matrix(16, 16, seed=12, real=mode == "real_signed", zero_fraction=zeros)
        img, _ = build_memory_image(m, t, mode)
        prepare = prepare_complex if mode == "complex" else prepare_real
        runs = [prepare(img, access_log=access_log) for access_log in (True, False)]
        (logged, logged_ledger), (state, ledger) = runs
        dump = json.dumps(dump_state(state), sort_keys=True).encode()
        assert dump == json.dumps(dump_state(logged), sort_keys=True).encode()
        assert (ledger.query_count, ledger.routing_time) == (
            logged_ledger.query_count, logged_ledger.routing_time) == (2 * 8 + 2, 8 * (2 * 8 + 2))
        assert (ledger.reached, ledger.access_log) == (None, [])
        assert len(logged_ledger.access_log) == 2 * 8 + 2

    @pytest.mark.parametrize("mode", ["complex", "real_signed"])
    @pytest.mark.parametrize("k", range(1, 17))
    def test_norm_agrees_with_the_exactly_rounded_sum(self, mode, k):
        m = random_matrix(1 << k // 2, 1 << (k + 1) // 2, seed=k, real=mode == "real_signed")
        state, _, _ = run_preparation(m, 32, mode)
        amp = state.amp
        exact = math.sqrt(math.fsum((amp.real * amp.real + amp.imag * amp.imag).tolist()))
        assert abs(state.norm() - exact) <= 1e-15


class TestRyCascade:
    def test_direct_unitary_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            t = int(rng.integers(2, 17))
            bits = int(rng.integers(0, 1 << t))
            a0, a1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            nrm = math.sqrt(abs(a0) ** 2 + abs(a1) ** 2)
            a0, a1 = a0 / nrm, a1 / nrm
            state = make_state(1, t, t, {
                bits << (2 + t): a0,
                (bits << (2 + t)) | 2: a1,
            })
            out = ry_cascade(state)
            theta = bits * 2.0 ** (2 - t)
            c, s = math.cos(theta / 2), math.sin(theta / 2)
            want0, want1 = c * a0 - s * a1, s * a0 + c * a1
            got0 = out.branches.get(bits << (2 + t), 0j)
            got1 = out.branches.get((bits << (2 + t)) | 2, 0j)
            assert abs(got0 - want0) <= 1e-12 and abs(got1 - want1) <= 1e-12


class TestPhaseCascade:
    def test_zero_phase_identity(self):
        state = make_state(1, 8, 8, {2: 0.5 + 0.5j})
        assert phase_cascade(state).branches == state.branches

    def test_half_turn_negates_exactly(self):
        t = 8
        bits = encode_phase(math.pi, t)
        label = (bits << 2) | 2  # v = 1, k = 1
        state = make_state(1, t, t, {label: 0.25 + 0.5j})
        out = phase_cascade(state)
        assert out.branches[label] == -(0.25 + 0.5j)

    def test_unmarked_branch_unchanged(self):
        t = 8
        bits = encode_phase(math.pi, t)
        label = bits << 2  # v = 0
        state = make_state(1, t, t, {label: 0.75 + 0j})
        assert phase_cascade(state).branches[label] == 0.75 + 0j

    def test_example_phase_factor(self):
        t = 16
        bits = encode_phase(2.034, t)
        label = (bits << 2) | 2
        out = phase_cascade(make_state(1, t, t, {label: 1.0 + 0j}))
        want = complex(math.cos(2.034), math.sin(2.034))
        assert abs(out.branches[label] - want) <= math.pi * 2 ** -t

    @pytest.mark.parametrize("turns", [0, 1, 2, 3])
    def test_whole_quarter_turns_are_exact_units(self, turns):
        # the widest register too: a t = 62 image holds pi / 2 as 2**60
        k, t = 1, MAX_PRECISION
        label = (turns << (t - 2) << (k + 1)) | (1 << k)  # v = 1, address 0
        out = phase_cascade(make_state(k, t, t, {label: 1.0 + 0j}))
        assert out.branches[label] == [1, 1j, -1, -1j][turns]


class TestOneBitPhaseCascade:
    """The real_signed leaf step: a one-bit phase register holds phi / pi."""

    def test_clear_bit_identity(self):
        state = make_state(1, 8, 1, {2: 0.5 + 0j})  # v=1, phase bit 0
        assert phase_cascade(state).branches == state.branches

    def test_half_turn_on_marked_branch_negates_exactly(self):
        label = 0b110  # k=1: phase bit 1, v=1, a=0
        out = phase_cascade(make_state(1, 8, 1, {label: 0.5 + 0j}))
        assert out.branches[label] == -0.5 + 0j
        assert math.copysign(1.0, out.amp[0].imag) == 1.0  # no negative zero

    def test_half_turn_without_marker_unchanged(self):
        label = 0b100  # phase bit 1, v=0
        state = make_state(1, 8, 1, {label: 0.5 + 0j})
        assert phase_cascade(state).branches[label] == 0.5 + 0j


class TestPhaseCascadeFootprint:
    """Traced peak of the phase cascade on the final state of a K=2^14, t=32 run."""

    BYTES_PER_BRANCH = 64  # the result alone takes 16

    @pytest.mark.parametrize("sim", ["fixed", "ideal"])
    @pytest.mark.parametrize("mode", ["complex", "real_signed"])
    def test_peak_per_branch(self, monkeypatch, mode, sim):
        m = random_matrix(128, 128, seed=14, real=mode == "real_signed")
        seen = []

        def capture(state):
            seen.append(state)
            return state

        monkeypatch.setattr(simulator, "phase_cascade", capture)
        run_preparation(m, 32, mode, sim)
        monkeypatch.undo()
        [state] = seen
        assert state.amp.size == 1 << 14
        phase_cascade(state)  # let lazy set-up happen untraced
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = phase_cascade(state)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert out.amp.size == state.amp.size
        assert peak <= self.BYTES_PER_BRANCH * state.amp.size


class TestCircularShift:
    def test_marker_moves_into_address(self):
        # v=1, a=001 -> v=0, a=011
        state = make_state(3, 8, 8, {0b1001: 1.0 + 0j})
        out = circular_shift(state)
        assert out.branches == {0b0011: 1.0 + 0j}

    def test_fixed_point(self):
        state = make_state(3, 8, 8, {0: 1.0 + 0j})
        assert circular_shift(state).branches == {0: 1.0 + 0j}

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_cycle_order_k_plus_one(self, k):
        for raw in range(1 << (k + 1)):
            state = make_state(k, 4, 4, {raw: 1.0 + 0j})
            for _ in range(k + 1):
                state = circular_shift(state)
            assert state.branches == {raw: 1.0 + 0j}


class TestPrepareComplex:
    def test_example_intermediate_states(self, example):
        seen = {}
        run_preparation(example, 16, sim="ideal", on_iteration=lambda h, s: seen.update({h: s}))
        h1 = {l & 7: abs(a) for l, a in seen[1].branches.items()}
        assert h1 == pytest.approx(
            {0b010: math.sqrt(20 / 33), 0b011: math.sqrt(13 / 33)}, abs=1e-12
        )
        h2 = {l & 7: abs(a) for l, a in seen[2].branches.items()}
        assert h2 == pytest.approx(
            {
                0b100: math.sqrt(10 / 33),
                0b101: math.sqrt(10 / 33),
                0b110: math.sqrt(6 / 33),
                0b111: math.sqrt(7 / 33),
            },
            abs=1e-12,
        )
        h3 = seen[3]
        assert all(h3.v == 1)
        moduli = [abs(h3.branches[(1 << 3) | p]) for p in range(8)]
        expected = [math.sqrt(w / 33) for w in [5, 5, 9, 1, 2, 4, 5, 2]]
        assert moduli == pytest.approx(expected, abs=1e-12)

    def test_access_log_walks_levels(self):
        m = random_matrix(4, 4, seed=31)  # dense: every cell weight positive
        _, ledger, img = run_preparation(m, 10)
        k = img.k
        for h in range(1, k + 1):
            expected = tuple(range(1 << (h - 1), 1 << h))
            assert ledger.access_log[2 * (h - 1)] == expected
            assert ledger.access_log[2 * (h - 1) + 1] == expected
        assert ledger.access_log[2 * k] == tuple(range(img.size))

    def test_padding_never_reaches_the_state(self):
        # 2x3 input pads to 2x4; column 3 must end with exactly zero amplitude
        m = ComplexMatrix.from_array([[1 + 1j, 2, 3j], [4, 5 - 2j, 6]])
        assert (m.rows, m.cols) == (2, 4)
        for sim in ("fixed", "ideal"):
            state, _, _ = run_preparation(m, 14, sim=sim)
            vec = address_amplitudes(state)
            assert vec[3] == 0 and vec[7] == 0
        assert state_error(state, oracle_state(m)) <= 1e-10


class TestPrepareReal:
    def test_plus_minus_one(self):
        m = ComplexMatrix.from_array([[1.0, -1.0]])
        state, ledger, _ = run_preparation(m, 16, "real_signed", "ideal")
        vec = address_amplitudes(state)
        assert vec == pytest.approx(np.array([1, -1]) / math.sqrt(2), abs=1e-15)
        assert ledger.query_count == 4

    def test_three_minus_four(self):
        m = ComplexMatrix.from_array([[3.0, -4.0]])
        state, _, _ = run_preparation(m, 16, "real_signed", "ideal")
        vec = address_amplitudes(state)
        assert vec == pytest.approx(np.array([0.6, -0.8]), abs=1e-15)


class TestMarkerCheck:
    def test_negative_control_corrupted_amplitude(self, example):
        tree = build_weight_tree(squared_moduli(example))
        seen = {}
        run_preparation(example, 16, sim="ideal", on_iteration=lambda h, s: seen.update({h: s}))
        good = seen[2]
        assert marker_check(good, 2, tree)
        label = next(iter(good.branches))
        corrupted = {**good.branches, label: good.branches[label] * 1.5}
        bad = BranchState(corrupted, t=good.t, aux_width=good.aux_width, k=good.k)
        assert not marker_check(bad, 2, tree)

    def test_negative_control_wrong_address(self, example):
        tree = build_weight_tree(squared_moduli(example))
        seen = {}
        run_preparation(example, 16, sim="ideal", on_iteration=lambda h, s: seen.update({h: s}))
        good = seen[1]
        moved = {label ^ 0b100: amp for label, amp in good.branches.items()}
        bad = BranchState(moved, t=good.t, aux_width=good.aux_width, k=good.k)
        assert not marker_check(bad, 1, tree)

    def test_final_level_requires_marker_set(self, example):
        tree = build_weight_tree(squared_moduli(example))
        seen = {}
        run_preparation(example, 16, sim="ideal", on_iteration=lambda h, s: seen.update({h: s}))
        assert marker_check(seen[3], 3, tree)
        stripped = {l & ~(1 << 3): a for l, a in seen[3].branches.items()}
        bad = BranchState(stripped, t=16, aux_width=16, k=3)
        assert not marker_check(bad, 3, tree)

    def test_floor_carries_the_check_at_high_precision(self, example):
        # at t = 48 a half step is ~1e-14, so the 1e-10 floor is the tolerance
        tree = build_weight_tree(squared_moduli(example))
        results = []
        run_preparation(example, 48,
                        on_iteration=lambda h, s: results.append(marker_check(s, h, tree)))
        assert results == [True, True, True]

    def test_tolerance_is_k_half_magnitude_steps(self, example):
        # at t = 8 a half step (2**-7) dwarfs the 1e-10 floor, so this pins k * grid / 2;
        # the ideal state, read with t = 8 registers, is off by round-off alone
        tree = build_weight_tree(squared_moduli(example))
        seen = {}
        run_preparation(example, 8, sim="ideal", on_iteration=lambda h, s: seen.update({h: s}))
        good = BranchState(dict(seen[2].branches), t=8, aux_width=8, k=seen[2].k)
        assert marker_check(good, 2, tree)
        half_steps = good.k * 2.0 ** (2 - 8) / 2
        label = max(good.branches, key=lambda lab: abs(good.branches[lab]))
        amp = good.branches[label]

        def moved(by):
            shifted = {**good.branches, label: amp * (1 + by / abs(amp))}
            return BranchState(shifted, t=good.t, aux_width=good.aux_width, k=good.k)

        assert marker_check(moved(0.9 * half_steps), 2, tree)
        assert not marker_check(moved(1.1 * (half_steps + 1e-10)), 2, tree)

    def test_zero_root_weight(self, example):
        state, _ = prepare_complex(build_memory_image(example, 16, "complex")[0])
        zero_tree = WeightTree(levels=tuple(np.zeros(1 << h) for h in range(4)))
        assert not marker_check(state, 3, zero_tree)

    def test_dirty_work_registers(self, example):
        tree = build_weight_tree(squared_moduli(example))
        seen = {}
        run_preparation(example, 16, sim="ideal", on_iteration=lambda h, s: seen.update({h: s}))
        good = seen[3]
        dirty = {l | (1 << good.angle_shift): a for l, a in good.branches.items()}
        bad = BranchState(dirty, t=good.t, aux_width=good.aux_width, k=good.k)
        assert marker_check(good, 3, tree) and not marker_check(bad, 3, tree)


class TestStateHygiene:
    @pytest.mark.parametrize("mode", ["complex", "real_signed"])
    def test_arrays_read_only_after_every_operation(self, mode):
        # states share arrays and cache their label dict: no op may leave one writable
        img, _ = build_memory_image(random_matrix(4, 4, seed=5, real=mode == "real_signed"),
                                    8, mode)
        ledger = QueryLedger(img.k)
        ask = lambda s: query(img, s, ledger)  # noqa: E731
        ops = [ask, ry_cascade, ask, circular_shift] * img.k + [ask, phase_cascade, ask]
        states = [make_state(2, 8, 8, {1: 1.0 + 0j}), init_state(img.k, 8, mode)]
        for op in ops:
            states.append(op(states[-1]))
        states.append(ry_cascade_by_gates(states[2]))  # pairs v = 0 and v = 1 branches
        states.append(dataclasses.replace(states[-1], branches=dict(states[-1].branches)))
        for state in states:
            for name in ("addr", "v", "w_angle", "w_aux", "amp"):
                assert not getattr(state, name).flags.writeable, name


class TestDumpState:
    def test_schema_and_order(self, example):
        state, _, _ = run_preparation(example, 12, sim="ideal")
        doc = dump_state(state)
        assert doc["k"] == 3
        addresses = [row["address"] for row in doc["branches"]]
        assert addresses == sorted(addresses)
        assert all(set(row) == {"address", "v", "amp"} for row in doc["branches"])
        assert all(row["v"] == 1 for row in doc["branches"])

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_setting_restored(self, enabled):
        img, _ = build_memory_image(random_matrix(8, 8, seed=4), 16, "complex")
        state, _ = prepare_complex(img)
        was = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            dump_state(state)
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was else gc.disable()

    def test_bytes_match_rows_built_with_the_collector_on(self):
        img, _ = build_memory_image(random_matrix(16, 16, seed=5), 24, "complex")
        state, _ = prepare_complex(img)
        order = np.lexsort((state.v, state.addr))
        rows = [
            {"address": int(a), "v": int(v), "amp": [float(z.real), float(z.imag)]}
            for a, v, z in zip(state.addr[order], state.v[order], state.amp[order])
        ]
        want = json.dumps({"k": state.k, "branches": rows}, sort_keys=True)
        assert json.dumps(dump_state(state), sort_keys=True) == want
