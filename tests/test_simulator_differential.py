"""The simulator against the closed form of its tree, and its rotation kernel against a frozen one.

After magnitude iteration h < k of a run, node (h, p) of the segment tree sits
on address 2**h + p with v = 0, and its amplitude is the product of cos (left
turn) or sin (right turn) of the half-angles along p's root path; after
iteration k it sits on address p with v = 1, and the leaf phases then give the
final state. ``verify.level_amplitudes`` computes exactly these level vectors
with no simulation machinery. Every iteration, the final state and the query
log of a run must match them: within 1e-12 on the same support, with clean
work registers. A fixed run is held to its image's decoded fields, and an ideal
run, the same loop on the t = 62 image, to the exact float64 tree.

``reference_rotate_pairs`` keeps the rotation kernel as it was before it
became pair-free and address-ordered: it pairs every state through a
scatter and writes all v = 0 outputs before all v = 1 outputs. The kernel
must give the same branches, bit for bit, in whatever order. The magnitude
loop holds float64 amplitudes; on those the kernel must give the real parts
the reference gives on a complex copy, bit for bit for angles in [0, pi].

``reference_phase_cascade`` keeps the phase kernel as it was before it became
one elementwise pass: it gathers the marked branches by index, computes their
units, and scatters the products into a copy of the amplitudes. The kernel
must give the same amplitudes, bit for bit.

Only these bit-for-bit comparisons see the signs of zero parts and the
paired path's source index.
"""
import json
import math

import numpy as np
import pytest

from qramprep import simulator
from qramprep.angles import build_angle_structures
from qramprep.cli import example_matrix
from qramprep.fixedpoint import magnitude_grid, phase_grid
from qramprep.matrix import random_matrix
from qramprep.simulator import (
    BranchState,
    _half_angle_cos_sin,
    _rotate_pairs,
    dump_state,
    phase_cascade,
    ry_cascade_by_gates,
)
from qramprep.verify import level_amplitudes, run_preparation

AMP_TOL = 1e-12


def acceptance_matrices():
    yield "example", example_matrix(), "complex"
    yield "acceptance-8x4", random_matrix(8, 4, seed=55), "complex"
    yield "acceptance-8x8-zeros", random_matrix(8, 8, seed=99, zero_fraction=0.2), "complex"
    for seed in range(4):
        m = random_matrix(4, 4, seed=seed, real=True, zero_fraction=0.25)
        yield f"acceptance-real-{seed}", m, "real_signed"
        yield f"acceptance-real-{seed}-as-complex", m, "complex"


def random_k10_matrices():
    for name, zeros in (("dense", 0.0), ("half-zero", 0.5), ("ninety-percent-zero", 0.9)):
        yield f"{name}-complex", random_matrix(32, 32, seed=7, zero_fraction=zeros), "complex"
        real = random_matrix(32, 32, seed=8, real=True, zero_fraction=zeros)
        yield f"{name}-real-signed", real, "real_signed"


CASES = [
    pytest.param(m, mode, t, sim, id=f"{name}-t{t}-{sim}")
    for name, m, mode in [*acceptance_matrices(), *random_k10_matrices()]
    for t in (2, 16, 32, 48, 62)
    for sim in ("fixed", "ideal")
]


def closed_form(img, gamma):
    """(half-angles in cell order, leaf phases) of the image's decoded fields, or of ``gamma``."""
    if gamma is None:
        angle, aux = img.field_arrays
        return 0.5 * magnitude_grid(img.t) * angle, phase_grid(img.aux_width) * aux
    return 0.5 * np.concatenate(([0.0], gamma.thetas)), gamma.phases


def supports(half, levels):
    """The nonzero nodes of each level, under the simulator's full-split rule.

    The simulator writes cos = 0 where a decoded angle is exactly pi, so a
    left turn there, and every node below it, holds no branch, while the
    closed form keeps cos(pi / 2) ~ 6e-17 as it is.
    """
    open_left = half != 0.5 * math.pi
    keep = np.ones(1, dtype=bool)
    for level in levels:
        n = keep.size
        if level.size > n:  # the leaf vector sits on the nodes of level k
            keep = np.stack((keep & open_left[n:2 * n], keep), axis=1).reshape(-1)
        keep = keep & (level != 0.0)
        yield keep


def assert_level(state, level, keep, offset, v, where):
    assert state.work_clean() and bool((state.v == v).all()), f"{where}: registers"
    # the branches stay sorted by address, so the supports compare as arrays
    assert np.array_equal(state.addr - offset, np.flatnonzero(keep)), f"{where}: supports differ"
    worst = np.abs(state.amp - level[state.addr - offset]).max()
    assert worst <= AMP_TOL, f"{where}: amplitudes differ by {worst:.3e}"


@pytest.mark.parametrize("m,mode,t,sim", CASES)
def test_every_iteration_is_its_level_of_the_closed_form(m, mode, t, sim):
    # an ideal run ignores t: at every t it must match the exact tree
    seen = []
    state, ledger, img = run_preparation(m, t, mode, sim,
                                         on_iteration=lambda h, s: seen.append(s))
    half, phases = closed_form(img, build_angle_structures(m, mode) if sim == "ideal" else None)
    levels = list(level_amplitudes(half, phases))
    keeps = list(supports(half, levels))
    k = img.k
    assert len(seen) == len(levels) - 1 == k
    for h, (s, level, keep) in enumerate(zip(seen, levels, keeps), start=1):
        assert_level(s, level, keep, *((1 << h, 0) if h < k else (0, 1)), f"iteration {h}")
    assert_level(state, levels[k], keeps[k], 0, 1, "final state")
    # queries 2h - 1 and 2h reach the nodes of level h - 1, the last two the leaves
    nodes = [(1 << h if h < k else 0) + np.flatnonzero(keep)
             for h, keep in enumerate([[True], *keeps[:k]])]
    log = [tuple(a.tolist()) for a in nodes for _ in range(2)]
    assert ledger.query_count == len(log) == 2 * k + 2
    assert ledger.access_log == log


REAL_MATRICES = [
    pytest.param(m, id=name)
    for name, m, mode in [*acceptance_matrices(), *random_k10_matrices()]
    if mode == "real_signed"
]


@pytest.mark.parametrize("sim", ["fixed", "ideal"])
@pytest.mark.parametrize("t", [2, 16, 32, 48, 62])
@pytest.mark.parametrize("m", REAL_MATRICES)
def test_real_signed_dump_is_the_complex_dump(m, t, sim):
    # real data is the one-bit case of the phase path: same state, same bytes
    runs = []
    for mode in ("real_signed", "complex"):
        state, ledger, _ = run_preparation(m, t, mode=mode, sim=sim)
        runs.append((json.dumps(dump_state(state), sort_keys=True).encode(), ledger.access_log))
    assert runs[0] == runs[1]


def reference_rotate_pairs(state, theta):
    """The rotation kernel before it became pair-free (markers written as intp)."""
    n = state.amp.size
    if state.v.any():
        order = np.lexsort((state.v, state.w_aux, state.w_angle, state.addr))
        partner = np.ones(n - 1, dtype=bool)
        for reg in (state.addr, state.w_angle, state.w_aux):
            ranked = reg[order]
            partner &= ranked[1:] == ranked[:-1]
        starts = np.concatenate(([True], ~partner))
        group = np.cumsum(starts) - 1
    else:
        order = group = np.arange(n)
        starts = np.ones(n, dtype=bool)
    rep = order[starts]
    pair = np.zeros((rep.size, 2), dtype=np.complex128)
    pair[group, state.v[order]] = state.amp[order]
    c, s = _half_angle_cos_sin(theta[rep])
    a0, a1 = pair[:, 0], pair[:, 1]
    n0 = c * a0 - s * a1
    n1 = s * a0 + c * a1
    keep0, keep1 = np.flatnonzero(n0 != 0.0), np.flatnonzero(n1 != 0.0)
    src = np.concatenate((rep[keep0], rep[keep1]))
    marker = np.zeros(src.size, dtype=np.intp)
    marker[keep0.size:] = 1
    return state._evolve(
        addr=state.addr[src],
        v=marker,
        w_angle=state.w_angle[src],
        w_aux=state.w_aux[src],
        amp=np.concatenate((n0[keep0], n1[keep1])),
    )


def branch_bits(state):
    """Sorted (addr, v, w_angle, w_aux, re bits, im bits) rows; the bits keep signed zeros."""
    parts = state.amp.view(np.float64).view(np.uint64).reshape(-1, 2)
    rows = list(zip(state.addr.tolist(), state.v.tolist(), state.w_angle.tolist(),
                    state.w_aux.tolist(), parts[:, 0].tolist(), parts[:, 1].tolist()))
    assert len(set(rows)) == len(rows)
    return sorted(rows)


SIGNED_PARTS = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 1e-300, -5e-324])


def random_state(rng, k, t, mixed):
    """Distinct branches over a few (address, w_angle) bases; v = 0 only unless ``mixed``.

    Amplitude parts mix random normals with signed zeros, tiny values and
    exact zeros, so every rotation output has a zero part somewhere.
    """
    bases = {(int(rng.integers(1 << k)), int(rng.integers(1 << t))) for _ in range(40)}
    labels = {}
    for addr, w_angle in sorted(bases):
        for v in ((0, 1), (0,), (1,))[rng.integers(3)] if mixed else (0,):
            parts = np.where(rng.random(2) < 0.5, rng.choice(SIGNED_PARTS, 2), rng.normal(size=2))
            label = (w_angle << (k + 1 + t)) | (v << k) | addr
            labels[label] = complex(parts[0], parts[1])
    return BranchState(branches=labels, t=t, aux_width=t, k=k)


def theta_per_pair(rng, state, kind):
    """One angle per branch, equal within each (address, w_angle) pair."""
    t = state.t
    table = {
        "zero": lambda n: np.zeros(n),
        "pi": lambda n: np.full(n, math.pi),
        "grid": lambda n: rng.integers(0, 1 << t, n) * 2.0 ** (2 - t),
        "random": lambda n: rng.uniform(-4.0, 4.0, n),
        "grid-in-range": lambda n: rng.integers(0, int(math.pi / 2.0 ** (2 - t)) + 1, n)
        * 2.0 ** (2 - t),
        "random-in-range": lambda n: rng.uniform(0.0, math.pi, n),
        "mixed": lambda n: rng.choice([0.0, math.pi, 2.0 ** (2 - t), rng.uniform(0, 4)], n),
    }
    keys = state.addr.astype(object) << t | state.w_angle.astype(object)
    per_key = dict(zip(sorted(set(keys.tolist())), table[kind](len(set(keys.tolist())))))
    return np.array([per_key[key] for key in keys.tolist()])


@pytest.mark.parametrize("kind", ["zero", "pi", "grid", "random", "mixed"])
@pytest.mark.parametrize("mixed", [False, True], ids=["v0", "mixed-v"])
@pytest.mark.parametrize("seed", range(6))
def test_rotation_kernel_matches_reference_bit_for_bit(seed, mixed, kind):
    rng = np.random.default_rng(seed)
    state = random_state(rng, k=5, t=4, mixed=mixed)
    theta = theta_per_pair(rng, state, kind)
    assert branch_bits(_rotate_pairs(state, theta)) == branch_bits(
        reference_rotate_pairs(state, theta)
    )


def test_bit_comparison_sees_signed_zeros():
    # rotating v = 0 branches as plain products, without the zero a1 terms,
    # differs from the reference only in the signs of zero parts; the inputs
    # above must be able to tell
    def products_only(state, theta):
        c, s = _half_angle_cos_sin(theta)
        rotated = np.stack((c * state.amp, s * state.amp), axis=1).reshape(-1)
        keep = np.flatnonzero(rotated != 0.0)
        src = keep >> 1
        return state._evolve(addr=state.addr[src], v=keep & 1, w_angle=state.w_angle[src],
                             w_aux=state.w_aux[src], amp=rotated[keep])

    caught = 0
    for seed in range(6):
        rng = np.random.default_rng(seed)
        state = random_state(rng, k=5, t=4, mixed=False)
        theta = theta_per_pair(rng, state, "grid")
        caught += branch_bits(products_only(state, theta)) != branch_bits(
            reference_rotate_pairs(state, theta)
        )
    assert caught


def as_complex(state):
    return state._evolve(amp=state.amp.astype(np.complex128))


def branch_values(state):
    """Sorted (addr, v, w_angle, w_aux, amplitude) rows: equal values, whatever the zeros' signs."""
    return sorted(zip(state.addr.tolist(), state.v.tolist(), state.w_angle.tolist(),
                      state.w_aux.tolist(), state.amp.astype(np.complex128).tolist()))


@pytest.mark.parametrize("kind", ["zero", "pi", "grid-in-range", "random-in-range",
                                  "grid", "random"])
@pytest.mark.parametrize("mixed", [False, True], ids=["v0", "mixed-v"])
@pytest.mark.parametrize("seed", range(6))
def test_real_rotation_matches_reference_on_a_complex_copy(seed, mixed, kind):
    # the magnitude loop rotates float64 amplitudes. For angles in [0, pi] the
    # frozen complex kernel writes the same real parts, bit for bit, and +0.0
    # imaginary parts; beyond that range it may write -0.0, equal in value
    rng = np.random.default_rng(seed)
    state = random_state(rng, k=5, t=4, mixed=mixed)
    n = state.amp.size
    parts = np.where(rng.random(n) < 0.5, rng.choice(SIGNED_PARTS, n), rng.normal(size=n))
    state = state._evolve(amp=parts)
    theta = theta_per_pair(rng, state, kind)
    got = _rotate_pairs(state, theta)
    want = reference_rotate_pairs(as_complex(state), theta)
    assert got.amp.dtype == np.float64
    if kind in ("grid", "random"):  # angles up to 4 and down to -4
        assert branch_values(got) == branch_values(want)
    else:
        assert branch_bits(as_complex(got)) == branch_bits(want)


def nonzero_rotate_pairs(state, theta):
    """``_rotate_pairs`` as it was when it kept what ``rotated.nonzero()`` finds."""
    amp = state.amp
    if np.count_nonzero(state.v):
        _, rep, group = np.unique(
            np.stack((state.addr.astype(np.uint64), state.w_angle, state.w_aux), axis=1),
            axis=0, return_index=True, return_inverse=True,
        )
        pair = np.zeros((rep.size, 2), dtype=amp.dtype)
        pair[group.reshape(-1), state.v] = amp
        theta, amp, a1 = theta[rep], pair[:, 0], pair[:, 1]
    else:
        rep, a1 = None, (0.0 if amp.dtype.kind == "c" else None)
    c, s = _half_angle_cos_sin(theta)
    rotated = np.empty((amp.size, 2), dtype=amp.dtype)
    n0, n1 = rotated[:, 0], rotated[:, 1]
    np.multiply(c, amp, out=n0)
    np.multiply(s, amp, out=n1)
    if a1 is not None:
        n0 -= s * a1
        n1 += c * a1
    rotated = rotated.reshape(-1)
    keep = rotated.nonzero()[0]
    src = keep >> 1 if rep is None else rep[keep >> 1]
    return state._evolve(addr=state.addr[src], v=keep & 1, w_angle=state.w_angle[src],
                         w_aux=state.w_aux[src], amp=rotated[keep])


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("mixed", [False, True], ids=["v0", "mixed-v"])
def test_underflow_to_signed_zero_dropped_as_nonzero_drops_it(dtype, mixed):
    # near theta = pi, cos(theta / 2) ~ 3e-16, and times a part of ~1e-309 it
    # underflows to +0.0 or -0.0: a mask of rotated != 0 must drop exactly the
    # outputs whose parts are all zero, as nonzero() did
    rng = np.random.default_rng(7)
    state = random_state(rng, k=5, t=4, mixed=mixed)
    n = state.amp.size
    tiny = rng.choice([1e-309, -1e-309, 3e-310, -5e-324, 1.0, -0.5], (n, 2))
    parts = tiny[:, 0] if dtype is np.float64 else tiny.view(np.complex128).reshape(-1)
    state = state._evolve(amp=parts)
    theta = np.full(n, np.nextafter(math.pi, 0.0))
    c, _ = _half_angle_cos_sin(theta)
    products = (c * parts).view(np.float64)
    underflow = products[(products == 0.0) & (parts.view(np.float64) != 0.0)]
    assert set(np.signbit(underflow).tolist()) == {False, True}  # to +0.0 and to -0.0
    got = _rotate_pairs(state, theta)
    assert got.amp.dtype == dtype
    want = nonzero_rotate_pairs(state, theta)
    assert branch_bits(as_complex(got)) == branch_bits(as_complex(want))


@pytest.mark.parametrize("seed", range(4))
def test_gate_cascade_matches_reference_kernel(monkeypatch, seed):
    rng = np.random.default_rng(seed)
    state = random_state(rng, k=4, t=6, mixed=True)
    want = branch_bits(ry_cascade_by_gates(state))
    monkeypatch.setattr(simulator, "_rotate_pairs", reference_rotate_pairs)
    assert branch_bits(ry_cascade_by_gates(state)) == want


DUMP_CASES = [
    pytest.param(m, mode, sim, id=f"{name}-{sim}")
    for name, m, mode in acceptance_matrices()
    for sim in ("fixed", "ideal")
]


@pytest.mark.parametrize("t", [2, 16, 32, 62])
@pytest.mark.parametrize("m,mode,sim", DUMP_CASES)
def test_dumps_equal_under_reference_kernel(monkeypatch, m, mode, sim, t):
    def run():
        state, ledger, _ = run_preparation(m, t, mode=mode, sim=sim)
        return json.dumps(dump_state(state), sort_keys=True).encode(), ledger.access_log

    got = run()
    monkeypatch.setattr(simulator, "_rotate_pairs", reference_rotate_pairs)
    assert run() == got


@pytest.mark.parametrize("t", [2, 32])
@pytest.mark.parametrize("m,mode,sim", DUMP_CASES)
def test_amplitudes_are_real_until_the_phase_cascade(m, mode, sim, t):
    # each magnitude-loop state holds float64 and dumps, byte for byte, as the
    # complex128 state loaded from its labels; the final state is complex128
    def check(h, state):
        rebuilt = BranchState(dict(state.branches), t=state.t, aux_width=state.aux_width,
                              k=state.k)
        assert (state.amp.dtype, rebuilt.amp.dtype) == (np.float64, np.complex128)
        assert {type(amp) for amp in state.branches.values()} == {complex}
        dumps.append(json.dumps(dump_state(state), sort_keys=True).encode())
        assert dumps[-1] == json.dumps(dump_state(rebuilt), sort_keys=True).encode(), h

    dumps = []
    state, _, img = run_preparation(m, t, mode, sim, on_iteration=check)
    assert len(dumps) == img.k
    assert state.amp.dtype == np.complex128


def reference_phase_cascade(state):
    """The phase kernel before it became one elementwise pass: gather, copy, scatter."""
    marked = np.flatnonzero(state.v)
    width = state.aux_width
    bits = state.w_aux[marked]
    phi = bits * (math.tau / (1 << width))
    quarters = bits << 2
    on_grid = (quarters & ((1 << width) - 1)) == 0
    quarter = np.where(on_grid, (quarters >> width).astype(np.int64), -1)
    units = np.array([1.0, 1.0j, -1.0, -1.0j])[quarter & 3]
    off_grid = np.flatnonzero(~on_grid)
    off_phi = phi[off_grid]
    units.real[off_grid] = np.cos(off_phi)
    units.imag[off_grid] = np.sin(off_phi)
    amp = state.amp.copy()
    amp[marked] *= units
    return state._evolve(amp=amp)


def phase_state(rng, k, t, aux_width):
    """Mixed-v branches with w_aux bits on the quarter-turn grid, one step off it, or anywhere.

    The on-grid bits are the whole quarter turns q * 2**(aux_width - 2) (0 and
    pi for a one-bit register); the near bits are one step above or below
    them. Amplitude parts mix random normals with signed zeros and tiny values.
    """
    size = 1 << aux_width
    quarter = max(size >> 2, 1)
    on = [q * quarter % size for q in range(4)]
    near = [(b + step) % size for b in on for step in (1, -1)] if aux_width > 2 else []
    choices = on + near + [int(b) for b in rng.integers(0, size, 4, dtype=np.uint64)]
    labels = {}
    for _ in range(60):
        addr, v = int(rng.integers(1 << k)), int(rng.integers(2))
        w_angle, w_aux = int(rng.integers(1 << t)), choices[rng.integers(len(choices))]
        parts = np.where(rng.random(2) < 0.5, rng.choice(SIGNED_PARTS, 2), rng.normal(size=2))
        label = (w_angle << (k + 1 + aux_width)) | (w_aux << (k + 1)) | (v << k) | addr
        labels[label] = complex(parts[0], parts[1])
    return BranchState(branches=labels, t=t, aux_width=aux_width, k=k)


@pytest.mark.parametrize("aux_width", [1, 2, 3, 8, 32, 62])
@pytest.mark.parametrize("seed", range(4))
def test_phase_kernel_matches_reference_bit_for_bit(seed, aux_width):
    rng = np.random.default_rng(seed)
    state = phase_state(rng, k=5, t=max(aux_width, 2), aux_width=aux_width)
    assert set(state.v.tolist()) == {0, 1}
    assert branch_bits(phase_cascade(state)) == branch_bits(reference_phase_cascade(state))


@pytest.mark.parametrize("t", [2, 16, 32, 62])
@pytest.mark.parametrize("m,mode,sim", DUMP_CASES)
def test_dumps_equal_under_reference_phase_kernel(monkeypatch, m, mode, sim, t):
    def run():
        state, ledger, _ = run_preparation(m, t, mode=mode, sim=sim)
        return json.dumps(dump_state(state), sort_keys=True).encode(), ledger.access_log

    def reference_on_complex(state):
        # the frozen kernel scatters into a copy of the amplitudes, so it needs
        # them complex; the magnitude loop leaves them real
        return reference_phase_cascade(as_complex(state))

    got = run()
    monkeypatch.setattr(simulator, "phase_cascade", reference_on_complex)
    assert run() == got
