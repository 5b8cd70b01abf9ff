"""The array simulator against a per-branch dict reference, step by step.

The reference below runs the whole preparation procedure on a dict from the
packed basis label

    [ w_angle : t bits | w_aux : t or 1 bits | v : 1 bit | a : k bits ]

to its amplitude, one branch at a time with scalar ``math`` calls, the way
the simulator worked before its registers became arrays. It lives here only.
Both must agree on the label set and on every amplitude (1e-12) after each
magnitude iteration and at the end, and on the query ledger. Its leaf step
for real_signed images is its own sign flip, an independent check of the
simulator's one-bit phase cascade.

``reference_rotate_pairs`` keeps the rotation kernel as it was before it
became pair-free and address-ordered: it pairs every state through a
scatter and writes all v = 0 outputs before all v = 1 outputs. The kernel
must give the same branches, bit for bit, in whatever order.

``reference_phase_cascade`` keeps the phase kernel as it was before it became
one elementwise pass: it gathers the marked branches by index, computes their
units, and scatters the products into a copy of the amplitudes. The kernel
must give the same amplitudes, bit for bit.
"""
import json
import math

import numpy as np
import pytest

from qramprep import simulator
from qramprep.angles import ComplexAngleTree
from qramprep.cli import example_matrix
from qramprep.matrix import random_matrix
from qramprep.memory import build_memory_image
from qramprep.simulator import (
    BranchState,
    _half_angle_cos_sin,
    _rotate_pairs,
    dump_state,
    phase_cascade,
    prepare_complex,
    prepare_real,
    ry_cascade_by_gates,
)
from qramprep.verify import run_preparation

AMP_TOL = 1e-12


class DictReference:
    """The preparation procedure over ``dict[label, complex]``."""

    def __init__(self, img, exact):
        self.img, self.exact = img, exact
        self.cells = img.cells  # built from the field arrays on each read: read it once
        self.k, self.t, self.aux = img.k, img.t, img.aux_width
        self.addr_mask = (1 << self.k) - 1
        self.v_mask = 1 << self.k
        self.aux_shift = self.k + 1
        self.angle_shift = self.k + 1 + self.aux
        self.access_log = []

    def query(self, branches):
        self.access_log.append(tuple(sorted({label & self.addr_mask for label in branches})))
        cells = self.cells
        return {label ^ (cells[label & self.addr_mask] << self.aux_shift): amp
                for label, amp in branches.items()}

    def theta(self, base):
        if self.exact is None:
            return (base >> self.angle_shift) * 2.0 ** (2 - self.t)
        z = base & self.addr_mask
        return 0.0 if z == 0 else float(self.exact.thetas[z - 1])  # z = 0 is the dummy

    def ry_cascade(self, branches):
        out, done = {}, set()
        for label in branches:
            base = label & ~self.v_mask
            if base in done:
                continue
            done.add(base)
            a0 = branches.get(base, 0.0j)
            a1 = branches.get(base | self.v_mask, 0.0j)
            theta = self.theta(base)
            if theta == 0.0:
                c, s = 1.0, 0.0
            elif theta == math.pi:
                c, s = 0.0, 1.0
            else:
                c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
            n0, n1 = c * a0 - s * a1, s * a0 + c * a1
            if n0 != 0.0:
                out[base] = n0
            if n1 != 0.0:
                out[base | self.v_mask] = n1
        return out

    def shift(self, branches):
        out = {}
        for label, amp in branches.items():
            assert label >> (self.k + 1) == 0, "work registers dirty at the shift"
            v = (label >> self.k) & 1
            addr = label & self.addr_mask
            new_v = (addr >> (self.k - 1)) & 1
            out[(new_v << self.k) | ((addr << 1) & self.addr_mask) | v] = amp
        return out

    def phase(self, branches):
        out = {}
        for label, amp in branches.items():
            if label & self.v_mask:
                if self.exact is None:
                    bits = (label >> self.aux_shift) & ((1 << self.aux) - 1)
                    quarters, rem = divmod(4 * bits, 1 << self.t)
                    if rem == 0:
                        unit = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)[quarters & 3]
                    else:
                        phi = bits * (math.tau / (1 << self.t))
                        unit = complex(math.cos(phi), math.sin(phi))
                else:
                    phi = float(self.exact.phases[label & self.addr_mask])
                    if phi == 0.0 or phi == math.pi:
                        unit = 1.0 + 0.0j if phi == 0.0 else -1.0 + 0.0j
                    else:
                        unit = complex(math.cos(phi), math.sin(phi))
                amp = amp * unit
            out[label] = amp
        return out

    def sign(self, branches):
        flip = self.v_mask | (1 << self.aux_shift)
        return {label: (-amp if label & flip == flip else amp) for label, amp in branches.items()}

    def run(self):
        steps = []
        branches = {1: 1.0 + 0.0j}
        for _ in range(self.k):
            branches = self.query(branches)
            branches = self.ry_cascade(branches)
            branches = self.query(branches)
            branches = self.shift(branches)
            steps.append(branches)
        branches = self.query(branches)
        if self.img.mode == "complex":
            branches = self.phase(branches)
        else:
            branches = self.sign(branches)
        return steps, self.query(branches)


def assert_same_state(got, want, where):
    assert set(got) == set(want), f"{where}: label sets differ"
    worst = max((abs(got[label] - amp) for label, amp in want.items()), default=0.0)
    assert worst <= AMP_TOL, f"{where}: amplitudes differ by {worst:.3e}"


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


@pytest.mark.parametrize("m,mode,t,sim", CASES)
def test_array_simulator_matches_dict_reference(m, mode, t, sim):
    img, gamma = build_memory_image(m, t, mode)
    exact = gamma if sim == "ideal" else None
    prepare = prepare_complex if mode == "complex" else prepare_real
    seen = []
    state, ledger = prepare(
        img, exact=exact, on_iteration=lambda h, s: seen.append(dict(s.branches))
    )

    reference = DictReference(img, exact)
    steps, final = reference.run()
    assert len(seen) == len(steps) == img.k
    for h, (got, want) in enumerate(zip(seen, steps), start=1):
        assert_same_state(got, want, f"iteration {h}")
    assert_same_state(dict(state.branches), final, "final state")
    assert ledger.query_count == len(reference.access_log) == 2 * img.k + 2
    assert ledger.access_log == reference.access_log


def test_reference_exercises_zero_pairs_and_tiny_amplitudes():
    # the comparison covers dropped zero-weight branches ...
    m = random_matrix(32, 32, seed=7, zero_fraction=0.9)
    img, gamma = build_memory_image(m, 48, "complex")
    _, ideal = DictReference(img, gamma).run()
    assert len(ideal) == np.count_nonzero(m.entries)  # zero entries never materialize
    # ... and the residues of quantized full splits, far below 1e-15 at t = 46,
    # which a fixed run keeps like any other amplitude
    m = random_matrix(32, 32, seed=7, zero_fraction=0.5)
    img, _ = build_memory_image(m, 46, "complex")
    _, want = DictReference(img, None).run()
    state, _ = prepare_complex(img)
    tiny = int(np.count_nonzero(np.abs(state.amp) < 1e-15))
    assert tiny == sum(abs(amp) < 1e-15 for amp in want.values()) > 0
    assert_same_state(dict(state.branches), want, "t = 46")


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


def reference_phase_cascade(state, exact=None):
    """The phase kernel before it became one elementwise pass: gather, copy, scatter."""
    marked = np.flatnonzero(state.v)
    if exact is None:
        width = state.aux_width
        bits = state.w_aux[marked]
        phi = bits * (math.tau / (1 << width))
        quarters = bits << 2
        on_grid = (quarters & ((1 << width) - 1)) == 0
        quarter = np.where(on_grid, (quarters >> width).astype(np.int64), -1)
    else:
        phi = exact.phases[state.addr[marked]]
        turns = np.rint(phi / (0.5 * math.pi))
        quarter = np.where(turns * (0.5 * math.pi) == phi, turns, -1.0).astype(np.int64)
    units = np.array([1.0, 1.0j, -1.0, -1.0j])[quarter & 3]
    off_grid = np.flatnonzero(quarter < 0)
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


# whole quarter turns, with a full turn and two negative ones outside [0, 2*pi)
QUARTER_PHASES = [0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi, math.tau, -0.5 * math.pi, -math.pi]


@pytest.mark.parametrize("phases", ["on-grid", "off-grid", "mixed"])
@pytest.mark.parametrize("seed", range(4))
def test_ideal_phase_kernel_matches_reference_bit_for_bit(seed, phases):
    rng = np.random.default_rng(seed)
    k = 5
    state = phase_state(rng, k=k, t=16, aux_width=16)
    on = rng.choice(QUARTER_PHASES, 1 << k)
    near = np.nextafter(on, rng.choice([-1.0, 7.0], 1 << k))  # one ulp off, some below 0
    anywhere = rng.uniform(-math.tau, 2 * math.tau, 1 << k)
    table = {
        "on-grid": on,
        "off-grid": np.where(rng.random(1 << k) < 0.5, near, anywhere),
        "mixed": np.choose(rng.integers(0, 3, 1 << k), (on, near, anywhere)),
    }
    exact = ComplexAngleTree(thetas=np.zeros((1 << k) - 1), phases=table[phases], mode="complex")
    assert branch_bits(phase_cascade(state, exact)) == branch_bits(
        reference_phase_cascade(state, exact)
    )


@pytest.mark.parametrize("t", [2, 16, 32, 62])
@pytest.mark.parametrize("m,mode,sim", DUMP_CASES)
def test_dumps_equal_under_reference_phase_kernel(monkeypatch, m, mode, sim, t):
    def run():
        state, ledger, _ = run_preparation(m, t, mode=mode, sim=sim)
        return json.dumps(dump_state(state), sort_keys=True).encode(), ledger.access_log

    got = run()
    monkeypatch.setattr(simulator, "phase_cascade", reference_phase_cascade)
    assert run() == got
