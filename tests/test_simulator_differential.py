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
"""
import json
import math

import numpy as np
import pytest

from qramprep.cli import example_matrix
from qramprep.matrix import random_matrix
from qramprep.memory import build_memory_image
from qramprep.simulator import dump_state, prepare_complex, prepare_real
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
