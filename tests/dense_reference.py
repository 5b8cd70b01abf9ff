"""Gate-level dense statevector reference for the preparation procedure (tests only).

The state is one complex amplitude per basis label over n = k + 1 +
aux_width + t qubits, in the packed label's bit order: the address a in
bits 0..k-1, the marker v in bit k, the phase register in the next
aux_width bits and the angle register in the top t bits. Held as an array
of shape (2,) * n, qubit q is axis n - 1 - q. Each gate is one array
operation on the whole state, which knows nothing of branches or pairs:

* the XOR BBQRAM query, |a>|w> -> |a>|w XOR cell_a>, gathers by a label permutation;
* the magnitude cascade is t controlled-Ry gates on v, angle bit j turning by 2**(j+2-t);
* the circular shift of (v, a_{k-1}, ..., a_0) is a permutation of qubit axes;
* the phase cascade is aux_width controlled phase gates on v = 1, phase bit j
  adding 2*pi * 2**j / 2**aux_width.

The cascades are the uniformly controlled rotations of Mottonen et al.,
arXiv:quant-ph/0407010, applied one controlled gate per register bit. Meant
for k <= 4 and t <= 5: at most 15 qubits.
"""
from __future__ import annotations

import math
from collections import Counter

import numpy as np

from qramprep.memory import MemoryImage


def _controlled(u: np.ndarray) -> np.ndarray:
    """The 4x4 gate that applies ``u`` to the low qubit when the high one is 1."""
    gate = np.eye(4, dtype=np.complex128)
    gate[2:, 2:] = u
    return gate


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]])


class DenseRun:
    """One run of the procedure on a dense state, counting the gates it applies."""

    def __init__(self, image: MemoryImage):
        self.k, self.t, self.aux_width = image.k, image.t, image.aux_width
        self.n = self.k + 1 + self.aux_width + self.t
        self.state = np.zeros((2,) * self.n, dtype=np.complex128)
        self.state.reshape(-1)[1] = 1.0  # address 0...01, everything else 0
        labels = np.arange(1 << self.n)
        cells = np.array(image.cells, dtype=np.int64)
        self._query = labels ^ (cells[labels & ((1 << self.k) - 1)] << (self.k + 1))
        self.gates = Counter()

    @property
    def vector(self) -> np.ndarray:
        """The amplitudes indexed by packed label."""
        return self.state.reshape(-1)

    def _axis(self, qubit: int) -> int:
        return self.n - 1 - qubit

    def _two_qubit(self, gate: np.ndarray, high: int, low: int) -> None:
        axes = [self._axis(high), self._axis(low)]
        out = np.tensordot(gate.reshape(2, 2, 2, 2), self.state, axes=([2, 3], axes))
        self.state = np.moveaxis(out, [0, 1], axes)

    def query(self) -> None:
        self.state = self.vector[self._query].reshape(self.state.shape)
        self.gates["query"] += 1

    def ry_cascade(self) -> None:
        angle_low = self.k + 1 + self.aux_width
        for j in range(self.t):
            self._two_qubit(_controlled(_ry(2.0 ** (j + 2 - self.t))), angle_low + j, self.k)
            self.gates["controlled_ry"] += 1

    def shift(self) -> None:
        """(v, a_{k-1}, ..., a_0) -> (a_{k-1}, ..., a_0, v): qubit q takes qubit q - 1's value."""
        low = self.k + 1
        axes = list(range(self.n))
        for q in range(low):
            axes[self._axis(q)] = self._axis((q - 1) % low)
        self.state = self.state.transpose(axes)
        self.gates["shift"] += 1

    def phase_cascade(self) -> None:
        for j in range(self.aux_width):
            phase = np.diag([1.0, np.exp(2j * math.pi * 2.0 ** (j - self.aux_width))])
            self._two_qubit(_controlled(phase), self.k + 1 + j, self.k)
            self.gates["controlled_phase"] += 1


def prepare(image: MemoryImage, on_iteration) -> DenseRun:
    """k iterations of query, Ry cascade, query, shift; then query, phase cascade, query.

    ``on_iteration(h, vector)`` fires after each iteration's shift.
    """
    run = DenseRun(image)
    for h in range(1, run.k + 1):
        run.query()
        run.ry_cascade()
        run.query()
        run.shift()
        on_iteration(h, run.vector.copy())
    run.query()
    run.phase_cascade()
    run.query()
    return run
