import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from qramprep.angles import ComplexAngleTree, build_angle_structures
from qramprep.errors import WidthMismatchError
from qramprep.fixedpoint import magnitude_grid, phase_distance, phase_grid
from qramprep.matrix import ComplexMatrix, random_matrix
from qramprep.memory import (
    MemoryImage,
    QueryLedger,
    build_memory_image,
    cell_width,
    layout_complex,
    layout_image,
    layout_real_signed,
    query,
)
from qramprep.simulator import BranchState, init_state, prepare_complex


@pytest.fixture
def example_image(example):
    img, _ = build_memory_image(example, 12, "complex")
    return img


class TestLayoutComplex:
    def test_example_cells(self, example, example_image):
        img = example_image
        assert img.size == 8 and img.width == 24 and img.k == 3
        # recorded layout: cell 1 holds the root split angle and phase of entry 1
        angle, phase = img.field_arrays
        assert abs(angle[1] * magnitude_grid(img.t) - 1.357) <= 2 ** -11
        decoded = phase[1] * phase_grid(img.t)
        assert phase_distance(decoded, 2.034) <= math.pi * 2 ** -12 + 1e-3

    def test_cell0_angle_field_dummy(self, example_image):
        angle, phase = example_image.field_arrays
        assert angle[0] == 0
        # the leaf field of cell 0 is live: it carries the phase of entry 0
        decoded = phase[0] * phase_grid(example_image.t)
        assert phase_distance(decoded, math.atan2(1, 2)) <= math.pi * 2 ** -12

    def test_bit_packing(self, example_image):
        img = example_image
        angle, aux = img.field_arrays
        for z in range(img.size):
            assert img.cells[z] == (int(angle[z]) << img.t) | int(aux[z])


class TestLayoutRealSigned:
    def test_four_cells(self):
        m = ComplexMatrix.from_array([[1.0, -2.0, 0.0, 3.0]])
        img, _ = build_memory_image(m, 8, "real_signed")
        assert img.size == 4 and img.width == 9
        assert img.field_arrays[1].tolist() == [0, 1, 0, 0]

    def test_cell0_keeps_sign_of_entry0(self):
        m = ComplexMatrix.from_array([[-1.0, 2.0]])
        img, _ = build_memory_image(m, 8, "real_signed")
        angle, sign = img.field_arrays
        assert angle[0] == 0
        assert sign[0] == 1

    def test_phase_bit_is_phi_over_pi(self):
        img = layout_real_signed(ComplexAngleTree([0.0], [-0.0, math.pi], "real_signed"), 8)
        assert img.cells == (0, 1)
        assert all(type(c) is int for c in img.cells)

    def test_complex_layout_of_real_signed_tree(self):
        m = random_matrix(4, 4, seed=2, real=True)
        gamma = build_angle_structures(m, "real_signed")
        img = layout_complex(gamma, 12)
        assert img.mode == "complex" and img.width == 24
        assert img == layout_complex(build_angle_structures(m, "complex"), 12)


class TestJsonRoundTrip:
    def test_round_trip(self, example_image):
        doc = json.loads(example_image.to_json())
        assert set(doc) == {"mode", "t", "k", "cells"}
        assert MemoryImage.from_json_dict(doc) == example_image


class TestCellWidth:
    @pytest.mark.parametrize("t", [2, 8, 32, 62])
    def test_formula(self, t):
        assert cell_width(t, "complex") == 2 * t
        assert cell_width(t, "real_signed") == t + 1

    def test_wide_cells_stay_exact(self):
        m = random_matrix(4, 4, seed=8)
        img, _ = build_memory_image(m, 62, "complex")
        assert img.width == 124
        assert max(img.cells) >= 1 << 64
        assert all(type(c) is int for c in img.cells)


class TestImageTypes:
    DOC = {"mode": "complex", "t": 4, "k": 1, "cells": [0, 3]}

    def test_numpy_integer_precision(self):
        # 80-bit cells: a uint64 shift by a numpy t would raise TypeError
        cells = (0, (1 << 79) | 5, (3 << 40) | 1, (1 << 80) - 1)
        img = MemoryImage(cells=cells, t=np.int64(40), mode="complex")
        assert type(img.t) is int
        assert img == MemoryImage(cells=cells, t=40, mode="complex")
        assert img.cells == cells

    def test_width_and_k_are_derived(self):
        img = MemoryImage(cells=(0,) * 8, t=4, mode="real_signed")
        assert (img.width, img.aux_width, img.k) == (5, 1, 3)

# (t, mode) with cell widths below 64, exactly 64 and above 64 bits
WIDTHS = [(4, "complex"), (62, "real_signed"), (32, "complex"), (33, "complex"), (62, "complex")]


def _fits(cell, width):
    """The per-cell rule the bulk check must reproduce."""
    return type(cell) is int and 0 <= cell < 1 << width


class TestBulkValidation:
    @pytest.mark.parametrize("t,mode", WIDTHS)
    def test_against_the_per_cell_rule(self, t, mode):
        width = cell_width(t, mode)
        top = (1 << width) - 1
        for cell in [True, False, np.int64(1), np.uint64(1), 1.0, -1, -(1 << 70), top, top + 1,
                     1 << 64, (1 << 64) - 1, 1 << t]:
            cells = (0, cell, top, 0)
            doc = {"mode": mode, "t": t, "k": 2, "cells": list(cells)}
            if _fits(cell, width):
                img = MemoryImage(cells=cells, t=t, mode=mode)
                assert img.cells == cells
                assert MemoryImage.from_json_dict(doc) == img
                angle, aux = img.field_arrays
                assert [(int(a) << img.aux_width) | int(b) for a, b in zip(angle, aux)] == list(cells)
            else:
                message = (f"cell 1 does not fit in {width} bits" if type(cell) is int
                           else f"cell 1 is not an unsigned integer: {cell!r}")
                for refused in (lambda: MemoryImage(cells=cells, t=t, mode=mode),
                                lambda: MemoryImage.from_json_dict(doc)):
                    with pytest.raises(WidthMismatchError) as info:
                        refused()
                    assert str(info.value) == message

    @pytest.mark.parametrize("t,mode", WIDTHS)
    def test_random_cells_split_exactly(self, t, mode):
        width = cell_width(t, mode)
        rng = np.random.default_rng(t)
        cells = tuple(int.from_bytes(rng.bytes(16), "little") >> (128 - width) for _ in range(16))
        img = MemoryImage(cells=cells, t=t, mode=mode)
        angle, aux = img.field_arrays
        assert angle.dtype == aux.dtype == np.uint64
        assert [int(a) for a in angle] == [c >> img.aux_width for c in cells]
        assert [int(b) for b in aux] == [c & ((1 << img.aux_width) - 1) for c in cells]
        assert img.cells == cells and all(type(c) is int for c in img.cells)


class TestImageData:
    def test_field_arrays_are_the_same_objects(self, example_image):
        first = example_image.field_arrays
        assert all(a is b for a, b in zip(first, example_image.field_arrays))

    def test_cells_built_on_read_not_kept(self, example_image):
        assert example_image.cells == example_image.cells
        assert set(vars(example_image)) == {"t", "mode", "field_arrays"}

    def test_replace_cells(self, example_image):
        cells = list(example_image.cells)
        cells[1] ^= 1 << (example_image.width - 1)
        flipped = dataclasses.replace(example_image, cells=tuple(cells))
        assert flipped.cells == tuple(cells)
        assert flipped != example_image
        assert dataclasses.replace(flipped, cells=example_image.cells) == example_image

    def test_replace_without_cells_keeps_them(self, example_image):
        same = dataclasses.replace(example_image)
        assert same == example_image and same is not example_image
        assert hash(same) == hash(example_image)

    def test_equality_and_hash(self, example_image):
        same = MemoryImage(cells=example_image.cells, t=12, mode="complex")
        assert same == example_image and hash(same) == hash(example_image)
        assert MemoryImage(cells=(0, 0), t=4, mode="complex") != MemoryImage(
            cells=(0, 0), t=5, mode="complex"
        )
        assert MemoryImage(cells=(0, 1), t=4, mode="real_signed") != MemoryImage(
            cells=(0, 1), t=4, mode="complex"
        )
        assert example_image != example_image.cells


class TestFootprint:
    """Retained bytes of one K=2^14, t=32 complex run, traced by tracemalloc."""

    SLACK = 8192  # object headers, and what numpy allocates once per process

    def test_image_and_ledger_stay_packed(self):
        gamma = build_angle_structures(random_matrix(128, 128, seed=14), "complex")
        size, k = 1 << 14, 14
        prepare_complex(layout_image(gamma, 32))  # let lazy set-up happen untraced
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            img = layout_image(gamma, 32)
            image_bytes = tracemalloc.get_traced_memory()[0] - base
            state, ledger = prepare_complex(img)
            del state
            ledger_bytes = tracemalloc.get_traced_memory()[0] - base - image_bytes
        finally:
            tracemalloc.stop()
        assert ledger.query_count == 2 * k + 2
        assert image_bytes <= 16 * size + self.SLACK
        assert ledger_bytes <= (2 * k + 2) * size // 8 + self.SLACK


class TestQuery:
    def test_single_branch_loads_cell(self, example_image):
        state = init_state(3, 12, "complex")
        state.branches = {3: 1.0 + 0j}  # address 011, work clear
        ledger = QueryLedger(example_image.k)
        out = query(example_image, state, ledger)
        (label,) = out.branches
        assert label & 7 == 3
        assert label >> 4 == example_image.cells[3]
        assert ledger.query_count == 1

    def test_superposed_addresses(self, example_image):
        a0, a1 = math.sqrt(20 / 33), math.sqrt(13 / 33)
        state = BranchState(branches={2: a0 + 0j, 3: a1 + 0j}, t=12, aux_width=12, k=3)
        out = query(example_image, state, QueryLedger(3))
        got = {label & 7: (label >> 4, amp) for label, amp in out.branches.items()}
        assert got[2] == (example_image.cells[2], a0 + 0j)
        assert got[3] == (example_image.cells[3], a1 + 0j)

    def test_norm_preserved_exactly(self, example_image):
        state = BranchState(
            branches={2: 0.6 + 0.3j, 3: -0.2 + 0.7j}, t=12, aux_width=12, k=3
        )
        before = sorted(state.branches.values(), key=abs)
        out = query(example_image, state, QueryLedger(3))
        assert sorted(out.branches.values(), key=abs) == before


class TestLedger:
    """The ledger as ``query``, its one writer, fills it."""

    @staticmethod
    def queried(k, *address_lists, t=12):
        """A k-bit ledger after one query of a zero-cell image per list of branch addresses."""
        img, ledger = MemoryImage(cells=(0,) * (1 << k), t=t, mode="complex"), QueryLedger(k)
        for addresses in address_lists:
            # branch i holds i in w_angle, so an address may repeat
            branches = {(i << (k + 1 + t)) | a: 1.0 + 0j for i, a in enumerate(addresses)}
            query(img, BranchState(branches, t=t, aux_width=t, k=k), ledger)
        return ledger

    def test_routing_time(self):
        ledger = self.queried(3, *[[1]] * 8)
        assert (ledger.query_count, ledger.routing_time) == (8, 24)

    def test_zero_queries_zero_time(self):
        assert self.queried(10).routing_time == 0

    def test_access_log(self):
        assert self.queried(2, [3, 1, 3]).access_log == [(1, 3)]

    def test_no_addresses_is_one_query_that_reached_nothing(self):
        ledger = self.queried(2, [])
        assert (ledger.query_count, ledger.access_log) == (1, [()])

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 11])
    def test_one_bitmap_of_k_over_eight_bytes_per_query(self, k):
        rng = np.random.default_rng(k)
        address_lists = [rng.integers(0, 1 << k, size=int(rng.integers(1, 1 << k))).tolist()
                         for _ in range(5)] + [range(1 << k)]
        ledger = self.queried(k, *address_lists)
        assert [len(bitmap) for bitmap in ledger.reached] == [max(1, (1 << k) // 8)] * 6
        assert ledger.access_log == [tuple(sorted(set(a))) for a in address_lists]

    @pytest.mark.parametrize("width", [2, 6])
    def test_ledger_of_another_width_is_refused(self, width):
        # on a k = 4 image, QueryLedger(2) ended in a bare IndexError and
        # QueryLedger(6) charged 6 units per query and kept 8-byte bitmaps
        img = MemoryImage(cells=(0,) * 16, t=4, mode="complex")
        state = BranchState({a: 0.25 + 0j for a in range(16)}, t=4, aux_width=4, k=4)
        ledger = QueryLedger(width)
        with pytest.raises(WidthMismatchError, match=rf"^ledger width {width} != image width 4$"):
            query(img, state, ledger)
        assert (ledger.query_count, ledger.reached) == (0, [])

    def test_address_width_is_a_python_int(self):
        ledger = QueryLedger(np.int8(4))
        assert type(ledger.k) is int and type(ledger.routing_time) is int

    def test_replace_counts(self):
        ledger = self.queried(3, [1, 2])
        more = dataclasses.replace(ledger, query_count=ledger.query_count + 1)
        wider = dataclasses.replace(ledger, k=ledger.k + 1)
        assert (more.query_count, more.routing_time) == (2, 6)
        assert (wider.query_count, wider.routing_time) == (1, 4)
        assert more.access_log == wider.access_log == ledger.access_log == [(1, 2)]
