import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qramprep.fixedpoint import (
    check_precision,
    encode_magnitude_angle,
    encode_magnitude_angles,
    encode_phase,
    encode_phases,
    magnitude_grid,
    phase_distance,
    phase_grid,
)


class TestCheckPrecision:
    @pytest.mark.parametrize("t", [2, 16, 62, np.int8(2), np.int32(40), np.uint64(62)])
    def test_returns_a_python_int(self, t):
        assert type(check_precision(t)) is int and check_precision(t) == t


class TestMagnitudeCodec:
    def test_half_pi_at_3_bits(self):
        a = encode_magnitude_angle(math.pi / 2, 3)
        assert a == 0b011
        assert a * magnitude_grid(3) == 1.5
        assert abs(1.5 - math.pi / 2) < 2 ** -2

    def test_exact_grid_point(self):
        a = encode_magnitude_angle(2.0, 3)
        assert a == 0b100
        assert a * magnitude_grid(3) == 2.0

    def test_tie_rounds_away_from_zero(self):
        # half-grid at t=3: 0.25 sits between bits 0 and 1
        assert encode_magnitude_angle(0.25, 3) == 1
        assert encode_magnitude_angle(0.75, 3) == 2

    @given(st.integers(2, 20), st.integers(min_value=0))
    def test_round_trip_identity_hypothesis(self, t, raw):
        bits = raw % (math.floor(math.pi / magnitude_grid(t)) + 1)
        assert encode_magnitude_angle(bits * magnitude_grid(t), t) == bits

    def test_rounding_bound_random_array(self):
        rng = np.random.default_rng(2024)
        thetas = rng.uniform(0.0, math.pi, 10_000)
        for t in range(4, 17):
            bound = 2.0 ** (1 - t)
            err = np.abs(encode_magnitude_angles(thetas, t) * magnitude_grid(t) - thetas)
            assert err.max() <= bound


class TestPhaseCodec:
    def test_pi_exact_at_3_bits(self):
        p = encode_phase(math.pi, 3)
        assert p == 0b100
        assert p * phase_grid(3) == math.pi

    def test_negative_half_pi(self):
        p = encode_phase(-math.pi / 2, 3)
        assert p == 0b110
        assert p * phase_grid(3) == 3 * math.pi / 2

    def test_pi_exact_for_every_precision(self):
        # sign flips encoded as phases must survive the codec without error
        for t in range(2, 63):
            assert encode_phase(math.pi, t) * phase_grid(t) == math.pi

    def test_wraps_near_two_pi(self):
        t = 8
        phi = math.tau - phase_grid(t) / 4
        assert encode_phase(phi, t) == 0

    def test_rounding_bound_random_array(self):
        rng = np.random.default_rng(55)
        phis = rng.uniform(-10 * math.pi, 10 * math.pi, 10_000)
        for t in (4, 8, 12, 16):
            bound = math.pi * 2.0 ** -t
            decoded = encode_phases(phis, t) * phase_grid(t)
            for got, phi in zip(decoded.tolist(), phis.tolist()):
                assert phase_distance(got, phi) <= bound * (1 + 1e-9)

    @given(st.integers(2, 20), st.integers(min_value=0))
    def test_round_trip_identity_on_grid(self, t, raw):
        bits = raw % (1 << t)
        assert encode_phase(bits * phase_grid(t), t) == bits

    def test_periodicity_on_grid(self):
        t = 10
        for bits in range(0, 1 << t, 37):
            phi = bits * phase_grid(t)
            assert encode_phase(phi + math.tau, t) == encode_phase(phi, t)


def scalar_magnitude_bits(theta: float, t: int) -> int:
    """The per-cell rounding rule the array encoders replaced, kept as an oracle."""
    return math.floor(theta / 2.0 ** (2 - t) + 0.5)


def scalar_phase_bits(phi: float, t: int) -> int:
    reduced = phi % math.tau
    if reduced >= math.tau:
        reduced = 0.0
    return math.floor(reduced / (math.tau / (1 << t)) + 0.5) % (1 << t)


precisions = st.integers(2, 62)
grid_steps = st.integers(0, (1 << 62) - 1)


@st.composite
def angle_samples(draw):
    """Thetas in [0, pi]: arbitrary floats, exact half-grid ties and the endpoints."""
    t = draw(precisions)
    grid = magnitude_grid(t)
    top = math.floor(math.pi / grid)  # ties at (n + 0.5) * grid must stay <= pi
    ties = st.integers(0, top - 1).map(lambda n: (n + 0.5) * grid) if top >= 1 else st.just(0.0)
    values = st.one_of(
        st.floats(0.0, math.pi),
        ties,
        st.sampled_from([0.0, math.pi, math.nextafter(math.pi, 0.0), grid / 2]),
    )
    return t, draw(st.lists(values, min_size=1, max_size=40))


@st.composite
def phase_samples(draw):
    """Phases anywhere on the line, with ties, values just below 2*pi and signed zeros."""
    t = draw(precisions)
    grid = phase_grid(t)
    values = st.one_of(
        st.floats(-1e6, 1e6),
        grid_steps.map(lambda n: ((n % (1 << t)) + 0.5) * grid),
        st.sampled_from([
            0.0, -0.0, math.pi, -math.pi, math.tau, -math.tau,
            math.nextafter(math.tau, 0.0), math.tau - grid / 2, math.tau - grid / 4,
            -5e-324, -1e-300, -1e-17, 5e-324,
        ]),
    )
    return t, draw(st.lists(values, min_size=1, max_size=40))


class TestArrayEncodersMatchScalarRule:
    @given(angle_samples())
    def test_magnitude_bits(self, sample):
        t, thetas = sample
        got = encode_magnitude_angles(np.array(thetas), t)
        assert got.dtype == np.int64
        assert got.tolist() == [scalar_magnitude_bits(x, t) for x in thetas]

    @given(phase_samples())
    def test_phase_bits(self, sample):
        t, phis = sample
        got = encode_phases(np.array(phis), t)
        assert got.dtype == np.int64
        assert got.tolist() == [scalar_phase_bits(x, t) for x in phis]

    @pytest.mark.parametrize("t", range(2, 63))
    def test_fixed_points_every_precision(self, t):
        grid_m, grid_p = magnitude_grid(t), phase_grid(t)
        thetas = [0.0, math.pi, grid_m / 2, 1.5 * grid_m, math.pi / 2]
        phis = [0.0, -0.0, math.pi, math.nextafter(math.tau, 0.0), -1e-300,
                math.tau - grid_p / 2, 0.5 * grid_p, -0.5 * grid_p]
        assert encode_magnitude_angles(thetas, t).tolist() == [
            scalar_magnitude_bits(x, t) for x in thetas
        ]
        assert encode_phases(phis, t).tolist() == [scalar_phase_bits(x, t) for x in phis]

    def test_scalar_wrappers_share_the_rule(self):
        rng = np.random.default_rng(8)
        for t in (2, 17, 32, 62):
            for theta, phi in zip(rng.uniform(0, math.pi, 50), rng.uniform(-9, 9, 50)):
                assert encode_magnitude_angle(float(theta), t) == scalar_magnitude_bits(theta, t)
                assert encode_phase(float(phi), t) == scalar_phase_bits(phi, t)

    @pytest.mark.parametrize("t", [16, 62])
    def test_phases_reducing_to_tau_wrap_to_zero(self, t):
        # phase_grid(t) is exact, so 2*pi encodes as 2**t and the final mod maps it to 0
        assert encode_phases([-1e-300, -5e-17, -1e-17, math.tau], t).tolist() == [0, 0, 0, 0]


class TestPhaseDistance:
    def test_zero(self):
        assert phase_distance(1.25, 1.25) == 0.0

    def test_wraparound(self):
        assert math.isclose(phase_distance(0.1, math.tau - 0.1), 0.2, rel_tol=1e-12)

    def test_symmetry(self):
        assert phase_distance(0.3, 5.9) == phase_distance(5.9, 0.3)
