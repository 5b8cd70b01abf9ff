"""Unsigned fixed-point codecs for rotation angles and phases.

Two grid conventions, both t bits wide:

* magnitude angles: value = bits * 2**(2 - t), covering [0, 4); bit j is
  worth 2**(j + 2 - t), so the most significant bit contributes 2.0
* phases: value = bits * 2*pi / 2**t, covering [0, 2*pi); a phase outside
  [0, 2*pi) is reduced modulo 2*pi before encoding

Encoding is vectorized: :func:`encode_magnitude_angles` and
:func:`encode_phases` round whole arrays with one rule, ``floor(x / grid +
0.5)`` into int64, which is exact for every t <= 62. Exact half-grid ties
therefore round up (away from zero). The scalar :func:`encode_magnitude_angle`
and :func:`encode_phase` check one real number, named as passed if refused,
and call the array encoders, so there is one rounding rule. The half-turn pi
sits exactly on the phase grid for every t, so sign flips encoded as phases
survive the codec without error.

Decoding is one multiplication by the grid: ``bits * magnitude_grid(t)`` for
an array of angle fields and ``bits * phase_grid(t)`` for an array of phase
fields. The one-bit phase field of real_signed data holds phi / pi.
"""
from __future__ import annotations

import math
import sys
import numpy as np

from .errors import AngleOutOfRangeError, PrecisionOutOfRangeError, is_int, is_number, number_array

MIN_PRECISION = 2
MAX_PRECISION = 62


def check_precision(t: int) -> int:
    """``t`` as a Python int, so no grid or shift wraps a numpy int; any other t is refused."""
    if not is_int(t) or not MIN_PRECISION <= t <= MAX_PRECISION:
        raise PrecisionOutOfRangeError(
            f"t must be an integer in [{MIN_PRECISION}, {MAX_PRECISION}], got {t!r}"
        )
    return int(t)


def magnitude_grid(t: int) -> float:
    """Grid spacing for magnitude angles at precision t."""
    return 2.0 ** (2 - t)


def phase_grid(t: int) -> float:
    """Grid spacing for phases at precision t."""
    return math.tau / (1 << t)


def _first_bad(bad: np.ndarray, x: np.ndarray, what: str, allowed: str) -> None:
    if bad.any():
        z = int(np.argmax(bad))
        raise AngleOutOfRangeError(f"{what} must {allowed}, got {float(x[z])!r} at index {z}")


def _round_half_up(x: np.ndarray) -> np.ndarray:
    return np.floor(x + 0.5).astype(np.int64)


def encode_magnitude_angles(thetas, t: int) -> np.ndarray:
    """Bits of every theta in [0, pi] rounded to the magnitude grid, as int64.

    The rounding error is at most half a grid step, 2**(1-t).
    """
    t = check_precision(t)
    x = number_array(thetas, np.float64, AngleOutOfRangeError, "theta").reshape(-1)
    _first_bad(~((x >= 0.0) & (x <= math.pi)), x, "theta", "lie in [0, pi]")  # NaN fails too
    return _round_half_up(x / magnitude_grid(t))


def encode_phases(phis, t: int) -> np.ndarray:
    """Bits of every phi reduced modulo 2*pi and rounded to the phase grid, as int64.

    The reduction runs only when some phi lies outside [0, 2*pi): ``np.mod``
    returns a phi in range unchanged, and -0.0 encodes as 0 either way, so
    the phases of a :class:`~qramprep.angles.ComplexAngleTree` skip it. The
    circular rounding error is at most pi * 2**(-t).
    """
    t = check_precision(t)
    x = number_array(phis, np.float64, AngleOutOfRangeError, "phi").reshape(-1)
    if not ((x >= 0.0) & (x < math.tau)).all():
        _first_bad(~np.isfinite(x), x, "phi", "be finite")
        x = np.mod(x, math.tau)
    # a tiny negative phi reduces to exactly 2*pi, whose code 2**t wraps to 0
    return _round_half_up(x / phase_grid(t)) & ((1 << t) - 1)


def encode_magnitude_angle(theta: float, t: int) -> int:
    """Scalar form of :func:`encode_magnitude_angles`: the bits of one real theta."""
    if not is_number(theta, real=True) or not 0.0 <= theta <= math.pi:  # NaN fails too
        raise AngleOutOfRangeError(f"theta must lie in [0, pi], got {theta!r}")
    return int(encode_magnitude_angles(np.array([theta], dtype=np.float64), t)[0])


def encode_phase(phi: float, t: int) -> int:
    """Scalar form of :func:`encode_phases`: the bits of one real phi."""
    if not is_number(phi, real=True) or not abs(phi) <= sys.float_info.max:  # an int past it too
        raise AngleOutOfRangeError(f"phi must be finite, got {phi!r}")
    return int(encode_phases(np.array([phi], dtype=np.float64), t)[0])


def phase_distance(x: float, y: float) -> float:
    """Distance between two phases on the circle of circumference 2*pi."""
    d = (x - y) % math.tau
    return min(d, math.tau - d)
