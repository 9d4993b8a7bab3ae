"""Power of a point and the constant-power points of a Poncelet family.

P3 holds constant power Pi3 with respect to the moving circumcircle and
P5 holds constant power Pi5 with respect to the moving Euler circle.  The
long closed forms are transcribed term by term with no simplification;
their correctness is pinned by sweep oracles in the test suite.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDenominator, RealnessViolation
from .family import PonceletFamily

_REAL_TOL = 1e-9


class PowerKind(enum.Enum):
    CIRCUMCIRCLE = "Circumcircle"
    EULER_CIRCLE = "EulerCircle"


@dataclass(frozen=True)
class PowerPointResult:
    point: complex
    invariant_power: float
    kind: PowerKind


def _real(value: complex, what: str) -> float:
    if abs(np.imag(value)) > _REAL_TOL * max(abs(value), 1e-300):
        raise RealnessViolation(
            f"{what} has imaginary part {np.imag(value):.3e}")
    return float(np.real(value))


def power(p: complex, c) -> float:
    """|p - center|^2 - radius^2: negative inside, zero on, positive outside."""
    return abs(p - c.center) ** 2 - c.radius ** 2


def p3_preimage(fam: PonceletFamily) -> complex:
    f, g = fam.f, fam.g
    return (f + g - (np.conj(f) + np.conj(g)) * f * g) / (1 - abs(f * g) ** 2)


def p3_point(fam: PonceletFamily) -> PowerPointResult:
    """Constant-circumcircle-power point P3 and its power Pi3."""
    f, g, p, q = fam.f, fam.g, fam.p, fam.q
    fb, gb = np.conj(f), np.conj(g)
    d = abs(f) ** 2 * abs(g) ** 2 - 1
    p3 = ((g * abs(f) ** 2 + f * abs(g) ** 2 - f - g) * p / d
          + (abs(f) ** 2 * gb + fb * abs(g) ** 2 - fb - gb) * q / d)
    pi3 = ((abs(g) ** 2 - 1) * (fb * g - 1) * (f * gb - 1) * (abs(f) ** 2 - 1)
           * (p * q * (f * g + fb * gb) - p ** 2 - q ** 2)) / d ** 2
    return PowerPointResult(complex(p3), _real(pi3, "Pi3"),
                            PowerKind.CIRCUMCIRCLE)


def p5_constants(fam: PonceletFamily) -> tuple[float, float]:
    """The two constants gamma1, gamma2 entering Pi5."""
    f, g, p, q = fam.f, fam.g, fam.p, fam.q
    fb, gb = np.conj(f), np.conj(g)
    g1 = (
        f**2 * g**2 * p**8 * fb**2 * gb**2
        - 2 * q * f * g * fb * gb * (fb * gb + f * g) * p**7
        + (2 * gb**2 * fb**2 * f**2 * g**2 - gb**2 * fb * f**2 * g
           - gb**2 * fb * f * g**2 - gb * fb**2 * f**2 * g
           - gb * fb**2 * f * g**2 + fb**2 * gb**2
           + 4 * f * fb * g * gb + f**2 * g**2) * p**6 * q**2
        + (gb**3 * fb * f * g - 2 * gb**2 * fb**2 * f * g + f * g * gb * fb**3
           + gb * fb * f**3 * g - 2 * gb * fb * f**2 * g**2
           + gb * fb * f * g**3 + gb**2 * fb * f + gb**2 * fb * g
           + gb * fb**2 * f + gb * fb**2 * g + gb * f**2 * g + gb * f * g**2
           + fb * f**2 * g + fb * f * g**2 - 2 * fb * gb - 2 * f * g) * p**5 * q**3
        + (3 * gb**2 * fb**2 * f**2 * g**2 - 3 * gb**2 * fb * f**2 * g
           - 3 * gb**2 * fb * f * g**2 - 3 * gb * fb**2 * f**2 * g
           - 3 * gb * fb**2 * f * g**2 - gb**3 * fb - gb * fb**3
           + 6 * f * fb * g * gb - f**3 * g - f * g**3 - f * gb - g * gb
           - f * fb - fb * g + 1) * q**4 * p**4
        + (gb**3 * fb * f * g - 2 * gb**2 * fb**2 * f * g + f * g * gb * fb**3
           + gb * fb * f**3 * g - 2 * gb * fb * f**2 * g**2
           + gb * fb * f * g**3 + gb**2 * fb * f + gb**2 * fb * g
           + gb * fb**2 * f + gb * fb**2 * g + gb * f**2 * g + gb * f * g**2
           + fb * f**2 * g + fb * f * g**2 - 2 * fb * gb - 2 * f * g) * p**3 * q**5
        + (2 * gb**2 * fb**2 * f**2 * g**2 - gb**2 * fb * f**2 * g
           - gb**2 * fb * f * g**2 - gb * fb**2 * f**2 * g
           - gb * fb**2 * f * g**2 + fb**2 * gb**2
           + 4 * f * fb * g * gb + f**2 * g**2) * p**2 * q**6
        - 2 * f * g * q**7 * fb * gb * (fb * gb + f * g) * p
        + f**2 * g**2 * q**8 * fb**2 * gb**2
    )
    g2 = 4 * (f * fb * g * gb * p**4 + (-fb * gb - f * g) * q * p**3
              + q**2 * (f * fb * g * gb + 1) * p**2
              + (-fb * gb - f * g) * p * q**3 + f * fb * g * gb * q**4) ** 2
    return _real(g1, "gamma1"), _real(g2, "gamma2")


def p5_point(fam: PonceletFamily) -> PowerPointResult:
    """Constant-Euler-circle-power point P5 and its power Pi5."""
    f, g, p, q = fam.f, fam.g, fam.p, fam.q
    fb, gb = np.conj(f), np.conj(g)
    fgb = np.conj(f * g)
    num = (f * g * (f + g) * p ** 2 * (fgb * p - q)
           + fgb * q ** 2 * (fb + gb) * (f * g * q - p)) * (p ** 2 + q ** 2)
    den = (2 * abs(f) ** 2 * abs(g) ** 2 * (p ** 4 + q ** 4 + p ** 2 * q ** 2)
           - 2 * (f * g + fb * gb) * p * q * (p ** 2 + q ** 2)
           + 2 * p ** 2 * q ** 2)
    scale = (p ** 2 + q ** 2) ** 2
    if abs(den) <= 1e-12 * scale:
        raise DegenerateDenominator("P5 denominator vanished")
    g1, g2 = p5_constants(fam)
    pi5 = (p ** 2 + q ** 2) * (abs(f * g) ** 2 - 1) * g1 / g2
    return PowerPointResult(complex(num / _real(den, "P5 denominator")),
                            float(pi5), PowerKind.EULER_CIRCLE)


def pi3_affine_in_lambda(fam: PonceletFamily,
                         w0: complex) -> tuple[complex, float]:
    """Coefficients (M1, M3) with circumcircle power = M1 lam + conj(M1 lam) + M3.

    M1 vanishes exactly at w0 = P3, where M3 equals the invariant power.
    """
    f, g, p, q = fam.f, fam.g, fam.p, fam.q
    fb, gb = np.conj(f), np.conj(g)
    pq2 = p ** 2 - q ** 2
    m1 = -p * q * ((fb * gb * p - q) * w0 + (-fb * gb * q + p) * np.conj(w0)
                   - pq2 * (fb + gb)) / pq2
    m3 = (-p * q * (p * f - fb * q + p * g - gb * q) * w0
          + pq2 * abs(w0) ** 2
          + p * q * (q * f - fb * p + g * q - gb * p) * np.conj(w0)
          + pq2 * (f * g * p * q + fb * gb * p * q - p ** 2 - q ** 2)) / pq2
    return complex(m1), _real(m3, "M3")
