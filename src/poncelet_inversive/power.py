"""Power of a point and the constant-power points of a Poncelet family.

Write s = f + g and u = f g.  Over the family the world circumcenter is
affine in lam,

    X3 = c2 lam + c1 conj(lam) + c0,
    c2 = p q (p - q conj(u)) / (p^2 - q^2),  c1 = p q (p u - q) / (p^2 - q^2),
    c0 = p q (p conj(s) - q s) / (p^2 - q^2),

and the power of the origin with respect to the circumcircle is
2 Re(p q conj(s) lam) + 2 p q Re(u) - p^2 - q^2.  The power of any point
w0 follows from these two (pi3_affine_in_lambda).  P3 is the point whose
power has no lam term and holds constant power Pi3 with respect to the
moving circumcircle; P5 holds constant power Pi5 with respect to the
moving Euler circle.  Every closed form here is written so that it is
real wherever the quantity is real.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDenominator
from .family import PonceletFamily


@dataclass(frozen=True)
class PowerPointResult:
    point: complex
    invariant_power: float


def power(p: complex, c) -> float:
    """|p - center|^2 - radius^2: negative inside, zero on, positive outside."""
    return abs(p - c.center) ** 2 - c.radius ** 2


def p3_preimage(fam: PonceletFamily) -> complex:
    f, g = fam.f, fam.g
    return (f + g - (np.conj(f) + np.conj(g)) * f * g) / (1 - abs(f * g) ** 2)


def p3_point(fam: PonceletFamily) -> PowerPointResult:
    """Constant-circumcircle-power point P3, the image of p3_preimage, and
    its power

        Pi3 = (|f|^2 - 1)(|g|^2 - 1) |conj(f) g - 1|^2
              (2 p q Re(u) - p^2 - q^2) / (|u|^2 - 1)^2.
    """
    f, g, p, q = fam.f, fam.g, fam.p, fam.q
    u = f * g
    pi3 = ((abs(f) ** 2 - 1) * (abs(g) ** 2 - 1) * abs(np.conj(f) * g - 1) ** 2
           * (2 * p * q * u.real - p ** 2 - q ** 2)) / (abs(u) ** 2 - 1) ** 2
    return PowerPointResult(complex(fam.affine(p3_preimage(fam))), float(pi3))


def _p5_parts(fam: PonceletFamily) -> tuple[float, complex]:
    """D and W of the P5 constants; 2 D is the denominator of P5."""
    p, q = fam.p, fam.q
    s, u = fam.f + fam.g, fam.f * fam.g
    d = (abs(u) ** 2 * (p ** 4 + q ** 4) - 2 * u.real * p * q * (p ** 2 + q ** 2)
         + (abs(u) ** 2 + 1) * p ** 2 * q ** 2)
    w = np.conj(u) * s * (p ** 2 + q ** 2) - p * q * (s + np.conj(u * s))
    return float(d), complex(w)


def p5_constants(fam: PonceletFamily) -> tuple[float, float]:
    """The two constants gamma1 = D^2 - p^2 q^2 |W|^2 and gamma2 = 4 D^2 of Pi5.

    D = |u|^2 (p^4 + q^4) - 2 Re(u) p q (p^2 + q^2) + (|u|^2 + 1) p^2 q^2 and
    W = conj(u) s (p^2 + q^2) - p q (s + conj(u) conj(s)).
    """
    d, w = _p5_parts(fam)
    return d ** 2 - (fam.p * fam.q) ** 2 * abs(w) ** 2, 4 * d ** 2


def p5_point(fam: PonceletFamily) -> PowerPointResult:
    """Constant-Euler-circle-power point P5 and its power

        Pi5 = (p^2 + q^2)(|u|^2 - 1) gamma1 / gamma2.
    """
    f, g, p, q = fam.f, fam.g, fam.p, fam.q
    fgb = np.conj(f * g)
    num = (f * g * (f + g) * p ** 2 * (fgb * p - q)
           + fgb * q ** 2 * (np.conj(f) + np.conj(g)) * (f * g * q - p)) \
        * (p ** 2 + q ** 2)
    d, _ = _p5_parts(fam)
    if abs(2 * d) <= 1e-12 * (p ** 2 + q ** 2) ** 2:
        raise DegenerateDenominator("P5 denominator vanished")
    g1, g2 = p5_constants(fam)
    pi5 = (p ** 2 + q ** 2) * (abs(f * g) ** 2 - 1) * g1 / g2
    return PowerPointResult(complex(num / (2 * d)), float(pi5))


def circumcenter_affine_in_lambda(
        fam: PonceletFamily) -> tuple[complex, complex, complex]:
    """(c0, c1, c2) with world circumcenter X3 = c2 lam + c1 conj(lam) + c0."""
    p, q = fam.p, fam.q
    s, u = fam.f + fam.g, fam.f * fam.g
    scale = p * q / (p ** 2 - q ** 2)
    return (complex(scale * (p * np.conj(s) - q * s)),
            complex(scale * (p * u - q)),
            complex(scale * (p - q * np.conj(u))))


def pi3_affine_in_lambda(fam: PonceletFamily,
                         w0: complex) -> tuple[complex, float]:
    """Coefficients (M1, M3) with circumcircle power = M1 lam + conj(M1 lam) + M3.

    From power(w0) = |w0|^2 - 2 Re(conj(w0) X3) + power(0):
    M1 = p q conj(s) - c2 conj(w0) - conj(c1) w0 and
    M3 = |w0|^2 - 2 Re(conj(w0) c0) + 2 p q Re(u) - p^2 - q^2.
    M1 vanishes exactly at w0 = P3, where M3 equals the invariant power.
    """
    p, q = fam.p, fam.q
    c0, c1, c2 = circumcenter_affine_in_lambda(fam)
    m1 = p * q * np.conj(fam.f + fam.g) - c2 * np.conj(w0) - np.conj(c1) * w0
    m3 = (abs(w0) ** 2 - 2 * (np.conj(w0) * c0).real
          + 2 * p * q * (fam.f * fam.g).real - p ** 2 - q ** 2)
    return complex(m1), float(m3)
