"""Seeded inputs, command lines and output checks of the benchmark workloads.

A workload is a cycle of generated JSON configs in the documented CLI
format; the program only ever sees those files.  Each op is one CLI command
on one config.  The checks read what the command printed or wrote and hold
it against the paper's laws and against oracles computed here with batched
NumPy, independently of the program's per-theta kernel.  A check returns
(passed, accuracy margin in decades); malformed output may also make it
raise LookupError, TypeError or ValueError, which counts as a failure.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from poncelet_inversive import (Circle, PonceletFamily, exact_locus_conic,
                                inversive_coeffs, p3_point)
from poncelet_inversive.family import (family_from_inner_circle,
                                       solve_inner_radius)

# Reference configuration of the test suite (tests/conftest.py).
REF_FAMILY = {"f": [0.3, 0.0], "g": [0.2, 0.1], "a": 2.0, "b": 1.0}
REF_INVERSION = {"center": [1.6, 0.9], "radius": 0.7}
REF_SPEC = {"family": REF_FAMILY, "inversion": REF_INVERSION}
REF_EXTERIOR_SPEC = {"family": REF_FAMILY,
                     "inversion": {"center": [4.0, 3.0], "radius": 0.7}}

SWEEP_SAMPLES = 4096
SMOKE_SWEEP_SAMPLES = 1024
VERIFY_SAMPLES = 720

CSV_HEADER = ("theta,x3_re,x3_im,x3p_re,x3p_im,invx3_re,invx3_im,"
              "x2p_re,x2p_im,x4p_re,x4p_im,x5p_re,x5p_im,power_O,skipped")
LOCUS_TOL = 1e-9          # conic_residual tolerance of a swept X3' point
CLASSIFY_DISC_TOL = 1e-9  # conic_classify's relative parabola band
EPS = float(np.finfo(float).eps)  # residual floor for the accuracy margin

# Default tolerance of every verify check that prints a residual.  The
# p3_interiority "residual" is a margin that must exceed its bound.
VERIFY_TOL = {
    "closed_form_vs_direct": 1e-9,
    "projectivity_hypotheses": 1e-10,
    "exact_vs_fitted_conic": 1e-8,
    "sweep_on_exact_conic": 1e-9,
    "collinearity": 1e-9,
    "distance_ratio": 1e-9,
    "pencil_membership": 1e-9,
    "p3_constant_power": 1e-9,
    "p5_constant_power": 1e-8,
    "similitude_tangency": 1e-7,
    "homothety": 1e-7,
    "poncelet_closure": 1e-8,
}
P3_INTERIORITY_MIN = 1e-12
VERIFY_CHECKS = ("closed_form_vs_direct", "projectivity_hypotheses",
                 "exact_vs_fitted_conic", "sweep_on_exact_conic",
                 "conic_type_law", "collinearity", "distance_ratio",
                 "pencil_membership", "p3_constant_power",
                 "p5_constant_power", "p3_interiority", "similitude_tangency",
                 "homothety", "poncelet_closure", "nonconic_evidence")

# Paper's conic-type law: O location and crossings -> locus type.
LAW = {("Exterior", 0): "Ellipse", ("Interior", 6): "Hyperbola",
       ("Interior", 0): "Ellipse"}  # Interior with 0: inside every circle


@dataclass(frozen=True)
class Config:
    """One generated input and what the oracles expect of it."""

    kind: str
    spec: dict
    o_location: str | None = None  # classify: Exterior / Interior
    o_is_p3: bool = False          # verify: homothety must run
    o_inside_x3: bool = False      # verify: similitude may SKIP
    type_margin: float = math.nan  # classify: decades the discriminant clears


@dataclass(frozen=True)
class OpOutput:
    code: int | None  # None when the command raised
    stdout: str
    out_dir: Path


# ---------------------------------------------------------------- oracles

def _world_triangles(fam: PonceletFamily, thetas: np.ndarray) -> np.ndarray:
    """(n, 3) world vertices: eigenvalues of the stacked companion matrices
    of z^3 - s1 z^2 + s2 z - lam, pushed through the affine map."""
    lam = np.exp(1j * thetas)
    fb, gb = np.conj(fam.f), np.conj(fam.g)
    comp = np.zeros((len(thetas), 3, 3), complex)
    comp[:, 0, 0] = fam.f + fam.g + lam * fb * gb
    comp[:, 0, 1] = -(fam.f * fam.g + lam * (fb + gb))
    comp[:, 0, 2] = lam
    comp[:, 1, 0] = comp[:, 2, 1] = 1.0
    z = np.linalg.eigvals(comp)
    return fam.p * z + fam.q * np.conj(z)


def _circumcircles(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w1, w2, w3 = w.T
    num = (abs(w1) ** 2 * (w2 - w3) + abs(w2) ** 2 * (w3 - w1)
           + abs(w3) ** 2 * (w1 - w2))
    den = (np.conj(w1) * (w2 - w3) + np.conj(w2) * (w3 - w1)
           + np.conj(w3) * (w1 - w2))
    c = num / den
    return c, abs(w1 - c)


def _loop(n: int) -> np.ndarray:
    return 2 * np.pi * np.arange(n) / n


def loop_circles(fam: PonceletFamily, n: int = 256):
    """Circumcircle centers and radii over one loop of the family."""
    return _circumcircles(_world_triangles(fam, _loop(n)))


def relative_power(circles, o: complex) -> np.ndarray:
    """Power of O w.r.t. each circumcircle, over radius^2."""
    c, r = circles
    return (abs(o - c) ** 2 - r ** 2) / r ** 2


def _side(rel: np.ndarray, margin: float) -> str | None:
    """Crossed / exterior / inside-all, or None when too close to call."""
    if rel.min() > margin:
        return "exterior"
    if rel.max() < -margin:
        return "inside-all"
    if rel.min() < -margin and rel.max() > margin:
        return "crossed"
    return None


def inside_x3_locus(fam: PonceletFamily, o: complex) -> bool:
    """Winding number of the X3 locus (one loop) around O."""
    c, _ = loop_circles(fam, 1024)
    turn = np.angle(np.roll(c - o, -1) / (c - o)).sum()
    return abs(turn) > np.pi


def _discriminant(fam: PonceletFamily, o: complex, r: float) -> tuple[float, float]:
    conic = exact_locus_conic(inversive_coeffs(fam, Circle(o, r)))
    disc = conic.B ** 2 - 4 * conic.A * conic.C
    return disc, CLASSIFY_DISC_TOL * (conic.A ** 2 + conic.B ** 2 + conic.C ** 2)


# -------------------------------------------------------------- generator

def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


# Upper limit of b/a in the draws.  Nearer to a circle the exact locus
# conic's matrix falls under conic_classify's 1e-9 rank cutoff for some
# families (2 of 300 draws at b/a = 0.98, 91 of 300 at 0.999), and classify
# prints DegenerateConic where the law expects an ellipse or hyperbola.
MAX_AXIS_RATIO = 0.95


def _semiaxes(rng) -> tuple[float, float]:
    a = rng.uniform(1.2, 3.0)
    return a, rng.uniform(0.5 * a, MAX_AXIS_RATIO * a)


def _random_axes(rng) -> dict:
    """Family draw of tests/conftest.py: foci in a square inside the disk,
    a in [1.2, 3], b in [a/2, MAX_AXIS_RATIO a]."""
    f = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
    g = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
    a, b = _semiaxes(rng)
    return {"f": _pair(f), "g": _pair(g), "a": a, "b": b}


def _family(spec: dict) -> PonceletFamily:
    fam = spec["family"]
    if "f" in fam:
        return PonceletFamily.from_axes(complex(*fam["f"]), complex(*fam["g"]),
                                        fam["a"], fam["b"])
    return family_from_inner_circle(fam["a"], fam["b"],
                                    complex(*fam["inner_circle_center"]),
                                    fam["inner_circle_radius"])


def _spec(fam: dict, center: complex, radius: float, samples=None) -> dict:
    spec = {"family": fam,
            "inversion": {"center": _pair(center), "radius": radius}}
    if samples is not None:
        spec["samples"] = samples
    return spec


def _draw_center(rng, fam: PonceletFamily, side: str) -> complex | None:
    """An inversion center on the requested side, by rejection."""
    circles = loop_circles(fam)
    for _ in range(200):
        if side == "inside-all":
            o = complex(*rng.uniform(-0.3, 0.3, 2)) * fam.b
        else:
            o = complex(*rng.uniform(-3.0, 3.0, 2))
        if _side(relative_power(circles, o), 0.05) == side:
            return o
    return None


def _family_with(rng, sides) -> tuple[dict, list[complex]]:
    """A random family with one center drawn for each requested side."""
    while True:
        axes = _random_axes(rng)
        fam = _family({"family": axes})
        centers = [_draw_center(rng, fam, side) for side in sides]
        if all(o is not None for o in centers):
            return axes, centers


# Offset of a near-boundary O, times the outer semi-major axis.  At 1e-7
# classify prints O=Boundary with an Ellipse locus on the exterior side,
# which breaks the law; 1e-6 still holds; 1e-4 keeps two decades of room.
NEAR_BOUNDARY = 1e-4


def _near_boundary(rng, side: str, radius: float) -> tuple[dict, complex]:
    """O just off the sweep-region boundary.

    Walks from an exterior center towards a crossed one to the first sign
    change of the exact-conic discriminant (the outer boundary, not the rim
    of a hole inside every circumcircle), bisects it, and steps
    NEAR_BOUNDARY times the outer semi-major axis to the requested side.
    """
    axes, (o_in, o_out) = _family_with(rng, ("crossed", "exterior"))
    fam = _family({"family": axes})

    def hyperbolic(t):
        return _discriminant(fam, o_in + t * (o_out - o_in), radius)[0] > 0

    ts = np.linspace(1.0, 0.0, 65)
    first = next(i for i, t in enumerate(ts) if hyperbolic(t))
    lo, hi = ts[first], ts[first - 1]  # hyperbola at lo, ellipse at hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if hyperbolic(mid):
            lo = mid
        else:
            hi = mid
    step = NEAR_BOUNDARY * fam.a / abs(o_out - o_in)
    t = 0.5 * (lo + hi) + (-step if side == "in" else step)
    return axes, o_in + t * (o_out - o_in)


def _classify_config(kind: str, axes: dict, o: complex, r: float) -> Config:
    fam = _family({"family": axes})
    disc, tol = _discriminant(fam, o, r)
    if disc > 0:  # hyperbola: O crossed by the moving circumcircle
        location = "Interior"
    else:  # ellipse: inside every circumcircle, or outside all of them
        rel = relative_power(loop_circles(fam), o)
        location = "Interior" if np.median(rel) < 0 else "Exterior"
    return Config(kind, _spec(axes, o, r), o_location=location,
                  type_margin=float(np.log10(abs(disc) / tol)))


def classify_configs(rng, smoke: bool) -> list[Config]:
    """Reference interior O first, then seeded draws round-robin over the
    kinds, so a partial cycle keeps the mix."""
    out = [_classify_config("ref-interior", REF_FAMILY, 1.6 + 0.9j, 0.7)]
    kinds = ["exterior", "crossed", "near-in", "near-out", "inside-all",
             "exterior", "crossed", "near-in", "near-out",
             "exterior", "crossed", "near-in", "near-out", "inside-all",
             "exterior"]
    for kind in kinds[:4] if smoke else kinds:
        r = float(rng.uniform(0.3, 1.5))
        if kind.startswith("near-"):
            axes, o = _near_boundary(rng, kind[5:], r)
        else:
            axes, (o,) = _family_with(rng, (kind,))
        out.append(_classify_config(kind, axes, o, r))
    return out


def _verify_config(kind: str, spec: dict, o_is_p3=False) -> Config:
    spec = {**spec, "samples": VERIFY_SAMPLES}
    fam = _family(spec)
    o = complex(*spec["inversion"]["center"])
    return Config(kind, spec, o_is_p3=o_is_p3,
                  o_inside_x3=inside_x3_locus(fam, o))


def _inner_circle_family() -> dict:
    """The inscribed-circle family of tests/test_family.py.

    Fixed rather than drawn: for about 5% of drawn inner circles (10 of 200)
    p5_constants rejects a near-zero gamma1 as not real (RealnessViolation,
    exit 4), e.g. a=2.4767685645269455, b=1.782570946591304, center
    0.12190868060156355-0.22755468527956835j.
    """
    a, b, center = 2.0, 1.3, 0.15 - 0.1j
    return {"a": a, "b": b, "inner_circle_center": _pair(center),
            "inner_circle_radius": solve_inner_radius(a, b, center)}


def verify_configs(rng, smoke: bool) -> list[Config]:
    # Only the reference config has O crossed by the circumcircle: on drawn
    # crossed O, 2 of 12 draws FAIL sweep_on_exact_conic (residual up to
    # 1.4e-8 against 1e-9) because X3' runs off towards infinity there.
    out = [_verify_config("ref-interior", REF_SPEC)]
    ref_fam = _family(REF_SPEC)
    out.append(_verify_config("ref-exterior", _spec(
        REF_FAMILY, _draw_center(rng, ref_fam, "exterior"), 0.7)))
    if smoke:
        return out

    axes = _random_axes(rng)
    p3 = p3_point(_family({"family": axes})).point
    out.append(_verify_config("o-at-p3", _spec(
        axes, p3, float(rng.uniform(0.3, 1.5))), o_is_p3=True))
    for kind, side in (("inner-circle", "exterior"),
                       ("random-exterior", "exterior"),
                       ("random-inside-all", "inside-all"),
                       ("random-exterior", "exterior"),
                       ("random-inside-all", "inside-all")):
        while True:
            axes = (_inner_circle_family() if kind == "inner-circle"
                    else _random_axes(rng))
            o = _draw_center(rng, _family({"family": axes}), side)
            if o is not None:
                break
        out.append(_verify_config(kind, _spec(
            axes, o, float(rng.uniform(0.3, 1.5)))))
    return out


def sweep_configs(rng, smoke: bool) -> list[Config]:
    # No crossed O: near the crossings X3' reaches |z| ~ 1e3 and its conic
    # residual passes 1e-9 (1.3e-9 on the reference interior config at 4096
    # samples), the resolution of double precision at that distance.
    n = SMOKE_SWEEP_SAMPLES if smoke else SWEEP_SAMPLES
    out = [Config("ref-exterior", {**REF_EXTERIOR_SPEC, "samples": n})]
    for side in ("inside-all", "exterior", "inside-all"):
        axes, (o,) = _family_with(rng, (side,))
        out.append(Config(side, _spec(axes, o, float(rng.uniform(0.3, 1.5)),
                                      n)))
    return out[:2] if smoke else out


# ----------------------------------------------------------------- checks

def _margin(tol: float, residual: float) -> float:
    return math.log10(tol / max(residual, EPS))


def check_sweep(cfg: Config, out: OpOutput) -> tuple[bool, float]:
    """CSV header and rows, skip flags against the meta, every swept X3' on
    the meta's exact conic, and an SVG that parses."""
    if out.code != 0:
        return False, math.nan
    n = cfg.spec["samples"]
    try:
        lines = (out.out_dir / "sweep.csv").read_text().splitlines()
        meta = json.loads((out.out_dir / "sweep_meta.json").read_text())
        ET.fromstring((out.out_dir / "sweep.svg").read_text())
    except (OSError, ET.ParseError):
        return False, math.nan
    if lines[0] != CSV_HEADER or len(lines) != n + 1 or meta["samples"] != n:
        return False, math.nan
    rows = [line.split(",") for line in lines[1:]]
    if any(len(row) != 15 for row in rows):
        return False, math.nan
    flags = [row[14] for row in rows]
    skipped = [i for i, flag in enumerate(flags) if flag == "1"]
    if skipped != meta["skipped"] or len(skipped) + flags.count("0") != n:
        return False, math.nan
    x3p = np.array([[float(row[3]), float(row[4])]
                    for row in rows if row[14] == "0"])
    A, B, C, D, E, F = meta["exact_x3p_conic"]
    x, y = x3p.T
    val = A * x * x + B * x * y + C * y * y + D * x + E * y + F
    grad = np.hypot(2 * A * x + B * y + D, B * x + 2 * C * y + E)
    resid = float(np.max(np.abs(val) / (grad + 1e-300)))
    if not resid <= LOCUS_TOL:
        return False, math.nan
    return True, _margin(LOCUS_TOL, resid)


def check_verify(cfg: Config, out: OpOutput) -> tuple[bool, float]:
    """Exit code 0, one line per check, every line PASS or an expected SKIP;
    residuals read against each check's default tolerance."""
    if out.code != 0:
        return False, math.nan
    lines = out.stdout.splitlines()
    if [line.split(":", 1)[0] for line in lines] != list(VERIFY_CHECKS):
        return False, math.nan
    margins = []
    for line in lines:
        name, rest = line.split(": ", 1)
        status = rest.split(" ", 1)[0]
        if status == "SKIP":
            expected = ((name == "homothety" and not cfg.o_is_p3)
                        or (name == "similitude_tangency" and cfg.o_inside_x3))
            if not expected:
                return False, math.nan
            continue
        if status != "PASS":
            return False, math.nan
        if "residual=" not in rest:
            continue
        residual = float(rest.split("residual=", 1)[1].split(" ", 1)[0])
        if name == "p3_interiority":
            margins.append(math.log10(residual / P3_INTERIORITY_MIN))
        elif name in VERIFY_TOL:
            margins.append(_margin(VERIFY_TOL[name], residual))
    if cfg.o_is_p3 and "homothety: PASS" not in out.stdout:
        return False, math.nan
    worst = min(margins)
    return worst >= 0, worst


def check_classify(cfg: Config, out: OpOutput) -> tuple[bool, float]:
    """The printed O location and locus type obey the conic-type law and
    agree with the oracle's side of the boundary."""
    if out.code != 0:
        return False, math.nan
    fields = dict(item.split("=", 1) for item in out.stdout.split())
    kind, locus = fields["O"], fields["locus"]
    crossings = int(fields["crossings"])
    lawful = (locus == "Parabola" if kind == "Boundary"
              else LAW.get((kind, crossings)) == locus)
    if not lawful or kind != cfg.o_location:
        return False, math.nan
    return True, cfg.type_margin


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    make_configs: Callable[..., list[Config]]
    check: Callable[[Config, OpOutput], tuple[bool, float]]

    def argv(self, cfg_path: Path, out_dir: Path) -> list[str]:
        argv = [self.command, "--config", str(cfg_path)]
        if self.command != "classify":
            argv += ["--out", str(out_dir)]
        if self.command == "sweep":
            argv.append("--svg")
        return argv


WORKLOADS = {
    "sweep-large": Workload("sweep-large", "sweep", sweep_configs, check_sweep),
    "verify-mix": Workload("verify-mix", "verify", verify_configs, check_verify),
    "classify-scan": Workload("classify-scan", "classify", classify_configs,
                              check_classify),
}


def make_configs(workload: str, seed: int, smoke: bool) -> list[Config]:
    rng = np.random.default_rng(seed)
    return WORKLOADS[workload].make_configs(rng, smoke)


def write_configs(configs: list[Config], directory: Path) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, cfg in enumerate(configs):
        path = directory / f"{i:02d}-{cfg.kind}.json"
        path.write_text(json.dumps(cfg.spec))
        paths.append(path)
    return paths
