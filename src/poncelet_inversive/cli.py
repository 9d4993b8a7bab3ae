"""Command line interface: sweep, verify, classify.

Configuration is a single flat JSON document; complex numbers are
two-element [re, im] arrays.  Exit codes: 0 success, 2 config error,
3 family construction error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis, conics, family, inversive
from .power import p3_point, p3_preimage, p5_point
from .power import power as power_of_point
from .errors import FamilyError, GeometryError

CSV_HEADER = ("theta,x3_re,x3_im,x3p_re,x3p_im,invx3_re,invx3_im,"
              "x2p_re,x2p_im,x4p_re,x4p_im,x5p_re,x5p_im,power_O,skipped")
_CSV_ROW = ",".join(["%.17g"] * 14) + ",%d\n"
_CSV_BLOCK = 1024
_LOCUS_SAMPLES = 512


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    fam: family.PonceletFamily
    inversion: inversive.Circle
    samples: int


def _cplx(spec, key):
    try:
        re, im = spec[key]
        return complex(float(re), float(im))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{key} must be a two-element [re, im] array") from exc


def _number(spec, key, kind=float):
    try:
        return kind(spec[key])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{key} must be a number") from exc


def load_config(path: str, samples: int | None = None) -> RunConfig:
    """Parse and validate a config file; samples, when given, replaces the
    file's sample count before it is checked."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    sections = {"family", "inversion"}
    if not sections <= set(raw) <= sections | {"samples"}:
        raise ConfigError("config takes family, inversion and optionally "
                          f"samples, got {sorted(raw)}")
    fam_spec, inv_spec = raw["family"], raw["inversion"]

    has_foci = "f" in fam_spec and "g" in fam_spec
    has_circle = "inner_circle_center" in fam_spec and "inner_circle_radius" in fam_spec
    if has_foci == has_circle:
        raise ConfigError("family needs exactly one of {f,g,a,b} or "
                          "{a,b,inner_circle_center,inner_circle_radius}")
    a, b = _number(fam_spec, "a"), _number(fam_spec, "b")
    if has_foci:
        fam = family.PonceletFamily.from_axes(
            _cplx(fam_spec, "f"), _cplx(fam_spec, "g"), a, b)
    else:
        fam = family.family_from_inner_circle(
            a, b, _cplx(fam_spec, "inner_circle_center"),
            _number(fam_spec, "inner_circle_radius"))

    center, radius = _cplx(inv_spec, "center"), _number(inv_spec, "radius")
    try:
        k = inversive.Circle(center, radius)
    except ValueError as exc:
        raise ConfigError(f"inversion {exc}") from exc
    if samples is None:
        samples = _number(raw, "samples", int) if "samples" in raw else 720
    if samples < 64:
        raise ConfigError("samples must be >= 64")
    return RunConfig(fam, k, samples)


def write_csv(sw: analysis.SweepResult, path: Path) -> None:
    """One row per sample; '%.17g' % x equals format(x, '.17g'), and the
    NaN cells of skipped samples are written empty.  Rows are formatted
    and written _CSV_BLOCK at a time, so memory does not grow with the
    sample count."""
    cols = [sw.thetas]
    for name in ("x3", "x3p", "inv_x3", "x2p", "x4p", "x5p"):
        cols += [getattr(sw, name).real, getattr(sw, name).imag]
    flags = np.zeros(len(sw.thetas))
    flags[sw.skipped] = 1
    cols += [sw.power_at_O, flags]
    with open(path, "w") as out:
        out.write(CSV_HEADER + "\n")
        for start in range(0, len(flags), _CSV_BLOCK):
            block = np.column_stack([c[start:start + _CSV_BLOCK] for c in cols])
            cells = block.ravel().tolist()
            out.write((_CSV_ROW * len(block) % tuple(cells)).replace("nan", ""))


def _svg_path(points) -> str:
    """Polyline through the points; a NaN point lifts the pen.  Each run of
    drawn points is one 'M x y L x y ...' format, filled in one pass."""
    pts = np.asarray(points, dtype=complex)
    drawn = ~np.isnan(pts)
    edges = np.diff(np.r_[0, drawn, 0])
    runs = np.flatnonzero(edges == -1) - np.flatnonzero(edges == 1)
    fmt = " ".join("M%.6g %.6g" + " L%.6g %.6g" * (k - 1)
                   for k in runs.tolist())
    xy = np.column_stack([pts[drawn].real, pts[drawn].imag]).ravel()
    return fmt % tuple(xy.tolist())


def _locus_polyline(co: inversive.InversiveCoefficients, half_w: float,
                    half_h: float) -> np.ndarray:
    """X3' = z0 + N(lam)/D(lam) at _LOCUS_SAMPLES + 1 points closing the
    unit circle.  NaN (pen up) outside the box |x| <= half_w, |y| <= half_h
    and between samples where D changes sign: the locus runs through
    infinity there."""
    lam = np.exp(2j * np.pi * np.arange(_LOCUS_SAMPLES + 1) / _LOCUS_SAMPLES)
    den = co.denominator(lam)
    with np.errstate(divide="ignore", invalid="ignore"):  # D = 0: at infinity
        pts = co.z0 + co.numerator(lam) / den
    pts[(np.abs(pts.real) > half_w) | (np.abs(pts.imag) > half_h)] = np.nan
    return np.insert(pts, np.flatnonzero(den[:-1] * den[1:] < 0) + 1, np.nan)


def write_svg(sw: analysis.SweepResult, p3: complex, p5: complex,
              path: Path) -> None:
    fam, k = sw.family, sw.inversion
    half_w, half_h = 1.6 * fam.a, 1.6 * fam.b
    half_w = max(half_w, abs(k.center.real) + k.radius + 0.5)
    half_h = max(half_h, abs(k.center.imag) + k.radius + 0.5)
    stroke = min(half_w, half_h) / 250

    inner = family.inner_ellipse_world(fam)
    ic = (inner.focus1 + inner.focus2) / 2
    semi_major = inner.major_axis_length / 2
    semi_minor = np.sqrt(max(semi_major ** 2
                             - (abs(inner.focus2 - inner.focus1) / 2) ** 2, 0))
    tilt = np.degrees(np.angle(inner.focus2 - inner.focus1))

    def parts():
        yield (f'<svg xmlns="http://www.w3.org/2000/svg" '
               f'viewBox="{-half_w:.6g} {-half_h:.6g} {2*half_w:.6g} '
               f'{2*half_h:.6g}">')
        yield f'<g transform="scale(1,-1)">'
        yield (f'<ellipse cx="0" cy="0" rx="{fam.a}" ry="{fam.b}" fill="none" '
               f'stroke="black" stroke-width="{stroke}"/>')
        yield (f'<ellipse cx="{ic.real:.6g}" cy="{ic.imag:.6g}" '
               f'rx="{semi_major:.6g}" ry="{semi_minor:.6g}" '
               f'transform="rotate({tilt:.6g} {ic.real:.6g} {ic.imag:.6g})" '
               f'fill="none" stroke="gray" stroke-width="{stroke}"/>')
        yield (f'<circle cx="{k.center.real:.6g}" cy="{k.center.imag:.6g}" '
               f'r="{k.radius:.6g}" fill="none" stroke="red" stroke-dasharray='
               f'"{4*stroke} {4*stroke}" stroke-width="{stroke}"/>')
        for name, color in (("x3", "#1f77b4"), ("x3p", "#2ca02c"),
                            ("inv_x3", "#bcbd22"), ("x2p", "#17becf"),
                            ("x4p", "#ff7f0e"), ("x5p", "#e377c2")):
            pts = getattr(sw, name)
            yield (f'<path d="{_svg_path(np.append(pts, pts[0]))}" '
                   f'fill="none" stroke="{color}" stroke-width="{stroke}"/>')
        overlay = _locus_polyline(sw.coeffs, half_w, half_h)
        yield (f'<path d="{_svg_path(overlay)}" '
               f'fill="none" stroke="#2ca02c" stroke-width="{stroke/2}" '
               f'opacity="0.6"/>')
        for pt, color in ((p3, "#1f77b4"), (p5, "#ff7f0e")):
            yield (f'<circle cx="{pt.real:.6g}" cy="{pt.imag:.6g}" '
                   f'r="{3*stroke:.6g}" fill="{color}"/>')
        yield "</g></svg>"

    with open(path, "w") as out:
        out.writelines(part + "\n" for part in parts())


def cmd_sweep(cfg: RunConfig, out_dir: Path, svg: bool) -> int:
    sw = analysis.sweep(cfg.fam, cfg.inversion, cfg.samples)
    exact = sw.exact_conic
    p3 = p3_point(cfg.fam)
    p5 = p5_point(cfg.fam)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(sw, out_dir / "sweep.csv")
    meta = {
        "exact_x3p_conic": list(exact.coeffs),
        "p3": [p3.point.real, p3.point.imag],
        "pi3": p3.invariant_power,
        "p5": [p5.point.real, p5.point.imag],
        "pi5": p5.invariant_power,
        "samples": cfg.samples,
        "skipped": sw.skipped,
    }
    (out_dir / "sweep_meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    if svg:
        write_svg(sw, p3.point, p5.point, out_dir / "sweep.svg")
    return 0


def _check(lines, name, ok, residual=None, note=""):
    status = "PASS" if ok else "FAIL"
    extra = f" residual={residual:.3e}" if residual is not None else ""
    if note:
        extra += f" {note}"
    lines.append(f"{name}: {status}{extra}")
    return ok


def _skip(lines, name, note=""):
    lines.append(f"{name}: SKIP {note}".rstrip())


def _power_defect(res, circles: inversive.Circle) -> float:
    """max(std, |mean - Pi|) of the power of res.point with respect to the
    circles, over their mean squared radius."""
    pows = power_of_point(res.point, circles)
    return float(max(pows.std(), abs(pows.mean() - res.invariant_power))
                 / np.mean(circles.radius ** 2))


def run_verify(cfg: RunConfig) -> tuple[list[str], bool]:
    fam, k = cfg.fam, cfg.inversion
    lines = []
    all_ok = True
    sw = analysis.sweep(fam, k, cfg.samples)

    # Closed form vs the swept X3', on about 64 of the kept samples where
    # the closed form is finite.
    at = np.arange(0, len(sw.thetas), max(1, len(sw.thetas) // 64))
    at = at[~np.isnan(sw.x3p[at])
            & ~sw.coeffs.on_circumcircle(np.exp(1j * sw.thetas[at]))]
    direct = sw.x3p[at]
    closed = inversive.inversive_circumcenter_closed(sw.coeffs, sw.thetas[at])
    err = np.max(np.abs(closed - direct) / np.maximum(1.0, np.abs(direct)))
    all_ok &= _check(lines, "closed_form_vs_direct", err < 1e-9, err)

    # Projectivity: the closed-form denominator is a b times the power of O.
    proj = analysis.projectivity_residual(sw)
    all_ok &= _check(lines, "projectivity_hypotheses", proj < 1e-10, proj)

    # Exact vs fitted conic, sweep residuals.
    exact = sw.exact_conic
    fitted = conics.conic_fit(sw.valid("x3p"))
    dist = min(exact.distance(fitted),
               float(np.linalg.norm(exact.coeffs + fitted.coeffs)))
    all_ok &= _check(lines, "exact_vs_fitted_conic", dist < 1e-8, dist)
    resid = np.max(conics.conic_residual(exact, sw.valid("x3p")))
    all_ok &= _check(lines, "sweep_on_exact_conic", resid < 1e-9, resid)

    # Conic type vs O location.
    try:
        rep = analysis.verify_conic_type(sw)
        all_ok &= _check(lines, "conic_type_law", rep.consistent,
                         note=f"O={rep.o_location.kind.value} "
                              f"locus={rep.conic_type.value} "
                              f"crossings={rep.o_location.crossing_count}")
    except GeometryError as exc:
        all_ok &= _check(lines, "conic_type_law", False, note=str(exc))

    # Collinearity, ratio, pencil, on the unskipped samples (NaN compares
    # False) where O is neither X3 nor X3' (collinearity_and_ratio
    # rejects those).
    at = ((np.abs(sw.x3 - k.center) >= 1e-10)
          & (np.abs(sw.x3p - k.center) >= 1e-10))
    circ = inversive.Circle(sw.x3[at], sw.circumcircles.radius[at])
    coll, ratio = inversive.collinearity_and_ratio(
        sw.x3[at], k.center, sw.x3p[at], circ, k)
    pencil = inversive.pencil_membership(
        circ, k, inversive.Circle(sw.x3p[at], sw.image_radius[at]))
    for name, res in (("collinearity", coll), ("distance_ratio", ratio),
                      ("pencil_membership", pencil)):
        res = np.max(res, initial=0.0)
        all_ok &= _check(lines, name, res < 1e-9, res)

    # Constant power points, against the circumcircles and Euler circles.
    res3 = p3_point(fam)
    p3_defect = _power_defect(res3, sw.circumcircles)
    all_ok &= _check(lines, "p3_constant_power", p3_defect < 1e-9, p3_defect)
    p5_defect = _power_defect(
        p5_point(fam), inversive.euler_circle(sw.worlds, sw.circumcircles))
    all_ok &= _check(lines, "p5_constant_power", p5_defect < 1e-8, p5_defect)

    # P3 interiority.
    inner = family.inner_ellipse(fam)
    margin = inner.major_axis_length - (abs(p3_preimage(fam) - fam.f)
                                        + abs(p3_preimage(fam) - fam.g))
    all_ok &= _check(lines, "p3_interiority", margin > 1e-12, margin)

    # Similitude tangency.
    sim = analysis.similitude_check(sw)
    if sim.status == "no-real-tangents":
        _skip(lines, "similitude_tangency", "(O interior to the X3 locus)")
    else:
        ok = (max(sim.locus_residuals) < 1e-7
              and all(d < 1e-4 * sim.scale for d in sim.cloud_distances)
              and all(sim.cloud_one_sided))
        all_ok &= _check(lines, "similitude_tangency", ok,
                         max(sim.locus_residuals))

    # Homothety (only when the config put O at P3).
    if abs(k.center - res3.point) < 1e-9 * max(1.0, abs(res3.point)):
        hom = analysis.homothety_check(sw)
        if hom.status == "degenerate":
            _skip(lines, "homothety", "(X3 locus degenerates to a point)")
        else:
            ok = (hom.angle_defect < 1e-7 and hom.eigenratio_defect < 1e-7
                  and hom.ratio_defect < 1e-7)
            all_ok &= _check(lines, "homothety", ok, max(
                hom.angle_defect, hom.eigenratio_defect, hom.ratio_defect))
    else:
        _skip(lines, "homothety", "(inversion center is not P3)")

    # Poncelet closure.
    world_inner = family.inner_ellipse_world(fam)
    v1, v2, v3 = (v[:: max(1, len(sw.thetas) // 120)] for v in sw.worlds)
    closure = max(np.max(world_inner.side_tangency_residual(s1, s2))
                  for s1, s2 in ((v1, v2), (v2, v3), (v3, v1)))
    all_ok &= _check(lines, "poncelet_closure", closure < 1e-8, closure)

    # Non-conic evidence (report only).
    try:
        nc = analysis.nonconic_evidence(sw)
        notes = ", ".join(
            f"{n}={nc.fits[n].residual:.2e}" if not nc.fits[n].degenerate
            else f"{n}=degenerate" for n in ("x3p", "x2p", "x4p", "x5p"))
        _check(lines, "nonconic_evidence", True, note=f"({notes})")
    except ValueError as exc:
        _skip(lines, "nonconic_evidence", f"({exc})")

    return lines, all_ok


def cmd_verify(cfg: RunConfig, out_dir: Path | None) -> int:
    lines, all_ok = run_verify(cfg)
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.txt").write_text(text)
    return 0 if all_ok else 1


def cmd_classify(cfg: RunConfig) -> int:
    coeffs = inversive.inversive_coeffs(cfg.fam, cfg.inversion)
    ctype = conics.conic_classify(inversive.exact_locus_conic(coeffs))
    loc = analysis.locate_O(coeffs, ctype)
    print(f"O={loc.kind.value} locus={ctype.value} "
          f"crossings={loc.crossing_count}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poncelet-inversive",
        description="Sweep, verify and classify inversive Poncelet "
                    "circumcenter loci.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("sweep", "verify", "classify"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        if name != "classify":
            sp.add_argument("--samples", type=int, default=None)
            sp.add_argument("--out", default="out")
        if name == "sweep":
            sp.add_argument("--svg", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, getattr(args, "samples", None))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FamilyError as exc:
        print(f"family error: {exc}", file=sys.stderr)
        return 3
    try:
        if args.command == "sweep":
            return cmd_sweep(cfg, Path(args.out), args.svg)
        if args.command == "verify":
            return cmd_verify(cfg, Path(args.out))
        return cmd_classify(cfg)
    except GeometryError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
