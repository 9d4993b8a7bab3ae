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

from . import analysis, family, inversive
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
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    sections = {"family", "inversion"}
    if not sections <= set(raw) <= sections | {"samples"}:
        raise ConfigError("config takes family, inversion and optionally "
                          f"samples, got {sorted(raw)}")
    fam_spec, inv_spec = raw["family"], raw["inversion"]
    if not (isinstance(fam_spec, dict) and isinstance(inv_spec, dict)):
        raise ConfigError("family and inversion must be JSON objects")

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
    exact, p3, p5 = sw.exact_conic, sw.p3, sw.p5  # no conic at a = b
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(sw, out_dir / "sweep.csv")
    meta = {
        "exact_x3p_conic": None if exact is None else list(exact.coeffs),
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


def run_verify(cfg: RunConfig) -> tuple[list[str], bool]:
    """One line per row of analysis.VERIFY on one sweep; ok if none fails."""
    sw = analysis.sweep(cfg.fam, cfg.inversion, cfg.samples)
    lines, all_ok = [], True
    for line, bound, check in analysis.VERIFY:
        try:
            ok, residual, note = getattr(analysis, check)(sw, bound)
        except analysis.Skip as skip:
            lines.append(f"{line}: SKIP {skip}")
            continue
        ok |= bound is None  # a report
        all_ok &= ok
        text = f"{line}: {'PASS' if ok else 'FAIL'}"
        if residual is not None:
            text += f" residual={residual:.3e}"
        lines.append(f"{text} {note}" if note else text)
    return lines, all_ok


def cmd_verify(cfg: RunConfig, out_dir: Path) -> int:
    lines, all_ok = run_verify(cfg)
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.txt").write_text(text)
    return 0 if all_ok else 1


def cmd_classify(cfg: RunConfig) -> int:
    print(analysis.classify_O(cfg.fam, cfg.inversion))
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
