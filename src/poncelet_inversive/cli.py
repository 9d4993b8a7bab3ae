"""Command line interface: sweep, verify, classify.

Configuration is a single flat JSON document; complex numbers are
two-element [re, im] arrays.  Exit codes: 0 success, 2 config error,
3 family construction error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis, family, inversive
from .errors import FamilyError, GeometryError

CSV_HEADER = ("theta,x3_re,x3_im,x3p_re,x3p_im,invx3_re,invx3_im,"
              "x2p_re,x2p_im,x4p_re,x4p_im,x5p_re,x5p_im,power_O,skipped")
_CSV_BLOCK = 512
_WIDE = np.longdouble  # working precision of 17-digit rounding
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


@functools.cache
def _layout(digits: int):
    """Tables of _format_g: a cell row's constant words (sign word "-0",
    integer copy of the digits as 4-digit quads, point word ".000",
    fraction copy); each quad's text; per quad position, one past the
    quad's last nonzero digit; and per (x < 0, e + 4, cut) the row's mask,
    keeping digits j <= e and e < j < cut of the two copies."""
    words = -(-digits // 4)
    pad = 4 * words - digits
    quad = np.arange(10_000)[:, None] // 10 ** np.arange(3, -1, -1) % 10
    text = (quad + ord("0")).astype(np.uint8).view(np.uint32).ravel()
    last = np.max(np.where(quad > 0, np.arange(1, 5), -64), axis=1)
    ends = (last + 4 * np.arange(words)[:, None] - pad).astype(np.int8)
    neg, e, cut, col = np.ix_(range(2), range(-4, digits), range(digits + 1),
                              range(8 * words + 8))
    dot = 4 + 4 * words
    j, jf = col - 4 - pad, col - 4 - pad - dot  # digit in each copy
    keep = ((j >= 0) & (j <= e) | (jf >= 0) & (jf > e) & (jf < cut)
            | (col == 0) & (neg == 1) | (col == 1) & (e < 0)
            | (col == dot) & (cut > e + 1)
            | (col > dot) & (col < dot + 4) & (col - dot <= -1 - e))
    row = np.zeros(8 * words + 8, np.uint8)
    row[[0, 1, dot, dot + 1, dot + 2, dot + 3]] = list(b"-0.000")
    mask = (keep * np.uint8(255)).reshape(-1, 8 * words + 8)
    return row.view(np.uint32), text, ends, mask.view(np.uint64)


def _round_decimal(x: np.ndarray, digits: int):
    """(d, e, ok): d = rint(y), y = |x|*10**(digits-1-e), e = floor(log10|x|)
    clipped to [-4, digits); ok where '%g' prints x in fixed notation with
    digits d: x finite and nonzero, e unclipped, d of digits digits, and
    |y - d| further from 1/2 than y's rounding bound u*10**digits (with
    float64 as _WIDE, no 17-digit cell)."""
    work = _WIDE if digits > 15 else np.float64
    a = np.abs(x)
    ok = np.isfinite(a) & (a > 0)
    a[~ok] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    ok &= (e >= -4) & (e < digits)
    np.clip(e, -4, digits - 1, out=e)
    y = a.astype(work)
    y *= np.array([10 ** k for k in range(digits + 4)], work)[digits - 1 - e]
    d = np.rint(y)
    ok &= np.abs(y - d) < 0.5 - np.finfo(work).eps / 2 * 10.0 ** digits
    ok &= (d >= 10 ** (digits - 1)) & (d < 10 ** digits)
    return np.where(ok, d, 10 ** (digits - 1)).astype(np.int64), e, ok


def _format_g(values, digits: int) -> np.ndarray:
    """'%.{digits}g' % x of each value as one zero-padded uint8 row, in
    order.  Cells _round_decimal certifies are laid out by table from their
    4-digit quads; all others take one Python '%' call."""
    x = np.asarray(values, dtype=float).ravel()
    row, quads, ends, masks = _layout(digits)
    words = len(ends)
    d, e, ok = _round_decimal(x, digits)
    cells = np.tile(row, (len(x), 1))
    cut = e + 1
    for k in range(words - 1, -1, -1):
        q = d // 10_000
        r = d - 10_000 * q
        d = q
        cells[:, 1 + k] = cells[:, 2 + words + k] = quads[r]
        np.maximum(cut, ends[k][r], out=cut)
    idx = np.ravel_multi_index((x < 0, e + 4, cut), (2, digits + 4, digits + 1))
    cells.view(np.uint64)[:] &= np.take(masks, idx, axis=0)
    out = cells.view(np.uint8)
    slow = np.flatnonzero(~ok)
    text = f"%{out.shape[1]}.{digits}g" * len(slow) % tuple(x[slow].tolist())
    text = np.frombuffer(text.encode(), np.uint8).reshape(len(slow), out.shape[1])
    out[slow] = np.where(text == ord(" "), 0, text)
    return out


def write_csv(sw: analysis.SweepResult, path: Path) -> None:
    """One row per sample, each cell '%.17g' % x (see _format_g), empty at
    skipped samples.  Rows are formatted and written _CSV_BLOCK at a time,
    so memory does not grow with the sample count."""
    cols = [sw.thetas]
    for name in ("x3", "x3p", "inv_x3", "x2p", "x4p", "x5p"):
        cols += [getattr(sw, name).real, getattr(sw, name).imag]
    cols.append(sw.power_at_O)
    tails = np.full((len(sw.thetas), 2), list(b"0\n"), np.uint8)
    tails[sw.skipped, 0] = ord("1")
    with open(path, "wb") as out:
        out.write(CSV_HEADER.encode() + b"\n")
        for start in range(0, len(tails), _CSV_BLOCK):
            block = np.column_stack([c[start:start + _CSV_BLOCK] for c in cols])
            text = _format_g(block, 17).reshape(len(block), 14, -1)
            text[np.isnan(block)] = 0
            rows = np.pad(text, ((0, 0), (0, 1), (0, 1)))
            del text  # free the cell matrix before compaction
            rows[:, :14, -1] = ord(",")
            rows[:, 14, :2] = tails[start:start + _CSV_BLOCK]
            out.write(rows[rows != 0])


def _svg_path(points) -> str:
    """Polyline through the points; a NaN point lifts the pen.  One pen
    command per drawn point, ' M' after a lift and ' L' otherwise, with
    each coordinate '%.6g' % x (see _format_g)."""
    pts = np.asarray(points, dtype=complex)
    drawn = ~np.isnan(pts)
    lift = (drawn & ~np.r_[False, drawn[:-1]])[drawn]
    cmds = np.pad(_format_g(pts[drawn].view(float), 6), ((0, 0), (2, 0)))
    cmds[::2, 0] = ord(" ")  # x rows: " M" or " L"; y rows: " "
    cmds[::2, 1] = np.where(lift, ord("M"), ord("L"))
    cmds[1::2, 1] = ord(" ")
    return cmds[cmds != 0].tobytes()[1:].decode()


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
