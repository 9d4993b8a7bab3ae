"""cli._format_g against Python's '%.17g' and '%.6g', value by value."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poncelet_inversive import PonceletFamily, analysis, cli

from conftest import EXTERIOR_K, REF_A, REF_B, REF_F, REF_G, REF_K

EDGES = [
    0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324,
    1.7976931348623157e308, -1.7976931348623157e308,
    # where fixed notation starts and ends, and values that round up
    # across a power of ten
    1e-5, 9.99999e-05, 9.999995e-05, 9.9999949e-05, 1e-4, 0.00099999951,
    0.99999951, 9.9999951, 99999.95, 999999.5, 9999995.0, 1e16,
    9999999999999998.0, 9.999999999999999e16, 1e17, 1.0000000000000002e17,
    # integers with trailing zeros
    10.0, 100.0, 120000.0, 1e15, 123456789012345678.0,
    # exact ties: '%' rounds them half to even
    1234567890123456.25, 1234567890123456.75, 2.0 ** -10, 0.5, 2.5,
    0.0001220703125,
]


def _kernel_lines(values, digits: int) -> str:
    rows = cli._format_g(values, digits)
    lines = np.zeros((len(rows), rows.shape[1] + 1), np.uint8)
    lines[:, :-1] = rows
    lines[:, -1] = ord("\n")
    return lines[lines != 0].tobytes().decode()


def _reference_lines(values, digits: int) -> str:
    values = np.asarray(values, dtype=float)
    return f"%.{digits}g\n" * len(values) % tuple(values.tolist())


def _random_doubles(seed: int, n: int) -> np.ndarray:
    """n random bit patterns: the first half over every double, the second
    with binary exponents from 2**-18 to 2**57, where '%' prints fixed
    notation at 6 and 17 digits."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2 ** 64, n, dtype=np.uint64)
    exponent = rng.integers(1023 - 18, 1023 + 57, n - n // 2, dtype=np.uint64)
    fixed = bits[n // 2:]
    fixed &= ~np.uint64(0x7FF << 52)
    fixed |= exponent << np.uint64(52)
    return bits.view(np.float64)


def _sweep_cells(k):
    """The CSV cells and the drawn SVG coordinates of a 4 096-sample sweep
    of the reference family."""
    fam = PonceletFamily.from_axes(REF_F, REF_G, REF_A, REF_B)
    sw = analysis.sweep(fam, k, 4096)
    pts = np.concatenate([getattr(sw, name) for name in
                          ("x3", "x3p", "inv_x3", "x2p", "x4p", "x5p")])
    csv = np.concatenate([sw.thetas, pts.real, pts.imag, sw.power_at_O])
    pts = pts[~np.isnan(pts)]
    return csv[~np.isnan(csv)], np.concatenate([pts.real, pts.imag])


@pytest.mark.parametrize("digits", [17, 6])
def test_edge_values(digits):
    assert _kernel_lines(EDGES, digits) == _reference_lines(EDGES, digits)


@pytest.mark.parametrize("digits", [17, 6])
def test_a_million_random_bit_patterns(digits):
    values = _random_doubles(20261019 + digits, 2 ** 20)
    for start in range(0, len(values), 2 ** 17):
        chunk = values[start:start + 2 ** 17]
        assert _kernel_lines(chunk, digits) == _reference_lines(chunk, digits)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), max_size=40), st.sampled_from([17, 6]))
def test_any_doubles(values, digits):
    assert _kernel_lines(values, digits) == _reference_lines(values, digits)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(min_value=1e-5, max_value=1e17), max_size=40),
       st.sampled_from([17, 6]))
def test_fixed_notation_doubles(values, digits):
    assert _kernel_lines(values, digits) == _reference_lines(values, digits)


def test_float64_working_precision_sends_every_17_digit_cell_to_percent(
        monkeypatch):
    # Where longdouble is float64 the rounding bound of the product passes
    # 1/2 at 17 digits: no cell is certified, and '%' writes the same text.
    values = np.concatenate([_random_doubles(7, 2 ** 14), EDGES,
                             _sweep_cells(EXTERIOR_K)[0]])
    monkeypatch.setattr(cli, "_WIDE", np.float64)
    assert not cli._round_decimal(values, 17)[2].any()
    assert cli._round_decimal(values, 6)[2].any()
    assert _kernel_lines(values, 17) == _reference_lines(values, 17)


@pytest.mark.parametrize("k", [EXTERIOR_K, REF_K], ids=["exterior", "crossed"])
def test_fast_path_covers_the_sweep_cells(k):
    csv, svg = _sweep_cells(k)
    assert np.mean(cli._round_decimal(csv, 17)[2]) >= 0.9
    assert np.mean(cli._round_decimal(svg, 6)[2]) >= 0.9
