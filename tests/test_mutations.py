"""Mutation matrix of `verify`: every closed form it checks, scaled by
1 + 1e-6 through the module binding its caller reads, turns a named line
to FAIL, so no line only reads back the formula it is meant to test."""

import dataclasses
import sys

import numpy as np
import pytest

from poncelet_inversive import Circle, PonceletFamily, analysis, inversive, p3_point
from poncelet_inversive.cli import RunConfig, run_verify
from poncelet_inversive.conics import Chart, Conic
from poncelet_inversive.family import Triangle

from conftest import EXTERIOR_K, REF_A, REF_B, REF_F, REF_G, REF_K

SCALE = 1 + 1e-6
power_module = sys.modules[p3_point.__module__]


def _item(i):
    """Scale the i-th of a returned tuple."""
    def mutate(out):
        out = list(out)
        out[i] = out[i] * SCALE
        return tuple(out)
    return mutate


def _field(name):
    """Scale one field of a returned dataclass."""
    return lambda out: dataclasses.replace(
        out, **{name: getattr(out, name) * SCALE})


def _turn_vertex(t):
    return Triangle(t.v1 * np.exp(1e-6j), t.v2, t.v3)


def _move_centre(c):
    return Conic(c.local, Chart(c.chart.center * SCALE, c.chart.scale))


# name: (module, attribute, mutation of the result, line that catches it)
MUTANTS = {
    "c0": (inversive, "circumcenter_affine_in_lambda", _item(0),
           "sweep_on_exact_conic"),
    "c1": (inversive, "circumcenter_affine_in_lambda", _item(1),
           "sweep_on_exact_conic"),
    "c2": (inversive, "circumcenter_affine_in_lambda", _item(2),
           "sweep_on_exact_conic"),
    "M1": (inversive, "pi3_affine_in_lambda", _item(0),
           "projectivity_hypotheses"),
    "M3": (inversive, "pi3_affine_in_lambda", _item(1),
           "projectivity_hypotheses"),
    "P3": (analysis, "p3_point", _field("point"), "p3_constant_power"),
    "Pi3": (analysis, "p3_point", _field("invariant_power"),
            "p3_constant_power"),
    "p3_preimage": (power_module, "p3_preimage", lambda z: z * SCALE,
                    "p3_constant_power"),
    "P5": (analysis, "p5_point", _field("point"), "p5_constant_power"),
    "Pi5": (analysis, "p5_point", _field("invariant_power"),
            "p5_constant_power"),
    "euler_radius": (analysis, "euler_circle", _field("radius"),
                     "p5_constant_power"),
    "inner_ellipse": (analysis, "inner_ellipse_world",
                      _field("major_axis_length"), "poncelet_closure"),
    "vertex": (analysis, "triangle_at", _turn_vertex, "poncelet_closure"),
    "x3_ellipse_centre": (analysis, "circumcenter_locus_conic", _move_centre,
                          "similitude_tangency"),
    "inv_x3": (analysis, "invert_point", lambda z: z * SCALE,
               "similitude_tangency"),
}


def _family():
    return PonceletFamily.from_axes(REF_F, REF_G, REF_A, REF_B)


CONFIGS = {"reference": REF_K, "exterior": EXTERIOR_K,
           "o_at_p3": Circle(p3_point(_family()).point, 1.0)}

# Not caught, and why: M1 is zero at O = P3, so scaling it changes
# nothing; on the reference config the moved X3 ellipse reads 1.6e-8,
# under similitude_tangency's 1e-7.
UNCAUGHT = {("M1", "o_at_p3"), ("x3_ellipse_centre", "reference")}
# The cloud test's band is 1e-4 of the inv(X3) spread, so a 1e-6 scale of
# the cloud passes every line on all three configs.
GAP = pytest.mark.xfail(strict=True, reason="inv(X3) cloud band is 1e-4")

CASES = [pytest.param(m, c, marks=GAP if m == "inv_x3" else ())
         for m in MUTANTS for c in CONFIGS if (m, c) not in UNCAUGHT]


def _failed_lines(k: Circle) -> set[str]:
    lines, _ = run_verify(RunConfig(_family(), k, 720))
    return {line.split(":", 1)[0] for line in lines if ": FAIL" in line}


@pytest.mark.parametrize("where", CONFIGS)
def test_unmutated_configs_pass(where):
    assert _failed_lines(CONFIGS[where]) == set()


@pytest.mark.parametrize("mutant,where", CASES)
def test_mutant_fails_its_line(mutant, where, monkeypatch):
    module, attr, mutate, line = MUTANTS[mutant]
    original = getattr(module, attr)
    monkeypatch.setattr(module, attr,
                        lambda *args, **kw: mutate(original(*args, **kw)))
    assert line in _failed_lines(CONFIGS[where])
