"""Spans around the package's public functions, recorded from outside it.

`Tracer` wraps every public function and public method of the layer
modules.  Because modules import each other's functions by name (analysis
binds `triangle_at` in its own namespace), a wrapper replaces every
module-namespace binding of the wrapped object, not only the defining one.
Spans carry name, start, end, parent span and op id; they are kept in
memory as columns and written out with `save`.  `layer_metrics` derives
the per-layer numbers from them.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

PACKAGE = "poncelet_inversive"
LAYERS = ("family", "inversive", "power", "conics", "analysis", "cli")
OP_SPAN = "bench.op"

CLOSED_FORM = ("inversive.inversive_coeffs", "inversive.exact_locus_conic",
               "inversive.inversive_circumcenter_closed",
               "inversive.hypothesis_residuals")
CHECKS = ("analysis.similitude_check", "analysis.homothety_check",
          "analysis.nonconic_evidence")


def _param_getter(fn, names):
    """Reader of the first parameter of fn named in names, or None."""
    params = list(inspect.signature(fn).parameters)
    for name in names:
        if name in params:
            idx = params.index(name)
            return lambda args, kwargs: (args[idx] if len(args) > idx
                                         else kwargs[name])
    return None


def _work_measure(name: str, fn):
    """What a span of this function counts in its `work` column."""
    if name.startswith("family."):
        theta = _param_getter(fn, ("theta", "thetas"))
        if theta is not None:  # cubic solves: one per parameter value
            return lambda args, kwargs, result: np.size(theta(args, kwargs))
    if name == "conics.conic_fit":
        points = _param_getter(fn, ("points",))
        return lambda args, kwargs, result: len(points(args, kwargs))
    if name == "analysis.sweep":  # fraction of samples skipped
        return lambda args, kwargs, result: (len(result.skipped)
                                             / len(result.thetas))
    if name in ("cli.write_csv", "cli.write_svg"):  # bytes written
        path = _param_getter(fn, ("path",))
        return lambda args, kwargs, result: Path(path(args, kwargs)).stat().st_size
    return None


class Tracer:
    """Install with `with Tracer() as tr:`; spans accumulate across uses."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self._stack: list[int] = []
        self.current_op = -1
        self._patches = self._plan()

    # -- recording

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.work.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op_span(self, op_id: int):
        """Root span of one op; everything the op calls nests under it."""
        self.current_op = op_id
        i = self._open(self._name_id(OP_SPAN))
        try:
            yield
        finally:
            self._close(i)
            self.current_op = -1

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        measure = _work_measure(name, fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if measure is not None:
                tracer.work[i] = measure(args, kwargs, result)
            return result

        return traced

    # -- patching

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, replacement) for every binding."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        patches = []
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(f"{layer}.{attr}", obj)
                    for owner in modules:
                        for key, val in vars(owner).items():
                            if val is obj:
                                patches.append((owner, key, obj, wrapped))
                elif inspect.isclass(obj):
                    for meth, raw in vars(obj).items():
                        if meth.startswith("_"):
                            continue
                        name = f"{layer}.{attr}.{meth}"
                        if isinstance(raw, staticmethod):
                            new = staticmethod(self._wrap(name, raw.__func__))
                        elif inspect.isfunction(raw):
                            new = self._wrap(name, raw)
                        else:
                            continue
                        patches.append((obj, meth, raw, new))
        return patches

    def __enter__(self):
        for owner, key, _, new in self._patches:
            setattr(owner, key, new)
        return self

    def __exit__(self, *exc):
        for owner, key, old, _ in self._patches:
            setattr(owner, key, old)
        self._stack.clear()

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), name_id=np.array(self.name_id),
                 parent=np.array(self.parent), op=np.array(self.op),
                 start=np.array(self.start), end=np.array(self.end),
                 work=np.array(self.work))


# ----------------------------------------------------------------- metrics

def _has_ancestor(parent: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """True where some strict ancestor of the span has mask set."""
    flag = np.zeros(len(parent), bool)
    cur = parent.copy()
    live = cur >= 0
    while live.any():
        flag[live] |= mask[cur[live]]
        cur[live] = parent[cur[live]]
        live = cur >= 0
    return flag


def layer_metrics(tr: Tracer, timed_ops, count_ops, samples: dict) -> dict:
    """Per-op layer numbers.  Times average over timed_ops; counts over
    count_ops (one pass over the workload's configs, so they repeat
    exactly).  samples maps op id -> samples the config requested."""
    nid = np.array(tr.name_id, dtype=np.int64)
    parent = np.array(tr.parent, dtype=np.int64)
    op = np.array(tr.op, dtype=np.int64)
    dur = np.array(tr.end) - np.array(tr.start)
    work = np.array(tr.work)
    has_parent = parent >= 0
    self_t = dur - np.bincount(parent[has_parent], weights=dur[has_parent],
                               minlength=len(dur))
    layer = np.array([n.split(".", 1)[0] for n in tr.names] + [""])[nid]

    timed = np.isin(op, list(timed_ops))
    counted = np.isin(op, list(count_ops))
    n_timed, n_counted = max(len(timed_ops), 1), max(len(count_ops), 1)

    def is_(*fn_names):
        return np.isin(nid, [tr._ids[n] for n in fn_names if n in tr._ids])

    def outermost(*fn_names):
        mask = is_(*fn_names)
        return mask & ~_has_ancestor(parent, mask)

    def per_timed(values, mask):
        return float(values[mask & timed].sum() / n_timed)

    def per_counted(mask, values=None):
        sel = mask & counted
        return float((values[sel].sum() if values is not None else sel.sum())
                     / n_counted)

    solve = (layer == "family") & (work > 0)
    under_classify = _has_ancestor(parent, is_("analysis.classify_O"))
    sweeps = is_("analysis.sweep")
    requested = sum(samples[i] for i in count_ops)
    solves_timed = float(work[solve & timed].sum())
    fam_self = per_timed(self_t, layer == "family")

    return {
        "family.solves": per_counted(solve, work),
        "family.solves_per_sample": float(work[solve & counted].sum()
                                          / max(requested, 1)),
        "family.self_s": fam_self,
        "family.us_per_solve": (fam_self * n_timed / solves_timed * 1e6
                                if solves_timed else 0.0),
        "inversive.calls": per_counted(layer == "inversive"),
        "inversive.self_s": per_timed(self_t, layer == "inversive"),
        "inversive.closed_form_s": per_timed(dur, outermost(*CLOSED_FORM)),
        "power.calls": per_counted(layer == "power"),
        "power.self_s": per_timed(self_t, layer == "power"),
        "conics.fit_calls": per_counted(is_("conics.conic_fit")),
        "conics.fit_points": per_counted(is_("conics.conic_fit"), work),
        "conics.fit_s": per_timed(dur, outermost("conics.conic_fit")),
        "conics.residual_calls": per_counted(is_("conics.conic_residual")),
        "conics.self_s": per_timed(self_t, layer == "conics"),
        "analysis.sweeps": per_counted(sweeps),
        "analysis.sweep_self_s": per_timed(self_t, sweeps),
        "analysis.classify_self_s": per_timed(self_t, is_("analysis.classify_O")),
        "analysis.classify_solves": per_counted(solve & under_classify, work),
        "analysis.check_s": per_timed(dur, outermost(*CHECKS)),
        "analysis.skip_ratio": (float(work[sweeps & counted].mean())
                                if (sweeps & counted).any() else 0.0),
        "cli.load_config_s": per_timed(dur, outermost("cli.load_config")),
        "cli.verify_self_s": per_timed(self_t, is_("cli.run_verify")),
        "cli.csv_s": per_timed(dur, is_("cli.write_csv")),
        "cli.csv_bytes": per_counted(is_("cli.write_csv"), work),
        "cli.svg_s": per_timed(dur, is_("cli.write_svg")),
        "cli.svg_bytes": per_counted(is_("cli.write_svg"), work),
    }


def solves_by_op(tr: Tracer) -> dict[int, float]:
    """Cubic solves recorded under each op id."""
    family = np.array([n.startswith("family.") for n in tr.names] + [False])
    nid = np.array(tr.name_id, dtype=np.int64)
    work = np.array(tr.work)
    op = np.array(tr.op, dtype=np.int64)
    sel = family[nid] & (work > 0) & (op >= 0)
    totals = np.bincount(op[sel], weights=work[sel])
    return {i: float(v) for i, v in enumerate(totals)}
