"""In-memory span tracing of the sphere_equilibria layers.

`install()` wraps the public functions of the traced modules at every place
the package looks them up (a ``from .x import y`` binding is a separate
lookup site), plus the two field-evaluation methods on `FieldInstance`.  Each
call records one span ``[name, start, end, parent, attrs]``; spans stay in
memory until the child writes them out at the end of the pass.
`layer_metrics()` turns the spans of one pass into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import time

TRACED_MODULES = ("field_model", "search", "elliptic", "quadrature",
                  "predictor", "dynamics", "cli")
TRACED_METHODS = (("field_model", "FieldInstance", "eval_field"),
                  ("field_model", "FieldInstance", "eval_jacobian"))
# private functions that are layers of their own: the batched linear solve
# of one Newton step
TRACED_PRIVATE = (("search", "_solve_batch"),)


def _rows(x, n):
    shape = getattr(x, "shape", None)
    if shape is None:
        return 1
    return int(math.prod(shape[:-1])) if len(shape) > 1 else 1


def _attr_eval(args, kwargs, out):
    return {"rows": _rows(args[1], args[0].n)}


def _attr_log_rho(args, kwargs, out):
    p, x = args[0], args[1]
    size = getattr(x, "size", None)
    return {"points": int(size) if size is not None else 1,
            "key": [p.n, p.tau]}


def _attr_sample_batch(args, kwargs, out):
    return {"matrices": int(out.shape[0])}


def _attr_find(args, kwargs, out):
    return {"starts": out.n_starts, "converged": out.n_converged_starts,
            "roots": out.n_found, "saturated": bool(out.saturated)}


def _attr_log_quad(args, kwargs, out):
    return {"panels": out.n_panels, "refinements": out.n_refinements,
            "max_rel_error": out.max_rel_error}


def _attr_batch_dyn(args, kwargs, out):
    return {"starts": len(out), "converged": sum(r.converged for r in out)}


def _attr_write(args, kwargs, out):
    return {"bytes": os.path.getsize(args[0])}


ATTRS = {
    "field_model.eval_field": _attr_eval,
    "field_model.eval_jacobian": _attr_eval,
    "dynamics.velocity": _attr_eval,
    "elliptic.log_rho_real_exact": _attr_log_rho,
    "elliptic.sample_elliptic_batch": _attr_sample_batch,
    "search.find_equilibria": _attr_find,
    "quadrature.log_quad": _attr_log_quad,
    "dynamics.run_to_equilibrium_batch": _attr_batch_dyn,
    "cli.write_csv": _attr_write,
    "cli.write_json": _attr_write,
}


class Tracer:
    """Span recorder; one per child process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, attrs = self.spans, self._stack, ATTRS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if attrs is not None:
                rec[4] = attrs(args, kwargs, out)
            return out

        return traced


def install(tracer: Tracer, package: str = "sphere_equilibria") -> int:
    """Wrap every traced function at every lookup site; returns the site count."""
    __import__(package + ".cli")
    modules = {name: mod for name, mod in sys.modules.items()
               if name == package or name.startswith(package + ".")}
    wrappers = {}
    for short in TRACED_MODULES:
        mod = modules[f"{package}.{short}"]
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                wrappers[id(obj)] = (obj, tracer.wrap(f"{short}.{attr}", obj))
    for short, attr in TRACED_PRIVATE:
        obj = getattr(modules[f"{package}.{short}"], attr)
        wrappers[id(obj)] = (obj, tracer.wrap(f"{short}.{attr}", obj))
    sites = 0
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
                sites += 1
    for short, cls_name, meth in TRACED_METHODS:
        cls = getattr(modules[f"{package}.{short}"], cls_name)
        setattr(cls, meth, tracer.wrap(f"{short}.{meth}", getattr(cls, meth)))
        sites += 1
    return sites


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one pass
# ---------------------------------------------------------------------------

# name -> unit, in the order BENCHMARK.json lists them
LAYER_METRICS = {
    "field_model.eval_field.calls": "count",
    "field_model.eval_field.rows": "count",
    "field_model.eval_field.self_s": "s",
    "field_model.eval_jacobian.calls": "count",
    "field_model.eval_jacobian.rows": "count",
    "field_model.eval_jacobian.self_s": "s",
    "field_model.sample_field.calls": "count",
    "field_model.sample_field.self_s": "s",
    "search.find_equilibria.calls": "count",
    "search.find_equilibria.self_s": "s",
    "search.find_equilibria.total_s": "s",
    "search.tangent_spectrum_at.calls": "count",
    "search.tangent_spectrum_at.self_s": "s",
    "search.solve_batch.calls": "count",
    "search.solve_batch.self_s": "s",
    "search.mc_mean_count.total_s": "s",
    "search.starts": "count",
    "search.converged_starts": "count",
    "search.roots": "count",
    "search.unsaturated": "count",
    "search.converged_ratio": "ratio",
    "search.roots_per_converged": "ratio",
    "elliptic.log_rho_real_exact.calls": "count",
    "elliptic.log_rho_real_exact.points": "count",
    "elliptic.log_rho_real_exact.self_s": "s",
    "elliptic.log_rho_real_exact.first_call_s": "s",
    "elliptic.log_rho_real_exact.warm_call_s": "s",
    "elliptic.sample_elliptic_batch.matrices": "count",
    "elliptic.sample_elliptic_batch.self_s": "s",
    "elliptic.real_eigenvalues_batch.self_s": "s",
    "quadrature.log_quad.calls": "count",
    "quadrature.log_quad.panels": "count",
    "quadrature.log_quad.refinements": "count",
    "quadrature.log_quad.self_s": "s",
    "quadrature.log_quad.max_rel_error": "ratio",
    "predictor.mean_total_exact.calls": "count",
    "predictor.mean_total_exact.total_s": "s",
    "predictor.mean_in_interval.calls": "count",
    "predictor.mean_in_interval.total_s": "s",
    "predictor.predict_asymptotic.total_s": "s",
    "dynamics.run_to_equilibrium_batch.total_s": "s",
    "dynamics.run_to_equilibrium_batch.starts": "count",
    "dynamics.run_to_equilibrium_batch.converged_ratio": "ratio",
    "dynamics.velocity.calls": "count",
    "dynamics.velocity.rows": "count",
    "dynamics.velocity.self_s": "s",
    "cli.parse_config.s": "s",
    "cli.run.total_s": "s",
    "cli.write.bytes": "count",
    "cli.write.self_s": "s",
    "trace.spans": "count",
}


def span_table(span_lists: list[list[list]]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, summed attributes.

    `span_lists` holds the spans of each child of a pass.  Self time is a
    span's duration minus the durations of its direct children; a child is
    single-threaded, so its spans nest.
    """
    table: dict[str, dict] = {}
    for spans in span_lists:
        child_time = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, _, attrs) in enumerate(spans):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
            for key, value in (attrs or {}).items():
                if key == "max_rel_error":
                    row[key] = max(row.get(key, 0.0), value)
                elif key != "key":
                    row[key] = row.get(key, 0) + value
    return table


def _cold_warm(spans: list[list]) -> tuple[float, list[float]]:
    """(summed first-call seconds per (N, tau), durations of the later calls)."""
    seen = set()
    first, warm = 0.0, []
    for name, start, end, _, attrs in spans:
        if name != "elliptic.log_rho_real_exact":
            continue
        key = tuple(attrs["key"])
        if key in seen:
            warm.append(end - start)
        else:
            seen.add(key)
            first += end - start
    return first, warm


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(span_lists: list[list[list]]) -> dict[str, float]:
    """Per-layer metrics of one pass, from the spans of each child it ran."""
    table = span_table(span_lists)
    first, warm = 0.0, []
    for spans in span_lists:
        f, w = _cold_warm(spans)
        first += f
        warm += w

    def get(name, key="calls"):
        return table.get(name, {}).get(key, 0)

    m = {}
    for fn in ("field_model.eval_field", "field_model.eval_jacobian",
               "dynamics.velocity"):
        m[f"{fn}.calls"] = get(fn)
        m[f"{fn}.rows"] = get(fn, "rows")
        m[f"{fn}.self_s"] = get(fn, "self_s")
    for fn in ("field_model.sample_field", "search.find_equilibria",
               "search.tangent_spectrum_at", "elliptic.log_rho_real_exact",
               "quadrature.log_quad"):
        m[f"{fn}.calls"] = get(fn)
        m[f"{fn}.self_s"] = get(fn, "self_s")
    m["search.solve_batch.calls"] = get("search._solve_batch")
    m["search.solve_batch.self_s"] = get("search._solve_batch", "self_s")
    for fn in ("search.find_equilibria", "search.mc_mean_count",
               "predictor.mean_total_exact", "predictor.mean_in_interval",
               "predictor.predict_asymptotic",
               "dynamics.run_to_equilibrium_batch", "cli.run"):
        m[f"{fn}.total_s"] = get(fn, "total_s")
    for fn in ("predictor.mean_total_exact", "predictor.mean_in_interval"):
        m[f"{fn}.calls"] = get(fn)

    find = "search.find_equilibria"
    m["search.starts"] = get(find, "starts")
    m["search.converged_starts"] = get(find, "converged")
    m["search.roots"] = get(find, "roots")
    m["search.unsaturated"] = get(find) - get(find, "saturated")
    m["search.converged_ratio"] = _ratio(get(find, "converged"),
                                         get(find, "starts"))
    m["search.roots_per_converged"] = _ratio(get(find, "roots"),
                                             get(find, "converged"))

    rho = "elliptic.log_rho_real_exact"
    m[f"{rho}.points"] = get(rho, "points")
    m[f"{rho}.first_call_s"] = first
    m[f"{rho}.warm_call_s"] = _ratio(sum(warm), len(warm))
    m["elliptic.sample_elliptic_batch.matrices"] = get(
        "elliptic.sample_elliptic_batch", "matrices")
    m["elliptic.sample_elliptic_batch.self_s"] = get(
        "elliptic.sample_elliptic_batch", "self_s")
    m["elliptic.real_eigenvalues_batch.self_s"] = (
        get("elliptic.real_eigenvalue_counts", "self_s")
        + get("elliptic.real_eigenvalue_values", "self_s"))

    quad = "quadrature.log_quad"
    m[f"{quad}.panels"] = get(quad, "panels")
    m[f"{quad}.refinements"] = get(quad, "refinements")
    m[f"{quad}.max_rel_error"] = get(quad, "max_rel_error")

    dyn = "dynamics.run_to_equilibrium_batch"
    m[f"{dyn}.starts"] = get(dyn, "starts")
    m[f"{dyn}.converged_ratio"] = _ratio(get(dyn, "converged"),
                                         get(dyn, "starts"))

    m["cli.parse_config.s"] = get("cli.parse_config", "total_s")
    m["cli.write.bytes"] = get("cli.write_csv", "bytes") + get("cli.write_json",
                                                               "bytes")
    m["cli.write.self_s"] = (get("cli.write_csv", "self_s")
                             + get("cli.write_json", "self_s"))
    m["trace.spans"] = sum(len(spans) for spans in span_lists)
    return {name: m[name] for name in LAYER_METRICS}
