"""Spans around roughwave's public functions, recorded from outside.

The tracer replaces each target function by a wrapper in every place
that binds it: the defining module and every roughwave module that
imported it by name (``scenarios.solve_system``, ``hypsolve.
determinacy_domain``, ...).  Methods are replaced on their class.  A span
is ``(name, start, end, parent, points, extra)``: ``points`` is the size
of the query array for the kernel and field evaluations, ``extra`` a
count read from the result (Picard sweeps, noise bytes).  Spans stay in
memory until :meth:`Tracer.uninstall`; self time is a span's duration
minus the part of it that its children cover.

The span stack is not thread-safe, so traced runs use ``jobs=1``.
"""

from __future__ import annotations

import gzip
import sys
import time
from collections import defaultdict


def _size(arg) -> int:
    shape = getattr(arg, "shape", None)
    if shape is None:
        return len(arg) if isinstance(arg, (list, tuple)) else 1
    n = 1
    for d in shape:
        n *= d
    return n


def _points(args) -> int:
    # (self, query, ...) for the two evaluation methods
    return _size(args[1])


def _sweeps(result) -> int:
    return result.iterations + 1          # Picard sweeps plus the audit


def _noise_bytes(result) -> int:
    inc = result.increments
    return _size(inc) * inc.itemsize


# (module, attribute or Class.method, span name, points of args, extra of result)
TARGETS = [
    ("roughwave.mollify", "Mollifier.kernel_values", "mollify.kernel_values",
     _points, None),
    ("roughwave.mollify", "EmbeddedField1D.values", "mollify.embedded_values",
     _points, None),
    ("roughwave.characteristics", "determinacy_domain",
     "characteristics.determinacy_domain", None, None),
    ("roughwave.characteristics", "ArclengthChart.__init__",
     "characteristics.arclength_chart", None, None),
    ("roughwave.hypsolve", "solve_system", "hypsolve.solve_system",
     None, _sweeps),
    ("roughwave.hypsolve", "halving_error_estimate",
     "hypsolve.halving_error_estimate", None, None),
    ("roughwave.hypsolve", "geometric_wave_solve",
     "hypsolve.geometric_wave_solve", None, None),
    ("roughwave.fields", "white_noise_field", "fields.white_noise_field",
     None, _noise_bytes),
    ("roughwave.fields", "white_noise_action", "fields.white_noise_action",
     None, None),
    ("roughwave.scenarios", "cone_average_tab", "scenarios.cone_average_tab",
     None, None),
    ("roughwave.scenarios", "write_report", "scenarios.write_report",
     None, None),
    ("roughwave.cli", "parse_config", "cli.parse_config", None, None),
] + [("roughwave.scenarios", run, "scenarios.driver", None, None)
     for run in ("run_calibration", "run_ogawa", "run_additive_noise_wave",
                 "run_geometric_wave", "run_random_speed_wave")]


class Tracer:
    """Records spans for the functions in ``TARGETS`` while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []      # (owner, attribute, original)

    def _wrap(self, fn, name: str, points, extra):
        if name not in self.names:
            self.names.append(name)
        code = self.names.index(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            n = points(args) if points else 0
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (code, start, end, parent, n,
                              extra(result) if extra and result is not None
                              else 0)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every binding of every target in the loaded roughwave modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        loaded = [m for n, m in sorted(sys.modules.items())
                  if n == "roughwave" or n.startswith("roughwave.")]
        for module_name, attr, name, points, extra in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(original, name, points, extra))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, points, extra)
            for module in loaded:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original object back, in reverse order of patching."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: str) -> None:
        """Dump the spans as gzipped CSV: name,start,end,parent,points,extra."""
        with gzip.open(path, "wt", newline="") as fh:
            fh.write("name,start,end,parent,points,extra\n")
            for code, start, end, parent, n, ex in self.spans:
                fh.write(f"{self.names[code]},{start!r},{end!r},"
                         f"{parent},{n},{ex}\n")


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals.

    ``spans`` holds ``(code, start, end, parent, ...)`` tuples whose
    parent is an index into the same list, or -1 for a root.
    """
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for i, span in enumerate(spans):
        lo0, hi0 = span[1], span[2]
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, lo0), min(hi, hi0)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((hi0 - lo0) - covered)
    return out


def _has_ancestor(spans, i: int, codes) -> bool:
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] in codes:
            return True
        p = spans[p][3]
    return False


def layer_metrics(names: list[str], spans: list[tuple]) -> dict:
    """Per-layer metrics of one traced run, keyed by metric name."""
    selfs = self_times(spans)
    per = {n: {"calls": 0, "points": 0, "total_s": 0.0, "self_s": 0.0,
               "extra": 0} for n in names}
    for span, own in zip(spans, selfs):
        agg = per[names[span[0]]]
        agg["calls"] += 1
        agg["points"] += span[4]
        agg["total_s"] += span[2] - span[1]
        agg["self_s"] += own
        agg["extra"] += span[5]

    def get(name):
        return per.get(name, {"calls": 0, "points": 0, "total_s": 0.0,
                              "self_s": 0.0, "extra": 0})

    code = {n: i for i, n in enumerate(names)}
    kv, ev = get("mollify.kernel_values"), get("mollify.embedded_values")
    solve = get("hypsolve.solve_system")
    ev_code = code.get("mollify.embedded_values", -2)
    solve_code = {code.get("hypsolve.solve_system", -2)}
    det_code = {code.get("characteristics.determinacy_domain", -2)}
    kernel_under_ev = sum(s[4] for s in spans
                          if s[0] == code.get("mollify.kernel_values")
                          and s[3] >= 0 and spans[s[3]][0] == ev_code)
    evals_in_solves = sum(1 for i, s in enumerate(spans)
                          if s[0] == ev_code
                          and _has_ancestor(spans, i, solve_code)
                          and not _has_ancestor(spans, i, det_code))

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "mollify.kernel_values.calls": kv["calls"],
        "mollify.kernel_values.points": kv["points"],
        "mollify.kernel_values.self_s": kv["self_s"],
        "mollify.kernel_values.ns_per_point":
            ratio(kv["self_s"] * 1e9, kv["points"]),
        "mollify.embedded_values.calls": ev["calls"],
        "mollify.embedded_values.points": ev["points"],
        "mollify.embedded_values.self_s": ev["self_s"],
        "mollify.kernel_points_per_query": ratio(kernel_under_ev, ev["points"]),
        "characteristics.determinacy_domain.calls":
            get("characteristics.determinacy_domain")["calls"],
        "characteristics.determinacy_domain.total_s":
            get("characteristics.determinacy_domain")["total_s"],
        "characteristics.arclength_chart.calls":
            get("characteristics.arclength_chart")["calls"],
        "characteristics.arclength_chart.total_s":
            get("characteristics.arclength_chart")["total_s"],
        "hypsolve.solve_system.calls": solve["calls"],
        "hypsolve.solve_system.self_s": solve["self_s"],
        "hypsolve.solve_system.total_s": solve["total_s"],
        "hypsolve.sweeps": solve["extra"],
        "hypsolve.field_evals_per_solve": ratio(evals_in_solves, solve["calls"]),
        "hypsolve.halving_error_estimate.total_s":
            get("hypsolve.halving_error_estimate")["total_s"],
        "hypsolve.geometric_wave_solve.total_s":
            get("hypsolve.geometric_wave_solve")["total_s"],
    }
    for name in ("fields.white_noise_field", "fields.white_noise_action"):
        m[name + ".calls"] = get(name)["calls"]
        m[name + ".total_s"] = get(name)["total_s"]
    m["fields.white_noise_field.bytes"] = get("fields.white_noise_field")["extra"]
    m["scenarios.cone_average_tab.calls"] = get("scenarios.cone_average_tab")["calls"]
    m["scenarios.cone_average_tab.self_s"] = get("scenarios.cone_average_tab")["self_s"]
    m["scenarios.driver.self_s"] = get("scenarios.driver")["self_s"]
    m["scenarios.driver.total_s"] = get("scenarios.driver")["total_s"]
    m["scenarios.write_report.total_s"] = get("scenarios.write_report")["total_s"]
    m["cli.parse_config.total_s"] = get("cli.parse_config")["total_s"]
    m["self_s_by_span"] = {n: per[n]["self_s"] for n in names}
    return m
