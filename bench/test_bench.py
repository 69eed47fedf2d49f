"""Self-tests of the benchmark itself: python3 -m pytest bench -q"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import pytest

from run import (OUT, PER_LAYER, REFERENCE, REL_TOL, SRC, compare_reports,
                 gate, run_workload)
from tracer import TARGETS, Tracer, layer_metrics, self_times
from workloads import Workload

sys.path.insert(0, str(SRC))


@pytest.fixture
def scratch():
    d = OUT / "selftest"
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    yield d
    shutil.rmtree(d, ignore_errors=True)


def test_self_time_of_nested_spans():
    spans = [
        (0, 0.0, 10.0, -1, 0, 0),     # root
        (1, 1.0, 4.0, 0, 0, 0),       # child
        (2, 2.0, 3.0, 1, 0, 0),       # grandchild
        (1, 5.0, 6.0, 0, 0, 0),       # child
        (3, 5.5, 12.0, 0, 0, 0),      # overlaps the previous child, ends late
    ]
    # root: children cover [1, 4] and [5, 10] once each
    assert self_times(spans) == pytest.approx([2.0, 2.0, 1.0, 1.0, 6.5])


def test_layer_ratios_on_synthetic_spans():
    names = ["hypsolve.solve_system", "characteristics.determinacy_domain",
             "mollify.embedded_values", "mollify.kernel_values"]
    spans = [
        (0, 0.0, 10.0, -1, 0, 7),     # one solve, 6 sweeps + audit
        (1, 0.0, 4.0, 0, 0, 0),       # determinacy inside the solve
        (2, 1.0, 2.0, 1, 3, 0),       # evaluation for determinacy: excluded
        (3, 1.0, 2.0, 2, 300, 0),
        (2, 5.0, 6.0, 0, 2, 0),       # evaluation at the feet: counted
        (3, 5.0, 5.5, 4, 200, 0),
    ]
    m = layer_metrics(names, spans)
    assert m["hypsolve.field_evals_per_solve"] == 1.0
    assert m["hypsolve.sweeps"] == 7
    assert m["mollify.kernel_points_per_query"] == pytest.approx(100.0)
    assert m["mollify.kernel_values.ns_per_point"] == pytest.approx(
        1.5e9 / 500)
    assert m["hypsolve.solve_system.self_s"] == pytest.approx(5.0)


def _bindings():
    import roughwave.cli  # noqa: F401  loads every roughwave module
    found = []
    for module_name, attr, *_ in TARGETS:
        owner = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            found.append((cls, meth, cls.__dict__[meth]))
            continue
        original = getattr(owner, attr)
        for name, module in sys.modules.items():
            if name.startswith("roughwave"):
                for key, value in vars(module).items():
                    if value is original:
                        found.append((module, key, value))
    return found


def test_wrap_then_unwrap_restores_every_binding():
    before = _bindings()
    from roughwave import hypsolve, scenarios
    tracer = Tracer()
    tracer.install()
    try:
        for owner, attr, original in before:
            assert owner.__dict__[attr] is not original, attr
        # from-imports are wrapped where they are bound
        assert scenarios.solve_system.__wrapped__ is hypsolve.solve_system.__wrapped__
        assert hasattr(hypsolve.determinacy_domain, "__wrapped__")
    finally:
        tracer.uninstall()
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original, attr


MINI = Workload("mini-ogawa", "ogawa", {"n_samples": 500}, "self-test")


def test_miniature_spec_runs_through_the_runner():
    plain = run_workload(MINI, seed=3, seconds=0.0, trace=False)
    assert plain["failed"] == 0 and plain["attempted"] >= 2
    assert set(plain["metrics"]) == {"wall_s", "setup_s", "peak_rss_mib"}
    assert all(v > 0 for v in plain["metrics"].values())

    traced = run_workload(MINI, seed=3, seconds=0.0, trace=True)
    assert traced["failed"] == 0 and traced["calls_traced"] >= 1
    assert set(PER_LAYER) <= set(traced["metrics"])
    assert traced["metrics"]["mollify.embedded_values.calls"] > 0
    shutil.rmtree(OUT / MINI.name, ignore_errors=True)


def test_gate_flags_an_altered_reference(scratch):
    good = scratch / "good"
    shutil.copytree(REFERENCE / "random-speed", good)
    assert compare_reports(good, REFERENCE / "random-speed", None) is None

    def altered(factor: float) -> Path:
        d = scratch / f"x{factor}"
        shutil.copytree(good, d)
        path = d / "seed_gaps.csv"
        rows = path.read_text().splitlines()
        cells = rows[1].split(",")
        cells[2] = repr(float(cells[2]) * factor)
        rows[1] = ",".join(cells)
        path.write_text("\n".join(rows) + "\n")
        return d

    near, far = altered(1.0 + 1e-6), altered(1.0 + 1e-3)
    assert compare_reports(near, good, REL_TOL) is None
    assert "seed_gaps.csv" in compare_reports(near, good, None)
    assert "seed_gaps.csv" in compare_reports(far, good, REL_TOL)

    call = {"passed": True, "n_checks": 4, "failed_checks": []}
    verdicts = gate([dict(call, outdir=str(good)), dict(call, outdir=str(far))],
                    REFERENCE / "random-speed")
    assert verdicts[0] is None
    assert verdicts[1].startswith("rerun differs")
    assert gate([dict(call, outdir=str(far))], REFERENCE / "random-speed")[0] \
        .startswith("reference differs")
