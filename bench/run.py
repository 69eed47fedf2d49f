"""Scenario benchmark for roughwave.

    python3 bench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Runs one workload (see ``workloads.py``) repeatedly for ``--seconds``,
each call of the scenario's ``run_*`` in a fresh interpreter, and prints
every metric with its unit, the correctness verdict, the machine facts,
and as the last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates traced and untraced calls and reports the
per-layer metrics plus the tracing overhead.  Run it from the repository
root, which must hold ``src/roughwave``; the report directories and
span dumps go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH_DIR / "reference"

RUN_LIMIT_S = 170.0        # a whole run, set-up included, ends before this
MIN_CALLS = 2              # two calls per run make the rerun-identity gate
SETUP_SAMPLES = 5          # set-up is measured in this many interpreters
REL_TOL = 1e-4             # cell tolerance against the reference CSVs

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER = {
    "mollify.kernel_values.calls": "count",
    "mollify.kernel_values.points": "count",
    "mollify.kernel_values.self_s": "s",
    "mollify.kernel_values.ns_per_point": "ns",
    "mollify.embedded_values.calls": "count",
    "mollify.embedded_values.points": "count",
    "mollify.embedded_values.self_s": "s",
    "mollify.kernel_points_per_query": "1",
    "characteristics.determinacy_domain.calls": "count",
    "characteristics.determinacy_domain.total_s": "s",
    "characteristics.arclength_chart.calls": "count",
    "characteristics.arclength_chart.total_s": "s",
    "hypsolve.solve_system.calls": "count",
    "hypsolve.solve_system.self_s": "s",
    "hypsolve.solve_system.total_s": "s",
    "hypsolve.sweeps": "count",
    "hypsolve.field_evals_per_solve": "1",
    "hypsolve.halving_error_estimate.total_s": "s",
    "hypsolve.geometric_wave_solve.total_s": "s",
    "fields.white_noise_field.calls": "count",
    "fields.white_noise_field.total_s": "s",
    "fields.white_noise_field.bytes": "B",
    "fields.white_noise_action.calls": "count",
    "fields.white_noise_action.total_s": "s",
    "scenarios.cone_average_tab.calls": "count",
    "scenarios.cone_average_tab.self_s": "s",
    "scenarios.driver.self_s": "s",
    "scenarios.write_report.total_s": "s",
    "cli.parse_config.total_s": "s",
    "trace.overhead_s": "s",
}


def machine_facts() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "loadavg_start": [round(x, 2) for x in os.getloadavg()],
            "python": sys.version.split()[0]}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def call_child(config: dict, outdir: Path, trace: bool, setup_only: bool,
               timeout: float) -> dict:
    """Run bench/child.py once; a crash or timeout comes back as ``error``."""
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(config),
           str(outdir)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        result = {}
    if proc.returncode != 0 or not result:
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        result.setdefault("error", f"exit {proc.returncode}: {tail}")
    elif not Path(result["roughwave_file"]).resolve().is_relative_to(SRC):
        result["error"] = f"imported roughwave from {result['roughwave_file']}"
    return result


# -- correctness gate ------------------------------------------------------


def _csv_files(d: Path) -> dict:
    return {p.name: p for p in sorted(d.glob("*.csv"))}


def _cells_close(a: str, b: str, rel: float) -> bool:
    if a == b:
        return True
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    return abs(x - y) <= rel * max(abs(x), abs(y))


def compare_reports(got: Path, want: Path, rel: float | None) -> str | None:
    """None when every CSV matches: byte-identical, or cell by cell within
    ``rel`` when ``rel`` is given.  Otherwise the first mismatch."""
    a, b = _csv_files(got), _csv_files(want)
    if a.keys() != b.keys():
        return f"CSV files differ: {sorted(a)} vs {sorted(b)}"
    for name in a:
        if a[name].read_bytes() == b[name].read_bytes():
            continue
        if rel is None:
            return f"{name} is not byte-identical"
        with open(a[name], newline="") as fa, open(b[name], newline="") as fb:
            rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
        if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
            return f"{name} changed shape"
        for i, (ra, rb) in enumerate(zip(rows_a, rows_b)):
            for j, (x, y) in enumerate(zip(ra, rb)):
                if not _cells_close(x, y, rel):
                    return f"{name} row {i} col {j}: {x} vs reference {y}"
    return None


def gate(calls: list[dict], reference: Path | None) -> list[str | None]:
    """Per call, why it failed or None.  A call fails if it raised, if a
    check is FAIL, if its CSVs differ from the first good call of the run,
    or, at the default seed, if they differ from the reference by more
    than REL_TOL in some cell."""
    verdicts = []
    first = None
    for c in calls:
        why = c.get("error")
        if why is None and not c["passed"]:
            why = "FAIL checks: " + ", ".join(c["failed_checks"])
        if why is None and c["n_checks"] == 0:
            why = "no checks ran"
        outdir = Path(c["outdir"])
        if why is None and first is not None:
            why = compare_reports(outdir, first, None)
            why = why and "rerun differs: " + why
        if why is None and reference is not None:
            why = compare_reports(outdir, reference, REL_TOL)
            why = why and "reference differs: " + why
        if why is None and first is None:
            first = outdir
        verdicts.append(why)
    return verdicts


# -- one workload ----------------------------------------------------------


def run_workload(wl: Workload, seed: int, seconds: float,
                 trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    out = OUT / wl.name
    shutil.rmtree(out, ignore_errors=True)
    config = wl.config(seed)

    calls = []
    while True:
        n = len(calls)
        elapsed = time.monotonic() - start
        per_call = elapsed / n if n else 0.0
        if n >= MIN_CALLS and elapsed + per_call > seconds:
            break
        if n and time.monotonic() + 2.0 * per_call > deadline:
            break
        traced = trace and n % 2 == 0
        c = call_child(config, out / f"call{n}", traced, False,
                       deadline - time.monotonic())
        c["outdir"] = str(out / f"call{n}")
        c["traced"] = traced
        calls.append(c)
        if "error" in c and "timed out" in c["error"]:
            break

    setups = [c["setup_s"] for c in calls
              if "setup_s" in c and not c["traced"]]
    while not trace and len(setups) < SETUP_SAMPLES \
            and time.monotonic() + 5.0 < deadline:
        c = call_child(config, out / "setup", False, True,
                       deadline - time.monotonic())
        if "error" in c:
            break
        setups.append(c["setup_s"])
    shutil.rmtree(out / "setup", ignore_errors=True)

    at_default = wl.master_seed(seed) == DEFAULT_SEED
    verdicts = gate(calls, REFERENCE / wl.name if at_default else None)
    ok = [c for c, v in zip(calls, verdicts) if v is None]
    plain = [c for c in ok if not c["traced"]]
    versions = next(({k: c[k] for k in ("numpy", "scipy")}
                     for c in calls if "numpy" in c), {})
    res = {"workload": wl.name, "seed": wl.master_seed(seed),
           "attempted": len(calls),
           "failed": sum(v is not None for v in verdicts),
           "problems": sorted({v for v in verdicts if v}),
           "calls_traced": sum(c["traced"] for c in calls),
           "versions": versions, "metrics": {}}
    res["call_wall_s"] = [round(c["wall_s"], 4) for c in ok if "wall_s" in c]
    m = res["metrics"]
    if plain:
        m["wall_s"] = statistics.median(c["wall_s"] for c in plain)
        m["peak_rss_mib"] = statistics.median(c["peak_rss_mib"] for c in plain)
    if setups:
        m["setup_s"] = statistics.median(setups)
    traced = [c for c in ok if c["traced"]]
    if traced:
        layers = [c["layers"] for c in traced]
        for name in PER_LAYER:
            if name in layers[0]:
                m[name] = statistics.median(lay[name] for lay in layers)
        if plain:
            m["trace.overhead_s"] = (
                statistics.median(c["wall_s"] for c in traced) - m["wall_s"])
        res["purpose"] = purpose(wl.name, layers[0])
        res["spans"] = traced[0]["spans"]
    return res


def purpose(name: str, lay: dict) -> tuple[bool, str]:
    """Whether the traced call shows what the workload was chosen for."""
    by_self = lay["self_s_by_span"]
    if name == "geometric":
        top = max(by_self, key=by_self.get)
        return (top == "mollify.kernel_values",
                f"largest self time is {top}")
    if name == "additive-noise":
        share = ((lay["fields.white_noise_field.total_s"]
                  + lay["fields.white_noise_action.total_s"]
                  + lay["scenarios.cone_average_tab.self_s"])
                 / lay["scenarios.driver.total_s"])
        return (lay["hypsolve.solve_system.calls"] == 0 and share > 0.5,
                f"solve_system calls {lay['hypsolve.solve_system.calls']}, "
                f"noise + cone-tab share of run {share:.2f}")
    if name == "random-speed":
        calls = lay["fields.white_noise_field.calls"]
        return calls == 0, f"white_noise_field calls {calls}"
    return True, "no stated purpose"


# -- output ----------------------------------------------------------------


def report_lines(res: dict, trace: bool) -> list[str]:
    units = PER_LAYER if trace else END_TO_END
    lines = [f"workload {res['workload']} seed {res['seed']}: "
             f"{res['attempted']} calls, {res['failed']} failed, "
             f"failed_ratio {res['failed'] / max(res['attempted'], 1):.3f}"]
    for name, unit in units.items():
        if name in res["metrics"]:
            lines.append(f"  {name} = {res['metrics'][name]:.6g} {unit}")
    lines.append(f"  call wall_s, in call order: {res['call_wall_s']}")
    if trace and "wall_s" in res["metrics"] and "spans" in res:
        lines.append(f"  untraced wall_s = {res['metrics']['wall_s']:.6g} s, "
                     f"{res['spans']} spans per traced call")
    if "purpose" in res:
        ok, note = res["purpose"]
        lines.append(f"  purpose: {'PASS' if ok else 'FAIL'} ({note})")
    for p in res["problems"]:
        lines.append(f"  failure: {p}")
    lines.append(f"  verdict: {'CORRECT' if not res['failed'] else 'INCORRECT'}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "roughwave" / "__init__.py").is_file():
        print(f"error: no roughwave sources under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**63:
        print("error: --seed must be in [0, 2^63)", file=sys.stderr)
        return 2

    facts = machine_facts()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        res = run_workload(WORKLOADS[name], args.seed, args.seconds,
                           bool(args.trace))
        results.append(res)
        print("\n".join(report_lines(res, bool(args.trace))), flush=True)
    facts.update(results[0]["versions"])
    print("machine: " + json.dumps(facts))

    units = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for res in results:
        prefix = "" if len(results) == 1 else res["workload"] + "/"
        for name, unit in units.items():
            if name in res["metrics"]:
                metrics[prefix + name] = {"value": res["metrics"][name],
                                          "unit": unit}
    failed = sum(r["failed"] for r in results)
    complete = all(name in r["metrics"] for r in results for name in units)
    print(json.dumps({"correct": failed == 0 and complete,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
