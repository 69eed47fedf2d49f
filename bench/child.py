"""One measured scenario run, in the fresh interpreter the runner starts.

    python3 bench/child.py CONFIG_JSON OUTDIR [--trace] [--setup-only]

Times set-up (``import roughwave.cli``, ``build_mollifier()`` and config
validation through ``cli.parse_config``), then the scenario's ``run_*``
call from spec built to report returned, then writes the report directory
to OUTDIR.  With ``--trace`` the spans of :mod:`tracer` are recorded and
summarised.  Prints one JSON object as its last line; exits 1 if the run
raised.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback


def _emit(result: dict) -> None:
    print(json.dumps(result))


def main(argv: list[str]) -> int:
    config = json.loads(argv[0])
    outdir = argv[1]
    trace = "--trace" in argv
    setup_only = "--setup-only" in argv

    t0 = time.perf_counter()
    import roughwave.cli as cli
    from roughwave import scenarios
    from roughwave.mollify import build_mollifier

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    build_mollifier()
    run_config = cli.parse_config(config)
    t1 = time.perf_counter()

    import numpy
    import scipy
    result = {"setup_s": t1 - t0, "roughwave_file": cli.__file__,
              "python": sys.version.split()[0], "numpy": numpy.__version__,
              "scipy": scipy.__version__}
    if setup_only:
        _emit(result)
        return 0

    # look the runner up on the module so a traced run gets the wrapper
    runner = getattr(scenarios, cli.SCENARIOS[run_config.scenario][1].__name__)
    try:
        t2 = time.perf_counter()
        report = runner(run_config.spec, jobs=1)
        t3 = time.perf_counter()
        scenarios.write_report(report, outdir)
        t4 = time.perf_counter()
    except Exception as exc:   # report any failure of the program as data
        traceback.print_exc()
        result["error"] = f"{type(exc).__name__}: {exc}"
        _emit(result)
        return 1
    finally:
        if tracer is not None:
            tracer.uninstall()

    result.update(
        wall_s=t3 - t2, write_s=t4 - t3,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        passed=report.passed, n_checks=len(report.checks),
        failed_checks=[c.name for c in report.checks if not c.passed])
    if tracer is not None:
        from tracer import layer_metrics
        tracer.write(os.path.join(outdir, "spans.csv.gz"))
        result["layers"] = layer_metrics(tracer.names, tracer.spans)
        result["spans"] = len(tracer.spans)
    _emit(result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
