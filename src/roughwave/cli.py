"""Command line front end: validated YAML configs in, report directories out.

A run configuration is a small YAML mapping:

    scenario: ogawa            # which study to run
    master_seed: 20260816      # drives every random stream
    ogawa:                     # optional overrides for that scenario
      n_samples: 2000

Sections are validated against the scenario spec dataclasses field by
field; unknown keys are rejected with the full key path so typos cannot
silently fall back to defaults.  Exit codes: 0 all checks passed, 1 a
check failed, 2 configuration or usage problem, 3 runtime failure while
running the scenario (the error is recorded in the report directory).
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import traceback
from dataclasses import dataclass, fields

import yaml

from .errors import ConfigError, RoughwaveError
from .mollify import EpsLadder
from .scenarios import (SCENARIOS, ScenarioReport, format_value,
                        write_error_report, write_report)

_MAX_SEED = 2**63


@dataclass(frozen=True)
class RunConfig:
    """A validated run request: scenario name plus its fully-built spec."""

    scenario: str
    spec: object


def _deep_tuple(value):
    if isinstance(value, (list, tuple)):
        return tuple(_deep_tuple(v) for v in value)
    return value


def _build_ladder(value, path: str) -> EpsLadder:
    if not isinstance(value, dict):
        raise ConfigError(f"'{path}' must be a mapping with eps0/ratio/count")
    declared = {f.name: f.type for f in fields(EpsLadder)}
    for key in value:
        if key not in declared:
            raise ConfigError(f"unknown config key '{path}.{key}'")
    kwargs = {key: _coerce(v, declared[key], f"{path}.{key}")
              for key, v in value.items()}
    try:
        return EpsLadder(**kwargs)
    except (RoughwaveError, TypeError) as exc:
        raise ConfigError(f"'{path}': {exc}") from exc


def _coerce(value, declared: str, path: str, default=None):
    # spec dataclasses use postponed annotations, so field types arrive
    # as strings; tuple elements take their type from the field's default
    # and are converted like scalars, so 1 and 1.0 build the same spec
    if declared == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"'{path}' must be an integer, got {value!r}")
        return value
    if declared == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"'{path}' must be a number, got {value!r}")
        return float(value)
    if declared == "str":
        if not isinstance(value, str):
            raise ConfigError(f"'{path}' must be a string, got {value!r}")
        return value
    if declared == "tuple":
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"'{path}' must be a list, got {value!r}")
        value = _deep_tuple(value)
        if isinstance(default, tuple) and default:
            value = tuple(
                _coerce(v, type(default[0]).__name__, f"{path}[{k}]", default[0])
                for k, v in enumerate(value))
        return value
    if declared == "EpsLadder":
        return _build_ladder(value, path)
    return value


def _validate_section(name: str, section, build: bool, master_seed=None):
    spec_cls, _ = SCENARIOS[name]
    if section is None:
        section = {}
    if not isinstance(section, dict):
        raise ConfigError(f"section '{name}' must be a mapping")
    by_name = {f.name: f for f in fields(spec_cls)}
    kwargs = {}
    for key, value in section.items():
        path = f"{name}.{key}"
        if key == "master_seed":
            raise ConfigError(
                f"'{path}': master_seed belongs at the top level")
        if key not in by_name:
            raise ConfigError(f"unknown config key '{path}'")
        kwargs[key] = _coerce(value, by_name[key].type, path,
                              by_name[key].default)
    if not build:
        return None
    try:
        return spec_cls(master_seed=master_seed, **kwargs)
    except RoughwaveError as exc:
        raise ConfigError(f"section '{name}': {exc}") from exc


def parse_config(data, seed_override: int | None = None) -> RunConfig:
    """Validate a loaded YAML mapping and build the scenario spec.

    Every key is checked: the top level admits 'scenario', 'master_seed',
    and one section per known scenario; section keys must match the spec
    dataclass fields.  A command line seed overrides the file's.
    """
    if not isinstance(data, dict):
        raise ConfigError("top-level config must be a mapping")
    known = ", ".join(sorted(SCENARIOS))
    for key in data:
        if key not in ("scenario", "master_seed") and key not in SCENARIOS:
            raise ConfigError(f"unknown config key '{key}'")
    if "scenario" not in data:
        raise ConfigError(f"'scenario' is required; one of: {known}")
    scenario = data["scenario"]
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario '{scenario}'; one of: {known}")

    seed = seed_override if seed_override is not None \
        else data.get("master_seed")
    if seed is None:
        raise ConfigError("'master_seed' is required (or pass --seed)")
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError(f"'master_seed' must be an integer, got {seed!r}")
    if not 0 <= seed < _MAX_SEED:
        raise ConfigError(f"'master_seed' out of range [0, 2^63): {seed}")

    # validate every present section so a typo in an inactive one is
    # still caught; only the selected section is built
    spec = None
    for name in SCENARIOS:
        if name == scenario:
            spec = _validate_section(name, data.get(name), True, seed)
        elif name in data:
            _validate_section(name, data[name], False)
    return RunConfig(scenario=scenario, spec=spec)


def _print_report(report: ScenarioReport, verbosity: int) -> None:
    if verbosity < 1:
        return
    print(f"scenario: {report.scenario}  master_seed: {report.master_seed}  "
          f"elapsed: {report.elapsed:.1f} s")
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        note = f"  ({c.note})" if c.note else ""
        print(f"  {status} {c.name}: observed={format_value(c.observed)} "
              f"bound={format_value(c.bound)}{note}")
    for table in report.tables:
        print(f"table {table.name}: {','.join(table.columns)}")
        for row in table.rows:
            print("  " + "  ".join(format_value(v) for v in row))
    if verbosity >= 2 and report.interchange:
        print("norm interchange (label, p, sup of norms, norm of sups):")
        for label, p, lhs, rhs in report.interchange:
            print(f"  {label}  p={format_value(p)}  {format_value(lhs)}  "
                  f"{format_value(rhs)}")
    print(f"overall: {'PASS' if report.passed else 'FAIL'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="roughwave",
        description="Run a packaged smoothing-family experiment from a "
                    "YAML config and write a report directory.")
    parser.add_argument("config", nargs="?",
                        help="path to the YAML run configuration")
    parser.add_argument("--output-dir", default=None,
                        help="report directory (default: <scenario>-report)")
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed, overriding the config file")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker threads for sample/seed sweeps")
    parser.add_argument("--list-scenarios", action="store_true",
                        help="print available scenarios and exit")
    parser.add_argument("--verbosity", type=int, default=1,
                        choices=(0, 1, 2))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    if args.list_scenarios:
        for name, (spec_cls, _) in SCENARIOS.items():
            doc = (spec_cls.__doc__ or "").strip().splitlines()[0]
            print(f"{name}: {doc}")
        return 0

    if args.config is None:
        print("error: a config file is required (or --list-scenarios)",
              file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2

    try:
        with open(args.config) as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    except yaml.YAMLError as exc:
        print(f"error: config is not valid YAML: {exc}", file=sys.stderr)
        return 2

    try:
        run_config = parse_config(data, seed_override=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    outdir = args.output_dir or f"{run_config.scenario}-report"
    try:
        os.makedirs(outdir, exist_ok=True)
        shutil.copyfile(args.config, os.path.join(outdir, "config.yaml"))
    except OSError as exc:
        print(f"error: cannot write the report directory: {exc}", file=sys.stderr)
        return 2

    _, runner = SCENARIOS[run_config.scenario]
    try:
        report = runner(run_config.spec, jobs=args.jobs)
    except Exception as exc:  # every runtime failure exits 3 with a report
        if not isinstance(exc, RoughwaveError):
            traceback.print_exc()
        write_error_report(outdir, run_config.scenario, run_config.spec, exc)
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    write_report(report, outdir)
    _print_report(report, args.verbosity)
    if args.verbosity >= 1:
        print(f"report written to {outdir}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
