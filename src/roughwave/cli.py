"""Command line front end: validated YAML configs in, report directories out.

A run configuration is a small YAML mapping:

    scenario: ogawa            # which study to run
    master_seed: 20260816      # drives every random stream
    ogawa:                     # optional overrides for that scenario
      n_samples: 2000

One builder checks each section against its scenario's spec dataclass
and builds it.  Unknown keys are rejected with the full key path, so
typos cannot silently fall back to defaults.  Each value is coerced by
its field's type: integers become floats, list elements take the type of
the default's first element, and a number must be finite.  A ladder is a
nested mapping built into an ``EpsLadder`` by the same rules.  Exit
codes: 0 all checks passed, 1 a check failed, 2 configuration or usage
problem (an unwritable report directory included), 3 runtime failure
while running the scenario (the error is recorded in the report
directory).
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import traceback
from dataclasses import dataclass, fields, is_dataclass
from typing import get_type_hints

import yaml

from .errors import ConfigError, RoughwaveError
from .scenarios import (SCENARIOS, ScenarioReport, format_value,
                        write_error_report, write_report)

_MAX_SEED = 2**63


@dataclass(frozen=True)
class RunConfig:
    """A validated run request: scenario name plus its fully-built spec."""

    scenario: str
    spec: object


# what a config value of each spec field type may be, and its name in
# messages; every field type has an entry, so no value goes unchecked
_ACCEPTS = {int: (int, "an integer"), float: ((int, float), "a number"),
            str: (str, "a string"), tuple: ((list, tuple), "a list")}


def _coerce(value, kind, path: str, default):
    # integers become floats, so 1 and 1.0 build the same spec; tuple
    # elements take the type of the default's first element
    if is_dataclass(kind):
        return _build(kind, value, path)
    accepts, noun = _ACCEPTS[kind]
    if isinstance(value, bool) or not isinstance(value, accepts):
        raise ConfigError(f"'{path}' must be {noun}, got {value!r}")
    if kind is float:
        # false for inf, nan and integers beyond the largest float
        if not abs(value) <= sys.float_info.max:
            raise ConfigError(f"'{path}' must be finite, got {value!r}")
        return float(value)
    if kind is tuple:
        first = default[0]
        return tuple(_coerce(v, type(first), f"{path}[{k}]", first)
                     for k, v in enumerate(value))
    return value


def _build(cls, mapping, path: str, build: bool = True, **fixed):
    """Check a config mapping against dataclass cls, then build it.

    Keys must name fields of cls; keys in fixed are supplied by the caller
    and refused here.  Each value is coerced by its field's type, a
    dataclass-typed field by this same walk.  With build false the spec is
    checked but not constructed.  An empty mapping (None) means defaults.
    """
    if mapping is None:
        mapping = {}
    if not isinstance(mapping, dict):
        raise ConfigError(f"'{path}' must be a mapping, got {mapping!r}")
    hints = get_type_hints(cls)
    defaults = {f.name: f.default for f in fields(cls)}
    kwargs = {}
    for key, value in mapping.items():
        key_path = f"{path}.{key}"
        if key in fixed:
            raise ConfigError(f"'{key_path}': {key} belongs at the top level")
        if key not in defaults:
            raise ConfigError(f"unknown config key '{key_path}'")
        kwargs[key] = _coerce(value, hints[key], key_path, defaults[key])
    if not build:
        return None
    try:
        return cls(**fixed, **kwargs)
    # a missing field is a TypeError, and a check that cannot evaluate a
    # value (an overflow) has refused it
    except (RoughwaveError, TypeError, ArithmeticError) as exc:
        raise ConfigError(f"'{path}': {exc}") from exc


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

    # check every present section so a typo in an inactive one is still
    # caught; only the selected section is built
    for name, (spec_cls, _) in SCENARIOS.items():
        if name != scenario and name in data:
            _build(spec_cls, data[name], name, build=False, master_seed=seed)
    spec = _build(SCENARIOS[scenario][0], data.get(scenario), scenario,
                  master_seed=seed)
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

    try:
        write_report(report, outdir)
    except OSError as exc:
        print(f"error: cannot write the report directory: {exc}", file=sys.stderr)
        return 2
    _print_report(report, args.verbosity)
    if args.verbosity >= 1:
        print(f"report written to {outdir}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
