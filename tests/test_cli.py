import os
import subprocess
import sys

import pytest
import yaml

import roughwave
from roughwave.cli import RunConfig, main, parse_config
from roughwave.errors import ConfigError, EmptyDomainError
from roughwave.scenarios import SCENARIOS, CalibrationSpec, RandomSpeedSpec

from conftest import MASTER_SEED


def write_config(path, data):
    path.write_text(yaml.safe_dump(data))
    return str(path)


# -------------------------------------------------------------- parsing


def test_parse_minimal_config_fills_defaults():
    rc = parse_config({"scenario": "ogawa", "master_seed": 7})
    assert isinstance(rc, RunConfig)
    assert rc.scenario == "ogawa"
    assert rc.spec.master_seed == 7
    assert rc.spec.eps == 0.01
    assert rc.spec.n_samples == 2000
    assert rc.spec.check_times == (0.5, 0.75, 1.0)


def test_parse_unknown_section_key_names_path():
    data = {"scenario": "ogawa", "master_seed": 7,
            "ogawa": {"epsilonn": 0.01}}
    with pytest.raises(ConfigError, match="ogawa.epsilonn"):
        parse_config(data)


def test_parse_ladder_ratio_rejected():
    data = {"scenario": "geometric-wave", "master_seed": 7,
            "geometric-wave": {"sine_ladder":
                               {"eps0": 0.2, "ratio": 1.5, "count": 4}}}
    with pytest.raises(ConfigError, match="sine_ladder"):
        parse_config(data)


def test_parse_ladder_unknown_subkey():
    data = {"scenario": "geometric-wave", "master_seed": 7,
            "geometric-wave": {"sine_ladder":
                               {"eps0": 0.2, "ratioo": 0.5, "count": 4}}}
    with pytest.raises(ConfigError, match="sine_ladder.ratioo"):
        parse_config(data)


def test_parse_validates_inactive_sections():
    data = {"scenario": "ogawa", "master_seed": 7,
            "calibration": {"kapa": 2.0}}
    with pytest.raises(ConfigError, match="calibration.kapa"):
        parse_config(data)


def test_parse_unknown_top_level_key():
    with pytest.raises(ConfigError, match="outputs"):
        parse_config({"scenario": "ogawa", "master_seed": 7, "outputs": "x"})


def test_parse_requires_scenario_and_seed():
    with pytest.raises(ConfigError, match="scenario"):
        parse_config({"master_seed": 7})
    with pytest.raises(ConfigError, match="master_seed"):
        parse_config({"scenario": "ogawa"})
    with pytest.raises(ConfigError, match="unknown scenario"):
        parse_config({"scenario": "ogava", "master_seed": 7})
    with pytest.raises(ConfigError):
        parse_config(["not", "a", "mapping"])


def test_parse_seed_validation():
    with pytest.raises(ConfigError, match="master_seed"):
        parse_config({"scenario": "ogawa", "master_seed": True})
    with pytest.raises(ConfigError, match="master_seed"):
        parse_config({"scenario": "ogawa", "master_seed": -3})
    rc = parse_config({"scenario": "ogawa", "master_seed": 1},
                      seed_override=99)
    assert rc.spec.master_seed == 99


def test_parse_type_coercion():
    data = {"scenario": "additive-noise-wave", "master_seed": 7,
            "additive-noise-wave": {
                "n_samples": 100,
                "points": [[0.0, 1.0], [0.5, 1.0], [2.5, 1.0]],
                "overlap_pairs": [[0, 1]],
                "disjoint_pair": [0, 2],
                "eps": 0.02}}
    rc = parse_config(data)
    assert rc.spec.n_samples == 100
    assert rc.spec.points == ((0.0, 1.0), (0.5, 1.0), (2.5, 1.0))
    assert rc.spec.eps == 0.02
    bad = {"scenario": "ogawa", "master_seed": 7,
           "ogawa": {"n_samples": "many"}}
    with pytest.raises(ConfigError, match="ogawa.n_samples"):
        parse_config(bad)


@pytest.mark.parametrize("scenario, key, value, path", [
    ("ogawa", "probes", ["a"], r"ogawa.probes\[0\]"),
    ("ogawa", "check_times", [0.5, None], r"ogawa.check_times\[1\]"),
    ("additive-noise-wave", "points", [[0.0, 1.0], [0.5, "x"]],
     r"points\[1\]\[1\]"),
    ("additive-noise-wave", "points", [0.0, 1.0], r"points\[0\]"),
    ("additive-noise-wave", "overlap_pairs", [[0, 1.5]],
     r"overlap_pairs\[0\]\[1\]"),
    ("geometric-wave", "curves", ["flat", 3], r"curves\[1\]"),
])
def test_parse_tuple_elements_typed_by_default(scenario, key, value, path):
    data = {"scenario": scenario, "master_seed": 7, scenario: {key: value}}
    with pytest.raises(ConfigError, match=path):
        parse_config(data)


def test_parse_ladder_integer_numbers_become_floats():
    rc = parse_config({"scenario": "random-speed-wave", "master_seed": 7,
                       "random-speed-wave": {"ladder": {"eps0": 1, "ratio": 0.5,
                                                        "count": 2}}})
    assert type(rc.spec.ladder.eps0) is float and rc.spec.ladder.eps0 == 1.0
    assert type(rc.spec.ladder.count) is int


def test_parse_tuple_elements_accept_integer_numbers():
    rc = parse_config({"scenario": "ogawa", "master_seed": 7,
                       "ogawa": {"probes": [0, 1]}})
    assert rc.spec.probes == (0, 1)


def test_integer_literals_in_tuple_fields_write_same_report(tmp_path):
    outputs = []
    for k, times in enumerate(([1, 0.5], [1.0, 0.5])):
        data = {"scenario": "ogawa", "master_seed": 7,
                "ogawa": {"n_samples": 50, "check_times": times}}
        outputs.append(tmp_path / f"out{k}")
        assert main([write_config(tmp_path / f"c{k}.yaml", data),
                     "--output-dir", str(outputs[-1]), "--verbosity", "0"]) in (0, 1)
        assert parse_config(data).spec.check_times == (1.0, 0.5)
    for name in ("config_echo.csv", "spread.csv"):
        first, second = ((out / name).read_bytes() for out in outputs)
        assert first == second, name
    assert b"check_times,1.0;0.5" in (outputs[0] / "config_echo.csv").read_bytes()


def test_parse_master_seed_not_allowed_in_section():
    data = {"scenario": "ogawa", "master_seed": 7,
            "ogawa": {"master_seed": 8}}
    with pytest.raises(ConfigError, match="top level"):
        parse_config(data)


# ------------------------------------------------------------ cli driver


def test_cli_list_scenarios(capsys):
    assert main(["--list-scenarios"]) == 0
    out = capsys.readouterr().out
    for name in SCENARIOS:
        assert name in out


def test_cli_requires_config(capsys):
    assert main([]) == 2
    assert "config file" in capsys.readouterr().err


def test_cli_missing_file(capsys, tmp_path):
    assert main([str(tmp_path / "nope.yaml")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_cli_invalid_yaml(capsys, tmp_path):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("scenario: [unclosed\n")
    assert main([str(cfg)]) == 2
    assert "YAML" in capsys.readouterr().err


def test_cli_config_error_exit_code(capsys, tmp_path):
    cfg = write_config(tmp_path / "c.yaml",
                       {"scenario": "ogawa", "master_seed": 1,
                        "ogawa": {"epsilonn": 0.01}})
    assert main([cfg]) == 2
    assert "ogawa.epsilonn" in capsys.readouterr().err


def test_cli_overlapping_disjoint_pair_is_config_error(capsys, tmp_path):
    cfg = write_config(tmp_path / "c.yaml",
                       {"scenario": "additive-noise-wave", "master_seed": 1,
                        "additive-noise-wave": {"disjoint_pair": [0, 0]}})
    assert main([cfg, "--output-dir", str(tmp_path / "out")]) == 2
    assert "disjoint pair" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, message", [
    ({"quad_nodes": 128}, "quad_nodes must be odd"),
    ({"eps": -0.02}, "eps must be positive"),
    ({"cell_factor": 0.0}, "cell_factor must be positive"),
    ({"n_samples": 1}, "n_samples must be >= 2"),
], ids=["quad-nodes-even", "eps-negative", "cell-factor-zero", "one-sample"])
def test_cli_meaningless_additive_values_are_config_errors(capsys, tmp_path,
                                                           overrides, message):
    cfg = write_config(tmp_path / "c.yaml",
                       {"scenario": "additive-noise-wave", "master_seed": 1,
                        "additive-noise-wave": overrides})
    outdir = tmp_path / "out"
    assert main([cfg, "--output-dir", str(outdir)]) == 2
    assert message in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("scenario, overrides, message", [
    ("random-speed-wave", {"speed_lo": -1.0}, "speed_lo must be positive"),
    ("random-speed-wave", {"kappa": 1.0}, "no determinate set"),
    ("ogawa", {"eps": -0.01}, "eps must lie in"),
    ("ogawa", {"check_times": []}, "check_times must be"),
    ("ogawa", {"n_samples": 1}, "n_samples must be >= 2"),
    ("calibration", {"dt": 0.0}, "dt must be positive"),
    ("calibration", {"kappa": -1.0}, "kappa must be positive"),
    ("geometric-wave", {"curves": ["c1-sine"],
                        "sine_ladder": {"eps0": 0.2, "ratio": 0.5, "count": 1}},
     "sine_ladder count must be >= 2"),
    ("geometric-wave", {"sine_chart_nodes": 2}, "sine_chart_nodes must be >= 3"),
    ("random-speed-wave",
     {"ladder": {"eps0": 0.4, "ratio": 0.5, "count": 4, "scale_map": "log"}},
     "ladder': scale_map must be 'identity'"),
    # ladder keys are typed like every other spec field
    ("random-speed-wave", {"ladder": {"eps0": 0.4, "ratio": 0.5, "count": 2.5}},
     "'random-speed-wave.ladder.count' must be an integer, got 2.5"),
    ("random-speed-wave", {"ladder": {"eps0": True, "ratio": 0.5, "count": 4}},
     "'random-speed-wave.ladder.eps0' must be a number, got True"),
    ("geometric-wave", {"sine_ladder": {"eps0": 0.2, "ratio": "half", "count": 4}},
     "'geometric-wave.sine_ladder.ratio' must be a number, got 'half'"),
    ("additive-noise-wave",
     {"cauchy_ladder": {"eps0": 0.16, "ratio": 0.5, "count": 4, "scale_map": 1}},
     "'additive-noise-wave.cauchy_ladder.scale_map' must be a string, got 1"),
    # the mean reference reads the data out to max|probe| + 6.5 shift sds
    ("ogawa", {"data_halfwidth": 1.0, "n_samples": 4}, "data_halfwidth 1.0 too small"),
    ("ogawa", {"data_halfwidth": 7.0, "n_samples": 4}, "data_halfwidth 7.0 too small"),
    ("ogawa", {"eps": 0.1, "path_pad": 1.0, "n_samples": 4},
     "data_halfwidth 8.0 too small"),
    ("geometric-wave", {"probes": []}, "probes is empty"),
    # every foot lies within eval_time 0.5 of a probe: the flat and linear
    # curves live on [-4, 4], the smoothed sine on +-(5 - 1.5512) and the
    # smoothed Brownian path on +-(5 - 2.0)
    ("geometric-wave", {"probes": [3.9], "curves": ["flat"]},
     "where the flat curve is defined"),
    ("geometric-wave", {"probes": [-3.6, 0.0], "curves": ["linear"]},
     "where the linear curve is defined"),
    ("geometric-wave", {"probes": [3.0], "curves": ["c1-sine"]},
     "where the c1-sine curve is defined"),
    ("geometric-wave", {"probes": [-2.6], "curves": ["flat", "brownian"]},
     "where the brownian curve is defined"),
    ("calibration", {"transport_time": 50}, "determinacy collapse time"),
    ("calibration", {"transport_speed": float("nan")},
     "sampled speed bound nan is not finite"),
    ("random-speed-wave", {"dt": 0.3, "horizon": 0.5}, "dt/2 refinement"),
    # the smoothed speeds reach speed_hi times the kernel's L1 norm 1.14
    ("random-speed-wave", {"speed_hi": 10.0}, "no determinate set"),
], ids=["speed-lo-negative", "empty-domain", "ogawa-eps-negative",
        "ogawa-no-check-times", "ogawa-one-sample", "calibration-dt-zero",
        "calibration-kappa-negative", "geometric-one-level-sine-ladder",
        "geometric-two-chart-nodes", "random-speed-log-scale-map",
        "ladder-fractional-count", "ladder-boolean-eps0", "ladder-string-ratio",
        "ladder-integer-scale-map",
        "ogawa-data-halfwidth-1", "ogawa-data-halfwidth-7",
        "ogawa-coarse-eps-default-halfwidth", "geometric-no-probes",
        "geometric-flat-probe-past-4", "geometric-linear-probe-past-minus-4",
        "geometric-sine-probe-past-path", "geometric-brownian-probe-past-path",
        "calibration-transport-past-collapse", "calibration-transport-speed-nan",
        "random-speed-off-lattice-dt", "random-speed-fast-speed"])
def test_cli_meaningless_spec_values_are_config_errors(capsys, tmp_path,
                                                       scenario, overrides,
                                                       message):
    cfg = write_config(tmp_path / "c.yaml",
                       {"scenario": scenario, "master_seed": 1,
                        scenario: overrides})
    outdir = tmp_path / "out"
    assert main([cfg, "--output-dir", str(outdir)]) == 2
    assert message in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("module", ["scipy.signal", "scipy.integrate"])
def test_cli_import_leaves_scipy_module_unloaded(module):
    # both are slow to import (scipy.integrate pulls in scipy.optimize and
    # scipy.sparse) and nothing in the package needs them
    src = os.path.dirname(os.path.dirname(roughwave.__file__))
    code = f"import sys, roughwave.cli; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_cli_unknown_curve_is_config_error(capsys, tmp_path):
    cfg = write_config(tmp_path / "c.yaml",
                       {"scenario": "geometric-wave", "master_seed": 1,
                        "geometric-wave": {"curves": ["flta"]}})
    outdir = tmp_path / "out"
    assert main([cfg, "--output-dir", str(outdir)]) == 2
    assert "flta" in capsys.readouterr().err
    assert not outdir.exists()


def test_cli_bad_jobs(capsys, tmp_path):
    cfg = write_config(tmp_path / "c.yaml",
                       {"scenario": "ogawa", "master_seed": 1})
    assert main([cfg, "--jobs", "0"]) == 2


@pytest.mark.parametrize("target", ["taken", "taken/sub"])
def test_cli_unwritable_output_dir_is_usage_error(capsys, tmp_path, target):
    # a file where the report directory, or one of its parents, would go
    cfg = write_config(tmp_path / "c.yaml",
                       {"scenario": "calibration", "master_seed": 1})
    (tmp_path / "taken").write_text("keep")
    assert main([cfg, "--output-dir", str(tmp_path / target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert (tmp_path / "taken").read_text() == "keep"
    assert sorted(os.listdir(tmp_path)) == ["c.yaml", "taken"]


def test_cli_ogawa_run_writes_report(capsys, tmp_path):
    cfg = write_config(tmp_path / "run.yaml",
                       {"scenario": "ogawa", "master_seed": MASTER_SEED,
                        "ogawa": {"n_samples": 200}})
    outdir = tmp_path / "out"
    assert main([cfg, "--output-dir", str(outdir)]) == 0
    out = capsys.readouterr().out
    # the spread table with its quadrature column reaches stdout
    assert "table spread" in out
    assert "0.49753361331163215" in out
    assert "overall: PASS" in out
    names = set(os.listdir(outdir))
    assert {"config.yaml", "config_echo.csv", "seeds.csv", "ladder.csv",
            "spread.csv", "mean_field.csv", "interchange.csv",
            "verdicts.txt"} <= names


def test_cli_rerun_identical_csv_bytes(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.yaml",
                       {"scenario": "ogawa", "master_seed": MASTER_SEED,
                        "ogawa": {"n_samples": 128}})
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    main([cfg, "--output-dir", str(d1), "--verbosity", "0"])
    main([cfg, "--output-dir", str(d2), "--verbosity", "0"])
    capsys.readouterr()
    for name in sorted(os.listdir(d1)):
        if not name.endswith(".csv"):
            continue
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


def test_cli_empty_domain_recorded(capsys, tmp_path, monkeypatch):
    # a domain that collapses at run time, past the spec's checks
    def collapse(spec, jobs=1):
        raise EmptyDomainError("collapse time 0.23 for speed bound 8.7")

    monkeypatch.setitem(SCENARIOS, "random-speed-wave",
                        (RandomSpeedSpec, collapse))
    cfg = write_config(tmp_path / "run.yaml",
                       {"scenario": "random-speed-wave",
                        "master_seed": MASTER_SEED})
    outdir = tmp_path / "out"
    assert main([cfg, "--output-dir", str(outdir)]) == 3
    assert "EmptyDomainError" in capsys.readouterr().err
    verdicts = (outdir / "verdicts.txt").read_text()
    assert "EmptyDomainError" in verdicts
    assert "overall: ERROR" in verdicts
    assert (outdir / "config_echo.csv").exists()
    assert (outdir / "config.yaml").exists()


def test_cli_unexpected_runtime_error_recorded(capsys, tmp_path, monkeypatch):
    def boom(spec, jobs=1):
        raise ValueError("not a package error")

    monkeypatch.setitem(SCENARIOS, "calibration", (CalibrationSpec, boom))
    cfg = write_config(tmp_path / "run.yaml",
                       {"scenario": "calibration", "master_seed": 1})
    outdir = tmp_path / "out"
    assert main([cfg, "--output-dir", str(outdir)]) == 3
    assert "ValueError: not a package error" in capsys.readouterr().err
    verdicts = (outdir / "verdicts.txt").read_text()
    assert "error: ValueError: not a package error" in verdicts
    assert verdicts.strip().endswith("overall: ERROR")
    assert "master_seed,1" in (outdir / "config_echo.csv").read_text()


def test_cli_seed_flag_overrides(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.yaml",
                       {"scenario": "calibration", "master_seed": 1})
    outdir = tmp_path / "out"
    assert main([cfg, "--output-dir", str(outdir), "--seed", "42",
                 "--verbosity", "0"]) == 0
    capsys.readouterr()
    echo = (outdir / "config_echo.csv").read_text()
    assert "master_seed,42" in echo


def test_cli_verbosity_zero_is_quiet(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.yaml",
                       {"scenario": "calibration", "master_seed": 1})
    assert main([cfg, "--output-dir", str(tmp_path / "o"),
                 "--verbosity", "0"]) == 0
    assert capsys.readouterr().out == ""
