"""Tests for the command-line interface and the JSON run-spec parser."""

from __future__ import annotations

import contextlib
import copy
import io
import itertools
import json
import math
import os
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dss_alloc
from dss_alloc.cli import RunSpec, main, parse_run_spec


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


RATE_ARGS = [
    "rate", "--nodes", "40", "--m", "1", "--alpha", "1",
    "--access", "fixed", "--r", "10", "--service", "small", "--mu", "1",
]
RATE_CONFIG = {
    "command": "rate",
    "system": {"nodes": 40, "m": 1, "alpha": 1},
    "access": {"kind": "fixed-size", "r": 10},
    "service": {"kind": "small-exp", "mu": 1.0},
}


# ---------------------------------------------------------------------------
# run-spec parsing


ACCESS_DICTS = ({"kind": "fixed-size", "r": 8}, {"kind": "probabilistic", "p": 0.25})
SERVICE_DICTS = (
    {"kind": "small-exp", "mu": 2.0},
    {"kind": "scaled-exp", "mu": 1.5},
    {"kind": "shifted-exp", "delta": 3.0, "mu": 0.5},
    {"kind": "constant", "delta": 2.0},
)


def test_run_spec_round_trips_through_its_dict_form():
    for access, service in itertools.product(ACCESS_DICTS, SERVICE_DICTS):
        spec = parse_run_spec(
            {
                "command": "simulate",
                "system": {"nodes": 20, "m": 2, "alpha": 3},
                "access": access,
                "service": service,
                "sim": {"trials": 1000, "seed": 7, "workers": 2, "min_count": 50},
                "output": {"format": "json"},
            }
        )
        assert isinstance(spec, RunSpec)
        assert spec.access.to_dict() == access and spec.service.to_dict() == service


@pytest.mark.parametrize(
    "data",
    [
        {"command": "rate", "systme": {}},
        {"command": "rate", "system": {"node_count": 10}},
        {"command": "rate", "system": {"blocks": 4}},
        {"command": "rate", "access": {"kind": "fixed-size", "r": 5, "p": 0.1}},
        {"command": "bogus"},
        {"command": "rate", "access": {"kind": "probabilistic", "p": "abc"}},
        {"command": "rate", "access": {"kind": "probabilistic", "p": None}},
        {"command": "rate", "service": {"kind": "small-exp", "mu": "x"}},
        {"command": "rate", "service": {"kind": "small-exp", "mu": True}},
        {"command": "rate", "system": 5},
        {"command": "rate", "access": [1]},
        {"command": "rate", "access": {"kind": ["x"]}},
        {"command": "sweep", "sweep_axis": {"parameter": "p", "start": "a", "stop": 1}},
        {"command": "sweep", "sweep_axis": {"parameter": "r", "start": 1, "stop": math.inf}},
        {"command": "sweep", "sweep_axis": {"parameter": "r", "start": 1, "stop": math.nan}},
        {"command": "sweep", "preset": ["fig2"]},
        {"command": "rate", "output": {"path": 1}},
        {"command": "sweep", "sweep_axis": {"parameter": "q", "start": 1, "stop": 2}},
    ],
)
def test_unknown_or_contradictory_fields_are_rejected(data):
    from dss_alloc import ConfigurationError

    with pytest.raises(ConfigurationError):
        parse_run_spec(data)


@pytest.mark.parametrize(
    "config",
    [
        {"access": {"kind": "probabilistic", "p": "abc"}},
        {"service": {"kind": "small-exp", "mu": "x"}},
        {"access": {"kind": "probabilistic", "p": None}},
        {"system": 5},
        {"access": [1]},
        {"access": {"kind": ["x"]}},
        {"service": {"kind": "small-exp", "mu": True}},
        {"output": {"path": 1}},
        {"system": {"blocks": 4}},
    ],
)
def test_mistyped_config_values_exit_with_one_config_error_line(tmp_path, capsys, config):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**RATE_CONFIG, **config}))
    code, out, err = run_cli(capsys, ["rate", "--config", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: config:") and err.count("\n") == 1


# Valid specs of every command but validate; the property test below replaces
# one leaf of one of them. Sizes stay small so no replacement can ask for a
# long run: every integer leaf is at most 60 and no float is huge.
BASE_SPECS = [
    RATE_CONFIG,
    {"command": "prob", "system": {"nodes": 20, "m": 2, "alpha": 2},
     "access": {"kind": "probabilistic", "p": 0.3}, "output": {"format": "json"}},
    {"command": "optimal", "system": {"nodes": 20, "m": 2},
     "access": {"kind": "fixed-size", "r": 6},
     "service": {"kind": "shifted-exp", "delta": 3.0, "mu": 1.0},
     "objective": "recovery_probability"},
    {"command": "conditions", "system": {"nodes": 20, "m": 2},
     "access": {"kind": "probabilistic", "p": 0.4}, "service": {"kind": "scaled-exp", "mu": 1.0}},
    {"command": "conditions", "system": {"nodes": 20, "m": 2}, "alpha_max": 5,
     "access": {"kind": "fixed", "r": 6}, "service": {"kind": "shifted", "delta": 1.0}},
    {"command": "sweep", "system": {"nodes": 12, "m": 2}, "access": {"kind": "fixed-size", "r": 6},
     "service": {"kind": "constant", "delta": 2.0}, "output": {"format": "csv"},
     "sweep_axis": {"parameter": "alpha", "start": 1, "stop": 4, "step": 1}},
    {"command": "sweep", "preset": "fig2"},
    {"command": "simulate", "system": {"nodes": 10, "m": 2, "alpha": 2},
     "access": {"kind": "fixed-size", "r": 5}, "service": {"kind": "small-exp", "mu": 1.0},
     "sim": {"trials": 500, "seed": 1, "workers": 1, "min_count": 5}},
]
LEAVES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 60) | st.text(max_size=4)
    | st.sampled_from([0.0, 0.5, 2.5, -1.0, math.nan, math.inf, -math.inf]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=4,
)


def leaf_paths(obj: dict, prefix: tuple = ()):
    for key, value in obj.items():
        if isinstance(value, dict):
            yield from leaf_paths(value, prefix + (key,))
        else:
            yield prefix + (key,)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_main_never_raises_on_a_spec_with_one_leaf_replaced(tmp_path_factory, data):
    spec = copy.deepcopy(data.draw(st.sampled_from(BASE_SPECS)))
    command = spec["command"]
    path = data.draw(st.sampled_from(list(leaf_paths(spec))))
    section = spec
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = data.draw(LEAVES)
    config = tmp_path_factory.mktemp("spec") / "run.json"
    config.write_text(json.dumps(spec))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main([command, "--config", str(config)])
    assert code in (0, 2, 3)
    if code:
        assert err.getvalue().startswith(("error: config:", "error: infeasible:"))
        assert err.getvalue().count("\n") == 1


# ---------------------------------------------------------------------------
# happy paths and exit codes


def test_rate_reports_both_metrics_as_json(capsys):
    code, out, _ = run_cli(capsys, RATE_ARGS + ["--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "alpha": 1,
        "service_rate": 0.25,
        "recovery_prob": 0.25,
        "provenance": "analytic",
    }


def test_rate_is_zero_when_alpha_exceeds_the_accessed_count(capsys):
    args = list(RATE_ARGS)
    args[args.index("--alpha") + 1] = "12"
    code, out, _ = run_cli(capsys, args + ["--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["service_rate"] == 0.0
    assert payload["recovery_prob"] == 0.0


def test_prob_leaves_the_service_rate_null(capsys):
    code, out, _ = run_cli(
        capsys,
        ["prob", "--nodes", "40", "--m", "2", "--alpha", "2",
         "--access", "probabilistic", "--p", "0.3", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["service_rate"] is None
    assert payload["recovery_prob"] == pytest.approx(0.9163)


def test_mismatched_access_parameter_exits_with_a_config_error(capsys):
    args = [a for a in RATE_ARGS if a not in ("--r", "10")]
    code, _, err = run_cli(capsys, args + ["--p", "0.5"])
    assert code == 2
    assert err.startswith("error: config:")


def test_infeasible_systems_exit_with_their_own_status(capsys):
    code, _, err = run_cli(
        capsys,
        ["rate", "--nodes", "10", "--m", "4", "--alpha", "3",
         "--access", "fixed", "--r", "5", "--service", "small", "--mu", "1"],
    )
    assert code == 3
    assert err.startswith("error: infeasible:")


def test_model_flags_take_the_full_kind_names(capsys):
    short = run_cli(capsys, RATE_ARGS)
    full = [{"fixed": "fixed-size", "small": "small-exp"}.get(arg, arg) for arg in RATE_ARGS]
    assert full != RATE_ARGS
    assert run_cli(capsys, full) == short


def test_infinite_service_parameters_exit_with_a_config_error(capsys):
    args = list(RATE_ARGS)
    args[args.index("small")] = "scaled"
    args[args.index("--mu") + 1] = "inf"
    code, out, err = run_cli(capsys, args)
    assert (code, out) == (2, "")
    assert err.startswith("error: config:") and err.count("\n") == 1


def test_unwritable_output_exits_with_one_error_line(tmp_path, capsys):
    target = tmp_path / "missing" / "x.txt"
    code, out, err = run_cli(capsys, RATE_ARGS + ["--output", str(target)])
    assert (code, out) == (2, "")
    assert err.startswith("error: config: cannot write output:") and err.count("\n") == 1


def test_bad_flags_exit_with_a_config_error(capsys):
    assert run_cli(capsys, ["rate", "--service", "bogus"])[0] == 2
    assert run_cli(capsys, [])[0] == 2


# ---------------------------------------------------------------------------
# table layouts: a summary block, a blank line, a header and rows


SMALL = "--nodes 10 --m 2 --access fixed --r 5"
GOLDEN_TABLES = [
    (
        f"prob {SMALL} --alpha 2",
        "alpha          2\n"
        "recovery_prob  0.738095238095\n"
        "provenance     analytic\n",
    ),
    (
        f"optimal {SMALL} --service scaled --mu 1",
        "alpha_star  5\n"
        "value       2.1897810219\n"
        "objective   service_rate\n"
        "\n"
        "alpha  service_rate  recovery_prob\n"
        "1  1  0.777777777778\n"
        "2  1.28798185941  0.738095238095\n"
        "3  1.5297468489  0.738095238095\n"
        "4  1.75930735931  0.777777777778\n"
        "5  2.1897810219  1\n",
    ),
    (
        f"conditions {SMALL} --service scaled --mu 1",
        "access                       fixed-size\n"
        "service                      scaled-exp\n"
        "verdict                      indeterminate\n"
        "optimality_threshold         2.5\n"
        "optimality_witness_alpha     2\n"
        "nonoptimality_threshold      7\n"
        "nonoptimality_witness_alpha  2\n"
        "\n"
        "alpha  optimality_term  nonoptimality_term\n"
        "2  2.5  7\n"
        "3  2.64316767252  7.65685424949\n"
        "4  2.733271107  8.1576440981\n"
        "5  2.7964178927  8.55901411391\n",
    ),
    (
        f"simulate {SMALL} --alpha 2 --service scaled --mu 1 --trials 2000 --seed 1 --workers 1",
        "trials                   2000\n"
        "seed                     1\n"
        "service_rate_estimate    1.25323371757\n"
        "service_rate_std_error   0.0241720114339\n"
        "service_rate_analytic    1.28798185941\n"
        "service_rate_within_3se  yes\n"
        "recovery_estimate        0.7375\n"
        "recovery_std_error       0.00983854028807\n"
        "recovery_analytic        0.738095238095\n"
        "recovery_within_3se      yes\n"
        "\n"
        "phi  count  mean_time  topup\n"
        "0  47    0\n"
        "1  478    0\n"
        "2  934  0.759745702941  0\n"
        "3  490  0.439701960597  0\n"
        "4  51  0.275865163166  49\n",
    ),
]


@pytest.mark.parametrize("argv, expected", GOLDEN_TABLES,
                         ids=[argv.split()[0] for argv, _ in GOLDEN_TABLES])
def test_table_output_is_byte_identical_to_the_reference_layout(capsys, argv, expected):
    assert run_cli(capsys, argv.split()) == (0, expected, "")


# one small sweep per axis; the same points in each output format
SWEEP_AXES = {
    "alpha": "--nodes 10 --m 2 --access fixed --r 5 --service scaled --mu 1 "
             "--parameter alpha --start 1 --stop 3",
    "m": "--nodes 10 --access fixed --r 5 --service scaled --mu 1 --parameter m --start 4 --stop 5",
    "r": "--nodes 10 --m 3 --service scaled --mu 1 --parameter r --start 2 --stop 3",
    "p": "--nodes 6 --m 3 --service shifted --delta 1 --mu 1 "
         "--parameter p --start 0.2 --stop 0.4 --step 0.2",
}
GOLDEN_SWEEPS = [
    (
        "alpha", "table",
        'alpha  service_rate  recovery_prob\n'
        '1  1  0.777777777778\n'
        '2  1.28798185941  0.738095238095\n'
        '3  1.5297468489  0.738095238095\n',
    ),
    (
        "alpha", "json",
        '[\n'
        '  {\n'
        '    "alpha": 1,\n'
        '    "service_rate": 1.0,\n'
        '    "recovery_prob": 0.777777777778\n'
        '  },\n'
        '  {\n'
        '    "alpha": 2,\n'
        '    "service_rate": 1.28798185941,\n'
        '    "recovery_prob": 0.738095238095\n'
        '  },\n'
        '  {\n'
        '    "alpha": 3,\n'
        '    "service_rate": 1.5297468489,\n'
        '    "recovery_prob": 0.738095238095\n'
        '  }\n'
        ']\n',
    ),
    (
        "alpha", "csv",
        'alpha,service_rate,recovery_prob\n'
        '1,1,0.777777777778\n'
        '2,1.28798185941,0.738095238095\n'
        '3,1.5297468489,0.738095238095\n',
    ),
    (
        "m", "table",
        'm  alpha  service_rate  recovery_prob\n'
        '4  1  2  0.97619047619\n'
        '4  2  3.42574955908  1\n'
        '5  1  2.5  0.996031746032\n'
        '5  2  4.44444444444  1\n',
    ),
    (
        "m", "json",
        '[\n'
        '  {\n'
        '    "m": 4,\n'
        '    "alpha": 1,\n'
        '    "service_rate": 2.0,\n'
        '    "recovery_prob": 0.97619047619\n'
        '  },\n'
        '  {\n'
        '    "m": 4,\n'
        '    "alpha": 2,\n'
        '    "service_rate": 3.42574955908,\n'
        '    "recovery_prob": 1.0\n'
        '  },\n'
        '  {\n'
        '    "m": 5,\n'
        '    "alpha": 1,\n'
        '    "service_rate": 2.5,\n'
        '    "recovery_prob": 0.996031746032\n'
        '  },\n'
        '  {\n'
        '    "m": 5,\n'
        '    "alpha": 2,\n'
        '    "service_rate": 4.44444444444,\n'
        '    "recovery_prob": 1.0\n'
        '  }\n'
        ']\n',
    ),
    (
        "m", "csv",
        'm,alpha,service_rate,recovery_prob\n'
        '4,1,2,0.97619047619\n'
        '4,2,3.42574955908,1\n'
        '5,1,2.5,0.996031746032\n'
        '5,2,4.44444444444,1\n',
    ),
    (
        "r", "table",
        'r  alpha  service_rate  recovery_prob\n'
        '2  1  0.6  0.533333333333\n'
        '2  2  0.444444444444  0.333333333333\n'
        '3  1  0.9  0.708333333333\n'
        '3  2  1.06666666667  0.666666666667\n'
        '3  3  1.14545454545  0.7\n',
    ),
    (
        "r", "json",
        '[\n'
        '  {\n'
        '    "r": 2,\n'
        '    "alpha": 1,\n'
        '    "service_rate": 0.6,\n'
        '    "recovery_prob": 0.533333333333\n'
        '  },\n'
        '  {\n'
        '    "r": 2,\n'
        '    "alpha": 2,\n'
        '    "service_rate": 0.444444444444,\n'
        '    "recovery_prob": 0.333333333333\n'
        '  },\n'
        '  {\n'
        '    "r": 3,\n'
        '    "alpha": 1,\n'
        '    "service_rate": 0.9,\n'
        '    "recovery_prob": 0.708333333333\n'
        '  },\n'
        '  {\n'
        '    "r": 3,\n'
        '    "alpha": 2,\n'
        '    "service_rate": 1.06666666667,\n'
        '    "recovery_prob": 0.666666666667\n'
        '  },\n'
        '  {\n'
        '    "r": 3,\n'
        '    "alpha": 3,\n'
        '    "service_rate": 1.14545454545,\n'
        '    "recovery_prob": 0.7\n'
        '  }\n'
        ']\n',
    ),
    (
        "r", "csv",
        'r,alpha,service_rate,recovery_prob\n'
        '2,1,0.6,0.533333333333\n'
        '2,2,0.444444444444,0.333333333333\n'
        '3,1,0.9,0.708333333333\n'
        '3,2,1.06666666667,0.666666666667\n'
        '3,3,1.14545454545,0.7\n',
    ),
    (
        "p", "table",
        'p  alpha  service_rate  recovery_prob\n'
        '0.2  1  0.688  0.992\n'
        '0.2  2  1.01236080972  0.9984\n'
        '0.4  1  0.594  0.936\n'
        '0.4  2  0.813874008097  0.95904\n',
    ),
    (
        "p", "json",
        '[\n'
        '  {\n'
        '    "p": 0.2,\n'
        '    "alpha": 1,\n'
        '    "service_rate": 0.688,\n'
        '    "recovery_prob": 0.992\n'
        '  },\n'
        '  {\n'
        '    "p": 0.2,\n'
        '    "alpha": 2,\n'
        '    "service_rate": 1.01236080972,\n'
        '    "recovery_prob": 0.9984\n'
        '  },\n'
        '  {\n'
        '    "p": 0.4,\n'
        '    "alpha": 1,\n'
        '    "service_rate": 0.594,\n'
        '    "recovery_prob": 0.936\n'
        '  },\n'
        '  {\n'
        '    "p": 0.4,\n'
        '    "alpha": 2,\n'
        '    "service_rate": 0.813874008097,\n'
        '    "recovery_prob": 0.95904\n'
        '  }\n'
        ']\n',
    ),
    (
        "p", "csv",
        'p,alpha,service_rate,recovery_prob\n'
        '0.2,1,0.688,0.992\n'
        '0.2,2,1.01236080972,0.9984\n'
        '0.4,1,0.594,0.936\n'
        '0.4,2,0.813874008097,0.95904\n',
    ),
]


@pytest.mark.parametrize("axis, fmt, expected", GOLDEN_SWEEPS,
                         ids=[f"{axis}-{fmt}" for axis, fmt, _ in GOLDEN_SWEEPS])
def test_axis_sweeps_are_byte_identical_to_the_reference_output(capsys, axis, fmt, expected):
    argv = ["sweep", *SWEEP_AXES[axis].split(), "--format", fmt]
    assert run_cli(capsys, argv) == (0, expected, "")


# ---------------------------------------------------------------------------
# config files


def test_config_file_flags_override_single_fields(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({**RATE_CONFIG, "output": {"format": "json"}}))
    code, out, _ = run_cli(capsys, ["rate", "--config", str(config)])
    base = json.loads(out)["service_rate"]
    code, out, _ = run_cli(capsys, ["rate", "--config", str(config), "--mu", "2"])
    assert code == 0
    assert json.loads(out)["service_rate"] == pytest.approx(2 * base)


def test_config_command_must_match_the_subcommand(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"command": "rate"}))
    code, _, err = run_cli(capsys, ["prob", "--config", str(config)])
    assert code == 2
    assert "does not match" in err


def test_unreadable_or_invalid_config_files_exit_cleanly(tmp_path, capsys):
    assert run_cli(capsys, ["rate", "--config", str(tmp_path / "missing.json")])[0] == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(capsys, ["rate", "--config", str(bad)])[0] == 2
    bad.write_bytes(b"\xff\xfe{")
    assert run_cli(capsys, ["rate", "--config", str(bad)])[0] == 2


# ---------------------------------------------------------------------------
# sweeps


def test_preset_sweep_emits_the_figure_table_as_csv(capsys):
    code, out, _ = run_cli(capsys, ["sweep", "--preset", "fig2", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "m,r,alpha,service_rate,recovery_prob"
    assert lines[1] == "1,10,1,0.25,0.25"
    assert "\r" not in out


def test_axis_sweep_over_p_builds_its_own_access_model(capsys):
    code, out, _ = run_cli(
        capsys,
        ["sweep", "--nodes", "10", "--m", "1", "--service", "small", "--mu", "1",
         "--parameter", "p", "--start", "0.1", "--stop", "0.3", "--step", "0.1",
         "--format", "csv"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p,alpha,service_rate,recovery_prob"
    assert lines[1] == "0.1,1,0.9,0.9"
    assert {line.split(",")[0] for line in lines[1:]} == {"0.1", "0.2", "0.3"}


def test_axis_sweep_over_alpha_keeps_the_access_fixed(capsys):
    code, out, _ = run_cli(
        capsys,
        ["sweep", "--nodes", "40", "--m", "2", "--access", "fixed", "--r", "10",
         "--service", "scaled", "--mu", "1", "--parameter", "alpha",
         "--start", "1", "--stop", "4", "--format", "csv"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "alpha,service_rate,recovery_prob"
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "3", "4"]


def test_axis_sweep_stops_at_the_first_point_without_an_allocation():
    # alpha >= 6 needs more than 10 nodes; the sweep ends there with one
    # warning (two stderr lines) instead of one warning per skipped point
    src = os.path.dirname(os.path.dirname(dss_alloc.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "dss_alloc.cli", "sweep", "--nodes", "10", "--m", "2",
         "--access", "fixed", "--r", "5", "--service", "small", "--parameter", "alpha",
         "--start", "1", "--stop", "200000"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0
    assert done.stdout == (
        "alpha  service_rate  recovery_prob\n"
        "1  1  0.777777777778\n"
        "2  0.643990929705  0.738095238095\n"
        "3  0.509915616299  0.738095238095\n"
        "4  0.439826839827  0.777777777778\n"
        "5  0.43795620438  1\n"
    )
    assert len(done.stderr.splitlines()) <= 2
    assert "skipping alpha=6 through 200000" in done.stderr


@pytest.mark.parametrize("parameter, start, step", [("r", "1", "1"), ("p", "0", "0.0001")])
def test_r_and_p_sweeps_without_any_allocation_fail_before_the_first_point(parameter, start,
                                                                            step):
    # m > nodes admits no alpha whatever r or p is, so the sweep fails at once
    src = os.path.dirname(os.path.dirname(dss_alloc.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "dss_alloc.cli", "sweep", "--nodes", "3", "--m", "5",
         "--service", "small", "--parameter", parameter, "--start", start, "--stop", "1e9",
         "--step", step],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == "error: infeasible: no feasible alpha for nodes=3, m=5\n"


@pytest.mark.parametrize("argv, code, err", [
    ("--nodes 0 --m 2 --parameter alpha", 2,
     "error: config: nodes and m must be positive, got nodes=0, m=2\n"),
    ("--nodes 10 --m 20 --parameter alpha", 3,
     "error: infeasible: no feasible alpha for nodes=10, m=20\n"),
    ("--nodes 0 --parameter m", 2, "error: config: nodes must be positive, got nodes=0\n"),
    ("--nodes -1 --parameter m", 2, "error: config: nodes must be positive, got nodes=-1\n"),
], ids=["alpha-no-nodes", "alpha-m-over-nodes", "m-no-nodes", "m-negative-nodes"])
def test_alpha_and_m_sweeps_without_any_allocation_fail_like_r_and_p(capsys, argv, code, err):
    # an empty table with a skip warning would hide that the system admits no alpha
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        done = run_cli(capsys, ["sweep", *argv.split(), "--access", "fixed", "--r", "5",
                                "--service", "scaled", "--mu", "1",
                                "--start", "1", "--stop", "3", "--step", "1"])
    assert done == (code, "", err)


@pytest.mark.parametrize("start", ["1", "6"])
def test_alpha_sweeps_check_r_wherever_they_start(capsys, start):
    # from alpha = 6 no point has an allocation, so no kernel call would check r
    with pytest.warns(UserWarning, match="skipping alpha=6 through 8"):
        done = run_cli(capsys, ["sweep", "--nodes", "10", "--m", "2", "--access", "fixed",
                                "--r", "11", "--service", "scaled", "--parameter", "alpha",
                                "--start", start, "--stop", "8"])
    assert done == (2, "", "error: config: r=11 exceeds nodes=10\n")


@pytest.mark.parametrize("argv", [
    "--m 2 --access fixed --r 4 --parameter alpha --start 1 --stop 2 --step 0.5",
    "--m 2 --parameter r --start 2 --stop 3 --step 0.5",
    "--access fixed --r 4 --parameter m --start 1.5 --stop 3",
], ids=["alpha-step", "r-step", "m-start"])
def test_integer_axes_reject_a_fractional_start_or_step(capsys, argv):
    # rounding each point on its own would print some rows twice
    code, out, err = run_cli(capsys, ["sweep", "--nodes", "10", "--service", "small",
                                      *argv.split()])
    assert (code, out) == (2, "")
    assert err.startswith("error: config: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["rate", "simulate --trials 1000 --workers 1"],
                         ids=["rate", "simulate"])
def test_overflowing_service_rates_are_config_errors(capsys, command):
    # mu = 1e308 used to print a nan rate (rate) or end in a ZeroDivisionError (simulate)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, [*command.split(), "--nodes", "20", "--m", "2",
                                          "--alpha", "3", "--access", "fixed", "--r", "8",
                                          "--service", "scaled", "--mu", "1e308"])
    assert (code, out) == (2, "")
    assert err.startswith("error: config: ") and err.count("\n") == 1


SIM_ARGS = ["simulate", "--nodes", "20", "--m", "2", "--alpha", "3", "--access", "fixed",
            "--r", "8", "--service", "scaled", "--trials", "1000", "--workers", "1"]


@pytest.mark.parametrize("mu", ["1e-300", "1e-160", "1e200", "1e300"])
def test_simulate_keeps_its_standard_error_at_extreme_service_scales(capsys, mu):
    # squared completion times leave float64 here, but no time does
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, [*SIM_ARGS, "--mu", mu, "--format", "json"])
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert 0.0 < payload["service_rate_std_error"] < math.inf
    assert payload["service_rate_within_3se"] is True


@pytest.mark.parametrize("mu", ["1e-308", "1e-320"])
def test_simulate_rejects_completion_times_beyond_float64_in_one_line(capsys, mu):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, [*SIM_ARGS, "--mu", mu])
    assert (code, out) == (2, "")
    assert err.startswith("error: config: completion times given phi=")
    assert err.count("\n") == 1


def test_axis_sweep_over_m_stops_past_the_node_count(capsys):
    with pytest.warns(UserWarning, match="skipping m=11 through 1e\\+09") as record:
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--nodes", "10", "--access", "fixed", "--r", "5", "--service", "small",
             "--parameter", "m", "--start", "9", "--stop", "1e9", "--format", "csv"],
        )
    assert code == 0
    assert len(record) == 1
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["9", "10"]


def test_flags_override_single_sweep_fields_of_a_config(tmp_path, capsys):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "command": "sweep",
        "system": {"nodes": 10, "m": 1},
        "service": {"kind": "small-exp", "mu": 1.0},
        "sweep_axis": {"parameter": "p", "start": 0.1, "stop": 0.3, "step": 0.1},
    }))
    code, out, _ = run_cli(capsys, ["sweep", "--config", str(config), "--start", "0.2",
                                    "--format", "csv"])
    assert code == 0
    assert list(dict.fromkeys(line.split(",")[0] for line in out.splitlines()[1:])) == [
        "0.2", "0.3"]


def test_output_flag_writes_the_file_and_keeps_stdout_quiet(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run_cli(
        capsys, ["sweep", "--preset", "fig2", "--format", "csv", "--output", str(target)]
    )
    assert code == 0
    assert out == ""
    assert target.read_text().splitlines()[0] == "m,r,alpha,service_rate,recovery_prob"


# ---------------------------------------------------------------------------
# conditions


def test_conditions_csv_lists_the_per_alpha_terms(capsys):
    code, out, _ = run_cli(
        capsys,
        ["conditions", "--nodes", "40", "--m", "2", "--access", "fixed", "--r", "10",
         "--service", "scaled", "--mu", "1", "--format", "csv"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "alpha,optimality_term,nonoptimality_term"
    assert lines[1] == "2,7.5,27"


def test_conditions_with_no_redundancy_exit_with_a_config_error(capsys):
    code, _, err = run_cli(
        capsys,
        ["conditions", "--nodes", "40", "--m", "0", "--access", "probabilistic", "--p", "0.3",
         "--service", "scaled", "--mu", "1"],
    )
    assert code == 2
    assert err.startswith("error: config:")


def test_probabilistic_conditions_without_room_for_alpha_2_report_optimal(capsys):
    args = ["conditions", "--nodes", "3", "--m", "2", "--access", "probabilistic", "--p", "0.3",
            "--service", "scaled", "--format", "json"]
    code, out, _ = run_cli(capsys, args)
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "optimal"
    assert payload["terms"] == []
    code, _, err = run_cli(capsys, args + ["--alpha-max", "1"])
    assert code == 2
    assert err == "error: config: need alpha_max >= 2, got 1\n"


def test_fixed_size_conditions_stop_at_the_alpha_cap(capsys):
    args = ["conditions", "--nodes", "20", "--m", "2", "--access", "fixed", "--r", "6",
            "--service", "scaled", "--format", "csv"]
    code, capped, _ = run_cli(capsys, args + ["--alpha-max", "3"])
    assert code == 0
    assert capped == ("alpha,optimality_term,nonoptimality_term\n"
                      "2,4.16666666667,13.6666666667\n"
                      "3,4.46890953087,14.7279220614\n")
    _, full, _ = run_cli(capsys, args)
    assert [line.split(",")[0] for line in full.splitlines()[1:]] == ["2", "3", "4", "5", "6"]
    assert full.startswith(capped)
    assert run_cli(capsys, args + ["--alpha-max", "1"]) == (
        2, "", "error: config: need alpha_max >= 2, got 1\n")


@pytest.mark.parametrize("access", ["--access fixed --r 2", "--access probabilistic --p 0.3"])
def test_conditions_without_any_allocation_fail_like_optimal(capsys, access):
    # m > nodes admits no alpha at all, so no certificate can call alpha = 1 optimal
    argv = ["conditions", "--nodes", "3", "--m", "5", *access.split(), "--service", "scaled"]
    assert run_cli(capsys, argv) == (
        3, "", "error: infeasible: no feasible alpha for nodes=3, m=5\n")


def test_probabilistic_conditions_ignore_a_cutoff_beyond_the_node_count(capsys):
    # alpha = 7 would need 21 data nodes of the 10
    args = ["conditions", "--nodes", "10", "--m", "3", "--access", "probabilistic", "--p", "0.05",
            "--service", "shifted", "--delta", "3", "--mu", "1", "--format", "json"]
    code, default, _ = run_cli(capsys, args)
    assert code == 0 and json.loads(default)["verdict"] == "indeterminate"
    assert run_cli(capsys, args + ["--alpha-max", "30"]) == (0, default, "")
    assert [term["alpha"] for term in json.loads(default)["terms"]] == [2, 3]


def test_probabilistic_conditions_need_the_node_count_or_a_cutoff(capsys):
    args = ["conditions", "--m", "2", "--access", "probabilistic", "--p", "0.3",
            "--service", "scaled"]
    assert run_cli(capsys, args) == (
        2, "", "error: config: probabilistic conditions need the node count or alpha_max\n")
    assert run_cli(capsys, args + ["--alpha-max", "5"])[0] == 0
    assert run_cli(capsys, args + ["--nodes", "40"])[0] == 0


@pytest.mark.parametrize("command", [
    "rate --alpha 1 --service scaled", "prob --alpha 1", "optimal --service scaled",
    "conditions --service scaled", "sweep --service scaled --parameter alpha --start 1 --stop 2",
    "simulate --alpha 1 --service scaled --trials 1000 --workers 1",
], ids=["rate", "prob", "optimal", "conditions", "sweep", "simulate"])
@pytest.mark.parametrize("access", ["--access fixed --r 2", "--access probabilistic --p 0.3"],
                         ids=["fixed", "probabilistic"])
def test_node_counts_beyond_int64_are_config_errors(capsys, command, access):
    # they used to end in an OverflowError traceback
    argv = [*command.split(), "--nodes", str(10**20), "--m", "1", *access.split()]
    assert run_cli(capsys, argv) == (
        2, "", f"error: config: nodes must be below 2^63, got nodes={10**20}\n")
    argv[argv.index("--m") + 1] = str(5 * 10**19)
    assert run_cli(capsys, argv)[0] == 2


# ---------------------------------------------------------------------------
# simulation


def test_sim_section_defaults_are_the_sim_config_defaults():
    from dss_alloc import SimConfig

    spec = parse_run_spec({"command": "simulate", "sim": {"trials": 10}})
    assert spec.sim == SimConfig(trials=10)
    assert spec.sim.workers == (os.cpu_count() or 1)
    spec = parse_run_spec({"command": "simulate",
                           "sim": {"trials": 10, "seed": None, "min_count": None}})
    assert spec.sim == SimConfig(trials=10)


def test_a_zero_sample_floor_is_rejected_not_defaulted(tmp_path, capsys):
    args = ["simulate", "--nodes", "10", "--m", "1", "--alpha", "1", "--access", "fixed",
            "--r", "4", "--service", "small", "--mu", "1", "--trials", "2000"]
    message = "error: config: min_count must be at least 2, got 0\n"
    assert run_cli(capsys, args + ["--min-count", "0"]) == (2, "", message)
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({"command": "simulate", "sim": {"trials": 2000, "min_count": 0}}))
    assert run_cli(capsys, args[:-2] + ["--config", str(config)]) == (2, "", message)


def test_simulate_output_never_mentions_the_worker_count(capsys):
    args = ["simulate", "--nodes", "10", "--m", "1", "--alpha", "1", "--access", "fixed",
            "--r", "4", "--service", "small", "--mu", "1", "--trials", "2000", "--seed", "1",
            "--workers", "2"]
    code, table, _ = run_cli(capsys, args)
    assert code == 0
    assert "workers" not in table
    assert "service_rate_within_3se  yes" in table
    code, out, _ = run_cli(capsys, args + ["--format", "json"])
    payload = json.loads(out)
    assert "workers" not in payload
    assert payload["trials"] == 2000
    assert set(payload) >= {"service_rate_estimate", "recovery_estimate", "per_phi_counts"}
    assert sum(payload["per_phi_counts"].values()) == 2000


def test_simulate_accepts_the_largest_seed_silently(capsys):
    args = ["simulate", "--nodes", "10", "--m", "2", "--alpha", "2", "--access", "fixed",
            "--r", "5", "--service", "scaled", "--mu", "1", "--trials", "2000",
            "--seed", str(2**64 - 1), "--workers", "1"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, args)
    assert (code, err, caught) == (0, "", [])
    assert f"seed                     {2**64 - 1}\n" in out


# ---------------------------------------------------------------------------
# validation


def test_validate_runs_a_single_criterion(capsys):
    code, out, _ = run_cli(capsys, ["validate", "--only", "3"])
    assert code == 0
    assert out.startswith("criterion 3: PASS")


def test_validate_json_has_one_record_per_criterion(capsys):
    code, out, _ = run_cli(capsys, ["validate", "--only", "3,6", "--format", "json"])
    assert code == 0
    records = json.loads(out)
    assert [record["number"] for record in records] == [3, 6]
    for record in records:
        assert set(record) == {"number", "title", "pass", "detail", "elapsed_s"}
        assert record["pass"] is True
        assert isinstance(record["title"], str) and record["detail"]
        assert 0 <= record["elapsed_s"] < 60
    code, out, _ = run_cli(capsys, ["validate", "--only", "3", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "number,title,pass,detail,elapsed_s"
    assert lines[1].startswith('3,"threshold anchors at N=40, m=2",yes,')


def test_validate_rejects_unknown_criterion_numbers(capsys):
    code, _, err = run_cli(capsys, ["validate", "--only", "12"])
    assert code == 2
    assert err.startswith("error: config:")
