"""Tests for the command-line interface and the JSON run-spec parser."""

from __future__ import annotations

import json

import pytest

from dss_alloc.cli import RunSpec, main, parse_run_spec


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


RATE_ARGS = [
    "rate", "--nodes", "40", "--m", "1", "--alpha", "1",
    "--access", "fixed", "--r", "10", "--service", "small", "--mu", "1",
]


# ---------------------------------------------------------------------------
# run-spec parsing


def test_run_spec_round_trips_through_its_dict_form():
    spec = parse_run_spec(
        {
            "command": "simulate",
            "system": {"nodes": 20, "m": 2, "alpha": 3},
            "access": {"kind": "fixed-size", "r": 8},
            "service": {"kind": "scaled-exp", "mu": 1.5},
            "sim": {"trials": 1000, "seed": 7, "workers": 2, "min_count": 50},
            "output": {"format": "json"},
        }
    )
    assert isinstance(spec, RunSpec)
    assert parse_run_spec(spec.to_dict()) == spec


@pytest.mark.parametrize(
    "data",
    [
        {"command": "rate", "systme": {}},
        {"command": "rate", "system": {"node_count": 10}},
        {"command": "rate", "access": {"kind": "fixed-size", "r": 5, "p": 0.1}},
        {"command": "bogus"},
    ],
)
def test_unknown_or_contradictory_fields_are_rejected(data):
    from dss_alloc import ConfigurationError

    with pytest.raises(ConfigurationError):
        parse_run_spec(data)


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
# config files


def test_config_file_flags_override_single_fields(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(
        json.dumps(
            {
                "command": "rate",
                "system": {"nodes": 40, "m": 1, "alpha": 1},
                "access": {"kind": "fixed-size", "r": 10},
                "service": {"kind": "small-exp", "mu": 1.0},
                "output": {"format": "json"},
            }
        )
    )
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


# ---------------------------------------------------------------------------
# simulation


def test_simulate_honours_the_thread_env_var(capsys, monkeypatch):
    args = ["simulate", "--nodes", "10", "--m", "1", "--alpha", "1", "--access", "fixed",
            "--r", "4", "--service", "small", "--mu", "1", "--trials", "2000", "--seed", "1"]
    monkeypatch.setenv("DSS_ALLOC_THREADS", "2")
    assert run_cli(capsys, args)[0] == 0
    monkeypatch.setenv("DSS_ALLOC_THREADS", "banana")
    code, _, err = run_cli(capsys, args)
    assert code == 2
    assert "DSS_ALLOC_THREADS" in err
    # an explicit worker count never consults the environment
    assert run_cli(capsys, args + ["--workers", "1"])[0] == 0


def test_simulate_output_never_mentions_the_worker_count(capsys, monkeypatch):
    monkeypatch.delenv("DSS_ALLOC_THREADS", raising=False)
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


# ---------------------------------------------------------------------------
# validation


def test_validate_runs_a_single_criterion(capsys):
    code, out, _ = run_cli(capsys, ["validate", "--only", "3"])
    assert code == 0
    assert out.startswith("criterion 3: PASS")


def test_validate_rejects_unknown_criterion_numbers(capsys):
    code, _, err = run_cli(capsys, ["validate", "--only", "12"])
    assert code == 2
    assert err.startswith("error: config:")
