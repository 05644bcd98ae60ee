"""Command-line front end.

Subcommands expose every operation: rate, prob, optimal, conditions, sweep,
simulate, and validate. Parameters come from flags, from a JSON run spec
(--config), or both (flags win). Output goes to stdout or --output as a
plain table, JSON, or CSV; numbers are serialized with 12 significant
digits, CSV uses a header row, commas, and LF newlines, so identical inputs
produce byte-identical files.

Exit codes: 0 success, 2 malformed configuration, 3 infeasible parameter
combination, 4 validation failure. Errors print one machine-parsable line
on stderr: "error: <category>: <reason>".
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
import warnings
from dataclasses import MISSING, dataclass, fields
from fractions import Fraction
from typing import Iterator, get_args

from . import acceptance
from .analysis import alpha_table, expected_metrics, feasible_alphas, optimal_alpha
from .conditions import classify
from .errors import ConfigurationError, DssAllocError, InfeasibleError
from .models import AccessModel, FixedSize, Probabilistic, ServiceModel, SystemConfig
from .presets import PRESETS, preset_rows
from .simulator import SimConfig, estimate_service_rate, recovery_estimate

__all__ = ["RunSpec", "main", "parse_run_spec", "run"]

_COMMANDS = ("rate", "prob", "optimal", "conditions", "sweep", "simulate", "validate")
_FORMATS = ("table", "json", "csv")
_OBJECTIVES = ("service_rate", "recovery_probability")
_SWEEP_PARAMETERS = ("alpha", "m", "r", "p")

# Each model answers to its kind and to the kind's first word ("fixed", "small").
_KINDS = {
    section: {name: cls for cls in get_args(union) for name in (cls.kind, cls.kind.split("-")[0])}
    for section, union in (("access", AccessModel), ("service", ServiceModel))
}


@dataclass(frozen=True)
class SystemSpec:
    """Raw system parameters; commands validate the subset they need."""

    nodes: int | None = None
    m: int | None = None
    alpha: int | None = None


@dataclass(frozen=True)
class SweepAxis:
    parameter: str
    start: float
    stop: float
    step: float


@dataclass(frozen=True)
class OutputSpec:
    path: str | None = None
    format: str = "table"


@dataclass(frozen=True)
class RunSpec:
    """One fully described invocation, mirroring the JSON config schema."""

    command: str
    system: SystemSpec = SystemSpec()
    access: AccessModel | None = None
    service: ServiceModel | None = None
    sweep_axis: SweepAxis | None = None
    preset: str | None = None
    sim: SimConfig | None = None
    output: OutputSpec = OutputSpec()
    objective: str = "service_rate"
    alpha_max: int | None = None
    only: tuple[int, ...] | None = None


# Fields of the plain sections; the access and service sections take a kind
# plus the fields of the model class it names.
_ALLOWED_KEYS = {
    section: {f.name for f in fields(cls)}
    for section, cls in (("", RunSpec), ("system", SystemSpec), ("sweep_axis", SweepAxis),
                         ("sim", SimConfig), ("output", OutputSpec))
}


def _alternatives(names: tuple[str, ...]) -> str:
    """'a or b', 'a, b, or c'."""
    *rest, last = names
    return f"{', '.join(rest)}{',' if len(rest) > 1 else ''} or {last}"


def _object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigurationError(f"{name} must be a JSON object, got {type(value).__name__}")
    return value


def _reject_unknown(mapping: dict, section: str) -> None:
    unknown = set(mapping) - _ALLOWED_KEYS[section]
    if unknown:
        where = section or "run spec"
        raise ConfigurationError(f"unknown {where} field(s): {', '.join(sorted(unknown))}")


def _section(data: dict, name: str) -> dict:
    """Return the object data[name] ({} when absent), rejecting unknown fields."""
    section = _object(data.get(name, {}), name)
    _reject_unknown(section, name)
    return section


def _opt(mapping: dict, key: str, section: str, kind: type) -> int | float | None:
    """Return mapping[key] as kind (int or float); None when absent or null.

    JSON true/false and strings are rejected, and so is a float where an
    integer is due; an integer where a float is due is converted.
    """
    value = mapping.get(key)
    if value is None:
        return None
    name = f"{section}.{key}" if section else key
    if isinstance(value, bool) or not isinstance(value, (int, kind)):
        noun = "an integer" if kind is int else "a number"
        raise ConfigurationError(f"{name} must be {noun}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:
        raise ConfigurationError(f"{name} is out of range, got {value!r}") from None


def _build(cls, mapping: dict, section: str, owner: str):
    """Build cls from the fields given in mapping; the others keep the class defaults."""
    values = {}
    for f in fields(cls):
        value = _opt(mapping, f.name, section, int if f.type == "int" else float)
        if value is not None:
            values[f.name] = value
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigurationError(f"{owner} needs {f.name}")
    return cls(**values)


def _parse_model(data: dict, section: str) -> AccessModel | ServiceModel | None:
    """Build the model of the access or service section; None when absent."""
    if section not in data:
        return None
    mapping = _object(data[section], section)
    kinds = _KINDS[section]
    kind = mapping.get("kind")
    cls = kinds.get(kind) if isinstance(kind, str) else None
    if cls is None:
        names = sorted({c.kind for c in kinds.values()})
        raise ConfigurationError(f"{section}.kind must be one of {names}, got {kind!r}")
    names = [f.name for f in fields(cls)]
    extra = set(mapping) - {"kind", *names}
    if extra:
        raise ConfigurationError(
            f"{cls.kind} {section} takes {' and '.join(names)}, not {', '.join(sorted(extra))}")
    return _build(cls, mapping, section, f"{cls.kind} {section}")


def _parse_sim(data: dict) -> SimConfig | None:
    if "sim" not in data:
        return None
    return _build(SimConfig, _section(data, "sim"), "sim", "sim")


def _parse_axis(data: dict) -> SweepAxis | None:
    if "sweep_axis" not in data:
        return None
    axis = _section(data, "sweep_axis")
    parameter = axis.get("parameter")
    if parameter not in _SWEEP_PARAMETERS:
        raise ConfigurationError(f"sweep_axis.parameter must be "
                                 f"{_alternatives(_SWEEP_PARAMETERS)}, got {parameter!r}")
    start, stop, step = (_opt(axis, key, "sweep_axis", float) for key in ("start", "stop", "step"))
    if start is None or stop is None:
        raise ConfigurationError("sweep_axis needs start and stop")
    step = 1.0 if step is None else step
    # a NaN or infinite bound would never end the sweep
    if not all(map(math.isfinite, (start, stop, step))) or step <= 0 or stop < start:
        raise ConfigurationError("sweep_axis needs finite values, step > 0 and stop >= start")
    # alpha, m and r are integers: a fractional start or step would round
    # several points to one value
    if parameter != "p" and not (start.is_integer() and step.is_integer()):
        raise ConfigurationError(f"sweeping {parameter} needs an integer start and step, "
                                 f"got start={start:g}, step={step:g}")
    return SweepAxis(parameter, start, stop, step)


def parse_run_spec(data: dict) -> RunSpec:
    """Build a RunSpec from a JSON-shaped dict, rejecting unknown fields and mistyped values."""
    _reject_unknown(_object(data, "run spec"), "")
    command = data.get("command")
    if command not in _COMMANDS:
        raise ConfigurationError(f"command must be one of {_COMMANDS}, got {command!r}")

    system = _section(data, "system")
    output = _section(data, "output")
    fmt = output.get("format", "table")
    if fmt not in _FORMATS:
        raise ConfigurationError(f"output.format must be {_alternatives(_FORMATS)}, got {fmt!r}")
    path = output.get("path")
    if path is not None and not isinstance(path, str):
        raise ConfigurationError(f"output.path must be a string, got {path!r}")

    objective = data.get("objective", "service_rate")
    if objective not in _OBJECTIVES:
        raise ConfigurationError(f"objective must be {_alternatives(_OBJECTIVES)}, "
                                 f"got {objective!r}")

    preset = data.get("preset")
    if preset is not None and (not isinstance(preset, str) or preset not in PRESETS):
        raise ConfigurationError(f"unknown preset {preset!r}; available: "
                                 f"{', '.join(sorted(PRESETS))}")

    only = None
    if "only" in data:
        raw = data["only"]
        if not isinstance(raw, list) or not all(isinstance(i, int) for i in raw):
            raise ConfigurationError("only must be a list of criterion numbers")
        only = tuple(raw)

    return RunSpec(
        command=command,
        system=SystemSpec(*(_opt(system, f.name, "system", int) for f in fields(SystemSpec))),
        access=_parse_model(data, "access"),
        service=_parse_model(data, "service"),
        sweep_axis=_parse_axis(data),
        preset=preset,
        sim=_parse_sim(data),
        output=OutputSpec(path=path, format=fmt),
        objective=objective,
        alpha_max=_opt(data, "alpha_max", "", int),
        only=only,
    )


def _fmt(value) -> str:
    """12-significant-digit text for reals; plain text for the rest."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        value = float(value)
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _round12(value):
    if isinstance(value, Fraction):
        value = float(value)
    if isinstance(value, float):
        if math.isinf(value) or math.isnan(value):
            return str(value)
        return float(f"{value:.12g}")
    return value


def _write(spec: RunSpec, text: str) -> None:
    if spec.output.path:
        try:
            with open(spec.output.path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
            raise ConfigurationError(f"cannot write output: {exc}") from None
    else:
        sys.stdout.write(text)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(cell) for cell in row])
    return buf.getvalue()


def _table_text(summary: list[tuple[str, object]], header: list[str], rows: list[list]) -> str:
    """A summary block of aligned pairs, a blank line, a header and rows.

    Empty parts are left out, and so is the blank line next to them.
    """
    parts = []
    if summary:
        width = max(len(k) for k, _ in summary)
        parts.append("".join(f"{k.ljust(width)}  {_fmt(v)}\n" for k, v in summary))
    if header:
        parts.append("".join("  ".join(map(_fmt, row)) + "\n" for row in [header, *rows]))
    return "\n".join(parts)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _json_pairs(pairs: list[tuple[str, object]]) -> dict:
    return {k: _round12(v) for k, v in pairs}


def _json_rows(header: list[str], rows: list[list]) -> list[dict]:
    return [dict(zip(header, map(_round12, row))) for row in rows]


def _emit(spec: RunSpec, summary: list[tuple[str, object]], header: list[str] = (),
          rows: list[list] = (), *, to_json, csv_table=None) -> None:
    """Write one result in the spec's format.

    to_json() builds the JSON value, whose shape differs by command; csv_table
    is a (header, rows) pair, by default the summary as one header row and one
    data row.
    """
    if spec.output.format == "json":
        text = _json_text(to_json())
    elif spec.output.format == "csv":
        text = _csv_text(*(csv_table or ([k for k, _ in summary], [[v for _, v in summary]])))
    else:
        text = _table_text(summary, header, rows)
    _write(spec, text)


def _require(value, name: str):
    if value is None:
        raise ConfigurationError(f"missing required parameter: {name}")
    return value


def _build_config(spec: RunSpec) -> SystemConfig:
    return SystemConfig(
        nodes=_require(spec.system.nodes, "system.nodes"),
        m=_require(spec.system.m, "system.m"),
        alpha=_require(spec.system.alpha, "system.alpha"),
    )


def _analytic(config: SystemConfig, access: AccessModel,
              service: ServiceModel | None) -> tuple[float | None, float]:
    """(service rate, recovery probability) of one allocation from one kernel call.

    The rate is None when service is None; the recovery probability does not
    depend on the service.
    """
    rates, recovery = expected_metrics(access, service, config.nodes, config.m, [config.alpha])
    return None if rates is None else float(rates[0]), float(recovery[0])


def _run_metrics(spec: RunSpec) -> int:
    """rate reports both metrics of one allocation; prob the recovery probability only."""
    config = _build_config(spec)
    access = _require(spec.access, "access")
    service = _require(spec.service, "service") if spec.command == "rate" else None
    rate, recovery = _analytic(config, access, service)
    summary: list[tuple[str, object]] = [("alpha", config.alpha)]
    if service is not None:
        summary.append(("service_rate", rate))
    summary += [("recovery_prob", recovery), ("provenance", "analytic")]
    null_rate = {} if spec.command == "rate" else {"service_rate": None}
    _emit(spec, summary, to_json=lambda: {**_json_pairs(summary), **null_rate})
    return 0


def _run_optimal(spec: RunSpec) -> int:
    access = _require(spec.access, "access")
    service = _require(spec.service, "service")
    nodes = _require(spec.system.nodes, "system.nodes")
    m = _require(spec.system.m, "system.m")
    result = optimal_alpha(access, service, nodes, m, spec.objective)
    summary = [("alpha_star", result.alpha_star), ("value", result.value),
               ("objective", spec.objective)]
    header = ["alpha", "service_rate", "recovery_prob"]
    rows = [[row.alpha, row.service_rate, row.recovery_probability] for row in result.table]
    _emit(spec, summary, header, rows, csv_table=(header, rows),
          to_json=lambda: {**_json_pairs(summary), "table": _json_rows(header, rows)})
    return 0


def _run_conditions(spec: RunSpec) -> int:
    access = _require(spec.access, "access")
    service = _require(spec.service, "service")
    m = _require(spec.system.m, "system.m")
    report = classify(access, service, m, nodes=spec.system.nodes, alpha_max=spec.alpha_max)
    summary: list[tuple[str, object]] = [
        ("access", report.access_kind),
        ("service", report.service_kind),
        ("verdict", report.verdict),
        ("optimality_threshold", report.optimality_threshold),
        ("optimality_witness_alpha", report.witness_alpha_opt),
        ("nonoptimality_threshold", report.nonoptimality_threshold),
        ("nonoptimality_witness_alpha", report.witness_alpha_nonopt),
    ]
    terms = {alpha: [term, None] for alpha, term in report.optimality_terms}
    for alpha, term in report.nonoptimality_terms:
        terms.setdefault(alpha, [None, None])[1] = term
    rows = [[alpha, pair[0], pair[1]] for alpha, pair in sorted(terms.items())]
    header = ["alpha", "optimality_term", "nonoptimality_term"]
    _emit(spec, summary, header, rows, csv_table=(header, rows),
          to_json=lambda: {**_json_pairs(summary), "terms": _json_rows(header, rows)})
    return 0


def _axis_values(axis: SweepAxis, limit: int | None) -> Iterator[int | float]:
    """Yield the grid start, start + step, ... up to stop, one point at a time.

    An integer sweep ends at its first point above limit, the largest value
    with an allocation (every later point is larger still), so the rest of
    the range is skipped with one warning. It also ends at its first point
    below 1, which the caller rejects before any later one is read.
    """
    k = 0
    while (point := axis.start + k * axis.step) <= axis.stop + 1e-9:
        k += 1
        if axis.parameter == "p":
            yield round(point, 10)
            continue
        value = int(point)
        if limit is not None and value > limit:
            warnings.warn(f"skipping {axis.parameter}={value} through {axis.stop:g}: "
                          f"no allocation has {axis.parameter} > {limit}")
            return
        yield value
        if value < 1:
            return


def _sweep_table(spec: RunSpec) -> tuple[list[str], list[list]]:
    if spec.preset is not None:
        preset = PRESETS[spec.preset]
        param_col = "r" if preset.access_kind == "fixed-size" else "p"
        header = ["m", param_col, "alpha", "service_rate", "recovery_prob"]
        rows = [[m, parameter, row.alpha, row.service_rate, row.recovery_probability]
                for m, parameter, row in preset_rows(spec.preset)]
        return header, rows
    axis = _require(spec.sweep_axis, "sweep_axis (or preset)")
    service = _require(spec.service, "service")
    nodes = _require(spec.system.nodes, "system.nodes")
    if axis.parameter == "alpha":
        access = _require(spec.access, "access")
        m = _require(spec.system.m, "system.m")
        # an infeasible system fails here, not as an empty table
        table = alpha_table(access, service, nodes, m,
                            _axis_values(axis, feasible_alphas(nodes, m)[-1]))
        return (["alpha", "service_rate", "recovery_prob"],
                [[row.alpha, row.service_rate, row.recovery_probability] for row in table])
    # every other point is one alpha_table over its feasible alphas: (value, m, access)
    if axis.parameter == "m":
        access = _require(spec.access, "access")
        if nodes < 1:
            raise ConfigurationError(f"nodes must be positive, got nodes={nodes}")
        points = ((value, value, access) for value in _axis_values(axis, nodes))
    else:
        m = _require(spec.system.m, "system.m")
        feasible_alphas(nodes, m)  # no r or p admits an alpha if nodes and m do not
        model = FixedSize if axis.parameter == "r" else Probabilistic
        points = ((value, m, model(value)) for value in _axis_values(axis, None))
    header = [axis.parameter, "alpha", "service_rate", "recovery_prob"]
    rows = [[value, row.alpha, row.service_rate, row.recovery_probability]
            for value, point_m, point_access in points
            for row in alpha_table(point_access, service, nodes, point_m)]
    return header, rows


def _run_sweep(spec: RunSpec) -> int:
    header, rows = _sweep_table(spec)
    _emit(spec, [], header, rows, csv_table=(header, rows),
          to_json=lambda: _json_rows(header, rows))
    return 0


def _run_simulate(spec: RunSpec) -> int:
    config = _build_config(spec)
    access = _require(spec.access, "access")
    service = _require(spec.service, "service")
    sim = _require(spec.sim, "sim")
    rate_est = estimate_service_rate(config, access, service, sim)
    prob_est = recovery_estimate(rate_est.per_phi_counts, config.alpha, sim.trials)
    rate_ref, prob_ref = _analytic(config, access, service)
    rate_ok = abs(rate_est.mean - rate_ref) <= 3.0 * rate_est.std_error
    prob_ok = abs(prob_est.mean - prob_ref) <= 3.0 * prob_est.std_error
    summary: list[tuple[str, object]] = [
        ("trials", sim.trials),
        ("seed", sim.seed),
        ("service_rate_estimate", rate_est.mean),
        ("service_rate_std_error", rate_est.std_error),
        ("service_rate_analytic", rate_ref),
        ("service_rate_within_3se", rate_ok),
        ("recovery_estimate", prob_est.mean),
        ("recovery_std_error", prob_est.std_error),
        ("recovery_analytic", prob_ref),
        ("recovery_within_3se", prob_ok),
    ]
    rows = [[phi, count, rate_est.per_phi_mean_time.get(phi), rate_est.topup_counts.get(phi, 0)]
            for phi, count in rate_est.per_phi_counts.items()]

    def to_json() -> dict:
        return {
            **_json_pairs(summary),
            "per_phi_counts": {str(k): v for k, v in rate_est.per_phi_counts.items()},
            "per_phi_mean_time": {str(k): _round12(v)
                                  for k, v in rate_est.per_phi_mean_time.items()},
            "topup_counts": {str(k): v for k, v in rate_est.topup_counts.items()},
        }

    _emit(spec, summary, ["phi", "count", "mean_time", "topup"], rows, to_json=to_json)
    return 0


def _run_validate(spec: RunSpec) -> int:
    """One record per criterion; the table form is one text line each."""
    results = acceptance.run_all(spec.only)
    header = ["number", "title", "pass", "detail", "elapsed_s"]
    rows = [[r.number, r.name, r.passed, r.detail, r.elapsed_s] for r in results]
    if spec.output.format == "table":
        _write(spec, "\n".join(f"criterion {number}: {'PASS' if passed else 'FAIL'} - "
                               f"{title}: {detail}" for number, title, passed, detail, _ in rows)
               + "\n")
    else:
        _emit(spec, [], header, rows, csv_table=(header, rows),
              to_json=lambda: _json_rows(header, rows))
    if not all(r.passed for r in results):
        print("error: validation: one or more acceptance criteria failed", file=sys.stderr)
        return 4
    return 0


_RUNNERS = {
    "rate": _run_metrics,
    "prob": _run_metrics,
    "optimal": _run_optimal,
    "conditions": _run_conditions,
    "sweep": _run_sweep,
    "simulate": _run_simulate,
    "validate": _run_validate,
}


def run(spec: RunSpec) -> int:
    """Execute a RunSpec and return the exit status."""
    return _RUNNERS[spec.command](spec)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # one-line machine-parsable errors
        raise ConfigurationError(message)


def _flag(parser: argparse.ArgumentParser, names: str, dest: str, help: str, **kwargs) -> None:
    """Add an option whose value lands at the dotted run-spec path dest ("system.nodes")."""
    if "choices" not in kwargs:
        kwargs["metavar"] = dest.rpartition(".")[2].upper()
    parser.add_argument(*names.split(), dest=dest, help=help, **kwargs)


def _add_output(parser: argparse.ArgumentParser) -> None:
    _flag(parser, "--output", "output.path", "write here instead of stdout")
    _flag(parser, "--format", "output.format", "output format", choices=_FORMATS)


def _add_common(parser: argparse.ArgumentParser, *, service=True) -> None:
    parser.add_argument("--config", help="JSON run spec; explicit flags override it")
    _flag(parser, "--nodes -N", "system.nodes", "node count N", type=int)
    _flag(parser, "--m", "system.m", "redundancy multiplier m", type=int)
    _flag(parser, "--alpha", "system.alpha", "spreading parameter alpha", type=int)
    _flag(parser, "--access", "access.kind", "access model", choices=sorted(_KINDS["access"]))
    _flag(parser, "--r", "access.r", "accessed-node count (fixed-size access)", type=int)
    _flag(parser, "--p", "access.p", "failure probability (probabilistic access)", type=float)
    if service:
        _flag(parser, "--service", "service.kind", "service model",
              choices=sorted(_KINDS["service"]))
        _flag(parser, "--mu", "service.mu", "service rate mu", type=float)
        _flag(parser, "--delta", "service.delta", "service shift/duration delta", type=float)
    _add_output(parser)


def _criteria(text: str) -> list[int]:
    try:
        return [int(piece) for piece in text.split(",") if piece]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"takes comma-separated integers, got {text!r}") from None


@functools.cache
def _parser() -> _Parser:
    """Build the parser once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="dss-alloc", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, desc in (("rate", "service rate and recovery probability of one allocation"),
                       ("prob", "recovery probability of one allocation"),
                       ("simulate", "Monte-Carlo estimate vs. the analytic value")):
        p = sub.add_parser(name, help=desc)
        _add_common(p, service=name != "prob")
        if name == "simulate":
            _flag(p, "--trials", "sim.trials", "Monte-Carlo trials", type=int)
            _flag(p, "--seed", "sim.seed", f"RNG seed (default {SimConfig.seed})", type=int)
            _flag(p, "--workers", "sim.workers", "worker threads (default: one per CPU)",
                  type=int)
            _flag(p, "--min-count", "sim.min_count",
                  f"per-stratum sample floor (default {SimConfig.min_count})", type=int)

    p = sub.add_parser("optimal", help="exhaustive optimal-alpha search")
    _add_common(p)
    _flag(p, "--objective", "objective", "what to maximize (default service_rate)",
          choices=_OBJECTIVES)

    p = sub.add_parser("conditions", help="minimal-spreading (non-)optimality certificates")
    _add_common(p)
    _flag(p, "--alpha-max", "alpha_max",
          "largest alternative alpha for the thresholds", type=int)

    p = sub.add_parser("sweep", help="figure-style parameter sweeps")
    _add_common(p)
    _flag(p, "--preset", "preset", "figure preset", choices=sorted(PRESETS))
    _flag(p, "--parameter", "sweep_axis.parameter", "swept parameter", choices=_SWEEP_PARAMETERS)
    _flag(p, "--start", "sweep_axis.start", "sweep start", type=float)
    _flag(p, "--stop", "sweep_axis.stop", "sweep stop (inclusive)", type=float)
    _flag(p, "--step", "sweep_axis.step", "sweep step (default 1)", type=float)

    p = sub.add_parser("validate", help="run the acceptance-criteria suite")
    p.add_argument("--config", help="JSON run spec; explicit flags override it")
    _flag(p, "--only", "only", "comma-separated criterion numbers to run", type=_criteria)
    _add_output(p)

    return parser


def _spec_from_args(args: argparse.Namespace) -> RunSpec:
    flags = dict(vars(args))
    path = flags.pop("config")
    data: dict = {}
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigurationError(f"cannot read config: {exc}") from None
        except ValueError as exc:  # invalid JSON or invalid UTF-8
            raise ConfigurationError(f"config is not valid JSON: {exc}") from None
        if _object(data, "config").get("command", args.command) != args.command:
            raise ConfigurationError(
                f"config command {data.get('command')!r} does not match {args.command!r}")
    # each flag given overrides the one field at its dotted path
    for dotted, value in flags.items():
        if value is not None:
            section, _, key = dotted.rpartition(".")
            (_object(data.setdefault(section, {}), section) if section else data)[key] = value
    return parse_run_spec(data)


def main(argv: list[str] | None = None) -> int:
    try:
        return run(_spec_from_args(_parser().parse_args(argv)))
    except InfeasibleError as exc:
        print(f"error: infeasible: {exc}", file=sys.stderr)
        return 3
    except DssAllocError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
