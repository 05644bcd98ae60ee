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
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import acceptance
from .analysis import (
    MetricResult,
    optimal_alpha,
    recovery_probability,
    service_rate,
    sweep,
)
from .conditions import ConditionReport, classify
from .errors import ConfigurationError, DssAllocError, InfeasibleError, SimulationError
from .models import (
    AccessModel,
    ConstantTime,
    FixedSize,
    Probabilistic,
    ScaledExp,
    ServiceModel,
    ShiftedExp,
    SmallExp,
    SystemConfig,
)
from .presets import PRESETS, preset_rows
from .simulator import SimConfig, estimate_service_rate, recovery_estimate

__all__ = ["RunSpec", "main", "parse_run_spec", "run"]

_COMMANDS = ("rate", "prob", "optimal", "conditions", "sweep", "simulate", "validate")

_ALLOWED_KEYS = {
    "": {"command", "system", "access", "service", "sweep_axis", "preset", "sim",
         "output", "objective", "alpha_max", "only"},
    "system": {"nodes", "m", "alpha", "blocks"},
    "access": {"kind", "r", "p"},
    "service": {"kind", "mu", "delta"},
    "sweep_axis": {"parameter", "start", "stop", "step"},
    "sim": {"trials", "seed", "workers", "min_count"},
    "output": {"path", "format"},
}

_SERVICE_KINDS = {"small-exp", "scaled-exp", "shifted-exp", "constant"}
_SERVICE_ALIASES = {"small": "small-exp", "scaled": "scaled-exp",
                    "shifted": "shifted-exp", "constant": "constant"}
_ACCESS_ALIASES = {"fixed": "fixed-size", "fixed-size": "fixed-size",
                   "probabilistic": "probabilistic"}


@dataclass(frozen=True)
class SystemSpec:
    """Raw system parameters; commands validate the subset they need."""

    nodes: int | None = None
    m: int | None = None
    alpha: int | None = None
    blocks: int | None = None


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

    def to_dict(self) -> dict:
        """Serialize to the JSON schema (round-trips through parse_run_spec)."""
        out: dict = {"command": self.command}
        sys_fields = {k: v for k, v in vars(self.system).items() if v is not None}
        if sys_fields:
            out["system"] = sys_fields
        if self.access is not None:
            if isinstance(self.access, FixedSize):
                out["access"] = {"kind": self.access.kind, "r": self.access.r}
            else:
                out["access"] = {"kind": self.access.kind, "p": self.access.p}
        if self.service is not None:
            svc: dict = {"kind": self.service.kind}
            if isinstance(self.service, (SmallExp, ScaledExp)):
                svc["mu"] = self.service.mu
            elif isinstance(self.service, ShiftedExp):
                svc["delta"] = self.service.delta
                svc["mu"] = self.service.mu
            else:
                svc["delta"] = self.service.delta
            out["service"] = svc
        if self.sweep_axis is not None:
            out["sweep_axis"] = vars(self.sweep_axis).copy()
        if self.preset is not None:
            out["preset"] = self.preset
        if self.sim is not None:
            out["sim"] = {"trials": self.sim.trials, "seed": self.sim.seed,
                          "workers": self.sim.workers, "min_count": self.sim.min_count}
        out["output"] = {"path": self.output.path, "format": self.output.format}
        if self.objective != "service_rate":
            out["objective"] = self.objective
        if self.alpha_max is not None:
            out["alpha_max"] = self.alpha_max
        if self.only is not None:
            out["only"] = list(self.only)
        return out


def _reject_unknown(mapping: dict, section: str) -> None:
    unknown = set(mapping) - _ALLOWED_KEYS[section]
    if unknown:
        where = section or "run spec"
        raise ConfigurationError(f"unknown {where} field(s): {', '.join(sorted(unknown))}")


def _opt_int(mapping: dict, key: str, section: str) -> int | None:
    value = mapping.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{section}.{key} must be an integer, got {value!r}")
    return value


def _parse_access(mapping: dict) -> AccessModel:
    _reject_unknown(mapping, "access")
    kind = _ACCESS_ALIASES.get(mapping.get("kind", ""))
    if kind is None:
        raise ConfigurationError(
            f"access.kind must be 'fixed-size' or 'probabilistic', got {mapping.get('kind')!r}")
    if kind == "fixed-size":
        if "p" in mapping:
            raise ConfigurationError("fixed-size access takes r, not p")
        r = _opt_int(mapping, "r", "access")
        if r is None:
            raise ConfigurationError("fixed-size access needs r")
        return FixedSize(r)
    if "r" in mapping:
        raise ConfigurationError("probabilistic access takes p, not r")
    if "p" not in mapping:
        raise ConfigurationError("probabilistic access needs p")
    return Probabilistic(float(mapping["p"]))


def _parse_service(mapping: dict) -> ServiceModel:
    _reject_unknown(mapping, "service")
    kind = mapping.get("kind")
    kind = _SERVICE_ALIASES.get(kind, kind)
    if kind not in _SERVICE_KINDS:
        raise ConfigurationError(
            f"service.kind must be one of {sorted(_SERVICE_KINDS)}, got {mapping.get('kind')!r}")
    mu = mapping.get("mu")
    delta = mapping.get("delta")
    if kind == "small-exp":
        if delta is not None:
            raise ConfigurationError("small-exp service takes mu only")
        return SmallExp(float(1.0 if mu is None else mu))
    if kind == "scaled-exp":
        if delta is not None:
            raise ConfigurationError("scaled-exp service takes mu only")
        return ScaledExp(float(1.0 if mu is None else mu))
    if kind == "shifted-exp":
        if delta is None:
            raise ConfigurationError("shifted-exp service needs delta")
        return ShiftedExp(float(delta), float(1.0 if mu is None else mu))
    if mu is not None:
        raise ConfigurationError("constant service takes delta only")
    if delta is None:
        raise ConfigurationError("constant service needs delta")
    return ConstantTime(float(delta))


def _default_workers() -> int:
    env = os.environ.get("DSS_ALLOC_THREADS")
    if env is not None:
        try:
            workers = int(env)
        except ValueError:
            raise ConfigurationError(f"DSS_ALLOC_THREADS must be an integer, got {env!r}") from None
        if workers < 1:
            raise ConfigurationError(f"DSS_ALLOC_THREADS must be positive, got {workers}")
        return workers
    return os.cpu_count() or 1


def _parse_sim(mapping: dict) -> SimConfig:
    _reject_unknown(mapping, "sim")
    trials = _opt_int(mapping, "trials", "sim")
    if trials is None:
        raise ConfigurationError("sim needs trials")
    workers = _opt_int(mapping, "workers", "sim")
    return SimConfig(
        trials=trials,
        seed=_opt_int(mapping, "seed", "sim") or 0,
        workers=workers if workers is not None else _default_workers(),
        min_count=_opt_int(mapping, "min_count", "sim") or 100,
    )


def parse_run_spec(data: dict) -> RunSpec:
    """Build a RunSpec from a JSON-shaped dict, rejecting unknown fields."""
    if not isinstance(data, dict):
        raise ConfigurationError(f"run spec must be a JSON object, got {type(data).__name__}")
    _reject_unknown(data, "")
    command = data.get("command")
    if command not in _COMMANDS:
        raise ConfigurationError(f"command must be one of {_COMMANDS}, got {command!r}")

    system = SystemSpec()
    if "system" in data:
        _reject_unknown(data["system"], "system")
        system = SystemSpec(
            nodes=_opt_int(data["system"], "nodes", "system"),
            m=_opt_int(data["system"], "m", "system"),
            alpha=_opt_int(data["system"], "alpha", "system"),
            blocks=_opt_int(data["system"], "blocks", "system"),
        )

    access = _parse_access(data["access"]) if "access" in data else None
    service = _parse_service(data["service"]) if "service" in data else None

    sweep_axis = None
    if "sweep_axis" in data:
        _reject_unknown(data["sweep_axis"], "sweep_axis")
        axis = data["sweep_axis"]
        parameter = axis.get("parameter")
        if parameter not in ("alpha", "m", "r", "p"):
            raise ConfigurationError(
                f"sweep_axis.parameter must be alpha, m, r, or p, got {parameter!r}")
        try:
            sweep_axis = SweepAxis(parameter, float(axis["start"]), float(axis["stop"]),
                                   float(axis["step"]))
        except KeyError as exc:
            raise ConfigurationError(f"sweep_axis needs {exc.args[0]}") from None
        if sweep_axis.step <= 0 or sweep_axis.stop < sweep_axis.start:
            raise ConfigurationError("sweep_axis needs step > 0 and stop >= start")

    output = OutputSpec()
    if "output" in data:
        _reject_unknown(data["output"], "output")
        fmt = data["output"].get("format", "table")
        if fmt not in ("table", "json", "csv"):
            raise ConfigurationError(f"output.format must be table, json, or csv, got {fmt!r}")
        output = OutputSpec(path=data["output"].get("path"), format=fmt)

    objective = data.get("objective", "service_rate")
    if objective not in ("service_rate", "recovery_probability"):
        raise ConfigurationError(f"objective must be service_rate or recovery_probability, "
                                 f"got {objective!r}")

    preset = data.get("preset")
    if preset is not None and preset not in PRESETS:
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
        system=system,
        access=access,
        service=service,
        sweep_axis=sweep_axis,
        preset=preset,
        sim=_parse_sim(data["sim"]) if "sim" in data else None,
        output=output,
        objective=objective,
        alpha_max=_opt_int(data, "alpha_max", ""),
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


def _emit(spec: RunSpec, text: str) -> None:
    if spec.output.path:
        try:
            with open(spec.output.path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
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


def _table_text(pairs: list[tuple[str, object]]) -> str:
    width = max(len(k) for k, _ in pairs)
    return "".join(f"{k.ljust(width)}  {_fmt(v)}\n" for k, v in pairs)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _require(value, name: str):
    if value is None:
        raise ConfigurationError(f"missing required parameter: {name}")
    return value


def _build_config(spec: RunSpec) -> SystemConfig:
    return SystemConfig(
        nodes=_require(spec.system.nodes, "system.nodes"),
        m=_require(spec.system.m, "system.m"),
        alpha=_require(spec.system.alpha, "system.alpha"),
        blocks=spec.system.blocks,
    )


def _metric_payload(result: MetricResult) -> list[tuple[str, object]]:
    pairs: list[tuple[str, object]] = [("alpha", result.alpha)]
    if result.service_rate is not None:
        pairs.append(("service_rate", result.service_rate))
    pairs.append(("recovery_prob", result.recovery_probability))
    pairs.append(("provenance", result.provenance))
    return pairs


def _run_rate(spec: RunSpec) -> int:
    config = _build_config(spec)
    access = _require(spec.access, "access")
    service = _require(spec.service, "service")
    result = MetricResult(
        service_rate=service_rate(config, access, service),
        recovery_probability=recovery_probability(config, access),
        alpha=config.alpha,
    )
    _emit_metric(spec, result)
    return 0


def _run_prob(spec: RunSpec) -> int:
    config = _build_config(spec)
    access = _require(spec.access, "access")
    result = MetricResult(
        service_rate=None,
        recovery_probability=recovery_probability(config, access),
        alpha=config.alpha,
    )
    _emit_metric(spec, result)
    return 0


def _emit_metric(spec: RunSpec, result: MetricResult) -> None:
    pairs = _metric_payload(result)
    if spec.output.format == "json":
        obj = {k: _round12(v) for k, v in pairs}
        if result.service_rate is None:
            obj["service_rate"] = None
        text = _json_text(obj)
    elif spec.output.format == "csv":
        text = _csv_text([k for k, _ in pairs], [[v for _, v in pairs]])
    else:
        text = _table_text(pairs)
    _emit(spec, text)


def _run_optimal(spec: RunSpec) -> int:
    access = _require(spec.access, "access")
    service = _require(spec.service, "service")
    nodes = _require(spec.system.nodes, "system.nodes")
    m = _require(spec.system.m, "system.m")
    result = optimal_alpha(access, service, nodes, m, spec.objective)
    header = ["alpha", "service_rate", "recovery_prob"]
    rows = [[row.alpha, row.service_rate, row.recovery_probability] for row in result.table]
    if spec.output.format == "json":
        text = _json_text({
            "alpha_star": result.alpha_star,
            "value": _round12(result.value),
            "objective": spec.objective,
            "table": [dict(zip(header, map(_round12, row))) for row in rows],
        })
    elif spec.output.format == "csv":
        text = _csv_text(header, rows)
    else:
        lines = [f"alpha_star  {result.alpha_star}", f"value       {_fmt(result.value)}",
                 f"objective   {spec.objective}", "", "  ".join(header)]
        lines += ["  ".join(_fmt(c) for c in row) for row in rows]
        text = "\n".join(lines) + "\n"
    _emit(spec, text)
    return 0


def _run_conditions(spec: RunSpec) -> int:
    access = _require(spec.access, "access")
    service = _require(spec.service, "service")
    m = _require(spec.system.m, "system.m")
    report = classify(access, service, m, nodes=spec.system.nodes, alpha_max=spec.alpha_max)
    _emit_conditions(spec, report)
    return 0


def _emit_conditions(spec: RunSpec, report: ConditionReport) -> None:
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
    term_rows = [[alpha, pair[0], pair[1]] for alpha, pair in sorted(terms.items())]
    header = ["alpha", "optimality_term", "nonoptimality_term"]
    if spec.output.format == "json":
        obj = {k: _round12(v) for k, v in summary}
        obj["terms"] = [dict(zip(header, map(_round12, row))) for row in term_rows]
        text = _json_text(obj)
    elif spec.output.format == "csv":
        text = _csv_text(header, term_rows)
    else:
        text = _table_text(summary) + "\n" + "  ".join(header) + "\n"
        text += "".join("  ".join(_fmt(c) for c in row) + "\n" for row in term_rows)
    _emit(spec, text)


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
    values: list[int | float] = []
    k = 0
    while True:
        value = axis.start + k * axis.step
        if value > axis.stop + 1e-9:
            break
        values.append(round(value, 10) if axis.parameter == "p" else int(round(value)))
        k += 1
    points = sweep(axis.parameter, values, service=service, nodes=nodes,
                   access=spec.access, m=spec.system.m)
    if axis.parameter == "alpha":
        header = ["alpha", "service_rate", "recovery_prob"]
        rows = [[row.alpha, row.service_rate, row.recovery_probability]
                for _, table in points for row in table]
    else:
        header = [axis.parameter, "alpha", "service_rate", "recovery_prob"]
        rows = [[value, row.alpha, row.service_rate, row.recovery_probability]
                for value, table in points for row in table]
    return header, rows


def _run_sweep(spec: RunSpec) -> int:
    header, rows = _sweep_table(spec)
    if spec.output.format == "json":
        text = _json_text([dict(zip(header, map(_round12, row))) for row in rows])
    elif spec.output.format == "table":
        lines = ["  ".join(header)]
        lines += ["  ".join(_fmt(c) for c in row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        text = _csv_text(header, rows)
    _emit(spec, text)
    return 0


def _run_simulate(spec: RunSpec) -> int:
    config = _build_config(spec)
    access = _require(spec.access, "access")
    service = _require(spec.service, "service")
    sim = _require(spec.sim, "sim")
    rate_est = estimate_service_rate(config, access, service, sim)
    prob_est = recovery_estimate(rate_est.per_phi_counts, config.alpha, sim.trials)
    rate_ref = service_rate(config, access, service)
    prob_ref = recovery_probability(config, access)
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
    if spec.output.format == "json":
        obj = {k: _round12(v) for k, v in summary}
        obj["per_phi_counts"] = {str(k): v for k, v in rate_est.per_phi_counts.items()}
        obj["per_phi_mean_time"] = {str(k): _round12(v)
                                    for k, v in rate_est.per_phi_mean_time.items()}
        obj["topup_counts"] = {str(k): v for k, v in rate_est.topup_counts.items()}
        text = _json_text(obj)
    elif spec.output.format == "csv":
        text = _csv_text([k for k, _ in summary], [[v for _, v in summary]])
    else:
        text = _table_text(summary)
        text += "\nphi  count  mean_time  topup\n"
        for phi, count in rate_est.per_phi_counts.items():
            mean_time = rate_est.per_phi_mean_time.get(phi)
            topup = rate_est.topup_counts.get(phi, 0)
            text += f"{phi}  {count}  {_fmt(mean_time)}  {topup}\n"
    _emit(spec, text)
    return 0


def _run_validate(spec: RunSpec) -> int:
    lines: list[str] = []
    all_passed = True
    for result in acceptance.run_all(spec.only):
        status = "PASS" if result.passed else "FAIL"
        lines.append(f"criterion {result.number}: {status} - {result.name}: {result.detail}")
        all_passed &= result.passed
    _emit(spec, "\n".join(lines) + "\n")
    if not all_passed:
        print("error: validation: one or more acceptance criteria failed", file=sys.stderr)
        return 4
    return 0


_RUNNERS = {
    "rate": _run_rate,
    "prob": _run_prob,
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


def _add_common(parser: argparse.ArgumentParser, *, system=True, access=True, service=True):
    parser.add_argument("--config", help="JSON run spec; explicit flags override it")
    if system:
        parser.add_argument("--nodes", "-N", type=int, help="node count N")
        parser.add_argument("--m", type=int, help="redundancy multiplier m")
        parser.add_argument("--alpha", type=int, help="spreading parameter alpha")
        parser.add_argument("--blocks", type=int, help="file block count (metadata only)")
    if access:
        parser.add_argument("--access", choices=sorted(set(_ACCESS_ALIASES)),
                            help="access model")
        parser.add_argument("--r", type=int, help="accessed-node count (fixed-size access)")
        parser.add_argument("--p", type=float, help="failure probability (probabilistic access)")
    if service:
        parser.add_argument("--service", choices=sorted(_SERVICE_ALIASES),
                            help="service model")
        parser.add_argument("--mu", type=float, help="service rate mu")
        parser.add_argument("--delta", type=float, help="service shift/duration delta")
    parser.add_argument("--output", help="write here instead of stdout")
    parser.add_argument("--format", choices=("table", "json", "csv"), help="output format")


def _build_parser() -> _Parser:
    parser = _Parser(prog="dss-alloc", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, desc in (("rate", "service rate and recovery probability of one allocation"),
                       ("prob", "recovery probability of one allocation"),
                       ("simulate", "Monte-Carlo estimate vs. the analytic value")):
        p = sub.add_parser(name, help=desc)
        _add_common(p, service=name != "prob")
        if name == "simulate":
            p.add_argument("--trials", type=int, help="Monte-Carlo trials")
            p.add_argument("--seed", type=int, help="RNG seed (default 0)")
            p.add_argument("--workers", type=int,
                           help="worker threads (default: DSS_ALLOC_THREADS or CPU count)")
            p.add_argument("--min-count", type=int, help="per-stratum sample floor (default 100)")

    p = sub.add_parser("optimal", help="exhaustive optimal-alpha search")
    _add_common(p)
    p.add_argument("--objective", choices=("service_rate", "recovery_probability"),
                   help="what to maximize (default service_rate)")

    p = sub.add_parser("conditions", help="minimal-spreading (non-)optimality certificates")
    _add_common(p)
    p.add_argument("--alpha-max", type=int,
                   help="largest alternative alpha for probabilistic thresholds")

    p = sub.add_parser("sweep", help="figure-style parameter sweeps")
    _add_common(p)
    p.add_argument("--preset", choices=sorted(PRESETS), help="figure preset")
    p.add_argument("--parameter", choices=("alpha", "m", "r", "p"), help="swept parameter")
    p.add_argument("--start", type=float, help="sweep start")
    p.add_argument("--stop", type=float, help="sweep stop (inclusive)")
    p.add_argument("--step", type=float, help="sweep step (default 1)")

    p = sub.add_parser("validate", help="run the acceptance-criteria suite")
    p.add_argument("--config", help="JSON run spec; explicit flags override it")
    p.add_argument("--only", help="comma-separated criterion numbers to run")
    p.add_argument("--output", help="write here instead of stdout")
    p.add_argument("--format", choices=("table", "json", "csv"), help="output format")

    return parser


def _spec_from_args(args: argparse.Namespace) -> RunSpec:
    data: dict = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigurationError(f"cannot read config: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigurationError("config must be a JSON object")
        if data.get("command", args.command) != args.command:
            raise ConfigurationError(
                f"config command {data.get('command')!r} does not match {args.command!r}")
    data["command"] = args.command

    def setfield(section: str | None, key: str, value) -> None:
        if value is None:
            return
        if section is None:
            data[key] = value
        else:
            data.setdefault(section, {})[key] = value

    setfield("system", "nodes", getattr(args, "nodes", None))
    setfield("system", "m", getattr(args, "m", None))
    setfield("system", "alpha", getattr(args, "alpha", None))
    setfield("system", "blocks", getattr(args, "blocks", None))

    if getattr(args, "access", None) is not None:
        data.setdefault("access", {})["kind"] = args.access
    setfield("access", "r", getattr(args, "r", None))
    setfield("access", "p", getattr(args, "p", None))

    if getattr(args, "service", None) is not None:
        data.setdefault("service", {})["kind"] = args.service
    setfield("service", "mu", getattr(args, "mu", None))
    setfield("service", "delta", getattr(args, "delta", None))

    setfield("sim", "trials", getattr(args, "trials", None))
    setfield("sim", "seed", getattr(args, "seed", None))
    setfield("sim", "workers", getattr(args, "workers", None))
    setfield("sim", "min_count", getattr(args, "min_count", None))

    if getattr(args, "parameter", None) is not None:
        axis = data.setdefault("sweep_axis", {})
        axis["parameter"] = args.parameter
        if args.start is not None:
            axis["start"] = args.start
        if args.stop is not None:
            axis["stop"] = args.stop
        axis["step"] = args.step if args.step is not None else axis.get("step", 1)

    setfield(None, "preset", getattr(args, "preset", None))
    setfield(None, "objective", getattr(args, "objective", None))
    setfield(None, "alpha_max", getattr(args, "alpha_max", None))
    if getattr(args, "only", None) is not None:
        try:
            data["only"] = [int(piece) for piece in str(args.only).split(",") if piece]
        except ValueError:
            raise ConfigurationError(f"--only takes comma-separated integers, "
                                     f"got {args.only!r}") from None

    if args.output is not None or args.format is not None:
        out = data.setdefault("output", {})
        if args.output is not None:
            out["path"] = args.output
        if args.format is not None:
            out["format"] = args.format

    return parse_run_spec(data)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return run(_spec_from_args(args))
    except ConfigurationError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"error: infeasible: {exc}", file=sys.stderr)
        return 3
    except SimulationError as exc:
        print(f"error: simulation: {exc}", file=sys.stderr)
        return 2
    except DssAllocError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
