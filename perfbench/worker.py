"""One round of a benchmark workload in a fresh interpreter.

    python3 perfbench/worker.py <workload> <seed> <trace 0|1> [--workers-1]

dss_alloc must be importable (run.py puts the checkout's src/ on PYTHONPATH).
The round runs the workload's fixed list of operations once and prints one
JSON object: the wall time, CPU time and peak RSS of that list (imports
excluded), the operations attempted and failed, the outputs the checks read,
and, when traced, the per-layer metrics. --workers-1 runs simulate with one
worker thread instead of the default, for the worker-count check.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time

import dss_alloc
from dss_alloc import cli

import workloads as W
from spans import Tracer


def _access(access: tuple):
    return {"fixed": dss_alloc.FixedSize, "prob": dss_alloc.Probabilistic}[access[0]](access[1])


def _service(service: tuple):
    kinds = {"small": dss_alloc.SmallExp, "scaled": dss_alloc.ScaledExp,
             "shifted": dss_alloc.ShiftedExp, "constant": dss_alloc.ConstantTime}
    return kinds[service[0]](*service[1:])


def _service_tuple(service) -> tuple:
    kind = {"small-exp": "small", "scaled-exp": "scaled",
            "shifted-exp": "shifted", "constant": "constant"}[service.kind]
    if kind in ("small", "scaled"):
        return (kind, service.mu)
    if kind == "shifted":
        return (kind, service.delta, service.mu)
    return (kind, service.delta)


def _rows(table) -> list[list]:
    return [[row.alpha, row.service_rate, row.recovery_probability] for row in table]


class Round:
    """Runs operations, counting attempts and failures, and keeps the CLI's output."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.bytes_out = 0

    def call(self, label: str, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            self.errors.append(f"{label}: {exc!r}")
            return None

    def cli(self, argv: list[str]) -> str | None:
        """Run cli.main in-process; return its stdout, or None if it failed."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception as exc:  # a traceback is a failed operation
            code = repr(exc)
        text = out.getvalue()
        self.bytes_out += len(text.encode())
        if code != 0:
            self.failed += 1
            self.errors.append(f"{' '.join(argv)}: exit {code}: {err.getvalue().strip()}")
            return None
        return text


def search_scale(rnd: Round, seed: int, workers_1: bool) -> dict:
    searches = []
    for access, service in W.SEARCHES:
        result = rnd.call(f"optimal_alpha {access} {service}", dss_alloc.optimal_alpha,
                          _access(access), _service(service), W.SEARCH_NODES, W.SEARCH_M)
        searches.append(None if result is None else {
            "access": access, "service": service,
            "alpha_star": result.alpha_star, "value": result.value,
            "table": _rows(result.table),
        })
    return {"searches": searches}


def paper_figures(rnd: Round, seed: int, workers_1: bool) -> dict:
    presets = []
    for name in W.PRESET_NAMES:
        texts = {fmt: rnd.cli(["sweep", "--preset", name, "--format", fmt]) for fmt in W.FORMATS}
        presets.append({"name": name, "texts": texts})
    figures = []
    for m, access, service in W.figure_configs():
        base = ["--nodes", str(W.FIGURE_NODES), "--m", str(m)] + W.cli_model_args(access, service)
        figures.append({
            "m": m, "access": access, "service": service,
            "optimal": rnd.cli(["optimal"] + base + ["--format", "json"]),
            "conditions": rnd.cli(["conditions"] + base + ["--format", "json"]),
        })
    anchors = []
    for access, service in W.ANCHOR_PROB_CASES:
        base = ["--nodes", str(W.FIGURE_NODES), "--m", "2"] + W.cli_model_args(access, service)
        anchors.append({"access": access, "service": service,
                        "conditions": rnd.cli(["conditions"] + base + ["--format", "json"])})
    grid = []
    for nodes, m, access, service in W.grid_configs():
        acc, svc = _access(access), _service(service)
        label = f"grid N={nodes} m={m} {access} {service}"
        report = rnd.call(label, dss_alloc.classify, acc, svc, m, nodes=nodes)
        table = rnd.call(label, dss_alloc.alpha_table, acc, svc, nodes, m)
        grid.append([None if report is None else report.verdict,
                     None if table is None else _rows(table)])
    return {"presets": presets, "figures": figures, "anchors": anchors, "grid": grid}


def simulate(rnd: Round, seed: int, workers_1: bool) -> dict:
    texts = []
    for nodes, m, alpha, access, service in W.SIM_CASES:
        argv = (["simulate", "--nodes", str(nodes), "--m", str(m), "--alpha", str(alpha)]
                + W.cli_model_args(access, service)
                + ["--trials", str(W.SIM_TRIALS), "--seed", str(seed), "--format", "json"])
        if workers_1:
            argv += ["--workers", "1"]
        texts.append(rnd.cli(argv))
    return {"texts": texts}


RUNNERS = {"search-scale": search_scale, "paper-figures": paper_figures, "simulate": simulate}


def preset_definitions() -> dict:
    """The program's preset definitions, which the row-count check reads."""
    return {name: {"nodes": p.nodes, "access_kind": p.access_kind,
                   "service": _service_tuple(p.service), "cases": p.cases,
                   "alphas": p.alphas}
            for name, p in dss_alloc.PRESETS.items()}


def peak_rss_mb() -> float:
    """Peak resident memory of this process image.

    VmHWM restarts at exec; ru_maxrss would also count the parent's memory
    that the child shared before exec.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str]) -> int:
    workload, seed, traced = argv[0], int(argv[1]), argv[2] == "1"
    workers_1 = "--workers-1" in argv[3:]
    runner = RUNNERS[workload]
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    rnd = Round()
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    outputs = runner(rnd, seed, workers_1)
    wall = time.perf_counter() - t0
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "wall_s": wall,
        "cpu_s": (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime),
        "peak_rss_mb": peak_rss_mb(),
        "attempted": rnd.attempted,
        "failed": rnd.failed,
        "errors": rnd.errors,
        "outputs": outputs,
    }
    if workload == "paper-figures":
        result["preset_definitions"] = preset_definitions()
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(rnd.bytes_out)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
