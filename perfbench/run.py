"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; dss_alloc is imported from its src/. Every
round of the workload runs in a fresh interpreter (perfbench/worker.py), so
process-level caches start cold as they do for each CLI invocation. Rounds
repeat until S seconds have passed; the metrics are medians over rounds.

--trace 0 reports the end-to-end metrics: wall_s, cpu_s and peak_rss_mb of
the workload's operations (imports excluded) and setup_s, the median time
from a fresh interpreter to `import dss_alloc` done over at least
SETUP_PROBES probes spread through the run.
--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics of the traced ones, plus trace.overhead_s, the median traced wall
time less the median untraced one.

The first round's outputs are checked against perfbench/reference.py and
the properties in perfbench/checks.py; every other round must give the same
outputs. A line "record: {...}" names the machine and holds every sample;
the last line is the result: {"correct", "attempted", "failed", "metrics"}.
The exit status is 0 when every output is correct, 1 when a check failed and
2 when the workload could not run at all (no result is printed then).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import checks
import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# at least this many set-up probes per run, one before each round and the rest after
SETUP_PROBES = 11
WORKER_TIMEOUT_S = 170
# no round starts if it could end after this many seconds of the run
ROUND_DEADLINE_S = 140


class BenchError(Exception):
    """The workload could not be run."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # simulate runs at the library's default worker count
    env.pop("DSS_ALLOC_THREADS", None)
    return env


def _setup_time(env: dict[str, str]) -> float:
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", "import dss_alloc, time; print(repr(time.monotonic()))"],
        env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"import dss_alloc failed: {proc.stderr.strip()[-2000:]}")
    return float(proc.stdout) - start


def _round(workload: str, seed: int, traced: bool, env: dict[str, str],
           workers_1: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), "1" if traced else "0"]
    if workers_1:
        cmd.append("--workers-1")
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} round exceeded {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} round exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def _metric_units() -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _machine() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
    }


def _check(workload: str, first: dict, seed: int, env: dict[str, str]) -> list[str]:
    try:
        if workload == "search-scale":
            bad = checks.check_search_scale(first["outputs"], seed)
        elif workload == "paper-figures":
            bad = checks.check_paper_figures(first["outputs"], seed,
                                             first["preset_definitions"])
        else:
            bad = checks.check_simulate(first["outputs"], seed)
            single = _round(workload, seed, False, env, workers_1=True)
            if single["outputs"] != first["outputs"]:
                bad.append("simulate output at 1 worker differs from the default worker count")
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        bad = [f"unreadable output: {exc!r}"]
    return bad


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        if not (ROOT / "src" / "dss_alloc" / "__init__.py").is_file():
            raise BenchError(f"no dss_alloc package under {ROOT / 'src'}")
        end_to_end_units, layer_units = _metric_units()
        env = _child_env()
        setups: list[float] = []
        plan = (False, True) if args.trace else (False,)
        rounds: list[dict] = []  # each round's figures, without its outputs
        traced_flags: list[bool] = []
        first: dict | None = None
        failures: list[str] = []
        start = time.monotonic()
        while True:
            if not args.trace:
                setups.append(_setup_time(env))
            began = time.monotonic()
            for traced in plan:
                result = _round(args.workload, args.seed, traced, env)
                if first is None:
                    first = result
                elif result["outputs"] != first["outputs"]:
                    failures.append(f"round {len(rounds) + 1} gave other outputs than round 1")
                rounds.append({k: v for k, v in result.items() if k != "outputs"})
                traced_flags.append(traced)
            elapsed = time.monotonic() - start
            if elapsed >= args.seconds or elapsed + (time.monotonic() - began) > ROUND_DEADLINE_S:
                break
        while not args.trace and len(setups) < SETUP_PROBES:
            setups.append(_setup_time(env))
        failures = _check(args.workload, first, args.seed, env) + failures
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    plain = [r for r, traced in zip(rounds, traced_flags) if not traced]
    samples: dict[str, list[float]] = {}
    if args.trace:
        traced_rounds = [r for r, traced in zip(rounds, traced_flags) if traced]
        for name in traced_rounds[0]["layers"]:
            samples[name] = [r["layers"][name] for r in traced_rounds]
        samples["trace.overhead_s"] = [
            statistics.median(r["wall_s"] for r in traced_rounds)
            - statistics.median(r["wall_s"] for r in plain)
        ]
        units = layer_units
    else:
        for name in ("wall_s", "cpu_s", "peak_rss_mb"):
            samples[name] = [r[name] for r in plain]
        samples["setup_s"] = setups
        units = end_to_end_units
    if set(samples) != set(units):
        print(f"error: metrics {sorted(samples)} do not match BENCHMARK.json {sorted(units)}",
              file=sys.stderr)
        return 2
    metrics = {name: {"value": statistics.median(samples[name]), "unit": units[name]}
               for name in units}

    errors = [error for r in rounds for error in r["errors"]]
    for message in (errors + failures)[:50]:
        print(f"check: {message}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    record = {
        "machine": _machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": len(rounds),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failures": failures,
        "metrics": metrics,
        "samples": samples,
    }
    print("record: " + json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
