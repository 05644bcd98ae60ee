"""Paired benchmark rounds of two checkouts, and the BENCH file they leave.

    python tools/bench.py pair A B [--pairs 10] [--seed 1]

A and B are checkout roots, each with src/dss_alloc and perfbench/ (for
example the parent and the change, made by `git archive` into two sibling
directories). For each perfbench workload, every pair runs one round of
A/perfbench/worker.py and one of B/perfbench/worker.py, each in a fresh
interpreter, and alternates which side goes first; before each round, the
side's `import dss_alloc` is timed as perfbench/run.py's set-up probe times
it. So both sides meet the machine in the same states, which a block of
rounds per side does not. Each child gets PYTHONPATH=<checkout>/src,
PYTHONDONTWRITEBYTECODE=1 (no run leaves bytecode for a later one to read)
and OPENBLAS_NUM_THREADS=1 (no BLAS pool thread spins into cpu_s).

The tool refuses checkouts that hold a __pycache__ directory, whose import
time would then depend on what an earlier run compiled, and checkouts whose
absolute paths differ in length, which moves a round's peak RSS by itself.
Both sides must give equal outputs, round by round, and fail no operation.

It writes BENCH_pair_<commit>.json into the current directory, <commit>
being B's git commit or, outside git, B's directory name. The file names
the machine (CPU count and model, Python, NumPy) and holds, per workload
and end-to-end metric, every sample of both sides, each side's median and
quartiles (statistics.quantiles, n=4), the change of B's median against
A's as a share of A's, the metric's bound from BENCHMARK.json, and the
pairs each side won. It reads perfbench/ and
BENCHMARK.json and changes nothing in either checkout. Exit status: 0 when
every pair ran with equal outputs and no failed operation, 1 otherwise, 2
when a checkout is refused.
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

WORKLOADS = ("search-scale", "paper-figures", "simulate")
METRICS = ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")
TIMEOUT_S = 300


class Refused(Exception):
    """A checkout cannot be benchmarked as it is."""


def _checkout(path: str) -> Path:
    root = Path(path).resolve()
    if not (root / "src" / "dss_alloc" / "__init__.py").is_file():
        raise Refused(f"{root}: no src/dss_alloc package")
    if not (root / "perfbench" / "worker.py").is_file():
        raise Refused(f"{root}: no perfbench/worker.py")
    cached = next(root.rglob("__pycache__"), None)
    if cached is not None:
        raise Refused(f"{root}: holds compiled bytecode at {cached}")
    return root


def _env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("DSS_ALLOC_THREADS", None)  # simulate runs at the library's default worker count
    env.update(PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1")
    return env


def _setup_s(root: Path) -> float:
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", "import dss_alloc, time; print(repr(time.monotonic()))"],
        env=_env(root), capture_output=True, text=True, timeout=TIMEOUT_S, check=True)
    return float(proc.stdout) - start


def _round(root: Path, workload: str, seed: int) -> dict:
    """Time the set-up probe, then run one round of the workload; return its record."""
    setup = _setup_s(root)
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "worker.py"), workload, str(seed), "0"],
        env=_env(root), capture_output=True, text=True, timeout=TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{root} {workload}: exit {proc.returncode}: {proc.stderr[-2000:]}")
    return {**json.loads(proc.stdout.splitlines()[-1]), "setup_s": setup}


def _git_commit(root: Path) -> str:
    proc = subprocess.run(["git", "-C", str(root), "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else root.name


def _machine() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpu_count": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": metadata.version("numpy")}


def _summary(samples: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return {"median": statistics.median(samples), "q1": q1, "q3": q3}


def pair(a: Path, b: Path, pairs: int, seed: int) -> tuple[dict, bool]:
    """Run the pairs of every workload; return the BENCH record and whether all were sound."""
    bounds = {m["name"]: m["bound"] for m in json.loads(
        (a / "BENCHMARK.json").read_text())["end_to_end"]}
    record = {"machine": _machine(), "a": a.name, "b": b.name, "seed": seed, "pairs": pairs,
              "workloads": {}}
    sound = True
    for workload in WORKLOADS:
        samples = {"a": {name: [] for name in METRICS}, "b": {name: [] for name in METRICS}}
        problems = []
        for i in range(pairs):
            order = ("a", "b") if i % 2 == 0 else ("b", "a")
            results = {side: _round(a if side == "a" else b, workload, seed) for side in order}
            for side, result in results.items():
                for name in METRICS:
                    samples[side][name].append(result[name])
                if result["failed"]:
                    problems.append(f"pair {i + 1} side {side}: {result['errors'][:3]}")
            if results["a"]["outputs"] != results["b"]["outputs"]:
                problems.append(f"pair {i + 1}: the two sides' outputs differ")
            print(f"{workload} pair {i + 1}/{pairs} ({order[0]} first): " + " ".join(
                f"{name} {results['a'][name]:.4g}/{results['b'][name]:.4g}" for name in METRICS),
                file=sys.stderr, flush=True)
        metrics = {}
        for name in METRICS:
            sa, sb = samples["a"][name], samples["b"][name]
            ma, mb = statistics.median(sa), statistics.median(sb)
            metrics[name] = {
                "a": {"samples": sa, **_summary(sa)}, "b": {"samples": sb, **_summary(sb)},
                "change": (mb - ma) / ma if ma else 0.0, "bound": bounds.get(name),
                "pairs_won": {"a": sum(x < y for x, y in zip(sa, sb)),
                              "b": sum(y < x for x, y in zip(sa, sb))},
            }
        record["workloads"][workload] = {"metrics": metrics, "problems": problems}
        sound &= not problems
    return record, sound


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    p = commands.add_parser("pair", help="interleaved single rounds of two checkouts")
    p.add_argument("a", help="the first checkout, for example the parent")
    p.add_argument("b", help="the second checkout, for example the change")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    try:
        a, b = _checkout(args.a), _checkout(args.b)
        if len(str(a)) != len(str(b)):
            raise Refused(f"checkout paths differ in length: {a} and {b}")
    except Refused as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        record, sound = pair(a, b, args.pairs, args.seed)
    except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    path = Path(f"BENCH_pair_{_git_commit(b)}.json")
    path.write_text(json.dumps(record, indent=1) + "\n")
    for workload, entry in record["workloads"].items():
        for name, m in entry["metrics"].items():
            print(f"{workload:14} {name:12} a {m['a']['median']:.5g} "
                  f"[{m['a']['q1']:.5g}, {m['a']['q3']:.5g}]  b {m['b']['median']:.5g} "
                  f"[{m['b']['q1']:.5g}, {m['b']['q3']:.5g}]  change {m['change']:+.2%}  "
                  f"won a {m['pairs_won']['a']} b {m['pairs_won']['b']}")
        for problem in entry["problems"]:
            print(f"{workload}: {problem}")
    print(f"wrote {path}")
    return 0 if sound else 1


if __name__ == "__main__":
    sys.exit(main())
