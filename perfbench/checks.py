"""Checks of a workload's outputs against the reference and required properties.

Each check_* function takes the outputs of one round (as the worker printed
them) and the workload seed, and returns a list of failures; an empty list
means every output is right. Outputs of failed operations are None; those
operations are counted as failed by the worker and skipped here. Nothing is
compared with a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random

import reference as R
import workloads as W

REL_TOL = 1e-9
# simulated estimates must lie within this many standard errors of the reference
SIM_BAND_SE = 5.0


def _close(got: float, want: float, rel: float = REL_TOL) -> bool:
    return abs(got - want) <= rel * max(abs(got), abs(want))


def _feasible(nodes: int, m: int, access: tuple) -> list[int]:
    upper = nodes // m
    if access[0] == "fixed":
        upper = min(upper, access[1])
    return list(range(1, upper + 1))


def _soundness(verdict: str, rates: list[float], label: str) -> list[str]:
    """An optimal verdict is never beaten; a non-optimal one is beaten by some alpha."""
    rate_1 = rates[0]
    slack = 1e-9 * max(1.0, rate_1)
    if verdict == "optimal" and any(rate > rate_1 + slack for rate in rates[1:]):
        return [f"{label}: verdict optimal but alpha=1 is beaten"]
    if verdict == "non-optimal" and all(rate < rate_1 - slack for rate in rates[1:]):
        return [f"{label}: verdict non-optimal but alpha=1 wins"]
    return []


def _compare_rows(rows, nodes, m, access, service, label) -> list[str]:
    """Compare (alpha, rate, recovery) rows with the reference, row by row."""
    bad = []
    for alpha, rate, recovery in rows:
        ref_rate, ref_recovery = R.metrics(nodes, m, alpha, access, service)
        if not _close(rate, ref_rate) or not _close(recovery, ref_recovery):
            bad.append(f"{label} alpha={alpha}: ({rate!r}, {recovery!r}) != "
                       f"reference ({ref_rate!r}, {ref_recovery!r})")
    return bad


def check_search_scale(outputs: dict, seed: int) -> list[str]:
    bad: list[str] = []
    rng = random.Random(seed)
    nodes, m = W.SEARCH_NODES, W.SEARCH_M
    for search in outputs["searches"]:
        if search is None:
            continue
        access, service = tuple(search["access"]), tuple(search["service"])
        label = f"search N={nodes} m={m} {access} {service}"
        table = search["table"]
        alphas = [row[0] for row in table]
        if alphas != _feasible(nodes, m, access):
            bad.append(f"{label}: alpha range {alphas[:1]}..{alphas[-1:]} is not the feasible range")
            continue
        rates = [row[1] for row in table]
        best = max(rates)
        star = rates.index(best) + 1
        if search["alpha_star"] != star or search["value"] != best:
            bad.append(f"{label}: alpha*={search['alpha_star']} value={search['value']!r} "
                       f"is not the smallest argmax {star} of the table ({best!r})")
        if access[0] == "fixed" and service[0] in ("small", "scaled"):
            closed = float(R.minimal_spreading_rate(access, service, nodes, m))
            if not _close(rates[0], closed):
                bad.append(f"{label}: alpha=1 rate {rates[0]!r} != mu*m*r/N = {closed!r}")
        top = alphas[-1]
        sample = {a for a in (1, 2, star - 1, star, star + 1, top) if 1 <= a <= top}
        sample |= set(rng.sample(range(1, top + 1), W.SEARCH_SEEDED_ALPHAS))
        reference = {}
        for alpha in sorted(sample):
            reference[alpha] = R.metrics(nodes, m, alpha, access, service)
            ref_rate = reference[alpha][0]
            if not _close(rates[alpha - 1], ref_rate):
                bad.append(f"{label} alpha={alpha}: rate {rates[alpha - 1]!r} != "
                           f"reference {ref_rate!r}")
        for neighbour in (star - 1, star + 1):
            if neighbour in reference and reference[neighbour][0] > reference[star][0]:
                bad.append(f"{label}: reference rate at alpha={neighbour} beats alpha*={star}")
        for alpha, _, recovery in table:
            want = R.recovery_probability(nodes, m, alpha, access)
            if not _close(recovery, want):
                bad.append(f"{label} alpha={alpha}: recovery {recovery!r} != reference {want!r}")
    return bad


def _parse_preset(texts: dict) -> dict:
    """Return {format: (header, rows of floats)} for the three output formats."""
    parsed = {}
    reader = list(csv.reader(io.StringIO(texts["csv"])))
    parsed["csv"] = (reader[0], [[float(cell) for cell in row] for row in reader[1:]])
    lines = texts["table"].splitlines()
    parsed["table"] = (lines[0].split(), [[float(cell) for cell in line.split()]
                                          for line in lines[1:]])
    records = json.loads(texts["json"])
    header = list(records[0]) if records else []
    parsed["json"] = (header, [[float(record[key]) for key in header] for record in records])
    return parsed


def _preset_expected(definition: dict) -> tuple[list[str], list[tuple]]:
    """Header and (m, r-or-p, alpha) keys implied by a preset definition."""
    nodes = definition["nodes"]
    fixed = definition["access_kind"] == "fixed-size"
    keys = []
    for m, parameter in definition["cases"]:
        access = ("fixed", int(parameter)) if fixed else ("prob", float(parameter))
        grid = definition["alphas"] or _feasible(nodes, m, access)
        keys += [(m, parameter, alpha) for alpha in grid if m * alpha <= nodes]
    header = ["m", "r" if fixed else "p", "alpha", "service_rate", "recovery_prob"]
    return header, keys


def _check_presets(presets: list, definitions: dict) -> list[str]:
    bad: list[str] = []
    for preset in presets:
        name, texts = preset["name"], preset["texts"]
        if any(text is None for text in texts.values()):
            continue
        definition = definitions[name]
        header, keys = _preset_expected(definition)
        parsed = _parse_preset(texts)
        for fmt, (got_header, rows) in parsed.items():
            if got_header != header:
                bad.append(f"{name} {fmt}: header {got_header} != {header}")
            if len(rows) != len(keys):
                bad.append(f"{name} {fmt}: {len(rows)} rows, definition gives {len(keys)}")
            elif [tuple(row[:3]) for row in rows] != [tuple(map(float, key)) for key in keys]:
                bad.append(f"{name} {fmt}: row keys differ from the definition")
        if parsed["csv"][1] != parsed["json"][1] or parsed["csv"][1] != parsed["table"][1]:
            bad.append(f"{name}: table, json and csv carry different numbers")
        if len(parsed["csv"][1]) != len(keys):
            continue
        fixed = definition["access_kind"] == "fixed-size"
        service = tuple(definition["service"])
        for (m, parameter, alpha), row in zip(keys, parsed["csv"][1]):
            access = ("fixed", int(parameter)) if fixed else ("prob", float(parameter))
            bad += _compare_rows([(alpha, row[3], row[4])], definition["nodes"], m, access,
                                 service, f"{name} m={m} {access}")
    return bad


def _anchor_texts(outputs: dict) -> dict:
    """CLI outputs that carry the paper's anchors, keyed as the reference keys them."""
    texts = {}
    figures = outputs["figures"] + [dict(entry, m=2) for entry in outputs["anchors"]]
    for entry in figures:
        m, access, service = entry["m"], tuple(entry["access"]), tuple(entry["service"])
        if service not in W.FIGURE_SERVICES:
            continue
        if m == 2 and access in (("fixed", 20), ("prob", 0.5)):
            for certificate in ("optimality", "nonoptimality"):
                texts[(access[0], service[0], certificate)] = entry["conditions"]
        if access == ("fixed", 10) and service[0] == "scaled":
            texts[("alpha_star", m)] = entry.get("optimal")
    return texts


def _check_anchors(outputs: dict) -> list[str]:
    bad = []
    texts = _anchor_texts(outputs)
    wanted = [(key, float(value)) for key, value in R.THRESHOLD_ANCHORS.items()]
    wanted += [(("alpha_star", m), star) for m, star in R.ALPHA_STAR_SCALED_R10.items()]
    for key, want in wanted:
        if key not in texts:
            bad.append(f"anchor {key}: no operation produces it")
            continue
        if texts[key] is None:
            continue  # the operation failed and is counted as failed
        result = json.loads(texts[key])
        got = result["alpha_star"] if key[0] == "alpha_star" else result[f"{key[2]}_threshold"]
        if not _close(got, want):
            bad.append(f"anchor {key}: {got!r} != {want!r}")
    return bad


def check_paper_figures(outputs: dict, seed: int, definitions: dict) -> list[str]:
    bad = _check_presets(outputs["presets"], definitions) + _check_anchors(outputs)
    nodes = W.FIGURE_NODES
    for figure in outputs["figures"]:
        m, access, service = figure["m"], tuple(figure["access"]), tuple(figure["service"])
        label = f"N={nodes} m={m} {access} {service}"
        ref_rates = [float(R.exact_metrics(nodes, m, alpha, access, service)[0])
                     for alpha in _feasible(nodes, m, access)]
        if figure["optimal"] is not None:
            result = json.loads(figure["optimal"])
            rows = [(row["alpha"], row["service_rate"], row["recovery_prob"])
                    for row in result["table"]]
            if [row[0] for row in rows] != _feasible(nodes, m, access):
                bad.append(f"optimal {label}: alpha range differs from the feasible range")
                continue
            bad += _compare_rows(rows, nodes, m, access, service, f"optimal {label}")
            star, value = result["alpha_star"], result["value"]
            if ref_rates[star - 1] < max(ref_rates) * (1 - REL_TOL):
                bad.append(f"optimal {label}: alpha*={star} is not a reference argmax")
            if value != rows[star - 1][1] or any(row[1] >= value for row in rows[:star - 1]):
                bad.append(f"optimal {label}: alpha*={star} is not the table's smallest argmax")
        if figure["conditions"] is not None:
            verdict = json.loads(figure["conditions"])["verdict"]
            bad += _soundness(verdict, ref_rates, f"conditions {label}")

    configs = W.grid_configs()
    for (nodes, m, access, service), (verdict, rows) in zip(configs, outputs["grid"]):
        if verdict is None or rows is None:
            continue
        label = f"grid N={nodes} m={m} {access} {service}"
        if [row[0] for row in rows] != _feasible(nodes, m, access):
            bad.append(f"{label}: alpha range differs from the feasible range")
            continue
        bad += _soundness(verdict, [row[1] for row in rows], label)
    rng = random.Random(seed)
    for index in rng.sample(range(len(configs)), W.GRID_SEEDED_CHECKS):
        nodes, m, access, service = configs[index]
        verdict, rows = outputs["grid"][index]
        if verdict is None or rows is None:
            continue
        label = f"grid N={nodes} m={m} {access} {service}"
        bad += _compare_rows(rows, nodes, m, access, service, label)
        ref_rates = [R.metrics(nodes, m, alpha, access, service)[0] for alpha, _, _ in rows]
        bad += _soundness(verdict, ref_rates, f"{label} (reference rates)")
    return bad


def check_simulate(outputs: dict, seed: int) -> list[str]:
    bad: list[str] = []
    for (nodes, m, alpha, access, service), text in zip(W.SIM_CASES, outputs["texts"]):
        if text is None:
            continue
        label = f"simulate N={nodes} m={m} alpha={alpha} {access} {service}"
        result = json.loads(text)
        if result["trials"] != W.SIM_TRIALS or result["seed"] != seed:
            bad.append(f"{label}: trials/seed echoed as {result['trials']}/{result['seed']}")
        if sum(result["per_phi_counts"].values()) != W.SIM_TRIALS:
            bad.append(f"{label}: per_phi_counts sum to {sum(result['per_phi_counts'].values())}")
        ref_rate, ref_recovery = R.metrics(nodes, m, alpha, access, service)
        for key, want in (("service_rate_analytic", ref_rate), ("recovery_analytic", ref_recovery)):
            if not _close(result[key], want):
                bad.append(f"{label}: {key} {result[key]!r} != reference {want!r}")
        rate_band = SIM_BAND_SE * result["service_rate_std_error"]
        if not abs(result["service_rate_estimate"] - ref_rate) <= rate_band:
            bad.append(f"{label}: rate estimate {result['service_rate_estimate']!r} is more than "
                       f"{SIM_BAND_SE} s.e. from {ref_rate!r}")
        recovery_band = SIM_BAND_SE * math.sqrt(ref_recovery * (1 - ref_recovery) / W.SIM_TRIALS)
        if not abs(result["recovery_estimate"] - ref_recovery) <= recovery_band:
            bad.append(f"{label}: recovery estimate {result['recovery_estimate']!r} is more than "
                       f"{SIM_BAND_SE} s.e. from {ref_recovery!r}")
    return bad
