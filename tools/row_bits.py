"""Print the float.hex of every row of the kernel's checked tables, one line each,
and the repr of every checked classify report.

    PYTHONPATH=src python tools/row_bits.py > change.txt
    PYTHONPATH=<other checkout>/src python tools/row_bits.py > parent.txt
    cmp <(grep -v '^memo ' parent.txt) <(grep -v '^memo ' change.txt)

Two versions of dss_alloc whose outputs agree bit for bit print the same
rows and reports, every line but the trailing memo ones. The tables: the
two search-scale searches (N = 1,000, m = 3) and two N = 10^4 searches, the
two search-scale searches again with numerics._CHUNK_CELLS = 1 (one column
per chunk), all rows of the ten presets, every alpha_table of acceptance
criterion 5's grid (twice, so the second pass reads whatever the first one
cached), and criterion 1's expected_metrics calls under all four service
models and without one. The reports: classify on criterion 5's grid (twice,
so the second pass reads the certificate memo) and on the seeded N = 1,000
certificate grid of tests/test_oracle.py, and two tables over the memo's
entry cap (N = 3·10^4, m = 2), which classify builds for the call alone.
The one-alpha calls: expected_metrics at N = 10^5, m = 3 for one alpha at
a time, under fixed r = 30,000 (mode about 0.9 alpha) and 90,000 (about
2.7 alpha) and p = 0.3 (2.1 alpha) and 0.7 (0.9 alpha), so below, at and
above the mode, with alpha = 30,001 above r, under all four service models
and without one; and at N = 10^6, m = 3, under fixed r = 300,000 at
alpha = 50 and 900,000 at alpha = 100,000 and p = 0.3 at alpha = 100,000,
whose anchors lie up to 300,000 data nodes from the empty column the
anchor walk starts at. The explicit alphas: expected_metrics at N = 40, m = 2
for alpha = 1..20 in one call, under fixed r = 5 and 10, so that the
support of most columns ends below their alpha, under all four service
models and without one. The tiny anchors: the TINY_ANCHORS systems, each
under scaled, shifted (3, 1) and no service, as one call over all its
alphas and as one call per alpha; their anchors at alpha run from normal
floats through the subnormals to 0.0, so the band meets masses far below
the float range and empty columns. The access pmfs: access_pmf of the
simulate benchmark's two systems and of N = 10^4, m = 3, alpha = 1,000
under both access models, each built from the default floor. The simulator runs: the repr of estimate_service_rate
and of its recovery_estimate for the simulate benchmark's two systems
under all four service models, at 200,000 trials with 1 and with 2
workers, and for one system (N = 10, p = 0.9) whose thin strata are
topped up. Last, the lines that start with "memo ": each memo's
state, its entry count, its byte total and the repr of every key, sorted.
They change whenever the size of a stored table does, even where every row
stays the same, so the comparison above leaves them out; tools/ulp_diff.py
compares them as a set and names the keys one output has and the other
lacks.
"""

from __future__ import annotations

import random
import sys

import dss_alloc as d
from dss_alloc import acceptance as A
from dss_alloc import analysis, conditions, numerics, simulator


# (access, nodes, m, alphas) whose anchors P(max(alpha, mode)) run from normal
# floats through the subnormals to 0.0, at alpha far above the mode
TINY_ANCHORS = [
    (d.Probabilistic(0.9), 4000, 3, range(1100, 1260)),
    (d.FixedSize(400), 4000, 3, range(300, 400)),
    (d.Probabilistic(0.95), 20000, 2, range(1500, 3000, 7)),
    (d.FixedSize(1200), 10000, 4, range(800, 1200, 3)),
]


def _hex(values) -> str:
    return " ".join(float(value).hex() for value in values)


def _rows(label: str, rows) -> None:
    for row in rows:
        print(label, row.alpha, _hex((row.service_rate, row.recovery_probability)))


def _search(label: str, nodes: int, access, service) -> None:
    result = d.optimal_alpha(access, service, nodes, 3)
    label = f"{label} {nodes} {access} {service}"
    print(label, result.alpha_star, _hex([result.value]))
    _rows(label, result.table)


def main() -> int:
    searches = [
        (1000, d.FixedSize(300), d.ScaledExp(1.0)),
        (1000, d.Probabilistic(0.3), d.ShiftedExp(3.0, 1.0)),
        (10000, d.FixedSize(3000), d.ScaledExp(1.0)),
        (10000, d.Probabilistic(0.3), d.ShiftedExp(3.0, 1.0)),
    ]
    for search in searches:
        _search("search", *search)
    cells = numerics._CHUNK_CELLS
    numerics._CHUNK_CELLS = 1  # one column per chunk, so each column takes the one-column path
    try:
        for search in searches[:2]:
            _search("search one-column", *search)
    finally:
        numerics._CHUNK_CELLS = cells
    for name in sorted(d.PRESETS):
        for m, parameter, row in d.preset_rows(name):
            _rows(f"preset {name} {m} {parameter}", [row])
    services = [d.ScaledExp(mu) for mu in A.MU_GRID]
    services += [d.ShiftedExp(delta, mu) for delta in (1.0, 3.0) for mu in A.MU_GRID]
    for rep in range(2):
        for nodes in A.NODES_GRID:
            for m in A.M_GRID:
                accesses = [d.FixedSize(r) for r in range(2, nodes + 1)]
                accesses += [d.Probabilistic(p) for p in A.P_GRID]
                for service in services:
                    for access in accesses:
                        label = f"grid {rep} {nodes} {m} {access} {service}"
                        _rows(label, d.alpha_table(access, service, nodes, m))
                        print(label, repr(d.classify(access, service, m, nodes=nodes)))
    for nodes in A.NODES_GRID:
        for m in A.M_GRID:
            for mu in A.MU_GRID:
                models = [d.SmallExp(mu), d.ScaledExp(mu), d.ConstantTime(mu),
                          d.ShiftedExp(mu, 1.0), None]
                cases = [(d.Probabilistic(p), (1,)) for p in A.P_GRID]
                cases += [(d.FixedSize(r), (1, r) if r * m <= nodes else (1,))
                          for r in range(2, nodes + 1)]
                for access, alphas in cases:
                    for service in models:
                        rates, recovery = d.expected_metrics(access, service, nodes, m, alphas)
                        print(f"criterion-1 {nodes} {m} {access} {service} {alphas}",
                              _hex([] if rates is None else rates), "|", _hex(recovery))
    rng = random.Random(20261018)  # the draws of tests/test_oracle.py's certificate_configs
    for service in (d.ScaledExp(1.0), d.ShiftedExp(3.0, 1.0)):
        for m in range(1, 5):
            for _ in range(4):
                r, p = rng.randint(2, 1000), rng.randint(1, 99) / 100
                for access in (d.FixedSize(r), d.Probabilistic(p)):
                    print(f"certificate 1000 {m} {access} {service}",
                          repr(d.classify(access, service, m, nodes=1000)))
    for access, service in ((d.FixedSize(15000), d.ScaledExp(1.0)),
                            (d.Probabilistic(0.3), d.ShiftedExp(3.0, 1.0))):
        print(f"over-cap 30000 2 {access} {service}",
              repr(d.classify(access, service, 2, nodes=30000)))
    for nodes, m, alpha, access in ((20, 2, 3, d.FixedSize(8)),
                                    (200, 2, 20, d.Probabilistic(0.3)),
                                    (10000, 3, 1000, d.FixedSize(3000)),
                                    (10000, 3, 1000, d.Probabilistic(0.3))):
        pmf = d.access_pmf(d.SystemConfig(nodes, m, alpha), access)
        print(f"access-pmf {nodes} {m} {alpha} {access}", pmf[0][0],
              _hex([q for _, q in pmf]))
    for access in (d.FixedSize(30000), d.FixedSize(90000),
                   d.Probabilistic(0.3), d.Probabilistic(0.7)):
        alphas = [1, 2, 3, 100, 1000, 10000, 25000, 33333]
        alphas += [30001] if access == d.FixedSize(30000) else []
        for alpha in alphas:
            for service in (d.SmallExp(1.0), d.ScaledExp(1.0), d.ShiftedExp(3.0, 1.0),
                            d.ConstantTime(1.0), None):
                rates, recovery = d.expected_metrics(access, service, 100000, 3, [alpha])
                print(f"one-alpha 100000 3 {access} {service} {alpha}",
                      _hex([] if rates is None else rates), "|", _hex(recovery))
    for access, alpha in ((d.FixedSize(300000), 50), (d.FixedSize(900000), 100000),
                          (d.Probabilistic(0.3), 100000)):
        for service in (d.SmallExp(1.0), d.ScaledExp(1.0), d.ShiftedExp(3.0, 1.0),
                        d.ConstantTime(1.0), None):
            rates, recovery = d.expected_metrics(access, service, 1000000, 3, [alpha])
            print(f"one-alpha 1000000 3 {access} {service} {alpha}",
                  _hex([] if rates is None else rates), "|", _hex(recovery))
    for access in (d.FixedSize(5), d.FixedSize(10)):
        for service in (d.SmallExp(1.0), d.ScaledExp(1.0), d.ShiftedExp(3.0, 1.0),
                        d.ConstantTime(1.0), None):
            rates, recovery = d.expected_metrics(access, service, 40, 2, list(range(1, 21)))
            print(f"explicit 40 2 {access} {service}",
                  _hex([] if rates is None else rates), "|", _hex(recovery))
    for access, nodes, m, alphas in TINY_ANCHORS:
        for service in (d.ScaledExp(1.0), d.ShiftedExp(3.0, 1.0), None):
            label = f"tiny-anchor {nodes} {m} {access} {service}"
            rates, recovery = d.expected_metrics(access, service, nodes, m, alphas)
            for i, alpha in enumerate(alphas):
                print(f"{label} call {alpha}",
                      _hex([] if rates is None else rates[i:i + 1]), "|", _hex(recovery[i:i + 1]))
            for alpha in alphas:
                rates, recovery = d.expected_metrics(access, service, nodes, m, [alpha])
                print(f"{label} one-alpha {alpha}",
                      _hex([] if rates is None else rates), "|", _hex(recovery))
    services = (d.SmallExp(1.0), d.ScaledExp(1.0), d.ShiftedExp(2.0, 1.0), d.ConstantTime(2.0))
    cases = [(config, access, service, d.SimConfig(200_000, seed=7, workers=workers))
             for config, access in ((d.SystemConfig(20, 2, 3), d.FixedSize(8)),
                                    (d.SystemConfig(200, 2, 20), d.Probabilistic(0.3)))
             for service in services for workers in (1, 2)]
    cases.append((d.SystemConfig(10, 2, 2), d.Probabilistic(0.9), d.ScaledExp(1.0),
                  d.SimConfig(50_000, seed=6, workers=1)))
    for config, access, service, sim in cases:
        est = d.estimate_service_rate(config, access, service, sim)
        recovery = simulator.recovery_estimate(est.per_phi_counts, config.alpha, sim.trials)
        label = f"simulate {config} {access} {service} {sim}"
        print(label, repr(est))
        print(label, repr(recovery))
    for name, lru in (("analysis", analysis._MEMO), ("conditions", conditions._MEMO)):
        print(f"memo {name}", len(lru._entries), lru.nbytes)
        for key in sorted(map(repr, lru._entries)):
            print(f"memo {name} key", key)
    return 0


if __name__ == "__main__":
    sys.exit(main())
