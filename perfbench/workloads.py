"""The benchmark's workloads as plain data.

The worker runs these operations; the checks verify their outputs. Access
models are written ("fixed", r) or ("prob", p); service models ("small", mu),
("scaled", mu), ("shifted", delta, mu) or ("constant", delta). Nothing here
imports dss_alloc.
"""

from __future__ import annotations

WORKLOADS = ("search-scale", "paper-figures", "simulate")

# search-scale: exact optimal-alpha searches at N=1000, m=3. The size stops at
# N=1000 because one search at N=3000 takes about 42 s.
SEARCH_NODES = 1000
SEARCH_M = 3
SEARCHES = (
    (("fixed", 300), ("scaled", 1.0)),
    (("prob", 0.3), ("shifted", 3.0, 1.0)),
)
# extra alphas, drawn from the seed, checked against the reference per search
SEARCH_SEEDED_ALPHAS = 4

# paper-figures: N <= 40 traffic through cli.main and the public API.
PRESET_NAMES = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11")
FORMATS = ("table", "json", "csv")
FIGURE_NODES = 40
FIGURE_SERVICES = (("scaled", 1.0), ("shifted", 3.0, 1.0))
FIGURE_M = (1, 2, 3, 4)
FIGURE_R = (8, 10, 12, 13, 14, 20)
# probabilistic certificates at N=40, m=2 that carry the paper's p anchors
ANCHOR_PROB_CASES = ((("prob", 0.5), ("scaled", 1.0)), (("prob", 0.5), ("shifted", 3.0, 1.0)))

# the certificate-soundness grid: every r and p for each (N, m, service)
GRID_NODES = (10, 20, 40)
GRID_M = (1, 2, 3, 4)
GRID_MU = (0.5, 1.0, 2.0)
GRID_SERVICES = tuple(("scaled", mu) for mu in GRID_MU) + tuple(
    ("shifted", delta, mu) for delta in (1.0, 3.0) for mu in GRID_MU
)
GRID_P = tuple(round(0.05 * k, 2) for k in range(1, 20))
# grid configurations, drawn from the seed, whose whole alpha table is checked
# against the exact reference
GRID_SEEDED_CHECKS = 24

# simulate: CLI simulate at the default worker count
SIM_TRIALS = 4_000_000
SIM_CASES = (
    # the README example
    (20, 2, 3, ("fixed", 8), ("scaled", 1.0)),
    # wide strata: the alpha-th order statistic of up to 40 draws, with top-ups
    (200, 2, 20, ("prob", 0.3), ("shifted", 2.0, 1.0)),
)


def grid_configs() -> list[tuple[int, int, tuple, tuple]]:
    """Return the (nodes, m, access, service) configurations of the grid."""
    out = []
    for nodes in GRID_NODES:
        for m in GRID_M:
            for service in GRID_SERVICES:
                for r in range(2, nodes + 1):
                    out.append((nodes, m, ("fixed", r), service))
                for p in GRID_P:
                    out.append((nodes, m, ("prob", p), service))
    return out


def figure_configs() -> list[tuple[int, tuple, tuple]]:
    """Return the (m, access, service) cases of the optimal/conditions calls."""
    return [(m, ("fixed", r), service)
            for m in FIGURE_M for r in FIGURE_R for service in FIGURE_SERVICES]


def cli_model_args(access: tuple, service: tuple) -> list[str]:
    """Return the CLI flags for an access and a service model."""
    if access[0] == "fixed":
        args = ["--access", "fixed", "--r", str(access[1])]
    else:
        args = ["--access", "probabilistic", "--p", repr(access[1])]
    kind = service[0]
    if kind in ("small", "scaled"):
        return args + ["--service", kind, "--mu", repr(service[1])]
    if kind == "shifted":
        return args + ["--service", kind, "--delta", repr(service[1]), "--mu", repr(service[2])]
    return args + ["--service", kind, "--delta", repr(service[1])]
