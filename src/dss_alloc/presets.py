"""Named parameter presets reproducing the reference figure sweeps.

Each preset fixes the node count and service model and lists the (m, r) or
(m, p) cases of one figure; preset_rows evaluates each case with one
alpha_table call, and the cases' rows together are the figure's data table.
The alpha grid mirrors each figure's x-axis where that matters: the small-file
r-panel caps alpha at 12 (its widest case r=14 admits alpha = 13, which lies
outside the plotted range and would shift the recovery-probability argmax),
and the probabilistic figures plot alpha in [1, 10].
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import SweepRow, alpha_table
from .errors import ConfigurationError
from .models import FixedSize, Probabilistic, ScaledExp, ServiceModel, ShiftedExp, SmallExp

__all__ = ["PRESETS", "Preset", "preset_rows"]


@dataclass(frozen=True)
class Preset:
    """One figure's parameter block: cases share nodes, service, and alpha grid."""

    name: str
    nodes: int
    access_kind: str  # "fixed-size" or "probabilistic"
    service: ServiceModel
    cases: tuple[tuple[int, int | float], ...]  # (m, r) or (m, p) pairs
    alphas: tuple[int, ...] | None  # None means the full feasible range


def _fixed(name, service, cases, alphas):
    return Preset(name, 40, "fixed-size", service, tuple(cases), alphas)


def _prob(name, service, cases):
    return Preset(name, 40, "probabilistic", service, tuple(cases), tuple(range(1, 11)))


PRESETS: dict[str, Preset] = {
    p.name: p
    for p in (
        _fixed(
            "fig2",
            SmallExp(1.0),
            [(1, 10), (2, 10), (3, 10), (4, 10)],
            tuple(range(1, 11)),
        ),
        _fixed(
            "fig3",
            SmallExp(1.0),
            [(3, 10), (3, 11), (3, 12), (3, 13), (3, 14)],
            tuple(range(1, 13)),
        ),
        _fixed(
            "fig4",
            ScaledExp(1.0),
            [(1, 10), (2, 10), (3, 10), (4, 10), (3, 8), (3, 12), (3, 13)],
            None,
        ),
        _fixed(
            "fig5",
            ScaledExp(1.0),
            [(3, 8), (3, 10), (4, 8), (4, 10)],
            None,
        ),
        _prob(
            "fig6",
            ScaledExp(1.0),
            [(1, 0.3), (2, 0.3), (3, 0.3), (4, 0.3), (2, 0.5), (2, 0.55), (2, 0.65), (2, 0.7)],
        ),
        _prob(
            "fig7",
            ScaledExp(1.0),
            [(2, 0.45), (2, 0.7), (3, 0.45), (3, 0.7)],
        ),
        _fixed(
            "fig8",
            ShiftedExp(3.0, 1.0),
            [(1, 10), (2, 10), (3, 10), (4, 10), (2, 13), (2, 17), (2, 20)],
            None,
        ),
        _fixed(
            "fig9",
            ShiftedExp(3.0, 1.0),
            [(3, 8), (3, 10), (4, 8), (4, 10)],
            None,
        ),
        _prob(
            "fig10",
            ShiftedExp(3.0, 1.0),
            [(1, 0.3), (2, 0.3), (3, 0.3), (4, 0.3), (2, 0.4), (2, 0.5), (2, 0.6), (2, 0.7)],
        ),
        _prob(
            "fig11",
            ShiftedExp(3.0, 1.0),
            [(2, 0.45), (2, 0.7), (3, 0.45), (3, 0.7)],
        ),
    )
}


def preset_rows(name: str) -> list[tuple[int, int | float, SweepRow]]:
    """Return the preset's full table as (m, r-or-p, row) triples."""
    try:
        preset = PRESETS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None
    out = []
    for m, parameter in preset.cases:
        if preset.access_kind == "fixed-size":
            access = FixedSize(int(parameter))
        else:
            access = Probabilistic(float(parameter))
        for row in alpha_table(access, preset.service, preset.nodes, m, preset.alphas):
            out.append((m, parameter, row))
    return out
