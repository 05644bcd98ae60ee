from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dss_alloc.analysis import (
    access_pmf,
    alpha_table,
    expected_metrics,
    feasible_alphas,
    maximal_spreading_rate,
    minimal_spreading_rate,
    optimal_alpha,
)
from dss_alloc.conditions import classify
from dss_alloc.errors import ConfigurationError, InfeasibleError
from dss_alloc.models import (
    ConstantTime,
    FixedSize,
    Probabilistic,
    ScaledExp,
    ShiftedExp,
    SmallExp,
    SystemConfig,
    conditional_rate,
    conditional_rate_bounds,
)


def exp_order_stat_mean(phi: int, alpha: int, mu: float) -> float:
    # alpha-th smallest of phi iid Exp(mu) draws
    return sum(1.0 / i for i in range(phi - alpha + 1, phi + 1)) / mu


# --- configuration and model validation -----------------------------------

def test_system_config_counts_data_nodes():
    assert SystemConfig(40, 2, 3).data_nodes == 6
    assert SystemConfig(6, 2, 3).data_nodes == 6


def test_system_config_rejects_overfull_allocations():
    with pytest.raises(InfeasibleError):
        SystemConfig(10, 4, 3)


@pytest.mark.parametrize("nodes,m,alpha", [(0, 1, 1), (4, 0, 1), (4, 1, 0), (-3, 2, 1)])
def test_system_config_rejects_nonpositive_parameters(nodes, m, alpha):
    with pytest.raises(ConfigurationError):
        SystemConfig(nodes, m, alpha)


# --- the allocation rules, one class and one message at every entry point ------
# A system (nodes, m, alpha, access) breaking one rule; the other values are valid.

BAD_SYSTEMS = {
    "no-nodes": ((0, 2, 1, 2), ConfigurationError,
                 "nodes and m must be positive, got nodes=0, m=2"),
    "negative-nodes": ((-1, 2, 1, 2), ConfigurationError,
                       "nodes and m must be positive, got nodes=-1, m=2"),
    "nodes-beyond-int64": ((2**63, 2, 1, 2), ConfigurationError,
                           f"nodes must be below 2^63, got nodes={2**63}"),
    "no-m": ((10, 0, 1, 2), ConfigurationError, "nodes and m must be positive, got nodes=10, m=0"),
    "negative-m": ((10, -1, 1, 2), ConfigurationError,
                   "nodes and m must be positive, got nodes=10, m=-1"),
    "m-over-nodes": ((10, 11, 1, 2), InfeasibleError, "no feasible alpha for nodes=10, m=11"),
    "overfull-alpha": ((10, 2, 6, 6), InfeasibleError,
                       "alpha=6 needs m*alpha=12 data nodes but the system has only 10"),
    "r-over-nodes": ((10, 2, 1, 11), ConfigurationError, "r=11 exceeds nodes=10"),
}

# entry point -> call(nodes, m, alpha, access); maximal spreading takes alpha = r
ENTRY_POINTS = {
    "SystemConfig": lambda n, m, alpha, access: SystemConfig(n, m, alpha),
    "feasible_alphas": lambda n, m, alpha, access: feasible_alphas(n, m, access),
    "expected_metrics": lambda n, m, alpha, access: expected_metrics(access, ScaledExp(1.0), n, m,
                                                                     [alpha]),
    "expected_metrics-empty": lambda n, m, alpha, access: expected_metrics(access, None, n, m, []),
    "alpha_table": lambda n, m, alpha, access: alpha_table(access, ScaledExp(1.0), n, m),
    "alpha_table-list": lambda n, m, alpha, access: alpha_table(access, ScaledExp(1.0), n, m,
                                                                [alpha]),
    "optimal_alpha": lambda n, m, alpha, access: optimal_alpha(access, ScaledExp(1.0), n, m),
    "minimal_spreading_rate": lambda n, m, alpha, access: minimal_spreading_rate(
        access, ScaledExp(1.0), n, m),
    "maximal_spreading_rate": lambda n, m, alpha, access: maximal_spreading_rate(
        access, ScaledExp(1.0), n, m),
    "access_pmf": lambda n, m, alpha, access: access_pmf(SystemConfig(n, m, alpha), access),
    "classify": lambda n, m, alpha, access: classify(access, ScaledExp(1.0), m, nodes=n),
}

# the rules an entry point can see: no alpha in, no alpha rule; no access in, no r rule
BLIND = {
    "overfull-alpha": {"feasible_alphas", "expected_metrics-empty", "alpha_table",
                       "optimal_alpha", "minimal_spreading_rate", "classify"},
    "r-over-nodes": {"SystemConfig"},
}


def bad_system_cases():
    for rule, ((nodes, m, alpha, r), error, message) in BAD_SYSTEMS.items():
        for entry in ENTRY_POINTS:
            if entry in BLIND.get(rule, ()):
                continue
            accesses = [FixedSize(r)]
            if rule != "r-over-nodes" and entry != "maximal_spreading_rate":  # fixed-size only
                accesses.append(Probabilistic(0.3))
            for access in accesses:
                yield pytest.param(entry, (nodes, m, alpha, access), error, message,
                                   id=f"{rule}-{entry}-{access.kind}")


@pytest.mark.parametrize("entry, system, error, message", bad_system_cases())
def test_every_entry_point_states_each_allocation_rule_alike(entry, system, error, message):
    with pytest.raises(error) as raised:
        ENTRY_POINTS[entry](*system)
    assert type(raised.value) is error and str(raised.value) == message


def test_access_models_validate():
    assert FixedSize(3).kind == "fixed-size"
    assert Probabilistic(0.3).kind == "probabilistic"
    with pytest.raises(ConfigurationError):
        FixedSize(0)
    with pytest.raises(ConfigurationError):
        Probabilistic(1.5)


def test_service_models_validate():
    with pytest.raises(ConfigurationError):
        SmallExp(0.0)
    with pytest.raises(ConfigurationError):
        ScaledExp(-1.0)
    with pytest.raises(ConfigurationError):
        ShiftedExp(-0.5, 1.0)
    ShiftedExp(0.0, 1.0)  # zero shift is a valid degenerate case
    with pytest.raises(ConfigurationError):
        ConstantTime(0.0)


@pytest.mark.parametrize(
    "build",
    [SmallExp, ScaledExp, ConstantTime, lambda v: ShiftedExp(v, 1.0),
     lambda v: ShiftedExp(1.0, v)],
)
@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_service_models_reject_non_finite_parameters(build, value):
    with pytest.raises(ConfigurationError):
        build(value)


# --- conditional service rates ---------------------------------------------

@pytest.mark.parametrize(
    "service,alpha,phi,want",
    [
        (SmallExp(1.0), 1, 1, 1.0),
        (SmallExp(1.0), 2, 2, 2 / 3),
        (ScaledExp(1.0), 2, 2, 4 / 3),
        (ShiftedExp(3.0, 1.0), 2, 2, 1 / 3),
        (ConstantTime(2.0), 4, 5, 2.0),
    ],
)
def test_conditional_rate_small_cases(service, alpha, phi, want):
    assert conditional_rate(service, alpha, phi) == pytest.approx(want, rel=1e-12)


def test_conditional_rate_is_zero_below_alpha():
    for service in (SmallExp(1.0), ScaledExp(2.0), ShiftedExp(1.0, 1.0), ConstantTime(1.0)):
        assert conditional_rate(service, 3, 2) == 0.0
        assert conditional_rate(service, 3, 0) == 0.0


@pytest.mark.parametrize("alpha,phi", [(1, 3), (2, 5), (4, 4), (3, 11)])
@pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
def test_exponential_rates_invert_order_statistic_means(alpha, phi, mu):
    gap = exp_order_stat_mean(phi, alpha, mu)
    assert conditional_rate(SmallExp(mu), alpha, phi) == pytest.approx(1.0 / gap, rel=1e-12)
    # scaling each server by alpha scales the completion time down by alpha
    assert conditional_rate(ScaledExp(mu), alpha, phi) == pytest.approx(alpha / gap, rel=1e-12)


@pytest.mark.parametrize("alpha,phi", [(1, 2), (2, 4), (3, 7)])
def test_shifted_rate_combines_shift_and_tail(alpha, phi):
    delta, mu = 2.0, 1.5
    mean_time = delta / alpha + exp_order_stat_mean(phi, alpha, mu)
    assert conditional_rate(ShiftedExp(delta, mu), alpha, phi) == pytest.approx(
        1.0 / mean_time, rel=1e-12
    )


def test_zero_shift_reduces_to_the_memoryless_model():
    # alpha*mu/(alpha*gap) vs mu/gap agree up to rounding of the cancelled factor
    for alpha in range(1, 5):
        for phi in range(alpha, 4 * alpha + 1):
            assert conditional_rate(ShiftedExp(0.0, 1.3), alpha, phi) == pytest.approx(
                conditional_rate(SmallExp(1.3), alpha, phi), rel=1e-15
            )


def test_rates_are_nondecreasing_in_phi():
    services = [SmallExp(1.0), ScaledExp(1.0), ShiftedExp(2.0, 1.0), ConstantTime(3.0)]
    for service in services:
        for alpha in range(1, 5):
            rates = [conditional_rate(service, alpha, phi) for phi in range(alpha, 4 * alpha + 1)]
            assert all(a <= b + 1e-15 for a, b in zip(rates, rates[1:]))


def test_conditional_rate_rejects_bad_arguments():
    with pytest.raises(ConfigurationError):
        conditional_rate(SmallExp(1.0), 0, 3)
    with pytest.raises(ConfigurationError):
        conditional_rate(SmallExp(1.0), 2, -1)


# --- bounds ----------------------------------------------------------------

@pytest.mark.parametrize(
    "service,alpha,phi,m,want",
    [
        (SmallExp(1.0), 2, 3, 2, (0.0, 3.0)),
        (ScaledExp(1.0), 2, 3, 2, (2.0, 3.0)),
        (ShiftedExp(3.0, 1.0), 2, 4, 2, (6 / 13, 0.8)),
        (ConstantTime(2.0), 4, 6, 3, (2.0, 2.0)),
    ],
)
def test_bound_small_cases(service, alpha, phi, m, want):
    low, high = conditional_rate_bounds(service, alpha, phi, m)
    assert low == pytest.approx(want[0], rel=1e-12)
    assert high == pytest.approx(want[1], rel=1e-12)


def test_bounds_sandwich_the_rate():
    rng = random.Random(7)
    services = [SmallExp(0.7), ScaledExp(1.2), ShiftedExp(1.5, 0.8), ConstantTime(2.5)]
    for _ in range(300):
        service = rng.choice(services)
        alpha = rng.randint(1, 8)
        m = rng.randint(1, 4)
        phi = rng.randint(alpha, m * alpha)
        rate = conditional_rate(service, alpha, phi)
        low, high = conditional_rate_bounds(service, alpha, phi, m)
        slack = 1e-9 * max(1.0, rate)
        assert low - slack <= rate <= high + slack


def test_bounds_reject_phi_outside_the_recovery_range():
    with pytest.raises(ConfigurationError):
        conditional_rate_bounds(SmallExp(1.0), 3, 2, 2)
    with pytest.raises(ConfigurationError):
        conditional_rate_bounds(SmallExp(1.0), 2, 5, 2)


# --- properties ------------------------------------------------------------------

@st.composite
def access_columns(draw):
    nodes = draw(st.integers(1, 40))
    if draw(st.booleans()):
        access = FixedSize(draw(st.integers(1, nodes)))
    else:
        access = Probabilistic(draw(st.floats(0.01, 0.99)))
    data = draw(st.lists(st.integers(1, nodes), min_size=1, max_size=8))
    return access, nodes, data


@settings(derandomize=True, max_examples=300, deadline=None)
@given(access_columns())
def test_every_pmf_column_sums_to_one(case):
    access, nodes, data = case
    for _, _, probs in access.rows(nodes, np.array(data)):
        assert np.all(probs >= 0)
        assert np.abs(probs.sum(axis=0) - 1.0).max() <= 1e-12


@st.composite
def rate_points(draw):
    mu = draw(st.floats(0.1, 5.0))
    service = draw(st.sampled_from([
        SmallExp(mu), ScaledExp(mu), ShiftedExp(draw(st.floats(0.0, 5.0)), mu),
        ConstantTime(draw(st.floats(0.1, 5.0)))]))
    m = draw(st.integers(1, 4))
    alpha = draw(st.integers(1, 40 // m))
    return service, alpha, draw(st.integers(alpha, m * alpha)), m


@settings(derandomize=True, max_examples=300, deadline=None)
@given(rate_points())
def test_conditional_rate_lies_within_its_bounds(point):
    service, alpha, phi, m = point
    rate = conditional_rate(service, alpha, phi)
    low, high = conditional_rate_bounds(service, alpha, phi, m)
    slack = 1e-12 * max(1.0, rate)
    assert low - slack <= rate <= high + slack
