from __future__ import annotations

import itertools
import math
import random
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from dss_alloc import acceptance, analysis, numerics
from dss_alloc.analysis import (
    access_pmf,
    alpha_table,
    expected_metrics,
    feasible_alphas,
    maximal_spreading_rate,
    minimal_spreading_rate,
    optimal_alpha,
    recovery_probability,
    service_rate,
)
from dss_alloc.errors import ConfigurationError, InfeasibleError, NoClosedFormError
from dss_alloc.memo import ByteLRU
from dss_alloc.models import (
    ConstantTime,
    FixedSize,
    Probabilistic,
    ScaledExp,
    ShiftedExp,
    SmallExp,
    SystemConfig,
    conditional_rate,
)
from dss_alloc.numerics import harmonic
from dss_alloc.presets import PRESETS, preset_rows
from test_numerics import GRID


def enumerate_fixed_access(config: SystemConfig, r: int):
    # every r-subset of the node labels; the first data_nodes labels hold data
    for subset in itertools.combinations(range(config.nodes), r):
        yield sum(1 for node in subset if node < config.data_nodes)


# --- access pmf and recovery probability -----------------------------------

def test_access_pmf_matches_subset_enumeration():
    config = SystemConfig(6, 2, 2)
    counts = {}
    total = 0
    for phi in enumerate_fixed_access(config, 3):
        counts[phi] = counts.get(phi, 0) + 1
        total += 1
    for phi, prob in access_pmf(config, FixedSize(3)):
        assert prob == pytest.approx(counts.get(phi, 0) / total, rel=1e-12)


def test_access_pmf_sums_to_one():
    for config, access in [
        (SystemConfig(40, 2, 3), FixedSize(10)),
        (SystemConfig(40, 2, 3), Probabilistic(0.35)),
        (SystemConfig(10, 1, 10), FixedSize(2)),
    ]:
        assert sum(prob for _, prob in access_pmf(config, access)) == pytest.approx(1.0, abs=1e-12)


def test_access_pmf_rejects_oversized_requests():
    with pytest.raises(ConfigurationError):
        access_pmf(SystemConfig(6, 2, 2), FixedSize(7))


def test_recovery_probability_by_enumeration():
    # 16 of the 20 3-subsets of 6 nodes meet >= 2 of the 4 data nodes
    config = SystemConfig(6, 2, 2)
    hits = sum(1 for phi in enumerate_fixed_access(config, 3) if phi >= config.alpha)
    assert hits == 16
    assert recovery_probability(config, FixedSize(3)) == pytest.approx(0.8, rel=1e-12)


def test_recovery_probability_certain_when_every_node_holds_data():
    assert recovery_probability(SystemConfig(40, 4, 10), FixedSize(10)) == 1.0


def test_recovery_probability_probabilistic_oracle():
    # P(Bin(2, 0.8) >= 1) = 1 - 0.2^2
    config = SystemConfig(10, 2, 1)
    assert recovery_probability(config, Probabilistic(0.2)) == pytest.approx(0.96, rel=1e-12)


def test_recovery_probability_zero_when_alpha_exceeds_r():
    assert recovery_probability(SystemConfig(40, 2, 12), FixedSize(10)) == 0.0


# --- service rate -----------------------------------------------------------

def test_service_rate_single_data_node():
    # P(reach the only data node) = 1/4, conditional rate mu/H_1 = 1
    config = SystemConfig(4, 1, 1)
    assert service_rate(config, FixedSize(1), SmallExp(1.0)) == pytest.approx(0.25, rel=1e-12)


def test_service_rate_matches_manual_expectation():
    config = SystemConfig(6, 2, 2)
    access = FixedSize(3)
    service = ScaledExp(1.0)
    pmf = dict(access_pmf(config, access))
    want = sum(
        pmf[phi] * conditional_rate(service, 2, phi) for phi in pmf if phi >= 2
    )
    assert service_rate(config, access, service) == pytest.approx(want, rel=1e-15)
    # and the phi >= alpha terms are the only contributors
    assert service_rate(config, access, service) == pytest.approx(
        pmf[2] * (2 / 1.5) + pmf[3] * (2 / (1 / 3 + 1 / 2)), rel=1e-12
    )


def test_service_rate_zero_when_alpha_exceeds_r():
    assert service_rate(SystemConfig(40, 2, 12), FixedSize(10), SmallExp(1.0)) == 0.0


# --- closed-form extremal rates ---------------------------------------------

def test_minimal_rate_closed_forms():
    assert minimal_spreading_rate(FixedSize(3), SmallExp(1.0), 6, 2) == pytest.approx(1.0)
    assert minimal_spreading_rate(FixedSize(3), ScaledExp(2.0), 6, 2) == pytest.approx(2.0)
    assert minimal_spreading_rate(Probabilistic(0.25), ScaledExp(2.0), 6, 2) == pytest.approx(3.0)
    # 1 - C(4,3)/C(6,3) = 0.8 missed-data probability complement, over delta=2
    assert minimal_spreading_rate(FixedSize(3), ConstantTime(2.0), 6, 2) == pytest.approx(0.4)
    assert minimal_spreading_rate(Probabilistic(0.5), ConstantTime(2.0), 6, 2) == pytest.approx(
        0.375
    )


def test_minimal_rate_has_no_shifted_closed_form():
    with pytest.raises(NoClosedFormError):
        minimal_spreading_rate(FixedSize(3), ShiftedExp(1.0, 1.0), 6, 2)


def test_maximal_rate_closed_forms():
    # alpha = r = 2: only phi = 2 recovers, P = C(4,2)/C(6,2)
    want = 2 * (6 / 15) / 1.5
    assert maximal_spreading_rate(FixedSize(2), ScaledExp(1.0), 6, 2) == pytest.approx(want)
    assert maximal_spreading_rate(FixedSize(2), ConstantTime(1.0), 6, 2) == pytest.approx(0.8)


def test_maximal_rate_equals_general_sum():
    config = SystemConfig(40, 2, 10)
    access = FixedSize(10)
    assert maximal_spreading_rate(access, ScaledExp(1.0), 40, 2) == pytest.approx(
        service_rate(config, access, ScaledExp(1.0)), rel=1e-9
    )


def test_maximal_rate_beyond_ten_thousand_matches_the_kernel():
    # at large r the closed form takes H_r from the same double-double table as the kernel
    r = 10_001
    rates, _ = expected_metrics(FixedSize(r), ScaledExp(1.5), 3 * r, 3, (r,))
    assert maximal_spreading_rate(FixedSize(r), ScaledExp(1.5), 3 * r, 3) == pytest.approx(
        rates[0], rel=1e-12
    )


def test_maximal_rate_error_cases():
    with pytest.raises(NoClosedFormError):
        maximal_spreading_rate(Probabilistic(0.3), ScaledExp(1.0), 40, 2)
    with pytest.raises(NoClosedFormError):
        maximal_spreading_rate(FixedSize(5), SmallExp(1.0), 40, 2)
    with pytest.raises(NoClosedFormError):
        maximal_spreading_rate(FixedSize(5), ShiftedExp(1.0, 1.0), 40, 2)
    with pytest.raises(InfeasibleError):
        maximal_spreading_rate(FixedSize(25), ScaledExp(1.0), 40, 2)


def test_extremal_comparison_at_the_boundary():
    # with r*m = N the maximal allocation recovers surely and wins
    for nodes, m in [(10, 1), (20, 2), (40, 4)]:
        r = nodes // m
        access = FixedSize(r)
        assert maximal_spreading_rate(access, ScaledExp(1.0), nodes, m) >= minimal_spreading_rate(
            access, ScaledExp(1.0), nodes, m
        )


# --- feasibility and the alpha search ----------------------------------------

def test_feasible_alphas_ranges():
    assert feasible_alphas(40, 4) == range(1, 11)
    assert feasible_alphas(40, 4, FixedSize(3)) == range(1, 4)
    assert feasible_alphas(40, 4, Probabilistic(0.3)) == range(1, 11)
    assert feasible_alphas(5, 5) == range(1, 2)
    with pytest.raises(InfeasibleError):
        feasible_alphas(3, 4)


def test_optimal_alpha_reference_points():
    assert optimal_alpha(FixedSize(10), ScaledExp(1.0), 40, 3).alpha_star == 3
    assert optimal_alpha(FixedSize(10), ScaledExp(1.0), 40, 4).alpha_star == 10
    assert optimal_alpha(FixedSize(10), SmallExp(1.0), 40, 4).alpha_star == 1


def test_optimal_alpha_probabilistic_m1():
    # alpha * 0.8^alpha / H_alpha peaks at alpha = 2
    result = optimal_alpha(Probabilistic(0.2), ScaledExp(1.0), 40, 1)
    assert result.alpha_star == 2
    assert result.value == pytest.approx(2 * 0.64 / 1.5, rel=1e-12)
    rates = {row.alpha: row.service_rate for row in result.table}
    assert rates[1] == pytest.approx(0.8, rel=1e-12)
    assert rates[3] == pytest.approx(3 * 0.8**3 / float(harmonic(3)), rel=1e-12)


def test_optimal_alpha_by_recovery_probability():
    result = optimal_alpha(FixedSize(14), SmallExp(1.0), 40, 3, "recovery_probability")
    assert result.alpha_star == 13  # recovery is certain at alpha = r - 1 here
    assert result.value == pytest.approx(1.0)


def test_optimal_alpha_ties_break_low():
    # r = N makes recovery certain at every feasible alpha: a full tie
    result = optimal_alpha(FixedSize(12), SmallExp(1.0), 12, 3, "recovery_probability")
    assert {row.recovery_probability for row in result.table} == {1.0}
    assert result.alpha_star == 1


def test_optimal_alpha_rejects_unknown_objective():
    with pytest.raises(ConfigurationError):
        optimal_alpha(FixedSize(3), SmallExp(1.0), 10, 2, "latency")


def test_minimal_spreading_wins_strictly_for_small_files():
    for nodes, m, r in [(12, 2, 5), (20, 3, 7), (40, 1, 9)]:
        rows = alpha_table(FixedSize(r), SmallExp(1.0), nodes, m)
        assert all(rows[0].service_rate > row.service_rate for row in rows[1:])


# --- alpha tables and sweeps --------------------------------------------------

def test_alpha_table_explicit_alphas_beyond_r_give_zero_rows():
    rows = alpha_table(FixedSize(3), SmallExp(1.0), 40, 2, alphas=[2, 4])
    assert [row.alpha for row in rows] == [2, 4]
    assert rows[1].service_rate == 0.0
    assert rows[1].recovery_probability == 0.0


def test_an_empty_alpha_list_gives_empty_results():
    assert alpha_table(FixedSize(3), SmallExp(1.0), 40, 2, alphas=[]) == ()
    rates, recovery = expected_metrics(FixedSize(3), SmallExp(1.0), 40, 2, [])
    assert (rates.tolist(), recovery.tolist()) == ([], [])
    rates, recovery = expected_metrics(Probabilistic(0.3), None, 40, 2, [])
    assert (rates, recovery.tolist()) == (None, [])


def test_alpha_table_rejects_overfull_alphas():
    # alpha = 6 has no allocation in 10 nodes with m = 2, as in SystemConfig(10, 2, 6)
    with pytest.raises(InfeasibleError, match="alpha=6 needs m\\*alpha=12 data nodes"):
        alpha_table(FixedSize(10), SmallExp(1.0), 10, 2, alphas=[1, 6])


def test_alpha_table_rows_equal_pointwise_evaluation():
    for r in (4, 8):
        for row in alpha_table(FixedSize(r), ScaledExp(1.0), 20, 2, alphas=[1, 2]):
            config = SystemConfig(20, 2, row.alpha)
            assert row.service_rate == service_rate(config, FixedSize(r), ScaledExp(1.0))
            assert row.recovery_probability == recovery_probability(config, FixedSize(r))


def test_alpha_table_under_probabilistic_access_at_alpha_1():
    for p in (0.1, 0.5):
        (row,) = alpha_table(Probabilistic(p), SmallExp(1.0), 10, 1, alphas=[1])
        assert row.service_rate == pytest.approx(1.0 - p, rel=1e-12)


# --- invariants under random configurations ----------------------------------

@pytest.mark.parametrize("seed", range(40))
def test_rate_and_probability_invariants(seed):
    rng = random.Random(seed)
    nodes = rng.randint(2, 40)
    m = rng.randint(1, 4)
    if nodes < m:
        nodes = m
    alpha = rng.choice(list(feasible_alphas(nodes, m)))
    config = SystemConfig(nodes, m, alpha)
    if rng.random() < 0.5:
        access = FixedSize(rng.randint(1, nodes))
    else:
        access = Probabilistic(round(rng.random(), 3))
    service = rng.choice(
        [SmallExp(1.0), ScaledExp(0.5), ShiftedExp(2.0, 1.0), ConstantTime(1.5)]
    )
    prob = recovery_probability(config, access)
    rate = service_rate(config, access, service)
    assert 0.0 <= prob <= 1.0
    assert rate >= 0.0
    # the rate is a pmf-weighted average of conditional rates, so it is capped
    # by the largest conditional rate on the support
    cap = conditional_rate(service, alpha, config.data_nodes)
    assert rate <= cap * max(prob, 1e-300) + 1e-12
    if prob == 0.0:
        assert rate == 0.0


def test_rate_scales_linearly_in_mu():
    config = SystemConfig(30, 2, 4)
    access = FixedSize(12)
    base = service_rate(config, access, ScaledExp(1.0))
    assert service_rate(config, access, ScaledExp(2.0)) == pytest.approx(2 * base, rel=1e-12)
    assert math.isclose(
        service_rate(config, access, SmallExp(2.0)),
        2 * service_rate(config, access, SmallExp(1.0)),
        rel_tol=1e-12,
    )


def test_exact_fraction_oracle_for_a_full_rate():
    # N=6, m=2, alpha=2, r=3, small-exp: exact rational arithmetic end to end
    pmf = {
        2: Fraction(math.comb(4, 2) * math.comb(2, 1), math.comb(6, 3)),
        3: Fraction(math.comb(4, 3), math.comb(6, 3)),
    }
    want = pmf[2] / (harmonic(2) - harmonic(0)) + pmf[3] / (harmonic(3) - harmonic(1))
    got = service_rate(SystemConfig(6, 2, 2), FixedSize(3), SmallExp(1.0))
    assert got == pytest.approx(float(want), rel=1e-12)


# --- the access-half memo -------------------------------------------------------

MEMO_ACCESSES = [FixedSize(12), Probabilistic(0.3)]
MEMO_SERVICES = [SmallExp(2.0), ScaledExp(0.5), ShiftedExp(3.0, 1.0), ConstantTime(1.5)]


def hex_rows(rates, recovery):
    rates = [] if rates is None else rates.tolist()
    return [value.hex() for value in rates + recovery.tolist()]


@pytest.fixture
def cold_memo():
    analysis._MEMO.clear()
    yield analysis._MEMO
    analysis._MEMO.clear()


@pytest.mark.parametrize("access", MEMO_ACCESSES, ids=lambda access: access.kind)
@pytest.mark.parametrize("service", MEMO_SERVICES + [None],
                         ids=lambda service: "none" if service is None else service.kind)
def test_memo_hits_are_bit_identical_to_cold_and_streamed_calls(cold_memo, monkeypatch,
                                                                 access, service):
    alphas = [3, 1, 2, 7, 5]  # unordered, as explicit lists may be
    cold = hex_rows(*expected_metrics(access, service, 40, 3, alphas))
    assert len(cold_memo._entries) == 1
    hit = hex_rows(*expected_metrics(access, service, 40, 3, alphas))
    assert len(cold_memo._entries) == 1
    monkeypatch.setattr(cold_memo, "cap", 0)  # every table streams
    streamed = hex_rows(*expected_metrics(access, service, 40, 3, alphas))
    assert hit == cold == streamed


def test_memo_stays_within_its_budget(cold_memo):
    built = 0
    # enough tables to outgrow the budget (m = 1 alone stores 178 KB); the last system is kept
    for m, nodes in itertools.product((2, 1), (60, 30, 40)):
        for access in [FixedSize(r) for r in range(2, nodes + 1)] + [
                Probabilistic(k / 20) for k in range(1, 20)]:
            alpha_table(access, ScaledExp(1.0), nodes, m)
            built += 1
            assert cold_memo.nbytes <= cold_memo.budget
    assert cold_memo.nbytes > cold_memo.budget // 2
    assert len(cold_memo._entries) < built  # the systems outgrew the budget: some were evicted
    # the kept entries are the most recent ones, and still hits
    kept = len(cold_memo._entries)
    alpha_table(Probabilistic(0.95), ScaledExp(2.0), 40, 1)
    assert len(cold_memo._entries) == kept


def test_a_second_pass_over_the_grid_builds_no_access_table(monkeypatch):
    # the 496 access tables of acceptance criterion 5's grid fit the memo together,
    # so a second pass in one process, as validate's criteria make, reads them all
    monkeypatch.setattr(analysis, "_MEMO", ByteLRU())
    builds = []
    build = analysis._access_half
    monkeypatch.setattr(analysis, "_access_half", lambda *args: builds.append(args) or build(*args))
    for _ in range(2):
        for access, nodes, m in GRID:
            alpha_table(access, ScaledExp(1.0), nodes, m)
    assert len(builds) == len(GRID) == 496
    assert analysis._MEMO.nbytes <= analysis._MEMO.budget


@pytest.mark.parametrize("access", MEMO_ACCESSES, ids=lambda access: access.kind)
def test_tables_over_one_system_share_their_recovery_floats(cold_memo, monkeypatch, access):
    # the recovery column depends on the access model alone: every table over one
    # system hands out the memo entry's floats, under any service model
    tables = [alpha_table(access, service, 40, 3) for service in MEMO_SERVICES]
    tables.append(optimal_alpha(access, SmallExp(2.0), 40, 3).table)
    assert len(cold_memo._entries) == 1
    for rows in zip(*tables):
        assert all(row.recovery_probability is rows[0].recovery_probability for row in rows)
    monkeypatch.setattr(cold_memo, "cap", 0)  # every table streams
    streamed = alpha_table(access, ScaledExp(0.5), 40, 3)
    assert [row.recovery_probability.hex() for row in streamed] == \
        [row.recovery_probability.hex() for row in tables[0]]


def test_a_grid_pass_under_every_service_and_the_presets_build_each_table_once(monkeypatch):
    # criterion 5 tabulates each grid system under nine service models and the presets
    # add their own systems; together they end near the memo's budget, yet evict nothing
    monkeypatch.setattr(analysis, "_MEMO", ByteLRU())
    keys = []
    build = analysis._access_half

    def counted(access, nodes, m, alphas, *rest):
        keys.append((access, nodes, m, alphas.tobytes()))
        return build(access, nodes, m, alphas, *rest)

    monkeypatch.setattr(analysis, "_access_half", counted)
    services = [ScaledExp(mu) for mu in acceptance.MU_GRID]
    services += [ShiftedExp(delta, mu) for delta in (1.0, 3.0) for mu in acceptance.MU_GRID]
    assert len(services) == 9
    for _, systems in itertools.groupby(GRID, key=lambda system: system[1:]):
        systems = list(systems)  # criterion 5's order: every service over one (nodes, m)
        for service in services:
            for access, nodes, m in systems:
                alpha_table(access, service, nodes, m)
    for name in PRESETS:
        preset_rows(name)
    assert len(keys) == len(set(keys)) == len(analysis._MEMO._entries) > len(GRID)
    assert analysis._MEMO.nbytes <= analysis._MEMO.budget


def test_large_searches_stream_past_the_memo(cold_memo):
    alpha_table(FixedSize(10), ScaledExp(1.0), 40, 2)
    before = (list(cold_memo._entries), cold_memo.nbytes)
    optimal_alpha(FixedSize(300), ScaledExp(1.0), 1000, 3)
    expected_metrics(Probabilistic(0.3), None, 1000, 3, range(1, 334))
    assert (list(cold_memo._entries), cold_memo.nbytes) == before


@pytest.mark.parametrize("access, nodes", [(FixedSize(300), 1000), (Probabilistic(0.3), 1000),
                                           (FixedSize(1020), 10_000)])
def test_searches_read_no_harmonic_gap_past_the_support(monkeypatch, access, nodes):
    # a chunk's rows past a column's support end weigh 0: their gap is read at the end,
    # so the harmonic table grows to the support alone (r = 1020 would reach 1027)
    monkeypatch.setattr(numerics, "_table", (np.zeros(1), np.zeros(1)))
    optimal_alpha(access, ScaledExp(1.0), nodes, 3)
    top = access.r if isinstance(access, FixedSize) else nodes // 3 * 3
    assert len(numerics._table[0]) == max(numerics._MIN_TABLE, 1 << top.bit_length())


@pytest.mark.parametrize("access", [FixedSize(5), Probabilistic(0.999)], ids=str)
def test_an_alpha_far_past_its_band_reads_no_harmonic_gap_near_it(monkeypatch, access):
    # the column ends below alpha (past r = 5, or where its rows underflow) and weighs 0
    # throughout, so a one-alpha call at alpha = 50,000 keeps the table at its smallest
    monkeypatch.setattr(numerics, "_table", (np.zeros(1), np.zeros(1)))
    rates, recovery = expected_metrics(access, ScaledExp(1.0), 100_000, 1, [50_000])
    assert (rates.tolist(), recovery.tolist()) == ([0.0], [0.0])
    assert len(numerics._table[0]) == numerics._MIN_TABLE


# --- the kernel's column sums ----------------------------------------------------

def phi_order_sums(matrix: np.ndarray) -> list[str]:
    sums = []
    for column in matrix.T.tolist():
        total = column[0]
        for value in column[1:]:
            total += value
        sums.append(total.hex())
    return sums


@pytest.mark.parametrize("width", [1, 2, 3, 65])
def test_column_sums_add_each_column_in_phi_order(width):
    # a single column must not be summed pairwise, as add.reduce sums a contiguous run
    local = np.random.default_rng(width)
    for height in (1, 2, 8, 9, 17, 128, 129, 1000, 3001):
        shape = (height, width)
        matrix = local.random(shape) * 10.0 ** local.integers(-320, 3, shape)  # some subnormal
        matrix[local.random(shape) < 0.2] = 0.0
        tiny = local.random(shape) < 0.1
        matrix[tiny] = 5e-324 * local.integers(1, 1 << 20, tiny.sum())  # subnormal multiples
        assert [value.hex() for value in numerics._column_sums(matrix).tolist()] == \
            phi_order_sums(matrix), height


def test_a_streamed_search_holds_little_memory():
    # 64 KiB chunks and one scratch per call: a stream holds a few chunk-sized arrays at a time
    access, service = Probabilistic(0.3), ShiftedExp(3, 1)
    optimal_alpha(access, service, 1000, 3)  # warm: the harmonic table, the first imports
    tracemalloc.start()
    try:
        optimal_alpha(access, service, 1000, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 2**20


def test_memo_entries_cannot_be_changed_through_results(cold_memo):
    access, service = Probabilistic(0.3), ShiftedExp(3.0, 1.0)
    want = hex_rows(*expected_metrics(access, service, 20, 2, range(1, 11)))
    rates, recovery = expected_metrics(access, service, 20, 2, range(1, 11))
    rates[:] = -1.0
    recovery[:] = -1.0
    assert hex_rows(*expected_metrics(access, service, 20, 2, range(1, 11))) == want
    (_, stored, chunks), = cold_memo._entries.values()
    assert isinstance(stored, tuple)  # the recovery floats
    with pytest.raises(TypeError):
        stored[0] = 0.0
    for array in (array for chunk in chunks for array in chunk[2:]):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_concurrent_calls_return_the_serial_rows(cold_memo):
    systems = [(access, service, nodes, m)
               for access in [FixedSize(5), FixedSize(9), Probabilistic(0.2), Probabilistic(0.7)]
               for service in MEMO_SERVICES for nodes in (12, 20) for m in (1, 2)]
    serial = [hex_rows(*expected_metrics(a, s, n, m, feasible_alphas(n, m, a)))
              for a, s, n, m in systems]
    cold_memo.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(lambda a, s, n, m: hex_rows(*expected_metrics(
                a, s, n, m, feasible_alphas(n, m, a))), *system) for system in systems * 4]
            rows = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert rows == serial * 4
    assert len(cold_memo._entries) == len({(a, n, m) for a, _, n, m in systems})
    assert cold_memo.nbytes == sum(entry[0] for entry in cold_memo._entries.values())
