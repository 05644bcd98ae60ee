from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dss_alloc.analysis import alpha_table, optimal_alpha
from dss_alloc.cli import main
from dss_alloc.conditions import ConditionReport, classify, scaled_prob_m1_optimal_range
from dss_alloc.errors import ConfigurationError, InfeasibleError
from dss_alloc.models import FixedSize, Probabilistic, ScaledExp, ShiftedExp, SmallExp


# brute-force oracles: recompute each per-alpha term from its printed formula

def fixed_scaled_opt_term(nodes: int, m: int, alpha: int) -> float:
    return 1 + (nodes - 1) / (alpha * math.comb(m * alpha - 1, alpha - 1)) ** (1 / (alpha - 1))


def prob_shifted_nonopt_term(m: int, dm: float, alpha: int) -> float:
    K = m * alpha - alpha + 1
    kernel = m * (dm * K + alpha * alpha) / (alpha * (dm + 1) * K)
    return 1 - kernel ** (1 / (alpha - 1))


# --- scaled-exponential thresholds -------------------------------------------
# fixed-size terms run over alpha <= min(r, nodes // m), probabilistic ones over
# alpha <= alpha_max

def test_fixed_scaled_optimality_reference_value():
    report = classify(FixedSize(20), ScaledExp(1.0), 2, nodes=40)
    assert report.optimality_threshold == Fraction(15, 2)
    assert report.witness_alpha_opt == 2
    # terms match the formula recomputed independently
    for alpha, term in report.optimality_terms:
        assert float(term) == pytest.approx(fixed_scaled_opt_term(40, 2, alpha), rel=1e-12)


def test_fixed_scaled_nonoptimality_reference_value():
    report = classify(FixedSize(20), ScaledExp(1.0), 2, nodes=40)
    assert report.nonoptimality_threshold == 27
    assert report.witness_alpha_nonopt == 2


def test_prob_scaled_reference_values():
    report = classify(Probabilistic(0.5), ScaledExp(1.0), 2, alpha_max=20)
    assert report.optimality_threshold == Fraction(5, 6)
    assert report.witness_alpha_opt == 2
    assert report.nonoptimality_threshold == Fraction(1, 3)
    assert report.witness_alpha_nonopt == 2


def test_prob_scaled_m1_nonoptimality_is_vacuous():
    # the kernel collapses to 1 for m = 1, so every term is 0
    report = classify(Probabilistic(0.5), ScaledExp(1.0), 1, alpha_max=15)
    assert report.nonoptimality_threshold == 0
    assert len(report.nonoptimality_terms) == 14
    assert all(term == 0 for _, term in report.nonoptimality_terms)


# --- shifted-exponential thresholds ------------------------------------------

def test_fixed_shifted_optimality_reference_value():
    report = classify(FixedSize(20), ShiftedExp(3.0, 1.0), 2, nodes=40)
    assert report.optimality_threshold == Fraction(79, 14)
    assert report.witness_alpha_opt == 2


def test_fixed_shifted_nonoptimality_reference_value():
    report = classify(FixedSize(20), ShiftedExp(3.0, 1.0), 2, nodes=40)
    assert report.witness_alpha_nonopt == 4
    assert float(report.nonoptimality_threshold) == pytest.approx(0.775 ** (1 / 3) * 37 + 3,
                                                                  rel=1e-12)
    terms = dict(report.nonoptimality_terms)
    assert terms[2] == Fraction(173, 4)  # 13/12 * 39 + 1 stays exact at alpha = 2


def test_prob_shifted_optimality_reference_value():
    report = classify(Probabilistic(0.5), ShiftedExp(3.0, 1.0), 2, alpha_max=20)
    assert report.optimality_threshold == Fraction(37, 42)
    assert report.witness_alpha_opt == 2


def test_prob_shifted_nonoptimality_reference_value():
    report = classify(Probabilistic(0.5), ShiftedExp(3.0, 1.0), 2, alpha_max=20)
    assert report.witness_alpha_nonopt == 4
    assert float(report.nonoptimality_threshold) == pytest.approx(1 - 0.775 ** (1 / 3),
                                                                  rel=1e-12)
    terms = dict(report.nonoptimality_terms)
    assert terms[2] == Fraction(-1, 12)  # negative terms are reported, not clipped
    for alpha, term in report.nonoptimality_terms:
        assert float(term) == pytest.approx(prob_shifted_nonopt_term(2, 3.0, alpha), rel=1e-9)


def test_prob_shifted_m1_nonoptimality_can_fire():
    # m = 1 keeps a genuine threshold here: alpha = 2 beats alpha = 1 for small p
    report = classify(Probabilistic(0.05), ShiftedExp(3.0, 1.0), 1, alpha_max=10)
    assert report.nonoptimality_threshold == Fraction(1, 8)
    assert report.witness_alpha_nonopt == 2
    assert report.verdict == "non-optimal"
    better = optimal_alpha(Probabilistic(0.05), ShiftedExp(3.0, 1.0), 20, 1)
    assert better.alpha_star > 1


def test_prob_shifted_all_negative_terms_mean_no_witness():
    # delta = 0 collapses to the memoryless model where alpha = 1 always wins
    report = classify(Probabilistic(0.05), ShiftedExp(0.0, 1.0), 1, alpha_max=10)
    assert report.nonoptimality_threshold == 0
    assert report.witness_alpha_nonopt is None
    assert len(report.nonoptimality_terms) == 9
    assert all(term < 0 for _, term in report.nonoptimality_terms)


def test_zero_shift_classifies_as_always_optimal():
    report = classify(Probabilistic(0.05), ShiftedExp(0.0, 1.0), 1, alpha_max=10)
    assert report.verdict == "optimal"


# --- classify ------------------------------------------------------------------

def test_classify_fixed_scaled_verdicts():
    assert classify(FixedSize(7), ScaledExp(1.0), 2, nodes=40).verdict == "optimal"
    assert classify(FixedSize(8), ScaledExp(1.0), 2, nodes=40).verdict == "indeterminate"
    assert classify(FixedSize(27), ScaledExp(1.0), 2, nodes=40).verdict == "non-optimal"
    assert classify(FixedSize(26), ScaledExp(1.0), 2, nodes=40).verdict == "indeterminate"


def test_classify_prob_scaled_verdicts():
    assert classify(Probabilistic(0.9), ScaledExp(1.0), 2, nodes=40).verdict == "optimal"
    assert classify(Probabilistic(0.5), ScaledExp(1.0), 2, nodes=40).verdict == "indeterminate"
    assert classify(Probabilistic(0.3), ScaledExp(1.0), 2, nodes=40).verdict == "non-optimal"


def test_classify_boundaries_are_exact():
    # the alpha = 2 terms are exact rationals; comparisons against them are
    # exact too, so float(1 / 3), which rounds just below the true rational,
    # lands on the non-optimal side rather than being absorbed into the gap
    report = classify(Probabilistic(1 / 3), ScaledExp(1.0), 2, nodes=40)
    assert report.verdict == "non-optimal"
    assert classify(Probabilistic(0.34), ScaledExp(1.0), 2, nodes=40).verdict == "indeterminate"
    assert classify(Probabilistic(0.25), ScaledExp(1.0), 2, nodes=40).verdict == "non-optimal"


def test_classify_requires_nodes_for_fixed_access():
    with pytest.raises(ConfigurationError):
        classify(FixedSize(5), ScaledExp(1.0), 2)


def test_classify_requires_nodes_or_a_cutoff_for_probabilistic_access():
    with pytest.raises(ConfigurationError, match="node count or alpha_max"):
        classify(Probabilistic(0.3), ScaledExp(1.0), 2)
    # nodes = 40 with m = 2 sets the same cutoff as alpha_max = 20
    by_cutoff = classify(Probabilistic(0.3), ScaledExp(1.0), 2, alpha_max=20)
    assert by_cutoff == classify(Probabilistic(0.3), ScaledExp(1.0), 2, nodes=40)


def test_classify_rejects_uncovered_service_models():
    with pytest.raises(ConfigurationError):
        classify(FixedSize(5), SmallExp(1.0), 2, nodes=40)


def test_classify_verdicts_agree_with_exhaustive_search():
    # one certified point of each kind, cross-checked by enumeration
    surely = classify(FixedSize(5), ScaledExp(1.0), 2, nodes=40)
    assert surely.verdict == "optimal"
    assert optimal_alpha(FixedSize(5), ScaledExp(1.0), 40, 2).alpha_star == 1

    surely_not = classify(FixedSize(30), ScaledExp(1.0), 2, nodes=40)
    assert surely_not.verdict == "non-optimal"
    assert optimal_alpha(FixedSize(30), ScaledExp(1.0), 40, 2).alpha_star > 1


# --- m = 1 special cases ---------------------------------------------------------

@pytest.mark.parametrize(
    "p,want",
    [(0.2, (1.5, 4.0)), (0.5, (0.0, 1.0)), (0.1, (4.0, 9.0))],
)
def test_scaled_m1_bracket_values(p, want):
    lo, hi = scaled_prob_m1_optimal_range(p)
    assert lo == pytest.approx(want[0], abs=1e-12)
    assert hi == pytest.approx(want[1], rel=1e-12)


def test_scaled_m1_bracket_rejects_degenerate_p():
    with pytest.raises(ConfigurationError):
        scaled_prob_m1_optimal_range(0.0)
    with pytest.raises(ConfigurationError):
        scaled_prob_m1_optimal_range(1.0)


# --- conjecture probing -----------------------------------------------------------

def test_optimal_alpha_profile_reports_monotone_growth():
    # the paper's N = 40, m = 3 figure: alpha* climbs from minimal to maximal spreading
    stars = [optimal_alpha(FixedSize(r), ScaledExp(1.0), 40, 3).alpha_star for r in (8, 10, 12, 13)]
    assert stars == [1, 3, 7, 13]


def test_probabilistic_access_without_room_for_alpha_2_is_optimal():
    # N < 2m admits alpha = 1 only, as fixed-size access with 2m > N does
    report = classify(Probabilistic(0.3), ScaledExp(1.0), 2, nodes=3)
    assert report.verdict == "optimal"
    assert report.optimality_terms == report.nonoptimality_terms == ()
    assert report.witness_alpha_opt is report.witness_alpha_nonopt is None
    assert classify(FixedSize(2), ScaledExp(1.0), 2, nodes=3).verdict == "optimal"
    with pytest.raises(ConfigurationError):  # an explicit cutoff must leave room
        classify(Probabilistic(0.3), ScaledExp(1.0), 2, nodes=3, alpha_max=1)
    with pytest.raises(ConfigurationError):
        classify(Probabilistic(0.3), ScaledExp(1.0), 2, nodes=0)


@pytest.mark.parametrize("access", [FixedSize(2), Probabilistic(0.3)])
def test_classify_rejects_a_system_with_fewer_nodes_than_m(access):
    # m = 5 copies do not fit in 3 nodes: no allocation exists, not even alpha = 1
    with pytest.raises(InfeasibleError, match="no feasible alpha for nodes=3, m=5"):
        classify(access, ScaledExp(1.0), 5, nodes=3)


# --- identity with an all-Fraction evaluation ------------------------------------
# The reference evaluates every kernel as a Fraction, rounds it with float()
# for alpha >= 3, and scans the mixed Fraction/float terms in one exact pass.

def ref_pick(terms, best):
    if not terms:
        return math.inf if best is min else -math.inf, None, ()
    value, witness = terms[0][1], terms[0][0]
    for alpha, term in terms[1:]:
        if best(term, value) == term and term != value:
            value, witness = term, alpha
    return value, witness, tuple(terms)


def ref_root(kernel, alpha):
    return float(kernel) ** (1.0 / (alpha - 1))


def ref_fixed(nodes, m, r, dm):
    alphas = range(2, min(r, nodes // m) + 1)
    opt, non = [], []
    for alpha in alphas:
        K = m * alpha - alpha + 1
        base = alpha * math.comb(m * alpha - 1, alpha - 1)
        if dm is None:
            opt_kernel = Fraction(1, base)
            non_kernel = Fraction(m, K)
        else:
            opt_kernel = (dm + alpha) / (alpha * (dm * m + 1) * math.comb(m * alpha - 1, alpha - 1))
            non_kernel = (dm * m * K + m * alpha * alpha) / (alpha * (dm + 1) * K)
        if alpha == 2:
            opt.append((alpha, 1 + opt_kernel * (nodes - 1)))
            non.append((alpha, non_kernel * (nodes - 1) + 1))
        elif dm is None:
            opt.append((alpha, 1.0 + (nodes - 1) / ref_root(base, alpha)))
            non.append((alpha, ref_root(non_kernel, alpha) * (nodes - alpha + 1) + alpha - 1))
        else:
            opt.append((alpha, 1.0 + ref_root(opt_kernel, alpha) * (nodes - 1)))
            non.append((alpha, ref_root(non_kernel, alpha) * (nodes - alpha + 1) + alpha - 1))
    return ref_pick(opt, min), ref_pick(non, min)


def ref_prob(m, amax, dm):
    opt, non = [], []
    for alpha in range(2, amax + 1):
        K = m * alpha - alpha + 1
        base = alpha * math.comb(m * alpha - 1, alpha - 1)
        if dm is None:
            opt_kernel, non_kernel = Fraction(1, base), Fraction(m, K)
        else:
            opt_kernel = (dm + alpha) / (alpha * (dm * m + 1) * math.comb(m * alpha - 1, alpha - 1))
            non_kernel = m * (dm * K + alpha * alpha) / (alpha * (dm + 1) * K)
        if alpha == 2:
            opt.append((alpha, 1 - opt_kernel))
            non.append((alpha, 1 - non_kernel))
        elif dm is None:
            opt.append((alpha, 1.0 - 1.0 / ref_root(base, alpha)))
            non.append((alpha, 1.0 - ref_root(non_kernel, alpha)))
        else:
            opt.append((alpha, 1.0 - ref_root(opt_kernel, alpha)))
            non.append((alpha, 1.0 - ref_root(non_kernel, alpha)))
    opt, non = ref_pick(opt, max), ref_pick(non, max)
    if dm is not None and non[1] is not None and non[0] < 0:
        non = (Fraction(0), None, non[2])
    return opt, non


def ref_classify(access, service, m, nodes, alpha_max=None):
    dm = Fraction(service.delta) * Fraction(service.mu) if isinstance(service, ShiftedExp) else None
    if isinstance(access, FixedSize):
        opt, non = ref_fixed(nodes, m, access.r, dm)
        r = access.r
        if r <= opt[0]:
            verdict = "optimal"
        elif non[1] is not None and r >= non[0]:
            verdict = "non-optimal"
        else:
            verdict = "indeterminate"
    else:
        opt, non = ref_prob(m, alpha_max if alpha_max is not None else nodes // m, dm)
        p = access.p
        if opt[1] is not None and p >= opt[0]:
            verdict = "optimal"
        elif non[1] is not None and p <= non[0]:
            verdict = "non-optimal"
        else:
            verdict = "indeterminate"
    return ConditionReport(access.kind, service.kind, opt[0], non[0], opt[1], non[1], verdict,
                           opt[2], non[2])


def report_shape(report):
    """The repr of a report and the type of every field and term."""
    types = [type(value).__name__ for value in vars(report).values()]
    for terms in (report.optimality_terms, report.nonoptimality_terms):
        types += [type(alpha).__name__ + type(term).__name__ for alpha, term in terms]
    return repr(report), types


GRID_SERVICES = [ScaledExp(mu) for mu in (0.5, 1.0, 2.0)] + [
    ShiftedExp(delta, mu) for delta in (1.0, 3.0) for mu in (0.5, 1.0, 2.0)]


def grid_configs():
    for nodes in (10, 20, 40):
        for m in (1, 2, 3, 4):
            for service in GRID_SERVICES:
                for r in range(2, nodes + 1):
                    yield FixedSize(r), service, m, nodes, None
                for k in range(1, 20):
                    yield Probabilistic(round(0.05 * k, 2)), service, m, nodes, None


def random_configs(seed, count):
    rng = random.Random(seed)
    odd = (0.1, 0.3, 3.7)  # not dyadic: delta * mu is a ratio of large integers
    for _ in range(count):
        m = rng.randint(1, 6)
        nodes = rng.randint(2 * m, 60)
        mu = rng.choice(odd + (rng.uniform(0.1, 5.0),))
        if rng.random() < 0.3:
            service = ScaledExp(mu)
        else:
            service = ShiftedExp(rng.choice((0.0,) + odd + (rng.uniform(0.0, 5.0),)), mu)
        if rng.random() < 0.5:
            yield FixedSize(rng.randint(2, nodes)), service, m, nodes, None
        else:
            alpha_max = rng.choice((None, rng.randint(2, 40)))
            yield Probabilistic(rng.choice((rng.random(), 1 / 3))), service, m, nodes, alpha_max


def test_classify_matches_the_all_fraction_reference():
    configs = [*grid_configs(), *random_configs(11, 500)]
    assert len(configs) == 4464 + 500
    for access, service, m, nodes, alpha_max in configs:
        got = classify(access, service, m, nodes=nodes, alpha_max=alpha_max)
        want = ref_classify(access, service, m, nodes, alpha_max)
        assert report_shape(got) == report_shape(want), (access, service, m, nodes, alpha_max)


# --- properties ------------------------------------------------------------------

@st.composite
def certified_configs(draw):
    # the figures' N <= 40 and beyond it, with probabilistic cutoffs below nodes // m
    m = draw(st.integers(1, 4))
    nodes = draw(st.integers(max(2, m), 40) | st.integers(41, 160))
    alpha_max = None
    if draw(st.booleans()):
        access = FixedSize(draw(st.integers(2, nodes)))
    else:
        access = Probabilistic(draw(st.floats(0.01, 0.99)))
        if nodes > 40:
            alpha_max = draw(st.none() | st.integers(2, nodes // m))
    mu = draw(st.floats(0.1, 5.0))
    if draw(st.booleans()):
        service = ScaledExp(mu)
    else:
        service = ShiftedExp(draw(st.floats(0.0, 5.0)), mu)
    return access, service, nodes, m, alpha_max


@settings(derandomize=True, max_examples=600, deadline=None)
@given(certified_configs())
def test_verdicts_never_contradict_the_alpha_table(config):
    # a cutoff certifies only the alternatives up to it; 1e-9 slack as in criterion 5
    access, service, nodes, m, alpha_max = config
    verdict = classify(access, service, m, nodes=nodes, alpha_max=alpha_max).verdict
    rows = alpha_table(access, service, nodes, m)
    rate_1 = rows[0].service_rate
    others = [row.service_rate for row in rows[1:alpha_max]]
    slack = 1e-9 * max(1.0, rate_1)
    if verdict == "optimal":
        assert all(rate <= rate_1 + slack for rate in others)
    elif verdict == "non-optimal":
        assert any(rate >= rate_1 - slack for rate in others)


# --- kernels beyond the float range ------------------------------------------------

# the first alpha whose kernel alpha C(m alpha - 1, alpha - 1) passes 1.8e308
FIRST_OVERFLOW = {2: 511, 3: 372, 4: 316}


def beyond_float_range(num: int) -> bool:
    try:
        num / 1
    except OverflowError:
        return True
    return False


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("nodes", [1100, 2000])
@pytest.mark.parametrize("kind", ["fixed", "probabilistic"])
def test_scaled_certificates_hold_where_the_kernel_overflows(capsys, kind, nodes, m):
    values = (nodes // 8, nodes // 2, nodes) if kind == "fixed" else (0.05, 0.5, 0.95)
    service = ScaledExp(1.0)
    for value in values:
        if kind == "fixed":
            access, flag = FixedSize(value), ["--r", str(value)]
        else:
            access, flag = Probabilistic(value), ["--p", str(value)]
        argv = ["conditions", "--nodes", str(nodes), "--m", str(m), "--access", kind, *flag,
                "--service", "scaled", "--mu", "1", "--format", "json"]
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        report = classify(access, service, m, nodes=nodes)
        assert json.loads(out)["verdict"] == report.verdict

        if report.verdict != "indeterminate":  # 1e-9 slack as in criterion 5
            rows = alpha_table(access, service, nodes, m)
            rate_1 = rows[0].service_rate
            slack = 1e-9 * max(1.0, rate_1)
            if report.verdict == "optimal":
                assert all(row.service_rate <= rate_1 + slack for row in rows[1:])
            else:
                assert any(row.service_rate >= rate_1 - slack for row in rows[1:])

        overflowed = 0
        with mpmath.workdps(40):
            for alpha, term in report.optimality_terms:
                num = alpha * math.comb(m * alpha - 1, alpha - 1)
                if not beyond_float_range(num):
                    continue
                overflowed += 1
                root = mpmath.mpf(num) ** (mpmath.mpf(1) / (alpha - 1))
                want = 1 + (nodes - 1) / root if kind == "fixed" else 1 - 1 / root
                assert abs(term - want) <= 1e-12 * abs(want)
        last_alpha = len(report.optimality_terms) + 1
        assert overflowed == max(0, last_alpha - FIRST_OVERFLOW[m] + 1)
