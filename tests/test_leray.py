"""Projection norm tests: moment tables, the norm grid, ray limits, and the
boundedness diagnostics.

Key oracles: on the ball every squared norm is exactly 1; constant-exponent
moments have a Beta closed form; the diagonal ray limit is p / (2 sqrt(p-1)).
"""

import math
import tracemalloc

import numpy as np
import pytest

from rlab import leray
from rlab.errors import DomainError, IndexOutOfTable
from rlab.geometry import (domain_from_exponent, dual_complement, egg_profile,
                           expression_profile, tabulated_profile)
from rlab.leray import (_leray_entries, _log_gammas, _log_moment_sums,
                        _radial_log_nodes, boundedness_report,
                        leray_norm_grid, log_gamma_factor, moment_table,
                        ray_limit_predictor)
from rlab.numerics import (log_beta, log_gamma, nested_log_sums,
                           tanh_sinh_indexed)

EX_PROFILE = "2+1/log(10/s)"


@pytest.fixture(scope="module")
def ball():
    return domain_from_exponent(egg_profile(2.0))


@pytest.fixture(scope="module")
def egg4():
    return domain_from_exponent(egg_profile(4.0))


@pytest.fixture(scope="module")
def varying():
    return domain_from_exponent(expression_profile(EX_PROFILE))


# ---------------------------------------------------------------------------
# moment tables
# ---------------------------------------------------------------------------

def test_moment_examples(ball, egg4):
    tab = moment_table(ball, 4, 4)
    # ball: I(m1, m2) = B(m1 + 1, m2 + 1); I(1, 1) = B(2, 2) = 1/6
    assert math.exp(tab.log_I_at(1, 1)) == pytest.approx(1.0 / 6.0, rel=1e-13)
    assert math.exp(tab.log_I_at(0, 0)) == pytest.approx(1.0, rel=1e-13)
    # egg p = 4: I(2, 1) = B(2, 3/2) = 4/15
    tab4 = moment_table(egg4, 4, 4)
    assert math.exp(tab4.log_I_at(2, 1)) == pytest.approx(4.0 / 15.0, rel=1e-13)


def test_moment_quadrature_matches_beta():
    # force the quadrature path with a profile that is constant only in the
    # limit of the expression machinery: compare a truly varying profile's
    # table against itself across refinement levels via the converged flags,
    # and a constant expression against the closed form
    geom = domain_from_exponent(expression_profile("3"))
    # constant detection routes this through the closed form already
    assert geom.profile.constant_p == pytest.approx(3.0)
    tab = moment_table(geom, 12, 12)
    for m1 in (0, 3, 12):
        for m2 in (0, 5, 12):
            want = log_beta(2 * m1 / 3.0 + 1.0, 2 * m2 / 3.0 + 1.0)
            assert tab.log_I_at(m1, m2) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("p", [1.25, 3.0, 8.0])
def test_egg_moment_table_matches_elementwise_log_beta(p):
    # the closed form takes log Gamma(2n/p + 2), n = m1 + m2, from one
    # table; log_beta sums its arguments (2m1/p + 1) + (2m2/p + 1)
    geom = domain_from_exponent(egg_profile(p))
    m = np.arange(201.0)
    want = log_beta(2.0 * m[:, None] / p + 1.0, 2.0 * m / p + 1.0)
    got = moment_table(geom, 200, 200).log_I
    assert np.max(np.abs(got - want)) < 1e-11


def test_moment_table_varying_converges(varying):
    tab = moment_table(varying, 20, 20)
    assert bool(tab.converged.all())
    assert float(tab.err.max()) < 1e-9


def test_moment_log_convexity(varying):
    # I(m1, m2) is log-convex in each index (moments of a positive measure)
    tab = moment_table(varying, 12, 12)
    li = tab.log_I
    assert np.all(li[:-2, :] + li[2:, :] >= 2.0 * li[1:-1, :] - 1e-12)
    assert np.all(li[:, :-2] + li[:, 2:] >= 2.0 * li[:, 1:-1] - 1e-12)


def test_moment_table_index_guard(ball):
    tab = moment_table(ball, 3, 3)
    with pytest.raises(IndexOutOfTable):
        tab.log_I_at(4, 0)
    with pytest.raises(IndexOutOfTable):
        tab.log_I_at(0, -1)
    with pytest.raises(DomainError):
        moment_table(ball, -1, 3)


@pytest.mark.parametrize("M1, M2", [(20_000, 20_000), (3162, 3161),
                                    (10_000_000, 0)])
def test_moment_table_refuses_an_oversized_box(ball, M1, M2):
    # more than 10^7 entries is refused before anything is allocated; a
    # 20000 x 20000 norm grid needed several 3.2 GB arrays
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match=(
                f"^the degree box 0..{M1} x 0..{M2} has more than "
                f"10,000,000 entries$")):
            moment_table(ball, M1, M2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# norm grids
# ---------------------------------------------------------------------------

def test_gamma_factor():
    # (1 + 1 + 1)! / (1! 1!) = 6
    assert math.exp(log_gamma_factor(1, 1)) == pytest.approx(6.0, rel=1e-13)
    assert math.exp(log_gamma_factor(0, 0)) == pytest.approx(1.0, rel=1e-13)
    assert math.exp(log_gamma_factor(2, 3)) == pytest.approx(60.0, rel=1e-12)


def _three_term_gamma_factor(m1, m2):
    m1, m2 = np.asarray(m1, dtype=float), np.asarray(m2, dtype=float)
    return log_gamma(m1 + m2 + 2.0) - log_gamma(m1 + 1.0) - log_gamma(m2 + 1.0)


def test_gamma_factor_is_the_three_term_formula():
    m1, m2 = np.arange(201)[:, None], np.arange(201)
    assert np.array_equal(log_gamma_factor(m1, m2),
                          _three_term_gamma_factor(m1, m2))
    # scattered pairs along an axis, halving from degree 10^6
    ns = np.array(sorted({round(10 ** 6 / 2 ** k) for k in range(8)}),
                  dtype=float)
    m0 = np.full(ns.size, 3.0)
    assert np.array_equal(log_gamma_factor(m0, ns),
                          _three_term_gamma_factor(m0, ns))


def test_log_gamma_of_sums_table_and_elementwise_agree(monkeypatch):
    sizes = []

    def counted(x):
        sizes.append(np.size(x))
        return log_gamma(x)

    monkeypatch.setattr(leray, "log_gamma", counted)
    box = np.add.outer(np.arange(201), np.arange(201))
    m1, m2 = np.arange(201)[:, None], np.arange(151)[None, :]
    scattered = np.array([3, 10, 10 ** 6])
    for p in (1.25, 1.5, 2.0, 3.0):
        sizes.clear()
        (table,) = _log_gammas(p, 2.0, box)
        (elementwise,) = _log_gammas(p, 2.0, box.astype(float))
        assert sizes == [401, box.size]
        assert np.array_equal(table, elementwise)
        # the degrees of both axes of a box share one call on 0..200
        sizes.clear()
        shared = _log_gammas(p, 1.0, m1, m2)
        apart = _log_gammas(p, 1.0, m1.astype(float), m2.astype(float))
        assert sizes == [201, 201, 151]
        for a, b in zip(shared, apart):
            assert a.shape == b.shape and np.array_equal(a, b)
        # a few far-apart degrees are evaluated where they are
        sizes.clear()
        assert np.array_equal(_log_gammas(p, 2.0, scattered)[0],
                              _log_gammas(p, 2.0, scattered.astype(float))[0])
        assert sizes == [3, 3]


def test_closed_form_grid_log_gamma_calls(monkeypatch):
    # an egg's norm grid at M = 200: each moment table and the gamma factor
    # make one log_gamma call on the degrees 0..200 of both axes and one on
    # the sums 0..400; float degrees take one call per array, same bits
    egg = domain_from_exponent(egg_profile(3.0))
    m = np.arange(201.0)
    want = _leray_entries(egg, dual_complement(egg), m[:, None], m[None, :])
    sizes = []

    def counted(x):
        sizes.append(np.size(x))
        return log_gamma(x)

    monkeypatch.setattr(leray, "log_gamma", counted)
    assert np.array_equal(leray_norm_grid(egg, 200, 200).log_norm_sq, want)
    assert sorted(sizes) == [201, 201, 201, 401, 401, 401]


def test_ball_norms_are_one(ball):
    grid = leray_norm_grid(ball, 20, 20)
    dev = np.max(np.abs(np.exp(grid.log_norm_sq) - 1.0))
    assert dev < 1e-12


def test_norms_bounded_below_by_one(varying):
    grid = leray_norm_grid(varying, 24, 24)
    assert float(np.exp(grid.log_norm_sq).min()) >= 1.0 - 1e-8


def test_norm_grid_duality_symmetry(varying):
    # the norm is built from I * I_dual symmetrically, so the dual domain
    # has the identical norm grid
    dual = dual_complement(varying)
    g = leray_norm_grid(varying, 10, 10)
    gd = leray_norm_grid(dual, 10, 10)
    assert np.allclose(g.log_norm_sq, gd.log_norm_sq, atol=1e-9)


def test_norm_grid_index_guard(ball):
    grid = leray_norm_grid(ball, 5, 5)
    assert grid.log_norm_sq.shape == (6, 6)
    assert grid.log_norm_sq[5, 5] == pytest.approx(0.0, abs=1e-12)


def test_egg_weights_do_not_change_norms():
    # rescaling the egg weights rescales I and I_dual reciprocally
    plain = leray_norm_grid(domain_from_exponent(egg_profile(3.0)), 8, 8)
    scaled = leray_norm_grid(
        domain_from_exponent(egg_profile(3.0, a1=5.0, a2=0.25)), 8, 8)
    assert np.allclose(plain.log_norm_sq, scaled.log_norm_sq, atol=1e-10)


# ---------------------------------------------------------------------------
# ray limits
# ---------------------------------------------------------------------------

def test_ray_limit_values(ball, egg4):
    assert ray_limit_predictor(ball, 1.0) == pytest.approx(1.0)
    # diagonal limit p / (2 sqrt(p - 1))
    assert ray_limit_predictor(egg4, 1.0) == pytest.approx(
        4.0 / (2.0 * math.sqrt(3.0)), rel=1e-13)
    big = domain_from_exponent(egg_profile(64.0))
    assert ray_limit_predictor(big, 1.0) == pytest.approx(
        64.0 / (2.0 * math.sqrt(63.0)), rel=1e-13)
    assert isinstance(ray_limit_predictor(egg4, 0.25), float)


def test_ray_limit_axis_cases(ball):
    assert ray_limit_predictor(ball, 0.0) is None
    assert ray_limit_predictor(ball, math.inf) is None
    with pytest.raises(DomainError):
        ray_limit_predictor(ball, -1.0)


def test_diagonal_norms_approach_limit(egg4):
    # ||L_{n,n}||^2 along the diagonal tends to p / (2 sqrt(p - 1))
    from rlab.leray import _leray_entries
    dual = dual_complement(egg4)
    ns = np.array([50.0, 100.0, 200.0])
    vals = np.exp(_leray_entries(egg4, dual, ns, ns))
    want = 4.0 / (2.0 * math.sqrt(3.0))
    assert abs(vals[-1] - want) / want < 0.02
    # monotone approach from below at these sizes
    assert vals[0] < vals[1] < vals[2]


# ---------------------------------------------------------------------------
# boundedness diagnostics
# ---------------------------------------------------------------------------

def test_ball_bounded_verdict(ball):
    rep = boundedness_report(ball, 32)
    assert rep.verdict == "bounded-consistent"
    assert rep.sup_full == pytest.approx(1.0, abs=1e-9)


def test_varying_bounded_verdict(varying):
    rep = boundedness_report(varying, 32)
    assert rep.verdict == "bounded-consistent"
    for d in rep.rays:
        assert d.rel_dev is not None and d.rel_dev < 0.05


@pytest.mark.parametrize("profile", [
    expression_profile(EX_PROFILE),
    tabulated_profile(np.linspace(0.0, 1.0, 5), [2.0, 3.0, 2.2, 4.0, 2.5]),
    egg_profile(3.0)], ids=["expression", "table", "egg3"])
def test_ray_values_are_the_entries(profile):
    # the report reads its rays off the norm grid; each value is the norm
    # at the ray's degree pair, evaluated on its own
    geom = domain_from_exponent(profile)
    dual = dual_complement(geom)
    rep = boundedness_report(geom, 32)
    for d in rep.rays:
        m = np.array([min(32, round(d.x * n)) for n in d.degrees], float)
        n = np.array(d.degrees, float)
        assert np.array_equal(np.array(d.values),
                              np.exp(_leray_entries(geom, dual, m, n)))


def test_boundedness_requires_moderate_degree(ball):
    with pytest.raises(DomainError):
        boundedness_report(ball, 8)


# ---------------------------------------------------------------------------
# radial nodes and determinism
# ---------------------------------------------------------------------------

TABLE = tabulated_profile(np.linspace(0.0, 1.0, 9),
                          [2.0, 3.0, 2.5, 4.0, 3.0, 2.2, 3.3, 2.8, 2.1])


# finite on (0, 1) but nan at s = 0 (0 log 0) or at s = 1, where the far
# tanh-sinh nodes round x or 1 - x
NAN_AT_0, NAN_AT_1 = "2+s*log(s)", "2+(1-s)*log(1-s)"


@pytest.mark.parametrize("profile", [
    expression_profile(EX_PROFILE), TABLE, expression_profile(NAN_AT_0),
    expression_profile(NAN_AT_1)], ids=["expression", "table", "nan_at_0",
                                        "nan_at_1"])
def test_radii_do_not_depend_on_the_batch(profile):
    # every point evaluated alone matches its value inside the batch of the
    # 1,565 level-7 nodes: the cumulative pass splits panels differently
    # for each batch, and its suffix sums keep that to rounding
    geom = domain_from_exponent(profile)
    _logw, lr1, lr2, _k = _radial_log_nodes(geom, 7)
    assert np.all(np.isfinite(lr1)) and np.all(np.isfinite(lr2))
    _k, x, xm, _w = tanh_sinh_indexed(7)
    assert x.size == 1565
    one = [slice(i, i + 1) for i in range(x.size)]
    alone1 = np.concatenate([geom.log_r1_xy(x[i], xm[i]) for i in one])
    alone2 = np.concatenate([geom.log_r2_xy(x[i], xm[i]) for i in one])
    assert np.max(np.abs(alone1 - lr1)) < 1e-13
    assert np.max(np.abs(alone2 - lr2)) < 1e-13


def test_moments_of_profiles_nan_at_an_endpoint():
    # p(1 - s) swaps the roles of r1 and r2, so I(m1, m2) becomes I(m2, m1)
    tab0 = moment_table(domain_from_exponent(expression_profile(NAN_AT_0)),
                        8, 8)
    tab1 = moment_table(domain_from_exponent(expression_profile(NAN_AT_1)),
                        8, 8)
    assert np.all(np.isfinite(tab0.log_I)) and np.all(tab0.converged)
    assert np.max(np.abs(tab0.log_I - tab1.log_I.T)) < 1e-12


# ---------------------------------------------------------------------------
# the moment kernel against the direct sum
# ---------------------------------------------------------------------------

def _direct_sums(geom, m1, m2, log_weight=None):
    """Level-7 and level-6 moment sums term by term, one degree pair per
    row of terms: the oracle of the scaled moment product."""
    logw, lr1, lr2, k = _radial_log_nodes(geom, 7)
    if log_weight is not None:
        logw = logw + log_weight(lr1, lr2)
    m1, m2 = np.broadcast_arrays(np.asarray(m1, float), np.asarray(m2, float))
    out = np.empty((2,) + m1.shape)
    for i in np.ndindex(m1.shape[:-1]):
        out[(slice(None),) + i] = nested_log_sums(
            logw + 2.0 * m1[i][:, None] * lr1 + 2.0 * m2[i][:, None] * lr2, k)
    return out


def _check_table(geom, M, idx):
    """moment_table at the degrees idx x idx against the direct sum: log I
    and the level gap, to 1e-12."""
    tab = moment_table(geom, M, M)
    fine, coarse = _direct_sums(geom, idx[:, None], idx[None, :])
    cut = np.ix_(idx, idx)
    assert np.max(np.abs(tab.log_I[cut] - fine)) < 1e-12
    assert np.max(np.abs(tab.err[cut] - np.abs(fine - coarse))) < 1e-12


KERNEL_PROFILES = {
    "expression": expression_profile(EX_PROFILE),
    "table": tabulated_profile(np.linspace(0.0, 1.0, 4), [2.0, 3.0, 2.5, 4.0]),
    "nan_at_0": expression_profile(NAN_AT_0),
    "steep": expression_profile("40+10*s")}


@pytest.mark.parametrize("M", [64, 200])
@pytest.mark.parametrize("dual", [False, True], ids=["domain", "dual"])
@pytest.mark.parametrize("name", list(KERNEL_PROFILES))
def test_moment_product_matches_direct_sum(name, dual, M):
    geom = domain_from_exponent(KERNEL_PROFILES[name])
    if dual:
        geom = dual_complement(geom)
    # every degree at M = 64; every 8th and the last 9 at M = 200
    idx = (np.arange(M + 1) if M == 64
           else np.unique(np.r_[0:M + 1:8, M - 8:M + 1]))
    _check_table(geom, M, idx)


def test_moment_product_floor_fallback():
    # near (400, 400) the row and column scales of 1.05+s miss the terms'
    # peak: without the floor these entries are off by up to 1.05e-6
    geom = domain_from_exponent(expression_profile("1.05+s"))
    _check_table(geom, 400, np.unique(np.r_[0:401:8, 383:401]))


def _norm_weight(lr1, lr2):
    return 0.75 * np.logaddexp(2.0 * lr1, 2.0 * lr2)


SPARSE_M1 = np.array([0.0, 3.0, 17.0, 250.0, 0.0])
SPARSE_M2 = np.array([0.0, 9.0, 2.0, 1.0, 300.0])


@pytest.mark.parametrize("name", ["expression", "steep"])
def test_sparse_weighted_moments_match_direct_sum(name):
    # the call shape of the nu norm: scattered pairs, the ||z||^{3/2}
    # weight, the dual radii
    dual = dual_complement(domain_from_exponent(KERNEL_PROFILES[name]))
    got = _log_moment_sums(dual, SPARSE_M1, SPARSE_M2, _norm_weight)
    want = _direct_sums(dual, SPARSE_M1, SPARSE_M2, _norm_weight)
    assert got.shape == (2, 5)
    assert np.max(np.abs(got - want)) < 1e-12


def test_moment_table_rerun_determinism():
    tab1 = moment_table(domain_from_exponent(expression_profile(EX_PROFILE)),
                        16, 16)
    tab2 = moment_table(domain_from_exponent(expression_profile(EX_PROFILE)),
                        16, 16)
    assert np.array_equal(tab1.log_I, tab2.log_I)
    assert np.array_equal(tab1.err, tab2.err)
    sparse = [_log_moment_sums(
        domain_from_exponent(expression_profile(EX_PROFILE)),
        SPARSE_M1, SPARSE_M2, _norm_weight) for _ in range(2)]
    assert np.array_equal(sparse[0], sparse[1])


@pytest.mark.parametrize("dual", [False, True], ids=["domain", "dual"])
@pytest.mark.parametrize("profile", [
    expression_profile(EX_PROFILE), expression_profile("40+10*s"),
    tabulated_profile([0.0, 0.25, 0.5, 0.75, 1.0], [2.0, 3.0, 2.5, 4.0, 3.0])],
    ids=["expression", "steep", "table"])
def test_one_column_table_is_the_wide_tables_column(profile, dual):
    # log_matmul sums a one-column operand as the first of two columns, so
    # column 0 of a table does not depend on how many columns it has
    geom = domain_from_exponent(profile)
    geom = dual_complement(geom) if dual else geom
    narrow, wide = moment_table(geom, 60, 0), moment_table(geom, 60, 7)
    assert narrow.log_I.tobytes() == wide.log_I[:, :1].tobytes()
    assert narrow.err.tobytes() == wide.err[:, :1].tobytes()
