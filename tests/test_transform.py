"""Transform tests: coefficient grids, the Laplace coefficient map, and the
three weighted norms.

The ball spot-check oracle for the exponential boundary norm was computed
independently by 3-D adaptive quadrature of the full (s, theta1, theta2)
boundary integral (scipy.integrate.tplquad) and frozen below.
"""

import json
import math

import numpy as np
import pytest

from rlab import transform
from rlab.errors import DomainError, IndexOutOfTable
from rlab.geometry import (domain_from_exponent, dual_complement, egg_profile,
                           expression_profile, tabulated_profile)
from rlab.leray import _radial_log_nodes, moment_table
from rlab.numerics import (_FLOOR, bessel_i0_log, log_gamma, log_matmul,
                           nested_log_sums, tanh_sinh_indexed)
from rlab.transform import (_R_LIMIT, CoefficientGrid, _antidiagonals,
                            _log_exp_norms, _logsumexp, _series_degree,
                            bergman_nu_norm_sq, bergman_omega_norm_sq,
                            exp_norm_sq, hardy_norm_sq, invert_laplace,
                            laplace_image_nu_norm_sq, laplace_map)


@pytest.fixture(scope="module")
def ball():
    return domain_from_exponent(egg_profile(2.0))


@pytest.fixture(scope="module")
def egg3():
    return domain_from_exponent(egg_profile(3.0))


def _grid(side, entries):
    return CoefficientGrid(side, dict(entries))


# ---------------------------------------------------------------------------
# coefficient grids
# ---------------------------------------------------------------------------

def test_grid_json_round_trip():
    g = _grid("hardy", {(0, 0): 1 + 2j, (3, 1): -0.5j})
    back = CoefficientGrid.from_json(json.dumps(g.to_json()))
    assert back.side == "hardy"
    assert back.entries == g.entries


def test_grid_validation():
    with pytest.raises(DomainError):
        CoefficientGrid("sobolev", {})
    with pytest.raises(DomainError):
        CoefficientGrid("hardy", {(-1, 0): 1.0})


@pytest.mark.parametrize("degree", [1.9, True, "1", math.inf, None])
def test_grid_json_rejects_non_integer_degrees(degree):
    # int() took 1.9, true and "1" as degree 1
    text = json.dumps({"entries": [{"m1": degree, "m2": 1, "re": 1.0}]})
    with pytest.raises(DomainError, match="degrees must be integers"):
        CoefficientGrid.from_json(text)


def test_grid_json_degrees_are_integers_and_distinct():
    g = CoefficientGrid.from_json(
        '{"entries": [{"m1": 1.0, "m2": 2, "re": 1.0}, {"m1": 2, "m2": 1}]}')
    assert [tuple(map(type, k)) for k in g.entries] == [(int, int)] * 2
    assert g.entries == {(1, 2): 1.0, (2, 1): 0.0}
    # a repeated pair kept only its last amplitude
    with pytest.raises(DomainError, match=r"repeats the degree pair \(1, 1\)"):
        CoefficientGrid.from_json('{"entries": [{"m1": 1, "m2": 1, "re": 1},'
                                  ' {"m1": 1.0, "m2": 1, "re": 5}]}')


@pytest.mark.parametrize("degree", [1e308, 1e307])
def test_grid_rejects_degrees_whose_sums_overflow(degree):
    # the norms form m1 + m2 and 2 m log r: at 1e308 they overflowed with
    # RuntimeWarnings, and a NaN reached int()
    for key in ((int(degree), int(degree)), (0, int(degree))):
        with pytest.raises(DomainError, match=r"at most 1e\+300"):
            CoefficientGrid("bergman", {key: 1.0})


def test_degree_1e200_reaches_the_omega_r_limit(egg3):
    # 1e300 and below keep the norms' sums finite: the nu norm is summed,
    # and the omega norm names its r limit
    beta = _grid("bergman", {(10 ** 200, 10 ** 200): 1.0})
    assert math.isfinite(bergman_nu_norm_sq(egg3, beta).log_value)
    with pytest.raises(DomainError, match=r"not r = 2e\+200$"):
        bergman_omega_norm_sq(egg3, beta)


def test_grid_support_sorted():
    g = _grid("hardy", {(2, 0): 1.0, (0, 1): 1.0, (1, 1): 1.0})
    assert g.support == [(0, 1), (1, 1), (2, 0)]


# ---------------------------------------------------------------------------
# Hardy norm and Laplace map
# ---------------------------------------------------------------------------

def test_hardy_norm_examples(ball):
    tab = moment_table(ball, 4, 4)
    # constant 1: (1/4) * I(0,0) = 1/4
    rep = hardy_norm_sq(ball, _grid("hardy", {(0, 0): 1.0}), tab)
    assert rep.value == pytest.approx(0.25, rel=1e-13)
    # z1 z2: (1/4) * B(2, 2) = 1/24
    rep2 = hardy_norm_sq(ball, _grid("hardy", {(1, 1): 1.0}), tab)
    assert rep2.value == pytest.approx(1.0 / 24.0, rel=1e-13)
    # additivity across orthogonal monomials
    both = hardy_norm_sq(ball, _grid("hardy", {(0, 0): 1.0, (1, 1): 1.0}), tab)
    assert both.value == pytest.approx(0.25 + 1.0 / 24.0, rel=1e-13)


def test_hardy_norm_guards(ball):
    tab = moment_table(ball, 2, 2)
    with pytest.raises(DomainError):
        hardy_norm_sq(ball, _grid("bergman", {(0, 0): 1.0}), tab)
    with pytest.raises(IndexOutOfTable):
        hardy_norm_sq(ball, _grid("hardy", {(3, 0): 1.0}), tab)


def test_laplace_map_example(ball):
    tab = moment_table(ball, 2, 2)
    # t = (1/4) conj(a) I / (m1! m2!); for (1, 1) on the ball I = 1/6
    image = laplace_map(ball, _grid("hardy", {(1, 1): 2.0 + 4.0j}), tab)
    assert image.side == "laplace"
    want = (2.0 - 4.0j) * (1.0 / 6.0) / 4.0
    assert image.entries[(1, 1)] == pytest.approx(want, rel=1e-13)


def test_laplace_round_trip(egg3):
    tab = moment_table(egg3, 6, 6)
    rng = np.random.default_rng(3)
    entries = {(int(m1), int(m2)): complex(rng.normal(), rng.normal())
               for m1 in range(7) for m2 in range(0, 7, 2)}
    a = _grid("hardy", entries)
    back = invert_laplace(egg3, laplace_map(egg3, a, tab), tab)
    assert back.side == "hardy"
    for key, val in entries.items():
        assert back.entries[key] == pytest.approx(val, rel=1e-12)


def test_laplace_map_matches_the_per_key_formula():
    # t = conj(a) exp(log I - log 4 - log m1! - log m2!) key by key, with
    # scalar log_gamma calls: the same bits from the vector gather
    geom = domain_from_exponent(expression_profile(VARYING))
    tab = moment_table(geom, 15, 15)
    rng = np.random.default_rng(16)
    entries = {(m1, m2): complex(rng.normal(), rng.normal())
               for m1 in range(16) for m2 in range(16)}
    entries[(3, 4)] = 0j
    scale = {(m1, m2): tab.log_I_at(m1, m2) - math.log(4.0)
             - log_gamma(m1 + 1.0) - log_gamma(m2 + 1.0) for m1, m2 in entries}
    image = laplace_map(geom, _grid("hardy", entries), tab)
    assert list(image.entries) == list(entries)
    for key, amp in entries.items():
        assert image.entries[key] == amp.conjugate() * math.exp(scale[key])
    back = invert_laplace(geom, image, tab)
    for key, amp in image.entries.items():
        assert back.entries[key] == amp.conjugate() * math.exp(-scale[key])


def test_invert_laplace_names_the_entry_that_overflows(egg3):
    # laplace_map of degree (100, 100) underflows to 0 (log scale -823.5);
    # its inverse computed math.exp(823.5), an OverflowError.  A finite
    # scale times an amplitude near the largest double overflows too
    tab = moment_table(egg3, 100, 100)
    image = laplace_map(egg3, _grid("hardy", {(1, 2): 1.0, (100, 100): 1.0}),
                        tab)
    assert image.entries[(100, 100)] == 0.0
    big = _grid("laplace", {(0, 0): 1.0, (5, 5): 1e308})
    for grid, key in ((image, r"\(100, 100\)"), (big, r"\(5, 5\)")):
        with pytest.raises(DomainError, match=f"^the inverse of entry {key} "
                           f"overflows a double$"):
            invert_laplace(egg3, grid, tab)


def test_one_log_gamma_call_per_map_inverse_and_nu_report(ball, monkeypatch):
    calls = []

    def counting(x):
        calls.append(np.size(x))
        return log_gamma(x)

    monkeypatch.setattr(transform, "log_gamma", counting)
    tab = moment_table(ball, 6, 6)
    a = _grid("hardy", {(m1, m2): 1.0 + m1 - 0.5j * m2
                        for m1 in range(7) for m2 in range(7)})
    image = laplace_map(ball, a, tab)
    invert_laplace(ball, image, tab)
    assert calls == [7, 7]                    # log m! over 0..6, twice
    beta = _grid("bergman", image.entries)
    for convention in ("exact_parametrized", "paper_equivalent"):
        del calls[:]
        bergman_nu_norm_sq(ball, beta, convention)
        assert calls == [49]
    del calls[:]
    laplace_image_nu_norm_sq(ball, a, tab)    # the scales, then the report
    assert calls == [7, 49]


@pytest.mark.parametrize("reader", [hardy_norm_sq, laplace_map,
                                    invert_laplace, laplace_image_nu_norm_sq])
@pytest.mark.parametrize("key", [(3, 0), (0, 3), (10 ** 30, 1)])
def test_table_readers_reject_keys_outside_the_table(ball, reader, key):
    side = "laplace" if reader is invert_laplace else "hardy"
    grid = _grid(side, {(1, 1): 1.0, key: 2.0, (4, 4): 1.0})
    match = rf"\({key[0]},{key[1]}\) outside"
    with pytest.raises(IndexOutOfTable, match=match):
        reader(ball, grid, moment_table(ball, 2, 2))


def test_laplace_side_guards(ball):
    tab = moment_table(ball, 2, 2)
    with pytest.raises(DomainError):
        laplace_map(ball, _grid("laplace", {(0, 0): 1.0}), tab)
    with pytest.raises(DomainError):
        invert_laplace(ball, _grid("hardy", {(0, 0): 1.0}), tab)


def test_logsumexp_is_scipys_bit_for_bit():
    # the norm reports' logsumexp against scipy.special's, on seeded random
    # vectors (sizes 1-300, scales 1-1000, repeated maxima, -inf entries)
    # and the edge cases
    from scipy.special import logsumexp

    rng = np.random.default_rng(24)
    cases = [[], [-math.inf] * 3, [1.0, math.inf, 2.0], [0.5, math.nan, 2.0],
             [709.9, 3.0, 709.9, 709.9], [1e308, 1e308], [-1e308, -1e308],
             [1e308, -1e308]]
    for _ in range(20_000):
        a = rng.normal(scale=rng.uniform(1.0, 1000.0),
                       size=rng.integers(1, 301))
        if rng.random() < 0.3:
            a[rng.integers(0, a.size, size=3)] = a.max()
        if rng.random() < 0.3:
            a[rng.random(a.size) < 0.2] = -math.inf
        cases.append(a if rng.random() < 0.5 else a.tolist())
    for a in cases:
        with np.errstate(over="ignore"):  # scipy's -1e308 - 1e308
            want = np.float64(logsumexp(a))
        assert np.float64(_logsumexp(a)).tobytes() == want.tobytes(), a


# ---------------------------------------------------------------------------
# explicit-weight norm
# ---------------------------------------------------------------------------

def test_nu_ball_constant():
    # ball, beta = delta_{0,0}: J = int (s + 1-s)^{3/4} ds = 1, so the norm
    # is (1/4) Gamma(7/2) / 2^{7/2}
    ball = domain_from_exponent(egg_profile(2.0))
    rep = bergman_nu_norm_sq(ball, _grid("bergman", {(0, 0): 1.0}))
    want = 0.25 * math.gamma(3.5) / 2.0 ** 3.5
    assert rep.value == pytest.approx(want, rel=1e-12)
    assert rep.convention == "exact_parametrized"


def test_nu_scales_quadratically(egg3):
    one = bergman_nu_norm_sq(egg3, _grid("bergman", {(2, 1): 1.0}))
    three = bergman_nu_norm_sq(egg3, _grid("bergman", {(2, 1): 3.0}))
    assert three.value == pytest.approx(9.0 * one.value, rel=1e-12)


def test_nu_paper_equivalent_convention(ball):
    # model series sum |beta|^2 ((M+1)!)^2 I_dual; the ball is self-dual so
    # for (0, 0) this is just 1
    rep = bergman_nu_norm_sq(ball, _grid("bergman", {(0, 0): 1.0}),
                             convention="paper_equivalent")
    assert rep.value == pytest.approx(1.0, rel=1e-10)
    with pytest.raises(DomainError):
        bergman_nu_norm_sq(ball, _grid("bergman", {(0, 0): 1.0}),
                           convention="other")


def test_nu_side_guard(ball):
    with pytest.raises(DomainError):
        bergman_nu_norm_sq(ball, _grid("hardy", {(0, 0): 1.0}))


# ---------------------------------------------------------------------------
# exponential boundary norm
# ---------------------------------------------------------------------------

# frozen oracle: full 3-D boundary quadrature on the ball (see module
# docstring); keys are (r, t)
BALL_EXP_ORACLE = {
    (2.0, 0.5): 1.2199331442130563,
    (5.0, 0.2): 133.54941518506274,
    (10.0, 0.5): 1061374.3346281939,
    (20.0, 0.8): 183842452040741.75,
    (35.0, 0.35): 8.5212505634945e+26,
}


@pytest.mark.parametrize("key", sorted(BALL_EXP_ORACLE))
def test_exp_norm_matches_3d_oracle(ball, key):
    r, t = key
    got = exp_norm_sq(ball, r, t)
    want = BALL_EXP_ORACLE[key]
    assert math.exp(got - math.log(want)) == pytest.approx(
        1.0, abs=1e-6)


def test_exp_norm_at_zero(ball):
    # E(0, t) = (1/4) int ds = 1/4 for every t
    for t in (0.0, 0.5, 1.0):
        got = exp_norm_sq(ball, 0.0, t)
        assert math.exp(got) == pytest.approx(0.25, rel=1e-12)


def test_exp_norm_guards(ball):
    # one bad element of an array is enough, NaN included
    for r, t in [(-1.0, 0.5), (1.0, 1.5), ([2.0, -1.0], 0.5),
                 ([2.0, math.nan], 0.5), (2.0, [0.5, 1.5]),
                 (2.0, [0.5, math.nan]), ([[2.0], [3.0]], [-0.1, 0.5])]:
        with pytest.raises(DomainError):
            exp_norm_sq(ball, r, t)


@pytest.mark.parametrize("r", [math.nan, math.inf])
def test_exp_norm_rejects_non_finite_r(ball, r):
    with pytest.raises(DomainError):
        exp_norm_sq(ball, r, 0.5)


def test_exp_norm_monotone_in_r(ball):
    vals = [exp_norm_sq(ball, r, 0.3)
            for r in (1.0, 2.0, 4.0, 8.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_exp_norm_rejects_r_past_the_series_limit(ball):
    with pytest.raises(DomainError, match="r <= 1000"):
        exp_norm_sq(ball, 1000.5, 0.5)


@pytest.mark.parametrize("m1, r", [(791, "1000.98"), (10 ** 30, r"1e\+30")],
                         ids=["791", "1e30"])
def test_omega_rejects_r_past_the_series_limit(egg3, m1, r):
    # checked before the r nodes are built: at degree 1e30 there would be
    # about 1e16 of them
    beta = CoefficientGrid("bergman", {(m1, 0): 1.0})
    with pytest.raises(DomainError, match=f"not r = {r}$"):
        bergman_omega_norm_sq(egg3, beta)


# ---------------------------------------------------------------------------
# the exponential-norm kernel against the Bessel integrand
# ---------------------------------------------------------------------------

# the omega norm's largest r at the degree pair (60, 60): its peak
# 60 + 60 + 1.25, then 40 + 6 sqrt(peak + 1)
R_MAX_60 = 121.25 + 40.0 + 6.0 * math.sqrt(122.25)
VARYING = "2+1/log(10/s)"
KERNEL_DOMAINS = {
    "egg3": lambda: domain_from_exponent(egg_profile(3.0)),
    "varying": lambda: domain_from_exponent(expression_profile(VARYING)),
    "table": lambda: domain_from_exponent(tabulated_profile(
        [0.0, 0.3, 0.7, 1.0], [2.5, 3.5, 2.2, 4.0])),
    "varying_dual": lambda: dual_complement(
        domain_from_exponent(expression_profile(VARYING))),
}


@pytest.fixture(scope="module", params=sorted(KERNEL_DOMAINS))
def kernel_domain(request):
    return KERNEL_DOMAINS[request.param]()


def _t_nodes(geom):
    # every t node of the omega norm's level-3 rule, the extreme ones
    # (r1* or r2* below 1e-110) included
    _k, x, xm, _w = tanh_sinh_indexed(3)
    return geom.log_r1_star_xy(x, xm), geom.log_r2_star_xy(x, xm)


def _bessel_log_exp_norms(geom, rs, lr1t, lr2t, level):
    """log E(r, t) at s-levels `level` and `level - 1`: the tanh-sinh sums
    of (1/4) I0(2 r r1(s) r1*(t)) I0(2 r r2(s) r2*(t)), term by term."""
    logw, lr1, lr2, k = _radial_log_nodes(geom, level)
    r = rs[:, None, None]
    terms = (logw + bessel_i0_log(2.0 * r * np.exp(lr1 + lr1t[:, None]))
             + bessel_i0_log(2.0 * r * np.exp(lr2 + lr2t[:, None])))
    return np.array(nested_log_sums(terms, k)) - math.log(4.0)


def test_exp_norm_kernel_matches_bessel_sum(kernel_domain):
    lr1t, lr2t = _t_nodes(kernel_domain)
    rs = np.linspace(0.0, R_MAX_60, 13)
    got = _log_exp_norms(kernel_domain, rs, lr1t, lr2t, 4)
    want = _bessel_log_exp_norms(kernel_domain, rs, lr1t, lr2t, 4)
    assert got.shape == want.shape == (2, rs.size, lr1t.size)
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("t", [0.0, 1.0, 0.3, 0.7])
def test_exp_norm_at_the_ends_matches_bessel_sum(kernel_domain, t):
    # exp_norm_sq sums at s-level 6, and r1*(0) = r2*(1) = 0; r = 300
    # (degrees 0..434 of the series) at t = 0.3 and 0.7, on either side of
    # r1*(t) = r2*(t) on egg 3
    lr1t = np.array([kernel_domain.log_r1_star(t)])
    lr2t = np.array([kernel_domain.log_r2_star(t)])
    for r in (0.0, 35.0, R_MAX_60) if t in (0.0, 1.0) else (300.0,):
        want = _bessel_log_exp_norms(kernel_domain, np.array([r]),
                                     lr1t, lr2t, 6)[0, 0, 0]
        assert exp_norm_sq(kernel_domain, r, t) == pytest.approx(
            want, rel=0, abs=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", [0.0, 1.0])
def test_exp_norm_at_the_ends_of_a_dual(t):
    # the value a dual gave when exp_norm_sq set log r1*(0) and log r2*(1)
    # to -inf itself and took the other radius from log_radii
    dual = KERNEL_DOMAINS["varying_dual"]()
    lr1, lr2 = dual.log_radii(t)
    lr1t = float(np.log(t) - lr1) if t > 0 else -math.inf
    lr2t = float(np.log1p(-t) - lr2) if t < 1 else -math.inf
    for r in (0.0, 35.0, R_MAX_60):
        want = _log_exp_norms(dual, np.array([r]), np.array([lr1t]),
                              np.array([lr2t]), 6)[0, 0, 0]
        assert exp_norm_sq(dual, r, t) == want


def test_exp_norm_over_arrays(kernel_domain):
    # r of shape R and t of shape T give log E on R + T from one kernel call
    rs = np.array([[0.0, 0.5, 5.0], [35.0, 120.0, 300.0]])
    ts = np.array([0.0, 0.1, 0.3, 0.5, 0.7, 1.0])
    got = exp_norm_sq(kernel_domain, rs, ts)
    assert got.shape == (2, 3, 6)
    want = _log_exp_norms(kernel_domain, rs.ravel(),
                          kernel_domain.log_r1_star(ts),
                          kernel_domain.log_r2_star(ts), 6)[0]
    assert got.tobytes() == want.tobytes()
    assert exp_norm_sq(kernel_domain, rs[1], 0.3).shape == (3,)
    assert exp_norm_sq(kernel_domain, 5.0, ts).shape == (6,)
    assert exp_norm_sq(kernel_domain, [], ts).shape == (0, 6)
    # a one-point array is the scalar call bit for bit; over a grid the
    # entries share one series degree (from the largest r) and one balance
    # lam_n (over all t), which moves their last bits (3.5e-16 here)
    for r, t in ((0.5, 0.3), (300.0, 1.0)):
        one = exp_norm_sq(kernel_domain, [r], [t])
        assert one.shape == (1, 1)
        assert one[0, 0] == exp_norm_sq(kernel_domain, r, t)
    scalar = np.array([[exp_norm_sq(kernel_domain, r, t) for t in ts]
                       for r in rs.ravel()]).reshape(got.shape)
    assert np.all(np.abs(got - scalar) <= 1e-15 * np.maximum(1.0,
                                                             abs(scalar)))


@pytest.mark.parametrize("n", [1, 2, 131, 345, _series_degree(_R_LIMIT) - 3])
def test_antidiagonals_match_the_fancy_gather(n):
    # D[l, i, j] = mu[l, j, i - j] (-inf for j > i) in both orientations,
    # from a moment box laid out as _log_moment_sums leaves it (levels
    # innermost), against the fancy gather it replaces
    sums = np.random.default_rng(n).normal(size=(2, n + 1, n + 1))
    j = np.arange(n + 1)
    mu = sums[:, j[:, None], j]
    assert not mu.flags.c_contiguous
    k = j[:, None] - j
    for m in (mu, mu.swapaxes(1, 2)):
        got = _antidiagonals(m)
        assert got.flags.c_contiguous
        assert got.tobytes() == np.where(k >= 0, m[:, j, k], -np.inf).tobytes()


def test_exp_series_tail_is_negligible(kernel_domain):
    # term n of the series is at most mu_00 r^{2n} / (n!)^2 / 4, with
    # mu_00 the sum of the s weights; sum those bounds past the last degree
    # and compare them with E at every r and t node
    lr1t, lr2t = _t_nodes(kernel_domain)
    rs = np.linspace(0.0, R_MAX_60, 13)[1:]
    log_e = _log_exp_norms(kernel_domain, rs, lr1t, lr2t, 4)[0]
    n = _series_degree(R_MAX_60)
    m = np.arange(n + 1.0, 3.0 * n + 100.0)
    log_terms = 2.0 * m * np.log(rs)[:, None] - 2.0 * log_gamma(m + 1.0)
    mx = log_terms.max(axis=1)
    log_tail = np.log(np.exp(log_terms - mx[:, None]).sum(axis=1)) + mx
    log_mu00 = np.log(np.exp(_radial_log_nodes(kernel_domain, 4)[0]).sum())
    rel = np.exp(log_mu00 + log_tail[:, None] - math.log(4.0) - log_e)
    assert rel.max() < 1e-16


# ---------------------------------------------------------------------------
# exponential-moment weighted norm
# ---------------------------------------------------------------------------

BALL_OMEGA_00 = 1.3256101628697334  # frozen from a fine-grid evaluation


def test_omega_ball_constant(ball):
    rep = bergman_omega_norm_sq(ball, _grid("bergman", {(0, 0): 1.0}))
    assert rep.value == pytest.approx(BALL_OMEGA_00, rel=1e-6)


def test_omega_empty_grid(ball):
    rep = bergman_omega_norm_sq(ball, _grid("bergman", {}))
    assert rep.value == 0.0


def test_omega_side_guard(ball):
    with pytest.raises(DomainError):
        bergman_omega_norm_sq(ball, _grid("laplace", {(0, 0): 1.0}))


def test_omega_dominates_nu(egg3):
    # the exponential-moment weight is pointwise comparable to but larger
    # than the explicit weight in total mass; per-monomial ratios stay in a
    # narrow band (the equivalence behind the norm comparison)
    ratios = []
    for key in [(0, 0), (2, 1), (5, 5)]:
        om = bergman_omega_norm_sq(egg3, _grid("bergman", {key: 1.0}))
        nu = bergman_nu_norm_sq(egg3, _grid("bergman", {key: 1.0}))
        ratios.append(om.value / nu.value)
    assert all(r > 1.0 for r in ratios)
    assert max(ratios) / min(ratios) < 1.5


# log omega norms of single monomials on the egg p = 3 at s- and t-level 6
# (r-rule as in the library), frozen
EGG3_OMEGA_REF = {(15, 15): 126.78436859299526, (30, 30): 328.0040839200187}


@pytest.mark.parametrize("key", sorted(EGG3_OMEGA_REF))
def test_omega_error_estimate_is_honest(egg3, key):
    rep = bergman_omega_norm_sq(egg3, _grid("bergman", {key: 1.0}))
    true_rel = abs(math.expm1(rep.log_value - EGG3_OMEGA_REF[key]))
    assert rep.err_est / rep.value >= true_rel
    assert rep.rel_err == pytest.approx(rep.err_est / rep.value, rel=1e-12)


def _omega_t_first(geom, beta):
    """(log value, rel_err) of the omega norm summed pair by pair, t first:
    for each pair the t-sums at every r node, then the r-sum, on the
    library's r-rule, t-level 3 and s-levels 4 and 3."""
    from scipy.special import logsumexp

    k_t, x, xm, w = tanh_sinh_indexed(3)
    lr1t, lr2t = geom.log_r1_star_xy(x, xm), geom.log_r2_star_xy(x, xm)
    peak = max(m1 + m2 for m1, m2 in beta.entries) + 1.25
    r_max = peak + 40.0 + 6.0 * math.sqrt(peak + 1.0)
    gx, gw = np.polynomial.legendre.leggauss(12)
    n_panels = int(math.ceil(r_max / max(2.0, math.sqrt(peak))))
    half = 0.5 * r_max / n_panels
    rs = ((2.0 * np.arange(n_panels) + 1.0)[:, None] + gx).ravel() * half
    logw_r = np.log(np.tile(half * gw, n_panels))
    log_e = _log_exp_norms(geom, rs, lr1t, lr2t, 4)
    terms, errs = [], []
    for (m1, m2), amp in sorted(beta.entries.items()):
        g = ((logw_r + (2.0 * (m1 + m2) + 1.0) * np.log(rs))[:, None]
             + np.log(w) + 2.0 * m1 * lr1t + 2.0 * m2 * lr2t - log_e)
        fine, coarse = nested_log_sums(g, k_t)
        val, val_s3, val_t2 = logsumexp(np.vstack((fine, coarse[:1])), axis=-1)
        terms.append(2.0 * math.log(abs(amp)) - math.log(4.0) + val)
        errs.append(terms[-1] + math.log(abs(val - val_s3)
                                         + abs(val - val_t2)))
    log_value = float(logsumexp(terms))
    return log_value, math.exp(float(logsumexp(errs)) - log_value)


def _fallback_entries(log_a, log_b):
    # the entries log_matmul sums again term by term
    ca = np.nan_to_num(log_a.max(axis=1, keepdims=True), neginf=0.0)
    cb = np.nan_to_num(log_b.max(axis=0, keepdims=True), neginf=0.0)
    prod = np.einsum("ik,kj->ij", np.exp(log_a - ca), np.exp(log_b - cb))
    return int(np.count_nonzero(~(prod >= _FLOOR)))


def _omega_matches_t_first(geom, beta, monkeypatch):
    fallbacks = []

    def counting(log_a, log_b):
        fallbacks.append(_fallback_entries(log_a, log_b))
        return log_matmul(log_a, log_b)

    monkeypatch.setattr(transform, "log_matmul", counting)
    rep = bergman_omega_norm_sq(geom, beta)
    assert fallbacks[-1] == 0    # the r-first product, the last one
    log_value, rel_err = _omega_t_first(geom, beta)
    assert rep.log_value == pytest.approx(log_value, rel=0, abs=1e-12)
    assert rep.rel_err == pytest.approx(rel_err, rel=1e-6, abs=1e-12)


@pytest.mark.parametrize("m", [15, 30, 60, 120])
def test_omega_r_first_matches_t_first(kernel_domain, m, monkeypatch):
    _omega_matches_t_first(kernel_domain,
                           _grid("bergman", {(m, m): 1.0}), monkeypatch)


def test_omega_r_first_matches_t_first_on_a_box(egg3, monkeypatch):
    rng = np.random.default_rng(4)
    _omega_matches_t_first(egg3, _grid("bergman", {
        (m1, m2): complex(rng.normal(), rng.normal())
        for m1 in range(4) for m2 in range(4)}), monkeypatch)


def test_omega_error_estimate_is_measured(egg3):
    rep = bergman_omega_norm_sq(egg3, _grid("bergman", {(2, 1): 1.0}))
    assert rep.err_est > 0.0
