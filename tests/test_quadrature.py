"""Quadrature engine invariants: normalization, refinement, determinism."""

import dataclasses
import functools
import logging
import math
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.laguerre import laggauss
from scipy.special import eval_hermite, exp1, gammainccinv, gammaln, roots_hermite

from wehrlkit import (
    EULER_GAMMA,
    ConvexCombinationHusimi,
    CovarianceModel,
    DimensionMismatch,
    FockHusimi,
    FockMixtureState,
    GaussianHusimi,
    HusimiEvaluator,
    IntegralResult,
    NoonHusimi,
    NoonMarginalHusimi,
    NoonState,
    ProductHusimi,
    QuadratureSpec,
    SupportViolation,
    ThermalHusimi,
    ToleranceNotReached,
    UnsupportedState,
    density_entropies_1d,
    density_entropy_1d,
    density_normalization_1d,
    entropy_functional,
    entropy_functionals,
    evaluator_for,
    gamma_tail_threshold,
    integrate,
    normalization,
    relative_entropy,
    random_admissible_covariance,
    tmss_covariance,
    wehrl_fock_closed,
    wehrl_gaussian_joint,
    wehrl_mutual_information,
    wehrl_quadrature,
    wehrl_relative_entropy,
    wehrl_thermal_closed,
)
from wehrlkit.gaussian import ModePartition
from wehrlkit.husimi import (
    FockMixtureHusimi,
    FockMixturePositionDensity,
    FockPositionDensity,
    ThermalPositionDensity,
    marginal_husimi,
)
from wehrlkit.quadrature import (
    LOG_SUPPORT,
    LOG_TINY,
    _PANEL_NODES,
    _cartesian,
    _cross_factor,
    _density_terms,
    _entropy_factor,
    _gamma_tail_inverse,
    _hermite_rule,
    _laguerre_axes,
    _log_factor,
    _profile_terms,
    _run_1d,
    _Segments,
    _TAIL_MASS,
    _unit_axes,
    _unit_factor,
    _unit_panels,
)

from traced_marginal import QuadratureMarginalHusimi


def _panel_nodes(a, b, n_nodes, breakpoints=(), graded=False, doublings=0):
    """The composite Gauss-Legendre layout of one level of ``_run_1d`` on [a, b].

    About ``n_nodes`` nodes, ``_PANEL_NODES`` a panel, with panel edges at
    the breakpoints inside (a, b) and every panel halved ``doublings``
    times: ``_unit_panels`` scaled to [a, b] without breakpoints, the
    segments of ``_Segments`` with them.  The layout tests check it
    against a panel-by-panel loop, and the level tests read ``_run_1d``'s
    levels against it.
    """
    inner = sorted({p for p in map(float, breakpoints) if a < p < b})
    total = b - a
    n_panels = max(1, int(n_nodes) // _PANEL_NODES)
    if not inner:
        x, w = _unit_panels(n_panels << doublings, graded)
        # a + total x, without the call that adds a zero a
        return (a + total * x if a else total * x), total * w
    return _Segments(a, b, inner, n_panels, graded).layout(doublings)


EVALUATORS = [
    FockHusimi(0),
    FockHusimi(1),
    FockHusimi(7),
    ThermalHusimi(0.4),
    GaussianHusimi(tmss_covariance(0.6)),
    NoonHusimi(0),
    NoonHusimi(1),
    NoonHusimi(4),
    NoonMarginalHusimi(3),
    FockMixtureHusimi([(0, 0.3), (4, 0.7)]),
    ProductHusimi(FockHusimi(2), ThermalHusimi(0.8)),
]


def test_spec_validation():
    # the densities' kind picks the runner, so no field names one
    with pytest.raises(TypeError):
        QuadratureSpec(strategy="auto")
    with pytest.raises(TypeError):
        QuadratureSpec(angular_nodes=16)
    # every runner solves its own cutoff from the integrand's tail
    with pytest.raises(TypeError):
        QuadratureSpec(radial_cutoff=9.0)
    with pytest.raises(ValueError):
        QuadratureSpec(radial_nodes=0)
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=-1.0)
    with pytest.raises(ValueError):
        QuadratureSpec(parallelism=0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_escalations=-1)


@pytest.mark.parametrize("field, value", [
    ("abs_tol", math.nan),
    ("abs_tol", math.inf),
    ("rel_tol", math.nan),
    ("rel_tol", math.inf),
])
def test_spec_rejects_unusable_tolerances(field, value):
    # a NaN tolerance is never met, and an infinite one accepts anything
    with pytest.raises(ValueError):
        QuadratureSpec(**{field: value})


@pytest.mark.parametrize("ev", EVALUATORS, ids=lambda e: type(e).__name__ + str(getattr(e, "excitation", getattr(e, "n", ""))))
def test_normalization_is_one(ev):
    res = normalization(ev)
    assert abs(res.value - 1.0) < 1e-7
    assert res.error_estimate < 1e-6
    assert res.nodes_used > 0


def test_doubling_self_consistency():
    """Doubling node counts moves the value by at most the reported error."""
    cases = [FockHusimi(5), ThermalHusimi(0.2), NoonHusimi(2)]
    for ev in cases:
        coarse_spec = QuadratureSpec(radial_nodes=200)
        fine_spec = QuadratureSpec(radial_nodes=400)
        coarse = entropy_functional(ev, coarse_spec)
        fine = entropy_functional(ev, fine_spec)
        assert abs(fine.value - coarse.value) <= coarse.error_estimate + 1e-12


def test_cutoff_insensitivity(monkeypatch):
    """Widening the solved radial cutoff by 25 percent shifts results below abs_tol."""
    spec = QuadratureSpec()
    cases = (FockHusimi(6), FockMixtureHusimi([(0, 0.3), (2, 0.7)]))
    default = [entropy_functional(ev, spec) for ev in cases]
    widened = []

    def wider(*args):
        widened.append(1.25 * gamma_tail_threshold(*args))
        return widened[-1]

    monkeypatch.setattr("wehrlkit.quadrature.gamma_tail_threshold", wider)
    for ev, a in zip(cases, default):
        b = entropy_functional(ev, spec)
        assert abs(a.value - b.value) < spec.abs_tol
    assert len(widened) == len(cases)
    # a thermal integral runs on Gauss-Laguerre nodes, with no cutoff to widen
    entropy_functional(ThermalHusimi(0.3), spec)
    assert len(widened) == len(cases)


def test_gamma_tail_threshold_monotone():
    r1 = gamma_tail_threshold(2.0, 1.0, 1e-10)
    r2 = gamma_tail_threshold(2.0, 1.0, 1e-14)
    assert r2 > r1 > 0.0
    # heavier tails (smaller rate) push the cutoff out
    assert gamma_tail_threshold(2.0, 0.5, 1e-10) > r1


def test_gamma_tail_threshold_matches_the_incomplete_gamma_inverse():
    for shape in range(58):
        for tail_mass in np.logspace(-2, -280, 140):
            expected = math.sqrt(2.0 * gammainccinv(shape + 2.0, tail_mass) / 0.7)
            got = gamma_tail_threshold(float(shape), 0.7, tail_mass)
            assert got == pytest.approx(expected, rel=1e-13, abs=0.0), (shape, tail_mass)


def _gamma_tail_inverse_plain(a, tail_mass):
    # the Newton steps of ``_gamma_tail_inverse`` with the full sum over
    # every term, the reference for its early stop
    log_p = math.log(tail_mass)
    log_last = -math.lgamma(a)
    x = 2.0 * (a * math.log(2.0) - log_p)
    for _ in range(100):
        ratio = term = 1.0
        for k in range(a - 1, 0, -1):
            term *= k / x
            ratio += term
        log_q = -x + (a - 1) * math.log(x) + log_last + math.log(ratio)
        step = (log_q - log_p) * ratio
        x += step
        if abs(step) <= 1e-15 * x:
            break
    return x


@pytest.mark.parametrize("a", [1, 2, 3, 7, 13, 52, 151, 652])
def test_gamma_tail_inverse_stops_its_sum_without_moving_a_bit(a):
    # the sum stops at the first term that leaves it unchanged; near p = 1
    # the root x lies below a - 1, where the terms first grow
    masses = [*np.logspace(-1, -280, 29), 0.5, 0.9, 0.999]
    for tail_mass in masses:
        got = _gamma_tail_inverse.__wrapped__(a, float(tail_mass))
        assert got == _gamma_tail_inverse_plain(a, float(tail_mass)), (a, tail_mass)
    assert _gamma_tail_inverse_plain(a, 0.999) < a - 1 or a < 3


def test_gamma_tail_threshold_rejects_a_non_integer_shape():
    with pytest.raises(ValueError, match="not a nonnegative integer"):
        gamma_tail_threshold(1.5, 1.0, 1e-10)


@pytest.mark.parametrize("m", [2, 4, 8, 24, 48, 96, 192])
def test_hermite_rule_matches_scipy(m):
    t, lw = _hermite_rule(m)
    t_ref, w_ref = roots_hermite(m)
    assert np.all(np.abs(t - t_ref) <= 1e-13 * np.maximum(1.0, np.abs(t_ref)))
    normal = w_ref >= np.finfo(float).tiny
    assert np.all(np.abs(lw - (np.log(w_ref) + t_ref**2))[normal] <= 1e-12)
    assert not t.flags.writeable and not lw.flags.writeable
    assert _hermite_rule(m)[0] is t


def _hermite_rule_with_its_own_recurrence(m):
    """The rule as built before it shared the densities' recurrence: every
    phi_k in a fresh array, from the raw Jacobi eigenvalues."""
    t = np.linalg.eigvalsh(np.diag(np.sqrt(0.5 * np.arange(1, m)), -1))

    def hermite_functions(t):
        phis = [np.zeros_like(t), math.pi ** -0.25 * np.exp(-0.5 * t * t)]
        for k in range(m):
            phis.append(math.sqrt(2.0 / (k + 1)) * t * phis[-1]
                        - math.sqrt(k / (k + 1.0)) * phis[-2])
        return phis[1:]

    for _ in range(2):
        phis = hermite_functions(t)
        t = t - phis[m] / (math.sqrt(2.0 * m) * phis[m - 1])
    t = 0.5 * (t - t[::-1])
    phis = hermite_functions(t)
    return t, -np.log(functools.reduce(np.add, (phi * phi for phi in phis[:m])))


def test_hermite_rule_is_the_rule_of_its_own_recurrence():
    # sharing the recurrence of the line densities moved no bit of any rule
    for m in [*range(2, 100), 128, 192, 256, 384]:
        t, lw = _hermite_rule(m)
        t_ref, lw_ref = _hermite_rule_with_its_own_recurrence(m)
        assert np.array_equal(t, t_ref) and np.array_equal(lw, lw_ref), m


def test_hermite_rule_at_the_finest_level_integrates_even_moments():
    # at 384 nodes the outer weights underflow, so the rule is checked
    # by what it integrates
    t, lw = _hermite_rule(384)
    assert np.array_equal(t, -t[::-1])
    w = np.exp(lw - t * t)
    assert math.fsum(w) == pytest.approx(math.sqrt(math.pi), rel=1e-14, abs=0.0)
    for k in range(6):
        assert math.fsum(w * t ** (2 * k)) == pytest.approx(math.gamma(k + 0.5), rel=1e-12,
                                                           abs=0.0)


def _meshgrid_level(f, dim, m):
    """``integrate``'s value on m Gauss-Hermite nodes an axis, from ``np.meshgrid``.

    Under the default envelope the nodes are sqrt(2) t and the measure
    prefactor is pi^(-dim/2).  The runner sums the first axis in chunks of
    500,000 // m^(dim-1) slabs and adds the chunk sums with ``math.fsum``;
    the sum here splits the same way.  Also returns the nodes.
    """
    t, lw = _hermite_rule(m)
    grid = np.meshgrid(*[t] * dim, indexing="ij")
    pts = np.stack(grid, axis=-1).reshape(-1, dim) @ (math.sqrt(2.0) * np.eye(dim)).T
    lw_sum = functools.reduce(np.add.outer, [lw] * dim, 0.0).reshape(-1)
    terms = np.exp(lw_sum) * f(pts)
    rest = m ** (dim - 1)
    chunk = max(1, 500_000 // rest) * rest
    parts = [float(np.sum(terms[i:i + chunk])) for i in range(0, terms.size, chunk)]
    return math.exp(0.0 - 0.5 * dim * math.log(math.pi)) * math.fsum(parts), pts


@pytest.mark.parametrize("dim, m", [(1, 24), (2, 24), (4, 8), (4, 16)])
def test_cartesian_levels_are_the_meshgrid_rule(dim, m):
    # the runner fills its grid axis by axis; a non-Gaussian integrand
    # sees the nodes of the tensor rule, in its order, and gets its sum,
    # bit for bit; at m = 16 in 4D the finer level (32 an axis) runs in
    # three chunks
    f = lambda pts: np.cos(pts[:, 0]) ** 2 + np.abs(pts[:, -1])
    seen = []

    def recorded(pts):
        seen.append(pts.copy())
        return f(pts)

    spec = QuadratureSpec(cartesian_nodes_per_dim=m, abs_tol=1e300, rel_tol=1e300)
    res = integrate(recorded, spec, dim=dim)
    assert res.nodes_used == m ** dim + (2 * m) ** dim
    base, base_pts = _meshgrid_level(f, dim, m)
    fine, fine_pts = _meshgrid_level(f, dim, 2 * m)
    assert res.value == fine and res.error_estimate == abs(fine - base)
    assert np.array_equal(seen[0], base_pts)
    assert len(seen) == (4 if (dim, m) == (4, 16) else 2)
    assert np.array_equal(np.concatenate(seen[1:]), fine_pts)


def _cartesian_entropy(ev, tol, **fields):
    """The entropy on the whitened Gauss-Hermite rule alone, a product unsplit."""
    spec = QuadratureSpec(abs_tol=tol, rel_tol=tol, **fields)
    return _cartesian(ev, None, _entropy_factor, spec, "entropy functional")


def test_radial_and_cartesian_strategies_agree():
    # the entropy integrand has a log cusp, so the whitened Hermite rule
    # converges algebraically; 1e-5 is a reachable target for it
    ev = FockHusimi(3)
    radial = entropy_functional(ev)
    cartesian = _cartesian_entropy(ev, 1e-5)
    assert abs(radial.value - cartesian.value) < 1e-6


def test_noon_polar_and_cartesian_strategies_agree():
    ev = NoonHusimi(1)
    polar = entropy_functional(ev)
    cartesian = _cartesian_entropy(ev, 1e-3, cartesian_nodes_per_dim=32)
    assert abs(polar.value - cartesian.value) < 2e-3


def test_forced_strategy_must_fit_the_evaluator():
    # the cartesian rule, the cross-check of the other runners, must fit
    # every evaluator: a two-mode Gaussian, and a product of two radial
    # factors that the router splits into two 1D integrals but the
    # cartesian rule integrates jointly in 4D
    cov = tmss_covariance(0.2)
    res = _cartesian_entropy(GaussianHusimi(cov), 1e-9)
    assert abs(res.value - wehrl_gaussian_joint(cov)) <= res.error_estimate + 1e-9
    prod = ProductHusimi(FockHusimi(0), ThermalHusimi(0.5))
    res = _cartesian_entropy(prod, 1e-9)
    assert abs(res.value - (1.0 + wehrl_thermal_closed(0.5))) <= res.error_estimate + 1e-9
    assert res.nodes_used > entropy_functional(prod).nodes_used


def test_polar_2d_handles_zero_frequency():
    # N = 0 is the vacuum in both modes, whose entropy is 1 + 1; the phase
    # difference carries no frequency, so the angle average is trivial
    spec = QuadratureSpec()
    res = entropy_functional(NoonHusimi(0), spec)
    assert abs(res.value - 2.0) <= res.error_estimate + spec.abs_tol


def test_parallelism_is_deterministic():
    for ev in (NoonHusimi(2), GaussianHusimi(tmss_covariance(0.5))):
        values = [
            entropy_functional(ev, QuadratureSpec(parallelism=k)).value for k in (1, 2, 4)
        ]
        assert values[0] == values[1] == values[2]


def test_cartesian_thread_pool_gives_the_serial_bits():
    # 80 and 160 nodes per axis in 3D lay out 2 and 9 chunks, so parallelism
    # above one maps them over the pool; their sums come back in chunk order
    # and math.fsum rounds their total exactly, whichever worker ran them
    def run(parallelism):
        threads = set()

        def f(pts):
            threads.add(threading.get_ident())
            x, y, z = pts.T
            return np.exp(-0.5 * (x * x + y * y + z * z)) * (1.0 + 0.3 * np.cos(x) * np.sin(y + z) ** 2)

        spec = QuadratureSpec(cartesian_nodes_per_dim=80, abs_tol=1.0, rel_tol=1.0,
                              parallelism=parallelism)
        return integrate(f, spec, dim=3), threads

    (serial, serial_threads), *threaded = [run(k) for k in (1, 2, 3)]
    assert serial_threads == {threading.get_ident()}
    for res, threads in threaded:
        assert res == serial
        assert threading.get_ident() not in threads
    # <cos x> = e^(-1/2) and <sin^2(y + z)> = (1 - e^(-4)) / 2 under the vacuum
    closed = 1.0 + 0.3 * math.exp(-0.5) * 0.5 * -math.expm1(-4.0)
    assert abs(serial.value - closed) < 1e-12


def test_product_entropy_splits_into_factor_sum():
    prod = ProductHusimi(FockHusimi(1), ThermalHusimi(0.6))
    joint = entropy_functional(prod)
    parts = entropy_functional(FockHusimi(1)).value + entropy_functional(ThermalHusimi(0.6)).value
    assert abs(joint.value - parts) < 1e-8


def test_results_combine_values_and_add_errors_and_nodes():
    a = IntegralResult(1.5, 0.25, 100)
    b = IntegralResult(0.25, 0.125, 40)
    assert a + b == IntegralResult(1.75, 0.375, 140)
    assert a - b == IntegralResult(1.25, 0.375, 140)
    assert b - a == IntegralResult(-1.25, 0.375, 140)


def test_tolerance_not_reached_carries_partial_result():
    # the N = 50 s-profile on one panel and on two is about 1e-8 apart
    spec = QuadratureSpec(abs_tol=1e-15, rel_tol=1e-15, max_escalations=0,
                          radial_nodes=16)
    with pytest.raises(ToleranceNotReached) as err:
        entropy_functional(NoonHusimi(50), spec)
    assert err.value.result is not None
    assert err.value.result.error_estimate > 1e-15


def test_escalation_tightens_the_estimate():
    # on one panel of 16 nodes and then two, the N = 50 s-profile meets
    # 1e-3; 1e-12 needs a third level
    loose = QuadratureSpec(radial_nodes=16, abs_tol=1e-3, rel_tol=1e-3)
    tight = QuadratureSpec(radial_nodes=16, abs_tol=1e-12, rel_tol=1e-12)
    a = entropy_functional(NoonHusimi(50), loose)
    b = entropy_functional(NoonHusimi(50), tight)
    assert b.error_estimate <= a.error_estimate
    assert b.nodes_used > a.nodes_used
    assert abs(b.value - a.value) < 1e-3


# ---------------------------------------------------------------------------
# Relative entropy routes
# ---------------------------------------------------------------------------


def test_relative_entropy_radial_pair():
    rho = FockHusimi(1)
    sigma = ThermalHusimi(0.9)
    res = relative_entropy(rho, sigma)
    # ln Q_sigma = ln c - c r^2 / 2 with c = 1 - exp(-0.9), and Q_rho has
    # mean r^2 = 4, so the cross term is ln c - 2 c
    c = -math.expm1(-0.9)
    closed = -wehrl_fock_closed(1) - math.log(c) + 2.0 * c
    assert res.value > 0.0
    assert abs(res.value - closed) < 1e-10


def test_relative_entropy_zero_for_identical_states():
    ev = ThermalHusimi(0.7)
    res = relative_entropy(ev, ev)
    assert abs(res.value) < 1e-10


def test_relative_entropy_gaussian_pair_matches_closed_form():
    """KL of two centered Gaussian densities from covariance algebra."""
    rng = np.random.default_rng(5)
    part = ModePartition(1, 1)
    rho_cov = random_admissible_covariance(rng, part)
    sigma_cov = random_admissible_covariance(rng, part)
    res = relative_entropy(GaussianHusimi(rho_cov), GaussianHusimi(sigma_cov))
    # Q has covariance C^{-1} = V + 1/2; KL(N_A || N_B) for densities
    a = np.linalg.inv(rho_cov.c)
    b_inv = sigma_cov.c
    d = a.shape[0]
    closed = 0.5 * (np.trace(b_inv @ a) - d + math.log(np.linalg.det(rho_cov.c) / np.linalg.det(sigma_cov.c)))
    assert abs(res.value - closed) < 1e-8


@pytest.mark.parametrize("partition", [ModePartition(1, 0), ModePartition(1, 1)], ids=["2d", "4d"])
def test_gaussian_relative_entropy_is_exact_on_two_nodes_per_axis(partition):
    rng = np.random.default_rng(17 + partition.dim)
    rho = random_admissible_covariance(rng, partition)
    sigma = random_admissible_covariance(rng, partition)
    res = relative_entropy(GaussianHusimi(rho), GaussianHusimi(sigma))
    d = partition.dim
    closed = 0.5 * (np.trace(sigma.c @ np.linalg.inv(rho.c)) - d
                    + np.linalg.slogdet(rho.c)[1] - np.linalg.slogdet(sigma.c)[1])
    assert abs(res.value - closed) < 1e-12
    assert res.nodes_used == 2**d + 4**d


def test_noon_normalization_up_to_fifty_excitations():
    for n in (0, 1, 2, 5, 10, 20, 30, 40, 50):
        assert abs(normalization(NoonHusimi(n)).value - 1.0) < 1e-8


def test_product_of_gaussians_is_gaussian():
    gauss = GaussianHusimi(tmss_covariance(0.0).reduced("a"))
    assert ProductHusimi(gauss, gauss).kind == "gaussian"
    assert ProductHusimi(gauss, FockHusimi(0)).kind != "gaussian"


def test_relative_entropy_forced_strategy_mismatch():
    # the cartesian rule takes a radial pair that the router sends to the
    # 1D runner.  ln Q_sigma =
    # ln c - c r^2 / 2 with c = 1 - exp(-1), and Fock(n) has mean r^2 =
    # 2 (n + 1).  Q_rho ln Q_rho has a log cusp at the origin, so the
    # Hermite rule converges algebraically and 1e-5 is the target, as for
    # the Fock entropy in test_radial_and_cartesian_strategies_agree.
    rho = FockHusimi(3)
    sigma = ThermalHusimi(1.0)
    c = -math.expm1(-1.0)
    closed = -wehrl_fock_closed(3) - math.log(c) + 4.0 * c
    forced = _cartesian(rho, sigma, _log_factor, QuadratureSpec(abs_tol=1e-5, rel_tol=1e-5),
                        "relative entropy")
    assert abs(forced.value - closed) < 1e-5
    assert abs(relative_entropy(rho, sigma).value - closed) < 1e-10


def test_gaussian_mixture_is_routed_by_kind_not_by_its_methods():
    # a mixture can build a radial profile from radial components, but a
    # mixture of Gaussians is not radial and must reach the cartesian rule
    part = ModePartition(1, 0)
    covs = [CovarianceModel.from_v(0.5 * np.eye(2), part),
            CovarianceModel.from_v(np.diag([0.8, 0.6]), part)]
    mix = ConvexCombinationHusimi([(0.5, GaussianHusimi(cov)) for cov in covs])
    assert mix.kind != "radial"
    vacuum = FockHusimi(0)
    res = relative_entropy(mix, vacuum)
    # ln Q_vacuum = -|r|^2 / 2, and component i has second moments C_i^-1
    second_moment = sum(0.5 * np.trace(np.linalg.inv(cov.c)) for cov in covs)
    want = -entropy_functional(mix).value + 0.5 * second_moment
    assert abs(res.value - want) < 1e-8


def test_relative_entropy_noon_against_product_marginals():
    # In the modes (a + b)/sqrt2 and (a - b)/sqrt2 the N = 1 state is
    # |1>|0>, whose joint entropy is 2 + gamma_E, so the mutual information
    # is 2 S(marginal) - (2 + gamma_E); the marginal entropy comes from the
    # radial 1D runner alone, the joint entropy from the closed form.
    n = 1
    rho = NoonHusimi(n)
    marg = NoonMarginalHusimi(n)
    sigma = ProductHusimi(marg, marg)
    polar = relative_entropy(rho, sigma, QuadratureSpec(abs_tol=1e-7, rel_tol=1e-7))
    s_marg = entropy_functional(marg)
    closed = 2.0 * s_marg.value - (2.0 + EULER_GAMMA)
    assert abs(polar.value - closed) < 1e-7
    assert polar.value > 0.2


@functools.lru_cache(maxsize=None)
def _unfolded_polar_rule(rho, sigma, nr, na, cutoff):
    """3D polar rule on the full radial square and every angular midpoint.

    The reference the "noon" s-rule is checked against: it folds nothing
    and averages or integrates nothing in closed form.  Q comes from ``log_q``
    at cartesian points; the integrand is -Q ln Q without ``sigma``,
    Q (ln Q - ln S) with it.
    """
    r, w = _panel_nodes(0.0, cutoff, nr)
    ra, rb = np.meshgrid(r, r, indexing="ij")
    weight = np.outer(w * r, w * r)
    if sigma is not None:
        logs = sigma.factor_a.log_q_radial(ra) + sigma.factor_b.log_q_radial(rb)
        logs = np.maximum(logs, 2.0 * LOG_TINY)
    total = 0.0
    for k in range(na):
        dtheta = (k + 0.5) * (2.0 * math.pi / na) / rho.excitation
        pts = np.stack([ra, np.zeros_like(ra), rb * math.cos(dtheta), rb * math.sin(dtheta)], axis=-1)
        logq = rho.log_q(pts)
        factor = -logq if sigma is None else logq - logs
        live = logq > LOG_TINY
        total += np.sum(weight[live] * np.exp(logq[live]) * factor[live])
    return total / na


@pytest.mark.parametrize("radial_panels", [16, 15])
@pytest.mark.parametrize("rho, sigma", [
    (NoonHusimi(1), None),
    (NoonHusimi(3), None),
    # the reference is not exchange symmetric, so folding it with the
    # density alone would be wrong
    (NoonHusimi(1), ProductHusimi(FockHusimi(0), FockHusimi(1))),
], ids=["entropy-1", "entropy-3", "asymmetric-reference"])
def test_polar_folds_reproduce_the_unfolded_rule(rho, sigma, radial_panels, monkeypatch):
    # The s-rule folds the exchange, averages the angle and integrates the
    # radius exactly, and a reference enters through the radial cross
    # entropies of the marginal split; the unfolded 3D rule, at two
    # resolutions, must agree with it within the sum of both two-level
    # estimates.  The first level has 4 radial_panels panels of s (or of
    # the radius, for the cross entropies): 64 or 60, an even and an odd
    # layout.
    cutoff = 9.0
    monkeypatch.setattr("wehrlkit.quadrature.gamma_tail_threshold", lambda *args: cutoff)
    spec = QuadratureSpec(radial_nodes=4 * _PANEL_NODES * radial_panels,
                          abs_tol=1.0, rel_tol=1.0, max_escalations=0)
    run = entropy_functional if sigma is None else functools.partial(relative_entropy, sigma=sigma)
    res = run(rho, spec=spec)
    fine = _unfolded_polar_rule(rho, sigma, 256, 256, cutoff)
    coarse = _unfolded_polar_rule(rho, sigma, 128, 128, cutoff)
    # the 3D rule is converged: 2e-7 for the smooth entropies, 3.3e-6
    # where ln S carries the ln r_B of the Fock(1) factor
    assert abs(fine - coarse) < (1e-5 if sigma is not None else 1e-6)
    assert abs(res.value - fine) <= abs(fine - coarse) + res.error_estimate


@pytest.mark.parametrize("radial_panels", [16, 15])
def test_polar_results_do_not_depend_on_worker_count(radial_panels):
    # an even and an odd number of radial panels on the first level
    marg = NoonMarginalHusimi(2)
    cases = [(entropy_functional, (NoonHusimi(3),)),
             (relative_entropy, (NoonHusimi(2), ProductHusimi(marg, marg)))]
    for fn, args in cases:
        results = [
            fn(*args, QuadratureSpec(radial_nodes=4 * _PANEL_NODES * radial_panels, abs_tol=1e-6,
                                     rel_tol=1e-6, parallelism=k))
            for k in (1, 2, 3)
        ]
        assert results[0] == results[1] == results[2]


def test_relative_entropy_support_violation(caplog):
    # a narrow squeezed reference loses support where the broad state
    # lives; the first level already sees it, so no level is logged
    from wehrlkit import squeezed_vacuum_covariance

    rho = ThermalHusimi(0.05)
    sigma = GaussianHusimi(squeezed_vacuum_covariance(1.5))
    with caplog.at_level(logging.DEBUG, logger="wehrlkit"):
        with pytest.raises(SupportViolation):
            relative_entropy(rho, sigma)
    assert not [rec for rec in caplog.records if "level" in rec.getMessage()]


def test_divergence_wins_over_an_unreached_tolerance():
    # the vacuum underflows where a hot thermal state still has mass; the
    # tolerance is out of reach too, and the divergence must be reported
    rho, sigma = ThermalHusimi(0.01), FockHusimi(0)
    spec = QuadratureSpec(max_escalations=0, abs_tol=1e-12, rel_tol=1e-12)
    with pytest.raises(SupportViolation):
        relative_entropy(rho, sigma, spec)
    assert wehrl_relative_entropy(rho, sigma, spec) == math.inf


# ---------------------------------------------------------------------------
# Generic integrals and one-dimensional densities
# ---------------------------------------------------------------------------


def test_integrate_phase_space_measure_normalizes_vacuum():
    res = integrate(lambda pts: np.exp(-0.5 * np.sum(pts * pts, axis=-1)), dim=2)
    assert abs(res.value - 1.0) < 1e-12


def test_integrate_fock_density_with_explicit_envelope():
    ev = FockHusimi(3)
    res = integrate(lambda pts: ev.q(pts), dim=2, envelope=ev.gaussian_envelope())
    assert abs(res.value - 1.0) < 1e-9


def test_integrate_second_moment_of_vacuum():
    # <x^2> under the vacuum Q with the phase-space measure is 1
    res = integrate(
        lambda pts: pts[:, 0] ** 2 * np.exp(-0.5 * np.sum(pts * pts, axis=-1)),
        dim=2,
        envelope=(2.0 * np.eye(2), np.zeros(2)),
    )
    assert abs(res.value - 1.0) < 1e-10


def test_levels_and_the_cartesian_cap_are_logged(caplog, monkeypatch):
    with caplog.at_level(logging.DEBUG, logger="wehrlkit"):
        res = entropy_functional(NoonHusimi(2), QuadratureSpec(abs_tol=1e-6, rel_tol=1e-6))
    levels = [rec for rec in caplog.records if rec.levelno == logging.DEBUG]
    assert len(levels) >= 2
    assert sum(rec.args[2] for rec in levels) == res.nodes_used
    assert levels[-1].args[3] == res.value

    # the |x| cusp keeps the Hermite rule far from 1e-8, so only the node
    # budget stops it: the 16^4 level is refused before it runs
    budget = 10_000
    monkeypatch.setattr("wehrlkit.quadrature._MAX_LEVEL_NODES", budget)
    cusp = lambda pts: np.abs(pts[:, 0]) * np.exp(-0.5 * np.sum(pts * pts, axis=-1))
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="wehrlkit"):
        with pytest.raises(ToleranceNotReached, match="node ceiling") as err:
            integrate(cusp, QuadratureSpec(cartesian_nodes_per_dim=4), dim=4)
    nodes = [rec.args[2] for rec in caplog.records if rec.levelno == logging.DEBUG]
    assert nodes == [4**4, 8**4]
    assert err.value.result.nodes_used == sum(nodes)
    capped = [rec for rec in caplog.records if rec.levelno == logging.INFO]
    assert len(capped) == 1
    assert str(budget) in capped[0].getMessage() and "16" in capped[0].getMessage()

    # a base level whose doubling is over the budget runs alone, in one call
    calls = []
    counted = lambda pts: calls.append(pts.shape) or cusp(pts)
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="wehrlkit"):
        with pytest.raises(ToleranceNotReached, match="node ceiling") as err:
            integrate(counted, QuadratureSpec(cartesian_nodes_per_dim=8), dim=4)
    assert [rec.args[2] for rec in caplog.records if rec.levelno == logging.DEBUG] == [8**4]
    assert calls == [(8**4, 4)]
    assert err.value.result.nodes_used == 8**4

    # the base level is checked too: 24^4 nodes never run
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="wehrlkit"):
        with pytest.raises(ToleranceNotReached, match="node ceiling") as err:
            integrate(cusp, dim=4)
    assert err.value.result is None
    assert [rec.levelno for rec in caplog.records] == [logging.INFO]


def test_the_per_axis_ceiling_stops_like_the_budget(caplog):
    cusp = lambda pts: np.abs(pts[:, 0]) * np.exp(-0.5 * pts[:, 0] ** 2)
    with caplog.at_level(logging.INFO, logger="wehrlkit"):
        with pytest.raises(ToleranceNotReached, match="node ceiling") as err:
            integrate(cusp, QuadratureSpec(cartesian_nodes_per_dim=192), dim=1)
    assert err.value.result.nodes_used == 192 + 384
    assert len(caplog.records) == 1

    # a base level at the ceiling has no doubling to share its call with:
    # it runs once
    calls = []
    counted = lambda pts: calls.append(pts.shape) or cusp(pts)
    with pytest.raises(ToleranceNotReached, match="node ceiling") as err:
        integrate(counted, QuadratureSpec(cartesian_nodes_per_dim=384), dim=1)
    assert calls == [(384, 1)]
    assert err.value.result.nodes_used == 384


def test_polar_runner_stops_at_the_node_budget(caplog, monkeypatch):
    # The marginal split of a "noon" relative entropy runs the radial cross
    # entropy of the N = 1 marginal against |1>, whose ln S carries 2 ln r;
    # its graded levels gain about a factor four a doubling, far from a
    # tolerance of 1e-15.  With the budget at 5,000 its fifth level (6,400
    # nodes) is refused after 400, 800, 1,600 and 3,200 nodes, before the
    # s-rule runs.
    budget = 5_000
    monkeypatch.setattr("wehrlkit.quadrature._MAX_LEVEL_NODES", budget)
    spec = QuadratureSpec(abs_tol=1e-15, rel_tol=1e-15)
    with caplog.at_level(logging.INFO, logger="wehrlkit"):
        with pytest.raises(ToleranceNotReached, match="node ceiling") as err:
            relative_entropy(NoonHusimi(1), ProductHusimi(FockHusimi(0), FockHusimi(1)), spec)
    assert err.value.result.nodes_used == 400 + 800 + 1600 + 3200
    assert len(caplog.records) == 1
    assert str(budget) in caplog.records[0].getMessage()


def test_graded_s_panels_resolve_a_reference_vanishing_at_the_origin():
    # ln S = -r_A^2/2 - r_B^2/2 + ln(r_B^2 / 2) carries ln r_B at r_B = 0.
    # Under the N = 1 density <|alpha|^2> = <|beta|^2> = 3/2 and the B
    # marginal is (Q_0 + Q_1) / 2, so <ln |beta|^2> = 1/2 - gamma_E, and
    # with S(AB) = 2 + gamma_E the relative entropy is exactly 1/2.  The
    # split integrates ln r_B on the radial cross entropy against |1>,
    # whose panels are graded: two levels each, and two for the s-rule.
    res = relative_entropy(NoonHusimi(1), ProductHusimi(FockHusimi(0), FockHusimi(1)))
    assert abs(res.value - 0.5) < 1e-8
    assert res.nodes_used == 3 * (400 + 800)


def test_graded_radial_panels_resolve_a_reference_vanishing_at_the_origin(caplog):
    # The N = 1 marginal (Q_0 + Q_1) / 2 against |1>: ln S = ln u - u with
    # u = r^2 / 2 is singular at r = 0, where the density is not, and
    # FockHusimi(1) declares it by its lowest index, 1 against 0.  With
    # E[u] = 3/2, E[ln u] = 1/2 - gamma_E and the marginal's entropy
    # 1 + ln 2 - e E_1(1) / 2, the relative entropy is
    # gamma_E - ln 2 + e E_1(1) / 2.  On graded panels it converges at
    # 1e-10 on four levels; the plain rule took 12,400 nodes at 1e-8 and
    # stalled at 1e-10.
    want = EULER_GAMMA - math.log(2.0) + 0.5 * math.e * exp1(1.0)
    rho, sigma = NoonMarginalHusimi(1), FockHusimi(1)
    for tol, levels in [(1e-8, [400, 800]), (1e-10, [400, 800, 1600, 3200])]:
        spec = QuadratureSpec(abs_tol=tol, rel_tol=tol)
        res, nodes = _levels_run(caplog, lambda: relative_entropy(rho, sigma, spec))
        assert nodes == levels
        assert res.nodes_used == sum(levels)
        assert abs(res.value - want) <= res.error_estimate
    # the density declares the grading; it is not probed
    assert (sigma.lowest_index, rho.lowest_index) == (1, 0)


@pytest.mark.parametrize("n", [1, 3])
def test_a_same_density_reference_gives_the_two_order_mean(n):
    # one marginal instance for both factors and two equal instances run
    # the same stack of cross entropies; the floats must be the same
    spec = QuadratureSpec(abs_tol=1e-6, rel_tol=1e-6)
    marg = NoonMarginalHusimi(n)
    once = relative_entropy(NoonHusimi(n), ProductHusimi(marg, marg), spec)
    twice = relative_entropy(NoonHusimi(n),
                             ProductHusimi(NoonMarginalHusimi(n), NoonMarginalHusimi(n)), spec)
    assert once == twice
    # against the density's own marginal instance, X(Q_A, Q_A) = X(Q_B, Q_B)
    # is the entropy S(A), integrated once with no reference evaluated,
    # with the bits of the two cross entropies
    rho = NoonHusimi(n)
    own = relative_entropy(rho, ProductHusimi(rho.marginal, rho.marginal), spec)
    assert (own.value, own.error_estimate) == (once.value, once.error_estimate)
    assert (own.nodes_used, once.nodes_used) == (2 * 1200, 3 * 1200)


def _dense_profile_level(rho, factor_of_log, s, ws, log_tiny=LOG_TINY):
    """One s-rule level of a "noon" density from a dense (r, s) integrand.

    The reference the closed-form radius of ``s_profile`` is checked
    against: ln <Q> and <Q ln Q> / <Q> averaged over the phase difference
    in closed form (Jensen's formula) at r_A = r and r_B = s r, on the
    level's nodes s and a dense Gauss-Legendre rule in r on [0, 40];
    the radius summed against 2 r^3 s, exact zeros at the s nodes whose
    mass, so summed, is at most e^``log_tiny``, and one weighted sum over
    s.
    """
    r, wr = _panel_nodes(0.0, 40.0, 2048)
    n = rho.excitation
    log_norm = (n + 1) * math.log(2.0) + math.lgamma(n + 1) + math.log1p(n == 0)
    log_mass = np.outer(-0.5 * r * r, 1.0 + s * s)
    if n == 0:
        log_mass += 2.0 * math.log(2.0) - log_norm
        log_factor = log_mass.copy()
    else:
        log_mass += (2.0 * n * np.log(r) - log_norm)[:, None]
        t = s ** (2 * n)
        log_factor = log_mass + 2.0 * t / (1.0 + t)
        log_mass += np.log1p(t)
    q = np.exp(log_mass)
    radial = 2.0 * wr * r**3
    mass = radial @ q
    terms = radial @ (q * factor_of_log(log_factor, out=log_factor))
    terms[s * mass <= math.exp(log_tiny)] = 0.0
    return float(np.dot(ws * s, terms))


def _dense_radial_level(rho, sigma, factor_of_log, x, w, log_tiny=LOG_TINY,
                        log_support=LOG_SUPPORT):
    """One radial level of Q (factor_of_log(ln Q) - ln S) r, node by node.

    ln S is clamped at 2 ``log_tiny``, with a support check (Q above
    e^``log_support``) where S is below e^``log_tiny``, and exact zeros
    where Q is at most e^``log_tiny``.
    """
    logq, logs = rho.log_q_radial(x), sigma.log_q_radial(x)
    if np.any(logq[logs < log_tiny] > log_support):
        raise SupportViolation("dense rule: mass where the reference underflows")
    dead = logq <= log_tiny
    factor = factor_of_log(logq.copy()) - np.maximum(logs, 2.0 * log_tiny)
    return float(np.dot(w, np.where(dead, 0.0, np.exp(logq) * np.where(dead, 0.0, factor)) * x))


def _split_levels(rho, sigma, factor_of_log, spec, levels, **thresholds):
    """The levels ``_run_1d`` logs for a "noon" integral, from the dense rules.

    ``levels`` holds the number of levels of each run the runner logged:
    with a reference the two radial cross entropies (the factor
    relative entropies for a separable density), then the s-rule.
    """
    if sigma is None:
        runs = [("s", factor_of_log)]
    else:
        pairs = [(rho.marginal, sigma.factor_a), (rho.marginal, sigma.factor_b)]
        radial = _log_factor if rho.separable else _cross_factor
        runs = [(pair, radial) for pair in pairs] + [("s", factor_of_log)] * (not rho.separable)
    assert len(runs) == len(levels)
    want = []
    for (pair, factor), count in zip(runs, levels):
        if pair == "s":
            layouts = [_panel_nodes(0.0, 1.0, spec.radial_nodes, doublings=k) for k in range(count)]
            log_tiny = thresholds.get("log_tiny", LOG_TINY)
            want.append([_dense_profile_level(rho, factor, x, w, log_tiny) for x, w in layouts])
            continue
        q, ref = pair
        shape = max(q.radial_gamma_shape, ref.radial_gamma_shape)
        cutoff = gamma_tail_threshold(shape, 1.0, _TAIL_MASS)
        graded = ref.lowest_index > q.lowest_index
        layouts = [_panel_nodes(0.0, cutoff, spec.radial_nodes, graded=graded, doublings=k)
                   for k in range(count)]
        want.append([_dense_radial_level(q, ref, factor, x, w, **thresholds) for x, w in layouts])
    return want


# functional, reference for an excitation n (or None), factor of ln Q
_TRIANGLE_CASES = {
    "entropy": (entropy_functional, None, _entropy_factor),
    "normalization": (normalization, None, _unit_factor),
    # two equal instances: one stack of two equal cross entropies
    "marginals": (relative_entropy,
                  lambda n: ProductHusimi(NoonMarginalHusimi(n), NoonMarginalHusimi(n)),
                  _log_factor),
    # not exchange symmetric at all, and graded against |1>
    "asymmetric": (relative_entropy, lambda n: ProductHusimi(FockHusimi(0), FockHusimi(1)),
                   _log_factor),
}


@pytest.mark.parametrize("case", sorted(_TRIANGLE_CASES))
@pytest.mark.parametrize("n", [0, 1, 5, 10, 50])
def test_axis_factor_levels_match_the_dense_rule(caplog, case, n):
    # every level the runner logs against the dense rules at the same
    # resolution: the s-rule against the angle-averaged axis factors with
    # the radius summed on a dense grid, the radial cross entropies of the
    # split node by node; the result is their sum
    run, reference, factor_of_log = _TRIANGLE_CASES[case]
    rho, sigma = NoonHusimi(n), reference and reference(n)
    spec = QuadratureSpec(abs_tol=1e-7, rel_tol=1e-7)
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="wehrlkit"):
        res = run(rho, spec=spec) if sigma is None else run(rho, sigma, spec)
    levels = [rec.args[1:4] for rec in caplog.records if rec.levelno == logging.DEBUG]
    # a run starts at the base level, 400 nodes
    runs = []
    for resolution, nodes, value in levels:
        assert resolution == nodes
        if nodes == spec.radial_nodes:
            runs.append([])
        runs[-1].append(value)
    dense = _split_levels(rho, sigma, factor_of_log, spec, [len(run) for run in runs])
    for got, want in zip(runs, dense):
        assert len(got) >= 2
        for value, level in zip(got, want):
            assert abs(value - level) < 1e-13 * max(1.0, abs(level))
    assert abs(res.value - sum(want[-1] for want in dense)) < 1e-13
    assert abs(res.error_estimate - sum(abs(w[-1] - w[-2]) for w in dense)) < 1e-13


@pytest.mark.parametrize("run, factor_of_log", [(entropy_functional, _entropy_factor),
                                                 (normalization, _unit_factor)],
                         ids=["entropy", "normalization"])
def test_triangle_nodes_below_the_mass_floor_contribute_exactly_zero(monkeypatch, run,
                                                                    factor_of_log):
    # With the floor raised from 1e-300 to 1/2, the s nodes of the N = 5
    # profile whose mass is under it (s below about 0.04 and above about
    # 0.7) drop out.  The level must be the dense rule with those nodes
    # zeroed, well away from the level under the usual floor.
    log_tiny = math.log(0.5)
    spec = QuadratureSpec(abs_tol=1.0, rel_tol=1.0)
    rho = NoonHusimi(5)
    usual = run(rho, spec).value
    monkeypatch.setattr("wehrlkit.quadrature.LOG_TINY", log_tiny)
    res = run(rho, spec)
    s, ws = _panel_nodes(0.0, 1.0, 400, doublings=1)
    want = _dense_profile_level(rho, factor_of_log, s, ws, log_tiny)
    assert abs(res.value - want) < 1e-13
    assert abs(res.value - usual) > 0.01


@pytest.mark.parametrize("sigma", [
    ProductHusimi(NoonMarginalHusimi(5), NoonMarginalHusimi(5)),
    ProductHusimi(FockHusimi(0), FockHusimi(1)),
], ids=["marginals", "asymmetric"])
def test_triangle_clamps_the_reference_log_like_the_dense_rule(monkeypatch, sigma):
    # With the underflow threshold raised to 0.02 (the clamp to 4e-4) and
    # the support check disarmed, the reference falls under the threshold
    # at radial nodes of the split's cross entropies, and the clamped ln S
    # changes the value; the result must still be the dense rules' under
    # the same thresholds.
    log_tiny = math.log(0.02)
    spec = QuadratureSpec(abs_tol=1.0, rel_tol=1.0)
    rho = NoonHusimi(5)
    usual = relative_entropy(rho, sigma, spec).value
    monkeypatch.setattr("wehrlkit.quadrature.LOG_TINY", log_tiny)
    monkeypatch.setattr("wehrlkit.quadrature._LOG_FLOOR", 2.0 * log_tiny)
    monkeypatch.setattr("wehrlkit.quadrature.LOG_SUPPORT", math.inf)
    res = relative_entropy(rho, sigma, spec)
    dense = _split_levels(rho, sigma, _log_factor, spec, [2, 2, 2], log_tiny=log_tiny,
                          log_support=math.inf)
    want = sum(levels[-1] for levels in dense)
    assert abs(res.value - want) < 1e-13
    assert abs(res.value - usual) > 0.01


def test_triangle_support_violation_is_raised_before_any_level(caplog):
    # Q_200 of the reference factors is below 1e-300 wherever a radius is
    # under about 9, where the N = 1 marginal has its mass: the split's
    # cross entropies, which run first, see it on their first level
    sigma = ProductHusimi(FockHusimi(200), FockHusimi(200))
    with caplog.at_level(logging.DEBUG, logger="wehrlkit"):
        with pytest.raises(SupportViolation):
            relative_entropy(NoonHusimi(1), sigma)
    assert not [rec for rec in caplog.records if "level" in rec.getMessage()]
    assert wehrl_relative_entropy(NoonHusimi(1), sigma) == math.inf


def test_integrate_validates_dimension_and_shape():
    with pytest.raises(ValueError):
        integrate(lambda pts: np.ones(pts.shape[0]), dim=0)
    with pytest.raises(DimensionMismatch):
        integrate(lambda pts: np.ones((pts.shape[0], 2)), dim=2)


def test_density_entropy_caps_fock_zero():
    """Vacuum homodyne entropy is the Gaussian value ln sqrt(pi e)."""
    d = FockPositionDensity(0)
    res = density_entropy_1d(d)
    assert abs(res.value - 0.5 * math.log(math.pi * math.e)) < 1e-10


def test_density_entropy_thermal_matches_gaussian_formula():
    d = ThermalPositionDensity(0.8)
    res = density_entropy_1d(d)
    want = 0.5 * math.log(2.0 * math.pi * math.e * d.sigma_sq)
    assert abs(res.value - want) < 1e-10


def test_density_normalization_handles_breakpoints():
    for n in (1, 4, 9):
        res = density_normalization_1d(FockPositionDensity(n))
        assert abs(res.value - 1.0) < 1e-9


def test_graded_panels_keep_polynomial_exactness():
    # phi(u) = u^2 (3 - 2u) is cubic and phi' quadratic, so 16 Gauss-Legendre
    # points still integrate x^k exactly for 3k + 2 <= 31
    x, w = _panel_nodes(0.0, 5.0, 64, breakpoints=(1.3, 2.0), graded=True)
    assert x.size == 4 * _PANEL_NODES
    assert np.all((x > 0.0) & (x < 5.0)) and np.all(np.diff(x) > 0.0)
    for k in range(10):
        assert np.dot(w, x**k) == pytest.approx(5.0 ** (k + 1) / (k + 1), rel=1e-13)


def _panels_by_loop(lo, hi, k, graded):
    """k equal panels on [lo, hi], laid out one at a time about their midpoints."""
    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(_PANEL_NODES)
    step = (hi - lo) / k
    xs, ws = [], []
    for i in range(k):
        p_lo, p_hi = lo + i * step, lo + (i + 1) * step
        if graded:
            u = 0.5 * (gl_nodes + 1.0)
            xs.append(p_lo + (p_hi - p_lo) * (u * u * (3.0 - 2.0 * u)))
            ws.append(0.5 * (p_hi - p_lo) * (gl_weights * 6.0 * u * (1.0 - u)))
        else:
            half = 0.5 * (p_hi - p_lo)
            xs.append(0.5 * (p_hi + p_lo) + half * gl_nodes)
            ws.append(half * gl_weights)
    return np.concatenate(xs), np.concatenate(ws)


def _panel_nodes_by_panel(a, b, n_nodes, breakpoints=(), graded=False, scaled=True,
                          doublings=0):
    """The composite rule of ``_panel_nodes``, one segment at a time.

    With ``scaled`` a segment [lo, hi] is lo + (hi - lo) times its panels
    laid out on [0, 1], the float operations of ``_panel_nodes``; without,
    its panels are laid out on [lo, hi] directly, the mid/half formula
    the unit rules were derived from.
    """
    edges = sorted({a, b, *(float(p) for p in breakpoints if a < float(p) < b)})
    n_panels = max(1, int(n_nodes) // _PANEL_NODES)
    xs, ws = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        k = max(1, round(n_panels * (hi - lo) / (b - a))) * 2**doublings
        if scaled:
            x, w = _panels_by_loop(0.0, 1.0, k, graded)
            x, w = lo + (hi - lo) * x, (hi - lo) * w
        else:
            x, w = _panels_by_loop(lo, hi, k, graded)
        xs.append(x)
        ws.append(w)
    return np.concatenate(xs), np.concatenate(ws)


def test_panel_layout_matches_the_panel_by_panel_loop():
    # same float operations, so the same bits; breakpoints repeat, fall
    # outside [0, b] or sit on the edge 0.  Against the mid/half formula
    # laid out on [lo, hi] itself, scaling moves a node or weight by at
    # most 4 ulp of b.  A doubling doubles every segment's panel count.
    rng = np.random.default_rng(2024)
    for trial in range(400):
        b = float(rng.uniform(0.5, 60.0))
        n_nodes = int(rng.integers(_PANEL_NODES, 1700))
        breaks = list(rng.uniform(-2.0, b + 2.0, size=rng.integers(0, 6)))
        if trial % 2:
            breaks += breaks[:1] + [0.0]
        doublings = (trial // 2) % 2
        for graded in (False, True):
            got = _panel_nodes(0.0, b, n_nodes, breakpoints=breaks, graded=graded,
                               doublings=doublings)
            want = _panel_nodes_by_panel(0.0, b, n_nodes, breakpoints=breaks, graded=graded,
                                         doublings=doublings)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            old = _panel_nodes_by_panel(0.0, b, n_nodes, breakpoints=breaks, graded=graded,
                                        scaled=False, doublings=doublings)
            ulp = np.finfo(float).eps * b
            assert np.max(np.abs(got[0] - old[0])) <= 4.0 * ulp
            assert np.max(np.abs(got[1] - old[1])) <= 4.0 * ulp


def test_unit_layouts_keep_the_mid_half_bits():
    # every [0, 1] layout, the triangle's s axis among them, is the cached
    # unit rule itself, bit for bit the mid/half formula
    for n_nodes in range(_PANEL_NODES, 1700, 7):
        for graded in (False, True):
            got = _panel_nodes(0.0, 1.0, n_nodes, graded=graded)
            want = _panel_nodes_by_panel(0.0, 1.0, n_nodes, graded=graded, scaled=False)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_unit_panels_are_shared_and_read_only():
    x, w = _unit_panels(5, True)
    assert _unit_panels(5, True)[0] is x and _unit_panels(5, True)[1] is w
    assert x.size == w.size == 5 * _PANEL_NODES
    for arr in (x, w):
        with pytest.raises(ValueError):
            arr[0] = 0.5
    # a layout is a fresh array, never the cached rule
    got, _ = _panel_nodes(0.0, 1.0, 5 * _PANEL_NODES, graded=True)
    assert np.array_equal(got, x) and not np.shares_memory(got, x)


@pytest.mark.parametrize("axes", [_unit_axes(25, False), _unit_axes(7, True), _laguerre_axes],
                         ids=["plain", "graded", "laguerre"])
def test_a_unit_rules_first_call_is_laid_out_once_and_read_only(axes):
    # the base level joined with its doubling, kept with the cached rule
    (n0, n1), (m0, m1), (x, w, (base, doubled)) = axes((0, 1))
    assert (n0, n1) == (m0, m1) == (base.stop, doubled.stop - base.stop)
    for level, cols in ((0, base), (1, doubled)):
        _, _, (lx, lw, _) = axes((level,))
        assert np.array_equal(x[cols], lx) and np.array_equal(w[cols], lw)
    assert x.size == w.size == doubled.stop
    for arr in (x, w):
        with pytest.raises(ValueError):
            arr[0] = 0.5
    # a run reads it as it is: the rule keeps the same arrays afterwards
    entropy_functional(FockHusimi(3))
    entropy_functional(NoonHusimi(2))
    entropy_functional(ThermalHusimi(0.4))
    again = axes((0, 1))[2]
    assert again[0] is x and again[1] is w
    assert _unit_axes(25, False) is _unit_axes(25, False)


def test_node_counts_are_pinned():
    # a layout change must not shift these; one panel edge per distinct |zero|
    # of psi_n on the line
    line = sum(density_entropy_1d(FockPositionDensity(n)).nodes_used for n in range(51))
    radial = sum(entropy_functional(FockHusimi(n)).nodes_used for n in range(51))
    assert (line, radial) == (65_472, 61_200)
    # a thermal integral runs on 2 and 4 Gauss-Laguerre nodes, whatever radial_nodes
    assert entropy_functional(ThermalHusimi(0.7)).nodes_used == 6
    assert entropy_functional(ThermalHusimi(0.7), QuadratureSpec(radial_nodes=16)).nodes_used == 6


@pytest.mark.parametrize("n", [20, 30, 40, 50])
def test_the_line_estimate_covers_the_error_of_every_segment(n):
    # a doubling halves every panel, the short segments between close zeros
    # of psi_n among them, so the two-level estimate sees their error too;
    # sharing out twice the nodes by length left most of them at one panel
    # on both levels (n = 50: estimate 2.1e-10 against a true error of 3.3e-10)
    res = density_entropy_1d(FockPositionDensity(n))
    fine = density_entropy_1d(FockPositionDensity(n), QuadratureSpec(radial_nodes=6400))
    assert res.error_estimate >= abs(res.value - fine.value)


def _levels_run(caplog, fn):
    # a line or triangle level logs the resolution it lays out, whose
    # axes multiply out to the level's node count
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="wehrlkit"):
        res = fn()
    levels = [rec.args[1:3] for rec in caplog.records if rec.levelno == logging.DEBUG]
    for resolution, nodes in levels:
        assert math.prod(np.atleast_1d(resolution)) == nodes
    return res, [nodes for _, nodes in levels]


@pytest.mark.parametrize("n", [1, 10, 30, 50])
def test_fock_line_entropy_converges_in_two_levels(caplog, n):
    """Graded panels absorb the ln singularity at every zero of psi_n."""
    res, nodes = _levels_run(caplog, lambda: density_entropy_1d(FockPositionDensity(n)))
    assert len(nodes) == 2
    assert res.nodes_used == sum(nodes)

    # -integral of psi_n^2 ln psi_n^2 by a dense trapezoid, psi_n from
    # scipy's Hermite polynomials
    half = math.sqrt(2.0 * n + 1.0) + 8.0
    x = np.linspace(-half, half, 200_001)
    log_norm = 0.5 * (n * math.log(2.0) + gammaln(n + 1.0) + 0.5 * math.log(math.pi))
    f = (eval_hermite(n, x) * np.exp(-0.5 * x * x - log_norm)) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        want = np.trapezoid(np.where(f > 0.0, -f * np.log(f), 0.0), x)
    assert abs(res.value - want) < 1e-8


def test_odd_fock_mixture_line_entropy_converges_in_two_levels(caplog):
    # breakpoint 0 only, at the panel edge x = 0: the panels are graded all the same
    odd = FockMixturePositionDensity([(1, 0.5), (3, 0.5)])
    res, nodes = _levels_run(caplog, lambda: density_entropy_1d(odd))
    assert len(nodes) == 2
    assert res.nodes_used == sum(nodes)


ONE_D_DENSITIES = [
    FockPositionDensity(0),
    FockPositionDensity(7),
    FockPositionDensity(50),
    ThermalHusimi(0.4),
    FockMixtureHusimi([(0, 0.3), (1, 0.7)]),
    FockMixturePositionDensity([(0, 0.3), (1, 0.7)]),
]


def _counted_1d(monkeypatch, density):
    # (the density's log method, the node arrays it is called on), with
    # the method replaced on the instance by one that records its calls
    name = "log_q_radial" if isinstance(density, HusimiEvaluator) else "log_f"
    log, calls = getattr(density, name), []

    def counted(x):
        calls.append(np.array(x))
        return log(x)

    monkeypatch.setattr(density, name, counted)
    return log, calls


def _thermal_layout(rate, m):
    # the m-point Gauss-Laguerre rule in u = rate r^2 / 2, as radii and weights
    u, w = laggauss(m)
    r = np.sqrt(2.0 * u / rate)
    return r, w * np.exp(u) / (rate * r)


def _1d_integral(density, spec):
    if isinstance(density, HusimiEvaluator):
        return entropy_functional(density, spec)
    return density_entropy_1d(density, spec)


@pytest.mark.parametrize("density", ONE_D_DENSITIES, ids=lambda d: type(d).__name__ + str(getattr(d, "n", "")))
def test_the_first_two_1d_levels_share_one_density_call(caplog, monkeypatch, density):
    log, calls = _counted_1d(monkeypatch, density)
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="wehrlkit"):
        _1d_integral(density, QuadratureSpec())
    levels = [rec.args[2:4] for rec in caplog.records if rec.levelno == logging.DEBUG]
    # one call for the first two levels, one for each later level
    assert len(levels) >= 2
    assert len(calls) == len(levels) - 1

    # each level against a call of its own on the nodes of _panel_nodes, or
    # of the Gauss-Laguerre rule for a thermal density
    radial = isinstance(density, HusimiEvaluator)
    if radial:
        shape, rate, margin = density.radial_gamma_shape, density.radial_rate, 0.0
    else:
        shape, rate = density.position_gamma_shape, density.position_rate
        margin = density.position_tail_log_margin
    cutoff = gamma_tail_threshold(shape, rate, _TAIL_MASS * math.exp(-margin))
    breaks = [b for b in getattr(density, "breakpoints", ()) if b > 0.0]
    graded = len(getattr(density, "breakpoints", ())) > 0
    layouts = [_panel_nodes(0.0, cutoff, 400, breakpoints=breaks, graded=graded, doublings=k)
               for k in range(len(levels))]
    if isinstance(density, ThermalHusimi):
        layouts = [_thermal_layout(rate, m) for m in (2, 4)]
    assert np.array_equal(calls[0], np.concatenate([layouts[0][0], layouts[1][0]]))
    for (x, w), (nodes, value) in zip(layouts, levels):
        assert x.size == nodes
        terms = _density_terms(log, None, _entropy_factor, x)
        want = float(np.dot(w, terms * x)) if radial else 2.0 * float(np.dot(w, terms))
        assert value == want


@pytest.mark.parametrize("density, budget", [(ThermalHusimi(0.4), 3), (FockHusimi(3), 600),
                                             (FockPositionDensity(7), 600)],
                         ids=["ThermalHusimi", "FockHusimi", "FockPositionDensity"])
def test_a_doubled_level_over_the_budget_is_never_evaluated(caplog, monkeypatch, density, budget):
    # the base level (about 400 nodes, 2 for the thermal rule) fits the budget,
    # its doubling does not
    monkeypatch.setattr("wehrlkit.quadrature._MAX_LEVEL_NODES", budget)
    _, calls = _counted_1d(monkeypatch, density)
    with caplog.at_level(logging.DEBUG, logger="wehrlkit"):
        with pytest.raises(ToleranceNotReached, match="node ceiling") as err:
            _1d_integral(density, QuadratureSpec())
    levels = [rec.args[2] for rec in caplog.records if rec.levelno == logging.DEBUG]
    assert len(levels) == 1
    assert [c.size for c in calls] == levels
    assert err.value.result.nodes_used == levels[0]


def _bits(result):
    return result.value.hex(), result.error_estimate.hex(), result.nodes_used


def _recorded(monkeypatch, cls, name):
    # the (members, node count) of every call of a class's stacked kernel
    kernel, calls = getattr(cls, name), []

    def recorded(members, x, counts):
        calls.append((list(members), x.size))
        return kernel(members, x, counts)

    monkeypatch.setattr(cls, name, staticmethod(recorded))
    return calls


def _mixture_evaluators(steps):
    return [evaluator_for(FockMixtureState(((0, q), (1, 1.0 - q)))) for q in
            np.linspace(0.0, 1.0, steps)[1:-1]] + [FockHusimi(0), FockHusimi(1)]


STACKS = {
    # 41 members of 6 first-level nodes: one chunk
    "thermal-radial": [ThermalHusimi(0.05 * 1.2 ** k) for k in range(41)],
    "fock-radial": [FockHusimi(int(n)) for n in np.random.default_rng(5).permutation(51)],
    "mixture-radial": _mixture_evaluators(21) + [NoonMarginalHusimi(n) for n in range(12)],
    "fock-mixture-line": [FockPositionDensity(int(n))
                          for n in np.random.default_rng(6).permutation(51)]
    + [FockMixturePositionDensity(w) for w in ([(0, 0.25), (1, 0.75)], [(1, 0.5), (3, 0.5)],
                                               [(2, 0.9), (5, 0.1)], [(0, 0.6), (1, 0.4)])],
    # the order eur_sweep_fock passes
    "fock-line-ascending": [FockPositionDensity(n) for n in range(51)],
}


@pytest.mark.parametrize("name", list(STACKS))
def test_a_stack_gives_the_bits_of_its_integrals_one_by_one(monkeypatch, name):
    members = STACKS[name]
    assert len(members) % 2 == 1
    line = not isinstance(members[0], HusimiEvaluator)
    # each single sums its levels with ``np.dot``, the stack with one
    # batched ``np.matmul`` a level
    singles = [(density_entropy_1d if line else entropy_functional)(m) for m in members]
    cls = FockMixturePositionDensity if line else type(members[0])
    calls = _recorded(monkeypatch, cls, "stacked_log_f" if line else "stacked_log_q_radial")
    got = (density_entropies_1d if line else entropy_functionals)(members)
    assert [_bits(r) for r in got] == [_bits(r) for r in singles]
    # one kernel call a chunk of at most 2^13 nodes evaluates the first two
    # levels of many members, and the chunks cover every member; the 41
    # thermal members, 6 nodes each, fit one chunk
    assert all(nodes <= 1 << 13 for _, nodes in calls)
    assert len(calls) == 1 if name == "thermal-radial" else len(calls) > 1
    assert sum(len(stack) for stack, _ in calls) == len(members)
    assert sum(nodes for _, nodes in calls) == sum(r.nodes_used for r in singles)


def test_a_unit_stack_gives_the_bits_of_its_s_rules_one_by_one():
    # "noon" s-profiles have no stacked kernel, so the stack runs here on
    # the unit coordinate, one ``_profile_terms`` a member: its rows share
    # one broadcast weight row and the batched product, where each
    # ``entropy_functional`` sums a lone member with ``np.dot``
    members = [NoonHusimi(n) for n in (3, 0, 7, 1, 12, 5, 2, 9, 4)]
    singles = [entropy_functional(m) for m in members]
    calls = []

    def terms(s, at, counts):
        calls.append(len(at))
        ends = np.cumsum((0, *counts))
        return np.concatenate([_profile_terms(members[i].s_profile, _entropy_factor,
                                              s[lo:hi]) for i, lo, hi in zip(at, ends, ends[1:])])

    got = _run_1d(terms, [None] * len(members), QuadratureSpec(), "entropy functional",
                  coordinate="unit")
    assert [_bits(r) for r in got] == [_bits(r) for r in singles]
    # 1,200 nodes a member: six members to a call of at most 2^13 nodes
    assert calls == [6, 3]


def test_a_line_stack_holds_the_layouts_of_one_chunk_at_a_time():
    # each member's segments hand their joined first call over to the
    # chunk that evaluates it, so the 51-member number-state line stack
    # (65,472 nodes over all levels) peaks at what one chunk of at most
    # 2^13 nodes holds, about a dozen arrays of it
    members = [FockPositionDensity(n) for n in range(51)]
    density_entropies_1d(members)  # fill the caches of layouts and cutoffs first
    tracemalloc.start()
    try:
        density_entropies_1d(members)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * (1 << 13) * 8


def test_a_member_that_misses_its_tolerance_escalates_alone(monkeypatch):
    # at 1e-10 the number-state lines up to n = 10 settle on their first two
    # levels and the others take a third, each in a call of its own
    spec = QuadratureSpec(abs_tol=1e-10, rel_tol=1e-10)
    members = [FockPositionDensity(n) for n in range(0, 51, 5)]
    singles = [density_entropy_1d(d, spec) for d in members]
    calls = _recorded(monkeypatch, FockMixturePositionDensity, "stacked_log_f")
    got = density_entropies_1d(members, spec)
    assert [_bits(r) for r in got] == [_bits(r) for r in singles]
    # every member's first two levels join a chunk; a member whose two levels
    # disagree runs each later level alone, one call a level
    assert sum(len(stack) for stack, _ in calls if len(stack) > 1) == len(members)
    alone = [stack[0] for stack, _ in calls if len(stack) == 1]
    settled = []
    for member in members:
        try:
            density_entropy_1d(member, dataclasses.replace(spec, max_escalations=0))
            settled.append(member)
        except ToleranceNotReached:
            pass
    assert 0 < len(settled) < len(members)
    assert {id(m) for m in alone} == {id(m) for m in members if m not in settled}


def test_a_radial_member_that_misses_its_tolerance_escalates_alone(monkeypatch):
    # at 1e-15 the number states n = 35, 45 and 50 need a third level, the
    # others settle on their first two; each later level runs alone
    spec = QuadratureSpec(abs_tol=1e-15, rel_tol=1e-15)
    members = [FockHusimi(n) for n in range(0, 51, 5)]
    singles = [entropy_functional(ev, spec) for ev in members]
    calls = _recorded(monkeypatch, FockMixtureHusimi, "stacked_log_q_radial")
    got = entropy_functionals(members, spec)
    assert [_bits(r) for r in got] == [_bits(r) for r in singles]
    assert sum(len(stack) for stack, _ in calls if len(stack) > 1) == len(members)
    alone = [stack[0].n for stack, _ in calls if len(stack) == 1]
    settled = []
    for member in members:
        try:
            entropy_functional(member, dataclasses.replace(spec, max_escalations=0))
            settled.append(member.n)
        except ToleranceNotReached:
            pass
    assert 0 < len(settled) < len(members)
    assert sorted(set(alone)) == [m.n for m in members if m.n not in settled]


@pytest.mark.parametrize("beta_omega", [1e-3, 0.05, 1.0, 20.0, 800.0])
def test_thermal_integrals_are_exact_on_six_gauss_laguerre_nodes(beta_omega):
    # ln Q is affine in u = rate r^2 / 2, so the 2- and 4-point rules are
    # both exact: they agree to rounding and there is no cutoff
    res = entropy_functional(ThermalHusimi(beta_omega))
    want = wehrl_thermal_closed(beta_omega)
    assert abs(res.value - want) <= 4.0 * np.finfo(float).eps * abs(want)
    assert res.nodes_used == 6 and res.error_estimate <= 1e-15
    norm = normalization(ThermalHusimi(beta_omega))
    assert abs(norm.value - 1.0) <= 1e-15 and norm.nodes_used == 6


def test_a_thermal_stack_is_one_kernel_call_with_the_bits_of_its_integrals(monkeypatch):
    members = [ThermalHusimi(b) for b in np.geomspace(1e-3, 800.0, 400)]
    singles = [entropy_functional(ev) for ev in members]
    calls = _recorded(monkeypatch, ThermalHusimi, "stacked_log_q_radial")
    got = entropy_functionals(members)
    assert [_bits(r) for r in got] == [_bits(r) for r in singles]
    assert [nodes for _, nodes in calls] == [6 * len(members)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_the_line_entropy_of_a_number_state_past_the_float_range_is_refused():
    result = density_entropy_1d(FockPositionDensity(650))
    assert (result.value, result.nodes_used) == (3.8174751033406342, 36_848)
    with pytest.raises(UnsupportedState, match=r"index 651\b"):
        density_entropy_1d(FockPositionDensity(651))


@pytest.mark.parametrize("tol", [1e-6, 1e-8])
@pytest.mark.parametrize("n", [0, 1, 2, 5, 10, 20, 30, 50])
def test_noon_rows_converge_on_the_first_two_triangle_levels(caplog, n, tol):
    # the s-rule starts at 400 nodes and checks at 800, and so does the
    # marginal entropy of a mutual information (the two factor relative
    # entropies at n = 0, where there is no s-rule); radial_nodes = 800
    # lays out 800 and 1,600, one doubling finer
    state = NoonState(n)
    runs = {wehrl_quadrature: 1, wehrl_mutual_information: 2}
    for fn, count in runs.items():
        res, nodes = _levels_run(caplog, lambda: fn(state, QuadratureSpec(abs_tol=tol, rel_tol=tol)))
        assert nodes == [400, 800] * count
        assert res.nodes_used == 1200 * count
        finer = fn(state, QuadratureSpec(radial_nodes=800, abs_tol=tol, rel_tol=tol))
        assert abs(res.value - finer.value) <= res.error_estimate + finer.error_estimate


@pytest.mark.parametrize("fn", [wehrl_quadrature, wehrl_mutual_information],
                         ids=["joint", "mutual-information"])
def test_noon_triangle_peak_memory_stays_within_a_few_finest_arrays(fn):
    # a NOON row forms no 2D array: its largest call is the joined first
    # two levels of the s-rule or of the marginal entropy of a mutual
    # information, 1,200 nodes, and the peak stays within ten arrays of
    # that call
    state = NoonState(5)
    spec = QuadratureSpec(abs_tol=1e-6, rel_tol=1e-6)
    fn(state, spec)  # fill the caches of layouts and cutoffs first
    tracemalloc.start()
    try:
        fn(state, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 1200 * 8


def test_a_tight_noon_mutual_information_takes_a_third_level(caplog):
    # at 1e-15 the entropy of the N = 50 marginal takes a third level, in
    # a call of its own, while the s-rule settles on its first two, as the
    # joint entropy does
    spec = QuadratureSpec(abs_tol=1e-15, rel_tol=1e-15)
    state = NoonState(50)
    res, nodes = _levels_run(caplog, lambda: wehrl_mutual_information(state, spec))
    assert nodes == [400, 800, 1600, 400, 800]
    assert res.nodes_used == 4_000
    _, nodes = _levels_run(caplog, lambda: wehrl_quadrature(state, spec))
    assert nodes == [400, 800]


def test_state_round_trip_through_evaluator_normalization():
    res = normalization(evaluator_for(NoonState(5)))
    assert abs(res.value - 1.0) < 1e-7


def test_numeric_marginal_normalizes():
    numeric = marginal_husimi(ProductHusimi(FockHusimi(1), FockHusimi(2)), "a")
    # product marginals short-circuit; force the quadrature path via noon
    traced = QuadratureMarginalHusimi(NoonHusimi(1), keep="b")
    res = normalization(traced)
    assert abs(res.value - 1.0) < 1e-6
    assert numeric is not None
