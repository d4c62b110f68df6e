"""Quadrature engine invariants: normalization, refinement, determinism."""

import functools
import logging
import math
import threading

import numpy as np
import pytest
from scipy.special import eval_hermite, gammaln

from wehrlkit import (
    EULER_GAMMA,
    ConvexCombinationHusimi,
    CovarianceModel,
    DimensionMismatch,
    FockHusimi,
    GaussianHusimi,
    IntegralResult,
    NoonHusimi,
    NoonMarginalHusimi,
    ProductHusimi,
    QuadratureSpec,
    SupportViolation,
    ThermalHusimi,
    ToleranceNotReached,
    density_entropy_1d,
    density_normalization_1d,
    entropy_functional,
    conditional_husimi,
    evaluator_for,
    gamma_tail_threshold,
    gaussian_witness,
    integrate,
    normalization,
    relative_entropy,
    random_admissible_covariance,
    tmss_covariance,
    wehrl_fock_closed,
    wehrl_gaussian_joint,
    wehrl_relative_entropy,
    wehrl_thermal_closed,
)
from wehrlkit.gaussian import ModePartition
from wehrlkit.husimi import (
    LOG_TINY,
    FockPositionDensity,
    MixturePositionDensity,
    ThermalPositionDensity,
    marginal_husimi,
)
from wehrlkit.quadrature import _PANEL_NODES, _panel_nodes

from traced_marginal import QuadratureMarginalHusimi


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
    ConvexCombinationHusimi([(0.3, FockHusimi(0)), (0.7, FockHusimi(4))]),
    ProductHusimi(FockHusimi(2), ThermalHusimi(0.8)),
]


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(strategy="simpson")
    # "auto" already picks the radial or "noon" runner wherever it fits, so
    # only the cartesian rule can be forced
    for name in ("radial-1d", "polar-2d", "polar-reduced-3d"):
        with pytest.raises(ValueError):
            QuadratureSpec(strategy=name)
    with pytest.raises(TypeError):
        QuadratureSpec(angular_nodes=16)
    with pytest.raises(ValueError):
        QuadratureSpec(radial_nodes=0)
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=-1.0)
    with pytest.raises(ValueError):
        QuadratureSpec(parallelism=0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_escalations=-1)


@pytest.mark.parametrize("field, value", [
    ("radial_cutoff", 0.0),
    ("radial_cutoff", -1.0),
    ("radial_cutoff", math.nan),
    ("radial_cutoff", math.inf),
    ("abs_tol", math.nan),
    ("abs_tol", math.inf),
    ("rel_tol", math.nan),
    ("rel_tol", math.inf),
])
def test_spec_rejects_unusable_cutoffs_and_tolerances(field, value):
    # a cutoff of zero or below integrates nothing, a NaN or infinite one
    # cannot place panels, and a NaN tolerance is never met
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


def test_cutoff_insensitivity():
    """Widening the radial cutoff by 25 percent shifts results below abs_tol."""
    spec = QuadratureSpec()
    for ev in (FockHusimi(6), ThermalHusimi(0.3)):
        base_cut = gamma_tail_threshold(ev.radial_gamma_shape + 2.0, ev.radial_rate, 1e-14)
        a = entropy_functional(ev, QuadratureSpec(radial_cutoff=base_cut))
        b = entropy_functional(ev, QuadratureSpec(radial_cutoff=1.25 * base_cut))
        assert abs(a.value - b.value) < spec.abs_tol


def test_gamma_tail_threshold_monotone():
    r1 = gamma_tail_threshold(2.0, 1.0, 1e-10)
    r2 = gamma_tail_threshold(2.0, 1.0, 1e-14)
    assert r2 > r1 > 0.0
    # heavier tails (smaller rate) push the cutoff out
    assert gamma_tail_threshold(2.0, 0.5, 1e-10) > r1


def test_radial_and_cartesian_strategies_agree():
    # the entropy integrand has a log cusp, so the whitened Hermite rule
    # converges algebraically; 1e-5 is a reachable target for it
    ev = FockHusimi(3)
    radial = entropy_functional(ev)
    cartesian = entropy_functional(ev, QuadratureSpec(strategy="tensor-cartesian", abs_tol=1e-5, rel_tol=1e-5))
    assert abs(radial.value - cartesian.value) < 1e-6


def test_noon_polar_and_cartesian_strategies_agree():
    ev = NoonHusimi(1)
    polar = entropy_functional(ev)
    cartesian = entropy_functional(
        ev, QuadratureSpec(strategy="tensor-cartesian", abs_tol=1e-3, rel_tol=1e-3, cartesian_nodes_per_dim=32)
    )
    assert abs(polar.value - cartesian.value) < 2e-3


def test_forced_strategy_must_fit_the_evaluator():
    # "tensor-cartesian" is the one strategy that can be forced, so it must
    # fit every evaluator: a two-mode Gaussian, and a product of two radial
    # factors that "auto" splits into two 1D integrals but the forced rule
    # integrates jointly in 4D
    forced = QuadratureSpec(strategy="tensor-cartesian", abs_tol=1e-9, rel_tol=1e-9)
    cov = tmss_covariance(0.2)
    res = entropy_functional(GaussianHusimi(cov), forced)
    assert abs(res.value - wehrl_gaussian_joint(cov)) <= res.error_estimate + 1e-9
    prod = ProductHusimi(FockHusimi(0), ThermalHusimi(0.5))
    res = entropy_functional(prod, forced)
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
    spec = QuadratureSpec(abs_tol=1e-15, rel_tol=1e-15, max_escalations=0,
                          radial_nodes=60)
    with pytest.raises(ToleranceNotReached) as err:
        entropy_functional(NoonHusimi(3), spec)
    assert err.value.result is not None
    assert err.value.result.error_estimate > 1e-15


def test_escalation_tightens_the_estimate():
    # the "noon" triangle meets 1e-7 on its first two levels; 1e-12 needs a third
    loose = QuadratureSpec(radial_nodes=50, abs_tol=1e-3, rel_tol=1e-3)
    tight = QuadratureSpec(radial_nodes=50, abs_tol=1e-12, rel_tol=1e-12)
    a = entropy_functional(NoonHusimi(2), loose)
    b = entropy_functional(NoonHusimi(2), tight)
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
def test_gaussian_relative_entropy_is_exact_on_four_nodes_per_axis(partition):
    rng = np.random.default_rng(17 + partition.dim)
    rho = random_admissible_covariance(rng, partition)
    sigma = random_admissible_covariance(rng, partition)
    res = relative_entropy(GaussianHusimi(rho), GaussianHusimi(sigma))
    d = partition.dim
    closed = 0.5 * (np.trace(sigma.c @ np.linalg.inv(rho.c)) - d
                    + np.linalg.slogdet(rho.c)[1] - np.linalg.slogdet(sigma.c)[1])
    assert abs(res.value - closed) < 1e-12
    assert res.nodes_used == 4**d + 8**d


def test_gaussian_conditional_entropy_is_exact_on_four_nodes_per_axis():
    cov = random_admissible_covariance(np.random.default_rng(23), ModePartition(1, 1))
    cond = conditional_husimi(GaussianHusimi(cov), np.array([0.7, -0.4]))
    res = entropy_functional(cond)
    # Q(alpha | beta) has precision C_A whatever beta: n_A - ln det C_A / 2
    assert abs(res.value - gaussian_witness(cov)[0]) < 1e-12
    assert res.nodes_used == 4**2 + 8**2


def test_conditional_of_a_gaussian_product_is_its_first_factor():
    g = GaussianHusimi(random_admissible_covariance(np.random.default_rng(29), ModePartition(1, 0)))
    cond = conditional_husimi(ProductHusimi(g, g), np.array([0.7, -0.4]))
    res = entropy_functional(cond)
    assert abs(res.value - (1.0 - 0.5 * np.linalg.slogdet(g.cov.c)[1])) < 1e-12
    assert res.nodes_used == 4**2 + 8**2


def test_noon_normalization_up_to_fifty_excitations():
    for n in (0, 1, 2, 5, 10, 20, 30, 40, 50):
        assert abs(normalization(NoonHusimi(n)).value - 1.0) < 1e-8


def test_product_of_gaussians_is_gaussian():
    gauss = GaussianHusimi(tmss_covariance(0.0).reduced("a"))
    assert ProductHusimi(gauss, gauss).kind == "gaussian"
    assert ProductHusimi(gauss, FockHusimi(0)).kind != "gaussian"


def test_relative_entropy_forced_strategy_mismatch():
    # a forced strategy no longer has to match the pair: the cartesian rule
    # takes a radial pair that "auto" sends to the 1D runner.  ln Q_sigma =
    # ln c - c r^2 / 2 with c = 1 - exp(-1), and Fock(n) has mean r^2 =
    # 2 (n + 1).  Q_rho ln Q_rho has a log cusp at the origin, so the
    # Hermite rule converges algebraically and 1e-5 is the target, as for
    # the Fock entropy in test_radial_and_cartesian_strategies_agree.
    rho = FockHusimi(3)
    sigma = ThermalHusimi(1.0)
    c = -math.expm1(-1.0)
    closed = -wehrl_fock_closed(3) - math.log(c) + 4.0 * c
    forced = relative_entropy(rho, sigma, QuadratureSpec(strategy="tensor-cartesian", abs_tol=1e-5, rel_tol=1e-5))
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
    # radial 1D runner, a route independent of the polar one.
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

    The reference the "noon" triangle runner is checked against: it folds
    nothing and averages nothing in closed form.  Q comes from ``log_q``
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
def test_polar_folds_reproduce_the_unfolded_rule(rho, sigma, radial_panels):
    # The triangle runner folds the exchange and averages the angle exactly;
    # the unfolded 3D rule, at two resolutions, must agree with it within
    # the sum of both two-level estimates.  The runner's first level has
    # radial_panels Gauss-Legendre panels in r_A and half as many, rounded
    # down, in s: 16 and 8 or 15 and 7, an even and an odd layout.
    cutoff = 9.0
    spec = QuadratureSpec(radial_nodes=2 * _PANEL_NODES * radial_panels, radial_cutoff=cutoff,
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
            fn(*args, QuadratureSpec(radial_nodes=2 * _PANEL_NODES * radial_panels, abs_tol=1e-6,
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


def test_polar_runner_stops_at_the_node_budget(caplog, monkeypatch):
    # the second level is 5e-10 from the first, far from a tolerance of
    # 1e-15; with the budget at 10^5 the third level (800 x 400) is
    # refused after 192 x 96 and 400 x 192 nodes
    budget = 100_000
    monkeypatch.setattr("wehrlkit.quadrature._MAX_LEVEL_NODES", budget)
    spec = QuadratureSpec(abs_tol=1e-15, rel_tol=1e-15)
    with caplog.at_level(logging.INFO, logger="wehrlkit"):
        with pytest.raises(ToleranceNotReached, match="node ceiling") as err:
            relative_entropy(NoonHusimi(1), ProductHusimi(FockHusimi(0), FockHusimi(1)), spec)
    assert err.value.result.nodes_used == 192 * 96 + 400 * 192
    assert len(caplog.records) == 1
    assert str(budget) in caplog.records[0].getMessage()


def test_graded_s_panels_resolve_a_reference_vanishing_at_the_origin():
    # ln S = -r_A^2/2 - r_B^2/2 + ln(r_B^2 / 2) carries s ln s at s = 0.
    # Under the N = 1 density <|alpha|^2> = <|beta|^2> = 3/2 and the B
    # marginal is (Q_0 + Q_1) / 2, so <ln |beta|^2> = 1/2 - gamma_E, and
    # with S(AB) = 2 + gamma_E the relative entropy is exactly 1/2.
    res = relative_entropy(NoonHusimi(1), ProductHusimi(FockHusimi(0), FockHusimi(1)))
    assert abs(res.value - 0.5) < 1e-8
    assert res.nodes_used <= 192 * 96 + 400 * 192


@pytest.mark.parametrize("n", [1, 3])
def test_a_same_density_reference_gives_the_two_order_mean(n):
    # one marginal instance takes the single-evaluation path, two equal
    # instances the mean of both orders; the floats must be the same
    spec = QuadratureSpec(abs_tol=1e-6, rel_tol=1e-6)
    marg = NoonMarginalHusimi(n)
    once = relative_entropy(NoonHusimi(n), ProductHusimi(marg, marg), spec)
    twice = relative_entropy(NoonHusimi(n),
                             ProductHusimi(NoonMarginalHusimi(n), NoonMarginalHusimi(n)), spec)
    assert once == twice


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


def _levels_run(caplog, fn):
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="wehrlkit"):
        res = fn()
    return res, [rec.args[2] for rec in caplog.records if rec.levelno == logging.DEBUG]


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
    odd = MixturePositionDensity([(0.5, FockPositionDensity(1)), (0.5, FockPositionDensity(3))])
    res, nodes = _levels_run(caplog, lambda: density_entropy_1d(odd))
    assert len(nodes) == 2
    assert res.nodes_used == sum(nodes)


def test_state_round_trip_through_evaluator_normalization():
    from wehrlkit import NoonState

    res = normalization(evaluator_for(NoonState(5)))
    assert abs(res.value - 1.0) < 1e-7


def test_numeric_marginal_normalizes():
    numeric = marginal_husimi(ProductHusimi(FockHusimi(1), FockHusimi(2)), "a")
    # product marginals short-circuit; force the quadrature path via noon
    traced = QuadratureMarginalHusimi(NoonHusimi(1), keep="b")
    res = normalization(traced)
    assert abs(res.value - 1.0) < 1e-6
    assert numeric is not None
