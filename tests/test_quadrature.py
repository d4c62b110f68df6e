"""Quadrature engine invariants: normalization, refinement, determinism."""

import dataclasses
import functools
import logging
import math
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.special import eval_hermite, gammainccinv, gammaln, roots_hermite

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
    _density_terms,
    _entropy_factor,
    _hermite_rule,
    _log_factor,
    _panel_nodes,
    _tail_mass,
    _unit_factor,
    _unit_panels,
)

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
    cases = (FockHusimi(6), ThermalHusimi(0.3))
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
def test_polar_folds_reproduce_the_unfolded_rule(rho, sigma, radial_panels, monkeypatch):
    # The triangle runner folds the exchange and averages the angle exactly;
    # the unfolded 3D rule, at two resolutions, must agree with it within
    # the sum of both two-level estimates.  The runner's first level has
    # radial_panels Gauss-Legendre panels in r_A (a quarter of radial_nodes)
    # and half as many, rounded down, in s: 16 and 8 or 15 and 7, an even
    # and an odd layout.
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
    # the third level is 5e-10 from the second, far from a tolerance of
    # 1e-15; with the budget at 10^5 the fourth level (800 x 400) is
    # refused after 96 x 48, 192 x 96 and 400 x 192 nodes
    budget = 100_000
    monkeypatch.setattr("wehrlkit.quadrature._MAX_LEVEL_NODES", budget)
    spec = QuadratureSpec(abs_tol=1e-15, rel_tol=1e-15)
    with caplog.at_level(logging.INFO, logger="wehrlkit"):
        with pytest.raises(ToleranceNotReached, match="node ceiling") as err:
            relative_entropy(NoonHusimi(1), ProductHusimi(FockHusimi(0), FockHusimi(1)), spec)
    assert err.value.result.nodes_used == 96 * 48 + 192 * 96 + 400 * 192
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


def _dense_triangle_level(rho, sigma, factor_of_log, n_r, n_s, cutoff, log_tiny=LOG_TINY,
                          log_support=LOG_SUPPORT):
    """One "noon" triangle level as a dense (n_r, n_s) integrand, node by node.

    The reference the axis-factor runner is checked against:
    ln <Q> and <Q ln Q> / <Q> of the NOON density in closed form on the
    whole grid, ln S of the two reference orders at every node, clamped
    at 2 ``log_tiny`` and averaged, a support check (Q above
    e^``log_support``) where S is below e^``log_tiny``, exact zeros where
    <Q> is at most e^``log_tiny``, and one weighted sum.
    """
    r, wr = _panel_nodes(0.0, cutoff, n_r)
    s, ws = _panel_nodes(0.0, 1.0, n_s, graded=True)
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
    factor = factor_of_log(log_factor, out=log_factor)
    if sigma is not None:
        r_b = np.outer(r, s)
        log_a, log_b = sigma.factor_a.log_q_radial, sigma.factor_b.log_q_radial
        ab = log_a(r)[:, None] + log_b(r_b)
        ba = log_a(r_b) + log_b(r)[:, None]
        if np.any(log_mass[(ab < log_tiny) | (ba < log_tiny)] > log_support):
            raise SupportViolation("dense rule: mass where the reference underflows")
        floor = 2.0 * log_tiny
        factor = factor - 0.5 * (np.maximum(ab, floor) + np.maximum(ba, floor))
    dead = log_mass <= log_tiny
    terms = np.where(dead, 0.0, np.exp(log_mass) * np.where(dead, 0.0, factor))
    return float(np.sum(terms * np.outer(2.0 * wr * r**3, ws * s)))


# functional, reference for an excitation n (or None), factor of ln Q
_TRIANGLE_CASES = {
    "entropy": (entropy_functional, None, _entropy_factor),
    "normalization": (normalization, None, _unit_factor),
    # two equal instances, so the runner forms both orders
    "marginals": (relative_entropy,
                  lambda n: ProductHusimi(NoonMarginalHusimi(n), NoonMarginalHusimi(n)),
                  _log_factor),
    # not exchange symmetric at all
    "asymmetric": (relative_entropy, lambda n: ProductHusimi(FockHusimi(0), FockHusimi(1)),
                   _log_factor),
}


@pytest.mark.parametrize("case", sorted(_TRIANGLE_CASES))
@pytest.mark.parametrize("n", [0, 1, 5, 10, 50])
def test_axis_factor_levels_match_the_dense_rule(caplog, case, n):
    # every level the runner logs against the dense integrand at the same
    # resolution and cutoff
    run, reference, factor_of_log = _TRIANGLE_CASES[case]
    rho, sigma = NoonHusimi(n), reference and reference(n)
    spec = QuadratureSpec(abs_tol=1e-7, rel_tol=1e-7)
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="wehrlkit"):
        res = run(rho, spec=spec) if sigma is None else run(rho, sigma, spec)
    levels = [rec.args[1:4] for rec in caplog.records if rec.levelno == logging.DEBUG]
    assert len(levels) >= 2
    cutoff = gamma_tail_threshold(n + 1.0, 1.0, _tail_mass(spec))
    dense = []
    for (n_r, n_s), nodes, value in levels:
        assert n_r * n_s == nodes
        dense.append(_dense_triangle_level(rho, sigma, factor_of_log, n_r, n_s, cutoff))
        assert abs(value - dense[-1]) < 1e-13
    assert abs(res.value - dense[-1]) < 1e-13
    assert abs(res.error_estimate - abs(dense[-1] - dense[-2])) < 1e-13


@pytest.mark.parametrize("run, factor_of_log", [(entropy_functional, _entropy_factor),
                                                 (normalization, _unit_factor)],
                         ids=["entropy", "normalization"])
def test_triangle_nodes_below_the_mass_floor_contribute_exactly_zero(monkeypatch, run,
                                                                    factor_of_log):
    # With the floor raised from 1e-300 to 1e-3, 8,225 of the 18,432
    # nodes of the N = 5 density's second level fall under it, 2% of its
    # mass.  The axis bound clears 48 of the 192 rows and flags the rest;
    # the level must be the dense rule with those nodes zeroed, well away
    # from the level under the usual floor.
    log_tiny = math.log(1e-3)
    spec = QuadratureSpec(abs_tol=1.0, rel_tol=1.0)
    rho = NoonHusimi(5)
    cutoff = gamma_tail_threshold(6.0, 1.0, _tail_mass(spec))
    usual = run(rho, spec).value
    monkeypatch.setattr("wehrlkit.quadrature.LOG_TINY", log_tiny)
    res = run(rho, spec)
    want = _dense_triangle_level(rho, None, factor_of_log, 192, 96, cutoff, log_tiny)
    assert abs(res.value - want) < 1e-13
    assert abs(res.value - usual) > 0.01


@pytest.mark.parametrize("sigma", [
    ProductHusimi(NoonMarginalHusimi(5), NoonMarginalHusimi(5)),
    ProductHusimi(FockHusimi(0), FockHusimi(1)),
], ids=["marginals", "asymmetric"])
def test_triangle_clamps_the_reference_log_like_the_dense_rule(monkeypatch, sigma):
    # With the underflow threshold raised to 1e-3 (the clamp to 1e-6) and
    # the support check disarmed, the reference falls under the threshold
    # on rows the axis bound flags, and the clamped ln S changes the value;
    # the level must still be the dense rule under the same thresholds.
    log_tiny = math.log(1e-3)
    spec = QuadratureSpec(abs_tol=1.0, rel_tol=1.0)
    rho = NoonHusimi(5)
    cutoff = gamma_tail_threshold(6.0, 1.0, _tail_mass(spec))
    usual = relative_entropy(rho, sigma, spec).value
    monkeypatch.setattr("wehrlkit.quadrature.LOG_TINY", log_tiny)
    monkeypatch.setattr("wehrlkit.quadrature._LOG_FLOOR", 2.0 * log_tiny)
    monkeypatch.setattr("wehrlkit.quadrature.LOG_SUPPORT", math.inf)
    res = relative_entropy(rho, sigma, spec)
    want = _dense_triangle_level(rho, sigma, _log_factor, 192, 96, cutoff, log_tiny, math.inf)
    assert abs(res.value - want) < 1e-13
    assert abs(res.value - usual) > 0.01


def test_triangle_support_violation_is_raised_before_any_level(caplog):
    # Q_200 of the reference factors is below 1e-300 wherever a radius is
    # under about 9, where the N = 1 density has its mass
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


def test_node_counts_are_pinned():
    # a layout change must not shift these; one panel edge per distinct |zero|
    # of psi_n on the line
    line = sum(density_entropy_1d(FockPositionDensity(n)).nodes_used for n in range(51))
    radial = sum(entropy_functional(FockHusimi(n)).nodes_used for n in range(51))
    assert (line, radial) == (64_320, 61_200)
    assert entropy_functional(ThermalHusimi(0.7)).nodes_used == 1_200


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

    # each level against a call of its own on the nodes of _panel_nodes
    radial = isinstance(density, HusimiEvaluator)
    if radial:
        shape, rate, margin = density.radial_gamma_shape, density.radial_rate, 0.0
    else:
        shape, rate = density.position_gamma_shape, density.position_rate
        margin = density.position_tail_log_margin
    cutoff = gamma_tail_threshold(shape, rate, _tail_mass(QuadratureSpec()) * math.exp(-margin))
    breaks = [b for b in getattr(density, "breakpoints", ()) if b > 0.0]
    graded = len(getattr(density, "breakpoints", ())) > 0
    layouts = [_panel_nodes(0.0, cutoff, 400, breakpoints=breaks, graded=graded, doublings=k)
               for k in range(len(levels))]
    assert np.array_equal(calls[0], np.concatenate([layouts[0][0], layouts[1][0]]))
    for (x, w), (nodes, value) in zip(layouts, levels):
        assert x.size == nodes
        terms = _density_terms(log, None, _entropy_factor, x)
        want = float(np.dot(w, terms * x)) if radial else 2.0 * float(np.dot(w, terms))
        assert value == want


@pytest.mark.parametrize("density", [ThermalHusimi(0.4), FockPositionDensity(7)],
                         ids=lambda d: type(d).__name__)
def test_a_doubled_level_over_the_budget_is_never_evaluated(caplog, monkeypatch, density):
    # the base level (about 400 nodes) fits a budget of 600, its doubling does not
    monkeypatch.setattr("wehrlkit.quadrature._MAX_LEVEL_NODES", 600)
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
    # 41 members of 1,200 first-level nodes: seven chunks
    "thermal-radial": [ThermalHusimi(0.05 * 1.2 ** k) for k in range(41)],
    "fock-radial": [FockHusimi(int(n)) for n in np.random.default_rng(5).permutation(51)],
    "mixture-radial": _mixture_evaluators(21) + [NoonMarginalHusimi(n) for n in range(12)],
    "fock-mixture-line": [FockPositionDensity(int(n))
                          for n in np.random.default_rng(6).permutation(51)]
    + [FockMixturePositionDensity(w) for w in ([(0, 0.25), (1, 0.75)], [(1, 0.5), (3, 0.5)],
                                               [(2, 0.9), (5, 0.1)], [(0, 0.6), (1, 0.4)])],
}


@pytest.mark.parametrize("name", list(STACKS))
def test_a_stack_gives_the_bits_of_its_integrals_one_by_one(monkeypatch, name):
    members = STACKS[name]
    assert len(members) % 2 == 1
    line = not isinstance(members[0], HusimiEvaluator)
    singles = [(density_entropy_1d if line else entropy_functional)(m) for m in members]
    cls = FockMixturePositionDensity if line else type(members[0])
    calls = _recorded(monkeypatch, cls, "stacked_log_f" if line else "stacked_log_q_radial")
    got = (density_entropies_1d if line else entropy_functionals)(members)
    assert [_bits(r) for r in got] == [_bits(r) for r in singles]
    # one kernel call a chunk of at most 2^13 nodes evaluates the first two
    # levels of many members, and the chunks cover every member
    assert len(calls) > 1 and all(nodes <= 1 << 13 for _, nodes in calls)
    assert sum(len(stack) for stack, _ in calls) == len(members)
    assert sum(nodes for _, nodes in calls) == sum(r.nodes_used for r in singles)


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_the_line_entropy_of_a_number_state_past_the_float_range_is_refused():
    result = density_entropy_1d(FockPositionDensity(650))
    assert (result.value, result.nodes_used) == (3.817475103338994, 36_848)
    with pytest.raises(UnsupportedState, match=r"index 651\b"):
        density_entropy_1d(FockPositionDensity(651))


@pytest.mark.parametrize("tol", [1e-6, 1e-8])
@pytest.mark.parametrize("n", [0, 1, 2, 5, 10, 20, 30, 50])
def test_noon_rows_converge_on_the_first_two_triangle_levels(caplog, n, tol):
    # the triangle starts at 96 x 48 and checks at 192 x 96; radial_nodes
    # = 800 lays out 192 x 96 and 400 x 192, one doubling finer
    state = NoonState(n)
    for fn in (wehrl_quadrature, wehrl_mutual_information):
        res, nodes = _levels_run(caplog, lambda: fn(state, QuadratureSpec(abs_tol=tol, rel_tol=tol)))
        assert nodes == [96 * 48, 192 * 96]
        assert res.nodes_used == 23_040
        finer = fn(state, QuadratureSpec(radial_nodes=800, abs_tol=tol, rel_tol=tol))
        assert abs(res.value - finer.value) <= res.error_estimate + finer.error_estimate


@pytest.mark.parametrize("fn, arrays", [(wehrl_quadrature, 2.5), (wehrl_mutual_information, 3.5)],
                         ids=["joint", "mutual-information"])
def test_noon_triangle_peak_memory_stays_within_a_few_finest_arrays(fn, arrays):
    # a level holds E = exp(-r^2 s^2 / 2) and, against a reference, the
    # reference's remainder: about one and two arrays of the finest level
    # (192 x 96 at tol 1e-6), where a dense level needs five and six
    state = NoonState(5)
    spec = QuadratureSpec(abs_tol=1e-6, rel_tol=1e-6)
    fn(state, spec)  # fill the caches of layouts and cutoffs first
    tracemalloc.start()
    try:
        fn(state, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= arrays * 192 * 96 * 8


def test_a_tight_noon_mutual_information_takes_a_third_level(caplog):
    spec = QuadratureSpec(abs_tol=1e-10, rel_tol=1e-10)
    state = NoonState(10)
    res, nodes = _levels_run(caplog, lambda: wehrl_mutual_information(state, spec))
    assert nodes == [96 * 48, 192 * 96, 400 * 192]
    assert res.nodes_used == 99_840
    _, nodes = _levels_run(caplog, lambda: wehrl_quadrature(state, spec))
    assert nodes == [96 * 48, 192 * 96]


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
