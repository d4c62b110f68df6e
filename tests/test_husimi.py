"""Pointwise Husimi density checks against independent oracles.

The oracles never reuse the closed forms under test: number-state and
superposition densities are rebuilt from coherent-state overlaps in the
position representation, the thermal density from a Boltzmann series,
and the two-mode squeezed density from its Schmidt series.
"""

import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp

from wehrlkit import (
    ConditionOnZeroDensity,
    ConvexCombinationHusimi,
    DimensionMismatch,
    FockHusimi,
    FockMixtureState,
    FockPositionDensity,
    FockState,
    GaussianHusimi,
    HusimiEvaluator,
    MixturePositionDensity,
    NoonHusimi,
    NoonMarginalHusimi,
    NoonState,
    NotBipartite,
    ProductHusimi,
    ThermalHusimi,
    ThermalPositionDensity,
    ThermalState,
    TwoModeSqueezedState,
    UnsupportedState,
    conditional_husimi,
    evaluator_for,
    homodyne_marginal_fock,
    homodyne_marginal_thermal,
    marginal_husimi,
    position_density_for,
    q_fock,
    q_gaussian,
    q_noon,
    q_thermal,
    random_admissible_covariance,
    tmss_covariance,
)
from wehrlkit.gaussian import ModePartition
from wehrlkit.husimi import _hermite_function, _log_sum_exp

from traced_marginal import QuadratureMarginalHusimi


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def hermite_wavefunction(n: int, y: np.ndarray) -> np.ndarray:
    """psi_n(y) from numpy's Hermite polynomials, normalized on the line."""
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    h = np.polynomial.hermite.hermval(y, coeffs)
    norm = (2.0**n * math.factorial(n) * math.sqrt(math.pi)) ** -0.5
    return norm * h * np.exp(-0.5 * y * y)


def coherent_wavefunction(alpha: complex, y: np.ndarray) -> np.ndarray:
    """Wavepacket of the displaced vacuum, up to a global phase."""
    x0 = math.sqrt(2.0) * alpha.real
    p0 = math.sqrt(2.0) * alpha.imag
    return math.pi**-0.25 * np.exp(-0.5 * (y - x0) ** 2 + 1j * p0 * y)


def oracle_q_fock(n: int, x: float, p: float) -> float:
    """|<alpha|n>|^2 via a position-representation overlap integral."""
    alpha = (x + 1j * p) / math.sqrt(2.0)
    y = np.linspace(-14.0, 14.0, 6001)
    overlap = np.trapezoid(np.conj(coherent_wavefunction(alpha, y)) * hermite_wavefunction(n, y), y)
    return float(abs(overlap) ** 2)


def coherent_fock_amplitudes(alpha: complex, kmax: int) -> np.ndarray:
    """Amplitudes <k|alpha> = e^{-|a|^2/2} a^k / sqrt(k!), k = 0..kmax."""
    k = np.arange(kmax + 1)
    out = np.zeros(kmax + 1, dtype=complex)
    out[0] = 1.0
    for j in range(1, kmax + 1):
        out[j] = out[j - 1] * alpha / math.sqrt(j)
    return out * math.exp(-0.5 * abs(alpha) ** 2)


def oracle_q_tmss(lam: float, pt: np.ndarray, kmax: int = 120) -> float:
    """Schmidt series Q = (1 - lam^2) |sum_k (-lam)^k <alpha|k><beta|k>|^2.

    The alternating sign matches the covariance convention with momentum
    off-diagonal block -lam; it differs from the +lam series only by a
    local phase rotation on one mode.
    """
    alpha = (pt[0] + 1j * pt[1]) / math.sqrt(2.0)
    beta = (pt[2] + 1j * pt[3]) / math.sqrt(2.0)
    ca = np.conj(coherent_fock_amplitudes(alpha, kmax))
    cb = np.conj(coherent_fock_amplitudes(beta, kmax))
    amps = (-lam) ** np.arange(kmax + 1) * ca * cb
    return float((1.0 - lam * lam) * abs(amps.sum()) ** 2)


def oracle_q_noon(n: int, pt: np.ndarray) -> float:
    """Overlap |(<alpha|n><beta|0> + <alpha|0><beta|n>)|^2 / (2 (1 + delta))."""
    alpha = (pt[0] + 1j * pt[1]) / math.sqrt(2.0)
    beta = (pt[2] + 1j * pt[3]) / math.sqrt(2.0)
    ca = np.conj(coherent_fock_amplitudes(alpha, n))
    cb = np.conj(coherent_fock_amplitudes(beta, n))
    amp = ca[n] * cb[0] + ca[0] * cb[n]
    delta = 1.0 if n == 0 else 0.0
    return float(abs(amp) ** 2 / (2.0 * (1.0 + delta)))


def sample_points(dim: int, count: int, scale: float = 2.0, seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(-scale, scale, size=(count, dim))


# ---------------------------------------------------------------------------
# Single-mode densities
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_fock_density_matches_overlap_oracle(n):
    for x, p in [(0.0, 0.0), (1.0, 0.5), (-0.7, 1.3), (2.0, -2.0)]:
        got = q_fock(n, x, p)
        want = oracle_q_fock(n, x, p)
        assert abs(got - want) < 1e-10


def test_fock_density_closed_form_shape():
    # radial profile and full evaluator agree on the same circle
    ev = FockHusimi(3)
    r = np.array([0.5, 1.0, 2.2])
    pts = np.stack([r, np.zeros_like(r)], axis=-1)
    assert np.allclose(ev.log_q(pts), ev.log_q_radial(r))


def test_thermal_density_matches_boltzmann_series():
    b = 0.8
    for x, p in [(0.0, 0.0), (1.1, -0.4), (2.5, 2.5)]:
        rsq = x * x + p * p
        series = -math.expm1(-b) * math.exp(-rsq / 2.0)
        if rsq > 0.0:
            series += sum(
                -math.expm1(-b)
                * math.exp(-b * k - rsq / 2.0 + k * math.log(rsq / 2.0) - math.lgamma(k + 1))
                for k in range(1, 150)
            )
        assert abs(q_thermal(b, x, p) - series) < 1e-12


def test_thermal_density_radial_profile_consistent():
    ev = ThermalHusimi(1.3)
    r = np.array([0.0, 0.9, 3.0])
    pts = np.stack([np.zeros_like(r), r], axis=-1)
    assert np.allclose(ev.log_q(pts), ev.log_q_radial(r))


# ---------------------------------------------------------------------------
# Gaussian and two-mode squeezed densities
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("lam", [0.0, 0.3, 0.7])
def test_tmss_density_matches_schmidt_series(lam):
    ev = GaussianHusimi(tmss_covariance(lam))
    for pt in sample_points(4, 6, scale=1.8):
        got = float(ev.q(pt))
        want = oracle_q_tmss(lam, pt)
        assert abs(got - want) < 1e-10


def test_gaussian_vacuum_is_standard_normal_times_norm():
    cov = random_admissible_covariance(np.random.default_rng(3), ModePartition(1, 0))
    pts = sample_points(2, 8)
    vals = q_gaussian(cov, pts)
    c = cov.c
    want = np.sqrt(np.linalg.det(c)) * np.exp(-0.5 * np.einsum("ni,ij,nj->n", pts, c, pts))
    assert np.allclose(vals, want, atol=1e-12)


def test_tmss_evaluator_from_state():
    ev = evaluator_for(TwoModeSqueezedState(0.5))
    assert isinstance(ev, GaussianHusimi)
    assert ev.partition.bipartite


# ---------------------------------------------------------------------------
# Two-mode superposition density
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 2, 4])
def test_noon_density_matches_overlap_oracle(n):
    for pt in sample_points(4, 6, scale=1.6, seed=11):
        got = float(q_noon(n, pt))
        want = oracle_q_noon(n, pt)
        assert abs(got - want) < 1e-12


def test_noon_density_interference_zeros():
    # with r_a = r_b the bracket is 2 r^2n (1 + cos(n dtheta)), which
    # vanishes when n dtheta is an odd multiple of pi
    n = 3
    r = 1.2
    dtheta = math.pi / n
    pt = np.array([r, 0.0, r * math.cos(dtheta), r * math.sin(dtheta)])
    assert q_noon(n, pt) < 1e-30


def test_noon_angle_averaged_logs_match_a_brute_force_mean():
    # The evaluator takes the triangle axes r = max(r_A, r_B) and
    # s = min / max; pairs with r_B > r_A reach it through the exchange
    # symmetry, and the diagonal pairs sit on the edge s = 1.  Entry
    # (i, j) of the result belongs to the radii (r_i, s_j r_i); entry
    # (k, k) is checked at the pair it came from.
    m = 4096
    theta = (np.arange(m) + 0.5) * (2.0 * math.pi / m)
    pairs = [(1.1, 0.7), (0.7, 1.1), (0.9, 0.9), (2.5, 2.5), (1.3, 0.05), (4.0, 3.9)]
    r_axis = np.array([max(ra, rb) for ra, rb in pairs])
    s_axis = np.array([min(ra, rb) / max(ra, rb) for ra, rb in pairs])
    assert s_axis[2] == s_axis[3] == 1.0
    for n in (0, 1, 3, 10):
        ev = NoonHusimi(n)
        log_mean, q_log_q = ev.angle_averaged_logs(r_axis, s_axis)
        assert log_mean.shape == q_log_q.shape == (len(pairs), len(pairs))
        assert not np.shares_memory(log_mean, q_log_q)
        for i, j in itertools.product(range(len(pairs)), repeat=2):
            ra, rb = pairs[i] if i == j else (r_axis[i], s_axis[j] * r_axis[i])
            pts = np.stack([np.full(m, ra), np.zeros(m), rb * np.cos(theta), rb * np.sin(theta)],
                           axis=-1)
            logq = ev.log_q(pts)
            q = np.exp(logq)
            assert abs(log_mean[i, j] - math.log(q.mean())) < 1e-12
            # on the diagonal Q has a zero at one angle, where the midpoint
            # rule for Q ln Q converges only as (m / n)^-3
            tol = 1e-9 if ra == rb else 1e-12
            assert abs(q_log_q[i, j] - (q * logq).mean() / q.mean()) < tol


def test_noon_marginals_are_one_instance():
    for n in (0, 1, 4):
        ev = NoonHusimi(n)
        assert marginal_husimi(ev, "a") is marginal_husimi(ev, "b")


def test_noon_marginal_is_mixture_of_vacuum_and_fock():
    for n in (1, 2, 5):
        marg = NoonMarginalHusimi(n)
        pts = sample_points(2, 10, seed=5)
        want = 0.5 * (q_fock(n, pts[:, 0], pts[:, 1]) + q_fock(0, pts[:, 0], pts[:, 1]))
        assert np.allclose(marg.q(pts), want, atol=1e-13)


def test_noon_marginal_agrees_with_numeric_trace():
    n = 2
    closed = NoonMarginalHusimi(n)
    numeric = QuadratureMarginalHusimi(NoonHusimi(n), keep="a")
    pts = sample_points(2, 5, scale=1.5, seed=13)
    assert np.allclose(numeric.q(pts), closed.q(pts), atol=1e-8)


def test_marginal_husimi_dispatch():
    assert isinstance(marginal_husimi(NoonHusimi(2), "b"), NoonMarginalHusimi)
    g = marginal_husimi(GaussianHusimi(tmss_covariance(0.4)), "a")
    assert isinstance(g, GaussianHusimi)
    prod = ProductHusimi(FockHusimi(1), ThermalHusimi(0.5))
    assert marginal_husimi(prod, "a") is prod.factor_a
    assert marginal_husimi(prod, "b") is prod.factor_b
    with pytest.raises(NotBipartite):
        marginal_husimi(FockHusimi(1), "a")

    class Custom(HusimiEvaluator):
        partition = ModePartition(1, 1)

    # no numeric fallback: a family without a closed-form marginal is refused
    with pytest.raises(UnsupportedState):
        marginal_husimi(Custom(), "a")


def test_gaussian_marginal_matches_numeric_trace():
    cov = random_admissible_covariance(np.random.default_rng(21), ModePartition(1, 1))
    joint = GaussianHusimi(cov)
    closed = marginal_husimi(joint, "a")
    numeric = QuadratureMarginalHusimi(joint, keep="a")
    pts = sample_points(2, 5, scale=1.5, seed=17)
    assert np.allclose(numeric.q(pts), closed.q(pts), atol=1e-7)


@pytest.mark.parametrize("keep", ["a", "b"])
def test_numeric_trace_matches_one_sum_per_point(keep):
    # the trace runs its points in chunks; one log-sum-exp per point is
    # the reference, on a point count that leaves a partial chunk
    parent = ProductHusimi(FockHusimi(1), ThermalHusimi(0.7))
    traced = QuadratureMarginalHusimi(parent, keep=keep)
    pts = sample_points(2, 11, seed=5)
    want = []
    for point in pts:
        kept = np.broadcast_to(point, traced._nodes.shape)
        parts = (traced._nodes, kept) if keep == "b" else (kept, traced._nodes)
        want.append(logsumexp(parent.log_q(np.concatenate(parts, axis=-1)) + traced._log_w))
    assert np.allclose(traced.log_q(pts), want, rtol=0.0, atol=1e-13)


# ---------------------------------------------------------------------------
# Conditionals
# ---------------------------------------------------------------------------


def test_gaussian_conditional_pointwise_identity():
    cov = tmss_covariance(0.6)
    joint = GaussianHusimi(cov)
    marg_b = marginal_husimi(joint, "b")
    beta = np.array([0.8, -0.3])
    cond = conditional_husimi(joint, beta)
    pts = sample_points(2, 8, seed=23)
    joint_pts = np.concatenate([pts, np.broadcast_to(beta, pts.shape)], axis=-1)
    assert np.allclose(cond.q(pts) * float(marg_b.q(beta)), joint.q(joint_pts), atol=1e-13)


def test_gaussian_conditional_envelope_is_the_precision_block():
    # Schur complement of the covariance against the A block of the precision
    for seed, partition in [(31, ModePartition(1, 1)), (37, ModePartition(2, 1))]:
        cov = random_admissible_covariance(np.random.default_rng(seed), partition)
        beta = np.linspace(-0.6, 0.9, 2 * partition.n_b)
        sigma, mean = conditional_husimi(GaussianHusimi(cov), beta).gaussian_envelope()
        assert np.allclose(sigma, np.linalg.inv(cov.c_a), rtol=0.0, atol=1e-12)
        assert np.allclose(mean, -np.linalg.solve(cov.c_a, cov.c_m @ beta), rtol=0.0, atol=1e-12)


def test_noon_conditional_pointwise_identity():
    joint = NoonHusimi(2)
    beta = np.array([0.5, 0.2])
    cond = conditional_husimi(joint, beta)
    marg_b = marginal_husimi(joint, "b")
    pts = sample_points(2, 6, seed=29)
    joint_pts = np.concatenate([pts, np.broadcast_to(beta, pts.shape)], axis=-1)
    assert np.allclose(cond.q(pts) * float(marg_b.q(beta)), joint.q(joint_pts), atol=1e-12)


def test_conditional_rejects_zero_density_outcome():
    joint = NoonHusimi(4)
    with pytest.raises(ConditionOnZeroDensity):
        conditional_husimi(joint, np.array([60.0, 0.0]))


def test_conditional_rejects_wrong_outcome_dimension():
    with pytest.raises(DimensionMismatch):
        conditional_husimi(GaussianHusimi(tmss_covariance(0.2)), np.array([0.1, 0.2, 0.3]))


# ---------------------------------------------------------------------------
# Mixtures, products, bounds
# ---------------------------------------------------------------------------


def test_mixture_density_is_pointwise_convex_sum():
    mix = ConvexCombinationHusimi([(0.3, FockHusimi(0)), (0.7, FockHusimi(2))])
    pts = sample_points(2, 12, seed=31)
    want = 0.3 * FockHusimi(0).q(pts) + 0.7 * FockHusimi(2).q(pts)
    assert np.allclose(mix.q(pts), want, atol=1e-13)


def test_mixture_weight_validation():
    with pytest.raises(ValueError):
        ConvexCombinationHusimi([(0.4, FockHusimi(0)), (0.4, FockHusimi(1))])
    with pytest.raises(DimensionMismatch):
        ConvexCombinationHusimi([(0.5, FockHusimi(0)), (0.5, NoonHusimi(1))])


def test_product_density_factorizes():
    prod = ProductHusimi(FockHusimi(1), ThermalHusimi(0.9))
    pts = sample_points(4, 10, seed=37)
    want = FockHusimi(1).q(pts[:, :2]) * ThermalHusimi(0.9).q(pts[:, 2:])
    assert np.allclose(prod.q(pts), want, atol=1e-14)


def test_density_bounds_zero_to_one():
    evaluators = [
        FockHusimi(0),
        FockHusimi(4),
        ThermalHusimi(0.3),
        GaussianHusimi(tmss_covariance(0.8)),
        NoonHusimi(3),
        NoonMarginalHusimi(3),
        ConvexCombinationHusimi([(0.5, FockHusimi(0)), (0.5, FockHusimi(3))]),
    ]
    for ev in evaluators:
        pts = sample_points(ev.dim, 200, scale=4.0, seed=41)
        vals = ev.q(pts)
        assert np.all(vals >= 0.0)
        assert np.all(vals <= 1.0 + 1e-12)


def test_evaluator_rejects_wrong_point_dimension():
    with pytest.raises(DimensionMismatch):
        FockHusimi(1).q(np.zeros((3, 4)))


# ---------------------------------------------------------------------------
# Homodyne position densities
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 2, 6])
def test_fock_position_density_matches_hermite_oracle(n):
    x = np.linspace(-5.0, 5.0, 41)
    want = hermite_wavefunction(n, x) ** 2
    assert np.allclose(homodyne_marginal_fock(n, x), want, atol=1e-12)


@pytest.mark.parametrize("n", [0, 1, 3, 8])
def test_fock_position_density_normalized(n):
    x = np.linspace(-12.0, 12.0, 20001)
    total = np.trapezoid(homodyne_marginal_fock(n, x), x)
    assert abs(total - 1.0) < 1e-9


def test_fock_position_breakpoints_are_wavefunction_zeros():
    d = FockPositionDensity(3)
    assert len(d.breakpoints) == 3
    for root in d.breakpoints:
        assert d.f(root) < 1e-20


def test_thermal_position_density_variance():
    b = 0.7
    d = ThermalPositionDensity(b)
    x = np.linspace(-30.0, 30.0, 40001)
    f = homodyne_marginal_thermal(b, x)
    assert abs(np.trapezoid(f, x) - 1.0) < 1e-9
    var = np.trapezoid(x * x * f, x)
    assert abs(var - 1.0 / (2.0 * math.tanh(b / 2.0))) < 1e-8


def test_thermal_position_density_vacuum_limit():
    # large beta_omega approaches the ground-state width sigma^2 = 1/2
    d = ThermalPositionDensity(40.0)
    assert abs(d.sigma_sq - 0.5) < 1e-12


def test_mixture_position_density_linearity():
    mix = MixturePositionDensity([(0.25, FockPositionDensity(0)), (0.75, FockPositionDensity(2))])
    x = np.linspace(-4.0, 4.0, 17)
    want = 0.25 * FockPositionDensity(0).f(x) + 0.75 * FockPositionDensity(2).f(x)
    assert np.allclose(mix.f(x), want, atol=1e-13)


def test_mixture_position_breakpoints_only_for_all_odd():
    odd = MixturePositionDensity([(0.5, FockPositionDensity(1)), (0.5, FockPositionDensity(3))])
    assert odd.breakpoints == (0.0,)
    mixed = MixturePositionDensity([(0.5, FockPositionDensity(0)), (0.5, FockPositionDensity(1))])
    assert mixed.breakpoints == ()


def test_position_density_dispatch():
    assert isinstance(position_density_for(FockState(2)), FockPositionDensity)
    assert isinstance(position_density_for(ThermalState(1.0)), ThermalPositionDensity)
    mix = position_density_for(FockMixtureState(((0, 0.5), (1, 0.5))))
    assert isinstance(mix, MixturePositionDensity)
    single = position_density_for(FockMixtureState(((2, 1.0),)))
    assert isinstance(single, FockPositionDensity)
    with pytest.raises(UnsupportedState):
        position_density_for(TwoModeSqueezedState(0.5))
    with pytest.raises(UnsupportedState):
        position_density_for(NoonState(1))


def test_hermite_function_matches_the_allocating_recurrence():
    # the recurrence runs in two reused buffers, in the same order of operations
    x = np.linspace(-9.0, 9.0, 101)
    for n in (0, 1, 7, 50):
        psi_prev, psi = np.zeros_like(x), math.pi ** (-0.25) * np.exp(-0.5 * x * x)
        for k in range(n):
            psi_prev, psi = psi, x * math.sqrt(2.0 / (k + 1)) * psi - math.sqrt(k / (k + 1.0)) * psi_prev
        assert np.array_equal(_hermite_function(n, x), psi)
    assert np.ndim(_hermite_function(3, 0.5)) == 0


# ---------------------------------------------------------------------------
# Log-sum-exp
# ---------------------------------------------------------------------------


def test_log_sum_exp_matches_scipy():
    rng = np.random.default_rng(41)
    for shape in [(2, 800), (3, 4, 5)]:
        stack = rng.normal(scale=30.0, size=shape)
        stack[0, 0] = -np.inf
        for axis in range(len(shape)):
            got = _log_sum_exp(stack, axis=axis)
            assert np.allclose(got, logsumexp(stack, axis=axis), rtol=1e-14, atol=1e-14)


def test_log_sum_exp_all_minus_inf_column_is_silent():
    stack = np.array([[-np.inf, 0.0, -2.0], [-np.inf, -np.inf, -1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _log_sum_exp(stack)
    assert got[0] == -np.inf
    assert got[1] == 0.0
    assert got[2] == pytest.approx(np.logaddexp(-2.0, -1.0), abs=1e-15)
