"""Pointwise Husimi density checks against independent oracles.

The oracles never reuse the closed forms under test: number-state and
superposition densities are rebuilt from coherent-state overlaps in the
position representation, the thermal density from a Boltzmann series,
and the two-mode squeezed density from its Schmidt series.
"""

import decimal
import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.special import eval_hermite, logsumexp
from scipy.stats import multivariate_normal

from wehrlkit import (
    ConvexCombinationHusimi,
    CovarianceModel,
    DimensionMismatch,
    FockHusimi,
    FockMixtureHusimi,
    FockMixturePositionDensity,
    FockMixtureState,
    FockPositionDensity,
    FockState,
    GaussianHusimi,
    HusimiEvaluator,
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
    evaluator_for,
    marginal_husimi,
    position_density_for,
    random_admissible_covariance,
    tmss_covariance,
)
from wehrlkit.gaussian import ModePartition
from wehrlkit.husimi import _hermite_steps, _hermite_zeros, _log_sum_exp, _outer_sum

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


def log_q_fock_closed(k: int, r: np.ndarray) -> np.ndarray:
    """ln Q_k(r) = 2k ln r - r^2/2 - ln(2^k k!), -inf at r = 0 for k >= 1."""
    with np.errstate(divide="ignore"):
        power = 2.0 * k * np.log(r) if k else np.zeros_like(r)
    return power - 0.5 * r * r - (k * math.log(2.0) + math.lgamma(k + 1))


def log_f_fock_closed(k: int, x: np.ndarray) -> np.ndarray:
    """ln psi_k(x)^2 from scipy's H_k, -inf at its zeros."""
    with np.errstate(divide="ignore"):
        return (2.0 * np.log(np.abs(eval_hermite(k, x))) - x * x
                - (0.5 * math.log(math.pi) + k * math.log(2.0) + math.lgamma(k + 1)))


def log_q_mixture_truth(weights, r: float) -> float:
    """ln sum_k w_k Q_k(r) for one radius, summed in 40-digit decimal arithmetic."""
    with decimal.localcontext(decimal.Context(prec=40)):
        rsq = decimal.Decimal(r) ** 2
        total = sum(decimal.Decimal(w) * (rsq**k if k else 1) / (2**k * math.factorial(k))
                    for k, w in weights)
        return float(total.ln() - rsq / 2) if total else -math.inf


def sample_points(dim: int, count: int, scale: float = 2.0, seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(-scale, scale, size=(count, dim))


# ---------------------------------------------------------------------------
# Single-mode densities
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_fock_density_matches_overlap_oracle(n):
    for x, p in [(0.0, 0.0), (1.0, 0.5), (-0.7, 1.3), (2.0, -2.0)]:
        got = float(FockHusimi(n).q(np.array([x, p])))
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
        assert abs(float(ThermalHusimi(b).q(np.array([x, p]))) - series) < 1e-12


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
    vals = GaussianHusimi(cov).q(pts)
    c = cov.c
    want = np.sqrt(np.linalg.det(c)) * np.exp(-0.5 * np.einsum("ni,ij,nj->n", pts, c, pts))
    assert np.allclose(vals, want, atol=1e-12)


def test_tmss_evaluator_from_state():
    ev = evaluator_for(TwoModeSqueezedState(0.5))
    assert isinstance(ev, GaussianHusimi)
    assert ev.partition.bipartite


def _gaussian_oracle_log_q(cov, pts):
    """ln Q from scipy's normal density of covariance V + 1/2, against d^dim r / (2 pi)^(dim/2)."""
    sigma = cov.v + 0.5 * np.eye(cov.dim)
    return multivariate_normal(cov=sigma).logpdf(pts) + 0.5 * cov.dim * math.log(2.0 * math.pi)


@pytest.mark.parametrize("partition",
                         [ModePartition(1, 0), ModePartition(1, 1), ModePartition(2, 1)],
                         ids=lambda p: f"dim{p.dim}")
def test_gaussian_kernel_matches_scipy_on_every_point_shape(partition):
    rng = np.random.default_rng(partition.dim)
    dim = partition.dim
    for _ in range(5):
        cov = random_admissible_covariance(rng, partition)
        ev = GaussianHusimi(cov)
        wide = rng.uniform(-2.5, 2.5, size=(60, 2 * dim))
        batches = [
            wide[0, :dim],                       # one point
            wide[:, :dim],                       # (n, dim), rows strided
            wide[:, ::2],                        # (n, dim), columns strided
            wide[:, :dim].reshape(6, 10, dim),   # (a, b, dim)
        ]
        for pts in batches:
            got = ev.log_q(pts)
            want = _gaussian_oracle_log_q(cov, pts)
            assert np.shape(got) == pts.shape[:-1]
            assert np.max(np.abs(got - want)) <= 1e-12


def test_product_of_gaussian_marginals_is_the_block_diagonal_gaussian():
    rng = np.random.default_rng(19)
    cov_a = random_admissible_covariance(rng, ModePartition(1, 0))
    cov_b = random_admissible_covariance(rng, ModePartition(2, 0))
    v = np.zeros((6, 6))
    v[:2, :2] = cov_a.v
    v[2:, 2:] = cov_b.v
    joint = GaussianHusimi(CovarianceModel.from_v(v, ModePartition(1, 2)))
    product = ProductHusimi(GaussianHusimi(cov_a), GaussianHusimi(cov_b))
    pts = rng.uniform(-2.5, 2.5, size=(4, 5, 6))
    assert np.max(np.abs(product.log_q(pts) - joint.log_q(pts))) <= 1e-12


# ---------------------------------------------------------------------------
# Two-mode superposition density
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 2, 4])
def test_noon_density_matches_overlap_oracle(n):
    for pt in sample_points(4, 6, scale=1.6, seed=11):
        got = float(NoonHusimi(n).q(pt))
        want = oracle_q_noon(n, pt)
        assert abs(got - want) < 1e-12


def test_noon_density_interference_zeros():
    # with r_a = r_b the bracket is 2 r^2n (1 + cos(n dtheta)), which
    # vanishes when n dtheta is an odd multiple of pi
    n = 3
    r = 1.2
    dtheta = math.pi / n
    pt = np.array([r, 0.0, r * math.cos(dtheta), r * math.sin(dtheta)])
    assert NoonHusimi(n).q(pt) < 1e-30


def test_noon_angle_averaged_logs_match_a_brute_force_mean():
    # The evaluator takes the triangle axes r = max(r_A, r_B) and
    # s = min / max; pairs with r_B > r_A reach it through the exchange
    # symmetry, and the diagonal pairs sit on the edge s = 1.  Entry
    # (i, j), a_i + b_j - r_i^2 s_j^2 / 2 and a_i + c_j - r_i^2 s_j^2 / 2
    # from the axis factors, belongs to the radii (r_i, s_j r_i); entry
    # (k, k) is checked at the pair it came from.
    m = 4096
    theta = (np.arange(m) + 0.5) * (2.0 * math.pi / m)
    pairs = [(1.1, 0.7), (0.7, 1.1), (0.9, 0.9), (2.5, 2.5), (1.3, 0.05), (4.0, 3.9)]
    r_axis = np.array([max(ra, rb) for ra, rb in pairs])
    s_axis = np.array([min(ra, rb) / max(ra, rb) for ra, rb in pairs])
    assert s_axis[2] == s_axis[3] == 1.0
    cross = 0.5 * np.outer(r_axis**2, s_axis**2)
    for n in (0, 1, 3, 10, 50):
        ev = NoonHusimi(n)
        a, b, c = ev.angle_averaged_logs(r_axis, s_axis)
        assert a.shape == r_axis.shape and b.shape == c.shape == s_axis.shape
        assert not (np.shares_memory(a, b) or np.shares_memory(a, c) or np.shares_memory(b, c))
        log_mean = a[:, None] + b - cross
        q_log_q = a[:, None] + c - cross
        for i, j in itertools.product(range(len(pairs)), repeat=2):
            ra, rb = pairs[i] if i == j else (r_axis[i], s_axis[j] * r_axis[i])
            pts = np.stack([np.full(m, ra), np.zeros(m), rb * np.cos(theta), rb * np.sin(theta)],
                           axis=-1)
            logq = ev.log_q(pts)
            q = np.exp(logq)
            assert abs(log_mean[i, j] - math.log(q.mean())) < 1e-12
            # on the diagonal Q has a zero at each of n angles, where the
            # midpoint rule for Q ln Q converges only as (m / n)^-3
            tol = 1e-9 if ra == rb else 1e-12
            assert abs(q_log_q[i, j] - (q * logq).mean() / q.mean()) < tol, (n, i, j)


def test_noon_marginals_are_one_instance():
    for n in (0, 1, 4):
        ev = NoonHusimi(n)
        assert marginal_husimi(ev, "a") is marginal_husimi(ev, "b")


def test_noon_marginal_is_mixture_of_vacuum_and_fock():
    for n in (0, 1, 2, 5):
        marg = NoonMarginalHusimi(n)
        pts = sample_points(2, 10, seed=5)
        r = np.hypot(pts[:, 0], pts[:, 1])
        want = 0.5 * (np.exp(log_q_fock_closed(n, r)) + np.exp(log_q_fock_closed(0, r)))
        assert np.allclose(marg.q(pts), want, atol=1e-13)
    assert NoonMarginalHusimi(0).weights == ((0, 1.0),)


# The error bounds are those of the kernels at the time they became one
# logaddexp fold: 1.137e-13 is one unit in the last place of
# ln Q = -r^2/2 = -800 at r = 40, and Fock n = 50 reaches two.
_RADIAL_TRUTH_GRID = np.concatenate([[0.0], np.geomspace(1e-6, 40.0, 2001)])


@pytest.mark.parametrize("n", [1, 2, 10, 50, 100])
def test_noon_marginal_radial_log_matches_logaddexp(n):
    # the logaddexp formula on whole arrays against a 40-digit truth;
    # the vacuum term keeps ln Q finite at r = 0
    r = _RADIAL_TRUTH_GRID
    want = np.array([log_q_mixture_truth(((0, 0.5), (n, 0.5)), x) for x in r])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = NoonMarginalHusimi(n).log_q_radial(r)
    assert np.isfinite(got[0])
    assert np.max(np.abs(got - want)) <= 1.137e-13


@pytest.mark.parametrize("n, bound", [(0, 0.0), (1, 1.137e-13), (7, 1.137e-13), (50, 2.274e-13)])
def test_fock_radial_log_matches_decimal_truth(n, bound):
    r = _RADIAL_TRUTH_GRID
    want = np.array([log_q_mixture_truth(((n, 1.0),), x) for x in r])
    got = FockHusimi(n).log_q_radial(r)
    assert (got[0] == -np.inf) == (n > 0)
    assert np.max(np.abs(got[1:] - want[1:])) <= bound


@pytest.mark.parametrize("ev", [
    FockHusimi(0), FockHusimi(1), FockHusimi(7), NoonMarginalHusimi(5), NoonMarginalHusimi(50),
    FockMixtureHusimi([(0, 0.3), (4, 0.7)]), FockMixtureHusimi([(2, 0.2), (3, 0.3), (9, 0.5)]),
    # e^(c_3 - c_0) r^6 overflows, so the default forms rho instead
    FockMixtureHusimi([(0, 1e-310), (3, 1.0)]),
    ThermalHusimi(0.4),
], ids=lambda ev: f"{type(ev).__name__}{getattr(ev, 'weights', '')}")
def test_radial_remainder_is_the_log_plus_the_vacuum_gaussian(ev):
    # ln Q(rho) + rho^2 / 2 at rho = r_i s_j, against the logsumexp of
    # the Fock terms; where the terms cancel to near 0 (Fock 7 at rho = 2.6
    # gives -3.1e-5 from terms of size 13), both carry rounding of the
    # terms' size
    r = np.array([1e-3, 0.3, 1.0, 2.5, 7.0, 13.0])
    s = np.array([1e-7, 1e-3, 0.2, 0.7, 1.0])
    rho = np.outer(r, s)
    if isinstance(ev, FockMixtureHusimi):
        terms = [math.log(w) + 2 * k * np.log(rho) - k * math.log(2.0) - math.lgamma(k + 1)
                 for k, w in ev.weights]
        want = logsumexp(np.stack(terms), axis=0)
    else:
        want = ev.log_q_radial(rho) + 0.5 * rho * rho
    got = ev.log_q_remainder(r, s)
    assert got.shape == (r.size, s.size)
    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))
    assert not np.shares_memory(got, ev.log_q_remainder(r, s))


def test_outer_sum_gives_the_numbers_of_the_outer_ufuncs():
    rng = np.random.default_rng(7)
    x, y = rng.normal(size=37) * 30.0, rng.normal(size=11)
    shape = (x.size, y.size)
    assert np.array_equal(_outer_sum([(x, y)], shape), np.multiply.outer(x, y))
    assert np.array_equal(_outer_sum([(x, 1.0), (1.0, y)], shape), np.add.outer(x, y))


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
# Mixtures, products, bounds
# ---------------------------------------------------------------------------


def test_mixture_density_is_pointwise_convex_sum():
    mix = FockMixtureHusimi([(0, 0.3), (2, 0.7)])
    pts = sample_points(2, 12, seed=31)
    want = 0.3 * FockHusimi(0).q(pts) + 0.7 * FockHusimi(2).q(pts)
    assert np.allclose(mix.q(pts), want, atol=1e-13)


def test_mixture_weight_validation():
    with pytest.raises(ValueError):
        ConvexCombinationHusimi([(0.4, FockHusimi(0)), (0.4, FockHusimi(1))])
    with pytest.raises(DimensionMismatch):
        ConvexCombinationHusimi([(0.5, FockHusimi(0)), (0.5, NoonHusimi(1))])


FOCK_MIXTURES = [
    ((0, 0.5), (1, 0.5)),
    ((0, 1e-3), (50, 0.999)),
    ((1, 0.3), (3, 0.7)),
    ((2, 0.2), (7, 1e-3), (20, 0.799)),
]


@pytest.mark.parametrize("weights", FOCK_MIXTURES, ids=str)
def test_fock_mixture_kernels_match_the_per_component_log_sum_exp(weights):
    # one pass over the occupied indices against scipy's logsumexp of the
    # closed-form pure-state logs, -inf where every component vanishes
    r = np.linspace(0.0, 40.0, 801)
    x = np.linspace(0.0, 30.0, 601)
    log_w = np.log([w for _, w in weights])[:, None]
    want_q = logsumexp([log_q_fock_closed(k, r) for k, _ in weights] + log_w, axis=0)
    want_f = logsumexp([log_f_fock_closed(k, x) for k, _ in weights] + log_w, axis=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got_q = FockMixtureHusimi(weights).log_q_radial(r)
        got_f = FockMixturePositionDensity(weights).log_f(x)
    assert np.allclose(got_q, want_q, rtol=1e-13, atol=1e-13)
    assert np.allclose(got_f, want_f, rtol=1e-13, atol=1e-13)
    assert (got_q[0] == -np.inf) == (weights[0][0] > 0)


def test_number_state_kernels_are_silent_at_their_edges():
    # r = 0 (where 2 k0 ln r is -inf), x = 0 (a zero of every odd psi_k), and
    # the far tails r <= 40, x <= 37, with warnings as errors
    r = np.concatenate([[0.0], np.linspace(1e-3, 40.0, 400)])
    x = np.concatenate([[0.0], np.linspace(1e-3, 37.0, 400)])
    radial = [FockHusimi(n) for n in (0, 1, 7, 50)] + [NoonMarginalHusimi(n) for n in (0, 1, 10, 100)]
    radial += [FockMixtureHusimi(w) for w in FOCK_MIXTURES]
    line = [FockPositionDensity(n) for n in (0, 1, 7, 50)]
    line += [FockMixturePositionDensity(w) for w in FOCK_MIXTURES]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ev in radial:
            got = ev.log_q_radial(r)
            assert (got[0] == -np.inf) == (ev.weights[0][0] > 0)
            assert np.all(np.isfinite(got[1:]))
        for dens in line:
            got = dens.log_f(x)
            assert (got[0] == -np.inf) == all(k % 2 == 1 for k, _ in dens.weights)
            assert np.all(np.isfinite(got[1:]))


def test_odd_fock_mixture_line_density_vanishes_at_zero_silently():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = FockMixturePositionDensity([(1, 0.3), (3, 0.7)]).log_f(np.array([0.0, 0.5]))
    assert got[0] == -np.inf
    assert np.isfinite(got[1])


@pytest.mark.parametrize("weights", FOCK_MIXTURES, ids=str)
def test_fock_mixture_tail_parameters_are_the_component_rules(weights):
    # index k has Gamma shape k, rate 1 in r and 2 in x, and line margin
    # (k + 1) ln 2 + ln(k + 1): the largest index sets the shape and the
    # margin; the line has a zero at 0 only when every index is odd
    top = max(k for k, _ in weights)
    mix = FockMixtureHusimi(weights)
    assert mix.kind == "radial"
    assert mix.radial_gamma_shape == top
    assert mix.radial_rate == 1.0
    assert mix.axis_second_moment == pytest.approx(sum(w * (k + 1) for k, w in weights), rel=1e-15)
    dens = FockMixturePositionDensity(weights)
    assert dens.position_gamma_shape == top
    assert dens.position_rate == 2.0
    assert dens.position_tail_log_margin == (top + 1) * math.log(2.0) + math.log(top + 1.0)
    all_odd = all(k % 2 == 1 for k, _ in weights)
    assert dens.breakpoints == ((0.0,) if all_odd else ())


def test_fock_mixture_evaluator_dispatch():
    mix = evaluator_for(FockMixtureState(((0, 0.5), (1, 0.5))))
    assert isinstance(mix, FockMixtureHusimi)
    assert mix.weights == ((0, 0.5), (1, 0.5))
    # a zero weight is dropped, and one live index is the pure state
    single = evaluator_for(FockMixtureState(((0, 0.0), (3, 1.0))))
    assert single.weights == ((3, 1.0),)
    r = np.linspace(0.0, 12.0, 97)
    assert np.array_equal(single.log_q_radial(r), FockHusimi(3).log_q_radial(r))
    line = position_density_for(FockMixtureState(((0, 0.0), (3, 1.0))))
    assert line.weights == ((3, 1.0),)
    x = np.linspace(-9.0, 9.0, 97)
    assert np.array_equal(line.log_f(x), FockPositionDensity(3).log_f(x))
    # H_3(x) = 8x^3 - 12x vanishes at 0 and +-sqrt(3/2)
    assert line.breakpoints[1] == 0.0 and line.breakpoints[0] == -line.breakpoints[2]
    assert line.breakpoints[2] == pytest.approx(math.sqrt(1.5), abs=1e-15)
    with pytest.raises(ValueError):
        FockMixtureHusimi([(0, 0.0)])
    with pytest.raises(ValueError):
        FockMixturePositionDensity([])
    with pytest.raises(ValueError):
        FockMixturePositionDensity([(1, 0.5), (1, 0.5)])


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
        FockMixtureHusimi([(0, 0.5), (3, 0.5)]),
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
    assert np.allclose(FockPositionDensity(n).f(x), want, atol=1e-12)


@pytest.mark.parametrize("n", [0, 1, 3, 8])
def test_fock_position_density_normalized(n):
    x = np.linspace(-12.0, 12.0, 20001)
    total = np.trapezoid(FockPositionDensity(n).f(x), x)
    assert abs(total - 1.0) < 1e-9


def test_fock_position_breakpoints_are_wavefunction_zeros():
    d = FockPositionDensity(3)
    assert len(d.breakpoints) == 3
    for root in d.breakpoints:
        assert d.f(root) < 1e-20
    for n in range(1, 51):
        roots = np.array(FockPositionDensity(n).breakpoints)
        *_, psi_n = _hermite_steps(n, roots, math.pi ** (-0.25) * np.exp(-0.5 * roots * roots))
        assert np.all(np.abs(psi_n) <= 1e-12)
        # the breakpoints are the zeros of the half-size Laguerre Jacobi matrix
        assert np.array_equal(roots, _hermite_zeros(n))
        coeffs = np.zeros(n + 1)
        coeffs[-1] = 1.0
        assert np.allclose(roots, np.polynomial.hermite.hermroots(coeffs), rtol=0.0, atol=1e-13)
        # mirror pairs are exact and the middle zero of an odd n is 0, so
        # the line rule gets one panel edge per distinct |root|
        assert np.array_equal(roots, -roots[::-1])
        assert len({abs(r) for r in roots if r != 0.0}) == n // 2


def test_thermal_position_density_variance():
    b = 0.7
    d = ThermalPositionDensity(b)
    x = np.linspace(-30.0, 30.0, 40001)
    f = d.f(x)
    assert abs(np.trapezoid(f, x) - 1.0) < 1e-9
    var = np.trapezoid(x * x * f, x)
    assert abs(var - 1.0 / (2.0 * math.tanh(b / 2.0))) < 1e-8


def test_thermal_position_density_vacuum_limit():
    # large beta_omega approaches the ground-state width sigma^2 = 1/2
    d = ThermalPositionDensity(40.0)
    assert abs(d.sigma_sq - 0.5) < 1e-12


def test_mixture_position_density_linearity():
    mix = FockMixturePositionDensity([(0, 0.25), (2, 0.75)])
    x = np.linspace(-4.0, 4.0, 17)
    want = 0.25 * FockPositionDensity(0).f(x) + 0.75 * FockPositionDensity(2).f(x)
    assert np.allclose(mix.f(x), want, atol=1e-13)


def test_mixture_position_breakpoints_only_for_all_odd():
    odd = FockMixturePositionDensity([(1, 0.5), (3, 0.5)])
    assert odd.breakpoints == (0.0,)
    mixed = FockMixturePositionDensity([(0, 0.5), (1, 0.5)])
    assert mixed.breakpoints == ()


def test_position_density_dispatch():
    assert isinstance(position_density_for(FockState(2)), FockPositionDensity)
    assert isinstance(position_density_for(ThermalState(1.0)), ThermalPositionDensity)
    mix = position_density_for(FockMixtureState(((0, 0.5), (1, 0.5))))
    assert isinstance(mix, FockMixturePositionDensity)
    single = position_density_for(FockMixtureState(((2, 1.0),)))
    assert single.weights == ((2, 1.0),)
    x = np.linspace(-9.0, 9.0, 97)
    assert np.array_equal(single.log_f(x), FockPositionDensity(2).log_f(x))
    # H_2(x) = 4x^2 - 2 vanishes at +-1 / sqrt(2)
    assert single.breakpoints[0] == -single.breakpoints[1]
    assert single.breakpoints[1] == pytest.approx(math.sqrt(0.5), abs=1e-15)
    with pytest.raises(UnsupportedState):
        position_density_for(TwoModeSqueezedState(0.5))
    with pytest.raises(UnsupportedState):
        position_density_for(NoonState(1))


def _hermite_function_four_calls(n, x):
    """The recurrence with x sqrt(2 / (k + 1)) formed at every step: four ufunc calls a step."""
    psi_prev = np.zeros_like(x)
    psi = np.asarray(math.pi ** (-0.25) * np.exp(-0.5 * x * x))
    scaled = np.empty_like(psi)
    for k in range(n):
        np.multiply(x, math.sqrt(2.0 / (k + 1)), out=scaled)
        scaled *= psi
        psi_prev *= math.sqrt(k / (k + 1.0))
        np.subtract(scaled, psi_prev, out=psi_prev)
        psi_prev, psi = psi, psi_prev
    return psi


def test_hermite_function_matches_the_allocating_recurrence():
    # the recurrence runs in reused buffers with its factors x sqrt(2 / (k + 1))
    # formed up front, in the same order of operations; every step it yields
    # is the allocating recurrence's, on a 1D and on a 2D grid
    x = np.linspace(-9.0, 9.0, 101)
    for grid in (x, x.reshape(-1, 1) * np.array([1.0, 0.5, -0.25])):
        steps = _hermite_steps(60, grid, math.pi ** (-0.25) * np.exp(-0.5 * grid * grid))
        psi_prev, psi = np.zeros_like(grid), math.pi ** (-0.25) * np.exp(-0.5 * grid * grid)
        for k, got in enumerate(steps):
            assert np.array_equal(got, psi)
            psi_prev, psi = psi, grid * math.sqrt(2.0 / (k + 1)) * psi - math.sqrt(k / (k + 1.0)) * psi_prev
    for n in range(61):
        *_, got = _hermite_steps(n, x, math.pi ** (-0.25) * np.exp(-0.5 * x * x))
        assert np.array_equal(got, _hermite_function_four_calls(n, x))


def test_hermite_steps_on_a_shrinking_prefix_keep_the_full_steps_bits():
    # with lengths, step k runs on the first lengths[k] entries alone; there
    # every yielded psi_k is the full recurrence's
    x = np.linspace(-9.0, 9.0, 301)
    psi_0 = math.pi ** (-0.25) * np.exp(-0.5 * x * x)
    lengths = [301 - 6 * k for k in range(40)]
    full = [psi.copy() for psi in _hermite_steps(40, x, psi_0.copy())]
    for k, psi in enumerate(_hermite_steps(40, x, psi_0.copy(), lengths)):
        head = 301 if k == 0 else lengths[k - 1]
        assert np.array_equal(psi[:head], full[k][:head])


# ---------------------------------------------------------------------------
# Stacked kernels: many members in one call, each to its own bits
# ---------------------------------------------------------------------------


def _split(values, counts):
    return np.split(values, np.cumsum(counts)[:-1])


def _stack_nodes(rng, members, high):
    counts = [int(c) for c in rng.integers(1, 300, len(members))]
    return rng.uniform(1e-3, high, sum(counts)), counts


def test_stacked_radial_kernels_give_each_members_bits():
    # number states, NOON marginals and mixtures of up to three indices mix
    # every branch of the kernel (k0 > 0 or not, zero to two folds) in one stack
    rng = np.random.default_rng(28)
    fock = ([FockHusimi(n) for n in range(12)] + [NoonMarginalHusimi(n) for n in (0, 1, 5)]
            + [FockMixtureHusimi([(0, 0.3), (1, 0.7)]),
               FockMixtureHusimi([(2, 0.3), (4, 0.5), (7, 0.2)])])
    rng.shuffle(fock)
    thermal = [ThermalHusimi(b) for b in (0.05, 0.4, 3.0, 0.4)]
    for members in (fock, thermal, fock[:1], thermal[1:2]):
        r, counts = _stack_nodes(rng, members, 30.0)
        got = type(members[0]).stacked_log_q_radial(members, r, counts)
        for member, nodes, values in zip(members, _split(r, counts), _split(got, counts)):
            assert np.array_equal(values, member.log_q_radial(nodes))


def test_stacked_line_kernel_gives_each_members_bits():
    rng = np.random.default_rng(29)
    members = [FockPositionDensity(n) for n in rng.permutation(51)] + [
        FockMixturePositionDensity(w)
        for w in ([(0, 0.3), (1, 0.7)], [(1, 0.5), (3, 0.5)], [(0, 0.2), (7, 0.8)],
                  [(4, 0.6), (50, 0.4)])]
    members.sort(key=lambda d: -d.position_gamma_shape)
    x, counts = _stack_nodes(rng, members, 14.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = FockMixturePositionDensity.stacked_log_f(members, x, counts)
    for member, nodes, values in zip(members, _split(x, counts), _split(got, counts)):
        assert np.array_equal(values, member.log_f(nodes))
    # the one recurrence runs over the members by descending largest index
    with pytest.raises(ValueError, match="descending"):
        FockMixturePositionDensity.stacked_log_f(members[::-1], x, counts[::-1])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_the_line_kernel_refuses_a_number_state_past_its_float_range():
    # psi_k carries e^(x^2 / 4), so its square leaves the float range near
    # |x| = 41 for n = 651; both kernels say so before anything warns
    x = np.linspace(0.0, 42.3, 4001)
    stack = [FockPositionDensity(651), FockPositionDensity(650), FockPositionDensity(2)]
    with pytest.raises(UnsupportedState, match=r"index 651\b.*float range"):
        stack[0].log_f(x)
    with pytest.raises(UnsupportedState, match=r"index 651\b.*float range"):
        FockMixturePositionDensity.stacked_log_f(stack, np.concatenate([x, x, x]),
                                                 [x.size] * 3)
    assert np.all(stack[1].log_f(x) < 0.0)


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
