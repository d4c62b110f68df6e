"""Entropy functionals against closed forms and independent quadrature oracles.

The oracles use scipy's adaptive quad on explicitly written integrands,
never the package's own engine, so the two integration stacks check each
other.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from wehrlkit import (
    EULER_GAMMA,
    FockMixtureState,
    FockState,
    GaussianHusimi,
    GaussianState,
    NoonState,
    NotPure,
    ProductHusimi,
    QuadratureSpec,
    SupportViolation,
    ThermalState,
    TwoModeSqueezedState,
    UnsupportedState,
    apply_local_squeeze,
    entanglement_witness,
    entropy_functional,
    entropy_report,
    evaluator_for,
    gaussian_witness,
    harmonic_number,
    marginal_husimi,
    quantum_mutual_information_noon,
    quantum_mutual_information_tmss,
    random_admissible_covariance,
    relative_entropy,
    tmss_covariance,
    von_neumann,
    von_neumann_gaussian,
    wehrl_closed,
    wehrl_conditional_entropy,
    wehrl_fock_closed,
    wehrl_fock_stirling,
    wehrl_mutual_information,
    wehrl_quadrature,
    wehrl_relative_entropy,
    wehrl_thermal_closed,
)
from wehrlkit.gaussian import ModePartition


# ---------------------------------------------------------------------------
# Closed forms vs scipy.integrate.quad oracles
# ---------------------------------------------------------------------------


def fock_wehrl_oracle(n: int) -> float:
    """- int Q ln Q r dr (angle already integrated, measure r dr)."""
    log_norm = n * math.log(2.0) + math.lgamma(n + 1)

    def integrand(r):
        if r == 0.0:
            return 0.0
        logq = 2 * n * math.log(r) - 0.5 * r * r - log_norm
        return -logq * math.exp(logq) * r

    val, err = quad(integrand, 0.0, 60.0, limit=300)
    assert err < 1e-8
    return val


def thermal_wehrl_oracle(beta_omega: float) -> float:
    a = -math.expm1(-beta_omega)

    def integrand(r):
        logq = math.log(a) - 0.5 * a * r * r
        return -logq * math.exp(logq) * r

    val, err = quad(integrand, 0.0, 200.0, limit=300)
    assert err < 1e-10
    return val


@pytest.mark.parametrize("n", [0, 1, 2, 5, 17])
def test_wehrl_fock_closed_matches_quad_oracle(n):
    assert abs(wehrl_fock_closed(n) - fock_wehrl_oracle(n)) < 1e-8


def test_wehrl_fock_closed_small_values():
    assert abs(wehrl_fock_closed(0) - 1.0) < 1e-15
    assert abs(wehrl_fock_closed(1) - (2.0 + EULER_GAMMA - 1.0)) < 1e-12
    # n = 2: ln 2 + 3 + 2 gamma - 2 H_2 = ln 2 + 2 gamma
    assert abs(wehrl_fock_closed(2) - (math.log(2.0) + 2.0 * EULER_GAMMA)) < 1e-12


@pytest.mark.parametrize("b", [0.1, 0.9, 4.0])
def test_wehrl_thermal_closed_matches_quad_oracle(b):
    assert abs(wehrl_thermal_closed(b) - thermal_wehrl_oracle(b)) < 1e-9


def test_wehrl_thermal_closed_formula():
    b = 1.3
    want = 1.0 - math.log(-math.expm1(-b))
    assert abs(wehrl_thermal_closed(b) - want) < 1e-14


def test_wehrl_closed_dispatch():
    assert wehrl_closed(FockState(4)) == wehrl_fock_closed(4)
    assert wehrl_closed(ThermalState(0.5)) == wehrl_thermal_closed(0.5)
    cov = tmss_covariance(0.4)
    want = -0.5 * math.log(np.linalg.det(cov.c)) + 2.0
    assert abs(wehrl_closed(TwoModeSqueezedState(0.4)) - want) < 1e-12
    assert abs(wehrl_closed(GaussianState(cov)) - want) < 1e-12
    with pytest.raises(UnsupportedState):
        wehrl_closed(NoonState(2))
    with pytest.raises(UnsupportedState):
        wehrl_closed(FockMixtureState(((0, 0.5), (1, 0.5))))


def test_wehrl_quadrature_agrees_with_closed_forms():
    for state, closed in [
        (FockState(3), wehrl_fock_closed(3)),
        (ThermalState(0.8), wehrl_thermal_closed(0.8)),
        (TwoModeSqueezedState(0.5), wehrl_closed(TwoModeSqueezedState(0.5))),
    ]:
        res = wehrl_quadrature(state)
        assert abs(res.value - closed) < 1e-7


def test_wehrl_fock_stirling_tracks_closed_form():
    for n in (5, 10, 25, 50):
        assert abs(wehrl_fock_closed(n) - wehrl_fock_stirling(n)) < 0.05
    # the approximation sharpens with n
    gaps = [abs(wehrl_fock_closed(n) - wehrl_fock_stirling(n)) for n in (5, 20, 50)]
    assert gaps[2] < gaps[1] < gaps[0]


def test_harmonic_number():
    assert harmonic_number(0) == 0.0
    assert abs(harmonic_number(4) - (1.0 + 0.5 + 1.0 / 3.0 + 0.25)) < 1e-15


# ---------------------------------------------------------------------------
# Entropy report assembly
# ---------------------------------------------------------------------------


def test_entropy_report_closed_family_cross_checks():
    rep = entropy_report(FockState(1))
    assert rep.wehrl_method == "both"
    assert rep.cross_check_delta is not None
    assert rep.cross_check_delta < 1e-6
    assert abs(rep.wehrl - wehrl_fock_closed(1)) < 1e-7
    assert rep.von_neumann == 0.0
    # phase symmetry makes both homodyne marginals equal
    assert rep.differential_x == rep.differential_p


def test_entropy_report_mixture_is_quadrature_only():
    rep = entropy_report(FockMixtureState(((0, 0.5), (1, 0.5))))
    assert rep.wehrl_method == "quadrature"
    assert rep.cross_check_delta is None
    assert abs(rep.von_neumann - math.log(2.0)) < 1e-12


def test_entropy_report_thermal_von_neumann():
    b = 1.0
    rep = entropy_report(ThermalState(b))
    # Boltzmann-series Shannon entropy as an independent oracle
    ps = [(1.0 - math.exp(-b)) * math.exp(-b * k) for k in range(400)]
    shannon = -sum(p * math.log(p) for p in ps)
    assert abs(rep.von_neumann - shannon) < 1e-10
    # (nbar + 1) ln(nbar + 1) - nbar ln nbar at nbar = 1 / (e - 1)
    nbar = 1.0 / math.expm1(b)
    bose = (nbar + 1.0) * math.log(nbar + 1.0) - nbar * math.log(nbar)
    assert abs(rep.von_neumann - bose) < 1e-12


def test_entropy_report_gaussian_state():
    cov = tmss_covariance(0.6)
    rep = entropy_report(GaussianState(cov))
    assert rep.wehrl_method == "both"
    assert rep.von_neumann == pytest.approx(von_neumann_gaussian(cov), abs=1e-12)
    assert rep.differential_x is None


# ---------------------------------------------------------------------------
# von Neumann entropies
# ---------------------------------------------------------------------------


def test_von_neumann_rules():
    assert von_neumann(FockState(7)) == 0.0
    assert von_neumann(NoonState(3)) == 0.0
    assert von_neumann(TwoModeSqueezedState(0.9)) == 0.0
    assert abs(von_neumann(FockMixtureState(((0, 0.25), (1, 0.75))))
               - (-(0.25 * math.log(0.25) + 0.75 * math.log(0.75)))) < 1e-14
    mixed = random_admissible_covariance(np.random.default_rng(3), ModePartition(1, 1))
    assert von_neumann(GaussianState(mixed)) == von_neumann_gaussian(mixed) > 0.0


def test_von_neumann_gaussian_matches_thermal():
    b = 0.7
    nbar = 1.0 / math.expm1(b)
    v = (nbar + 0.5) * np.eye(2)
    from wehrlkit import CovarianceModel

    cov = CovarianceModel.from_v(v, ModePartition(1, 0))
    assert abs(von_neumann_gaussian(cov) - von_neumann(ThermalState(b))) < 1e-12
    # pure states carry zero entropy
    assert von_neumann_gaussian(tmss_covariance(0.8)) < 1e-9


# ---------------------------------------------------------------------------
# Relative entropy, mutual information, conditional entropy
# ---------------------------------------------------------------------------


def test_wehrl_relative_entropy_positive_and_zero():
    rho = evaluator_for(FockState(1))
    sigma = evaluator_for(ThermalState(1.0))
    assert wehrl_relative_entropy(rho, sigma) > 0.0
    assert abs(wehrl_relative_entropy(rho, rho)) < 1e-10


def test_wehrl_relative_entropy_support_sentinel():
    from wehrlkit import squeezed_vacuum_covariance

    rho = evaluator_for(ThermalState(0.05))
    sigma = GaussianHusimi(squeezed_vacuum_covariance(1.5))
    assert math.isinf(wehrl_relative_entropy(rho, sigma))
    with pytest.raises(SupportViolation):
        wehrl_relative_entropy(rho, sigma, strict=True)


def test_tmss_mutual_information_closed_identity():
    for lam in (0.0, 0.3, 0.6, 0.9):
        cond, mutual = gaussian_witness(tmss_covariance(lam))
        assert abs(mutual - (-math.log1p(-lam * lam))) < 1e-12
        assert abs(cond - 1.0) < 1e-12


def test_tmss_mutual_information_routes_agree():
    lam = 0.5
    closed = -math.log1p(-lam * lam)
    rel = wehrl_mutual_information(TwoModeSqueezedState(lam))
    # the three-entropy route S(A) + S(B) - S(AB), built here as a cross-check
    joint = evaluator_for(TwoModeSqueezedState(lam))
    s_a, s_b = (entropy_functional(marginal_husimi(joint, keep)) for keep in "ab")
    chain = s_a + s_b - entropy_functional(joint)
    assert abs(rel.value - closed) < 1e-9
    assert abs(chain.value - closed) < 1e-7


def test_gaussian_mutual_information_is_exact_on_four_nodes_per_axis():
    rng = np.random.default_rng(29)
    covs = [tmss_covariance(lam) for lam in (0.0, 0.5, 0.9, 0.99)]
    covs.append(random_admissible_covariance(rng, ModePartition(1, 1)))
    for cov in covs:
        res = wehrl_mutual_information(GaussianHusimi(cov))
        assert abs(res.value - gaussian_witness(cov)[1]) < 1e-12
        assert res.nodes_used == 4**4 + 8**4


def test_three_mode_pure_gaussian_mutual_information():
    # six dimensions: 4^6 + 8^6 nodes, where 24 per axis would be 191M
    cov = random_admissible_covariance(np.random.default_rng(31), ModePartition(2, 1),
                                       min_nu=0.5, max_nu=0.5)
    res = wehrl_mutual_information(GaussianHusimi(cov))
    assert abs(res.value - gaussian_witness(cov)[1]) < 1e-12
    assert res.nodes_used == 4**6 + 8**6


def test_conditional_entropy_routes_agree():
    lam = 0.6
    rel = wehrl_conditional_entropy(TwoModeSqueezedState(lam))
    # the chain rule S(AB) - S(B), built here as a cross-check
    joint = evaluator_for(TwoModeSqueezedState(lam))
    chain = entropy_functional(joint) - entropy_functional(marginal_husimi(joint, "b"))
    assert abs(rel.value - 1.0) < 1e-7
    assert abs(chain.value - 1.0) < 1e-7
    # Seeded mixed covariances against the closed form n_A - ln det C_A / 2;
    # every density is "gaussian", so S(A) on 2 n_A axes and the mutual
    # information on all of them each stop at 4 and 8 nodes per axis.
    for seed, partition in [(23, ModePartition(1, 1)), (37, ModePartition(2, 1))]:
        cov = random_admissible_covariance(np.random.default_rng(seed), partition)
        res = wehrl_conditional_entropy(GaussianHusimi(cov))
        assert abs(res.value - gaussian_witness(cov)[0]) < 1e-12
        d_a, d = 2 * partition.n_a, partition.dim
        assert res.nodes_used == 4**d_a + 8**d_a + 4**d + 8**d


def test_mutual_information_rejects_single_mode():
    with pytest.raises(Exception):
        wehrl_mutual_information(FockState(1))


def test_conditional_entropy_is_concave_in_the_state():
    """Mixing states can only raise S(A|B) above the mixture of values.

    Both components share the same B marginal, the clean setting for
    concavity of the conditional entropy.
    """
    lam = 0.6
    rho1 = GaussianHusimi(tmss_covariance(lam))
    prod_c = np.eye(4)
    prod_c[0, 0] = prod_c[1, 1] = 1.0 - lam * lam
    prod_c[2, 2] = prod_c[3, 3] = 1.0 - lam * lam
    from wehrlkit import CovarianceModel, ConvexCombinationHusimi

    rho2 = GaussianHusimi(CovarianceModel.from_husimi_form(prod_c, ModePartition(1, 1)))
    spec = QuadratureSpec(abs_tol=1e-7, rel_tol=1e-7)

    def cond_of(ev):
        joint = wehrl_quadrature(ev, spec).value
        marg = wehrl_quadrature(marginal_husimi(ev, "b"), spec).value
        return joint - marg

    s1 = cond_of(rho1)
    s2 = cond_of(rho2)
    for t in (0.25, 0.5, 0.75):
        mix = ConvexCombinationHusimi([(t, rho1), (1.0 - t, rho2)])
        s_mix = cond_of(mix)
        assert s_mix >= t * s1 + (1.0 - t) * s2 - 1e-6


def test_mutual_information_not_invariant_under_local_squeeze():
    lam = 0.5
    base = tmss_covariance(lam)
    squeezed = apply_local_squeeze(base, 0.5, subsystem="b")
    _, mi_base = gaussian_witness(base)
    _, mi_squeezed = gaussian_witness(squeezed)
    assert abs(mi_base - mi_squeezed) > 1e-3


def test_quantum_mutual_information_tmss_schmidt_oracle():
    lam = 0.5
    ps = [(1.0 - lam * lam) * lam ** (2 * k) for k in range(2000)]
    shannon = -sum(p * math.log(p) for p in ps if p > 0.0)
    assert abs(quantum_mutual_information_tmss(lam) - 2.0 * shannon) < 1e-10
    assert quantum_mutual_information_tmss(0.0) == 0.0


def test_quantum_mutual_information_noon():
    assert quantum_mutual_information_noon(0) == 0.0
    for n in (1, 2, 7):
        assert abs(quantum_mutual_information_noon(n) - 2.0 * math.log(2.0)) < 1e-15


def test_subsystem_entropy_below_joint_entropy():
    """Wehrl entropy only drops under partial trace (plain monotonicity)."""
    spec = QuadratureSpec(abs_tol=1e-7, rel_tol=1e-7)
    for state in (TwoModeSqueezedState(0.7), NoonState(2)):
        ev = evaluator_for(state)
        joint = wehrl_quadrature(ev, spec).value
        part = wehrl_quadrature(marginal_husimi(ev, "a"), spec).value
        assert part <= joint + 1e-7


def test_mutual_information_below_quantum_value():
    for lam in (0.2, 0.6, 0.9):
        _, mi = gaussian_witness(tmss_covariance(lam))
        assert mi <= quantum_mutual_information_tmss(lam) + 1e-12
    mi1 = wehrl_mutual_information(NoonState(1))
    assert mi1.value <= quantum_mutual_information_noon(1) + 1e-9


def test_vacuum_noon_mutual_information_is_clamped_at_zero():
    # the relative entropy of the vacuum against its own product of
    # marginals is rounding noise on a value that vanishes, of either sign:
    # -4.9e-18 at the default tolerance and +2.7e-18 at 1e-6
    ev = evaluator_for(NoonState(0))
    m = marginal_husimi(ev, "a")
    for spec in (QuadratureSpec(), QuadratureSpec(abs_tol=1e-6, rel_tol=1e-6)):
        raw = relative_entropy(ev, ProductHusimi(m, m), spec)
        assert 0.0 < abs(raw.value) < 1e-12
        mi = wehrl_mutual_information(ev, spec)
        assert mi.value == 0.0
        assert (mi.error_estimate, mi.nodes_used) == (raw.error_estimate, raw.nodes_used)


# ---------------------------------------------------------------------------
# Entanglement witness verdicts
# ---------------------------------------------------------------------------


def test_witness_flags_tmss():
    verdict = entanglement_witness(TwoModeSqueezedState(0.5))
    assert verdict.entangled
    assert verdict.mutual_information > 0.1
    assert verdict.tolerance > 0.0
    trivial = entanglement_witness(TwoModeSqueezedState(0.0))
    assert not trivial.entangled


def test_witness_flags_noon():
    verdict = entanglement_witness(NoonState(2))
    assert verdict.entangled
    vac = entanglement_witness(NoonState(0))
    assert not vac.entangled


def test_witness_requires_pure_gaussian():
    v = 1.5 * np.eye(4)
    from wehrlkit import CovarianceModel

    with pytest.raises(NotPure):
        entanglement_witness(GaussianState(CovarianceModel.from_v(v, ModePartition(1, 1))))


def test_witness_accepts_pure_gaussian_state():
    verdict = entanglement_witness(GaussianState(tmss_covariance(0.4)))
    assert verdict.entangled
    assert verdict.method == "closed-form"


def test_witness_rejects_single_mode():
    with pytest.raises(Exception):
        entanglement_witness(FockState(2))
