"""Covariance algebra: admissibility, determinant identities, separability."""

import math

import numpy as np
import pytest

from wehrlkit import (
    CovarianceModel,
    DimensionMismatch,
    InadmissibleCovariance,
    LambdaOutOfRange,
    ModePartition,
    NonSymmetric,
    NormalFormParams,
    NotPure,
    TwoModeSqueezedState,
    apply_local_squeeze,
    from_grouped_ordering,
    gaussian_witness,
    ppt_minimum,
    ppt_reflect,
    quantum_mutual_information_tmss,
    random_admissible_covariance,
    simon_pure_separability,
    squeezed_vacuum_covariance,
    symplectic_eigenvalues,
    symplectic_form,
    tmss_covariance,
    von_neumann_gaussian,
    wehrl_gaussian_joint,
    wehrl_gaussian_local,
)
from wehrlkit.gaussian import LAMBDA_MAX


def test_symplectic_form_blocks():
    j = symplectic_form(2)
    assert j.shape == (4, 4)
    assert np.allclose(j @ j, -np.eye(4))
    assert j[0, 1] == 1.0 and j[1, 0] == -1.0


def test_symplectic_form_is_one_shared_read_only_array():
    for n in (1, 2, 3):
        j = symplectic_form(n)
        assert symplectic_form(n) is j
        with pytest.raises(ValueError):
            j[0, 1] = 2.0
    assert symplectic_form(2)[0, 1] == 1.0


def test_vacuum_covariance_is_identity_precision():
    cov = CovarianceModel.from_v(0.5 * np.eye(2), ModePartition(1, 0))
    assert np.allclose(cov.c, np.eye(2), atol=1e-14)
    assert abs(wehrl_gaussian_joint(cov) - 1.0) < 1e-14


def test_admissibility_rejected_below_vacuum():
    v = 0.1 * np.eye(2)
    with pytest.raises(InadmissibleCovariance) as err:
        CovarianceModel.from_v(v, ModePartition(1, 0))
    assert err.value.min_symplectic == pytest.approx(0.1)


def test_non_symmetric_rejected():
    v = 0.5 * np.eye(2)
    v[0, 1] = 0.3
    with pytest.raises(NonSymmetric):
        CovarianceModel.from_v(v, ModePartition(1, 0))


def test_partition_dimension_must_match_matrix():
    with pytest.raises(DimensionMismatch):
        CovarianceModel.from_v(0.5 * np.eye(4), ModePartition(1, 0))


def test_tmss_covariance_blocks():
    # V is written in closed form; C = (V + 1/2)^-1 is the Husimi form
    for lam in (0.0, 0.45, 0.6, 0.9, LAMBDA_MAX):
        cov = tmss_covariance(lam)
        assert np.allclose(cov.c_a, np.eye(2))
        assert np.allclose(cov.c_b, np.eye(2))
        assert np.allclose(cov.c_m, np.diag([lam, -lam]))
        assert np.linalg.det(cov.c) == pytest.approx((1 - lam * lam) ** 2)
        np.testing.assert_allclose(cov.v, np.linalg.inv(cov.c) - 0.5 * np.eye(4),
                                   rtol=0, atol=1e-14 / (1 - lam * lam) ** 2)
    c = np.eye(4)
    c[0, 2] = c[2, 0] = 0.6
    c[1, 3] = c[3, 1] = -0.6
    assert np.array_equal(tmss_covariance(0.6).c, c)


def test_every_squeezing_parameter_in_range_gives_a_pure_covariance():
    for lam in np.linspace(0.0, LAMBDA_MAX, 10_000):
        assert tmss_covariance(lam).pure, lam
    for lam in (0.999, 0.9999):
        with pytest.raises(LambdaOutOfRange):
            tmss_covariance(lam)
        with pytest.raises(LambdaOutOfRange):
            quantum_mutual_information_tmss(lam)


def test_symplectic_eigenvalues_known_cases():
    assert symplectic_eigenvalues(0.5 * np.eye(2))[0] == pytest.approx(0.5)
    nbar = 1.7
    assert symplectic_eigenvalues((nbar + 0.5) * np.eye(2))[0] == pytest.approx(nbar + 0.5)
    nus = tmss_covariance(0.8).spectrum
    assert np.allclose(nus, [0.5, 0.5], atol=1e-12)


def test_the_model_keeps_the_spectrum_of_its_admissibility_check():
    # one spectrum per covariance, with the bits of a fresh computation
    cov = random_admissible_covariance(np.random.default_rng(5), ModePartition(2, 1))
    nus = cov.spectrum
    assert not nus.flags.writeable
    assert np.array_equal(nus, symplectic_eigenvalues(cov.v))
    state = TwoModeSqueezedState(0.3)
    assert state.cov is state.cov
    assert np.array_equal(state.cov.c, tmss_covariance(0.3).c)


@pytest.mark.parametrize("partition",
                         [ModePartition(1, 1), ModePartition(2, 1), ModePartition(2, 2)],
                         ids=lambda p: f"{p.n_a}+{p.n_b}")
def test_from_v_keeps_the_bits_of_the_public_spectrum(partition):
    # from_v symmetrizes once and skips the second check; a V that is
    # symmetric only to rounding must still give the public function's bits
    rng = np.random.default_rng(partition.dim)
    for _ in range(10):
        v = np.array(random_admissible_covariance(rng, partition).v)
        v[0, 1] += 1e-13
        assert np.array_equal(CovarianceModel.from_v(v, partition).spectrum,
                              symplectic_eigenvalues(v))


@pytest.mark.parametrize("v, partition, error", [
    (0.5 * np.eye(4) + np.eye(4, k=2) * 0.2, ModePartition(1, 1), NonSymmetric),
    (0.5 * np.eye(3), ModePartition(1, 0), DimensionMismatch),
    (np.full((2, 4), 0.5), ModePartition(1, 1), DimensionMismatch),
    (np.full(4, 0.5), ModePartition(1, 1), DimensionMismatch),
    (0.5 * np.eye(2), ModePartition(1, 1), DimensionMismatch),
    (0.1 * np.eye(4), ModePartition(1, 1), InadmissibleCovariance),
    (np.diag([2.0, 0.1, 0.5, 0.5]), ModePartition(1, 1), InadmissibleCovariance),
])
def test_from_v_rejects_malformed_covariances(v, partition, error):
    with pytest.raises(error):
        CovarianceModel.from_v(v, partition)


@pytest.mark.parametrize("scale", [1e16, 1e300, 1e308])
def test_from_v_refuses_a_singular_covariance_at_any_scale(scale):
    # s [[1, 1], [1, 1]] has nu = 0, but rounding puts its computed nu_min
    # near 0.7 eps s: above 1/2 from s ~ 1e16 on, inside the rounding floor
    with pytest.raises(InadmissibleCovariance, match="rounding floor") as err:
        CovarianceModel.from_v(np.full((2, 2), scale), ModePartition(1))
    assert err.value.min_symplectic > 0.5


def test_determinant_identity_on_random_covariances():
    """det C * det(V + 1/2) = 1, so det C <= 1 iff det(V + 1/2) >= 1."""
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n_b = int(rng.integers(0, 2))
        part = ModePartition(1, n_b)
        cov = random_admissible_covariance(rng, part)
        prod = np.linalg.det(cov.c) * np.linalg.det(cov.v + 0.5 * np.eye(cov.dim))
        assert abs(prod - 1.0) < 1e-9
        assert np.linalg.det(cov.c) <= 1.0 + 1e-12


def test_local_husimi_blocks_also_bounded():
    rng = np.random.default_rng(77)
    for _ in range(25):
        cov = random_admissible_covariance(rng, ModePartition(1, 1))
        assert np.linalg.det(cov.c_a) <= 1.0 + 1e-12
        assert np.linalg.det(cov.c_b) <= 1.0 + 1e-12


def test_wehrl_gaussian_joint_matches_quadrature():
    from wehrlkit import GaussianHusimi, entropy_functional

    rng = np.random.default_rng(8)
    for _ in range(3):
        cov = random_admissible_covariance(rng, ModePartition(1, 1))
        closed = wehrl_gaussian_joint(cov)
        quad = entropy_functional(GaussianHusimi(cov))
        assert abs(closed - quad.value) < 1e-6


def test_wehrl_gaussian_local_matches_reduced_closed_form():
    cov = tmss_covariance(0.7)
    local_b = wehrl_gaussian_local(cov, keep="b")
    want = -0.5 * math.log(np.linalg.det(cov.reduced("b").c)) + 1.0
    assert abs(local_b - want) < 1e-12


def test_gaussian_witness_product_state_has_zero_mutual():
    v = np.diag([0.7, 0.7, 1.1, 1.1])
    cov = CovarianceModel.from_v(v, ModePartition(1, 1))
    cond, mutual = gaussian_witness(cov)
    assert abs(mutual) < 1e-12
    # conditional entropy of a product equals the local entropy of A
    assert cond == pytest.approx(wehrl_gaussian_local(cov, keep="a"), abs=1e-12)


def test_gaussian_witness_tmss_identities():
    lam = 0.65
    cond, mutual = gaussian_witness(tmss_covariance(lam))
    assert mutual == pytest.approx(-math.log1p(-lam * lam), abs=1e-12)
    assert cond == pytest.approx(1.0, abs=1e-12)


def test_von_neumann_gaussian_values():
    assert von_neumann_gaussian(CovarianceModel.from_v(0.5 * np.eye(2), ModePartition(1, 0))) == pytest.approx(0.0, abs=1e-12)
    assert von_neumann_gaussian(tmss_covariance(0.9)) == pytest.approx(0.0, abs=1e-8)
    nbar = 0.8
    th = CovarianceModel.from_v((nbar + 0.5) * np.eye(2), ModePartition(1, 0))
    want = (nbar + 1) * math.log(nbar + 1) - nbar * math.log(nbar)
    assert von_neumann_gaussian(th) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("nu", [1e6, 1e8, 1e12, 1e16, 1e200])
def test_von_neumann_gaussian_follows_the_large_nu_asymptote(nu):
    # (nu + 1/2) ln(nu + 1/2) - (nu - 1/2) ln(nu - 1/2) = ln nu + 1 - 1/(24 nu^2) + ...
    cov = CovarianceModel.from_v(nu * np.eye(2), ModePartition(1, 0))
    want = math.log(nu) + 1.0 - 1.0 / (24.0 * nu * nu)
    assert von_neumann_gaussian(cov) == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# Momentum reflection and separability
# ---------------------------------------------------------------------------


def test_ppt_reflect_preserves_determinant_and_flips_b_momenta():
    cov = tmss_covariance(0.6)
    reflected = ppt_reflect(cov.v, cov.partition)
    assert np.linalg.det(reflected) == pytest.approx(np.linalg.det(cov.v))
    # diagonal untouched, B-momentum cross terms change sign
    assert reflected[3, 3] == pytest.approx(cov.v[3, 3])
    assert reflected[1, 3] == pytest.approx(-cov.v[1, 3])


def test_ppt_detects_tmss_entanglement():
    lam = 0.9
    cov = tmss_covariance(lam)
    nu, ppt_holds = ppt_minimum(cov.v, cov.partition)
    assert nu == pytest.approx(0.5 * (1 - lam) / (1 + lam), abs=1e-10)
    assert not ppt_holds


def test_ppt_ignores_product_states():
    v = np.diag([0.9, 0.9, 0.6, 0.6])
    part = ModePartition(1, 1)
    nu, ppt_holds = ppt_minimum(v, part)
    assert nu >= 0.5 - 1e-12
    assert ppt_holds


def test_simon_separability_vacuum():
    verdict = simon_pure_separability(NormalFormParams(0.5, 0.5, 0.0, 0.0))
    assert verdict.separable
    assert verdict.min_reflected_symplectic == pytest.approx(0.5)


def test_simon_separability_tmss_normal_form():
    r = 0.5
    a = 0.5 * math.cosh(2 * r)
    c = 0.5 * math.sinh(2 * r)
    verdict = simon_pure_separability(NormalFormParams(a, a, c, -c))
    assert not verdict.separable
    assert verdict.min_reflected_symplectic < 0.5


def test_simon_rejects_mixed_input():
    with pytest.raises(NotPure):
        simon_pure_separability(NormalFormParams(0.5, 0.5, 0.1, 0.0))


def test_witness_and_simon_agree_on_pure_fixtures():
    for lam in (0.0, 0.3, 0.7):
        cov = tmss_covariance(lam)
        _, mutual = gaussian_witness(cov)
        r = math.atanh(lam)
        a = 0.5 * math.cosh(2 * r)
        c = 0.5 * math.sinh(2 * r)
        verdict = simon_pure_separability(NormalFormParams(a, a, c, -c))
        assert (mutual > 1e-9) == (not verdict.separable)


# ---------------------------------------------------------------------------
# Squeezing transformations
# ---------------------------------------------------------------------------


def test_squeezed_vacuum_determinants():
    kappa = 1.0
    cov = squeezed_vacuum_covariance(kappa)
    assert np.linalg.det(cov.v) == pytest.approx(0.25, abs=1e-12)
    assert np.linalg.det(cov.c) < 1.0 - 1e-3
    # more squeezing pushes the heterodyne determinant further down
    det1 = np.linalg.det(squeezed_vacuum_covariance(0.5).c)
    det2 = np.linalg.det(squeezed_vacuum_covariance(1.5).c)
    assert det2 < det1 < 1.0


def test_local_squeeze_preserves_purity_but_not_mutual_information():
    base = tmss_covariance(0.5)
    squeezed = apply_local_squeeze(base, 0.5, subsystem="b")
    assert von_neumann_gaussian(squeezed) == pytest.approx(0.0, abs=1e-9)
    _, mi_base = gaussian_witness(base)
    _, mi_squeezed = gaussian_witness(squeezed)
    assert abs(mi_base - mi_squeezed) > 1e-3


def test_local_squeeze_of_single_mode_subsystem_a():
    cov = squeezed_vacuum_covariance(0.0)
    assert np.allclose(cov.v, 0.5 * np.eye(2))
    again = apply_local_squeeze(cov, 0.7, subsystem="a")
    assert np.linalg.det(again.v) == pytest.approx(0.25)


def test_from_grouped_ordering_permutation():
    # grouped (x1, x2, p1, p2) to interleaved (x1, p1, x2, p2)
    grouped = np.array(
        [
            [1.0, 2.0, 3.0, 4.0],
            [2.0, 5.0, 6.0, 7.0],
            [3.0, 6.0, 8.0, 9.0],
            [4.0, 7.0, 9.0, 10.0],
        ]
    )
    inter = from_grouped_ordering(grouped)
    # x1 row: x1, p1, x2, p2 = g[0,0], g[0,2], g[0,1], g[0,3]
    assert inter[0, 0] == 1.0
    assert inter[0, 1] == 3.0
    assert inter[0, 2] == 2.0
    assert inter[0, 3] == 4.0
    assert np.allclose(inter, inter.T)


def test_random_admissible_covariance_spectrum():
    rng = np.random.default_rng(5)
    cov = random_admissible_covariance(rng, ModePartition(2, 1), min_nu=0.6, max_nu=1.4)
    nus = cov.spectrum
    assert len(nus) == 3
    assert np.all(nus >= 0.6 - 1e-9)
    assert np.all(nus <= 1.4 + 1e-9)
