"""State model validation, round-trips, and partition bookkeeping."""

import numpy as np
import pytest

from wehrlkit import (
    CovarianceModel,
    FockMixtureState,
    FockState,
    GaussianState,
    LambdaOutOfRange,
    ModePartition,
    NonNormalizedMixture,
    NoonState,
    ThermalState,
    TwoModeSqueezedState,
    partition_of,
    state_from_dict,
    state_to_dict,
    tmss_covariance,
    validate,
)


def test_fock_accepts_nonnegative_integers():
    for n in (0, 1, 7, 50):
        s = FockState(n)
        assert s.n == n


def test_fock_rejects_bad_excitation():
    with pytest.raises(ValueError):
        FockState(-1)
    with pytest.raises(ValueError):
        FockState(1.5)


def test_mixture_requires_normalized_weights():
    FockMixtureState(((0, 0.25), (1, 0.75)))
    with pytest.raises(NonNormalizedMixture):
        FockMixtureState(((0, 0.5), (1, 0.6)))
    with pytest.raises(NonNormalizedMixture):
        FockMixtureState(((0, -0.1), (1, 1.1)))


def test_mixture_weight_normalization_tolerance():
    # a 1e-13 defect is within the documented normalization tolerance
    FockMixtureState(((0, 0.5 + 5e-14), (1, 0.5)))
    with pytest.raises(NonNormalizedMixture):
        FockMixtureState(((0, 0.5 + 1e-9), (1, 0.5)))


def test_thermal_requires_positive_beta():
    ThermalState(0.3)
    with pytest.raises(ValueError):
        ThermalState(0.0)
    with pytest.raises(ValueError):
        ThermalState(-1.0)


def test_tmss_parameter_range():
    TwoModeSqueezedState(0.0)
    TwoModeSqueezedState(0.998)
    for lam in (0.999, 0.9999, 1.0, float("nan")):
        with pytest.raises(LambdaOutOfRange, match=r"\[0, 0\.998\]"):
            TwoModeSqueezedState(lam)
    with pytest.raises(LambdaOutOfRange):
        TwoModeSqueezedState(-0.2)


def test_noon_excitation_validation():
    NoonState(0)
    NoonState(10)
    with pytest.raises(ValueError):
        NoonState(-1)


def test_gaussian_state_wraps_covariance_model():
    cov = tmss_covariance(0.4)
    s = GaussianState(cov)
    assert s.modes_a == 1
    assert s.modes_b == 1
    with pytest.raises(Exception):
        GaussianState(np.eye(4))


def test_partition_of_single_mode_states():
    for s in (FockState(2), ThermalState(1.0), FockMixtureState(((0, 0.5), (1, 0.5)))):
        part = partition_of(s)
        assert part.n_a == 1
        assert part.n_b == 0
        assert not part.bipartite


def test_partition_of_bipartite_states():
    assert partition_of(TwoModeSqueezedState(0.5)).bipartite
    assert partition_of(NoonState(3)).bipartite
    g = GaussianState(CovarianceModel.from_v(0.5 * np.eye(6), ModePartition(2, 1)))
    part = partition_of(g)
    assert (part.n_a, part.n_b) == (2, 1)


@pytest.mark.parametrize(
    "state",
    [
        FockState(3),
        FockMixtureState(((0, 0.2), (1, 0.3), (4, 0.5))),
        ThermalState(0.7),
        TwoModeSqueezedState(0.6),
        NoonState(4),
        GaussianState(tmss_covariance(0.3)),
    ],
)
def test_dict_round_trip(state):
    payload = state_to_dict(state)
    assert isinstance(payload["kind"], str)
    back = state_from_dict(payload)
    assert type(back) is type(state)
    # compare the payloads field by field; covariances as arrays
    again = state_to_dict(back)
    for key, value in payload.items():
        if isinstance(value, list):
            assert np.allclose(np.asarray(value, dtype=float), np.asarray(again[key], dtype=float))
        else:
            assert again[key] == value


def test_dict_rejects_unknown_kind():
    from wehrlkit import UnsupportedState

    with pytest.raises(UnsupportedState):
        state_from_dict({"kind": "cat"})


def test_validate_passes_through():
    s = FockState(2)
    assert validate(s) is s
