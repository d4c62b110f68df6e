"""Closed-form properties on generated inputs.

Every property here is exact covariance or state algebra, so an example
costs milliseconds.  The settings draw examples from a fixed seed and
keep no example database, so a run is reproducible; the constants
hypothesis collects from the local sources while collecting tests are
cached in a temporary directory, removed at exit, so a run leaves no
files behind.
"""

import json
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir
from scipy.linalg import expm

from wehrlkit import (
    CovarianceModel,
    FockMixtureState,
    FockState,
    GaussianState,
    NoonState,
    ThermalState,
    TwoModeSqueezedState,
    gaussian_witness,
    random_admissible_covariance,
    state_from_dict,
    state_to_dict,
    symplectic_eigenvalues,
    symplectic_form,
    von_neumann_gaussian,
)
from wehrlkit.gaussian import LAMBDA_MAX, ModePartition

_STORAGE = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_STORAGE.name)


PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=25)

PARTITIONS = st.sampled_from([ModePartition(1, 0), ModePartition(1, 1), ModePartition(2, 1)])
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _symplectic(n_modes: int, entries) -> np.ndarray:
    """expm(Omega H) for the symmetric H whose upper triangle is ``entries``."""
    dim = 2 * n_modes
    h = np.zeros((dim, dim))
    h[np.triu_indices(dim)] = entries
    h = h + np.triu(h, 1).T
    return expm(symplectic_form(n_modes) @ h)


@st.composite
def symplectic_maps(draw, n_modes: int, bound: float = 0.4):
    dim = 2 * n_modes
    size = dim * (dim + 1) // 2
    entries = draw(st.lists(st.floats(-bound, bound), min_size=size, max_size=size))
    return _symplectic(n_modes, entries)


def _transformed(v: np.ndarray, s: np.ndarray) -> np.ndarray:
    out = s @ v @ s.T
    return 0.5 * (out + out.T)


@PROPERTY
@given(partition=PARTITIONS, seed=SEEDS, data=st.data())
def test_symplectic_spectrum_is_invariant_under_symplectic_maps(partition, seed, data):
    cov = random_admissible_covariance(np.random.default_rng(seed), partition)
    s = data.draw(symplectic_maps(partition.n_modes))
    np.testing.assert_allclose(symplectic_eigenvalues(_transformed(cov.v, s)),
                               symplectic_eigenvalues(cov.v), rtol=1e-7)


@st.composite
def gaussian_states(draw):
    partition = draw(PARTITIONS)
    return GaussianState(random_admissible_covariance(np.random.default_rng(draw(SEEDS)), partition))


@st.composite
def fock_mixtures(draw):
    n, m = draw(st.lists(st.integers(0, 30), min_size=2, max_size=2, unique=True))
    q = draw(st.floats(0.0, 1.0))
    return FockMixtureState(((n, q), (m, 1.0 - q)))


STATES = st.one_of(
    st.builds(FockState, st.integers(0, 50)),
    fock_mixtures(),
    st.builds(ThermalState, st.floats(1e-3, 50.0)),
    st.builds(TwoModeSqueezedState, st.floats(0.0, LAMBDA_MAX)),
    st.builds(NoonState, st.integers(0, 20)),
    gaussian_states(),
)


@PROPERTY
@given(state=STATES)
def test_state_dict_round_trip_is_the_identity(state):
    back = state_from_dict(json.loads(json.dumps(state_to_dict(state))))
    assert type(back) is type(state)
    if isinstance(state, GaussianState):
        assert back.cov.partition == state.cov.partition
        assert np.array_equal(back.cov.v, state.cov.v)
    else:
        assert back == state


@PROPERTY
@given(seed=SEEDS, data=st.data())
def test_local_symplectic_maps_keep_a_product_uncorrelated(seed, data):
    rng = np.random.default_rng(seed)
    v_a = random_admissible_covariance(rng, ModePartition(1, 0)).v
    v_b = random_admissible_covariance(rng, ModePartition(1, 0)).v
    s = np.zeros((4, 4))
    s[:2, :2] = data.draw(symplectic_maps(1))
    s[2:, 2:] = data.draw(symplectic_maps(1))
    v = np.zeros((4, 4))
    v[:2, :2] = v_a
    v[2:, 2:] = v_b
    cov = CovarianceModel.from_v(_transformed(v, s), ModePartition(1, 1))
    _, mutual = gaussian_witness(cov)
    assert abs(mutual) < 1e-10


@PROPERTY
@given(partition=PARTITIONS, data=st.data())
def test_symplectic_image_of_the_vacuum_is_pure(partition, data):
    s = data.draw(symplectic_maps(partition.n_modes))
    v = s.T @ (0.5 * np.eye(partition.dim)) @ s
    cov = CovarianceModel.from_v(0.5 * (v + v.T), partition)
    np.testing.assert_allclose(cov.spectrum, 0.5, atol=1e-9)
    assert von_neumann_gaussian(cov) < 1e-8


@PROPERTY
@given(partition=st.sampled_from([ModePartition(1, 1), ModePartition(2, 1), ModePartition(1, 2),
                                  ModePartition(2, 2)]),
       seed=SEEDS, pure=st.booleans())
def test_a_reduced_model_is_the_validated_model_of_its_block(partition, seed, pure):
    # ``reduced`` skips the checks of ``from_v``; they would pass and change no bit
    nus = (0.5, 0.5) if pure else (0.55, 2.0)
    cov = random_admissible_covariance(np.random.default_rng(seed), partition, *nus)
    k = 2 * partition.n_a
    for keep, block, n_modes in (("a", cov.v[:k, :k], partition.n_a),
                                 ("b", cov.v[k:, k:], partition.n_b)):
        got = cov.reduced(keep)
        want = CovarianceModel.from_v(block, ModePartition(n_modes))
        assert got.partition == want.partition
        assert np.array_equal(got.v, want.v)
        assert np.array_equal(got.c, want.c)
        assert not (got.v.flags.writeable or got.c.flags.writeable)
        assert np.array_equal(got.spectrum, want.spectrum)
