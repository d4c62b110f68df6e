"""State families accepted by the toolkit and their validation."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Union, get_args

import numpy as np

from .errors import NonNormalizedMixture, UnsupportedState
from .gaussian import CovarianceModel, ModePartition, check_squeezing, tmss_covariance

MIXTURE_NORMALIZATION_TOL = 1e-12


def _check_fock_index(n) -> None:
    if isinstance(n, bool) or int(n) != n or n < 0:
        raise ValueError("occupation number must be a nonnegative integer")


@dataclass(frozen=True)
class FockState:
    """Number eigenstate with n excitations."""

    n: int

    def __post_init__(self):
        _check_fock_index(self.n)


@dataclass(frozen=True)
class FockMixtureState:
    """Statistical mixture of number eigenstates, weights summing to one."""

    weights: tuple[tuple[int, float], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "weights", tuple((int(n), float(q)) for n, q in self.weights)
        )
        _check_mixture_weights(self.weights)


def _check_mixture_weights(weights) -> None:
    if len(weights) == 0:
        raise NonNormalizedMixture("mixture needs at least one component")
    indices = [n for n, _ in weights]
    for n in indices:
        _check_fock_index(n)
    if len(set(indices)) != len(indices):
        raise NonNormalizedMixture("mixture indices must be distinct")
    total = 0.0
    for _, q in weights:
        if q < 0.0:
            raise NonNormalizedMixture(f"negative weight {q!r}")
        total += q
    if abs(total - 1.0) > MIXTURE_NORMALIZATION_TOL:
        raise NonNormalizedMixture(f"weights sum to {total!r}, expected 1")


@dataclass(frozen=True)
class ThermalState:
    """Bosonic thermal state parameterized by beta * omega > 0."""

    beta_omega: float

    def __post_init__(self):
        b = float(self.beta_omega)
        if not np.isfinite(b) or b <= 0.0:
            raise ValueError("beta_omega must be positive and finite")


@dataclass(frozen=True)
class GaussianState:
    """Zero-mean Gaussian state; admissibility lives in the covariance model."""

    cov: CovarianceModel

    def __post_init__(self):
        if not isinstance(self.cov, CovarianceModel):
            raise UnsupportedState("GaussianState needs a CovarianceModel")

    @property
    def modes_a(self) -> int:
        return self.cov.partition.n_a

    @property
    def modes_b(self) -> int:
        return self.cov.partition.n_b


@dataclass(frozen=True)
class TwoModeSqueezedState:
    """Two-mode squeezed vacuum, lam = tanh(r) in [0, gaussian.LAMBDA_MAX] = [0, 0.998]."""

    lam: float

    def __post_init__(self):
        check_squeezing(self.lam)

    @functools.cached_property
    def cov(self) -> CovarianceModel:
        """Covariance model, built on first use and shared by every later one."""
        return tmss_covariance(self.lam)


@dataclass(frozen=True)
class NoonState:
    """Superposition with all excitation in one of two modes: (|n,0> + |0,n>)/norm."""

    excitation: int

    def __post_init__(self):
        _check_fock_index(self.excitation)


StateSpec = Union[
    FockState,
    FockMixtureState,
    ThermalState,
    GaussianState,
    TwoModeSqueezedState,
    NoonState,
]

_VARIANTS = get_args(StateSpec)


def validate(spec: StateSpec) -> StateSpec:
    """Re-run every construction invariant and return the spec unchanged."""
    if not isinstance(spec, _VARIANTS):
        raise UnsupportedState(f"unknown state spec {type(spec).__name__}")
    spec.__post_init__()
    return spec


def partition_of(spec: StateSpec) -> ModePartition:
    """Mode split of a state: single mode unless the family is two-mode."""
    if isinstance(spec, GaussianState):
        return spec.cov.partition
    if isinstance(spec, (TwoModeSqueezedState, NoonState)):
        return ModePartition(1, 1)
    if isinstance(spec, _VARIANTS):
        return ModePartition(1, 0)
    raise UnsupportedState(f"unknown state spec {type(spec).__name__}")


def state_to_dict(spec: StateSpec) -> dict:
    """JSON-ready payload; the inverse of :func:`state_from_dict`."""
    if isinstance(spec, FockState):
        return {"kind": "fock", "n": spec.n}
    if isinstance(spec, FockMixtureState):
        return {"kind": "fock_mixture", "weights": [[n, q] for n, q in spec.weights]}
    if isinstance(spec, ThermalState):
        return {"kind": "thermal", "beta_omega": spec.beta_omega}
    if isinstance(spec, GaussianState):
        return {
            "kind": "gaussian",
            "cov": np.asarray(spec.cov.v).tolist(),
            "modes_a": spec.modes_a,
            "modes_b": spec.modes_b,
        }
    if isinstance(spec, TwoModeSqueezedState):
        return {"kind": "tmss", "lambda": spec.lam}
    if isinstance(spec, NoonState):
        return {"kind": "noon", "excitation": spec.excitation}
    raise UnsupportedState(f"unknown state spec {type(spec).__name__}")


def state_from_dict(payload: dict) -> StateSpec:
    """Build a state spec from its JSON payload, validating on the way."""
    kind = payload.get("kind")
    if kind == "fock":
        return FockState(n=payload["n"])
    if kind == "fock_mixture":
        return FockMixtureState(weights=tuple((n, q) for n, q in payload["weights"]))
    if kind == "thermal":
        return ThermalState(beta_omega=payload["beta_omega"])
    if kind == "gaussian":
        partition = ModePartition(payload["modes_a"], payload.get("modes_b", 0))
        cov = CovarianceModel.from_v(np.asarray(payload["cov"], dtype=float), partition)
        return GaussianState(cov=cov)
    if kind == "tmss":
        return TwoModeSqueezedState(lam=payload["lambda"])
    if kind == "noon":
        return NoonState(excitation=payload["excitation"])
    raise UnsupportedState(f"unknown state kind {kind!r}")
