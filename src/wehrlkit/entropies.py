"""Entropy functionals of heterodyne densities and their closed forms.

The Wehrl-type entropy used throughout is - integral Q ln Q against
``d^n x d^n p / (2 pi)^n``; with that normalization every n-mode state
satisfies S >= n, with equality only on coherent states.  Closed forms
exist for number states, thermal states, and Gaussian states; everything
else (and every closed form, when cross-checking) goes through the
quadrature engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NotPure, SupportViolation, UnsupportedState
from .gaussian import (
    MI_ROUNDING_SLACK,
    _thermal_mode_entropy,
    check_squeezing,
    gaussian_witness,
    von_neumann_gaussian,
    wehrl_gaussian_joint,
)
from .husimi import (
    HusimiEvaluator,
    ProductHusimi,
    evaluator_for,
    marginal_husimi,
    position_density_for,
)
from .quadrature import (
    IntegralResult,
    QuadratureSpec,
    density_entropy_1d,
    entropy_functional,
    relative_entropy,
)
from .states import (
    FockMixtureState,
    FockState,
    GaussianState,
    NoonState,
    StateSpec,
    ThermalState,
    TwoModeSqueezedState,
    validate,
)

EULER_GAMMA = float(np.euler_gamma)
LN_PI = math.log(math.pi)
# The sharp lower bound 1 + ln(pi) shared by all three uncertainty sums.
LN_E_PI = 1.0 + LN_PI


def harmonic_number(n: int) -> float:
    """H_n = 1 + 1/2 + ... + 1/n, with H_0 = 0."""
    if n < 0:
        raise ValueError("harmonic numbers need n >= 0")
    return float(np.sum(1.0 / np.arange(1, n + 1))) if n > 0 else 0.0


def wehrl_fock_closed(n: int) -> float:
    """S(|n><n|) = ln n! + n + 1 + n gamma - n H_n.

    Follows from u = r^2/2 turning the density into a Gamma(n+1) law:
    E[u] = n + 1 and E[ln u] = psi(n+1) = H_n - gamma.
    """
    if n < 0:
        raise ValueError("number-state index must be nonnegative")
    return math.lgamma(n + 1) + n + 1.0 + n * (EULER_GAMMA - harmonic_number(n))


def wehrl_fock_stirling(n: int) -> float:
    """Stirling-order estimate (1 + ln(2 pi n)) / 2 of the number-state entropy."""
    if n < 1:
        raise ValueError("the Stirling form needs n >= 1")
    return 0.5 * (1.0 + math.log(2.0 * math.pi * n))


def wehrl_thermal_closed(beta_omega: float) -> float:
    """S = 1 - ln(1 - e^{-beta omega}) for a thermal oscillator state."""
    if beta_omega <= 0:
        raise ValueError("beta omega must be positive")
    return 1.0 - math.log(-math.expm1(-beta_omega))


def wehrl_closed(state: StateSpec) -> float:
    """Closed-form Wehrl-type entropy; raises where only quadrature applies."""
    validate(state)
    if isinstance(state, FockState):
        return wehrl_fock_closed(state.n)
    if isinstance(state, ThermalState):
        return wehrl_thermal_closed(state.beta_omega)
    if isinstance(state, (GaussianState, TwoModeSqueezedState)):
        return wehrl_gaussian_joint(state.cov)
    raise UnsupportedState(
        f"{type(state).__name__} has no closed-form entropy here; integrate it"
    )


def _as_evaluator(obj) -> HusimiEvaluator:
    if isinstance(obj, HusimiEvaluator):
        return obj
    return evaluator_for(obj)


def wehrl_quadrature(obj, spec: QuadratureSpec | None = None) -> IntegralResult:
    """Entropy functional by numerical integration of the state's density."""
    return entropy_functional(_as_evaluator(obj), spec)


@dataclass(frozen=True)
class EntropyReport:
    """All entropies of one state, with the cross-check shown alongside.

    ``wehrl_method`` is "both" when a closed form exists and quadrature
    confirmed it (then ``wehrl`` is the closed form and
    ``cross_check_delta`` their absolute difference), else "quadrature".
    ``differential_x``/``differential_p`` are the homodyne marginal
    entropies, None for states without a supported line density;
    ``von_neumann`` is the spectral entropy, which every family has.
    """

    state: StateSpec
    wehrl: float
    wehrl_method: str
    differential_x: float | None
    differential_p: float | None
    von_neumann: float
    cross_check_delta: float | None


def entropy_report(state: StateSpec, spec: QuadratureSpec | None = None) -> EntropyReport:
    """Entropy summary of a state, closed-form wherever a closed form exists.

    That covers the phase-space entropy of number, thermal and Gaussian
    states (each cross-checked by quadrature), the homodyne entropy of
    thermal states and every spectral entropy; the rest is quadrature.
    """
    quad = wehrl_quadrature(state, spec).value
    try:
        closed = wehrl_closed(state)
        wehrl, method, delta = closed, "both", abs(closed - quad)
    except UnsupportedState:
        wehrl, method, delta = quad, "quadrature", None
    try:
        # Supported line densities are phase symmetric, so the x and p
        # marginals coincide and one value serves both entries.
        if isinstance(state, ThermalState):
            marginal = homodyne_entropy_thermal_closed(state.beta_omega)
        else:
            marginal = density_entropy_1d(position_density_for(state), spec).value
    except UnsupportedState:
        marginal = None
    return EntropyReport(
        state=state,
        wehrl=wehrl,
        wehrl_method=method,
        differential_x=marginal,
        differential_p=marginal,
        von_neumann=von_neumann(state),
        cross_check_delta=delta,
    )


def homodyne_entropy_thermal_closed(beta_omega: float) -> float:
    """h = ln(2 pi e sigma^2) / 2 with sigma^2 = 1 / (2 tanh(beta omega / 2))."""
    if beta_omega <= 0:
        raise ValueError("beta omega must be positive")
    sigma_sq = 1.0 / (2.0 * math.tanh(0.5 * beta_omega))
    return 0.5 * math.log(2.0 * math.pi * math.e * sigma_sq)


def von_neumann(state: StateSpec) -> float:
    """Spectral entropy - tr rho ln rho, defined for every state family.

    Thermal and Gaussian states sum g(nbar) over their modes (``von_neumann_gaussian``).
    """
    validate(state)
    if isinstance(state, (FockState, TwoModeSqueezedState, NoonState)):
        return 0.0
    if isinstance(state, FockMixtureState):
        qs = np.array([q for _, q in state.weights if q > 0.0])
        return float(-np.dot(qs, np.log(qs)))
    if isinstance(state, ThermalState):
        return _thermal_mode_entropy(1.0 / math.expm1(state.beta_omega))
    return von_neumann_gaussian(state.cov)


def wehrl_relative_entropy(rho, sigma, spec: QuadratureSpec | None = None,
                           strict: bool = False) -> float:
    """Relative entropy integral of Q_rho against Q_sigma.

    Where Q_rho keeps mass outside the numerical support of Q_sigma the
    integral diverges; that case returns +inf, or raises SupportViolation
    when ``strict``.  The divergence is detected at the first refinement
    level that sees it, so it returns +inf even when the tolerance could
    not have been reached either.
    """
    try:
        return relative_entropy(_as_evaluator(rho), _as_evaluator(sigma), spec).value
    except SupportViolation:
        if strict:
            raise
        return math.inf


def wehrl_mutual_information(obj, spec: QuadratureSpec | None = None) -> IntegralResult:
    """Mutual information of the heterodyne density across the bipartition.

    The joint density is integrated against the product of its marginals
    in one pass, which avoids the cancellation of the three large
    entropies in S(A) + S(B) - S(AB).  The value is nonnegative for any
    state and vanishes on products; a value within MI_ROUNDING_SLACK of 0
    is returned as 0, its estimate kept.
    """
    evaluator = _as_evaluator(obj)
    product = ProductHusimi(marginal_husimi(evaluator, "a"), marginal_husimi(evaluator, "b"))
    result = relative_entropy(evaluator, product, spec)
    if abs(result.value) < MI_ROUNDING_SLACK:
        result = replace(result, value=0.0)
    return result


def wehrl_conditional_entropy(obj, spec: QuadratureSpec | None = None) -> IntegralResult:
    """Conditional entropy S(A) - I of subsystem A given B of the heterodyne density.

    It equals S(AB) - S(B) whenever both are finite, and it is bounded
    below by the number of A modes.
    """
    evaluator = _as_evaluator(obj)
    s_a = entropy_functional(marginal_husimi(evaluator, "a"), spec)
    return s_a - wehrl_mutual_information(evaluator, spec)


def quantum_mutual_information_tmss(lam: float) -> float:
    """I = 2 g(nbar) with nbar = lam^2/(1-lam^2): twice the entropy of either mode."""
    lam = check_squeezing(lam)
    return 2.0 * _thermal_mode_entropy(lam * lam / (1.0 - lam * lam))


def quantum_mutual_information_noon(n: int) -> float:
    """2 ln 2 for any n >= 1 (two equal Schmidt weights); 0 for the vacuum."""
    if n < 0:
        raise ValueError("excitation must be nonnegative")
    return 0.0 if n == 0 else 2.0 * math.log(2.0)


@dataclass(frozen=True)
class WitnessVerdict:
    """Entanglement call for a pure bipartite state, with its numerics.

    ``entangled`` is the comparison mutual_information > tolerance; the
    tolerance always rides above the quadrature error so a separable
    state is never flagged off noise.
    """

    mutual_information: float
    error_estimate: float
    tolerance: float
    entangled: bool
    method: str


def entanglement_witness(state: StateSpec,
                         spec: QuadratureSpec | None = None) -> WitnessVerdict:
    """Flag entanglement of a pure bipartite state by its mutual information.

    For pure states the mutual information of the heterodyne density is
    zero exactly on products, so any value above the numerical tolerance,
    max(1e-9, ten times the quadrature error estimate), witnesses
    entanglement.  Mixed inputs are rejected: classical correlations
    would trip the same functional.
    """
    validate(state)
    if isinstance(state, TwoModeSqueezedState):
        _, mutual = gaussian_witness(state.cov)
        value, err, method = mutual, 0.0, "closed-form"
    elif isinstance(state, GaussianState):
        if not state.cov.partition.bipartite:
            raise UnsupportedState("witness needs a bipartite state")
        if not state.cov.pure:
            raise NotPure(
                "witness interprets mutual information for pure states only; "
                f"largest symplectic eigenvalue is {state.cov.spectrum[-1]:.6f}"
            )
        _, mutual = gaussian_witness(state.cov)
        value, err, method = mutual, 0.0, "closed-form"
    elif isinstance(state, NoonState):
        res = wehrl_mutual_information(state, spec)
        value, err, method = res.value, res.error_estimate, "relative-entropy"
    else:
        raise UnsupportedState(
            f"no purity certificate for {type(state).__name__}; "
            "apply the mutual-information functional directly instead"
        )
    tol = max(1e-9, 10.0 * err)
    return WitnessVerdict(
        mutual_information=value,
        error_estimate=err,
        tolerance=tol,
        entangled=bool(value > tol),
        method=method,
    )
