"""Husimi densities and their marginal and conditional reductions.

Every evaluator maps phase-space points to values of the heterodyne
outcome density Q, normalized so that integrating Q against
``d^n x d^n p / (2 pi)^n`` gives one.  Points use the per-mode ordering
``(x_1, p_1, ..., x_n, p_n)`` with subsystem A first; the complex
amplitude of a mode is ``alpha = (x + i p) / sqrt(2)``.

Evaluators declare how they can be integrated through ``kind`` alone,
and the quadrature engine routes on it without probing for methods:

* ``"radial"`` promises ``log_q_radial``, ``radial_gamma_shape`` and
  ``radial_rate``;
* ``"noon"`` promises a two-mode density that depends on the mode phases
  only through their difference and is symmetric under the exchange
  r_A <-> r_B of the two radii, with ``angle_averaged_logs(r, s)`` (the
  average over that difference, in closed form, on the triangle
  r_A = r, r_B = s r with 0 <= s <= 1, as (len r, len s) arrays), plus
  the same two tail parameters for the radial cutoff;
* ``"gaussian"`` promises that ln Q is exactly quadratic, with the
  covariance and mean that ``gaussian_envelope`` returns; whitened by it,
  an integral whose densities are all "gaussian" is exact on four
  Gauss-Hermite nodes per axis, where it starts;
* every other kind is integrated on the whitened cartesian grid, through
  ``gaussian_envelope``, which raises UnsupportedState by default.

``log_q``, ``log_q_radial``, ``log_f`` and ``angle_averaged_logs`` must
return fresh arrays: the engine overwrites them while it evaluates the
integrand.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

from .errors import (
    ConditionOnZeroDensity,
    DimensionMismatch,
    NotBipartite,
    UnsupportedState,
)
from .gaussian import CovarianceModel, ModePartition
from .states import (
    FockMixtureState,
    FockState,
    GaussianState,
    NoonState,
    StateSpec,
    ThermalState,
    TwoModeSqueezedState,
)

# Densities below this are treated as exact zeros by entropy integrands.
LOG_TINY = math.log(1e-300)


def _log_sum_exp(terms: np.ndarray, axis: int = 0) -> np.ndarray:
    """ln sum exp(terms) along ``axis``, shifted by the largest term.

    Where every term is -inf the result is -inf, without a warning.
    """
    top = np.max(terms, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(top), top, 0.0)
    scaled = np.subtract(terms, shift)
    total = np.exp(scaled, out=scaled).sum(axis=axis)
    with np.errstate(divide="ignore"):
        return np.log(total) + np.squeeze(shift, axis=axis)


class HusimiEvaluator:
    """Base interface: a bounded density on phase space, 0 <= Q <= 1."""

    kind = "generic"
    partition: ModePartition

    @property
    def dim(self) -> int:
        return self.partition.dim

    def log_q(self, points):
        raise NotImplementedError

    def gaussian_envelope(self):
        """(sigma, mean) of a Gaussian at least as wide as the density."""
        raise UnsupportedState(
            f"{type(self).__name__} advertises no Gaussian envelope, "
            "so the cartesian rule has nothing to whiten against"
        )

    def q(self, points):
        return np.exp(self.log_q(points))

    def _points(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.shape[-1] != self.dim:
            raise DimensionMismatch(
                f"points have {pts.shape[-1]} coordinates, evaluator needs {self.dim}"
            )
        return pts


class FockHusimi(HusimiEvaluator):
    """Q_n(x, p) = (x^2 + p^2)^n exp(-(x^2 + p^2)/2) / (2^n n!)."""

    kind = "radial"

    def __init__(self, n: int):
        self.n = int(n)
        self.partition = ModePartition(1, 0)
        self._log_norm = self.n * math.log(2.0) + float(gammaln(self.n + 1))
        self.radial_gamma_shape = float(self.n)
        self.radial_rate = 1.0
        self.axis_second_moment = self.n + 1.0

    def log_q_radial(self, r):
        r = np.asarray(r, dtype=float)
        if self.n == 0:
            return -0.5 * r * r
        with np.errstate(divide="ignore"):
            return 2.0 * self.n * np.log(r) - 0.5 * r * r - self._log_norm

    def log_q(self, points):
        pts = self._points(points)
        rsq = pts[..., 0] ** 2 + pts[..., 1] ** 2
        if self.n == 0:
            return -0.5 * rsq
        with np.errstate(divide="ignore"):
            return self.n * np.log(rsq) - 0.5 * rsq - self._log_norm

    def gaussian_envelope(self):
        # Slightly wider than the true second moment so the whitened
        # integrand still decays under the Hermite reweighting.
        return np.diag([self.axis_second_moment + 0.5] * 2), np.zeros(2)


class ThermalHusimi(HusimiEvaluator):
    """Q(x, p) = (1 - e^-bw) exp(-(x^2 + p^2)(1 - e^-bw)/2)."""

    kind = "radial"

    def __init__(self, beta_omega: float):
        self.beta_omega = float(beta_omega)
        self.partition = ModePartition(1, 0)
        self._rate = -math.expm1(-self.beta_omega)
        self.radial_gamma_shape = 0.0
        self.radial_rate = self._rate
        self.axis_second_moment = 1.0 / self._rate

    def log_q_radial(self, r):
        r = np.asarray(r, dtype=float)
        return math.log(self._rate) - 0.5 * self._rate * r * r

    def log_q(self, points):
        pts = self._points(points)
        rsq = pts[..., 0] ** 2 + pts[..., 1] ** 2
        return math.log(self._rate) - 0.5 * self._rate * rsq

    def gaussian_envelope(self):
        return np.diag([self.axis_second_moment + 0.5] * 2), np.zeros(2)


class GaussianHusimi(HusimiEvaluator):
    """Q(r) = sqrt(det C) exp(-r^T C r / 2) for an admissible covariance."""

    kind = "gaussian"

    def __init__(self, cov: CovarianceModel):
        self.cov = cov
        self.partition = cov.partition
        sign, logdet = np.linalg.slogdet(cov.c)
        if sign <= 0:  # pragma: no cover - C of an admissible V is PD
            raise ValueError("husimi form must be positive definite")
        self._log_norm = 0.5 * logdet
        self._c = np.asarray(cov.c)

    def log_q(self, points):
        pts = self._points(points)
        quad = np.einsum("...i,ij,...j->...", pts, self._c, pts)
        return self._log_norm - 0.5 * quad

    def gaussian_envelope(self):
        return self.cov.v + 0.5 * np.eye(self.dim), np.zeros(self.dim)


class NoonHusimi(HusimiEvaluator):
    """Two-mode superposition with all n excitations in one mode or the other.

    In polar coordinates the density depends on the mode phases only
    through their difference:

        Q = exp(-(r_A^2 + r_B^2)/2)
            * (r_A^2n + r_B^2n + 2 (r_A r_B)^n cos(n dtheta))
            / (2^(n+1) n! (1 + delta_{n,0}))
    """

    kind = "noon"

    def __init__(self, excitation: int):
        self.excitation = int(excitation)
        self.partition = ModePartition(1, 1)
        n = self.excitation
        delta = 1.0 if n == 0 else 0.0
        self._log_norm = (n + 1) * math.log(2.0) + float(gammaln(n + 1)) + math.log1p(delta)
        self.radial_gamma_shape = float(n)
        self.radial_rate = 1.0
        self.marginal = NoonMarginalHusimi(n)

    def log_q(self, points):
        pts = self._points(points)
        n = self.excitation
        a = pts[..., 0] - 1j * pts[..., 1]
        b = pts[..., 2] - 1j * pts[..., 3]
        amp = a**n + b**n
        mag2 = amp.real**2 + amp.imag**2
        rsq = pts[..., 0] ** 2 + pts[..., 1] ** 2 + pts[..., 2] ** 2 + pts[..., 3] ** 2
        with np.errstate(divide="ignore"):
            return np.log(mag2) - 0.5 * rsq - self._log_norm

    def angle_averaged_logs(self, r, s):
        """ln <Q> and <Q ln Q> / <Q> over the phase difference, on the triangle.

        The radii are r_A = r and r_B = s r with 0 <= s <= 1, given as two
        1D arrays; both results are fresh (len r, len s) arrays.  With
        x = r_A^n and y = r_B^n <= x the angular factor is |x + y e^{iu}|^2,
        whose averages over u are x^2 + y^2 and, for n >= 1,
        (x^2 + y^2) ln x^2 + 2 y^2 (Jensen's formula and the Fourier series
        of ln|1 + t e^{iu}|).  With t = s^(2n) <= 1 both are the prefactor
        log plus 2n ln r, plus log1p(t) and 2t / (1 + t) respectively: the
        t terms live on the s axis, 2n ln r on the r axis, and only the
        Gaussian -r^2 (1 + s^2) / 2 is formed per node.  At n = 0 the factor
        is the constant 4 and both values are ln Q.
        """
        n = self.excitation
        r = np.asarray(r, dtype=float)
        s = np.asarray(s, dtype=float)
        log_mean = np.outer(-0.5 * r * r, 1.0 + s * s)
        if n == 0:
            log_mean += 2.0 * math.log(2.0) - self._log_norm
            return log_mean, log_mean.copy()
        with np.errstate(divide="ignore"):
            log_mean += (2.0 * n * np.log(r) - self._log_norm)[:, None]
        t = s ** (2 * n)
        q_log_q = log_mean + 2.0 * t / (1.0 + t)
        log_mean += np.log1p(t)
        return log_mean, q_log_q

    def gaussian_envelope(self):
        width = 0.5 * (self.excitation + 2.0) + 0.5
        return np.diag([width] * 4), np.zeros(4)


class NoonMarginalHusimi(HusimiEvaluator):
    """Single-mode reduction: Q(r) = e^{-r^2/2} (r^2n + 2^n n!) / (2^(n+1) n!)."""

    kind = "radial"

    def __init__(self, excitation: int):
        self.excitation = int(excitation)
        self.partition = ModePartition(1, 0)
        n = self.excitation
        self._log_norm = (n + 1) * math.log(2.0) + float(gammaln(n + 1))
        self._log_const = n * math.log(2.0) + float(gammaln(n + 1))
        self.radial_gamma_shape = float(n)
        self.radial_rate = 1.0
        self.axis_second_moment = 0.5 * (n + 2.0)

    def log_q_radial(self, r):
        r = np.asarray(r, dtype=float)
        n = self.excitation
        if n == 0:
            return -0.5 * r * r
        with np.errstate(divide="ignore"):
            return np.logaddexp(2.0 * n * np.log(r), self._log_const) - 0.5 * r * r - self._log_norm

    def log_q(self, points):
        pts = self._points(points)
        return self.log_q_radial(np.hypot(pts[..., 0], pts[..., 1]))

    def gaussian_envelope(self):
        return np.diag([self.axis_second_moment + 0.5] * 2), np.zeros(2)


class ConvexCombinationHusimi(HusimiEvaluator):
    """Pointwise mixture sum_i w_i Q_i of densities on the same mode layout."""

    def __init__(self, components):
        pairs = [(float(w), ev) for w, ev in components if float(w) > 0.0]
        if not pairs:
            raise ValueError("mixture needs at least one positive weight")
        total = sum(w for w, _ in pairs)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"mixture weights sum to {total!r}, expected 1")
        first = pairs[0][1].partition
        for _, ev in pairs:
            if ev.partition != first:
                raise DimensionMismatch("mixture components disagree on mode layout")
        self.partition = first
        self.components = tuple(pairs)
        self._logw = np.array([math.log(w) for w, _ in pairs])
        if all(ev.kind == "radial" for _, ev in pairs):
            self.kind = "radial"
            self.radial_gamma_shape = max(ev.radial_gamma_shape for _, ev in pairs)
            self.radial_rate = min(ev.radial_rate for _, ev in pairs)

    def log_q(self, points):
        stacked = np.stack([ev.log_q(points) for _, ev in self.components])
        return _log_sum_exp(stacked + self._logw.reshape((-1,) + (1,) * (stacked.ndim - 1)))

    def log_q_radial(self, r):
        stacked = np.stack([ev.log_q_radial(r) for _, ev in self.components])
        return _log_sum_exp(stacked + self._logw.reshape((-1,) + (1,) * (stacked.ndim - 1)))

    def gaussian_envelope(self):
        # A proposal at least as wide as every component: sum of envelopes
        # (each summand is PSD, so the sum dominates each of them).
        sigma = np.zeros((self.dim, self.dim))
        for _, ev in self.components:
            s, mean = ev.gaussian_envelope()
            if np.max(np.abs(mean)) > 0:
                raise UnsupportedState("mixture envelope assumes zero-mean components")
            sigma = sigma + s
        return sigma, np.zeros(self.dim)


class ProductHusimi(HusimiEvaluator):
    """Q_A(alpha) Q_B(beta), the density of two independent subsystems."""

    kind = "product"

    def __init__(self, factor_a: HusimiEvaluator, factor_b: HusimiEvaluator):
        self.factor_a = factor_a
        self.factor_b = factor_b
        if factor_a.kind == factor_b.kind == "gaussian":
            # Block-diagonal envelope; the log is the sum of two quadratics.
            self.kind = "gaussian"
        self.partition = ModePartition(
            factor_a.partition.n_modes, factor_b.partition.n_modes
        )

    def log_q(self, points):
        pts = self._points(points)
        k = 2 * self.partition.n_a
        return self.factor_a.log_q(pts[..., :k]) + self.factor_b.log_q(pts[..., k:])

    def gaussian_envelope(self):
        sa, ma = self.factor_a.gaussian_envelope()
        sb, mb = self.factor_b.gaussian_envelope()
        sigma = np.zeros((self.dim, self.dim))
        ka = 2 * self.partition.n_a
        sigma[:ka, :ka] = sa
        sigma[ka:, ka:] = sb
        return sigma, np.concatenate([ma, mb])


class ConditionalHusimi(HusimiEvaluator):
    """Density of subsystem A after a heterodyne outcome beta on subsystem B."""

    def __init__(self, parent: HusimiEvaluator, beta, marginal_b: HusimiEvaluator | None = None):
        if not parent.partition.bipartite:
            raise NotBipartite("conditioning needs a bipartite parent")
        beta = np.asarray(beta, dtype=float).reshape(-1)
        if beta.shape[0] != 2 * parent.partition.n_b:
            raise DimensionMismatch(
                f"outcome has {beta.shape[0]} coordinates, subsystem B needs "
                f"{2 * parent.partition.n_b}"
            )
        if marginal_b is None:
            marginal_b = marginal_husimi(parent, keep="b")
        log_qb = float(marginal_b.log_q(beta))
        if log_qb < LOG_TINY:
            raise ConditionOnZeroDensity(
                "marginal density at the conditioning point is numerically zero"
            )
        self.parent = parent
        self.beta = beta
        self.partition = ModePartition(parent.partition.n_a, 0)
        self._log_qb = log_qb
        self.kind = "generic"
        if parent.kind == "gaussian":
            # A Gaussian conditioned on beta: the Schur complement of the
            # B block is the covariance, the regression on beta the mean.
            self.kind = "gaussian"
            sigma, mean = parent.gaussian_envelope()
            ka = 2 * parent.partition.n_a
            gain = np.linalg.solve(sigma[ka:, ka:], sigma[ka:, :ka]).T
            self._envelope_sigma = sigma[:ka, :ka] - gain @ sigma[ka:, :ka]
            self._envelope_mean = mean[:ka] + gain @ (beta - mean[ka:])

    def log_q(self, points):
        pts = self._points(points)
        joint = np.broadcast_to(self.beta, pts.shape[:-1] + self.beta.shape)
        return self.parent.log_q(np.concatenate([pts, joint], axis=-1)) - self._log_qb

    def gaussian_envelope(self):
        if self.kind != "gaussian":
            raise UnsupportedState("no Gaussian envelope for a non-Gaussian conditional")
        return self._envelope_sigma, self._envelope_mean


def evaluator_for(state: StateSpec) -> HusimiEvaluator:
    """Husimi evaluator of a validated state spec."""
    if isinstance(state, FockState):
        return FockHusimi(state.n)
    if isinstance(state, FockMixtureState):
        live = [(q, FockHusimi(n)) for n, q in state.weights if q > 0.0]
        if len(live) == 1:
            return live[0][1]
        return ConvexCombinationHusimi(live)
    if isinstance(state, ThermalState):
        return ThermalHusimi(state.beta_omega)
    if isinstance(state, GaussianState):
        return GaussianHusimi(state.cov)
    if isinstance(state, TwoModeSqueezedState):
        return GaussianHusimi(state.cov)
    if isinstance(state, NoonState):
        return NoonHusimi(state.excitation)
    raise UnsupportedState(f"no evaluator for {type(state).__name__}")


def marginal_husimi(evaluator: HusimiEvaluator, keep: str = "a") -> HusimiEvaluator:
    """Reduced density of one subsystem, in closed form.

    Raises UnsupportedState for a bipartite evaluator whose family has no
    closed-form marginal here.
    """
    if keep not in ("a", "b"):
        raise ValueError("keep must be 'a' or 'b'")
    if not evaluator.partition.bipartite:
        raise NotBipartite("marginal needs a bipartite evaluator")
    if isinstance(evaluator, GaussianHusimi):
        return GaussianHusimi(evaluator.cov.reduced(keep))
    if isinstance(evaluator, NoonHusimi):
        # Both reductions coincide by the exchange symmetry of the state, so
        # both are one instance: a product of it with itself is evaluated once.
        return evaluator.marginal
    if isinstance(evaluator, ProductHusimi):
        return evaluator.factor_a if keep == "a" else evaluator.factor_b
    if isinstance(evaluator, ConvexCombinationHusimi):
        return ConvexCombinationHusimi(
            [(w, marginal_husimi(ev, keep)) for w, ev in evaluator.components]
        )
    raise UnsupportedState(f"no closed-form marginal for {type(evaluator).__name__}")


def conditional_husimi(evaluator: HusimiEvaluator, beta) -> HusimiEvaluator:
    """Conditional density of A given heterodyne outcome beta on B."""
    return ConditionalHusimi(evaluator, beta)


def _scalar_or_array(values, *inputs):
    if all(np.isscalar(v) or np.asarray(v).ndim == 0 for v in inputs):
        return float(values)
    return values


def q_fock(n: int, x, p):
    """Husimi density of the n-th number state at (x, p)."""
    ev = FockHusimi(n)
    pts = np.stack(np.broadcast_arrays(np.asarray(x, float), np.asarray(p, float)), axis=-1)
    return _scalar_or_array(ev.q(pts), x, p)


def q_thermal(beta_omega: float, x, p):
    """Husimi density of a thermal state at (x, p)."""
    ev = ThermalHusimi(beta_omega)
    pts = np.stack(np.broadcast_arrays(np.asarray(x, float), np.asarray(p, float)), axis=-1)
    return _scalar_or_array(ev.q(pts), x, p)


def q_gaussian(cov: CovarianceModel, r):
    """Husimi density of a Gaussian state at phase-space point(s) r."""
    return GaussianHusimi(cov).q(np.asarray(r, dtype=float))


def q_noon(n: int, r):
    """Husimi density of the two-mode excitation superposition at r."""
    return NoonHusimi(n).q(np.asarray(r, dtype=float))


# ---------------------------------------------------------------------------
# Homodyne (position / momentum) marginal densities
# ---------------------------------------------------------------------------


def _hermite_function(n: int, x: np.ndarray) -> np.ndarray:
    """Orthonormal Hermite function psi_n(x) by the stable normalized recurrence."""
    x = np.asarray(x, dtype=float)
    psi_prev = np.zeros_like(x)
    psi = np.asarray(math.pi ** (-0.25) * np.exp(-0.5 * x * x))
    scaled = np.empty_like(psi)
    for k in range(n):
        # psi_next = (x c1) psi - c2 psi_prev, written over psi_prev.
        np.multiply(x, math.sqrt(2.0 / (k + 1)), out=scaled)
        scaled *= psi
        psi_prev *= math.sqrt(k / (k + 1.0))
        np.subtract(scaled, psi_prev, out=psi_prev)
        psi_prev, psi = psi, psi_prev
    # A 0-d input gives a numpy scalar.
    return psi[()]


class PositionDensity:
    """Base interface for one-dimensional homodyne outcome densities."""

    # Zeros of the density, where ln f is singular.  The line rule puts a
    # panel edge at each and, when there is any, grades every panel.
    breakpoints: tuple[float, ...] = ()
    position_gamma_shape = 0.0
    position_rate = 1.0
    # Log of the tail coefficient relative to the plain Gamma envelope;
    # cutoff selection shrinks its mass target by this much.
    position_tail_log_margin = 0.0

    def log_f(self, x):
        raise NotImplementedError

    def f(self, x):
        return np.exp(self.log_f(x))


class FockPositionDensity(PositionDensity):
    """f_n(x) = H_n(x)^2 e^{-x^2} / (sqrt(pi) 2^n n!), via Hermite functions."""

    def __init__(self, n: int):
        self.n = int(n)
        self.position_gamma_shape = float(self.n)
        # Decay exp(-x^2) means rate 2 in the exp(-rate x^2 / 2) convention.
        self.position_rate = 2.0
        # H_n^2 carries a 4^n leading coefficient against the 2^n n!
        # normalization, so the tail outruns the bare Gamma envelope by
        # roughly 2^(n+1) (n+1); push the cutoff out accordingly.
        self.position_tail_log_margin = (self.n + 1) * math.log(2.0) + math.log(self.n + 1.0)
        if self.n > 0:
            coeffs = np.zeros(self.n + 1)
            coeffs[-1] = 1.0
            self.breakpoints = tuple(np.polynomial.hermite.hermroots(coeffs))
        else:
            self.breakpoints = ()

    def log_f(self, x):
        psi = _hermite_function(self.n, x)
        with np.errstate(divide="ignore"):
            return 2.0 * np.log(np.abs(psi))

    def f(self, x):
        return _hermite_function(self.n, x) ** 2


class ThermalPositionDensity(PositionDensity):
    """Centered Gaussian with 1 / (2 sigma^2) = tanh(beta_omega / 2)."""

    def __init__(self, beta_omega: float):
        self.beta_omega = float(beta_omega)
        self.sigma_sq = 1.0 / (2.0 * math.tanh(0.5 * self.beta_omega))
        self.position_gamma_shape = 0.0
        self.position_rate = 1.0 / self.sigma_sq

    def log_f(self, x):
        x = np.asarray(x, dtype=float)
        return -0.5 * x * x / self.sigma_sq - 0.5 * math.log(2.0 * math.pi * self.sigma_sq)


class MixturePositionDensity(PositionDensity):
    """Weighted mixture of homodyne densities on the same axis."""

    def __init__(self, components):
        pairs = [(float(w), d) for w, d in components if float(w) > 0.0]
        if not pairs:
            raise ValueError("mixture needs at least one positive weight")
        self.components = tuple(pairs)
        self._logw = np.array([math.log(w) for w, _ in pairs])
        self.position_gamma_shape = max(d.position_gamma_shape for _, d in pairs)
        self.position_rate = min(d.position_rate for _, d in pairs)
        self.position_tail_log_margin = max(d.position_tail_log_margin for _, d in pairs)
        # A mixture vanishes only where every component does; for number
        # states that is x = 0 when all indices are odd.
        fock = [d for _, d in pairs if isinstance(d, FockPositionDensity)]
        if len(fock) == len(pairs) and all(d.n % 2 == 1 for d in fock):
            self.breakpoints = (0.0,)
        else:
            self.breakpoints = ()

    def log_f(self, x):
        stacked = np.stack([d.log_f(x) for _, d in self.components])
        return _log_sum_exp(stacked + self._logw.reshape((-1,) + (1,) * (stacked.ndim - 1)))


def homodyne_marginal_fock(n: int, x):
    """Position density of the n-th number state."""
    d = FockPositionDensity(n)
    return _scalar_or_array(d.f(np.asarray(x, dtype=float)), x)


def homodyne_marginal_thermal(beta_omega: float, x):
    """Position density of a thermal state."""
    d = ThermalPositionDensity(beta_omega)
    return _scalar_or_array(d.f(np.asarray(x, dtype=float)), x)


def position_density_for(state: StateSpec) -> PositionDensity:
    """Homodyne marginal density of a single-mode state.

    The momentum marginal of every supported family coincides with the
    position one, so a single density serves both quadratures.
    """
    if isinstance(state, FockState):
        return FockPositionDensity(state.n)
    if isinstance(state, FockMixtureState):
        live = [(q, FockPositionDensity(n)) for n, q in state.weights if q > 0.0]
        if len(live) == 1:
            return live[0][1]
        return MixturePositionDensity(live)
    if isinstance(state, ThermalState):
        return ThermalPositionDensity(state.beta_omega)
    raise UnsupportedState("homodyne marginals cover number, mixture, and thermal states")
