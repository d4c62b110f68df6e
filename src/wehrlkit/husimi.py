"""Husimi densities and their marginal reductions.

Every evaluator maps phase-space points to values of the heterodyne
outcome density Q, normalized so that integrating Q against
``d^n x d^n p / (2 pi)^n`` gives one.  Points use the per-mode ordering
``(x_1, p_1, ..., x_n, p_n)`` with subsystem A first; the complex
amplitude of a mode is ``alpha = (x + i p) / sqrt(2)``.

Evaluators declare how they can be integrated through ``kind`` alone,
and the quadrature engine routes on it without probing for methods:

* ``"radial"`` promises ``log_q_radial``, ``radial_gamma_shape`` and
  ``radial_rate``; the one-mode radial densities share ``RadialHusimi``,
  which also gives ``log_q_remainder``, ln Q + rho^2 / 2 on the outer
  product of two axes;
* ``"noon"`` promises a two-mode density that depends on the mode phases
  only through their difference and is symmetric under the exchange
  r_A <-> r_B of the two radii, with ``angle_averaged_logs(r, s)`` (the
  average over that difference, in closed form, on the triangle
  r_A = r, r_B = s r with 0 <= s <= 1, as 1D factors on the two axes
  that the Gaussian -r_B^2 / 2 alone couples), plus the same two tail
  parameters for the radial cutoff;
* ``"gaussian"`` promises that ln Q is exactly quadratic, with the
  covariance and mean that ``gaussian_envelope`` returns; whitened by it,
  an integral whose densities are all "gaussian" is exact on two
  Gauss-Hermite nodes per axis, where it starts;
* every other kind is integrated on the whitened cartesian grid, through
  ``gaussian_envelope``, which raises UnsupportedState by default.

``log_q``, ``log_q_radial``, ``log_q_remainder``, ``log_f`` and
``angle_averaged_logs`` must return fresh arrays: the engine overwrites
them while it evaluates the integrand.

Every number-state density is a Fock mixture sum_k w_k |k><k|: a number
state has one index and the NOON marginal (|0><0| + |n><n|) / 2 two.  So
each coordinate has one number-state kernel, ``FockMixtureHusimi`` in
the radius and ``FockMixturePositionDensity`` on the line;
``FockHusimi``, ``NoonMarginalHusimi`` and ``FockPositionDensity`` only
name their weights.  ``_hermite_steps`` is the one Hermite recurrence,
of the line kernel and of the quadrature engine's Gauss-Hermite rule.

The number-state and thermal densities also have stacked kernels,
static methods ``stacked_log_q_radial(members, r, counts)`` and
``stacked_log_f(members, x, counts)``: one call evaluates a stack of
densities of the class, each on its own run of nodes, with the
operations, and so the bits, of its own ``log_q_radial`` or ``log_f``.
A subclass that changes one of such a pair must change the other.
"""

from __future__ import annotations

import bisect
import itertools
import math

import numpy as np

from .errors import (
    DimensionMismatch,
    NotBipartite,
    UnsupportedState,
)
from .gaussian import CovarianceModel, ModePartition, _logdet
from .states import (
    FockMixtureState,
    FockState,
    GaussianState,
    NoonState,
    StateSpec,
    ThermalState,
    TwoModeSqueezedState,
)


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


# Largest log of a term that ``FockMixtureHusimi.log_q_remainder`` takes
# out of log space: sums of a few such terms stay finite.
_LOG_SEPARABLE_MAX = 700.0


def _outer_sum(pairs, shape) -> np.ndarray:
    """sum over the (x, y) pairs of x_i y_j, a fresh array of ``shape``, by one matmul.

    Each x is a row vector or a scalar, each y a column vector or a
    scalar; a lone pair is padded by a zero one.  One pair gives
    x_i y_j + 0 * 0 and the pairs (x, 1), (1, y) give x_i * 1 + 1 * y_j,
    the very numbers of ``np.multiply.outer`` and ``np.add.outer``, at a
    third to a half of their cost on the "noon" triangle's grids: the
    ufuncs' outer loops, like a matmul with an inner dimension of one,
    take one numpy call a row.
    """
    pairs = list(pairs) + [(0.0, 0.0)] * (len(pairs) == 1)
    left = np.empty((shape[0], len(pairs)))
    right = np.empty((len(pairs), shape[1]))
    for k, (x, y) in enumerate(pairs):
        left[:, k] = x
        right[k] = y
    return left @ right


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


class RadialHusimi(HusimiEvaluator):
    """A one-mode density that depends on the radius r = |(x, p)| alone.

    Subclasses define ``log_q_radial`` and set ``radial_gamma_shape``,
    ``radial_rate`` and ``axis_second_moment``, the mean of x^2 (and of
    p^2); ``log_q`` and ``gaussian_envelope`` follow from them.
    """

    kind = "radial"
    partition = ModePartition(1, 0)

    def log_q_radial(self, r):
        raise NotImplementedError

    def log_q_remainder(self, r, s):
        """ln Q(rho) + rho^2 / 2 at rho = r_i s_j, a fresh (len r, len s) array.

        The "noon" triangle reads a reference factor at r_B = s r through
        this remainder, its vacuum Gaussian -rho^2 / 2 cancelling the
        density's cross term.  This default forms rho and its square;
        ``FockMixtureHusimi`` works from the axes' logs instead.
        """
        rho = np.multiply.outer(np.asarray(r, dtype=float), np.asarray(s, dtype=float))
        remainder = self.log_q_radial(rho)
        rho *= rho
        rho *= 0.5
        remainder += rho
        return remainder

    def log_q(self, points):
        pts = self._points(points)
        return self.log_q_radial(np.hypot(pts[..., 0], pts[..., 1]))

    def gaussian_envelope(self):
        # Slightly wider than the true second moment so the whitened
        # integrand still decays under the Hermite reweighting.
        return np.diag([self.axis_second_moment + 0.5] * 2), np.zeros(2)


def _occupied(weights) -> tuple[tuple[int, float], ...]:
    """The (k, w_k) pairs of a number-state mixture with w_k > 0, by index."""
    pairs = sorted((int(k), float(w)) for k, w in weights if float(w) > 0.0)
    if not pairs:
        raise ValueError("mixture needs at least one positive weight")
    if len({k for k, _ in pairs}) < len(pairs):
        raise ValueError("mixture indices must be distinct")
    return tuple(pairs)


def _per_node(values, counts):
    """One constant per stack member: a scalar when they all agree, else a per-node column."""
    first = values[0]
    for value in values:
        if value != first:
            return np.repeat(values, counts)
    return first


def _fock_mixture_log_q(r, twice_k0, c0, folds):
    """ln Q of ``FockMixtureHusimi`` at r from its constants.

    ``twice_k0`` is 2 k0, or None when the vacuum is occupied; ``folds``
    holds the (gap, constant) pairs.  Each constant is a scalar, or a
    per-node column for a stack.
    """
    if twice_k0 is not None or folds:
        with np.errstate(divide="ignore"):
            log_r = np.log(r)
    # ln(e^acc + e^t) by the formula of np.logaddexp, in place on whole
    # arrays: logaddexp applies it one element at a time, at 20-30 times
    # the cost per element of np.exp.  acc starts as a constant, so it
    # stays finite at r = 0, where every t is -inf.  Few buffers, each
    # reused: every fresh one costs page faults on a large grid.
    acc = c0
    d = None
    for gap, c in folds:
        t = gap * log_r
        t += c
        d = np.subtract(acc, t, out=d)
        np.abs(d, out=d)
        np.negative(d, out=d)
        np.log1p(np.exp(d, out=d), out=d)
        acc = np.maximum(acc, t, out=t)
        acc += d
    log_q = np.multiply(r, r, out=d)
    log_q *= -0.5
    if twice_k0 is not None:
        # -inf at r = 0; with the vacuum occupied the term is absent,
        # not 0 * -inf.
        log_r *= twice_k0
        log_q += log_r
    log_q += acc
    return log_q


class FockMixtureHusimi(RadialHusimi):
    """Q(r) = sum_k w_k Q_k(r) over the occupied number states k, in one pass.

    Q_k(r) = r^2k e^(-r^2/2) / (2^k k!).  With k0 the smallest occupied
    index and c_k = ln w_k - ln(2^k k!),

        ln Q = 2 k0 ln r - r^2/2 + ln sum_k exp(c_k + 2 (k - k0) ln r),

    and the sum is folded one index at a time from the constant c_k0.
    ``weights`` are (k, w_k) pairs; those with w_k = 0 are dropped.  The
    tail parameters are those of the largest index.
    """

    def __init__(self, weights):
        self.weights = pairs = _occupied(weights)
        self._k0 = k0 = pairs[0][0]
        coefs = [(k, math.log(w) - k * math.log(2.0) - math.lgamma(k + 1)) for k, w in pairs]
        self._c0 = coefs[0][1]
        self._folds = tuple((2.0 * (k - k0), c) for k, c in coefs[1:])
        self.radial_gamma_shape = float(pairs[-1][0])
        self.radial_rate = 1.0
        self.axis_second_moment = sum(w * (k + 1.0) for k, w in pairs)

    def log_q_radial(self, r):
        r = np.asarray(r, dtype=float)
        if r.ndim == 0:
            return self.log_q_radial(r.reshape(1))[0]
        return _fock_mixture_log_q(r, 2.0 * self._k0 if self._k0 else None, self._c0,
                                   self._folds)

    @staticmethod
    def stacked_log_q_radial(members, r, counts):
        """ln Q of a stack: the first ``counts[0]`` nodes of r are member 0's, and so on.

        Consecutive members with the same branches, a nonzero k0 or not
        and the same number of folds, form one run, evaluated in one pass
        with k0, c_k0 and each fold's gap and constant as per-node columns
        (a scalar where the run shares it).  Each node sees the operations
        of its member's own ``log_q_radial``, so the stack gives its bits.
        """
        runs = [list(run) for _, run in itertools.groupby(
            zip(members, counts), key=lambda pair: (pair[0]._k0 > 0, len(pair[0]._folds)))]
        log_q = np.empty_like(r) if len(runs) > 1 else None
        end = 0
        for run in runs:
            group, group_counts = zip(*run)
            nodes = slice(end, end + sum(group_counts))
            end = nodes.stop
            folds = [(_per_node([m._folds[j][0] for m in group], group_counts),
                      _per_node([m._folds[j][1] for m in group], group_counts))
                     for j in range(len(group[0]._folds))]
            twice_k0 = (_per_node([2.0 * m._k0 for m in group], group_counts)
                        if group[0]._k0 else None)
            run_log_q = _fock_mixture_log_q(r[nodes], twice_k0,
                                            _per_node([m._c0 for m in group], group_counts),
                                            folds)
            if log_q is None:
                return run_log_q
            log_q[nodes] = run_log_q
        return log_q

    def log_q_remainder(self, r, s):
        # rho = r s splits every term of Q e^(rho^2 / 2) = sum_k e^(c_k) rho^2k
        # into axis factors.  Past c_k0 + 2 k0 ln rho, the fold of
        # ``log_q_radial`` is log1p(sum_k X_k(r_i) Y_k(s_j)), one matmul, with
        # X_k = e^(c_k - c_k0) r^(2 (k - k0)) and Y_k = s^(2 (k - k0)) <= 1: no
        # log or square of a 2D array.  Where some X_k could overflow, the
        # default forms rho instead.
        with np.errstate(divide="ignore"):
            log_r, log_s = np.log(r), np.log(s)
        shape = (log_r.size, log_s.size)
        lead = self._c0
        if self._k0:
            twice = 2.0 * self._k0
            lead = _outer_sum([(twice * log_r + self._c0, 1.0), (1.0, twice * log_s)], shape)
        if not self._folds:
            return lead if self._k0 else np.full(shape, lead)
        rows = [gap * log_r + (c - self._c0) for gap, c in self._folds]
        if max(x.max() for x in rows) > _LOG_SEPARABLE_MAX:
            return super().log_q_remainder(r, s)
        remainder = _outer_sum([(np.exp(x), np.exp(gap * log_s))
                                for x, (gap, _) in zip(rows, self._folds)], shape)
        np.log1p(remainder, out=remainder)
        remainder += lead
        return remainder


class FockHusimi(FockMixtureHusimi):
    """Q_n(x, p) = (x^2 + p^2)^n exp(-(x^2 + p^2)/2) / (2^n n!): one occupied index."""

    def __init__(self, n: int):
        self.n = int(n)
        super().__init__(((self.n, 1.0),))


class ThermalHusimi(RadialHusimi):
    """Q(x, p) = (1 - e^-bw) exp(-(x^2 + p^2)(1 - e^-bw)/2)."""

    def __init__(self, beta_omega: float):
        self.beta_omega = float(beta_omega)
        self._rate = -math.expm1(-self.beta_omega)
        self.radial_gamma_shape = 0.0
        self.radial_rate = self._rate
        self.axis_second_moment = 1.0 / self._rate

    def log_q_radial(self, r):
        r = np.asarray(r, dtype=float)
        return math.log(self._rate) - 0.5 * self._rate * r * r

    @staticmethod
    def stacked_log_q_radial(members, r, counts):
        """ln Q of a stack, each member's ln rate and rate / 2 a per-node column.

        The nodes are laid out as for ``FockMixtureHusimi``, and each sees
        the operations of its member's own ``log_q_radial``.
        """
        half_rate = _per_node([0.5 * m._rate for m in members], counts)
        return _per_node([math.log(m._rate) for m in members], counts) - half_rate * r * r


class GaussianHusimi(HusimiEvaluator):
    """Q(r) = sqrt(det C) exp(-r^T C r / 2) for an admissible covariance.

    ``log_q`` forms r^T C r as one BLAS matmul, ``pts @ C``, and a row-wise
    dot of the product with the points: a three-operand ``np.einsum``
    would run as an unoptimised nested loop, several times slower.
    """

    kind = "gaussian"

    def __init__(self, cov: CovarianceModel):
        self.cov = cov
        self.partition = cov.partition
        self._log_norm = 0.5 * _logdet(cov.c, "C")
        self._c = np.asarray(cov.c)

    def log_q(self, points):
        pts = self._points(points)
        quad = np.einsum("...i,...i->...", pts @ self._c, pts)
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
        self._log_norm = (n + 1) * math.log(2.0) + math.lgamma(n + 1) + math.log1p(delta)
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
        """Axis factors of ln <Q> and <Q ln Q> / <Q> over the phase difference.

        The radii are r_A = r and r_B = s r with 0 <= s <= 1, given as two
        1D arrays.  The result is three fresh 1D arrays, a on r and b, c on
        s, with, exactly,

            ln <Q>         = a_i + b_j - r_i^2 s_j^2 / 2,
            <Q ln Q> / <Q> = a_i + c_j - r_i^2 s_j^2 / 2:

        the vacuum Gaussian -r_B^2 / 2 is the one term that couples the
        axes.  With x = r_A^n and y = r_B^n <= x the angular factor is
        |x + y e^{iu}|^2, whose averages over u are x^2 + y^2 and, for
        n >= 1, (x^2 + y^2) ln x^2 + 2 y^2 (Jensen's formula and the Fourier
        series of ln|1 + t e^{iu}|).  With t = s^(2n) <= 1 that makes a the
        prefactor log plus 2n ln r - r^2 / 2, b = log1p(t) and
        c = 2t / (1 + t).  At n = 0 the factor is the constant 4, both
        values are ln Q, and b = c = 0.
        """
        n = self.excitation
        r = np.asarray(r, dtype=float)
        s = np.asarray(s, dtype=float)
        a = -0.5 * r * r
        if n == 0:
            a += 2.0 * math.log(2.0) - self._log_norm
            return a, np.zeros_like(s), np.zeros_like(s)
        with np.errstate(divide="ignore"):
            a += 2.0 * n * np.log(r) - self._log_norm
        t = s ** (2 * n)
        return a, np.log1p(t), 2.0 * t / (1.0 + t)

    def gaussian_envelope(self):
        width = 0.5 * (self.excitation + 2.0) + 0.5
        return np.diag([width] * 4), np.zeros(4)


class NoonMarginalHusimi(FockMixtureHusimi):
    """Single-mode reduction (|0><0| + |n><n|) / 2, the vacuum at n = 0:
    Q(r) = e^{-r^2/2} (r^2n + 2^n n!) / (2^(n+1) n!)."""

    def __init__(self, excitation: int):
        self.excitation = n = int(excitation)
        super().__init__(((0, 0.5), (n, 0.5)) if n else ((0, 1.0),))


class ConvexCombinationHusimi(HusimiEvaluator):
    """Pointwise mixture sum_i w_i Q_i of densities on the same mode layout.

    It is integrated on the cartesian grid whatever its components; a
    mixture of number states, and the NOON marginal with it, is one
    ``FockMixtureHusimi``, which is radial.
    """

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

    def log_q(self, points):
        stacked = np.stack([ev.log_q(points) for _, ev in self.components])
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


def evaluator_for(state: StateSpec) -> HusimiEvaluator:
    """Husimi evaluator of a validated state spec."""
    if isinstance(state, FockState):
        return FockHusimi(state.n)
    if isinstance(state, FockMixtureState):
        return FockMixtureHusimi(state.weights)
    if isinstance(state, ThermalState):
        return ThermalHusimi(state.beta_omega)
    if isinstance(state, (GaussianState, TwoModeSqueezedState)):
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


# ---------------------------------------------------------------------------
# Homodyne (position / momentum) marginal densities
# ---------------------------------------------------------------------------


# Steps of the Hermite recurrence whose factors x c1 are formed together.
_HERMITE_BLOCK = 8


def _hermite_steps(n: int, x: np.ndarray, psi: np.ndarray, lengths=None):
    """Yield psi_0 .. psi_n at x by the stable normalized recurrence.

    ``psi`` is psi_0 at x (scaled as the caller likes: the recurrence is
    linear).  Each yielded array is a buffer that later steps overwrite,
    so it must be used before the next one is requested.  With
    ``lengths``, the step from psi_k to psi_(k+1) works on the first
    ``lengths[k]`` entries of 1D arrays alone, a count that must not
    grow with k: past it the buffers keep stale values.
    """
    psi_prev = np.zeros_like(x)
    yield psi
    c1 = np.sqrt(2.0 / np.arange(1.0, n + 1.0))
    block = np.empty((min(n, _HERMITE_BLOCK),) + np.shape(x))
    for k in range(n):
        head = ... if lengths is None else slice(lengths[k])
        if k % _HERMITE_BLOCK == 0:
            # x c1 of the next steps in one call, into one reused buffer; a
            # block of them, not all n, keeps the memory a few times that of x.
            c = c1[k:k + _HERMITE_BLOCK]
            scaled = np.multiply.outer(c, x[head], out=block[:c.size, head])
        # psi_next = (x c1) psi - c2 psi_prev, written over psi_prev.
        step = scaled[k % _HERMITE_BLOCK][head]
        step *= psi[head]
        prev = psi_prev[head]
        prev *= math.sqrt(k / (k + 1.0))
        np.subtract(step, prev, out=prev)
        psi_prev, psi = psi, psi_prev
        yield psi


def _hermite_zeros(n: int) -> np.ndarray:
    """Zeros of H_n, n >= 1, ascending: the eigenvalues of its symmetric Jacobi matrix.

    They are as the eigensolver returns them, neither polished nor mirrored.
    """
    return np.linalg.eigvalsh(np.diag(np.sqrt(0.5 * np.arange(1, n)), -1))


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


class FockMixturePositionDensity(PositionDensity):
    """f(x) = sum_k w_k psi_k(x)^2 over the occupied number states k.

    psi_k(x) = H_k(x) e^(-x^2/2) / sqrt(sqrt(pi) 2^k k!).  One Hermite
    recurrence up to the largest index visits every psi_k, and the
    weighted squares are summed before the one log.  The recurrence
    starts from psi_0 e^(x^2/4), so the squares carry e^(x^2/2) and stay
    normal numbers where psi_k^2 alone would underflow (|x| above about
    26).  Past |x| of about 37 they can leave the float range: a density
    whose sum overflows at some node (a number state of index 651 or
    more, at the cutoff the line rule solves) raises UnsupportedState.
    ``weights`` are (k, w_k) pairs; those with w_k = 0 are dropped.  The
    tail parameters are those of the largest index.
    """

    def __init__(self, weights):
        self.weights = pairs = _occupied(weights)
        self._top = top = pairs[-1][0]
        self.position_gamma_shape = float(top)
        # Decay exp(-x^2) means rate 2 in the exp(-rate x^2 / 2) convention.
        self.position_rate = 2.0
        # H_top^2 carries a 4^top leading coefficient against the 2^top top!
        # normalization, so the tail outruns the bare Gamma envelope by
        # roughly 2^(top+1) (top+1); the cutoff is pushed out accordingly.
        self.position_tail_log_margin = (top + 1) * math.log(2.0) + math.log(top + 1.0)
        if len(pairs) == 1 and top > 0:
            # The zeros of H_top, mirrored so that each pair is exactly +-t
            # (and the middle zero of an odd index exactly 0), which leaves
            # one panel edge per |t|.
            t = _hermite_zeros(top)
            self.breakpoints = tuple(0.5 * (t - t[::-1]))
        elif all(k % 2 == 1 for k, _ in pairs):
            # A mixture vanishes only where every psi_k does: at x = 0.
            self.breakpoints = (0.0,)

    def log_f(self, x):
        x = np.asarray(x, dtype=float)
        return _fock_mixture_log_f(x, [self._top], [x.size], None,
                                   {k: (..., w) for k, w in self.weights})

    @staticmethod
    def stacked_log_f(members, x, counts):
        """ln f of a stack: the first ``counts[0]`` nodes of x are member 0's, and so on.

        The members come sorted by largest index, the largest first, so
        one recurrence serves them all: the step to psi_(k+1) works only
        on the prefix of members whose largest index passes k, and the
        numpy calls grow with the largest index, not with the sum of the
        indices.  The index-k terms are added on the nodes from the first
        to the last member that has one, with w_k a per-node column (0 for
        the members in between without it) unless one weight serves them
        all.  Each node sees the operations of its member's own
        ``log_f``, so the stack gives its bits.
        """
        tops = [m._top for m in members]
        if tops != sorted(tops, reverse=True):
            raise ValueError("a line stack needs its largest indices in descending order")
        ends = list(itertools.accumulate(counts))
        # Members 0 .. m - 1, whose largest index passes k, take step k.
        lengths, m = [], len(members)
        for k in range(tops[0]):
            while tops[m - 1] <= k:
                m -= 1
            lengths.append(ends[m - 1])
        weight_of = [dict(m.weights) for m in members]
        have = {}
        for i, weights in enumerate(weight_of):
            for k in weights:
                have.setdefault(k, []).append(i)
        terms = {}
        for k, at in have.items():
            lo, hi = at[0], at[-1] + 1
            w = [weights.get(k, 0.0) for weights in weight_of[lo:hi]]
            terms[k] = (slice(ends[lo] - counts[lo], ends[hi - 1]), _per_node(w, counts[lo:hi]))
        return _fock_mixture_log_f(x, tops, ends, lengths, terms)


def _fock_mixture_log_f(x, tops, ends, lengths, terms):
    """ln f at x of ``FockMixturePositionDensity`` members, laid out as a stack.

    The members' largest indices ``tops`` descend, and member i's nodes
    end at ``ends[i]``; ``lengths`` are the step lengths of
    ``_hermite_steps`` and ``terms[k]`` the (nodes, w_k) of the index-k
    terms.  A sum that leaves the float range raises UnsupportedState,
    naming the member's index, before anything warns.
    """
    half = -0.25 * x * x
    total = np.zeros_like(x)
    psi_0 = np.asarray(np.exp(half))
    psi_0 *= math.pi ** (-0.25)
    square = np.empty_like(x)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, psi in enumerate(_hermite_steps(tops[0], x, psi_0, lengths)):
            if k in terms:
                at, w = terms[k]
                part = psi[at]
                term = np.multiply(part, w, out=square[at])
                term *= part
                total[at] += term
    if not np.max(total) < math.inf:
        bad = int(np.flatnonzero(~np.isfinite(total))[0])
        raise UnsupportedState(
            f"number-state index {tops[bisect.bisect_right(ends, bad)]}: the line kernel's "
            f"Hermite recurrence carries e^(x^2/2) and leaves the float range "
            f"(max {np.finfo(float).max:.3g}) at |x| = {abs(x.flat[bad]):.4g}"
        )
    with np.errstate(divide="ignore"):
        log_f = np.log(total, out=total)
    half *= 2.0
    log_f += half
    return log_f


class FockPositionDensity(FockMixturePositionDensity):
    """f_n(x) = H_n(x)^2 e^{-x^2} / (sqrt(pi) 2^n n!): one occupied index."""

    def __init__(self, n: int):
        self.n = int(n)
        super().__init__(((self.n, 1.0),))


def position_density_for(state: StateSpec) -> PositionDensity:
    """Homodyne marginal density of a single-mode state.

    The momentum marginal of every supported family coincides with the
    position one, so a single density serves both quadratures.
    """
    if isinstance(state, FockState):
        return FockPositionDensity(state.n)
    if isinstance(state, FockMixtureState):
        return FockMixturePositionDensity(state.weights)
    if isinstance(state, ThermalState):
        return ThermalPositionDensity(state.beta_omega)
    raise UnsupportedState("homodyne marginals cover number, mixture, and thermal states")
