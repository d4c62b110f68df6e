"""Husimi densities and their marginal reductions.

Every evaluator maps phase-space points to values of the heterodyne
outcome density Q, normalized so that integrating Q against
``d^n x d^n p / (2 pi)^n`` gives one.  Points use the per-mode ordering
``(x_1, p_1, ..., x_n, p_n)`` with subsystem A first; the complex
amplitude of a mode is ``alpha = (x + i p) / sqrt(2)``.

Evaluators declare how they can be integrated through ``kind`` alone,
and the quadrature engine routes on it without probing for methods:

* ``"radial"`` promises ``log_q_radial``, ``radial_gamma_shape``,
  ``radial_rate``, ``log_q_affine_in_r2`` and ``lowest_index``, the
  smallest occupied number-state index (Q vanishes like r^(2 k) at the
  origin); the one-mode radial densities share ``RadialHusimi``;
* ``"noon"`` promises a two-mode density that depends on the mode phases
  only through their difference and is symmetric under the exchange
  r_A <-> r_B of the two radii, with ``s_profile(s)``: the density
  integrated over that difference and over the radius in closed form,
  as a profile in the ratio s = r_B / r_A of [0, 1]; ``marginal``, the
  one instance that both reductions are; and ``separable``, true when
  the density is the product of its marginals;
* ``"gaussian"`` promises that ln Q is exactly quadratic, with the
  covariance and mean that ``gaussian_envelope`` returns; whitened by it,
  an integral whose densities are all "gaussian" is exact on two
  Gauss-Hermite nodes per axis, where it starts;
* every other kind is integrated on the whitened cartesian grid, through
  ``gaussian_envelope``, which raises UnsupportedState by default.

``log_q``, ``log_q_radial``, ``log_f`` and ``s_profile`` must return
fresh arrays: the engine overwrites them while it evaluates the
integrand.

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
import functools
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
    # True when ln Q is exactly ln radial_rate - radial_rate r^2 / 2, so
    # the quadrature engine integrates it exactly on Gauss-Laguerre nodes.
    log_q_affine_in_r2 = False
    # The smallest occupied number-state index k: Q vanishes like r^(2 k)
    # at the origin (a thermal state occupies the vacuum).
    lowest_index = 0

    def log_q_radial(self, r):
        raise NotImplementedError

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
        self.lowest_index = k0 = pairs[0][0]
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
        k0 = self.lowest_index
        return _fock_mixture_log_q(r, 2.0 * k0 if k0 else None, self._c0, self._folds)

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
            zip(members, counts), key=lambda pair: (pair[0].lowest_index > 0, len(pair[0]._folds)))]
        log_q = np.empty_like(r) if len(runs) > 1 else None
        end = 0
        for run in runs:
            group, group_counts = zip(*run)
            nodes = slice(end, end + sum(group_counts))
            end = nodes.stop
            folds = [(_per_node([m._folds[j][0] for m in group], group_counts),
                      _per_node([m._folds[j][1] for m in group], group_counts))
                     for j in range(len(group[0]._folds))]
            twice_k0 = (_per_node([2.0 * m.lowest_index for m in group], group_counts)
                        if group[0].lowest_index else None)
            run_log_q = _fock_mixture_log_q(r[nodes], twice_k0,
                                            _per_node([m._c0 for m in group], group_counts),
                                            folds)
            if log_q is None:
                return run_log_q
            log_q[nodes] = run_log_q
        return log_q

class FockHusimi(FockMixtureHusimi):
    """Q_n(x, p) = (x^2 + p^2)^n exp(-(x^2 + p^2)/2) / (2^n n!): one occupied index."""

    def __init__(self, n: int):
        self.n = int(n)
        super().__init__(((self.n, 1.0),))


class ThermalHusimi(RadialHusimi):
    """Q(x, p) = (1 - e^-bw) exp(-(x^2 + p^2)(1 - e^-bw)/2)."""

    log_q_affine_in_r2 = True

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


def _noon_log_offset(n: int) -> float:
    """D = -(n + 2) + n psi(n + 2) + n ln 2 - L of ``NoonHusimi.s_profile``, n >= 1.

    L = (n + 1) ln 2 + ln n! is the log of the normalization and
    psi(n + 2) = H_(n+1) - gamma, so no special function is needed; the
    terms, of size n ln n, are added exactly rounded.
    """
    harmonic = math.fsum(1.0 / k for k in range(1, n + 2))
    return math.fsum([-(n + 2.0), -math.log(2.0), n * harmonic, -n * float(np.euler_gamma),
                      -math.lgamma(n + 1)])


@functools.lru_cache(maxsize=None)
def _noon_constants(n: int):
    """The partition, ln normalization, s-profile offset and marginal of ``NoonHusimi(n)``.

    They depend on the excitation n alone, so they are built once for
    each n, and every ``NoonHusimi(n)`` shares them, its ``marginal``
    instance among them.  The offset is ``_noon_log_offset(n)``, an O(n)
    exactly rounded sum, and -2 at n = 0.
    """
    log_norm = (n + 1) * math.log(2.0) + math.lgamma(n + 1) + math.log1p(1.0 if n == 0 else 0.0)
    return (ModePartition(1, 1), log_norm, _noon_log_offset(n) if n else -2.0,
            NoonMarginalHusimi(n))


class NoonHusimi(HusimiEvaluator):
    """Two-mode superposition with all n excitations in one mode or the other.

    In polar coordinates the density depends on the mode phases only
    through their difference:

        Q = exp(-(r_A^2 + r_B^2)/2)
            * (r_A^2n + r_B^2n + 2 (r_A r_B)^n cos(n dtheta))
            / (2^(n+1) n! (1 + delta_{n,0}))

    At n = 0 it is the vacuum in both modes, the product of its marginals.
    The constants of an excitation (see ``_noon_constants``), its
    ``marginal`` among them, are built once and shared by every instance.
    """

    kind = "noon"

    def __init__(self, excitation: int):
        self.excitation = n = int(excitation)
        self.partition, self._log_norm, self._log_mean_offset, self.marginal = _noon_constants(n)
        self.separable = n == 0

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

    def s_profile(self, s):
        """ln m and l at s: Q and Q ln Q integrated over the radius and the phase difference.

        The radii are r_A = r and r_B = s r with 0 <= s <= 1 (the exchange
        symmetry folds r_B > r_A at weight two), of measure 2 r^3 s dr ds.
        Averaged over the phase difference u, exactly,
        ln <Q> = a(r) + ln(1 + t) - r^2 s^2 / 2 and
        <Q ln Q> / <Q> = a(r) + c - r^2 s^2 / 2, with a = 2n ln r - r^2 / 2
        - L (L the log of the normalization), t = s^(2n) and
        c = 2t / (1 + t): for x = r_A^n >= y = r_B^n, |x + y e^(iu)|^2
        averages to x^2 + y^2, and times its log, by Jensen's formula and
        the Fourier series of ln|1 + t e^(iu)|, to (x^2 + y^2) ln x^2 + 2 y^2.
        Under that mass u = kappa r^2 / 2, kappa = 1 + s^2, is Gamma(n + 2)
        distributed, with E[u] = n + 2 and E[ln u] = psi(n + 2), so the
        radius integrates in closed form to a mass m and a mean log l:

            m(s) = 2 (n + 1) s (1 + t) kappa^-(n + 2),
            l(s) = D - n ln kappa + c,   D as in ``_noon_log_offset``,

        whose integrals of m and m l over [0, 1] are those of Q and Q ln Q.
        At n = 0 the angular factor is the constant 4 and Q the vacuum
        Gaussian: m is the same formula with t = 1, and l = -2.  Returns
        two fresh arrays, ln m and l.
        """
        n = self.excitation
        s = np.asarray(s, dtype=float)
        log_kappa = np.log1p(s * s)
        t = s ** (2 * n)
        with np.errstate(divide="ignore"):
            log_mass = np.log(s)
        log_mass += math.log(2.0 * (n + 1))
        log_mass += np.log1p(t)
        log_mass -= (n + 2) * log_kappa
        if n == 0:
            return log_mass, np.full_like(s, self._log_mean_offset)
        log_mean = np.multiply(log_kappa, -n, out=log_kappa)
        log_mean += self._log_mean_offset
        log_mean += 2.0 * t / (1.0 + t)
        return log_mass, log_mean

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


def _hermite_steps(n: int, x: np.ndarray, psi: np.ndarray):
    """Yield psi_0 .. psi_n at x by the normalized recurrence (Bunck, BIT 49, 281 (2009)).

    psi_(k+1) = sqrt(2 / (k + 1)) x psi_k - sqrt(k / (k + 1)) psi_(k-1).
    ``psi`` is psi_0 at x (scaled as the caller likes: the recurrence is
    linear).  Each yielded array is a buffer that later steps overwrite,
    so it must be used before the next one is requested.
    """
    psi_prev = np.zeros_like(x)
    yield psi
    step = np.empty_like(psi_prev)
    for k in range(n):
        # psi_(k+1), written over psi_(k-1)
        np.multiply(x, math.sqrt(2.0 / (k + 1)), out=step)
        step *= psi
        psi_prev *= math.sqrt(k / (k + 1.0))
        np.subtract(step, psi_prev, out=psi_prev)
        psi_prev, psi = psi, psi_prev
        yield psi


def _hermite_zeros(n: int) -> np.ndarray:
    """Zeros of H_n, n >= 1, ascending, each pair exactly +-t and the middle one of odd n 0.

    H_2m(x) and H_(2m+1)(x) / x are the generalized Laguerre polynomials
    of order m, with alpha = -1/2 and +1/2, at x^2, so the zeros are the
    +-square roots of the eigenvalues of that m-point Jacobi matrix
    (diagonal 2k + alpha + 1, below it sqrt(k (k + alpha))): half the size
    of the Hermite one.  They are not polished.
    """
    m, alpha = n // 2, 0.5 if n % 2 else -0.5
    k = np.arange(1.0, m)
    jacobi = np.diag(2.0 * np.arange(m) + alpha + 1.0) + np.diag(np.sqrt(k * (k + alpha)), -1)
    t = np.sqrt(np.linalg.eigvalsh(jacobi))
    return np.concatenate([-t[::-1], [0.0] * (n % 2), t])


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
            # The zeros of H_top, in exact +-t pairs: one panel edge per |t|.
            self.breakpoints = tuple(_hermite_zeros(top).tolist())
        elif all(k % 2 == 1 for k, _ in pairs):
            # A mixture vanishes only where every psi_k does: at x = 0.
            self.breakpoints = (0.0,)

    def log_f(self, x):
        x = np.asarray(x, dtype=float)
        return _fock_mixture_log_f(x, [self._top], [x.size],
                                   {k: (..., w) for k, w in self.weights})

    @staticmethod
    def stacked_log_f(members, x, counts):
        """ln f of a stack: the first ``counts[0]`` nodes of x are member 0's, and so on.

        The members come in any order.  One recurrence, up to the largest
        index of them all, serves every node, so the numpy calls grow with
        that index, not with the sum of the indices.  The index-k terms
        are added on the nodes from the first to the last member that has
        one, with w_k a per-node column (0 for the members in between
        without it) unless one weight serves them all.  Each node sees the
        operations of its member's own ``log_f``, so the stack gives its
        bits.
        """
        ends = list(itertools.accumulate(counts))
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
        return _fock_mixture_log_f(x, [m._top for m in members], ends, terms)


def _fock_mixture_log_f(x, tops, ends, terms):
    """ln f at x of ``FockMixturePositionDensity`` members, laid out as a stack.

    Member i has largest index ``tops[i]`` and its nodes end at
    ``ends[i]``; ``terms[k]`` are the (nodes, w_k) of the index-k terms.
    A sum that leaves the float range raises UnsupportedState, naming the
    index of the first member, in the stack's order, that it fails on,
    before anything warns.
    """
    half = -0.25 * x * x
    total = np.zeros_like(x)
    psi_0 = np.asarray(np.exp(half))
    psi_0 *= math.pi ** (-0.25)
    square = np.empty_like(x)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, psi in enumerate(_hermite_steps(max(tops), x, psi_0)):
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
