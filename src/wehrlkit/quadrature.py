"""Numerical integration engine for phase-space and line densities.

Every analytic value in the package can be cross-checked here.  One
routing function picks a coordinate system from the ``kind`` each density
declares (radial, polar with an angular difference, whitened cartesian),
runs a deterministic composite rule, then doubles the resolution and
compares.
The difference between the two finest levels is the reported error
estimate; if it misses the tolerance after the allowed escalations the
engine raises instead of returning a number it cannot defend.

Conventions: phase-space measure ``d^n x d^n p / (2 pi)^n``, line
measure ``dx``.  Densities enter through log values; points where a
density is below 1e-300 contribute exactly zero to entropy-type
integrands.
"""

from __future__ import annotations

import logging
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import gammainccinv, roots_hermite

from .errors import (
    DimensionMismatch,
    SupportViolation,
    ToleranceNotReached,
    UnsupportedState,
)
from .husimi import LOG_TINY, HusimiEvaluator, PositionDensity, ProductHusimi

_log = logging.getLogger(__name__)

# Proxy threshold: a state "has mass" at a point when Q exceeds this.
LOG_SUPPORT = math.log(1e-12)
# A reference density's log is clamped here, so nodes where it has
# underflowed give a large finite log instead of -inf.
_LOG_FLOOR = 2.0 * LOG_TINY

_PANEL_NODES = 16
_GL_NODES, _GL_WEIGHTS = leggauss(_PANEL_NODES)

_STRATEGIES = ("auto", "radial-1d", "polar-2d", "polar-reduced-3d", "tensor-cartesian")


@dataclass(frozen=True)
class QuadratureSpec:
    """Resolution and tolerance knobs for the integration engine.

    ``radial_nodes`` counts nodes along a radial or line coordinate,
    ``angular_nodes`` the midpoint samples of a periodic angle, and
    ``cartesian_nodes_per_dim`` the Gauss-Hermite order per axis.  The
    engine always computes one refinement (all counts doubled) to get an
    error estimate, then up to ``max_escalations`` further doublings.
    ``radial_cutoff`` of None means the cutoff is solved from the
    integrand's Gamma-type tail.  ``parallelism`` > 1 maps independent
    chunks over a thread pool; results are reduced pairwise in a fixed
    order, so the value does not depend on the worker count.
    """

    strategy: str = "auto"
    radial_nodes: int = 400
    angular_nodes: int = 128
    cartesian_nodes_per_dim: int = 24
    radial_cutoff: float | None = None
    abs_tol: float = 1e-8
    rel_tol: float = 1e-8
    max_escalations: int = 3
    parallelism: int = 1

    def __post_init__(self):
        if self.strategy not in _STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}, pick from {_STRATEGIES}")
        if self.radial_nodes < _PANEL_NODES:
            raise ValueError(f"radial_nodes must be at least {_PANEL_NODES}")
        if self.angular_nodes < 4:
            raise ValueError("angular_nodes must be at least 4")
        if self.cartesian_nodes_per_dim < 2:
            raise ValueError("cartesian_nodes_per_dim must be at least 2")
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_escalations < 0:
            raise ValueError("max_escalations must be nonnegative")
        if self.parallelism < 1:
            raise ValueError("parallelism must be at least 1")


@dataclass(frozen=True)
class IntegralResult:
    """Value plus the two-level error estimate that backed it.

    ``error_estimate`` is the difference between the two finest levels.
    It leaves out the truncation at the radial cutoff, so it can be
    smaller than the true error.  ``nodes_used`` counts the distinct
    nodes evaluated over all levels, after the symmetry folds of the
    polar runner.
    """

    value: float
    error_estimate: float
    nodes_used: int


def _pairwise(values) -> float:
    """Deterministic pairwise reduction, independent of chunking order."""
    vals = [float(v) for v in values]
    if not vals:
        return 0.0
    while len(vals) > 1:
        nxt = []
        for i in range(0, len(vals) - 1, 2):
            nxt.append(vals[i] + vals[i + 1])
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


def _map_chunks(fn, items, parallelism: int):
    items = list(items)
    if parallelism <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        return list(pool.map(fn, items))


def _tail_mass(spec: QuadratureSpec) -> float:
    return max(1e-18, 1e-2 * min(spec.abs_tol, spec.rel_tol))


def gamma_tail_threshold(shape: float, rate: float, tail_mass: float) -> float:
    """Radius beyond which a Gamma-enveloped integrand is negligible.

    For integrands bounded by r^(2 shape) exp(-rate r^2 / 2) times slowly
    varying factors, returns R such that the mass beyond R is below
    ``tail_mass`` relative to the whole.  The shape is padded by two to
    absorb the radial Jacobian and logarithmic entropy factors.
    """
    if rate <= 0:
        raise ValueError("tail rate must be positive")
    s = float(gammainccinv(shape + 2.0, tail_mass))
    return math.sqrt(2.0 * s / rate)


def _panel_nodes(a: float, b: float, n_nodes: int, breakpoints=()):
    """Composite Gauss-Legendre nodes on [a, b] with panel edges at breakpoints."""
    edges = sorted({a, b, *(float(p) for p in breakpoints if a < float(p) < b)})
    total = b - a
    n_panels = max(1, int(n_nodes) // _PANEL_NODES)
    lows, highs = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        k = max(1, round(n_panels * (hi - lo) / total))
        step = (hi - lo) / k
        for i in range(k):
            lows.append(lo + i * step)
            highs.append(lo + (i + 1) * step)
    lows = np.asarray(lows)
    highs = np.asarray(highs)
    half = 0.5 * (highs - lows)
    mid = 0.5 * (highs + lows)
    x = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return x, w


def _escalated(eval_at, base, spec: QuadratureSpec, grow, what: str) -> IntegralResult:
    """Run eval_at on doubling resolutions until two levels agree.

    Each level is logged at DEBUG with its resolution, nodes, value and
    seconds.
    """

    def timed(level):
        start = time.perf_counter()
        value, count = eval_at(level)
        _log.debug("%s: level %s, %d nodes, value %.17g, %.6f s",
                   what, level, count, value, time.perf_counter() - start)
        return value, count

    level = base
    value_prev, count = timed(level)
    total_nodes = count
    attempts = spec.max_escalations
    err = math.inf
    while True:
        level_next = grow(level)
        if level_next == level:
            raise ToleranceNotReached(
                f"{what}: node ceiling reached at error {err:.3e} "
                f"(abs_tol={spec.abs_tol:.1e}, rel_tol={spec.rel_tol:.1e})",
                result=IntegralResult(float(value_prev), float(err), int(total_nodes)),
            )
        value_cur, count = timed(level_next)
        total_nodes += count
        err = abs(value_cur - value_prev)
        if err <= max(spec.abs_tol, spec.rel_tol * abs(value_cur)):
            return IntegralResult(float(value_cur), float(err), int(total_nodes))
        if attempts == 0:
            raise ToleranceNotReached(
                f"{what}: refinement stalled at error {err:.3e} "
                f"(abs_tol={spec.abs_tol:.1e}, rel_tol={spec.rel_tol:.1e})",
                result=IntegralResult(float(value_cur), float(err), int(total_nodes)),
            )
        attempts -= 1
        level, value_prev = level_next, value_cur


def _masked_contrib(logmass, factor):
    """exp(logmass) * factor with exact zeros wherever the mass underflows."""
    logmass = np.asarray(logmass, dtype=float)
    out = np.zeros(logmass.shape)
    m = logmass > LOG_TINY
    if np.any(m):
        f = factor[m] if isinstance(factor, np.ndarray) else factor
        out[m] = np.exp(logmass[m]) * f
    return out


# ---------------------------------------------------------------------------
# Coordinate-system runners.  Each integrates exp(logmass) * factor against
# the phase-space measure (the line measure for line densities), where
# (logmass, factor) come from a callback.
# ---------------------------------------------------------------------------


def _run_1d(log_pair, shape, rate, spec: QuadratureSpec, what: str, *, radial: bool,
            breakpoints=(), tail_log_margin: float = 0.0) -> IntegralResult:
    """Composite Gauss-Legendre rule on [0, cutoff].

    With ``radial`` the coordinate is a phase-space radius and carries
    the Jacobian r; otherwise it is the half line of an even line
    density, whose integral is twice that over [0, cutoff].
    ``tail_log_margin`` shrinks the cutoff's tail-mass target for tails
    that outrun the plain Gamma envelope.
    """
    cutoff = spec.radial_cutoff
    if cutoff is None:
        mass = max(_tail_mass(spec) * math.exp(-min(tail_log_margin, 600.0)), 1e-280)
        cutoff = gamma_tail_threshold(shape, rate, mass)
    pos_breaks = tuple(abs(b) for b in breakpoints if abs(b) > 0.0)

    def eval_at(n):
        x, w = _panel_nodes(0.0, cutoff, n, breakpoints=pos_breaks)
        logmass, factor = log_pair(x)
        g = _masked_contrib(logmass, factor)
        if radial:
            return float(np.dot(w, g * x)), x.size
        return 2.0 * float(np.dot(w, g)), x.size

    return _escalated(eval_at, spec.radial_nodes, spec, lambda n: 2 * n, what)


def _run_polar_pair(evaluator, reference, factor_of_log, spec: QuadratureSpec, what: str,
                    violated: list) -> IntegralResult:
    """Two radial coordinates plus one periodic angular difference.

    The angular integral is taken over one period of the evaluator's
    angular frequency, which leaves the substituted variable's cost
    independent of that frequency.  Frequency zero drops the angular
    axis entirely, leaving a plain two-radius integral.

    Each distinct node is evaluated once.  Midpoints u and 2 pi - u share
    cos u, so only the first half of the angles is evaluated, at weight
    two; with an odd count the middle angle u = pi pairs with itself and
    keeps weight one.  A "noon" density is symmetric under r_A <-> r_B, so
    only the packed upper triangle of the radial square is evaluated, at
    weight two off the diagonal.  The reference, a product of two radial
    factors, need not be symmetric: it enters through the mean of its
    clamped log at (r_A, r_B) and at (r_B, r_A), which is its clamped log
    itself when it is symmetric.  Everything that depends on the radial
    grid alone is built once per level.  Each worker owns its buffers and
    a contiguous block of angles, and the per-slab sums are reduced in
    angle order, so the value does not depend on the worker count.
    """
    freq = int(evaluator.angular_frequency)
    cutoff = spec.radial_cutoff
    if cutoff is None:
        cutoff = gamma_tail_threshold(
            evaluator.radial_gamma_shape + 1.0, evaluator.radial_rate, _tail_mass(spec)
        )

    def eval_at(level):
        nr, na = level
        r, w = _panel_nodes(0.0, cutoff, nr)
        ia, ib = np.triu_indices(r.size)
        wr = w * r
        weight = wr[ia] * wr[ib]
        weight[ia != ib] *= 2.0
        slab_log = evaluator.polar_slab_factory(r[ia], r[ib])
        logs, under = None, np.empty(0, dtype=np.intp)
        if reference is not None:
            log_a = reference.factor_a.log_q_radial(r)
            log_b = reference.factor_b.log_q_radial(r)
            logs_ab = log_a[ia] + log_b[ib]
            logs_ba = log_a[ib] + log_b[ia]
            under = np.flatnonzero((logs_ab < LOG_TINY) | (logs_ba < LOG_TINY))
            logs = 0.5 * (np.maximum(logs_ab, _LOG_FLOOR) + np.maximum(logs_ba, _LOG_FLOOR))

        def run_block(cosines):
            dead = np.empty(weight.size, dtype=bool)
            g = np.empty(weight.size)
            sums = []
            for cos_u in cosines:
                logq = slab_log(cos_u)
                if under.size and np.any(logq[under] > LOG_SUPPORT):
                    violated.append(True)
                # Nodes where Q underflows contribute exactly zero; setting
                # their ln Q to 0 first keeps their factor finite.
                np.less_equal(logq, LOG_TINY, out=dead)
                np.copyto(logq, 0.0, where=dead)
                np.exp(logq, out=g)
                np.copyto(g, 0.0, where=dead)
                factor = factor_of_log(logq, out=logq)
                if logs is not None:
                    factor = np.subtract(factor, logs, out=logq)
                np.multiply(g, factor, out=g)
                np.multiply(g, weight, out=g)
                sums.append(float(g.sum()))
            return sums

        if freq == 0:
            cosines, doubled, period = np.ones(1), 0, 1
        else:
            cosines = np.cos((np.arange((na + 1) // 2) + 0.5) * (2.0 * math.pi / na))
            doubled, period = na // 2, na
        blocks = np.array_split(cosines, min(spec.parallelism, cosines.size))
        sums = [s for block in _map_chunks(run_block, blocks, spec.parallelism) for s in block]
        value = _pairwise(2.0 * s if k < doubled else s for k, s in enumerate(sums)) / period
        return value, weight.size * cosines.size

    base = (max(2 * _PANEL_NODES, spec.radial_nodes // 2), spec.angular_nodes)
    if freq == 0:
        grow = lambda lv: (2 * lv[0], lv[1])
    else:
        grow = lambda lv: (2 * lv[0], 2 * lv[1])
    return _escalated(eval_at, base, spec, grow, what)


def _run_cartesian(dim, envelope, log_pair_of_points, spec: QuadratureSpec,
                   what: str) -> IntegralResult:
    """Gauss-Hermite rule whitened by a Gaussian envelope (sigma, mean).

    Per-dimension log-weights are carried as ln(w) + t^2, which stays
    bounded, so the reweighting never overflows.  Node counts are capped
    where the weight computation itself stays stable.
    """
    sigma, mean = envelope
    sigma = np.asarray(sigma, dtype=float)
    mean = np.asarray(mean, dtype=float)
    chol = np.linalg.cholesky(sigma)
    log_pref = float(np.sum(np.log(np.diag(chol)))) - 0.5 * dim * math.log(math.pi)
    scale = math.sqrt(2.0) * chol

    def eval_at(m):
        t, w = roots_hermite(m)
        lw = np.log(w) + t * t
        rest = m ** (dim - 1)
        chunk_len = max(1, 500_000 // rest)
        starts = range(0, m, chunk_len)

        def do_chunk(start):
            stop = min(start + chunk_len, m)
            axes_t = [t[start:stop]] + [t] * (dim - 1)
            axes_lw = [lw[start:stop]] + [lw] * (dim - 1)
            grid_t = np.meshgrid(*axes_t, indexing="ij")
            tpts = np.stack([g.reshape(-1) for g in grid_t], axis=-1)
            lw_sum = np.zeros(tpts.shape[0])
            grid_lw = np.meshgrid(*axes_lw, indexing="ij")
            for g in grid_lw:
                lw_sum += g.reshape(-1)
            pts = tpts @ scale.T + mean
            logmass, factor = log_pair_of_points(pts)
            return float(np.sum(_masked_contrib(logmass + lw_sum, factor)))

        parts = _map_chunks(do_chunk, starts, spec.parallelism)
        return math.exp(log_pref) * _pairwise(parts), m**dim

    # Beyond four dimensions each doubling is eight-fold work or worse;
    # one extra refinement is the pragmatic ceiling there.  The per-axis
    # cap keeps the Hermite weight computation in its stable regime.
    eff_spec = spec
    if dim >= 4 and spec.max_escalations > 1:
        _log.info("%s: %d dimensions, max_escalations lowered from %d to 1",
                  what, dim, spec.max_escalations)
        eff_spec = replace(spec, max_escalations=1)
    grow = lambda n: min(2 * n, 384)
    return _escalated(eval_at, min(spec.cartesian_nodes_per_dim, 384), eff_spec, grow, what)


# ---------------------------------------------------------------------------
# Routing: the one place that maps densities to a runner
# ---------------------------------------------------------------------------


def _integrate(evaluator: HusimiEvaluator, reference: HusimiEvaluator | None, factor_of_log,
               spec: QuadratureSpec, what: str) -> IntegralResult:
    """Integral of Q (factor_of_log(ln Q) - ln S) over phase space.

    Q is the density of ``evaluator`` and S that of ``reference``; without
    a reference the ln S term is dropped.  ``factor_of_log(logq, out=None)``
    returns a scalar or an array; it may write into ``out`` (which the
    polar runner sets to ``logq`` itself) or return ``logq`` unchanged.
    ln S is clamped at twice the underflow log, and SupportViolation is
    raised when some node carries appreciable Q mass (above 1e-12) while
    S has underflowed (below 1e-300).

    The runner is picked here, and only here.  Capabilities come from
    ``kind`` alone: "radial" promises ``log_q_radial``,
    ``radial_gamma_shape`` and ``radial_rate``; "noon" promises an
    exchange-symmetric density with ``polar_slab_factory``,
    ``angular_frequency`` and the same two tail parameters.  The auto rule
    is radial when every density is radial, polar when the evaluator is
    "noon" and the reference is absent or a product of two radial factors,
    cartesian otherwise.  A forced strategy that does not fit raises
    UnsupportedState.
    """
    densities = (evaluator,) if reference is None else (evaluator, reference)
    radial = all(d.kind == "radial" for d in densities)
    polar = evaluator.kind == "noon" and (
        reference is None
        or (isinstance(reference, ProductHusimi)
            and reference.factor_a.kind == reference.factor_b.kind == "radial")
    )
    strategy = spec.strategy
    if strategy == "auto":
        strategy = ("radial-1d" if radial
                    else "polar-reduced-3d" if polar else "tensor-cartesian")
    violated: list = []

    def pair(logq, logs):
        factor = factor_of_log(logq)
        if logs is None:
            return logq, factor
        if np.any((logq > LOG_SUPPORT) & (logs < LOG_TINY)):
            violated.append(True)
        return logq, factor - np.maximum(logs, _LOG_FLOOR)

    if strategy == "radial-1d":
        if not radial:
            raise UnsupportedState(
                "radial-1d needs a radial profile on every density; "
                "pick a different strategy"
            )

        def pair_r(r):
            logq = evaluator.log_q_radial(r)
            return pair(logq, None if reference is None else reference.log_q_radial(r))

        result = _run_1d(pair_r, max(d.radial_gamma_shape for d in densities),
                         min(d.radial_rate for d in densities), spec, what, radial=True)
    elif strategy in ("polar-2d", "polar-reduced-3d"):
        if not polar:
            raise UnsupportedState(
                "polar strategies need an angular-difference density, alone "
                "or against a product of radial marginals"
            )
        if strategy == "polar-2d" and int(evaluator.angular_frequency) != 0:
            raise UnsupportedState(
                "polar-2d drops the angle; this density still depends on it"
            )
        result = _run_polar_pair(evaluator, reference, factor_of_log, spec, what, violated)
    else:
        envelope = evaluator.gaussian_envelope()

        def pair_pts(pts):
            logq = evaluator.log_q(pts)
            return pair(logq, None if reference is None else reference.log_q(pts))

        result = _run_cartesian(evaluator.dim, envelope, pair_pts, spec, what)
    if violated:
        raise SupportViolation(
            "first density keeps mass where the second has none; "
            "the relative entropy diverges at this resolution"
        )
    return result


def _entropy_factor(logq, out=None):
    return np.negative(logq, out=out)


def _unit_factor(logq, out=None):
    return 1.0


def _log_factor(logq, out=None):
    return logq


def _add_entropies(a: IntegralResult, b: IntegralResult) -> IntegralResult:
    # Entropy is additive over independent factors.
    return IntegralResult(a.value + b.value, a.error_estimate + b.error_estimate,
                          a.nodes_used + b.nodes_used)


def _multiply_masses(a: IntegralResult, b: IntegralResult) -> IntegralResult:
    return IntegralResult(
        a.value * b.value,
        abs(a.value) * b.error_estimate + abs(b.value) * a.error_estimate,
        a.nodes_used + b.nodes_used,
    )


def _one_density(evaluator: HusimiEvaluator, factor_of_log, join, spec: QuadratureSpec,
                 what: str) -> IntegralResult:
    """Integral of Q * factor_of_log(ln Q); an auto-routed product splits into its factors."""
    if isinstance(evaluator, ProductHusimi) and spec.strategy == "auto":
        return join(_one_density(evaluator.factor_a, factor_of_log, join, spec, what),
                    _one_density(evaluator.factor_b, factor_of_log, join, spec, what))
    return _integrate(evaluator, None, factor_of_log, spec, what)


def entropy_functional(evaluator: HusimiEvaluator,
                       spec: QuadratureSpec | None = None) -> IntegralResult:
    """- integral of Q ln Q over phase space."""
    return _one_density(evaluator, _entropy_factor, _add_entropies,
                        spec or QuadratureSpec(), "entropy functional")


def normalization(evaluator: HusimiEvaluator,
                  spec: QuadratureSpec | None = None) -> IntegralResult:
    """Integral of Q over phase space; one for any valid density."""
    return _one_density(evaluator, _unit_factor, _multiply_masses,
                        spec or QuadratureSpec(), "normalization")


def integrate(f, spec: QuadratureSpec | None = None, *, dim: int = 2,
              envelope=None) -> IntegralResult:
    """Integral of a plain callable against the phase-space measure.

    ``f`` maps an (m, dim) array of phase-space points to m values and
    must contain every density factor itself.  ``envelope`` is the
    (sigma, mean) whitening hint for the Gauss-Hermite grid; the default
    is the vacuum envelope (unit covariance at the origin), under which
    integrating the vacuum Gaussian exp(-|r|^2 / 2) returns the measure
    normalization 1.  Integrands decaying slower than the envelope need
    an explicit, wider one.
    """
    spec = spec or QuadratureSpec()
    if dim < 1:
        raise ValueError("dim must be at least 1")
    if envelope is None:
        envelope = (np.eye(dim), np.zeros(dim))

    def pair_pts(pts):
        vals = np.asarray(f(pts), dtype=float)
        if vals.shape != (pts.shape[0],):
            raise DimensionMismatch(
                f"integrand returned shape {vals.shape} for {pts.shape[0]} points"
            )
        return np.zeros(vals.shape), vals

    return _run_cartesian(dim, envelope, pair_pts, spec, "integral")


def relative_entropy(rho: HusimiEvaluator, sigma: HusimiEvaluator,
                     spec: QuadratureSpec | None = None) -> IntegralResult:
    """Integral of Q_rho (ln Q_rho - ln Q_sigma) over phase space.

    Raises SupportViolation when some node carries appreciable Q_rho mass
    (above 1e-12) while Q_sigma has already underflowed (below 1e-300):
    there the integrand is effectively pinned to a cutoff and the finite
    number returned would be meaningless.
    """
    spec = spec or QuadratureSpec()
    if rho.dim != sigma.dim:
        raise DimensionMismatch(
            f"densities live on {rho.dim} and {sigma.dim} coordinates"
        )
    return _integrate(rho, sigma, _log_factor, spec, "relative entropy")


def _line(density: PositionDensity, factor_of_log, spec: QuadratureSpec | None,
          what: str) -> IntegralResult:
    def pair_x(x):
        logf = density.log_f(x)
        return logf, factor_of_log(logf)

    return _run_1d(pair_x, density.position_gamma_shape, density.position_rate,
                   spec or QuadratureSpec(), what, radial=False,
                   breakpoints=density.breakpoints,
                   tail_log_margin=density.position_tail_log_margin)


def density_entropy_1d(density: PositionDensity,
                       spec: QuadratureSpec | None = None) -> IntegralResult:
    """Differential entropy - integral of f ln f dx of an even line density."""
    return _line(density, _entropy_factor, spec, "line entropy")


def density_normalization_1d(density: PositionDensity,
                             spec: QuadratureSpec | None = None) -> IntegralResult:
    """Integral of an even line density f dx; one when normalized."""
    return _line(density, _unit_factor, spec, "line normalization")
