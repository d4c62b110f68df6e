"""Numerical integration engine for phase-space and line densities.

Every analytic value in the package can be cross-checked here.  One
routing function picks a coordinate system from the ``kind`` each density
declares (radial, two radii with the angle averaged exactly, whitened
cartesian),
runs a deterministic composite rule, then doubles the resolution and
compares.
The difference between the two finest levels is the reported error
estimate; if it misses the tolerance after the allowed escalations the
engine raises instead of returning a number it cannot defend.

Conventions: phase-space measure ``d^n x d^n p / (2 pi)^n``, line
measure ``dx``.  Densities enter through log values, and one kernel,
``_node_terms``, turns them into the integrand at every node of every
runner: points where the mass is below 1e-300 contribute exactly zero.
"""

from __future__ import annotations

import functools
import logging
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
# roots_hermite imports scipy.linalg on its first call (about 45 ms on 2
# cores); importing it with the engine keeps that cost in start-up instead
# of in the first cartesian integral.
import scipy.linalg  # noqa: F401
from numpy.polynomial.legendre import leggauss
from scipy.special import gammainccinv, roots_hermite

from .errors import DimensionMismatch, SupportViolation, ToleranceNotReached
from .husimi import LOG_TINY, HusimiEvaluator, PositionDensity, ProductHusimi

_log = logging.getLogger(__name__)

# Proxy threshold: a state "has mass" at a point when Q exceeds this.
LOG_SUPPORT = math.log(1e-12)
# A reference density's log is clamped here, so nodes where it has
# underflowed give a large finite log instead of -inf.
_LOG_FLOOR = 2.0 * LOG_TINY

_PANEL_NODES = 16
_GL_NODES, _GL_WEIGHTS = leggauss(_PANEL_NODES)

# Most nodes one refinement level may hold.  Every runner lays out a level
# before it evaluates it, and a level over the budget is refused: with
# four-fold (triangle) or 2^dim-fold (cartesian) growth per level, one
# more level can cost minutes and gigabytes.
_MAX_LEVEL_NODES = 10**8
# Whitened by its own envelope, an all-"gaussian" integrand is the Hermite
# weight times a quadratic, which two nodes per axis integrate exactly.
# The base level uses four, with margin; the next, at eight, backs it with
# the usual two-level estimate.
_GAUSSIAN_NODES_PER_DIM = 4

_STRATEGIES = ("auto", "tensor-cartesian")


@dataclass(frozen=True)
class QuadratureSpec:
    """Resolution and tolerance knobs for the integration engine.

    ``strategy`` is "auto", which routes each integral by the ``kind`` of
    its densities, or "tensor-cartesian", which puts every integral,
    products unsplit, on the whitened Gauss-Hermite rule: an independent
    cross-check of the radial and "noon" runners.
    ``radial_nodes`` counts nodes along a radial or line coordinate (the
    "noon" triangle starts at half of them in r_A and a quarter in the
    ratio r_B / r_A), and ``cartesian_nodes_per_dim`` the Gauss-Hermite
    order per axis, capped at four when every density of the integral is
    "gaussian" (exact there).  No runner samples an angle: the one angle
    a runner meets, the phase difference of a "noon" density, is averaged
    in closed form.  The engine always computes one refinement (all counts
    doubled) to get an error estimate, then up to ``max_escalations``
    further doublings; it stops early, with ToleranceNotReached, before a
    level of more than 10^8 nodes.
    ``radial_cutoff`` of None means the cutoff is solved from the
    integrand's Gamma-type tail; a given cutoff must be positive and
    finite, and both tolerances positive and finite, or ValueError is
    raised.  ``parallelism`` > 1 maps the chunks of a cartesian level
    over a thread pool; ``math.fsum`` adds the chunk sums exactly rounded,
    so the value does not depend on the worker count.
    """

    strategy: str = "auto"
    radial_nodes: int = 400
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
        if self.cartesian_nodes_per_dim < 2:
            raise ValueError("cartesian_nodes_per_dim must be at least 2")
        if not (0 < self.abs_tol < math.inf and 0 < self.rel_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if self.radial_cutoff is not None and not 0 < self.radial_cutoff < math.inf:
            raise ValueError("radial_cutoff must be None or positive and finite")
        if self.max_escalations < 0:
            raise ValueError("max_escalations must be nonnegative")
        if self.parallelism < 1:
            raise ValueError("parallelism must be at least 1")


@dataclass(frozen=True)
class IntegralResult:
    """Value plus the two-level error estimate that backed it.

    ``error_estimate`` is the difference between the two finest levels.
    It leaves out the truncation at the radial cutoff, so it can be
    smaller than the true error.  ``nodes_used`` counts the nodes
    evaluated over all levels; on the "noon" triangle a node is one pair
    of radii, its angle averaged exactly.  Results combine with ``+`` and
    ``-``: values add or subtract, estimates and node counts always add.
    """

    value: float
    error_estimate: float
    nodes_used: int

    def __add__(self, other: "IntegralResult") -> "IntegralResult":
        return IntegralResult(self.value + other.value,
                              self.error_estimate + other.error_estimate,
                              self.nodes_used + other.nodes_used)

    def __sub__(self, other: "IntegralResult") -> "IntegralResult":
        return self + replace(other, value=-other.value)


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


def _panel_nodes(a: float, b: float, n_nodes: int, breakpoints=(), graded: bool = False):
    """Composite Gauss-Legendre nodes on [a, b] with panel edges at breakpoints.

    About ``n_nodes`` nodes, ``_PANEL_NODES`` a panel, with panels shared
    out between the breakpoint segments by length.  With ``graded`` every
    panel [lo, lo + h] is mapped through phi(u) = u^2 (3 - 2u) on [0, 1]
    (Sidi's sigmoidal transformation of degree one): the nodes are
    lo + h phi(u) and the weights (h / 2) w 6u(1 - u) at the Gauss-Legendre
    points u and weights w of [0, 1].  Nodes then cluster at both panel
    ends, where the map turns a (x - x0)^2 ln|x - x0| singularity into
    about u^5 ln u: the plain rule gains only about a factor eight a
    doubling on such a panel, the graded one far more.
    """
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
    if graded:
        u = 0.5 * (_GL_NODES + 1.0)
        width = (highs - lows)[:, None]
        x = (lows[:, None] + width * (u * u * (3.0 - 2.0 * u))[None, :]).ravel()
        w = (0.5 * width * (_GL_WEIGHTS * 6.0 * u * (1.0 - u))[None, :]).ravel()
        return x, w
    half = 0.5 * (highs - lows)
    mid = 0.5 * (highs + lows)
    x = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return x, w


def _escalated(layout, base, grow, spec: QuadratureSpec, what: str) -> IntegralResult:
    """Run doubling resolutions until two levels agree.

    ``layout(level)`` returns the number of nodes of that level and a
    callable that evaluates it.  A level is refused before it runs when it
    holds more than ``_MAX_LEVEL_NODES`` nodes, or when ``grow`` returns
    the level unchanged because the rule has no finer one; the refusal is
    logged at INFO and raised as ToleranceNotReached ("node ceiling")
    carrying the result of the last level run (None when the base level
    is refused).  Each level that runs is logged at DEBUG with its
    resolution, nodes, value and seconds.
    """
    result = None
    refinements = 0
    level = base
    while True:
        nodes, run = layout(level)
        if nodes > _MAX_LEVEL_NODES:
            _log.info("%s: level %s needs %d nodes, over the budget of %d per level",
                      what, level, nodes, _MAX_LEVEL_NODES)
            break
        start = time.perf_counter()
        value = float(run())
        _log.debug("%s: level %s, %d nodes, value %.17g, %.6f s",
                   what, level, nodes, value, time.perf_counter() - start)
        if result is None:
            result = IntegralResult(value, math.inf, nodes)
        else:
            err = abs(value - result.value)
            result = IntegralResult(value, err, result.nodes_used + nodes)
            if err <= max(spec.abs_tol, spec.rel_tol * abs(value)):
                return result
            refinements += 1
            if refinements > spec.max_escalations:
                raise ToleranceNotReached(
                    f"{what}: refinement stalled at error {err:.3e} "
                    f"(abs_tol={spec.abs_tol:.1e}, rel_tol={spec.rel_tol:.1e})",
                    result=result,
                )
        level_next = grow(level)
        if level_next == level:
            _log.info("%s: level %s is the finest this rule allows", what, level)
            break
        level = level_next
    err = math.inf if result is None else result.error_estimate
    raise ToleranceNotReached(
        f"{what}: node ceiling reached at error {err:.3e} "
        f"(abs_tol={spec.abs_tol:.1e}, rel_tol={spec.rel_tol:.1e})",
        result=result,
    )


def _node_terms(log_mass, log_factor, factor_of_log, reference=None, log_weight=None, *,
                out=None):
    """Q (factor_of_log(ln Q) - ln S) at each node: the one integrand rule.

    ``log_mass`` holds the log of the mass Q at the nodes and
    ``log_factor`` the log that enters the factor; they are the same
    array (ln Q) except on the "noon" triangle, where they are ln <Q> and
    <Q ln Q> / <Q> of the exact angle average.  ``log_factor`` is
    overwritten, and so is ``log_mass`` when ``out`` is it.  ``reference``
    is None or the pair (ln S clamped at ``_LOG_FLOOR``, index of the
    nodes where S underflows); SupportViolation is raised as soon as Q
    keeps mass above 1e-12 at one of those nodes.  ``log_weight``
    (cartesian rule) joins the mass before the exponential, so the mass
    Q * weight decides the underflow; such nodes give exact zeros.
    ``out`` (may be ``log_weight`` itself) buffers the result.
    """
    if reference is not None:
        logs, under = reference
        if under.size and np.any(log_mass[under] > LOG_SUPPORT):
            raise SupportViolation(
                "first density keeps mass where the second has none; "
                "the relative entropy diverges at this resolution"
            )
    mass = log_mass if log_weight is None else np.add(log_mass, log_weight, out=out)
    dead = mass <= LOG_TINY
    terms = np.exp(mass, out=out)
    np.copyto(terms, 0.0, where=dead)
    # A zero log where the mass underflows keeps the factor finite there.
    np.copyto(log_factor, 0.0, where=dead)
    factor = factor_of_log(log_factor, out=log_factor)
    if reference is not None:
        factor = np.subtract(factor, logs, out=log_factor)
    return np.multiply(terms, factor, out=terms)


def _density_terms(log_q, log_s, factor_of_log, nodes, log_weight=None):
    """``_node_terms`` of ``log_q`` against ``log_s`` (or None), ln Q evaluated first."""
    logq = log_q(nodes)
    reference = None
    if log_s is not None:
        logs = log_s(nodes)
        under = np.flatnonzero(logs < LOG_TINY)
        reference = np.maximum(logs, _LOG_FLOOR, out=logs), under
    return _node_terms(logq, logq, factor_of_log, reference, log_weight, out=log_weight)


# ---------------------------------------------------------------------------
# Coordinate-system runners.  Each lays out nodes and weights, gets the
# integrand at the nodes from ``_node_terms`` and reduces against the
# phase-space measure (the line measure for line densities).
# ---------------------------------------------------------------------------


def _run_1d(terms, shape, rate, spec: QuadratureSpec, what: str, *, radial: bool,
            breakpoints=(), tail_log_margin: float = 0.0) -> IntegralResult:
    """Composite Gauss-Legendre rule on [0, cutoff].

    With ``radial`` the coordinate is a phase-space radius and carries
    the Jacobian r; otherwise it is the half line of an even line
    density, whose integral is twice that over [0, cutoff].  ``terms``
    maps the nodes to the integrand there.  ``breakpoints`` are the zeros
    of a line density: they become panel edges (x = 0 already is one),
    and when there is any, every panel is graded (see ``_panel_nodes``),
    because ln f is singular at each zero.  ``tail_log_margin`` shrinks
    the cutoff's tail-mass target for tails that outrun the plain Gamma
    envelope.
    """
    cutoff = spec.radial_cutoff
    if cutoff is None:
        mass = max(_tail_mass(spec) * math.exp(-min(tail_log_margin, 600.0)), 1e-280)
        cutoff = gamma_tail_threshold(shape, rate, mass)
    pos_breaks = tuple(abs(b) for b in breakpoints if abs(b) > 0.0)
    graded = len(breakpoints) > 0

    def layout(n):
        x, w = _panel_nodes(0.0, cutoff, n, breakpoints=pos_breaks, graded=graded)
        if radial:
            return x.size, lambda: np.dot(w, terms(x) * x)
        return x.size, lambda: 2.0 * float(np.dot(w, terms(x)))

    return _escalated(layout, spec.radial_nodes, lambda n: 2 * n, spec, what)


def _run_triangle(evaluator, reference, factor_of_log, spec: QuadratureSpec,
                  what: str) -> IntegralResult:
    """Two radii, with the phase difference of a "noon" density averaged exactly.

    Every functional the engine integrates is affine in ln Q, so the
    angle enters only through the evaluator's ``angle_averaged_logs``:
    ln <Q> sets the mass and <Q ln Q> / <Q> enters the factor.  By the
    exchange symmetry only the triangle r_B <= r_A is integrated, at
    weight two, as r_A = r and r_B = s r with composite Gauss-Legendre
    rules in r on [0, cutoff] and in s on [0, 1]; the Jacobian makes the
    weight 2 r^3 s, an outer product of the two axes, and the evaluator
    gets the axes, not the nodes.  The s panels are graded (see
    ``_panel_nodes``): a reference factor vanishing at r = 0 puts
    s ln s into ln S at s = 0.  The reference, a product of two radial
    factors, need not be symmetric: it enters through the mean of its
    clamped log at (r_A, r_B) and at (r_B, r_A); when both factors are
    one evaluator the two orders coincide, and ln S is evaluated once.
    Each level doubles both axes.
    """
    cutoff = spec.radial_cutoff
    if cutoff is None:
        cutoff = gamma_tail_threshold(
            evaluator.radial_gamma_shape + 1.0, evaluator.radial_rate, _tail_mass(spec)
        )

    def reference_logs(r, s):
        r_b = np.outer(r, s)
        log_a, log_b = reference.factor_a.log_q_radial, reference.factor_b.log_q_radial
        logs = log_a(r)[:, None] + log_b(r_b)
        if reference.factor_a is reference.factor_b:
            under = np.flatnonzero(logs < LOG_TINY)
            np.maximum(logs, _LOG_FLOOR, out=logs)
        else:
            logs_ba = log_a(r_b) + log_b(r)[:, None]
            under = np.flatnonzero((logs < LOG_TINY) | (logs_ba < LOG_TINY))
            logs = 0.5 * (np.maximum(logs, _LOG_FLOOR) + np.maximum(logs_ba, _LOG_FLOOR))
        return logs.ravel(), under

    def layout(level):
        r, wr = _panel_nodes(0.0, cutoff, level[0])
        s, ws = _panel_nodes(0.0, 1.0, level[1], graded=True)

        def run():
            log_mass, log_factor = evaluator.angle_averaged_logs(r, s)
            logs = None if reference is None else reference_logs(r, s)
            terms = _node_terms(log_mass.ravel(), log_factor.ravel(), factor_of_log, logs)
            weight = np.outer(2.0 * wr * r**3, ws * s).ravel()
            return float(np.multiply(terms, weight, out=terms).sum())

        return r.size * s.size, run

    radial = max(2 * _PANEL_NODES, spec.radial_nodes // 2)
    base = (radial, max(2 * _PANEL_NODES, radial // 2))
    return _escalated(layout, base, lambda lv: (2 * lv[0], 2 * lv[1]), spec, what)


def _run_cartesian(dim, envelope, terms, nodes_per_dim, spec: QuadratureSpec,
                   what: str) -> IntegralResult:
    """Gauss-Hermite rule whitened by a Gaussian envelope (sigma, mean).

    The base level has ``nodes_per_dim`` nodes per axis:
    ``spec.cartesian_nodes_per_dim``, capped at four for an all-"gaussian"
    integral.  Per-dimension log-weights are carried as ln(w) + t^2, which
    stays bounded, so the reweighting never overflows.  Node counts per
    axis are capped at 384, where the weight computation itself stays
    stable, and escalation also stops at the node budget of
    ``_escalated``.  ``terms(pts, log_weight)`` maps the points and their
    summed log-weights to the weighted integrand there.
    """
    sigma, mean = envelope
    sigma = np.asarray(sigma, dtype=float)
    mean = np.asarray(mean, dtype=float)
    chol = np.linalg.cholesky(sigma)
    log_pref = float(np.sum(np.log(np.diag(chol)))) - 0.5 * dim * math.log(math.pi)
    scale = math.sqrt(2.0) * chol

    def run(m):
        t, w = roots_hermite(m)
        lw = np.log(w) + t * t
        rest = m ** (dim - 1)
        chunk_len = max(1, 500_000 // rest)
        starts = range(0, m, chunk_len)

        def do_chunk(start):
            stop = min(start + chunk_len, m)
            grid = np.meshgrid(t[start:stop], *[t] * (dim - 1), indexing="ij")
            pts = np.stack(grid, axis=-1).reshape(-1, dim) @ scale.T
            pts += mean
            # Summed from 0.0, first axis first, as a fresh array.
            lw_sum = functools.reduce(np.add.outer, [lw[start:stop]] + [lw] * (dim - 1), 0.0)
            return float(np.sum(terms(pts, lw_sum.reshape(-1))))

        parts = _map_chunks(do_chunk, starts, spec.parallelism)
        return math.exp(log_pref) * math.fsum(parts)

    layout = lambda m: (m**dim, functools.partial(run, m))
    grow = lambda m: min(2 * m, 384)
    return _escalated(layout, min(nodes_per_dim, 384), grow, spec, what)


# ---------------------------------------------------------------------------
# Routing: the one place that maps densities to a runner
# ---------------------------------------------------------------------------


def _integrate(evaluator: HusimiEvaluator, reference: HusimiEvaluator | None, factor_of_log,
               spec: QuadratureSpec, what: str) -> IntegralResult:
    """Integral of Q (factor_of_log(ln Q) - ln S) over phase space.

    Q is the density of ``evaluator`` and S that of ``reference``; without
    a reference the ln S term is dropped.  ``factor_of_log(logq, out=None)``
    returns a scalar or an array; it may write into ``out`` (which the
    kernel sets to ``logq`` itself) or return ``logq`` unchanged.  Every
    runner hands its nodes to one kernel, ``_node_terms``: it clamps
    ln S at twice the underflow log, and raises SupportViolation at the
    first level where some node carries appreciable Q mass (above 1e-12)
    while S has underflowed (below 1e-300), so a divergence is reported
    even when the tolerance would not have been reached either.

    The runner is picked here, and only here.  Capabilities come from
    ``kind`` alone: "radial" promises ``log_q_radial``,
    ``radial_gamma_shape`` and ``radial_rate``; "noon" promises an
    exchange-symmetric density with ``angle_averaged_logs(r, s)`` on the
    triangle axes r_A = r, r_B = s r and the same two tail parameters;
    "gaussian" promises that ln Q is exactly quadratic, with the
    covariance and mean ``gaussian_envelope`` returns, so a cartesian
    integral whose densities are all "gaussian" starts at no more than
    four nodes per axis.  The
    "auto" strategy is radial when every density is radial, the "noon"
    triangle when the evaluator is "noon" and the reference is absent or
    a product of two radial factors, cartesian otherwise;
    "tensor-cartesian" is always cartesian.
    """
    densities = (evaluator,) if reference is None else (evaluator, reference)
    auto = spec.strategy == "auto"
    if auto and all(d.kind == "radial" for d in densities):
        terms = functools.partial(_density_terms, evaluator.log_q_radial,
                                  None if reference is None else reference.log_q_radial,
                                  factor_of_log)
        return _run_1d(terms, max(d.radial_gamma_shape for d in densities),
                       min(d.radial_rate for d in densities), spec, what, radial=True)
    if auto and evaluator.kind == "noon" and (
        reference is None
        or (isinstance(reference, ProductHusimi)
            and reference.factor_a.kind == reference.factor_b.kind == "radial")
    ):
        return _run_triangle(evaluator, reference, factor_of_log, spec, what)
    nodes_per_dim = spec.cartesian_nodes_per_dim
    if all(d.kind == "gaussian" for d in densities):
        nodes_per_dim = min(nodes_per_dim, _GAUSSIAN_NODES_PER_DIM)
    envelope = evaluator.gaussian_envelope()
    terms = functools.partial(_density_terms, evaluator.log_q,
                              None if reference is None else reference.log_q, factor_of_log)
    return _run_cartesian(evaluator.dim, envelope, terms, nodes_per_dim, spec, what)


def _entropy_factor(logq, out=None):
    return np.negative(logq, out=out)


def _unit_factor(logq, out=None):
    return 1.0


def _log_factor(logq, out=None):
    return logq


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
    # Entropy is additive over independent factors.
    return _one_density(evaluator, _entropy_factor, IntegralResult.__add__,
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

    def terms(pts, log_weight):
        vals = np.asarray(f(pts), dtype=float)
        if vals.shape != (pts.shape[0],):
            raise DimensionMismatch(
                f"integrand returned shape {vals.shape} for {pts.shape[0]} points"
            )
        # ln Q = 0 and factor f: the kernel weighs f and zeroes underflowed weights.
        zeros = np.zeros(vals.shape)
        return _node_terms(zeros, zeros, lambda logq, out=None: vals,
                           log_weight=log_weight, out=log_weight)

    return _run_cartesian(dim, envelope, terms, spec.cartesian_nodes_per_dim, spec, "integral")


def relative_entropy(rho: HusimiEvaluator, sigma: HusimiEvaluator,
                     spec: QuadratureSpec | None = None) -> IntegralResult:
    """Integral of Q_rho (ln Q_rho - ln Q_sigma) over phase space.

    Raises SupportViolation when some node carries appreciable Q_rho mass
    (above 1e-12) while Q_sigma has already underflowed (below 1e-300):
    there the integrand is effectively pinned to a cutoff and the finite
    number returned would be meaningless.  It is raised at the first
    level that sees such a node, before that level is logged, and takes
    precedence over ToleranceNotReached.
    """
    spec = spec or QuadratureSpec()
    if rho.dim != sigma.dim:
        raise DimensionMismatch(
            f"densities live on {rho.dim} and {sigma.dim} coordinates"
        )
    return _integrate(rho, sigma, _log_factor, spec, "relative entropy")


def _line(density: PositionDensity, factor_of_log, spec: QuadratureSpec | None,
          what: str) -> IntegralResult:
    terms = functools.partial(_density_terms, density.log_f, None, factor_of_log)
    return _run_1d(terms, density.position_gamma_shape, density.position_rate,
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
