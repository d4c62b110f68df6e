"""Numerical integration engine for phase-space and line densities.

Every analytic value in the package can be cross-checked here.  One
routing function picks a coordinate system from the ``kind`` each density
declares (radial, the ratio of two radii with the radius and the angle
done exactly, whitened cartesian), runs a deterministic composite rule,
then doubles the resolution and compares.
The difference between the two finest levels is the reported error
estimate; if it misses the tolerance after the allowed escalations the
engine raises instead of returning a number it cannot defend.

Conventions: phase-space measure ``d^n x d^n p / (2 pi)^n``, line
measure ``dx``.  Densities enter through log values.  Every functional
is affine in ln Q, and every runner keeps one set of rules: points where
the mass is below 1e-300 contribute exactly zero, a reference's log is
clamped where it underflows, and mass where it underflows is a
divergence.  The 1D and cartesian runners apply them node by node
through one kernel, ``_node_terms``; a "noon" density meets a reference
only through its marginals, on the 1D runner.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.laguerre import laggauss
from numpy.polynomial.legendre import leggauss

from .errors import DimensionMismatch, SupportViolation, ToleranceNotReached
from .husimi import HusimiEvaluator, PositionDensity, ProductHusimi, _hermite_steps

_log = logging.getLogger(__name__)

# Densities below this are treated as exact zeros by entropy integrands.
LOG_TINY = math.log(1e-300)
# Proxy threshold: a state "has mass" at a point when Q exceeds this.
LOG_SUPPORT = math.log(1e-12)
# A reference density's log is clamped here, so nodes where it has
# underflowed give a large finite log instead of -inf.
_LOG_FLOOR = 2.0 * LOG_TINY

_PANEL_NODES = 16
_GL_NODES, _GL_WEIGHTS = leggauss(_PANEL_NODES)
# The graded panel map phi(u) = u^2 (3 - 2u) and its weights 6u(1 - u) w at
# the Gauss-Legendre points u of [0, 1] (see ``_unit_panels``).
_GL_UNIT = 0.5 * (_GL_NODES + 1.0)
_GRADED_NODES = _GL_UNIT * _GL_UNIT * (3.0 - 2.0 * _GL_UNIT)
_GRADED_WEIGHTS = _GL_WEIGHTS * 6.0 * _GL_UNIT * (1.0 - _GL_UNIT)

# Most nodes one refinement level may hold.  Every runner lays out a level
# before it evaluates it, and a level over the budget is refused: with
# 2^dim-fold (cartesian) growth per level, one more level can cost
# minutes and gigabytes.
_MAX_LEVEL_NODES = 10**8
# Most nodes one call of a stack's first levels may join (see
# ``_escalated``): enough members that the fixed cost of a numpy call is
# shared out, few enough that a chunk's arrays (the line kernel holds
# about a dozen) add under a megabyte to the peak memory of a sweep.
_STACK_CHUNK_NODES = 1 << 13
# Whitened by its own envelope, an all-"gaussian" integrand is the Hermite
# weight times a quadratic, which m-point Gauss-Hermite integrates exactly
# for 2m - 1 >= 2.  The base level uses two nodes per axis; the next, at
# four, is exact too and backs it with the usual two-level estimate.
_GAUSSIAN_NODES_PER_DIM = 2


@dataclass(frozen=True)
class QuadratureSpec:
    """Resolution and tolerance knobs for the integration engine.

    No field picks a runner: the densities' ``kind`` does (see
    ``_integrate``).  ``radial_nodes`` counts nodes along a radial or
    line coordinate, or along the ratio s = r_B / r_A of a "noon"
    density, and ``cartesian_nodes_per_dim`` the Gauss-Hermite order per
    axis, capped at two when every density of the integral is "gaussian"
    (exact there).  No runner samples an angle: the one angle a runner
    meets, the phase difference of a "noon" density, is averaged in
    closed form.  The engine always computes one refinement (all counts
    doubled) to get an error estimate, then up to ``max_escalations``
    further doublings; it stops early, with ToleranceNotReached, before a
    level of more than 10^8 nodes.
    No field sets a cutoff either: each runner solves its own from the
    integrand's Gamma-type tail, at a tail mass of 1e-18 whatever the
    tolerance, so the truncation lies below rounding.
    A thermal phase-space integral without a reference ignores
    ``radial_nodes`` and has no cutoff: its ln Q is affine in r^2, and
    2- and 4-point Gauss-Laguerre rules integrate it exactly (see
    ``_run_1d``); nor has a "noon" integral, whose radius is integrated
    in closed form.
    Both tolerances must be positive and finite, or ValueError is raised.
    ``parallelism`` > 1 maps the chunks of a cartesian level over a
    thread pool; ``math.fsum`` adds the chunk sums exactly rounded, so the
    value does not depend on the worker count.
    """

    radial_nodes: int = 400
    cartesian_nodes_per_dim: int = 24
    abs_tol: float = 1e-8
    rel_tol: float = 1e-8
    max_escalations: int = 3
    parallelism: int = 1

    def __post_init__(self):
        if self.radial_nodes < _PANEL_NODES:
            raise ValueError(f"radial_nodes must be at least {_PANEL_NODES}")
        if self.cartesian_nodes_per_dim < 2:
            raise ValueError("cartesian_nodes_per_dim must be at least 2")
        if not (0 < self.abs_tol < math.inf and 0 < self.rel_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if self.max_escalations < 0:
            raise ValueError("max_escalations must be nonnegative")
        if self.parallelism < 1:
            raise ValueError("parallelism must be at least 1")


@dataclass(frozen=True)
class IntegralResult:
    """Value plus the two-level error estimate that backed it.

    ``error_estimate`` is the difference between the two finest levels.
    Every cutoff leaves a tail of at most 1e-18 of the mass (see
    ``_TAIL_MASS``), below rounding, so the estimate has no truncation to
    leave out; a thermal phase-space integral, exact on Gauss-Laguerre
    nodes, and a "noon" density's s-rule on [0, 1] have no cutoff at all.
    ``nodes_used`` counts the nodes evaluated
    over all levels; on a "noon" density's s-rule a node is one ratio of
    the two radii, its radius and angle integrated exactly.  Results
    combine with ``+`` and ``-``: values add or subtract, estimates and
    node counts always add.
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


# The Gamma-tail mass every cutoff leaves out, whatever the tolerance:
# below rounding, so a two-level estimate needs no truncation term.
_TAIL_MASS = 1e-18


@functools.lru_cache(maxsize=None)
def _gamma_tail_inverse(a: int, tail_mass: float) -> float:
    """x with Q(a, x) = e^-x sum_{k<a} x^k / k! equal to ``tail_mass``, a >= 1.

    Newton steps on ln Q, which is concave and decreasing in x, so from a
    start right of the root every step stays right of it and moves left.
    The start 2 (a ln 2 - ln p) is right of the root by the Chernoff
    bound Q(a, x) <= 2^a e^(-x/2).  The sum is taken relative to its last
    term, x^(a-1) / (a-1)!, which keeps it finite for any a and makes
    -1 / (that ratio) the derivative of ln Q.  Its terms, from k = a - 1
    down, grow while k > x and then shrink, so it stops at the first term
    that leaves the sum unchanged: every later one is smaller and would
    leave it unchanged too.
    """
    log_p = math.log(tail_mass)
    log_last = -math.lgamma(a)
    x = 2.0 * (a * math.log(2.0) - log_p)
    for _ in range(100):
        ratio = term = 1.0
        for k in range(a - 1, 0, -1):
            term *= k / x
            if ratio + term == ratio:
                break
            ratio += term
        log_q = -x + (a - 1) * math.log(x) + log_last + math.log(ratio)
        step = (log_q - log_p) * ratio
        x += step
        if abs(step) <= 1e-15 * x:
            break
    return x


def gamma_tail_threshold(shape: float, rate: float, tail_mass: float) -> float:
    """Radius beyond which a Gamma-enveloped integrand is negligible.

    For integrands bounded by r^(2 shape) exp(-rate r^2 / 2) times slowly
    varying factors, returns R such that the mass beyond R is below
    ``tail_mass`` relative to the whole.  The shape is padded by two to
    absorb the radial Jacobian and logarithmic entropy factors.  Every
    density's shape is a whole number (a Fock or NOON index, 0 for a
    thermal or Gaussian state, the largest of a mixture's), so the tail
    is inverted in closed form there; a shape that is not a nonnegative
    integer raises ValueError, as do a rate that is not positive and a
    tail mass outside (0, 1).
    """
    if rate <= 0:
        raise ValueError("tail rate must be positive")
    if not 0.0 < tail_mass < 1.0:
        raise ValueError("tail mass must lie in (0, 1)")
    if not float(shape).is_integer() or shape < 0:
        raise ValueError(f"Gamma shape {shape!r} is not a nonnegative integer")
    s = _gamma_tail_inverse(int(shape) + 2, float(tail_mass))
    return math.sqrt(2.0 * s / rate)


@functools.lru_cache(maxsize=None)
def _hermite_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes t and log-weights ln(w) + t^2 of order m, read-only.

    The nodes are the eigenvalues of the Jacobi matrix (Golub & Welsch,
    Math. Comp. 23, 1969), polished by Newton steps on the orthonormal
    polynomial p_m, whose derivative is sqrt(2m) p_(m-1), then made
    symmetric.  The weights come from the Christoffel function,
    1 / w = sum_{k<m} p_k(t)^2, carried through the Hermite functions
    phi_k = p_k e^(-t^2 / 2): ln(w) + t^2 = -ln sum_{k<m} phi_k(t)^2,
    which stays finite where w itself is subnormal.
    """
    # Newton starts from the eigenvalues of the m-point Jacobi matrix, not
    # from ``_hermite_zeros``: its exactly mirrored start would move the
    # last bit of most rules, and with them the cartesian results.
    t = np.linalg.eigvalsh(np.diag(np.sqrt(0.5 * np.arange(1, m)), -1))

    def hermite_functions(t):
        # phi_0 .. phi_m at t, copied out of the recurrence's reused buffers.
        return [phi.copy() for phi in _hermite_steps(m, t, math.pi ** -0.25 * np.exp(-0.5 * t * t))]

    for _ in range(2):
        phis = hermite_functions(t)
        t = t - phis[m] / (math.sqrt(2.0 * m) * phis[m - 1])
    t = 0.5 * (t - t[::-1])
    phis = hermite_functions(t)
    lw = -np.log(functools.reduce(np.add, (phi * phi for phi in phis[:m])))
    t.flags.writeable = False
    lw.flags.writeable = False
    return t, lw


@functools.lru_cache(maxsize=None)
def _unit_panels(k: int, graded: bool) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of k equal ``_PANEL_NODES``-point panels on [0, 1], read-only.

    The panel ends are i / k; a plain panel is the Gauss-Legendre rule
    about its midpoint.  A graded panel [lo, lo + h] is the rule mapped
    through phi(u) = u^2 (3 - 2u) on [0, 1] (Sidi's sigmoidal
    transformation of degree one): its nodes are lo + h phi(u) and its
    weights (h / 2) w 6u(1 - u) at the Gauss-Legendre points u and
    weights w of [0, 1].  Nodes then cluster at both panel ends, where
    the map turns a (x - x0)^2 ln|x - x0| singularity into about
    u^5 ln u: the plain rule gains only about a factor eight a doubling
    on such a panel, the graded one far more.  Every layout of
    ``_run_1d`` scales one of these, and a [0, 1] layout (the s-rule of
    a "noon" density) is one of them itself.
    """
    ends = np.arange(k + 1) * (1.0 / k)
    lows, highs = ends[:-1, None], ends[1:, None]
    if graded:
        width = highs - lows
        x = lows + width * _GRADED_NODES
        w = 0.5 * width * _GRADED_WEIGHTS
    else:
        half = 0.5 * (highs - lows)
        x = 0.5 * (highs + lows) + half * _GL_NODES
        w = half * _GL_WEIGHTS
    x, w = x.ravel(), w.ravel()
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _columns(sizes) -> tuple[slice, ...]:
    """The columns of each level in a call that joins levels of ``sizes`` nodes."""
    ends = list(itertools.accumulate(sizes, initial=0))
    return tuple(slice(lo, hi) for lo, hi in zip(ends[:-1], ends[1:]))


class _Segments:
    """A composite rule on [a, b] with panel edges at breakpoints, shared out once for every level.

    ``inner`` holds the sorted breakpoints inside (a, b).  The base level
    has ``n_panels`` panels shared out between the segments by length: a
    segment [lo, hi] gets k = max(1, round(n_panels (hi - lo) / (b - a)))
    equal panels, and level j has 2^j k.  So each doubling halves every
    panel: sharing out twice the nodes instead would leave a short
    segment at its one panel, and two levels that agree there would hide
    its error from the estimate.  A segment's nodes are lo + (hi - lo) x
    and its weights (hi - lo) w, with x and w the cached rule
    ``_unit_panels(k, graded)`` on [0, 1].  ``layout`` lays out levels in
    one pass over the segments; a call is the ``axes`` of ``_run_1d``,
    which lays out the levels of one runner call, joined, and keeps
    nothing: a stack holds the layouts of one chunk at a time.
    """

    def __init__(self, a: float, b: float, inner, n_panels: int, graded: bool):
        edges = [a, *inner, b]
        spans = [hi - lo for lo, hi in zip(edges[:-1], edges[1:])]
        self.counts = [max(1, round(n_panels * span / (b - a))) for span in spans]
        self.lows = np.array(edges[:-1])
        self.spans = np.array(spans)
        self.graded = graded

    def layout(self, *doublings):
        """(x, w) of the levels ``doublings`` in turn, laid out as one array pair."""
        counts = [k << j for j in doublings for k in self.counts]
        xs, ws = zip(*[_unit_panels(k, self.graded) for k in counts])
        repeats = [k * _PANEL_NODES for k in counts]
        span = np.concatenate([self.spans] * len(doublings)).repeat(repeats)
        x = np.concatenate(xs)
        w = np.concatenate(ws)
        x *= span
        x += np.concatenate([self.lows] * len(doublings)).repeat(repeats)
        w *= span
        return x, w

    def __call__(self, levels):
        sizes = [_PANEL_NODES * (sum(self.counts) << j) for j in levels]
        return sizes, sizes, (*self.layout(*levels), _columns(sizes))


def _escalated(layouts, evaluate, base, grow, spec: QuadratureSpec,
               what: str) -> list[IntegralResult]:
    """Run doubling resolutions until two levels agree: the one refinement driver.

    It runs a stack of integrals that share one rule, one member per
    entry of ``layouts``: a member's ``axes(levels)`` lays out the levels
    of one call, a tuple, and returns the resolution of each (nodes per
    axis, or a tuple of them), the nodes of each and the call's grid, and
    ``grow`` steps the requested level.  Consecutive members may share
    one ``axes``, whose first levels are then laid out once for all of
    them.  ``evaluate(calls)`` takes a list of calls (member, grid, node
    count) and returns one row of values a call, one Python float a
    level.

    Every integral runs its base level and the first doubling, so the
    two go to one call when ``grow`` gives a finer level and that level
    fits ``_MAX_LEVEL_NODES``; otherwise the base level runs alone, in a
    call of its own.  The paired first calls of consecutive members join
    into one ``evaluate`` of at most ``_STACK_CHUNK_NODES`` nodes (a
    member over it has one of its own), which settles every member of
    the chunk whose two levels agree.  A member whose two levels disagree
    then runs each later level in a call of its own (see ``refine``),
    before the next member of the chunk.  A level of more than
    ``_MAX_LEVEL_NODES`` nodes is refused before it is evaluated, and so
    is a level past the finest, where ``grow`` returns the level
    unchanged (the second of the 1D runner's exact rule, see
    ``_run_1d``); the refusal is logged at INFO and raised as
    ToleranceNotReached ("node ceiling") carrying the result of the last
    level run (None when the base level is refused).  Each level that runs is
    logged at DEBUG with its laid-out resolution, nodes, value and the
    seconds of its call; the seconds of a joint call are logged with
    each member's base level, and the doubled level logs 0.  Returns one
    result a member, in order; the first failure met is raised as it
    happens.
    """
    debug = _log.isEnabledFor(logging.DEBUG)

    def refine(i, level, resolution, result, refinements):
        # The levels of member i after ``level``, one call each.
        while grow(level) != level:
            level = grow(level)
            (resolution,), (nodes,), grid = layouts[i]((level,))
            if nodes > _MAX_LEVEL_NODES:
                _log.info("%s: level %s needs %d nodes, over the budget of %d per level",
                          what, resolution, nodes, _MAX_LEVEL_NODES)
                break
            start = time.perf_counter()
            (value,), = evaluate([(i, grid, nodes)])
            _log.debug("%s: level %s, %d nodes, value %.17g, %.6f s",
                       what, resolution, nodes, value, time.perf_counter() - start)
            err = abs(value - result.value)
            result = IntegralResult(value, err, result.nodes_used + nodes)
            if _settled(err, value, spec):
                return result
            refinements += 1
            if refinements > spec.max_escalations:
                raise _stalled(result, spec, what)
        else:
            _log.info("%s: level %s is the finest this rule allows", what, resolution)
        raise _ceiling(result, spec, what)

    results = []
    for calls, first_levels in _joined(layouts, base, grow(base), spec, what):
        start = time.perf_counter()
        rows = evaluate(calls)
        seconds = time.perf_counter() - start
        for (i, _, nodes), levels, row in zip(calls, first_levels, rows):
            if debug:
                for (_, resolution, level_nodes), value, s in zip(levels, row, (seconds, 0.0)):
                    _log.debug("%s: level %s, %d nodes, value %.17g, %.6f s",
                               what, resolution, level_nodes, value, s)
            level, resolution, _ = levels[-1]
            if len(row) == 1:
                result = refine(i, level, resolution, IntegralResult(row[0], math.inf, nodes), 0)
            else:
                err = abs(row[1] - row[0])
                result = IntegralResult(row[1], err, nodes)
                if not _settled(err, row[1], spec):
                    if spec.max_escalations < 1:
                        raise _stalled(result, spec, what)
                    result = refine(i, level, resolution, result, 1)
            results.append(result)
    return results


def _joined(layouts, base, finer, spec: QuadratureSpec, what: str):
    """The first calls of the members of ``layouts``, joined in order into chunks.

    A first call is (member, grid, nodes), one ``axes`` call of the base
    level and, when ``finer`` differs and fits the budget, the doubling,
    with the (level, resolution, nodes) of each; consecutive members on
    one ``axes`` share it.  A chunk is its calls and their levels; it
    holds the paired first calls of consecutive members, at most
    ``_STACK_CHUNK_NODES`` nodes or one member, and a lone base level is
    a chunk of its own.  A base level over the budget is refused here; a
    doubling over it is left out, for ``refine`` to refuse, and the base
    level is then laid out alone.
    """
    calls, first_levels, size, last = [], [], 0, None
    for i, axes in enumerate(layouts):
        if axes is not last:
            last, levels = axes, ((base,) if finer == base else (base, finer))
            resolutions, counts, grid = axes(levels)
            if counts[0] > _MAX_LEVEL_NODES:
                _log.info("%s: level %s needs %d nodes, over the budget of %d per level",
                          what, resolutions[0], counts[0], _MAX_LEVEL_NODES)
                raise _ceiling(None, spec, what)
            if counts[-1] > _MAX_LEVEL_NODES:
                levels = (base,)
                resolutions, counts, grid = axes(levels)
            levels, nodes = list(zip(levels, resolutions, counts)), sum(counts)
        if calls and (len(levels) == 1 or size + nodes > _STACK_CHUNK_NODES):
            yield calls, first_levels
            calls, first_levels, size = [], [], 0
        calls.append((i, grid, nodes))
        first_levels.append(levels)
        size += nodes
        if len(levels) == 1:
            yield calls, first_levels
            calls, first_levels, size = [], [], 0
    if calls:
        yield calls, first_levels


def _settled(err: float, value: float, spec: QuadratureSpec) -> bool:
    """Whether two levels ``err`` apart settle ``value`` within the tolerances."""
    return err <= max(spec.abs_tol, spec.rel_tol * abs(value))


def _stalled(result: IntegralResult, spec: QuadratureSpec, what: str) -> ToleranceNotReached:
    return ToleranceNotReached(
        f"{what}: refinement stalled at error {result.error_estimate:.3e} "
        f"(abs_tol={spec.abs_tol:.1e}, rel_tol={spec.rel_tol:.1e})",
        result=result,
    )


def _ceiling(result: IntegralResult | None, spec: QuadratureSpec,
             what: str) -> ToleranceNotReached:
    err = math.inf if result is None else result.error_estimate
    return ToleranceNotReached(
        f"{what}: node ceiling reached at error {err:.3e} "
        f"(abs_tol={spec.abs_tol:.1e}, rel_tol={spec.rel_tol:.1e})",
        result=result,
    )


def _node_terms(log_q, factor_of_log, log_s=None, log_weight=None, *, out=None):
    """Q (factor_of_log(ln Q) - ln S) at each node: the 1D and cartesian integrand rule.

    ``log_q`` holds ln Q at the nodes and is overwritten, and so is
    ``log_weight`` when ``out`` is it.  ``log_s`` is None or ln S at the
    nodes, which is clamped at ``_LOG_FLOOR`` in place; SupportViolation
    is raised as soon as Q keeps mass above 1e-12 at a node where S is
    below 1e-300.  ``log_weight`` (cartesian rule) joins the mass before
    the exponential, so the mass Q * weight decides the underflow; such
    nodes give exact zeros.  ``out`` (may be ``log_weight`` itself)
    buffers the result.
    """
    if log_s is not None:
        under = np.flatnonzero(log_s < LOG_TINY)
        if under.size and np.any(log_q[under] > LOG_SUPPORT):
            raise SupportViolation("first density keeps mass where the second has none; "
                                   "the relative entropy diverges at this resolution")
        np.maximum(log_s, _LOG_FLOOR, out=log_s)
    mass = log_q if log_weight is None else np.add(log_q, log_weight, out=out)
    # Most calls have no node to zero: the mask is formed only if the least mass asks for it.
    dead = mass <= LOG_TINY if np.fmin.reduce(mass, axis=None) <= LOG_TINY else None
    terms = np.exp(mass, out=out)
    if dead is not None:
        np.copyto(terms, 0.0, where=dead)
        # A zero log where the mass underflows keeps the factor finite there.
        np.copyto(log_q, 0.0, where=dead)
    factor = factor_of_log(log_q, out=log_q)
    if log_s is not None:
        factor = np.subtract(factor, log_s, out=log_q)
    return np.multiply(terms, factor, out=terms)


# ---------------------------------------------------------------------------
# Coordinate-system runners.  Each lays out nodes and weights and reduces
# the integrand against the phase-space measure (the line measure for line
# densities), which it gets at the nodes from ``_node_terms`` (or, for a
# "noon" s-profile, from ``_profile_terms``).
# ---------------------------------------------------------------------------


def _run_1d(terms, tails, spec: QuadratureSpec, what: str, *, coordinate: str,
            exact: bool = False) -> list[IntegralResult]:
    """Composite Gauss-Legendre rule on [0, cutoff] or [0, 1], for a stack of integrals.

    ``coordinate`` is "radius", a phase-space radius, which carries the
    Jacobian r; "line", the half line of an even line density, whose
    integral is twice that over [0, cutoff]; or "unit", the ratio
    s = r_B / r_A of a "noon" density, whose profile carries its measure:
    the unit rule on [0, 1], with no cutoff, and the tails ignored.
    Otherwise ``tails`` holds each member's (shape, rate, breakpoints,
    tail_log_margin), whose rule ``_tail_axes`` works out once a tail.
    Level j lays out ``spec.radial_nodes`` with every panel of the base
    level halved j times.

    With ``exact`` (radial stacks without a reference) every member's
    ln Q is exactly ln rate - rate r^2 / 2, so the integrand is e^-u
    times a first-degree polynomial in u = rate r^2 / 2.  Its levels are
    then the 2- and 4-point Gauss-Laguerre rules in u, both exact, at
    r = sqrt(2 u / rate) with weights w e^u / (rate r): there is no
    cutoff, ``radial_nodes`` and the tails' other entries are ignored,
    and the 4-point level is the finest.

    A member without inner breakpoints runs on one cached unit rule
    (``_UnitRule``: ``_unit_panels`` on [0, 1], or the Gauss-Laguerre
    rule) scaled for it, by its cutoff or its rate (not at all on
    [0, 1]); a member with breakpoints on its tail's ``_Segments``.
    Either lays out the levels of a call joined, as one array pair with
    the columns of each level: the first call, the base level and its
    doubling, once a process for a unit rule, and at each call for
    segments, which keep nothing.  ``terms(x, members, counts)`` maps
    nodes to the integrand there: x joins the levels of each member of a
    call in turn, ``counts[i]`` nodes of member ``members[i]``.
    ``_escalated`` joins the first two levels of consecutive members into
    calls of at most ``_STACK_CHUNK_NODES`` nodes.  In a call,
    consecutive members on one rule form a block.  A block of one member
    sums each level with one ``np.dot`` on contiguous slices.  In a
    larger block the nodes and weights are the rows of one (members x
    nodes) layout, formed from the scales and the rule by one outer
    operation, and each level's values are one batched ``np.matmul`` of
    weight rows against integrand rows, which gives the bits of that
    ``np.dot`` on each member alone.  The values go back to
    ``_escalated`` as Python floats.
    """
    n_panels = max(1, spec.radial_nodes // _PANEL_NODES)

    if coordinate == "unit":
        layouts, scales = [_unit_axes(n_panels, False)] * len(tails), [None] * len(tails)
    elif exact:
        layouts, scales = [_laguerre_axes] * len(tails), [tail[1] for tail in tails]
    else:
        layouts, scales = zip(*[_tail_axes(*tail, n_panels) for tail in tails])

    def evaluate(calls):
        # Consecutive calls on one grid share one rule: a block, whose
        # members' nodes and weights are rows of one layout.
        blocks = [calls] if len(calls) == 1 else [
            list(block) for _, block in itertools.groupby(calls, key=lambda call: id(call[1]))]
        pieces, sums = [], []
        for block in blocks:
            i, (x, w, cols), _ = block[0]
            # One scale serves every member as a scalar, else a column.
            scale = scales[i]
            if len(block) > 1:
                factors = [scales[j] for j, _, _ in block]
                if factors.count(scale) < len(factors):
                    scale = np.array(factors)[:, None]
            if exact:
                # r = sqrt(2 u / rate) and weights w e^u / (rate r)
                x = np.sqrt(x / scale)
                w = w / (scale * x)
            elif scale is not None:
                x, w = scale * x, scale * w
            pieces += [x.ravel()] if x.ndim == 2 else [x] * len(block)
            sums.append((len(block), w, cols))
        x = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
        members, _, counts = zip(*calls)
        t = terms(x, members, counts)
        if coordinate == "radius":
            t *= x
        rows, end = [], 0
        for size, w, cols in sums:
            n = counts[len(rows)]
            if size == 1:
                # One member: one ``np.dot`` a level, on contiguous slices.
                t_row, row = t[end:end + n], []
                for c in cols:
                    row.append(float(np.dot(w[c], t_row[c])))
                rows.append(row)
            else:
                # One batched product of weight rows and integrand rows a
                # level, which gives the bits of ``np.dot`` on each row (a
                # single weight row is broadcast).
                t_rows = t[end:end + size * n].reshape(size, n)
                w = w.reshape(-1, n)
                values = np.empty((size, len(cols)))
                for level, c in enumerate(cols):
                    values[:, level] = np.matmul(w[:, None, c], t_rows[:, c, None])[:, 0, 0]
                rows += values.tolist()
            end += size * n
        return [[2.0 * v for v in row] for row in rows] if coordinate == "line" else rows

    grow = (lambda level: min(level + 1, 1)) if exact else (lambda level: level + 1)
    return _escalated(layouts, evaluate, 0, grow, spec, what)


@functools.lru_cache(maxsize=1024)
def _tail_axes(shape: float, rate: float, breakpoints, tail_log_margin: float, n_panels: int):
    """``_run_1d``'s (axes, scale) of a member with this tail; scale None: laid out as it is.

    The cutoff is solved from the Gamma tail (``gamma_tail_threshold``)
    at the tail mass ``_TAIL_MASS``, shrunk by ``tail_log_margin`` for
    tails that outrun the plain Gamma envelope.  ``breakpoints``, where a
    log in the integrand is singular (the zeros of a line density, or
    the origin of a radial reference that vanishes there), become panel
    edges, and when there is any, every panel is graded.  Worked out once
    a tail, the rule keeps nothing of a layout.
    """
    mass = max(_TAIL_MASS * math.exp(-min(tail_log_margin, 600.0)), 1e-280)
    cutoff = gamma_tail_threshold(shape, rate, mass)
    if breakpoints:
        inner = sorted({abs(b) for b in breakpoints if 0.0 < abs(b) < cutoff})
        if inner:
            return _Segments(0.0, cutoff, inner, n_panels, True), None
    return _unit_axes(n_panels, bool(breakpoints)), cutoff


class _UnitRule:
    """``_run_1d``'s ``axes`` of the members without inner breakpoints: one cached unit rule.

    ``rule(level)`` gives the level's read-only (x, w), which ``_run_1d``
    scales for each member.  A call lays out the levels of one runner
    call joined into one read-only array pair, at its first use, and
    keeps it with the rule: every later first call, the base level and
    its doubling, reads the same arrays as they are.
    """

    def __init__(self, rule):
        self.rule = rule
        self.calls = {}

    def __call__(self, levels):
        call = self.calls.get(levels)
        if call is None:
            x, w = zip(*map(self.rule, levels))
            sizes = [u.size for u in x]
            if len(levels) > 1:
                x, w = np.concatenate(x), np.concatenate(w)
                x.flags.writeable = False
                w.flags.writeable = False
            else:
                (x,), (w,) = x, w
            call = self.calls[levels] = sizes, sizes, (x, w, _columns(sizes))
        return call


@functools.lru_cache(maxsize=None)
def _unit_axes(n_panels: int, graded: bool) -> _UnitRule:
    """The unit rule whose level j is ``_unit_panels(n_panels << j, graded)`` on [0, 1]."""
    return _UnitRule(lambda doublings: _unit_panels(n_panels << doublings, graded))


@functools.lru_cache(maxsize=None)
def _laguerre_rule(level: int) -> tuple[np.ndarray, np.ndarray]:
    """The 2^(level + 1)-point Gauss-Laguerre rule as ``_run_1d`` scales it, read-only.

    It is 2u and w e^u at the nodes u and weights w of the rule for e^-u
    on [0, inf); ``_run_1d`` turns them into radii and weights for each
    member's rate.
    """
    u, w = laggauss(2 << level)
    u *= 2.0
    w *= np.exp(0.5 * u)
    u.flags.writeable = False
    w.flags.writeable = False
    return u, w


# The ``axes`` of an exact member (see ``_run_1d``); its levels are laid
# out at their first use.
_laguerre_axes = _UnitRule(_laguerre_rule)


def _run_cartesian(dim, envelope, terms, nodes_per_dim, spec: QuadratureSpec,
                   what: str) -> IntegralResult:
    """Gauss-Hermite rule whitened by a Gaussian envelope (sigma, mean).

    The base level has ``nodes_per_dim`` nodes per axis:
    ``spec.cartesian_nodes_per_dim``, capped at two for an all-"gaussian"
    integral.  Per-dimension log-weights are ln(w) + t^2, computed directly
    by ``_hermite_rule`` and bounded, so the reweighting never overflows.
    Node counts per axis are capped at 384, the finest level, and
    escalation also stops at the node budget of ``_escalated``.
    ``terms(pts, log_weight)`` maps the points and their summed
    log-weights to the weighted integrand there.
    """
    sigma, mean = envelope
    sigma = np.asarray(sigma, dtype=float)
    mean = np.asarray(mean, dtype=float)
    chol = np.linalg.cholesky(sigma)
    log_pref = float(np.sum(np.log(np.diag(chol)))) - 0.5 * dim * math.log(math.pi)
    scale = math.sqrt(2.0) * chol

    def run(m):
        t, lw = _hermite_rule(m)
        rest = m ** (dim - 1)
        chunk_len = max(1, 500_000 // rest)
        starts = range(0, m, chunk_len)

        def do_chunk(start):
            stop = min(start + chunk_len, m)
            # One (k, m, .., m, dim) array, one broadcast assignment an axis.
            grid = np.empty((stop - start,) + (m,) * (dim - 1) + (dim,))
            for axis, nodes in enumerate([t[start:stop]] + [t] * (dim - 1)):
                grid[..., axis] = nodes.reshape((-1,) + (1,) * (dim - 1 - axis))
            pts = grid.reshape(-1, dim) @ scale.T
            pts += mean
            # Summed from 0.0, first axis first, as a fresh array.
            lw_sum = functools.reduce(np.add.outer, [lw[start:stop]] + [lw] * (dim - 1), 0.0)
            return float(np.sum(terms(pts, lw_sum.reshape(-1))))

        parts = _map_chunks(do_chunk, starts, spec.parallelism)
        return math.exp(log_pref) * math.fsum(parts)

    # Each level is its own sum of chunks, whether or not it shares a call.
    return _escalated([lambda ms: (ms, [m**dim for m in ms], ms)],
                      lambda calls: [[run(m) for m in ms] for _, ms, _ in calls],
                      min(nodes_per_dim, 384), lambda m: min(2 * m, 384), spec, what)[0]


# ---------------------------------------------------------------------------
# Routing: the one place that maps densities to a runner
# ---------------------------------------------------------------------------


def _integrate(evaluator: HusimiEvaluator, reference: HusimiEvaluator | None, factor_of_log,
               spec: QuadratureSpec, what: str) -> IntegralResult:
    """Integral of Q (factor_of_log(ln Q) - ln S) over phase space.

    Q is the density of ``evaluator`` and S that of ``reference``; without
    a reference the ln S term is dropped.  ``factor_of_log`` is an
    ``_AffineFactor``, offset + slope ln Q, which the runners call as
    ``factor_of_log(logq, out=None)``; it returns a scalar or an array,
    and may write into ``out`` (which the kernel sets to ``logq`` itself)
    or return ``logq`` unchanged.  Every runner clamps ln S at twice the
    underflow log, and raises SupportViolation at the first level where
    some node carries appreciable Q mass (above 1e-12) while S has
    underflowed (below 1e-300), so a divergence is reported even when
    the tolerance would not have been reached either: the 1D and
    cartesian runners through one kernel, ``_node_terms``.

    The runner is picked here, and only here, by ``kind`` (see
    ``husimi``) alone: radial when every density is "radial", a stack of
    one through ``_stack``, its panels graded when the reference vanishes
    at the origin faster than the density (``_radial_tail``); for a
    "noon" density, the unit rule of
    ``_run_1d`` on its ``s_profile`` without a reference, and the split
    by marginals (``_marginal_split``) against a product of two radial
    factors; cartesian otherwise (see ``_cartesian``).
    """
    if evaluator.kind == "radial" and (reference is None or reference.kind == "radial"):
        return _stack((evaluator,), spec, what, factor_of_log,
                      None if reference is None else (reference,))[0]
    if evaluator.kind == "noon":
        if reference is None:
            return _run_1d(lambda s, *_: _profile_terms(evaluator.s_profile, factor_of_log, s),
                           [None], spec, what, coordinate="unit")[0]
        if (isinstance(reference, ProductHusimi)
                and reference.factor_a.kind == reference.factor_b.kind == "radial"):
            return _marginal_split(evaluator, reference, factor_of_log, spec, what)
    return _cartesian(evaluator, reference, factor_of_log, spec, what)


def _radial_tail(evaluator: HusimiEvaluator, reference: HusimiEvaluator | None = None):
    """``_run_1d``'s tail of a radial integral of ``evaluator`` against ``reference``.

    The Gamma envelope is the wider of the two densities'.  When the
    reference vanishes at the origin faster than the density, ln S
    carries 2k ln r there, against which the plain rule converges only
    algebraically: a breakpoint at the origin then grades every panel.
    """
    if reference is None:
        return evaluator.radial_gamma_shape, evaluator.radial_rate, (), 0.0
    origin = (0.0,) if reference.lowest_index > evaluator.lowest_index else ()
    return (max(evaluator.radial_gamma_shape, reference.radial_gamma_shape),
            min(evaluator.radial_rate, reference.radial_rate), origin, 0.0)


def _profile_terms(profile, factor_of_log, s):
    """m(s) factor_of_log(l(s)) at the nodes s of a "noon" s-profile (``s_profile``).

    The rule of ``_node_terms`` holds: a node whose mass m is at most
    1e-300 contributes exactly 0.
    """
    log_mass, log_mean = profile(s)
    dead = log_mass <= LOG_TINY
    terms = np.exp(log_mass, out=log_mass)
    if dead.any():
        np.copyto(terms, 0.0, where=dead)
    return np.multiply(terms, factor_of_log(log_mean, out=log_mean), out=terms)


def _marginal_split(evaluator: HusimiEvaluator, reference: ProductHusimi, factor_of_log,
                    spec: QuadratureSpec, what: str) -> IntegralResult:
    """``_integrate`` of a "noon" density Q against a product S = S_A S_B of radial factors.

    The marginals of Q are the Husimi densities of the reduced states, so

        int Q (f(ln Q) - ln S) = int Q f(ln Q) + X(Q_A, S_A) + X(Q_B, S_B),

    with X(P, S) = -int P ln S a radial cross entropy; against its own
    marginals that is I = S(A) + S(B) - S(AB).  Both reductions are the
    one ``marginal`` instance, so against it X(Q_A, Q_A) = X(Q_B, Q_B) is
    the entropy S(A), integrated once with no reference evaluated.  Other
    cross entropies run first, as one stack when their kernels agree
    (``_runs``), so a SupportViolation is raised before the s-rule of Q
    runs.  A separable Q is the product of its marginals: each factor
    pair then takes half the offset of f, and the nodes of a pair whose
    reference is the density itself are exactly 0.
    """
    marginal, references = evaluator.marginal, (reference.factor_a, reference.factor_b)
    if evaluator.separable:
        factor = _AffineFactor(0.5 * factor_of_log.offset, factor_of_log.slope)
    elif references == (marginal, marginal):
        s_a = _integrate(marginal, None, _entropy_factor, spec, what)
        twice = IntegralResult(2.0 * s_a.value, 2.0 * s_a.error_estimate, s_a.nodes_used)
        return twice + _integrate(evaluator, None, factor_of_log, spec, what)
    else:
        factor = _cross_factor
    a, b = [result for _, run, refs in _runs((marginal, marginal), references)
            for result in _stack(run, spec, what, factor, refs)]
    if evaluator.separable:
        return a + b
    return a + b + _integrate(evaluator, None, factor_of_log, spec, what)


def _cartesian(evaluator: HusimiEvaluator, reference: HusimiEvaluator | None, factor_of_log,
               spec: QuadratureSpec, what: str) -> IntegralResult:
    """The cartesian branch of ``_integrate``: the whitened Gauss-Hermite rule.

    It takes every integral that neither the radial nor the "noon" runner
    fits.  Any density with a ``gaussian_envelope`` fits it, so the tests
    also call it directly as an independent cross-check of those two
    runners.  An integral whose densities are all "gaussian" starts at no
    more than two nodes per axis.
    """
    densities = (evaluator,) if reference is None else (evaluator, reference)
    nodes_per_dim = spec.cartesian_nodes_per_dim
    if all(d.kind == "gaussian" for d in densities):
        nodes_per_dim = min(nodes_per_dim, _GAUSSIAN_NODES_PER_DIM)
    envelope = evaluator.gaussian_envelope()

    def terms(pts, log_weight):
        # ln Q evaluated first
        log_q = evaluator.log_q(pts)
        log_s = None if reference is None else reference.log_q(pts)
        return _node_terms(log_q, factor_of_log, log_s, log_weight, out=log_weight)

    return _run_cartesian(evaluator.dim, envelope, terms, nodes_per_dim, spec, what)


@dataclass(frozen=True)
class _AffineFactor:
    """The factor offset + slope ln Q of a functional, at ln Q = ``logq``.

    Every functional the engine integrates is affine in ln Q; the runners
    call the factor, and the split of a separable "noon" density reads
    its two numbers.  A call returns the scalar offset when the slope is
    0, ``logq`` itself at slope 1, and otherwise may write into ``out``.
    """

    offset: float
    slope: float

    def __call__(self, logq, out=None):
        if self.slope == 0.0:
            return self.offset
        factor = logq if self.slope == 1.0 else np.multiply(logq, self.slope, out=out)
        return factor + self.offset if self.offset else factor


_entropy_factor = _AffineFactor(0.0, -1.0)
_unit_factor = _AffineFactor(1.0, 0.0)
_log_factor = _AffineFactor(0.0, 1.0)
# The cross entropy X(P, S) = -int P ln S: the factor 0, less ln S.
_cross_factor = _AffineFactor(0.0, 0.0)


def _multiply_masses(a: IntegralResult, b: IntegralResult) -> IntegralResult:
    return IntegralResult(
        a.value * b.value,
        abs(a.value) * b.error_estimate + abs(b.value) * a.error_estimate,
        a.nodes_used + b.nodes_used,
    )


def _one_density(evaluator: HusimiEvaluator, factor_of_log, join, spec: QuadratureSpec,
                 what: str) -> IntegralResult:
    """Integral of Q * factor_of_log(ln Q); a product splits into its factors."""
    if isinstance(evaluator, ProductHusimi):
        return join(_one_density(evaluator.factor_a, factor_of_log, join, spec, what),
                    _one_density(evaluator.factor_b, factor_of_log, join, spec, what))
    return _integrate(evaluator, None, factor_of_log, spec, what)


def entropy_functional(evaluator: HusimiEvaluator,
                       spec: QuadratureSpec | None = None) -> IntegralResult:
    """- integral of Q ln Q over phase space."""
    # Entropy is additive over independent factors.
    return _one_density(evaluator, _entropy_factor, IntegralResult.__add__,
                        spec or QuadratureSpec(), "entropy functional")


def _runs(members, references=None):
    """(key, members, references) of each consecutive run of ``members`` that can share a stack.

    The key holds the kernels and, without a reference, whether the rule
    is exact; it is None off the 1D kernels, for a density neither on the
    line nor "radial".  ``references`` is None or one a member, as a run's.
    """
    def key(pair):
        density, reference = pair
        if isinstance(density, PositionDensity):
            return type(density).stacked_log_f
        if density.kind != "radial":
            return None
        if reference is None:
            return type(density).stacked_log_q_radial, density.log_q_affine_in_r2
        return type(density).stacked_log_q_radial, type(reference).stacked_log_q_radial

    for k, run in itertools.groupby(zip(members, references or itertools.repeat(None)), key=key):
        run_members, run_references = zip(*run)
        yield k, run_members, None if references is None else run_references


def _stack(members, spec: QuadratureSpec, what: str, factor_of_log=_entropy_factor,
           references=None) -> list[IntegralResult]:
    """Integral of each member of a run of ``_runs``: one ``_run_1d`` stack.

    Every radial and line integral runs here, a single one as a stack of
    one.  The first member gives the kernel, the coordinate and whether
    the rule is exact; ``_node_terms`` forms the integrand, by default
    the entropy's, from the kernels' ln Q and ln S.
    """
    first = members[0]
    if isinstance(first, PositionDensity):
        kernel, coordinate, exact = type(first).stacked_log_f, "line", False
        tails = [(d.position_gamma_shape, d.position_rate, d.breakpoints,
                  d.position_tail_log_margin) for d in members]
    else:
        kernel, coordinate = type(first).stacked_log_q_radial, "radius"
        exact = references is None and first.log_q_affine_in_r2
        tails = list(map(_radial_tail, members, references or (None,) * len(members)))
    reference_kernel = None if references is None else type(references[0]).stacked_log_q_radial

    def terms(x, at, counts):
        # ln Q evaluated first
        log_q = kernel([members[i] for i in at], x, counts)
        log_s = None if references is None else reference_kernel(
            [references[i] for i in at], x, counts)
        return _node_terms(log_q, factor_of_log, log_s)

    return _run_1d(terms, tails, spec, what, coordinate=coordinate, exact=exact)


def entropy_functionals(evaluators, spec: QuadratureSpec | None = None) -> list[IntegralResult]:
    """``entropy_functional`` of each evaluator, to the same bits.

    Each consecutive run of "radial" evaluators that share a kernel and
    an exact rule or not (number states and their mixtures, or thermal
    states) is one stack: each kernel call evaluates the first levels of
    many of them (see ``_run_1d``).  Any other evaluator runs alone.  The
    first failure met, in the order given, is raised; the EUR sweeps then
    run their points one by one to name the first failing point.
    """
    spec = spec or QuadratureSpec()
    results = []
    for key, run, _ in _runs(evaluators):
        results += (_stack(run, spec, "entropy functional") if key
                    else [entropy_functional(ev, spec) for ev in run])
    return results


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
        return _node_terms(zeros, lambda logq, out=None: vals, log_weight=log_weight,
                           out=log_weight)

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


def density_entropy_1d(density: PositionDensity,
                       spec: QuadratureSpec | None = None) -> IntegralResult:
    """Differential entropy - integral of f ln f dx of an even line density."""
    return _stack((density,), spec or QuadratureSpec(), "line entropy")[0]


def density_entropies_1d(densities, spec: QuadratureSpec | None = None) -> list[IntegralResult]:
    """``density_entropy_1d`` of each density, to the same bits.

    Each consecutive run of densities that share a kernel (number states
    and their mixtures, or thermal states) is one stack, like
    ``entropy_functionals``, in the order given.  The first failure met
    in that order is raised.
    """
    spec = spec or QuadratureSpec()
    return [result for _, run, _ in _runs(densities)
            for result in _stack(run, spec, "line entropy")]


def density_normalization_1d(density: PositionDensity,
                             spec: QuadratureSpec | None = None) -> IntegralResult:
    """Integral of an even line density f dx; one when normalized."""
    return _stack((density,), spec or QuadratureSpec(), "line normalization", _unit_factor)[0]
