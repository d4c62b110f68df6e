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
measure ``dx``.  Densities enter through log values.  Every functional
is affine in ln Q, and every runner keeps one set of rules: points where
the mass is below 1e-300 contribute exactly zero, a reference's log is
clamped where it underflows, and mass where it underflows is a
divergence.  The 1D and cartesian runners apply them node by node
through one kernel, ``_node_terms``; the "noon" triangle applies them to
axis factors, bounding each rule on the axes first.
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
from numpy.polynomial.legendre import leggauss

from .errors import DimensionMismatch, SupportViolation, ToleranceNotReached
from .husimi import (HusimiEvaluator, PositionDensity, ProductHusimi, _hermite_steps,
                     _hermite_zeros, _outer_sum)

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
# the Gauss-Legendre points u of [0, 1] (see ``_panel_nodes``).
_GL_UNIT = 0.5 * (_GL_NODES + 1.0)
_GRADED_NODES = _GL_UNIT * _GL_UNIT * (3.0 - 2.0 * _GL_UNIT)
_GRADED_WEIGHTS = _GL_WEIGHTS * 6.0 * _GL_UNIT * (1.0 - _GL_UNIT)

# Most nodes one refinement level may hold.  Every runner lays out a level
# before it evaluates it, and a level over the budget is refused: with
# four-fold (triangle) or 2^dim-fold (cartesian) growth per level, one
# more level can cost minutes and gigabytes.
_MAX_LEVEL_NODES = 10**8
# Most nodes one call of a stack's first levels may join (see
# ``_escalated``): enough members that the fixed cost of a numpy call is
# shared out, few enough that a chunk's arrays (the line kernel holds
# about a dozen, and a block of eight rows) add under a megabyte to the
# peak memory of a sweep.
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
    line coordinate (the "noon" triangle starts at a quarter of them in
    r_A and an eighth in the ratio r_B / r_A), and
    ``cartesian_nodes_per_dim`` the Gauss-Hermite order per axis, capped
    at two when every density of the integral is "gaussian" (exact
    there).  No runner samples an angle: the one angle
    a runner meets, the phase difference of a "noon" density, is averaged
    in closed form.  The engine always computes one refinement (all counts
    doubled) to get an error estimate, then up to ``max_escalations``
    further doublings; it stops early, with ToleranceNotReached, before a
    level of more than 10^8 nodes.
    No field sets a cutoff either: each runner solves its own from the
    integrand's Gamma-type tail, at a tail mass of 1e-2 times the smaller
    tolerance (at least 1e-18), so a tighter tolerance widens the cutoff.
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


@functools.lru_cache(maxsize=None)
def _gamma_tail_inverse(a: int, tail_mass: float) -> float:
    """x with Q(a, x) = e^-x sum_{k<a} x^k / k! equal to ``tail_mass``, a >= 1.

    Newton steps on ln Q, which is concave and decreasing in x, so from a
    start right of the root every step stays right of it and moves left.
    The start 2 (a ln 2 - ln p) is right of the root by the Chernoff
    bound Q(a, x) <= 2^a e^(-x/2).  The sum is taken relative to its last
    term, x^(a-1) / (a-1)!, which keeps it finite for any a and makes
    -1 / (that ratio) the derivative of ln Q.
    """
    log_p = math.log(tail_mass)
    log_last = -math.lgamma(a)
    x = 2.0 * (a * math.log(2.0) - log_p)
    for _ in range(100):
        ratio = term = 1.0
        for k in range(a - 1, 0, -1):
            term *= k / x
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
    # Newton starts from the raw eigenvalues: the mirrored ones would
    # move the last bit of most rules.
    t = _hermite_zeros(m)

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

    The panel ends are i / k; a plain panel is the Gauss-Legendre rule about
    its midpoint, a graded one the rule mapped through phi (see
    ``_panel_nodes``).  Every layout scales one of these, so the [0, 1]
    layouts (the triangle's s axis) are these very values.
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


def _panel_nodes(a: float, b: float, n_nodes: int, breakpoints=(), graded: bool = False,
                 doublings: int = 0):
    """Composite Gauss-Legendre nodes on [a, b] with panel edges at breakpoints.

    About ``n_nodes`` nodes, ``_PANEL_NODES`` a panel, with panels shared
    out between the breakpoint segments by length: a segment [lo, hi]
    gets k = max(1, round(n_panels (hi - lo) / (b - a))) equal panels,
    times 2^``doublings``.  So each doubling of a level halves every
    panel: sharing out twice the nodes instead would leave a short
    segment at its one panel, and two levels that agree there would hide
    its error from the estimate.  A segment's nodes are lo + (hi - lo) x
    and its weights (hi - lo) w, with x and w the cached rule
    ``_unit_panels(k, graded)`` on [0, 1], so a layout costs a few array
    operations and a [0, 1] layout is the unit rule itself.  With
    ``graded`` every panel [lo, lo + h] is mapped through
    phi(u) = u^2 (3 - 2u) on [0, 1] (Sidi's sigmoidal
    transformation of degree one): the nodes are lo + h phi(u) and the
    weights (h / 2) w 6u(1 - u) at the Gauss-Legendre points u and
    weights w of [0, 1].  Nodes then cluster at both panel ends, where the
    map turns a (x - x0)^2 ln|x - x0| singularity into about u^5 ln u: the
    plain rule gains only about a factor eight a doubling on such a panel,
    the graded one far more.
    """
    inner = sorted({p for p in map(float, breakpoints) if a < p < b})
    total = b - a
    n_panels = max(1, int(n_nodes) // _PANEL_NODES)
    if not inner:
        x, w = _unit_panels(n_panels << doublings, graded)
        # a + total x, without the call that adds a zero a
        return (a + total * x if a else total * x), total * w
    edges = [a, *inner, b]
    lows = edges[:-1]
    spans = [hi - lo for lo, hi in zip(lows, edges[1:])]
    counts = [max(1, round(n_panels * span / total)) << doublings for span in spans]
    xs, ws = zip(*[_unit_panels(k, graded) for k in counts])
    repeats = [k * _PANEL_NODES for k in counts]
    span = np.array(spans).repeat(repeats)
    x = np.concatenate(xs)
    w = np.concatenate(ws)
    x *= span
    x += np.array(lows).repeat(repeats)
    w *= span
    return x, w


def _escalated(layouts, evaluate, base, grow, spec: QuadratureSpec,
               what: str) -> list[IntegralResult]:
    """Run doubling resolutions until two levels agree: the one refinement driver.

    It runs a stack of integrals that share one rule, one member per
    entry of ``layouts``: a member's ``axes(level)`` lays out a level and
    returns the resolution (nodes per axis, or a tuple of them), the
    number of nodes and the level's grid, and ``grow`` steps the
    requested level.  ``evaluate(calls)`` takes a list of calls (member,
    grids, node count) and returns the value of each grid, a list per
    call.  Every integral runs its base level and the first doubling, so
    the two go to one call when ``grow`` gives a finer level and that
    level fits ``_MAX_LEVEL_NODES``; otherwise the base level runs alone.
    These first calls of consecutive members join into one ``evaluate``
    of at most ``_STACK_CHUNK_NODES`` nodes (a member over it has one of
    its own).  A member whose two levels disagree then runs each later
    level in a call of its own, before the next chunk starts.  Each level
    is laid out once, only when it is about to run or be refused (see
    ``_refinement``, which also logs the levels).  Returns one result a
    member, in order; the first failure met is raised as it happens.
    """
    runs = [_refinement(axes, base, grow, spec, what) for axes in layouts]
    results = []
    for chunk in _joined(runs):
        start = time.perf_counter()
        values = evaluate(chunk)
        seconds = time.perf_counter() - start
        for (i, *_), member_values in zip(chunk, values):
            try:
                while True:
                    call = (i, *runs[i].send((member_values, seconds)))
                    start = time.perf_counter()
                    member_values, = evaluate([call])
                    seconds = time.perf_counter() - start
            except StopIteration as done:
                results.append(done.value)
    return results


def _joined(runs):
    """The first calls (member, grids, nodes) of ``runs``, joined in order into chunks.

    A chunk holds at most ``_STACK_CHUNK_NODES`` nodes, or one member.
    """
    chunk, size = [], 0
    for i, run in enumerate(runs):
        grids, nodes = next(run)
        if chunk and size + nodes > _STACK_CHUNK_NODES:
            yield chunk
            chunk, size = [], 0
        chunk.append((i, grids, nodes))
        size += nodes
    if chunk:
        yield chunk


def _refinement(axes, base, grow, spec: QuadratureSpec, what: str):
    """The levels of one integral of ``_escalated``, as a generator.

    It yields the grids of its next call and their node count, is sent
    back their values and the call's seconds, and returns the
    IntegralResult once two levels agree.  A level is refused when it
    holds more than ``_MAX_LEVEL_NODES`` nodes, or when ``grow`` returns
    the level unchanged because the rule has no finer one; the refusal
    is logged at INFO and raised as ToleranceNotReached ("node ceiling")
    carrying the result of the last level run (None when the base level
    is refused).  Each level that runs is logged at DEBUG with its
    laid-out resolution, nodes, value and the seconds of its call; the
    seconds of a joint call are logged with each member's base level,
    and the doubled level logs 0.
    """
    result = None
    refinements = 0
    level, ahead = base, None
    while True:
        resolution, nodes, grid = ahead or axes(level)
        if nodes > _MAX_LEVEL_NODES:
            _log.info("%s: level %s needs %d nodes, over the budget of %d per level",
                      what, resolution, nodes, _MAX_LEVEL_NODES)
            break
        batch, ahead = [(level, resolution, nodes, grid)], None
        grids = [grid]
        finer = grow(level)
        if result is None and finer != level:
            # The base level never settles alone: its doubling joins its
            # call when it fits, and is otherwise refused next, as laid out.
            ahead = axes(finer)
            if ahead[1] <= _MAX_LEVEL_NODES:
                batch.append((finer, *ahead))
                grids.append(ahead[2])
                nodes += ahead[1]
                ahead = None
        values, seconds = yield grids, nodes
        # ``level`` ends as the last level run.
        for (level, resolution, nodes, _), value in zip(batch, values):
            value = float(value)
            _log.debug("%s: level %s, %d nodes, value %.17g, %.6f s",
                       what, resolution, nodes, value, seconds)
            seconds = 0.0
            if result is None:
                result = IntegralResult(value, math.inf, nodes)
                continue
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
        if grow(level) == level:
            _log.info("%s: level %s is the finest this rule allows", what, resolution)
            break
        level = grow(level)
    err = math.inf if result is None else result.error_estimate
    raise ToleranceNotReached(
        f"{what}: node ceiling reached at error {err:.3e} "
        f"(abs_tol={spec.abs_tol:.1e}, rel_tol={spec.rel_tol:.1e})",
        result=result,
    )


def _check_support(log_mass):
    """Raise SupportViolation if Q keeps mass above 1e-12 at a node where S underflows.

    ``log_mass`` holds ln Q at the nodes where S is below 1e-300.
    """
    if np.any(log_mass > LOG_SUPPORT):
        raise SupportViolation(
            "first density keeps mass where the second has none; "
            "the relative entropy diverges at this resolution"
        )


def _node_terms(log_q, factor_of_log, reference=None, log_weight=None, *, out=None):
    """Q (factor_of_log(ln Q) - ln S) at each node: the 1D and cartesian integrand rule.

    ``log_q`` holds ln Q at the nodes and is overwritten, and so is
    ``log_weight`` when ``out`` is it.  ``reference`` is None or the pair
    (ln S clamped at ``_LOG_FLOOR``, index of the nodes where S
    underflows); SupportViolation is raised as soon as Q keeps mass above
    1e-12 at one of those nodes.  ``log_weight`` (cartesian rule) joins
    the mass before the exponential, so the mass Q * weight decides the
    underflow; such nodes give exact zeros.  ``out`` (may be
    ``log_weight`` itself) buffers the result.
    """
    if reference is not None:
        logs, under = reference
        if under.size:
            _check_support(log_q[under])
    mass = log_q if log_weight is None else np.add(log_q, log_weight, out=out)
    dead = mass <= LOG_TINY
    terms = np.exp(mass, out=out)
    if dead.any():
        np.copyto(terms, 0.0, where=dead)
        # A zero log where the mass underflows keeps the factor finite there.
        np.copyto(log_q, 0.0, where=dead)
    factor = factor_of_log(log_q, out=log_q)
    if reference is not None:
        factor = np.subtract(factor, logs, out=log_q)
    return np.multiply(terms, factor, out=terms)


def _density_terms(log_q, log_s, factor_of_log, nodes, log_weight=None):
    """``_node_terms`` of ``log_q`` against ``log_s`` (or None), ln Q evaluated first."""
    logq = log_q(nodes)
    reference = None
    if log_s is not None:
        logs = log_s(nodes)
        under = np.flatnonzero(logs < LOG_TINY)
        reference = np.maximum(logs, _LOG_FLOOR, out=logs), under
    return _node_terms(logq, factor_of_log, reference, log_weight, out=log_weight)


# ---------------------------------------------------------------------------
# Coordinate-system runners.  Each lays out nodes and weights and reduces
# the integrand against the phase-space measure (the line measure for line
# densities): the 1D and cartesian runners get it at the nodes from
# ``_node_terms``, the "noon" triangle forms it from axis factors.
# ---------------------------------------------------------------------------


def _run_1d(terms, tails, spec: QuadratureSpec, what: str, *,
            radial: bool) -> list[IntegralResult]:
    """Composite Gauss-Legendre rule on [0, cutoff], for a stack of integrals.

    With ``radial`` the coordinate is a phase-space radius and carries
    the Jacobian r; otherwise it is the half line of an even line
    density, whose integral is twice that over [0, cutoff].  ``tails``
    holds each member's (shape, rate, breakpoints, tail_log_margin).  Its
    cutoff is solved from the Gamma tail of ``shape`` and ``rate`` (see
    ``gamma_tail_threshold``) at the spec's tail mass, which
    ``tail_log_margin`` shrinks for tails that outrun the plain Gamma
    envelope.  ``breakpoints`` are the zeros of a line density: they
    become panel edges (x = 0 already is one), and when there is any,
    every panel is graded (see ``_panel_nodes``), because ln f is
    singular at each zero.  Each level's layout is a scaled copy of
    cached unit rules (see ``_panel_nodes``), not rebuilt panel by
    panel.  Level j lays out ``spec.radial_nodes`` with every panel of
    the base level halved j times; consecutive members with one tail
    share their layouts.

    ``terms(x, members, counts)`` maps nodes to the integrand there: x
    joins the levels of each member of a call in turn, ``counts[i]``
    nodes of member ``members[i]``.  ``_escalated`` joins the first two
    levels of consecutive members into calls of at most
    ``_STACK_CHUNK_NODES`` nodes, and each level is then reduced with
    its own weights by its own ``np.dot``, to the bits of a call per
    level of each member alone.
    """
    tail_mass = _tail_mass(spec)
    layouts = []
    for tail, run in itertools.groupby(tails):
        shape, rate, breakpoints, tail_log_margin = tail
        mass = max(tail_mass * math.exp(-min(tail_log_margin, 600.0)), 1e-280)
        edges = tuple(abs(b) for b in breakpoints if b) if breakpoints else ()
        axes = functools.partial(_line_layout, gamma_tail_threshold(shape, rate, mass), edges,
                                 bool(breakpoints), spec.radial_nodes)
        size = sum(1 for _ in run)
        if size > 1:
            # Consecutive members with one tail share its layouts, laid out once.
            axes = functools.lru_cache(maxsize=2)(axes)
        layouts += [axes] * size

    def evaluate(calls):
        members, grids, counts = zip(*calls)
        x = np.concatenate([x for levels in grids for x, _ in levels])
        t = terms(x, members, counts)
        if radial:
            t *= x
        values, end = [], 0
        for levels in grids:
            values.append([])
            for x, w in levels:
                level_t = t[end:end + x.size]
                end += x.size
                values[-1].append(np.dot(w, level_t) if radial else 2.0 * float(np.dot(w, level_t)))
        return values

    return _escalated(layouts, evaluate, 0, lambda level: level + 1, spec, what)


def _line_layout(cutoff, breakpoints, graded, n_nodes, doublings):
    """``_run_1d``'s ``axes``: level ``doublings`` on [0, cutoff]."""
    x, w = _panel_nodes(0.0, cutoff, n_nodes, breakpoints=breakpoints, graded=graded,
                        doublings=doublings)
    return x.size, x.size, (x, w)


def _run_triangle(evaluator, reference, factor, spec: QuadratureSpec,
                  what: str) -> IntegralResult:
    """Two radii, with the phase difference of a "noon" density averaged exactly.

    By the exchange symmetry only the triangle r_B <= r_A is integrated,
    at weight two, as r_A = r and r_B = s r with composite Gauss-Legendre
    rules in r on [0, cutoff] and in s on [0, 1]; the Jacobian makes the
    weight 2 r^3 s, an outer product of the two axes.  The s panels are
    graded (see ``_panel_nodes``): a reference factor vanishing at r = 0
    puts s ln s into ln S at s = 0.  Each level doubles both axes.

    The functional is affine in ln Q, ``factor`` = offset + slope ln Q (an
    ``_AffineFactor``), so the angle enters only through the evaluator's
    ``angle_averaged_logs``: ln <Q> sets the mass and <Q ln Q> / <Q>
    enters the factor, both axis factors coupled by the Gaussian
    -r_i^2 s_j^2 / 2 alone.  A level forms one (len r, len s) array,
    E = exp(-r_i^2 s_j^2 / 2), and reduces the integral with one product
    of E against three s-axis columns, contracted with r-axis vectors.
    The reference, a product of two radial factors, need not be
    symmetric: it enters through the mean of its clamped log at
    (r_A, r_B) and at (r_B, r_A).  Its Gaussian -r_B^2 / 2 cancels the
    density's, so only its ``log_q_remainder`` at r_i s_j is a second
    (len r, len s) array.  When both factors are one evaluator the two
    orders coincide and each is evaluated once.  Levels that
    ``_escalated`` evaluates together share one pass over the joined
    axes; only the 2D work is done per level.

    The rules of ``_node_terms`` hold: a node whose mass ln <Q> is at or
    below ln 1e-300 contributes exactly 0, ln S is clamped at
    ``_LOG_FLOOR``, and SupportViolation is raised where Q keeps mass
    above 1e-12 while S is below 1e-300.  Each is first bounded on the
    axes; ln <Q> and ln S are formed only on the rows where a bound could
    fail.

    The first level has a quarter of ``spec.radial_nodes`` in r and an
    eighth in s (at least two panels each): 96 x 48, then 192 x 96, at the
    default 400.  Every "noon" joint entropy and mutual information for
    N <= 50 meets 1e-8 on those two levels, the largest estimates being
    1.3e-9 and 2.0e-9; one doubling coarser misses 1e-8 there for N >= 5.
    """
    cutoff = gamma_tail_threshold(evaluator.radial_gamma_shape + 1.0, evaluator.radial_rate,
                                  _tail_mass(spec))
    slope = factor.slope
    # The coefficient of -r_i^2 s_j^2 / 2 in the factor: the slope's share
    # of <Q ln Q> / <Q>, cancelled by -ln S when there is a reference.
    cross_slope = slope - (reference is not None)
    if reference is not None:
        fa, fb = reference.factor_a, reference.factor_b

    def axes(level):
        r, wr = _panel_nodes(0.0, cutoff, level[0])
        s, ws = _panel_nodes(0.0, 1.0, level[1], graded=True)
        return (r.size, s.size), r.size * s.size, (r, wr, s, ws)

    def evaluate(grids):
        r, wr, s, ws = (np.concatenate(axis) for axis in zip(*grids))
        a, b, c = evaluator.angle_averaged_logs(r, s)
        half_sq = 0.5 * r * r
        s_sq = s * s
        # On row i, -r_i^2 s_j^2 / 2 is at least -cross_max_i.
        cross_max = half_sq * s_sq.max()
        mass_floor = a + b.min() - cross_max
        # A level's integral is sum_ik row_terms_ik (E @ col_terms)_ik, less
        # sum_i p_i ((remainder * E) @ q)_i with a reference.
        p = 2.0 * wr * r**3 * np.exp(a)
        q = ws * s * np.exp(b)
        coef = factor.offset + slope * a
        if reference is not None:
            log_sa = fa.log_q_radial(r)
            log_sb = log_sa if fa is fb else fb.log_q_radial(r)
            log_s = 0.5 * (log_sa + log_sb)
            coef -= log_s
        row_terms = np.empty((r.size, 3))
        np.multiply(p, coef, out=row_terms[:, 0])
        np.multiply(p, slope, out=row_terms[:, 1])
        np.multiply(p, -cross_slope * half_sq, out=row_terms[:, 2])
        col_terms = np.empty((s.size, 3))
        col_terms[:, 0] = q
        np.multiply(q, c, out=col_terms[:, 1])
        np.multiply(q, s_sq, out=col_terms[:, 2])

        def level(rows, cols):
            def cross(at=slice(None)):
                # -r_i^2 s_j^2 / 2 on the rows ``at`` of the level
                row = -half_sq[rows][at]
                return _outer_sum([(row, s_sq[cols])], (row.size, s_sq[cols].size))

            def log_mass(at):
                block = cross(at)
                block += a[rows][at, None]
                block += b[cols]
                return block

            gauss = cross()
            np.exp(gauss, out=gauss)
            if mass_floor[rows].min() <= LOG_TINY:
                dead = np.flatnonzero(mass_floor[rows] <= LOG_TINY)
                gauss[dead] = np.where(log_mass(dead) <= LOG_TINY, 0.0, gauss[dead])
            value = np.vdot(row_terms[rows], gauss @ col_terms[cols])
            if reference is not None:
                remainder = reference_remainder(rows, cols, cross, log_mass)
                remainder *= gauss
                value -= np.dot(p[rows], remainder @ q[cols])
            return float(value)

        def reference_remainder(rows, cols, cross, log_mass):
            # ln S = log_s_i - r_i^2 s_j^2 / 2 + remainder_ij, the two orders
            # averaged.  Order (a, b) is at least
            # log_sa_i - cross_max_i + min remainder_b on row i, and order
            # (b, a) likewise.
            r_k, s_k = r[rows], s[cols]
            remainder = fb.log_q_remainder(r_k, s_k)
            floor = log_sa[rows] - cross_max[rows] + remainder.min()
            if fa is not fb:
                remainder_a = fa.log_q_remainder(r_k, s_k)
                floor = np.minimum(floor, log_sb[rows] - cross_max[rows] + remainder_a.min())
                remainder += remainder_a
                remainder *= 0.5
            if floor.min() >= LOG_TINY:
                return remainder
            # The rule of ``_density_terms`` on the rows the bound flags,
            # then ln S put back in the remainder's form.
            at = np.flatnonzero(floor < LOG_TINY)
            r_b = np.outer(r_k[at], s_k)
            logs = log_sa[rows][at, None] + fb.log_q_radial(r_b)
            if fa is fb:
                under = logs < LOG_TINY
                np.maximum(logs, _LOG_FLOOR, out=logs)
            else:
                logs_ba = fa.log_q_radial(r_b) + log_sb[rows][at, None]
                under = (logs < LOG_TINY) | (logs_ba < LOG_TINY)
                logs = 0.5 * (np.maximum(logs, _LOG_FLOOR) + np.maximum(logs_ba, _LOG_FLOOR))
            _check_support(log_mass(at)[under])
            logs -= log_s[rows][at, None]
            logs -= cross(at)
            remainder[at] = logs
            return remainder

        values = []
        i = j = 0
        for r_k, _, s_k, _ in grids:
            values.append(level(slice(i, i + r_k.size), slice(j, j + s_k.size)))
            i += r_k.size
            j += s_k.size
        return values

    radial = max(2 * _PANEL_NODES, spec.radial_nodes // 4)
    base = (radial, max(2 * _PANEL_NODES, radial // 2))
    return _escalated([axes], lambda calls: [evaluate(grids) for _, grids, _ in calls], base,
                      lambda lv: (2 * lv[0], 2 * lv[1]), spec, what)[0]


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
    return _escalated([lambda m: (m, m**dim, m)],
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
    ``_AffineFactor``, offset + slope ln Q: the "noon" triangle reads the
    two numbers, and the other runners call it as
    ``factor_of_log(logq, out=None)``, which returns a scalar or an array;
    it may write into ``out`` (which the kernel sets to ``logq`` itself)
    or return ``logq`` unchanged.  Every runner clamps ln S at twice the
    underflow log, and raises SupportViolation at the first level where
    some node carries appreciable Q mass (above 1e-12) while S has
    underflowed (below 1e-300), so a divergence is reported even when
    the tolerance would not have been reached either: the 1D and
    cartesian runners through one kernel, ``_node_terms``, the triangle
    on the rows its axis bounds flag.

    The runner is picked here, and only here, by ``kind`` alone: radial
    when every density is "radial", the "noon" triangle when the
    evaluator is "noon" and the reference is absent or a product of two
    radial factors, cartesian otherwise.  "radial" promises
    ``log_q_radial``, ``radial_gamma_shape`` and ``radial_rate`` (and
    ``RadialHusimi`` adds ``log_q_remainder``); "noon" promises an
    exchange-symmetric density with ``angle_averaged_logs(r, s)``, axis
    factors on the triangle axes r_A = r, r_B = s r, and the same two tail
    parameters; "gaussian" promises that ln Q is exactly quadratic, with
    the covariance and mean ``gaussian_envelope`` returns (see
    ``_cartesian``).
    """
    densities = (evaluator,) if reference is None else (evaluator, reference)
    if all(d.kind == "radial" for d in densities):
        terms = functools.partial(_density_terms, evaluator.log_q_radial,
                                  None if reference is None else reference.log_q_radial,
                                  factor_of_log)
        tail = (max(d.radial_gamma_shape for d in densities),
                min(d.radial_rate for d in densities), (), 0.0)
        return _run_1d(lambda x, *_: terms(x), [tail], spec, what, radial=True)[0]
    if evaluator.kind == "noon" and (
        reference is None
        or (isinstance(reference, ProductHusimi)
            and reference.factor_a.kind == reference.factor_b.kind == "radial")
    ):
        return _run_triangle(evaluator, reference, factor_of_log, spec, what)
    return _cartesian(evaluator, reference, factor_of_log, spec, what)


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
    terms = functools.partial(_density_terms, evaluator.log_q,
                              None if reference is None else reference.log_q, factor_of_log)
    return _run_cartesian(evaluator.dim, envelope, terms, nodes_per_dim, spec, what)


@dataclass(frozen=True)
class _AffineFactor:
    """The factor offset + slope ln Q of a functional, at ln Q = ``logq``.

    Every functional the engine integrates is affine in ln Q: the "noon"
    triangle reads the two numbers, the other runners call the factor.
    A call returns the scalar offset when the slope is 0, ``logq`` itself
    at slope 1, and otherwise may write into ``out``.
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


def _stacked_kernel(members, name: str):
    """The stacked kernel ``name`` (see ``_run_1d``) every member's class shares, else None.

    A stack of one has none: it runs on its member's own method.
    """
    kernels = {getattr(type(m), name, None) for m in members}
    return kernels.pop() if len(members) > 1 and len(kernels) == 1 else None


def _stack(kernel, members, tails, spec: QuadratureSpec, what: str, *,
           radial: bool) -> list[IntegralResult]:
    """The entropy of each member, one ``_run_1d`` stack through ``kernel(members, x, counts)``."""

    def terms(x, at, counts):
        log = functools.partial(kernel, [members[i] for i in at], counts=counts)
        return _density_terms(log, None, _entropy_factor, x)

    return _run_1d(terms, tails, spec, what, radial=radial)


def entropy_functionals(evaluators, spec: QuadratureSpec | None = None) -> list[IntegralResult]:
    """``entropy_functional`` of each evaluator, to the same bits.

    Evaluators whose classes share a ``stacked_log_q_radial`` (radial
    ones, such as number states and their mixtures, or thermal states)
    run as one stack: each kernel call evaluates the first levels of
    many of them (see ``_run_1d``).  Any other list runs one evaluator
    at a time.  The first failure met is raised; the EUR sweeps then run
    their points one by one to name the first failing point.
    """
    spec = spec or QuadratureSpec()
    kernel = _stacked_kernel(evaluators, "stacked_log_q_radial")
    if kernel is None:
        return [entropy_functional(ev, spec) for ev in evaluators]
    tails = [(ev.radial_gamma_shape, ev.radial_rate, (), 0.0) for ev in evaluators]
    return _stack(kernel, evaluators, tails, spec, "entropy functional", radial=True)


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


def _line_tail(density: PositionDensity):
    return (density.position_gamma_shape, density.position_rate, density.breakpoints,
            density.position_tail_log_margin)


def _line(density: PositionDensity, factor_of_log, spec: QuadratureSpec | None,
          what: str) -> IntegralResult:
    terms = functools.partial(_density_terms, density.log_f, None, factor_of_log)
    return _run_1d(lambda x, *_: terms(x), [_line_tail(density)], spec or QuadratureSpec(),
                   what, radial=False)[0]


def density_entropy_1d(density: PositionDensity,
                       spec: QuadratureSpec | None = None) -> IntegralResult:
    """Differential entropy - integral of f ln f dx of an even line density."""
    return _line(density, _entropy_factor, spec, "line entropy")


def density_entropies_1d(densities, spec: QuadratureSpec | None = None) -> list[IntegralResult]:
    """``density_entropy_1d`` of each density, to the same bits.

    Densities whose classes share a ``stacked_log_f`` (number states and
    their mixtures) run as one stack, like ``entropy_functionals``, by
    descending largest index; any other list runs one density at a time.
    The first failure met in that order is raised.
    """
    spec = spec or QuadratureSpec()
    kernel = _stacked_kernel(densities, "stacked_log_f")
    if kernel is None:
        return [density_entropy_1d(d, spec) for d in densities]
    # The kernel's one Hermite recurrence needs the largest index (the
    # Gamma shape) to descend.
    order = sorted(range(len(densities)), key=lambda i: -densities[i].position_gamma_shape)
    ranked = [densities[i] for i in order]
    results = [None] * len(densities)
    for i, result in zip(order, _stack(kernel, ranked, [_line_tail(d) for d in ranked], spec,
                                       "line entropy", radial=False)):
        results[i] = result
    return results


def density_normalization_1d(density: PositionDensity,
                             spec: QuadratureSpec | None = None) -> IntegralResult:
    """Integral of an even line density f dx; one when normalized."""
    return _line(density, _unit_factor, spec, "line normalization")
