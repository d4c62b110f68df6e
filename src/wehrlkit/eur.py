"""Entropic uncertainty sums compared against the shared bound 1 + ln(pi).

An ``EurReport`` keeps three entropies of a single-mode state: the
phase-space entropy S_Q, the homodyne differential entropy h(x) = h(p)
and the spectral entropy S(rho).  Three left-hand sides follow from them:

  wl_lhs:  S_Q + ln(pi);
  bbm_lhs: h(x) + h(p), the homodyne sum;
  fl_lhs:  h(x) + h(p) - S(rho) + 1 - ln 2, the mixedness-corrected sum.

All three share the lower bound 1 + ln(pi).  The first saturates only
on coherent states; the second on every pure Gaussian state whose x and
p are uncorrelated, squeezed ones included; the third on thermal states
in the limit of vanishing beta omega.  Deficits are LHS minus bound, so
every deficit is nonnegative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

from .entropies import (
    LN_PI,
    _von_neumann,
    homodyne_entropy_thermal_closed,
    wehrl_fock_closed,
    wehrl_fock_stirling,
    wehrl_thermal_closed,
)
from .errors import ToolkitError, UnsupportedState, grid_point
from .husimi import evaluator_for, position_density_for
from .quadrature import QuadratureSpec, density_entropies_1d, entropy_functionals
from .states import (
    FockMixtureState,
    FockState,
    StateSpec,
    ThermalState,
    validate,
)

# The sharp lower bound 1 + ln(pi) shared by all three uncertainty sums.
BOUND = 1.0 + LN_PI
_FL_SHIFT = 1.0 - math.log(2.0)


@dataclass(frozen=True)
class EurReport:
    """The entropies of one single-mode state and its three uncertainty sums.

    ``wehrl`` is the phase-space entropy, closed-form wherever a closed
    form exists; ``cross_check_delta`` is then |closed form - quadrature|,
    else None.  ``homodyne`` is the differential entropy of the x
    marginal, which equals that of p for every accepted family, and
    ``von_neumann`` the spectral entropy.  The sums, and their deficits
    against ``bound``, are arithmetic on those three.
    """

    bound: ClassVar[float] = BOUND

    state: StateSpec
    wehrl: float
    homodyne: float
    von_neumann: float
    cross_check_delta: float | None = None

    @property
    def wl_lhs(self) -> float:
        return self.wehrl + LN_PI

    @property
    def bbm_lhs(self) -> float:
        return 2.0 * self.homodyne

    @property
    def fl_lhs(self) -> float:
        return 2.0 * self.homodyne - self.von_neumann + _FL_SHIFT

    @property
    def wl_deficit(self) -> float:
        return self.wl_lhs - self.bound

    @property
    def bbm_deficit(self) -> float:
        return self.bbm_lhs - self.bound

    @property
    def fl_deficit(self) -> float:
        return self.fl_lhs - self.bound


def eur_report(state: StateSpec, spec: QuadratureSpec | None = None) -> EurReport:
    """Entropies and uncertainty sums of a single-mode state.

    The phase-space entropy is integrated and, where ``wehrl_closed`` has
    a closed form, replaced by it with the difference kept as the
    cross-check.  The homodyne entropy is closed-form for thermal states
    and integrated otherwise; the spectral entropy is always closed-form.
    """
    return _reports([validate(state)], spec)[0]


def _reports(states, spec: QuadratureSpec | None) -> list[EurReport]:
    """``eur_report`` of each valid state, every integral family in one stack.

    Each state is routed once.  The phase-space entropies are one stack
    (``entropy_functionals``) and the integrated homodyne entropies
    another (``density_entropies_1d``), each to the bits of its integrals
    one by one; the first failure raises.  The sweeps pass the states
    they construct, which their constructors have validated.
    """
    for state in states:
        if not isinstance(state, (FockState, FockMixtureState, ThermalState)):
            raise UnsupportedState(
                f"uncertainty sums are single-mode; got {type(state).__name__}"
            )
    quads = entropy_functionals([evaluator_for(state) for state in states], spec)
    lines = iter(density_entropies_1d(
        [position_density_for(s) for s in states if not isinstance(s, ThermalState)], spec))
    reports = []
    for state, quad in zip(states, quads):
        quad = quad.value
        if isinstance(state, ThermalState):
            closed = wehrl_thermal_closed(state.beta_omega)
            homodyne = homodyne_entropy_thermal_closed(state.beta_omega)
        else:
            closed = wehrl_fock_closed(state.n) if isinstance(state, FockState) else None
            homodyne = next(lines).value
        delta = None if closed is None else abs(closed - quad)
        reports.append(EurReport(state, quad if closed is None else closed, homodyne,
                                 _von_neumann(state), delta))
    return reports


def wl_lhs_stirling(n: int) -> float:
    """Large-n phase-space sum: (1 + ln(2 pi n)) / 2 + ln pi."""
    return wehrl_fock_stirling(n) + LN_PI


def bbm_lhs_asymptotic(n: int) -> float:
    """Large-n homodyne sum: ln(2 pi^2 n) - 2.

    Envelope argument: the squared oscillator eigenfunction behaves like
    the classical arcsine density on (-sqrt(2n), sqrt(2n)) modulated by
    an oscillation that contributes ln 2 - 1 per marginal on average.
    """
    if n < 1:
        raise ValueError("the asymptotic form needs n >= 1")
    return math.log(2.0 * math.pi * math.pi * n) - 2.0


def _sweep(points, label: str, spec: QuadratureSpec | None):
    """(param, report) of each (param, state) grid point, built as one batch.

    If the batch fails, the points run again one by one, so the error
    raised is the first failing point's, with ``label.format(param)`` in
    front of a tolerance failure, as a point-by-point sweep raises it.
    """
    try:
        reports = _reports([state for _, state in points], spec)
    except ToolkitError:
        reports = [None] * len(points)
    out = []
    for (param, state), report in zip(points, reports):
        if report is None:
            with grid_point(label.format(param)):
                report = eur_report(state, spec)
        out.append((param, report))
    return out


def eur_sweep_fock(n_max: int, spec: QuadratureSpec | None = None):
    """Reports for |0> through |n_max>, as (n, report) pairs."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    return _sweep([(n, FockState(n)) for n in range(n_max + 1)], "n={}", spec)


def _mixture_state(q: float) -> StateSpec:
    """q |0><0| + (1 - q) |1><1| with the pure endpoints collapsed."""
    q = float(q)
    if q >= 1.0:
        return FockState(0)
    if q <= 0.0:
        return FockState(1)
    return FockMixtureState(((0, q), (1, 1.0 - q)))


def eur_sweep_mixture(steps: int = 51, spec: QuadratureSpec | None = None):
    """Reports along q |0><0| + (1-q) |1><1| for q on a uniform grid."""
    if steps < 2:
        raise ValueError("a sweep needs at least two points")
    grid = [i / (steps - 1) for i in range(steps)]
    return _sweep([(q, _mixture_state(q)) for q in grid], "q={:.6g}", spec)


def eur_sweep_thermal(beta_min: float = 0.05, beta_max: float = 20.0,
                      points: int = 60, spec: QuadratureSpec | None = None):
    """Reports on a geometric beta-omega grid, each phase-space entropy cross-checked.

    Every entropy of a thermal state has a closed form, so with
    b = beta omega the three sums are
      wl_lhs  = 1 + b/2 + ln((pi/2) csch(b/2)),
      bbm_lhs = 1 + ln(pi) - ln tanh(b/2),
      fl_lhs  = 2 + ln((pi/2)(1 - e^-b) / tanh(b/2)) - b/(e^b - 1).
    """
    if not 0.0 < beta_min < beta_max:
        raise ValueError("need 0 < beta_min < beta_max")
    if points < 2:
        raise ValueError("a sweep needs at least two points")
    ratio = (beta_max / beta_min) ** (1.0 / (points - 1))
    grid = [beta_min * ratio**i for i in range(points)]
    return _sweep([(b, ThermalState(b)) for b in grid], "beta_omega={:.6g}", spec)


def mixture_crossover(spec: QuadratureSpec | None = None) -> float | None:
    """Weight q where the homodyne and phase-space sums change order.

    On q |0><0| + (1-q) |1><1| the homodyne sum is the smaller of the
    two at q = 0 and the larger on most of the interval, so their
    difference changes sign at a small q.  The bracket [1e-3, 0.5] is
    sampled at 25 points, in order, up to the first sign change, whose
    root is then found by Illinois false position (see ``_illinois``)
    until two iterates differ by 1e-6 or less.  Returns that root, or
    None if the samples never straddle zero.
    """

    def gap(q: float) -> float:
        report = eur_report(_mixture_state(q), spec)
        return report.bbm_lhs - report.wl_lhs

    lo, hi = 1e-3, 0.5
    grid = [lo + (hi - lo) * i / 24 for i in range(25)]
    q0, g0 = grid[0], gap(grid[0])
    for q1 in grid[1:]:
        if g0 == 0.0:
            return q0
        g1 = gap(q1)
        if g0 * g1 < 0.0:
            return _illinois(gap, q0, g0, q1, g1, 1e-6)
        q0, g0 = q1, g1
    return None


def _illinois(f, q0: float, g0: float, q1: float, g1: float, xtol: float) -> float:
    """Root of f between q0 and q1, where f takes the values g0 and g1 of opposite sign.

    Illinois false position (Dowell and Jarratt, BIT 11, 1971): each
    iterate, the secant root through the bracket ends, becomes the end q1.
    The old q1 becomes q0 when the iterate changes sign; otherwise q0 is
    kept and its value halved, so the bracket closes from both sides and
    convergence stays superlinear.  Returns the first iterate within
    ``xtol`` of the one before it.
    """
    previous = math.inf
    while True:
        q = (q0 * g1 - q1 * g0) / (g1 - g0)
        if abs(q - previous) <= xtol:
            return q
        previous, g = q, f(q)
        if g == 0.0:
            return q
        if (g < 0.0) == (g1 < 0.0):
            g0 *= 0.5
        else:
            q0, g0 = q1, g1
        q1, g1 = q, g
