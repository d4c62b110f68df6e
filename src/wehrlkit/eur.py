"""Entropic uncertainty sums compared against the shared bound 1 + ln(pi).

Three left-hand sides are tracked for single-mode states:

  wl_lhs:  S_Q + ln(pi), with S_Q the phase-space entropy;
  bbm_lhs: h(x) + h(p), the homodyne differential entropies;
  fl_lhs:  h(x) + h(p) - S(rho) + 1 - ln 2, the mixedness-corrected sum.

All three share the lower bound 1 + ln(pi).  The first two saturate
only on coherent states; the third saturates on thermal states in the
limit of vanishing beta omega.  Deficits are LHS minus bound, so every
deficit is nonnegative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .entropies import (
    LN_E_PI,
    LN_PI,
    differential_entropy_marginal,
    homodyne_entropy_thermal_closed,
    von_neumann,
    wehrl_closed,
    wehrl_fock_stirling,
    wehrl_quadrature,
    wehrl_thermal_closed,
)
from .errors import UnsupportedState, grid_point
from .quadrature import QuadratureSpec
from .states import (
    FockMixtureState,
    FockState,
    StateSpec,
    ThermalState,
    validate,
)

BOUND = LN_E_PI
_FL_SHIFT = 1.0 - math.log(2.0)


@dataclass(frozen=True)
class EurReport:
    """The three uncertainty sums of one state against their common bound.

    ``cross_check_delta`` is |closed form - quadrature| of the
    phase-space entropy when a closed form exists, else None.
    """

    state: StateSpec
    wl_lhs: float
    bbm_lhs: float
    fl_lhs: float
    bound: float = BOUND
    cross_check_delta: float | None = None

    @property
    def wl_deficit(self) -> float:
        return self.wl_lhs - self.bound

    @property
    def bbm_deficit(self) -> float:
        return self.bbm_lhs - self.bound

    @property
    def fl_deficit(self) -> float:
        return self.fl_lhs - self.bound


def _assemble(state: StateSpec, wehrl: float, homodyne: float,
              spectral: float, delta: float | None) -> EurReport:
    return EurReport(
        state=state,
        wl_lhs=wehrl + LN_PI,
        bbm_lhs=2.0 * homodyne,
        fl_lhs=2.0 * homodyne - spectral + _FL_SHIFT,
        cross_check_delta=delta,
    )


def eur_report(state: StateSpec, spec: QuadratureSpec | None = None) -> EurReport:
    """Assemble the three uncertainty sums for a single-mode state.

    Closed forms are used where they exist (number and thermal states)
    and the quadrature engine confirms them; the absolute difference is
    reported.  Mixtures have no closed form and are pure quadrature.
    """
    validate(state)
    if not isinstance(state, (FockState, FockMixtureState, ThermalState)):
        raise UnsupportedState(
            f"uncertainty sums are single-mode; got {type(state).__name__}"
        )
    quad = wehrl_quadrature(state, spec).value
    if isinstance(state, (FockState, ThermalState)):
        wehrl = wehrl_closed(state)
        delta = abs(wehrl - quad)
    else:
        wehrl, delta = quad, None
    if isinstance(state, ThermalState):
        homodyne = homodyne_entropy_thermal_closed(state.beta_omega)
    else:
        homodyne = differential_entropy_marginal(state, spec).value
    return _assemble(state, wehrl, homodyne, von_neumann(state), delta)


def eur_thermal_closed(beta_omega: float) -> EurReport:
    """Fully closed-form report for a thermal state.

    The three sums reduce to
      bbm_lhs = 1 + ln(pi) - ln tanh(b/2),
      fl_lhs  = 2 + ln((pi/2)(1 - e^-b) / tanh(b/2)) - b/(e^b - 1),
      wl_lhs  = 1 + b/2 + ln((pi/2) csch(b/2)),
    with b = beta omega.
    """
    b = float(beta_omega)
    if b <= 0:
        raise ValueError("beta omega must be positive")
    return _assemble(
        ThermalState(b),
        wehrl_thermal_closed(b),
        homodyne_entropy_thermal_closed(b),
        b / math.expm1(b) - math.log(-math.expm1(-b)),
        None,
    )


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


def _report_at(param, label: str, state: StateSpec, spec: QuadratureSpec | None):
    """(param, report) of one grid point; a tolerance failure names the point."""
    with grid_point(label):
        return param, eur_report(state, spec)


def eur_sweep_fock(n_max: int, spec: QuadratureSpec | None = None):
    """Reports for |0> through |n_max>, as (n, report) pairs."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    return [_report_at(n, f"n={n}", FockState(n), spec) for n in range(n_max + 1)]


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
    return [_report_at(q, f"q={q:.6g}", _mixture_state(q), spec) for q in grid]


def eur_sweep_thermal(beta_min: float = 0.05, beta_max: float = 20.0,
                      points: int = 60, spec: QuadratureSpec | None = None):
    """Closed-form reports on a geometric beta-omega grid, cross-checked."""
    if not 0.0 < beta_min < beta_max:
        raise ValueError("need 0 < beta_min < beta_max")
    if points < 2:
        raise ValueError("a sweep needs at least two points")
    ratio = (beta_max / beta_min) ** (1.0 / (points - 1))
    grid = [beta_min * ratio**i for i in range(points)]
    return [_report_at(b, f"beta_omega={b:.6g}", ThermalState(b), spec) for b in grid]


def mixture_crossover(spec: QuadratureSpec | None = None,
                      bracket: tuple[float, float] = (1e-3, 0.5),
                      xtol: float = 1e-6) -> float | None:
    """Weight q where the homodyne and phase-space sums change order.

    On q |0><0| + (1-q) |1><1| the homodyne sum is the smaller of the
    two at q = 0 and the larger on most of the interval, so their
    difference changes sign at a small q.  The bracket is sampled at 25
    points, in order, up to the first sign change, which is then bisected
    to a width of ``xtol``.  Returns that root, or None if the samples
    never straddle zero.
    """

    def gap(q: float) -> float:
        report = eur_report(_mixture_state(q), spec)
        return report.bbm_lhs - report.wl_lhs

    lo, hi = bracket
    grid = [lo + (hi - lo) * i / 24 for i in range(25)]
    q0, g0 = grid[0], gap(grid[0])
    for q1 in grid[1:]:
        if g0 == 0.0:
            return q0
        g1 = gap(q1)
        if g0 * g1 < 0.0:
            return _bisect(gap, q0, g0, q1, xtol)
        q0, g0 = q1, g1
    return None


def _bisect(f, lo: float, f_lo: float, hi: float, xtol: float) -> float:
    """Midpoint of a bracket of a sign change of f, halved to width xtol."""
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
