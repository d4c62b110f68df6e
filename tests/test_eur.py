"""Entropic uncertainty relation reports, sweeps, and the mixture crossover."""

import math

import numpy as np
import pytest

import wehrlkit.eur
from wehrlkit import (
    FockMixtureState,
    FockState,
    NoonState,
    QuadratureSpec,
    ThermalState,
    ToleranceNotReached,
    TwoModeSqueezedState,
    UnsupportedState,
    bbm_lhs_asymptotic,
    eur_report,
    eur_sweep_fock,
    eur_sweep_mixture,
    eur_sweep_thermal,
    mixture_crossover,
    wl_lhs_stirling,
)
from wehrlkit.errors import grid_point
from wehrlkit.eur import _mixture_state, _sweep

BOUND = 1.0 + math.log(math.pi)


def test_bound_constant():
    rep = eur_report(FockState(0))
    assert abs(rep.bound - BOUND) < 1e-15
    assert abs(BOUND - 2.1447298858494002) < 1e-12


def test_vacuum_saturates_both_relations():
    rep = eur_report(FockState(0))
    assert abs(rep.wl_deficit) < 1e-9
    assert abs(rep.bbm_deficit) < 1e-9
    # the majorization-strengthened lhs keeps a strictly positive margin
    assert rep.fl_deficit > 0.3


def test_first_excited_state_pinned_values():
    rep = eur_report(FockState(1))
    assert abs(rep.wl_lhs - 2.722) < 0.005
    assert abs(rep.bbm_lhs - 2.69) < 0.01
    # frozen to the values both engines agree on
    assert abs(rep.wl_lhs - 2.7219455507509327) < 1e-8
    assert abs(rep.bbm_lhs - 2.6854555765111026) < 1e-8
    assert rep.cross_check_delta is not None and rep.cross_check_delta < 1e-6


def test_second_excited_state_pinned_values():
    rep = eur_report(FockState(2))
    assert abs(rep.wl_lhs - 2.992) < 0.001
    assert abs(rep.bbm_lhs - 2.997) < 0.001


def test_fock_deficit_ordering_with_single_exception():
    """The phase-space relation is the tighter one except at n = 1."""
    for n in range(0, 13):
        rep = eur_report(FockState(n))
        if n == 0:
            assert abs(rep.wl_deficit - rep.bbm_deficit) < 1e-8
        elif n == 1:
            assert rep.bbm_deficit < rep.wl_deficit
        else:
            assert rep.wl_deficit < rep.bbm_deficit


def test_all_three_relations_hold_on_fock_states():
    for n in (0, 1, 2, 5, 9):
        rep = eur_report(FockState(n))
        assert rep.wl_deficit >= -1e-9
        assert rep.bbm_deficit >= -1e-9
        assert rep.fl_deficit >= -1e-9


def test_asymptotic_forms_track_closed_values():
    gaps_wl = []
    gaps_bbm = []
    for n in (20, 50):
        rep = eur_report(FockState(n))
        gaps_wl.append(abs(rep.wl_lhs - wl_lhs_stirling(n)))
        gaps_bbm.append(abs(rep.bbm_lhs - bbm_lhs_asymptotic(n)))
    assert gaps_wl[0] < 0.01 and gaps_wl[1] < 0.005
    assert gaps_wl[1] < gaps_wl[0]
    # the homodyne asymptote is a leading-log form; it closes in slowly
    assert gaps_bbm[0] < 0.6 and gaps_bbm[1] < 0.45
    assert gaps_bbm[1] < gaps_bbm[0]


def test_lhs_slopes_in_log_n():
    """Growth rates of the two relations against ln n.

    The phase-space lhs tracks (1/2) ln n almost immediately.  The
    homodyne lhs approaches slope 1 only from below: the turning-point
    regions of the number-state densities contribute an O(n^(-1/3))
    entropy excess, which still steals about 0.17 of slope over this
    window.  Frozen against scipy.quad and trapezoid oracles.
    """
    ns = np.array([20, 28, 38, 50])
    wl = []
    bbm = []
    for n in ns:
        rep = eur_report(FockState(int(n)))
        wl.append(rep.wl_lhs)
        bbm.append(rep.bbm_lhs)
    slope_wl = np.polyfit(np.log(ns), wl, 1)[0]
    slope_bbm = np.polyfit(np.log(ns), bbm, 1)[0]
    assert 0.45 <= slope_wl <= 0.55
    assert 0.78 <= slope_bbm <= 0.88
    assert abs(slope_bbm - 0.8287701191782056) < 1e-6


# ---------------------------------------------------------------------------
# Thermal family
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("state", [
    FockState(3),
    FockMixtureState(((0, 0.3), (1, 0.7))),
    ThermalState(0.7),
], ids=["fock-3", "mixture-0.3", "thermal-0.7"])
def test_eur_report_sums_are_arithmetic_on_its_entropies(state):
    rep = eur_report(state)
    assert rep.wl_lhs == rep.wehrl + math.log(math.pi)
    assert rep.bbm_lhs == 2.0 * rep.homodyne
    assert rep.fl_lhs == 2.0 * rep.homodyne - rep.von_neumann + (1.0 - math.log(2.0))
    # only the mixture lacks a closed-form phase-space entropy to cross-check
    assert (rep.cross_check_delta is None) is isinstance(state, FockMixtureState)


def test_thermal_closed_formulas():
    b = 0.8
    rep = eur_report(ThermalState(b))
    want_wl = 1.0 + 0.5 * b + math.log(0.5 * math.pi / math.sinh(0.5 * b))
    want_bbm = 1.0 + math.log(math.pi) - math.log(math.tanh(0.5 * b))
    assert abs(rep.wl_lhs - want_wl) < 1e-12
    assert abs(rep.bbm_lhs - want_bbm) < 1e-12
    with pytest.raises(ValueError):
        eur_report(ThermalState(0.0))


def test_thermal_ground_state_limit():
    # large beta_omega approaches the vacuum, where both deficits vanish
    rep = eur_report(ThermalState(20.0))
    assert rep.bbm_deficit < 1e-6
    assert rep.wl_deficit < 1e-6


def test_thermal_high_temperature_strengthened_relation():
    # the purity-corrected deficit shrinks like (beta omega)^2 / 24
    b = 0.05
    rep = eur_report(ThermalState(b))
    assert rep.fl_deficit == pytest.approx(b * b / 24.0, rel=0.01)


def test_thermal_deficits_monotone_in_temperature():
    bs = np.geomspace(0.05, 20.0, 25)
    wl = [eur_report(ThermalState(float(b))).wl_deficit for b in bs]
    bbm = [eur_report(ThermalState(float(b))).bbm_deficit for b in bs]
    # hotter states are further from saturation
    assert all(x >= y - 1e-12 for x, y in zip(wl, wl[1:]))
    assert all(x >= y - 1e-12 for x, y in zip(bbm, bbm[1:]))


# ---------------------------------------------------------------------------
# Sweeps and the mixture crossover
# ---------------------------------------------------------------------------


def test_eur_sweep_fock_rows():
    rows = eur_sweep_fock(3)
    assert len(rows) == 4
    assert [grid for grid, _ in rows] == [0, 1, 2, 3]
    assert all(rep.state.n == grid for grid, rep in rows)
    assert all(rep.wl_deficit >= -1e-9 for _, rep in rows)


def test_eur_sweep_mixture_endpoints_match_fock():
    rows = eur_sweep_mixture(3)
    assert len(rows) == 3
    assert [grid for grid, _ in rows] == [0.0, 0.5, 1.0]
    pure1 = eur_report(FockState(1))
    pure0 = eur_report(FockState(0))
    # the grid runs from q = 0 (all |1>) to q = 1 (all |0>)
    assert abs(rows[0][1].wl_lhs - pure1.wl_lhs) < 1e-9
    assert abs(rows[-1][1].wl_lhs - pure0.wl_lhs) < 1e-9


def test_eur_sweep_thermal_grid():
    rows = eur_sweep_thermal(0.1, 10.0, 7)
    assert len(rows) == 7
    assert rows[0][0] == pytest.approx(0.1)
    assert rows[-1][0] == pytest.approx(10.0)
    assert rows[0][1].state.beta_omega == pytest.approx(0.1)


def test_mixture_crossover_location(monkeypatch):
    """The two relations swap tightness at a small vacuum weight.

    The solver reports where the gap changes sign; the location is a
    property of the family, not an input, so bracket it, then check that
    the gap changes sign within 1e-7 of it.  The gap is smooth there, so
    false position needs far fewer reports than halving the bracket.
    """
    calls = []

    def counted(state, spec=None):
        calls.append(state)
        return eur_report(state, spec)

    monkeypatch.setattr(wehrlkit.eur, "eur_report", counted)
    q = mixture_crossover()
    assert 0.0 < q < 0.2
    assert len(calls) <= 8
    gap = lambda rep: rep.bbm_lhs - rep.wl_lhs

    def report(qq):
        return eur_report(FockMixtureState(((0, qq), (1, 1.0 - qq))))

    assert gap(report(q + 0.02)) * gap(report(max(q - 0.02, 1e-4))) < 0.0
    assert gap(report(q + 1e-7)) * gap(report(q - 1e-7)) < 0.0


def test_eur_report_rejects_unsupported_families():
    with pytest.raises(UnsupportedState):
        eur_report(TwoModeSqueezedState(0.5))
    with pytest.raises(UnsupportedState):
        eur_report(NoonState(1))


def test_mixture_report_lies_above_the_entropy_chord():
    # mixing is entropy-concave, so the half-half point sits above the
    # average of the endpoints (and may exceed both)
    rep = eur_report(FockMixtureState(((0, 0.5), (1, 0.5))))
    lo = eur_report(FockState(0))
    hi = eur_report(FockState(1))
    assert rep.bbm_lhs > 0.5 * (lo.bbm_lhs + hi.bbm_lhs)
    assert rep.wl_lhs > 0.5 * (lo.wl_lhs + hi.wl_lhs)


def _first_failure(points, spec):
    """The error a point-by-point sweep over (label, state) points raises, as text."""
    for label, state in points:
        try:
            with grid_point(label):
                eur_report(state, spec)
        except ToleranceNotReached as exc:
            return str(exc)
    return None


def test_a_failing_thermal_sweep_names_its_first_failing_point():
    # at 32 radial nodes the first 14 points meet 1e-15 and most later ones do not
    spec = QuadratureSpec(abs_tol=1e-15, rel_tol=1e-15, max_escalations=0, radial_nodes=32)
    ratio = (20.0 / 0.05) ** (1.0 / 59)
    grid = [0.05 * ratio**i for i in range(60)]
    want = _first_failure([(f"beta_omega={b:.6g}", ThermalState(b)) for b in grid], spec)
    assert want.startswith(f"beta_omega={grid[14]:.6g}: entropy functional:")
    with pytest.raises(ToleranceNotReached) as err:
        eur_sweep_thermal(spec=spec)
    assert str(err.value) == want


def test_a_failing_mixture_sweep_names_its_first_point_and_its_wehrl_integral_first():
    # q = 0 misses 1e-15 in both its integrals, the phase-space one first
    spec = QuadratureSpec(abs_tol=1e-15, rel_tol=1e-15, max_escalations=0)
    grid = [i / 100 for i in range(101)]
    want = _first_failure([(f"q={q:.6g}", _mixture_state(q)) for q in grid], spec)
    assert want.startswith("q=0: entropy functional:")
    with pytest.raises(ToleranceNotReached) as err:
        eur_sweep_mixture(101, spec)
    assert str(err.value) == want


def test_a_batch_failure_is_the_first_failing_points_not_the_first_failing_stacks():
    # at 128 radial nodes q = 0.1 misses 1e-15 only in its homodyne entropy and
    # q = 0.05 in its phase-space one: the phase-space stack fails first, but
    # the sweep names the earlier point
    spec = QuadratureSpec(abs_tol=1e-15, rel_tol=1e-15, max_escalations=0, radial_nodes=128)
    points = [(q, _mixture_state(q)) for q in (0.1, 0.05, 0.5)]
    want = _first_failure([(f"q={q:.6g}", state) for q, state in points], spec)
    assert want.startswith("q=0.1: line entropy:")
    with pytest.raises(ToleranceNotReached) as err:
        _sweep(points, "q={:.6g}", spec)
    assert str(err.value) == want
