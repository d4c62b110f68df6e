"""Reference values computed without the wehrlkit package.

Every check of the benchmark compares a program output with a value
from this module.  Nothing here imports wehrlkit: closed forms are coded
from their formulas, and the integrals use scipy's own routines, so a
fault in the program cannot hide behind the same fault in its oracle.

Conventions follow the package: per-mode ordering (x_1, p_1, x_2, ...)
with subsystem A first, vacuum variance 1/2, Husimi precision
C = (V + 1/2)^-1 and phase-space measure d^n x d^n p / (2 pi)^n.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import eval_hermite

EULER_GAMMA = 0.57721566490153286061
LN_PI = math.log(math.pi)


# ---------------------------------------------------------------------------
# Gaussian states
# ---------------------------------------------------------------------------


def tmss_mutual_information(lam: float) -> float:
    """Heterodyne mutual information of two-mode squeezing: -ln(1 - lam^2)."""
    return -math.log1p(-lam * lam)


def tmss_quantum_mutual_information(lam: float) -> float:
    """2 [(nbar + 1) ln(nbar + 1) - nbar ln nbar], nbar = lam^2 / (1 - lam^2)."""
    nbar = lam * lam / (1.0 - lam * lam)
    if nbar == 0.0:
        return 0.0
    return 2.0 * ((nbar + 1.0) * math.log(nbar + 1.0) - nbar * math.log(nbar))


def omega(n_modes: int) -> np.ndarray:
    """Symplectic form in per-mode ordering."""
    out = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        out[2 * k, 2 * k + 1] = 1.0
        out[2 * k + 1, 2 * k] = -1.0
    return out


def _passive(rng: np.random.Generator, n_modes: int) -> np.ndarray:
    """Orthogonal symplectic map of a Haar-random mode unitary.

    The unitary U acts on the amplitudes (x + i p) / sqrt(2); block (j, k)
    of the real map is [[Re U, -Im U], [Im U, Re U]].
    """
    z = rng.normal(size=(n_modes, n_modes)) + 1j * rng.normal(size=(n_modes, n_modes))
    q, r = np.linalg.qr(z)
    u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    out = np.empty((2 * n_modes, 2 * n_modes))
    out[0::2, 0::2] = u.real
    out[0::2, 1::2] = -u.imag
    out[1::2, 0::2] = u.imag
    out[1::2, 1::2] = u.real
    return out


def random_symplectic(rng: np.random.Generator, n_modes: int,
                      max_squeeze: float) -> np.ndarray:
    """S = O_1 Z O_2 with Haar passive factors and a diagonal squeezer."""
    kappa = rng.uniform(-max_squeeze, max_squeeze, size=n_modes)
    z = np.empty(2 * n_modes)
    z[0::2] = np.exp(kappa)
    z[1::2] = np.exp(-kappa)
    s = _passive(rng, n_modes) @ np.diag(z) @ _passive(rng, n_modes)
    err = np.max(np.abs(s.T @ omega(n_modes) @ s - omega(n_modes)))
    if err > 1e-10:
        raise ArithmeticError(f"generated map is not symplectic (error {err:.2e})")
    return s


def covariance(nus, s: np.ndarray) -> np.ndarray:
    """V = S^T diag(nu_1, nu_1, nu_2, nu_2, ...) S; its symplectic spectrum is nu."""
    d = np.repeat(np.asarray(nus, dtype=float), 2)
    v = s.T @ np.diag(d) @ s
    return 0.5 * (v + v.T)


def _logdet(m: np.ndarray) -> float:
    sign, value = np.linalg.slogdet(m)
    if sign <= 0:
        raise ArithmeticError("matrix is not positive definite")
    return float(value)


def husimi_precision(v: np.ndarray) -> np.ndarray:
    return np.linalg.inv(v + 0.5 * np.eye(v.shape[0]))


def gaussian_mutual_information(v: np.ndarray, modes_a: int) -> float:
    """(ln det C_A + ln det C_B - ln det C) / 2 from V."""
    c = husimi_precision(v)
    k = 2 * modes_a
    return 0.5 * (_logdet(c[:k, :k]) + _logdet(c[k:, k:]) - _logdet(c))


def gaussian_conditional_entropy(v: np.ndarray, modes_a: int) -> float:
    """n_A - ln det C_A / 2."""
    c = husimi_precision(v)
    k = 2 * modes_a
    return modes_a - 0.5 * _logdet(c[:k, :k])


def gaussian_wehrl_joint(v: np.ndarray) -> float:
    """-ln det C / 2 + number of modes."""
    return -0.5 * _logdet(husimi_precision(v)) + v.shape[0] // 2


def gaussian_von_neumann(nus) -> float:
    """Sum of (nu + 1/2) ln(nu + 1/2) - (nu - 1/2) ln(nu - 1/2) over the spectrum."""
    total = 0.0
    for nu in nus:
        if nu > 0.5:
            total += (nu + 0.5) * math.log(nu + 0.5) - (nu - 0.5) * math.log(nu - 0.5)
    return total


# ---------------------------------------------------------------------------
# Number states, thermal states and the excitation superposition
# ---------------------------------------------------------------------------


def harmonic(n: int) -> float:
    return math.fsum(1.0 / k for k in range(1, n + 1))


def fock_wl_lhs(n: int) -> float:
    """ln n! + n + 1 + n gamma - n H_n + ln pi."""
    return math.lgamma(n + 1) + n + 1.0 + n * EULER_GAMMA - n * harmonic(n) + LN_PI


def fock_bbm_lhs(n: int, points: int = 400_001) -> float:
    """2 h(psi_n^2) by a dense trapezoid rule on the physicists' Hermite form.

    psi_n(x)^2 = H_n(x)^2 e^{-x^2} / (sqrt(pi) 2^n n!); the grid reaches
    eight units beyond the classical turning point sqrt(2n + 1).
    """
    half = math.sqrt(2.0 * n + 1.0) + 8.0
    x = np.linspace(-half, half, points)
    h = eval_hermite(n, x)
    log_norm = 0.5 * LN_PI + n * math.log(2.0) + math.lgamma(n + 1)
    with np.errstate(divide="ignore"):
        log_f = 2.0 * np.log(np.abs(h)) - x * x - log_norm
    f = np.exp(log_f)
    live = f > 0.0
    g = np.zeros_like(f)
    g[live] = -f[live] * log_f[live]
    dx = x[1] - x[0]
    entropy = dx * (np.sum(g) - 0.5 * (g[0] + g[-1]))
    return 2.0 * entropy


def thermal_lhs(b: float) -> dict:
    """The three sums of a thermal state from the closed forms of the library docs.

      bbm_lhs = 1 + ln(pi) - ln tanh(b/2)
      fl_lhs  = 2 + ln((pi/2)(1 - e^-b) / tanh(b/2)) - b/(e^b - 1)
      wl_lhs  = 1 + b/2 + ln((pi/2) csch(b/2))
    """
    t = math.tanh(0.5 * b)
    return {
        "bbm_lhs": 1.0 + LN_PI - math.log(t),
        "fl_lhs": 2.0 + math.log(0.5 * math.pi * -math.expm1(-b) / t) - b / math.expm1(b),
        "wl_lhs": 1.0 + 0.5 * b + math.log(0.5 * math.pi) - math.log(math.sinh(0.5 * b)),
    }


def noon_marginal_entropy(n: int) -> float:
    """-integral Q ln Q of Q(r) = e^{-r^2/2} (r^2n + 2^n n!) / (2^(n+1) n!).

    With u = r^2 / 2 the measure r dr becomes du and
    Q = e^{-u} (u^n + n!) / (2 n!); the integral is taken by QUADPACK.
    """
    # Imported here: the package does not load scipy.integrate, and the
    # set-up time of a run should not pay for the checks.
    from scipy.integrate import quad

    log_fact = math.lgamma(n + 1)

    def integrand(u: float) -> float:
        log_poly = np.logaddexp(n * math.log(u), log_fact) if u > 0.0 else (
            log_fact if n > 0 else math.log(2.0))
        log_q = -u + log_poly - math.log(2.0) - log_fact
        return -math.exp(log_q) * log_q

    upper = 2.0 * n + 60.0
    value, _ = quad(integrand, 0.0, upper, points=[max(n, 1)], limit=400,
                    epsabs=1e-13, epsrel=1e-12)
    return value
