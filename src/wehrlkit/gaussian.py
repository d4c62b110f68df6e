"""Covariance-matrix algebra for Gaussian states in phase space.

Coordinate convention
---------------------
Phase-space vectors are ordered per mode, ``(x_1, p_1, ..., x_n, p_n)``,
with every mode of subsystem A preceding every mode of subsystem B.  For
one mode on each side this coincides with ``(x_A, p_A, x_B, p_B)``; a
matrix written in the grouped convention ``(x_A.., p_A.., x_B.., p_B..)``
maps onto this one via :func:`from_grouped_ordering`.

A zero-mean Gaussian state is described either by its quadrature
covariance ``V`` or by the positive-definite matrix ``C = (V + 1/2)^-1``
that acts as the precision matrix of its Husimi density

    Q(r) = sqrt(det C) * exp(-r^T C r / 2),

normalized against the measure ``d^n x d^n p / (2 pi)^n``.  Physical
covariances have every symplectic eigenvalue >= 1/2; pure states attain
1/2 exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateBlock,
    DimensionMismatch,
    InadmissibleCovariance,
    LambdaOutOfRange,
    NonSymmetric,
    NotBipartite,
    NotPure,
    SingularMatrix,
)

# Slack below 1/2 tolerated when testing symplectic admissibility.
SYMPLECTIC_SLACK = 1e-10
# Slack above 1/2 tolerated when calling a state pure by its symplectic
# eigenvalues.
PURITY_SLACK = 1e-7
# A mutual information within MI_ROUNDING_SLACK of 0, of either sign, is
# rounding noise on a quantity that vanishes on products, and is reported
# as 0.
MI_ROUNDING_SLACK = 1e-12
# Conjugate symplectic eigenvalues must agree to this relative tolerance.
_PAIR_TOL = 1e-9
# Largest two-mode squeezing parameter accepted.  The rounding error of the
# spectrum of the covariance grows like eps * cond(V) ~ eps / (1 - lam)^2;
# up to this bound the pure spectrum stays within SYMPLECTIC_SLACK of 1/2.
LAMBDA_MAX = 0.998
# ``from_v`` refuses a V whose smallest symplectic eigenvalue, or smallest
# eigenvalue, is at most _SPECTRUM_ROUNDING * dim * max|V|: such a value
# cannot be told from 0.  ``eigvals`` is backward stable, so the spectrum
# it returns is that of Omega V + E with ||E|| of order eps * ||V|| <=
# eps * dim * max|V|: the exactly singular s [[1, 1], [1, 1]] comes out at
# about 0.4 eps * dim * s for every s, and four eps keeps a factor ten above
# that.  A rank-one s u u^T can still err by sqrt(eps) s, hence the test of
# the eigenvalue, which V > 0 passes (a diagonal squeezed vacuum up to
# r = 8.5).  The floor stays far below 1/2 wherever the spectrum is trusted:
# about 9e-13 for the two-mode squeezed state at LAMBDA_MAX (entries ~250).
_SPECTRUM_ROUNDING = 4.0 * np.finfo(float).eps


@dataclass(frozen=True)
class ModePartition:
    """Mode counts of subsystems A and B; monopartite states use n_b = 0."""

    n_a: int
    n_b: int = 0

    def __post_init__(self):
        if int(self.n_a) != self.n_a or int(self.n_b) != self.n_b:
            raise ValueError("mode counts must be integers")
        if self.n_a < 1:
            raise ValueError("subsystem A needs at least one mode")
        if self.n_b < 0:
            raise ValueError("mode counts cannot be negative")

    @property
    def n_modes(self) -> int:
        return self.n_a + self.n_b

    @property
    def dim(self) -> int:
        return 2 * self.n_modes

    @property
    def bipartite(self) -> bool:
        return self.n_b > 0


@functools.lru_cache(maxsize=None)
def _symplectic_form(n_modes: int) -> np.ndarray:
    form = np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    form.setflags(write=False)
    return form


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal symplectic form, one [[0, 1], [-1, 0]] block per mode.

    The array is built once per mode count, cached and read-only: every
    call returns the same object, so a caller copies it before writing.
    """
    return _symplectic_form(n_modes)


def from_grouped_ordering(matrix: np.ndarray) -> np.ndarray:
    """Reorder a matrix from (x_1.., x_n, p_1.., p_n) to per-mode ordering.

    The permutation sends grouped slot ``i`` (an x) to ``2 i`` and grouped
    slot ``n + i`` (a p) to ``2 i + 1``.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
        raise DimensionMismatch("expected a square even-dimensional matrix")
    n = m.shape[0] // 2
    idx = np.empty(2 * n, dtype=int)
    idx[0::2] = np.arange(n)
    idx[1::2] = n + np.arange(n)
    return m[np.ix_(idx, idx)]


def _check_symmetric(v: np.ndarray, label: str = "matrix") -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.ndim != 2 or v.shape[0] != v.shape[1] or v.shape[0] % 2:
        raise DimensionMismatch(f"{label} must be square with even dimension")
    scale = max(1.0, float(np.max(np.abs(v))))
    if np.max(np.abs(v - v.T)) > 1e-8 * scale:
        raise NonSymmetric(f"{label} is not symmetric")
    # Halved before the sum, which cannot then overflow.
    return 0.5 * v + 0.5 * v.T


def symplectic_eigenvalues(v: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a symmetric covariance matrix, ascending.

    The eigenvalues of ``i Omega V`` come in +/- pairs; the returned array
    holds one modulus per pair, obtained by pairing the sorted moduli and
    averaging within each pair.
    """
    return _symplectic_spectrum(_check_symmetric(v, "covariance"))


def _symplectic_spectrum(v: np.ndarray) -> np.ndarray:
    """``symplectic_eigenvalues`` of a V that ``_check_symmetric`` already returned."""
    n = v.shape[0] // 2
    moduli = np.sort(np.abs(np.linalg.eigvals(symplectic_form(n) @ v)))
    lo, hi = moduli[0::2], moduli[1::2]
    mismatch = np.abs(hi - lo) / np.maximum(1.0, hi)
    if np.max(mismatch) > 100 * _PAIR_TOL:
        # Genuinely unpaired spectra do not occur for symmetric input; a
        # large mismatch signals severe rounding, so refuse to guess.
        raise SingularMatrix("could not pair symplectic eigenvalues")
    # Halved before the sum, which cannot then overflow.
    return np.sort(0.5 * lo + 0.5 * hi)


@dataclass(frozen=True)
class CovarianceModel:
    """Validated covariance pair (V, C) with a fixed A/B mode split.

    ``spectrum`` is the symplectic spectrum of V, ascending.  ``from_v``
    computes it for its admissibility check and keeps it; a model built
    by ``reduced`` computes it only when it is first read.

    ``reduced`` does not re-check the block it keeps.  A principal block
    of V + i Omega / 2 >= 0 is again >= 0 (Simon, Mukunda & Dutta, PRA 49,
    1567 (1994)), and by symplectic interlacing (Bhatia & Jain, J. Math.
    Phys. 56, 112201 (2015)) the smallest symplectic eigenvalue of the
    block is no smaller than that of V, while its largest entry is no
    larger: the block passes every check its parent passed.
    """

    v: np.ndarray
    c: np.ndarray
    partition: ModePartition

    @classmethod
    def from_v(cls, v: np.ndarray, partition: ModePartition) -> "CovarianceModel":
        v = _check_symmetric(v, "covariance")
        if v.shape[0] != partition.dim:
            raise DimensionMismatch(
                f"covariance is {v.shape[0]}x{v.shape[0]} but the partition "
                f"needs dimension {partition.dim}"
            )
        spectrum = _symplectic_spectrum(v)
        nu_min = float(spectrum[0])
        if nu_min < 0.5 - SYMPLECTIC_SLACK:
            raise InadmissibleCovariance(
                f"minimum symplectic eigenvalue {nu_min:.6g} is below 1/2",
                min_symplectic=nu_min,
            )
        floor = _SPECTRUM_ROUNDING * v.shape[0] * float(np.max(np.abs(v)))
        lowest = float(np.linalg.eigvalsh(v)[0])
        if min(nu_min, lowest) <= floor:
            raise InadmissibleCovariance(
                f"minimum symplectic eigenvalue {nu_min:.6g} or smallest eigenvalue "
                f"{lowest:.6g} is within the rounding floor {floor:.3g} of this covariance "
                f"and cannot be told from 0",
                min_symplectic=nu_min,
            )
        model = cls._from_symmetric(v, partition)
        spectrum.setflags(write=False)
        # Stored where the cached property keeps its value: never computed twice.
        model.__dict__["spectrum"] = spectrum
        return model

    @classmethod
    def _from_symmetric(cls, v: np.ndarray, partition: ModePartition) -> "CovarianceModel":
        """Model of an exactly symmetric, admissible V, which it freezes; no check."""
        m = v + 0.5 * np.eye(v.shape[0])
        try:
            c = np.linalg.solve(m, np.eye(v.shape[0]))
        except np.linalg.LinAlgError as exc:  # pragma: no cover - admissible V + 1/2 is PD
            raise SingularMatrix("V + 1/2 could not be inverted") from exc
        c = 0.5 * (c + c.T)
        for frozen in (v, c):
            frozen.setflags(write=False)
        return cls(v=v, c=c, partition=partition)

    @functools.cached_property
    def spectrum(self) -> np.ndarray:
        """Symplectic spectrum of V, ascending and read-only."""
        spectrum = _symplectic_spectrum(self.v)
        spectrum.setflags(write=False)
        return spectrum

    @property
    def dim(self) -> int:
        return self.partition.dim

    @property
    def n_modes(self) -> int:
        return self.partition.n_modes

    @property
    def pure(self) -> bool:
        """Every symplectic eigenvalue is 1/2, up to PURITY_SLACK."""
        return bool(np.all(self.spectrum <= 0.5 + PURITY_SLACK))

    @functools.cached_property
    def _witness(self) -> tuple[float, float]:
        """The pair of ``gaussian_witness``, computed on first use."""
        if not self.partition.bipartite:
            raise NotBipartite("witness quantities need a bipartite state")
        ld_c = _logdet(self.c, "C")
        ld_a = _logdet(self.c_a, "C_A")
        ld_b = _logdet(self.c_b, "C_B")
        conditional = self.partition.n_a - 0.5 * ld_a
        mutual = 0.5 * (ld_a + ld_b - ld_c)
        if abs(mutual) < MI_ROUNDING_SLACK:
            mutual = 0.0
        return conditional, mutual

    def _split(self) -> int:
        return 2 * self.partition.n_a

    @property
    def c_a(self) -> np.ndarray:
        k = self._split()
        return self.c[:k, :k]

    @property
    def c_b(self) -> np.ndarray:
        k = self._split()
        return self.c[k:, k:]

    @property
    def c_m(self) -> np.ndarray:
        k = self._split()
        return self.c[:k, k:]

    @property
    def v_a(self) -> np.ndarray:
        k = self._split()
        return self.v[:k, :k]

    @property
    def v_b(self) -> np.ndarray:
        k = self._split()
        return self.v[k:, k:]

    def reduced(self, keep: str) -> "CovarianceModel":
        """Covariance model of one subsystem after tracing out the other."""
        if not self.partition.bipartite:
            raise NotBipartite("state has no subsystem B to trace out")
        if keep == "a":
            block, n_modes = self.v_a, self.partition.n_a
        elif keep == "b":
            block, n_modes = self.v_b, self.partition.n_b
        else:
            raise ValueError("keep must be 'a' or 'b'")
        # The block passes every check of ``from_v`` (see the class docstring).
        return CovarianceModel._from_symmetric(block.copy(), ModePartition(n_modes, 0))


def _logdet(m: np.ndarray, label: str) -> float:
    sign, logdet = np.linalg.slogdet(m)
    if sign <= 0:
        raise DegenerateBlock(f"{label} has non-positive determinant")
    return float(logdet)


def wehrl_gaussian_joint(cov: CovarianceModel) -> float:
    """Wehrl entropy of a Gaussian state: -log(det C)/2 + (number of modes)."""
    return -0.5 * _logdet(cov.c, "C") + cov.n_modes


def wehrl_gaussian_local(cov: CovarianceModel, keep: str = "b") -> float:
    """Wehrl entropy of one marginal of a bipartite Gaussian state.

    Tracing out the complement turns the precision matrix into the Schur
    complement of the traced block, whose determinant is det C over the
    determinant of that block.
    """
    if not cov.partition.bipartite:
        raise NotBipartite("local Wehrl entropy needs a bipartite state")
    if keep == "b":
        traced, kept_modes = cov.c_a, cov.partition.n_b
    elif keep == "a":
        traced, kept_modes = cov.c_b, cov.partition.n_a
    else:
        raise ValueError("keep must be 'a' or 'b'")
    return -0.5 * _logdet(cov.c, "C") + 0.5 * _logdet(traced, "traced block") + kept_modes


def gaussian_witness(cov: CovarianceModel) -> tuple[float, float]:
    """Closed-form conditional Wehrl entropy of A given B and Wehrl mutual information.

    Returns ``(conditional, mutual)`` with

        conditional = n_A - log(det C_A)/2
        mutual      = (log det C_A + log det C_B - log det C)/2

    The mutual term vanishes exactly when the off-diagonal block of C is
    zero, and exceeding zero witnesses correlations; for pure states it
    witnesses entanglement.  The pair is computed once per covariance
    model and kept on it, where ``entanglement_witness`` reads it too.
    """
    return cov._witness


def _thermal_mode_entropy(nbar: float) -> float:
    """g(nbar) = (nbar + 1) ln(nbar + 1) - nbar ln nbar, the entropy of a thermal mode.

    Written as ln(1 + nbar) + nbar ln(1 + 1/nbar), which does not cancel at large nbar.
    """
    if nbar == 0.0:
        return 0.0
    return math.log1p(nbar) + nbar * math.log1p(1.0 / nbar)


def von_neumann_gaussian(cov: CovarianceModel) -> float:
    """Von Neumann entropy, the sum of g(nu - 1/2) over the symplectic spectrum of V."""
    return sum((_thermal_mode_entropy(float(nu) - 0.5)
                for nu in cov.spectrum if nu > 0.5 + 1e-12), 0.0)


def ppt_reflect(v: np.ndarray, partition: ModePartition) -> np.ndarray:
    """Flip the sign of every subsystem-B momentum row and column of V."""
    v = _check_symmetric(v, "covariance")
    if v.shape[0] != partition.dim:
        raise DimensionMismatch("covariance does not match the partition")
    if not partition.bipartite:
        raise NotBipartite("partial transposition needs a subsystem B")
    signs = np.ones(partition.dim)
    signs[2 * partition.n_a + 1 :: 2] = -1.0
    return (signs[:, None] * v) * signs[None, :]


def ppt_minimum(v: np.ndarray, partition: ModePartition) -> tuple[float, bool]:
    """Smallest symplectic eigenvalue of the momentum-reflected V, and whether PPT holds.

    PPT holds when the reflected matrix passes the admissibility check of
    ``CovarianceModel.from_v``: nu_min >= 1/2 - SYMPLECTIC_SLACK.  Its
    failure witnesses entanglement (Simon, PRL 84, 2726 (2000)).
    """
    nu_min = float(symplectic_eigenvalues(ppt_reflect(v, partition))[0])
    return nu_min, nu_min >= 0.5 - SYMPLECTIC_SLACK


def check_squeezing(lam: float) -> float:
    """Return lam as a float, or raise LambdaOutOfRange outside [0, LAMBDA_MAX]."""
    lam = float(lam)
    if not 0.0 <= lam <= LAMBDA_MAX:
        raise LambdaOutOfRange(f"two-mode squeezing parameter {lam!r} outside [0, {LAMBDA_MAX}]")
    return lam


def tmss_covariance(lam: float) -> CovarianceModel:
    """Covariance model of the two-mode squeezed state with parameter lam.

    The Husimi precision matrix C has identity diagonal blocks and
    off-diagonal block diag(lam, -lam).  Its inverse is g times the same
    matrix with -lam in place of lam, g = 1 / (1 - lam^2), so V = C^-1 - 1/2
    is written in closed form: diagonal g - 1/2, off-diagonal block
    diag(-lam g, lam g).  ``from_v`` then validates it and computes C.
    """
    lam = check_squeezing(lam)
    g = 1.0 / (1.0 - lam * lam)
    v = np.diag(np.full(4, g - 0.5))
    v[0, 2] = v[2, 0] = -lam * g
    v[1, 3] = v[3, 1] = lam * g
    return CovarianceModel.from_v(v, ModePartition(1, 1))


def squeezed_vacuum_covariance(kappa: float) -> CovarianceModel:
    """Single-mode squeezed vacuum, V = diag(e^{2 kappa}, e^{-2 kappa}) / 2."""
    v = 0.5 * np.diag([math.exp(2 * kappa), math.exp(-2 * kappa)])
    return CovarianceModel.from_v(v, ModePartition(1, 0))


def apply_local_squeeze(cov: CovarianceModel, kappa: float, subsystem: str = "b") -> CovarianceModel:
    """Squeeze one subsystem in place: x -> e^kappa x, p -> e^-kappa p per mode."""
    scale = np.ones(cov.dim)
    if subsystem == "a":
        lo, hi = 0, 2 * cov.partition.n_a
    elif subsystem == "b":
        if not cov.partition.bipartite:
            raise NotBipartite("state has no subsystem B")
        lo, hi = 2 * cov.partition.n_a, cov.dim
    else:
        raise ValueError("subsystem must be 'a' or 'b'")
    scale[lo:hi:2] = math.exp(kappa)
    scale[lo + 1 : hi : 2] = math.exp(-kappa)
    v = (scale[:, None] * cov.v) * scale[None, :]
    return CovarianceModel.from_v(v, cov.partition)


def _random_orthogonal_symplectic(rng: np.random.Generator, n_modes: int) -> np.ndarray:
    """Random symplectic orthogonal matrix from a Haar unitary."""
    z = rng.normal(size=(n_modes, n_modes)) + 1j * rng.normal(size=(n_modes, n_modes))
    q, r = np.linalg.qr(z)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    o_grouped = np.block([[q.real, -q.imag], [q.imag, q.real]])
    return from_grouped_ordering(o_grouped)


def random_admissible_covariance(
    rng: np.random.Generator,
    partition: ModePartition,
    min_nu: float = 0.55,
    max_nu: float = 2.0,
) -> CovarianceModel:
    """Random physical covariance via V = S^T diag(nu_i, nu_i) S.

    S is a random symplectic built from two orthogonal symplectic factors
    and a diagonal squeezer with log-gains uniform in [-0.5, 0.5], so the
    symplectic spectrum of V is exactly the drawn nu values.
    """
    n = partition.n_modes
    nus = rng.uniform(min_nu, max_nu, size=n)
    d = np.repeat(nus, 2)
    kappas = rng.uniform(-0.5, 0.5, size=n)
    z = np.repeat(np.exp(kappas), 2)
    z[1::2] = 1.0 / z[1::2]
    s = _random_orthogonal_symplectic(rng, n) @ np.diag(z) @ _random_orthogonal_symplectic(rng, n)
    v = s.T @ np.diag(d) @ s
    return CovarianceModel.from_v(0.5 * (v + v.T), partition)


@dataclass(frozen=True)
class NormalFormParams:
    """Standard-form parameters (a, b, c1, c2) of a 1+1 mode covariance."""

    a: float
    b: float
    c1: float
    c2: float

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise ValueError("diagonal normal-form parameters must be positive")

    def to_matrix(self) -> np.ndarray:
        a, b, c1, c2 = self.a, self.b, self.c1, self.c2
        return np.array(
            [
                [a, 0.0, c1, 0.0],
                [0.0, a, 0.0, c2],
                [c1, 0.0, b, 0.0],
                [0.0, c2, 0.0, b],
            ]
        )


@dataclass(frozen=True)
class SeparabilityVerdict:
    """Outcome of the pure-state separability test and its PPT eigenvalue."""

    separable: bool
    min_reflected_symplectic: float


def simon_pure_separability(params: NormalFormParams) -> SeparabilityVerdict:
    """Decide separability of a pure 1+1 mode Gaussian state in normal form.

    The two purity conditions

        (a b - c1^2)(a b - c2^2) = 1/16      a^2 + b^2 + 2 c1 c2 = 1/2

    are required up to 1e-9.  Separability is equivalent to the
    momentum-reflected covariance remaining admissible, and for pure
    states that forces c1 = c2 = 0 and a = b = 1/2: the reflected state
    must also be pure, which pins c1 c2 = 0, and then
    f(a) = a^2 (1/2 - a^2) is squeezed between the purity value 1/16 and
    its maximum 1/16, attained only at a = 1/2.
    """
    a, b, c1, c2 = params.a, params.b, params.c1, params.c2
    r1 = (a * b - c1 * c1) * (a * b - c2 * c2) - 1.0 / 16.0
    r2 = a * a + b * b + 2.0 * c1 * c2 - 0.5
    if abs(r1) > 1e-9 or abs(r2) > 1e-9:
        raise NotPure(f"purity residuals ({r1:.3g}, {r2:.3g}) exceed tolerance 1e-09")
    nu_min, separable = ppt_minimum(params.to_matrix(), ModePartition(1, 1))
    return SeparabilityVerdict(separable=separable, min_reflected_symplectic=nu_min)
