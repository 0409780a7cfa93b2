"""Wavefunction side of the driving scheme.

Operators live on a uniform Dirichlet grid (grid path, smooth wells) or in
the instantaneous sine eigenbasis of the box (basis path, where the
eigenstates are closed-form).  The driven Hamiltonian is always
H(t) = H0(lam(t)) + lam_dot(t) * xi(lam(t)).

The box is excluded from grid propagation on purpose: a moving Dirichlet
wall on a fixed grid is ill-posed without coordinate remapping, and the box
already has an exact solution, which the basis path returns for the driven
arm without stepping.  hbar = 1 by default; every operation takes it as a
keyword.
"""

import functools
import importlib.util
import math
import numbers
import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from typing import Optional

import numpy as np

from ._csv import write_csv
from .errors import DomainError, NumericalError
from .schedules import Schedule, _positive_lam, clock
from .shells import _GL_NODES, _GL_W24, _GL_W48
from .systems import SystemModel, _on_nodes

__all__ = [
    "GridSpec",
    "QuantumState",
    "HermitianOperator",
    "EigenSystem",
    "box_grid",
    "well_grid",
    "discretize_h0",
    "eigensystem",
    "grad_h0_matrix",
    "xi_spectral",
    "xi_dilation",
    "GridTrajectory",
    "propagate_grid",
    "BasisTrajectory",
    "propagate_basis",
    "box_phase",
    "exact_box_state",
    "fidelity",
]


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid of interior points with Dirichlet walls at both ends.

    The wall points q_min and q_max are not stored; with n_points interior
    points the spacing is h = (q_max - q_min) / (n_points + 1).
    """

    q_min: float
    q_max: float
    n_points: int

    def __post_init__(self):
        if not isinstance(self.n_points, (int, np.integer)):
            raise DomainError(f"grid point count must be an integer, got {self.n_points!r}")
        if self.n_points < 64:
            raise DomainError(f"need at least 64 grid points, got {self.n_points}")
        if not (math.isfinite(self.q_min) and math.isfinite(self.q_max)):
            raise DomainError("grid endpoints must be finite")
        if not self.q_max > self.q_min:
            raise DomainError(f"empty grid domain [{self.q_min}, {self.q_max}]")

    @property
    def h(self) -> float:
        return (self.q_max - self.q_min) / (self.n_points + 1)

    @property
    def qs(self) -> np.ndarray:
        return self.q_min + self.h * np.arange(1, self.n_points + 1)


def box_grid(lam: float, n_points: int = 512) -> GridSpec:
    """Grid spanning the box interior [0, L]."""
    if not (math.isfinite(lam) and lam > 0):
        raise DomainError(f"box length must be positive, got {lam}")
    return GridSpec(0.0, float(lam), n_points)


def well_grid(system: SystemModel, lam: float, e_max: float, n_points: int = 512) -> GridSpec:
    """Symmetric grid wide enough for power-law dynamics up to energy e_max.

    The half-width is twice the classical turning point at e_max, so states
    in the band of interest decay well before the artificial walls.
    """
    if system.kind != "power_law":
        raise DomainError("well_grid is for power-law systems")
    lam = system.check_param(lam)
    if e_max <= 0:
        raise DomainError(f"e_max must be positive, got {e_max}")
    half = 2.0 * lam * (e_max / system.epsilon) ** (1.0 / system.b)
    return GridSpec(-half, half, n_points)


@dataclass(frozen=True)
class QuantumState:
    """A normalized state, either grid samples or eigenbasis coefficients.

    Grid norm is h * sum |psi_j|^2; eigenbasis norm is sum |c_n|^2.
    """

    representation: str
    amplitudes: np.ndarray
    grid: Optional[GridSpec] = None

    def __post_init__(self):
        if self.representation not in ("grid", "eigenbasis"):
            raise DomainError(f"unknown representation {self.representation!r}")
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size == 0:
            raise DomainError("amplitudes must be a nonempty vector")
        object.__setattr__(self, "amplitudes", amps)
        if self.representation == "grid":
            if self.grid is None:
                raise DomainError("grid representation needs a GridSpec")
            if amps.size != self.grid.n_points:
                raise DomainError(
                    f"{amps.size} amplitudes on a {self.grid.n_points}-point grid"
                )

    def norm(self) -> float:
        w = self.grid.h if self.representation == "grid" else 1.0
        return math.sqrt(w * float(np.sum(np.abs(self.amplitudes) ** 2)))

    def check_normalized(self, tol: float = 1e-10) -> None:
        err = abs(self.norm() - 1.0)
        if not err <= tol:
            raise NumericalError(f"state norm off by {err:.3e}")


@dataclass(frozen=True)
class HermitianOperator:
    """Dense operator with a verified hermiticity defect < 1e-12 of scale."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DomainError(f"operator matrix must be square, got {m.shape}")
        object.__setattr__(self, "matrix", m)
        scale = float(np.max(np.abs(m)))
        if self.hermiticity_defect > 1e-12 * max(scale, 1e-300):
            raise NumericalError(
                f"hermiticity defect {self.hermiticity_defect:.3e} exceeds "
                f"1e-12 of scale {scale:.3e}"
            )

    @property
    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))


@dataclass(frozen=True)
class EigenSystem:
    """Ascending spectrum of a discretized H0 with h-weighted eigenvectors.

    states[:, n] is the n-th eigenvector (0-based, index 0 = ground state),
    normalized so h * sum |v_j|^2 = 1, sign fixed so its first component
    above 1e-8 in magnitude is positive.
    """

    lam: float
    energies: np.ndarray
    states: np.ndarray
    grid: GridSpec

    @property
    def n_levels(self) -> int:
        return self.energies.size


# ---------------------------------------------------------------------------
# operator construction


def _potential_diagonal(system: SystemModel, lam: float, grid: GridSpec) -> np.ndarray:
    vs = _on_nodes(system, grid.qs, lam)
    if not np.all(np.isfinite(vs)):
        raise DomainError("potential is not finite on the grid")
    return vs


def _check_box_grid(lam: float, grid: GridSpec) -> None:
    if abs(grid.q_min) > 1e-12 or abs(grid.q_max - lam) > 1e-12 * max(1.0, lam):
        raise DomainError(
            f"box grid must span [0, {lam}], got [{grid.q_min}, {grid.q_max}]"
        )


def _h0_bands(system: SystemModel, lam: float, grid: GridSpec, hbar: float = 1.0):
    """(diagonal, off-diagonal) of the finite-difference H0: 2k + V and -k."""
    lam = system.check_param(lam)
    if system.kind == "box":
        _check_box_grid(lam, grid)
    k = hbar * hbar / (2.0 * system.mass * grid.h * grid.h)
    return 2.0 * k + _potential_diagonal(system, lam, grid), np.full(grid.n_points - 1, -k)


def discretize_h0(
    system: SystemModel, lam: float, grid: GridSpec, hbar: float = 1.0
) -> HermitianOperator:
    """Second-order finite-difference H0 = -hbar^2/2m d^2/dq^2 + V on the grid.

    The box uses the grid itself as the domain [0, L]; both wall points are
    Dirichlet zeros, so the matrix covers interior points only.
    """
    diag, off = _h0_bands(system, lam, grid, hbar)
    return HermitianOperator(_tridiag_apply(np.eye(grid.n_points), off, off, diag))


def _check_index(name: str, value, lo: int, hi: int) -> int:
    """value as an int in [lo, hi]; DomainError otherwise."""
    if not isinstance(value, numbers.Integral) or not lo <= value <= hi:
        raise DomainError(f"{name} must be an integer in [{lo}, {hi}], got {value!r}")
    return int(value)


def _fix_signs(states: np.ndarray) -> np.ndarray:
    # first component above 1e-8 in magnitude (else the largest) made real positive
    big = np.abs(states) > 1e-8
    lead = states[np.where(big.any(axis=0), big.argmax(axis=0), np.abs(states).argmax(axis=0)),
                  np.arange(states.shape[1])]
    return states * (np.abs(lead) / lead)


def _checked_eigensystem(energies, vecs, residual, grid, lam) -> EigenSystem:
    """EigenSystem of a solve past the residual, orthonormality and gap checks."""
    scale = float(np.max(np.abs(energies)))
    if not residual <= 1e-10 * max(scale, 1e-300):
        raise NumericalError(f"eigendecomposition residual {residual:.3e}")
    ortho = float(np.max(np.abs(vecs.T.conj() @ vecs - np.eye(vecs.shape[1]))))
    if not ortho <= 1e-12:
        raise NumericalError(f"orthonormality defect {ortho:.3e}")
    spread = float(energies[-1] - energies[0])
    min_gap = float(np.min(np.diff(energies))) if energies.size > 1 else spread
    if energies.size > 1 and not min_gap > 1e-8 * spread:
        raise NumericalError(
            f"near-degenerate spectrum: min gap {min_gap:.3e} vs spread {spread:.3e}"
        )
    vecs = _fix_signs(np.asarray(vecs)) / math.sqrt(grid.h)
    return EigenSystem(float(lam), energies, vecs, grid)


# Grid runs take their LAPACK routines (zgtsv for each Cayley step, dstebz and
# dstein for each record's spectrum) from scipy's compiled extension alone, so
# they never import the scipy.linalg package; box spectra are closed-form and
# load no scipy at all.  Only a dense eigensystem solve imports scipy.linalg,
# through eigh.  eigh and eigh_tridiagonal stay module names for callers that
# wrap or replace them.


def eigh(*args, **kwargs):
    """scipy.linalg.eigh, imported on the first call."""
    from scipy.linalg import eigh

    return eigh(*args, **kwargs)


@functools.cache
def _flapack():
    """scipy.linalg._flapack, loaded without running scipy/linalg/__init__.py.

    That package costs a fresh process about 25 MB and 0.2 s, and the grid
    path needs only three routines of its LAPACK extension.  A module already
    imported is returned as it is; otherwise the extension file is loaded
    from scipy's linalg directory and registered under its real name, so a
    later import of scipy.linalg reuses this module instead of loading it
    a second time.
    """
    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        import scipy

        finder = FileFinder(os.path.join(os.path.dirname(scipy.__file__), "linalg"),
                            (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec(name)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def eigh_tridiagonal(d, e, select="i", select_range=(0, 0)):
    """Eigenpairs lo..hi, select_range = (lo, hi) 0-based and ascending, of the
    real symmetric tridiagonal matrix with diagonal d and off-diagonal e.

    The stebz path of scipy 1.17's eigh_tridiagonal step for step, so its
    results are bit-identical: bisection (dstebz, block order, tol 0), inverse
    iteration (dstein), then sort.  The routines come from _flapack.  A
    nonzero LAPACK info raises NumericalError.
    """
    if select != "i":
        raise DomainError(f"only index selection is supported, got select={select!r}")
    if d.size == 1:  # the f2py dstebz rejects an empty e
        return np.array([d[0]]), np.array([[1.0]])
    lo, hi = select_range
    lapack = _flapack()
    m, w, iblock, isplit, info = lapack.dstebz(d, e, 2, 0.0, 1.0, lo + 1, hi + 1, 0.0, "B")
    if info == 0:
        w = w[:m]
        v, info = lapack.dstein(d, e, w, iblock, isplit)
    if info != 0:
        raise NumericalError(f"tridiagonal eigensolve failed, LAPACK info {info}")
    order = np.argsort(w)
    return w[order], v[:, order]


def _sine_eigenpairs(d: float, o: float, n: int, n_levels: int):
    """Lowest n_levels eigenpairs of the n x n tridiagonal matrix with constant
    diagonal d and off-diagonal o: E_j = d + 2o cos(j pi/(n+1)) with unit vector
    v_ij = sqrt(2/(n+1)) sin(ij pi/(n+1)), j = 1..n, ascending in j for o <= 0
    and descending for o > 0.  ij is reduced mod 2(n+1) in integers first, so
    every sine argument lies in [0, 2 pi)."""
    js = np.arange(1, n_levels + 1) if o <= 0 else np.arange(n, n - n_levels, -1)
    energies = d + 2.0 * o * np.cos(js * (math.pi / (n + 1)))
    ij = np.outer(np.arange(1, n + 1), js) % (2 * (n + 1))
    return energies, math.sqrt(2.0 / (n + 1)) * np.sin(ij * (math.pi / (n + 1)))


def _band_eigensystem(diag, off, grid: GridSpec, lam: float, n_levels: int) -> EigenSystem:
    """Lowest n_levels of a real symmetric tridiagonal matrix, from its bands.

    Constant bands (every box grid) take the closed-form discrete sines, any
    others LAPACK; both pass the same residual and eigensystem checks.
    """
    n_levels = _check_index("n_levels", n_levels, 1, diag.size)
    if np.all(diag == diag[0]) and np.all(off == off[:1]):
        o = off[0] if off.size else 0.0
        energies, vecs = _sine_eigenpairs(diag[0], o, diag.size, n_levels)
    else:
        energies, vecs = eigh_tridiagonal(diag, off, select="i",
                                          select_range=(0, n_levels - 1))
    r = _tridiag_apply(vecs, off, off, diag) - vecs * energies
    return _checked_eigensystem(energies, vecs, float(np.max(np.abs(r))), grid, lam)


def _tridiag_apply(x, up, low, diag=0.0):
    """Tridiagonal matrix (diag, superdiagonal up, subdiagonal low) times x's columns."""
    y = np.reshape(diag, (-1, 1)) * x
    y[:-1] += up[:, None] * x[1:]
    y[1:] += low[:, None] * x[:-1]
    return y


def eigensystem(
    h0: HermitianOperator, grid: GridSpec, lam: float, n_levels: Optional[int] = None
) -> EigenSystem:
    """Eigendecomposition with the package sign convention.

    n_levels keeps only the lowest levels, computed by a subset solve; the
    residual, orthonormality and nondegeneracy invariants apply to the
    retained block.  Wide grids for smooth wells need the truncation: the
    top of the finite-difference band carries checkerboard modes pinned to
    the two artificial walls, split only by tunneling, and a gap below 1e-8
    of the spread leaves the spectral generator undefined.  A real
    tridiagonal matrix (every discretize_h0 H0) is solved from its bands;
    other Hermitian operators take a dense solve.
    """
    m = h0.matrix
    k = m.shape[0] if n_levels is None else n_levels
    if np.max(np.abs(m.imag)) == 0.0:
        m = m.real
        if not (np.triu(m, 2).any() or np.tril(m, -2).any()):  # tridiagonal
            return _band_eigensystem(np.diag(m), np.diag(m, -1), grid, lam, k)
    k = _check_index("n_levels", k, 1, m.shape[0])
    energies, vecs = eigh(m, subset_by_index=None if n_levels is None else [0, k - 1])
    residual = float(np.max(np.abs(m @ vecs - vecs * energies)))
    return _checked_eigensystem(energies, vecs, residual, grid, lam)


def grad_h0_matrix(
    system: SystemModel, lam: float, grid: GridSpec, hbar: float = 1.0
) -> np.ndarray:
    """Grid matrix of dH0/dlam.

    Smooth wells have a pointwise diagonal dV/dlam.  The box potential has
    no classical gradient; its derivative is closed-form.  In the frame that
    stretches with the wall the grid points keep their indices and H0 scales
    as L^-2, so that frame contributes exactly -2H0/L; undoing the frame
    change adds the commutator -[(QD+DQ)/2, H0]/L, which carries all the
    off-diagonal structure the generator is built from.
    """
    return _grad_h0_times(system, lam, grid, hbar, np.eye(grid.n_points))


def _grad_h0_times(system, lam, grid, hbar, x):
    """grad_h0_matrix times the columns of x, by tridiagonal applies."""
    lam = system.check_param(lam)
    if system.kind != "box":
        return _on_nodes(system, grid.qs, lam, d_lam=True)[:, None] * x
    diag, off = _h0_bands(system, lam, grid, hbar)
    hx = _tridiag_apply(x, off, off, diag)
    bracket = _stretch_times(grid, hx) - _tridiag_apply(_stretch_times(grid, x), off, off, diag)
    return -(2.0 * hx + bracket) / lam


def xi_spectral(
    system: SystemModel,
    lam: float,
    grid: GridSpec,
    n_levels: int,
    hbar: float = 1.0,
) -> HermitianOperator:
    """Generator in the truncated eigenbasis from the eigenstate-rotation sum.

    Off-diagonal xi_mn = i hbar (dH0/dlam)_mn / (E_n - E_m), zero on the
    diagonal.  Demands a nondegenerate retained block.
    """
    return _xi_spectral_parts(system, lam, grid, n_levels, hbar)[0]


def _xi_spectral_parts(system, lam, grid, n_levels, hbar):
    """xi_spectral's generator with the eigensystem and dH0/dlam block it used."""
    if n_levels < 2:
        raise DomainError(f"need at least 2 levels, got {n_levels}")
    if n_levels > grid.n_points:
        raise DomainError(f"{n_levels} levels on a {grid.n_points}-point grid")
    es = _band_eigensystem(*_h0_bands(system, lam, grid, hbar), grid, lam, n_levels)
    energies, vecs = es.energies, es.states
    gaps = energies[None, :] - energies[:, None]
    off = ~np.eye(n_levels, dtype=bool)
    block = grid.h * (vecs.T @ _grad_h0_times(system, lam, grid, hbar, vecs))
    xi = np.zeros((n_levels, n_levels), dtype=complex)
    xi[off] = 1j * hbar * block[off] / gaps[off]
    return HermitianOperator(xi), es, block


def _dilation_offdiag(lam: float, mu: float, grid: GridSpec, hbar: float) -> np.ndarray:
    # superdiagonal of mu/(2L) * (hbar/i) (QD + DQ); the subdiagonal is -conj
    qs = grid.qs
    return mu * hbar * (qs[:-1] + qs[1:]) / (4.0 * lam * grid.h)


def xi_dilation(lam: float, mu: float, grid: GridSpec, hbar: float = 1.0) -> HermitianOperator:
    """Dilation-form generator mu/(2L) * (hbar/i) (QD + DQ) on the grid.

    D is the antisymmetric central difference, so the matrix is tridiagonal
    with zero diagonal and exactly Hermitian by construction.  mu = 1 is the
    box; mu = b/(b+2) the power-law well; mu = 0 the zero operator.
    """
    if not 0.0 <= mu <= 1.0:
        raise DomainError(f"dilation coefficient must lie in [0, 1], got {mu}")
    if not (math.isfinite(lam) and lam > 0):
        raise DomainError(f"lam must be positive, got {lam}")
    w = _dilation_offdiag(lam, mu, grid, hbar)
    return HermitianOperator(-1j * _tridiag_apply(np.eye(grid.n_points), w, -w))


def _stretch_times(grid: GridSpec, x: np.ndarray) -> np.ndarray:
    # (QD + DQ) / 2, real antisymmetric tridiagonal, times the columns of x
    w = _dilation_offdiag(1.0, 1.0, grid, 1.0)
    return _tridiag_apply(x, w, -w)


# ---------------------------------------------------------------------------
# grid propagation (Cayley stepper)

_GRID_BLOCK = 64  # steps whose Cayley bands are built together


@dataclass(frozen=True)
class GridTrajectory:
    """Recorded grid propagation: per-sample norm, fidelity, phase, populations.

    phases are unwrapped overlap phases of the tracked instantaneous
    eigenstate; populations holds the leading |<m|psi>|^2 columns.
    """

    times: np.ndarray
    norms: np.ndarray
    fidelities: np.ndarray
    phases: np.ndarray
    populations: np.ndarray
    track_level: int
    final_state: QuantumState

    @property
    def min_fidelity(self) -> float:
        return float(np.min(self.fidelities))

    @property
    def final_fidelity(self) -> float:
        return float(self.fidelities[-1])

    def to_csv(self, path) -> None:
        _trajectory_csv(path, self.times, self.fidelities, self.norms, self.phases,
                        self.populations)


def _trajectory_csv(path, times, fidelities, norms, phases, pops) -> None:
    """One row per record: t, fidelity, norm, phase, then the pops columns."""
    header = ["t", "fidelity", "norm", "phase"] + [f"pop{m}" for m in range(pops.shape[1])]
    write_csv(path, header, [times, fidelities, norms, phases, *pops.T])


def _uniform_steps(duration: float, dt: float, record_every: int):
    """Checked stepping inputs: the count and length of equal steps of about dt."""
    if not (math.isfinite(dt) and dt > 0):
        raise DomainError(f"dt must be finite and positive, got {dt}")
    if not record_every >= 1:  # NaN fails too
        raise DomainError(f"record_every must be at least 1, got {record_every}")
    if record_every % 1:  # inf fails too
        raise DomainError(f"record_every must be an integer, got {record_every}")
    n_steps = max(1, math.ceil(duration / dt - 1e-12))
    return n_steps, duration / n_steps


def solve_banded(ab, b):
    """Solve A x = b for the complex tridiagonal A banded as scipy's (1, 1) ab,
    by one LAPACK zgtsv call that consumes ab and b.  Blocks of A uncoupled at
    each junction solve bit-identically to each block alone: gtsv eliminates
    nothing across a zero subdiagonal, and its fill-in there is zero.  zgtsv
    is the f2py function scipy.linalg.lapack exposes, taken from _flapack, so
    a step pays one cached lookup and no scipy.linalg import.  The name stays:
    the benchmark tracer and the tests count and poison Cayley solves through
    it.
    """
    *_, x, info = _flapack().zgtsv(ab[2, :-1], ab[1], ab[0, 1:], b, overwrite_dl=1,
                                   overwrite_d=1, overwrite_du=1, overwrite_b=1)
    if info != 0:
        raise NumericalError(f"tridiagonal solve failed, LAPACK info {info}")
    return x


def propagate_grid(
    system: SystemModel,
    schedule: Schedule,
    psi0: QuantumState,
    dt: float,
    with_cd: bool = True,
    track_level: int = 0,
    n_leading: int = 4,
    record_every: int = 10,
    hbar: float = 1.0,
) -> GridTrajectory:
    """Propagate grid samples under H(t) with the midpoint Cayley step.

    With A = 1 + (i dt/2hbar) H(t+dt/2), psi(t+dt) = A^-1 (2 - A) psi(t)
    = 2 A^-1 psi(t) - psi(t): one LAPACK gtsv call per step, through
    solve_banded, unconditionally unitary; a per-step norm drift above 1e-10,
    or a non-finite state, raises.  The schedule is evaluated once per run,
    and the bands of A are built _GRID_BLOCK steps at a time.  Power-law
    wells use scale invariance, V(q; lam) = lam^-b V(q; 1), and the dilation
    generator is xi(lam) = xi(1) / lam, so a block rescales fixed bands
    instead of rebuilding them.  On a symmetric grid a power-law H(t)
    commutes with the reflection P: q -> -q, so each nonzero parity part of
    psi0 steps on a half grid, and an absent parity's levels get population
    exactly 0; a parity-definite psi0, (v +- Pv)/2 of an eigenvector v,
    steps one half grid.  The box is rejected: its moving wall cannot live
    on a fixed grid, and propagate_basis covers it exactly.  This is the
    one-arm case of _propagate_arms.
    """
    return _propagate_arms(system, schedule, psi0, dt, (with_cd,), track_level,
                           n_leading, record_every, hbar)[0]


def _sectors(system, grid, amps):
    """(parity, rows) of each nonzero part of amps: for a power-law well on a
    symmetric grid, (amps + p P amps)/2 for p = +-1 on the left half grid, where
    the even part keeps an odd grid's centre as psi(0)/sqrt2, so a part's norm
    is 2h sum |rows|^2; elsewhere the whole grid, parity 0.  Full-grid level g
    is level g // 2 of parity (-1)^g: the two spectra interlace, even lowest."""
    n = grid.n_points
    if system.kind != "power_law" or grid.q_min != -grid.q_max:
        return [(0, amps)]
    parts = [(p, 0.5 * (amps + p * amps[::-1])[:(n + (p > 0)) // 2]) for p in (1, -1)]
    if n % 2:
        parts[0][1][-1] /= math.sqrt(2.0)
    return [(p, rows) for p, rows in parts if np.any(rows)]


def _unfold(parity, rows, n):
    """The full-grid amplitudes of one _sectors part."""
    left, mid = rows[:n // 2], [math.sqrt(2.0) * rows[-1] if parity > 0 else 0.0]
    return np.concatenate([left, mid[:n % 2], parity * left[::-1]]) if parity else rows


def _propagate_arms(system, schedule, psi0, dt, arms, track_level=0, n_leading=4,
                    record_every=10, hbar=1.0):
    """propagate_grid for each CD flag in arms, bit-identical to separate runs:
    the arms share the bands and each record's eigensolves, and the Cayley
    matrices of every arm's _sectors stack into one tridiagonal system solved
    once per step.  A half grid's bands are the full grid's left rows, closed
    at the centre by parity."""
    if system.kind == "box":
        raise DomainError("grid propagation excludes the box; use propagate_basis")
    if psi0.representation != "grid":
        raise DomainError("propagate_grid needs a grid-representation state")
    n_steps, step = _uniform_steps(schedule.duration, dt, record_every)
    psi0.check_normalized()
    grid = psi0.grid
    n = grid.n_points
    track_level = _check_index("track_level", track_level, 0, n - 1)
    n_leading = _check_index("n_leading", n_leading, 1, n)
    h = grid.h
    kin = hbar * hbar / (2.0 * system.mass * h * h)
    mus = [system.mu if with_cd else 0.0 for with_cd in arms]
    kappa = step / (2.0 * hbar)
    rec_steps = [i for i in range(n_steps + 1) if i % record_every == 0 or i == n_steps]
    mids = (np.arange(n_steps) + 0.5) * step
    lams = _positive_lam(schedule, mids)
    rates = np.asarray(schedule.rate(mids), dtype=float)
    rec_lams = _positive_lam(schedule, step * np.array(rec_steps))

    sectors = _sectors(system, grid, psi0.amplitudes)
    ends = np.cumsum([rows.size for _, rows in sectors])
    left = np.concatenate([np.arange(rows.size) for _, rows in sectors])  # full-grid rows
    links = np.minimum(left, 1.0)  # coupling to the row above, in units of the full grid's
    kin_diag = np.full(left.size, 2.0 * kin)
    for (p, _), end in zip(sectors, ends):  # close each half grid at the centre:
        if n % 2 == 0:  # mirror row holds p psi; centre dilation weight (0 up to rounding) drops
            kin_diag[end - 1] -= p * kin
        elif p > 0:  # odd part stops short of q = 0; even part's centre row holds psi(0)/sqrt2
            links[end - 1] = math.sqrt(2.0)
    fold = 2.0 if sectors[0][0] else 1.0  # a half-grid row stands for its mirror too

    if system.kind == "power_law":
        v1 = _potential_diagonal(system, 1.0, grid)[left]

        def diagonals(lam):
            return kin_diag + lam[:, None] ** -system.b * v1
    else:  # user callables may take scalars only

        def diagonals(lam):  # one row per entry of lam
            return kin_diag + np.array([_potential_diagonal(system, x, grid) for x in lam])

    k = max(n_leading, track_level + 1)
    psi = np.tile(np.concatenate([rows for _, rows in sectors]), (len(arms), 1))  # arm rows
    times, samples = [], [([], [], [], []) for _ in arms]  # norms, fids, phases, pops

    def record(psi):
        j = len(times)
        diag = diagonals(rec_lams[j:j + 1])[0]
        coeffs = np.zeros((len(arms), k), dtype=complex)
        for (p, rows), hi in zip(sectors, ends):
            lo, mine = hi - rows.size, coeffs[:, (p < 0)::1 + (p != 0)]  # levels of parity p
            if mine.size:
                vecs = _band_eigensystem(diag[lo:hi], -kin * links[lo + 1:hi], grid,
                                         rec_lams[j], mine.shape[1]).states
                for coeff, amps in zip(mine, psi):
                    coeff[:] = math.sqrt(fold) * h * (vecs.T @ amps[lo:hi])
        times.append(rec_steps[j] * step)
        for coeff, amps, (norms, fids, phases, pops) in zip(coeffs, psi, samples):
            norms.append(math.sqrt(fold * h * float(np.sum(np.abs(amps) ** 2))))
            fids.append(float(np.abs(coeff[track_level]) ** 2))
            phases.append(float(np.angle(coeff[track_level])))
            pops.append(np.abs(coeff[:n_leading]) ** 2)

    # off the diagonal, i kappa H is -i kappa kin plus (super) or minus (sub)
    # kappa lam_dot w(lam), with the dilation weight w(lam) = w(1) / lam; the
    # zero link at each sector's first row uncouples the sectors and the arms
    off_kin = -1j * kappa * kin * links
    w1 = np.array([kappa * np.append(0.0, _dilation_offdiag(1.0, mu, grid, hbar))[left] * links
                   for mu in mus])
    ab = np.zeros((_GRID_BLOCK, 3, len(arms), left.size), dtype=complex)
    flat = psi.view(float)  # psi is updated in place
    record(psi)
    for lo in range(0, n_steps, _GRID_BLOCK):
        hi = min(lo + _GRID_BLOCK, n_steps)
        cd = (rates[lo:hi] / lams[lo:hi])[:, None, None] * w1
        ab[:hi - lo, 0] = off_kin + cd
        ab[:hi - lo, 1] = (1.0 + 1j * kappa * diagonals(lams[lo:hi]))[:, None]
        ab[:hi - lo, 2, :, :-1] = (off_kin - cd)[..., 1:]
        for i in range(lo, hi):
            # psi' = 2 A^-1 psi - psi; the bands of A and the rhs are consumed
            x = solve_banded(ab[i - lo].reshape(3, -1), 2.0 * psi.ravel())
            np.subtract(x.reshape(psi.shape), psi, out=psi)
            for sq in np.einsum("ij,ij->i", flat, flat).tolist():  # each arm's sum |psi|^2
                norm = math.sqrt(fold * h * sq)
                # written so that a NaN norm fails too
                if not abs(norm - 1.0) <= 1e-10:
                    raise NumericalError(f"norm drift {abs(norm - 1.0):.3e} at step {i}")
            if i + 1 == rec_steps[len(times)]:
                record(psi)

    return tuple(GridTrajectory(  # the sum of the unfolded sectors is a new array
        times=np.array(times), norms=np.array(norms), fidelities=np.array(fids),
        phases=np.unwrap(np.array(phases)), populations=np.array(pops),
        track_level=track_level, final_state=QuantumState("grid", sum(
            _unfold(p, amps[hi - rows.size:hi], n) for (p, rows), hi in zip(sectors, ends)), grid),
    ) for amps, (norms, fids, phases, pops) in zip(psi, samples))


# ---------------------------------------------------------------------------
# box eigenbasis propagation

_KICK_BLOCK = 256  # steps whose phase and kick factors are exponentiated together


def _sine_coupling(n_levels: int) -> np.ndarray:
    """L <n|d/dL m> of the box sine states in closed form.

    (-1)^(n+m) 2 n m / (n^2 - m^2) off the diagonal, zero on it; integer
    arithmetic up to the last division keeps it exactly antisymmetric.
    """
    ns = np.arange(1, n_levels + 1, dtype=float)
    gaps = ns[:, None] ** 2 - ns[None, :] ** 2
    np.fill_diagonal(gaps, 1.0)
    d1 = (-1.0) ** (ns[:, None] + ns[None, :]) * 2.0 * ns[:, None] * ns[None, :] / gaps
    np.fill_diagonal(d1, 0.0)
    return d1


def _kick_basis(n_levels: int):
    """(q, w) with q^T D1 q block-diagonal in [[0, -w], [w, 0]], D1 = _sine_coupling:
    column pairs (x, y) from i D1's w > 0 eigenvectors (x + iy)/sqrt2, one QR pass
    (signs from diag R), and for odd n_levels the null vector beside a zero column."""
    w, v = np.linalg.eigh(1j * _sine_coupling(n_levels))
    k, odd = n_levels - n_levels // 2, n_levels % 2
    # a C-ordered copy viewed as floats holds Re u, Im u of each eigenvector u side by side
    q, r = np.linalg.qr(math.sqrt(2.0) * v[:, k:].copy().view(float), mode="complete")
    q[:, :r.shape[1]] *= np.sign(np.diag(r))
    return np.pad(q, ((0, 0), (0, odd))), np.append(w[k:], np.zeros(odd))


def _kick(c, q, turn):
    """exp(-kappa D1) c for turn = exp(-i kappa w): c's (Re, Im) columns into q, each row
    pair turned as one complex number, and back, by real products too narrow to thread."""
    z = (c[:, None].view(float).T @ q).view(complex) * turn
    return (q @ z.view(float).T).view(complex).ravel()


@dataclass(frozen=True)
class BasisTrajectory:
    """Eigenbasis coefficient history for the driven box.

    coeffs[i, n] is c_n at times[i] (n = 0 is the ground state, sine quantum
    number 1).  edge_population is the largest population any of the top
    ceil(n_levels / 10) retained levels reaches at any step; leakage_warning
    flags it above 1e-3, where basis truncation starts to bias the result.
    """

    times: np.ndarray
    coeffs: np.ndarray
    norms: np.ndarray
    n_levels: int
    with_cd: bool
    edge_population: float
    leakage_warning: bool

    @property
    def populations(self) -> np.ndarray:
        return np.abs(self.coeffs) ** 2

    def phase(self, n: int = 0) -> np.ndarray:
        """Unwrapped phase history of coefficient n."""
        return np.unwrap(np.angle(self.coeffs[:, n]))

    def to_csv(self, path, track_level: int = 0, n_leading: int = 4) -> None:
        pops = self.populations
        _trajectory_csv(path, self.times, pops[:, track_level], self.norms,
                        self.phase(track_level), pops[:, :n_leading])


def propagate_basis(
    schedule: Schedule,
    c0: np.ndarray,
    n_levels: int = 64,
    dt: float = 1e-4,
    with_cd: bool = True,
    mass: float = 1.0,
    hbar: float = 1.0,
    record_every: int = 50,
) -> BasisTrajectory:
    """Evolve box eigenbasis coefficients i hbar dc/dt = (H0 + L_dot (xi - i hbar D)) c.

    D_nm = <n|d/dL m> is the closed-form constant _sine_coupling over L.  In
    the frame c_n = a_n exp(-i theta_n), theta_n = n^2 pi^2 hbar tau / (2 m)
    on the clock tau = integral of L^-2, only the coupling moves a.  with_cd
    adds xi = i hbar D, which cancels it identically, so a = c(0) and no step
    is taken.  The bare arm takes Strang split steps of dt: half the free
    phase, the exact coupling exp(-ln(L1/L0) D1), the other half; each factor
    is unitary, and the error is second order in dt.  D1 is real antisymmetric,
    so _kick applies a kick as a real rotation in D1's 2x2 block basis.  Both
    arms record every record_every steps and at the end.
    """
    n_levels = _check_index("n_levels", n_levels, 1, math.inf)
    c0 = np.asarray(c0, dtype=complex)
    if c0.ndim != 1 or c0.size != n_levels:
        raise DomainError(f"c0 must hold {n_levels} coefficients, got shape {c0.shape}")
    if not abs(float(np.sum(np.abs(c0) ** 2)) - 1.0) <= 1e-10:
        raise DomainError("initial coefficients are not normalized")
    n_steps, step = _uniform_steps(schedule.duration, dt, record_every)

    recorded = {i for i in range(1, n_steps + 1) if i % record_every == 0 or i == n_steps}
    rec_steps = np.array([0, *sorted(recorded)])
    half = np.arange(2 * n_steps + 1) * (0.5 * step)
    taus = clock(schedule, half)
    phase_k = math.pi * math.pi * hbar / (2.0 * mass)
    ns2 = np.arange(1, n_levels + 1, dtype=float) ** 2
    top = n_levels - math.ceil(n_levels / 10)

    def lab_frame(a, tau):
        return a * np.exp(-1j * phase_k * tau * ns2)

    peak = float(np.max(np.abs(c0[top:]) ** 2))
    norm0 = math.sqrt(float(np.sum(np.abs(c0) ** 2)))
    if with_cd:
        coeffs = lab_frame(c0, taus[2 * rec_steps, None])
        norms = np.full(rec_steps.size, norm0)
    else:
        # c is the lab state at clock tau_c up to the free phase: phases between
        # kicks merge; zero kicks are skipped.
        q, w = _kick_basis(n_levels)
        kicks = np.diff(np.log(np.asarray(schedule.value(half[::2]), dtype=float)))
        c, tau_c, coeff_rows, norm_rows = c0, 0.0, [c0], [norm0]
        for lo in range(0, n_steps, _KICK_BLOCK):
            kicked = lo + np.flatnonzero(kicks[lo:lo + _KICK_BLOCK])
            tau_k = taus[2 * kicked + 1]
            free = lab_frame(1.0, np.diff(tau_k, prepend=tau_c)[:, None])
            turn = np.exp(-1j * kicks[kicked, None] * w)
            post, j = np.empty((kicked.size, n_levels), dtype=complex), 0
            for i in range(lo, min(lo + _KICK_BLOCK, n_steps)):
                if kicks[i]:
                    c = _kick(free[j] * c, q, turn[j])
                    post[j], tau_c, j = c, tau_k[j], j + 1
                if i + 1 in recorded:
                    coeff_rows.append(lab_frame(c, taus[2 * i + 2] - tau_c))
                    norm_rows.append(math.sqrt(float(np.sum(np.abs(c) ** 2))))
            peak = max(peak, float(np.max(np.abs(post[:, top:]) ** 2, initial=0.0)))
        coeffs, norms = np.array(coeff_rows), np.array(norm_rows)
    return BasisTrajectory(
        times=step * rec_steps,
        coeffs=coeffs,
        norms=norms,
        n_levels=n_levels,
        with_cd=with_cd,
        edge_population=peak,
        leakage_warning=peak > 1e-3,
    )


# ---------------------------------------------------------------------------
# exact box oracle


def box_phase(
    n: int, schedule: Schedule, t: float, mass: float = 1.0, hbar: float = 1.0
) -> float:
    """Accumulated phase -(1/hbar) * integral_0^t of n^2 pi^2 hbar^2 / (2 m L^2).

    The integral of L^-2 is split at the schedule's breaks (a tabulated
    spline's interior knots) and, past the ramp, at its end T, where the rate
    jumps, so each piece is smooth.  A piece is a 48-node Gauss-Legendre sum,
    kept where the 24-node sum on the same interval agrees to 1e-12
    relative; else each half is retried, at most 12 halvings deep, before
    NumericalError.  It does not go through schedules.clock, so it checks
    the clock the box engines run on.
    """
    if n < 1:
        raise DomainError(f"sine quantum number must be >= 1, got {n}")
    if not 0.0 <= t < math.inf:
        raise DomainError(f"phase time must be finite and nonnegative, got {t}")

    def piece(a, b, depth=0):
        half = 0.5 * (b - a)
        f = _positive_lam(schedule, a + half * (_GL_NODES + 1.0)) ** -2.0
        low, high = half * (f[:24] @ _GL_W24), half * (f[24:] @ _GL_W48)
        if abs(high - low) <= 1e-12 * abs(high):
            return high
        if depth == 12:
            raise NumericalError(f"phase quadrature did not converge on [{a}, {b}]")
        return piece(a, a + half, depth + 1) + piece(a + half, b, depth + 1)

    edges = [0.0, *(x for x in (*schedule.breaks, schedule.duration) if x < t), float(t)]
    total = sum(map(piece, edges[:-1], edges[1:]))
    return -n * n * math.pi * math.pi * hbar / (2.0 * mass) * total


def exact_box_state(
    n: int,
    schedule: Schedule,
    t: float,
    grid: GridSpec,
    mass: float = 1.0,
    hbar: float = 1.0,
) -> QuantumState:
    """Closed-form driven box state sampled on the grid.

    sqrt(2/L) sin(n pi q / L) times the dynamical phase; zero beyond the
    instantaneous wall when the grid extends past it.
    """
    if not 0.0 <= t <= schedule.duration * (1.0 + 1e-12):
        raise DomainError(f"t={t} outside the schedule window")
    lam = float(schedule.value(t))
    qs = grid.qs
    amps = np.where(
        qs <= lam, np.sqrt(2.0 / lam) * np.sin(n * math.pi * np.minimum(qs, lam) / lam), 0.0
    ).astype(complex)
    amps *= np.exp(1j * box_phase(n, schedule, t, mass, hbar))
    return QuantumState("grid", amps, grid)


# ---------------------------------------------------------------------------
# diagnostics


def fidelity(psi: QuantumState, es: EigenSystem, n: int) -> float:
    """|<n|psi>|^2 against an eigensystem level."""
    if psi.representation == "eigenbasis":
        return float(np.abs(psi.amplitudes[n]) ** 2)
    if psi.grid != es.grid:
        raise DomainError("state and eigensystem grids differ")
    c = es.grid.h * np.vdot(es.states[:, n], psi.amplitudes)
    return float(np.abs(c) ** 2)
