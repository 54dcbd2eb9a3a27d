"""Eigenvalue computation for terminating and infinite series.

Every family quantizes through the same three-term recurrence
(series_engine.Recurrence), whose diagonal carries the energy.
Terminating families lead to an (N+1) x (N+1) tridiagonal
characteristic matrix whose determinant, the continuant of the
recurrence, must vanish; the energy enters only along the diagonal,
affinely, so the eigenvalues come from one symmetric (or general)
tridiagonal eigenproblem.  Non-terminating families quantize through
the continued-fraction condition that the minimal solution of the
recurrence also satisfies the n = 0 row; the continued fraction is
evaluated on whole arrays of energies, so a scan of the search window
costs one pass down the recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq

from .exceptions import ArgumentError, ConvergenceError, NoRootError
from .heun_core import ExpansionFamily, PotentialSpec, default_window
from .series_engine import (
    Recurrence,
    SeriesSolution,
    build_finite,
    recurrence,
    solve_coeffs_infinite,
    truncation_order,
)

DET_SCAN_SAMPLES = 400
CF_SCAN_DEPTH = 2000
CF_START_DEPTH = 64
CF_MAX_DEPTH = 100_000
CF_SHIFT_TOL = 1.0e-11


@dataclass
class SpectrumResult:
    """Finite spectrum of one family."""

    spec: PotentialSpec
    family: ExpansionFamily
    energies: list[float]
    solutions: list[SeriesSolution]
    arscott_ok: bool
    degenerate_pairs: list[tuple[int, int]]
    expected_count: int
    real_count: int


def _finite_order(spec: PotentialSpec, fam: ExpansionFamily) -> int:
    N = truncation_order(spec, fam)
    if N is None:
        raise ArgumentError(
            f"family {fam.selector} does not terminate at l = {spec.l}")
    return N


def characteristic_det(spec: PotentialSpec, fam: ExpansionFamily,
                       E, N: Optional[int] = None):
    """Determinant of the truncated characteristic matrix at energy E.

    E may be real or complex, a scalar or an array; see
    Recurrence.continuant.
    """
    if N is None:
        N = _finite_order(spec, fam)
    return recurrence(spec, fam, 0.0).continuant(E, N)


def arscott_check(spec: PotentialSpec,
                  fam: ExpansionFamily) -> tuple[bool, list[int]]:
    """Sign condition guaranteeing N+1 real simple eigenvalues.

    Checks alpha_{n-1} gamma_n > 0 for 1 <= n <= N; returns the flag and
    the list of violating indices n.
    """
    N = _finite_order(spec, fam)
    tri = recurrence(spec, fam, 0.0)
    idx = np.arange(1, N + 1)
    bad = idx[~(tri.alpha_n(idx - 1) * tri.gamma_n(idx) > 0.0)].tolist()
    return (len(bad) == 0, bad)


def finite_spectrum(spec: PotentialSpec, fam: ExpansionFamily) -> SpectrumResult:
    """All real eigenvalues of a terminating family, ascending.

    When the sign condition holds the characteristic matrix is
    symmetrized exactly and solved with a tridiagonal eigensolver,
    guaranteeing N+1 simple real eigenvalues.  Otherwise the real roots
    of the characteristic polynomial are taken from its companion
    matrix and polished against the determinant; complex pairs then
    show up as a deficit between expected_count and real_count.
    """
    N = _finite_order(spec, fam)
    ok, _bad = arscott_check(spec, fam)
    tri = recurrence(spec, fam, 0.0)
    if ok:
        idx = np.arange(N + 1)
        off = np.sqrt(tri.alpha_n(idx[:-1]) * tri.gamma_n(idx[1:]))
        lams = eigh_tridiagonal(tri.beta_n(idx), off, eigvals_only=True)
        energies = sorted(float(-lam / tri.beta_slope) for lam in lams)
    else:
        energies = _companion_real_roots(tri, N)
    degenerate = [(i, j) for i in range(len(energies))
                  for j in range(i + 1, len(energies))
                  if abs(energies[i] - energies[j]) <= 1.0e-9 * (1.0 + abs(energies[i]))]
    solutions = [build_finite(spec, fam, E) for E in energies]
    return SpectrumResult(spec=spec, family=fam, energies=energies,
                          solutions=solutions, arscott_ok=ok,
                          degenerate_pairs=degenerate,
                          expected_count=N + 1, real_count=len(energies))


def _companion_real_roots(tri: Recurrence, N: int) -> list[float]:
    """Real roots of the characteristic determinant, ascending.

    The determinant is a degree N+1 polynomial in E, so its roots are
    the eigenvalues of the tridiagonal matrix built from the recurrence
    rows at E = 0 (mapped back through the diagonal slope).  Retained
    real candidates are polished with a narrow determinant bracket,
    which restores full precision when the dense eigensolver loses a
    few digits on a non-symmetric matrix.
    """
    idx = np.arange(N + 1)
    M = np.diag(tri.beta_n(idx))
    M[idx[:-1], idx[1:]] = tri.alpha_n(idx[:-1])
    M[idx[1:], idx[:-1]] = tri.gamma_n(idx[1:])
    lams = np.linalg.eigvals(M)
    roots = []
    for lam in lams:
        if abs(lam.imag) > 1.0e-8 * (1.0 + abs(lam)):
            continue
        E = float(-lam.real / tri.beta_slope)
        width = 1.0e-6 * (1.0 + abs(E))
        lo, hi = E - width, E + width
        if tri.continuant(lo, N) * tri.continuant(hi, N) < 0.0:
            E = float(brentq(tri.continuant, lo, hi, args=(N,),
                             xtol=1.0e-12, rtol=8.9e-16))
        roots.append(E)
    return sorted(roots)


def _require_infinite(spec: PotentialSpec, fam: ExpansionFamily) -> None:
    if truncation_order(spec, fam) is not None:
        raise ArgumentError(
            f"family {fam.selector} terminates at l = {spec.l}; "
            "use finite_spectrum")


def cf_roots(spec: PotentialSpec, fam: ExpansionFamily,
             count: int) -> list[float]:
    """The lowest count continued-fraction roots in the default window.

    The quantization function is sampled on DET_SCAN_SAMPLES energies
    at depth CF_SCAN_DEPTH, and the sign changes are refined in
    ascending order by infinite_energy; those it rejects as poles are
    skipped.
    """
    _require_infinite(spec, fam)
    roots: list[float] = []
    if count <= 0:
        return roots
    lo, hi = default_window(spec)
    grid = np.linspace(lo, hi, DET_SCAN_SAMPLES)
    vals = _cf_value(spec, fam, grid, CF_SCAN_DEPTH)
    for i in np.flatnonzero(vals[:-1] * vals[1:] < 0.0):
        try:
            roots.append(infinite_energy(spec, fam,
                                         (float(grid[i]), float(grid[i + 1]))))
        except NoRootError:
            continue
        if len(roots) == count:
            break
    return roots


def infinite_energy(spec: PotentialSpec, fam: ExpansionFamily,
                    bracket: Optional[tuple[float, float]] = None) -> float:
    """One eigenvalue of a non-terminating family via continued fraction.

    The quantization function is

        f(E) = beta_0 - alpha_0 gamma_1 / (beta_1 - alpha_1 gamma_2 / (...))

    evaluated at increasing depth until the refined root moves by less
    than 1e-11.  The continued fraction also changes sign at its poles,
    so a candidate is accepted only if the minimal-solution coefficients
    satisfy the n = 0 row there.  With bracket None the lowest root
    cf_roots finds in the default window is returned.
    """
    if bracket is None:
        roots = cf_roots(spec, fam, 1)
        if not roots:
            lo, hi = default_window(spec)
            raise NoRootError(
                f"no continued-fraction root of family {fam.selector} in "
                f"the default window [{lo:.4g}, {hi:.4g}]")
        return roots[0]
    _require_infinite(spec, fam)
    return _cf_root(spec, fam, bracket[0], bracket[1])


def _cf_value(spec: PotentialSpec, fam: ExpansionFamily, E, depth: int):
    """The quantization function f(E) cut off at depth.

    E may be a scalar or an array.  An array is evaluated in one pass
    down the recurrence and gives, bit for bit, the values of one call
    per energy.
    """
    tri = recurrence(spec, fam, E)
    idx = np.arange(depth + 1)
    beta = tri.beta_n(idx)
    ag = (tri.alpha_n(idx[:-1]) * tri.gamma_n(idx[1:])).tolist()
    f = beta[depth]
    for n in range(depth - 1, -1, -1):
        if not f.all():
            f = np.where(f == 0.0, 1.0e-300, f)
        f = beta[n] - ag[n] / f
    return f


def _cf_root(spec: PotentialSpec, fam: ExpansionFamily,
             lo: float, hi: float) -> float:
    depth = CF_START_DEPTH
    root_prev = None
    while depth <= CF_MAX_DEPTH:
        flo = _cf_value(spec, fam, lo, depth)
        fhi = _cf_value(spec, fam, hi, depth)
        if flo * fhi > 0.0:
            raise NoRootError(
                f"continued fraction has no sign change on [{lo}, {hi}]")
        root = brentq(lambda E: _cf_value(spec, fam, E, depth), lo, hi,
                      xtol=1.0e-12, rtol=8.9e-16)
        if root_prev is not None and abs(root - root_prev) < CF_SHIFT_TOL:
            _reject_pole(spec, fam, float(root))
            return float(root)
        root_prev = root
        depth *= 2
    raise ConvergenceError(
        f"continued-fraction depth exceeded {CF_MAX_DEPTH} without "
        "stabilizing the root")


def _reject_pole(spec: PotentialSpec, fam: ExpansionFamily, E: float) -> None:
    """Distinguish a quantization root from a continued-fraction pole.

    At a true eigenvalue the minimal solution satisfies the first
    recurrence row; at a pole it does not.
    """
    coeffs, _ = solve_coeffs_infinite(spec, fam, E, n_max=200)
    tri = recurrence(spec, fam, E)
    row0 = tri.beta_n(0) * coeffs[0] + tri.alpha_n(0) * coeffs[1]
    scale = max(abs(tri.beta_n(0)), abs(tri.alpha_n(0)), 1.0)
    if abs(row0) > 1.0e-6 * scale:
        raise NoRootError(
            f"sign change at E = {E:.12g} is a continued-fraction pole "
            f"(row residual {abs(row0):.3e})")


def symmetry_partner(spec: PotentialSpec) -> PotentialSpec:
    """The spec with coupling parameter reflected, l -> -l - 5.

    The combination (l+2)(l+3) is invariant, so both specs describe the
    same potential; series families map onto partner families.
    """
    return PotentialSpec(kind=spec.kind, l=-spec.l - 5.0, k=spec.k)
