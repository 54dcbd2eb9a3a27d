"""Eigenvalue computation for terminating and infinite series.

One entry, family_levels, gives the levels of either kind of family.

Every level is an eigenvalue of a finite section (rows 0..N) of one
three-term recurrence, series_engine.Recurrence, whose energy enters
only the diagonal, affinely: one tridiagonal eigenproblem
(_section_levels), which forms the section's rows and products
alpha_{n-1} gamma_n once and tests their signs once.  It is symmetrized
when alpha_{n-1} gamma_n > 0 for every n, else solved densely and
polished, all levels at once, by bracketed Newton steps on the
continuant and its E-derivative; the same function checks both order
caps, so a section past SECTION_MAX_ORDER, or a dense one past
DENSE_MAX_ORDER, raises ConvergenceError before anything of its size
is built.  For a terminating family N is the
truncation order.  A non-terminating power family's section levels
converge to its levels (Ikebe, Asai, Miyazaki & Cai, Linear Algebra
Appl. 241-243, 1996), so N doubles until they stop moving.  A
non-terminating two-sided family has no minimal solution: rejected.
Both kinds of family return the series solutions at their levels:
each is a SeriesSolution of the coefficients that solve_coeffs_finite
or solve_coeffs_infinite give, in one call for all the levels, under
one join-residual bound, and an infinite family's coefficients run to
the settled section order N.  A finite spectrum's sign-condition flag
is the section solve's own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .exceptions import ArgumentError, ConvergenceError, DomainError, NoRootError
from .heun_core import ExpansionFamily, FamilyGroup, PotentialSpec, default_window
from .series_engine import (SECTION_MAX_ORDER, Recurrence, SeriesSolution,
                            finite_order, recurrence, solve_coeffs_finite,
                            solve_coeffs_infinite, truncation_order)

SECTION_SHIFT_TOL = 1.0e-11
DENSE_MAX_ORDER = 2000  # a dense solve costs O(N^3) time
_BISECT_TOL = 2.0 * np.finfo(float).tiny  # the default eps*|T| drifts with N
POLISH_MAX_STEPS = 100  # Newton-bisection steps of one root (_polish)


@dataclass
class SpectrumResult:
    """Levels of one family, ascending, as series solutions; order (the
    truncation order) and arscott_ok are None if it does not terminate."""

    solutions: list[SeriesSolution]
    order: Optional[int]
    arscott_ok: Optional[bool]
    degenerate_pairs: list[tuple[int, int]]

    @property
    def energies(self) -> list[float]:
        return [sol.E for sol in self.solutions]


def _sign_violations(ag: np.ndarray) -> list[int]:
    """Indices 1 <= n <= N with alpha_{n-1} gamma_n <= 0, from the
    products ag[n - 1] = alpha_{n-1} gamma_n of a section."""
    return (np.flatnonzero(~(ag > 0.0)) + 1).tolist()


def finite_spectrum(spec: PotentialSpec, fam: ExpansionFamily) -> SpectrumResult:
    """All real eigenvalues of a terminating family, ascending.

    The section of order N = truncation order is the whole problem.
    When the sign condition (Arscott) holds, alpha_{n-1} gamma_n > 0 for
    1 <= n <= N, it has N+1 simple real eigenvalues; otherwise complex
    pairs show up as fewer than N+1 energies, and an order past
    DENSE_MAX_ORDER raises ConvergenceError.
    """
    N = finite_order(spec, fam)
    energies, symmetric = _section_levels(recurrence(spec, fam, 0.0), N)
    degenerate = []  # the energies ascend, so E_j - E_i grows with j
    for i, E in enumerate(energies):
        j = i + 1
        while (j < len(energies)
               and energies[j] - E <= 1.0e-9 * (1.0 + abs(E))):
            degenerate.append((i, j))
            j += 1
    coeffs = solve_coeffs_finite(spec, fam, np.array(energies))
    solutions = [SeriesSolution(spec, fam, E, b)
                 for E, b in zip(energies, coeffs)]
    return SpectrumResult(solutions=solutions, order=N, arscott_ok=symmetric,
                          degenerate_pairs=degenerate)


def _section_levels(tri: Recurrence, N: int,
                    window: Optional[tuple[float, float]] = None,
                    count: Optional[int] = None) -> tuple[list[float], bool]:
    """Real levels of the section of rows 0..N, ascending: the lowest
    count (all, if None), and of those only the ones inside a window;
    and whether the section meets the sign condition.

    An order past SECTION_MAX_ORDER raises ConvergenceError before any
    row is built.  The rows and their products alpha_{n-1} gamma_n are
    formed once; entries that overflow float64, from a huge |l| or a
    tiny k2, raise DomainError.  Under the sign condition the matrix is
    symmetrized exactly and solved by a tridiagonal eigensolver
    (bisection to full precision for a count or a window).  Else an
    order past DENSE_MAX_ORDER raises ConvergenceError before the dense
    matrix is built; its real eigenvalues are the candidates, polished
    on the continuant by _polish, all in one pass: a dense solve of a
    non-symmetric matrix loses digits (1.7e-5, v2 bar5 l = 13.5).  Both
    map an eigenvalue to an energy through the diagonal slope, then keep
    the window and the count.
    """
    if N > SECTION_MAX_ORDER:
        raise ConvergenceError(
            f"section of order N = {N} passes cap {SECTION_MAX_ORDER}")
    with np.errstate(over="ignore", invalid="ignore"):
        alpha, diag, gamma = tri.rows(N)
        ag = alpha[:-1] * gamma[1:]
    if not (np.isfinite(diag).all() and np.isfinite(ag).all()):
        raise DomainError(f"section entries overflow float64 at l = "
                          f"{tri.spec.l}, k2 = {tri.spec.k.k2}")
    symmetric = not _sign_violations(ag)
    if symmetric:
        select = {}
        if count is not None:  # lowest E: largest lambda if slope > 0
            m = min(count, N + 1)
            select = dict(select="i", tol=_BISECT_TOL, select_range=(
                (N + 1 - m, N) if tri.beta_slope > 0.0 else (0, m - 1)))
        elif window is not None:
            select = dict(select="v", tol=_BISECT_TOL, select_range=sorted(
                -tri.beta_slope * E for E in window))
        lams = eigh_tridiagonal(diag, np.sqrt(ag), eigvals_only=True,
                                **select)
    else:
        if N > DENSE_MAX_ORDER:
            raise ConvergenceError(
                f"section of order N = {N} fails alpha_(n-1) gamma_n > 0 and "
                f"needs a dense solve; N passes cap {DENSE_MAX_ORDER}")
        idx = np.arange(N + 1)
        M = np.diag(diag)
        M[idx[:-1], idx[1:]] = alpha[:-1]
        M[idx[1:], idx[:-1]] = gamma[1:]
        lams = [lam.real for lam in np.linalg.eigvals(M)
                if abs(lam.imag) <= 1.0e-8 * (1.0 + abs(lam))]
    lo, hi = window or (-math.inf, math.inf)
    levels = [E for E in sorted(float(-lam / tri.beta_slope) for lam in lams)
              if lo <= E <= hi][:count]
    if not symmetric:
        levels = sorted(_polish(tri, N, np.array(levels)).tolist())
    return levels, symmetric


def _polish(tri: Recurrence, N: int, E: np.ndarray) -> np.ndarray:
    """Roots of the continuant D_N next to candidate energies E, one per
    candidate; each round runs one continuant call for all candidates.

    A candidate's bracket E -+ w starts at w = 1e-6 (1 + |E|) and
    doubles, up to 8 times, until D_N changes sign across it; a
    candidate whose bracket never does keeps its value.  In a bracket,
    Newton steps on D_N and D'_N start from E and keep the bracket
    around the root (rtsafe, Press et al., Numerical Recipes, 9.4): a
    step that would leave it, or that is not below half the step before
    last, bisects it instead.  A root is done at its first step of at
    most 1e-12 + 8.9e-16 |E|; one still moving after POLISH_MAX_STEPS
    steps raises ConvergenceError.
    """
    E = E.astype(float)  # a copy
    width = 1.0e-6 * (1.0 + np.abs(E))
    # the first call also gives D_N and D'_N where Newton starts
    D, dD = tri.continuant(np.concatenate((E, E - width, E + width)), N)
    f, df, D = D[:E.size], dD[:E.size], D[E.size:]
    lo, hi, f_lo = np.zeros_like(E), np.zeros_like(E), np.zeros_like(E)
    pending = np.arange(E.size)
    for doubling in range(8):
        if doubling:
            width[pending] *= 2.0
            D = tri.continuant(np.concatenate((E[pending] - width[pending],
                                               E[pending] + width[pending])),
                               N)[0]
        f_a, f_b = np.split(D, 2)
        found = np.sign(f_a) * np.sign(f_b) < 0.0
        i = pending[found]
        lo[i], hi[i], f_lo[i] = E[i] - width[i], E[i] + width[i], f_a[found]
        pending = pending[~found]
        if not pending.size:
            break
    live = np.flatnonzero(f_lo)  # the bracketed candidates
    x, f, df, lo, hi, f_lo = (v[live] for v in (E, f, df, lo, hi, f_lo))
    step = older = hi - lo
    steps = 0
    while live.size:
        if steps == POLISH_MAX_STEPS:
            worst = int(np.argmax(np.abs(step)))
            raise ConvergenceError(
                f"{live.size} root(s) of a section of order N = {N} still "
                f"moving after {steps} steps: step {abs(step[worst]):.3g} "
                f"at E = {x[worst]:.17g}")
        if steps:
            f, df = tri.continuant(x, N)
        steps += 1
        above = np.sign(f) * np.sign(f_lo) > 0.0  # the root lies above x
        lo, hi = np.where(above, x, lo), np.where(above, hi, x)
        with np.errstate(divide="ignore", over="ignore"):
            newton = np.divide(f, df, out=np.zeros_like(f), where=f != 0.0)
        new = x - newton
        bisect = ~((lo <= new) & (new <= hi)
                   & (np.abs(newton) <= 0.5 * np.abs(older)))
        new[bisect] = 0.5 * (lo + hi)[bisect]
        older, step = step, new - x
        done = np.abs(step) <= 1.0e-12 + 8.9e-16 * np.abs(new)
        E[live[done]] = new[done]
        live, x, lo, hi, f_lo, step, older = (
            v[~done] for v in (live, new, lo, hi, f_lo, step, older))
    return E


def family_levels(spec: PotentialSpec, fam: ExpansionFamily,
                  count: Optional[int],
                  window: Optional[tuple[float, float]] = None
                  ) -> SpectrumResult:
    """The levels of a family: all of a terminating one's
    (finite_spectrum), else those inside the window, of the lowest count
    (all, if None); a negative count raises DomainError first.  The
    default window, default_window(spec), starts below the potential's
    minimum, so no level lies below it.

    N starts at ceil(30 / -log10 k2), where the minimal solution has
    decayed by 1e-30, and doubles until the levels move by less than
    SECTION_SHIFT_TOL * max(1, |E|).  Each level's solution is then
    built with coefficients b_0..b_N of the settled order, which is the
    level check: a join residual above FINITE_TOL raises
    ConsistencyError, as for a terminating family.  A ConvergenceError
    of a section solve, from an order cap or the polish, ends the
    doubling and is raised again with the family, the order N and the
    last shift.  Non-terminating two-sided families raise DomainError
    before any recursion.
    """
    if count is not None and count < 0:
        raise DomainError(f"--max-energies must be nonnegative, got {count}")
    if truncation_order(spec, fam) is not None:
        return finite_spectrum(spec, fam)
    if fam.group is not FamilyGroup.POWER:
        raise DomainError(
            f"family {fam.selector} does not terminate at l = {spec.l}; a "
            "non-terminating two-sided series has no minimal solution")
    if count == 0:
        return SpectrumResult([], None, None, [])
    window = window or default_window(spec)
    tri = recurrence(spec, fam, 0.0)
    N = math.ceil(30.0 / -math.log10(spec.k.k2))
    levels, shift = None, math.inf
    while shift >= SECTION_SHIFT_TOL:
        # the section of order 2N first, so that a cap ends the doubling
        # before the section of order N is solved
        try:
            new = _section_levels(tri, 2 * N, window, count)[0]
            if levels is None:
                levels = _section_levels(tri, N, window, count)[0]
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"levels of family {fam.selector} not settled at order N = "
                f"{N} (last relative shift {shift:.3g}): {exc}") from exc
        N *= 2
        shift = math.inf if len(new) != len(levels) else max(
            [abs(a - b) / max(1.0, abs(a)) for a, b in zip(new, levels)],
            default=0.0)
        levels = new
    coeffs = solve_coeffs_infinite(spec, fam, np.array(levels), n_max=N)
    return SpectrumResult([SeriesSolution(spec, fam, E, b)
                           for E, b in zip(levels, coeffs)], None, None, [])


def infinite_energy(spec: PotentialSpec, fam: ExpansionFamily,
                    bracket: Optional[tuple[float, float]] = None) -> float:
    """The lowest level of a non-terminating family in bracket (the
    default window if None); NoRootError if it holds none."""
    if truncation_order(spec, fam) is not None:
        raise ArgumentError(f"family {fam.selector} terminates at l = "
                            f"{spec.l}; use family_levels")
    levels = family_levels(spec, fam, None if bracket else 1,
                           bracket).solutions
    if not levels:
        lo, hi = bracket or default_window(spec)
        raise NoRootError(
            f"no level of family {fam.selector} in [{lo:.6g}, {hi:.6g}]")
    return levels[0].E


def _cf_value(spec: PotentialSpec, fam: ExpansionFamily, E, depth: int):
    """The continued fraction f(E) = beta_0 - alpha_0 gamma_1 / (beta_1 -
    ...) cut off at depth; its roots are the levels of an infinite series.

    Reference only: no solver calls it, and tests check the section
    levels against it.  An array E is evaluated in one pass and gives,
    bit for bit, the values of one call per energy.
    """
    alpha, beta, gamma = recurrence(spec, fam, E).rows(depth)
    ag = (alpha[:-1] * gamma[1:]).tolist()
    f = beta[depth]
    for n in range(depth - 1, -1, -1):
        if not f.all():
            f = np.where(f == 0.0, 1.0e-300, f)
        f = beta[n] - ag[n] / f
    return f


def symmetry_partner(spec: PotentialSpec) -> PotentialSpec:
    """The spec with coupling parameter reflected, l -> -l - 5.

    The combination (l+2)(l+3) is invariant, so both specs describe the
    same potential; series families map onto partner families.
    """
    return PotentialSpec(kind=spec.kind, l=-spec.l - 5.0, k=spec.k)
