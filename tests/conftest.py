from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest

from heunspec import shooting
from heunspec.heun_core import (FamilyGroup, PotentialKind, PotentialSpec,
                                default_window, family_prefactor)
from heunspec.series_engine import (SeriesSolution, finite_order,
                                    hyper_eval_args, recurrence,
                                    solve_coeffs_finite, solve_coeffs_infinite,
                                    truncation_order)
from heunspec.special_functions import jacobi, tilde_F


# the (potential, family, l) make-up of the hyper_levels benchmark workload
HYPER_LEVELS = (("v1", "bold5", (-1.5, 0.5, 2.5, 4.5)),
                ("v1", "bold6", (-0.5, 1.5, 3.5, 5.5)),
                ("v2", "bar5", (-1.5, 0.5, 2.5, 4.5)),
                ("v2", "bar7", (-0.5, 1.5, 3.5, 5.5)))


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


def make_spec(kind: str, l: float, k2: float) -> PotentialSpec:
    return PotentialSpec.from_k2(PotentialKind(kind), l, k2)


def series_solution(spec: PotentialSpec, fam, E: float,
                    n_max: int = 500) -> SeriesSolution:
    """The checked series solution of a family at an eigenvalue E: the
    terminating series, or the infinite one to b_{n_max}."""
    if truncation_order(spec, fam) is not None:
        return SeriesSolution(spec, fam, E,
                              solve_coeffs_finite(spec, fam, [E])[0])
    return SeriesSolution(spec, fam, E,
                          solve_coeffs_infinite(spec, fam, [E], n_max=n_max)[0])


def evaluate(sol, u: float) -> float:
    """Value of a series solution at position u, numpy's polyval for a
    power series and one scalar tilde_F per kernel term: the pointwise
    reference for series_engine.evaluate_grid."""
    fam = sol.family
    k2 = sol.spec.k.k2
    sn, cn, dn = jacobi(u, k2)
    pre = family_prefactor(sol.spec, fam).at(sn, cn, dn)
    if fam.group is FamilyGroup.POWER:
        return pre * np.polynomial.polynomial.polyval(sn * sn, sol.coeffs)
    z = sn * sn if fam.group is FamilyGroup.HYPER_BAR else cn * cn
    A0, B, C0 = hyper_eval_args(sol.spec, fam)
    total = 0.0
    zp = 1.0
    for n, bn in enumerate(sol.coeffs):
        if bn != 0.0:
            total += bn * zp * tilde_F(n + A0, B, n + C0, z)
        zp *= z
    return pre * total


def relative_rows(spec: PotentialSpec, fam, E: float, b) -> np.ndarray:
    """|alpha_n b_{n+1} + beta_n b_n + gamma_n b_{n-1}| over the sum of
    the three terms' moduli, for every row n of b; 0 where all vanish."""
    alpha, beta, gamma = recurrence(spec, fam, E).rows(len(b) - 1)
    terms = np.array([alpha * np.append(b[1:], 0.0),
                      beta * b,
                      gamma * np.append(0.0, b[:-1])])
    scale = np.abs(terms).sum(axis=0)
    return np.abs(terms.sum(axis=0)) / np.where(scale > 0.0, scale, 1.0)


def characteristic_det(spec: PotentialSpec, fam, E, N=None):
    """Determinant of the truncated characteristic matrix at energy E.

    E may be real or complex, a scalar or an array; N defaults to the
    family's finite section order.  See Recurrence.continuant.
    """
    if N is None:
        N = finite_order(spec, fam)
    return recurrence(spec, fam, 0.0).continuant(E, N)[0]


def brentq_real_roots(tri, N: int) -> list[float]:
    """Real roots of a section's continuant, ascending, one scalar brentq
    per eigvals candidate: the reference for spectrum._section_levels on
    a section that fails the sign condition.

    The candidates, their filter and the bracket that doubles from
    1e-6 (1 + |E|), up to 8 times, are those of the dense solve; each
    bracketed root is refined to xtol 1e-12, rtol 8.9e-16 on a scalar
    longdouble continuant of its own, which rescales as
    Recurrence.continuant does.
    """
    from scipy.optimize import brentq

    alpha, beta0, gamma = tri.rows(N)
    beta = list(beta0.astype(np.longdouble))
    ag = list(gamma[1:] * alpha[:-1].astype(np.longdouble))
    cap = np.longdouble(2.0 ** 400)

    def det(E):
        shift = tri.beta_slope * np.longdouble(E)
        d_prev2, d_prev = 1.0, beta[0] + shift
        for n in range(1, N + 1):
            d_prev2, d_prev = (d_prev, (beta[n] + shift) * d_prev
                               - ag[n - 1] * d_prev2)
            if abs(d_prev) > cap:
                d_prev2, d_prev = d_prev2 / cap, d_prev / cap
        return float(d_prev)

    idx = np.arange(N + 1)
    M = np.diag(beta0)
    M[idx[:-1], idx[1:]] = alpha[:-1]
    M[idx[1:], idx[:-1]] = gamma[1:]
    cands = sorted(float(-lam.real / tri.beta_slope)
                   for lam in np.linalg.eigvals(M)
                   if abs(lam.imag) <= 1.0e-8 * (1.0 + abs(lam)))
    roots = []
    for E in cands:
        width = 1.0e-6 * (1.0 + abs(E))
        for _ in range(8):
            a, b = E - width, E + width
            if det(a) * det(b) < 0.0:
                E = float(brentq(det, a, b, xtol=1.0e-12, rtol=8.9e-16))
                break
            width *= 2.0
        roots.append(E)
    return sorted(roots)


def march_by_stages(A0, A1, h, E):
    """Product of the step propagators over steps of lengths h, shape
    (2, 2, m), one per energy, stage by stage: the reference for
    shooting._step_polynomials and shooting._march.

    A0 + E A1 is the coefficient matrix at the stage points (each of
    shape (2, 2, 12, n)).  Each step's propagator I + sum b_i K_i, with
    K_i = h A_i (I + sum_j a_ij K_j), is formed for every step and
    energy at once, and the propagators are multiplied by a pairwise
    tree, later steps on the left.
    """
    n = h.size
    hA0 = np.moveaxis(A0 * h, 2, 0)[..., None]
    hA1 = np.moveaxis(A1 * h, 2, 0)[..., None]
    out = np.empty((2, 2, E.size), dtype=A0.dtype)
    block = max(1, shooting.STAGE_BLOCK // n)
    for lo in range(0, E.size, block):
        part = slice(lo, lo + block)
        e = E[part]
        K = np.empty((12, 2, 2, n, e.size), dtype=A0.dtype)
        for i in range(12):
            S = np.tensordot(shooting._A[i, :i], K[:i], axes=1)
            S[0, 0] += 1.0
            S[1, 1] += 1.0
            hA = hA1[i] * e
            hA += hA0[i]
            np.multiply(hA[:, :1], S[:1], out=K[i])
            K[i] += hA[:, 1:] * S[1:]
        P = np.tensordot(shooting._B, K, axes=1)
        P[0, 0] += 1.0
        P[1, 1] += 1.0
        while P.shape[2] > 1:
            even = P.shape[2] // 2 * 2
            pairs = shooting._mul(P[:, :, 1:even:2], P[:, :, 0:even:2])
            P = np.concatenate((pairs, P[:, :, even:]), axis=2)
        out[..., part] = P[:, :, 0]
    return out


@dataclass
class ShootingResult:
    """Eigenvalues found in a window, ascending; complete is False when
    the search stopped at max_count with sign changes left over."""

    energies: list[float]
    complete: bool


def shooting_spectrum(spec: PotentialSpec, parity: str, max_count: int = 8,
                      window: Optional[tuple[float, float]] = None,
                      samples: int = 400) -> ShootingResult:
    """Eigenvalues of one symmetry class by a scan of the shooting oracle.

    The window defaults to the standard search window; the matching
    function is sampled, sign changes are bracketed, and each bracket
    is refined by the oracle's Illinois refiner.  A sample where the
    function is exactly zero is a root as it stands.  At most max_count
    roots are refined.  The oracle is looked up on its module at each
    call, so a test may replace matching_values.
    """
    if window is None:
        window = default_window(spec)
    grid = np.linspace(window[0], window[1], samples)
    vals = shooting.matching_values(spec, parity, grid)
    brackets = []
    for i in range(samples - 1):
        if vals[i] == 0.0:
            # a zero-width bracket: the refiner returns grid[i] untouched
            brackets.append((grid[i], 0.0, grid[i], 0.0))
        elif vals[i] * vals[i + 1] < 0.0:
            brackets.append((grid[i], vals[i], grid[i + 1], vals[i + 1]))
    complete = len(brackets) <= max_count
    brackets = brackets[:max_count]
    if not brackets:
        return ShootingResult(energies=[], complete=complete)
    roots = shooting._illinois_batch(
        lambda E: shooting.matching_values(spec, parity, E), *zip(*brackets))
    return ShootingResult(energies=sorted(float(r) for r in roots),
                          complete=complete)
