"""Independent eigenvalue oracle: wall asymptotics plus shooting.

This module deliberately knows nothing about series solutions or
recurrences.  It integrates psi'' = (V - E) psi with an adaptive
Runge-Kutta scheme, starting from the exact indicial behavior
psi ~ t^2 (1 + c2 t^2 + c4 t^4) at the singular walls, and quantizes
energies by one of three conditions:

* first potential, domain (-K, K): integrate from the regular center
  u = 0 with even (1, 0) or odd (0, 1) data and from the right wall
  inward; an eigenvalue makes the two branches proportional, so their
  Wronskian at u = K/2 vanishes.
* second potential, domain (0, 2K), symmetric about u = K: integrate
  from the wall at 0 up to the midpoint; symmetric eigenfunctions need
  psi'(K) = 0, antisymmetric ones psi(K) = 0.
* either potential, apparent singularity at x = sn^2 = 1/k2, the point
  u = K + iK' where L/dn^2 has its double pole.  In x the equation is

      P psi_xx + (P'/2) psi_x = (V(x) - E) psi,  P = 4x(1-x)(1-k2 x),

  with V1 = (1-k2) [2/(1-x) - L/(1-k2 x)] and
  V2 = 2/x - (1-k2) L/(1-k2 x).  The exponents at x = 1/k2 are (l+3)/2
  and -(l+2)/2; they differ by l + 5/2, an integer exactly when l is
  half an odd integer.  The point is apparent (free of a logarithm)
  when the monodromy M once around it is the scalar exp(i pi (l+3));
  M comes from integrating the rational coefficients above around a
  circle that encloses no other singular point.  These energies are in
  general not eigenvalues of either parity class above.

Many trial energies integrate together as one stacked first-order
system, which keeps the scan and root-refinement passes cheap.  The
system carries sn, cn and dn as three more components (sn' = cn dn,
cn' = -sn dn, dn' = -k2 sn cn), started from one jacobi call per
integration, so its right-hand side evaluates no elliptic function.
Both forms of the potential, in u and in x, come from
heun_core.potential_from_squares.  Every root, of either matching
function or of the monodromy projection, is refined from a sign-change
bracket by one Illinois regula falsi (_illinois_batch) to
ROOT_XTOL * max(1, |E|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .exceptions import ArgumentError, ConvergenceError
from .heun_core import (PotentialKind, PotentialSpec, default_window,
                        potential_from_squares)
from .special_functions import complete_K, jacobi

RTOL = 1.0e-11
ATOL = 1.0e-14
WALL_OFFSET = 1.0e-3
DEFAULT_SAMPLES = 400
MONODROMY_TOL = 1.0e-8
ROOT_XTOL = 1.0e-10
ILLINOIS_MAX_ITER = 60


@dataclass
class ShootingResult:
    """Eigenvalues found in a window, ascending; complete is False when
    the search stopped at max_count with sign changes left over."""

    energies: list[float]
    complete: bool


def _wall_coeffs(kind: PotentialKind, k2: float, L: float) -> tuple[float, float]:
    """W0 and W2 of the wall expansion V = 2/t^2 + W0 + W2 t^2 + O(t^4).

    t is the distance from the wall (u = K for the first potential,
    u = 0 for the second).
    """
    smooth0 = 2.0 * (1.0 + k2) / 3.0
    smooth2 = 2.0 * (1.0 - k2 + k2 * k2) / 15.0
    if kind is PotentialKind.V1:
        return smooth0 - 2.0 * k2 - L, smooth2 + L * k2
    return smooth0 - (1.0 - k2) * L, smooth2 - (1.0 - k2) * L * k2


def _wall_start(kind: PotentialKind, k2: float, L: float,
                E: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """psi and dpsi/dt at distance t from a wall, from the t^2 branch."""
    W0, W2 = _wall_coeffs(kind, k2, L)
    c2 = (W0 - E) / 10.0
    c4 = ((W0 - E) * c2 + W2) / 28.0
    t2 = t * t
    psi = t2 * (1.0 + c2 * t2 + c4 * t2 * t2)
    dpsi = 2.0 * t + 4.0 * c2 * t * t2 + 6.0 * c4 * t2 * t2 * t
    return psi, dpsi


def _advance(kind: PotentialKind, k2: float, L: float, E: np.ndarray,
             u0: float, u1: float, psi0: np.ndarray,
             dpsi0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the stacked system from u0 to u1.

    sn, cn and dn ride along as the last three components of the state,
    started from one jacobi(u0, k2) and moved by sn' = cn dn,
    cn' = -sn dn, dn' = -k2 sn cn (DLMF 22.13.1-3), so the right-hand
    side evaluates no elliptic function.
    """
    m = len(E)

    def rhs(u, y):
        sn, cn, dn = y[2 * m:].tolist()
        V = potential_from_squares(kind, k2, L, sn * sn, cn * cn, dn * dn)
        out = np.empty(2 * m + 3)
        out[:m] = y[m:2 * m]
        out[m:2 * m] = (V - E) * y[:m]
        out[2 * m:] = cn * dn, -sn * dn, -k2 * sn * cn
        return out

    y0 = np.concatenate((psi0, dpsi0, jacobi(u0, k2)))
    res = solve_ivp(rhs, (u0, u1), y0, method="DOP853",
                    rtol=RTOL, atol=ATOL, dense_output=False)
    if not res.success:
        raise ArgumentError(f"integration failed: {res.message}")
    y = res.y[:, -1]
    return y[:m], y[m:2 * m]


def matching_values(spec: PotentialSpec, parity: str,
                    energies: Sequence[float]) -> np.ndarray:
    """Vector of matching-function values F(E) for the given energies.

    Roots of F are the shooting eigenvalues of the requested symmetry
    class ("even" or "odd"; for the second potential these mean
    symmetric or antisymmetric about the midpoint u = K).
    """
    if parity not in ("even", "odd"):
        raise ArgumentError(f"parity must be 'even' or 'odd', got {parity!r}")
    E = np.asarray(list(energies), dtype=float)
    if E.size == 0:
        return np.empty(0)
    k2 = spec.k.k2
    L = spec.coupling
    K = complete_K(k2)
    delta = WALL_OFFSET * K
    if spec.kind is PotentialKind.V1:
        half = 0.5 * K
        if parity == "even":
            psi0 = np.ones_like(E)
            dpsi0 = np.zeros_like(E)
        else:
            psi0 = np.zeros_like(E)
            dpsi0 = np.ones_like(E)
        pl, dl = _advance(spec.kind, k2, L, E, 0.0, half, psi0, dpsi0)
        pw, dw_dt = _wall_start(spec.kind, k2, L, E, delta)
        # t measures distance from the wall, so du = -dt.
        pr, dr = _advance(spec.kind, k2, L, E, K - delta, half, pw, -dw_dt)
        return pl * dr - dl * pr
    pw, dw_dt = _wall_start(spec.kind, k2, L, E, delta)
    pk, dk = _advance(spec.kind, k2, L, E, delta, K, pw, dw_dt)
    return dk if parity == "even" else pk


def shooting_spectrum(spec: PotentialSpec, parity: str, max_count: int = 8,
                      window: Optional[tuple[float, float]] = None,
                      samples: Optional[int] = None) -> ShootingResult:
    """Eigenvalues of one symmetry class found by scan plus refinement.

    The window defaults to the standard search window; the matching
    function is sampled, sign changes are bracketed, and each bracket
    is refined by _illinois_batch to ROOT_XTOL * max(1, |E|).  A sample
    where the function is exactly zero is a root as it stands.  At most
    max_count roots are refined.
    """
    if window is None:
        window = default_window(spec)
    n = samples if samples is not None else DEFAULT_SAMPLES
    grid = np.linspace(window[0], window[1], n)
    vals = matching_values(spec, parity, grid)
    brackets = []
    for i in range(n - 1):
        if vals[i] == 0.0:
            # a zero-width bracket: the refiner returns grid[i] untouched
            brackets.append((grid[i], 0.0, grid[i], 0.0))
        elif vals[i] * vals[i + 1] < 0.0:
            brackets.append((grid[i], vals[i], grid[i + 1], vals[i + 1]))
    complete = len(brackets) <= max_count
    brackets = brackets[:max_count]
    if not brackets:
        return ShootingResult(energies=[], complete=complete)
    roots = _illinois_batch(lambda E: matching_values(spec, parity, E),
                            *zip(*brackets))
    return ShootingResult(energies=sorted(float(r) for r in roots),
                          complete=complete)


def shooting_match(spec: PotentialSpec, parity: str, target: float,
                   radius: float = 0.05,
                   max_radius: float = 0.8) -> Optional[float]:
    """The shooting eigenvalue nearest to target, or None.

    Scans a widening bracket around the target for a sign change of the
    matching function and refines its root with _illinois_batch.
    Returns None when no sign change exists within max_radius, meaning
    the oracle has no eigenvalue of this symmetry class near the target.
    """
    res = shooting_match_table(spec, parity, [target], radius=radius,
                               max_radius=max_radius)
    return res[0]


def _probe_brackets(values, targets: Sequence[float], pending: list[int],
                    r: float) -> list[tuple[int, float, float, float, float]]:
    """Sign changes of values() on nine probes spanning each target +- r.

    All pending targets are probed in one stacked evaluation.  Returns
    (owner, lo, f(lo), hi, f(hi)) for every sign change, in ascending
    order of lo within each owner.
    """
    offsets = np.linspace(-r, r, 9)
    probes = np.concatenate([targets[j] + offsets for j in pending])
    vals = np.asarray(values(probes)).reshape(len(pending), 9)
    found = []
    for j, v in zip(pending, vals):
        for i in range(8):
            if v[i] * v[i + 1] < 0.0:
                found.append((j, targets[j] + offsets[i], v[i],
                              targets[j] + offsets[i + 1], v[i + 1]))
    return found


def shooting_match_table(spec: PotentialSpec, parity: str,
                         targets: Sequence[float], radius: float = 0.05,
                         max_radius: float = 0.8) -> list[Optional[float]]:
    """shooting_match for many targets of one spec, batched."""
    targets = list(targets)
    out: list[Optional[float]] = [None] * len(targets)
    pending = list(range(len(targets)))
    r = radius

    def values(E):
        return matching_values(spec, parity, E)

    while pending and r <= max_radius:
        brackets = {}
        for j, lo, flo, hi, fhi in _probe_brackets(values, targets,
                                                    pending, r):
            brackets.setdefault(j, (lo, flo, hi, fhi))
        if brackets:
            roots = _illinois_batch(values, *zip(*brackets.values()))
            for root, j in zip(roots, brackets):
                out[j] = float(root)
        pending = [j for j in pending if j not in brackets]
        r *= 3.0
    return out


def monodromy_defect(spec: PotentialSpec,
                     energies: Sequence[float]) -> np.ndarray:
    """M / lambda - I at x = 1/k2 for each energy, shape (m, 2, 2).

    M is the monodromy of the x-form of the equation once around the
    circle x = 1/k2 + rho w, |w| = 1, with rho = (1/k2 - 1) / 2, in the
    basis psi(w = -1) = 1, dpsi/dw = 0 and psi = 0, dpsi/dw = 1.  The
    start point w = -1 lies on the real segment between x = 1 and
    x = 1/k2.  lambda = exp(i pi (l + 3)) is the monodromy factor of
    the exponent (l + 3)/2, so the defect vanishes exactly when the
    singular point is apparent.
    """
    E = np.asarray(list(energies), dtype=float)
    m = E.size
    if m == 0:
        return np.empty((0, 2, 2), dtype=complex)
    k2 = spec.k.k2
    L = spec.coupling
    a = spec.k.a
    rho = 0.5 * (a - 1.0)
    EE = np.concatenate((E, E))

    def rhs(theta, y):
        w = -np.exp(1j * theta)
        x = a + rho * w
        s = 1.0 - k2 * x
        P = 4.0 * x * (1.0 - x) * s
        half_dP = 2.0 * ((1.0 - 2.0 * x) * s - k2 * x * (1.0 - x))
        V = potential_from_squares(spec.kind, k2, L, x, 1.0 - x, s)
        psi = y[:2 * m]
        dpsi = y[2 * m:]
        ddpsi = (rho * rho * (V - EE) * psi - rho * half_dP * dpsi) / P
        dw = 1j * w
        return np.concatenate((dpsi * dw, ddpsi * dw))

    one, zero = np.ones(m), np.zeros(m)
    y0 = np.concatenate((one, zero, zero, one)).astype(complex)
    res = solve_ivp(rhs, (0.0, 2.0 * math.pi), y0, method="DOP853",
                    rtol=RTOL, atol=ATOL)
    if not res.success:
        raise ArgumentError(f"integration failed: {res.message}")
    # Final state rows psi_1, psi_2, dpsi_1, dpsi_2 are M's entries.
    M = np.moveaxis(res.y[:, -1].reshape(2, 2, m), -1, 0)
    lam = np.exp(1j * math.pi * (spec.l + 3.0))
    return M / lam - np.eye(2)


def _log_coefficient(defect: np.ndarray) -> np.ndarray:
    """Real projection Re[D_12 / (2 pi i)] of each defect D.

    At half-odd l, D = 2 pi i c Y E_12 Y^-1, where the columns of Y are
    the local solutions y1 (exponent (l+3)/2) and y2 = ... + c log y1,
    so D_12 = 2 pi i c y1^2 / W with W their Wronskian: it changes sign
    with the log coefficient c and only touches zero where y1 does.
    """
    return defect[:, 0, 1].imag / (2.0 * math.pi)


def _illinois_batch(fun, lo: np.ndarray, flo: np.ndarray, hi: np.ndarray,
                    fhi: np.ndarray) -> np.ndarray:
    """Roots of fun in the sign-change brackets [lo, hi], all at once.

    Regula falsi with the Illinois halving of a retained end value
    (Dowell & Jarratt, BIT 11, 1971), run until every bracket is
    narrower than ROOT_XTOL * max(1, |E|).  Each round calls fun once on
    the still-open brackets, which costs one stacked integration; a few
    rounds suffice where bisection would need some 24 halvings.  A
    bracket of zero width returns its end as it stands.  Raises
    ConvergenceError if brackets are still open after ILLINOIS_MAX_ITER
    rounds.
    """
    lo, flo, hi, fhi = (np.array(v, dtype=float) for v in (lo, flo, hi, fhi))
    x = 0.5 * (lo + hi)
    kept = np.zeros(lo.size, dtype=int)  # +1: hi retained last round, -1: lo

    def still_open():
        return np.abs(hi - lo) > ROOT_XTOL * np.maximum(1.0, np.abs(x))

    for _ in range(ILLINOIS_MAX_ITER):
        act = still_open()
        if not act.any():
            return x
        c = hi[act] - fhi[act] * (hi[act] - lo[act]) / (fhi[act] - flo[act])
        fc = np.asarray(fun(c))
        x[act] = c
        to_hi = np.sign(fc) == np.sign(fhi[act])
        idx = np.flatnonzero(act)
        for i, up, ci, fi in zip(idx, to_hi, c, fc):
            if fi == 0.0:
                lo[i] = hi[i] = ci
            elif up:
                hi[i], fhi[i] = ci, fi
                if kept[i] < 0:
                    flo[i] *= 0.5
                kept[i] = -1
            else:
                lo[i], flo[i] = ci, fi
                if kept[i] > 0:
                    fhi[i] *= 0.5
                kept[i] = 1
    width = np.where(still_open(), np.abs(hi - lo), 0.0)
    if width.any():
        i = int(np.argmax(width))
        raise ConvergenceError(
            f"Illinois refinement left {np.count_nonzero(width)} bracket(s) "
            f"open after {ILLINOIS_MAX_ITER} rounds; widest "
            f"[{float(lo[i])!r}, {float(hi[i])!r}], width {width[i]:.3g}")
    return x


def monodromy_match_table(spec: PotentialSpec, targets: Sequence[float],
                          max_radius: float = 0.8) -> list[Optional[float]]:
    """Nearest energy to each target at which x = 1/k2 is apparent.

    The log coefficient is scanned on a bracket around each target,
    +-0.05 at first and tripled while no match is found, and every sign
    change is refined; a root counts only if the
    full defect |M / lambda - I| (Frobenius norm) is below MONODROMY_TOL
    there, since sign changes also occur where M is not scalar (integer
    or generic l).  None means no such energy within max_radius.
    """
    targets = [float(t) for t in targets]
    out: list[Optional[float]] = [None] * len(targets)
    pending = list(range(len(targets)))

    def log_coeff(E):
        return _log_coefficient(monodromy_defect(spec, E))

    r = 0.05
    while pending and r <= max_radius:
        brackets = _probe_brackets(log_coeff, targets, pending, r)
        if brackets:
            owners, lo, flo, hi, fhi = zip(*brackets)
            roots = _illinois_batch(log_coeff, lo, flo, hi, fhi)
            defect = np.linalg.norm(monodromy_defect(spec, roots),
                                    axis=(1, 2))
            for j, root, d in zip(owners, roots, defect):
                best = out[j]
                if d < MONODROMY_TOL and (
                        best is None
                        or abs(root - targets[j]) < abs(best - targets[j])):
                    out[j] = float(root)
        pending = [j for j in pending if out[j] is None]
        r *= 3.0
    return out
