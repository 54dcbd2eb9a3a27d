"""References for the benchmark's output checks, computed apart from heunspec.

Nothing here imports heunspec.  The potentials come from
scipy.special.ellipj, eigenvalues from a finite-difference
Sturm-Liouville matrix, and the closed forms and level counts from the
mathematics of the two potentials:

    V1(u) = (1 - k2) [2 / cn^2 - L / dn^2]      on (-K, K), even about 0
    V2(u) = 2 / sn^2 - (1 - k2) L / dn^2        on (0, 2K), even about K

with L = (l + 2)(l + 3), which is the same for l and its partner -l - 5.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import ellipj, ellipk

# Parity class of each power-series family about the symmetry point
# (u = 0 for v1, u = K for v2).
FAMILY_PARITY = {
    ("v1", "ring5"): "even",
    ("v1", "ring6"): "odd",
    ("v2", "ring5"): "even",
    ("v2", "ring7"): "odd",
}

# Nine-point central second difference, error O(h^8).
_D2 = np.array([-1.0 / 560, 8.0 / 315, -1.0 / 5, 8.0 / 5, -205.0 / 72,
                8.0 / 5, -1.0 / 5, 8.0 / 315, -1.0 / 560])
# The residual is taken this far (in units of K) from the walls and from
# the symmetry point, where the hypergeometric-kernel series of the
# two-sided families have a derivative kink.
RESIDUAL_MARGIN = 0.12
FD_POINTS = 2000


def coupling(l: float) -> float:
    return (l + 2.0) * (l + 3.0)


def potential(kind: str, l: float, k2: float, u) -> np.ndarray:
    sn, cn, dn, _ = ellipj(np.asarray(u, dtype=float), k2)
    L = coupling(l)
    if kind == "v1":
        return (1.0 - k2) * (2.0 / (cn * cn) - L / (dn * dn))
    return 2.0 / (sn * sn) - (1.0 - k2) * L / (dn * dn)


def _fd_levels(kind: str, l: float, k2: float, parity: str, n: int,
               count: int) -> np.ndarray:
    """Lowest eigenvalues of -psi'' + V psi on [0, K], step K / n.

    v1: the centre u = 0 carries psi' = 0 (even) or psi = 0 (odd), the
    wall u = K carries psi = 0.  v2: the wall u = 0 carries psi = 0, the
    midpoint u = K carries psi' = 0 (even) or psi = 0 (odd).  A Neumann
    end uses the ghost-point row, symmetrized by a sqrt(2) scaling.
    """
    h = ellipk(k2) / n
    neumann_first = kind == "v1" and parity == "even"
    neumann_last = kind == "v2" and parity == "even"
    first = 0 if neumann_first else 1
    last = n if neumann_last else n - 1
    u = np.arange(first, last + 1) * h
    diag = 2.0 / h ** 2 + potential(kind, l, k2, u)
    off = np.full(len(u) - 1, -1.0 / h ** 2)
    if neumann_first:
        off[0] *= math.sqrt(2.0)
    if neumann_last:
        off[-1] *= math.sqrt(2.0)
    return eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                            select_range=(0, count - 1))


def parity_levels(kind: str, l: float, k2: float, parity: str,
                  count: int) -> np.ndarray:
    """Lowest `count` eigenvalues of one parity class, ascending.

    Richardson extrapolation of the O(h^2) finite-difference values at
    steps K/2000 and K/4000; agrees with converged values to ~1e-8.
    """
    coarse = _fd_levels(kind, l, k2, parity, FD_POINTS, count)
    fine = _fd_levels(kind, l, k2, parity, 2 * FD_POINTS, count)
    return (4.0 * fine - coarse) / 3.0


def residual_windows(kind: str, K: float) -> list[tuple[float, float]]:
    m = RESIDUAL_MARGIN
    if kind == "v1":
        return [(m * K, (1.0 - m) * K)]
    return [(m * K, (1.0 - m) * K), ((1.0 + m) * K, (2.0 - m) * K)]


def sample_residual(kind: str, l: float, k2: float, E: float,
                    samples) -> float:
    """Relative residual of psi'' - (V - E) psi on sampled values.

    The samples must lie on a uniform grid.  psi'' comes from the
    nine-point stencil, V from ellipj, and the residual is scaled by
    max|psi| (1 + |E| + max|V|) over the points whose stencil lies in an
    interior window.
    """
    s = np.asarray(samples, dtype=float)
    us, psi = s[:, 0], s[:, 1]
    h = (us[-1] - us[0]) / (len(us) - 1)
    d2 = np.convolve(psi, _D2, mode="valid") / (h * h)
    uc, pc = us[4:-4], psi[4:-4]
    keep = np.zeros(len(uc), dtype=bool)
    for lo, hi in residual_windows(kind, ellipk(k2)):
        keep |= (uc - 4.0 * h >= lo) & (uc + 4.0 * h <= hi)
    V = potential(kind, l, k2, uc[keep])
    r = d2[keep] - (V - E) * pc[keep]
    scale = float(np.max(np.abs(pc[keep]))) * (1.0 + abs(E)
                                               + float(np.max(np.abs(V))))
    return float(np.max(np.abs(r))) / scale


def level_count(family: str, l: float) -> int:
    """Levels of a terminating family from its termination rule.

    Power series terminate at integer l >= 0 with floor(l/2) + 1
    (index 5) or floor((l+1)/2) (index 6, 7) levels; two-sided series
    terminate at half-odd l >= -3/2 with N + 1 = l + 5/2 levels, and at
    integer l they reduce to the power series of the same index.
    """
    index = int(family[-1])
    if abs(l - round(l)) > 1.0e-9:
        return int(round(l + 2.5))
    n = int(round(l))
    return n // 2 + 1 if index == 5 else (n + 1) // 2


def closed_form_levels(kind: str, family: str, l: float,
                       k2: float) -> list[float] | None:
    """The paper's closed-form levels for one- and two-term series.

    Returns the real levels, ascending (empty when the pair is complex),
    or None where no closed form applies.
    """
    if family.startswith("bold"):
        if l == -1.5:
            return [-0.5 - 1.75 * k2]
        if l == -0.5:
            root = math.sqrt(1.0 + 7.0 * k2 + k2 * k2)
            base = -2.5 - 0.75 * k2
            return [base - root, base + root]
    if family.startswith("bar"):
        if l == -1.5:
            return [-0.5 + 2.25 * k2]
        if l == -0.5:
            disc = 1.0 - 9.0 * k2 + 9.0 * k2 * k2
            if disc < 0.0:
                return []
            base = -2.5 + 3.25 * k2
            return [base - math.sqrt(disc), base + math.sqrt(disc)]
    if family == "ring5" and l == 0.0:
        return [2.0 * k2 - 2.0] if kind == "v1" else [-2.0]
    return None
