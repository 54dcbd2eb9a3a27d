"""Cross-checks: finite-difference residuals and symmetry equivalences.

The residual check discretizes psi'' + (E - V) psi on an interior grid
with a five-point stencil and normalizes by the solution and potential
scales, so a correct eigenfunction lands many orders below the
tolerance while a detuned energy fails immediately.  The equivalence
suite exercises the l -> -l - 5 partner identities between series
families.  The shooting oracle lives in its own module, shooting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import ArgumentError, NoRootError
from .heun_core import (
    ExpansionFamily,
    FamilyGroup,
    PotentialKind,
    PotentialSpec,
    potential_value,
)
from .series_engine import (
    SeriesSolution,
    build_infinite,
    evaluate_grid,
    truncation_order,
)
from .spectrum import finite_spectrum, infinite_levels, symmetry_partner
from .special_functions import complete_K

DEFAULT_GRID = 128
DEFAULT_MARGIN = 0.12
COMPARE_POINTS = 32


@dataclass
class ResidualReport:
    """Finite-difference residual of one solution on an interior grid."""

    grid: np.ndarray
    max_rel_residual: float
    l2_rel_residual: float
    excluded_margin: float


def residual_grid(spec: PotentialSpec, n_grid: int = DEFAULT_GRID,
                  margin: float = DEFAULT_MARGIN) -> np.ndarray:
    """Interior evaluation grid (margin*K, (1-margin)*K).

    Both potentials are symmetric (about 0 and about K respectively),
    so one interior quarter-period window away from every wall and away
    from the symmetry point captures the eigenfunction behavior.
    """
    K = complete_K(spec.k.k2)
    return np.linspace(margin * K, (1.0 - margin) * K, n_grid)


def ode_residual(sol: SeriesSolution, n_grid: int = DEFAULT_GRID,
                 margin: float = DEFAULT_MARGIN) -> ResidualReport:
    """Five-point-stencil residual of psi'' + (E - V) psi.

    The stencil step is span/(8*n_grid), well below the grid spacing,
    so the discretization error sits near 1e-10 relative while an
    energy detuning of 1e-2 lifts the measure above 1e-4.
    """
    if n_grid < 16:
        raise ArgumentError("residual grid needs at least 16 points")
    spec = sol.spec
    us = residual_grid(spec, n_grid=n_grid, margin=margin)
    h = (us[-1] - us[0]) / (8.0 * n_grid)
    offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * h
    pts = (us[:, None] + offsets[None, :]).ravel()
    vals = evaluate_grid(sol, pts).reshape(len(us), 5)
    d2 = (-vals[:, 0] + 16.0 * vals[:, 1] - 30.0 * vals[:, 2]
          + 16.0 * vals[:, 3] - vals[:, 4]) / (12.0 * h * h)
    V = potential_value(spec, us)
    psi = vals[:, 2]
    r = d2 + (sol.E - V) * psi
    peak = float(np.max(np.abs(psi)))
    if peak == 0.0:
        return ResidualReport(grid=us, max_rel_residual=0.0,
                              l2_rel_residual=0.0, excluded_margin=margin)
    scale = peak * (1.0 + abs(sol.E) + float(np.max(np.abs(V))))
    return ResidualReport(
        grid=us,
        max_rel_residual=float(np.max(np.abs(r))) / scale,
        l2_rel_residual=float(np.sqrt(np.mean(r * r))) / scale,
        excluded_margin=margin,
    )


@dataclass
class EquivalenceRecord:
    """One partner-identity comparison and its worst deviation."""

    name: str
    max_dev: float
    note: str = ""


_POWER_PARTNER = {
    PotentialKind.V1: {5: 1, 1: 5, 6: 2, 2: 6},
    PotentialKind.V2: {5: 1, 1: 5, 7: 3, 3: 7},
}
_HYPER_PARTNER = {
    PotentialKind.V1: {1: 6, 6: 1, 2: 5, 5: 2},
    PotentialKind.V2: {1: 7, 7: 1, 3: 5, 5: 3},
}


def _normalized(vals: np.ndarray) -> np.ndarray:
    anchor = int(np.argmax(np.abs(vals)))
    return vals / vals[anchor]


def _compare_pair(spec_a: PotentialSpec, fam_a: ExpansionFamily,
                  spec_b: PotentialSpec, fam_b: ExpansionFamily) -> list[EquivalenceRecord]:
    """Spectra and normalized eigenfunctions of two partner families."""
    out = []
    ra = finite_spectrum(spec_a, fam_a)
    rb = finite_spectrum(spec_b, fam_b)
    tag = (f"{spec_a.kind.value} {fam_a.selector}(l={spec_a.l:g}) vs "
           f"{fam_b.selector}(l={spec_b.l:g})")
    if len(ra.energies) != len(rb.energies):
        out.append(EquivalenceRecord(name=f"{tag} spectra", max_dev=np.inf,
                                     note="real eigenvalue counts differ"))
        return out
    if not ra.energies:
        out.append(EquivalenceRecord(name=f"{tag} spectra", max_dev=0.0,
                                     note="both spectra empty of real roots"))
        return out
    dev_e = max(abs(x - y) for x, y in zip(ra.energies, rb.energies))
    out.append(EquivalenceRecord(name=f"{tag} spectra", max_dev=dev_e))
    us = residual_grid(spec_a, n_grid=COMPARE_POINTS, margin=0.05)
    dev_f = 0.0
    for sa, sb in zip(ra.solutions, rb.solutions):
        fa = _normalized(evaluate_grid(sa, us))
        fb = _normalized(evaluate_grid(sb, us))
        dev_f = max(dev_f, float(np.max(np.abs(fa - fb))))
    out.append(EquivalenceRecord(name=f"{tag} eigenfunctions", max_dev=dev_f))
    return out


def equivalence_suite(spec: PotentialSpec) -> list[EquivalenceRecord]:
    """All partner-identity checks applicable to this spec.

    For terminating families the spectra and normalized eigenfunctions
    of (family, l) and (partner family, -l-5) are compared; when no
    family terminates, the lowest infinite-series level of the
    index-5 expansion is located and the index-1 expansion is compared
    pointwise at the same energy.
    """
    partner = symmetry_partner(spec)
    records: list[EquivalenceRecord] = []
    any_finite = False
    for group, table in ((FamilyGroup.POWER, _POWER_PARTNER),
                         (FamilyGroup.HYPER_BAR, _HYPER_PARTNER),
                         (FamilyGroup.HYPER_BOLD, _HYPER_PARTNER)):
        for idx, idx_b in table[spec.kind].items():
            try:
                fam_a = ExpansionFamily(group, idx)
                fam_b = ExpansionFamily(group, idx_b)
            except ArgumentError:
                continue
            if not (fam_a.supported_for(spec.kind)
                    and fam_b.supported_for(spec.kind)):
                continue
            na = truncation_order(spec, fam_a)
            nb = truncation_order(partner, fam_b)
            if na is None and nb is None:
                continue
            if na != nb:
                records.append(EquivalenceRecord(
                    name=f"{fam_a.selector}(l={spec.l:g}) vs "
                         f"{fam_b.selector}(l={partner.l:g}) truncation",
                    max_dev=np.inf, note=f"orders {na} vs {nb}"))
                continue
            records.extend(_compare_pair(spec, fam_a, partner, fam_b))
            any_finite = True
    if not any_finite and spec.kind in _POWER_PARTNER:
        rec = _infinite_record(spec)
        if rec is not None:
            records.append(rec)
    return records


def _infinite_record(spec: PotentialSpec) -> Optional[EquivalenceRecord]:
    fam5 = ExpansionFamily(FamilyGroup.POWER, 5)
    fam1 = ExpansionFamily(FamilyGroup.POWER, 1)
    if truncation_order(spec, fam5) is not None:
        return None
    levels = infinite_levels(spec, fam5, 1)
    if not levels:
        raise NoRootError(f"no level of family {fam5.selector} in the "
                          "default window")
    sol5 = levels[0]
    sol1 = build_infinite(spec, fam1, sol5.E, n_max=len(sol5.coeffs) - 1)
    us = residual_grid(spec, n_grid=COMPARE_POINTS, margin=0.05)
    f5 = _normalized(evaluate_grid(sol5, us))
    f1 = _normalized(evaluate_grid(sol1, us))
    dev = float(np.max(np.abs(f5 - f1)))
    return EquivalenceRecord(
        name=f"{spec.kind.value} ring1 vs ring5 infinite (l={spec.l:g}, "
             f"E={sol5.E:.12g})",
        max_dev=dev)
