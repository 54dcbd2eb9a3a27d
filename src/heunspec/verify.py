"""Every check of the verify subcommand, with its pass rule and tolerances.

verify_checks builds them all from one spectrum per terminating
family: finite-difference residuals, the shooting oracle and the
partner comparisons of heun_core.FAMILY_PARTNERS, each family at l
against its partner family at -l - 5.  A check passes when its value
is finite and below its tolerance (_check).  A family's residuals, and
each side of a partner comparison, evaluate all their levels on one
grid.  verify_checks loads the oracle (heunspec.shooting) when it
builds the checks of a spectrum, not on import, and runs them in one
shooting._one_match block: the oracle matches of all power families
share one store of mesh step polynomials, which is dropped before
verify_checks returns.

The residual check discretizes psi'' + (E - V) psi on an interior grid
with a five-point stencil and normalizes by the solution and potential
scales, so a correct eigenfunction lands many orders below the
tolerance while a detuned energy fails immediately.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .exceptions import DomainError, NoRootError
from .heun_core import (
    FAMILY_PARTNERS,
    ExpansionFamily,
    FamilyGroup,
    PotentialKind,
    PotentialSpec,
    family_prefactor,
    potential_value,
)
from .series_engine import (
    SeriesSolution,
    coefficients,
    evaluate_grid,
    finite_order,
    solve_coeffs_infinite,
    truncation_order,
)
from .spectrum import (SpectrumResult, family_levels, finite_spectrum,
                       symmetry_partner)
from .special_functions import complete_K

DEFAULT_GRID = 128
DEFAULT_MARGIN = 0.12
COMPARE_POINTS = 32
RESIDUAL_TOL = 1.0e-7
ORACLE_TOL = 1.0e-6
EQUIV_TOL = 1.0e-9


def residual_grid(spec: PotentialSpec, n_grid: int,
                  margin: float) -> np.ndarray:
    """Interior evaluation grid (margin*K, (1-margin)*K).

    Both potentials are symmetric (about 0 and about K respectively),
    so one interior quarter-period window away from every wall and away
    from the symmetry point captures the eigenfunction behavior.
    """
    K = complete_K(spec.k.k2)
    return np.linspace(margin * K, (1.0 - margin) * K, n_grid)


def ode_residual(sols):
    """Largest five-point-stencil residual of psi'' + (E - V) psi on the
    residual grid of DEFAULT_GRID points, relative to
    max|psi| (1 + |E| + max|V|): one per solution of a sequence of one
    (spec, family), from one evaluate_grid call and one potential_value
    call.

    The stencil step is span/(8*DEFAULT_GRID), well below the grid
    spacing, so the discretization error sits near 1e-10 relative while
    an energy detuning of 1e-2 lifts the measure above 1e-4.
    """
    spec = sols[0].spec
    us = residual_grid(spec, n_grid=DEFAULT_GRID, margin=DEFAULT_MARGIN)
    h = (us[-1] - us[0]) / (8.0 * DEFAULT_GRID)
    offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * h
    pts = (us[:, None] + offsets[None, :]).ravel()
    vals = evaluate_grid(sols, pts).reshape(len(sols), len(us), 5)
    d2 = (-vals[..., 0] + 16.0 * vals[..., 1] - 30.0 * vals[..., 2]
          + 16.0 * vals[..., 3] - vals[..., 4]) / (12.0 * h * h)
    V = potential_value(spec, us)
    psi = vals[..., 2]
    energies = np.array([sol.E for sol in sols])
    r = d2 + (energies[:, None] - V) * psi
    top_V = float(np.max(np.abs(V)))
    return [0.0 if peak == 0.0 else worst / (peak * (1.0 + abs(E) + top_V))
            for E, peak, worst in zip(energies.tolist(),
                                      np.max(np.abs(psi), axis=1).tolist(),
                                      np.max(np.abs(r), axis=1).tolist())]


def _check(name: str, kind: str, value: Optional[float], tolerance: float,
           note: str = "") -> dict:
    """One verify check.  It passes when its value is finite and below
    its tolerance; a value that is not finite, or None where the oracle
    found no root, is reported as null."""
    finite = value is not None and math.isfinite(value)
    return {"name": name, "kind": kind,
            "passed": bool(finite and value < tolerance),
            "value": value if finite else None, "tolerance": tolerance,
            **({"note": note} if note else {})}


def _parity_for(spec: PotentialSpec, fam: ExpansionFamily) -> str:
    """Symmetry class of the family's evaluation representation."""
    pre = family_prefactor(spec, fam)
    flag = pre.p_sn if spec.kind is PotentialKind.V1 else pre.p_cn
    return "odd" if round(flag) % 2 else "even"


def _residual_checks(fam: ExpansionFamily,
                     sols: list[SeriesSolution]) -> list[dict]:
    values = ode_residual(sols) if sols else []
    return [_check(f"residual {fam.selector} level {i} (E={sol.E:.12g})",
                   "residual", value, RESIDUAL_TOL)
            for i, (sol, value) in enumerate(zip(sols, values))]


def verify_checks(spec: PotentialSpec,
                  family: Optional[ExpansionFamily] = None,
                  energy: Optional[float] = None) -> list[dict]:
    """Every check verify prints, in order: a residual and an oracle check
    per level of each terminating family (or of family alone), then the
    partner checks; with energy, one residual check per family there."""
    if energy is not None and not math.isfinite(energy):
        raise DomainError(f"--energy-override must be finite, got {energy}")
    if family is not None:
        finite_order(spec, family)
        families = [family]
    else:
        families = [f for f in (ExpansionFamily(group, i) for group, partners
                                in FAMILY_PARTNERS[spec.kind].items()
                                for i in sorted(partners))
                    if truncation_order(spec, f) is not None]
    if energy is not None:
        # the join residual is left unchecked, so that a detuned energy
        # reaches the residual check
        return [check for fam in families for check in _residual_checks(
            fam, [SeriesSolution(spec, fam, energy,
                                 coefficients(spec, fam, [energy])[0][0])])]
    from .shooting import _one_match
    checks, spectra = [], {}
    with _one_match():
        for fam in families:
            spectra[fam] = finite_spectrum(spec, fam)
            checks += _family_checks(spec, fam, spectra[fam].solutions)
    return checks + equivalence_suite(spec, spectra)


def _family_checks(spec: PotentialSpec, fam: ExpansionFamily,
                   sols: list[SeriesSolution]) -> list[dict]:
    """The residual checks of a family's levels, then their oracle
    checks."""
    checks = _residual_checks(fam, sols)
    names = [f"shooting {fam.selector} E={sol.E:.12g}" for sol in sols]
    if fam.group is FamilyGroup.POWER:
        from .shooting import shooting_match_table
        found = shooting_match_table(spec, _parity_for(spec, fam),
                                     [sol.E for sol in sols])
        return checks + [_check(name, "oracle", None if root is None
                                else abs(root - sol.E), ORACLE_TOL)
                         for name, sol, root in zip(names, sols, found)]
    note = ("series reduces to a polynomial at integer l and "
            "duplicates a power-family level; the shooting "
            "cross-check runs on the power families"
            if abs(spec.l - round(spec.l)) < 1.0e-9 else
            "series eigenfunction has an interior derivative "
            "kink; it satisfies a mixed interior condition, "
            "not a parity condition, so the parity-class "
            "oracle has no partner eigenvalue")
    return checks + [{"name": name, "kind": "oracle", "skipped": True,
                      "note": note} for name in names]


def _eigenfunction_dev(spec: PotentialSpec, pairs) -> float:
    """Largest gap between the two eigenfunctions of each pair, each
    scaled to 1 at its largest sample on a grid of COMPARE_POINTS."""
    us = residual_grid(spec, n_grid=COMPARE_POINTS, margin=0.05)
    fa, fb = (vals / vals[np.arange(len(vals)),
                          np.argmax(np.abs(vals), axis=1), None]
              for vals in (evaluate_grid(side, us) for side in zip(*pairs)))
    return float(np.max(np.abs(fa - fb)))


def _compare_pair(spec: PotentialSpec, tag: str, ra: SpectrumResult,
                  rb: SpectrumResult) -> list[dict]:
    """Spectra and normalized eigenfunctions of two partner families."""
    if len(ra.energies) != len(rb.energies):
        return [_check(f"{tag} spectra", "equivalence", math.inf, EQUIV_TOL,
                       "real eigenvalue counts differ")]
    if not ra.energies:
        return [_check(f"{tag} spectra", "equivalence", 0.0, EQUIV_TOL,
                       "both spectra empty of real roots")]
    dev_e = max(abs(x - y) for x, y in zip(ra.energies, rb.energies))
    dev_f = _eigenfunction_dev(spec, list(zip(ra.solutions, rb.solutions)))
    return [_check(f"{tag} spectra", "equivalence", dev_e, EQUIV_TOL),
            _check(f"{tag} eigenfunctions", "equivalence", dev_f, EQUIV_TOL)]


def equivalence_suite(spec: PotentialSpec,
                      spectra: dict[ExpansionFamily, SpectrumResult]
                      ) -> list[dict]:
    """All partner-identity checks applicable to this spec.

    For each family of FAMILY_PARTNERS that terminates at l or whose
    partner terminates at -l-5, the spectra and normalized
    eigenfunctions of (family, l) and (partner family, -l-5) are
    compared, the one at l read from spectra where it is there.  When no
    family terminates, the lowest infinite-series level of the index-5
    expansion is located and the index-1 expansion is compared
    pointwise at the same energy; at l = -5/2 the two are one series,
    and the comparison is skipped.
    """
    partner = symmetry_partner(spec)
    checks: list[dict] = []
    any_finite = False
    for group, partners in FAMILY_PARTNERS[spec.kind].items():
        for idx, idx_b in partners.items():
            fam_a = ExpansionFamily(group, idx)
            fam_b = ExpansionFamily(group, idx_b)
            na = truncation_order(spec, fam_a)
            nb = truncation_order(partner, fam_b)
            if na is None and nb is None:
                continue
            tag = (f"{fam_a.selector}(l={spec.l:g}) vs "
                   f"{fam_b.selector}(l={partner.l:g})")
            if na != nb:
                checks.append(_check(f"{tag} truncation", "equivalence",
                                     math.inf, EQUIV_TOL,
                                     f"orders {na} vs {nb}"))
                continue
            ra = (spectra[fam_a] if fam_a in spectra
                  else finite_spectrum(spec, fam_a))
            checks += _compare_pair(spec, f"{spec.kind.value} {tag}", ra,
                                    finite_spectrum(partner, fam_b))
            any_finite = True
    return checks if any_finite else checks + _infinite_record(spec)


def _infinite_record(spec: PotentialSpec) -> list[dict]:
    fam5 = ExpansionFamily(FamilyGroup.POWER, 5)
    fam1 = ExpansionFamily(FamilyGroup.POWER, 1)
    if truncation_order(spec, fam5) is not None:
        return []
    levels = family_levels(spec, fam5, 1).solutions
    if not levels:
        raise NoRootError(f"no level of family {fam5.selector} in the "
                          "default window")
    sol5 = levels[0]
    name = (f"{spec.kind.value} ring1 vs ring5 infinite "
            f"(l={spec.l:g}, E={sol5.E:.12g})")
    if abs(spec.l + 2.5) < 1.0e-9:
        return [{"name": name, "kind": "equivalence", "skipped": True,
                 "note": "at l = -5/2 = -l - 5 the two families have the "
                         "same Heun parameters with alpha and beta "
                         "swapped, so they are one series"}]
    sol1 = SeriesSolution(spec, fam1, sol5.E, solve_coeffs_infinite(
        spec, fam1, [sol5.E], n_max=len(sol5.coeffs) - 1)[0])
    return [_check(name, "equivalence",
                   _eigenfunction_dev(spec, [(sol5, sol1)]), EQUIV_TOL)]
