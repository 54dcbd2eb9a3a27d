"""Command line interface.

Four subcommands cover the workflow: spectrum (eigenvalues of one
family as JSON), eigenfunction (sampled eigenfunction as text or JSON),
verify (residual, oracle, and symmetry checks as JSON), and sweep
(energies over a modulus grid as CSV).  All output is deterministic:
rerunning a command produces byte-identical bytes.

Only verify runs the shooting oracle, so it loads the oracle on first
use; importing this module does not.  The oracle integrates, and the
spectra polish their roots, with numpy alone, so no subcommand loads
scipy.integrate or scipy.optimize.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error,
3 index out of range.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Optional

import numpy as np

from . import __version__
from .exceptions import ArgumentError, DomainError, HeunspecError
from .heun_core import (
    ExpansionFamily,
    FamilyGroup,
    PotentialKind,
    PotentialSpec,
    default_window,
    family_prefactor,
)
from .series_engine import (
    SeriesSolution,
    coefficients,
    evaluate_grid,
    finite_order,
    truncation_order,
)
from .spectrum import finite_spectrum, infinite_levels
from .verify import equivalence_suite, ode_residual
from .special_functions import complete_K

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RANGE = 3

PLOT_POINTS = 256
PLOT_MARGIN = 1.0e-3
RESIDUAL_TOL = 1.0e-7
ORACLE_TOL = 1.0e-6
EQUIV_TOL = 1.0e-9


def _fmt(x: float) -> str:
    return format(x, ".15g")


def closed_form_energies(spec: PotentialSpec,
                         fam: ExpansionFamily) -> Optional[dict]:
    """Known closed-form energies for this (potential, family, l), if any.

    Returns a dict with the analytic real energies (possibly empty when
    the analytic pair is complex) and a note, or None when no closed
    form applies.
    """
    k2 = spec.k.k2
    l = spec.l
    kind = spec.kind
    group = fam.group

    def near(x, y):
        return abs(x - y) < 1.0e-9

    if kind is PotentialKind.V1 and group is FamilyGroup.HYPER_BOLD:
        if near(l, -1.5):
            return {"expected": [-0.5 - 1.75 * k2], "note": "one-term level"}
        if near(l, -0.5):
            root = math.sqrt(1.0 + 7.0 * k2 + k2 * k2)
            base = -2.5 - 0.75 * k2
            return {"expected": sorted([base - root, base + root]),
                    "note": "two-term pair"}
    if kind is PotentialKind.V2 and group is FamilyGroup.HYPER_BAR:
        if near(l, -1.5):
            return {"expected": [-0.5 + 2.25 * k2], "note": "one-term level"}
        if near(l, -0.5):
            disc = 1.0 - 9.0 * k2 + 9.0 * k2 * k2
            base = -2.5 + 3.25 * k2
            if disc >= 0.0:
                root = math.sqrt(disc)
                return {"expected": sorted([base - root, base + root]),
                        "note": "two-term pair"}
            return {"expected": [],
                    "note": "two-term pair is complex at this k2"}
    if group is FamilyGroup.POWER and fam.index == 5 and near(l, 0.0):
        if kind is PotentialKind.V1:
            return {"expected": [2.0 * k2 - 2.0], "note": "one-term level"}
        return {"expected": [-2.0], "note": "one-term level"}
    return None


def _spec_from_args(args) -> PotentialSpec:
    kind = PotentialKind(args.potential)
    return PotentialSpec.from_k2(kind, args.l, args.k2)


def _family_energies(spec: PotentialSpec, fam: ExpansionFamily,
                     max_energies: int) -> tuple[list[float], Optional[int], Optional[bool], list]:
    """Energies plus truncation metadata for finite or infinite families."""
    N = truncation_order(spec, fam)
    if N is not None:
        res = finite_spectrum(spec, fam)
        return res.energies, N, res.arscott_ok, res.degenerate_pairs
    return ([sol.E for sol in infinite_levels(spec, fam, max_energies)],
            None, None, [])


def _write_output(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _json_dump(payload: dict) -> str:
    """json.dumps(payload, indent=2, sort_keys=True) + "\\n", byte for byte.

    indent=2 runs the pure-Python encoder.  An eigenfunction's samples,
    a list of [u, psi] pairs and most of its payload, are encoded by the
    C encoder instead and spliced in with the same indentation.
    """
    samples = payload.get("samples")
    if not samples:
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    # the pairs sit at depth 2 (indent 4), their numbers at depth 3 (6)
    flat = json.dumps(samples, separators=(",", ":"))[2:-2]
    block = (flat.replace(",", ",\n      ")
                 .replace("],\n      [", "\n    ],\n    [\n      "))
    text = json.dumps({**payload, "samples": []}, indent=2, sort_keys=True)
    return text.replace('"samples": []',
                        '"samples": [\n    [\n      ' + block + "\n    ]\n  ]",
                        1) + "\n"


def cmd_spectrum(args) -> int:
    spec = _spec_from_args(args)
    fam = ExpansionFamily.from_selector(args.family)
    energies, N, arscott, pairs = _family_energies(spec, fam,
                                                   args.max_energies)
    closed = closed_form_energies(spec, fam)
    if closed is not None:
        expected = closed["expected"]
        if len(expected) == len(energies) and expected:
            closed["max_abs_diff"] = max(abs(a - b) for a, b
                                         in zip(sorted(expected), energies))
        else:
            closed["max_abs_diff"] = None
        closed["count_matches"] = len(expected) == len(energies)
    payload = {
        "potential": spec.kind.value,
        "l": spec.l,
        "k2": spec.k.k2,
        "family": fam.selector,
        "truncation_N": N,
        "arscott_ok": arscott,
        "energies": energies,
        "degenerate_pairs": [list(p) for p in pairs],
        "closed_form_match": closed,
        "meta": {
            "version": __version__,
            "expected_count": None if N is None else N + 1,
            "real_count": len(energies),
            "window": None if N is not None else list(default_window(spec)),
        },
    }
    _write_output(_json_dump(payload), args.output)
    return EXIT_OK


def _plot_grid(spec: PotentialSpec) -> np.ndarray:
    K = complete_K(spec.k.k2)
    m = PLOT_MARGIN * K
    if spec.kind is PotentialKind.V1:
        # u = 0 is a regular interior point; only the wall needs a margin.
        return np.linspace(0.0, K - m, PLOT_POINTS)
    return np.linspace(m, 2.0 * K - m, PLOT_POINTS)


def cmd_eigenfunction(args) -> int:
    spec = _spec_from_args(args)
    fam = ExpansionFamily.from_selector(args.family)
    N = truncation_order(spec, fam)
    if args.index < 0:
        sys.stderr.write(f"index {args.index} out of range: level indices "
                         "start at 0\n")
        return EXIT_RANGE
    levels = (finite_spectrum(spec, fam).solutions if N is not None
              else infinite_levels(spec, fam, args.index + 1))
    if args.index >= len(levels):
        where = "here" if N is not None else "in the default window"
        sys.stderr.write(f"index {args.index} out of range: family "
                         f"{fam.selector} has {len(levels)} real "
                         f"level(s) {where}\n")
        return EXIT_RANGE
    sol = levels[args.index]
    us = _plot_grid(spec)
    vals = evaluate_grid(sol, us)
    if args.format == "json":
        payload = {
            "potential": spec.kind.value,
            "l": spec.l,
            "k2": spec.k.k2,
            "family": fam.selector,
            "index": args.index,
            "energy": sol.E,
            "samples": np.column_stack((us, vals)).tolist(),
            "meta": {
                "version": __version__,
                "points": PLOT_POINTS,
                "wall_margin_K_units": PLOT_MARGIN,
            },
        }
        _write_output(_json_dump(payload), args.output)
    else:
        lines = ["# u psi"]
        lines += [f"{_fmt(float(u))} {_fmt(float(v))}"
                  for u, v in zip(us, vals)]
        _write_output("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _parity_for(spec: PotentialSpec, fam: ExpansionFamily) -> str:
    """Symmetry class of the family's evaluation representation."""
    pre = family_prefactor(spec, fam)
    flag = pre.p_sn if spec.kind is PotentialKind.V1 else pre.p_cn
    return "odd" if round(flag) % 2 else "even"


def cmd_verify(args) -> int:
    from .shooting import shooting_match_table
    spec = _spec_from_args(args)
    override = args.energy_override
    if override is not None and not math.isfinite(override):
        raise DomainError(f"--energy-override must be finite, got {override}")
    if args.family:  # verify checks terminating families
        families = [ExpansionFamily.from_selector(args.family)]
        finite_order(spec, families[0])
    else:
        if spec.kind is PotentialKind.V1:
            families = [ExpansionFamily(FamilyGroup.POWER, i) for i in (5, 6)]
            families += [ExpansionFamily(FamilyGroup.HYPER_BOLD, i)
                         for i in (5, 6)]
        else:
            families = [ExpansionFamily(FamilyGroup.POWER, i) for i in (5, 7)]
            families += [ExpansionFamily(FamilyGroup.HYPER_BAR, i)
                         for i in (5, 7)]
        families = [f for f in families if truncation_order(spec, f) is not None]
    checks = []
    for fam in families:
        if args.energy_override is not None:
            # the join residual is left unchecked, so that a detuned
            # energy reaches the residual check
            E = args.energy_override
            coeffs, _ = coefficients(spec, fam, E)
            sols = [SeriesSolution(spec=spec, family=fam, E=E, coeffs=coeffs,
                                   prefactor=family_prefactor(spec, fam),
                                   finite=True)]
        else:
            sols = finite_spectrum(spec, fam).solutions
        for i, sol in enumerate(sols):
            rep = ode_residual(sol)
            checks.append({
                "name": f"residual {fam.selector} level {i} "
                        f"(E={sol.E:.12g})",
                "kind": "residual",
                "passed": rep.max_rel_residual < RESIDUAL_TOL,
                "value": rep.max_rel_residual,
                "tolerance": RESIDUAL_TOL,
            })
        if args.energy_override is not None:
            continue
        targets = [s.E for s in sols]
        if fam.group is FamilyGroup.POWER:
            parity = _parity_for(spec, fam)
            found = shooting_match_table(spec, parity, targets)
            for E, root in zip(targets, found):
                ok = root is not None and abs(root - E) < ORACLE_TOL
                checks.append({
                    "name": f"shooting {fam.selector} E={E:.12g}",
                    "kind": "oracle",
                    "passed": bool(ok),
                    "value": None if root is None else abs(root - E),
                    "tolerance": ORACLE_TOL,
                })
        else:
            if abs(spec.l - round(spec.l)) < 1.0e-9:
                note = ("series reduces to a polynomial at integer l and "
                        "duplicates a power-family level; the shooting "
                        "cross-check runs on the power families")
            else:
                note = ("series eigenfunction has an interior derivative "
                        "kink; it satisfies a mixed interior condition, "
                        "not a parity condition, so the parity-class "
                        "oracle has no partner eigenvalue")
            for E in targets:
                checks.append({
                    "name": f"shooting {fam.selector} E={E:.12g}",
                    "kind": "oracle",
                    "skipped": True,
                    "note": note,
                })
    if args.energy_override is None:
        for rec in equivalence_suite(spec):
            checks.append({
                "name": rec.name,
                "kind": "equivalence",
                "passed": bool(rec.max_dev < EQUIV_TOL),
                "value": None if not np.isfinite(rec.max_dev) else rec.max_dev,
                "tolerance": EQUIV_TOL,
            })
    all_passed = all(c.get("passed", True) for c in checks)
    payload = {
        "potential": spec.kind.value,
        "l": spec.l,
        "k2": spec.k.k2,
        "checks": checks,
        "all_passed": all_passed,
        "meta": {"version": __version__},
    }
    _write_output(_json_dump(payload), args.output)
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


def _parse_k2_values(args) -> list[float]:
    try:
        if args.k2_list:
            return [float(t) for t in args.k2_list.split(",") if t.strip()]
        if not args.k2_range:
            return []
        parts = args.k2_range.split(":")
        if len(parts) != 3:
            raise ArgumentError("k2 range must be lo:hi:count")
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ArgumentError(f"malformed k2 values: {exc}") from None
    if n <= 0:
        return []
    if n == 1:
        return [lo]
    return list(np.linspace(lo, hi, n))


def cmd_sweep(args) -> int:
    kind = PotentialKind(args.potential)
    fam = ExpansionFamily.from_selector(args.family)
    k2_values = _parse_k2_values(args)
    if not k2_values:
        sys.stderr.write("sweep needs a nonempty set of k2 values\n")
        return EXIT_USAGE
    rows = []
    for k2 in k2_values:
        spec = PotentialSpec.from_k2(kind, args.l, k2)
        energies, _, _, _ = _family_energies(spec, fam, args.max_energies)
        for idx, E in enumerate(energies):
            rows.append((float(k2), idx, E))
    rows.sort(key=lambda r: (r[0], r[1]))
    lines = ["k2,l,family,index,energy"]
    for k2, idx, E in rows:
        lines.append(f"{_fmt(k2)},{_fmt(args.l)},{fam.selector},{idx},{_fmt(E)}")
    _write_output("\n".join(lines) + "\n", args.output)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it
    unchanged, so every main call can share it."""
    parser = argparse.ArgumentParser(
        prog="heunspec",
        description="Spectra and eigenfunctions of two elliptic potentials "
                    "computed from terminating and infinite Heun series.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--potential", required=True, choices=["v1", "v2"],
                        help="which potential well")
    common.add_argument("--l", required=True, type=float,
                        help="coupling parameter l")
    common.add_argument("--output", default=None,
                        help="write output to this file instead of stdout")
    common.add_argument("--max-energies", type=int, default=4,
                        help="lowest levels in the default window to "
                             "report for non-terminating families")

    p = sub.add_parser("spectrum", parents=[common],
                       help="eigenvalues of one series family as JSON")
    p.add_argument("--k2", required=True, type=float,
                   help="squared elliptic modulus, 0 < k2 < 1")
    p.add_argument("--family", required=True,
                   help="series family selector, e.g. ring5, bar7, bold5")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("eigenfunction", parents=[common],
                       help="sampled eigenfunction as text or JSON")
    p.add_argument("--k2", required=True, type=float)
    p.add_argument("--family", required=True)
    p.add_argument("--index", type=int, default=0,
                   help="level index within the family, lowest first")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_eigenfunction)

    p = sub.add_parser("verify", parents=[common],
                       help="residual, oracle, and symmetry checks as JSON")
    p.add_argument("--k2", required=True, type=float)
    p.add_argument("--family", default=None,
                   help="restrict checks to one terminating family")
    p.add_argument("--energy-override", type=float, default=None,
                   help="run the residual check at this energy instead of "
                        "the computed eigenvalues")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", parents=[common],
                       help="energies over a set of k2 values as CSV")
    p.add_argument("--family", required=True)
    p.add_argument("--k2-list", default=None,
                   help="comma-separated k2 values")
    p.add_argument("--k2-range", default=None,
                   help="lo:hi:count grid of k2 values")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.max_energies < 0:
            raise DomainError(
                f"--max-energies must be nonnegative, got {args.max_energies}")
        return args.func(args)
    except HeunspecError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
