"""Command line interface.

Four subcommands cover the workflow: spectrum (eigenvalues of one
family as JSON), eigenfunction (sampled eigenfunction as text or JSON),
verify (residual, oracle, and symmetry checks as JSON), and sweep
(energies over a modulus grid as CSV).  All output is deterministic:
rerunning a command produces byte-identical bytes.  The subcommands
only print: spectrum, eigenfunction and sweep take a family's levels
from spectrum.family_levels, and verify its checks from
verify.verify_checks.

Only verify runs the shooting oracle, which heunspec.verify loads on
first use; importing this module does not.  The oracle integrates, and the
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
)
from .series_engine import evaluate_grid
from .spectrum import family_levels
from .verify import verify_checks
from .special_functions import complete_K

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RANGE = 3

PLOT_POINTS = 256
PLOT_MARGIN = 1.0e-3


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


def _write_output(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise DomainError(f"cannot write output to {path}: "
                          f"{exc.strerror or exc}") from None


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
    res = family_levels(spec, fam, args.max_energies)
    energies, N = res.energies, res.order
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
        "arscott_ok": res.arscott_ok,
        "energies": energies,
        "degenerate_pairs": [list(p) for p in res.degenerate_pairs],
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
    if args.index < 0:
        sys.stderr.write(f"index {args.index} out of range: level indices "
                         "start at 0\n")
        return EXIT_RANGE
    res = family_levels(spec, fam, args.index + 1)
    if args.index >= len(res.solutions):
        where = "here" if res.order is not None else "in the default window"
        sys.stderr.write(f"index {args.index} out of range: family "
                         f"{fam.selector} has {len(res.solutions)} real "
                         f"level(s) {where}\n")
        return EXIT_RANGE
    sol = res.solutions[args.index]
    us = _plot_grid(spec)
    vals = evaluate_grid([sol], us)[0]
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


def cmd_verify(args) -> int:
    spec = _spec_from_args(args)
    family = (ExpansionFamily.from_selector(args.family) if args.family
              else None)
    checks = verify_checks(spec, family, args.energy_override)
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
    if args.k2_list is not None and args.k2_range is not None:
        raise ArgumentError("give --k2-list or --k2-range, not both")
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
        rows += [(float(k2), idx, E) for idx, E in enumerate(
            family_levels(spec, fam, args.max_energies).energies)]
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
    capped = argparse.ArgumentParser(add_help=False)
    capped.add_argument("--max-energies", type=int, default=4,
                        help="lowest levels in the default window to "
                             "report for non-terminating families")

    p = sub.add_parser("spectrum", parents=[common, capped],
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
                   help="restrict the residual and oracle checks to one "
                        "terminating family; partner checks cover every "
                        "family")
    p.add_argument("--energy-override", type=float, default=None,
                   help="run the residual check at this energy instead of "
                        "the computed eigenvalues")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", parents=[common, capped],
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
        return args.func(args)
    except HeunspecError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
