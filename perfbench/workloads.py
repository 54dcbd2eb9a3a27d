"""The three workloads: operation lists drawn from a seed, and output checks.

Each operation is one heunspec CLI invocation.  The seed draws k2 for
each (potential, family, l) group from K2_BAND and shuffles the order;
the (potential, family, l) make-up of every list is fixed.  Operations
slow by up to 40% from one end of K2_BAND to the other, so the groups
that share a family (or, for verify, a potential) take their k2 from
distinct slices of the band: seeds then differ in inputs but hardly in
the amount of work.  Every combination the seeds can draw was run and
passed every check, so no operation fails.

The checks never compare against stored program output: they use the
references in reference.py and properties the mathematics requires.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from reference import (
    FAMILY_PARITY,
    closed_form_levels,
    level_count,
    parity_levels,
    sample_residual,
)

K2_BAND = tuple(round(0.20 + 0.05 * i, 2) for i in range(12))  # 0.20 .. 0.75

RESIDUAL_TOL = 1.0e-7     # correct levels reach <= 1.5e-9, 1e-3 detuning >= 8e-6
REFERENCE_TOL = 1.0e-6    # finite-difference reference is good to ~1e-8
PARTNER_TOL = 1.0e-8      # continued-fraction roots settle to 1e-11
CLOSED_FORM_TOL = 1.0e-9
DETUNE = 1.0e-3


@dataclass(frozen=True)
class Op:
    command: str
    kind: str
    l: float
    k2: float
    family: Optional[str] = None
    index: Optional[int] = None

    def argv(self) -> list[str]:
        argv = [self.command, "--potential", self.kind,
                "--l", repr(self.l), "--k2", repr(self.k2)]
        if self.family is not None:
            argv += ["--family", self.family]
        if self.command == "eigenfunction":
            argv += ["--index", str(self.index), "--format", "json"]
        return argv


class Output(NamedTuple):
    code: Optional[int]
    stdout: str


class Workload(NamedTuple):
    ops: Callable[[random.Random], list[Op]]
    check: Callable[[list[Op], list[Output]], list[str]]
    controls: Callable[[list[Op], list[Output]], list[tuple[str, list[Output]]]]


def _spread_k2(rng: random.Random, n: int) -> list[float]:
    """n values of K2_BAND, one from each of n equal slices, in seeded order."""
    size = len(K2_BAND) // n
    picks = [rng.choice(K2_BAND[i * size:(i + 1) * size]) for i in range(n)]
    rng.shuffle(picks)
    return picks


def _shuffled(ops: list[Op], rng: random.Random) -> list[Op]:
    rng.shuffle(ops)
    return ops


def _replace(outs: list[Output], i: int, payload: dict) -> list[Output]:
    mutated = list(outs)
    mutated[i] = Output(outs[i].code, json.dumps(payload))
    return mutated


def _first(ops: list[Op], outs: list[Output], command: str) -> int:
    return next(i for i, (op, out) in enumerate(zip(ops, outs))
                if op.command == command and out.code == 0)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / (1.0 + abs(b))


def _check_eigenfunction(op: Op, d: dict) -> list[str]:
    r = sample_residual(op.kind, op.l, op.k2, d["energy"], d["samples"])
    if r < RESIDUAL_TOL:
        return []
    return [f"{op.argv()}: ODE residual {r:.2e} >= {RESIDUAL_TOL:g}"]


# --- cf_lowest ---------------------------------------------------------
# Lowest level of a non-terminating power family, through the
# continued-fraction path.  Each family gets one partner pair (l, -l-5)
# at one k2, so both members describe the same potential.
CF_PAIRS = (
    ("v1", "ring5", (-1.0, -4.0)),
    ("v1", "ring6", (0.5, -5.5)),
    ("v2", "ring5", (-1.3, -3.7)),
    ("v2", "ring7", (-2.0, -3.0)),
)


def cf_ops(rng: random.Random) -> list[Op]:
    ops = []
    for (kind, family, pair), k2 in zip(CF_PAIRS,
                                        _spread_k2(rng, len(CF_PAIRS))):
        ops += [Op("eigenfunction", kind, l, k2, family, 0) for l in pair]
    return _shuffled(ops, rng)


def cf_check(ops: list[Op], outs: list[Output]) -> list[str]:
    fails = []
    lowest = {}
    for op, out in zip(ops, outs):
        if out.code != 0:
            continue
        d = json.loads(out.stdout)
        E = d["energy"]
        fails += _check_eigenfunction(op, d)
        ref = parity_levels(op.kind, op.l, op.k2,
                            FAMILY_PARITY[(op.kind, op.family)], 1)[0]
        if _rel(E, ref) > REFERENCE_TOL:
            fails.append(f"{op.argv()}: energy {E!r} is not the lowest "
                         f"{FAMILY_PARITY[(op.kind, op.family)]} level "
                         f"{ref!r}")
        lowest.setdefault((op.kind, op.family, op.k2, min(op.l, -op.l - 5.0)),
                          []).append((op, E))
    for members in lowest.values():
        if len(members) == 2 and _rel(members[0][1], members[1][1]) > PARTNER_TOL:
            (a, Ea), (b, Eb) = members
            fails.append(f"partners l = {a.l} and {b.l} ({a.kind} {a.family}, "
                         f"k2 = {a.k2}) have lowest levels {Ea!r} and {Eb!r}")
    return fails


def cf_controls(ops: list[Op], outs: list[Output]) -> list[tuple[str, list[Output]]]:
    i = _first(ops, outs, "eigenfunction")
    d = json.loads(outs[i].stdout)
    d["energy"] += DETUNE
    return [("detuned level", _replace(outs, i, d))]


# --- hyper_levels ------------------------------------------------------
# Half-odd l from -3/2 up to 11/2.  finite_spectrum fails for bold5 at
# l = 13/2, k2 = 0.8, just above K2_BAND, and at l = 15/2 inside it.
# Each family takes every other l, so each potential still sees every l,
# and both l = -3/2 and l = -1/2 closed forms appear.
HYPER_PLAN = (
    ("v1", "bold5", (-1.5, 0.5, 2.5, 4.5)),
    ("v1", "bold6", (-0.5, 1.5, 3.5, 5.5)),
    ("v2", "bar5", (-1.5, 0.5, 2.5, 4.5)),
    ("v2", "bar7", (-0.5, 1.5, 3.5, 5.5)),
)


def hyper_real_levels(kind: str, family: str, l: float, k2: float) -> int:
    """Number of eigenfunction operations for one spectrum.

    bold spectra are all real.  bar spectra are real at l = -3/2,
    complex at l = -1/2 for every k2 in K2_BAND, and from l = 1/2 on
    lose one complex pair over K2_BAND (measured; the check itself only
    requires an even deficit).
    """
    closed = closed_form_levels(kind, family, l, k2)
    if closed is not None:
        return len(closed)
    n = level_count(family, l)
    return n if family.startswith("bold") else n - 2


def hyper_ops(rng: random.Random) -> list[Op]:
    ops = []
    for kind, family, ls in HYPER_PLAN:
        for l, k2 in zip(ls, _spread_k2(rng, len(ls))):
            ops.append(Op("spectrum", kind, l, k2, family))
            ops += [Op("eigenfunction", kind, l, k2, family, i)
                    for i in range(hyper_real_levels(kind, family, l, k2))]
    return _shuffled(ops, rng)


def hyper_check(ops: list[Op], outs: list[Output]) -> list[str]:
    fails = []
    spectra = {}
    for op, out in zip(ops, outs):
        if op.command != "spectrum" or out.code != 0:
            continue
        levels = json.loads(out.stdout)["energies"]
        spectra[(op.kind, op.family, op.l, op.k2)] = levels
        n = level_count(op.family, op.l)
        if op.family.startswith("bold"):
            if len(levels) != n:
                fails.append(f"{op.argv()}: {len(levels)} levels, "
                             f"termination rule gives {n}, all real")
        elif len(levels) > n or (n - len(levels)) % 2:
            fails.append(f"{op.argv()}: {len(levels)} real levels of {n} "
                         "leave an odd number of complex ones")
        if any(b <= a for a, b in zip(levels, levels[1:])):
            fails.append(f"{op.argv()}: levels not strictly ascending")
        closed = closed_form_levels(op.kind, op.family, op.l, op.k2)
        if closed is not None and (
                len(closed) != len(levels)
                or any(_rel(a, b) > CLOSED_FORM_TOL
                       for a, b in zip(levels, closed))):
            fails.append(f"{op.argv()}: levels {levels} against closed "
                         f"form {closed}")
    for op, out in zip(ops, outs):
        if op.command != "eigenfunction" or out.code != 0:
            continue
        d = json.loads(out.stdout)
        fails += _check_eigenfunction(op, d)
        levels = spectra.get((op.kind, op.family, op.l, op.k2))
        if levels is not None and (op.index >= len(levels)
                                   or _rel(d["energy"], levels[op.index]) > 1e-12):
            fails.append(f"{op.argv()}: energy {d['energy']!r} is not "
                         f"level {op.index} of the spectrum {levels}")
    return fails


def hyper_controls(ops: list[Op], outs: list[Output]) -> list[tuple[str, list[Output]]]:
    i = _first(ops, outs, "eigenfunction")
    d = json.loads(outs[i].stdout)
    d["energy"] += DETUNE
    j = max((k for k, op in enumerate(ops) if op.command == "spectrum"),
            key=lambda k: len(json.loads(outs[k].stdout)["energies"]))
    s = json.loads(outs[j].stdout)
    s["energies"] = s["energies"][:-1]
    return [("detuned level", _replace(outs, i, d)),
            ("shortened level list", _replace(outs, j, s))]


# --- oracle_verify -----------------------------------------------------
# verify at integer l, where the power families terminate; the shooting
# oracle dominates.  l stays at or below 6: v2 residual checks exceed
# their tolerance at l = 8, k2 = 0.8.
ORACLE_PLAN = (("v1", (0, 3, 6)), ("v2", (0, 2, 5)))
# (power families, two-sided families) that verify checks at integer l,
# where each two-sided series reduces to a power series.
VERIFY_FAMILIES = {"v1": (("ring5", "ring6"), ("bold5", "bold6")),
                   "v2": (("ring5", "ring7"), ("bar5", "bar7"))}
_RESIDUAL_NAME = re.compile(r"residual (\w+) level (\d+) \(E=(\S+)\)$")
_ORACLE_NAME = re.compile(r"shooting (\w+) E=(\S+)$")


def oracle_ops(rng: random.Random) -> list[Op]:
    ops = [Op("verify", kind, float(l), k2) for kind, ls in ORACLE_PLAN
           for l, k2 in zip(ls, _spread_k2(rng, len(ls)))]
    return _shuffled(ops, rng)


def _verify_levels(d: dict) -> tuple[dict, dict, int]:
    levels, oracle = {}, {}
    equivalence = 0
    for c in d["checks"]:
        if c["kind"] == "residual":
            fam, _, E = _RESIDUAL_NAME.match(c["name"]).groups()
            levels.setdefault(fam, []).append(float(E))
        elif c["kind"] == "oracle":
            fam, _ = _ORACLE_NAME.match(c["name"]).groups()
            oracle.setdefault(fam, []).append(c)
        elif c["kind"] == "equivalence":
            equivalence += 1
    return levels, oracle, equivalence


def oracle_check(ops: list[Op], outs: list[Output]) -> list[str]:
    fails = []
    for op, out in zip(ops, outs):
        if out.code != 0:
            continue
        d = json.loads(out.stdout)
        tag = f"{op.argv()}:"
        if d["all_passed"] is not True:
            fails.append(f"{tag} all_passed is {d['all_passed']}")
        levels, oracle, equivalence = _verify_levels(d)
        if equivalence == 0:
            fails.append(f"{tag} no partner-equivalence checks")
        power, two_sided = VERIFY_FAMILIES[op.kind]
        for family in power + two_sided:
            n = level_count(family, op.l)
            got = levels.get(family, [])
            checked = oracle.get(family, [])
            if len(got) != n or len(checked) != n:
                fails.append(f"{tag} {family} has {len(got)} residual and "
                             f"{len(checked)} oracle checks, termination "
                             f"rule gives {n}")
            elif n and family in power:
                if not all(c.get("passed") is True for c in checked):
                    fails.append(f"{tag} {family} oracle checks not all run "
                                 "and passed")
                ref = parity_levels(op.kind, op.l, op.k2,
                                    FAMILY_PARITY[(op.kind, family)], n)
                if any(_rel(E, r) > REFERENCE_TOL for E, r in zip(got, ref)):
                    fails.append(f"{tag} {family} levels {got} are not the "
                                 f"lowest {n} of their parity class {list(ref)}")
        reduced = sorted(E for f in two_sided for E in levels.get(f, []))
        plain = sorted(E for f in power for E in levels.get(f, []))
        if len(reduced) != len(plain) or any(
                _rel(a, b) > CLOSED_FORM_TOL for a, b in zip(reduced, plain)):
            fails.append(f"{tag} two-sided levels {reduced} are not the power "
                         f"levels {plain} they reduce to")
        closed = closed_form_levels(op.kind, "ring5", op.l, op.k2)
        ring5 = levels.get("ring5", [])
        if closed is not None and (len(ring5) != len(closed) or any(
                _rel(a, b) > CLOSED_FORM_TOL for a, b in zip(ring5, closed))):
            fails.append(f"{tag} ring5 levels {ring5} against closed form "
                         f"{closed}")
    return fails


def oracle_controls(ops: list[Op], outs: list[Output]) -> list[tuple[str, list[Output]]]:
    i = _first(ops, outs, "verify")
    detuned = json.loads(outs[i].stdout)
    for c in detuned["checks"]:
        m = _RESIDUAL_NAME.match(c["name"]) if c["kind"] == "residual" else None
        if m and m.group(1) == "ring5":
            E = float(m.group(3)) + DETUNE
            c["name"] = f"residual ring5 level {m.group(2)} (E={E:.12g})"
            break
    shortened = json.loads(outs[i].stdout)
    last = max(k for k, c in enumerate(shortened["checks"])
               if c["kind"] == "oracle" and c["name"].startswith("shooting ring5"))
    del shortened["checks"][last]
    return [("detuned level", _replace(outs, i, detuned)),
            ("shortened level list", _replace(outs, i, shortened))]


# Why each workload was chosen is in BENCHMARK.json and README.md.
WORKLOADS = {
    "cf_lowest": Workload(cf_ops, cf_check, cf_controls),
    "hyper_levels": Workload(hyper_ops, hyper_check, hyper_controls),
    "oracle_verify": Workload(oracle_ops, oracle_check, oracle_controls),
}
