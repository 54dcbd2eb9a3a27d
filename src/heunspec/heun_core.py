"""Heun parameter sets, the two potentials, and index transformations.

A solution of either potential problem maps onto the general Heun
equation

    H'' + (gamma/x + delta/(x-1) + epsilon/(x-a)) H'
        + (alpha*beta*x - q) / (x (x-1) (x-a)) H = 0

under x = sn^2(u).  This module holds the parameter containers, the
potential evaluators, the map from (potential, l, E) to Heun parameters,
the eight elementary-prefactor transformations that permute the local
exponents, and the fractional transformation that swaps the
singularities x = 0 and x = 1.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ArgumentError, DomainError, SingularPointError
from .special_functions import EllipticModulus, jacobi

_EPS_TOL = 1.0e-12
_POLE_TOL = 1.0e-14


@dataclass(frozen=True)
class HeunParams:
    """Parameters (a, q, alpha, beta, gamma, delta, epsilon).

    epsilon is determined by the Fuchs relation
    epsilon = alpha + beta + 1 - gamma - delta and is revalidated on
    construction.  The singular point a must avoid 0 and 1.
    """

    a: float
    q: float
    alpha: float
    beta: float
    gamma: float
    delta: float
    epsilon: float

    def __post_init__(self):
        expect = self.alpha + self.beta + 1.0 - self.gamma - self.delta
        scale = 1.0 + abs(self.alpha) + abs(self.beta) + abs(self.gamma) + abs(self.delta)
        if abs(self.epsilon - expect) > _EPS_TOL * scale:
            raise ArgumentError(
                f"epsilon = {self.epsilon} violates the exponent sum rule "
                f"(expected {expect})")
        if abs(self.a) < _POLE_TOL or abs(self.a - 1.0) < _POLE_TOL:
            raise ArgumentError(f"singular location a = {self.a} collides with 0 or 1")

    @classmethod
    def make(cls, a: float, q: float, alpha: float, beta: float,
             gamma: float, delta: float) -> "HeunParams":
        eps = alpha + beta + 1.0 - gamma - delta
        return cls(a=a, q=q, alpha=alpha, beta=beta, gamma=gamma,
                   delta=delta, epsilon=eps)


class PotentialKind(enum.Enum):
    V1 = "v1"
    V2 = "v2"


@dataclass(frozen=True)
class PotentialSpec:
    """One potential problem: which well, coupling l, and modulus."""

    kind: PotentialKind
    l: float
    k: EllipticModulus

    @classmethod
    def from_k2(cls, kind: PotentialKind, l: float, k2: float) -> "PotentialSpec":
        if not math.isfinite(l):
            raise DomainError(f"l must be finite, got {l}")
        return cls(kind=kind, l=float(l), k=EllipticModulus.from_k2(k2))

    @property
    def coupling(self) -> float:
        """The combination L = (l+2)(l+3), invariant under l -> -l-5."""
        return (self.l + 2.0) * (self.l + 3.0)


def default_window(spec: PotentialSpec) -> tuple[float, float]:
    """Default energy search window for scans."""
    s = (abs(spec.l) + 6.0) ** 2
    return (-s, s * (1.0 + 1.0 / spec.k.k2))


@dataclass(frozen=True)
class Prefactor:
    """Elementary factor sn^p_sn * cn^p_cn * dn^p_dn of a series solution."""

    p_sn: float
    p_cn: float
    p_dn: float

    def shifted(self, d_sn: float, d_cn: float, d_dn: float) -> "Prefactor":
        return Prefactor(self.p_sn + d_sn, self.p_cn + d_cn, self.p_dn + d_dn)

    def at(self, sn, cn, dn):
        """The factor at given sn, cn and dn, floats or arrays."""
        return (_real_pow(sn, self.p_sn)
                * _real_pow(cn, self.p_cn)
                * _real_pow(dn, self.p_dn))


def _real_pow(base, p: float):
    """base**p for a real base or an array of bases.

    An exponent within 1e-9 of an integer m is applied as base**m, which
    keeps the sign of a negative base; a fractional one raises
    SingularPointError on a negative base.  float_power calls the C pow
    per element, as float ** float does; np.power's SIMD pow can differ.
    """
    m = round(p)
    if abs(p - m) < 1.0e-9:
        return base ** int(m)
    if np.any(np.less(base, 0.0)):
        raise SingularPointError(
            f"fractional power {p} of negative base {np.min(base)}")
    return np.float_power(base, p)


def potential_from_squares(kind: PotentialKind, k2: float, L: float,
                           sn2, cn2, dn2):
    """The potential of coupling L from sn^2, cn^2 and dn^2.

    V1 = (1 - k2) (2/cn^2 - L/dn^2) and V2 = 2/sn^2 - (1 - k2) L/dn^2.
    The squares may be floats or arrays, real or complex: the x-form of
    the equation passes sn^2 = x, cn^2 = 1 - x and dn^2 = 1 - k2 x.
    """
    if kind is PotentialKind.V1:
        return (1.0 - k2) * (2.0 / cn2 - L / dn2)
    return 2.0 / sn2 - (1.0 - k2) * L / dn2


def potential_value(spec: PotentialSpec, u):
    """The potential at a position u or on an array of positions.

    The first well lives on (-K, K) with walls at u = +-K; the second
    lives on (0, 2K) with walls at u = 0 and u = 2K.  A point at a wall
    raises SingularPointError.
    """
    k2 = spec.k.k2
    sn, cn, dn = jacobi(u, k2)
    wall = np.abs(cn if spec.kind is PotentialKind.V1 else sn) < _POLE_TOL
    if wall.any():
        at = np.asarray(u, dtype=float)[wall].flat[0]
        raise SingularPointError(f"potential wall at u = {at}")
    return potential_from_squares(spec.kind, k2, spec.coupling,
                                  sn * sn, cn * cn, dn * dn)


def darboux_params(spec: PotentialSpec, E: float) -> HeunParams:
    """Heun parameters of the transformed eigenvalue problem at energy E."""
    l = spec.l
    k2 = spec.k.k2
    a = spec.k.a
    alpha = (l + 6.0) / 2.0
    beta = (l + 5.0) / 2.0
    if spec.kind is PotentialKind.V1:
        gamma, delta = 0.5, 2.5
        q = (l * l + 6.0 * l + 7.0) / 4.0 - (l * l + 5.0 * l + 2.0 + E) / (4.0 * k2)
    else:
        gamma, delta = 2.5, 0.5
        q = (l + 5.0) ** 2 / 4.0 - (E + 2.0 + l * l + 5.0 * l) / (4.0 * k2)
    return HeunParams.make(a=a, q=q, alpha=alpha, beta=beta,
                           gamma=gamma, delta=delta)


def homotopic(i: int, p: HeunParams) -> tuple[HeunParams, tuple[float, float, float]]:
    """Apply index transformation i in 1..8 to a Heun parameter set.

    Returns the transformed parameters together with the prefactor
    increment (d_sn, d_cn, d_dn) in the elliptic variable: a factor
    x^e contributes 2e to the sn power, (1-x)^e to the cn power, and
    (1-x/a)^e to the dn power.
    """
    a, q = p.a, p.q
    al, be, ga, de, ep = p.alpha, p.beta, p.gamma, p.delta, p.epsilon
    if i == 1:
        out = p
        ex = exm = exa = 0.0
    elif i == 2:
        out = HeunParams.make(a, q - (ga - 1.0) * (de * a + ep),
                              be - ga + 1.0, al - ga + 1.0, 2.0 - ga, de)
        ex, exm, exa = 1.0 - ga, 0.0, 0.0
    elif i == 3:
        out = HeunParams.make(a, q - (de - 1.0) * ga * a,
                              be - de + 1.0, al - de + 1.0, ga, 2.0 - de)
        ex, exm, exa = 0.0, 1.0 - de, 0.0
    elif i == 4:
        out = HeunParams.make(a, q - (ga + de - 2.0) * a - (ga - 1.0) * ep,
                              al - ga - de + 2.0, be - ga - de + 2.0,
                              2.0 - ga, 2.0 - de)
        ex, exm, exa = 1.0 - ga, 1.0 - de, 0.0
    elif i == 5:
        out = HeunParams.make(a, q - ga * (al + be - ga - de),
                              -al + ga + de, -be + ga + de, ga, de)
        ex, exm, exa = 0.0, 0.0, 1.0 - ep
    elif i == 6:
        out = HeunParams.make(a, q - de * (ga - 1.0) * a - al - be + de + 1.0,
                              -be + de + 1.0, -al + de + 1.0, 2.0 - ga, de)
        ex, exm, exa = 1.0 - ga, 0.0, 1.0 - ep
    elif i == 7:
        out = HeunParams.make(a, q - ga * ((de - 1.0) * a + al + be - ga - de),
                              -be + ga + 1.0, -al + ga + 1.0, ga, 2.0 - de)
        ex, exm, exa = 0.0, 1.0 - de, 1.0 - ep
    elif i == 8:
        out = HeunParams.make(a, q - (ga + de - 2.0) * a - al - be + de + 1.0,
                              2.0 - al, 2.0 - be, 2.0 - ga, 2.0 - de)
        ex, exm, exa = 1.0 - ga, 1.0 - de, 1.0 - ep
    else:
        raise ArgumentError(f"index transformation must be 1..8, got {i}")
    return out, (2.0 * ex, 2.0 * exm, 2.0 * exa)


def fractional_m49(p: HeunParams) -> HeunParams:
    """Swap the singular points x = 0 and x = 1 (x -> 1 - x)."""
    return HeunParams.make(a=1.0 - p.a, q=-p.q + p.alpha * p.beta,
                           alpha=p.alpha, beta=p.beta,
                           gamma=p.delta, delta=p.gamma)


class FamilyGroup(enum.Enum):
    POWER = "ring"
    HYPER_BAR = "bar"
    HYPER_BOLD = "bold"


_GROUP_INDICES = {
    FamilyGroup.POWER: frozenset({1, 2, 3, 5, 6, 7}),
    FamilyGroup.HYPER_BAR: frozenset({1, 3, 5, 7}),
    FamilyGroup.HYPER_BOLD: frozenset({1, 2, 5, 6}),
}

_SUPPORTED = {
    PotentialKind.V1: {
        FamilyGroup.POWER: frozenset({1, 2, 5, 6}),
        FamilyGroup.HYPER_BOLD: frozenset({1, 2, 5, 6}),
    },
    PotentialKind.V2: {
        FamilyGroup.POWER: frozenset({1, 3, 5, 7}),
        FamilyGroup.HYPER_BAR: frozenset({1, 3, 5, 7}),
    },
}


@dataclass(frozen=True)
class ExpansionFamily:
    """One series family: expansion kernel group plus index 1..8."""

    group: FamilyGroup
    index: int

    def __post_init__(self):
        valid = _GROUP_INDICES[self.group]
        if self.index not in valid:
            raise ArgumentError(
                f"no {self.group.value} family with index {self.index}; "
                f"valid indices are {sorted(valid)}")

    @property
    def selector(self) -> str:
        return f"{self.group.value}{self.index}"

    @classmethod
    def from_selector(cls, text: str) -> "ExpansionFamily":
        t = text.strip().lower()
        for group in FamilyGroup:
            tag = group.value
            if t.startswith(tag) and t[len(tag):].isdigit():
                return cls(group, int(t[len(tag):]))
        raise ArgumentError(f"unrecognized family selector {text!r}")

    def supported_for(self, kind: PotentialKind) -> bool:
        table = _SUPPORTED[kind]
        return self.group in table and self.index in table[self.group]


def require_supported(spec: PotentialSpec, fam: ExpansionFamily) -> None:
    if not fam.supported_for(spec.kind):
        raise ArgumentError(
            f"family {fam.selector} is not defined for potential "
            f"{spec.kind.value}")


def base_prefactor(spec: PotentialSpec) -> Prefactor:
    """Prefactor of the index-1 solution for each potential."""
    l = spec.l
    if spec.kind is PotentialKind.V1:
        return Prefactor(0.0, 2.0, l + 3.0)
    return Prefactor(2.0, 0.0, l + 3.0)


def transformed_params(spec: PotentialSpec, fam: ExpansionFamily,
                       E: float) -> tuple[HeunParams, Prefactor]:
    """Heun parameters and evaluation prefactor for one family at energy E.

    For hypergeometric families the returned prefactor is the one of the
    continuous evaluation representation: whenever the transformed
    equation carries delta = 3/2 the series kernels are rewritten by an
    Euler step that removes one half power of the vanishing factor, so
    the matching sn or cn power drops by one.
    """
    require_supported(spec, fam)
    p = darboux_params(spec, E)
    p2, (d_sn, d_cn, d_dn) = homotopic(fam.index, p)
    pre = base_prefactor(spec).shifted(d_sn, d_cn, d_dn)
    if fam.group is FamilyGroup.HYPER_BOLD:
        p2 = fractional_m49(p2)
    if fam.group is not FamilyGroup.POWER and abs(p2.delta - 1.5) < 1.0e-9:
        if fam.group is FamilyGroup.HYPER_BAR:
            pre = pre.shifted(0.0, -1.0, 0.0)
        else:
            pre = pre.shifted(-1.0, 0.0, 0.0)
    return p2, pre


def family_prefactor(spec: PotentialSpec, fam: ExpansionFamily) -> Prefactor:
    """Prefactor sn^p1 cn^p2 dn^p3 multiplying the series of a family."""
    _, pre = transformed_params(spec, fam, 0.0)
    return pre
