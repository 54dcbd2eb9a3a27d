"""Heun parameter sets, the two potentials, and index transformations.

A solution of either potential problem maps onto the general Heun
equation

    H'' + (gamma/x + delta/(x-1) + epsilon/(x-a)) H'
        + (alpha*beta*x - q) / (x (x-1) (x-a)) H = 0

under x = sn^2(u).  This module holds the parameter containers, the
potential evaluators, the map from (potential, l, E) to Heun parameters,
the elementary-prefactor index maps that permute the local exponents,
and the fractional transformation that swaps the singularities x = 0
and x = 1.  The index maps are the identity 1, the involutions 2, 3 and
5 at x = 0, 1 and a, and their products (Maier, Math. Comp. 76, 2007).
Six are used: maps 4 = 2 o 3 and 8 = 2 o 3 o 5 flip the exponents at
both x = 0 and x = 1, so also at the wall (x = 1 for v1, x = 0 for v2),
where a flipped exponent makes the solution blow up.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ArgumentError, DomainError, SingularPointError
from .special_functions import EllipticModulus, jacobi

_POLE_TOL = 1.0e-14


@dataclass(frozen=True)
class HeunParams:
    """Parameters (a, q, alpha, beta, gamma, delta) of Heun's equation;
    the exponent epsilon at x = a follows from the Fuchs relation
    gamma + delta + epsilon = alpha + beta + 1."""

    a: float
    q: float
    alpha: float
    beta: float
    gamma: float
    delta: float

    @property
    def epsilon(self) -> float:
        return self.alpha + self.beta + 1.0 - self.gamma - self.delta


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
        spec = cls(kind=kind, l=float(l), k=EllipticModulus.from_k2(k2))
        if not math.isfinite(spec.coupling):
            raise DomainError(f"(l + 2)(l + 3) overflows at l = {l}")
        return spec

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
    return HeunParams(a, q, alpha, beta, gamma, delta)


def homotopic(i: int, p: HeunParams) -> tuple[HeunParams, tuple[float, float, float]]:
    """Apply index map i in {1, 2, 3, 5, 6, 7} to a Heun parameter set.

    Returns the transformed parameters together with the prefactor
    increment (d_sn, d_cn, d_dn) in the elliptic variable: a factor
    x^e contributes 2e to the sn power, (1-x)^e to the cn power, and
    (1-x/a)^e to the dn power.
    """
    a, q = p.a, p.q
    al, be, ga, de, ep = p.alpha, p.beta, p.gamma, p.delta, p.epsilon
    if i not in (1, 2, 3, 5, 6, 7):
        raise ArgumentError(f"index map must be 1, 2, 3, 5, 6 or 7, got {i}")
    # 2 and 6 flip the exponent at x = 0, 3 and 7 at x = 1, 5..7 at x = a
    ex = 1.0 - ga if i in (2, 6) else 0.0
    exm = 1.0 - de if i in (3, 7) else 0.0
    exa = 1.0 - ep if i >= 5 else 0.0
    if i == 1:
        out = p
    elif i == 2:
        out = HeunParams(a, q - (ga - 1.0) * (de * a + ep),
                         be - ga + 1.0, al - ga + 1.0, 2.0 - ga, de)
    elif i == 3:
        out = HeunParams(a, q - (de - 1.0) * ga * a,
                         be - de + 1.0, al - de + 1.0, ga, 2.0 - de)
    elif i == 5:
        out = HeunParams(a, q - ga * (al + be - ga - de),
                         -al + ga + de, -be + ga + de, ga, de)
    elif i == 6:
        out = HeunParams(a, q - de * (ga - 1.0) * a - al - be + de + 1.0,
                         -be + de + 1.0, -al + de + 1.0, 2.0 - ga, de)
    else:
        out = HeunParams(a, q - ga * ((de - 1.0) * a + al + be - ga - de),
                         -be + ga + 1.0, -al + ga + 1.0, ga, 2.0 - de)
    return out, (2.0 * ex, 2.0 * exm, 2.0 * exa)


def fractional_m49(p: HeunParams) -> HeunParams:
    """Swap the singular points x = 0 and x = 1 (x -> 1 - x)."""
    return HeunParams(a=1.0 - p.a, q=-p.q + p.alpha * p.beta,
                      alpha=p.alpha, beta=p.beta,
                      gamma=p.delta, delta=p.gamma)


class FamilyGroup(enum.Enum):
    POWER = "ring"
    HYPER_BAR = "bar"
    HYPER_BOLD = "bold"


# Each potential's families by group, in the order verify walks them,
# each index mapped to its partner's: the partner at -l - 5 has the same
# levels and eigenfunctions, as (l + 2)(l + 3) is the same there.
FAMILY_PARTNERS = {
    PotentialKind.V1: {
        FamilyGroup.POWER: {5: 1, 1: 5, 6: 2, 2: 6},
        FamilyGroup.HYPER_BOLD: {1: 6, 6: 1, 2: 5, 5: 2},
    },
    PotentialKind.V2: {
        FamilyGroup.POWER: {5: 1, 1: 5, 7: 3, 3: 7},
        FamilyGroup.HYPER_BAR: {1: 7, 7: 1, 3: 5, 5: 3},
    },
}


@dataclass(frozen=True)
class ExpansionFamily:
    """One series family: kernel group plus an index FAMILY_PARTNERS lists."""

    group: FamilyGroup
    index: int

    def __post_init__(self):
        valid = {i for groups in FAMILY_PARTNERS.values()
                 for i in groups.get(self.group, ())}
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


def require_supported(spec: PotentialSpec, fam: ExpansionFamily) -> None:
    if fam.index not in FAMILY_PARTNERS[spec.kind].get(fam.group, ()):
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
    if fam.group is not FamilyGroup.POWER and _euler_rewritten(p2):
        if fam.group is FamilyGroup.HYPER_BAR:
            pre = pre.shifted(0.0, -1.0, 0.0)
        else:
            pre = pre.shifted(-1.0, 0.0, 0.0)
    return p2, pre


def _euler_rewritten(p2: HeunParams) -> bool:
    """delta = 3/2: a hypergeometric family's kernels take the Euler rewrite."""
    return abs(p2.delta - 1.5) < 1.0e-9


def hyper_eval_args(spec: PotentialSpec,
                    fam: ExpansionFamily) -> tuple[float, float, float]:
    """(A0, B, C0) with term n evaluating 2F1-tilde(n+A0, B; n+C0; z).

    When the transformed equation has delta = 3/2 the raw kernel carries
    exponent difference C - A - B = -1/2 and diverges at z = 1; an Euler
    rewrite swaps in the pair (C - B, C - A), after which the exponent
    difference is +1/2 for every family in scope.
    """
    if fam.group is FamilyGroup.POWER:
        raise ArgumentError("power families have no hypergeometric kernel")
    p2, _ = transformed_params(spec, fam, 0.0)
    A0 = p2.alpha
    B = p2.gamma + p2.delta - p2.alpha - 1.0
    C0 = p2.gamma
    if _euler_rewritten(p2):
        A0, B = C0 - B, C0 - A0
    return A0, B, C0


def family_prefactor(spec: PotentialSpec, fam: ExpansionFamily) -> Prefactor:
    """Prefactor sn^p1 cn^p2 dn^p3 multiplying the series of a family."""
    _, pre = transformed_params(spec, fam, 0.0)
    return pre
