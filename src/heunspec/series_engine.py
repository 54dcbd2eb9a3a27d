"""Series solutions of the transformed eigenvalue problems.

Both expansion types share one pair of generic three-term recurrences.
For a Heun parameter set (a, q, alpha, beta, gamma, delta) the plain
power series around x = 0 has coefficients b_n obeying

    A_n b_{n+1} + B_n b_n + C_n b_{n-1} = 0,   b_{-1} = 0, b_0 = 1,

with

    A_n = a (n + gamma) (n + 1)
    B_n = -(a + 1) n^2 - [a (gamma + delta - 1) + alpha + beta - delta] n - q
    C_n = (n + alpha - 1) (n + beta - 1),

and the hypergeometric-kernel series (terms z^n 2F1-tilde(n + alpha,
gamma + delta - alpha - 1; n + gamma; z)) has

    A_n = a (n + 1)
    B_n = -(a + 1) n^2 - [a (2 alpha + 1 - gamma - delta) + alpha + beta - delta] n
          - q - a alpha (alpha + 1 - gamma - delta)
    C_n = (n + alpha - 1) (n + alpha - delta) (n + alpha + beta - gamma - delta).

Each family of either potential is the generic recurrence evaluated at
an index-transformed parameter set; the u <-> 2K - u partner families
additionally swap the singular points 0 and 1 first.

recurrence() holds these coefficients as numpy polynomials in n,
evaluated over arrays of indices and, for B_n, over an array of
energies: the energy enters only the constant term of B_n, through the
accessory parameter q(E).  This one recurrence serves every regime: one
two-sided recursion (coefficients) gives the coefficients of a
terminating series and the minimal solution of an infinite one, both
joined where the residual is smallest and both held to one bound on
that residual, FINITE_TOL; and the continuant's zeros are the levels of
a finite section.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import (ArgumentError, ConsistencyError, ConvergenceError,
                         DomainError)
from .heun_core import (
    ExpansionFamily,
    FamilyGroup,
    HeunParams,
    PotentialSpec,
    Prefactor,
    transformed_params,
)
from .special_functions import _tilde_f_sum, jacobi

DEFAULT_N_MAX = 500
SECTION_MAX_ORDER = 1 << 20  # largest section order, of either kind of family
FINITE_TOL = 1.0e-9  # join residual of a series at a level
_INT_TOL = 1.0e-9
_CONTINUANT_CAP = 2.0 ** 400


@dataclass(frozen=True)
class Recurrence:
    """The three-term recurrence of one family over an array of energies.

    alpha_n(n), beta_n(n) and gamma_n(n) evaluate the coefficients at an
    index or an array of indices; a scalar index gives a scalar.  alpha_n
    and gamma_n do not depend on E.  beta_n(n) = -(a + 1) n^2 - lin n -
    const, where const holds the accessory parameter q(E) of each energy,
    so beta_n(n) has the shape of n followed by the shape of the
    energies.  beta_slope is the constant d(beta_n)/dE: the diagonal of
    the characteristic matrix is affine in E with this slope.  params
    are the transformed Heun parameters of the first energy; beta_n
    takes q from const alone.
    """

    params: HeunParams
    hyper: bool
    lin: float
    const: np.ndarray
    beta_slope: float

    def alpha_n(self, n):
        n = np.asarray(n, dtype=float)
        p = self.params
        if self.hyper:
            return (p.a * (n + 1.0))[()]
        return (p.a * (n + p.gamma) * (n + 1.0))[()]

    def beta_n(self, n):
        n = np.asarray(n, dtype=float)
        diag = -(self.params.a + 1.0) * n * n - self.lin * n
        return np.subtract.outer(diag, self.const)[()]

    def gamma_n(self, n):
        n = np.asarray(n, dtype=float)
        p = self.params
        al, be, ga, de = p.alpha, p.beta, p.gamma, p.delta
        if self.hyper:
            return ((n + al - 1.0) * (n + al - de)
                    * (n + al + be - ga - de))[()]
        return ((n + al - 1.0) * (n + be - 1.0))[()]

    def continuant(self, E, N: int):
        """Determinant D_N of rows 0..N with the energy moved on by E, and
        its E-derivative D'_N: a pair of arrays of the shape of E.

        D_n = beta_n D_{n-1} - gamma_n alpha_{n-1} D_{n-2}, with each
        beta_n continued along the slope to beta_n + beta_slope * E, so
        the recurrence at E = 0 gives the characteristic determinant at
        any real or complex E.  The same loop carries D'_n = beta_slope
        D_{n-1} + beta_n D'_{n-1} - gamma_n alpha_{n-1} D'_{n-2}.  Past
        2^400, D_n and D_{n-1} shrink by 2^-400 (exactly), and D'_n and
        D'_{n-1} with them, so D_N keeps its sign and D_N / D'_N its
        value at any N.  It runs in numpy longdouble: float64 moves the
        roots of a strongly non-normal section by up to 4e-10 (v2 bar7,
        l = 13.5, k2 = 0.95).
        """
        E = np.asarray(E)
        ext = np.result_type(E, np.longdouble)
        idx = np.arange(N + 1)
        diag = list(np.add.outer(self.beta_n(idx),
                                 self.beta_slope * E.astype(ext)))
        off = list(self.gamma_n(idx[1:]) * self.alpha_n(idx[:-1]).astype(ext))
        slope = self.beta_slope
        d_prev2, d_prev = 1.0, diag[0]
        p_prev2, p_prev = 0.0, np.full_like(d_prev, slope)
        for n in range(1, N + 1):
            d_prev2, d_prev, p_prev2, p_prev = (
                d_prev, diag[n] * d_prev - off[n - 1] * d_prev2,
                p_prev, slope * d_prev + diag[n] * p_prev - off[n - 1] * p_prev2)
            big = abs(d_prev) > _CONTINUANT_CAP
            if big.any():
                shrink = np.where(big, 1.0 / _CONTINUANT_CAP, 1.0)
                d_prev2, d_prev = d_prev2 * shrink, d_prev * shrink
                p_prev2, p_prev = p_prev2 * shrink, p_prev * shrink
        out = np.result_type(E, 1.0)
        return (np.asarray(d_prev).astype(out)[()],
                np.asarray(p_prev).astype(out)[()])


def recurrence(spec: PotentialSpec, fam: ExpansionFamily, E) -> Recurrence:
    """Three-term recurrence of one family at a scalar or array energy E.

    Each energy gets its own transformed_params call, so the constant
    term of beta_n is the accessory parameter q(E) exactly as the Heun
    parameter map computes it.
    """
    E = np.asarray(E, dtype=float)
    params = [transformed_params(spec, fam, e)[0] for e in E.ravel().tolist()]
    q = np.array([p.q for p in params]).reshape(E.shape)
    p = params[0]
    a, al, be, ga, de = p.a, p.alpha, p.beta, p.gamma, p.delta
    hyper = fam.group is not FamilyGroup.POWER
    if hyper:
        lin = a * (2.0 * al + 1.0 - ga - de) + al + be - de
        const = q + a * al * (al + 1.0 - ga - de)
    else:
        lin = a * (ga + de - 1.0) + al + be - de
        const = q
    # q depends on E as -E/(4 k2); the x -> 1-x swap negates q once more.
    slope = 1.0 / (4.0 * spec.k.k2)
    if fam.group is FamilyGroup.HYPER_BOLD:
        slope = -slope
    return Recurrence(params=p, hyper=hyper, lin=lin, const=const,
                      beta_slope=slope)


def _gamma_roots(spec: PotentialSpec, fam: ExpansionFamily) -> list[float]:
    """Zeros in n of the gamma_n factor product."""
    p2, _ = transformed_params(spec, fam, 0.0)
    al, be, ga, de = p2.alpha, p2.beta, p2.gamma, p2.delta
    if fam.group is FamilyGroup.POWER:
        return [1.0 - al, 1.0 - be]
    return [1.0 - al, de - al, ga + de - al - be]


def truncation_order(spec: PotentialSpec, fam: ExpansionFamily) -> Optional[int]:
    """Largest retained index N when the series terminates, else None.

    Termination requires gamma_{N+1} = 0 with gamma_n nonzero for
    1 <= n <= N, which happens exactly when the smallest integer root of
    gamma is at least 1.  Roots are classified as integers with a 1e-9
    tolerance so that l values entered in decimal notation behave like
    their exact rational counterparts.  An order past SECTION_MAX_ORDER
    raises DomainError before anything of that size is built.
    """
    roots = _gamma_roots(spec, fam)
    best = None
    for r in roots:
        m = round(r)
        if abs(r - m) <= _INT_TOL and m >= 1:
            if best is None or m < best:
                best = int(m)
    if best is None:
        return None
    if best - 1 > SECTION_MAX_ORDER:
        raise DomainError(
            f"family {fam.selector} terminates at order N = {best - 1} at "
            f"l = {spec.l}; N passes cap {SECTION_MAX_ORDER}")
    return best - 1


def finite_order(spec: PotentialSpec, fam: ExpansionFamily) -> int:
    """truncation_order of a family that terminates, else ArgumentError."""
    N = truncation_order(spec, fam)
    if N is None:
        raise ArgumentError(
            f"family {fam.selector} does not terminate at l = {spec.l}")
    return N


def coefficients(spec: PotentialSpec, fam: ExpansionFamily, E: float,
                 n_max: int = DEFAULT_N_MAX, finite: Optional[bool] = None
                 ) -> tuple[np.ndarray, float]:
    """Coefficients b_0..b_last (b_0 = 1) of a family's series at energy E
    by two-sided recursion (Oliver, Numer. Math. 11, 1968), and the join
    row's energy backward error |alpha_m b_{m+1} + beta_m b_m +
    gamma_m b_{m-1}| / (|beta_slope| |b_m| max(1, |E|)).

    last is the truncation order N of a terminating family, else n_max.
    The backward pass runs down from b_{top+1} = 0, b_top = 1 (top = N,
    or n_max plus a buffer for an infinite family), the forward pass up
    from b_0 = 1 over rows 0..last, and the two join at the row m where
    the residual is smallest; only row m is left open.  Both kinds of
    series follow this one rule and differ only in top.  Both passes
    rescale past 1e250, the forward one by powers of two so that every
    b_n that fits comes back exactly; where the join is finite but the
    b_0 = 1 vector overflows float64, DomainError is raised.
    finite = True (False) demands a terminating (infinite) family.
    """
    N = last = top = truncation_order(spec, fam)
    if finite is not None and finite != (N is not None):
        raise ArgumentError(f"family {fam.selector} at l = {spec.l} "
                            + ("does not terminate" if finite else "terminates"))
    tri = recurrence(spec, fam, E)
    if N is None:
        # The start index sits far enough above n_max that dominant-
        # solution contamination, which decays like k2 per step of the
        # downward recursion, is below 1e-12 at n_max.
        last = n_max
        top = n_max + int(math.ceil(12.5 / -math.log10(spec.k.k2))) + 10
    idx = np.arange(top + 1)
    alpha, beta, gamma = tri.alpha_n(idx), tri.beta_n(idx), tri.gamma_n(idx)
    al, be, ga = alpha.tolist(), beta.tolist(), gamma.tolist()
    back = [0.0] * (top + 2)
    back[top] = 1.0
    for n in range(top, 0, -1):
        if ga[n] == 0.0:
            raise ArgumentError(
                f"gamma_{n} vanishes; family {fam.selector} admits no "
                "infinite minimal series here")
        back[n - 1] = -(be[n] * back[n] + al[n] * back[n + 1]) / ga[n]
        if abs(back[n - 1]) > 1.0e250:
            scale = abs(back[n - 1])
            back[n - 1:] = [x / scale for x in back[n - 1:]]
    # fwd[n + 1] = b_n / 2^shift[n + 1], fwd[0] = b_{-1} = 0: the pass
    # shrinks by powers of two past 1e250, so a b_n that fits comes back
    # exactly
    fwd = [0.0] * (last + 2)
    fwd[1] = 1.0
    shift = np.zeros(last + 2, dtype=int)
    for n in range(last):
        fwd[n + 2] = -(be[n] * fwd[n + 1] + ga[n] * fwd[n]) / al[n]
        if abs(fwd[n + 2]) > 1.0e250:
            e = math.frexp(fwd[n + 2])[1]
            fwd[n + 1] = math.ldexp(fwd[n + 1], -e)
            fwd[n + 2] = math.ldexp(fwd[n + 2], -e)
            shift[n + 1:] += e
    back, fwd = np.array(back), np.array(fwd)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rows = np.abs(alpha[:last + 1] * back[1:last + 2] / back[:last + 1]
                      + beta[:last + 1]
                      + np.ldexp(gamma[:last + 1] * fwd[:-1] / fwd[1:],
                                 shift[:-1] - shift[1:]))
        rows[np.isnan(rows)] = np.inf
        m = int(np.argmin(rows))
        b = np.ldexp(fwd[1:], shift[1:])
        b[m:] = back[m:last + 1] / back[m] * b[m]
    if np.isfinite(rows[m]) and not np.isfinite(b).all():
        raise DomainError(
            f"coefficients b_0..b_{last} of family {fam.selector} with "
            f"b_0 = 1 overflow float64 at E = {E}, l = {spec.l}")
    return b, float(rows[m]) / (abs(tri.beta_slope) * max(1.0, abs(E)))


def _checked(spec: PotentialSpec, fam: ExpansionFamily, E: float,
             finite: bool, n_max: int = DEFAULT_N_MAX) -> np.ndarray:
    b, residual = coefficients(spec, fam, E, n_max, finite)
    if residual > FINITE_TOL:
        raise ConsistencyError(
            f"join residual {residual:.3e} at E = {E}; "
            "not an eigenvalue of this family")
    return b


def solve_coeffs_finite(spec: PotentialSpec, fam: ExpansionFamily,
                        E: float) -> np.ndarray:
    """Coefficients b_0..b_N of a terminating series at an eigenvalue E;
    a join residual (coefficients()) above FINITE_TOL raises ConsistencyError."""
    return _checked(spec, fam, E, finite=True)


def solve_coeffs_infinite(spec: PotentialSpec, fam: ExpansionFamily, E: float,
                          n_max: int = DEFAULT_N_MAX) -> np.ndarray:
    """Coefficients b_0..b_{n_max} of an infinite series at an eigenvalue
    E, under the same bound: a join residual above FINITE_TOL raises
    ConsistencyError."""
    return _checked(spec, fam, E, finite=False, n_max=n_max)


@dataclass(frozen=True)
class SeriesSolution:
    """A concrete series eigenfunction candidate at one energy."""

    spec: PotentialSpec
    family: ExpansionFamily
    E: float
    coeffs: np.ndarray
    prefactor: Prefactor
    finite: bool


def build_finite(spec: PotentialSpec, fam: ExpansionFamily,
                 E: float) -> SeriesSolution:
    coeffs = solve_coeffs_finite(spec, fam, E)
    _, pre = transformed_params(spec, fam, E)
    return SeriesSolution(spec=spec, family=fam, E=E, coeffs=coeffs,
                          prefactor=pre, finite=True)


def build_infinite(spec: PotentialSpec, fam: ExpansionFamily, E: float,
                   n_max: int = DEFAULT_N_MAX) -> SeriesSolution:
    coeffs = solve_coeffs_infinite(spec, fam, E, n_max=n_max)
    _, pre = transformed_params(spec, fam, E)
    return SeriesSolution(spec=spec, family=fam, E=E, coeffs=coeffs,
                          prefactor=pre, finite=False)


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
    if abs(p2.delta - 1.5) < _INT_TOL:
        A0, B = C0 - B, C0 - A0
    return A0, B, C0


def evaluate_grid(sol: SeriesSolution, us) -> np.ndarray:
    """Values of a series solution on a grid of positions.

    sn, cn and dn (one jacobi call), the prefactor and a power series
    (_power_sum) are evaluated over the whole grid at once.  The kernel
    sum sum_n b_n z^n 2F1-tilde(n + A0, B; n + C0; z), at every z up to
    and including 1, is one _tilde_f_sum: below a kernel row's cut its
    terms fold into one power series in z, whose coefficient runs stop
    where a term at the largest z below the cut falls under 1e-16 of
    the run's sum there, and above the cut each row takes the 1 - z
    connection.  A value that is not finite raises DomainError.
    """
    us = np.asarray(us, dtype=float)
    spec = sol.spec
    fam = sol.family
    k2 = spec.k.k2
    sn, cn, dn = jacobi(us, k2)
    with np.errstate(over="ignore", invalid="ignore"):
        if fam.group is FamilyGroup.POWER:
            total = _power_sum(sol, sn * sn, k2)
        else:
            z = sn * sn if fam.group is FamilyGroup.HYPER_BAR else cn * cn
            total = _tilde_f_sum(sol.coeffs, *hyper_eval_args(spec, fam), z)
        vals = sol.prefactor.at(sn, cn, dn) * total
    bad = np.count_nonzero(~np.isfinite(vals))
    if bad:
        raise DomainError(
            f"eigenfunction of family {fam.selector} at E = {sol.E} is not "
            f"finite in float64 at {bad} of {vals.size} point(s)")
    return vals


def _power_sum(sol: SeriesSolution, x, k2: float):
    """Power series sum_n b_n x^n at a point or an array of points x.

    A finite series is a polynomial.  An infinite one is summed over
    its coefficients, all points at once, and each point's truncation
    is checked with a geometric tail estimate: successive terms shrink
    like k2 * x.  The first failing point raises ConvergenceError.
    """
    coeffs = sol.coeffs
    if sol.finite:
        return np.polynomial.polynomial.polyval(x, coeffs)
    x = np.asarray(x, dtype=float)
    total = np.zeros_like(x)
    xp = np.ones_like(x)
    for bn in coeffs:
        t = bn * xp
        total += t
        xp *= x
    qhat = k2 * np.abs(x)
    outside = qhat >= 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        tail = np.abs(t) * qhat / (1.0 - qhat)
    bad = outside | (tail > 1.0e-12 * np.maximum(np.abs(total), 1.0e-300))
    if np.any(bad):
        i = int(np.argmax(bad))
        xi = float(x.flat[i])
        if outside.flat[i]:
            raise ConvergenceError(
                f"series argument x = {xi} outside convergence")
        raise ConvergenceError(
            f"truncated tail estimate {float(tail.flat[i]):.3e} exceeds "
            f"the error budget at x = {xi} relative to partial sum "
            f"{float(total.flat[i]):.6g}")
    return total[()]
