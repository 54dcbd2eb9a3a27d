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

recurrence() holds these coefficients as numpy polynomials in n, and
Recurrence.rows(N) evaluates rows 0..N at once, B_n over an array of
energies too: the energy enters only the constant term of B_n, through
the accessory parameter q(E).  Every section, continuant, recursion
and continued fraction reads its rows from there.  This one recurrence
serves every regime: one
two-sided recursion (coefficients) gives the coefficients of a
terminating series and the minimal solution of an infinite one, both
joined where the residual is smallest and both held to one bound on
that residual, FINITE_TOL; and the continuant's zeros are the levels of
a finite section.

A SeriesSolution is a family's coefficients at one energy and nothing
more: its prefactor sn^p cn^q dn^r (family_prefactor) and whether it
terminates (truncation_order) depend on the spec and the family only.
So the levels of a family share all but their energies: coefficients
takes an array of energies, and evaluate_grid a sequence of solutions,
and each does its shared work once.
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
    family_prefactor,
    hyper_eval_args,
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

    rows(N) gives the coefficients alpha_n, beta_n and gamma_n of rows
    0..N of the spec's family; every section, continuant and recursion
    reads them from there.  alpha_n and gamma_n do not depend on E.
    beta_n = -(a + 1) n^2 - lin n - const, where const holds the
    accessory parameter q(E) of each energy, so beta has the shape
    (N + 1,) followed by the shape of the energies.  beta_slope is the
    constant d(beta_n)/dE: the diagonal of the characteristic matrix is
    affine in E with this slope.  params are the transformed Heun
    parameters of the first energy; beta takes q from const alone.
    """

    spec: PotentialSpec
    params: HeunParams
    hyper: bool
    lin: float
    const: np.ndarray
    beta_slope: float

    def rows(self, N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(alpha, beta, gamma): the coefficients of rows n = 0..N."""
        n = np.arange(N + 1, dtype=float)
        p = self.params
        al, be, ga, de = p.alpha, p.beta, p.gamma, p.delta
        beta = np.subtract.outer(-(p.a + 1.0) * n * n - self.lin * n,
                                 self.const)
        if self.hyper:
            return (p.a * (n + 1.0), beta,
                    (n + al - 1.0) * (n + al - de) * (n + al + be - ga - de))
        return p.a * (n + ga) * (n + 1.0), beta, (n + al - 1.0) * (n + be - 1.0)

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
        value at any N, as they do where one more power of two brings
        both into float64 on return.  It runs in numpy longdouble: float64
        moves the roots of a strongly non-normal section by up to 4e-10
        (v2 bar7, l = 13.5, k2 = 0.95).
        """
        E = np.asarray(E)
        ext = np.result_type(E, np.longdouble)
        alpha, beta, gamma = self.rows(N)
        diag = list(np.add.outer(beta, self.beta_slope * E.astype(ext)))
        off = list(gamma[1:] * alpha[:-1].astype(ext))
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
        d_prev, p_prev = np.asarray(d_prev), np.asarray(p_prev)
        top = np.maximum(abs(d_prev), abs(p_prev))
        big = top > np.finfo(float).max
        if big.any():
            scale = np.ldexp(np.ones_like(top),
                             np.where(big, 1023 - np.frexp(top)[1], 0))
            d_prev, p_prev = d_prev * scale, p_prev * scale
        out = np.result_type(E, 1.0)
        return d_prev.astype(out)[()], p_prev.astype(out)[()]


def recurrence(spec: PotentialSpec, fam: ExpansionFamily, E) -> Recurrence:
    """Three-term recurrence of one family at a scalar or array energy E.

    Each energy gets its own transformed_params call, so the constant
    term of beta_n is the accessory parameter q(E) exactly as the Heun
    parameter map computes it.  Shifting the E = 0 term by beta_slope * E
    instead rounds differently: it moves eigenfunction samples (by up to
    5e-13 of max|psi| on the benchmark's operations), and it makes four
    partner-equivalence checks that fail at l = 12 and l = 100 read
    exactly 0, because partner families' rows at E = 0 agree to the bit.
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
    return Recurrence(spec=spec, params=p, hyper=hyper, lin=lin, const=const,
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


def coefficients(spec: PotentialSpec, fam: ExpansionFamily, E,
                 n_max: int = DEFAULT_N_MAX, finite: Optional[bool] = None,
                 tol: Optional[float] = None) -> tuple:
    """Coefficients b_0..b_last (b_0 = 1) of a family's series at an energy
    E, or at each of an array of energies, by two-sided recursion (Oliver,
    Numer. Math. 11, 1968), and the join row's energy backward error
    |alpha_m b_{m+1} + beta_m b_m + gamma_m b_{m-1}| / (|beta_slope| |b_m|
    max(1, |E|)): a vector and a float for a float E, else one row of
    coefficients and one residual per energy.

    last is the truncation order N of a terminating family, else n_max.
    The backward pass runs down from b_{top+1} = 0, b_top = 1 (top = N,
    or n_max plus a buffer for an infinite family), the forward pass up
    from b_0 = 1 over rows 0..last, and the two join at the row m where
    the residual is smallest; only row m is left open.  Both kinds of
    series follow this one rule and differ only in top.  Both passes
    rescale past 1e250, the forward one by powers of two so that every
    b_n that fits comes back exactly; where the join is finite but the
    b_0 = 1 vector overflows float64, DomainError is raised, and so it is
    where no row joins at a finite E because a pass left float64 range
    (a value overflowed, or one of the backward pass fell to zero).
    With tol, a join residual above it raises ConsistencyError.
    finite = True (False) demands a terminating (infinite) family.

    One truncation_order, one recurrence and one rows(top) serve every
    energy, and the join rows of all energies are one array; each
    energy's passes run in plain floats (_passes), so it gets, bit for
    bit, what it gets alone.  Errors are raised for the energies in the
    order given: the first energy that fails raises its own.
    """
    N = last = top = truncation_order(spec, fam)
    if finite is not None and finite != (N is not None):
        raise ArgumentError(f"family {fam.selector} at l = {spec.l} "
                            + ("does not terminate" if finite else "terminates"))
    if N is None:
        # The start index sits far enough above n_max that dominant-
        # solution contamination, which decays like k2 per step of the
        # downward recursion, is below 1e-12 at n_max.
        last = n_max
        top = n_max + int(math.ceil(12.5 / -math.log10(spec.k.k2))) + 10
    energies = np.atleast_1d(np.asarray(E, dtype=float))
    if not energies.size:
        return np.empty((0, last + 1)), np.empty(0)
    tri = recurrence(spec, fam, energies)
    alpha, beta, gamma = tri.rows(top)
    if not gamma[1:].all():
        n = int(np.flatnonzero(gamma[1:] == 0.0)[-1]) + 1
        raise ArgumentError(
            f"gamma_{n} vanishes; family {fam.selector} admits no "
            "infinite minimal series here")
    # one row per energy: back[j, 0..top+1], fwd[j, 0..last+1], shift[j]
    al, ga = alpha.tolist(), gamma.tolist()
    back, fwd, shift = map(np.array, zip(*(
        _passes(al, be, ga, top, last) for be in beta.T.tolist())))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rows = np.abs(alpha[:last + 1] * back[:, 1:last + 2]
                      / back[:, :last + 1] + beta[:last + 1].T
                      + np.ldexp(gamma[:last + 1] * fwd[:, :-1] / fwd[:, 1:],
                                 shift[:, :-1] - shift[:, 1:]))
        rows[np.isnan(rows)] = np.inf
        b = np.ldexp(fwd[:, 1:], shift[:, 1:])
        residuals = []
        for j, (e, m) in enumerate(zip(energies.tolist(),
                                       np.argmin(rows, axis=1).tolist())):
            b[j, m:] = back[j, m:last + 1] / back[j, m] * b[j, m]
            join = float(rows[j, m])
            if not math.isfinite(join) and math.isfinite(e) and not (
                    np.isfinite(back[j]).all() and back[j, :top + 1].all()
                    and np.isfinite(fwd[j]).all()):
                raise DomainError(
                    f"the recursion of family {fam.selector} overflows or "
                    f"underflows float64 at E = {e}, l = {spec.l}")
            if math.isfinite(join) and not np.isfinite(b[j]).all():
                raise DomainError(
                    f"coefficients b_0..b_{last} of family {fam.selector} "
                    f"with b_0 = 1 overflow float64 at E = {e}, l = {spec.l}")
            residuals.append(join / (abs(tri.beta_slope) * max(1.0, abs(e))))
            if tol is not None and residuals[-1] > tol:
                raise ConsistencyError(
                    f"join residual {residuals[-1]:.3e} at E = {e}; "
                    "not an eigenvalue of this family")
    if np.ndim(E) == 0:
        return b[0], residuals[0]
    return b, np.array(residuals)


def _passes(al: list, be: list, ga: list, top: int, last: int):
    """The two passes of coefficients at one energy, with the rows'
    alpha_n, beta_n and gamma_n as lists of floats: the backward values
    back[0..top+1], and fwd[0..last+1] with the powers of two shift of
    the forward ones.  Each pass carries its last two values."""
    back = [0.0, 1.0]  # b_{top+1}, b_top, ..., b_0 until reversed
    x2, x1 = 0.0, 1.0
    for a, b, g in zip(al[top:0:-1], be[top:0:-1], ga[top:0:-1]):
        x0 = -(b * x1 + a * x2) / g
        back.append(x0)
        if x0 > 1.0e250 or x0 < -1.0e250:  # abs(x0) > 1e250, without a call
            scale = abs(x0)
            back = [x / scale for x in back]
            x0, x1 = back[-1], back[-2]
        x2, x1 = x1, x0
    back.reverse()
    # fwd[n + 1] = b_n / 2^shift[n + 1], fwd[0] = b_{-1} = 0: the pass
    # shrinks by powers of two past 1e250, so a b_n that fits comes back
    # exactly
    fwd = [0.0, 1.0]
    y2, y1 = 0.0, 1.0
    shift = np.zeros(last + 2, dtype=int)
    for a, b, g in zip(al[:last], be[:last], ga[:last]):
        y0 = -(b * y1 + g * y2) / a
        if y0 > 1.0e250 or y0 < -1.0e250:
            e = math.frexp(y0)[1]
            y1 = fwd[-1] = math.ldexp(y1, -e)
            y0 = math.ldexp(y0, -e)
            shift[len(fwd) - 1:] += e
        fwd.append(y0)
        y2, y1 = y1, y0
    return back, fwd, shift


def solve_coeffs_finite(spec: PotentialSpec, fam: ExpansionFamily,
                        E) -> np.ndarray:
    """Coefficients b_0..b_N of a terminating series at an eigenvalue E,
    or one row per eigenvalue of an array; a join residual
    (coefficients()) above FINITE_TOL raises ConsistencyError."""
    return coefficients(spec, fam, E, finite=True, tol=FINITE_TOL)[0]


def solve_coeffs_infinite(spec: PotentialSpec, fam: ExpansionFamily, E,
                          n_max: int = DEFAULT_N_MAX) -> np.ndarray:
    """Coefficients b_0..b_{n_max} of an infinite series at an eigenvalue
    E, or one row per eigenvalue of an array, under the same bound: a
    join residual above FINITE_TOL raises ConsistencyError."""
    return coefficients(spec, fam, E, n_max, finite=False, tol=FINITE_TOL)[0]


@dataclass(frozen=True)
class SeriesSolution:
    """A family's series at one energy: the coefficients b_0..b_last.

    The prefactor (family_prefactor) and whether the series terminates
    (truncation_order) depend on the spec and the family alone.
    """

    spec: PotentialSpec
    family: ExpansionFamily
    E: float
    coeffs: np.ndarray


def evaluate_grid(sols, us) -> np.ndarray:
    """Values of a series solution on a grid of positions, or of each of a
    sequence of solutions of one (spec, family), one row per solution.

    sn, cn and dn (one jacobi call) and the prefactor (one call) are
    evaluated over the whole grid once for all solutions, and a power
    series (_power_sum) per solution.  The kernel sums
    sum_n b_n z^n 2F1-tilde(n + A0, B; n + C0; z), at every z up to and
    including 1, are one _tilde_f_sum over the stacked coefficients:
    below a kernel row's cut each solution's terms fold into one power
    series in z, whose coefficient runs stop where a term at the largest
    z below the cut falls under 1e-16 of the run's sum there, and above
    the cut each row takes the 1 - z connection, formed once for every
    solution that has the row.  A row of values is, bit for bit, the
    values of its solution alone.  A value that is not finite raises
    DomainError, for the first such solution.
    """
    group = [sols] if isinstance(sols, SeriesSolution) else list(sols)
    us = np.asarray(us, dtype=float)
    spec = group[0].spec
    fam = group[0].family
    sn, cn, dn = jacobi(us, spec.k.k2)
    with np.errstate(over="ignore", invalid="ignore"):
        if fam.group is FamilyGroup.POWER:
            x = sn * sn
            total = np.array([_power_sum(sol, x) for sol in group])
        else:
            z = sn * sn if fam.group is FamilyGroup.HYPER_BAR else cn * cn
            b = np.zeros((len(group), max(sol.coeffs.size for sol in group)))
            for row, sol in zip(b, group):
                row[:sol.coeffs.size] = sol.coeffs
            total = _tilde_f_sum(b, *hyper_eval_args(spec, fam), z)
        vals = family_prefactor(spec, fam).at(sn, cn, dn) * total
    for sol, row in zip(group, vals):
        bad = np.count_nonzero(~np.isfinite(row))
        if bad:
            raise DomainError(
                f"eigenfunction of family {fam.selector} at E = {sol.E} is "
                f"not finite in float64 at {bad} of {row.size} point(s)")
    return vals[0] if isinstance(sols, SeriesSolution) else vals


def _power_sum(sol: SeriesSolution, x):
    """Power series sum_n b_n x^n at a point or an array of points x.

    The series of a terminating family is a polynomial.  An infinite one
    is summed over its coefficients, all points at once, and each
    point's truncation is checked with a geometric tail estimate:
    successive terms shrink like k2 * x.  The first failing point raises
    ConvergenceError.
    """
    coeffs = sol.coeffs
    if truncation_order(sol.spec, sol.family) is not None:
        return np.polynomial.polynomial.polyval(x, coeffs)
    x = np.asarray(x, dtype=float)
    total = np.zeros_like(x)
    xp = np.ones_like(x)
    for bn in coeffs:
        t = bn * xp
        total += t
        xp *= x
    qhat = sol.spec.k.k2 * np.abs(x)
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
