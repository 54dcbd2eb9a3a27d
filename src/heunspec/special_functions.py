"""Elliptic and hypergeometric building blocks.

Contains the complete elliptic integral K, the Jacobi functions sn, cn,
dn via the arithmetic-geometric mean and a descending Landen ladder (one
numpy implementation, jacobi, for a point or a grid), a Lanczos gamma
function, and the Gauss hypergeometric series 2F1 with its regularized
variant, at one point in plain floats (tilde_F), as numpy rows on a
grid (_tilde_f_rows, a test reference) or as weighted sums of such rows
on a grid, one per coefficient vector of a stack (_tilde_f_sum), whose
series all come from scalar coefficient runs (_runs).  All are
deterministic; no module state other than a cache of Landen ladders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .exceptions import (
    ConvergenceError,
    DomainError,
    PoleError,
    UndefinedError,
)

AGM_MAX_ITER = 64
SERIES_MAX_TERMS = 10_000
Z_CONNECT = 0.97  # above it gauss_2F1 and two-piece kernel rows use 1 - z
_BLOCK = 64  # the first block of _runs and the einsum block of _folded_sum

_EPS = 2.220446049250313e-16


class JacobiTriple(NamedTuple):
    """sn, cn, dn: floats for a float argument, else arrays of its shape."""

    sn: float
    cn: float
    dn: float


@dataclass(frozen=True)
class EllipticModulus:
    """Squared modulus k2 with its derived quantities.

    The field a is the Heun singularity location 1/k2.  Values must
    satisfy 0 < k2 < 1, with a neither infinite nor within 1e-14 of 1.
    """

    k2: float
    k: float
    a: float

    @classmethod
    def from_k2(cls, k2: float) -> "EllipticModulus":
        if not (0.0 < k2 < 1.0):
            raise DomainError(f"k2 must lie strictly inside (0, 1), got {k2}")
        a = 1.0 / float(k2)
        if not math.isfinite(a):
            raise DomainError(f"k2 = {k2} is so small that 1/k2 overflows")
        if abs(a - 1.0) < 1.0e-14:
            raise DomainError(f"k2 = {k2} puts a = 1/k2 within 1e-14 of x = 1")
        return cls(k2=float(k2), k=math.sqrt(k2), a=a)


class _Ladder(NamedTuple):
    """Descending Landen ladder of one k2 from the AGM.

    ratios holds c_n / a_n for n = N, N-1, ..., 1 (top level first, the
    order in which the descent uses them) and a_top the last mean a_N.
    """

    ratios: tuple
    a_top: float
    K: float
    kprime: float


@lru_cache(maxsize=256)
def _landen_ladder(k2: float) -> _Ladder:
    kp = math.sqrt(1.0 - k2)
    a, b = 1.0, kp
    ratios = []
    for _ in range(AGM_MAX_ITER):
        c = 0.5 * (a - b)
        if abs(c) <= _EPS * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        ratios.append(c / a)
    else:
        raise ConvergenceError("AGM did not converge within iteration cap")
    return _Ladder(ratios=tuple(reversed(ratios)), a_top=a,
                   K=math.pi / (2.0 * a), kprime=kp)


def complete_K(k2: float) -> float:
    """Complete elliptic integral of the first kind in the parameter k2.

    complete_K(0) returns pi/2 exactly; k2 must satisfy 0 <= k2 < 1.
    """
    if not (0.0 <= k2 < 1.0):
        raise DomainError(f"k2 must lie in [0, 1), got {k2}")
    if k2 == 0.0:
        return math.pi / 2.0
    return _landen_ladder(float(k2)).K


def jacobi(u, k2: float) -> JacobiTriple:
    """Jacobi elliptic sn, cn, dn at real u for parameter k2.

    u is a float or an array; a float gives floats.  Every point is
    folded onto [0, K/2] by the exact symmetries: the sign of u, the
    2K period (sn and cn change sign, dn does not), the reflection
    about K, and past K/2 the complementary point K - v (sn = ct/dt,
    cn = k' st/dt, dn = k'/dt, DLMF 22.6.1), which keeps cn relatively
    accurate near its zero at K.  One descent down the Landen ladder of
    the AGM (DLMF 22.20) then serves all points at once, v = 0 included;
    each point gets, bit for bit, what it gets alone.  Requires
    0 < k2 < 1 and finite u.
    """
    if not (0.0 < k2 < 1.0):
        raise DomainError(f"k2 must lie strictly inside (0, 1), got {k2}")
    u = np.asarray(u, dtype=float)
    if not np.isfinite(u).all():
        raise DomainError("jacobi needs a finite argument u")
    k2 = float(k2)
    ladder = _landen_ladder(k2)
    K = ladder.K
    kp = ladder.kprime

    p = np.abs(u)
    n2 = np.floor(p / (2.0 * K))
    r = np.maximum(p - 2.0 * K * n2, 0.0)
    odd = n2 % 2.0 == 1.0
    sign_s = np.where(np.signbit(u) != odd, -1.0, 1.0)  # sn(-0.0) = -0.0
    sign_c = np.where(odd, -1.0, 1.0)
    past = r > K  # sn(2K - v) = sn v, cn(2K - v) = -cn v
    r = np.where(past, 2.0 * K - r, r)
    sign_c = np.where(past, -sign_c, sign_c)
    comp = r > 0.5 * K
    v = np.where(comp, K - r, r)

    ratios = ladder.ratios
    phi = np.ldexp(ladder.a_top * v, len(ratios))
    phi_prev = phi
    for ratio in ratios:
        phi_prev = phi
        phi = 0.5 * (phi + np.arcsin(np.clip(ratio * np.sin(phi), -1.0, 1.0)))
    sn, cn = np.sin(phi), np.cos(phi)
    if ratios:
        dn = cn / np.cos(phi_prev - phi)
    else:
        dn = np.sqrt(1.0 - k2 * sn * sn)
    # map the complementary points back from K - v
    sn, cn, dn = (np.where(comp, cn / dn, sn),
                  np.where(comp, kp * sn / dn, cn),
                  np.where(comp, kp / dn, dn))
    return JacobiTriple((sign_s * sn)[()], (sign_c * cn)[()], dn[()])


# Lanczos approximation, g = 7, nine coefficients.
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _sinpi(x: float) -> float:
    """sin(pi x) with argument reduction done in exact arithmetic."""
    n = math.floor(x)
    r = x - n
    s = math.sin(math.pi * r)
    return -s if n % 2 else s


def _is_nonpositive_int(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


def gamma_fn(x: float) -> float:
    """Gamma function on the real line, poles rejected explicitly.  Past
    x ~ 142 the Lanczos power overflows, and DomainError is raised."""
    if _is_nonpositive_int(x):
        raise PoleError(f"gamma pole at x = {x}")
    if x < 0.5:
        # Reflection keeps the Lanczos sum on its accurate half-line.
        return math.pi / (_sinpi(x) * gamma_fn(1.0 - x))
    xs = x - 1.0
    acc = _LANCZOS[0]
    for i in range(1, len(_LANCZOS)):
        acc += _LANCZOS[i] / (xs + i)
    t = xs + _LANCZOS_G + 0.5
    try:
        power = t ** (xs + 0.5)
    except OverflowError:
        raise DomainError(f"gamma at x = {x}: the power t^(x - 1/2) of its "
                          "Lanczos form overflows float64") from None
    return math.sqrt(2.0 * math.pi) * power * math.exp(-t) * acc


def _rgamma(x: float) -> float:
    """1 / gamma(x), zero at the poles."""
    if _is_nonpositive_int(x):
        return 0.0
    return 1.0 / gamma_fn(x)


_INT_TOL = 1.0e-12


def _near_nonpositive_int(x: float):
    """Return the integer m <= 0 with |x - m| <= tol, else None."""
    m = round(x)
    if m <= 0 and abs(x - m) <= _INT_TOL:
        return int(m)
    return None


def _series_2f1(A: float, B: float, C: float, z: float) -> float:
    term = 1.0
    total = 1.0
    small_run = 0
    for n in range(SERIES_MAX_TERMS):
        term *= (A + n) * (B + n) / ((C + n) * (n + 1.0)) * z
        total += term
        if abs(term) <= 1.0e-16 * abs(total):
            small_run += 1
            if small_run >= 2:
                return total
        else:
            small_run = 0
    raise ConvergenceError(
        f"2F1 series did not converge within {SERIES_MAX_TERMS} terms "
        f"(A={A}, B={B}, C={C}, z={z})")


def _polynomial_2f1(m: int, A: float, B: float, C: float, z: float) -> float:
    """Terminating series of degree m (A = -m up to roundoff)."""
    cpole = _near_nonpositive_int(C)
    if cpole is not None and -cpole < m:
        raise UndefinedError(
            f"2F1 denominator pole at n = {1 - cpole} precedes termination "
            f"at degree {m}")
    term = 1.0
    total = 1.0
    for n in range(m):
        term *= (A + n) * (B + n) / ((C + n) * (n + 1.0)) * z
        total += term
    return total


def gauss_2F1(A: float, B: float, C: float, z: float) -> float:
    """Gauss hypergeometric function 2F1(A, B; C; z) for real z in [-1, 1].

    Terminating cases are summed exactly.  Otherwise the direct series
    is used away from z = 1, an Euler transformation accelerates the
    slowly convergent region, and a two-term connection at 1 - z covers
    z close to or equal to 1.
    """
    if z == 0.0:
        return 1.0
    if abs(z) > 1.0:
        if abs(z) <= 1.0 + 1.0e-12:
            z = math.copysign(1.0, z)
        else:
            raise DomainError(f"2F1 series argument out of range: z = {z}")

    ma = _near_nonpositive_int(A)
    mb = _near_nonpositive_int(B)
    if ma is not None or mb is not None:
        degrees = [-m for m in (ma, mb) if m is not None]
        m = min(degrees)
        return _polynomial_2f1(m, A, B, C, z)

    if _near_nonpositive_int(C) is not None:
        raise UndefinedError(
            f"2F1 undefined: C = {C} is a non-positive integer and the "
            "series does not terminate")

    s = C - A - B
    s_int = abs(s - round(s)) <= _INT_TOL

    if z == 1.0:
        if s > _INT_TOL:
            # Gauss summation; rgamma absorbs poles of the denominator.
            return (gamma_fn(C) * gamma_fn(s) * _rgamma(C - A) * _rgamma(C - B))
        raise ConvergenceError(
            f"2F1 diverges at z = 1 when C - A - B = {s} <= 0")

    if z > Z_CONNECT and not s_int:
        w = 1.0 - z
        p_coef = gamma_fn(C) * gamma_fn(s) * _rgamma(C - A) * _rgamma(C - B)
        q_coef = gamma_fn(C) * gamma_fn(-s) * _rgamma(A) * _rgamma(B)
        f1 = _series_2f1(A, B, A + B - C + 1.0, w) if p_coef != 0.0 else 0.0
        f2 = _series_2f1(C - A, C - B, s + 1.0, w) if q_coef != 0.0 else 0.0
        return p_coef * f1 + w ** s * q_coef * f2

    if s < 0.0 and z > 0.9:
        # Euler transformation: the partner series has a positive
        # convergence exponent at z = 1.
        return (1.0 - z) ** s * _series_2f1(C - A, C - B, C, z)

    return _series_2f1(A, B, C, z)


def tilde_F(A: float, B: float, C: float, z: float) -> float:
    """Regularized hypergeometric 2F1(A, B; C; z) / gamma(C).

    Non-positive integer C is rejected; no case in this package needs
    the limit value there.
    """
    if _near_nonpositive_int(C) is not None:
        raise UndefinedError(
            f"regularized 2F1 not supported at non-positive integer C = {C}")
    return gauss_2F1(A, B, C, z) / gamma_fn(C)


def _series_rows(A, B, C, z: np.ndarray) -> np.ndarray:
    """Plain 2F1(A[r], B[r]; C[r]; z) for every row r, summed at once:
    the direct sum of the reference _tilde_f_rows below each cut.

    Each step forms every live row's next term from its last and adds
    it to the row's total on the whole grid.  A row leaves at its first
    term with max|term| <= 1e-16 max|total| over its points, and a row
    still running after SERIES_MAX_TERMS terms raises ConvergenceError.
    Where a series cancels, forming each term from the last carries its
    rounding into the later ones, where it cancels too.  No code path
    of an eigenfunction calls it: its kernel sums take their terms from
    coefficient runs (_runs).
    """
    total = np.ones((A.size, z.size))
    if not total.size:
        return total
    sums = np.empty_like(total)
    live = np.arange(A.size)
    term = total
    # a row that meets a pole or overflows leaves with a sum that is not
    # finite, without a warning
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for n in range(SERIES_MAX_TERMS):
            term = term * ((A + n) * (B + n) / ((C + n) * (n + 1.0)))[:, None]
            term *= z
            total = total + term
            done = (np.abs(term).max(axis=1)
                    <= 1.0e-16 * np.abs(total).max(axis=1))
            if done.any():
                sums[live[done]] = total[done]
                if done.all():
                    return sums
                keep = ~done
                live, A, B, C = live[keep], A[keep], B[keep], C[keep]
                term, total = term[keep], total[keep]
    raise ConvergenceError(
        f"2F1 series did not converge within {SERIES_MAX_TERMS} terms "
        f"(A={float(A[0])}, B={float(B[0])}, C={float(C[0])}, "
        f"z up to {float(z.max())})")


def _kernel_factors(A, B, C):
    """s = C - A - B, gamma(C), p and q of every row (see _tilde_f_rows).

    Gamma(s), Gamma(-s), 1/Gamma(B) and 1/Gamma(C - A) repeat over the
    rows of one solution, so each argument value is evaluated once per
    call.  The memo keys compare by value, which merges only +0.0 and
    -0.0: both are poles, with one result.
    """
    s = C - A - B
    gam, rgam = lru_cache(None)(gamma_fn), lru_cache(None)(_rgamma)
    rows = zip(A.tolist(), B.tolist(), C.tolist(), s.tolist())
    g, p, q = np.array([(gam(c), gam(t) * rgam(c - a) * rgam(c - b),
                         gam(-t) * rgam(a) * rgam(b))
                        for a, b, c, t in rows]).reshape(-1, 3).T
    return s, g, p, q


def _cut(p, q) -> float:
    """The one cut of a kernel call: 1/2 when every row is single-piece
    (p or q vanishes), else Z_CONNECT."""
    return 0.5 if ((p == 0.0) | (q == 0.0)).all() else Z_CONNECT


def _connection_rows(A, B, C, s, p, q, w: np.ndarray) -> np.ndarray:
    """Regularized 2F1 of every row at z = 1 - w by the 1 - z connection.

    The series F(A, B; 1 - s; w) of the rows with p != 0 and F(C - A,
    C - B; 1 + s; w) of those with q != 0 are summed together, one
    coefficient run per series and one grid reduction for all of them
    (_run_rows); the first series of a row is then scaled by p, the
    second by w^s q, and the two are added in that order.
    """
    kernel = np.zeros((A.size, w.size))
    i, j = p != 0.0, q != 0.0
    sums = _run_rows(np.concatenate([A[i], C[j] - A[j]]),
                     np.concatenate([B[i], C[j] - B[j]]),
                     np.concatenate([1.0 - s[i], 1.0 + s[j]]), w)
    kernel[i] = p[i, None] * sums[:i.sum()]
    kernel[j] += w ** s[j, None] * q[j, None] * sums[i.sum():]
    return kernel


def _tilde_f_rows(A, B, C, z: np.ndarray) -> np.ndarray:
    """Regularized 2F1(A[r], B[r]; C[r]; z) for every row r on z in [0, 1].

    A and C are arrays, B an array or one float for all rows.  With
    w = 1 - z and s = C - A - B, the 1 - z connection (DLMF 15.8.4)
    gives p_r F(A, B; 1 - s; w) + w^s q_r F(C - A, C - B; 1 + s; w),
    where p_r = gamma(s) / (gamma(C - A) gamma(C - B)) and q_r =
    gamma(-s) / (gamma(A) gamma(B)) are computed once per row; gamma(C)
    cancels the regularization.  At z = 1 only Gauss's sum p_r is left.

    A row is single-piece when p_r or q_r vanishes: then C - A, C - B,
    A or B is a non-positive integer, and the kernel is a polynomial in
    w, times w^s when p_r = 0.  That form is exact and free of
    cancellation, so it is taken from the connection at every z > 1/2,
    where the direct series would need hundreds of terms or cancel.  A
    two-piece row's two terms cancel like e^(n w), so it is summed directly
    up to Z_CONNECT, one term at a time by _series_rows (several hundred
    terms at z near it), and from the connection only above it.  The
    form is the family's at its l, not the row's: at integer l every
    row of a two-sided family is single-piece, at half-odd l none is.
    So all rows of a call share one cut (_cut): 1/2 when every row is
    single-piece, else Z_CONNECT, the general rule, which also holds
    for the single-piece rows of a call that mixes the forms.  Above
    the cut every row takes _connection_rows, the code _tilde_f_sum
    runs there.  An integer s raises PoleError.  This is the row
    reference of the tests: the weighted sum of such rows that an
    eigenfunction needs is _tilde_f_sum, which takes the same pieces but
    folds the direct sums below the cut into one power series.
    """
    B = np.broadcast_to(B, A.shape)
    s, g, p, q = _kernel_factors(A, B, C)
    near = z > _cut(p, q)
    out = np.empty((A.size, z.size))
    out[:, ~near] = _series_rows(A, B, C, z[~near]) / g[:, None]
    out[:, near] = _connection_rows(A, B, C, s, p, q, 1.0 - z[near])
    return out


def _runs(lead, A, B, C, top: float) -> list:
    """The coefficient run of every row r of a 2F1 series in z >= 0.

    Row r's run is t[r, 0] = lead[r] and t[r, k + 1] = t[r, k] (A[r] + k)
    (B[r] + k) / ((C[r] + k)(k + 1)), each term formed from the last in
    numpy longdouble, for all live rows at once in blocks of _BLOCK
    steps, then twice as many, and so on (the block sizes change no
    value).  With z_top = top, the largest z of the grid, a run stops at
    its first k >= 1 with |t[r, k]| z_top^k <= 1e-16 |sum_{j <= k}
    t[r, j] z_top^j|, that term included.  A term is largest over the
    grid at z_top, and the sum there is at most the largest over the
    grid, so no run stops before _series_rows would stop its row; a run
    still going after SERIES_MAX_TERMS terms raises ConvergenceError.
    """
    term = lead.astype(np.longdouble)  # the last term of each live run
    partial = lead  # and the run's sum at z_top
    runs = [[x] for x in term[:, None]]
    live = np.arange(lead.size)
    n0, size = 0, _BLOCK
    # steps past a run's stop may overflow; they are dropped
    with np.errstate(over="ignore", invalid="ignore"):
        while live.size:
            if n0 >= SERIES_MAX_TERMS:
                raise ConvergenceError(
                    f"2F1 series did not converge within {SERIES_MAX_TERMS} "
                    f"terms (A={float(A[0])}, B={float(B[0])}, "
                    f"C={float(C[0])}, z up to {top})")
            ks = np.arange(n0, n0 + size, dtype=float)
            num = (A[:, None] + ks) * (B[:, None] + ks)
            den = (C[:, None] + ks) * (ks + 1.0)
            ratio = num.astype(np.longdouble) / den
            terms = np.cumprod(np.column_stack([term, ratio]), axis=1)[:, 1:]
            at_top = terms.astype(float) * top ** (ks + 1.0)
            sums = np.cumsum(np.column_stack([partial, at_top]), axis=1)[:, 1:]
            done = np.abs(at_top) <= 1.0e-16 * np.abs(sums)
            done[:, SERIES_MAX_TERMS - n0:] = False
            hit = done.any(axis=1)
            ends = np.where(hit, done.argmax(axis=1) + 1, size)
            for row, run, end in zip(live.tolist(), terms, ends.tolist()):
                runs[row].append(run[:end])
            keep = ~hit
            live, A, B, C = live[keep], A[keep], B[keep], C[keep]
            term, partial = terms[keep, -1], sums[keep, -1]
            n0, size = n0 + size, 2 * size
    return [np.concatenate(run) for run in runs]


def _run_rows(A, B, C, w: np.ndarray) -> np.ndarray:
    """Plain 2F1(A[r], B[r]; C[r]; w) for every row r on w >= 0.

    Each row's coefficient run (_runs, lead 1, z_top = max w) is summed
    in longdouble by one einsum for all rows, against one table of
    w^0 .. w^(K - 1) (a running product, K the longest run; a shorter
    run's missing terms are exact zeros), and each sum is rounded once
    to float64.
    """
    if not (A.size and w.size):
        return np.zeros((A.size, w.size))
    runs = _runs(np.ones(A.size), A, B, C, float(w.max()))
    d = np.zeros((A.size, max(map(len, runs))), dtype=np.longdouble)
    for row, run in zip(d, runs):
        row[:run.size] = run
    powers = np.ones((d.shape[1], w.size), dtype=np.longdouble)
    powers[1:] = w
    # a C-ordered table: einsum then adds each row's terms in order
    return np.einsum("rk,kz->rz", d, np.cumprod(powers, axis=0),
                     optimize=False).astype(float)


def _folded_sum(lead, n, A, B, C, z: np.ndarray) -> np.ndarray:
    """sum_r z^n[r] sum_k t[r, k] z^k, summed as one power series in z.

    t[r] is row r's coefficient run (_runs with z_top = max z).  The
    runs, shifted by n[r] and added in longdouble in the order of n, are
    the coefficients d_m of the sum, rounded once to float64.  Each block of _BLOCK of them is summed by one einsum
    against one table of z^0 .. z^(_BLOCK - 1) on the grid, and the
    blocks are joined by Horner's rule in z^_BLOCK.  Against 40-digit
    sums, longdouble runs halve the worst error of a float64 fold (v2
    bar7, l = 11/2).
    """
    runs = _runs(lead, A, B, C, float(z.max()))
    length = max(m + run.size for m, run in zip(n.tolist(), runs))
    d = np.zeros(-(-length // _BLOCK) * _BLOCK, dtype=np.longdouble)
    for m, run in zip(n.tolist(), runs):
        d[m:m + run.size] += run
    # a C-ordered table: einsum then adds each block's terms in order
    powers = z ** np.arange(_BLOCK, dtype=float)[:, None]
    blocks = np.einsum("bk,kz->bz", d.astype(float).reshape(-1, _BLOCK),
                       powers, optimize=False)
    step = powers[-1] * z
    total = blocks[-1]
    for block in blocks[-2::-1]:
        total = total * step + block
    return total


def _tilde_f_sum(b, A0: float, B: float, C0: float,
                 z: np.ndarray) -> np.ndarray:
    """sum_n b[v, n] z^n 2F1-tilde(n + A0, B; n + C0; z) on z in [0, 1],
    for each coefficient vector b[v] of a 2-D stack b: one row of sums
    per vector.

    Every vector takes every row n = 0..N of _tilde_f_rows, with their
    gamma(C), p and q computed once each for the whole stack; a zero
    coefficient adds an exact zero.  All rows share the one cut of the
    call (_cut: 1/2 when every row is single-piece, as at integer l,
    else Z_CONNECT).  Below it sum_n b[n] z^n 2F1-tilde(n) is, for each
    vector, one power series in z whose coefficients
    d_m = sum_{n <= m} b[n] (A0 + n)_(m-n) (B)_(m-n)
    / ((m - n)! gamma(C0 + m)) are built from each row's scalar
    coefficient run (_folded_sum), so the grid work there is one
    multiply-add per term and point in place of one per row, term and
    point.  Above it every row takes the 1 - z connection
    (_connection_rows): each of its series is a coefficient run from the
    same builder and stop rule (_runs), and all runs are summed on the
    points above the cut by one einsum, once for every vector; each
    vector then adds its rows in ascending n.  Every row
    stops by its own rule, so each vector's sum is, bit for bit, its sum
    alone.  A run past SERIES_MAX_TERMS terms, on either side of the
    cut, raises ConvergenceError, an integer C - A - B PoleError.
    """
    n = np.arange(b.shape[1])
    A, C = n + A0, n + C0
    Bs = np.full(n.shape, float(B))
    s, g, p, q = _kernel_factors(A, Bs, C)
    near = z > _cut(p, q)
    total = np.zeros((len(b),) + z.shape)
    if not near.all():
        for sums, coeffs in zip(total, b):
            sums[~near] += _folded_sum(coeffs / g, n, A, Bs, C, z[~near])
    kernels = np.zeros((n.size, z.size))
    kernels[:, near] = _connection_rows(A, Bs, C, s, p, q, 1.0 - z[near])
    zp = np.ones_like(z)
    for bn, kernel in zip(b.T, kernels):
        total += bn[:, None] * zp * kernel
        zp *= z
    return total
