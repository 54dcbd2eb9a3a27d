"""Elliptic integral, Jacobi function, gamma, and 2F1 checks.

Reference values were computed with mpmath at 25 significant digits and
are pasted here as literals.  The tests named *_matches_mpmath import
mpmath and are skipped where it is not installed.
"""

import math
import warnings

import numpy as np
import pytest

from conftest import HYPER_LEVELS
from heunspec import special_functions
from heunspec.exceptions import (
    ConvergenceError,
    DomainError,
    PoleError,
    UndefinedError,
)
from heunspec.special_functions import (
    _kernel_factors,
    _series_rows,
    _tilde_f_rows,
    _tilde_f_sum,
    complete_K,
    gamma_fn,
    gauss_2F1,
    jacobi,
    tilde_F,
)

# complete elliptic integral of the first kind, mpmath ellipk(k2)
K_REFERENCE = {
    0.25: 1.685750354812596042871204,
    0.5: 1.85407467730137191843385,
    0.75: 2.156515647499643235438675,
    1e-12: 1.570796326795289318313021,
    0.9: 2.578092113348173188202571,
}

K_HALF = K_REFERENCE[0.5]

# (u, k2) -> (sn, cn, dn), mpmath ellipfun
JACOBI_REFERENCE = [
    (0.3, 0.5, 0.29341273316845538786, 0.95598586182778707425,
     0.97824050417436120377),
    (1.0, 0.25, 0.82263557812986235968, 0.56856899809517148994,
     0.91149200566913190034),
    (2.5, 0.75, 0.98485320913449965526, -0.17339018558579803538,
     0.52206141146718372791),
    (-1.2, 0.5, -0.88771548861927815676, 0.4603924535278963859,
     0.77844756126069154554),
    (4.1, 0.6, -0.19872963923843552346, -0.98005435078273147164,
     0.98808092699580876019),
    (0.5, 0.9, 0.46384036801172766052, 0.8859187959416737938,
     0.89797934369475924272),
    (6.9, 0.35, -0.0772981893763929671, 0.99700801898436668965,
     0.99895382599582446932),
    (K_HALF / 2.0, 0.5, 0.76536686473017954346, 0.64359425290558262474,
     0.84089641525371454303),
]

GAMMA_REFERENCE = {
    2.5: 1.3293403881791370205,
    0.5: 1.7724538509055160273,
    -1.5: 2.3632718012073547031,
    7.25: 1155.3810139199896872,
    0.1: 9.5135076986687318363,
    12.0: 39916800.0,
    -0.5: -3.5449077018110320546,
    -2.25: -1.7428148657282526509,
}

# (a, b, c, z) -> 2F1, mpmath hyp2f1; the set exercises the direct
# series, the terminating branch, the z = 1 Gauss value, and the
# connection formula near z = 1
F21_REFERENCE = [
    (1.0, 1.0, 2.0, 0.5, 1.3862943611198906188),
    (0.75, 1.25, 2.5, 0.8, 1.6245984811645316308),
    (0.75, 1.25, 2.5, 0.999, 2.6993774174880067076),
    (0.75, 1.25, 2.5, 1.0, 2.8284271247461900976),
    (-3.0, 2.2, 1.7, 0.6, -0.049004769475357710652),
    (2.5, 1.5, 0.5, 0.3, 7.6661893310077726179),
    (1.2, 3.4, 5.6, 0.97, 4.2921022736626197327),
    (1.5, 2.0, 3.0, 0.995, 49.343587492637479823),
    (0.75, 1.25, 2.5, 0.97, 2.225789507806254275),
    (-0.5, 1.75, 2.5, 0.999, 0.49307328618604474179),
]


def test_complete_k_reference_values():
    for k2, ref in K_REFERENCE.items():
        assert complete_K(k2) == pytest.approx(ref, rel=1e-15)


def test_complete_k_at_zero_is_half_pi():
    assert complete_K(0.0) == math.pi / 2.0


def test_complete_k_domain():
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(DomainError):
            complete_K(bad)


def test_jacobi_reference_triples():
    for u, k2, sn, cn, dn in JACOBI_REFERENCE:
        t = jacobi(u, k2)
        assert t.sn == pytest.approx(sn, rel=5e-14, abs=1e-15)
        assert t.cn == pytest.approx(cn, rel=5e-14, abs=1e-15)
        assert t.dn == pytest.approx(dn, rel=5e-14, abs=1e-15)


def test_jacobi_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    for k2 in (0.25, 0.5, 0.75, 0.99):
        K = complete_K(k2)
        # both signs, every quarter of the period and beyond 2K
        us = [f * K for f in (0.03, 0.3, 0.5, 0.8, 0.97, 1.0, 1.4, 1.9,
                              2.35, 3.1, 3.9, 5.6)]
        us += [-u for u in us] + [1.0e-5, -2.5e-5]
        # the whole grid in one call gives each point's own triple
        grid = jacobi(np.array(us), k2)
        with mpmath.workdps(30):
            for i, u in enumerate(us):
                t = jacobi(u, k2)
                for name, got, col in zip(("sn", "cn", "dn"), t, grid):
                    assert col[i] == got, (name, u, k2)
                    ref = float(mpmath.ellipfun(name, u, m=k2))
                    assert got == pytest.approx(ref, abs=1e-13), (
                        name, u, k2)
        # near zero the Landen descent alone holds every digit
        small = [1e-300, 2.5e-200, 1e-100, 3e-40, 1e-15, 7e-10, 2e-7,
                 3.3e-6, 5e-5, 9.9e-5, 1.5e-4]
        with mpmath.workdps(30):
            for u in small + [-u for u in small]:
                for name, got in zip(("sn", "cn", "dn"), jacobi(u, k2)):
                    ref = float(mpmath.ellipfun(name, u, m=k2))
                    assert got == pytest.approx(ref, rel=1e-15, abs=0), (
                        name, u, k2)


def test_jacobi_special_points():
    for k2 in (0.25, 0.5, 0.75):
        K = complete_K(k2)
        t0 = jacobi(0.0, k2)
        assert (t0.sn, t0.cn, t0.dn) == (0.0, 1.0, 1.0)
        tK = jacobi(K, k2)
        assert tK.sn == pytest.approx(1.0, abs=1e-14)
        assert tK.cn == pytest.approx(0.0, abs=1e-14)
        # dn at the quarter period equals the complementary modulus
        assert tK.dn == pytest.approx(math.sqrt(1.0 - k2), rel=1e-14)


def test_jacobi_float_gives_floats_and_keeps_signed_zero():
    t = jacobi(0.7, 0.5)
    assert all(type(x) is np.float64 and np.ndim(x) == 0 for x in t)
    neg = jacobi(-0.0, 0.5)
    assert neg == (0.0, 1.0, 1.0) and math.copysign(1.0, neg.sn) == -1.0
    grid = jacobi(np.zeros((2, 3)), 0.5)
    assert all(x.shape == (2, 3) for x in grid)


@pytest.mark.parametrize("u", [math.nan, math.inf, [0.5, -math.inf]])
def test_jacobi_rejects_non_finite_argument(u):
    with pytest.raises(DomainError):
        jacobi(u, 0.5)


def test_jacobi_parity_and_periodicity(rng):
    for _ in range(200):
        u = float(rng.uniform(-20.0, 20.0))
        k2 = float(rng.uniform(0.05, 0.95))
        K = complete_K(k2)
        a, b = jacobi(u, k2), jacobi(-u, k2)
        assert a.sn == pytest.approx(-b.sn, abs=3e-14)
        assert a.cn == pytest.approx(b.cn, abs=3e-14)
        assert a.dn == pytest.approx(b.dn, abs=3e-14)
        c = jacobi(u + 2.0 * K, k2)
        assert c.sn == pytest.approx(-a.sn, abs=5e-13)
        assert c.cn == pytest.approx(-a.cn, abs=5e-13)
        assert c.dn == pytest.approx(a.dn, abs=5e-13)


def test_jacobi_identities_bulk(rng):
    # sn^2 + cn^2 = 1 and dn^2 + k2 sn^2 = 1 over a broad sample
    worst = 0.0
    for _ in range(10_000):
        u = float(rng.uniform(-30.0, 30.0))
        k2 = float(rng.uniform(0.001, 0.999))
        t = jacobi(u, k2)
        worst = max(worst,
                    abs(t.sn ** 2 + t.cn ** 2 - 1.0),
                    abs(t.dn ** 2 + k2 * t.sn ** 2 - 1.0))
    assert worst < 1e-13


def test_jacobi_trigonometric_degeneration(rng):
    # at vanishing modulus sn, cn, dn collapse to sin, cos, 1
    for _ in range(50):
        u = float(rng.uniform(-6.0, 6.0))
        t = jacobi(u, 1e-12)
        assert t.sn == pytest.approx(math.sin(u), abs=1e-11)
        assert t.cn == pytest.approx(math.cos(u), abs=1e-11)
        assert t.dn == pytest.approx(1.0, abs=1e-11)


def test_gamma_reference_values():
    for x, ref in GAMMA_REFERENCE.items():
        assert gamma_fn(x) == pytest.approx(ref, rel=1e-14)


def test_gamma_poles():
    for x in (0.0, -1.0, -7.0):
        with pytest.raises(PoleError):
            gamma_fn(x)


def test_gamma_euler_reflection_bulk(rng):
    # gamma(x) gamma(1-x) = pi / sin(pi x) away from integers
    count = 0
    while count < 1000:
        x = float(rng.uniform(-5.0, 5.0))
        if abs(x - round(x)) < 0.05:
            continue
        count += 1
        lhs = gamma_fn(x) * gamma_fn(1.0 - x)
        rhs = math.pi / math.sin(math.pi * x)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_gauss_2f1_reference_values():
    for a, b, c, z, ref in F21_REFERENCE:
        assert gauss_2F1(a, b, c, z) == pytest.approx(ref, rel=2e-13)


def test_gauss_2f1_at_origin():
    assert gauss_2F1(0.3, 0.7, 1.1, 0.0) == 1.0


def test_gauss_2f1_domain():
    with pytest.raises(DomainError):
        gauss_2F1(0.5, 0.5, 1.5, 1.2)


def test_gauss_2f1_undefined_c():
    # non-terminating series with c a non-positive integer has no value
    with pytest.raises(UndefinedError):
        gauss_2F1(0.5, 0.7, -2.0, 0.3)


def test_gauss_2f1_divergent_at_one():
    # at z = 1 the series needs c - a - b > 0; here it is 0
    with pytest.raises(ConvergenceError):
        gauss_2F1(1.0, 1.0, 2.0, 1.0)


def test_gauss_2f1_polynomial_termination():
    # a = -2 truncates the series at degree 2 before the c pole at
    # the sixth term can strike
    a, b, c, z = -2.0, 1.3, -5.0, 0.4
    manual = (1.0 + a * b / c * z
              + (a * (a + 1.0) / 2.0) * (b * (b + 1.0)
                                         / (c * (c + 1.0))) * z ** 2)
    assert gauss_2F1(a, b, c, z) == pytest.approx(manual, rel=1e-14)


def test_gauss_2f1_polynomial_hits_pole():
    # degree 5 polynomial, but the c pole strikes at the third term
    with pytest.raises(UndefinedError):
        gauss_2F1(-5.0, 1.3, -2.0, 0.4)


def test_gauss_2f1_terminating_at_one():
    # terminating series are plain polynomials, fine at z = 1
    val = gauss_2F1(-3.0, 2.2, 1.7, 1.0)
    manual = sum((math.prod(-3.0 + j for j in range(n))
                  * math.prod(2.2 + j for j in range(n)))
                 / (math.prod(1.7 + j for j in range(n)) * math.factorial(n))
                 for n in range(4))
    assert val == pytest.approx(manual, rel=1e-13)


def test_tilde_f_scaling():
    # regularized value is the plain value divided by gamma(c)
    a, b, c, z = 0.75, 1.25, 2.5, 0.8
    assert tilde_F(a, b, c, z) == pytest.approx(
        gauss_2F1(a, b, c, z) / gamma_fn(c), rel=1e-14)


def test_tilde_f_rejects_nonpositive_integer_c():
    with pytest.raises(UndefinedError):
        tilde_F(0.5, 0.7, 0.0, 0.3)


# kernel arguments z on both sides of the cut at 0.97 and at 1 itself,
# and inside (1/2, 0.97), where two-piece rows sum hundreds of terms
MPMATH_Z = (0.0, 0.3, 0.5001, 0.6, 0.75, 0.85, 0.9, 0.93, 0.95, 0.969,
            0.97, 0.9701, 0.975, 0.99, 0.999, 0.99999, 1.0)
# measured at 40 digits: worst pointwise relative error 6.3e-14 for
# tilde_F (bold5 at l = 11/2, n = 0, z = 0.75) and 4.4e-13 for
# _tilde_f_rows (bold5 at l = 11/2, n = 2, z = 0.97, where A = n - 11/4
# makes the direct series cancel)
SCALAR_KERNEL_TOL = 1.0e-13
ROWS_KERNEL_TOL = 2.0e-12


def test_regularized_kernels_match_mpmath():
    # the 2F1-tilde kernels of every in-scope two-sided family at every
    # half-odd l from -3/2 to 11/2, for every index n <= N.  abs=0:
    # approx's default absolute 1e-12 would pass every kernel below
    # 1e-12 / tolerance in size
    mpmath = pytest.importorskip("mpmath")
    from heunspec.heun_core import (ExpansionFamily, PotentialKind,
                                    PotentialSpec)
    from heunspec.series_engine import hyper_eval_args, truncation_order
    cases = [(kind, sel, l) for kind, sels in (("v1", ("bold5", "bold6")),
                                               ("v2", ("bar5", "bar7")))
             for sel in sels for l in np.arange(-1.5, 6.0).tolist()]
    for kind, sel, l in cases:
        spec = PotentialSpec.from_k2(PotentialKind(kind), l, 0.5)
        fam = ExpansionFamily.from_selector(sel)
        A0, B, C0 = hyper_eval_args(spec, fam)
        ns = np.arange(truncation_order(spec, fam) + 1)
        rows = _tilde_f_rows(ns + A0, B, ns + C0, np.array(MPMATH_Z))
        with mpmath.workdps(40):
            for n in ns.tolist():
                for z, got in zip(MPMATH_Z, rows[n]):
                    ref = float(mpmath.hyp2f1(n + A0, B, n + C0, z)
                                / mpmath.gamma(n + C0))
                    case = (sel, l, n, z)
                    assert tilde_F(n + A0, B, n + C0, z) == pytest.approx(
                        ref, rel=SCALAR_KERNEL_TOL, abs=0), case
                    assert got == pytest.approx(ref, rel=ROWS_KERNEL_TOL,
                                                abs=0), case


def _two_sided_kernels(kind, sel, l, k2=0.5):
    """(A0, B, C0, N) of a two-sided family's terminating kernels."""
    from heunspec.heun_core import (ExpansionFamily, PotentialKind,
                                    PotentialSpec)
    from heunspec.series_engine import hyper_eval_args, truncation_order
    spec = PotentialSpec.from_k2(PotentialKind(kind), l, k2)
    fam = ExpansionFamily.from_selector(sel)
    return (*hyper_eval_args(spec, fam), truncation_order(spec, fam))


def _nonpositive_int(x):
    return x <= 0.0 and x == math.floor(x)


def _kernel_pq(kind, sel, l):
    """p and q of every kernel row of a terminating two-sided family."""
    A0, B, C0, N = _two_sided_kernels(kind, sel, l)
    n = np.arange(N + 1.0)
    _, _, p, q = _kernel_factors(n + A0, np.full(N + 1, B), n + C0)
    return p, q


def test_kernel_form_is_one_per_family():
    # every bold/bar family at each l in [-20, 60] (steps of 1/2) where
    # it terminates, and 1e-10 above and 7e-10 below it, where it still
    # terminates: its kernel rows are all single-piece, with p = 0 on
    # every row or q = 0 on every row, exactly at integer l, and none is
    # single-piece elsewhere.  _tilde_f_sum takes one cut per call on
    # this fact
    from heunspec.heun_core import FAMILY_PARTNERS, FamilyGroup
    families = [(kind.value, f"{group.value}{index}")
                for kind, groups in FAMILY_PARTNERS.items()
                for group, indices in groups.items()
                if group is not FamilyGroup.POWER for index in indices]
    checked = 0
    for kind, sel in families:
        for l0 in np.arange(-20.0, 60.5, 0.5).tolist():
            if _two_sided_kernels(kind, sel, l0)[3] is None:
                continue
            for l in (l0, l0 + 1e-10, l0 - 7e-10):
                p, q = _kernel_pq(kind, sel, l)
                case = (kind, sel, l)
                if l == math.floor(l):
                    assert (p == 0.0).all() or (q == 0.0).all(), case
                else:
                    assert not ((p == 0.0) | (q == 0.0)).any(), case
                checked += 1
    assert checked == 1860


def test_kernel_forms_agree_where_they_meet():
    # at integer l the kernels are single-piece (cut 1/2), 1e-10 above it
    # two-piece (cut 0.97): the normalized eigenfunction samples of the
    # two forms agree within EQUIV_TOL, the gap at which verify calls
    # two eigenfunctions different.  Measured worst 3.3e-10 (v2 bar7,
    # l = 16, level 0)
    from heunspec.cli import _plot_grid
    from heunspec.heun_core import (ExpansionFamily, PotentialKind,
                                    PotentialSpec)
    from heunspec.series_engine import evaluate_grid
    from heunspec.spectrum import family_levels
    from heunspec.verify import EQUIV_TOL
    for kind, sels in (("v1", ("bold5", "bold6")), ("v2", ("bar5", "bar7"))):
        for sel in sels:
            fam = ExpansionFamily.from_selector(sel)
            for l in (4.0, 12.0, 16.0):
                samples = []
                for at, cut in ((l, 0.5), (l + 1e-10,
                                           special_functions.Z_CONNECT)):
                    p, q = _kernel_pq(kind, sel, at)
                    assert special_functions._cut(p, q) == cut, (sel, at)
                    spec = PotentialSpec.from_k2(PotentialKind(kind), at, 0.5)
                    sols = family_levels(spec, fam, 2).solutions[:2]
                    vals = evaluate_grid(sols, _plot_grid(spec))
                    peak = np.argmax(np.abs(vals), axis=1)
                    samples.append(vals / vals[[0, 1], peak, None])
                gap = np.abs(samples[0] - samples[1]).max()
                assert gap <= EQUIV_TOL, (sel, l, gap)


# both sides of the single-piece cut at 1/2 and of the two-piece cut at
# 0.97, and z = 1
SINGLE_PIECE_Z = (0.0, 0.3, 0.45, 0.5, 0.5001, 0.6, 0.75, 0.85, 0.95,
                  0.969, 0.97, 0.9701, 0.99, 0.999, 1.0)


def test_single_piece_kernels_match_mpmath():
    # at integer l every kernel row of these families is single-piece:
    # C - B or A (which one goes with the parity of l) is a non-positive
    # integer, so one term of the 1 - z connection is left, a
    # polynomial in w = 1 - z.  At 40 digits the worst relative error
    # measured 3.3e-13 (bold5, l = 12, n = 0, z = 0.5001); summed
    # directly up to z = 0.97 these rows were off by up to 4.4e-12
    mpmath = pytest.importorskip("mpmath")
    cases = [(kind, sel, float(l))
             for kind, sels in (("v1", ("bold5", "bold6")),
                                ("v2", ("bar5", "bar7")))
             for sel in sels for l in range(13)]
    checked = 0
    for kind, sel, l in cases:
        A0, B, C0, N = _two_sided_kernels(kind, sel, l)
        if N is None:  # bold6 and bar7 do not terminate at l = 0
            continue
        ns = np.arange(N + 1)
        rows = _tilde_f_rows(ns + A0, B, ns + C0, np.array(SINGLE_PIECE_Z))
        with mpmath.workdps(40):
            for n in ns.tolist():
                A, C = n + A0, n + C0
                assert any(_nonpositive_int(x) for x in (A, B, C - A, C - B))
                for z, got in zip(SINGLE_PIECE_Z, rows[n]):
                    ref = float(mpmath.hyp2f1(A, B, C, z, zeroprec=400)
                                / mpmath.gamma(C))
                    case = (sel, l, n, z)
                    if ref == 0:
                        # a true zero: w^s at z = 1, or a root of the
                        # polynomial (w = 1/4 for bold5 at l = 7, n = 2)
                        assert abs(got) <= 1e-15 * np.abs(rows[n]).max(), case
                        continue
                    checked += 1
                    # abs=0: approx's default absolute 1e-12 would pass
                    # every kernel below 1e-12 / ROWS_KERNEL_TOL in size
                    assert got == pytest.approx(ref, rel=ROWS_KERNEL_TOL,
                                                abs=0), case
    assert checked > 1000


# _tilde_f_sum against the row sums, in eps * sum_n |b_n z^n F~_n|.
# Both round every term of every row, and where a row's own series
# cancels (the polynomial rows of integer l alternate in sign) those
# terms reach nearly 8000 times that scale (bold5, l = 12, z = 0.97).
# Measured worst 168 (bold5, l = 12, level 5, z = 0.45), a factor 3
# below FOLD_TOL.
FOLD_TOL = 512


def test_folded_kernel_sum_matches_row_sums(rng):
    # the coefficients of every level of every in-scope two-sided family
    # at half-odd l from -3/2 to 11/2 (two-piece rows) and integer l from
    # 0 to 12 (single-piece rows), and random b on rows that mix the
    # forms, which no family does: with A0 = -3, rows n <= 3 are
    # polynomials and the rest two-piece, so every row takes the
    # two-piece rule, cut 0.97.  z lies on both sides of both cuts.  The
    # reference rows are summed one point at a time, so each stops on its
    # own point's total: summed on the whole grid they stop on the
    # largest total over it and are off by up to 580 eps at z = 0.97
    # (bold5, l = 11/2)
    from heunspec.heun_core import (ExpansionFamily, PotentialKind,
                                    PotentialSpec)
    from heunspec.spectrum import finite_spectrum
    z = np.array(SINGLE_PIECE_Z)
    cases = [((-3.0, 1.25, 2.5), [rng.standard_normal(8) for _ in range(5)])]
    for kind, sels in (("v1", ("bold5", "bold6")), ("v2", ("bar5", "bar7"))):
        for sel in sels:
            for l in np.arange(-1.5, 6.0).tolist() + list(range(13)):
                *args, N = _two_sided_kernels(kind, sel, float(l))
                if N is None:
                    continue
                spec = PotentialSpec.from_k2(PotentialKind(kind), l, 0.5)
                fam = ExpansionFamily.from_selector(sel)
                sols = finite_spectrum(spec, fam).solutions
                if sols:  # bar spectra at l = -1/2 are complex
                    cases.append((args, [s.coeffs for s in sols]))
    eps = np.finfo(float).eps
    for (A0, B, C0), bs in cases:
        ns = np.arange(len(bs[0]))
        rows = np.column_stack([_tilde_f_rows(ns + A0, B, ns + C0, z[j:j + 1])
                                for j in range(z.size)])
        for b in bs:
            terms = b[:, None] * z ** ns[:, None] * rows
            [got] = _tilde_f_sum(b[None], A0, B, C0, z)
            bound = FOLD_TOL * eps * np.abs(terms).sum(axis=0)
            assert (np.abs(got - terms.sum(axis=0)) <= bound).all(), (A0, b)


def test_folded_kernel_sum_of_a_stack_matches_one_call_per_vector(
        rng, monkeypatch):
    # rows n <= 3 are polynomials and the rest two-piece (A0 = -3), so
    # every row takes the two-piece rule, and the vectors have zeros on
    # different rows: one _kernel_factors call serves the union of their
    # rows, and each vector's sum is, bit for bit, its sum in a
    # one-vector stack
    z = np.array(SINGLE_PIECE_Z)
    stack = rng.standard_normal((4, 8))
    stack[0, 5] = stack[1, :2] = stack[2, 4:] = stack[3, ::2] = 0.0
    calls = []

    def counting(*args):
        calls.append(args)
        return _kernel_factors(*args)

    monkeypatch.setattr(special_functions, "_kernel_factors", counting)
    sums = _tilde_f_sum(stack, -3.0, 1.25, 2.5, z)
    assert len(calls) == 1 and sums.shape == (4, z.size)
    for b, row in zip(stack, sums):
        assert np.array_equal(row, _tilde_f_sum(b[None], -3.0, 1.25, 2.5,
                                                z)[0])


def test_single_piece_rows_need_few_terms(monkeypatch):
    # summed directly up to z = 0.97 these rows took 542 (bold5, l = 3)
    # and 831 (bar5, l = 5) terms; from the connection above z = 1/2
    # 64 are enough, and the values are the same to the bit
    z = np.linspace(0.0, 1.0, 201)
    for kind, sel, l in (("v1", "bold5", 3.0), ("v2", "bar5", 5.0)):
        A0, B, C0, N = _two_sided_kernels(kind, sel, l)
        ns = np.arange(N + 1)
        full = _tilde_f_rows(ns + A0, B, ns + C0, z)
        with monkeypatch.context() as m:
            m.setattr(special_functions, "SERIES_MAX_TERMS", 64)
            capped = _tilde_f_rows(ns + A0, B, ns + C0, z)
        assert np.array_equal(capped, full), (sel, l)


def test_kernel_factors_memo_is_bit_identical(monkeypatch):
    # one gamma evaluation per argument value and call gives, to the
    # bit, the factors of one evaluation per use, in fewer evaluations
    calls = []

    def counted(x):
        calls.append(x)
        return gamma_fn(x)

    def one_per_use(A, B, C):
        g, rg = special_functions.gamma_fn, special_functions._rgamma
        s = C - A - B
        rows = [(g(c), g(t) * rg(c - a) * rg(c - b), g(-t) * rg(a) * rg(b))
                for a, b, c, t in zip(A.tolist(), B.tolist(), C.tolist(),
                                      s.tolist())]
        return (s, *np.array(rows).T)

    monkeypatch.setattr(special_functions, "gamma_fn", counted)
    for kind, sels in (("v1", ("bold5", "bold6")), ("v2", ("bar5", "bar7"))):
        for sel in sels:
            for l in np.arange(-1.5, 12.0).tolist() + list(range(13)):
                A0, B, C0, N = _two_sided_kernels(kind, sel, float(l))
                if N is None:
                    continue
                ns = np.arange(N + 1.0)
                args = (ns + A0, np.full(N + 1, B), ns + C0)
                calls.clear()
                ref = one_per_use(*args)
                per_use = len(calls)
                calls.clear()
                got = special_functions._kernel_factors(*args)
                assert all(np.array_equal(x, y) for x, y in zip(got, ref))
                assert len(calls) < per_use or N == 0, (sel, l)


def _one_term_loop(a, b, c, z, max_terms=10_000):
    """2F1(a, b; c; z) of one row, one term per step, with the stop rule
    of _series_rows; returns the sum and the number of terms."""
    term = np.ones_like(z)
    total = np.ones_like(z)
    for n in range(max_terms):
        term = term * ((a + n) * (b + n) / ((c + n) * (n + 1.0))) * z
        total += term
        if np.abs(term).max() <= 1.0e-16 * np.abs(total).max():
            return total, n + 1
    raise AssertionError("reference loop did not stop")


def test_blocked_series_matches_one_term_loop():
    # terminating rows A = -m stop at every step from 1 to 41, so some
    # leave inside a block of terms and some at its last step; the
    # non-terminating rows run on across several blocks.  A = -2 with
    # C = -3 meets a pole one step after it terminates, which the
    # blocked sum forms and must drop without a warning; A = -70 with
    # C = -71 does so past the first 60 terms.  Every term is formed
    # from the last, so every row, however long, must be the loop's sum
    # to the bit
    ends = [-float(m) for m in range(41)]
    runs = [0.3 + 0.2 * j for j in range(20)]
    cases = [
        (np.array([0.0, 0.2, 0.5, 0.8]),
         [(a, 1.25, 2.5) for a in ends]
         + [(a, 1.25, 2.5 + a) for a in runs]),
        (np.array([0.0, 0.2, 0.5, 0.8, 1.0]),
         [(a, 1.25, 2.5) for a in ends]
         + [(-2.0, 1.3, -3.0), (-70.0, 1.3, -71.0)]),
        (np.array([0.0]), [(a, 1.25, 2.5) for a in ends + runs]),
        (np.array([1.0]), [(a, 0.7, 1.1) for a in ends]),
    ]
    stops = set()
    for z, rows in cases:
        A, B, C = (np.array(col) for col in zip(*rows))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _series_rows(A, B, C, z)
        for r, (a, b, c) in enumerate(rows):
            ref, terms = _one_term_loop(a, b, c, z)
            assert np.array_equal(got[r], ref), (a, b, c, z)
            stops.add(terms)
    assert set(range(1, 42)) <= stops and max(stops) > 100


def test_series_raises_at_the_term_cap(monkeypatch):
    # the row needs 40 terms at z up to 0.45, inside the first four
    # blocks, and 134 at z up to 0.8, where caps 61, 100 and 133 cut one
    # of the later _BLOCK-step blocks short.  Every cap below the need
    # fails, and the need itself gives the loop's sum to the bit
    a, b, c = 0.3, 0.7, 1.1
    for z_top, need, caps in ((0.45, 40, range(1, 40)),
                              (0.8, 134, (61, 100, 133))):
        z = np.array([0.0, z_top])
        ref, terms = _one_term_loop(a, b, c, z)
        assert terms == need
        row = (np.array([a]), np.array([b]), np.array([c]), z)
        for cap in caps:
            monkeypatch.setattr(special_functions, "SERIES_MAX_TERMS", cap)
            with pytest.raises(ConvergenceError,
                               match=rf"within {cap} terms \(A=0\.3, "
                                     rf"B=0\.7, C=1\.1, z up to {z_top}\)"):
                _series_rows(*row)
        monkeypatch.setattr(special_functions, "SERIES_MAX_TERMS", terms)
        assert np.array_equal(_series_rows(*row)[0], ref)


# _run_rows against the one-term sums of _series_rows on the connection
# series, in eps * sum_k |t_k w^k|.  Measured worst 2.0 (bold5, l = 5/2,
# a two-piece row at w up to 0.03); 0.86 when the runs were summed in
# float64.
RUN_TOL = 4


def _connection_series(A0, B, C0, N):
    """(A, B, C, cut) of a family's 1 - z connection series and its one
    cut: F(A, B; 1 - s; w) of the rows with p != 0, then F(C - A,
    C - B; 1 + s; w) of those with q != 0."""
    n = np.arange(N + 1.0)
    A, Bs, C = n + A0, np.full(N + 1, B), n + C0
    s, _, p, q = _kernel_factors(A, Bs, C)
    i, j = p != 0.0, q != 0.0
    return (np.concatenate([A[i], C[j] - A[j]]),
            np.concatenate([Bs[i], C[j] - Bs[j]]),
            np.concatenate([1.0 - s[i], 1.0 + s[j]]),
            special_functions._cut(p, q))


def test_connection_runs_match_one_term_sums():
    # every connection series of every hyper_levels family (two-piece),
    # and at integer l from 0 to 12 (single-piece), on the points above
    # its family's cut: the sum from its coefficient run is the one-term
    # sum of _series_rows within RUN_TOL eps sum_k |t_k w^k|, and no run
    # stops before that sum's last term
    z = np.union1d(np.linspace(0.0, 1.0, 201), SINGLE_PIECE_Z)
    cases = [(kind, sel, l) for kind, sel, ls in HYPER_LEVELS for l in ls]
    cases += [(kind, sel, float(l))
              for kind, sels in (("v1", ("bold5", "bold6")),
                                 ("v2", ("bar5", "bar7")))
              for sel in sels for l in range(13)]
    eps = np.finfo(float).eps
    cuts, checked = set(), 0
    for kind, sel, l in cases:
        *args, N = _two_sided_kernels(kind, sel, l)
        if N is None:
            continue
        A, B, C, cut = _connection_series(*args, N)
        w = 1.0 - z[z > cut]
        got = special_functions._run_rows(A, B, C, w)
        ref = _series_rows(A, B, C, w)
        runs = special_functions._runs(np.ones(A.size), A, B, C,
                                       float(w.max()))
        for r, run in enumerate(runs):
            k = np.arange(run.size)[:, None]
            t = run.astype(float)[:, None] * w ** k
            case = (sel, l, cut, A[r], B[r], C[r])
            assert (np.abs(got[r] - ref[r])
                    <= RUN_TOL * eps * np.abs(t).sum(axis=0)).all(), case
            assert run.size - 1 >= _one_term_loop(A[r], B[r], C[r],
                                                  w)[1], case
            checked += 1
        cuts.add(cut)
    assert cuts == {0.5, special_functions.Z_CONNECT} and checked > 300


def test_connection_rows_raise_at_the_term_cap(monkeypatch):
    # a single-piece row (bold5, l = 12, n = 0: F(-6, 8; 1/2; w) up to
    # w = 1/2, 7 terms) and a two-piece one (bar7, l = 11/2, n = 0: two
    # series of 11 terms up to w = 0.025).  Every cap below the need
    # raises, naming the first series still running, and the need
    # itself gives the row to the bit
    z = np.array([0.51, 0.75, 0.975, 0.99, 1.0])
    for kind, sel, l, cut, need, named in (
            ("v1", "bold5", 12.0, 0.5, 7, (-6.0, 8.0, 0.5)),
            ("v2", "bar7", 5.5, 0.97, 11, (-2.25, 4.25, 0.5))):
        A0, B, C0, _ = _two_sided_kernels(kind, sel, l)
        row = (np.array([A0]), np.array([B]), np.array([C0]))
        s, _, p, q = _kernel_factors(*row)
        w = 1.0 - z[z > cut]
        args = (*row, s, p, q, w)
        with monkeypatch.context() as m:
            ref = special_functions._connection_rows(*args)
            m.setattr(special_functions, "SERIES_MAX_TERMS", need)
            assert np.array_equal(special_functions._connection_rows(*args),
                                  ref)
            a, b, c = named
            for cap in range(1, need):
                m.setattr(special_functions, "SERIES_MAX_TERMS", cap)
                with pytest.raises(ConvergenceError,
                                   match=rf"within {cap} terms \(A={a}, "
                                         rf"B={b}, C={c}, z up to "
                                         rf"{w.max()}\)"):
                    special_functions._connection_rows(*args)


def test_gamma_matches_mpmath():
    # half-integers from -11.5 to 29.5 and negative non-integers;
    # measured worst relative error 7.6e-15
    mpmath = pytest.importorskip("mpmath")
    xs = [k + 0.5 for k in range(-12, 30)]
    xs += [-0.3, -1.7, -2.2, -3.9, -5.01, -7.6, -10.4]
    with mpmath.workdps(30):
        for x in xs:
            assert gamma_fn(x) == pytest.approx(float(mpmath.gamma(x)),
                                                rel=2e-14), x
