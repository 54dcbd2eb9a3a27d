"""Elliptic integral, Jacobi function, gamma, and 2F1 checks.

Reference values were computed with mpmath at 25 significant digits and
are pasted here as literals.  The tests named *_matches_mpmath import
mpmath and are skipped where it is not installed.
"""

import math

import numpy as np
import pytest

from heunspec.exceptions import (
    ConvergenceError,
    DomainError,
    PoleError,
    UndefinedError,
)
from heunspec.special_functions import (
    _tilde_f_rows,
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


# kernel arguments z on both sides of the cut at 0.97 and at 1 itself
MPMATH_Z = (0.0, 0.3, 0.6, 0.9, 0.95, 0.969, 0.97, 0.9701, 0.975, 0.99,
            0.999, 0.99999, 1.0)
# measured at 40 digits: worst pointwise relative error 2.4e-14 for
# tilde_F and 4.4e-13 for _tilde_f_rows (bold5 at l = 11/2, z = 0.97,
# where A = n - 11/4 makes the direct series cancel)
SCALAR_KERNEL_TOL = 1.0e-13
ROWS_KERNEL_TOL = 2.0e-12


def test_regularized_kernels_match_mpmath():
    # the 2F1-tilde kernels of every in-scope two-sided family at
    # l = 3/2, 7/2, 11/2, for every index n <= N
    mpmath = pytest.importorskip("mpmath")
    from heunspec.heun_core import (ExpansionFamily, PotentialKind,
                                    PotentialSpec)
    from heunspec.series_engine import hyper_eval_args, truncation_order
    cases = [(kind, sel, l) for kind, sels in (("v1", ("bold5", "bold6")),
                                               ("v2", ("bar5", "bar7")))
             for sel in sels for l in (1.5, 3.5, 5.5)]
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
                        ref, rel=SCALAR_KERNEL_TOL), case
                    assert got == pytest.approx(ref, rel=ROWS_KERNEL_TOL), case


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
