"""Finite spectra, finite-section levels of infinite series, and reality
structure."""

import math

import numpy as np
import pytest

from heunspec.exceptions import (ConsistencyError, ConvergenceError,
                                 DomainError, NoRootError)
from heunspec.heun_core import (
    ExpansionFamily,
    FamilyGroup,
    PotentialKind,
    PotentialSpec,
)
from heunspec import series_engine, spectrum
from heunspec.series_engine import (recurrence, solve_coeffs_infinite,
                                    truncation_order)
from heunspec.shooting import shooting_match_table
from heunspec.spectrum import (
    default_window,
    family_levels,
    finite_spectrum,
    infinite_energy,
    symmetry_partner,
    _cf_value,
    _polish,
    _section_levels,
    _sign_violations,
)
from heunspec.verify import RESIDUAL_TOL, ode_residual

from conftest import brentq_real_roots, characteristic_det, shooting_spectrum

RING5_V1_L2_E = [-9.316624790355399849115, -2.683375209644600150885]
RING7_V2_L3_E = [-17.28232998312526813906, -3.717670016874731860935]
CF_L3_E0 = 2.428437037356383979258
CF_L3_E1 = 11.03026053382834296563
CF_L3_POLE = 10.17275363848

K2_GRID = (0.25, 0.5, 0.75)


def fam(sel):
    return ExpansionFamily.from_selector(sel)


def vspec(l, k2=0.5):
    return PotentialSpec.from_k2(PotentialKind.V1, l, k2)


def wspec(l, k2=0.5):
    return PotentialSpec.from_k2(PotentialKind.V2, l, k2)


def test_reference_spectrum_first_well():
    res = finite_spectrum(vspec(2.0), fam("ring5"))
    assert res.arscott_ok is True
    assert truncation_order(vspec(2.0), fam("ring5")) + 1 == 2
    assert res.degenerate_pairs == []
    for got, ref in zip(res.energies, RING5_V1_L2_E):
        assert got == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("l,levels", [(6.0, 4), (-3.0, 3)])
def test_levels_come_from_one_coefficients_call(monkeypatch, l, levels):
    # a terminating family (finite_spectrum) and an infinite one build
    # the solutions of all their levels from one call
    calls = []
    coefficients = series_engine.coefficients
    monkeypatch.setattr(series_engine, "coefficients",
                        lambda *args, **kw: calls.append(args)
                        or coefficients(*args, **kw))
    res = family_levels(vspec(l), fam("ring5"), 3)
    assert len(res.solutions) == levels and len(calls) == 1


def test_reference_spectrum_second_well():
    res = finite_spectrum(wspec(3.0), fam("ring7"))
    for got, ref in zip(res.energies, RING7_V2_L3_E):
        assert got == pytest.approx(ref, rel=1e-12)


def test_one_term_closed_forms():
    for k2 in K2_GRID:
        # first well, l = -3/2: both second-kind families share the level
        for sel in ("bold5", "bold6"):
            res = finite_spectrum(vspec(-1.5, k2), fam(sel))
            assert len(res.energies) == 1
            assert res.energies[0] == pytest.approx(-0.5 - 1.75 * k2,
                                                    rel=1e-12)
        for sel in ("bar5", "bar7"):
            res = finite_spectrum(wspec(-1.5, k2), fam(sel))
            assert res.energies[0] == pytest.approx(-0.5 + 2.25 * k2,
                                                    rel=1e-12)
        # one-term power levels at l = 0
        res = finite_spectrum(vspec(0.0, k2), fam("ring5"))
        assert res.energies[0] == pytest.approx(2.0 * k2 - 2.0, rel=1e-12)
        res = finite_spectrum(wspec(0.0, k2), fam("ring5"))
        assert res.energies[0] == pytest.approx(-2.0, rel=1e-12)


def test_two_term_closed_form_pair():
    for k2 in K2_GRID:
        root = math.sqrt(1.0 + 7.0 * k2 + k2 * k2)
        expect = sorted([-2.5 - 0.75 * k2 - root, -2.5 - 0.75 * k2 + root])
        for sel in ("bold5", "bold6"):
            res = finite_spectrum(vspec(-0.5, k2), fam(sel))
            assert len(res.energies) == 2
            for got, ref in zip(res.energies, expect):
                assert got == pytest.approx(ref, rel=1e-12)


def test_complex_two_term_pair_second_well():
    # the l = -1/2 discriminant 1 - 9 k2 + 9 k2^2 is negative on the
    # reference moduli, so the level pair leaves the real axis
    for k2 in K2_GRID:
        disc = 1.0 - 9.0 * k2 + 9.0 * k2 * k2
        assert disc < 0.0
        spec = wspec(-0.5, k2)
        for sel in ("bar5", "bar7"):
            res = finite_spectrum(spec, fam(sel))
            assert truncation_order(spec, fam(sel)) + 1 == 2
            assert res.energies == []
            assert res.arscott_ok is False
            # the determinant vanishes at the analytic complex pair
            E = complex(-2.5 + 3.25 * k2, math.sqrt(-disc))
            for val in (characteristic_det(spec, fam(sel), E),
                        characteristic_det(spec, fam(sel), E.conjugate())):
                scale = abs(characteristic_det(spec, fam(sel), E + 1.0))
                assert abs(val) < 1e-10 * max(scale, 1.0)


def test_real_two_term_pair_small_modulus():
    # control case: at k2 = 0.1 the same discriminant is positive
    k2 = 0.1
    disc = 1.0 - 9.0 * k2 + 9.0 * k2 * k2
    assert disc > 0.0
    root = math.sqrt(disc)
    expect = sorted([-2.5 + 3.25 * k2 - root, -2.5 + 3.25 * k2 + root])
    res = finite_spectrum(wspec(-0.5, k2), fam("bar5"))
    assert len(res.energies) == 2
    for got, ref in zip(res.energies, expect):
        assert got == pytest.approx(ref, rel=1e-11)


def test_scan_roots_match_dense_eigensolver():
    # when the symmetrization route is unavailable the returned energies
    # must agree with a dense companion eigensolver built here directly
    # from the recurrence rows
    spec = wspec(1.5, 0.5)
    f = fam("bar5")
    N = truncation_order(spec, f)
    assert N == 3
    tri0 = recurrence(spec, f, 0.0)
    alpha, beta, gamma = tri0.rows(N)
    M = np.zeros((N + 1, N + 1))
    for n in range(N + 1):
        M[n, n] = beta[n]
        if n + 1 <= N:
            M[n, n + 1] = alpha[n]
        if n - 1 >= 0:
            M[n, n - 1] = gamma[n]
    lam = np.linalg.eigvals(M)
    dense_real = sorted(float(-x.real / tri0.beta_slope) for x in lam
                        if abs(x.imag) < 1e-9 * (1.0 + abs(x)))
    res = finite_spectrum(spec, f)
    assert res.arscott_ok is False
    assert len(res.energies) == len(dense_real) == 2
    for got, ref in zip(res.energies, dense_real):
        assert got == pytest.approx(ref, rel=1e-9)


def test_characteristic_det_signs():
    # the determinant changes sign across each reference eigenvalue
    spec = vspec(2.0)
    f = fam("ring5")
    for E in RING5_V1_L2_E:
        lo = characteristic_det(spec, f, E - 1e-4)
        hi = characteristic_det(spec, f, E + 1e-4)
        assert lo * hi < 0.0


def test_characteristic_det_keeps_sign_at_large_order():
    # unscaled, D_N overflows near N = 90; scaled by powers of two it
    # stays finite and changes sign across each level
    spec, f = vspec(-3.0), fam("ring5")
    E = np.array([[s.E - 1e-4, s.E + 1e-4]
                  for s in family_levels(spec, f, 3).solutions])
    vals = characteristic_det(spec, f, E, N=400)
    assert np.all(np.isfinite(vals))
    assert np.all(vals[:, 0] * vals[:, 1] < 0.0)


def mp_continuant(tri, N, mp):
    """D_N(E) of a section at the working precision of mp, from the same
    float64 coefficients as Recurrence.continuant."""
    alpha, beta, gamma = tri.rows(N)
    beta = [mp.mpf(b) for b in beta.tolist()]
    ag = [mp.mpf(a) * mp.mpf(g) for a, g in
          zip(alpha[:-1].tolist(), gamma[1:].tolist())]
    slope = mp.mpf(tri.beta_slope)

    def det(E):
        d_prev2, d_prev = mp.mpf(1), beta[0] + slope * E
        for n in range(1, N + 1):
            d_prev2, d_prev = (d_prev, (beta[n] + slope * E) * d_prev
                               - ag[n - 1] * d_prev2)
        return d_prev
    return det


@pytest.mark.parametrize("spec,f,N", [(vspec(11.5, 0.9), fam("bold6"), None),
                                      (vspec(-3.0), fam("ring5"), 400)])
def test_continuant_derivative_matches_mpmath(spec, f, N):
    # D'_N from the continuant's own loop against a 40-digit numerical
    # derivative; at N = 400 both values are rescaled, so compare D'/D
    mp = pytest.importorskip("mpmath")
    N = N or truncation_order(spec, f)
    tri = recurrence(spec, f, 0.0)
    E = np.array([-120.0, -47.3, -20.1, -3.3, 0.7, 15.0, -20.0 + 3.0j,
                  -5.0 - 0.5j])
    D, dD = tri.continuant(E, N)
    det = mp_continuant(tri, N, mp)
    with mp.workdps(40):
        for e, d, dd in zip(E.tolist(), D, dD):
            ref, ref_d = mp.diff(det, e), det(e)
            if N <= 100:
                assert abs(dd - complex(ref)) <= 1e-14 * abs(complex(ref))
            ratio = complex(ref / ref_d)
            assert abs(dd / d - ratio) <= 1e-14 * abs(ratio)


POLISH_GRID = [(kind, sel, l + 0.5, k2)
               for kind, sel in (("v1", "bold5"), ("v1", "bold6"),
                                 ("v2", "bar5"), ("v2", "bar7"))
               for l in range(-2, 21)
               for k2 in (0.2, 0.5, 0.75, 0.9, 0.95)]


def test_polish_matches_brentq_reference():
    # on every section of the grid: one that fails the sign condition is
    # polished by one batched Newton pass, checked against one scalar
    # brentq per level for the same count and the same roots up to
    # 2e-12 (1 + |E|), and past that a 40-digit root of the section's
    # determinant settles which is closer; one that meets it is solved
    # symmetrically, to N + 1 levels, each inside a sign change of the
    # continuant over E -+ 2e-12 (1 + |E|)
    mp = pytest.importorskip("mpmath")
    assert len(POLISH_GRID) == 460
    apart, symmetric = [], 0
    for kind, sel, l, k2 in POLISH_GRID:
        spec, f = PotentialSpec.from_k2(PotentialKind(kind), l, k2), fam(sel)
        N = truncation_order(spec, f)
        tri = recurrence(spec, f, 0.0)
        got, meets = _section_levels(tri, N)
        if meets:
            symmetric += 1
            E = np.array(got)
            assert E.size == N + 1, (kind, sel, l, k2)
            pad = 2e-12 * (1.0 + np.abs(E))
            lo, hi = (tri.continuant(E + side * pad, N)[0] for side in (-1, 1))
            assert np.all(np.sign(lo) * np.sign(hi) < 0), (kind, sel, l, k2)
            continue
        ref = brentq_real_roots(tri, N)
        assert len(got) == len(ref), (kind, sel, l, k2)
        apart += [(tri, N, a, b) for a, b in zip(got, ref)
                  if abs(a - b) > 2e-12 * (1.0 + abs(b))]
    assert symmetric == 135
    with mp.workdps(40):
        for tri, N, a, b in apart:
            det = mp_continuant(tri, N, mp)
            pad = 1e-9 * (1.0 + abs(a))
            lo, hi = mp.mpf(min(a, b) - pad), mp.mpf(max(a, b) + pad)
            assert det(lo) * det(hi) < 0
            root = mp.findroot(det, (lo, hi), solver="anderson", verify=False)
            assert lo < root < hi
            assert abs(root - a) < abs(root - b)


def test_polish_converges_from_a_detuned_candidate():
    # a candidate 1e-5 off its level, on either side, finds the level in
    # its bracket
    spec, f = vspec(5.5), fam("bold6")
    N = truncation_order(spec, f)
    tri = recurrence(spec, f, 0.0)
    roots = np.array(_section_levels(tri, N)[0])
    assert len(roots) == 8
    for shift in (1e-5, -1e-5):
        got = _polish(tri, N, roots + shift)
        assert np.all(np.abs(got - roots) <= 2e-12 * (1.0 + np.abs(roots)))


def test_polish_step_cap_raises(monkeypatch):
    spec, f = vspec(5.5), fam("bold6")
    N = truncation_order(spec, f)
    tri = recurrence(spec, f, 0.0)
    roots = np.array(_section_levels(tri, N)[0])
    monkeypatch.setattr(spectrum, "POLISH_MAX_STEPS", 1)
    with pytest.raises(ConvergenceError, match="still moving after 1 step"):
        _polish(tri, N, roots + 1e-5)


def sign_violations(spec, f):
    alpha, _, gamma = recurrence(spec, f, 0.0).rows(truncation_order(spec, f))
    return _sign_violations(alpha[:-1] * gamma[1:])


def test_arscott_flags():
    assert sign_violations(vspec(-0.5), fam("bold5")) == []
    viol = sign_violations(vspec(0.5), fam("bold5"))
    assert len(viol) >= 1
    assert sign_violations(vspec(0.5), fam("bold6")) == []
    assert sign_violations(vspec(1.5), fam("bold6")) != []
    assert sign_violations(wspec(0.5), fam("bar5")) != []


def test_arscott_true_count_and_gaps():
    # a true flag guarantees a full set of distinct real levels
    res = finite_spectrum(vspec(2.5), fam("bold6"))
    assert res.arscott_ok is True
    N = truncation_order(vspec(2.5), fam("bold6"))
    assert len(res.energies) == N + 1 == 5
    for a, b in zip(res.energies, res.energies[1:]):
        assert (b - a) / (1.0 + abs(a)) > 1e-8


def test_continued_fraction_reference_roots():
    spec = vspec(-3.0)
    f = fam("ring5")
    e0 = infinite_energy(spec, f, (2.0, 3.0))
    assert e0 == pytest.approx(CF_L3_E0, rel=1e-11)
    e1 = infinite_energy(spec, f, (10.5, 11.5))
    assert e1 == pytest.approx(CF_L3_E1, rel=1e-11)


def test_continued_fraction_auto_window():
    # with no bracket the lowest level in the default window
    e = infinite_energy(vspec(-3.0), fam("ring5"))
    assert e == pytest.approx(CF_L3_E0, rel=1e-10)


def test_continued_fraction_rejects_pole():
    # the continued fraction flips sign at a pole near 10.1728, which
    # is no level: the bracket around it holds none
    with pytest.raises(NoRootError):
        infinite_energy(vspec(-3.0), fam("ring5"),
                        (CF_L3_POLE - 0.05, CF_L3_POLE + 0.05))


def test_minimal_solution_row_test_rejects_detuned_level():
    # the two-sided recursion closes its join row at the level and not
    # at the level detuned by 1e-6 relative
    solve_coeffs_infinite(vspec(-3.0), fam("ring5"), [CF_L3_E0], n_max=200)
    for sign in (1.0, -1.0):
        with pytest.raises(ConsistencyError, match="join residual"):
            solve_coeffs_infinite(vspec(-3.0), fam("ring5"),
                                  [CF_L3_E0 * (1.0 + sign * 1e-6)], n_max=200)


def test_continued_fraction_array_matches_scalar_calls():
    # one pass over an array of energies gives bit for bit the values of
    # one call per energy
    for spec in (vspec(-3.0), wspec(-1.3, 0.3)):
        grid = np.linspace(*default_window(spec), 400)[::16]
        vals = _cf_value(spec, fam("ring5"), grid, 2000)
        one_by_one = [_cf_value(spec, fam("ring5"), float(E), 2000)
                      for E in grid]
        assert np.array_equal(vals, one_by_one)


def test_continued_fraction_no_sign_change():
    with pytest.raises(NoRootError):
        infinite_energy(vspec(-3.0), fam("ring5"), (3.0, 4.0))


def test_continued_fraction_rejects_terminating_family():
    with pytest.raises(Exception):
        infinite_energy(vspec(2.0), fam("ring5"), (-10.0, -9.0))


def _oracle_even(spec):
    # the shooting oracle integrates the ODE and never calls series code
    return shooting_spectrum(spec, "even").energies


@pytest.mark.parametrize("spec, count", [
    (vspec(-3.0), 8),          # eight levels up to 183.29
    (vspec(0.5), 6),           # dense section: the sign condition fails
    (wspec(-3.0, 0.95), 8),    # k2 near 1: N0 = 1347
])
def test_infinite_levels_match_shooting_oracle(spec, count):
    levels = [s.E for s in family_levels(spec, fam("ring5"), 8).solutions]
    oracle = _oracle_even(spec)
    assert len(levels) == count
    assert levels == pytest.approx(oracle[:count], abs=1e-8)


def test_infinite_levels_upper_solutions_solve_the_ode():
    # dense section (the sign condition fails at l = 2.3); the upper
    # levels' solutions once missed the residual bound (level 6: 8e-7)
    spec = vspec(2.3, 0.9)
    sols = family_levels(spec, fam("ring5"), 8).solutions
    assert len(sols) == 8
    assert sols[-1].E == pytest.approx(84.8664, abs=1e-4)
    assert ode_residual(sols[6:7])[0] < RESIDUAL_TOL
    levels = [s.E for s in sols]
    assert shooting_match_table(spec, "even", levels) == pytest.approx(
        levels, abs=1e-8)


def test_infinite_levels_near_k2_one():
    # N0 = 69,046: the bisection solve of a very large section; the
    # oracle gives 0.164016 and 1.323637
    spec = vspec(-3.0, 0.999)
    levels = [s.E for s in family_levels(spec, fam("ring5"), 2).solutions]
    oracle = shooting_spectrum(spec, "even", window=(0.0, 2.0)).energies
    assert len(oracle) == 2
    assert levels == pytest.approx(oracle, abs=1e-8)


@pytest.mark.parametrize("spec", [vspec(-1.0, 0.75), vspec(0.5)])
def test_section_levels_settle_from_start_order(spec):
    # symmetric (bisection to full precision) and dense (polished) paths
    tri = recurrence(spec, fam("ring5"), 0.0)
    N0 = math.ceil(30.0 / -math.log10(spec.k.k2))
    window = default_window(spec)
    a, _ = _section_levels(tri, N0, window, 4)
    b, _ = _section_levels(tri, 4 * N0, window, 4)
    assert len(a) == len(b) == 4
    for x, y in zip(a, b):
        assert abs(x - y) <= 1e-12 * max(1.0, abs(y))


def test_infinite_levels_past_cap_raise():
    # a dense section needs N = 2 * 1347 at k2 = 0.95, past the cap; the
    # error names the family and the order, then the section's own cap
    with pytest.raises(ConvergenceError, match=(
            r"^levels of family ring5 not settled at order N = 1347 "
            r"\(last relative shift inf\): section of order N = 2694 fails")):
        family_levels(vspec(0.5, 0.95), fam("ring5"), 4).solutions
    # the start order N = 6.9e10 at k2 = 1 - 1e-9 is past the section
    # cap itself, which is checked before an array of length 2N is built
    with pytest.raises(ConvergenceError, match="passes cap 1048576"):
        family_levels(vspec(-3.0, 0.999999999), fam("ring5"), 1).solutions


def test_polish_failure_in_the_doubling_names_its_family(monkeypatch):
    # the order-100 section of ring5 here is dense; its polish error is
    # raised again with the family and the order
    monkeypatch.setattr(spectrum, "POLISH_MAX_STEPS", 1)
    with pytest.raises(ConvergenceError) as err:
        family_levels(vspec(0.5), fam("ring5"), 4)
    message = str(err.value)
    assert message.startswith(
        "levels of family ring5 not settled at order N = 100")
    assert "still moving after 1 step" in message


def test_degenerate_pairs_match_all_pairs(monkeypatch):
    # the scan over ascending energies finds the pairs, in the order, of
    # the test of every pair
    levels = [0.0, 0.0, 1e-10, 1.0, 2.0, 2.0 + 1e-12]
    monkeypatch.setattr(spectrum, "_section_levels",
                        lambda tri, N: (levels, True))
    monkeypatch.setattr(spectrum, "solve_coeffs_finite",
                        lambda spec, f, E: np.zeros((E.size, 1)))
    res = finite_spectrum(vspec(2.0), fam("ring5"))
    assert res.degenerate_pairs == [
        (i, j) for i in range(len(levels)) for j in range(i + 1, len(levels))
        if abs(levels[i] - levels[j]) <= 1.0e-9 * (1.0 + abs(levels[i]))]
    assert res.degenerate_pairs == [(0, 1), (0, 2), (1, 2), (4, 5)]


def test_finite_dense_section_past_cap_raises(monkeypatch):
    # the dense solver's cap covers a finite section too, and stops it
    # before any eigen-solve; a symmetric section of the same order is
    # not dense and passes
    def no_eigvals(M):
        raise AssertionError(f"eigvals called on a {M.shape} matrix")

    monkeypatch.setattr(np.linalg, "eigvals", no_eigvals)
    monkeypatch.setattr(spectrum, "DENSE_MAX_ORDER", 2)
    with pytest.raises(ConvergenceError, match=r"N = 3 .*passes cap 2$"):
        finite_spectrum(wspec(1.5, 0.5), fam("bar5"))
    res = finite_spectrum(vspec(6.0), fam("ring5"))
    assert res.arscott_ok is True and len(res.energies) == 4


def _eigh_tridiagonal(d, e, index, window):
    """The reference for spectrum._tridiagonal_eigvals: scipy's
    eigh_tridiagonal, with the same selection."""
    from scipy.linalg import eigh_tridiagonal
    if index is not None:
        return eigh_tridiagonal(d, e, eigvals_only=True, select="i",
                                select_range=index, tol=spectrum._BISECT_TOL)
    if window is not None:
        return eigh_tridiagonal(d, e, eigvals_only=True, select="v",
                                select_range=window, tol=spectrum._BISECT_TOL)
    return eigh_tridiagonal(d, e, eigvals_only=True)


def test_tridiagonal_eigvals_match_scipy_bit_for_bit(rng):
    # every selection kind, the 1x1 quick exit with its value inside and
    # outside (vl, vu], and a window that holds no level
    d, e = rng.normal(size=9), rng.uniform(0.1, 1.0, 8)
    one, none = np.array([0.3]), np.empty(0)
    cases = [(d, e, None, None), (d, e, (0, 0), None), (d, e, (2, 5), None),
             (d, e, (8, 8), None), (d, e, None, (-0.5, 0.5)),
             (d, e, None, (100.0, 101.0)),
             (one, none, None, None), (one, none, (0, 0), None),
             (one, none, None, (-1.0, 0.3)), (one, none, None, (0.3, 1.0)),
             (one, none, None, (1.0, 2.0))]
    sizes = []
    for d, e, index, window in cases:
        got = spectrum._tridiagonal_eigvals(d, e, index, window)
        assert np.array_equal(got, _eigh_tridiagonal(d, e, index, window))
        sizes.append(got.size)
    assert sizes == [9, 1, 4, 1, sizes[4], 0, 1, 1, 1, 0, 0]
    assert 0 < sizes[4] < 9


def test_section_solves_of_the_workloads_match_scipy_bit_for_bit(
        monkeypatch):
    # the calls _section_levels makes on real sections: a count and a
    # window of cf_lowest's ring5, and the full spectra of the sections
    # of hyper_levels and oracle_verify that meet the sign condition
    # (hyper_levels' only such sections are of order 0 and 1)
    calls = []
    solve = spectrum._tridiagonal_eigvals

    def record(d, e, index, window):
        calls.append((d, e, index, window, solve(d, e, index, window)))
        return calls[-1][-1]

    monkeypatch.setattr(spectrum, "_tridiagonal_eigvals", record)
    family_levels(vspec(-1.0, 0.35), fam("ring5"), 1)
    family_levels(wspec(-1.3, 0.6), fam("ring5"), 1)
    infinite_energy(vspec(-4.0, 0.35), fam("ring5"), (-30.0, 30.0))
    sections = [(vspec(-1.5, 0.45), "bold5"), (vspec(-0.5, 0.45), "bold6"),
                (wspec(-1.5, 0.45), "bar5")]
    sections += [(vspec(6.0, 0.45), sel)
                 for sel in ("ring5", "ring6", "bold5", "bold6")]
    sections += [(wspec(5.0, 0.45), sel)
                 for sel in ("ring5", "ring7", "bar5", "bar7")]
    for spec, sel in sections:
        finite_spectrum(spec, fam(sel))
    kinds = [("a" if index is None and window is None
              else "i" if index is not None else "v")
             for _, _, index, window, _ in calls]
    assert {"a", "i", "v"} <= set(kinds)
    assert {1, 2, 3, 4, 133} <= {d.size for d, *_ in calls}
    for d, e, index, window, got in calls:
        assert got.size > 0
        assert np.array_equal(got, _eigh_tridiagonal(d, e, index, window))


def test_flapack_by_file_or_by_the_package_import(monkeypatch):
    # the extension is loaded from scipy's own file; where that file is
    # not found, the same module comes from the normal import
    import importlib.machinery
    from scipy.linalg import _flapack
    assert spectrum._flapack.__file__ == _flapack.__file__
    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                        classmethod(lambda cls, name, path=None, target=None:
                                    None))
    assert spectrum._load_flapack() is _flapack


def test_lapack_failure_raises_convergence_error(monkeypatch):
    # a nonzero LAPACK info, from either routine, is a ConvergenceError
    # that names the routine and the info
    class StubLapack:
        def dstevd(self, d, e, compute_v):
            return d, None, 3

        def dstebz(self, d, e, *args):
            return 0, d, None, None, -4

    monkeypatch.setattr(spectrum, "_flapack", StubLapack())
    with pytest.raises(ConvergenceError,
                       match=r"^LAPACK dstevd failed on a section of order "
                             r"N = 3: info = 3$"):
        finite_spectrum(vspec(6.0), fam("ring5"))
    with pytest.raises(ConvergenceError,
                       match=r"LAPACK dstebz failed on a section of order "
                             r"N = \d+: info = -4$"):
        family_levels(vspec(-1.0), fam("ring5"), 1)


def test_two_sided_non_terminating_rejected():
    for spec, sel in ((vspec(-0.3), "bold5"), (wspec(0.7, 0.3), "bar5")):
        with pytest.raises(DomainError, match="two-sided"):
            family_levels(spec, fam(sel), 4).solutions


@pytest.mark.parametrize("spec, sel", [
    (vspec(2.0), "ring5"),       # symmetric section
    (wspec(2.5), "bar5"),        # a complex pair: the sign condition fails
    (vspec(-0.5, 0.75), "bold5"),
])
def test_family_levels_of_a_terminating_family_are_its_finite_spectrum(
        spec, sel):
    # count and window do not apply to a terminating family
    got = family_levels(spec, fam(sel), 1, (100.0, 200.0))
    ref = finite_spectrum(spec, fam(sel))
    assert got.energies == ref.energies
    assert len(got.solutions) == len(ref.solutions) > 0
    for a, b in zip(got.solutions, ref.solutions):
        assert a.coeffs.tobytes() == b.coeffs.tobytes()
    assert got.order == ref.order == truncation_order(spec, fam(sel))
    assert got.arscott_ok is ref.arscott_ok
    assert got.degenerate_pairs == ref.degenerate_pairs


def test_family_levels_of_a_non_terminating_family():
    res = family_levels(vspec(-3.0), fam("ring5"), 2)
    assert len(res.solutions) == 2
    assert res.energies == [sol.E for sol in res.solutions]
    assert res.order is None and res.arscott_ok is None
    assert res.degenerate_pairs == []
    none = family_levels(vspec(-3.0), fam("ring5"), 0)
    assert none.solutions == [] and none.energies == []
    assert none.order is None and none.arscott_ok is None


def test_family_levels_reject_a_negative_count():
    for l in (2.0, -3.0):  # a terminating family, then a non-terminating one
        with pytest.raises(DomainError,
                           match="--max-energies must be nonnegative, got -1"):
            family_levels(vspec(l), fam("ring5"), -1)


def test_default_window_contains_reference_levels():
    lo, hi = default_window(vspec(2.0))
    assert lo < RING5_V1_L2_E[0] and hi > RING5_V1_L2_E[1]


def test_symmetry_partner():
    s = symmetry_partner(vspec(2.0, 0.75))
    assert s.l == -7.0
    assert s.kind is PotentialKind.V1
    assert s.k.k2 == 0.75
    assert symmetry_partner(s).l == 2.0


def test_partner_spectra_agree():
    a = finite_spectrum(vspec(2.0), fam("ring5"))
    b = finite_spectrum(vspec(-7.0), fam("ring1"))
    assert a.energies == pytest.approx(b.energies, rel=1e-12)
