"""Recurrence triples, truncation, two-sided recursion, and evaluation."""

import math

import numpy as np
import pytest

from heunspec.exceptions import ArgumentError, ConsistencyError, ConvergenceError
from heunspec.heun_core import (
    FAMILY_PARTNERS,
    ExpansionFamily,
    FamilyGroup,
    PotentialKind,
    PotentialSpec,
    family_prefactor,
    transformed_params,
)
from heunspec.series_engine import (
    FINITE_TOL,
    SeriesSolution,
    _pass,
    _power_sum,
    _tail_check,
    coefficients,
    evaluate_grid,
    hyper_eval_args,
    recurrence,
    solve_coeffs_finite,
    solve_coeffs_infinite,
    truncation_order,
)
from heunspec.special_functions import _tilde_f_rows, complete_K, jacobi
from heunspec.spectrum import (family_levels, finite_spectrum,
                               symmetry_partner)
from heunspec.verify import EQUIV_TOL

from conftest import (HYPER_LEVELS, evaluate, make_spec, relative_rows,
                      series_solution)

RING5_V1_L2_E = [-9.316624790355399849115, -2.683375209644600150885]
RING7_V2_L3_E = [-17.28232998312526813906, -3.717670016874731860935]

# V1 l=-3, k2=0.5, even power family: lowest continued-fraction level
# and its backward-recursion coefficients (25-digit reference run)
CF_L3_E0 = 2.428437037356383979258
CF_L3_COEFFS = {
    1: 0.53578148132180801037,
    2: 0.26221894105030916481,
    3: 0.12606317639065413624,
    5: 0.028954883049760691012,
    10: 0.0007563582518706335586,
}


def fam(sel):
    return ExpansionFamily.from_selector(sel)


def vspec(l, k2=0.5):
    return PotentialSpec.from_k2(PotentialKind.V1, l, k2)


def wspec(l, k2=0.5):
    return PotentialSpec.from_k2(PotentialKind.V2, l, k2)


def rows_match(tri, ref_rows, n_max=7):
    """Row-proportional comparison of two recurrence conventions.

    Each row of a three-term recursion may carry an arbitrary nonzero
    scale, so only the ratios beta_n/alpha_n and gamma_n/alpha_n are
    meaningful.
    """
    alpha, beta, gamma = tri.rows(n_max - 1)
    for n in range(n_max):
        ra, rb, rg = ref_rows(n)
        ea, eb, eg = alpha[n], beta[n], gamma[n]
        assert eb * ra == pytest.approx(rb * ea, rel=1e-12, abs=1e-12)
        assert eg * ra == pytest.approx(rg * ea, rel=1e-12, abs=1e-12)


def test_even_v1_family_low_rows():
    # first rows of the even first-well family at l = 2, k2 = 1/2
    spec = vspec(2.0)
    alpha, _, gamma = recurrence(spec, fam("ring5"), RING5_V1_L2_E[0]).rows(2)
    assert alpha[0] == pytest.approx(1.0, rel=1e-14)
    assert gamma[1] == pytest.approx(0.5, rel=1e-14)
    assert gamma[2] == pytest.approx(0.0, abs=1e-14)


def test_bold_rows_match_reference_forms():
    # independent transcription of the two second-kind family triples
    k2, l, E = 0.5, -0.5, -1.234
    spec = vspec(l, k2)

    def rows5(n):
        a = (1.0 - 1.0 / k2) * (n + 1.0)
        b = ((1.0 / k2 - 2.0) * n * n
             + (2.0 + 2.0 * l - (l + 2.0) / k2) * n
             - (E + l + 2.0) / (4.0 * k2) + (2.0 + l - l * l) / 4.0)
        g = ((n - (l + 1.0) / 2.0) * (n - (l + 2.0) / 2.0)
             * (n - l - 2.5))
        return a, b, g

    def rows6(n):
        a = (1.0 - 1.0 / k2) * (n + 1.0)
        b = ((1.0 / k2 - 2.0) * n * n
             + (1.0 + 2.0 * l - (l + 1.0) / k2) * n
             - (E + 3.0 * l + 5.0) / (4.0 * k2)
             + (5.0 + 3.0 * l - l * l) / 4.0)
        g = (n - l / 2.0) * (n - (l + 1.0) / 2.0) * (n - l - 2.5)
        return a, b, g

    rows_match(recurrence(spec, fam("bold5"), E), rows5)
    rows_match(recurrence(spec, fam("bold6"), E), rows6)


def test_power_first_family_leading_coefficient():
    # alpha_n of the index-1 family is a (n + gamma)(n + 1)
    alpha1 = recurrence(vspec(0.7, 0.5), fam("ring1"), 0.0).rows(4)[0]
    alpha2 = recurrence(wspec(0.7, 0.5), fam("ring1"), 0.0).rows(4)[0]
    for n in range(5):
        assert alpha1[n] == pytest.approx(
            2.0 * (n + 0.5) * (n + 1.0), rel=1e-14)
        assert alpha2[n] == pytest.approx(
            2.0 * (n + 2.5) * (n + 1.0), rel=1e-14)


def test_energy_slope_of_diagonal():
    # the energy enters the diagonal linearly with slope +-1/(4 k2)
    for spec, sel, sign in ((vspec(1.0), "ring5", 1.0),
                            (wspec(1.0), "bar5", 1.0),
                            (vspec(1.0), "bold5", -1.0),
                            (vspec(1.0), "bold6", -1.0)):
        tri = recurrence(spec, fam(sel), 0.0)
        tri_up = recurrence(spec, fam(sel), 1.0)
        measured = tri_up.rows(0)[1][0] - tri.rows(0)[1][0]
        assert measured == pytest.approx(sign / (4.0 * 0.5), rel=1e-13)
        assert tri.beta_slope == pytest.approx(sign / (4.0 * 0.5),
                                               rel=1e-14)


def test_partner_families_share_rows():
    # family index pairs related by l -> -l - 5 produce identical rows
    pairs = [(vspec(2.0), "ring5", vspec(-7.0), "ring1"),
             (vspec(2.0), "ring6", vspec(-7.0), "ring2"),
             (wspec(1.0), "ring7", wspec(-6.0), "ring3"),
             (vspec(-0.5), "bold5", vspec(-4.5), "bold2"),
             (wspec(-0.5), "bar5", wspec(-4.5), "bar3")]
    for sa, fa, sb, fb in pairs:
        a_a, b_a, g_a = recurrence(sa, fam(fa), -1.7).rows(5)
        a_b, b_b, g_b = recurrence(sb, fam(fb), -1.7).rows(5)
        for n in range(6):
            assert a_a[n] == pytest.approx(a_b[n], rel=1e-12)
            assert b_a[n] == pytest.approx(b_b[n], rel=1e-12, abs=1e-12)
            assert g_a[n] == pytest.approx(g_b[n], rel=1e-12, abs=1e-12)


def test_truncation_table_integer_l():
    expect_v1 = {
        "ring5": [0, 0, 1, 1, 2, 2],
        "ring6": [None, 0, 0, 1, 1, 2],
        "bold5": [0, 0, 1, 1, 2, 2],
        "bold6": [None, 0, 0, 1, 1, 2],
    }
    for sel, col in expect_v1.items():
        for l, N in enumerate(col):
            assert truncation_order(vspec(float(l)), fam(sel)) == N, (sel, l)
    expect_v2 = {
        "ring5": [0, 0, 1, 1, 2, 2],
        "ring7": [None, 0, 0, 1, 1, 2],
        "bar5": [0, 0, 1, 1, 2, 2],
        "bar7": [None, 0, 0, 1, 1, 2],
    }
    for sel, col in expect_v2.items():
        for l, N in enumerate(col):
            assert truncation_order(wspec(float(l)), fam(sel)) == N, (sel, l)


def test_truncation_table_half_odd_l():
    for sel, maker in (("bold5", vspec), ("bold6", vspec),
                       ("bar5", wspec), ("bar7", wspec)):
        for i, twol in enumerate((-3, -1, 1, 3, 5)):
            assert truncation_order(maker(twol / 2.0), fam(sel)) == i


def test_truncation_negative_l_first_families():
    assert truncation_order(vspec(-6.0), fam("ring1")) == 0
    assert truncation_order(vspec(-7.0), fam("ring1")) == 1
    assert truncation_order(vspec(-3.0), fam("ring5")) is None
    assert truncation_order(vspec(0.3), fam("ring5")) is None
    assert truncation_order(vspec(0.3), fam("bold5")) is None


def test_finite_coefficients_at_eigenvalue():
    spec = vspec(2.0)
    [b] = solve_coeffs_finite(spec, fam("ring5"), [RING5_V1_L2_E[0]])
    assert b.shape == (2,)
    assert b[0] == 1.0
    alpha, beta, _ = recurrence(spec, fam("ring5"), RING5_V1_L2_E[0]).rows(0)
    assert b[1] == pytest.approx(-beta[0] / alpha[0], rel=1e-14)


def test_finite_coefficients_reject_detuned_energy():
    with pytest.raises(ConsistencyError):
        solve_coeffs_finite(vspec(2.0), fam("ring5"), [RING5_V1_L2_E[0] + 0.01])


@pytest.mark.parametrize("kind,sel,l,levels", [
    ("v1", "bold5", 4.5, slice(None)),   # terminating
    ("v2", "bar7", 4.0, slice(None)),    # terminating, integer l
    ("v1", "ring5", -3.0, slice(None)),  # infinite: the settled order
    # levels 388 on pass 1e250 in the forward pass and all of them in
    # the backward one, and both shift them down by powers of two
    ("v1", "ring5", 800.0, slice(386, None)),
])
def test_coefficients_of_an_array_match_one_call_per_energy(
        monkeypatch, kind, sel, l, levels):
    # one recurrence, from one Heun-map call, serves every energy, and
    # each row of coefficients and each join residual is, bit for bit,
    # the one of its energy in a one-element batch
    spec = make_spec(kind, l, 0.5)
    sols = family_levels(spec, fam(sel), 4).solutions[levels]
    E = np.array([sol.E for sol in sols])
    n_max = len(sols[0].coeffs) - 1
    shifted, mapped, per_recurrence = [], [], []

    def shifting_pass(*args):
        ys, shift = _pass(*args)
        shifted.append(shift[-1] > 0)
        return ys, shift

    def counting_map(*args):
        mapped.append(args)
        return transformed_params(*args)

    def counting_recurrence(*args):
        before = len(mapped)
        tri = recurrence(*args)
        per_recurrence.append(len(mapped) - before)
        return tri

    monkeypatch.setattr("heunspec.series_engine._pass", shifting_pass)
    monkeypatch.setattr("heunspec.series_engine.transformed_params",
                        counting_map)
    monkeypatch.setattr("heunspec.series_engine.recurrence",
                        counting_recurrence)
    b, residuals = coefficients(spec, fam(sel), E, n_max)
    assert b.shape == (E.size, n_max + 1) and residuals.shape == E.shape
    # each energy runs its backward pass, then its forward one
    assert len(shifted) == 2 * E.size
    assert any(shifted[0::2]) == any(shifted[1::2]) == (l == 800.0)
    assert per_recurrence == [1]
    for sol, row, residual in zip(sols, b, residuals):
        [alone], [res_alone] = coefficients(spec, fam(sel), [sol.E], n_max)
        assert np.array_equal(row, alone) and np.array_equal(row, sol.coeffs)
        assert residual == res_alone
    assert per_recurrence == [1] * (1 + len(sols))


def test_rescaled_backward_pass_matches_an_exact_two_sided_recursion(
        monkeypatch):
    # at v1 ring5, l = 800, k2 = 0.5, the backward pass passes 1e250 on
    # about a quarter of the levels (levels 0..78 and 380..400).  There
    # each b_n of coefficients is a 40-digit two-sided recursion of the
    # same float rows, joined at its smallest join row, to within
    # (N + 1) eps of the largest of b_{n-1}, b_n and b_{n+1} (measured
    # worst 0.50 (N + 1) eps; elementwise, near a sign change of b_n,
    # 425 (N + 1) eps)
    mpmath = pytest.importorskip("mpmath")
    spec = make_spec("v1", 800.0, 0.5)
    E = np.array([sol.E for sol in family_levels(spec, fam("ring5"),
                                                 4).solutions])
    shifted = []

    def shifting_pass(*args):
        ys, shift = _pass(*args)
        shifted.append(shift[-1] > 0)
        return ys, shift
    monkeypatch.setattr("heunspec.series_engine._pass", shifting_pass)
    b, _ = coefficients(spec, fam("ring5"), E)
    rescaled = np.flatnonzero(shifted[0::2])
    assert len(rescaled) == 100
    N = b.shape[1] - 1
    alpha, beta, gamma = recurrence(spec, fam("ring5"), E[rescaled]).rows(N)
    worst = 0.0
    with mpmath.workdps(40):
        al, ga = ([mpmath.mpf(x) for x in row.tolist()]
                  for row in (alpha, gamma))
        for j, be in zip(rescaled, beta.T.tolist()):
            be = [mpmath.mpf(x) for x in be]
            fwd = [mpmath.mpf(0), mpmath.mpf(1)]  # b_{-1}, b_0, ..., b_N
            for n in range(N):
                fwd.append(-(be[n] * fwd[-1] + ga[n] * fwd[-2]) / al[n])
            back = [mpmath.mpf(0), mpmath.mpf(1)]  # b_{N+1}, b_N, ..., b_0
            for n in range(N, 0, -1):
                back.append(-(be[n] * back[-1] + al[n] * back[-2]) / ga[n])
            fwd, back = fwd[1:], back[::-1]
            m = min(range(N + 1), key=lambda n: abs(
                al[n] * back[n + 1] / back[n] + be[n]
                + (ga[n] * fwd[n - 1] / fwd[n] if n else 0)))
            ref = fwd[:m] + [x / back[m] * fwd[m] for x in back[m:N + 1]]
            for n, (x, y) in enumerate(zip(b[j].tolist(), ref)):
                near = max(abs(z) for z in ref[max(n - 1, 0):n + 2])
                worst = max(worst, float(abs(x - y) / near))
    assert worst <= (N + 1) * np.finfo(float).eps


def test_first_failing_energy_raises():
    # the energies are checked in the order given: the first one off its
    # level raises, with the message a call at that energy alone gives
    spec = vspec(6.0)
    E = np.array(finite_spectrum(spec, fam("ring5")).energies)
    E += [0.0, 0.0, 1e-3, 1e-2]
    alone = []
    for e in E[2:]:
        with pytest.raises(ConsistencyError) as err:
            solve_coeffs_finite(spec, fam("ring5"), [e])
        alone.append(str(err.value))
    with pytest.raises(ConsistencyError) as err:
        solve_coeffs_finite(spec, fam("ring5"), E)
    assert str(err.value) == alone[0] != alone[1]


@pytest.mark.parametrize("kind,sel,l", [
    ("v1", "ring5", 4.0), ("v1", "ring5", -3.0),
    ("v1", "bold5", 4.5), ("v2", "bar7", 5.5), ("v2", "bar5", 4.0),
])
def test_evaluate_grid_of_a_family_matches_one_call_per_level(
        monkeypatch, kind, sel, l):
    # one jacobi call serves every level, and for a power family one
    # truncation_order call decides whether it terminates; each row is,
    # bit for bit, the values of its level in a one-element batch; z
    # spans both kernel cuts
    spec = make_spec(kind, l, 0.5)
    sols = family_levels(spec, fam(sel), 4).solutions
    K = complete_K(0.5)
    us = np.linspace(0.001 * K, 0.999 * K, 64)
    calls, orders = [], []

    def counting(u, k2):
        calls.append(u)
        return jacobi(u, k2)

    def counting_order(*args):
        orders.append(args)
        return truncation_order(*args)

    monkeypatch.setattr("heunspec.series_engine.jacobi", counting)
    monkeypatch.setattr("heunspec.series_engine.truncation_order",
                        counting_order)
    vals = evaluate_grid(sols, us)
    assert len(calls) == 1 and vals.shape == (len(sols), us.size)
    power = fam(sel).group is FamilyGroup.POWER
    assert len(orders) == power
    for sol, row in zip(sols, vals):
        assert np.array_equal(row, evaluate_grid([sol], us)[0])
    assert len(orders) == power * (1 + len(sols))
    if power and truncation_order(spec, fam(sel)) is not None:
        # a terminating power family's rows are numpy's polyval, to the bit
        sn, cn, dn = jacobi(us, 0.5)
        pre = family_prefactor(spec, fam(sel)).at(sn, cn, dn)
        for sol, row in zip(sols, vals):
            assert np.array_equal(row, pre * np.polynomial.polynomial.polyval(
                sn * sn, sol.coeffs))


@pytest.mark.parametrize("kind,sel,l,k2", [
    ("v1", "bold5", 10.5, 0.5), ("v1", "bold6", 10.5, 0.5),
    ("v2", "bar5", 12.5, 0.5), ("v2", "bar7", 12.5, 0.5),
    ("v2", "bar5", 13.5, 0.5), ("v2", "bar7", 13.5, 0.5),
    ("v1", "bold5", 6.5, 0.8), ("v1", "bold5", 7.5, 0.75),
    ("v1", "bold6", 7.5, 0.7), ("v1", "bold5", 20.0, 0.5),
])
def test_two_sided_coefficients_at_large_l(kind, sel, l, k2):
    # a recurrence run forward from b_0 misses the termination row here,
    # and one run backward from b_N leaves row 0 open
    spec = make_spec(kind, l, k2)
    res = finite_spectrum(spec, fam(sel))
    assert res.energies
    for sol in res.solutions:
        [b], [residual] = coefficients(spec, fam(sel), [sol.E])
        assert np.array_equal(b, sol.coeffs)
        assert residual <= FINITE_TOL
        assert np.max(relative_rows(spec, fam(sel), sol.E, b)) <= 1e-12
    group = fam(sel).group
    partner_fam = ExpansionFamily(
        group, FAMILY_PARTNERS[spec.kind][group][fam(sel).index])
    partner = finite_spectrum(symmetry_partner(spec), partner_fam)
    assert len(partner.energies) == len(res.energies)
    assert np.max(np.abs(np.subtract(partner.energies, res.energies))) \
        <= EQUIV_TOL


def test_backward_recursion_reference_coefficients():
    spec = vspec(-3.0)
    [b] = solve_coeffs_infinite(spec, fam("ring5"), [CF_L3_E0], n_max=60)
    assert b[0] == 1.0
    for n, ref in CF_L3_COEFFS.items():
        assert b[n] == pytest.approx(ref, rel=1e-11)


def test_backward_recursion_depth_stability():
    spec = vspec(-3.0)
    [b60] = solve_coeffs_infinite(spec, fam("ring5"), [CF_L3_E0], n_max=60)
    [b120] = solve_coeffs_infinite(spec, fam("ring5"), [CF_L3_E0], n_max=120)
    assert b60[50] == pytest.approx(b120[50], rel=1e-12)


def test_backward_recursion_tail_ratio():
    spec = vspec(-3.0)
    [b] = solve_coeffs_infinite(spec, fam("ring5"), [CF_L3_E0], n_max=200)
    ratio = b[200] / b[199]
    eps = transformed_params(spec, fam("ring5"), 0.0)[0].epsilon
    # first-order large-n model of the recessive growth ratio
    model = 0.5 * (1.0 + (eps - 2.0) / 200.0)
    assert ratio == pytest.approx(model, abs=1e-3)


def test_backward_recursion_rejects_terminating_family():
    with pytest.raises(ArgumentError):
        solve_coeffs_infinite(vspec(2.0), fam("ring5"), [-9.3], n_max=500)


def test_infinite_family_needs_an_order(monkeypatch):
    # a non-terminating family given no n_max is refused before any
    # recursion; a terminating one ignores n_max
    def no_recurrence(*args):
        raise AssertionError("recurrence built")
    monkeypatch.setattr("heunspec.series_engine.recurrence", no_recurrence)
    with pytest.raises(ArgumentError, match="does not terminate"):
        coefficients(vspec(-3.0), fam("ring5"), [CF_L3_E0])
    monkeypatch.undo()
    [b], _ = coefficients(vspec(2.0), fam("ring5"), [RING5_V1_L2_E[0]])
    assert b.size == truncation_order(vspec(2.0), fam("ring5")) + 1


def test_backward_recursion_detects_dominant_tail():
    # 2.42843... is a level at k2 = 0.5 but none at k2 = 0.9, whose
    # lowest levels are 0.906, 5.300 and 12.715: no join of the minimal
    # and the forward solution closes a row (residual 1.11), so the
    # solver must refuse however few coefficients it keeps
    spec = PotentialSpec.from_k2(PotentialKind.V1, -3.0, 0.9)
    for n_max in (3, 500):
        _, [residual] = coefficients(spec, fam("ring5"),
                                     [2.4284370373563840], n_max)
        assert residual == pytest.approx(1.11, abs=0.01)
        with pytest.raises(ConsistencyError, match="join residual"):
            solve_coeffs_infinite(spec, fam("ring5"), [2.4284370373563840],
                                  n_max=n_max)


def test_nan_energy_fails_the_join_bound():
    # every row is NaN: the join residual counts as infinite, for both
    # kinds of series, instead of slipping past the bound as NaN
    with pytest.raises(ConsistencyError, match="join residual inf"):
        solve_coeffs_finite(vspec(2.0), fam("ring5"), [math.nan])
    with pytest.raises(ConsistencyError, match="join residual inf"):
        solve_coeffs_infinite(vspec(-3.0), fam("ring5"), [math.nan],
                              n_max=500)


def test_one_term_even_solution_is_elementary():
    # single-coefficient level of the first well at l = 0: the series
    # collapses to cn^2 / dn^2 with energy 2 k2 - 2
    spec = vspec(0.0)
    sol = series_solution(spec, fam("ring5"), 2.0 * 0.5 - 2.0)
    for u in (0.2, 0.7, 1.3, 1.7):
        t = jacobi(u, 0.5)
        assert evaluate(sol, u) == pytest.approx(t.cn ** 2 / t.dn ** 2,
                                                 rel=1e-13)


def test_one_term_even_solution_second_well():
    spec = wspec(0.0)
    sol = series_solution(spec, fam("ring5"), -2.0)
    for u in (0.3, 0.9, 1.6):
        t = jacobi(u, 0.5)
        assert evaluate(sol, u) == pytest.approx(t.sn ** 2 / t.dn ** 2,
                                                 rel=1e-13)


def test_odd_family_vanishes_at_origin():
    spec = vspec(1.0)
    E = truncation_energy_single(spec, "ring6")
    sol = series_solution(spec, fam("ring6"), E)
    assert evaluate(sol, 0.0) == 0.0


def truncation_energy_single(spec, sel):
    # one-term family: the diagonal root beta_0 = 0
    from heunspec.spectrum import finite_spectrum
    res = finite_spectrum(spec, fam(sel))
    assert len(res.energies) == 1
    return res.energies[0]


def test_grid_evaluation_matches_scalar(rng):
    from heunspec.spectrum import finite_spectrum
    cases = [(vspec(2.0), "ring5", RING5_V1_L2_E[0]),
             (vspec(-1.5), "bold5", -0.5 - 1.75 * 0.5),
             (wspec(-1.5), "bar5", -0.5 + 2.25 * 0.5)]
    # multi-term kernel sums: every real level of the families at
    # l = 5/2 (five coefficients) and l = 7/2 (six)
    for spec, sel in ((vspec(2.5), "bold5"), (wspec(2.5), "bar5"),
                      (vspec(3.5), "bold6"), (wspec(3.5), "bar7")):
        cases += [(spec, sel, E)
                  for E in finite_spectrum(spec, fam(sel)).energies]
    for spec, sel, E in cases:
        sol = series_solution(spec, fam(sel), E)
        K = complete_K(spec.k.k2)
        us = rng.uniform(0.05 * K, 0.95 * K, size=24)
        if spec.kind is PotentialKind.V2:
            us = us + 0.2 * K
        [grid_vals] = evaluate_grid([sol], us)
        for u, gv in zip(us, grid_vals):
            assert gv == pytest.approx(evaluate(sol, float(u)), rel=1e-13)


def test_infinite_grid_evaluation_matches_scalar(rng):
    spec = vspec(-3.0)
    sol = series_solution(spec, fam("ring5"), CF_L3_E0)
    K = complete_K(0.5)
    us = rng.uniform(0.1 * K, 0.9 * K, size=12)
    [grid_vals] = evaluate_grid([sol], us)
    for u, gv in zip(us, grid_vals):
        assert gv == pytest.approx(evaluate(sol, float(u)), rel=1e-12)


def test_infinite_power_sum_array_matches_scalar_calls():
    spec = vspec(-3.0)
    sol = series_solution(spec, fam("ring5"), CF_L3_E0)
    x = np.linspace(0.0, 1.0, 41)
    b = sol.coeffs[None]
    scalar = [_power_sum(b, float(xi))[0] for xi in x]
    assert np.array_equal(_power_sum(b, x)[0], scalar)


def test_infinite_power_sum_names_first_failing_point():
    # ten coefficients leave a tail above budget from x = 0.3 on; the
    # first failing point is reported even when a later one lies
    # outside the disc of convergence
    spec = vspec(-3.0)
    short = series_solution(spec, fam("ring5"), CF_L3_E0, n_max=10)

    def tail_check(sol, x):
        b = sol.coeffs[None]
        _tail_check(b, x, _power_sum(b, x), spec.k.k2)
    with pytest.raises(ConvergenceError,
                       match=r"at x = 0\.9 relative to partial sum 1\.856"):
        tail_check(short, np.array([0.1, 0.9, 2.5]))
    with pytest.raises(ConvergenceError, match=r"at x = 0\.3 "):
        tail_check(short, 0.3)
    sol = series_solution(spec, fam("ring5"), CF_L3_E0)
    with pytest.raises(ConvergenceError, match=r"x = 2\.5 outside"):
        tail_check(sol, np.array([0.5, 2.5]))
    # a stack raises for its first failing level, at that level's first
    # failing point: a level whose last coefficient is 0 has no tail and
    # fails only outside the disc, where every level fails
    b = np.array([np.append(short.coeffs[:-1], 0.0), short.coeffs])
    for x, match in (([0.1, 0.9], r"at x = 0\.9 relative to partial sum 1\.856"),
                     ([0.1, 0.9, 2.5], r"x = 2\.5 outside")):
        x = np.array(x)
        with pytest.raises(ConvergenceError, match=match):
            _tail_check(b, x, _power_sum(b, x), spec.k.k2)
    # and evaluate_grid raises the second level's own error
    sols = [SeriesSolution(spec, fam("ring5"), CF_L3_E0, v) for v in b]
    us = np.linspace(0.0, 0.9 * complete_K(0.5), 16)
    errors = []
    for batch in (sols, sols[1:]):
        with pytest.raises(ConvergenceError) as err:
            evaluate_grid(batch, us)
        errors.append(str(err.value))
    assert errors[0] == errors[1]


# (kind, family, l, k2, levels): the continued-fraction workload's
# inputs (lowest level) at three k2, the cancellation-prone levels of
# v2 ring7 at l = 12.6, k2 = 0.97 and of v1 ring5 at l = -3, k2 = 0.05,
# and every terminating ring family at the l of verify's workload
POWER_SUM_CASES = (
    [(kind, sel, l, k2, slice(0, 1))
     for kind, sel, ls in (("v1", "ring5", (-1.0, -4.0)),
                           ("v1", "ring6", (0.5, -5.5)),
                           ("v2", "ring5", (-1.3, -3.7)),
                           ("v2", "ring7", (-2.0, -3.0)))
     for l in ls for k2 in (0.2, 0.5, 0.75)]
    + [("v2", "ring7", 12.6, 0.97, slice(0, 6)),
       ("v1", "ring5", -3.0, 0.05, slice(9, 12))]
    + [(kind, sel, l, 0.5, slice(None))
       for kind, sels, ls in (("v1", ("ring5", "ring6", "ring1", "ring2"),
                               (0.0, 3.0, 6.0)),
                              ("v2", ("ring5", "ring7", "ring1", "ring3"),
                               (0.0, 2.0, 5.0)))
       for sel in sels for l in ls
       if truncation_order(make_spec(kind, l, 0.5), fam(sel)) is not None])


@pytest.mark.parametrize("kind,sel,l,k2,levels", POWER_SUM_CASES)
def test_power_sums_stay_within_the_horner_bound(kind, sel, l, k2, levels):
    # at every point of the eigenfunction grid, evaluate_grid is within
    # 2 (N + 1) u |P| sum_n |b_n x^n| of the prefactor P times the exact
    # sum of the same float b_n at the same float x = sn^2 (Higham 2002,
    # sec. 5.1).  The exact sum is a Horner pass in 400-bit fixed point on
    # Python integers, good to N 2^-400, well past 60 digits; an mpmath
    # pass at 60 digits over the 4537 coefficients of the l = 12.6 levels
    # is about 14 times slower
    from fractions import Fraction

    from heunspec.cli import _plot_grid
    spec = make_spec(kind, l, k2)
    sols = family_levels(spec, fam(sel), levels.stop).solutions[levels]
    assert sols
    us = _plot_grid(spec)
    vals = evaluate_grid(sols, us)
    sn, cn, dn = jacobi(us, k2)
    pre = family_prefactor(spec, fam(sel)).at(sn, cn, dn)
    x = sn * sn
    bits = 400

    def fixed(v):
        num, den = float(v).as_integer_ratio()
        return (num << bits) // den
    xs = np.array([fixed(v) for v in x], dtype=object)
    for sol, row in zip(sols, vals):
        exact = np.zeros(x.size, dtype=object)
        for bn in sol.coeffs[::-1]:
            exact = ((exact * xs) >> bits) + fixed(bn)
        N = sol.coeffs.size - 1
        bound = (2 * (N + 1) * 2.0 ** -53 * np.abs(pre)
                 * np.polynomial.polynomial.polyval(x, np.abs(sol.coeffs)))
        gap = [abs(Fraction(v) - Fraction(p) * Fraction(e, 1 << bits))
               for v, p, e in zip(row.tolist(), pre.tolist(), exact)]
        assert np.all(np.array(gap, dtype=float) <= bound), sol.E


def test_stacked_kernel_rows_match_one_row_sums():
    # each row of the stacked 2F1 sum is the row summed alone, to the
    # bit, on a grid on both sides of the scalar cut at z = 0.97; a row
    # that kept taking terms after it converged would differ
    z = np.linspace(0.0, 1.0, 101)
    for spec, sel in ((vspec(4.5), "bold5"), (wspec(5.5), "bar7")):
        A0, B, C0 = hyper_eval_args(spec, fam(sel))
        ns = np.arange(truncation_order(spec, fam(sel)) + 1)
        stacked = _tilde_f_rows(ns + A0, B, ns + C0, z)
        for n in ns:
            one = _tilde_f_rows(ns[n:n + 1] + A0, B, ns[n:n + 1] + C0, z)
            assert np.array_equal(stacked[n], one[0]), (sel, n)


def test_grid_evaluation_needs_no_scalar_2f1(monkeypatch):
    # every kernel value of evaluate_grid comes from the stacked rows,
    # also at z = 1 (v1, u = 0) and around the bar kernels' z = 1 (v2,
    # u = K); the scalar evaluate() is the reference
    from heunspec import series_engine, special_functions
    from heunspec.spectrum import finite_spectrum
    K = complete_K(0.5)
    cases = []
    grids = (np.linspace(0.0, 0.95 * K, 39),                # from u = 0
             np.append(K * np.linspace(0.05, 1.95, 38), K))  # and u = K
    for spec, sel, us in ((vspec(4.5), "bold5", grids[0]),
                          (wspec(5.5), "bar7", grids[1])):
        for sol in finite_spectrum(spec, fam(sel)).solutions:
            cases.append((sol, us, [evaluate(sol, float(u)) for u in us]))

    def scalar_2f1(*args):
        raise AssertionError("scalar 2F1 reached")
    for module, name in ((special_functions, "tilde_F"),
                         (special_functions, "gauss_2F1")):
        monkeypatch.setattr(module, name, scalar_2f1)
    # nor does series_engine bind the scalar 2F1 under a name of its own
    assert not hasattr(series_engine, "tilde_F")
    for sol, us, ref in cases:
        assert evaluate_grid([sol], us)[0] == pytest.approx(ref, rel=1e-13)


def test_grid_evaluation_matches_mpmath():
    # every real level of the hyper_levels families at k2 = 0.2, 0.5 and
    # 0.75, on 40 points of the eigenfunction grid, against a 40-digit
    # sum of the same float b_n times the same float prefactor, as a
    # share of max|psi|.  Measured worst where the kernel rows fold into
    # one power series (z <= Z_CONNECT): 5.0e-13 (7.4e-13 when each row
    # was summed on its own).  Above it each row takes the 1 - z
    # connection: 1.3e-11 (v2 bar7, l = 11/2, k2 = 0.75, level 5,
    # z = 0.98, where the terms b_n z^n F~_n reach 1.4e4 times their
    # sum; 1.8e-11 when the connection series were summed one term at a
    # time), next 3.3e-12 (the same level at k2 = 0.5; 2.4e-12)
    mpmath = pytest.importorskip("mpmath")
    from heunspec.cli import PLOT_MARGIN
    from heunspec.special_functions import Z_CONNECT
    checked = 0
    for kind, sel, ls in HYPER_LEVELS:
        for l, k2 in ((l, k2) for l in ls for k2 in (0.2, 0.5, 0.75)):
            spec = make_spec(kind, l, k2)
            sols = finite_spectrum(spec, fam(sel)).solutions
            if not sols:  # bar spectra at l = -1/2 are complex
                continue
            K = complete_K(k2)
            m = PLOT_MARGIN * K
            us = (np.linspace(0.0, K - m, 40) if kind == "v1"
                  else np.linspace(m, 2.0 * K - m, 40))
            sn, cn, dn = jacobi(us, k2)
            z = sn * sn if kind == "v2" else cn * cn
            A0, B, C0 = hyper_eval_args(spec, fam(sel))
            with mpmath.workdps(40):
                rows = [[mpmath.mpf(x) ** n / mpmath.gamma(n + C0)
                         * mpmath.hyp2f1(n + A0, B, n + C0, x)
                         for x in z.tolist()]
                        for n in range(len(sols[0].coeffs))]
                for i, sol in enumerate(sols):
                    b = [mpmath.mpf(x) for x in sol.coeffs.tolist()]
                    sums = [mpmath.fsum(bn * r[j] for bn, r in zip(b, rows))
                            for j in range(z.size)]
                    pre = family_prefactor(spec, fam(sel))
                    ref = pre.at(sn, cn, dn) * np.array(
                        [float(x) for x in sums])
                    err = (np.abs(evaluate_grid([sol], us)[0] - ref)
                           / np.abs(ref).max())
                    near = z > Z_CONNECT
                    case = (sel, l, k2, i)
                    assert err[~near].max() <= 5e-12, case
                    assert err.max() <= 3e-11, case
                    checked += 1
    assert checked > 150


def test_folded_kernel_sum_raises_at_the_term_cap(monkeypatch):
    # a two-piece row below z = 0.97 runs several hundred terms; with
    # the cap below that, evaluate_grid raises instead of returning a
    # truncated sum
    from heunspec import special_functions
    sol = finite_spectrum(vspec(4.5), fam("bold5")).solutions[0]
    us = np.linspace(0.0, 0.95, 64) * complete_K(0.5)
    assert np.isfinite(evaluate_grid([sol], us)).all()
    monkeypatch.setattr(special_functions, "SERIES_MAX_TERMS", 200)
    with pytest.raises(ConvergenceError, match="within 200 terms"):
        evaluate_grid([sol], us)


def test_connection_rows_need_at_most_60_terms(monkeypatch):
    # the 1 - z connection rows of an eigenfunction stop within 60
    # terms: capped there while _connection_rows runs, and only then,
    # since the folded sum below the cut takes its runs from the same
    # builder and needs hundreds, evaluate_grid gives the same samples
    # to the bit at the lowest, middle and top level of every two-sided
    # family, and the capped calls reach the run builder
    from heunspec import special_functions
    from heunspec.cli import _plot_grid
    connection_rows = special_functions._connection_rows
    runs = special_functions._runs
    calls = []

    def capped(*args):
        with monkeypatch.context() as m:
            m.setattr(special_functions, "SERIES_MAX_TERMS", 60)
            return connection_rows(*args)

    def counting(*args):
        if special_functions.SERIES_MAX_TERMS == 60:
            calls.append(args)
        return runs(*args)

    for kind, sels in (("v1", ("bold5", "bold6")), ("v2", ("bar5", "bar7"))):
        for l, k2 in ((5.5, 0.5), (20.5, 0.5), (20.0, 0.9)):
            spec = make_spec(kind, l, k2)
            us = _plot_grid(spec)
            for sel in sels:
                sols = finite_spectrum(spec, fam(sel)).solutions
                for sol in (sols[0], sols[len(sols) // 2], sols[-1]):
                    ref = evaluate_grid([sol], us)
                    with monkeypatch.context() as m:
                        m.setattr(special_functions, "_connection_rows",
                                  capped)
                        m.setattr(special_functions, "_runs", counting)
                        got = evaluate_grid([sol], us)
                    assert np.array_equal(got, ref), (kind, sel, l, k2, sol.E)
    assert calls


def test_grid_evaluation_makes_one_jacobi_call(monkeypatch):
    # sn, cn and dn of a whole grid come from one array call, for power
    # and hypergeometric families alike
    from heunspec import series_engine
    K = complete_K(0.5)
    us = np.linspace(0.05, 0.95, 64) * K
    sols = [series_solution(vspec(2.0), fam("ring5"), RING5_V1_L2_E[0]),
            series_solution(vspec(-3.0), fam("ring5"), CF_L3_E0),
            finite_spectrum(vspec(4.5), fam("bold5")).solutions[0]]
    calls = []

    def counting(u, k2):
        calls.append(np.shape(u))
        return jacobi(u, k2)
    monkeypatch.setattr(series_engine, "jacobi", counting)
    for sol in sols:
        calls.clear()
        evaluate_grid([sol], us)
        assert calls == [us.shape], sol.family.selector


def test_bold_value_at_center_is_finite():
    # at u = 0 the kernel argument reaches 1 and the closed Gauss value
    # takes over
    spec = vspec(-1.5)
    sol = series_solution(spec, fam("bold5"), -0.5 - 1.75 * 0.5)
    v0 = evaluate(sol, 0.0)
    assert math.isfinite(v0) and v0 != 0.0
    v_near = evaluate(sol, 1e-6)
    assert v0 == pytest.approx(v_near, rel=1e-4)


def test_hyper_kernel_arguments():
    # second-kind kernels of the first well at l = -1/2, as printed
    # forms F(n - l/2, 2 + l/2; n + 5/2) and F(n + (1-l)/2, (3+l)/2;
    # n + 5/2) of the argument cn^2
    spec = vspec(-0.5)
    a5, b5, c5 = hyper_eval_args(spec, fam("bold5"))
    assert (a5, b5, c5) == pytest.approx((0.25, 1.75, 2.5), rel=1e-14)
    a6, b6, c6 = hyper_eval_args(spec, fam("bold6"))
    assert (a6, b6, c6) == pytest.approx((0.75, 1.25, 2.5), rel=1e-14)


def test_hyper_kernel_balance_is_half():
    # after the Euler rewrite every kernel satisfies c - a - b = 1/2,
    # which keeps the series bounded through the interior point
    for spec, group, idxs in ((vspec(-0.5), FamilyGroup.HYPER_BOLD,
                               (1, 2, 5, 6)),
                              (wspec(-0.5), FamilyGroup.HYPER_BAR,
                               (1, 3, 5, 7))):
        for i in idxs:
            a0, b0, c0 = hyper_eval_args(spec, ExpansionFamily(group, i))
            assert c0 - a0 - b0 == pytest.approx(0.5, abs=1e-12)


def test_integer_l_hyper_duplicates_power_level():
    # at integer l the kernels terminate and the second-kind family
    # reproduces the power-family eigenfunction
    from heunspec.spectrum import finite_spectrum
    sb = finite_spectrum(vspec(1.0), fam("bold6"))
    sp = finite_spectrum(vspec(1.0), fam("ring5"))
    assert len(sb.energies) == len(sp.energies) == 1
    assert sb.energies[0] == pytest.approx(sp.energies[0], rel=1e-12)
    K = complete_K(0.5)
    us = np.linspace(0.1 * K, 0.9 * K, 17)
    [vb] = evaluate_grid(sb.solutions, us)
    [vp] = evaluate_grid(sp.solutions, us)
    ratio = vb[8] / vp[8]
    assert np.max(np.abs(vb - ratio * vp)) < 1e-12 * np.max(np.abs(vb))
