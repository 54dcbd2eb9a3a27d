"""Residual checks, symmetry equivalences, and the shooting oracle."""

import ast
import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import heunspec.shooting
import heunspec.verify
from heunspec.exceptions import ArgumentError, ConvergenceError
from heunspec.heun_core import (FAMILY_PARTNERS, ExpansionFamily,
                                PotentialKind, default_window,
                                potential_from_squares)
from heunspec.series_engine import coefficients
from heunspec.special_functions import complete_K, jacobi
from heunspec.spectrum import finite_spectrum, symmetry_partner
from heunspec.shooting import (
    MONODROMY_TOL,
    _illinois_batch,
    _log_coefficient,
    _wall_start,
    matching_values,
    monodromy_defect,
    monodromy_match_table,
    shooting_match_table,
)
from heunspec.verify import (
    equivalence_suite,
    ode_residual,
    residual_grid,
    verify_checks,
)

from conftest import make_spec, march_by_stages, shooting_spectrum

fam = ExpansionFamily.from_selector

# Continued-fraction eigenvalues of the first potential at l = -3,
# k2 = 0.5 (same constants test_spectrum.py checks against the
# quantization function); the shooting oracle must reproduce them
# through a completely different route.
CF_L3_E0 = 2.428437037356383979258
CF_L3_E1 = 11.03026053382834296563
RING5_V1_L2_E = [-9.316624790355399849115, -2.683375209644600150885]


def bold5_ground():
    spec = make_spec("v1", -1.5, 0.5)
    res = finite_spectrum(spec, fam("bold5"))
    assert res.energies == pytest.approx([-1.375], rel=1e-12)
    return res.solutions[0]


def test_residual_small_at_eigenvalue():
    assert ode_residual([bold5_ground()])[0] < 1e-9


def test_residual_detects_detuned_energy():
    # shifting E while keeping the coefficients leaves the function
    # unchanged, so the residual must grow to the size of the shift
    sol = dataclasses.replace(bold5_ground(), E=-1.375 + 0.01)
    assert ode_residual([sol])[0] > 1e-4


def test_residual_shrinks_under_stencil_refinement(monkeypatch):
    sol = bold5_ground()
    monkeypatch.setattr(heunspec.verify, "DEFAULT_GRID", 16)
    coarse = ode_residual([sol])[0]
    monkeypatch.setattr(heunspec.verify, "DEFAULT_GRID", 32)
    fine = ode_residual([sol])[0]
    assert coarse / fine > 3.0


def test_residual_of_zero_solution_is_zero():
    sol = bold5_ground()
    zero = dataclasses.replace(sol, coeffs=np.zeros_like(sol.coeffs))
    assert ode_residual([zero]) == [0.0]


def test_residual_of_a_family_makes_one_grid_evaluation(monkeypatch):
    # every level of a family comes from one evaluate_grid call, and each
    # residual is, bit for bit, the one of its level in a one-element batch
    sols = finite_spectrum(make_spec("v2", 4.5, 0.5), fam("bar7")).solutions
    alone = [ode_residual([sol])[0] for sol in sols]
    calls = []
    evaluate_grid = heunspec.verify.evaluate_grid
    monkeypatch.setattr(heunspec.verify, "evaluate_grid",
                        lambda group, us: calls.append(group)
                        or evaluate_grid(group, us))
    assert ode_residual(sols) == alone
    assert len(calls) == 1 and len(alone) == 5


def test_residual_grid_stays_interior():
    spec = make_spec("v2", 1.0, 0.5)
    us = residual_grid(spec, n_grid=32, margin=0.1)
    from heunspec.special_functions import complete_K
    K = complete_K(0.5)
    assert us[0] == pytest.approx(0.1 * K)
    assert us[-1] == pytest.approx(0.9 * K)


def test_shooting_matches_power_eigenvalues():
    spec = make_spec("v1", 2.0, 0.5)
    for E in RING5_V1_L2_E:
        got = shooting_match_table(spec, "even", [E])[0]
        assert got is not None
        assert abs(got - E) < 1e-6
    spec2 = make_spec("v2", 0.0, 0.5)
    got = shooting_match_table(spec2, "even", [-2.0])[0]
    assert got is not None
    assert abs(got + 2.0) < 1e-6


def test_shooting_agrees_with_continued_fraction():
    # non-terminating case: the oracle and the continued fraction are
    # independent routes to the same even-sector eigenvalues
    spec = make_spec("v1", -3.0, 0.5)
    even = shooting_spectrum(spec, "even", window=(0.0, 12.0))
    assert even.complete
    assert even.energies == pytest.approx([CF_L3_E0, CF_L3_E1], abs=5e-9)
    odd = shooting_spectrum(spec, "odd", window=(0.0, 12.0))
    assert odd.complete
    assert odd.energies == pytest.approx([6.008387618943264], abs=5e-9)


def test_shooting_root_does_not_depend_on_target(monkeypatch):
    # the refined root is the level itself, not the probe point, and a
    # few refinement rounds suffice where bisection takes 25 or more
    calls = []

    def counted(*args):
        calls.append(args)
        return matching_values(*args)

    monkeypatch.setattr(heunspec.shooting, "matching_values", counted)
    spec = make_spec("v1", 2.0, 0.5)
    for shift in (0.0, 1e-4, -3e-3, 0.3):
        calls.clear()
        got = shooting_match_table(spec, "even",
                                   [E + shift for E in RING5_V1_L2_E])
        assert got == pytest.approx(RING5_V1_L2_E, abs=1e-9)
        assert len(calls) <= 12


def test_shooting_spectrum_keeps_exact_zero_sample(monkeypatch):
    # F is exactly zero at the sample 1.0 and changes sign on (2, 3)
    def synthetic(spec, parity, energies):
        E = np.asarray(energies, dtype=float)
        return (E - 1.0) * (E - 2.5)

    monkeypatch.setattr(heunspec.shooting, "matching_values", synthetic)
    res = shooting_spectrum(make_spec("v1", 2.0, 0.5), "even",
                            window=(-1.0, 3.0), samples=5)
    assert res.complete
    assert res.energies == pytest.approx([1.0, 2.5], abs=1e-10)


def test_shooting_match_takes_the_nearest_root(monkeypatch):
    # both roots lie in the first probe window around 1.015; the nearer
    # one, 1.02, wins over the lower one, 0.98
    def synthetic(spec, parity, energies):
        E = np.asarray(energies, dtype=float)
        return (E - 0.98) * (E - 1.02)

    monkeypatch.setattr(heunspec.shooting, "matching_values", synthetic)
    got = shooting_match_table(make_spec("v1", 2.0, 0.5), "even", [1.015])
    assert got == [pytest.approx(1.02, abs=1e-10)]


def test_illinois_refiner_fails_loudly(monkeypatch):
    def cubic(x):
        return np.asarray(x) ** 3 - 2.0

    root = _illinois_batch(cubic, [0.0], [-2.0], [2.0], [6.0])
    assert root[0] == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-10)
    monkeypatch.setattr(heunspec.shooting, "ILLINOIS_MAX_ITER", 1)
    with pytest.raises(ConvergenceError, match=r"\[0\.5, 2\.0\], width 1\.5"):
        _illinois_batch(cubic, [0.0], [-2.0], [2.0], [6.0])


def test_shooting_interleaves_parities():
    # between the two even roots there is exactly one odd root
    assert CF_L3_E0 < 6.008387618943264 < CF_L3_E1


def test_hyper_level_has_no_shooting_partner():
    # the terminating two-sided series at half-odd l satisfies a mixed
    # interior condition, not a parity condition, so neither symmetry
    # class owns an eigenvalue near its energy
    spec = make_spec("v2", -1.5, 0.25)
    res = finite_spectrum(spec, fam("bar5"))
    assert res.energies == pytest.approx([0.0625], rel=1e-12)
    assert shooting_match_table(spec, "even", [0.0625])[0] is None
    assert shooting_match_table(spec, "odd", [0.0625])[0] is None


def test_monodromy_confirms_hyper_level():
    # the bar5 level above has no parity partner; what it satisfies is
    # that x = 1/k2 is an apparent singularity at that energy
    spec = make_spec("v2", -1.5, 0.25)
    got = monodromy_match_table(spec, [0.0625])
    assert got[0] is not None
    assert abs(got[0] - 0.0625) < 1e-8


def test_monodromy_oracle_rejects_non_apparent_points(monkeypatch):
    def norms(spec, energies):
        return np.linalg.norm(monodromy_defect(spec, energies), axis=(1, 2))

    # integer l: the exponents at 1/k2 differ by a half-integer, so M
    # has the distinct eigenvalues +-lambda and is never scalar
    spec = make_spec("v1", 2.0, 0.5)
    assert monodromy_match_table(spec, RING5_V1_L2_E) == [None, None]
    assert np.all(norms(spec, RING5_V1_L2_E) > 1.0)
    # a bar5 level detuned by 0.3: with the window kept short of the
    # level nothing is found; the default window reaches the level.  At
    # half-odd l the projection changes sign only at apparent levels, so
    # this None comes from the scan; the norm gate is exercised by the
    # generic-l case below
    spec = make_spec("v2", -1.5, 0.25)
    assert norms(spec, [0.3625])[0] > 1e3 * MONODROMY_TOL
    with monkeypatch.context() as patch:
        patch.setattr(heunspec.shooting, "MATCH_RADIUS", 0.2)
        assert monodromy_match_table(spec, [0.3625]) == [None]
    assert monodromy_match_table(spec, [0.3625])[0] == pytest.approx(
        0.0625, abs=1e-8)
    # generic l: the log-coefficient projection changes sign, but the
    # exponents are not congruent, so M is not scalar at the crossing
    spec = make_spec("v1", -3.3, 0.5)
    grid = np.linspace(-10.0, 20.0, 61)
    g = _log_coefficient(monodromy_defect(spec, grid))
    flips = [0.5 * (grid[i] + grid[i + 1]) for i in range(60)
             if g[i] * g[i + 1] < 0.0]
    assert flips
    assert monodromy_match_table(spec, flips) == [None] * len(flips)


def test_monodromy_oracle_passes_its_mesh_check_at_l_9_5():
    # at l = 9.5, k2 = 0.5 the partial products around the circle reach
    # 2e2 (their inverses 5e2), so the two meshes of the halving check
    # agree only to some 1e-11 of |M|: a product that rounds each short
    # step's propagator against the identity raised ConvergenceError on
    # both families here
    spec = make_spec("v2", 9.5, 0.5)
    for sel in ("bar5", "bar7"):
        levels = finite_spectrum(spec, fam(sel)).energies
        assert None not in monodromy_match_table(spec, levels), sel


def test_monodromy_oracle_needs_no_elliptic_functions(monkeypatch):
    # the oracle works on the rational x-form of the equation alone
    def forbidden(*args):
        raise AssertionError("elliptic function called")

    monkeypatch.setattr(heunspec.shooting, "jacobi", forbidden)
    monkeypatch.setattr(heunspec.shooting, "complete_K", forbidden)
    spec = make_spec("v1", -1.5, 0.5)
    got = monodromy_match_table(spec, [-1.375])
    assert got[0] == pytest.approx(-1.375, abs=1e-8)


def test_wall_series_quadratic_slope():
    for kind, l in ((PotentialKind.V1, 1.0), (PotentialKind.V2, -1.5)):
        L = (l + 2.0) * (l + 3.0)
        E = np.array([1.0])
        p1, _ = _wall_start(kind, 0.5, L, E, 1e-3)
        p2, _ = _wall_start(kind, 0.5, L, E, 2e-3)
        slope = math.log(p2[0] / p1[0]) / math.log(2.0)
        assert slope == pytest.approx(2.0, abs=1e-4)


def test_matching_values_calls_jacobi_once_per_integration(monkeypatch):
    # sn, cn and dn ride in the ODE state: the right-hand side evaluates
    # no elliptic function.  Both wells integrate once, from the wall to
    # the symmetry point.
    calls = []

    def counting(u, k2):
        calls.append(u)
        return jacobi(u, k2)
    monkeypatch.setattr(heunspec.shooting, "jacobi", counting)
    for kind, l, integrations in (("v1", -3.0, 1), ("v2", 2.0, 1)):
        spec = make_spec(kind, l, 0.5)
        for parity in ("even", "odd"):
            calls.clear()
            matching_values(spec, parity, np.linspace(-5.0, 15.0, 9))
            assert len(calls) == integrations, (kind, parity)


def reference_wall_states(spec, E):
    """psi and dpsi/dt at the symmetry point, t = K, by DOP853 at
    rtol 1e-13, atol 1e-16: the start of matching_values, t = delta off
    the wall, with sn, cn and dn carried in the state at u = K - t
    (first potential) or u = t (second)."""
    k2, L = spec.k.k2, spec.coupling
    K = complete_K(k2)
    delta = heunspec.shooting.WALL_OFFSET * K
    psi0, dpsi0 = _wall_start(spec.kind, k2, L, E, delta)
    v1 = spec.kind is PotentialKind.V1
    du_dt = -1.0 if v1 else 1.0
    m = E.size

    def rhs(t, y):
        sn, cn, dn = y[2 * m:]
        V = potential_from_squares(spec.kind, k2, L, sn * sn, cn * cn,
                                   dn * dn)
        return np.concatenate((y[m:2 * m], (V - E) * y[:m], du_dt * np.array(
            [cn * dn, -sn * dn, -k2 * sn * cn])))

    y0 = np.concatenate((psi0, dpsi0, jacobi(K - delta if v1 else delta, k2)))
    res = solve_ivp(rhs, (delta, K), y0, method="DOP853", rtol=1e-13,
                    atol=1e-16)
    assert res.success
    return res.y[:m, -1], res.y[m:2 * m, -1]


def test_matching_values_match_a_tight_reference():
    # the step-propagator product against DOP853 at rtol 1e-13: the
    # final states agree to 1.7e-11 of their norm, most of which is the
    # reference's own error at the top of the window
    for kind in ("v1", "v2"):
        for l in (-3.0, 0.0, 2.5, 6.0, 20.0):
            for k2 in (0.2, 0.5, 0.9, 0.97):
                spec = make_spec(kind, l, k2)
                E = np.linspace(*default_window(spec), 9)
                psi, dpsi = reference_wall_states(spec, E)
                got_psi = matching_values(spec, "odd", E)
                got_dpsi = matching_values(spec, "even", E)
                if kind == "v1":  # psi' in u = K - t
                    got_dpsi = -got_dpsi
                err = np.hypot(got_psi - psi, got_dpsi - dpsi)
                assert np.all(err < 1e-10 * np.hypot(psi, dpsi)), (kind, l, k2)


def test_step_polynomials_match_the_stage_loop(monkeypatch):
    # each step's propagator as a degree-12 polynomial in E, evaluated
    # by Horner's rule, against the 12 stages run for every energy, on
    # the same meshes: the final states agree to 5.4e-13 of their norm
    # (v2, l = 100, k2 = 0.5)
    def states(spec, E):
        return (matching_values(spec, "odd", E),
                matching_values(spec, "even", E))

    for kind in ("v1", "v2"):
        for l in (-3.0, 0.0, 2.5, 6.0, 20.0, 100.0):
            for k2 in (0.2, 0.5, 0.9, 0.97):
                spec = make_spec(kind, l, k2)
                E = np.linspace(*default_window(spec), 9)
                psi, dpsi = states(spec, E)
                with monkeypatch.context() as m:
                    m.setattr(heunspec.shooting, "_step_polynomials",
                              lambda *stages: stages)
                    m.setattr(heunspec.shooting, "_march",
                              lambda C, E: march_by_stages(*C, E))
                    ref_psi, ref_dpsi = states(spec, E)
                err = np.hypot(psi - ref_psi, dpsi - ref_dpsi)
                assert np.all(err < 1e-11 * np.hypot(ref_psi, ref_dpsi)), (
                    kind, l, k2)


def test_matching_value_does_not_depend_on_its_batch():
    # on one mesh (every energy alone has the step cap of the batch) an
    # energy's value is the same, bit for bit, alone or in a batch
    spec = make_spec("v1", 2.0, 0.5)
    E = np.array([-100.0, -60.0, -11.0, 11.0, 30.0, 60.0, 100.0])
    cap = heunspec.shooting._step_cap(E, spec.coupling)
    assert all(heunspec.shooting._step_cap(E[i:i + 1], spec.coupling) == cap
               for i in range(E.size))
    for parity in ("even", "odd"):
        batch = matching_values(spec, parity, E)
        alone = [matching_values(spec, parity, [e])[0] for e in E]
        assert batch.tolist() == alone, parity


def test_one_match_integrates_each_mesh_once(monkeypatch):
    # every probe and refinement round of one match reuses the step
    # polynomials of a mesh it integrated before: the coefficients are
    # evaluated once per distinct mesh, on fewer calls than the match
    # makes; a second, identical match evaluates them all again
    points, calls = [], []

    def counting(fn, record):
        def wrapped(*args):
            record.append(args)
            return fn(*args)
        return wrapped

    monkeypatch.setattr(heunspec.shooting, "jacobi",
                        counting(jacobi, points))
    monkeypatch.setattr(heunspec.shooting, "matching_values",
                        counting(matching_values, calls))
    spec = make_spec("v1", 2.0, 0.5)
    runs = []
    for _ in range(2):
        points.clear()
        calls.clear()
        got = shooting_match_table(spec, "even", RING5_V1_L2_E)
        assert got == pytest.approx(RING5_V1_L2_E, abs=1e-9)
        meshes = {u.tobytes() for u, _ in points}
        assert len(points) == len(meshes) < len(calls)
        runs.append(sorted(meshes))
    assert runs[0] == runs[1]

    squares = heunspec.shooting.potential_from_squares
    monkeypatch.setattr(heunspec.shooting, "potential_from_squares",
                        counting(squares, points))
    monkeypatch.setattr(heunspec.shooting, "monodromy_defect",
                        counting(monodromy_defect, calls))
    spec = make_spec("v2", -1.5, 0.25)
    runs = []
    for _ in range(2):
        points.clear()
        calls.clear()
        got = monodromy_match_table(spec, [0.0625])
        assert got == [pytest.approx(0.0625, abs=1e-8)]
        meshes = {args[3].tobytes() for args in points}
        assert len(points) == len(meshes) < len(calls)
        runs.append(sorted(meshes))
    assert runs[0] == runs[1]


def test_matches_in_one_block_share_their_meshes(monkeypatch):
    # the even and odd classes integrate the same equation: inside one
    # _one_match block the odd match reuses the step polynomials of the
    # meshes the even one formed, and finds the same roots; nothing is
    # kept after the block
    spec = make_spec("v1", 4.0, 0.5)
    targets = [finite_spectrum(spec, fam(sel)).energies
               for sel in ("ring5", "ring6")]
    formed = []
    step_polynomials = heunspec.shooting._step_polynomials
    monkeypatch.setattr(heunspec.shooting, "_step_polynomials",
                        lambda *args: formed.append(args)
                        or step_polynomials(*args))
    apart = [shooting_match_table(spec, parity, E)
             for parity, E in zip(("even", "odd"), targets)]
    separate = len(formed)
    formed.clear()
    with heunspec.shooting._one_match():
        together = [shooting_match_table(spec, parity, E)
                    for parity, E in zip(("even", "odd"), targets)]
    assert together == apart
    assert len(formed) < separate
    assert heunspec.shooting._meshes.get() is None


def reference_monodromy(spec, E):
    """The monodromy of monodromy_defect by DOP853 at rtol 1e-13,
    atol 1e-16 around the same circle, shape (m, 2, 2)."""
    k2, L, a = spec.k.k2, spec.coupling, spec.k.a
    rho = 0.5 * (a - 1.0)
    m = E.size
    EE = np.concatenate((E, E))

    def rhs(theta, y):
        w = -np.exp(1j * theta)
        x = a + rho * w
        s = 1.0 - k2 * x
        P = 4.0 * x * (1.0 - x) * s
        half_dP = 2.0 * ((1.0 - 2.0 * x) * s - k2 * x * (1.0 - x))
        V = potential_from_squares(spec.kind, k2, L, x, 1.0 - x, s)
        psi, dpsi = y[:2 * m], y[2 * m:]
        ddpsi = (rho * rho * (V - EE) * psi - rho * half_dP * dpsi) / P
        return np.concatenate((dpsi, ddpsi)) * 1j * w

    one, zero = np.ones(m), np.zeros(m)
    y0 = np.concatenate((one, zero, zero, one)).astype(complex)
    res = solve_ivp(rhs, (0.0, 2.0 * math.pi), y0, method="DOP853",
                    rtol=1e-13, atol=1e-16)
    assert res.success
    return np.moveaxis(res.y[:, -1].reshape(2, 2, m), -1, 0)


def test_monodromy_defect_matches_a_tight_reference():
    # the v2 l = 5.5 bar5/bar7 levels, |E| up to 56: M agrees with the
    # reference to 3.7e-12 and the defects are at most 1.0e-12 (2.6e-11
    # with DOP853 at rtol 1e-11)
    spec = make_spec("v2", 5.5, 0.5)
    E = np.array([E for sel in ("bar5", "bar7")
                  for E in finite_spectrum(spec, fam(sel)).energies])
    assert len(E) == 12
    defect = monodromy_defect(spec, E)
    lam = np.exp(1j * math.pi * (spec.l + 3.0))
    M = reference_monodromy(spec, E)
    assert np.abs((defect + np.eye(2)) * lam - M).max() < 1e-10
    assert np.abs(defect).max() < 1e-10


def test_mesh_halving_refines_where_the_meshes_disagree(monkeypatch):
    # over the whole window at l = 50 the first two meshes disagree by
    # 1.4e-10 of the scale at E = 16620.8: one more jacobi call halves
    # the mesh for that energy, and every value then agrees with a run
    # on a mesh four times finer
    calls = []

    def counting(u, k2):
        calls.append(u)
        return jacobi(u, k2)

    monkeypatch.setattr(heunspec.shooting, "jacobi", counting)
    spec = make_spec("v1", 50.0, 0.2)
    E = np.linspace(*default_window(spec), 41)
    got = matching_values(spec, "odd", E)
    assert len(calls) == 2
    with monkeypatch.context() as m:
        m.setattr(heunspec.shooting, "MESH_HALVINGS", 1)
        with pytest.raises(ConvergenceError, match="1 state"):
            matching_values(spec, "odd", E)
    with monkeypatch.context() as m:
        m.setattr(heunspec.shooting, "STEP_SCALE",
                  heunspec.shooting.STEP_SCALE / 4.0)
        finer = matching_values(spec, "odd", E)
    assert np.all(np.abs(got - finer) < 1e-10 * np.abs(finer))


def test_unreachable_mesh_tolerance_raises(monkeypatch):
    monkeypatch.setattr(heunspec.shooting, "MESH_TOL", 1e-20)
    with pytest.raises(ConvergenceError, match="after 4 mesh halvings"):
        matching_values(make_spec("v1", 2.0, 0.5), "even", RING5_V1_L2_E)
    with pytest.raises(ConvergenceError, match="after 4 mesh halvings"):
        monodromy_defect(make_spec("v2", -1.5, 0.25), [0.0625])


def test_matching_values_rejects_bad_parity():
    spec = make_spec("v1", 0.0, 0.5)
    with pytest.raises(ArgumentError):
        matching_values(spec, "mixed", [1.0])


def test_equivalence_suite_power_and_hyper():
    records = equivalence_suite(make_spec("v1", 1.0, 0.5), {})
    assert len(records) == 8
    assert all(r["value"] < 1e-12 for r in records)
    names = " ".join(r["name"] for r in records)
    assert "ring5(l=1) vs ring1(l=-6)" in names
    assert "bold5(l=1) vs bold2(l=-6)" in names


def test_equivalence_suite_half_odd():
    records = equivalence_suite(make_spec("v2", -1.5, 0.25), {})
    assert len(records) == 4
    assert all(r["value"] < 1e-12 for r in records)
    names = " ".join(r["name"] for r in records)
    assert "bar5(l=-1.5) vs bar3(l=-3.5)" in names


@pytest.mark.parametrize("kind,l", [("v1", 6.0), ("v2", 5.0)])
def test_verify_checks_solves_each_spectrum_once(monkeypatch, kind, l):
    # four families terminate at l and four partners at -l - 5: the
    # residual, oracle and partner checks share one spectrum per family
    calls = []

    def counted(spec, family):
        calls.append((spec.l, family.selector))
        return finite_spectrum(spec, family)
    monkeypatch.setattr(heunspec.verify, "finite_spectrum", counted)
    checks = verify_checks(make_spec(kind, l, 0.5))
    assert len(calls) == 8
    assert len(set(calls)) == 8
    assert all(c.get("passed", True) for c in checks)


def partner_coefficient_dev(spec, fam, E, n_terms=40):
    """Termwise identity check: largest relative gap between the
    coefficients of (fam, l) at E and those of the partner family at
    l -> -l-5 with the same E."""
    fam_b = ExpansionFamily(
        fam.group, FAMILY_PARTNERS[spec.kind][fam.group][fam.index])
    partner = symmetry_partner(spec)
    [ca], _ = coefficients(spec, fam, [E], n_terms)
    [cb], _ = coefficients(partner, fam_b, [E], n_terms)
    n = min(len(ca), len(cb))
    scale = np.maximum(np.abs(ca[:n]), 1.0e-300)
    return float(np.max(np.abs(ca[:n] - cb[:n]) / scale))


def test_partner_coefficients_match_termwise():
    spec = make_spec("v1", 2.0, 0.5)
    res = finite_spectrum(spec, fam("ring5"))
    assert partner_coefficient_dev(spec, fam("ring5"), res.energies[0]) \
        < 1e-12
    # same identity along the non-terminating branch
    assert partner_coefficient_dev(make_spec("v1", -3.0, 0.5),
                                   fam("ring5"), CF_L3_E0) < 1e-12


def test_shooting_module_is_independent():
    # the oracle must never import the machinery it is checking
    tree = ast.parse(open(heunspec.shooting.__file__).read())
    banned = ("series_engine", "spectrum", "verify")
    for node in ast.walk(tree):
        mods = []
        if isinstance(node, ast.Import):
            mods = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            mods = [node.module or ""] + [a.name for a in node.names]
        for m in mods:
            assert not any(b in m for b in banned), f"oracle imports {m}"
