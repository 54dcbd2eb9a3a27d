"""Parameter maps, potentials, prefactor table, and index transforms."""

import math

import numpy as np
import pytest

from heunspec.exceptions import ArgumentError, DomainError, SingularPointError
from heunspec.heun_core import (
    ExpansionFamily,
    FamilyGroup,
    HeunParams,
    PotentialKind,
    PotentialSpec,
    darboux_params,
    family_prefactor,
    fractional_m49,
    homotopic,
    potential_value,
    require_supported,
)
from heunspec.special_functions import complete_K


def vspec(l, k2=0.5):
    return PotentialSpec.from_k2(PotentialKind.V1, l, k2)


def wspec(l, k2=0.5):
    return PotentialSpec.from_k2(PotentialKind.V2, l, k2)


def test_coupling_combination():
    assert vspec(0.0).coupling == 6.0
    assert wspec(-1.5).coupling == 0.75
    # invariant under l -> -l - 5
    assert vspec(2.0).coupling == vspec(-7.0).coupling


def test_potential_center_values():
    # first well at u = 0: cn = dn = 1
    s = vspec(0.0, 0.5)
    assert potential_value(s, 0.0) == pytest.approx(0.5 * (2.0 - 6.0),
                                                    rel=1e-14)
    # second well at the quarter period: sn = 1, dn^2 = 1 - k2
    s2 = wspec(0.0, 0.5)
    K = complete_K(0.5)
    assert potential_value(s2, K) == pytest.approx(-4.0, rel=1e-12)


def test_potential_l_reflection():
    for kind_spec in (vspec, wspec):
        a, b = kind_spec(1.3), kind_spec(-6.3)
        for u in (0.31, 0.8, 1.2):
            assert potential_value(a, u) == pytest.approx(
                potential_value(b, u), rel=1e-13)


def test_potential_singular_walls():
    K = complete_K(0.5)
    with pytest.raises(SingularPointError):
        potential_value(vspec(1.0), K)
    with pytest.raises(SingularPointError):
        potential_value(wspec(1.0), 0.0)
    with pytest.raises(SingularPointError):
        potential_value(wspec(1.0), 2.0 * K)


def test_potential_on_a_grid_matches_points():
    K = complete_K(0.5)
    for spec, us in ((vspec(1.3), np.linspace(-0.9, 0.9, 7) * K),
                     (wspec(-1.5), np.linspace(0.1, 1.9, 7) * K)):
        grid = potential_value(spec, us)
        assert grid.tolist() == [potential_value(spec, u) for u in us]


def test_potential_on_a_grid_rejects_any_wall_point():
    K = complete_K(0.5)
    for spec, us in ((vspec(1.0), [0.0, 0.5 * K, -K]),
                     (wspec(1.0), [0.5 * K, K, 2.0 * K])):
        with pytest.raises(SingularPointError, match="wall at u"):
            potential_value(spec, np.array(us))


def test_modulus_rejects_k2_whose_reciprocal_overflows():
    for tiny in (1e-320, 5e-324):
        with pytest.raises(DomainError, match="1/k2 overflows"):
            PotentialSpec.from_k2(PotentialKind.V1, 0.0, tiny)


def test_modulus_domain():
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(Exception):
            PotentialSpec.from_k2(PotentialKind.V1, 0.0, bad)


def test_darboux_params_v1():
    p = darboux_params(vspec(0.0, 0.5), 0.0)
    assert p == HeunParams(a=2.0, q=0.75, alpha=3.0, beta=2.5,
                           gamma=0.5, delta=2.5, epsilon=3.5)


def test_darboux_params_v2():
    p = darboux_params(wspec(1.0, 0.5), -2.0)
    assert p.gamma == 2.5 and p.delta == 0.5
    assert p.alpha == 3.5 and p.beta == 3.0
    # q = (l+5)^2/4 - (E + 2 + l^2 + 5l) / (4 k2)
    assert p.q == pytest.approx(9.0 - 6.0 / 2.0, rel=1e-14)


def test_heun_params_exponent_sum_guard():
    with pytest.raises(ArgumentError):
        HeunParams(a=2.0, q=1.0, alpha=1.0, beta=1.0, gamma=0.5,
                   delta=0.5, epsilon=99.0)
    with pytest.raises(ArgumentError):
        HeunParams.make(a=1.0, q=1.0, alpha=1.0, beta=1.0, gamma=0.5,
                        delta=0.5)


def test_index_transform_two():
    p = darboux_params(vspec(0.0, 0.5), 0.0)
    p2, deltas = homotopic(2, p)
    assert p2 == HeunParams(a=2.0, q=5.0, alpha=3.0, beta=3.5,
                            gamma=1.5, delta=2.5, epsilon=3.5)
    assert deltas == (1.0, 0.0, 0.0)
    # applying the transform twice restores the parameters
    back, _ = homotopic(2, p2)
    assert back == p


def test_index_transform_compositions():
    p = darboux_params(vspec(1.0, 0.25), -0.7)
    assert homotopic(4, p)[0] == homotopic(2, homotopic(3, p)[0])[0]
    assert homotopic(6, p)[0] == homotopic(2, homotopic(5, p)[0])[0]
    assert homotopic(7, p)[0] == homotopic(3, homotopic(5, p)[0])[0]
    assert homotopic(8, p)[0] == homotopic(2, homotopic(3,
                                           homotopic(5, p)[0])[0])[0]


def test_index_transform_validates_exponent_sum():
    # constructing each transformed set revalidates the sum rule, so
    # reaching here means all eight stay consistent
    p = darboux_params(wspec(0.3, 0.6), 1.1)
    for i in range(1, 9):
        q, _ = homotopic(i, p)
        assert q.epsilon == pytest.approx(
            q.alpha + q.beta + 1.0 - q.gamma - q.delta, abs=1e-12)


def test_fractional_transform():
    p = darboux_params(vspec(0.0, 0.5), 0.0)
    m = fractional_m49(p)
    assert m.a == -1.0
    assert m.q == pytest.approx(6.75, rel=1e-15)
    assert (m.gamma, m.delta) == (p.delta, p.gamma)
    assert fractional_m49(m) == p


def test_family_selector_roundtrip():
    fam = ExpansionFamily.from_selector("bold6")
    assert fam.group is FamilyGroup.HYPER_BOLD and fam.index == 6
    assert fam.selector == "bold6"
    with pytest.raises(ArgumentError):
        ExpansionFamily.from_selector("blob9")


def test_family_support_table():
    v1 = vspec(0.0)
    v2 = wspec(0.0)
    for sel in ("ring1", "ring2", "ring5", "ring6", "bold1", "bold2",
                "bold5", "bold6"):
        require_supported(v1, ExpansionFamily.from_selector(sel))
    for sel in ("ring1", "ring3", "ring5", "ring7", "bar1", "bar3",
                "bar5", "bar7"):
        require_supported(v2, ExpansionFamily.from_selector(sel))
    for spec, sel in ((v1, "ring3"), (v1, "bar5"), (v2, "ring2"),
                      (v2, "bold5"), (v1, "ring4")):
        with pytest.raises(ArgumentError):
            require_supported(spec, ExpansionFamily.from_selector(sel))


def test_prefactor_table_power():
    # exponent triples (sn, cn, dn) of the power families
    for l in (2.0, -1.5):
        v1, v2 = vspec(l), wspec(l)
        def pf(spec, sel):
            p = family_prefactor(spec, ExpansionFamily.from_selector(sel))
            return (p.p_sn, p.p_cn, p.p_dn)
        assert pf(v1, "ring1") == (0.0, 2.0, l + 3.0)
        assert pf(v1, "ring2") == (1.0, 2.0, l + 3.0)
        assert pf(v1, "ring5") == (0.0, 2.0, -l - 2.0)
        assert pf(v1, "ring6") == (1.0, 2.0, -l - 2.0)
        assert pf(v2, "ring1") == (2.0, 0.0, l + 3.0)
        assert pf(v2, "ring3") == (2.0, 1.0, l + 3.0)
        assert pf(v2, "ring5") == (2.0, 0.0, -l - 2.0)
        assert pf(v2, "ring7") == (2.0, 1.0, -l - 2.0)


def test_prefactor_table_hyper():
    # the evaluation form of every hypergeometric family carries even
    # sn and cn powers only; the half-odd content lives in the kernels
    for l in (2.0, -1.5):
        v1, v2 = vspec(l), wspec(l)
        for sel in ("bold1", "bold2"):
            p = family_prefactor(v1, ExpansionFamily.from_selector(sel))
            assert (p.p_sn, p.p_cn, p.p_dn) == (0.0, 2.0, l + 3.0)
        for sel in ("bold5", "bold6"):
            p = family_prefactor(v1, ExpansionFamily.from_selector(sel))
            assert (p.p_sn, p.p_cn, p.p_dn) == (0.0, 2.0, -l - 2.0)
        for sel in ("bar1", "bar3"):
            p = family_prefactor(v2, ExpansionFamily.from_selector(sel))
            assert (p.p_sn, p.p_cn, p.p_dn) == (2.0, 0.0, l + 3.0)
        for sel in ("bar5", "bar7"):
            p = family_prefactor(v2, ExpansionFamily.from_selector(sel))
            assert (p.p_sn, p.p_cn, p.p_dn) == (2.0, 0.0, -l - 2.0)
