"""Property test of the finite series: every level is a root of the
determinant, two-sided coefficients close every recurrence row, and the
l -> -l-5 partner has the same spectrum."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import strategies as st  # noqa: E402

from heunspec.cli import EQUIV_TOL  # noqa: E402
from heunspec.heun_core import ExpansionFamily, FamilyGroup  # noqa: E402
from heunspec.series_engine import (  # noqa: E402
    FINITE_TOL, coefficients, truncation_order)
from heunspec.spectrum import finite_spectrum, symmetry_partner  # noqa: E402
from heunspec.verify import _HYPER_PARTNER, _POWER_PARTNER  # noqa: E402

from conftest import characteristic_det, make_spec, relative_rows  # noqa: E402

FAMILIES = {
    "v1": ("ring1", "ring2", "ring5", "ring6",
           "bold1", "bold2", "bold5", "bold6"),
    "v2": ("ring1", "ring3", "ring5", "ring7",
           "bar1", "bar3", "bar5", "bar7"),
}
# half-odd l in [-3/2, 27/2] or integer l in [0, 13]
L_VALUES = st.one_of(st.integers(-2, 13).map(lambda k: k + 0.5),
                     st.integers(0, 13).map(float))


@st.composite
def finite_cases(draw):
    """(kind, selector, l, k2) of a family that terminates."""
    kind = draw(st.sampled_from(sorted(FAMILIES)))
    l, k2 = draw(L_VALUES), draw(st.floats(0.1, 0.95))
    spec = make_spec(kind, l, k2)
    sels = [s for s in FAMILIES[kind] if truncation_order(
        spec, ExpansionFamily.from_selector(s)) is not None]
    hypothesis.assume(sels)
    return kind, draw(st.sampled_from(sels)), l, k2


# a dense solve of these non-normal sections misplaces a level by 1.7e-5
# (bar5), and a float64 determinant moves the partner levels apart by
# up to 1.0e-8 (bar7)
@hypothesis.example(case=("v2", "bar5", 13.5, 0.95))
@hypothesis.example(case=("v2", "bar7", 13.5, 0.95))
@hypothesis.example(case=("v2", "bar7", 13.5, 0.83))
@hypothesis.settings(derandomize=True, database=None, deadline=None,
                     max_examples=200)
@hypothesis.given(case=finite_cases())
def test_finite_series_properties(case):
    kind, sel, l, k2 = case
    spec = make_spec(kind, l, k2)
    fam = ExpansionFamily.from_selector(sel)
    res = finite_spectrum(spec, fam)
    # each level is a simple root of the determinant, not just near one
    levels = np.array(res.energies)
    width = 1e-10 * (1.0 + np.abs(levels))
    det = characteristic_det(spec, fam,
                             np.stack([levels - width, levels + width]))
    assert np.all(det[0] * det[1] < 0.0)
    for E in res.energies:
        b, residual = coefficients(spec, fam, E)
        assert residual < FINITE_TOL
        # every row but the join row, which the residual above measures
        assert np.sort(relative_rows(spec, fam, E, b))[:-1].max(
            initial=0.0) <= 1e-12
    table = _POWER_PARTNER if fam.group is FamilyGroup.POWER else _HYPER_PARTNER
    partner = finite_spectrum(
        symmetry_partner(spec),
        ExpansionFamily(fam.group, table[spec.kind][fam.index]))
    assert len(partner.energies) == len(res.energies)
    for e_a, e_b in zip(res.energies, partner.energies):
        assert abs(e_a - e_b) <= EQUIV_TOL
