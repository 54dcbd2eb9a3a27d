import numpy as np
import pytest

from heunspec.heun_core import PotentialKind, PotentialSpec
from heunspec.series_engine import finite_order, recurrence


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


def make_spec(kind: str, l: float, k2: float) -> PotentialSpec:
    return PotentialSpec.from_k2(PotentialKind(kind), l, k2)


def relative_rows(spec: PotentialSpec, fam, E: float, b) -> np.ndarray:
    """|alpha_n b_{n+1} + beta_n b_n + gamma_n b_{n-1}| over the sum of
    the three terms' moduli, for every row n of b; 0 where all vanish."""
    tri = recurrence(spec, fam, E)
    n = np.arange(len(b))
    terms = np.array([tri.alpha_n(n) * np.append(b[1:], 0.0),
                      tri.beta_n(n) * b,
                      tri.gamma_n(n) * np.append(0.0, b[:-1])])
    scale = np.abs(terms).sum(axis=0)
    return np.abs(terms.sum(axis=0)) / np.where(scale > 0.0, scale, 1.0)


def characteristic_det(spec: PotentialSpec, fam, E, N=None):
    """Determinant of the truncated characteristic matrix at energy E.

    E may be real or complex, a scalar or an array; N defaults to the
    family's finite section order.  See Recurrence.continuant.
    """
    if N is None:
        N = finite_order(spec, fam)
    return recurrence(spec, fam, 0.0).continuant(E, N)
