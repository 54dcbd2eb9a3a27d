"""Independent eigenvalue oracle: wall asymptotics plus shooting.

This module deliberately knows nothing about series solutions or
recurrences.  It integrates psi'' = (V - E) psi, starting from the
exact indicial behavior psi ~ t^2 (1 + c2 t^2 + c4 t^4) at the singular
walls, and quantizes energies by one of two conditions:

* parity, either potential: integrate from the wall to the symmetry
  point, u = K to u = 0 for the first potential on (-K, K) and u = 0 to
  u = K for the second on (0, 2K).  Even (symmetric) eigenfunctions
  need psi' = 0 there, odd (antisymmetric) ones psi = 0.
* either potential, apparent singularity at x = sn^2 = 1/k2, the point
  u = K + iK' where L/dn^2 has its double pole.  In x the equation is

      P psi_xx + (P'/2) psi_x = (V(x) - E) psi,  P = 4x(1-x)(1-k2 x),

  with V1 = (1-k2) [2/(1-x) - L/(1-k2 x)] and
  V2 = 2/x - (1-k2) L/(1-k2 x).  The exponents at x = 1/k2 are (l+3)/2
  and -(l+2)/2; they differ by l + 5/2, an integer exactly when l is
  half an odd integer.  The point is apparent (free of a logarithm)
  when the monodromy M once around it is the scalar exp(i pi (l+3));
  M comes from integrating the rational coefficients above around a
  circle that encloses no other singular point.  These energies are in
  general not eigenvalues of either parity class above.

Both conditions integrate a linear system y' = (A0 + E A1) y whose
coefficients do not depend on E, so all trial energies of a call
integrate together (_propagate).  The parity oracle steps in t, the
distance from the wall: from t = WALL_OFFSET * K the steps grow as
GRADE * t up to a cap, the power of two at or below
STEP_SCALE / sqrt(1 + max|E| + |L|).  The monodromy oracle takes a
uniform mesh in the angle, with steps at or below the same cap.  Each
step of the 12-stage, 8th-order Runge-Kutta method of DOP853 is, for a
linear system, a 2x2 matrix, and since the system is linear in E it is
a polynomial of degree 12 in E.  Its coefficients are formed once per
mesh for every step at once (_step_polynomials); each energy's
propagators then come from Horner's rule and are multiplied by a
pairwise tree that carries each product less the identity (_march).
Each call runs the mesh and the mesh with every step halved, with the
coefficients at the stage points of both from one evaluation (for the
parity oracle, one jacobi call), and returns the halved-mesh state
once the two agree to MESH_TOL; otherwise it halves again, up to
MESH_HALVINGS times in all, and then raises ConvergenceError.  One
match call (shooting_match_table, monodromy_match_table) keeps the
step polynomials of the meshes it integrates until it returns
(_one_match), so its probes, refinement rounds and acceptance test
evaluate the coefficients once per mesh.  Match calls inside an outer
_one_match block share its store: verify runs the matches of all its
power families in one block, so the even and odd classes, which
integrate the same equation, form a mesh they share once.  Nothing is
kept after the outermost block, so nothing outlives a verify.
Both forms of the potential, in u and in x, come from
heun_core.potential_from_squares.  Every root, of the matching
function or of the monodromy projection, is refined from a sign-change
bracket by one Illinois regula falsi (_illinois_batch) to
ROOT_XTOL * max(1, |E|), and both oracles match a target to the root
nearest to it by one widening probe (_nearest_roots).
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from typing import Optional, Sequence

import numpy as np

from .exceptions import ArgumentError, ConvergenceError
from .heun_core import PotentialKind, PotentialSpec, potential_from_squares
from .special_functions import complete_K, jacobi

WALL_OFFSET = 1.0e-3
GRADE = 0.08
STEP_SCALE = 0.35
MESH_TOL = 1.0e-10
MESH_HALVINGS = 4
STAGE_BLOCK = 1 << 13
MONODROMY_TOL = 1.0e-8
ROOT_XTOL = 1.0e-10
ILLINOIS_MAX_ITER = 60
MATCH_RADIUS = 0.8  # widest probe around a target (_nearest_roots)

# The explicit 12-stage Runge-Kutta method of order 8 inside DOP853
# (Hairer, Norsett & Wanner, Solving Ordinary Differential Equations I,
# 2nd ed., section II.10): nodes _C, weights _B and the rows of the
# strictly lower-triangular coupling matrix _A.
_C = np.array([
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0])
_B = np.array([
    0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, 0.3111643669578199,
    -0.1521609496625161, 0.20136540080403034, 0.04471061572777259])
_A_ROWS = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386,
     0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
     -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998,
     0.10726203044637328, -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636),
)
_A = np.array([row + (0.0,) * (12 - len(row)) for row in _A_ROWS])

# The step polynomials of one match call's meshes (see _one_match).
_meshes: contextvars.ContextVar[Optional[dict]] = contextvars.ContextVar(
    "_meshes", default=None)


def _wall_coeffs(kind: PotentialKind, k2: float, L: float) -> tuple[float, float]:
    """W0 and W2 of the wall expansion V = 2/t^2 + W0 + W2 t^2 + O(t^4).

    t is the distance from the wall (u = K for the first potential,
    u = 0 for the second).
    """
    smooth0 = 2.0 * (1.0 + k2) / 3.0
    smooth2 = 2.0 * (1.0 - k2 + k2 * k2) / 15.0
    if kind is PotentialKind.V1:
        return smooth0 - 2.0 * k2 - L, smooth2 + L * k2
    return smooth0 - (1.0 - k2) * L, smooth2 - (1.0 - k2) * L * k2


def _wall_start(kind: PotentialKind, k2: float, L: float,
                E: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """psi and dpsi/dt at distance t from a wall, from the t^2 branch."""
    W0, W2 = _wall_coeffs(kind, k2, L)
    c2 = (W0 - E) / 10.0
    c4 = ((W0 - E) * c2 + W2) / 28.0
    t2 = t * t
    psi = t2 * (1.0 + c2 * t2 + c4 * t2 * t2)
    dpsi = 2.0 * t + 4.0 * c2 * t * t2 + 6.0 * c4 * t2 * t2 * t
    return psi, dpsi


def _step_cap(E: np.ndarray, L: float) -> float:
    """The largest power of two at or below
    STEP_SCALE / sqrt(1 + max|E| + |L|)."""
    reach = math.sqrt(1.0 + float(np.max(np.abs(E))) + abs(L))
    return 2.0 ** math.floor(math.log2(STEP_SCALE / reach))


def _wall_mesh(delta: float, end: float, h_max: float) -> np.ndarray:
    """Nodes from delta to end in t, the distance from the wall: each
    step is GRADE * t, capped at h_max."""
    nodes = [delta]
    while nodes[-1] < end:
        nodes.append(min(nodes[-1] + min(GRADE * nodes[-1], h_max), end))
    return np.array(nodes)


def _halved(nodes: np.ndarray) -> np.ndarray:
    """The mesh with each step split at its midpoint."""
    out = np.empty(2 * nodes.size - 1)
    out[0::2] = nodes
    out[1::2] = 0.5 * (nodes[:-1] + nodes[1:])
    return out


def _stage_points(nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Step lengths h, shape (n,), and stage points, shape (12, n)."""
    h = np.diff(nodes)
    return h, nodes[:-1] + _C[:, None] * h


def _mul(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X @ Y for 2x2 matrices X and 2xc matrices Y stacked along the
    trailing axes (shapes (2, 2, ...) and (2, c, ...))."""
    return X[:, :1] * Y[:1] + X[:, 1:] * Y[1:]


def _step_polynomials(A0: np.ndarray, A1: np.ndarray,
                      h: np.ndarray) -> np.ndarray:
    """Coefficients C_0..C_12 of every step's propagator less the
    identity, P(E) - I = sum_k C_k E^k, shape (13, 2, 2, n).

    A0 + E A1 is the coefficient matrix at the stage points (each of
    shape (2, 2, 12, n)).  For a linear system one Runge-Kutta step is
    a matrix, the propagator I + sum b_i K_i with
    K_i = h (A0_i + E A1_i) (I + sum_j a_ij K_j); K_i is a polynomial
    of degree i + 1 in E, so P is one of degree 12, and its
    coefficients follow the same recursion, one power of E at a time.
    """
    n = h.size
    hA0 = np.moveaxis(A0 * h, 2, 0)
    hA1 = np.moveaxis(A1 * h, 2, 0)
    K = np.zeros((12, 13, 2, 2, n), dtype=A0.dtype)
    rows = K.reshape(12, -1)  # row j: the coefficients of K_j, in order
    for i in range(12):
        # I + sum_j a_ij K_j, of degree i: the first i + 1 coefficients
        S = (_A[i, :i] @ rows[:i, :(i + 1) * 4 * n]).reshape(i + 1, 2, 2, n)
        S[0, 0, 0] += 1.0
        S[0, 1, 1] += 1.0
        for X, k in ((hA0[i], 0), (hA1[i], 1)):  # adds E^k X S
            K[i, k:k + i + 1] += (X[:, 0, None] * S[:, :1]
                                  + X[:, 1, None] * S[:, 1:])
    return (_B @ rows).reshape(13, 2, 2, n)


def _march(C: np.ndarray, E: np.ndarray) -> np.ndarray:
    """Product of the step propagators with coefficients C (see
    _step_polynomials), shape (2, 2, m), one per energy.

    Each energy's propagators less the identity, D = P - I, come from C
    by Horner's rule.  A pairwise tree multiplies them, later steps on
    the left, as (I + D2)(I + D1) = I + (D2 + D1 + D2 D1): the small D
    of a short step is never rounded against the identity, which keeps
    the ill-conditioned products of the monodromy oracle within
    MESH_TOL up to l = 9.5 at k2 = 0.5.  Every operation is elementwise
    in the energies, so an energy's product does not depend on the
    batch it comes in.  Energies go in blocks of at most
    STAGE_BLOCK // n, which bounds the working set.
    """
    n = C.shape[-1]
    out = np.empty((2, 2, E.size), dtype=C.dtype)
    block = max(1, STAGE_BLOCK // n)
    for lo in range(0, E.size, block):
        part = slice(lo, lo + block)
        e = E[part]
        D = C[12, ..., None] * e
        for k in range(11, 0, -1):
            D += C[k, ..., None]
            D *= e
        D += C[0, ..., None]
        while D.shape[2] > 1:
            even = D.shape[2] // 2 * 2
            later, earlier = D[:, :, 1:even:2], D[:, :, 0:even:2]
            pairs = _mul(later, earlier)
            pairs += later
            pairs += earlier
            D = np.concatenate((pairs, D[:, :, even:]), axis=2)
        out[..., part] = D[:, :, 0]
    out[0, 0] += 1.0
    out[1, 1] += 1.0
    return out


@contextlib.contextmanager
def _one_match():
    """Keep the step polynomials of every mesh integrated inside the
    block for the rest of the block, so that the probes and refinement
    rounds of one match integrate each mesh once.  A block nested in
    another shares the outer block's store, so the matches of one verify
    integrate each mesh once; nothing is kept after the outermost
    block."""
    if _meshes.get() is not None:
        yield
        return
    token = _meshes.set({})
    try:
        yield
    finally:
        _meshes.reset(token)


def _propagate(mesh, coefficients, E: np.ndarray, y0: np.ndarray,
               key) -> np.ndarray:
    """State at nodes[-1] of y' = (A0(t) + E A1(t)) y, y(nodes[0]) = y0,
    for each energy E, where nodes = mesh(); y0 has shape (2, c, m).

    coefficients(t) gives A0 and A1 at an array of points t, each of
    shape (2, 2) + t.shape.  The propagator product P is formed on the
    mesh nodes and on the same mesh with each step halved, with the
    coefficients of both from one coefficients call.  An energy's
    halved-mesh state P y0 is returned once no entry of it differs from
    the coarse-mesh state by more than MESH_TOL max|P| max|y0|, the
    size the state would have without cancellation: at a root of a
    steep matching function the state itself is small, and float64
    fixes it only relative to that size.  For the energies left the
    mesh is halved again, at most MESH_HALVINGS times in all; then
    ConvergenceError is raised.

    key names the equation and the mesh: calls with equal keys have
    equal coefficients and nodes.  Inside _one_match a later call with
    the same key reuses the step polynomials formed before, and calls
    mesh and coefficients only for a halving not formed before.
    """
    def rungs(first, last):
        # the step polynomials of nodes halved first..last times, with
        # the coefficients at the stage points of all from one call
        meshes = [mesh()]
        for _ in range(last):
            meshes.append(_halved(meshes[-1]))
        h, pts = zip(*map(_stage_points, meshes[first:]))
        A0, A1 = (np.split(A, np.cumsum([x.size for x in h[:-1]]), axis=-1)
                  for A in coefficients(np.concatenate(pts, axis=1)))
        return list(map(_step_polynomials, A0, A1, h))

    store = _meshes.get()
    ladder = [] if store is None else store.setdefault(key, [])
    if not ladder:  # the step polynomials of nodes halved 0, 1, ... times
        ladder += rungs(0, 1)
    coarse = _mul(_march(ladder[0], E), y0)
    P = _march(ladder[1], E)
    out = np.empty((2,) + y0.shape[1:], dtype=P.dtype)
    todo = np.arange(E.size)
    halvings = 1
    while True:
        state = _mul(P, y0[..., todo])
        gap = np.abs(state - coarse).max(axis=(0, 1))
        scale = (np.abs(P).max(axis=(0, 1))
                 * np.abs(y0[..., todo]).max(axis=(0, 1)))
        ok = gap <= MESH_TOL * scale
        out[..., todo[ok]] = state[..., ok]
        todo, coarse = todo[~ok], state[..., ~ok]
        if todo.size == 0:
            return out
        if halvings == MESH_HALVINGS:
            rel = np.nan_to_num(gap[~ok] / scale[~ok], nan=np.inf)
            i = int(np.argmax(rel))
            raise ConvergenceError(
                f"{todo.size} state(s) still change by more than "
                f"{MESH_TOL:g} of their scale after {MESH_HALVINGS} mesh "
                f"halvings; worst at E = {float(E[todo[i]])!r}, "
                f"by {rel[i]:.3g}")
        halvings += 1
        if len(ladder) == halvings:
            ladder += rungs(halvings, halvings)
        P = _march(ladder[halvings], E[todo])


def matching_values(spec: PotentialSpec, parity: str,
                    energies: Sequence[float]) -> np.ndarray:
    """Vector of matching-function values F(E) for the given energies.

    F is psi' (even) or psi (odd) at the symmetry point of the solution
    started at the wall, so roots of F are the shooting eigenvalues of
    the requested symmetry class ("even" or "odd"; for the second
    potential these mean symmetric or antisymmetric about u = K).
    """
    if parity not in ("even", "odd"):
        raise ArgumentError(f"parity must be 'even' or 'odd', got {parity!r}")
    E = np.asarray(list(energies), dtype=float)
    if E.size == 0:
        return np.empty(0)
    k2 = spec.k.k2
    L = spec.coupling
    K = complete_K(k2)
    delta = WALL_OFFSET * K
    psi0, dpsi0 = _wall_start(spec.kind, k2, L, E, delta)

    def coefficients(t):
        sn, cn, dn = jacobi(t, k2)
        if spec.kind is PotentialKind.V1:
            # u = K - t: sn = cn(t)/dn(t), cn = k' sn(t)/dn(t) and
            # dn = k'/dn(t) there (DLMF 22.4.3), exact at the wall
            squares = ((cn / dn) ** 2, (1.0 - k2) * (sn / dn) ** 2,
                       (1.0 - k2) / (dn * dn))
        else:
            squares = (sn * sn, cn * cn, dn * dn)
        A0 = np.zeros((2, 2) + t.shape)
        A0[0, 1] = 1.0
        A0[1, 0] = potential_from_squares(spec.kind, k2, L, *squares)
        A1 = np.zeros_like(A0)
        A1[1, 0] = -1.0
        return A0, A1

    cap = _step_cap(E, L)
    y = _propagate(lambda: _wall_mesh(delta, K, cap), coefficients, E,
                   np.stack((psi0, dpsi0))[:, None], ("wall", spec, cap))
    if parity == "odd":
        return y[0, 0]
    # psi' in u: du = -dt for the first potential
    return -y[1, 0] if spec.kind is PotentialKind.V1 else y[1, 0]


def _probe_brackets(values, targets: Sequence[float], pending: list[int],
                    r: float) -> list[tuple[int, float, float, float, float]]:
    """Sign changes of values() on nine probes spanning each target +- r.

    All pending targets are probed in one stacked evaluation.  Returns
    (owner, lo, f(lo), hi, f(hi)) for every sign change, in ascending
    order of lo within each owner.
    """
    offsets = np.linspace(-r, r, 9)
    probes = np.concatenate([targets[j] + offsets for j in pending])
    vals = np.asarray(values(probes)).reshape(len(pending), 9)
    signs = np.sign(vals)
    rows, cols = np.nonzero(signs[:, :-1] * signs[:, 1:] < 0.0)
    return [(pending[r], targets[pending[r]] + offsets[i], vals[r, i],
             targets[pending[r]] + offsets[i + 1], vals[r, i + 1])
            for r, i in zip(rows, cols)]


def _nearest_roots(values, targets: Sequence[float],
                   accept=None) -> list[Optional[float]]:
    """Root of values() nearest to each target, or None.

    Probes +-0.05 around each pending target, tripling the radius while
    no root is found, and refines every sign change in one
    _illinois_batch.  A root counts where accept(roots) allows it
    (always, if accept is None), and each target keeps the accepted
    root nearest to it.  None means no accepted root within
    MATCH_RADIUS.
    """
    targets = [float(t) for t in targets]
    out: list[Optional[float]] = [None] * len(targets)
    pending = list(range(len(targets)))
    r = 0.05
    while pending and r <= MATCH_RADIUS:
        brackets = _probe_brackets(values, targets, pending, r)
        if brackets:
            owners, lo, flo, hi, fhi = zip(*brackets)
            roots = _illinois_batch(values, lo, flo, hi, fhi)
            ok = [True] * len(roots) if accept is None else accept(roots)
            for j, root, good in zip(owners, roots, ok):
                best = out[j]
                if good and (
                        best is None
                        or abs(root - targets[j]) < abs(best - targets[j])):
                    out[j] = float(root)
        pending = [j for j in pending if out[j] is None]
        r *= 3.0
    return out


def shooting_match_table(spec: PotentialSpec, parity: str,
                         targets: Sequence[float]) -> list[Optional[float]]:
    """The shooting eigenvalue of one symmetry class nearest to each
    target, or None where the matching function has no sign change
    within MATCH_RADIUS: the oracle then has no eigenvalue of this class
    near the target.  All targets of one spec are batched, and every
    integration of the match reuses the step polynomials of a mesh
    already integrated in it (_one_match)."""
    with _one_match():
        return _nearest_roots(lambda E: matching_values(spec, parity, E),
                              targets)


def monodromy_defect(spec: PotentialSpec,
                     energies: Sequence[float]) -> np.ndarray:
    """M / lambda - I at x = 1/k2 for each energy, shape (m, 2, 2).

    M is the monodromy of the x-form of the equation once around the
    circle x = 1/k2 + rho w, |w| = 1, with rho = (1/k2 - 1) / 2, in the
    basis psi(w = -1) = 1, dpsi/dw = 0 and psi = 0, dpsi/dw = 1.  The
    start point w = -1 lies on the real segment between x = 1 and
    x = 1/k2.  lambda = exp(i pi (l + 3)) is the monodromy factor of
    the exponent (l + 3)/2, so the defect vanishes exactly when the
    singular point is apparent.
    """
    E = np.asarray(list(energies), dtype=float)
    m = E.size
    if m == 0:
        return np.empty((0, 2, 2), dtype=complex)
    k2 = spec.k.k2
    L = spec.coupling
    a = spec.k.a
    rho = 0.5 * (a - 1.0)

    def coefficients(theta):
        w = -np.exp(1j * theta)
        x = a + rho * w
        s = 1.0 - k2 * x
        P = 4.0 * x * (1.0 - x) * s
        half_dP = 2.0 * ((1.0 - 2.0 * x) * s - k2 * x * (1.0 - x))
        V = potential_from_squares(spec.kind, k2, L, x, 1.0 - x, s)
        dw = 1j * w
        A0 = np.zeros((2, 2) + theta.shape, dtype=complex)
        A0[0, 1] = dw
        A0[1, 0] = dw * rho * rho * V / P
        A0[1, 1] = -dw * rho * half_dP / P
        A1 = np.zeros_like(A0)
        A1[1, 0] = -dw * rho * rho / P
        return A0, A1

    steps = 2 ** math.ceil(math.log2(2.0 * math.pi / _step_cap(E, L)))
    start = np.broadcast_to(np.eye(2)[:, :, None], (2, 2, m))
    # column j of the state is solution j: psi in row 0, dpsi/dw in row 1
    M = np.moveaxis(
        _propagate(lambda: np.linspace(0.0, 2.0 * math.pi, steps + 1),
                   coefficients, E, start, ("circle", spec, steps)), -1, 0)
    lam = np.exp(1j * math.pi * (spec.l + 3.0))
    return M / lam - np.eye(2)


def _log_coefficient(defect: np.ndarray) -> np.ndarray:
    """Real projection Re[D_12 / (2 pi i)] of each defect D.

    At half-odd l, D = 2 pi i c Y E_12 Y^-1, where the columns of Y are
    the local solutions y1 (exponent (l+3)/2) and y2 = ... + c log y1,
    so D_12 = 2 pi i c y1^2 / W with W their Wronskian: it changes sign
    with the log coefficient c and only touches zero where y1 does.
    """
    return defect[:, 0, 1].imag / (2.0 * math.pi)


def _illinois_batch(fun, lo: np.ndarray, flo: np.ndarray, hi: np.ndarray,
                    fhi: np.ndarray) -> np.ndarray:
    """Roots of fun in the sign-change brackets [lo, hi], all at once.

    Regula falsi with the Illinois halving of a retained end value
    (Dowell & Jarratt, BIT 11, 1971), run until every bracket is
    narrower than ROOT_XTOL * max(1, |E|).  Each round calls fun once on
    the still-open brackets, which costs one stacked integration; a few
    rounds suffice where bisection would need some 24 halvings.  A
    bracket of zero width returns its end as it stands.  Raises
    ConvergenceError if brackets are still open after ILLINOIS_MAX_ITER
    rounds.
    """
    lo, flo, hi, fhi = (np.array(v, dtype=float) for v in (lo, flo, hi, fhi))
    x = 0.5 * (lo + hi)
    kept = np.zeros(lo.size, dtype=int)  # +1: hi retained last round, -1: lo

    def still_open():
        return np.abs(hi - lo) > ROOT_XTOL * np.maximum(1.0, np.abs(x))

    for _ in range(ILLINOIS_MAX_ITER):
        act = still_open()
        if not act.any():
            return x
        c = hi[act] - fhi[act] * (hi[act] - lo[act]) / (fhi[act] - flo[act])
        fc = np.asarray(fun(c))
        x[act] = c
        idx = np.flatnonzero(act)
        zero = fc == 0.0
        up = ~zero & (np.sign(fc) == np.sign(fhi[act]))
        down = ~zero & ~up
        lo[idx[zero]] = hi[idx[zero]] = c[zero]
        i, j = idx[up], idx[down]
        hi[i], fhi[i] = c[up], fc[up]
        flo[i[kept[i] < 0]] *= 0.5
        kept[i] = -1
        lo[j], flo[j] = c[down], fc[down]
        fhi[j[kept[j] > 0]] *= 0.5
        kept[j] = 1
    width = np.where(still_open(), np.abs(hi - lo), 0.0)
    if width.any():
        i = int(np.argmax(width))
        raise ConvergenceError(
            f"Illinois refinement left {np.count_nonzero(width)} bracket(s) "
            f"open after {ILLINOIS_MAX_ITER} rounds; widest "
            f"[{float(lo[i])!r}, {float(hi[i])!r}], width {width[i]:.3g}")
    return x


def monodromy_match_table(spec: PotentialSpec,
                          targets: Sequence[float]) -> list[Optional[float]]:
    """Nearest energy to each target at which x = 1/k2 is apparent.

    The log coefficient is matched by _nearest_roots; a root counts
    only if the full defect |M / lambda - I| (Frobenius norm) is below
    MONODROMY_TOL there, since sign changes also occur where M is not
    scalar (integer or generic l).  None means no such energy within
    MATCH_RADIUS.  As in shooting_match_table, the integrations of the
    match share their meshes' step polynomials.
    """
    def log_coeff(E):
        return _log_coefficient(monodromy_defect(spec, E))

    def apparent(roots):
        defect = monodromy_defect(spec, roots)
        return np.linalg.norm(defect, axis=(1, 2)) < MONODROMY_TOL

    with _one_match():
        return _nearest_roots(log_coeff, targets, accept=apparent)
