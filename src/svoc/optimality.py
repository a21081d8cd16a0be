"""Hamiltonian fields, singular-control detection, and the second-order test.

The pointwise Hamiltonian along a pair is

    H(t) = int_t^T psi(s) f(s, t, y*(t), u*(t)) (s - t)^(alpha-1) ds
           - g(t, y*(t), u*(t))
           - sum_i 1[t < t_i] f(t_i, t, y*(t), u*(t)) (t_i - t)^(alpha-1) h_y^i(y*(t_i)),

its partials obtained by swapping f, g for the matching symbolic partials; the
constant factor h_y^i never changes.  A control is singular when sup|H_u| sits
below tolerance; the second-order necessary condition then requires the
quadratic form

    QF[v] = int H_uu v^2 + int int v M v + 2 int v(t) H_yu(t) [int_0^t Q(t,s) v(s) ds] dt

to stay non-positive.  The cross term's inner integral runs over s in [0, t]
with the outer factor v(t) H_yu(t); this is the ordering consistent with the
first-order response representation, and reports record it.

Every term reads the midpoint response matrix QM, (QM v)_k ~ int_0^{tau_k}
Q(tau_k, s) v(s) ds, built once per pair.  M is kept as its factors, never as
a table: h^2 v^T M v = sum_k h H_yy(tau_k) (QM v)_k^2 - sum_i h_yy^i (q_i . v)^2
with q_i the row of Q at instant i's node.  QF[v] thus costs O(N^2), and the
matrix of the form is K = L^T W L + diag(h H_uu) + C + C^T, with L the factor
rows, W their weights and C = diag(h H_yu) QM.

The verdict reads lambda_max(K).  An eigenvector is needed only when it exceeds
the tolerance, as the improving direction.  When the Gershgorin bound
max_i (K_ii + sum_{j != i} |K_ij|) <= tol proves that it cannot, eigenvalues
alone are computed (`eigvalsh`); otherwise, or if that lambda_max still lands
above tol, `eigh` runs.  On a diagonal K both routes return its entries exactly;
otherwise their lambda_max differ at roundoff, about eps max|K|.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .adjoint import AdjointTrajectory, _tail_field, snap_instants
from .errors import KernelAsymmetryError, NumericsError
from .problem import ProblemSpec
from .quadrature import Grid
from .resolvent import RegularizedKernel, build_q_kernel, midpoint_apply_matrix, node_apply_row
from .state import Trajectory

CROSS_TERM_CONVENTION = (
    "cross term evaluated as 2 * int_0^T v(t) H_yu(t) [int_0^t Q(t,s) v(s) ds] dt"
)


@dataclass(frozen=True, eq=False)
class HamiltonianFields:
    """Hamiltonian and the partials the optimality tests need, on midpoints."""

    h: Trajectory
    h_u: Trajectory
    h_uu: Trajectory
    h_yy: Trajectory
    h_yu: Trajectory


@dataclass(frozen=True)
class SingularVerdict:
    singular: bool
    sup_hu: float
    argmax_time: float
    tol: float


@dataclass(frozen=True, eq=False)
class MKernel:
    """The aggregated curvature kernel as its factors: h^2 M is the sum of
    L^T diag(w) L over blocks (L, w), QM with weights h H_yy and Q's node rows
    at the instants with weights -h_yy^i.  A block whose weights all vanish is
    left out.  qm is QM itself, which the cross term reads too; None when Q
    is zero."""

    grid: Grid
    qm: Optional[np.ndarray]
    blocks: tuple[tuple[np.ndarray, np.ndarray], ...]


@dataclass(frozen=True, eq=False)
class SecondOrderReport:
    verdict: str  # holds | violated | inconclusive
    lambda_max: float
    tol: float
    sup_hu: float
    matrix: Optional[np.ndarray]
    violating_direction: Optional[Trajectory]
    convention: str = CROSS_TERM_CONVENTION


def default_tolerance(fields: HamiltonianFields) -> float:
    """Discretization noise scales with the problem's curvature magnitude."""
    scale = float(np.max(np.abs(fields.h_uu.values))) * fields.h.grid.T
    return 1e-6 * (1.0 + scale)


def hamiltonian_fields(problem: ProblemSpec, pair: tuple[Trajectory, Trajectory],
                       psi: AdjointTrajectory, grid: Grid) -> HamiltonianFields:
    """H and its (u, y) partials on midpoints along the pair, one `_tail_field`
    each: O(N^2) time and O(N) memory, or O(N) evaluations and one correlation
    when f's partial ignores t.  A non-finite field raises NumericsError
    naming the field and the first midpoint whose sampled term is not finite,
    or, when only a sum overflowed, the field's first bad midpoint."""
    b = problem.bundle

    def field(name, f_part, g_part) -> Trajectory:
        vals, k = _tail_field(problem, pair, grid, f_part, g_part, psi.psi.values)
        if k is not None:
            raise NumericsError(f"Hamiltonian field {name} is not finite at midpoint {k}"
                                f" (t = {grid.midpoints[k]:g})")
        return Trajectory(grid, "midpoints", vals)

    return HamiltonianFields(
        h=field("H", b.f, b.g),
        h_u=field("H_u", b.f_u, b.g_u),
        h_uu=field("H_uu", b.f_uu, b.g_uu),
        h_yy=field("H_yy", b.f_yy, b.g_yy),
        h_yu=field("H_yu", b.f_yu, b.g_yu),
    )


def detect_singular(fields: HamiltonianFields, tol: float | None = None) -> SingularVerdict:
    """A control is singular when the control gradient of H vanishes throughout."""
    if tol is None:
        tol = default_tolerance(fields)
    hu = fields.h_u.values
    k = int(np.argmax(np.abs(hu)))
    sup = float(abs(hu[k]))
    return SingularVerdict(sup <= tol, sup, float(fields.h_u.grid.midpoints[k]), tol)


def _symmetrized(A: np.ndarray, what: str) -> np.ndarray:
    """0.5 (A + A^T), after checking that A was symmetric up to roundoff; one
    n x n buffer holds |A - A^T| and then the result."""
    out = np.subtract(A, A.T)
    asym = float(np.abs(out, out=out).max())
    scale = max(float(A.max()), -float(A.min()))
    if not asym <= 1e-12 * (1.0 + scale):  # also catches nan
        raise KernelAsymmetryError(f"{what} asymmetry {asym:.3e} exceeds tolerance")
    np.add(A, A.T, out=out)
    out *= 0.5
    return out


def assemble_m_kernel(problem: ProblemSpec, pair: tuple[Trajectory, Trajectory],
                      fields: HamiltonianFields, q: RegularizedKernel,
                      grid: Grid) -> MKernel:
    """Aggregated curvature kernel

        M(a, b) = int_{max(a,b)}^T Q(t,a) H_yy(t) Q(t,b) dt
                  - sum_i 1[a < t_i] 1[b < t_i] Q(t_i,a) h_yy^i(y*(t_i)) Q(t_i,b),

    as its factors (see MKernel): one `midpoint_apply_matrix`, and one
    `node_apply_row` per instant with curvature.
    """
    if q.grid != grid:
        raise ValueError("kernel grid mismatch")
    if q.is_zero:
        return MKernel(grid, None, ())
    qm = midpoint_apply_matrix(q, grid)
    blocks = []
    tail = grid.h * fields.h_yy.values
    if np.any(tail):
        blocks.append((qm, tail))
    rows, weights = [], []
    for snap, ic in zip(snap_instants(problem, grid), problem.bundle.instants):
        coeff = float(ic.h_yy.evaluate(y=pair[0].values[snap.node_index]))
        if coeff != 0.0:
            rows.append(node_apply_row(q, snap.node_index, grid))
            weights.append(-coeff)
    if rows:
        blocks.append((np.array(rows), np.array(weights)))
    return MKernel(grid, qm, tuple(blocks))


def quadratic_form(fields: HamiltonianFields, m: MKernel, v: Trajectory, grid: Grid) -> float:
    """The second-order form QF[v] for a variation sampled on midpoints, in
    O(N^2) from the factors of M."""
    if v.placement != "midpoints" or v.grid != grid or m.grid != grid:
        raise ValueError("variation, kernels, and grid must match on midpoints")
    h = grid.h
    vv = v.values
    out = h * float(np.dot(fields.h_uu.values, vv**2))
    for L, w in m.blocks:
        out += float(np.dot(w, (L @ vv) ** 2))
    if m.qm is not None and np.any(fields.h_yu.values):
        out += 2.0 * h * float(np.dot(vv * fields.h_yu.values, m.qm @ vv))
    return out


def _quadratic_matrix(fields: HamiltonianFields, m: MKernel, grid: Grid) -> np.ndarray:
    """Symmetric K with v^T K v = QF[v] for every midpoint sample vector."""
    h = grid.h
    K = np.diag(fields.h_uu.values * h)
    for L, w in m.blocks:
        K += L.T @ (L * w[:, None])
    if m.qm is not None and np.any(fields.h_yu.values):
        C = (fields.h_yu.values * h)[:, None] * m.qm
        K += C
        K += C.T
    if not np.isfinite(K).all():
        raise NumericsError("quadratic form matrix is not finite")
    return _symmetrized(K, "quadratic form")


def _gershgorin_bound(K: np.ndarray) -> float:
    """max_i (K_ii + sum_{j != i} |K_ij|), which no eigenvalue of K exceeds
    (Gershgorin); |K| lives only for its row sums."""
    d = np.diagonal(K)
    return float(np.max(d - np.abs(d) + np.abs(K).sum(axis=1)))


def second_order_test(problem: ProblemSpec, pair: tuple[Trajectory, Trajectory],
                      fields: HamiltonianFields, grid: Grid,
                      tol: float | None = None) -> SecondOrderReport:
    """Necessary-condition test at a singular control.

    fields are the Hamiltonian fields along the pair.  Builds K, takes its
    extreme eigenvalue, and returns the eigenvector as an improving direction
    when the form can be made positive.  When K's Gershgorin bound is at most
    tol the verdict can only be holds, and eigenvalues alone are computed; the
    verdict always comes from a computed eigenvalue, and the direction always
    from `eigh`.  If the control is not singular the test does not apply and
    the verdict is inconclusive.
    """
    verdict = detect_singular(fields, tol)
    if not verdict.singular:
        return SecondOrderReport("inconclusive", float("nan"), verdict.tol,
                                 verdict.sup_hu, None, None)
    q = build_q_kernel(problem, pair, grid)
    m = assemble_m_kernel(problem, pair, fields, q, grid)
    K = _quadratic_matrix(fields, m, grid)
    if _gershgorin_bound(K) <= verdict.tol:
        lam = float(np.linalg.eigvalsh(K)[-1])
        if lam <= verdict.tol:
            return SecondOrderReport("holds", lam, verdict.tol, verdict.sup_hu, K, None)
    eigenvalues, eigenvectors = np.linalg.eigh(K)
    lam = float(eigenvalues[-1])
    direction = None
    if lam > verdict.tol:
        vec = eigenvectors[:, -1]
        peak = int(np.argmax(np.abs(vec)))
        vec = vec / vec[peak]  # sup-norm one, peak positive: deterministic sign
        direction = Trajectory(grid, "midpoints", vec)
        return SecondOrderReport("violated", lam, verdict.tol, verdict.sup_hu,
                                 K, direction)
    return SecondOrderReport("holds", lam, verdict.tol, verdict.sup_hu, K, None)
