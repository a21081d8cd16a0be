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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .adjoint import AdjointTrajectory, _tail_field, snap_instants
from .errors import KernelAsymmetryError
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
    """Symmetric midpoint-pair samples of the aggregated curvature kernel."""

    grid: Grid
    values: np.ndarray


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
    when f's partial ignores t."""
    b = problem.bundle

    def field(f_part, g_part) -> Trajectory:
        vals = _tail_field(problem, pair, grid, f_part, g_part, psi.psi.values)
        return Trajectory(grid, "midpoints", vals)

    return HamiltonianFields(
        h=field(b.f, b.g),
        h_u=field(b.f_u, b.g_u),
        h_uu=field(b.f_uu, b.g_uu),
        h_yy=field(b.f_yy, b.g_yy),
        h_yu=field(b.f_yu, b.g_yu),
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
    """0.5 (A + A^T), after checking that A was symmetric up to roundoff."""
    asym = float(np.max(np.abs(A - A.T)))
    if asym > 1e-12 * (1.0 + float(np.max(np.abs(A)))):
        raise KernelAsymmetryError(f"{what} asymmetry {asym:.3e} exceeds tolerance")
    return 0.5 * (A + A.T)


def assemble_m_kernel(problem: ProblemSpec, pair: tuple[Trajectory, Trajectory],
                      fields: HamiltonianFields, q: RegularizedKernel,
                      grid: Grid) -> MKernel:
    """Aggregated curvature kernel

        M(a, b) = int_{max(a,b)}^T Q(t,a) H_yy(t) Q(t,b) dt
                  - sum_i 1[a < t_i] 1[b < t_i] Q(t_i,a) h_yy^i(y*(t_i)) Q(t_i,b),

    assembled through the midpoint response matrix so the result is symmetric
    by construction; the max asymmetry is checked tiny before symmetrizing.
    """
    if q.grid != grid:
        raise ValueError("kernel grid mismatch")
    n, h = grid.n, grid.h
    hyy = fields.h_yy.values
    snaps = snap_instants(problem, grid)
    hyy_inst = [
        float(problem.bundle.instants[i].h_yy.evaluate(y=pair[0].values[s.node_index]))
        for i, s in enumerate(snaps)
    ]
    need_tail = bool(np.any(hyy)) and not q.is_zero
    need_inst = any(c != 0.0 for c in hyy_inst) and not q.is_zero
    if not (need_tail or need_inst):
        return MKernel(grid, np.zeros((n, n)))

    M = np.zeros((n, n))
    qm = midpoint_apply_matrix(q, grid)
    if need_tail:
        M = qm.T @ (qm * (hyy * h)[:, None]) / h**2
    if need_inst:
        for coeff, snap in zip(hyy_inst, snaps):
            if coeff == 0.0:
                continue
            qi = node_apply_row(q, snap.node_index, grid)
            M -= np.outer(qi, qi) * (coeff / h**2)
    return MKernel(grid, _symmetrized(M, "curvature kernel"))


def quadratic_form(fields: HamiltonianFields, m: MKernel, q: RegularizedKernel,
                   v: Trajectory, grid: Grid) -> float:
    """The second-order form QF[v] for a variation sampled on midpoints."""
    if v.placement != "midpoints" or v.grid != grid or m.grid != grid:
        raise ValueError("variation, kernels, and grid must match on midpoints")
    h = grid.h
    vv = v.values
    out = h * float(np.dot(fields.h_uu.values, vv**2))
    out += h**2 * float(vv @ m.values @ vv)
    if not q.is_zero and np.any(fields.h_yu.values):
        qm = midpoint_apply_matrix(q, grid)
        out += 2.0 * h * float(np.dot(vv * fields.h_yu.values, qm @ vv))
    return out


def _quadratic_matrix(fields: HamiltonianFields, m: MKernel, q: RegularizedKernel,
                      grid: Grid) -> np.ndarray:
    """Symmetric K with v^T K v = QF[v] for every midpoint sample vector."""
    h = grid.h
    K = np.diag(fields.h_uu.values * h) + h**2 * m.values
    if not q.is_zero and np.any(fields.h_yu.values):
        C = (fields.h_yu.values * h)[:, None] * midpoint_apply_matrix(q, grid)
        K = K + C + C.T
    return _symmetrized(K, "quadratic form")


def second_order_test(problem: ProblemSpec, pair: tuple[Trajectory, Trajectory],
                      fields: HamiltonianFields, grid: Grid,
                      tol: float | None = None) -> SecondOrderReport:
    """Necessary-condition test at a singular control.

    fields are the Hamiltonian fields along the pair.  Builds K, takes its
    extreme eigenvalue, and returns the eigenvector as an improving direction
    when the form can be made positive.  If the control is not singular the
    test does not apply and the verdict is inconclusive.
    """
    verdict = detect_singular(fields, tol)
    if not verdict.singular:
        return SecondOrderReport("inconclusive", float("nan"), verdict.tol,
                                 verdict.sup_hu, None, None)
    q = build_q_kernel(problem, pair, grid)
    m = assemble_m_kernel(problem, pair, fields, q, grid)
    K = _quadratic_matrix(fields, m, q, grid)
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
