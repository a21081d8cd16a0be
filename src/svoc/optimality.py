"""Hamiltonian fields, singular-control detection, and the second-order test.

The pointwise Hamiltonian along a pair is

    H(t) = int_t^T psi(s) f(s, t, y*(t), u*(t)) (s - t)^(alpha-1) ds
           - g(t, y*(t), u*(t))
           - sum_i 1[t < t_i] f(t_i, t, y*(t), u*(t)) (t_i - t)^(alpha-1) h_y^i(y*(t_i)),

with psi the midpoint `Trajectory` that `solve_adjoint` returns, its partials
obtained by swapping f, g for the matching symbolic partials; the constant
factor h_y^i never changes, and is evaluated once per instant for all the
partials.  Only H_u, H_uu, H_yy and H_yu are read, so H itself is never
computed.  A control is singular when sup|H_u| sits below tolerance; the
second-order necessary condition then requires the quadratic form

    QF[v] = int H_uu v^2 + int int v M v + 2 int v(t) H_yu(t) [int_0^t Q(t,s) v(s) ds] dt

to stay non-positive.  The cross term's inner integral runs over s in [0, t]
with the outer factor v(t) H_yu(t); this is the ordering consistent with the
first-order response representation, and reports record it.

QF[v] reads Q through the midpoint response matrix QM, with
(QM v)_k ~ int_0^{tau_k} Q(tau_k, s) v(s) ds.  M is kept as its factors, never
as a table: h^2 v^T M v = sum_k h H_yy(tau_k) (QM v)_k^2 - sum_i h_yy^i (q_i . v)^2
with q_i the row of Q at instant i's node.  QM and the q_i are tabulated once
per pair, after which Q itself is dropped; the matrix of the form is
K = L^T W L + diag(h H_uu) + C + C^T, with L the factor rows, W their weights
and C = diag(h H_yu) QM.

The verdict reads lambda_max(K) by the cheapest route `second_order_test`
allows.  A diagonal K's lambda_max is exact; the eigensolvers return the same
bits whenever LAPACK need not rescale K (max|K| between about 1e-146 and
1e145), and on any other K `eigvalsh` and `eigh` differ by about eps max|K|.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .adjoint import _tail_field, snap_instants
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
    """The partials of the Hamiltonian that the optimality tests read, on midpoints."""

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
    """The aggregated curvature kernel as its factors: h^2 M is
    QM^T diag(tail) QM plus rows^T diag(weights) rows, with qm Q's midpoint
    response matrix, tail = h H_yy and rows Q's node rows at the instants
    with curvature, weighted -h_yy^i.  tail is None when H_yy vanishes; qm,
    which the cross term reads too, is None when Q is zero or when neither
    the tail nor an H_yu reads it."""

    grid: Grid
    qm: Optional[np.ndarray]
    tail: Optional[np.ndarray]
    rows: np.ndarray
    weights: np.ndarray


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
    scale = float(np.max(np.abs(fields.h_uu.values))) * fields.h_uu.grid.T
    return 1e-6 * (1.0 + scale)


def hamiltonian_fields(problem: ProblemSpec, pair: tuple[Trajectory, Trajectory],
                       psi: Trajectory, grid: Grid) -> HamiltonianFields:
    """H_u, H_uu, H_yy and H_yu (never H, which nothing reads) on midpoints
    along the pair and the midpoint costate psi, from one `_tail_field` pass.  A non-finite field raises
    NumericsError naming the first such field and the midpoint `_tail_field`
    reports for it."""
    parts = ("_u", "_uu", "_yy", "_yu")
    fields = _tail_field(problem, pair, grid, parts, psi.values)
    for part, (_, k) in zip(parts, fields):
        if k is not None:
            raise NumericsError(f"Hamiltonian field H{part} is not finite at midpoint {k}"
                                f" (t = {grid.midpoints[k]:g})")
    return HamiltonianFields(*(Trajectory(grid, "midpoints", vals) for vals, _ in fields))


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

    as its factors (see MKernel): QM, tabulated when the tail or the cross
    term reads it, and one `node_apply_row` per instant with curvature.
    """
    if q.grid != grid:
        raise ValueError("kernel grid mismatch")
    if q.is_zero:
        return MKernel(grid, None, None, np.zeros((0, grid.n)), np.zeros(0))
    tail = grid.h * fields.h_yy.values
    tail = tail if np.any(tail) else None
    read = tail is not None or np.any(fields.h_yu.values)
    rows, weights = [], []
    for snap, ic in zip(snap_instants(problem, grid), problem.bundle.instants):
        coeff = float(ic.h_yy.evaluate(y=pair[0].values[snap.node_index]))
        if coeff != 0.0:
            rows.append(node_apply_row(q, snap.node_index, grid))
            weights.append(-coeff)
    return MKernel(grid, midpoint_apply_matrix(q, grid) if read else None, tail,
                   np.array(rows).reshape(-1, grid.n), np.array(weights))


def quadratic_form(fields: HamiltonianFields, m: MKernel, v: Trajectory, grid: Grid) -> float:
    """The second-order form QF[v] for a variation sampled on midpoints, from
    the factors of M and one product of QM with v."""
    if v.placement != "midpoints" or v.grid != grid or m.grid != grid:
        raise ValueError("variation, kernels, and grid must match on midpoints")
    h = grid.h
    vv = v.values
    out = h * float(np.dot(fields.h_uu.values, vv**2))
    cross = m.qm is not None and np.any(fields.h_yu.values)
    qv = m.qm @ vv if m.qm is not None else None
    if m.tail is not None:
        out += float(np.dot(m.tail, qv**2))
    if len(m.rows):
        out += float(np.dot(m.weights, (m.rows @ vv) ** 2))
    if cross:
        out += 2.0 * h * float(np.dot(vv * fields.h_yu.values, qv))
    return out


def _quadratic_matrix(fields: HamiltonianFields, m: MKernel, grid: Grid) -> np.ndarray:
    """Symmetric K with v^T K v = QF[v] for every midpoint sample vector.
    With a tail term K starts as QM's weighted product and takes h H_uu on
    its diagonal in place, so beside QM at most two n x n arrays are live.
    Without curvature rows or a cross term K is the diagonal diag(h H_uu),
    symmetric as built, and is returned as it is."""
    h = grid.h
    qm = m.qm
    cross = qm is not None and np.any(fields.h_yu.values)
    if m.tail is None:
        K = np.diag(fields.h_uu.values * h)
    else:
        K = qm.T @ (qm * m.tail[:, None])
        K.flat[:: len(K) + 1] += fields.h_uu.values * h
    if len(m.rows):
        K += m.rows.T @ (m.rows * m.weights[:, None])
    if cross:
        C = (fields.h_yu.values * h)[:, None] * qm
        K += C
        K += C.T
    if not np.isfinite(K).all():
        raise NumericsError("quadratic form matrix is not finite")
    if not (m.tail is not None or len(m.rows) or cross):
        return K
    return _symmetrized(K, "quadratic form")


def _gershgorin_bound(K: np.ndarray) -> float:
    """max_i (K_ii + sum_{j != i} |K_ij|), which no eigenvalue of K exceeds
    (Gershgorin); |K| lives only for its row sums."""
    d = np.diagonal(K)
    return float(np.max(d - np.abs(d) + np.abs(K).sum(axis=1)))


def _is_diagonal(K: np.ndarray) -> bool:
    """True when K has no off-diagonal non-zero, decided from the entries
    themselves (a rounded row sum would read tiny entries as zero)."""
    return np.count_nonzero(K) == np.count_nonzero(np.diagonal(K))


def second_order_test(problem: ProblemSpec, pair: tuple[Trajectory, Trajectory],
                      fields: HamiltonianFields, grid: Grid,
                      tol: float | None = None) -> SecondOrderReport:
    """Necessary-condition test at a singular control.

    fields are the Hamiltonian fields along the pair.  Builds K, takes its
    extreme eigenvalue, and returns the eigenvector as an improving direction
    when the form can be made positive.  A diagonal K (Q = 0, so
    K = diag(h H_uu)) has lambda_max as its largest entry, read with no
    eigensolver.  For any other K whose Gershgorin bound
    max_i (K_ii + sum_{j != i} |K_ij|) is at most tol the verdict can only be
    holds, and lambda_max alone is taken from `eigvalsh`.  The verdict always
    comes from a computed eigenvalue, and a violation's direction always from
    `eigh`.  If the control is not singular the test does not apply and the
    verdict is inconclusive.
    """
    verdict = detect_singular(fields, tol)
    if not verdict.singular:
        return SecondOrderReport("inconclusive", float("nan"), verdict.tol,
                                 verdict.sup_hu, None, None)
    K = _quadratic_matrix(fields, assemble_m_kernel(problem, pair, fields,
                                                    build_q_kernel(problem, pair, grid), grid),
                          grid)
    lam = np.inf
    if _is_diagonal(K):
        lam = float(np.diagonal(K).max())
    elif _gershgorin_bound(K) <= verdict.tol:
        lam = float(np.linalg.eigvalsh(K)[-1])
    if lam <= verdict.tol:
        return SecondOrderReport("holds", lam, verdict.tol, verdict.sup_hu, K, None)
    eigenvalues, eigenvectors = np.linalg.eigh(K)
    lam = float(eigenvalues[-1])
    if lam <= verdict.tol:
        return SecondOrderReport("holds", lam, verdict.tol, verdict.sup_hu, K, None)
    vec = eigenvectors[:, -1]
    vec = vec / vec[int(np.argmax(np.abs(vec)))]  # sup-norm one, peak positive: one sign
    return SecondOrderReport("violated", lam, verdict.tol, verdict.sup_hu, K,
                             Trajectory(grid, "midpoints", vec))
