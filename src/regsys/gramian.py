"""Quantitative controllability and observability on a grid.

The control operator is the matrix of the input map under the discrete L2
isometry (stack the per-step input values scaled by sqrt(dt)), so its
smallest singular value is the radius of surjectivity and its Gramian is
the product M M*. A Lyapunov-equation route exists as an independent test
oracle; the package itself has this one code path.

The robustness sweep closes a scaled identity loop in the lifted one-step
world (per-step recursion, not the block-composition formula, so the two
stay independent code paths) and tracks the smallest singular value of the
perturbed operator against the guaranteed Weyl-type lower bound.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import AdmissibilityError, ControllabilityError, GridError, ShapeError
from .feedback import _channels, _closed_step, _margin_norms, k0_bound, theta0_bound
from .grids import Signal, TimeGrid
from .node import (
    Realization,
    _checked_solve,
    _control_columns,
    _observation_rows,
    lifted_quadruple,
    quadruple_maps,
)

_EXACTNESS_RTOL = 1e-8


def _prefix_grid(g: TimeGrid, t0: float) -> TimeGrid:
    idx = g.index_of(t0)
    if idx < 1:
        raise GridError(f"horizon t0={t0} must cover at least one step")
    return g.prefix(idx)


@dataclass(frozen=True, eq=False)
class ControlOperatorMatrix:
    """Input map at horizon t0 as an n x (n_steps*m) matrix in discrete-L2
    coordinates (column block k is the state response at t0 to the
    indicator of step k, divided by sqrt(dt))."""

    matrix: np.ndarray = field(repr=False)
    t0: float
    grid: TimeGrid


@dataclass(frozen=True, eq=False)
class ObservationOperatorMatrix:
    """Output map on [0, t0] as an (n_steps*p) x n matrix in discrete-L2
    coordinates (row block j is the averaged output on step j times
    sqrt(dt))."""

    matrix: np.ndarray = field(repr=False)
    t0: float
    grid: TimeGrid


@dataclass(frozen=True, eq=False)
class GramianReport:
    gramian: np.ndarray = field(repr=False)
    sigma_min: float
    sigma_max: float
    verdict: bool
    radius: float


def control_operator(r: Realization, g: TimeGrid, t0: float | None = None) -> ControlOperatorMatrix:
    """Control operator matrix at horizon t0 (default: the full grid).

    Raises GridError when t0 is not a grid node.
    """
    sub = _prefix_grid(g, g.t_end if t0 is None else t0)
    phi = quadruple_maps(r, sub).input_map / np.sqrt(sub.dt)
    return ControlOperatorMatrix(phi, sub.t_end, sub)


def observation_operator(r: Realization, g: TimeGrid, t0: float | None = None) -> ObservationOperatorMatrix:
    """Observation operator matrix on [0, t0] (default: the full grid)."""
    sub = _prefix_grid(g, g.t_end if t0 is None else t0)
    psi = quadruple_maps(r, sub).output_map * np.sqrt(sub.dt)
    return ObservationOperatorMatrix(psi, sub.t_end, sub)


def surjectivity_radius(matrix: np.ndarray) -> float:
    """Smallest singular value of a map onto its row space: perturbations
    of operator norm below this value cannot destroy surjectivity, and a
    rank-one perturbation of exactly this norm can.

    Requires at least as many columns as rows.
    """
    m = np.atleast_2d(np.asarray(matrix))
    if m.shape[1] < m.shape[0]:
        raise ShapeError(
            f"surjectivity needs at least as many columns as rows, got {m.shape}"
        )
    return float(np.linalg.svd(m, compute_uv=False)[-1])


def observability_constant(r: Realization, g: TimeGrid, t0: float | None = None) -> float:
    """Largest k with ||Psi x|| >= k ||x|| in discrete-L2 norms."""
    psi = observation_operator(r, g, t0).matrix
    if psi.shape[0] < psi.shape[1]:
        return 0.0
    return float(np.linalg.svd(psi, compute_uv=False)[-1])


def gramian_report(op: ControlOperatorMatrix | ObservationOperatorMatrix) -> GramianReport:
    """Gramian and exactness verdict for a control or observation operator.

    The verdict is relative: smallest singular value above 1e-8 times the
    largest. For a control operator the radius is the radius of
    surjectivity; for an observation operator it is the observability
    constant.
    """
    m = op.matrix
    if isinstance(op, ControlOperatorMatrix):
        gram = m @ m.conj().T
    else:
        gram = m.conj().T @ m
    sv = np.linalg.svd(m, compute_uv=False)
    wide_enough = m.shape[1] >= m.shape[0] if isinstance(op, ControlOperatorMatrix) else m.shape[0] >= m.shape[1]
    sigma_min = float(sv[-1]) if wide_enough and sv.size else 0.0
    sigma_max = float(sv[0]) if sv.size else 0.0
    return GramianReport(
        gramian=gram,
        sigma_min=sigma_min,
        sigma_max=sigma_max,
        verdict=bool(sigma_min > _EXACTNESS_RTOL * sigma_max),
        radius=sigma_min,
    )


def min_norm_control(r: Realization, g: TimeGrid, t0: float, x_target: np.ndarray) -> Signal:
    """Least-discrete-L2-norm input steering 0 to x_target at time t0.

    Solves the normal equations through the Gramian, so the input lies in
    the row space of the control operator. Raises ControllabilityError
    when the Gramian is singular or the residual exceeds
    1e-8 * ||x_target||.
    """
    x_target = np.asarray(x_target, dtype=float).reshape(-1)
    if x_target.shape != (r.n,):
        raise ShapeError(f"x_target must have length {r.n}")
    op = control_operator(r, g, t0)
    phi = op.matrix
    sv = np.linalg.svd(phi, compute_uv=False)
    if phi.shape[1] < phi.shape[0] or sv[-1] <= _EXACTNESS_RTOL * max(sv[0], 1.0):
        raise ControllabilityError(
            f"system is not exactly controllable at t0={op.t0} "
            f"(sigma_min={sv[-1] if sv.size else 0.0:.3e})"
        )
    gram = phi @ phi.T
    u_hat = phi.T @ np.linalg.solve(gram, x_target)
    residual = np.linalg.norm(phi @ u_hat - x_target)
    if residual > 1e-8 * max(np.linalg.norm(x_target), 1e-300):
        raise ControllabilityError(f"normal equations left residual {residual:.3e}")
    sub = op.grid
    vals = u_hat.reshape(sub.n_steps, r.m) / np.sqrt(sub.dt)
    # trailing node repeats the last step value; the input map never reads it
    vals = np.vstack([vals, vals[-1:]])
    return Signal(sub, vals)


@dataclass(frozen=True, eq=False)
class SweepReport:
    """Gain sweep of the perturbed operator's smallest singular value."""

    mode: str
    bound_gain: float
    alpha0: float | None
    k_values: np.ndarray = field(repr=False)
    sigma_min: np.ndarray = field(repr=False)
    bound: np.ndarray = field(repr=False)
    within_bound: np.ndarray = field(repr=False)
    k_star: float | None
    margin: float | None
    norms: dict

    def to_json_dict(self) -> dict:
        key = "k0" if self.mode == "across" else "theta0"
        return {
            key: self.bound_gain,
            "k_star": self.k_star,
            "margin": self.margin,
        }

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["k", "sigma_min", "bound", "within_bound"])
            for k, s, b, w in zip(self.k_values, self.sigma_min, self.bound, self.within_bound):
                writer.writerow([repr(float(k)), repr(float(s)), repr(float(b)), int(w)])


def robustness_sweep(
    main: Realization,
    pert: Realization,
    g: TimeGrid,
    t0: float,
    mode: str,
    k_grid: np.ndarray | None = None,
    alpha0: float | None = None,
) -> SweepReport:
    """Sweep the gain k of the identity loop u = k y + v and measure the
    smallest singular value of the perturbed control operator (mode
    "across": pert shares A and C, contributes DB and P) or the perturbed
    observation operator (mode "cross": pert shares A and B, contributes
    DC and P).

    All sweep points are closed at once in the lifted one-step world, on
    the one-step matrices of main with pert's channel stacked on (batched
    over the gains), and each takes an SVD. A gain at which I - k D_bar is
    numerically singular (the gate of `_checked_solve` at rtol 1e-12) gets
    sigma 0.0.

    The default grid is 32 logarithmic points in (0, 2*k0] (across) or
    (0, 2*theta0] (cross). The bound column is the guaranteed Weyl lower
    bound, zero once the gain leaves the guaranteed range. The report
    records the first grid gain k_star at which the verdict fails (None if
    it never fails) and the margin k_star / bound_gain.

    Refuses (ControllabilityError) when the base perturbed operator is not
    bounded below at t0.
    """
    if mode not in ("across", "cross"):
        raise ValueError(f"mode must be 'across' or 'cross', got {mode!r}")
    if main.m != main.p:
        raise ShapeError("the looped system must be square (m == p)")
    sub = _prefix_grid(g, t0)
    n_steps = sub.n_steps
    qm_main = quadruple_maps(main, sub)
    qm_pert = quadruple_maps(pert, sub)
    sqdt = np.sqrt(sub.dt)
    norms, level, top = _margin_norms(mode, qm_main, qm_pert, main.D, sub.dt)
    if level <= _EXACTNESS_RTOL * max(top, 1.0):
        side = "input map is not onto" if mode == "across" else "output map is not bounded below"
        raise ControllabilityError(f"base {side} at t0")
    if mode == "across":
        bound_gain = k0_bound(norms)
        spread = norms["control_norm"] * norms["pert_io_norm"]
        threshold = _EXACTNESS_RTOL * top
        alpha = None
    else:
        alpha = level / 2.0 if alpha0 is None else float(alpha0)
        norms["alpha0"] = alpha
        bound_gain = theta0_bound(norms)
        spread = norms["pert_io_norm"] * norms["obs_norm"]
        threshold = alpha

    if k_grid is None:
        k_grid = np.logspace(np.log10(bound_gain) - 3, np.log10(2.0 * bound_gain), 32)
    k_grid = np.asarray(k_grid, dtype=float)

    m = main.m
    stack = _channels(main, b=pert) if mode == "across" else _channels(main, c=pert)
    step = lifted_quadruple(stack, sub.dt)
    live, S = np.ones(k_grid.shape, dtype=bool), []
    for j, k in enumerate(k_grid):
        try:
            S.append(_checked_solve(np.eye(m) - k * step[3][:m, :m], np.eye(m), 1e-12,
                                    AdmissibilityError, f"I - {k} D_bar"))
        except AdmissibilityError:
            live[j] = False
    E_cl, M_cl, C_cl, _ = _closed_step(step, m, np.reshape(S, (-1, m, m)), k_grid[live])
    if mode == "across":
        op = _control_columns(E_cl, M_cl, n_steps) / sqdt
    else:
        op = _observation_rows(C_cl, E_cl, n_steps) * sqdt
    sig = np.zeros_like(k_grid)
    sig[live] = np.linalg.svd(op, compute_uv=False)[:, -1]

    bound = np.zeros_like(k_grid)
    io_norm = norms["io_norm"]
    inside = k_grid * io_norm < 1.0
    bound[inside] = level - k_grid[inside] * spread / (1.0 - k_grid[inside] * io_norm)
    bound = np.maximum(bound, 0.0)

    # verdict per point: sigma stays above the guarantee and above the
    # exactness floor, with relative slack so rounding at the boundary
    # cannot flag a spurious failure; breakdown is the first failing gain
    slack = 1e-9 * max(level, 1.0)
    ok = sig + slack >= np.maximum(bound, threshold)
    fails = np.flatnonzero(~ok)
    k_star = float(k_grid[fails[0]]) if fails.size else None
    margin = (k_star / bound_gain) if k_star is not None else None
    return SweepReport(
        mode=mode,
        bound_gain=float(bound_gain),
        alpha0=alpha,
        k_values=k_grid,
        sigma_min=sig,
        bound=bound,
        within_bound=ok,
        k_star=k_star,
        margin=margin,
        norms=norms,
    )
