"""Quantitative controllability and observability on a grid.

The control operator is the matrix of the input map under the discrete L2
isometry (stack the per-step input values scaled by sqrt(dt)), so its
smallest singular value is the radius of surjectivity and its Gramian is
the product M M*. A Lyapunov-equation route exists as an independent test
oracle; the package itself has this one code path.

The robustness sweep closes a scaled identity loop in the lifted one-step
world (powers of the closed one-step matrices, independent of the block
composition) and tracks the smallest singular value of the perturbed
operator against the guaranteed Weyl-type lower bound.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import AdmissibilityError, ControllabilityError, GridError, ShapeError
from .feedback import _closed_step, _companion_stack, _margin_norms, _open_blocks, _sides
from .grids import Signal, TimeGrid
from .node import _EXACTNESS_RTOL, Realization, _checked_solve, _exactness, _grid_map, lifted_quadruple


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
    phi = _grid_map(lifted_quadruple(r, sub.dt), None, slice(None), sub.n_steps) / np.sqrt(sub.dt)
    return ControlOperatorMatrix(phi, sub.t_end, sub)


def observation_operator(r: Realization, g: TimeGrid, t0: float | None = None) -> ObservationOperatorMatrix:
    """Observation operator matrix on [0, t0] (default: the full grid)."""
    sub = _prefix_grid(g, g.t_end if t0 is None else t0)
    psi = _grid_map(lifted_quadruple(r, sub.dt), slice(None), None, sub.n_steps) * np.sqrt(sub.dt)
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
    return _exactness(m, True)[0]


def observability_constant(r: Realization, g: TimeGrid, t0: float | None = None) -> float:
    """Largest k with ||Psi x|| >= k ||x|| in discrete-L2 norms (0.0 when
    Psi has fewer rows than columns)."""
    return _exactness(observation_operator(r, g, t0).matrix, False)[0]


def gramian_report(op: ControlOperatorMatrix | ObservationOperatorMatrix) -> GramianReport:
    """Gramian and exactness verdict for a control or observation operator.

    The verdict is the package's one exactness rule (`node._exactness`):
    smallest singular value above 1e-8 times the largest, floored at 1.
    For a control operator the radius is the radius of surjectivity; for
    an observation operator it is the observability constant.
    """
    m = op.matrix
    control = isinstance(op, ControlOperatorMatrix)
    gram = m @ m.conj().T if control else m.conj().T @ m
    level, top, exact = _exactness(m, control)
    return GramianReport(gramian=gram, sigma_min=level, sigma_max=top, verdict=exact, radius=level)


def min_norm_control(r: Realization, g: TimeGrid, t0: float, x_target: np.ndarray) -> Signal:
    """Least-discrete-L2-norm input steering 0 to x_target at time t0.

    Behind the exactness verdict of `node._exactness`, the input is
    V Sigma^-1 U* x_target from the thin SVD U Sigma V* of the control
    operator, so it lies in the operator's row space; the normal equations
    through the Gramian would square the condition number (Golub & Van
    Loan, Matrix Computations, sec. 5.3). Raises ControllabilityError when
    the control operator is not onto, or when the residual exceeds
    1e-8 * ||x_target||.
    """
    x_target = np.asarray(x_target, dtype=float).reshape(-1)
    if x_target.shape != (r.n,):
        raise ShapeError(f"x_target must have length {r.n}")
    op = control_operator(r, g, t0)
    phi = op.matrix
    level, _, exact = _exactness(phi, True)
    if not exact:
        raise ControllabilityError(f"system is not exactly controllable at t0={op.t0} (sigma_min={level:.3e})")
    u, s, vh = np.linalg.svd(phi, full_matrices=False)
    u_hat = vh.conj().T @ ((u.conj().T @ x_target) / s)
    residual = np.linalg.norm(phi @ u_hat - x_target)
    if residual > 1e-8 * max(np.linalg.norm(x_target), 1e-300):
        raise ControllabilityError(f"the SVD solve left residual {residual:.3e}")
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
) -> SweepReport:
    """Sweep the gain k of the identity loop u = k y + v and measure the
    smallest singular value of the perturbed control operator (mode
    "across": pert shares A and C, contributes DB and P) or the perturbed
    observation operator (mode "cross": pert shares A and B, contributes
    DC and P).

    One lifted step of main with pert's channel stacked on gives both the
    margin (its open blocks, `feedback._margin_norms`, theta0 at alpha0 =
    obs_constant / 2) and every sweep point: all are closed at
    once in the lifted one-step world (batched over the gains), and each
    takes an SVD. A gain at which I - k D_bar is numerically singular (the
    gate of `_checked_solve` at rtol 1e-12) gets sigma 0.0.

    The default grid is 32 logarithmic points in (0, 2*k0] (across) or
    (0, 2*theta0] (cross). The bound column is the guaranteed Weyl lower
    bound, zero once the gain leaves the guaranteed range. A point passes
    when sigma stays above that bound and above a floor: the exactness
    floor 1e-8 max(top, 1) of the base operator (across) or alpha0 (cross).
    The report records the first grid gain k_star at which the verdict
    fails (None if it never fails) and the margin k_star / bound_gain.

    Refuses (ValueError) a grid gain that is negative or not finite, since
    the Weyl bound holds only for 0 <= k; (ShapeError) a companion that
    does not share A and C (across) or A and B (cross); and
    (ControllabilityError) a base perturbed operator that is not onto
    (across) or not bounded below (cross) at t0, by the rule of
    `node._exactness`.
    """
    if mode not in ("across", "cross"):
        raise ValueError(f"mode must be 'across' or 'cross', got {mode!r}")
    if k_grid is not None:
        k_grid = np.asarray(k_grid, dtype=float)
        bad = ~(np.isfinite(k_grid) & (k_grid >= 0.0))
        if bad.any():
            raise ValueError(f"every gain must be finite and nonnegative, got {k_grid[bad][0]}")
    stack = _companion_stack(mode, main, pert)
    sub = _prefix_grid(g, t0)
    n_steps, m = sub.n_steps, main.m
    step = lifted_quadruple(stack, sub.dt)
    norms, bound_gain, top = _margin_norms(mode, _open_blocks(mode, step, m, n_steps), main.D, sub.dt)
    if bound_gain is None:
        side = "input map is not onto" if mode == "across" else "output map is not bounded below"
        raise ControllabilityError(f"base {side} at t0")
    if mode == "across":
        level, alpha, threshold = norms["radius"], None, _EXACTNESS_RTOL * max(top, 1.0)
        spread = norms["control_norm"] * norms["pert_io_norm"]
    else:
        level, alpha = norms["obs_constant"], norms["alpha0"]
        spread = norms["pert_io_norm"] * norms["obs_norm"]
        threshold = alpha

    if k_grid is None:
        k_grid = np.logspace(np.log10(bound_gain) - 3, np.log10(2.0 * bound_gain), 32)

    live, S = np.ones(k_grid.shape, dtype=bool), []
    for j, k in enumerate(k_grid):
        try:
            S.append(_checked_solve(np.eye(m) - k * step[3][:m, :m], np.eye(m), 1e-12,
                                    AdmissibilityError, f"I - {k} D_bar"))
        except AdmissibilityError:
            live[j] = False
    closed = _closed_step(step, m, np.reshape(S, (-1, m, m)), k_grid[live])
    op, sqdt = _grid_map(closed, *_sides(mode, 0), n_steps), np.sqrt(sub.dt)
    op = op / sqdt if mode == "across" else op * sqdt
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
