"""Boundary realizations on an extended coordinate space.

A boundary triple here is a matrix pencil picture of a boundary-controlled
system: the extended space stacks interior coordinates first and boundary
coordinates last, L acts row-wise on the interior coordinates, and the
trace maps G (and optionally G2) cut out the interior state space as their
kernel. Observation rows K (and optionally W) read the extended vector.

Chart convention. With n interior coordinates the stacked traces split as
T = [T_i T_b], where the boundary block T_b is square and must be
invertible. Every boundary object then has a closed form, computed once
per triple with no shift:

    basis = [I; -T_b^-1 T_i]        kernel of T, identity interior block
    A     = L_ii - L_ib T_b^-1 T_i   interior rows of L on the basis
    p     = [0; T_b^-1 e_ch]        zero-interior lift of channel ch
    B     = L_ib T_b^-1 e_ch        interior rows of L on the lift

The Dirichlet lift is D_lam = basis (lam - A)^-1 B + p, the transfer
function of (A, B, basis, p). So B = (lam - A) (interior part of D_lam) at
every shift, the boundary-system identity B = (lam - A_-1) D_lam, and an
observation O has O D_lam = O basis (lam - A)^-1 B + O p, whose limit as
lam grows is the regular feedthrough O p (Salamon 1987; Weiss 1994,
"Transfer functions of regular linear systems"). Open- and closed-loop
restrictions live in the same interior coordinates, which is what lets the
feed-in composition formulas be checked as matrix identities.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
# not called here; kept importable because perfbench/spans.py wraps them by name
from scipy.linalg import lu_factor, lu_solve  # noqa: F401

from .errors import AdmissibilityError, ShapeError
from .node import Realization, _as_matrix, _checked_solve, _decode_matrix, _encode_matrix, transfer

_RANK_RTOL = 1e-10
_LOOP_RTOL = 1e-8


@dataclass(frozen=True, eq=False)
class BoundaryTriple:
    """Extended-space pencil (L, G, K) with optional second trace G2 and
    second observation W.

    The interior row count is derived from the shapes: extended dimension
    minus the rows of all traces. The stacked traces must have full row
    rank (checked here, ShapeError) and their boundary block must be
    invertible (checked when the chart is first read, AdmissibilityError).
    """

    L: np.ndarray = field(repr=False)
    G: np.ndarray = field(repr=False)
    K: np.ndarray = field(repr=False)
    G2: np.ndarray | None = field(default=None, repr=False)
    W: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        L = _as_matrix(self.L, "L")
        if L.shape[0] != L.shape[1]:
            raise ShapeError(f"L must be square, got {L.shape}")
        object.__setattr__(self, "L", L)
        for name in ("G", "K", "G2", "W"):
            value = getattr(self, name)
            if value is None and name in ("G2", "W"):
                continue
            m = _as_matrix(value, name)
            if m.shape[1] != L.shape[0]:
                raise ShapeError(f"{name} must have {L.shape[0]} columns, got {m.shape[1]}")
            object.__setattr__(self, name, m)
        traces = self.traces()
        if traces.shape[0] >= self.dim:
            raise ShapeError("traces leave no interior coordinates")
        sv = np.linalg.svd(traces, compute_uv=False)
        if sv[-1] <= _RANK_RTOL * sv[0]:
            raise ShapeError("stacked traces are rank deficient")

    @property
    def dim(self) -> int:
        return self.L.shape[0]

    @property
    def n_interior(self) -> int:
        extra = 0 if self.G2 is None else self.G2.shape[0]
        return self.dim - self.G.shape[0] - extra

    def traces(self) -> np.ndarray:
        return self.G if self.G2 is None else np.vstack([self.G, self.G2])

    @cached_property
    def _chart(self) -> "RestrictedGenerator":
        return _build_chart(self)

    def to_json_dict(self) -> dict:
        """Matrices in the JSON matrix format of Realization; absent optional
        traces and observations are left out."""
        return {k: _encode_matrix(getattr(self, k)) for k in ("L", "G", "K", "G2", "W")
                if getattr(self, k) is not None}

    @staticmethod
    def from_json_dict(doc: dict) -> "BoundaryTriple":
        return BoundaryTriple(**{k: _decode_matrix(doc[k]) for k in ("L", "G", "K", "G2", "W")
                                 if k in doc})

    def save_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh)

    @staticmethod
    def load_json(path) -> "BoundaryTriple":
        with open(path) as fh:
            return BoundaryTriple.from_json_dict(json.load(fh))


@dataclass(frozen=True, eq=False)
class RestrictedGenerator:
    """The chart of a triple (module docstring): the interior restriction
    a = A, the embedding basis of interior coordinates into the extended
    space (its interior block is the identity), the zero-interior lifts of
    all trace rows (lift, one column per trace row, channels in trace
    order) and their control matrix (control = interior rows of L on
    lift). Computed once per triple; the arrays are shared and read-only."""

    a: np.ndarray = field(repr=False)
    basis: np.ndarray = field(repr=False)
    lift: np.ndarray = field(repr=False)
    control: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.a.shape[0]


def _build_chart(bt: BoundaryTriple) -> RestrictedGenerator:
    n = bt.n_interior
    traces = bt.traces()
    t_b = traces[:, n:]
    # one solve gives T_b^-1 T_i and T_b^-1
    x = _checked_solve(t_b, np.hstack([traces[:, :n], np.eye(t_b.shape[0])]), _RANK_RTOL,
                       AdmissibilityError, "the boundary block T_b of the traces")
    x_i, x_b = x[:, :n], x[:, n:]
    rows = bt.L[:n]
    arrays = {
        "a": rows[:, :n] - rows[:, n:] @ x_i,
        "basis": np.vstack([np.eye(n), -x_i]),
        "lift": np.vstack([np.zeros((n, t_b.shape[0])), x_b]),
        "control": rows[:, n:] @ x_b,
    }
    for arr in arrays.values():
        arr.setflags(write=False)
    return RestrictedGenerator(**arrays)


def restrict_generator(bt: BoundaryTriple) -> RestrictedGenerator:
    """Restriction of L to the kernel of the stacked traces, in interior
    coordinates: the triple's chart.

    Raises AdmissibilityError when the kernel cannot be charted by interior
    coordinates (singular boundary block); rank-deficient traces are
    already refused at triple construction.
    """
    return bt._chart


@dataclass(frozen=True, eq=False)
class DirichletMap:
    """Lift of boundary data into ker(lam - L) for one input channel."""

    lam: float
    matrix: np.ndarray = field(repr=False)
    channel: str


def _channel_block(bt: BoundaryTriple, channel: str) -> slice:
    b1 = bt.G.shape[0]
    if channel == "primary":
        return slice(0, b1)
    if channel == "secondary":
        if bt.G2 is None:
            raise ShapeError("triple has no secondary trace")
        return slice(b1, b1 + bt.G2.shape[0])
    raise ValueError(f"channel must be 'primary' or 'secondary', got {channel!r}")


def dirichlet_map(bt: BoundaryTriple, lam: float, channel: str = "primary") -> DirichletMap:
    """Solution z of [(lam - L) interior rows; traces] z = [0; indicator]
    for the selected channel, one column per channel input.

    Computed as D_lam = basis (lam - A)^-1 B + p (module docstring), one
    n x n LU per shift. Raises SpectrumError when lam is numerically an
    eigenvalue of the restriction (the rcond gate of `transfer`).
    """
    chart, cols = bt._chart, _channel_block(bt, channel)
    lift = Realization(chart.a, chart.control[:, cols], chart.basis, chart.lift[:, cols])
    return DirichletMap(lam=float(lam), matrix=transfer(lift, lam), channel=channel)


def control_operator_from_triple(bt: BoundaryTriple, lam: float,
                                 channel: str = "primary") -> np.ndarray:
    """Control matrix B = (lam - A) (interior part of the channel's
    Dirichlet lift), in interior coordinates.

    In this chart B = L_ib T_b^-1 e_ch exactly (module docstring), so the
    result does not depend on lam; it is read from the triple's chart.
    """
    return bt._chart.control[:, _channel_block(bt, channel)]


@dataclass(frozen=True, eq=False)
class FeedthroughEstimate:
    """Richardson-extrapolated limit of (observation) * (Dirichlet lift)
    along a geometric shift sweep.

    A Neville level k >= 1 is certified when the residuals of the last
    three nodes against it decrease and the final one is below
    1e-4 * (1 + |value|) (or the whole tail sits at rounding level), and
    its Richardson error estimate |level k - level k-1| is below the same
    tolerance. value is the deepest certified level, or None when no level
    is certified (converged is then False)."""

    value: np.ndarray | None
    lambdas: np.ndarray
    residuals: np.ndarray
    converged: bool
    table_entry: np.ndarray = field(repr=False)

    def to_json_dict(self) -> dict:
        return {
            "converged": self.converged,
            "lambdas": [float(x) for x in self.lambdas],
            "residuals": [float(x) for x in self.residuals],
            "value": None if self.value is None else [[float(v) for v in row] for row in self.value],
        }


def default_shift_sweep(bt: BoundaryTriple, n_nodes: int = 11) -> np.ndarray:
    """Geometric shifts lam_j = lam0 * 2^j, j = 0..n_nodes-1, with lam0
    ten above ||A||_inf, a bound on the spectral radius of the restriction,
    so that every node lies past the spectrum."""
    lam0 = float(np.linalg.norm(bt._chart.a, np.inf)) + 10.0
    return lam0 * 2.0 ** np.arange(n_nodes)


def _observation_block(bt: BoundaryTriple, observation: str) -> np.ndarray:
    if observation == "K":
        return bt.K
    if observation == "W":
        if bt.W is None:
            raise ShapeError("triple has no W observation")
        return bt.W
    raise ValueError(f"observation must be 'K' or 'W', got {observation!r}")


def feedthrough_estimate(
    bt: BoundaryTriple,
    lambda_sweep: np.ndarray | None = None,
    channel: str = "primary",
    observation: str = "K",
) -> FeedthroughEstimate:
    """Feedthrough limit of the selected observation row block through the
    selected input channel.

    Evaluates obs * D_lam along the sweep, one `transfer` call per shift,
    and extrapolates in 1/lam by a Neville table on the geometric nodes.
    The residual trace is the raw distance of each sweep sample from the
    extrapolated value; the convergence verdict follows the rule
    documented on FeedthroughEstimate. A non-convergent tail withholds the
    value.
    """
    return _feedthrough_estimates(bt, lambda_sweep, [(channel, observation)])[channel, observation]


def _feedthrough_estimates(bt: BoundaryTriple, lambda_sweep, pairs) -> dict:
    """{(channel, observation): FeedthroughEstimate} for every pair, as
    `feedthrough_estimate` gives it, from one `transfer` call per shift
    over all channels and the stacked observations of the pairs."""
    obs = {name: _observation_block(bt, name) for _, name in pairs}
    sweep = default_shift_sweep(bt) if lambda_sweep is None else np.asarray(lambda_sweep, dtype=float)
    if sweep.size < 2 or np.any(np.diff(sweep) <= 0):
        raise ValueError("shift sweep must be increasing with at least two nodes")
    cols = {ch: _channel_block(bt, ch) for ch, _ in pairs}
    ends = np.cumsum([block.shape[0] for block in obs.values()])
    rows = {name: slice(end - block.shape[0], end) for (name, block), end in zip(obs.items(), ends)}
    # (A, B, obs basis, obs p) over all channels: its transfer is obs D_lam
    stacked, chart = np.vstack(list(obs.values())), bt._chart
    r = Realization(chart.a, chart.control, stacked @ chart.basis, stacked @ chart.lift)
    samples = [transfer(r, lam) for lam in sweep]
    return {(ch, name): _certify(sweep, [s[rows[name], cols[ch]] for s in samples])
            for ch, name in pairs}


def _certify(sweep: np.ndarray, samples: list) -> FeedthroughEstimate:
    """The Neville extrapolation and certification of one sample trace."""
    # Neville table in 1/lam on geometric nodes (ratio factors 2^k - 1).
    # Deeper levels sharpen resolvent-type 1/lam tails but are ruined by
    # exponentially small tails, so take the deepest certified level.
    levels = [list(samples)]
    while len(levels[-1]) > 1:
        prev = levels[-1]
        k = len(levels)
        levels.append(
            [prev[j + 1] + (prev[j + 1] - prev[j]) / (2.0**k - 1.0) for j in range(len(prev) - 1)]
        )
    candidates = [lv[-1] for lv in levels]

    def residuals_of(cand: np.ndarray) -> np.ndarray:
        return np.array([np.max(np.abs(s - cand)) for s in samples])

    def certified(k: int, res: np.ndarray) -> bool:
        scale = 1.0 + float(np.max(np.abs(candidates[k])))
        if res.size < 3 or np.max(np.abs(candidates[k] - candidates[k - 1])) > 1e-4 * scale:
            return False
        tail = res[-3:]
        if np.all(tail <= 1e-12 * scale):
            return True
        return bool(np.all(np.diff(tail) < 0)) and tail[-1] < 1e-4 * scale

    # level 0 (the last sample) has no Richardson estimate and never certifies
    value, residuals, converged = None, residuals_of(candidates[-1]), False
    for k in range(len(candidates) - 1, 0, -1):
        res = residuals_of(candidates[k])
        if certified(k, res):
            value, residuals, converged = candidates[k], res, True
            break
    return FeedthroughEstimate(
        value=value,
        lambdas=sweep,
        residuals=residuals,
        converged=converged,
        table_entry=candidates[-1],
    )


def _require_feedthrough(est: FeedthroughEstimate, what: str) -> np.ndarray:
    if not est.converged or est.value is None:
        raise AdmissibilityError(f"{what} feedthrough sweep did not converge "
                                 f"(final residual {est.residuals[-1]:.3e})")
    return est.value


def _rel(formula: np.ndarray, direct: np.ndarray) -> float:
    return float(np.max(np.abs(formula - direct)) / max(np.max(np.abs(direct)), 1.0))


@dataclass(frozen=True, eq=False)
class FeedInReport:
    """Composite system from feeding one boundary channel back.

    realization holds (A closed, composite B from the feedthrough formula,
    retained observation on the closed domain, composite feedthrough).
    Deviations compare the formula route against the direct restriction of
    the closed-loop triple; residual traces come from the feedthrough
    sweeps.
    """

    realization_matrices: dict
    deviation_b: float | None
    deviation_c: float | None
    deviation_d: float | None
    feedthroughs: dict
    residual_traces: dict

    def to_json_dict(self) -> dict:
        def enc(m):
            return [[float(v) for v in row] for row in np.atleast_2d(m)]

        doc = {"deviations": {"b": self.deviation_b, "c": self.deviation_c, "d": self.deviation_d},
               "residual_traces": {k: [float(x) for x in v] for k, v in self.residual_traces.items()},
               "feedthroughs": {k: enc(v) for k, v in self.feedthroughs.items()}}
        doc["matrices"] = {k: enc(v) for k, v in self.realization_matrices.items()}
        return doc


def close_boundary_loop(bt: BoundaryTriple, gain: float | np.ndarray = 1.0,
                        observation: str = "K") -> RestrictedGenerator:
    """Restrict the generator to the loop (primary trace) = gain * (obs z)
    for a triple whose only boundary channel is the primary one. Returns
    the closed-loop generator in the interior coordinates."""
    if bt.G2 is not None:
        raise ShapeError("loop-only closure expects a single boundary channel")
    obs = _observation_block(bt, observation)
    rows = bt.G.shape[0]
    if obs.shape[0] != rows:
        raise ShapeError("observation rows must match the primary trace rows")
    gain_mat = np.atleast_2d(np.asarray(gain, dtype=float))
    if gain_mat.shape == (1, 1) and rows > 1:
        gain_mat = gain_mat[0, 0] * np.eye(rows)
    if gain_mat.shape != (rows, rows):
        raise ShapeError(f"gain must be scalar or {rows}x{rows}")
    closed = BoundaryTriple(L=bt.L, G=bt.G - gain_mat @ obs, K=bt.K, W=bt.W)
    return restrict_generator(closed)


def feed_in_observe(bt: BoundaryTriple, lambda_sweep: np.ndarray | None = None) -> FeedInReport:
    """Close the loop (primary trace) = W z and keep K as the output:
    returns the closed generator with the retained observation, which per
    the composition formula equals
        K on ker(traces) + Kbar (I - Wbar)^-1 (W on ker(traces)),
    verified against K restricted to the closed-loop domain directly.
    """
    if bt.W is None:
        raise ShapeError("feed_in_observe needs a W observation to feed back")
    if bt.W.shape[0] != bt.G.shape[0]:
        raise ShapeError("W must have as many rows as the primary trace to close the loop")
    rg = restrict_generator(bt)
    est = _feedthrough_estimates(bt, lambda_sweep, [("primary", "W"), ("primary", "K")])
    q_bar = _require_feedthrough(est["primary", "W"], "feedback observation")
    k_bar = _require_feedthrough(est["primary", "K"], "retained observation")
    eye = np.eye(q_bar.shape[0])
    inv_loop = _checked_solve(eye - q_bar, eye, _LOOP_RTOL, AdmissibilityError,
                              "I minus the feedback feedthrough")
    c_formula = bt.K @ rg.basis + k_bar @ inv_loop @ (bt.W @ rg.basis)

    rg_cl = restrict_generator(BoundaryTriple(L=bt.L, G=bt.G - bt.W, G2=bt.G2, K=bt.K))
    c_direct = bt.K @ rg_cl.basis

    return FeedInReport(
        realization_matrices={"a": rg_cl.a, "c": c_formula, "c_direct": c_direct},
        deviation_b=None,
        deviation_c=_rel(c_formula, c_direct),
        deviation_d=None,
        feedthroughs={"q_bar": q_bar, "k_bar": k_bar},
        residual_traces={"feedback": est["primary", "W"].residuals,
                         "retained": est["primary", "K"].residuals},
    )


def feed_in_full(bt: BoundaryTriple, lambda_sweep: np.ndarray | None = None) -> FeedInReport:
    """Close the loop (primary trace) = K z, input through the secondary
    trace, observe W: full composite with control matrix
        B1 (I - Kbar1)^-1 Kbar2 + B2
    and feedthrough
        Wbar1 (I - Kbar1)^-1 Kbar2 + Wbar2,
    each piece verified against the direct closed-loop triple (generator,
    control matrix, observation, and the closed loop's own feedthrough
    sweep)."""
    if bt.G2 is None or bt.W is None:
        raise ShapeError("feed_in_full needs a secondary trace and a W observation")
    if bt.K.shape[0] != bt.G.shape[0]:
        raise ShapeError("K must have as many rows as the primary trace to close the loop")
    rg = restrict_generator(bt)
    b1 = rg.control[:, _channel_block(bt, "primary")]
    b2 = rg.control[:, _channel_block(bt, "secondary")]
    est = _feedthrough_estimates(bt, lambda_sweep, [(ch, obs) for ch in ("primary", "secondary")
                                                    for obs in ("K", "W")])
    k1 = _require_feedthrough(est["primary", "K"], "K primary")
    k2 = _require_feedthrough(est["secondary", "K"], "K secondary")
    w1 = _require_feedthrough(est["primary", "W"], "W primary")
    w2 = _require_feedthrough(est["secondary", "W"], "W secondary")
    eye = np.eye(k1.shape[0])
    inv_loop = _checked_solve(eye - k1, eye, _LOOP_RTOL, AdmissibilityError,
                              "I minus the feedback feedthrough")
    b_formula = b1 @ inv_loop @ k2 + b2
    d_formula = w1 @ inv_loop @ k2 + w2
    # retained observation on the closed domain, composed through the loop
    c_formula = bt.W @ rg.basis + w1 @ inv_loop @ (bt.K @ rg.basis)

    # the closed loop G z = K z; the secondary trace becomes its input
    closed = BoundaryTriple(L=bt.L, G=bt.G2, G2=bt.G - bt.K, K=bt.K, W=bt.W)
    rg_cl = restrict_generator(closed)
    b_direct = rg_cl.control[:, _channel_block(closed, "primary")]
    c_direct = bt.W @ rg_cl.basis
    est_d = feedthrough_estimate(closed, lambda_sweep, "primary", "W")
    d_direct = _require_feedthrough(est_d, "composite")

    return FeedInReport(
        realization_matrices={"a": rg_cl.a, "b": b_formula, "b_direct": b_direct,
                              "c": c_formula, "c_direct": c_direct,
                              "d": d_formula, "d_direct": d_direct},
        deviation_b=_rel(b_formula, b_direct),
        deviation_c=_rel(c_formula, c_direct),
        deviation_d=_rel(d_formula, d_direct),
        feedthroughs={"k_bar_primary": k1, "k_bar_secondary": k2,
                      "w_bar_primary": w1, "w_bar_secondary": w2},
        residual_traces={"w_primary": est["primary", "W"].residuals,
                         "w_secondary": est["secondary", "W"].residuals,
                         "composite": est_d.residuals},
    )


def laplacian_triple(n_nodes: int) -> BoundaryTriple:
    """1-D Laplacian stand-in on [0, 1]: second difference on n_nodes
    interior-plus-right points with the left value clamped to zero, trace
    G = value at the right end (an explicit coordinate), observation K =
    value at the left-most free node.

    With z'' = lam z, z(0) = 0, z(1) = u the Dirichlet lift follows the
    sinh profile sinh(sqrt(lam) x)/sinh(sqrt(lam)).
    """
    if n_nodes < 3:
        raise ShapeError("need at least three nodes")
    dx = 1.0 / n_nodes
    dim = n_nodes  # nodes x_1 .. x_n, with x_n the boundary coordinate
    L = np.zeros((dim, dim))
    for i in range(dim - 1):
        L[i, i] = -2.0 / dx**2
        if i - 1 >= 0:
            L[i, i - 1] = 1.0 / dx**2
        L[i, i + 1] = 1.0 / dx**2
    G = np.zeros((1, dim))
    G[0, -1] = 1.0
    K = np.zeros((1, dim))
    K[0, 0] = 1.0
    return BoundaryTriple(L=L, G=G, K=K)


def wave_triple(n_cells: int,
                k_gains: tuple[float, float] = (0.4, 0.3),
                w_gains: tuple[float, float] = (0.2, 0.5)) -> BoundaryTriple:
    """1-D wave stand-in with force inputs at both ends, used to exercise
    the full feed-in composite.

    Extended coordinates: displacements w_0..w_n, velocities v_0..v_n, then
    the two boundary coordinates s1 (force at the right end) and s2 (force
    at the left end). K reads the right-end velocity plus k_gains * (s1,
    s2); W reads the left-end velocity plus w_gains * (s1, s2). The
    velocity parts have vanishing feedthrough (order 1/lam), so the
    feedthrough limits are exactly the gain entries and the composite
    feedthrough is w1/(1-k1)*k2 + w2.
    """
    if n_cells < 4:
        raise ShapeError("need at least four cells")
    n_pts = n_cells + 1
    dx = 1.0 / n_cells
    # P1 stiffness and lumped (trapezoid) masses on all points, free ends
    S = np.zeros((n_pts, n_pts))
    for e in range(n_cells):
        S[e, e] += 1.0 / dx
        S[e + 1, e + 1] += 1.0 / dx
        S[e, e + 1] -= 1.0 / dx
        S[e + 1, e] -= 1.0 / dx
    masses = np.full(n_pts, dx)
    masses[0] = masses[-1] = dx / 2.0
    dim = 2 * n_pts + 2
    L = np.zeros((dim, dim))
    L[:n_pts, n_pts : 2 * n_pts] = np.eye(n_pts)
    L[n_pts : 2 * n_pts, :n_pts] = -S / masses[:, None]
    L[2 * n_pts - 1, 2 * n_pts] = 1.0 / masses[-1]   # s1 forces the right end
    L[n_pts, 2 * n_pts + 1] = 1.0 / masses[0]        # s2 forces the left end
    G = np.zeros((1, dim))
    G[0, 2 * n_pts] = 1.0
    G2 = np.zeros((1, dim))
    G2[0, 2 * n_pts + 1] = 1.0
    K = np.zeros((1, dim))
    K[0, 2 * n_pts - 1] = 1.0
    K[0, 2 * n_pts] = k_gains[0]
    K[0, 2 * n_pts + 1] = k_gains[1]
    W = np.zeros((1, dim))
    W[0, n_pts] = 1.0
    W[0, 2 * n_pts] = w_gains[0]
    W[0, 2 * n_pts + 1] = w_gains[1]
    return BoundaryTriple(L=L, G=G, K=K, G2=G2, W=W)
