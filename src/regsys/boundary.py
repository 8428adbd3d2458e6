"""Boundary realizations on an extended coordinate space.

A boundary triple here is a matrix pencil picture of a boundary-controlled
system: the extended space stacks interior coordinates first and boundary
coordinates last, L acts row-wise on the interior coordinates, and the
trace maps G (and optionally G2) cut out the interior state space as their
kernel. Observation rows K (and optionally W) read the extended vector.

Chart convention. All restricted operators are expressed in interior
coordinates: a kernel basis is computed orthonormally (QR of the kernel of
the stacked traces) and then renormalized so its interior block is the
identity. With that chart the control matrix (lam - A) S D_lam is
independent of the shift lam exactly, not just asymptotically, and open-
and closed-loop restrictions live in the same coordinates, which is what
lets the feed-in composition formulas be checked as matrix identities.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lu_factor, lu_solve, null_space

from .errors import AdmissibilityError, ShapeError, SpectrumError
from .node import _decode_matrix, _encode_matrix

_RANK_RTOL = 1e-10


def _as_matrix(name: str, value, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    m = np.atleast_2d(np.asarray(value, dtype=float))
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-D")
    if rows is not None and m.shape[0] != rows:
        raise ShapeError(f"{name} must have {rows} rows, got {m.shape[0]}")
    if cols is not None and m.shape[1] != cols:
        raise ShapeError(f"{name} must have {cols} columns, got {m.shape[1]}")
    if not np.all(np.isfinite(m)):
        raise ShapeError(f"{name} must be finite")
    m = np.array(m, copy=True)
    m.setflags(write=False)
    return m


@dataclass(frozen=True, eq=False)
class BoundaryTriple:
    """Extended-space pencil (L, G, K) with optional second trace G2 and
    second observation W.

    The interior row count is derived from the shapes: extended dimension
    minus the rows of all traces. The stacked traces must have full row
    rank and the interior coordinates must chart their kernel (both
    checked).
    """

    L: np.ndarray = field(repr=False)
    G: np.ndarray = field(repr=False)
    K: np.ndarray = field(repr=False)
    G2: np.ndarray | None = field(default=None, repr=False)
    W: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        L = _as_matrix("L", self.L)
        if L.shape[0] != L.shape[1]:
            raise ShapeError(f"L must be square, got {L.shape}")
        dim = L.shape[0]
        G = _as_matrix("G", self.G, cols=dim)
        K = _as_matrix("K", self.K, cols=dim)
        G2 = None if self.G2 is None else _as_matrix("G2", self.G2, cols=dim)
        W = None if self.W is None else _as_matrix("W", self.W, cols=dim)
        traces = G if G2 is None else np.vstack([G, G2])
        if traces.shape[0] >= dim:
            raise ShapeError("traces leave no interior coordinates")
        sv = np.linalg.svd(traces, compute_uv=False)
        if sv[-1] <= _RANK_RTOL * sv[0]:
            raise ShapeError("stacked traces are rank deficient")
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "G2", G2)
        object.__setattr__(self, "W", W)

    @property
    def dim(self) -> int:
        return self.L.shape[0]

    @property
    def n_interior(self) -> int:
        extra = 0 if self.G2 is None else self.G2.shape[0]
        return self.dim - self.G.shape[0] - extra

    def traces(self) -> np.ndarray:
        return self.G if self.G2 is None else np.vstack([self.G, self.G2])

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
    """Interior restriction A = L on ker(traces), in interior coordinates,
    together with the embedding of those coordinates into the extended
    space (basis columns span the kernel; the interior block of basis is
    the identity)."""

    a: np.ndarray = field(repr=False)
    basis: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.a.shape[0]


def _restrict(L: np.ndarray, traces: np.ndarray, n_int: int) -> RestrictedGenerator:
    kernel = null_space(traces)
    if kernel.shape[1] != n_int:
        raise ShapeError(
            f"kernel dimension {kernel.shape[1]} does not match interior count {n_int}"
        )
    top = kernel[:n_int, :]
    sv = np.linalg.svd(top, compute_uv=False)
    if sv[-1] <= _RANK_RTOL * sv[0]:
        raise AdmissibilityError("interior coordinates do not chart the trace kernel")
    basis = kernel @ np.linalg.solve(top, np.eye(n_int))
    a = (L @ basis)[:n_int, :]
    return RestrictedGenerator(a=a, basis=basis)


def restrict_generator(bt: BoundaryTriple) -> RestrictedGenerator:
    """Restriction of L to the kernel of the stacked traces.

    Raises ShapeError on rank-deficient traces (triple construction
    already refuses those) and AdmissibilityError when the kernel cannot
    be charted by interior coordinates.
    """
    return _restrict(bt.L, bt.traces(), bt.n_interior)


@dataclass(frozen=True, eq=False)
class DirichletMap:
    """Lift of boundary data into ker(lam - L) for one input channel."""

    lam: float
    matrix: np.ndarray = field(repr=False)
    channel: str


def _channel_block(bt: BoundaryTriple, channel: str) -> tuple[int, int]:
    b1 = bt.G.shape[0]
    if channel == "primary":
        return 0, b1
    if channel == "secondary":
        if bt.G2 is None:
            raise ShapeError("triple has no secondary trace")
        return b1, b1 + bt.G2.shape[0]
    raise ValueError(f"channel must be 'primary' or 'secondary', got {channel!r}")


def dirichlet_map(bt: BoundaryTriple, lam: float, channel: str = "primary") -> DirichletMap:
    """Solve [(lam - L) interior rows; traces] z = [0; indicator] for the
    selected channel, one column per channel input.

    Rows are equilibrated to unit max-norm before the solve (stiffness
    rows of discretized models are otherwise badly scaled). Raises
    SpectrumError when lam is an eigenvalue of the restriction; the
    defining relations G D = I and zero interior residual are validated to
    1e-10 relative.
    """
    n_int = bt.n_interior
    traces = bt.traces()
    lo, hi = _channel_block(bt, channel)
    sys = np.vstack([(lam * np.eye(bt.dim) - bt.L)[:n_int, :], traces])
    scale = np.max(np.abs(sys), axis=1)
    scale[scale == 0] = 1.0
    rhs = np.zeros((bt.dim, hi - lo))
    rhs[n_int + lo : n_int + hi, :] = np.eye(hi - lo)
    sys_eq = sys / scale[:, None]
    sv = np.linalg.svd(sys_eq, compute_uv=False)
    if sv[-1] <= 1e3 * np.finfo(float).eps * sv[0]:
        raise SpectrumError(f"shift lam={lam} is an eigenvalue of the restriction")
    rhs_eq = rhs / scale[:, None]
    lu, piv = lu_factor(sys_eq)
    d = lu_solve((lu, piv), rhs_eq)
    # fixed-precision iterative refinement: fourth-order stiffness rows put
    # the condition number near 1/dx^4, and one direct solve leaves a
    # residual of that size times eps
    for _ in range(3):
        r = rhs_eq - sys_eq @ d
        if np.max(np.abs(r)) <= 1e-13 * max(np.max(np.abs(d)), 1.0):
            break
        d = d + lu_solve((lu, piv), r)

    bc = traces[lo:hi, :] @ d - np.eye(hi - lo)
    if np.max(np.abs(bc)) > 1e-10:
        raise AdmissibilityError(f"boundary constraint violated by {np.max(np.abs(bc)):.3e}")
    # rowwise backward error: the equilibrated rows have unit max-norm, so
    # this is residual relative to row scale times solution size
    resid = sys_eq[:n_int, :] @ d
    if np.max(np.abs(resid)) > 1e-10 * max(np.max(np.abs(d)), 1.0):
        raise AdmissibilityError(f"interior residual {np.max(np.abs(resid)):.3e}")
    return DirichletMap(lam=float(lam), matrix=d, channel=channel)


def control_operator_from_triple(
    bt: BoundaryTriple,
    lam: float,
    channel: str = "primary",
    lam_check: float | None = None,
) -> np.ndarray:
    """Control matrix B = (lam - A) (interior part of the channel's
    Dirichlet lift), in interior coordinates.

    In this chart the result does not depend on lam; that is verified at a
    second shift (default lam + 1) to 1e-8 relative and a violation raises
    AdmissibilityError.
    """
    rg = restrict_generator(bt)
    n_int = bt.n_interior

    def build(shift: float) -> np.ndarray:
        d = dirichlet_map(bt, shift, channel).matrix
        return (shift * np.eye(n_int) - rg.a) @ d[:n_int, :]

    b = build(lam)
    b_check = build(lam + 1.0 if lam_check is None else lam_check)
    dev = np.max(np.abs(b - b_check))
    if dev > 1e-8 * max(np.max(np.abs(b)), 1.0):
        raise AdmissibilityError(f"control matrix varies with the shift by {dev:.3e}")
    return b


@dataclass(frozen=True, eq=False)
class FeedthroughEstimate:
    """Richardson-extrapolated limit of (observation) * (Dirichlet lift)
    along a geometric shift sweep. value is None when the tail did not
    converge (residuals must decrease over the last three nodes and the
    final one must be below 1e-4 * (1 + |value|), unless the whole tail
    sits at rounding level)."""

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
    ten above the spectral abscissa of the restriction."""
    rg = restrict_generator(bt)
    lam0 = float(np.max(np.linalg.eigvals(rg.a).real)) + 10.0
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

    Evaluates obs * D_lam along the sweep and extrapolates in 1/lam by a
    Neville table on the geometric nodes. The residual trace is the raw
    distance of each sweep sample from the extrapolated value; the
    convergence verdict follows the tail rule documented on
    FeedthroughEstimate. A non-convergent tail withholds the value.
    """
    obs = _observation_block(bt, observation)
    sweep = default_shift_sweep(bt) if lambda_sweep is None else np.asarray(lambda_sweep, dtype=float)
    if sweep.size < 2 or np.any(np.diff(sweep) <= 0):
        raise ValueError("shift sweep must be increasing with at least two nodes")

    samples = [obs @ dirichlet_map(bt, lam, channel).matrix for lam in sweep]
    # Neville table in 1/lam on geometric nodes (ratio factors 2^k - 1).
    # Deeper levels sharpen resolvent-type 1/lam tails but are ruined by
    # exponentially small tails, so take the deepest level whose residual
    # trace the tail rule itself certifies.
    levels = [list(samples)]
    while len(levels[-1]) > 1:
        prev = levels[-1]
        k = len(levels)
        levels.append(
            [prev[j + 1] + (prev[j + 1] - prev[j]) / (2.0**k - 1.0) for j in range(len(prev) - 1)]
        )
    candidates = [lv[-1] for lv in levels]

    def tail_ok(res: np.ndarray, scale: float) -> bool:
        if res.size < 3:
            return False
        tail = res[-3:]
        if np.all(tail <= 1e-12 * scale):
            return True
        return bool(np.all(np.diff(tail) < 0)) and tail[-1] < 1e-4 * scale

    value = None
    residuals = np.array([np.max(np.abs(s - candidates[-1])) for s in samples])
    converged = False
    for cand in reversed(candidates):
        res = np.array([np.max(np.abs(s - cand)) for s in samples])
        if tail_ok(res, 1.0 + float(np.max(np.abs(cand)))):
            value, residuals, converged = cand, res, True
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


def _feedback_loop_inverse(k_bar: np.ndarray) -> np.ndarray:
    loop = np.eye(k_bar.shape[0]) - k_bar
    sv = np.linalg.svd(loop, compute_uv=False)
    if sv[-1] <= 1e-8 * max(sv[0], 1.0):
        raise AdmissibilityError("I minus the feedback feedthrough is singular")
    return np.linalg.solve(loop, np.eye(loop.shape[0]))


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


def _closed_triple(bt: BoundaryTriple, feedback_obs: np.ndarray) -> BoundaryTriple:
    """Triple of the loop G z = (feedback_obs) z: the homogeneous trace is
    G - feedback_obs; the secondary trace becomes the input channel."""
    if feedback_obs.shape[0] != bt.G.shape[0]:
        raise ShapeError("feedback observation rows must match the primary trace")
    if bt.G2 is not None:
        return BoundaryTriple(L=bt.L, G=bt.G2, G2=bt.G - feedback_obs, K=bt.K, W=bt.W)
    # no input channel left; park a zero-column trace? not representable:
    # loop-only triples are handled by the observe path
    raise ShapeError("triple has no secondary trace to take input through")


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


def feed_in_control(bt: BoundaryTriple, lam: float | None = None,
                    lambda_sweep: np.ndarray | None = None) -> FeedInReport:
    """Close the loop (primary trace) = K z and keep the secondary trace as
    the input: returns the closed generator and the composite control
    matrix B1 (I - Kbar1)^-1 Kbar2 + B2, verified against the direct
    restriction of the closed-loop triple.
    """
    if bt.G2 is None:
        raise ShapeError("feed_in_control needs a secondary trace")
    if bt.K.shape[0] != bt.G.shape[0]:
        raise ShapeError("K must have as many rows as the primary trace to close the loop")
    rg = restrict_generator(bt)
    if lam is None:
        lam = float(np.max(np.linalg.eigvals(rg.a).real)) + 2.0
    b1 = control_operator_from_triple(bt, lam, "primary")
    b2 = control_operator_from_triple(bt, lam, "secondary")
    est1 = feedthrough_estimate(bt, lambda_sweep, "primary", "K")
    est2 = feedthrough_estimate(bt, lambda_sweep, "secondary", "K")
    k1 = _require_feedthrough(est1, "primary")
    k2 = _require_feedthrough(est2, "secondary")
    inv_loop = _feedback_loop_inverse(k1)
    b_formula = b1 @ inv_loop @ k2 + b2

    closed = _closed_triple(bt, bt.K)
    rg_cl = restrict_generator(closed)
    lam_cl = float(np.max(np.linalg.eigvals(rg_cl.a).real)) + 2.0
    b_direct = control_operator_from_triple(closed, lam_cl, "primary")
    c_closed = bt.K @ rg_cl.basis
    dev_b = float(np.max(np.abs(b_formula - b_direct)) / max(np.max(np.abs(b_direct)), 1.0))

    return FeedInReport(
        realization_matrices={"a": rg_cl.a, "b": b_formula, "b_direct": b_direct, "c": c_closed,
                              "d": inv_loop @ k2},
        deviation_b=dev_b,
        deviation_c=None,
        deviation_d=None,
        feedthroughs={"k_bar_primary": k1, "k_bar_secondary": k2},
        residual_traces={"primary": est1.residuals, "secondary": est2.residuals},
    )


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
    est_q = feedthrough_estimate(bt, lambda_sweep, "primary", "W")
    est_k = feedthrough_estimate(bt, lambda_sweep, "primary", "K")
    q_bar = _require_feedthrough(est_q, "feedback observation")
    k_bar = _require_feedthrough(est_k, "retained observation")
    c_q = bt.W @ rg.basis
    c_k = bt.K @ rg.basis
    inv_loop = _feedback_loop_inverse(q_bar)
    c_formula = c_k + k_bar @ inv_loop @ c_q

    stack = [bt.G - bt.W] + ([bt.G2] if bt.G2 is not None else [])
    traces_cl = np.vstack(stack)
    rg_cl = _restrict(bt.L, traces_cl, bt.dim - traces_cl.shape[0])
    c_direct = bt.K @ rg_cl.basis
    dev_c = float(np.max(np.abs(c_formula - c_direct)) / max(np.max(np.abs(c_direct)), 1.0))

    return FeedInReport(
        realization_matrices={"a": rg_cl.a, "c": c_formula, "c_direct": c_direct},
        deviation_b=None,
        deviation_c=dev_c,
        deviation_d=None,
        feedthroughs={"q_bar": q_bar, "k_bar": k_bar},
        residual_traces={"feedback": est_q.residuals, "retained": est_k.residuals},
    )


def feed_in_full(bt: BoundaryTriple, lam: float | None = None,
                 lambda_sweep: np.ndarray | None = None) -> FeedInReport:
    """Close the loop (primary trace) = K z, input through the secondary
    trace, observe W: full composite with feedthrough
        Wbar1 (I - Kbar1)^-1 Kbar2 + Wbar2,
    each piece verified against the direct closed-loop triple (generator,
    control matrix, observation, and the closed loop's own feedthrough
    sweep)."""
    if bt.G2 is None or bt.W is None:
        raise ShapeError("feed_in_full needs a secondary trace and a W observation")
    if bt.K.shape[0] != bt.G.shape[0]:
        raise ShapeError("K must have as many rows as the primary trace to close the loop")
    rg = restrict_generator(bt)
    if lam is None:
        lam = float(np.max(np.linalg.eigvals(rg.a).real)) + 2.0
    b1 = control_operator_from_triple(bt, lam, "primary")
    b2 = control_operator_from_triple(bt, lam, "secondary")
    k1 = _require_feedthrough(feedthrough_estimate(bt, lambda_sweep, "primary", "K"), "K primary")
    k2 = _require_feedthrough(feedthrough_estimate(bt, lambda_sweep, "secondary", "K"), "K secondary")
    est_w1 = feedthrough_estimate(bt, lambda_sweep, "primary", "W")
    est_w2 = feedthrough_estimate(bt, lambda_sweep, "secondary", "W")
    w1 = _require_feedthrough(est_w1, "W primary")
    w2 = _require_feedthrough(est_w2, "W secondary")
    inv_loop = _feedback_loop_inverse(k1)
    b_formula = b1 @ inv_loop @ k2 + b2
    d_formula = w1 @ inv_loop @ k2 + w2

    closed = _closed_triple(bt, bt.K)
    rg_cl = restrict_generator(closed)
    lam_cl = float(np.max(np.linalg.eigvals(rg_cl.a).real)) + 2.0
    b_direct = control_operator_from_triple(closed, lam_cl, "primary")
    c_direct = bt.W @ rg_cl.basis
    # retained observation on the closed domain, composed through the loop
    c_formula = bt.W @ rg.basis + w1 @ inv_loop @ (bt.K @ rg.basis)

    sweep_cl = None
    if lambda_sweep is not None:
        sweep_cl = np.asarray(lambda_sweep, dtype=float)
    est_d = feedthrough_estimate(closed, sweep_cl, "primary", "W")
    d_direct = _require_feedthrough(est_d, "composite")

    dev_b = float(np.max(np.abs(b_formula - b_direct)) / max(np.max(np.abs(b_direct)), 1.0))
    dev_c = float(np.max(np.abs(c_formula - c_direct)) / max(np.max(np.abs(c_direct)), 1.0))
    dev_d = float(np.max(np.abs(d_formula - d_direct)) / max(np.max(np.abs(d_direct)), 1.0))

    return FeedInReport(
        realization_matrices={"a": rg_cl.a, "b": b_formula, "b_direct": b_direct,
                              "c": c_formula, "c_direct": c_direct,
                              "d": d_formula, "d_direct": d_direct},
        deviation_b=dev_b,
        deviation_c=dev_c,
        deviation_d=dev_d,
        feedthroughs={"k_bar_primary": k1, "k_bar_secondary": k2,
                      "w_bar_primary": w1, "w_bar_secondary": w2},
        residual_traces={"w_primary": est_w1.residuals, "w_secondary": est_w2.residuals,
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
