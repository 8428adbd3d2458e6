"""Clamped-free fourth-order beam on [0, 1]: w_tt + w_xxxx = 0 with
w(0) = w_x(0) = w_xx(1) = 0 and the shear w_xxx(1) as boundary channel.

Discretization is energy-variational: unknowns are the nodal values
w_1..w_{N+1} (the clamped node w_0 = 0 is eliminated), kinetic energy uses
trapezoid masses, and potential energy is the trapezoid sum of squared
curvature rows. The curvature at the clamped end uses the reflection
closure (w_x(0) = 0), the free-end curvature row is identically zero
(w_xx(1) = 0), so the stiffness matrix is dx * T' diag(weights) T and the
semi-discrete system is exactly conservative: d/dt F = -u * w_t(1) with
the discrete energy F = (v' M v + w' S w) / 2. The shear input therefore
enters as a tip force -u / m_tip in the velocity equation.

Output traces reuse the scheme's own stencils: w_xx(0) is the clamped-end
curvature row and w_x(1) the second-order one-sided slope; that discrete
integration-by-parts consistency is what lets the multiplier identities
close numerically.

Conservative modes are integrated by exact modal rotation (the
exponential integrator expressed in eigencoordinates), the dissipative
feedback mode by the matrix exponential of the closed-loop generator;
neither has a step-size stability restriction.

The modal basis is computed once per model from the SVD of the energy
factor R = P M^-1/2 (S = P'P): V = M^-1/2 W, omega_k = |R w_k|, each mode
signed to a positive tip displacement so that states drawn through V do
not depend on the LAPACK build. `simulate` is the full nodal
path: displacement and velocity at every node and time, every functional
of them, and the energy refused on drift at every node. The verification
drivers evaluate no nodal energy: each trial's drift is certified at every
t from its initial mode amplitudes and the basis defects, the traces
w_x(1) and w_xx(0) are modal rows applied to the rotation tables, and the
forced trials advance together in one modal recursion.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import eigh, expm  # noqa: F401 (eigh: the benchmark tracer wraps regsys.beam.eigh)

from .boundary import BoundaryTriple
from .errors import RegsysError, ShapeError
from .grids import Signal, TimeGrid
from .node import Realization

_MODES = ("homogeneous", "shear-input", "shear-feedback")


@dataclass(frozen=True, eq=False)
class BeamModel:
    """Semi-discrete beam with N interior nodes plus the tip node."""

    N: int
    mode: str
    k: float
    dx: float
    masses: np.ndarray = field(repr=False)
    stiffness: np.ndarray = field(repr=False)
    curvature_rows: np.ndarray = field(repr=False)
    slope_tip_row: np.ndarray = field(repr=False)

    @property
    def n_dof(self) -> int:
        return self.N + 1

    def nodes(self) -> np.ndarray:
        """All nodes 0..N+1 including the clamped one."""
        return np.arange(self.N + 2) * self.dx

    def first_order_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        nd = self.n_dof
        a = np.zeros((2 * nd, 2 * nd))
        a[:nd, nd:] = np.eye(nd)
        a[nd:, :nd] = -self.stiffness / self.masses[:, None]
        if self.mode == "shear-feedback":
            a[2 * nd - 1, 2 * nd - 1] -= self.k / self.masses[-1]
        b = np.zeros((2 * nd, 1))
        b[2 * nd - 1, 0] = -1.0 / self.masses[-1]
        return a, b

    def trace_rows(self) -> np.ndarray:
        """Rows [w_x(1); w_xx(0); w_t(1)] on the stacked (w, v) state."""
        nd = self.n_dof
        c = np.zeros((3, 2 * nd))
        c[0, :nd] = self.slope_tip_row
        c[1, :nd] = self.curvature_rows[0]
        c[2, 2 * nd - 1] = 1.0
        return c

    def realization(self) -> Realization:
        a, b = self.first_order_matrices()
        return Realization(a, b, self.trace_rows(), np.zeros((3, 1)),
                           state_label="beam", input_label="shear", output_label="traces")

    def boundary_triple(self) -> BoundaryTriple:
        """Extended pencil with the shear value as an explicit coordinate:
        the trace G selects it, the velocity equation carries its force."""
        nd = self.n_dof
        dim = 2 * nd + 1
        L = np.zeros((dim, dim))
        a, b = self.first_order_matrices()
        L[: 2 * nd, : 2 * nd] = a
        L[: 2 * nd, 2 * nd] = b[:, 0]
        G = np.zeros((1, dim))
        G[0, 2 * nd] = 1.0
        K = np.zeros((1, dim))
        K[0, :nd] = self.slope_tip_row
        W = np.zeros((1, dim))
        W[0, 2 * nd - 1] = 1.0  # tip velocity, the natural feedback trace
        return BoundaryTriple(L=L, G=G, K=K, W=W)

    def modal_basis(self) -> tuple[np.ndarray, np.ndarray]:
        """(omega, V) with S V = M V diag(omega^2) and V' M V = I.

        Computed once per model; the arrays are shared and read-only."""
        return self._basis

    @cached_property
    def _energy_rows(self) -> np.ndarray:
        """P = sqrt(dx weights) T with weights (1/2, 1, ..., 1): S = P'P and
        the potential energy of w is |P w|^2 / 2."""
        weights = np.ones(self.n_dof)
        weights[0] = 0.5
        rows = np.sqrt(self.dx * weights)[:, None] * self.curvature_rows
        rows.flags.writeable = False
        return rows

    @cached_property
    def _basis(self) -> tuple[np.ndarray, np.ndarray]:
        # the SVD of R = P M^-1/2 has backward error ~eps omega_max, eigh of
        # the Gram matrix R'R = M^-1/2 S M^-1/2 ~eps omega_max^2 (Demmel &
        # Veselic, SIMAX 13(4), 1992); the per-column |R w_k| is accurate
        # where sigma_k carries a relative error ~eps sigma_max / sigma_k
        inv_sqrt_m = 1.0 / np.sqrt(self.masses)
        R = self._energy_rows * inv_sqrt_m[None, :]
        W = np.linalg.svd(R)[2][::-1].T
        W = W * np.copysign(1.0, W[-1])
        omega = np.linalg.norm(R @ W, axis=0)
        V = W * inv_sqrt_m[:, None]
        omega.flags.writeable = False
        V.flags.writeable = False
        return omega, V


def beam_model(N: int, mode: str = "homogeneous", k: float = 0.0) -> BeamModel:
    """Assemble the semi-discrete beam. Requires N >= 8 so the one-sided
    stencils do not straddle both ends."""
    if N < 8:
        raise ShapeError(f"N must be at least 8, got {N}")
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    if mode == "shear-feedback" and k < 0:
        raise ValueError(f"feedback gain must be nonnegative, got {k}")
    nd = N + 1
    dx = 1.0 / nd
    masses = np.full(nd, dx)
    masses[-1] = dx / 2.0
    # curvature rows kappa_0..kappa_N on w_1..w_{N+1}; the free-end row
    # kappa_{N+1} = 0 is omitted (identically zero)
    T = np.zeros((nd, nd))
    T[0, 0] = 2.0 / dx**2
    for i in range(1, nd):
        if i - 2 >= 0:
            T[i, i - 2] = 1.0 / dx**2
        T[i, i - 1] = -2.0 / dx**2
        T[i, i] = 1.0 / dx**2
    weights = np.ones(nd)
    weights[0] = 0.5
    stiffness = dx * T.T @ (weights[:, None] * T)
    stiffness = (stiffness + stiffness.T) / 2.0
    slope = np.zeros(nd)
    slope[-1] = 3.0 / (2.0 * dx)
    slope[-2] = -4.0 / (2.0 * dx)
    slope[-3] = 1.0 / (2.0 * dx)
    return BeamModel(N=N, mode=mode, k=float(k), dx=dx, masses=masses,
                     stiffness=stiffness, curvature_rows=T, slope_tip_row=slope)


def beam_discretize(N: int, mode: str = "homogeneous", k: float = 0.0):
    """Realization (homogeneous / feedback modes) or BoundaryTriple
    (shear-input mode) of the semi-discrete beam."""
    model = beam_model(N, mode, k)
    if mode == "shear-input":
        return model.boundary_triple()
    return model.realization()


@dataclass(frozen=True, eq=False)
class BeamState:
    w: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    t: float = 0.0

    def __post_init__(self) -> None:
        w = np.asarray(self.w, dtype=float).reshape(-1)
        v = np.asarray(self.v, dtype=float).reshape(-1)
        if w.shape != v.shape:
            raise ShapeError("displacement and velocity lengths differ")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(v))):
            raise ShapeError("state entries must be finite")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "v", v)


def _with_clamped_node(vec: np.ndarray) -> np.ndarray:
    return np.concatenate([[0.0], vec])


def _potential(model: BeamModel, w: np.ndarray) -> float:
    # evaluated through the curvature rows, not w'Sw: the row form first
    # cancels the large 1/dx^2 stencil terms, keeping rounding near eps
    kappa = model.curvature_rows @ w
    weighted = kappa * kappa
    weighted[0] *= 0.5
    return float(model.dx * np.sum(weighted))


def energy(model: BeamModel, state: BeamState) -> float:
    """Discrete F(t) = (v' M v + w' S w) / 2, the trapezoid quadrature of
    (w_t^2 + w_xx^2) / 2 with the scheme's own curvature rows."""
    if state.w.shape != (model.n_dof,):
        raise ShapeError(f"state must have {model.n_dof} nodes")
    kin = float(state.v @ (model.masses * state.v))
    return (kin + _potential(model, state.w)) / 2.0


def _trapezoid_rows(values: np.ndarray, dx: float) -> np.ndarray:
    """Trapezoid quadrature of each row; a single sample set is one row."""
    return dx * (np.sum(values, axis=1) - (values[:, 0] + values[:, -1]) / 2.0)


def _slope_rows(model: BeamModel, w: np.ndarray) -> np.ndarray:
    """Nodal w_x on nodes 0..N+1 for a batch of states (rows): clamped end
    exact zero, central in the interior, second-order one-sided at the tip."""
    full = np.concatenate([np.zeros((w.shape[0], 1)), w], axis=1)
    dx = model.dx
    out = np.zeros_like(full)
    out[:, 1:-1] = (full[:, 2:] - full[:, :-2]) / (2.0 * dx)
    out[:, -1] = (3.0 * full[:, -1] - 4.0 * full[:, -2] + full[:, -3]) / (2.0 * dx)
    return out


def _multiplier(model: BeamModel, state: BeamState, weight: np.ndarray, name: str) -> float:
    """Trapezoid quadrature of weight(x) w_t w_x, refused above F."""
    vals = weight * _with_clamped_node(state.v) * _slope_rows(model, state.w[None, :])[0]
    value = float(_trapezoid_rows(vals[None, :], model.dx)[0])
    f = energy(model, state)
    if abs(value) > f + 1e-8 * (1.0 + f):
        raise RegsysError(f"multiplier bound violated: |{name}|={abs(value):.3e} > F={f:.3e}")
    return value


def multiplier_rho(model: BeamModel, state: BeamState) -> float:
    """Trapezoid quadrature of x(x-1) w_t w_x."""
    x = model.nodes()
    return _multiplier(model, state, x * (x - 1.0), "rho")


def multiplier_rho1(model: BeamModel, state: BeamState) -> float:
    """Trapezoid quadrature of (x-1) w_t w_x."""
    return _multiplier(model, state, model.nodes() - 1.0, "rho1")


@dataclass(frozen=True, eq=False)
class FunctionalTrace:
    """Samples of the energy, multipliers, and boundary traces."""

    grid: TimeGrid
    F: np.ndarray = field(repr=False)
    rho: np.ndarray = field(repr=False)
    rho1: np.ndarray = field(repr=False)
    w_x_1: np.ndarray = field(repr=False)
    w_xx_0: np.ndarray = field(repr=False)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "F", "rho", "w_x_1", "w_xx_0"])
            for i, t in enumerate(self.grid.nodes):
                writer.writerow([repr(float(t)), repr(float(self.F[i])),
                                 repr(float(self.rho[i])), repr(float(self.w_x_1[i])),
                                 repr(float(self.w_xx_0[i]))])


@dataclass(frozen=True, eq=False)
class BeamTrajectory:
    model: BeamModel
    grid: TimeGrid
    w: np.ndarray = field(repr=False)  # (n_steps+1) x n_dof
    v: np.ndarray = field(repr=False)
    trace: FunctionalTrace

    def state_at(self, index: int) -> BeamState:
        return BeamState(self.w[index], self.v[index], float(self.grid.nodes[index]))


def _functional_trace(model: BeamModel, g: TimeGrid, w: np.ndarray, v: np.ndarray) -> FunctionalTrace:
    x = model.nodes()
    dx = model.dx
    kin = np.einsum("ti,i,ti->t", v, model.masses, v)
    kw = (w @ model.curvature_rows.T) ** 2
    kw[:, 0] *= 0.5
    F = (kin + dx * np.sum(kw, axis=1)) / 2.0
    v_full = np.concatenate([np.zeros((w.shape[0], 1)), v], axis=1)
    slopes = _slope_rows(model, w)
    rho = _trapezoid_rows((x * (x - 1.0))[None, :] * v_full * slopes, dx)
    rho1 = _trapezoid_rows((x - 1.0)[None, :] * v_full * slopes, dx)
    wx1 = w @ model.slope_tip_row
    wxx0 = w @ model.curvature_rows[0]
    return FunctionalTrace(grid=g, F=F, rho=rho, rho1=rho1, w_x_1=wx1, w_xx_0=wxx0)


def _rotation_tables(omega: np.ndarray, times: np.ndarray) -> tuple:
    """Exact modal rotation from t = 0, modes by times: eta(t) = cos * eta0
    + sinc * etadot0, with sinc = sin(omega t) / omega (t for a zero mode).
    Built in place, so no more than the two tables are ever held."""
    coswt = np.outer(omega, times)
    sinc = np.sin(coswt)
    np.cos(coswt, out=coswt)
    positive = omega > 0
    sinc /= np.where(positive, omega, 1.0)[:, None]
    sinc[~positive] = times
    return coswt, sinc


def _step_coefficients(omega: np.ndarray, dt: float) -> tuple:
    """One exact modal step under a force phi held over it: eta' = c eta +
    sinc etadot + one_minus_cos phi and etadot' = ms eta + c etadot + sinc phi."""
    c, s = np.cos(omega * dt), np.sin(omega * dt)
    sinc = np.where(omega > 0, s / np.where(omega > 0, omega, 1.0), dt)
    one_minus_cos = np.where(
        omega > 0, (1.0 - c) / np.where(omega > 0, omega**2, 1.0), dt**2 / 2.0
    )
    return c, sinc, one_minus_cos, -omega * s


def _require_conserved(F: np.ndarray) -> float:
    """The drift max |F - F(0)| / F(0) of a homogeneous run (0.0 when F(0)
    is 0), refused beyond 1e-8."""
    drift = float(np.max(np.abs(F - F[0])) / F[0]) if F[0] > 0 else 0.0
    if drift > 1e-8:
        raise RegsysError(f"energy drift {drift:.3e} exceeds 1e-8")
    return drift


def simulate(model: BeamModel, g: TimeGrid, u: Signal | None = None,
             state0: BeamState | None = None) -> BeamTrajectory:
    """Integrate the semi-discrete beam exactly on the grid.

    Conservative modes use modal rotation (homogeneous data evaluated
    directly at every node, piecewise-constant forcing advanced step by
    step); the feedback mode uses the one-step matrix exponential of the
    closed-loop generator. Homogeneous runs assert energy conservation to
    1e-8 relative. This is the full nodal path: it keeps the displacement
    and velocity at every node and time and every functional of them.
    """
    nd = model.n_dof
    if state0 is None:
        state0 = BeamState(np.zeros(nd), np.zeros(nd))
    if state0.w.shape != (nd,):
        raise ShapeError(f"initial state must have {nd} nodes")
    if u is not None:
        if model.mode != "shear-input":
            raise ShapeError("forcing is only accepted in shear-input mode")
        if u.grid != g or u.dim != 1:
            raise ShapeError("forcing must be a scalar signal on the simulation grid")
    times = g.nodes

    if model.mode in ("homogeneous", "shear-input"):
        omega, V = model.modal_basis()
        proj = V.T * model.masses[None, :]  # inverse of V up to the M weight
        eta0 = proj @ state0.w
        etadot0 = proj @ state0.v
        if u is None:
            coswt, sinc = _rotation_tables(omega, times)
            msin = -omega[:, None] * np.sin(np.outer(omega, times))
            eta = coswt * eta0[:, None] + sinc * etadot0[:, None]
            etadot = msin * eta0[:, None] + coswt * etadot0[:, None]
            w = (V @ eta).T
            v = (V @ etadot).T
        else:
            # modal force: V' M (M^-1 (-e_tip)) u = -(V' e_tip) u
            force_dir = -V.T[:, -1]
            c, sinc, one_minus_cos, ms = _step_coefficients(omega, g.dt)
            w = np.empty((len(times), nd))
            v = np.empty((len(times), nd))
            eta, etadot = eta0.copy(), etadot0.copy()
            w[0], v[0] = V @ eta, V @ etadot
            uvals = u.values[:, 0].real
            for step in range(g.n_steps):
                phi = force_dir * uvals[step]
                eta_new = c * eta + sinc * etadot + one_minus_cos * phi
                etadot_new = ms * eta + c * etadot + sinc * phi
                eta, etadot = eta_new, etadot_new
                w[step + 1], v[step + 1] = V @ eta, V @ etadot
    else:
        a, _ = model.first_order_matrices()
        E = expm(a * g.dt)
        state = np.concatenate([state0.w, state0.v])
        w = np.empty((len(times), nd))
        v = np.empty((len(times), nd))
        w[0], v[0] = state[:nd], state[nd:]
        for step in range(g.n_steps):
            state = E @ state
            w[step + 1], v[step + 1] = state[:nd], state[nd:]

    trace = _functional_trace(model, g, w, v)
    if model.mode == "homogeneous":
        _require_conserved(trace.F)
    return BeamTrajectory(model=model, grid=g, w=w, v=v, trace=trace)


def _free_trials(model: BeamModel, g: TimeGrid, rng: np.random.Generator,
                 trials: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """F(0), [int w_x(1)^2, int w_xx(0)^2] and the certified drift of
    `_certified_drift` for `trials` random smooth homogeneous states, drawn
    in turn from rng. No nodal energy: the traces are modal rows applied to
    eta(t), one product per rotation table over all trials."""
    omega, V = model.modal_basis()
    w0, v0 = np.empty((2, model.n_dof, trials))
    for i in range(trials):
        state0 = random_smooth_state(model, rng)
        w0[:, i], v0[:, i] = state0.w, state0.v
    proj = V.T * model.masses[None, :]
    eta0, etadot0 = proj @ w0, proj @ v0
    f0, drift = _certified_drift(model, eta0, etadot0)
    coswt, sinc = _rotation_tables(omega, g.nodes)
    trace_rows = np.stack([model.slope_tip_row @ V, model.curvature_rows[0] @ V])
    traces = (eta0.T[:, None, :] * trace_rows).reshape(2 * trials, model.n_dof) @ coswt
    traces += (etadot0.T[:, None, :] * trace_rows).reshape(2 * trials, model.n_dof) @ sinc
    return f0, _trapezoid_rows(traces**2, g.dt).reshape(trials, 2), drift


def _certified_drift(model: BeamModel, eta0: np.ndarray, etadot0: np.ndarray) -> tuple:
    """F(0) by the row quadrature of the nodal energy and a bound on
    max_t |F(t) - F(0)| / F(0), refused beyond 1e-8 as in `simulate`, for
    initial modal coordinates (modes x trials). In row form F = E +
    (etadot' dM etadot + xi' dS xi) / 2 with xi = Omega eta, E the modal
    energy and dM = K'K - I, dS = Omega^-1 P'P Omega^-1 - I the defects of
    the basis V in use (K = M^1/2 V the kinetic rows, P = `_energy_rows` V
    the potential rows). The exact rotation conserves E and keeps
    |xi_k(t)|, |etadot_k(t)| <= r_k = |(omega_k eta0_k, etadot0_k)|, so
    |F(t) - F(0)| <= r'(|dM| + |dS|)r at every t. 2 n_dof eps I added to that matrix allows for rounding: of E,
    and of a nodal F (n_dof-term sums, cancelling curvature rows), which
    puts up to ~3 n_dof eps (sampled) in the drift that `simulate` shows."""
    omega, V = model.modal_basis()
    kin_rows = np.sqrt(model.masses)[:, None] * V
    pot_rows = model._energy_rows @ V
    eye = np.eye(model.n_dof)
    defect = (np.abs(kin_rows.T @ kin_rows - eye)
              + np.abs((pot_rows.T @ pot_rows) / np.outer(omega, omega) - eye)
              + 2.0 * model.n_dof * np.finfo(float).eps * eye)
    f0 = (np.sum((kin_rows @ etadot0) ** 2, axis=0)
          + np.sum((pot_rows @ eta0) ** 2, axis=0)) / 2.0
    r = np.hypot(omega[:, None] * eta0, etadot0)
    bound = np.sum(r * (defect @ r), axis=0)
    drift = np.divide(bound, f0, out=np.zeros_like(f0), where=f0 > 0)
    if np.max(drift, initial=0.0) > 1e-8:
        raise RegsysError(f"energy drift {np.max(drift):.3e} exceeds 1e-8")
    return f0, drift


def _forced_tip_slopes(model: BeamModel, g: TimeGrid, inputs: np.ndarray) -> np.ndarray:
    """w_x(1, t_k) from rest under each row of held shear samples (trials x
    grid nodes), all trials advanced together by the modal step of
    `simulate`, reading only the tip slope. Each step is the exact rotation
    of every mode under its held force, a fixed recursion with nothing to
    converge; it uses no matrix exponential and no nodal first-order matrix."""
    omega, V = model.modal_basis()
    c, sinc, one_minus_cos, ms = (a[:, None] for a in _step_coefficients(omega, g.dt))
    force_dir = -V.T[:, -1:]
    slope = model.slope_tip_row @ V
    eta = np.zeros((model.n_dof, inputs.shape[0]))
    etadot = np.zeros_like(eta)
    wx1 = np.zeros((inputs.shape[0], g.n_steps + 1))
    for step in range(g.n_steps):
        phi = force_dir * inputs[:, step]
        eta, etadot = (c * eta + sinc * etadot + one_minus_cos * phi,
                       ms * eta + c * etadot + sinc * phi)
        wx1[:, step + 1] = slope @ eta
    return wx1


def _forced_slope_integrals(model: BeamModel, g: TimeGrid, inputs: np.ndarray) -> np.ndarray:
    """int w_x(1)^2 from rest under each row of held shear samples, the
    trapezoid rule on `_forced_tip_slopes`."""
    return _trapezoid_rows(_forced_tip_slopes(model, g, inputs) ** 2, g.dt)


def _closed_loop_roots(model: BeamModel, k: float, seeds: np.ndarray) -> np.ndarray | None:
    """The 2 n_dof eigenvalues of the beam under shear feedback u = k w_t(1),
    refined from `seeds` (one per eigenvalue) in the modal form.

    With V' M V = I, V' S V = Omega^2 and phi = V[-1, :] the closed loop is
    eta'' = -Omega^2 eta - k phi phi' eta', so its eigenvalues are the roots
    of the secular equation f(lam) = 1 + k lam sum phi_j^2 / (lam^2 +
    omega_j^2) (Golub, SIAM Rev. 15(2), 1973), apart from the modes with
    phi_j^2 <= eps |phi|^2: those do not couple to the tip and keep
    +-i omega_j, which the nearest seed takes. Every other seed is refined
    by Newton on f. Converged only when the last Newton step of every root
    is at most 1e-12 |lam| and the roots are pairwise more than
    1e-9 (1 + |lam|) apart, since 2 n_dof distinct roots of a degree-2 n_dof
    equation are all of them. Then the roots come back in the order of
    their seeds; otherwise None, with no fallback to a dense eigensolver."""
    omega, V = model.modal_basis()
    phi2 = V[-1] ** 2
    lam = np.array(seeds, dtype=complex).reshape(-1)
    if lam.shape != (2 * model.n_dof,):
        raise ShapeError(f"need {2 * model.n_dof} seeds, got {lam.size}")
    coupled = phi2 > np.finfo(float).eps * np.sum(phi2)
    active = np.ones(lam.size, dtype=bool)
    for root in np.concatenate([1j * omega[~coupled], -1j * omega[~coupled]]):
        nearest = int(np.argmin(np.where(active, np.abs(lam - root), np.inf)))
        lam[nearest], active[nearest] = root, False
    w2, p2 = omega[coupled] ** 2, phi2[coupled]
    with np.errstate(all="ignore"):
        for _ in range(50):
            x = lam[active]
            den = x[:, None] ** 2 + w2
            f = 1.0 + k * x * np.sum(p2 / den, axis=1)
            df = k * np.sum(p2 * (w2 - x[:, None] ** 2) / den**2, axis=1)
            step = f / df
            lam[active] = x - step
            active[active] = ~(np.abs(step) <= 1e-12 * np.abs(lam[active]))
            if not active.any():
                break
        else:
            return None
    gaps = np.abs(lam[:, None] - lam[None, :])
    np.fill_diagonal(gaps, np.inf)
    if np.any(gaps <= 1e-9 * (1.0 + np.abs(lam))[:, None]):
        return None
    return lam


def _central_dt(values: np.ndarray, dt: float) -> np.ndarray:
    return (values[2:] - values[:-2]) / (2.0 * dt)


def _energy_density_integral(traj: BeamTrajectory, weight: np.ndarray) -> np.ndarray:
    """Trapezoid quadrature of weight(x) (w_t^2 + 3 w_xx^2) at all times."""
    model = traj.model
    v_full = np.concatenate([np.zeros((traj.v.shape[0], 1)), traj.v], axis=1)
    curv = np.concatenate(
        [traj.w @ model.curvature_rows.T, np.zeros((traj.w.shape[0], 1))], axis=1
    )
    return _trapezoid_rows(weight[None, :] * (v_full**2 + 3.0 * curv**2), model.dx)


def rho_derivative_check(traj: BeamTrajectory) -> float:
    """Max residual of d(rho)/dt = -(1/2) int (2x-1)(w_t^2 + 3 w_xx^2) dx
    - w_x(1)^2 at interior grid times (homogeneous trajectories)."""
    model, g = traj.model, traj.grid
    x = model.nodes()
    rhs = -0.5 * _energy_density_integral(traj, 2.0 * x - 1.0) - traj.trace.w_x_1**2
    lhs = _central_dt(traj.trace.rho, g.dt)
    return float(np.max(np.abs(lhs - rhs[1:-1])))


def rho1_derivative_check(traj: BeamTrajectory) -> float:
    """Max residual of d(rho1)/dt = (1/2) w_xx(0)^2
    - (1/2) int (w_t^2 + 3 w_xx^2) dx at interior grid times."""
    model, g = traj.model, traj.grid
    rhs = 0.5 * traj.trace.w_xx_0**2 - 0.5 * _energy_density_integral(traj, np.ones(model.N + 2))
    lhs = _central_dt(traj.trace.rho1, g.dt)
    return float(np.max(np.abs(lhs - rhs[1:-1])))


def _transfer_parts(s: float) -> tuple[float, float, float, float]:
    """(t, sech t, tanh t, 1 + (cos t sech t)^2) at t = sqrt(s/2), s > 0,
    with sech evaluated so that large t cannot overflow."""
    if s <= 0:
        raise ValueError(f"s must be positive, got {s}")
    t = math.sqrt(s / 2.0)
    e = math.exp(-t)
    sech = 2.0 * e / (1.0 + e * e) if t > 20.0 else 1.0 / math.cosh(t)
    return t, sech, math.tanh(t), 1.0 + (math.cos(t) * sech) ** 2


def beam_transfer_H(s: float) -> float:
    """Shear-to-tip-slope transfer of the clamped-free beam.

    With t = sqrt(s/2) the closed form reduces to
        H(s) = -(cosh^2 sin^2 + sinh^2 cos^2) / (2 t^2 (cosh^2 + cos^2)),
    evaluated here with sech/tanh factoring so large t cannot overflow.
    H(0+) = -1/2 (static tip slope of a unit shear) and s |H(s)| <= 2.
    """
    t, _, th, den = _transfer_parts(s)
    num = math.sin(t) ** 2 + (th * math.cos(t)) ** 2
    return -num / (2.0 * t * t * den)


def beam_transfer_H1(s: float) -> float:
    """Shear-to-root-curvature transfer of the clamped-free beam:
        H1(s) = -(cosh sin + sinh cos) / (t (cosh^2 + cos^2)),
    in sech/tanh form; H1(0+) = -1 and |H1| t cosh t <= 2."""
    t, sech, th, den = _transfer_parts(s)
    num = sech * (math.sin(t) + th * math.cos(t))
    return -num / (t * den)


def transfer_bound_products(s: float) -> tuple[float, float]:
    """(|H(s)| * s, |H1(s)| * t * cosh t), both computed overflow-free."""
    t, _, th, den = _transfer_parts(s)
    h_scaled = (math.sin(t) ** 2 + (th * math.cos(t)) ** 2) / den
    h1_scaled = abs(math.sin(t) + th * math.cos(t)) / den
    return h_scaled, h1_scaled


def random_smooth_state(model: BeamModel, rng: np.random.Generator,
                        n_modes: int = 6, energy_level: float = 1.0) -> BeamState:
    """Random low-mode state normalized to the requested discrete energy.
    Coefficients decay like 1/j^2 so the traces stay grid-resolved."""
    omega, V = model.modal_basis()
    n_modes = min(n_modes, len(omega))
    eta = np.zeros(len(omega))
    etadot = np.zeros(len(omega))
    decay = 1.0 / np.arange(1, n_modes + 1) ** 2
    eta[:n_modes] = rng.standard_normal(n_modes) * decay / np.maximum(omega[:n_modes], 1.0)
    etadot[:n_modes] = rng.standard_normal(n_modes) * decay
    state = BeamState(V @ eta, V @ etadot)
    f = energy(model, state)
    if f <= 0:
        return state
    scale = math.sqrt(energy_level / f)
    return BeamState(state.w * scale, state.v * scale)


def _smooth_input(g: TimeGrid, rng: np.random.Generator, n_harmonics: int = 8) -> Signal:
    t = g.nodes
    vals = np.zeros(len(t))
    for j in range(1, n_harmonics + 1):
        amp = rng.standard_normal() / j
        phase = rng.uniform(0.0, 2.0 * math.pi)
        vals += amp * np.cos(2.0 * math.pi * j * t / g.t_end + phase)
    return Signal(g, vals[:, None])


def verify_admissibility_bound(N: int, T: float, trials: int, seed: int = 0,
                               n_steps: int | None = None) -> dict:
    """Check int_0^T w_x(1)^2 dt <= (3T + 2) F(0) (1 + 0.05) over random
    smooth homogeneous states. Reports the worst ratio."""
    model = beam_model(N, "homogeneous")
    g = TimeGrid(T, n_steps if n_steps is not None else max(int(round(T / 1e-3)), 100))
    rng = np.random.default_rng(seed)
    bound_factor = 3.0 * T + 2.0
    f0, integrals, _ = _free_trials(model, g, rng, trials)
    worst = float(np.max(integrals[:, 0] / (bound_factor * f0), initial=0.0))
    return {"bound": bound_factor, "worst_ratio": worst, "trials": trials,
            "N": N, "T": T, "passed": bool(worst <= 1.05)}


def wellposedness_constant(T: float, delta: float) -> float:
    """C = (1 + delta + 4T) / (2 [1 - (1 + 4T) delta]) + 1 / (2 delta),
    defined for delta in (0, 1/(1+4T))."""
    if not (0.0 < delta < 1.0 / (1.0 + 4.0 * T)):
        raise ValueError(
            f"delta must lie in (0, {1.0 / (1.0 + 4.0 * T):.4f}) for T={T}, got {delta}"
        )
    return (1.0 + delta + 4.0 * T) / (2.0 * (1.0 - (1.0 + 4.0 * T) * delta)) + 1.0 / (2.0 * delta)


def verify_wellposedness_bound(N: int, T: float, delta: float, input_trials: int,
                               seed: int = 0, n_steps: int | None = None) -> dict:
    """Check int_0^T w_x(1)^2 dt <= (1 + 3T) C_{delta,T} int_0^T u^2 dt
    (1 + 0.05) for random smooth inputs from rest."""
    c_const = wellposedness_constant(T, delta)
    model = beam_model(N, "shear-input")
    g = TimeGrid(T, n_steps if n_steps is not None else max(int(round(T / 1e-3)), 100))
    rng = np.random.default_rng(seed)
    factor = (1.0 + 3.0 * T) * c_const
    inputs = np.array([_smooth_input(g, rng).values[:, 0].real
                       for _ in range(input_trials)]).reshape(input_trials, len(g))
    lhs = _forced_slope_integrals(model, g, inputs)
    rhs = factor * _trapezoid_rows(inputs**2, g.dt)
    worst = float(np.max(lhs[rhs > 0] / rhs[rhs > 0], initial=0.0))
    return {"bound": factor, "constant": c_const, "worst_ratio": worst,
            "trials": input_trials, "N": N, "T": T, "delta": delta,
            "passed": bool(worst <= 1.05)}


def verify_observability(N: int, T: float, trials: int, seed: int = 0,
                         n_steps: int | None = None) -> dict:
    """Check int_0^T w_xx(0)^2 dt >= (T - 2) F(0) (1 - 0.05) over random
    smooth homogeneous states. Refuses T <= 2 where the bound is vacuous."""
    if T <= 2.0:
        raise ValueError(f"the lower bound is vacuous for T <= 2, got T={T}")
    model = beam_model(N, "homogeneous")
    g = TimeGrid(T, n_steps if n_steps is not None else max(int(round(T / 1e-3)), 100))
    rng = np.random.default_rng(seed)
    bound_factor = T - 2.0
    f0, integrals, _ = _free_trials(model, g, rng, trials)
    worst = float(np.min(integrals[:, 1] / (bound_factor * f0), initial=math.inf))
    return {"bound": bound_factor, "worst_ratio": worst, "trials": trials,
            "N": N, "T": T, "passed": bool(worst >= 0.95)}
