"""Closed-loop algebra: admissible feedback, closed-loop generators, and
the three composition results for perturbed systems, each with an exact
transfer-domain identity and an exact discrete time-domain identity.

Verification strategy. The transfer-domain identities are checked on the
continuous matrices at a handful of real frequencies, where they are exact
resolvent algebra. The time-domain identities are checked in the discrete
zero-order-hold world: the left side is assembled by closing the loop step
by step (powers of the closed one-step matrices, independent of the block
composition), the right side by the block-matrix composition formula. Both
sides describe the same discrete object through different code paths, so
they must agree to rounding, not merely to discretization order.

The three compositions are one linear-fractional check, `_compose`, of
identity feedback closed over the first m channels of a stack carrying the
perturbing channels too. Each theorem passes only the stack and its
published closed-loop form. Every grid map comes from the stack's one
lifted step through `node._grid_map`, read between the theorem's sides
(the final state for across, the initial state for cross, neither for
double): the left side from the closed step, the blocks of the right side
F21 (I - F)^-1 F12 + F22 from the open one, and the gain margins are norms
of those four blocks. The transfer probe (the stack with the state read
out or fed in) must have a closed transfer equal to G22 + G21 (I - G11)^-1
G12 of the open one, both through `node.transfer` and its singularity gate.
Io-maps travel as Markov blocks (`node._markov`). The right side solves the
grid loop on the blocks of F (`node._loop_solve`): the Markov blocks of
(I - F)^-1 by doubling from (I - D_bar)^-1, X = (I - F)^-1 F12 and F21 X as
FFT block convolutions (`node._block_conv`). That solve is also the grid
admissibility verdict. Its certificate only accepts; where it does not hold,
F is formed and the dense `_checked_solve` decides, so refusals still come
only from that gate. An exactly singular I - F is refused first at its
diagonal blocks I - D_bar.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AdmissibilityError, ControllabilityError, ShapeError
from .grids import TimeGrid
from .node import (
    Realization,
    _block_conv,
    _block_toeplitz,
    _checked_solve,
    _exactness,
    _grid_map,
    _loop_solve,
    _markov,
    _rel_dev,
    _spectral_norm,
    lifted_quadruple,
    transfer,
)

_ADMISSIBILITY_RTOL = 1e-8


@dataclass(frozen=True, eq=False)
class FeedbackGain:
    """Static output feedback u = scale * gamma * y + v.

    Inputs:
      gamma - m x p matrix routing outputs back to inputs
      scale - nonnegative prefactor, handy for sweeping k * identity gains
    """

    gamma: np.ndarray = field(repr=False)
    scale: float = 1.0

    def __post_init__(self) -> None:
        g = np.atleast_2d(np.asarray(self.gamma))
        if g.ndim != 2 or not np.all(np.isfinite(g.real)) or not np.all(np.isfinite(g.imag)):
            raise ShapeError("gamma must be a finite 2-D matrix")
        if self.scale < 0:
            raise ShapeError(f"scale must be nonnegative, got {self.scale}")
        g = np.array(g, copy=True)
        g.setflags(write=False)
        object.__setattr__(self, "gamma", g)

    @staticmethod
    def scaled_identity(k: float, dim: int) -> "FeedbackGain":
        return FeedbackGain(np.eye(dim), k)

    def matrix(self) -> np.ndarray:
        return self.scale * self.gamma


def admissible_feedback_check(r: Realization, fb: FeedbackGain, g: TimeGrid) -> dict:
    """Grid admissibility test for a static gain.

    Builds the discrete input-output matrix F on the grid and inspects
    I - F * blockdiag(gamma), together with the static loop matrix I - D
    gamma. Both take the package's one exactness rule (`node._exactness`):
    smallest singular value above 1e-8 times the largest, floored at 1,
    from SVDs, since the values are reported.

    Returns a dict with keys admissible, condition_number, sigma_min,
    feedthrough_sigma_min.
    """
    gamma = fb.matrix()
    if gamma.shape != (r.m, r.p):
        raise ShapeError(f"gamma must be {r.m} x {r.p}, got {gamma.shape}")
    N, p = g.n_steps, r.p
    # F blockdiag(gamma, ..., gamma): one m x p block product per step
    gained = _block_toeplitz(_markov(lifted_quadruple(r, g.dt), slice(None), slice(None), N) @ gamma)
    level, top, ok_grid = _exactness(np.eye(N * p) - gained, True)
    static_level, _, ok_static = _exactness(np.eye(p) - r.D @ gamma, True)
    return {
        "admissible": ok_grid and ok_static,
        "condition_number": top / level if level > 0 else float("inf"),
        "sigma_min": level,
        "feedthrough_sigma_min": static_level,
    }


def closed_loop(r: Realization, fb: FeedbackGain) -> Realization:
    """Close u = gamma y + v around (A, B, C, D).

    Returns (A + B gamma (I - D gamma)^-1 C,  B (I - gamma D)^-1,
             (I - D gamma)^-1 C,  D (I - gamma D)^-1).

    The published square-case form of the control operator,
    (I - D gamma)^-1 B, equals B (I - gamma D)^-1 only under an extra
    commutation; the push-through identity
    (I - D gamma)^-1 D = D (I - gamma D)^-1 always holds and fixes the
    feedthrough. Raises AdmissibilityError when I - D gamma is singular.
    """
    gamma = fb.matrix()
    if gamma.shape != (r.m, r.p):
        raise ShapeError(f"gamma must be {r.m} x {r.p}, got {gamma.shape}")
    s_out = _checked_solve(np.eye(r.p) - r.D @ gamma, np.eye(r.p), _ADMISSIBILITY_RTOL,
                           AdmissibilityError, "I - D gamma")
    s_in = _checked_solve(np.eye(r.m) - gamma @ r.D, np.eye(r.m), _ADMISSIBILITY_RTOL,
                          AdmissibilityError, "I - gamma D")
    return Realization(
        r.A + r.B @ gamma @ s_out @ r.C,
        r.B @ s_in,
        s_out @ r.C,
        r.D @ s_in,
    )


def _finite(norms: dict, name: str, nonnegative: bool = False) -> float:
    """norms[name] as a float, refused by name (ValueError) when it is not
    finite or, with `nonnegative`, when it is negative."""
    val = float(norms[name])
    if not np.isfinite(val) or (nonnegative and val < 0):
        raise ValueError(f"{name} must be finite{' and nonnegative' if nonnegative else ''}, got {val}")
    return val


def k0_bound(norms: dict) -> float:
    """Guaranteed controllability-preserving gain range (0, k0).

    Inputs (all operator norms at the working horizon):
      d_norm       - feedthrough norm of the looped system
      io_norm      - norm of its input-output map
      control_norm - norm of its input map
      pert_io_norm - norm of the perturbing system's input-output map
      radius       - smallest singular value of the perturbing input map
                     (the radius of surjectivity s0), must be positive and finite

    k0 = min( 1/d_norm, 1/io_norm,
              radius / (control_norm * pert_io_norm + radius * io_norm) )
    with the convention 1/0 = +inf.
    """
    d, f, phi, f_pert = (_finite(norms, name, nonnegative=True)
                         for name in ("d_norm", "io_norm", "control_norm", "pert_io_norm"))
    s0 = _finite(norms, "radius")
    if s0 <= 0:
        raise ControllabilityError(
            f"radius of surjectivity must be positive, got {s0} (not exactly controllable)"
        )
    terms = [
        np.inf if d == 0 else 1.0 / d,
        np.inf if f == 0 else 1.0 / f,
        np.inf if phi * f_pert + s0 * f == 0 else s0 / (phi * f_pert + s0 * f),
    ]
    return float(min(terms))


def theta0_bound(norms: dict) -> float:
    """Guaranteed observability-preserving gain range (0, theta0).

    Inputs:
      d_norm       - feedthrough norm of the looped system
      io_norm      - norm of its input-output map
      pert_io_norm - norm of the perturbing system's input-output map
      obs_norm     - norm of the looped system's output map
      obs_constant - observability constant of the perturbing output map
      alpha0       - retained observability level, 0 < alpha0 < obs_constant

    theta0 = min( 1/d_norm, 1/io_norm,
                  (obs_constant - alpha0) /
                  ((obs_constant - alpha0) io_norm + pert_io_norm obs_norm) )
    with the convention 1/0 = +inf: k0 of the dual side, with obs_norm for
    control_norm and obs_constant - alpha0 for the radius. + and * commute
    in IEEE arithmetic, so k0_bound gives it bit for bit. A non-finite
    obs_constant or alpha0 and a negative or non-finite obs_norm are
    refused by name (ValueError) before k0_bound sees them.
    """
    k_obs, alpha0 = _finite(norms, "obs_constant"), _finite(norms, "alpha0")
    obs_norm = _finite(norms, "obs_norm", nonnegative=True)
    if not (0.0 < alpha0 < k_obs):
        raise ValueError(
            f"alpha0 must lie strictly between 0 and the observability constant "
            f"{k_obs}, got {alpha0}"
        )
    return k0_bound(dict(norms, control_norm=obs_norm, radius=k_obs - alpha0))


@dataclass(frozen=True, eq=False)
class CompositionReport:
    """Outcome of one composition-identity verification."""

    theorem: str
    closed_loop: Realization
    deviation_time: float
    deviation_transfer: float
    lambda_samples: tuple
    grid: TimeGrid
    k0: float | None = None
    theta0: float | None = None
    norms: dict | None = None

    def to_json_dict(self) -> dict:
        doc = {
            "theorem": self.theorem,
            "deviation_time": self.deviation_time,
            "deviation_transfer": self.deviation_transfer,
            "lambda_samples": list(self.lambda_samples),
            "grid": {"t_end": self.grid.t_end, "n_steps": self.grid.n_steps},
        }
        if self.k0 is not None:
            doc["k0"] = self.k0
        if self.theta0 is not None:
            doc["theta0"] = self.theta0
        return doc


def _require_shared(name: str, x: np.ndarray, y: np.ndarray) -> None:
    if x.shape != y.shape or not np.allclose(x, y, rtol=0.0, atol=1e-12 * (1 + np.max(np.abs(x)))):
        raise ShapeError(f"the systems must share {name}")


def _channels(main: Realization, b=None, c=None, bc=None) -> Realization:
    """main with extra channels stacked on: the input (B, D) of b beside its
    (B, D), the output (C, D) of c below its (C, D) and, when both are
    given, the feedthrough of bc in the corner (zero when bc is None)."""
    B, C, D = main.B, main.C, main.D
    if b is not None:
        B, D = np.hstack([B, b.B]), np.hstack([D, b.D])
    if c is not None:
        corner = [] if b is None else [np.zeros((c.p, b.m)) if bc is None else bc.D]
        C, D = np.vstack([C, c.C]), np.vstack([D, np.hstack([c.D, *corner])])
    return Realization(main.A, B, C, D)


def _companion_stack(mode: str, main: Realization, pert: Realization) -> Realization:
    """The square loop system main with its companion stacked on: beside it
    (mode "across", the companion shares A and C) or below it (mode
    "cross", the companion shares A and B). Refuses any other pair."""
    if main.m != main.p:
        raise ShapeError("the looped system must be square (m == p)")
    _require_shared("A", main.A, pert.A)
    if mode == "across":
        _require_shared("C", main.C, pert.C)
        return _channels(main, b=pert)
    _require_shared("B", main.B, pert.B)
    return _channels(main, c=pert)


def _readout(r: Realization) -> Realization:
    """(A, B, I, 0): r observed through its whole state."""
    return Realization(r.A, r.B, np.eye(r.n), np.zeros((r.n, r.m)))


def _feed(r: Realization) -> Realization:
    """(A, I, C, 0): r driven straight into its state."""
    return Realization(r.A, np.eye(r.n), r.C, np.zeros((r.p, r.n)))


def _closed_step(step: tuple, m: int, S: np.ndarray, k=1.0) -> tuple:
    """One-step quadruple (E_cl, M_cl, C_cl, D_cl) from the extra inputs to
    the extra outputs of the stacked one-step quadruple step = (E, M, C_bar,
    D_bar) once u = k y closes the loop over its first m inputs and outputs.

    S = (I - k D_bar[:m, :m])^-1 is passed in, so the caller keeps its own
    singularity gate; k and S may carry leading batch axes.
    """
    E, M, C, D = step
    kS = np.asarray(k)[..., None, None] * S
    M_u, C_y = M[:, :m], C[:m]
    return (
        E + M_u @ kS @ C_y,
        M[:, m:] + M_u @ kS @ D[:m, m:],
        C[m:] + D[m:, :m] @ kS @ C_y,
        D[m:, m:] + D[m:, :m] @ kS @ D[:m, m:],
    )


def _sides(theorem: str, first: int) -> tuple:
    """(out, inp): the channels past the first `first` that the theorem's
    closed map reads, None where it reads the state instead: the final
    state for "across" (an input map), the initial state for "cross" (an
    output map), neither for the two-sided composition (an io-map)."""
    extra = slice(first, None)
    return (None if theorem == "across" else extra, None if theorem == "cross" else extra)


def _open_blocks(theorem: str, step: tuple, m: int, n_steps: int) -> tuple:
    """(F, F12, F21, F22): the grid maps of the open stacked step between its
    first m channels (the loop) and the theorem's sides, io-maps as their
    Markov blocks."""
    out, inp = _sides(theorem, m)
    loop = slice(m)
    return tuple((_grid_map if o is None or i is None else _markov)(step, o, i, n_steps)
                 for o, i in ((loop, loop), (loop, inp), (out, loop), (out, inp)))


def _margin_norms(mode: str, blocks: tuple, D: np.ndarray, dt: float) -> tuple:
    """(norms, margin, top) of the gain margin k0 (mode "across") or theta0
    (mode "cross") in discrete-L2 coordinates, read off the open blocks
    (F, F12, F21, F22) of `_open_blocks`. The exactness verdict of F22
    (`node._exactness`, onto for across, bounded below for cross) gives its
    level, the radius of surjectivity or the observability constant, and
    its largest singular value top. margin is k0, or theta0 at alpha0 =
    level / 2, and None when F22 is not exact."""
    sqdt = np.sqrt(dt)
    F, F12, F21, F22 = blocks
    norms = {"d_norm": _spectral_norm(D), "io_norm": _spectral_norm(F)}
    across = mode == "across"
    if across:
        base = F22 / sqdt
        norms.update(pert_io_norm=_spectral_norm(F12), control_norm=_spectral_norm(F21 / sqdt))
    else:
        base = F22 * sqdt
        norms.update(pert_io_norm=_spectral_norm(F21), obs_norm=_spectral_norm(F12 * sqdt))
    level, top, exact = _exactness(base, across)
    norms["radius" if across else "obs_constant"] = level
    if not exact:
        return norms, None, top
    if across:
        return norms, k0_bound(norms), top
    norms["alpha0"] = level / 2.0
    return norms, theta0_bound(norms), top


def _compose(theorem: str, main: Realization, stack: Realization, g: TimeGrid,
             close) -> CompositionReport:
    """The composition report of identity feedback around the square system
    main, closed over the first m channels of stack (main with its
    companions stacked on). close(A^I, (I - D)^-1) is the published closed
    loop. Every grid map comes from the one-step quadruple of the stack:
    the left side from its per-step closure, the right side from its open
    blocks, each read between the theorem's `_sides`."""
    m, N = main.m, g.n_steps
    s_out = _checked_solve(np.eye(m) - main.D, np.eye(m), _ADMISSIBILITY_RTOL,
                           AdmissibilityError, "I - D")
    closed = close(main.A + main.B @ s_out @ main.C, s_out)

    # discrete side, left: close the loop step by step
    step = lifted_quadruple(stack, g.dt)
    S = _checked_solve(np.eye(m) - step[3][:m, :m], np.eye(m), _ADMISSIBILITY_RTOL,
                       AdmissibilityError, "I - D_bar")
    lhs = (_markov if theorem == "bcross" else _grid_map)(_closed_step(step, m, S), *_sides(theorem, 0), N)

    # discrete side, right: block composition of the open-loop maps, X =
    # (I - F)^-1 F12 from the inverse sequence of I - F, whose certificate, or
    # else the dense gate, is the grid verdict; F21 X is T(F21) X, or for
    # across the reversed input map convolved with X
    blocks = f, f12, f21, f22 = _open_blocks(theorem, step, m, N)
    x = _loop_solve(f, f12.reshape(N, m, -1), S, _ADMISSIBILITY_RTOL, AdmissibilityError, "I - F on the grid")
    across = theorem == "across"
    conv = _block_conv(f21.reshape(-1, N, m)[:, ::-1].swapaxes(0, 1) if across else f21)(x)
    rhs = (conv[::-1].swapaxes(0, 1) if across else conv).reshape(f22.shape) + f22

    # transfer side: the closed probe against G22 + G21 (I - G11)^-1 G12 of
    # the open probe, at real frequencies clear of both spectra; across
    # reads the state out, (lam - A^I)^-1 B^I, cross feeds it in,
    # C^I (lam - A^I)^-1
    shift = max(main.spectral_abscissa(), closed.spectral_abscissa()) + 1.0
    lambdas = tuple(base + shift for base in (1.0, 2.0, 5.0, 10.0))
    if theorem == "across":
        open_probe, closed_probe = _channels(stack, c=_readout(stack)), _readout(closed)
    elif theorem == "cross":
        open_probe, closed_probe = _channels(stack, b=_feed(stack)), _feed(closed)
    else:
        open_probe, closed_probe = stack, closed
    dev_transfer = 0.0
    for lam in lambdas:
        G = transfer(open_probe, lam)
        x = _checked_solve(np.eye(m) - G[:m, :m], G[:m, m:], _ADMISSIBILITY_RTOL,
                           AdmissibilityError, f"I - G11({lam})")
        lft = G[m:, m:] + G[m:, :m] @ x
        dev_transfer = max(dev_transfer, _rel_dev(transfer(closed_probe, lam), lft))

    norms, margins = None, {}
    if theorem != "bcross":
        norms, margin, _ = _margin_norms(theorem, blocks, main.D, g.dt)
        margins = {"k0" if theorem == "across" else "theta0": margin}
    return CompositionReport(theorem, closed, _rel_dev(lhs, rhs), dev_transfer,
                             lambdas, g, norms=norms, **margins)


def perturb_across(main: Realization, pert: Realization, g: TimeGrid) -> CompositionReport:
    """Controllability-side composition: close identity feedback around a
    square system (A, B, C, D) and drive it through a second input channel
    (A, DB, C, P) sharing the state dynamics and the observation.

    The closed loop is (A + B (I-D)^-1 C, B (I-D)^-1 P + DB, (I-D)^-1 C,
    (I-D)^-1 P). Its input map factors through the open-loop maps:

        input_map_closed = Phi (I - F)^-1 F_pert + Phi_pert

    which is checked discretely (exact), and the same identity is checked
    on resolvents at sampled frequencies. When the perturbing input map is
    onto, the report carries the guaranteed gain margin k0.
    """
    return _compose(
        "across", main, _companion_stack("across", main, pert), g,
        lambda a, s: Realization(a, main.B @ s @ pert.D + pert.B, s @ main.C, s @ pert.D),
    )


def perturb_cross(main: Realization, pert: Realization, g: TimeGrid) -> CompositionReport:
    """Observability-side composition: close identity feedback around a
    square system (A, B, C, D) and observe through a second output channel
    (A, B, DC, P) sharing the state dynamics and the control.

    The closed loop is (A^I, B (I-D)^-1, P (I-D)^-1 C + DC, P (I-D)^-1)
    and its output map factors as

        output_map_closed = F_pert (I - F)^-1 Psi + Psi_pert

    checked discretely (exact) and on resolvents. The report carries the
    guaranteed gain margin theta0 at the convention alpha0 = obs_constant/2
    when the perturbing output map is bounded below.
    """
    return _compose(
        "cross", main, _companion_stack("cross", main, pert), g,
        lambda a, s: Realization(a, main.B @ s, pert.D @ s @ main.C + pert.C, pert.D @ s),
    )


def perturb_double(
    main: Realization,
    pert_b: Realization,
    pert_c: Realization,
    pert_bc: Realization,
    g: TimeGrid,
) -> CompositionReport:
    """Two-sided composition: identity feedback around the square system
    (A, B, C, D), input through DB, output through DC.

    pert_b = (A, DB, C, 0), pert_c = (A, B, DC, 0), pert_bc = (A, DB, DC, 0).
    The closed loop is simply (A^I, DB, DC, 0) and its input-output map
    factors as

        io_map_closed = F_pert_c (I - F)^-1 F_pert_b + F_pert_bc

    checked discretely (exact) and on resolvents.
    """
    if main.m != main.p:
        raise ShapeError("the looped system must be square (m == p)")
    for name, pert in (("pert_b", pert_b), ("pert_c", pert_c), ("pert_bc", pert_bc)):
        _require_shared("A", main.A, pert.A)
        if np.any(pert.D != 0):
            raise ShapeError(f"{name} must have zero feedthrough")
    _require_shared("C", main.C, pert_b.C)
    _require_shared("B", main.B, pert_c.B)
    _require_shared("DB", pert_b.B, pert_bc.B)
    _require_shared("DC", pert_c.C, pert_bc.C)
    return _compose(
        "bcross", main, _channels(main, b=pert_b, c=pert_c, bc=pert_bc), g,
        lambda a, s: Realization(a, pert_b.B, pert_c.C, np.zeros((pert_c.p, pert_b.m))),
    )
