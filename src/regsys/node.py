"""Finite-dimensional realizations of regular linear systems.

A Realization holds dense matrices (A, B, C, D). On a TimeGrid the system
induces four maps: the state propagator, the input (control) map, the
output (observation) map, and the input-output map. With zero-order-hold
inputs these have exact discrete representatives, all read off one block
matrix exponential per step size (C. Van Loan, "Computing integrals
involving the matrix exponential", IEEE TAC 23(3), 1978):

    exp(dt [[0, C, 0],      [[I, C M_I, C M_J B],
            [0, A, B],  =    [0, E,     M_I B  ],
            [0, 0, 0]])      [0, 0,     I      ]]

    E   = exp(A dt)
    M_I = int_0^dt exp(A s) ds
    M_J = int_0^dt (dt - s) exp(A s) ds

The per-step input matrix is M = M_I B. Outputs enter the matrix world as
subinterval averages, with observation row C_bar = C M_I / dt and
feedthrough block D_bar = C M_J B / dt + D. Averaged outputs are what make
the assembled matrices an exact discrete quadruple: the composition
identities hold to machine precision, and the adjoint of the observation
matrix is exactly the control matrix of the adjoint system on the
time-reversed grid. Signal-level convenience maps sample pointwise
instead, which is the natural thing to plot and serialize.

Operator 2-norms (the gain-margin norms and the io-map norm that sampled
systems are scaled by) all come from `_spectral_norm`, the top eigenvalue
of the smaller Gram matrix. Every solve that can be refused as singular
goes through `_checked_solve`: one LU and its 1-norm condition estimate.
Reported smallest singular values (admissibility, radius of
surjectivity, observability constant) take SVDs, because the Gram route
squares the condition number.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import GridError, ShapeError, SpectrumError
from .grids import Signal, TimeGrid


def _as_matrix(x, name: str) -> np.ndarray:
    a = np.asarray(x)
    if a.ndim != 2:
        raise ShapeError(f"{name} must be a 2-D matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ShapeError(f"{name} contains non-finite entries")
    a = np.array(a, copy=True)
    a.setflags(write=False)
    return a


def _rel_dev(lhs, rhs) -> float:
    """max |lhs - rhs| relative to max |rhs|, the scale floored at 1e-300."""
    lhs, rhs = np.asarray(lhs), np.asarray(rhs)
    scale = max(float(np.max(np.abs(rhs))), 1e-300)
    return float(np.max(np.abs(lhs - rhs)) / scale)


def _spectral_norm(mat) -> float:
    """Operator 2-norm: the square root of the top eigenvalue of the Gram
    matrix of the smaller side, to O(n eps) relative accuracy (Golub & Van
    Loan, Matrix Computations, 4th ed., sec. 8.6). The matrix is first
    scaled by a power of two, which is exact and keeps the Gram matrix clear
    of overflow and underflow. The route squares the condition number, so it
    is not fit for the smallest singular value.
    """
    a = np.asarray(mat)
    top = float(np.max(np.abs(a))) if a.size else 0.0
    if top == 0.0:
        return 0.0
    scale = 2.0 ** np.frexp(top)[1]
    a = a / scale
    at = a.conj().T if np.iscomplexobj(a) else a.T
    gram = a @ at if a.shape[0] <= a.shape[1] else at @ a
    k = gram.shape[0]
    (lam,) = scipy.linalg.eigh(gram, eigvals_only=True, overwrite_a=True, subset_by_index=[k - 1, k - 1])
    return float(np.sqrt(max(lam, 0.0)) * scale)


def _checked_solve(mat, rhs, rtol: float, error: type, what: str) -> np.ndarray:
    """mat^-1 rhs behind the package's one singularity gate.

    One LU, then LAPACK's 1-norm condition estimate rcond (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., ch. 15), so that
    rcond * ||mat||_1 estimates sigma_min to within a factor of n. Raises
    error when rcond is not finite or rcond * ||mat||_1 <= rtol *
    max(||mat||_1, 1). An exactly singular matrix is refused the same way,
    without a LinAlgWarning.
    """
    anorm = np.linalg.norm(mat, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(mat)
    gecon = scipy.linalg.lapack.zgecon if np.iscomplexobj(lu) else scipy.linalg.lapack.dgecon
    rcond, _ = gecon(lu, anorm)
    if not np.isfinite(rcond) or rcond * anorm <= rtol * max(anorm, 1.0):
        raise error(f"{what} is numerically singular (rcond={rcond:.2e}, 1-norm {anorm:.2e})")
    return scipy.linalg.lu_solve((lu, piv), rhs)


def _encode_matrix(mat) -> list:
    """JSON matrix format: row-major nested lists of [re, im] pairs."""
    z = np.asarray(mat, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in z]


def _decode_matrix(rows) -> np.ndarray:
    """Inverse of _encode_matrix; real when every imaginary part is zero."""
    z = np.array([[complex(re, im) for re, im in row] for row in rows])
    return z.real if np.all(z.imag == 0.0) else z


@dataclass(frozen=True, eq=False)
class Realization:
    """State-space quadruple (A, B, C, D).

    Inputs:
      A - state matrix, n x n
      B - control matrix, n x m
      C - observation matrix, p x n
      D - feedthrough matrix, p x m

    At finite dimension the extrapolation-space and extension symbols that
    decorate the unbounded theory all collapse: the extended state space is
    the state space, the extended observation operator is C itself, and the
    comparison map between closed-loop state spaces is the identity.
    """

    A: np.ndarray = field(repr=False)
    B: np.ndarray = field(repr=False)
    C: np.ndarray = field(repr=False)
    D: np.ndarray = field(repr=False)
    state_label: str = "X"
    input_label: str = "U"
    output_label: str = "Y"

    def __post_init__(self) -> None:
        A = _as_matrix(self.A, "A")
        B = _as_matrix(self.B, "B")
        C = _as_matrix(self.C, "C")
        D = _as_matrix(self.D, "D")
        n = A.shape[0]
        if A.shape != (n, n):
            raise ShapeError(f"A must be square, got {A.shape}")
        if B.shape[0] != n:
            raise ShapeError(f"B must have {n} rows, got {B.shape}")
        if C.shape[1] != n:
            raise ShapeError(f"C must have {n} columns, got {C.shape}")
        if D.shape != (C.shape[0], B.shape[1]):
            raise ShapeError(f"D must be {C.shape[0]} x {B.shape[1]}, got {D.shape}")
        for name, val in (("A", A), ("B", B), ("C", C), ("D", D)):
            object.__setattr__(self, name, val)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    def spectral_abscissa(self) -> float:
        return float(np.max(np.linalg.eigvals(self.A).real))

    # serialization: {n, m, p, A, B, C, D}, matrices in the JSON matrix format

    def to_json_dict(self) -> dict:
        doc = {"n": self.n, "m": self.m, "p": self.p}
        doc.update((name, _encode_matrix(getattr(self, name))) for name in "ABCD")
        return doc

    @staticmethod
    def from_json_dict(doc: dict) -> "Realization":
        r = Realization(*(_decode_matrix(doc[name]) for name in "ABCD"))
        if (r.n, r.m, r.p) != (doc["n"], doc["m"], doc["p"]):
            raise ShapeError("declared dimensions disagree with matrix shapes")
        return r

    def save_json(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=1)

    @staticmethod
    def load_json(path: str) -> "Realization":
        with open(path) as fh:
            return Realization.from_json_dict(json.load(fh))


def semigroup_step(r: Realization, dt: float) -> np.ndarray:
    """exp(A dt), the state propagator over one step.

    Computed by scaling-and-squaring (scipy.linalg.expm), which is robust
    for the non-normal matrices that come out of discretized PDEs.
    """
    if dt < 0:
        raise ValueError(f"dt must be nonnegative, got {dt}")
    return scipy.linalg.expm(r.A * dt)


def lifted_quadruple(
    r: Realization, dt: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(E, M, C_bar, D_bar): the exact discrete system for zero-order-hold
    inputs and subinterval-averaged outputs.

    One exponential of size p + n + m (see the module docstring). Channels
    stacked into B, C and D come out of the same exponential as the
    corresponding column and row blocks of M, C_bar and D_bar.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    n, p = r.n, r.p
    x, u = slice(p, p + n), slice(p + n, None)
    big = np.zeros((p + n + r.m,) * 2, dtype=np.result_type(r.A, r.B, r.C, float))
    big[:p, x] = r.C
    big[x, x] = r.A
    big[x, u] = r.B
    ebig = scipy.linalg.expm(big * dt)
    return ebig[x, x], ebig[x, u], ebig[:p, x] / dt, ebig[:p, u] / dt + r.D


@dataclass(frozen=True, eq=False)
class QuadrupleMaps:
    """Grid matrices of the four system maps.

    semigroup_samples[k] = exp(A k dt), k = 0..n_steps.
    input_map  : n x (n_steps * m), block column k is E^(N-1-k) M.
    output_map : (n_steps * p) x n, block row j is C_bar E^j.
    io_map     : (n_steps * p) x (n_steps * m), block lower triangular
                 Toeplitz with D_bar on the diagonal and C_bar E^(i-1-k) M
                 below it.
    """

    grid: TimeGrid
    semigroup_samples: np.ndarray
    input_map: np.ndarray
    output_map: np.ndarray
    io_map: np.ndarray


def _control_columns(E: np.ndarray, M: np.ndarray, n_steps: int) -> np.ndarray:
    """Input map [E^(N-1) M, ..., E M, M] by forward accumulation; leading
    (batch) axes of E and M are carried through."""
    blocks = [M]
    for _ in range(n_steps - 1):
        blocks.append(E @ blocks[-1])
    return np.concatenate(blocks[::-1], axis=-1)


def _observation_rows(C: np.ndarray, E: np.ndarray, n_steps: int) -> np.ndarray:
    """Output map [C; C E; ...; C E^(N-1)] by forward accumulation; leading
    (batch) axes of C and E are carried through."""
    blocks = [C]
    for _ in range(n_steps - 1):
        blocks.append(blocks[-1] @ E)
    return np.concatenate(blocks, axis=-2)


def _io_toeplitz(E: np.ndarray, M: np.ndarray, C: np.ndarray, D: np.ndarray, n_steps: int) -> np.ndarray:
    """Input-output map: block lower-triangular Toeplitz with D on the
    diagonal and C E^(j-1) M on the j-th block subdiagonal.

    With seq = [C E^(N-2) M, ..., C M, D, 0, ..., 0] (2N-1 blocks), block
    row i is seq[N-1-i : 2N-1-i], so the map is a sliding-window view over
    seq, copied once by the final reshape.
    """
    N = n_steps
    p, m = D.shape
    seq = np.zeros((2 * N - 1, p, m), dtype=np.result_type(E, M, C, D))
    seq[N - 1] = D
    acc = C
    for j in range(N - 2, -1, -1):
        seq[j] = acc @ M
        acc = acc @ E
    windows = np.lib.stride_tricks.sliding_window_view(seq, N, axis=0)
    return windows[::-1].transpose(0, 1, 3, 2).reshape(N * p, N * m)


def quadruple_maps(r: Realization, g: TimeGrid) -> QuadrupleMaps:
    """Assemble the exact discrete quadruple on the grid."""
    N = g.n_steps
    E, M, C_bar, D_bar = lifted_quadruple(r, g.dt)
    samples = np.empty((N + 1, r.n, r.n), dtype=E.dtype)
    samples[0] = np.eye(r.n)
    for k in range(1, N + 1):
        samples[k] = E @ samples[k - 1]
    return QuadrupleMaps(
        g,
        samples,
        _control_columns(E, M, N),
        _observation_rows(C_bar, E, N),
        _io_toeplitz(E, M, C_bar, D_bar, N),
    )


def _check_input_signal(r: Realization, g: TimeGrid, u: Signal) -> np.ndarray:
    if u.grid != g:
        raise ShapeError("input signal grid disagrees with the requested grid")
    if u.dim != r.m:
        raise ShapeError(f"input dimension {u.dim} does not match m={r.m}")
    return u.values


def input_map(r: Realization, g: TimeGrid, u: Signal) -> Signal:
    """State trajectory from zero initial state under zero-order hold.

    Exact for piecewise-constant u: x_{k+1} = E x_k + M u_k, x_0 = 0.
    The trailing input sample u_N does not influence any state on the grid.
    """
    uv = _check_input_signal(r, g, u)
    E, M, _, _ = lifted_quadruple(r, g.dt)
    x = np.zeros((len(g), r.n), dtype=np.result_type(E, M, uv))
    for k in range(g.n_steps):
        x[k + 1] = E @ x[k] + M @ uv[k]
    return Signal(g, x)


def output_map(r: Realization, g: TimeGrid, x0) -> Signal:
    """y(t_k) = C exp(A t_k) x0 sampled on the grid."""
    x0 = np.asarray(x0).reshape(-1)
    if x0.shape[0] != r.n:
        raise ShapeError(f"state dimension {x0.shape[0]} does not match n={r.n}")
    E = semigroup_step(r, g.dt)
    y = np.zeros((len(g), r.p), dtype=np.result_type(E, x0, r.C))
    xk = x0.astype(y.dtype)
    for k in range(len(g)):
        y[k] = r.C @ xk
        xk = E @ xk
    return Signal(g, y)


def io_map(r: Realization, g: TimeGrid, u: Signal) -> Signal:
    """y(t_k) = C x(t_k) + D u(t_k) with x the zero-order-hold trajectory."""
    uv = _check_input_signal(r, g, u)
    x = input_map(r, g, u).values
    y = x @ r.C.T + uv @ r.D.T
    return Signal(g, y)


def transfer(r: Realization, lam: complex) -> np.ndarray:
    """G(lam) = C (lam I - A)^{-1} B + D.

    Raises SpectrumError when lam is an eigenvalue of A up to working
    precision: the gate of `_checked_solve` at rtol 1e3 * machine eps.
    """
    lam = complex(lam)
    Alam = lam * np.eye(r.n) - r.A
    if np.isrealobj(r.A) and lam.imag == 0.0:
        Alam = Alam.real
    X = _checked_solve(Alam, r.B, 1e3 * np.finfo(float).eps, SpectrumError,
                       f"lambda - A at lambda={lam}")
    return r.C @ X + r.D


def _check_sweep(r: Realization, lambda_sweep) -> np.ndarray:
    sweep = np.asarray(lambda_sweep, dtype=float).reshape(-1)
    if sweep.size < 2 or np.any(np.diff(sweep) <= 0):
        raise ValueError("lambda sweep must be an increasing sequence")
    if sweep[0] <= r.spectral_abscissa():
        raise SpectrumError(
            f"sweep start {sweep[0]} does not clear the spectral abscissa "
            f"{r.spectral_abscissa():.6g}"
        )
    return sweep


def regularity_limit(r: Realization, lambda_sweep, u) -> dict:
    """Feedthrough action D u recovered as the large-frequency limit of
    G(lambda) u along a real sweep.

    Returns:
      value        - G(lambda_max) u
      target       - D u
      tail_errors  - || G(lambda_j) u - D u || along the sweep
      rate         - least-squares slope of log error vs log lambda
                     (about -1 for a generic first-order resolvent tail)
    """
    sweep = _check_sweep(r, lambda_sweep)
    u = np.asarray(u).reshape(-1)
    if u.shape[0] != r.m:
        raise ShapeError(f"input dimension {u.shape[0]} does not match m={r.m}")
    target = r.D @ u
    values = [transfer(r, lam) @ u for lam in sweep]
    errors = np.array([np.linalg.norm(v - target) for v in values])
    positive = errors > 0
    if np.count_nonzero(positive) >= 2:
        rate = float(
            np.polyfit(np.log(sweep[positive]), np.log(errors[positive]), 1)[0]
        )
    else:
        rate = float("-inf")  # converged exactly, e.g. B = 0
    return {
        "value": values[-1],
        "target": target,
        "tail_errors": errors,
        "rate": rate,
    }


def lambda_extension(r: Realization, x, lambda_sweep) -> dict:
    """Evaluate C lam (lam I - A)^{-1} x along the sweep.

    At finite dimension the limit is plain C x; the returned residual is
    || final value - C x ||, which decays like ||C (lam-A)^{-1} A x||.
    Each value is lam times the transfer function of (A, x, C, 0), so a
    shift numerically in the spectrum is refused (SpectrumError) there.
    """
    sweep = _check_sweep(r, lambda_sweep)
    x = np.asarray(x).reshape(-1)
    if x.shape[0] != r.n:
        raise ShapeError(f"state dimension {x.shape[0]} does not match n={r.n}")
    target = r.C @ x
    fed = Realization(r.A, x[:, None], r.C, np.zeros((r.p, 1)))
    values = [lam * transfer(fed, lam)[:, 0] for lam in sweep]
    residuals = np.array([np.linalg.norm(v - target) for v in values])
    return {
        "value": values[-1],
        "target": target,
        "residuals": residuals,
        "residual": float(residuals[-1]),
    }


def composition_deviations(r: Realization, g: TimeGrid, split: int | None = None) -> dict:
    """Max relative deviations of the four concatenation identities of the
    grid maps at a split step (default the middle of the grid).

    With E_t the semigroup sample at the split and (phi, psi, fio) the maps
    of the two sub-grids, the full-grid maps must tile as
        semigroup: E_full = E_tail E_head
        input:     phi_full = [E_tail phi_head, phi_tail]
        output:    psi_full = [psi_head; psi_tail E_head]
        io:        fio_full = [[fio_head, 0], [psi_tail phi_head, fio_tail]]
    Exact zero-order-hold discretization satisfies all four to rounding.
    """
    N = g.n_steps
    q = N // 2 if split is None else int(split)
    if not 1 <= q <= N - 1:
        raise GridError(f"split must lie strictly inside the grid, got {q} of {N}")
    full = quadruple_maps(r, g)
    head = quadruple_maps(r, TimeGrid(q * g.dt, q))
    tail = quadruple_maps(r, TimeGrid((N - q) * g.dt, N - q))
    m, p = r.m, r.p

    e_head = full.semigroup_samples[q]
    e_tail = tail.semigroup_samples[-1]
    dev_semigroup = _rel_dev(e_tail @ e_head, full.semigroup_samples[N])

    phi_expected = np.hstack([e_tail @ head.input_map, tail.input_map])
    dev_input = _rel_dev(phi_expected, full.input_map)

    psi_expected = np.vstack([head.output_map, tail.output_map @ e_head])
    dev_output = _rel_dev(psi_expected, full.output_map)

    fio_expected = np.zeros_like(full.io_map)
    fio_expected[: q * p, : q * m] = head.io_map
    fio_expected[q * p :, : q * m] = tail.output_map @ head.input_map
    fio_expected[q * p :, q * m :] = tail.io_map
    dev_io = _rel_dev(fio_expected, full.io_map)

    return {
        "semigroup": dev_semigroup,
        "input": dev_input,
        "output": dev_output,
        "io": dev_io,
        "split": q,
    }
