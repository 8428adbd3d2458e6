"""Correctness checks that do not trust the program.

Each check takes what regsys produced and compares it with a reference the
benchmark computes on its own from plain numpy/scipy, or with a property the
method must have. A check returns a list of failure messages; an empty list
means it passed. The comparison functions (`compare_*`) take the program's
result as an argument so that selftest.py can hand them a perturbed one.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
import scipy.linalg

# the closed form of the wave stand-in: wave_triple's default gains
WAVE_K = (0.4, 0.3)
WAVE_W = (0.2, 0.5)
WAVE_COMPOSITE = WAVE_W[0] / (1.0 - WAVE_K[0]) * WAVE_K[1] + WAVE_W[1]  # = 0.6


def rel(lhs, rhs) -> float:
    lhs, rhs = np.asarray(lhs), np.asarray(rhs)
    return float(np.max(np.abs(lhs - rhs)) / max(float(np.max(np.abs(rhs))), 1e-300))


def _le(failures: list, what: str, measured: float, tol: float) -> None:
    if not measured <= tol:  # also catches nan
        failures.append(f"{what}: {measured:.3e} > {tol:.1e}")


# ---------------------------------------------------------------- grid maps

def block_zoh(A, B, C, D, dt):
    """(E, M, C_bar, D_bar) from two Van Loan block exponentials:
    exp(dt [[A, B, 0], [0, 0, I], [0, 0, 0]]) carries E, M_I B and M_J B;
    exp(dt [[A, I], [0, 0]]) carries M_I."""
    n, m = B.shape
    z = np.zeros((n + 2 * m, n + 2 * m))
    z[:n, :n], z[:n, n:n + m], z[n:n + m, n + m:] = A, B, np.eye(m)
    ez = scipy.linalg.expm(z * dt)
    E, M, MJB = ez[:n, :n], ez[:n, n:n + m], ez[:n, n + m:]
    y = np.zeros((2 * n, 2 * n))
    y[:n, :n], y[:n, n:] = A, np.eye(n)
    MI = scipy.linalg.expm(y * dt)[:n, n:]
    return E, M, C @ MI / dt, C @ MJB / dt + D


def reference_maps(A, B, C, D, dt, N) -> dict:
    """Semigroup samples, input map, output map and block-Toeplitz io map,
    assembled from block_zoh by a strided gather."""
    E, M, Cb, Db = block_zoh(A, B, C, D, dt)
    n, m, p = A.shape[0], B.shape[1], C.shape[0]
    powers = np.empty((N + 1, n, n))
    powers[0] = np.eye(n)
    for k in range(1, N + 1):
        powers[k] = E @ powers[k - 1]
    phi = np.concatenate([powers[N - 1 - k] @ M for k in range(N)], axis=1)
    psi = np.concatenate([Cb @ powers[j] for j in range(N)], axis=0)
    markov = np.concatenate([Db[None], Cb[None] @ powers[: N - 1] @ M[None]], axis=0)
    lag = np.subtract.outer(np.arange(N), np.arange(N))
    blocks = markov[np.clip(lag, 0, None)] * (lag >= 0)[:, :, None, None]
    fio = blocks.transpose(0, 2, 1, 3).reshape(N * p, N * m)
    return {"semigroup": powers, "input": phi, "output": psi, "io": fio,
            "exp_T": scipy.linalg.expm(A * (N * dt))}


def compare_maps(qm, ref: dict, rtol: float = 1e-10) -> list:
    failures = []
    _le(failures, "semigroup samples", rel(qm.semigroup_samples, ref["semigroup"]), rtol)
    _le(failures, "exp(A T) sample", rel(qm.semigroup_samples[-1], ref["exp_T"]), rtol)
    _le(failures, "input map", rel(qm.input_map, ref["input"]), rtol)
    _le(failures, "output map", rel(qm.output_map, ref["output"]), rtol)
    _le(failures, "io map", rel(qm.io_map, ref["io"]), rtol)
    return failures


# ------------------------------------------------------- transfer identities

def _tf(A, B, C, D, lam):
    return C @ np.linalg.solve(lam * np.eye(A.shape[0]) - A, B) + D


def expected_closed_transfer(theorem: str, systems, lam: complex) -> np.ndarray:
    """Closed-loop transfer under u = y + v from the open-loop transfers:
    across (I - G)^-1 G_pert, cross G_pert (I - G)^-1,
    double G_c (I - G)^-1 G_b + G_bc."""
    main = systems[0]
    g = _tf(main.A, main.B, main.C, main.D, lam)
    loop = np.eye(g.shape[0]) - g
    if theorem == "across":
        pert = systems[1]
        return np.linalg.solve(loop, _tf(pert.A, pert.B, pert.C, pert.D, lam))
    if theorem == "cross":
        pert = systems[1]
        g_pert = _tf(pert.A, pert.B, pert.C, pert.D, lam)
        return np.linalg.solve(loop.T, g_pert.T).T
    pb, pc, pbc = systems[1:]
    g_b = _tf(pb.A, pb.B, pb.C, pb.D, lam)
    g_c = _tf(pc.A, pc.B, pc.C, pc.D, lam)
    g_bc = _tf(pbc.A, pbc.B, pbc.C, pbc.D, lam)
    return g_c @ np.linalg.solve(loop, g_b) + g_bc


def compare_closed_loop(theorem: str, systems, closed, rtol: float = 1e-9) -> list:
    """The reported closed-loop realization must have the transfer the
    loop algebra predicts, at three real shifts right of both spectra."""
    shift = max(np.max(np.linalg.eigvals(s.A).real) for s in (systems[0], closed)) + 1.0
    worst = 0.0
    for lam in (shift + 0.5, shift + 3.0, shift + 11.0):
        got = _tf(closed.A, closed.B, closed.C, closed.D, lam)
        worst = max(worst, rel(got, expected_closed_transfer(theorem, systems, lam)))
    failures = []
    _le(failures, f"{theorem} closed-loop transfer", worst, rtol)
    return failures


# ------------------------------------------------------------ gain sweeps

def reference_sweep(mode: str, main, pert, dt: float, N: int, k_values) -> dict:
    """sigma_min of the perturbed operator by block composition of the open
    maps (not the per-step recursion the program uses), the Weyl lower
    bound and the guaranteed gain, all from reference_maps."""
    mm = reference_maps(main.A, main.B, main.C, main.D, dt, N)
    mp = reference_maps(pert.A, pert.B, pert.C, pert.D, dt, N)
    F, F_pert = mm["io"], mp["io"]
    io_norm = np.linalg.norm(F, 2)
    d_norm = np.linalg.norm(main.D, 2)
    sq = math.sqrt(dt)
    if mode == "across":
        op, op_pert = mm["input"] / sq, mp["input"] / sq
        level = np.linalg.svd(op_pert, compute_uv=False)[-1]
        spread = np.linalg.norm(op, 2) * np.linalg.norm(F_pert, 2)
        gap = level
    else:
        op, op_pert = mm["output"] * sq, mp["output"] * sq
        level = np.linalg.svd(op_pert, compute_uv=False)[-1]
        spread = np.linalg.norm(F_pert, 2) * np.linalg.norm(op, 2)
        gap = level / 2.0  # alpha0 = obs_constant / 2, the program's default
    terms = [1.0 / d_norm if d_norm > 0 else np.inf, 1.0 / io_norm if io_norm > 0 else np.inf,
             gap / (spread + gap * io_norm)]
    sigma, bound = [], []
    for k in k_values:
        loop = np.eye(F.shape[0]) - k * F
        if mode == "across":
            closed = k * np.linalg.solve(loop.T, op.T).T @ F_pert + op_pert
        else:
            closed = k * F_pert @ np.linalg.solve(loop, op) + op_pert
        sv = np.linalg.svd(closed, compute_uv=False)
        sigma.append(sv[-1])
        bound.append(max(level - k * spread / (1.0 - k * io_norm), 0.0) if k * io_norm < 1 else 0.0)
    return {"bound_gain": float(min(terms)), "sigma": np.array(sigma), "bound": np.array(bound),
            "level": float(level), "sigma_max": float(np.linalg.norm(op_pert, 2) + np.linalg.norm(op, 2))}


def compare_sweep(rep, ref: dict) -> list:
    """Every swept gain k <= k0 (theta0) keeps sigma_min at or above the
    Weyl bound; the program's sigma_min and guaranteed gain agree with the
    block-composition reference."""
    failures = []
    _le(failures, "guaranteed gain", abs(rep.bound_gain - ref["bound_gain"]) / ref["bound_gain"], 1e-8)
    _le(failures, "sigma_min vs block composition",
        float(np.max(np.abs(rep.sigma_min - ref["sigma"]))) / ref["sigma_max"], 1e-8)
    inside = rep.k_values <= ref["bound_gain"]
    slack = 1e-9 * max(ref["level"], 1.0)
    short = ref["bound"][inside] - slack - rep.sigma_min[inside]
    _le(failures, "sigma_min below the Weyl bound inside the guaranteed range",
        float(np.max(short, initial=-np.inf)), 0.0)
    if not inside.any():
        failures.append("no swept gain inside the guaranteed range")
    return failures


# -------------------------------------------------------------- radius

def reference_sigma_min(mat: np.ndarray) -> float:
    """Smallest singular value of a wide matrix from the symmetric
    eigenproblem [[0, M], [M', 0]] (eigenvalues +-sigma and zeros)."""
    r, c = mat.shape
    aug = np.zeros((r + c, r + c))
    aug[:r, r:], aug[r:, :r] = mat, mat.T
    return float(np.sort(np.linalg.eigvalsh(aug))[::-1][r - 1])


def compare_radius(got: float, mat: np.ndarray) -> list:
    failures = []
    scale = np.linalg.norm(mat, 2)
    _le(failures, "surjectivity radius", abs(got - reference_sigma_min(mat)) / scale, 1e-10)
    return failures


# ------------------------------------------------------------- boundary

def compare_wave_feedthroughs(feedthroughs: dict) -> list:
    """Feedthrough limits of the wave stand-in are its gain entries, and
    the composite is w1/(1-k1)*k2 + w2."""
    f = {k: float(np.asarray(v).reshape(-1)[0]) for k, v in feedthroughs.items()}
    failures = []
    expected = {"k_bar_primary": WAVE_K[0], "k_bar_secondary": WAVE_K[1],
                "w_bar_primary": WAVE_W[0], "w_bar_secondary": WAVE_W[1]}
    for key, value in expected.items():
        _le(failures, key, abs(f[key] - value), 1e-6)
    composite = f["w_bar_primary"] / (1.0 - f["k_bar_primary"]) * f["k_bar_secondary"] + f["w_bar_secondary"]
    _le(failures, "wave composite feedthrough", abs(composite - WAVE_COMPOSITE), 1e-6)
    return failures


def compare_beam_control(b: np.ndarray, N: int) -> list:
    """B from the triple is -1/m_tip = -2 (N + 1) at the tip velocity and
    zero elsewhere."""
    expected = np.zeros((2 * (N + 1), 1))
    expected[-1, 0] = -2.0 * (N + 1)
    failures = []
    _le(failures, "beam control operator", rel(b, expected), 1e-6)
    return failures


def compare_closed_loop_spectrum(a_closed: np.ndarray) -> list:
    failures = []
    abscissa = float(np.max(np.linalg.eigvals(a_closed).real))
    if not abscissa < 0.0:
        failures.append(f"closed-loop spectral abscissa {abscissa:.3e} is not negative")
    return failures


# ------------------------------------------------------------------ beam

def beam_H(s: float) -> complex:
    """Shear-to-tip-slope transfer of w_tt + w_xxxx = 0 on [0, 1] with
    w(0) = w_x(0) = w_xx(1) = 0 and w_xxx(1) = u, from the 4x4 boundary
    system on the exponential basis exp(mu x), mu^4 = -s^2."""
    mus = [cmath.sqrt(s) * cmath.exp(1j * math.pi * (2 * j + 1) / 4) for j in range(4)]
    rows = [[1.0 + 0j] * 4, mus,
            [mu**2 * cmath.exp(mu) for mu in mus], [mu**3 * cmath.exp(mu) for mu in mus]]
    coef = np.linalg.solve(np.array(rows), np.array([0, 0, 0, 1.0], dtype=complex))
    return complex(sum(c * mu * cmath.exp(mu) for c, mu in zip(coef, mus)))


def compare_transfer_table(rows, tol: float = 0.02) -> list:
    """rows: (s, discrete H, reported |H| or None). The discrete transfer is
    within tol of the closed form; a reported |H| matches it to 1e-10."""
    failures = []
    exact = {s: beam_H(s).real for s, _, _ in rows}
    _le(failures, "discrete transfer vs closed form",
        max(abs(disc - exact[s]) / abs(exact[s]) for s, disc, _ in rows), tol)
    reported = [(s, h) for s, _, h in rows if h is not None]
    if reported:
        _le(failures, "reported |H(s)| vs boundary-value solve",
            max(abs(h - abs(exact[s])) / abs(exact[s]) for s, h in reported), 1e-10)
    return failures


def beam_energy(model, w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(v'Mv + dx * sum of trapezoid-weighted squared curvature rows) / 2
    at every time row."""
    kin = np.sum(v * v * model.masses[None, :], axis=1)
    kappa = w @ model.curvature_rows.T
    weights = np.ones(model.n_dof)
    weights[0] = 0.5
    return (kin + model.dx * (kappa * kappa) @ weights) / 2.0


def compare_energy(energies: np.ndarray, tol: float = 1e-8) -> list:
    failures = []
    _le(failures, "free energy drift", float(np.max(np.abs(energies - energies[0])) / energies[0]), tol)
    return failures


def trapezoid(values: np.ndarray, dt: float) -> float:
    return float(dt * (np.sum(values) - (values[0] + values[-1]) / 2.0))


def stepped_trace_integrals(model, dt: float, n_steps: int, w0: np.ndarray, v0: np.ndarray,
                            u: np.ndarray | None = None) -> tuple[float, float]:
    """(int w_x(1)^2, int w_xx(0)^2) by matrix-exponential stepping of the
    first-order system, zero-order hold for the forcing u (one sample per
    step).

    The state is stepped in energy coordinates p = R w, q = M^(1/2) v with
    S = R'R read off the curvature rows, where the generator is skew and
    exp(dt K) orthogonal, so rounding does not grow with the stiffness
    (~1/dx^4) over thousands of steps."""
    nd = model.n_dof
    weights = np.ones(nd)
    weights[0] = 0.5
    R = np.sqrt(model.dx * weights)[:, None] * model.curvature_rows
    sqm = np.sqrt(model.masses)
    top = R / sqm[None, :]
    n = 2 * nd
    big = np.zeros((n + 1, n + 1))
    big[:nd, nd:n], big[nd:n, :nd] = top, -top.T
    big[n - 1, n] = -1.0 / sqm[-1]  # tip force -u / m_tip, scaled by M^(1/2)
    eb = scipy.linalg.expm(big * dt)
    E, M = eb[:n, :n], eb[:n, n]
    xs = np.empty((n_steps + 1, n))
    xs[0] = np.concatenate([R @ w0, sqm * v0])
    for k in range(n_steps):
        xs[k + 1] = E @ xs[k] + (M * u[k] if u is not None else 0.0)
    slope_row = scipy.linalg.solve_triangular(R, model.slope_tip_row, trans="T", lower=True)
    curv_row = model.curvature_rows[0] @ np.linalg.inv(R)
    p = xs[:, :nd]
    return trapezoid((p @ slope_row) ** 2, dt), trapezoid((p @ curv_row) ** 2, dt)


def compare_trace_integrals(trace, stepped: tuple[float, float], dt: float, tol: float = 1e-8) -> list:
    failures = []
    _le(failures, "int w_x(1)^2 vs exponential stepping",
        abs(trapezoid(trace.w_x_1**2, dt) - stepped[0]) / stepped[0], tol)
    _le(failures, "int w_xx(0)^2 vs exponential stepping",
        abs(trapezoid(trace.w_xx_0**2, dt) - stepped[1]) / stepped[1], tol)
    return failures
