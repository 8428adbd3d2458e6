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
instead, which is the natural thing to plot and serialize. Grid maps are
power sequences C_bar E^j, E^j M, built by doubling (`_powers`); on purpose
the semigroup samples, the independent side of `composition_deviations`,
and the Signal maps, N mat-vecs where doubling would square E at n = 402 in
the beam feed-in, stay sequential.

Operator 2-norms (the gain-margin norms and the io-map norm that sampled
systems are scaled by) all come from `_spectral_norm`, the top eigenvalue
of the smaller Gram matrix: a dense `eigh` below size 256, from there one
Lanczos kernel on the Gram operator, never formed, unless 64 steps leave it
uncertified. The operator is dense mat-vecs, or FFT block convolutions for
an io-map carried as its N Markov blocks (`_markov`). Every solve that can
be refused as singular goes through `_checked_solve`: one LU and its 1-norm
condition estimate. The LU is dense, or banded where A is a stencil in
disguise: `transfer` shifts the band plan of A (`_band_plan`, a reverse
Cuthill-McKee order and LAPACK band storage, made once per A and shared by
`Realization._with_channels`), so each shift costs O(n kl (kl + ku)). Whether
a plan exists is read from A alone; a dense A is settled by one nonzero count,
before any pattern is read. The grid loop I - F is solved on its blocks by
`_loop_solve`, an inverse sequence by doubling whose residual certificate
implies that this gate would accept; where it does not hold, the dense
`_checked_solve` decides, so refusals still come only from it. Every verdict
that a map is onto or bounded below (exact controllability or
observability, and the grid admissibility report) goes through
`_exactness`: one SVD, because its smallest singular value is reported and
the Gram route squares the condition number, and one rule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

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


_LANCZOS_MIN_SIZE, _LANCZOS_STEPS = 256, 64


def _spectral_norm(mat) -> float:
    """Operator 2-norm: the square root of the top eigenvalue of the Gram
    matrix of the smaller side, to O(n eps) relative accuracy (Golub & Van
    Loan, Matrix Computations, 4th ed., sec. 8.6). The matrix is first
    scaled by a power of two, which is exact and keeps the Gram matrix clear
    of overflow and underflow. The route squares the condition number, so it
    is not fit for the smallest singular value. From Gram size 256, where it
    is faster, `_lanczos_top` goes first; what its 64 steps leave uncertified
    (a tight top cluster) the dense `eigh` gives, the same answer, slower.
    Markov blocks (N, p, m) stand for their Toeplitz matrix T, which only the
    dense route forms: Lanczos takes T x as a causal block convolution and
    T^H y as the same convolution of the flipped sequences.
    """
    a = np.asarray(mat)
    top = float(np.max(np.abs(a))) if a.size else 0.0
    if top == 0.0:
        return 0.0
    scale = 2.0 ** np.frexp(top)[1]
    a = a / scale
    toeplitz, lam = a.ndim == 3, None
    if toeplitz and a.shape[0] * min(a.shape[1:]) >= _LANCZOS_MIN_SIZE:
        N, p, m = a.shape
        fwd, conj = _block_conv(a), _block_conv(a.conj().swapaxes(1, 2))
        adj = lambda v: conj(v[::-1])[::-1]  # noqa: E731
        outer, inner = (fwd, adj) if p <= m else (adj, fwd)
        lam = _lanczos_top(lambda v: outer(inner(v.reshape(N, -1, 1))).ravel(), N * min(p, m), a.dtype)
    if lam is None:
        a = _block_toeplitz(a) if toeplitz else a
        at = a.conj().T if np.iscomplexobj(a) else a.T
        a, at = (a, at) if a.shape[0] <= a.shape[1] else (at, a)
        k = a.shape[0]
        lam = _lanczos_top(lambda v: a @ (at @ v), k, a.dtype) if k >= _LANCZOS_MIN_SIZE and not toeplitz else None
    if lam is None:
        (lam,) = scipy.linalg.eigh(a @ at, eigvals_only=True, overwrite_a=True, subset_by_index=[k - 1, k - 1])
    return float(np.sqrt(max(lam, 0.0)) * scale)


def _lanczos_top(gram, k: int, dtype) -> float | None:
    """Top eigenvalue of the Hermitian positive semidefinite operator gram
    on vectors of length k by at most 64 Lanczos steps with full
    reorthogonalization (two classical Gram-Schmidt passes) from a fixed
    normal start vector, or None. The top Ritz value theta <= lambda_max is
    accepted once its residual beta_j |s_j| <= 4 eps theta, which puts an
    eigenvalue within 4 eps theta of it, breakdown included (Parlett, The
    Symmetric Eigenvalue Problem, ch. 13); that it is the top one rests on
    the start vector meeting the top eigenvector. Ritz pairs are LAPACK's
    stebz and stein, called as eigh_tridiagonal calls them; if flagged, None.
    """
    basis = np.zeros((_LANCZOS_STEPS + 1, k), dtype=dtype)
    start = np.random.default_rng(0).standard_normal(k)
    basis[0] = start / np.linalg.norm(start)
    alpha, beta = np.zeros(_LANCZOS_STEPS), np.zeros(_LANCZOS_STEPS)
    real, lapack = not np.iscomplexobj(basis), scipy.linalg.lapack
    for j in range(_LANCZOS_STEPS):
        q = basis[: j + 1]
        w = gram(q[j])
        alpha[j] = np.vdot(q[j], w).real
        for _ in range(2):
            w -= (q @ w) @ q if real else (q @ w.conj()).conj() @ q
        b = float(np.linalg.norm(w))
        d, e = alpha[: j + 1], beta[: max(j, 1)]  # at j = 0, f2py wants one e that LAPACK does not read
        _, ritz, block, split, info = lapack.dstebz(d, e, 2, 0, 0, j + 1, j + 1, 0.0, "B")
        (s, fail), theta = lapack.dstein(d, e, ritz[:1], block, split), ritz[0]
        if info or fail:
            return None
        if b * abs(s[-1, 0]) <= 4 * np.finfo(float).eps * max(theta, 0.0):
            return theta if theta > 0.0 else None
        beta[j] = b
        basis[j + 1] = w / b
    return None


@dataclass(frozen=True, eq=False)
class _Band:
    """An n x n matrix M held as M[perm][:, perm] in LAPACK band storage
    (LAPACK Users' Guide, 3rd ed., sec. 5.3.3): with kl subdiagonals and
    ku superdiagonals, entry (i, j) of the reordered matrix sits at
    ab[kl + ku + i - j, j], below kl rows kept free for the LU's fill-in.
    np.asarray gives M, dense."""

    ab: np.ndarray
    kl: int
    ku: int
    perm: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return (self.ab.shape[1],) * 2

    def shifted(self, lam) -> "_Band":
        """lam I + M, in a new storage array."""
        ab = self.ab.astype(np.result_type(self.ab, lam))
        ab[self.kl + self.ku] += lam
        return _Band(ab, self.kl, self.ku, self.perm)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        n = self.shape[0]
        diag, j = np.indices((self.kl + self.ku + 1, n))
        i = j + diag - self.ku
        inside = (i >= 0) & (i < n)
        dense = np.zeros((n, n), dtype=self.ab.dtype)
        dense[self.perm[i[inside]], self.perm[j[inside]]] = self.ab[self.kl:][inside]
        return dense if dtype is None else dense.astype(dtype)


def _band_plan(A) -> _Band | None:
    """-A as a `_Band` in the reverse Cuthill-McKee order of its symmetrized
    pattern (Cuthill & McKee, "Reducing the bandwidth of sparse symmetric
    matrices", ACM 1969), or None where the dense LU is the better buy: when
    the band storage would fill more than a quarter of the n^2 entries. The
    band holds every nonzero and at least n entries, so an A with more
    nonzeros than that, or with n < 4, is settled by one count, before any
    pattern is read. The order is scipy.sparse.csgraph's, ties included,
    from a breadth-first search here that costs less than importing it."""
    n = len(A)
    if 4 * max(np.count_nonzero(A), n) > n * n:
        return None
    pattern = A != 0
    adj = np.flatnonzero(pattern | pattern.T)
    ind, ptr = (adj % n).tolist(), np.searchsorted(adj, np.arange(n + 1) * n)
    degree = (np.diff(ptr) + pattern.diagonal()).astype(np.int32)  # the diagonal counts twice
    ptr, deg, order, seen = ptr.tolist(), degree.tolist(), [], set()
    for seed in np.argsort(degree).tolist():  # each component starts at its first node in this order
        if seed not in seen:
            seen.add(seed)
            component = [seed]
            for i in component:  # breadth first: the list grows while it is read
                near = [j for j in ind[ptr[i]:ptr[i + 1]] if j not in seen]
                seen.update(near)
                component += sorted(near, key=deg.__getitem__)
            order += component
    perm = np.array(order[::-1], dtype=np.intp)
    where = np.empty(n, dtype=np.intp)
    where[perm] = np.arange(n)
    rows, cols = np.divmod(np.flatnonzero(pattern), n)
    i, j = where[rows], where[cols]
    kl, ku = int(np.max(i - j, initial=0)), int(np.max(j - i, initial=0))
    if 4 * (2 * kl + ku + 1) > n:
        return None
    ab = np.zeros((2 * kl + ku + 1, n), dtype=A.dtype)
    ab[kl + ku + i - j, j] = -A[rows, cols]
    return _Band(ab, kl, ku, perm)


def _checked_solve(mat, rhs, rtol: float, error: type, what: str) -> np.ndarray:
    """mat^-1 rhs behind the package's one singularity gate.

    mat is a dense matrix or a `_Band`. One LU, `getrf` or, for a `_Band`,
    `gbtrf` (O(n kl (kl + ku)) work), then LAPACK's 1-norm condition
    estimate rcond (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., ch. 15), so that rcond * ||mat||_1 estimates sigma_min to
    within a factor of n. ||mat||_1 of a `_Band` is read from its columns,
    which are those of M reordered. Raises error when rcond is not finite or
    rcond * ||mat||_1 <= rtol * max(||mat||_1, 1). An exactly singular
    matrix is refused the same way, without a LinAlgWarning. LAPACK is called
    directly, with the types and non-finite ValueError of lu_factor/lu_solve.
    """
    lapack = scipy.linalg.lapack
    if isinstance(mat, _Band):
        kl, ku = mat.kl, mat.ku
        ab = mat.ab.astype(np.result_type(mat.ab, rhs), copy=False)
        anorm = float(np.max(np.sum(np.abs(ab[kl:]), axis=0)))
        gbtrf, gbcon, gbtrs = ((lapack.zgbtrf, lapack.zgbcon, lapack.zgbtrs) if np.iscomplexobj(ab)
                               else (lapack.dgbtrf, lapack.dgbcon, lapack.dgbtrs))
        lu, piv, _ = gbtrf(ab, kl, ku)
        rcond, _ = gbcon(kl, ku, lu, piv, anorm)
    else:
        mat = np.asarray_chkfinite(mat)
        anorm = np.linalg.norm(mat, 1)
        getrf, gecon = (lapack.zgetrf, lapack.zgecon) if np.iscomplexobj(mat) else (lapack.dgetrf, lapack.dgecon)
        lu, piv, _ = getrf(mat)
        rcond, _ = gecon(lu, anorm)
    if not np.isfinite(rcond) or rcond * anorm <= rtol * max(anorm, 1.0):
        raise error(f"{what} is numerically singular (rcond={rcond:.2e}, 1-norm {anorm:.2e})")
    if not isinstance(mat, _Band):
        rhs = np.asarray_chkfinite(rhs)
        return (lapack.zgetrs if np.iscomplexobj(lu) or np.iscomplexobj(rhs) else lapack.dgetrs)(lu, piv, rhs)[0]
    x = np.empty(np.shape(rhs), dtype=lu.dtype)
    x[mat.perm] = gbtrs(lu, kl, ku, np.asarray(rhs)[mat.perm], piv)[0]
    return x


_EXACTNESS_RTOL = 1e-8


def _exactness(mat, onto: bool) -> tuple[float, float, bool]:
    """(level, top, exact): the package's one verdict on whether mat is onto
    (onto=True) or bounded below. level is the smallest singular value when
    the shape allows it (at least as many columns as rows for onto, as many
    rows as columns otherwise), else 0.0; top is the largest; exact is
    level > 1e-8 max(top, 1), the unit floor of `_checked_solve`."""
    sv = np.linalg.svd(mat, compute_uv=False)
    rows, cols = np.shape(mat)
    level = float(sv[-1]) if sv.size and (cols >= rows if onto else rows >= cols) else 0.0
    top = float(sv[0]) if sv.size else 0.0
    return level, top, level > _EXACTNESS_RTOL * max(top, 1.0)


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

    def __post_init__(self) -> None:
        A, B, C, D = (_as_matrix(getattr(self, name), name) for name in "ABCD")
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

    @cached_property
    def _band(self) -> _Band | None:
        """-A as `_band_plan` orders and stores it, or None for a dense A;
        planned when `transfer` first reads it, then shared by every shift."""
        return _band_plan(self.A)

    def _with_channels(self, B, C, D) -> "Realization":
        """(A, B, C, D) on this A, sharing its band plan (made here if not yet)."""
        r = Realization(self.A, B, C, D)
        object.__setattr__(r, "_band", self._band)
        return r

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

    E          : exp(A dt), the one-step propagator.
    input_map  : n x (n_steps * m), block column k is E^(N-1-k) M.
    output_map : (n_steps * p) x n, block row j is C_bar E^j.
    io_map     : (n_steps * p) x (n_steps * m), block lower triangular
                 Toeplitz with D_bar on the diagonal and C_bar E^(i-1-k) M
                 below it.
    """

    grid: TimeGrid
    E: np.ndarray
    input_map: np.ndarray
    output_map: np.ndarray
    io_map: np.ndarray

    @cached_property
    def semigroup_samples(self) -> np.ndarray:
        """exp(A k dt), k = 0..n_steps, as sequential products of E, not by
        doubling like the maps they check; formed when first read."""
        E = self.E
        samples = np.empty((self.grid.n_steps + 1,) + E.shape, dtype=E.dtype)
        samples[0] = np.eye(E.shape[0])
        for k in range(1, len(samples)):
            samples[k] = E @ samples[k - 1]
        return samples


def _block_toeplitz(seq: np.ndarray) -> np.ndarray:
    """Block lower-triangular Toeplitz matrix of the Markov blocks seq (N, p,
    m): seq[i - k] at block (i, k). Block row i is the columns (N-1-i) m :
    (2N-1-i) m of the p x (2N-1) m row buffer [T_(N-1), ..., T_0, 0, ..., 0]:
    one sliding-window view with step m, copied once."""
    N, p, m = seq.shape
    row = np.zeros((p, (2 * N - 1) * m), dtype=seq.dtype)
    row[:, : N * m] = seq[::-1].transpose(1, 0, 2).reshape(p, N * m)
    windows = np.lib.stride_tricks.sliding_window_view(row, N * m, axis=1)[:, ::m]
    return np.ascontiguousarray(windows[:, ::-1].transpose(1, 0, 2).reshape(N * p, N * m))


def _block_conv(a: np.ndarray, fa=None):
    """b (N, k, m) -> c_i = sum_(j<=i) a_(i-j) b_j, i < N: T(a) b, or the
    Markov blocks of T(a) T(b) (Kailath & Sayed, Fast Reliable Algorithms
    for Matrices with Structure, SIAM 1999). a (N, p, k) is transformed once
    by an FFT of length 2N: fft when a is complex, which rfft refuses (as it
    refuses a complex b with a real a), rfft otherwise. A caller that holds
    that transform of a passes it as fa, and one of b as the keyword fb."""
    N, n = len(a), 2 * len(a)
    fft, ifft = (np.fft.fft, np.fft.ifft) if np.iscomplexobj(a) else (np.fft.rfft, np.fft.irfft)
    fa = fft(a, n, axis=0) if fa is None else fa
    return lambda b=None, fb=None: ifft(np.einsum("fpk,fkm->fpm", fa, fft(b, n, axis=0) if fb is None else fb),
                                        n, axis=0)[:N]


def _loop_solve(f, rhs, S, rtol: float, error: type, what: str) -> np.ndarray:
    """(I - T(f))^-1 rhs for the block column rhs (N, m, k), from the loop
    blocks f (N, m, m) and S = (I - f_0)^-1, behind a certificate that
    `_checked_solve` would accept I - T(f). For rhs the Markov blocks of an
    io-map, these are the Markov blocks of (I - T(f))^-1 T(rhs).

    With t = delta - f the blocks of T = I - T(f), the inverse sequence h
    starts at [S] and doubles, h <- h + h*(delta - t*h) truncated, each
    product one `_block_conv` (Newton's iteration for power series; Kailath &
    Sayed, Fast Reliable Algorithms for Matrices with Structure, SIAM 1999),
    and X = T(h) rhs. With the residual r = delta - t*h, T T(h) = I - T(r).
    Let rho, eta, tau be the sums of the Frobenius norms of the blocks of r,
    h, t; they bound the 2-norms of T(r), T(h), T. Once rho < 1, T^-1 =
    T(h) (I - T(r))^-1 and ||T^-1||_2 <= eta / (1 - rho). With n = N m, the
    gate's estimate of ||T^-1||_1 is a lower bound and ||.||_1 <= sqrt(n)
    ||.||_2 (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    ch. 6 and 15), so that
        rcond ||T||_1 >= 1 / ||T^-1||_1 >= (1 - rho) / (sqrt(n) eta),
        rtol max(||T||_1, 1) <= sqrt(n) rtol max(tau, 1),
    and (1 - rho) / eta > n rtol max(tau, 1) implies that the gate accepts.
    Otherwise the gate decides: `_checked_solve` of the dense I - T(f), the
    one path that can refuse.
    """
    N, m, _ = f.shape
    t = -f
    t[0] += np.eye(m)

    fft = np.fft.fft if np.iscomplexobj(t) else np.fft.rfft

    def residual(h, fh):  # delta - t*h over len(h) blocks; fh is h's transform
        r = -_block_conv(t[: len(h)])(fb=fh)
        r[0] += np.eye(m)
        return r

    h = S[None]
    with np.errstate(over="ignore", invalid="ignore"):  # a growing h overflows: not certified
        while len(h) < N:
            h = np.concatenate((h, np.zeros_like(t[: min(len(h), N - len(h))])))
            fh = fft(h, 2 * len(h), axis=0)  # one transform of h for both products
            h = h + _block_conv(h, fh)(residual(h, fh))
        fh = fft(h, 2 * N, axis=0)
        rho, eta, tau = (float(np.linalg.norm(s, axis=(1, 2)).sum()) for s in (residual(h, fh), h, t))
    if rho < 1.0 and (1.0 - rho) / eta > N * m * rtol * max(tau, 1.0):
        return _block_conv(h, fh)(rhs)
    mat = np.eye(N * m) - _block_toeplitz(f)
    return _checked_solve(mat, rhs.reshape(N * m, -1), rtol, error, what).reshape(rhs.shape)


def _powers(x, E, n_steps: int, rows: bool) -> np.ndarray:
    """[x E^j] (rows) or [E^j x] (columns), j < n_steps, on axis -3 by doubling: the known
    powers times P = E^(2^i), then P squared; ceil(log2 n_steps) batched products."""
    out, P = x[..., None, :, :], E[..., None, :, :]
    while (have := out.shape[-3]) < n_steps:
        P = P @ P if have > 1 else P
        more = out[..., : n_steps - have, :, :]
        out = np.concatenate((out, more @ P if rows else P @ more), axis=-3)
    return out[..., :n_steps, :, :]


def _markov(step: tuple, out, inp, n_steps: int) -> np.ndarray:
    """Markov blocks (..., n_steps, p, m) of the io-map of step = (E, M,
    C_bar, D_bar) from the channels inp to the channels out (slices): D_bar,
    then C_bar E^(j-1) M, the powers by doubling (`_powers`)."""
    E, M, C, D = step
    rest = _powers(C[..., out, :], E, n_steps - 1, True) @ M[..., None, :, inp]
    return np.concatenate((D[..., None, out, inp], rest), axis=-3)


def _grid_map(step: tuple, out, inp, n_steps: int) -> np.ndarray:
    """Grid map of the one-step quadruple step = (E, M, C_bar, D_bar) from
    the input channels inp to the output channels out, both slices; None
    stands for the state. out=None gives the input map [E^(N-1) M, ..., E M,
    M] and inp=None the output map [C; C E; ...; C E^(N-1)], both by doubling
    (`_powers`) with leading (batch) axes of the step carried through. Two
    slices give the io-map, the block Toeplitz matrix of `_markov`."""
    E, M, C, D = step
    if out is None:
        cols = _powers(M[..., inp], E, n_steps, False)[..., ::-1, :, :]
        return np.moveaxis(cols, -3, -2).reshape(cols.shape[:-3] + (E.shape[-1], n_steps * cols.shape[-1]))
    if inp is not None:
        return _block_toeplitz(_markov(step, out, inp, n_steps))
    rows = _powers(C[..., out, :], E, n_steps, True)
    return rows.reshape(rows.shape[:-3] + (n_steps * rows.shape[-2], E.shape[-1]))


def quadruple_maps(r: Realization, g: TimeGrid) -> QuadrupleMaps:
    """Assemble the exact discrete quadruple on the grid."""
    step, every = lifted_quadruple(r, g.dt), slice(None)
    return QuadrupleMaps(g, step[0], *(_grid_map(step, out, inp, g.n_steps)
                                       for out, inp in ((None, every), (every, None), (every, every))))


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

    lam - A is factored dense, or in band storage where A has a band plan
    (`Realization._band`, made on the first call and shared by every later
    shift). Raises SpectrumError when lam is an eigenvalue of A up to
    working precision: the gate of `_checked_solve` at rtol 1e3 * machine
    eps, on either path, and ValueError when lam is not finite.
    """
    lam = complex(lam)
    if not np.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam}")
    shift = lam.real if np.isrealobj(r.A) and lam.imag == 0.0 else lam
    band = r._band
    Alam = shift * np.eye(r.n) - r.A if band is None else band.shifted(shift)
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
    if not np.all(np.isfinite(u)):
        raise ShapeError("u contains non-finite entries")
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
    if not np.all(np.isfinite(x)):
        raise ShapeError("x contains non-finite entries")
    target = r.C @ x
    fed = r._with_channels(x[:, None], r.C, np.zeros((r.p, 1)))
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

    e_head, e_tail = full.semigroup_samples[q], tail.semigroup_samples[-1]
    fio_expected = np.zeros_like(full.io_map)
    fio_expected[: q * p, : q * m] = head.io_map
    fio_expected[q * p :, : q * m] = tail.output_map @ head.input_map
    fio_expected[q * p :, q * m :] = tail.io_map
    return {
        "semigroup": _rel_dev(e_tail @ e_head, full.semigroup_samples[N]),
        "input": _rel_dev(np.hstack([e_tail @ head.input_map, tail.input_map]), full.input_map),
        "output": _rel_dev(np.vstack([head.output_map, tail.output_map @ e_head]), full.output_map),
        "io": _rel_dev(fio_expected, full.io_map),
        "split": q,
    }
