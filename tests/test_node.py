import ast
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from regsys import (
    GridError,
    Realization,
    ShapeError,
    Signal,
    SpectrumError,
    TimeGrid,
    composition_deviations,
    input_map,
    io_map,
    lambda_extension,
    lifted_quadruple,
    output_map,
    across_instance,
    perturb_across,
    quadruple_maps,
    random_realization,
    regularity_limit,
    semigroup_step,
    transfer,
)
from regsys.node import _io_toeplitz, _spectral_norm


def scalar_system(a=-1.0, b=1.0, c=2.0, d=0.0):
    return Realization([[a]], [[b]], [[c]], [[d]])


class TestRealizationConstruction:
    def test_dimensions(self):
        r = Realization(np.zeros((3, 3)), np.zeros((3, 2)), np.zeros((4, 3)), np.zeros((4, 2)))
        assert (r.n, r.m, r.p) == (3, 2, 4)

    def test_matrices_are_frozen(self):
        r = scalar_system()
        with pytest.raises(ValueError):
            r.A[0, 0] = 7.0

    @pytest.mark.parametrize(
        "shapes",
        [
            ((2, 3), (2, 1), (1, 2), (1, 1)),  # non-square A
            ((2, 2), (3, 1), (1, 2), (1, 1)),  # B rows
            ((2, 2), (2, 1), (1, 3), (1, 1)),  # C cols
            ((2, 2), (2, 1), (1, 2), (2, 2)),  # D shape
        ],
    )
    def test_shape_mismatch_refused(self, shapes):
        sa, sb, sc, sd = shapes
        with pytest.raises(ShapeError):
            Realization(np.zeros(sa), np.zeros(sb), np.zeros(sc), np.zeros(sd))

    def test_non_finite_refused(self):
        with pytest.raises(ShapeError):
            Realization([[np.nan]], [[1.0]], [[1.0]], [[0.0]])

    def test_one_dimensional_refused(self):
        with pytest.raises(ShapeError):
            Realization(np.zeros(2), np.zeros((2, 1)), np.zeros((1, 2)), np.zeros((1, 1)))

    def test_spectral_abscissa(self):
        r = Realization(np.diag([-3.0, -1.0]), np.zeros((2, 1)), np.zeros((1, 2)), np.zeros((1, 1)))
        assert r.spectral_abscissa() == pytest.approx(-1.0)

    def test_json_round_trip_real(self):
        rng = np.random.default_rng(0)
        r = random_realization(rng, 3, 2, 2)
        back = Realization.from_json_dict(r.to_json_dict())
        for name in "ABCD":
            np.testing.assert_array_equal(getattr(back, name), getattr(r, name))

    def test_json_round_trip_complex(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]]) + 0.5j * np.eye(2)
        r = Realization(a, np.ones((2, 1)), np.ones((1, 2)), np.zeros((1, 1)))
        back = Realization.from_json_dict(r.to_json_dict())
        np.testing.assert_array_equal(back.A, a)

    def test_json_declared_dimension_mismatch(self):
        doc = scalar_system().to_json_dict()
        doc["n"] = 5
        with pytest.raises(ShapeError):
            Realization.from_json_dict(doc)

    def test_json_file_round_trip(self, tmp_path):
        r = random_realization(np.random.default_rng(1), 2, 1, 1)
        path = tmp_path / "sys.json"
        r.save_json(path)
        back = Realization.load_json(path)
        np.testing.assert_array_equal(back.A, r.A)


class TestStepMatrices:
    def test_semigroup_diagonal_oracle(self):
        r = Realization(np.diag([-1.0, -2.0]), np.zeros((2, 1)), np.zeros((1, 2)), np.zeros((1, 1)))
        E = semigroup_step(r, 1.0)
        np.testing.assert_allclose(E, np.diag([np.exp(-1.0), np.exp(-2.0)]), rtol=1e-14)

    def test_semigroup_nilpotent_oracle(self):
        r = Realization([[0.0, 1.0], [0.0, 0.0]], np.zeros((2, 1)), np.zeros((1, 2)), np.zeros((1, 1)))
        E = semigroup_step(r, 0.7)
        np.testing.assert_allclose(E, [[1.0, 0.7], [0.0, 1.0]], atol=1e-15)

    def test_semigroup_rotation_oracle(self):
        r = Realization([[0.0, 1.0], [-1.0, 0.0]], np.zeros((2, 1)), np.zeros((1, 2)), np.zeros((1, 1)))
        t = 0.3
        E = semigroup_step(r, t)
        expect = [[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]]
        np.testing.assert_allclose(E, expect, rtol=1e-14, atol=1e-15)

    def test_semigroup_negative_dt_refused(self):
        with pytest.raises(ValueError):
            semigroup_step(scalar_system(), -0.1)

    def test_lifted_step_scalar_closed_forms(self):
        # with B = C = 1 and D = 0 the quadruple carries the step integrals
        # themselves: M = M_I, C_bar dt = M_I and D_bar dt = M_J
        a, dt = -0.8, 0.37
        E, M, C_bar, D_bar = lifted_quadruple(scalar_system(a=a, b=1.0, c=1.0, d=0.0), dt)
        e = np.exp(a * dt)
        assert E[0, 0] == pytest.approx(e, rel=1e-13)
        assert M[0, 0] == pytest.approx((e - 1.0) / a, rel=1e-13)
        assert C_bar[0, 0] * dt == pytest.approx((e - 1.0) / a, rel=1e-13)
        assert D_bar[0, 0] * dt == pytest.approx((e - 1.0 - a * dt) / a**2, rel=1e-12)

    def test_lifted_quadruple_scalar_closed_forms(self):
        a, b, c, d, dt = -1.3, 0.9, 2.0, 0.4, 0.21
        E, M, C_bar, D_bar = lifted_quadruple(scalar_system(a, b, c, d), dt)
        e = np.exp(a * dt)
        assert E[0, 0] == pytest.approx(e, rel=1e-13)
        assert M[0, 0] == pytest.approx(b * (e - 1.0) / a, rel=1e-13)
        assert C_bar[0, 0] == pytest.approx(c * (e - 1.0) / (a * dt), rel=1e-13)
        assert D_bar[0, 0] == pytest.approx(c * b * (e - 1.0 - a * dt) / (a**2 * dt) + d, rel=1e-12)

    @pytest.mark.parametrize("dt", [0.0, -0.1])
    def test_lifted_quadruple_nonpositive_dt_refused(self, dt):
        with pytest.raises(ValueError):
            lifted_quadruple(scalar_system(), dt)

    @given(
        n=st.integers(min_value=1, max_value=6),
        m=st.integers(min_value=1, max_value=3),
        p=st.integers(min_value=1, max_value=3),
        dt=st.floats(min_value=1e-3, max_value=1.0),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40)
    def test_lifted_quadruple_matches_augmented_exponential(self, n, m, p, dt, seed):
        # oracle: exp(dt [[A, I, 0], [0, 0, I], [0, 0, 0]]) carries E,
        # M_I = int exp(As) ds and M_J = int (dt-s) exp(As) ds in its top row
        r = random_realization(np.random.default_rng(seed), n, m, p, io_scale=None)
        big = np.zeros((3 * n, 3 * n))
        big[:n, :n] = r.A
        big[:n, n : 2 * n] = np.eye(n)
        big[n : 2 * n, 2 * n :] = np.eye(n)
        ebig = scipy.linalg.expm(big * dt)
        E, M_I, M_J = ebig[:n, :n], ebig[:n, n : 2 * n], ebig[:n, 2 * n :]
        oracle = (E, M_I @ r.B, r.C @ M_I / dt, r.C @ M_J @ r.B / dt + r.D)
        # deviations are measured against the magnitudes the products are
        # formed from: the entries themselves can cancel (C M_J B / dt
        # against D, or inside the inner products) below what either route
        # resolves
        a_c, a_b = np.abs(r.C), np.abs(r.B)
        scales = (np.abs(E), np.abs(M_I) @ a_b, a_c @ np.abs(M_I) / dt,
                  a_c @ np.abs(M_J) @ a_b / dt + np.abs(r.D))
        names = ("E", "M", "C_bar", "D_bar")
        for name, got, want, scale in zip(names, lifted_quadruple(r, dt), oracle, scales):
            rel = np.max(np.abs(got - want)) / np.max(scale)
            assert rel <= 1e-13, f"{name} deviates by {rel:.2e}"


class TestGridMaps:
    def test_step_response_oracle(self):
        # x' = -x + 1 from rest: x(t) = 1 - exp(-t), exact under ZOH
        r = scalar_system(a=-1.0, b=1.0, c=1.0, d=0.0)
        g = TimeGrid(2.0, 40)
        x = input_map(r, g, Signal.constant(g, 1.0))
        np.testing.assert_allclose(x.values[:, 0], 1.0 - np.exp(-g.nodes), rtol=1e-12, atol=1e-13)

    def test_output_map_oracle(self):
        # y = 2 exp(-t) x0
        r = scalar_system(a=-1.0, c=2.0)
        g = TimeGrid(1.0, 10)
        y = output_map(r, g, [1.0])
        np.testing.assert_allclose(y.values[:, 0], 2.0 * np.exp(-g.nodes), rtol=1e-13)

    def test_io_map_is_cx_plus_du(self):
        rng = np.random.default_rng(5)
        r = random_realization(rng, 3, 2, 2, io_scale=None)
        g = TimeGrid(1.0, 12)
        u = Signal(g, rng.standard_normal((13, 2)))
        y = io_map(r, g, u)
        x = input_map(r, g, u)
        expect = x.values @ r.C.T + u.values @ r.D.T
        np.testing.assert_allclose(y.values, expect, atol=1e-14)

    def test_zoh_matches_high_accuracy_ode_solver(self):
        rng = np.random.default_rng(7)
        r = random_realization(rng, 4, 1, 1, io_scale=None)
        g = TimeGrid(1.0, 8)
        u = Signal(g, rng.standard_normal((9, 1)))
        x = input_map(r, g, u).values

        def rhs(t, x_, k):
            return r.A @ x_ + r.B[:, 0] * u.values[k, 0]

        state = np.zeros(4)
        for k in range(g.n_steps):
            sol = scipy.integrate.solve_ivp(
                rhs, (0.0, g.dt), state, args=(k,), method="DOP853", rtol=1e-12, atol=1e-13
            )
            state = sol.y[:, -1]
            np.testing.assert_allclose(x[k + 1], state, rtol=1e-9, atol=1e-10)

    def test_trailing_input_sample_ignored(self):
        r = scalar_system()
        g = TimeGrid(1.0, 5)
        base = np.ones((6, 1))
        bumped = base.copy()
        bumped[-1, 0] = 100.0
        xa = input_map(r, g, Signal(g, base)).values
        xb = input_map(r, g, Signal(g, bumped)).values
        np.testing.assert_array_equal(xa, xb)

    def test_input_signal_validation(self):
        r = scalar_system()
        g = TimeGrid(1.0, 5)
        with pytest.raises(ShapeError):
            input_map(r, g, Signal.constant(TimeGrid(1.0, 6), 1.0))
        with pytest.raises(ShapeError):
            input_map(r, g, Signal.constant(g, [1.0, 2.0]))
        with pytest.raises(ShapeError):
            output_map(r, g, [1.0, 2.0])

    def test_quadruple_blocks(self):
        rng = np.random.default_rng(2)
        r = random_realization(rng, 3, 2, 1, io_scale=None)
        g = TimeGrid(1.0, 6)
        qm = quadruple_maps(r, g)
        E, M, C_bar, D_bar = lifted_quadruple(r, g.dt)
        assert qm.semigroup_samples.shape == (7, 3, 3)
        np.testing.assert_allclose(qm.semigroup_samples[1], E, rtol=1e-14)
        # first column block is E^(N-1) M, last is M
        np.testing.assert_allclose(qm.input_map[:, -2:], M, rtol=1e-14)
        np.testing.assert_allclose(qm.output_map[:1, :], C_bar, rtol=1e-14)
        np.testing.assert_allclose(qm.io_map[:1, :2], D_bar, rtol=1e-14)

    def test_io_toeplitz_structure(self):
        rng = np.random.default_rng(8)
        r = random_realization(rng, 3, 2, 2, io_scale=None)
        g = TimeGrid(1.0, 5)
        fio = quadruple_maps(r, g).io_map
        p, m, N = r.p, r.m, g.n_steps
        for i in range(N):
            for k in range(N):
                block = fio[i * p : (i + 1) * p, k * m : (k + 1) * m]
                if k > i:
                    np.testing.assert_array_equal(block, 0.0)
                else:
                    ref = fio[(i - k) * p : (i - k + 1) * p, :m]
                    np.testing.assert_array_equal(block, ref)

    def test_sliding_window_toeplitz_matches_double_loop(self):
        rng = np.random.default_rng(21)
        n, m, p, N = 3, 2, 4, 7
        E, M = rng.standard_normal((n, n)), rng.standard_normal((n, m))
        C, D = rng.standard_normal((p, n)), rng.standard_normal((p, m))
        blocks = [D]
        acc = C
        for _ in range(N - 1):
            blocks.append(acc @ M)
            acc = acc @ E
        ref = np.zeros((N * p, N * m))
        for i in range(N):
            for k in range(i + 1):
                ref[i * p : (i + 1) * p, k * m : (k + 1) * m] = blocks[i - k]
        fio = _io_toeplitz(E, M, C, D, N)
        assert fio.flags.c_contiguous
        np.testing.assert_array_equal(fio, ref)
        np.testing.assert_array_equal(_io_toeplitz(E, M, C, D, 1), D)

    @given(
        n=st.integers(min_value=1, max_value=5),
        i=st.integers(min_value=0, max_value=6),
        j=st.integers(min_value=0, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40)
    def test_semigroup_property(self, n, i, j, seed):
        r = random_realization(np.random.default_rng(seed), n, 1, 1, io_scale=None)
        g = TimeGrid(1.2, 12)
        samples = quadruple_maps(r, g).semigroup_samples
        if i + j > g.n_steps:
            return
        lhs = samples[i] @ samples[j]
        scale = max(np.max(np.abs(samples[i + j])), 1e-300)
        assert np.max(np.abs(lhs - samples[i + j])) / scale < 1e-10


class TestCompositionIdentities:
    @given(
        n=st.integers(min_value=1, max_value=6),
        m=st.integers(min_value=1, max_value=3),
        p=st.integers(min_value=1, max_value=3),
        split=st.integers(min_value=1, max_value=11),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40)
    def test_all_four_identities_hold_to_rounding(self, n, m, p, split, seed):
        r = random_realization(np.random.default_rng(seed), n, m, p, io_scale=None)
        g = TimeGrid(1.5, 12)
        dev = composition_deviations(r, g, split)
        for key in ("semigroup", "input", "output", "io"):
            assert dev[key] <= 1e-10, f"{key} deviation {dev[key]:.3e}"
        assert dev["split"] == split

    def test_default_split_is_midpoint(self):
        r = scalar_system()
        dev = composition_deviations(r, TimeGrid(1.0, 10))
        assert dev["split"] == 5

    @pytest.mark.parametrize("split", [0, 10, -1, 99])
    def test_split_out_of_range_refused(self, split):
        with pytest.raises(GridError):
            composition_deviations(scalar_system(), TimeGrid(1.0, 10), split)


class TestTransfer:
    def test_scalar_oracle(self):
        # C (lam - A)^-1 B + D = 1/(lam + 1) at lam = 1 gives 1/2
        r = scalar_system(a=-1.0, b=1.0, c=1.0, d=0.0)
        assert transfer(r, 1.0)[0, 0] == pytest.approx(0.5, rel=1e-14)

    def test_matches_direct_resolvent(self):
        rng = np.random.default_rng(4)
        r = random_realization(rng, 4, 2, 3, io_scale=None)
        for lam in (1.0, 2.5, 1.0 + 2.0j):
            direct = r.C @ np.linalg.solve(lam * np.eye(4) - r.A, r.B) + r.D
            np.testing.assert_allclose(transfer(r, lam), direct, rtol=1e-12)

    @pytest.mark.filterwarnings("error::scipy.linalg.LinAlgWarning")
    def test_eigenvalue_refused(self):
        r = Realization(np.diag([-1.0, -2.0]), np.ones((2, 1)), np.ones((1, 2)), np.zeros((1, 1)))
        with pytest.raises(SpectrumError):
            transfer(r, -1.0)

    def test_complex_control_at_real_shift(self):
        # real A, complex B, real lam: the solve keeps B's imaginary part
        r = Realization([[-1.0]], [[1.0 + 2.0j]], [[1.0]], [[0.0]])
        assert transfer(r, 1.0)[0, 0] == pytest.approx(0.5 + 1.0j, rel=1e-14)

    def test_real_input_gives_real_output(self):
        r = scalar_system()
        assert transfer(r, 3.0).dtype.kind == "f"


class TestLimits:
    def test_regularity_limit_recovers_feedthrough(self):
        rng = np.random.default_rng(6)
        r = random_realization(rng, 3, 2, 2, io_scale=None)
        sweep = np.logspace(1, 6, 12)
        u = np.array([1.0, -0.5])
        out = regularity_limit(r, sweep, u)
        np.testing.assert_array_equal(out["target"], r.D @ u)
        assert np.linalg.norm(out["value"] - out["target"]) < 1e-4
        assert out["tail_errors"][-1] < out["tail_errors"][0]
        assert out["rate"] == pytest.approx(-1.0, abs=0.1)

    def test_regularity_limit_trivial_when_b_zero(self):
        r = Realization([[-1.0]], [[0.0]], [[1.0]], [[0.7]])
        out = regularity_limit(r, np.logspace(1, 3, 5), [1.0])
        np.testing.assert_array_equal(out["tail_errors"], 0.0)
        assert out["rate"] == -np.inf
        assert out["value"][0] == pytest.approx(0.7)

    def test_regularity_limit_sweep_validation(self):
        r = scalar_system()
        with pytest.raises(ValueError):
            regularity_limit(r, [2.0, 1.0], [1.0])
        with pytest.raises(SpectrumError):
            regularity_limit(r, [-2.0, 1.0], [1.0])
        with pytest.raises(ShapeError):
            regularity_limit(r, [1.0, 2.0], [1.0, 2.0])

    def test_lambda_extension_converges_to_cx(self):
        rng = np.random.default_rng(9)
        r = random_realization(rng, 4, 1, 2, io_scale=None)
        x = rng.standard_normal(4)
        out = lambda_extension(r, x, np.logspace(1, 7, 13))
        np.testing.assert_array_equal(out["target"], r.C @ x)
        assert out["residual"] < 1e-5 * max(np.linalg.norm(out["target"]), 1.0)
        # first-order tail: residuals fall by about the node ratio
        res = out["residuals"]
        assert res[-1] < res[0] * 1e-4

    def test_lambda_extension_dimension_check(self):
        with pytest.raises(ShapeError):
            lambda_extension(scalar_system(), [1.0, 2.0], [1.0, 2.0])


class TestAdjointStructure:
    def test_observation_is_adjoint_control_reversed(self):
        # row j of the output matrix, times dt, transposes to control
        # column N-1-j of the adjoint system: the discrete duality is exact
        # because M_I commutes with powers of E
        rng = np.random.default_rng(12)
        r = random_realization(rng, 3, 2, 2, io_scale=None)
        g = TimeGrid(1.0, 7)
        adj = Realization(r.A.T, r.C.T, r.B.T, r.D.T)
        psi = quadruple_maps(r, g).output_map
        phi_adj = quadruple_maps(adj, g).input_map
        N, p = g.n_steps, r.p
        for j in range(N):
            lhs = psi[j * p : (j + 1) * p, :].T * g.dt
            rhs = phi_adj[:, (N - 1 - j) * p : (N - j) * p]
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-14)


def _draw_matrix(rng, rows, cols, kind, complex_):
    def gauss(*shape):
        z = rng.standard_normal(shape)
        return z + 1j * rng.standard_normal(shape) if complex_ else z

    if kind == "zero":
        return np.zeros((rows, cols), dtype=complex if complex_ else float)
    if kind == "rank-one":
        return np.outer(gauss(rows), gauss(cols))
    if kind == "graded":
        k = min(rows, cols)
        u, _ = np.linalg.qr(gauss(rows, k))
        v, _ = np.linalg.qr(gauss(cols, k))
        return (u * np.logspace(0, -12, k)) @ v.conj().T
    return gauss(rows, cols)


class TestSpectralNorm:
    @given(
        rows=st.integers(min_value=1, max_value=80),
        cols=st.integers(min_value=1, max_value=80),
        kind=st.sampled_from(["gaussian", "rank-one", "graded", "zero"]),
        complex_=st.booleans(),
        exponent=st.sampled_from([-600, 0, 600]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=200)
    def test_matches_svd_norm(self, rows, cols, kind, complex_, exponent, seed):
        a = _draw_matrix(np.random.default_rng(seed), rows, cols, kind, complex_) * 2.0**exponent
        got = _spectral_norm(a)
        if kind == "zero":
            assert got == 0.0
            return
        want = np.linalg.norm(a, 2)
        assert abs(got - want) <= 1e-13 * want, f"relative deviation {abs(got - want) / want:.2e}"

    def test_empty_matrix_is_zero(self):
        assert _spectral_norm(np.zeros((0, 3))) == 0.0

    def test_one_large_svd_per_across_composition(self, monkeypatch):
        # operator norms come from the Gram kernel; the only SVD at io-map
        # size is the sigma_min verdict of the identity-loop admissibility gate
        g = TimeGrid(2.0, 64)
        main, pert = across_instance(np.random.default_rng(3), g)
        svd = np.linalg.svd
        large = []

        def counting(a, *args, **kwargs):
            if min(np.shape(a)[-2:]) >= g.n_steps * main.m:
                large.append(sys._getframe(1).f_code.co_name)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        monkeypatch.setattr(np.linalg._linalg, "svd", counting)
        report = perturb_across(main, pert, g)
        assert report.k0 is not None
        assert large == ["_loop_admissibility"]

    def test_no_two_norm_outside_the_kernel(self):
        # every operator 2-norm in the package goes through _spectral_norm:
        # no norm(x, 2) and no ord=2 anywhere else in src/regsys
        def is_two(node):
            return isinstance(node, ast.Constant) and node.value == 2

        offenders = []
        for path in sorted((Path(__file__).parents[1] / "src" / "regsys").glob("*.py")):
            tree = ast.parse(path.read_text())
            kernel = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name == "_spectral_norm":
                    kernel.update(id(sub) for sub in ast.walk(node))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call) or id(node) in kernel:
                    continue
                ord_two = any(kw.arg == "ord" and is_two(kw.value) for kw in node.keywords)
                norm_two = (ast.unparse(node.func).split(".")[-1] == "norm"
                            and len(node.args) > 1 and is_two(node.args[1]))
                if ord_two or norm_two:
                    offenders.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
        assert offenders == []
