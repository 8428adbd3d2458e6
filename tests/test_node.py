import ast
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import regsys.cli
import regsys.feedback
import regsys.node
from regsys import (
    AdmissibilityError,
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
    cross_instance,
    double_instance,
    perturb_across,
    perturb_cross,
    perturb_double,
    quadruple_maps,
    random_realization,
    regularity_limit,
    robustness_sweep,
    semigroup_step,
    transfer,
)
from regsys.node import _block_conv, _block_toeplitz, _checked_solve, _grid_map, _loop_solve, _markov, _spectral_norm


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

    def test_semigroup_samples_formed_on_read(self):
        r = random_realization(np.random.default_rng(3), 3, 2, 1, io_scale=None)
        g = TimeGrid(1.0, 6)
        qm = quadruple_maps(r, g)
        assert "semigroup_samples" not in vars(qm)
        E = lifted_quadruple(r, g.dt)[0]
        products = [np.eye(3)]
        for _ in range(g.n_steps):
            products.append(E @ products[-1])
        np.testing.assert_array_equal(qm.semigroup_samples, products)
        assert qm.semigroup_samples is vars(qm)["semigroup_samples"]

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
        # the layout alone: the blocks are `_markov`'s, whose values
        # TestPowerSequences checks against the per-step recursion
        every = slice(None)
        blocks = _markov((E, M, C, D), every, every, N)
        ref = np.zeros((N * p, N * m))
        for i in range(N):
            for k in range(i + 1):
                ref[i * p : (i + 1) * p, k * m : (k + 1) * m] = blocks[i - k]
        fio = _grid_map((E, M, C, D), every, every, N)
        assert fio.flags.c_contiguous
        np.testing.assert_array_equal(fio, ref)
        np.testing.assert_array_equal(_grid_map((E, M, C, D), every, every, 1), D)

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -float("inf"), complex(1.0, float("inf")),
                                     complex(float("nan"), 1.0)])
    def test_non_finite_shift_refused(self, lam):
        # refused by name before lam I - A is formed, where inf * 0 would warn
        with pytest.raises(ValueError, match="lambda must be finite"):
            transfer(scalar_system(), lam)

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_regularity_limit_refuses_non_finite_u(self, bad):
        # NaN would give NaN values and rate -inf, the sentinel for "converged exactly"
        r = scalar_system()
        with pytest.raises(ShapeError, match="u contains non-finite"):
            regularity_limit(r, [1.0, 2.0, 4.0], [bad])

    def test_lambda_extension_refuses_non_finite_x_by_name(self):
        with pytest.raises(ShapeError, match="x contains non-finite"):
            lambda_extension(scalar_system(), [np.nan], [1.0, 2.0])

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
    if kind in ("graded", "pair-1e-10", "pair-1e-6"):
        # prescribed singular values: graded over 12 decades, or a top pair
        # split by the given relative gap above a spread-out rest
        k = min(rows, cols)
        u, _ = np.linalg.qr(gauss(rows, k))
        v, _ = np.linalg.qr(gauss(cols, k))
        if kind == "graded":
            sv = np.logspace(0, -12, k)
        else:
            sv = np.r_[1.0, 1.0 - float(kind[5:]), rng.uniform(0.0, 0.5, k - 2)]
        return (u * sv) @ v.conj().T
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

    @given(
        k=st.integers(min_value=256, max_value=420),
        extra=st.integers(min_value=0, max_value=164),
        wide=st.booleans(),
        kind=st.sampled_from(["gaussian", "rank-one", "graded", "zero", "pair-1e-10", "pair-1e-6"]),
        complex_=st.booleans(),
        exponent=st.sampled_from([-600, 0, 600]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=30)
    def test_matches_svd_norm_at_lanczos_sizes(self, k, extra, wide, kind, complex_, exponent, seed):
        # from Gram size 256 on the Lanczos route runs first, and the dense
        # eigh takes over when it does not certify; either way the SVD norm
        rows, cols = (k, min(k + extra, 420)) if wide else (min(k + extra, 420), k)
        a = _draw_matrix(np.random.default_rng(seed), rows, cols, kind, complex_) * 2.0**exponent
        got = _spectral_norm(a)
        if kind == "zero":
            assert got == 0.0
            return
        want = np.linalg.norm(a, 2)
        assert abs(got - want) <= 1e-13 * want, f"relative deviation {abs(got - want) / want:.2e}"

    @pytest.mark.parametrize("pair", [False, True])
    def test_lanczos_certifies_a_separated_top_and_defers_a_tight_pair(self, monkeypatch, pair):
        # a separated top eigenvalue is certified without the dense eigh; a
        # pair split by 1e-10 above a crowded rest is not certified within
        # the step budget, and the dense eigh takes it
        rng = np.random.default_rng(0)
        u, _ = np.linalg.qr(rng.standard_normal((300, 300)))
        v, _ = np.linalg.qr(rng.standard_normal((320, 300)))
        sv = np.r_[1.0, 1.0 - 1e-10, np.linspace(0.99, 0.0, 298)] if pair else np.r_[1.0, np.linspace(0.5, 0.0, 299)]
        a = (u * sv) @ v.T
        eigh, sizes = scipy.linalg.eigh, []

        def spy(mat, *args, **kwargs):
            sizes.append(np.shape(mat)[0])
            return eigh(mat, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh", spy)
        got = _spectral_norm(a)
        assert sizes == ([300] if pair else [])
        assert abs(got - 1.0) <= 1e-14

    @given(k=st.integers(2, 300), extra=st.integers(0, 40),
           kind=st.sampled_from(["gaussian", "rank-one", "graded", "zero", "pair-1e-10", "pair-1e-6"]),
           complex_=st.booleans(), seed=st.integers(min_value=0, max_value=2**31))
    def test_ritz_step_is_eigh_tridiagonal(self, k, extra, kind, complex_, seed):
        # every Lanczos step takes its top Ritz pair from LAPACK's stebz and
        # stein directly; (theta, s[-1, 0]) is eigh_tridiagonal's bit for bit
        # at every j >= 0, and a certified run returns the last theta
        a = _draw_matrix(np.random.default_rng(seed), k, k + extra, kind, complex_)
        at = a.conj().T
        stein, steps = scipy.linalg.lapack.dstein, []

        def spy(d, e, w, *args):
            z, info = stein(d, e, w, *args)
            steps.append((d.copy(), e[: len(d) - 1].copy(), w[0], z[-1, 0]))
            return z, info

        with mock.patch.object(scipy.linalg.lapack, "dstein", spy):
            got = regsys.node._lanczos_top(lambda v: a @ (at @ v), k, a.dtype)
        assert [len(d) for d, *_ in steps] == list(range(1, len(steps) + 1))
        for d, e, theta, last in steps:
            j = len(d) - 1
            (want,), s = scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=(j, j))
            assert (theta, last) == (want, s[-1, 0])
        assert got is None or got == steps[-1][2]

    @pytest.mark.parametrize("kind", ["gaussian", "graded", "pair-1e-10"])
    def test_bit_reproducible(self, kind):
        a = _draw_matrix(np.random.default_rng(1), 300, 340, kind, False)
        assert _spectral_norm(a) == _spectral_norm(a)

    def test_empty_matrix_is_zero(self):
        assert _spectral_norm(np.zeros((0, 3))) == 0.0

    @pytest.mark.parametrize("theorem", ["across", "cross", "double"])
    def test_no_large_svd_and_no_grid_solve_per_certified_composition(self, monkeypatch, theorem):
        # operator norms come from the Gram kernel and the grid admissibility
        # verdict of a well-conditioned loop is the inverse sequence's
        # certificate: no SVD at io-map size and no gated solve that large
        instance, compose = {"across": (across_instance, perturb_across),
                             "cross": (cross_instance, perturb_cross),
                             "double": (double_instance, perturb_double)}[theorem]
        g = TimeGrid(2.0, 64)
        systems = instance(np.random.default_rng(3), g)
        size = g.n_steps * systems[0].m
        svd, gate = np.linalg.svd, regsys.feedback._checked_solve
        large_svd, large_solve = [], []

        def counting_svd(a, *args, **kwargs):
            if min(np.shape(a)[-2:]) >= size:
                large_svd.append(sys._getframe(1).f_code.co_name)
            return svd(a, *args, **kwargs)

        def counting_gate(mat, rhs, rtol, error, what):
            if mat.shape[0] >= size:
                large_solve.append(what)
            return gate(mat, rhs, rtol, error, what)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(np.linalg._linalg, "svd", counting_svd)
        monkeypatch.setattr(regsys.feedback, "_checked_solve", counting_gate)
        monkeypatch.setattr(regsys.node, "_checked_solve", counting_gate)
        report = compose(*systems, g)
        assert report.deviation_time <= 1e-12
        assert large_svd == []
        assert large_solve == []

    def test_no_dense_eigh_at_lanczos_sizes_on_long_grids(self, monkeypatch):
        # on the 256-step grid every composition norm and the io-map norm
        # that random_realization scales by are certified by Lanczos: no
        # eigh of a matrix of size 256 or more
        g = TimeGrid(1.5, 256)
        eigh, large = scipy.linalg.eigh, []

        def spy(mat, *args, **kwargs):
            if np.shape(mat)[0] >= 256:
                large.append(np.shape(mat))
            return eigh(mat, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh", spy)
        for instance, compose in ((across_instance, perturb_across), (cross_instance, perturb_cross),
                                  (double_instance, perturb_double)):
            report = compose(*instance(np.random.default_rng(3), g), g)
            assert report.deviation_time <= 1e-12
        random_realization(np.random.default_rng(3), 4, 2, 2, grid=g)
        assert large == []

    def test_no_dense_toeplitz_on_long_grids(self, monkeypatch):
        # on the 256-step grid the io-maps travel as Markov blocks and the
        # certificate of the inverse sequence decides the grid loop: the
        # compositions, the sweeps and random_realization form no dense
        # block Toeplitz matrix
        g = TimeGrid(1.5, 256)
        calls = []

        def spy(seq):
            calls.append(np.shape(seq))
            return _block_toeplitz(seq)

        monkeypatch.setattr(regsys.node, "_block_toeplitz", spy)
        monkeypatch.setattr(regsys.feedback, "_block_toeplitz", spy)
        for instance, compose in ((across_instance, perturb_across), (cross_instance, perturb_cross),
                                  (double_instance, perturb_double)):
            systems = instance(np.random.default_rng(3), g)
            assert calls == []
            assert compose(*systems, g).deviation_time <= 1e-12
        for instance, mode in ((across_instance, "across"), (cross_instance, "cross")):
            main, pert = instance(np.random.default_rng(4), g)
            robustness_sweep(main, pert, g, g.t_end, mode)
        random_realization(np.random.default_rng(3), 4, 2, 2, grid=g)
        assert calls == []

    @pytest.mark.parametrize("kind", ["compose-across", "compose-cross", "compose-double"])
    def test_compose_kinds_at_4096_steps(self, monkeypatch, kind):
        # one trial at 4096 steps: the grid loop is certified on its blocks
        # and every norm by Lanczos, so no dense block Toeplitz matrix and
        # no eigh of size 256 or more, and the time identity still holds
        toeplitz, eigh, large = [], scipy.linalg.eigh, []

        def spy_toeplitz(seq):
            toeplitz.append(np.shape(seq))
            return _block_toeplitz(seq)

        def spy_eigh(mat, *args, **kwargs):
            if np.shape(mat)[0] >= 256:
                large.append(np.shape(mat))
            return eigh(mat, *args, **kwargs)

        monkeypatch.setattr(regsys.node, "_block_toeplitz", spy_toeplitz)
        monkeypatch.setattr(regsys.feedback, "_block_toeplitz", spy_toeplitz)
        monkeypatch.setattr(scipy.linalg, "eigh", spy_eigh)
        report = regsys.cli.run({"kind": kind, "trials": 1, "grid": {"t_end": 1.5, "n_steps": 4096}})
        assert report["passed"]
        assert report["payload"]["worst_time"] <= 1e-9
        assert toeplitz == [] and large == []

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


def _per_step_powers(x, E, count, rows):
    """[x E^j] (rows) or [E^j x] (columns), j < count, one product per step."""
    blocks = [x]
    for _ in range(count - 1):
        blocks.append(blocks[-1] @ E if rows else E @ blocks[-1])
    return blocks


class TestPowerSequences:
    """Every grid map is a power sequence C_bar E^j or E^j M of the lifted
    step, built by doubling; the per-step recursion is the oracle. Both
    orders form each block as a product of at most N + 1 factors, so under
    the standard model (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., sec. 3.5) each is within N n eps times the product
    of its factors' Frobenius norms of the exact block, to first order; the
    bound below is twice that."""

    @given(N=st.sampled_from([1, 2, 3, 7, 64, 257]), n=st.integers(1, 5), m=st.integers(1, 5),
           p=st.integers(1, 5), batch=st.sampled_from([(), (0,), (1,), (3,)]), complex_=st.booleans(),
           e_norm=st.sampled_from([0.5, 0.95, 1.05]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_doubling_matches_per_step_recursion(self, N, n, m, p, batch, complex_, e_norm, seed):
        rng = np.random.default_rng(seed)

        def draw(*shape):
            a = rng.standard_normal(batch + shape)
            return a + 1j * rng.standard_normal(batch + shape) if complex_ else a

        E, M, C, D = draw(n, n), draw(n, m), draw(p, n), draw(p, m)
        E *= e_norm / np.maximum(np.linalg.norm(E, axis=(-2, -1)), 1e-300)[..., None, None]
        fro = lambda a: np.linalg.norm(a, axis=(-2, -1))[..., None, None]  # noqa: E731
        eps, step, every = np.finfo(float).eps, (E, M, C, D), slice(None)
        powers = fro(E)[..., None, :, :] ** np.arange(N)[:, None, None]  # ||E||^j, on axis -3

        def close(got, want, tol):
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= tol)

        rows = np.stack(_per_step_powers(C, E, N, True), axis=-3)
        tol = 2 * N * n * eps * fro(C)[..., None, :, :] * powers
        close(_grid_map(step, every, None, N), rows.reshape(batch + (N * p, n)),
              np.broadcast_to(tol, rows.shape).reshape(batch + (N * p, n)))
        cols = np.stack(_per_step_powers(M, E, N, False)[::-1], axis=-2)
        tol = np.moveaxis(2 * N * n * eps * fro(M)[..., None, :, :] * powers[..., ::-1, :, :], -3, -2)
        close(_grid_map(step, None, every, N), cols.reshape(batch + (n, N * m)),
              np.broadcast_to(tol, cols.shape).reshape(batch + (n, N * m)))
        markov = np.concatenate((D[..., None, :, :], rows[..., : N - 1, :, :] @ M[..., None, :, :]), axis=-3)
        tol = np.concatenate((np.zeros(batch + (1, 1, 1)), 2 * N * n * eps * (fro(C) * fro(M))[..., None, :, :]
                              * powers[..., : N - 1, :, :]), axis=-3)
        close(_markov(step, every, every, N), markov, tol)


def _draw_sequence(rng, N, p, m, decay, complex_):
    seq = rng.standard_normal((N, p, m))
    if complex_:
        seq = seq + 1j * rng.standard_normal((N, p, m))
    return seq * (decay ** np.arange(N))[:, None, None]


class TestMarkovSequences:
    """An io-map on the grid is the block lower-triangular Toeplitz matrix
    of its Markov blocks. The sequence kernels, FFT convolution and the
    Lanczos norm on FFT mat-vecs, must agree with the dense matrix."""

    @given(N=st.integers(1, 64), p=st.integers(1, 3), k=st.integers(1, 3), m=st.integers(1, 3),
           complex_=st.sampled_from(["neither", "a", "both"]), seed=st.integers(0, 2**32 - 1))
    def test_block_conv_matches_dense_toeplitz_product(self, N, p, k, m, complex_, seed):
        rng = np.random.default_rng(seed)
        a = _draw_sequence(rng, N, p, k, 0.9, complex_ != "neither")
        b = _draw_sequence(rng, N, k, m, 1.0, complex_ == "both")
        got = _block_conv(a)(b)
        assert got.shape == (N, p, m)
        assert np.iscomplexobj(got) == (complex_ != "neither")
        # T(a) times the block column b, and the Markov blocks of T(a) T(b)
        bound = 4 * np.finfo(float).eps * N * np.max(np.abs(a)) * np.max(np.abs(b))
        want = _block_toeplitz(a) @ b.reshape(N * k, m)
        assert np.max(np.abs(got.reshape(N * p, m) - want)) <= bound
        product = _block_toeplitz(a) @ _block_toeplitz(b)
        assert np.max(np.abs(_block_toeplitz(got) - product)) <= bound

    @given(large=st.booleans(), p=st.integers(1, 3), m=st.integers(1, 3),
           decay=st.sampled_from([0.5, 0.9, 0.98, 1.0]), complex_=st.booleans(),
           exponent=st.sampled_from([-600, 0, 600]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_sequence_norm_matches_dense_norm(self, large, p, m, decay, complex_, exponent, seed):
        # Gram size k = N min(p, m) below 256, where the sequence is
        # densified, or from 256 to 600, where Lanczos runs on FFT mat-vecs
        rng = np.random.default_rng(seed)
        k = int(rng.integers(256, 601) if large else rng.integers(40, 256))
        N = -(-k // min(p, m))
        seq = _draw_sequence(rng, N, p, m, decay, complex_) * 2.0**exponent
        got, want = _spectral_norm(seq), _spectral_norm(_block_toeplitz(seq))
        if not large:
            assert got == want
        assert abs(got - want) <= 8 * np.finfo(float).eps * want

    def test_block_conv_refuses_complex_input_to_a_real_sequence(self):
        # the real transform of a real a has no room for a complex b
        with pytest.raises(TypeError):
            _block_conv(np.ones((4, 1, 1)))(np.ones((4, 1, 1)) * 1j)

    def test_zero_sequence(self):
        assert _spectral_norm(np.zeros((300, 2, 2))) == 0.0
        assert _spectral_norm(np.zeros((0, 2, 2))) == 0.0

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("shape", [(200, 2, 3), (150, 3, 2)])
    def test_uncertified_run_returns_the_dense_eigh_value(self, monkeypatch, shape, complex_):
        # Lanczos is handed the Gram operator of the smaller side, T T^H or
        # T^H T, by FFT mat-vecs; a run that does not certify leaves the
        # value to the dense eigh of the densified matrix, and Lanczos is
        # not run a second time on it
        rng = np.random.default_rng(5)
        seq = _draw_sequence(rng, *shape, 0.95, complex_)
        scale = 2.0 ** np.frexp(np.max(np.abs(seq)))[1]
        dense = _block_toeplitz(seq) / scale
        small = dense @ dense.conj().T if shape[1] <= shape[2] else dense.conj().T @ dense
        runs, eigh, sizes = [], scipy.linalg.eigh, []

        def uncertified(gram, k, dtype):
            runs.append(k)
            v = rng.standard_normal(k) + (1j * rng.standard_normal(k) if complex_ else 0.0)
            assert np.max(np.abs(gram(v) - small @ v)) <= 1e-13 * np.max(np.abs(small @ v))
            return None

        def spy(mat, *args, **kwargs):
            sizes.append(np.shape(mat)[0])
            return eigh(mat, *args, **kwargs)

        monkeypatch.setattr(regsys.node, "_lanczos_top", uncertified)
        monkeypatch.setattr(scipy.linalg, "eigh", spy)
        got = _spectral_norm(seq)
        assert runs == [len(small)] == sizes
        want = np.sqrt(eigh(small, eigvals_only=True)[-1]) * scale
        assert abs(got - want) <= 4 * np.finfo(float).eps * want
        assert abs(got - np.linalg.norm(_block_toeplitz(seq), 2)) <= 1e-13 * got


class TestLoopSolve:
    """The grid loop I - T(f) solved on its Markov blocks (`_loop_solve`):
    the inverse sequence h by Newton doubling and X = T(h) rhs, behind a
    certificate that the dense gate would accept. The dense `_checked_solve`
    is the oracle, and the one path that refuses."""

    @given(N=st.integers(1, 512), m=st.integers(1, 3), k=st.integers(1, 3), complex_=st.booleans(),
           log_gain=st.floats(-3.0, 1.5), decay=st.sampled_from([0.3, 0.7, 0.95, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_dense_solve_and_certifies_only_what_the_gate_accepts(
            self, N, m, k, complex_, log_gain, decay, seed):
        # X agrees with the dense solve X_d to 4 eps N eta tau max|X_d|, eta
        # and tau the sums of the Frobenius norms of the blocks of
        # (I - T(f))^-1 and I - T(f): each solve is within about eps kappa_2
        # max|X_d| of the exact one, kappa_2 <= eta tau, with up to N terms
        # per FFT product. The two verdicts agree, and a certified loop is
        # one that the dense gate accepts
        rng = np.random.default_rng(seed)
        f = _draw_sequence(rng, N, m, m, decay, complex_) * 10.0**log_gain / m
        rhs = _draw_sequence(rng, N, m, k, 1.0, complex_)
        try:
            S = _checked_solve(np.eye(m) - f[0], np.eye(m), 1e-8, AdmissibilityError, "I - f_0")
        except AdmissibilityError:
            assume(False)
        mat = np.eye(N * m) - _block_toeplitz(f)
        try:
            want = _checked_solve(mat, rhs.reshape(N * m, k), 1e-8, AdmissibilityError, "I - F")
        except AdmissibilityError:
            want = None
        with mock.patch.object(regsys.node, "_checked_solve", wraps=_checked_solve) as dense:
            try:
                got = _loop_solve(f, rhs, S, 1e-8, AdmissibilityError, "I - F")
            except AdmissibilityError:
                got = None
        assert (got is None) == (want is None)
        if dense.call_count == 0:
            assert want is not None
        if got is not None:
            assert got.shape == rhs.shape
            inverse = np.linalg.solve(mat, np.eye(N * m, m)).reshape(N, m, m)
            eta, tau = (float(np.linalg.norm(s, axis=(1, 2)).sum()) for s in (inverse, mat[:, :m].reshape(N, m, m)))
            bound = 4 * np.finfo(float).eps * N * eta * tau * np.max(np.abs(want))
            assert np.max(np.abs(got.reshape(N * m, k) - want)) <= bound
