import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import regsys.gramian
from regsys import (
    ControllabilityError,
    GridError,
    Realization,
    ShapeError,
    TimeGrid,
    across_instance,
    control_operator,
    cross_instance,
    gramian_report,
    input_map,
    lifted_quadruple,
    min_norm_control,
    observability_constant,
    observation_operator,
    perturb_across,
    perturb_cross,
    quadruple_maps,
    random_realization,
    robustness_sweep,
    surjectivity_radius,
)


def integrator(n, m):
    return Realization(np.zeros((n, n)), np.eye(n)[:, :m], np.eye(n)[:m, :], np.zeros((m, m)))


class TestOperators:
    def test_integrator_control_columns(self):
        # A = 0, B = I: every column block is sqrt(dt) I
        g = TimeGrid(2.0, 8)
        op = control_operator(integrator(2, 2), g)
        expect = np.hstack([np.sqrt(g.dt) * np.eye(2)] * 8)
        np.testing.assert_allclose(op.matrix, expect, rtol=1e-13)

    def test_integrator_gramian_is_horizon(self):
        g = TimeGrid(2.0, 8)
        rep = gramian_report(control_operator(integrator(2, 2), g))
        np.testing.assert_allclose(rep.gramian, 2.0 * np.eye(2), rtol=1e-13)
        assert rep.radius == pytest.approx(np.sqrt(2.0), rel=1e-13)
        assert rep.verdict is True

    def test_integrator_observability_constant(self):
        g = TimeGrid(2.0, 8)
        assert observability_constant(integrator(2, 2), g) == pytest.approx(np.sqrt(2.0), rel=1e-13)

    def test_partial_horizon(self):
        g = TimeGrid(1.0, 10)
        op = control_operator(integrator(2, 2), g, t0=0.4)
        assert op.t0 == pytest.approx(0.4)
        assert op.matrix.shape == (2, 8)
        rep = gramian_report(op)
        np.testing.assert_allclose(rep.gramian, 0.4 * np.eye(2), rtol=1e-12)

    def test_unaligned_horizon_refused(self):
        g = TimeGrid(1.0, 10)
        with pytest.raises(GridError):
            control_operator(integrator(2, 2), g, t0=0.35)
        with pytest.raises(GridError):
            observation_operator(integrator(2, 2), g, t0=0.05)

    def test_observation_gramian_orientation(self):
        g = TimeGrid(1.0, 6)
        r = random_realization(np.random.default_rng(0), 3, 1, 2, io_scale=None)
        rep = gramian_report(observation_operator(r, g))
        assert rep.gramian.shape == (3, 3)  # Psi* Psi lives on the state space

    def test_short_grid_observability_is_zero(self):
        # fewer output rows than states: no lower bound possible
        r = random_realization(np.random.default_rng(1), 4, 1, 1, io_scale=None)
        assert observability_constant(r, TimeGrid(1.0, 2)) == 0.0

    def test_continuous_gramian_oracle(self):
        # Van Loan block exponential gives int_0^T e^{As} B B' e^{A's} ds;
        # the zero-order-hold Gramian converges to it at second order
        rng = np.random.default_rng(2)
        r = random_realization(rng, 3, 2, 1, io_scale=None)
        T = 1.0
        big = np.zeros((6, 6))
        big[:3, :3] = -r.A
        big[:3, 3:] = r.B @ r.B.T
        big[3:, 3:] = r.A.T
        eb = scipy.linalg.expm(big * T)
        w_exact = eb[3:, 3:].T @ eb[:3, 3:]
        g = TimeGrid(T, 1000)
        w_disc = gramian_report(control_operator(r, g)).gramian
        dev = np.max(np.abs(w_disc - w_exact)) / np.max(np.abs(w_exact))
        assert dev < 1e-4, f"gramian deviation {dev:.3e}"

    def test_duality_with_adjoint_system(self):
        # weighted observation matrix of r == transposed weighted control
        # matrix of the adjoint system up to block order (exact identity)
        rng = np.random.default_rng(3)
        r = random_realization(rng, 3, 2, 2, io_scale=None)
        g = TimeGrid(1.0, 7)
        adj = Realization(r.A.T, r.C.T, r.B.T, r.D.T)
        psi = observation_operator(r, g).matrix
        phi = control_operator(adj, g).matrix
        N, p = g.n_steps, r.p
        rebuilt = np.hstack([psi[j * p : (j + 1) * p, :].T for j in reversed(range(N))])
        np.testing.assert_allclose(rebuilt, phi, rtol=1e-12, atol=1e-14)


class TestSurjectivityRadius:
    def test_diagonal_example(self):
        assert surjectivity_radius([[2.0, 0.0, 0.0], [0.0, 1.0, 0.0]]) == pytest.approx(1.0)

    def test_tall_matrix_refused(self):
        with pytest.raises(ShapeError):
            surjectivity_radius(np.ones((3, 2)))

    def test_rank_one_destruction(self):
        mat = np.array([[2.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        u, s, vt = np.linalg.svd(mat)
        kill = -s[-1] * np.outer(u[:, -1], vt[1, :])
        assert surjectivity_radius(mat + kill) == pytest.approx(0.0, abs=1e-12)

    @given(seed=st.integers(min_value=0, max_value=10_000),
           frac=st.floats(min_value=0.0, max_value=0.99))
    @settings(max_examples=40)
    def test_weyl_stability(self, seed, frac):
        # perturbations of norm t*s0 leave sigma_min >= (1-t)*s0
        rng = np.random.default_rng(seed)
        mat = rng.standard_normal((3, 5))
        s0 = surjectivity_radius(mat)
        pert = rng.standard_normal((3, 5))
        norm = np.linalg.svd(pert, compute_uv=False)[0]
        if norm == 0:
            return
        pert *= frac * s0 / norm
        assert surjectivity_radius(mat + pert) >= (1.0 - frac) * s0 - 1e-10


class TestMinNormControl:
    def test_scalar_integrator_oracle(self):
        # x' = u from 0 to x* at T: the least-norm zero-order-hold input is
        # the constant x*/T
        r = Realization([[0.0]], [[1.0]], [[1.0]], [[0.0]])
        g = TimeGrid(2.0, 10)
        u = min_norm_control(r, g, 2.0, [3.0])
        np.testing.assert_allclose(u.values, 1.5, rtol=1e-10)

    def test_reaches_target(self):
        rng = np.random.default_rng(4)
        r = random_realization(rng, 3, 2, 1, io_scale=None)
        g = TimeGrid(1.0, 16)
        target = rng.standard_normal(3)
        u = min_norm_control(r, g, 1.0, target)
        x = input_map(r, g, u)
        np.testing.assert_allclose(x.values[-1], target, rtol=1e-8, atol=1e-10)

    def test_optimality_in_row_space(self):
        # adding any kernel direction of the control matrix only grows the
        # discrete L2 norm
        rng = np.random.default_rng(5)
        r = random_realization(rng, 2, 1, 1, io_scale=None)
        g = TimeGrid(1.0, 12)
        target = np.array([1.0, -0.5])
        u = min_norm_control(r, g, 1.0, target)
        phi = control_operator(r, g).matrix
        kern = scipy.linalg.null_space(phi)
        stacked = u.values[:-1, 0] * np.sqrt(g.dt)
        for j in range(min(kern.shape[1], 4)):
            other = stacked + 0.3 * kern[:, j]
            assert np.linalg.norm(other) >= np.linalg.norm(stacked) - 1e-12

    def test_uncontrollable_refused(self):
        r = Realization(np.zeros((2, 2)), np.array([[1.0], [0.0]]), np.eye(2)[:1], np.zeros((1, 1)))
        with pytest.raises(ControllabilityError):
            min_norm_control(r, TimeGrid(1.0, 8), 1.0, [0.0, 1.0])

    def test_target_length_checked(self):
        r = integrator(2, 2)
        with pytest.raises(ShapeError):
            min_norm_control(r, TimeGrid(1.0, 8), 1.0, [1.0, 2.0, 3.0])


GRID = TimeGrid(1.5, 32)


class TestRobustnessSweep:
    def test_across_verdicts_below_bound(self):
        rng = np.random.default_rng(6)
        main, pert = across_instance(rng, GRID)
        rep = robustness_sweep(main, pert, GRID, GRID.t_end, "across")
        assert rep.mode == "across"
        assert rep.bound_gain > 0
        below = rep.k_values <= rep.bound_gain * (1.0 + 1e-12)
        assert below.any()
        assert rep.within_bound[below].all()
        if rep.k_star is not None:
            assert rep.margin >= 1.0

    def test_across_bound_matches_composition_report(self):
        # the sweep and the composition reports read the same margin norms,
        # so the sweep's bound gain is the report's k0 or theta0 exactly
        cases = (("across", across_instance, perturb_across, "k0"),
                 ("cross", cross_instance, perturb_cross, "theta0"))
        for mode, instance, compose, key in cases:
            main, pert = instance(np.random.default_rng(7), GRID)
            rep = robustness_sweep(main, pert, GRID, GRID.t_end, mode)
            comp = compose(main, pert, GRID)
            assert rep.bound_gain == getattr(comp, key), mode
            assert rep.norms == comp.norms, mode

    def test_cross_verdicts_below_bound(self):
        rng = np.random.default_rng(8)
        main, pert = cross_instance(rng, GRID)
        rep = robustness_sweep(main, pert, GRID, GRID.t_end, "cross")
        assert rep.alpha0 == pytest.approx(rep.norms["obs_constant"] / 2.0)
        below = rep.k_values <= rep.bound_gain * (1.0 + 1e-12)
        assert rep.within_bound[below].all()

    def test_custom_gain_grid(self):
        rng = np.random.default_rng(9)
        main, pert = across_instance(rng, GRID)
        ks = np.array([1e-4, 1e-3, 1e-2])
        rep = robustness_sweep(main, pert, GRID, GRID.t_end, "across", k_grid=ks)
        np.testing.assert_array_equal(rep.k_values, ks)
        assert rep.sigma_min.shape == (3,)

    def test_bound_column_shape(self):
        rng = np.random.default_rng(10)
        main, pert = across_instance(rng, GRID)
        rep = robustness_sweep(main, pert, GRID, GRID.t_end, "across")
        assert np.all(rep.bound >= 0.0)
        # guaranteed level at k -> 0 approaches the unperturbed radius
        assert rep.bound[0] == pytest.approx(rep.norms["radius"], rel=1e-2)

    def test_invalid_mode_refused(self):
        rng = np.random.default_rng(11)
        main, pert = across_instance(rng, GRID)
        with pytest.raises(ValueError):
            robustness_sweep(main, pert, GRID, GRID.t_end, "sideways")

    def test_unreachable_companion_refused(self):
        rng = np.random.default_rng(12)
        main = random_realization(rng, 3, 2, 2)
        dead = Realization(main.A, np.zeros((3, 2)), main.C, np.zeros((2, 2)))
        with pytest.raises(ControllabilityError):
            robustness_sweep(main, dead, GRID, GRID.t_end, "across")

    @pytest.mark.parametrize("mode", ["across", "cross"])
    def test_companion_breaking_the_assumptions_refused(self, mode):
        # the sweep closes the loop on main's A (and C or B), so a companion
        # with its own A, or its own B on the cross side, is refused rather
        # than measured against the wrong system
        instance = across_instance if mode == "across" else cross_instance
        main, pert = instance(np.random.default_rng(0), GRID)
        if mode == "across":
            bad = Realization(pert.A + 0.5 * np.eye(pert.n), pert.B, pert.C, pert.D)
        else:
            bad = Realization(pert.A, 2.0 * pert.B, pert.C, pert.D)
        with pytest.raises(ShapeError):
            robustness_sweep(main, bad, GRID, GRID.t_end, mode)

    def test_csv_and_json_outputs(self, tmp_path):
        rng = np.random.default_rng(13)
        main, pert = across_instance(rng, GRID)
        rep = robustness_sweep(main, pert, GRID, GRID.t_end, "across")
        doc = rep.to_json_dict()
        assert doc["k0"] == rep.bound_gain
        path = tmp_path / "sweep.csv"
        rep.to_csv(path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "k,sigma_min,bound,within_bound"
        assert len(rows) == 1 + len(rep.k_values)
        first = rows[1].split(",")
        assert float(first[0]) == rep.k_values[0]

    @pytest.mark.parametrize("mode", ["across", "cross"])
    def test_one_step_no_grid_maps(self, monkeypatch, mode):
        # the margin norms and every sweep point read the stack's one step
        main, pert = (across_instance if mode == "across" else cross_instance)(
            np.random.default_rng(16), GRID)
        # the module assembles no QuadrupleMaps: it does not even bind the name
        assert not hasattr(regsys.gramian, "quadruple_maps")
        calls = {"lifted_quadruple": 0}

        def counting(name):
            real = getattr(regsys.gramian, name)

            def wrapped(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapped

        for name in calls:
            monkeypatch.setattr(regsys.gramian, name, counting(name))
        robustness_sweep(main, pert, GRID, GRID.t_end, mode)
        assert calls == {"lifted_quadruple": 1}

    @pytest.mark.parametrize("mode", ["across", "cross"])
    def test_every_gain_refused_gives_zero_sigma(self, mode):
        # k_grid = 1/eig(D_bar) over the real positive eigenvalues: the gate
        # refuses every gain, so the batch of closed steps is empty and every
        # point reads sigma 0.0
        g = TimeGrid(1.5, 16)
        instance, rng = across_instance if mode == "across" else cross_instance, np.random.default_rng(0)
        while True:
            main, pert = instance(rng, g)
            lam = np.linalg.eigvals(lifted_quadruple(main, g.dt)[3])
            positive = lam.real[(lam.imag == 0.0) & (lam.real > 0.0)]
            if positive.size:
                break
        ks = np.sort(1.0 / positive)
        rep = robustness_sweep(main, pert, g, g.t_end, mode, k_grid=ks)
        np.testing.assert_array_equal(rep.k_values, ks)
        np.testing.assert_array_equal(rep.sigma_min, np.zeros(len(ks)))
        assert not rep.within_bound.any() and rep.k_star == ks[0]

    @pytest.mark.parametrize("mode", ["across", "cross"])
    @pytest.mark.parametrize("bad", [-5.0, -1e-300, np.nan, np.inf, -np.inf])
    def test_negative_or_nonfinite_gain_refused(self, monkeypatch, mode, bad):
        # the Weyl bound holds only for 0 <= k: the first such gain is named
        # before any lifted step is taken
        main, pert = (across_instance if mode == "across" else cross_instance)(
            np.random.default_rng(0), GRID)

        def unreachable(*args, **kwargs):
            raise AssertionError("a lifted step was taken before the gains were checked")

        monkeypatch.setattr(regsys.gramian, "lifted_quadruple", unreachable)
        with pytest.raises(ValueError, match=f"finite and nonnegative, got {bad}"):
            robustness_sweep(main, pert, GRID, GRID.t_end, mode, k_grid=[0.0, 0.01, bad, -7.0])

    @pytest.mark.parametrize("mode", ["across", "cross"])
    def test_batched_sweep_matches_per_point_loop(self, mode):
        instance = across_instance if mode == "across" else cross_instance
        rng = np.random.default_rng(15)
        while True:  # an instance where I - k D_bar is singular at some real k
            main, pert = instance(rng, GRID)
            lam = np.linalg.eigvals(lifted_quadruple(main, GRID.dt)[3])
            if np.any((lam.imag == 0) & (lam.real > 0)):
                break
        k_singular = 1.0 / np.max(lam.real[lam.imag == 0])
        default = robustness_sweep(main, pert, GRID, GRID.t_end, mode)
        ks = np.append(default.k_values, k_singular)
        rep = robustness_sweep(main, pert, GRID, GRID.t_end, mode, k_grid=ks)

        ref = np.array([_sweep_point(k, main, pert, mode) for k in ks])
        assert ref[-1] == 0.0 and rep.sigma_min[-1] == 0.0
        assert np.all(ref[:-1] > 0.0)
        np.testing.assert_allclose(rep.sigma_min, ref, rtol=1e-12, atol=0.0)

        qm = quadruple_maps(pert, GRID)
        if mode == "across":
            level = rep.norms["radius"]
            top = np.linalg.svd(qm.input_map / np.sqrt(GRID.dt), compute_uv=False)[0]
            threshold = 1e-8 * max(top, 1.0)
        else:
            level, threshold = rep.norms["obs_constant"], rep.alpha0
        ok = ref + 1e-9 * max(level, 1.0) >= np.maximum(rep.bound, threshold)
        np.testing.assert_array_equal(rep.within_bound, ok)


def _planted(mode, eps):
    """The instance of seed 0 on GRID with its companion planted eps away
    from losing exactness: for "across", DB <- DB - w w'DB + eps w 1' along
    a real unit left eigenvector w of A, so that w' DB = eps 1' and w' phi
    is of order eps; for "cross" the dual, DC <- DC - DC v v' + eps 1 v'
    along a real unit right eigenvector v."""
    main, pert = (across_instance if mode == "across" else cross_instance)(np.random.default_rng(0), GRID)
    lam, vecs = np.linalg.eig(main.A.T if mode == "across" else main.A)
    v = vecs[:, np.flatnonzero(lam.imag == 0)[0]].real
    v /= np.linalg.norm(v)
    if mode == "across":
        db = pert.B - np.outer(v, v @ pert.B) + eps * np.outer(v, np.ones(pert.m))
        return main, Realization(pert.A, db, pert.C, pert.D)
    dc = pert.C - np.outer(pert.C @ v, v) + eps * np.outer(np.ones(pert.p), v)
    return main, Realization(pert.A, pert.B, dc, pert.D)


class TestOneExactnessVerdict:
    @settings(max_examples=20)
    @given(mode=st.sampled_from(["across", "cross"]), log_eps=st.floats(-11.0, -2.0),
           seed=st.integers(0, 2**32 - 1))
    def test_planted_family_verdicts_agree(self, mode, log_eps, seed):
        # the composition's margin, the sweep, the Gramian report and the
        # minimum-norm control (of the adjoint system for cross, whose control
        # operator is the observation operator's adjoint) refuse together.
        # Where they accept, the control reaches its target to 1e-8 through the
        # exact discrete input map (the per-step recursion adds rounding of its
        # own near the gate), unless its residual check refuses where no solve
        # in double precision can pass it: there the residual floor is of order
        # eps kappa ||x||, which reaches 1e-8 ||x|| within a decade of the gate
        main, pert = _planted(mode, 10.0**log_eps)
        compose = perturb_across if mode == "across" else perturb_cross
        margin = getattr(compose(main, pert, GRID), "k0" if mode == "across" else "theta0")
        try:
            robustness_sweep(main, pert, GRID, GRID.t_end, mode)
            swept = True
        except ControllabilityError:
            swept = False
        if mode == "across":
            report, steered = gramian_report(control_operator(pert, GRID)), pert
        else:
            report = gramian_report(observation_operator(pert, GRID))
            steered = Realization(pert.A.T, pert.C.T, pert.B.T, pert.D.T)
        target = np.random.default_rng(seed).standard_normal(pert.n)
        try:
            u, refusal = min_norm_control(steered, GRID, GRID.t_end, target), ""
        except ControllabilityError as err:
            u, refusal = None, str(err)
        assert (margin is not None) == swept == report.verdict == ("not exactly controllable" not in refusal)
        if u is not None:
            reached = quadruple_maps(steered, GRID).input_map @ u.values[:-1].ravel()
            assert np.linalg.norm(reached - target) <= 1e-8 * np.linalg.norm(target)
        elif report.verdict:
            assert "residual" in refusal
            assert np.finfo(float).eps * report.sigma_max / report.sigma_min > 1e-9


def _sweep_point(k, main, pert, mode):
    """One sweep point on its own: close u = k y on the separate one-step
    matrices of main and pert, assemble the operator block by block and
    take its smallest singular value; 0.0 when I - k D_bar is singular."""
    dt, N = GRID.dt, GRID.n_steps
    E, M_B, C_bar, D_bar = lifted_quadruple(main, dt)
    _, M_p, C_p, P_bar = lifted_quadruple(pert, dt)
    loop = np.eye(main.m) - k * D_bar
    sv = np.linalg.svd(loop, compute_uv=False)
    if sv[-1] <= 1e-12 * sv[0]:
        return 0.0
    S = np.linalg.solve(loop, np.eye(main.m))
    E_cl = E + k * M_B @ S @ C_bar
    powers = [np.eye(main.n)]
    for _ in range(N - 1):
        powers.append(E_cl @ powers[-1])
    if mode == "across":
        M_cl = k * M_B @ S @ P_bar + M_p
        op = np.hstack([powers[N - 1 - j] @ M_cl for j in range(N)]) / np.sqrt(dt)
    else:
        C_cl = C_p + k * P_bar @ S @ C_bar
        op = np.vstack([C_cl @ powers[j] for j in range(N)]) * np.sqrt(dt)
    return float(np.linalg.svd(op, compute_uv=False)[-1])
