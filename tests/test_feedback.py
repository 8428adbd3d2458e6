import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import regsys.feedback
from regsys import (
    AdmissibilityError,
    ControllabilityError,
    FeedbackGain,
    Realization,
    ShapeError,
    TimeGrid,
    across_instance,
    admissible_feedback_check,
    closed_loop,
    cross_instance,
    double_instance,
    k0_bound,
    lifted_quadruple,
    perturb_across,
    perturb_cross,
    perturb_double,
    quadruple_maps,
    random_realization,
    theta0_bound,
    transfer,
)
from regsys.node import _block_toeplitz, _rel_dev

GRID = TimeGrid(1.5, 32)


def _loop_inverse(main):
    return np.linalg.solve(np.eye(main.m) - main.D, np.eye(main.m))


def _assert_closed_loop(closed, A, B, C, D):
    for name, expect in zip("ABCD", (A, B, C, D)):
        np.testing.assert_allclose(getattr(closed, name), expect, rtol=1e-12, atol=0.0,
                                   err_msg=name)


class TestGainBounds:
    def test_k0_worked_example(self):
        # zero feedthrough, io norm 2, control norm 1, companion io norm 1,
        # radius 1: min(inf, 1/2, 1/(1*1 + 1*2)) = 1/3
        norms = {"d_norm": 0.0, "io_norm": 2.0, "control_norm": 1.0,
                 "pert_io_norm": 1.0, "radius": 1.0}
        assert k0_bound(norms) == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_k0_feedthrough_term_can_bind(self):
        norms = {"d_norm": 2.0, "io_norm": 0.0, "control_norm": 0.0,
                 "pert_io_norm": 0.0, "radius": 1.0}
        assert k0_bound(norms) == pytest.approx(0.5)

    def test_k0_all_terms_infinite(self):
        norms = {"d_norm": 0.0, "io_norm": 0.0, "control_norm": 0.0,
                 "pert_io_norm": 0.0, "radius": 1.0}
        assert k0_bound(norms) == np.inf

    def test_k0_requires_positive_radius(self):
        norms = {"d_norm": 0.0, "io_norm": 1.0, "control_norm": 1.0,
                 "pert_io_norm": 1.0, "radius": 0.0}
        with pytest.raises(ControllabilityError):
            k0_bound(norms)

    def test_k0_rejects_negative_norms(self):
        norms = {"d_norm": -1.0, "io_norm": 1.0, "control_norm": 1.0,
                 "pert_io_norm": 1.0, "radius": 1.0}
        with pytest.raises(ValueError):
            k0_bound(norms)

    @pytest.mark.parametrize("radius", [np.nan, np.inf, -np.inf])
    def test_k0_refuses_non_finite_radius(self, radius):
        # min() skips NaN and inf / inf is NaN, so the surjectivity term
        # would vanish and leave min(1/d, 1/f) = 2
        norms = {"d_norm": 0.5, "io_norm": 0.4, "control_norm": 2.0,
                 "pert_io_norm": 0.3, "radius": radius}
        with pytest.raises(ValueError, match="radius"):
            k0_bound(norms)

    def test_theta0_refuses_infinite_obs_constant(self):
        norms = {"d_norm": 0.5, "io_norm": 0.4, "pert_io_norm": 0.3,
                 "obs_norm": 2.0, "obs_constant": np.inf, "alpha0": 0.5}
        with pytest.raises(ValueError, match="obs_constant"):
            theta0_bound(norms)

    @pytest.mark.parametrize("name, value", [
        ("obs_constant", np.inf), ("obs_constant", np.nan), ("obs_constant", -np.inf),
        ("alpha0", np.nan), ("alpha0", np.inf),
        ("obs_norm", np.nan), ("obs_norm", np.inf), ("obs_norm", -1.0),
    ])
    def test_theta0_refusal_names_the_parameter(self, name, value):
        # each refusal names the offending entry, not the k0 parameter
        # (radius, control_norm) it would become or the alpha0 range
        norms = {"d_norm": 0.5, "io_norm": 0.4, "pert_io_norm": 0.3,
                 "obs_norm": 2.0, "obs_constant": 1.0, "alpha0": 0.5}
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            theta0_bound(dict(norms, **{name: value}))

    def test_theta0_worked_example(self):
        # min(inf, 1/1, (1/2)/((1/2)*1 + 1*2)) = 1/5
        norms = {"d_norm": 0.0, "io_norm": 1.0, "pert_io_norm": 1.0,
                 "obs_norm": 2.0, "obs_constant": 1.0, "alpha0": 0.5}
        assert theta0_bound(norms) == pytest.approx(0.2, rel=1e-15)

    def test_theta0_alpha0_range_enforced(self):
        norms = {"d_norm": 0.0, "io_norm": 1.0, "pert_io_norm": 1.0,
                 "obs_norm": 2.0, "obs_constant": 1.0}
        for alpha0 in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                theta0_bound(dict(norms, alpha0=alpha0))

    @given(
        d=st.floats(min_value=0.0, max_value=10.0),
        f=st.floats(min_value=0.0, max_value=10.0),
        phi=st.floats(min_value=0.0, max_value=10.0),
        fp=st.floats(min_value=0.0, max_value=10.0),
        s0=st.floats(min_value=1e-6, max_value=10.0),
    )
    def test_k0_never_exceeds_any_term(self, d, f, phi, fp, s0):
        k0 = k0_bound({"d_norm": d, "io_norm": f, "control_norm": phi,
                       "pert_io_norm": fp, "radius": s0})
        assert k0 > 0
        if d > 0:
            assert k0 <= 1.0 / d + 1e-12
        if f > 0:
            assert k0 <= 1.0 / f + 1e-12


class TestFeedbackGain:
    def test_scaled_identity(self):
        fb = FeedbackGain.scaled_identity(0.3, 2)
        np.testing.assert_allclose(fb.matrix(), 0.3 * np.eye(2))

    def test_negative_scale_refused(self):
        with pytest.raises(ShapeError):
            FeedbackGain(np.eye(2), -1.0)

    def test_non_finite_gamma_refused(self):
        with pytest.raises(ShapeError):
            FeedbackGain(np.array([[np.inf]]))


class TestClosedLoop:
    def test_transfer_identity(self):
        # G_cl(lam) = (I - G gamma)^-1 G at every resolvent point
        rng = np.random.default_rng(0)
        r = random_realization(rng, 4, 2, 2)
        fb = FeedbackGain(0.3 * rng.standard_normal((2, 2)))
        cl = closed_loop(r, fb)
        gamma = fb.matrix()
        for lam in (1.0, 2.0, 5.0):
            g_open = transfer(r, lam)
            expect = np.linalg.solve(np.eye(2) - g_open @ gamma, g_open)
            np.testing.assert_allclose(transfer(cl, lam), expect, rtol=1e-10, atol=1e-12)

    def test_push_through_feedthrough(self):
        rng = np.random.default_rng(1)
        r = random_realization(rng, 3, 2, 2)
        gamma = 0.2 * rng.standard_normal((2, 2))
        cl = closed_loop(r, FeedbackGain(gamma))
        lhs = np.linalg.solve(np.eye(2) - r.D @ gamma, r.D)
        np.testing.assert_allclose(cl.D, lhs, rtol=1e-12)

    def test_zero_gain_is_identity_operation(self):
        r = random_realization(np.random.default_rng(2), 3, 2, 2)
        cl = closed_loop(r, FeedbackGain(np.zeros((2, 2))))
        for name in "ABCD":
            np.testing.assert_allclose(getattr(cl, name), getattr(r, name), atol=1e-14)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25)
    def test_counter_gain_restores_original(self, seed):
        # u = gamma y + v then v = -gamma y + w collapses to u = w
        rng = np.random.default_rng(seed)
        r = random_realization(rng, 3, 2, 2)
        gamma = 0.25 * rng.standard_normal((2, 2))
        once = closed_loop(r, FeedbackGain(gamma))
        back = closed_loop(once, FeedbackGain(-gamma))
        for name in "ABCD":
            np.testing.assert_allclose(getattr(back, name), getattr(r, name),
                                       rtol=1e-9, atol=1e-11)

    def test_singular_loop_refused(self):
        r = Realization([[-1.0]], [[1.0]], [[1.0]], [[1.0]])
        with pytest.raises(AdmissibilityError):
            closed_loop(r, FeedbackGain([[1.0]]))

    def test_gamma_shape_mismatch(self):
        r = random_realization(np.random.default_rng(3), 3, 2, 2)
        with pytest.raises(ShapeError):
            closed_loop(r, FeedbackGain(np.eye(3)))


class TestAdmissibilityCheck:
    def test_small_gain_admissible(self):
        r = random_realization(np.random.default_rng(4), 3, 2, 2, io_scale=0.3)
        out = admissible_feedback_check(r, FeedbackGain.scaled_identity(1.0, 2), GRID)
        assert out["admissible"] is True
        assert out["sigma_min"] > 0
        assert out["condition_number"] >= 1.0

    def test_unit_feedthrough_not_admissible(self):
        r = Realization([[-1.0]], [[0.0]], [[0.0]], [[1.0]])
        out = admissible_feedback_check(r, FeedbackGain([[1.0]]), TimeGrid(1.0, 4))
        assert out["admissible"] is False
        assert out["feedthrough_sigma_min"] == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("m,p", [(2, 2), (2, 3), (3, 1)])
    def test_blockwise_gain_matches_kron(self, m, p):
        # oracle: the loop matrix I - F kron(I_N, gamma) formed densely
        rng = np.random.default_rng(6)
        r = random_realization(rng, 4, m, p, io_scale=0.3)
        gamma = rng.standard_normal((m, p))
        out = admissible_feedback_check(r, FeedbackGain(gamma), GRID)
        fio = quadruple_maps(r, GRID).io_map
        loop = np.eye(fio.shape[0]) - fio @ np.kron(np.eye(GRID.n_steps), gamma)
        sv = np.linalg.svd(loop, compute_uv=False)
        assert out["sigma_min"] == pytest.approx(sv[-1], rel=1e-13)
        assert out["condition_number"] == pytest.approx(sv[0] / sv[-1], rel=1e-12)

    def test_gamma_shape_checked(self):
        r = random_realization(np.random.default_rng(5), 3, 2, 2)
        with pytest.raises(ShapeError):
            admissible_feedback_check(r, FeedbackGain(np.eye(3)), GRID)


class TestPerturbAcross:
    def test_identities_and_margin(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            main, pert = across_instance(rng, GRID)
            rep = perturb_across(main, pert, GRID)
            assert rep.theorem == "across"
            assert rep.deviation_time <= 1e-9
            assert rep.deviation_transfer <= 1e-10
            assert rep.k0 is not None and rep.k0 > 0
            assert rep.k0 == pytest.approx(k0_bound(rep.norms))

    def test_closed_loop_matrices(self):
        # (A + B (I-D)^-1 C, B (I-D)^-1 P + DB, (I-D)^-1 C, (I-D)^-1 P)
        rng = np.random.default_rng(11)
        main, pert = across_instance(rng, GRID)
        rep = perturb_across(main, pert, GRID)
        s = _loop_inverse(main)
        _assert_closed_loop(rep.closed_loop, main.A + main.B @ s @ main.C,
                            main.B @ s @ pert.D + pert.B, s @ main.C, s @ pert.D)

    def test_json_dict_carries_gain(self):
        rng = np.random.default_rng(12)
        main, pert = across_instance(rng, GRID)
        doc = perturb_across(main, pert, GRID).to_json_dict()
        assert doc["theorem"] == "across"
        assert doc["k0"] > 0
        assert doc["grid"] == {"t_end": GRID.t_end, "n_steps": GRID.n_steps}

    def test_requires_square_loop(self):
        rng = np.random.default_rng(13)
        main = random_realization(rng, 3, 2, 1)
        with pytest.raises(ShapeError):
            perturb_across(main, main, GRID)

    def test_requires_shared_state_matrix(self):
        rng = np.random.default_rng(14)
        main = random_realization(rng, 3, 2, 2)
        other = random_realization(rng, 3, 2, 2)
        with pytest.raises(ShapeError):
            perturb_across(main, other, GRID)


class TestPerturbCross:
    def test_identities_and_margin(self):
        rng = np.random.default_rng(20)
        for _ in range(5):
            main, pert = cross_instance(rng, GRID)
            rep = perturb_cross(main, pert, GRID)
            assert rep.deviation_time <= 1e-9
            assert rep.deviation_transfer <= 1e-10
            assert rep.theta0 is not None and rep.theta0 > 0
            # the retained-level convention is half the observed constant
            assert rep.norms["alpha0"] == pytest.approx(rep.norms["obs_constant"] / 2.0)
            assert rep.theta0 == pytest.approx(theta0_bound(rep.norms))

    def test_closed_loop_matrices(self):
        # (A^I, B (I-D)^-1, P (I-D)^-1 C + DC, P (I-D)^-1)
        rng = np.random.default_rng(21)
        main, pert = cross_instance(rng, GRID)
        rep = perturb_cross(main, pert, GRID)
        s = _loop_inverse(main)
        _assert_closed_loop(rep.closed_loop, main.A + main.B @ s @ main.C, main.B @ s,
                            pert.D @ s @ main.C + pert.C, pert.D @ s)

    def test_requires_shared_control_matrix(self):
        rng = np.random.default_rng(22)
        main = random_realization(rng, 3, 2, 2)
        pert = Realization(main.A, np.ones((3, 2)), main.C, main.D)
        with pytest.raises(ShapeError):
            perturb_cross(main, pert, GRID)


class TestPerturbDouble:
    def test_identities(self):
        rng = np.random.default_rng(30)
        for _ in range(5):
            main, pb, pc, pbc = double_instance(rng, GRID)
            rep = perturb_double(main, pb, pc, pbc, GRID)
            assert rep.theorem == "bcross"
            assert rep.deviation_time <= 1e-9
            assert rep.deviation_transfer <= 1e-10

    def test_closed_loop_matrices(self):
        # (A^I, DB, DC, 0)
        rng = np.random.default_rng(33)
        main, pb, pc, pbc = double_instance(rng, GRID)
        rep = perturb_double(main, pb, pc, pbc, GRID)
        s = _loop_inverse(main)
        _assert_closed_loop(rep.closed_loop, main.A + main.B @ s @ main.C, pb.B, pc.C,
                            np.zeros((pc.p, pb.m)))

    def test_closed_loop_has_zero_feedthrough(self):
        rng = np.random.default_rng(31)
        main, pb, pc, pbc = double_instance(rng, GRID)
        rep = perturb_double(main, pb, pc, pbc, GRID)
        np.testing.assert_array_equal(rep.closed_loop.D, 0.0)

    def test_nonzero_companion_feedthrough_refused(self):
        rng = np.random.default_rng(32)
        main, pb, pc, pbc = double_instance(rng, GRID)
        bad = Realization(pb.A, pb.B, pb.C, np.full((pb.p, pb.m), 0.1))
        with pytest.raises(ShapeError):
            perturb_double(main, bad, pc, pbc, GRID)


_THEOREMS = {
    "across": (across_instance, perturb_across),
    "cross": (cross_instance, perturb_cross),
    "double": (double_instance, perturb_double),
}


class TestCompositionSkeleton:
    """The three theorems share one skeleton: the stacked channels are
    discretized once, every grid map is read off that one step, and the
    transfer side is two `node.transfer` calls per sampled frequency."""

    @pytest.mark.parametrize("theorem", sorted(_THEOREMS))
    def test_one_step_no_grid_maps_eight_transfers(self, monkeypatch, theorem):
        instance, compose = _THEOREMS[theorem]
        systems = instance(np.random.default_rng(40), GRID)
        # the module assembles no QuadrupleMaps: it does not even bind the name
        assert not hasattr(regsys.feedback, "quadruple_maps")
        calls = {"lifted_quadruple": 0, "transfer": 0}

        def counting(name):
            real = getattr(regsys.feedback, name)

            def wrapped(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapped

        for name in calls:
            monkeypatch.setattr(regsys.feedback, name, counting(name))
        rep = compose(*systems, GRID)
        assert calls["lifted_quadruple"] == 1
        assert calls["transfer"] == 2 * len(rep.lambda_samples) == 8

    @given(seed=st.integers(0, 2**32 - 1), N=st.integers(2, 64),
           theorem=st.sampled_from(sorted(_THEOREMS)))
    def test_stacked_blocks_match_separate_maps(self, seed, N, theorem):
        # F, F12, F21, F22 read off the stack's one step are the grid maps
        # that main and each companion give on their own; the io-maps come
        # as Markov blocks, whose block Toeplitz matrix is compared
        g = TimeGrid(1.5, N)
        instance, _ = _THEOREMS[theorem]
        systems = instance(np.random.default_rng(seed), g)
        main, qm = systems[0], [quadruple_maps(r, g) for r in systems]
        if theorem == "double":
            stack = regsys.feedback._channels(main, b=systems[1], c=systems[2], bc=systems[3])
            expect = tuple(q.io_map for q in qm)
        else:
            stack = regsys.feedback._companion_stack(theorem, *systems)
            expect = ((qm[0].io_map, qm[1].io_map, qm[0].input_map, qm[1].input_map)
                      if theorem == "across" else
                      (qm[0].io_map, qm[0].output_map, qm[1].io_map, qm[1].output_map))
        step = lifted_quadruple(stack, g.dt)
        blocks = regsys.feedback._open_blocks(theorem, step, main.m, N)
        io = {"across": [0, 1], "cross": [0, 2], "double": [0, 1, 2, 3]}[theorem]
        assert [j for j, b in enumerate(blocks) if b.ndim == 3] == io
        for got, ref in zip(blocks, expect):
            if got.ndim == 3:
                got = _block_toeplitz(got)
            assert got.shape == ref.shape
            assert _rel_dev(got, ref) <= 1e-12

    @pytest.mark.parametrize("theorem", sorted(_THEOREMS))
    def test_transfer_side_catches_a_wrong_stack(self, monkeypatch, theorem):
        # both discrete sides read the one stacked step, so a companion
        # channel mis-stacked by 1e-6 relative leaves the time identity at
        # rounding; the transfer side, built on the published closed loop,
        # shows it
        instance, compose = _THEOREMS[theorem]
        systems = instance(np.random.default_rng(42), GRID)
        m = systems[0].m
        real = regsys.feedback._compose

        def skewed(theorem, main, stack, g, close):
            B, C = stack.B.copy(), stack.C.copy()
            if theorem == "cross":
                C[m:] *= 1.0 + 1e-6
            else:
                B[:, m:] *= 1.0 + 1e-6
            return real(theorem, main, Realization(stack.A, B, C, stack.D), g, close)

        monkeypatch.setattr(regsys.feedback, "_compose", skewed)
        rep = compose(*systems, GRID)
        assert rep.deviation_time <= 1e-12
        assert rep.deviation_transfer > 1e-8

    def test_no_hand_rolled_resolvent_solve(self):
        # every transfer value in feedback.py comes from node.transfer and
        # its singularity gate: no solve of a matrix built from lam
        tree = ast.parse(Path(regsys.feedback.__file__).read_text())
        offenders = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            if ast.unparse(node.func).split(".")[-1] not in ("solve", "lu_factor", "inv"):
                continue
            if any(isinstance(sub, ast.Name) and sub.id == "lam" for sub in ast.walk(node.args[0])):
                offenders.append(f"{node.lineno}: {ast.unparse(node)}")
        assert offenders == []

    @pytest.mark.parametrize("theorem", sorted(_THEOREMS))
    def test_transfer_side_catches_a_wrong_closed_loop(self, monkeypatch, theorem):
        # the closed probe is built from the published closed loop, so an A
        # off by 1e-6 relative shows far above rounding
        instance, compose = _THEOREMS[theorem]
        systems = instance(np.random.default_rng(41), GRID)
        good = compose(*systems, GRID).deviation_transfer
        real = regsys.feedback._compose

        def skewed(theorem, main, stack, g, close):
            def off(a, s):
                cl = close(a, s)
                return Realization(cl.A * (1.0 + 1e-6), cl.B, cl.C, cl.D)

            return real(theorem, main, stack, g, off)

        monkeypatch.setattr(regsys.feedback, "_compose", skewed)
        assert good <= 1e-10 < 1e-8 < compose(*systems, GRID).deviation_transfer


class TestToeplitzRightSide:
    """For an io-map F12, X = (I - F)^-1 F12 is block lower-triangular
    Toeplitz, so the right side solves only its first block column, which
    fixes the rest."""

    @given(seed=st.integers(0, 2**32 - 1), N=st.integers(2, 64), m=st.integers(1, 3),
           q=st.integers(1, 3))
    def test_gathered_solution_matches_the_dense_solve(self, seed, N, m, q):
        rng = np.random.default_rng(seed)
        g = TimeGrid(1.5, N)
        main = random_realization(rng, 3, m, m, grid=g)
        pert = Realization(main.A, rng.standard_normal((3, q)), main.C,
                           0.1 * rng.standard_normal((m, q)))
        loop = np.eye(N * m) - quadruple_maps(main, g).io_map
        f12 = quadruple_maps(pert, g).io_map
        col = np.linalg.solve(loop, f12[:, :q])
        x = _block_toeplitz(col.reshape(N, m, q))
        assert _rel_dev(x, np.linalg.solve(loop, f12)) <= 1e-12
        ref = np.zeros((N * m, N * q))
        for i in range(N):
            for k in range(i + 1):
                ref[i * m : (i + 1) * m, k * q : (k + 1) * q] = col[(i - k) * m : (i - k + 1) * m]
        assert np.array_equal(x, ref)
