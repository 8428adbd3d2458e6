import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

import regsys.boundary
from regsys import (
    AdmissibilityError,
    BoundaryTriple,
    ShapeError,
    SpectrumError,
    close_boundary_loop,
    control_operator_from_triple,
    default_shift_sweep,
    dirichlet_map,
    feed_in_full,
    feed_in_observe,
    feedthrough_estimate,
    beam_model,
    laplacian_triple,
    restrict_generator,
    wave_triple,
)
from regsys.cli import run


def selector_triple(n=5):
    """Dense random interior dynamics with the last coordinate as the
    boundary channel; the restriction must be the leading block exactly."""
    rng = np.random.default_rng(42)
    L = rng.standard_normal((n, n))
    G = np.zeros((1, n))
    G[0, -1] = 1.0
    K = rng.standard_normal((1, n))
    return BoundaryTriple(L=L, G=G, K=K)


def extended_lift(bt, lam, channel="primary"):
    """Independent oracle for the Dirichlet lift: solve the extended system
    [(lam - L) interior rows; traces] z = [0; indicator] directly, rows
    equilibrated to unit max-norm, with fixed-precision refinement."""
    n = bt.n_interior
    b1 = bt.G.shape[0]
    lo, hi = (0, b1) if channel == "primary" else (b1, bt.traces().shape[0])
    ext = np.vstack([(lam * np.eye(bt.dim) - bt.L)[:n, :], bt.traces()])
    scale = np.max(np.abs(ext), axis=1)
    scale[scale == 0] = 1.0
    ext /= scale[:, None]
    rhs = np.zeros((bt.dim, hi - lo))
    rhs[n + lo : n + hi, :] = np.eye(hi - lo)
    rhs /= scale[:, None]
    lu = scipy.linalg.lu_factor(ext)
    d = scipy.linalg.lu_solve(lu, rhs)
    for _ in range(3):
        d = d + scipy.linalg.lu_solve(lu, rhs - ext @ d)
    return d


@st.composite
def random_triples(draw):
    """Dense random L, random interior trace block, and a boundary block
    T_b = Q diag(s) with Q orthogonal and s in [0.5, 2]; one or two
    single-row channels."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 8))
    b = draw(st.integers(1, 2))
    dim = n + b
    q, _ = np.linalg.qr(rng.standard_normal((b, b)))
    traces = np.hstack([rng.standard_normal((b, n)), q * rng.uniform(0.5, 2.0, b)])
    bt = BoundaryTriple(L=rng.standard_normal((dim, dim)), G=traces[:1], K=rng.standard_normal((1, dim)),
                       G2=traces[1:] if b == 2 else None)
    return bt, draw(st.floats(0.5, 20.0))


class TestBoundaryTriple:
    def test_dimensions(self):
        bt = selector_triple(5)
        assert bt.dim == 5
        assert bt.n_interior == 4

    def test_rank_deficient_traces_refused(self):
        L = np.eye(4)
        G = np.zeros((2, 4))
        G[0, -1] = 1.0
        G[1, -1] = 1.0  # duplicate row
        with pytest.raises(ShapeError):
            BoundaryTriple(L=L, G=G, K=np.zeros((1, 4)))

    def test_no_interior_left_refused(self):
        with pytest.raises(ShapeError):
            BoundaryTriple(L=np.eye(2), G=np.eye(2), K=np.zeros((1, 2)))

    def test_json_round_trip_with_optional_blocks(self, tmp_path):
        bt = wave_triple(6)
        path = tmp_path / "triple.json"
        bt.save_json(path)
        back = BoundaryTriple.load_json(path)
        np.testing.assert_array_equal(back.L, bt.L)
        np.testing.assert_array_equal(back.G2, bt.G2)
        np.testing.assert_array_equal(back.W, bt.W)

    def test_json_round_trip_without_optional_blocks(self):
        bt = selector_triple()
        back = BoundaryTriple.from_json_dict(bt.to_json_dict())
        assert back.G2 is None and back.W is None
        np.testing.assert_array_equal(back.K, bt.K)


    @pytest.mark.filterwarnings("error::scipy.linalg.LinAlgWarning")
    def test_singular_boundary_block_refused(self):
        # full-rank traces that read only interior coordinates leave T_b = 0:
        # the construction accepts them, the chart refuses
        rng = np.random.default_rng(3)
        L = rng.standard_normal((4, 4))
        G = np.array([[1.0, 0.5, 0.0, 0.0]])
        bt = BoundaryTriple(L=L, G=G, K=np.ones((1, 4)))
        for call in (lambda: restrict_generator(bt), lambda: dirichlet_map(bt, 1.0),
                     lambda: control_operator_from_triple(bt, 1.0), lambda: default_shift_sweep(bt)):
            with pytest.raises(AdmissibilityError):
                call()

    def test_closing_a_loop_keeps_the_two_refusals(self):
        # G - W = -(first coordinate): full rank, singular boundary block;
        # G - G = 0: rank deficient
        bt = laplacian_triple(8)
        w = bt.G.copy()
        w[0, 0] = 1.0
        looped = BoundaryTriple(L=bt.L, G=bt.G, K=bt.K, W=w)
        with pytest.raises(AdmissibilityError):
            close_boundary_loop(looped, 1.0, observation="W")
        with pytest.raises(ShapeError):
            close_boundary_loop(BoundaryTriple(L=bt.L, G=bt.G, K=bt.G), 1.0, observation="K")

    def test_matrix_refusals(self):
        with pytest.raises(ShapeError):
            BoundaryTriple(L=np.eye(3), G=np.array([[0.0, 0.0, np.nan]]), K=np.ones((1, 3)))
        with pytest.raises(ShapeError):
            BoundaryTriple(L=np.eye(3), G=np.ones((1, 2)), K=np.ones((1, 3)))
        with pytest.raises(ShapeError):
            BoundaryTriple(L=np.eye(3), G=np.ones((1, 1, 3)), K=np.ones((1, 3)))


class TestRestriction:
    def test_selector_restriction_is_leading_block(self):
        bt = selector_triple(6)
        rg = restrict_generator(bt)
        np.testing.assert_allclose(rg.a, bt.L[:5, :5], atol=1e-12)
        # basis charts the kernel with an identity interior block
        np.testing.assert_allclose(rg.basis[:5, :], np.eye(5), atol=1e-12)
        np.testing.assert_allclose(rg.basis[5, :], 0.0, atol=1e-12)

    def test_laplacian_spectrum(self):
        # clamped-clamped second difference: the dispersion relation
        # -4 n^2 sin^2(j pi / 2n) is exact, and the continuum -(j pi)^2
        # is approached at order dx^2
        n = 60
        bt = laplacian_triple(n)
        rg = restrict_generator(bt)
        ev = np.sort(np.linalg.eigvals(rg.a).real)[::-1]
        for j in (1, 2, 3):
            exact = -4.0 * n * n * np.sin(j * np.pi / (2 * n)) ** 2
            assert ev[j - 1] == pytest.approx(exact, rel=1e-9)
            assert ev[j - 1] == pytest.approx(-((j * np.pi) ** 2), rel=3e-3 * j * j)


class TestDirichletMap:
    def test_sinh_profile_oracle(self):
        # z'' = lam z, z(0) = 0, z(1) = 1 has z = sinh(sqrt(lam) x)/sinh(sqrt(lam));
        # the second-difference lift converges at order dx^2
        lam = 4.0
        errors = []
        for n in (50, 100):
            bt = laplacian_triple(n)
            d = dirichlet_map(bt, lam).matrix[:, 0]
            x = np.arange(1, n + 1) / n
            exact = np.sinh(np.sqrt(lam) * x) / np.sinh(np.sqrt(lam))
            errors.append(np.max(np.abs(d - exact)))
        assert errors[1] < 1e-4
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.15)

    def test_defining_relations(self):
        bt = wave_triple(8)
        d = dirichlet_map(bt, 3.0, "secondary")
        traces = bt.traces()
        np.testing.assert_allclose(traces[1:2, :] @ d.matrix, np.eye(1), atol=1e-10)
        np.testing.assert_allclose(traces[0:1, :] @ d.matrix, 0.0, atol=1e-10)

    def test_decomposition_splits_any_vector(self):
        # z - D_lam G z always lies in ker G since G D = I
        bt = laplacian_triple(30)
        d = dirichlet_map(bt, 2.0).matrix
        rng = np.random.default_rng(0)
        z = rng.standard_normal(bt.dim)
        z0 = z - d[:, 0] * (bt.G @ z).item()
        assert abs((bt.G @ z0).item()) < 1e-12 * max(np.max(np.abs(z)), 1.0)

    def test_eigenvalue_shift_refused(self):
        bt = laplacian_triple(20)
        rg = restrict_generator(bt)
        lam1 = float(np.sort(np.linalg.eigvals(rg.a).real)[-1])
        with pytest.raises(SpectrumError):
            dirichlet_map(bt, lam1)

    def test_channel_validation(self):
        bt = laplacian_triple(10)
        with pytest.raises(ShapeError):
            dirichlet_map(bt, 1.0, "secondary")
        with pytest.raises(ValueError):
            dirichlet_map(bt, 1.0, "tertiary")


    @given(case=random_triples())
    def test_closed_form_matches_extended_solve(self, case):
        bt, offset = case
        rg = restrict_generator(bt)
        lam = float(np.linalg.norm(rg.a, np.inf)) + offset
        n = bt.n_interior
        channels = ["primary"] + (["secondary"] if bt.G2 is not None else [])
        for i, channel in enumerate(channels):
            d = dirichlet_map(bt, lam, channel).matrix
            ref = extended_lift(bt, lam, channel)
            assert np.max(np.abs(d - ref)) <= 1e-10 * max(np.max(np.abs(ref)), 1.0)
            indicator = np.zeros((len(channels), 1))
            indicator[i, 0] = 1.0
            np.testing.assert_allclose(bt.traces() @ d, indicator, atol=1e-12)
            b = control_operator_from_triple(bt, lam, channel)
            resid = (lam * np.eye(n) - rg.a) @ d[:n, :] - b
            assert np.max(np.abs(resid)) <= 1e-10 * max(np.max(np.abs(b)), 1.0)


class TestControlOperator:
    def test_shift_independence(self):
        bt = laplacian_triple(40)
        b3 = control_operator_from_triple(bt, 3.0)
        b12 = control_operator_from_triple(bt, 12.0)
        assert np.max(np.abs(b3 - b12)) <= 1e-8 * max(np.max(np.abs(b3)), 1.0)

    def test_laplacian_control_column(self):
        # only the last interior row couples to the boundary node: B is
        # the single stencil entry 1/dx^2 in the last position
        n = 20
        bt = laplacian_triple(n)
        b = control_operator_from_triple(bt, 2.0)
        expect = np.zeros((n - 1, 1))
        expect[-1, 0] = float(n * n)
        np.testing.assert_allclose(b, expect, rtol=1e-7, atol=1e-5)


    def test_beam_control_matrix_at_n400(self):
        # the shift route refused here (its two-shift check varied by
        # 1.9e-5); the chart reads B off exactly
        model = beam_model(400, "shear-input")
        _, b_ref = model.first_order_matrices()
        b = control_operator_from_triple(model.boundary_triple(), 3.0)
        np.testing.assert_array_equal(b, b_ref)


class TestFeedthrough:
    def test_laplacian_feedthrough_vanishes(self):
        # K D_lam = sinh(sqrt(lam) dx)/sinh(sqrt(lam)) -> 0
        bt = laplacian_triple(30)
        est = feedthrough_estimate(bt)
        assert est.converged
        assert abs(est.value[0, 0]) < 1e-3
        assert est.residuals[-1] < est.residuals[0]

    def test_wave_feedthroughs_are_the_gains(self):
        bt = wave_triple(16, k_gains=(0.4, 0.3), w_gains=(0.2, 0.5))
        sweep = default_shift_sweep(bt, 18)
        cases = [
            ("primary", "K", 0.4), ("secondary", "K", 0.3),
            ("primary", "W", 0.2), ("secondary", "W", 0.5),
        ]
        for channel, obs, expect in cases:
            est = feedthrough_estimate(bt, sweep, channel, obs)
            assert est.converged, f"{channel}/{obs} did not converge"
            assert est.value[0, 0] == pytest.approx(expect, abs=1e-8)

    def test_beam_velocity_feedthrough_vanishes_at_n400(self):
        # the exact tip-velocity feedthrough W p is 0
        bt = beam_model(400, "shear-input").boundary_triple()
        est = feedthrough_estimate(bt, default_shift_sweep(bt, 20), "primary", "W")
        assert est.converged
        assert abs(est.value[0, 0]) < 1e-4
        assert est.residuals[-1] < 1e-4

    def test_plateau_on_the_slow_tail_is_refused(self):
        # anchored at 10, the sweep never leaves the spectrum of the N=300
        # beam (radius ~3.6e5): the samples plateau near -1.15e-4, and the
        # last sample alone used to be certified as the limit
        bt = beam_model(300, "shear-input").boundary_triple()
        est = feedthrough_estimate(bt, 10.0 * 2.0 ** np.arange(20), "primary", "W")
        assert not est.converged
        assert est.value is None

    def test_short_sweep_withholds_value(self):
        # the tail rule needs at least three residuals
        bt = wave_triple(8)
        est = feedthrough_estimate(bt, np.array([10.0, 20.0]))
        assert not est.converged
        assert est.value is None

    def test_sweep_validation(self):
        bt = wave_triple(8)
        with pytest.raises(ValueError):
            feedthrough_estimate(bt, np.array([20.0, 10.0]))
        with pytest.raises(ValueError):
            feedthrough_estimate(bt, observation="Q")

    def test_missing_w_refused(self):
        bt = laplacian_triple(10)
        with pytest.raises(ShapeError):
            feedthrough_estimate(bt, observation="W")

    def test_json_dict(self):
        bt = wave_triple(8)
        doc = feedthrough_estimate(bt).to_json_dict()
        assert doc["converged"] is True
        assert len(doc["lambdas"]) == len(doc["residuals"])


class TestFeedIn:
    def test_full_composite_on_wave(self):
        bt = wave_triple(16, k_gains=(0.4, 0.3), w_gains=(0.2, 0.5))
        rep = feed_in_full(bt, lambda_sweep=default_shift_sweep(bt, 18))
        assert rep.deviation_b <= 1e-6
        assert rep.deviation_c <= 1e-6
        assert rep.deviation_d <= 1e-6
        # composite feedthrough: w1 (1 - k1)^-1 k2 + w2 = 0.2/0.6*0.3 + 0.5
        assert rep.realization_matrices["d"][0, 0] == pytest.approx(0.6, abs=1e-6)
        doc = rep.to_json_dict()
        assert doc["deviations"]["b"] == rep.deviation_b
        assert "composite" in rep.residual_traces

    def test_beam_kind_at_n300_with_default_tolerances(self):
        report = run({"kind": "boundary-feedin", "N": 300, "seed": 0})
        failed = [a["name"] for a in report["assertions"] if not a["passed"]]
        assert report["passed"], failed

    def test_control_composite_on_wave(self):
        # the B half of the full composite: B1 (I - Kbar1)^-1 Kbar2 + B2
        # against the control matrix of the closed-loop triple
        bt = wave_triple(12)
        rep = feed_in_full(bt, lambda_sweep=default_shift_sweep(bt, 18))
        assert rep.deviation_b <= 1e-6
        np.testing.assert_allclose(rep.realization_matrices["b"],
                                   rep.realization_matrices["b_direct"], rtol=1e-6, atol=1e-6)

    def test_observe_composite_on_wave(self):
        bt = wave_triple(12)
        rep = feed_in_observe(bt, lambda_sweep=default_shift_sweep(bt, 18))
        assert rep.deviation_c <= 1e-6
        assert rep.feedthroughs["q_bar"][0, 0] == pytest.approx(0.2, abs=1e-7)

    def test_feed_in_full_needs_secondary_trace(self):
        with pytest.raises(ShapeError):
            feed_in_full(laplacian_triple(10))

    def test_feed_in_observe_needs_w(self):
        with pytest.raises(ShapeError):
            feed_in_observe(laplacian_triple(10))

    def test_nonconvergent_sweep_refused(self):
        bt = wave_triple(8)
        with pytest.raises(AdmissibilityError):
            feed_in_full(bt, lambda_sweep=np.array([10.0, 20.0]))


    def test_chart_once_one_transfer_per_shift(self, monkeypatch):
        # one chart per triple however many shifts; no eigvals anywhere and
        # no SVD beyond the trace-sized gates
        builds, svd_shapes, eig_calls, transfers = [], [], [], []

        def counting(fn, log, record):
            def wrapped(*args, **kwargs):
                log.append(record(*args))
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(regsys.boundary, "_build_chart",
                            counting(regsys.boundary._build_chart, builds, lambda bt: bt))
        monkeypatch.setattr(regsys.boundary, "transfer",
                            counting(regsys.boundary.transfer, transfers, lambda r, lam: lam))
        for mod in (np.linalg, np.linalg._linalg):
            monkeypatch.setattr(mod, "svd", counting(np.linalg.svd, svd_shapes,
                                                     lambda a, *rest: np.shape(a)))
            monkeypatch.setattr(mod, "eigvals", counting(np.linalg.eigvals, eig_calls,
                                                         lambda a, *rest: np.shape(a)))
        per_run = []
        for nodes in (11, 18):
            bt = wave_triple(16)
            svd_before = len(svd_shapes)
            rep = feed_in_full(bt, lambda_sweep=default_shift_sweep(bt, nodes))
            assert rep.deviation_d <= 1e-6
            per_run.append(len(svd_shapes) - svd_before)
            # the triple and its closed loop: one chart each
            assert len(builds) == 2 and builds[0] is bt
            builds.clear()
            # one transfer per shift for the triple's four (channel,
            # observation) pairs together, one for the closed loop's sweep
            assert len(transfers) == 2 * nodes
            transfers.clear()
        assert eig_calls == []
        assert per_run[0] == per_run[1]
        assert max(min(shape) for shape in svd_shapes) <= 2


class TestClosedLoopRestriction:
    def test_laplacian_robin_closure_oracle(self):
        # loop z_n = k z_1: the last interior row picks up k/dx^2 on the
        # first interior coordinate, nothing else moves
        n, k = 12, 0.7
        bt = laplacian_triple(n)
        rg = close_boundary_loop(bt, gain=k, observation="K")
        expect = bt.L[: n - 1, : n - 1].copy()
        expect[-1, 0] += k * n * n
        np.testing.assert_allclose(rg.a, expect, rtol=1e-10, atol=1e-8)

    def test_zero_gain_is_open_loop(self):
        bt = laplacian_triple(15)
        rg0 = close_boundary_loop(bt, gain=0.0)
        rg = restrict_generator(bt)
        np.testing.assert_allclose(rg0.a, rg.a, atol=1e-12)

    def test_secondary_trace_refused(self):
        with pytest.raises(ShapeError):
            close_boundary_loop(wave_triple(8))

    def test_gain_shape_checked(self):
        bt = laplacian_triple(10)
        with pytest.raises(ShapeError):
            close_boundary_loop(bt, gain=np.ones((2, 2)))
