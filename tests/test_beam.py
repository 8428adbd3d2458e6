import importlib
import importlib.util
import math
import tracemalloc
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import regsys.beam
import regsys.cli
from regsys import (
    BeamModel,
    BeamState,
    BoundaryTriple,
    Realization,
    RegsysError,
    ShapeError,
    Signal,
    TimeGrid,
    beam_discretize,
    beam_model,
    beam_transfer_H,
    beam_transfer_H1,
    close_boundary_loop,
    energy,
    io_map,
    multiplier_rho,
    multiplier_rho1,
    random_smooth_state,
    rho1_derivative_check,
    rho_derivative_check,
    simulate,
    transfer,
    transfer_bound_products,
    verify_admissibility_bound,
    verify_observability,
    verify_wellposedness_bound,
    wellposedness_constant,
)

# first clamped-free eigenvalue: omega_1 = beta_1^2 with cos(beta) cosh(beta) = -1
OMEGA_1 = 1.8751040687119611664 ** 2


def bvp_transfer_oracle(s, dps=40):
    """Solve w'''' = -s^2 w, w(0) = w'(0) = 0, w''(1) = 0, w'''(1) = 1 in
    high precision on the basis exp(mu x), mu^4 = -s^2. Returns
    (w'(1), w''(0)), the two transfer values."""
    with mp.workdps(dps):
        t = mp.sqrt(mp.mpf(s) / 2)
        mus = [t * mp.mpc(1, 1), t * mp.mpc(1, -1), t * mp.mpc(-1, 1), t * mp.mpc(-1, -1)]
        rows = [
            [mp.mpc(1) for _ in mus],                      # w(0) = 0
            [mu for mu in mus],                            # w'(0) = 0
            [mu**2 * mp.exp(mu) for mu in mus],            # w''(1) = 0
            [mu**3 * mp.exp(mu) for mu in mus],            # w'''(1) = 1
        ]
        rhs = mp.matrix([0, 0, 0, 1])
        coef = mp.lu_solve(mp.matrix(rows), rhs)
        slope_tip = sum(c * mu * mp.exp(mu) for c, mu in zip(coef, mus))
        curv_root = sum(c * mu**2 for c, mu in zip(coef, mus))
        return float(mp.re(slope_tip)), float(mp.re(curv_root))


class TestModelAssembly:
    def test_dimensions_and_spacing(self):
        model = beam_model(10)
        assert model.n_dof == 11
        assert model.dx == pytest.approx(1.0 / 11.0)
        assert model.nodes().shape == (12,)
        assert model.nodes()[-1] == pytest.approx(1.0)

    def test_stiffness_spd(self):
        model = beam_model(12)
        s = model.stiffness
        np.testing.assert_allclose(s, s.T, atol=1e-9)
        ev = np.linalg.eigvalsh(s)
        assert ev[0] > 0

    def test_too_coarse_refused(self):
        with pytest.raises(ShapeError):
            beam_model(7)

    def test_bad_mode_refused(self):
        with pytest.raises(ValueError):
            beam_model(10, "clamped-clamped")

    def test_negative_feedback_gain_refused(self):
        with pytest.raises(ValueError):
            beam_model(10, "shear-feedback", k=-1.0)

    def test_discretize_dispatch(self):
        assert isinstance(beam_discretize(10, "shear-input"), BoundaryTriple)
        assert isinstance(beam_discretize(10, "homogeneous"), Realization)
        assert isinstance(beam_discretize(10, "shear-feedback", 0.5), Realization)

    def test_first_order_block_structure(self):
        model = beam_model(10)
        a, b = model.first_order_matrices()
        nd = model.n_dof
        np.testing.assert_array_equal(a[:nd, nd:], np.eye(nd))
        np.testing.assert_array_equal(a[:nd, :nd], 0.0)
        # shear force enters only the tip velocity equation
        assert b[2 * nd - 1, 0] == pytest.approx(-1.0 / model.masses[-1])
        assert np.count_nonzero(b) == 1


class TestSpectrum:
    def test_homogeneous_spectrum_is_imaginary(self):
        r = beam_model(40).realization()
        ev = np.linalg.eigvals(r.A)
        assert np.max(np.abs(ev.real)) < 1e-6

    def test_frequencies_match_modal_basis(self):
        model = beam_model(40)
        omega, V = model.modal_basis()
        ev = np.linalg.eigvals(model.realization().A)
        ev_omega = np.sort(np.abs(ev.imag))[::2]  # conjugate pairs
        np.testing.assert_allclose(np.sort(omega), np.sort(ev_omega), rtol=1e-6)

    def test_modal_basis_is_mass_orthonormal(self):
        model = beam_model(30)
        omega, V = model.modal_basis()
        gram = V.T @ (model.masses[:, None] * V)
        np.testing.assert_allclose(gram, np.eye(model.n_dof), atol=1e-8)
        assert np.all(np.diff(omega) > 0)

    def test_first_frequency_second_order_convergence(self):
        errors = []
        for N in (20, 40, 80):
            omega, _ = beam_model(N).modal_basis()
            errors.append(abs(omega[0] - OMEGA_1))
        assert errors[2] < 6e-4
        assert errors[0] / errors[1] == pytest.approx(4.0, abs=0.7)
        assert errors[1] / errors[2] == pytest.approx(4.0, abs=0.7)

    def test_feedback_spectrum_strictly_damped(self):
        r = beam_model(40, "shear-feedback", k=0.5).realization()
        assert r.spectral_abscissa() < -1e-5


class TestEnergy:
    def test_single_mode_energy_is_half_omega_eta_squared(self):
        model = beam_model(30)
        omega, V = model.modal_basis()
        state = BeamState(V[:, 2] * 0.1, np.zeros(model.n_dof))
        assert energy(model, state) == pytest.approx(0.5 * (0.1 * omega[2]) ** 2, rel=1e-9)

    def test_random_smooth_state_hits_energy_level(self):
        model = beam_model(50)
        rng = np.random.default_rng(0)
        for level in (1.0, 0.25):
            st0 = random_smooth_state(model, rng, energy_level=level)
            assert energy(model, st0) == pytest.approx(level, rel=1e-9)

    def test_homogeneous_energy_conserved(self):
        model = beam_model(100)
        rng = np.random.default_rng(1)
        traj = simulate(model, TimeGrid(2.0, 1000), state0=random_smooth_state(model, rng))
        drift = np.max(np.abs(traj.trace.F - traj.trace.F[0])) / traj.trace.F[0]
        assert drift <= 1e-8

    def test_feedback_energy_monotone(self):
        model = beam_model(60, "shear-feedback", k=0.5)
        rng = np.random.default_rng(2)
        st0 = random_smooth_state(beam_model(60), rng)
        traj = simulate(model, TimeGrid(2.0, 400), state0=BeamState(st0.w, st0.v))
        f = traj.trace.F
        assert np.all(np.diff(f) <= 1e-12 * f[0])
        assert f[-1] < f[0]

    def test_forced_energy_balance(self):
        # d/dt F = -u w_t(1): check the time integral against the energy
        # gained from rest
        model = beam_model(60, "shear-input")
        g = TimeGrid(1.0, 2000)
        u = Signal(g, np.sin(2.0 * np.pi * g.nodes)[:, None])
        traj = simulate(model, g, u=u)
        work = -np.trapezoid(u.values[:, 0] * traj.v[:, -1], dx=g.dt)
        assert traj.trace.F[-1] == pytest.approx(work, rel=5e-3)


class TestTransferFunctions:
    def test_pinned_value(self):
        assert beam_transfer_H(2.0) == pytest.approx(-0.3907879109714049, abs=1e-12)

    def test_static_limits(self):
        assert beam_transfer_H(1e-8) == pytest.approx(-0.5, abs=1e-6)
        assert beam_transfer_H1(1e-8) == pytest.approx(-1.0, abs=1e-6)

    @pytest.mark.parametrize("s", [0.5, 2.0, 10.0, 57.3])
    def test_matches_high_precision_bvp(self, s):
        h_ref, h1_ref = bvp_transfer_oracle(s)
        assert beam_transfer_H(s) == pytest.approx(h_ref, rel=1e-10)
        assert beam_transfer_H1(s) == pytest.approx(h1_ref, rel=1e-10)

    def test_nonpositive_s_refused(self):
        for fn in (beam_transfer_H, beam_transfer_H1, transfer_bound_products):
            with pytest.raises(ValueError):
                fn(0.0)
            with pytest.raises(ValueError):
                fn(-1.0)

    def test_large_s_stable(self):
        # exponent-factored evaluation: no overflow, correct 1/s tail
        assert beam_transfer_H(1e6) == pytest.approx(-1e-6, rel=1e-3)
        assert abs(beam_transfer_H1(1e12)) < 1e-200
        h_scaled, h1_scaled = transfer_bound_products(1e12)
        assert np.isfinite(h_scaled) and np.isfinite(h1_scaled)

    def test_bound_products_consistent_with_direct(self):
        for s in (0.3, 1.0, 7.0, 40.0):
            h_scaled, h1_scaled = transfer_bound_products(s)
            t = math.sqrt(s / 2.0)
            assert h_scaled == pytest.approx(abs(beam_transfer_H(s)) * s, rel=1e-12)
            assert h1_scaled == pytest.approx(abs(beam_transfer_H1(s)) * t * math.cosh(t), rel=1e-12)

    @given(s=st.floats(min_value=1e-6, max_value=1e9))
    @settings(max_examples=60)
    def test_scaled_bounds_hold_everywhere(self, s):
        h_scaled, h1_scaled = transfer_bound_products(s)
        assert h_scaled <= 2.0 + 1e-12
        assert h1_scaled <= 2.0 + 1e-12

    def test_discrete_transfer_converges_to_closed_form(self):
        r = beam_model(400, "shear-input").realization()
        for s in (1.0, 2.0, 5.0, 10.0):
            g = transfer(r, s)
            assert g[0, 0].real == pytest.approx(beam_transfer_H(s), rel=1e-3)
            assert g[1, 0].real == pytest.approx(beam_transfer_H1(s), rel=1e-3)


class TestSimulation:
    def test_single_mode_is_exact_rotation(self):
        model = beam_model(40)
        omega, V = model.modal_basis()
        g = TimeGrid(1.0, 200)
        traj = simulate(model, g, state0=BeamState(V[:, 3], np.zeros(model.n_dof)))
        expect = np.outer(np.cos(omega[3] * g.nodes), V[:, 3])
        assert np.max(np.abs(traj.w - expect)) < 1e-9

    def test_modal_and_matrix_exponential_paths_agree(self):
        # zero-gain feedback runs through expm; homogeneous through the
        # modal rotation: same ODE, independent integrators
        N = 40
        rng = np.random.default_rng(3)
        st0 = random_smooth_state(beam_model(N), rng)
        g = TimeGrid(1.0, 100)
        traj_modal = simulate(beam_model(N), g, state0=st0)
        traj_expm = simulate(beam_model(N, "shear-feedback", k=0.0), g,
                             state0=BeamState(st0.w, st0.v))
        assert np.max(np.abs(traj_modal.w - traj_expm.w)) < 1e-7
        assert np.max(np.abs(traj_modal.v - traj_expm.v)) < 1e-6

    def test_forcing_requires_input_mode(self):
        model = beam_model(10)
        g = TimeGrid(1.0, 10)
        with pytest.raises(ShapeError):
            simulate(model, g, u=Signal.constant(g, 1.0))

    def test_forcing_grid_and_dim_checked(self):
        model = beam_model(10, "shear-input")
        g = TimeGrid(1.0, 10)
        with pytest.raises(ShapeError):
            simulate(model, g, u=Signal.constant(TimeGrid(1.0, 20), 1.0))
        with pytest.raises(ShapeError):
            simulate(model, g, u=Signal.constant(g, [1.0, 2.0]))

    def test_state_size_checked(self):
        model = beam_model(10)
        with pytest.raises(ShapeError):
            simulate(model, TimeGrid(1.0, 10), state0=BeamState(np.zeros(4), np.zeros(4)))

    def test_state_validation(self):
        with pytest.raises(ShapeError):
            BeamState(np.zeros(3), np.zeros(4))
        with pytest.raises(ShapeError):
            BeamState(np.array([np.inf]), np.array([0.0]))

    def test_forced_response_matches_zoh_realization(self):
        # modal per-step rotation vs the generic lifted-step integrator
        N = 30
        model = beam_model(N, "shear-input")
        g = TimeGrid(0.5, 250)
        rng = np.random.default_rng(4)
        u = Signal(g, rng.standard_normal((len(g), 1)))
        traj = simulate(model, g, u=u)
        r = model.realization()
        from regsys import input_map

        x = input_map(r, g, u).values
        assert np.max(np.abs(traj.w - x[:, : model.n_dof])) < 1e-8
        assert np.max(np.abs(traj.v - x[:, model.n_dof :])) < 1e-7


class TestMultipliers:
    def test_bounded_by_energy(self):
        model = beam_model(50)
        rng = np.random.default_rng(5)
        for _ in range(5):
            st0 = random_smooth_state(model, rng)
            f = energy(model, st0)
            assert abs(multiplier_rho(model, st0)) <= f + 1e-8 * (1 + f)
            assert abs(multiplier_rho1(model, st0)) <= f + 1e-8 * (1 + f)

    def test_derivative_identities_refine_at_second_order(self):
        residuals_rho = []
        residuals_rho1 = []
        for N in (25, 50, 100):
            model = beam_model(N)
            omega, V = model.modal_basis()
            st0 = BeamState(V[:, 0] / omega[0], np.zeros(model.n_dof))
            traj = simulate(model, TimeGrid(0.5, 10 * N), state0=st0)
            residuals_rho.append(rho_derivative_check(traj))
            residuals_rho1.append(rho1_derivative_check(traj))
        for res in (residuals_rho, residuals_rho1):
            assert res[1] / res[0] < 0.6
            assert res[2] / res[1] < 0.6

    def test_trace_csv_round_trip(self, tmp_path):
        model = beam_model(20)
        rng = np.random.default_rng(6)
        traj = simulate(model, TimeGrid(0.5, 50), state0=random_smooth_state(model, rng))
        path = tmp_path / "trace.csv"
        traj.trace.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,F,rho,w_x_1,w_xx_0"
        assert len(lines) == 52
        row = lines[1].split(",")
        assert float(row[1]) == traj.trace.F[0]

    def test_state_at(self):
        model = beam_model(15)
        rng = np.random.default_rng(7)
        traj = simulate(model, TimeGrid(0.5, 10), state0=random_smooth_state(model, rng))
        st5 = traj.state_at(5)
        np.testing.assert_array_equal(st5.w, traj.w[5])
        assert st5.t == pytest.approx(traj.grid.nodes[5])


class TestBoundaryBridge:
    def test_triple_restriction_is_homogeneous_generator(self):
        model = beam_model(24, "shear-input")
        bt = model.boundary_triple()
        from regsys import restrict_generator

        rg = restrict_generator(bt)
        a_ref, _ = model.first_order_matrices()
        assert np.max(np.abs(rg.a - a_ref)) <= 1e-12 * max(np.max(np.abs(a_ref)), 1.0)

    def test_closed_loop_matches_feedback_mode(self):
        N, k = 24, 0.5
        bt = beam_model(N, "shear-input").boundary_triple()
        rg = close_boundary_loop(bt, gain=k, observation="W")
        a_fb, _ = beam_model(N, "shear-feedback", k).first_order_matrices()
        rel = np.max(np.abs(rg.a - a_fb)) / np.max(np.abs(a_fb))
        assert rel <= 1e-12


class TestEstimateSuites:
    def test_wellposedness_constant_worked_example(self):
        assert wellposedness_constant(1.0, 0.1) == pytest.approx(10.1, abs=1e-12)

    def test_wellposedness_constant_range_refused(self):
        with pytest.raises(ValueError):
            wellposedness_constant(1.0, 0.2)  # boundary of (0, 1/5)
        with pytest.raises(ValueError):
            wellposedness_constant(1.0, 0.0)

    def test_admissibility_bound(self):
        rep = verify_admissibility_bound(N=64, T=1.0, trials=4, seed=0, n_steps=500)
        assert rep["passed"] is True
        assert rep["worst_ratio"] < 1.0
        assert rep["bound"] == pytest.approx(5.0)

    def test_wellposedness_bound(self):
        rep = verify_wellposedness_bound(N=64, T=1.0, delta=0.1, input_trials=3,
                                         seed=0, n_steps=500)
        assert rep["passed"] is True
        assert rep["constant"] == pytest.approx(10.1)
        assert rep["worst_ratio"] < 1.0

    def test_observability_bound(self):
        rep = verify_observability(N=64, T=4.0, trials=3, seed=0, n_steps=800)
        assert rep["passed"] is True
        assert rep["worst_ratio"] >= 0.95

    def test_observability_refuses_vacuous_horizon(self):
        with pytest.raises(ValueError):
            verify_observability(N=64, T=2.0, trials=1)


def _simulated_worst_ratio(kind, N, T, trials, seed, n_steps):
    """worst_ratio of a verification driver recomputed by an explicit loop
    over `simulate`, drawing from the generator in the driver's order."""
    g = TimeGrid(T, n_steps)
    rng = np.random.default_rng(seed)
    ratios = []
    if kind == "wellposedness":
        model = beam_model(N, "shear-input")
        factor = (1.0 + 3.0 * T) * wellposedness_constant(T, 0.05)
        for _ in range(trials):
            u = regsys.beam._smooth_input(g, rng)
            traj = simulate(model, g, u=u)
            lhs = np.trapezoid(traj.trace.w_x_1**2, dx=g.dt)
            ratios.append(lhs / (factor * np.trapezoid(u.values[:, 0] ** 2, dx=g.dt)))
        return max(ratios)
    model = beam_model(N, "homogeneous")
    for _ in range(trials):
        traj = simulate(model, g, state0=random_smooth_state(model, rng))
        if kind == "admissibility":
            ratios.append(np.trapezoid(traj.trace.w_x_1**2, dx=g.dt) / ((3.0 * T + 2.0) * traj.trace.F[0]))
        else:
            ratios.append(np.trapezoid(traj.trace.w_xx_0**2, dx=g.dt) / ((T - 2.0) * traj.trace.F[0]))
    return max(ratios) if kind == "admissibility" else min(ratios)


def _modal_closed_loop(omega, phi, k):
    """[[0, Omega], [-Omega, -k phi phi']]: the shear-feedback loop in the
    energy coordinates (Omega eta, eta') of a modal basis."""
    n = len(omega)
    a = np.zeros((2 * n, 2 * n))
    a[:n, n:] = np.diag(omega)
    a[n:, :n] = -np.diag(omega)
    a[n:, n:] = -k * np.outer(phi, phi)
    return a


class TestModalEngine:
    """The verification drivers evaluate only F and the two boundary
    traces; `simulate` is the full nodal oracle they must agree with."""

    @given(N=st.integers(16, 48), trials=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           T=st.floats(0.5, 2.0))
    @settings(max_examples=15)
    def test_drivers_match_loop_over_simulate(self, N, trials, seed, T):
        n_steps = int(round(150 * T))
        cases = [
            ("admissibility", T, verify_admissibility_bound(N, T, trials, seed=seed, n_steps=n_steps)),
            ("wellposedness", T, verify_wellposedness_bound(N, T, 0.05, trials, seed=seed,
                                                            n_steps=n_steps)),
            ("observability", T + 2.0, verify_observability(N, T + 2.0, trials, seed=seed,
                                                            n_steps=int(round(150 * (T + 2.0))))),
        ]
        for kind, horizon, rep in cases:
            expect = _simulated_worst_ratio(kind, N, horizon, trials, seed,
                                            int(round(150 * horizon)))
            assert rep["worst_ratio"] == pytest.approx(expect, rel=1e-12, abs=0.0), kind

    def test_drift_gate_fires_on_driver_path(self, monkeypatch):
        exact = BeamModel.modal_basis

        def perturbed(self):
            omega, V = exact(self)
            noise = np.random.default_rng(0).standard_normal(V.shape)
            return omega, V * (1.0 + 1e-6 * noise)

        monkeypatch.setattr(BeamModel, "modal_basis", perturbed)
        with pytest.raises(RegsysError, match="energy drift"):
            verify_admissibility_bound(N=32, T=1.0, trials=2, n_steps=200)
        with pytest.raises(RegsysError, match="energy drift"):
            verify_observability(N=32, T=3.0, trials=2, n_steps=600)

        # the beam-bounds drift loop, with the bound drivers stubbed out and
        # simulate (the refinement levels that follow) made unreachable
        def unreachable(*args, **kwargs):
            raise AssertionError("the drift loop let a drifting basis through")

        stub = lambda *args, **kwargs: {"worst_ratio": 0.0}  # noqa: E731
        monkeypatch.setattr(regsys.cli, "verify_admissibility_bound", stub)
        monkeypatch.setattr(regsys.cli, "verify_wellposedness_bound", stub)
        monkeypatch.setattr(regsys.cli, "simulate", unreachable)
        with pytest.raises(RegsysError, match="energy drift"):
            regsys.cli.run({"kind": "beam-bounds", "N": 32, "trials": 2})

    @given(N=st.integers(8, 64), T=st.floats(0.5, 4.0), seed=st.integers(0, 2**32 - 1))
    def test_drift_certificate_bounds_simulated_drift(self, N, T, seed):
        # the drift the drivers certify from the initial mode amplitudes is
        # at least the drift of the nodal energy that `simulate` evaluates
        # at every node of the same grid, from the same state
        model = beam_model(N)
        g = TimeGrid(T, int(round(150 * T)))
        _, _, drift = regsys.beam._free_trials(model, g, np.random.default_rng(seed), 1)
        state0 = random_smooth_state(model, np.random.default_rng(seed))
        F = simulate(model, g, state0=state0).trace.F
        assert drift[0] >= np.max(np.abs(F - F[0])) / F[0]

    def test_no_drift_refusal_at_large_n(self):
        # a per-basis defect bound reaches 1.2e-8 at N=800; the per-trial
        # certificate must stay far below the 1e-8 gate
        assert verify_observability(N=1000, T=4.0, trials=2)["passed"] is True
        for N in (800, 1000):
            _, _, drift = regsys.beam._free_trials(beam_model(N), TimeGrid(4.0, 4000),
                                                   np.random.default_rng(0), 2)
            assert np.max(drift) <= 1e-10, N

    def test_zero_trials(self):
        assert verify_admissibility_bound(N=16, T=0.5, trials=0, n_steps=50)["worst_ratio"] == 0.0
        assert verify_observability(N=16, T=2.5, trials=0, n_steps=50)["worst_ratio"] == math.inf

    def test_free_trials_holds_two_rotation_tables(self):
        g = TimeGrid(4.0, 4000)
        omega, _ = beam_model(200).modal_basis()
        table_bytes = regsys.beam._rotation_tables(omega, g.nodes)[0].nbytes
        tracemalloc.start()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            regsys.beam._free_trials(beam_model(200), TimeGrid(4.0, 4000),
                                     np.random.default_rng(0), 5)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * table_bytes

    @given(N=st.integers(8, 120), k=st.floats(0.05, 2.0), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=10)
    def test_modal_references_match_nodal_system(self, N, k, seed):
        # the two references of boundary-feedin against the dense nodal
        # side; that side loses digits like eps ||A||, ||A|| ~ N^4 (2.6e-8 on
        # the overdamped root at N = 119, k = 2), so it is held to 1e-7 and
        # the roots to 1e-10 against the well-conditioned energy-coordinate
        # modal matrix [[0, Omega], [-Omega, -k phi phi']]
        model = beam_model(N, "shear-input")
        g = TimeGrid(1.0, 1000)
        u = regsys.beam._smooth_input(g, np.random.default_rng(seed))
        a, b = model.first_order_matrices()
        nodal = io_map(Realization(a, b, model.trace_rows()[:1], np.zeros((1, 1))), g, u)
        slopes = regsys.beam._forced_tip_slopes(model, g, u.values[:, 0][None, :])[0]
        y = nodal.values[:, 0]
        assert np.max(np.abs(slopes - y)) <= 1e-7 * np.max(np.abs(y))

        a_fb, _ = beam_model(N, "shear-feedback", k).first_order_matrices()
        seeds = np.linalg.eigvals(a_fb)
        roots = regsys.beam._closed_loop_roots(model, k, seeds)
        assert roots is not None and roots.shape == (2 * model.n_dof,)
        assert np.max(np.abs(roots - seeds) / (1.0 + np.abs(roots))) <= 1e-7
        omega, V = model.modal_basis()
        oracle = np.linalg.eigvals(_modal_closed_loop(omega, V[-1], k))
        # 2 n_dof distinct roots: each takes a different oracle eigenvalue
        nearest = np.argmin(np.abs(roots[:, None] - oracle[None, :]), axis=1)
        assert len(np.unique(nearest)) == 2 * model.n_dof
        assert np.max(np.abs(roots - oracle[nearest]) / (1.0 + np.abs(roots))) <= 1e-10

    def test_closed_loop_roots_guard_and_refusals(self):
        # a mode without tip displacement keeps +-i omega_j, which f cannot
        # find; seeds that meet at one root, or do not converge, are refused
        omega = np.array([1.0, 2.0, 3.0])
        V = np.eye(3)
        V[-1] = [0.5, 0.0, 0.8]
        fake = type("Modes", (), {"n_dof": 3, "modal_basis": lambda self: (omega, V)})()
        k = 0.7
        oracle = np.linalg.eigvals(_modal_closed_loop(omega, V[-1], k))
        roots = regsys.beam._closed_loop_roots(fake, k, oracle * (1.0 + 1e-4))
        assert 2j in roots and -2j in roots
        assert np.max(np.abs(roots - oracle)) <= 1e-12
        coupled = np.argmax(np.abs(oracle.real))
        twice = oracle.copy()
        twice[(coupled + 1) % 6] = oracle[coupled]
        assert regsys.beam._closed_loop_roots(fake, k, twice) is None
        stuck = oracle.copy()
        stuck[coupled] = np.nan
        assert regsys.beam._closed_loop_roots(fake, k, stuck) is None
        with pytest.raises(ShapeError):
            regsys.beam._closed_loop_roots(fake, k, oracle[:4])

    def test_basis_is_cached_and_read_only(self):
        model = beam_model(20)
        omega, V = model.modal_basis()
        again = model.modal_basis()
        assert again[0] is omega and again[1] is V
        with pytest.raises(ValueError):
            V[0, 0] = 1.0
        with pytest.raises(ValueError):
            omega[0] = 1.0

    @pytest.mark.parametrize("driver", [
        lambda: verify_admissibility_bound(N=20, T=0.5, trials=3, n_steps=100),
        lambda: verify_wellposedness_bound(N=20, T=0.5, delta=0.1, input_trials=3, n_steps=100),
        lambda: verify_observability(N=20, T=2.5, trials=3, n_steps=250),
    ], ids=["admissibility", "wellposedness", "observability"])
    def test_one_svd_per_model(self, monkeypatch, driver):
        calls = []
        real_svd = np.linalg.svd

        def counting(*args, **kwargs):
            calls.append(1)
            return real_svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        model = beam_model(20)
        model.modal_basis()
        model.modal_basis()
        assert len(calls) == 1
        driver()
        assert len(calls) == 2

    @pytest.mark.parametrize("N", [32, 57, 80])
    def test_low_modes_decoupled_to_rounding(self, N):
        # the basis keeps the nodal energy of smooth states, and the six
        # lowest rows of its stiffness defect, at the level of N = 24
        model = beam_model(N)
        g = TimeGrid(4.0, 600)
        rng = np.random.default_rng(0)
        for _ in range(5):
            F = simulate(model, g, state0=random_smooth_state(model, rng)).trace.F
            assert np.max(np.abs(F - F[0])) / F[0] <= 1e-12
        omega, V = model.modal_basis()
        pot_rows = model._energy_rows @ V
        defect = pot_rows.T @ pot_rows / np.outer(omega, omega) - np.eye(model.n_dof)
        assert np.max(np.abs(defect[:6])) <= 1e-12

    def test_basis_independent_of_svd_signs(self, monkeypatch):
        expect = beam_model(40).modal_basis()
        real_svd = np.linalg.svd

        def flipped(a, *args, **kwargs):
            u, s, vt = real_svd(a, *args, **kwargs)
            d = np.where(np.arange(len(s)) % 3 == 0, -1.0, 1.0)
            return u * d, s, d[:, None] * vt

        monkeypatch.setattr(np.linalg, "svd", flipped)
        omega, V = beam_model(40).modal_basis()
        assert np.array_equal(omega, expect[0]) and np.array_equal(V, expect[1])
        assert np.all(V[-1] > 0)


def test_benchmark_kernel_bindings_resolve():
    # the benchmark tracer wraps each kernel where it is bound; a binding
    # that no longer exists stops the traced run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("_perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for bindings in spans.KERNELS.values():
        for mod_name, attr in bindings:
            assert callable(getattr(importlib.import_module(mod_name), attr)), (mod_name, attr)
