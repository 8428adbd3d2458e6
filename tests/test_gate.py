"""The one singularity gate, `node._checked_solve`: its rule on matrices of
known singular values, parity with the per-site SVD gates it replaced,
every gated site at 1e-3 and 1e3 times its threshold, exactly singular
input without a LinAlgWarning, parity of its banded and dense paths, and a
scan that no other code factors, estimates or solves."""

import ast
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given
from hypothesis import strategies as st

import regsys.boundary
import regsys.feedback
import regsys.gramian
import regsys.node
from regsys import (
    AdmissibilityError,
    BoundaryTriple,
    FeedbackGain,
    Realization,
    SpectrumError,
    TimeGrid,
    across_instance,
    admissible_feedback_check,
    beam_model,
    close_boundary_loop,
    closed_loop,
    cross_instance,
    default_shift_sweep,
    dirichlet_map,
    double_instance,
    feed_in_full,
    feed_in_observe,
    feedthrough_estimate,
    lambda_extension,
    laplacian_triple,
    perturb_across,
    perturb_cross,
    perturb_double,
    quadruple_maps,
    random_realization,
    restrict_generator,
    robustness_sweep,
    transfer,
    wave_triple,
)
from regsys.cli import KINDS
from regsys.feedback import _channels
from regsys.node import _band_plan, _checked_solve, lifted_quadruple

EPS = np.finfo(float).eps
RTOLS = (1e3 * EPS, 1e-12, 1e-10, 1e-8)
GRID = TimeGrid(1.5, 32)
STRICT = pytest.mark.filterwarnings("error::scipy.linalg.LinAlgWarning")


def graded(rng, n, s_max, s_min, complex_):
    """U diag(geomspace(s_max, s_min, n)) V* with random unitary U, V."""
    def unitary():
        z = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if complex_ else 0.0)
        q, r = np.linalg.qr(z)
        return q * (np.diag(r) / np.abs(np.diag(r)))
    return unitary() @ np.diag(np.geomspace(s_max, s_min, n)) @ unitary().conj().T


class TestRule:
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8), rtol=st.sampled_from(RTOLS),
           log_max=st.floats(-3.0, 3.0), depth=st.floats(0.0, 6.0), complex_=st.booleans(),
           refuse=st.booleans())
    def test_graded_singular_values(self, seed, n, rtol, log_max, depth, complex_, refuse):
        # refused when sigma_min / max(sigma_max, 1) <= rtol / (10 n), accepted
        # when it is >= 10 n rtol: rcond ||M||_1 is sigma_min to a factor of n
        rng = np.random.default_rng(seed)
        s_max = 10.0**log_max
        floor = max(s_max, 1.0)
        if refuse:
            s_min = floor * rtol / (10 * n) * 10.0**-depth
        else:
            s_min = min(floor * 10 * n * rtol * 10.0**depth, s_max)
        mat = graded(rng, n, s_max, s_min, complex_)
        sv = np.linalg.svd(mat, compute_uv=False)
        ratio = sv[-1] / max(sv[0], 1.0)
        assume(ratio <= rtol / (10 * n) or ratio >= 10 * n * rtol)
        rhs = rng.standard_normal((n, 2))
        if ratio <= rtol / (10 * n):
            with pytest.raises(SpectrumError, match="M is numerically singular"):
                _checked_solve(mat, rhs, rtol, SpectrumError, "M")
        else:
            got = _checked_solve(mat, rhs, rtol, SpectrumError, "M")
            want = np.linalg.solve(mat, rhs)
            # two LU solves agree to the forward error bound n kappa eps
            kappa = sv[0] / sv[-1]
            assert np.max(np.abs(got - want)) <= 10 * n * kappa * EPS * np.max(np.abs(want))

    @STRICT
    @pytest.mark.parametrize("mat", [np.zeros((3, 3)), np.ones((2, 2)), np.zeros((1, 1)),
                                     np.array([[1.0, 1j], [1j, -1.0]])])
    def test_exactly_singular_is_refused_without_a_warning(self, mat):
        with pytest.raises(AdmissibilityError):
            _checked_solve(mat, np.eye(mat.shape[0]), 1e-8, AdmissibilityError, "M")

    @STRICT
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), cols=st.sampled_from([None, 1, 3]),
           complex_mat=st.booleans(), complex_rhs=st.booleans(), rtol=st.sampled_from(RTOLS),
           singular=st.sampled_from([None, "zero column", "equal rows", "graded"]),
           poison=st.sampled_from([None, "mat", "rhs"]), bad=st.sampled_from([np.nan, np.inf, -np.inf]))
    def test_dense_gate_is_the_wrappers_bit_for_bit(self, seed, n, cols, complex_mat, complex_rhs, rtol,
                                                     singular, poison, bad):
        # the dense gate calls getrf, gecon and getrs directly; its verdict,
        # message and solution are those of lu_factor, gecon and lu_solve,
        # bit for bit, a complex rhs of a real mat and a 1-D rhs included,
        # and it raises their ValueError on non-finite input, without a
        # LinAlgWarning on an exactly singular mat
        rng = np.random.default_rng(seed)
        mat = graded(rng, n, 1.0, 1e-20 if singular == "graded" else 0.5, complex_mat)
        if singular == "zero column":
            mat[:, rng.integers(n)] = 0.0
        elif singular == "equal rows" and n > 1:
            mat[0] = mat[-1]
        rhs = rng.standard_normal((n,) if cols is None else (n, cols)) * (1.0 + 0.5j if complex_rhs else 1.0)
        if poison is not None:
            (mat if poison == "mat" else rhs).flat[rng.integers(mat.size if poison == "mat" else rhs.size)] = bad
        assert _gate_outcome(lambda: _checked_solve(mat, rhs, rtol, SpectrumError, "M")) == \
            _gate_outcome(lambda: _wrapper_gate(mat, rhs, rtol))


def _wrapper_gate(mat, rhs, rtol):
    """The dense gate as it read through scipy's wrappers: lu_factor (its
    LinAlgWarning silenced), gecon, the rule, and lu_solve."""
    anorm = np.linalg.norm(mat, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(mat)
    gecon = scipy.linalg.lapack.zgecon if np.iscomplexobj(lu) else scipy.linalg.lapack.dgecon
    rcond, _ = gecon(lu, anorm)
    if not np.isfinite(rcond) or rcond * anorm <= rtol * max(anorm, 1.0):
        raise SpectrumError(f"M is numerically singular (rcond={rcond:.2e}, 1-norm {anorm:.2e})")
    return scipy.linalg.lu_solve((lu, piv), rhs)


def _gate_outcome(call):
    """What a gate call gave: its error type and message, or the solution's
    dtype, shape and bytes."""
    try:
        x = call()
    except (SpectrumError, ValueError) as err:
        return type(err), str(err)
    return x.dtype, x.shape, x.tobytes()


def _old_refuses(mat, rhs, rtol, what):
    """The gate each site used before the one gate: SVDs, except transfer's
    rcond < rtol (LU + gecon, no unit floor). I - G11(lam) had no gate."""
    if what.startswith("I - G11"):
        return False
    if what.startswith("lambda - A"):
        lu, _ = scipy.linalg.lu_factor(mat)
        gecon = scipy.linalg.lapack.zgecon if np.iscomplexobj(lu) else scipy.linalg.lapack.dgecon
        rcond, _ = gecon(lu, np.linalg.norm(mat, 1))
        return not np.isfinite(rcond) or rcond < rtol
    sv = np.linalg.svd(mat, compute_uv=False)
    if "T_b" in what:  # relative to the 2-norm of all the traces [T_i T_b]
        traces = np.hstack([rhs[:, : rhs.shape[1] - mat.shape[0]], mat])
        return sv[-1] <= rtol * np.linalg.svd(traces, compute_uv=False)[0]
    if rtol == 1e-12 or what == "I - F on the grid":
        # the sweep's loop and the SVD verdict of admissible_feedback_check:
        # relative with no unit floor
        return not sv[-1] > rtol * sv[0]
    return sv[-1] <= rtol * max(sv[0], 1.0)


class TestRefusalParity:
    def test_same_refusals_as_the_svd_gates(self, monkeypatch):
        # every gated solve over the instance families, the boundary triples
        # and a sweep with a singular gain: the one gate refuses exactly
        # where the old per-site gate did, and its sigma_min estimate
        # rcond ||M||_1 stays within a factor 3 sqrt(n) of the SVD's
        log = []

        def gate(mat, rhs, rtol, error, what):
            old = _old_refuses(mat, rhs, rtol, what)
            try:
                out = _checked_solve(mat, rhs, rtol, error, what)
            except error:
                log.append((what, old, True, None))
                raise
            sv = np.linalg.svd(mat, compute_uv=False)
            lu, _ = scipy.linalg.lu_factor(mat)
            gecon = scipy.linalg.lapack.zgecon if np.iscomplexobj(lu) else scipy.linalg.lapack.dgecon
            anorm = np.linalg.norm(mat, 1)
            log.append((what, old, False, (gecon(lu, anorm)[0] * anorm / sv[-1], mat.shape[0])))
            return out

        for mod in (regsys.node, regsys.feedback, regsys.boundary, regsys.gramian):
            monkeypatch.setattr(mod, "_checked_solve", gate)

        def attempt(call):
            try:
                call()
            except (AdmissibilityError, SpectrumError):
                pass

        for factor in (1e-3, 1e3):
            attempt(lambda: perturb_across(*_integrator_loop(factor), GRID))
        for seed in range(8):
            perturb_across(*across_instance(np.random.default_rng(seed), GRID), GRID)
            perturb_cross(*cross_instance(np.random.default_rng(100 + seed), GRID), GRID)
            perturb_double(*double_instance(np.random.default_rng(200 + seed), GRID), GRID)

        rng = np.random.default_rng(5)
        for _ in range(6):
            r = random_realization(rng, 4, 2, 2)
            for scale in (0.1, 1.0, 10.0, 100.0):
                attempt(lambda: closed_loop(r, FeedbackGain(rng.standard_normal((2, 2)), scale)))
            # I - D gamma = diag(delta, 1): across the 1e-8 threshold
            for delta in (0.0, 1e-12, 1e-9, 1e-6, 1e-3):
                gamma = np.linalg.solve(r.D, np.diag([1.0 - delta, 0.0]))
                attempt(lambda: closed_loop(r, FeedbackGain(gamma)))

        wt = wave_triple(16)
        sweep = default_shift_sweep(wt, 18)
        feed_in_full(wt, sweep)
        feed_in_observe(wt, sweep)
        lt = laplacian_triple(12)
        for gain in (0.0, 0.5, 2.0):
            close_boundary_loop(lt, gain)
        dirichlet_map(lt, 3.0)
        singular = BoundaryTriple(L=lt.L, G=lt.G, K=lt.K, W=lt.G + np.eye(1, lt.dim))
        attempt(lambda: close_boundary_loop(singular, 1.0, observation="W"))
        beam = beam_model(40, "shear-input").boundary_triple()
        close_boundary_loop(beam, 0.5, observation="W")
        feedthrough_estimate(beam, default_shift_sweep(beam, 12), "primary", "W")

        refused_gains = 0
        for seed in range(40):
            main, pert = across_instance(np.random.default_rng(300 + seed), GRID)
            d11 = lifted_quadruple(_channels(main, b=pert), GRID.dt)[3][:2, :2]
            ev = np.linalg.eigvals(d11)
            if np.all(ev.imag == 0) and np.max(ev.real) > 0:
                ks = np.array([0.5, 1.0, 2.0]) / np.max(ev.real)
                rep = robustness_sweep(main, pert, GRID, GRID.t_end, "across", k_grid=ks)
                refused_gains += int(rep.sigma_min[1] == 0.0)
                if refused_gains == 2:
                    break

        flips = [(what, old, new) for what, old, new, _ in log if old != new]
        assert flips == []
        refused = {what.split("(")[0] for what, _, new, _ in log if new}
        assert {"I - D gamma", "I - F on the grid", "the boundary block T_b of the traces"} <= refused
        assert refused_gains == 2
        for what, _, _, est in log:
            if est is not None:
                ratio, n = est
                assert 1.0 / np.sqrt(n) * (1 - 1e-9) <= ratio <= 3.0 * np.sqrt(n), what

    def test_grid_gate_refuses_where_the_admissibility_check_does(self):
        # over the instance families and the integrator loops at 1e-3, 0.1,
        # 10 and 1e3 times the threshold, a composition is refused exactly
        # where admissible_feedback_check(main, identity) is negative
        cases = [(perturb_across, _integrator_loop(factor)) for factor in (1e-3, 1e-1, 1e1, 1e3)]
        for seed in range(8):
            cases += [(perturb_across, across_instance(np.random.default_rng(seed), GRID)),
                      (perturb_cross, cross_instance(np.random.default_rng(100 + seed), GRID)),
                      (perturb_double, double_instance(np.random.default_rng(200 + seed), GRID))]
        verdicts = []
        for compose, systems in cases:
            main = systems[0]
            check = admissible_feedback_check(main, FeedbackGain(np.eye(main.m)), GRID)
            try:
                compose(*systems, GRID)
                refused = False
            except AdmissibilityError as err:
                assert "I - F on the grid" in str(err)
                refused = True
            verdicts.append((refused, not check["admissible"]))
        assert all(new == old for new, old in verdicts)
        assert [new for new, _ in verdicts[:4]] == [True, True, False, False]

    def test_integrator_loops_reach_both_grid_paths(self, monkeypatch):
        # the loops at 1e-3, 0.1 and 10 times the threshold are left to the
        # dense gate, the one at 1e3 is certified on its blocks, so the
        # refusal tests above cover both paths of the grid verdict
        dense = []

        def gate(mat, rhs, rtol, error, what):
            dense.append(what)
            return _checked_solve(mat, rhs, rtol, error, what)

        monkeypatch.setattr(regsys.node, "_checked_solve", gate)
        paths = []
        for factor in (1e-3, 1e-1, 1e1, 1e3):
            main, pert = _integrator_loop(factor)
            dense.clear()
            try:
                perturb_across(main, pert, GRID)
            except AdmissibilityError:
                pass
            paths.append("I - F on the grid" in dense)
        assert paths == [True, True, True, False]

    def test_unit_floor_band(self):
        # ||I - F|| < 1 with sigma_min between 1e-8 sigma_max and 1e-8: the
        # SVD verdict of admissible_feedback_check and the LU gate both floor
        # their threshold at 1e-8, so both refuse the loop. I - D_bar = [1e-3]
        # passes its own gate
        main, pert = _integrator_loop(1e-1, d_bar=1.0 - 1e-3)
        sv = np.linalg.svd(np.eye(GRID.n_steps) - quadruple_maps(main, GRID).io_map,
                           compute_uv=False)
        assert sv[0] < 1.0 and 1e-8 * sv[0] < sv[-1] < 1e-8
        assert not admissible_feedback_check(main, FeedbackGain([[1.0]]), GRID)["admissible"]
        with pytest.raises(AdmissibilityError, match="I - F on the grid"):
            perturb_across(main, pert, GRID)


def _integrator_loop(factor, d_bar=0.0):
    """(main, pert) for perturb_across: main is the scalar integrator (0, 1,
    c, d) with d = d_bar - c dt / 2, so that its averaged feedthrough is
    D_bar = d_bar up to rounding, and I - F on GRID is lower-triangular
    Toeplitz, 1 - d_bar on the diagonal and -c dt below it. c is set by
    bisection so that the gate value rcond ||I - F||_1 / (1e-8 max(||I -
    F||_1, 1)) is factor (from above)."""
    def system(b):
        return Realization([[0.0]], [[1.0]], [[b / GRID.dt]], [[d_bar - b / 2]])

    def value(b):
        mat = np.eye(GRID.n_steps) - quadruple_maps(system(b), GRID).io_map
        anorm = np.linalg.norm(mat, 1)
        rcond, _ = scipy.linalg.lapack.dgecon(scipy.linalg.lu_factor(mat)[0], anorm)
        return rcond * anorm / (1e-8 * max(anorm, 1.0))

    lo, hi = 0.0, 10.0
    assert value(lo) > factor > value(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if value(mid) > factor else (lo, mid)
    assert factor < value(lo) < 2.0 * factor
    main = system(lo)
    return main, Realization(main.A, [[1.0]], main.C, [[0.1]])


def _scalar(a=-1.0, b=1.0, c=1.0, d=0.0):
    return Realization([[a]], [[b]], [[c]], [[d]])


class TestSitesAtTheirThresholds:
    # each site's matrix is built with its gate value at 1e-3 and at 1e3
    # times the site's threshold: the first is refused, the second accepted

    @pytest.mark.parametrize("factor, refused", [(1e-3, True), (1e3, False)])
    def test_transfer_and_lambda_extension(self, factor, refused):
        # lam - A = [delta] at lam = 1; threshold 1e3 eps
        delta = factor * 1e3 * EPS
        r = _scalar(a=1.0 - delta)
        for call in (lambda: transfer(r, 1.0), lambda: lambda_extension(r, [1.0], [1.0, 2.0])):
            if refused:
                with pytest.raises(SpectrumError):
                    call()
            else:
                call()

    @pytest.mark.parametrize("factor, refused", [(1e-3, True), (1e3, False)])
    def test_closed_loop(self, factor, refused):
        # I - D gamma = I - gamma D = [delta]; threshold 1e-8
        r = _scalar(d=1.0 - factor * 1e-8)
        if refused:
            with pytest.raises(AdmissibilityError, match="I - D gamma"):
                closed_loop(r, FeedbackGain([[1.0]]))
        else:
            closed_loop(r, FeedbackGain([[1.0]]))

    @pytest.mark.parametrize("factor, refused", [(1e-3, True), (1e3, False)])
    def test_composition_loops(self, factor, refused):
        # with B = C = 0 the loop matrices I - D, I - D_bar and I - G11(lam)
        # all equal [delta]; threshold 1e-8
        d = 1.0 - factor * 1e-8
        main = _scalar(b=0.0, c=0.0, d=d)
        pert = Realization([[-1.0]], [[1.0]], [[0.0]], [[0.1]])
        if refused:
            with pytest.raises(AdmissibilityError, match="I - D is"):
                perturb_across(main, pert, GRID)
        else:
            perturb_across(main, pert, GRID)

    @pytest.mark.parametrize("factor, refused", [(1e-3, True), (1e3, False)])
    def test_composition_grid_loop(self, factor, refused):
        # an integrator loop with D_bar = 0: I - D and I - D_bar pass, and
        # I - F on the grid has its gate value at factor; threshold 1e-8
        main, pert = _integrator_loop(factor)
        if refused:
            with pytest.raises(AdmissibilityError, match="I - F on the grid"):
                perturb_across(main, pert, GRID)
        else:
            assert perturb_across(main, pert, GRID).deviation_time <= 1e-10

    def test_composition_lft_gate(self, monkeypatch):
        # the transfer-side loop I - G11(lam) is gated like the others
        seen = []

        def gate(mat, rhs, rtol, error, what):
            seen.append((what.split("(")[0], rtol, error))
            return _checked_solve(mat, rhs, rtol, error, what)

        monkeypatch.setattr(regsys.feedback, "_checked_solve", gate)
        perturb_cross(*cross_instance(np.random.default_rng(1), GRID), GRID)
        assert seen.count(("I - G11", 1e-8, AdmissibilityError)) == 4

    @pytest.mark.parametrize("factor, refused", [(1e-3, True), (1e3, False)])
    def test_chart(self, factor, refused):
        # T_b = [delta]; threshold 1e-10
        delta = factor * 1e-10
        L = np.random.default_rng(2).standard_normal((3, 3))
        bt = BoundaryTriple(L=L, G=np.array([[1.0, 0.0, delta]]), K=np.ones((1, 3)))
        if refused:
            with pytest.raises(AdmissibilityError, match="T_b"):
                restrict_generator(bt)
        else:
            restrict_generator(bt)

    @pytest.mark.parametrize("factor, refused", [(1e-3, True), (1e3, False)])
    def test_boundary_loop(self, factor, refused):
        # the W feedthrough through the primary channel is w_gains[0], so
        # I - Wbar = [delta]; threshold 1e-8
        bt = wave_triple(16, w_gains=(1.0 - factor * 1e-8, 0.5))
        sweep = default_shift_sweep(bt, 18)
        if refused:
            with pytest.raises(AdmissibilityError, match="feedback feedthrough"):
                feed_in_observe(bt, sweep)
        else:
            assert feed_in_observe(bt, sweep).deviation_c <= 1e-6

    @pytest.mark.parametrize("factor, refused", [(1e-3, True), (1e3, False)])
    def test_sweep(self, factor, refused):
        # main.B = 0 makes D_bar = D exactly; the gain k = (1 - delta) / d
        # leaves I - k D_bar = [delta] up to rounding; threshold 1e-12
        _, pert = across_instance(np.random.default_rng(4), GRID, m=1)
        d = 0.3
        main = Realization(pert.A, np.zeros((pert.n, 1)), pert.C, [[d]])
        ks = np.array([1.0, (1.0 - factor * 1e-12) / d])
        rep = robustness_sweep(main, pert, GRID, GRID.t_end, "across", k_grid=ks)
        assert rep.sigma_min[0] > 0.0
        assert (rep.sigma_min[1] == 0.0) == refused


class TestExactlySingularSites:
    @STRICT
    def test_closed_loop(self):
        with pytest.raises(AdmissibilityError):
            closed_loop(_scalar(d=1.0), FeedbackGain([[1.0]]))

    @STRICT
    def test_sweep_keeps_sigma_zero(self):
        # I - 2 diag(0.5, 0.25) = diag(0, 0.5) exactly
        _, pert = across_instance(np.random.default_rng(4), GRID)
        main = Realization(pert.A, np.zeros((pert.n, 2)), pert.C, np.diag([0.5, 0.25]))
        rep = robustness_sweep(main, pert, GRID, GRID.t_end, "across", k_grid=[1.0, 2.0, 3.0])
        assert rep.sigma_min[1] == 0.0
        assert rep.sigma_min[0] > 0.0 and rep.sigma_min[2] > 0.0

    @STRICT
    def test_feed_in_loop(self):
        bt = wave_triple(16, w_gains=(1.0, 0.5))
        with pytest.raises(AdmissibilityError):
            feed_in_observe(bt, default_shift_sweep(bt, 18))


def _scrambled_band(rng, n, kl, ku, complex_):
    """A random n x n matrix with kl subdiagonals and ku superdiagonals, its
    rows and columns scrambled by one random symmetric permutation."""
    a = np.zeros((n, n), dtype=complex if complex_ else float)
    for d in range(-kl, ku + 1):
        size = n - abs(d)
        a += np.diag(rng.standard_normal(size) + (1j * rng.standard_normal(size) if complex_ else 0.0), d)
    q = rng.permutation(n)
    return a[np.ix_(q, q)]


def _verdict(mat, rhs):
    """transfer's gate on mat: the solution, or None when refused."""
    try:
        return _checked_solve(mat, rhs, 1e3 * EPS, SpectrumError, "M")
    except SpectrumError:
        return None


class TestBandPath:
    # transfer factors lam - A in band storage where A has a band plan; the
    # band and dense paths of the one gate must agree

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(64, 400), kl=st.integers(0, 4),
           ku=st.integers(0, 4), complex_a=st.booleans(), complex_lam=st.booleans(),
           depth=st.floats(0.0, 16.0))
    def test_band_and_dense_agree(self, seed, n, kl, ku, complex_a, complex_lam, depth):
        # lam sits 10^-depth ||A||_1 from an eigenvalue (a real lam from its
        # real part), so both verdicts occur; they must match wherever the
        # dense gate value is more than 10 times from its threshold, and
        # accepted solutions agree to 10 n eps kappa_1
        rng = np.random.default_rng(seed)
        A = _scrambled_band(rng, n, kl, ku, complex_a)
        band = _band_plan(A)
        assert band is not None and max(band.kl, band.ku) <= max(kl, ku)
        mu = rng.choice(np.linalg.eigvals(A))
        lam = (mu if complex_lam else mu.real) + 10.0**-depth * np.linalg.norm(A, 1)
        dense = lam * np.eye(n) - A
        shifted = band.shifted(lam)
        assert np.array_equal(np.asarray(shifted), dense)
        rhs = rng.standard_normal((n, 2))
        anorm = np.linalg.norm(dense, 1)
        lapack = scipy.linalg.lapack  # getrf, unlike lu_factor, does not warn on an exact zero pivot
        getrf, gecon = (lapack.zgetrf, lapack.zgecon) if np.iscomplexobj(dense) else (lapack.dgetrf, lapack.dgecon)
        value = gecon(getrf(dense)[0], anorm)[0] * anorm / (1e3 * EPS * max(anorm, 1.0))
        x_dense, x_band = _verdict(dense, rhs), _verdict(shifted, rhs)
        if not 0.1 <= value <= 10.0:
            assert (x_dense is None) == (x_band is None) == (value < 0.1)
        if x_dense is not None and x_band is not None:
            kappa = anorm * np.linalg.norm(np.linalg.inv(dense), 1)
            assert np.max(np.abs(x_band - x_dense)) <= 10 * n * EPS * kappa * np.max(np.abs(x_dense))

    @STRICT
    @pytest.mark.parametrize("lam", [0.75, 0.75 + 0.5j])
    def test_exact_eigenvalue_is_refused_on_both_paths(self, lam):
        # row 17 of lam - A is exactly zero, so lam is an eigenvalue of A
        rng = np.random.default_rng(7)
        A = _scrambled_band(rng, 120, 2, 3, isinstance(lam, complex))
        A[17] = 0.0
        A[17, 17] = lam
        r = Realization(A, rng.standard_normal((120, 2)), np.ones((1, 120)), np.zeros((1, 2)))
        assert r._band is not None
        with pytest.raises(SpectrumError, match="lambda - A"):
            transfer(r, lam)
        assert _verdict(lam * np.eye(120) - A, r.B) is None

    def test_beam_at_800_is_refused_on_both_paths(self):
        # the nodal beam's lam - A at lam = 1 has rcond 1.4e-13 on both
        # paths, below the threshold 1e3 eps = 2.2e-13
        r = beam_model(800, "shear-input").realization()
        assert r._band is not None
        with pytest.raises(SpectrumError, match="lambda - A"):
            transfer(r, 1.0)
        assert _verdict(np.eye(r.n) - r.A, r.B) is None

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(64, 300), half=st.integers(0, 2),
           keep=st.floats(0.2, 1.0), diagonal=st.floats(0.0, 1.0), isolated=st.integers(0, 5))
    def test_ordering_is_scipys_reverse_cuthill_mckee(self, seed, n, half, keep, diagonal, isolated):
        # a band of half-width `half` with a share `keep` of its off-diagonal
        # and `diagonal` of its diagonal entries left, some nodes cut off and
        # all scrambled: degree ties and disconnected parts abound. The plan's
        # order is scipy's reverse Cuthill-McKee of the symmetrized pattern
        from scipy.sparse import csr_array
        from scipy.sparse.csgraph import reverse_cuthill_mckee

        rng = np.random.default_rng(seed)
        A = _scrambled_band(rng, n, half, half, False)
        A[(rng.random((n, n)) > keep) & ~np.eye(n, dtype=bool)] = 0.0
        A[np.diag_indices(n)] *= rng.random(n) < diagonal
        cut = rng.choice(n, isolated, replace=False)
        A[cut], A[:, cut] = 0.0, 0.0
        band = _band_plan(A)
        pattern = A != 0
        want = reverse_cuthill_mckee(csr_array(pattern | pattern.T), symmetric_mode=True)
        assert band is not None and np.array_equal(band.perm, want)

    @staticmethod
    def _spy_plans(monkeypatch):
        """The shapes of the band plans made from here on; a dense LU raises."""
        plans = []

        def spy(A):
            plans.append(A.shape)
            return _band_plan(A)

        def no_dense_lu(*args, **kwargs):
            raise AssertionError("dense LU on the band path")

        monkeypatch.setattr(regsys.node, "_band_plan", spy)
        for name in ("dgetrf", "zgetrf"):
            monkeypatch.setattr(scipy.linalg.lapack, name, no_dense_lu)
        return plans

    def test_one_plan_for_a_sweep(self, monkeypatch):
        # a 20-shift sweep plans A once, and no shift takes a dense LU
        bt = beam_model(64, "shear-input").boundary_triple()
        assert bt._chart.a.shape == (130, 130)  # the chart's own T_b solve is dense, made here
        plans = self._spy_plans(monkeypatch)
        est = feedthrough_estimate(bt, default_shift_sweep(bt, 20), "primary", "W")
        assert plans == [(130, 130)] and est.lambdas.size == 20

    def test_one_plan_per_chart_and_realization(self, monkeypatch):
        # 20 Dirichlet lifts of one triple, a feedthrough sweep on it and a
        # 20-shift lambda_extension share one plan of their A each
        bt = beam_model(64, "shear-input").boundary_triple()
        r = beam_model(64, "shear-input").realization()
        assert bt._chart.a.shape == (130, 130)
        plans = self._spy_plans(monkeypatch)
        lifts = [dirichlet_map(bt, lam) for lam in default_shift_sweep(bt, 20)]
        feedthrough_estimate(bt, default_shift_sweep(bt, 12), "primary", "W")
        assert plans == [(130, 130)] and len(lifts) == 20
        ext = lambda_extension(r, np.ones(r.n), default_shift_sweep(bt, 20))
        transfer(r, 1e6)
        assert plans == [(130, 130), (r.n, r.n)] and ext["residuals"].size == 20

    @pytest.mark.parametrize("kind", KINDS)
    def test_no_kind_imports_scipy_sparse(self, kind):
        # in a fresh process no kind imports scipy.sparse: the compositions'
        # dense generators never reach the ordering, and the beam's banded
        # ones are ordered without it
        code = ("import sys; from regsys.cli import run; "
                f"assert run({{'kind': {kind!r}, 'seed': 0}}, profile='quick')['passed']; "
                "print('scipy.sparse' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["False"]


def _nodes():
    """(file, enclosing function, node) for every AST node of src/regsys;
    the function is the innermost one that encloses it, None at module
    level."""
    for path in sorted((Path(__file__).parents[1] / "src" / "regsys").glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                for sub in ast.walk(fn):
                    owner[id(sub)] = fn.name  # inner functions overwrite later
        for node in ast.walk(tree):
            yield path.name, owner.get(id(node)), node


def _calls(func_names):
    """(file, enclosing function, source) for every name or attribute in
    src/regsys that reads one of func_names."""
    out = []
    for file, fn, node in _nodes():
        if isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name in func_names:
                out.append((file, fn, ast.unparse(node)))
    return out


def test_one_singularity_gate():
    # the LU, dense or banded, its condition estimate and the LU solve (the
    # LAPACK routines or scipy's wrappers of them) are read only inside
    # _checked_solve, and no code solves, inverts or
    # least-squares outside it (min_norm_control solves from an SVD). The
    # block right side of a composition is gated: its LU of I - F is the
    # grid admissibility verdict
    gate = _calls({"lu_factor", "lu_solve", "dgecon", "zgecon", "getrf", "gesv", "gbtrf", "gbtrs", "gbcon",
                   "dgbtrf", "zgbtrf", "dgbtrs", "zgbtrs", "dgbcon", "zgbcon", "dgetrf", "zgetrf", "getrs",
                   "dgetrs", "zgetrs"})
    assert gate and {(f, fn) for f, fn, _ in gate} == {("node.py", "_checked_solve")}
    # the tridiagonal eigensolver is read only by the Lanczos Ritz step
    ritz = _calls({"eigh_tridiagonal", "stebz", "stein", "dstebz", "dstein"})
    assert ritz and {(f, fn) for f, fn, _ in ritz} == {("node.py", "_lanczos_top")}
    solves = [(f, fn) for f, fn, text in _calls({"solve", "inv", "pinv", "lstsq"})
              if text.startswith(("np.", "numpy.", "scipy."))]
    assert solves == []
    for name in ("_inv", "_feedback_loop_inverse"):
        assert not any(getattr(mod, name, None) for mod in
                       (regsys.node, regsys.feedback, regsys.boundary, regsys.gramian))


def test_one_exactness_verdict():
    # singular values without vectors are taken only where the one
    # exactness verdict is decided (node._exactness), for the sweep's
    # batched per-gain sigma and for the trace-rank check of BoundaryTriple,
    # so no second onto / bounded-below rule can fork off
    sites = set()
    for file, fn, node in _nodes():
        if isinstance(node, ast.Call):
            name = ast.unparse(node.func).split(".")[-1]
            if name == "svdvals" or (name == "svd" and any(kw.arg == "compute_uv" for kw in node.keywords)):
                sites.add((file, fn))
    assert sites == {("node.py", "_exactness"), ("gramian.py", "robustness_sweep"),
                     ("boundary.py", "__post_init__")}
    assert {(f, fn) for f, fn, _ in _calls({"_EXACTNESS_RTOL"})} == {
        ("node.py", None), ("node.py", "_exactness"), ("gramian.py", "robustness_sweep")}
