"""The four workloads: which experiment kinds run, with what config, and the
benchmark's own check attached to each kind.

One operation is one `regsys.cli.run` call. It fails when the report's
verdict is false, when the run raises, or when the attached check finds a
disagreement. Check inputs are drawn from the workload seed but apart from
the program's own streams, and they run after the timed window.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

import checks
from regsys import (
    TimeGrid,
    across_instance,
    beam_model,
    close_boundary_loop,
    control_operator_from_triple,
    cross_instance,
    double_instance,
    perturb_across,
    perturb_cross,
    perturb_double,
    quadruple_maps,
    random_realization,
    random_smooth_state,
    robustness_sweep,
    simulate,
    surjectivity_radius,
)
from regsys.grids import Signal

SHORT = {"t_end": 1.5, "n_steps": 32}
LONG = {"t_end": 1.5, "n_steps": 256}


def _grid(cfg: dict) -> TimeGrid:
    return TimeGrid(cfg["grid"]["t_end"], cfg["grid"]["n_steps"])


def check_grid_maps(cfg, report, rng, instances):
    g = _grid(cfg)
    failures = []
    for _ in range(instances):
        n, m, p = (int(x) for x in rng.integers([2, 1, 1], [9, 4, 4]))
        r = random_realization(rng, n, m, p, grid=g)
        ref = checks.reference_maps(r.A, r.B, r.C, r.D, g.dt, g.n_steps)
        failures += checks.compare_maps(quadruple_maps(r, g), ref)
    return failures


_THEOREMS = {"across": (across_instance, perturb_across),
             "cross": (cross_instance, perturb_cross),
             "double": (double_instance, perturb_double)}


def check_compose(theorem, cfg, report, rng, instances):
    g = _grid(cfg)
    sample, perturb = _THEOREMS[theorem]
    failures = []
    for _ in range(instances):
        systems = sample(rng, g)
        failures += checks.compare_closed_loop(theorem, systems, perturb(*systems, g).closed_loop)
    return failures


def check_sweep(mode, cfg, report, rng, instances):
    g = _grid(cfg)
    failures = []
    for _ in range(instances):
        main, pert = (across_instance if mode == "across" else cross_instance)(rng, g)
        rep = robustness_sweep(main, pert, g, g.t_end, mode)
        ref = checks.reference_sweep(mode, main, pert, g.dt, g.n_steps, rep.k_values)
        failures += checks.compare_sweep(rep, ref)
    return failures


def check_radius(cfg, report, rng, matrices=20):
    failures = []
    for _ in range(matrices):
        rows = int(rng.integers(1, 6))
        mat = rng.standard_normal((rows, rows + int(rng.integers(0, 4))))
        failures += checks.compare_radius(surjectivity_radius(mat), mat)
    return failures


def check_boundary_feedin(cfg, report, rng):
    failures = checks.compare_wave_feedthroughs(report["payload"]["wave_feedthroughs"])
    bt = beam_model(cfg["N"], "shear-input").boundary_triple()
    failures += checks.compare_beam_control(control_operator_from_triple(bt, 3.0), cfg["N"])
    failures += checks.compare_closed_loop_spectrum(close_boundary_loop(bt, cfg["gain"], "W").a)
    return failures


def check_beam_transfer(cfg, report, rng):
    rows = [(row["s"], row["discrete"], row["abs_H"]) for row in report["payload"]["table"]]
    return checks.compare_transfer_table(rows)


def _smooth_input(g: TimeGrid, rng) -> np.ndarray:
    t = g.nodes
    return sum(rng.standard_normal() / j * np.cos(2 * math.pi * j * t / g.t_end + rng.uniform(0, 2 * math.pi))
               for j in range(1, 7))


def check_beam_bounds(cfg, report, rng):
    N, T = cfg["N"], cfg["T"]
    g = TimeGrid(T, int(round(T / 1e-3)))
    model = beam_model(N, "homogeneous")
    st = random_smooth_state(model, rng)
    traj = simulate(model, g, state0=st)
    failures = checks.compare_energy(checks.beam_energy(model, traj.w, traj.v))
    stepped = checks.stepped_trace_integrals(model, g.dt, g.n_steps, st.w, st.v)
    failures += checks.compare_trace_integrals(traj.trace, stepped, g.dt)

    forced = beam_model(N, "shear-input")
    u = _smooth_input(g, rng)
    traj = simulate(forced, g, u=Signal(g, u[:, None]))
    zero = np.zeros(forced.n_dof)
    stepped = checks.stepped_trace_integrals(forced, g.dt, g.n_steps, zero, zero, u)
    failures += checks.compare_trace_integrals(traj.trace, stepped, g.dt)
    return failures


def check_beam_observability(cfg, report, rng):
    N, T = cfg["N"], cfg["T"]
    g = TimeGrid(T, int(round(T / 1e-3)))
    model = beam_model(N, "homogeneous")
    st = random_smooth_state(model, rng)
    traj = simulate(model, g, state0=st)
    failures = checks.compare_energy(checks.beam_energy(model, traj.w, traj.v))
    stepped = checks.stepped_trace_integrals(model, g.dt, g.n_steps, st.w, st.v)
    failures += checks.compare_trace_integrals(traj.trace, stepped, g.dt)

    a, b = beam_model(N, "shear-input").first_order_matrices()
    c = np.zeros(a.shape[0])
    c[: model.n_dof] = model.slope_tip_row
    rows = [(s, float(c @ np.linalg.solve(s * np.eye(a.shape[0]) - a, b[:, 0])), None)
            for s in (1.0, 2.0, 5.0, 10.0)]
    return failures + checks.compare_transfer_table(rows)


def check_long_across(cfg, report, rng):
    return check_grid_maps(cfg, report, rng, 1) + check_compose("across", cfg, report, rng, 1)


# kind, config overrides on top of the full profile, attached check
WORKLOADS = {
    # every small-instance kind at full-profile counts on the 32-step grid:
    # thousands of tiny dense operations, per-call overhead dominates
    "margins": [
        ("quadruple-identities", {"grid": SHORT}, partial(check_grid_maps, instances=3)),
        ("compose-across", {"grid": SHORT}, partial(check_compose, "across", instances=2)),
        ("compose-cross", {"grid": SHORT}, partial(check_compose, "cross", instances=2)),
        ("compose-double", {"grid": SHORT}, partial(check_compose, "double", instances=2)),
        ("k0-sweep", {"grid": SHORT}, partial(check_sweep, "across", instances=2)),
        ("theta0-sweep", {"grid": SHORT}, partial(check_sweep, "cross", instances=2)),
        ("radius", {}, check_radius),
    ],
    # the same node/feedback/gramian code on a long grid with few instances:
    # O(N^2) Toeplitz assembly and dense (N p) x (N m) SVDs and solves dominate
    "long-grid": [
        ("compose-across", {"grid": LONG, "trials": 3}, check_long_across),
        ("compose-cross", {"grid": LONG, "trials": 3}, partial(check_compose, "cross", instances=1)),
        ("compose-double", {"grid": LONG, "trials": 3}, partial(check_compose, "double", instances=1)),
        ("k0-sweep", {"grid": LONG, "trials": 3}, partial(check_sweep, "across", instances=1)),
        ("theta0-sweep", {"grid": LONG, "trials": 3}, partial(check_sweep, "cross", instances=1)),
    ],
    # boundary triples: Dirichlet solves, restriction, feedthrough
    # extrapolation, and the lifted exponential at n = 402; no modal work
    "boundary": [
        ("boundary-feedin", {"N": 200}, check_boundary_feedin),
        ("beam-transfer", {}, check_beam_transfer),
    ],
    # the beam verification drivers at full profile: modal basis, free and
    # forced simulation, trace quadrature; no boundary or grid-map work
    "beam": [
        ("beam-bounds", {}, check_beam_bounds),
        ("beam-observability", {}, check_beam_observability),
    ],
}


def operations(workload: str, seed: int) -> list:
    """[(config for regsys.cli.run, check, check seed)] for one round. Kind
    i of the workload gets program seed `seed + i`, as `regsys --profile`
    numbers its kinds; its check draws from the separate stream
    (seed, i, 1). A check reads the normalized config from the report."""
    return [({"kind": kind, "seed": seed + offset, **overrides}, check, [seed, offset, 1])
            for offset, (kind, overrides, check) in enumerate(WORKLOADS[workload])]
