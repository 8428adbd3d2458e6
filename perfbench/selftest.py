"""Self-test of the benchmark's checks: each must accept the program's
genuine result and reject a deliberately perturbed one.

    python3 perfbench/selftest.py

Run from the root of a checkout; uses small instances and takes a few
seconds. Exit status 0 when every check behaves.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from regsys import (  # noqa: E402
    Realization,
    TimeGrid,
    across_instance,
    beam_model,
    close_boundary_loop,
    control_operator_from_triple,
    cross_instance,
    perturb_across,
    quadruple_maps,
    random_realization,
    random_smooth_state,
    robustness_sweep,
    simulate,
    surjectivity_radius,
)
from regsys.cli import run  # noqa: E402


def cases():
    """(check name, failures on the genuine result, failures on a perturbed one)"""
    rng = np.random.default_rng(11)
    g = TimeGrid(1.5, 32)

    r = random_realization(rng, 5, 2, 3, grid=g)
    qm = quadruple_maps(r, g)
    ref = checks.reference_maps(r.A, r.B, r.C, r.D, g.dt, g.n_steps)
    io = qm.io_map.copy()
    io[7, 2] *= 1.0 + 1e-8
    yield "grid maps", checks.compare_maps(qm, ref), checks.compare_maps(dataclasses.replace(qm, io_map=io), ref)

    systems = across_instance(rng, g)
    closed = perturb_across(*systems, g).closed_loop
    bad = Realization(closed.A, closed.B * (1.0 + 1e-6), closed.C, closed.D)
    yield ("transfer identity", checks.compare_closed_loop("across", systems, closed),
           checks.compare_closed_loop("across", systems, bad))

    for mode, sample in (("across", across_instance), ("cross", cross_instance)):
        main, pert = sample(rng, g)
        rep = robustness_sweep(main, pert, g, g.t_end, mode)
        ref = checks.reference_sweep(mode, main, pert, g.dt, g.n_steps, rep.k_values)
        sigma = rep.sigma_min.copy()
        inside = np.flatnonzero(rep.k_values <= ref["bound_gain"])
        k = inside[len(inside) // 2]
        sigma[k] = ref["bound"][k] - 1e-3 * ref["level"]
        # the reference moves with it, so only the Weyl-bound property can object
        yield (f"Weyl bound ({mode})", checks.compare_sweep(rep, ref),
               checks.compare_sweep(dataclasses.replace(rep, sigma_min=sigma), dict(ref, sigma=sigma)))

    mat = rng.standard_normal((3, 5))
    s0 = surjectivity_radius(mat)
    yield "radius", checks.compare_radius(s0, mat), checks.compare_radius(s0 * (1.0 + 1e-6), mat)

    report = run({"kind": "boundary-feedin", "N": 24, "seed": 1})
    feed = dict(report["payload"]["wave_feedthroughs"])
    bad = dict(feed, w_bar_secondary=[[feed["w_bar_secondary"][0][0] + 1e-4]])
    yield "wave composite", checks.compare_wave_feedthroughs(feed), checks.compare_wave_feedthroughs(bad)

    bt = beam_model(24, "shear-input").boundary_triple()
    b = control_operator_from_triple(bt, 3.0)
    yield "beam control operator", checks.compare_beam_control(b, 24), checks.compare_beam_control(b * (1 + 1e-5), 24)

    a_cl = close_boundary_loop(bt, 0.5, "W").a
    shift = abs(np.max(np.linalg.eigvals(a_cl).real)) + 1e-3
    yield ("closed-loop spectrum", checks.compare_closed_loop_spectrum(a_cl),
           checks.compare_closed_loop_spectrum(a_cl + shift * np.eye(a_cl.shape[0])))

    report = run({"kind": "beam-transfer", "N": 200, "seed": 1})
    rows = [(row["s"], row["discrete"], row["abs_H"]) for row in report["payload"]["table"]]
    yield ("discrete transfer", checks.compare_transfer_table(rows),
           checks.compare_transfer_table([(s, d * 1.03, h) for s, d, h in rows]))
    yield ("reported |H|", checks.compare_transfer_table(rows),
           checks.compare_transfer_table([(s, d, h * (1 + 1e-8)) for s, d, h in rows]))

    model = beam_model(40, "homogeneous")
    gb = TimeGrid(1.0, 1000)
    st = random_smooth_state(model, rng)
    traj = simulate(model, gb, state0=st)
    energies = checks.beam_energy(model, traj.w, traj.v)
    drifted = energies.copy()
    drifted[-1] *= 1.0 + 1e-7
    yield "energy conservation", checks.compare_energy(energies), checks.compare_energy(drifted)

    stepped = checks.stepped_trace_integrals(model, gb.dt, gb.n_steps, st.w, st.v)
    for field in ("w_x_1", "w_xx_0"):
        bad = dataclasses.replace(traj.trace, **{field: getattr(traj.trace, field) * (1 + 1e-7)})
        yield (f"trace integral {field}", checks.compare_trace_integrals(traj.trace, stepped, gb.dt),
               checks.compare_trace_integrals(bad, stepped, gb.dt))


def main() -> int:
    ok = True
    for name, genuine, perturbed in cases():
        good = not genuine and bool(perturbed)
        ok = ok and good
        detail = "; ".join(genuine) if genuine else (perturbed[0] if perturbed else "perturbation accepted")
        print(f"{'PASS' if good else 'FAIL'} {name}: {detail}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
