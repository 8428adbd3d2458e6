"""Experiment runner: JSON config in, JSON report out, CSV for traces.

Every experiment kind checks one slice of the library against its stated
tolerances and emits a report whose assertions each carry the tolerance,
the measured value, and the verdict. Randomness is seeded through numpy's
PCG64 generator (named in the report), so identical config and seed give
byte-identical JSON up to the wall_time_s field. The exit status is 1
when an assertion fails and 2 when the config or the library refuses the
experiment.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .beam import (
    BeamState,
    _closed_loop_roots,
    _forced_tip_slopes,
    _free_states,
    _smooth_input,
    beam_model,
    beam_transfer_H,
    beam_transfer_H1,
    rho1_derivative_check,
    rho_derivative_check,
    simulate,
    transfer_bound_products,
    verify_admissibility_bound,
    verify_observability,
    verify_wellposedness_bound,
    wellposedness_constant,
)
from .boundary import (
    _feedthrough_estimates,
    close_boundary_loop,
    control_operator_from_triple,
    default_shift_sweep,
    feed_in_full,
    restrict_generator,
    wave_triple,
)
from .errors import RegsysError
from .feedback import perturb_across, perturb_cross, perturb_double
from .gramian import (
    robustness_sweep,
    surjectivity_radius,
)
from .grids import TimeGrid
from .node import Realization, _exactness, _rel_dev, _spectral_norm, composition_deviations, io_map, transfer
from .sampling import across_instance, cross_instance, double_instance, random_realization

SCHEMA_VERSION = "1"
GENERATOR = "numpy PCG64"

_ALLOWED_KEYS = {
    "kind", "seed", "trials", "grid", "N", "T", "delta", "gain",
    "wave_cells", "tolerances",
}


class UsageError(RegsysError):
    """Configuration or invocation problem; nothing was written."""


def _grid(cfg: dict, t_end: float = 1.5, n_steps: int = 32) -> TimeGrid:
    spec = cfg.get("grid") or {}
    return TimeGrid(float(spec.get("t_end", t_end)), int(spec.get("n_steps", n_steps)))


def _run_quadruple_identities(cfg: dict):
    rng = np.random.default_rng(cfg["seed"])
    g = _grid(cfg, 1.5, 24)
    worst = {"semigroup": 0.0, "input": 0.0, "output": 0.0, "io": 0.0}
    for _ in range(cfg["trials"]):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 4))
        p = int(rng.integers(1, 4))
        r = random_realization(rng, n, m, p)
        split = int(rng.integers(1, g.n_steps))
        dev = composition_deviations(r, g, split)
        for key in worst:
            worst[key] = max(worst[key], dev[key])
    return ({"composition_identities": max(worst.values())},
            {"worst_by_identity": worst, "trials": cfg["trials"]}, {})


def _run_compose(cfg: dict, instance, compose, margin: str | None):
    """Compose `trials` draws of the sampler `instance`; `margin` names the
    report's gain margin attribute, if it has one."""
    rng = np.random.default_rng(cfg["seed"])
    g = _grid(cfg)
    worst_time = 0.0
    worst_transfer = 0.0
    gains = []
    for _ in range(cfg["trials"]):
        rep = compose(*instance(rng, g), g)
        if margin is not None and getattr(rep, margin) is not None:
            gains.append(getattr(rep, margin))
        worst_time = max(worst_time, rep.deviation_time)
        worst_transfer = max(worst_transfer, rep.deviation_transfer)
    payload = {"trials": cfg["trials"], "worst_time": worst_time,
               "worst_transfer": worst_transfer}
    if gains:
        payload["bound_gain_min"] = min(gains)
        payload["bound_gain_max"] = max(gains)
    return {"transfer_identity": worst_transfer, "time_identity": worst_time}, payload, {}


def _run_radius(cfg: dict):
    rng = np.random.default_rng(cfg["seed"])
    safe_failures = 0
    kill_failures = 0
    min_safe_margin = np.inf
    for _ in range(cfg["trials"]):
        rows = int(rng.integers(1, 6))
        cols = rows + int(rng.integers(0, 4))
        mat = rng.standard_normal((rows, cols))
        s0 = surjectivity_radius(mat)
        u, _, vt = np.linalg.svd(mat)

        # verdicts by the one exactness rule: a perturbation of norm 0.99 s0
        # keeps mat onto, the rank-one one of norm s0 makes it not onto
        direction = rng.standard_normal(mat.shape)
        direction *= 0.99 * s0 / _spectral_norm(direction)
        sig_after, _, onto = _exactness(mat + direction, True)
        min_safe_margin = min(min_safe_margin, sig_after / s0)
        safe_failures += not onto

        kill = -s0 * np.outer(u[:, -1], vt[rows - 1, :])
        kill_failures += _exactness(mat + kill, True)[2]
    payload = {"trials": cfg["trials"], "min_safe_margin": float(min_safe_margin)}
    return ({"safe_perturbation_failures": safe_failures, "rank_one_kill_failures": kill_failures},
            payload, {})


def _run_gain_sweep(cfg: dict, instance, mode: str, margin: str):
    rng = np.random.default_rng(cfg["seed"])
    g = _grid(cfg)
    failures_below_bound = 0
    min_margin = np.inf
    first_report = None
    for _ in range(cfg["trials"]):
        rep = robustness_sweep(*instance(rng, g), g, g.t_end, mode)
        if first_report is None:
            first_report = rep
        below = rep.k_values <= rep.bound_gain * (1.0 + 1e-12)
        failures_below_bound += int(np.sum(~rep.within_bound[below]))
        if rep.margin is not None:
            min_margin = min(min_margin, rep.margin)
    payload = {"trials": cfg["trials"], "bound_kind": margin}
    csvs = {}
    if first_report is not None:
        payload["first_instance"] = first_report.to_json_dict()
        csvs[f"{margin}-sweep.csv"] = first_report.to_csv
    return ({"sweep_failures_below_bound": failures_below_bound, "breakdown_margin": min_margin},
            payload, csvs)


def _run_boundary_feedin(cfg: dict):
    rng = np.random.default_rng(cfg["seed"])
    wt = wave_triple(cfg["wave_cells"])
    rep = feed_in_full(wt, lambda_sweep=default_shift_sweep(wt, 18))
    measured = {"wave_composite_control": rep.deviation_b,
                "wave_composite_observation": rep.deviation_c,
                "wave_composite_feedthrough": rep.deviation_d}
    payload = {"wave_feedthroughs": {k: np.asarray(v).tolist() for k, v in rep.feedthroughs.items()}}

    N = cfg["N"]
    model = beam_model(N, "shear-input")
    bt = model.boundary_triple()
    a_ref, b_ref = model.first_order_matrices()
    rg = restrict_generator(bt)
    measured["beam_restriction"] = _rel_dev(rg.a, a_ref)

    lam0 = 3.0
    b1 = control_operator_from_triple(bt, lam0)
    b2 = control_operator_from_triple(bt, 4.0 * lam0)
    measured["beam_control_operator"] = _rel_dev(b1, b_ref)
    measured["beam_lambda_independence"] = np.max(np.abs(b1 - b2)) / max(np.max(np.abs(b_ref)), 1.0)

    g_sim = TimeGrid(1.0, 1000)
    u = _smooth_input(g_sim, rng, 6)
    r_triple = Realization(rg.a, b1, bt.K @ rg.basis, np.zeros((1, 1)))
    y_triple = io_map(r_triple, g_sim, u)
    y_modal = _forced_tip_slopes(model, g_sim, u.values[:, 0].real[None, :])
    measured["beam_trajectory_agreement"] = _rel_dev(y_triple.values[:, 0], y_modal[0])

    ests = _feedthrough_estimates(bt, default_shift_sweep(bt, 20), [("primary", "W"), ("primary", "K")])
    for label, est in (("velocity", ests["primary", "W"]), ("slope", ests["primary", "K"])):
        converged = est.converged and est.value is not None
        value = float(np.max(np.abs(est.value))) if converged else np.inf
        measured[f"beam_{label}_feedthrough_residual"] = est.residuals[-1] if converged else np.inf
        measured[f"beam_{label}_feedthrough_value"] = value
        payload[f"beam_{label}_feedthrough"] = value if converged else None

    gain = cfg["gain"]
    a_fb, _ = beam_model(N, "shear-feedback", gain).first_order_matrices()
    rg_cl = close_boundary_loop(bt, gain, observation="W")
    measured["beam_closed_loop"] = _rel_dev(rg_cl.a, a_fb)
    ev_triple = np.linalg.eigvals(rg_cl.a)
    roots = _closed_loop_roots(model, gain, ev_triple)
    measured["beam_closed_loop_eigenvalues"] = (
        np.inf if roots is None else np.max(np.abs(ev_triple - roots) / (1.0 + np.abs(roots))))
    payload["N"] = N
    payload["gain"] = gain
    return measured, payload, {}


def _run_beam_transfer(cfg: dict):
    N = cfg["N"]
    svals = np.logspace(np.log10(0.1), 4.0, 60)
    prods = np.array([transfer_bound_products(s) for s in svals])
    r = beam_model(N, "shear-input").realization()
    table = []
    worst_rel = 0.0
    for s in (1.0, 2.0, 5.0, 10.0):
        exact = beam_transfer_H(s)
        disc = float(transfer(r, s)[0, 0].real)
        rel = abs(disc - exact) / abs(exact)
        worst_rel = max(worst_rel, rel)
        table.append({"s": s, "abs_H": abs(exact), "bound_5_over_s": 5.0 / s,
                      "discrete": disc, "relative_error": rel})
    measured = {"scaled_H_bound": np.max(prods[:, 0]), "scaled_H1_bound": np.max(prods[:, 1]),
                "discrete_transfer_match": worst_rel}
    payload = {"N": N, "table": table,
               "H1_static": beam_transfer_H1(1e-8), "H_static": beam_transfer_H(1e-8)}
    return measured, payload, {}


def _run_beam_bounds(cfg: dict):
    seed = cfg["seed"]
    N, T, delta, trials = cfg["N"], cfg["T"], cfg["delta"], cfg["trials"]
    # both bounds, the drift loop and the top refinement level share one
    # model and basis; the drift loop reads F(0) and its certificate only
    model = beam_model(N, "homogeneous")
    adm = verify_admissibility_bound(N, T, trials, seed=seed, model=model)
    wp = verify_wellposedness_bound(N, T, delta, trials, seed=seed + 1, model=model)
    *_, drift = _free_states(model, np.random.default_rng(seed + 2), min(trials, 10))
    worst_drift = float(np.max(drift))

    residuals = {"rho": [], "rho1": []}
    levels = [max(N // 4, 8), max(N // 2, 8), N]
    first_trace = None
    for level in levels:
        mm = model if level == N else beam_model(level, "homogeneous")
        omega, V = mm.modal_basis()
        st = BeamState(V[:, 0] / omega[0], np.zeros(mm.n_dof))
        traj = simulate(mm, TimeGrid(0.5, 10 * level), state0=st)
        if first_trace is None:
            first_trace = traj.trace
        residuals["rho"].append(rho_derivative_check(traj))
        residuals["rho1"].append(rho1_derivative_check(traj))
    ratios = [residuals[key][i + 1] / residuals[key][i]
              for key in residuals for i in range(len(levels) - 1)]

    measured = {"admissibility_ratio": adm["worst_ratio"], "wellposedness_ratio": wp["worst_ratio"],
                "wellposedness_constant_error": abs(wellposedness_constant(1.0, 0.1) - 10.1),
                "energy_drift": worst_drift, "multiplier_refinement_ratio": max(ratios)}
    payload = {"admissibility": adm, "wellposedness": wp,
               "multiplier_residuals": residuals, "refinement_levels": levels,
               "worst_energy_drift": worst_drift}
    csvs = {"beam-bounds.csv": first_trace.to_csv} if first_trace is not None else {}
    return measured, payload, csvs


def _run_beam_observability(cfg: dict):
    rep = verify_observability(cfg["N"], cfg["T"], cfg["trials"], seed=cfg["seed"])
    return {"observability_ratio": rep["worst_ratio"]}, rep, {}


# A check is (assertion name, direction, default tolerance). Each runner
# returns ({name: measured}, payload, {csv name: writer}) and run() turns the
# measurements into the report's assertions in the order of its kind's checks.
_COMPOSE_CHECKS = (("transfer_identity", "<=", 1e-10), ("time_identity", "<=", 1e-9))
_SWEEP_CHECKS = (("sweep_failures_below_bound", "<=", 0), ("breakdown_margin", ">=", 1.0))

# kind -> (runner, full-profile defaults, quick-profile defaults, checks), in
# suite order: suite() seeds kind i with seed + i. The lambdas look up the
# samplers and compositions when they run, so a rebinding in this module
# (a tracer's wrapper, a test's spy) is seen.
_KINDS = {
    "quadruple-identities": (_run_quadruple_identities, {"trials": 50}, {"trials": 12},
                             (("composition_identities", "<=", 1e-10),)),
    "compose-across": (lambda cfg: _run_compose(cfg, across_instance, perturb_across, "k0"),
                       {"trials": 50}, {"trials": 10}, _COMPOSE_CHECKS),
    "compose-cross": (lambda cfg: _run_compose(cfg, cross_instance, perturb_cross, "theta0"),
                      {"trials": 50}, {"trials": 10}, _COMPOSE_CHECKS),
    "compose-double": (lambda cfg: _run_compose(cfg, double_instance, perturb_double, None),
                       {"trials": 50}, {"trials": 10}, _COMPOSE_CHECKS),
    "k0-sweep": (lambda cfg: _run_gain_sweep(cfg, across_instance, "across", "k0"),
                 {"trials": 25}, {"trials": 5}, _SWEEP_CHECKS),
    "theta0-sweep": (lambda cfg: _run_gain_sweep(cfg, cross_instance, "cross", "theta0"),
                     {"trials": 25}, {"trials": 5}, _SWEEP_CHECKS),
    "radius": (_run_radius, {"trials": 100}, {"trials": 30},
               (("safe_perturbation_failures", "<=", 0), ("rank_one_kill_failures", "<=", 0))),
    "boundary-feedin": (_run_boundary_feedin, {"N": 100, "wave_cells": 32, "gain": 0.5},
                        {"N": 64, "wave_cells": 24, "gain": 0.5},
                        (("wave_composite_control", "<=", 1e-6), ("wave_composite_observation", "<=", 1e-6),
                         ("wave_composite_feedthrough", "<=", 1e-6), ("beam_restriction", "<=", 1e-12),
                         ("beam_control_operator", "<=", 1e-6), ("beam_lambda_independence", "<=", 1e-8),
                         ("beam_trajectory_agreement", "<=", 1e-6),
                         ("beam_velocity_feedthrough_residual", "<=", 1e-4),
                         ("beam_velocity_feedthrough_value", "<=", 1e-4),
                         ("beam_slope_feedthrough_residual", "<=", 1e-4),
                         ("beam_slope_feedthrough_value", "<=", 1e-4),
                         ("beam_closed_loop", "<=", 1e-10), ("beam_closed_loop_eigenvalues", "<=", 1e-6))),
    "beam-transfer": (_run_beam_transfer, {"N": 400}, {"N": 200},
                      (("scaled_H_bound", "<=", 5.0), ("scaled_H1_bound", "<=", 2.0),
                       ("discrete_transfer_match", "<=", 0.02))),
    "beam-bounds": (_run_beam_bounds, {"N": 200, "trials": 50, "T": 1.0, "delta": 0.1},
                    {"N": 96, "trials": 8, "T": 1.0, "delta": 0.1},
                    (("admissibility_ratio", "<=", 1.05), ("wellposedness_ratio", "<=", 1.05),
                     ("wellposedness_constant_error", "<=", 1e-12), ("energy_drift", "<=", 1e-8),
                     ("multiplier_refinement_ratio", "<=", 0.6))),
    "beam-observability": (_run_beam_observability, {"N": 200, "trials": 50, "T": 4.0},
                           {"N": 96, "trials": 8, "T": 4.0}, (("observability_ratio", ">=", 0.95),)),
}
KINDS = tuple(_KINDS)


def _normalize_config(raw: dict, profile: str = "full") -> dict:
    if profile not in ("quick", "full"):
        raise UsageError(f"profile must be 'quick' or 'full', got {profile!r}")
    if not isinstance(raw, dict):
        raise UsageError("config must be a JSON object")
    unknown = set(raw) - _ALLOWED_KEYS
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    kind = raw.get("kind")
    if kind not in KINDS:
        raise UsageError(f"kind must be one of {list(KINDS)}, got {kind!r}")
    _, full, quick, checks = _KINDS[kind]
    cfg = dict(quick if profile == "quick" else full)
    cfg["kind"] = kind
    cfg["seed"] = raw.get("seed", 0)
    # type(), not isinstance: bool subclasses int, and JSON true/false are no numbers
    if type(cfg["seed"]) is not int or cfg["seed"] < 0:
        raise UsageError(f"seed must be a nonnegative integer, got {cfg['seed']!r}")
    grid = raw.get("grid", {})
    if not isinstance(grid, dict) or not set(grid) <= {"t_end", "n_steps"}:
        raise UsageError(f"grid must be an object with keys t_end and n_steps, got {grid!r}")
    for key, value in (*raw.items(), *grid.items()):
        if key in ("trials", "N", "wave_cells", "n_steps") and (type(value) is not int or value < 1):
            raise UsageError(f"{key} must be a positive integer, got {value!r}")
        # JSON admits NaN and Infinity; the chained test refuses both
        if key in ("T", "delta", "gain", "t_end") and (type(value) not in (int, float)
                                                       or not 0 < value < np.inf):
            raise UsageError(f"{key} must be positive and finite, got {value!r}")
    cfg.update((key, raw[key]) for key in ("trials", "N", "wave_cells", "grid") if key in raw)
    cfg.update((key, float(raw[key])) for key in ("T", "delta", "gain") if key in raw)
    tolerances = raw.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise UsageError("tolerances must be an object of name: nonnegative number")
    names = [name for name, _, _ in checks]
    unknown = set(tolerances) - set(names)
    if unknown:
        raise UsageError(f"unknown tolerances for {kind}: {sorted(unknown)}; it checks {names}")
    for name, value in tolerances.items():
        if type(value) not in (int, float) or not 0 <= value < np.inf:
            raise UsageError(f"tolerance {name!r} must be nonnegative and finite, got {value!r}")
    cfg["tolerances"] = dict(tolerances)
    return cfg


def run(config: dict, out_dir: str | Path | None = None, profile: str = "full") -> dict:
    """Execute one experiment; returns the report dict.

    Writes <kind>.json (and any CSV traces) into out_dir when given. The
    report is fully deterministic for a fixed config except wall_time_s.
    """
    cfg = _normalize_config(config, profile)
    runner, _, _, checks = _KINDS[cfg["kind"]]
    start = time.perf_counter()
    measured, payload, csvs = runner(cfg)
    wall = time.perf_counter() - start
    assertions = []
    for name, direction, default in checks:
        tol, value = float(cfg["tolerances"].get(name, default)), float(measured[name])
        assertions.append({"name": name, "direction": direction, "tolerance": tol, "measured": value,
                           "passed": bool(value <= tol if direction == "<=" else value >= tol)})
    report = {
        "schema_version": SCHEMA_VERSION,
        "package_version": __version__,
        "kind": cfg["kind"],
        "generator": GENERATOR,
        "config": {k: v for k, v in cfg.items() if k != "kind"},
        "assertions": assertions,
        "payload": payload,
        "passed": all(a["passed"] for a in assertions),
        "wall_time_s": wall,
    }
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{cfg['kind']}.json").write_text(_dumps(report) + "\n")
        for fname, writer in csvs.items():
            writer(out / fname)
    return report


def _dumps(doc: dict) -> str:
    return json.dumps(_plain(doc), indent=2, sort_keys=True, allow_nan=False)


def _plain(doc):
    """doc with numpy values as Python ones and every non-finite float as
    its repr, so allow_nan=False cannot reject it."""
    if isinstance(doc, np.ndarray):
        doc = doc.tolist()
    if isinstance(doc, dict):
        return {k: _plain(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_plain(v) for v in doc]
    if isinstance(doc, np.integer):
        return int(doc)
    if isinstance(doc, (float, np.floating)):
        return float(doc) if np.isfinite(doc) else repr(float(doc))
    return doc


def suite(profile: str, seed: int = 0, out_dir: str | Path | None = None) -> dict:
    """Run every experiment kind at the profile's trial counts."""
    start = time.perf_counter()
    kinds = {}
    all_passed = True
    for offset, kind in enumerate(KINDS):
        report = run({"kind": kind, "seed": seed + offset}, out_dir=out_dir, profile=profile)
        kinds[kind] = {"passed": report["passed"], "wall_time_s": report["wall_time_s"]}
        all_passed = all_passed and report["passed"]
    aggregate = {
        "schema_version": SCHEMA_VERSION,
        "package_version": __version__,
        "profile": profile,
        "seed": seed,
        "kinds": kinds,
        "passed": all_passed,
        "wall_time_s": time.perf_counter() - start,
    }
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "suite.json").write_text(_dumps(aggregate) + "\n")
    return aggregate


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="regsys",
        description="Run reproducible verification experiments for the toolkit.",
    )
    parser.add_argument("--config", type=str, help="JSON experiment config path")
    parser.add_argument("--out", type=str, default=None, help="output directory for reports")
    parser.add_argument("--profile", choices=("quick", "full"), default=None,
                        help="run the whole suite at this profile")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--version", action="version", version=__version__)
    args = parser.parse_args(argv)

    if (args.config is None) == (args.profile is None):
        parser.error("exactly one of --config or --profile is required")

    try:
        if args.config is not None:
            try:
                text = Path(args.config).read_text()
            except OSError as exc:
                raise UsageError(f"cannot read config: {exc}") from exc
            try:
                raw = json.loads(text)
            except json.JSONDecodeError as exc:
                raise UsageError(f"malformed JSON config: {exc}") from exc
            if args.seed is not None:
                if not isinstance(raw, dict):
                    raise UsageError("config must be a JSON object")
                raw = dict(raw)
                raw["seed"] = args.seed
            report = run(raw, out_dir=args.out)
            sys.stdout.write(_dumps(report) + "\n")
            return 0 if report["passed"] else 1
        report = suite(args.profile, seed=args.seed if args.seed is not None else 0,
                       out_dir=args.out)
        sys.stdout.write(_dumps(report) + "\n")
        return 0 if report["passed"] else 1
    except UsageError as exc:
        parser.exit(2, f"error: {exc}\n")
    except (RegsysError, ValueError) as exc:
        # the library refuses arguments it cannot use with ValueError too
        parser.exit(2, f"error: experiment refused: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
