"""Experiment runner: JSON config in, JSON report out, CSV for traces.

Every experiment kind checks one slice of the library against its stated
tolerances and emits a report whose assertions each carry the tolerance,
the measured value, and the verdict. Randomness is seeded through numpy's
PCG64 generator (named in the report), so identical config and seed give
byte-identical JSON up to the wall_time_s field. The exit status is
nonzero exactly when an assertion fails.
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
    _free_trials,
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
from .grids import Signal, TimeGrid
from .node import Realization, _rel_dev, composition_deviations, io_map, transfer
from .sampling import across_instance, cross_instance, double_instance, random_realization

SCHEMA_VERSION = "1"
GENERATOR = "numpy PCG64"

KINDS = (
    "quadruple-identities",
    "compose-across",
    "compose-cross",
    "compose-double",
    "k0-sweep",
    "theta0-sweep",
    "radius",
    "boundary-feedin",
    "beam-transfer",
    "beam-bounds",
    "beam-observability",
)

_FULL_DEFAULTS = {
    "quadruple-identities": {"trials": 50},
    "compose-across": {"trials": 50},
    "compose-cross": {"trials": 50},
    "compose-double": {"trials": 50},
    "k0-sweep": {"trials": 25},
    "theta0-sweep": {"trials": 25},
    "radius": {"trials": 100},
    "boundary-feedin": {"N": 100, "wave_cells": 32, "gain": 0.5},
    "beam-transfer": {"N": 400},
    "beam-bounds": {"N": 200, "trials": 50, "T": 1.0, "delta": 0.1},
    "beam-observability": {"N": 200, "trials": 50, "T": 4.0},
}

_QUICK_DEFAULTS = {
    "quadruple-identities": {"trials": 12},
    "compose-across": {"trials": 10},
    "compose-cross": {"trials": 10},
    "compose-double": {"trials": 10},
    "k0-sweep": {"trials": 5},
    "theta0-sweep": {"trials": 5},
    "radius": {"trials": 30},
    "boundary-feedin": {"N": 64, "wave_cells": 24, "gain": 0.5},
    "beam-transfer": {"N": 200},
    "beam-bounds": {"N": 96, "trials": 8, "T": 1.0, "delta": 0.1},
    "beam-observability": {"N": 96, "trials": 8, "T": 4.0},
}

_ALLOWED_KEYS = {
    "kind", "seed", "trials", "grid", "N", "T", "delta", "gain",
    "wave_cells", "tolerances",
}


class UsageError(RegsysError):
    """Configuration or invocation problem; nothing was written."""


def _le(name: str, tolerance: float, measured: float) -> dict:
    return {"name": name, "direction": "<=", "tolerance": float(tolerance),
            "measured": float(measured), "passed": bool(measured <= tolerance)}


def _ge(name: str, tolerance: float, measured: float) -> dict:
    return {"name": name, "direction": ">=", "tolerance": float(tolerance),
            "measured": float(measured), "passed": bool(measured >= tolerance)}


def _tol(cfg: dict, name: str, default: float) -> float:
    return float(cfg.get("tolerances", {}).get(name, default))


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
    overall = max(worst.values())
    assertions = [_le("composition_identities", _tol(cfg, "composition_identities", 1e-10), overall)]
    return assertions, {"worst_by_identity": worst, "trials": cfg["trials"]}, {}


# mode -> (instance sampler, composition, attribute of its gain margin)
_MODES = {
    "across": (across_instance, perturb_across, "k0"),
    "cross": (cross_instance, perturb_cross, "theta0"),
    "double": (double_instance, perturb_double, None),
}


def _run_compose(cfg: dict, mode: str):
    rng = np.random.default_rng(cfg["seed"])
    g = _grid(cfg)
    instance, compose, margin = _MODES[mode]
    worst_time = 0.0
    worst_transfer = 0.0
    gains = []
    for _ in range(cfg["trials"]):
        rep = compose(*instance(rng, g), g)
        if margin is not None and getattr(rep, margin) is not None:
            gains.append(getattr(rep, margin))
        worst_time = max(worst_time, rep.deviation_time)
        worst_transfer = max(worst_transfer, rep.deviation_transfer)
    assertions = [
        _le("transfer_identity", _tol(cfg, "transfer_identity", 1e-10), worst_transfer),
        _le("time_identity", _tol(cfg, "time_identity", 1e-9), worst_time),
    ]
    payload = {"trials": cfg["trials"], "worst_time": worst_time,
               "worst_transfer": worst_transfer}
    if gains:
        payload["bound_gain_min"] = min(gains)
        payload["bound_gain_max"] = max(gains)
    return assertions, payload, {}


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
        u, s, vt = np.linalg.svd(mat)
        sig_max = float(s[0])

        direction = rng.standard_normal(mat.shape)
        direction *= 0.99 * s0 / np.linalg.svd(direction, compute_uv=False)[0]
        sig_after = float(np.linalg.svd(mat + direction, compute_uv=False)[-1])
        min_safe_margin = min(min_safe_margin, sig_after / s0)
        if sig_after <= 1e-12 * max(sig_max, 1.0):
            safe_failures += 1

        kill = -s0 * np.outer(u[:, -1], vt[rows - 1, :])
        sig_killed = float(np.linalg.svd(mat + kill, compute_uv=False)[-1])
        if sig_killed > 1e-8 * max(sig_max, 1.0):
            kill_failures += 1
    assertions = [
        _le("safe_perturbation_failures", _tol(cfg, "safe_perturbation_failures", 0), safe_failures),
        _le("rank_one_kill_failures", _tol(cfg, "rank_one_kill_failures", 0), kill_failures),
    ]
    payload = {"trials": cfg["trials"], "min_safe_margin": float(min_safe_margin)}
    return assertions, payload, {}


def _run_gain_sweep(cfg: dict, mode: str):
    rng = np.random.default_rng(cfg["seed"])
    g = _grid(cfg)
    failures_below_bound = 0
    min_margin = np.inf
    first_report = None
    instance, _, margin = _MODES[mode]
    for _ in range(cfg["trials"]):
        rep = robustness_sweep(*instance(rng, g), g, g.t_end, mode)
        if first_report is None:
            first_report = rep
        below = rep.k_values <= rep.bound_gain * (1.0 + 1e-12)
        failures_below_bound += int(np.sum(~rep.within_bound[below]))
        if rep.margin is not None:
            min_margin = min(min_margin, rep.margin)
    assertions = [
        _le("sweep_failures_below_bound", _tol(cfg, "sweep_failures_below_bound", 0),
            failures_below_bound),
        _ge("breakdown_margin", _tol(cfg, "breakdown_margin", 1.0), min_margin),
    ]
    payload = {"trials": cfg["trials"], "bound_kind": margin}
    csvs = {}
    if first_report is not None:
        payload["first_instance"] = first_report.to_json_dict()
        csvs[f"{margin}-sweep.csv"] = first_report.to_csv
    return assertions, payload, csvs


def _smooth_scalar_signal(g: TimeGrid, rng: np.random.Generator) -> Signal:
    t = g.nodes
    vals = np.zeros(len(t))
    for j in range(1, 7):
        vals += (rng.standard_normal() / j) * np.cos(2.0 * np.pi * j * t / g.t_end
                                                     + rng.uniform(0, 2 * np.pi))
    return Signal(g, vals[:, None])


def _run_boundary_feedin(cfg: dict):
    rng = np.random.default_rng(cfg["seed"])
    assertions = []
    payload = {}

    wt = wave_triple(cfg["wave_cells"])
    rep = feed_in_full(wt, lambda_sweep=default_shift_sweep(wt, 18))
    assertions += [
        _le("wave_composite_control", _tol(cfg, "wave_composite_control", 1e-6), rep.deviation_b),
        _le("wave_composite_observation", _tol(cfg, "wave_composite_observation", 1e-6),
            rep.deviation_c),
        _le("wave_composite_feedthrough", _tol(cfg, "wave_composite_feedthrough", 1e-6),
            rep.deviation_d),
    ]
    payload["wave_feedthroughs"] = {k: np.asarray(v).tolist()
                                    for k, v in rep.feedthroughs.items()}

    N = cfg["N"]
    model = beam_model(N, "shear-input")
    bt = model.boundary_triple()
    a_ref, b_ref = model.first_order_matrices()
    rg = restrict_generator(bt)
    assertions.append(_le("beam_restriction", _tol(cfg, "beam_restriction", 1e-12),
                          _rel_dev(rg.a, a_ref)))

    lam0 = 3.0
    b1 = control_operator_from_triple(bt, lam0)
    b2 = control_operator_from_triple(bt, 4.0 * lam0)
    assertions.append(_le("beam_control_operator", _tol(cfg, "beam_control_operator", 1e-6),
                          _rel_dev(b1, b_ref)))
    assertions.append(_le("beam_lambda_independence",
                          _tol(cfg, "beam_lambda_independence", 1e-8),
                          float(np.max(np.abs(b1 - b2)) / max(np.max(np.abs(b_ref)), 1.0))))

    g_sim = TimeGrid(1.0, 1000)
    u = _smooth_scalar_signal(g_sim, rng)
    r_triple = Realization(rg.a, b1, bt.K @ rg.basis, np.zeros((1, 1)))
    y_triple = io_map(r_triple, g_sim, u)
    y_modal = _forced_tip_slopes(model, g_sim, u.values[:, 0].real[None, :])
    assertions.append(_le("beam_trajectory_agreement",
                          _tol(cfg, "beam_trajectory_agreement", 1e-6),
                          _rel_dev(y_triple.values[:, 0], y_modal[0])))

    ests = _feedthrough_estimates(bt, default_shift_sweep(bt, 20), [("primary", "W"), ("primary", "K")])
    for label, est in (("velocity", ests["primary", "W"]), ("slope", ests["primary", "K"])):
        converged = est.converged and est.value is not None
        final_res = float(est.residuals[-1]) if converged else np.inf
        value = float(np.max(np.abs(est.value))) if converged else np.inf
        assertions.append(_le(f"beam_{label}_feedthrough_residual",
                              _tol(cfg, f"beam_{label}_feedthrough_residual", 1e-4), final_res))
        assertions.append(_le(f"beam_{label}_feedthrough_value",
                              _tol(cfg, f"beam_{label}_feedthrough_value", 1e-4), value))
        payload[f"beam_{label}_feedthrough"] = None if not converged else value

    gain = cfg["gain"]
    a_fb, _ = beam_model(N, "shear-feedback", gain).first_order_matrices()
    rg_cl = close_boundary_loop(bt, gain, observation="W")
    assertions.append(_le("beam_closed_loop", _tol(cfg, "beam_closed_loop", 1e-10),
                          _rel_dev(rg_cl.a, a_fb)))
    ev_triple = np.linalg.eigvals(rg_cl.a)
    roots = _closed_loop_roots(model, gain, ev_triple)
    eig_dev = (np.inf if roots is None
               else float(np.max(np.abs(ev_triple - roots) / (1.0 + np.abs(roots)))))
    assertions.append(_le("beam_closed_loop_eigenvalues",
                          _tol(cfg, "beam_closed_loop_eigenvalues", 1e-6), eig_dev))
    payload["N"] = N
    payload["gain"] = gain
    return assertions, payload, {}


def _run_beam_transfer(cfg: dict):
    N = cfg["N"]
    svals = np.logspace(np.log10(0.1), 4.0, 60)
    prods = np.array([transfer_bound_products(s) for s in svals])
    assertions = [
        _le("scaled_H_bound", _tol(cfg, "scaled_H_bound", 5.0), float(np.max(prods[:, 0]))),
        _le("scaled_H1_bound", _tol(cfg, "scaled_H1_bound", 2.0), float(np.max(prods[:, 1]))),
    ]
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
    assertions.append(_le("discrete_transfer_match",
                          _tol(cfg, "discrete_transfer_match", 0.02), worst_rel))
    payload = {"N": N, "table": table,
               "H1_static": beam_transfer_H1(1e-8), "H_static": beam_transfer_H(1e-8)}
    return assertions, payload, {}


def _run_beam_bounds(cfg: dict):
    seed = cfg["seed"]
    N, T, delta, trials = cfg["N"], cfg["T"], cfg["delta"], cfg["trials"]
    adm = verify_admissibility_bound(N, T, trials, seed=seed)
    wp = verify_wellposedness_bound(N, T, delta, trials, seed=seed + 1)

    # the drift loop and the top refinement level share one model and basis
    model = beam_model(N, "homogeneous")
    _, _, drift = _free_trials(model, TimeGrid(4.0, 2000),
                               np.random.default_rng(seed + 2), min(trials, 10))
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

    assertions = [
        _le("admissibility_ratio", _tol(cfg, "admissibility_ratio", 1.05), adm["worst_ratio"]),
        _le("wellposedness_ratio", _tol(cfg, "wellposedness_ratio", 1.05), wp["worst_ratio"]),
        _le("wellposedness_constant_error", _tol(cfg, "wellposedness_constant_error", 1e-12),
            abs(wellposedness_constant(1.0, 0.1) - 10.1)),
        _le("energy_drift", _tol(cfg, "energy_drift", 1e-8), worst_drift),
        _le("multiplier_refinement_ratio", _tol(cfg, "multiplier_refinement_ratio", 0.6),
            max(ratios)),
    ]
    payload = {"admissibility": adm, "wellposedness": wp,
               "multiplier_residuals": residuals, "refinement_levels": levels,
               "worst_energy_drift": worst_drift}
    csvs = {"beam-bounds.csv": first_trace.to_csv} if first_trace is not None else {}
    return assertions, payload, csvs


def _run_beam_observability(cfg: dict):
    rep = verify_observability(cfg["N"], cfg["T"], cfg["trials"], seed=cfg["seed"])
    assertions = [_ge("observability_ratio", _tol(cfg, "observability_ratio", 0.95),
                      rep["worst_ratio"])]
    return assertions, rep, {}


_RUNNERS = {
    "quadruple-identities": _run_quadruple_identities,
    "compose-across": lambda cfg: _run_compose(cfg, "across"),
    "compose-cross": lambda cfg: _run_compose(cfg, "cross"),
    "compose-double": lambda cfg: _run_compose(cfg, "double"),
    "k0-sweep": lambda cfg: _run_gain_sweep(cfg, "across"),
    "theta0-sweep": lambda cfg: _run_gain_sweep(cfg, "cross"),
    "radius": _run_radius,
    "boundary-feedin": _run_boundary_feedin,
    "beam-transfer": _run_beam_transfer,
    "beam-bounds": _run_beam_bounds,
    "beam-observability": _run_beam_observability,
}


def _normalize_config(raw: dict, profile: str = "full") -> dict:
    if not isinstance(raw, dict):
        raise UsageError("config must be a JSON object")
    unknown = set(raw) - _ALLOWED_KEYS
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    kind = raw.get("kind")
    if kind not in KINDS:
        raise UsageError(f"kind must be one of {list(KINDS)}, got {kind!r}")
    defaults = (_QUICK_DEFAULTS if profile == "quick" else _FULL_DEFAULTS)[kind]
    cfg = dict(defaults)
    cfg["kind"] = kind
    cfg["seed"] = raw.get("seed", 0)
    if not isinstance(cfg["seed"], int) or cfg["seed"] < 0:
        raise UsageError(f"seed must be a nonnegative integer, got {cfg['seed']!r}")
    for key in ("trials", "N", "wave_cells"):
        if key in raw:
            value = raw[key]
            if not isinstance(value, int) or value < 1:
                raise UsageError(f"{key} must be a positive integer, got {value!r}")
            cfg[key] = value
    for key in ("T", "delta", "gain"):
        if key in raw:
            value = raw[key]
            if not isinstance(value, (int, float)) or value <= 0:
                raise UsageError(f"{key} must be positive, got {value!r}")
            cfg[key] = float(value)
    if "grid" in raw:
        if not isinstance(raw["grid"], dict):
            raise UsageError("grid must be an object with t_end and n_steps")
        cfg["grid"] = raw["grid"]
    tolerances = raw.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise UsageError("tolerances must be an object of name: positive number")
    for name, value in tolerances.items():
        if not isinstance(value, (int, float)) or value < 0:
            raise UsageError(f"tolerance {name!r} must be nonnegative, got {value!r}")
    cfg["tolerances"] = dict(tolerances)
    return cfg


def run(config: dict, out_dir: str | Path | None = None, profile: str = "full") -> dict:
    """Execute one experiment; returns the report dict.

    Writes <kind>.json (and any CSV traces) into out_dir when given. The
    report is fully deterministic for a fixed config except wall_time_s.
    """
    cfg = _normalize_config(config, profile)
    start = time.perf_counter()
    assertions, payload, csvs = _RUNNERS[cfg["kind"]](cfg)
    wall = time.perf_counter() - start
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
    return json.dumps(_sanitize(doc), indent=2, sort_keys=True, allow_nan=False,
                      default=_json_default)


def _json_default(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        v = float(value)
        if not np.isfinite(v):
            return repr(v)
        return v
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, float) and not np.isfinite(value):
        return repr(value)
    raise TypeError(f"not JSON serializable: {type(value)}")


def _sanitize(doc):
    """Replace non-finite floats so allow_nan=False cannot reject them."""
    if isinstance(doc, dict):
        return {k: _sanitize(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_sanitize(v) for v in doc]
    if isinstance(doc, (float, np.floating)) and not np.isfinite(doc):
        return repr(float(doc))
    return doc


def suite(profile: str, seed: int = 0, out_dir: str | Path | None = None) -> dict:
    """Run every experiment kind at the profile's trial counts."""
    if profile not in ("quick", "full"):
        raise UsageError(f"profile must be 'quick' or 'full', got {profile!r}")
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
    except RegsysError as exc:
        parser.exit(2, f"error: experiment refused: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
