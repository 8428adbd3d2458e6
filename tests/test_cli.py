import json

import numpy as np
import pytest

from regsys.cli import KINDS, main, run, suite
from regsys.errors import ControllabilityError

# quick-profile trial counts keep each kind below a second or two
QUICK = "quick"


def strip_wall_time(doc):
    return {k: v for k, v in doc.items() if k != "wall_time_s"}


# kind -> its report assertions in order: (name, direction, default tolerance)
CHECKS = {
    "quadruple-identities": [("composition_identities", "<=", 1e-10)],
    **{kind: [("transfer_identity", "<=", 1e-10), ("time_identity", "<=", 1e-9)]
       for kind in ("compose-across", "compose-cross", "compose-double")},
    **{kind: [("sweep_failures_below_bound", "<=", 0.0), ("breakdown_margin", ">=", 1.0)]
       for kind in ("k0-sweep", "theta0-sweep")},
    "radius": [("safe_perturbation_failures", "<=", 0.0), ("rank_one_kill_failures", "<=", 0.0)],
    "boundary-feedin": [
        ("wave_composite_control", "<=", 1e-6),
        ("wave_composite_observation", "<=", 1e-6),
        ("wave_composite_feedthrough", "<=", 1e-6),
        ("beam_restriction", "<=", 1e-12),
        ("beam_control_operator", "<=", 1e-6),
        ("beam_lambda_independence", "<=", 1e-8),
        ("beam_trajectory_agreement", "<=", 1e-6),
        ("beam_velocity_feedthrough_residual", "<=", 1e-4),
        ("beam_velocity_feedthrough_value", "<=", 1e-4),
        ("beam_slope_feedthrough_residual", "<=", 1e-4),
        ("beam_slope_feedthrough_value", "<=", 1e-4),
        ("beam_closed_loop", "<=", 1e-10),
        ("beam_closed_loop_eigenvalues", "<=", 1e-6),
    ],
    "beam-transfer": [("scaled_H_bound", "<=", 5.0), ("scaled_H1_bound", "<=", 2.0),
                      ("discrete_transfer_match", "<=", 0.02)],
    "beam-bounds": [("admissibility_ratio", "<=", 1.05), ("wellposedness_ratio", "<=", 1.05),
                    ("wellposedness_constant_error", "<=", 1e-12), ("energy_drift", "<=", 1e-8),
                    ("multiplier_refinement_ratio", "<=", 0.6)],
    "beam-observability": [("observability_ratio", ">=", 0.95)],
}


class TestRun:
    @pytest.mark.parametrize("kind", KINDS)
    def test_every_kind_passes_at_quick_profile(self, kind):
        report = run({"kind": kind, "seed": 0}, profile=QUICK)
        assert report["passed"] is True, [a for a in report["assertions"] if not a["passed"]]
        assert report["schema_version"] == "1"
        assert report["generator"] == "numpy PCG64"
        assert report["kind"] == kind
        for a in report["assertions"]:
            assert set(a) == {"name", "direction", "tolerance", "measured", "passed"}
        # every check of the kind, in report order, at its default tolerance
        assert [(a["name"], a["direction"], a["tolerance"]) for a in report["assertions"]] == CHECKS[kind]

    @pytest.mark.parametrize("kind, name", [
        ("compose-across", "perturb_across"), ("compose-cross", "perturb_cross"),
        ("compose-double", "perturb_double"), ("compose-across", "across_instance"),
        ("compose-double", "double_instance"), ("k0-sweep", "across_instance"),
        ("theta0-sweep", "cross_instance"),
    ])
    def test_kinds_resolve_their_functions_at_call_time(self, monkeypatch, kind, name):
        # a tracer or a spy rebinds the module attribute; the run must reach it
        import regsys.cli

        real, calls = getattr(regsys.cli, name), []

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(regsys.cli, name, spy)
        assert run({"kind": kind, "seed": 0, "trials": 1}, profile=QUICK)["passed"]
        assert calls == [1]

    def test_deterministic_up_to_wall_time(self):
        cfg = {"kind": "quadruple-identities", "seed": 7}
        a = run(cfg, profile=QUICK)
        b = run(cfg, profile=QUICK)
        assert strip_wall_time(a) == strip_wall_time(b)

    def test_seed_changes_measurements(self):
        a = run({"kind": "quadruple-identities", "seed": 0}, profile=QUICK)
        b = run({"kind": "quadruple-identities", "seed": 1}, profile=QUICK)
        assert a["assertions"][0]["measured"] != b["assertions"][0]["measured"]

    def test_tolerance_override_can_fail(self):
        report = run({"kind": "quadruple-identities", "seed": 0,
                      "tolerances": {"composition_identities": 0.0}}, profile=QUICK)
        assert report["passed"] is False

    def test_report_written_with_csv(self, tmp_path):
        from regsys.cli import _dumps

        out = tmp_path / "reports"
        report = run({"kind": "k0-sweep", "seed": 0}, out_dir=out, profile=QUICK)
        assert report["passed"] is True
        doc = json.loads((out / "k0-sweep.json").read_text())
        assert strip_wall_time(doc) == strip_wall_time(json.loads(_dumps(report)))
        csv_lines = (out / "k0-sweep.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "k,sigma_min,bound,within_bound"
        assert len(csv_lines) == 33  # header + 32 sweep points

    def test_beam_bounds_writes_trace_csv(self, tmp_path):
        out = tmp_path / "reports"
        run({"kind": "beam-bounds", "seed": 0}, out_dir=out, profile=QUICK)
        lines = (out / "beam-bounds.csv").read_text().strip().splitlines()
        assert lines[0] == "t,F,rho,w_x_1,w_xx_0"

    def test_unknown_kind_refused(self):
        from regsys.cli import UsageError

        with pytest.raises(UsageError):
            run({"kind": "warp-drive"}, profile=QUICK)

    def test_unknown_key_refused(self):
        from regsys.cli import UsageError

        with pytest.raises(UsageError):
            run({"kind": "radius", "bogus": 1}, profile=QUICK)

    @pytest.mark.parametrize(
        "patch",
        [
            {"seed": -1},
            {"seed": "zero"},
            {"trials": 0},
            {"trials": 2.5},
            {"T": -1.0},
            {"tolerances": 3},
            {"tolerances": {"x": -1.0}},
            {"grid": 5},
            {"grid": {"nsteps": 64}},
            {"grid": {"n_steps": 40.9}},
            {"grid": {"n_steps": "abc"}},
            {"grid": {"t_end": 0}},
        ],
    )
    def test_invalid_values_refused(self, tmp_path, patch):
        self._assert_refused(tmp_path, {"kind": "beam-bounds", **patch})

    @pytest.mark.parametrize("flag", [True, False])
    @pytest.mark.parametrize(
        "field", ["seed", "trials", "N", "wave_cells", "T", "delta", "gain", "n_steps", "t_end", "tolerance"]
    )
    def test_json_booleans_refused(self, tmp_path, field, flag):
        # bool subclasses int, but JSON true and false are no numbers
        self._assert_refused(tmp_path, self._beam_bounds_with(field, flag))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["T", "delta", "gain", "t_end", "tolerance"])
    def test_non_finite_values_refused(self, tmp_path, field, value):
        # Python's json reads and writes NaN and Infinity
        self._assert_refused(tmp_path, self._beam_bounds_with(field, value))

    @staticmethod
    def _beam_bounds_with(field, value):
        if field in ("n_steps", "t_end"):
            return {"kind": "beam-bounds", "grid": {field: value}}
        if field == "tolerance":
            return {"kind": "beam-bounds", "tolerances": {"energy_drift": value}}
        return {"kind": "beam-bounds", field: value}

    @pytest.mark.parametrize("kind", KINDS)
    def test_unknown_tolerance_name_refused(self, tmp_path, kind):
        # a misspelt name is not taken for its default, and a name that
        # another kind checks is not one of this kind's
        other = "energy_drift" if kind != "beam-bounds" else "time_identity"
        for name in ("safe_perturbation_failure", other):
            self._assert_refused(tmp_path, {"kind": kind, "tolerances": {name: 5}})

    @staticmethod
    def _assert_refused(tmp_path, cfg):
        from regsys.cli import UsageError

        with pytest.raises(UsageError):
            run(cfg, profile=QUICK)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "reports"
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(path), "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_valid_grid_echoed_as_given(self):
        grid = {"t_end": 1.5, "n_steps": 8}
        report = run({"kind": "compose-across", "trials": 1, "grid": grid}, profile=QUICK)
        assert report["config"]["grid"] == grid


# kind -> (full, quick) defaults, in suite order
DEFAULTS = {
    "quadruple-identities": ({"trials": 50}, {"trials": 12}),
    "compose-across": ({"trials": 50}, {"trials": 10}),
    "compose-cross": ({"trials": 50}, {"trials": 10}),
    "compose-double": ({"trials": 50}, {"trials": 10}),
    "k0-sweep": ({"trials": 25}, {"trials": 5}),
    "theta0-sweep": ({"trials": 25}, {"trials": 5}),
    "radius": ({"trials": 100}, {"trials": 30}),
    "boundary-feedin": ({"N": 100, "wave_cells": 32, "gain": 0.5},
                        {"N": 64, "wave_cells": 24, "gain": 0.5}),
    "beam-transfer": ({"N": 400}, {"N": 200}),
    "beam-bounds": ({"N": 200, "trials": 50, "T": 1.0, "delta": 0.1},
                    {"N": 96, "trials": 8, "T": 1.0, "delta": 0.1}),
    "beam-observability": ({"N": 200, "trials": 50, "T": 4.0},
                           {"N": 96, "trials": 8, "T": 4.0}),
}


class TestConfigAndEncoding:
    def test_kind_order_and_defaults(self):
        from regsys.cli import _normalize_config

        # suite() seeds kind i with seed + i, so the order is part of the reports
        assert KINDS == tuple(DEFAULTS)
        for kind, (full, quick) in DEFAULTS.items():
            for profile, defaults in (("full", full), ("quick", quick)):
                cfg = _normalize_config({"kind": kind}, profile)
                assert cfg == {**defaults, "kind": kind, "seed": 0, "tolerances": {}}, (kind, profile)

    def test_dumps_numpy_and_non_finite_values(self):
        from regsys.cli import _dumps

        doc = {"f32": np.float32(0.5), "i64": np.int64(7), "ninf32": np.float32(-np.inf),
               "nested": (1, (2.0, np.float64(3.5), [np.int32(4)])),
               "inf": float("inf"), "nan": np.nan, "array": np.array([np.inf, 1.0])}
        text = _dumps(doc)
        assert "NaN" not in text and "Infinity" not in text
        assert json.loads(text) == {"f32": 0.5, "i64": 7, "ninf32": "-inf",
                                    "nested": [1, [2.0, 3.5, [4]]],
                                    "inf": "inf", "nan": "nan", "array": ["inf", 1.0]}


class TestSuite:
    def test_quick_suite_all_green(self, tmp_path):
        out = tmp_path / "suite"
        agg = suite(QUICK, seed=0, out_dir=out)
        assert agg["passed"] is True
        assert set(agg["kinds"]) == set(KINDS)
        written = {p.name for p in out.iterdir()}
        assert "suite.json" in written
        for kind in KINDS:
            assert f"{kind}.json" in written

    def test_bad_profile_refused(self):
        from regsys.cli import UsageError

        with pytest.raises(UsageError):
            suite("medium")
        # a single run checks its profile too, rather than taking a
        # misspelt one as full
        with pytest.raises(UsageError):
            run({"kind": "radius"}, profile="quik")


class TestMain:
    def write_config(self, tmp_path, doc):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_passing_config_exits_zero(self, tmp_path, capsys):
        path = self.write_config(tmp_path, {"kind": "radius", "seed": 0, "trials": 10})
        assert main(["--config", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True

    def test_failing_assertion_exits_one(self, tmp_path, capsys):
        path = self.write_config(tmp_path, {"kind": "quadruple-identities", "seed": 0,
                                            "trials": 2,
                                            "tolerances": {"composition_identities": 0.0}})
        assert main(["--config", path]) == 1

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        path = self.write_config(tmp_path, {"kind": "quadruple-identities", "seed": 0, "trials": 3})
        main(["--config", path])
        base = json.loads(capsys.readouterr().out)
        main(["--config", path, "--seed", "9"])
        overridden = json.loads(capsys.readouterr().out)
        assert overridden["config"]["seed"] == 9
        assert base["assertions"][0]["measured"] != overridden["assertions"][0]["measured"]

    def test_malformed_json_exits_two_without_output(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        out = tmp_path / "should_not_exist"
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(path), "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_missing_file_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(tmp_path / "nope.json")])
        assert exc.value.code == 2

    def test_unknown_kind_exits_two(self, tmp_path):
        path = self.write_config(tmp_path, {"kind": "warp-drive"})
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(path)])
        assert exc.value.code == 2

    def test_both_flags_refused(self, tmp_path):
        path = self.write_config(tmp_path, {"kind": "radius"})
        with pytest.raises(SystemExit) as exc:
            main(["--config", path, "--profile", "quick"])
        assert exc.value.code == 2

    def test_neither_flag_refused(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "cfg, error",
        [
            # N and trials only shorten the run before the refusal
            ({"kind": "beam-bounds", "delta": 0.5, "N": 16, "trials": 1}, ValueError),
            ({"kind": "beam-observability", "T": 1.5}, ValueError),
            ({"kind": "compose-across", "grid": {"n_steps": 1}}, ControllabilityError),
            ({"kind": "k0-sweep", "grid": {"n_steps": 1}}, ControllabilityError),
        ],
        ids=["beam-bounds-delta", "beam-observability-T", "compose-across-one-step",
             "k0-sweep-one-step"],
    )
    def test_library_refusal_exits_two(self, tmp_path, capsys, cfg, error):
        # a config the library cannot use is refused with one error line,
        # not reported as a failed assertion or a traceback
        with pytest.raises(error):
            run(cfg)
        out = tmp_path / "reports"
        with pytest.raises(SystemExit) as exc:
            main(["--config", self.write_config(tmp_path, cfg), "--out", str(out)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: experiment refused: ")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    def test_json_output_is_sorted_and_finite(self, tmp_path, capsys):
        path = self.write_config(tmp_path, {"kind": "radius", "seed": 0, "trials": 5})
        main(["--config", path])
        text = capsys.readouterr().out
        assert "NaN" not in text and "Infinity" not in text
        doc = json.loads(text)
        assert list(doc) == sorted(doc)
