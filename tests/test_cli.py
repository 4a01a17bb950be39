import csv
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from starkzz import calibrate, cli, config, spectrum
from starkzz.calibrate import chain_cancellation, cnot_gate_result, cz_gate_result
from starkzz.cli import main
from starkzz.config import (apply_override, config_hash, load_preset,
                            to_system, validate_config)
from starkzz.errors import ConfigError
from starkzz.operators import build_rwa_hamiltonian, computational_labels
from starkzz.pulse import OperatingFrame, schedule_to_document
from starkzz.spectrum import (AMBIGUOUS_OVERLAP, apply_drive_axis,
                              driven_pair_rates, fit_bare_transmons,
                              labeled_spectrum)


def read_rows(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header, *rows = csv.reader(lines)
    return header, rows


@pytest.fixture
def frames_built(monkeypatch):
    """The frame frequency of every `OperatingFrame` built, in order."""
    built = []
    init = OperatingFrame.__init__

    def counting(self, system, frame_frequency=None):
        built.append(frame_frequency)
        init(self, system, frame_frequency)

    monkeypatch.setattr(OperatingFrame, "__init__", counting)
    return built


class TestConfig:
    def test_presets_load(self):
        for name in ("device-a", "device-b-pair", "device-b-chain"):
            doc = load_preset(name)
            system = to_system(doc)
            assert system.num_transmons >= 2

    def test_unknown_key_path(self):
        doc = load_preset("device-a")
        doc["transmons"][0]["color"] = "blue"
        with pytest.raises(ConfigError) as err:
            validate_config(doc)
        assert "transmons[0].color" in str(err.value)

    def test_override_paths(self):
        doc = load_preset("device-a")
        out = apply_override(doc, "drives.0.amplitude=0.01")
        assert out["drives"][0]["amplitude"] == 0.01
        with pytest.raises(ConfigError):
            apply_override(doc, "drives.7.amplitude=0.01")
        with pytest.raises(ConfigError):
            apply_override(doc, "no-equals-sign")
        for assignment, where in (("transmons.x=1", "transmons.x"),
                                  ("transmons.-1.frequency=5.2", "transmons.-1")):
            with pytest.raises(ConfigError) as err:
                apply_override(doc, assignment)
            assert err.value.path == where

    def test_bare_fit_applied_on_load(self):
        system = to_system(load_preset("device-a"))
        # bare frequencies differ from the measured dressed entries
        assert system.transmons[0].frequency != pytest.approx(4.960, abs=1e-5)

    @pytest.mark.parametrize("pair", ["[0,5]", "[0,0]", "[1,-1]"])
    def test_pair_must_be_two_distinct_transmons(self, pair, capsys):
        assert main(["zz", "--preset", "device-a", "--set", f"pair={pair}"]) == 2
        assert "config error: pair: must be two distinct transmon indices" \
            in capsys.readouterr().err

    def test_readme_config_example(self):
        """The JSON block under README's "Config format" is a valid config."""
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("## Config format", 1)[1]
        document = json.loads(section.split("```json", 1)[1].split("```", 1)[0])
        system = to_system(validate_config(document))
        assert (system.num_transmons, len(system.couplings), len(system.drives)) == (2, 2, 1)

    def test_hash_stable_under_key_order(self):
        doc = load_preset("device-a")
        shuffled = json.loads(json.dumps(doc))
        assert config_hash(doc) == config_hash(shuffled)


class TestZzCommand:
    def test_preset_report(self, tmp_path, capsys):
        out = tmp_path / "zz.json"
        assert main(["zz", "--preset", "device-a", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["static_zz_numeric"] == pytest.approx(875e-6, rel=0.05)
        assert abs(report["zz_numeric"]) < 25e-6
        assert report["stark_shift_q0"] == pytest.approx(-7.8e-3, rel=0.3)
        assert report["stark_shift_q1"] == pytest.approx(-1.7e-3, rel=0.3)

    def test_zero_coupling_override(self, tmp_path):
        out = tmp_path / "zz.json"
        code = main(["zz", "--preset", "device-a", "--set",
                     "couplings.0.strength=0.0", "--set", "drives=[]",
                     "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        for key in ("zz_numeric", "zz_perturbative", "static_zz_numeric",
                    "static_zz_perturbative"):
            assert abs(report[key]) < 1e-12

    def test_labeling_warning_is_the_overlap_test(self, tmp_path):
        """At tones between the qubits the computational labels are
        ambiguous; the report flags exactly that."""
        out = tmp_path / "zz.json"
        sets = ["drives.0.frequency=4.97", "drives.1.frequency=4.97"]
        argv = ["zz", "--preset", "device-a", "--out", str(out)]
        for assignment in sets:
            argv += ["--set", assignment]
        assert main(argv) == 0
        doc = load_preset("device-a")
        for assignment in sets:
            doc = apply_override(doc, assignment)
        system = to_system(doc)
        spec = labeled_spectrum(build_rwa_hamiltonian(system, 4.97), system.dims, 4.97)
        overlap = min(spec.overlap(label) for label in computational_labels(2, 0, 1))
        assert overlap < AMBIGUOUS_OVERLAP
        assert json.loads(out.read_text())["labeling_warning"] is True

    def test_bare_fit_failure_exit_code(self, tmp_path, capsys):
        code = main(["zz", "--preset", "device-a",
                     "--set", "transmons.0.frequency=5.016",
                     "--out", str(tmp_path / "zz.json")])
        assert code == 4
        assert "bare-parameter fit failed" in capsys.readouterr().err

    def test_sparse_solver_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(spectrum, "DENSE_LIMIT", 8)
        monkeypatch.setattr(spectrum, "DAVIDSON_MAX_ITERATIONS", 1)
        code = main(["zz", "--preset", "device-a", "--out", str(tmp_path / "zz.json")])
        assert code == 4
        err = capsys.readouterr().err
        assert "SolverFailureError" in err and "for label (" in err

    def test_requires_exactly_one_source(self):
        assert main(["zz"]) == 2
        assert main(["zz", "--preset", "device-a", "--config", "x.json"]) == 2


class TestSweepCommand:
    def test_phase_sweep_cosine(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--preset", "device-a",
                     "--set", "drives.0.amplitude=0.040",
                     "--set", "drives.1.amplitude=0.020",
                     "--set", "drives.0.frequency=5.075",
                     "--set", "drives.1.frequency=5.075",
                     "--axis", "drives.phase_difference:0:6.283185307179586:41",
                     "--out", str(out)])
        assert code == 0
        header, rows = read_rows(out)
        phi = np.array([float(r[0]) for r in rows])
        zz = np.array([float(r[header.index("zz_numeric")]) for r in rows])
        design = np.stack([np.ones_like(phi), np.cos(phi), np.sin(phi)], axis=1)
        coef, *_ = np.linalg.lstsq(design, zz, rcond=None)
        model = design @ coef
        r2 = 1 - np.sum((zz - model) ** 2) / np.sum((zz - zz.mean()) ** 2)
        assert r2 > 0.999
        assert abs(math.atan2(-coef[2], coef[1])) < math.radians(2)

    def test_byte_identical_reruns(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path, threads in zip(paths, ("4", "1")):
            code = main(["sweep", "--preset", "device-a",
                         "--axis", "drives.scale:0.2:1.0:5",
                         "--threads", threads, "--out", str(path)])
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_header_units_and_hash(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(["sweep", "--preset", "device-a",
              "--axis", "drives.scale:0.5:1.0:3", "--out", str(out)])
        text = out.read_text()
        assert "# tool: starkzz" in text
        assert "hash" in text
        assert "# column zz_numeric: GHz" in text

    def test_degenerate_axis_rejected(self, tmp_path):
        code = main(["sweep", "--preset", "device-a",
                     "--axis", "drives.scale:1:1:2",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_failed_point_recorded_and_run_continues(self, tmp_path):
        out = tmp_path / "sweep.csv"
        # the first axis point drives an invalid (negative) amplitude; the
        # row records the failure and the remaining points still evaluate
        code = main(["sweep", "--preset", "device-a",
                     "--axis", "drives.0.amplitude:-0.01:0.01:3",
                     "--out", str(out)])
        assert code == 0
        header, rows = read_rows(out)
        errors = [r[header.index("error")] for r in rows]
        assert errors[0] == "ConfigError: drives[0].amplitude: must be >= 0, got -0.01"
        assert errors[-1] == ""
        assert math.isnan(float(rows[0][header.index("zz_numeric")]))

    def test_negative_scale_recorded_and_run_continues(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--preset", "device-a",
                     "--axis", "drives.scale:-1:1:3", "--out", str(out)]) == 0
        header, rows = read_rows(out)
        assert all(len(row) == len(header) for row in rows)
        errors = [r[header.index("error")] for r in rows]
        with pytest.raises(ConfigError) as err:
            apply_drive_axis(to_system(load_preset("device-a")), "drives.scale", -1.0)
        assert errors[0] == f"ConfigError: {err.value}"
        assert ", got -" in errors[0]
        assert errors[1:] == ["", ""]

    def test_phase_difference_needs_two_drives(self, tmp_path):
        out = tmp_path / "sweep.csv"
        one_drive = '[{"target": 0, "amplitude": 0.02, "frequency": 5.1}]'
        assert main(["sweep", "--preset", "device-a", "--set", f"drives={one_drive}",
                     "--axis", "drives.phase_difference:0:1:2",
                     "--out", str(out)]) == 0
        header, rows = read_rows(out)
        for row in rows:
            assert row[header.index("error")].startswith("ConfigError: ")
            assert "needs two drives" in row[header.index("error")]

    def test_bare_fit_failure_recorded_and_run_continues(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--preset", "device-a", "--out", str(out),
                     "--axis", "transmons.0.frequency:4.96:5.016:2"]) == 0
        header, rows = read_rows(out)
        errors = [r[header.index("error")] for r in rows]
        assert errors[0] == ""
        assert errors[1].startswith("SolverFailureError: bare-parameter fit failed")

    def test_labeling_flag_same_with_threads(self, tmp_path):
        """The flag comes from each point's own labels, so a thread pool
        cannot move it between points."""
        paths = [tmp_path / "serial.csv", tmp_path / "threads.csv"]
        for path, threads in zip(paths, ("1", "4")):
            assert main(["sweep", "--preset", "device-a", "--threads", threads,
                         "--axis", "drives.frequency:4.95:5.05:11",
                         "--out", str(path)]) == 0
        flags = []
        for path in paths:
            header, rows = read_rows(path)
            flags.append([r[header.index("labeling_warning")] for r in rows])
        assert flags[0] == flags[1]
        assert set(flags[0]) == {"0", "1"}

    @pytest.mark.parametrize("axes, calls", [
        (["drives.phase_difference:0:6.283185307179586:5"], 1),
        (["drives.scale:0.5:1.0:2", "drives.frequency:5.0:5.1:3"], 1),
        (["drives.scale:0.5:1.0:2", "couplings.0.strength:0.007:0.008:3"], 1 + 6),
    ])
    def test_to_system_once_per_config_point(self, tmp_path, monkeypatch, axes, calls):
        """Drive axes edit the base system; only a config-path axis builds a
        system per point."""
        built = []

        def counting(doc):
            built.append(doc)
            return to_system(doc)

        monkeypatch.setattr(cli, "to_system", counting)
        argv = ["sweep", "--preset", "device-a", "--out", str(tmp_path / "s.csv")]
        for axis in axes:
            argv += ["--axis", axis]
        assert main(argv) == 0
        assert len(built) == calls

    def test_two_axes_row_major(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = main(["sweep", "--preset", "device-a",
                     "--axis", "drives.0.amplitude:0.01:0.02:2",
                     "--axis", "drives.1.amplitude:0.01:0.03:3",
                     "--out", str(out)])
        assert code == 0
        _, rows = read_rows(out)
        firsts = [float(r[0]) for r in rows]
        seconds = [float(r[1]) for r in rows]
        assert firsts == sorted(firsts)
        assert seconds[:3] == sorted(seconds[:3])
        assert len(rows) == 6


class TestBareFitMemo:
    """Sweeps refit bare parameters only when a point's transmons change."""

    @pytest.fixture
    def fit_calls(self, monkeypatch):
        calls = []

        def counting(system, frequencies, anharmonicities):
            calls.append(tuple(frequencies))
            return fit_bare_transmons(system, frequencies, anharmonicities)

        config._bare_transmons.cache_clear()
        monkeypatch.setattr(config, "fit_bare_transmons", counting)
        yield calls
        config._bare_transmons.cache_clear()

    @pytest.mark.parametrize("axes", [
        ["drives.phase_difference:0:6.283185307179586:5"],
        ["drives.0.amplitude:0:0.06:3", "drives.1.amplitude:0:0.06:3"],
    ])
    def test_drive_only_sweep_fits_once(self, tmp_path, fit_calls, axes):
        argv = ["sweep", "--preset", "device-a", "--out", str(tmp_path / "s.csv")]
        for axis in axes:
            argv += ["--axis", axis]
        assert main(argv) == 0
        assert len(fit_calls) == 1

    def test_transmon_axis_refits_each_point(self, tmp_path, fit_calls):
        out = tmp_path / "freq.csv"
        assert main(["sweep", "--preset", "device-a", "--out", str(out),
                     "--axis", "transmons.0.frequency:4.95:4.97:3"]) == 0
        header, rows = read_rows(out)
        values = [float(r[0]) for r in rows]
        doc = load_preset("device-a")
        assert len(fit_calls) == len({doc["transmons"][0]["frequency"], *values})

        doc["frequencies_are_dressed"] = False
        for value, row in zip(values, rows):
            measured = to_system(apply_override(doc, f"transmons.0.frequency={value!r}"))
            fresh = fit_bare_transmons(
                measured, [t.frequency for t in measured.transmons],
                [t.anharmonicity for t in measured.transmons])
            zz = driven_pair_rates(fresh, *doc["pair"]).zz
            assert row[header.index("zz_numeric")] == f"{zz:.12g}"


class TestZxCommand:
    def test_frames_built_once_per_system_and_frequency(self, tmp_path, frames_built):
        """Tones on: one operating frame.  Tones off: the probe at the
        target's bare frequency and the tomography frame at its dressed one."""
        out = tmp_path / "zx.csv"
        assert main(["zx", "--preset", "device-a", "--amplitudes", "0.008:0.01:2",
                     "--out", str(out)]) == 0
        assert len(frames_built) == 3
        header, rows = read_rows(out)
        assert len(rows) == 2
        assert all(r[header.index(c)] == "" for r in rows for c in ("error_on", "error_off"))

    def test_byte_identical_reruns(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            assert main(["zx", "--preset", "device-a", "--amplitudes", "0.008:0.01:2",
                         "--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_header_echoes_dt(self, tmp_path):
        out = tmp_path / "zx.csv"
        assert main(["zx", "--preset", "device-a", "--amplitudes", "0.008:0.01:2",
                     "--dt", "0.2", "--out", str(out)]) == 0
        assert "# dt: 0.2\n" in out.read_text().split("omega_cr,")[0]

    @pytest.mark.parametrize("flags, named", [
        (["--target", "5"], "got [1, 5]"), (["--control", "-1"], "got [-1, 0]"),
        (["--control", "0"], "got [0, 0]")])
    def test_control_and_target_checked(self, tmp_path, capsys, flags, named):
        for command in (["zx", "--amplitudes", "0.008:0.01:2"], ["calibrate", "cnot"],
                        ["calibrate", "cz"]):
            assert main([*command, "--preset", "device-a", *flags,
                         "--out", str(tmp_path / "out")]) == 2
            err = capsys.readouterr().err
            assert "config error: --control/--target: must be two distinct" in err
            assert named in err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, named", [
    (["zx", "--amplitudes", "0.008:0.01:2", "--dt", "0"], "--dt"),
    (["calibrate", "cnot", "--dt", "-0.05"], "--dt"),
    (["calibrate", "cz", "--dt", "nan"], "--dt"),
    (["calibrate", "cnot", "--duration", "39"], "--duration"),
    (["calibrate", "cz", "--duration", "59"], "--duration"),
    (["zz", "--levels", "0"], "--levels"),
    (["zz", "--set", "transmons.x=1"], "transmons.x"),
    (["zz", "--set", "transmons.-1.frequency=5.2"], "transmons.-1"),
    (["zx", "--amplitudes", "nan:0.01:2"], "--amplitudes"),
    (["sweep", "--axis", "drives.scale:0.5:inf:3"], "--axis"),
    (["calibrate", "cz", "--gate-frequency", "nan"], "--gate-frequency"),
    (["calibrate", "cz", "--gate-amplitude", "-0.01"], "--gate-amplitude"),
    (["calibrate", "cz", "--gate-amplitude", "inf"], "--gate-amplitude"),
    (["calibrate", "chain", "--drive-frequency", "inf"], "--drive-frequency"),
    (["calibrate", "chain", "--seed-shift", "0"], "--seed-shift"),
    (["calibrate", "cancel", "--max-scale", "nan"], "--max-scale"),
    *[([*command, "--set", "drives.0.role=gate"], "drives[0].role")
      for command in (["zz"], ["sweep", "--axis", "drives.scale:0.5:1:2"],
                      ["zx", "--amplitudes", "0.008:0.01:2"],
                      *(["calibrate", gate] for gate in ("cnot", "cz", "cancel", "chain")))],
    (["zx", "--amplitudes", "nan:0.01:2"], "--amplitudes: 'nan:0.01:2'"),
    (["sweep", "--axis", "drives.scale:0:1:3", "--threads", "0"], "--threads"),
    (["sweep", "--axis", "drives.scale:0:1:3", "--threads", "-1"], "--threads"),
    (["sweep", "--axis", "drives.scale:0:1:2", "--axis", "drives.scale:0:1:2"],
     "--axis: 'drives.scale'"),
    (["calibrate", "chain", "--drive-frequency", "4.0"], "--drive-frequency"),
    (["calibrate", "chain", "--set", "transmons=" + json.dumps(
        [{"frequency": f, "anharmonicity": -0.29, "levels": 3} for f in (4.96, 5.016, 4.99)]),
      "--set", "couplings.0.endpoints=[0,2]"], "couplings[0].endpoints"),
    (["zz", "--set", "transmons.0.levels=1"], "transmons[0].levels"),
    (["zz", "--set", "couplings.0.endpoints=[0,2]"], "couplings[0].endpoints"),
    (["zz", "--set", "couplings.0.endpoints=[1,1]"], "couplings[0].endpoints"),
    (["zz", "--set", "drives.0.amplitude=-0.01"], "drives[0].amplitude"),
    (["zz", "--set", "drives.1.target=2"], "drives[1].target"),
    (["zz", "--set", "transmons.0.frequency=-1"], "transmons[0].frequency"),
    (["zz", "--set", "transmons.1.anharmonicity=0"], "transmons[1].anharmonicity"),
    (["zz", "--set", "couplings=" + json.dumps(
        [{"kind": "direct", "endpoints": [0, 1], "strength": 0.007},
         {"kind": "direct", "endpoints": [1, 0], "strength": 0.001}])],
     "couplings[1].endpoints"),
    # device-a's table is dressed: the bare fit reads each transmon's |2>
    (["zz", "--set", "transmons.1.levels=2"], "transmons[1].levels")])
def test_bad_input_exits_2_naming_it(tmp_path, capsys, argv, named):
    out = tmp_path / "out"
    assert main([*argv, "--preset", "device-a", "--out", str(out)]) == 2
    assert f"config error: {named}: " in capsys.readouterr().err
    assert not out.exists()


class TestCalibrateCommand:
    def test_cnot_prints_the_scored_schedule(self, tmp_path, frames_built, monkeypatch):
        """The calibration builds the one frame, and the JSON schedule is
        the one its result was scored from."""
        cals = []
        routine = calibrate.calibrate_cnot
        monkeypatch.setattr(calibrate, "calibrate_cnot",
                            lambda *a, **kw: cals.append(routine(*a, **kw)) or cals[-1])
        out = tmp_path / "cnot.json"
        assert main(["calibrate", "cnot", "--preset", "device-a", "--duration", "90",
                     "--out", str(out)]) == 0
        assert len(frames_built) == 1
        [cal] = cals
        document = json.loads(json.dumps(schedule_to_document(cal.result.schedule)))
        assert json.loads(out.read_text())["schedule"] == document

    @pytest.mark.parametrize("gate, flags, gate_result", [
        ("cnot", ["--duration", "90"], cnot_gate_result),
        ("cz", ["--duration", "200", "--gate-frequency", "4.9", "--gate-amplitude", "0.026"],
         cz_gate_result)])
    def test_gate_scored_from_the_calibrations_propagation(self, tmp_path, monkeypatch,
                                                           gate, flags, gate_result):
        """The command makes exactly the calibration's `propagate` calls,
        and its fidelity and leakage match a standalone gate result of the
        calibration within 1e-14."""
        propagated, calibrated = [], []
        propagate = calibrate.propagate
        monkeypatch.setattr(calibrate, "propagate", lambda system, schedule, **kw: (
            propagated.append(schedule) or propagate(system, schedule, **kw)))
        routine = getattr(calibrate, f"calibrate_{gate}")

        def counted(*args, **kwargs):
            cal = routine(*args, **kwargs)
            calibrated.append((cal, len(propagated)))
            return cal

        monkeypatch.setattr(calibrate, f"calibrate_{gate}", counted)
        out = tmp_path / f"{gate}.json"
        assert main(["calibrate", gate, "--preset", "device-a", *flags,
                     "--out", str(out)]) == 0
        [(cal, during)] = calibrated
        assert len(propagated) == during > 0
        result = json.loads(out.read_text())
        standalone = gate_result(to_system(load_preset("device-a")), cal)
        assert abs(result["fidelity"] - standalone.fidelity) < 1e-14
        assert abs(result["leakage"] - standalone.leakage) < 1e-14

    @pytest.mark.parametrize("gate, duration", [("cnot", "90"), ("cz", "200")])
    def test_json_echoes_dt(self, tmp_path, gate, duration):
        out = tmp_path / f"{gate}.json"
        assert main(["calibrate", gate, "--preset", "device-a", "--duration", duration,
                     "--dt", "0.2", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["dt"] == 0.2

    def test_chain_reports_label_quality(self, tmp_path):
        doc = load_preset("device-b-chain")
        cut = {"transmons": doc["transmons"][:3],
               "couplings": [c for c in doc["couplings"] if max(c["endpoints"]) < 3]}
        out = tmp_path / "chain.json"
        argv = ["calibrate", "chain", "--preset", "device-b-chain", "--out", str(out)]
        for key, value in cut.items():
            argv += ["--set", f"{key}={json.dumps(value)}"]
        assert main(argv) == 0
        result = json.loads(out.read_text())
        solution = chain_cancellation(to_system(dict(doc, **cut)), 5.1)
        assert result["min_overlap"] == solution.min_overlap
        assert result["labeling_warning"] is (solution.min_overlap < AMBIGUOUS_OVERLAP)

    def test_chain_unreachable_exits_4_naming_the_qubit(self, tmp_path, capsys):
        out = tmp_path / "chain.json"
        assert main(["calibrate", "chain", "--preset", "device-a", "--seed-shift", "0.05",
                     "--out", str(out)]) == 4
        assert ("numerical failure: CancellationUnreachableError: qubit 0: the chain "
                "solve reaches a tone amplitude of ") in capsys.readouterr().err
        assert not out.exists()

    def test_cancel_device_b(self, tmp_path):
        out = tmp_path / "cancel.json"
        code = main(["calibrate", "cancel", "--preset", "device-b-pair",
                     "--out", str(out)])
        assert code == 0
        result = json.loads(out.read_text())
        assert result["amplitudes"][0] == pytest.approx(15e-3, rel=0.2)
        assert abs(result["residual_zz"]) < 5e-6

    def test_cancel_nonconvergence_exits_3_with_its_transcript(self, tmp_path, monkeypatch,
                                                              capsys):
        monkeypatch.setattr(calibrate, "MAX_NEWTON_ITERATIONS", 2)
        out = tmp_path / "cancel.json"
        assert main(["calibrate", "cancel", "--preset", "device-b-pair",
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "nonconvergence: scale_squared search above 1e-12 GHz after 2 iterations" in err
        assert err.count("{'iteration': ") == 2
        assert not out.exists()

    def test_cz_byte_identical_reruns(self, tmp_path):
        runs = [(tmp_path / f"{name}.json", tmp_path / f"{name}.csv") for name in "ab"]
        for out, transcript in runs:
            assert main(["calibrate", "cz", "--preset", "device-a", "--duration", "200",
                         "--gate-frequency", "4.9", "--gate-amplitude", "0.026",
                         "--out", str(out), "--transcript", str(transcript)]) == 0
        for first, second in zip(*runs):
            assert first.read_bytes() == second.read_bytes()

    def test_cz_zero_amplitude_exit_code(self, tmp_path, capsys):
        code = main(["calibrate", "cz", "--preset", "device-a",
                     "--duration", "200.0", "--gate-amplitude", "0.0",
                     "--out", str(tmp_path / "cz.json")])
        assert code == 3
        assert "insensitive to the gate amplitude" in capsys.readouterr().err


def loaded_modules(commands, tmp_path, prelude="") -> set[str]:
    """The modules a fresh process holds after importing the CLI, running
    `prelude` and then each CLI argument list (with --out into tmp_path)."""
    runs = "".join(
        f"assert starkzz.cli.main({[*argv, '--out', str(tmp_path / name)]!r}) == 0\n"
        for name, argv in commands)
    script = ("import sys\nimport starkzz.cli\n" + prelude + runs
              + "print(' '.join(sorted(sys.modules)))\n")
    src = pathlib.Path(cli.__file__).parents[1]
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
                          check=True)
    return set(done.stdout.splitlines()[-1].split())


def start_up_commands():
    """`zz`, a phase sweep, a 3-transmon `calibrate chain` and `calibrate cancel`."""
    doc = load_preset("device-b-chain")
    cut = [f"{key}={json.dumps(value)}" for key, value in (
        ("transmons", doc["transmons"][:3]),
        ("couplings", [c for c in doc["couplings"] if max(c["endpoints"]) < 3]))]
    return [
        *spectral_read_commands(),
        ("chain.json", ["calibrate", "chain", "--preset", "device-b-chain",
                        "--set", cut[0], "--set", cut[1]]),
        ("cancel.json", ["calibrate", "cancel", "--preset", "device-b-pair"]),
    ]


def spectral_read_commands():
    """`zz` and the 41-point phase sweep: spectra only, no propagation."""
    return [
        ("zz.json", ["zz", "--preset", "device-a"]),
        ("phase.csv", ["sweep", "--preset", "device-a",
                       "--axis", "drives.phase_difference:0:6.283185307179586:41"]),
    ]


def gate_commands():
    """The seed-0 CNOT, the CZ and a 2-point `zx`, as the benchmark runs them."""
    return [
        ("cnot.json", ["calibrate", "cnot", "--preset", "device-a", "--duration", "90"]),
        ("cz.json", ["calibrate", "cz", "--preset", "device-a", "--duration", "200",
                     "--gate-frequency", "4.9", "--gate-amplitude", "0.026"]),
        ("zx.csv", ["zx", "--preset", "device-a", "--amplitudes", "0.008:0.01:2"]),
    ]


def test_dense_commands_load_no_scipy(tmp_path):
    """Operators are numpy CSR arrays, dense spectra numpy's eigh, gate
    angles and Pauli rates are read from the propagator, and no src code
    calls `np.unique`.  So fitting device-a, the start-up commands
    (`zz`, a phase sweep, a 3-transmon `calibrate chain`, `calibrate
    cancel`) and the benchmark's gates and `zx` (every matrix at or below
    DENSE_LIMIT) import no scipy module (scipy.optimize and
    scipy.sparse.linalg among them) and no numpy.ma."""
    prelude = ("from starkzz.config import load_preset, to_system\n"
               "to_system(load_preset('device-a'))\n")
    modules = loaded_modules(start_up_commands() + gate_commands(), tmp_path, prelude)
    assert sorted(m for m in modules if m.split(".")[0] == "scipy") == []
    assert "numpy.ma" not in modules


def test_set_up_and_spectral_reads_load_no_gate_layer(tmp_path):
    """The benchmark's set-up (perfbench/setup_probe.py for both workloads:
    importing the CLI and building every preset, the bench chain cut
    included), `zz` and the 41-point phase sweep load neither gate layer,
    nor numpy.ma (`np.unique`'s) nor concurrent.futures (`--threads` > 1)."""
    probe = pathlib.Path(__file__).parents[1] / "perfbench"
    prelude = (f"sys.path.insert(0, {str(probe)!r})\n"
               "import setup_probe\n"
               "setup_probe.main('spectral')\nsetup_probe.main('pulse')\n")
    modules = loaded_modules(spectral_read_commands(), tmp_path, prelude)
    unrun = ("starkzz.calibrate", "starkzz.pulse", "numpy.ma", "concurrent.futures")
    assert [m for m in unrun if m in modules] == []


def test_sparse_branch_loads_scipy_sparse_only(tmp_path):
    """Above DENSE_LIMIT (lowered, as in test_sparse_path_matches_dense) the
    label solves match the dense energies; they load scipy.sparse for its
    CSR matvec and never scipy.linalg."""
    prelude = (
        "import math\n"
        "from starkzz import spectrum\n"
        "from starkzz.config import load_preset, to_system\n"
        "from starkzz.operators import DriveTone\n"
        "system = to_system(load_preset('device-a')).with_drives(\n"
        "    (DriveTone(0, 0.059, 5.1, 0.7), DriveTone(1, 0.022, 5.1)))\n"
        "dense = spectrum.rwa_spectrum(system, 5.1)\n"
        "spectrum.DENSE_LIMIT = 8\n"
        "lazy = spectrum.rwa_spectrum(system, 5.1)\n"
        "assert dense.sparse is None and lazy.sparse is not None\n"
        "for label in dense.labels:\n"
        "    assert math.isclose(lazy.energy(label), dense.energy(label), abs_tol=1e-12)\n")
    modules = loaded_modules([], tmp_path, prelude)
    assert "scipy.sparse" in modules
    assert "scipy.linalg" not in modules
