import csv
import json
import math

import numpy as np
import pytest

from starkzz import config
from starkzz.cli import main
from starkzz.config import (apply_override, config_hash, load_preset,
                            to_system, validate_config)
from starkzz.errors import ConfigError
from starkzz.operators import build_rwa_hamiltonian, computational_labels
from starkzz.pulse import OperatingFrame
from starkzz.spectrum import (AMBIGUOUS_OVERLAP, apply_drive_axis,
                              driven_pair_rates, fit_bare_transmons,
                              labeled_spectrum)


def read_rows(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header, *rows = csv.reader(lines)
    return header, rows


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

    def test_bare_fit_applied_on_load(self):
        system = to_system(load_preset("device-a"))
        # bare frequencies differ from the measured dressed entries
        assert system.transmons[0].frequency != pytest.approx(4.960, abs=1e-5)

    @pytest.mark.parametrize("pair", ["[0,5]", "[0,0]", "[1,-1]"])
    def test_pair_must_be_two_distinct_transmons(self, pair, capsys):
        assert main(["zz", "--preset", "device-a", "--set", f"pair={pair}"]) == 2
        assert "config error: pair: must be two distinct transmon indices" \
            in capsys.readouterr().err

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
        assert errors[0].startswith("ConfigError: amplitude must be >= 0")
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
    def test_frames_built_once_per_system_and_frequency(self, tmp_path, monkeypatch):
        """Tones on: one operating frame.  Tones off: the probe at the
        target's bare frequency and the tomography frame at its dressed one."""
        built = []
        init = OperatingFrame.__init__

        def counting(self, system, frame_frequency=None):
            built.append(frame_frequency)
            init(self, system, frame_frequency)

        monkeypatch.setattr(OperatingFrame, "__init__", counting)
        out = tmp_path / "zx.csv"
        assert main(["zx", "--preset", "device-a", "--amplitudes", "0.008:0.01:2",
                     "--out", str(out)]) == 0
        assert len(built) == 3
        header, rows = read_rows(out)
        assert len(rows) == 2
        assert all(r[header.index(c)] == "" for r in rows for c in ("error_on", "error_off"))


class TestCalibrateCommand:
    def test_cancel_device_b(self, tmp_path):
        out = tmp_path / "cancel.json"
        code = main(["calibrate", "cancel", "--preset", "device-b-pair",
                     "--out", str(out)])
        assert code == 0
        result = json.loads(out.read_text())
        assert result["amplitudes"][0] == pytest.approx(15e-3, rel=0.2)
        assert abs(result["residual_zz"]) < 5e-6

    def test_cz_zero_amplitude_exit_code(self, tmp_path, capsys):
        code = main(["calibrate", "cz", "--preset", "device-a",
                     "--duration", "200.0", "--gate-amplitude", "0.0",
                     "--out", str(tmp_path / "cz.json")])
        assert code == 3
        assert "insensitive to the gate amplitude" in capsys.readouterr().err
