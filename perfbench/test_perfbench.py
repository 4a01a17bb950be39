"""Tests of the benchmark's own logic: span arithmetic, failure counting,
and the output checks.  Run with `python3 -m pytest perfbench -q`."""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402
from workloads import Command, Op  # noqa: E402


# ---------------------------------------------------------------------------
# span arithmetic


def test_covered_length_merges_and_clips():
    assert tracing.covered_length([(1, 4), (3, 6), (8, 12)], 0, 10) == 7
    assert tracing.covered_length([], 0, 10) == 0
    assert tracing.covered_length([(2, 3), (2, 3)], 0, 10) == 1


def test_self_times_of_nested_spans():
    spans = [Span("cli.main", "cli", 0.0, 10.0, -1),
             Span("calibrate.calibrate_cz", "calibrate", 1.0, 4.0, 0),
             Span("pulse.propagate", "pulse", 2.0, 3.0, 1),
             Span("calibrate.brentq", "calibrate", 5.0, 9.0, 0),
             Span("spectrum.eigh", "spectrum", 6.0, 6.5, 3)]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 3.5, 0.5]
    assert sum(tracing.self_times(spans)) == spans[0].end - spans[0].start


def test_layer_metrics_attribution():
    spans = [Span("cli.main", "cli", 0.0, 10.0, -1),
             Span("calibrate.calibrate_cnot", "calibrate", 0.5, 6.0, 0),
             Span("pulse.propagate", "pulse", 1.0, 3.0, 1, {"simulated_ns": 90.0}),
             Span("pulse.eigh", "pulse", 1.5, 2.0, 2, {"dim": 25}),
             Span("calibrate.brentq", "calibrate", 3.5, 5.5, 1, {"evals": 9}),
             Span("operators.build", "operators", 4.0, 5.0, 4, {"dim": 25}),
             Span("operators.build", "operators", 4.2, 4.8, 5, {"dim": 25}),
             Span("pulse.propagate", "pulse", 7.0, 9.0, 0, {"simulated_ns": 90.0})]
    m = tracing.layer_metrics(spans)
    assert m["pulse.propagate.calls"] == 2
    assert m["calibrate.propagate_calls"] == 1
    assert m["pulse.propagate.simulated_ns"] == 180.0
    assert m["pulse.propagate.self_s"] == pytest.approx(1.5 + 2.0)
    assert m["pulse.eigh.calls"] == 1
    assert m["operators.build.calls"] == 1  # the nested sparse build is inside
    assert m["operators.build.self_s"] == pytest.approx(1.0)
    assert m["operators.build.dim_max"] == 25
    assert m["calibrate.root_evals"] == 9
    # brentq is a kernel: its self time is not calibrate's own
    assert m["calibrate.self_s"] == pytest.approx(5.5 - 2.0 - 2.0)
    assert m["cli.self_s"] == pytest.approx(10.0 - 5.5 - 2.0)
    assert m["trace.spans"] == 8 and m["trace.kernel_spans"] == 2
    # cli.main's own time is the part no wrapper below the root caught
    assert m["trace.below_root_s"] == pytest.approx(10.0 - m["cli.self_s"])


def test_span_costs_are_small_and_positive():
    costs = tracing.span_costs(calls=2000, rounds=3)
    assert set(costs) == {"entry", "kernel"}
    assert all(0.0 <= cost < 1e-4 for cost in costs.values())


def test_tracer_wraps_imported_names_and_restores_them():
    from starkzz import calibrate, operators, pulse, spectrum
    import numpy
    import scipy.linalg
    originals = (calibrate.propagate, spectrum.build_rwa_hamiltonian,
                 numpy.linalg.eigh, scipy.linalg.eigh, pulse.OperatingFrame.__init__)
    system = operators.SystemSpec(
        transmons=(operators.TransmonSpec(5.0, -0.3, 3),
                   operators.TransmonSpec(5.1, -0.3, 3)),
        couplings=(operators.direct_coupling(0, 1, 0.005),))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert calibrate.propagate is not originals[0]
        spectrum.static_spectrum(system)
        pulse.OperatingFrame(system, 5.0)
    finally:
        tracer.uninstall()
    assert (calibrate.propagate, spectrum.build_rwa_hamiltonian, numpy.linalg.eigh,
            scipy.linalg.eigh, pulse.OperatingFrame.__init__) == originals
    names = [s.name for s in tracer.spans]
    assert names[:4] == ["spectrum.static_spectrum", "operators.build",
                         "operators.build", "spectrum.labeled_spectrum"]
    assert "spectrum.eigh" in names and "pulse.eigh" in names
    frame = tracer.spans[names.index("pulse.frame")]
    assert frame.attrs["min_overlap"] > 0.5
    eigh = tracer.spans[names.index("pulse.eigh")]
    assert eigh.attrs["dim"] == 9 and tracer.spans[eigh.parent] is frame


# ---------------------------------------------------------------------------
# failure counting


class FakeCli:
    """Stands in for starkzz.cli: exit codes by command, outputs on demand."""

    def __init__(self, codes, write):
        self.codes = codes
        self.write = write

    def main(self, argv):
        code = self.codes.get(argv[0], 0)
        if code == 0:
            self.write(argv)
        return code


def _gate_json(fidelity=0.9995, leakage=1e-4):
    return {"fidelity": fidelity, "leakage": leakage, "iterations": 2}


def _write_outputs(argv):
    out = argv[argv.index("--out") + 1]
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(_gate_json(), fh)
    transcript = argv[argv.index("--transcript") + 1]
    with open(transcript, "w", encoding="utf-8") as fh:
        fh.write("# tool: starkzz\niteration,max_angle_error\n0,0.3\n1,0.001\n"
                 "control-frame,\n")


def test_failed_fraction_counts_operations():
    ops = [Op("a", True), Op("b", False), Op("c", True), Op("d", False)]
    assert workloads.failed_fraction(ops) == 0.5
    assert workloads.failed_fraction([]) == 1.0


def test_nonzero_exit_and_bad_output_fail_their_operation(tmp_path):
    cnot = Command("cnot", ["calibrate", "--out", str(tmp_path / "cnot.json"),
                            "--transcript", str(tmp_path / "cnot.csv")],
                   workloads.check_gate, str(tmp_path / "cnot.json"),
                   str(tmp_path / "cnot.csv"))
    crash = Command("zz", ["zz", "--out", str(tmp_path / "zz.json")],
                    workloads.check_zz, str(tmp_path / "zz.json"))
    it = run.run_iteration(FakeCli({"zz": 4}, _write_outputs), [cnot, crash])
    assert [(op.label, op.ok) for op in it.ops] == [("cnot", True), ("zz", False)]
    assert it.quality["calibrate.newton_iterations"] == 2
    assert set(it.times) == {"cnot", "zz"}

    def no_output(argv):
        pass
    it = run.run_iteration(FakeCli({}, no_output), [cnot])
    assert not it.ops[0].ok and "unreadable" in it.ops[0].detail


# ---------------------------------------------------------------------------
# doctored outputs trip the checks


def _json_cmd(tmp_path, key, payload, check, transcript=""):
    out = tmp_path / f"{key}.json"
    out.write_text(json.dumps(payload))
    return Command(key, [], check, str(out), transcript)


def _csv_cmd(tmp_path, key, header, rows, check):
    out = tmp_path / f"{key}.csv"
    out.write_text("# tool: starkzz 0.1.0\n# seed: 0\n" + header + "\n"
                   + "".join(row + "\n" for row in rows))
    return Command(key, [], check, str(out))


def _ok(check_result):
    ops, _ = check_result
    return [op.ok for op in ops]


@pytest.mark.parametrize("fidelity, leakage, ok", [
    (0.9995, 1e-4, True), (0.9985, 1e-4, False), (0.9995, 2e-3, False)])
def test_gate_check(tmp_path, fidelity, leakage, ok):
    transcript = tmp_path / "t.csv"
    transcript.write_text("iteration\n0\n")
    cmd = _json_cmd(tmp_path, "cz", _gate_json(fidelity, leakage),
                    workloads.check_gate, str(transcript))
    assert _ok(workloads.check_gate(cmd)) == [ok]


def test_sweep_row_error_and_missing_rows(tmp_path):
    header = "drives.phase_difference,zz_numeric,labeling_warning,error"
    rows = ["0,1e-4,0,", "0.5,nan,0,SingularDetuningError: resonant", "1,1e-4,1,"]
    cmd = _csv_cmd(tmp_path, "phase_sweep", header, rows, None)
    assert _ok(workloads.check_sweep(3)(cmd)) == [True, True, False, True]
    assert _ok(workloads.check_sweep(4)(cmd))[0] is False
    assert workloads.check_sweep(3)(cmd)[1]["spectrum.labeling_warnings"] == 1


def test_zx_check(tmp_path):
    header = ("omega_cr,zx_tomography_on,zx_perturbative_on,error_on,"
              "zx_tomography_off,zx_perturbative_off,error_off")
    rows = ["0.008,-0.00121,-0.00123,,-0.00136,-0.00142,",
            "0.01,-0.00150,-0.00154,,-0.00210,-0.00177,",
            "0.012,nan,nan,StepSizeError: drift,-0.0020,-0.0021,"]
    ops, quality = workloads.check_zx(_csv_cmd(tmp_path, "zx", header, rows, None))
    assert [op.ok for op in ops] == [True, True, False, False]
    assert quality["pulse.zx_max_rel_dev"] == pytest.approx(0.33 / 1.77)


@pytest.mark.parametrize("residual, shift, ok", [
    (1.8e-7, 1.05e-3, True), (6e-6, 1.05e-3, False), (1.8e-7, 1.3e-3, False)])
def test_chain_check(tmp_path, residual, shift, ok):
    payload = {"residual_zz": [1e-8, -residual], "stark_shifts": [shift, -2e-4]}
    cmd = _json_cmd(tmp_path, "chain", payload, workloads.check_chain)
    assert _ok(workloads.check_chain(cmd)) == [ok]


@pytest.mark.parametrize("change, ok", [
    ({}, True), ({"static_zz_numeric": 9.3e-4}, False), ({"zz_numeric": 6e-6}, False),
    ({"stark_shift_q1": -2.3e-3}, False)])
def test_zz_check(tmp_path, change, ok):
    payload = {"static_zz_numeric": 8.71e-4, "zz_numeric": -5e-8,
               "stark_shift_q0": -8.3e-3, "stark_shift_q1": -1.94e-3,
               "labeling_warning": False} | change
    cmd = _json_cmd(tmp_path, "zz", payload, workloads.check_zz)
    assert _ok(workloads.check_zz(cmd)) == [ok]


def test_cancel_check(tmp_path):
    for residual, ok in ((1e-9, True), (-7e-6, False)):
        cmd = _json_cmd(tmp_path, "cancel", {"residual_zz": residual},
                        workloads.check_cancel)
        assert _ok(workloads.check_cancel(cmd)) == [ok]


def test_seed_zero_is_nominal_and_seeds_repeat(tmp_path):
    from starkzz.config import apply_override, load_preset, to_system
    nominal = workloads.build("spectral", 0, str(tmp_path), load_preset)
    assert "drives.phase_difference:0.0:6.283185307179586:41" in nominal[1].argv
    assert "drives.0.amplitude:0.0:0.06:5" in nominal[2].argv
    again = [c.argv for c in workloads.build("pulse", 7, str(tmp_path), load_preset)]
    assert again == [c.argv for c in workloads.build("pulse", 7, str(tmp_path), load_preset)]
    assert again != [c.argv for c in workloads.build("pulse", 8, str(tmp_path), load_preset)]
    chain = nominal[-1].argv
    pulse = workloads.build("pulse", 0, str(tmp_path), load_preset)
    assert "0.008:0.01:2" in pulse[2].argv
    doc = load_preset("device-b-chain")
    for assignment in chain[chain.index("--set") + 1::2][:2]:
        doc = apply_override(doc, assignment)
    assert to_system(doc).total_dimension == 1280
