import math
from dataclasses import dataclass, field, replace

import numpy as np
import pytest

from starkzz import calibrate
from starkzz.calibrate import (CnotCalibration, CzCalibration,
                               calibrate_cnot, calibrate_cz, calibrated_cz_schedule,
                               chain_cancellation, driven_zz_rate,
                               find_cancellation_amplitude,
                               find_cancellation_phase, newton_loop,
                               _cnot_schedule, _RepeatedGate)
from starkzz.config import load_preset, to_system
from starkzz.errors import (CancellationUnreachableError,
                            InsufficientAmplitudeError, NonconvergenceError)
from starkzz.operators import DriveTone, SystemSpec, TransmonSpec, direct_coupling
from starkzz.perturbation import (PerturbativeInputs, sizzle_zz_induced,
                                  static_zz)
from starkzz.pulse import (DEFAULT_DT, Envelope, FrameChange, OperatingFrame, Play,
                           PulseSchedule, propagate)
from starkzz import spectrum
from starkzz.spectrum import (driven_pair_rates, pair_rates, rwa_spectrum,
                              undriven_reference)

NU_D = 5.1


def tone_pair(amp0, amp1, phi0=math.pi, nu_d=NU_D):
    return (DriveTone(0, amp0, nu_d, phi0), DriveTone(1, amp1, nu_d, 0.0))


def small_chain(n, freqs, alphas, js, levels=4):
    return SystemSpec(
        transmons=tuple(TransmonSpec(f, a, levels) for f, a in zip(freqs, alphas)),
        couplings=tuple(direct_coupling(i, i + 1, j) for i, j in enumerate(js)))


class TestPhaseNull:
    def test_device_a_null_near_pi(self, device_a):
        """At just-sufficient amplitudes the null sits close to pi."""
        system = device_a.with_drives(tone_pair(0.0649, 0.0242, phi0=0.0))
        phi = find_cancellation_phase(system)
        assert abs(driven_pair_rates(
            device_a.with_drives(tone_pair(0.0649, 0.0242, phi0=phi))).zz) < 5e-6
        assert phi == pytest.approx(math.pi, abs=0.5)

    def test_zero_static_nulls_at_quarter_turn(self):
        """Strict two-level qubits carry no static ZZ, leaving a pure cosine
        whose null is at pi/2."""
        system = SystemSpec(
            transmons=(TransmonSpec(4.95, -0.30, 2), TransmonSpec(5.03, -0.30, 2)),
            couplings=(direct_coupling(0, 1, 0.005),),
            drives=tone_pair(0.02, 0.02, phi0=0.0))
        phi = find_cancellation_phase(system)
        assert phi == pytest.approx(math.pi / 2, abs=math.radians(2.0))

    def test_matches_perturbative_inversion(self, device_a):
        """Closed-form arccos of the coefficient ratio predicts the null.

        A reduced coupling keeps both the static and the induced parts in
        the perturbative regime where the closed forms are accurate.
        """
        amp0, amp1 = 0.012, 0.009
        weak = replace(device_a, couplings=(direct_coupling(0, 1, 0.0005),))
        t0, t1 = weak.transmons
        inputs = PerturbativeInputs(
            nu0=t0.frequency, nu1=t1.frequency, alpha0=t0.anharmonicity,
            alpha1=t1.anharmonicity, j=0.0005,
            omega0=amp0, omega1=amp1, phi=0.0, nu_d=NU_D)
        static = static_zz(inputs)
        induced_peak = sizzle_zz_induced(inputs)
        predicted = math.acos(-static / induced_peak)
        system = weak.with_drives(tone_pair(amp0, amp1, phi0=0.0))
        phi = find_cancellation_phase(system)
        assert phi == pytest.approx(predicted, abs=math.radians(2.0))

    def test_insufficient_amplitude(self, device_a):
        system = device_a.with_drives(tone_pair(0.02, 0.008, phi0=0.0))
        with pytest.raises(InsufficientAmplitudeError):
            find_cancellation_phase(system)

    def test_uncoupled_returns_an_endpoint(self, monkeypatch):
        """zz vanishing at both endpoints returns one of them, with no
        division by the endpoint difference."""
        system = SystemSpec(
            transmons=(TransmonSpec(4.96, -0.29, 3), TransmonSpec(5.02, -0.29, 3)),
            drives=tone_pair(0.02, 0.02, phi0=0.0))
        assert find_cancellation_phase(system) in (0.0, math.pi)
        monkeypatch.setattr(calibrate, "_zz_at_phase", lambda *args: 0.0)
        assert find_cancellation_phase(system) == 0.0

    def test_nonconvergence_carries_the_transcript(self, device_a, monkeypatch):
        monkeypatch.setattr(calibrate, "MAX_NEWTON_ITERATIONS", 2)
        with pytest.raises(NonconvergenceError, match="after 2 iterations") as err:
            find_cancellation_phase(device_a.with_drives(tone_pair(0.0649, 0.0242, phi0=0.0)))
        rows = err.value.transcript
        assert [row["iteration"] for row in rows] == [0, 1]
        assert all(abs(row["zz"]) > calibrate.PAIR_TOLERANCE for row in rows)
        assert all(0.0 < row["phase_difference"] < math.pi for row in rows)

    def test_global_phase_offset_invariance(self, device_a):
        base = device_a.with_drives(tone_pair(0.0649, 0.0242, phi0=0.0))
        shifted = device_a.with_drives(
            (DriveTone(0, 0.0649, NU_D, 0.9), DriveTone(1, 0.0242, NU_D, 0.9)))
        assert find_cancellation_phase(base) == pytest.approx(
            find_cancellation_phase(shifted), abs=1e-6)


class TestAmplitudeNull:
    def test_device_a_ratio_point(self, device_a):
        system = device_a.with_drives(tone_pair(0.059, 0.022))
        scale = find_cancellation_amplitude(system, max_scale=3.0)
        assert 0.9 < scale < 1.3
        drives = tone_pair(0.059 * scale, 0.022 * scale)
        rates = driven_pair_rates(device_a.with_drives(drives),
                                  reference=undriven_reference(device_a))
        assert abs(rates.zz) < 5e-6
        assert rates.stark_shift_q0 == pytest.approx(-7.8e-3, rel=0.3)
        assert rates.stark_shift_q1 == pytest.approx(-1.7e-3, rel=0.3)

    def test_uncoupled_returns_zero(self):
        system = SystemSpec(
            transmons=(TransmonSpec(4.96, -0.29, 4), TransmonSpec(5.02, -0.29, 4)),
            drives=tone_pair(0.02, 0.02))
        assert find_cancellation_amplitude(system) == 0.0

    def test_unreachable_raises(self, device_a):
        # wrong phase: the induced part adds to the static value
        system = device_a.with_drives(tone_pair(0.01, 0.01, phi0=0.0))
        with pytest.raises(CancellationUnreachableError):
            find_cancellation_amplitude(system, max_scale=3.0)


    @pytest.mark.parametrize("factor", [1.0, 10.0, 0.1])
    def test_template_size_only_moves_the_scale(self, factor):
        """The device-a 59:22 template nulls at scale 1.0544; the same
        template 10x too large or too small nulls at 0.1054 or 10.54."""
        device_a = to_system(load_preset("device-a"))
        system = device_a.with_drives(tone_pair(0.059 * factor, 0.022 * factor))
        scale = find_cancellation_amplitude(system, max_scale=30.0)
        assert scale == pytest.approx(1.0543730505562796 / factor, rel=1e-8)

    def test_device_b_pair_search_takes_few_spectra(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return driven_pair_rates(*args, **kwargs)

        monkeypatch.setattr(calibrate, "driven_pair_rates", counting)
        scale = find_cancellation_amplitude(to_system(load_preset("device-b-pair")),
                                            max_scale=30.0)
        assert scale == pytest.approx(14.823552217564387, rel=1e-8)
        assert len(calls) <= 8

    def test_unreachable_names_the_scale(self, device_a):
        system = device_a.with_drives(tone_pair(0.01, 0.01, phi0=0.0))
        with pytest.raises(CancellationUnreachableError,
                           match=r"reaches a scale of -\d.*, outside \[0, 3\]"):
            find_cancellation_amplitude(system, max_scale=3.0)


class TestChainCancellation:
    def test_two_qubit_chain_matches_amplitude_search(self, device_a):
        solution = chain_cancellation(device_a, NU_D, seed_stark_shift=1e-3)
        assert max(abs(r) for r in solution.residual_zz) < 5e-6
        # same pair solved per-axis: the amplitude search at the solution's
        # ratio and phases must find the same operating point
        template = device_a.with_drives((
            DriveTone(0, solution.amplitudes[0], NU_D, solution.phases[0]),
            DriveTone(1, solution.amplitudes[1], NU_D, solution.phases[1])))
        scale = find_cancellation_amplitude(template, max_scale=2.0)
        assert scale == pytest.approx(1.0, abs=0.01)

    def test_three_qubit_reversal_validity(self):
        """Solving the reversed chain gives a solution that, mapped back,
        nulls every pair of the original chain.

        A literally mirror-symmetric three-qubit line would force the two
        end qubits exactly degenerate, where label assignment is
        ill-conditioned, so reversal is checked on a staggered chain
        instead.
        """
        freqs, alphas, js = (4.93, 4.99, 4.95), (-0.29, -0.291, -0.289), \
            (0.0014, 0.0013)
        chain = small_chain(3, freqs, alphas, js)
        reversed_chain = small_chain(3, freqs[::-1], alphas[::-1], js[::-1])
        solution = chain_cancellation(reversed_chain, NU_D, seed_stark_shift=8e-4)
        assert max(abs(r) for r in solution.residual_zz) < 5e-6
        # map the reversed solution back onto the original orientation
        drives = tuple(
            DriveTone(2 - i, amp, NU_D, phase)
            for i, (amp, phase) in enumerate(zip(solution.amplitudes,
                                                 solution.phases))
            if amp > 0)
        for pair in ((0, 1), (1, 2)):
            rates = driven_pair_rates(chain.with_drives(drives), *pair)
            assert abs(rates.zz) < 5e-6

    def test_solution_residuals_reproducible(self):
        chain = small_chain(3, (4.93, 4.99, 4.95), (-0.29, -0.291, -0.289),
                            (0.0014, 0.0013))
        solution = chain_cancellation(chain, NU_D, seed_stark_shift=8e-4)
        drives = tuple(DriveTone(i, a, NU_D, p)
                       for i, (a, p) in enumerate(zip(solution.amplitudes,
                                                      solution.phases))
                       if a > 0)
        for i in range(2):
            rates = driven_pair_rates(chain.with_drives(drives), i, i + 1)
            assert rates.zz == pytest.approx(solution.residual_zz[i], abs=1e-9)

    def test_joint_solve_meets_its_tolerance(self):
        """One Newton solve holds every NN residual and qubit 0's Stark shift
        within CHAIN_TOLERANCE, and its transcript ends below it."""
        chain = small_chain(3, (4.93, 4.99, 4.95), (-0.29, -0.291, -0.289),
                            (0.0014, 0.0013))
        solution = chain_cancellation(chain, NU_D, seed_stark_shift=8e-4)
        tolerance = calibrate.CHAIN_TOLERANCE
        assert tolerance == calibrate.NULL_TOLERANCE / 100
        assert max(abs(r) for r in solution.residual_zz) < tolerance
        assert abs(solution.stark_shifts[0]) == pytest.approx(8e-4, abs=tolerance)
        assert solution.transcript[-1]["max_frequency_error"] < tolerance
        assert [row["iteration"] for row in solution.transcript] == list(
            range(len(solution.transcript)))
        assert solution.transcript[-1]["amplitude_2"] == solution.amplitudes[2]

    def test_alternating_phases(self):
        chain = small_chain(3, (4.93, 4.99, 4.95), (-0.29, -0.291, -0.289),
                            (0.0014, 0.0013))
        solution = chain_cancellation(chain, NU_D, seed_stark_shift=8e-4)
        assert solution.phases == (0.0, math.pi, 0.0)

    def test_sparse_path_matches_dense(self, monkeypatch):
        chain = small_chain(3, (4.93, 4.99, 4.95), (-0.29, -0.291, -0.289),
                            (0.0014, 0.0013))
        dense = chain_cancellation(chain, NU_D, seed_stark_shift=8e-4)
        solves = []

        def counting(h, dims, labels, **kwargs):
            assert h.dtype == np.float64  # 0/pi tones: solved in real arithmetic
            solves.append(labels)
            return original(h, dims, labels, **kwargs)

        original = spectrum.targeted_label_energies
        monkeypatch.setattr(spectrum, "DENSE_LIMIT", chain.total_dimension - 1)
        monkeypatch.setattr(spectrum, "targeted_label_energies", counting)
        lazy = chain_cancellation(chain, NU_D, seed_stark_shift=8e-4)
        assert solves
        assert lazy.amplitudes == pytest.approx(dense.amplitudes, rel=1e-9)
        assert lazy.stark_shifts == pytest.approx(dense.stark_shifts, rel=1e-9)
        assert lazy.residual_zz == pytest.approx(dense.residual_zz, abs=1e-12)
        assert lazy.min_overlap == pytest.approx(dense.min_overlap, abs=1e-9)

    def test_min_overlap_is_the_verified_labels_minimum(self):
        chain = small_chain(3, (4.93, 4.99, 4.95), (-0.29, -0.291, -0.289),
                            (0.0014, 0.0013))
        solution = chain_cancellation(chain, NU_D, seed_stark_shift=8e-4)
        final = rwa_spectrum(chain.with_drives(tuple(
            DriveTone(i, amp, NU_D, phase) for i, (amp, phase)
            in enumerate(zip(solution.amplitudes, solution.phases)) if amp > 0.0)), NU_D)
        assert solution.min_overlap == min(
            pair_rates(final, i, i + 1).min_overlap for i in range(2))
        assert 0.5 < solution.min_overlap < 1.0

    @pytest.mark.parametrize("js, seed, qubit", [
        ((0.0014, 0.020), 8e-4, 2), ((0.0014, 0.0013), 0.05, 0)])
    def test_unreachable_raises_naming_qubit_and_amplitude(self, js, seed, qubit):
        """A 20 MHz coupling needs more than CHAIN_AMPLITUDE_CAP on qubit 2
        (the first Newton step says so); a 50 MHz seed shift puts qubit 0's
        perturbative start above it."""
        chain = small_chain(3, (4.93, 4.99, 4.95), (-0.29, -0.291, -0.289), js)
        named = (rf"qubit {qubit}: the chain solve reaches a tone amplitude of "
                 r"\S+ MHz, outside \[0, 80\] MHz")
        with pytest.raises(CancellationUnreachableError, match=named):
            chain_cancellation(chain, NU_D, seed_stark_shift=seed)

    def test_drive_below_qubits_rejected(self):
        chain = small_chain(2, (5.2, 4.99), (-0.29, -0.29), (0.0014,))
        with pytest.raises(ValueError):
            chain_cancellation(chain, NU_D)

    @pytest.mark.parametrize("levels, budget", [(None, 5), ((5, 4, 4, 4, 4), 5)])
    def test_device_b_chain_spectrum_budget(self, monkeypatch, levels, budget):
        """The closed-form first Jacobian and Broyden updates solve the full
        3-level chain and the benchmark's 5-transmon cut in a handful of
        full-chain spectra (11 and 9 with a forward-difference Jacobian)."""
        chain = to_system(load_preset("device-b-chain"))
        if levels is not None:
            chain = SystemSpec(
                transmons=tuple(replace(t, levels=n)
                                for t, n in zip(chain.transmons, levels)),
                couplings=tuple(c for c in chain.couplings
                                if max(c.endpoints) < len(levels)))
        spectra = count_spectra(monkeypatch)
        solution = chain_cancellation(chain, NU_D, seed_stark_shift=1e-3)
        assert len(spectra) <= budget
        assert max(abs(r) for r in solution.residual_zz) < calibrate.CHAIN_TOLERANCE

    def test_device_a_chain_spectrum_budget(self, device_a, monkeypatch):
        """Device-a's far start (a 0.6 MHz first error) takes at most 8
        spectra, where the forward-difference solve took 25."""
        spectra = count_spectra(monkeypatch)
        solution = chain_cancellation(device_a, NU_D, seed_stark_shift=1e-3)
        assert len(spectra) <= 8
        assert max(abs(r) for r in solution.residual_zz) < calibrate.CHAIN_TOLERANCE


class TestDrivenZzRate:
    def test_matches_spectrum_for_common_frequency(self, device_a):
        """Constant extra tones at the CW frequency reproduce the combined
        RWA spectrum zz.

        Same-frequency tones on one transmon add as phasors, so the oracle
        is the spectrum of the merged single-tone system.  The time-domain
        value carries a small basis wobble (the extra tones re-dress the
        operating basis), hence the few-percent tolerance.
        """
        cw = tone_pair(0.030, 0.015)
        extra = (DriveTone(0, 0.012, NU_D, math.pi),
                 DriveTone(1, 0.006, NU_D, 0.0))
        merged = device_a.with_drives(tone_pair(0.042, 0.021))
        spectral = driven_pair_rates(merged).zz
        time_domain = driven_zz_rate(device_a.with_drives(cw), extra,
                                     duration=200.0)
        assert time_domain == pytest.approx(spectral, rel=0.05)


def spectator_pair(cw_amps):
    """Transmon 0 uncoupled; the device-a-like coupled pair is (1, 2)."""
    system = SystemSpec(
        transmons=(TransmonSpec(5.6, -0.3, 3), TransmonSpec(4.96, -0.283, 3),
                   TransmonSpec(5.016, -0.287, 3)),
        couplings=(direct_coupling(1, 2, 0.007745),))
    return system.with_drives((DriveTone(1, cw_amps[0], NU_D, math.pi),
                               DriveTone(2, cw_amps[1], NU_D, 0.0)))


class TestDrivenZzRatePair:
    def test_rate_of_the_requested_pair(self):
        """On a pair other than (0, 1) the time-domain rate matches the
        merged-tone spectrum of that pair."""
        extra = (DriveTone(1, 0.012, NU_D, math.pi),
                 DriveTone(2, 0.006, NU_D, 0.0))
        spectral = driven_pair_rates(spectator_pair((0.042, 0.021)), 1, 2).zz
        time_domain = driven_zz_rate(spectator_pair((0.030, 0.015)), extra,
                                     duration=200.0, q0=1, q1=2)
        assert time_domain == pytest.approx(spectral, rel=0.05)


class TestCzDegenerate:
    def test_zero_gate_amplitude_does_not_converge(self, device_a, monkeypatch):
        cw = device_a.with_drives(tone_pair(0.0622, 0.0232))
        monkeypatch.setattr(calibrate, "MAX_NEWTON_ITERATIONS", 6)
        with pytest.raises(NonconvergenceError):
            calibrate_cz(cw, 200.0, 4.9, 0.0, control=1, target=0)


@pytest.fixture(scope="module")
def preset_a():
    """The device-a preset with its CW cancellation tones, as the CLI runs it."""
    return to_system(load_preset("device-a"))


def gate_of(system):
    return _RepeatedGate(system, OperatingFrame(system), control=1, target=0,
                         dt=DEFAULT_DT)


def count_propagations(monkeypatch):
    """Record the schedule of every `propagate` call the calibrations make."""
    calls = []

    def counted(system, schedule, **kw):
        calls.append(schedule)
        return propagate(system, schedule, **kw)

    monkeypatch.setattr(calibrate, "propagate", counted)
    return calls


def count_spectra(monkeypatch):
    """Record every `rwa_spectrum` call the chain solve makes."""
    calls = []
    monkeypatch.setattr(calibrate, "rwa_spectrum",
                        lambda *a, **kw: calls.append(a) or rwa_spectrum(*a, **kw))
    return calls


def trial_cz():
    """A CZ calibration whose control frame change is still to be set."""
    return CzCalibration(
        control_amplitude=0.03, target_amplitude=0.026, relative_phase=0.0,
        target_frame_change=-0.21, control_frame_change=0.0,
        gate_frequency=4.9, duration=200.0)


class TestControlFrame:
    def test_ends_with_read_below_tolerance(self, preset_a):
        """The control phase is read from the unitary, so one frame change
        nulls it: the first row reads the phase the frame change then takes,
        the last reads below ANGLE_TOLERANCE."""
        cal = trial_cz()
        gate_of(preset_a).set_control_frame(cal, calibrated_cz_schedule, "z")
        phases = [r["control_phase_per_gate"] for r in cal.transcript
                  if r["iteration"] == "control-frame"]
        assert len(phases) == 2
        assert abs(phases[0]) > calibrate.ANGLE_TOLERANCE
        assert cal.control_frame_change == pytest.approx(phases[0])
        assert abs(phases[-1]) < calibrate.ANGLE_TOLERANCE
        assert sorted(cal.transcript[-1]) == ["control_phase_per_gate", "iteration"]


class TestRepeatedGateMemo:
    """`_RepeatedGate.unitary` propagates each distinct pulse once and puts
    trailing frame changes on as operating-frame phases."""

    def test_trailing_frame_changes_match_propagation(self, preset_a):
        gate = gate_of(preset_a)
        cal = CnotCalibration(
            control_amplitude=0.024, target_amplitude=0.0026, control_phase=-0.04,
            target_phase=-0.04, target_drag=-0.52, target_skew=-0.0037,
            target_frame_change=-0.09, control_frame_change=2.38, duration=90.0)
        sched = _cnot_schedule(cal, gate.frame.dressed_frequency(0), 1, 0)
        whole = propagate(preset_a, sched, frame=gate.frame).full_unitary
        assert np.linalg.norm(gate.unitary(sched) - whole) < 1e-12

    def test_early_frame_change_propagated_whole(self, preset_a, monkeypatch):
        gate = gate_of(preset_a)
        env = Envelope(0.02, 60.0, 10.0, 2.0)
        sched = PulseSchedule((FrameChange(0.7, 0),
                               Play(env, gate.frame.dressed_frequency(0), 0.3, 0),
                               FrameChange(-0.4, 1)))
        calls = count_propagations(monkeypatch)
        u = gate.unitary(sched)
        assert calls == [sched]
        whole = propagate(preset_a, sched, frame=gate.frame).full_unitary
        assert np.linalg.norm(u - whole) < 1e-12

    def test_control_frame_propagates_each_pulse_once(self, preset_a, monkeypatch):
        gate = gate_of(preset_a)
        cal = trial_cz()
        calls = count_propagations(monkeypatch)
        gate.set_control_frame(cal, calibrated_cz_schedule, "z")
        rows = [r for r in cal.transcript if r["iteration"] == "control-frame"]
        assert len(rows) >= 2
        assert len(calls) == 1

    def test_memo_lasts_one_calibration(self, preset_a, monkeypatch):
        """A second calibration in the same process propagates as much as
        the first: nothing is replayed from the first one's memo."""
        calls = count_propagations(monkeypatch)
        first = calibrate_cz(preset_a, 200.0, 4.9, 0.026)
        per_run = len(calls)
        second = calibrate_cz(preset_a, 200.0, 4.9, 0.026)
        assert per_run > 0
        assert len(calls) == 2 * per_run
        assert second == first


class TestGateSeeds:
    """Each gate calibration is one Newton solve from its closed-form seed."""

    def test_cnot_loop_starts_at_the_seed(self, preset_a, monkeypatch):
        calls = count_propagations(monkeypatch)
        cal = calibrate_cnot(preset_a, 90.0)
        assert cal.iterations == 2
        assert len(calls) <= 8

    def test_cz_reads_only_its_own_gate(self, preset_a, monkeypatch):
        """The CZ keeps its seed's relative phase 0 and reads neither a
        constant-tone rate nor a period propagator: its transcript starts at
        Newton iteration 0."""
        def refused(*args, **kw):
            raise AssertionError("the CZ read a constant-tone rate")

        monkeypatch.setattr(calibrate, "driven_zz_rate", refused)
        monkeypatch.setattr(calibrate, "period_propagator", refused)
        cal = calibrate_cz(preset_a, 200.0, 4.9, 0.026)
        assert cal.relative_phase == 0.0
        assert cal.transcript[0]["iteration"] == 0

    @pytest.mark.parametrize("phi", [0.3, 0.7, 2.0, 3.0])
    def test_driven_zz_rate_is_even_in_the_phase(self, preset_a, phi):
        """With every CW tone phase 0 or pi, H(-phi) = H(phi)*, so the
        time-domain rate is even in the gate tones' phase difference and
        its extrema sit at 0 and pi."""
        assert {d.phase for d in preset_a.drives} <= {0.0, math.pi}
        frame = OperatingFrame(preset_a)

        def rate(p):
            return driven_zz_rate(preset_a, (DriveTone(1, 0.026, 4.9, p),
                                             DriveTone(0, 0.026, 4.9, 0.0)), frame=frame)

        assert rate(-phi) == pytest.approx(rate(phi), rel=1e-9, abs=0.0)


@dataclass
class Knobs:
    """Stand-in calibration for the Newton loop: two parameters."""

    x: float = 0.0
    y: float = 0.0
    iterations: int = 0
    transcript: list = field(default_factory=list)


def run_newton(measure, start=(0.0, 0.0), steps=(1e-3, 1e-3), **kw):
    """Run newton_loop on Knobs(*start) and return them."""
    knobs = Knobs(*start)

    def set_params(k, p):
        k.x, k.y = float(p[0]), float(p[1])

    options = dict(tolerance=1e-9, max_iterations=10, name="test loop") | kw
    newton_loop(knobs, measure, lambda k: np.array([k.x, k.y]), set_params,
                np.array(steps), lambda k: {"x": k.x, "y": k.y}, **options)
    return knobs


class TestNewtonLoop:
    """The one Newton loop behind the CNOT and CZ calibrations, on
    synthetic residuals (no propagation)."""

    def test_linear_map_converges_in_one_step(self):
        a = np.array([[2.0, 1.0], [0.5, 3.0]])
        b = np.array([1.0, 2.0])
        knobs = run_newton(lambda k: a @ np.array([k.x, k.y]) - b)
        assert knobs.iterations == 1
        assert [row["iteration"] for row in knobs.transcript] == [0, 1]
        assert knobs.transcript[0]["max_angle_error"] == 2.0
        assert np.allclose([knobs.x, knobs.y], np.linalg.solve(a, b), atol=1e-12)

    def test_update_clipped_to_cap(self):
        """A Newton step of 10 on x is cut to the cap of 1 per iteration,
        while the uncapped y lands in one step."""
        with pytest.raises(NonconvergenceError) as info:
            run_newton(lambda k: np.array([k.x - 10.0, k.y - 3.0]),
                       cap=lambda k: np.array([1.0, 100.0]), max_iterations=3)
        rows = info.value.transcript
        assert [row["x"] for row in rows] == pytest.approx([0.0, 1.0, 2.0], abs=1e-9)
        assert [row["y"] for row in rows] == pytest.approx([0.0, 3.0, 3.0], abs=1e-9)

    def test_growing_error_halves_step_and_refreshes_jacobian(self):
        """Newton on atan(x) from x = 2 overshoots: the error grows, so the
        Jacobian is retaken at the new point and that step is halved."""
        h = 1e-6
        with pytest.raises(NonconvergenceError) as info:
            run_newton(lambda k: np.array([math.atan(k.x), k.y]), start=(2.0, 0.0),
                       steps=(h, h), max_iterations=3)
        x0, x1, x2 = (row["x"] for row in info.value.transcript)
        errors = [row["max_angle_error"] for row in info.value.transcript]
        assert errors[1] > errors[0]
        slope0 = (math.atan(x0 + h) - math.atan(x0)) / h
        assert x1 == pytest.approx(x0 - math.atan(x0) / slope0, rel=1e-9)
        slope1 = (math.atan(x1 + h) - math.atan(x1)) / h
        assert x2 == pytest.approx(x1 - 0.5 * math.atan(x1) / slope1, rel=1e-9)

    def test_nonconvergence_carries_transcript(self):
        with pytest.raises(NonconvergenceError) as info:
            run_newton(lambda k: np.array([k.x ** 2 + 1.0, k.y]), max_iterations=4)
        assert "test loop above 1e-09 rad after 4 iterations" in str(info.value)
        assert [row["iteration"] for row in info.value.transcript] == [0, 1, 2, 3]
        assert all(row["max_angle_error"] >= 1.0 for row in info.value.transcript)

    def test_stall_stops_the_solve(self):
        """A residual that no step can lower below its first value stops the
        solve once NEWTON_STALL_ITERATIONS iterations have kept that least
        error, well before the iteration cap."""
        with pytest.raises(NonconvergenceError) as info:
            run_newton(lambda k: np.array([1.0 + abs(k.x - 1.0) + abs(k.y), k.y]),
                       start=(1.0, 0.0), max_iterations=50)
        stall = calibrate.NEWTON_STALL_ITERATIONS
        assert [row["iteration"] for row in info.value.transcript] == list(range(stall + 1))
        assert "least error, 1 rad at iteration 0" in str(info.value)
        assert f"not lowered in {stall} iterations" in str(info.value)

    def test_check_sees_each_new_jacobian(self):
        seen = []
        run_newton(lambda k: np.array([k.x - 1.0, k.y + 2.0]), check=seen.append)
        assert len(seen) == 1
        assert np.allclose(seen[0], np.eye(2), atol=1e-9)

    def test_without_model_rows_are_unchanged(self):
        """Without a model Jacobian the loop keeps its forward-difference
        path: from x = 1.45 the first Newton step on atan overshoots, the
        Jacobian is retaken and the next step halved, and every row equals
        the one this loop has always produced."""
        knobs = run_newton(lambda k: np.array([math.atan(k.x) + 0.1 * k.y,
                                               k.y + 0.3 * math.sin(k.x) - 0.2]),
                           start=(1.45, 0.0), tolerance=1e-6)
        rows = [(r["iteration"], r["max_angle_error"], r["x"], r["y"])
                for r in knobs.transcript]
        assert rows == [
            (0, 0.9670469933974603, 1.45, 0.0),
            (1, 0.9982255543218727, -1.5548836947212232, 0.0103676786112896),
            (2, 0.09385251308788647, 0.06924604083015717, 0.24716833503405536),
            (3, 0.2067256086504888, -0.22866128730612267, 0.18070955265429153),
            (4, 0.10132208655384846, -0.12120591859487705, 0.1929546921613331),
            (5, 0.004622220826818263, -0.015929979547174622, 0.20550853092693233),
            (6, 0.00024265381254707022, -0.020867858539072894, 0.20622176426187028),
            (7, 1.2716370424197682e-05, -0.020608615056146768, 0.20618414573752583),
            (8, 6.664746462874127e-07, -0.020622200797100466, 0.2061861169821584)]

    def test_model_jacobian_off_by_two_converges(self):
        """A model twice too steep with wrong off-diagonals takes the first
        step (no forward-difference probes) and Broyden updates finish."""
        a = np.array([[2.0, 1.0], [0.5, 3.0]])
        b = np.array([1.0, 2.0])
        model = 2.0 * a + np.array([[0.0, 1.5], [-1.0, 0.0]])
        probes = []

        def measure(k):
            probes.append((k.x, k.y))
            return a @ np.array([k.x, k.y]) - b

        seen = []
        knobs = run_newton(measure, jacobian=lambda k: model, check=seen.append)
        assert np.allclose([knobs.x, knobs.y], np.linalg.solve(a, b), atol=1e-9)
        assert len(seen) == 1 and np.array_equal(seen[0], model)
        assert probes[1] == pytest.approx(np.linalg.solve(model, b), rel=1e-12)
        assert len(probes) == knobs.iterations + 1

    def test_model_zero_row_refreshes_instead_of_stalling(self):
        """A zero model row (as a zero-J pair gives) leaves y untouched, so
        the error cannot fall; that step retakes the Jacobian by forward
        differences and the solve ends at the next step."""
        probes = []

        def measure(k):
            probes.append((k.x, k.y))
            return np.array([k.x - 1.0, k.y + 2.0])

        knobs = run_newton(measure, jacobian=lambda k: np.diag([1.0, 0.0]))
        assert (knobs.x, knobs.y) == pytest.approx((1.0, -2.0), abs=1e-9)
        assert knobs.iterations == 2
        assert [r["max_angle_error"] for r in knobs.transcript][:2] == [2.0, 2.0]
        assert len(probes) == 3 + 2  # three iterations and one 2-column probe

    def test_model_zero_row_with_coupled_equations_converges(self):
        """A zero model row on a coupled linear map still converges."""
        a = np.array([[2.0, 1.0], [0.5, 3.0]])
        b = np.array([1.0, 2.0])
        knobs = run_newton(lambda k: a @ np.array([k.x, k.y]) - b,
                           jacobian=lambda k: np.array([[2.0, 1.0], [0.0, 0.0]]))
        assert np.allclose([knobs.x, knobs.y], np.linalg.solve(a, b), atol=1e-9)
