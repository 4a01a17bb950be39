import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from starkzz.calibrate import (CzCalibration, calibrate_cz, chain_cancellation,
                               driven_zz_rate, find_cancellation_amplitude,
                               find_cancellation_phase, newton_loop)
from starkzz.errors import (CancellationUnreachableError,
                            InsufficientAmplitudeError, NonconvergenceError)
from starkzz.operators import (DriveRole, DriveTone, SystemSpec, TransmonSpec,
                               direct_coupling)
from starkzz.perturbation import (PerturbativeInputs, sizzle_zz_induced,
                                  static_zz)
from starkzz import spectrum
from starkzz.spectrum import driven_pair_rates, undriven_reference

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
        from dataclasses import replace as dc_replace
        amp0, amp1 = 0.012, 0.009
        weak = dc_replace(device_a, couplings=(direct_coupling(0, 1, 0.0005),))
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

    def test_residuals_monotone_under_pair_solve(self):
        """Solving a pair never leaves it worse than before its solve."""
        chain = small_chain(3, (4.93, 4.99, 4.95), (-0.29, -0.291, -0.289),
                            (0.0014, 0.0013))
        solution = chain_cancellation(chain, NU_D, seed_stark_shift=8e-4)
        for i in range(2):
            # pre-solve zz for pair (i, i+1): tones up to qubit i only
            drives = tuple(
                DriveTone(k, solution.amplitudes[k], NU_D, solution.phases[k])
                for k in range(i + 1) if solution.amplitudes[k] > 0)
            before = driven_pair_rates(chain.with_drives(drives), i, i + 1).zz
            assert abs(solution.residual_zz[i]) <= abs(before) + 1e-12

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

    def test_drive_below_qubits_rejected(self):
        chain = small_chain(2, (5.2, 4.99), (-0.29, -0.29), (0.0014,))
        with pytest.raises(ValueError):
            chain_cancellation(chain, NU_D)


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
        extra = (DriveTone(0, 0.012, NU_D, math.pi, role=DriveRole.GATE),
                 DriveTone(1, 0.006, NU_D, 0.0, role=DriveRole.GATE))
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
        extra = (DriveTone(1, 0.012, NU_D, math.pi, role=DriveRole.GATE),
                 DriveTone(2, 0.006, NU_D, 0.0, role=DriveRole.GATE))
        spectral = driven_pair_rates(spectator_pair((0.042, 0.021)), 1, 2).zz
        time_domain = driven_zz_rate(spectator_pair((0.030, 0.015)), extra,
                                     duration=200.0, q0=1, q1=2)
        assert time_domain == pytest.approx(spectral, rel=0.05)

    def test_cz_phase_precalibration_reads_the_gate_pair(self):
        """The CZ phase precalibration maximises the ZZ of the gate pair,
        not that of transmons 0 and 1 (uncoupled here, so zero)."""
        with pytest.raises(NonconvergenceError) as info:
            calibrate_cz(spectator_pair((0.030, 0.015)), 200.0, 4.9, 0.02,
                         control=2, target=1, max_iterations=0)
        precal = info.value.transcript[0]
        assert precal["iteration"] == "phase-precal"
        assert abs(precal["zz_rate"]) > 1e-4


class TestCzDegenerate:
    def test_zero_gate_amplitude_does_not_converge(self, device_a):
        cw = device_a.with_drives(tone_pair(0.0622, 0.0232))
        with pytest.raises(NonconvergenceError):
            from starkzz.calibrate import calibrate_cz
            calibrate_cz(cw, 200.0, 4.9, 0.0, control=1, target=0,
                         max_iterations=6)


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
                np.array(steps), ("x", "y"), **options)
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

    def test_check_sees_each_new_jacobian(self):
        seen = []
        run_newton(lambda k: np.array([k.x - 1.0, k.y + 2.0]), check=seen.append)
        assert len(seen) == 1
        assert np.allclose(seen[0], np.eye(2), atol=1e-9)
