"""Acceptance criteria, one test per criterion, with pass/fail lines.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Tolerances are pinned here and nowhere else; runtime caps are
asserted with `time.perf_counter` around the computational core.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from starkzz.calibrate import (calibrate_cnot, calibrate_cz, chain_cancellation,
                               cnot_gate_result, cz_gate_result,
                               find_cancellation_amplitude)
from starkzz.config import load_preset, to_system
from starkzz.operators import (DriveTone, SystemSpec, TransmonSpec,
                               build_rwa_hamiltonian, build_static_hamiltonian,
                               direct_coupling, is_hermitian)
from starkzz.perturbation import (PerturbativeInputs, sizzle_zz_induced,
                                  static_zz, two_level_zz, zx_first_order,
                                  zx_with_cancellation)
from starkzz.pulse import (Envelope, FrameChange, OperatingFrame, Play, PulseSchedule,
                           extract_pauli_rates, propagate)
from starkzz.spectrum import (driven_pair_rates, effective_j, pair_rates,
                              single_path_equivalent, static_spectrum,
                              undriven_reference)

NU_D = 5.1
FIG1_NU_D = 5.075


def report(criterion: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion}: {description}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {criterion}: {description} {detail}"


@pytest.fixture(scope="module")
def device_a_system(device_a):
    return device_a


@pytest.fixture(scope="module")
def device_a_cancelled(device_a):
    """Device A with CW tones at the solved null of the 59:22 ratio."""
    template = device_a.with_drives(
        (DriveTone(0, 0.059, NU_D, math.pi), DriveTone(1, 0.022, NU_D, 0.0)))
    scale = find_cancellation_amplitude(template, max_scale=3.0)
    return device_a.with_drives(
        (DriveTone(0, 0.059 * scale, NU_D, math.pi),
         DriveTone(1, 0.022 * scale, NU_D, 0.0))), scale


@pytest.fixture(scope="module")
def cz_calibration(device_a_cancelled):
    system, _ = device_a_cancelled
    start = time.perf_counter()
    cal = calibrate_cz(system, 200.0, 4.9, 0.026, control=1, target=0)
    result = cz_gate_result(system, cal, control=1, target=0)
    return cal, result, time.perf_counter() - start


def perturbative_inputs(system, **kw):
    t0, t1 = system.transmons[:2]
    j = sum(c.strength for c in system.couplings if c.strength is not None)
    return PerturbativeInputs(nu0=t0.frequency, nu1=t1.frequency,
                              alpha0=t0.anharmonicity, alpha1=t1.anharmonicity,
                              j=j, **kw)


class TestCriterion1:
    def test_static_zz_device_a(self, device_a_system):
        start = time.perf_counter()
        numeric = pair_rates(static_spectrum(device_a_system)).zz
        closed_form = static_zz(perturbative_inputs(device_a_system))
        elapsed = time.perf_counter() - start
        ok = (abs(numeric - 875e-6) < 0.05 * 875e-6
              and abs(closed_form - numeric) < 0.05 * abs(numeric)
              and elapsed < 1.0)
        report(1, "static ZZ within 5% of 875 kHz, closed form within 5%", ok,
               f"numeric {numeric * 1e6:.1f} kHz, form {closed_form * 1e6:.1f} kHz, "
               f"{elapsed:.2f} s")


class TestCriterion2:
    def test_perturbative_crossover(self, device_a_system):
        start = time.perf_counter()
        omegas = np.linspace(0.0, 0.060, 41)
        reference = undriven_reference(device_a_system)
        static_num = pair_rates(reference).zz
        numeric, perturbative = [], []
        for omega in omegas:
            drives = (DriveTone(0, omega, FIG1_NU_D, math.pi),
                      DriveTone(1, 0.5 * omega, FIG1_NU_D, 0.0))
            numeric.append(driven_pair_rates(
                device_a_system.with_drives(drives)).zz)
            perturbative.append(sizzle_zz_induced(perturbative_inputs(
                device_a_system, omega0=omega, omega1=0.5 * omega,
                phi=math.pi, nu_d=FIG1_NU_D)))
        elapsed = time.perf_counter() - start
        numeric = np.asarray(numeric)
        perturbative = np.asarray(perturbative)
        induced_num = numeric - static_num

        small = (omegas > 0) & (omegas <= 0.020 + 1e-12)
        rel = np.abs(induced_num[small] - perturbative[small]) / np.abs(
            perturbative[small])
        discrepancy = np.abs(induced_num - perturbative)
        beyond = omegas >= 0.020 - 1e-12
        growing = np.all(np.diff(discrepancy[beyond]) > 0)
        ok = np.max(rel) < 0.10 and growing and elapsed < 10.0
        report(2, "induced ZZ matches diagonalization within 10% up to 20 MHz, "
                  "discrepancy grows beyond", ok,
               f"max rel {np.max(rel):.3f}, monotone {growing}, {elapsed:.1f} s")


class TestCriterion3:
    def test_phase_law(self, device_a_system):
        phis = np.linspace(0.0, 2 * math.pi, 41)
        zz = []
        for phi in phis:
            drives = (DriveTone(0, 0.040, FIG1_NU_D, phi),
                      DriveTone(1, 0.020, FIG1_NU_D, 0.0))
            zz.append(driven_pair_rates(device_a_system.with_drives(drives)).zz)
        zz = np.asarray(zz)
        design = np.stack([np.ones_like(phis), np.cos(phis), np.sin(phis)],
                          axis=1)
        coef, *_ = np.linalg.lstsq(design, zz, rcond=None)
        model = design @ coef
        r2 = 1 - np.sum((zz - model) ** 2) / np.sum((zz - zz.mean()) ** 2)
        phi0 = math.atan2(-coef[2], coef[1])
        ok = r2 > 0.999 and abs(phi0) < math.radians(2.0)
        report(3, "41-point phase sweep fits A + B cos(phi + phi0), R^2 > "
                  "0.999, |phi0| < 2 deg", ok,
               f"R^2 {r2:.6f}, phi0 {math.degrees(phi0):.3f} deg")


class TestCriterion4:
    def test_bilinearity(self, device_a_system):
        static_num = pair_rates(undriven_reference(device_a_system)).zz
        scales = np.linspace(0.25, 1.0, 10)
        induced = []
        for s in scales:
            drives = (DriveTone(0, 0.015 * s, FIG1_NU_D, math.pi),
                      DriveTone(1, 0.015 * s, FIG1_NU_D, 0.0))
            induced.append(abs(driven_pair_rates(
                device_a_system.with_drives(drives)).zz - static_num))
        exponent = np.polyfit(np.log(scales), np.log(induced), 1)[0]
        ok = abs(exponent - 2.00) <= 0.05
        report(4, "amplitude-scaling exponent 2.00 +- 0.05 below 15 MHz", ok,
               f"exponent {exponent:.4f}")


class TestCriterion5:
    def test_cancellation_operating_point(self, device_a, device_a_cancelled):
        system, scale = device_a_cancelled
        rates = driven_pair_rates(system, reference=undriven_reference(device_a))
        ok = (abs(rates.zz) < 5e-6
              and rates.stark_shift_q0 < 0 and rates.stark_shift_q1 < 0
              and abs(rates.stark_shift_q0 + 7.8e-3) < 0.30 * 7.8e-3
              and abs(rates.stark_shift_q1 + 1.7e-3) < 0.30 * 1.7e-3)
        report(5, "59:22 null exists with |ZZ| < 5 kHz and Stark shifts "
                  "within 30% of -7.8/-1.7 MHz", ok,
               f"scale {scale:.3f}, zz {rates.zz * 1e6:.3f} kHz, shifts "
               f"{rates.stark_shift_q0 * 1e3:.2f}/{rates.stark_shift_q1 * 1e3:.2f} MHz")


class TestCriterion6:
    def test_multi_path_vs_single_path(self, device_b_pair):
        start = time.perf_counter()
        probe = (DriveTone(0, 0.01, NU_D, 0.0), DriveTone(1, 0.01, NU_D, 0.0))
        j_eff = effective_j(device_b_pair, probe)

        template = (DriveTone(0, 0.001, NU_D, math.pi),
                    DriveTone(1, 0.001, NU_D, 0.0))
        mpc_scale = find_cancellation_amplitude(
            device_b_pair.with_drives(template), max_scale=30.0)
        spc = single_path_equivalent(device_b_pair, abs(j_eff))
        spc_scale = find_cancellation_amplitude(
            spc.with_drives(template), max_scale=80.0)
        elapsed = time.perf_counter() - start
        mpc_amp = mpc_scale * 0.001
        spc_amp = spc_scale * 0.001
        ok = (abs(mpc_amp - 15e-3) < 0.20 * 15e-3
              and abs(spc_amp - 55e-3) < 0.20 * 55e-3
              and abs(abs(j_eff) - 3.28e-3) < 0.1e-3
              and elapsed < 120.0)
        report(6, "multi-path cancels at 15 MHz +- 20%, single-path at "
                  "55 MHz +- 20%, J_eff = 3.28 +- 0.1 MHz", ok,
               f"mpc {mpc_amp * 1e3:.2f} MHz, spc {spc_amp * 1e3:.2f} MHz, "
               f"J_eff {abs(j_eff) * 1e3:.3f} MHz, {elapsed:.0f} s")


class TestCriterion7:
    def test_zx_rates(self, device_a, device_a_cancelled):
        cancelled, _ = device_a_cancelled
        start = time.perf_counter()
        results = {}
        for label, system in (("off", device_a), ("on", cancelled)):
            cw = system.drives
            frame = OperatingFrame(system) if cw else OperatingFrame(
                system, system.transmons[0].frequency)
            carrier = frame.dressed_frequency(0)
            tones = {d.target: d.amplitude for d in cw}
            rows = []
            for omega in (0.002, 0.005, 0.010):
                rates = extract_pauli_rates(system, omega, carrier,
                                            control=1, target=0)
                pert = float(zx_with_cancellation(perturbative_inputs(
                    system, omega0=tones.get(0, 0.0), omega1=tones.get(1, 0.0),
                    nu_d=cw[0].frequency if cw else carrier,
                    omega_cr=omega), cr_on=1))
                rows.append((omega, rates["ZX"], pert))
            results[label] = rows
        elapsed = time.perf_counter() - start

        within_15 = all(abs(zx - pert) <= 0.15 * abs(pert)
                        for rows in results.values()
                        for _, zx, pert in rows)
        omega0, zx0, _ = results["off"][0]
        slope_ratio = zx0 / zx_first_order(perturbative_inputs(
            device_a, nu_d=OperatingFrame(
                device_a, device_a.transmons[0].frequency).dressed_frequency(0),
            omega_cr=omega0), cr_on=1)
        slope_ok = abs(slope_ratio - 1.0) < 0.10
        ok = within_15 and slope_ok and elapsed < 300.0
        report(7, "tomography ZX within 15% of the closed form up to 10 MHz "
                  "(tones on and off), low-amplitude slope matches the "
                  "first-order coefficient within 10%", ok,
               f"slope ratio {slope_ratio:.3f}, {elapsed:.0f} s")


class TestCriterion8:
    def test_cz_gate(self, cz_calibration):
        cal, result, elapsed = cz_calibration
        ok = (cal.converged and result.fidelity >= 0.999
              and result.leakage < 1e-3 and elapsed < 600.0)
        report(8, "CZ loop converges at 0.01 rad, closed-system fidelity "
                  ">= 0.999, leakage < 1e-3", ok,
               f"fidelity {result.fidelity:.6f}, leakage {result.leakage:.2e}, "
               f"{cal.iterations} iterations, {elapsed:.0f} s")


class TestCriterion9:
    def test_cnot_gate(self, device_a_cancelled):
        system, _ = device_a_cancelled
        start = time.perf_counter()
        cal = calibrate_cnot(system, 90.0, control=1, target=0)
        result = cnot_gate_result(system, cal, control=1, target=0)
        elapsed = time.perf_counter() - start
        ok = (cal.converged and result.fidelity >= 0.999
              and result.leakage < 1e-3)
        report(9, "90 ns CNOT loop converges, fidelity >= 0.999, "
                  "leakage < 1e-3", ok,
               f"fidelity {result.fidelity:.6f}, leakage {result.leakage:.2e}, "
               f"{cal.iterations} iterations, {elapsed:.0f} s")


class TestCriterion10:
    def test_chain_cancellation(self):
        chain = to_system(load_preset("device-b-chain"))
        start = time.perf_counter()
        solution = chain_cancellation(chain, NU_D, seed_stark_shift=1e-3)
        elapsed = time.perf_counter() - start
        worst_zz = max(abs(r) for r in solution.residual_zz)
        worst_shift = max(abs(s) for s in solution.stark_shifts)
        ok = worst_zz < 5e-6 and worst_shift <= 1.2e-3 and elapsed < 300.0
        report(10, "seven-qubit chain: all six residuals < 5 kHz, max Stark "
                   "shift <= 1.2 MHz", ok,
               f"worst zz {worst_zz * 1e6:.3f} kHz, worst shift "
               f"{worst_shift * 1e3:.3f} MHz, {elapsed:.0f} s")


class TestCriterion11:
    """Always-on property suite distilled to one pass/fail line."""

    def test_property_suite(self, device_a, cz_calibration, tmp_path):
        checks = {}

        # Hermiticity of built Hamiltonians
        drives = (DriveTone(0, 0.04, FIG1_NU_D, 1.1), DriveTone(1, 0.02, FIG1_NU_D, 0.2))
        checks["hermiticity"] = (
            is_hermitian(build_static_hamiltonian(device_a))
            and is_hermitian(build_rwa_hamiltonian(
                device_a.with_drives(drives), FIG1_NU_D)))

        # Unitarity drift of a driven propagation
        cancelled = device_a.with_drives(
            (DriveTone(0, 0.0622, NU_D, math.pi), DriveTone(1, 0.0232, NU_D, 0.0)))
        frame = OperatingFrame(cancelled)
        env = Envelope(0.02, 90.0, 10.0, 2.0)
        sched = PulseSchedule((Play(env, frame.dressed_frequency(0), 0.0, 1),))
        res = propagate(cancelled, sched, frame=frame)
        checks["unitarity<1e-9"] = bool(np.linalg.norm(
            res.full_unitary.conj().T @ res.full_unitary - np.eye(25)) < 1e-9)

        # Global-phase gauge invariance of spectra
        shifted = tuple(replace(d, phase=d.phase + 0.77) for d in drives)
        e1 = np.linalg.eigvalsh(build_rwa_hamiltonian(
            device_a.with_drives(drives), FIG1_NU_D))
        e2 = np.linalg.eigvalsh(build_rwa_hamiltonian(
            device_a.with_drives(shifted), FIG1_NU_D))
        checks["gauge"] = bool(np.max(np.abs(e1 - e2)) < 1e-12)

        # Truncation convergence d=5 -> 6 under drive
        drv = (DriveTone(0, 0.040, FIG1_NU_D, math.pi),
               DriveTone(1, 0.020, FIG1_NU_D, 0.0))
        zz5 = driven_pair_rates(device_a.with_levels(5).with_drives(drv)).zz
        zz6 = driven_pair_rates(device_a.with_levels(6).with_drives(drv)).zz
        checks["truncation<1kHz"] = abs(zz5 - zz6) < 1e-6

        # Two-level oracle agreement at Omega/|Delta| = 0.05
        nu0, nu1, nu_d, j = 4.95, 5.05, 5.15, 0.002
        omega = 0.05 * abs(nu0 - nu_d)
        pair = SystemSpec(
            transmons=(TransmonSpec(nu0, -0.3, 2), TransmonSpec(nu1, -0.3, 2)),
            couplings=(direct_coupling(0, 1, j),),
            drives=(DriveTone(0, omega, nu_d, 0.0), DriveTone(1, omega, nu_d, 0.0)))
        numeric = driven_pair_rates(pair).zz - driven_pair_rates(
            pair.with_drives(())).zz
        closed = two_level_zz(PerturbativeInputs(
            nu0=nu0, nu1=nu1, alpha0=-0.3, alpha1=-0.3, j=j, omega0=omega,
            omega1=omega, phi=0.0, nu_d=nu_d))
        checks["two-level<5%"] = abs(numeric - closed) < 0.05 * abs(closed)

        # Frame-change commutation identity
        single = SystemSpec(transmons=(TransmonSpec(5.0, -0.3, 4),))
        env1 = Envelope(0.005, 50.0, 10.0, 2.0)
        u1 = propagate(single, PulseSchedule(
            (FrameChange(0.81, 0), Play(env1, 5.0, 0.37, 0))), q0=0, q1=0).full_unitary
        u2 = propagate(single, PulseSchedule(
            (Play(env1, 5.0, 0.37 + 0.81, 0), FrameChange(0.81, 0))),
            q0=0, q1=0).full_unitary
        checks["frame-change-commutation"] = bool(np.linalg.norm(u1 - u2) < 1e-9)

        # Fixed point of a converged calibration
        cal, _, _ = cz_calibration
        cancelled_sys = cancelled
        rerun = calibrate_cz(cancelled_sys, cal.duration, cal.gate_frequency,
                             cal.target_amplitude, control=1, target=0,
                             initial=cal)
        checks["calibration-fixed-point"] = (
            rerun.iterations <= 1
            and abs(rerun.control_amplitude - cal.control_amplitude)
            < 0.02 * cal.control_amplitude)

        # Byte-identical CSV reproduction
        from starkzz.cli import main
        paths = [tmp_path / "r1.csv", tmp_path / "r2.csv"]
        for path in paths:
            main(["sweep", "--preset", "device-a",
                  "--axis", "drives.scale:0.4:1.0:4", "--out", str(path)])
        checks["csv-determinism"] = paths[0].read_bytes() == paths[1].read_bytes()

        failed = [name for name, ok in checks.items() if not ok]
        report(11, "property suite (hermiticity, unitarity, gauge, truncation, "
                   "two-level oracle, frame-change identity, fixed point, "
                   "CSV determinism)", not failed,
               "all ok" if not failed else f"failed: {failed}")
