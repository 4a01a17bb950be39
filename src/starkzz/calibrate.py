"""Root-finding and iterative pulse-level gate calibration.

Covers the always-on cancellation searches (phase root, amplitude root,
sequential chain nulling) and the closed-loop entangling-gate calibrations.
The gate loops simulate repeated-gate amplification sequences: the gate
propagator is computed once per iteration, powers of it generate
target-population trajectories versus repetition count, rotation angles are
fit from those trajectories, and Newton-style updates drive every monitored
angle to its goal.  Iteration stops when all angle errors are below the
termination threshold (0.01 rad by default).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.optimize

from .errors import (CancellationUnreachableError, InsufficientAmplitudeError,
                     NonconvergenceError)
from .operators import DriveRole, DriveTone, SystemSpec, bare_index, basis_label
from .perturbation import seed_zx_rate
from .pulse import (DEFAULT_DT, Envelope, EnvelopeKind, FrameChange,
                    OperatingFrame, Play, PulseSchedule, GateResult,
                    _bloch_trajectory, _DriveTerm, _evolve, _fit_rotation,
                    _frame_change_phases, propagate)
from .spectrum import (LabeledSpectrum, apply_drive_axis, driven_pair_rates,
                       pair_rates, rwa_spectrum, stark_shift, undriven_reference)

TWO_PI = 2.0 * math.pi

#: Residual ZZ below which a pair counts as cancelled (GHz).
NULL_TOLERANCE = 5e-6
#: Angle-error threshold ending the iterative gate loops (rad).
ANGLE_TOLERANCE = 0.01


@dataclass(frozen=True)
class CancellationSolution:
    """Per-qubit CW tone settings nulling every pair of a device.

    `min_overlap` is the smallest bare-state overlap among the computational
    labels that the final verification sweep reads.
    """

    amplitudes: tuple[float, ...]
    phases: tuple[float, ...]
    drive_frequency: float
    residual_zz: tuple[float, ...]
    stark_shifts: tuple[float, ...]
    min_overlap: float


@dataclass
class CnotCalibration:
    control_amplitude: float
    target_amplitude: float
    control_phase: float
    target_phase: float
    target_drag: float
    target_skew: float
    target_frame_change: float
    control_frame_change: float
    duration: float
    converged: bool = False
    iterations: int = 0
    transcript: list = field(default_factory=list)


@dataclass
class CzCalibration:
    control_amplitude: float
    target_amplitude: float
    relative_phase: float
    target_frame_change: float
    control_frame_change: float
    gate_frequency: float
    duration: float
    converged: bool = False
    iterations: int = 0
    transcript: list = field(default_factory=list)


def _wrap_angle(x: float) -> float:
    return (x + math.pi) % TWO_PI - math.pi


# ---------------------------------------------------------------------------
# CW cancellation searches

def _pair_tones(system: SystemSpec, q0: int, q1: int):
    tones = {d.target: i for i, d in enumerate(system.drives)}
    if q0 not in tones or q1 not in tones:
        raise ValueError(f"system needs cancellation tones on qubits {q0} and {q1}")
    return tones[q0], tones[q1]


def _zz_at_phase(system: SystemSpec, q0: int, q1: int, phi: float) -> float:
    i0, i1 = _pair_tones(system, q0, q1)
    drives = list(system.drives)
    drives[i0] = replace(drives[i0], phase=drives[i1].phase + phi)
    return driven_pair_rates(system.with_drives(drives), q0, q1).zz


def find_cancellation_phase(system: SystemSpec, q0: int = 0, q1: int = 1,
                            tolerance: float = NULL_TOLERANCE) -> float:
    """Phase difference nulling the pair's ZZ at fixed tone amplitudes.

    Roots phi -> zz(phi) on [0, pi]; requires the modulation amplitude to
    exceed the static value so the endpoints bracket zero, otherwise
    InsufficientAmplitudeError asks for larger amplitudes.
    """
    zz0 = _zz_at_phase(system, q0, q1, 0.0)
    zz_pi = _zz_at_phase(system, q0, q1, math.pi)
    if zz0 * zz_pi > 0:
        # No sign change; accept an endpoint already inside tolerance
        # (amplitudes just sufficient to approach the null).
        if abs(zz_pi) < tolerance:
            return math.pi
        if abs(zz0) < tolerance:
            return 0.0
        raise InsufficientAmplitudeError(
            f"zz(0)={zz0:.3e} and zz(pi)={zz_pi:.3e} GHz do not bracket "
            "zero; raise the tone amplitudes")
    phi_star = scipy.optimize.brentq(
        lambda phi: _zz_at_phase(system, q0, q1, phi), 0.0, math.pi, xtol=1e-10)
    residual = _zz_at_phase(system, q0, q1, phi_star)
    if abs(residual) > tolerance:
        raise InsufficientAmplitudeError(
            f"root search stalled at |zz|={abs(residual):.3e} GHz")
    return float(phi_star)


def _zz_at_scale(system: SystemSpec, q0: int, q1: int, scale: float) -> float:
    scaled = apply_drive_axis(system, "drives.scale", scale)
    return driven_pair_rates(scaled, q0, q1).zz


def find_cancellation_amplitude(system: SystemSpec, q0: int = 0, q1: int = 1,
                                max_scale: float = 10.0,
                                tolerance: float = NULL_TOLERANCE,
                                grid_points: int = 24) -> float:
    """Minimal positive scale of the tone pair that nulls the pair's ZZ.

    The system's drives fix the amplitude ratio and the phase difference
    (pi for cancellation against a positive static value).  Returns 0.0
    when the undriven ZZ is already below tolerance; raises
    CancellationUnreachableError when no crossing exists below `max_scale`.
    """
    zz_zero = _zz_at_scale(system, q0, q1, 0.0)
    if abs(zz_zero) < tolerance:
        return 0.0
    previous_scale, previous_zz = 0.0, zz_zero
    for scale in np.linspace(0.0, max_scale, grid_points + 1)[1:]:
        zz = _zz_at_scale(system, q0, q1, float(scale))
        if zz_zero * zz <= 0.0:
            root = scipy.optimize.brentq(
                lambda s: _zz_at_scale(system, q0, q1, s),
                previous_scale, float(scale), xtol=1e-9)
            return float(root)
        previous_scale, previous_zz = float(scale), zz
    raise CancellationUnreachableError(
        f"no ZZ zero crossing up to {max_scale}x the template amplitudes "
        f"(last zz {previous_zz:.3e} GHz)")


# ---------------------------------------------------------------------------
# chain cancellation

def _seed_amplitude(base: SystemSpec, reference: LabeledSpectrum, nu_d: float,
                    seed_shift: float, phase: float, cap: float) -> float:
    """Tone amplitude on qubit 0 producing the requested Stark shift."""
    t0 = base.transmons[0]
    delta = t0.frequency - nu_d
    guess = math.sqrt(abs(2.0 * seed_shift * delta * (delta + t0.anharmonicity)
                          / t0.anharmonicity))

    def objective(amp: float) -> float:
        driven = rwa_spectrum(base.with_drives((DriveTone(0, amp, nu_d, phase),)), nu_d)
        return abs(stark_shift(driven, reference, 0)) - seed_shift

    hi = min(cap, 3.0 * guess)
    if objective(hi) < 0:
        raise CancellationUnreachableError(
            f"seed Stark shift {seed_shift:.2e} GHz unreachable below "
            f"{hi * 1e3:.1f} MHz on qubit 0")
    return float(scipy.optimize.brentq(objective, 0.0, hi, xtol=1e-7))


def chain_cancellation(chain: SystemSpec, nu_d: float,
                       seed_stark_shift: float = 1e-3,
                       tolerance: float = NULL_TOLERANCE,
                       amplitude_cap: float = 0.08,
                       max_sweeps: int = 3) -> CancellationSolution:
    """Sequential pairwise ZZ nulling along a line of transmons.

    The first qubit's tone is set to induce the seed Stark shift; each
    following qubit's amplitude is then the minimal value nulling its
    pair's ZZ on the full-chain Hamiltonian, with the pairwise phase
    difference fixed at pi and earlier qubits held fixed.  A verification
    sweep recomputes every pair; if spectator dressing pushed an earlier
    pair above tolerance the forward pass is repeated (up to `max_sweeps`).
    """
    n = chain.num_transmons
    if n < 2:
        raise ValueError("chain cancellation needs at least 2 transmons")
    for c in chain.couplings:
        p, q = sorted(c.endpoints)
        if q != p + 1:
            raise ValueError("chain cancellation expects a line topology")
    above = [t.frequency < nu_d for t in chain.transmons]
    if not all(above):
        raise ValueError("the common tone frequency must sit above every qubit")

    base = chain.without_drives()
    reference = undriven_reference(chain)
    phases = [math.pi * (i % 2) for i in range(n)]
    amplitudes = [0.0] * n
    amplitudes[0] = _seed_amplitude(base, reference, nu_d, seed_stark_shift,
                                    phases[0], amplitude_cap)

    def driven(up_to: int) -> LabeledSpectrum:
        """Spectrum with the tones of qubits 0..up_to (zero amplitudes left out)."""
        tones = tuple(DriveTone(i, amplitudes[i], nu_d, phases[i])
                      for i in range(up_to + 1) if amplitudes[i] > 0.0)
        return rwa_spectrum(base.with_drives(tones), nu_d)

    def solve_pair(i: int):
        """Amplitude on qubit i+1 nulling pair (i, i+1), earlier fixed."""
        def objective(amp: float) -> float:
            amplitudes[i + 1] = amp
            return pair_rates(driven(i + 1), i, i + 1).zz

        zz0 = objective(0.0)
        if abs(zz0) < tolerance:
            amplitudes[i + 1] = 0.0
            return
        zz_cap = objective(amplitude_cap)
        if zz0 * zz_cap > 0:
            amplitudes[i + 1] = 0.0
            raise CancellationUnreachableError(
                f"pair ({i}, {i + 1}): no ZZ zero below "
                f"{amplitude_cap * 1e3:.0f} MHz (zz stuck at {zz_cap:.3e} GHz)")
        amplitudes[i + 1] = float(scipy.optimize.brentq(
            objective, 0.0, amplitude_cap, xtol=1e-7))

    residuals = [math.inf] * (n - 1)
    for _ in range(max_sweeps):
        for i in range(n - 1):
            solve_pair(i)
        final = driven(n - 1)
        verified = [pair_rates(final, i, i + 1) for i in range(n - 1)]
        residuals = [rates.zz for rates in verified]
        if max(abs(r) for r in residuals) < tolerance:
            break
    else:
        worst = max(range(n - 1), key=lambda i: abs(residuals[i]))
        raise CancellationUnreachableError(
            f"pair ({worst}, {worst + 1}) residual {residuals[worst]:.3e} GHz "
            f"after {max_sweeps} sweeps")

    shifts = [stark_shift(final, reference, q) for q in range(n)]
    return CancellationSolution(
        amplitudes=tuple(amplitudes), phases=tuple(phases), drive_frequency=nu_d,
        residual_zz=tuple(residuals), stark_shifts=tuple(shifts),
        min_overlap=min(rates.min_overlap for rates in verified))


# ---------------------------------------------------------------------------
# repeated-gate angle extraction

def _canonical_rotation(v: np.ndarray, desired: np.ndarray) -> np.ndarray:
    """Pick the rotation-vector representative closest to `desired`.

    Rotation vectors v and v (|v| - 2 pi)/|v| describe the same rotation;
    near half-turn angles the fit may return either branch.
    """
    norm = np.linalg.norm(v)
    if norm < 1e-12:
        return v
    alt = v * ((norm - TWO_PI) / norm)
    return v if np.linalg.norm(v - desired) <= np.linalg.norm(alt - desired) else alt


@dataclass(frozen=True)
class _RepeatedGate:
    """Repeated-gate amplification of one (control, target) pair's gate."""

    system: SystemSpec
    frame: OperatingFrame
    control: int
    target: int
    n_reps: int
    dt: float
    #: Unitaries by propagated schedule; lives for one calibration only.
    _unitaries: dict = field(default_factory=dict, init=False, repr=False,
                             compare=False)

    def unitary(self, schedule: PulseSchedule) -> np.ndarray:
        """Operating-frame unitary of `schedule`, each distinct pulse
        propagated once: frame changes at the end are diagonal phases on the
        propagation without them; one before the end is propagated whole."""
        _, frame_changes, end = schedule.timed_items(self.system.num_transmons)
        if any(t < end - 1e-12 for t, _ in frame_changes):
            frame_changes = []
        else:
            schedule = replace(schedule, items=tuple(
                item for item in schedule.items if not isinstance(item, FrameChange)))
        if schedule not in self._unitaries:
            self._unitaries[schedule] = propagate(
                self.system, schedule, dt=self.dt, q0=self.target, q1=self.control,
                frame=self.frame).full_unitary
        u = self._unitaries[schedule]
        for _, fc in frame_changes:
            u = _frame_change_phases(self.frame, fc)[:, None] * u
        return u

    def _prep(self, control_state: int, target_axis: str) -> np.ndarray:
        dims = self.frame.dims
        psi = np.zeros(self.frame.dim, dtype=complex)
        i_lo = bare_index(basis_label(len(dims), {self.control: control_state}), dims)
        i_hi = bare_index(
            basis_label(len(dims), {self.control: control_state, self.target: 1}), dims)
        if target_axis == "z":
            psi[i_lo] = 1.0
        elif target_axis == "x":
            psi[i_lo] = psi[i_hi] = 1.0 / math.sqrt(2.0)
        else:
            raise ValueError(f"unknown prep axis {target_axis!r}")
        return psi

    def _trajectory(self, u_op: np.ndarray, qubit: int, psi0: np.ndarray) -> np.ndarray:
        states = [psi0]
        for _ in range(self.n_reps):
            states.append(u_op @ states[-1])
        return _bloch_trajectory(self.frame, qubit, states)

    def _rotation(self, u_op: np.ndarray, control_state: int,
                  desired: np.ndarray) -> np.ndarray:
        """Per-gate target rotation vector (radians) for one control state.

        Trajectories from a ground-state and an equator preparation are fit
        jointly so the rotation azimuth stays observable at half-turn angles.
        """
        times = np.arange(self.n_reps + 1, dtype=float)
        trajs = [self._trajectory(u_op, self.target, self._prep(control_state, axis))
                 for axis in ("z", "x")]
        params, _ = _fit_rotation(times, *trajs, extra_seeds=[desired / TWO_PI])
        return _canonical_rotation(TWO_PI * params, desired)

    def rotations(self, schedule: PulseSchedule, desired) -> list[np.ndarray]:
        """Target rotation vectors per gate with the control in 0 and in 1,
        each on the branch closest to its entry of `desired`."""
        u_op = self.unitary(schedule)
        return [self._rotation(u_op, state, goal) for state, goal in enumerate(desired)]

    def set_control_frame(self, cal, schedule, target_axis: str,
                          tolerance: float) -> None:
        """Null the control's z-phase per gate `schedule(cal)` by its frame change.

        The phase is fit from an equator control preparation, with the
        target along `target_axis` in an eigenstate of the conditional
        operation (z for conditional phases, x for a conditional x flip) so
        every repetition contributes and the phase is read over the full turn.
        """
        psi = (self._prep(0, target_axis) + self._prep(1, target_axis)) / math.sqrt(2.0)
        times = np.arange(self.n_reps + 1, dtype=float)
        seeds = [np.array([0.0, 0.0, 0.25]), np.array([0.0, 0.0, -0.25])]
        for _ in range(4):
            traj = self._trajectory(self.unitary(schedule(cal)), self.control, psi)
            params, _ = _fit_rotation(times, traj, extra_seeds=seeds)
            phase = TWO_PI * params[2]
            cal.transcript.append({"iteration": "control-frame",
                                   "control_phase_per_gate": phase})
            if abs(phase) < tolerance:
                break
            # frame change exp(-i theta n) contributes -theta to the measured
            # control phase, so the correction adds the measured value
            cal.control_frame_change = _wrap_angle(cal.control_frame_change + phase)


def newton_loop(cal, measure, get_params, set_params, steps: np.ndarray,
                logged: tuple[str, ...], tolerance: float, max_iterations: int,
                name: str, cap=None, check=None) -> None:
    """Drive every angle error `measure(cal)` below `tolerance` (rad).

    Each iteration appends a transcript row (the iteration, the largest
    error and the `logged` fields of `cal`) and, unless converged, moves
    `get_params(cal)` by the least-squares Newton step of a forward-
    difference Jacobian (one `steps` entry per parameter).  The Jacobian is
    taken at the first iteration and again whenever the error grows after
    a full step; a step after an error growth is halved.  `cap(cal)`, when
    given, bounds each parameter's update, and `check(jac)` may reject each
    new Jacobian by raising.  On convergence `cal.iterations` is set; after
    `max_iterations` NonconvergenceError carries the transcript.
    """
    jac = None
    previous = math.inf
    damping = 1.0
    for iteration in range(max_iterations):
        residual = measure(cal)
        err = float(np.max(np.abs(residual)))
        cal.transcript.append({"iteration": iteration, "max_angle_error": err,
                               **{key: getattr(cal, key) for key in logged}})
        if err < tolerance:
            cal.iterations = iteration
            return
        if jac is None or (err > previous and damping == 1.0):
            p0 = get_params(cal)
            jac = np.zeros((len(residual), len(p0)))
            for k in range(len(p0)):
                trial = replace(cal, transcript=[])
                p = p0.copy()
                p[k] += steps[k]
                set_params(trial, p)
                jac[:, k] = (measure(trial) - residual) / steps[k]
            if check is not None:
                check(jac)
        damping = 0.5 if err > previous else 1.0
        update = np.linalg.lstsq(jac, residual, rcond=1e-8)[0]
        if cap is not None:
            bound = cap(cal)
            update = np.clip(update, -bound, bound)
        set_params(cal, get_params(cal) - damping * update)
        previous = err
    raise NonconvergenceError(
        f"{name} above {tolerance} rad after {max_iterations} iterations",
        transcript=cal.transcript)


# ---------------------------------------------------------------------------
# CNOT calibration

def _cnot_schedule(cal: CnotCalibration, carrier: float, control: int, target: int,
                   sigma: float, rise: float) -> PulseSchedule:
    cr_env = Envelope(EnvelopeKind.FLAT_TOP_GAUSSIAN, cal.control_amplitude,
                      cal.duration, sigma, rise)
    tg_env = Envelope(EnvelopeKind.GAUSSIAN_DERIVATIVE_QUADRATURE,
                      cal.target_amplitude, cal.duration, sigma, rise,
                      drag_beta=cal.target_drag, skew_gamma=cal.target_skew)
    return PulseSchedule((
        Play(cr_env, carrier, cal.control_phase, control),
        Play(tg_env, carrier, cal.target_phase, target),
        FrameChange(cal.target_frame_change, target),
        FrameChange(cal.control_frame_change, control)))


def cnot_target(control_is_second: bool = True) -> np.ndarray:
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    if control_is_second:
        return np.kron(np.eye(2), p0) + np.kron(x, p1)
    return np.kron(p0, np.eye(2)) + np.kron(p1, x)


def calibrate_cnot(system: SystemSpec, duration: float, control: int = 1,
                   target: int = 0, sigma: float = 10.0, rise: float = 2.0,
                   n_reps: int = 17, max_iterations: int = 50,
                   tolerance: float = ANGLE_TOLERANCE, dt: float = DEFAULT_DT,
                   initial: CnotCalibration | None = None) -> CnotCalibration:
    """Iterative direct-CNOT calibration on a ZZ-cancelled system.

    Stage 1 coarsely scans the entangling-tone amplitude to a quarter-turn
    conditional rotation, stage 2 aligns the conditional axis along -x via
    the tone phase, stage 3 runs the fine loop (amplitudes, common phase,
    quadrature corrections, target frame change; all updates applied from
    one batch of fits), and stage 4 sets the control frame change from the
    control's phase accumulation over even gate repetitions.
    """
    gate = _RepeatedGate(system, OperatingFrame(system), control, target, n_reps, dt)
    carrier = gate.frame.dressed_frequency(target)
    gate_area = Envelope(EnvelopeKind.FLAT_TOP_GAUSSIAN, 1.0, duration, sigma,
                         rise).flat_area
    desired = (np.zeros(3), np.array([-math.pi, 0.0, 0.0]))

    def schedule(c: CnotCalibration) -> PulseSchedule:
        return _cnot_schedule(c, carrier, control, target, sigma, rise)

    if initial is not None:
        cal = replace(initial, transcript=list(initial.transcript))
    else:
        # Perturbative starting point for the conditional and direct rates.
        omega_c0 = 0.25 / (seed_zx_rate(system, control, target, 1.0) * gate_area)
        cal = CnotCalibration(
            control_amplitude=omega_c0, target_amplitude=0.25 / gate_area,
            control_phase=0.0, target_phase=0.0, target_drag=0.0,
            target_skew=0.0, target_frame_change=0.0, control_frame_change=0.0,
            duration=duration)

        def conditional(cal_trial) -> np.ndarray:
            v0, v1 = gate.rotations(
                schedule(replace(cal_trial, target_amplitude=0.0)), desired)
            return 0.5 * (v0 - v1)

        # Stage 1: linear scan of the conditional angle vs tone amplitude.
        amps = omega_c0 * np.array([0.6, 1.0, 1.4])
        angles = [np.linalg.norm(conditional(replace(cal, control_amplitude=float(amp))))
                  for amp in amps]
        slope, intercept = np.polyfit(amps, angles, 1)
        cal.control_amplitude = float((0.5 * math.pi - intercept) / slope)

        # Stage 2: align the conditional rotation along -x.
        for _ in range(2):
            vec = conditional(cal)
            azimuth = math.atan2(vec[1], vec[0])
            error = _wrap_angle(math.pi - azimuth)
            cal.control_phase = _wrap_angle(cal.control_phase + error)
            cal.target_phase = _wrap_angle(cal.target_phase + error)
            if abs(error) < 0.5 * tolerance:
                break

    def measure(cal_trial) -> np.ndarray:
        v0, v1 = gate.rotations(schedule(cal_trial), desired)
        return np.concatenate([v0 - desired[0], v1 - desired[1]])

    def get_params(c) -> np.ndarray:
        return np.array([c.control_amplitude, c.target_amplitude,
                         c.control_phase, c.target_drag, c.target_skew,
                         c.target_frame_change])

    def set_params(c, p) -> None:
        shift = p[2] - c.control_phase
        c.control_amplitude = float(p[0])
        c.target_amplitude = float(p[1])
        c.control_phase = float(p[2])
        c.target_phase = float(c.target_phase + shift)  # phases move together
        c.target_drag = float(p[3])
        c.target_skew = float(p[4])
        c.target_frame_change = float(p[5])

    # Stage 3: the fine loop over the six angle residuals.
    steps = np.array([
        0.05 * abs(cal.control_amplitude) + 1e-5,
        0.05 * abs(cal.target_amplitude) + 1e-5,
        0.02, 0.5, 0.2, 0.02])
    newton_loop(cal, measure, get_params, set_params, steps,
                ("control_amplitude", "target_amplitude", "control_phase",
                 "target_phase", "target_drag", "target_skew",
                 "target_frame_change", "control_frame_change"),
                tolerance, max_iterations, "CNOT fine loop")

    # Stage 4: control frame change, with the target prepared along the
    # conditional rotation axis so the branch phase is read unambiguously.
    gate.set_control_frame(cal, schedule, "x", tolerance)
    cal.converged = True
    return cal


def calibrated_cnot_schedule(system: SystemSpec, cal: CnotCalibration,
                             control: int = 1, target: int = 0,
                             sigma: float = 10.0, rise: float = 2.0) -> PulseSchedule:
    """Schedule realizing a calibrated CNOT on the given system."""
    frame = OperatingFrame(system)
    return _cnot_schedule(cal, frame.dressed_frequency(target), control, target,
                          sigma, rise)


def cnot_gate_result(system: SystemSpec, cal: CnotCalibration, control: int = 1,
                     target: int = 0, sigma: float = 10.0, rise: float = 2.0,
                     dt: float = DEFAULT_DT) -> GateResult:
    """Propagate a calibrated CNOT and score it against the ideal gate."""
    frame = OperatingFrame(system)
    carrier = frame.dressed_frequency(target)
    sched = _cnot_schedule(cal, carrier, control, target, sigma, rise)
    return propagate(system, sched, dt=dt, q0=min(control, target),
                     q1=max(control, target),
                     target=cnot_target(control_is_second=control > target),
                     frame=frame)


# ---------------------------------------------------------------------------
# CZ calibration

def calibrated_cz_schedule(cal: CzCalibration, control: int = 1, target: int = 0,
                           sigma: float = 10.0, rise: float = 3.0) -> PulseSchedule:
    """Schedule realizing a conditional-phase gate from its calibration."""
    c_env = Envelope(EnvelopeKind.FLAT_TOP_GAUSSIAN, cal.control_amplitude,
                     cal.duration, sigma, rise)
    t_env = Envelope(EnvelopeKind.FLAT_TOP_GAUSSIAN, cal.target_amplitude,
                     cal.duration, sigma, rise)
    return PulseSchedule((
        Play(c_env, cal.gate_frequency, cal.relative_phase, control),
        Play(t_env, cal.gate_frequency, 0.0, target),
        FrameChange(cal.target_frame_change, target),
        FrameChange(cal.control_frame_change, control)))


def driven_zz_rate(system: SystemSpec, extra_tones, duration: float = 120.0,
                   dt: float = DEFAULT_DT, q0: int = 0, q1: int = 1,
                   frame: OperatingFrame | None = None) -> float:
    """Time-domain conditional-phase rate of the (q0, q1) pair (GHz).

    Propagates the CW-dressed system with the extra tones held at constant
    amplitude and reads the computational diagonal phases at two times,
    resolving the short-time slope.  Used where mixed tone frequencies make
    the single-frame spectrum unavailable.  `frame` defaults to the
    system's own `OperatingFrame`.
    """
    if frame is None:
        frame = OperatingFrame(system)
    terms = [_DriveTerm(target=t.target, start=0.0, envelope=None,
                        amplitude=t.amplitude, phase=t.phase,
                        detuning=t.frequency - frame.frame_frequency)
             for t in extra_tones]
    comp = frame.computational_indices(q0, q1)
    times = (0.5 * duration, duration)
    _, snaps = _evolve(frame, terms, [], duration, dt, snapshot_times=times)
    phases = []
    for u_frame, t in zip(snaps, times):
        u_op = frame.to_operating(u_frame, t)
        diag = np.array([u_op[i, i] for i in comp])
        phases.append(float(np.angle(diag[0] * diag[3] * np.conj(diag[1] * diag[2]))))
    # unwrap with the half-duration sample
    delta = _wrap_angle(phases[1] - phases[0])
    return -(delta / (TWO_PI * 0.5 * duration))


def calibrate_cz(system: SystemSpec, duration: float, gate_frequency: float,
                 gate_amplitude: float, control: int = 1, target: int = 0,
                 sigma: float = 10.0, rise: float = 3.0, n_reps: int = 17,
                 max_iterations: int = 50, tolerance: float = ANGLE_TOLERANCE,
                 dt: float = DEFAULT_DT,
                 initial: CzCalibration | None = None) -> CzCalibration:
    """Iterative conditional-phase gate calibration with pulsed tones.

    The relative phase of the pulsed tone pair is first set for maximum
    conditional-phase rate; the loop then tunes the control-side amplitude
    and the target frame change to meet the conditional and single-qubit
    phase goals, and finally sets the control frame change.
    """
    gate = _RepeatedGate(system, OperatingFrame(system), control, target, n_reps, dt)

    def schedule(c: CzCalibration) -> PulseSchedule:
        return calibrated_cz_schedule(c, control, target, sigma, rise)

    if initial is not None:
        cal = replace(initial, transcript=list(initial.transcript))
    else:
        cal = CzCalibration(
            control_amplitude=gate_amplitude, target_amplitude=gate_amplitude,
            relative_phase=0.0, target_frame_change=0.0,
            control_frame_change=0.0, gate_frequency=gate_frequency,
            duration=duration)
        # Phase precalibration: maximize the conditional-phase rate.
        if gate_amplitude > 0.0:
            phis = np.linspace(0.0, TWO_PI, 9)[:-1]
            rates = []
            for phi in phis:
                tones = (DriveTone(control, gate_amplitude, gate_frequency, phi,
                                   role=DriveRole.GATE),
                         DriveTone(target, gate_amplitude, gate_frequency, 0.0,
                                   role=DriveRole.GATE),)
                rates.append(driven_zz_rate(system, tones, dt=dt, q0=target,
                                            q1=control, frame=gate.frame))
            rates = np.array(rates)
            design = np.stack([np.ones_like(phis), np.cos(phis), np.sin(phis)],
                              axis=1)
            coef, *_ = np.linalg.lstsq(design, rates, rcond=None)
            best = math.atan2(coef[2], coef[1])
            values = {0.0: coef[0] + math.hypot(coef[1], coef[2]),
                      math.pi: coef[0] - math.hypot(coef[1], coef[2])}
            # pick the extremum with the larger |rate|
            offset = max(values, key=lambda k: abs(values[k]))
            cal.relative_phase = _wrap_angle(best + offset)
            cal.transcript.append({"iteration": "phase-precal",
                                   "relative_phase": cal.relative_phase,
                                   "zz_rate": values[offset]})

    desired = (np.zeros(3), np.array([0.0, 0.0, math.pi]))

    def measure(cal_trial) -> np.ndarray:
        v0, v1 = gate.rotations(schedule(cal_trial), desired)
        return np.array([_wrap_angle(v0[2]), _wrap_angle(v1[2] - math.pi)])

    def get_params(c) -> np.ndarray:
        return np.array([c.control_amplitude, c.target_frame_change])

    def set_params(c, p) -> None:
        c.control_amplitude = float(p[0]) if p[0] >= 0.0 else 1e-4
        c.target_frame_change = float(p[1])

    def cap(c) -> np.ndarray:
        return np.array([0.5 * abs(c.control_amplitude) + 1e-4, 1.0])

    def check(jac) -> None:
        # Conditional-angle change of one amplitude step at the cap.
        reach = abs(jac[1, 0] - jac[0, 0]) * cap(cal)[0]
        if reach < tolerance:
            raise NonconvergenceError(
                "CZ conditional angle is insensitive to the gate amplitude "
                f"(no conditional phase accumulates): a capped amplitude "
                f"step moves it by {reach:.2e} rad, below the {tolerance} "
                "rad tolerance", transcript=cal.transcript)

    steps = np.array([0.08 * abs(cal.control_amplitude) + 1e-5, 0.05])
    newton_loop(cal, measure, get_params, set_params, steps,
                ("control_amplitude", "target_frame_change", "control_frame_change"),
                tolerance, max_iterations, "CZ loop", cap=cap, check=check)
    gate.set_control_frame(cal, schedule, "z", tolerance)
    cal.converged = True
    return cal


def cz_gate_result(system: SystemSpec, cal: CzCalibration, control: int = 1,
                   target: int = 0, sigma: float = 10.0, rise: float = 3.0,
                   dt: float = DEFAULT_DT) -> GateResult:
    """Propagate a calibrated conditional-phase gate and score it vs CZ."""
    frame = OperatingFrame(system)
    sched = calibrated_cz_schedule(cal, control, target, sigma, rise)
    cz = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    return propagate(system, sched, dt=dt, q0=min(control, target),
                     q1=max(control, target), target=cz, frame=frame)
