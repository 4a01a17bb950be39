"""ZZ cancellation searches and pulse-level gate calibration.

Every calibration is one `newton_loop` solve.  The pair searches null one
pair's ZZ in a single unknown, the tone phase difference or the squared tone
scale, to `PAIR_TOLERANCE`; the chain moves every tone amplitude against
qubit 0's seed Stark shift and every nearest-neighbour ZZ of the full-chain
spectrum, starting from the closed-form (single-drive Stark and SIZZLE ZZ)
Jacobian and updating it by Broyden's secant rule, with forward differences
only as the fallback when a step fails to lower the error.  The CNOT and CZ
start from closed-form seeds (the CNOT's quarter-turn amplitudes, the CZ's
gate amplitude; every tone phase 0) and read nothing but their own gate:
their loops read the rotation angles from the gate's operating-frame
unitary (each distinct pulse propagated once; per control state the SU(2)
logarithm of the target block, `pulse.conditional_rotations`) and drive
every angle below `ANGLE_TOLERANCE`; one exact frame change then nulls the
control's phase per gate.  Each gate has one pulse shape: sigma
`GATE_SIGMA` = 10 ns, a rise of 2 sigma for the CNOT and 3 sigma for the CZ.  A calibration's
`result` is scored from its loop's own propagation of its pulse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (CancellationUnreachableError, ConfigError,
                     InsufficientAmplitudeError, NonconvergenceError)
from .operators import DriveTone, SystemSpec
from .perturbation import (PerturbativeInputs, seed_zx_rate, single_drive_stark,
                           sizzle_zz_induced)
from .pulse import (DEFAULT_DT, Envelope, FrameChange, OperatingFrame, Play,
                    PulseSchedule, GateResult, _frame_change_phases, conditional_rotations,
                    period_propagator, propagate, score_unitary, target_blocks)
from .spectrum import (LabeledSpectrum, apply_drive_axis, driven_pair_rates,
                       pair_rates, rwa_spectrum, stark_shift, undriven_reference)

TWO_PI = 2.0 * math.pi

#: Residual ZZ below which a pair counts as cancelled (GHz).
NULL_TOLERANCE = 5e-6
#: Angle-error threshold ending the iterative gate loops (rad).
ANGLE_TOLERANCE = 0.01
MAX_NEWTON_ITERATIONS = 50  # iteration cap of every Newton solve
#: Consecutive iterations without a new least error that stop a Newton solve.
NEWTON_STALL_ITERATIONS = 5
GATE_SIGMA = 10.0  # Gaussian edge width of the gate pulses (ns)
CNOT_RISE_SIGMAS, CZ_RISE_SIGMAS = 2.0, 3.0  # each gate's pulse edge, in GATE_SIGMA
CHAIN_AMPLITUDE_CAP = 0.08  # largest tone amplitude (GHz) the chain solve may reach
#: Largest |error| (GHz) of the chain solve's seed shift and NN ZZ at convergence.
CHAIN_TOLERANCE = NULL_TOLERANCE / 100
CHAIN_JACOBIAN_STEP = 1e-4  # amplitude step (GHz) of the chain's fallback forward differences
#: |ZZ| (GHz) ending the pair phase and amplitude searches.
PAIR_TOLERANCE = 1e-12
PAIR_JACOBIAN_STEP = 1e-4  # forward-difference step of the pair searches (rad or scale^2)
CZ_TARGET = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)  # ideal CZ on the 00..11 block


@dataclass(frozen=True)
class CancellationSolution:
    """Per-qubit CW tone settings nulling every nearest-neighbour pair.

    Residuals, Stark shifts and `min_overlap` (the smallest bare-state
    overlap among the pairs' computational labels) are read from the
    spectrum at the converged amplitudes; `transcript` holds the Newton
    solve's rows.
    """

    amplitudes: tuple[float, ...]
    phases: tuple[float, ...]
    drive_frequency: float
    residual_zz: tuple[float, ...]
    stark_shifts: tuple[float, ...]
    min_overlap: float
    transcript: list = field(default_factory=list, compare=False, repr=False)


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
    result: GateResult | None = field(default=None, compare=False, repr=False)


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
    result: GateResult | None = field(default=None, compare=False, repr=False)


def _wrap_angle(x: float) -> float:
    return (x + math.pi) % TWO_PI - math.pi


# ---------------------------------------------------------------------------
# CW cancellation searches

@dataclass
class _Unknowns:
    """Newton state of a cancellation solve: its parameters, and the
    spectrum `measure` last read at them (the chain's)."""

    params: tuple[float, ...]
    spectrum: LabeledSpectrum | None = None
    iterations: int = 0
    transcript: list = field(default_factory=list)


def _pair_null(zz_at, seed: float, name: str, check=lambda value: None) -> float:
    """Root of `zz_at` by one `newton_loop` solve from `seed` to |zz| below
    `PAIR_TOLERANCE`; `check` may reject each step (not the Jacobian probe)."""
    search = _Unknowns((seed,))

    def set_params(unknowns: _Unknowns, p: np.ndarray) -> None:
        if unknowns is search:
            check(p[0])
        unknowns.params = (float(p[0]),)

    newton_loop(search, lambda s: np.array([zz_at(*s.params)]), lambda s: np.array(s.params),
                set_params, np.array([PAIR_JACOBIAN_STEP]), lambda s: {name: s.params[0]},
                PAIR_TOLERANCE, MAX_NEWTON_ITERATIONS, f"{name} search", error_key="zz",
                unit="GHz")
    return search.params[0]


def _zz_at_phase(system: SystemSpec, q0: int, q1: int, phi: float) -> float:
    tones = {d.target: i for i, d in enumerate(system.drives)}
    if q0 not in tones or q1 not in tones:
        raise ValueError(f"system needs cancellation tones on qubits {q0} and {q1}")
    drives = list(system.drives)
    drives[tones[q0]] = replace(drives[tones[q0]], phase=drives[tones[q1]].phase + phi)
    return driven_pair_rates(system.with_drives(drives), q0, q1).zz


def find_cancellation_phase(system: SystemSpec, q0: int = 0, q1: int = 1) -> float:
    """Phase difference in [0, pi] nulling the pair's ZZ at fixed tone amplitudes.

    zz(0) and zz(pi) must bracket zero (an endpoint already below
    `NULL_TOLERANCE` is returned as is), else InsufficientAmplitudeError asks
    for larger amplitudes.  Newton starts at the null of the cosine through
    both endpoints; zz(-phi) = zz(phi) as H(-phi) = H(phi)*, so |phi| is reported.
    """
    zz0 = _zz_at_phase(system, q0, q1, 0.0)
    zz_pi = _zz_at_phase(system, q0, q1, math.pi)
    if zz0 * zz_pi > 0:
        # No sign change; accept an endpoint already inside tolerance
        # (amplitudes just sufficient to approach the null).
        if abs(zz_pi) < NULL_TOLERANCE:
            return math.pi
        if abs(zz0) < NULL_TOLERANCE:
            return 0.0
        raise InsufficientAmplitudeError(
            f"zz(0)={zz0:.3e} and zz(pi)={zz_pi:.3e} GHz do not bracket "
            "zero; raise the tone amplitudes")
    seed = math.acos((zz0 + zz_pi) / (zz_pi - zz0)) if zz_pi != zz0 else 0.0
    phi = _pair_null(lambda p: _zz_at_phase(system, q0, q1, p), seed, "phase_difference")
    return abs(_wrap_angle(phi))


def find_cancellation_amplitude(system: SystemSpec, q0: int = 0, q1: int = 1,
                                max_scale: float = 10.0) -> float:
    """Positive scale of the tone pair that nulls the pair's ZZ.

    The system's drives fix the amplitude ratio and the phase difference
    (pi for cancellation against a positive static value).  Returns 0.0
    when the undriven ZZ is already below `NULL_TOLERANCE`.  Newton solves
    in the squared scale, where ZZ is close to linear, starting from 0; a
    step outside [0, `max_scale`] raises CancellationUnreachableError.
    """
    def zz_at(scale2: float) -> float:
        scaled = apply_drive_axis(system, "drives.scale", math.sqrt(scale2))
        return driven_pair_rates(scaled, q0, q1).zz

    def check(scale2: float) -> None:
        if not 0.0 <= scale2 <= max_scale ** 2:
            raise CancellationUnreachableError(
                f"the amplitude search reaches a scale of "
                f"{math.copysign(abs(scale2) ** 0.5, scale2):.4g}, outside [0, {max_scale:g}]")

    if abs(zz_at(0.0)) < NULL_TOLERANCE:
        return 0.0
    return math.sqrt(_pair_null(zz_at, 0.0, "scale_squared", check))


# ---------------------------------------------------------------------------
# chain cancellation

def chain_cancellation(chain: SystemSpec, nu_d: float,
                       seed_stark_shift: float = 1e-3) -> CancellationSolution:
    """Joint ZZ nulling along a line of transmons, one tone per qubit.

    Every tone sits at `nu_d` with phases alternating 0/pi.  One
    `newton_loop` solve moves all amplitudes together until qubit 0's
    Stark shift magnitude equals `seed_stark_shift` and every nearest-
    neighbour ZZ vanishes, each within `CHAIN_TOLERANCE`, all read from one
    full-chain spectrum per evaluation.  Every amplitude starts at qubit
    0's perturbative guess.  The first Jacobian is the closed form at the
    start: d|shift_0|/da_0 = |stark_per_amp2| a_0 from `single_drive_stark`,
    and each NN row the derivative of `sizzle_zz` in the pair's two
    amplitudes; Broyden updates refine it, and a step that fails to lower
    the error retakes it by forward differences (`CHAIN_JACOBIAN_STEP`),
    so the closed forms only steer the solve and every residual is read
    from the spectrum.  A start or step outside [0,
    `CHAIN_AMPLITUDE_CAP`] raises CancellationUnreachableError, a non-line
    coupling ConfigError.  The solution reports the spectrum of the
    converged amplitudes.
    """
    n = chain.num_transmons
    if n < 2:
        raise ValueError("chain cancellation needs at least 2 transmons")
    for i, c in enumerate(chain.couplings):
        p, q = sorted(c.endpoints)
        if q != p + 1:
            raise ConfigError(f"chain cancellation expects a line, got {list(c.endpoints)}",
                              f"couplings[{i}].endpoints")
    above = [t.frequency < nu_d for t in chain.transmons]
    if not all(above):
        raise ValueError("the common tone frequency must sit above every qubit")

    base = chain.without_drives()
    reference = undriven_reference(chain)
    phases = tuple(math.pi * (i % 2) for i in range(n))

    def driven(tones: _Unknowns) -> SystemSpec:
        return base.with_drives(tuple(DriveTone(q, amp, nu_d, phase)
                                      for q, (amp, phase) in enumerate(zip(tones.params, phases))))

    def measure(tones: _Unknowns) -> np.ndarray:
        tones.spectrum = rwa_spectrum(driven(tones), nu_d)
        seed = abs(stark_shift(tones.spectrum, reference, 0)) - seed_stark_shift
        return np.array([seed, *(pair_rates(tones.spectrum, i, i + 1).zz
                                 for i in range(n - 1))])

    def set_params(tones: _Unknowns, p: np.ndarray) -> None:
        for q, amp in enumerate(p):
            if not 0.0 <= amp <= CHAIN_AMPLITUDE_CAP:
                raise CancellationUnreachableError(
                    f"qubit {q}: the chain solve reaches a tone amplitude of "
                    f"{amp * 1e3:.3g} MHz, outside [0, {CHAIN_AMPLITUDE_CAP * 1e3:.0f}] MHz")
        tones.params = tuple(float(amp) for amp in p)

    def model_jacobian(tones: _Unknowns) -> np.ndarray:
        """d(residuals)/d(amplitudes) of the closed forms: qubit 0's Stark
        shift |stark_per_amp2| a0^2 / 2 and each pair's SIZZLE ZZ, bilinear
        in the pair's amplitudes."""
        jac = np.zeros((n, n))
        jac[0, 0] = abs(stark_per_amp2) * tones.params[0]
        system = driven(tones)
        for i in range(n - 1):
            pair = PerturbativeInputs.for_pair(system, i, i + 1)
            per_amp2 = sizzle_zz_induced(replace(pair, omega0=1.0, omega1=1.0))
            jac[i + 1, i:i + 2] = per_amp2 * pair.omega1, per_amp2 * pair.omega0
        return jac

    unit_tone = base.with_drives((DriveTone(0, 1.0, nu_d),))
    stark_per_amp2 = single_drive_stark(PerturbativeInputs.for_pair(unit_tone, 0, 1), 0)
    tones = _Unknowns(())
    set_params(tones, np.full(n, math.sqrt(abs(2.0 * seed_stark_shift / stark_per_amp2))))
    newton_loop(tones, measure, lambda t: np.array(t.params), set_params,
                np.full(n, CHAIN_JACOBIAN_STEP),
                lambda t: {f"amplitude_{q}": amp for q, amp in enumerate(t.params)},
                CHAIN_TOLERANCE, MAX_NEWTON_ITERATIONS, "chain solve",
                error_key="max_frequency_error", unit="GHz", jacobian=model_jacobian)

    rates = [pair_rates(tones.spectrum, i, i + 1) for i in range(n - 1)]
    return CancellationSolution(
        amplitudes=tones.params, phases=phases, drive_frequency=nu_d,
        residual_zz=tuple(r.zz for r in rates),
        stark_shifts=tuple(stark_shift(tones.spectrum, reference, q) for q in range(n)),
        min_overlap=min(r.min_overlap for r in rates), transcript=tones.transcript)


# ---------------------------------------------------------------------------
# gate angle reads

def _canonical_rotation(v: np.ndarray, desired: np.ndarray) -> np.ndarray:
    """Pick the rotation-vector representative closest to `desired`.

    Rotation vectors v and v (|v| - 2 pi)/|v| describe the same rotation;
    a read near a half turn may land on either branch.
    """
    norm = np.linalg.norm(v)
    if norm < 1e-12:
        return v
    alt = v * ((norm - TWO_PI) / norm)
    return v if np.linalg.norm(v - desired) <= np.linalg.norm(alt - desired) else alt


@dataclass(frozen=True)
class _RepeatedGate:
    """Angle reads of one (control, target) pair's gate, from its unitary."""

    system: SystemSpec
    frame: OperatingFrame
    control: int
    target: int
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

    def score(self, schedule: PulseSchedule, target: np.ndarray) -> GateResult:
        """`schedule`'s gate on the (min, max) pair against `target`, from `unitary`."""
        pair = sorted((self.control, self.target))
        return score_unitary(self.frame, self.unitary(schedule), schedule, *pair, target)

    def rotations(self, schedule: PulseSchedule, desired) -> list[np.ndarray]:
        """Target rotation vectors (radians) per gate with the control in 0 and
        in 1, read from the target block of the gate's unitary, each on the
        branch closest to its entry of `desired`."""
        reads = conditional_rotations(self.frame, self.unitary(schedule),
                                      self.control, self.target)
        return [_canonical_rotation(v, goal) for v, goal in zip(reads, desired)]

    def set_control_frame(self, cal, schedule, target_axis: str) -> None:
        """Null the control's z-phase per gate `schedule(cal)` by its frame change.

        The phase is read from the two `target_blocks` B_c of the gate's
        unitary as arg(a^dag B_1 a) - arg(a^dag B_0 a), with the target
        state a along `target_axis` an eigenstate of the conditional
        operation (z for conditional phases, x for a conditional x flip).
        A control frame change theta multiplies B_1 by exp(-i theta), so
        adding the read to it nulls the phase exactly: one read, one
        correction and one confirming read, each reported in a transcript row.
        """
        a = {"z": np.array([1.0, 0.0]), "x": np.full(2, 1.0 / math.sqrt(2.0))}[target_axis]

        def read() -> float:
            stay0, stay1 = (np.vdot(a, block @ a) for block in target_blocks(
                self.frame, self.unitary(schedule(cal)), self.control, self.target))
            phase = float(np.angle(stay1 * np.conj(stay0)))
            cal.transcript.append({"iteration": "control-frame",
                                   "control_phase_per_gate": phase})
            return phase

        cal.control_frame_change = _wrap_angle(cal.control_frame_change + read())
        read()


def _attributes(*names):
    """Transcript fields: the named attributes of a calibration."""
    return lambda cal: {name: getattr(cal, name) for name in names}


def newton_loop(cal, measure, get_params, set_params, steps: np.ndarray,
                logged, tolerance: float, max_iterations: int,
                name: str, cap=None, check=None, error_key: str = "max_angle_error",
                unit: str = "rad", jacobian=None) -> None:
    """Drive every error `measure(cal)` below `tolerance` (in `unit`).

    Each iteration appends a transcript row (the iteration, the largest
    error under `error_key` and the fields `logged(cal)` returns) and,
    unless converged, moves
    `get_params(cal)` by the least-squares Newton step of a forward-
    difference Jacobian (one `steps` entry per parameter).  The Jacobian is
    taken at the first iteration and again whenever a full step fails to
    lower the error; a step after an error growth is halved.

    A model `jacobian(cal)`, when given, replaces the first forward-
    difference Jacobian; every later step that keeps it applies Broyden's
    rank-one secant update J += (dr - J dp) dp^T / (dp^T dp) for the last
    step dp and residual change dr.  A model row that misses a dependence
    cannot stall the solve: the first full step that fails retakes the
    Jacobian by forward differences.

    `cap(cal)`, when given, bounds each parameter's update, and
    `check(jac)` may reject each new (model or forward-difference)
    Jacobian by raising.  On convergence `cal.iterations` is set; after
    `max_iterations`, or once `NEWTON_STALL_ITERATIONS` iterations in a row
    fail to lower the least error, NonconvergenceError carries the transcript.
    """
    jac = None
    previous = least = math.inf
    least_iteration, damping = 0, 1.0
    for iteration in range(max_iterations):
        residual = measure(cal)
        err = float(np.max(np.abs(residual)))
        cal.transcript.append({"iteration": iteration, error_key: err, **logged(cal)})
        if err < tolerance:
            cal.iterations = iteration
            return
        if err < least:
            least, least_iteration = err, iteration
        elif iteration - least_iteration >= NEWTON_STALL_ITERATIONS:
            raise NonconvergenceError(
                f"{name} stalls above {tolerance} {unit}: its least error, {least:.3g} "
                f"{unit} at iteration {least_iteration}, is not lowered in "
                f"{NEWTON_STALL_ITERATIONS} iterations", transcript=cal.transcript)
        p0 = get_params(cal)
        if jac is None or (err >= previous and damping == 1.0):
            if jac is None and jacobian is not None:
                jac = jacobian(cal)
            else:
                jac = np.zeros((len(residual), len(p0)))
                for k in range(len(p0)):
                    trial = replace(cal, transcript=[])
                    p = p0.copy()
                    p[k] += steps[k]
                    set_params(trial, p)
                    jac[:, k] = (measure(trial) - residual) / steps[k]
            if check is not None:
                check(jac)
        elif jacobian is not None:
            dp = p0 - last_params
            if dp @ dp > 0.0:
                jac = jac + np.outer(residual - last_residual - jac @ dp, dp) / (dp @ dp)
        damping = 0.5 if err > previous else 1.0
        update = np.linalg.lstsq(jac, residual, rcond=1e-8)[0]
        if cap is not None:
            bound = cap(cal)
            update = np.clip(update, -bound, bound)
        set_params(cal, p0 - damping * update)
        previous, last_params, last_residual = err, p0, residual
    raise NonconvergenceError(
        f"{name} above {tolerance} {unit} after {max_iterations} iterations",
        transcript=cal.transcript)


# ---------------------------------------------------------------------------
# CNOT calibration

def _cnot_schedule(cal: CnotCalibration, carrier: float, control: int,
                   target: int) -> PulseSchedule:
    cr_env = Envelope(cal.control_amplitude, cal.duration, GATE_SIGMA, CNOT_RISE_SIGMAS)
    tg_env = Envelope(cal.target_amplitude, cal.duration, GATE_SIGMA, CNOT_RISE_SIGMAS,
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
                   target: int = 0, dt: float = DEFAULT_DT) -> CnotCalibration:
    """Iterative direct-CNOT calibration on a ZZ-cancelled system.

    One `newton_loop` solve from the closed-form seed (a quarter turn on
    each rate: the control amplitude from `seed_zx_rate`, the target's from
    the pulse's flat area, every phase 0) drives the six angle residuals
    below `ANGLE_TOLERANCE` through the amplitudes, the common phase, the
    quadrature corrections and the target frame change; the control frame
    change then nulls the control's phase per gate.
    """
    gate = _RepeatedGate(system, OperatingFrame(system), control, target, dt)
    carrier = gate.frame.dressed_frequency(target)
    gate_area = Envelope(1.0, duration, GATE_SIGMA, CNOT_RISE_SIGMAS).flat_area
    desired = (np.zeros(3), np.array([-math.pi, 0.0, 0.0]))

    def schedule(c: CnotCalibration) -> PulseSchedule:
        return _cnot_schedule(c, carrier, control, target)

    cal = CnotCalibration(
        control_amplitude=0.25 / (seed_zx_rate(system, control, target, 1.0) * gate_area),
        target_amplitude=0.25 / gate_area, control_phase=0.0, target_phase=0.0,
        target_drag=0.0, target_skew=0.0, target_frame_change=0.0,
        control_frame_change=0.0, duration=duration)

    def measure(cal_trial) -> np.ndarray:
        v0, v1 = gate.rotations(schedule(cal_trial), desired)
        return np.concatenate([v0 - desired[0], v1 - desired[1]])

    def get_params(c) -> np.ndarray:
        return np.array([c.control_amplitude, c.target_amplitude,
                         c.control_phase, c.target_drag, c.target_skew,
                         c.target_frame_change])

    def set_params(c, p) -> None:
        c.control_amplitude = float(p[0])
        c.target_amplitude = float(p[1])
        c.control_phase = c.target_phase = float(p[2])  # one common phase
        c.target_drag = float(p[3])
        c.target_skew = float(p[4])
        c.target_frame_change = float(p[5])

    steps = np.array([
        0.05 * abs(cal.control_amplitude) + 1e-5,
        0.05 * abs(cal.target_amplitude) + 1e-5,
        0.02, 0.5, 0.2, 0.02])
    newton_loop(cal, measure, get_params, set_params, steps,
                _attributes("control_amplitude", "target_amplitude", "control_phase",
                            "target_phase", "target_drag", "target_skew",
                            "target_frame_change", "control_frame_change"),
                ANGLE_TOLERANCE, MAX_NEWTON_ITERATIONS, "CNOT loop")

    # The control frame change, with the target prepared along the
    # conditional rotation axis so the branch phase is read unambiguously.
    gate.set_control_frame(cal, schedule, "x")
    cal.result = gate.score(schedule(cal), cnot_target(control_is_second=control > target))
    cal.converged = True
    return cal


def cnot_gate_result(system: SystemSpec, cal: CnotCalibration, control: int = 1,
                     target: int = 0, dt: float = DEFAULT_DT) -> GateResult:
    """Propagate and score a CNOT calibrated elsewhere, as `calibrate_cnot` scores its own."""
    gate = _RepeatedGate(system, OperatingFrame(system), control, target, dt)
    sched = _cnot_schedule(cal, gate.frame.dressed_frequency(target), control, target)
    return gate.score(sched, cnot_target(control_is_second=control > target))


# ---------------------------------------------------------------------------
# CZ calibration

def calibrated_cz_schedule(cal: CzCalibration, control: int = 1,
                           target: int = 0) -> PulseSchedule:
    """Schedule realizing a conditional-phase gate from its calibration."""
    c_env = Envelope(cal.control_amplitude, cal.duration, GATE_SIGMA, CZ_RISE_SIGMAS)
    t_env = Envelope(cal.target_amplitude, cal.duration, GATE_SIGMA, CZ_RISE_SIGMAS)
    return PulseSchedule((
        Play(c_env, cal.gate_frequency, cal.relative_phase, control),
        Play(t_env, cal.gate_frequency, 0.0, target),
        FrameChange(cal.target_frame_change, target),
        FrameChange(cal.control_frame_change, control)))


def driven_zz_rate(system: SystemSpec, extra_tones, duration: float = 120.0,
                   dt: float = DEFAULT_DT, q0: int = 0, q1: int = 1,
                   frame: OperatingFrame | None = None) -> float:
    """Time-domain conditional-phase rate of the (q0, q1) pair (GHz).

    The CW-dressed system with the extra tones held at constant amplitude
    repeats with the tones' period T (`period_propagator`); the computational
    diagonal phases of U_T^m and U_T^2m, m = max(1, round(duration / 2T)),
    give the slope over the whole periods nearest `duration`.  Used where
    mixed tone frequencies make the single-frame spectrum unavailable.
    `frame` defaults to the system's own `OperatingFrame`.
    """
    if frame is None:
        frame = OperatingFrame(system)
    u_period, period = period_propagator(
        frame, [(t.target, t.amplitude, t.frequency, t.phase) for t in extra_tones], dt)
    m = max(1, round(duration / (2.0 * period)))
    comp = frame.computational_indices(q0, q1)
    u_half = np.linalg.matrix_power(u_period, m)
    diags = [frame.to_operating(u, t)[comp, comp]
             for u, t in ((u_half, m * period), (u_half @ u_half, 2 * m * period))]
    early, late = (float(np.angle(d[0] * d[3] * np.conj(d[1] * d[2]))) for d in diags)
    # unwrap with the half-window read
    return -(_wrap_angle(late - early) / (TWO_PI * m * period))


def calibrate_cz(system: SystemSpec, duration: float, gate_frequency: float,
                 gate_amplitude: float, control: int = 1, target: int = 0,
                 dt: float = DEFAULT_DT, initial: CzCalibration | None = None) -> CzCalibration:
    """Iterative conditional-phase gate calibration with pulsed tones.

    One `newton_loop` solve from the seed (both tones at `gate_amplitude`,
    relative phase 0; the closed-form SIZZLE ZZ goes as cos phi, so 0 and
    pi give the same rate to leading order) tunes the control-side
    amplitude and the target frame change to the conditional and
    single-qubit phase goals; the control frame change is set last.
    """
    gate = _RepeatedGate(system, OperatingFrame(system), control, target, dt)

    def schedule(c: CzCalibration) -> PulseSchedule:
        return calibrated_cz_schedule(c, control, target)

    if initial is not None:
        cal = replace(initial, transcript=list(initial.transcript))
    else:
        cal = CzCalibration(
            control_amplitude=gate_amplitude, target_amplitude=gate_amplitude,
            relative_phase=0.0, target_frame_change=0.0,
            control_frame_change=0.0, gate_frequency=gate_frequency,
            duration=duration)

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
        if reach < ANGLE_TOLERANCE:
            raise NonconvergenceError(
                "CZ conditional angle is insensitive to the gate amplitude "
                f"(no conditional phase accumulates): a capped amplitude "
                f"step moves it by {reach:.2e} rad, below the {ANGLE_TOLERANCE} "
                "rad tolerance", transcript=cal.transcript)

    steps = np.array([0.08 * abs(cal.control_amplitude) + 1e-5, 0.05])
    newton_loop(cal, measure, get_params, set_params, steps,
                _attributes("control_amplitude", "target_frame_change",
                            "control_frame_change"),
                ANGLE_TOLERANCE, MAX_NEWTON_ITERATIONS, "CZ loop", cap=cap, check=check)
    gate.set_control_frame(cal, schedule, "z")
    cal.result = gate.score(schedule(cal), CZ_TARGET)
    cal.converged = True
    return cal


def cz_gate_result(system: SystemSpec, cal: CzCalibration, control: int = 1,
                   target: int = 0, dt: float = DEFAULT_DT) -> GateResult:
    """Propagate and score a CZ calibrated elsewhere, as `calibrate_cz` scores its own."""
    gate = _RepeatedGate(system, OperatingFrame(system), control, target, dt)
    return gate.score(calibrated_cz_schedule(cal, control, target), CZ_TARGET)
