"""Time-domain closed-system propagation of pulse schedules.

Schedules are propagated in a single rotating frame (the CW-tone frequency
when cancellation tones are present, else the first pulse carrier), where
the always-on part of the Hamiltonian, CW tones included, is time
independent.  Gate results are reported in the operating frame rotating at
each mode's dressed frequency, so an ideal idle is the identity and
virtual-Z frame changes have their usual meaning.  Drive phases follow the
exp(+i phi) raising-operator convention of the rest of the package.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .errors import StepSizeError, TomographyFitError
from .operators import (DriveRole, SystemSpec, bare_index, basis_label,
                        build_rwa_hamiltonian, computational_labels, mode_operators)
from .perturbation import seed_zx_rate
from .spectrum import assign_labels

TWO_PI = 2.0 * math.pi

DEFAULT_DT = 0.05
UNITARITY_TOL = 1e-6


class EnvelopeKind(enum.Enum):
    #: Plain flat-top Gaussian; no quadrature component.
    FLAT_TOP_GAUSSIAN = "flat_top_gaussian"
    #: Flat-top Gaussian with derivative (DRAG) and skew quadrature.
    GAUSSIAN_DERIVATIVE_QUADRATURE = "gaussian_derivative_quadrature"


@dataclass(frozen=True)
class Envelope:
    """Flat-top Gaussian envelope with optional quadrature corrections.

    The in-phase component rises over `rise_fall_sigmas * sigma`, holds the
    peak `amplitude`, and falls symmetrically; the Gaussian tails are
    truncated (not baseline-subtracted), so the value at the endpoints is
    the truncated tail value.  The quadrature component is
    beta * d/dt + gamma * |d/dt| of the in-phase part.
    """

    kind: EnvelopeKind
    amplitude: float
    duration: float
    sigma: float
    rise_fall_sigmas: float = 2.0
    drag_beta: float = 0.0
    skew_gamma: float = 0.0

    def __post_init__(self):
        if self.sigma <= 0 or self.rise_fall_sigmas <= 0:
            raise ValueError("sigma and rise_fall_sigmas must be positive")
        if self.duration < 2.0 * self.rise_fall_sigmas * self.sigma:
            raise ValueError(
                f"duration {self.duration} ns shorter than rise plus fall "
                f"{2 * self.rise_fall_sigmas * self.sigma} ns")
        if self.kind is EnvelopeKind.FLAT_TOP_GAUSSIAN and (
                self.drag_beta != 0.0 or self.skew_gamma != 0.0):
            raise ValueError("plain flat-top envelopes carry no quadrature "
                             "corrections; use the derivative-quadrature kind")

    @property
    def edge(self) -> float:
        return self.rise_fall_sigmas * self.sigma

    @property
    def flat_area(self) -> float:
        """Integral of the in-phase component over the pulse, per unit peak."""
        edge_area = self.sigma * math.sqrt(math.pi / 2.0) * math.erf(
            self.rise_fall_sigmas / math.sqrt(2.0))
        return (self.duration - 2.0 * self.edge) + 2.0 * edge_area


def sample_envelope(envelope: Envelope, t):
    """In-phase and quadrature values at time t in [0, duration].

    `t` may be a scalar or an array; the values take its shape.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0) or np.any(t > envelope.duration):
        raise ValueError(f"t={t} outside [0, {envelope.duration}]")
    edge = envelope.edge
    fall_start = envelope.duration - edge
    # (t - edge) on the rise, (t - fall_start) on the fall, 0 on the flat top
    arg = (np.minimum(t - edge, 0.0) + np.maximum(t - fall_start, 0.0)) / envelope.sigma
    in_phase = envelope.amplitude * np.exp(-0.5 * arg * arg)
    derivative = -(arg / envelope.sigma) * in_phase
    quadrature = (envelope.drag_beta * derivative
                  + envelope.skew_gamma * np.abs(derivative))
    return in_phase, quadrature


@dataclass(frozen=True)
class Play:
    envelope: Envelope
    carrier_frequency: float
    carrier_phase: float
    target: int


@dataclass(frozen=True)
class FrameChange:
    angle: float
    target: int


class Barrier:
    """Alignment point: subsequent items start after all earlier ones."""

    def __repr__(self):
        return "Barrier()"


BARRIER = Barrier()


@dataclass(frozen=True)
class PulseSchedule:
    """Time-ordered pulse items with sequential per-target placement.

    Each target has its own clock: a Play occupies [clock, clock+duration)
    on its target, a FrameChange is instantaneous at the target's clock,
    and a Barrier aligns all clocks.  `total_duration` may be given
    explicitly to pad the schedule with idle time; it defaults to the
    latest clock.
    """

    items: tuple = ()
    total_duration: float | None = None

    def timed_items(self, num_targets: int):
        """Resolve start times: lists of (start, Play) and (time, FrameChange)."""
        clocks = [0.0] * num_targets
        plays, frame_changes = [], []
        for item in self.items:
            if isinstance(item, Barrier):
                latest = max(clocks, default=0.0)
                clocks = [latest] * num_targets
            elif isinstance(item, Play):
                start = clocks[item.target]
                plays.append((start, item))
                clocks[item.target] = start + item.envelope.duration
            elif isinstance(item, FrameChange):
                frame_changes.append((clocks[item.target], item))
            else:
                raise TypeError(f"unknown schedule item {item!r}")
        end = max(clocks, default=0.0)
        if self.total_duration is not None:
            if self.total_duration < end - 1e-12:
                raise ValueError(f"total_duration {self.total_duration} shorter "
                                 f"than scheduled content {end}")
            end = float(self.total_duration)
        return plays, frame_changes, end


def schedule_to_document(schedule: PulseSchedule) -> dict:
    """JSON-compatible document for a schedule (inverse of from_document)."""
    items = []
    for item in schedule.items:
        if isinstance(item, Barrier):
            items.append({"type": "barrier"})
        elif isinstance(item, FrameChange):
            items.append({"type": "frame_change", "angle": item.angle,
                          "target": item.target})
        elif isinstance(item, Play):
            env = item.envelope
            items.append({
                "type": "play", "target": item.target,
                "carrier_frequency": item.carrier_frequency,
                "carrier_phase": item.carrier_phase,
                "envelope": {
                    "kind": env.kind.value, "amplitude": env.amplitude,
                    "duration": env.duration, "sigma": env.sigma,
                    "rise_fall_sigmas": env.rise_fall_sigmas,
                    "drag_beta": env.drag_beta, "skew_gamma": env.skew_gamma,
                }})
        else:
            raise TypeError(f"unknown schedule item {item!r}")
    doc = {"items": items}
    if schedule.total_duration is not None:
        doc["total_duration"] = schedule.total_duration
    return doc


def schedule_from_document(doc: dict) -> PulseSchedule:
    """Rebuild a schedule from its document form."""
    items = []
    for entry in doc.get("items", []):
        kind = entry.get("type")
        if kind == "barrier":
            items.append(BARRIER)
        elif kind == "frame_change":
            items.append(FrameChange(float(entry["angle"]), int(entry["target"])))
        elif kind == "play":
            env = entry["envelope"]
            items.append(Play(
                Envelope(EnvelopeKind(env["kind"]), float(env["amplitude"]),
                         float(env["duration"]), float(env["sigma"]),
                         float(env.get("rise_fall_sigmas", 2.0)),
                         float(env.get("drag_beta", 0.0)),
                         float(env.get("skew_gamma", 0.0))),
                float(entry["carrier_frequency"]),
                float(entry["carrier_phase"]), int(entry["target"])))
        else:
            raise ValueError(f"unknown schedule item type {kind!r}")
    total = doc.get("total_duration")
    return PulseSchedule(tuple(items),
                         float(total) if total is not None else None)


@dataclass(frozen=True)
class GateResult:
    """Propagation outcome in the operating (dressed, co-rotating) frame."""

    full_unitary: np.ndarray
    computational_block: np.ndarray
    leakage: float
    fidelity: float
    duration: float


def gate_fidelity(u: np.ndarray, target: np.ndarray) -> float:
    """Average gate fidelity of a (possibly sub-unitary) block vs a target."""
    d = u.shape[0]
    tr_uu = np.trace(u.conj().T @ u).real
    tr_tu = abs(np.trace(target.conj().T @ u)) ** 2
    return float((tr_uu + tr_tu) / (d * (d + 1)))


def block_leakage(block: np.ndarray) -> float:
    return float(1.0 - np.linalg.norm(block) ** 2 / block.shape[0])


class OperatingFrame:
    """Dressed-basis context for propagation with always-on tones.

    Diagonalizes the static-plus-CW Hamiltonian in the simulation frame,
    orders the dressed states by bare index (column k of `basis` is the
    dressed state of bare state k), and records each mode's dressed frame
    rate (the dressed single-excitation energy).  Dressed operating
    frequencies in lab terms are `frame_frequency + eps[mode]`.  CW tones
    must share the frame frequency; they are part of the static Hamiltonian
    here.
    """

    def __init__(self, system: SystemSpec, frame_frequency: float | None = None):
        gate_drives = [d for d in system.drives if d.role is DriveRole.GATE]
        if gate_drives:
            raise ValueError("gate-role tones must come from the schedule, "
                             "not the system drive list")
        cw = system.cancellation_drives()
        if frame_frequency is None:
            frame_frequency = cw[0].frequency if cw else 0.0
        self.system = system
        self.frame_frequency = float(frame_frequency)
        self.dims = system.dims
        self.dim = system.total_dimension

        self.h_static = build_rwa_hamiltonian(system, self.frame_frequency)
        vals, vecs = np.linalg.eigh(self.h_static)
        order = assign_labels(vecs)
        self.energies = vals[order]
        basis = vecs[:, order]
        # Gauge fix: make each dressed state's own bare component real and
        # positive, so conditional phases and rotation senses are consistent
        # across labels (the raw eigensolver phase is arbitrary per column).
        anchors = np.diagonal(basis)
        self.basis = basis * (anchors / np.abs(anchors)).conj()[None, :]

        self.occupations, lowering, raising = mode_operators(self.dims)
        n_modes = len(self.dims)
        e0 = self.energies[0]
        self.eps = np.array([
            self.energies[bare_index(basis_label(n_modes, {k: 1}), self.dims)] - e0
            for k in range(n_modes)])
        # Per-state operating-frame rate, ground energy included so that an
        # ideal idle maps to the identity with no global phase.
        self.frame_rates = e0 + sum(e * n for e, n in zip(self.eps, self.occupations))
        self.lowering = [a.toarray() for a in lowering]
        self.raising = [a.toarray() for a in raising]

    def dressed_frequency(self, mode: int) -> float:
        """Dressed operating frequency of a mode in lab terms (GHz)."""
        return self.frame_frequency + float(self.eps[mode])

    def computational_indices(self, q0: int, q1: int) -> list[int]:
        return [bare_index(label, self.dims)
                for label in computational_labels(len(self.dims), q0, q1)]

    def operating_phases(self, t: float) -> np.ndarray:
        """Diagonal phase factors moving frame-basis amplitudes at time t."""
        return np.exp(1j * TWO_PI * self.frame_rates * t)

    def to_operating(self, u_frame: np.ndarray, t: float) -> np.ndarray:
        """Simulation-frame propagator to the operating frame, dressed basis."""
        u_dressed = self.basis.conj().T @ u_frame @ self.basis
        return self.operating_phases(t)[:, None] * u_dressed

    def qubit_pairings(self, qubit: int) -> tuple[np.ndarray, np.ndarray]:
        """Index pairs differing only by the qubit's 0/1 occupancy."""
        idx0 = np.flatnonzero(self.occupations[qubit] == 0)
        return idx0, idx0 + math.prod(self.dims[qubit + 1:])


@dataclass
class _DriveTerm:
    """One microwave tone in the simulation frame.

    `envelope` None means a constant tone at `amplitude`.  The complex
    coefficient multiplies the raising operator of the target mode.
    """

    target: int
    start: float
    envelope: Envelope | None
    amplitude: float
    detuning: float                # carrier minus frame frequency
    phase: float

    def coefficient(self, t):
        """Coefficient at time t (scalar or array) within the term's span."""
        if self.envelope is None:
            in_phase, quadrature = self.amplitude, 0.0
        else:
            in_phase, quadrature = sample_envelope(self.envelope,
                                                   np.asarray(t) - self.start)
        # The raising-operator coefficient co-rotates at (frame - carrier)
        # so a carrier at a mode's dressed lab frequency is resonant.
        return 0.5 * (in_phase + 1j * quadrature) * np.exp(
            1j * (self.phase - TWO_PI * self.detuning * t))

    def active_in(self, t_a: float, t_b: float) -> bool:
        if self.envelope is None:
            return self.amplitude != 0.0
        end = self.start + self.envelope.duration
        return end > t_a + 1e-12 and self.start < t_b - 1e-12

    def flat_in(self, t_a: float, t_b: float) -> bool:
        """Constant magnitude over [t_a, t_b]: a CW tone or a flat-top middle."""
        if self.envelope is None:
            return True
        edge = self.envelope.edge
        return (t_a >= self.start + edge - 1e-12
                and t_b <= self.start + self.envelope.duration - edge + 1e-12)


#: Midpoint steps exponentiated together as one stack; bounds the memory
#: of the step stack.
STEP_CHUNK = 32

#: Scaled-and-squared Taylor steps (Al-Mohy & Higham, SIAM J. Matrix Anal.
#: Appl. 31, 970 (2009)): at scaled 1-norm <= theta the degree-16 remainder
#: is below theta^17/17! * 18/(18 - theta) < 1e-16.
TAYLOR_THETA = 0.8
TAYLOR_DEGREE = 16


def _hamiltonians(frame: OperatingFrame, active, times: np.ndarray) -> np.ndarray:
    """Frame Hamiltonians at each of `times`, stacked (n, dim, dim)."""
    times = np.asarray(times)
    hams = np.repeat(frame.h_static[None], len(times), axis=0)
    for term in active:
        c = term.coefficient(times)[:, None, None]
        hams += c * frame.raising[term.target]
        hams += np.conj(c) * frame.lowering[term.target]
    return hams


def _ordered_product(steps: np.ndarray) -> np.ndarray:
    """steps[-1] @ ... @ steps[0] of an (n, d, d) stack, by pairwise products."""
    while len(steps) > 1:
        paired = steps[1::2] @ steps[:-1:2]
        steps = np.concatenate([paired, steps[-1:]]) if len(steps) % 2 else paired
    return steps[0]


def _step_exponentials(hams: np.ndarray, h: float) -> np.ndarray:
    """exp(-2 pi i h H) for every H of an (n, d, d) stack, by matmuls only.

    The stack is scaled by 2^-s to 2 pi h |H|_1 <= TAYLOR_THETA, its Taylor
    polynomial summed by Horner in A^4 (Paterson & Stockmeyer, SIAM J.
    Comput. 2, 60 (1973)) and the sum squared s times.
    """
    norm = TWO_PI * h * np.abs(hams).sum(axis=-2).max()
    squarings = max(0, math.ceil(math.log2(norm / TAYLOR_THETA))) if norm > 0 else 0
    a = hams * (-1j * TWO_PI * h / 2.0 ** squarings)
    powers = [np.eye(hams.shape[-1]), a, a @ a]
    powers.append(powers[2] @ a)
    a4 = powers[2] @ powers[2]
    c = [1.0 / math.factorial(k) for k in range(TAYLOR_DEGREE + 1)]
    u = c[TAYLOR_DEGREE] * a4
    for j in range(TAYLOR_DEGREE - 4, -1, -4):
        for k, p in enumerate(powers):
            u += c[j + k] * p
        u = u @ a4 if j else u
    for _ in range(squarings):
        u = u @ u
    return u


def _midpoint_steps(frame: OperatingFrame, active, t0: float, span: float,
                    dt: float, u: np.ndarray, within=()) -> tuple[np.ndarray, list]:
    """Apply midpoint exponential steps of at most dt over [t0, t0 + span] to u.

    Returns u and, at each offset in `within` (in [0, span]), u after the
    whole steps before that offset and one midpoint step over the rest.
    """
    n_steps = max(1, math.ceil(span / dt - 1e-9))
    h = span / n_steps
    ks = np.minimum(np.asarray(within) // h, n_steps).astype(int)
    keep = set(ks.tolist())
    kept = {0: u}
    for first in range(0, n_steps, STEP_CHUNK):
        last = min(n_steps, first + STEP_CHUNK)
        t_mid = t0 + (np.arange(first, last) + 0.5) * h
        steps = _step_exponentials(_hamiltonians(frame, active, t_mid), h)
        cuts = sorted(k - first for k in keep if first < k < last)
        for a, b in zip([0, *cuts], [*cuts, last - first]):
            u = _ordered_product(steps[a:b]) @ u
            if first + b in keep:
                kept[first + b] = u
    if not keep:
        return u, []
    deltas = within - ks * h
    hams = _hamiltonians(frame, active, t0 + ks * h + deltas / 2)
    rests = _step_exponentials(hams * deltas[:, None, None], 1.0)  # exp(-2 pi i delta H)
    return u, [rest @ kept[k] for rest, k in zip(rests, ks)]


def _evolve(frame: OperatingFrame, drive_terms, events, duration: float, dt: float,
            snapshot_times=()):
    """Propagate the frame Hamiltonian through drive terms and events.

    `events` are (time, unitary) insertions applied between intervals in
    time order.  The intervals run between breakpoints: 0, `duration`,
    events and each term's start, end and flat-top edges (start + edge,
    end - edge).  Over each interval one of two rules applies:

    - periodic: every active term is flat (CW tones, flat-top middles) at
      one detuning, so the Hamiltonian repeats with period T = 1/|detuning|
      (Shirley, Phys. Rev. 138, B979 (1965)), or with T = dt when it is
      constant (no active term, or all at zero detuning).  Over at least
      two periods, one period is stepped once and each snapshot or end
      t_a + m T + r is U(t_a + r, t_a) U_T^m from its prefix products, so
      snapshots do not split the stretch;
    - otherwise the interval is split at its snapshots and each piece takes
      midpoint exponential steps of at most `dt`.

    Midpoint steps are exponentiated STEP_CHUNK at a time by
    `_step_exponentials` (batched matmuls, no `eigh`) and multiplied in
    order by a pairwise product.  Returns (U(duration), snapshots) with
    snapshots the propagators at the requested times.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    dim = frame.dim
    u = np.eye(dim, dtype=complex)
    snapshots = []
    snap_times = sorted(float(t) for t in snapshot_times)

    breakpoints = {0.0, duration}
    breakpoints.update(t for t, _ in events)
    for term in drive_terms:
        breakpoints.add(min(duration, max(0.0, term.start)))
        if term.envelope is not None:
            end = term.start + term.envelope.duration
            edge = term.envelope.edge
            breakpoints.update(min(duration, max(0.0, t))
                               for t in (term.start + edge, end - edge, end))
    grid = sorted(b for b in breakpoints if 0.0 <= b <= duration)

    events = sorted(events, key=lambda ev: ev[0])
    ev_pos = 0
    snap_pos = 0

    def record_snapshots(now):
        nonlocal snap_pos
        while snap_pos < len(snap_times) and abs(snap_times[snap_pos] - now) < 1e-9:
            snapshots.append(u.copy())
            snap_pos += 1

    record_snapshots(0.0)
    while ev_pos < len(events) and events[ev_pos][0] <= 1e-12:
        u = events[ev_pos][1] @ u
        ev_pos += 1

    for t_a, t_b in zip(grid[:-1], grid[1:]):
        stops = [t for t in snap_times if t_a + 1e-9 < t < t_b - 1e-9] + [t_b]
        active = [term for term in drive_terms if term.active_in(t_a, t_b)]
        detunings = {term.detuning for term in active} or {0.0}
        period = math.inf
        if len(detunings) == 1 and all(term.flat_in(t_a, t_b) for term in active):
            detuning = detunings.pop()
            period = 1.0 / abs(detuning) if detuning else dt
        if t_b - t_a >= 2.0 * period:
            periods, rests = np.divmod(np.asarray(stops) - t_a, period)
            u_period, within = _midpoint_steps(frame, active, t_a, period, dt,
                                               np.eye(dim, dtype=complex), rests)
            start = u
            for stop, m, u_rest in zip(stops, periods.astype(int), within):
                u = u_rest @ (np.linalg.matrix_power(u_period, m) @ start)
                record_snapshots(stop)
        else:
            for s_a, s_b in zip([t_a, *stops], stops):
                if s_b - s_a > 1e-12:
                    u, _ = _midpoint_steps(frame, active, s_a, s_b - s_a, dt, u)
                record_snapshots(s_b)
        while ev_pos < len(events) and events[ev_pos][0] <= t_b + 1e-12:
            u = events[ev_pos][1] @ u
            ev_pos += 1

    defect = np.linalg.norm(u.conj().T @ u - np.eye(dim))
    if defect > UNITARITY_TOL:
        raise StepSizeError(f"unitarity drift {defect:.2e} exceeds {UNITARITY_TOL}; "
                            "reduce dt")
    return u, snapshots


def _schedule_drive_terms(frame: OperatingFrame, schedule: PulseSchedule):
    """Gate-drive terms and frame-change events of a schedule.

    CW tones are not included: they are static in the simulation frame and
    already live inside the operating frame's Hamiltonian.
    """
    plays, frame_changes, duration = schedule.timed_items(frame.system.num_transmons)
    terms = [
        _DriveTerm(target=play.target, start=start, envelope=play.envelope,
                   amplitude=play.envelope.amplitude,
                   detuning=play.carrier_frequency - frame.frame_frequency,
                   phase=play.carrier_phase)
        for start, play in plays]
    events = [(t, (frame.basis * _frame_change_phases(frame, fc)) @ frame.basis.conj().T)
              for t, fc in frame_changes]
    return terms, events, duration


def _frame_change_phases(frame: OperatingFrame, fc: FrameChange) -> np.ndarray:
    """Virtual-Z: exp(-i angle) per target-mode excitation, diagonal over
    the dressed states (so also on operating-frame unitaries).

    Hardware frame changes are bookkeeping on subsequent pulse phases, so
    the equivalent operator is diagonal over the dressed states the frames
    track; a bare-mode phase kick would spuriously dephase the hybridized
    parts of the dressed states.
    """
    return np.exp(-1j * fc.angle * frame.occupations[fc.target])


def default_frame_frequency(system: SystemSpec, schedule: PulseSchedule) -> float:
    cw = system.cancellation_drives()
    if cw:
        return cw[0].frequency
    plays = [item for item in schedule.items if isinstance(item, Play)]
    if plays:
        return plays[0].carrier_frequency
    return 0.0


def propagate(system: SystemSpec, schedule: PulseSchedule, dt: float = DEFAULT_DT,
              q0: int = 0, q1: int = 1, target: np.ndarray | None = None,
              frame: OperatingFrame | None = None) -> GateResult:
    """Propagate a schedule and extract the computational-block gate.

    CW cancellation tones in the system run for the full schedule duration.
    The returned unitary is expressed in the dressed-label basis of the
    operating frame, where an ideal idle is the identity; the 4x4
    computational block is ordered 00, 01, 10, 11 for the (q0, q1) pair.
    Fidelity is measured against `target` (identity when omitted).
    """
    if frame is None:
        frame = OperatingFrame(system, default_frame_frequency(system, schedule))
    terms, events, duration = _schedule_drive_terms(frame, schedule)
    u_frame, _ = _evolve(frame, terms, events, duration, dt)
    u_op = frame.to_operating(u_frame, duration)

    comp = frame.computational_indices(q0, q1)
    block = u_op[np.ix_(comp, comp)]
    if target is None:
        target = np.eye(4, dtype=complex)
    return GateResult(
        full_unitary=u_op,
        computational_block=block,
        leakage=block_leakage(block),
        fidelity=gate_fidelity(block, target),
        duration=duration)


# ---------------------------------------------------------------------------
# Pauli-rate extraction (Hamiltonian tomography analog)

def _rotation_model(params, t, r0):
    """Bloch vector under rotation at vector rate params (GHz) from r0."""
    p = np.asarray(params, dtype=float)
    omega = np.linalg.norm(p)
    if omega < 1e-15:
        return np.tile(np.asarray(r0, dtype=float), (len(t), 1))
    axis = p / omega
    angle = TWO_PI * omega * np.asarray(t)
    cos_a = np.cos(angle)[:, None]
    sin_a = np.sin(angle)[:, None]
    r0 = np.asarray(r0, dtype=float)
    parallel = axis * (axis @ r0)
    perp = r0 - parallel
    # written out: np.cross costs more than the rest of the model
    cross = np.array([axis[1] * r0[2] - axis[2] * r0[1], axis[2] * r0[0] - axis[0] * r0[2],
                      axis[0] * r0[1] - axis[1] * r0[0]])
    return parallel + cos_a * perp + sin_a * cross


def _rotation_seed(times, trajectory):
    """Per-step rotation vector estimated by orthogonal Procrustes.

    All consecutive Bloch-vector pairs share one rotation when the
    generator is constant; the best-fit rotation matrix gives a robust
    axis-and-angle seed as long as the grid resolves under half a turn
    per step.
    """
    a = trajectory[:-1].T
    b = trajectory[1:].T
    u, _, vt = np.linalg.svd(b @ a.T)
    d = np.sign(np.linalg.det(u @ vt))
    rot = u @ np.diag([1.0, 1.0, d]) @ vt
    cos_angle = np.clip((np.trace(rot) - 1.0) / 2.0, -1.0, 1.0)
    angle = math.acos(cos_angle)
    axis = np.array([rot[2, 1] - rot[1, 2],
                     rot[0, 2] - rot[2, 0],
                     rot[1, 0] - rot[0, 1]])
    norm = np.linalg.norm(axis)
    if norm < 1e-12 or angle < 1e-9:
        return np.zeros(3)
    dt_step = times[1] - times[0]
    return (axis / norm) * angle / (TWO_PI * dt_step)


def _fit_rotation(times, *trajectories, extra_seeds=()):
    """Least-squares single-axis-rotation fit of trajectories jointly.

    Each trajectory starts from its own first Bloch vector and contributes
    its own Procrustes seed; the lowest-cost fit over all seeds wins.
    """
    def residual(params):
        return np.concatenate([(_rotation_model(params, times, traj[0]) - traj).ravel()
                               for traj in trajectories])

    seeds = [_rotation_seed(times, traj) for traj in trajectories]
    seeds.extend(np.asarray(s, dtype=float) for s in extra_seeds)
    best = min((scipy.optimize.least_squares(residual, guess, method="lm", max_nfev=2000)
                for guess in seeds), key=lambda sol: sol.cost)
    scale = max(1.0, np.linalg.norm(np.concatenate(trajectories)))
    rel_resid = math.sqrt(2.0 * best.cost) / scale
    return best.x, rel_resid


def _bloch_trajectory(frame: OperatingFrame, qubit: int, amplitudes) -> np.ndarray:
    """Bloch vectors of one qubit, one row per dressed-basis amplitude vector."""
    idx0, idx1 = frame.qubit_pairings(qubit)
    out = np.empty((len(amplitudes), 3))
    for k, a in enumerate(amplitudes):
        cross = np.vdot(a[idx0], a[idx1])  # sum conj(a0) a1
        out[k, 0] = 2.0 * cross.real
        out[k, 1] = 2.0 * cross.imag
        out[k, 2] = float(np.sum(np.abs(a[idx0]) ** 2) - np.sum(np.abs(a[idx1]) ** 2))
    return out


def extract_pauli_rates(system: SystemSpec, cr_amplitude: float, cr_frequency: float,
                        control: int, target: int, dt: float = DEFAULT_DT,
                        num_points: int = 21, cr_phase: float = 0.0,
                        max_rel_residual: float = 0.05,
                        frame: OperatingFrame | None = None) -> dict[str, float]:
    """Fit conditional target rotation rates under a constant entangling tone.

    The target's Bloch trajectory is simulated with the control prepared in
    its ground and excited dressed states, over a grid spanning two periods
    of the dominant rate (estimated from a pilot pass), and each trajectory
    is fit to a single-axis rotation.  Rates are reported in the
    conditional-Rabi convention of standard cross-resonance tomography,
    H = (1/2) sum_P nu_P P; in this convention the tomographic ZZ equals
    half the level-spacing (Ramsey) value used by the spectrum module.
    """
    if frame is None:
        cw = system.cancellation_drives()
        frame = OperatingFrame(system, cw[0].frequency if cw else cr_frequency)
    tone = _DriveTerm(target=control, start=0.0, envelope=None,
                      amplitude=cr_amplitude, phase=cr_phase,
                      detuning=cr_frequency - frame.frame_frequency)

    # Pilot rate guess from the perturbative conditional rate plus a floor.
    rate_guess = max(seed_zx_rate(system, control, target, cr_amplitude), 2e-4)

    preps = [bare_index(basis_label(len(frame.dims), {control: s}), frame.dims)
             for s in (0, 1)]

    for _ in range(3):
        t_max = 2.0 / rate_guess
        times = np.linspace(0.0, t_max, num_points)
        _, snaps = _evolve(frame, [tone], [], t_max, dt, snapshot_times=times)
        prepared = [frame.to_operating(u, t)[:, preps] for u, t in zip(snaps, times)]
        extra = [np.array([s * rate_guess, 0.0, 0.0]) for s in (1.0, -1.0)]
        fitted, residuals = [], []
        for k in range(2):
            traj = _bloch_trajectory(frame, target, [cols[:, k] for cols in prepared])
            params, rel = _fit_rotation(times, traj, extra_seeds=extra)
            fitted.append(params)
            residuals.append(rel)
        dominant = max(np.linalg.norm(p) for p in fitted)
        if rate_guess / 3.0 < dominant < 3.0 * rate_guess:
            break
        rate_guess = max(dominant, 2e-4)

    worst = max(residuals)
    if worst > max_rel_residual:
        raise TomographyFitError(
            f"rotation-model fit residual {worst:.3g} exceeds {max_rel_residual}",
            residual=worst)

    p0, p1 = fitted
    rates: dict[str, float] = {}
    for k, axis in enumerate("XYZ"):
        rates[f"I{axis}"] = 0.5 * (p0[k] + p1[k])
        rates[f"Z{axis}"] = 0.5 * (p0[k] - p1[k])

    # Control Stark rate from a control-coherence trajectory with the
    # target idle; the conditional (ZZ) part is removed so the reported ZI
    # follows the same Pauli normalization.
    amps = [cols.sum(axis=1) / math.sqrt(2.0) for cols in prepared]
    traj = _bloch_trajectory(frame, control, amps)
    extra = [np.array([0.0, 0.0, z]) for z in (rates["ZZ"], -rates["ZZ"])]
    params, _ = _fit_rotation(times, traj, extra_seeds=extra)
    rates["ZI"] = params[2] - rates["ZZ"]
    return {k: float(v) for k, v in rates.items()}
