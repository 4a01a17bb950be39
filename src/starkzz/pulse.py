"""Time-domain closed-system propagation of pulse schedules.

Schedules are propagated in a single rotating frame (the CW-tone frequency
when cancellation tones are present, else the first pulse carrier), where
the always-on part of the Hamiltonian, CW tones included, is time
independent.  Gate results are reported in the operating frame rotating at
each mode's dressed frequency, so an ideal idle is the identity and
virtual-Z frame changes have their usual meaning.  Drive phases follow the
exp(+i phi) raising-operator convention of the rest of the package.
Rotation angles, the calibrations' and the Pauli rates', are read from a
propagator's 2x2 blocks by an SU(2) logarithm (`rotation_vector`), not
fit to trajectories.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import StepSizeError, TomographyFitError
from .operators import (SystemSpec, bare_index, basis_label, build_rwa_hamiltonian,
                        computational_labels, mode_operators, undriven_rwa_hamiltonian)
from .spectrum import assign_labels

TWO_PI = 2.0 * math.pi

DEFAULT_DT = 0.25
UNITARITY_TOL = 1e-6


@dataclass(frozen=True)
class Envelope:
    """Flat-top Gaussian envelope with optional quadrature corrections.

    The in-phase component rises over `rise_fall_sigmas * sigma`, holds the
    peak `amplitude`, and falls symmetrically; the Gaussian tails are
    truncated (not baseline-subtracted), so the value at the endpoints is
    the truncated tail value.  The quadrature component is
    beta * d/dt + gamma * |d/dt| of the in-phase part; with beta = gamma = 0
    it is a plain flat-top Gaussian.
    """

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


@dataclass(frozen=True)
class PulseSchedule:
    """Time-ordered pulse items with sequential per-target placement.

    Each target has its own clock: a Play occupies [clock, clock+duration)
    on its target and a FrameChange is instantaneous at the target's
    clock.  `total_duration` may be given explicitly to pad the schedule
    with idle time; it defaults to the latest clock.
    """

    items: tuple = ()
    total_duration: float | None = None

    def timed_items(self, num_targets: int):
        """Resolve start times: lists of (start, Play) and (time, FrameChange)."""
        clocks = [0.0] * num_targets
        plays, frame_changes = [], []
        for item in self.items:
            if isinstance(item, Play):
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
    """JSON-compatible document for a schedule."""
    kinds = {FrameChange: "frame_change", Play: "play"}
    items = []
    for item in schedule.items:
        if type(item) not in kinds:
            raise TypeError(f"unknown schedule item {item!r}")
        items.append({"type": kinds[type(item)], **asdict(item)})
    doc = {"items": items}
    if schedule.total_duration is not None:
        doc["total_duration"] = schedule.total_duration
    return doc


@dataclass(frozen=True)
class GateResult:
    """Propagation outcome of `schedule` in the operating (dressed, co-rotating) frame."""

    full_unitary: np.ndarray
    computational_block: np.ndarray
    leakage: float
    fidelity: float
    duration: float
    schedule: PulseSchedule


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
        cw = system.drives
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

        self.occupations = mode_operators(self.dims)[0]
        n_modes = len(self.dims)
        e0 = self.energies[0]
        self.eps = np.array([
            self.energies[bare_index(basis_label(n_modes, {k: 1}), self.dims)] - e0
            for k in range(n_modes)])
        # Per-state operating-frame rate, ground energy included so that an
        # ideal idle maps to the identity with no global phase.
        self.frame_rates = e0 + sum(e * n for e, n in zip(self.eps, self.occupations))
        # (rows, cols, values) of each raising operator; lowering's are (cols, rows, values)
        layout = undriven_rwa_hamiltonian(system.without_drives(), self.frame_frequency)
        self.raising_entries = [ladder[:3] for ladder in layout.ladders]

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


#: Steps whose 2 * STEP_CHUNK factors are exponentiated together as one
#: stack; bounds the memory of the step stack.
STEP_CHUNK = 32

#: Scaled-and-squared Taylor steps (Al-Mohy & Higham, SIAM J. Matrix Anal.
#: Appl. 31, 970 (2009)): at scaled 1-norm <= theta the degree-16 remainder
#: is below theta^17/17! * 18/(18 - theta) < 1e-16.
TAYLOR_THETA = 0.8
TAYLOR_DEGREE = 16

#: Fourth-order commutator-free Magnus step (Blanes & Moan, Appl. Numer.
#: Math. 56, 1519 (2006); Alvermann & Fehske, J. Comput. Phys. 230, 5930
#: (2011)): with H1, H2 at the Gauss-Legendre nodes t + c h,
#: U = exp(-2 pi i h (a1 H1 + a2 H2)) exp(-2 pi i h (a2 H1 + a1 H2)),
#: a1,2 = (3 -+ 2 sqrt 3)/12.  Since a1 + a2 = 1/2, each factor is
#: exp(-2 pi i (h/2) G) of a Hamiltonian G whose drive coefficients mix
#: those at the nodes by CF4_MIX = (2 a2, 2 a1) in the factor applied
#: first and by (2 a1, 2 a2) in the second.
CF4_NODES = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
CF4_MIX = (0.5 + math.sqrt(3.0) / 3.0, 0.5 - math.sqrt(3.0) / 3.0)


def _cf4_generators(frame: OperatingFrame, active, starts, spans, out) -> np.ndarray:
    """The two CF4 generators G of a step from each of `starts` over its span, stacked
    (2n, dim, dim) into `out` in the order they apply, each drive term by its ladder
    operators' nonzeros: exp(-2 pi i (span/2) G) of rows 2k and 2k + 1 make step k."""
    starts = np.asarray(starts, dtype=float)
    hams = out[:2 * len(starts)]
    hams[:] = frame.h_static
    hi, lo = CF4_MIX
    for term in active:
        c1 = term.coefficient(starts + CF4_NODES[0] * spans)
        c2 = term.coefficient(starts + CF4_NODES[1] * spans)
        c = np.empty(2 * len(starts), dtype=complex)
        c[0::2] = hi * c1 + lo * c2
        c[1::2] = lo * c1 + hi * c2
        rows, cols, values = frame.raising_entries[term.target]
        hams[:, rows, cols] += c[:, None] * values
        hams[:, cols, rows] += np.conj(c)[:, None] * values
    return hams


def _ordered_product(steps: np.ndarray) -> np.ndarray:
    """steps[-1] @ ... @ steps[0] of an (n, d, d) stack, by pairwise products."""
    while len(steps) > 1:
        paired = steps[1::2] @ steps[:-1:2]
        steps = np.concatenate([paired, steps[-1:]]) if len(steps) % 2 else paired
    return steps[0]


def _step_exponentials(hams: np.ndarray, h: float, work: np.ndarray) -> np.ndarray:
    """exp(-2 pi i h H) for every H of an (n, d, d) stack, by matmuls only.

    The stack is scaled by 2^-s to 2 pi h |H|_1 <= TAYLOR_THETA, its Taylor
    polynomial summed by Horner in A^4 (Paterson & Stockmeyer, SIAM J.
    Comput. 2, 60 (1973)) and the sum squared s times, all inside `work`, a (6, m >= n,
    d, d) workspace whose first block may be `hams`; the result is a view into it.
    """
    n, d = len(hams), hams.shape[-1]
    a, a2, a3, a4, u, tmp = work[:, :n]
    norm = TWO_PI * h * np.abs(hams, out=u.real).sum(axis=-2).max()
    squarings = max(0, math.ceil(math.log2(norm / TAYLOR_THETA))) if norm > 0 else 0
    np.multiply(hams, -1j * TWO_PI * h / 2.0 ** squarings, out=a)
    np.matmul(a, a, out=a2)
    np.matmul(a2, a, out=a3)
    np.matmul(a2, a2, out=a4)
    c = [1.0 / math.factorial(k) for k in range(TAYLOR_DEGREE + 1)]
    np.multiply(c[TAYLOR_DEGREE], a4, out=u)
    for j in range(TAYLOR_DEGREE - 4, -1, -4):
        u.reshape(n, d * d)[:, ::d + 1] += c[j]  # the identity term
        for k, p in ((1, a), (2, a2), (3, a3)):
            u += np.multiply(c[j + k], p, out=tmp)
        if j:
            u, tmp = np.matmul(u, a4, out=tmp), u
    for _ in range(squarings):
        u, tmp = np.matmul(u, u, out=tmp), u
    return u


def _cf4_steps(frame: OperatingFrame, active, t0: float, span: float,
               dt: float, u: np.ndarray, work: np.ndarray, within=None):
    """Apply fourth-order commutator-free Magnus (CF4) steps of at most dt
    over [t0, t0 + span] to u, the step stacks in the workspace `work`.

    Returns u and, at the offset `within` (in [0, span]) when one is given,
    u after the whole steps before it and one CF4 step over the rest.
    """
    n_steps = max(1, math.ceil(span / dt - 1e-9))
    h = span / n_steps
    k = None if within is None else int(min(within // h, n_steps))
    kept = u
    for first in range(0, n_steps, STEP_CHUNK):
        last = min(n_steps, first + STEP_CHUNK)
        starts = t0 + np.arange(first, last) * h
        hams = _cf4_generators(frame, active, starts, h, work[0])
        factors = _step_exponentials(hams, h / 2.0, work)
        cuts = [k - first] if k is not None and first < k < last else []
        for a, b in zip([0, *cuts], [*cuts, last - first]):
            u = _ordered_product(factors[2 * a:2 * b]) @ u
            if first + b == k:
                kept = u
    if k is None:
        return u, None
    delta = within - k * h
    generators = _cf4_generators(frame, active, [t0 + k * h], delta, work[0])
    # exp(-2 pi i (delta/2) G) for both factors of the rest step
    generators *= delta
    factors = _step_exponentials(generators, 0.5, work)
    return u, factors[1] @ factors[0] @ kept


def _evolve(frame: OperatingFrame, drive_terms, events, duration: float,
            dt: float) -> np.ndarray:
    """Propagate the frame Hamiltonian through drive terms and events.

    `events` are (time, unitary) insertions applied between intervals in
    time order.  The intervals run between breakpoints: 0, `duration`,
    events and each term's start, end and flat-top edges (start + edge,
    end - edge).  Over each interval one of two rules applies:

    - periodic: every active term is flat (CW tones, flat-top middles) at
      one detuning, so the Hamiltonian repeats with period T = 1/|detuning|
      (Shirley, Phys. Rev. 138, B979 (1965)), or with T = dt when it is
      constant (no active term, or all at zero detuning).  Over at least
      two periods, one period is stepped once and the interval
      t_b - t_a = m T + r is U(t_a + r, t_a) U_T^m;
    - otherwise the interval takes steps of at most `dt`.

    Every step, a period's too, is one fourth-order commutator-free Magnus
    (CF4) step: two exponentials of Hamiltonian combinations at the
    Gauss-Legendre nodes, so the step error falls as dt^4.  The
    exponentials of STEP_CHUNK steps are taken as one stack by
    `_step_exponentials` (batched matmuls, no `eigh`) and multiplied in
    order by a pairwise product, all in one workspace per propagation.
    Returns U(duration).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    dim = frame.dim
    u = np.eye(dim, dtype=complex)
    work = np.empty((6, 2 * STEP_CHUNK, dim, dim), dtype=complex)

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
    while ev_pos < len(events) and events[ev_pos][0] <= 1e-12:
        u = events[ev_pos][1] @ u
        ev_pos += 1

    for t_a, t_b in zip(grid[:-1], grid[1:]):
        active = [term for term in drive_terms if term.active_in(t_a, t_b)]
        detunings = {term.detuning for term in active} or {0.0}
        period = math.inf
        if len(detunings) == 1 and all(term.flat_in(t_a, t_b) for term in active):
            detuning = detunings.pop()
            period = 1.0 / abs(detuning) if detuning else dt
        if t_b - t_a >= 2.0 * period:
            periods, rest = np.divmod(t_b - t_a, period)
            u_period, u_rest = _cf4_steps(frame, active, t_a, period, dt,
                                          np.eye(dim, dtype=complex), work, rest)
            u = u_rest @ (np.linalg.matrix_power(u_period, int(periods)) @ u)
        elif t_b - t_a > 1e-12:
            u, _ = _cf4_steps(frame, active, t_a, t_b - t_a, dt, u, work)
        while ev_pos < len(events) and events[ev_pos][0] <= t_b + 1e-12:
            u = events[ev_pos][1] @ u
            ev_pos += 1

    defect = np.linalg.norm(u.conj().T @ u - np.eye(dim))
    if defect > UNITARITY_TOL:
        raise StepSizeError(f"unitarity drift {defect:.2e} exceeds {UNITARITY_TOL}; "
                            "reduce dt")
    return u


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
    cw = system.drives
    if cw:
        return cw[0].frequency
    plays = [item for item in schedule.items if isinstance(item, Play)]
    if plays:
        return plays[0].carrier_frequency
    return 0.0


def propagate(system: SystemSpec, schedule: PulseSchedule, dt: float = DEFAULT_DT,
              q0: int = 0, q1: int = 1, frame: OperatingFrame | None = None) -> GateResult:
    """Propagate a schedule and extract the computational-block gate.

    CW cancellation tones in the system run for the full schedule duration.
    The returned unitary is expressed in the dressed-label basis of the
    operating frame, where an ideal idle is the identity; the 4x4
    computational block is ordered 00, 01, 10, 11 for the (q0, q1) pair.
    Fidelity is measured against the identity.
    """
    if frame is None:
        frame = OperatingFrame(system, default_frame_frequency(system, schedule))
    terms, events, duration = _schedule_drive_terms(frame, schedule)
    u_frame = _evolve(frame, terms, events, duration, dt)
    u_op = frame.to_operating(u_frame, duration)
    return score_unitary(frame, u_op, schedule, q0, q1)


def score_unitary(frame: OperatingFrame, u_op: np.ndarray, schedule: PulseSchedule,
                  q0: int, q1: int, target: np.ndarray | None = None) -> GateResult:
    """`schedule`'s gate from its operating-frame unitary, scored on the (q0, q1) block."""
    comp = frame.computational_indices(q0, q1)
    block = u_op[np.ix_(comp, comp)]
    target = np.eye(4, dtype=complex) if target is None else target
    return GateResult(full_unitary=u_op, computational_block=block,
                      leakage=block_leakage(block), fidelity=gate_fidelity(block, target),
                      duration=schedule.timed_items(frame.system.num_transmons)[2],
                      schedule=schedule)


# ---------------------------------------------------------------------------
# Rotation reads and Pauli-rate extraction (Hamiltonian tomography analog)

def rotation_vector(block: np.ndarray) -> np.ndarray:
    """Rotation vector (radians, Bloch x/y/z) of a 2x2 block, angle in [0, pi].

    The block's polar part W, its nearest unitary (leakage only shrinks the
    block), is divided by sqrt(det W) into SU(2), where
    W = cos(a/2) I - i sin(a/2) n.sigma, and signed so cos(a/2) >= 0; the
    rotation vector is a n.
    """
    u, _, vh = np.linalg.svd(block)
    w = u @ vh
    w = w / np.sqrt(np.linalg.det(w))
    cos_half = 0.5 * (w[0, 0] + w[1, 1]).real
    sin_axis = 0.5 * np.array([-(w[0, 1] + w[1, 0]).imag, (w[1, 0] - w[0, 1]).real,
                               (w[1, 1] - w[0, 0]).imag])
    if cos_half < 0.0:
        cos_half, sin_axis = -cos_half, -sin_axis
    sin_half = float(np.linalg.norm(sin_axis))
    if sin_half == 0.0:
        return np.zeros(3)
    return 2.0 * math.atan2(sin_half, cos_half) / sin_half * sin_axis


def target_blocks(frame: OperatingFrame, u_op: np.ndarray, control: int,
                  target: int) -> list[np.ndarray]:
    """The 2x2 target blocks of an operating-frame unitary with the control
    in 0 and in 1."""
    comp = frame.computational_indices(control, target)
    return [u_op[np.ix_(pair, pair)] for pair in (comp[:2], comp[2:])]


def conditional_rotations(frame: OperatingFrame, u_op: np.ndarray, control: int,
                          target: int) -> list[np.ndarray]:
    """`rotation_vector` of each of the `target_blocks`."""
    return [rotation_vector(block) for block in target_blocks(frame, u_op, control, target)]


#: Read time (ns) of a tone at the frame frequency, whose Hamiltonian is
#: constant and so has no period of its own.
STATIC_READ_TIME = 10.0
#: Longest period (ns) a read may step (4000 steps at DEFAULT_DT): the
#: cost of a read grows as 1/|detuning|.
MAX_READ_PERIOD = 1000.0
#: Largest angle (rad) a rate read may turn through: nearer a half turn the
#: logarithm's branch, and so the sign of the rates, is ambiguous.
MAX_READ_ANGLE = 0.9 * math.pi


def period_propagator(frame: OperatingFrame, tones, dt: float = DEFAULT_DT):
    """Simulation-frame propagator U_T over one period of constant tones, and T.

    `tones` are (target, amplitude, frequency, phase) tuples, the amplitude
    signed, all at one frequency: their Hamiltonian repeats with period
    T = 1/|detuning| from the frame frequency (Shirley, Phys. Rev. 138, B979
    (1965)), or is constant at zero detuning, where T is STATIC_READ_TIME.
    Raises ValueError for tones at more than one frequency and
    TomographyFitError, before any step, for T past MAX_READ_PERIOD.
    """
    terms = [_DriveTerm(target=target, start=0.0, envelope=None, amplitude=amplitude,
                        detuning=frequency - frame.frame_frequency, phase=phase)
             for target, amplitude, frequency, phase in tones]
    detunings = {term.detuning for term in terms} or {0.0}
    if len(detunings) > 1:
        raise ValueError(f"tones at {len(detunings)} frequencies have no common period")
    detuning = detunings.pop()
    period = 1.0 / abs(detuning) if detuning else STATIC_READ_TIME
    if period > MAX_READ_PERIOD:
        raise TomographyFitError(
            f"a tone {detuning:.3g} GHz from the {frame.frame_frequency:.6g} GHz frame "
            f"repeats every {period:.4g} ns, past the {MAX_READ_PERIOD:g} ns read bound")
    return _evolve(frame, terms, [], period, dt), period


def extract_pauli_rates(system: SystemSpec, cr_amplitude: float, cr_frequency: float,
                        control: int, target: int, dt: float = DEFAULT_DT,
                        frame: OperatingFrame | None = None) -> dict[str, float]:
    """Conditional target rotation rates under a constant entangling tone.

    The operating-frame propagator over one period T of the tone
    (`period_propagator`) is read once per control state, ground and
    excited: the `rotation_vector` of its target block over 2 pi T is that
    state's rotation rate (Magesan & Gambetta, Phys. Rev. A 101, 052308
    (2020)).  Returns IX, IY, IZ, ZX, ZY and ZZ in the conditional-Rabi
    convention of standard cross-resonance tomography,
    H = (1/2) sum_P nu_P P; in this convention the tomographic ZZ equals
    half the level-spacing (Ramsey) value used by the spectrum module.
    Raises TomographyFitError when T is past MAX_READ_PERIOD or a read turns
    through more than MAX_READ_ANGLE.
    """
    if frame is None:
        cw = system.drives
        frame = OperatingFrame(system, cw[0].frequency if cw else cr_frequency)
    u_frame, period = period_propagator(
        frame, [(control, cr_amplitude, cr_frequency, 0.0)], dt)
    u_op = frame.to_operating(u_frame, period)

    reads = conditional_rotations(frame, u_op, control, target)
    for state, vector in enumerate(reads):
        angle = float(np.linalg.norm(vector))
        if angle > MAX_READ_ANGLE:
            raise TomographyFitError(
                f"control state {state}: the target turns {angle:.3g} rad in one "
                f"{period:.3g} ns read, past {MAX_READ_ANGLE:.3g} rad, where the "
                "rotation's branch is ambiguous")
    p0, p1 = (vector / (TWO_PI * period) for vector in reads)
    rates: dict[str, float] = {}
    for k, axis in enumerate("XYZ"):
        rates[f"I{axis}"] = float(0.5 * (p0[k] + p1[k]))
        rates[f"Z{axis}"] = float(0.5 * (p0[k] - p1[k]))
    return rates
