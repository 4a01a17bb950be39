"""Dressed-spectrum analysis: labels, ZZ/ZI/IZ rates, and effective couplings.

Eigenstates of a dressed Hamiltonian are tagged with the bare occupation
tuple they maximally overlap, so that the conditional-frequency combinations
can be evaluated on numerical spectra.  All rates are linear frequencies in
GHz.  Sign conventions for the single-qubit terms follow the standard Pauli
decomposition H = zi * ZI/4 + iz * IZ/4 + zz * ZZ/4 with Z|0> = +|0>, which
makes `iz` roughly -2x the dressed frequency of qubit 1 in the lab frame.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (ConfigError, MissingLabelError, NonPerturbativeRegimeError,
                     SolverFailureError)
# build_rwa_hamiltonian stays importable from here: perfbench's tracer test reads it.
from .operators import (Csr, DriveTone, SystemSpec, bare_index, basis_label,
                        build_rwa_hamiltonian, build_rwa_hamiltonian_sparse,  # noqa: F401
                        build_static_hamiltonian, build_static_hamiltonian_sparse,
                        computational_labels, direct_coupling, index_to_label,
                        is_hermitian)
from .perturbation import SEED_J_FLOOR, PerturbativeInputs, sizzle_zz_induced

#: Below this overlap a label assignment is ambiguous (`PairRates.ambiguous`).
AMBIGUOUS_OVERLAP = 0.5
#: Largest Hilbert dimension that `labeled_spectrum` decomposes densely;
#: above it each requested label gets its own Davidson solve.
DENSE_LIMIT = 1024
DAVIDSON_TOLERANCE = 1e-10  # residual norm (GHz) at which a label solve has converged
DAVIDSON_MAX_BASIS = 80  # basis size at which a solve restarts from its Ritz vector
DAVIDSON_MAX_ITERATIONS = 500  # steps before a solve raises SolverFailureError
DAVIDSON_SHIFT_FLOOR = 1e-8  # least |diag H - theta| (GHz) in the preconditioner
REAL_TOLERANCE = 1e-14  # largest |Im H| (GHz) a sparse spectrum drops to solve in real arithmetic
BARE_FIT_TOLERANCE = 1e-12  # largest |dressed - measured| (GHz) a bare fit may leave
BARE_FIT_STEP = 1e-6  # forward-difference step (GHz) of the bare fit's one Jacobian
BARE_FIT_MAX_ITERATIONS = 20  # chord-Newton steps before a bare fit raises SolverFailureError
BARE_FIT_CONTRACTION = 0.1  # largest residual ratio per step that keeps the bare fit's Jacobian
EFFECTIVE_J_INDUCED = 50e-6  # largest predicted drive-induced ZZ (GHz) an effective_j probe makes
EFFECTIVE_J_POINTS = 5  # amplitude scales per effective_j fit
EFFECTIVE_J_MAX_RESIDUAL = 0.01  # largest relative residual an effective_j fit may end at


@dataclass(frozen=True)
class LabeledSpectrum:
    """Eigenvalues of a dressed Hamiltonian tagged with bare-state labels.

    Slot k of `energies` and `overlaps` belongs to bare label k
    (`labels[k]`).  A dense spectrum fills every slot from one bijective
    assignment; a sparse one keeps its Hamiltonian in `sparse` and solves a
    NaN slot the first time its label is read.  `frame_frequency` records
    the rotating frame of the source Hamiltonian (0 for the lab frame) so
    energies can be compared across frames through `lab_energy`.
    """

    energies: np.ndarray
    overlaps: np.ndarray
    frame_frequency: float
    dims: tuple[int, ...]
    sparse: scipy.sparse.csr_matrix | None = None
    # sweep threads share a reference spectrum; a slot is solved under the lock
    _solving: threading.Lock = field(default_factory=threading.Lock, repr=False,
                                     compare=False)

    @property
    def labels(self) -> tuple[tuple[int, ...], ...]:
        return tuple(index_to_label(k, self.dims) for k in range(len(self.energies)))

    def _index(self, label) -> int:
        try:
            k = bare_index(label, self.dims)
        except ValueError:
            raise MissingLabelError(f"label {tuple(label)} not present in spectrum") from None
        if self.sparse is not None:
            with self._solving:
                if math.isnan(self.energies[k]):
                    key = index_to_label(k, self.dims)
                    self.energies[k], self.overlaps[k] = targeted_label_energies(
                        self.sparse, self.dims, [key])[key]
        return k

    def energy(self, label) -> float:
        """Frame energy of the eigenstate assigned to `label`."""
        return float(self.energies[self._index(label)])

    def lab_energy(self, label) -> float:
        """Energy with the per-excitation frame offset restored."""
        return self.energy(label) + self.frame_frequency * sum(label)

    def overlap(self, label) -> float:
        return float(self.overlaps[self._index(label)])


def assign_labels(vecs: np.ndarray) -> np.ndarray:
    """Match eigenvectors to bare basis states, bijectively.

    Greedy per-eigenvector argmax is used when it already yields a
    bijection; otherwise the global maximum-weight matching is solved so
    that labels remain well defined near avoided crossings.
    Returns the column order: `vecs[:, order]` has bare state b's
    eigenvector in column b.
    """
    weights = np.abs(vecs) ** 2  # weights[b, k] = |<bare b|eig k>|^2
    greedy = np.argmax(weights, axis=0)
    order = np.argsort(greedy)
    # A bijection sorts to 0..n-1 (tested without np.unique, which loads numpy.ma).
    if np.array_equal(greedy[order], np.arange(len(greedy))):
        return order
    import scipy.optimize  # off start-up: a greedy bijection is already the matching
    _, cols = scipy.optimize.linear_sum_assignment(weights, maximize=True)
    return cols


def labeled_spectrum(h, dims, frame_frequency: float = 0.0) -> LabeledSpectrum:
    """Labeled spectrum of a Hermitian matrix: a numpy array, a `Csr` or a scipy.sparse matrix.

    Up to DENSE_LIMIT states this is one dense decomposition with
    bijective bare-state labels; above it the spectrum keeps `h` sparse
    and solves each label on first use (`targeted_label_energies`).  A
    sparse `h` whose imaginary entries are all within REAL_TOLERANCE (the
    0/pi tones of a chain, an undriven system) is kept as its real part,
    so its labels are solved in real arithmetic: the dropped part is
    antisymmetric and moves the energies only at second order.  Each
    label's overlap is kept; one below AMBIGUOUS_OVERLAP is not fatal
    (`PairRates.ambiguous` reports it for the computational labels).
    The Hermiticity test (relative Frobenius, 1e-10) runs on the matrix
    that is decomposed: a sparse `h` up to DENSE_LIMIT states is densified
    first, and above it the test runs on the sparse matrix.
    """
    dims = tuple(int(d) for d in dims)
    dim = h.shape[0]
    if math.prod(dims) != dim:
        raise ValueError(f"dims {dims} inconsistent with matrix dimension {dim}")
    if dim > DENSE_LIMIT:
        h = _scipy_csr(h)
    elif not isinstance(h, np.ndarray):
        h = h.toarray()
    if not is_hermitian(h, tol=1e-10):
        raise ValueError("labeled_spectrum requires a Hermitian matrix")
    if dim > DENSE_LIMIT:
        if np.abs(h.data.imag).max(initial=0.0) <= REAL_TOLERANCE:
            h = h.real
        unsolved = np.full(dim, np.nan)
        return LabeledSpectrum(energies=unsolved, overlaps=unsolved.copy(),
                               frame_frequency=frame_frequency, dims=dims, sparse=h)
    vals, vecs = np.linalg.eigh(h)
    order = assign_labels(vecs)
    return LabeledSpectrum(energies=vals[order],
                           overlaps=np.abs(vecs[np.arange(dim), order]) ** 2,
                           frame_frequency=frame_frequency, dims=dims)


def _scipy_csr(h):
    """`h` as a scipy CSR matrix, for the sparse branch above DENSE_LIMIT.

    The package's one scipy.sparse import: that branch keeps scipy's CSR
    matvec, and every spectrum at or below DENSE_LIMIT loads no scipy.
    """
    import scipy.sparse
    if isinstance(h, Csr):
        return scipy.sparse.csr_matrix((h.data, h.indices, h.indptr), h.shape)
    return scipy.sparse.csr_matrix(h)


def rwa_spectrum(system: SystemSpec, frame_frequency: float) -> LabeledSpectrum:
    """Labeled spectrum of the system's RWA Hamiltonian in one frame."""
    return labeled_spectrum(build_rwa_hamiltonian_sparse(system, frame_frequency),
                            system.dims, frame_frequency=frame_frequency)


@dataclass(frozen=True)
class PairRates:
    """Conditional-frequency rates for one qubit pair, in GHz.

    `zz` is the difference of qubit-0 frequencies with qubit 1 excited
    versus in the ground state; `zi`/`iz` are the matching single-qubit
    coefficients of the two-qubit Pauli decomposition.  Stark shifts are
    dressed-frequency excursions relative to the reference (undriven)
    spectrum, 0.0 when no reference was supplied.  `min_overlap` is the
    smallest bare-state overlap of the four computational labels.
    """

    zz: float
    zi: float
    iz: float
    stark_shift_q0: float = 0.0
    stark_shift_q1: float = 0.0
    min_overlap: float = 1.0

    @property
    def ambiguous(self) -> bool:
        """True when a computational label's overlap is below AMBIGUOUS_OVERLAP."""
        return self.min_overlap < AMBIGUOUS_OVERLAP


def stark_shift(spec: LabeledSpectrum, reference: LabeledSpectrum, qubit: int) -> float:
    """Dressed 0-1 frequency of `qubit` (other modes empty) in `spec` minus that
    in `reference`; lab energies are compared, so the frames may differ."""
    n_modes = len(spec.dims)
    ground, excited = basis_label(n_modes), basis_label(n_modes, {qubit: 1})
    return ((spec.lab_energy(excited) - spec.lab_energy(ground))
            - (reference.lab_energy(excited) - reference.lab_energy(ground)))


def pair_rates(spec: LabeledSpectrum, q0: int = 0, q1: int = 1,
               reference: LabeledSpectrum | None = None) -> PairRates:
    """Extract zz, zi, iz (and Stark shifts) for the (q0, q1) pair.

    Energies are compared after restoring each label's frame offset, so
    spectra taken in different rotating frames combine consistently.
    """
    labels = computational_labels(len(spec.dims), q0, q1)
    e00, e01, e10, e11 = (spec.lab_energy(label) for label in labels)

    zz = (e11 - e10) - (e01 - e00)
    iz = (e00 + e10) - (e01 + e11)
    zi = (e00 + e01) - (e10 + e11)

    shift0 = shift1 = 0.0
    if reference is not None:
        shift0 = stark_shift(spec, reference, q0)
        shift1 = stark_shift(spec, reference, q1)
    return PairRates(zz=zz, zi=zi, iz=iz, stark_shift_q0=shift0, stark_shift_q1=shift1,
                     min_overlap=min(spec.overlap(l) for l in labels))


# ---------------------------------------------------------------------------
# parameter sweeps

#: Sweep axes that edit a system's drives together; every other sweep axis
#: is a config path.
DRIVE_AXES = ("drives.scale", "drives.frequency", "drives.phase_difference")


def apply_drive_axis(system: SystemSpec, axis: str, value: float) -> SystemSpec:
    """The system with one of the DRIVE_AXES set to `value`.

    `drives.scale` multiplies every amplitude, `drives.frequency` sets every
    frequency and `drives.phase_difference` sets the first drive's phase to
    the second's plus `value`.  A negative amplitude and a phase difference
    with fewer than two drives raise ConfigError.
    """
    drives = list(system.drives)
    if axis == "drives.scale":
        try:
            drives = [replace(d, amplitude=d.amplitude * value) for d in drives]
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    elif axis == "drives.frequency":
        drives = [replace(d, frequency=value) for d in drives]
    elif axis == "drives.phase_difference":
        if len(drives) < 2:
            raise ConfigError("phase_difference axis needs two drives", axis)
        drives[0] = replace(drives[0], phase=drives[1].phase + value)
    else:
        raise ValueError(f"unknown drive axis {axis!r}; expected one of {DRIVE_AXES}")
    return system.with_drives(drives)


def driven_pair_rates(system: SystemSpec, q0: int = 0, q1: int = 1,
                      reference: LabeledSpectrum | None = None) -> PairRates:
    """Rates of the driven system from the single-frame RWA Hamiltonian."""
    frame = system.drives[0].frequency if system.drives else 0.0
    return pair_rates(rwa_spectrum(system, frame), q0, q1, reference=reference)


def undriven_reference(system: SystemSpec) -> LabeledSpectrum:
    """Labeled undriven spectrum used as the Stark-shift reference.

    Built from the exchange (RWA) form of the couplings so that driven and
    undriven spectra share the same approximation; for bus systems the
    counter-rotating coupling terms shift dressed frequencies by ~MHz,
    which would otherwise contaminate the drive-induced excursions.
    """
    return rwa_spectrum(system.without_drives(), 0.0)


def static_spectrum(system: SystemSpec) -> LabeledSpectrum:
    """Labeled spectrum of the full lab-frame Hamiltonian (drives ignored)."""
    bare = system.without_drives()
    return labeled_spectrum(build_static_hamiltonian(bare), bare.dims, frame_frequency=0.0)


def zz_vs_parameter(system: SystemSpec, axis: str, values, q0: int = 0, q1: int = 1,
                    workers: int | None = None) -> list[tuple[float, PairRates]]:
    """Ordered samples of pair_rates along one of the DRIVE_AXES.

    Points are independent; with `workers` they are evaluated in a thread
    pool (eigh releases the GIL) and returned in input order regardless of
    completion order.
    """
    reference = undriven_reference(system)
    values = [float(v) for v in values]

    def point(value: float) -> tuple[float, PairRates]:
        modified = apply_drive_axis(system, axis, value)
        return value, driven_pair_rates(modified, q0, q1, reference=reference)

    return map_points(point, values, workers)


def map_points(evaluate, points, workers: int | None) -> list:
    """`[evaluate(p) for p in points]`, in a thread pool when `workers` > 1.

    Results keep the input order whatever the completion order.
    `concurrent.futures` is imported only here, when a pool is asked for.
    """
    if workers and workers > 1:
        import concurrent.futures
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(evaluate, points))
    return [evaluate(p) for p in points]


# ---------------------------------------------------------------------------
# effective exchange strength

def effective_j(system: SystemSpec, probe: tuple[DriveTone, DriveTone]) -> float:
    """Fit the low-amplitude drive-induced ZZ response to extract J.

    The system (2 logical transmons, bus modes allowed, no drives) is probed
    with the given pair of tones at several small amplitude scales and at
    phase differences 0 and pi.  The odd-in-cos(phi) part of the response is
    fit to the second-order product form, with the exchange strength as the
    single free parameter.  Amplitudes are chosen so the predicted induced
    part stays below `EFFECTIVE_J_INDUCED`, keeping the fit quadratic; a
    relative fit residual above `EFFECTIVE_J_MAX_RESIDUAL` raises
    NonPerturbativeRegimeError.
    """
    if system.num_transmons != 2:
        raise ValueError("effective_j requires exactly 2 logical transmons")
    base = system.without_drives()
    tone0, tone1 = probe
    nu_d = tone0.frequency
    if tone1.frequency != nu_d:
        raise ValueError("probe tones must share one frequency")

    # Amplitude scale from the perturbative form, using a direct-J guess;
    # k_unit is the induced ZZ per unit J * Omega0 * Omega1 * cos(phi).
    inputs = PerturbativeInputs.for_pair(base, 0, 1)
    j_guess = inputs.j or SEED_J_FLOOR
    k_unit = sizzle_zz_induced(replace(inputs, j=1.0, omega0=1.0, omega1=1.0, nu_d=nu_d))
    omega_sq = abs(EFFECTIVE_J_INDUCED / (j_guess * k_unit))
    scale = math.sqrt(omega_sq / max(tone0.amplitude * tone1.amplitude, 1e-30))

    relative_residual = math.inf
    for _ in range(5):
        scales = np.linspace(0.4, 1.0, EFFECTIVE_J_POINTS) * scale
        xs, evens, ys = [], [], []
        for s in scales:
            for phi, sign in ((0.0, 1.0), (math.pi, -1.0)):
                drives = (replace(tone0, amplitude=tone0.amplitude * s, phase=phi),
                          replace(tone1, amplitude=tone1.amplitude * s, phase=0.0))
                rates = driven_pair_rates(base.with_drives(drives))
                xs.append(sign * (s * tone0.amplitude) * (s * tone1.amplitude))
                evens.append((s * tone0.amplitude) * (s * tone1.amplitude))
                ys.append(rates.zz)
        xs = np.asarray(xs)
        ys = np.asarray(ys)

        # zz = static + K * Omega0*Omega1*cos(phi), plus a phase-even
        # quadratic nuisance term for the drive-induced static correction.
        a = np.stack([np.ones_like(xs), xs, np.asarray(evens)], axis=1)
        coef, *_ = np.linalg.lstsq(a, ys, rcond=None)
        fit_resid = np.linalg.norm(ys - a @ coef)
        spread = np.linalg.norm(ys - ys.mean())
        relative_residual = fit_resid / spread if spread > 0 else 0.0
        if relative_residual <= EFFECTIVE_J_MAX_RESIDUAL:
            return float(coef[1] / k_unit)
        scale *= 0.5  # shrink toward the quadratic regime and retry

    raise NonPerturbativeRegimeError(
        f"quadratic fit residual {relative_residual:.3g} exceeds {EFFECTIVE_J_MAX_RESIDUAL} "
        "even at the smallest probe amplitudes")


def targeted_label_energies(h_sparse, dims, labels) -> dict[tuple, tuple[float, float]]:
    """{label: (energy, overlap)}, one Davidson solve per label.

    Start at the bare unit vector, keep the Ritz pair of largest bare overlap, grow
    by r / (diag H - theta) orthogonalised twice (Davidson 1975; Morgan & Scott 1986).
    The solve works in the matrix's dtype, so a real H is solved in real arithmetic."""
    h = _scipy_csr(h_sparse)
    dim = h.shape[0]
    diag = h.diagonal().real
    out = {}
    for label in map(tuple, labels):
        idx = bare_index(label, dims)
        # row j of basis is the j-th basis vector: every product reads contiguous rows
        basis = np.zeros((DAVIDSON_MAX_BASIS, dim), h.dtype)
        image = np.zeros((DAVIDSON_MAX_BASIS, dim), h.dtype)  # image[j] = h @ basis[j]
        projected = np.zeros((DAVIDSON_MAX_BASIS,) * 2, h.dtype)  # upper half: basis^H image
        t = np.eye(1, dim, idx, dtype=h.dtype)[0]
        m = 0
        for _ in range(DAVIDSON_MAX_ITERATIONS):
            for _ in range(2):  # conjugate the small products, not the basis
                t -= (basis[:m] @ t.conj()).conj() @ basis[:m]
            basis[m] = t / np.linalg.norm(t)
            image[m] = h @ basis[m]
            projected[:m + 1, m] = (basis[:m + 1] @ image[m].conj()).conj()
            m += 1
            thetas, coeffs = np.linalg.eigh(projected[:m, :m], UPLO="U")
            k = np.argmax(np.abs(basis[:m, idx] @ coeffs))
            theta = thetas[k]
            ritz = coeffs[:, k] @ basis[:m]
            h_ritz = coeffs[:, k] @ image[:m]
            residual = h_ritz - theta * ritz
            if np.linalg.norm(residual) < DAVIDSON_TOLERANCE:
                break
            if m == DAVIDSON_MAX_BASIS:  # restart from the Ritz vector
                basis[0] = ritz
                image[0] = h_ritz
                projected[0, 0] = theta
                m = 1
            shifted = diag - theta
            shifted[np.abs(shifted) < DAVIDSON_SHIFT_FLOOR] = DAVIDSON_SHIFT_FLOOR
            t = residual / shifted
        else:
            raise SolverFailureError(f"Davidson solve for label {label} did not converge")
        out[label] = (float(theta), float(abs(ritz[idx]) ** 2))
    return out


def single_path_equivalent(system: SystemSpec, j_eff: float) -> SystemSpec:
    """Same transmons with all couplings replaced by one direct J."""
    if system.num_transmons != 2:
        raise ValueError("single_path_equivalent requires 2 transmons")
    return replace(system, couplings=(direct_coupling(0, 1, j_eff),))


# ---------------------------------------------------------------------------
# bare-parameter fitting

def fit_bare_transmons(system: SystemSpec, measured_frequencies,
                       measured_anharmonicities) -> SystemSpec:
    """Invert the coupling dressing of measured transmon parameters.

    Measured device tables report frequencies and anharmonicities already
    dressed by the fixed couplings; feeding those into the bare Hamiltonian
    would double-count the dressing.  This solves for bare parameters such
    that the labeled dressed 0-1 frequencies and anharmonicities of the
    assembled system match the measured values.

    The dressing is a small shift, so the Jacobian stays close to the
    identity: one forward-difference Jacobian at the measured values (step
    BARE_FIT_STEP) steers the steps of a chord Newton iteration.  Near an
    avoided crossing the dressing is not small; a step whose residual ratio
    max|r_next| / max|r| exceeds BARE_FIT_CONTRACTION (less than a tenfold
    shrink) takes a new Jacobian where it landed.  The fit is judged by its residual: one still above
    BARE_FIT_TOLERANCE after BARE_FIT_MAX_ITERATIONS steps, or a singular,
    non-finite or non-physical step, raises SolverFailureError.  A fit
    that meets the tolerance with its chord still kept takes one more
    chord step from the residual it ended at.  That step costs no spectrum
    and is not judged; on device-a it cuts the error of the fitted
    parameters from 7.4e-14 to 1.4e-14 GHz (against a 40-digit solve).
    """
    n = system.num_transmons
    nu_meas = np.asarray(measured_frequencies, dtype=float)
    alpha_meas = np.asarray(measured_anharmonicities, dtype=float)
    if nu_meas.shape != (n,) or alpha_meas.shape != (n,):
        raise ValueError("one measured frequency and anharmonicity required per transmon")

    def dressed_observables(spec: LabeledSpectrum):
        n_modes = len(spec.dims)
        e0 = spec.lab_energy(basis_label(n_modes))
        nus, alphas = [], []
        for i in range(n):
            e1 = spec.lab_energy(basis_label(n_modes, {i: 1}))
            e2 = spec.lab_energy(basis_label(n_modes, {i: 2}))
            nus.append(e1 - e0)
            alphas.append(e2 - 2.0 * e1 + e0)
        return np.asarray(nus), np.asarray(alphas)

    def residual(params):
        nus = params[:n]
        alphas = params[n:]
        trial = replace(system, transmons=tuple(
            replace(t, frequency=nu, anharmonicity=al)
            for t, nu, al in zip(system.transmons, nus, alphas)))
        spec = labeled_spectrum(build_static_hamiltonian_sparse(trial.without_drives()),
                                trial.dims)
        nu_fit, alpha_fit = dressed_observables(spec)
        return np.concatenate([nu_fit - nu_meas, alpha_fit - alpha_meas])

    def unphysical(*points):
        """The first bare value among `points` that TransmonSpec refuses, or ''."""
        for p in points:
            for i in range(n):
                if not p[i] > 0:
                    return f"transmons.{i}.frequency = {p[i]:.6g} GHz"
                if p[n + i] == 0:
                    return f"transmons.{i}.anharmonicity = 0 GHz"
        return ""

    x = np.concatenate([nu_meas, alpha_meas])
    r = residual(x)
    jacobian, steps, stopped = None, 0, ""
    while np.max(np.abs(r)) > BARE_FIT_TOLERANCE and steps < BARE_FIT_MAX_ITERATIONS:
        if jacobian is None:
            probes = x + BARE_FIT_STEP * np.eye(2 * n)
            stopped = unphysical(*probes)
            if stopped:
                stopped = f"a Jacobian probe reaches {stopped}"
                break
            jacobian = np.column_stack([(residual(p) - r) / BARE_FIT_STEP for p in probes])
        try:
            step = np.linalg.solve(jacobian, r)
        except np.linalg.LinAlgError:
            stopped = "singular Jacobian"
            break
        if not np.all(np.isfinite(step)):
            stopped = "non-finite step"
            break
        stopped = unphysical(x - step)
        if stopped:
            stopped = f"the next step reaches {stopped}"
            break
        r_next = residual(x - step)
        if np.max(np.abs(r_next)) > BARE_FIT_CONTRACTION * np.max(np.abs(r)):
            jacobian = None  # the chord has stopped contracting: a new one where it landed
        x, r = x - step, r_next
        steps += 1
    worst = float(np.max(np.abs(r)))
    if not worst <= BARE_FIT_TOLERANCE:
        raise SolverFailureError(
            f"bare-parameter fit failed: residual {worst:.3g} GHz above "
            f"{BARE_FIT_TOLERANCE:g} GHz after {steps} chord-Newton steps"
            + (f" ({stopped})" if stopped else ""))
    if jacobian is not None:
        x = x - np.linalg.solve(jacobian, r)
    nus, alphas = x[:n], x[n:]
    return replace(system, transmons=tuple(
        replace(t, frequency=float(nu), anharmonicity=float(al))
        for t, nu, al in zip(system.transmons, nus, alphas)))
