"""Dressed-spectrum analysis: labels, ZZ/ZI/IZ rates, and effective couplings.

Eigenstates of a dressed Hamiltonian are tagged with the bare occupation
tuple they maximally overlap, so that the conditional-frequency combinations
can be evaluated on numerical spectra.  All rates are linear frequencies in
GHz.  Sign conventions for the single-qubit terms follow the standard Pauli
decomposition H = zi * ZI/4 + iz * IZ/4 + zz * ZZ/4 with Z|0> = +|0>, which
makes `iz` roughly -2x the dressed frequency of qubit 1 in the lab frame.
"""

from __future__ import annotations

import concurrent.futures
import math
import threading
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg
import scipy.optimize
import scipy.sparse

from .errors import (ConfigError, MissingLabelError, NonPerturbativeRegimeError,
                     SolverFailureError)
# build_rwa_hamiltonian stays importable from here: perfbench's tracer test reads it.
from .operators import (DriveTone, SystemSpec, bare_index, basis_label,
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
    if len(np.unique(greedy)) == weights.shape[1]:
        return np.argsort(greedy)
    _, cols = scipy.optimize.linear_sum_assignment(weights, maximize=True)
    return cols


def labeled_spectrum(h, dims, frame_frequency: float = 0.0) -> LabeledSpectrum:
    """Labeled spectrum of a Hermitian matrix, dense or sparse.

    Up to DENSE_LIMIT states this is one dense decomposition with
    bijective bare-state labels; above it the spectrum keeps `h` sparse
    and solves each label on first use (`targeted_label_energies`).  Each
    label's overlap is kept; one below AMBIGUOUS_OVERLAP is not fatal
    (`PairRates.ambiguous` reports it for the computational labels).
    """
    dims = tuple(int(d) for d in dims)
    dim = h.shape[0]
    if math.prod(dims) != dim:
        raise ValueError(f"dims {dims} inconsistent with matrix dimension {dim}")
    if not is_hermitian(h, tol=1e-10):
        raise ValueError("labeled_spectrum requires a Hermitian matrix")
    if dim > DENSE_LIMIT:
        unsolved = np.full(dim, np.nan)
        return LabeledSpectrum(energies=unsolved, overlaps=unsolved.copy(),
                               frame_frequency=frame_frequency, dims=dims,
                               sparse=scipy.sparse.csr_matrix(h))
    vals, vecs = scipy.linalg.eigh(h.toarray() if scipy.sparse.issparse(h) else h)
    order = assign_labels(vecs)
    return LabeledSpectrum(energies=vals[order],
                           overlaps=np.abs(vecs[np.arange(dim), order]) ** 2,
                           frame_frequency=frame_frequency, dims=dims)


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

    if workers and workers > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(point, values))
    return [point(v) for v in values]


# ---------------------------------------------------------------------------
# effective exchange strength

def effective_j(system: SystemSpec, probe: tuple[DriveTone, DriveTone],
                target_induced: float = 50e-6, num_points: int = 5,
                max_residual: float = 0.01) -> float:
    """Fit the low-amplitude drive-induced ZZ response to extract J.

    The system (2 logical transmons, bus modes allowed, no drives) is probed
    with the given pair of tones at several small amplitude scales and at
    phase differences 0 and pi.  The odd-in-cos(phi) part of the response is
    fit to the second-order product form, with the exchange strength as the
    single free parameter.  Amplitudes are chosen so the predicted induced
    part stays below `target_induced` (GHz), keeping the fit quadratic; a
    relative fit residual above `max_residual` raises
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
    omega_sq = abs(target_induced / (j_guess * k_unit))
    scale = math.sqrt(omega_sq / max(tone0.amplitude * tone1.amplitude, 1e-30))

    relative_residual = math.inf
    for _ in range(5):
        scales = np.linspace(0.4, 1.0, num_points) * scale
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
        if relative_residual <= max_residual:
            return float(coef[1] / k_unit)
        scale *= 0.5  # shrink toward the quadratic regime and retry

    raise NonPerturbativeRegimeError(
        f"quadratic fit residual {relative_residual:.3g} exceeds {max_residual} "
        "even at the smallest probe amplitudes")


def targeted_label_energies(h_sparse, dims, labels) -> dict[tuple, tuple[float, float]]:
    """{label: (energy, overlap)}, one Davidson solve per label.

    Start at the bare unit vector, keep the Ritz pair of largest bare overlap, grow
    by r / (diag H - theta) orthogonalised twice (Davidson 1975; Morgan & Scott 1986)."""
    h = scipy.sparse.csr_matrix(h_sparse)
    dim = h.shape[0]
    diag = h.diagonal().real
    out = {}
    for label in map(tuple, labels):
        idx = bare_index(label, dims)
        basis = np.zeros((dim, DAVIDSON_MAX_BASIS), h.dtype)
        image = np.zeros((dim, DAVIDSON_MAX_BASIS), h.dtype)  # h @ basis
        projected = np.zeros((DAVIDSON_MAX_BASIS,) * 2, h.dtype)  # upper half: basis^H image
        t = np.eye(1, dim, idx, dtype=h.dtype)[0]
        m = 0
        for _ in range(DAVIDSON_MAX_ITERATIONS):
            for _ in range(2):
                t -= basis[:, :m] @ (basis[:, :m].conj().T @ t)
            basis[:, m] = t / np.linalg.norm(t)
            image[:, m] = h @ basis[:, m]
            projected[:m + 1, m] = basis[:, :m + 1].conj().T @ image[:, m]
            m += 1
            thetas, coeffs = np.linalg.eigh(projected[:m, :m], UPLO="U")
            k = np.argmax(np.abs(basis[idx, :m] @ coeffs))
            theta = thetas[k]
            ritz = basis[:, :m] @ coeffs[:, k]
            h_ritz = image[:, :m] @ coeffs[:, k]
            if np.linalg.norm(h_ritz - theta * ritz) < DAVIDSON_TOLERANCE:
                break
            if m == DAVIDSON_MAX_BASIS:  # restart from the Ritz vector
                basis[:, 0] = ritz
                image[:, 0] = h_ritz
                projected[0, 0] = theta
                m = 1
            shifted = diag - theta
            shifted[np.abs(shifted) < DAVIDSON_SHIFT_FLOOR] = DAVIDSON_SHIFT_FLOOR
            t = (h_ritz - theta * ritz) / shifted
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

    x0 = np.concatenate([nu_meas, alpha_meas])
    sol = scipy.optimize.root(residual, x0, method="hybr", tol=1e-12)
    if not sol.success:
        # one line: scipy wraps some messages, and CSV error cells hold one line
        raise SolverFailureError(f"bare-parameter fit failed: {' '.join(sol.message.split())}")
    nus, alphas = sol.x[:n], sol.x[n:]
    return replace(system, transmons=tuple(
        replace(t, frequency=float(nu), anharmonicity=float(al))
        for t, nu, al in zip(system.transmons, nus, alphas)))
