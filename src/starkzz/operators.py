"""Truncated bosonic operators and Hamiltonian assembly for coupled transmons.

Conventions used throughout the package:

* Hamiltonian matrix entries are linear frequencies in GHz (h = 1).
* Times are in ns, so propagators are exp(-i 2 pi H t).
* Transmons are Duffing oscillators.  Bus resonators are harmonic modes
  appended after the transmons in the tensor-product ordering, in the order
  their couplings are declared.

For one tensor layout (`SystemSpec.dims`) the Hamiltonian's structure never
changes, only its coefficients: H = D + sum_k c_k O_k, with D diagonal.
Matrices are `Csr`s: scipy's compressed-row triplet (data, indices, indptr)
as plain numpy arrays, so assembly imports no scipy.  `mode_operators`
caches, per `dims`, each mode's embedded ladder operators and the
occupation-number grid.  Every builder evaluates D (Duffing and bus
energies) from the occupations and adds the coupling terms as coefficients
times products of the cached operators.  In the rotating frame only the
drive terms change from one sweep point to the next, so the sparsity
pattern is fixed per drive-free system and frame:
`undriven_rwa_hamiltonian` caches an `RwaLayout`, the union of the undriven
entries and every mode's ladder entries with the undriven values in it, and
a drive setting is one fill of that pattern's data.  The dressed-to-bare
parameter fit that measured devices need is memoised per undriven system in
`config.to_system`, so drive-only sweeps fit once.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionCapError, MultiFrequencyFrameError

TWO_PI = 2.0 * math.pi

#: Relative Frobenius tolerance below which a matrix counts as Hermitian.
HERMITICITY_TOL = 1e-12

DEFAULT_DIMENSION_CAP = 16384


class CouplingKind(enum.Enum):
    DIRECT = "direct"
    BUS = "bus"


@dataclass(frozen=True)
class TransmonSpec:
    """One anharmonic oscillator.

    Attributes:
        frequency: bare 0-1 transition frequency in GHz.
        anharmonicity: bare anharmonicity in GHz, negative for transmons.
        levels: truncation dimension, at least 2 (3+ whenever the
            anharmonicity matters downstream).
    """

    frequency: float
    anharmonicity: float
    levels: int = 5

    def __post_init__(self):
        if self.levels < 2:
            raise ValueError(f"levels must be >= 2, got {self.levels}")
        if not self.frequency > 0:
            raise ValueError(f"frequency must be positive, got {self.frequency}")
        if self.anharmonicity == 0:
            raise ValueError("anharmonicity must be nonzero")


@dataclass(frozen=True)
class CouplingSpec:
    """Exchange element between two transmons, direct or bus-mediated.

    Direct couplings carry only `strength` (the exchange J in GHz).  Bus
    couplings carry the bus mode frequency, the two qubit-bus couplings
    (one per endpoint, in endpoint order) and the bus truncation.
    """

    kind: CouplingKind
    endpoints: tuple[int, int]
    strength: float | None = None
    bus_frequency: float | None = None
    bus_couplings: tuple[float, float] | None = None
    bus_levels: int = 3

    def __post_init__(self):
        p, q = self.endpoints
        if p == q:
            raise ValueError(f"coupling endpoints must be distinct, got {self.endpoints}")
        object.__setattr__(self, "endpoints", (int(p), int(q)))
        if self.kind is CouplingKind.DIRECT:
            if self.strength is None:
                raise ValueError("direct coupling requires strength")
            if self.bus_frequency is not None or self.bus_couplings is not None:
                raise ValueError("direct coupling must not carry bus fields")
        else:
            if self.strength is not None:
                raise ValueError("bus coupling must not carry a direct strength")
            if self.bus_frequency is None or self.bus_couplings is None:
                raise ValueError("bus coupling requires bus_frequency and bus_couplings")
            if len(self.bus_couplings) != 2:
                raise ValueError("bus_couplings must give one value per endpoint")
            if self.bus_levels < 2:
                raise ValueError(f"bus_levels must be >= 2, got {self.bus_levels}")
            object.__setattr__(self, "bus_couplings", tuple(float(g) for g in self.bus_couplings))


def direct_coupling(p: int, q: int, strength: float) -> CouplingSpec:
    return CouplingSpec(CouplingKind.DIRECT, (p, q), strength=strength)


def bus_coupling(p: int, q: int, bus_frequency: float,
                 bus_couplings: tuple[float, float], bus_levels: int = 3) -> CouplingSpec:
    return CouplingSpec(CouplingKind.BUS, (p, q), bus_frequency=bus_frequency,
                        bus_couplings=bus_couplings, bus_levels=bus_levels)


@dataclass(frozen=True)
class DriveTone:
    """One always-on (CW) monochromatic drive on a transmon.

    The phase is stored normalized to [0, 2 pi).  A system's drives are
    its cancellation tones; gate pulses are `pulse.Play` items of a
    schedule.
    """

    target: int
    amplitude: float
    frequency: float
    phase: float = 0.0

    def __post_init__(self):
        if self.amplitude < 0:
            raise ValueError(f"amplitude must be >= 0, got {self.amplitude}")
        object.__setattr__(self, "phase", float(self.phase) % TWO_PI)


@dataclass(frozen=True)
class SystemSpec:
    """Full device: transmons, coupling graph, drive set.

    The tensor ordering is transmons first (as listed), then one harmonic
    mode per bus coupling in declaration order.
    """

    transmons: tuple[TransmonSpec, ...]
    couplings: tuple[CouplingSpec, ...] = ()
    drives: tuple[DriveTone, ...] = ()
    dimension_cap: int | None = DEFAULT_DIMENSION_CAP

    def __post_init__(self):
        object.__setattr__(self, "transmons", tuple(self.transmons))
        object.__setattr__(self, "couplings", tuple(self.couplings))
        object.__setattr__(self, "drives", tuple(self.drives))
        n = len(self.transmons)
        if n == 0:
            raise ValueError("at least one transmon required")
        seen: set[tuple] = set()
        for c in self.couplings:
            p, q = c.endpoints
            if not (0 <= p < n and 0 <= q < n):
                raise ValueError(f"coupling endpoints {c.endpoints} out of range")
            key = (c.kind, frozenset(c.endpoints))
            if key in seen:
                raise ValueError(f"duplicate {c.kind.value} coupling on pair {c.endpoints}")
            seen.add(key)
        for d in self.drives:
            if not (0 <= d.target < n):
                raise ValueError(f"drive target {d.target} out of range")
        if self.dimension_cap is not None and self.total_dimension > self.dimension_cap:
            raise DimensionCapError(
                f"total dimension {self.total_dimension} exceeds cap {self.dimension_cap}; "
                "pass dimension_cap=None (or a larger cap) to override")

    @property
    def bus_couplings_in_order(self) -> tuple[CouplingSpec, ...]:
        return tuple(c for c in self.couplings if c.kind is CouplingKind.BUS)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(t.levels for t in self.transmons) + tuple(
            c.bus_levels for c in self.bus_couplings_in_order)

    @property
    def total_dimension(self) -> int:
        return math.prod(self.dims)

    @property
    def num_transmons(self) -> int:
        return len(self.transmons)

    def without_drives(self) -> "SystemSpec":
        return replace(self, drives=())

    def with_drives(self, drives) -> "SystemSpec":
        return replace(self, drives=tuple(drives))

    def with_levels(self, levels: int) -> "SystemSpec":
        """Same system with every transmon truncated at `levels`."""
        return replace(self, transmons=tuple(replace(t, levels=levels) for t in self.transmons))


def ladder_ops(levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowering and raising operators on a `levels`-dimensional ladder.

    The lowering operator has sqrt(n) on the (n-1, n) superdiagonal; the
    raising operator is its conjugate transpose.
    """
    if levels < 2:
        raise ValueError(f"levels must be >= 2, got {levels}")
    lowering = np.zeros((levels, levels), dtype=complex)
    n = np.arange(1, levels)
    lowering[n - 1, n] = np.sqrt(n)
    return lowering, lowering.conj().T


def is_hermitian(h, tol: float = HERMITICITY_TOL) -> bool:
    """Relative Frobenius test of h = h^dagger, for a numpy array or a scipy.sparse matrix.

    A scipy matrix's norms are taken over the data of its canonical CSR
    form, with the matrix's own methods, so this module imports no scipy.
    """
    if isinstance(h, np.ndarray):
        norm, gap_norm = np.linalg.norm(h), np.linalg.norm(h - h.conj().T)
    else:
        h = h.tocsr(copy=True)
        h.sum_duplicates()  # a sparse difference is canonical already
        norm, gap_norm = np.linalg.norm(h.data), np.linalg.norm((h - h.conj().T).data)
    return norm == 0 or gap_norm / norm < tol


@dataclass(frozen=True, eq=False)
class Csr:
    """A square sparse matrix as scipy's compressed-row triplet of numpy arrays.

    Row r stores `data[indptr[r]:indptr[r + 1]]` at the ascending, distinct
    columns `indices[indptr[r]:indptr[r + 1]]`, so
    `scipy.sparse.csr_matrix((data, indices, indptr), shape)` takes it as is.
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        dim = len(self.indptr) - 1
        return dim, dim

    @property
    def rows(self) -> np.ndarray:
        """The row of each stored entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def toarray(self) -> np.ndarray:
        """Dense copy, by one scatter of the stored entries."""
        dense = np.zeros(self.shape, self.data.dtype)
        dense[self.rows, self.indices] = self.data
        return dense


def _pattern(dim: int, rows: np.ndarray, cols: np.ndarray):
    """CSR pattern of the positions (rows, cols): (indices, indptr, slots),
    where `slots[k]` is the data slot of position k (a repeat shares one).

    The keys and slots are `np.unique(rows * dim + cols, return_inverse=True)`'s,
    made by one sort, a first-of-run mask and a cumulative sum (tied keys
    share a slot, so the sort need not be stable).  numpy 2.4's `unique`
    imports `numpy.ma` on its hash-table path, which nothing else at
    start-up loads; the package calls no `np.unique`."""
    flat = rows * dim + cols
    order = np.argsort(flat)
    ordered = flat[order]
    first = np.ones(len(ordered), bool)
    first[1:] = ordered[1:] != ordered[:-1]
    keys = ordered[first]
    slots = np.empty(len(flat), np.intp)
    slots[order] = np.cumsum(first) - 1
    return keys % dim, np.searchsorted(keys // dim, np.arange(dim + 1)), slots


def _product(left: Csr, right: Csr):
    """(rows, cols, values) of left @ right for operators with at most one
    entry per row, as two modes' ladder operators are: each is one product."""
    middle = left.indices
    keep = np.diff(right.indptr)[middle] > 0  # right has an entry in row `middle`
    slot = right.indptr[middle[keep]]
    return left.rows[keep], right.indices[slot], left.data[keep] * right.data[slot]


# ---------------------------------------------------------------------------
# basis labels and the cached operators of one tensor layout

def basis_label(n_modes: int, occupations: dict[int, int] | None = None) -> tuple[int, ...]:
    """Bare occupation tuple: every mode empty except `occupations[mode]`."""
    label = [0] * n_modes
    for mode, n in (occupations or {}).items():
        label[mode] = n
    return tuple(label)


def computational_labels(n_modes: int, q0: int, q1: int) -> list[tuple[int, ...]]:
    """Labels of the pair's computational states, ordered 00, 01, 10, 11."""
    return [basis_label(n_modes, {q0: b0, q1: b1}) for b0 in (0, 1) for b1 in (0, 1)]


def bare_index(label, dims) -> int:
    """Basis index of an occupation tuple (mode 0 most significant).

    Raises ValueError for a label of the wrong length or out of range.
    """
    return int(np.ravel_multi_index(tuple(label), dims))


def index_to_label(idx: int, dims) -> tuple[int, ...]:
    """Occupation tuple of a basis index; inverse of bare_index."""
    return tuple(int(n) for n in np.unravel_index(idx, dims))


@functools.lru_cache(maxsize=16)
def mode_operators(dims: tuple[int, ...]):
    """Read-only operators of one tensor layout, cached per `dims`.

    Returns (occupations, lowering, raising): `occupations[m, k]` is mode
    m's occupation in basis state k, and `lowering[m]`/`raising[m]` are
    mode m's ladder operators embedded in the full space as `Csr`s, with at
    most one entry per row.
    """
    if any(d < 2 for d in dims):
        raise ValueError(f"every mode needs >= 2 levels, got {dims}")
    occupations = np.indices(dims).reshape(len(dims), -1)
    dim = occupations.shape[1]
    lowering, raising = [], []
    stride, bounds = dim, np.arange(dim + 1)
    for n, levels in zip(occupations, dims):
        stride //= levels
        upper = np.flatnonzero(n)  # states with the mode occupied
        data = np.sqrt(n[upper]).astype(complex)
        lowering.append(Csr(data, upper, np.searchsorted(upper - stride, bounds)))
        raising.append(Csr(data, upper - stride, np.searchsorted(upper, bounds)))
    occupations.flags.writeable = False
    for matrix in lowering + raising:
        for array in (matrix.data, matrix.indices, matrix.indptr):
            array.flags.writeable = False
    return occupations, tuple(lowering), tuple(raising)


def _build(system: SystemSpec, frame_frequency: float, rwa: bool) -> Csr:
    """Diagonal (Duffing and bus energies) plus the coupling terms; drives ignored.

    Terms are added one at a time in declaration order; that order fixes
    the rounding of every entry, and with it every downstream output.
    """
    occupations, a, adag = mode_operators(system.dims)
    dim = occupations.shape[1]
    diagonal = np.zeros(dim)
    for t, n in zip(system.transmons, occupations):
        levels = np.arange(t.levels, dtype=float)
        diagonal = diagonal + ((t.frequency - frame_frequency) * levels
                               + 0.5 * t.anharmonicity * levels * (levels - 1.0))[n]
    terms = []

    def couple(p: int, q: int, g: float):
        if rwa:
            factors = ((adag[p], a[q]), (a[p], adag[q]))
        else:  # (a_p + a_p^+)(a_q + a_q^+), one ladder product at a time
            factors = [(left, right) for left in (a[p], adag[p]) for right in (a[q], adag[q])]
        for left, right in factors:
            rows, cols, values = _product(left, right)
            terms.append((rows, cols, g * values))

    bus_slot = system.num_transmons
    for c in system.couplings:
        p, q = c.endpoints
        if c.kind is CouplingKind.DIRECT:
            couple(p, q, c.strength)
        else:
            diagonal = diagonal + (c.bus_frequency - frame_frequency) * occupations[bus_slot]
            for endpoint, g in zip((p, q), c.bus_couplings):
                couple(endpoint, bus_slot, g)
            bus_slot += 1

    states = np.arange(dim)
    rows, cols, values = (np.concatenate(part) for part in zip(
        (states, states, diagonal.astype(complex)), *terms))
    indices, indptr, slots = _pattern(dim, rows, cols)
    data = np.zeros(len(indices), dtype=complex)
    np.add.at(data, slots, values)  # a repeated entry sums in declaration order
    return Csr(data, indices, indptr)


@dataclass(frozen=True, eq=False)
class RwaLayout:
    """Sparsity layout of one drive-free system's RWA Hamiltonian in one frame.

    `undriven` holds the drive-free Hamiltonian in the union pattern of its
    own entries and every mode's ladder entries, with stored zeros at the
    ladder slots; a drive never meets an undriven entry, because the
    undriven terms conserve excitation number.  `ladders[m]` is
    (rows, cols, values, raising, lowering): mode m's raising operator has
    `values` (sqrt n) at (rows, cols), and `raising`/`lowering` are the
    data slots of those entries and of their transposes.  Every array is
    read-only.
    """

    undriven: Csr
    ladders: tuple[tuple[np.ndarray, ...], ...]

    @property
    def data(self) -> np.ndarray:
        """The undriven values in the layout's pattern."""
        return self.undriven.data


@functools.lru_cache(maxsize=16)
def undriven_rwa_hamiltonian(system: SystemSpec, frame_frequency: float) -> RwaLayout:
    """Read-only RWA layout, cached per drive-free system and frame.

    Every sweep point and root evaluation of one device shares it;
    `build_rwa_hamiltonian_sparse` fills its drive slots.  A system with
    drives raises ValueError: pass `system.without_drives()`.
    """
    if system.drives:
        raise ValueError("undriven_rwa_hamiltonian takes a system without drives")
    h = _build(system, frame_frequency, rwa=True)
    ladders = [(op.rows, op.indices, op.data) for op in mode_operators(system.dims)[2]]
    # entry blocks: the undriven entries, every mode's raising entries, then their transposes
    blocks = [(h.rows, h.indices), *((r, c) for r, c, _ in ladders),
              *((c, r) for r, c, _ in ladders)]
    indices, indptr, slots = _pattern(h.shape[0], *(np.concatenate(part)
                                                    for part in zip(*blocks)))
    undriven_slots, *ladder_slots = np.split(slots, np.cumsum([len(r) for r, _ in blocks[:-1]]))
    data = np.zeros(len(indices), dtype=complex)
    data[undriven_slots] = h.data
    undriven = Csr(data, indices, indptr)
    n = len(ladders)
    entries = [(*ladder, up, down)
               for ladder, up, down in zip(ladders, ladder_slots[:n], ladder_slots[n:])]
    for array in (data, indices, indptr, *(array for entry in entries for array in entry)):
        array.flags.writeable = False
    return RwaLayout(undriven, tuple(entries))


def build_static_hamiltonian_sparse(system: SystemSpec) -> Csr:
    """Sparse lab-frame Hamiltonian with full coupling terms (drives ignored)."""
    return _build(system, 0.0, rwa=False)


def build_static_hamiltonian(system: SystemSpec) -> np.ndarray:
    """Lab-frame Hamiltonian with full (counter-rotating) coupling terms.

    Drives are ignored; the result is the sum of Duffing diagonals, direct
    exchange elements J (a_p^+ + a_p)(a_q^+ + a_q), and bus modes with their
    qubit-bus couplings in the same full form.  Entries are in GHz.
    """
    return build_static_hamiltonian_sparse(system).toarray()


def build_rwa_hamiltonian_sparse(system: SystemSpec, frame_frequency: float) -> Csr:
    """Sparse rotating-frame Hamiltonian; see build_rwa_hamiltonian.

    The drives are added at their modes' slots of the cached `RwaLayout`,
    one at a time in declaration order, into a copy of its undriven data;
    the result shares the layout's read-only indices and indptr.  An
    undriven system gets the cached read-only matrix itself.
    """
    offending = sorted({d.frequency for d in system.drives if d.frequency != frame_frequency})
    if offending:
        raise MultiFrequencyFrameError(
            f"drives at {offending} GHz do not match frame {frame_frequency} GHz")
    layout = undriven_rwa_hamiltonian(system.without_drives(), frame_frequency)
    h = layout.undriven
    if not system.drives:
        return h
    data = layout.data.copy()
    for d in system.drives:
        _, _, values, raising, lowering = layout.ladders[d.target]
        half = 0.5 * d.amplitude
        data[raising] += values * (half * np.exp(1j * d.phase))
        data[lowering] += values * (half * np.exp(-1j * d.phase))
    return Csr(data, h.indices, h.indptr)


def build_rwa_hamiltonian(system: SystemSpec, frame_frequency: float) -> np.ndarray:
    """Time-independent Hamiltonian in the frame rotating at `frame_frequency`.

    Every drive in the system must share the frame frequency; mixed drive
    frequencies have no static single-frame representation and raise
    MultiFrequencyFrameError (use pulse-level propagation instead).
    Counter-rotating coupling terms are dropped; each drive contributes
    (Omega/2)(exp(i phi) a^+ + exp(-i phi) a).
    """
    return build_rwa_hamiltonian_sparse(system, frame_frequency).toarray()
