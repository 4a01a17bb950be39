"""Closed-form perturbative rate expressions.

These serve as independent oracles for the numerical spectrum and pulse
engines.  All formulas are expressed over bare parameters; callers are
responsible for bare-fitting measured (dressed) device tables first.
Evaluation at or near a resonant denominator is an error, not a number:
any denominator smaller in magnitude than POLE_GUARD (1 kHz) raises
SingularDetuningError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import SingularDetuningError
from .operators import SystemSpec

#: Denominator guard band in GHz (1 kHz).
POLE_GUARD = 1e-6
#: Exchange strength (GHz) standing in for J = 0, e.g. a bus-only pair,
#: where a closed form only seeds a numerical search.
SEED_J_FLOOR = 1e-3


@dataclass(frozen=True)
class PerturbativeInputs:
    """Bare two-transmon parameters entering the closed forms (GHz, rad).

    `phi` is the phase difference between the two always-on tones and
    `omega_cr` the amplitude of the entangling-gate tone on the transmon
    hosting it.
    """

    nu0: float
    nu1: float
    alpha0: float
    alpha1: float
    j: float
    omega0: float = 0.0
    omega1: float = 0.0
    phi: float = 0.0
    nu_d: float = 0.0
    omega_cr: float = 0.0

    @classmethod
    def for_pair(cls, system: SystemSpec, q0: int, q1: int) -> "PerturbativeInputs":
        """Inputs of transmons (q0, q1) of a system, in that order.

        `j` is the signed sum of the pair's direct strengths (0 for a
        bus-only pair), the amplitudes and the phase difference are those
        of the pair's tones, and `nu_d` is the frequency of the system's
        first tone (0 without one).
        """
        t0, t1 = system.transmons[q0], system.transmons[q1]
        j = sum(c.strength for c in system.couplings
                if c.strength is not None and set(c.endpoints) == {q0, q1})
        tones = {d.target: d for d in system.drives}
        both = q0 in tones and q1 in tones
        return cls(
            nu0=t0.frequency, nu1=t1.frequency, alpha0=t0.anharmonicity,
            alpha1=t1.anharmonicity, j=j,
            omega0=tones[q0].amplitude if q0 in tones else 0.0,
            omega1=tones[q1].amplitude if q1 in tones else 0.0,
            phi=tones[q0].phase - tones[q1].phase if both else 0.0,
            nu_d=system.drives[0].frequency if system.drives else 0.0)

    @property
    def delta01(self) -> float:
        return self.nu0 - self.nu1

    @property
    def delta0d(self) -> float:
        return self.nu0 - self.nu_d

    @property
    def delta1d(self) -> float:
        return self.nu1 - self.nu_d

    def swapped(self) -> "PerturbativeInputs":
        """Relabel the transmons 0 <-> 1."""
        return replace(self, nu0=self.nu1, nu1=self.nu0, alpha0=self.alpha1,
                       alpha1=self.alpha0, omega0=self.omega1, omega1=self.omega0,
                       phi=-self.phi)


class _Guarded:
    """Division helper that rejects denominators inside the guard band."""

    def __init__(self, what: str):
        self.what = what

    def __call__(self, numerator: float, *denominators: float) -> float:
        product = 1.0
        for d in denominators:
            if abs(d) < POLE_GUARD:
                raise SingularDetuningError(
                    f"{self.what}: denominator {d:.3e} GHz inside the "
                    f"{POLE_GUARD:g} GHz guard band")
            product *= d
        return numerator / product


def static_zz(inputs: PerturbativeInputs) -> float:
    """Always-on ZZ from fixed exchange coupling, second order in J."""
    div = _Guarded("static_zz")
    d01 = inputs.delta01
    return div(-2.0 * inputs.j ** 2 * (inputs.alpha0 + inputs.alpha1),
               inputs.alpha1 - d01, inputs.alpha0 + d01)


def sizzle_zz(inputs: PerturbativeInputs) -> float:
    """ZZ under simultaneous off-resonant tones on both transmons.

    Static term plus the drive-induced part, second order in the tone
    amplitudes and first order in J.
    """
    div = _Guarded("sizzle_zz")
    induced = div(
        2.0 * inputs.j * inputs.alpha0 * inputs.alpha1
        * inputs.omega0 * inputs.omega1 * math.cos(inputs.phi),
        inputs.delta0d, inputs.delta1d,
        inputs.delta0d + inputs.alpha0, inputs.delta1d + inputs.alpha1)
    return static_zz(inputs) + induced


def sizzle_zz_induced(inputs: PerturbativeInputs) -> float:
    """Drive-induced part only (sizzle_zz minus static_zz)."""
    return sizzle_zz(inputs) - static_zz(inputs)


def single_drive_stark(inputs: PerturbativeInputs, which: int) -> float:
    """ZI (or IZ) coefficient from one isolated tone, quadratic in amplitude.

    The corresponding dressed-frequency excursion of the driven qubit is
    -1/2 times this coefficient.
    """
    if which == 0:
        omega, alpha, delta = inputs.omega0, inputs.alpha0, inputs.delta0d
    elif which == 1:
        omega, alpha, delta = inputs.omega1, inputs.alpha1, inputs.delta1d
    else:
        raise ValueError(f"which must be 0 or 1, got {which}")
    div = _Guarded("single_drive_stark")
    return div(-(omega ** 2) * alpha, delta, delta + alpha)


def dressed_single_qubit_terms(inputs: PerturbativeInputs) -> tuple[float, float]:
    """Full dressed single-qubit coefficients (nu_iz, nu_zi).

    Each is the sum of the bare + Lamb-shifted coupling term, the
    single-drive Stark term, and the J-drive cross term.
    """
    div = _Guarded("dressed_single_qubit_terms")
    d01 = inputs.delta01
    asum = inputs.alpha0 + inputs.alpha1
    lamb = div(inputs.j ** 2 * asum, d01 + inputs.alpha0, d01 - inputs.alpha1)
    iz_j = 2.0 * (-inputs.nu1 + div(inputs.j ** 2, d01) + lamb)
    zi_j = 2.0 * (-inputs.nu0 - div(inputs.j ** 2, d01) + lamb)

    cross_num = (inputs.j * asum * inputs.omega0 * inputs.omega1
                 * math.cos(inputs.phi))
    shared = div(1.0, inputs.alpha0 + inputs.delta0d, inputs.alpha1 + inputs.delta1d)
    iz_cross = div(cross_num * shared, inputs.delta1d)
    zi_cross = div(cross_num * shared, inputs.delta0d)

    nu_iz = iz_j + single_drive_stark(inputs, 1) + iz_cross
    nu_zi = zi_j + single_drive_stark(inputs, 0) + zi_cross
    return nu_iz, nu_zi


def two_level_zz(inputs: PerturbativeInputs) -> float:
    """Drive-induced ZZ for strictly two-level qubits."""
    div = _Guarded("two_level_zz")
    return div(2.0 * inputs.j * inputs.omega0 * inputs.omega1 * math.cos(inputs.phi),
               inputs.delta0d, inputs.delta1d)


class ZxRate(float):
    """ZX rate value carrying an equal-anharmonicity approximation flag."""

    alpha_averaged = False

    def __new__(cls, value: float, alpha_averaged: bool):
        obj = super().__new__(cls, value)
        obj.alpha_averaged = alpha_averaged
        return obj


def _zx_coefficient_a(alpha: float, d01: float, div: _Guarded) -> float:
    return div(-alpha, d01, alpha + d01)


def _zx_coefficient_b(alpha: float, d01: float, d0d: float, d1d: float,
                      div: _Guarded) -> float:
    a = alpha
    b = -div(a, 4.0 * d01 * (a + d01) ** 2 * d0d)
    b += div(2.0 * a + d01, 8.0 * (a + d01) * d0d * d01 ** 2)
    b -= div(a, 4.0 * (a + d0d) * (a + d01) * d01 ** 2)
    b -= div(a, 4.0 * (a + d01 + d0d) * (a + d01) * d01 ** 2)
    # The unsubscripted squared detuning in this term is read as d01**2,
    # parallel to the matching term with d0d above.
    b += div(2.0 * a + d01, 8.0 * d1d * (a + d01) * d01 ** 2)
    b += div(d01 * (a + d0d + d1d),
             8.0 * (a + d01) ** 2 * (2.0 * a + d01) * (a + d0d) * d1d)
    bracket = (
        -div(2.0, d0d)
        - div(2.0, a + d0d)
        - div(2.0 * a, (2.0 * a + d01) * (a + d0d))
        + div(6.0 * a, (2.0 * a + d01) * (2.0 * a + d0d))
        + div(2.0 * a, (a + d0d) * (a + d01 + d0d))
        + div(6.0 * a, (2.0 * a + d01) * (3.0 * a + d01 + d0d))
        - div(10.0 * a + 4.0 * d01, d1d * (2.0 * a + d01))
    )
    b += div(bracket, 16.0 * (a + d01) ** 2)
    return b


def _zx_coefficient_c(alpha: float, d01: float, d0d: float, d1d: float,
                      div: _Guarded) -> float:
    a = alpha
    bracket = (
        div(1.0, (d01 - a) * d0d)
        - div(d01, (a + d01) ** 2 * (a + d0d))
        + div(a * (a + 3.0 * d01), (d01 - a) * (a + d01) ** 2 * d1d)
        - div(a * (a + 3.0 * d01), (d01 - a) * (a + d01) ** 2 * (a + d1d))
        + div(d01, (a + d01) ** 2 * (d1d - d01))
        + div(1.0, (a - d01) * (a - d01 + d1d))
    )
    return div(a * bracket, 4.0 * d01 ** 2)


def zx_with_cancellation(inputs: PerturbativeInputs, cr_on: int = 0) -> ZxRate:
    """ZX rate of an entangling tone in the presence of cancellation tones.

    Returns J * Omega_cr * (A + B * Omega0^2 + C * Omega1^2), first order in
    the gate-tone amplitude and quadratic in the cancellation amplitudes.
    The coefficients assume equal anharmonicities; for unequal inputs the
    mean is used and the returned value is flagged `alpha_averaged`.
    With `cr_on=1` the transmon labels are swapped before evaluation.
    """
    if cr_on not in (0, 1):
        raise ValueError(f"cr_on must be 0 or 1, got {cr_on}")
    work = inputs.swapped() if cr_on == 1 else inputs
    div = _Guarded("zx_with_cancellation")
    averaged = work.alpha0 != work.alpha1
    alpha = 0.5 * (work.alpha0 + work.alpha1)
    d01, d0d, d1d = work.delta01, work.delta0d, work.delta1d
    value = work.j * work.omega_cr * _zx_coefficient_a(alpha, d01, div)
    # Quadratic corrections are evaluated only when they contribute: with no
    # always-on tones the entangling carrier typically sits exactly at the
    # second transmon's frequency, where B and C have spurious poles.
    if work.omega_cr != 0.0 and work.omega0 != 0.0:
        value += (work.j * work.omega_cr * work.omega0 ** 2
                  * _zx_coefficient_b(alpha, d01, d0d, d1d, div))
    if work.omega_cr != 0.0 and work.omega1 != 0.0:
        value += (work.j * work.omega_cr * work.omega1 ** 2
                  * _zx_coefficient_c(alpha, d01, d0d, d1d, div))
    return ZxRate(value, averaged)


def seed_zx_rate(system: SystemSpec, control: int, target: int,
                 omega_cr: float) -> float:
    """|ZX| of an entangling tone of amplitude `omega_cr` on `control`.

    Seeds numerical searches, so a pair without direct coupling is given
    J = SEED_J_FLOOR instead of a zero rate.
    """
    inputs = PerturbativeInputs.for_pair(system, control, target)
    return abs(float(zx_with_cancellation(replace(
        inputs, j=inputs.j or SEED_J_FLOOR, omega_cr=omega_cr))))


def zx_first_order(inputs: PerturbativeInputs, cr_on: int = 0) -> float:
    """First-order ZX rate J * Omega_cr * A, without cancellation tones."""
    return float(zx_with_cancellation(
        replace(inputs, omega0=0.0, omega1=0.0), cr_on=cr_on))
