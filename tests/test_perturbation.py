import math
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from starkzz.errors import SingularDetuningError
from starkzz.operators import DriveTone, SystemSpec, TransmonSpec, direct_coupling
from starkzz.perturbation import (PerturbativeInputs, dressed_single_qubit_terms,
                                  single_drive_stark, sizzle_zz, sizzle_zz_induced,
                                  static_zz, two_level_zz, zx_first_order,
                                  zx_with_cancellation)
from starkzz.spectrum import driven_pair_rates, pair_rates, undriven_reference

DEVICE_A_LIKE = dict(nu0=4.961, nu1=5.015, alpha0=-0.285, alpha1=-0.284, j=0.007745)


def device_a_inputs(device_a, **kw):
    t0, t1 = device_a.transmons
    j = device_a.couplings[0].strength
    return PerturbativeInputs(nu0=t0.frequency, nu1=t1.frequency,
                              alpha0=t0.anharmonicity, alpha1=t1.anharmonicity,
                              j=j, **kw)


# Strategy for parameter sets away from most guard bands by construction;
# three poles stay reachable in these ranges, so tests that need finite
# values also `assume(_clear_of_poles(inputs))`.
def _regular_inputs():
    return st.builds(
        PerturbativeInputs,
        nu0=st.floats(4.5, 5.5),
        nu1=st.floats(5.56, 6.5),
        alpha0=st.floats(-0.5, -0.2),
        alpha1=st.floats(-0.5, -0.2),
        j=st.floats(-0.02, 0.02),
        omega0=st.floats(0.0, 0.05),
        omega1=st.floats(0.0, 0.05),
        phi=st.floats(0.0, 2 * math.pi),
        nu_d=st.floats(6.6, 7.0),
        omega_cr=st.floats(0.0, 0.05),
    )


def _clear_of_poles(inputs, margin=1e-3):
    """No denominator the ranges of `_regular_inputs` can reach within `margin` GHz:
    `_zx_coefficient_c`'s (a - d01 + d1d) and (d01 - a) at the mean
    anharmonicity a, and `static_zz`'s (alpha1 - d01)."""
    a = 0.5 * (inputs.alpha0 + inputs.alpha1)
    d01 = inputs.delta01
    return min(abs(a - d01 + inputs.delta1d), abs(d01 - a),
               abs(inputs.alpha1 - d01)) >= margin


class TestStaticZZ:
    def test_zero_coupling(self):
        assert static_zz(PerturbativeInputs(**{**DEVICE_A_LIKE, "j": 0.0})) == 0.0

    def test_device_a_value(self, device_a):
        value = static_zz(device_a_inputs(device_a))
        assert value == pytest.approx(875e-6, rel=0.05)

    def test_opposite_anharmonicities_cancel(self):
        inputs = PerturbativeInputs(nu0=4.9, nu1=5.1, alpha0=-0.3, alpha1=0.3, j=0.01)
        assert static_zz(inputs) == 0.0

    def test_pole_guard(self):
        inputs = PerturbativeInputs(nu0=5.0, nu1=5.3, alpha0=-0.3, alpha1=-0.3, j=0.01)
        with pytest.raises(SingularDetuningError):
            static_zz(inputs)


class TestSizzleZZ:
    def test_reduces_to_static_without_product(self, device_a):
        base = device_a_inputs(device_a, nu_d=5.075)
        for omegas in ((0.0, 0.02), (0.02, 0.0)):
            inputs = replace(base, omega0=omegas[0], omega1=omegas[1])
            assert sizzle_zz(inputs) == static_zz(inputs)

    def test_quadrature_phase_is_static(self, device_a):
        inputs = device_a_inputs(device_a, omega0=0.02, omega1=0.01,
                                 phi=math.pi / 2, nu_d=5.075)
        assert sizzle_zz(inputs) == pytest.approx(static_zz(inputs), abs=1e-18)

    def test_matches_diagonalization_at_small_drive(self, device_a):
        """Induced part agrees with the numerical spectrum within 10%."""
        inputs = device_a_inputs(device_a, omega0=0.020, omega1=0.010,
                                 phi=math.pi, nu_d=5.075)
        drives = (DriveTone(0, 0.020, 5.075, math.pi), DriveTone(1, 0.010, 5.075, 0.0))
        numeric = driven_pair_rates(device_a.with_drives(drives)).zz
        static_num = pair_rates(undriven_reference(device_a)).zz
        induced_pert = sizzle_zz_induced(inputs)
        assert (numeric - static_num) == pytest.approx(induced_pert, rel=0.10)

    @given(_regular_inputs())
    @settings(max_examples=60, deadline=None)
    def test_swap_symmetry(self, inputs):
        assume(_clear_of_poles(inputs))
        assert sizzle_zz(inputs) == pytest.approx(sizzle_zz(inputs.swapped()),
                                                  rel=1e-9, abs=1e-15)

    @given(_regular_inputs())
    @settings(max_examples=60, deadline=None)
    def test_total_and_finite(self, inputs):
        assume(_clear_of_poles(inputs))
        for value in (static_zz(inputs), sizzle_zz(inputs), two_level_zz(inputs),
                      single_drive_stark(inputs, 0), single_drive_stark(inputs, 1),
                      float(zx_with_cancellation(inputs)),
                      *dressed_single_qubit_terms(inputs)):
            assert math.isfinite(value)

    def test_exact_pole_in_regular_ranges_raises(self):
        """A draw of `_regular_inputs` on the (a - d01 + d1d) pole of
        `_zx_coefficient_c` is singular, not finite."""
        inputs = PerturbativeInputs(nu0=4.9, nu1=6.0, alpha0=-0.5, alpha1=-0.5,
                                    j=0.0, omega1=0.01, nu_d=6.6, omega_cr=0.01)
        assert not _clear_of_poles(inputs)
        with pytest.raises(SingularDetuningError):
            zx_with_cancellation(inputs)

    def test_two_level_limit(self, device_a):
        """Infinite anharmonicity reduces the induced part to the 2-level form."""
        inputs = device_a_inputs(device_a, omega0=0.02, omega1=0.02,
                                 phi=0.3, nu_d=5.075)
        big = replace(inputs, alpha0=-1e6, alpha1=-1e6)
        ratio = sizzle_zz_induced(big) / two_level_zz(big)
        assert ratio == pytest.approx(1.0, abs=1e-3)


class TestSingleDriveStark:
    def test_zero_amplitude(self, device_a):
        inputs = device_a_inputs(device_a, nu_d=5.1)
        assert single_drive_stark(inputs, 0) == 0.0

    def test_sign_above_both_transitions(self):
        """Drive above the qubit and its 1-2 transition: positive ZI
        coefficient, i.e. a negative qubit-frequency excursion."""
        inputs = PerturbativeInputs(nu0=4.96, nu1=5.016, alpha0=-0.283,
                                    alpha1=-0.287, j=0.0, omega0=0.059, nu_d=5.1)
        coefficient = single_drive_stark(inputs, 0)
        assert coefficient > 0
        assert -0.5 * coefficient < 0  # frequency excursion

    def test_device_a_q0_excursion(self, device_a):
        inputs = device_a_inputs(device_a, omega0=0.059, nu_d=5.1)
        excursion = -0.5 * single_drive_stark(inputs, 0)
        assert excursion == pytest.approx(-7.8e-3, rel=0.30)

    def test_bad_index(self, device_a):
        with pytest.raises(ValueError):
            single_drive_stark(device_a_inputs(device_a, nu_d=5.1), 2)


class TestDressedSingleQubitTerms:
    def test_bare_limit(self):
        inputs = PerturbativeInputs(nu0=4.9, nu1=5.1, alpha0=-0.3, alpha1=-0.3,
                                    j=0.0, nu_d=5.2)
        nu_iz, nu_zi = dressed_single_qubit_terms(inputs)
        assert nu_iz == pytest.approx(-2 * 5.1)
        assert nu_zi == pytest.approx(-2 * 4.9)

    def test_undriven_reduces_to_coupling_shift(self, device_a):
        inputs = device_a_inputs(device_a, nu_d=5.1)
        nu_iz, nu_zi = dressed_single_qubit_terms(inputs)
        d01 = inputs.delta01
        asum = inputs.alpha0 + inputs.alpha1
        lamb = inputs.j ** 2 * asum / ((d01 + inputs.alpha0) * (d01 - inputs.alpha1))
        assert nu_iz == pytest.approx(2 * (-inputs.nu1 + inputs.j ** 2 / d01 + lamb))
        assert nu_zi == pytest.approx(2 * (-inputs.nu0 - inputs.j ** 2 / d01 + lamb))

    def test_driven_excursions_match_spectrum(self, device_a):
        """Differences of driven vs undriven dressed terms track the
        numerically computed Stark shifts within 30%."""
        inputs = device_a_inputs(device_a, omega0=0.059, omega1=0.022,
                                 phi=math.pi, nu_d=5.1)
        off = replace(inputs, omega0=0.0, omega1=0.0)
        iz_on, zi_on = dressed_single_qubit_terms(inputs)
        iz_off, zi_off = dressed_single_qubit_terms(off)
        # frequency excursions are -1/2 of the coefficient changes
        shift_q1 = -0.5 * (iz_on - iz_off)
        shift_q0 = -0.5 * (zi_on - zi_off)
        drives = (DriveTone(0, 0.059, 5.1, math.pi), DriveTone(1, 0.022, 5.1, 0.0))
        rates = driven_pair_rates(device_a.with_drives(drives),
                                  reference=undriven_reference(device_a))
        assert shift_q0 == pytest.approx(rates.stark_shift_q0, rel=0.30)
        assert shift_q1 == pytest.approx(rates.stark_shift_q1, rel=0.30)


class TestTwoLevelZZ:
    def test_cosine_antisymmetry(self):
        inputs = PerturbativeInputs(nu0=4.9, nu1=5.0, alpha0=-0.3, alpha1=-0.3,
                                    j=0.01, omega0=0.02, omega1=0.02, nu_d=5.1)
        assert two_level_zz(replace(inputs, phi=math.pi)) == pytest.approx(
            -two_level_zz(replace(inputs, phi=0.0)))

    def test_hand_arithmetic(self):
        inputs = PerturbativeInputs(nu0=5.0, nu1=5.0, alpha0=-0.3, alpha1=-0.3,
                                    j=0.010, omega0=0.020, omega1=0.020,
                                    phi=0.0, nu_d=5.1)
        assert two_level_zz(inputs) == pytest.approx(0.8e-3)

    def test_against_two_level_diagonalization(self):
        """4x4 brute-force dressed spectrum at Omega/|Delta| = 0.05."""
        nu0, nu1, nu_d, j = 4.95, 5.05, 5.15, 0.002
        omega = 0.05 * abs(nu0 - nu_d)
        system = SystemSpec(
            transmons=(TransmonSpec(nu0, -0.3, 2), TransmonSpec(nu1, -0.3, 2)),
            couplings=(direct_coupling(0, 1, j),),
            drives=(DriveTone(0, omega, nu_d, 0.0), DriveTone(1, omega, nu_d, 0.0)))
        numeric = driven_pair_rates(system).zz
        inputs = PerturbativeInputs(nu0=nu0, nu1=nu1, alpha0=-0.3, alpha1=-0.3,
                                    j=j, omega0=omega, omega1=omega, phi=0.0,
                                    nu_d=nu_d)
        # the static 2-level contribution vanishes only perturbatively;
        # subtract the numerically exact undriven value instead
        static_num = driven_pair_rates(system.with_drives(())).zz
        assert numeric - static_num == pytest.approx(two_level_zz(inputs), rel=0.05)


class TestZxWithCancellation:
    def test_zero_cr_amplitude(self, device_a):
        inputs = device_a_inputs(device_a, omega0=0.02, omega1=0.01, nu_d=5.1)
        assert float(zx_with_cancellation(inputs)) == 0.0

    def test_first_order_coefficient(self, device_a):
        """Without cancellation tones the rate is J * Omega_cr * A exactly."""
        inputs = device_a_inputs(device_a, omega_cr=0.010, nu_d=5.1)
        alpha = 0.5 * (inputs.alpha0 + inputs.alpha1)
        d01 = inputs.delta01
        expected = inputs.j * 0.010 * (-alpha / (d01 * (alpha + d01)))
        assert float(zx_with_cancellation(inputs)) == pytest.approx(expected)
        assert zx_first_order(inputs) == pytest.approx(expected)

    def test_label_swap(self, device_a):
        inputs = device_a_inputs(device_a, omega0=0.02, omega1=0.01,
                                 omega_cr=0.010, nu_d=5.1)
        swapped = zx_with_cancellation(inputs, cr_on=1)
        direct = zx_with_cancellation(inputs.swapped(), cr_on=0)
        assert float(swapped) == pytest.approx(float(direct))

    def test_alpha_average_flag(self, device_a):
        unequal = device_a_inputs(device_a, omega_cr=0.01, nu_d=5.1)
        equal = replace(unequal, alpha0=-0.29, alpha1=-0.29)
        assert zx_with_cancellation(unequal).alpha_averaged
        assert not zx_with_cancellation(equal).alpha_averaged

    def test_quadratic_offsets_differ_from_bare(self, device_a):
        inputs = device_a_inputs(device_a, omega0=0.059, omega1=0.022,
                                 omega_cr=0.005, nu_d=5.1)
        with_tones = float(zx_with_cancellation(inputs, cr_on=1))
        without = float(zx_with_cancellation(
            replace(inputs, omega0=0.0, omega1=0.0), cr_on=1))
        assert with_tones != pytest.approx(without, rel=1e-3)


@st.composite
def _driven_pairs(draw):
    """2-transmon, 3-level systems with a direct coupling and two tones."""
    freq, anharm = st.floats(4.8, 5.2), st.floats(-0.35, -0.2)
    nu_d = draw(st.floats(5.25, 5.6))
    return SystemSpec(
        transmons=tuple(TransmonSpec(draw(freq), draw(anharm), 3) for _ in range(2)),
        couplings=(direct_coupling(0, 1, draw(st.floats(-0.01, 0.01))),),
        drives=tuple(DriveTone(q, draw(st.floats(0.0, 0.05)), nu_d,
                               draw(st.floats(0.0, 2 * math.pi))) for q in (0, 1)))


class TestForPair:
    def test_device_a(self, device_a):
        drives = (DriveTone(0, 0.059, 5.1, math.pi), DriveTone(1, 0.022, 5.1, 0.0))
        inputs = PerturbativeInputs.for_pair(device_a.with_drives(drives), 0, 1)
        assert inputs == device_a_inputs(device_a, omega0=0.059, omega1=0.022,
                                         phi=math.pi, nu_d=5.1)

    def test_bus_only_pair(self, device_b_pair):
        """J counts only the pair's direct strengths; an undriven pair has
        no tone amplitude or frequency."""
        bus_only = replace(device_b_pair, couplings=device_b_pair.couplings[1:])
        inputs = PerturbativeInputs.for_pair(bus_only, 0, 1)
        assert (inputs.j, inputs.omega0, inputs.nu_d) == (0.0, 0.0, 0.0)
        assert PerturbativeInputs.for_pair(device_b_pair, 0, 1).j == 0.0106

    @given(_driven_pairs())
    @settings(max_examples=50, deadline=None)
    def test_qubit_swap_symmetry(self, system):
        inputs = PerturbativeInputs.for_pair(system, 0, 1)
        assert PerturbativeInputs.for_pair(system, 1, 0) == inputs.swapped()
        forward = driven_pair_rates(system, 0, 1).zz
        assert driven_pair_rates(system, 1, 0).zz == pytest.approx(forward, abs=1e-12)
