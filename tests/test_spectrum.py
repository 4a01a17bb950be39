import concurrent.futures
import math
import sys

import numpy as np
import pytest
import scipy.sparse

from starkzz import spectrum
from starkzz.config import load_preset, to_system
from starkzz.errors import MissingLabelError, SolverFailureError
from starkzz.operators import (DriveTone, SystemSpec, TransmonSpec,
                               build_rwa_hamiltonian, build_rwa_hamiltonian_sparse,
                               build_static_hamiltonian, computational_labels,
                               direct_coupling)
from starkzz.spectrum import (AMBIGUOUS_OVERLAP, LabeledSpectrum, driven_pair_rates,
                              effective_j, fit_bare_transmons, labeled_spectrum,
                              pair_rates, rwa_spectrum, single_path_equivalent,
                              static_spectrum, undriven_reference, zz_vs_parameter)

NU_D_FIG1 = 5.075


def cancellation_drives(scale=1.0, phi=math.pi, nu_d=5.1):
    return (DriveTone(0, 0.059 * scale, nu_d, phi),
            DriveTone(1, 0.022 * scale, nu_d, 0.0))


class TestLabeledSpectrum:
    def test_diagonal_identity_labels(self):
        h = np.diag(np.arange(6, dtype=float)).astype(complex)
        spec = labeled_spectrum(h, (2, 3))
        assert spec.labels == ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2))
        assert np.allclose(spec.overlaps, 1.0)
        assert spec.energy((1, 2)) == 5.0

    def test_labels_are_bijection(self, device_a):
        spec = static_spectrum(device_a)
        assert len(set(spec.labels)) == device_a.total_dimension

    def test_two_level_pair_matches_closed_form(self):
        """Exchange-coupled 2-level pair against the 4x4 closed form."""
        nu0, nu1, j = 4.9, 5.05, 0.004
        system = SystemSpec(
            transmons=(TransmonSpec(nu0, -0.3, 2), TransmonSpec(nu1, -0.3, 2)),
            couplings=(direct_coupling(0, 1, j),))
        spec = labeled_spectrum(build_rwa_hamiltonian(system, 0.0), (2, 2))
        delta = nu0 - nu1
        mean = 0.5 * (nu0 + nu1)
        split = math.hypot(0.5 * delta, j)
        # nu0 < nu1: dressed (1,0) stays the lower branch
        assert spec.energy((1, 0)) == pytest.approx(mean - split, abs=1e-12)
        assert spec.energy((0, 1)) == pytest.approx(mean + split, abs=1e-12)
        assert spec.energy((0, 0)) == pytest.approx(0.0, abs=1e-12)
        assert spec.energy((1, 1)) == pytest.approx(nu0 + nu1, abs=1e-12)
        # first-order dressed-state overlap: 1 - (J/delta)^2 to leading order
        mix = (j / delta) ** 2
        assert spec.overlap((1, 0)) == pytest.approx(1 - mix, abs=5 * mix ** 2 + 1e-12)

    def test_non_hermitian_rejected(self):
        h = np.array([[0.0, 1.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ValueError):
            labeled_spectrum(h, (2,))

    def test_missing_label(self):
        spec = labeled_spectrum(np.diag([0.0, 1.0]).astype(complex), (2,))
        with pytest.raises(MissingLabelError):
            spec.energy((5,))

    def test_index_is_bare_index(self, device_a):
        spec = static_spectrum(device_a)
        assert [spec._index(label) for label in spec.labels] == list(range(len(spec.labels)))
        for absent in ((0,), (0, 0, 0), (-1, 0), (0, 5)):
            with pytest.raises(MissingLabelError):
                spec.energy(absent)


class TestSparseSpectrum:
    """The Davidson path, reached on small systems by lowering DENSE_LIMIT."""

    def test_lazy_matches_dense(self, device_a, monkeypatch):
        """A 3-vector basis restarts every solve; phase 0.7 makes H complex."""
        for phi in (math.pi, 0.7):
            system = device_a.with_drives(cancellation_drives(phi=phi))
            h = build_rwa_hamiltonian_sparse(system, 5.1)
            assert phi == math.pi or np.abs(h.imag).max() > 1e-3
            dense = labeled_spectrum(h, system.dims, 5.1)
            monkeypatch.setattr(spectrum, "DENSE_LIMIT", system.total_dimension - 1)
            for max_basis in (spectrum.DAVIDSON_MAX_BASIS, 3):
                monkeypatch.setattr(spectrum, "DAVIDSON_MAX_BASIS", max_basis)
                lazy = labeled_spectrum(h, system.dims, 5.1)
                assert dense.sparse is None and lazy.sparse is not None
                for label in dense.labels:
                    assert lazy.energy(label) == pytest.approx(dense.energy(label), abs=1e-12)
                    assert lazy.overlap(label) == pytest.approx(dense.overlap(label), abs=1e-9)
            monkeypatch.undo()

    def test_chain_labels_match_dense(self, monkeypatch):
        """Labels whose dressed state is not among the eigenvalues nearest
        the bare energy: the first six transmons of device-b-chain under
        alternating 0/pi tones (a shift-invert solve returned (0,1,1,0,0,0)
        at overlap 3e-4, 2.9 MHz off)."""
        doc = load_preset("device-b-chain")
        doc = dict(doc, transmons=doc["transmons"][:6],
                   couplings=[c for c in doc["couplings"] if max(c["endpoints"]) < 6])
        amplitudes = (0.012, 0.030, 0.020, 0.035, 0.020, 0.030)
        system = to_system(doc).with_drives(tuple(
            DriveTone(i, amp, 5.1, math.pi * (i % 2)) for i, amp in enumerate(amplitudes)))
        dense = rwa_spectrum(system, 5.1)
        monkeypatch.setattr(spectrum, "DENSE_LIMIT", 8)
        lazy = rwa_spectrum(system, 5.1)
        assert dense.sparse is None and lazy.sparse is not None
        for i in range(5):
            for label in computational_labels(6, i, i + 1):
                assert lazy.energy(label) == pytest.approx(dense.energy(label), abs=1e-9)
                assert lazy.overlap(label) >= AMBIGUOUS_OVERLAP

    def test_nonconvergence_names_label(self, device_a, monkeypatch):
        system = device_a.with_drives(cancellation_drives())
        monkeypatch.setattr(spectrum, "DENSE_LIMIT", 8)
        monkeypatch.setattr(spectrum, "DAVIDSON_MAX_ITERATIONS", 1)
        spec = rwa_spectrum(system, 5.1)
        with pytest.raises(SolverFailureError, match=r"label \(1, 0\)"):
            spec.energy((1, 0))

    def test_non_hermitian_sparse_rejected(self, monkeypatch):
        monkeypatch.setattr(spectrum, "DENSE_LIMIT", 2)
        h = np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex)
        h[0, 1] = 0.5
        h = scipy.sparse.csr_matrix(h)
        with pytest.raises(ValueError, match="Hermitian"):
            labeled_spectrum(h, (2, 2))

    def test_each_label_solved_once(self, device_a, monkeypatch):
        solved = []

        def counting(h, dims, labels, **kwargs):
            solved.extend(tuple(label) for label in labels)
            return original(h, dims, labels, **kwargs)

        original = spectrum.targeted_label_energies
        monkeypatch.setattr(spectrum, "DENSE_LIMIT", 8)
        monkeypatch.setattr(spectrum, "targeted_label_energies", counting)
        spec = undriven_reference(device_a)
        assert solved == []
        energy = spec.energy((1, 0))
        assert spec.lab_energy((1, 0)) == energy and spec.energy((1, 0)) == energy
        spec.overlap((1, 0))
        assert solved == [(1, 0)]
        pair_rates(spec, reference=spec)
        assert sorted(solved) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_threads_share_one_solve_per_label(self, device_a, monkeypatch):
        """Sweep threads read one shared reference; each label is still solved once."""
        solved = []

        def counting(h, dims, labels, **kwargs):
            solved.extend(tuple(label) for label in labels)
            return original(h, dims, labels, **kwargs)

        original = spectrum.targeted_label_energies
        monkeypatch.setattr(spectrum, "DENSE_LIMIT", 8)
        monkeypatch.setattr(spectrum, "targeted_label_energies", counting)
        spec = undriven_reference(device_a)
        labels = spec.labels * 4
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
                energies = list(pool.map(spec.energy, labels, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert sorted(solved) == sorted(set(labels))
        assert energies == [spec.energy(label) for label in labels]


class TestPairRates:
    def test_static_zz_device_a(self, device_a):
        """Diagonalizing the coupled system reproduces the measured static ZZ."""
        rates = pair_rates(static_spectrum(device_a))
        assert rates.zz == pytest.approx(875e-6, rel=0.05)

    def test_zz_identity_is_exact(self, device_a):
        spec = static_spectrum(device_a)
        rates = pair_rates(spec)
        labels = [(0, 0), (0, 1), (1, 0), (1, 1)]
        e = {lab: spec.lab_energy(lab) for lab in labels}
        assert rates.zz == (e[(1, 1)] - e[(1, 0)]) - (e[(0, 1)] - e[(0, 0)])

    def test_self_reference_stark_shifts_zero(self, device_a):
        spec = undriven_reference(device_a)
        rates = pair_rates(spec, reference=spec)
        assert rates.stark_shift_q0 == 0.0
        assert rates.stark_shift_q1 == 0.0

    def test_device_a_cancellation_point(self, device_a):
        """Near-null ZZ and the measured Stark shifts at the operating point."""
        ref = undriven_reference(device_a)
        rates = driven_pair_rates(device_a.with_drives(cancellation_drives()),
                                  reference=ref)
        static = pair_rates(ref).zz
        # the nominal amplitudes approach the null: ZZ well below static
        assert abs(rates.zz) < 0.15 * static
        assert rates.stark_shift_q0 == pytest.approx(-7.8e-3, rel=0.30)
        assert rates.stark_shift_q1 == pytest.approx(-1.7e-3, rel=0.30)

    def test_frame_offset_consistency(self, device_a):
        """zz computed in the rotating frame equals the lab-frame value."""
        h_lab = build_rwa_hamiltonian(device_a.without_drives(), 0.0)
        h_rot = build_rwa_hamiltonian(device_a.without_drives(), 5.1)
        zz_lab = pair_rates(labeled_spectrum(h_lab, device_a.dims, 0.0)).zz
        zz_rot = pair_rates(labeled_spectrum(h_rot, device_a.dims, 5.1)).zz
        assert zz_lab == pytest.approx(zz_rot, abs=1e-12)


class TestSweeps:
    def test_phase_sweep_sinusoidal(self, device_a):
        system = device_a.with_drives(
            (DriveTone(0, 0.040, NU_D_FIG1, 0.0), DriveTone(1, 0.020, NU_D_FIG1, 0.0)))
        phis = np.linspace(0, 2 * math.pi, 41)
        samples = zz_vs_parameter(system, "drives.phase_difference", phis)
        zz = np.array([r.zz for _, r in samples])
        # least-squares fit to a + b cos(phi + phi0)
        design = np.stack([np.ones_like(phis), np.cos(phis), np.sin(phis)], axis=1)
        coef, *_ = np.linalg.lstsq(design, zz, rcond=None)
        model = design @ coef
        ss_res = np.sum((zz - model) ** 2)
        ss_tot = np.sum((zz - zz.mean()) ** 2)
        assert 1 - ss_res / ss_tot > 0.999
        phi0 = math.atan2(-coef[2], coef[1])
        assert abs(phi0) < math.radians(2.0)

    def test_phase_symmetry(self, device_a):
        system = device_a.with_drives(
            (DriveTone(0, 0.020, NU_D_FIG1, 0.0), DriveTone(1, 0.010, NU_D_FIG1, 0.0)))
        for phi in (0.4, 1.1, 2.5):
            plus = zz_vs_parameter(system, "drives.phase_difference", [phi])[0][1].zz
            minus = zz_vs_parameter(system, "drives.phase_difference", [-phi])[0][1].zz
            assert plus == pytest.approx(minus, abs=1e-9)

    def test_zero_amplitude_drive_leaves_static(self, device_a):
        system = device_a.with_drives(
            (DriveTone(0, 0.0, NU_D_FIG1, math.pi), DriveTone(1, 0.020, NU_D_FIG1, 0.0)))
        samples = zz_vs_parameter(system, "drives.scale", [0.25, 0.5, 1.0])
        static = pair_rates(undriven_reference(device_a)).zz
        zz = [r.zz for _, r in samples]
        # the bilinear product vanishes; only higher-order self-Stark terms
        # (tens of kHz at 20 MHz drive) move zz off the static value
        assert np.ptp(zz) < 0.02 * static
        assert zz[-1] == pytest.approx(static, rel=0.03)

    def test_static_recovery(self, device_a):
        """zz(phi) + zz(phi+pi) recovers twice the undriven value."""
        system = device_a.with_drives(
            (DriveTone(0, 0.020, NU_D_FIG1, 0.0), DriveTone(1, 0.010, NU_D_FIG1, 0.0)))
        static = pair_rates(undriven_reference(device_a)).zz
        phis = [0.0, 0.7, 1.9]
        both = zz_vs_parameter(system, "drives.phase_difference",
                               phis + [p + math.pi for p in phis])
        zz = [r.zz for _, r in both]
        modulation = 0.5 * abs(max(zz) - min(zz))
        for i, _ in enumerate(phis):
            total = zz[i] + zz[i + len(phis)]
            assert abs(total - 2 * static) < 0.05 * modulation

    def test_bilinearity_exponent(self, device_a):
        system = device_a.with_drives(
            (DriveTone(0, 0.015, NU_D_FIG1, math.pi), DriveTone(1, 0.0075, NU_D_FIG1, 0.0)))
        static = pair_rates(undriven_reference(device_a)).zz
        scales = np.linspace(0.3, 1.0, 8)
        samples = zz_vs_parameter(system, "drives.scale", scales)
        induced = np.abs([r.zz - static for _, r in samples])
        slope = np.polyfit(np.log(scales), np.log(induced), 1)[0]
        assert slope == pytest.approx(2.00, abs=0.05)

    def test_2d_null_contour_follows_amplitude_product(self, device_a):
        """Zero crossings of the 2D amplitude map satisfy a constant
        amplitude product."""
        import scipy.optimize
        static = pair_rates(undriven_reference(device_a)).zz

        def zz(amp0, amp1):
            drives = (DriveTone(0, amp0, 5.065, math.pi),
                      DriveTone(1, amp1, 5.065, 0.0))
            return driven_pair_rates(device_a.with_drives(drives)).zz

        products = []
        for amp0 in (0.040, 0.0475, 0.055):
            root = scipy.optimize.brentq(lambda a1: zz(amp0, a1), 1e-4, 0.09,
                                         xtol=1e-7)
            products.append(amp0 * root)
        spread = (max(products) - min(products)) / np.mean(products)
        assert spread < 0.10
        assert static > 0  # a null exists because the product term opposes it

    def test_parallel_matches_serial(self, device_a):
        system = device_a.with_drives(
            (DriveTone(0, 0.02, NU_D_FIG1, 0.0), DriveTone(1, 0.01, NU_D_FIG1, 0.0)))
        phis = np.linspace(0, math.pi, 7)
        serial = zz_vs_parameter(system, "drives.phase_difference", phis)
        parallel = zz_vs_parameter(system, "drives.phase_difference", phis, workers=4)
        for (v1, r1), (v2, r2) in zip(serial, parallel):
            assert v1 == v2
            assert r1.zz == r2.zz

    def test_unknown_axis(self, device_a):
        with pytest.raises(ValueError):
            zz_vs_parameter(device_a.with_drives(cancellation_drives()), "voltage", [1.0])


class TestEffectiveJ:
    def test_device_b_pair(self, device_b_pair):
        probe = (DriveTone(0, 0.01, 5.1, 0.0), DriveTone(1, 0.01, 5.1, 0.0))
        j_eff = effective_j(device_b_pair, probe)
        assert abs(j_eff) == pytest.approx(3.28e-3, abs=0.1e-3)

    def test_direct_self_consistency(self, device_b_pair):
        probe = (DriveTone(0, 0.01, 5.1, 0.0), DriveTone(1, 0.01, 5.1, 0.0))
        system = single_path_equivalent(device_b_pair, 3.28e-3)
        j_eff = effective_j(system, probe)
        assert j_eff == pytest.approx(3.28e-3, rel=0.02)

    def test_device_a_direct_recovery(self, device_a):
        probe = (DriveTone(0, 0.01, 5.1, 0.0), DriveTone(1, 0.01, 5.1, 0.0))
        j_eff = effective_j(device_a, probe)
        assert j_eff == pytest.approx(0.007745, rel=0.05)


class TestBareFit:
    def test_dressed_observables_reproduced(self, device_a):
        spec = static_spectrum(device_a)
        ground = (0, 0)
        e = spec.lab_energy
        assert e((1, 0)) - e(ground) == pytest.approx(4.960, abs=1e-9)
        assert e((0, 1)) - e(ground) == pytest.approx(5.016, abs=1e-9)
        assert e((2, 0)) - 2 * e((1, 0)) + e(ground) == pytest.approx(-0.283, abs=1e-9)
        assert e((0, 2)) - 2 * e((0, 1)) + e(ground) == pytest.approx(-0.287, abs=1e-9)

    def test_bare_values_differ_from_dressed(self, device_a):
        assert device_a.transmons[0].frequency != pytest.approx(4.960, abs=1e-5)

    def test_sparse_fit_matches_dense(self, device_a, monkeypatch):
        """Above DENSE_LIMIT the fit never builds a dense Hamiltonian: its
        labels come from Davidson solves of the sparse one, and the bare
        parameters agree with the dense fit."""
        builds = []

        def counting(system):
            builds.append(system.dims)
            return build_static_hamiltonian(system)

        monkeypatch.setattr(spectrum, "build_static_hamiltonian", counting)
        monkeypatch.setattr(spectrum, "DENSE_LIMIT", 16)
        # the fit reads only the layout and couplings of the system it is given
        fitted = fit_bare_transmons(device_a, (4.960, 5.016), (-0.283, -0.287))
        assert builds == []
        for got, ref in zip(fitted.transmons, device_a.transmons):
            assert got.frequency == pytest.approx(ref.frequency, abs=1e-12)
            assert got.anharmonicity == pytest.approx(ref.anharmonicity, abs=1e-12)


class TestTruncationConvergence:
    def test_zz_converged_at_five_levels(self, device_a):
        """Static and driven ZZ drift below 1 kHz from 5 to 6 levels."""
        drives = (DriveTone(0, 0.040, NU_D_FIG1, math.pi),
                  DriveTone(1, 0.020, NU_D_FIG1, 0.0))
        for levels in (5,):
            small = device_a.with_levels(levels).with_drives(drives)
            large = device_a.with_levels(levels + 1).with_drives(drives)
            zz_small = driven_pair_rates(small).zz
            zz_large = driven_pair_rates(large).zz
            assert abs(zz_small - zz_large) < 1e-6
        static_small = pair_rates(static_spectrum(device_a.with_levels(5))).zz
        static_large = pair_rates(static_spectrum(device_a.with_levels(6))).zz
        assert abs(static_small - static_large) < 1e-6
