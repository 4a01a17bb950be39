import math

import numpy as np
import pytest

from starkzz.errors import StepSizeError
from starkzz.operators import (DriveTone, SystemSpec, TransmonSpec, basis_label,
                               computational_labels, direct_coupling, index_to_label)
from starkzz import pulse
from starkzz.pulse import (BARRIER, STEP_CHUNK, TAYLOR_THETA, TWO_PI, Envelope,
                           EnvelopeKind, FrameChange, OperatingFrame, Play,
                           PulseSchedule, block_leakage, extract_pauli_rates,
                           gate_fidelity, propagate, sample_envelope, _DriveTerm,
                           _evolve, _fit_rotation, _frame_change_phases,
                           _ordered_product, _rotation_model, _step_exponentials)
from starkzz.spectrum import driven_pair_rates, undriven_reference

CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                dtype=complex)
CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)


def flat_top(amplitude, duration=50.0, sigma=10.0, rise=2.0, beta=0.0, gamma=0.0):
    if beta or gamma:
        return Envelope(EnvelopeKind.GAUSSIAN_DERIVATIVE_QUADRATURE, amplitude,
                        duration, sigma, rise, drag_beta=beta, skew_gamma=gamma)
    return Envelope(EnvelopeKind.FLAT_TOP_GAUSSIAN, amplitude, duration, sigma, rise)


def single_transmon(levels=5):
    return SystemSpec(transmons=(TransmonSpec(5.0, -0.3, levels),))


class TestEnvelope:
    def test_flat_top_value(self):
        env = flat_top(0.02)
        in_phase, quad = sample_envelope(env, 25.0)
        assert in_phase == pytest.approx(0.02)
        assert quad == 0.0

    def test_truncated_tails(self):
        env = flat_top(0.02, rise=2.0)
        start, _ = sample_envelope(env, 0.0)
        end, _ = sample_envelope(env, env.duration)
        assert start == pytest.approx(0.02 * math.exp(-2.0), rel=1e-12)
        assert end == pytest.approx(start)

    def test_zero_corrections_zero_quadrature(self):
        env = flat_top(0.02)
        for t in np.linspace(0, env.duration, 17):
            assert sample_envelope(env, t)[1] == 0.0

    def test_derivative_matches_finite_difference(self):
        env = flat_top(0.02, beta=1.0, gamma=0.0)
        eps = 1e-7
        for t in [3.0, 11.0, 19.9, 31.0, 44.0]:
            numeric = (sample_envelope(env, t + eps)[0]
                       - sample_envelope(env, t - eps)[0]) / (2 * eps)
            assert sample_envelope(env, t)[1] == pytest.approx(
                numeric, abs=1e-6 * env.amplitude)

    def test_skew_breaks_rise_fall_antisymmetry(self):
        env = flat_top(0.02, beta=0.5, gamma=0.2)
        rise_q = sample_envelope(env, 10.0)[1]
        fall_q = sample_envelope(env, env.duration - 10.0)[1]
        # pure DRAG would give fall = -rise; the skew term breaks that
        assert fall_q != pytest.approx(-rise_q, rel=1e-3)
        beta_only = flat_top(0.02, beta=0.5)
        assert sample_envelope(beta_only, env.duration - 10.0)[1] == pytest.approx(
            -sample_envelope(beta_only, 10.0)[1])

    def test_validation(self):
        with pytest.raises(ValueError):
            flat_top(0.02, duration=30.0, sigma=10.0, rise=2.0)  # too short
        with pytest.raises(ValueError):
            Envelope(EnvelopeKind.FLAT_TOP_GAUSSIAN, 0.02, 50.0, 10.0,
                     drag_beta=0.1)
        env = flat_top(0.02)
        with pytest.raises(ValueError):
            sample_envelope(env, -1.0)
        with pytest.raises(ValueError):
            sample_envelope(env, env.duration + 1.0)


class TestSchedule:
    def test_sequential_and_barrier_timing(self):
        env = flat_top(0.01)
        sched = PulseSchedule((Play(env, 5.0, 0.0, 0), Play(env, 5.0, 0.0, 1),
                               BARRIER, Play(env, 5.0, 0.0, 0)))
        plays, _, end = sched.timed_items(2)
        starts = [s for s, _ in plays]
        assert starts == [0.0, 0.0, 50.0]
        assert end == 100.0

    def test_total_duration_padding(self):
        sched = PulseSchedule((), total_duration=100.0)
        _, _, end = sched.timed_items(2)
        assert end == 100.0
        with pytest.raises(ValueError):
            PulseSchedule((Play(flat_top(0.01), 5.0, 0.0, 0),),
                          total_duration=10.0).timed_items(1)


class TestPropagateBasics:
    def test_idle_uncoupled_is_identity(self):
        system = SystemSpec(
            transmons=(TransmonSpec(4.96, -0.283, 5), TransmonSpec(5.016, -0.287, 5)))
        res = propagate(system, PulseSchedule((), total_duration=100.0))
        assert res.fidelity == pytest.approx(1.0, abs=1e-9)
        assert abs(res.leakage) < 1e-10
        assert np.allclose(res.computational_block, np.eye(4), atol=1e-8)

    def test_idle_coupled_accumulates_zz_phase(self, device_a):
        """The undriven coupled idle is diagonal with the static-ZZ phase on
        the 11 state; with that phase divided out it is the identity."""
        from starkzz.spectrum import pair_rates, labeled_spectrum
        from starkzz.operators import build_rwa_hamiltonian
        duration = 100.0
        res = propagate(device_a, PulseSchedule((), total_duration=duration))
        zz = pair_rates(labeled_spectrum(
            build_rwa_hamiltonian(device_a.without_drives(), 0.0), device_a.dims)).zz
        block = res.computational_block
        assert abs(res.leakage) < 1e-10
        assert np.allclose(np.diag(np.diag(block)), block, atol=1e-10)
        assert np.angle(block[3, 3]) == pytest.approx(-2 * math.pi * zz * duration,
                                                      abs=1e-9)
        assert np.allclose(np.diag(block)[:3], 1.0, atol=1e-9)

    def test_cw_dressed_idle_matches_spectrum_zz(self, device_a):
        drives = (DriveTone(0, 0.059, 5.1, math.pi), DriveTone(1, 0.022, 5.1, 0.0))
        system = device_a.with_drives(drives)
        duration = 100.0
        res = propagate(system, PulseSchedule((), total_duration=duration))
        zz = driven_pair_rates(system).zz
        assert np.angle(res.computational_block[3, 3]) == pytest.approx(
            -2 * math.pi * zz * duration, abs=1e-7)

    def test_unitarity(self, device_a):
        drives = (DriveTone(0, 0.059, 5.1, math.pi), DriveTone(1, 0.022, 5.1, 0.0))
        system = device_a.with_drives(drives)
        frame = OperatingFrame(system)
        nu_t = frame.dressed_frequency(0)
        sched = PulseSchedule((Play(flat_top(0.02, 90.0), nu_t, 0.0, 1),
                               Play(flat_top(0.002, 90.0), nu_t, 1.0, 0)))
        res = propagate(system, sched, frame=frame)
        defect = np.linalg.norm(
            res.full_unitary.conj().T @ res.full_unitary - np.eye(25))
        assert defect < 1e-9

    def test_dt_halving_second_order(self, device_a):
        frame = OperatingFrame(device_a, 4.96)
        nu_t = frame.dressed_frequency(0)
        sched = PulseSchedule((Play(flat_top(0.03, 90.0), nu_t, 0.0, 1),))
        blocks = {}
        for dt in (0.1, 0.05, 0.025):
            blocks[dt] = propagate(device_a, sched, dt=dt, frame=frame).computational_block
        d1 = np.linalg.norm(blocks[0.1] - blocks[0.05])
        d2 = np.linalg.norm(blocks[0.05] - blocks[0.025])
        assert d2 < d1 / 3.0  # second-order stepping
        assert d2 < 1e-3

    def test_gate_role_drives_rejected(self, device_a):
        from starkzz.operators import DriveRole
        bad = device_a.with_drives(
            (DriveTone(0, 0.01, 5.0, 0.0, DriveRole.GATE),))
        with pytest.raises(ValueError):
            propagate(bad, PulseSchedule((), total_duration=10.0))


def sequential_midpoint(frame, terms, t0, t1, dt, u):
    """Oracle: one midpoint exponential step at a time over [t0, t1]."""
    n = max(1, math.ceil((t1 - t0) / dt - 1e-9))
    h = (t1 - t0) / n
    for k in range(n):
        t = t0 + (k + 0.5) * h
        ham = frame.h_static.copy()
        for term in terms:
            if term.envelope is None or 0.0 <= t - term.start <= term.envelope.duration:
                c = complex(term.coefficient(t))
                low = frame.lowering[term.target]
                ham += c * low.conj().T + np.conj(c) * low
        vals, vecs = np.linalg.eigh(ham)
        u = (vecs * np.exp(-1j * TWO_PI * vals * h)) @ (vecs.conj().T @ u)
    return u


def sequential_run(frame, terms, stops, dt):
    """Oracle propagators at each of `stops`, stepping from 0."""
    u, t, out = np.eye(frame.dim, dtype=complex), 0.0, []
    for stop in stops:
        u = sequential_midpoint(frame, terms, t, stop, dt, u)
        out.append(u)
        t = stop
    return out


def count_eigh(monkeypatch):
    """Record the argument shape of every `np.linalg.eigh` call."""
    eigh, calls = np.linalg.eigh, []

    def counted(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def count_step_stacks(monkeypatch):
    """Record the shape of every stack passed to `_step_exponentials`."""
    kernel, calls = pulse._step_exponentials, []

    def counted(hams, h):
        calls.append(hams.shape)
        return kernel(hams, h)

    monkeypatch.setattr(pulse, "_step_exponentials", counted)
    return calls


@pytest.fixture(scope="module")
def qutrit_pair_frame():
    system = SystemSpec(
        transmons=(TransmonSpec(4.96, -0.283, 3), TransmonSpec(5.016, -0.287, 3)),
        couplings=(direct_coupling(0, 1, 0.007745),))
    return OperatingFrame(system, 5.0)


class TestOperatingFrame:
    """The frame's index maps on a layout with a bus mode (5, 5 and 3
    levels), against loops over the occupation tuples of every state."""

    def test_index_maps_match_label_loops(self, device_b_pair):
        frame = OperatingFrame(device_b_pair, 5.0)
        assert frame.dims == (5, 5, 3)
        labels = [index_to_label(k, frame.dims) for k in range(frame.dim)]
        ground = labels.index((0, 0, 0))
        eps = [frame.energies[labels.index(basis_label(3, {m: 1}))] - frame.energies[ground]
               for m in range(3)]
        rates = [frame.energies[ground] + sum(e * n for e, n in zip(eps, label))
                 for label in labels]
        assert frame.frame_rates.tolist() == rates  # same sums in the same order
        for mode in range(3):
            idx0 = [k for k, label in enumerate(labels) if label[mode] == 0]
            idx1 = [labels.index(labels[k][:mode] + (1,) + labels[k][mode + 1:])
                    for k in idx0]
            got0, got1 = frame.qubit_pairings(mode)
            assert got0.tolist() == idx0 and got1.tolist() == idx1
            phases = [np.exp(-0.37j * label[mode]) for label in labels]
            assert np.allclose(_frame_change_phases(frame, FrameChange(0.37, mode)),
                               phases, rtol=0.0, atol=1e-15)
        for q0, q1 in ((0, 1), (1, 0)):
            assert frame.computational_indices(q0, q1) == [
                labels.index(label) for label in computational_labels(3, q0, q1)]
        # gauge: each dressed state's own bare component is real and positive
        anchors = np.diagonal(frame.basis)
        assert np.all(anchors.real > 0.5) and np.allclose(anchors.imag, 0.0, atol=1e-15)


class TestStepExponentials:
    """The matmul-only step kernel against the eigenbasis exponential."""

    @pytest.mark.parametrize("dim", [4, 25])
    @pytest.mark.parametrize("scaled_norm", [0.0, 0.5 * TAYLOR_THETA, 50.0 * TAYLOR_THETA])
    def test_matches_eigh(self, dim, scaled_norm):
        """Zero, unsquared and six-times-squared stacks; 2 pi h |H|_1 is the
        largest scaled 1-norm in the stack."""
        rng = np.random.default_rng(dim)
        x = rng.normal(size=(9, dim, dim)) + 1j * rng.normal(size=(9, dim, dim))
        hams = x + x.conj().transpose(0, 2, 1)
        h = 0.05
        hams *= scaled_norm / (TWO_PI * h * np.abs(hams).sum(axis=1).max())
        got = _step_exponentials(hams, h)
        vals, vecs = np.linalg.eigh(hams)
        phases = np.exp(-1j * TWO_PI * vals * h)[:, None, :]
        oracle = (vecs * phases) @ vecs.conj().transpose(0, 2, 1)
        for u, ref in zip(got, oracle):
            assert np.linalg.norm(u - ref) < 1e-13
            assert np.linalg.norm(u.conj().T @ u - np.eye(dim)) < 1e-13


class TestStepping:
    """Batched and periodic stepping of `_evolve` against a plain
    sequential midpoint loop.  The detuning 0.0937 GHz gives a period
    (10.672 ns) that is no whole number of 0.05 ns steps."""

    def test_ordered_product_matches_loop(self):
        rng = np.random.default_rng(7)
        mats = rng.normal(size=(2 * STEP_CHUNK - 3, 4, 4)) + 0j
        expected = np.eye(4, dtype=complex)
        for m in mats:
            expected = m @ expected
        scale = np.linalg.norm(expected)
        assert np.linalg.norm(_ordered_product(mats) - expected) < 1e-12 * scale

    def test_shaped_steps_match_loop(self, qutrit_pair_frame, monkeypatch):
        """Rise and fall only (no flat top), DRAG and skew quadratures and a
        detuned carrier: non-commuting steps, none of them from an `eigh`.
        At dt = 0.05 ns each edge is 400 steps (not a multiple of the
        chunk); at dt = 1 ns the static part alone puts 2 pi h |H|_1 past
        twice TAYLOR_THETA, so every stack is squared."""
        frame = qutrit_pair_frame
        env = Envelope(EnvelopeKind.GAUSSIAN_DERIVATIVE_QUADRATURE, 0.03, 40.0,
                       10.0, 2.0, drag_beta=0.8, skew_gamma=0.3)
        term = _DriveTerm(target=0, start=0.0, envelope=env, amplitude=0.03,
                          detuning=0.0937, phase=0.4)
        assert (20.0 / 0.05) % STEP_CHUNK != 0
        assert TWO_PI * np.abs(frame.h_static).sum(axis=0).max() > 2 * TAYLOR_THETA
        calls = count_eigh(monkeypatch)
        stepped = {dt: _evolve(frame, [term], [], 40.0, dt)[0] for dt in (0.05, 1.0)}
        assert calls == []
        for dt, u in stepped.items():
            oracle = sequential_run(frame, [term], [20.0, 40.0], dt)[-1]
            assert np.linalg.norm(u - oracle) < 1e-12

    def test_periodic_tone_matches_loop(self, qutrit_pair_frame, monkeypatch):
        """A constant detuned tone over 50 periods, with a snapshot in the
        middle of a period: both stops fall in a partial period.  The
        result agrees with the stepwise oracle within the oracle's own
        step error, from one period stepped once for the whole stretch."""
        frame = qutrit_pair_frame
        tone = _DriveTerm(target=1, start=0.0, envelope=None, amplitude=0.03,
                          detuning=-0.0937, phase=0.4)
        stops = [123.45, 537.3]
        assert 537.3 * 0.0937 > 50
        calls = count_step_stacks(monkeypatch)
        u, snaps = _evolve(frame, [tone], [], stops[-1], 0.05, snapshot_times=stops)
        assert len(calls) < 40  # stepwise: 10746 steps in 336 chunks
        oracle = sequential_run(frame, [tone], stops, 0.05)
        fine = sequential_run(frame, [tone], stops, 0.025)
        assert np.array_equal(u, snaps[-1])
        for got, coarse, ref in zip(snaps, oracle, fine):
            step_error = np.linalg.norm(coarse - ref)
            assert np.linalg.norm(got - coarse) < step_error

    def test_snapshots_do_not_split_periodic_stretch(self, qutrit_pair_frame,
                                                     monkeypatch):
        """21 snapshots over about 30 periods, as the tomography takes them:
        the period is stepped once, the snapshots add one stack of short
        steps, and each snapshot is within the oracle's own step error."""
        frame = qutrit_pair_frame
        tone = _DriveTerm(target=1, start=0.0, envelope=None, amplitude=0.03,
                          detuning=-0.0937, phase=0.4)
        times = np.linspace(0.0, 30.3 / 0.0937, 21)
        calls = count_step_stacks(monkeypatch)
        u, snaps = _evolve(frame, [tone], [], times[-1], 0.05, snapshot_times=times)
        n_period = math.ceil(1.0 / 0.0937 / 0.05)
        assert len(calls) <= math.ceil(n_period / STEP_CHUNK) + 21 + 2
        oracle = sequential_run(frame, [tone], times[1:], 0.05)
        fine = sequential_run(frame, [tone], times[1:], 0.025)
        assert len(snaps) == 21 and np.array_equal(u, snaps[-1])
        assert np.array_equal(snaps[0], np.eye(frame.dim))
        for got, coarse, ref in zip(snaps[1:], oracle, fine):
            assert np.linalg.norm(got - coarse) < np.linalg.norm(coarse - ref)

    def test_snapshots_split_shaped_and_idle_stretches(self, qutrit_pair_frame):
        """Inside the rise and fall of a shaped-only Play snapshots split the
        steps and match the oracle stepped between the same stops.  The idle
        before and after the Play is a constant stretch: it is not split,
        and its snapshots, from powers of one dt step, match the oracle too."""
        frame = qutrit_pair_frame
        env = Envelope(EnvelopeKind.GAUSSIAN_DERIVATIVE_QUADRATURE, 0.03, 40.0,
                       10.0, 2.0, drag_beta=0.8, skew_gamma=0.3)
        play = _DriveTerm(target=0, start=7.5, envelope=env, amplitude=0.03,
                          detuning=0.0937, phase=0.4)
        snap_times = [3.0, 15.0, 33.0, 49.0]
        _, snaps = _evolve(frame, [play], [], 50.0, 0.05, snapshot_times=snap_times)
        stops = [3.0, 7.5, 15.0, 27.5, 33.0, 47.5, 49.0]
        oracle = dict(zip(stops, sequential_run(frame, [play], stops, 0.05)))
        assert len(snaps) == len(snap_times)
        for t, got in zip(snap_times, snaps):
            assert np.linalg.norm(got - oracle[t]) < 1e-12

    def test_constant_stretches_without_eigh(self, qutrit_pair_frame, monkeypatch):
        """Idle stretches and the flat top of a zero-detuning Play are
        constant Hamiltonians, stepped as periodic stretches of period dt:
        no `eigh`, and every snapshot matches the stepwise oracle."""
        frame = qutrit_pair_frame
        env = Envelope(EnvelopeKind.GAUSSIAN_DERIVATIVE_QUADRATURE, 0.03, 60.0,
                       10.0, 2.0, drag_beta=0.8, skew_gamma=0.3)
        play = _DriveTerm(target=0, start=7.5, envelope=env, amplitude=0.03,
                          detuning=0.0, phase=0.4)
        snap_times = [3.0, 33.0, 40.0, 70.0]
        calls = count_eigh(monkeypatch)
        u, snaps = _evolve(frame, [play], [], 80.0, 0.05, snapshot_times=snap_times)
        assert calls == []
        stops = [3.0, 7.5, 27.5, 33.0, 40.0, 47.5, 67.5, 70.0, 80.0]
        oracle = dict(zip(stops, sequential_run(frame, [play], stops, 0.05)))
        assert len(snaps) == len(snap_times)
        for t, got in zip([*snap_times, 80.0], [*snaps, u]):
            assert np.linalg.norm(got - oracle[t]) < 1e-12

    def test_flat_top_play_matches_loop(self, qutrit_pair_frame, monkeypatch):
        """A detuned flat-top Play whose flat middle spans 20 periods."""
        frame = qutrit_pair_frame
        env = Envelope(EnvelopeKind.GAUSSIAN_DERIVATIVE_QUADRATURE, 0.03, 254.0,
                       10.0, 2.0, drag_beta=0.8, skew_gamma=0.3)
        play = _DriveTerm(target=0, start=7.5, envelope=env, amplitude=0.03,
                          detuning=0.0937, phase=0.4)
        calls = count_step_stacks(monkeypatch)
        u, _ = _evolve(frame, [play], [], 270.0, 0.05)
        assert len(calls) < 60  # stepwise: 5080 steps in 159 chunks
        (coarse,) = sequential_run(frame, [play], [270.0], 0.05)
        (fine,) = sequential_run(frame, [play], [270.0], 0.025)
        assert np.linalg.norm(u - coarse) < np.linalg.norm(coarse - fine)


class TestFrameChangeAlgebra:
    def test_commutation_with_phase_shift(self):
        """FrameChange then Play equals the phase-shifted Play then
        FrameChange (virtual-Z commutation)."""
        system = single_transmon(4)
        env = flat_top(0.005)
        theta, phi = 0.81, 0.37
        u1 = propagate(system, PulseSchedule(
            (FrameChange(theta, 0), Play(env, 5.0, phi, 0))), q0=0, q1=0).full_unitary
        u2 = propagate(system, PulseSchedule(
            (Play(env, 5.0, phi + theta, 0), FrameChange(theta, 0))),
            q0=0, q1=0).full_unitary
        assert np.linalg.norm(u1 - u2) < 1e-9

    def test_frame_change_is_z_rotation(self):
        system = single_transmon(3)
        res = propagate(system, PulseSchedule((FrameChange(0.5, 0),),
                                              total_duration=0.0), q0=0, q1=0)
        assert np.allclose(np.diag(res.full_unitary),
                           [1.0, np.exp(-0.5j), np.exp(-1.0j)], atol=1e-12)


class TestTimeReversal:
    def test_two_level_inverse_schedule(self):
        """Reversed order with field-negating phase shifts and negated frame
        changes undoes a two-level schedule exactly."""
        system = SystemSpec(
            transmons=(TransmonSpec(4.96, -0.3, 2), TransmonSpec(5.016, -0.3, 2)))
        e1, e2 = flat_top(0.004), flat_top(0.002, duration=60.0)
        fwd = (Play(e1, 4.96, 0.3, 0), FrameChange(0.4, 0), Play(e2, 4.96, 1.0, 0))
        rev = (Play(e2, 4.96, 1.0 + math.pi, 0), FrameChange(-0.4, 0),
               Play(e1, 4.96, 0.3 + math.pi, 0))
        res = propagate(system, PulseSchedule(fwd + rev), q0=0, q1=1)
        assert np.linalg.norm(res.computational_block - np.eye(4)) < 1e-7

    def test_transmon_inverse_limited_by_light_shift(self):
        """With higher levels the even-order drive shifts do not invert; the
        residual is the accumulated quadratic phase, not an integrator bug."""
        system = single_transmon(5)
        amp = 0.001
        env = flat_top(amp)
        fwd = (Play(env, 5.0, 0.2, 0),)
        rev = (Play(env, 5.0, 0.2 + math.pi, 0),)
        res = propagate(system, PulseSchedule(fwd + rev), q0=0, q1=0)
        block = res.full_unitary[:2, :2]
        # light-shift phase scale: amplitude^2 / (2 |alpha|) over both pulses
        phase_budget = 2 * math.pi * (amp ** 2 / (2 * 0.3)) * 2 * env.flat_area / amp * amp
        err = np.linalg.norm(block - np.eye(2))
        assert err < 10 * max(phase_budget, 1e-6)


class TestGateFidelity:
    def test_exact_target(self):
        assert gate_fidelity(CNOT, CNOT) == pytest.approx(1.0)

    def test_global_phase_invariance(self):
        assert gate_fidelity(np.exp(0.7j) * CNOT, CNOT) == pytest.approx(1.0)

    def test_cz_vs_cnot(self):
        # (Tr(u u+) + |Tr(CNOT+ CZ)|^2) / 20 = (4 + 2^2) / 20
        assert gate_fidelity(CZ, CNOT) == pytest.approx(0.4)

    def test_leakage_range(self):
        assert block_leakage(np.eye(4)) == pytest.approx(0.0, abs=1e-15)
        assert block_leakage(np.zeros((4, 4))) == pytest.approx(1.0)


class TestRotationFit:
    def test_synthetic_zx_recovery(self):
        """Trajectory fits recover a hand-built conditional-x generator to
        0.1%: H = c ZX/4 gives conditional rates +-c/2, so the reported ZX
        (half the conditional difference) is c/2."""
        c = 1.7e-3
        times = np.linspace(0.0, 2.0 / c, 21)
        recovered = {}
        for sign in (+1.0, -1.0):
            p_true = np.array([sign * c / 2.0, 0.0, 0.0])
            traj = _rotation_model(p_true, times, np.array([0.0, 0.0, 1.0]))
            params, resid = _fit_rotation(times, traj)
            assert resid < 1e-9
            recovered[sign] = params[0]
        zx = 0.5 * (recovered[+1.0] - recovered[-1.0])
        assert zx == pytest.approx(c / 2.0, rel=1e-3)

    def test_joint_fit_of_two_trajectories(self):
        """A rotation about z leaves a ground-state trajectory still, so
        alone it fits no rate; fit jointly with an equator trajectory, both
        contribute residuals and seeds and the rate is recovered."""
        c = 1.7e-3
        times = np.linspace(0.0, 2.0 / c, 21)
        p_true = np.array([0.0, 0.0, c])
        still = _rotation_model(p_true, times, np.array([0.0, 0.0, 1.0]))
        moving = _rotation_model(p_true, times, np.array([1.0, 0.0, 0.0]))
        alone, _ = _fit_rotation(times, still)
        assert np.linalg.norm(alone) < 1e-3 * c
        params, resid = _fit_rotation(times, still, moving)
        assert resid < 1e-9
        assert params == pytest.approx(p_true, abs=1e-9 * c)


class TestScheduleDocuments:
    def test_round_trip(self):
        from starkzz.pulse import schedule_from_document, schedule_to_document
        sched = PulseSchedule((
            Play(flat_top(0.02, beta=0.4, gamma=0.1), 4.95, 0.3, 0),
            BARRIER,
            FrameChange(0.7, 1),
            Play(flat_top(0.01), 5.0, 0.0, 1)), total_duration=160.0)
        doc = schedule_to_document(sched)
        import json
        rebuilt = schedule_from_document(json.loads(json.dumps(doc)))
        assert rebuilt.total_duration == sched.total_duration
        assert len(rebuilt.items) == len(sched.items)
        orig_plays, orig_fcs, orig_end = sched.timed_items(2)
        new_plays, new_fcs, new_end = rebuilt.timed_items(2)
        assert orig_end == new_end
        for (t1, p1), (t2, p2) in zip(orig_plays, new_plays):
            assert t1 == t2 and p1 == p2
        assert orig_fcs == new_fcs


class TestExtractPauliRates:
    def test_no_coupling_zero_zx(self):
        system = SystemSpec(
            transmons=(TransmonSpec(4.96, -0.3, 3), TransmonSpec(5.016, -0.3, 3)))
        rates = extract_pauli_rates(system, 0.005, 4.96, control=1, target=0,
                                    dt=0.05)
        assert abs(rates["ZX"]) < 1e-6
        assert abs(rates["ZY"]) < 1e-6

    def test_two_level_conditional_rate(self):
        """Strict two-level pair: pure conditional rotation at J Omega / Delta
        with no common-mode part."""
        j, om = 0.007745, 0.002
        system = SystemSpec(
            transmons=(TransmonSpec(4.96, -0.3, 2), TransmonSpec(5.016, -0.3, 2)),
            couplings=(direct_coupling(0, 1, j),))
        frame = OperatingFrame(system, 4.96)
        nu_t = frame.dressed_frequency(0)
        rates = extract_pauli_rates(system, om, nu_t, control=1, target=0, dt=0.02)
        delta = 5.016 - 4.96
        assert abs(rates["ZX"]) == pytest.approx(j * om / delta, rel=0.05)
        assert abs(rates["IX"]) < 0.05 * abs(rates["ZX"])

    def test_device_a_slope_matches_first_order(self, device_a):
        from starkzz.perturbation import PerturbativeInputs, zx_first_order
        frame = OperatingFrame(device_a, 4.96)
        nu_t = frame.dressed_frequency(0)
        om = 0.002
        rates = extract_pauli_rates(device_a, om, nu_t, control=1, target=0)
        t0, t1 = device_a.transmons
        expected = zx_first_order(PerturbativeInputs(
            nu0=t0.frequency, nu1=t1.frequency, alpha0=t0.anharmonicity,
            alpha1=t1.anharmonicity, j=0.007745, nu_d=nu_t, omega_cr=om), cr_on=1)
        assert rates["ZX"] == pytest.approx(expected, rel=0.10)

    def test_tomography_zz_is_half_ramsey_zz(self, device_a):
        from starkzz.spectrum import pair_rates, static_spectrum
        frame = OperatingFrame(device_a, 4.96)
        nu_t = frame.dressed_frequency(0)
        rates = extract_pauli_rates(device_a, 0.002, nu_t, control=1, target=0)
        ramsey_zz = pair_rates(static_spectrum(device_a)).zz
        assert rates["ZZ"] == pytest.approx(ramsey_zz / 2.0, rel=0.05)
