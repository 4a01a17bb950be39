import json
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from starkzz.calibrate import _canonical_rotation, driven_zz_rate
from starkzz.config import load_preset, to_system
from starkzz.errors import TomographyFitError
from starkzz.operators import (DriveTone, SystemSpec, TransmonSpec, basis_label,
                               computational_labels, direct_coupling, index_to_label,
                               mode_operators)
from starkzz.perturbation import PerturbativeInputs, zx_with_cancellation
from starkzz import pulse
from starkzz.pulse import (DEFAULT_DT, STEP_CHUNK, TAYLOR_DEGREE, TAYLOR_THETA, TWO_PI,
                           Envelope, FrameChange, OperatingFrame, Play, PulseSchedule,
                           block_leakage, extract_pauli_rates, gate_fidelity, propagate,
                           rotation_vector, sample_envelope, _cf4_generators, _DriveTerm,
                           _evolve, _frame_change_phases, _ordered_product,
                           _step_exponentials)
from starkzz.spectrum import driven_pair_rates

CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                dtype=complex)
CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
#: Steps per stack of the stepwise oracle; bounds its memory.
ORACLE_CHUNK = 2048


def flat_top(amplitude, duration=50.0, sigma=10.0, rise=2.0, beta=0.0, gamma=0.0):
    return Envelope(amplitude, duration, sigma, rise, drag_beta=beta, skew_gamma=gamma)


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
        env = flat_top(0.02)
        with pytest.raises(ValueError):
            sample_envelope(env, -1.0)
        with pytest.raises(ValueError):
            sample_envelope(env, env.duration + 1.0)


class TestSchedule:
    def test_sequential_timing(self):
        """Each target keeps its own clock."""
        env = flat_top(0.01)
        sched = PulseSchedule((Play(env, 5.0, 0.0, 0), Play(env, 5.0, 0.0, 1),
                               Play(env, 5.0, 0.0, 0)))
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

    def test_dt_halving_fourth_order(self, device_a):
        frame = OperatingFrame(device_a, 4.96)
        nu_t = frame.dressed_frequency(0)
        sched = PulseSchedule((Play(flat_top(0.03, 90.0), nu_t, 0.0, 1),))
        blocks = {}
        for dt in (0.4, 0.2, 0.1):
            blocks[dt] = propagate(device_a, sched, dt=dt, frame=frame).computational_block
        d1 = np.linalg.norm(blocks[0.4] - blocks[0.2])
        d2 = np.linalg.norm(blocks[0.2] - blocks[0.1])
        assert d2 < d1 / 12.0  # fourth-order stepping: 16x per halving
        assert d2 < 1e-3


def sequential_cf4(frame, terms, t0, t1, dt, u):
    """Oracle: one CF4 step at a time over [t0, t1], each the product of two
    `eigh` exponentials of Hamiltonian combinations at the Gauss-Legendre
    nodes (Blanes & Moan, Appl. Numer. Math. 56, 1519 (2006)).  The node
    Hamiltonians and the exponentials of up to ORACLE_CHUNK steps are built
    as stacks; the factors are then applied one at a time, in order.

    `eigh`'s eigenvectors are unitary to about 1e-15, a defect that adds up
    over the thousands of factors of a long constant stretch to more than
    1e-12; one Newton-Schulz step toward the nearest unitary removes it."""
    n = max(1, math.ceil((t1 - t0) / dt - 1e-9))
    h = (t1 - t0) / n
    nodes = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
    a1, a2 = (3.0 - 2.0 * math.sqrt(3.0)) / 12.0, (3.0 + 2.0 * math.sqrt(3.0)) / 12.0

    def hamiltonians(times):
        hams = np.repeat(frame.h_static[None], len(times), axis=0)
        for term in terms:
            since = times - term.start
            on = np.full(len(times), True)
            if term.envelope is not None:
                on = (0.0 <= since) & (since <= term.envelope.duration)
            c = np.zeros(len(times), complex)
            c[on] = term.coefficient(times[on])
            low = mode_operators(frame.dims)[1][term.target].toarray()
            hams += c[:, None, None] * low.conj().T + np.conj(c)[:, None, None] * low
        return hams

    def exponentials(hams):
        vals, vecs = np.linalg.eigh(hams)
        vecs += 0.5 * vecs @ (np.eye(frame.dim) - vecs.conj().mT @ vecs)
        return (vecs * np.exp(-1j * TWO_PI * vals * h)[:, None, :]) @ vecs.conj().mT

    for first in range(0, n, ORACLE_CHUNK):
        k = np.arange(first, min(n, first + ORACLE_CHUNK))
        h1, h2 = (hamiltonians(t0 + (k + c) * h) for c in nodes)
        for late, early in zip(exponentials(a1 * h1 + a2 * h2),
                               exponentials(a2 * h1 + a1 * h2)):
            u = late @ (early @ u)
    return u


def sequential_run(frame, terms, stops, dt):
    """Oracle propagators at each of `stops`, stepping from 0."""
    u, t, out = np.eye(frame.dim, dtype=complex), 0.0, []
    for stop in stops:
        u = sequential_cf4(frame, terms, t, stop, dt, u)
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

    def counted(hams, h, work):
        calls.append(hams.shape)
        return kernel(hams, h, work)

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
            phases = [np.exp(-0.37j * label[mode]) for label in labels]
            assert np.allclose(_frame_change_phases(frame, FrameChange(0.37, mode)),
                               phases, rtol=0.0, atol=1e-15)
        for q0, q1 in ((0, 1), (1, 0)):
            assert frame.computational_indices(q0, q1) == [
                labels.index(label) for label in computational_labels(3, q0, q1)]
        # gauge: each dressed state's own bare component is real and positive
        anchors = np.diagonal(frame.basis)
        assert np.all(anchors.real > 0.5) and np.allclose(anchors.imag, 0.0, atol=1e-15)


def workspace(rows, dim):
    """A step-kernel workspace for stacks of up to `rows` matrices."""
    return np.empty((6, rows, dim, dim), dtype=complex)


def fresh_array_kernel(hams, h):
    """Reference step kernel: the operations of `_step_exponentials` in the
    same order, each into a new array instead of a workspace."""
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
        got = _step_exponentials(hams, h, workspace(9, dim))
        vals, vecs = np.linalg.eigh(hams)
        phases = np.exp(-1j * TWO_PI * vals * h)[:, None, :]
        oracle = (vecs * phases) @ vecs.conj().transpose(0, 2, 1)
        for u, ref in zip(got, oracle):
            assert np.linalg.norm(u - ref) < 1e-13
            assert np.linalg.norm(u.conj().T @ u - np.eye(dim)) < 1e-13

    @pytest.mark.parametrize("h", [0.02, DEFAULT_DT, 4.0])
    def test_workspace_kernel_is_bit_identical(self, h):
        """A device-a stack of 2 * STEP_CHUNK CF4 factors under a CR tone and
        a DRAG target pulse, built in the workspace as `_evolve` builds it:
        unsquared, squared three times at DEFAULT_DT and seven times at 4 ns,
        the workspace kernel returns exactly the fresh-array kernel's
        matrices, as a view into the workspace it was given."""
        frame = OperatingFrame(to_system(load_preset("device-a")), 5.1)
        detuning = frame.dressed_frequency(0) - 5.1
        terms = [_DriveTerm(1, 0.0, flat_top(0.024, 90.0), 0.024, detuning, 0.3),
                 _DriveTerm(0, 0.0, flat_top(0.0026, 90.0, beta=-0.52, gamma=0.01),
                            0.0026, detuning, -0.1)]
        work = workspace(2 * STEP_CHUNK, frame.dim)
        starts = np.linspace(0.0, 90.0 - h, STEP_CHUNK)  # rise, flat top and fall
        hams = _cf4_generators(frame, terms, starts, h, work[0])
        reference = fresh_array_kernel(hams.copy(), h / 2.0)
        got = _step_exponentials(hams, h / 2.0, work)
        assert got.shape == (2 * STEP_CHUNK, frame.dim, frame.dim)
        assert np.array_equal(got, reference)
        assert np.shares_memory(got, work)


class TestStepping:
    """Batched and periodic stepping of `_evolve` against a plain
    sequential CF4 loop.  The detuning 0.0937 GHz gives a period
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
        twice TAYLOR_THETA, so each factor's half step is past it and every
        stack is squared."""
        frame = qutrit_pair_frame
        env = Envelope(0.03, 40.0,
                       10.0, 2.0, drag_beta=0.8, skew_gamma=0.3)
        term = _DriveTerm(target=0, start=0.0, envelope=env, amplitude=0.03,
                          detuning=0.0937, phase=0.4)
        assert (20.0 / 0.05) % STEP_CHUNK != 0
        assert TWO_PI * np.abs(frame.h_static).sum(axis=0).max() > 2 * TAYLOR_THETA
        calls = count_eigh(monkeypatch)
        stepped = {dt: _evolve(frame, [term], [], 40.0, dt) for dt in (0.05, 1.0)}
        assert calls == []
        for dt, u in stepped.items():
            oracle = sequential_run(frame, [term], [20.0, 40.0], dt)[-1]
            assert np.linalg.norm(u - oracle) < 1e-12

    def test_periodic_tone_matches_loop(self, qutrit_pair_frame, monkeypatch):
        """A constant detuned tone run to two ends, one after about 12 periods
        and one after 50, each inside a period.  Each end agrees with the
        stepwise oracle within the oracle's own step error, each from one
        period stepped once for its whole stretch."""
        frame = qutrit_pair_frame
        tone = _DriveTerm(target=1, start=0.0, envelope=None, amplitude=0.03,
                          detuning=-0.0937, phase=0.4)
        stops = [123.45, 537.3]
        assert 537.3 * 0.0937 > 50
        calls = count_step_stacks(monkeypatch)
        ends = [_evolve(frame, [tone], [], stop, 0.05) for stop in stops]
        assert len(calls) < 40  # stepwise: 2469 + 10746 steps in 414 chunks
        oracle = sequential_run(frame, [tone], stops, 0.05)
        fine = sequential_run(frame, [tone], stops, 0.025)
        for got, coarse, ref in zip(ends, oracle, fine):
            step_error = np.linalg.norm(coarse - ref)
            assert np.linalg.norm(got - coarse) < step_error

    def test_snapshots_split_shaped_and_idle_stretches(self, qutrit_pair_frame):
        """Runs that end inside the rise and the fall of a shaped-only Play
        match the oracle stepped between the same breakpoints.  The idle
        before and after the Play is a constant stretch: runs that end in
        it, from powers of one dt step, match the oracle too."""
        frame = qutrit_pair_frame
        env = Envelope(0.03, 40.0,
                       10.0, 2.0, drag_beta=0.8, skew_gamma=0.3)
        play = _DriveTerm(target=0, start=7.5, envelope=env, amplitude=0.03,
                          detuning=0.0937, phase=0.4)
        stops = [3.0, 7.5, 15.0, 27.5, 33.0, 47.5, 49.0]
        oracle = dict(zip(stops, sequential_run(frame, [play], stops, 0.05)))
        for t in (3.0, 15.0, 33.0, 49.0):
            got = _evolve(frame, [play], [], t, 0.05)
            assert np.linalg.norm(got - oracle[t]) < 1e-12

    def test_constant_stretches_without_eigh(self, qutrit_pair_frame, monkeypatch):
        """Idle stretches and the flat top of a zero-detuning Play are
        constant Hamiltonians, stepped as periodic stretches of period dt:
        no `eigh`, and runs that end in them match the stepwise oracle."""
        frame = qutrit_pair_frame
        env = Envelope(0.03, 60.0,
                       10.0, 2.0, drag_beta=0.8, skew_gamma=0.3)
        play = _DriveTerm(target=0, start=7.5, envelope=env, amplitude=0.03,
                          detuning=0.0, phase=0.4)
        ends = [3.0, 33.0, 40.0, 70.0, 80.0]
        calls = count_eigh(monkeypatch)
        got = [_evolve(frame, [play], [], t, 0.05) for t in ends]
        assert calls == []
        stops = [3.0, 7.5, 27.5, 33.0, 40.0, 47.5, 67.5, 70.0, 80.0]
        oracle = dict(zip(stops, sequential_run(frame, [play], stops, 0.05)))
        for t, u in zip(ends, got):
            assert np.linalg.norm(u - oracle[t]) < 1e-12

    def test_flat_top_play_matches_loop(self, qutrit_pair_frame, monkeypatch):
        """A detuned flat-top Play whose flat middle spans 20 periods."""
        frame = qutrit_pair_frame
        env = Envelope(0.03, 254.0,
                       10.0, 2.0, drag_beta=0.8, skew_gamma=0.3)
        play = _DriveTerm(target=0, start=7.5, envelope=env, amplitude=0.03,
                          detuning=0.0937, phase=0.4)
        calls = count_step_stacks(monkeypatch)
        u = _evolve(frame, [play], [], 270.0, 0.05)
        assert len(calls) < 60  # stepwise: 5080 steps in 159 chunks
        (coarse,) = sequential_run(frame, [play], [270.0], 0.05)
        (fine,) = sequential_run(frame, [play], [270.0], 0.025)
        assert np.linalg.norm(u - coarse) < np.linalg.norm(coarse - fine)


class TestDefaultStep:
    def test_default_dt_error_and_stacks(self, monkeypatch):
        """The device-a preset with its CW tones, in the 5.1 GHz frame, under
        a 90 ns CR flat-top and a DRAG target pulse at the calibrated CNOT's
        amplitudes: at DEFAULT_DT the full unitary is within 1e-4 of the run
        at a quarter of it, from no more step stacks than the two 20 ns
        edges, the one stepped period of the flat top and the rest step to
        its end need at DEFAULT_DT."""
        system = to_system(load_preset("device-a"))
        frame = OperatingFrame(system, 5.1)
        carrier = frame.dressed_frequency(0)
        sched = PulseSchedule((Play(flat_top(0.024, 90.0), carrier, 0.0, 1),
                               Play(flat_top(0.0026, 90.0, beta=-0.52), carrier, 0.0, 0)))
        calls = count_step_stacks(monkeypatch)
        u = propagate(system, sched, frame=frame).full_unitary
        edge_steps = math.ceil(20.0 / DEFAULT_DT)
        period_steps = math.ceil(1.0 / abs(carrier - 5.1) / DEFAULT_DT)
        assert len(calls) <= (2 * math.ceil(edge_steps / STEP_CHUNK)
                              + math.ceil(period_steps / STEP_CHUNK) + 1)
        fine = propagate(system, sched, dt=DEFAULT_DT / 4, frame=frame).full_unitary
        assert np.linalg.norm(u - fine) < 1e-4


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


PAULIS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def su2_rotation(vector):
    """exp(-i/2 v.sigma) by scipy's matrix exponential, the read's oracle."""
    return scipy.linalg.expm(-0.5j * np.tensordot(vector, PAULIS, axes=1))


class TestRotationRead:
    def test_phase_and_leakage_do_not_move_the_read(self):
        """A global phase and a 0.99 shrink, standing in for leakage, leave
        the polar part and so the read unchanged."""
        vector = 1.3 * np.array([0.48, -0.6, 0.64])
        block = 0.99 * np.exp(0.7j) * su2_rotation(vector)
        assert np.abs(rotation_vector(block) - vector).max() < 1e-12

    @settings(deadline=None)
    @given(axis=st.tuples(*[st.floats(-1.0, 1.0)] * 3)
           .filter(lambda v: np.linalg.norm(v) > 0.1),
           angle=st.floats(0.0, math.pi - 1e-9, exclude_min=True),
           phase=st.floats(-math.pi, math.pi))
    @example(axis=(0.0, 1.0, 0.0), angle=math.pi - 1e-9, phase=math.pi)
    def test_round_trip_any_axis_below_a_half_turn(self, axis, angle, phase):
        """Within rounding of a half turn either branch, the same rotation,
        may come back; the next test takes the branch past it."""
        vector = np.asarray(axis) / np.linalg.norm(axis) * angle
        read = rotation_vector(np.exp(1j * phase) * su2_rotation(vector))
        assert np.abs(read - vector).max() < 1e-10

    def test_past_a_half_turn_returns_on_the_desired_branch(self):
        """pi + 0.05 about n reads as pi - 0.05 about -n, the same rotation;
        `_canonical_rotation` puts it back on the branch nearest the goal."""
        n = np.array([-1.0, 0.0, 0.0])
        vector = (math.pi + 0.05) * n
        read = rotation_vector(su2_rotation(vector))
        assert np.abs(read + (math.pi - 0.05) * n).max() < 1e-12
        assert np.abs(_canonical_rotation(read, math.pi * n) - vector).max() < 1e-12

    def test_identity_reads_zero(self):
        assert rotation_vector(np.exp(0.3j) * np.eye(2)).tolist() == [0.0, 0.0, 0.0]


class TestScheduleDocuments:
    def test_round_trip(self):
        """The document of a schedule survives JSON and spells out every
        item kind and the padding."""
        from starkzz.pulse import schedule_to_document
        sched = PulseSchedule((
            Play(flat_top(0.02, beta=0.4, gamma=0.1), 4.95, 0.3, 0),
            FrameChange(0.7, 1)), total_duration=160.0)
        doc = json.loads(json.dumps(schedule_to_document(sched)))
        assert doc == {
            "items": [
                {"type": "play", "target": 0, "carrier_frequency": 4.95,
                 "carrier_phase": 0.3,
                 "envelope": {"amplitude": 0.02, "duration": 50.0, "sigma": 10.0,
                              "rise_fall_sigmas": 2.0, "drag_beta": 0.4,
                              "skew_gamma": 0.1}},
                {"type": "frame_change", "angle": 0.7, "target": 1}],
            "total_duration": 160.0}


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
        assert sorted(rates) == ["IX", "IY", "IZ", "ZX", "ZY", "ZZ"]

    def test_read_angle_above_bound_raises(self, device_a, monkeypatch):
        """A read past MAX_READ_ANGLE, where the branch is ambiguous, fails
        fast and names its angle."""
        monkeypatch.setattr(pulse, "MAX_READ_ANGLE", 0.0)
        frame = OperatingFrame(device_a, 4.96)
        with pytest.raises(TomographyFitError, match=r"control state 0: the target "
                                                      r"turns [0-9.e-]+ rad"):
            extract_pauli_rates(device_a, 0.008, frame.dressed_frequency(0),
                                control=1, target=0)

    def test_read_period_above_bound_raises(self, device_a, monkeypatch):
        """A tone 0.5 MHz off the frame repeats every 2 us, past
        MAX_READ_PERIOD: the read fails before any step stack is built and
        names the detuning and the period."""
        frame = OperatingFrame(device_a, 4.96)
        calls = count_step_stacks(monkeypatch)
        with pytest.raises(TomographyFitError, match=r"0\.0005 GHz from the 4\.96 GHz "
                                                      r"frame repeats every 2000 ns"):
            extract_pauli_rates(device_a, 0.002, 4.9605, control=1, target=0, frame=frame)
        assert calls == []

    def test_signed_amplitudes_give_opposite_zx(self):
        """A 4 MHz tone and its negative, as the `zx` amplitude grid passes
        them, turn the target the opposite way: ZX flips its sign and keeps
        its magnitude within 1 % (0.2 % today)."""
        system = to_system(load_preset("device-a"))
        frame = OperatingFrame(system)
        carrier = frame.dressed_frequency(0)
        plus, minus = (extract_pauli_rates(system, a, carrier, control=1, target=0,
                                           frame=frame)["ZX"] for a in (0.004, -0.004))
        assert plus * minus < 0.0
        assert abs(plus + minus) < 0.01 * abs(plus)

    @pytest.mark.parametrize("tones_on, tolerance", [(True, 0.01), (False, 0.05)])
    def test_zx_near_closed_form(self, tones_on, tolerance):
        """ZX against `zx_with_cancellation` at 2, 5 and 10 MHz, as
        criterion 7 takes it: tones on in the tones' frame, within 1 %
        (0.09-0.17 % today); tones off at the target's dressed frequency,
        within 5 % (2.8-3.8 % today)."""
        system = to_system(load_preset("device-a"))
        if tones_on:
            frame = OperatingFrame(system)
        else:
            system = system.without_drives()
            frame = OperatingFrame(system, system.transmons[0].frequency)
        inputs = PerturbativeInputs.for_pair(system, 0, 1)
        for omega in (0.002, 0.005, 0.010):
            zx = extract_pauli_rates(system, omega, frame.dressed_frequency(0),
                                     control=1, target=0)["ZX"]
            expected = zx_with_cancellation(replace(inputs, omega_cr=omega), cr_on=1)
            assert zx == pytest.approx(expected, rel=tolerance)


def zz_phase(frame, u_frame, t, q0, q1):
    """Conditional phase of the (q0, q1) computational diagonal of an
    operating-frame propagator at time t."""
    u_op = frame.to_operating(u_frame, t)
    d = [u_op[i, i] for i in frame.computational_indices(q0, q1)]
    return float(np.angle(d[0] * d[3] * np.conj(d[1] * d[2])))


class TestDrivenZzRateDetuned:
    """The CZ phase precalibration's read, with the tones detuned from the
    frame as the gate's are: whole periods of one period propagator."""

    def test_detuned_tones_match_stepwise_oracle(self, qutrit_pair_frame):
        """Tones 93.7 MHz below the frame (period 10.672 ns) over a 120 ns
        window read at m T and 2 m T, m = 6, against the oracle stepped to
        the same two times: within the oracle's own step error."""
        frame, dt = qutrit_pair_frame, DEFAULT_DT
        tones = (DriveTone(0, 0.03, 4.9063, 0.7), DriveTone(1, 0.015, 4.9063, 0.0))
        period = 1.0 / 0.0937
        m = round(120.0 / (2.0 * period))
        assert m == 6
        rate = driven_zz_rate(frame.system, tones, duration=120.0, dt=dt, frame=frame)
        terms = [_DriveTerm(target=t.target, start=0.0, envelope=None, amplitude=t.amplitude,
                            detuning=t.frequency - frame.frame_frequency, phase=t.phase)
                 for t in tones]
        stops = [m * period, 2 * m * period]

        def oracle_rate(step):
            phases = [zz_phase(frame, u, t, 0, 1)
                      for u, t in zip(sequential_run(frame, terms, stops, step), stops)]
            return -(phases[1] - phases[0]) / (TWO_PI * m * period)

        coarse, fine = oracle_rate(dt), oracle_rate(dt / 2)
        assert abs(coarse) > 1e-4
        assert abs(rate - coarse) < abs(coarse - fine)

    def test_tones_at_two_frequencies_raise(self, qutrit_pair_frame):
        tones = (DriveTone(0, 0.03, 4.9063, 0.0), DriveTone(1, 0.015, 4.95, 0.0))
        with pytest.raises(ValueError, match="2 frequencies"):
            driven_zz_rate(qutrit_pair_frame.system, tones, frame=qutrit_pair_frame)
