import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from starkzz.errors import DimensionCapError, MultiFrequencyFrameError
from starkzz.operators import (CouplingKind, CouplingSpec, DriveTone, SystemSpec,
                               TransmonSpec, bare_index, build_rwa_hamiltonian,
                               build_rwa_hamiltonian_sparse,
                               build_static_hamiltonian, bus_coupling,
                               direct_coupling, is_hermitian, ladder_ops,
                               mode_operators, undriven_rwa_hamiltonian, _pattern)


def kron_embed(op, slot, dims):
    """Explicit I (x) ... (x) op (x) ... (x) I with op at `slot`."""
    out = np.eye(1)
    for m, d in enumerate(dims):
        out = np.kron(out, op if m == slot else np.eye(d))
    return out


def two_transmon_system(nu0=4.96, nu1=5.016, al0=-0.283, al1=-0.287,
                        j=0.007745, levels=5, drives=()):
    return SystemSpec(
        transmons=(TransmonSpec(nu0, al0, levels), TransmonSpec(nu1, al1, levels)),
        couplings=(direct_coupling(0, 1, j),),
        drives=drives)


class TestLadderOps:
    def test_qubit_case(self):
        lowering, raising = ladder_ops(2)
        assert np.allclose(lowering, [[0, 1], [0, 0]])
        assert np.allclose(raising, lowering.conj().T)

    def test_three_levels(self):
        lowering, _ = ladder_ops(3)
        assert lowering[0, 1] == 1.0
        assert lowering[1, 2] == pytest.approx(math.sqrt(2))
        assert np.count_nonzero(lowering) == 2

    @pytest.mark.parametrize("levels", [2, 3, 5, 8])
    def test_number_operator_identity(self, levels):
        lowering, raising = ladder_ops(levels)
        assert np.allclose(raising @ lowering, np.diag(np.arange(levels)))

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            ladder_ops(1)


class TestEmbed:
    """Mode embedding as done by the cached per-layout operators."""

    def test_first_slot_is_left_kron_factor(self):
        a, adag = ladder_ops(2)
        _, lowering, raising = mode_operators((2, 2))
        assert np.array_equal(lowering[0].toarray(), np.kron(a, np.eye(2)))
        assert np.array_equal(lowering[1].toarray(), np.kron(np.eye(2), a))
        assert np.array_equal(raising[0].toarray(), np.kron(adag, np.eye(2)))

    def test_number_embeds_to_occupations(self):
        dims = (2, 3, 4)
        occupations, lowering, raising = mode_operators(dims)
        for slot, d in enumerate(dims):
            number = np.diag(np.arange(d, dtype=float))
            assert np.array_equal(np.diag(occupations[slot]), kron_embed(number, slot, dims))
            product = raising[slot].toarray() @ lowering[slot].toarray()
            assert np.allclose(product, np.diag(occupations[slot]), atol=1e-14)

    def test_disjoint_slots_commute(self):
        _, lowering, (_, raising) = mode_operators((3, 3))
        a0, a1, a1dag = (op.toarray() for op in (*lowering, raising))
        assert np.allclose(a0 @ a1 - a1 @ a0, 0)
        assert np.allclose(a0 @ a1dag - a1dag @ a0, 0)

    def test_errors(self):
        with pytest.raises(ValueError):
            mode_operators((2, 1))

    def test_cached_per_dims_and_read_only(self):
        ops = mode_operators((3, 2))
        assert mode_operators((3, 2)) is ops
        occupations, lowering, raising = ops
        arrays = [occupations]
        for matrix in lowering + raising:
            arrays += [matrix.data, matrix.indices, matrix.indptr]
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1


class TestSpecValidation:
    def test_transmon_invariants(self):
        with pytest.raises(ValueError):
            TransmonSpec(5.0, -0.3, levels=1)
        with pytest.raises(ValueError):
            TransmonSpec(-5.0, -0.3)
        with pytest.raises(ValueError):
            TransmonSpec(5.0, 0.0)

    def test_coupling_field_discipline(self):
        with pytest.raises(ValueError):
            CouplingSpec(CouplingKind.DIRECT, (0, 1))  # missing strength
        with pytest.raises(ValueError):
            CouplingSpec(CouplingKind.BUS, (0, 1), strength=0.01)
        with pytest.raises(ValueError):
            CouplingSpec(CouplingKind.DIRECT, (1, 1), strength=0.01)

    def test_drive_phase_normalized(self):
        d = DriveTone(0, 0.01, 5.0, phase=-math.pi)
        assert 0.0 <= d.phase < 2 * math.pi
        assert d.phase == pytest.approx(math.pi)

    def test_duplicate_same_kind_coupling_rejected(self):
        with pytest.raises(ValueError):
            SystemSpec(
                transmons=(TransmonSpec(4.9, -0.3), TransmonSpec(5.0, -0.3)),
                couplings=(direct_coupling(0, 1, 0.01), direct_coupling(1, 0, 0.02)))

    def test_direct_plus_bus_on_same_pair_allowed(self):
        sys_b = SystemSpec(
            transmons=(TransmonSpec(4.85, -0.29), TransmonSpec(4.95, -0.29)),
            couplings=(direct_coupling(0, 1, 0.0106),
                       bus_coupling(0, 1, 6.35, (0.135, 0.135))))
        assert sys_b.dims == (5, 5, 3)

    def test_dimension_cap(self):
        with pytest.raises(DimensionCapError):
            SystemSpec(transmons=tuple(TransmonSpec(5.0, -0.3, 8) for _ in range(5)))
        # explicit override
        big = SystemSpec(transmons=tuple(TransmonSpec(5.0, -0.3, 8) for _ in range(5)),
                         dimension_cap=None)
        assert big.total_dimension == 8 ** 5


class TestStaticHamiltonian:
    def test_uncoupled_is_bare_duffing(self):
        system = two_transmon_system(j=0.0)
        h = build_static_hamiltonian(system)
        vals = np.sort(np.linalg.eigvalsh(h))
        expected = []
        for n0 in range(5):
            for n1 in range(5):
                expected.append(4.96 * n0 + 0.5 * -0.283 * n0 * (n0 - 1)
                                + 5.016 * n1 + 0.5 * -0.287 * n1 * (n1 - 1))
        assert np.allclose(vals, np.sort(expected), atol=1e-12)

    def test_hermitian(self):
        h = build_static_hamiltonian(two_transmon_system())
        assert is_hermitian(h)

    def test_device_b_matches_elementwise_oracle(self):
        """Independent index-by-index construction of the bus Hamiltonian."""
        nu0, nu1, al = 4.85, 4.95, -0.29
        j, g, nub = 0.0106, 0.135, 6.35
        lv, lb = 4, 3
        system = SystemSpec(
            transmons=(TransmonSpec(nu0, al, lv), TransmonSpec(nu1, al, lv)),
            couplings=(direct_coupling(0, 1, j), bus_coupling(0, 1, nub, (g, g), lb)))
        h = build_static_hamiltonian(system)

        dims = (lv, lv, lb)
        dim = lv * lv * lb

        def idx(n0, n1, nb):
            return (n0 * lv + n1) * lb + nb

        oracle = np.zeros((dim, dim), dtype=complex)
        for n0 in range(lv):
            for n1 in range(lv):
                for nb in range(lb):
                    i = idx(n0, n1, nb)
                    oracle[i, i] = (nu0 * n0 + 0.5 * al * n0 * (n0 - 1)
                                    + nu1 * n1 + 0.5 * al * n1 * (n1 - 1)
                                    + nub * nb)
                    # direct (a0+ + a0)(a1+ + a1): four ladder combinations
                    for s0, s1 in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                        m0, m1 = n0 + s0, n1 + s1
                        if 0 <= m0 < lv and 0 <= m1 < lv:
                            w0 = math.sqrt(max(n0, m0))
                            w1 = math.sqrt(max(n1, m1))
                            oracle[idx(m0, m1, nb), i] += j * w0 * w1
                    # bus couplings
                    for (nq, qslot) in ((n0, 0), (n1, 1)):
                        for sq, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                            mq, mb = nq + sq, nb + sb
                            if 0 <= mq < lv and 0 <= mb < lb:
                                wq = math.sqrt(max(nq, mq))
                                wb = math.sqrt(max(nb, mb))
                                if qslot == 0:
                                    oracle[idx(mq, n1, mb), i] += g * wq * wb
                                else:
                                    oracle[idx(n0, mq, mb), i] += g * wq * wb
        assert h.shape == oracle.shape == (dim, dim)
        assert np.allclose(h, oracle, atol=1e-14)


class TestCachedBuilders:
    """Builders from cached terms against an explicit np.kron oracle."""

    NU = (4.85, 4.95)
    ALPHA = (-0.29, -0.31)
    J, G, NU_B = 0.0106, (0.135, 0.12), 6.35
    DIMS = (4, 3, 3)
    DRIVES = (DriveTone(0, 0.04, 5.1, 0.3), DriveTone(1, 0.02, 5.1, 2.0))

    def system(self):
        return SystemSpec(
            transmons=tuple(TransmonSpec(nu, al, lv) for nu, al, lv
                            in zip(self.NU, self.ALPHA, self.DIMS)),
            couplings=(direct_coupling(0, 1, self.J),
                       bus_coupling(0, 1, self.NU_B, self.G, self.DIMS[2])),
            drives=self.DRIVES)

    def oracle(self, frame, rwa):
        dims = self.DIMS
        a = [kron_embed(ladder_ops(d)[0], m, dims) for m, d in enumerate(dims)]
        adag = [op.conj().T for op in a]
        number = [kron_embed(np.diag(np.arange(d, dtype=float)), m, dims)
                  for m, d in enumerate(dims)]
        h = (self.NU_B - frame) * number[2]
        for m in (0, 1):
            n = number[m]
            h = h + (self.NU[m] - frame) * n + 0.5 * self.ALPHA[m] * n @ (n - np.eye(len(n)))

        def coupling(p, q, g):
            if rwa:
                return g * (adag[p] @ a[q] + a[p] @ adag[q])
            return g * (a[p] + adag[p]) @ (a[q] + adag[q])

        h = h + coupling(0, 1, self.J) + coupling(0, 2, self.G[0]) + coupling(1, 2, self.G[1])
        if rwa:
            for d in self.DRIVES:
                h = h + 0.5 * d.amplitude * (np.exp(1j * d.phase) * adag[d.target]
                                             + np.exp(-1j * d.phase) * a[d.target])
        return h

    def test_static_matches_kron_oracle(self):
        h = build_static_hamiltonian(self.system())
        np.testing.assert_allclose(h, self.oracle(0.0, rwa=False), rtol=0, atol=1e-13)

    def test_rwa_matches_kron_oracle(self):
        h = build_rwa_hamiltonian(self.system(), 5.1)
        np.testing.assert_allclose(h, self.oracle(5.1, rwa=True), rtol=0, atol=1e-13)


class TestRwaHamiltonian:
    def test_diagonal_case(self):
        system = two_transmon_system(j=0.0)
        h = build_rwa_hamiltonian(system, 5.0)
        assert np.allclose(h, np.diag(np.diag(h)))
        n = np.arange(5)
        d0 = (4.96 - 5.0) * n + 0.5 * -0.283 * n * (n - 1)
        assert np.allclose(np.diag(h)[::5][:5].real, d0 + 0.0)

    def test_phase_periodicity(self):
        drives = (DriveTone(0, 0.02, 5.075, 0.7), DriveTone(1, 0.01, 5.075, 0.3))
        system = two_transmon_system(drives=drives)
        h1 = build_rwa_hamiltonian(system, 5.075)
        shifted = (DriveTone(0, 0.02, 5.075, 0.7 + 2 * math.pi),
                   DriveTone(1, 0.01, 5.075, 0.3))
        h2 = build_rwa_hamiltonian(system.with_drives(shifted), 5.075)
        assert np.allclose(h1, h2, atol=1e-14)

    def test_global_phase_gauge(self):
        """Only the phase difference is physical: spectra agree to 1e-12."""
        base = (DriveTone(0, 0.04, 5.075, math.pi), DriveTone(1, 0.02, 5.075, 0.0))
        offset = (DriveTone(0, 0.04, 5.075, math.pi + 1.234),
                  DriveTone(1, 0.02, 5.075, 1.234))
        system = two_transmon_system()
        e1 = np.linalg.eigvalsh(build_rwa_hamiltonian(system.with_drives(base), 5.075))
        e2 = np.linalg.eigvalsh(build_rwa_hamiltonian(system.with_drives(offset), 5.075))
        assert np.max(np.abs(e1 - e2)) < 1e-12

    def test_mixed_frequencies_rejected(self):
        drives = (DriveTone(0, 0.02, 5.1), DriveTone(1, 0.01, 4.9))
        system = two_transmon_system(drives=drives)
        with pytest.raises(MultiFrequencyFrameError):
            build_rwa_hamiltonian(system, 5.1)

    def test_frame_consistency_uncoupled(self):
        """Without coupling the frame shift is exactly -f per excitation."""
        from starkzz.spectrum import labeled_spectrum
        system = two_transmon_system(j=0.0)
        f = 5.05
        static_spec = labeled_spectrum(build_static_hamiltonian(system), system.dims)
        rwa_spec = labeled_spectrum(build_rwa_hamiltonian(system, f), system.dims,
                                    frame_frequency=f)
        for label in static_spec.labels:
            expected = static_spec.energy(label) - f * sum(label)
            assert rwa_spec.energy(label) == pytest.approx(expected, abs=1e-10)

    def test_frame_consistency_coupled_within_counterrotating_budget(self):
        """With J on, RWA and lab spectra differ only by counter-rotating
        level shifts, of order J^2 over the sum frequency."""
        from starkzz.spectrum import labeled_spectrum
        system = two_transmon_system()
        f = 5.0
        static_spec = labeled_spectrum(build_static_hamiltonian(system), system.dims)
        rwa_spec = labeled_spectrum(build_rwa_hamiltonian(system, f), system.dims,
                                    frame_frequency=f)
        budget = 20 * 0.007745 ** 2 / (4.96 + 5.016)
        for label in static_spec.labels:
            if sum(label) > 2:
                continue
            diff = abs(rwa_spec.energy(label) + f * sum(label) - static_spec.energy(label))
            assert diff < budget

    def test_drive_term_structure(self):
        system = SystemSpec(transmons=(TransmonSpec(5.0, -0.3, 2),),
                            drives=(DriveTone(0, 0.02, 5.0, 0.5),))
        h = build_rwa_hamiltonian(system, 5.0)
        assert h[1, 0] == pytest.approx(0.01 * np.exp(1j * 0.5))
        assert h[0, 1] == pytest.approx(0.01 * np.exp(-1j * 0.5))


def kron_sum(system, frame_frequency, rwa):
    """The drive-free Hamiltonian as a scipy.sparse sum of `ladder_ops` krons:
    each transmon's Duffing diagonal, then per coupling in declaration order
    its bus mode's diagonal and its terms, (a_p^+ a_q, a_p a_q^+) in the
    exchange form or (a_p + a_p^+)(a_q + a_q^+) in full."""
    dims = system.dims

    def embed(op, slot):
        out = scipy.sparse.identity(1, dtype=complex, format="csr")
        for m, d in enumerate(dims):
            factor = op if m == slot else np.eye(d)
            out = scipy.sparse.kron(out, scipy.sparse.csr_matrix(factor), format="csr")
        return out

    a = [embed(ladder_ops(d)[0], m) for m, d in enumerate(dims)]
    adag = [embed(ladder_ops(d)[1], m) for m, d in enumerate(dims)]
    h = scipy.sparse.csr_matrix((system.total_dimension,) * 2, dtype=complex)
    for m, t in enumerate(system.transmons):
        levels = np.arange(t.levels, dtype=float)
        h = h + embed(np.diag((t.frequency - frame_frequency) * levels
                              + 0.5 * t.anharmonicity * levels * (levels - 1.0)), m)

    def coupling(p, q, g):
        if rwa:
            return g * (adag[p] @ a[q]) + g * (a[p] @ adag[q])
        return g * ((a[p] + adag[p]) @ (a[q] + adag[q]))

    bus_slot = system.num_transmons
    for c in system.couplings:
        p, q = c.endpoints
        if c.kind is CouplingKind.DIRECT:
            h = h + coupling(p, q, c.strength)
            continue
        number = np.diag(np.arange(c.bus_levels, dtype=float))
        h = h + (c.bus_frequency - frame_frequency) * embed(number, bus_slot)
        for endpoint, g in zip((p, q), c.bus_couplings):
            h = h + coupling(endpoint, bus_slot, g)
        bus_slot += 1
    return h, a, adag


def per_tone_sum(system, frame_frequency):
    """The RWA Hamiltonian as a scipy.sparse sum: the undriven `kron_sum`,
    then each drive's ladder terms one at a time in declaration order."""
    h, a, adag = kron_sum(system, frame_frequency, rwa=True)
    for d in system.drives:
        half = 0.5 * d.amplitude
        h = h + (half * np.exp(1j * d.phase) * adag[d.target]
                 + half * np.exp(-1j * d.phase) * a[d.target])
    return h.toarray()


def test_static_equals_kron_sum(device_a, device_b_pair, three_transmon_chain):
    """Every entry of the counter-rotating Hamiltonian is bit-equal to the
    scipy.sparse sum, with a bus mode (device-b pair) and a chain among them."""
    for system in (device_a, device_b_pair, three_transmon_chain):
        reference = kron_sum(system, 0.0, rwa=False)[0].toarray()
        assert np.array_equal(build_static_hamiltonian(system), reference)


@pytest.mark.parametrize("positions", [
    np.random.default_rng(0).integers(0, 7, size=(2, 60)),  # repeats
    np.array([[3], [4]]),  # one entry
    np.array(np.divmod(np.random.default_rng(1).permutation(49)[:20], 7))],  # distinct
    ids=["repeats", "one-entry", "no-repeats"])
def test_pattern_is_np_unique(positions):
    """`_pattern`'s keys and slots are `np.unique(..., return_inverse=True)`'s,
    bit for bit and dtype for dtype, although it never calls it."""
    dim = 7
    rows, cols = positions
    indices, indptr, slots = _pattern(dim, rows, cols)
    keys, inverse = np.unique(rows * dim + cols, return_inverse=True)
    assert np.array_equal(slots, inverse) and slots.dtype == inverse.dtype
    assert np.array_equal(indices, keys % dim) and indices.dtype == keys.dtype
    assert np.array_equal(indptr, np.searchsorted(keys // dim, np.arange(dim + 1)))


class TestRwaLayout:
    """A drive setting fills the data of one cached sparsity pattern."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_fill_equals_per_tone_sum(self, device_a, device_b_pair, three_transmon_chain,
                                      data):
        """Every entry is bit-equal to the scipy.sparse sum, with one tone more
        than transmons (so two share one) and a zero-amplitude tone."""
        for system in (device_a, device_b_pair, three_transmon_chain):
            n = system.num_transmons
            tones = data.draw(st.lists(
                st.tuples(st.integers(0, n - 1), st.floats(0.0, 0.06),
                          st.floats(0.0, 2 * math.pi)), min_size=n + 1, max_size=n + 2))
            tones.append((n - 1, 0.0, data.draw(st.floats(0.0, 2 * math.pi))))
            driven = system.with_drives(tuple(
                DriveTone(target, amp, 5.1, phase) for target, amp, phase in tones))
            h = build_rwa_hamiltonian_sparse(driven, 5.1)
            assert np.array_equal(h.toarray(), per_tone_sum(driven, 5.1))

    def test_driven_builds_share_the_pattern(self, device_b_pair):
        builds = [build_rwa_hamiltonian_sparse(device_b_pair.with_drives(
            (DriveTone(0, amp, 5.1, 1.0), DriveTone(1, 0.02, 5.1))), 5.1)
                  for amp in (0.01, 0.03)]
        pattern = undriven_rwa_hamiltonian(device_b_pair, 5.1).undriven
        for field in ("indices", "indptr"):
            arrays = [getattr(h, field) for h in (*builds, pattern)]
            assert all(np.shares_memory(arrays[0], other) for other in arrays[1:])
            assert not any(array.flags.writeable for array in arrays)
        assert not np.shares_memory(builds[0].data, builds[1].data)
        excited = bare_index((1, 0, 0), device_b_pair.dims)  # transmon 0's tone reaches it
        assert builds[0].toarray()[excited, 0] != builds[1].toarray()[excited, 0]

    def test_ladders_are_the_raising_operators(self, device_b_pair):
        """`ladders` holds each mode's raising entries, at slots that hold them."""
        layout = undriven_rwa_hamiltonian(device_b_pair, 5.1)
        h = layout.undriven
        rows_of_slot = np.repeat(np.arange(h.shape[0]), np.diff(h.indptr))
        dims = device_b_pair.dims
        for m, (rows, cols, values, up, down) in enumerate(layout.ladders):
            raising = kron_embed(ladder_ops(dims[m])[1], m, dims)
            assert np.array_equal(rows, np.nonzero(raising)[0])
            assert np.array_equal(cols, np.nonzero(raising)[1])
            assert np.array_equal(values, raising[rows, cols])
            assert np.array_equal(rows_of_slot[up], rows) and np.array_equal(h.indices[up], cols)
            assert np.array_equal(rows_of_slot[down], cols)
            assert np.array_equal(h.indices[down], rows)
            assert not h.data[up].any() and not h.data[down].any()


class TestUndrivenCache:
    """The undriven RWA part is cached per undriven system and frame."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_cached_build_equals_fresh_build(self, device_a, three_transmon_chain, data):
        for system in (device_a, three_transmon_chain):
            n = system.num_transmons
            amplitudes = data.draw(st.lists(st.floats(0.0, 0.06), min_size=n, max_size=n))
            phases = data.draw(st.lists(st.floats(0.0, 2 * math.pi), min_size=n, max_size=n))
            driven = system.with_drives(tuple(
                DriveTone(i, amp, 5.1, phase) for i, (amp, phase)
                in enumerate(zip(amplitudes, phases))))
            build_rwa_hamiltonian_sparse(system, 5.1)  # warm
            hits = undriven_rwa_hamiltonian.cache_info().hits
            cached = build_rwa_hamiltonian_sparse(driven, 5.1)
            assert undriven_rwa_hamiltonian.cache_info().hits == hits + 1
            undriven_rwa_hamiltonian.cache_clear()
            fresh = build_rwa_hamiltonian_sparse(driven, 5.1)
            for field in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(cached, field), getattr(fresh, field))

    def test_undriven_matrix_is_read_only(self, three_transmon_chain):
        for h in (undriven_rwa_hamiltonian(three_transmon_chain, 5.1),
                  build_rwa_hamiltonian_sparse(three_transmon_chain, 5.1)):
            with pytest.raises(ValueError):
                h.data[0] = 1.0

    def test_driven_system_rejected(self, three_transmon_chain):
        driven = three_transmon_chain.with_drives((DriveTone(0, 0.02, 5.1),))
        with pytest.raises(ValueError, match="without drives"):
            undriven_rwa_hamiltonian(driven, 5.1)

    def test_changed_frequency_misses(self, three_transmon_chain):
        first = three_transmon_chain.transmons[0]
        moved = replace(three_transmon_chain, transmons=(
            replace(first, frequency=first.frequency + 0.01),
            *three_transmon_chain.transmons[1:]))
        undriven_rwa_hamiltonian.cache_clear()
        h = build_rwa_hamiltonian_sparse(three_transmon_chain, 5.1).toarray()
        h_moved = build_rwa_hamiltonian_sparse(moved, 5.1).toarray()
        assert undriven_rwa_hamiltonian.cache_info()[:2] == (0, 2)  # (hits, misses)
        excited = 16  # bare label (1, 0, 0)
        assert h_moved[excited, excited] - h[excited, excited] == pytest.approx(0.01, abs=1e-12)

    def test_changed_frame_misses(self, three_transmon_chain):
        undriven_rwa_hamiltonian.cache_clear()
        h = build_rwa_hamiltonian_sparse(three_transmon_chain, 5.1).toarray()
        h_frame = build_rwa_hamiltonian_sparse(three_transmon_chain, 5.0).toarray()
        assert undriven_rwa_hamiltonian.cache_info()[:2] == (0, 2)  # (hits, misses)
        # bare label (1, 1, 1): three excitations, each 0.1 GHz higher in the slower frame
        assert h_frame[21, 21] - h[21, 21] == pytest.approx(0.3, abs=1e-12)
