import pytest

from starkzz.operators import SystemSpec, TransmonSpec, bus_coupling, direct_coupling
from starkzz.spectrum import fit_bare_transmons

DEVICE_A_DRESSED_FREQS = (4.960, 5.016)
DEVICE_A_DRESSED_ALPHAS = (-0.283, -0.287)
DEVICE_A_J = 0.007745


@pytest.fixture(scope="session")
def device_a():
    """Two-transmon device with bare parameters fit to the measured table."""
    measured = SystemSpec(
        transmons=(TransmonSpec(DEVICE_A_DRESSED_FREQS[0], DEVICE_A_DRESSED_ALPHAS[0], 5),
                   TransmonSpec(DEVICE_A_DRESSED_FREQS[1], DEVICE_A_DRESSED_ALPHAS[1], 5)),
        couplings=(direct_coupling(0, 1, DEVICE_A_J),))
    return fit_bare_transmons(measured, DEVICE_A_DRESSED_FREQS, DEVICE_A_DRESSED_ALPHAS)


@pytest.fixture(scope="session")
def device_b_pair():
    """Multi-path coupler pair: direct J plus a single bus mode."""
    return SystemSpec(
        transmons=(TransmonSpec(4.85, -0.290, 5), TransmonSpec(4.95, -0.290, 5)),
        couplings=(direct_coupling(0, 1, 0.0106),
                   bus_coupling(0, 1, 6.35, (0.135, 0.135), bus_levels=3)))


@pytest.fixture(scope="session")
def three_transmon_chain():
    """Staggered 3-transmon chain, 4 levels each, direct nearest-neighbour J."""
    return SystemSpec(
        transmons=(TransmonSpec(4.93, -0.29, 4), TransmonSpec(4.99, -0.291, 4),
                   TransmonSpec(4.95, -0.289, 4)),
        couplings=(direct_coupling(0, 1, 0.0014), direct_coupling(1, 2, 0.0013)))
