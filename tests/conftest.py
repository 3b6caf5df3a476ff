import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("default")


@pytest.fixture(scope="session")
def named_certificates():
    """n-cycle N = 3..40, n-Specker N = 3..10, the misc scenarios and the
    atlas, both variants of four-vertex-6 included."""
    from jmqubit import realize_misc, realize_n_cycle, realize_n_specker, realizer
    from jmqubit.realizer import MISC_SCENARIOS

    certs = [realize_n_cycle(N) for N in range(3, 41)]
    certs += [realize_n_specker(N) for N in range(3, 11)]
    certs += [realize_misc(tag) for tag in sorted(MISC_SCENARIOS)]
    return certs + list(realizer.atlas_certificates().values())


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def random_unit(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_orthogonal(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    return q * np.sign(np.diag(r))
