import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from jmqubit import realizer
from jmqubit.criteria import SUFFICIENT_ONLY, UNKNOWN, Verdict, triple_anchor_values

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


def triple_chain_failure(sub):
    """The closed-form decider's record of a triple that fails the chain
    before any superset reaches it: for three unbiased POVMs whose chain
    values f(v1), f(v2), f(v3) all exceed 4 by more than the guard (f(v0)
    too when a bias is negative: the chain flips that POVM), the Unknown
    biased-chain verdict of margin (4 - min)/2; else None."""
    if len(sub) != 3 or not all(p.is_unbiased for p in sub):
        return None
    values = triple_anchor_values(*(p.components for p in sub))
    chain = min(values if any(p.bias < 0.0 for p in sub) else values[1:])
    if chain <= 4.0 + realizer._TRIPLE_CHAIN_GUARD:
        return None
    return Verdict(UNKNOWN, SUFFICIENT_ONLY, (4.0 - chain) / 2.0, "biased-chain")


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def random_unit(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_orthogonal(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    return q * np.sign(np.diag(r))
