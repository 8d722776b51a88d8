import pytest
from hypothesis import settings

from sqfrep.arith import Draws, build_sieve

# Every property test draws the same examples on every run, with no time
# limit per example; a test's own settings give only its max_examples.
settings.register_profile("sqfrep", derandomize=True, deadline=None)
settings.load_profile("sqfrep")


@pytest.fixture(scope="session")
def tables():
    # Shared across the whole run; large enough for every non-acceptance test.
    return build_sieve(20_000)


@pytest.fixture()
def rng():
    return Draws(0x5EED)
