from __future__ import annotations

import pytest
from hypothesis import settings

import gens

# Property tests draw the same examples on every run and have no per-example
# deadline, so the suite's verdict does not depend on the seed or on how
# busy the machine is.
settings.register_profile("regmc", deadline=None, derandomize=True)
settings.load_profile("regmc")


@pytest.fixture
def fig():
    return gens.figure_one()


@pytest.fixture
def byz():
    return gens.byzantine()
