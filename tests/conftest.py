import pytest
from hypothesis import settings

from spinelab.spine import match_names, quotient_complex, singular_graphs

# One profile for every property test: no per-example deadline (timings on
# a shared machine vary), and examples derived from each test's source, so
# every run draws the same ones.
settings.register_profile("spinelab", deadline=None, derandomize=True)
settings.load_profile("spinelab")


@pytest.fixture(scope="session")
def rank4_classes():
    return match_names(singular_graphs(3, 4))


@pytest.fixture(scope="session")
def rank4_complex(rank4_classes):
    return quotient_complex(3, 4, rank4_classes)


@pytest.fixture
def form_encodes(monkeypatch):
    """A list that gains one entry each time a canonical form's bytes are
    encoded, for the rest of the test."""
    import json
    from types import SimpleNamespace

    from spinelab import symmetry

    encodes = []
    monkeypatch.setattr(
        symmetry, "json", SimpleNamespace(dumps=lambda *a: encodes.append(a) or json.dumps(*a))
    )
    return encodes
