import functools

import pytest

from ratio_lab.search import small_norm_catalog


@pytest.fixture(scope="session")
def small_norm():
    """small_norm_catalog, each (length, threshold) built once per session.
    A Catalog is frozen, so the tests can share it; tests that patch the
    sweep call small_norm_catalog itself."""
    return functools.cache(small_norm_catalog)
