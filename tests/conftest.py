"""Suite-wide setup: the native loops are built into a temporary cache."""

import pytest


@pytest.fixture(scope="session", autouse=True)
def temporary_cache(tmp_path_factory):
    """XDG_CACHE_HOME, for the suite and every child it starts, is a new temporary directory.

    So no test writes into the user's own cache.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        yield
