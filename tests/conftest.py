import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))


import pytest  # noqa: E402

from oddwheel import enumerate as enum_mod  # noqa: E402


@pytest.fixture
def fresh_caches(monkeypatch):
    """Empty enumeration caches for one test; the shared ones come back
    afterwards untouched.  Returns a function that empties them again,
    with the given `all_graphs` levels cached."""

    def reset(all_cache=None):
        for name in ("_deletion_cache", "_degree_cache", "_tree_cache"):
            monkeypatch.setattr(enum_mod, name, {})
        monkeypatch.setattr(enum_mod, "_all_cache", dict(all_cache or {}))

    reset()
    return reset
