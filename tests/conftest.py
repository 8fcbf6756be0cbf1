"""Shared fixtures."""

import importlib
import pkgutil

import pytest

import arcbricks


def _package_caches():
    """Every ``functools.cache`` defined at module level in ``arcbricks``.

    Collected once, at import, so a test that monkeypatches a name still has
    its original cache cleared."""
    caches = []
    for info in pkgutil.iter_modules(arcbricks.__path__):
        module = importlib.import_module(f"arcbricks.{info.name}")
        for value in vars(module).values():
            if hasattr(value, "cache_clear") and value.__module__ == module.__name__:
                caches.append(value)
    return tuple(caches)


PACKAGE_CACHES = _package_caches()


def clear_package_caches():
    for cached in PACKAGE_CACHES:
        cached.cache_clear()


@pytest.fixture
def clear_caches():
    """Empty every package ``@cache`` before and after the test, so that a
    warm cache cannot hide a broken route; the test may call the yielded
    function to empty them again mid-test."""
    clear_package_caches()
    yield clear_package_caches
    clear_package_caches()
