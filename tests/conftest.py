"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import pytest

from repro.consortium.presets import megamart2, small_consortium
from repro.framework.catalog import build_framework
from repro.rng import RngHub
from repro.service import ServiceClient, build_async_server, serve_async
from repro.store import RunCache

from test_service import quick_factory, sleepy_factory


@pytest.fixture
def hub() -> RngHub:
    """A fresh seeded RNG hub."""
    return RngHub(seed=1234)


@pytest.fixture
def small(hub):
    """A small consortium (2 owners, 3 providers + 1 university)."""
    return small_consortium(hub)


@pytest.fixture
def small_framework(small, hub):
    """Framework for the small consortium (8 tools to keep tests fast)."""
    return build_framework(small, hub, n_tools=8, requirements_per_case=4)


@pytest.fixture(scope="session")
def megamart():
    """The full MegaM@Rt2 preset (session-scoped: it is read-mostly).

    Tests that mutate members must not use this fixture; build their
    own consortium instead.
    """
    return megamart2(RngHub(seed=99))


def _served(tmp_path, runner_factory, queue_depth):
    """A served scheduler over a fake runner; yields a client."""
    cache = RunCache(tmp_path / "store", runner_factory=runner_factory)
    server = build_async_server(port=0, cache=cache,
                                queue_depth=queue_depth,
                                retry_backoff_s=0.01)
    serve_async(server)
    try:
        yield ServiceClient(f"http://127.0.0.1:{server.server_port}")
    finally:
        server.shutdown()
        server.server_close()


@pytest.fixture
def service(tmp_path):
    """The HTTP service over the instant fake runner."""
    yield from _served(tmp_path, quick_factory, queue_depth=8)


@pytest.fixture
def slow_service(tmp_path):
    """The HTTP service over the sleepy fake runner; two queue slots."""
    yield from _served(tmp_path, sleepy_factory, queue_depth=2)
