"""Fixtures every test module uses."""

import pytest


@pytest.fixture(autouse=True)
def idle_connections():
    """The client's pool of idle connections, closed and emptied after each test.

    A connection kept past its test would hold a handler thread of that
    test's server, and a scripted server's thread waiting on it.
    """
    from confdb import client

    yield client.POOL
    client.POOL.clear()
