import threading

import pytest
from hypothesis import settings

from ftp_sdmm import proto
from ftp_sdmm.fields import make_base_field, make_tower
from ftp_sdmm.ftp import build_scheme

# Every run draws the same examples, with no per-example deadline.
settings.register_profile("repo", derandomize=True, deadline=None)
settings.load_profile("repo")


@pytest.fixture(scope="session")
def f4():
    return make_base_field(2, 2)


@pytest.fixture(scope="session")
def f5():
    return make_base_field(5, 1)


@pytest.fixture(scope="session")
def f11():
    return make_base_field(11, 1)


@pytest.fixture(scope="session")
def tower16(f4):
    """F_16 as a one-step tower over F_4."""
    return make_tower(f4, (2,))


@pytest.fixture(scope="session")
def tower11_6(f11):
    """F_{11^6} = F_11(a_1, a_2) with degrees 2 and 3."""
    return make_tower(f11, (2, 3))


# The benchmark's three schemes: (L, T, primes, p, d, a, b, c).
_DIGEST_SCHEMES = {
    "small-tower": (3, 1, (2, 3, 5), 11, 1, 4, 6, 4),
    "tcp-wide": (2, 1, (2, 3), 11, 1, 16, 16, 16),
    "paper-full": (3, 2, (5, 7, 11), 3, 3, 1, 3, 1),
}


@pytest.fixture(scope="session")
def digest_schemes():
    return {name: build_scheme(L, T, primes, make_base_field(p, d), a, b, c)
            for name, (L, T, primes, p, d, a, b, c) in _DIGEST_SCHEMES.items()}


@pytest.fixture(autouse=True)
def _fresh_proto_caches(monkeypatch):
    """Each test starts with an empty parsed-PARAMS cache, so that a body
    parsed by an earlier test is parsed again, and under that test's limits;
    after it, every socket that run_remote kept is closed."""
    monkeypatch.setattr(proto, "_params_cache", {})
    yield
    with proto._kept_lock:
        kept = list(proto._kept.values())
        proto._kept.clear()
    for sock in kept:
        sock.close()


@pytest.fixture()
def serve():
    """Starts a proto.Server on loopback, in a thread, per call, and returns
    it.  At teardown each is stopped."""
    started = []

    def start():
        server = proto.Server()
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        started.append((server, thread))
        return server

    yield start
    for server, thread in started:
        server.stop()
        thread.join(timeout=5)
