"""Wire format, framing, traffic ledger, in-process and TCP runners."""

import struct
import sys
import threading

import numpy as np
import pytest

from ftp_sdmm import proto
from ftp_sdmm.errors import (
    ConnectionFailed,
    DigitOverflow,
    MalformedFrame,
    VersionMismatch,
)
from ftp_sdmm.fields import make_base_field
from ftp_sdmm.ftp import build_scheme, cost_report
from ftp_sdmm.matrices import SplitMix64, mat_mul, random_mat


@pytest.fixture(scope="module")
def scheme():
    return build_scheme(L=2, T=1, primes=(2, 3), base=make_base_field(11, 1),
                        a=2, b=2, c=2)


@pytest.fixture(scope="module")
def scheme_ext():
    """Extension base field, so byte counts and symbol counts differ (d=3)."""
    return build_scheme(L=1, T=1, primes=(5,), base=make_base_field(2, 3),
                        a=1, b=2, c=1)


def test_elem_roundtrip_full(scheme_ext):
    t = scheme_ext.tower
    rng = SplitMix64(1)
    for _ in range(10):
        x = t.random(rng)
        raw = proto.elem_to_bytes(t, x)
        assert len(raw) == t.flat_size * t.base.d
        assert np.array_equal(proto.elem_from_bytes(t, raw), x)


def test_elem_roundtrip_subfield(scheme):
    t = scheme.tower
    rng = SplitMix64(2)
    for i in (1, 2):
        x = t.trace_to_subfield(t.random(rng), i)
        raw = proto.elem_to_bytes(t, x, group=i)
        assert len(raw) == t.flat_size // t.primes[i - 1] * t.base.d
        assert np.array_equal(proto.elem_from_bytes(t, raw, group=i), x)


def test_digit_overflow():
    big = build_scheme(L=1, T=1, primes=(2,), base=make_base_field(257, 1),
                       a=1, b=1, c=1)
    with pytest.raises(DigitOverflow):
        proto.elem_to_bytes(big.tower, big.tower.one())


def test_cold_tower_built_once(monkeypatch):
    """Concurrent PARAMS frames for a new field build its tower once."""
    monkeypatch.setattr(proto, "_tower_cache", {})
    builds = []
    real = proto.TowerField

    def counting(*args):
        builds.append(args)
        return real(*args)

    monkeypatch.setattr(proto, "TowerField", counting)
    n = 8
    barrier = threading.Barrier(n, timeout=30)
    got = [None] * n

    def worker(k):
        barrier.wait()
        got[k] = proto._cached_tower(11, 1, (0, 1), (2, 3, 5))

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(n)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert len(builds) == 1
    assert all(g is got[0] for g in got)


def test_framing_roundtrip():
    frame = proto.pack_message(proto.MSG_HELLO, b"payload")
    mtype, body, rest = proto.unpack_message(frame + b"extra")
    assert (mtype, body, rest) == (proto.MSG_HELLO, b"payload", b"extra")


def test_framing_errors():
    good = proto.pack_message(proto.MSG_HELLO, b"abc")
    with pytest.raises(MalformedFrame):
        proto.unpack_message(good[:5])            # shorter than header
    with pytest.raises(MalformedFrame):
        proto.unpack_message(good[:-1])           # truncated body
    with pytest.raises(MalformedFrame):
        proto.unpack_message(b"XXXX" + good[4:])  # bad magic
    bumped = good[:4] + bytes([99]) + good[5:]
    with pytest.raises(VersionMismatch):
        proto.unpack_message(bumped)


def test_params_share_responses_roundtrip(scheme):
    job = b"jobid123"
    body = proto.params_body(job, scheme, 3)
    parsed = proto.parse_params(body)
    assert parsed.job_id == job and parsed.server_index == 3
    assert parsed.tower.primes == scheme.tower.primes
    assert (parsed.a, parsed.b, parsed.c) == (scheme.a, scheme.b, scheme.c)
    for i, w in parsed.scalars.items():
        assert np.array_equal(w, scheme.server_scalars[i - 1][2])


# In a PARAMS body for `scheme` (d = 1, L = 2, primes (2, 3)) as server 1,
# the group count sits just before offset 33, and each group is its id and
# six digits.
_GROUPS_AT, _STEP = 33, 7


def _set_byte(body, at, value):
    out = bytearray(body)
    out[at] = value
    return bytes(out)


_BAD_PARAMS = {
    "trailing byte": lambda b: b + b"\0",
    "group id past L": lambda b: _set_byte(b, _GROUPS_AT, 7),
    "repeated group id": lambda b: _set_byte(b, _GROUPS_AT + _STEP, 1),
    "more groups than L": lambda b: _set_byte(b, _GROUPS_AT - 1, 3) + b[_GROUPS_AT : _GROUPS_AT + _STEP],
}


def _no_field(*args):
    raise AssertionError("a field was built for a malformed PARAMS body")


@pytest.fixture
def params_body(scheme, monkeypatch):
    body = proto.params_body(b"jobid123", scheme, 1)
    assert body[_GROUPS_AT - 1] == 2 and list(body[_GROUPS_AT::_STEP]) == [1, 2]
    monkeypatch.setattr(proto, "_cached_tower", _no_field)
    return body


@pytest.mark.parametrize("case", list(_BAD_PARAMS))
def test_parse_params_rejects_malformed_body(params_body, case):
    with pytest.raises(MalformedFrame):
        proto.parse_params(_BAD_PARAMS[case](params_body))


def test_parse_params_rejects_every_truncation(params_body):
    for n in range(len(params_body)):
        with pytest.raises(MalformedFrame):
            proto.parse_params(params_body[:n])


def test_parse_params_rejects_wide_p_before_building_a_field(params_body):
    with pytest.raises(DigitOverflow):
        proto.parse_params(params_body[:10] + struct.pack(">H", 257) + params_body[12:])


def test_inprocess_matches_oracle_and_formulas(scheme):
    A = random_mat(scheme.a, scheme.b, scheme.tower, seed=6)
    B = random_mat(scheme.b, scheme.c, scheme.tower, seed=7)
    product, ledger = proto.run_inprocess(scheme, A, B, seed=1)
    assert product.eq(mat_mul(A, B))
    report = cost_report(scheme)
    assert ledger.upload_symbols == report.upload_symbols
    assert ledger.download_symbols == report.download_symbols
    d = scheme.base.d
    assert ledger.upload_bytes == d * ledger.upload_symbols
    assert ledger.download_bytes == d * ledger.download_symbols


def test_inprocess_byte_accounting_extension_field(scheme_ext):
    A = random_mat(1, 2, scheme_ext.tower, seed=1)
    B = random_mat(2, 1, scheme_ext.tower, seed=2)
    product, ledger = proto.run_inprocess(scheme_ext, A, B)
    assert product.eq(mat_mul(A, B))
    assert ledger.upload_bytes == 3 * ledger.upload_symbols
    assert ledger.download_bytes == 3 * ledger.download_symbols


@pytest.fixture()
def live_server():
    server = proto.Server()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.stop()
    thread.join(timeout=5)


def test_remote_identical_to_inprocess(scheme, live_server):
    A = random_mat(scheme.a, scheme.b, scheme.tower, seed=8)
    B = random_mat(scheme.b, scheme.c, scheme.tower, seed=9)
    local_product, local_ledger = proto.run_inprocess(scheme, A, B, seed=2)
    endpoints = [("127.0.0.1", live_server.port)] * scheme.N[-1]
    remote_product, remote_ledger = proto.run_remote(endpoints, scheme, A, B, seed=2)
    assert remote_product.eq(local_product)
    assert remote_ledger.per_server == local_ledger.per_server


def test_remote_server_down(scheme, monkeypatch):
    monkeypatch.setenv(proto.TIMEOUT_ENV, "400")
    A = random_mat(scheme.a, scheme.b, scheme.tower, seed=8)
    B = random_mat(scheme.b, scheme.c, scheme.tower, seed=9)
    endpoints = [("127.0.0.1", 1)] * scheme.N[-1]
    with pytest.raises(ConnectionFailed) as err:
        proto.run_remote(endpoints, scheme, A, B)
    assert err.value.server_index >= 1


def test_remote_too_few_endpoints(scheme):
    A = random_mat(scheme.a, scheme.b, scheme.tower, seed=8)
    B = random_mat(scheme.b, scheme.c, scheme.tower, seed=9)
    with pytest.raises(ConnectionFailed):
        proto.run_remote([("127.0.0.1", 1)], scheme, A, B)


def test_server_unknown_message_type(live_server):
    import socket

    with socket.create_connection(("127.0.0.1", live_server.port), timeout=5) as sock:
        sock.sendall(proto.pack_message(42, b""))
        mtype, body = proto.read_message(sock)
    assert mtype == proto.MSG_ERROR
    assert b"unknown message type" in body


def test_server_unknown_job(scheme, live_server):
    import socket

    from ftp_sdmm.ftp import encode

    shares = encode(
        scheme,
        random_mat(scheme.a, scheme.b, scheme.tower, seed=1),
        random_mat(scheme.b, scheme.c, scheme.tower, seed=2),
    )
    with socket.create_connection(("127.0.0.1", live_server.port), timeout=5) as sock:
        sock.sendall(proto.pack_message(
            proto.MSG_SHARE, proto.share_body(b"nosuchjb", scheme, shares[0])))
        mtype, body = proto.read_message(sock)
    assert mtype == proto.MSG_ERROR
    assert b"unknown job id" in body


def _digit_p(body, scheme):
    """The share body with its first payload digit set to p."""
    raw = bytearray(body)
    raw[8 + 2 + 8] = scheme.base.p
    return bytes(raw)


def _one_byte_short(body, scheme):
    return body[:-1]


def _share(scheme, seed=1):
    from ftp_sdmm.ftp import encode

    A = random_mat(scheme.a, scheme.b, scheme.tower, seed=seed)
    B = random_mat(scheme.b, scheme.c, scheme.tower, seed=seed + 1)
    return encode(scheme, A, B)[0]


def _exchange(sock, mtype, body):
    sock.sendall(proto.pack_message(mtype, body))
    return proto.read_message(sock)


def test_parsers_reject_digit_p_and_short_bodies(scheme):
    t = scheme.tower
    body = proto.share_body(b"jobid123", scheme, _share(scheme))
    for corrupt in (_digit_p, _one_byte_short):
        with pytest.raises(MalformedFrame):
            proto.parse_share(t, corrupt(body, scheme))
    with pytest.raises(MalformedFrame):
        proto.parse_share(t, body + b"\0")
    raw = proto.mat_to_bytes(t, _share(scheme).f_eval)
    with pytest.raises(MalformedFrame):
        proto.mat_from_bytes(t, raw[:-1])
    elem = bytearray(proto.elem_to_bytes(t, t.one()))
    elem[0] = 200  # not a digit of F_11
    with pytest.raises(MalformedFrame):
        proto.elem_from_bytes(t, bytes(elem))


@pytest.mark.parametrize("corrupt", [_digit_p, _one_byte_short])
def test_server_answers_bad_share_with_error_then_serves(scheme, live_server, corrupt):
    import socket

    job = b"badshare"
    body = corrupt(proto.share_body(job, scheme, _share(scheme)), scheme)
    with socket.create_connection(("127.0.0.1", live_server.port), timeout=5) as sock:
        mtype, _ = _exchange(sock, proto.MSG_PARAMS, proto.params_body(job, scheme, 1))
        assert mtype == proto.MSG_PARAMS
        mtype, reply = _exchange(sock, proto.MSG_SHARE, body)
    assert mtype == proto.MSG_ERROR
    assert reply[0] == 1 and b"MalformedFrame" in reply
    A = random_mat(scheme.a, scheme.b, scheme.tower, seed=8)
    B = random_mat(scheme.b, scheme.c, scheme.tower, seed=9)
    endpoints = [("127.0.0.1", live_server.port)] * scheme.N[-1]
    product, _ = proto.run_remote(endpoints, scheme, A, B, seed=4)
    assert product.eq(mat_mul(A, B))


def test_server_drops_each_job_once_answered(scheme, live_server):
    import socket

    A = random_mat(scheme.a, scheme.b, scheme.tower, seed=8)
    B = random_mat(scheme.b, scheme.c, scheme.tower, seed=9)
    endpoints = [("127.0.0.1", live_server.port)] * scheme.N[-1]
    proto.run_remote(endpoints, scheme, A, B, seed=5)
    assert live_server._jobs == {}
    job = b"onceonly"
    body = proto.share_body(job, scheme, _share(scheme))
    with socket.create_connection(("127.0.0.1", live_server.port), timeout=5) as sock:
        _exchange(sock, proto.MSG_PARAMS, proto.params_body(job, scheme, 1))
        mtype, _ = _exchange(sock, proto.MSG_SHARE, body)
        assert mtype == proto.MSG_RESPONSES
        mtype, reply = _exchange(sock, proto.MSG_SHARE, body)
    assert mtype == proto.MSG_ERROR
    assert reply[0] == 3 and b"unknown job id" in reply
    assert live_server._jobs == {}
