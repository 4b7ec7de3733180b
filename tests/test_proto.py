"""Wire format, framing, traffic ledger, in-process and TCP runners."""

import hashlib
import json
import math
import os
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftp_sdmm import proto
from ftp_sdmm.errors import (
    ConnectionFailed,
    DigitOverflow,
    FieldTooLarge,
    FtpError,
    InvalidParams,
    MalformedFrame,
    ProtocolError,
    VersionMismatch,
)
from ftp_sdmm.fields import make_base_field
from ftp_sdmm.ftp import build_scheme, cost_report, encode
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


@pytest.mark.parametrize("name", ["scheme", "scheme_ext"])
def test_reply_roundtrip_on_subfield_axes(request, name):
    """Group-i reply stacks, (N_i, a, c, *F_i.shape) tensors of F_i's
    digits, travel through responses_body and parse_responses bit for bit,
    server j's body holding an 8-byte header and a c (flat_size / p_i) d
    payload bytes for each group i with j <= N_i."""
    s = request.getfixturevalue(name)
    t = s.tower
    rng = SplitMix64(2)
    replies = {}
    for i, n_i in enumerate(s.N, start=1):
        shape = (n_i, s.a, s.c) + t.shape[: i - 1] + t.shape[i:]
        replies[i] = rng.digits(t.base.p, math.prod(shape)).reshape(shape)
    bodies = proto.responses_body(b"jobid123", t, replies, range(1, s.N[-1] + 1))
    for j, body in enumerate(bodies, start=1):
        payload = [s.a * s.c * (t.flat_size // t.primes[i - 1]) * t.base.d
                   for i, n_i in enumerate(s.N, start=1) if j <= n_i]
        assert len(body) == 8 + 2 + 1 + sum(1 + 8 + n for n in payload)
    parsed = proto.parse_responses(s, b"jobid123", bodies)
    assert sorted(parsed) == sorted(replies)
    for i, r in replies.items():
        assert parsed[i].dtype == np.int64 and np.array_equal(parsed[i], r)


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


def _read_sent(data):
    """read_message on one end of a socket pair whose other end sent data
    and EOF, and the bytes it left unread."""
    import socket

    near, far = socket.socketpair()
    with near, far:
        far.settimeout(5)
        near.sendall(data)
        near.shutdown(socket.SHUT_WR)
        return proto.read_message(far), far.recv(64)


def test_framing_roundtrip():
    frame = proto.pack_message(proto.MSG_HELLO, b"payload")
    (mtype, body), rest = _read_sent(frame + b"extra")
    assert (mtype, body, rest) == (proto.MSG_HELLO, b"payload", b"extra")


def test_framing_errors():
    good = proto.pack_message(proto.MSG_HELLO, b"abc")
    with pytest.raises(MalformedFrame):
        _read_sent(good[:5])            # shorter than header
    with pytest.raises(MalformedFrame):
        _read_sent(good[:-1])           # truncated body
    with pytest.raises(MalformedFrame):
        _read_sent(b"XXXX" + good[4:])  # bad magic
    bumped = good[:4] + bytes([99]) + good[5:]
    with pytest.raises(VersionMismatch):
        _read_sent(bumped)


def test_params_share_responses_roundtrip(scheme):
    job = b"jobid123"
    body = proto.params_body(job, scheme, 3)
    parsed = proto.parse_params(body)
    assert parsed.job_id == job and parsed.server_index == 3
    assert parsed.tower.primes == scheme.tower.primes
    assert (parsed.a, parsed.b, parsed.c) == (scheme.a, scheme.b, scheme.c)
    assert sorted(parsed.taus) == [1, 2]
    for i, tau in parsed.taus.items():  # the taus of each w_i3, as a stack of one
        assert np.array_equal(tau, scheme.server_taus[i - 1][2][None])


# In a PARAMS body for `scheme` (d = 1, L = 2, primes (2, 3)) as server 1,
# the modulus digits (0, 1) sit at offset 13, the group count just before
# offset 33, and each group is its id and six digits.
_MODULUS_AT, _GROUPS_AT, _STEP = 13, 33, 7


def _set_byte(body, at, value):
    out = bytearray(body)
    out[at] = value
    return bytes(out)


_BAD_PARAMS = {
    "trailing byte": lambda b: b + b"\0",
    "group id past L": lambda b: _set_byte(b, _GROUPS_AT, 7),
    "repeated group id": lambda b: _set_byte(b, _GROUPS_AT + _STEP, 1),
    "more groups than L": lambda b: _set_byte(b, _GROUPS_AT - 1, 3) + b[_GROUPS_AT : _GROUPS_AT + _STEP],
    "b not a multiple of L": lambda b: _set_byte(b, _GROUPS_AT - 6, 3),  # b's low byte
    # 12 x = x mod 11: the same field under another cache key
    "modulus digit not below p": lambda b: _set_byte(b, _MODULUS_AT + 1, 12),
}


def _no_field(*args):
    raise AssertionError("a field was built for a malformed PARAMS body")


@pytest.fixture
def params_body(scheme, monkeypatch):
    body = proto.params_body(b"jobid123", scheme, 1)
    assert body[_MODULUS_AT : _MODULUS_AT + 2] == bytes([0, 1])
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


# SHA-256 of the share bodies, the reply bodies, the decoded product and the
# ledger's per-server counts, for A = random_mat(seed 10 + s), B = random_mat
# (seed 20 + s) and encode seed s; pinned on the code before the products
# over sub-towers, the float reduction and the precomputed Vandermonde blocks.
_JOB_DIGESTS = {
    ("small-tower", 0): (
        "4dc1d2573a864ec090a4076b45f312e278818ecad5d4a85164916c219d23b9cf",
        "b0476f512acd52dd9d8ef43375741c8b424b4575f599e9455a574c9b7712a1e0",
        "295dd6fb6b2100ebd75e7e9d2fe05fa46da49d21104bad150e3cd03af8742738",
        "1b2494854827078a6174b36c02c7eef8c7f60ce1fce80af227b71a5adb9aed83",
    ),
    ("small-tower", 1): (
        "5e081cfabb028e44c049b07dc5beeccfe0343dc61213e30cc4ca5f1d9156db14",
        "2fc320ec7a9d4ba00bdba9a228f0740b03c8036885461daa46d65e174f6d4b4a",
        "630caef3eefb6f68f8e146b38008d8e265ca8aa57282af79f1a0f3c14a1d80c8",
        "1b2494854827078a6174b36c02c7eef8c7f60ce1fce80af227b71a5adb9aed83",
    ),
    ("small-tower", 2): (
        "ab8da709fd1f8435eb6565ca8e9c2200cf620744f0ac8b6ac742866adc460ad1",
        "0e59caf00aec326d5cd6a9e69849e2c31649a5f5e331c76005a8e22eefd0220b",
        "7bd2aab80e2a40b83d9a284b1239b34e4c29510299ec21aa50060873bbd6f064",
        "1b2494854827078a6174b36c02c7eef8c7f60ce1fce80af227b71a5adb9aed83",
    ),
    ("tcp-wide", 0): (
        "818db3191ba00a54623269d3480ffe4eb57062b2e863f9a8cca04e1c01fdb10e",
        "406776e783f03ee87641c7069e57cdcad3bacf3153c490fc234d3ae930c62eb4",
        "472771e5ac1885f892bb392bce4a5d7bf64835253cb16a944c27cf2490b7441a",
        "a987812d641d45277d526ccf4c7fa6977890c851aa42a12ee29e02127f9b4879",
    ),
    ("tcp-wide", 1): (
        "ccfb477174630e589511f1fe9ccc88f97e118ffd99d0aa7439d33b108047d2f1",
        "6cc4ed28e57d5f96f251aca9add6c5b8031a0027953578541c962cf66b6bd8ba",
        "f80bf47f2f8cb53f8e95412c2c968965dbb2b5e510658e09227f488056af1ce9",
        "a987812d641d45277d526ccf4c7fa6977890c851aa42a12ee29e02127f9b4879",
    ),
    ("tcp-wide", 2): (
        "1fc70e73825e5348d95064f2af30ad9f16728c9befd821ce3ff63e268be786d9",
        "0eb73df9585cd405a7f52de7cc98b072beb72401675e7477a870416f47e3882d",
        "4867dba31d550117b07be3b68f38709c9c453219ee1b8a5aff71300f0f5d0199",
        "a987812d641d45277d526ccf4c7fa6977890c851aa42a12ee29e02127f9b4879",
    ),
    ("paper-full", 0): (
        "db600bb6f7340a58f5ce104094000335e2ed589c1fd760758b4b3a38e66dcf60",
        "dffab382431ac3f5b1a0f08322260fa4ec7f40d59c4f589d83b9761461bc8909",
        "5f0718a23f0e0dbd17755c30afe13a34b729f700d6d6e26b213a32705255a108",
        "edebe7aee11bb17ae14d44b291bc3fa317bbb073078c0ce01a52df8dd029584d",
    ),
}


def _sha(parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(hashlib.sha256(part).digest())
    return h.hexdigest()


@pytest.mark.parametrize("name,seed", list(_JOB_DIGESTS))
def test_job_bytes_are_pinned(digest_schemes, name, seed):
    """Every share, reply, product and ledger of the benchmark's schemes is
    bit-identical to the pinned digests."""
    scheme = digest_schemes[name]
    A = random_mat(scheme.a, scheme.b, scheme.tower, seed=10 + seed)
    B = random_mat(scheme.b, scheme.c, scheme.tower, seed=20 + seed)
    job_id = b"\0" * 8
    F, G = encode(scheme, A, B, seed=seed)
    share_bodies = proto.share_bodies(job_id, scheme.tower, F, G)
    reply_bodies = proto.responses_body(job_id, scheme.tower, proto.server_compute(scheme, F, G),
                                        range(1, scheme.N[-1] + 1))
    product, ledger = proto.run_inprocess(scheme, A, B, seed=seed)
    assert product.eq(mat_mul(A, B))
    counts = repr(sorted(ledger.per_server.items())).encode()
    got = (_sha(share_bodies), _sha(reply_bodies), _sha([product.data.tobytes()]), _sha([counts]))
    assert got == _JOB_DIGESTS[name, seed]


@pytest.fixture()
def live_server(serve):
    return serve()


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


@pytest.mark.parametrize("value", ["abc", "-5", "0", str(1 << 31), "2\u00b2"])
def test_a_timeout_that_is_not_a_positive_integer_is_refused(scheme, monkeypatch, value):
    """FTP_SDMM_TIMEOUT_MS must be a whole number of ms from 1 to 2^31 - 1:
    anything else raises InvalidParams before any connection is tried."""
    monkeypatch.setenv(proto.TIMEOUT_ENV, value)
    A = random_mat(scheme.a, scheme.b, scheme.tower, seed=8)
    B = random_mat(scheme.b, scheme.c, scheme.tower, seed=9)
    with pytest.raises(InvalidParams, match=proto.TIMEOUT_ENV):
        proto.run_remote([("127.0.0.1", 1)] * scheme.N[-1], scheme, A, B)


def test_remote_names_every_failed_server(scheme, live_server, monkeypatch):
    """Servers 2 and 5 refuse connections and the rest answer: one
    ConnectionFailed, of the lowest-numbered failure, names both servers
    and the stage each failed at."""
    monkeypatch.setenv(proto.TIMEOUT_ENV, "2000")
    A = random_mat(scheme.a, scheme.b, scheme.tower, seed=8)
    B = random_mat(scheme.b, scheme.c, scheme.tower, seed=9)
    endpoints = [("127.0.0.1", 1 if j in (2, 5) else live_server.port)
                 for j in range(1, scheme.N[-1] + 1)]
    with pytest.raises(ConnectionFailed) as err:
        proto.run_remote(endpoints, scheme, A, B)
    assert err.value.server_index == 2
    named = [part.split(":")[0] for part in str(err.value).split("; ")]
    assert named == ["server 2 at connect", "server 5 at connect"]


def test_remote_too_few_endpoints(scheme):
    A = random_mat(scheme.a, scheme.b, scheme.tower, seed=8)
    B = random_mat(scheme.b, scheme.c, scheme.tower, seed=9)
    with pytest.raises(ConnectionFailed):
        proto.run_remote([("127.0.0.1", 1)], scheme, A, B)


@pytest.mark.parametrize("port", [0, -5, 70000])
def test_remote_refuses_a_port_out_of_range_before_connecting(scheme, connections, port):
    """A port outside 1..65535 among the endpoints is refused with
    InvalidParams before any share is encoded or any connection opened,
    not wrapped onto another port (70000 mod 2^16 = 4464)."""
    def no_encode(*args, **kwargs):
        raise AssertionError("encoded for an endpoint that cannot be reached")

    endpoints = [("127.0.0.1", 1)] * (scheme.N[-1] - 1) + [("127.0.0.1", port)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(proto, "encode", no_encode)
        with pytest.raises(InvalidParams, match=f"127.0.0.1:{port}: .* 1..65535"):
            proto.run_remote(endpoints, scheme, *_job(scheme))
    assert connections == []


def test_server_unknown_message_type(live_server):
    import socket

    with socket.create_connection(("127.0.0.1", live_server.port), timeout=5) as sock:
        sock.sendall(proto.pack_message(42, b""))
        mtype, body = proto.read_message(sock)
    assert mtype == proto.MSG_ERROR
    assert b"unknown message type" in body


def test_server_unknown_job(scheme, live_server):
    import socket

    with socket.create_connection(("127.0.0.1", live_server.port), timeout=5) as sock:
        sock.sendall(proto.pack_message(proto.MSG_SHARE, _share_body(b"nosuchjb", scheme)))
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


def _five_bytes(body, scheme):
    """Shorter than the job id and server index that head a SHARE."""
    return body[:5]


def _share_body(job_id, scheme, j=1, seed=1):
    """Server j's SHARE body for job_id, from an encode of random operands."""
    A = random_mat(scheme.a, scheme.b, scheme.tower, seed=seed)
    B = random_mat(scheme.b, scheme.c, scheme.tower, seed=seed + 1)
    return proto.share_bodies(job_id, scheme.tower, *encode(scheme, A, B))[j - 1]


def _parse_share(scheme, body):
    return proto.parse_shares(scheme.tower, [body], scheme.a, scheme.b // scheme.L, scheme.c)


def _exchange(sock, mtype, body):
    sock.sendall(proto.pack_message(mtype, body))
    return proto.read_message(sock)


def _assert_unknown(sock, scheme, job_id, j=1):
    """A SHARE for job_id, server j's, gets error 3 on sock: no such job is
    pending there."""
    body = _share_body(job_id, scheme, j)
    mtype, reply = _exchange(sock, proto.MSG_SHARE, body)
    assert mtype == proto.MSG_ERROR
    assert reply[0] == 3 and b"unknown job id" in reply


def test_parsers_reject_digit_p_and_short_bodies(scheme):
    t = scheme.tower
    body = _share_body(b"jobid123", scheme)
    for corrupt in (_digit_p, _one_byte_short):
        with pytest.raises(MalformedFrame):
            _parse_share(scheme, corrupt(body, scheme))
    with pytest.raises(MalformedFrame):
        _parse_share(scheme, body + b"\0")
    raw = proto.mat_to_bytes(t, random_mat(scheme.a, scheme.b // scheme.L, t, seed=1))
    with pytest.raises(MalformedFrame):
        proto.mat_from_bytes(t, raw[:-1])
    elem = bytearray(proto.elem_to_bytes(t, t.one()))
    elem[0] = 200  # not a digit of F_11
    with pytest.raises(MalformedFrame):
        proto.elem_from_bytes(t, bytes(elem))
    # Server 1's RESPONSES body with groups 1 and 2 parses; with group 1
    # twice, group 2 alone, a group id outside 1..L, or a third group, it is
    # malformed.
    reply = proto.server_compute(scheme, *encode(scheme, *_job(scheme)))
    group = {i: bytes([i]) + struct.pack(">II", *r.shape[1:3]) + r[0].astype(np.uint8).tobytes()
             for i, r in reply.items()}
    head = b"jobid123" + struct.pack(">H", 1)
    parsed = proto.parse_responses(scheme, b"jobid123", [head + bytes([2]) + group[1] + group[2]])
    assert all(np.array_equal(parsed[i], reply[i][:1]) for i in (1, 2))
    for bad in (bytes([2]) + group[1] + group[1], bytes([1]) + group[2],
                *(bytes([2, i]) + group[1][1:] + group[2] for i in (0, t.L + 1)),
                bytes([3]) + group[1] + group[2] + group[2]):
        with pytest.raises(MalformedFrame, match="server 1: "):
            proto.parse_responses(scheme, b"jobid123", [head + bad])


@pytest.fixture(scope="module")
def valid_bodies(scheme):
    """Server 1's SHARE body and its RESPONSES body, which answers every group."""
    F, G = encode(scheme, *_job(scheme, seed=1))
    replies = proto.server_compute(scheme, F, G)
    bodies = proto.responses_body(b"jobid123", scheme.tower, replies, range(1, scheme.N[-1] + 1))
    assert bodies[0][10] == 2
    return [proto.share_bodies(b"jobid123", scheme.tower, F, G)[0], bodies[0]]


def _mutated(data, body, p=None):
    """body truncated, overwritten in a run of bytes, or extended; or random
    bytes.  Given p, also overwritten in a run of digits below p, which
    keeps a body legal where the run lands on its payload."""
    hows = ["truncate", "overwrite", "extend", "random"] + (["digits"] if p else [])
    how = data.draw(st.sampled_from(hows))
    if how == "truncate":
        return body[: data.draw(st.integers(0, len(body) - 1))]
    if how in ("overwrite", "digits"):
        at = data.draw(st.integers(0, len(body) - 1))
        if how == "digits":
            run = bytes(data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=12)))
        else:
            run = data.draw(st.binary(min_size=1, max_size=12))
        return body[:at] + run + body[at + len(run) :]
    if how == "extend":
        return body + data.draw(st.binary(min_size=1, max_size=12))
    return data.draw(st.binary(max_size=120))


@settings(max_examples=400)
@given(data=st.data())
def test_fuzzed_share_and_responses_bodies_raise_only_ftp_errors(scheme, valid_bodies, data):
    """Valid SHARE and RESPONSES bodies roundtrip bit for bit; truncated,
    overwritten or extended ones, and random bytes, make parse_shares and
    parse_responses, each given the one body, return or raise an FtpError,
    and nothing else."""
    t = scheme.tower
    share_raw, responses_raw = valid_bodies
    assert proto.share_bodies(b"jobid123", t, *_parse_share(scheme, share_raw)) == [share_raw]
    replies = proto.parse_responses(scheme, b"jobid123", [responses_raw])
    assert proto.responses_body(b"jobid123", t, replies, [1]) == [responses_raw]
    raw = _mutated(data, data.draw(st.sampled_from(valid_bodies)))
    for parse in (lambda: _parse_share(scheme, raw),
                  lambda: proto.parse_responses(scheme, b"jobid123", [raw])):
        try:
            parse()
        except FtpError:
            pass


class _NotBuilt(Exception):
    """A field within the daemon's limits that the PARAMS fuzz does not
    build, as building it could take seconds."""


@settings(max_examples=300)
@given(data=st.data())
def test_fuzzed_params_bodies_raise_only_ftp_errors(scheme, data):
    """Valid PARAMS bodies, for a server in both groups and one in group 2
    only, parse to the scheme's job; truncated, overwritten or extended
    ones, and random bytes, make parse_params return a job or raise an
    FtpError, and nothing else, and no field past MAX_AXIS_DIGITS or
    MAX_ELEMENT_DIGITS is asked for.  A field within them is built only if
    it is small (axes of at most 12 digits, elements of at most 64)."""
    bodies = [proto.params_body(b"jobid123", scheme, j) for j in (1, scheme.N[-1])]
    build = proto._cached_tower

    def bounded(p, d, modulus, primes):
        digits = (max(primes) * d, math.prod(primes) * d)
        assert digits[0] <= proto.MAX_AXIS_DIGITS and digits[1] <= proto.MAX_ELEMENT_DIGITS
        if digits[0] > 12 or digits[1] > 64:
            raise _NotBuilt
        return build(p, d, modulus, primes)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(proto, "_cached_tower", bounded)
        for j, body in zip((1, scheme.N[-1]), bodies):
            job = proto.parse_params(body)
            assert (job.server_index, job.tower, job.L) == (j, scheme.tower, scheme.L)
        try:
            proto.parse_params(_mutated(data, data.draw(st.sampled_from(bodies))))
        except (FtpError, _NotBuilt):
            pass


@pytest.mark.parametrize("corrupt", [_digit_p, _one_byte_short, _five_bytes])
def test_server_answers_bad_share_with_error_then_serves(scheme, live_server, corrupt):
    import socket

    job = b"badshare"
    body = corrupt(_share_body(job, scheme), scheme)
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


def test_daemon_refuses_a_w_off_its_axis_then_serves(scheme, live_server):
    """A PARAMS whose w for group i has a nonzero digit off axis i, so that
    it does not lie in F_q0(a_i), gets an error frame of code 1 that names
    InvalidParams, each such frame on one kept connection; the daemon then
    serves a valid job.  Drawn: the group, the position off the axis and the
    digit."""
    import socket

    body = proto.params_body(b"offaxis0", scheme, 1)
    off_axis = {i: [k for k, e in enumerate(np.ndindex(scheme.primes))
                    if any(e[a] for a in range(scheme.L) if a != i - 1)] for i in (1, 2)}
    with socket.create_connection(("127.0.0.1", live_server.port), timeout=5) as sock:

        @settings(max_examples=40)
        @given(data=st.data())
        def refused(data):
            i = data.draw(st.sampled_from([1, 2]))
            at = _GROUPS_AT + (i - 1) * _STEP + 1 + data.draw(st.sampled_from(off_axis[i]))
            assert body[at] == 0  # d = 1: one digit per position
            bad = _set_byte(body, at, data.draw(st.integers(1, scheme.base.p - 1)))
            mtype, reply = _exchange(sock, proto.MSG_PARAMS, bad)
            assert mtype == proto.MSG_ERROR
            assert reply[0] == 1 and b"InvalidParams" in reply

        refused()
    A = random_mat(scheme.a, scheme.b, scheme.tower, seed=8)
    B = random_mat(scheme.b, scheme.c, scheme.tower, seed=9)
    endpoints = [("127.0.0.1", live_server.port)] * scheme.N[-1]
    product, _ = proto.run_remote(endpoints, scheme, A, B, seed=5)
    assert product.eq(mat_mul(A, B))


@pytest.fixture()
def kept_socket(live_server):
    """A connection to the live daemon, and its endpoint; closed after the
    test, and taken out of run_remote's kept sockets if it was left there."""
    import socket

    endpoint = ("127.0.0.1", live_server.port)
    sock = socket.create_connection(endpoint, timeout=5)
    yield sock, endpoint
    if proto._kept.get(endpoint) is sock:
        del proto._kept[endpoint]
    sock.close()


@settings(max_examples=300)
@given(data=st.data())
def _fuzz_one_frame(data, sock, scheme, params, share, valid):
    """One drawn frame on sock, and a check of its reply: a SHARE mutated as
    _mutated does with digits below p, after its job's PARAMS; a PARAMS
    whose field and dimensions stay and whose groups (count, ids and w
    digits) are mutated, so that no new field is built; or a frame of a
    type the daemon does not know.  Each gets an error frame or the valid
    reply to its frame; the valid replies' kinds go to ``valid``."""
    job_id, p = params[:8], scheme.base.p
    kind = data.draw(st.sampled_from(["SHARE", "PARAMS", "unknown"]))
    if kind == "SHARE":
        assert _exchange(sock, proto.MSG_PARAMS, params) == (proto.MSG_PARAMS, job_id)
        mtype, reply = _exchange(sock, proto.MSG_SHARE, _mutated(data, share, p))
        assert mtype == proto.MSG_ERROR and reply[0] in (1, 3) or mtype == proto.MSG_RESPONSES
        if mtype == proto.MSG_RESPONSES:  # parses only as server 1's reply to this job
            proto.parse_responses(scheme, job_id, [reply])
    elif kind == "PARAMS":
        tail = _mutated(data, params[_GROUPS_AT - 1 :], p)
        mtype, reply = _exchange(sock, proto.MSG_PARAMS, params[: _GROUPS_AT - 1] + tail)
        assert (mtype == proto.MSG_ERROR and reply[0] == 1
                or (mtype, reply) == (proto.MSG_PARAMS, job_id))
    else:
        mtype = data.draw(st.sampled_from([0, 4, 5, *range(7, 256)]))  # not HELLO to STATS
        mtype, reply = _exchange(sock, mtype, data.draw(st.binary(max_size=40)))
        assert (mtype, reply[0]) == (proto.MSG_ERROR, 4)
    if mtype != proto.MSG_ERROR:
        valid.append(kind)


def test_fuzzed_frames_on_a_kept_connection_get_errors_then_a_job_runs(
        scheme, kept_socket, connections):
    """Drawn frames (``_fuzz_one_frame``) on one connection to a live
    daemon; run_remote then takes that connection as its kept one, opens
    no other, and its job decodes."""
    sock, endpoint = kept_socket
    params = proto.params_body(b"fuzzjob1", scheme, 1)
    share = _share_body(b"fuzzjob1", scheme)
    valid = []
    _fuzz_one_frame(sock=sock, scheme=scheme, params=params, share=share, valid=valid)
    # Some mutated frames stay legal and get their valid reply.
    assert "SHARE" in valid and "PARAMS" in valid
    proto._kept[endpoint] = sock
    A, B = _job(scheme)
    product, _ = proto.run_remote([endpoint] * scheme.N[-1], scheme, A, B, seed=7)
    assert product.eq(mat_mul(A, B))
    assert proto._kept[endpoint] is sock and connections == []


def test_server_refuses_a_share_that_does_not_fit_its_params(scheme, live_server):
    """PARAMS for a 2 x 2 times 2 x 2 job with L = 2, then a SHARE of 40 x 30
    and 30 x 40 matrices: the daemon answers MSG_ERROR, not a product, and
    then serves a valid job."""
    import socket

    job = b"oversize"
    big = proto.share_bodies(job, scheme.tower, random_mat(40, 30, scheme.tower, seed=1).data[None],
                             random_mat(30, 40, scheme.tower, seed=2).data[None])[0]
    with socket.create_connection(("127.0.0.1", live_server.port), timeout=5) as sock:
        mtype, _ = _exchange(sock, proto.MSG_PARAMS, proto.params_body(job, scheme, 1))
        assert mtype == proto.MSG_PARAMS
        mtype, reply = _exchange(sock, proto.MSG_SHARE, big)
    assert mtype == proto.MSG_ERROR
    assert reply[0] == 1 and b"MalformedFrame" in reply
    A = random_mat(scheme.a, scheme.b, scheme.tower, seed=8)
    B = random_mat(scheme.b, scheme.c, scheme.tower, seed=9)
    endpoints = [("127.0.0.1", live_server.port)] * scheme.N[-1]
    product, _ = proto.run_remote(endpoints, scheme, A, B, seed=6)
    assert product.eq(mat_mul(A, B))


def test_server_drops_each_job_once_answered(scheme, live_server):
    """A job's SHARE ends it, whether answered or refused as malformed: the
    same SHARE again gets error 3."""
    import socket

    job = b"onceonly"
    body = _share_body(job, scheme)
    with socket.create_connection(("127.0.0.1", live_server.port), timeout=5) as sock:
        for first, want in ((body, proto.MSG_RESPONSES), (body[:-1], proto.MSG_ERROR)):
            mtype, _ = _exchange(sock, proto.MSG_PARAMS, proto.params_body(job, scheme, 1))
            assert mtype == proto.MSG_PARAMS
            assert _exchange(sock, proto.MSG_SHARE, first)[0] == want
            _assert_unknown(sock, scheme, job)


def _params_for(p, d, modulus, primes, groups=1, abc=(1, 1, 1)):
    """A well-formed PARAMS body for server 1 of an a x b x c job (1 x 1 x 1
    by default) over F_{p^d}(primes), with zero trace scalars for groups
    1..groups."""
    body = b"bigfield" + struct.pack(">HHB", 1, p, d) + bytes(modulus)
    body += bytes([len(primes)]) + b"".join(struct.pack(">H", n) for n in primes)
    body += struct.pack(">III", *abc) + bytes([groups])
    for i in range(1, groups + 1):
        body += bytes([i]) + bytes(int(np.prod(primes)) * d)
    return body


@pytest.mark.parametrize("primes", [(101,), (17,), (2, 3, 5, 7, 11)])
def test_parse_params_rejects_a_field_past_the_limits(primes, monkeypatch):
    """Over F_27: axes of degree 101 and 17 (303 and 51 digits per axis),
    and elements of 6930 digits, are refused before a field is built."""
    monkeypatch.setattr(proto, "_cached_tower", _no_field)
    with pytest.raises(FieldTooLarge):
        proto.parse_params(_params_for(3, 3, (1, 0, 2, 1), primes))


def test_daemon_refuses_a_huge_field_fast_then_serves(scheme, live_server):
    """PARAMS for F_27(a) with a of degree 101 would take tens of seconds to
    build; the daemon answers it with an error at once, and then serves a
    valid job."""
    import socket
    import time

    start = time.perf_counter()
    with socket.create_connection(("127.0.0.1", live_server.port), timeout=5) as sock:
        mtype, body = _exchange(sock, proto.MSG_PARAMS, _params_for(3, 3, (1, 0, 2, 1), (101,)))
    assert time.perf_counter() - start < 1.0
    assert mtype == proto.MSG_ERROR and b"FieldTooLarge" in body
    A = random_mat(scheme.a, scheme.b, scheme.tower, seed=8)
    B = random_mat(scheme.b, scheme.c, scheme.tower, seed=9)
    endpoints = [("127.0.0.1", live_server.port)] * scheme.N[-1]
    product, _ = proto.run_remote(endpoints, scheme, A, B, seed=2)
    assert product.eq(mat_mul(A, B))


def test_parse_params_rejects_a_product_past_the_limit(monkeypatch):
    """Over F_4(a) with a of degree 2, h holds 4 a c digits: a job at
    MAX_PRODUCT_DIGITS parses, and one more column is refused before a
    field is built."""
    limit = proto.MAX_PRODUCT_DIGITS
    job = proto.parse_params(_params_for(2, 2, (1, 1, 1), (2,), abc=(1 << 11, 1, limit >> 13)))
    assert 4 * job.a * job.c == limit
    monkeypatch.setattr(proto, "_cached_tower", _no_field)
    for abc in [(1 << 11, 1, (limit >> 13) + 1), (1 << 16, 1, 1 << 16), (2**32 - 1, 1, 2**32 - 1)]:
        with pytest.raises(FieldTooLarge):
            proto.parse_params(_params_for(2, 2, (1, 1, 1), (2,), abc=abc))


def test_daemon_refuses_a_huge_product_then_serves(scheme, live_server):
    """PARAMS for a 2^16 x 2^16 product with w = 1, which a SHARE of about
    0.8 MB would complete, is answered with an error, and the daemon then
    serves a valid job."""
    import socket

    with socket.create_connection(("127.0.0.1", live_server.port), timeout=5) as sock:
        body = _params_for(11, 1, (0, 1), (2,), abc=(1 << 16, 1, 1 << 16))
        mtype, reply = _exchange(sock, proto.MSG_PARAMS, body)
        assert mtype == proto.MSG_ERROR and b"FieldTooLarge" in reply
        _assert_unknown(sock, scheme, b"bigfield")
    A, B = _job(scheme)
    endpoints = [("127.0.0.1", live_server.port)] * scheme.N[-1]
    product, _ = proto.run_remote(endpoints, scheme, A, B, seed=2)
    assert product.eq(mat_mul(A, B))


def test_parse_params_rejects_a_share_past_the_limit(monkeypatch):
    """Over F_4(a) with a of degree 2, each SHARE matrix holds 4 digits per
    entry: an a x b/L matrix, and then a b/L x c one, at MAX_PRODUCT_DIGITS
    parses while the product stays small, and one more column of either is
    refused before a field is built."""
    limit = proto.MAX_PRODUCT_DIGITS
    for abc in [(1 << 11, limit >> 13, 1), (1, 1 << 11, limit >> 13)]:
        job = proto.parse_params(_params_for(2, 2, (1, 1, 1), (2,), abc=abc))
        assert 4 * max(job.a * job.b, job.b * job.c) == limit and 4 * job.a * job.c < limit
    monkeypatch.setattr(proto, "_cached_tower", _no_field)
    for abc in [(1 << 11, (limit >> 13) + 1, 1), (1, (limit >> 13) + 1, 1 << 11),
                (1, 2**32 - 2, 1)]:
        with pytest.raises(FieldTooLarge):
            proto.parse_params(_params_for(2, 2, (1, 1, 1), (2,), abc=abc))


def test_daemon_refuses_a_huge_share_then_serves(scheme, live_server):
    """PARAMS for a 1 x 2^24 by 2^24 x 1 job, whose product is one element
    but whose SHARE would be 64 MB, is answered with an error, and the
    daemon then serves a valid job."""
    import socket

    with socket.create_connection(("127.0.0.1", live_server.port), timeout=5) as sock:
        body = _params_for(11, 1, (0, 1), (2,), abc=(1, 1 << 24, 1))
        mtype, reply = _exchange(sock, proto.MSG_PARAMS, body)
        assert mtype == proto.MSG_ERROR and b"FieldTooLarge" in reply
        _assert_unknown(sock, scheme, b"bigfield")
    A, B = _job(scheme)
    endpoints = [("127.0.0.1", live_server.port)] * scheme.N[-1]
    product, _ = proto.run_remote(endpoints, scheme, A, B, seed=2)
    assert product.eq(mat_mul(A, B))


def _frame_header(msg_type, length):
    return proto.MAGIC + bytes([proto.VERSION, msg_type]) + struct.pack(">I", length)


def test_read_message_refuses_a_long_body_before_reading_it():
    """A header announcing MAX_FRAME_BYTES + 1 bytes raises MalformedFrame at
    once, with no body sent; one announcing MAX_FRAME_BYTES waits for its
    body, and times out.  The limit holds a SHARE at MAX_PRODUCT_DIGITS."""
    import socket

    from ftp_sdmm.errors import ProtocolTimeout

    assert proto.MAX_FRAME_BYTES >= 2 * proto.MAX_PRODUCT_DIGITS + 10 + 16
    near, far = socket.socketpair()
    with near, far:
        far.settimeout(0.2)
        near.sendall(_frame_header(proto.MSG_SHARE, proto.MAX_FRAME_BYTES + 1))
        with pytest.raises(MalformedFrame):
            proto.read_message(far)
        near.sendall(_frame_header(proto.MSG_SHARE, proto.MAX_FRAME_BYTES))
        with pytest.raises(ProtocolTimeout):
            proto.read_message(far)


def test_daemon_drops_a_frame_past_the_limit_then_serves(scheme, live_server):
    """A header announcing a body past MAX_FRAME_BYTES: the daemon closes
    that connection without waiting for the body, and serves a valid job."""
    import socket

    with socket.create_connection(("127.0.0.1", live_server.port), timeout=5) as sock:
        sock.sendall(_frame_header(proto.MSG_SHARE, proto.MAX_FRAME_BYTES + 1))
        assert sock.recv(1) == b""
    A, B = _job(scheme)
    endpoints = [("127.0.0.1", live_server.port)] * scheme.N[-1]
    product, _ = proto.run_remote(endpoints, scheme, A, B, seed=2)
    assert product.eq(mat_mul(A, B))


def test_a_second_params_replaces_the_first(scheme, live_server):
    """A connection holds one pending job: after PARAMS for two jobs, the
    first job's SHARE gets error 3, as does the second job's SHARE for
    another server, and neither ends the second job, whose SHARE is then
    answered.  A refused PARAMS leaves no job pending."""
    import socket

    with socket.create_connection(("127.0.0.1", live_server.port), timeout=5) as sock:
        for job in (b"replaced", b"replacer"):
            mtype, _ = _exchange(sock, proto.MSG_PARAMS, proto.params_body(job, scheme, 1))
            assert mtype == proto.MSG_PARAMS
        _assert_unknown(sock, scheme, b"replaced", 1)
        _assert_unknown(sock, scheme, b"replacer", 2)
        mtype, _ = _exchange(sock, proto.MSG_SHARE, _share_body(b"replacer", scheme))
        assert mtype == proto.MSG_RESPONSES
        mtype, _ = _exchange(sock, proto.MSG_PARAMS, proto.params_body(b"bigfield", scheme, 1))
        assert mtype == proto.MSG_PARAMS
        huge = _params_for(11, 1, (0, 1), (2,), abc=(1 << 16, 1, 1 << 16))  # also job b"bigfield"
        assert _exchange(sock, proto.MSG_PARAMS, huge)[0] == proto.MSG_ERROR
        _assert_unknown(sock, scheme, b"bigfield", 1)


def test_the_daemon_serves_at_most_max_connections_at_once(scheme, live_server, monkeypatch):
    """With the bound at 2 and two connections open, a third gets an error
    frame and EOF, whether it reads at once, sends a HELLO first or sends a
    whole job (run_remote's PARAMS and SHARE frames, the client's error
    names the bound); once one of the two closes, a job runs on a new
    connection."""
    import socket

    monkeypatch.setattr(proto, "MAX_CONNECTIONS", 2)
    address = ("127.0.0.1", live_server.port)
    first = socket.create_connection(address, timeout=5)
    second = socket.create_connection(address, timeout=5)
    A, B = _job(scheme)
    try:
        for sock in (first, second):
            assert _exchange(sock, proto.MSG_HELLO, b"")[0] == proto.MSG_HELLO
        for hello in (False, True):
            with socket.create_connection(address, timeout=5) as third:
                if hello:
                    third.sendall(proto.pack_message(proto.MSG_HELLO, b""))
                    time.sleep(0.05)  # the daemon has read the HELLO's bytes or not
                mtype, body = proto.read_message(third)
                assert mtype == proto.MSG_ERROR and body[0] == 5 and b"connections" in body
                assert third.recv(1) == b""
        with pytest.raises(ProtocolError, match="server 1 at PARAMS: 2 connections are open"):
            proto.run_remote([address] * scheme.N[-1], scheme, A, B, seed=2)
        assert _exchange(second, proto.MSG_HELLO, b"")[0] == proto.MSG_HELLO
        first.close()
        _wait_until(lambda: len(live_server._conns) == 1)
        product, _ = proto.run_remote([address] * scheme.N[-1], scheme, A, B, seed=2)
        assert product.eq(mat_mul(A, B))
    finally:
        first.close()
        second.close()


def test_tower_cache_keeps_the_towers_used_last(monkeypatch):
    monkeypatch.setattr(proto, "_tower_cache", {})
    fields = [(p, 1, (0, 1), (2,)) for p in (3, 5, 7, 13, 17, 19, 23, 29, 31, 37)]
    first = proto._cached_tower(*fields[0])
    for key in fields[1:]:
        proto._cached_tower(*key)
        assert proto._cached_tower(*fields[0]) is first  # a hit renews it
    assert len(proto._tower_cache) == proto.TOWER_CACHE_SIZE
    assert list(proto._tower_cache)[-2:] == [fields[-1], fields[0]]
    assert fields[1] not in proto._tower_cache


def _job(scheme, seed=8):
    return (random_mat(scheme.a, scheme.b, scheme.tower, seed=seed),
            random_mat(scheme.b, scheme.c, scheme.tower, seed=seed + 1))


@pytest.fixture()
def connections(monkeypatch):
    """The endpoints of every connection run_remote opens."""
    import socket

    opened = []
    real = socket.create_connection

    def counting(address, *args, **kwargs):
        opened.append(address)
        return real(address, *args, **kwargs)

    monkeypatch.setattr(socket, "create_connection", counting)
    return opened


def test_remote_jobs_share_one_kept_connection(scheme, live_server, connections):
    A, B = _job(scheme)
    endpoints = [("127.0.0.1", live_server.port)] * scheme.N[-1]
    for seed in (1, 2):
        product, _ = proto.run_remote(endpoints, scheme, A, B, seed=seed)
        assert product.eq(mat_mul(A, B))
    assert connections == [("127.0.0.1", live_server.port)]


def _wait_until(done, seconds=5.0):
    import time

    end = time.monotonic() + seconds
    while not done() and time.monotonic() < end:
        time.sleep(0.01)
    assert done()


def test_remote_reconnects_once_the_daemon_closed_an_idle_connection(
        scheme, live_server, connections, monkeypatch):
    monkeypatch.setenv(proto.TIMEOUT_ENV, "300")
    A, B = _job(scheme)
    endpoints = [("127.0.0.1", live_server.port)] * scheme.N[-1]
    proto.run_remote(endpoints, scheme, A, B, seed=1)
    _wait_until(lambda: not live_server._conns)  # the handler timed out and closed it
    product, _ = proto.run_remote(endpoints, scheme, A, B, seed=2)
    assert product.eq(mat_mul(A, B))
    assert len(connections) == 2


def test_an_invalid_timeout_gets_an_error_frame_from_the_handler(live_server, monkeypatch):
    """The daemon reads FTP_SDMM_TIMEOUT_MS per connection: set to abc after
    it started, a HELLO on a new connection gets an error frame (code 1)
    naming the variable, then EOF, and no exception escapes the handler
    thread."""
    import socket

    escaped = []
    monkeypatch.setattr(threading, "excepthook", lambda args: escaped.append(args.exc_value))
    monkeypatch.setenv(proto.TIMEOUT_ENV, "abc")
    with socket.create_connection(("127.0.0.1", live_server.port), timeout=5) as sock:
        sock.sendall(proto.pack_message(proto.MSG_HELLO, b""))
        mtype, body = proto.read_message(sock)
        assert mtype == proto.MSG_ERROR and body[0] == 1
        assert proto.TIMEOUT_ENV.encode() in body and b"'abc'" in body
        assert sock.recv(1) == b""
    _wait_until(lambda: not live_server._conns)  # the handler has returned
    assert escaped == []


def test_stopped_server_shuts_down_the_kept_socket(scheme, live_server):
    A, B = _job(scheme)
    endpoint = ("127.0.0.1", live_server.port)
    proto.run_remote([endpoint] * scheme.N[-1], scheme, A, B)
    sock = proto._kept[endpoint]
    live_server.stop()
    sock.settimeout(5)
    assert sock.recv(1) == b""


def test_an_error_reply_fails_its_job_and_the_next_job_runs(scheme, live_server, monkeypatch):
    """The daemon answers server 3's SHARE with MSG_ERROR once: that job
    raises, naming server 3 at SHARE, and the next job decodes."""
    from ftp_sdmm.errors import ProtocolError

    real = proto.server_step
    calls = []

    def failing_third(*args):
        calls.append(args)
        if len(calls) == 3:
            raise ValueError("injected")
        return real(*args)

    monkeypatch.setattr(proto, "server_step", failing_third)
    A, B = _job(scheme)
    endpoints = [("127.0.0.1", live_server.port)] * scheme.N[-1]
    with pytest.raises(ProtocolError) as err:
        proto.run_remote(endpoints, scheme, A, B, seed=1)
    assert str(err.value).startswith("server 3 at SHARE: ValueError: injected")
    product, _ = proto.run_remote(endpoints, scheme, A, B, seed=2)
    assert product.eq(mat_mul(A, B))


def _answering_another_job(real):
    return lambda job_id, *rest: real(b"otherjob", *rest)


def _answering_as_the_next_server(real):
    return lambda job_id, tower, replies, servers: real(job_id, tower, replies,
                                                        [j + 1 for j in servers])


def _adding_group_1(real):
    """server_step with a zero group-1 reply for the servers past N_1."""
    def step(tower, taus, F, G):
        replies = real(tower, taus, F, G)
        f_1 = tower.subtower(list(range(1, tower.L)))
        replies.setdefault(1, np.zeros((len(F), F.shape[1], G.shape[2]) + f_1.shape, np.int64))
        return replies
    return step


def _dropping_the_last_group(real):
    def step(tower, taus, F, G):
        replies = real(tower, taus, F, G)
        del replies[max(replies)]
        return replies
    return step


# The first server whose reply each mutation makes wrong: the daemon's
# attribute patched, the mutation, and that server, given N.
_UNASKED_REPLIES = {
    "another job id": ("responses_body", _answering_another_job, lambda N: 1),
    "another server index": ("responses_body", _answering_as_the_next_server, lambda N: 1),
    "an extra group": ("server_step", _adding_group_1, lambda N: N[0] + 1),
    "a missing group": ("server_step", _dropping_the_last_group, lambda N: 1),
}


@pytest.mark.parametrize("case", list(_UNASKED_REPLIES))
def test_the_client_refuses_a_reply_it_did_not_ask_for(scheme, live_server, case):
    """A live daemon that answers with another job id or server index, or
    with groups other than {i : j <= N_i}: run_remote raises MalformedFrame
    naming the first such server, and the next job, answered as asked,
    decodes over the same kept connection."""
    attr, mutation, first = _UNASKED_REPLIES[case]
    A, B = _job(scheme)
    endpoints = [("127.0.0.1", live_server.port)] * scheme.N[-1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(proto, attr, mutation(getattr(proto, attr)))
        with pytest.raises(MalformedFrame, match=f"^server {first(scheme.N)}: "):
            proto.run_remote(endpoints, scheme, A, B, seed=1)
    product, _ = proto.run_remote(endpoints, scheme, A, B, seed=2)
    assert product.eq(mat_mul(A, B))


def test_run_remote_starts_no_thread(scheme, live_server, monkeypatch):
    A, B = _job(scheme)
    endpoints = [("127.0.0.1", live_server.port)] * scheme.N[-1]
    proto.run_remote(endpoints, scheme, A, B, seed=1)  # the daemon's handler starts here
    started = []
    real = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda t: started.append(t) or real(t))
    before = threading.active_count()
    product, _ = proto.run_remote(endpoints, scheme, A, B, seed=2)
    assert product.eq(mat_mul(A, B))
    assert threading.active_count() == before and started == []


def test_two_servers_as_two_endpoints_match_inprocess(scheme, live_server, serve):
    A, B = _job(scheme)
    ports = (live_server.port, serve().port)
    endpoints = [("127.0.0.1", ports[j % 2]) for j in range(scheme.N[-1])]
    product, ledger = proto.run_remote(endpoints, scheme, A, B, seed=3)
    local_product, local_ledger = proto.run_inprocess(scheme, A, B, seed=3)
    assert np.array_equal(product.data, local_product.data)
    assert ledger.per_server == local_ledger.per_server


def test_stats_frame_counts_jobs_bytes_times_and_errors(scheme, serve):
    """After two remote jobs, one daemon per server, each daemon's STATS
    reply counts 2 jobs, payload bytes in and out equal to its server's in
    the two ledgers, and time in parse, server_step and reply.  A STATS
    frame with a body gets error 1, an unknown type still gets error 4, and
    the counters then hold one of each."""
    import socket

    servers = [serve() for _ in range(scheme.N[-1])]
    endpoints = [("127.0.0.1", server.port) for server in servers]
    ledgers = [proto.run_remote(endpoints, scheme, *_job(scheme, seed), seed=seed)[1]
               for seed in (1, 2)]
    for j, server in enumerate(servers, start=1):
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
            mtype, body = _exchange(sock, proto.MSG_STATS, b"")
            assert mtype == proto.MSG_STATS
            stats = json.loads(body)
            assert stats["jobs"] == 2 and stats["errors"] == {}
            for key, slot in (("bytes_in", "up_bytes"), ("bytes_out", "down_bytes")):
                assert stats[key] == sum(ledger.per_server[j][slot] for ledger in ledgers)
            assert all(stats[k] > 0 for k in ("parse_s", "server_step_s", "reply_s"))
            assert _exchange(sock, proto.MSG_STATS, b"x")[1][0] == 1
            assert _exchange(sock, 42, b"")[1][0] == 4
            assert json.loads(_exchange(sock, proto.MSG_STATS, b"")[1])["errors"] == {"1": 1, "4": 1}


def test_daemon_stats_lose_no_update_across_threads():
    """Eight threads add 500 frames each to one DaemonStats at a switch
    interval of 1 us; the counters hold every one of them."""
    stats = proto.DaemonStats()

    def adds():
        for _ in range(500):
            stats.add(4, jobs=1, bytes_in=3, bytes_out=2, parse_s=0.5)

    threads = [threading.Thread(target=adds) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    totals = json.loads(stats.body())
    assert (totals["jobs"], totals["bytes_in"], totals["bytes_out"]) == (4000, 12000, 8000)
    assert totals["parse_s"] == 2000.0 and totals["errors"] == {"4": 4000}


def test_an_unanswered_job_leaves_with_its_connection(scheme, live_server):
    """A job lives on the connection that sent its PARAMS: its SHARE on
    another open connection gets error 3, and on its own connection is then
    answered.  A job left pending there is unknown after that connection
    closes."""
    import socket

    address = ("127.0.0.1", live_server.port)
    params = proto.params_body(b"noshare!", scheme, 1)
    with socket.create_connection(address, timeout=5) as own, \
            socket.create_connection(address, timeout=5) as other:
        assert _exchange(own, proto.MSG_PARAMS, params)[0] == proto.MSG_PARAMS
        _assert_unknown(other, scheme, b"noshare!")
        body = _share_body(b"noshare!", scheme)
        assert _exchange(own, proto.MSG_SHARE, body)[0] == proto.MSG_RESPONSES
        assert _exchange(own, proto.MSG_PARAMS, params)[0] == proto.MSG_PARAMS
    with socket.create_connection(address, timeout=5) as sock:
        _assert_unknown(sock, scheme, b"noshare!")


def test_both_ends_of_a_kept_connection_set_tcp_nodelay(scheme, live_server):
    """Without TCP_NODELAY, Nagle's algorithm holds a reply behind the
    unacknowledged one before it until the peer's delayed ACK."""
    import socket

    A, B = _job(scheme)
    endpoint = ("127.0.0.1", live_server.port)
    proto.run_remote([endpoint] * scheme.N[-1], scheme, A, B)
    ends = [proto._kept[endpoint], *live_server._conns]
    assert len(ends) == 2
    assert all(s.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) for s in ends)


def test_a_hung_endpoint_costs_one_timeout(scheme, monkeypatch):
    """A listener that never answers: the first server times out, and the
    endpoint's other servers fail at once, each named, not after a timeout
    each."""
    import socket
    import time

    from ftp_sdmm.errors import ProtocolTimeout

    monkeypatch.setenv(proto.TIMEOUT_ENV, "300")
    A, B = _job(scheme)
    with socket.socket() as hung:
        hung.bind(("127.0.0.1", 0))
        hung.listen(16)
        start = time.perf_counter()
        with pytest.raises(ProtocolTimeout) as err:
            proto.run_remote([hung.getsockname()] * scheme.N[-1], scheme, A, B)
        assert time.perf_counter() - start < 1.0
    named = [part.split(":")[0] for part in str(err.value).split("; ")]
    assert named == [f"server {j} at PARAMS" for j in range(1, scheme.N[-1] + 1)]


_DAEMON = """
import sys, threading
from ftp_sdmm.proto import Server
server = Server()
threading.Thread(target=server.serve_forever, daemon=True).start()
print(server.port, flush=True)
sys.stdin.read()
server.stop()
"""


def _resident_bytes(pid):
    """A process's resident size, from /proc/<pid>/statm (read only)."""
    with open(f"/proc/{pid}/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/<pid>/statm")
def test_daemon_resident_size_stays_flat_over_many_jobs(scheme, connections):
    """One daemon process and one kept connection: after 50 warm-up jobs,
    300 more run_remote jobs grow the daemon's resident size by less than
    512 KB, so it keeps nothing per job."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    daemon = subprocess.Popen([sys.executable, "-c", _DAEMON], env=env, text=True,
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    endpoint = None
    try:
        endpoint = ("127.0.0.1", int(daemon.stdout.readline()))
        A, B = _job(scheme)

        def jobs(count):
            for seed in range(count):
                product, _ = proto.run_remote([endpoint] * scheme.N[-1], scheme, A, B, seed=seed)
                assert product.eq(mat_mul(A, B))

        jobs(50)
        before = _resident_bytes(daemon.pid)
        jobs(300)
        grown = _resident_bytes(daemon.pid) - before
        assert connections == [endpoint]
        assert grown < 512 * 1024
    finally:
        sock = proto._kept.pop(endpoint, None)
        if sock is not None:
            sock.close()
        daemon.stdin.close()
        try:
            daemon.wait(timeout=10)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.wait()
        daemon.stdout.close()
