"""Wire format, traffic accounting, the in-process simulator, and a TCP
runner so servers can live in separate processes.

Field elements travel as one byte per base-prime digit (requires p < 256):
a full element is d * prod(p_i) bytes in multi-index lexicographic order
(axis 1 slowest, base-field digits low-degree first).  A group-i reply is a
tensor on the axes of the subfield F_i, the tower's axes without axis i, and
travels as those digits alone, d * prod(p_i) / p_i bytes per entry.  Payload
byte counts therefore equal d times the base-field symbol counts, which is
what makes the cost accounting auditable on the wire.

A job stays three stacks from encode to decode: the shares F and G, one
row per server, and per group i the (N_i, a, c, *F_i.shape) stack of its
traces.  Both runners take one path (_job) and differ only in how SHARE
bodies become RESPONSES bodies: server_compute in process, or the daemons
over TCP.  A daemon answers every whole frame that has arrived on a
connection as one batch, in one write: it checks the SHARE bodies as hostile
bytes over all their rows at once, and parses and computes a flight's
servers as one stack, with the same parser and server_step.

The TCP runner keeps one open connection per endpoint across jobs, with
TCP_NODELAY set on both ends, and starts no thread.  On each connection it
sends as many servers' PARAMS and SHARE as their replies fit
REPLY_WINDOW_BYTES in one sendall, then reads their replies in order, so
distinct endpoints compute at once.  A kept connection that fails before
its first reply byte (the daemon closed it while idle) is replaced once.
The daemon serves each connection from one thread, keeps at most one
pending job per connection, on that connection alone, and parses a PARAMS
body once (_params_cache).  A STATS frame, of empty body, gets its
counters since it started, as JSON."""

import json
import os
import socket
import struct
import threading
import time
from collections import Counter
from dataclasses import dataclass, field as dc_field, replace
from itertools import accumulate
from math import prod

import numpy as np

from .errors import (
    ConnectionFailed,
    DigitOverflow,
    FieldTooLarge,
    InvalidParams,
    MalformedFrame,
    ProtocolError,
    ProtocolTimeout,
    VersionMismatch,
)
from .fields import BaseField, TowerField
from .ftp import decode, encode, server_compute, server_groups, server_step
from .matrices import Mat

MAGIC = b"FTPC"
VERSION = 1

MSG_HELLO = 1
MSG_PARAMS = 2
MSG_SHARE = 3
MSG_RESPONSES = 4
MSG_ERROR = 5
MSG_STATS = 6

DEFAULT_TIMEOUT_MS = 30_000
TIMEOUT_ENV = "FTP_SDMM_TIMEOUT_MS"


def _timeout_seconds():
    """TIMEOUT_ENV in seconds, else the default.  InvalidParams unless it is
    a whole number of milliseconds from 1 to 2^31 - 1, in decimal digits."""
    raw = os.environ.get(TIMEOUT_ENV) or str(DEFAULT_TIMEOUT_MS)
    if not (raw.isascii() and raw.isdigit() and 0 < int(raw) < 1 << 31):
        raise InvalidParams(f"{TIMEOUT_ENV}={raw!r} is not a whole number of ms from 1 to 2^31 - 1")
    return int(raw) / 1000.0


# -- element and matrix serialization -----------------------------------------

def _check_digit_format(tower):
    if tower.base.p >= 256:
        raise DigitOverflow(f"digit-per-byte wire format needs p < 256, got {tower.base.p}")


def elem_to_bytes(tower, x):
    _check_digit_format(tower)
    return x.astype(np.uint8).tobytes()


def _digits(field, digits, shape):
    """uint8 digits as an int64 tensor of ``shape``, which ends in
    field.shape.  MalformedFrame if a digit is not below p."""
    _check_digit_format(field)
    if (digits >= field.base.p).any():
        raise MalformedFrame(f"a digit is not below p = {field.base.p}")
    return digits.reshape(shape).astype(np.int64)


def elem_from_bytes(tower, raw):
    if len(raw) != tower.flat_size * tower.base.d:
        raise MalformedFrame("element payload has wrong length")
    return _digits(tower, np.frombuffer(raw, dtype=np.uint8), tower.shape)


def mat_to_bytes(tower, m):
    """A Mat's wire form: an 8-byte (rows, cols) header, then its digits in
    C order: entries row-major, each element axis 1 slowest, digits
    low-degree first.  Given a stack (n, rows, cols, ...) of matrices over
    tower or a sub-tower of it in place of a Mat, the n wire forms as the
    rows of one uint8 array, from one cast."""
    _check_digit_format(tower)
    data = m.data[None] if isinstance(m, Mat) else m
    n, rows, cols = data.shape[:3]
    out = np.empty((n, 8 + data[0].size), dtype=np.uint8)
    out[:, :8] = np.frombuffer(struct.pack(">II", rows, cols), dtype=np.uint8)
    out[:, 8:] = data.reshape(n, -1)
    return out[0].tobytes() if isinstance(m, Mat) else out


def mat_from_bytes(tower, raw, offset=0):
    """The Mat that mat_to_bytes wrote at raw[offset:], and the offset past
    it.  Given in place of bytes a uint8 array whose rows each hold a wire
    form at column ``offset``, the (n, rows, cols, *tower.shape) stack of
    them, from one digit check.  MalformedFrame if a header or its digits
    are cut short, the rows' headers differ or a digit is not below p."""
    stacked = isinstance(raw, np.ndarray)
    rows = raw if stacked else np.frombuffer(raw, dtype=np.uint8)[None]
    if rows.shape[1] - offset < 8:
        raise MalformedFrame("matrix header truncated")
    head = rows[:, offset : offset + 8]
    if (head != head[0]).any():
        raise MalformedFrame("the matrices' headers differ")
    shape = struct.unpack(">II", head[0].tobytes()) + tower.shape
    end = offset + 8 + prod(shape)
    if rows.shape[1] < end:
        raise MalformedFrame("payload shorter than its shape")
    data = _digits(tower, rows[:, offset + 8 : end], (len(rows),) + shape)
    return (data, end) if stacked else (Mat(tower, *shape[:2], data[0]), end)


# -- framing -------------------------------------------------------------------

def pack_message(msg_type, body):
    return MAGIC + bytes([VERSION, msg_type]) + struct.pack(">I", len(body)) + body


def _header(buf):
    """Type and body length from the 10-byte frame header at the head of
    buf.  MalformedFrame for a bad magic or a body past MAX_FRAME_BYTES."""
    if buf[:4] != MAGIC:
        raise MalformedFrame("bad magic")
    if buf[4] != VERSION:
        raise VersionMismatch(f"peer version {buf[4]}, expected {VERSION}")
    length = struct.unpack_from(">I", buf, 6)[0]
    if length > MAX_FRAME_BYTES:
        raise MalformedFrame(f"a body of {length} bytes is past {MAX_FRAME_BYTES}")
    return buf[5], length


def _recv_exact(sock, n):
    buf = bytearray()
    while len(buf) < n:
        try:
            part = sock.recv(min(n - len(buf), 1 << 20))
        except socket.timeout as exc:
            raise ProtocolTimeout("peer timed out") from exc
        if not part:
            raise MalformedFrame("connection closed mid-frame")
        buf += part
    return buf


def read_message(sock):
    msg_type, length = _header(_recv_exact(sock, 10))
    return msg_type, _recv_exact(sock, length)


# -- message bodies --------------------------------------------------------------

def params_body(job_id, scheme, server_index):
    """Everything one server needs: field description, dims, and its
    precomputed per-group trace scalars."""
    base = scheme.base
    body = job_id
    body += struct.pack(">H", server_index)
    body += struct.pack(">HB", base.p, base.d)
    body += bytes(int(c) for c in base.modulus)
    body += bytes([scheme.L])
    body += b"".join(struct.pack(">H", p) for p in scheme.primes)
    body += struct.pack(">III", scheme.a, scheme.b, scheme.c)
    groups = server_groups(scheme, server_index)
    body += bytes([len(groups)])
    for i, w in groups.items():
        body += bytes([i])
        body += elem_to_bytes(scheme.tower, w)
    return body


# The largest job a PARAMS frame may ask for, checked before any field is
# built: each axis's degree over F_p (p_i * d) and one element's digits
# (prod(p_i) * d), so the tower builds in about a second or less, and the
# digits of each of its matrices (a x b/L, b/L x c and the product h).  A
# frame body holds at most two of them, one byte per digit, and headers.
MAX_AXIS_DIGITS = 48
MAX_ELEMENT_DIGITS = 4096
MAX_PRODUCT_DIGITS = 1 << 24
MAX_FRAME_BYTES = 2 * MAX_PRODUCT_DIGITS + 4096
MAX_CONNECTIONS = 16  # connections served at once, each by its own thread
_REFUSE_DRAIN_SECONDS = 0.2  # the most a refused connection holds up accept
TOWER_CACHE_SIZE = 8
PARAMS_CACHE_SIZE = 64  # at least paper-full's N_L = 19 servers

_tower_cache = {}
_params_cache = {}  # a body past its job id -> its tower's _tower_cache key, its job's tower None
_tower_cache_lock = threading.Lock()


def _cached_tower(p, d, modulus, primes):
    # One lock over lookup and build, so concurrent PARAMS frames for a new
    # field build its tower once.  The cache keeps the TOWER_CACHE_SIZE
    # towers used last, in order of use.
    key = (p, d, modulus, primes)
    with _tower_cache_lock:
        tower = _tower_cache.pop(key, None)
        if tower is None:
            tower = TowerField(BaseField(p, d, list(modulus)), primes)
        _tower_cache[key] = tower
        while len(_tower_cache) > TOWER_CACHE_SIZE:
            del _tower_cache[next(iter(_tower_cache))]
    return tower


@dataclass
class ServerJob:
    job_id: bytes
    server_index: int
    tower: object
    a: int
    b: int
    c: int
    L: int
    taus: dict   # group i -> trace_scalars of w_ij as a stack of one, (1, p_i, d)
    cached: bool = False  # served from _params_cache


def parse_params(body):
    """A PARAMS body as a ServerJob.  Before any field is built, it raises
    DigitOverflow if p >= 256, MalformedFrame if the body is truncated, has
    a modulus digit not below p, runs past its last group, names a group
    outside 1..L or twice (so never more than L groups), or has a b that L
    does not divide, and FieldTooLarge past MAX_AXIS_DIGITS,
    MAX_ELEMENT_DIGITS or MAX_PRODUCT_DIGITS in any of its matrices.  Then
    trace_scalars raises InvalidParams for a w_ij outside F_q0(a_i).  A body
    that matches a parsed one past its job id is served from _params_cache,
    which keeps the PARAMS_CACHE_SIZE bodies parsed last, and no tower."""
    hit = _params_cache.get(bytes(body[8:]))  # one dict lookup: atomic, so it takes no lock
    if hit is not None:
        return replace(hit[1], job_id=bytes(body[:8]), tower=_cached_tower(*hit[0]), cached=True)
    if len(body) < 13:
        raise MalformedFrame("params header truncated")
    job_id = bytes(body[:8])
    server_index, p, d = struct.unpack_from(">HHB", body, 8)
    if p >= 256:
        raise DigitOverflow(f"digit-per-byte wire format needs p < 256, got {p}")
    off = 13 + d + 1
    if len(body) < off + 1:
        raise MalformedFrame("params truncated")
    modulus, L = tuple(body[13:off]), body[off]
    if any(c >= p for c in modulus):  # a digit past p would alias a cached tower's key
        raise MalformedFrame(f"a modulus digit is not below p = {p}")
    off += 1
    if len(body) < off + 2 * L + 13:
        raise MalformedFrame("params truncated")
    primes = struct.unpack_from(f">{L}H", body, off); off += 2 * L
    if max(primes, default=0) * d > MAX_AXIS_DIGITS or prod(primes) * d > MAX_ELEMENT_DIGITS:
        raise FieldTooLarge(f"degrees {primes} over F_{p}^{d}: past {MAX_AXIS_DIGITS} digits "
                            f"per axis or {MAX_ELEMENT_DIGITS} per element")
    a, b, c = struct.unpack_from(">III", body, off); off += 12
    if not L or b % L:
        raise MalformedFrame(f"b = {b} is not a multiple of L = {L}")
    if max(a * c, a * b // L, b // L * c) * prod(primes) * d > MAX_PRODUCT_DIGITS:
        raise FieldTooLarge(f"a {a} x {b // L} by {b // L} x {c} job over {prod(primes) * d} "
                            f"digits per element: past {MAX_PRODUCT_DIGITS} digits per matrix")
    n_groups = body[off]; off += 1
    step = 1 + prod(primes) * d  # group id, then one full element
    if len(body) - off != n_groups * step:
        raise MalformedFrame("params length does not match its group count")
    ids = [body[off + k * step] for k in range(n_groups)]
    if len(set(ids)) < n_groups or not all(1 <= i <= L for i in ids):
        raise MalformedFrame(f"group ids {ids} are not distinct members of 1..{L}")
    tower = _cached_tower(p, d, modulus, primes)
    taus = {i: tower.trace_scalars(elem_from_bytes(tower, body[at + 1 : at + step])[None], i)
            for i, at in zip(ids, range(off, len(body), step))}
    job = ServerJob(job_id, server_index, tower, a, b, c, L, taus)
    with _tower_cache_lock:
        _params_cache[bytes(body[8:])] = (p, d, modulus, primes), replace(job, tower=None)
        while len(_params_cache) > PARAMS_CACHE_SIZE:
            del _params_cache[next(iter(_params_cache))]
    return job


def share_bodies(job_id, tower, F, G):
    """The SHARE bodies of servers 1..n for the share stacks F (n, a, b/L,
    *tower.shape) and G (n, b/L, c, *tower.shape): each the job id, the
    server index, then F[j - 1] and G[j - 1] as mat_to_bytes writes them."""
    f, g = mat_to_bytes(tower, F), mat_to_bytes(tower, G)
    return [job_id + struct.pack(">H", j) + f[j - 1].tobytes() + g[j - 1].tobytes()
            for j in range(1, len(F) + 1)]


def parse_shares(tower, bodies, a, w, c):
    """The share stacks F (n, a, w, *tower.shape) and G (n, w, c,
    *tower.shape) of n SHARE bodies, read past each one's job id and server
    index.  MalformedFrame unless each body is those 10 bytes, then the wire
    forms of an a x w and a w x c matrix, and nothing more."""
    length = 26 + (a * w + w * c) * tower.flat_size * tower.base.d
    if any(len(body) != length for body in bodies):
        raise MalformedFrame(f"a share body is not {length} bytes, for {a} x {w} and {w} x {c}")
    rows = np.frombuffer(b"".join(bodies), dtype=np.uint8).reshape(len(bodies), length)
    F, end = mat_from_bytes(tower, rows, 10)
    G, _ = mat_from_bytes(tower, rows, end)
    if F.shape[1:3] != (a, w) or G.shape[1:3] != (w, c):
        raise MalformedFrame(f"a share of {F.shape[1]} x {F.shape[2]} and {G.shape[1]} x "
                             f"{G.shape[2]} matrices for a job of {a} x {w} and {w} x {c}")
    return F, G


def responses_body(job_id, tower, replies, servers):
    """The RESPONSES bodies of ``servers`` for the group stacks replies[i],
    (n_i, a, c, *F_i.shape), whose rows are the first n_i servers' replies:
    each the job id, the server index, its group count, then per group, in
    ascending order, the group id and the reply as mat_to_bytes writes it."""
    groups = [(i, mat_to_bytes(tower, r)) for i, r in sorted(replies.items())]
    bodies = []
    for k, j in enumerate(servers):
        mine = [bytes([i]) + g[k].tobytes() for i, g in groups if k < len(g)]
        bodies.append(job_id + struct.pack(">HB", j, len(mine)) + b"".join(mine))
    return bodies


def parse_responses(scheme, job_id, bodies):
    """The group stacks {i: (n_i, a, c, *F_i.shape)} of the RESPONSES bodies
    of servers 1..n, bodies[j - 1] server j's, with n_i = min(N_i, n).
    MalformedFrame, naming the server, unless server j's body is for job_id
    and server j, answers exactly the groups i with j <= N_i, in ascending
    order, each with an a x c reply and each digit below p, and ends there."""
    tower, a, c = scheme.tower, scheme.a, scheme.c
    fields = {i: tower.subtower([k for k in range(scheme.L) if k != i - 1])
              for i in range(1, scheme.L + 1)}
    sizes = {i: 9 + a * c * prod(f.shape) for i, f in fields.items()}
    parts = {i: [] for i in fields}
    for j, body in enumerate(bodies, start=1):
        groups = [i for i in fields if j <= scheme.N[i - 1]]
        starts = list(accumulate((sizes[i] for i in groups), initial=11))
        if (len(body) != starts[-1] or body[:11] != job_id + struct.pack(">HB", j, len(groups))
                or any(body[at : at + 9] != bytes([i]) + struct.pack(">II", a, c)
                       for i, at in zip(groups, starts))):
            raise MalformedFrame(f"server {j}: not job {job_id.hex()}'s reply from server {j} "
                                 f"with groups {groups}, each an {a} x {c} trace")
        for i, at in zip(groups, starts):
            parts[i].append(body[at + 9 : at + sizes[i]])
    return {i: _digits(f, np.frombuffer(b"".join(parts[i]), dtype=np.uint8),
                       (len(parts[i]), a, c) + f.shape)
            for i, f in fields.items()}


def error_body(code, message):
    return bytes([code]) + message.encode()


# -- traffic accounting -----------------------------------------------------------

@dataclass
class TrafficLedger:
    """Per-server, per-direction counters of base-field symbols and payload
    bytes (matrix payload sections only, matching the cost model), and the
    job's wall time per stage in seconds, by ``timed``."""

    per_server: dict = dc_field(default_factory=dict)
    spans: dict = dc_field(default_factory=dict)

    def timed(self, stage, fn, *args, **kwargs):
        """fn(*args, **kwargs), its wall time by perf_counter_ns added to spans[stage]."""
        start = time.perf_counter_ns()
        out = fn(*args, **kwargs)
        self.spans[stage] = self.spans.get(stage, 0.0) + (time.perf_counter_ns() - start) / 1e9
        return out

    @property
    def upload_symbols(self):
        return sum(s["up_sym"] for s in self.per_server.values())

    @property
    def download_symbols(self):
        return sum(s["down_sym"] for s in self.per_server.values())

    @property
    def upload_bytes(self):
        return sum(s["up_bytes"] for s in self.per_server.values())

    @property
    def download_bytes(self):
        return sum(s["down_bytes"] for s in self.per_server.values())


# -- runners ------------------------------------------------------------------------

def _job(scheme, A, B, seed, job_id, exchange):
    """One job through the wire format, the same for both runners: encode,
    the SHARE bodies, exchange(bodies) for the RESPONSES bodies of servers
    1..N_L, their parse, the ledger and decode.  The ledger counts each
    server's symbols on the stacks, and its payload bytes on its bodies:
    without the job id, the server index, the group count, and each
    matrix's header and group id.  Its spans time the stages: encode, the
    client's wire codec, the exchange with the servers (in process, their
    codec and server_compute) and decode."""
    ledger, d = TrafficLedger(), scheme.base.d
    F, G = ledger.timed("encode", encode, scheme, A, B, seed=seed)
    sent = ledger.timed("wire", share_bodies, job_id, scheme.tower, F, G)
    received = ledger.timed("servers", exchange, sent)
    replies = ledger.timed("wire", parse_responses, scheme, job_id, received)
    for j, (up, down) in enumerate(zip(sent, received), start=1):
        traced = [r[j - 1] for r in replies.values() if j <= len(r)]
        ledger.per_server[j] = dict(
            up_sym=(F[j - 1].size + G[j - 1].size) // d, up_bytes=len(up) - 10 - 16,
            down_sym=sum(r.size for r in traced) // d, down_bytes=len(down) - 11 - 9 * len(traced))
    return ledger.timed("decode", decode, scheme, replies), ledger


def run_inprocess(scheme, A, B, seed=0):
    """encode -> serialize -> every server at once -> serialize -> decode, in
    memory; every payload passes through the wire format so the ledger is exact."""
    job_id, tower = b"\0" * 8, scheme.tower

    def servers(bodies):
        F, G = parse_shares(tower, bodies, scheme.a, scheme.b // scheme.L, scheme.c)
        return responses_body(job_id, tower, server_compute(scheme, F, G),
                              range(1, len(bodies) + 1))

    return _job(scheme, A, B, seed, job_id, servers)


def _reply(sock, j, expected):
    """The body of server j's next frame, which must be of type ``expected``."""
    mtype, body = read_message(sock)
    if mtype == MSG_ERROR:
        raise ProtocolError(f"server {j}: {body[1:].decode(errors='replace')}")
    if mtype != expected:
        raise ProtocolError(f"server {j}: unexpected reply type {mtype}")
    return body


# One idle socket per endpoint, kept across jobs: a job takes it out while
# it uses it, and puts it back only after a clean exchange.
_kept = {}
_kept_lock = threading.Lock()

# The most reply bytes a connection may have sent to it and unread: a
# quarter of Linux's default 128 KiB loopback receive buffer, so that the
# daemon never blocks sending, keeps reading, and the client's sendall ends.
REPLY_WINDOW_BYTES = 32 << 10


class _Link:
    """A job's connection to one endpoint: the kept socket if there is one,
    else a fresh one opened at the first send.  The daemon may have closed
    a kept socket while it was idle, so a send error, a reset or EOF before
    the first byte of its first reply replaces it once by a fresh one, which
    takes every frame in flight again.  After a timeout the endpoint takes
    no more of the job's servers: a hung daemon costs one timeout, not one
    each."""

    def __init__(self, endpoint, timeout):
        self.endpoint, self.timeout = endpoint, timeout
        with _kept_lock:
            self.sock = _kept.pop(endpoint, None)
        self.on_trial = self.sock is not None
        self.frames = []  # the PARAMS and SHARE frames of each server in flight
        self.stage = None
        self.timed_out = None  # the server whose exchange timed out

    def send(self, frames):
        """Each server's PARAMS and SHARE frames, ``frames``, in one sendall."""
        if self.timed_out:
            self.stage = "PARAMS"
            raise ProtocolTimeout(f"not sent: the endpoint timed out on server {self.timed_out}")
        if self.sock is None:
            self.stage = "connect"
            self.sock = socket.create_connection(self.endpoint, timeout=self.timeout)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.settimeout(self.timeout)
        self.stage = "PARAMS"
        self.frames = frames
        try:
            self.sock.sendall(b"".join(frames))
        except ConnectionError:
            if not self.on_trial:
                raise
            self._renew()

    def receive(self, j):
        """Server j's PARAMS reply, then its RESPONSES body: the next ones in flight."""
        if self.on_trial and not self._answering():
            self._renew()
        self.on_trial = False
        self.stage = "PARAMS"
        _reply(self.sock, j, MSG_PARAMS)
        self.stage = "SHARE"
        body = _reply(self.sock, j, MSG_RESPONSES)
        self.frames.pop(0)
        return body

    def _answering(self):
        """Whether the first byte of a reply arrives, not EOF or a reset."""
        try:
            return self.sock.recv(1, socket.MSG_PEEK) != b""
        except socket.timeout as exc:
            raise ProtocolTimeout("peer timed out") from exc
        except ConnectionError:
            return False

    def _renew(self):
        """Replace the socket on trial by a fresh connection, and resend what is in flight."""
        self.sock.close()
        self.sock, self.on_trial = None, False
        self.send(self.frames)

    def close(self):
        if self.sock is not None:
            self.sock.close()
        self.sock, self.on_trial, self.frames = None, False, []

    def release(self):
        """Keep the socket if its exchanges all ended, else close it."""
        if self.frames or self.sock is None:
            self.close()
            return
        with _kept_lock:
            kept = _kept.setdefault(self.endpoint, self.sock)
        if kept is not self.sock:  # another job kept one for this endpoint meanwhile
            self.sock.close()


def _attempt(errors, j, link, act, *args):
    """act(*args), or None: an error is recorded for server j at the link's
    stage, an OSError as ConnectionFailed, and the link's socket closed."""
    try:
        return act(*args)
    except Exception as exc:  # surfaced to the caller of run_remote
        errors[j] = link.stage, ConnectionFailed(j, str(exc)) if isinstance(exc, OSError) else exc
        link.close()
        if isinstance(exc, (TimeoutError, ProtocolTimeout)) and not link.timed_out:
            link.timed_out = j


def run_remote(endpoints, scheme, A, B, seed=0):
    """Contact one TCP server per share, server j at endpoints[j - 1];
    identical result and ledger to run_inprocess for the same seed.
    InvalidParams, before anything is sent, for an endpoint port outside
    1..65535."""
    for host, port in endpoints:
        if not 0 < port < 1 << 16:
            raise InvalidParams(f"endpoint {host}:{port}: the port is outside 1..65535")
    timeout = _timeout_seconds()
    if len(endpoints) < scheme.N[-1]:
        raise ConnectionFailed(len(endpoints) + 1, "not enough endpoints")
    job_id = os.urandom(8)
    return _job(scheme, A, B, seed, job_id,
                lambda bodies: _exchange(endpoints, scheme, job_id, bodies, timeout))


def _reply_bytes(scheme, j):
    """The bytes of server j's PARAMS reply and RESPONSES frames."""
    n = prod(scheme.primes)
    return 18 + 21 + sum(9 + scheme.a * scheme.c * n // p * scheme.base.d
                         for p, n_i in zip(scheme.primes, scheme.N) if j <= n_i)


def _exchange(endpoints, scheme, job_id, bodies, timeout):
    """The RESPONSES bodies of servers 1..n for their SHARE bodies.  With no
    thread, in flights: each sends on every endpoint's connection the frames
    of as many of its pending servers as their replies fit
    REPLY_WINDOW_BYTES (one at least), then reads each connection's replies
    in endpoint order and in the order sent, so distinct endpoints compute
    at once.  An error on server j closes its connection, and the servers
    sent after j go again in the next flight, on a fresh one."""
    queues = {}  # endpoint -> [(j, PARAMS and SHARE frames, their replies' bytes)]
    for j, body in enumerate(bodies, start=1):
        frames = (pack_message(MSG_PARAMS, params_body(job_id, scheme, j))
                  + pack_message(MSG_SHARE, body))
        queues.setdefault(tuple(endpoints[j - 1]), []).append((j, frames, _reply_bytes(scheme, j)))
    links = {endpoint: _Link(endpoint, timeout) for endpoint in queues}
    received = {}
    errors = {}
    try:
        while any(queues.values()):
            flights = {}
            for e, queue in queues.items():
                if queue:
                    totals = accumulate(size for *_, size in queue)
                    n = max(1, sum(total <= REPLY_WINDOW_BYTES for total in totals))
                    flights[e], queues[e] = queue[:n], queue[n:]
                    _attempt(errors, queue[0][0], links[e], links[e].send,
                             [frames for _, frames, _ in flights[e]])
            for e, flight in flights.items():
                link = links[e]
                for k, (j, *_) in enumerate(flight):
                    body = None if j in errors else _attempt(errors, j, link, link.receive, j)
                    if body is None:  # the link is closed
                        queues[e][:0] = flight[k + 1 :]
                        break
                    received[j] = body
    finally:
        for link in links.values():
            link.release()
    if errors:
        # The lowest-numbered server's error, of its own type, with a
        # message that names every failed server and its stage.
        first = errors[min(errors)][1]
        first.args = ("; ".join(f"server {j} at {stage}: {str(exc).removeprefix(f'server {j}: ')}"
                                for j, (stage, exc) in sorted(errors.items())),)
        raise first
    return [received[j] for j in range(1, len(bodies) + 1)]


# -- server side ----------------------------------------------------------------------

def _refuse(conn, code, message):
    """An error frame and EOF to a connection that will not be served.  Closing
    a socket with unread data resets the connection, which can drop the frame
    before the client reads it, so what the client sends meanwhile is read
    and dropped until it closes, for at most _REFUSE_DRAIN_SECONDS."""
    try:
        conn.sendall(pack_message(MSG_ERROR, error_body(code, message)))
        conn.shutdown(socket.SHUT_WR)
        deadline = time.monotonic() + _REFUSE_DRAIN_SECONDS
        while (left := deadline - time.monotonic()) > 0:
            conn.settimeout(left)
            if not conn.recv(1 << 16):
                break
    except OSError:
        pass


class DaemonStats:
    """A daemon's counters since it started, under one lock: jobs answered,
    their payload bytes in and out as the client's ledger counts them, the
    seconds spent parsing frames, in server_step and replying (the
    RESPONSES body and every send), the PARAMS frames served from
    _params_cache, and the error frames sent, by code."""

    def __init__(self):
        self._lock = threading.Lock()
        self._totals = {"jobs": 0, "bytes_in": 0, "bytes_out": 0, "parse_s": 0.0,
                        "server_step_s": 0.0, "reply_s": 0.0, "params_cached": 0, "errors": {}}

    def add(self, *errors, **amounts):
        """Each amount to its counter, and one error frame of each code in ``errors``."""
        with self._lock:
            for key, amount in amounts.items():
                self._totals[key] += amount
            for error in errors:
                self._totals["errors"][error] = self._totals["errors"].get(error, 0) + 1

    def body(self):
        """The counters as a STATS reply's JSON body."""
        with self._lock:
            return json.dumps(self._totals).encode()


class Server:
    """One computing node.  Each connection keeps its own pending job: the
    params of its last PARAMS frame, until its SHARE is answered or refused.
    A new PARAMS ends the pending job, as does any frame refused with error
    code 1; a SHARE for another job gets error 3 and leaves it pending.  A
    SHARE is computed only if its matrices are a x b/L and b/L x c.  One
    thread serves each connection, for as many jobs as its client sends,
    and answers the frames that arrive together in one write (``_serve``);
    a connection past MAX_CONNECTIONS open ones gets an error frame and EOF
    (``_refuse``).  Connections share nothing but the tower cache and ``stats``."""

    def __init__(self, host="127.0.0.1", port=0):
        self._sock = socket.create_server((host, port), backlog=16)  # closed if the bind fails
        self.host, self.port = self._sock.getsockname()
        self._conns = set()
        self._conns_lock = threading.Lock()
        self._stop = threading.Event()
        self.stats = DaemonStats()

    def stop(self):
        """Stop accepting, and shut down every open connection, so that a
        client's kept socket reads EOF."""
        self._stop.set()
        try:
            self._sock.close()
        except OSError:
            pass
        with self._conns_lock:
            for conn in self._conns:
                try:
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass

    def serve_forever(self):
        self._sock.settimeout(0.2)
        while not self._stop.is_set():
            try:
                conn, _ = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            with self._conns_lock:
                full = len(self._conns) >= MAX_CONNECTIONS
                if not (full or self._stop.is_set()):
                    self._conns.add(conn)
                    threading.Thread(target=self._handle, args=(conn,), daemon=True).start()
                    continue
            with conn:  # refused: past the bound, or the server is stopping
                if full:
                    self.stats.add(5)
                    _refuse(conn, 5, f"{MAX_CONNECTIONS} connections are open; try again later")

    def _handle(self, conn):
        try:
            with conn:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                _serve(conn, self.stats)
        except OSError:  # the client reset the connection: it ends, as a timeout ends it
            pass
        finally:
            with self._conns_lock:
                self._conns.discard(conn)


def _serve(conn, stats):
    """Answer conn's frames in batches until EOF, a timeout or a bad header:
    the whole frames that have arrived (_read_frames) in one _dispatch, and
    their replies in one sendall.  The batch's amounts go to ``stats``
    before it is sent, the send's own time with the next batch's."""
    try:  # read per connection, so that a new value reaches the next one
        conn.settimeout(_timeout_seconds())
    except InvalidParams as exc:
        stats.add(1)
        return _refuse(conn, 1, f"{type(exc).__name__}: {exc}")
    job, buf, sent_s = None, bytearray(), 0.0  # job: the ServerJob of the last PARAMS, until its SHARE
    while True:
        frames, end = _read_frames(conn, buf)
        replies, job, amounts = _dispatch(frames, job)
        if isinstance(end, VersionMismatch):
            replies.append(pack_message(MSG_ERROR, error_body(2, str(end))))
        amounts["reply_s"] += sent_s  # the last batch's send; then each error frame's code
        stats.add(*(reply[10] for reply in replies if reply and reply[5] == MSG_ERROR), **amounts)
        start = time.perf_counter()
        if replies:  # a STATS frame's None reads the counters now
            conn.sendall(b"".join(reply or pack_message(MSG_STATS, stats.body()) for reply in replies))
        sent_s = time.perf_counter() - start
        if end is not None:
            return stats.add(reply_s=sent_s)


def _read_frames(conn, buf):
    """The whole frames at the head of buf, taken out of it as (type, body)
    pairs, reading from conn until it holds one; and the error after them
    that ends the connection, or None: EOF, a timeout or a bad header."""
    frames = []
    try:
        while True:
            while len(buf) >= 10 and len(buf) >= (end := 10 + _header(buf)[1]):
                frames.append((buf[5], buf[10:end]))
                del buf[:end]
            if frames:
                return frames, None
            if not (part := conn.recv(1 << 16)):
                raise MalformedFrame("connection closed")
            buf += part
    except (MalformedFrame, VersionMismatch, TimeoutError) as exc:
        return frames, exc


def _dispatch(frames, job):
    """The replies to a batch of frames in order, None for a STATS frame's;
    the connection's pending job after them; and the batch's amounts for
    DaemonStats.  Each frame passes the pending-job state machine in turn;
    the SHAREs that match their jobs are then answered in runs
    (_answer_run): consecutive ones of one job id, tower and (a, b, c),
    none in a group that the one before it is not in."""
    replies, runs, amounts = [], [], Counter()
    for mtype, body in frames:
        reply = None
        try:
            if mtype == MSG_HELLO:
                reply = pack_message(MSG_HELLO, b"")
            elif mtype == MSG_STATS:
                if body:
                    raise MalformedFrame("a STATS frame has an empty body")
            elif mtype == MSG_PARAMS:
                start = time.perf_counter()
                job = parse_params(body)
                amounts["parse_s"] += time.perf_counter() - start
                amounts["params_cached"] += job.cached
                reply = pack_message(MSG_PARAMS, job.job_id)
            elif mtype != MSG_SHARE:
                reply = pack_message(MSG_ERROR, error_body(4, f"unknown message type {mtype}"))
            elif len(body) < 10:
                raise MalformedFrame("share header truncated")
            elif job is None or body[:10] != job.job_id + struct.pack(">H", job.server_index):
                reply = pack_message(MSG_ERROR, error_body(3, "unknown job id"))
            else:
                last = runs[-1][-1][1] if runs else None
                if not (last and last.tower is job.tower and job.taus.keys() <= last.taus.keys()
                        and (last.job_id, last.a, last.b, last.c) == (job.job_id, job.a, job.b, job.c)):
                    runs.append([])
                runs[-1].append((len(replies), job, body))
                job = None
        except Exception as exc:
            reply, job = pack_message(MSG_ERROR, error_body(1, f"{type(exc).__name__}: {exc}")), None
        replies.append(reply)
    for run in runs:
        _answer_run(run, replies, amounts)
    return replies, job, amounts


def _answer_run(run, replies, amounts):
    """Answer a run of matched SHAREs, (position in replies, job, body)
    triples: the bodies that pass the checks of parse_shares, found over
    the run's rows at once (_well_formed), in one parse_shares, one
    server_step over their jobs' taus stacked and one responses_body; each
    other body alone, to get the error that parse_shares raises on it."""
    first = run[0][1]
    tower, dims = first.tower, (first.a, first.b // first.L, first.c)
    start = time.perf_counter()
    fine = _well_formed(tower, [body for *_, body in run], *dims)
    good = [m for m, ok in zip(run, fine) if ok]
    for part in filter(None, [good, *([m] for m, ok in zip(run, fine) if not ok)]):
        jobs = [job for _, job, _ in part]
        try:
            F, G = parse_shares(tower, [body for *_, body in part], *dims)
            taus = {i: np.concatenate([job.taus[i] for job in jobs if i in job.taus])
                    for i in jobs[0].taus}
            parsed = time.perf_counter()
            step = server_step(tower, taus, F, G)
            stepped = time.perf_counter()
            out = [pack_message(MSG_RESPONSES, body) for body in
                   responses_body(first.job_id, tower, step, [job.server_index for job in jobs])]
        except Exception as exc:  # each member alone would raise it: they share the tower and dims
            out = [pack_message(MSG_ERROR, error_body(1, f"{type(exc).__name__}: {exc}"))] * len(part)
        else:
            amounts.update(jobs=len(part), bytes_in=F.size + G.size,
                           bytes_out=sum(r.size for r in step.values()), parse_s=parsed - start,
                           server_step_s=stepped - parsed, reply_s=time.perf_counter() - stepped)
        for (at, *_), reply in zip(part, out):
            replies[at] = reply


def _well_formed(tower, bodies, a, w, c):
    """Whether each SHARE body passes parse_shares(tower, [body], a, w, c),
    over the rows of all of them at once: its length, its matrices' headers
    and each digit below p."""
    n = tower.flat_size * tower.base.d
    length, at = 26 + (a * w + w * c) * n, 18 + a * w * n  # G's header at ``at``
    sized = np.array([len(body) == length for body in bodies])
    rows = np.frombuffer(b"".join(body if ok else bytes(length) for body, ok in zip(bodies, sized)),
                         dtype=np.uint8).reshape(len(bodies), length)
    high = rows >= tower.base.p
    high[:, :18] = high[:, at : at + 8] = False  # not digits: the job id, server index and headers
    heads = np.hstack([rows[:, 10:18], rows[:, at : at + 8]])
    want = np.frombuffer(struct.pack(">IIII", a, w, w, c), dtype=np.uint8)
    return sized & (heads == want).all(axis=1) & ~high.any(axis=1)
