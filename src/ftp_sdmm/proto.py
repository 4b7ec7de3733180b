"""Wire format, traffic accounting, the in-process simulator, and a TCP
runner so servers can live in separate processes.

Field elements travel as one byte per base-prime digit (requires p < 256):
a full element is d * prod(p_i) bytes in multi-index lexicographic order
(axis 1 slowest, base-field digits low-degree first).  A group-i reply is a
tensor on the axes of the subfield F_i, the tower's axes without axis i, and
travels as those digits alone, d * prod(p_i) / p_i bytes per entry.  Payload
byte counts therefore equal d times the base-field symbol counts, which is
what makes the cost accounting auditable on the wire.

The TCP runner keeps one open connection per endpoint across jobs, with
TCP_NODELAY set on both ends, and starts no thread.  Each server's PARAMS
and SHARE go out back to back in one sendall; the servers at one endpoint
take its connection in rounds, so distinct endpoints compute at once.  A
kept connection that fails before the first byte of its reply (the daemon
closed it while idle) is replaced once by a fresh one.  The daemon serves
each connection from one thread for as many jobs as it carries, and keeps
at most one pending job per connection, on that connection alone."""

import os
import socket
import struct
import threading
import time
from dataclasses import dataclass, field as dc_field
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
from .ftp import (ResponseBundle, Share, decode, encode, server_compute,
                  server_groups, server_step)
from .matrices import Mat

MAGIC = b"FTPC"
VERSION = 1

MSG_HELLO = 1
MSG_PARAMS = 2
MSG_SHARE = 3
MSG_RESPONSES = 4
MSG_ERROR = 5

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


def _digits(field, raw, offset, lead):
    """The digits at raw[offset:] as an int64 tensor lead + field.shape, and
    the offset past them.  MalformedFrame if raw is too short or a digit is
    not below p."""
    _check_digit_format(field)
    count = prod(lead + field.shape)
    if len(raw) - offset < count:
        raise MalformedFrame("payload shorter than its shape")
    digits = np.frombuffer(raw, dtype=np.uint8, count=count, offset=offset)
    if (digits >= field.base.p).any():
        raise MalformedFrame(f"a digit is not below p = {field.base.p}")
    return digits.reshape(lead + field.shape).astype(np.int64), offset + count


def elem_from_bytes(tower, raw):
    if len(raw) != tower.flat_size * tower.base.d:
        raise MalformedFrame("element payload has wrong length")
    return _digits(tower, raw, 0, ())[0]


def _tensor_to_bytes(field, data):
    """An 8-byte (rows, cols) header, then the digits of data, a (rows,
    cols, ...) tensor of elements of field or of a sub-tower of it, in C
    order: entries row-major, each element axis 1 slowest, digits
    low-degree first."""
    _check_digit_format(field)
    return struct.pack(">II", *data.shape[:2]) + data.astype(np.uint8).tobytes()


def _tensor_from_bytes(field, raw, offset):
    """The (rows, cols, *field.shape) tensor that _tensor_to_bytes wrote at
    raw[offset:], and the offset past it."""
    if len(raw) - offset < 8:
        raise MalformedFrame("matrix header truncated")
    return _digits(field, raw, offset + 8, struct.unpack_from(">II", raw, offset))


def mat_to_bytes(tower, m):
    return _tensor_to_bytes(tower, m.data)


def mat_from_bytes(tower, raw, offset=0):
    data, end = _tensor_from_bytes(tower, raw, offset)
    return Mat(tower, *data.shape[:2], data), end


# -- framing -------------------------------------------------------------------

def pack_message(msg_type, body):
    return MAGIC + bytes([VERSION, msg_type]) + struct.pack(">I", len(body)) + body


def _header(buf):
    """Type and body length from the 10-byte frame header at the head of buf."""
    if buf[:4] != MAGIC:
        raise MalformedFrame("bad magic")
    if buf[4] != VERSION:
        raise VersionMismatch(f"peer version {buf[4]}, expected {VERSION}")
    return buf[5], struct.unpack_from(">I", buf, 6)[0]


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
    if length > MAX_FRAME_BYTES:
        raise MalformedFrame(f"a body of {length} bytes is past {MAX_FRAME_BYTES}")
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

_tower_cache = {}
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


def parse_params(body):
    """A PARAMS body as a ServerJob.  Before any field is built, it raises
    DigitOverflow if p >= 256, MalformedFrame if the body is truncated, has
    a modulus digit not below p, runs past its last group, names a group
    outside 1..L or twice (so never more than L groups), or has a b that L
    does not divide, and FieldTooLarge past MAX_AXIS_DIGITS,
    MAX_ELEMENT_DIGITS or MAX_PRODUCT_DIGITS in any of its matrices.  Then
    trace_scalars raises InvalidParams for a w_ij outside F_q0(a_i)."""
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
    return ServerJob(job_id, server_index, tower, a, b, c, L, taus)


def share_body(job_id, scheme, share):
    body = job_id + struct.pack(">H", share.server)
    body += mat_to_bytes(scheme.tower, share.f_eval)
    body += mat_to_bytes(scheme.tower, share.g_eval)
    return body


def parse_share(tower, body):
    if len(body) < 10:
        raise MalformedFrame("share header truncated")
    job_id, off = bytes(body[:8]), 8
    (server,) = struct.unpack_from(">H", body, off); off += 2
    f_eval, off = mat_from_bytes(tower, body, off)
    g_eval, off = mat_from_bytes(tower, body, off)
    if off != len(body):
        raise MalformedFrame("bytes past the end of the share")
    return job_id, Share(server, f_eval, g_eval)


def responses_body(job_id, tower, bundle):
    body = job_id + struct.pack(">H", bundle.server)
    body += bytes([len(bundle.traced)])
    for i in sorted(bundle.traced):
        body += bytes([i])
        body += _tensor_to_bytes(tower, bundle.traced[i])
    return body


def parse_responses(tower, body):
    if len(body) < 11:
        raise MalformedFrame("responses header truncated")
    job_id, off = bytes(body[:8]), 8
    (server,) = struct.unpack_from(">H", body, off); off += 2
    n_groups = body[off]; off += 1
    traced = {}
    for _ in range(n_groups):
        if off >= len(body):
            raise MalformedFrame("responses truncated")
        i = body[off]; off += 1
        if not 1 <= i <= tower.L or i in traced:
            raise MalformedFrame(f"group {i} is not a new member of 1..{tower.L}")
        f_i = tower.subtower([k for k in range(tower.L) if k != i - 1])
        traced[i], off = _tensor_from_bytes(f_i, body, off)
    if off != len(body):
        raise MalformedFrame("bytes past the end of the responses")
    return job_id, ResponseBundle(server, traced)


def error_body(code, message):
    return bytes([code]) + message.encode()


# -- traffic accounting -----------------------------------------------------------

@dataclass
class TrafficLedger:
    """Per-server, per-direction counters of base-field symbols and payload
    bytes (matrix payload sections only, matching the cost model)."""

    per_server: dict = dc_field(default_factory=dict)

    def _slot(self, j):
        return self.per_server.setdefault(
            j, {"up_sym": 0, "up_bytes": 0, "down_sym": 0, "down_bytes": 0}
        )

    def add_upload(self, j, symbols, nbytes):
        slot = self._slot(j)
        slot["up_sym"] += symbols
        slot["up_bytes"] += nbytes

    def add_download(self, j, symbols, nbytes):
        slot = self._slot(j)
        slot["down_sym"] += symbols
        slot["down_bytes"] += nbytes

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


def _ledger_share(ledger, scheme, share, body):
    """Count one share on its serialized body: the two matrix payloads,
    without the job id, the server index and the two shape headers."""
    sym = (share.f_eval.data.size + share.g_eval.data.size) // scheme.base.d
    ledger.add_upload(share.server, sym, len(body) - 10 - 16)


def _ledger_bundle(ledger, scheme, bundle, body):
    """Count one bundle on its serialized body: the traced payloads, without
    the job id, server index, group count and each group's id and header."""
    sym = sum(r.size for r in bundle.traced.values()) // scheme.base.d
    ledger.add_download(bundle.server, sym, len(body) - 11 - 9 * len(bundle.traced))


# -- runners ------------------------------------------------------------------------

def run_inprocess(scheme, A, B, seed=0):
    """encode -> serialize -> every server at once -> serialize -> decode, in
    memory; every payload passes through the wire format so the ledger is exact."""
    tower = scheme.tower
    job_id = b"\0" * 8
    ledger = TrafficLedger()
    shares, bundles = [], []
    for share in encode(scheme, A, B, seed=seed):
        body = share_body(job_id, scheme, share)
        _ledger_share(ledger, scheme, share, body)
        shares.append(parse_share(tower, body)[1])
    for bundle in server_compute(scheme, shares):
        body = responses_body(job_id, tower, bundle)
        _, bundle = parse_responses(tower, body)
        _ledger_bundle(ledger, scheme, bundle, body)
        bundles.append(bundle)
    product = decode(scheme, bundles)
    return product, ledger


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


class _Link:
    """A job's connection to one endpoint: the kept socket if there is one,
    else a fresh one opened at the first send.  The daemon may have closed
    a kept socket while it was idle, so a send error, a reset or EOF before
    the first byte of its first reply replaces it once by a fresh one, which
    takes the server's PARAMS and SHARE again.  After a timeout the endpoint
    takes no more of the job's servers: a hung daemon costs one timeout, not
    one each."""

    def __init__(self, endpoint, timeout):
        self.endpoint, self.timeout = endpoint, timeout
        with _kept_lock:
            self.sock = _kept.pop(endpoint, None)
        self.on_trial = self.sock is not None
        self.busy = False  # frames sent whose replies are not all read
        self.stage = None
        self.timed_out = None  # the server whose exchange timed out

    def send(self, frames):
        """One server's PARAMS and SHARE frames, in one sendall."""
        if self.timed_out:
            self.stage = "PARAMS"
            raise ProtocolTimeout(f"not sent: the endpoint timed out on server {self.timed_out}")
        if self.sock is None:
            self.stage = "connect"
            self.sock = socket.create_connection(self.endpoint, timeout=self.timeout)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.settimeout(self.timeout)
        self.stage, self.busy = "PARAMS", True
        try:
            self.sock.sendall(frames)
        except ConnectionError:
            if not self.on_trial:
                raise
            self._renew(frames)

    def receive(self, j, frames, tower):
        """Server j's PARAMS reply, then its RESPONSES as (bundle, body)."""
        if self.on_trial and not self._answering():
            self._renew(frames)
        self.on_trial = False
        _reply(self.sock, j, MSG_PARAMS)
        self.stage = "SHARE"
        body = _reply(self.sock, j, MSG_RESPONSES)
        self.busy = False
        return parse_responses(tower, body)[1], body

    def _answering(self):
        """Whether the first byte of a reply arrives, not EOF or a reset."""
        try:
            return self.sock.recv(1, socket.MSG_PEEK) != b""
        except socket.timeout as exc:
            raise ProtocolTimeout("peer timed out") from exc
        except ConnectionError:
            return False

    def _renew(self, frames):
        """Replace the socket on trial by a fresh connection, and resend."""
        self.sock.close()
        self.sock, self.on_trial = None, False
        self.send(frames)

    def close(self):
        if self.sock is not None:
            self.sock.close()
        self.sock, self.busy = None, False

    def release(self):
        """Keep the socket if its exchanges all ended, else close it."""
        if self.busy or self.sock is None:
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
    """Contact one TCP server per share; identical result and ledger to
    run_inprocess for the same seed.  With no thread, in rounds: each round
    sends the next pending server's frames on every endpoint's connection,
    then reads each connection's replies in endpoint order, so distinct
    endpoints compute at once, and no connection ever has more than one
    request outstanding.  InvalidParams, before anything is sent, for an
    endpoint port outside 1..65535."""
    for host, port in endpoints:
        if not 0 < port < 1 << 16:
            raise InvalidParams(f"endpoint {host}:{port}: the port is outside 1..65535")
    timeout = _timeout_seconds()
    shares = encode(scheme, A, B, seed=seed)
    if len(endpoints) < len(shares):
        raise ConnectionFailed(len(endpoints) + 1, "not enough endpoints")
    job_id = os.urandom(8)
    queues = {}  # endpoint -> [(j, PARAMS and SHARE frames, share body)]
    for j, share in enumerate(shares, start=1):
        sent = share_body(job_id, scheme, share)
        frames = (pack_message(MSG_PARAMS, params_body(job_id, scheme, j))
                  + pack_message(MSG_SHARE, sent))
        queues.setdefault(tuple(endpoints[j - 1]), []).append((j, frames, sent))
    links = {endpoint: _Link(endpoint, timeout) for endpoint in queues}
    results = {}
    errors = {}
    try:
        for turn in range(max(map(len, queues.values()))):
            pending = [(links[e], queue[turn]) for e, queue in queues.items() if turn < len(queue)]
            for link, (j, frames, _) in pending:
                _attempt(errors, j, link, link.send, frames)
            for link, (j, frames, sent) in pending:
                if j not in errors:
                    got = _attempt(errors, j, link, link.receive, j, frames, scheme.tower)
                    if got is not None:
                        results[j] = (sent, *got)
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

    ledger = TrafficLedger()
    bundles = []
    for j, share in enumerate(shares, start=1):
        sent, bundle, received = results[j]
        _ledger_share(ledger, scheme, share, sent)
        _ledger_bundle(ledger, scheme, bundle, received)
        bundles.append(bundle)
    product = decode(scheme, bundles)
    return product, ledger


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


class Server:
    """One computing node.  Each connection keeps its own pending job: the
    params of its last PARAMS frame, until its SHARE is answered or refused.
    A new PARAMS ends the pending job, as does any frame refused with error
    code 1; a SHARE for another job gets error 3 and leaves it pending.  A
    SHARE is computed only if its matrices are a x b/L and b/L x c.  One
    thread serves each connection, for as many jobs as its client sends; a
    connection past MAX_CONNECTIONS open ones gets an error frame and EOF
    (``_refuse``).  Connections share nothing but the tower cache."""

    def __init__(self, host="127.0.0.1", port=0):
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(16)
        self.host, self.port = self._sock.getsockname()
        self._conns = set()
        self._conns_lock = threading.Lock()
        self._stop = threading.Event()

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
                    _refuse(conn, 5, f"{MAX_CONNECTIONS} connections are open; try again later")

    def _handle(self, conn):
        try:
            with conn:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                _serve(conn)
        finally:
            with self._conns_lock:
                self._conns.discard(conn)


def _serve(conn):
    try:  # read per connection, so that a new value reaches the next one
        conn.settimeout(_timeout_seconds())
    except InvalidParams as exc:
        return _refuse(conn, 1, f"{type(exc).__name__}: {exc}")
    job = None  # the ServerJob of this connection's last PARAMS, until its SHARE
    while True:
        try:
            mtype, body = read_message(conn)
        except (MalformedFrame, ProtocolTimeout):
            return
        except VersionMismatch as exc:
            conn.sendall(pack_message(MSG_ERROR, error_body(2, str(exc))))
            return
        try:
            reply, job = _dispatch(mtype, body, job)
        except Exception as exc:
            reply = pack_message(MSG_ERROR, error_body(1, f"{type(exc).__name__}: {exc}"))
            job = None
        conn.sendall(reply)


def _dispatch(mtype, body, job):
    """The reply to one frame, and the connection's pending job after it."""
    if mtype == MSG_HELLO:
        return pack_message(MSG_HELLO, b""), job
    if mtype == MSG_PARAMS:
        job = parse_params(body)
        return pack_message(MSG_PARAMS, job.job_id), job
    if mtype == MSG_SHARE:
        if len(body) < 10:
            raise MalformedFrame("share header truncated")
        if job is None or body[:10] != job.job_id + struct.pack(">H", job.server_index):
            return pack_message(MSG_ERROR, error_body(3, "unknown job id")), job
        _, share = parse_share(job.tower, body)
        f, g, w = share.f_eval, share.g_eval, job.b // job.L
        if (f.rows, f.cols, g.rows, g.cols) != (job.a, w, w, job.c):
            raise MalformedFrame(f"a share of {f.rows} x {f.cols} and {g.rows} x {g.cols} for "
                                 f"a job of {job.a} x {w} and {w} x {job.c}")
        bundle = server_step(job.tower, job.taus, [share])[0]
        return pack_message(MSG_RESPONSES, responses_body(job.job_id, job.tower, bundle)), None
    return pack_message(MSG_ERROR, error_body(4, f"unknown message type {mtype}")), job


def serve(port, host="127.0.0.1"):
    """Blocking server entry point used by the CLI."""
    server = Server(host=host, port=port)
    try:
        server.serve_forever()
    finally:
        server.stop()
