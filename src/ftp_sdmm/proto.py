"""Wire format, traffic accounting, the in-process simulator, and a TCP
runner so servers can live in separate processes.

Field elements travel as one byte per base-prime digit (requires p < 256):
a full element is d * prod(p_i) bytes in multi-index lexicographic order
(axis 1 slowest, base-field digits low-degree first); an element of the
subfield F_i omits the unsupported axis-i coefficients.  Payload byte counts
therefore equal d times the base-field symbol counts, which is what makes the
cost accounting auditable on the wire."""

import os
import socket
import struct
import threading
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import (
    ConnectionFailed,
    DigitOverflow,
    MalformedFrame,
    ProtocolError,
    ProtocolTimeout,
    VersionMismatch,
)
from .fields import BaseField, TowerField
from .ftp import ResponseBundle, Share, decode, encode, server_compute
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
    raw = os.environ.get(TIMEOUT_ENV)
    ms = int(raw) if raw else DEFAULT_TIMEOUT_MS
    return ms / 1000.0


# -- element and matrix serialization -----------------------------------------

def _check_digit_format(tower):
    if tower.base.p >= 256:
        raise DigitOverflow(f"digit-per-byte wire format needs p < 256, got {tower.base.p}")


def elem_to_bytes(tower, x, group=None):
    """Full element, or only the supported coefficients for F_i members."""
    _check_digit_format(tower)
    if group is not None:
        x = np.take(x, 0, axis=group - 1)
    return x.astype(np.uint8).tobytes()


def elem_from_bytes(tower, raw, group=None):
    _check_digit_format(tower)
    if group is None:
        flat = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
        if flat.size != tower.flat_size * tower.base.d:
            raise MalformedFrame("element payload has wrong length")
        return flat.reshape(tower.shape)
    shape = tuple(p for k, p in enumerate(tower.primes) if k != group - 1) + (tower.base.d,)
    flat = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
    if flat.size != int(np.prod(shape)):
        raise MalformedFrame("subfield element payload has wrong length")
    out = np.zeros(tower.shape, dtype=np.int64)
    idx = [slice(None)] * (tower.L + 1)
    idx[group - 1] = 0
    out[tuple(idx)] = flat.reshape(shape)
    return out


def elem_symbols(tower, group=None):
    """Base-field symbol count of one serialized element."""
    if group is None:
        return tower.flat_size
    return tower.flat_size // tower.primes[group - 1]


def mat_to_bytes(tower, m, group=None):
    body = struct.pack(">II", m.rows, m.cols)
    for row in m.data:
        for v in row:
            body += elem_to_bytes(tower, v, group)
    return body


def mat_from_bytes(tower, raw, offset=0, group=None):
    rows, cols = struct.unpack_from(">II", raw, offset)
    offset += 8
    per = elem_symbols(tower, group) * tower.base.d
    data = []
    for _ in range(rows):
        r = []
        for _ in range(cols):
            r.append(elem_from_bytes(tower, raw[offset : offset + per], group))
            offset += per
        data.append(r)
    return Mat(tower, rows, cols, data), offset


def mat_payload_symbols(tower, m, group=None):
    return m.rows * m.cols * elem_symbols(tower, group)


# -- framing -------------------------------------------------------------------

def pack_message(msg_type, body):
    return MAGIC + bytes([VERSION, msg_type]) + struct.pack(">I", len(body)) + body


def unpack_message(buf):
    """Parse one frame from the head of buf; returns (type, body, rest)."""
    if len(buf) < 10:
        raise MalformedFrame("frame shorter than header")
    if buf[:4] != MAGIC:
        raise MalformedFrame("bad magic")
    if buf[4] != VERSION:
        raise VersionMismatch(f"peer version {buf[4]}, expected {VERSION}")
    msg_type = buf[5]
    (length,) = struct.unpack_from(">I", buf, 6)
    if len(buf) < 10 + length:
        raise MalformedFrame("truncated body")
    return msg_type, bytes(buf[10 : 10 + length]), buf[10 + length :]


def _recv_exact(sock, n):
    chunks = b""
    while len(chunks) < n:
        try:
            part = sock.recv(n - len(chunks))
        except socket.timeout as exc:
            raise ProtocolTimeout("peer timed out") from exc
        if not part:
            raise MalformedFrame("connection closed mid-frame")
        chunks += part
    return chunks


def read_message(sock):
    header = _recv_exact(sock, 10)
    if header[:4] != MAGIC:
        raise MalformedFrame("bad magic")
    if header[4] != VERSION:
        raise VersionMismatch(f"peer version {header[4]}, expected {VERSION}")
    (length,) = struct.unpack_from(">I", header, 6)
    body = _recv_exact(sock, length) if length else b""
    return header[5], body


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
    groups = [i for i in range(1, scheme.L + 1) if server_index <= scheme.N[i - 1]]
    body += bytes([len(groups)])
    for i in groups:
        body += bytes([i])
        body += elem_to_bytes(scheme.tower, scheme.server_scalars[i - 1][server_index - 1])
    return body


_tower_cache = {}
_tower_cache_lock = threading.Lock()


def _cached_tower(p, d, modulus, primes):
    # One lock over lookup and build, so concurrent PARAMS frames for a new
    # field build its tower once.
    key = (p, d, modulus, primes)
    with _tower_cache_lock:
        tower = _tower_cache.get(key)
        if tower is None:
            tower = _tower_cache[key] = TowerField(BaseField(p, d, list(modulus)), primes)
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
    scalars: dict   # group -> full tower element


def parse_params(body):
    job_id, off = body[:8], 8
    (server_index,) = struct.unpack_from(">H", body, off); off += 2
    p, d = struct.unpack_from(">HB", body, off); off += 3
    modulus = tuple(body[off : off + d + 1]); off += d + 1
    L = body[off]; off += 1
    primes = tuple(struct.unpack_from(">H", body, off + 2 * k)[0] for k in range(L))
    off += 2 * L
    a, b, c = struct.unpack_from(">III", body, off); off += 12
    n_groups = body[off]; off += 1
    tower = _cached_tower(p, d, modulus, primes)
    per = tower.flat_size * tower.base.d
    scalars = {}
    for _ in range(n_groups):
        i = body[off]; off += 1
        scalars[i] = elem_from_bytes(tower, body[off : off + per]); off += per
    return ServerJob(job_id, server_index, tower, a, b, c, L, scalars)


def share_body(job_id, scheme, share):
    body = job_id + struct.pack(">H", share.server)
    body += mat_to_bytes(scheme.tower, share.f_eval)
    body += mat_to_bytes(scheme.tower, share.g_eval)
    return body


def parse_share(tower, body):
    job_id, off = body[:8], 8
    (server,) = struct.unpack_from(">H", body, off); off += 2
    f_eval, off = mat_from_bytes(tower, body, off)
    g_eval, off = mat_from_bytes(tower, body, off)
    return job_id, Share(server, f_eval, g_eval)


def responses_body(job_id, tower, bundle):
    body = job_id + struct.pack(">H", bundle.server)
    body += bytes([len(bundle.traced)])
    for i in sorted(bundle.traced):
        body += bytes([i])
        body += mat_to_bytes(tower, bundle.traced[i], group=i)
    return body


def parse_responses(tower, body):
    job_id, off = body[:8], 8
    (server,) = struct.unpack_from(">H", body, off); off += 2
    n_groups = body[off]; off += 1
    traced = {}
    for _ in range(n_groups):
        i = body[off]; off += 1
        m, off = mat_from_bytes(tower, body, off, group=i)
        traced[i] = m
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


def _ledger_share(ledger, scheme, share):
    tower = scheme.tower
    sym = mat_payload_symbols(tower, share.f_eval) + mat_payload_symbols(tower, share.g_eval)
    raw_f = mat_to_bytes(tower, share.f_eval)
    raw_g = mat_to_bytes(tower, share.g_eval)
    nbytes = len(raw_f) + len(raw_g) - 16  # strip the two 8-byte shape headers
    ledger.add_upload(share.server, sym, nbytes)
    return raw_f, raw_g


def _ledger_bundle(ledger, scheme, bundle):
    tower = scheme.tower
    sym = 0
    nbytes = 0
    for i, m in bundle.traced.items():
        sym += mat_payload_symbols(tower, m, group=i)
        nbytes += len(mat_to_bytes(tower, m, group=i)) - 8
    ledger.add_download(bundle.server, sym, nbytes)


# -- runners ------------------------------------------------------------------------

def run_inprocess(scheme, A, B, seed=0):
    """encode -> serialize -> servers -> serialize -> decode, all in memory;
    every payload passes through the wire format so the ledger is exact."""
    tower = scheme.tower
    ledger = TrafficLedger()
    bundles = []
    for share in encode(scheme, A, B, seed=seed):
        raw_f, raw_g = _ledger_share(ledger, scheme, share)
        f_eval, _ = mat_from_bytes(tower, raw_f)
        g_eval, _ = mat_from_bytes(tower, raw_g)
        bundle = server_compute(scheme, Share(share.server, f_eval, g_eval))
        _ledger_bundle(ledger, scheme, bundle)
        raw = responses_body(b"\0" * 8, tower, bundle)
        _, bundle = parse_responses(tower, raw)
        bundles.append(bundle)
    product = decode(scheme, bundles)
    return product, ledger


def run_remote(endpoints, scheme, A, B, seed=0):
    """Contact one TCP server per share; identical result and ledger to
    run_inprocess for the same seed."""
    shares = encode(scheme, A, B, seed=seed)
    if len(endpoints) < len(shares):
        raise ConnectionFailed(len(endpoints) + 1, "not enough endpoints")
    job_id = os.urandom(8)
    ledger = TrafficLedger()
    results = {}
    errors = {}

    def contact(j, endpoint, share):
        host, port = endpoint
        try:
            with socket.create_connection((host, port), timeout=_timeout_seconds()) as sock:
                sock.settimeout(_timeout_seconds())
                sock.sendall(pack_message(MSG_PARAMS, params_body(job_id, scheme, j)))
                mtype, body = read_message(sock)
                if mtype == MSG_ERROR:
                    raise ProtocolError(f"server {j}: {body[1:].decode(errors='replace')}")
                if mtype != MSG_PARAMS:
                    raise ProtocolError(f"server {j}: unexpected reply type {mtype}")
                sock.sendall(pack_message(MSG_SHARE, share_body(job_id, scheme, share)))
                mtype, body = read_message(sock)
                if mtype == MSG_ERROR:
                    raise ProtocolError(f"server {j}: {body[1:].decode(errors='replace')}")
                if mtype != MSG_RESPONSES:
                    raise ProtocolError(f"server {j}: unexpected reply type {mtype}")
                _, bundle = parse_responses(scheme.tower, body)
                results[j] = bundle
        except (OSError, socket.timeout) as exc:
            errors[j] = ConnectionFailed(j, str(exc))
        except Exception as exc:  # surfaced to the caller below
            errors[j] = exc

    threads = []
    for j, share in enumerate(shares, start=1):
        t = threading.Thread(target=contact, args=(j, endpoints[j - 1], share))
        t.start()
        threads.append(t)
    for t in threads:
        t.join()
    if errors:
        raise errors[min(errors)]

    bundles = []
    for j, share in enumerate(shares, start=1):
        _ledger_share(ledger, scheme, share)
        bundle = results[j]
        _ledger_bundle(ledger, scheme, bundle)
        bundles.append(bundle)
    product = decode(scheme, bundles)
    return product, ledger


# -- server side ----------------------------------------------------------------------

class Server:
    """One computing node.  Stateless between jobs except the Params cache,
    keyed by job id and guarded for exclusive access."""

    def __init__(self, host="127.0.0.1", port=0):
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(16)
        self.host, self.port = self._sock.getsockname()
        self._jobs = {}
        self._jobs_lock = threading.Lock()
        self._stop = threading.Event()

    def stop(self):
        self._stop.set()
        try:
            self._sock.close()
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
            threading.Thread(target=self._handle, args=(conn,), daemon=True).start()

    def _handle(self, conn):
        with conn:
            conn.settimeout(_timeout_seconds())
            while True:
                try:
                    mtype, body = read_message(conn)
                except (MalformedFrame, ProtocolTimeout):
                    return
                except VersionMismatch as exc:
                    conn.sendall(pack_message(MSG_ERROR, error_body(2, str(exc))))
                    return
                try:
                    reply = self._dispatch(mtype, body)
                except Exception as exc:
                    reply = pack_message(MSG_ERROR, error_body(1, f"{type(exc).__name__}: {exc}"))
                conn.sendall(reply)

    def _dispatch(self, mtype, body):
        if mtype == MSG_HELLO:
            return pack_message(MSG_HELLO, b"")
        if mtype == MSG_PARAMS:
            job = parse_params(body)
            with self._jobs_lock:
                self._jobs[(job.job_id, job.server_index)] = job
            return pack_message(MSG_PARAMS, job.job_id)
        if mtype == MSG_SHARE:
            job_id = body[:8]
            (server_index,) = struct.unpack_from(">H", body, 8)
            with self._jobs_lock:
                job = self._jobs.get((job_id, server_index))
            if job is None:
                return pack_message(MSG_ERROR, error_body(3, "unknown job id"))
            _, share = parse_share(job.tower, body)
            bundle = self._compute(job, share)
            return pack_message(MSG_RESPONSES, responses_body(job_id, job.tower, bundle))
        return pack_message(MSG_ERROR, error_body(4, f"unknown message type {mtype}"))

    @staticmethod
    def _compute(job, share):
        from .matrices import mat_mul

        tower = job.tower
        h = mat_mul(share.f_eval, share.g_eval)
        traced = {}
        for i, w in job.scalars.items():
            traced[i] = h.map(lambda v: tower.trace_to_subfield(tower.mul(w, v), i))
        return ResponseBundle(share.server, traced)


def serve(port, host="127.0.0.1"):
    """Blocking server entry point used by the CLI."""
    server = Server(host=host, port=port)
    try:
        server.serve_forever()
    finally:
        server.stop()
