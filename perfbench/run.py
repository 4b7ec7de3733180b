"""The repo's benchmark: job latency, setup time, wire bytes and memory.

    python3 perfbench/run.py --workload small-tower --seed 1 --seconds 20 --trace 0

One closed-loop client submits one job at a time for ``--seconds`` seconds.
Times are reported at a fixed reference speed of the machine: a calibration
of fixed work is timed around every job and setup, and each wall time is
scaled by its calibration's reference time over its measured time.  Every
decoded product is checked against the benchmark's own tower
arithmetic and every traffic ledger against the paper's closed forms.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Both kinds of run
also write their figures to perfbench/results/.  See perfbench/README.md.
"""

import argparse
import itertools
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from math import prod
from pathlib import Path

import numpy as np

from reference import RefTower, check_job, closed_form_symbols, mat_product
from tracing import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
# The cold paper-full job on a fresh daemon builds its tower once per
# connection: 37 s on one CPU here, 50-75 s on two, past the program's 30 s
# default.
TIMEOUT_MS = "120000"
# The calibration's time at the reference speed: its median on the 2-core
# machine the reference figures in perfbench/README.md come from.
CALIBRATION_REF_S = 0.0065
# Two 98k-bit integers, the size of the Kronecker-substituted operands of one
# multiply in the paper-full tower.
_CAL_INTS = tuple(int.from_bytes(bytes(range(k, 256)) * 48, "little") for k in (0, 1))


@dataclass(frozen=True)
class Workload:
    L: int
    T: int
    primes: tuple
    p: int
    d: int
    a: int
    b: int
    c: int
    remote: bool   # jobs go through run_remote to a daemon in its own process
    setups: int    # timed setups per run; setup_s is their median
    pairs: int     # distinct (A, B) pairs per run, cycled through by the jobs


WORKLOADS = {
    "small-tower": Workload(3, 1, (2, 3, 5), 11, 1, 4, 6, 4, remote=False, setups=10, pairs=4),
    "paper-full": Workload(3, 2, (5, 7, 11), 3, 3, 1, 3, 1, remote=False, setups=1, pairs=2),
    "tcp-wide": Workload(2, 1, (2, 3), 11, 1, 16, 16, 16, remote=True, setups=5, pairs=2),
}


def calibration_s():
    """Seconds of a fixed piece of work: a pure-Python integer loop, the kind
    of work the small towers' per-element paths do, and one big-integer
    product, the kind the paper-full tower's multiplies do.  The machine's
    speed drifts over minutes, and a job slows with it by about as much as
    this work does."""
    start = time.perf_counter()
    s = 0
    for i in range(20000):
        s += i * i % 7
    x, y = _CAL_INTS
    x * y
    return time.perf_counter() - start


def at_reference_speed(elapsed, calibration):
    """``elapsed`` wall seconds, scaled to the reference speed."""
    return elapsed * CALIBRATION_REF_S / calibration


def import_program():
    """Import ftp_sdmm from this checkout's src/, and from nowhere else."""
    package = SRC / "ftp_sdmm"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source in {package}")
    sys.path.insert(0, str(SRC))
    import ftp_sdmm

    if Path(ftp_sdmm.__file__).resolve().parent != package:
        sys.exit(f"perfbench: ftp_sdmm was imported from {ftp_sdmm.__file__}, not {package}")
    return ftp_sdmm


class Daemon:
    """perfbench/daemon.py in a child process, serving on loopback."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "daemon.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        try:
            self.endpoint = ("127.0.0.1", int(line))
        except ValueError:
            self.stop()
            raise RuntimeError(f"the daemon reported no port: {line!r}") from None

    def stop(self):
        """End the daemon, wait for it, and return its peak RSS in MB (or None).
        Closing its standard input asks it to stop."""
        if self.proc.returncode is not None:
            return None
        try:
            out, _ = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            return None
        words = out.split()
        return float(words[-1]) if words else None


class Bench:
    """One workload's scheme, inputs and references, and the checked job."""

    def __init__(self, ftp, name, w, seed, scheme, daemon=None):
        self.ftp, self.w, self.scheme = ftp, w, scheme
        self.endpoints = [daemon.endpoint] * scheme.N[-1] if daemon else None
        rng = random.Random(f"{name}:{seed}")
        size = prod(w.primes) * w.d

        def draw(rows, cols):
            return [[[rng.randrange(w.p) for _ in range(size)] for _ in range(cols)]
                    for _ in range(rows)]

        pairs = [(draw(w.a, w.b), draw(w.b, w.c)) for _ in range(w.pairs)]
        self.next_seed = rng.randrange(1 << 32)
        ref = RefTower.of(scheme.tower)
        self.expected = [mat_product(ref, A, B) for A, B in pairs]
        self.mats = [(self.to_mat(A), self.to_mat(B)) for A, B in pairs]
        self.symbols = closed_form_symbols(w.a, w.b, w.c, w.L, w.T, w.primes)
        self.jobs = 0
        self.failed = 0
        self.wrong = 0
        self.upload_bytes = self.download_bytes = None  # of the last job that ran

    def to_mat(self, rows):
        tower = self.scheme.tower
        return self.ftp.Mat(tower, len(rows), len(rows[0]), [
            [np.array(e, dtype=np.int64).reshape(tower.shape) for e in row] for row in rows
        ])

    def job(self, remote=None):
        """Run, time and check one job; return its latency in seconds, or None
        if it raised.  ``remote`` overrides the workload's transport."""
        remote = self.w.remote if remote is None else remote
        k = self.jobs % len(self.mats)
        A, B = self.mats[k]
        seed = self.next_seed + self.jobs
        self.jobs += 1
        start = time.perf_counter()
        try:
            if remote:
                product, ledger = self.ftp.run_remote(self.endpoints, self.scheme, A, B, seed=seed)
            else:
                product, ledger = self.ftp.run_inprocess(self.scheme, A, B, seed=seed)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            print(f"perfbench: job {self.jobs} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            return None
        elapsed = time.perf_counter() - start
        got = [[(v % self.w.p).ravel().tolist() for v in row] for row in product.data]
        problems = check_job(got, self.expected[k], ledger, self.symbols, self.w.d)
        if problems:
            self.failed += 1
            self.wrong += 1
            print(f"perfbench: job {self.jobs}: " + "; ".join(problems), file=sys.stderr)
        self.upload_bytes = ledger.upload_bytes
        self.download_bytes = ledger.download_bytes
        return elapsed

    def loop(self, seconds, on_job=None, min_jobs=1):
        """Jobs one after another until ``seconds`` have passed and at least
        ``min_jobs`` were attempted.  Returns, for each job that did not
        raise, its wall latency and the mean of the calibrations before and
        after it."""
        times = []
        end = time.perf_counter() + seconds
        before = calibration_s()
        for attempted in itertools.count(1):
            elapsed = self.job()
            after = calibration_s()
            if elapsed is not None:
                times.append((elapsed, (before + after) / 2))
            if on_job is not None:
                on_job(elapsed, (before + after) / 2)
            before = after
            if attempted >= min_jobs and time.perf_counter() >= end:
                return times

    def result(self, metrics):
        return {"correct": self.wrong == 0, "attempted": self.jobs,
                "failed": self.failed, "metrics": metrics}


def setup(ftp, w):
    """build_scheme, and for a remote workload a fresh daemon.  Returns the
    scheme, the daemon, the build_scheme seconds, the setup seconds and the
    mean of the calibrations before and after."""
    before = calibration_s()
    start = time.perf_counter()
    scheme = ftp.build_scheme(w.L, w.T, w.primes, ftp.BaseField(w.p, w.d), w.a, w.b, w.c)
    built = time.perf_counter()
    daemon = Daemon() if w.remote else None
    elapsed = time.perf_counter() - start
    return scheme, daemon, built - start, elapsed, (before + calibration_s()) / 2


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(ftp, name, w, seed, seconds):
    """The untraced run: the end-to-end metrics."""
    setup_times = []
    daemon = None
    daemon_rss = None
    try:
        for _ in range(w.setups):
            if daemon is not None:
                daemon.stop()
            scheme, daemon, _, elapsed, calibration = setup(ftp, w)
            setup_times.append((elapsed, calibration))
        bench = Bench(ftp, name, w, seed, scheme, daemon)
        bench.job()  # warm-up: on tcp-wide the daemon builds its towers here
        times = bench.loop(seconds)
    finally:
        if daemon is not None:
            daemon_rss = daemon.stop()
    client_rss = peak_rss_mb()
    if not times:
        sys.exit("perfbench: every job raised")
    scaled = [at_reference_speed(*t) for t in times]
    metrics = {
        "job_s": (statistics.median(scaled), "s"),
        "jobs_per_s": (len(scaled) / sum(scaled), "1/s"),
        "setup_s": (statistics.median(at_reference_speed(*t) for t in setup_times), "s"),
        "upload_bytes": (bench.upload_bytes, "B"),
        "download_bytes": (bench.download_bytes, "B"),
        "peak_rss_mb": (client_rss, "MB"),
        # In process, the servers run inside the client.
        "daemon_rss_mb": (daemon_rss if w.remote else client_rss, "MB"),
    }
    result = bench.result({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    wall = {"job_s": statistics.median(e for e, _ in times),
            "setup_s": statistics.median(e for e, _ in setup_times)}
    print(f"perfbench: wall-clock medians {wall}", file=sys.stderr)
    # Each entry is [wall seconds, calibration seconds].
    return result, {"wall": wall, "job_times": times, "setup_times": setup_times}


def median_time(fn, reps=1, budget=0.5):
    """Median seconds of fn(), over at least ``reps`` calls and ``budget`` seconds
    (one call of a full-support inversion on paper-full takes 7-13 s)."""
    times = []
    start = time.perf_counter()
    while len(times) < reps or time.perf_counter() - start < budget:
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def layer_micro(ftp, w, scheme_tower, seed):
    """Single calls into the field, kernel and matrix layers, on random operands."""
    rng = np.random.default_rng(seed)

    def element():
        return rng.integers(0, w.p, size=scheme_tower.shape, dtype=np.int64)

    full = element()
    while len(scheme_tower.support_axes(full)) != len(w.primes):
        full = element()
    x, y = element(), element()
    out = {
        "fields.mul_us": median_time(lambda: scheme_tower.mul(x, y)) * 1e6,
        "fields.trace_us": statistics.median(
            median_time(lambda: scheme_tower.trace_to_subfield(x, i)) for i in range(1, w.L + 1)
        ) * 1e6,
        "fields.inv_s": median_time(lambda: scheme_tower.inv(full)),
    }
    try:
        from ftp_sdmm import kernels
    except ImportError:
        pass  # the metric lapses with the module
    else:
        xf = x.reshape(scheme_tower.flat_size, w.d)
        yf = y.reshape(scheme_tower.flat_size, w.d)
        out["kernels.convolve_us"] = median_time(lambda: kernels.convolve(
            xf, yf, scheme_tower._addtable, scheme_tower._ext_flat)) * 1e6
    width = w.b // w.L

    def mat(rows, cols):
        return ftp.Mat(scheme_tower, rows, cols, [[element() for _ in range(cols)] for _ in range(rows)])

    F, G = mat(w.a, width), mat(width, w.c)
    out["matrices.mat_mul_s"] = median_time(lambda: ftp.mat_mul(F, G))
    return out


def traced_jobs(bench, tracer, count=0, seconds=None, remote=None):
    """``count`` jobs, or jobs for ``seconds`` (at least three), each as its
    latency, spans, counts and calibration (None outside the timed loop)."""
    out = []

    def record(elapsed, calibration=None):
        spans, counts = tracer.take()
        if elapsed is not None:
            out.append((elapsed, spans, counts, calibration))

    tracer.take()
    for _ in range(count):
        record(bench.job(remote))
    if seconds is not None:
        bench.loop(seconds, on_job=record, min_jobs=3)
    return out


def span_median(jobs, key):
    return statistics.median(spans.get(key, 0.0) for _, spans, _, _ in jobs)


def trace(ftp, name, w, seed, seconds):
    """The traced run: the per-layer metrics, with the traced job_s and setup_s."""
    layer = {}
    daemon = None
    with Tracer() as tracer:
        try:
            tracer.stage = "setup"
            scheme, daemon, build_s, setup_s, calibration = setup(ftp, w)
            setup_s = at_reference_speed(setup_s, calibration)
            tracer.stage = None
            spans, counts = tracer.take()
            parts = ("fields.make_tower_s", "fields.trace_dual_basis_s", "poly.dual_weights_s")
            for part in parts:
                layer[part] = spans.get(part, 0.0)
            layer["ftp.build_scheme_other_s"] = build_s - sum(layer[p] for p in parts)
            for key in ("fields.inv_calls.setup", "fields.mul_calls.setup"):
                layer[key] = counts.get(key, 0)

            bench = Bench(ftp, name, w, seed, scheme, daemon)
            if not w.remote:
                # The servers run in the client here, so a daemon of its own
                # gives the remote metrics on this workload's scheme.
                daemon = Daemon()
                bench.endpoints = [daemon.endpoint] * scheme.N[-1]
            # The measurement takes ``seconds`` in all, or longer where a cold
            # daemon job alone exceeds them (37 s on paper-full).
            end = time.perf_counter() + seconds
            # The daemon is fresh, so its first job is cold.
            cold = traced_jobs(bench, tracer, count=1, remote=True)
            if w.remote:
                main = traced_jobs(bench, tracer, seconds=end - time.perf_counter())
                remote = main
                # A remote job computes and serializes in the daemon, so two
                # in-process jobs give the server and wire numbers.
                local = traced_jobs(bench, tracer, count=2, remote=False)
            else:
                remote = traced_jobs(bench, tracer, count=3, remote=True)
                daemon.stop()
                daemon = None
                traced_jobs(bench, tracer, count=1)  # warm-up
                main = local = traced_jobs(bench, tracer, seconds=end - time.perf_counter())
        finally:
            if daemon is not None:
                daemon.stop()
    if not (cold and main and remote and local):
        sys.exit("perfbench: the traced run lost a whole phase to failed jobs")
    layer["proto.daemon_cold_job_s"] = cold[0][0]
    layer["proto.remote_wait_s"] = statistics.median(
        e - s.get("ftp.encode_s", 0.0) - s.get("ftp.decode_s", 0.0) for e, s, _, _ in remote
    )
    for key in ("ftp.encode_s", "ftp.decode_s"):
        layer[key] = span_median(main, key)
    for key in ("ftp.server_compute_s", "proto.wire_s"):
        layer[key] = span_median(local, key)
    for stage, jobs in (("encode", main), ("server", local), ("decode", main)):
        layer[f"fields.mul_calls.{stage}"] = jobs[0][2].get(f"fields.mul_calls.{stage}", 0)
    layer.update(layer_micro(ftp, w, scheme.tower, seed))
    job_s = statistics.median(at_reference_speed(e, c) for e, _, _, c in main)
    return bench, layer, job_s, setup_s


def unit(metric):
    if metric.endswith("_us"):
        return "us"
    if metric.endswith("_s"):
        return "s"
    return "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # One CPU for the client, its daemons and the calibration: the calibration
    # then samples the CPU the work runs on, and a daemon's handler threads
    # do not pass the interpreter lock between CPUs (see perfbench/README.md).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    ftp = import_program()
    os.environ["FTP_SDMM_TIMEOUT_MS"] = TIMEOUT_MS  # for the client and its daemons
    w = WORKLOADS[args.workload]
    RESULTS.mkdir(exist_ok=True)
    untraced_file = RESULTS / f"{args.workload}.json"
    if not args.trace:
        result, samples = measure(ftp, args.workload, w, args.seed, args.seconds)
        untraced_file.write_text(json.dumps(dict(result, seed=args.seed, **samples), indent=1) + "\n")
        print(json.dumps(result))
        return
    bench, layer, job_s, setup_s = trace(ftp, args.workload, w, args.seed, args.seconds)
    record = {"seed": args.seed, "traced_job_s": job_s, "traced_setup_s": setup_s,
              "per_layer": layer}
    if untraced_file.is_file():
        # The tracing overhead, against the last untraced run of this workload.
        untraced = json.loads(untraced_file.read_text())["metrics"]
        record["overhead"] = {
            "job_s": job_s - untraced["job_s"]["value"],
            "setup_s": setup_s - untraced["setup_s"]["value"],
        }
        print(f"perfbench: tracing overhead {record['overhead']}", file=sys.stderr)
    (RESULTS / f"{args.workload}-trace.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(bench.result({k: {"value": v, "unit": unit(k)} for k, v in layer.items()})))


if __name__ == "__main__":
    main()
