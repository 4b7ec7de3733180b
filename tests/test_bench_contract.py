"""The names perfbench/tracing.py patches exist, a traced in-process job
still times its server stage: one server_compute call per job, and the
call perfbench/run.py times as kernels.convolve_us still returns the
convolution, from an addtable that towers build only when it is read."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from ftp_sdmm import kernels, proto
from ftp_sdmm.fields import BaseField
from ftp_sdmm.ftp import build_scheme
from ftp_sdmm.matrices import random_mat

from test_kernels import _conv_reference


@pytest.fixture(scope="module")
def tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_exists_and_is_restored(tracing):
    with tracing.Tracer() as tracer:
        patched = [(owner, attr, original) for owner, attr, original in tracer._undo]
        assert patched
        for owner, attr, original in patched:
            assert callable(original), (owner, attr)
            assert getattr(owner, attr) is not original, (owner, attr)
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, (owner, attr)


def test_an_inprocess_job_calls_server_compute_once_and_times_it(
        tracing, digest_schemes, monkeypatch):
    calls = []
    real = proto.server_compute

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(proto, "server_compute", counted)
    for name in ("small-tower", "paper-full"):
        scheme = digest_schemes[name]
        A = random_mat(scheme.a, scheme.b, scheme.tower, seed=1)
        B = random_mat(scheme.b, scheme.c, scheme.tower, seed=2)
        calls.clear()
        with tracing.Tracer() as tracer:
            tracer.take()
            product, _ = proto.run_inprocess(scheme, A, B, seed=3)
            spans, _ = tracer.take()
        assert len(calls) == 1 and len(calls[0][1]) == scheme.N[-1], name
        assert spans["ftp.server_compute_s"] > 0, name
        assert spans["ftp.encode_s"] > 0 and spans["ftp.decode_s"] > 0, name


def test_convolve_as_the_benchmark_calls_it_returns_the_oracle_sums(digest_schemes):
    """kernels.convolve(xf, yf, tower._addtable, tower._ext_flat) on
    paper-full's tower, with xf and yf of (flat_size, d) digits as
    perfbench/run.py draws them, is the (ext_len, 2d-1) int64 array of the
    loop convolution's sums."""
    tower = digest_schemes["paper-full"].tower
    rng = np.random.default_rng(1)
    xf, yf = rng.integers(0, tower.base.p, (2, tower.flat_size, tower.base.d), dtype=np.int64)
    out = kernels.convolve(xf, yf, tower._addtable, tower._ext_flat)
    want = _conv_reference(xf, yf, tower._addtable, tower._ext_flat)
    assert out.shape == (tower._ext_flat, 2 * tower.base.d - 1) and out.dtype == np.int64
    assert np.array_equal(out, want)


def test_addtable_is_built_on_first_read_and_never_by_a_job():
    """No tower or sub-tower holds its addtable until something reads it,
    and building paper-full's scheme and running one job read none; the
    table read is [i, j] = the flat extended index of the multi-index sum
    i + j, cached on the tower."""
    scheme = build_scheme(3, 2, (5, 7, 11), BaseField(3, 3), 1, 3, 1)
    tower = scheme.tower
    A = random_mat(scheme.a, scheme.b, tower, seed=1)
    B = random_mat(scheme.b, scheme.c, tower, seed=2)
    proto.run_inprocess(scheme, A, B, seed=3)
    towers = [tower, *tower._subtowers.values()]
    assert len(towers) > 1 and all("_addtable" not in t.__dict__ for t in towers)
    for t in (tower.subtower([0, 2]), tower):
        idx = np.indices(t.primes).reshape(t.L, -1)
        want = np.ravel_multi_index(tuple(idx[:, :, None] + idx[:, None, :]), t._ext_shape)
        assert np.array_equal(t._addtable, want) and t._addtable is t.__dict__["_addtable"]
    assert "_addtable" not in tower.subtower([1]).__dict__


def test_an_inprocess_job_writes_and_reads_each_share_stack_once(tracing, digest_schemes):
    """Under Tracer, one run_inprocess job writes each share stack in one
    mat_to_bytes call and reads it back in one mat_from_bytes call, on all
    N_L shares at once, not one call per server; each of these calls is the
    outermost wire call, so proto.wire_s holds its time.  The job makes one
    responses_body call and one parse_responses call."""
    names = ("mat_to_bytes", "mat_from_bytes", "responses_body", "parse_responses")
    for name in ("small-tower", "paper-full"):
        scheme = digest_schemes[name]
        tower, n, w = scheme.tower, scheme.N[-1], scheme.b // scheme.L
        A = random_mat(scheme.a, scheme.b, tower, seed=1)
        B = random_mat(scheme.b, scheme.c, tower, seed=2)
        calls = {attr: [] for attr in names}
        with tracing.Tracer() as tracer, pytest.MonkeyPatch.context() as mp:
            for attr, seen in calls.items():
                def recording(*args, timed=getattr(proto, attr), seen=seen):
                    seen.append((args[1], tracer._wire_depth))  # depth 0: outermost
                    return timed(*args)

                mp.setattr(proto, attr, recording)
            tracer.take()
            proto.run_inprocess(scheme, A, B, seed=3)
            spans, _ = tracer.take()
        writes = [data.shape for data, depth in calls["mat_to_bytes"] if depth == 0]
        assert writes == [(n, scheme.a, w) + tower.shape, (n, w, scheme.c) + tower.shape], name
        reads = calls["mat_from_bytes"]
        assert [(raw.shape[0], depth) for raw, depth in reads] == [(n, 0), (n, 0)], name
        assert len(calls["responses_body"]) == len(calls["parse_responses"]) == 1, name
        assert spans["proto.wire_s"] > 0, name


def test_setup_calls_the_make_tower_the_tracer_times(tracing):
    """A build_scheme inside Tracer, on each benchmark scheme, records
    fields.make_tower_s: setup still builds its tower through the
    module-level ftp.make_tower that perfbench/tracing.py patches."""
    from conftest import _DIGEST_SCHEMES

    for name, (L, T, primes, p, d, a, b, c) in _DIGEST_SCHEMES.items():
        with tracing.Tracer() as tracer:
            tracer.take()
            build_scheme(L, T, primes, BaseField(p, d), a, b, c)
            spans, _ = tracer.take()
        assert spans.get("fields.make_tower_s", 0) > 0, name
