"""The names perfbench/tracing.py patches exist, and a traced in-process job
still times its server stage: one server_compute call per job."""

import importlib.util
from pathlib import Path

import pytest

from ftp_sdmm import proto
from ftp_sdmm.matrices import random_mat


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
