"""CLI subcommands, config file plumbing, exit codes, determinism."""

import csv
import json
import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from ftp_sdmm import cli, proto
from ftp_sdmm.analysis import parse_rational
from fractions import Fraction


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_demo_default(capsys):
    code, out, _ = run_cli(capsys, ["demo"])
    assert code == 0
    assert "AB verified" in out
    assert "R  = 1/10" in out
    assert "R' = 1/9" in out


def test_demo_deterministic_transcript(capsys):
    _, out1, _ = run_cli(capsys, ["demo", "--seed", "7"])
    _, out2, _ = run_cli(capsys, ["demo", "--seed", "7"])
    assert out1 == out2


def test_run_inprocess(capsys):
    argv = ["run", "--L", "2", "--T", "1", "--primes", "2,3",
            "--q0-p", "11", "--b", "2", "--seed", "3"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert "oracle: verified" in out
    assert "match" in out
    _, out2, _ = run_cli(capsys, argv)
    assert out == out2


def test_run_prints_one_line_of_stage_times_on_stderr(capsys):
    """Setup, encode, the servers, the wire codec and decode, each timed,
    on one stderr line; stdout carries no times, so it stays the same."""
    code, out, err = run_cli(capsys, ["run", "--L", "2", "--T", "1", "--primes", "2,3",
                                      "--q0-p", "11", "--b", "2"])
    assert code == 0 and "times" not in out
    (line,) = err.splitlines()
    name, *fields = line.split()
    assert name == "times"
    assert [f.split("=")[0] for f in fields] == ["setup", "encode", "servers", "wire", "decode"]
    assert all(float(f.split("=")[1].removesuffix("ms")) > 0 for f in fields)


def test_run_trace_writes_the_spans_and_the_ledger(capsys, tmp_path, monkeypatch):
    """--trace FILE.json writes the job's stage times with setup's, each
    server's symbols and bytes, and the byte totals, as the ledger has
    them."""
    jobs, real = [], proto.run_inprocess

    def spy(*args, **kwargs):
        jobs.append(real(*args, **kwargs))
        return jobs[-1]

    monkeypatch.setattr(proto, "run_inprocess", spy)
    path = tmp_path / "trace.json"
    code, _, _ = run_cli(capsys, ["run", "--L", "2", "--T", "1", "--primes", "2,3",
                                  "--q0-p", "11", "--b", "2", "--trace", str(path)])
    assert code == 0
    (_, ledger), = jobs
    trace = json.loads(path.read_text())
    assert trace["per_server"] == {str(j): s for j, s in ledger.per_server.items()}
    assert (trace["upload_bytes"], trace["download_bytes"]) == (ledger.upload_bytes,
                                                                ledger.download_bytes)
    assert trace["spans_s"] == {"setup": trace["spans_s"]["setup"], **ledger.spans}
    assert all(s > 0 for s in trace["spans_s"].values())


def test_run_invalid_params_exit_2(capsys):
    code, _, err = run_cli(capsys, ["run", "--L", "1", "--primes", "5",
                                    "--q0-p", "2", "--q0-d", "2"])
    assert code == 2
    assert "ERROR TooFewEvalPoints" in err


def test_run_transport_failure_exit_3(capsys, monkeypatch):
    monkeypatch.setenv(proto.TIMEOUT_ENV, "300")
    eps = ",".join(["127.0.0.1:1"] * 10)
    code, _, err = run_cli(capsys, ["run", "--endpoints", eps])
    assert code == 3
    assert "ERROR ConnectionFailed" in err


@pytest.mark.parametrize("port", ["70000", "-5"])
def test_run_endpoint_port_out_of_range_exit_2(capsys, port):
    """An endpoint port outside 1..65535 is refused with exit 2, where 70000
    would reach port 4464 (70000 mod 2^16) and -5 would fail as a
    transport error."""
    eps = ",".join([f"127.0.0.1:{port}"] * 4)
    code, out, err = run_cli(capsys, ["run", "--endpoints", eps])
    assert code == 2 and not out
    assert err.startswith("ERROR InvalidParams:") and "1..65535" in err


def test_run_remote_matches_inprocess(capsys, serve):
    server = serve()
    base = ["run", "--L", "2", "--T", "1", "--primes", "2,3",
            "--q0-p", "11", "--b", "2", "--seed", "4"]
    code_l, out_l, _ = run_cli(capsys, base)
    eps = ",".join([f"127.0.0.1:{server.port}"] * 7)
    code_r, out_r, _ = run_cli(capsys, base + ["--endpoints", eps])
    assert code_l == code_r == 0
    checksum = [l for l in out_l.splitlines() if l.startswith("product_checksum")]
    assert checksum == [l for l in out_r.splitlines() if l.startswith("product_checksum")]


def test_config_file(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("L=2\nT=1\nprimes=2,3\nq0-p=11\nb=2\nseed=3\n")
    code, out, _ = run_cli(capsys, ["run", "--config", str(cfg)])
    assert code == 0 and "oracle: verified" in out
    # flags override the file
    code, out, _ = run_cli(capsys, ["run", "--config", str(cfg), "--seed", "9"])
    assert "seed=9" in out


def test_config_unknown_key_rejected(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus=1\n")
    code, _, err = run_cli(capsys, ["run", "--config", str(cfg)])
    assert code == 2
    assert "unknown key" in err


def test_rates_csv(capsys, tmp_path):
    out_path = tmp_path / "rates.csv"
    code, out, _ = run_cli(capsys, [
        "rates",
        "--grid", "a=1,b=3,c=1,L=3,T=2,primes=5:7:11,n_prime=7,l_prime=3",
        "--csv", str(out_path),
    ])
    assert code == 0
    with out_path.open() as fh:
        rows = list(csv.DictReader(fh))
    assert parse_rational(rows[0]["ftp_rate"]) == Fraction(385, 17121)
    assert rows[0]["winner"] in ("ftp", "baseline", "tie")


def test_rates_row_missing_a_key_exit_2(capsys):
    code, out, err = run_cli(capsys, ["rates", "--grid", "a=1"])
    assert code == 2 and not out
    assert err.startswith("ERROR ValueError: grid row 'a=1' lacks L, T, b, c, primes")


def test_crossover_output(capsys):
    code, out, _ = run_cli(capsys, ["crossover"])
    assert code == 0
    assert "K = 1/10" in out
    assert "hypothesis primes_large: ok" in out


@pytest.mark.parametrize("argv,why", [
    (["--L", "0"], "L, T must be positive"),
    (["--L", "2", "--T", "-1", "--primes", "5,7"], "L, T must be positive"),
    (["--L", "2", "--primes", "7,5"], "distinct ascending"),
    (["--L", "2", "--primes", "5"], "need 2 primes"),
])
def test_crossover_invalid_params_exit_2(capsys, argv, why):
    """L or T below 1, or primes not one per axis ascending, are refused with
    InvalidParams, or its subclass PrimesNotAscendingDistinct for primes out
    of order, and exit 2 before anything is printed."""
    code, out, err = run_cli(capsys, ["crossover"] + argv)
    assert code == 2 and not out
    name = "PrimesNotAscendingDistinct" if why == "distinct ascending" else "InvalidParams"
    assert err.startswith(f"ERROR {name}:") and why in err


@pytest.mark.parametrize("port", ["70000", "-1"])
def test_serve_port_out_of_range_exit_2(capsys, port):
    """A port outside 0..65535 is refused with exit 2 before the daemon
    prints or binds."""
    code, out, err = run_cli(capsys, ["serve", "--port", port])
    assert code == 2 and not out
    assert err.startswith("ERROR InvalidParams:") and "0..65535" in err


def _serve_argv(port):
    return [sys.executable, "-m", "ftp_sdmm.cli", "serve", "--port", str(port)]


_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))


def test_serve_prints_the_port_it_bound():
    """serve --port 0 prints the port the kernel gave it, and that port
    answers HELLO."""
    daemon = subprocess.Popen(_serve_argv(0), env=_ENV, stdout=subprocess.PIPE, text=True)
    try:
        line = daemon.stdout.readline()
        host, port = line.split()[-1].rsplit(":", 1)
        assert line.startswith("serving on ") and host == "127.0.0.1" and int(port) > 0, line
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            sock.sendall(proto.pack_message(proto.MSG_HELLO, b""))
            assert proto.read_message(sock) == (proto.MSG_HELLO, b"")
    finally:
        daemon.terminate()
        daemon.wait(timeout=10)
        daemon.stdout.close()


def test_serve_on_a_busy_port_exits_2_before_printing():
    """A port that another socket listens on is refused with exit 2, an
    error line on stderr and nothing on stdout."""
    with socket.create_server(("127.0.0.1", 0)) as busy:
        out = subprocess.run(_serve_argv(busy.getsockname()[1]), env=_ENV,
                             capture_output=True, text=True, timeout=60)
    assert out.returncode == 2 and out.stdout == "", (out.stdout, out.stderr)
    assert out.stderr.startswith("ERROR OSError:")


def test_audit_rank(capsys):
    code, out, _ = run_cli(capsys, ["audit", "--mode", "rank", "--L", "2",
                                    "--T", "1", "--primes", "2,3",
                                    "--q0-p", "11", "--q0-d", "1", "--b", "2"])
    assert code == 0
    assert "audit: pass" in out


def test_audit_exhaustive(capsys):
    code, out, _ = run_cli(capsys, ["audit", "--mode", "exhaustive"])
    assert code == 0
    assert "audit: pass" in out
