"""Self-test of the benchmark's own checks.

    python3 perfbench/selftest/selftest.py

Checks that the reference arithmetic satisfies x^(q-1) = 1 for random
nonzero x on F_4(2), F_11(2,3), F_11(2,3,5) and F_9(2,3), that it agrees
with a correct job, and that a corrupted product entry and a corrupted ledger count
are each counted as a failed job.  Exits 0 when every check holds.
"""

import random
import sys
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402
from reference import RefTower  # noqa: E402

# F_9(2,3) has an odd p and d > 1, so a sign slip in the reduction by the
# base modulus shows; over F_4 and F_11 (modulus x) it cannot.
FIELDS = [(2, 2, (2,)), (11, 1, (2, 3)), (11, 1, (2, 3, 5)), (3, 2, (2, 3))]
WORKLOAD = run.Workload(2, 1, (2, 3), 11, 1, 2, 2, 2, remote=False, setups=1, pairs=1)


def check_field_orders(ftp, failures):
    rng = random.Random(0)
    for p, d, primes in FIELDS:
        tower = ftp.make_tower(ftp.BaseField(p, d), primes)
        ref = RefTower.of(tower)
        for _ in range(5):
            x = [0] * ref.size
            while not any(x):
                x = [rng.randrange(p) for _ in range(ref.size)]
            if ref.pow(x, ref.q - 1) != ref.one():
                failures.append(f"x^(q-1) != 1 in F_{p ** d}{primes} for x = {x}")


def corrupting(ftp, corrupt):
    """``ftp`` with run_inprocess replaced by one whose output ``corrupt`` alters."""

    def run_inprocess(*args, **kwargs):
        product, ledger = ftp.run_inprocess(*args, **kwargs)
        corrupt(product, ledger)
        return product, ledger

    return types.SimpleNamespace(Mat=ftp.Mat, run_inprocess=run_inprocess)


def flip_entry(product, ledger):
    product.data[0][1] = (product.data[0][1] + 1) % WORKLOAD.p


def miscount_download(product, ledger):
    ledger.per_server[1]["down_sym"] += 1


def check_job_accounting(ftp, failures):
    scheme = ftp.build_scheme(WORKLOAD.L, WORKLOAD.T, WORKLOAD.primes,
                              ftp.BaseField(WORKLOAD.p, WORKLOAD.d),
                              WORKLOAD.a, WORKLOAD.b, WORKLOAD.c)
    cases = [("a correct job", ftp, 0), ("a corrupted product entry", corrupting(ftp, flip_entry), 1),
             ("a corrupted ledger count", corrupting(ftp, miscount_download), 1)]
    for what, program, want_failed in cases:
        bench = run.Bench(program, "selftest", WORKLOAD, 1, scheme)
        bench.job()
        result = bench.result({})
        if result["attempted"] != 1 or result["failed"] != want_failed:
            failures.append(f"{what}: attempted {result['attempted']}, failed "
                            f"{result['failed']}, expected 1 and {want_failed}")
        if result["correct"] != (want_failed == 0):
            failures.append(f"{what}: correct is {result['correct']}")


def main():
    ftp = run.import_program()
    failures = []
    check_field_orders(ftp, failures)
    check_job_accounting(ftp, failures)
    for line in failures:
        print(f"FAIL {line}")
    print("selftest: " + ("failed" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
