"""One ftp_sdmm ``Server`` on loopback, in a process of its own.

Prints the port it listens on, serves until its standard input closes, then
prints its own peak resident memory in MB and exits.
"""

import resource
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ftp_sdmm.proto import Server  # noqa: E402


def main():
    server = Server()
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    try:
        print(server.port, flush=True)
        sys.stdin.read()
    finally:
        server.stop()
        thread.join()
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, flush=True)


if __name__ == "__main__":
    main()
