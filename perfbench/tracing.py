"""Per-layer timing and counting from outside the program.

The tracer swaps module attributes and ``TowerField`` methods for wrappers
that time or count each call, and puts the originals back on exit.  A
wrapper is installed where the caller looks the name up: ``ftp.make_tower``
rather than ``fields.make_tower``, because ``ftp`` imported the name.
"""

import time
from collections import Counter, defaultdict


class Tracer:
    """Spans summed by name and calls counted by stage, until ``take``."""

    def __init__(self):
        self.spans = defaultdict(float)
        self.counts = Counter()
        self.stage = None
        self._wire_depth = 0
        self._undo = []

    def take(self):
        """Return the spans and counts recorded since the last call, and reset."""
        spans, counts = dict(self.spans), dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts

    def __enter__(self):
        from ftp_sdmm import fields, ftp, poly, proto

        self._timed(ftp, "make_tower", "fields.make_tower_s")
        self._timed(ftp, "trace_dual_basis", "fields.trace_dual_basis_s")
        self._timed(poly, "dual_weights", "poly.dual_weights_s")
        self._timed(proto, "encode", "ftp.encode_s", stage="encode")
        self._timed(proto, "server_compute", "ftp.server_compute_s", stage="server")
        self._timed(proto, "decode", "ftp.decode_s", stage="decode")
        for attr in ("mat_to_bytes", "mat_from_bytes", "responses_body", "parse_responses"):
            self._wire(proto, attr)
        self._counted(fields.TowerField, "mul", "fields.mul_calls")
        self._counted(fields.TowerField, "inv", "fields.inv_calls")
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        return False

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _timed(self, owner, attr, name, stage=None):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            outer = self.stage
            if stage is not None:
                self.stage = stage
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.spans[name] += time.perf_counter() - start
                self.stage = outer

        self._patch(owner, attr, wrapper)

    def _wire(self, owner, attr):
        """Serialization calls nest (responses_body calls mat_to_bytes), so
        only the outermost one adds to ``proto.wire_s``."""
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            self._wire_depth += 1
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self._wire_depth -= 1
                if not self._wire_depth:
                    self.spans["proto.wire_s"] += time.perf_counter() - start

        self._patch(owner, attr, wrapper)

    def _counted(self, owner, attr, name):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            if self.stage is not None:
                self.counts[f"{name}.{self.stage}"] += 1
            return original(*args, **kwargs)

        self._patch(owner, attr, wrapper)
