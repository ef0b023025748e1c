"""Outside-in span recorder for the traced benchmark run.

The recorder wraps each layer's public *batch-level* entry points from
outside the program: methods are patched on their class, and module
functions are rebound in every loaded ``repro.*`` module that holds
them.  :meth:`SpanRecorder.restore` puts every original object back, so
an untraced run after a traced one measures the unpatched program.

Each wrapped call is a span.  A span's self time is its duration minus
the time its child spans cover; only self time is summed per metric, so
nested layers never double count.  Spans carry the op (or session) id
set by the benchmark's worker through :data:`OP`, so the recorder can
also say how much of one session's latency was its own work.

Per-element calls (``BitWriter.write_bit``, ``affine_mod_p``) are never
wrapped: they run millions of times per op and would measure the
wrapper, not the layer.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["OP", "TARGETS", "SpanRecorder", "Target", "op_scope", "paused"]

#: The op (or session) index the benchmark worker is currently running.
OP: "contextvars.ContextVar[int | None]" = contextvars.ContextVar("e2ebench_op", default=None)
_CURRENT: "contextvars.ContextVar[_Span | None]" = contextvars.ContextVar(
    "e2ebench_span", default=None
)
_PAUSED: "contextvars.ContextVar[bool]" = contextvars.ContextVar("e2ebench_paused", default=False)


@contextlib.contextmanager
def op_scope(index: int):
    """Tag every span started inside the block with op ``index``."""
    token = OP.set(index)
    try:
        yield
    finally:
        OP.reset(token)


@contextlib.contextmanager
def paused():
    """Record no spans inside the block (the benchmark's own checking)."""
    token = _PAUSED.set(True)
    try:
        yield
    finally:
        _PAUSED.reset(token)


@dataclass
class _Span:
    metric: str
    op: "int | None"
    child_s: float = 0.0


@dataclass(frozen=True)
class Target:
    """One wrapped entry point.

    ``owner`` is ``module`` or ``module:Class``; ``counter(args, result)``
    returns count increments; ``tag(args)`` overrides the op id for calls
    that run outside the worker's context (the server's task).
    """

    owner: str
    attr: str
    metric: str
    counter: "Callable | None" = None
    tag: "Callable | None" = None


def _rows(args, result):
    return {"hashing.items": len(args[1])}


def _decoded(args, result):
    if hasattr(result, "pair_count"):
        recovered = result.pair_count
    elif hasattr(result, "multiplicities"):
        recovered = len(result.multiplicities)
    else:
        recovered = result.difference_count
    return {"iblt.decodes": 1, "iblt.decodes_ok": int(result.success), "iblt.recovered": recovered}


def _payload_bytes(args, result):
    return {"protocol.bytes": len(result[0])}


def _one(name):
    return lambda args, result: {name: 1}


def _session_of(args):
    return args[0].config.session_id - 1


_ENC, _PARSE, _FRAME = "protocol.encode_s", "protocol.parse_s", "protocol.frame_s"
_TABLES = (
    ("repro.iblt.iblt", "IBLT"),
    ("repro.iblt.riblt", "RIBLT"),
    ("repro.iblt.counting", "MultisetIBLT"),
)

TARGETS: "tuple[Target, ...]" = (
    # lsh: key construction over whole point sets
    Target("repro.lsh.keys:PrefixKeyBuilder", "keys_for", "lsh.keys_s"),
    Target("repro.lsh.keys:BatchKeyBuilder", "key_matrix_for", "lsh.keys_s"),
    Target("repro.lsh.keys:BatchKeyBuilder", "best_matches", "lsh.keys_s"),
    # hashing: vectorised field hashes
    Target(
        "repro.hashing.universal:PrefixHasher", "prefix_digests_many", "hashing.prefix_s", _rows
    ),
    Target("repro.hashing.universal:VectorHash", "hash_rows", "hashing.rows_s", _rows),
    Target("repro.hashing.universal:PairwiseHash", "hash_array", "hashing.keys_s", _rows),
    Target("repro.hashing.universal:Checksum", "hash_array", "hashing.keys_s", _rows),
    # iblt: build, subtract, peel
    *(
        Target(f"{module}:{cls}", attr, metric, counter)
        for module, cls in _TABLES
        for attr, metric, counter in (
            ("insert_batch", "iblt.build_s", None),
            ("delete_batch", "iblt.build_s", None),
            ("subtract", "iblt.subtract_s", None),
            ("decode", "iblt.peel_s", _decoded),
        )
    ),
    # protocol: codec and framing
    *(
        Target(f"{module}:{cls}", attr, metric, counter)
        for module, cls in _TABLES
        for attr, metric, counter in (
            ("to_payload", _ENC, _payload_bytes),
            ("from_payload", _PARSE, None),
        )
    ),
    *(
        Target("repro.protocol.tables", f"{verb}_{kind}_cells", metric)
        for kind in ("iblt", "riblt", "multiset")
        for verb, metric in (("write", _ENC), ("read", _PARSE))
    ),
    Target("repro.protocol.serialize", "write_points", _ENC),
    Target("repro.protocol.serialize", "read_points", _PARSE),
    Target("repro.reconcile.strata:StrataEstimator", "to_payload", _ENC, _payload_bytes),
    Target("repro.reconcile.strata:StrataEstimator", "from_payload", _PARSE),
    Target("repro.protocol.wire", "encode_frame", _FRAME, _one("protocol.frames")),
    Target("repro.protocol.wire", "decode_header", _FRAME),
    Target("repro.protocol.wire", "decode_body", _FRAME),
    Target("repro.protocol.wire:Frame", "verify_payload", _FRAME),
    # reconcile: the strata estimator behind the breaker's fallback
    *(
        Target("repro.reconcile.strata:StrataEstimator", attr, "reconcile.strata_s")
        for attr in ("insert_batch", "insert_all", "delete_batch", "subtract", "estimate")
    ),
    # setsofsets, metric
    Target("repro.setsofsets.protocol:SetsOfSetsReconciler", "run", "setsofsets.self_s"),
    Target("repro.core.repair", "repair_point_set", "metric.repair_s"),
    # server: per-session derivation and Bob's handlers
    Target("repro.server.session", "session_workload", "server.workload_s",
           tag=lambda args: args[1] - 1),
    *(
        Target("repro.server.server:ServerSession", attr, "server.sketch_s", tag=_session_of)
        for attr in ("build_sketch", "estimate_difference", "merge_push")
    ),
    # store: warm state writes, serves, registrations
    Target("repro.store.store:SketchStore", "apply_mutations", "store.mutate_s"),
    Target("repro.store.store:SketchStore", "apply_events", "store.mutate_s"),
    Target("repro.store.store:SketchStore", "serve_iblt", "store.serve_s", _one("store.serves")),
    Target("repro.store.store:SketchStore", "serve_strata", "store.serve_s", _one("store.serves")),
    Target("repro.store.store:SketchStore", "put_set", "store.put_s"),
)


@dataclass
class SpanRecorder:
    """Installs the wrappers, accumulates self time and counts, restores."""

    targets: "tuple[Target, ...]" = TARGETS
    self_s: "defaultdict[str, float]" = field(default_factory=lambda: defaultdict(float))
    counts: "defaultdict[str, int]" = field(default_factory=lambda: defaultdict(int))
    #: op id -> wall time inside that op's outermost spans
    own_s: "defaultdict[object, float]" = field(default_factory=lambda: defaultdict(float))
    spans: int = 0
    _saved: list = field(default_factory=list)

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        metric, counter, tag = target.metric, target.counter, target.tag
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if _PAUSED.get():
                return fn(*args, **kwargs)
            parent = _CURRENT.get()
            if tag is not None:
                op = tag(args)
            elif parent is not None:
                op = parent.op
            else:
                op = OP.get()
            span = _Span(metric, op)
            token = _CURRENT.set(span)
            began = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - began
                _CURRENT.reset(token)
                self.self_s[metric] += elapsed - span.child_s
                self.spans += 1
                if parent is not None:
                    parent.child_s += elapsed
                else:
                    self.own_s[op] += elapsed
            # A payload encoded inside another encode span is counted once.
            if counter is not None and not (parent is not None and parent.metric == metric):
                for name, value in counter(args, result).items():
                    self.counts[name] += value
            return result

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("recorder already installed")
        try:
            for target in self.targets:
                self._install_one(target)
        except BaseException:
            self.restore()
            raise

    def _install_one(self, target: Target) -> None:
        module_name, _, cls_name = target.owner.partition(":")
        module = importlib.import_module(module_name)
        if cls_name:
            cls = getattr(module, cls_name)
            raw = cls.__dict__[target.attr]
            if isinstance(raw, (staticmethod, classmethod)):
                patched = type(raw)(self._wrap(raw.__func__, target))
            else:
                patched = self._wrap(raw, target)
            setattr(cls, target.attr, patched)
            self._saved.append((cls, target.attr, raw))
            return
        original = getattr(module, target.attr)
        wrapper = self._wrap(original, target)
        for name, loaded in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")) or loaded is None:
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, attr, wrapper)
                    self._saved.append((loaded, attr, original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "SpanRecorder":
        self.install()
        return self

    def __exit__(self, *exc) -> bool:
        self.restore()
        return False
