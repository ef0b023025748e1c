"""The four benchmark workloads: seeded inputs and one op each.

Every workload turns ``--seed`` into a fixed *pool* of inputs during
set-up (points, event streams or session configs), builds its protocol
objects, and then runs ops against the public protocol APIs the way a
user would.  Op ``i`` always uses pool entry ``i % pool_size``, so the
first pass over the pool fixes every deterministic metric (bits, bytes,
failures, EMD ratio) no matter how many ops the timed loop completes.

Set-up also runs one warm-up op on an input made from :data:`WARM_SEED`,
not from ``--seed``, so the warm-up costs the same whatever the seed.

Only the protocol call is timed, on the wall clock; :mod:`run` converts
the stamps to the host-speed reference clock (:mod:`hostclock`), which is
marked between ops.  Turning its result into an
:class:`Outcome` (whether it failed in a way the paper allows, its
transcript cost, the outputs the checker in :mod:`checks` validates, and
the figures the benchmark worked out itself to validate them against)
happens after the clock stops, with the span recorder paused.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from dataclasses import dataclass, field

import numpy as np
from spans import paused

from repro.core import EMDProtocol, GapProtocol, verify_gap_guarantee
from repro.core.multiparty import Topology
from repro.hashing import PublicCoins, derive_seed
from repro.lsh import BitSamplingMLSH
from repro.metric import GridSpace, HammingSpace, emd, emd_k
from repro.protocol import Channel
from repro.server import (
    NetworkConfig,
    ProtocolError,
    ReconcileClient,
    ReconcileServer,
    SessionConfig,
    SimulatedNetwork,
    memory_pipe,
)
from repro.stream import StreamReplayer
from repro.stream.log import record_line
from repro.workloads import ChurnGenerator, noisy_replica_pair

__all__ = ["WARM_KEY", "WARM_SEED", "WORKLOADS", "Outcome", "Run", "Workload"]

#: Seed of the warm-up input, the same for every ``--seed``.
WARM_SEED = 0
#: Outcome key of the warm-up op (pool keys are ``0..pool_size-1``).
WARM_KEY = -1


@dataclass
class Outcome:
    """What one op produced, as the checker and the metrics need it.

    ``outputs`` and ``truth`` are dropped once the op is checked, so a
    run holds only scalars per op.
    """

    key: int  #: pool index (or session index) the op ran on
    failed: bool  #: an outcome the paper allows with bounded probability
    bits: int  #: transcript bits the protocol reported
    wire_bytes: "int | None" = None  #: framed bytes on the transport, if any
    outputs: "dict | None" = field(default_factory=dict)  #: program outputs
    truth: "dict | None" = field(default_factory=dict)  #: the benchmark's own figures
    emd_ratio: "float | None" = None
    stats: dict = field(default_factory=dict)  #: per-op counts for the traced run


def _wall(began: float, ended: float) -> float:
    return ended - began


@dataclass
class Run:
    """One timed loop: each op's ``perf_counter`` stamps and outcome, and
    the intervals that make up the loop's wall time (the ops themselves
    when they run one at a time).  ``span`` maps two stamps to seconds:
    wall seconds by default, or :meth:`hostclock.HostClock.span`."""

    ops: "list[tuple[float, float, Outcome]]"
    busy: "list[tuple[float, float]]"

    def samples(self, span=_wall) -> "list[tuple[float, Outcome]]":
        return [(span(began, ended), outcome) for began, ended, outcome in self.ops]

    def wall(self, span=_wall) -> float:
        return sum(span(began, ended) for began, ended in self.busy)


class Workload:
    """Base shape: ``setup`` builds the pool; ``run`` drives the timed loop."""

    name = ""
    why = ""
    pool_size = 1

    def make_input(self, seed: int, index: int):
        raise NotImplementedError

    def setup(self, seed: int) -> None:
        """Build the protocol objects, the seeded pool and the warm-up input."""
        self.pool = [self.make_input(seed, i) for i in range(self.pool_size)]
        self.warm_input = self.make_input(WARM_SEED, 0)

    def call(self, inp):
        """The timed part of an op: the protocol run on one input."""
        raise NotImplementedError

    def outcome(self, key: int, inp, raw) -> Outcome:
        raise NotImplementedError

    def warm_up(self) -> Outcome:
        return self.outcome(WARM_KEY, self.warm_input, self.call(self.warm_input))

    def run(self, seconds: float, tag, check, clock, full_pass: bool = True) -> Run:
        """Closed loop, one op at a time, until the ops have taken
        ``seconds`` and, with ``full_pass``, at least one pass over the
        pool (else one op).

        ``tag(i)`` scopes op ``i``'s spans; ``check(outcome)`` validates
        it; ``clock`` is marked before the first op and after each one.
        The loop's wall time is the ops' own time: building and checking
        outcomes and the marks fall outside it.
        """
        ops = []
        busy = 0.0
        index = 0
        min_ops = self.pool_size if full_pass else 1
        clock.mark()
        while index < min_ops or busy < seconds:
            key = index % self.pool_size
            with tag(index):
                began = time.perf_counter()
                raw = self.call(self.pool[key])
                ended = time.perf_counter()
            clock.mark()
            busy += ended - began
            with paused():
                outcome = self.outcome(key, self.pool[key], raw)
                check(outcome)
            outcome.outputs = outcome.truth = None
            ops.append((began, ended, outcome))
            index += 1
        return Run(ops, [(began, ended) for began, ended, _ in ops])


def _rng(seed: int, name: str, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, derive_seed(0, name) & 0xFFFFFFFF, index])


def _points(points) -> "list[list[int]]":
    return [[int(c) for c in p] for p in points]


class EMDGrid(Workload):
    name = "emd-grid"
    why = "Algorithm 1 on a 2-D L1 grid: the only workload dominated by MLSH key hashing"
    pool_size = 16
    n, k, close, far, side = 16, 1, 2.0, 32.0, 128

    def setup(self, seed: int) -> None:
        self.space = GridSpace(side=self.side, dim=2, p=1.0)
        self.protocol = EMDProtocol.for_instance(self.space, n=self.n, k=self.k)
        super().setup(seed)

    def make_input(self, seed: int, index: int):
        pair = noisy_replica_pair(
            self.space, self.n, self.k, self.close, self.far, _rng(seed, self.name, index)
        )
        baseline = emd_k(self.space, pair.alice, pair.bob, self.k)
        coins = PublicCoins(seed).child("e2ebench", self.name, index)
        return pair.alice, pair.bob, coins, baseline

    def call(self, inp):
        alice, bob, coins, _ = inp
        return self.protocol.run(alice, bob, coins, channel=Channel())

    def outcome(self, key: int, inp, result) -> Outcome:
        alice, _, _, baseline = inp
        ratio = None
        if result.success:
            ratio = emd(self.space, alice, result.bob_final) / max(baseline, 1.0)
        return Outcome(
            key=key,
            failed=not result.success,
            bits=result.total_bits,
            outputs={
                "success": result.success,
                "bob_final": _points(result.bob_final),
                "decoded_level": result.decoded_level,
                "decoded_pairs": result.decoded_pairs,
            },
            truth={"n": self.n, "side": self.side, "dim": 2},
            emd_ratio=ratio,
        )


class GapHamming(Workload):
    name = "gap-hamming"
    why = "Gap Guarantee on 96-bit Hamming: sets-of-sets, bit-sampling LSH, varint multiset cells"
    pool_size = 96
    dim, n, k, r1, r2, close, far = 96, 24, 2, 2.0, 32.0, 2.0, 40.0

    def setup(self, seed: int) -> None:
        self.space = HammingSpace(self.dim)
        family = BitSamplingMLSH(self.space, w=float(self.dim))
        params = family.derived_lsh_params(r1=self.r1, r2=self.r2)
        self.protocol = GapProtocol(self.space, family, params, n=self.n, k=self.k)
        super().setup(seed)

    def make_input(self, seed: int, index: int):
        pair = noisy_replica_pair(
            self.space, self.n, self.k, self.close, self.far, _rng(seed, self.name, index)
        )
        coins = PublicCoins(seed).child("e2ebench", self.name, index)
        truth = {"alice": frozenset(map(tuple, _points(pair.alice))),
                 "bob": frozenset(map(tuple, _points(pair.bob)))}
        return pair.alice, pair.bob, coins, truth

    def call(self, inp):
        alice, bob, coins, _ = inp
        return self.protocol.run(alice, bob, coins, channel=Channel())

    def outcome(self, key: int, inp, result) -> Outcome:
        alice, _, _, truth = inp
        holds = result.success and verify_gap_guarantee(
            self.space, alice, result.bob_final, self.r2
        )
        return Outcome(
            key=key,
            failed=not holds,
            bits=result.total_bits,
            outputs={
                "success": result.success,
                "transmitted": sorted(_points(result.transmitted)),
                "bob_final": _points(result.bob_final),
            },
            truth=truth,
        )


class GossipChurn(Workload):
    name = "gossip-churn"
    why = (
        "Zipf churn replayed over star/ring/tree/random gossip: "
        "the store write path and stream layer"
    )
    pool_size = 40  # the first pass alone gives the 40 samples a tail needs
    parties = 5
    kinds = ("star", "ring", "tree", "random")

    def make_input(self, seed: int, index: int):
        coins = PublicCoins(seed).child("e2ebench", self.name)
        stream = ChurnGenerator(coins.child("churn", index), key_bits=55).generate(
            n=32, windows=3, rate=6, skew=1.2, insert_fraction=0.5, sources=self.parties
        )
        kind = self.kinds[index % len(self.kinds)]
        topology = Topology.build(
            kind, self.parties, coins=coins.child("topology", index), branching=2, k=2
        )
        replayer = StreamReplayer(
            topology, coins.child("replay", index), key_bits=55, delta_bound=8, q=3,
            max_attempts=6,
        )
        # Every party but an event's source must be shipped that event once
        # (the stream position is its sequence number), as one log line.
        line_bits = sum(
            8 * len(record_line(event.to_record(seq))) for seq, event in enumerate(stream.events)
        )
        truth = {
            "shipped": len(stream.events) * (self.parties - 1),
            "min_bits": line_bits * (self.parties - 1),
        }
        return stream.events, replayer, truth

    def call(self, inp):
        events, replayer, _ = inp
        return replayer.replay(events)

    def outcome(self, key: int, inp, report) -> Outcome:
        return Outcome(
            key=key,
            # An unconverged replay is allowed; the checker rejects a
            # converged one that breaks the replay's promises.
            failed=not report.converged,
            bits=report.total_bits,
            outputs={
                "success": report.success,
                "converged": report.converged,
                "matches_cold_rebuild": report.matches_cold_rebuild,
                "edge_bits": [list(e) for e in report.edge_bits],
                "syncs": report.syncs,
                "events_shipped": report.events_shipped,
            },
            truth=inp[2],
            stats={
                "store_hits": report.store_hits,
                "keys_hashed": report.keys_hashed,
                "syncs": report.syncs,
                "decode_failures": report.decode_failures,
                "events_shipped": report.events_shipped,
            },
        )


def _session_config(seed: int, session_id: int) -> SessionConfig:
    return SessionConfig(
        session_id=session_id, seed=seed, protocol="resilient", dim=48, n_shared=96,
        delta=12, delta_bound=4, q=3, max_attempts=10, max_escalations=1,
    )


def _network_config(seed: int) -> NetworkConfig:
    return NetworkConfig(
        seed=derive_seed(seed, "e2ebench", ServiceLossy.name),
        loss_rate=0.15, corrupt_rate=0.1, duplicate_rate=0.1, reorder_rate=0.1,
        base_latency_ms=0.2, jitter_ms=0.4,
    )


class ServiceLossy(Workload):
    """Closed loop of ``concurrency`` resilient sessions on one connection.

    Session ``i + 1`` is op ``i``; its config is the whole input, and the
    server derives both point sets from it.  Sessions ``1..pool_size``
    always complete, so they fix the deterministic metrics; later
    sessions only add timing samples.
    """

    name = "service-lossy"
    why = (
        "4 concurrent resilient sessions over one lossy in-memory link: "
        "server, framing, strata fallback"
    )
    pool_size = 600
    concurrency = 4
    max_sessions = 5_000

    def setup(self, seed: int) -> None:
        self.configs = [_session_config(seed, sid) for sid in range(1, self.max_sessions + 1)]
        self.network_config = _network_config(seed)
        # Session 1 of the warm-up seed is an ordinary one, with no strata fallback.
        self.warm_config = _session_config(WARM_SEED, 1)
        self.warm_network = _network_config(WARM_SEED)

    def warm_up(self) -> Outcome:
        """One session on a fresh connection, outside the seed's pool."""
        raw, _ = asyncio.run(self._serve(
            [self.warm_config], self.warm_network, 0.0, lambda i: contextlib.nullcontext(),
            count=1, workers=1, mark=lambda: None,
        ))
        return self.outcome(WARM_KEY, self.warm_config, raw[0][3])

    def run(self, seconds: float, tag, check, clock, full_pass: bool = True) -> Run:
        """The sessions share one event loop, so checking waits until all
        of them have finished (and stays outside the measured wall).  After
        every ``concurrency``-th session to finish, its worker marks
        ``clock``.  A mark blocks the shared loop, so it falls inside the
        wall and the latency of every session then in flight; this rate
        keeps it near 1% of both."""
        count = self.pool_size if full_pass else 1
        raw, busy = asyncio.run(self._serve(
            self.configs, self.network_config, seconds, tag, count, workers=self.concurrency,
            mark=clock.mark,
        ))
        ops = []
        with paused():
            for began, ended, index, result in raw:
                outcome = self.outcome(index, self.configs[index], result)
                check(outcome)
                outcome.outputs = outcome.truth = None
                ops.append((began, ended, outcome))
        return Run(ops, [busy])

    async def _serve(
        self, configs, network, seconds: float, tag, count: int, workers: int, mark
    ):
        client_conn, server_conn = memory_pipe()
        server_task = asyncio.ensure_future(ReconcileServer().serve_connection(server_conn))
        client = ReconcileClient(client_conn, network=SimulatedNetwork(network), timeout=30.0)
        client.start()
        raw: "list[tuple[float, float, int, object]]" = []
        next_index = 0
        mark()
        start = time.perf_counter()

        async def worker() -> None:
            nonlocal next_index
            while True:
                index = next_index
                if index >= count and time.perf_counter() - start >= seconds:
                    return
                if index >= len(configs):
                    return
                next_index += 1
                with tag(index):
                    began = time.perf_counter()
                    try:
                        result = await client.run_session(configs[index])
                    except ProtocolError as exc:
                        result = exc  # resends ran out: an unreconciled session
                    ended = time.perf_counter()
                raw.append((began, ended, index, result))
                if len(raw) % workers == 0:
                    mark()

        try:
            await asyncio.gather(*(asyncio.ensure_future(worker()) for _ in range(workers)))
            busy = (start, time.perf_counter())
        finally:
            await client.aclose()
            server_task.cancel()
            try:
                await server_task
            except asyncio.CancelledError:
                pass
        return raw, busy

    def outcome(self, key: int, config: SessionConfig, report) -> Outcome:
        if isinstance(report, ProtocolError):
            return Outcome(key=key, failed=True, bits=0, wire_bytes=0,
                           outputs={"error": str(report)}, stats={"frames_lost": 0})
        alice, bob = config.workload()
        return Outcome(
            key=key,
            failed=not report.success,
            bits=report.transcript_bits,
            wire_bytes=report.wire.wire_bytes,
            outputs=report.to_dict(),
            truth={"union": len(set(alice) | set(bob))},
            stats={
                "attempts": report.attempts,
                "successes": int(report.success),
                "escalations": report.escalations,
                "strata_fallbacks": int(report.breaker_tripped),
                "rerequests": report.rerequests,
                "frames_lost": report.wire.frames_lost,
            },
        )


WORKLOADS = {w.name: w for w in (EMDGrid, GapHamming, ServiceLossy, GossipChurn)}
