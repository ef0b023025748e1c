"""Output checks: failed ops are counted, incorrect outputs are fatal.

A *failed* op is an outcome the paper allows with bounded probability
(decode failure, Gap Guarantee miss, unreconciled session, unconverged
replay); it is counted in ``failed`` and never stops the run.  An
*incorrect* output breaks something the code promises unconditionally,
and raises :class:`IncorrectOutput`.  Each promise is checked against a
figure the benchmark works out itself from the input, not against a
second reading of the program's own accounting:

* the same input gives the same output digest every time it runs;
* an EMD success leaves Bob with exactly ``n`` points of the grid;
* every point Alice transmits in the Gap protocol is one of hers, and a
  Gap success leaves Bob with his own points plus exactly those;
* a converged replay shipped each event once to every party but its
  source, paid at least those log lines' bits, and its warm sketches
  equal a cold rebuild;
* a successful session has a server-verified union whose size is that
  of the two sets the session config derives, and the bytes on the wire
  cover the transcript (``8 * wire_bytes >= bits``).

Result bits against channel bits, and ``8 * wire_bytes >= bits`` for
the in-process protocols, hold by construction (both figures are read
from the same channel), so they are not checked.
"""

from __future__ import annotations

import copy
import hashlib
import json

__all__ = ["IncorrectOutput", "OutputChecker", "TAMPER", "digest", "self_test"]


class IncorrectOutput(Exception):
    """An output broke an unconditional promise of the program."""


def digest(outputs: dict) -> str:
    """Canonical SHA-256 of an op's outputs."""
    blob = json.dumps(outputs, sort_keys=True, separators=(",", ":"), default=int)
    return hashlib.sha256(blob.encode()).hexdigest()


def _emd_promises(outcome) -> "list[str]":
    out, truth = outcome.outputs, outcome.truth
    if not out["success"]:
        return []
    final = out["bob_final"]
    broken = []
    if len(final) != truth["n"]:
        broken.append(f"EMD success left |S'_B| = {len(final)}, expected {truth['n']}")
    if any(len(p) != truth["dim"] or not all(0 <= c < truth["side"] for c in p) for p in final):
        broken.append("EMD success left a point outside the grid")
    return broken


def _gap_promises(outcome) -> "list[str]":
    out, truth = outcome.outputs, outcome.truth
    sent = {tuple(p) for p in out["transmitted"]}
    broken = []
    if not sent <= truth["alice"]:
        broken.append(f"Alice transmitted {len(sent - truth['alice'])} points she does not hold")
    final = [tuple(p) for p in out["bob_final"]]
    if out["success"] and (len(set(final)) != len(final) or set(final) != truth["bob"] | sent):
        broken.append("Bob's final set is not his own set plus the transmitted points")
    return broken


def _replay_promises(outcome) -> "list[str]":
    out, truth = outcome.outputs, outcome.truth
    if not out["converged"]:
        return []
    broken = []
    if not out["matches_cold_rebuild"]:
        broken.append("converged replay's warm sketch differs from a cold rebuild")
    if out["events_shipped"] != truth["shipped"]:
        broken.append(f"converged replay shipped {out['events_shipped']} events, "
                      f"expected {truth['shipped']}")
    if outcome.bits < truth["min_bits"]:
        broken.append(f"replay reports {outcome.bits} bits, below the "
                      f"{truth['min_bits']} its shipped log lines take")
    return broken


def _session_promises(outcome) -> "list[str]":
    out, truth = outcome.outputs, outcome.truth
    broken = []
    if 8 * outcome.wire_bytes < outcome.bits:
        broken.append(f"{outcome.wire_bytes} wire bytes cannot carry {outcome.bits} bits")
    if out.get("success"):
        if not out["union_ok"]:
            broken.append("successful session without a server-verified union")
        if out["bob_size"] != truth["union"]:
            broken.append(f"server holds {out['bob_size']} points, the union has "
                          f"{truth['union']}")
    return broken


PROMISES = {
    "emd-grid": _emd_promises,
    "gap-hamming": _gap_promises,
    "gossip-churn": _replay_promises,
    "service-lossy": _session_promises,
}


def _extra_point(outcome) -> None:
    out = outcome.outputs
    out["success"] = True
    out["bob_final"] = out["bob_final"] + [[1] * len(out["bob_final"][0])]


def _stray_point(outcome) -> None:
    outcome.outputs["transmitted"] = outcome.outputs["transmitted"] + [[2] * 96]


def _ship_more(outcome) -> None:
    outcome.outputs["converged"] = True
    outcome.outputs["events_shipped"] += 1


def _cold_mismatch(outcome) -> None:
    outcome.outputs["converged"] = True
    outcome.outputs["matches_cold_rebuild"] = False


def _below_log_bits(outcome) -> None:
    outcome.outputs["converged"] = True
    outcome.bits = outcome.truth["min_bits"] - 1


def _unverified_union(outcome) -> None:
    outcome.outputs["success"] = True
    outcome.outputs["union_ok"] = False


def _wrong_union(outcome) -> None:
    outcome.outputs.update(success=True, union_ok=True, bob_size=outcome.truth["union"] + 1)


def _short_wire(outcome) -> None:
    outcome.bits = 8 * outcome.wire_bytes + 1


#: Per workload, edits of a valid outcome that each break one promise.
TAMPER = {
    "emd-grid": (_extra_point,),
    "gap-hamming": (_stray_point, _extra_point),
    "gossip-churn": (_ship_more, _cold_mismatch, _below_log_bits),
    "service-lossy": (_unverified_union, _wrong_union, _short_wire),
}


class OutputChecker:
    """Validates outcomes of one workload; remembers digests per input."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.promises = PROMISES[workload]
        self.digests: "dict[int, str]" = {}

    def check(self, outcome) -> str:
        """Raise :class:`IncorrectOutput` on a broken promise; return the digest."""
        where = f"{self.workload} op on input {outcome.key}"
        for problem in self.promises(outcome):
            raise IncorrectOutput(f"{where}: {problem}")
        value = digest(
            {"bits": outcome.bits, "failed": outcome.failed, "outputs": outcome.outputs}
        )
        seen = self.digests.setdefault(outcome.key, value)
        if seen != value:
            raise IncorrectOutput(f"{where}: same input gave a different output digest")
        return value


def self_test(workload: str, outcome) -> None:
    """Feed tampered copies of a checked outcome; each must trip the checker.

    Every promise of the workload gets one tampered copy, judged by a
    fresh checker so only that promise can trip; one more copy, whose
    outputs differ from the original's, goes to the checker that saw the
    original (the digest check).
    """
    checker = OutputChecker(workload)
    checker.check(outcome)
    cases = []
    for edit in TAMPER[workload]:
        copied = copy.deepcopy(outcome)
        edit(copied)
        cases.append((OutputChecker(workload), copied))
    changed = copy.deepcopy(outcome)
    changed.outputs["tampered"] = True
    cases.append((checker, changed))
    for judge, copied in cases:
        try:
            judge.check(copied)
        except IncorrectOutput:
            continue
        raise AssertionError(f"{workload}: the output check accepted a tampered outcome")
