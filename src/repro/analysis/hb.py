"""Happens-before race detection over the simulated timelines.

The HB graph has one node per :class:`~repro.gpu.timeline.TimelineOp` and
three edge families, exactly the mechanisms the list scheduler serializes
with:

- **dependency edges** — ``submit(depends_on=...)``, recorded as op uids
  (these may cross timelines: p2p recvs, cross-device gates);
- **stream edges** — FIFO order of ops sharing a stream on one timeline;
- **resource edges** — FIFO order of ops sharing an engine on one timeline.

Ops declare what they touch through ``attrs["hb_reads"]`` /
``attrs["hb_writes"]`` key lists: the gather stage reads its item's cache
block keys, a delta op writes the blocks it invalidates, the pin stage
writes (and the h2d copy reads) a per-occurrence staging key.  Two ops on
one timeline touching a common key, at least one writing, with no directed
path between them in either direction, race: nothing in the schedule stops
a reordering from exposing stale or half-written data.

Every HB edge points forward in simulated time (a successor never starts
before its predecessor ends), so reachability searches prune any node
starting after the target.  Op uids are a topological order of the graph
(every predecessor was submitted earlier), so a pair is ordered exactly
when the lower uid reaches the higher one; start times cannot orient the
search, since zero-duration ops may start together.

Each key is first screened in uid order, keeping its last write and the
reads since that write (the per-variable state of FastTrack, Flanagan &
Freund, PLDI 2009): every access must follow the last write, and every
write the reads since it.  By transitivity that orders every conflicting
pair, so a clean key costs one reachability search per access instead of
one per writer × access pair.  Only keys that fail the screen enumerate
their pairs, which keeps the report exactly what the all-pairs check
gives.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .base import ExecutionArtifacts, Violation

#: cap per run so a systemically broken schedule reports a digest, not a flood
MAX_RACES_REPORTED = 25


def build_hb_graph(
    timelines: Sequence[Tuple[str, str, object]]
) -> Tuple[Dict[int, object], Dict[int, List[int]]]:
    """Return ``(ops_by_uid, successors)`` across all given timelines."""
    ops_by_uid: Dict[int, object] = {}
    successors: Dict[int, List[int]] = defaultdict(list)
    for _, _, timeline in timelines:
        last_on_resource: Dict[str, int] = {}
        last_on_stream: Dict[str, int] = {}
        for op in timeline.ops:
            uid = op.uid
            ops_by_uid[uid] = op
            for dep in op.deps:
                successors[dep].append(uid)
            prev = last_on_resource.get(op.resource)
            if prev is not None:
                successors[prev].append(uid)
            last_on_resource[op.resource] = uid
            prev = last_on_stream.get(op.stream)
            if prev is not None:
                successors[prev].append(uid)
            last_on_stream[op.stream] = uid
    return ops_by_uid, dict(successors)


def _reaches(
    source: int,
    target: int,
    ops_by_uid: Dict[int, object],
    successors: Dict[int, List[int]],
) -> bool:
    """Is there a directed HB path ``source -> target``?"""
    target_start = ops_by_uid[target].start
    seen: Set[int] = {source}
    frontier = [source]
    while frontier:
        uid = frontier.pop()
        if uid == target:
            return True
        for nxt in successors.get(uid, ()):  # edges move forward in time
            if nxt in seen:
                continue
            nxt_op = ops_by_uid.get(nxt)
            if nxt_op is None or nxt_op.start > target_start:
                continue
            seen.add(nxt)
            frontier.append(nxt)
    return False


def ordered(
    a: int,
    b: int,
    ops_by_uid: Dict[int, object],
    successors: Dict[int, List[int]],
) -> bool:
    """Is there an HB path between the two ops, in either direction?

    Only a path from the lower uid to the higher one can exist.
    """
    first, second = sorted((a, b))
    return _reaches(first, second, ops_by_uid, successors)


def _key_is_ordered(
    ops: List[Tuple[int, bool]],
    ops_by_uid: Dict[int, object],
    successors: Dict[int, List[int]],
) -> bool:
    """Are all conflicting accesses of one key ordered?

    A read must follow the last write; a write must follow the reads since
    the last write, or the last write itself when there are none (the last
    write reaches those reads).  An op that reads and writes the key
    counts as a write.
    """
    is_write: Dict[int, bool] = {}
    for uid, write in ops:
        is_write[uid] = is_write.get(uid, False) or write
    last_write: Optional[int] = None
    reads: List[int] = []
    for uid in sorted(is_write):
        if is_write[uid] and reads:
            preds = reads
        else:
            preds = [] if last_write is None else [last_write]
        for pred in preds:
            if not _reaches(pred, uid, ops_by_uid, successors):
                return False
        if is_write[uid]:
            last_write, reads = uid, []
        else:
            reads.append(uid)
    return True


def _accesses(
    timelines: Sequence[Tuple[str, str, object]]
) -> Dict[Tuple[str, object], List[Tuple[int, bool]]]:
    """Map ``(source_name, key) -> [(uid, is_write), ...]`` per timeline.

    Keys are scoped per timeline: block ids on one device's cache are
    unrelated to the same ids on another device.
    """
    out: Dict[Tuple[str, object], List[Tuple[int, bool]]] = defaultdict(list)
    for name, _, timeline in timelines:
        for op in timeline.ops:
            attrs = op.attrs
            if "hb_reads" not in attrs and "hb_writes" not in attrs:
                continue
            for key in attrs.get("hb_reads", ()) or ():
                out[(name, key)].append((op.uid, False))
            for key in attrs.get("hb_writes", ()) or ():
                out[(name, key)].append((op.uid, True))
    return out


def check_hb_races(
    artifacts: ExecutionArtifacts, spec: Optional[object] = None
) -> List[Violation]:
    """Flag annotated-access pairs with no ordering path between them."""
    ops_by_uid, successors = build_hb_graph(artifacts.timelines)
    accesses = _accesses(artifacts.timelines)
    domains = {name: domain for name, domain, _ in artifacts.timelines}
    violations: List[Violation] = []
    seen_pairs: Set[Tuple[int, int]] = set()
    for (name, key), ops in sorted(accesses.items(), key=lambda kv: str(kv[0])):
        writers = [uid for uid, is_write in ops if is_write]
        if not writers or _key_is_ordered(ops, ops_by_uid, successors):
            continue
        readers = [uid for uid, is_write in ops if not is_write]
        for writer in writers:
            others = [uid for uid in writers if uid != writer] + readers
            for other in others:
                pair = (min(writer, other), max(writer, other))
                if pair in seen_pairs:
                    continue
                seen_pairs.add(pair)
                if ordered(writer, other, ops_by_uid, successors):
                    continue
                a, b = ops_by_uid[pair[0]], ops_by_uid[pair[1]]
                violations.append(
                    Violation(
                        check="hb-race",
                        message=(
                            f"{name}: {a.label!r} [{a.start:.6f}, {a.end:.6f}]s "
                            f"({a.resource}/{a.stream}) and {b.label!r} "
                            f"[{b.start:.6f}, {b.end:.6f}]s ({b.resource}/"
                            f"{b.stream}) both touch {key!r} with no "
                            "happens-before path; add a dependency edge or "
                            "serialize them on one stream"
                        ),
                        domain=domains.get(name, "train"),
                        time=min(a.start, b.start),
                        source=name,
                    )
                )
                if len(violations) >= MAX_RACES_REPORTED:
                    violations.append(
                        Violation(
                            check="hb-race",
                            message=(
                                f"stopped after {MAX_RACES_REPORTED} races; "
                                "fix the above and re-run"
                            ),
                            domain=domains.get(name, "train"),
                            time=min(a.start, b.start),
                            source=name,
                        )
                    )
                    return violations
    return violations
