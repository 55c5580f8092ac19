"""Happens-before race detection over the simulated timelines.

The HB graph has one node per timeline op and three edge families, exactly
the mechanisms the list scheduler serializes with:

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

The graph is read off each timeline's columns
(:class:`~repro.gpu.timeline.OpColumns`): a node is a uid with its start
time, and an op view is built only for the ops a race report names.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from .base import ExecutionArtifacts, Violation

if TYPE_CHECKING:
    from repro.gpu.timeline import TimelineOp

#: cap per run so a systemically broken schedule reports a digest, not a flood
MAX_RACES_REPORTED = 25


def build_hb_graph(
    timelines: Sequence[Tuple[str, str, object]]
) -> Tuple[Dict[int, float], Dict[int, List[int]]]:
    """Return ``(start_by_uid, successors)`` across all given timelines."""
    starts: Dict[int, float] = {}
    successors: Dict[int, List[int]] = defaultdict(list)
    for _, _, timeline in timelines:
        columns = timeline.columns
        starts.update(zip(columns.uid, columns.start))
        for dep, uid in columns.dep_edges():
            successors[dep].append(uid)
        last_on_resource: Dict[str, int] = {}
        last_on_stream: Dict[str, int] = {}
        for uid, pos, resource, stream in zip(
            columns.uid, columns.pos, columns.resource, columns.stream
        ):
            if pos:
                # a chain op's dep edge on its predecessor is also its
                # resource and stream edge
                last_on_resource[resource] = last_on_stream[stream] = uid
                continue
            prev = last_on_resource.get(resource)
            if prev is not None:
                successors[prev].append(uid)
            last_on_resource[resource] = uid
            prev = last_on_stream.get(stream)
            if prev is not None:
                successors[prev].append(uid)
            last_on_stream[stream] = uid
    return starts, dict(successors)


def _reaches(
    source: int,
    target: int,
    starts: Dict[int, float],
    successors: Dict[int, List[int]],
) -> bool:
    """Is there a directed HB path ``source -> target``?"""
    target_start = starts[target]
    seen: Set[int] = {source}
    frontier = [source]
    while frontier:
        uid = frontier.pop()
        if uid == target:
            return True
        for nxt in successors.get(uid, ()):  # edges move forward in time
            if nxt in seen:
                continue
            nxt_start = starts.get(nxt)
            if nxt_start is None or nxt_start > target_start:
                continue
            seen.add(nxt)
            frontier.append(nxt)
    return False


def ordered(
    a: int,
    b: int,
    starts: Dict[int, float],
    successors: Dict[int, List[int]],
) -> bool:
    """Is there an HB path between the two ops, in either direction?

    Only a path from the lower uid to the higher one can exist.
    """
    first, second = sorted((a, b))
    return _reaches(first, second, starts, successors)


def _key_is_ordered(
    ops: List[Tuple[int, bool]],
    starts: Dict[int, float],
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
            if not _reaches(pred, uid, starts, successors):
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
        columns = timeline.columns
        for row in columns.rows_with("hb_reads", "hb_writes"):
            attrs, uid = columns.attrs(row), columns.uid[row]
            for key in attrs.get("hb_reads", ()) or ():
                out[(name, key)].append((uid, False))
            for key in attrs.get("hb_writes", ()) or ():
                out[(name, key)].append((uid, True))
    return out


def _op_of(timelines: Sequence[Tuple[str, str, object]], uid: int) -> "TimelineOp":
    """The view of the op with ``uid`` on whichever timeline holds it."""
    for _, _, timeline in timelines:
        row = timeline.columns.row_of(uid)
        if row is not None:
            return timeline.columns.view(row)
    raise KeyError(f"no op with uid {uid}")


def check_hb_races(
    artifacts: ExecutionArtifacts, spec: Optional[object] = None
) -> List[Violation]:
    """Flag annotated-access pairs with no ordering path between them."""
    starts, successors = build_hb_graph(artifacts.timelines)
    accesses = _accesses(artifacts.timelines)
    domains = {name: domain for name, domain, _ in artifacts.timelines}
    violations: List[Violation] = []
    seen_pairs: Set[Tuple[int, int]] = set()
    for (name, key), ops in sorted(accesses.items(), key=lambda kv: str(kv[0])):
        writers = [uid for uid, is_write in ops if is_write]
        if not writers or _key_is_ordered(ops, starts, successors):
            continue
        readers = [uid for uid, is_write in ops if not is_write]
        for writer in writers:
            others = [uid for uid in writers if uid != writer] + readers
            for other in others:
                pair = (min(writer, other), max(writer, other))
                if pair in seen_pairs:
                    continue
                seen_pairs.add(pair)
                if ordered(writer, other, starts, successors):
                    continue
                a, b = (_op_of(artifacts.timelines, uid) for uid in pair)
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
