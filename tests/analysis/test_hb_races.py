"""Happens-before race detection: seeded races fire, ordered schedules pass,
and the report equals an all-pairs reference on random and real schedules."""

from __future__ import annotations

from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import ExecutionArtifacts, Violation
from repro.analysis.base import collect_artifacts
from repro.analysis.hb import MAX_RACES_REPORTED, check_hb_races
from repro.api import Engine
from repro.api.cli import load_spec
from repro.gpu import Timeline


def artifacts_of(*timelines: Timeline) -> ExecutionArtifacts:
    return ExecutionArtifacts(
        timelines=[(f"gpu{i}", "train", t) for i, t in enumerate(timelines)]
    )


def submit(timeline, label, *, resource, stream, duration=1.0, deps=None,
           reads=(), writes=()):
    attrs = {}
    if reads:
        attrs["hb_reads"] = list(reads)
    if writes:
        attrs["hb_writes"] = list(writes)
    return timeline.submit(
        label=label,
        kind="cpu" if resource == "cpu" else "h2d",
        resource=resource,
        duration=duration,
        stream=stream,
        depends_on=deps,
        attrs=attrs,
    )


def reference_hb_races(artifacts: ExecutionArtifacts):
    """All-pairs race check with an unpruned search in both directions.

    Reports in the order and words of :func:`check_hb_races`: keys in
    ``str`` order, writer × access pairs deduplicated across keys, and the
    digest after ``MAX_RACES_REPORTED`` races.
    """
    ops_by_uid, successors = {}, defaultdict(list)
    accesses = defaultdict(list)
    for name, _, timeline in artifacts.timelines:
        last_on_chain = {}
        for op in timeline.ops:
            ops_by_uid[op.uid] = op
            for dep in op.deps:
                successors[dep].append(op.uid)
            for chain in (("resource", op.resource), ("stream", op.stream)):
                if chain in last_on_chain:
                    successors[last_on_chain[chain]].append(op.uid)
                last_on_chain[chain] = op.uid
            for key in op.attrs.get("hb_reads", ()):
                accesses[(name, key)].append((op.uid, False))
            for key in op.attrs.get("hb_writes", ()):
                accesses[(name, key)].append((op.uid, True))

    descendants = {}

    def reaches(source, target):
        if source not in descendants:
            seen, frontier = {source}, [source]
            while frontier:
                for nxt in successors.get(frontier.pop(), ()):
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
            descendants[source] = seen
        return target in descendants[source]

    domains = {name: domain for name, domain, _ in artifacts.timelines}
    violations, seen_pairs = [], set()
    for (name, key), ops in sorted(accesses.items(), key=lambda kv: str(kv[0])):
        writers = [uid for uid, is_write in ops if is_write]
        readers = [uid for uid, is_write in ops if not is_write]
        for writer in writers:
            for other in [uid for uid in writers if uid != writer] + readers:
                pair = (min(writer, other), max(writer, other))
                if pair in seen_pairs:
                    continue
                seen_pairs.add(pair)
                if reaches(writer, other) or reaches(other, writer):
                    continue
                a, b = ops_by_uid[pair[0]], ops_by_uid[pair[1]]
                time = min(a.start, b.start)
                violations.append(Violation(
                    check="hb-race",
                    message=(
                        f"{name}: {a.label!r} [{a.start:.6f}, {a.end:.6f}]s "
                        f"({a.resource}/{a.stream}) and {b.label!r} "
                        f"[{b.start:.6f}, {b.end:.6f}]s ({b.resource}/"
                        f"{b.stream}) both touch {key!r} with no "
                        "happens-before path; add a dependency edge or "
                        "serialize them on one stream"
                    ),
                    domain=domains[name], time=time, source=name,
                ))
                if len(violations) >= MAX_RACES_REPORTED:
                    violations.append(Violation(
                        check="hb-race",
                        message=(
                            f"stopped after {MAX_RACES_REPORTED} races; "
                            "fix the above and re-run"
                        ),
                        domain=domains[name], time=time, source=name,
                    ))
                    return violations
    return violations


class TestSeededRaces:
    def test_unordered_write_read_races(self):
        # A dropped dependency edge: the h2d copy reads the staging buffer
        # the pin stage writes, with nothing serializing the two.
        timeline = Timeline()
        submit(timeline, "pin", resource="cpu", stream="prep",
               writes=["staging:0"])
        submit(timeline, "h2d", resource="pcie_h2d", stream="copy",
               reads=["staging:0"])
        violations = check_hb_races(artifacts_of(timeline))
        assert len(violations) == 1
        v = violations[0]
        assert v.check == "hb-race" and v.severity == "error"
        assert "'pin'" in v.message and "'h2d'" in v.message
        assert "staging:0" in v.message
        assert "add a dependency edge" in v.message
        assert v.source == "gpu0" and v.domain == "train"

    def test_unordered_write_write_races(self):
        timeline = Timeline()
        submit(timeline, "delta", resource="cpu", stream="ingest",
               writes=["block:3"])
        submit(timeline, "gather", resource="pcie_h2d", stream="copy",
               writes=["block:3"])
        violations = check_hb_races(artifacts_of(timeline))
        assert len(violations) == 1

    def test_dependency_edge_orders_the_pair(self):
        timeline = Timeline()
        pin = submit(timeline, "pin", resource="cpu", stream="prep",
                     writes=["staging:0"])
        submit(timeline, "h2d", resource="pcie_h2d", stream="copy",
               deps=[pin], reads=["staging:0"])
        assert check_hb_races(artifacts_of(timeline)) == []

    def test_shared_stream_orders_the_pair(self):
        timeline = Timeline()
        submit(timeline, "pin", resource="cpu", stream="s",
               writes=["staging:0"])
        submit(timeline, "h2d", resource="pcie_h2d", stream="s",
               reads=["staging:0"])
        assert check_hb_races(artifacts_of(timeline)) == []

    def test_resource_fifo_orders_the_pair(self):
        timeline = Timeline()
        submit(timeline, "a", resource="cpu", stream="s1", writes=["k"])
        submit(timeline, "b", resource="cpu", stream="s2", reads=["k"])
        assert check_hb_races(artifacts_of(timeline)) == []

    def test_transitive_ordering_found(self):
        # a -> mid via stream, mid -> c via dependency: a and c are ordered
        # even though no direct edge joins them.
        timeline = Timeline()
        a = submit(timeline, "a", resource="cpu", stream="s", writes=["k"])
        mid = submit(timeline, "mid", resource="pcie_h2d", stream="s")
        assert a is not mid
        submit(timeline, "c", resource="pcie_d2h", stream="other",
               deps=[mid], reads=["k"])
        assert check_hb_races(artifacts_of(timeline)) == []

    def test_readers_only_never_race(self):
        timeline = Timeline()
        submit(timeline, "r1", resource="cpu", stream="s1", reads=["k"])
        submit(timeline, "r2", resource="pcie_h2d", stream="s2", reads=["k"])
        assert check_hb_races(artifacts_of(timeline)) == []

    def test_keys_are_scoped_per_timeline(self):
        # The same block id on two devices' caches is two different blocks.
        t0, t1 = Timeline(), Timeline()
        submit(t0, "w", resource="cpu", stream="s", writes=["block:0"])
        submit(t1, "r", resource="cpu", stream="s", reads=["block:0"])
        assert check_hb_races(artifacts_of(t0, t1)) == []

    def test_cross_timeline_dependency_edges_order(self):
        # p2p-style edge: the only path from the writer to the reader leaves
        # t0 through the send, crosses to the recv on t1 and comes back.
        # Every op on t0 has its own engine and stream, so no FIFO order
        # joins them.
        def schedule(gate_on_recv):
            t0, t1 = Timeline(), Timeline()
            w = submit(t0, "w", resource="cpu", stream="prep", writes=["k"])
            send = submit(t0, "send", resource="pcie_d2h", stream="comm",
                          deps=[w])
            recv = submit(t1, "recv", resource="cpu", stream="comm",
                          deps=[send])
            submit(t0, "r", resource="pcie_h2d", stream="copy",
                   deps=[recv] if gate_on_recv else None, reads=["k"])
            return artifacts_of(t0, t1)

        assert check_hb_races(schedule(gate_on_recv=True)) == []
        violations = check_hb_races(schedule(gate_on_recv=False))
        assert len(violations) == 1
        assert "'w'" in violations[0].message and "'r'" in violations[0].message

    def test_zero_duration_ops_starting_together_are_ordered(self):
        # Both ops start at 0.0; the copy stream and engine FIFOs order the
        # reader before the writer, so the search must run reader -> writer
        # even though the writer is the one the pair loop starts from.
        timeline = Timeline()
        submit(timeline, "h2d", resource="pcie_h2d", stream="copy",
               duration=0.0, reads=["k"])
        submit(timeline, "pin", resource="pcie_h2d", stream="copy",
               duration=0.0, writes=["k"])
        assert check_hb_races(artifacts_of(timeline)) == []

    def test_flood_reports_digest_after_cap(self):
        timeline = Timeline()
        for i in range(30):
            # Unique resource+stream per op: nothing serializes anything.
            submit(timeline, f"w{i}", resource=f"r{i}", stream=f"s{i}",
                   writes=["k"])
        violations = check_hb_races(artifacts_of(timeline))
        assert len(violations) == MAX_RACES_REPORTED + 1
        assert "stopped after" in violations[-1].message


KEYS = ("k0", "k1", "k2")
RESOURCES = ("cpu", "pcie_h2d", "compute")
STREAMS = ("s0", "s1", "s2", "s3")

ops_strategy = st.lists(
    st.fixed_dictionaries({
        "timeline": st.integers(min_value=0, max_value=2),
        "resource": st.integers(min_value=0, max_value=len(RESOURCES) - 1),
        "stream": st.integers(min_value=0, max_value=len(STREAMS) - 1),
        "duration": st.sampled_from([0.0, 0.5, 1.0]),
        # indices into the ops submitted so far, on any timeline
        "deps": st.lists(st.integers(min_value=0, max_value=10_000), max_size=2),
        "reads": st.sets(st.sampled_from(KEYS), max_size=2),
        "writes": st.sets(st.sampled_from(KEYS), max_size=2),
    }),
    min_size=1,
    max_size=60,
)


def build_schedule(num_timelines, ops, flood):
    """Submit ``ops`` in order.  ``flood`` drops the dependencies and pins
    each resource to one stream, so that the FIFO chains of different
    engines never cross and unordered pairs flood past the report cap."""
    timelines = [Timeline() for _ in range(num_timelines)]
    submitted = []
    for i, spec in enumerate(ops):
        stream = spec["resource"] if flood else spec["stream"]
        deps = [submitted[d % i] for d in spec["deps"]] if i and not flood else None
        submitted.append(submit(
            timelines[spec["timeline"] % num_timelines], f"op{i}",
            resource=RESOURCES[spec["resource"]], stream=STREAMS[stream],
            duration=spec["duration"], deps=deps,
            reads=sorted(spec["reads"]), writes=sorted(spec["writes"]),
        ))
    return artifacts_of(*timelines)


class TestMatchesAllPairsReference:
    @settings(max_examples=300, deadline=None)
    @given(
        num_timelines=st.integers(min_value=1, max_value=3),
        ops=ops_strategy,
        flood=st.booleans(),
    )
    def test_random_schedules(self, num_timelines, ops, flood):
        artifacts = build_schedule(num_timelines, ops, flood)
        assert check_hb_races(artifacts) == reference_hb_races(artifacts)

    def test_seeded_writes_on_a_real_fleet_run(self):
        # fleet-serving's shipped schedule is clean; seeding writes of one
        # delta-invalidated block key onto a handful of other ops of the
        # same replica makes races the random schedules cannot shape:
        # thousands of ops on four timelines and deep FIFO chains.
        engine = Engine.from_spec(
            load_spec("fleet-serving", ["serving.trace.num_events=80"])
        )
        engine.serve()
        artifacts = collect_artifacts(serving_engine=engine.serving_engine)
        assert check_hb_races(artifacts) == reference_hb_races(artifacts) == []

        name, _, timeline = artifacts.timelines[0]
        ops = timeline.ops
        key = next(op for op in ops if op.attrs.get("hb_writes")).attrs[
            "hb_writes"][0]
        seeded = [ops[i * len(ops) // 6] for i in range(1, 6)]
        for op in seeded:
            timeline.annotate(op, hb_writes=[*op.attrs.get("hb_writes", ()), key])
        violations = check_hb_races(artifacts)
        assert violations == reference_hb_races(artifacts)
        labels = {repr(op.label) for op in seeded}
        assert any(
            v.source == name and any(label in v.message for label in labels)
            for v in violations
        )
