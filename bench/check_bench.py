#!/usr/bin/env python3
"""Validate the bench JSON artifacts and apply their perf gates.

    python3 bench/check_bench.py BENCH_engine.json BENCH_campaign.json \
        BENCH_shard.json

The three files are what bench_engine, bench_campaign and bench_shard
write with --out (see bench/bench_json.hpp for the record schema).  Every
file gets the same schema check; each then gets its own gates:

  engine:   required paths and implicit families, per-record peak RSS
            and host width, vector <= 0.6x engine and dormant telemetry
            <= 1.05x legacy on ring/torus2d;
  campaign: scheduler/t1 and scheduler/t4 rows present;
  shard:    required paths, sharded/t1 <= 1.10x engine in every cell,
            and the parallel speedup reported (not gated), skipping rows
            that asked for more threads than the host has.

Exits nonzero on the first failed check.
"""

import json
import sys

RECORD_FIELDS = {"name", "topology", "agents", "rounds", "ns_per_agent_round"}


def load(path, extra_fields=()):
    """Reads one artifact and checks every record against the schema."""
    with open(path) as f:
        records = json.load(f)
    assert isinstance(records, list) and records, f"{path}: no bench records"
    required = RECORD_FIELDS | set(extra_fields)
    for r in records:
        missing = required - r.keys()
        assert not missing, f"{path}: record missing {missing}: {r}"
        assert r["ns_per_agent_round"] > 0, f"{path}: non-positive timing: {r}"
    return records


def by_cell(records, name):
    return {(r["topology"], r["agents"]): r["ns_per_agent_round"]
            for r in records if r["name"] == name}


def regular(topology):
    return topology.startswith("ring(") or topology.startswith("torus2d(")


def check_engine(path):
    records = load(path)
    names = {r["name"] for r in records}
    assert {"legacy", "engine", "engine+obs", "vector",
            "anytopology"} <= names, f"paths missing: {names}"
    # The implicit families ride along with a resident-set column on
    # every record — the number that proves O(agents) memory.
    topologies = {r["topology"] for r in records}
    for family in ("rgg2d(", "gnp(", "ba("):
        assert any(t.startswith(family) for t in topologies), \
            f"implicit family {family!r} missing: {topologies}"
    for r in records:
        assert r.get("peak_rss_bytes", 0) > 0, \
            f"record missing peak_rss_bytes: {r}"
        assert r.get("hardware_threads", 0) > 0, \
            f"record missing hardware_threads: {r}"

    # Vector-engine perf gate: on the branchless word-kernel families
    # (ring, torus2d) engine=vector must run at no more than 0.6x the
    # scalar engine's ns/agent-round in every cell.  Regular families
    # only — the irregular implicit families pay for neighbor queries,
    # not stepping, so a ratio there would gate noise.
    engine = by_cell(records, "engine")
    gated = 0
    for r in records:
        if r["name"] != "vector" or not regular(r["topology"]):
            continue
        key = (r["topology"], r["agents"])
        ratio = r["ns_per_agent_round"] / engine[key]
        print(f"{key}: vector = {ratio:.3f}x engine")
        assert ratio <= 0.6, f"vector engine too slow: {ratio:.3f}x at {key}"
        gated += 1
    assert gated > 0, "no ring/torus2d vector rows to gate"

    # Dormant-telemetry gate: the engine rows are timed with NO ambient
    # telemetry installed, so the obs probes compiled into the hot loop
    # must cost (nearly) nothing — within 1.05x of the frozen legacy
    # loop, which predates the probes entirely, on the regular ring/
    # torus2d families.  The engine+obs rows (full metrics + tracing
    # ambient) are reported for trending, not gated: instrumented cost
    # is allowed to be nonzero.
    legacy = by_cell(records, "legacy")
    obs = by_cell(records, "engine+obs")
    obs_gated = 0
    for r in records:
        if r["name"] != "engine" or not regular(r["topology"]):
            continue
        key = (r["topology"], r["agents"])
        ratio = r["ns_per_agent_round"] / legacy[key]
        print(f"{key}: dormant-obs engine = {ratio:.3f}x legacy, "
              f"instrumented = {obs[key] / r['ns_per_agent_round']:.3f}x "
              f"engine")
        assert ratio <= 1.05, \
            f"dormant telemetry slowed the engine: {ratio:.3f}x at {key}"
        obs_gated += 1
    assert obs_gated > 0, "no ring/torus2d engine rows to gate"

    print(f"OK: {len(records)} records, paths {sorted(names)}, "
          f"{len(topologies)} topologies, {gated} vector cells and "
          f"{obs_gated} dormant-telemetry cells gated")


def check_campaign(path):
    records = load(path)
    names = {r["name"] for r in records}
    assert {"scheduler/t1", "scheduler/t4"} <= names, \
        f"thread counts missing: {names}"
    print(f"OK: {len(records)} records, paths {sorted(names)}")


def check_shard(path):
    records = load(path, ("threads", "hardware_threads"))
    names = {r["name"] for r in records}
    assert {"engine", "vector", "sharded/t1", "sharded/t2", "sharded/t4",
            "sharded/t8"} <= names, f"paths missing: {names}"

    # The gate: sharded threads=1 within 1.10x of the single-stream
    # engine in every (topology, agents) cell.
    engine = by_cell(records, "engine")
    worst = 0.0
    for r in records:
        if r["name"] != "sharded/t1":
            continue
        key = (r["topology"], r["agents"])
        ratio = r["ns_per_agent_round"] / engine[key]
        worst = max(worst, ratio)
        print(f"{key}: sharded/t1 = {ratio:.3f}x engine")
        assert ratio <= 1.10, \
            f"single-thread sharded regression: {ratio:.3f}x at {key}"

    # Report (not gate — CI runners have few cores and noisy neighbours)
    # the parallel speedup for trending.  A speedup number from a host
    # narrower than the requested width is not a measurement of scaling
    # at all — a "t8" row recorded on a 2-core runner was 2 threads
    # timesharing 2 cores — so those rows are SKIPPED, loudly, instead
    # of reported as data.
    t1 = by_cell(records, "sharded/t1")
    for r in records:
        if not r["name"].startswith("sharded/t") or r["name"] == "sharded/t1":
            continue
        requested = int(r["name"].rsplit("t", 1)[1])
        key = (r["topology"], r["agents"])
        if r["hardware_threads"] < requested:
            print(f"SKIP {key}: {r['name']} speedup not meaningful — "
                  f"host has {r['hardware_threads']} hardware thread(s), "
                  f"row requested {requested}")
            continue
        print(f"{key}: {r['name']} speedup "
              f"{t1[key] / r['ns_per_agent_round']:.2f}x "
              f"on {r['hardware_threads']} hardware thread(s)")
    print(f"OK: perf gate passed, worst t1 ratio {worst:.3f}x")


def main(argv):
    if len(argv) != 4:
        sys.exit("usage: check_bench.py BENCH_engine.json "
                 "BENCH_campaign.json BENCH_shard.json")
    check_engine(argv[1])
    check_campaign(argv[2])
    check_shard(argv[3])


if __name__ == "__main__":
    main(sys.argv)
