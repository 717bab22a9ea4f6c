#!/usr/bin/env python3
"""End-to-end checks of the four CLIs, one subcommand per area.

The library suites test each layer inside one process.  These checks
drive the built binaries the way a user does and pin the contracts only
the command line shows: artifact schemas, campaign journals that resume
to the same bytes after a cap, SIGKILL or SIGTERM, a daemon whose warm
answer equals its cold one byte for byte, telemetry that leaves result
documents untouched, and the dynamics surface.

  app_checks.py {scenario|campaign|serve|obs|dynamics} --run=PATH
      --sweep=PATH --serve=PATH --query=PATH --work=DIR
  app_checks.py selftest

tests/CMakeLists.txt registers each subcommand as the ctest test
app_<name>, with its own --work directory under the build tree (emptied
first, kept afterwards for inspection).  `selftest` feeds every
validate_* function a good and a known-bad input, so a validator that
checks nothing cannot pass.  Every process a check starts is stopped
before the check returns, also when the check fails.
"""

import argparse
import contextlib
import copy
import ctypes
import csv
import itertools
import json
import pathlib
import re
import shutil
import signal
import subprocess
import sys
import time

ENGINES = ["single", "sharded", "vector"]
FAMILIES = ["torus2d:24x24", "ring:600", "hypercube:9", "toruskd:3x9",
            "complete:512", "expander:d=8,n=512,seed=7",
            "rgg2d:n=4096,r=0.025,seed=7", "gnp:n=600,p=0.013,seed=7",
            "ba:n=600,d=4,seed=7"]
WORKLOADS = ["density", "property", "trajectory", "local-density"]
WAIT_S = 30  # budget for a daemon banner, a first journal record or an exit


# --- processes ---------------------------------------------------------------

def die_with_parent():
    """ctest ends a timed-out test with SIGKILL, which runs no finally
    block; on Linux the kernel then kills this child too."""
    ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG


CHILD = {"preexec_fn": die_with_parent if sys.platform == "linux" else None}


def run(*argv, status=0):
    """Runs a CLI to completion; checks its exit status unless None."""
    proc = subprocess.run([str(a) for a in argv], capture_output=True,
                          encoding="utf-8", **CHILD)
    assert status is None or proc.returncode == status, (
        f"{argv} exited {proc.returncode}, want {status}\n{proc.stderr}")
    return proc


@contextlib.contextmanager
def started(argv, **popen_args):
    """A background process, killed on exit if it is still running."""
    proc = subprocess.Popen([str(a) for a in argv], **popen_args, **CHILD)
    try:
        yield proc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def wait_for(condition):
    deadline = time.monotonic() + WAIT_S
    while not condition():
        assert time.monotonic() < deadline, f"timed out after {WAIT_S} s"
        time.sleep(0.01)


@contextlib.contextmanager
def daemon(bins, journal, log_path):
    """antdense_serve on a free port; yields (process, port)."""
    with open(log_path, "w", encoding="utf-8") as log, \
            started([bins.serve, f"--journal={journal}", "--port=0"],
                    stdout=log) as proc:
        wait_for(lambda: "listening on" in log_path.read_text("utf-8")
                 or proc.poll() is not None)
        port = re.search(r"listening on 127\.0\.0\.1:(\d+)",
                         log_path.read_text("utf-8"))
        assert port, f"no port in {log_path}"
        yield proc, port.group(1)


def stopped(proc, how):
    """Ends a daemon with a signal or a shutdown request; checks it exits 0."""
    how()
    assert proc.wait(timeout=WAIT_S) == 0, f"daemon exited {proc.returncode}"


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def load_jsonl(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def load_csv(path):
    with open(path, encoding="utf-8", newline="") as f:
        return list(csv.DictReader(f))


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def without_wall_clock(doc):
    doc.pop("elapsed_seconds", None)
    doc.pop("elapsed_ns", None)
    return doc


# --- validators (each one has a selftest case) -------------------------------

def validate_scenario_artifacts(docs):
    """antdense.scenario.v1 documents keyed ENGINE-FAMILY-WORKLOAD.json."""
    assert len(docs) == 108, f"expected 108 artifacts, got {len(docs)}"
    for name, doc in docs.items():
        assert doc["schema"] == "antdense.scenario.v1", name
        assert doc["rounds"] > 0, name
        assert doc["num_nodes"] > 0, name
        assert doc["workload"] in WORKLOADS, name
        assert doc["summary"]["count"] > 0, name
        assert len(doc["estimates"]) == doc["summary"]["count"], name
        assert doc["spec"]["topology"].count(":") >= 1, name
        assert doc["spec"]["engine"] in ENGINES, name
    engines = {doc["spec"]["engine"] for doc in docs.values()}
    assert engines == set(ENGINES), engines
    families = {name.split("-")[1] for name in docs}
    assert {"rgg2d", "gnp", "ba"} <= families, families


def validate_journal(records, count):
    """antdense.campaign.v1 records of a sharded-engine campaign."""
    assert len(records) == count, f"expected {count} records, got {len(records)}"
    for r in records:
        assert r["schema"] == "antdense.campaign.v1", r
        assert len(r["id"]) == 16, r
        assert "threads" not in r["spec"], r
        assert r["spec"]["engine"] == "sharded", r
        assert r["result"]["summary"]["count"] > 0, r


def validate_aggregate_csv(rows, groups):
    assert len(rows) == groups, f"expected {groups} groups, got {len(rows)}"
    for row in rows:
        assert row["experiments"] == "1", row
        assert float(row["mean_rel_error"]) >= 0, row
        assert row["envelope_met"] in {"true", "false"}, row


def validate_aggregate_json(doc, keys, records):
    """One experiment per group, each grouped by exactly `keys`."""
    assert doc["schema"] == "antdense.campaign.aggregate.v1", doc
    assert doc["records"] == records, doc
    assert len(doc["groups"]) == records, doc
    for g in doc["groups"]:
        assert set(g["key"]) == set(keys), g
        assert g["experiments"] == 1, g
        assert g["mean_rel_error"] >= 0, g
        assert g["envelope"] is None or "met" in g["envelope"], g


PROM_SERIES = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$")


def prom_series_key(name, labels):
    """One bucket chain per labeled series: the family plus its labels
    without the le pair."""
    pairs = [p for p in (labels or "{}")[1:-1].split(",")
             if p and not p.startswith('le="')]
    return name + ("{" + ",".join(pairs) + "}" if pairs else "")


def validate_prometheus(text, want_families):
    """Prometheus text exposition: well-formed series lines, the wanted
    TYPE families, and cumulative histograms whose +Inf bucket is _count."""
    typed = set()
    buckets = {}  # series key -> [(le, cumulative count)]
    counts = {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            typed.add(line.split()[2])
        if not line or line.startswith("#"):
            continue
        m = PROM_SERIES.match(line)
        assert m, f"malformed series line: {line!r}"
        name, labels, value = m.groups()
        float(value)
        if name.endswith("_bucket") and labels:
            le = re.search(r'le="([^"]+)"', labels)
            assert le, f"bucket without le: {line!r}"
            buckets.setdefault(prom_series_key(name[:-7], labels), []).append(
                (le.group(1), int(value)))
        elif name.endswith("_count"):
            counts[prom_series_key(name[:-6], labels)] = int(value)
    assert not want_families - typed, f"families missing: {want_families - typed}"
    assert buckets, "no histogram buckets at all"
    for key, chain in buckets.items():
        cums = [cum for _, cum in chain]
        assert cums == sorted(cums) and cums[0] >= 0, f"{key} not cumulative"
        assert chain[-1][0] == "+Inf", f"{key} has no +Inf bucket"
        assert chain[-1][1] == counts[key], f"{key}: +Inf != _count"


def validate_metrics_json(doc):
    """Ordered JSON metrics snapshot: histograms are self-consistent."""
    for key, series in doc.items():
        if series["type"] == "histogram":
            assert len(series["buckets"]) == len(series["upper_bounds"]) + 1, key
            assert sum(series["buckets"]) == series["count"], key


def validate_trace(doc):
    """Chrome trace-event JSON of complete ("X") spans."""
    events = doc["traceEvents"]
    assert events, "no trace events"
    assert doc["displayTimeUnit"] == "ms", doc["displayTimeUnit"]
    for e in events:
        assert e["ph"] == "X", e
        assert isinstance(e["name"], str) and e["name"], e
        assert isinstance(e["cat"], str), e
        assert e["ts"] >= 0 and e["dur"] >= 0, e
        assert "pid" in e and "tid" in e, e


# --- the checks ----------------------------------------------------------------

def check_scenario(bins, work):
    """Every workload on every topology family on every engine."""
    for engine, topo, workload in itertools.product(ENGINES, FAMILIES,
                                                    WORKLOADS):
        # trajectory and local-density record one walk
        trials = 2 if workload in ("density", "property") else 1
        slug = f"{engine}-{topo.split(':')[0]}-{workload}"
        run(bins.run, f"--topology={topo}", f"--workload={workload}",
            f"--engine={engine}", "--threads=2", "--agents=60", "--rounds=40",
            f"--trials={trials}", "--quiet", f"--out={work / slug}.json")
    validate_scenario_artifacts(
        {p.name: load_json(p) for p in sorted(work.glob("*.json"))})


def interrupted(bins, campaign, journal, sig):
    """Starts a one-worker run, signals it once its first record is on
    disk, and returns (exit status, journal lines incl. a torn tail)."""
    with started([bins.sweep, "run", f"--campaign={campaign}",
                  f"--journal={journal}", "--threads=1"],
                 stdout=subprocess.DEVNULL) as proc:
        wait_for(lambda: (journal.exists() and journal.stat().st_size > 0)
                 or proc.poll() is not None)
        proc.send_signal(sig)
        status = proc.wait(timeout=WAIT_S)
    lines = [line for line in journal.read_bytes().split(b"\n") if line]
    return status, len(lines)


def check_campaign(bins, work):
    """A 2x2x2 grid resumes to the reference journal after a
    --max-experiments cap, a SIGKILL and a SIGTERM; aggregates validate."""
    campaign = write_json(work / "campaign.json", {
        "name": "ci-smoke", "seed": 7,
        "base": {"workload": "density", "engine": "sharded", "trials": 2},
        "axes": [
            {"kind": "grid", "key": "topology",
             "values": ["torus2d:24x24", "ring:600"]},
            {"kind": "grid", "key": "agents", "values": [200, 400]},
            {"kind": "grid", "key": "rounds", "values": [8000, 16000]}]})

    def sweep(*args, status=0):
        return run(bins.sweep, *args, status=status)

    spec = f"--campaign={campaign}"
    sweep("expand", spec, "--dry-run")
    # The reference uses within-experiment threads: the journal must not
    # depend on them.
    sweep("run", spec, f"--journal={work / 'full.jsonl'}", "--threads=2",
          "--inner-threads=2", "--quiet")

    capped = f"--journal={work / 'capped.jsonl'}"
    sweep("run", spec, capped, "--max-experiments=3", "--quiet", status=3)
    sweep("resume", spec, capped, "--quiet")

    # SIGKILL may leave a torn last line; re-running must finish from it.
    _, complete = interrupted(bins, campaign, work / "killed.jsonl",
                              signal.SIGKILL)
    assert complete < 8, f"the kill landed after all {complete} records"
    sweep("run", spec, f"--journal={work / 'killed.jsonl'}", "--quiet")

    # SIGTERM is graceful: in-flight experiments journal, then exit 3.
    status, complete = interrupted(bins, campaign, work / "termed.jsonl",
                                   signal.SIGTERM)
    assert status == 3, f"SIGTERM exit {status}, want 3"
    assert complete < 8, f"SIGTERM landed after all {complete} records"
    sweep("resume", spec, f"--journal={work / 'termed.jsonl'}", "--quiet")

    reference = sorted((work / "full.jsonl").read_bytes().splitlines())
    for name in ("capped", "killed", "termed"):
        resumed = sorted((work / f"{name}.jsonl").read_bytes().splitlines())
        assert resumed == reference, f"{name}.jsonl differs from full.jsonl"

    # An axis over implicit gnp specs canonicalizes, hashes and journals
    # like an explicit family.
    gnp = write_json(work / "gnp-axis.json", {
        "name": "ci-smoke-gnp", "seed": 11,
        "base": {"workload": "density", "engine": "sharded", "trials": 2,
                 "rounds": 400},
        "axes": [
            {"kind": "grid", "key": "topology",
             "values": ["gnp:n=400,p=0.02,seed=3", "gnp:n=400,p=0.05,seed=3"]},
            {"kind": "grid", "key": "agents", "values": [40, 80]}]})
    sweep("run", f"--campaign={gnp}", f"--journal={work / 'gnp-axis.jsonl'}",
          "--threads=2", "--quiet")
    records = load_jsonl(work / "gnp-axis.jsonl")
    validate_journal(records, 4)
    for r in records:
        topo = r["spec"]["topology"]
        assert topo.startswith("gnp:n=400,p=0.0") and topo.endswith(",seed=3"), r
        assert r["result"]["num_nodes"] == 400, r

    sweep("aggregate", f"--journal={work / 'full.jsonl'}",
          "--group-by=family,agents,rounds", f"--csv={work / 'aggregate.csv'}",
          f"--json={work / 'aggregate.json'}")
    validate_journal(load_jsonl(work / "full.jsonl"), 8)
    validate_aggregate_csv(load_csv(work / "aggregate.csv"), 8)
    validate_aggregate_json(load_json(work / "aggregate.json"),
                            {"family", "agents", "rounds"}, 8)


def query_run(bins, port, spec, out):
    """A canonical `antdense_query run`; returns its cache_hit flag."""
    proc = run(bins.query, "run", f"--port={port}", f"--spec={spec}",
               "--canonical", f"--out={out}")
    hit = re.search(r"cache_hit=(true|false)", proc.stderr)
    assert hit, proc.stderr
    return hit.group(1) == "true"


def cache_stats(bins, port):
    stats = run(bins.query, "cache-stats", f"--port={port}").stdout
    return json.loads(stats)["stats"]


def check_serve(bins, work):
    """Cold miss, byte-identical warm hit, a direct-run match, and a warm
    restart from the journal after SIGTERM."""
    spec = write_json(work / "spec.json", {
        "topology": "torus2d:24x24", "workload": "density", "agents": 60,
        "rounds": 400, "trials": 2, "seed": 7})
    spec8 = write_json(work / "spec8.json", dict(load_json(spec), seed=8))
    run(bins.run, f"--spec={spec}", "--threads=2", "--quiet",
        f"--out={work / 'direct.json'}")
    cold, warm, other = (work / f"{n}.json" for n in ("cold", "warm", "other"))
    journal = work / "cache.jsonl"

    with daemon(bins, journal, work / "daemon1.log") as (proc, port):
        assert not query_run(bins, port, spec, cold), "cold request hit"
        assert query_run(bins, port, spec, warm), "repeat request missed"
        assert warm.read_bytes() == cold.read_bytes(), "warm != cold bytes"
        # A different seed is a different identity: a fresh miss.
        assert not query_run(bins, port, spec8, other), "seed 8 hit"
        assert other.read_bytes() != cold.read_bytes(), "seed 8 == seed 7"
        stats = cache_stats(bins, port)
        assert stats["hits_total"] >= 1 and stats["executions"] == 2, stats
        stopped(proc, lambda: proc.send_signal(signal.SIGTERM))
    assert "shutting down" in (work / "daemon1.log").read_text("utf-8")

    # The daemon strips the wall-clock fields and the threads knob (a
    # resource knob, never identity) from its canonical payload.
    direct, served = (without_wall_clock(load_json(p))
                      for p in (work / "direct.json", cold))
    for doc in (direct, served):
        doc.get("spec", {}).pop("threads", None)
    assert direct == served, "daemon result diverges from antdense_run"

    restarted = work / "restarted.json"
    with daemon(bins, journal, work / "daemon2.log") as (proc, port):
        assert "2 warm result(s)" in (work / "daemon2.log").read_text("utf-8")
        assert query_run(bins, port, spec, restarted), "restart missed"
        assert restarted.read_bytes() == cold.read_bytes(), "restart != cold"
        stats = cache_stats(bins, port)
        assert (stats["warm_loaded"], stats["hits_disk"],
                stats["executions"]) == (2, 1, 0), stats
        stopped(proc, lambda: run(bins.query, "shutdown", f"--port={port}"))
    assert "shutdown requested" in (work / "daemon2.log").read_text("utf-8")


def check_obs(bins, work):
    """Metrics and trace exports from run, sweep and the daemon, and
    telemetry that leaves the result document unchanged."""
    density = ["--workload=density", "--agents=100", "--rounds=400",
               "--trials=2", "--seed=7", "--quiet"]
    run(bins.run, "--topology=torus2d:24x24", *density,
        f"--out={work / 'instrumented.json'}",
        f"--metrics-out={work / 'run.prom'}",
        f"--trace-out={work / 'run.trace.json'}")
    run(bins.run, "--topology=torus2d:24x24", *density,
        f"--out={work / 'plain.json'}")
    # A .json --metrics-out switches to the JSON snapshot.
    run(bins.run, "--topology=ring:600", "--engine=vector", *density,
        f"--out={work / 'vector.json'}",
        f"--metrics-out={work / 'run.metrics.json'}")
    assert (without_wall_clock(load_json(work / "instrumented.json")) ==
            without_wall_clock(load_json(work / "plain.json"))), \
        "telemetry changed the result document"

    campaign = write_json(work / "campaign.json", {
        "name": "obs-smoke", "seed": 7,
        "base": {"workload": "density", "engine": "sharded", "trials": 2,
                 "agents": 200},
        "axes": [
            {"kind": "grid", "key": "topology",
             "values": ["torus2d:24x24", "ring:600"]},
            {"kind": "grid", "key": "rounds", "values": [4000, 8000]}]})
    sweep = run(bins.sweep, "run", f"--campaign={campaign}",
                f"--journal={work / 'sweep.jsonl'}", "--threads=1", "--quiet",
                "--progress-interval=100", f"--metrics-out={work / 'sweep.prom'}",
                f"--trace-out={work / 'sweep.trace.json'}")
    assert re.search(r"antdense_sweep: progress [0-9]+/4 \(", sweep.stderr), \
        f"no progress heartbeat on stderr:\n{sweep.stderr}"

    validate_prometheus((work / "run.prom").read_text("utf-8"), {
        "antdense_engine_rounds_total", "antdense_engine_agent_steps_total",
        "antdense_engine_phase_seconds", "antdense_collisions_observed_total"})
    validate_prometheus((work / "sweep.prom").read_text("utf-8"), {
        "antdense_campaign_experiments_total",
        "antdense_campaign_journal_bytes_total",
        "antdense_campaign_experiment_seconds", "antdense_engine_rounds_total"})

    snapshot = load_json(work / "run.metrics.json")
    validate_metrics_json(snapshot)
    rounds = snapshot['antdense_engine_rounds_total{engine="vector"}']
    # 400 rounds x 2 trials on the vector engine
    assert (rounds["type"], rounds["value"]) == ("counter", 800), rounds

    validate_trace(load_json(work / "run.trace.json"))
    sweep_trace = load_json(work / "sweep.trace.json")
    validate_trace(sweep_trace)
    names = {e["name"] for e in sweep_trace["traceEvents"]}
    assert {"experiment", "journal-append"} <= names, names

    spec = write_json(work / "spec.json", {
        "topology": "ring:600", "workload": "density", "agents": 60,
        "rounds": 400, "trials": 2, "seed": 7})
    with daemon(bins, work / "cache.jsonl", work / "daemon.log") as (proc, port):
        run(bins.query, "run", f"--port={port}", f"--spec={spec}",
            f"--out={work / 'served.json'}")
        live = run(bins.query, "metrics", f"--port={port}").stdout
        assert re.search(r'antdense_serve_requests_total\{type="run"\} 1',
                         live), live
        assert re.search(r"antdense_cache_misses_total 1", live), live
        live = json.loads(run(bins.query, "metrics", f"--port={port}",
                              "--json").stdout)
        assert live['antdense_serve_requests_total{type="run"}']["value"] == 1
        assert "antdense_cache_entries" in live, sorted(live)[:10]
        stopped(proc, lambda: run(bins.query, "shutdown", f"--port={port}"))


def check_dynamics(bins, work):
    """The dynamics registry surface, a churned walk on every engine, and
    a churn-rate sweep whose error responds to churn."""
    listing = run(bins.run, "--list-dynamics").stdout
    for model in ("churn", "drift", "fade"):
        assert re.search(rf"^{model}\b", listing, re.M), listing
    unknown = run(bins.run, "--topology=ring:64", "--workload=density",
                  "--agents=8", "--rounds=4", "--dynamics=quake:p=0.1",
                  status=None)
    assert unknown.returncode != 0, "an unknown dynamics model ran"
    assert ("unknown dynamics model 'quake' (known: churn, drift, fade)"
            in unknown.stderr), unknown.stderr
    for engine in ENGINES:
        run(bins.run, "--topology=ring:64", "--workload=density",
            "--agents=8", "--rounds=4", f"--engine={engine}",
            "--dynamics=churn:p_edge=0.1,p_fail=0.1", "--quiet",
            f"--out={work / f'churn-{engine}.json'}")

    calm = "churn:p_edge=0,p_fail=0"
    storm = "churn:p_edge=0.032,p_fail=0.016"
    campaign = write_json(work / "churn.json", {
        "name": "ci-churn-smoke", "seed": 17,
        "base": {"topology": "torus2d:24x24", "workload": "density",
                 "engine": "sharded", "agents": 64, "rounds": 1200,
                 "trials": 3},
        "axes": [{"kind": "grid", "key": "dynamics",
                  "values": [calm, "churn:p_edge=0.001,p_fail=0.0005",
                             "churn:p_edge=0.008,p_fail=0.004", storm]}]})
    canonical = ",mean_down=10,seed=0"  # the defaults made explicit
    journal = work / "churn.jsonl"
    run(bins.sweep, "run", f"--campaign={campaign}", f"--journal={journal}",
        "--threads=2", "--quiet")
    run(bins.sweep, "aggregate", f"--journal={journal}", "--group-by=dynamics",
        f"--csv={work / 'churn.aggregate.csv'}",
        f"--json={work / 'churn.aggregate.json'}")
    records = load_jsonl(journal)
    validate_journal(records, 4)
    for r in records:
        dyn = r["spec"]["dynamics"]
        assert dyn.startswith("churn:p_edge=") and dyn.endswith(canonical), \
            f"non-canonical: {dyn}"
    validate_aggregate_csv(load_csv(work / "churn.aggregate.csv"), 4)
    doc = load_json(work / "churn.aggregate.json")
    validate_aggregate_json(doc, {"dynamics"}, 4)
    error = {g["key"]["dynamics"]: g["mean_rel_error"] for g in doc["groups"]}
    assert error[storm + canonical] > error[calm + canonical], \
        f"heavy churn should degrade accuracy: {error}"


# --- selftest ------------------------------------------------------------------

def selftest_cases():
    """(validator, good args, mutation that makes them bad) per validator."""
    def scenario_doc(engine, workload):
        return {"schema": "antdense.scenario.v1", "rounds": 40,
                "num_nodes": 64, "workload": workload,
                "summary": {"count": 2}, "estimates": [0.1, 0.2],
                "spec": {"topology": "ring:64", "engine": engine}}
    scenarios = {f"{e}-{f.split(':')[0]}-{w}.json": scenario_doc(e, w)
                 for e, f, w in itertools.product(ENGINES, FAMILIES, WORKLOADS)}
    record = {"schema": "antdense.campaign.v1", "id": "0123456789abcdef",
              "spec": {"engine": "sharded"},
              "result": {"summary": {"count": 2}}}
    row = {"experiments": "1", "mean_rel_error": "0.1", "envelope_met": "true"}
    aggregate = {"schema": "antdense.campaign.aggregate.v1", "records": 1,
                 "groups": [{"key": {"family": "ring", "agents": 8},
                             "experiments": 1, "mean_rel_error": 0.1,
                             "envelope": None}]}
    prom = ("# TYPE x_total counter\nx_total 3\n# TYPE h histogram\n"
            'h_bucket{le="1"} 1\nh_bucket{le="2"} 2\nh_bucket{le="+Inf"} 2\n'
            "h_sum 2.5\nh_count 2\n")
    snapshot = {"h": {"type": "histogram", "upper_bounds": [1.0],
                      "buckets": [1, 1], "count": 2}}
    trace = {"displayTimeUnit": "ms", "traceEvents": [
        {"ph": "X", "name": "run", "cat": "engine", "ts": 0, "dur": 5,
         "pid": 1, "tid": 1}]}
    return [
        (validate_scenario_artifacts, [scenarios],
         lambda a: a[0]["single-ring-density.json"].pop("schema")),
        (validate_journal, [[record], 1],
         lambda a: a[0][0].update(id="0123456789abcde")),
        (validate_aggregate_csv, [[row], 1],
         lambda a: a[0][0].update(envelope_met="maybe")),
        (validate_aggregate_json, [aggregate, {"family", "agents"}, 1],
         lambda a: a[0]["groups"][0]["key"].pop("agents")),
        (validate_prometheus, [prom, {"x_total"}],
         lambda a: a.__setitem__(0, a[0].replace('le="2"} 2', 'le="2"} 0'))),
        (validate_metrics_json, [snapshot],
         lambda a: a[0]["h"].update(count=3)),
        (validate_trace, [trace],
         lambda a: a[0]["traceEvents"][0].update(ph="B")),
    ]


def selftest():
    cases = selftest_cases()
    untested = ({name for name in globals() if name.startswith("validate_")}
                - {validate.__name__ for validate, _, _ in cases})
    assert not untested, f"validators without a selftest case: {untested}"
    for validate, good, break_it in cases:
        validate(*copy.deepcopy(good))
        bad = copy.deepcopy(good)
        break_it(bad)
        try:
            validate(*bad)
        except Exception:
            continue
        raise AssertionError(f"{validate.__name__} accepted a known-bad input")


CHECKS = {"scenario": check_scenario, "campaign": check_campaign,
          "serve": check_serve, "obs": check_obs, "dynamics": check_dynamics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("check", choices=[*CHECKS, "selftest"])
    for binary in ("run", "sweep", "serve", "query"):
        parser.add_argument(f"--{binary}", type=pathlib.Path,
                            help=f"path to antdense_{binary}")
    parser.add_argument("--work", type=pathlib.Path,
                        help="scratch directory, emptied first")
    args = parser.parse_args()
    if args.check == "selftest":
        selftest()
    else:
        shutil.rmtree(args.work, ignore_errors=True)
        args.work.mkdir(parents=True)
        CHECKS[args.check](args, args.work)
    print(f"OK: app_checks.py {args.check}")


if __name__ == "__main__":
    sys.exit(main())
