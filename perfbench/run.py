#!/usr/bin/env python3
"""DCDatalog benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload tc-uniform --seed 1 --seconds 10 --trace 0

Run from the repository root. It builds the engine and `dcd` from source in
Release (perfbench/CMakeLists.txt) under $CARGO_TARGET_DIR (default
.bench_build), makes the workload's inputs from --seed, measures for
--seconds, checks every result against the benchmark's own oracles, and
prints a host header followed, as its last line, by

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs with engine tracing
and per-layer timing on and reports the per-layer metrics, writing a Chrome
trace JSON next to them. --mode and --steal pass EngineOptions through for
A/B reference runs (README.md); the default is the engine's own default.
"""

import argparse
import hashlib
import http.client
import json
import os
import random
import re
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET_DIR = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BUILD = os.path.join(TARGET_DIR, "perfbench-release")
TC_PROGRAM = os.path.join(ROOT, "examples", "queries", "tc.dl")

# Graph structure is fixed per workload (generator seed 1, like a named
# dataset); --seed relabels the vertices and shuffles the fact order, and
# draws the SSSP sources and the serving update stream. That keeps the work
# per operation comparable across seeds while the input text, the hash
# partitioning and the hot partitions all change with the seed. The gated
# workloads evaluate on one worker: on more, the engine now and then
# returns a wrong result (README.md, "Left out").
WORKLOADS = {
    "tc-uniform": {"kind": "tc", "graph": "gnp:1000:0.003", "vertices": 1000,
                   "workers": 1},
    "tc-skew": {"kind": "tc", "graph": "zipf:20000:8", "vertices": 20000,
                "workers": 4},
    "tc-updates": {"kind": "updates", "graph": "gnp:500:0.004",
                   "vertices": 500, "workers": 1},
    "sssp-serve": {"kind": "serve", "graph": "social:30000",
                   "vertices": 30000, "weights": 100, "workers": 1},
}
GRAPH_SEED = 1

# tc-uniform / tc-skew set-up is the first, cold operation of a process; it
# is measured in this many processes and reported as their median.
COLD_SETUPS = 3

# tc-updates: one round applies UPDATE_BATCHES insert batches to a fresh
# incremental session; a run repeats whole rounds. Deletes and a 4-worker
# session are left out until ApplyUpdates stops losing rows (README.md).
UPDATE_INSERTS = 3
UPDATE_BATCHES = 100

# sssp-serve: two query clients, one update client, a pool of 4 workers.
SERVE_POOL = 4
QUERY_CLIENTS = 2
SOURCES = 64
UPDATE_INTERVAL_S = 0.1
SERVE_SETUPS = 5
SSSP_PROGRAM = """% SSSP from one source (examples/queries/sssp.dl with the source bound).
.input warc
.output results
sp(To, min<C>)      :- To = {source}, C = 0.
sp(To2, min<C>)     :- sp(To1, C1), warc(To1, To2, C2), C = C1 + C2.
results(To, min<C>) :- sp(To, C).
"""

# Metric names and units are declared once, in BENCHMARK.json.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    _BENCHMARK = json.load(_f)
END_TO_END = [(m["name"], m["unit"]) for m in _BENCHMARK["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in _BENCHMARK["per_layer"]]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        fail(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return proc.stdout


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


# --- Build and host ----------------------------------------------------------


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("engine sources (src/) not found; run from a repository checkout")
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    with open(log, "w") as out:
        for cmd in (["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                     "--target", "perfbench_harness", "dcd"]):
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                with open(log) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build failed; see {log}")
    build_type = cmake_cache("CMAKE_BUILD_TYPE")
    if build_type != "Release":
        fail(f"refusing to measure a {build_type or 'unset'} build")
    return build_type


def cmake_cache(key):
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def source_digest():
    """Content hash of the engine sources, for checkouts without git."""
    h = hashlib.sha256()
    for sub in ("src", "tools", "examples/queries"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, sub)):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def host_header(build_type):
    node_dir = "/sys/devices/system/node"
    try:
        numa = len([d for d in os.listdir(node_dir) if re.fullmatch(r"node\d+", d)])
    except OSError:
        numa = 1
    commit = "none"
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True).stdout.split()
        if len(git) == 2 and os.path.realpath(git[0]) == os.path.realpath(ROOT):
            commit = git[1]
    except OSError:
        pass
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        compiler += " " + subprocess.run([compiler, "-dumpfullversion"],
                                         stdout=subprocess.PIPE, text=True).stdout.strip()
    except OSError:
        pass
    print(f"# host: nproc={len(os.sched_getaffinity(0))} numa_nodes={numa} "
          f"build={build_type} compiler={compiler.strip()} commit={commit} "
          f"sources={source_digest()}")


# --- Inputs --------------------------------------------------------------------


def make_graph(spec, out_dir, seed):
    """The workload's graph, relabelled and shuffled by `seed`."""
    base = os.path.join(out_dir, "base.txt")
    cmd = [os.path.join(BUILD, "dcd"), "generate", spec["graph"], base,
           "--seed", str(GRAPH_SEED)]
    if spec.get("weights"):
        cmd += ["--weights", str(spec["weights"])]
    run(cmd)
    rng = random.Random(seed)
    perm = list(range(spec["vertices"]))
    rng.shuffle(perm)
    edges = []
    with open(base) as f:
        for line in f:
            cols = line.split()
            edges.append((perm[int(cols[0])], perm[int(cols[1])], *cols[2:]))
    rng.shuffle(edges)
    path = os.path.join(out_dir, "edges.txt")
    with open(path, "w") as f:
        f.writelines(" ".join(map(str, e)) + "\n" for e in edges)
    return path, edges, perm


def make_update_script(edges, perm, out_dir):
    """UPDATE_BATCHES batches of UPDATE_INSERTS inserts of absent edges. Like
    the graph, the batches are drawn once on the unlabelled graph and
    relabelled by `perm`, so every seed applies the same structural
    updates."""
    inverse = {v: i for i, v in enumerate(perm)}
    present = {(inverse[int(e[0])], inverse[int(e[1])]) for e in edges}
    n = len(perm)
    rng = random.Random(GRAPH_SEED)
    batches = []
    for _ in range(UPDATE_BATCHES):
        ops = []
        for _ in range(UPDATE_INSERTS):
            while True:
                u, v = rng.randrange(n), rng.randrange(n)
                if (u, v) not in present:
                    break
            present.add((u, v))
            ops.append(f"+ arc {perm[u]} {perm[v]}")
        batches.append("\n".join(ops) + "\n")
    path = os.path.join(out_dir, "updates.txt")
    with open(path, "w") as f:
        f.write("---\n".join(batches))
    return path


# --- Per-layer metrics -----------------------------------------------------------


def derive_layers(raw):
    """Per-layer metrics from the raw per-operation medians that the harness
    (engine counters as counter.<name>, trace span totals as span_ms.<kind>)
    or serve_layers reports. A metric the workload does not exercise
    reads 0."""

    def c(name):
        return raw.get("counter." + name, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {name: raw.get(name, 0.0) for name, _ in PER_LAYER}
    out.update({
        "core.idle_wait_ms": c("idle_wait_seconds") * 1e3,
        "core.local_iterations": c("total_local_iterations"),
        "core.max_local_iterations": c("max_local_iterations"),
        "core.wait.dws_ms": raw.get("span_ms.dws_wait", 0.0),
        "core.wait.barrier_ms": raw.get("span_ms.barrier_wait", 0.0),
        "core.wait.ssp_ms": raw.get("span_ms.ssp_wait", 0.0),
        "core.wait.park_ms": raw.get("span_ms.park", 0.0),
        "core.iteration_p50_us": raw.get("iteration_p50_us", 0.0),
        "core.morsels_published": c("morsels_published"),
        "core.morsels_stolen": c("morsels_stolen"),
        "core.steal_ratio": ratio(c("morsels_stolen"), c("morsels_published")),
        "core.stolen_tuple_share": ratio(c("tuples_stolen"),
                                         c("pipeline_rows_selected")),
        "core.delta_tuples_in": c("delta_tuples_in"),
        "core.rederived_tuples": c("rederived_tuples"),
        "runtime.tuples_emitted": c("tuples_emitted"),
        "runtime.tuples_routed": c("tuples_routed"),
        "runtime.merges": c("merges"),
        "runtime.accept_ratio": ratio(c("accepts"), c("merges")),
        "runtime.cache_hit_ratio": ratio(c("cache_hits"), c("merges")),
        "runtime.probe_cmps_per_merge": ratio(c("merge_probe_cmps"), c("merges")),
        "runtime.rows_per_batch": ratio(c("pipeline_rows_selected"),
                                        c("pipeline_batches")),
        "runtime.tuples_folded": c("tuples_folded"),
        "runtime.fold_ratio": ratio(c("tuples_folded"), c("tuples_emitted")),
        "concurrent.blocks_sent": c("blocks_sent"),
        "concurrent.tuples_per_block": ratio(
            c("tuples_routed") - c("self_loop_tuples"), c("blocks_sent")),
        "concurrent.self_loop_share": ratio(c("self_loop_tuples"),
                                            c("tuples_routed")),
        "concurrent.drain_batch_p50": raw.get("drain_p50", 0.0),
    })
    return out


def metrics_block(values, units):
    return {name: {"value": values[name], "unit": unit} for name, unit in units}


# --- Batch workloads: tc-uniform, tc-skew, tc-updates ---------------------------


def engine_flags(args, spec):
    flags = ["--workers", str(args.workers or spec["workers"])]
    if args.mode:
        flags += ["--mode", args.mode]
    if args.steal:
        flags += ["--steal", args.steal]
    return flags


def run_batch(args, spec, out_dir):
    edges_path, edges, perm = make_graph(spec, out_dir, args.seed)
    harness = os.path.join(BUILD, "perfbench_harness")
    n = str(spec["vertices"])
    observed = os.path.join(out_dir, "observed.bin")
    common = ["--program", TC_PROGRAM, "--edges", edges_path, "--vertices", n,
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--observe", observed,
              "--trace-json", os.path.join(out_dir, "trace.json")]
    if spec["kind"] == "tc":
        tc = [harness, "tc", *common, "--result", os.path.join(out_dir, "tc.txt"),
              *engine_flags(args, spec)]
        setups = [last_json(run(tc + ["--measure", "0"]))["setup_s"]
                  for _ in range(COLD_SETUPS - 1)]
        measured = last_json(run(tc))
        measured["setup_s"] = statistics.median(setups + [measured["setup_s"]])
        check = [harness, "check-tc", "--edges", edges_path, "--vertices", n,
                 "--observed", observed]
    else:
        script = make_update_script(edges, perm, out_dir)
        measured = last_json(run([harness, "updates", *common, "--script",
                                  script, *engine_flags(args, spec)]))
        check = [harness, "check-updates", "--edges", edges_path, "--vertices",
                 n, "--script", script, "--observed", observed]
    verdict = last_json(subprocess.run(check, stdout=subprocess.PIPE,
                                       text=True).stdout or '{"ok": false}')
    if not verdict["ok"]:
        print(f"# check failed: {verdict.get('error')}", file=sys.stderr)
    measured["traced.op_p50_ms"] = measured["op_p50_ms"]
    return verdict["ok"], int(measured["attempted"]), 0, measured


# --- sssp-serve -------------------------------------------------------------------


class Server:
    """One `dcd serve` process over the workload's EDB."""

    def __init__(self, edges_path, out_dir):
        port_file = os.path.join(out_dir, "port")
        if os.path.exists(port_file):
            os.remove(port_file)
        self.log = open(os.path.join(out_dir, "serve.log"), "a")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [os.path.join(BUILD, "dcd"), "serve", "--rel",
             f"warc={edges_path}:iii", "--pool", str(SERVE_POOL),
             "--port-file", port_file],
            stdout=self.log, stderr=self.log)
        deadline = start + 60
        self.port = None
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                fail(f"dcd serve exited {self.proc.returncode}")
            try:
                if self.port is None:
                    with open(port_file) as f:
                        self.port = int(f.read())
                if json.loads(self.request("GET", "/healthz")[1])["status"] == "ok":
                    break
            except (OSError, ValueError):
                pass
            time.sleep(0.005)
        else:
            self.stop()
            fail("dcd serve did not become healthy")
        self.setup_s = time.perf_counter() - start

    def request(self, method, path, body=None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            conn.request(method, path, body=body)
            resp = conn.getresponse()
            return resp.status, resp.read().decode()
        finally:
            conn.close()

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        try:
            if self.port is not None:
                self.request("POST", "/shutdown")
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.log.close()


DUMP_ROW = re.compile(r"^\s*\((-?\d+), (-?\d+)\)$", re.M)


def run_serve(args, spec, out_dir):
    edges_path, edges, _ = make_graph(spec, out_dir, args.seed)
    harness = os.path.join(BUILD, "perfbench_harness")
    n = spec["vertices"]
    sources = [int(line.split()[0]) for line in run(
        [harness, "pick-sources", "--edges", edges_path, "--vertices", str(n),
         "--count", str(SOURCES), "--seed", str(args.seed)]).splitlines()]

    setups = []
    for i in range(SERVE_SETUPS):
        server = Server(edges_path, out_dir)
        setups.append(server.setup_s)
        if i + 1 < SERVE_SETUPS:
            server.stop()
    try:
        initial_version = json.loads(server.request("GET", "/healthz")[1])[
            "store_version"]
        workers = args.workers or spec["workers"]
        queries, updates, errors = drive_serve(server, args, sources, edges,
                                               workers)
        layer_raw = {}
        if args.trace:
            layer_raw = serve_layers(server, queries, updates)
            layer_raw["storage.load_ms"] = last_json(run(
                [harness, "load", "--edges", edges_path, "--spec", "iii",
                 "--reps", "5"]))["storage.load_ms"]
            write_client_trace(os.path.join(out_dir, "trace.json"), queries,
                               updates)
        peak_rss = server.peak_rss_mb()
    finally:
        server.stop()

    log_path = os.path.join(out_dir, "sssp.log")
    with open(log_path, "w") as f:
        f.write(f"initial {initial_version}\n")
        for u in updates:
            f.write(f"update {u['version']} {len(u['ops'])}\n")
            f.writelines(op + "\n" for op in u["ops"])
        for q in queries:
            f.write(f"query {q['source']} {q['version']} {q['rows']} "
                    f"{len(q['dump'])}\n")
            f.writelines(f"{v} {d}\n" for v, d in q["dump"])
    verdict = last_json(subprocess.run(
        [harness, "check-sssp", "--edges", edges_path, "--vertices", str(n),
         "--log", log_path], stdout=subprocess.PIPE, text=True).stdout
        or '{"ok": false}')
    if not verdict["ok"]:
        print(f"# check failed: {verdict.get('error')}", file=sys.stderr)

    latencies = [q["ms"] for q in queries]
    # The timed phase ends when the last query in flight at the deadline
    # completes.
    start = min(x["span"][0] for x in queries + updates)
    end = max(q["span"][1] for q in queries)
    measured = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": statistics.median(latencies),
        "ops_per_s": len(queries) / (end - start),
        "peak_rss_mb": peak_rss,
    }
    measured.update(layer_raw)
    if args.trace:
        measured["traced.op_p50_ms"] = measured["op_p50_ms"]
    return verdict["ok"], len(queries) + errors, errors, measured


def drive_serve(server, args, sources, edges, workers):
    """Closed loop: QUERY_CLIENTS clients POST SSSP queries back to back
    while one more client POSTs an update batch every UPDATE_INTERVAL_S."""
    rng = random.Random(args.seed * 104729 + 3)
    client_seeds = [rng.randrange(1 << 30) for _ in range(QUERY_CLIENTS)]
    live = list(dict.fromkeys(tuple(map(int, e)) for e in edges))
    present = set(live)
    queries, updates, update_errors = [], [], []
    errors = [0]
    lock = threading.Lock()
    start = time.perf_counter()
    stop_at = start + args.seconds

    def query_client(client, seed):
        crng = random.Random(seed)
        while time.perf_counter() < stop_at:
            source = crng.choice(sources)
            t0 = time.perf_counter()
            try:
                status, body = server.request(
                    "POST", f"/query?workers={workers}&dump=results",
                    SSSP_PROGRAM.format(source=source))
            except OSError:  # Includes the client's timeout.
                status, body = 0, ""
            t1 = time.perf_counter()
            ms = (t1 - t0) * 1e3
            if status != 200:
                with lock:
                    errors[0] += 1
                continue
            resp = json.loads(body)
            with lock:
                queries.append({
                    "source": source, "ms": ms, "span": (t0, t1, client),
                    "session": resp["session"],
                    "version": resp["snapshot_version"],
                    "rows": resp["outputs"]["results"],
                    "seconds": resp["seconds"],
                    "admitted": resp["admitted_immediately"],
                    "dump": [(int(v), int(d)) for v, d in
                             DUMP_ROW.findall(resp.get("dump", ""))]})

    def update_client():
        urng = random.Random(rng.randrange(1 << 30))
        k = 0
        while True:
            due = start + k * UPDATE_INTERVAL_S
            if due >= stop_at:
                return
            time.sleep(max(0.0, due - time.perf_counter()))
            k += 1
            ops = []
            for _ in range(2):
                e = (urng.randrange(n), urng.randrange(n), urng.randint(1, 100))
                if e not in present:
                    present.add(e)
                    live.append(e)
                ops.append("+ warc %d %d %d" % e)
            i = urng.randrange(len(live))
            live[i], live[-1] = live[-1], live[i]
            e = live.pop()
            present.discard(e)
            ops.append("- warc %d %d %d" % e)
            t0 = time.perf_counter()
            try:
                status, body = server.request("POST", "/update",
                                              "\n".join(ops) + "\n")
            except OSError as e:
                status, body = 0, str(e)
            t1 = time.perf_counter()
            if status != 200:
                update_errors.append(f"/update returned {status}: {body}")
                return
            updates.append({"version": json.loads(body)["version"], "ops": ops,
                            "ms": (t1 - t0) * 1e3,
                            "span": (t0, t1, QUERY_CLIENTS)})

    n = max(max(int(e[0]), int(e[1])) for e in edges) + 1
    threads = [threading.Thread(target=query_client, args=(i, s))
               for i, s in enumerate(client_seeds)]
    threads.append(threading.Thread(target=update_client))
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if update_errors:
        fail(update_errors[0])
    return queries, updates, errors[0]


def write_client_trace(path, queries, updates):
    """The clients' spans as Chrome trace JSON: one track per query client
    (args name the server session, whose engine trace is served at
    /sessions/<id>/trace) and one for the update client."""
    t0 = min(x["span"][0] for x in queries + updates)
    events = [{"name": "thread_name", "ph": "M", "pid": 0, "tid": i,
               "args": {"name": f"query client {i}"}}
              for i in range(QUERY_CLIENTS)]
    events.append({"name": "thread_name", "ph": "M", "pid": 0,
                   "tid": QUERY_CLIENTS, "args": {"name": "update client"}})
    for name, items in (("server.query", queries), ("server.update", updates)):
        for x in items:
            start, end, tid = x["span"]
            events.append({"name": name, "ph": "X", "pid": 0, "tid": tid,
                           "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
                           "args": {"session": x.get("session"),
                                    "version": x["version"]}})
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


def serve_layers(server, queries, updates):
    """Server-side per-layer medians: client vs session timings, the
    sessions' own counters and trace waits, and the server's counters."""
    med = statistics.median
    raw = {
        "server.query_ms": med(q["ms"] for q in queries),
        "server.session_eval_ms": med(q["seconds"] * 1e3 for q in queries),
        "server.overhead_ms": med(q["ms"] - q["seconds"] * 1e3 for q in queries),
        "server.admitted_immediately_share":
            sum(q["admitted"] for q in queries) / len(queries),
        "server.update_ms": med(u["ms"] for u in updates) if updates else 0.0,
        "server.snapshot_versions": len({q["version"] for q in queries}),
        "core.eval_ms": med(q["seconds"] * 1e3 for q in queries),
    }
    metrics = json.loads(server.request("GET", "/metrics")[1])
    raw["server.pool_fallback_gangs"] = metrics["pool"]["fallback_gangs"]
    per_session = {}
    for q in queries:
        status, body = server.request("GET", f"/sessions/{q['session']}/metrics")
        if status == 200:
            for name, value in json.loads(body)["counters"].items():
                per_session.setdefault("counter." + name, []).append(value)
        status, body = server.request("GET", f"/sessions/{q['session']}/trace")
        if status == 200:
            waits = {"park": 0.0, "barrier_wait": 0.0, "ssp_wait": 0.0,
                     "dws_wait": 0.0}
            iteration_us, drains = [], []
            for ev in json.loads(body)["traceEvents"]:
                if ev.get("name") in waits and "dur" in ev:
                    waits[ev["name"]] += ev["dur"] * 1e-3
                elif ev.get("name") == "iteration" and "dur" in ev:
                    iteration_us.append(ev["dur"])
                elif ev.get("name") == "drain":
                    drains.append(ev["args"]["tuples"])
            for kind, ms in waits.items():
                per_session.setdefault("span_ms." + kind, []).append(ms)
            if iteration_us:
                per_session.setdefault("iteration_p50_us", []).append(
                    med(iteration_us))
            if drains:
                per_session.setdefault("drain_p50", []).append(med(drains))
    raw.update({k: med(v) for k, v in per_session.items()})
    return raw


# --- Main ------------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("dws", "global", "ssp"))
    parser.add_argument("--steal", choices=("on", "off"))
    parser.add_argument("--workers", type=int)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    build_type = build()
    host_header(build_type)
    spec = WORKLOADS[args.workload]
    out_dir = os.path.join(TARGET_DIR, "out", f"{args.workload}-{args.seed}")
    os.makedirs(out_dir, exist_ok=True)
    if spec["kind"] == "serve":
        correct, attempted, failed, measured = run_serve(args, spec, out_dir)
    else:
        correct, attempted, failed, measured = run_batch(args, spec, out_dir)

    if args.trace:
        layers = derive_layers(measured)
        metrics = metrics_block(layers, PER_LAYER)
        trace_json = os.path.join(out_dir, "trace.json")
        if os.path.exists(trace_json):
            print(f"# chrome trace: {trace_json}")
    else:
        metrics = metrics_block(measured, END_TO_END)
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
