#!/usr/bin/env python3
"""Serving benchmark of `nsky serve`: read_full, mutate_full, restore_full.

    python3 servebench/run.py --workload read_full --seed 1 --seconds 25 --trace 0
    python3 servebench/run.py --smoke --workload mutate_full --seed 1 --seconds 2 --trace 1

Run from the root of the source tree. The first run builds the program and
the benchmark's tools into .bench_build/ (servebench/CMakeLists.txt).

One harness process drives the real `nsky serve` binary over loopback with
at most two closed-loop client threads (every caller waits for its reply).
The server runs --server-threads 2 --max-inflight 2, so a 429 is a failure.
All inputs -- the edge list, the update scripts and, for restore_full, the
snapshot file -- are made from --seed before any timing starts. Each server
process replays its own update script from epoch 0, and every workload
spreads its timed work over several server processes, because a process's
speed on this machine varies by up to 40 % from one start to the next; the
gated latencies and rate are per-process figures averaged over them.

--trace 0 prints the end-to-end metrics. --trace 1 splits --seconds between
an untraced and a traced pass of the workload (the traced one keeps harness
spans), runs sb_layers for the per-layer metrics and prints those. Every
response is checked against a cold core::Solve of the graph at its epoch
(sb_oracle). The last stdout line is the JSON result; README.md explains
the workloads and metrics.
"""

import argparse
import bisect
import hashlib
import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave nothing behind in the source tree
from inputs import Inputs, script_text, write_scripts  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("read_full", "mutate_full", "restore_full")
INITIAL = (-1, 0)  # the graph every script starts from
READ_REQUEST = (b"GET /v1/skyline?algo=filter-refine&threads=1 HTTP/1.1\r\n"
                b"Host: 127.0.0.1\r\n\r\n")

# Fixed counts of one run; "smoke" shrinks them for the benchmark's tests.
#   segments        read_full and mutate_full: server processes per run,
#                   each serving 1/segments of --seconds
#   restarts        extra cold starts per segment, for setup_s
#   probe           read_full: write/read-back rounds per segment
#   max_rounds      mutate_full: write/read rounds a segment may reach
#   restore_reads, restore_writes   restore_full: per restart
#   restore_scripts most restarts a restore_full run can make
#   layer_*         sb_layers: reads, mutate_full rounds (also read_full's
#                   write rounds), restore_full sessions
SIZES = {
    "full": dict(graph="full", segments=8, restarts=2, probe=25,
                 max_rounds=1500, restore_reads=60, restore_writes=20,
                 restore_scripts=80, layer_reps=200, layer_rounds=200,
                 layer_sessions=4, oracle_procs=4),
    "smoke": dict(graph="smoke", segments=2, restarts=1, probe=5,
                  max_rounds=2000, restore_reads=10, restore_writes=3,
                  restore_scripts=40, layer_reps=20, layer_rounds=20,
                  layer_sessions=2, oracle_procs=2),
}

# The end-to-end metrics BENCHMARK.json gates. The report also prints the
# p90s, which this machine's noise leaves too unsteady to gate.
END_TO_END = ("setup_s", "read_p50_ms", "read_qps", "write_p50_ms",
              "peak_rss_mb")
STAT_KEYS = ("candidate_count", "pairs_examined", "bloom_prunes",
             "degree_prunes", "inclusion_tests", "nbr_elements_scanned",
             "aux_peak_bytes")


def now_ns():
    return time.perf_counter_ns()


# --- build -----------------------------------------------------------------

def run_quiet(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace")[-4000:])
        sys.exit("servebench: command failed: %s" % " ".join(cmd))


def build(targets):
    """Configures and builds the benchmark package; exits on failure."""
    run_quiet(["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"])
    run_quiet(["cmake", "--build", str(BUILD), "-j", "4", "--target"]
              + list(targets))


def source_digest():
    """Hash of the program's and the tools' sources and of the input
    generator: keys the canary."""
    h = hashlib.sha256()
    for path in (sorted((ROOT / "src").rglob("*")) + sorted(HERE.glob("*.cc"))
                 + [HERE / "inputs.py"]):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


# --- HTTP client and server process ---------------------------------------

class Client:
    """Minimal keep-alive HTTP/1.1 client over one loopback socket."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = bytearray()

    def close(self):
        self.sock.close()

    def _fill(self):
        chunk = self.sock.recv(1 << 18)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buf += chunk

    def request(self, data):
        """Sends one request; returns (status, headers, body)."""
        self.sock.sendall(data)
        while (end := self.buf.find(b"\r\n\r\n")) < 0:
            self._fill()
        lines = bytes(self.buf[:end]).split(b"\r\n")
        status = int(lines[0].split(b" ", 2)[1])
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            headers[name.strip().lower().decode()] = value.strip().decode()
        need = end + 4 + int(headers.get("content-length", "0"))
        while len(self.buf) < need:
            self._fill()
        body = bytes(self.buf[end + 4:need])
        del self.buf[:need]
        return status, headers, body


def post_request(batch):
    body = Inputs.post_body(batch)
    return (b"POST /v1/edges HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            b"Content-Type: application/json\r\nContent-Length: %d\r\n\r\n"
            % len(body)) + body


class Server:
    """One `nsky serve` process; setup_s runs from spawn to the first 200."""

    count = 0

    def __init__(self, exe, source_args, work):
        Server.count += 1
        port_file = work / ("port%d" % Server.count)
        port_file.unlink(missing_ok=True)
        self.stderr = open(work / ("serve%d.err" % Server.count), "wb")
        start = now_ns()
        self.proc = subprocess.Popen(
            [str(exe), "serve"] + source_args +
            ["--port", "0", "--port-file", str(port_file),
             "--server-threads", "2", "--max-inflight", "2"],
            stdout=subprocess.DEVNULL, stderr=self.stderr)
        try:
            while not port_file.exists():
                if self.proc.poll() is not None:
                    raise RuntimeError("nsky serve exited with %d"
                                       % self.proc.returncode)
                if now_ns() - start > 120e9:
                    raise RuntimeError("nsky serve did not bind in 120 s")
                time.sleep(0.0002)
            self.port = int(port_file.read_text())
            client = Client(self.port)
            self.first_status = client.request(READ_REQUEST)[0]
            self.setup_s = (now_ns() - start) / 1e9
            client.close()
        except BaseException:
            self.stop()
            raise

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.stderr.close()


# --- recording ------------------------------------------------------------

class Recorder:
    """Per-request records of one pass, plus harness spans when traced.

    A span is [name, start_ns, end_ns, parent, request]; spans stay in
    memory and are written out at exit. Read bodies are interned with
    stats.seconds cut out, so identical documents are stored once.
    """

    def __init__(self, traced):
        self.traced = traced
        self.spans = []
        self.lock = threading.Lock()
        # A read is (ms, status, epoch, doc, want, timed): `want` names the
        # graph it must be answered on, (script, epoch), or (-1, 0) for the
        # initial graph every script starts from.
        self.reads = []
        self.read_ends = []    # completion times of the reads, ns
        self.read_phases = []  # (start_ns, end_ns) of each read phase
        self.writes = []  # (ms, status, epoch, body, batch, want_epoch)
        # Timed latencies by the server process that answered them; the
        # runners set `process` before each process's timed work.
        self.process = 0
        self.read_ms = {}
        self.write_ms = {}
        self.docs = {}
        self.setups = []
        self.setup_failures = 0
        self.rss = []
        self.transport_errors = 0
        self.exhausted = 0  # mutate_full segments that ran out of script

    def span_open(self, name, parent=-1):
        if not self.traced:
            return -1
        with self.lock:
            self.spans.append([name, now_ns(), 0, parent, 0])
            return len(self.spans) - 1

    def span_close(self, sid):
        if sid >= 0:
            self.spans[sid][2] = now_ns()

    def _request(self, client, data, name, parent):
        start = now_ns()
        status, headers, body = client.request(data)
        end = now_ns()
        if self.traced:
            with self.lock:
                self.spans.append([name, start, end, parent,
                                   len(self.spans)])
        epoch = int(headers.get("x-nsky-epoch", "-1"))
        return (end - start) / 1e6, status, epoch, body

    def _intern(self, body):
        cut = body.rfind(b'"seconds":')
        if cut >= 0:
            stop = cut + len(b'"seconds":')
            while stop < len(body) and body[stop] not in b",}":
                stop += 1
            if body[cut - 1:cut] == b",":
                cut -= 1
            elif body[stop:stop + 1] == b",":
                stop += 1
            body = body[:cut] + body[stop:]
        with self.lock:
            return self.docs.setdefault(body, body)

    def read(self, client, want, parent, timed=True):
        ms, status, epoch, body = self._request(client, READ_REQUEST,
                                                "http.get", parent)
        self.reads.append((ms, status, epoch, self._intern(body), want,
                           timed))
        if timed:
            self.read_ends.append(now_ns())
            self.read_ms.setdefault(self.process, []).append(ms)

    def write(self, client, batch, want_epoch, parent):
        ms, status, epoch, body = self._request(client, post_request(batch),
                                                "http.post", parent)
        self.writes.append((ms, status, epoch, body, batch, want_epoch))
        self.write_ms.setdefault(self.process, []).append(ms)

    def start(self, exe, args, work):
        """Starts a server and keeps its setup time."""
        srv = Server(exe, args, work)
        self.setups.append(srv.setup_s)
        self.setup_failures += srv.first_status != 200
        return srv

    def guarded(self, fn):
        """Runs fn(); a transport failure ends it and is counted."""
        try:
            fn()
        except (OSError, ValueError):
            with self.lock:
                self.transport_errors += 1


def closed_loop_reads(rec, port, clients, seconds, parent):
    """`clients` threads, each sending the next GET when the last returns."""
    conns = [Client(port) for _ in range(clients)]
    barrier = threading.Barrier(clients + 1)
    deadline = [0]

    def worker(conn):
        barrier.wait()

        def loop():
            while now_ns() < deadline[0]:
                rec.read(conn, INITIAL, parent)
        rec.guarded(loop)

    threads = [threading.Thread(target=worker, args=(c,)) for c in conns]
    for t in threads:
        t.start()
    start = now_ns()
    deadline[0] = start + int(seconds * 1e9)
    barrier.wait()
    for t in threads:
        t.join()
    rec.read_phases.append((start, now_ns()))
    for c in conns:
        c.close()


def write_phase(rec, port, inputs, s, count, parent, read_back=False):
    """POSTs the first `count` batches of script `s` on one connection, to
    a server at epoch 0; with `read_back`, each write is followed by an
    untimed GET, as a client reading its own writes would."""
    conn = Client(port)

    def loop():
        for k in range(count):
            rec.write(conn, inputs.scripts[s][k], k + 1, parent)
            if read_back:
                rec.read(conn, (s, k + 1), parent, timed=False)
    rec.guarded(loop)
    conn.close()


# --- workloads --------------------------------------------------------------

def cold_setups(rec, exe, args, work, count, parent):
    """Starts and stops the cold-build server `count` times for setup_s."""
    for _ in range(count):
        sid = rec.span_open("phase.restart", parent)
        rec.start(exe, args, work).stop()
        rec.span_close(sid)


def run_read_full(rec, exe, inputs, files, size, seconds, root):
    """Per segment: a fresh server, extra cold starts, two clients reading
    for its share of `seconds`, then `probe` writes of the segment's script,
    each read back. The read-backs rebuild what a repair fallback drops,
    so every timed write meets the artifacts a serving engine holds."""
    args = ["--input", str(files["edges"])]
    for s in range(size["segments"]):
        sid = rec.span_open("phase.segment", root)
        rec.process = s
        srv = rec.start(exe, args, files["work"])
        try:
            cold_setups(rec, exe, args, files["work"], size["restarts"], sid)
            closed_loop_reads(rec, srv.port, 2, seconds / size["segments"],
                              sid)
            write_phase(rec, srv.port, inputs, s, size["probe"], sid,
                        read_back=True)
            rec.rss.append(srv.peak_rss_mb())
        finally:
            srv.stop()
        rec.span_close(sid)


def run_mutate_full(rec, exe, inputs, files, size, seconds, root):
    """Per segment: a fresh server, extra cold starts, then one client
    writing batch k of the segment's script and reading, k = 0, 1, ...,
    for its share of `seconds`."""
    args = ["--input", str(files["edges"])]
    for s, script in enumerate(inputs.scripts[:size["segments"]]):
        sid = rec.span_open("phase.segment", root)
        rec.process = s
        srv = rec.start(exe, args, files["work"])
        try:
            cold_setups(rec, exe, args, files["work"], size["restarts"], sid)
            conn = Client(srv.port)
            start = now_ns()
            deadline = start + int(seconds / size["segments"] * 1e9)

            def loop():
                for k, batch in enumerate(script):
                    if now_ns() >= deadline:
                        return
                    rec.write(conn, batch, k + 1, sid)
                    rec.read(conn, (s, k + 1), sid)
                rec.exhausted += 1
            rec.guarded(loop)
            rec.read_phases.append((start, now_ns()))
            conn.close()
            rec.rss.append(srv.peak_rss_mb())
        finally:
            srv.stop()
        rec.span_close(sid)


def run_restore_full(rec, exe, inputs, files, size, seconds, root):
    """Restarts from the snapshot for `seconds` (at least 3 times); each
    restart reads `restore_reads` times, then writes its own script."""
    args = ["--snapshot", str(files["snapshot"])]
    deadline = now_ns() + int(seconds * 1e9)
    for r in range(len(inputs.scripts)):
        if r >= 3 and now_ns() >= deadline:
            return
        sid = rec.span_open("phase.restart", root)
        rec.process = r
        srv = rec.start(exe, args, files["work"])
        try:
            conn = Client(srv.port)
            start = now_ns()

            def loop():
                for _ in range(size["restore_reads"]):
                    rec.read(conn, INITIAL, sid)
            rec.guarded(loop)
            rec.read_phases.append((start, now_ns()))
            conn.close()
            write_phase(rec, srv.port, inputs, r, size["restore_writes"],
                        sid)
            rec.rss.append(srv.peak_rss_mb())
        finally:
            srv.stop()
        rec.span_close(sid)


RUNNERS = {"read_full": run_read_full, "mutate_full": run_mutate_full,
           "restore_full": run_restore_full}


# --- output check ---------------------------------------------------------

def oracle_docs(oracle, inputs, files, wanted, procs):
    """{(script, epoch): oracle document} for the keys in `wanted`: one
    sb_oracle process per script, at most `procs` at a time."""
    by_script = {}
    for s, epoch in wanted:
        by_script.setdefault(s, []).append(epoch)
    out = {}
    running = []

    def finish(s, proc, path):
        if proc.wait() != 0:
            raise RuntimeError("sb_oracle failed")
        with open(path) as f:
            for line in f:
                doc = json.loads(line)
                out[(s, doc["epoch"])] = doc

    for s, epochs in sorted(by_script.items()):
        if len(running) == procs:
            finish(*running.pop(0))
        cmd = [str(oracle), "--edges", str(files["edges"])]
        if s >= 0:
            script = files["work"] / ("script%d.txt" % s)
            script.write_text(script_text(inputs.scripts[s][:max(epochs)]))
            cmd += ["--updates", str(script)]
        epoch_file = files["work"] / ("epochs%d.txt" % s)
        epoch_file.write_text("\n".join(map(str, sorted(epochs))) + "\n")
        # Files, not pipes: a full pipe would stall the processes not
        # being read yet.
        path = files["work"] / ("oracle%d.out" % s)
        with open(path, "wb") as f:
            proc = subprocess.Popen(cmd + ["--epochs", str(epoch_file)],
                                    stdout=f)
        running.append((s, proc, path))
    for job in running:
        finish(*job)
    return out


def doc_matches(body, want):
    """A /v1/skyline body (stats.seconds cut) against the oracle's line."""
    try:
        doc = json.loads(body)
    except ValueError:
        return False
    stats = doc.get("stats", {})
    skyline = doc.get("skyline", {})
    return (doc.get("schema") == "nsky.skyline.v1"
            and doc.get("graph") == {"n": want["n"], "m": want["m"]}
            and skyline.get("members") == want["skyline"]
            and skyline.get("size") == len(want["skyline"])
            and all(stats.get(k) == want["stats"][k] for k in STAT_KEYS)
            and stats.get("degraded_from") == "")


def check(rec, want):
    """Failed operations of one pass against the oracle's documents
    `want`; returns (attempted, failed, notes)."""
    notes = []
    verdict = {}
    bad_reads = 0
    for _, status, epoch, doc, key, _ in rec.reads:
        # A read after write k of a script must see epoch k + 1.
        if status != 200 or epoch != key[1] or key not in want:
            bad_reads += 1
            continue
        if (key, id(doc)) not in verdict:
            verdict[(key, id(doc))] = doc_matches(doc, want[key])
        bad_reads += not verdict[(key, id(doc))]
    # Every scripted batch is effective: it applies all its updates and
    # advances the epoch by exactly one.
    bad_writes = 0
    for _, status, epoch, body, batch, want_epoch in rec.writes:
        try:
            applied = json.loads(body).get("applied")
        except ValueError:
            applied = None
        bad_writes += not (status == 200 and epoch == want_epoch
                           and applied == len(batch))
    failed = (rec.transport_errors + rec.setup_failures + bad_reads
              + bad_writes)
    if rec.exhausted:
        notes.append("%d segments ran out of update script; raise "
                     "max_rounds" % rec.exhausted)
    for count, what in ((rec.transport_errors, "transport errors"),
                        (rec.setup_failures, "failed first reads"),
                        (bad_reads, "wrong or failed reads"),
                        (bad_writes, "wrong or failed writes")):
        if count:
            notes.append("%d %s" % (count, what))
    attempted = (len(rec.reads) + len(rec.writes) + len(rec.setups)
                 + rec.transport_errors)
    return attempted, failed, notes


def oracle_for(recs, size, inputs, files, oracle):
    """The oracle's documents for every graph the passes' reads must see."""
    wanted = {INITIAL}.union(*({r[4] for r in rec.reads} for rec in recs))
    return oracle_docs(oracle, inputs, files, wanted, size["oracle_procs"])


# --- metrics --------------------------------------------------------------

def percentile(values, q):
    """Linear interpolation between closest ranks (q in [0, 100])."""
    v = sorted(values)
    if not v:
        return 0.0
    pos = (len(v) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


# The gated latencies and rate are means over the run's server processes of
# each process's own median or rate. This host runs a process either fast
# or up to 40 % slow, in phases of several seconds, so the latencies of a
# run are a mixture of two modes: their pooled median jumps between the
# modes as the mixture nears half and half, while a mean over processes
# moves in proportion to it. Within a process the median still ignores the
# tail (repair fallbacks, the first read after a restart).

def mean_of_medians(by_process):
    """Mean over server processes of each process's median latency (0 when
    none answered: the run has then failed)."""
    if not by_process:
        return 0.0
    return statistics.mean(statistics.median(v) for v in by_process.values())


def read_qps(rec):
    """Mean over the read phases (one per server process) of the reads the
    phase completed per second of its wall time."""
    ends = sorted(rec.read_ends)
    return statistics.mean(
        (bisect.bisect_right(ends, end) - bisect.bisect_left(ends, start))
        / ((end - start) / 1e9) for start, end in rec.read_phases)


def end_to_end(rec):
    """{metric: (value, unit, samples)} of one pass."""
    reads = [r[0] for r in rec.reads if r[5]]
    writes = [w[0] for w in rec.writes]
    return {
        "setup_s": (statistics.median(rec.setups), "s", len(rec.setups)),
        "read_p50_ms": (mean_of_medians(rec.read_ms), "ms", len(reads)),
        "read_p90_ms": (percentile(reads, 90), "ms", len(reads)),
        "read_qps": (read_qps(rec), "1/s", len(rec.read_phases)),
        "write_p50_ms": (mean_of_medians(rec.write_ms), "ms", len(writes)),
        "write_p90_ms": (percentile(writes, 90), "ms", len(writes)),
        "peak_rss_mb": (statistics.median(rec.rss), "MB", len(rec.rss)),
    }


def self_times(spans):
    """{name: (count, median duration ms, median self ms)} of a span list
    [(name, start, end, parent, request)]; a span's self time is its
    duration minus the part of it its child spans cover."""
    children = {}
    for i, s in enumerate(spans):
        children.setdefault(s[3], []).append(i)
    by_name = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        covered = 0
        cursor = start
        for j in sorted(children.get(i, []), key=lambda j: spans[j][1]):
            lo, hi = max(spans[j][1], cursor), min(spans[j][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        by_name.setdefault(name, []).append(((end - start) / 1e6,
                                             (end - start - covered) / 1e6))
    return {name: (len(v), statistics.median(d for d, _ in v),
                   statistics.median(s for _, s in v))
            for name, v in by_name.items()}


def canary(args, kind, counts):
    """Compares this run's exact counts with an earlier run of the same
    seed, workload and sources; returns the names that differ."""
    key = "%s-%s-seed%d%s-%s" % (args.workload, kind, args.seed,
                                 "-smoke" if args.smoke else "",
                                 source_digest())
    path = BUILD / "servebench" / "canary" / (key + ".json")
    if path.exists():
        before = json.loads(path.read_text())
        return sorted(k for k in set(before) | set(counts)
                      if before.get(k) != counts.get(k))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, sort_keys=True))
    return []


def e2e_counts(rec, files):
    """The exact counts of an end-to-end pass: the inputs, the work
    counters of the first read, and the snapshot size."""
    counts = {"edges_sha256":
              hashlib.sha256(files["edges"].read_bytes()).hexdigest()}
    stats = json.loads(rec.reads[0][3]).get("stats", {}) if rec.reads else {}
    for k in STAT_KEYS:
        counts["first_read." + k] = stats.get(k)
    if files["snapshot"].exists():
        counts["snapshot_bytes"] = files["snapshot"].stat().st_size
    return counts


# --- main -----------------------------------------------------------------

def make_inputs(args, size, work, exe):
    """Every input of the run, from the seed, before any timing."""
    inputs = Inputs(args.seed, size["graph"])
    # One update script per server process: read_full's probes, mutate_full's
    # rounds, restore_full's restarts. Script 0 also feeds sb_layers.
    count, length = {
        "read_full": (size["segments"], max(size["probe"],
                                            size["layer_rounds"])),
        "mutate_full": (size["segments"], size["max_rounds"]),
        "restore_full": (size["restore_scripts"], size["restore_writes"]),
    }[args.workload]
    inputs.scripts = [inputs.script(s, length) for s in range(count)]
    files = {"work": work, "edges": work / "edges.txt",
             "scripts": work / "scripts.txt",
             "snapshot": work / "engine.snap"}
    inputs.write_edge_list(files["edges"])
    if args.trace or args.workload == "restore_full":
        run_quiet([str(exe), "snapshot", "save", "--input",
                   str(files["edges"]), "--output", str(files["snapshot"])])
    return inputs, files


def run_pass(args, size, inputs, files, exe, seconds, traced):
    rec = Recorder(traced)
    root = rec.span_open("e2e." + args.workload)
    RUNNERS[args.workload](rec, exe, inputs, files, size, seconds, root)
    rec.span_close(root)
    return rec


def print_e2e(tag, rec, metrics, attempted, failed, notes, files):
    print("servebench %s: %d reads (%d timed), %d writes, %d server starts"
          % (tag, len(rec.reads), sum(1 for r in rec.reads if r[5]),
             len(rec.writes), len(rec.setups)))
    for name, (value, unit, n) in metrics.items():
        print("  %-14s %12.4f %-5s (n=%d)" % (name, value, unit, n))
    if files["snapshot"].exists():
        print("  %-14s %12.4f %-5s (file bytes)" % (
            "snapshot_mb", files["snapshot"].stat().st_size / 1e6, "MB"))
    print("  %-14s %12.6f       (%d failed of %d attempted)%s" % (
        "error_rate", failed / max(attempted, 1), failed, attempted,
        "".join("; " + n for n in notes)))


def measure(args, size, inputs, files, exe, oracle):
    rec = run_pass(args, size, inputs, files, exe, args.seconds, False)
    want = oracle_for([rec], size, inputs, files, oracle)
    attempted, failed, notes = check(rec, want)
    differ = canary(args, "e2e", e2e_counts(rec, files))
    if differ:
        notes.append("inputs differ from an earlier run of this seed: "
                     + ", ".join(differ))
    metrics = end_to_end(rec)
    print_e2e(args.tag, rec, metrics, attempted, failed, notes, files)
    return {"correct": failed == 0 and not differ, "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                        for k in END_TO_END}}


def run_layers(args, size, inputs, files, layers):
    """sb_layers on the run's inputs; returns its output and spans."""
    write_scripts(files["scripts"], inputs.scripts[:size["layer_sessions"]])
    spans = files["work"] / "layer-spans.json"
    proc = subprocess.run(
        [str(layers), "--workload", args.workload,
         "--edges", str(files["edges"]), "--snapshot", str(files["snapshot"]),
         "--scripts", str(files["scripts"]),
         "--reps", str(size["layer_reps"]),
         "--rounds", str(size["layer_rounds"]),
         "--sessions", str(size["layer_sessions"]), "--spans", str(spans)],
        stdout=subprocess.PIPE)
    if proc.returncode != 0:
        raise RuntimeError("sb_layers failed")
    out = json.loads(proc.stdout)
    return out, [(s["name"], s["start_ns"], s["end_ns"], s["parent"],
                  s["request"]) for s in json.loads(spans.read_text())]


def measure_traced(args, size, inputs, files, exe, oracle, layers):
    untraced = run_pass(args, size, inputs, files, exe, args.seconds / 2,
                        False)
    traced = run_pass(args, size, inputs, files, exe, args.seconds / 2, True)
    want = oracle_for([untraced, traced], size, inputs, files, oracle)
    checked = [check(rec, want) for rec in (untraced, traced)]
    e_untraced, e_traced = end_to_end(untraced), end_to_end(traced)
    print_e2e(args.tag + ", untraced half", untraced, e_untraced,
              *checked[0], files)
    print_e2e(args.tag + ", traced half", traced, e_traced, *checked[1],
              files)

    out, layer_spans = run_layers(args, size, inputs, files, layers)
    attempted = checked[0][0] + checked[1][0] + out["checks"]
    failed = checked[0][1] + checked[1][1] + out["check_failures"]
    notes = checked[0][2] + checked[1][2] + out["failures"]
    m = {k: (v["value"], v["unit"], v["samples"])
         for k, v in out["metrics"].items()}

    read_p50, n_reads = e_traced["read_p50_ms"][0], e_traced["read_p50_ms"][2]
    write_p50, n_writes = (e_traced["write_p50_ms"][0],
                           e_traced["write_p50_ms"][2])
    m["trace.read_p50_ms"] = (read_p50, "ms", n_reads)
    m["trace.write_p50_ms"] = (write_p50, "ms", n_writes)
    m["trace.overhead_ms"] = (read_p50 - e_untraced["read_p50_ms"][0], "ms",
                              n_reads)
    # Self times along a read: transport, the service's own work, the wait
    # for the engine mutex, the engine, the renderer. Along a write:
    # transport, then Handle (JSON parse, commit, repair and the rest).
    m["service.self_ms"] = (m["service.handle_ms"][0]
                            - m["engine.execute_ms"][0] - m["render.ms"][0],
                            "ms", m["service.handle_ms"][2])
    read_parts = ("server.self_ms", "service.self_ms", "service.wait_ms",
                  "engine.execute_ms", "render.ms")
    write_parts = ("server.write_self_ms", "service.handle_write_ms")
    read_sum = sum(m[k][0] for k in read_parts)
    write_sum = sum(m[k][0] for k in write_parts)
    m["trace.read_unattributed_ms"] = (read_p50 - read_sum, "ms", n_reads)
    m["trace.write_unattributed_ms"] = (write_p50 - write_sum, "ms",
                                        n_writes)

    counts = {k: v[0] for k, v in m.items()
              if k.startswith(("refine.", "filter.", "persist.section_mb.",
                               "persist.snapshot_mb", "render.bytes",
                               "prepared.dirty_vertices",
                               "prepared.repaired_ratio"))}
    differ = canary(args, "layers", counts)
    if differ:
        notes.append("inputs differ from an earlier run of this seed: "
                     + ", ".join(differ))

    reports = BUILD / "servebench" / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    (reports / ("%s-seed%d%s-spans.json" % (
        args.workload, args.seed, "-smoke" if args.smoke else ""))).write_text(
        json.dumps({"harness": traced.spans, "layers": layer_spans}))
    print("servebench %s, per layer" % args.tag)
    for title, spans in (("harness spans (traced half)", traced.spans),
                         ("sb_layers spans", layer_spans)):
        print("  %-30s %6s %11s %11s" % (title, "count", "median ms",
                                         "self ms"))
        for name, (count, dur, own) in sorted(self_times(spans).items()):
            print("    %-28s %6d %11.4f %11.4f" % (name, count, dur, own))
    print("  read path  %s = %.4f ms; traced read_p50 %.4f ms; unattributed"
          " %.4f ms" % (" + ".join(read_parts), read_sum, read_p50,
                        read_p50 - read_sum))
    print("  write path %s = %.4f ms; traced write_p50 %.4f ms; unattributed"
          " %.4f ms" % (" + ".join(write_parts), write_sum, write_p50,
                        write_p50 - write_sum))
    print("  tracing overhead on read_p50: %.4f ms (traced %.4f, untraced"
          " %.4f)" % (m["trace.overhead_ms"][0], read_p50,
                      e_untraced["read_p50_ms"][0]))
    for name, (value, unit, n) in sorted(m.items()):
        print("  %-36s %14.4f %-6s (n=%d)" % (name, value, unit, n))
    print("  %-36s %14.6f        (%d failed of %d attempted)%s" % (
        "error_rate", failed / max(attempted, 1), failed, attempted,
        "".join("; " + n for n in notes)))
    return {"correct": failed == 0 and not differ, "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v[0], "unit": v[1]}
                        for k, v in sorted(m.items())}}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small graph and counts, for the benchmark's tests")
    args = ap.parse_args()
    args.tag = "%s seed %d%s" % (args.workload, args.seed,
                                 " (smoke)" if args.smoke else "")
    size = SIZES["smoke" if args.smoke else "full"]

    build(["nsky", "sb_oracle"] + (["sb_layers"] if args.trace else []))
    exe, oracle, layers = (BUILD / t for t in ("nsky", "sb_oracle",
                                                "sb_layers"))
    work = BUILD / "servebench" / ("work-%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    work.mkdir(parents=True)
    try:
        inputs, files = make_inputs(args, size, work, exe)
        if args.trace:
            result = measure_traced(args, size, inputs, files, exe, oracle,
                                    layers)
        else:
            result = measure(args, size, inputs, files, exe, oracle)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
