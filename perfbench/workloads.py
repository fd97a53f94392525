"""The benchmark's three workloads and the closed loop that drives them.

Each workload builds its inputs from the seed (``generate``, untimed),
sets the system up (``setup``, timed, repeated), and hands out one
:class:`Caller` per closed-loop client.  A caller produces the seeded op
stream, executes one op against the unmodified program, and checks the
answer where the workload can do so cheaply.  See ``README.md`` for why
each workload was chosen.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import selectors
import shutil
import subprocess
import sys
from statistics import median
from time import perf_counter

from repro.client import SQLGraphClient
from repro.core import SQLGraphStore
from repro.datasets import dbpedia, linkbench
from repro.gremlin.interpreter import GremlinInterpreter
from repro.gremlin.parser import parse_gremlin
from repro.server.protocol import recv_message, send_message
from spans import CountWindow

#: ``benchmarks/conftest.py`` sizes of the DBpedia-like graph (~4.8k vertices)
DBPEDIA_SIZES = dict(places=2500, players=1500, teams=80, persons=400,
                     artists=300)
LINKBENCH_NODES = 4000
#: buffer pool of the durable LinkBench store, well below its ~185 pages
LINKBENCH_POOL_PAGES = 64
LINKBENCH_WRITES = frozenset({
    "add_node", "update_node", "delete_node",
    "add_link", "delete_link", "update_link",
})
#: Table-6 read operations, reweighted to sum to one for ``wire-reads``
WIRE_MIX = [
    (name, weight) for name, weight in linkbench.OPERATION_MIX
    if name in ("get_node", "count_link", "multiget_link", "get_link_list")
]
SERVER_BOOT_TIMEOUT_S = 120.0
SERVER_STOP_TIMEOUT_S = 30.0


class Caller:
    """One closed-loop client: a seeded op stream plus how to run an op."""

    def __init__(self, name, ops, execute, check=None, is_write=None):
        self.name = name
        self.next_op = ops.__next__
        self.execute = execute
        self.check = check
        self.is_write = is_write


class Phase:
    """What one closed-loop phase measured (latencies in seconds, in the
    order the ops were sent)."""

    def __init__(self):
        self.latencies = []
        self.write_latencies = []
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.errors = []
        self.elapsed_s = 0.0

    @property
    def ops_per_second(self):
        done = self.attempted - self.failed
        return done / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def blocks(self, size):
        """Latencies in blocks of *size* consecutive ops; a shorter tail
        joins the last block."""
        count = max(1, len(self.latencies) // size)
        cuts = [block * size for block in range(count)]
        cuts.append(len(self.latencies))
        return [self.latencies[a:b] for a, b in zip(cuts, cuts[1:])]

    def record_failure(self, op, message):
        """A failed op misses every latency limit: its latency is infinite."""
        self.latencies.append(math.inf)
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{op!r}: {message}")


def closed_loop(caller, seconds=None, max_ops=None, tracer=None):
    """Run *caller* in a closed loop until *seconds* or *max_ops*."""
    phase = Phase()
    clock = perf_counter
    started_phase = clock()
    deadline = None if seconds is None else started_phase + seconds
    latencies = phase.latencies
    done = 0
    while (max_ops is None or done < max_ops) and (
            deadline is None or clock() < deadline):
        op = caller.next_op()
        if tracer is not None:
            tracer.set_op(f"{caller.name}:{done}")
        started = clock()
        try:
            if tracer is None:
                result = caller.execute(op)
            else:
                result = tracer.span("op", caller.execute, op)
        except Exception as exc:  # a failed op is counted, never fatal
            phase.record_failure(op, f"{type(exc).__name__}: {exc}")
            latency = math.inf
        else:
            latency = clock() - started
            latencies.append(latency)
            if caller.check is not None and not caller.check(op, result):
                phase.mismatches += 1
        if caller.is_write is not None and caller.is_write(op):
            phase.write_latencies.append(latency)
        done += 1
    phase.attempted = done
    phase.elapsed_s = clock() - started_phase
    return phase


def _canonical(value):
    """JSON text of *value* with sorted keys (wire and embedded agree)."""
    return json.dumps(value, sort_keys=True, default=repr)


def _multiset(values):
    return sorted(_canonical(value) for value in values)


def graph_fingerprint(graph):
    """Order-independent content of a PropertyGraph."""
    vertices = sorted(
        (vertex.id, _canonical(vertex.properties))
        for vertex in graph.vertices()
    )
    edges = sorted(
        (edge.id, edge.out_vertex.id, edge.in_vertex.id, edge.label,
         _canonical(edge.properties))
        for edge in graph.edges()
    )
    return vertices, edges


def dir_bytes(path):
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, __, names in os.walk(path) for name in names
    )


class Workload:
    """Interface shared by the three workloads."""

    name = ""
    #: ops in the untimed window that fills caches before timing; a traced
    #: run counts work over exactly these ops
    window_ops = 0

    def __init__(self, seed, root, work_dir, traced):
        self.seed = seed
        self.root = root
        self.work_dir = work_dir
        self.traced = traced
        self.checks = {}
        self.extra = {}
        self.store = None
        self._caller = None
        self._window = None
        self._fsyncs_before = 0

    def generate(self):
        """Build the seeded inputs (not part of set-up time)."""

    def setup(self, attempt):
        """Build the system under test (timed)."""
        raise NotImplementedError

    def teardown(self):
        """Drop the system :meth:`setup` built (untimed)."""
        self.store = None

    def caller(self):
        """The workload's closed-loop :class:`Caller`."""
        raise NotImplementedError

    def phase(self, seconds=None, max_ops=None, tracer=None):
        """Run the op stream for *seconds* or *max_ops*; returns a Phase."""
        if self._caller is None:
            self._caller = self.caller()
        return closed_loop(self._caller, seconds, max_ops, tracer)

    def after_window(self):
        """Checks made between the untimed window and the timed phase."""

    # -- per-layer measurement (traced runs) ---------------------------
    def start_count(self):
        self._window = CountWindow(self.store)
        self._window.start()

    def stop_count(self):
        return self._window.stop()

    def _fsyncs(self):
        return (self.store.database.wal_stats() or {}).get("fsyncs", 0)

    def start_trace(self, tracer):
        self._fsyncs_before = self._fsyncs()
        tracer.install()

    def stop_trace(self, tracer):
        """Returns the tracer report plus the WAL fsyncs it covered."""
        report = tracer.uninstall()
        report["wal_fsyncs"] = self._fsyncs() - self._fsyncs_before
        return report

    def finish(self):
        """Checks and figures after the timed phase."""

    def peak_rss_mb(self):
        """Peak resident set of the process hosting the store."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self):
        """Stop everything the workload started."""
        self.teardown()


class Fig8Mix(Workload):
    """Embedded in-memory store; the 20 Fig-8a and 11 Fig-8b queries."""

    name = "fig8-mix"
    window_ops = 62  # two shuffled passes over the 31 queries

    def generate(self):
        config = dbpedia.DBpediaConfig(seed=self.seed, **DBPEDIA_SIZES)
        self.data = dbpedia.generate(config)
        self.queries = (
            dbpedia.benchmark_queries(self.data)
            + dbpedia.path_queries(self.data)
        )
        interpreter = GremlinInterpreter(self.data.graph)
        self.expected = {
            query_id: _multiset(interpreter.run(parse_gremlin(text)))
            for query_id, text in self.queries
        }

    def setup(self, attempt):
        store = SQLGraphStore()
        store.load_graph(self.data.graph)
        # the attribute indexes benchmarks/conftest.py creates (paper §3.3)
        keys = {"uri": False, "tag": False}
        for __, key, __, __ in dbpedia.ATTRIBUTE_QUERIES:
            keys[key] = True
        for key, sorted_index in keys.items():
            store.create_attribute_index("vertex", key, sorted_index)
        self.store = store

    def caller(self):
        rng = random.Random(self.seed)
        queries = self.queries

        def ops():
            while True:
                order = list(queries)
                rng.shuffle(order)
                yield from order

        expected = self.expected

        def execute(op):
            return self.store.run(op[1])

        def check(op, result):
            return _multiset(result) == expected[op[0]]

        return Caller("fig8", ops(), execute, check)


class LinkBenchDurable(Workload):
    """Embedded durable store, bounded pool, Table-6 CRUD mix."""

    name = "linkbench-durable"
    window_ops = 2000
    recovery_opens = 3

    def generate(self):
        self.data = linkbench.build_graph(
            linkbench.LinkBenchConfig(nodes=LINKBENCH_NODES, seed=self.seed)
        )

    def teardown(self):
        if self.store is not None:
            self.store.close()
            shutil.rmtree(self.path)
        self.store = None

    def setup(self, attempt):
        self.path = os.path.join(self.work_dir, f"store-{attempt}")
        store = SQLGraphStore(
            buffer_pool_pages=LINKBENCH_POOL_PAGES, path=self.path
        )
        store.load_graph(self.data.graph)
        self.store = store

    def caller(self):
        adapter = linkbench.SQLGraphLinkBench(self.store)
        stream = linkbench.RequestGenerator(self.data, seed=self.seed)

        def is_write(op):
            return op[0] in LINKBENCH_WRITES

        return Caller("linkbench", stream, adapter.execute,
                      is_write=is_write)

    def after_window(self):
        """Open copies of the live directory: recovery time and state."""
        live = graph_fingerprint(self.store.export_graph())
        timings = []
        for attempt in range(self.recovery_opens):
            copy = os.path.join(self.work_dir, f"recovery-{attempt}")
            shutil.copytree(self.path, copy)
            started = perf_counter()
            recovered = SQLGraphStore(
                buffer_pool_pages=LINKBENCH_POOL_PAGES, path=copy
            )
            timings.append(perf_counter() - started)
            if attempt == 0:
                self.extra["recovery_replayed_records"] = (
                    recovered.database.wal.replayed
                )
                self.checks["recovered copy equals live store"] = (
                    graph_fingerprint(recovered.export_graph()) == live
                )
            recovered.close()
            shutil.rmtree(copy)
        self.extra["recovery_s"] = median(timings)

    def finish(self):
        self.extra["disk_mb"] = dir_bytes(self.path) / 1e6


class WireReads(Workload):
    """A ``repro.server`` process on a durable LinkBench directory, read by
    one closed-loop connection."""

    name = "wire-reads"
    window_ops = 1000
    sample_ops = 100

    def __init__(self, seed, root, work_dir, traced):
        super().__init__(seed, root, work_dir, traced)
        self.server = None
        self.oracle = None
        self.port = None
        self._clients = []
        self._connection = None  # (client, op stream)
        self._sent = 0  # request id of the next frame
        self._control_client = None

    def generate(self):
        self.data = linkbench.build_graph(
            linkbench.LinkBenchConfig(nodes=LINKBENCH_NODES, seed=self.seed)
        )

    def setup(self, attempt):
        path = os.path.join(self.work_dir, f"store-{attempt}")
        store = SQLGraphStore(path=path)
        store.load_graph(self.data.graph)
        store.close()
        # the closed store keeps its tables in memory: it answers the
        # sampled correctness check
        self.oracle = store
        self._start_server(path)

    # -- server process ------------------------------------------------
    def _start_server(self, path):
        """Boot ``python -m repro.server`` (traced runs: the benchmark's
        launcher, which adds the ``perfbench`` control op)."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(self.root, "src")]
            + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        if self.traced:
            command = [
                os.path.join(self.root, "perfbench", "traced_server.py"),
                # the work directory sits in the output directory
                "--spans-out", os.path.join(
                    os.path.dirname(self.work_dir),
                    f"spans-{self.name}-seed{self.seed}-server.jsonl"),
            ]
        else:
            command = ["-m", "repro.server"]
        process = subprocess.Popen(
            [sys.executable] + command + ["--path", path, "--port", "0"],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        self.server = process
        with selectors.DefaultSelector() as selector:
            selector.register(process.stdout, selectors.EVENT_READ)
            if not selector.select(SERVER_BOOT_TIMEOUT_S):
                raise RuntimeError("server did not announce readiness")
        line = process.stdout.readline().strip()
        if not line.startswith("listening on "):
            raise RuntimeError(f"unexpected server output: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])

    def teardown(self):
        """Stop the server and wait for it to exit."""
        for client in self._clients:
            client.close()
        self._clients = []
        self._connection = None
        self._control_client = None
        self.oracle = None
        process, self.server = self.server, None
        if process is None:
            return
        process.terminate()
        try:
            process.communicate(timeout=SERVER_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.communicate()

    def peak_rss_mb(self):
        """Peak resident set of the server process."""
        with open(f"/proc/{self.server.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    # -- ops -----------------------------------------------------------
    def _op_stream(self, rng):
        names = [name for name, __ in WIRE_MIX]
        weights = [weight for __, weight in WIRE_MIX]
        node_ids = self.data.node_ids
        edge_ids = self.data.edge_ids
        labels = linkbench.ASSOC_TYPES
        while True:
            name = rng.choices(names, weights=weights)[0]
            if name == "get_node":
                yield ("get_vertex", rng.choice(node_ids))
            elif name == "multiget_link":
                ids = ", ".join(str(rng.choice(edge_ids)) for __ in range(3))
                yield ("run", f"g.e({ids})")
            else:
                tail = ".count()" if name == "count_link" else ""
                yield ("run", f"g.v({rng.choice(node_ids)})"
                              f".outE('{rng.choice(labels)}'){tail}")

    def client(self):
        client = SQLGraphClient(port=self.port).connect()
        self._clients.append(client)
        return client

    @staticmethod
    def _remote(client, op):
        kind, argument = op
        if kind == "get_vertex":
            return client.crud("get_vertex", vertex_id=argument)
        return client.run(argument)

    @staticmethod
    def _message(op):
        """The request frame :meth:`_remote` sends for *op*."""
        kind, argument = op
        if kind == "get_vertex":
            return {"op": "crud", "action": "get_vertex",
                    "vertex_id": argument}
        return {"op": "run", "query": argument}

    def _embedded(self, op):
        kind, argument = op
        if kind == "get_vertex":
            vertex = self.oracle.get_vertex(argument)
            return {"id": vertex.id, "properties": vertex.properties}
        return self.oracle.run(argument)

    def phase(self, seconds=None, max_ops=None, tracer=None):
        """One connection runs a closed loop of request frames.

        The connection is the client's socket after its handshake; the
        frames go through ``repro.server.protocol``, so nothing but the
        frame codec runs in the load generator.  (With two connections,
        three threads on two cores took turns for the processors and the
        server's interpreter lock: the server's throughput did not rise,
        and p99 followed the machine's scheduling noise.)
        """
        if self._connection is None:
            self._connection = (
                self.client(), self._op_stream(random.Random(self.seed)))
        client, stream = self._connection
        phase = Phase()
        clock = perf_counter
        started_phase = clock()
        deadline = None if seconds is None else started_phase + seconds
        while (max_ops is None or phase.attempted < max_ops) and (
                deadline is None or clock() < deadline):
            op = next(stream)
            message = self._message(op)
            message["id"] = self._sent
            if tracer is not None:
                tracer.set_op(f"wire:{self._sent}")
            started = clock()
            send_message(client._sock, message)
            reply = recv_message(client._sock, client._assembler)
            latency = clock() - started
            if (reply is None or not reply.get("ok")
                    or reply.get("id") != self._sent):
                phase.record_failure(op, repr(reply))
            else:
                phase.latencies.append(latency)
            phase.attempted += 1
            self._sent += 1
        phase.elapsed_s = clock() - started_phase
        return phase

    def _check_sample(self, label):
        """A seeded sample of wire answers equals the embedded answers."""
        client = self.client()
        rng = random.Random(f"{self.seed}:sample:{label}")
        stream = self._op_stream(rng)
        matches = True
        for __ in range(self.sample_ops):
            op = next(stream)
            remote = self._remote(client, op)
            local = self._embedded(op)
            if op[0] == "get_vertex":
                matches &= _canonical(remote) == _canonical(local)
            else:
                matches &= _multiset(remote) == _multiset(local)
        self.checks[f"wire answers equal embedded ({label})"] = matches

    def after_window(self):
        self._check_sample("before timing")

    def finish(self):
        self._check_sample("after timing")

    # -- per-layer measurement: the server side runs in the launcher ---
    def _control(self, action):
        if self._control_client is None:
            self._control_client = self.client()
        return self._control_client._request("perfbench", {"action": action})

    def start_count(self):
        self._control("count_start")

    def stop_count(self):
        return self._control("count_stop")["counts"]

    def start_trace(self, tracer):
        self._control("trace_start")
        tracer.install()

    def stop_trace(self, tracer):
        """Client-side and server-side reports, merged."""
        report = tracer.uninstall()
        server = self._control("trace_stop")
        for name, entry in server["spans"].items():
            merged = report["spans"].setdefault(
                name, {"self_s": 0.0, "total_s": 0.0, "count": 0}
            )
            for key in merged:
                merged[key] += entry[key]
        report["wire_bytes"] += server["wire_bytes"]
        report["lock_wait_s"] += server["lock_wait_s"]
        report["wal_fsyncs"] = 0
        return report


WORKLOADS = {
    Fig8Mix.name: Fig8Mix,
    LinkBenchDurable.name: LinkBenchDurable,
    WireReads.name: WireReads,
}
