"""The four workloads.  Each returns ``(end_to_end, per_layer)`` metric dicts
and counts its attempted and failed operations on the :class:`Run`.

Why each exists, and what dominates it, is written up in ``README.md``.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from layers import dispatch_items, span_metrics
from loadgen import Connection, Record, ServerProcess, proc_status
from stats import describe, percentile

K = 10
CLIENTS = 2  # load-generator threads and keep-alive connections (nproc here)
DIM = 64
NETFLIX_N = 20_000
SIFT_N = 30_000
# The datasets and the build seed are fixed; --seed draws the queries, the
# query streams and the write schedule.  ProMIPS's cost moves 10-25% between
# datasets and projection draws (mean candidates per query over 5 seeds), which
# would swamp every bound; over the hundreds of queries a run answers, the
# per-query variation (CV ~0.22 in time) averages to about 1%.
DATA_SEED = 20210406  # load_dataset's default
BUILD_SEED = 1  # repro serve --build-seed's default
SETUP_REPEATS = 5  # server launches per run; setup_s is their median
BUILD_REPEATS = 5  # offline-batch builds per run; setup_s is their median
CHECK_SAMPLE = 32  # queries whose served answer must equal index.search
COUNT_ITEMS = 100  # first queries the ProMIPS counts are taken over

READ_POOL = 3000  # distinct queries, well beyond the 1024-entry cache
READ_WARM = 16
SPEC_READ = "dynamic(c=0.9)"

HOT_POOL = 256  # fits the cache; every entry is warmed before timing
ZIPF_S = 1.1

# Thresholds lowered from 0.2/0.25 so a 20 s run completes several rebuilds.
SPEC_CHURN = (
    "sharded(inner='dynamic(c=0.9, rebuild_threshold=0.003, compact_threshold=0.003)', shards=2)"
)
CHURN_N = 10_000  # two 5k shards: writes and maintenance, not index scale
CHURN_MIX = (0.65, 0.2, 0.15)  # search, insert, delete
CHURN_PLAN = 2000  # operations in each user's shuffled plan (a run uses ~350)
CHURN_QUERIES = 64  # searched round-robin: each repeat meets an invalidation
CHURN_FRESH = 5000  # held-out rows the inserts draw from
CHURN_PROBE = 200

OFFLINE_POOL = 800  # four batches; a run answers it at least once
OFFLINE_BATCH = 200


@dataclass
class Run:
    root: str
    seed: int
    seconds: float
    trace: bool
    work: str
    attempted: int = 0
    failed: int = 0
    rids: itertools.count = field(default_factory=lambda: itertools.count(1))
    item_of: dict = field(default_factory=dict)

    def log(self, message: str) -> None:
        print(message, flush=True)

    def fail(self, message: str, n: int = 1) -> None:
        self.failed += n
        self.log(f"FAILED ({n}): {message}")


def exact_topk(data: np.ndarray, queries: np.ndarray, k: int = K) -> np.ndarray:
    """Exact top-k ids by a blocked numpy scan (the recall reference)."""
    out = []
    for start in range(0, len(queries), 256):
        scores = queries[start : start + 256] @ data.T
        top = np.argpartition(-scores, k - 1, axis=1)[:, :k]
        out.append(top)
    return np.concatenate(out) if out else np.empty((0, k), dtype=np.int64)


def recall(answers, exact: np.ndarray) -> float:
    hits = [len(set(a) & set(e.tolist())) / len(e) for a, e in zip(answers, exact)]
    return float(np.mean(hits)) if hits else 0.0


def latency_metrics(latencies_s, answered: int, elapsed: float) -> dict:
    ms = np.asarray(latencies_s) * 1e3
    return {
        "latency_p50_ms": percentile(ms, 50),
        "latency_p90_ms": percentile(ms, 90),
        "throughput_qps": answered / elapsed if elapsed > 0 else 0.0,
    }


def dataset(name: str, n: int) -> np.ndarray:
    from repro.data.datasets import load_dataset

    return load_dataset(name, n=n, dim=DIM, n_queries=1, seed=DATA_SEED).data


def sample(data: np.ndarray, count: int, seed: int) -> np.ndarray:
    """``count`` distinct data points as queries (the paper's protocol)."""
    from repro.data.synthetic import sample_queries

    return sample_queries(data, count, np.random.default_rng(seed))[0]


def search_body(query: np.ndarray) -> bytes:
    return json.dumps({"query": query.tolist(), "k": K}).encode()


class Client:
    """One keep-alive connection that records every request on the run."""

    def __init__(self, run: Run, port: int, sink: list) -> None:
        self.run, self.conn, self.sink = run, Connection(port), sink

    def send(self, kind: str, item, body: bytes) -> Record:
        rid = next(self.run.rids)
        self.run.item_of[str(rid)] = item
        status, data, sent, done = self.conn.post("/" + kind, body, rid)
        parsed = json.loads(data) if status == 200 else None
        rec = Record(rid, kind, item, sent, done, status, parsed)
        self.sink.append(rec)
        return rec


def run_clients(target, n: int = CLIENTS) -> None:
    threads = [threading.Thread(target=target, args=(c,)) for c in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def stats_delta(before: dict, after: dict) -> dict:
    """Cache and coalescer counters accumulated between two /stats reads."""
    c0, c1 = before["cache"], after["cache"]
    hits, misses = c1["hits"] - c0["hits"], c1["misses"] - c0["misses"]
    h0, h1 = before["batch"]["histogram"], after["batch"]["histogram"]
    sizes = {int(s): h1[s] - h0.get(s, 0) for s in h1}
    dispatches = sum(sizes.values())
    return {
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.invalidations": float(c1["invalidations"] - c0["invalidations"]),
        "cache.stale_puts": float(c1["stale_puts"] - c0["stale_puts"]),
        "microbatch.batch_size_mean": (
            sum(s * c for s, c in sizes.items()) / dispatches if dispatches else 0.0
        ),
        "server.stats_p50_ms": float(after["latency"]["p50_ms"]),
    }


class Served:
    """Shared scaffolding of the three served workloads: persist the index,
    launch ``repro serve`` on it, read /stats around the timed window, check
    request counts, stop the server and collect its spans."""

    def __init__(self, run: Run, spec: str, data: np.ndarray) -> None:
        from repro.core.persist import load_index, save_index
        from repro.spec import build_index

        self.run = run
        self.path = os.path.join(run.work, "index.npz")
        save_index(build_index(spec, data, rng=BUILD_SEED), self.path)
        self.local = load_index(self.path)  # the served index, for answer checks
        self.records: list[Record] = []
        self.server: ServerProcess | None = None
        self.spans_path = None

    def start(self) -> float:
        setups = []
        for i in range(SETUP_REPEATS):
            if self.run.trace:
                self.spans_path = os.path.join(self.run.work, f"spans{i}.json")
            self.server = ServerProcess(self.run.root, self.path, self.spans_path)
            setups.append(self.server.start())
            if i < SETUP_REPEATS - 1:
                self.server.stop()
        self.control = Connection(self.server.port)
        return percentile(setups, 50)

    def client(self) -> Client:
        return Client(self.run, self.server.port, self.records)

    def window(self, body) -> tuple[list, float, dict]:
        """Run ``body(client_no, deadline)`` on every client for the run's
        seconds; returns (records, elapsed seconds, layer counters)."""
        before, cpu0 = self.control.get("/stats"), self.server.status()["cpu_s"]
        first = len(self.records)
        start = time.monotonic()
        deadline = start + self.run.seconds
        run_clients(lambda c: body(c, deadline))
        records = self.records[first:]
        elapsed = max((r.done for r in records), default=deadline) - start
        after, cpu1 = self.control.get("/stats"), self.server.status()["cpu_s"]
        layer = stats_delta(before, after)
        layer["server.cpu_ms_per_op"] = (cpu1 - cpu0) * 1e3 / max(len(records), 1)
        self.window_bounds = (start, start + elapsed)
        return records, elapsed, layer

    def finish(self) -> tuple[float, list]:
        """Final /stats checks, then stop; returns (peak RSS MB, spans)."""
        run = self.run
        stats = self.control.get("/stats")
        counters = {
            "cache": {
                k: stats["cache"][k] for k in ("hits", "misses", "invalidations", "stale_puts")
            },
            "batch_histogram": stats["batch"]["histogram"],
            "maintenance": {
                k: stats.get("maintenance", {}).get(k)
                for k in ("rebuilds", "replayed_inserts", "replayed_deletes",
                          "reclaimed_bytes", "errors")
            },
            "errors_by_endpoint": stats["errors_by_endpoint"],
            "requests_by_endpoint": stats["requests_by_endpoint"],
        }
        run.log("server /stats: " + json.dumps(counters, sort_keys=True))
        run.log(
            f"server-side p50 {stats['latency']['p50_ms']:.3f} ms vs client p50 "
            f"{percentile([r.done - r.sent for r in self.records], 50) * 1e3:.3f} ms "
            "(caveat: /stats latency mixes every endpoint)"
        )
        served = sum(stats["requests_by_endpoint"].values()) + sum(
            stats["errors_by_endpoint"].values()
        )
        run.attempted += len(self.records)
        bad = [r for r in self.records if not r.ok]
        if bad:
            run.fail(f"{len(bad)} requests answered non-2xx or lost the connection", len(bad))
        if served != len(self.records):
            run.fail(f"server counted {served} requests, client sent {len(self.records)}")
        rss = self.server.status()["peak_rss_mb"]
        self.stop()
        spans = []
        if self.spans_path is not None:
            with open(self.spans_path) as fh:
                spans = json.load(fh)
        return rss, spans

    def check_identical(self, answers: dict, queries: np.ndarray) -> None:
        """Served ids and scores of the sample must equal index.search."""
        for item in range(CHECK_SAMPLE):
            body = answers.get(item)
            if body is None:
                continue
            local = self.local.search(queries[item], k=K)
            if not (
                np.array_equal(np.asarray(body["ids"]), local.ids)
                and np.array_equal(np.asarray(body["scores"]), local.scores)
            ):
                self.run.fail(f"served answer of query {item} differs from index.search")

    def stop(self) -> None:
        if self.server is not None:
            if hasattr(self, "control"):
                self.control.close()
            self.server.stop()
            self.server = None


def client_latencies(records, kind=None):
    return [r.done - r.sent for r in records if r.ok and (kind is None or r.kind == kind)]


def loadgen_metrics(records) -> dict:
    ms = 1e3
    searches = client_latencies(records, "search")
    writes = [r.done - r.sent for r in records if r.ok and r.kind in ("insert", "delete")]
    return {
        "loadgen.search_p95_ms": percentile(searches, 95) * ms,
        "loadgen.mutation_p50_ms": percentile(writes, 50) * ms,
        "loadgen.mutation_p95_ms": percentile(writes, 95) * ms,
    }


def _closed_loop(srv: Served, next_item, bodies) -> tuple:
    """Each client sends its next query as soon as the last one returns."""

    def body(c, deadline):
        client = srv.client()
        while time.monotonic() < deadline:
            item = next_item(c)
            client.send("search", item, bodies[item])
        client.conn.close()

    return srv.window(body)


def _served_result(srv, run, records, elapsed, layer, setup, recall10, count_items):
    ok = [r for r in records if r.ok]
    run.log("latency ms: " + describe([t * 1e3 for t in client_latencies(ok)]))
    rss, spans = srv.finish()
    e2e = {
        **latency_metrics(client_latencies(ok), len(ok), elapsed),
        "recall_at_10": recall10,
        "setup_s": setup,
        "peak_rss_mb": rss,
        "index_mb": srv.local.index_size_bytes() / 2**20,
    }
    layer.update(loadgen_metrics(records))
    if spans:
        layer.update(
            span_metrics(spans, ok, srv.window_bounds, dispatch_items(run.item_of), count_items)
        )
    return e2e, layer


def serve_read(run: Run):
    data = dataset("netflix", NETFLIX_N)
    queries = sample(data, READ_POOL + READ_WARM, run.seed)
    pool, warm = queries[:READ_POOL], queries[READ_POOL:]
    bodies = [search_body(q) for q in pool]
    srv = Served(run, SPEC_READ, data)
    try:
        setup = srv.start()
        warm_client = srv.client()
        for i, q in enumerate(warm):
            warm_client.send("search", -1 - i, search_body(q))
        warm_client.conn.close()
        counter = itertools.count()
        records, elapsed, layer = _closed_loop(srv, lambda c: next(counter) % READ_POOL, bodies)
        answers = {}
        for r in records:
            if r.ok:
                answers.setdefault(r.item, r.body)
        srv.check_identical(answers, pool)
        items = sorted(answers)
        recall10 = recall([answers[i]["ids"] for i in items], exact_topk(data, pool[items]))
        return _served_result(srv, run, records, elapsed, layer, setup, recall10,
                              set(range(COUNT_ITEMS)))
    finally:
        srv.stop()


def zipf_stream(rng: np.random.Generator, n: int, s: float, chunk: int = 4096):
    weights = 1.0 / np.arange(1, n + 1) ** s
    weights /= weights.sum()
    while True:
        yield from rng.choice(n, size=chunk, p=weights).tolist()


def serve_hot(run: Run):
    data = dataset("netflix", NETFLIX_N)
    pool = sample(data, HOT_POOL, run.seed)
    bodies = [search_body(q) for q in pool]
    srv = Served(run, SPEC_READ, data)
    try:
        setup = srv.start()
        warm_records: list[Record] = []

        def warm(c):
            client = Client(run, srv.server.port, warm_records)
            for item in range(c, HOT_POOL, CLIENTS):
                client.send("search", item, bodies[item])
            client.conn.close()

        run_clients(warm)
        srv.records.extend(warm_records)
        answers = {r.item: r.body for r in warm_records if r.ok}
        streams = [zipf_stream(np.random.default_rng([run.seed, c]), HOT_POOL, ZIPF_S)
                   for c in range(CLIENTS)]
        records, elapsed, layer = _closed_loop(srv, lambda c: next(streams[c]), bodies)
        stale = [r for r in records if r.ok and (
            r.body["ids"] != answers[r.item]["ids"] or r.body["scores"] != answers[r.item]["scores"]
        )]
        if stale:
            run.fail("cached answers differ from the first answer", len(stale))
        srv.check_identical(answers, pool)
        items = sorted(answers)
        recall10 = recall([answers[i]["ids"] for i in items], exact_topk(data, pool[items]))
        return _served_result(srv, run, records, elapsed, layer, setup, recall10,
                              set(range(COUNT_ITEMS)))
    finally:
        srv.stop()


def serve_churn(run: Run):
    full = dataset("netflix", CHURN_N + CHURN_FRESH)
    data = full[:CHURN_N]
    fresh = full[CHURN_N:][np.random.default_rng([run.seed, 3]).permutation(CHURN_FRESH)]
    queries = sample(data, CHURN_QUERIES, run.seed)
    probe = sample(data, CHURN_PROBE, DATA_SEED)  # the same recall probe every run
    probe_body = json.dumps({"queries": probe.tolist(), "k": K}).encode()
    bodies = [search_body(q) for q in queries]
    srv = Served(run, SPEC_CHURN, data)
    lock = threading.Lock()
    deletable = list(range(CHURN_N))
    inserted: dict[int, np.ndarray] = {}
    deleted_at: dict[int, float] = {}
    fresh_rows = itertools.count()
    # Every query is searched equally often, so the mix of cheap and costly
    # queries is the same in every run; the seed sets their order.
    search_order = np.random.default_rng([run.seed, 5]).permutation(CHURN_QUERIES)
    searches = itertools.count()

    def probe_recall() -> float:
        """Recall of one /search_batch over the probe against an exact scan
        of the client's model of the live set; a deleted id fails it."""
        client = srv.client()
        rec = client.send("search_batch", -1, probe_body)
        client.conn.close()
        if not rec.ok:
            return 0.0
        gone = set(deleted_at)
        live_ids = np.array(
            [i for i in range(CHURN_N) if i not in gone] + [i for i in inserted if i not in gone]
        )
        live = np.vstack([data[live_ids[live_ids < CHURN_N]]]
                         + [inserted[i][None, :] for i in live_ids[live_ids >= CHURN_N]])
        leaked = sum(1 for ids in rec.body["ids"] if gone & set(ids))
        if leaked:
            run.fail("probe answers hold deleted ids", leaked)
        return recall(rec.body["ids"], live_ids[exact_topk(live, probe)])

    try:
        setup = srv.start()
        warm_client = srv.client()
        for item in range(8):
            warm_client.send("search", item, bodies[item])
        warm_client.conn.close()
        # The e2e recall is taken before the churn: every rebuild redraws a
        # shard's projections, which moved recall after the churn by 6%
        # between seeds.  The after-churn figure is logged.
        recall10 = probe_recall()

        def user(c, deadline):
            # Closed loop like the read workloads: the next operation goes out
            # when the last one returns; the seed shuffles the exact mix.
            rng = np.random.default_rng([run.seed, 7, c])
            kinds = np.repeat([0, 1, 2], (np.array(CHURN_MIX) * CHURN_PLAN).astype(int))
            kinds = rng.permutation(kinds).tolist()
            client = srv.client()
            for kind in itertools.takewhile(lambda _: time.monotonic() < deadline,
                                            itertools.cycle(kinds)):
                if kind == 0:
                    item = int(search_order[next(searches) % CHURN_QUERIES])
                    client.send("search", item, bodies[item])
                elif kind == 1:
                    row = next(fresh_rows) % CHURN_FRESH
                    body = json.dumps({"vector": fresh[row].tolist()}).encode()
                    rec = client.send("insert", row, body)
                    if rec.ok:
                        with lock:
                            inserted[rec.body["id"]] = fresh[row]
                            deletable.append(rec.body["id"])
                else:
                    with lock:
                        j = int(rng.integers(len(deletable)))
                        deletable[j], deletable[-1] = deletable[-1], deletable[j]
                        target = deletable.pop()
                    rec = client.send("delete", target, json.dumps({"id": target}).encode())
                    if rec.ok:
                        deleted_at[target] = rec.done
            client.conn.close()

        records, elapsed, layer = srv.window(user)
        violations = sum(
            1 for r in records if r.ok and r.kind == "search"
            and any(deleted_at.get(i, np.inf) < r.sent for i in r.body["ids"])
        )
        if violations:
            run.fail("searches returned an id deleted before they were sent", violations)

        recall_after = probe_recall()
        run.log(f"recall@10 after the churn: {recall_after:.4f} (before: {recall10:.4f})")
        rebuilds = srv.control.get("/stats")["maintenance"]["rebuilds"]
        run.log(f"background rebuilds completed: {rebuilds}")
        if rebuilds < 3:
            run.log("WARNING: fewer than three background rebuilds in the run")
        run.log("mutation latency ms: " + describe(
            [(r.done - r.sent) * 1e3 for r in records if r.ok and r.kind != "search"]))
        answered = sum(1 for r in records if r.ok and r.kind == "search")
        e2e, layer = _served_result(srv, run, records, elapsed, layer, setup, recall10, None)
        e2e["throughput_qps"] = answered / elapsed
        return e2e, layer
    finally:
        srv.stop()


def offline_batch(run: Run):
    from repro.spec import build_index

    data = dataset("sift", SIFT_N)
    # A fixed pool in fixed batches: the seed orders the batches and the rows
    # within them.  Per-query cost is heavy-tailed here, so a seeded query set
    # moved throughput by 7% between seeds.
    queries = sample(data, OFFLINE_POOL, DATA_SEED)
    groups = np.arange(OFFLINE_POOL).reshape(-1, OFFLINE_BATCH)
    rng = np.random.default_rng(run.seed)
    tracer = None
    if run.trace:
        from spans import Tracer, install_index

        tracer = Tracer()
        install_index(tracer)
    builds = []
    for _ in range(BUILD_REPEATS):
        begin = time.monotonic()
        index = build_index("promips()", data, rng=BUILD_SEED)
        builds.append(time.monotonic() - begin)

    cpu0 = proc_status(os.getpid())["cpu_s"]
    latencies, answers, plan = [], {}, []
    start = time.monotonic()
    while time.monotonic() - start < run.seconds:
        if len(plan) % len(groups) == 0:
            order = rng.permutation(len(groups))
        items = rng.permutation(groups[order[len(plan) % len(groups)]])
        plan.append(items)
        begin = time.monotonic()
        result = index.search_many(queries[items], k=K)
        latencies.append(time.monotonic() - begin)
        for j, item in enumerate(items.tolist()):
            answers.setdefault(item, (result.ids[j], result.scores[j]))
    elapsed = time.monotonic() - start
    status = proc_status(os.getpid())
    spans = list(tracer.spans) if tracer is not None else []

    run.attempted += len(plan)
    run.log(f"search_many latency ms (batches of {OFFLINE_BATCH}): "
            + describe([t * 1e3 for t in latencies]))
    for item in sorted(answers)[:CHECK_SAMPLE]:
        single = index.search(queries[item], k=K)
        ids, scores = answers[item]
        if not (np.array_equal(single.ids, ids) and np.array_equal(single.scores, scores)):
            run.fail(f"search_many row of query {item} differs from search")
    items = sorted(answers)
    recall10 = recall([answers[i][0].tolist() for i in items], exact_topk(data, queries[items]))
    answered = len(plan) * OFFLINE_BATCH
    e2e = {
        **latency_metrics(latencies, answered, elapsed),
        "recall_at_10": recall10,
        "setup_s": percentile(builds, 50),
        "peak_rss_mb": status["peak_rss_mb"],
        "index_mb": index.index_size_bytes() / 2**20,
    }
    layer = {"server.cpu_ms_per_op": (status["cpu_s"] - cpu0) * 1e3 / answered}
    if spans:
        starts = sorted(s[2] for s in spans if s[1] == "promips.search_many")

        def batch_rows(_, span):
            return plan[starts.index(span[2])].tolist()

        layer.update(span_metrics(spans, row_items=batch_rows,
                                  count_items=set(range(OFFLINE_POOL))))
    return e2e, layer


WORKLOADS = {
    "serve-read": serve_read,
    "serve-hot": serve_hot,
    "serve-churn": serve_churn,
    "offline-batch": offline_batch,
}
