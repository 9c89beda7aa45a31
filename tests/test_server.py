"""End-to-end tests for the HTTP serving runtime.

The acceptance bar: a served ``/search`` answer is **bit-identical** to
calling ``index.search`` directly, for every registered method, through all
three paths a request can take — cache-cold (full search), cache-warm
(generation-checked LRU hit), and coalesced (batched through the
micro-batcher with concurrent neighbours).  JSON is safe transport for that
claim: ``json.dumps`` emits ``repr``-style shortest round-trip floats, so a
float64 score crosses the wire without loss.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.persist import save_index
from repro.serve import ServingRuntime, build_runtime, make_server
from repro.serve.server import MAX_BODY_BYTES
from repro.spec import build_index, registered_methods

from test_k_clamp import EDGE_SPECS

DIM = 10


class Client:
    """Minimal stdlib JSON client used by tests (and mirrored in the example)."""

    def __init__(self, port: int):
        self.base = f"http://127.0.0.1:{port}"

    def get(self, path: str):
        try:
            with urllib.request.urlopen(self.base + path, timeout=30) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def post(self, path: str, payload=None, raw: bytes | None = None):
        body = raw if raw is not None else json.dumps(payload or {}).encode()
        request = urllib.request.Request(
            self.base + path, data=body,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())


@pytest.fixture()
def serve():
    """Factory fixture: spin up a server for a runtime, tear it down after."""
    started = []

    def start(runtime: ServingRuntime) -> Client:
        server = make_server(runtime)
        # A tight poll interval keeps server.shutdown() (which waits one
        # poll) from dominating the suite's teardown time.
        thread = threading.Thread(
            target=lambda: server.serve_forever(poll_interval=0.02), daemon=True
        )
        thread.start()
        started.append((server, runtime, thread))
        return Client(server.server_address[1])

    yield start
    for server, runtime, thread in started:
        server.shutdown()
        server.server_close()
        runtime.close()
        thread.join(timeout=5)


def _build(method: str, n: int = 80, seed: int = 9):
    gen = np.random.default_rng(seed)
    data = gen.standard_normal((n, DIM))
    queries = gen.standard_normal((12, DIM))
    return build_index(EDGE_SPECS[method], data, rng=5), data, queries


def test_edge_specs_still_cover_every_method():
    # The parity sweep below quantifies over EDGE_SPECS; this guard makes a
    # newly registered method fail loudly instead of silently going untested.
    assert set(EDGE_SPECS) == set(registered_methods())


@pytest.mark.parametrize("method", sorted(EDGE_SPECS))
class TestServedParity:
    """Served answers == direct index.search, bit for bit, on every path."""

    def test_cold_warm_and_coalesced(self, serve, method):
        index, data, queries = _build(method)
        client = serve(ServingRuntime(index, max_wait_ms=5.0, cache_size=64))
        k = 5
        direct = {i: index.search(q, k=k) for i, q in enumerate(queries)}

        # Cache-cold: every query straight through the coalescer.
        for i, q in enumerate(queries):
            code, served = client.post("/search", {"query": q.tolist(), "k": k})
            assert code == 200 and served["cached"] is False
            assert served["ids"] == direct[i].ids.tolist()
            assert served["scores"] == direct[i].scores.tolist()

        # Cache-warm: identical bytes → identical payload, flagged cached.
        for i, q in enumerate(queries):
            code, served = client.post("/search", {"query": q.tolist(), "k": k})
            assert code == 200 and served["cached"] is True
            assert served["ids"] == direct[i].ids.tolist()
            assert served["scores"] == direct[i].scores.tolist()

        # Coalesced: concurrent cold queries (fresh cache) share ticks.
        runtime = ServingRuntime(index, max_wait_ms=20.0, cache_size=0)
        concurrent = serve(runtime)
        with ThreadPoolExecutor(max_workers=len(queries)) as pool:
            answers = list(pool.map(
                lambda q: concurrent.post("/search", {"query": q.tolist(), "k": k}),
                queries,
            ))
        for i, (code, served) in enumerate(answers):
            assert code == 200
            assert served["ids"] == direct[i].ids.tolist()
            assert served["scores"] == direct[i].scores.tolist()
        # The telemetry proves at least some requests actually coalesced.
        assert runtime.telemetry.snapshot()["batch"]["dispatches"] >= 1

    def test_search_batch_matches_search_many(self, serve, method):
        index, data, queries = _build(method)
        client = serve(ServingRuntime(index, cache_size=0))
        k = 4
        code, served = client.post(
            "/search_batch", {"queries": queries.tolist(), "k": k}
        )
        assert code == 200 and served["n_queries"] == len(queries)
        batch = index.search_many(queries, k=k)
        for i, row in enumerate(batch):
            assert served["ids"][i] == row.ids.tolist()
            assert served["scores"][i] == row.scores.tolist()


class TestEnvelopeBoot:
    """The server boots from a persisted .npz envelope, bit-identically."""

    @pytest.mark.parametrize("method", ["promips", "dynamic", "sharded"])
    def test_served_from_envelope_matches_builder(self, serve, tmp_path, method):
        index, data, queries = _build(method)
        path = save_index(index, tmp_path / "idx.npz")
        runtime = build_runtime(index_path=path, max_wait_ms=1.0)
        client = serve(runtime)
        for q in queries[:4]:
            code, served = client.post("/search", {"query": q.tolist(), "k": 3})
            direct = index.search(q, k=3)
            assert code == 200
            assert served["ids"] == direct.ids.tolist()
            assert served["scores"] == direct.scores.tolist()

    def test_build_runtime_requires_exactly_one_source(self, tmp_path):
        with pytest.raises(ValueError, match="exactly one"):
            build_runtime()
        with pytest.raises(ValueError, match="exactly one"):
            build_runtime(spec="exact()", index_path=tmp_path / "idx.npz",
                          data=np.ones((4, 2)))
        with pytest.raises(ValueError, match="requires data"):
            build_runtime(spec="exact()")


class TestMutationEndpoints:
    def _dynamic_client(self, serve, spec=EDGE_SPECS["dynamic"]):
        gen = np.random.default_rng(13)
        data = gen.standard_normal((50, DIM))
        index = build_index(spec, data, rng=5)
        return serve(ServingRuntime(index, max_wait_ms=1.0)), data

    def test_insert_visible_and_cache_invalidated(self, serve):
        client, data = self._dynamic_client(serve)
        q = data[0].tolist()
        code, cold = client.post("/search", {"query": q, "k": 3})
        assert code == 200 and cold["cached"] is False
        code, warm = client.post("/search", {"query": q, "k": 3})
        assert code == 200 and warm["cached"] is True
        code, inserted = client.post(
            "/insert", {"vector": (np.asarray(q) * 40.0).tolist()}
        )
        assert code == 200 and inserted["generation"] == 1
        code, after = client.post("/search", {"query": q, "k": 3})
        assert code == 200 and after["cached"] is False
        assert after["ids"][0] == inserted["id"]

    def test_delete_unknown_id_is_404(self, serve):
        client, _ = self._dynamic_client(serve)
        code, payload = client.post("/delete", {"id": 12345})
        assert code == 404 and "12345" in payload["error"]

    def test_delete_removes_point(self, serve):
        client, data = self._dynamic_client(serve)
        q = data[0].tolist()
        code, before = client.post("/search", {"query": q, "k": 2})
        winner = before["ids"][0]
        code, deleted = client.post("/delete", {"id": winner})
        assert code == 200 and deleted == {"deleted": winner, "generation": 1}
        code, after = client.post("/search", {"query": q, "k": 2})
        assert winner not in after["ids"]

    def test_immutable_method_rejects_mutations(self, serve):
        index, data, _ = _build("exact")
        client = serve(ServingRuntime(index))
        code, payload = client.post("/insert", {"vector": data[0].tolist()})
        assert code == 400 and "does not support insert" in payload["error"]
        code, payload = client.post("/delete", {"id": 0})
        assert code == 400 and "does not support delete" in payload["error"]

    def test_sharded_dynamic_mutations(self, serve):
        client, data = self._dynamic_client(
            serve, spec=("sharded(inner='dynamic(c=0.85, m=4, kp=2, n_key=6, "
                         "ksp=3)', shards=3)")
        )
        code, inserted = client.post(
            "/insert", {"vector": (data[0] * 40.0).tolist()}
        )
        assert code == 200
        code, served = client.post("/search", {"query": data[0].tolist(), "k": 1})
        assert served["ids"] == [inserted["id"]]


class TestBackgroundMaintenance:
    """Serving + the background maintenance engine: rebuilds happen off the
    request path, deleted ids never resurface, and /stats reports them."""

    MAINT_SPEC = (
        "dynamic(c=0.85, m=4, kp=2, n_key=6, ksp=3, "
        "rebuild_threshold=0.1, compact_threshold=0.1)"
    )

    def test_stats_report_maintenance_state(self, serve):
        index, _, _ = _build("exact")
        client = serve(ServingRuntime(index))
        code, stats = client.get("/stats")
        assert code == 200 and stats["maintenance"] == {"enabled": False}

        dyn_index, _, _ = _build("dynamic")
        runtime = ServingRuntime(dyn_index)
        client = serve(runtime)
        assert runtime.maintenance is not None
        code, health = client.get("/healthz")
        assert code == 200 and health["maintenance"] is True
        code, stats = client.get("/stats")
        maint = stats["maintenance"]
        assert maint["enabled"] is True and maint["running"] is True
        assert maint["targets"] == 1 and maint["rebuilds"] == 0

    def test_background_compaction_under_serving(self, serve):
        gen = np.random.default_rng(21)
        data = gen.standard_normal((80, DIM))
        index = build_index(self.MAINT_SPEC, data, rng=5)
        runtime = ServingRuntime(index, max_wait_ms=1.0, maintenance_poll_ms=1.0)
        client = serve(runtime)
        q = data[0].tolist()
        code, cold = client.post("/search", {"query": q, "k": 20})
        assert code == 200 and cold["cached"] is False
        code, warm = client.post("/search", {"query": q, "k": 20})
        assert code == 200 and warm["cached"] is True

        doomed = cold["ids"][:12]  # 12 > 0.1 * 80 -> compaction due
        for point_id in doomed:
            code, _ = client.post("/delete", {"id": point_id})
            assert code == 200
        assert runtime.maintenance.quiesce(timeout=30.0)

        maint = client.get("/stats")[1]["maintenance"]
        assert maint["rebuilds"] >= 1
        assert maint["reclaimed_bytes"] > 0
        assert maint["in_flight"] is None
        # Quiesced means the pressure is back under the configured ratio —
        # tombstones that landed after the compaction fired may remain.
        assert index.maintenance_due() is None
        assert index.tombstone_count <= 0.1 * index.indexed_points

        # The cache generation moved (mutations + swap): a fresh answer,
        # and none of the deleted ids in it.
        code, after = client.post("/search", {"query": q, "k": 20})
        assert code == 200 and after["cached"] is False
        assert not set(after["ids"]) & set(doomed)
        code, rewarm = client.post("/search", {"query": q, "k": 20})
        assert code == 200 and rewarm["cached"] is True
        assert rewarm["ids"] == after["ids"]

    def test_sharded_dynamic_maintenance_staggers_per_shard(self, serve):
        gen = np.random.default_rng(22)
        data = gen.standard_normal((90, DIM))
        spec = (
            "sharded(inner='dynamic(c=0.85, m=4, kp=2, n_key=6, ksp=3, "
            "rebuild_threshold=0.1)', shards=3)"
        )
        index = build_index(spec, data, rng=5)
        runtime = ServingRuntime(index, max_wait_ms=1.0, maintenance_poll_ms=1.0)
        client = serve(runtime)
        assert runtime.maintenance is not None
        assert runtime.maintenance.stats()["targets"] == 3
        inserted = []
        for vec in gen.standard_normal((30, DIM)):
            code, payload = client.post("/insert", {"vector": vec.tolist()})
            assert code == 200
            inserted.append(payload["id"])
        assert runtime.maintenance.quiesce(timeout=30.0)
        assert all(
            shard.maintenance_due() is None for shard in index.shards
        )
        code, served = client.post(
            "/search", {"query": data[1].tolist(), "k": 5}
        )
        assert code == 200 and len(served["ids"]) == 5

    def test_failed_runtime_construction_leaks_no_engine(self):
        # An invalid coalescer config must not leave a live maintenance
        # thread (or a deferred index) behind an unconstructed runtime.
        index, _, _ = _build("dynamic")
        with pytest.raises(ValueError, match="max_batch"):
            ServingRuntime(index, max_batch=0)
        assert index.defer_maintenance is False
        assert not any(
            t.name == "repro-maintenance" for t in threading.enumerate()
        )

    def test_maintenance_disabled_falls_back_to_synchronous(self, serve):
        gen = np.random.default_rng(23)
        data = gen.standard_normal((60, DIM))
        index = build_index(self.MAINT_SPEC, data, rng=5)
        runtime = ServingRuntime(index, maintenance=False)
        client = serve(runtime)
        assert runtime.maintenance is None
        assert index.defer_maintenance is False
        for point_id in range(8):  # 8 > 0.1 * 60: compacts inside /delete
            code, _ = client.post("/delete", {"id": point_id})
            assert code == 200
        assert index.rebuilds >= 1
        assert index.tombstone_count <= 0.1 * index.indexed_points
        code, served = client.post(
            "/search", {"query": data[20].tolist(), "k": 10}
        )
        assert code == 200
        assert not set(served["ids"]) & set(range(8))


class TestInspectionEndpoints:
    def test_healthz(self, serve):
        index, _, _ = _build("promips")
        client = serve(ServingRuntime(index))
        code, health = client.get("/healthz")
        assert code == 200
        assert health["status"] == "ok"
        assert health["method"] == "promips"
        assert health["dim"] == DIM and health["n_live"] == 80
        assert health["coalescing"] is True

    def test_stats_reflect_traffic(self, serve):
        index, data, queries = _build("exact")
        client = serve(ServingRuntime(index, max_wait_ms=1.0))
        q = queries[0].tolist()
        client.post("/search", {"query": q, "k": 2})
        client.post("/search", {"query": q, "k": 2})
        code, stats = client.get("/stats")
        assert code == 200
        assert stats["requests_by_endpoint"]["search"] == 2
        assert stats["cache"]["hits"] == 1 and stats["cache"]["misses"] == 1
        assert stats["cache"]["hit_rate"] == pytest.approx(0.5)
        assert stats["latency"]["count"] == 2
        assert stats["latency"]["p50_ms"] >= 0.0
        assert stats["qps"] > 0
        assert stats["index"]["method"] == "exact"

    def test_search_params_forwarded(self, serve):
        index, data, queries = _build("promips")
        client = serve(ServingRuntime(index, max_wait_ms=1.0, cache_size=0))
        q = queries[0]
        code, served = client.post(
            "/search", {"query": q.tolist(), "k": 3, "params": {"c": 0.5}}
        )
        assert code == 200
        direct = index.search(q, k=3, c=0.5)
        assert served["ids"] == direct.ids.tolist()
        assert served["scores"] == direct.scores.tolist()


class TestHTTPErrors:
    @pytest.fixture()
    def client(self, serve):
        index, _, _ = _build("exact")
        return serve(ServingRuntime(index))

    def test_unknown_path_404(self, client):
        code, payload = client.get("/nope")
        assert code == 404 and "unknown path" in payload["error"]
        code, payload = client.post("/nope", {})
        assert code == 404

    def test_malformed_json_400(self, client):
        code, payload = client.post("/search", raw=b"{not json")
        assert code == 400 and "not valid JSON" in payload["error"]

    def test_non_object_body_400(self, client):
        code, payload = client.post("/search", raw=b"[1, 2, 3]")
        assert code == 400 and "JSON object" in payload["error"]

    def test_missing_field_400(self, client):
        code, payload = client.post("/search", {"k": 3})
        assert code == 400 and "query" in payload["error"]

    def test_bad_k_400(self, client):
        q = [0.0] * DIM
        for bad in (0, -4, 2.5, "many"):
            code, payload = client.post("/search", {"query": q, "k": bad})
            assert code == 400
            assert "k must be a positive integer" in payload["error"]

    def test_wrong_dimension_400(self, client):
        code, payload = client.post("/search", {"query": [1.0, 2.0], "k": 1})
        assert code == 400 and "dimension" in payload["error"]

    def test_non_finite_query_400(self, client):
        q = [float("nan")] * DIM
        code, payload = client.post("/search", {"query": q, "k": 1})
        assert code == 400 and "non-finite" in payload["error"]

    def test_bad_params_object_400(self, client):
        q = [0.0] * DIM
        code, payload = client.post("/search", {"query": q, "params": [1]})
        assert code == 400 and "params" in payload["error"]

    def test_errors_counted_in_stats(self, client):
        client.post("/search", {"k": 3})
        code, stats = client.get("/stats")
        assert stats["errors_by_endpoint"]["search"] >= 1

    def test_overflowing_query_norm_400(self, client):
        # Finite components whose squared norm overflows used to surface as
        # "cannot convert float NaN to integer" from deep inside a search.
        code, payload = client.post("/search", {"query": [1e308] * DIM, "k": 1})
        assert code == 400 and "squared norm" in payload["error"]


class _FailingRuntime(ServingRuntime):
    def search(self, query, k: int = 1, **kwargs) -> dict:
        if query == "boom":
            raise RuntimeError("index exploded")
        return super().search(query, k=k, **kwargs)


class TestServerFaults:
    def test_unexpected_exception_is_a_counted_500(self, serve):
        index, _, queries = _build("exact")
        client = serve(_FailingRuntime(index))
        conn = http.client.HTTPConnection("127.0.0.1", int(client.base.rsplit(":", 1)[1]))
        headers = {"Content-Type": "application/json"}
        try:
            conn.request("POST", "/search", json.dumps({"query": "boom"}), headers)
            resp = conn.getresponse()
            assert resp.status == 500
            assert "RuntimeError: index exploded" in json.loads(resp.read())["error"]
            # The same keep-alive connection still answers the next request.
            body = json.dumps({"query": queries[0].tolist(), "k": 3})
            conn.request("POST", "/search", body, headers)
            resp = conn.getresponse()
            assert resp.status == 200 and len(json.loads(resp.read())["ids"]) == 3
            conn.request("GET", "/stats")
            stats = json.loads(conn.getresponse().read())
        finally:
            conn.close()
        assert stats["errors_by_endpoint"] == {"search": 1}


class TestRequestFraming:
    """On a keep-alive connection every body byte is either read or the
    connection is closed; nothing is left to be parsed as the next request."""

    def test_unknown_path_keeps_the_connection_in_sync(self, serve):
        index, _, queries = _build("exact")
        client = serve(ServingRuntime(index))
        port = int(client.base.rsplit(":", 1)[1])
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
        headers = {"Content-Type": "application/json"}
        body = json.dumps({"query": queries[0].tolist(), "k": 3})
        try:
            conn.request("POST", "/nope", body, headers)
            resp = conn.getresponse()
            assert resp.status == 404
            assert "unknown path" in json.loads(resp.read())["error"]
            conn.request("POST", "/search", body, headers)
            resp = conn.getresponse()
            assert resp.status == 200
            ids = json.loads(resp.read())["ids"]
        finally:
            conn.close()
        assert ids == index.search(queries[0], k=3).ids.tolist()

    @pytest.mark.parametrize(
        "length, code, message",
        [
            (None, 400, "Content-Length"),
            ("-1", 400, "Content-Length"),
            ("ten", 400, "Content-Length"),
            (str(MAX_BODY_BYTES + 1), 413, "exceeds"),
        ],
    )
    def test_bad_content_length_is_answered_and_closed(
        self, serve, length, code, message
    ):
        index, _, _ = _build("exact")
        client = serve(ServingRuntime(index))
        port = int(client.base.rsplit(":", 1)[1])
        head = ["POST /search HTTP/1.1", "Host: 127.0.0.1"]
        if length is not None:
            head.append(f"Content-Length: {length}")
        # No body follows: a handler that tried to read one would block, and
        # the 5 s socket timeout would fail the test instead of hanging it.
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            sock.sendall(("\r\n".join(head) + "\r\n\r\n").encode())
            chunks = []
            while chunk := sock.recv(65536):  # until the server closes
                chunks.append(chunk)
        header, _, payload = b"".join(chunks).partition(b"\r\n\r\n")
        assert header.split(b"\r\n")[0].split()[1] == str(code).encode()
        assert b"Connection: close" in header
        assert message in json.loads(payload)["error"]
        assert client.get("/stats")[1]["errors_by_endpoint"] == {"search": 1}


class TestIntegralFloatK:
    def test_json_float_k_accepted(self, serve):
        # JSON clients routinely produce 5.0; validate_k normalises it.
        index, _, queries = _build("exact")
        client = serve(ServingRuntime(index, max_wait_ms=1.0))
        code, served = client.post(
            "/search", {"query": queries[0].tolist(), "k": 5.0}
        )
        assert code == 200 and len(served["ids"]) == 5
