"""In-memory span tracer that wraps the program's layer entry points.

The benchmark times layers from the outside: :func:`install_index` and
:func:`install_serving` replace each
public entry point at the name its caller looks it up under (a class
attribute, or a module global for functions imported by name) with a
wrapper that records a span.  Nothing under ``src/`` changes.

A span is ``(id, name, start, end, parent, request, thread, attrs)``:
``parent`` is the enclosing span on the same thread, ``request`` the id the
client sent in the ``X-Request-Id`` header (inherited by every span the
handler thread opens), and ``attrs`` holds counts read at the boundary —
e.g. the member request ids of a coalesced batch, or a ProMIPS batch's
per-query candidates and pages.  Spans stay in memory and are written out
once, by :meth:`Tracer.dump`, when the traced process ends.
"""

from __future__ import annotations

import inspect
import itertools
import json
import threading
import time

REQUEST_HEADER = "X-Request-Id"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.future_requests: dict[int, object] = {}

    @property
    def request(self):
        return getattr(self._local, "request", None)

    def wrap(self, owner, attr: str, name: str, attrs=None, request=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        Args:
            attrs: ``f(args, result) -> dict`` read after the call.
            request: ``f(args) -> id`` naming the request this call serves;
                spans opened inside it on the same thread inherit the id.
        """
        raw = inspect.getattr_static(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind else raw
        spans, ids, local = self.spans, self._ids, self._local

        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            outer = getattr(local, "request", None)
            if request is not None:
                local.request = request(args)
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.monotonic()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                current = getattr(local, "request", None)
                if request is not None:
                    local.request = outer
            extra = attrs(args, result) if attrs is not None else None
            spans.append((sid, name, start, end, parent, current, threading.get_ident(), extra))
            return result

        wrapper.__wrapped__ = func
        setattr(owner, attr, kind(wrapper) if kind else wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def _promips_rows(args, batch) -> dict:
    stats = batch.stats
    return {
        "candidates": [int(s.candidates) for s in stats],
        "pages": [int(s.pages) for s in stats],
        "expansions": [int(s.extras.get("expansions", 0)) for s in stats],
        "condition_b": [int(s.extras.get("stopped_by") == "condition_b") for s in stats],
        "k": int(batch.ids.shape[1]) if batch.ids.ndim == 2 else 0,
    }


def install_index(tracer: Tracer) -> None:
    """Wrap the index layers: ProMIPS stages, dynamic, sharded, engine,
    maintenance and build."""
    from repro.core import dynamic, engine, promips, quickprobe, sharded
    from repro.index import ring_idistance
    from repro.storage import pagefile

    w = tracer.wrap
    w(promips.ProMIPS, "search_many", "promips.search_many", attrs=_promips_rows)
    w(promips.ProMIPS, "build", "build.promips")
    w(promips, "project_batch", "engine.project_batch")
    w(quickprobe.QuickProbe, "probe_many", "quickprobe.probe_many")
    w(ring_idistance.RingIDistance, "range_search", "ring.range_search")
    w(ring_idistance, "kmeans", "build.kmeans")
    w(engine.CandidateVerifier, "verify", "engine.verify")
    w(pagefile.VectorReader, "get_many", "pagefile.read")
    w(pagefile.VectorReader, "get", "pagefile.read")
    w(dynamic, "batch_inner_products", "engine.gemm")
    w(dynamic, "merge_topk_panels", "engine.merge")
    w(sharded, "merge_topk_panels", "engine.merge")

    w(
        dynamic.DynamicProMIPS, "search_many", "dynamic.search_many",
        attrs=lambda a, r: {"delta": a[0].delta_size, "tombstones": a[0].tombstone_count},
    )
    w(dynamic.DynamicProMIPS, "insert", "dynamic.insert")
    w(dynamic.DynamicProMIPS, "delete", "dynamic.delete")
    w(dynamic.DynamicProMIPS, "build_generation", "maintenance.build")
    w(
        dynamic.DynamicProMIPS, "commit_rebuild", "maintenance.commit",
        attrs=lambda a, r: {
            "replayed": int(r.get("replayed_inserts", 0)) + int(r.get("replayed_deletes", 0))
        },
    )
    w(
        sharded.ShardedIndex, "search_many", "sharded.search_many",
        attrs=lambda a, r: {"shard_seconds": list(a[0].last_shard_seconds)},
    )


def install_serving(tracer: Tracer) -> None:
    """Wrap the HTTP handler, runtime, cache and coalescer."""
    from repro.serve import cache, microbatch, server

    w = tracer.wrap
    w(server._Handler, "do_POST", "server.do_POST",
      request=lambda a: a[0].headers.get(REQUEST_HEADER))
    for verb in ("search", "insert", "delete", "search_batch"):
        w(server.ServingRuntime, verb, f"runtime.{verb}")
    w(cache.ResultCache, "get", "cache.get")
    w(cache.ResultCache, "put", "cache.put")
    w(microbatch.MicroBatcher, "search", "microbatch.search")

    def remember(args, future):
        tracer.future_requests[id(future)] = tracer.request
        return None

    w(microbatch.MicroBatcher, "submit", "microbatch.submit", attrs=remember)
    w(
        microbatch.MicroBatcher, "_dispatch", "microbatch.dispatch",
        attrs=lambda a, r: {
            "members": [tracer.future_requests.pop(id(req.future), None) for req in a[1]]
        },
    )
