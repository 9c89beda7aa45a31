"""Per-layer metrics from recorded spans (see ``spans.py``).

A request's blocking path is split into self times that add up to the
latency the client saw::

    socket    client latency minus the do_POST span (request parse, the
              socket in both directions and the client's own work)
    server    do_POST minus the runtime call: decode, validate, encode, write
    runtime   ServingRuntime.search/insert/delete minus what it calls
    cache     ResultCache.get + put
    queue     MicroBatcher.search minus the coalesced dispatch it waited on
    dispatch  the part of that dispatch spent outside the index
    index     the index's search_many (or insert/delete) while it waited

The dispatch runs on the coalescer thread; it is joined to its member
requests by the request ids it records.  ``trace.coverage`` is the sum of
the parts over the sum of client latencies: below 1 when spans are missing.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from stats import percentile, self_time, union_length

SID, NAME, START, END, PARENT, REQUEST, THREAD, ATTRS = range(8)


def _dur(span) -> float:
    return span[END] - span[START]


def _median_ms(values, scale: float = 1e3) -> float:
    return percentile(values, 50) * scale if len(values) else 0.0


class SpanIndex:
    def __init__(self, spans) -> None:
        self.by_id = {s[SID]: s for s in spans}
        self.children = defaultdict(list)
        self.by_name = defaultdict(list)
        self.dispatches = defaultdict(list)
        for s in spans:
            if s[PARENT] is not None:
                self.children[s[PARENT]].append(s)
            self.by_name[s[NAME]].append(s)
        for s in self.by_name["microbatch.dispatch"]:
            for rid in (s[ATTRS] or {}).get("members", ()):
                self.dispatches[rid].append(s)

    def self_time(self, span, extra=(), only=None) -> float:
        """Self time of ``span``; ``only`` restricts the children subtracted
        to those names, ``extra`` adds spans from other threads."""
        kids = [
            (c[START], c[END]) for c in self.children[span[SID]] if only is None or c[NAME] in only
        ]
        kids += [(c[START], c[END]) for c in extra]
        return self_time(span[START], span[END], kids)

    def ancestor(self, span, name):
        while span is not None:
            if span[NAME] == name:
                return span
            span = self.by_id.get(span[PARENT])
        return None


def request_parts(index: SpanIndex, records) -> list[dict]:
    """Blocking-path parts (seconds) of every answered request."""
    posts = {s[REQUEST]: s for s in index.by_name["server.do_POST"]}
    out = []
    for rec in records:
        latency = rec.done - rec.sent
        parts = {"kind": rec.kind, "latency": latency}
        out.append(parts)
        post = posts.get(str(rec.rid))
        if post is None:
            continue
        parts["socket"] = max(latency - _dur(post), 0.0)
        parts["server"] = index.self_time(post)
        for runtime in index.children[post[SID]]:
            parts["runtime"] = index.self_time(runtime)
            for child in index.children[runtime[SID]]:
                if child[NAME].startswith("cache."):
                    parts["cache"] = parts.get("cache", 0.0) + _dur(child)
                elif child[NAME] == "microbatch.search":
                    lo, hi = child[START], child[END]
                    xs = index.dispatches.get(post[REQUEST], [])
                    waited = union_length([(x[START], x[END]) for x in xs], lo, hi)
                    inner = [
                        (c[START], c[END]) for x in xs for c in index.children[x[SID]]
                    ]
                    parts["queue"] = index.self_time(child, extra=xs)
                    parts["index"] = union_length(inner, lo, hi)
                    parts["dispatch"] = waited - parts["index"]
                else:
                    parts["index"] = parts.get("index", 0.0) + _dur(child)
    return out


def coverage(parts: list[dict]) -> float:
    keys = ("socket", "server", "runtime", "cache", "queue", "dispatch", "index")
    total = sum(p["latency"] for p in parts)
    covered = sum(p.get(key, 0.0) for p in parts for key in keys)
    return covered / total if total > 0 else 0.0


def span_metrics(spans, records=(), window=None, row_items=None, count_items=None) -> dict:
    """Per-layer metrics that come from spans.

    Args:
        records: the timed window's answered requests (served workloads).
        window: ``(start, end)``; cache and request-path spans outside it
            (warm-up, checks) are ignored.
        row_items: ``f(index, promips_span) -> list | None`` naming the
            workload item each row of a ProMIPS batch answered.
        count_items: the items the ProMIPS counts are taken over (first
            answer of each), so they repeat exactly for a seed; ``None``
            takes every row.
    """
    index = SpanIndex(spans)
    named = index.by_name
    lo, hi = window if window is not None else (-np.inf, np.inf)
    m: dict[str, float] = {}

    parts = request_parts(index, records)
    searches = [p for p in parts if p["kind"] == "search"] or parts

    def part_ms(key):
        return _median_ms([p[key] for p in searches if key in p])

    m["socket.wait_ms_p50"] = part_ms("socket")
    m["server.self_ms_p50"] = part_ms("server")
    m["runtime.self_ms_p50"] = part_ms("runtime")
    m["microbatch.queue_wait_ms_p50"] = part_ms("queue")
    m["microbatch.dispatch_self_ms_p50"] = part_ms("dispatch")
    m["index.blocking_ms_p50"] = part_ms("index")
    m["trace.coverage"] = coverage(parts)
    gets = [_dur(s) for s in named["cache.get"] if lo <= s[START] <= hi]
    m["cache.get_us_p50"] = _median_ms(gets, 1e6)

    dyn = named["dynamic.search_many"]
    m["dynamic.search_self_ms_p50"] = _median_ms(
        [index.self_time(s, only=("promips.search_many",)) for s in dyn]
    )
    m["dynamic.delta_rows_mean"] = float(np.mean([s[ATTRS]["delta"] for s in dyn])) if dyn else 0.0
    m["dynamic.tombstones_mean"] = (
        float(np.mean([s[ATTRS]["tombstones"] for s in dyn])) if dyn else 0.0
    )
    m["dynamic.insert_us_p50"] = _median_ms([_dur(s) for s in named["dynamic.insert"]], 1e6)
    m["dynamic.delete_us_p50"] = _median_ms([_dur(s) for s in named["dynamic.delete"]], 1e6)

    commits = named["maintenance.commit"]
    m["maintenance.rebuilds"] = float(len(commits))
    m["maintenance.build_s_total"] = sum(_dur(s) for s in named["maintenance.build"])
    m["maintenance.commit_ms_max"] = max((_dur(s) for s in commits), default=0.0) * 1e3
    m["maintenance.replayed_ops"] = float(sum(s[ATTRS]["replayed"] for s in commits))

    fan = named["sharded.search_many"]
    m["sharded.fanout_ms_p50"] = _median_ms([_dur(s) for s in fan])
    m["sharded.merge_ms_p50"] = _median_ms(
        [_dur(s) - max(s[ATTRS]["shard_seconds"], default=0.0) for s in fan]
    )

    pro = named["promips.search_many"]
    rows = sum(len(s[ATTRS]["candidates"]) for s in pro)

    def per_q(total):
        return total * 1e3 / rows if rows else 0.0

    m["promips.search_ms_per_q"] = per_q(sum(_dur(s) for s in pro))
    m["engine.project_ms_per_q"] = per_q(sum(_dur(s) for s in named["engine.project_batch"]))
    m["quickprobe.probe_ms_per_q"] = per_q(sum(_dur(s) for s in named["quickprobe.probe_many"]))
    m["ring.range_ms_per_q"] = per_q(sum(index.self_time(s) for s in named["ring.range_search"]))
    m["engine.verify_ms_per_q"] = per_q(sum(index.self_time(s) for s in named["engine.verify"]))
    m["pagefile.read_ms_per_q"] = per_q(sum(_dur(s) for s in named["pagefile.read"]))

    counted: dict = {}
    k = 0
    for s in sorted(pro, key=lambda s: s[START]):
        items = row_items(index, s) if row_items is not None else None
        attrs = s[ATTRS]
        k = max(k, attrs["k"])
        for row in range(len(attrs["candidates"])):
            item = items[row] if items is not None else (s[SID], row)
            if count_items is not None and item not in count_items:
                continue
            counted.setdefault(item, tuple(attrs[key][row] for key in (
                "candidates", "pages", "expansions", "condition_b")))
    if counted:
        cand, pages, expansions, cond_b = np.mean(list(counted.values()), axis=0)
        m["promips.candidates_per_q"] = float(cand)
        m["promips.pages_per_q"] = float(pages)
        m["promips.expansions_per_q"] = float(expansions)
        m["promips.verified_per_result"] = float(cand) / k if k else 0.0
        m["promips.stop_condition_b_frac"] = float(cond_b)

    m["engine.gemm_ms"] = _median_ms([_dur(s) for s in named["engine.gemm"]])
    m["engine.merge_ms"] = _median_ms([_dur(s) for s in named["engine.merge"]])
    builds = named["build.promips"]
    m["build.promips_s"] = percentile([_dur(s) for s in builds], 50) if builds else 0.0
    m["build.kmeans_s"] = (
        sum(_dur(s) for s in named["build.kmeans"]) / len(builds) if builds else 0.0
    )
    return m


def dispatch_items(item_of: dict):
    """``row_items`` for served runs: a ProMIPS batch's rows are the member
    requests of the coalesced dispatch it ran under, in order."""

    def rows(index: SpanIndex, span):
        dispatch = index.ancestor(span, "microbatch.dispatch")
        if dispatch is None:
            return None
        return [item_of.get(rid) for rid in dispatch[ATTRS]["members"]]

    return rows
