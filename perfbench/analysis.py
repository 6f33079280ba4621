"""Statistics of the perfbench workloads: pure functions over the raw
samples the driver writes, so they can be unit-tested without a build.

Percentiles use the nearest-rank method: the p-th percentile of n sorted
samples is the value at rank ceil(p/100 * n), 1-based.
"""

import json
import math

CLASSES = ("hit", "warm", "cold")
STAGES = ("parse", "admission", "queue", "execute", "serialize")
FAILED_OUTCOMES = ("error", "transport", "wrong", "path")

# Service-level objective of a serve_mix ladder step.
HIT_P99_LIMIT_MS = 500.0
WARM_P95_LIMIT_MS = 1000.0


def percentile(values, p):
    """Nearest-rank percentile; None for an empty sample."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def median(values):
    if not values:
        return None
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def geomean(values):
    values = [v for v in values if v is not None]
    if not values or any(v <= 0 for v in values):
        return None
    return math.exp(sum(math.log(v) for v in values) / len(values))


# --- serve_mix: open-loop steps ---------------------------------------------


def step_events(step):
    """One dict per event of a raw step document."""
    keys = ("cls", "outcome", "sched_ms", "sent_ms", "done_ms", "served_from")
    return [dict(zip(keys, row)) for row in zip(*(step[k] for k in keys))]


def latencies(events, cls):
    """Latency (ms from the scheduled send) of the answered events of a
    class; shed and failed events have none."""
    return [e["done_ms"] - e["sched_ms"] for e in events
            if e["cls"] == cls and e["outcome"] in ("ok",)]


def count(events, cls=None, outcomes=None):
    return sum(1 for e in events
               if (cls is None or e["cls"] == cls)
               and (outcomes is None or e["outcome"] in outcomes))


def generator_lag(events):
    """How late the generator sent each event (ms)."""
    return [e["sent_ms"] - e["sched_ms"] for e in events if e["sent_ms"] >= 0]


BACKLOG_SLACK_MS = 100.0


LAG_PERCENTILE = 90
LAG_SHARE = 0.25


def generator_kept_up(lags, hit_p50):
    """An open-loop run is valid only when the generator sent on time: its
    LAG_PERCENTILE lag must stay under LAG_SHARE of the hit p50 latency.
    (The p99 lag is reported, but on a shared machine a few preemptions of
    the sender set it regardless of the generator.)"""
    lag = percentile(lags, LAG_PERCENTILE)
    return lag is not None and hit_p50 is not None and lag <= LAG_SHARE * hit_p50


def backlog_growing(events, slack_ms=BACKLOG_SLACK_MS):
    """True when work piles up over the step: hit events scheduled in the
    last third of the step wait, on average, more than `slack_ms` longer
    than those of the first third.  Hits are the most numerous class and
    queue behind every other one, so their mean tracks the queue; a shed or
    failed hit counts as waiting the whole hit p99 limit."""
    hits = sorted((e for e in events if e["cls"] == "hit"),
                  key=lambda e: e["sched_ms"])
    third = len(hits) // 3
    if third == 0:
        return False

    def late(e):
        if e["outcome"] == "ok":
            return e["done_ms"] - e["sched_ms"]
        return HIT_P99_LIMIT_MS

    first = sum(late(e) for e in hits[:third]) / third
    last = sum(late(e) for e in hits[-third:]) / third
    return last - first > slack_ms


def slo_verdict(events):
    """(passed, reasons) of one step against the SLO: hit p99 within
    HIT_P99_LIMIT_MS, warm p95 within WARM_P95_LIMIT_MS, no hit or warm
    sheds, no failed events, and no growing backlog."""
    reasons = []
    for cls in ("hit", "warm"):
        sheds = count(events, cls, ("shed",))
        if sheds:
            reasons.append("%d %s sheds" % (sheds, cls))
    failed = count(events, None, FAILED_OUTCOMES)
    if failed:
        reasons.append("%d failed events" % failed)
    hit_p99 = percentile(latencies(events, "hit"), 99)
    if hit_p99 is not None and hit_p99 > HIT_P99_LIMIT_MS:
        reasons.append("hit p99 %.1f ms" % hit_p99)
    warm_p95 = percentile(latencies(events, "warm"), 95)
    if warm_p95 is not None and warm_p95 > WARM_P95_LIMIT_MS:
        reasons.append("warm p95 %.1f ms" % warm_p95)
    if backlog_growing(events):
        reasons.append("growing backlog")
    return not reasons, reasons


def max_qps_in_slo(ladder):
    """Highest ladder rate whose step, and every lower step, met the SLO;
    0.0 when the first step already missed it.  `ladder` is a list of
    (qps, events) pairs."""
    best = 0.0
    for qps, events in sorted(ladder, key=lambda s: s[0]):
        if not slo_verdict(events)[0]:
            break
        best = qps
    return best


def top_step_shed(ladder):
    """The ladder must end at a step that shed work."""
    if not ladder:
        return False
    _, events = max(ladder, key=lambda s: s[0])
    return count(events, None, ("shed",)) > 0


# --- serve_mix: the per-request ledger --------------------------------------


def read_access_log(path):
    """(trace_id, op) -> access-log record, for traced requests."""
    records = {}
    try:
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                rec = json.loads(line)
                if rec.get("trace_id"):
                    records[(rec["trace_id"], rec.get("op"))] = rec
    except OSError:
        pass
    return records


ANSWER_OP = {"hit": "partition", "warm": "repartition", "cold": "partition"}


def join_stages(step, access, replay):
    """Join each traced, answered event's response `stages_us` with the
    access-log `write_us` of the same request (by trace_id and op) and the
    in-process replay of the same event (by trace_id).

    Returns one row per joined event: cls, latency_us, the stage durations,
    write_us, unattributed_us (client latency minus every stage: socket,
    client and generator time) and the replay layer timings."""
    rows = []
    events = step_events(step)
    for i, e in enumerate(events):
        if e["outcome"] != "ok":
            continue
        trace_id = step["trace_id"][i]
        stages = {s: step["stages_us"][s][i] for s in STAGES}
        if not trace_id or any(v is None or v < 0 for v in stages.values()):
            continue
        log = access.get((trace_id, ANSWER_OP[e["cls"]]))
        if log is None:
            continue
        latency_us = 1e3 * (e["done_ms"] - e["sched_ms"])
        row = {"cls": e["cls"], "trace_id": trace_id,
               "latency_us": latency_us, "write_us": log.get("write_us", 0)}
        row.update(stages)
        row["unattributed_us"] = (latency_us - sum(stages.values())
                                  - row["write_us"])
        row["replay"] = replay.get(trace_id)
        rows.append(row)
    return rows


def ledger(rows):
    """Per class: median of each stage, then of each replayed layer call,
    then of the unattributed remainder (all in microseconds)."""
    out = {}
    for cls in CLASSES:
        mine = [r for r in rows if r["cls"] == cls]
        if not mine:
            continue
        entry = {"events": len(mine),
                 "latency_us": median([r["latency_us"] for r in mine])}
        for s in STAGES + ("write",):
            key = s + "_us" if s == "write" else s
            entry["stage." + s] = median([r[key] for r in mine])
        layers = {}
        for r in mine:
            for name, value in (r["replay"] or {}).items():
                layers.setdefault(name, []).append(value)
        for name in sorted(layers):
            entry["layer." + name] = median(layers[name])
        entry["unattributed"] = median([r["unattributed_us"] for r in mine])
        out[cls] = entry
    return out
