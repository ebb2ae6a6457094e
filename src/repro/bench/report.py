"""Plain-text table rendering for benchmark output and EXPERIMENTS.md,
plus :func:`unified_snapshot` — the single merged view of every counter
a simulated stack produces (engine, filesystem, device, obs metrics).

One builder covers one engine (a one-machine stack) and a whole
:mod:`repro.cluster` store: pass a ``ClusterStore`` as ``db`` and the
engine/device/fs sections aggregate across every node, per-shard
sections (``shard0``...) carry each shard's own view, a ``replication``
section reports lag, shipped records, and failovers, and a ``net``
section the fabric's counters."""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

__all__ = ["format_table", "format_markdown_table", "unified_snapshot",
           "aggregate_engine_stats"]


def _stringify(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4g}"
    return str(value)


def format_table(rows: Sequence[Dict[str, object]],
                 title: str = "") -> str:
    """Render dict rows as an aligned ASCII table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    columns = list(rows[0].keys())
    cells = [[_stringify(row.get(col, "")) for col in columns] for row in rows]
    widths = [max(len(col), *(len(row[i]) for row in cells))
              for i, col in enumerate(columns)]
    lines: List[str] = []
    if title:
        lines.append(title)
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def _sum_numeric(dicts: Iterable[Dict[str, float]]) -> Dict[str, float]:
    """Key-wise sum of the numeric fields of several flat dicts."""
    total: Dict[str, float] = {}
    for entry in dicts:
        for key, value in entry.items():
            if isinstance(value, bool):
                value = int(value)
            if isinstance(value, (int, float)):
                total[key] = total.get(key, 0) + value
    return total


def _engine_rollup(dbs) -> Dict[str, float]:
    """Key-wise counter sums plus mean cache hit ratios over ``dbs``."""
    engine = _sum_numeric(dict(vars(db.stats.snapshot())) for db in dbs)
    engine["table_cache_hit_ratio"] = (
        sum(db.table_cache.hit_ratio for db in dbs) / len(dbs))
    engine["block_cache_hit_ratio"] = (
        sum(db.block_cache.hit_ratio for db in dbs) / len(dbs))
    return engine


def aggregate_engine_stats(dbs) -> Dict[str, float]:
    """Roll one ``engine`` section up from several engine instances.

    Counters are key-wise sums of each engine's
    :class:`~repro.lsm.engine.EngineStats`; the cache hit ratios are
    unweighted means across the instances (each engine serves its own
    shard, so the mean is "the typical shard's cache behavior").
    """
    dbs = list(dbs)
    if not dbs:
        return {}
    engine = _engine_rollup(dbs)
    engine["engines"] = len(dbs)
    return engine


def _cluster_sections(cluster) -> Dict[str, Dict[str, float]]:
    """The store's own sections (``shardN``, ``replication``, ``net``),
    read off its :meth:`~repro.cluster.ClusterStore.describe` status."""
    status = cluster.describe()
    rows = status["shards"]
    sections: Dict[str, Dict[str, float]] = {}
    for shard, row in zip(cluster.shards, rows):
        per_shard = dict(vars(shard.primary.db.stats.snapshot()))
        per_shard.update((key, row[key]) for key in (
            "failovers", "wal_tail_records_replayed", "replication_max_lag",
            "epoch", "fenced_writes", "fenced_ships"))
        per_shard["replicas"] = len(row["replicas"])
        per_shard["read_only"] = int(shard.primary.db.health.read_only)
        sections[f"shard{row['shard']}"] = per_shard
    replication = {key: status[key] for key in (
        "failovers", "wal_tail_records_replayed", "fenced_writes",
        "fenced_ships", "partition_promotions")}
    replication["failed_shards"] = sum(
        row["state"] == "failed" for row in rows)
    replication["records_applied"] = sum(
        row["records_applied"] for row in rows)
    replication["backlog"] = sum(row["backlog"] for row in rows)
    replication["replicas"] = sum(len(row["replicas"]) for row in rows)
    replication["max_lag"] = status["max_replication_lag"]
    sections["replication"] = replication
    sections["net"] = {key: float(value)
                       for key, value in status["net"].items()}
    return sections


def unified_snapshot(stack, db=None, tracer=None, server=None,
                     recorder=None) -> Dict[str, Dict[str, float]]:
    """Merge every counter in a simulated stack into one nested dict.

    Figures, ``dbbench stats`` and trace summaries should all read from
    this so they can never disagree.  Sections:

    * ``clock``   — the virtual time of the snapshot
    * ``device``  — :class:`~repro.storage.DeviceStats` fields
    * ``fs``      — :class:`~repro.storage.FSStats` fields plus the
      derived ``num_barrier_calls`` (the paper's headline count)
    * ``engine``  — :class:`~repro.lsm.engine.EngineStats` fields plus
      cache hit ratios (only when ``db`` is given)
    * ``health``  — :class:`~repro.health.ErrorManager` counters plus
      device ``eio_retries`` and the quarantined-table count (only when
      ``db`` is given)
    * ``tier``    — :class:`~repro.objstore.TieringPolicy` counters
      (demotions, remote request/dollar totals, LSST-cache hit rate and
      miss p999) — only when the engine has tiering installed
    * ``metrics`` — the :class:`~repro.obs.MetricsRegistry` counters and
      gauges (only when an enabled tracer observes the stack)
    * ``svc``     — :class:`~repro.svc.ServerStats` counters (only when
      a ``server`` is given)
    * ``latency`` — per-kind count/mean/p99 from a
      :class:`~repro.bench.metrics.LatencyRecorder`, aux dimensions
      (``kind.wait``/``kind.service``) included (only when a
      ``recorder`` is given)

    ``stack`` is one machine: anything with ``env``/``device``/``fs``
    attributes (the harness's :class:`~repro.bench.harness.Stack`);
    ``tracer`` defaults to the one installed on its ``env``.

    A :class:`~repro.cluster.ClusterStore` owns its machines, so for one
    ``stack`` is ``None`` and ``db`` is the store.  The snapshot is the
    same builder over more machines: ``device``/``fs`` sum over every
    node; ``engine``/``health`` roll up the shard *primaries* (the
    serving engines; ``engine`` gains their count as ``engines``,
    ``health`` the ``read_only_shards`` count); and the store
    adds its own sections — ``shardN`` (each shard's engine/replication
    view), ``replication`` (cluster-wide lag/shipping/failover counters)
    and ``net`` (the fabric's counters).
    """
    cluster = db if stack is None else None
    if cluster is not None:
        machines = cluster.nodes()
        serving = [node.db for node in cluster.primaries()]
    else:
        machines = [stack]
        serving = [db] if db is not None else []
    env = machines[0].env
    snap: Dict[str, Dict[str, float]] = {
        "clock": {"virtual_seconds": env.now},
        "device": _sum_numeric(dict(vars(m.device.stats.snapshot()))
                               for m in machines),
        "fs": _sum_numeric(dict(vars(m.fs.stats.snapshot()))
                           for m in machines),
    }
    snap["fs"]["num_barrier_calls"] = sum(
        m.fs.stats.num_barrier_calls for m in machines)
    if serving:
        snap["engine"] = _engine_rollup(serving)
        # A cluster rolls up the numeric counters; one engine keeps its
        # diagnostics (``reason``, ``errors_by_site``) as well.
        health = (dict(db.health.snapshot()) if cluster is None
                  else _sum_numeric(engine.health.snapshot()
                                    for engine in serving))
        health["eio_retries"] = sum(m.device.stats.num_eio_retries
                                    for m in machines)
        health["quarantined_tables"] = sum(len(engine._quarantined)
                                           for engine in serving)
        snap["health"] = health
    if cluster is not None:
        snap["engine"]["engines"] = len(serving)
        snap["health"]["read_only_shards"] = snap["health"]["read_only"]
        snap.update(_cluster_sections(cluster))
    elif serving and db.tiering is not None:
        # Tier counters exist only when the objstore subsystem was
        # installed, so the untiered snapshot stays byte-identical.
        snap["tier"] = db.tiering.snapshot()
    if tracer is None:
        tracer = env.tracer
    if tracer.enabled:
        snap["metrics"] = tracer.metrics.snapshot()
    if server is not None:
        snap["svc"] = server.stats.snapshot()
    if recorder is not None:
        latency: Dict[str, float] = {}
        for kind in recorder.kinds(include_aux=True):
            latency[f"{kind}.count"] = recorder.count(kind)
            latency[f"{kind}.mean"] = recorder.mean(kind)
            latency[f"{kind}.p99"] = recorder.percentile(99.0, kind)
        snap["latency"] = latency
    return snap


def format_markdown_table(rows: Sequence[Dict[str, object]]) -> str:
    """Render dict rows as a GitHub-flavored markdown table."""
    if not rows:
        return "(no rows)"
    columns = list(rows[0].keys())
    lines = ["| " + " | ".join(columns) + " |",
             "|" + "|".join("---" for _ in columns) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(_stringify(row.get(col, ""))
                                       for col in columns) + " |")
    return "\n".join(lines)
