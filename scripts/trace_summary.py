#!/usr/bin/env python3
"""Summarize a capsp Chrome trace: top-k phases by critical-path cost.

Usage:
    python3 scripts/trace_summary.py trace.json [--top K] [--axis latency|bandwidth]
    python3 scripts/trace_summary.py metrics metrics.json [--top K]
    python3 scripts/trace_summary.py serve serve.json
    python3 scripts/trace_summary.py reqtrace reqtrace.json [--top K]
    python3 scripts/trace_summary.py prom scrape.txt
    python3 scripts/trace_summary.py prof profile.json|stacks.folded [--top K]
    python3 scripts/trace_summary.py logs dump.json|logs.jsonl [--last K]
    python3 scripts/trace_summary.py comm comm.json|report.json [--top K]

Unknown subcommands and malformed/truncated JSON inputs exit 2 with a
one-line "trace_summary: error: ..." diagnostic (no traceback), so CI
pipelines get a structured failure instead of a Python stack dump.

Reads the trace JSON written by `apsp_tool --trace=<file>` (or
write_chrome_trace), pulls the critical-path decomposition the exporter
embeds under the top-level "capsp" key, and prints the phases that
contribute most to the end-to-end critical cost.  Exits non-zero when the
file is not a capsp trace, so it doubles as a CI validator.

Also understands the robustness artifacts (docs/robustness.md): a cost
report JSON with "reliability"/"faults" sections prints the
retransmission summary, and a deadlock report JSON (apsp_tool exit 3)
prints the blocked receives and the wait cycle.
"""
import argparse
import json
import sys


def summarize_deadlock(report):
    """Render a write_deadlock_report_json artifact; always exits 0 so the
    summary pipeline can run on the post-mortem of a failed run."""
    blocked = report.get("blocked", [])
    print(f"DEADLOCK: no rank can proceed; {len(blocked)} blocked receive(s)")
    for b in blocked:
        print(f"  rank {b['rank']} <- (src {b['src']}, tag {b['tag']}) "
              f"phase \"{b['phase']}\" clock (L={b['L']:g}, B={b['B']:g})")
    cycle = report.get("cycle", [])
    if cycle:
        print("  wait cycle: " + " -> ".join(str(r) for r in cycle + [cycle[0]]))
    dead = report.get("dead_ranks", [])
    if dead:
        print("  dead ranks: " + " ".join(str(r) for r in dead))
    return 0


def summarize_robustness(record):
    """Print the reliability/fault sections a cost report or trace may
    carry (no-op for plain runs)."""
    reliability = record.get("reliability")
    if reliability:
        print(f"\nreliability: {reliability['frames_sent']} frames sent, "
              f"{reliability['retransmissions']} retransmissions, "
              f"{reliability['corrupt_rejected']} corrupt rejected, "
              f"{reliability['duplicates_dropped']} duplicates dropped, "
              f"{reliability['reordered']} reordered")
    faults = record.get("faults")
    if faults:
        print(f"injected faults: {faults['drops']} dropped, "
              f"{faults['duplicates']} duplicated, "
              f"{faults['corruptions']} corrupted, "
              f"{faults['delays']} delayed, {faults['kills']} killed, "
              f"{faults['stalls']} stalled")


def summarize_metrics(argv):
    """The `metrics` subcommand: render an `apsp_tool --metrics-json` dump
    (docs/metrics.md) — top-k counters, gauges, histogram percentiles, and
    the cost-oracle predicted-vs-measured table when present."""
    parser = argparse.ArgumentParser(
        prog="trace_summary.py metrics",
        description="Summarize an apsp_tool --metrics-json dump.")
    parser.add_argument("metrics", help="metrics JSON from --metrics-json")
    parser.add_argument("--top", type=int, default=15,
                        help="number of counters to print (default 15)")
    args = parser.parse_args(argv)

    with open(args.metrics) as f:
        doc = json.load(f)
    metrics = doc.get("metrics")
    if metrics is None:
        print(f"error: {args.metrics} has no 'metrics' key — not a metrics "
              "dump", file=sys.stderr)
        return 1

    counters = {n: m["value"] for n, m in metrics.items()
                if m["kind"] == "counter"}
    gauges = {n: m["value"] for n, m in metrics.items()
              if m["kind"] == "gauge"}
    histograms = {n: m for n, m in metrics.items()
                  if m["kind"] == "histogram"}
    print(f"metrics: {len(counters)} counters, {len(gauges)} gauges, "
          f"{len(histograms)} histograms")

    if counters:
        ranked = sorted(counters.items(), key=lambda kv: -kv[1])
        print(f"\ntop {min(args.top, len(ranked))} counters:")
        for name, value in ranked[:args.top]:
            print(f"  {name:<40} {value:>14,}")
    if gauges:
        print("\ngauges:")
        for name, value in sorted(gauges.items()):
            print(f"  {name:<40} {value:>14g}")
    if histograms:
        print("\nhistograms:")
        print(f"  {'name':<40} {'count':>9} {'min':>8} {'mean':>10} "
              f"{'p50':>8} {'p95':>8} {'max':>8}")
        for name, h in sorted(histograms.items()):
            print(f"  {name:<40} {h['count']:>9,} {h['min']:>8g} "
                  f"{h['mean']:>10.4g} {h['p50']:>8g} {h['p95']:>8g} "
                  f"{h['max']:>8g}")

    oracle = doc.get("oracle")
    if oracle:
        print(f"\ncost oracle ({oracle['model']}): predicted vs measured")
        print(f"  {'axis':<10} {'predicted':>14} {'measured':>14} "
              f"{'ratio':>8}")
        for axis in ("bandwidth", "latency"):
            print(f"  {axis:<10} {oracle[f'predicted_{axis}']:>14.6g} "
                  f"{oracle[f'measured_{axis}']:>14.6g} "
                  f"{oracle[f'{axis}_ratio']:>8.3f}")
    return 0


def summarize_serve(argv):
    """The `serve` subcommand: render a DistanceService summary JSON
    (serve_tool --report-json, docs/serving.md) — request totals by
    outcome and kind, cache behaviour, and latency percentiles."""
    parser = argparse.ArgumentParser(
        prog="trace_summary.py serve",
        description="Summarize a serve_tool --report-json dump.")
    parser.add_argument("report", help="summary JSON from --report-json")
    args = parser.parse_args(argv)

    with open(args.report) as f:
        doc = json.load(f)
    serve = doc.get("serve")
    if serve is None:
        print(f"error: {args.report} has no 'serve' key — not a serving "
              "summary", file=sys.stderr)
        return 1

    snap = serve["snapshot"]
    backing = "file-backed" if snap["file_backed"] else "in-memory"
    print(f"snapshot: {snap['rows']}x{snap['cols']} in {snap['tiles']} "
          f"tiles of {snap['tile_dim']} ({backing})")
    print(f"service: {serve['threads']} workers, cache budget "
          f"{serve['cache_bytes']:,} bytes, max queue "
          f"{serve['max_queue']}")

    req = serve["requests"]
    print(f"\nrequests: {req['total']:,} total "
          f"({req['distance']:,} distance, {req['path']:,} path, "
          f"{req['knear']:,} knear)")
    line = (f"  ok {req['ok']:,}, overloaded {req['overloaded']:,}, "
            f"deadline_exceeded {req['deadline_exceeded']:,}, "
            f"shutdown {req['shutdown']:,}")
    if req.get("degraded") is not None:
        line += f", degraded {req['degraded']:,}"
    print(line)

    cache = serve["cache"]
    lookups = cache["hits"] + cache["misses"]
    print(f"\ncache: {cache['hits']:,} hits / {lookups:,} lookups "
          f"({100.0 * cache['hit_rate']:.1f}% hit rate), "
          f"{cache['evictions']:,} evictions, "
          f"{cache['bytes']:,} bytes resident in {cache['entries']:,} "
          f"tiles")
    print(f"tile bytes read: {serve['bytes_read']:,}")

    lat = serve["latency_us"]
    if lat["count"] > 0:
        print(f"\nlatency (us): mean {lat['mean']:.1f}, "
              f"p50 {lat['p50']:g}, p95 {lat['p95']:g}, "
              f"max {lat['max']:.1f} over {lat['count']:,} requests")

    # Observability sections (docs/telemetry.md); older summaries that
    # predate them are still summarized without.
    shards = cache.get("shards")
    if shards:
        busiest = max(shards, key=lambda s: s["hits"] + s["misses"])
        idx = shards.index(busiest)
        lookups = busiest["hits"] + busiest["misses"]
        print(f"cache shards: {len(shards)}, busiest shard {idx} with "
              f"{lookups:,} lookups, {busiest['evictions']:,} evictions, "
              f"{busiest['bytes']:,} bytes resident")

    windows = serve.get("windows")
    if windows:
        w = windows["latency_us"]
        print(f"\nwindow ({windows['seconds']:g}s, covered "
              f"{w['covered_seconds']:g}s): {w['count']:,} requests at "
              f"{w['rate_per_second']:,.1f}/s, p50 {w['p50']:g} us, "
              f"p95 {w['p95']:g} us, p99 {w['p99']:g} us")
        e = windows["errors"]
        print(f"  errors in window: {e['count']:,}")

    slo = serve.get("slo")
    if slo:
        for key in ("availability", "latency"):
            obj = slo[key]
            if not obj["enabled"]:
                continue
            title = key
            if key == "latency":
                title = f"latency<={slo['latency_ms']:g}ms"
            print(f"slo {title}: {100.0 * obj['compliance']:.4g}% of "
                  f"{obj['total']:,} (target {100.0 * obj['target']:g}%), "
                  f"burn rate {obj['burn_rate']:.3g}, budget remaining "
                  f"{100.0 * obj['budget_remaining']:.4g}%")

    reqtrace = serve.get("reqtrace")
    if reqtrace and reqtrace["enabled"]:
        print(f"reqtrace: {reqtrace['started']:,} traced "
              f"(1 in {reqtrace['sample_every']} sampled, slow >= "
              f"{reqtrace['slow_ms']:g} ms), {reqtrace['slow']:,} slow, "
              f"{reqtrace['sampled_kept']:,} sampled kept, "
              f"{reqtrace['dropped']:,} dropped")

    summarize_tier(serve.get("tier"))
    summarize_resilience(serve.get("resilience"))
    return 0


def summarize_tier(tier):
    """Render the serve.tier section (docs/serving.md, "Tiered serving"):
    per-tier request counts and latency percentiles, escalation rate by
    reason, and the observed stretch-gap distribution.  No-op for
    summaries from untiered (exact-only) runs."""
    if not tier:
        return
    degraded = " DEGRADED" if tier.get("degraded") else ""
    print(f"\ntier: mode {tier['mode']}, stretch budget "
          f"{tier['stretch_budget']:g}, {tier['landmarks']:,} "
          f"landmarks{degraded}")
    for name in ("approx", "exact"):
        section = tier.get(name)
        if not section:
            continue
        line = f"  {name}: {section['requests']:,} requests"
        lat = section.get("latency_us")
        if lat and lat.get("count", 0) > 0:
            line += (f", latency p50 {lat['p50']:g} us, "
                     f"p99 {lat['p99']:g} us, max {lat['max']:g} us")
        if section.get("degraded_replies"):
            line += f", {section['degraded_replies']:,} degraded replies"
        print(line)
    esc = tier.get("escalated", {})
    if esc:
        reasons = esc.get("by_reason", {})
        print(f"  escalated: {esc['count']:,} "
              f"({100.0 * esc.get('rate', 0):.1f}% of sketch-routed) — "
              f"gap {reasons.get('gap', 0):,}, "
              f"degraded {reasons.get('degraded', 0):,}")
    stretch = tier.get("stretch", {})
    if stretch.get("observed"):
        print(f"  stretch over {stretch['observed']:,} approx answers: "
              f"mean {stretch['mean_gap']:.4g}, p50 "
              f"{stretch['p50_gap']:.4g}, p99 {stretch['p99_gap']:.4g}, "
              f"max {stretch['max_gap']:.4g}")


def summarize_resilience(res):
    """Render the serve.resilience section (docs/robustness.md): health,
    retry/quarantine ledgers, worker-watchdog outcomes, and — for chaos
    runs — the injected-fault plan and totals.  No-op for summaries that
    predate the section."""
    if not res:
        return
    retry = res["retry"]
    quarantine = res["quarantine"]
    workers = res["workers"]
    print(f"\nresilience: health {res['health']}")
    print(f"  retry: {retry['attempts']:,} retries "
          f"(max {retry['max_attempts']} attempts/read), "
          f"{retry['success']:,} recovered, "
          f"{retry['exhausted']:,} exhausted")
    print(f"  quarantine: {quarantine['active']:,} active, "
          f"{quarantine['enters']:,} entered / "
          f"{quarantine['exits']:,} exited "
          f"(threshold {quarantine['threshold']}, cooldown "
          f"{quarantine['cooldown_ms']:g} ms), "
          f"{quarantine['blocked']:,} blocked, "
          f"{quarantine['probes']:,} probes")
    watchdog = (f"watchdog at {workers['stuck_threshold_ms']:g} ms"
                if workers["stuck_threshold_ms"] > 0 else "watchdog off")
    print(f"  workers: {workers['active']:,} active, "
          f"{workers['stuck']:,} stuck, {workers['replaced']:,} replaced "
          f"({watchdog})")
    observed = res["faults_observed"]
    if any(observed.values()):
        print(f"  faults observed: {observed['io']:,} io, "
              f"{observed['checksum']:,} checksum, "
              f"{observed['alloc']:,} alloc, "
              f"{observed['stuck_worker']:,} stuck worker(s)")
    if res.get("fault_plan"):
        injected = res["faults_injected"]
        print(f"  chaos plan: {res['fault_plan']}")
        print(f"  faults injected: {injected['eio']:,} eio, "
              f"{injected['eintr']:,} eintr, "
              f"{injected['short_reads']:,} short, "
              f"{injected['flips']:,} flips, "
              f"{injected['delays']:,} delays, "
              f"{injected['allocs']:,} allocs, "
              f"{injected['sticks']:,} sticks")


def summarize_reqtrace(argv):
    """The `reqtrace` subcommand: render a request-trace export
    (serve_tool --reqtrace, docs/telemetry.md) — the top-N slowest
    requests and a span breakdown by phase.  Also validates the
    span-time invariant (queue_wait + execute covers each request end
    to end), so it doubles as the CI check on real exports."""
    parser = argparse.ArgumentParser(
        prog="trace_summary.py reqtrace",
        description="Summarize a serve_tool --reqtrace export.")
    parser.add_argument("trace", help="Chrome trace JSON from --reqtrace")
    parser.add_argument("--top", type=int, default=10,
                        help="number of slowest requests to print "
                             "(default 10)")
    args = parser.parse_args(argv)

    with open(args.trace) as f:
        doc = json.load(f)
    meta = doc.get("capsp", {})
    if not meta.get("reqtrace"):
        print(f"error: {args.trace} is not a request-trace export "
              "(no capsp.reqtrace marker)", file=sys.stderr)
        return 1

    requests, spans = [], {}
    for event in doc.get("traceEvents", []):
        if event.get("ph") != "X":
            continue
        if event.get("cat") == "request":
            requests.append(event)
        elif event.get("cat") == "span":
            spans.setdefault(event["tid"], []).append(event)

    slow_us = meta.get("slow_us", 0)
    print(f"reqtrace: {len(requests)} kept of {meta.get('started', 0):,} "
          f"traced ({meta.get('slow', 0):,} slow >= {slow_us:g} us, "
          f"{meta.get('sampled_kept', 0):,} sampled kept, "
          f"{meta.get('dropped', 0):,} dropped)")
    if not requests:
        return 0

    ranked = sorted(requests, key=lambda r: -r["dur"])
    print(f"\ntop {min(args.top, len(ranked))} slowest requests:")
    print(f"  {'id':>6} {'kind':<10} {'outcome':<10} {'dur_us':>10} "
          f"{'queue_us':>10} args")
    for request in ranked[:args.top]:
        tid = request["tid"]
        queue = sum(s["dur"] for s in spans.get(tid, [])
                    if s["name"] == "queue_wait")
        req_args = request.get("args", {})
        detail = " ".join(f"{k}={req_args[k]}" for k in ("u", "v", "k")
                          if k in req_args)
        print(f"  {tid:>6} {request['name']:<10} "
              f"{req_args.get('outcome', '?'):<10} {request['dur']:>10.1f} "
              f"{queue:>10.1f} {detail}")

    by_phase = {}
    for tid_spans in spans.values():
        for span in tid_spans:
            entry = by_phase.setdefault(span["name"], [0, 0.0])
            entry[0] += 1
            entry[1] += span["dur"]
    total_request_us = sum(r["dur"] for r in requests)
    print("\nspan breakdown by phase:")
    print(f"  {'phase':<20} {'count':>8} {'total_us':>12} {'share':>8}")
    for name, (count, total) in sorted(by_phase.items(),
                                       key=lambda kv: -kv[1][1]):
        share = 100.0 * total / total_request_us if total_request_us else 0.0
        print(f"  {name:<20} {count:>8} {total:>12.1f} {share:>7.1f}%")

    # Invariant: the top-level spans (queue_wait + execute) tile each
    # request, so their durations sum to the request's within slack.
    mismatches = 0
    for request in requests:
        top_level = sum(s["dur"] for s in spans.get(request["tid"], [])
                        if s["name"] in ("queue_wait", "execute"))
        if abs(top_level - request["dur"]) > max(5.0, 0.05 * request["dur"]):
            mismatches += 1
    if mismatches:
        print(f"error: {mismatches} request(s) whose queue_wait+execute "
              "spans do not sum to the request duration", file=sys.stderr)
        return 1
    return 0


def check_prometheus(argv):
    """The `prom` subcommand: self-check a Prometheus text-exposition
    scrape (the serve /metrics endpoint, docs/telemetry.md).  Validates
    metric-name syntax, numeric sample values, TYPE declarations, and
    the histogram invariants (cumulative buckets, +Inf == _count).
    Exits non-zero on any violation, so CI can gate on a live scrape."""
    parser = argparse.ArgumentParser(
        prog="trace_summary.py prom",
        description="Validate a Prometheus text-exposition scrape.")
    parser.add_argument("scrape", help="scrape output (curl .../metrics)")
    args = parser.parse_args(argv)

    import re
    name_re = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
    sample_re = re.compile(
        r'([a-zA-Z_:][a-zA-Z0-9_:]*)(\{le="([^"]*)"\})? '
        r"(-?\d+(\.\d+)?([eE][-+]?\d+)?|\+Inf|-Inf|NaN)$")

    types = {}       # metric name -> declared type
    histograms = {}  # base name -> {"buckets": [(le, v)], "count": v, ...}
    samples = 0
    errors = []
    with open(args.scrape) as f:
        lines = f.read().splitlines()
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 2 and parts[1] == "TYPE":
                if len(parts) != 4 or parts[3] not in (
                        "counter", "gauge", "histogram", "summary",
                        "untyped"):
                    errors.append(f"line {number}: malformed TYPE: {line}")
                elif not name_re.match(parts[2]):
                    errors.append(
                        f"line {number}: invalid metric name {parts[2]}")
                else:
                    types[parts[2]] = parts[3]
            continue
        match = sample_re.match(line)
        if not match:
            errors.append(f"line {number}: unparseable sample: {line}")
            continue
        samples += 1
        name, le = match.group(1), match.group(3)
        for suffix in ("_bucket", "_sum", "_count"):
            base = name[:-len(suffix)]
            if name.endswith(suffix) and types.get(base) == "histogram":
                series = histograms.setdefault(
                    base, {"buckets": [], "sum": None, "count": None})
                value = match.group(4)
                if suffix == "_bucket":
                    if le is None:
                        errors.append(f"line {number}: histogram bucket "
                                      "without an le label")
                    else:
                        series["buckets"].append((le, float(value)))
                else:
                    series[suffix[1:]] = float(value)
                break
        else:
            if name not in types:
                errors.append(f"line {number}: sample {name} has no "
                              "TYPE declaration")

    for name, series in sorted(histograms.items()):
        buckets = series["buckets"]
        if not buckets or buckets[-1][0] != "+Inf":
            errors.append(f"{name}: histogram without a +Inf bucket")
            continue
        values = [v for _, v in buckets]
        if values != sorted(values):
            errors.append(f"{name}: bucket counts are not cumulative")
        bounds = [float(le) for le, _ in buckets[:-1]]
        if bounds != sorted(bounds):
            errors.append(f"{name}: bucket bounds are not increasing")
        if series["count"] is None or series["count"] != values[-1]:
            errors.append(f"{name}: +Inf bucket {values[-1]:g} != _count "
                          f"{series['count']}")
        if series["sum"] is None:
            errors.append(f"{name}: histogram without a _sum sample")

    print(f"prometheus scrape: {samples} samples, {len(types)} TYPE "
          f"declarations, {len(histograms)} histograms")
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    return 1 if errors else 0


def summarize_prof(argv):
    """The `prof` subcommand: render a profiling artifact
    (docs/profiling.md) — either a ProfReport JSON (apsp_tool/serve_tool
    --profile-json, or /profile?format=json) or a folded-stack file
    (--profile-folded / the default /profile output).  Prints the hot
    scopes, the per-kernel roofline against the machine peak, and the
    counter availability matrix.  Validates the folded-stack format and
    the sample accounting, so CI can gate on real profiler output."""
    parser = argparse.ArgumentParser(
        prog="trace_summary.py prof",
        description="Summarize a profiler report or folded-stack file.")
    parser.add_argument("profile",
                        help="ProfReport JSON or folded-stack text")
    parser.add_argument("--top", type=int, default=10,
                        help="number of hot scopes to print (default 10)")
    args = parser.parse_args(argv)

    with open(args.profile) as f:
        text = f.read()

    try:
        doc = json.loads(text)
    except ValueError:
        doc = None
    if doc is None:
        return summarize_folded(args.profile, text, args.top)

    profile = doc.get("profile")
    if profile is None:
        print(f"error: {args.profile} has no 'profile' key — not a "
              "profiler report", file=sys.stderr)
        return 1

    print(f"profile: {profile['samples']:,} samples @ {profile['hz']:g} Hz "
          f"over {profile['duration_seconds']:.3f}s "
          f"({profile['idle_ticks']:,} idle ticks, "
          f"{profile['dropped']:,} dropped)")
    if profile["dropped"]:
        print("error: sampler dropped stacks (ring too small?)",
              file=sys.stderr)
        return 1

    scopes = profile.get("scopes", {})
    if scopes:
        ranked = sorted(scopes.items(),
                        key=lambda kv: -kv[1]["total_samples"])
        print(f"\ntop {min(args.top, len(ranked))} scopes by samples:")
        print(f"  {'scope':<28} {'total':>8} {'self':>8}")
        for name, counts in ranked[:args.top]:
            print(f"  {name:<28} {counts['total_samples']:>8,} "
                  f"{counts['self_samples']:>8,}")

    peak = profile.get("machine_peak", {})
    kernels = profile.get("kernels", {})
    if kernels:
        ops_peak = peak.get("minplus_ops_per_second", 0)
        bytes_peak = peak.get("stream_bytes_per_second", 0)
        print(f"\nkernel roofline (peak {ops_peak:.3g} ops/s, "
              f"{bytes_peak:.3g} bytes/s):")
        print(f"  {'kernel':<28} {'calls':>8} {'ops/s':>10} {'%peak':>7} "
              f"{'bytes/s':>10} {'ops/cycle':>10}")
        for name, k in sorted(kernels.items(),
                              key=lambda kv: -kv[1]["seconds"]):
            share = (100.0 * k["ops_per_second"] / ops_peak
                     if ops_peak and k["ops"] else 0.0)
            print(f"  {name:<28} {k['calls']:>8,} "
                  f"{k['ops_per_second']:>10.3g} {share:>6.1f}% "
                  f"{k['bytes_per_second']:>10.3g} "
                  f"{k['ops_per_cycle']:>10.3g}")

    perf = profile.get("perf", {})
    if perf.get("attempted"):
        counters = perf.get("counters", {})
        available = {n: c for n, c in counters.items() if c["available"]}
        if available:
            ghz = perf.get("effective_ghz", 0)
            line = ", ".join(f"{n}={c['value']:,}"
                             for n, c in sorted(available.items()))
            print(f"\nperf counters ({perf['threads_covered']} threads"
                  + (f", {ghz:.2f} GHz effective" if ghz else "")
                  + f"): {line}")
        missing = sorted(n for n, c in counters.items()
                         if not c["available"])
        if missing:
            print("perf counters unavailable: " + ", ".join(missing))

    folded = profile.get("folded", [])
    folded_sum = sum(entry["count"] for entry in folded)
    if not profile.get("folded_truncated") and             folded_sum != profile["samples"]:
        print(f"error: folded counts sum to {folded_sum} != "
              f"{profile['samples']} samples", file=sys.stderr)
        return 1
    return 0


def summarize_folded(path, text, top):
    """Validate + summarize a folded-stack file: `frame[;frame...] count`
    per line, counts sorted descending (the flamegraph input format)."""
    stacks = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        head, _, count = line.rpartition(" ")
        if not head or not count.isdigit():
            print(f"error: {path} line {number}: not 'stack count': "
                  f"{line}", file=sys.stderr)
            return 1
        stacks.append((head, int(count)))
    if not stacks:
        print(f"error: {path}: no folded stacks (did the profiled run "
              "do any scoped work?)", file=sys.stderr)
        return 1
    counts = [c for _, c in stacks]
    if counts != sorted(counts, reverse=True):
        print(f"error: {path}: stacks are not sorted by count",
              file=sys.stderr)
        return 1
    total = sum(counts)
    print(f"folded stacks: {len(stacks)} unique, {total:,} samples "
          f"(flamegraph-ready; see docs/profiling.md)")
    print(f"\ntop {min(top, len(stacks))} stacks:")
    for stack, count in stacks[:top]:
        print(f"  {100.0 * count / total:>5.1f}%  {stack}")
    return 0


def summarize_logs(argv):
    """The `logs` subcommand: render the structured-logging artifacts
    (docs/observability.md) — a flight-recorder dump ({"flightrec": ...}
    from a crash/CHECK/deadlock/SIGTERM or /debug/flightrec), a /logs
    endpoint body ({"logs": ...}), or a JSON-lines sink capture
    (--log-json stderr).  Prints the dump reason, per-thread event
    counts, a level histogram, the busiest event names, and the last
    events before the end — the causal story a post-mortem starts from.
    Exits non-zero when the file is none of the three shapes or events
    are structurally broken, so it doubles as the CI validator."""
    parser = argparse.ArgumentParser(
        prog="trace_summary.py logs",
        description="Summarize a flight-recorder dump or JSON log lines.")
    parser.add_argument("logs",
                        help="flightrec dump JSON, /logs body, or "
                             "JSON-lines log capture")
    parser.add_argument("--last", type=int, default=15,
                        help="number of final events to print (default 15)")
    parser.add_argument("--top", type=int, default=10,
                        help="number of event names to rank (default 10)")
    parser.add_argument("--expect-event", action="append", default=[],
                        help="fail unless an event with this name is "
                             "present (repeatable; CI assertions)")
    args = parser.parse_args(argv)

    with open(args.logs) as f:
        text = f.read()

    events = []
    try:
        doc = json.loads(text)
    except ValueError:
        doc = None
    if isinstance(doc, dict) and "flightrec" in doc:
        rec = doc["flightrec"]
        threads = rec.get("threads", [])
        print(f"flight recorder: reason \"{rec.get('reason', '?')}\", "
              f"pid {rec.get('pid', '?')}, {len(threads)} thread(s), "
              f"{rec.get('recorded', 0):,} events recorded "
              f"(ring capacity {rec.get('ring_capacity', '?')})")
        for thread in threads:
            if "tid" not in thread or "events" not in thread:
                print("error: thread entry without tid/events",
                      file=sys.stderr)
                return 1
            live = "live" if thread.get("live") else "parked"
            print(f"  tid {thread['tid']}: {len(thread['events'])} "
                  f"event(s) retained ({live})")
            events.extend(thread["events"])
    elif isinstance(doc, dict) and "logs" in doc:
        body = doc["logs"]
        events = body.get("events", [])
        print(f"/logs scrape: {body.get('returned', len(events))} of "
              f"{body.get('recorded', 0):,} recorded events")
    elif doc is None:
        # JSON-lines: one log record per line (--log-json sink output).
        for number, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                print(f"error: {args.logs} line {number}: not JSON: "
                      f"{line[:80]}", file=sys.stderr)
                return 1
            events.append(record)
        print(f"json log lines: {len(events)} event(s)")
    else:
        print(f"error: {args.logs} is neither a flightrec dump, a /logs "
              "body, nor JSON log lines", file=sys.stderr)
        return 1

    for event in events:
        if "event" not in event or "level" not in event or "ts" not in event:
            print(f"error: event without ts/level/event keys: {event}",
                  file=sys.stderr)
            return 1
    events.sort(key=lambda e: e["ts"])

    by_level, by_name = {}, {}
    for event in events:
        by_level[event["level"]] = by_level.get(event["level"], 0) + 1
        by_name[event["event"]] = by_name.get(event["event"], 0) + 1
    if by_level:
        print("\nby level: " + ", ".join(
            f"{level} {count}" for level, count in sorted(by_level.items())))
    if by_name:
        ranked = sorted(by_name.items(), key=lambda kv: -kv[1])
        print(f"top {min(args.top, len(ranked))} events:")
        for name, count in ranked[:args.top]:
            print(f"  {name:<36} {count:>8}")

    if events:
        print(f"\nlast {min(args.last, len(events))} events:")
        for event in events[-args.last:]:
            context = []
            if event.get("rank", -1) >= 0:
                context.append(f"rank={event['rank']}")
            if event.get("request_id", event.get("req", -1)) >= 0:
                context.append(
                    f"req={event.get('request_id', event.get('req'))}")
            if event.get("phase"):
                context.append(f"phase={event['phase']}")
            detail = event.get("detail", "")
            if not detail and event.get("fields"):
                detail = " ".join(f"{k}={v}"
                                  for k, v in event["fields"].items())
            line = (f"  {event['ts']:.6f} {event['level']:<5} "
                    f"{event['event']}")
            if context:
                line += " [" + " ".join(context) + "]"
            if detail:
                line += f" {detail}"
            print(line)

    missing = [name for name in args.expect_event if name not in by_name]
    if missing:
        print("error: expected event(s) never recorded: "
              + ", ".join(missing), file=sys.stderr)
        return 1
    if not events:
        print("error: no events (did the run log anything at or above "
              "the ring level?)", file=sys.stderr)
        return 1
    return 0


HEAT_GLYPHS = " .:-=+*#%@"


def comm_heatmap_lines(num_ranks, heat):
    """Log-scaled ASCII rank x rank heatmap from a row-major word matrix.
    Machines wider than 64 ranks are tiled down so a row still fits a
    terminal; each cell then aggregates a group x group block."""
    import math
    cells = max(1, -(-num_ranks // 64))  # ranks per displayed cell
    side = -(-num_ranks // cells)
    grid = [[0] * side for _ in range(side)]
    for src in range(num_ranks):
        for dst in range(num_ranks):
            grid[src // cells][dst // cells] += heat[src * num_ranks + dst]
    peak = max((v for row in grid for v in row), default=0)
    lines = []
    if cells > 1:
        lines.append(f"  (each cell aggregates {cells}x{cells} ranks)")
    header = "      " + "".join(f"{d % 10}" for d in range(side))
    lines.append(header + "   dst")
    for s, row in enumerate(grid):
        glyphs = []
        for v in row:
            if v <= 0 or peak <= 0:
                glyphs.append(HEAT_GLYPHS[0])
            else:
                # log scale: the busiest cell gets the darkest glyph.
                level = math.log1p(v) / math.log1p(peak)
                idx = 1 + int(level * (len(HEAT_GLYPHS) - 2) + 0.5)
                glyphs.append(HEAT_GLYPHS[min(idx, len(HEAT_GLYPHS) - 1)])
        lines.append(f"  {s:>3} {''.join(glyphs)}")
    lines.append(f"  scale: ' '=0 words, '{HEAT_GLYPHS[1]}'..'"
                 f"{HEAT_GLYPHS[-1]}' log-scaled to peak {peak:,} words")
    return lines


def summarize_comm(argv):
    """The `comm` subcommand: render a comm-ledger artifact (apsp_tool
    --comm-json, a --report-json with a "comm" section, or a --trace file
    whose capsp metadata carries one) as an ASCII rank x rank heatmap,
    the per-phase (L,B) table, the top-K hottest channels, and the
    message-optimality audit when present (docs/cost-model.md)."""
    parser = argparse.ArgumentParser(
        prog="trace_summary.py comm",
        description="Render a capsp comm-ledger artifact.")
    parser.add_argument("ledger", help="JSON from apsp_tool --comm-json / "
                                       "--report-json / --trace")
    parser.add_argument("--top", type=int, default=10,
                        help="number of channels to print (default 10)")
    args = parser.parse_args(argv)

    with open(args.ledger) as f:
        doc = json.load(f)
    capsp = doc.get("capsp", {})
    comm = doc.get("comm") or capsp.get("comm")
    audit = doc.get("comm_audit") or capsp.get("comm_audit")
    if not comm:
        print(f"error: {args.ledger} has no 'comm' section — run apsp_tool "
              "with --comm-ledger / --comm-json", file=sys.stderr)
        return 1

    ranks = comm["num_ranks"]
    totals = comm["totals"]
    print(f"comm ledger: {ranks} ranks, {comm['num_channels']} channels")
    print(f"  logical  {totals['logical_messages']:>10,} msgs "
          f"{totals['logical_words']:>14,} words")
    print(f"  physical {totals['physical_frames']:>10,} frames "
          f"{totals['physical_words']:>14,} words")
    overheads = []
    for key, label in (("retransmit_frames", "retransmitted"),
                       ("duplicate_frames", "duplicated"),
                       ("dropped_frames", "dropped"),
                       ("protocol_charges", "protocol charges")):
        if totals.get(key):
            overheads.append(f"{totals[key]:,} {label}")
    if overheads:
        print("  overhead " + ", ".join(overheads))

    print(f"\nphysical words heatmap (src rank x dst rank):")
    for line in comm_heatmap_lines(ranks, comm["heat_words"]):
        print(line)

    phases = comm.get("phases", {})
    if phases:
        print(f"\nper-phase (L,B) accounting (logical msgs / words):")
        print(f"  {'phase':<12} {'L=msgs':>8} {'B=words':>12} "
              f"{'frames':>8} {'phys words':>12} {'max chan B':>12}")
        for phase, t in phases.items():
            print(f"  {phase:<12} {t['messages']:>8,} {t['words']:>12,} "
                  f"{t['physical_frames']:>8,} {t['physical_words']:>12,} "
                  f"{t['max_channel_words']:>12,}")

    channels = sorted(comm.get("channels", []),
                      key=lambda c: -c["physical_words"])
    if channels:
        k = min(args.top, len(channels))
        print(f"\ntop {k} channels by physical words:")
        print(f"  {'src':>4} {'dst':>4} {'class':<8} {'phase':<12} "
              f"{'msgs':>6} {'words':>12} {'frames':>7} {'retrans':>8}")
        for c in channels[:k]:
            print(f"  {c['src']:>4} {c['dst']:>4} {c['class']:<8} "
                  f"{c['phase']:<12} {c['logical_messages']:>6,} "
                  f"{c['logical_words']:>12,} {c['physical_frames']:>7,} "
                  f"{c['retransmit_frames']:>8,}")

    if audit:
        print(f"\nmessage-optimality audit ({audit['model']}, n="
              f"{audit['n']:g}, s={audit['separator_size']:g}, "
              f"p={audit['p']:g}, h={audit['height']}):")
        print(f"  {'bound':<28} {'predicted':>14} {'measured':>14} "
              f"{'ratio':>8}")
        print(f"  {'S: total messages':<28} "
              f"{audit['predicted_total_messages']:>14.6g} "
              f"{audit['measured_total_messages']:>14,} "
              f"{audit['total_message_ratio']:>8.3f}")
        print(f"  {'W: max-channel words':<28} "
              f"{audit['predicted_max_channel_words']:>14.6g} "
              f"{audit['measured_max_channel_words']:>14,} "
              f"{audit['max_channel_word_ratio']:>8.3f}")
        if audit.get("has_collect"):
            print(f"  {'floor: output words':<28} "
                  f"{audit['optimality_floor_words']:>14.6g} "
                  f"{audit['measured_total_words']:>14,} "
                  f"{audit['word_optimality_factor']:>8.3f}")
        regions = audit.get("regions", [])
        if regions:
            print(f"\n  per-region message counts:")
            print(f"  {'region':<10} {'measured':>10} {'predicted':>12} "
                  f"{'ratio':>8} {'gated':>6}")
            for r in regions:
                print(f"  {r['region']:<10} {r['measured_messages']:>10,} "
                      f"{r['predicted_messages']:>12.6g} "
                      f"{r['message_ratio']:>8.3f} "
                      f"{'yes' if r['gated'] else 'no':>6}")
    return 0


SUBCOMMANDS = ("metrics", "serve", "reqtrace", "prom", "prof", "logs",
               "comm")


def fail(message):
    """One-line structured error, exit code 2 (the documented contract
    for unusable inputs — no tracebacks in CI logs)."""
    print(f"trace_summary: error: {message}", file=sys.stderr)
    return 2


def main():
    # Subcommand dispatch keeps the original positional-trace CLI intact:
    # only a literal first argument of "metrics", "serve", "reqtrace",
    # "prom", "prof", "logs", or "comm" selects the new modes.
    if len(sys.argv) > 1 and sys.argv[1] == "metrics":
        return summarize_metrics(sys.argv[2:])
    if len(sys.argv) > 1 and sys.argv[1] == "serve":
        return summarize_serve(sys.argv[2:])
    if len(sys.argv) > 1 and sys.argv[1] == "reqtrace":
        return summarize_reqtrace(sys.argv[2:])
    if len(sys.argv) > 1 and sys.argv[1] == "prom":
        return check_prometheus(sys.argv[2:])
    if len(sys.argv) > 1 and sys.argv[1] == "prof":
        return summarize_prof(sys.argv[2:])
    if len(sys.argv) > 1 and sys.argv[1] == "logs":
        return summarize_logs(sys.argv[2:])
    if len(sys.argv) > 1 and sys.argv[1] == "comm":
        return summarize_comm(sys.argv[2:])
    # Anything else must be a readable trace file (or a flag argparse
    # understands): a bareword that names nothing on disk is a typo'd
    # subcommand, and deserves the structured exit-2 error rather than
    # argparse treating it as a trace path and open() tracing back.
    if len(sys.argv) > 1 and not sys.argv[1].startswith("-"):
        import os
        if not os.path.exists(sys.argv[1]):
            return fail(
                f"unknown subcommand or missing file '{sys.argv[1]}' "
                f"(expected one of: {'|'.join(SUBCOMMANDS)}, or a trace "
                "file path)")
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="Chrome trace JSON from apsp_tool --trace")
    parser.add_argument("--top", type=int, default=10,
                        help="number of phases to print (default 10)")
    parser.add_argument("--axis", choices=["latency", "bandwidth"],
                        default="latency",
                        help="critical-path axis to rank by (default latency)")
    args = parser.parse_args()

    with open(args.trace) as f:
        trace = json.load(f)

    # A deadlock report (the machine's post-mortem) replaces the cost
    # report when a run never finished; surface it instead of erroring.
    if trace.get("deadlock"):
        return summarize_deadlock(trace)

    # A cost report JSON (apsp_tool --report-json) has no "capsp" key but
    # may carry robustness sections worth surfacing.
    if "capsp" not in trace and "critical_latency" in trace:
        print(f"cost report: L={trace['critical_latency']:g} messages, "
              f"B={trace['critical_bandwidth']:g} words, "
              f"{trace['total_messages']} messages / "
              f"{trace['total_words']} words total")
        summarize_robustness(trace)
        return 0

    capsp = trace.get("capsp")
    if capsp is None:
        print(f"error: {args.trace} has no 'capsp' key — not a capsp trace",
              file=sys.stderr)
        return 1
    section = capsp.get(f"critical_{args.axis}")
    if section is None:
        print(f"error: trace has no critical_{args.axis} decomposition "
              "(was the critical path exported?)", file=sys.stderr)
        return 1

    unit = "messages" if args.axis == "latency" else "words"
    total = section["total"]
    by_phase = sorted(section["by_phase"].items(), key=lambda kv: -kv[1])
    print(f"trace: {capsp['ranks']} ranks, {capsp['events']} events")
    print(f"critical {args.axis}: {total:g} {unit} "
          f"across {section['hops']} message hops")
    print(f"\ntop {min(args.top, len(by_phase))} phases by "
          f"critical-path {args.axis}:")
    print(f"  {'phase':<16} {'cost':>12} {'share':>8}")
    for phase, cost in by_phase[:args.top]:
        share = 100.0 * cost / total if total else 0.0
        print(f"  {phase:<16} {cost:>12g} {share:>7.1f}%")

    # Sanity invariant the C++ tests also enforce: segments sum to total.
    segment_sum = sum(section["by_phase"].values())
    if abs(segment_sum - total) > 1e-9 * max(1.0, abs(total)):
        print(f"error: phase segments sum to {segment_sum:g} != total "
              f"{total:g}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except json.JSONDecodeError as e:
        sys.exit(fail(f"malformed or truncated JSON input: {e}"))
    except BrokenPipeError:
        # Reader (| head, | grep -q) closed early: the Unix convention
        # is a quiet success, not an error.  Point stdout at devnull so
        # interpreter shutdown doesn't print a secondary complaint.
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
    except OSError as e:
        sys.exit(fail(f"cannot read input: {e}"))
