"""Trace-replay benchmark for mudmon.

    python3 bench/run.py --workload fleet|flood --seed N --seconds S --trace 0|1

Generates the workload's traces from the seed (before any timing), then
replays them (one fresh pipeline per gateway) again and again until
``--seconds`` have passed, at least twice. Every replay is checked:
counter conservation per device, identical verdict and model digests
across replays, and no non-``MudmonError`` exception out of a layer call.

``--trace 0`` prints the end-to-end metrics. Their timings are CPU seconds
of the single-threaded replay (BLAS is pinned to one thread), which equal
wall time on an idle host: throughputs and training time from the run's
best replay, verdict latency percentiles over the samples of all replays.
``--trace 1`` replays untraced for half the time (at least twice), then
once with spans around every layer call, prints the per-layer metrics and
the tracing overhead (traced minus best untraced replay, in CPU seconds),
and writes the spans under ``.bench_out/``. In the traced replay,
``strategy.train``'s reference to ``worker.train`` is wrapped so that
type-model fits get their own spans.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0 only
when every check passed; it is 2 when the package sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# The replay is single-threaded; keep BLAS from billing CPU time on helper threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# The digests of two replays must agree. The first replay of a process is
# also cold (lazy imports, first model fits), so two give one warm replay.
MIN_REPLAYS = 2
MIN_VERDICTS = 200  # so that p95 has at least ten samples beyond it
IMPORT_SAMPLES = 5
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.process_time()\n"
    "import mudmon.mud, mudmon.switch, mudmon.features, mudmon.worker, mudmon.strategy\n"
    "print(time.process_time() - t)\n"
)


def import_seconds() -> float:
    """Median CPU time of importing the package in a fresh interpreter."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def end_to_end(results, import_s: float) -> dict[str, tuple[float, str]]:
    """Throughputs and training time come from the best replay of the run:
    every replay does the same work, so a slower one measures only
    interference from other processes (as ``timeit`` reasons). Verdict
    latencies pool the samples of every replay. Set-up time is the median."""
    first = results[0]
    latencies = [x for r in results for x in r.latencies_ms]
    return {
        "setup_s": (import_s + statistics.median(r.setup_s for r in results), "s"),
        "train_s": (min(r.train_s for r in results), "s"),
        "pkts_per_s": (max(r.packets / r.packet_s for r in results), "pkt/s"),
        "device_minutes_per_s": (max(r.device_minutes / r.replay_s for r in results), "1/s"),
        "verdict_ms_p50": (percentile(latencies, 50), "ms"),
        "verdict_ms_p95": (percentile(latencies, 95), "ms"),
        "detect_delay_min": (float(statistics.median(first.detect_delays)), "sim-min"),
        "tpr": (first.attacked_flagged / first.attacked_minutes, "ratio"),
        "fpr": (first.benign_flagged / first.benign_minutes, "ratio"),
        "mirrored_share": (first.mirrored / first.packets, "ratio"),
        "failed_op_share": (first.layers.failed / first.layers.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(traced, untraced_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced replay; ``untraced_s`` is the CPU time
    of the best untraced replay of the same traces."""
    from pipeline import DNS_REPLY, PACKET
    spans = traced.layers.spans
    ns = spans.durations()
    self_ns = spans.self_times()
    units = spans.units_by_name()
    errors = traced.layers.errors
    counts, samples = traced.counts, traced.samples

    def us(name):
        return [d / 1e3 for d in ns.get(name, [])]

    def busy(*names):
        return sum(sum(ns.get(n, [])) for n in names) / 1e9

    packets = us(PACKET) + us(DNS_REPLY)
    batch = [d / u for d, u in zip(us("worker.predict_batch"), units.get("worker.predict_batch", []))]
    out = {
        "mud.parse_profile.calls": (len(ns.get("mud.parse_profile", [])), "count"),
        "mud.parse_profile.us_p50": (percentile(us("mud.parse_profile"), 50), "us"),
        "mud.translate.calls": (len(ns.get("mud.translate", [])), "count"),
        "mud.translate.us_p50": (percentile(us("mud.translate"), 50), "us"),
        "switch.process_packet.calls": (len(packets), "count"),
        "switch.process_packet.us_p50": (percentile(packets, 50), "us"),
        "switch.process_packet.us_p99": (percentile(packets, 99), "us"),
        "switch.process_packet.busy_s": (busy(PACKET, DNS_REPLY), "s"),
        "switch.process_packet.self_s": ((self_ns[PACKET] + self_ns[DNS_REPLY]) / 1e9, "s"),
        "switch.process_packet.dns_reply.calls": (len(ns.get(DNS_REPLY, [])), "count"),
        "switch.process_packet.dns_reply.us_p50": (percentile(us(DNS_REPLY), 50), "us"),
        "switch.process_packet.dns_reply.busy_s": (busy(DNS_REPLY), "s"),
        "switch.insert_microflow.calls": (len(ns.get("switch.insert_microflow", [])), "count"),
        "switch.insert_microflow.us_p50": (percentile(us("switch.insert_microflow"), 50), "us"),
        "switch.insert_microflow.us_p99": (percentile(us("switch.insert_microflow"), 99), "us"),
        "switch.insert_microflow.refused": (
            errors["switch.insert_microflow", "TableFullError"], "count"),
        "switch.insert_block.calls": (len(ns.get("switch.insert_block", [])), "count"),
        "switch.set_flow_action.calls": (len(ns.get("switch.set_flow_action", [])), "count"),
        "switch.expire_idle.ms_p50": (percentile(us("switch.expire_idle"), 50) / 1e3, "ms"),
        "switch.expire_idle.removed": (counts["expired"], "count"),
        "switch.poll_counters.ms_p50": (percentile(us("switch.poll_counters"), 50) / 1e3, "ms"),
        "switch.poll_counters.records": (counts["poll_records"], "count"),
        "switch.entries.max": (max(samples["entries"], default=0), "count"),
        # Packet-weighted: the mean size of the table a lookup scanned.
        "switch.entries.mean": (counts["entry_lookups"] / max(1, counts["lookups"]), "count"),
        "switch.entries.big_table_minutes": (counts["big_table_minutes"], "count"),
        "features.add_minute.calls": (len(ns.get("features.add_minute", [])), "count"),
        "features.add_minute.us_p50": (percentile(us("features.add_minute"), 50), "us"),
        "features.add_minute.us_p99": (percentile(us("features.add_minute"), 99), "us"),
        "features.add_minute.busy_s": (busy("features.add_minute"), "s"),
        "features.add_minute.vectors": (counts["vectors"], "count"),
        "features.add_minute.microflow_vectors": (counts["microflow_vectors"], "count"),
        "features.entropy_observe.calls": (len(ns.get("features.entropy_observe", [])), "count"),
        "features.entropy_observe.us_p50": (percentile(us("features.entropy_observe"), 50), "us"),
        "features.entropy_roll.calls": (len(ns.get("features.entropy_roll", [])), "count"),
        "features.entropy_roll.us_p50": (percentile(us("features.entropy_roll"), 50), "us"),
        "worker.train.calls": (len(ns.get("worker.train", [])), "count"),
        "worker.train.s_total": (busy("worker.train"), "s"),
        "worker.train.s_max": (max(ns.get("worker.train", [0])) / 1e9, "s"),
        "worker.train.degenerate": (
            errors["strategy.train_strategy", "DegenerateDataError"]
            + errors["worker.train", "DegenerateDataError"], "count"),
        "worker.train.clusters_mean": (statistics.fmean(samples["clusters"] or [0]), "count"),
        "worker.train.pca_retained_mean": (
            statistics.fmean(samples["pca_retained"] or [0]), "count"),
        "strategy.train_strategy.calls": (len(ns.get("strategy.train_strategy", [])), "count"),
        "strategy.train_strategy.s_total": (busy("strategy.train_strategy"), "s"),
        "strategy.train_strategy.self_s": (self_ns["strategy.train_strategy"] / 1e9, "s"),
        "strategy.train_strategy.train_instances": (counts["train_instances"], "count"),
        "worker.train_dispersion.calls": (len(ns.get("worker.train_dispersion", [])), "count"),
        "worker.train_dispersion.s_total": (busy("worker.train_dispersion"), "s"),
        "worker.predict.calls": (len(ns.get("worker.predict", [])), "count"),
        "worker.predict.us_p50": (percentile(us("worker.predict"), 50), "us"),
        "worker.predict_batch.calls": (len(batch), "count"),
        "worker.predict_batch.us_per_row_p50": (percentile(batch, 50), "us"),
        "worker.alarms": (counts["alarms"], "count"),
    }
    layer_self = 0.0
    for module in ("mud", "switch", "features", "worker", "strategy"):
        s = sum(v for k, v in self_ns.items() if k.startswith(module + ".")) / 1e9
        out[f"{module}.self_s"] = (s, "s")
        layer_self += s
    out["trace.spans"] = (len(spans.names), "count")
    out["trace.overhead_s"] = (traced.total_s - untraced_s, "s")
    # Self times include the spans' own cost, so the share can pass 1 when
    # the layers account for nearly all of the untraced time.
    out["trace.layers_share"] = (layer_self / untraced_s, "ratio")
    out["trace.unaccounted_share"] = (1.0 - layer_self / untraced_s, "ratio")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["fleet", "flood"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (SRC / "mudmon" / "__init__.py").is_file():
        print(f"error: package sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from pipeline import replay_gateways
    from spans import SpanRecorder
    from tracegen import generate

    traces = generate(args.workload, args.seed)
    for trace in traces:
        print("trace " + json.dumps(trace.summary(), sort_keys=True))
    # The trace is input, not program state: keep the collector from
    # re-scanning it in every replay.
    gc.collect()
    gc.freeze()
    import_s = import_seconds() if args.trace == 0 else 0.0

    budget = args.seconds / 2 if args.trace else args.seconds
    start = time.perf_counter()
    results = []
    while len(results) < MIN_REPLAYS or time.perf_counter() - start < budget:
        gc.collect()  # free the previous replay outside the timed region
        results.append(replay_gateways(traces))
    traced = None
    if args.trace:
        gc.collect()
        traced = replay_gateways(traces, SpanRecorder())

    problems = []
    checked = results + ([traced] if traced else [])
    for i, r in enumerate(checked):
        problems += [f"replay {i}: conservation: {e}" for e in r.conservation_errors]
        problems += [f"replay {i}: leaked: {e}" for e in r.layers.escaped]
        if len(r.latencies_ms) < MIN_VERDICTS:
            problems.append(f"replay {i}: only {len(r.latencies_ms)} verdict samples")
    digests = {(r.verdict_digest, r.model_digest) for r in checked}
    if len(digests) != 1:
        problems.append(f"replays disagree: {len(digests)} distinct digest pairs")
    for p in problems:
        print("FAIL " + p)
    first = checked[0]
    print(f"digests verdicts={first.verdict_digest} models={first.model_digest} "
          f"replays={len(checked)}")

    if traced is not None:
        metrics = per_layer(traced, min(r.total_s for r in results))
        traced.layers.spans.write(OUT / f"spans-{args.workload}-{args.seed}.tsv.gz")
        attempted, failed = traced.layers.attempted, traced.layers.failed
    else:
        metrics = end_to_end(results, import_s)
        attempted = sum(r.layers.attempted for r in results)
        failed = sum(r.layers.failed for r in results)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
