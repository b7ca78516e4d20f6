"""Tests for the replay benchmark: run with ``python -m pytest bench``."""

import dataclasses
import json
from pathlib import Path

import pytest

import pipeline
import run
import tracegen
from spans import SpanRecorder

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# Scaled-down copies of the two workloads, so a replay takes about a second.
SMALL = {
    "fleet": dataclasses.replace(
        tracegen.WORKLOADS["fleet"], fleet=(("plug", 8), ("camera", 6), ("hub", 6)),
        train_minutes=10, minutes=16, onset_range=(3, 4),
        attacks=((("plug", "syn", False), ("camera", "ntp", False), ("hub", "ntp", False)),)),
    "flood": dataclasses.replace(
        tracegen.WORKLOADS["flood"], train_minutes=12, minutes=24, rate_pps=5.0,
        onset_range=(2, 6), attacks=tracegen.WORKLOADS["flood"].attacks[:2]),
}


@pytest.fixture
def small(monkeypatch):
    for name, spec in SMALL.items():
        monkeypatch.setitem(tracegen.WORKLOADS, f"small-{name}", spec)
    return lambda name, seed=1: tracegen.generate(f"small-{name}", seed)


def packets(trace):
    return [p for minute in trace.epochs for epoch in minute for p in epoch]


def test_generator_is_deterministic_for_a_seed():
    first, again = tracegen.generate("flood", 7), tracegen.generate("flood", 7)
    assert len(first) == len(tracegen.WORKLOADS["flood"].attacks)
    for a, b in zip(first, again):
        assert packets(a) == packets(b)
        assert a.attacks == b.attacks and a.calibration == b.calibration
        assert a.summary() == b.summary()
    assert packets(first[0]) != packets(first[1])
    assert packets(tracegen.generate("flood", 8)[0]) != packets(first[0])


def test_generator_labels_phases():
    trace = tracegen.generate("fleet", 3)[0]
    dev, attack = next(iter(trace.attacks.items()))
    assert trace.phase(dev, 0) == "benign-train"
    assert trace.phase(dev, attack.onset_min - 1) == "benign-detect"
    assert trace.phase(dev, attack.onset_min) == "attack"
    assert trace.train_minutes < attack.onset_min < trace.minutes
    for minute in trace.epochs:
        for epoch in minute:
            assert [p.ts for p in epoch] == sorted(p.ts for p in epoch)


@pytest.mark.parametrize("workload", ["fleet", "flood"])
def test_smoke_replay(small, workload):
    traces = small(workload)
    first = pipeline.replay_gateways(traces)
    second = pipeline.replay_gateways(traces)
    assert first.packets == sum(t.packet_count() for t in traces)
    assert first.conservation_errors == []
    assert first.layers.escaped == []
    assert first.attacked_minutes > 0 and first.attacked_flagged > 0
    assert first.benign_minutes > 0
    assert (first.verdict_digest, first.model_digest) == (
        second.verdict_digest, second.model_digest)
    assert first.layers.failed == second.layers.failed
    if workload == "flood":
        assert first.counts["microflow_vectors"] > 0


def test_conservation_check_catches_a_planted_miscount(small, monkeypatch):
    class Lossy(pipeline.SwitchSim):
        """Drops one nonzero counter record from one poll."""

        dropped = None

        def poll_counters(self, ts_min):
            records = super().poll_counters(ts_min)
            if Lossy.dropped is None:
                for i, rec in enumerate(records):
                    if rec.packets:
                        Lossy.dropped = records.pop(i)
                        break
            return records

    monkeypatch.setattr(pipeline, "SwitchSim", Lossy)
    result = pipeline.Replay(small("flood")[0]).run()
    assert Lossy.dropped is not None
    assert len(result.conservation_errors) == 1
    assert result.conservation_errors[0].startswith(Lossy.dropped.device_id + ":")


def test_a_spoofed_flood_fills_the_table_and_its_service_is_blocked(small, monkeypatch):
    monkeypatch.setattr(pipeline, "TCAM_CAPACITY", 64)
    blocked = []
    block_service = pipeline.Replay.block_service

    def spy(self, st, letter, flow_ids, m, now):
        blocked.append(st.device_id)
        return block_service(self, st, letter, flow_ids, m, now)

    monkeypatch.setattr(pipeline.Replay, "block_service", spy)
    trace = small("flood")[0]
    victim = next(d for d, a in trace.attacks.items() if a.spoofed)
    result = pipeline.Replay(trace).run()
    assert result.layers.errors["switch.insert_microflow", "TableFullError"] > 0
    assert max(result.samples["entries"]) >= 64
    assert victim in blocked
    assert result.conservation_errors == []


def test_conservation_errors_compares_packets_and_bytes():
    assert pipeline.conservation_errors({"d": [3, 300]}, {"d": [3, 300]}) == []
    assert pipeline.conservation_errors({"d": [3, 300]}, {"d": [3, 301]})
    assert pipeline.conservation_errors({}, {"d": [1, 60]})


def test_printed_metrics_are_exactly_the_declared_ones(small):
    declared = json.loads(BENCHMARK.read_text())
    traces = small("flood")
    plain = pipeline.replay_gateways(traces)
    traced = pipeline.replay_gateways(traces, SpanRecorder())
    e2e = run.end_to_end([plain], import_s=0.1)
    layers = run.per_layer(traced, plain.total_s)
    assert set(e2e) == {m["name"] for m in declared["end_to_end"]}
    assert set(layers) == {m["name"] for m in declared["per_layer"]}
    for section, printed in (("end_to_end", e2e), ("per_layer", layers)):
        for m in declared[section]:
            assert printed[m["name"]][1] == m["unit"], m["name"]
    assert traced.verdict_digest == plain.verdict_digest


def test_traced_spans_nest_and_cover_the_layers(small):
    spans = SpanRecorder()
    pipeline.Replay(small("flood")[0], spans).run()
    names = set(spans.names)
    assert {"mud.parse_profile", "switch.process_packet", "features.add_minute",
            "strategy.train_strategy", "worker.train", "worker.predict"} <= names
    train_parents = {spans.names[spans.parents[i]]
                     for i, n in enumerate(spans.names) if n == "worker.train"
                     and spans.parents[i] >= 0}
    assert train_parents == {"strategy.train_strategy"}
    selfs = spans.self_times()
    total = sum(e - s for s, e, p in zip(spans.starts, spans.ends, spans.parents) if p < 0)
    assert sum(selfs.values()) == total
