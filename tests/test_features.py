import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mudmon.errors import EmptyError, OrderError
from mudmon.features import (
    EntropyWindows,
    FeatureLayout,
    FeatureSet,
    ScopeKind,
    VolumetricExtractor,
    sample_entropy,
)
from mudmon.mud import Scope, parse_profile, service_groups, translate
from mudmon.switch import FlowCounterRecord

from test_mud import DEV_MAC, GW_IP, GW_MAC, tplink_like_profile


def plug_rules():
    return translate(parse_profile(tplink_like_profile()), DEV_MAC, GW_MAC, GW_IP)


def oracle_block(pkts, bytes_, feature_set, w):
    """Independent sliding-window arithmetic on raw per-minute counts."""
    out = []
    windows = range(1, w + 1) if (feature_set != "FS2" or w == 1) else [1]
    for i in windows:
        out += [float(sum(pkts[-i:])), float(sum(bytes_[-i:]))]
    if w > 1 and feature_set != "FS1":
        stat_windows = range(2, w + 1) if feature_set == "FS3" else [w]
        means = []
        for i in stat_windows:
            means.append((sum(pkts[-i:]) / i, sum(bytes_[-i:]) / i))
            out += list(means[-1])
        for (mp, mb), i in zip(means, stat_windows):
            out.append(math.sqrt(sum((x - mp) ** 2 for x in pkts[-i:]) / i))
            out.append(math.sqrt(sum((x - mb) ** 2 for x in bytes_[-i:]) / i))
    return out


class TestLayout:
    def test_fs3_w4_is_20_per_rule(self):
        assert FeatureLayout(FeatureSet.FS3, 4).per_rule_count() == 20

    def test_fs1_counts(self):
        for w in range(1, 9):
            assert FeatureLayout(FeatureSet.FS1, w).per_rule_count() == 2 * w

    def test_fs2_counts(self):
        assert FeatureLayout(FeatureSet.FS2, 1).per_rule_count() == 2
        for w in range(2, 9):
            assert FeatureLayout(FeatureSet.FS2, w).per_rule_count() == 6

    def test_fs3_counts(self):
        for w in range(1, 9):
            expected = 2 if w == 1 else 6 * w - 4
            assert FeatureLayout(FeatureSet.FS3, w).per_rule_count() == expected

    def test_names_match_count(self):
        for fs in FeatureSet:
            for w in (1, 2, 4, 8):
                layout = FeatureLayout(fs, w)
                assert len(layout.per_rule_names()) == layout.per_rule_count()

    def test_feature_set_given_by_value(self):
        assert FeatureLayout("FS1", 4).feature_set is FeatureSet.FS1
        assert FeatureLayout("FS1", 4).per_rule_count() == 8
        assert FeatureLayout("FS2", 4).per_rule_names() == FeatureLayout(
            FeatureSet.FS2, 4).per_rule_names()

    def test_unknown_feature_set_raises(self):
        with pytest.raises(ValueError):
            FeatureLayout("bogus", 4)

    def test_window_bounds(self):
        with pytest.raises(ValueError):
            FeatureLayout(FeatureSet.FS3, 0)
        with pytest.raises(ValueError):
            FeatureLayout(FeatureSet.FS3, 9)


class TestVolumetric:
    def rec(self, ts, flow, pkts, byts):
        return FlowCounterRecord(ts, "plug", flow, pkts, byts)

    def test_device_feature_count_is_340(self):
        ext = VolumetricExtractor("plug", plug_rules(), FeatureLayout(FeatureSet.FS3, 4))
        assert ext.device_feature_count() == 340
        assert len(ext.rule_ids) == 17

    def test_steady_state_pair_matches_oracle(self):
        layout = FeatureLayout(FeatureSet.FS3, 4)
        ext = VolumetricExtractor("plug", plug_rules(), layout)
        vectors = {}
        for m in range(6):
            recs = [self.rec(m, "i.1", 5, 300), self.rec(m, "i.2", 5, 300)]
            for v in ext.add_minute(m, recs):
                vectors[(str(v.scope), m)] = v
        v = vectors[("service:i", 5)]
        # One 20-value block per rule of the pair, i.1 first.
        expected = oracle_block([5] * 4, [300] * 4, "FS3", 4) * 2
        assert list(v.values) == pytest.approx(expected)
        # Steady state: totals scale with window, stds vanish.
        assert v.values[0] == 5 and v.values[6] == 20
        assert all(x == 0.0 for x in v.values[14:20])

    def test_warmup_no_emission(self):
        layout = FeatureLayout(FeatureSet.FS3, 4)
        ext = VolumetricExtractor("plug", plug_rules(), layout)
        assert ext.add_minute(0, []) == []
        assert ext.add_minute(1, []) == []
        assert ext.add_minute(2, []) == []
        assert len(ext.add_minute(3, [])) > 0

    def test_all_zero_minutes_give_zero_vectors(self):
        ext = VolumetricExtractor("plug", plug_rules(), FeatureLayout(FeatureSet.FS3, 4))
        out = []
        for m in range(4):
            out = ext.add_minute(m, [])
        assert out
        assert all(all(x == 0.0 for x in v.values) for v in out)

    def test_scope_lengths(self):
        ext = VolumetricExtractor("plug", plug_rules(), FeatureLayout(FeatureSet.FS3, 4))
        out = []
        for m in range(4):
            out = ext.add_minute(m, [])
        by_scope = {str(v.scope): v for v in out}
        assert len(by_scope["channel_internet:internet"].values) == 80
        assert len(by_scope["channel_local:local"].values) == 260
        assert len(by_scope["service:a"].values) == 40
        assert len(by_scope["service:c"].values) == 20

    def test_defaults_never_appear(self):
        ext = VolumetricExtractor("plug", plug_rules(), FeatureLayout(FeatureSet.FS3, 4))
        seen = set()
        for m in range(5):
            recs = [self.rec(m, "g.1", 7, 700), self.rec(m, "k", 3, 300),
                    self.rec(m, "i.1", 1, 100)]
            for v in ext.add_minute(m, recs):
                seen.add(str(v.scope))
        assert not any("g" == s.split(":")[1] or "k" == s.split(":")[1] for s in seen)
        assert ext.unknown_rows == 0

    def test_window_total_identity_random(self):
        rng = random.Random(42)
        layout = FeatureLayout(FeatureSet.FS3, 4)
        ext = VolumetricExtractor("plug", plug_rules(), layout)
        history = []
        for m in range(12):
            p, b = rng.randrange(50), rng.randrange(5000)
            history.append((p, b))
            out = ext.add_minute(m, [self.rec(m, "j.1", p, b)])
            if not out:
                continue
            v = next(v for v in out if str(v.scope) == "service:j")
            block = list(v.values[:20])
            pk = [x for x, _ in history[-4:]]
            by = [y for _, y in history[-4:]]
            assert block == pytest.approx(oracle_block(pk, by, "FS3", 4))
            # W-min total equals the sum of the last W 1-min totals.
            assert block[6] == pytest.approx(sum(pk))

    def test_gap_treated_as_zeros(self):
        layout = FeatureLayout(FeatureSet.FS3, 2)
        ext = VolumetricExtractor("plug", plug_rules(), layout)
        ext.add_minute(0, [self.rec(0, "i.1", 8, 800)])
        out = ext.add_minute(3, [self.rec(3, "i.1", 4, 400)])  # minutes 1-2 missing
        v = next(v for v in out if str(v.scope) == "service:i")
        assert v.values[0] == 4.0 and v.values[2] == 4.0  # 2-min total: 0 + 4

    def test_long_gap_costs_one_window(self):
        # Zero-filling stops once every window is zeros, so a gap of 10^12
        # minutes returns at once, with the vectors a gap of W + 1 gives.
        layout = FeatureLayout(FeatureSet.FS3, 4)

        def after_gap(t):
            ext = VolumetricExtractor("plug", plug_rules(), layout)
            ext.add_minute(0, [self.rec(0, "i.1", 8, 800)])
            return [v.values for v in ext.add_minute(t, [self.rec(t, "i.1", 4, 400)])]

        assert after_gap(10**12) == after_gap(5) != []

    def test_out_of_order_raises(self):
        ext = VolumetricExtractor("plug", plug_rules(), FeatureLayout(FeatureSet.FS3, 4))
        ext.add_minute(5, [])
        with pytest.raises(OrderError):
            ext.add_minute(5, [])

    def test_microflow_scope_emits_immediately(self):
        ext = VolumetricExtractor("plug", plug_rules(), FeatureLayout(FeatureSet.FS3, 4))
        out = ext.add_minute(0, [self.rec(0, "i.2~10.0.0.1:5>192.168.1.20:9999/6", 600, 36000)])
        micro = [v for v in out if v.scope.kind is ScopeKind.MICROFLOW]
        assert len(micro) == 1
        assert micro[0].values[0] == 600.0
        assert micro[0].values[6] == 600.0  # zero backfill before birth

    def test_block_with_a_microflow_mark_is_not_scored(self):
        ext = VolumetricExtractor("plug", plug_rules(), FeatureLayout(FeatureSet.FS3, 4))
        out = ext.add_minute(0, [self.rec(0, "block:i.2~10.0.0.1:5>192.168.1.20:9999/6", 6, 360)])
        assert out == [] and ext.unknown_rows == 0


# Scored rules, a default rule, a foreign id and two microflows.
POLL_FLOWS = ["i.1", "i.2", "j.1", "g.1", "zz.9",
              "i.2~10.0.0.1:5>192.168.1.20:9999/6", "i.1~10.0.0.2:7>192.168.1.20:80/6"]
POLLS = st.lists(st.tuples(st.sampled_from(POLL_FLOWS), st.integers(0, 50),
                           st.integers(0, 5000)), max_size=5)
# (minutes since the previous poll, records); the first poll is at minute 0.
STREAMS = st.lists(st.tuples(st.integers(1, 4), POLLS), min_size=1, max_size=8)
LAYOUTS = st.builds(FeatureLayout, st.sampled_from(list(FeatureSet)), st.integers(1, 4))


class TestExtractorProperties:
    @staticmethod
    def twins(layout, stream):
        """Two extractors fed the same stream; returns them and its last minute."""
        exts = [VolumetricExtractor("plug", plug_rules(), layout) for _ in range(2)]
        m = -1
        for step, (delta, poll) in enumerate(stream):
            m = 0 if step == 0 else m + delta
            for ext in exts:
                ext.add_minute(m, records(m, poll))
        return exts[0], exts[1], m

    @settings(max_examples=100, deadline=None)
    @given(LAYOUTS, STREAMS, st.integers(0, 6), POLLS, POLLS)
    def test_minute_not_after_the_last_raises_and_changes_nothing(
            self, layout, stream, back, bad, nxt):
        ext, twin, m = self.twins(layout, stream)
        with pytest.raises(OrderError):
            ext.add_minute(m - back, records(m - back, bad))
        assert ext.unknown_rows == twin.unknown_rows
        for t in (m + 1, m + 3):
            assert ext.add_minute(t, records(t, nxt)) == twin.add_minute(t, records(t, nxt))

    @settings(max_examples=100, deadline=None)
    @given(LAYOUTS, STREAMS, st.integers(1, 10), POLLS, POLLS)
    def test_gap_equals_explicit_empty_polls(self, layout, stream, gap, last, nxt):
        skipped, polled, m = self.twins(layout, stream)
        for t in range(m + 1, m + gap + 1):
            polled.add_minute(t, [])
        t = m + gap + 1
        assert skipped.add_minute(t, records(t, last)) == polled.add_minute(t, records(t, last))
        assert skipped.add_minute(t + 1, records(t + 1, nxt)) == polled.add_minute(
            t + 1, records(t + 1, nxt))
        assert skipped.unknown_rows == polled.unknown_rows


def records(ts, poll):
    return [FlowCounterRecord(ts, "plug", flow, pkts, byts) for flow, pkts, byts in poll]


def naive_vectors(layout, polls):
    """Expected (scope kind, name, minute, values) per poll, from raw history.

    Recomputes every window from the per-minute records seen so far. A
    microflow's window is its current run of consecutive polled minutes,
    zeros before it; it is listed by the start of that run, then by its first
    record in the poll that started it. Rule scopes emit once W minutes have
    passed since the first poll.
    """
    w, fs = layout.max_window_min, layout.feature_set.value
    groups = service_groups(plug_rules())
    scored = [r for rs in groups.values() for r in rs]
    scopes = [(ScopeKind.CHANNEL_LOCAL, "local",
               [r.flow_id for r in scored if r.scope is Scope.LOCAL]),
              (ScopeKind.CHANNEL_INTERNET, "internet",
               [r.flow_id for r in scored if r.scope is Scope.INTERNET])]
    scopes = [s for s in scopes if s[2]] + [
        (ScopeKind.SERVICE, g, [r.flow_id for r in rs]) for g, rs in groups.items()]
    seen: dict[int, dict[str, tuple[int, int]]] = {}
    first = polls[0][0]
    expected = []
    for t, recs in polls:
        seen[t] = {}
        for r in recs:
            if r.device_id == "plug":
                seen[t][r.flow_id] = (r.packets, r.bytes)

        def block(fid, since):
            col = [seen.get(s, {}).get(fid, (0, 0)) if s >= since else (0, 0)
                   for s in range(t - w + 1, t + 1)]
            return oracle_block([p for p, _ in col], [b for _, b in col], fs, w)

        def run_start(fid):
            s = t
            while fid in seen.get(s - 1, {}):
                s -= 1
            return s

        out = []
        micro = [f for f in seen[t] if "~" in f]
        for fid in sorted(micro, key=lambda f: (run_start(f),
                                                list(seen[run_start(f)]).index(f))):
            out.append((ScopeKind.MICROFLOW, fid, t, tuple(block(fid, run_start(fid)))))
        if t - first + 1 >= w:
            for kind, name, members in scopes:
                out.append((kind, name, t, tuple(v for f in members for v in block(f, first))))
        expected.append(out)
    return expected


# Scored rules, defaults, a foreign id, a block, the miss counter, microflows
# under two parents, and another device's records.
DIFF_FLOWS = ["i.1", "i.2", "j.1", "a.1", "g.1", "k", "zz.9", "block:i.2", "_miss",
              "i.2~10.0.0.1:5>192.168.1.20:9999/6", "i.2~10.0.0.3:5>192.168.1.20:9999/6",
              "i.1~10.0.0.2:7>192.168.1.20:80/6"]
DIFF_POLLS = st.lists(st.tuples(st.sampled_from(["plug", "plug", "plug", "cam"]),
                                st.sampled_from(DIFF_FLOWS), st.integers(0, 60),
                                st.integers(0, 9000)), max_size=8)


class TestExtractorDifferential:
    @settings(max_examples=300, deadline=None)
    @given(st.builds(FeatureLayout, st.sampled_from(list(FeatureSet)), st.integers(1, 5)),
           st.integers(0, 3),
           st.lists(st.tuples(st.integers(1, 7), DIFF_POLLS), min_size=1, max_size=14))
    def test_vectors_equal_naive_history(self, layout, start, stream):
        ext = VolumetricExtractor("plug", plug_rules(), layout)
        polls, m = [], start
        for step, (delta, poll) in enumerate(stream):
            m = m if step == 0 else m + delta
            polls.append((m, [FlowCounterRecord(m, dev, f, p, b) for dev, f, p, b in poll]))
        for (t, recs), want in zip(polls, naive_vectors(layout, polls)):
            out = ext.add_minute(t, recs)
            assert {v.device_id for v in out} <= {"plug"}
            assert [(v.scope.kind, v.scope.name, v.ts_min, v.values) for v in out] == want
        assert ext.unknown_rows == sum(r.device_id == "plug" and r.flow_id == "zz.9"
                                       for _, recs in polls for r in recs)


class TestEntropy:
    def test_concentrated_is_zero(self):
        assert sample_entropy({"a": 8}) == 0.0

    def test_uniform_four_is_two(self):
        assert sample_entropy({"a": 1, "b": 1, "c": 1, "d": 1}) == 2.0

    def test_skewed_pair(self):
        assert sample_entropy({"a": 3, "b": 1}) == pytest.approx(0.8112781, abs=1e-6)

    def test_accepts_iterables(self):
        assert sample_entropy(["x", "x", "y", "y"]) == 1.0

    def test_empty_raises(self):
        with pytest.raises(EmptyError):
            sample_entropy({})

    def test_against_direct_formula_on_random_multisets(self):
        rng = random.Random(7)
        for _ in range(1000):
            n_vals = rng.randint(1, 40)
            counts = {i: rng.randint(1, 50) for i in range(n_vals)}
            total = sum(counts.values())
            expected = -sum((c / total) * math.log2(c / total) for c in counts.values())
            h = sample_entropy(counts)
            assert abs(h - expected) <= 1e-9
            assert -1e-12 <= h <= math.log2(n_vals) + 1e-9

    def test_permutation_invariance(self):
        rng = random.Random(3)
        obs = [rng.randint(0, 9) for _ in range(200)]
        h1 = sample_entropy(obs)
        rng.shuffle(obs)
        assert sample_entropy(obs) == h1


class TestEntropyWindows:
    def test_uniform_source_ip_attack_shape(self):
        win = EntropyWindows("plug", "i", ["src_ip", "src_port"])
        rng = random.Random(0)
        for epoch in range(6):
            for _ in range(500):  # 100 pps over a 5 s epoch
                win.observe({"src_ip": f"10.0.{rng.randrange(32)}.{rng.randrange(1)}",
                             "src_port": 50000})
            vectors = {v.header: v for v in win.roll((epoch + 1) * 5_000_000)}
        assert vectors["src_ip"].values[-1] == pytest.approx(5.0, abs=0.2)
        assert vectors["src_port"].values[-1] == 0.0

    def test_empty_epoch_entropy_zero(self):
        win = EntropyWindows("plug", "i", ["src_ip"])
        vectors = win.roll(5_000_000)
        assert vectors[0].values == (0.0, 0.0, 0.0, 0.0)

    def test_single_peer_chatter_all_zero(self):
        win = EntropyWindows("plug", "b", ["src_port", "dst_ip"])
        for epoch in range(5):
            for _ in range(10):
                win.observe({"src_port": 50443, "dst_ip": "93.184.216.34"})
            vectors = win.roll((epoch + 1) * 5_000_000)
        assert all(v.values == (0.0, 0.0, 0.0, 0.0) for v in vectors)

    def test_ready_after_four_epochs(self):
        win = EntropyWindows("plug", "i", ["src_ip"])
        readiness = [win.roll(e * 1_000_000)[0].ready for e in range(1, 6)]
        assert readiness == [False, False, False, True, True]

    def test_window_is_last_four_oldest_first(self):
        win = EntropyWindows("plug", "i", ["src_ip"])
        values = []
        for epoch in range(6):
            for i in range(2 ** epoch):
                win.observe({"src_ip": f"ip{i}"})
            v = win.roll((epoch + 1) * 1_000_000)[0]
            values.append(v.values)
        # Epoch e sees 2^e distinct addresses once each: entropy e bits.
        assert values[-1] == (2.0, 3.0, 4.0, 5.0)
