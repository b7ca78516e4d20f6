"""Feature extraction: sliding-window volumetric vectors and per-epoch
header-dispersion entropies.

Volumetric vectors are built from minutely per-rule packet/byte counters.
Each rule contributes a block whose shape depends on the feature set:

* FS1: running totals over windows of 1..W minutes (2W values),
* FS2: last-minute totals plus mean and standard deviation over the
  W-minute window (6 values, or 2 when W == 1),
* FS3: totals over 1..W plus mean and std over 2..W (6W - 4 values,
  20 at W == 4).

Channel and service vectors concatenate the blocks of their member rules in
canonical flow-id order. Default rules never contribute features. Standard
deviation is the population form; window totals equal the sum of the last
w one-minute totals.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .errors import EmptyError, OrderError
from .mud import FlowRuleTemplate, service_groups
from .switch import FlowCounterRecord, MISS_FLOW_ID


class FeatureSet(str, Enum):
    FS1 = "FS1"
    FS2 = "FS2"
    FS3 = "FS3"


@dataclass(frozen=True)
class FeatureLayout:
    feature_set: FeatureSet = FeatureSet.FS3
    max_window_min: int = 4

    def __post_init__(self):
        if not 1 <= self.max_window_min <= 8:
            raise ValueError("window must be within 1..8 minutes")

    def windows(self) -> tuple[range, range]:
        """Window lengths of a rule block: (totals, means and stds)."""
        w = self.max_window_min
        if w == 1 or self.feature_set is FeatureSet.FS1:
            # At W == 1 all feature sets collapse to the raw minute totals.
            return range(1, w + 1), range(0)
        if self.feature_set is FeatureSet.FS2:
            return range(1, 2), range(w, w + 1)
        return range(1, w + 1), range(2, w + 1)

    def per_rule_count(self) -> int:
        return len(self.per_rule_names())

    def per_rule_names(self) -> list[str]:
        totals, stats = self.windows()
        names: list[str] = []
        for i in totals:
            names += [f"pkts_total_w{i}", f"bytes_total_w{i}"]
        for i in stats:
            names += [f"pkts_mean_w{i}", f"bytes_mean_w{i}"]
        for i in stats:
            names += [f"pkts_std_w{i}", f"bytes_std_w{i}"]
        return names


class ScopeKind(str, Enum):
    CHANNEL_LOCAL = "channel_local"
    CHANNEL_INTERNET = "channel_internet"
    SERVICE = "service"
    MICROFLOW = "microflow"


@dataclass(frozen=True)
class FeatureScope:
    kind: ScopeKind
    name: str  # "local"/"internet", service letter, or microflow id

    def __str__(self) -> str:
        return f"{self.kind.value}:{self.name}"


@dataclass(frozen=True)
class VolumetricFeatureVector:
    device_id: str
    scope: FeatureScope
    ts_min: int
    values: tuple[float, ...]
    layout: FeatureLayout


def _rule_block(pkts: Sequence[int], bytes_: Sequence[int],
                layout: FeatureLayout) -> list[float]:
    """Feature block for one rule given the last W minutes, newest last."""
    totals, stats = layout.windows()
    out: list[float] = []
    for i in totals:
        out.append(float(sum(pkts[-i:])))
        out.append(float(sum(bytes_[-i:])))
    means = []
    for i in stats:
        means.append((sum(pkts[-i:]) / i, sum(bytes_[-i:]) / i))
        out += [means[-1][0], means[-1][1]]
    for idx, i in enumerate(stats):
        mp, mb = means[idx]
        vp = sum((x - mp) ** 2 for x in pkts[-i:]) / i
        vb = sum((x - mb) ** 2 for x in bytes_[-i:]) / i
        out += [math.sqrt(vp), math.sqrt(vb)]
    return out


class VolumetricExtractor:
    """Turns a minutely counter stream into per-scope feature vectors.

    Rule and channel scopes warm up for W minutes before emitting (no
    padding bias in training data); microflow scopes are born with genuine
    zero history and emit immediately.
    """

    def __init__(self, device_id: str, rules: list[FlowRuleTemplate],
                 layout: FeatureLayout):
        self.device_id = device_id
        self.layout = layout
        self.groups = service_groups(rules)  # letter -> feature-bearing rules
        self.rule_ids: list[str] = [r.flow_id for rs in self.groups.values() for r in rs]
        self.default_ids = {r.flow_id for r in rules} - set(self.rule_ids)
        self.local_rules = [r.flow_id for rs in self.groups.values() for r in rs
                            if r.scope is not None and r.scope.value == "local"]
        self.internet_rules = [r.flow_id for rs in self.groups.values() for r in rs
                               if r.scope is not None and r.scope.value == "internet"]
        w = layout.max_window_min
        self._hist: dict[str, tuple[deque, deque]] = {
            rid: (deque(maxlen=w), deque(maxlen=w)) for rid in self.rule_ids}
        self._micro_hist: dict[str, tuple[deque, deque]] = {}
        self._last_min: int | None = None
        self._minutes_seen = 0
        self.unknown_rows = 0

    def add_minute(self, ts_min: int, records: Iterable[FlowCounterRecord]
                   ) -> list[VolumetricFeatureVector]:
        """Ingest one poll's records for this device and emit vectors.

        Gaps in the stream are treated as zero-count minutes. Raises
        OrderError if ``ts_min`` moves backwards.
        """
        if self._last_min is not None and ts_min <= self._last_min:
            raise OrderError(
                f"{self.device_id}: minute {ts_min} after {self._last_min}")

        # Fill skipped minutes with zeros so windows stay aligned.
        if self._last_min is not None:
            for _ in range(ts_min - self._last_min - 1):
                self._push_minute({})
        per_rule: dict[str, tuple[int, int]] = {}
        for rec in records:
            if rec.device_id != self.device_id:
                continue
            if rec.flow_id in self._hist or "~" in rec.flow_id:
                per_rule[rec.flow_id] = (rec.packets, rec.bytes)
            elif (rec.flow_id not in self.default_ids
                  and rec.flow_id != MISS_FLOW_ID
                  and not rec.flow_id.startswith("block:")):
                # Foreign flow ids pass through counted but never scored.
                self.unknown_rows += 1
        self._push_minute(per_rule)
        self._last_min = ts_min
        self._minutes_seen += 1
        return self._emit(ts_min)

    def _push_minute(self, per_rule: Mapping[str, tuple[int, int]]) -> None:
        w = self.layout.max_window_min
        for rid, (pk, by) in self._hist.items():
            p, b = per_rule.get(rid, (0, 0))
            pk.append(p)
            by.append(b)
        live_micro = set()
        for rid, counts in per_rule.items():
            if "~" not in rid:
                continue
            live_micro.add(rid)
            if rid not in self._micro_hist:
                # Pre-birth traffic was genuinely zero: backfill the window.
                self._micro_hist[rid] = (deque([0] * (w - 1), maxlen=w),
                                         deque([0] * (w - 1), maxlen=w))
            self._micro_hist[rid][0].append(counts[0])
            self._micro_hist[rid][1].append(counts[1])
        # Microflows absent from a poll have been torn down; drop their state.
        for rid in list(self._micro_hist):
            if rid not in live_micro:
                del self._micro_hist[rid]

    def _emit(self, ts_min: int) -> list[VolumetricFeatureVector]:
        out: list[VolumetricFeatureVector] = []
        layout = self.layout
        for rid, (pk, by) in self._micro_hist.items():
            out.append(VolumetricFeatureVector(
                self.device_id, FeatureScope(ScopeKind.MICROFLOW, rid), ts_min,
                tuple(_rule_block(list(pk), list(by), layout)), layout))
        if self._minutes_seen < layout.max_window_min:
            return out
        blocks = {rid: _rule_block(list(pk), list(by), layout)
                  for rid, (pk, by) in self._hist.items()}

        def concat(rule_ids: list[str]) -> tuple[float, ...]:
            vals: list[float] = []
            for rid in rule_ids:
                vals += blocks[rid]
            return tuple(vals)

        if self.local_rules:
            out.append(VolumetricFeatureVector(
                self.device_id, FeatureScope(ScopeKind.CHANNEL_LOCAL, "local"),
                ts_min, concat(self.local_rules), layout))
        if self.internet_rules:
            out.append(VolumetricFeatureVector(
                self.device_id, FeatureScope(ScopeKind.CHANNEL_INTERNET, "internet"),
                ts_min, concat(self.internet_rules), layout))
        for letter, rules in self.groups.items():
            out.append(VolumetricFeatureVector(
                self.device_id, FeatureScope(ScopeKind.SERVICE, letter), ts_min,
                concat([r.flow_id for r in rules]), layout))
        return out

    def device_feature_count(self) -> int:
        return len(self.rule_ids) * self.layout.per_rule_count()


# ---------------------------------------------------------------------------
# Dispersion features


def sample_entropy(counts) -> float:
    """Shannon entropy (base 2) of an observed value distribution.

    Accepts a mapping value -> count or any iterable of observations.
    Returns a value in [0, log2(N)] for N distinct values; 0 when fully
    concentrated. Raises EmptyError on an empty multiset.
    """
    if isinstance(counts, Mapping):
        values = [c for c in counts.values() if c > 0]
    else:
        values = [c for c in Counter(counts).values()]
    total = sum(values)
    if total <= 0:
        raise EmptyError("entropy of an empty multiset is undefined")
    h = 0.0
    for c in values:
        p = c / total
        h -= p * math.log2(p)
    return max(h, 0.0)


ENTROPY_WINDOW_EPOCHS = 4


@dataclass(frozen=True)
class EntropyFeatureVector:
    device_id: str
    flow_pair_id: str  # service letter
    header: str
    epoch_end: int  # microseconds
    values: tuple[float, float, float, float]  # oldest first
    ready: bool  # False until four epochs of history exist


class EntropyWindows:
    """Per-header epoch entropy with a sliding four-epoch window.

    ``observe`` records one observation per dynamic header per mirrored
    packet; ``roll`` closes the epoch and emits one vector per header.
    """

    def __init__(self, device_id: str, flow_pair_id: str, headers: Sequence[str]):
        self.device_id = device_id
        self.flow_pair_id = flow_pair_id
        self.headers = tuple(headers)
        self._counts: dict[str, Counter] = {h: Counter() for h in self.headers}
        self._windows: dict[str, deque] = {
            h: deque(maxlen=ENTROPY_WINDOW_EPOCHS) for h in self.headers}
        self.epochs_seen = 0

    def observe(self, header_values: Mapping[str, object]) -> None:
        for h in self.headers:
            v = header_values.get(h)
            if v is not None:
                self._counts[h][v] += 1

    def roll(self, epoch_end: int) -> list[EntropyFeatureVector]:
        self.epochs_seen += 1
        ready = self.epochs_seen >= ENTROPY_WINDOW_EPOCHS
        out = []
        for h in self.headers:
            counts = self._counts[h]
            entropy = sample_entropy(counts) if counts else 0.0
            window = self._windows[h]
            window.append(entropy)
            padded = [0.0] * (ENTROPY_WINDOW_EPOCHS - len(window)) + list(window)
            out.append(EntropyFeatureVector(
                self.device_id, self.flow_pair_id, h, epoch_end,
                tuple(padded), ready))
            self._counts[h] = Counter()
        return out
