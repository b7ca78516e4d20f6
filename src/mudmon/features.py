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

The extractor keeps one window per counter: a deque of the last W
``(packets, bytes)`` minutes for every scored rule and every live
microflow, in one store.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, islice, repeat
from typing import Iterable, Mapping, Sequence

from .errors import EmptyError, OrderError
from .mud import FlowRuleTemplate, Scope, service_groups
from .switch import BLOCK_PREFIX, FlowCounterRecord, MICROFLOW_MARK, MISS_FLOW_ID


class FeatureSet(str, Enum):
    FS1 = "FS1"
    FS2 = "FS2"
    FS3 = "FS3"


@dataclass(frozen=True)
class FeatureLayout:
    feature_set: FeatureSet = FeatureSet.FS3
    max_window_min: int = 4

    def __post_init__(self):
        # A string names its FeatureSet; an unknown one raises ValueError.
        object.__setattr__(self, "feature_set", FeatureSet(self.feature_set))
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


def _rule_block(window: Sequence[tuple[int, int]],
                windows: tuple[range, range]) -> list[float]:
    """Feature block for one counter: its last W minutes, newest last."""
    totals, stats = windows  # FeatureLayout.windows()
    pkts, bytes_ = zip(*window)
    # sum_p[i] is the total of the last i minutes, summed from the newest back.
    sum_p = [0, *accumulate(reversed(pkts))]
    sum_b = [0, *accumulate(reversed(bytes_))]
    out: list[float] = []
    for i in totals:
        out += [float(sum_p[i]), float(sum_b[i])]
    means = [(sum_p[i] / i, sum_b[i] / i) for i in stats]
    for mp, mb in means:
        out += [mp, mb]
    for (mp, mb), i in zip(means, stats):
        vp = sum((x - mp) ** 2 for x in pkts[-i:]) / i
        vb = sum((x - mb) ** 2 for x in bytes_[-i:]) / i
        out += [math.sqrt(vp), math.sqrt(vb)]
    return out


class VolumetricExtractor:
    """Turns a minutely counter stream into per-scope feature vectors.

    Rule and channel scopes emit once the rule windows are full, W minutes
    after the first poll (no padding bias in training data); microflow
    scopes are born with genuine zero history and emit immediately. A
    microflow absent from a poll has been torn down and loses its window.
    """

    def __init__(self, device_id: str, rules: list[FlowRuleTemplate],
                 layout: FeatureLayout):
        self.device_id = device_id
        self.layout = layout
        self.groups = service_groups(rules)  # letter -> feature-bearing rules
        self.rule_ids: list[str] = [r.flow_id for rs in self.groups.values() for r in rs]
        self.default_ids = {r.flow_id for r in rules} - set(self.rule_ids)
        channels = [
            (FeatureScope(kind, scope.value),
             [r.flow_id for rs in self.groups.values() for r in rs if r.scope is scope])
            for kind, scope in ((ScopeKind.CHANNEL_LOCAL, Scope.LOCAL),
                                (ScopeKind.CHANNEL_INTERNET, Scope.INTERNET))]
        self._scopes = [c for c in channels if c[1]] + [
            (FeatureScope(ScopeKind.SERVICE, letter), [r.flow_id for r in rs])
            for letter, rs in self.groups.items()]
        # flow id -> last W (packets, bytes) minutes: the rules, then the
        # live microflows in order of birth.
        self._windows: dict[str, deque] = {
            rid: deque(maxlen=layout.max_window_min) for rid in self.rule_ids}
        self._last_min: int | None = None
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

        # Fill skipped minutes with zeros, so the windows (and with them the
        # warm-up) count them; W zero minutes already clear every window.
        gap = 0 if self._last_min is None else ts_min - self._last_min - 1
        for _ in range(min(gap, self.layout.max_window_min)):
            self._push_minute({})
        counts: dict[str, tuple[int, int]] = {}
        for rec in records:
            if rec.device_id != self.device_id or rec.flow_id.startswith(BLOCK_PREFIX):
                continue
            if rec.flow_id in self._windows or MICROFLOW_MARK in rec.flow_id:
                counts[rec.flow_id] = (rec.packets, rec.bytes)
            elif rec.flow_id not in self.default_ids and rec.flow_id != MISS_FLOW_ID:
                # Foreign flow ids pass through counted but never scored.
                self.unknown_rows += 1
        self._push_minute(counts)
        self._last_min = ts_min
        return self._emit(ts_min)

    def _push_minute(self, counts: Mapping[str, tuple[int, int]]) -> None:
        windows = self._windows
        for fid in [f for f in islice(windows, len(self.rule_ids), None) if f not in counts]:
            del windows[fid]  # torn down
        for fid, window in windows.items():
            window.append(counts.get(fid, (0, 0)))
        w = self.layout.max_window_min
        for fid, pair in counts.items():
            if fid not in windows:
                # A new microflow's earlier traffic was genuinely zero.
                windows[fid] = deque([*repeat((0, 0), w - 1), pair], maxlen=w)

    def _emit(self, ts_min: int) -> list[VolumetricFeatureVector]:
        spec = self.layout.windows()
        n_rules = len(self.rule_ids)
        out = [VolumetricFeatureVector(
                   self.device_id, FeatureScope(ScopeKind.MICROFLOW, fid), ts_min,
                   tuple(_rule_block(window, spec)))
               for fid, window in islice(self._windows.items(), n_rules, None)]
        if n_rules == 0 or len(self._windows[self.rule_ids[0]]) < self.layout.max_window_min:
            return out
        blocks = {rid: _rule_block(self._windows[rid], spec) for rid in self.rule_ids}
        for scope, members in self._scopes:
            vals: list[float] = []
            for rid in members:
                vals += blocks[rid]
            out.append(VolumetricFeatureVector(self.device_id, scope, ts_min, tuple(vals)))
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
        # Epochs before the first count as zero entropy.
        self._windows: dict[str, deque] = {
            h: deque(repeat(0.0, ENTROPY_WINDOW_EPOCHS), maxlen=ENTROPY_WINDOW_EPOCHS)
            for h in self.headers}
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
            window = self._windows[h]
            window.append(sample_entropy(counts) if counts else 0.0)
            out.append(EntropyFeatureVector(
                self.device_id, self.flow_pair_id, h, epoch_end, tuple(window), ready))
            counts.clear()
        return out
