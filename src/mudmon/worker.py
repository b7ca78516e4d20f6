"""One-class anomaly workers.

Training pipeline: drop zero-variance features, z-score the rest, project
onto the principal components retained by the Kaiser rule (eigenvalues of
the correlation matrix above 1), cluster with the Manhattan-metric bisecting
search (at most ``MAX_CLUSTERS`` clusters, defined in ``xmeans``), and set
each cluster's boundary at the ``BOUNDARY_PERCENTILE`` (97.5th) percentile of
training distances to its head. An optional first-order transition machine
flags in-boundary observations whose cluster transition was never seen in
the time-ordered training sequence. ``TrainConfig`` sets only the minimum
training rows, the detector mode and whether PCA runs.

``ClusterModel.score`` is the one boundary rule: nearest head, outside when
the distance exceeds its radius or is NaN (fails closed). ``predict``,
``predict_batch`` and the machine fit all use it. ``predict(vector,
prev_state)`` is pure: it returns a verdict and the next stream state,
advancing state only on in-boundary observations.
Dispersion workers reuse the same machinery on raw 4-epoch entropy windows,
skipping PCA and keeping constant features (centered, unit scale) so an
always-quiet header trains to a zero-radius cluster at the origin. A
volumetric scope in whose training rows no feature varies (say, EAPOL with
no traffic) is fitted the same way, so it flags any change instead of
going unscored.

``_rows`` is the one matrix gate for the fit, ``predict_batch`` and the
strategies' units: ``SchemaError`` if numpy cannot read a matrix,
``LayoutMismatchError`` unless it is 2-D with at least one column (and the
expected width).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np
from scipy.spatial.distance import cdist

from .errors import (
    InsufficientDataError,
    LayoutMismatchError,
    ParseError,
    SchemaError,
)
from .xmeans import MAX_CLUSTERS, xmeans

MODEL_FORMAT_VERSION = 1
BOUNDARY_PERCENTILE = 97.5


@dataclass(frozen=True)
class NormalizationStats:
    mean: np.ndarray
    std: np.ndarray
    kept: np.ndarray  # indices of retained input features

    def transform(self, x: np.ndarray) -> np.ndarray:
        return (x[..., self.kept] - self.mean) / self.std


@dataclass(frozen=True)
class PcaBasis:
    components: np.ndarray  # (k, d) orthonormal rows
    eigenvalues: np.ndarray  # all d, descending
    retained: int

    @property
    def coverage(self) -> float:
        total = float(self.eigenvalues.sum())
        if total <= 0:
            return 1.0
        return float(self.eigenvalues[: self.retained].sum()) / total

    def project(self, z: np.ndarray) -> np.ndarray:
        return z @ self.components.T


_BOUNDARY_SLACK = 1e-9  # keeps the centroid itself inside a zero radius


def _as_floats(data) -> np.ndarray:
    """``data`` as a float array; SchemaError if numpy cannot convert it."""
    try:
        return np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"input is not an array of numbers: {exc}") from exc


def _rows(data, width: int | None = None) -> np.ndarray:
    """``data`` as a float matrix with at least one column, ``width`` if given."""
    x = _as_floats(data)
    if x.ndim != 2 or x.shape[1] == 0 or width not in (None, x.shape[1]):
        raise LayoutMismatchError(
            f"expected rows of {width or 'one or more'} features, got shape {x.shape}")
    return x


@dataclass(frozen=True)
class ClusterModel:
    heads: np.ndarray  # (k, m)
    radii: np.ndarray  # (k,)

    def score(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per row of a 2-D array: nearest head, L1 distance, outside mask."""
        d = cdist(points, self.heads, metric="cityblock")
        labels = d.argmin(axis=1)
        dists = d[np.arange(len(labels)), labels]
        return labels, dists, ~(dists <= self.radii[labels] + _BOUNDARY_SLACK)


@dataclass(frozen=True)
class TransitionMachine:
    allowed: frozenset[tuple[int, int]]

    def permits(self, prev: int | None, cur: int) -> bool:
        if prev is None:
            return True
        return (prev, cur) in self.allowed


class DetectorMode(str, Enum):
    BOUNDARY_ONLY = "boundary_only"
    BOUNDARY_PLUS_STATE_MACHINE = "boundary_plus_state_machine"


class Reason(str, Enum):
    NONE = "none"
    OUTSIDE_BOUNDARY = "outside_boundary"
    ILLEGAL_TRANSITION = "illegal_transition"


@dataclass(frozen=True)
class Verdict:
    anomalous: bool
    reason: Reason
    cluster_id: int
    distance: float


@dataclass
class TrainConfig:
    min_train_rows: int = 1000
    detector_mode: DetectorMode = DetectorMode.BOUNDARY_ONLY
    use_pca: bool = True

    def __post_init__(self):
        self.detector_mode = DetectorMode(self.detector_mode)

    @staticmethod
    def small(**overrides) -> "TrainConfig":
        """Config for compact training sets (tests, calibration phases)."""
        return dataclasses.replace(TrainConfig(min_train_rows=8), **overrides)


@dataclass
class WorkerModel:
    norm: NormalizationStats
    pca: PcaBasis | None
    clusters: ClusterModel
    machine: TransitionMachine | None
    n_features_in: int

    # -- scoring ----------------------------------------------------------

    def _embed(self, vector: np.ndarray) -> np.ndarray:
        z = self.norm.transform(vector)
        return self.pca.project(z) if self.pca is not None else z

    def predict(self, vector: Sequence[float], prev_state: int | None = None
                ) -> tuple[Verdict, int | None]:
        """Score one observation; returns (verdict, next stream state)."""
        x = _as_floats(vector)
        if x.shape != (self.n_features_in,):
            raise LayoutMismatchError(
                f"expected {self.n_features_in} features, got {x.shape}")
        labels, dists, outside = self.clusters.score(self._embed(x)[None])
        cluster = int(labels[0])
        distance = float(dists[0])
        if outside[0]:
            return Verdict(True, Reason.OUTSIDE_BOUNDARY, cluster, distance), prev_state
        if self.machine is not None and not self.machine.permits(prev_state, cluster):
            return Verdict(True, Reason.ILLEGAL_TRANSITION, cluster, distance), cluster
        return Verdict(False, Reason.NONE, cluster, distance), cluster

    def predict_batch(self, matrix: np.ndarray) -> np.ndarray:
        """Boundary-only anomaly mask for a matrix of observations."""
        return self.clusters.score(self._embed(_rows(matrix, self.n_features_in)))[2]

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "version": MODEL_FORMAT_VERSION,
            "n_features_in": self.n_features_in,
            "norm": {
                "mean": self.norm.mean.tolist(),
                "std": self.norm.std.tolist(),
                "kept": self.norm.kept.tolist(),
            },
            "pca": None if self.pca is None else {
                "components": self.pca.components.tolist(),
                "eigenvalues": self.pca.eigenvalues.tolist(),
                "retained": self.pca.retained,
            },
            "clusters": {
                "heads": self.clusters.heads.tolist(),
                "radii": self.clusters.radii.tolist(),
            },
            "transitions": (sorted(self.machine.allowed)
                            if self.machine is not None else None),
        }
        return json.dumps(doc)

    @staticmethod
    def from_json(text: str) -> "WorkerModel":
        """Load a ``to_json`` document.

        Raises ParseError for malformed JSON and SchemaError for another
        version, a non-finite number, or a document whose fields or array
        shapes do not fit. Keys this format no longer writes
        (``detector_mode``, ``trained_rows``, ``norm.n_features_in``) are
        ignored.
        """
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"malformed model JSON: {exc}") from exc
        if not isinstance(doc, dict) or doc.get("version") != MODEL_FORMAT_VERSION:
            raise SchemaError(f"not a version {MODEL_FORMAT_VERSION} model document")
        try:
            norm = NormalizationStats(
                mean=np.array(doc["norm"]["mean"], dtype=float),
                std=np.array(doc["norm"]["std"], dtype=float),
                kept=np.array(doc["norm"]["kept"], dtype=int))
            pca = None
            if doc["pca"] is not None:
                pca = PcaBasis(
                    components=np.array(doc["pca"]["components"], dtype=float),
                    eigenvalues=np.array(doc["pca"]["eigenvalues"], dtype=float),
                    retained=doc["pca"]["retained"])
            clusters = ClusterModel(
                heads=np.array(doc["clusters"]["heads"], dtype=float),
                radii=np.array(doc["clusters"]["radii"], dtype=float))
            machine = None
            if doc["transitions"] is not None:
                machine = TransitionMachine(
                    frozenset((int(a), int(b)) for a, b in doc["transitions"]))
            model = WorkerModel(
                norm=norm, pca=pca, clusters=clusters, machine=machine,
                n_features_in=doc["n_features_in"])
            width = len(norm.kept) if pca is None else pca.retained
            floats = [norm.mean, norm.std, clusters.heads, clusters.radii] + (
                [] if pca is None else [pca.components, pca.eigenvalues])
            fits = (isinstance(model.n_features_in, int) and isinstance(width, int)
                    and all(np.isfinite(a).all() for a in floats)
                    and norm.kept.ndim == 1
                    and norm.mean.shape == norm.std.shape == norm.kept.shape
                    and np.all(norm.std > 0.0)
                    and np.all((norm.kept >= 0) & (norm.kept < model.n_features_in))
                    and (pca is None or pca.components.shape == (width, len(norm.kept)))
                    and clusters.heads.ndim == 2 and clusters.heads.shape[1] == width
                    and clusters.radii.shape == clusters.heads.shape[:1])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"malformed model document: {exc!r}") from exc
        if not fits:
            raise SchemaError("model arrays do not fit together")
        return model


def _fit_pca(z: np.ndarray) -> PcaBasis:
    corr = np.cov(z, rowvar=False, bias=True)
    corr = np.atleast_2d(corr)
    eigvals, eigvecs = np.linalg.eigh(corr)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    retained = int(np.sum(eigvals > 1.0))
    # A training set with no dominant direction still needs one usable axis.
    retained = max(retained, 1)
    return PcaBasis(components=eigvecs[:, :retained].T.copy(),
                    eigenvalues=eigvals.copy(), retained=retained)


def _fit_boundaries(points: np.ndarray, labels: np.ndarray, heads: np.ndarray) -> np.ndarray:
    dists = cdist(points, heads, metric="cityblock")
    own = dists[np.arange(len(points)), labels]
    radii = np.zeros(heads.shape[0])
    for j in range(heads.shape[0]):
        member = own[labels == j]
        if len(member):
            radii[j] = np.percentile(member, BOUNDARY_PERCENTILE, method="linear")
    return radii


def _fit_machine(points: np.ndarray, clusters: ClusterModel) -> TransitionMachine:
    """First-order transitions from the time-ordered training sequence.

    Stream state only advances on in-boundary points and takes the cluster
    ``predict`` assigns, so replaying the training rows is always legal.
    """
    labels, _, outside = clusters.score(points)
    states = labels[~outside].tolist()
    return TransitionMachine(frozenset(zip(states, states[1:])))


def _fit(matrix: np.ndarray, cfg: TrainConfig, seed: int, reduce: bool,
         width: int | None = None) -> WorkerModel:
    """Fit shared by both workers.

    ``reduce`` drops constant features and runs PCA if ``cfg.use_pca``;
    without it, or when no feature varies, constant features stay at unit
    scale and PCA is skipped. ``width``, if given, is the required number
    of columns.
    """
    x = _rows(matrix, width)
    if not np.isfinite(x).all():
        raise SchemaError("training matrix holds a NaN or infinite value")
    need = max(cfg.min_train_rows, 1)
    if len(x) < need:
        raise InsufficientDataError(f"{len(x)} rows < required {need}")
    mean, std = x.mean(axis=0), x.std(axis=0)
    varying = std > 0.0
    reduce = reduce and bool(varying.any())
    kept = np.flatnonzero(varying) if reduce else np.arange(x.shape[1])
    norm = NormalizationStats(mean[kept], np.where(varying, std, 1.0)[kept], kept)
    z = norm.transform(x)
    pca = _fit_pca(z) if reduce and cfg.use_pca else None
    points = pca.project(z) if pca is not None else z
    labels, heads = xmeans(points, seed=seed, k_max=MAX_CLUSTERS)
    clusters = ClusterModel(heads, _fit_boundaries(points, labels, heads))
    machine = None
    if cfg.detector_mode is DetectorMode.BOUNDARY_PLUS_STATE_MACHINE:
        machine = _fit_machine(points, clusters)
    return WorkerModel(norm=norm, pca=pca, clusters=clusters, machine=machine,
                       n_features_in=x.shape[1])


def train(matrix: np.ndarray, cfg: TrainConfig | None = None, seed: int = 0
          ) -> WorkerModel:
    """Fit a volumetric worker on a time-ordered matrix of benign rows."""
    return _fit(matrix, cfg or TrainConfig(), seed, reduce=True)


def train_dispersion(matrix: np.ndarray, cfg: TrainConfig | None = None,
                     seed: int = 0) -> WorkerModel:
    """Fit a dispersion worker on 4-epoch entropy windows (no PCA stage).

    Constant features are kept at unit scale instead of dropped: a header
    whose benign entropy is always zero must train to a zero-radius cluster
    so any positive entropy window is flagged.
    """
    return _fit(matrix, cfg or TrainConfig.small(), seed, reduce=False, width=4)
