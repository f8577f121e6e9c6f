"""Benchmark settings: joint construction, sampling, and screening metrics.

Six canned high-dimensional screening scenarios pair a categorical
response with relevant features whose joint distribution departs from
independence by ``+delta`` at a listed set of cells (linear, monotone,
or nonmonotone patterns over 5x5 or 8x8 grids) while irrelevant features
are drawn independently.  The positive perturbation must be paid for by
negative mass elsewhere; that allocation is not part of the scenario
definition, so constructions are layered (see :func:`build_joint`):
a capped linear program that keeps every non-listed cell at or below
independence when one exists, the uncapped exact-departure linear
program otherwise, and, only when explicitly enabled, a clipped
rank-one compensation for scenarios whose listed cells exceed what the
stated marginals can carry at all.  Every result
carries a method tag naming the construction used.

A harness samples datasets, screens them under one-hot, ordinal, and
semicircle encodings, and reports AUC plus the sensitivity/specificity of
the slope-break cutoff against the ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encodings import DistanceMatrix, distance_matrix, encoding_for_kind
from .exceptions import (
    InfeasibleSettingError,
    ShapeError,
    UndefinedAUCError,
)
from .inference import _require_seed
from .measures import JointDistribution
from .screening import apply_changepoint, screen

__all__ = [
    "SettingSpec",
    "ConstructedJoint",
    "SimulatedDataset",
    "BenchmarkResult",
    "setting_spec",
    "build_joint",
    "sample_dataset",
    "roc_auc",
    "run_benchmark",
    "roc_points",
]

# Listed perturbation cells are 0-based (row, column) pairs.
_SETTING_TABLE: dict[int, dict] = {
    1: dict(
        marginal=(0.5, 0.3, 0.1, 0.05, 0.05),
        delta=0.04,
        cells=((0, 0), (1, 1), (2, 2), (3, 3), (4, 4)),
    ),
    2: dict(
        marginal=(0.5, 0.3, 0.1, 0.05, 0.05),
        delta=0.04,
        cells=((0, 0), (0, 1), (1, 2), (2, 3), (3, 3), (4, 4)),
    ),
    3: dict(
        marginal=(0.5, 0.3, 0.1, 0.05, 0.05),
        delta=0.04,
        cells=((0, 0), (1, 1), (2, 2), (3, 2), (1, 3), (0, 4)),
    ),
    4: dict(
        marginal=(0.5, 0.15, 0.1, 0.1, 0.05, 0.05, 0.03, 0.02),
        delta=0.025,
        cells=tuple((i, i) for i in range(8)),
    ),
    5: dict(
        marginal=(0.5, 0.15, 0.1, 0.1, 0.05, 0.05, 0.03, 0.02),
        delta=0.025,
        cells=((0, 0), (0, 1), (1, 2), (2, 3), (3, 4), (3, 5),
               (4, 6), (5, 6), (6, 6), (7, 7)),
    ),
    6: dict(
        marginal=(0.5, 0.15, 0.1, 0.1, 0.05, 0.05, 0.03, 0.02),
        delta=0.025,
        cells=((1, 0), (2, 0), (3, 1), (4, 2), (5, 3), (5, 4),
               (4, 5), (3, 6), (2, 7), (1, 7)),
    ),
}


@dataclass(frozen=True)
class SettingSpec:
    """One benchmark scenario: grid size, marginals, perturbation, and scale."""

    setting_id: int
    n_rows: int
    n_cols: int
    row_marginal: np.ndarray
    col_marginal: np.ndarray
    delta: float
    cells: tuple[tuple[int, int], ...]
    n_features: int
    relevant_count: int
    n: int

    def __post_init__(self) -> None:
        row = np.asarray(self.row_marginal, dtype=float)
        col = np.asarray(self.col_marginal, dtype=float)
        if abs(row.sum() - 1.0) > 1e-12 or abs(col.sum() - 1.0) > 1e-12:
            raise ShapeError("marginals must sum to 1")
        if row.min() <= 0.0 or col.min() <= 0.0:
            raise ShapeError("marginals must be strictly positive")
        if not self.delta > 0.0:
            raise ShapeError("delta must be positive")
        for i, j in self.cells:
            if not (0 <= i < self.n_rows and 0 <= j < self.n_cols):
                raise ShapeError(f"perturbed cell {(i, j)} outside the grid")
        if not 0 <= self.relevant_count <= self.n_features:
            raise ShapeError("relevant_count must lie in [0, n_features]")
        row.setflags(write=False)
        col.setflags(write=False)
        object.__setattr__(self, "row_marginal", row)
        object.__setattr__(self, "col_marginal", col)


@dataclass(frozen=True)
class ConstructedJoint:
    """A constructed joint distribution plus the construction that produced it.

    ``method`` is ``"ipf"`` for the capped linear program (exact marginals
    and departures, non-listed cells at or below independence),
    ``"exact"`` for the uncapped linear program (exact marginals and
    departures, some non-listed cells above independence), ``"rank-one"``
    for the explicitly enabled rank-one compensation, and
    ``"rank-one-clipped"`` when its negative cells had to be clipped and
    the table renormalized (marginals then hold only approximately).
    """

    joint: JointDistribution
    method: str


def setting_spec(setting_id: int, n: int, n_features: int = 1000,
                 relevant_count: int = 50) -> SettingSpec:
    """Build the spec for one of the six canned scenarios.

    Desk-scale defaults (1000 features, 50 relevant) preserve the two
    per-feature score distributions of the full-scale benchmark, so AUC
    estimates differ only by Monte Carlo noise.
    """
    try:
        entry = _SETTING_TABLE[setting_id]
    except KeyError:
        raise ShapeError(f"setting_id must be 1..6, got {setting_id!r}") from None
    marginal = entry["marginal"]
    size = len(marginal)
    return SettingSpec(
        setting_id=setting_id,
        n_rows=size,
        n_cols=size,
        row_marginal=np.array(marginal),
        col_marginal=np.array(marginal),
        delta=entry["delta"],
        cells=entry["cells"],
        n_features=n_features,
        relevant_count=relevant_count,
        n=n,
    )


def _exact_pin_lp(product: np.ndarray, bump: np.ndarray,
                  capped: bool = False) -> np.ndarray | None:
    """Joint table with exact marginals and exact listed departures.

    Finds ``pi >= 0`` whose margins equal those of ``product`` and whose
    departure from independence equals ``bump`` exactly on the listed
    cells, choosing among all such tables the one whose largest absolute
    departure on the non-listed cells is smallest (a deterministic linear
    program), which spreads the compensating mass as flatly as possible.
    With ``capped`` every non-listed cell is also bounded above by its
    independence level; without it such cells may rise above that level,
    which is what makes tight scenarios representable at all.  Returns
    None when the program is infeasible (uncapped: the listed cells alone
    exceed a marginal).  scipy is imported here, on the first call, so
    that only joint construction pays for loading it.
    """
    from scipy.optimize import linprog

    n_rows, n_cols = product.shape
    n_cells = n_rows * n_cols
    listed = bump > 0.0
    nvar = n_cells + 1  # pi cells plus the worst-case departure bound
    a_eq = np.zeros((n_rows + n_cols + int(listed.sum()), nvar))
    b_eq = np.zeros(a_eq.shape[0])
    for i in range(n_rows):
        a_eq[i, i * n_cols:(i + 1) * n_cols] = 1.0
        b_eq[i] = product[i].sum()
    for j in range(n_cols):
        a_eq[n_rows + j, j:n_cells:n_cols] = 1.0
        b_eq[n_rows + j] = product[:, j].sum()
    pin_row = n_rows + n_cols
    for (i, j) in np.argwhere(listed):
        a_eq[pin_row, i * n_cols + j] = 1.0
        b_eq[pin_row] = product[i, j] + bump[i, j]
        pin_row += 1
    rows_ub = []
    rhs_ub = []
    for k in range(n_cells):
        i, j = divmod(k, n_cols)
        if listed[i, j]:
            continue
        upper = np.zeros(nvar)
        upper[k] = 1.0
        upper[n_cells] = -1.0
        rows_ub.append(upper)
        rhs_ub.append(product[i, j])
        lower = np.zeros(nvar)
        lower[k] = -1.0
        lower[n_cells] = -1.0
        rows_ub.append(lower)
        rhs_ub.append(-product[i, j])
    objective = np.zeros(nvar)
    objective[n_cells] = 1.0
    caps = np.where(capped & ~listed, product, None).ravel()
    result = linprog(objective, A_eq=a_eq, b_eq=b_eq,
                     A_ub=np.array(rows_ub), b_ub=np.array(rhs_ub),
                     bounds=[(0.0, cap) for cap in caps] + [(0.0, None)],
                     method="highs")
    if result.status != 0:
        return None
    return result.x[:n_cells].reshape(n_rows, n_cols)


def build_joint(spec: SettingSpec, allow_rank_one: bool = False) -> ConstructedJoint:
    """Joint distribution of one relevant feature and the response.

    Starts from the product of the marginals, adds ``+delta`` at every
    listed cell, and pays for it on the non-listed cells, preferring (in
    order):

    1. ``"ipf"`` -- the capped linear program: exact marginals and exact
       listed departures, every non-listed cell at or below its
       independence level, the largest departure of the non-listed cells
       minimized;
    2. ``"exact"`` -- the same linear program without the caps, so some
       non-listed cells may then exceed independence;
    3. with ``allow_rank_one`` explicitly set, the rank-one compensation
       ``outer(row excess, column excess)/total`` (``"rank-one"``),
       clipped and renormalized when it goes negative
       (``"rank-one-clipped"``, marginals then only approximate).

    Without the flag, scenarios whose listed cells alone exceed a
    marginal raise :class:`InfeasibleSettingError`, since no nonnegative
    table with the stated marginals can carry them.
    """
    row = spec.row_marginal
    col = spec.col_marginal
    product = np.outer(row, col)
    bump = np.zeros_like(product)
    for i, j in spec.cells:
        bump[i, j] += spec.delta
    if not spec.cells:
        return ConstructedJoint(joint=JointDistribution(product), method="ipf")

    for capped, method in ((True, "ipf"), (False, "exact")):
        pi = _exact_pin_lp(product, bump, capped=capped)
        if pi is not None and pi.min() >= -1e-9:
            pi = np.clip(pi, 0.0, None)
            pi /= pi.sum()
            return ConstructedJoint(joint=JointDistribution(pi), method=method)

    if not allow_rank_one:
        raise InfeasibleSettingError(
            f"setting {spec.setting_id}: the listed departures exceed what the "
            "stated marginals can carry; rerun with allow_rank_one=True to use "
            "the flagged approximate construction"
        )

    row_excess = bump.sum(axis=1)
    col_excess = bump.sum(axis=0)
    pi = product + bump - np.outer(row_excess, col_excess) / bump.sum()
    if pi.min() >= -1e-12:
        pi = np.clip(pi, 0.0, None)
        pi /= pi.sum()
        return ConstructedJoint(joint=JointDistribution(pi), method="rank-one")
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    return ConstructedJoint(joint=JointDistribution(pi), method="rank-one-clipped")


@dataclass(frozen=True)
class SimulatedDataset:
    """One sampled screening dataset with its ground truth.

    ``features`` is integer-coded with shape ``(n, n_features)``;
    ``relevant_ids`` lists the columns actually dependent on the response.
    """

    features: np.ndarray
    response: np.ndarray
    relevant_ids: np.ndarray
    joint: JointDistribution
    method: str


def _inverse_cdf_sample(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(cdf, u, side="right")
    return np.minimum(idx, cdf.size - 1)


def sample_dataset(spec: SettingSpec, seed, allow_rank_one: bool = False
                   ) -> SimulatedDataset:
    """Sample a dataset for one scenario, fully determined by the seed.

    The response is drawn from the constructed joint's column marginal;
    the first ``relevant_count`` feature columns are drawn from the
    conditional distribution given the response (so features are
    conditionally independent given the response), and the remaining
    columns independently from the feature marginal.
    """
    return _draw_dataset(spec, build_joint(spec, allow_rank_one=allow_rank_one), seed)


def _draw_dataset(spec: SettingSpec, built: ConstructedJoint, seed) -> SimulatedDataset:
    """:func:`sample_dataset` from an already constructed joint for ``spec``."""
    pi = built.joint.pi
    col_marg = built.joint.col_marginal
    cond = pi / col_marg[None, :]
    cond_cdf = np.cumsum(cond, axis=0)
    cond_cdf[-1, :] = 1.0
    marg_cdf = np.cumsum(spec.row_marginal)
    marg_cdf[-1] = 1.0
    response_cdf = np.cumsum(col_marg)
    response_cdf[-1] = 1.0

    rng = np.random.default_rng(seed)
    n = spec.n
    response = _inverse_cdf_sample(response_cdf, rng.random(n))
    features = np.empty((n, spec.n_features), dtype=np.int64)
    relevant = np.arange(spec.relevant_count)
    per_response_cdf = cond_cdf[:, response]
    for s in range(spec.n_features):
        u = rng.random(n)
        if s < spec.relevant_count:
            features[:, s] = np.minimum(
                (u[None, :] >= per_response_cdf).sum(axis=0),
                spec.n_rows - 1,
            )
        else:
            features[:, s] = _inverse_cdf_sample(marg_cdf, u)
    return SimulatedDataset(
        features=features,
        response=response,
        relevant_ids=relevant,
        joint=built.joint,
        method=built.method,
    )


def roc_auc(scores, truth) -> float:
    """Area under the ROC curve by the rank statistic, ties averaged.

    Equals the probability a relevant feature outscores an irrelevant one
    (ties counted half).  Requires both classes present.
    """
    s = np.asarray(scores, dtype=float)
    t = np.asarray(truth, dtype=bool)
    if s.shape != t.shape or s.ndim != 1:
        raise ShapeError("scores and truth must be 1-d arrays of equal length")
    n_pos = int(t.sum())
    n_neg = t.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedAUCError("AUC needs both relevant and irrelevant features")
    if np.isnan(s).any():
        return float("nan")  # a NaN score leaves the ranking undefined
    # Average ranks (1-based) over runs of tied scores, as in a rank-sum test.
    order = np.argsort(s, kind="stable")
    sorted_s = s[order]
    starts = np.flatnonzero(np.r_[True, sorted_s[1:] != sorted_s[:-1]])
    ends = np.r_[starts[1:], s.size]
    ranks = np.empty(s.size)
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return float((ranks[t].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def roc_points(scores, truth) -> np.ndarray:
    """ROC curve vertices (false positive rate, true positive rate).

    One point per distinct score threshold, from (0, 0) to (1, 1),
    suitable for plotting the screening operating characteristic.
    """
    s = np.asarray(scores, dtype=float)
    t = np.asarray(truth, dtype=bool)
    n_pos = int(t.sum())
    n_neg = t.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedAUCError("ROC needs both relevant and irrelevant features")
    order = np.argsort(-s, kind="stable")
    sorted_truth = t[order]
    tp = np.cumsum(sorted_truth)
    fp = np.cumsum(~sorted_truth)
    distinct = np.flatnonzero(np.diff(np.append(s[order], -np.inf)) != 0.0)
    points = np.column_stack([fp[distinct] / n_neg, tp[distinct] / n_pos])
    return np.vstack([[0.0, 0.0], points])


@dataclass(frozen=True)
class BenchmarkResult:
    """Screening metrics for one encoding kind, averaged over replicates."""

    encoding: str
    auc: float
    sensitivity: float
    specificity: float
    replicate_aucs: np.ndarray
    replicate_sensitivities: np.ndarray
    replicate_specificities: np.ndarray
    replicate_seeds: tuple
    construction: str
    joint: JointDistribution
    pooled_scores: np.ndarray
    pooled_truth: np.ndarray


def run_benchmark(setting_id: int, n: int,
                  encoding_kinds: tuple[str, ...] = ("onehot", "ordinal", "semicircle"),
                  n_features: int = 1000, relevant_count: int = 50,
                  replicates: int = 3, seed: int = 0,
                  estimator: str = "mle") -> list[BenchmarkResult]:
    """Run one scenario end to end and summarize per-encoding metrics.

    Each replicate samples one dataset (seeded by ``(seed, setting, r)``),
    screens it once per encoding kind applied to features and response
    alike, and records the AUC of the score ranking plus the sensitivity
    and specificity of the slope-break selection.  The approximate
    construction is enabled here because most scenarios require it; the
    method actually used, and the joint every replicate was drawn from,
    are reported on every result.  ``seed`` must be non-negative.
    """
    _require_seed(seed)
    spec = setting_spec(setting_id, n=n, n_features=n_features,
                        relevant_count=relevant_count)
    dist_by_kind: dict[str, tuple[DistanceMatrix, DistanceMatrix]] = {}
    for kind in encoding_kinds:
        feat = distance_matrix(encoding_for_kind(kind, spec.n_rows))
        resp = distance_matrix(encoding_for_kind(kind, spec.n_cols))
        dist_by_kind[kind] = (feat, resp)

    truth_mask = np.zeros(n_features, dtype=bool)
    truth_mask[:relevant_count] = True
    per_kind: dict[str, dict[str, list]] = {
        kind: {"auc": [], "sens": [], "spec": [], "scores": []}
        for kind in encoding_kinds
    }
    replicate_seeds = tuple((seed, setting_id, r) for r in range(replicates))
    built = build_joint(spec, allow_rank_one=True)
    for rep_seed in replicate_seeds:
        data = _draw_dataset(spec, built, rep_seed)
        for kind in encoding_kinds:
            feat_dist, resp_dist = dist_by_kind[kind]
            report = screen(
                data.features, data.response,
                [feat_dist] * n_features, resp_dist, estimator=estimator,
            )
            apply_changepoint(report)
            selected = np.zeros(n_features, dtype=bool)
            selected[np.asarray(report.selected, dtype=int)] = True
            stats = per_kind[kind]
            stats["auc"].append(roc_auc(report.values, truth_mask))
            stats["sens"].append(
                float((selected & truth_mask).sum() / truth_mask.sum())
            )
            stats["spec"].append(
                float((~selected & ~truth_mask).sum() / (~truth_mask).sum())
            )
            stats["scores"].append(report.values.copy())

    results = []
    for kind in encoding_kinds:
        stats = per_kind[kind]
        pooled = np.concatenate(stats["scores"])
        pooled_truth = np.tile(truth_mask, replicates)
        results.append(BenchmarkResult(
            encoding=kind,
            auc=float(np.mean(stats["auc"])),
            sensitivity=float(np.mean(stats["sens"])),
            specificity=float(np.mean(stats["spec"])),
            replicate_aucs=np.array(stats["auc"]),
            replicate_sensitivities=np.array(stats["sens"]),
            replicate_specificities=np.array(stats["spec"]),
            replicate_seeds=replicate_seeds,
            construction=built.method,
            joint=built.joint,
            pooled_scores=pooled,
            pooled_truth=pooled_truth,
        ))
    return results
