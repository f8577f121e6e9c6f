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
stated marginals can carry at all.  A margin precheck finds those before
either program is solved, so scipy is loaded only for the programs.
Every result carries a method tag naming the construction used.

A harness samples datasets, tabulates each once and scores the same
tables under each encoding kind, and reports the AUC plus the
sensitivity/specificity of the slope-break cutoff against the ground
truth, per replicate and on average.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .encodings import distance_matrix, encoding_for_kind
from .exceptions import (
    ConfigurationError,
    InfeasibleSettingError,
    InsufficientFeaturesError,
    ShapeError,
    UndefinedAUCError,
)
from .inference import _require_seed
from .measures import _BLOCK, JointDistribution, _require_scorable, _score_pairs, _tabulate_many
from .screening import _ranked_report, changepoint_threshold

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
            raise ShapeError(f"relevant_count {self.relevant_count} must lie in "
                             f"[0, {self.n_features}], the feature count")
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
    eye = np.eye(n_cells + 1)  # one row per cell, then the departure bound
    cells = np.arange(n_cells).reshape(n_rows, n_cols)
    listed = bump.ravel() > 0.0
    pinned = np.flatnonzero(listed)
    a_eq = np.vstack([eye[cells].sum(axis=1), eye[cells.T].sum(axis=1), eye[pinned]])
    # Column by column, as one contiguous row each: summing over axis 0
    # adds the rows in another order, which differs in the last bit.
    b_eq = np.concatenate([product.sum(axis=1), np.ascontiguousarray(product.T).sum(axis=1),
                           (product + bump).ravel()[pinned]])
    # Per free cell, pi - bound <= product and -pi - bound <= -product.
    free = np.repeat(np.flatnonzero(~listed), 2)
    signs = np.tile([1.0, -1.0], free.size // 2)
    a_ub = eye[free] * signs[:, None]
    a_ub[:, n_cells] = -1.0
    caps = np.where(capped & ~listed, product.ravel(), None)
    result = linprog(eye[n_cells], A_eq=a_eq, b_eq=b_eq,
                     A_ub=a_ub, b_ub=product.ravel()[free] * signs,
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

    # Non-listed cells are nonnegative, so a row or column whose listed
    # cells alone exceed its marginal makes both programs infeasible.
    pinned = np.where(bump > 0.0, product + bump, 0.0)
    slack = np.concatenate([row - pinned.sum(axis=1), col - pinned.sum(axis=0)])
    if slack.min() >= -1e-9:
        for capped, method in ((True, "ipf"), (False, "exact")):
            pi = _exact_pin_lp(product, bump, capped=capped)
            if pi is not None and pi.min() >= -1e-9:
                return _constructed(pi, method)

    if not allow_rank_one:
        raise InfeasibleSettingError(
            f"setting {spec.setting_id}: the listed departures exceed what the "
            "stated marginals can carry; rerun with allow_rank_one=True to use "
            "the flagged approximate construction"
        )

    pi = product + bump - np.outer(bump.sum(axis=1), bump.sum(axis=0)) / bump.sum()
    return _constructed(pi, "rank-one" if pi.min() >= -1e-12 else "rank-one-clipped")


def _constructed(pi: np.ndarray, method: str) -> ConstructedJoint:
    """``pi`` clipped at zero and renormalized, tagged with ``method``."""
    pi = np.clip(pi, 0.0, None)
    return ConstructedJoint(joint=JointDistribution(pi / pi.sum()), method=method)


@dataclass(frozen=True)
class SimulatedDataset:
    """One sampled screening dataset with its ground truth.

    ``features`` is integer-coded with shape ``(n, n_features)`` and
    stored column-major, each feature's codes contiguous; ``relevant_ids``
    lists the columns actually dependent on the response.
    """

    features: np.ndarray
    response: np.ndarray
    relevant_ids: np.ndarray
    joint: JointDistribution
    method: str


def _cdf(p: np.ndarray) -> np.ndarray:
    """Cumulative sums along the first axis, the last one pinned to exactly 1."""
    cdf = np.cumsum(p, axis=0)
    cdf[-1] = 1.0
    return cdf


def _inverse_cdf_sample(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Category of each uniform under ``cdf``, of shape ``(I,)`` or ``(I, u.shape[-1])``.

    Counts the entries of ``cdf[:-1]`` that each ``u`` reaches: ``searchsorted(cdf, u,
    side="right")`` capped at ``I - 1``, in ``I - 1`` branch-free passes.
    """
    idx = np.zeros(u.shape, dtype=np.min_scalar_type(len(cdf) - 1))
    for row in cdf[:-1]:
        idx += u >= row
    return idx


def sample_dataset(spec: SettingSpec, seed, allow_rank_one: bool = False
                   ) -> SimulatedDataset:
    """Sample a dataset for one scenario, fully determined by the seed.

    The response is drawn from the constructed joint's column marginal;
    the first ``relevant_count`` feature columns are drawn from the
    conditional distribution given the response (so features are
    conditionally independent given the response), and the remaining
    columns independently from the feature marginal.  The uniforms are
    one ``n``-vector for the response, then one per feature column in
    column order, however many columns are drawn at once.  ``seed`` is a
    non-negative integer or a tuple of them.
    """
    _require_seed(seed)
    return _draw_dataset(spec, build_joint(spec, allow_rank_one=allow_rank_one), seed)


def _draw_dataset(spec: SettingSpec, built: ConstructedJoint, seed) -> SimulatedDataset:
    """:func:`sample_dataset` from an already constructed joint for ``spec``.

    Each block of ``_BLOCK`` feature columns is one ``(cols, n)`` draw,
    which numpy's generators fill from the same stream as ``cols``
    successive ``n``-vectors.  A uniform's category is the count of its CDF's entries,
    the pinned last one excluded, that it reaches; relevant columns use each row's response.
    """
    col_marg = built.joint.col_marginal
    cond_cdf = _cdf(built.joint.pi / col_marg[None, :])
    marg_cdf = _cdf(spec.row_marginal)
    response_cdf = _cdf(col_marg)

    rng = np.random.default_rng(seed)
    n = spec.n
    response = _inverse_cdf_sample(response_cdf, rng.random(n)).astype(np.int64)
    columns = np.empty((spec.n_features, n), dtype=np.int64)
    per_response_cdf = cond_cdf[:, response]
    for start in range(0, spec.n_features, _BLOCK):
        u = rng.random((min(_BLOCK, spec.n_features - start), n))
        block = columns[start:start + len(u)]
        split = min(max(spec.relevant_count - start, 0), len(u))
        block[:split] = _inverse_cdf_sample(per_response_cdf, u[:split])
        block[split:] = _inverse_cdf_sample(marg_cdf, u[split:])
    return SimulatedDataset(
        features=columns.T,
        response=response,
        relevant_ids=np.arange(spec.relevant_count),
        joint=built.joint,
        method=built.method,
    )


def _scored_classes(scores, truth, what: str) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Scores and truth as 1-d arrays of equal length, plus the two class sizes."""
    s = np.asarray(scores, dtype=float)
    t = np.asarray(truth, dtype=bool)
    if s.shape != t.shape or s.ndim != 1:
        raise ShapeError("scores and truth must be 1-d arrays of equal length")
    n_pos = int(t.sum())
    n_neg = t.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedAUCError(f"{what} needs both relevant and irrelevant features")
    return s, t, n_pos, n_neg


def roc_auc(scores, truth) -> float:
    """Area under the ROC curve by the rank statistic, ties averaged.

    Equals the probability a relevant feature outscores an irrelevant one
    (ties counted half).  Requires both classes present.
    """
    s, t, n_pos, n_neg = _scored_classes(scores, truth, "AUC")
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
    Checks its arguments as :func:`roc_auc` does.
    """
    s, t, n_pos, n_neg = _scored_classes(scores, truth, "ROC")
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
    tabulates it once, scores each block under every encoding kind with
    one call sharing the margins and the centered tables (features and
    response alike: the scores ``screen`` would give, warning with the
    replicate and kind), and records the AUC of the ranking plus the
    sensitivity and specificity of the slope-break selection.  The
    approximate construction is enabled because most scenarios require
    it; the method actually used, and the joint every replicate was
    drawn from, are reported on every result.  ``seed`` must be >= 0.
    """
    _require_seed(seed)
    if not isinstance(replicates, numbers.Integral):
        raise ConfigurationError(f"replicates must be an integer, got {replicates!r}")
    if replicates < 1:
        raise ConfigurationError(f"replicates must be at least 1, got {replicates}")
    if not encoding_kinds:
        raise ConfigurationError("run_benchmark needs at least one encoding kind")
    if len(set(encoding_kinds)) < len(encoding_kinds):
        raise ConfigurationError(
            f"encoding kinds must be distinct, got {','.join(encoding_kinds)}")
    spec = setting_spec(setting_id, n=n, n_features=n_features,
                        relevant_count=relevant_count)
    if relevant_count in (0, n_features):
        raise UndefinedAUCError(f"AUC needs both relevant and irrelevant features, got "
                                f"{relevant_count} relevant of {n_features}")
    if n_features < 4:
        raise InsufficientFeaturesError(
            f"the two-piece fit needs at least 4 features, got {n_features}")
    _require_scorable(n, estimator)
    pairs = [(distance_matrix(encoding_for_kind(kind, spec.n_rows)),
              distance_matrix(encoding_for_kind(kind, spec.n_cols)), estimator)
             for kind in encoding_kinds]
    ids = list(range(n_features))
    blocks = [slice(start, start + _BLOCK) for start in range(0, n_features, _BLOCK)]
    truth = np.arange(n_features) < relevant_count
    replicate_seeds = tuple((seed, setting_id, r) for r in range(replicates))
    built = build_joint(spec, allow_rank_one=True)
    # Per kind and replicate: the AUC, sensitivity and specificity, and the scores.
    metrics = np.empty((len(pairs), replicates, 3))
    scores = np.empty((len(pairs), replicates, n_features))
    is_degenerate = np.empty((len(pairs), n_features), dtype=bool)
    for r, rep_seed in enumerate(replicate_seeds):
        data = _draw_dataset(spec, built, rep_seed)
        values = scores[:, r]
        for block in blocks:
            counts = _tabulate_many(data.features[:, block], data.response[:, None],
                                    spec.n_rows, spec.n_cols)
            values[:, block], is_degenerate[:, block] = zip(*_score_pairs(counts, float(n), pairs))
        for k, kind in enumerate(encoding_kinds):
            report = _ranked_report(ids, values[k], is_degenerate[k], estimator,
                                    f" (replicate {r}, {kind} encoding)")
            # The strict rule of apply_changepoint.
            selected = values[k] > changepoint_threshold(report.sorted_values()).threshold
            metrics[k, r] = (roc_auc(values[k], truth),
                             (selected & truth).sum() / truth.sum(),
                             (~selected & ~truth).sum() / (~truth).sum())

    return [BenchmarkResult(
        encoding=kind, auc=float(aucs.mean()), sensitivity=float(sens.mean()),
        specificity=float(specs.mean()), replicate_aucs=aucs,
        replicate_sensitivities=sens, replicate_specificities=specs,
        replicate_seeds=replicate_seeds, construction=built.method, joint=built.joint,
        pooled_scores=scores[k].ravel(), pooled_truth=np.tile(truth, replicates),
    ) for k, kind in enumerate(encoding_kinds) for aucs, sens, specs in [metrics[k].T]]
