"""Category encodings and their rescaled distance matrices.

A categorical variable with ``I`` levels is represented by an embedding
that assigns one point in Euclidean space to each level.  Nominal
variables are usually embedded with one-hot vectors, where every pair of
distinct levels is equally far apart.  Ordered variables can use integer
positions on a line (spacings add up along the order) or equally spaced
points on a half circle (spacings satisfy a strict triangle inequality),
both of which retain the between-level spacing information that one-hot
encoding discards.

Downstream statistics never see the points themselves, only the matrix of
pairwise Euclidean distances divided by its largest entry, so the largest
rescaled distance is exactly 1.  This bounds every covariance and
variance built from the matrix and makes correlations comparable across
encodings.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import (
    CardinalityError,
    ConfigurationError,
    DegenerateEncodingError,
    ShapeError,
)

__all__ = [
    "Encoding",
    "DistanceMatrix",
    "one_hot",
    "ordinal_equal",
    "semicircle_equal",
    "custom",
    "distance_matrix",
    "encoding_for_kind",
    "load_metadata",
    "parse_metadata",
]


def _default_labels(count: int) -> tuple[str, ...]:
    return tuple(str(i + 1) for i in range(count))


@dataclass(frozen=True)
class Encoding:
    """An ordered set of category labels with one embedding point each.

    Parameters
    ----------
    labels : tuple of str
        Unique category names; their order is taken as given and never
        inferred from the data.
    points : numpy.ndarray
        Array of shape ``(I, dim)`` holding one embedding point per label.
        Points must be pairwise distinct.
    kind : str
        One of ``"one-hot"``, ``"ordinal"``, ``"semicircle"``, ``"custom"``.
    """

    labels: tuple[str, ...]
    points: np.ndarray
    kind: str = "custom"

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2:
            raise ShapeError("points must form a 2-d array of shape (I, dim)")
        labels = tuple(str(lab) for lab in self.labels)
        if len(labels) != pts.shape[0]:
            raise ShapeError(
                f"{len(labels)} labels but {pts.shape[0]} embedding points"
            )
        if len(labels) < 2:
            raise CardinalityError("an encoding needs at least two categories")
        if len(set(labels)) != len(labels):
            raise ConfigurationError("category labels must be unique")
        if not np.all(np.isfinite(pts)):
            raise ShapeError("embedding points must be finite")
        # Equal points are neighbours in lexicographic order, and so are
        # points on a line whose squared distance underflows (a pair that is
        # not, in more dimensions, fails in DistanceMatrix instead); the
        # gaps are taken 64 rows at a time.
        ranked = np.lexsort(pts.T)
        for start in range(0, len(ranked) - 1, 64):
            block = pts[ranked[start:start + 65]]
            gaps = block[1:] - block[:-1]
            if np.einsum("ij,ij->i", gaps, gaps).min() <= 0.0:
                raise DegenerateEncodingError("embedding points must be pairwise distinct")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "labels", labels)

    @property
    def n_categories(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class DistanceMatrix:
    """Pairwise category distances with the rescaling divisor recorded.

    ``distance_matrix`` produces matrices whose largest entry is exactly 1;
    ``scale`` holds the raw maximum distance that was divided out.  A
    matrix scaled away from that convention (see :meth:`scaled_by`) is
    still a valid input everywhere because the statistics are either
    homogeneous in the distances or invariant to their scale.
    """

    d: np.ndarray
    scale: float = 1.0

    def __post_init__(self) -> None:
        d = np.asarray(self.d, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ShapeError("distance matrix must be square")
        if d.shape[0] < 2:
            raise CardinalityError("distance matrix needs at least two categories")
        if not np.all(np.isfinite(d)):
            raise ShapeError("distances must be finite")
        if np.any(np.diag(d) != 0.0):
            raise ShapeError("distance matrix must have a zero diagonal")
        # Compared in tiles, so that the transposed reads stay in cache.
        if any(np.any(d[i:i + 128, j:j + 128] != d[j:j + 128, i:i + 128].T)
               for i in range(0, len(d), 128) for j in range(i, len(d), 128)):
            raise ShapeError("distance matrix must be symmetric")
        # The diagonal is zero, so every other entry must be positive.
        if np.count_nonzero(d > 0.0) < d.size - len(d):
            raise DegenerateEncodingError("off-diagonal distances must be positive")
        if not self.scale > 0.0:
            raise ShapeError("scale must be positive")
        d = d.copy()
        d.setflags(write=False)
        object.__setattr__(self, "d", d)

    @property
    def n_categories(self) -> int:
        return self.d.shape[0]

    def row_averages(self, marginal: Sequence[float]) -> np.ndarray:
        """Probability-weighted average distance from each category.

        Entry ``i`` is ``sum_k marginal[k] * d[i, k]``, the mean distance
        between category ``i`` and a category drawn from ``marginal``.
        """
        m = np.asarray(marginal, dtype=float)
        if m.shape != (self.n_categories,):
            raise ShapeError("marginal length must match the number of categories")
        return self.d @ m

    def scaled_by(self, c: float) -> "DistanceMatrix":
        """Return a copy with every distance multiplied by ``c > 0``."""
        if not c > 0.0:
            raise ShapeError("scaling constant must be positive")
        return DistanceMatrix(d=self.d * c, scale=self.scale / c)


def one_hot(n_categories: int, labels: Sequence[str] | None = None) -> Encoding:
    """Standard-basis embedding: category ``i`` maps to the ``i``-th unit vector.

    All pairs of distinct categories sit at raw distance ``sqrt(2)``, so the
    rescaled distance matrix has zeros on the diagonal and ones elsewhere.
    """
    if n_categories < 2:
        raise CardinalityError("one-hot encoding needs at least two categories")
    labels = _default_labels(n_categories) if labels is None else tuple(labels)
    return Encoding(labels=labels, points=np.eye(n_categories), kind="one-hot")


def ordinal_equal(n_categories: int, labels: Sequence[str] | None = None) -> Encoding:
    """Equally spaced line embedding: category ``i`` maps to the scalar ``i``.

    Spacings are additive along the order: for ordered categories
    ``i1 < i2 < i3`` the distance from ``i1`` to ``i3`` equals the sum of
    the two intermediate distances.
    """
    if n_categories < 2:
        raise CardinalityError("ordinal encoding needs at least two categories")
    labels = _default_labels(n_categories) if labels is None else tuple(labels)
    points = np.arange(1.0, n_categories + 1.0)[:, None]
    return Encoding(labels=labels, points=points, kind="ordinal")


def semicircle_equal(n_categories: int, labels: Sequence[str] | None = None) -> Encoding:
    """Equally spaced half-circle embedding.

    Category ``i`` (1-based) maps to
    ``(cos((i-1)pi/(I-1)), sin((i-1)pi/(I-1)))`` on the unit semicircle.
    Unlike the line embedding, every ordered triple satisfies a strict
    triangle inequality, which damps the dominance of extreme categories.
    """
    if n_categories < 2:
        raise CardinalityError("semicircle encoding needs at least two categories")
    labels = _default_labels(n_categories) if labels is None else tuple(labels)
    theta = np.arange(n_categories) * np.pi / (n_categories - 1)
    points = np.column_stack([np.cos(theta), np.sin(theta)])
    return Encoding(labels=labels, points=points, kind="semicircle")


def custom(labels: Sequence[str], points: Sequence[Sequence[float]] | np.ndarray) -> Encoding:
    """User-supplied embedding, stored verbatim.

    Use this for unequally spaced ordinal scales (for example disease
    severities 1, 3, 6) or any domain-informed geometry.
    """
    return Encoding(labels=tuple(labels), points=np.asarray(points, dtype=float), kind="custom")


def distance_matrix(encoding: Encoding) -> DistanceMatrix:
    """Rescaled pairwise distance matrix of an encoding.

    Computes all Euclidean distances between embedding points and divides
    by the largest one, so the maximum entry is exactly 1 and the result
    is invariant under any positive uniform rescaling of the points.
    The standard basis (one-hot) takes its closed form ``1 - eye(I)``.
    """
    pts = encoding.points
    n = len(pts)
    if pts.shape == (n, n) and np.count_nonzero(pts) == n and np.all(pts.diagonal() == 1.0):
        d = np.eye(n)
        return DistanceMatrix(d=np.subtract(1.0, d, out=d), scale=math.sqrt(2.0))
    diff = pts[:, None, :] - pts[None, :, :]
    d = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    d = 0.5 * (d + d.T)
    scale = float(d.max())
    return DistanceMatrix(d=d / scale, scale=scale)


_KIND_BUILDERS = {
    "onehot": one_hot,
    "one-hot": one_hot,
    "ordinal": ordinal_equal,
    "semicircle": semicircle_equal,
}


def encoding_for_kind(kind: str, n_categories: int,
                      labels: Sequence[str] | None = None) -> Encoding:
    """Build a named equally spaced encoding ("onehot", "ordinal", "semicircle")."""
    try:
        builder = _KIND_BUILDERS[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown encoding kind {kind!r}; expected one of "
            "'onehot', 'ordinal', 'semicircle'"
        ) from None
    return builder(n_categories, labels=labels)


def parse_metadata(doc: object) -> dict[str, Encoding]:
    """Build encodings from a metadata document.

    The document is a list of variable descriptors (or an object with a
    ``"variables"`` list), each of the form::

        {"name": str,
         "type": "nominal" | "ordinal",
         "encoding": "onehot" | "ordinal" | "semicircle" | "custom",
         "levels": [ordered labels],
         "points": [[...], ...]}   # custom only

    Returns a name-to-encoding mapping preserving document order.
    """
    if isinstance(doc, dict) and "variables" in doc:
        entries = doc["variables"]
    else:
        entries = doc
    if not isinstance(entries, list):
        raise ConfigurationError("metadata must be a list of variable descriptors")

    encodings: dict[str, Encoding] = {}
    # Encodings are frozen, so variables with the same named kind and labels
    # share one object instead of rebuilding and re-checking its points.
    shared: dict[tuple, Encoding] = {}
    for pos, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ConfigurationError(f"metadata entry {pos} is not an object")
        try:
            name = entry["name"]
            var_type = entry["type"]
            enc_kind = entry["encoding"]
            levels = entry["levels"]
        except KeyError as missing:
            raise ConfigurationError(
                f"metadata entry {pos} is missing required key {missing}"
            ) from None
        if var_type not in ("nominal", "ordinal"):
            raise ConfigurationError(
                f"variable {name!r}: type must be 'nominal' or 'ordinal'"
            )
        if not isinstance(levels, list) or len(levels) < 2:
            raise ConfigurationError(
                f"variable {name!r}: levels must list at least two labels"
            )
        if name in encodings:
            raise ConfigurationError(f"duplicate metadata entry for {name!r}")
        labels = [str(lev) for lev in levels]
        if enc_kind == "custom":
            if "points" not in entry:
                raise ConfigurationError(
                    f"variable {name!r}: custom encoding requires 'points'"
                )
            encodings[name] = custom(labels, entry["points"])
        elif enc_kind in _KIND_BUILDERS:
            key = (enc_kind, tuple(labels))
            if key not in shared:
                shared[key] = encoding_for_kind(enc_kind, len(labels), labels=labels)
            encodings[name] = shared[key]
        else:
            raise ConfigurationError(
                f"variable {name!r}: unknown encoding {enc_kind!r}"
            )
    return encodings


def load_metadata(path: str) -> dict[str, Encoding]:
    """Read a JSON metadata file and build the declared encodings.

    An unreadable file, text that is not UTF-8 and invalid JSON all raise
    :class:`ConfigurationError` naming the file.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path} is not valid UTF-8: {exc.reason}") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"invalid JSON in {path}: {exc}") from None
    return parse_metadata(doc)
