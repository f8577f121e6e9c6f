"""Column-by-column reference for the simulation sampler.

``catdcor.simulate._draw_dataset`` draws the feature uniforms in blocks
of columns and maps each block at once, counting for each uniform the
CDF entries (the pinned last one excluded) that it reaches.  This is the
loop it replaced, by binary search instead: one ``rng.random(n)`` per
column and ``np.searchsorted(cdf, u, side="right")`` capped at the last
category, relevant columns searched once per response category.  Tests
compare the blocked draw with this separate implementation of the same
random stream.
"""

import numpy as np


def _inverse_cdf_sample(cdf, u):
    return np.minimum(np.searchsorted(cdf, u, side="right"), cdf.size - 1)


def draw_dataset(spec, joint, seed):
    """``(features, response)`` of one dataset, drawn one column at a time."""
    cond_cdf = np.cumsum(joint.pi / joint.col_marginal[None, :], axis=0)
    cond_cdf[-1, :] = 1.0
    marg_cdf = np.cumsum(spec.row_marginal)
    marg_cdf[-1] = 1.0
    response_cdf = np.cumsum(joint.col_marginal)
    response_cdf[-1] = 1.0

    rng = np.random.default_rng(seed)
    n = spec.n
    response = _inverse_cdf_sample(response_cdf, rng.random(n))
    features = np.empty((n, spec.n_features), dtype=np.int64)
    for s in range(spec.n_features):
        u = rng.random(n)
        if s < spec.relevant_count:
            for c in range(spec.n_cols):
                rows = response == c
                features[rows, s] = _inverse_cdf_sample(cond_cdf[:, c], u[rows])
        else:
            features[:, s] = _inverse_cdf_sample(marg_cdf, u)
    return features, response
