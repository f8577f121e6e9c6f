"""The package's public surface: its names, where each is defined, and how each is called.

A name is public exactly when its own module's ``__all__`` lists it, and
``catdcor`` republishes those lists.  A signature is pinned as
``inspect.Signature`` prints it with the annotations removed: each
parameter's name, kind and the ``repr`` of its default.  Annotation text
is left out because it differs across Python versions.  A class is pinned
by its constructor and the public methods it defines, an error class by
its bases.
"""

import inspect

import pytest

import catdcor
import catdcor.cli

MODULES = ("encodings", "estimators", "exceptions", "inference", "measures", "screening",
           "simulate")

# "<module>.<name>[.<method>]" -> signature without annotations, for every
# public function and class (errors aside) and for ``cli.__all__``.
SIGNATURES = {
    "encodings.DistanceMatrix": "(d, scale=1.0)",
    "encodings.DistanceMatrix.row_averages": "(self, marginal)",
    "encodings.DistanceMatrix.scaled_by": "(self, c)",
    "encodings.Encoding": "(labels, points, kind='custom')",
    "encodings.custom": "(labels, points)",
    "encodings.distance_matrix": "(encoding)",
    "encodings.encoding_for_kind": "(kind, n_categories, labels=None)",
    "encodings.load_metadata": "(path)",
    "encodings.one_hot": "(n_categories, labels=None)",
    "encodings.ordinal_equal": "(n_categories, labels=None)",
    "encodings.parse_metadata": "(doc)",
    "encodings.semicircle_equal": "(n_categories, labels=None)",
    "estimators.EstimatePair": "(mle, unbiased, n)",
    "estimators.JointTable": "(counts)",
    "estimators.JointTable.from_codes": "(x, y, n_rows, n_cols)",
    "estimators.JointTable.to_distribution": "(self)",
    "estimators.bias_limit": "(p, dx, dy)",
    "estimators.dcor2_estimates": "(t, dx, dy)",
    "estimators.dcor2_mle": "(t, dx, dy)",
    "estimators.dcor2_unbiased": "(t, dx, dy)",
    "estimators.dcov2_estimates": "(t, dx, dy)",
    "estimators.dcov2_mle": "(t, dx, dy)",
    "estimators.dcov2_unbiased": "(t, dx, dy)",
    "estimators.dvar2_bias_limit": "(marginal, d)",
    "estimators.dvar2_mle": "(t, d, axis=0)",
    "estimators.dvar2_unbiased": "(t, d, axis=0)",
    "estimators.dvar_t_stats": "(margin_counts, d)",
    "estimators.t_stats": "(t, dx, dy)",
    "inference.AltInference": "(dprime, p, asymp_var)",
    "inference.NullSpectrum": "(lambdas, mus, bias_shift, dvar_x, dvar_y)",
    "inference.NullSpectrum.normalizer": "(self)",
    "inference.TestResult":
        "(statistic, estimator, p_value, method, lambdas, mus, bias_shift, n)",
    "inference.alt_inference": "(p, dx, dy)",
    "inference.confidence_interval": "(t, dx, dy, level=0.95, estimator='mle')",
    "inference.independence_test": "(t, dx, dy, estimator='unbiased')",
    "inference.null_pvalue_mle": "(t, dx, dy)",
    "inference.null_pvalue_unbiased": "(t, dx, dy)",
    "inference.null_spectrum": "(row_marginal, col_marginal, dx, dy)",
    "inference.permutation_test": "(x, y, dx, dy, estimator='unbiased', reps=999, seed=0)",
    "inference.q_matrix": "(marginal, d)",
    "inference.spectrum": "(marginal, d)",
    "inference.weighted_chisq_sf": "(weights, x)",
    "measures.JointDistribution": "(pi)",
    "measures.JointDistribution.delta": "(self)",
    "measures.JointDistribution.independent": "(row_marginal, col_marginal)",
    "measures.dcor2": "(p, dx, dy)",
    "measures.dcov2": "(p, dx, dy)",
    "measures.dvar2": "(marginal, d)",
    "screening.BoundParams":
        "(epsilon, n, n_features, max_levels, response_levels, sigma2_min)",
    "screening.ChangepointResult": "(threshold, index, low_confidence)",
    "screening.ScreeningReport":
        "(feature_ids, values, order, estimator, degenerate=<factory>, threshold=None, "
        "changepoint_index=None, selected=None, low_confidence=None)",
    "screening.ScreeningReport.sorted_values": "(self)",
    "screening.ScreeningReport.sorted_ids": "(self)",
    "screening.apply_changepoint": "(report)",
    "screening.changepoint_threshold": "(sorted_values)",
    "screening.screen":
        "(features, response, feature_dists, response_dist, estimator='mle', "
        "feature_ids=None)",
    "screening.screening_bound": "(params)",
    "screening.select": "(report, threshold)",
    "simulate.BenchmarkResult":
        "(encoding, auc, sensitivity, specificity, replicate_aucs, "
        "replicate_sensitivities, replicate_specificities, replicate_seeds, construction, "
        "joint, pooled_scores, pooled_truth)",
    "simulate.ConstructedJoint": "(joint, method)",
    "simulate.SettingSpec":
        "(setting_id, n_rows, n_cols, row_marginal, col_marginal, delta, cells, "
        "n_features, relevant_count, n)",
    "simulate.SimulatedDataset": "(features, response, relevant_ids, joint, method)",
    "simulate.build_joint": "(spec, allow_rank_one=False)",
    "simulate.roc_auc": "(scores, truth)",
    "simulate.roc_points": "(scores, truth)",
    "simulate.run_benchmark":
        "(setting_id, n, encoding_kinds=('onehot', 'ordinal', 'semicircle'), "
        "n_features=1000, relevant_count=50, replicates=3, seed=0, estimator='mle')",
    "simulate.sample_dataset": "(spec, seed, allow_rank_one=False)",
    "simulate.setting_spec": "(setting_id, n, n_features=1000, relevant_count=50)",
    "cli.Dataset": "(column_names, codes, row_count, dropped_rows)",
    "cli.ingest": "(csv_path, metadata_path, missing_tokens=('',))",
    "cli.main": "(argv=None)",
}

# Each error class of ``catdcor.exceptions`` -> the names of its bases.
BASES = {
    "CatdcorError": ("Exception",),
    **{name: ("CatdcorError", "ValueError") for name in (
        "CardinalityError", "ConfigurationError", "DegenerateCategoryError",
        "DegenerateDistributionError", "DegenerateEncodingError", "DegenerateMarginError",
        "DistributionError", "InfeasibleSettingError", "InsufficientFeaturesError",
        "InsufficientReplicatesError", "InsufficientSampleError", "InvalidThresholdError",
        "LabelError", "ParseError", "ShapeError", "UndefinedAUCError")},
    "InternalConsistencyError": ("CatdcorError", "RuntimeError"),
}

# Public name -> its defining module: the 59 functions and classes and the 18 errors.
HOMES = {**{key.split(".")[1]: key.split(".")[0] for key in SIGNATURES
            if not key.startswith("cli.")},
         **dict.fromkeys(BASES, "exceptions")}


def _exported(module) -> set[str]:
    """``module.__all__``, or without one the public names ``module`` defines (pydoc's rule)."""
    if hasattr(module, "__all__"):
        return set(module.__all__)
    return {name for name, value in vars(module).items()
            if not name.startswith("_") and getattr(value, "__module__", None) == module.__name__}


def _unannotated(obj) -> str:
    signature = inspect.signature(obj)
    return str(signature.replace(
        parameters=[p.replace(annotation=p.empty) for p in signature.parameters.values()],
        return_annotation=signature.empty))


def _public_names() -> set[str]:
    return {name for name in dir(catdcor)
            if not name.startswith("_") and not inspect.ismodule(getattr(catdcor, name))}


def test_public_names_are_the_pinned_list():
    assert len(HOMES) == 77
    assert _public_names() == set(HOMES)


@pytest.mark.parametrize("module", MODULES)
def test_each_module_lists_the_names_it_defines(module):
    assert _exported(getattr(catdcor, module)) == {
        name for name, home in HOMES.items() if home == module}


def test_package_republishes_the_module_lists():
    assert _public_names() == set().union(*(_exported(getattr(catdcor, m)) for m in MODULES))


def test_package_binds_no_foreign_module():
    modules = {name: value for name, value in vars(catdcor).items()
               if inspect.ismodule(value)}
    assert set(MODULES) <= set(modules)
    assert all(value.__name__ == f"catdcor.{name}" for name, value in modules.items())


@pytest.mark.parametrize("key", SIGNATURES)
def test_signature(key):
    module, *path = key.split(".")
    obj = getattr(catdcor, module)
    for name in path:
        obj = getattr(obj, name)
    assert obj.__module__ == f"catdcor.{module}"
    assert _unannotated(obj) == SIGNATURES[key]
    if module != "cli":
        assert getattr(catdcor, path[0]) is getattr(getattr(catdcor, module), path[0])


@pytest.mark.parametrize("name", BASES)
def test_error_bases(name):
    error = getattr(catdcor, name)
    assert error is getattr(catdcor.exceptions, name)
    assert error.__module__ == "catdcor.exceptions"
    assert tuple(base.__name__ for base in error.__bases__) == BASES[name]
