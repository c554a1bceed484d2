"""strikeaudit: bias-audit toolkit for jury strike records.

Two-stage analysis: certified-optimal feature selection for a logistic
strike model (with race ablation), and optimal-tree segmentation of the
juror population with per-segment disparity testing.
"""

from .audit import AuditConfig, leaf_disparity, run_audit
from .dataset import (
    FeatureMatrix,
    JurorTable,
    SplitSpec,
    SynthConfig,
    build_matrix,
    filter_eligible,
    load_csv,
    split,
    synth_generate,
    write_csv,
)
from .errors import (
    CollinearityError,
    ContractViolationError,
    DegenerateDataError,
    ParseError,
    SchemaError,
    StageError,
    StratificationError,
    StrikeAuditError,
    UndefinedMetricError,
    UndefinedTestError,
)
from .logreg import FitSettings, LogisticModel, fit, predict_proba, wald_pvalues
from .stats import ContingencyTable, auc, fisher_exact, holm_adjust
from .subset import (
    SubsetPath,
    SubsetResult,
    backward_stepwise,
    best_subset,
    importance_profile,
    subset_path,
)
from .tree import Tree, TreeSettings, describe_path, fit_tree, tune_alpha

__version__ = "0.1.0"
