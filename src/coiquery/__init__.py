"""Analyses of ranked query answering under a conflict of interest.

A data source that earns a commission on some results has an incentive
to push them up the ranking it returns.  This package models that
interaction end to end: exact posterior reasoning about where a tuple
"really" stands given a biased answer, a trust filter separating
returned tuples that could not have displaced better ones from those
that might have, difference-constraint queries that force a
self-interested source to reveal an intended order, a dynamic program
choosing which adjacent ranks to merge in a query to maximize expected
result quality, and a small game-theory lab for the equilibrium
characterization behind it all.

All analysis arithmetic is exact (``fractions.Fraction``); floats only
appear at the JSON / CSV boundaries.  See the per-module documentation
for the mathematics each piece implements.
"""

from __future__ import annotations

from .core import (
    AttributeDomain,
    BiasFunction,
    ConfigurationError,
    DomainError,
    InfeasibleQueryError,
    Key,
    QueryAnalysisError,
    Rank,
    RankDomain,
    Relation,
    SearchBudgetError,
    WeakOrder,
    as_fraction,
    build_rank_domain,
    validate_weak_order,
)
from .equilibrium import (
    ClassifiedEquilibrium,
    EquilibriumClass,
    FiniteGame,
    StrategyPair,
    bayes_posterior,
    classify_equilibrium,
    commission_game,
    enumerate_pure_equilibria,
    influential_witness,
    off_path_belief,
)
from .influence import (
    DeltaQuery,
    RankingSetKind,
    RankingSetSummary,
    RelativeRankConstraint,
    base_query,
    build_delta_query,
    classify_ranking_set,
    complement_constraint,
    delta_star,
    delta_star_for_gap,
    delta_star_solutions,
    order_by_case_sketch,
)
from .ingest import (
    OTHER_LABEL,
    BiasConfig,
    BiasRule,
    BucketKind,
    BucketSpec,
    assign_bias,
    bucketize,
    generate_intents,
    load_table,
    random_bias,
)
from .merge import (
    IntervalPartition,
    MergeResult,
    SuperRankCheck,
    apply_merge,
    brute_force_merge_opt,
    count_super_ranks,
    interval_score,
    is_super_rank,
    maximize_merge_dp,
)
from .posterior import (
    PosteriorSummary,
    Region,
    RegionSide,
    best_response_rank,
    block_expected_user_utility,
    interpret_query,
    region_means,
)
from .trust import (
    GapThresholds,
    IndifferenceReport,
    TrustReport,
    TrustWitness,
    detect_trustworthy,
    gsd_values,
    pairwise_indifference,
)
from .utility import (
    SaturationOutcome,
    SupermodularCheck,
    SupermodularWitness,
    UtilityContext,
    UtilityKind,
    aggregate_utility,
    check_supermodular,
    per_tuple_utility,
    saturation_check,
)

__version__ = "0.1.0"

__all__ = [
    "AttributeDomain",
    "BiasConfig",
    "BiasFunction",
    "BiasRule",
    "BucketKind",
    "BucketSpec",
    "ClassifiedEquilibrium",
    "ConfigurationError",
    "DeltaQuery",
    "DomainError",
    "EquilibriumClass",
    "FiniteGame",
    "GapThresholds",
    "IndifferenceReport",
    "InfeasibleQueryError",
    "IntervalPartition",
    "Key",
    "MergeResult",
    "OTHER_LABEL",
    "PosteriorSummary",
    "QueryAnalysisError",
    "Rank",
    "RankDomain",
    "RankingSetKind",
    "RankingSetSummary",
    "Region",
    "RegionSide",
    "Relation",
    "RelativeRankConstraint",
    "SaturationOutcome",
    "SearchBudgetError",
    "StrategyPair",
    "SuperRankCheck",
    "SupermodularCheck",
    "SupermodularWitness",
    "TrustReport",
    "TrustWitness",
    "UtilityContext",
    "UtilityKind",
    "WeakOrder",
    "aggregate_utility",
    "apply_merge",
    "as_fraction",
    "assign_bias",
    "base_query",
    "bayes_posterior",
    "best_response_rank",
    "block_expected_user_utility",
    "brute_force_merge_opt",
    "bucketize",
    "build_delta_query",
    "build_rank_domain",
    "check_supermodular",
    "classify_equilibrium",
    "classify_ranking_set",
    "commission_game",
    "complement_constraint",
    "count_super_ranks",
    "delta_star",
    "delta_star_for_gap",
    "delta_star_solutions",
    "detect_trustworthy",
    "enumerate_pure_equilibria",
    "generate_intents",
    "gsd_values",
    "influential_witness",
    "interpret_query",
    "interval_score",
    "is_super_rank",
    "load_table",
    "maximize_merge_dp",
    "off_path_belief",
    "order_by_case_sketch",
    "pairwise_indifference",
    "per_tuple_utility",
    "random_bias",
    "region_means",
    "saturation_check",
    "validate_weak_order",
    "__version__",
]
