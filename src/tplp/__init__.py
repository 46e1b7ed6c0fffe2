"""Temporal probabilistic logic programs over possible worlds.

Pipeline: parse a temporal program, ground it over its constants and
calendar, unfold the temporal annotations into interval-annotated clauses,
then decide consistency/entailment/tightening by branch search over exact
linear programs.  Compression relates time-extended worlds to threads, and
the evolution construction packs per-time annotation families into a single
temporal program.
"""

from .compression import (
    EvolutionProfile,
    EvolutionReport,
    Thread,
    VerificationMode,
    build_evolution_program,
    compress,
    compress_distribution,
    evolution_distribution,
    flatten,
    full_time_base,
    solve_profile,
    thread_prob,
    verify_evolution,
)
from .diagnostics import Diagnostic, DiagnosticKind, Severity, SourceSpan
from .errors import (
    AtomNotInBase,
    BaseTooLarge,
    CalendarTooLarge,
    GroundingTooLarge,
    InconsistentProgram,
    InvalidAnnotation,
    LPNumericalFailure,
    MissingTimeSlice,
    NonConvergence,
    NonNormalConstraint,
    TimePointOutsideCalendar,
    TplpError,
    UniverseEmpty,
    UnknownFormulaSlot,
)
from .grounder import (
    GroundingMode,
    HerbrandBase,
    PClause,
    PProgram,
    ground_program,
    ground_temporal_variables,
    herbrand_base,
    pprogram_to_ptprogram,
    unfold,
)
from .intervals import (
    ProbInterval,
    and_ig,
    format_rational,
    is_consistent,
    join_k,
    leq_b,
    leq_k,
    meet_k,
    or_ig,
    parse_rational,
)
from .model import (
    BasicFormula,
    CAtom,
    Calendar,
    CAnd,
    Cmp,
    CNot,
    Connective,
    COr,
    ObjVar,
    PTProgram,
    TAtom,
    TBin,
    TConst,
    TimeRange,
    TPAnnotation,
    TPClause,
    TRef,
    TVar,
    WeightFunction,
    WeightKind,
    companion_vars,
    constraint_principal,
    is_normal,
    solve_constraint,
    substitute_time,
    validate_annotation,
)
from .parser import (
    ParseResult,
    PSkeleton,
    Query,
    QueryKind,
    QueryResult,
    SkeletonClause,
    eval_interval_expr,
    parse_program,
    parse_query,
    parse_skeleton,
    render_program,
)
from .psat import (
    ConsistencyResult,
    EntailmentResult,
    MaxEntResult,
    SolveOptions,
    TightenResult,
    Verdict,
    check_consistency,
    entails,
    max_entropy_model,
    strong_witness,
    tighten,
)
from .simplex import LPMode, LPResult, solve_lp
from .worlds import (
    World,
    WorldDistribution,
    formula_mass,
    ki_satisfies,
    ki_satisfies_tp,
    world_satisfies,
)

__version__ = "0.1.0"
