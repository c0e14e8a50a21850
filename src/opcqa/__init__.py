"""Operational consistent query answering over databases that violate
functional dependencies.

The package models repairing a database as a Markov chain of fact
removals, exposes the three uniform generators over that chain
(uniform repairs, uniform sequences, uniform operations, each with a
singleton-removal variant), and answers conjunctive queries by exact
rational computation, seeded sampling, or calibrated Monte-Carlo
estimation.
"""

from .counting import (
    SequenceCountTable,
    block_seq_count,
    build_sequence_count_table,
    count_candidate_repairs,
    count_complete_sequences,
    sequence_count_for_profile,
)
from .errors import (
    ConstraintClassError,
    OpcqaError,
    ParseError,
    SchemaError,
    SizeCapError,
    UnsupportedCombinationError,
)
from .estimation import (
    Estimate,
    EstimatorConfig,
    adaptive_success_quota,
    additive_sample_count,
    estimate_probability,
    lower_bound,
    multiplicative_sample_count,
)
from .instances import (
    Pos2DNF,
    TARGET_GRAPH,
    UndirectedGraph,
    brute_force_hom_count,
    gen_fd_lift,
    gen_fd_star,
    gen_hcoloring_instance,
    gen_pos2dnf_instance,
    hom_count_via_cqa,
    sat_count_brute,
)
from .queries import (
    Atom,
    ConjunctiveQuery,
    Constant,
    Variable,
    answers,
    entails,
    homomorphisms,
    witnesses,
)
from .relational import (
    Block,
    Database,
    Fact,
    FunctionalDependency,
    Schema,
    ViolationSet,
    blocks,
    fact,
    is_keys,
    is_primary_keys,
    satisfies,
    violations,
)
from .repairs import (
    GENERATORS,
    UO,
    UO1,
    UR,
    UR1,
    US,
    US1,
    GeneratorKind,
    Operation,
    RepairDistribution,
    RepairingChain,
    RepairingSequence,
    answer_probabilities,
    build_chain,
    candidate_repairs,
    canonical_sequences,
    enumerate_sequences,
    exact_answer_probability,
    justified_ops,
    realize_repair,
    repair_distribution,
    sequence_count,
)
from .sampling import (
    RandomSource,
    SampleOutcome,
    sample_outcome,
    sample_repair_uniform,
    sample_sequence_uniform,
    sample_sequence_uo,
)

__version__ = "0.1.0"
