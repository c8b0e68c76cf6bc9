"""State restoration and entropy profiles for hidden Markov chains and trees.

Given a fully specified model and observed data, this package computes
smoothed state probabilities, Viterbi restorations, and entropy profiles
that localize state uncertainty along a sequence or across a tree, together
with an exact enumeration oracle for verification on small instances and
entropy-aware model selection criteria.
"""

from .chain import (ChainPosterior, backward_smooth, forward_pass, smooth_chain,
                    smooth_dataset, viterbi_chain, viterbi_dataset)
from .chain_entropy import (ChainEntropyProfile, entropy_future,
                            entropy_future_direct, entropy_past_direct,
                            entropy_past_hernando, marginal_entropy_profile)
from .criteria import CriterionInput, bic, free_parameter_count, icl_bic, nec
from .errors import (BudgetExceededError, DataFormatError, HmmError,
                     ImpossibleObservationError, ValidationError)
from .fileio import (ProfileTable, parse_model, parse_sequence, parse_tree,
                     read_profile, serialize_model, serialize_sequence,
                     serialize_tree, write_profile)
from .model import (Categorical, HmmModel, ObservedSequence, ObservedTree,
                    Poisson, TreeTopology, emission_prob, simulate_chain,
                    simulate_tree, validate_model)
from .oracle import OracleResult, enumerate_chain, enumerate_tree, oracle_entropy
from .tree import (TreePosterior, downward_pass, smooth_tree, upward_pass,
                   viterbi_profiles, viterbi_tree)
from .tree_entropy import (EntropySummary, TreeEntropyProfile,
                           children_conditional_profile, entropy_summary,
                           parent_conditional_profile,
                           subtree_entropies_approach1,
                           subtree_entropies_approach2, tree_entropy_profile)

__version__ = "0.1.0"

__all__ = [
    "HmmModel", "Categorical", "Poisson", "ObservedSequence", "ObservedTree",
    "TreeTopology", "validate_model", "emission_prob", "simulate_chain",
    "simulate_tree",
    "ChainPosterior", "forward_pass", "backward_smooth", "smooth_chain",
    "smooth_dataset", "viterbi_chain", "viterbi_dataset",
    "ChainEntropyProfile", "marginal_entropy_profile", "entropy_past_hernando",
    "entropy_past_direct", "entropy_future", "entropy_future_direct",
    "TreePosterior", "upward_pass", "downward_pass", "smooth_tree",
    "viterbi_tree", "viterbi_profiles",
    "TreeEntropyProfile", "EntropySummary", "parent_conditional_profile",
    "subtree_entropies_approach1", "subtree_entropies_approach2",
    "children_conditional_profile", "tree_entropy_profile", "entropy_summary",
    "OracleResult", "enumerate_chain", "enumerate_tree", "oracle_entropy",
    "CriterionInput", "free_parameter_count", "nec", "bic", "icl_bic",
    "ProfileTable", "parse_model", "serialize_model", "parse_sequence",
    "serialize_sequence", "parse_tree", "serialize_tree", "write_profile",
    "read_profile",
    "HmmError", "ValidationError", "DataFormatError",
    "ImpossibleObservationError", "BudgetExceededError",
]
