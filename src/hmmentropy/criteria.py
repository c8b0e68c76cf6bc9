"""Entropy-aware model selection criteria.

The criteria combine the maximized log-likelihood, the global state entropy
H(S | X = x) summed over the dataset, the number of free parameters and the
sample size.  BIC is kept on the 2*logL scale so that the identity
ICL-BIC = BIC - 2*H holds exactly.
"""

import math
from dataclasses import dataclass
from typing import Optional

from .model import HmmModel

__all__ = ["CriterionInput", "free_parameter_count", "nec", "bic", "icl_bic"]


@dataclass
class CriterionInput:
    """Inputs shared by the criteria.

    log_likelihood_1 is the log-likelihood of a 1-state baseline model on the
    same data; it is only needed by the normalized entropy criterion.
    sample_size is the total number of time points / vertices.
    """

    log_likelihood: float
    global_entropy: float
    free_params: int
    sample_size: int
    log_likelihood_1: Optional[float] = None

    def __post_init__(self):
        if self.sample_size < 1:
            raise ValueError("sample_size must be >= 1")
        for name in ("log_likelihood", "global_entropy", "log_likelihood_1"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.global_entropy < 0:
            raise ValueError("global_entropy must be >= 0")
        if self.free_params < 0:
            raise ValueError("free_params must be non-negative")


def free_parameter_count(model: HmmModel) -> int:
    """(J-1) initial + J(J-1) transition + J * sum of per-variable dofs."""
    j = model.num_states
    emission_dof = sum(var.dof for var in model.emissions[0])
    return (j - 1) + j * (j - 1) + j * emission_dof


def nec(inp: CriterionInput) -> float:
    """Normalized entropy criterion H / (logL_J - logL_1); to be minimized.

    Only the difference of the two log-likelihoods enters.  Undefined
    without a multi-state model improving on its 1-state baseline.
    """
    if inp.log_likelihood_1 is None:
        raise ValueError(
            "NEC needs the log-likelihood of a 1-state baseline model "
            "(and is unsupported for 1-state models themselves)"
        )
    denom = inp.log_likelihood - inp.log_likelihood_1
    if denom <= 0:
        raise ValueError(
            f"NEC undefined: log-likelihood difference {denom!r} is not positive"
        )
    return inp.global_entropy / denom


def bic(inp: CriterionInput) -> float:
    """2*logL - d*log(n); to be maximized."""
    return 2.0 * inp.log_likelihood - inp.free_params * math.log(inp.sample_size)


def icl_bic(inp: CriterionInput) -> float:
    """2*logL - 2*H - d*log(n); to be maximized.

    Equals bic(inp) - 2*global_entropy exactly.
    """
    return bic(inp) - 2.0 * inp.global_entropy
