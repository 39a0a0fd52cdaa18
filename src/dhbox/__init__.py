"""Laboratory for query complexity of DLOG, CDH and DDH in identity
black-box groups: quotients of Z_p^(t+1) by a hyperplane that is hidden
behind a membership oracle.

The main entry points re-exported here cover field arithmetic, oracles
with honest query accounting, every reduction between the three problems,
the exact adversary-bound computation, the Grover search simulator and
the reproducible experiment harness.

``import dhbox`` loads only the level-1 core: ``modmath``, ``blackbox``
and ``algorithms``, which need no numpy.  The study names, from
``adversary``, ``experiments`` and ``grover_sim``, are in ``_STUDIES``;
the first access to one of them, or to its module, imports that module
and binds the name here (PEP 562), so numpy loads with the first
``experiments`` or ``grover_sim`` name and never with a scan;
``adversary`` computes its report in closed form, in plain integers, and
needs none.
"""

from importlib import import_module

from .algorithms import (
    CdhOracle,
    DHInstance,
    DishonestOracleError,
    DlogOracle,
    EmbeddedOracle,
    NotAGeneratorError,
    brute_force_hidden_vector,
    brute_force_secret,
    cdh_given_secret,
    ddh_decide_by_search,
    ddh_decide_level1,
    dlog_given_secret,
    embed_generic_group,
    honest_cdh_oracle,
    honest_dlog_oracle,
    lift_instance,
    lift_oracle,
    project_cdh_answer,
    secret_from_cdh,
    secret_from_cdh_random,
    secret_from_dlog,
    secret_from_dlog_random,
)
from .blackbox import (
    Escrow,
    EscrowError,
    GroupElement,
    GroverOracle,
    IdentityOracle,
    NormalVector,
    QueryBudgetExceeded,
    RawOracle,
    canonical_element,
    coset_label,
    equal_in_group,
    field_mul,
    grover_from_identity,
    identity_from_grover,
    normalize_oracle,
    random_identity_oracle,
)
from .modmath import (
    ALL_RESIDUES,
    PrimeModulus,
    QuadraticPoly,
    Residue,
    find_nonresidue,
    is_prime,
    legendre,
    solve_quadratic,
    sqrt_mod,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_RESIDUES",
    "AdversaryReport",
    "CdhOracle",
    "ClassifiedVector",
    "DHInstance",
    "DishonestOracleError",
    "DlogOracle",
    "EmbeddedOracle",
    "Escrow",
    "EscrowError",
    "GroupElement",
    "GroverOracle",
    "GroverRun",
    "IdentityOracle",
    "NormalVector",
    "NotAGeneratorError",
    "PrimeModulus",
    "QuadraticPoly",
    "QueryBudgetExceeded",
    "RawOracle",
    "Residue",
    "adversary_bounds",
    "brute_force_hidden_vector",
    "brute_force_secret",
    "canonical_element",
    "cdh_given_secret",
    "classify",
    "coset_label",
    "ddh_decide_by_search",
    "ddh_decide_level1",
    "dlog_given_secret",
    "embed_generic_group",
    "equal_in_group",
    "field_mul",
    "find_nonresidue",
    "grover_from_identity",
    "grover_search",
    "honest_cdh_oracle",
    "honest_dlog_oracle",
    "identity_from_grover",
    "is_prime",
    "legendre",
    "lift_instance",
    "lift_oracle",
    "normalize_oracle",
    "project_cdh_answer",
    "quantum_query_curve",
    "random_identity_oracle",
    "run_level2_solution_counts",
    "run_reduction_success",
    "run_scaling",
    "secret_from_cdh",
    "secret_from_cdh_random",
    "secret_from_dlog",
    "secret_from_dlog_random",
    "sigma_gamma",
    "sigma_gamma_h",
    "solve_quadratic",
    "sqrt_mod",
]

# The study names, by the module that defines them.
_STUDIES = {
    "AdversaryReport": "adversary",
    "ClassifiedVector": "adversary",
    "adversary_bounds": "adversary",
    "classify": "adversary",
    "sigma_gamma": "adversary",
    "sigma_gamma_h": "adversary",
    "run_level2_solution_counts": "experiments",
    "run_reduction_success": "experiments",
    "run_scaling": "experiments",
    "GroverRun": "grover_sim",
    "grover_search": "grover_sim",
    "quantum_query_curve": "grover_sim",
}


def __getattr__(name):
    """A study name or study module, imported on first access and bound here."""
    if name in _STUDIES:
        value = getattr(import_module(f".{_STUDIES[name]}", __name__), name)
    elif name in _STUDIES.values():
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
