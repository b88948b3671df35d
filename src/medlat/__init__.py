"""medlat: a workbench for finite Brouwer algebras and intermediate logics."""

from .errors import InputError, MedlatError, ResourceLimitError
from .poset import (
    Poset,
    chain_poset,
    enumerate_posets,
    load_poset,
    make_poset,
    max_antichain_size,
    open_sets,
    powerset_poset,
)
from .algebra import (
    AlgebraMap,
    BrouwerAlgebra,
    TableAlgebra,
    UpSetAlgebra,
    all_negations_meet_irreducible,
    bn,
    chain_algebra,
    factor_by_principal_filter,
    from_poset,
    interval,
    irreducibles,
    is_b_homomorphism,
    is_isomorphic,
    plus_a_map,
    validate,
)
from .freedist import (
    FreeElement,
    free_algebra,
    free_element,
    free_enumerate,
    free_imp,
    free_join,
    free_leq,
    free_meet,
    free_neg,
    generator_negations,
    independence_check,
    iso_to_bn,
    render_free,
)
from .logic import (
    Formula,
    ValidityReport,
    antichain_formula,
    axiom,
    countermodel_search,
    eval_formula,
    is_valid,
    kp_class_check,
    lm_member,
    parse,
    render,
    variables,
)

__version__ = "0.1.0"
