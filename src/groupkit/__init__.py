"""Finite-group computation toolkit.

Builds cyclic, dihedral, direct-product, semidirect-product, and holomorph
groups as explicit multiplication tables; computes automorphism groups by
pruned exhaustive search; tests isomorphism; identifies groups against a
catalog of named families; and ships a self-checking verification suite
plus a command-line frontend with a small group-expression language.
"""

from .core import (
    DEFAULT_SIZE_CAP,
    AxiomVerdict,
    GroupTable,
    Morphism,
    SizeCapError,
    SubgroupRef,
    center,
    identity_morphism,
    is_abelian,
    is_normal,
    kernel,
    make_table,
    order_spectrum,
    subgroup_generated,
    subgroup_table,
    to_json_dict,
    verify_group_axioms,
)
from .numth import euler_phi, factorize, totatives
from .construct import (
    Action,
    SplitWitness,
    action_classes,
    actions,
    cyclic,
    dihedral,
    direct_product,
    hom_set,
    holomorph,
    kh_copies,
    power_action,
    recognize_split,
    semidirect,
    trivial_action,
)
from .aut import (
    DEFAULT_AUT_CAP,
    AutGroup,
    aut_group,
    automorphisms,
    is_characteristic,
    lambda_lift,
    zeta_lift,
)
from .iso import CatalogName, abelian_invariants, are_isomorphic, identify
from .expr import (
    ExprError,
    ExprEvalError,
    ExprSyntaxError,
    GroupExpr,
    eval_expr,
    parse_and_eval,
    parse_expr,
)
from .verify import (
    RunSummary,
    VerifyReport,
    report_to_json,
    run_all,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_AUT_CAP",
    "DEFAULT_SIZE_CAP",
    "Action",
    "AutGroup",
    "AxiomVerdict",
    "CatalogName",
    "ExprError",
    "ExprEvalError",
    "ExprSyntaxError",
    "GroupExpr",
    "GroupTable",
    "Morphism",
    "RunSummary",
    "SizeCapError",
    "SplitWitness",
    "SubgroupRef",
    "VerifyReport",
    "abelian_invariants",
    "action_classes",
    "actions",
    "are_isomorphic",
    "aut_group",
    "automorphisms",
    "center",
    "cyclic",
    "dihedral",
    "direct_product",
    "euler_phi",
    "eval_expr",
    "factorize",
    "hom_set",
    "holomorph",
    "identify",
    "identity_morphism",
    "is_abelian",
    "is_characteristic",
    "is_normal",
    "kernel",
    "kh_copies",
    "lambda_lift",
    "make_table",
    "order_spectrum",
    "parse_and_eval",
    "parse_expr",
    "power_action",
    "recognize_split",
    "report_to_json",
    "run_all",
    "semidirect",
    "subgroup_generated",
    "subgroup_table",
    "to_json_dict",
    "totatives",
    "trivial_action",
    "verify_group_axioms",
    "zeta_lift",
]
