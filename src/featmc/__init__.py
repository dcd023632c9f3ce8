"""featmc: family-based probabilistic model checking for product lines.

A product line's stochastic behaviour is captured in one featured Markov
chain whose transitions carry per-product probability profiles; PCTL and
expected-reward properties are then verified for every valid product by
three interchangeable engines (enumerative, parametric, bounded).
"""

from .features import (
    FeatureDiagram,
    Product,
    conjoin,
    parse_feature_expression,
)
from .profiles import (
    DenseProfile,
    GuardedProfile,
    Profile,
    add,
    complement,
    constant,
    indicator,
    mul,
    sub,
    to_dense,
)
from .models import (
    FDTMC,
    FMDP,
    FTS,
    as_fdtmc,
    complete_deterministic,
    fdtmc_as_fmdp,
    fts_to_fmdp,
    is_complete,
    observer_product,
    path_probability,
    project,
    project_fmdp,
    sync_product,
    validate_fdtmc,
    validate_fmdp,
)
from .properties import parse_property, parse_tree, print_property
from .dsl import (
    build_model,
    bundled_model_path,
    load_model,
    parse_model,
    parse_model_file,
    print_model_file,
)
from .generators import gen_failure_recovery, gen_service_provider
from .engines.enumerative import check_family_enumerative
from .engines.parametric import check_family_parametric
from .engines.bounded import check_family_bounded

__version__ = "0.1.0"

__all__ = [
    "FeatureDiagram",
    "Product",
    "conjoin",
    "parse_feature_expression",
    "Profile",
    "GuardedProfile",
    "DenseProfile",
    "add",
    "sub",
    "mul",
    "complement",
    "constant",
    "indicator",
    "to_dense",
    "FDTMC",
    "FMDP",
    "FTS",
    "as_fdtmc",
    "complete_deterministic",
    "fdtmc_as_fmdp",
    "fts_to_fmdp",
    "is_complete",
    "observer_product",
    "path_probability",
    "project",
    "project_fmdp",
    "sync_product",
    "validate_fdtmc",
    "validate_fmdp",
    "parse_property",
    "parse_tree",
    "print_property",
    "build_model",
    "load_model",
    "parse_model",
    "parse_model_file",
    "print_model_file",
    "gen_failure_recovery",
    "gen_service_provider",
    "check_family_enumerative",
    "check_family_parametric",
    "check_family_bounded",
    "bundled_model_path",
]
