"""``repro.relalg`` — the in-memory relational engine substrate.

Provides schemas, relations, a scalar expression language, SQL aggregate
functions with sub-/super-aggregate decomposition, relational operators
and hash indexes. Everything above this layer (GMDJ evaluation, the
distributed Skalla runtime) is built from these primitives.
"""

from repro.relalg.aggregates import AggSpec, count_star, register_aggregate
from repro.relalg.expressions import (
    BASE_VAR,
    DETAIL_VAR,
    Expr,
    Field,
    and_all,
    base,
    col,
    detail,
    expr_equals,
    or_all,
    wrap,
)
from repro.relalg.io import from_csv_text, read_csv, to_csv_text, write_csv
from repro.relalg.operators import (
    antijoin,
    cross,
    difference,
    equi_join,
    group_by,
    natural_join,
    semijoin,
    theta_join,
    union_all,
)
from repro.relalg.relation import Relation
from repro.relalg.schema import BOOL, DATE, FLOAT, INT, STR, Attribute, Schema

__all__ = [
    "AggSpec",
    "Attribute",
    "BASE_VAR",
    "BOOL",
    "DATE",
    "DETAIL_VAR",
    "Expr",
    "FLOAT",
    "Field",
    "INT",
    "Relation",
    "STR",
    "Schema",
    "and_all",
    "antijoin",
    "base",
    "col",
    "count_star",
    "cross",
    "detail",
    "difference",
    "equi_join",
    "expr_equals",
    "from_csv_text",
    "group_by",
    "natural_join",
    "or_all",
    "read_csv",
    "register_aggregate",
    "semijoin",
    "theta_join",
    "to_csv_text",
    "union_all",
    "wrap",
    "write_csv",
]
