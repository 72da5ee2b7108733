"""``repro.relalg`` — the in-memory relational engine substrate.

Provides schemas, relations over rows or typed columns, a scalar
expression language and its one lowering (:mod:`repro.relalg.compiler`),
SQL aggregate functions with sub-/super-aggregate decomposition, and key
matching. Everything above this layer (GMDJ evaluation, the distributed
Skalla runtime) is built from these primitives, and every public
definition here has a caller there (``tests/test_relalg_callers.py``).
Joins, SQL ``GROUP BY``, the expression interpreter and per-group row
accumulators are the tests' baselines, in ``tests/oracle/``.
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
    "base",
    "col",
    "count_star",
    "detail",
    "expr_equals",
    "from_csv_text",
    "or_all",
    "read_csv",
    "register_aggregate",
    "to_csv_text",
    "wrap",
    "write_csv",
]
