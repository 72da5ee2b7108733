"""Property-based soundness tests for the optimizer's condition analysis.

Theorem 4 soundness: if the derived ship filter ¬ψᵢ rejects a base tuple
b, then *no* detail tuple satisfying φᵢ may satisfy any condition with b.
We verify it operationally: evaluate the GMDJ of the full base against
the φᵢ-filtered detail partition, and check every rejected base tuple
has empty RNG (count 0 in every block).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gmdj.analysis import conditions_entail, derive_ship_filter
from repro.gmdj.blocks import MDBlock
from repro.gmdj.operator import evaluate
from repro.relalg.aggregates import count_star
from repro.relalg.compiler import compile_predicate
from repro.relalg.expressions import BASE_VAR, DETAIL_VAR, and_all, base, detail
from repro.relalg.relation import Relation
from repro.relalg.schema import INT, Schema

DETAIL_SCHEMA = Schema.of(("p", INT), ("q", INT))
BASE_SCHEMA = Schema.of(("x", INT), ("y", INT))

detail_rows = st.lists(
    st.tuples(
        st.integers(min_value=-20, max_value=20),
        st.integers(min_value=-20, max_value=20),
    ),
    max_size=40,
)
base_rows = st.lists(
    st.tuples(
        st.integers(min_value=-20, max_value=20),
        st.integers(min_value=-20, max_value=20),
    ),
    max_size=25,
)

THETAS = [
    base.x == detail.p,
    (base.x == detail.p) & (base.y == detail.q),
    base.x + base.y < detail.p * 2,
    (base.x == detail.p) & (detail.q > 5),
    base.y <= detail.q,
    base.x == detail.p + detail.q,
]

PHIS = [
    detail.p.between(-5, 5),
    detail.p.is_in([0, 1, 2]),
    (detail.p > 0) & (detail.q.between(-3, 3)),
    detail.q == 7,
]


@given(
    rows=detail_rows,
    groups=base_rows,
    theta_indices=st.lists(
        st.integers(min_value=0, max_value=len(THETAS) - 1),
        min_size=1,
        max_size=3,
    ),
    phi_index=st.integers(min_value=0, max_value=len(PHIS) - 1),
)
@settings(max_examples=120, deadline=None)
def test_ship_filter_is_sound(rows, groups, theta_indices, phi_index):
    phi = PHIS[phi_index]
    thetas = [THETAS[index] for index in theta_indices]
    ship_filter = derive_ship_filter(thetas, phi)
    if ship_filter is None:
        return  # no reduction derived: trivially sound

    # The site's partition: detail rows satisfying phi.
    phi_predicate = compile_predicate(phi, {DETAIL_VAR: DETAIL_SCHEMA}, (DETAIL_VAR,))
    site_rows = [row for row in rows if phi_predicate(row)]
    site_relation = Relation(DETAIL_SCHEMA, site_rows)
    base_relation = Relation(BASE_SCHEMA, groups)

    blocks = [
        MDBlock([count_star(f"c{index}")], theta)
        for index, theta in enumerate(thetas)
    ]
    result = evaluate(base_relation, site_relation, blocks)

    filter_predicate = compile_predicate(ship_filter, {BASE_VAR: BASE_SCHEMA}, (BASE_VAR,))
    count_positions = [
        result.schema.position(f"c{index}") for index in range(len(thetas))
    ]
    for base_row, result_row in zip(base_relation.rows, result.rows):
        if not filter_predicate(base_row):
            # Rejected tuples must have contributed nothing at this site.
            for position in count_positions:
                assert result_row[position] == 0, (
                    f"unsound filter: {ship_filter!r} rejected {base_row} "
                    f"which matches at the site"
                )


# A chain's later steps read what its earlier steps generate (``c0``): the
# ship filter is compiled against X as it is *before* the round, which has
# no such attribute.
CHAIN_THETAS = THETAS + [
    (base.x == detail.p) & (base.c0 > 1),
    (base.x == detail.p) & (detail.q >= base.c0),
    base.c0 > 1,
    (base.y <= detail.q) & (base.c0 + base.x > 3),
]


@given(
    theta_indices=st.lists(
        st.integers(min_value=0, max_value=len(CHAIN_THETAS) - 1),
        min_size=1,
        max_size=4,
    ),
    phi_index=st.integers(min_value=0, max_value=len(PHIS) - 1),
)
@settings(max_examples=120, deadline=None)
def test_ship_filter_reads_only_the_schema_it_is_compiled_against(
    theta_indices, phi_index
):
    thetas = [CHAIN_THETAS[index] for index in theta_indices]
    ship_filter = derive_ship_filter(thetas, PHIS[phi_index], generated=["c0"])
    if ship_filter is None:
        return
    assert ship_filter.relvars() <= {BASE_VAR}
    assert {field.name for field in ship_filter.fields()} <= set(BASE_SCHEMA.names)
    # Raises on an unknown attribute.
    compile_predicate(ship_filter, {BASE_VAR: BASE_SCHEMA}, (BASE_VAR,))


# Atoms the entailment property draws conjunctions from, NULLs included so
# three-valued logic is exercised.
ATOMS = [
    base.x == detail.p,
    base.y == detail.q,
    detail.q > 5,
    base.y <= detail.q,
    base.x + base.y < detail.p * 2,
    (base.x == detail.p) | (detail.q > 5),
    detail.p != base.y,
]

nullable = st.one_of(st.none(), st.integers(min_value=-6, max_value=8))
atom_sets = st.lists(
    st.integers(min_value=0, max_value=len(ATOMS) - 1), min_size=1, max_size=4
)


@given(
    earlier=st.lists(atom_sets, max_size=3),
    # Each later condition: extra atoms, on top of (mostly) some earlier
    # condition's — so the test says yes often enough to be checked.
    later=st.lists(
        st.tuples(st.one_of(st.none(), st.integers(0, 2)), atom_sets),
        min_size=1,
        max_size=3,
    ),
    pairs=st.lists(
        st.tuples(st.tuples(nullable, nullable), st.tuples(nullable, nullable)),
        max_size=30,
    ),
)
@settings(max_examples=200, deadline=None)
def test_conditions_entail_is_sound(earlier, later, pairs):
    """Whenever the test says yes, no (b, r) satisfies a later condition
    without satisfying some earlier one."""
    earlier_thetas = [
        and_all([ATOMS[index] for index in indices]) for indices in earlier
    ]
    later_thetas = []
    for builds_on, extra in later:
        indices = list(extra)
        if builds_on is not None and earlier:
            indices += earlier[builds_on % len(earlier)]
        later_thetas.append(and_all([ATOMS[index] for index in indices]))
    if not conditions_entail(later_thetas, earlier_thetas):
        return
    schemas = {BASE_VAR: BASE_SCHEMA, DETAIL_VAR: DETAIL_SCHEMA}
    params = (BASE_VAR, DETAIL_VAR)
    later_predicates = [compile_predicate(theta, schemas, params) for theta in later_thetas]
    earlier_predicates = [compile_predicate(theta, schemas, params) for theta in earlier_thetas]
    for base_row, detail_row in pairs:
        if any(predicate(base_row, detail_row) for predicate in later_predicates):
            assert any(predicate(base_row, detail_row) for predicate in earlier_predicates), (
                f"{later_thetas!r} does not entail {earlier_thetas!r} at "
                f"b={base_row} r={detail_row}"
            )
