"""The served row order, one row at a time: the reference for
:func:`repro.service.canonical_order`, which sorts row indices over
per-column ``repr`` keys instead."""

from repro.relalg.relation import Relation


def canonical_order_reference(relation: Relation, key_attrs) -> Relation:
    """Rows sorted by the tuple of their key attributes' ``repr``s."""
    positions = relation.schema.positions(list(key_attrs))
    return Relation(
        relation.schema,
        sorted(
            relation.rows,
            key=lambda row: tuple(repr(row[position]) for position in positions),
        ),
    )
