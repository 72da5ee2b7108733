"""Unit tests for optimizer condition analysis (Theorems 4/5, Prop 2, Cor 1).

The soundness contract of :func:`derive_ship_filter` — base rows failing
the filter can never contribute at the site — is additionally covered by
a hypothesis property test in test_property_analysis.py; here we check
the specific derivations the paper describes.
"""

from repro.gmdj.analysis import (
    conditions_entail,
    derive_ship_filter,
    entailed_partition_attribute,
    site_can_match,
    theta_entails_key,
)
from repro.relalg.expressions import BASE_VAR, Const, base, detail
from repro.relalg.predicates import is_trivially_false


def filter_admits(ship_filter, **base_row):
    predicate_input = {BASE_VAR: base_row}
    return bool(ship_filter.eval(predicate_input))


class TestDeriveShipFilter:
    def test_equality_atom_with_value_set(self):
        # Example 2 of the paper: site 1 handles SourceAS in a known set.
        phi = detail.SourceAS.is_in([1, 2, 3])
        theta = base.SourceAS == detail.SourceAS
        ship_filter = derive_ship_filter([theta], phi)
        assert ship_filter is not None
        assert filter_admits(ship_filter, SourceAS=2)
        assert not filter_admits(ship_filter, SourceAS=9)

    def test_equality_atom_with_range(self):
        phi = detail.SourceAS.between(1, 25)
        theta = base.SourceAS == detail.SourceAS
        ship_filter = derive_ship_filter([theta], phi)
        assert filter_admits(ship_filter, SourceAS=25)
        assert not filter_admits(ship_filter, SourceAS=26)

    def test_paper_linear_arithmetic_example(self):
        # Section 4.1: theta is B.DestAS + B.SourceAS < Flow.SourceAS * 2
        # with phi: SourceAS in [1, 25]; derived filter must be
        # DestAS + SourceAS < 50.
        phi = detail.SourceAS.between(1, 25)
        theta = base.DestAS + base.SourceAS < detail.SourceAS * 2
        ship_filter = derive_ship_filter([theta], phi)
        assert ship_filter is not None
        assert filter_admits(ship_filter, DestAS=24, SourceAS=25)  # 49 < 50
        assert not filter_admits(ship_filter, DestAS=25, SourceAS=25)  # 50

    def test_disjunction_across_conditions(self):
        phi = detail.SourceAS.is_in([1, 2])
        theta1 = base.SourceAS == detail.SourceAS
        theta2 = base.OtherAS == detail.SourceAS
        ship_filter = derive_ship_filter([theta1, theta2], phi)
        # Matching either condition suffices.
        assert filter_admits(ship_filter, SourceAS=1, OtherAS=99)
        assert filter_admits(ship_filter, SourceAS=99, OtherAS=2)
        assert not filter_admits(ship_filter, SourceAS=99, OtherAS=99)

    def test_unanalyzable_condition_gives_none(self):
        phi = detail.SourceAS.is_in([1])
        theta = base.X == detail.UnconstrainedAttr
        assert derive_ship_filter([theta], phi) is None

    def test_one_unanalyzable_theta_defeats_all(self):
        phi = detail.SourceAS.is_in([1])
        good = base.SourceAS == detail.SourceAS
        bad = base.X == detail.Unconstrained
        assert derive_ship_filter([good, bad], phi) is None

    def test_empty_phi_gives_none(self):
        theta = base.SourceAS == detail.SourceAS
        assert derive_ship_filter([theta], Const(True)) is None

    def test_base_only_conjunct_included(self):
        phi = detail.SourceAS.is_in([1, 2])
        theta = (base.SourceAS == detail.SourceAS) & (base.Flag > 10)
        ship_filter = derive_ship_filter([theta], phi)
        assert filter_admits(ship_filter, SourceAS=1, Flag=11)
        assert not filter_admits(ship_filter, SourceAS=1, Flag=5)

    def test_unsatisfiable_detail_conjunct_gives_false(self):
        phi = detail.SourceAS.between(1, 10)
        theta = (base.K == detail.K) & (detail.SourceAS > 100)
        ship_filter = derive_ship_filter([theta], phi)
        assert ship_filter is not None
        assert is_trivially_false(ship_filter) or not filter_admits(ship_filter, K=1)

    def test_inequality_relaxation_upper(self):
        phi = detail.V.between(0, 100)
        theta = base.Threshold <= detail.V
        ship_filter = derive_ship_filter([theta], phi)
        assert filter_admits(ship_filter, Threshold=100)
        assert not filter_admits(ship_filter, Threshold=101)

    def test_inequality_relaxation_lower(self):
        phi = detail.V.between(10, 100)
        theta = base.Cap > detail.V
        ship_filter = derive_ship_filter([theta], phi)
        assert filter_admits(ship_filter, Cap=11)
        assert not filter_admits(ship_filter, Cap=10)

    def test_not_equal_gives_no_restriction(self):
        phi = detail.V.between(0, 10)
        theta = base.A != detail.V
        assert derive_ship_filter([theta], phi) is None

    def test_detail_expression_interval(self):
        phi = detail.A.between(0, 10) & detail.B.between(0, 5)
        theta = base.X == detail.A + detail.B
        ship_filter = derive_ship_filter([theta], phi)
        assert filter_admits(ship_filter, X=15)
        assert not filter_admits(ship_filter, X=16)


class TestGeneratedAttributes:
    """A conjunct over an attribute the shipment's own GMDJs generate
    cannot be decided when the fragment is cut: it relaxes to TRUE."""

    PHI = detail.SourceAS.is_in([1, 2, 3])
    KEY = base.SourceAS == detail.SourceAS

    def test_base_only_conjunct_over_generated_attribute_is_dropped(self):
        theta = self.KEY & (base.c0 > 1)
        ship_filter = derive_ship_filter([theta], self.PHI, generated=["c0"])
        assert {field.name for field in ship_filter.fields()} == {"SourceAS"}
        assert filter_admits(ship_filter, SourceAS=2)
        assert not filter_admits(ship_filter, SourceAS=9)

    def test_mixed_conjunct_over_generated_attribute_is_dropped(self):
        phi = self.PHI & detail.NumBytes.between(0, 100)
        theta = self.KEY & (base.m <= detail.NumBytes)
        kept = derive_ship_filter([theta], phi)
        assert "m" in {field.name for field in kept.fields()}
        relaxed = derive_ship_filter([theta], phi, generated=["m"])
        assert {field.name for field in relaxed.fields()} == {"SourceAS"}

    def test_theta_with_nothing_else_to_restrict_ships_everything(self):
        assert derive_ship_filter([base.c0 > 1], self.PHI, generated=["c0"]) is None

    def test_without_generated_attributes_nothing_changes(self):
        theta = self.KEY & (base.c0 > 1)
        assert (
            derive_ship_filter([theta], self.PHI).key()
            == derive_ship_filter([theta], self.PHI, generated=[]).key()
        )


class TestConditionsEntail:
    KEY = base.SourceAS == detail.SourceAS
    OTHER = base.DestAS == detail.DestAS
    RESIDUAL = detail.NumBytes >= base.m

    def test_superset_of_conjuncts_entails(self):
        assert conditions_entail([self.KEY & self.RESIDUAL], [self.KEY])
        assert conditions_entail([self.KEY], [self.KEY])

    def test_conjunct_order_does_not_matter(self):
        earlier = [self.KEY & self.OTHER]
        assert conditions_entail([self.OTHER & self.RESIDUAL & self.KEY], earlier)
        assert conditions_entail([(self.RESIDUAL & self.OTHER) & self.KEY], earlier)

    def test_every_later_condition_needs_some_earlier_one(self):
        earlier = [self.KEY, self.OTHER]
        assert conditions_entail(
            [self.KEY & self.RESIDUAL, self.OTHER & self.RESIDUAL], earlier
        )
        assert not conditions_entail([self.KEY & self.RESIDUAL, self.RESIDUAL], earlier)

    def test_dropping_a_key_conjunct_does_not_entail(self):
        assert not conditions_entail([self.KEY & self.RESIDUAL], [self.KEY & self.OTHER])
        assert not conditions_entail([self.RESIDUAL], [self.KEY])

    def test_only_orientation_identical_atoms_match(self):
        mirrored = detail.SourceAS == base.SourceAS
        assert conditions_entail([mirrored & self.RESIDUAL], [mirrored])
        assert not conditions_entail([mirrored & self.RESIDUAL], [self.KEY])

    def test_no_earlier_condition_entails_nothing(self):
        assert not conditions_entail([self.KEY], [])
        assert not conditions_entail([], [])

    def test_disjunct_is_not_a_conjunct(self):
        # (K or residual) is weaker than K, although it contains it.
        assert not conditions_entail([self.KEY | self.RESIDUAL], [self.KEY])
        assert not conditions_entail([(self.KEY | self.OTHER) & self.RESIDUAL], [self.KEY])

    def test_different_constants_are_different_conjuncts(self):
        assert not conditions_entail(
            [self.KEY & (detail.NumBytes > 5)], [self.KEY & (detail.NumBytes > 4)]
        )


class TestKeyEntailment:
    def test_all_conditions_must_entail(self):
        theta1 = (base.a == detail.a) & (base.b == detail.b)
        theta2 = base.a == detail.a
        assert theta_entails_key([theta1], ["a", "b"])
        assert not theta_entails_key([theta1, theta2], ["a", "b"])
        assert theta_entails_key([theta1, theta2], ["a"])


class TestPartitionAttributeEntailment:
    def test_finds_common_attribute(self):
        theta1 = (base.nation == detail.nation) & (detail.v > 0)
        theta2 = (base.nation == detail.nation) & (base.c == detail.c)
        assert (
            entailed_partition_attribute([theta1, theta2], ["nation", "cust"])
            == "nation"
        )

    def test_none_when_missing(self):
        theta = base.cust == detail.cust
        assert entailed_partition_attribute([theta], ["nation"]) is None

    def test_prefers_first_listed(self):
        theta = (base.nation == detail.nation) & (base.cust == detail.cust)
        assert (
            entailed_partition_attribute([theta], ["cust", "nation"]) == "cust"
        )


class TestSiteCanMatch:
    def test_satisfiable(self):
        phi = detail.SourceAS.between(1, 10)
        theta = (base.K == detail.K) & (detail.SourceAS > 5)
        assert site_can_match([theta], phi)

    def test_unsatisfiable(self):
        phi = detail.SourceAS.between(1, 10)
        theta = (base.K == detail.K) & (detail.SourceAS > 50)
        assert not site_can_match([theta], phi)

    def test_one_satisfiable_theta_is_enough(self):
        phi = detail.SourceAS.between(1, 10)
        impossible = (base.K == detail.K) & (detail.SourceAS > 50)
        possible = base.K == detail.K
        assert site_can_match([impossible, possible], phi)

    def test_no_knowledge_means_maybe(self):
        assert site_can_match([base.K == detail.K], Const(True))
