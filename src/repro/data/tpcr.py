"""TPC-R-style synthetic data generator.

The paper's evaluation (Section 5.1) derives "a denormalized 900 Mbyte
data set with 6 million tuples (named TPCR)" from the TPC(R) ``dbgen``
program, partitioned on NationKey (and therefore also on CustKey), with:

- a high-cardinality grouping attribute: ``Customer.Name`` — unique per
  customer (100,000 values in the paper);
- low-cardinality grouping attributes with 2,000–4,000 unique values
  (supplier- and part-like keys at the paper's scale).

This generator reproduces those *cardinality and partitioning
properties* at laptop scale. ``scale = 1.0`` matches the paper's row
counts; the benchmarks default to much smaller scales, which preserves
every shape result (the experiments vary sites and relative data size,
never absolute size).

The output is a single denormalized fact relation named ``TPCR``:

========== ===== ====================================================
attribute  type  notes
========== ===== ====================================================
OrderKey   int   order identifier
LineNumber int   1..7 within an order
CustKey    int   customer; functionally determines NationKey
CustName   str   ``Customer#%09d`` — unique per customer (high card.)
NationKey  int   0..24 — the partition attribute
RegionKey  int   0..4 (NationKey // 5)
SuppKey    int   low-cardinality key (default 2,000 values)
PartKey    int   low-cardinality key (default 4,000 values)
OrderYear  int   1992..1998
OrderMonth int   1..12
Quantity   float 1..50
Price      float extended price
Discount   float 0..0.10
Returned   bool  ~5% true
========== ===== ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import WarehouseError
from repro.relalg.relation import Relation
from repro.relalg.schema import BOOL, FLOAT, INT, STR, Schema
from repro.warehouse.partition import ValueListPartitioner

NATION_COUNT = 25
REGION_COUNT = 5

TPCR_SCHEMA = Schema.of(
    ("OrderKey", INT),
    ("LineNumber", INT),
    ("CustKey", INT),
    ("CustName", STR),
    ("NationKey", INT),
    ("RegionKey", INT),
    ("SuppKey", INT),
    ("PartKey", INT),
    ("OrderYear", INT),
    ("OrderMonth", INT),
    ("Quantity", FLOAT),
    ("Price", FLOAT),
    ("Discount", FLOAT),
    ("Returned", BOOL),
)


@dataclass(frozen=True)
class TPCRConfig:
    """Row counts and cardinalities; defaults follow TPC ratios.

    ``scale = 1.0`` reproduces the paper's 6M-tuple data set.
    """

    scale: float = 0.001
    seed: int = 7
    lineitems_per_scale: int = 6_000_000
    customers_per_scale: int = 100_000  # the paper's Customer.Name count
    suppliers: int = 2_000  # paper's low-cardinality band: 2000-4000
    parts: int = 4_000
    #: When set, the customer count no longer grows with ``scale`` — the
    #: paper's "number of groups remains constant with an increasing
    #: database size" scale-up variant (Section 5.3).
    fixed_customers: int = 0

    @property
    def lineitem_count(self) -> int:
        return max(1, int(self.lineitems_per_scale * self.scale))

    @property
    def customer_count(self) -> int:
        if self.fixed_customers:
            return self.fixed_customers
        return max(1, int(self.customers_per_scale * self.scale))


def generate_tpcr(config: TPCRConfig = TPCRConfig()) -> Relation:
    """Generate the denormalized TPCR fact relation, deterministically."""
    if config.scale <= 0:
        raise WarehouseError(f"scale must be positive, got {config.scale}")
    rng = np.random.default_rng(config.seed)
    count = config.lineitem_count
    customers = config.customer_count

    # Customers are dealt to nations round-robin, mirroring dbgen's
    # uniform nation assignment; CustKey therefore determines NationKey.
    cust_keys = rng.integers(0, customers, size=count)
    nation_keys = cust_keys % NATION_COUNT
    region_keys = nation_keys // (NATION_COUNT // REGION_COUNT)

    orders_per_customer = 10
    order_keys = cust_keys * orders_per_customer + rng.integers(
        0, orders_per_customer, size=count
    )
    line_numbers = rng.integers(1, 8, size=count)
    supp_keys = rng.integers(0, config.suppliers, size=count)
    part_keys = rng.integers(0, config.parts, size=count)
    order_years = rng.integers(1992, 1999, size=count)
    order_months = rng.integers(1, 13, size=count)
    quantities = rng.integers(1, 51, size=count).astype(float)
    unit_price = 900.0 + 100.0 * (part_keys % 200)
    prices = np.round(quantities * unit_price / 10.0, 2)
    discounts = np.round(rng.integers(0, 11, size=count) / 100.0, 2)
    returned = rng.random(size=count) < 0.05

    rows = []
    for index in range(count):
        cust_key = int(cust_keys[index])
        rows.append(
            (
                int(order_keys[index]),
                int(line_numbers[index]),
                cust_key,
                f"Customer#{cust_key:09d}",
                int(nation_keys[index]),
                int(region_keys[index]),
                int(supp_keys[index]),
                int(part_keys[index]),
                int(order_years[index]),
                int(order_months[index]),
                float(quantities[index]),
                float(prices[index]),
                float(discounts[index]),
                bool(returned[index]),
            )
        )
    return Relation(TPCR_SCHEMA, rows)


def nation_partitioner(site_count: int) -> ValueListPartitioner:
    """The paper's partitioning: NationKey values dealt across sites."""
    return ValueListPartitioner.spread("NationKey", range(NATION_COUNT), site_count)


def register_tpcr_fds(catalog) -> None:
    """Register the FDs making CustKey and CustName partition attributes.

    NationKey is the physical partition attribute; CustKey determines
    NationKey (Section 5.1: "partitioned ... on the NationKey attribute,
    and therefore also on the CustKey attribute") and CustName is unique
    per customer, so it determines NationKey as well — which is what lets
    the paper group on Customer.Name and still apply Corollary 1.
    """
    catalog.add_functional_dependency("CustKey", "NationKey")
    catalog.add_functional_dependency("CustName", "NationKey")
