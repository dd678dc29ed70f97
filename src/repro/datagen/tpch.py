"""A from-scratch TPC-H dataset generator (dbgen-shaped, laptop-scaled).

The paper's preliminary evaluation uses TPC-H (SF=128K, 128 TB on 128
nodes).  We reproduce the *shape* of that evaluation at laptop scale: this
generator emits all eight tables with the spec's cardinality ratios —

=========  =======================  ==========================
table      rows at scale factor SF  partition / primary key
=========  =======================  ==========================
region     5                        r_regionkey
nation     25                       n_nationkey
supplier   10,000 x SF              s_suppkey
customer   150,000 x SF             c_custkey
part       200,000 x SF             p_partkey
partsupp   4 per part               (p_partkey, s_suppkey)
orders     1,500,000 x SF           o_orderkey
lineitem   1-7 per order (~4 avg)   (l_orderkey, l_linenumber)
=========  =======================  ==========================

— uniform foreign keys, uniform ``o_orderdate`` over the spec's 1992-01-01
.. 1998-08-02 window, and spec-style derived columns (retail prices,
extended prices).  Everything is seeded and deterministic.

Because ``o_orderdate`` is uniform, predicate selectivity over a date range
is an analytic function of the window length; :meth:`TpchGenerator.
date_range_for_selectivity` inverts it, which is how the Figure 7 benchmark
sweeps selectivities.
"""

from __future__ import annotations

import math
from typing import Iterator

from repro.core.records import Record, fixed_row_size
from repro.datagen.rng import add_days, date_range_days, iso_days, \
    make_below, make_rng, random_phrase
from repro.errors import DataGenerationError

__all__ = ["TpchGenerator", "TABLE_NAMES", "REGION_NAMES", "NATIONS"]

TABLE_NAMES = ("region", "nation", "supplier", "customer", "part",
               "partsupp", "orders", "lineitem")

REGION_NAMES = ("AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST")

#: (name, region key) for the spec's 25 nations.
NATIONS = (
    ("ALGERIA", 0), ("ARGENTINA", 1), ("BRAZIL", 1), ("CANADA", 1),
    ("EGYPT", 4), ("ETHIOPIA", 0), ("FRANCE", 3), ("GERMANY", 3),
    ("INDIA", 2), ("INDONESIA", 2), ("IRAN", 4), ("IRAQ", 4),
    ("JAPAN", 2), ("JORDAN", 4), ("KENYA", 0), ("MOROCCO", 0),
    ("MOZAMBIQUE", 0), ("PERU", 1), ("CHINA", 2), ("ROMANIA", 3),
    ("SAUDI ARABIA", 4), ("VIETNAM", 2), ("RUSSIA", 3),
    ("UNITED KINGDOM", 3), ("UNITED STATES", 1),
)

START_DATE = "1992-01-01"
END_DATE = "1998-08-02"
ORDER_STATUSES = ("O", "F", "P")
SHIP_MODES = ("REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB")
SEGMENTS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY",
            "HOUSEHOLD")
#: account balances are uniform over [ACCTBAL_LOW, ACCTBAL_LOW + SPAN]
ACCTBAL_LOW = -999.99
ACCTBAL_SPAN = 9999.99 - ACCTBAL_LOW
#: a line ships 1 to MAX_SHIP_DELAY days after its order date
MAX_SHIP_DELAY = 121


class TpchGenerator:
    """Generates a scaled TPC-H dataset of :class:`Record` rows."""

    def __init__(self, scale_factor: float = 0.01, seed: int = 0) -> None:
        if scale_factor <= 0:
            raise DataGenerationError(
                f"scale factor must be positive, got {scale_factor}")
        self.scale_factor = scale_factor
        self.seed = seed
        self.num_suppliers = max(1, round(10_000 * scale_factor))
        self.num_customers = max(1, round(150_000 * scale_factor))
        self.num_parts = max(1, round(200_000 * scale_factor))
        self.num_orders = max(1, round(1_500_000 * scale_factor))
        self._date_span = date_range_days(START_DATE, END_DATE)

    # -- small tables ----------------------------------------------------

    def region(self) -> list[Record]:
        return [Record({"r_regionkey": key, "r_name": name,
                        "r_comment": f"region of {name.lower()}"})
                for key, name in enumerate(REGION_NAMES)]

    def nation(self) -> list[Record]:
        return [Record({"n_nationkey": key, "n_name": name,
                        "n_regionkey": region,
                        "n_comment": f"nation of {name.lower()}"})
                for key, (name, region) in enumerate(NATIONS)]

    # -- dimension tables --------------------------------------------------
    #
    # Every draw goes through ``make_below`` (see its docstring): the
    # stdlib's ``randrange(a, b)`` is ``a + below(b - a)``, ``choice(s)``
    # is ``s[below(len(s))]`` and ``uniform(a, b)`` is
    # ``a + (b - a) * random()``, so the streams are the ones those
    # calls drew, value for value.

    def supplier(self) -> list[Record]:
        rng = make_rng(self.seed, "supplier")
        below, random = make_below(rng), rng.random
        rows = []
        for key in range(1, self.num_suppliers + 1):
            rows.append(Record({
                "s_suppkey": key,
                "s_name": f"Supplier#{key:09d}",
                "s_nationkey": below(len(NATIONS)),
                "s_acctbal": round(ACCTBAL_LOW + ACCTBAL_SPAN * random(), 2),
                "s_comment": random_phrase(rng, 4),
            }))
        return rows

    def customer(self) -> list[Record]:
        rng = make_rng(self.seed, "customer")
        below, random = make_below(rng), rng.random
        rows = []
        for key in range(1, self.num_customers + 1):
            rows.append(Record({
                "c_custkey": key,
                "c_name": f"Customer#{key:09d}",
                "c_nationkey": below(len(NATIONS)),
                "c_acctbal": round(ACCTBAL_LOW + ACCTBAL_SPAN * random(), 2),
                "c_mktsegment": SEGMENTS[below(len(SEGMENTS))],
                "c_comment": random_phrase(rng, 4),
            }))
        return rows

    def part(self) -> list[Record]:
        rng = make_rng(self.seed, "part")
        below = make_below(rng)
        rows = []
        for key in range(1, self.num_parts + 1):
            # Spec formula: (90000 + ((P/10) mod 20001) + 100*(P mod 1000))
            # / 100 — prices in [900, 2098.99].
            price = (90_000 + (key // 10) % 20_001 + 100 * (key % 1000)) / 100
            rows.append(Record({
                "p_partkey": key,
                "p_name": random_phrase(rng, 5),
                "p_brand": f"Brand#{1 + below(5)}{1 + below(5)}",
                "p_type": random_phrase(rng, 3).upper(),
                "p_size": 1 + below(50),
                "p_retailprice": round(price, 2),
                "p_comment": random_phrase(rng, 2),
            }))
        return rows

    def partsupp(self) -> list[Record]:
        rng = make_rng(self.seed, "partsupp")
        below, random = make_below(rng), rng.random
        rows = []
        for partkey in range(1, self.num_parts + 1):
            for offset in range(4):
                suppkey = 1 + (partkey + offset *
                               (self.num_suppliers // 4 + 1)
                               ) % self.num_suppliers
                rows.append(Record({
                    "ps_partkey": partkey,
                    "ps_suppkey": suppkey,
                    "ps_availqty": 1 + below(9_999),
                    # uniform(1.0, 1000.0)
                    "ps_supplycost": round(1.0 + 999.0 * random(), 2),
                }))
        return rows

    # -- fact tables -------------------------------------------------------

    def orders(self) -> list[Record]:
        rows = []
        for order, __ in self._orders_with_lines():
            rows.append(order)
        return rows

    def lineitem(self) -> list[Record]:
        rows = []
        for __, lines in self._orders_with_lines():
            rows.extend(lines)
        return rows

    def orders_and_lineitems(self) -> tuple[list[Record], list[Record]]:
        """Both fact tables in one pass (they share generation state)."""
        orders, lineitems = [], []
        for order, lines in self._orders_with_lines():
            orders.append(order)
            lineitems.extend(lines)
        return orders, lineitems

    def _orders_with_lines(self) -> Iterator[tuple[Record, list[Record]]]:
        rng = make_rng(self.seed, "orders")
        below, random = make_below(rng), rng.random
        num_customers = self.num_customers
        num_parts = self.num_parts
        num_suppliers = self.num_suppliers
        # Day d of the window is days[d]: order dates index it by their
        # offset, ship dates by that offset plus the ship delay, so the
        # rows share one string per calendar day.
        num_days = self._date_span + 1
        days = iso_days(START_DATE, num_days + MAX_SHIP_DELAY)
        # Every row of a fact table has one flat shape, so each is sized
        # as its table's fixed part (from its first row) plus its text
        # lengths, not field by field.
        line_fixed = order_fixed = -1
        for key in range(1, self.num_orders + 1):
            custkey = 1 + below(num_customers)
            order_day = below(num_days)
            num_lines = 1 + below(7)
            lines = []
            total = 0.0
            for linenumber in range(1, num_lines + 1):
                partkey = 1 + below(num_parts)
                suppkey = 1 + below(num_suppliers)
                quantity = 1 + below(50)
                extended = round(quantity * (900 + partkey % 1000) / 10, 2)
                total += extended
                # uniform(0.0, 0.10) and uniform(0.0, 0.08)
                discount = round(0.10 * random(), 2)
                tax = round(0.08 * random(), 2)
                shipdate = days[order_day + 1 + below(MAX_SHIP_DELAY)]
                shipmode = SHIP_MODES[below(len(SHIP_MODES))]
                line = {
                    "l_orderkey": key,
                    "l_linenumber": linenumber,
                    "l_partkey": partkey,
                    "l_suppkey": suppkey,
                    "l_quantity": quantity,
                    "l_extendedprice": extended,
                    "l_discount": discount,
                    "l_tax": tax,
                    "l_shipdate": shipdate,
                    "l_shipmode": shipmode,
                }
                if line_fixed < 0:
                    line_fixed = fixed_row_size(line)
                lines.append(Record(
                    line, line_fixed + len(shipdate) + len(shipmode)))
            status = ORDER_STATUSES[below(len(ORDER_STATUSES))]
            orderdate = days[order_day]
            priority = f"{1 + below(5)}-PRIORITY"
            order = {
                "o_orderkey": key,
                "o_custkey": custkey,
                "o_orderstatus": status,
                "o_totalprice": round(total, 2),
                "o_orderdate": orderdate,
                "o_orderpriority": priority,
                "o_shippriority": 0,
            }
            if order_fixed < 0:
                order_fixed = fixed_row_size(order)
            yield Record(order, order_fixed + len(status) + len(orderdate)
                         + len(priority)), lines

    # -- whole dataset -----------------------------------------------------

    def generate_all(self) -> dict[str, list[Record]]:
        """Every table, keyed by name."""
        orders, lineitems = self.orders_and_lineitems()
        return {
            "region": self.region(),
            "nation": self.nation(),
            "supplier": self.supplier(),
            "customer": self.customer(),
            "part": self.part(),
            "partsupp": self.partsupp(),
            "orders": orders,
            "lineitem": lineitems,
        }

    # -- selectivity helpers ------------------------------------------------

    def date_range_for_selectivity(self, selectivity: float,
                                   start: str = START_DATE
                                   ) -> tuple[str, str]:
        """A date window whose uniform-date selectivity is ~``selectivity``.

        Selectivity here is the fraction of *orders* whose ``o_orderdate``
        falls inside the (inclusive) window.
        """
        if not 0 < selectivity <= 1:
            raise DataGenerationError(
                f"selectivity must be in (0, 1], got {selectivity}")
        total_days = self._date_span + 1
        window_days = max(1, math.ceil(selectivity * total_days))
        offset = date_range_days(START_DATE, start)
        end_offset = min(offset + window_days - 1, self._date_span)
        return add_days(START_DATE, offset), add_days(START_DATE, end_offset)

    def selectivity_of_range(self, low: str, high: str) -> float:
        """Exact uniform selectivity of an inclusive date window."""
        days = date_range_days(low, high) + 1
        return min(1.0, max(0.0, days / (self._date_span + 1)))
