"""Hand-written statements shared by the tuner and engine tests."""

#: A statement on a table the optimizer has no statistics for.
UNKNOWN_TABLE_SQL = "SELECT nosuch.a FROM tpch.nosuch WHERE nosuch.a = 1"

#: A 6-table TPC-H join with 13 local predicates over
#: ``build_catalog(scale=0.05)``: one benefit graph over every table
#: exceeds 4,096 nodes, the per-table graphs total 31.
SIX_TABLE_JOIN_SQL = (
    "SELECT l.l_orderkey FROM tpch.lineitem l, tpch.orders o, "
    "tpch.customer c, tpch.part p, tpch.supplier su, tpch.partsupp ps "
    "WHERE l.l_orderkey = o.o_orderkey AND o.o_custkey = c.c_custkey "
    "AND l.l_partkey = p.p_partkey AND l.l_suppkey = su.s_suppkey "
    "AND ps.ps_partkey = p.p_partkey AND l.l_quantity = 3 "
    "AND l.l_discount = 0.04 AND l.l_shipdate = 1000 "
    "AND l.l_linenumber = 2 AND o.o_orderdate = 500 "
    "AND o.o_totalprice = 1000.5 AND o.o_orderstatus = 1 "
    "AND c.c_acctbal = 10.5 AND c.c_mktsegment = 3 AND p.p_size = 5 "
    "AND p.p_retailprice = 900.5 AND su.s_acctbal = 100.5 "
    "AND ps.ps_availqty = 7"
)
