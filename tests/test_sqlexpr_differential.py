"""Differential fuzzing of the OGR-SQL compiler: randomly generated WHERE
expressions must evaluate identically via pyarrow compute (compile_node) and
via DuckDB over the same table — including SQL three-valued NULL logic.

Dialect bridges in the emitted DuckDB text: integer '/' and '%' become
'//' and '%' over DuckDB's integer ops (both truncating), everything else
is shared syntax.
"""

import duckdb
import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from gdal_ray.functions import sqlexpr

T = pa.table({
    "a": pa.array([0, 1, 2, 3, 4, 5, 6, 7, None, -3], pa.int64()),
    "b": pa.array([5, None, 2, 2, 9, -1, 0, 7, 3, 3], pa.int64()),
    "s": pa.array(["x", "yy", "Abc", "", None, "zz", "x", "qq", "Ab", "x"]),
})

_CON = duckdb.connect()
_CON.register("t", T)
# DuckDB 1.0's expression rewriter crashes with an internal error (and then
# invalidates the whole connection) on some generated trees, e.g. an OR of
# two identical ANDs of BETWEENs over `b % 1`.  The oracle evaluates the
# expression as written; it need not simplify it first.
_CON.execute("SET disabled_optimizers = 'expression_rewriter'")


# -- expression generator ----------------------------------------------------

_num_leaf = st.one_of(
    st.sampled_from(["a", "b"]),
    st.integers(min_value=-9, max_value=9).map(str),
)


def _num_expr(depth: int):
    if depth <= 0:
        return _num_leaf
    sub = _num_expr(depth - 1)
    return st.one_of(
        _num_leaf,
        st.tuples(sub, st.sampled_from(["+", "-", "*"]), sub).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"),
        # division/modulo by a non-zero literal only (x/0 errors both ways
        # but with different failure surfaces)
        st.tuples(sub, st.sampled_from(["/", "%"]),
                  st.integers(1, 7).map(str)).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"),
    )


def _bool_expr(depth: int):
    num = _num_expr(2)
    leaf = st.one_of(
        st.tuples(num, st.sampled_from(["=", "<>", "<", "<=", ">", ">="]),
                  num).map(lambda t: f"{t[0]} {t[1]} {t[2]}"),
        st.tuples(num, num, num).map(
            lambda t: f"{t[0]} BETWEEN {t[1]} AND {t[2]}"),
        st.tuples(num, st.lists(st.integers(-5, 9), min_size=1, max_size=4)).map(
            lambda t: f"{t[0]} IN ({', '.join(map(str, t[1]))})"),
        st.sampled_from(["a IS NULL", "b IS NOT NULL", "s IS NULL",
                         "s LIKE '%x%'", "s ILIKE 'a%'", "s = 'x'"]),
    )
    if depth <= 0:
        return leaf
    sub = _bool_expr(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(sub, st.sampled_from(["AND", "OR"]), sub).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"),
        sub.map(lambda e: f"NOT ({e})"),
    )


def _to_duckdb(sql: str) -> str:
    # arrow '/' on int64 truncates; DuckDB's integer '//' matches
    return sql.replace("/", "//").replace("%//", "%").replace("////", "//")


@settings(max_examples=300, deadline=None)
@given(_bool_expr(3))
def test_where_matches_duckdb(sql):
    node = sqlexpr.parse_where(sql)
    ours = sqlexpr.compile_node(node, lambda n: T[n])
    if isinstance(ours, pa.Scalar):
        ours_list = [ours.as_py()] * T.num_rows
    else:
        ours_list = ours.to_pylist()
    theirs = _CON.execute(
        f"SELECT {_to_duckdb(sql)} FROM t").fetchall()
    theirs_list = [r[0] for r in theirs]
    assert ours_list == theirs_list, f"divergence for {sql!r}"


@settings(max_examples=150, deadline=None)
@given(_num_expr(3))
def test_numeric_matches_duckdb(sql):
    node = sqlexpr.parse_where(sql)
    ours = sqlexpr.compile_node(node, lambda n: T[n])
    if isinstance(ours, pa.Scalar):
        ours_list = [ours.as_py()] * T.num_rows
    else:
        ours_list = ours.to_pylist()
    theirs = [r[0] for r in _CON.execute(
        f"SELECT {_to_duckdb(sql)} FROM t").fetchall()]
    assert ours_list == theirs, f"divergence for {sql!r}"


_STR_FUNCS = ["upper(s)", "lower(s)", "length(s)", "trim(s)",
              "concat(s, 'Z')", "concat(s, s)", "coalesce(s, 'd')",
              "substr(s, 1, 2)", "substr(s, 2)"]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(_STR_FUNCS),
       st.lists(st.one_of(st.none(), st.text(max_size=12)),
                min_size=1, max_size=8))
def test_string_functions_match_duckdb(fn_sql, vals):
    tbl = pa.table({"s": pa.array(vals, pa.string())})
    con = duckdb.connect()
    con.register("t2", tbl)
    node = sqlexpr.parse_where(fn_sql)
    ours = sqlexpr.compile_node(node, lambda n: tbl[n]).to_pylist()
    theirs = [r[0] for r in con.execute(f"SELECT {fn_sql} FROM t2").fetchall()]
    assert ours == theirs, f"divergence for {fn_sql!r} on {vals!r}"
