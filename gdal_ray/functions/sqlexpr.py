"""OGR-SQL string front end: WHERE / SELECT parsing to Arrow expressions.

Re-answers the reference's SQL text surface for vector pipelines —
``ogr/swq_parser.y`` (the swq expression grammar), ``ogr/swq.cpp:998``
(swq_expr_compile), ``ogr/ogrfeaturequery.cpp`` (SetAttributeFilter) — as a
recursive-descent parser that compiles to pyarrow compute Expressions.  One
compiled tree serves both roles:

- scan pushdown: the WHERE tree over ``pyarrow.dataset.field`` refs is a
  ``pads.Expression`` accepted by ``read_parquet(filter=...)`` (row-group
  pruning at the read);
- residual / projection: the same tree evaluated per batch (kernels accept
  Arrays and Expressions alike; ``Table.filter`` accepts an Expression).

Dialect notes (documented deviations from OGR, chosen so DuckDB oracles
mirror directly): LIKE is case-SENSITIVE (SQL standard / DuckDB; OGR's is
case-insensitive — use ILIKE for that), ``/`` on integers is truncating
division (Arrow semantics; mirror with ``//`` in DuckDB), ``%`` is the
truncated modulo.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.compute as pc

_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
      | '(?P<str>(?:[^']|'')*)'
      | "(?P<qid>(?:[^"]|"")*)"
      | (?P<id>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op><>|!=|<=|>=|<|>|=|\(|\)|,|\+|-|\*|/|%|\.)
    )""",
    re.VERBOSE,
)

_KEYWORDS = {
    "AND", "OR", "NOT", "IN", "BETWEEN", "LIKE", "ILIKE", "IS", "NULL",
    "SELECT", "FROM", "WHERE", "ORDER", "BY", "ASC", "DESC", "LIMIT", "AS",
    "CAST", "DISTINCT", "TRUE", "FALSE", "GROUP", "HAVING",
    "JOIN", "LEFT", "INNER", "OUTER", "ON", "UNION", "ALL", "OFFSET",
}


def tokenize(sql: str) -> list[tuple[str, object]]:
    """[(kind, value)] with kind in num/str/ident/kw/op."""
    out = []
    pos = 0
    while pos < len(sql):
        m = _TOKEN_RE.match(sql, pos)
        if m is None:
            if sql[pos:].strip() == "":
                break
            raise ValueError(f"bad SQL token at: {sql[pos:pos + 20]!r}")
        pos = m.end()
        if m.lastgroup == "num":
            txt = m.group("num")
            out.append(("num", float(txt) if ("." in txt or "e" in txt.lower()) else int(txt)))
        elif m.lastgroup == "str":
            out.append(("str", m.group("str").replace("''", "'")))
        elif m.lastgroup == "qid":
            out.append(("ident", m.group("qid").replace('""', '"')))
        elif m.lastgroup == "id":
            word = m.group("id")
            if word.upper() in _KEYWORDS:
                out.append(("kw", word.upper()))
            else:
                out.append(("ident", word))
        else:
            out.append(("op", m.group("op")))
    return out


# -- AST --------------------------------------------------------------------


@dataclass
class Col:
    name: str
    table: str | None = None  # optional "table." qualifier (JOIN disambiguation)


@dataclass
class Lit:
    value: object


@dataclass
class Op:
    op: str
    args: list


@dataclass
class Func:
    name: str
    args: list


@dataclass
class Cast:
    expr: object
    type: str


class _Parser:
    def __init__(self, tokens):
        self.toks = tokens
        self.i = 0

    def peek(self, kind=None, value=None):
        if self.i >= len(self.toks):
            return None
        k, v = self.toks[self.i]
        if kind is not None and k != kind:
            return None
        if value is not None and v != value:
            return None
        return v

    def take(self, kind=None, value=None):
        v = self.peek(kind, value)
        if v is None:
            got = self.toks[self.i] if self.i < len(self.toks) else "<end>"
            raise ValueError(f"expected {value or kind}, got {got}")
        self.i += 1
        return v

    def at_end(self):
        return self.i >= len(self.toks)

    # precedence: OR < AND < NOT < predicate < add < mul < unary < primary
    def expr(self):
        node = self.and_expr()
        while self.peek("kw", "OR") is not None:
            self.take()
            node = Op("or", [node, self.and_expr()])
        return node

    def and_expr(self):
        node = self.not_expr()
        while self.peek("kw", "AND") is not None:
            self.take()
            node = Op("and", [node, self.not_expr()])
        return node

    def not_expr(self):
        if self.peek("kw", "NOT") is not None:
            self.take()
            return Op("not", [self.not_expr()])
        return self.predicate()

    def predicate(self):
        node = self.additive()
        negate = False
        if self.peek("kw", "NOT") is not None:
            self.take()
            negate = True
        if self.peek("kw", "BETWEEN") is not None:
            self.take()
            lo = self.additive()
            self.take("kw", "AND")
            hi = self.additive()
            node = Op("and", [Op(">=", [node, lo]), Op("<=", [node, hi])])
        elif self.peek("kw", "IN") is not None:
            self.take()
            self.take("op", "(")
            vals = [self.additive()]
            while self.peek("op", ",") is not None:
                self.take()
                vals.append(self.additive())
            self.take("op", ")")
            node = Op("in", [node] + vals)
        elif self.peek("kw", "LIKE") is not None:
            self.take()
            node = Op("like", [node, self.additive()])
        elif self.peek("kw", "ILIKE") is not None:
            self.take()
            node = Op("ilike", [node, self.additive()])
        elif self.peek("kw", "IS") is not None:
            if negate:
                raise ValueError("NOT IS is not valid SQL")
            self.take()
            isnot = self.peek("kw", "NOT") is not None
            if isnot:
                self.take()
            self.take("kw", "NULL")
            node = Op("notnull" if isnot else "isnull", [node])
        else:
            if negate:
                raise ValueError("dangling NOT before non-predicate")
            for sym in ("<>", "!=", "<=", ">=", "<", ">", "="):
                if self.peek("op", sym) is not None:
                    self.take()
                    node = Op(sym, [node, self.additive()])
                    return node
            return node
        if negate:
            node = Op("not", [node])
        return node

    def additive(self):
        node = self.mult()
        while True:
            if self.peek("op", "+") is not None:
                self.take()
                node = Op("+", [node, self.mult()])
            elif self.peek("op", "-") is not None:
                self.take()
                node = Op("-", [node, self.mult()])
            else:
                return node

    def mult(self):
        node = self.unary()
        while True:
            for sym in ("*", "/", "%"):
                if self.peek("op", sym) is not None:
                    self.take()
                    node = Op(sym, [node, self.unary()])
                    break
            else:
                return node

    def unary(self):
        if self.peek("op", "-") is not None:
            self.take()
            operand = self.unary()
            if isinstance(operand, Lit) and isinstance(operand.value, (int, float)):
                return Lit(-operand.value)  # fold: negative literals stay Lit
            return Op("neg", [operand])
        return self.primary()

    def primary(self):
        if self.peek("num") is not None:
            return Lit(self.take("num"))
        if self.peek("str") is not None:
            return Lit(self.take("str"))
        if self.peek("kw", "NULL") is not None:
            self.take()
            return Lit(None)
        if self.peek("kw", "TRUE") is not None:
            self.take()
            return Lit(True)
        if self.peek("kw", "FALSE") is not None:
            self.take()
            return Lit(False)
        if self.peek("kw", "CAST") is not None:
            self.take()
            self.take("op", "(")
            e = self.expr()
            self.take("kw", "AS")
            ty = self.take("ident")
            self.take("op", ")")
            return Cast(e, ty.upper())
        if self.peek("op", "(") is not None:
            self.take()
            e = self.expr()
            self.take("op", ")")
            return e
        name = self.take("ident")
        if self.peek("op", ".") is not None:
            self.take()
            return Col(self.take("ident"), table=name)
        if self.peek("op", "(") is not None:
            self.take()
            args = []
            if name.lower() == "count" and self.peek("op", "*") is not None:
                self.take()
                self.take("op", ")")
                return Func("count", [Lit("*")])
            if name.lower() == "count" and self.peek("kw", "DISTINCT") is not None:
                # COUNT(DISTINCT x) — the one aggregate the reference grammar
                # special-cases (ogr/swq_parser.y:1009-1034)
                self.take()
                e = self.expr()
                self.take("op", ")")
                return Func("count_distinct", [e])
            if self.peek("op", ")") is None:
                args.append(self.expr())
                while self.peek("op", ",") is not None:
                    self.take()
                    args.append(self.expr())
            self.take("op", ")")
            return Func(name.lower(), args)
        return Col(name)


def parse_where(sql: str):
    """Parse a bare WHERE-clause expression string to an AST."""
    p = _Parser(tokenize(sql))
    node = p.expr()
    if not p.at_end():
        raise ValueError(f"trailing tokens: {p.toks[p.i:]}")
    return node


# -- compiler ---------------------------------------------------------------

_CAST_TYPES = {
    "BIGINT": pa.int64(), "INTEGER": pa.int32(), "INT": pa.int32(),
    "DOUBLE": pa.float64(), "FLOAT": pa.float64(), "REAL": pa.float64(),
    "VARCHAR": pa.string(), "TEXT": pa.string(), "STRING": pa.string(),
    "BOOLEAN": pa.bool_(),
}

_SPACE_SEPARATORS = (" \xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006"
                     "\u2007\u2008\u2009\u200a\u202f\u205f\u3000")

_FUNCS = {
    "upper": lambda a: pc.utf8_upper(a),
    "lower": lambda a: pc.utf8_lower(a),
    "length": lambda a: pc.utf8_length(a),
    # DuckDB trim(s) strips the Unicode space separators (category Zs: 0x20,
    # NBSP, U+2000-200A, ...), not \t\r\n — match the oracle dialect
    # (utf8_trim_whitespace would strip \t\r\n too).
    "trim": lambda a: pc.utf8_trim(a, characters=_SPACE_SEPARATORS),
    "ltrim": lambda a: pc.utf8_ltrim(a, characters=_SPACE_SEPARATORS),
    "rtrim": lambda a: pc.utf8_rtrim(a, characters=_SPACE_SEPARATORS),
    "abs": lambda a: pc.abs(a),
    "floor": lambda a: pc.floor(a),
    "ceil": lambda a: pc.ceil(a),
    "sqrt": lambda a: pc.sqrt(a),
    "round": lambda a: pc.round(a, round_mode="half_towards_infinity"),
    "coalesce": lambda *a: pc.coalesce(*a),
    # DuckDB/MySQL concat() SKIPS null arguments (unlike standard || which
    # propagates) — match the oracle dialect.  Each argument is coalesced
    # to '' first: Arrow 16's null_handling='skip' drops whole ROWS with
    # nulls rather than skipping the null value (observed), so it is not
    # usable here.
    "concat": lambda *a: pc.binary_join_element_wise(
        *[pc.coalesce(x, "") for x in a], ""),
    "substr": lambda a, start, n=None: _substr(a, start, n),
}

# SQL-callable geometry functions (ogrsqlitesqlfunctions.cpp surface):
# registered lazily so plain scalar SQL does not import the geometry stack
def _register_geom_funcs():
    from . import geomsql

    _FUNCS.update(geomsql.SQL_GEOM_FUNCS)


_register_geom_funcs()


def _substr(a, start, n=None):
    """SQL 1-based substr; start/n must be literals (pre-extracted ints)."""
    s = int(_literal_of(start)) - 1
    if n is None:
        return pc.utf8_slice_codeunits(a, s)
    return pc.utf8_slice_codeunits(a, s, s + int(_literal_of(n)))


def _literal_of(v):
    if isinstance(v, pa.Scalar):
        return v.as_py()
    return v


def compile_node(node, resolver):
    """AST -> value via ``resolver(column_name)``.

    resolver returns ``pyarrow.dataset.field(name)`` for a scan filter /
    lazy expression, or ``table[name]`` for eager per-batch evaluation —
    every kernel below accepts both (Expression in, Expression out)."""
    if isinstance(node, Col):
        return resolver(node.name)
    if isinstance(node, Lit):
        return pa.scalar(node.value)
    if isinstance(node, Cast):
        v = compile_node(node.expr, resolver)
        ty = _CAST_TYPES[node.type]
        if pa.types.is_integer(ty):
            # SQL CAST(x AS int): DuckDB rounds floats (half away from zero)
            # and parses numeric strings (incl. ' 42 ', '3.7').  Arrow's
            # pc.round has no string/bool kernel, so only round when the
            # source really is floating; strings go through a trimmed direct
            # parse with a float64 fallback for decimal literals.
            vt = getattr(v, "type", None)
            if vt is None:
                # lazy dataset Expression — no type info; assume numeric
                # (scan filters cast numeric columns; string casts use the
                # eager per-batch path)
                v = pc.round(v, round_mode="half_towards_infinity")
            elif pa.types.is_floating(vt):
                v = pc.round(v, round_mode="half_towards_infinity")
            elif pa.types.is_string(vt) or pa.types.is_large_string(vt):
                s = pc.utf8_trim_whitespace(v)
                try:
                    return pc.cast(s, ty)
                except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
                    f = pc.cast(s, pa.float64())
                    return pc.cast(
                        pc.round(f, round_mode="half_towards_infinity"), ty)
        return pc.cast(v, ty)
    if isinstance(node, Func):
        if node.name not in _FUNCS:
            raise ValueError(f"unknown SQL function {node.name!r}; "
                             f"known: {sorted(_FUNCS)}")
        if node.name == "substr":
            a = compile_node(node.args[0], resolver)
            rest = [compile_node(x, resolver) for x in node.args[1:]]
            return _FUNCS["substr"](a, *rest)
        return _FUNCS[node.name](*[compile_node(a, resolver) for a in node.args])
    assert isinstance(node, Op)
    if node.op == "and":
        return pc.and_kleene(*[compile_node(a, resolver) for a in node.args])
    if node.op == "or":
        return pc.or_kleene(*[compile_node(a, resolver) for a in node.args])
    if node.op == "not":
        return pc.invert(compile_node(node.args[0], resolver))
    if node.op == "in":
        target = compile_node(node.args[0], resolver)
        if not all(isinstance(a, Lit) for a in node.args[1:]):
            raise ValueError("IN list must be literals")
        vals = [a.value for a in node.args[1:]]
        # SQL three-valued IN: NULL IN (...) is NULL, and a miss against a
        # list containing NULL is NULL.  Arrow's is_in emits false for null
        # inputs (pyarrow 16 has no null_matching_behavior yet), so build
        # the SQL semantics from primitives.
        non_null = [v for v in vals if v is not None]
        base = pc.is_in(target, value_set=pa.array(non_null))
        if any(v is None for v in vals):
            base = pc.if_else(base, pa.scalar(True), pa.scalar(None, pa.bool_()))
        return pc.if_else(pc.is_valid(target), base,
                          pa.scalar(None, pa.bool_()))
    if node.op in ("like", "ilike"):
        pat = node.args[1]
        if not isinstance(pat, Lit):
            raise ValueError("LIKE pattern must be a string literal")
        return pc.match_like(compile_node(node.args[0], resolver),
                             pat.value, ignore_case=(node.op == "ilike"))
    if node.op == "isnull":
        return pc.is_null(compile_node(node.args[0], resolver))
    if node.op == "notnull":
        return pc.is_valid(compile_node(node.args[0], resolver))
    if node.op == "neg":
        return pc.negate(compile_node(node.args[0], resolver))
    a = compile_node(node.args[0], resolver)
    b = compile_node(node.args[1], resolver)
    if node.op == "=":
        return pc.equal(a, b)
    if node.op in ("<>", "!="):
        return pc.not_equal(a, b)
    if node.op == "<":
        return pc.less(a, b)
    if node.op == "<=":
        return pc.less_equal(a, b)
    if node.op == ">":
        return pc.greater(a, b)
    if node.op == ">=":
        return pc.greater_equal(a, b)
    if node.op == "+":
        return pc.add(a, b)
    if node.op == "-":
        return pc.subtract(a, b)
    if node.op == "*":
        return pc.multiply(a, b)
    if node.op == "/":
        return pc.divide(a, b)
    if node.op == "%":
        # truncated modulo: a - (a / b) * b with Arrow's truncating int divide
        return pc.subtract(a, pc.multiply(pc.divide(a, b), b))
    raise ValueError(f"unknown op {node.op!r}")


def columns_used(node) -> set[str]:
    if isinstance(node, Col):
        return {node.name}
    if isinstance(node, Lit):
        return set()
    if isinstance(node, Cast):
        return columns_used(node.expr)
    return set().union(*[columns_used(a) for a in node.args]) if node.args else set()


def scan_filter(where_sql: str):
    """WHERE string -> pads.Expression for read_parquet(filter=...), or None
    when some construct can't build a dataset expression (caller then runs
    the whole predicate as a residual batch filter)."""
    import pyarrow.dataset as pads

    try:
        return compile_node(parse_where(where_sql), pads.field)
    except (ValueError, KeyError, pa.ArrowInvalid, pa.ArrowNotImplementedError):
        return None


# -- SELECT statements ------------------------------------------------------


AGG_FUNCS = {"count", "sum", "min", "max", "avg", "count_distinct",
             "stddev_pop", "stddev_samp"}


def _is_agg(node) -> bool:
    return isinstance(node, Func) and node.name in AGG_FUNCS


@dataclass
class Select:
    projections: list  # [(ast, alias)]
    table: str | None
    where: object | None
    order_by: list  # [(col_name, descending)]
    limit: int | None
    offset: int | None = None  # LIMIT n OFFSET m (ogr_gensql.cpp:2325)
    distinct: bool = False
    star: bool = False
    group_by: list = None  # [col_name]
    having: object | None = None
    join: dict | None = None  # {table, left_col, right_col, how}
    union_all: "Select | None" = None  # trailing UNION ALL select (swq_parser.y:840)

    @property
    def columns_needed(self) -> set[str]:
        cols = set()
        for a, _alias in self.projections:
            cols |= columns_used(a)
        if self.where is not None:
            cols |= columns_used(self.where)
        if not self.group_by:  # grouped ORDER BY refers to output aliases
            aliases = {alias for _, alias in self.projections}
            for c, _ in self.order_by:
                if c not in aliases:  # ORDER BY an output alias needs no scan col
                    cols.add(c)
        cols.discard("*")
        return cols


def _default_alias(node, idx: int) -> str:
    if isinstance(node, Col):
        return node.name
    return f"col{idx}"


def parse_select(sql: str) -> Select:
    """Parse ``SELECT [DISTINCT] items FROM t [[LEFT] JOIN u ON a = b]
    [WHERE ...] [GROUP BY k, ...] [HAVING ...]
    [ORDER BY c [ASC|DESC], ...] [LIMIT n]`` — the ogr_gensql.cpp execution
    surface (reference: ogr/ogr_gensql.cpp:1334-1530 JOIN eval, :2218 ORDER
    BY index).  JOIN routes to relational.hash_join_broadcast[_left]; pass
    the joined table to ``apply_select(..., tables={name: pa.Table})``.
    Grouped selects compile to the two-phase ``relational.partial_aggregate``
    with count(*) / sum / min / max over plain columns."""
    p = _Parser(tokenize(sql))
    p.take("kw", "SELECT")
    distinct = False
    if p.peek("kw", "DISTINCT") is not None:
        p.take()
        distinct = True
    star = False
    projections = []
    if p.peek("op", "*") is not None:
        p.take()
        star = True
    else:
        while True:
            e = p.expr()
            alias = None
            if p.peek("kw", "AS") is not None:
                p.take()
                alias = p.take("ident")
            projections.append((e, alias or _default_alias(e, len(projections))))
            if p.peek("op", ",") is None:
                break
            p.take()
    table = None
    join = None
    if p.peek("kw", "FROM") is not None:
        p.take()
        table = p.take("ident")
        how = None
        if p.peek("kw", "LEFT") is not None:
            p.take()
            if p.peek("kw", "OUTER") is not None:
                p.take()
            how = "left"
        elif p.peek("kw", "INNER") is not None:
            p.take()
            how = "inner"
        if p.peek("kw", "JOIN") is not None or how is not None:
            p.take("kw", "JOIN")
            jt = p.take("ident")
            p.take("kw", "ON")

            def qcol():
                n = p.take("ident")
                if p.peek("op", ".") is not None:
                    p.take()
                    return Col(p.take("ident"), table=n)
                return Col(n)

            c1 = qcol()
            p.take("op", "=")
            c2 = qcol()
            # assign sides by qualifier; unqualified defaults to written order
            if c1.table == jt and c2.table != jt:
                left_col, right_col = c2.name, c1.name
            else:
                left_col, right_col = c1.name, c2.name
            join = {"table": jt, "left_col": left_col,
                    "right_col": right_col, "how": how or "inner"}
    where = None
    if p.peek("kw", "WHERE") is not None:
        p.take()
        where = p.expr()
    group_by = []
    if p.peek("kw", "GROUP") is not None:
        p.take()
        p.take("kw", "BY")
        while True:
            group_by.append(p.take("ident"))
            if p.peek("op", ",") is None:
                break
            p.take()
    having = None
    if p.peek("kw", "HAVING") is not None:
        p.take()
        having = p.expr()
    order_by = []
    if p.peek("kw", "ORDER") is not None:
        p.take()
        p.take("kw", "BY")
        while True:
            c = p.take("ident")
            desc = False
            if p.peek("kw", "DESC") is not None:
                p.take()
                desc = True
            elif p.peek("kw", "ASC") is not None:
                p.take()
            order_by.append((c, desc))
            if p.peek("op", ",") is None:
                break
            p.take()
    limit = None
    offset = None
    if p.peek("kw", "LIMIT") is not None:
        p.take()
        limit = int(p.take("num"))
    if p.peek("kw", "OFFSET") is not None:
        # LIMIT n OFFSET m / bare OFFSET m (swq_parser.y offset_opt)
        p.take()
        offset = int(p.take("num"))
    union_all = None
    if p.peek("kw", "UNION") is not None:
        # select_core UNION ALL select_statement (ogr/swq_parser.y:822,840):
        # each branch is evaluated independently and the outputs concatenated
        p.take()
        p.take("kw", "ALL")
        rest = " ".join(_untokenize(p.toks[p.i:]))
        p.i = len(p.toks)
        union_all = parse_select(rest)
    if not p.at_end():
        raise ValueError(f"trailing tokens: {p.toks[p.i:]}")
    return Select(projections, table, where, order_by, limit, offset=offset,
                  distinct=distinct, star=star, group_by=group_by,
                  having=having, join=join, union_all=union_all)


def _untokenize(toks) -> list[str]:
    out = []
    for k, v in toks:
        if k == "str":
            out.append("'" + str(v).replace("'", "''") + "'")
        else:
            out.append(str(v))
    return out


def _order_limit_offset(out, sel: Select):
    """Shared ORDER BY -> LIMIT/OFFSET tail.  OFFSET skips rows in the
    dataset's global block order (after the sort when one is present — the
    reference evaluates OFFSET on the sorted index, ogr_gensql.cpp:2325);
    the skip is a Ray-native split_at_indices, no driver collect."""
    if sel.order_by:
        out = out.sort([c for c, _ in sel.order_by],
                       descending=[d for _, d in sel.order_by])
    if sel.offset:
        if sel.limit is not None:
            out = out.limit(sel.limit + sel.offset)
        out = out.split_at_indices([sel.offset])[1]
    elif sel.limit is not None:
        out = out.limit(sel.limit)
    return out


def _apply_grouped(ds, sel: Select, where):
    """GROUP BY execution: WHERE filter -> two-phase partial_aggregate ->
    alias projection -> HAVING -> ORDER BY/LIMIT.  Projections must be
    group keys or count(*)/sum/min/max over plain columns (the
    ogr_gensql.cpp aggregate surface); HAVING and ORDER BY refer to the
    OUTPUT aliases."""
    from ..stages.relational import partial_aggregate

    sums, mins, maxs = [], [], []
    renames = []  # (source_col_in_agg_output, alias)
    count_alias = None
    count_distinct = None  # (arg_col, alias)
    avgs = []  # (arg_col, alias): AVG (swq_op_registrar.cpp:53) = sum/count
    stds = []  # (arg_col, alias, sample): STDDEV_POP/_SAMP
    nncounts = []  # COUNT(col) source columns (non-null counts)
    # (swq_op_registrar.cpp SWQCF_STDDEV_POP/_SAMP) via exact integer
    # sum + sum-of-squares partials; finalize order is fixed so a DuckDB
    # mirror written with the same term order hashes identically
    for node, alias in sel.projections:
        if isinstance(node, Col):
            if node.name not in sel.group_by:
                raise ValueError(f"non-aggregated column {node.name!r} "
                                 "not in GROUP BY")
            renames.append((node.name, alias))
        elif _is_agg(node):
            if node.name == "count_distinct":
                if not (len(node.args) == 1 and isinstance(node.args[0], Col)):
                    raise ValueError("COUNT(DISTINCT ...) argument must be a "
                                     "plain column")
                if count_distinct is not None:
                    raise ValueError("only one COUNT(DISTINCT) per select "
                                     "(the reference grammar's special case, "
                                     "ogr/swq_parser.y:1009)")
                count_distinct = (node.args[0].name, alias)
                renames.append((alias, alias))
            elif node.name == "count":
                if (len(node.args) == 1 and isinstance(node.args[0], Lit)
                        and node.args[0].value == "*"):
                    if count_alias is not None:
                        raise ValueError("only one count(*) per grouped "
                                         "select")
                    count_alias = alias
                    renames.append((alias, alias))
                elif len(node.args) == 1 and isinstance(node.args[0], Col):
                    # COUNT(col): non-null count (swq summary 'count' skips
                    # nulls) = SUM of the validity bitmap as int64
                    argn = node.args[0].name
                    sums.append(f"__nn_{argn}")
                    nncounts.append(argn)
                    renames.append((f"__nn_{argn}_sum", alias))
                else:
                    raise ValueError("count() takes * or a plain column")
            elif node.name == "avg":
                if len(node.args) != 1 or not isinstance(node.args[0], Col):
                    raise ValueError("avg() argument must be a plain column")
                argn = node.args[0].name
                sums.append(argn)
                avgs.append((argn, alias))
                renames.append((alias, alias))
            elif node.name in ("stddev_pop", "stddev_samp"):
                if len(node.args) != 1 or not isinstance(node.args[0], Col):
                    raise ValueError(
                        f"{node.name}() argument must be a plain column")
                argn = node.args[0].name
                sums.append(argn)
                sums.append(f"__sq_{argn}")
                stds.append((argn, alias, node.name == "stddev_samp"))
                renames.append((alias, alias))
            else:
                if len(node.args) != 1 or not isinstance(node.args[0], Col):
                    raise ValueError(
                        f"{node.name}() argument must be a plain column")
                argn = node.args[0].name
                {"sum": sums, "min": mins, "max": maxs}[node.name].append(argn)
                renames.append((f"{argn}_{node.name}", alias))
        else:
            raise ValueError("grouped projections must be group keys or "
                             "count(*)/sum/min/max aggregates")

    if where is not None:
        def flt(t: pa.Table) -> pa.Table:
            return t.filter(compile_node(where, lambda n: t[n]))

        ds = ds.map_batches(flt, batch_format="pyarrow")

    if count_distinct is not None:
        # COUNT(DISTINCT x): distinct on (keys, x) — nulls skipped per SQL —
        # then count(*) per key.  Two keyed shuffles, no driver collect.
        if sums or mins or maxs or count_alias is not None:
            raise ValueError(
                "COUNT(DISTINCT) cannot be combined with other aggregates in "
                "one statement (run them as two selects)")
        from ..stages.relational import distinct as _distinct

        cd_col, cd_alias = count_distinct

        def dropnull(t: pa.Table) -> pa.Table:
            return t.filter(pc.is_valid(t[cd_col]))

        dsd = _distinct(ds.map_batches(dropnull, batch_format="pyarrow"),
                        list(sel.group_by) + [cd_col])
        agg = partial_aggregate(dsd, list(sel.group_by), count_alias=cd_alias)
    else:
        if (avgs or stds) and count_alias is None:
            count_alias = "__n"  # avg/stddev need the group count
        if stds or nncounts:
            sq_cols = sorted({f"__sq_{c}" for c, _, _ in stds})
            nn_cols = sorted(set(nncounts))

            def addsq(t: pa.Table) -> pa.Table:
                for sq in sq_cols:
                    src = t[sq[5:]]
                    t = t.append_column(sq, pc.multiply(src, src))
                for c in nn_cols:
                    t = t.append_column(
                        f"__nn_{c}",
                        pc.cast(pc.is_valid(t[c]), pa.int64()))
                return t

            ds = ds.map_batches(addsq, batch_format="pyarrow")
        agg = partial_aggregate(
            ds, list(sel.group_by),
            sums=list(dict.fromkeys(sums)), mins=list(dict.fromkeys(mins)),
            maxs=list(dict.fromkeys(maxs)), count_alias=count_alias)

    avg_aliases = {alias: col for col, alias in avgs}
    std_aliases = {alias: (col, samp) for col, alias, samp in stds}

    def project(t: pa.Table) -> pa.Table:
        cols = {}
        for src, alias in renames:
            if alias in avg_aliases:
                col = avg_aliases[alias]
                cols[alias] = pc.divide(
                    pc.cast(t[f"{col}_sum"], pa.float64()),
                    pc.cast(t[count_alias], pa.float64()))
            elif alias in std_aliases:
                col, samp = std_aliases[alias]
                n = pc.cast(t[count_alias], pa.float64())
                s = pc.cast(t[f"{col}_sum"], pa.float64())
                ss = pc.cast(t[f"__sq_{col}_sum"], pa.float64())
                mean = pc.divide(s, n)
                if samp:
                    # sqrt((ss - (s/n)*s) / (n - 1)) — exact same term
                    # order as the documented oracle mirror
                    var = pc.divide(
                        pc.subtract(ss, pc.multiply(mean, s)),
                        pc.subtract(n, pa.scalar(1.0)))
                else:
                    # sqrt(ss/n - (s/n)*(s/n))
                    var = pc.subtract(pc.divide(ss, n),
                                      pc.multiply(mean, mean))
                cols[alias] = pc.sqrt(var)
            else:
                cols[alias] = t[src]
        return pa.table(cols)

    out = agg.map_batches(project, batch_format="pyarrow")
    if sel.having is not None:
        having = sel.having

        def hflt(t: pa.Table) -> pa.Table:
            return t.filter(compile_node(having, lambda n: t[n]))

        out = out.map_batches(hflt, batch_format="pyarrow")
    return _order_limit_offset(out, sel)


def apply_select(ds, sel: Select, skip_where: bool = False, tables=None,
                 datasets=None):
    """Run a parsed Select over a Ray Dataset: broadcast JOIN (when the
    statement has one) -> residual WHERE filter -> vectorized projection ->
    ORDER BY (range-partitioned sort) -> LIMIT; grouped selects route
    through ``_apply_grouped``.
    ``skip_where=True`` when the caller already pushed the whole predicate
    into the scan.  ``tables``: {name: pyarrow.Table | small Dataset} for
    the JOIN right side (broadcast via ray.put — the OGR secondary-table
    model; a collision between a needed right column and a left column
    keeps the LEFT column).  ``datasets``: {name: Dataset} for the FROM
    tables of trailing UNION ALL branches (each branch is evaluated
    independently — its own ORDER BY/LIMIT included — and the outputs
    concatenated, the reference's swq union model, ogr/swq_parser.y:840)."""
    from dataclasses import replace

    if sel.union_all is not None:
        head = apply_select(ds, replace(sel, union_all=None),
                            skip_where, tables, datasets)
        branch = sel.union_all
        if branch.table is None or branch.table == sel.table:
            bds = ds
        elif datasets and branch.table in datasets:
            bds = datasets[branch.table]
        else:
            raise ValueError(
                f"UNION ALL branch reads table {branch.table!r}; pass "
                f"apply_select(..., datasets={{{branch.table!r}: Dataset}})")
        tail = apply_select(bds, branch, False, tables, datasets)
        return head.union(tail)
    ds = _inject_special_fields(ds, sel)
    where = None if skip_where else sel.where
    if sel.join is not None:
        ds = _apply_join(ds, sel, tables)
    if sel.group_by:
        return _apply_grouped(ds, sel, where)
    if any(_is_agg(n) for n, _ in sel.projections):
        # whole-table aggregate (no GROUP BY — swq_select.cpp's query_mode
        # SWQM_SUMMARY_RECORD): group on a synthetic constant key; the key
        # is not projected so the alias projection drops it
        def addkey(t: pa.Table) -> pa.Table:
            return t.append_column(
                "__all", pa.array([0] * t.num_rows, type=pa.int32()))

        gsel = replace(sel, group_by=["__all"])
        return _apply_grouped(
            ds.map_batches(addkey, batch_format="pyarrow"), gsel, where)
    proj = sel.projections
    order_cols = {c for c, _ in sel.order_by}
    out_names = [alias for _, alias in proj]
    extra_sort = [c for c in order_cols
                  if c not in out_names] if not sel.star else []

    def run_batch(t: pa.Table) -> pa.Table:
        if where is not None:
            t = t.filter(compile_node(where, lambda n: t[n]))
        if sel.star:
            return t
        cols = {}
        for node, alias in proj:
            v = compile_node(node, lambda n: t[n])
            if isinstance(v, pa.Scalar):
                v = pa.array([v.as_py()] * t.num_rows, type=v.type)
            cols[alias] = v
        for c in extra_sort:  # carry sort keys not in the projection
            cols[c] = t[c]
        return pa.table(cols)

    out = ds.map_batches(run_batch, batch_format="pyarrow")
    if sel.distinct:
        from ..stages.relational import distinct as _distinct

        out = _distinct(out, out_names)
    out = _order_limit_offset(out, sel)
    if extra_sort:
        out = out.select_columns(out_names)
    return out


def _apply_join(ds, sel: Select, tables):
    """Broadcast equi-join per the Select's JOIN clause.  The right side
    must be small (it is ray.put as one Arrow table); emit = the right
    columns the statement references (or all of them for SELECT *),
    minus the join key and any name the left side already has."""
    from ..stages.relational import (hash_join_broadcast,
                                     hash_join_broadcast_left)

    j = sel.join
    if not tables or j["table"] not in tables:
        raise ValueError(
            f"JOIN references table {j['table']!r}; pass "
            f"apply_select(..., tables={{{j['table']!r}: pyarrow.Table}})")
    right = tables[j["table"]]
    if not isinstance(right, pa.Table):
        import ray
        import ray.data as rd

        if isinstance(right, rd.Dataset):
            refs = ray.get(right.to_arrow_refs())
            if not refs:
                raise ValueError("empty JOIN right side: pass a pyarrow.Table")
            right = pa.concat_tables(refs, promote_options="default")
        else:
            raise TypeError(f"unsupported JOIN table type {type(right)}")
    left_names = set(ds.schema().names)
    rnames = [c for c in right.column_names
              if c != j["right_col"] and c not in left_names]
    if sel.star:
        emit = rnames
    else:
        needed = set(sel.columns_needed) | set(sel.group_by or [])
        emit = [c for c in rnames if c in needed]
    fn = hash_join_broadcast_left if j["how"] == "left" else hash_join_broadcast
    return fn(ds, right, j["left_col"], j["right_col"], emit)


def sql_filter(ds, where_sql: str):
    """WHERE-string residual filter over a Dataset (SetAttributeFilter)."""
    node = parse_where(where_sql)
    return ds.map_batches(
        lambda t: t.filter(compile_node(node, lambda n: t[n])),
        batch_format="pyarrow",
    )


_SPECIAL_FIELDS = ("OGR_GEOM_AREA", "OGR_GEOMETRY")


def _inject_special_fields(ds, sel: Select):
    """OGR SQL special fields (ogr/ogr_swq.h SpecialFieldNames;
    ogr_gensql.cpp evaluates them per feature): any statement referencing
    OGR_GEOM_AREA (shoelace area of the feature geometry, holes
    subtracted) or OGR_GEOMETRY (the geometry type name, 'POLYGON'...)
    gets those columns derived from the ``wkb`` column in one vectorized
    pre-pass.  Case-sensitive upper-case names, per the reference."""
    used = set(sel.columns_needed) | {c for c, _ in sel.order_by} \
        | set(sel.group_by or [])
    wanted = [f for f in _SPECIAL_FIELDS if f in used]
    if not wanted:
        return ds

    from ..functions import wkb as _wkbf
    from ..stages.overlay import geom_area as _garea

    kind_names = {1: "POINT", 2: "LINESTRING", 3: "POLYGON",
                  4: "MULTIPOINT", 5: "MULTILINESTRING", 6: "MULTIPOLYGON",
                  7: "GEOMETRYCOLLECTION"}

    def derive(t: pa.Table) -> pa.Table:
        if "wkb" not in t.column_names:
            raise ValueError(
                "special field reference needs a 'wkb' geometry column")
        geoms = [_wkbf.decode(w) for w in t["wkb"].to_pylist()]
        if "OGR_GEOM_AREA" in wanted:
            t = t.append_column(
                "OGR_GEOM_AREA",
                pa.array([_garea(g) if g.kind in (3, 6, 17) else 0.0
                          for g in geoms], pa.float64()))
        if "OGR_GEOMETRY" in wanted:
            t = t.append_column(
                "OGR_GEOMETRY",
                pa.array([kind_names.get(g.kind, "UNKNOWN")
                          for g in geoms], pa.string()))
        return t

    return ds.map_batches(derive, batch_format="pyarrow")
