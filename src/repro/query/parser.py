"""Parser for the SQL subset used by the paper's benchmark workload.

Supported statements (case-insensitive keywords):

* ``SELECT count(*) | col[, col...] FROM t [alias][, t [alias]...]
  WHERE pred AND pred ... [ORDER BY col[, col...]]``
* ``UPDATE t SET col = expr[, col = expr...] [WHERE pred AND ...]``
* ``DELETE FROM t [WHERE pred AND ...]``
* ``INSERT INTO t [(col, ...)] VALUES (...)[, (...)...]``: one row per
  parenthesized tuple after ``VALUES`` (one row without a ``VALUES`` list)

Predicates are conjunctive: ``col = literal``, ``col op literal`` for
``op ∈ {<, <=, >, >=}``, ``col BETWEEN lit AND lit``, or ``col = col``
(equi-join). Timestamp literals in DB2's ``'YYYY-MM-DD-hh.mm.ss'`` form (as
in the paper's example queries) are converted to numeric "days since 1970".

The parser exists so the advisor middleware can intercept textual SQL exactly
as the paper's prototype does; programmatic construction via
:mod:`repro.query.builder` is equally supported.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .ast import (
    ColumnRef,
    DeleteStatement,
    EqualityPredicate,
    InsertStatement,
    JoinPredicate,
    OrderBy,
    RangePredicate,
    SelectQuery,
    Statement,
    TablePredicate,
    UpdateStatement,
)

__all__ = ["parse_statement", "to_sql", "ParseError"]


class ParseError(Exception):
    """Raised when a statement does not conform to the supported subset."""


_TOKEN_RE = re.compile(
    r"""
    \s*(
        '[^']*'                                        # string literal
      | (?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?        # number (opt. exponent)
      | [A-Za-z_][A-Za-z_0-9]*                         # identifier / keyword
      | <= | >= | <> | !=                              # two-char operators
      | [(),.*=<>+\-/]                                 # single-char tokens
    )
    """,
    re.VERBOSE,
)

_TIMESTAMP_RE = re.compile(
    r"^(\d{4})-(\d{2})-(\d{2})(?:[-\s](\d{2})\.(\d{2})\.(\d{2}))?$"
)

_KEYWORDS = {
    "select", "from", "where", "and", "between", "order", "by", "update",
    "set", "delete", "insert", "into", "values", "count", "asc", "desc",
}


def _tokenize(sql: str) -> List[str]:
    tokens: List[str] = []
    pos = 0
    text = sql.strip().rstrip(";")
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character at offset {pos}: {text[pos:pos+20]!r}")
        tokens.append(match.group(1))
        pos = match.end()
    return tokens


def _literal_value(token: str) -> Union[float, str]:
    """Convert a literal token to a comparable value.

    Numbers become floats. DB2-style timestamp strings become "days since
    1970" floats so date ranges flow through numeric selectivity. Other
    strings are kept as-is (only usable in equality predicates).
    """
    if token.startswith("'") and token.endswith("'"):
        inner = token[1:-1]
        ts = _TIMESTAMP_RE.match(inner)
        if ts is not None:
            year, month, day = int(ts.group(1)), int(ts.group(2)), int(ts.group(3))
            days = (year - 1970) * 365.0 + (month - 1) * 30.4 + (day - 1)
            if ts.group(4) is not None:
                days += int(ts.group(4)) / 24.0
            return days
        return inner
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"expected literal, got {token!r}") from None


class _TokenStream:
    """Cursor over the token list with keyword-aware helpers."""

    def __init__(self, tokens: Sequence[str]) -> None:
        self._tokens = list(tokens)
        self._pos = 0

    def peek(self, offset: int = 0) -> Optional[str]:
        idx = self._pos + offset
        return self._tokens[idx] if idx < len(self._tokens) else None

    def next(self) -> str:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of statement")
        self._pos += 1
        return token

    def accept(self, keyword: str) -> bool:
        token = self.peek()
        if token is not None and token.lower() == keyword.lower():
            self._pos += 1
            return True
        return False

    def expect(self, expected: str) -> str:
        token = self.next()
        if token.lower() != expected.lower():
            raise ParseError(f"expected {expected!r}, got {token!r}")
        return token

    def at_keyword(self, *keywords: str) -> bool:
        token = self.peek()
        return token is not None and token.lower() in {k.lower() for k in keywords}

    @property
    def exhausted(self) -> bool:
        return self._pos >= len(self._tokens)


def _parse_literal(stream: _TokenStream) -> Union[float, str]:
    """Consume one literal, handling a unary minus on numbers."""
    if stream.peek() == "-":
        stream.next()
        value = _literal_value(stream.next())
        if not isinstance(value, float):
            raise ParseError("unary minus requires a numeric literal")
        return -value
    return _literal_value(stream.next())


def _parse_qualified_table(stream: _TokenStream) -> str:
    first = stream.next()
    if not first.isidentifier():
        raise ParseError(f"expected table name, got {first!r}")
    stream.expect(".")
    second = stream.next()
    if not second.isidentifier():
        raise ParseError(f"expected table name after '.', got {second!r}")
    return f"{first}.{second}"


def _parse_column_token(
    stream: _TokenStream, aliases: Dict[str, str], default_table: Optional[str]
) -> ColumnRef:
    first = stream.next()
    if not first.isidentifier():
        raise ParseError(f"expected column reference, got {first!r}")
    if stream.peek() == ".":
        stream.next()
        column = stream.next()
        if not column.isidentifier():
            raise ParseError(f"expected column name, got {column!r}")
        table = aliases.get(first.lower())
        if table is None:
            raise ParseError(f"unknown table alias {first!r}")
        return ColumnRef(table, column)
    if default_table is None:
        raise ParseError(
            f"unqualified column {first!r} is ambiguous with multiple tables"
        )
    return ColumnRef(default_table, first)


def _is_column_start(stream: _TokenStream) -> bool:
    token = stream.peek()
    if token is None or not token.isidentifier():
        return False
    return token.lower() not in _KEYWORDS


def _parse_predicates(
    stream: _TokenStream, aliases: Dict[str, str], default_table: Optional[str]
) -> Tuple[List[TablePredicate], List[JoinPredicate]]:
    predicates: List[TablePredicate] = []
    joins: List[JoinPredicate] = []
    while True:
        left = _parse_column_token(stream, aliases, default_table)
        if stream.accept("between"):
            lo = _parse_literal(stream)
            stream.expect("and")
            hi = _parse_literal(stream)
            if not isinstance(lo, float) or not isinstance(hi, float):
                raise ParseError(f"BETWEEN requires numeric/timestamp bounds on {left}")
            predicates.append(RangePredicate(left, lo=lo, hi=hi))
        else:
            op = stream.next()
            if op == "=" and _is_column_start(stream):
                right = _parse_column_token(stream, aliases, default_table)
                joins.append(JoinPredicate(left, right))
            elif op == "=":
                predicates.append(EqualityPredicate(left, _parse_literal(stream)))
            elif op in ("<", "<="):
                value = _parse_literal(stream)
                if not isinstance(value, float):
                    raise ParseError(f"range bound must be numeric on {left}")
                predicates.append(RangePredicate(left, hi=value))
            elif op in (">", ">="):
                value = _parse_literal(stream)
                if not isinstance(value, float):
                    raise ParseError(f"range bound must be numeric on {left}")
                predicates.append(RangePredicate(left, lo=value))
            else:
                raise ParseError(f"unsupported operator {op!r}")
        if not stream.accept("and"):
            break
    return predicates, joins


def _parse_select(stream: _TokenStream) -> SelectQuery:
    # Projection: count(*) or a comma-separated column list. Column
    # references cannot be resolved until FROM is parsed, so save tokens.
    count_star = False
    projection_tokens: List[List[str]] = []
    if stream.at_keyword("count"):
        stream.next()
        stream.expect("(")
        stream.expect("*")
        stream.expect(")")
        count_star = True
    else:
        while True:
            item = [stream.next()]
            while stream.peek() == ".":
                stream.next()
                item.append(stream.next())
            projection_tokens.append(item)
            if not stream.accept(","):
                break
    stream.expect("from")

    aliases: Dict[str, str] = {}
    tables: List[str] = []
    while True:
        table = _parse_qualified_table(stream)
        tables.append(table)
        aliases[table.split(".", 1)[1].lower()] = table
        token = stream.peek()
        if token is not None and token.isidentifier() and token.lower() not in _KEYWORDS:
            aliases[stream.next().lower()] = table
        if not stream.accept(","):
            break
    default_table = tables[0] if len(tables) == 1 else None

    projection: List[ColumnRef] = []
    if not count_star:
        for item in projection_tokens:
            if len(item) == 1:
                if default_table is None:
                    raise ParseError(
                        f"unqualified projected column {item[0]!r} with multiple tables"
                    )
                projection.append(ColumnRef(default_table, item[0]))
            elif len(item) == 2:
                table = aliases.get(item[0].lower())
                if table is None:
                    raise ParseError(f"unknown alias {item[0]!r} in projection")
                projection.append(ColumnRef(table, item[1]))
            else:
                raise ParseError(f"malformed projection item {'.'.join(item)!r}")

    predicates: List[TablePredicate] = []
    joins: List[JoinPredicate] = []
    if stream.accept("where"):
        predicates, joins = _parse_predicates(stream, aliases, default_table)

    order_by: Optional[OrderBy] = None
    if stream.accept("order"):
        stream.expect("by")
        columns: List[ColumnRef] = []
        while True:
            columns.append(_parse_column_token(stream, aliases, default_table))
            stream.accept("asc") or stream.accept("desc")
            if not stream.accept(","):
                break
        order_by = OrderBy(tuple(columns))

    if not stream.exhausted:
        raise ParseError(f"trailing tokens near {stream.peek()!r}")
    return SelectQuery(
        tables=tuple(tables),
        predicates=tuple(predicates),
        joins=tuple(joins),
        projection=tuple(projection),
        order_by=order_by,
    )


def _skip_set_expression(stream: _TokenStream) -> None:
    """Consume a SET right-hand side; only the column names matter to costing."""
    depth = 0
    while not stream.exhausted:
        token = stream.peek()
        lowered = token.lower() if token else ""
        if depth == 0 and (lowered == "where" or token == ","):
            return
        token = stream.next()
        if token == "(":
            depth += 1
        elif token == ")":
            depth -= 1


def _parse_update(stream: _TokenStream) -> UpdateStatement:
    table = _parse_qualified_table(stream)
    stream.expect("set")
    set_columns: List[str] = []
    while True:
        column = stream.next()
        if not column.isidentifier():
            raise ParseError(f"expected column in SET, got {column!r}")
        set_columns.append(column)
        stream.expect("=")
        _skip_set_expression(stream)
        if not stream.accept(","):
            break
    predicates: Tuple[TablePredicate, ...] = ()
    if stream.accept("where"):
        aliases = {table.split(".", 1)[1].lower(): table}
        preds, joins = _parse_predicates(stream, aliases, table)
        if joins:
            raise ParseError("UPDATE does not support join predicates")
        predicates = tuple(preds)
    if not stream.exhausted:
        raise ParseError(f"trailing tokens near {stream.peek()!r}")
    return UpdateStatement(table, tuple(set_columns), predicates)


def _parse_delete(stream: _TokenStream) -> DeleteStatement:
    stream.expect("from")
    table = _parse_qualified_table(stream)
    predicates: Tuple[TablePredicate, ...] = ()
    if stream.accept("where"):
        aliases = {table.split(".", 1)[1].lower(): table}
        preds, joins = _parse_predicates(stream, aliases, table)
        if joins:
            raise ParseError("DELETE does not support join predicates")
        predicates = tuple(preds)
    if not stream.exhausted:
        raise ParseError(f"trailing tokens near {stream.peek()!r}")
    return DeleteStatement(table, predicates)


def _parse_insert(stream: _TokenStream) -> InsertStatement:
    stream.expect("into")
    table = _parse_qualified_table(stream)
    # Of the remainder only the row count affects costing: the top-level
    # tuples after VALUES (a column list before it is not a row).
    rows = 0
    depth = 0
    after_values = False
    while not stream.exhausted:
        token = stream.next()
        if token == "(":
            if after_values and depth == 0:
                rows += 1
            depth += 1
        elif token == ")":
            depth -= 1
        elif depth == 0 and token.lower() == "values":
            after_values = True
    return InsertStatement(table, max(rows, 1))


def parse_statement(sql: str) -> Statement:
    """Parse one SQL statement of the supported subset into an AST node."""
    stream = _TokenStream(_tokenize(sql))
    if stream.accept("select"):
        return _parse_select(stream)
    if stream.accept("update"):
        return _parse_update(stream)
    if stream.accept("delete"):
        return _parse_delete(stream)
    if stream.accept("insert"):
        return _parse_insert(stream)
    raise ParseError(f"unsupported statement: {sql[:40]!r}...")


def _render_column(ref: ColumnRef) -> str:
    """Render a column as ``table.column`` (the parser re-resolves the
    table's short name as an implicit alias)."""
    return f"{ref.table.split('.', 1)[1]}.{ref.column}"


def _exact_bound(value: float) -> str:
    """A range bound as text that parses back to the same float: the
    ``:g`` rendering when it does (so text that was already exact keeps
    its bytes), else ``repr``."""
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


def _format_predicate(pred: TablePredicate, lossless: bool) -> str:
    column = _render_column(pred.column)
    if isinstance(pred, EqualityPredicate):
        value = pred.value
        rendered = f"'{value}'" if isinstance(value, str) else repr(value)
        return f"{column} = {rendered}"
    bound = _exact_bound if lossless else "{:g}".format
    if pred.lo is not None and pred.hi is not None:
        return f"{column} BETWEEN {bound(pred.lo)} AND {bound(pred.hi)}"
    if pred.lo is not None:
        return f"{column} >= {bound(pred.lo)}"
    return f"{column} <= {bound(pred.hi)}"


def to_sql(statement: Statement, *, lossless: bool = False) -> str:
    """Render a statement back to SQL text (for display and logging).

    By default range bounds render with ``:g`` (six significant digits)
    and an insert as one row. With ``lossless=True`` the text parses back
    to an AST ``==`` to ``statement``: a bound whose ``:g`` text reads
    back as another float renders with ``repr``, and an insert renders
    one ``VALUES`` tuple per row. The engine logs this form, in the WAL
    and in checkpoints, so recovery re-analyzes the statements it
    analyzed.
    """
    if isinstance(statement, SelectQuery):
        projection = (
            ", ".join(_render_column(c) for c in statement.projection)
            if statement.projection
            else "count(*)"
        )
        parts = [f"SELECT {projection}", f"FROM {', '.join(statement.tables)}"]
        conditions = [
            _format_predicate(p, lossless) for p in statement.predicates
        ]
        conditions.extend(
            f"{_render_column(j.left)} = {_render_column(j.right)}"
            for j in statement.joins
        )
        if conditions:
            parts.append("WHERE " + " AND ".join(conditions))
        if statement.order_by is not None:
            parts.append(
                "ORDER BY "
                + ", ".join(_render_column(c) for c in statement.order_by.columns)
            )
        return " ".join(parts)
    if isinstance(statement, UpdateStatement):
        sets = ", ".join(f"{c} = <expr>" for c in statement.set_columns)
        sql = f"UPDATE {statement.table} SET {sets}"
        if statement.predicates:
            sql += " WHERE " + " AND ".join(
                _format_predicate(p, lossless) for p in statement.predicates
            )
        return sql
    if isinstance(statement, DeleteStatement):
        sql = f"DELETE FROM {statement.table}"
        if statement.predicates:
            sql += " WHERE " + " AND ".join(
                _format_predicate(p, lossless) for p in statement.predicates
            )
        return sql
    if isinstance(statement, InsertStatement):
        rows = statement.row_count if lossless else 1
        return f"INSERT INTO {statement.table} VALUES " + ", ".join(
            ["(...)"] * rows
        )
    raise TypeError(f"unknown statement type: {type(statement).__name__}")
