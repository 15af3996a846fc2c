"""Recursive-descent parser producing :mod:`repro.sql.ast` trees.

Grammar (informal)::

    select   := SELECT [DISTINCT] items FROM tables [WHERE expr]
                [GROUP BY cols] [HAVING expr] [ORDER BY order_items]
                [LIMIT int]
    items    := '*' | item (',' item)*
    item     := expr [[AS] ident]
    tables   := table (',' table)* | table (JOIN table ON expr)*
    table    := ident [[AS] ident]
    expr     := or_expr
    or_expr  := and_expr (OR and_expr)*
    and_expr := not_expr (AND not_expr)*
    not_expr := [NOT] predicate
    predicate:= additive [cmp additive | BETWEEN .. AND .. | IN (...)
                | LIKE string | IS [NOT] NULL]
    additive := multiplicative (('+'|'-') multiplicative)*
    multiplicative := unary (('*'|'/') unary)*
    unary    := ['-'] primary
    primary  := literal | aggregate | column | '(' expr ')'

Explicit ``JOIN ... ON`` clauses are normalized into the table list plus
WHERE conjuncts, so downstream analysis sees one canonical form.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.errors import SQLSyntaxError
from repro.sql import ast
from repro.sql.lexer import Token, TokenType, tokenize

_LITERALS = (TokenType.NUMBER, TokenType.STRING)
_KEYWORD_VALUES = {"TRUE": True, "FALSE": False, "NULL": None}


def parse(text: str, params: Optional[List[int]] = None):
    """Parse a SELECT statement, possibly compound (UNION/EXCEPT ALL).

    Returns :class:`ast.SelectStmt` or :class:`ast.CompoundSelect`.

    Given a list, ``params``, the statement is parsed as a *shape*:
    every NUMBER or STRING literal inside a WHERE or ON condition
    becomes a parameter — its value an :func:`ast.param` whose slot is
    its index in ``params``, which receives the literal's position among
    all the statement's literals (:func:`repro.sql.lexer.shape` lists
    them in the same order). A literal anywhere else names an output
    column or shapes the RA top, and a ``-`` folded into an IN-list
    member would lose the slot: those stay plain values.
    """
    parser = _Parser(tokenize(text), params)
    stmt = parser.parse_compound()
    parser.expect_eof()
    return stmt


class _Parser:
    def __init__(self, tokens: List[Token], params: Optional[List[int]] = None) -> None:
        self._tokens = tokens
        self._pos = 0
        self._params = params
        #: literal tokens consumed so far
        self._literals = 0
        #: inside a WHERE or ON condition
        self._in_condition = False

    # -- token helpers -----------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def _error(self, message: str) -> SQLSyntaxError:
        token = self._peek()
        return SQLSyntaxError(f"{message}, found {token.value!r}", token.position)

    def _expect_keyword(self, name: str) -> Token:
        token = self._peek()
        if not token.is_keyword(name):
            raise self._error(f"expected {name}")
        return self._advance()

    def _expect_punct(self, symbol: str) -> Token:
        token = self._peek()
        if not token.is_punct(symbol):
            raise self._error(f"expected {symbol!r}")
        return self._advance()

    def _accept_keyword(self, *names: str) -> Optional[Token]:
        if self._peek().is_keyword(*names):
            return self._advance()
        return None

    def _accept_punct(self, *symbols: str) -> Optional[Token]:
        if self._peek().is_punct(*symbols):
            return self._advance()
        return None

    def _literal(self, plain: bool = False) -> Any:
        """Consume a literal token; its value, as a parameter when the
        statement is parsed as a shape and this is a condition's."""
        value = self._advance().value
        position = self._literals
        self._literals += 1
        if plain or self._params is None or not self._in_condition:
            return value
        self._params.append(position)
        return ast.param(value, len(self._params) - 1)

    def _parse_condition(self) -> ast.Expr:
        self._in_condition = True
        expr = self._parse_expr()
        self._in_condition = False
        return expr

    def _expect_ident(self) -> str:
        token = self._peek()
        if token.type is not TokenType.IDENT:
            raise self._error("expected identifier")
        self._advance()
        return str(token.value)

    # -- statement ----------------------------------------------------------

    def expect_eof(self) -> None:
        if self._peek().type is not TokenType.EOF:
            raise self._error("unexpected trailing input")

    def parse_compound(self):
        stmt = self.parse_select()
        while self._peek().is_keyword("UNION", "EXCEPT"):
            op = "union" if self._advance().value == "UNION" else "except"
            if not self._accept_keyword("ALL"):
                raise self._error(
                    "only bag semantics are supported: write UNION ALL "
                    "or EXCEPT ALL"
                )
            right = self.parse_select()
            stmt = ast.CompoundSelect(op, stmt, right)
        return stmt

    def parse_select(self) -> ast.SelectStmt:
        self._expect_keyword("SELECT")
        distinct = self._accept_keyword("DISTINCT") is not None

        star = False
        items: List[ast.SelectItem] = []
        if self._accept_punct("*"):
            star = True
        else:
            items.append(self._parse_select_item())
            while self._accept_punct(","):
                items.append(self._parse_select_item())

        self._expect_keyword("FROM")
        tables, join_conds = self._parse_from()

        where: Optional[ast.Expr] = None
        if self._accept_keyword("WHERE"):
            where = self._parse_condition()
        if join_conds:
            where = ast.make_and(join_conds + ([where] if where else []))

        group_by: List[ast.Column] = []
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by.append(self._parse_column())
            while self._accept_punct(","):
                group_by.append(self._parse_column())

        having: Optional[ast.Expr] = None
        if self._accept_keyword("HAVING"):
            having = self._parse_expr()

        order_by: List[ast.OrderItem] = []
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by.append(self._parse_order_item())
            while self._accept_punct(","):
                order_by.append(self._parse_order_item())

        limit: Optional[int] = None
        if self._accept_keyword("LIMIT"):
            token = self._peek()
            if token.type is not TokenType.NUMBER or not isinstance(token.value, int):
                raise self._error("expected integer after LIMIT")
            limit = self._literal()

        return ast.SelectStmt(
            items=items,
            tables=tables,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            distinct=distinct,
            star=star,
        )

    def _parse_alias(self) -> Optional[str]:
        """``[AS] ident``, when there is one."""
        if self._accept_keyword("AS") or self._peek().type is TokenType.IDENT:
            return self._expect_ident()
        return None

    def _parse_select_item(self) -> ast.SelectItem:
        return ast.SelectItem(self._parse_expr(), self._parse_alias())

    def _parse_from(self):
        tables = [self._parse_table_ref()]
        join_conds: List[ast.Expr] = []
        while True:
            if self._accept_punct(","):
                tables.append(self._parse_table_ref())
                continue
            if self._peek().is_keyword("JOIN", "INNER"):
                self._accept_keyword("INNER")
                self._expect_keyword("JOIN")
                tables.append(self._parse_table_ref())
                self._expect_keyword("ON")
                join_conds.append(self._parse_condition())
                continue
            break
        return tables, join_conds

    def _parse_table_ref(self) -> ast.TableRef:
        relation = self._expect_ident()
        return ast.TableRef(relation, self._parse_alias() or relation)

    def _parse_order_item(self) -> ast.OrderItem:
        expr = self._parse_expr()
        ascending = True
        if self._accept_keyword("DESC"):
            ascending = False
        else:
            self._accept_keyword("ASC")
        return ast.OrderItem(expr, ascending)

    # -- expressions ---------------------------------------------------------

    def _parse_expr(self) -> ast.Expr:
        return self._parse_or()

    def _parse_or(self) -> ast.Expr:
        left = self._parse_and()
        items = [left]
        while self._accept_keyword("OR"):
            items.append(self._parse_and())
        return items[0] if len(items) == 1 else ast.Or(items)

    def _parse_and(self) -> ast.Expr:
        items = [self._parse_not()]
        while self._accept_keyword("AND"):
            items.append(self._parse_not())
        return items[0] if len(items) == 1 else ast.And(items)

    def _parse_not(self) -> ast.Expr:
        if self._accept_keyword("NOT"):
            return ast.Not(self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> ast.Expr:
        left = self._parse_additive()
        token = self._peek()
        if token.is_punct("=", "<>", "<", "<=", ">", ">="):
            self._advance()
            right = self._parse_additive()
            return ast.Cmp(str(token.value), left, right)
        if token.is_keyword("NOT") and self._tokens[self._pos + 1].is_keyword(
            "BETWEEN", "IN", "LIKE"
        ):
            self._advance()
            return ast.Not(self._parse_predicate_tail(left))
        if token.is_keyword("BETWEEN", "IN", "LIKE"):
            return self._parse_predicate_tail(left)
        if token.is_keyword("IS"):
            self._advance()
            negated = self._accept_keyword("NOT") is not None
            self._expect_keyword("NULL")
            check: ast.Expr = ast.IsNull(left)
            return ast.Not(check) if negated else check
        return left

    def _parse_predicate_tail(self, left: ast.Expr) -> ast.Expr:
        """``BETWEEN .. AND ..``, ``IN (..)`` or ``LIKE ..`` after ``left``."""
        if self._accept_keyword("BETWEEN"):
            low = self._parse_additive()
            self._expect_keyword("AND")
            high = self._parse_additive()
            return ast.Between(left, low, high)
        if self._accept_keyword("IN"):
            self._expect_punct("(")
            values = [self._parse_literal_value()]
            while self._accept_punct(","):
                values.append(self._parse_literal_value())
            self._expect_punct(")")
            return ast.InList(left, values)
        self._expect_keyword("LIKE")
        if self._peek().type is not TokenType.STRING:
            raise self._error("expected string pattern after LIKE")
        return ast.Like(left, self._literal())

    def _parse_literal_value(self) -> object:
        token = self._peek()
        if token.type in _LITERALS:
            return self._literal()
        if token.is_keyword(*_KEYWORD_VALUES):
            return _KEYWORD_VALUES[self._advance().value]
        if token.is_punct("-"):
            self._advance()
            if self._peek().type is not TokenType.NUMBER:
                raise self._error("expected number after '-'")
            return -self._literal(plain=True)
        raise self._error("expected literal")

    def _parse_additive(self) -> ast.Expr:
        left = self._parse_multiplicative()
        while True:
            token = self._accept_punct("+", "-")
            if token is None:
                return left
            right = self._parse_multiplicative()
            left = ast.Arith(str(token.value), left, right)

    def _parse_multiplicative(self) -> ast.Expr:
        left = self._parse_unary()
        while True:
            token = self._accept_punct("*", "/")
            if token is None:
                return left
            right = self._parse_unary()
            left = ast.Arith(str(token.value), left, right)

    def _parse_unary(self) -> ast.Expr:
        if self._accept_punct("-"):
            return ast.Neg(self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expr:
        token = self._peek()
        if token.type in _LITERALS:
            return ast.Lit(self._literal())
        if token.is_keyword(*_KEYWORD_VALUES):
            return ast.Lit(_KEYWORD_VALUES[self._advance().value])
        if token.is_keyword(*ast.AGG_FUNCS):
            return self._parse_aggregate()
        if token.is_punct("("):
            self._advance()
            expr = self._parse_expr()
            self._expect_punct(")")
            return expr
        if token.type is TokenType.IDENT:
            return self._parse_column()
        raise self._error("expected expression")

    def _parse_aggregate(self) -> ast.Expr:
        func = str(self._advance().value)
        self._expect_punct("(")
        distinct = self._accept_keyword("DISTINCT") is not None
        if self._accept_punct("*"):
            arg: Optional[ast.Expr] = None
        else:
            arg = self._parse_expr()
        self._expect_punct(")")
        return ast.AggCall(func, arg, distinct)

    def _parse_column(self) -> ast.Column:
        first = self._expect_ident()
        if self._accept_punct("."):
            second = self._expect_ident()
            return ast.Column(f"{first}.{second}")
        return ast.Column(first)
