import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SQLSyntaxError
from repro.sql.lexer import (
    KEYWORDS,
    TokenType,
    literal_value,
    shape,
    tokenize,
)
from repro.sql.parser import parse
from repro.workloads import airca, mot
from repro.workloads.tpch import queries as tpch_queries
from repro.workloads.traffic import airca_traffic_mix


class TestLexer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("SeLeCt from WHERE")
        assert [t.value for t in tokens[:-1]] == ["SELECT", "FROM", "WHERE"]
        assert all(t.type is TokenType.KEYWORD for t in tokens[:-1])

    def test_identifiers_preserve_case(self):
        tokens = tokenize("MyTable my_col")
        assert tokens[0].value == "MyTable"
        assert tokens[1].value == "my_col"

    def test_numbers(self):
        tokens = tokenize("42 3.14 .5")
        assert tokens[0].value == 42 and isinstance(tokens[0].value, int)
        assert tokens[1].value == 3.14
        assert tokens[2].value == 0.5

    def test_string_literal(self):
        tokens = tokenize("'GERMANY'")
        assert tokens[0].type is TokenType.STRING
        assert tokens[0].value == "GERMANY"

    def test_string_escaped_quote(self):
        assert tokenize("'it''s'")[0].value == "it's"

    def test_unterminated_string(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("'oops")

    def test_operators(self):
        tokens = tokenize("<= >= <> != = < >")
        values = [t.value for t in tokens[:-1]]
        assert values == ["<=", ">=", "<>", "<>", "=", "<", ">"]

    def test_qualified_name_tokens(self):
        tokens = tokenize("a.b")
        assert [t.value for t in tokens[:-1]] == ["a", ".", "b"]

    def test_comment_skipped(self):
        tokens = tokenize("select -- a comment\n 1")
        assert [t.value for t in tokens[:-1]] == ["SELECT", 1]

    def test_unexpected_char(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("select @")

    def test_eof_token(self):
        assert tokenize("")[-1].type is TokenType.EOF

    def test_number_then_dot_punct(self):
        # "1." followed by identifier must not eat the dot into the number
        tokens = tokenize("t1.a")
        assert [t.value for t in tokens[:-1]] == ["t1", ".", "a"]


# --- the regex lexer against the character loop it replaced ---------------


PUNCT = {
    "<=", ">=", "<>", "!=", "=", "<", ">", "(", ")", ",", "*", "+", "-",
    "/", ".",
}


def _loop_tokenize(text):
    """The tokenizer as it was before ISSUE 24 — the differential oracle,
    kept word for word but for the two bugs pinned in
    :class:`TestLexerBugsFixed`: a literal records where it starts (it
    recorded where it ended), and a number glued to an identifier
    character is an error (it lexed ``1e5`` as ``1`` then ``e5``)."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "-" and text[i:i + 2] == "--":
            end = text.find("\n", i)
            i = n if end < 0 else end + 1
            continue
        if ch == "'":
            start = i
            value, i = _loop_read_string(text, i)
            tokens.append((TokenType.STRING, value, start))
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            start = i
            value, i = _loop_read_number(text, i)
            if i < n and (text[i].isalpha() or text[i] == "_"):
                raise SQLSyntaxError("malformed number", start)
            tokens.append((TokenType.NUMBER, value, start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append((TokenType.KEYWORD, upper, start))
            else:
                tokens.append((TokenType.IDENT, word, start))
            continue
        two = text[i:i + 2]
        if two in PUNCT:
            symbol = "<>" if two == "!=" else two
            tokens.append((TokenType.PUNCT, symbol, i))
            i += 2
            continue
        if ch in PUNCT:
            tokens.append((TokenType.PUNCT, ch, i))
            i += 1
            continue
        raise SQLSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append((TokenType.EOF, None, n))
    return tokens


def _loop_read_string(text, i):
    out = []
    i += 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "'":
            if i + 1 < n and text[i + 1] == "'":
                out.append("'")
                i += 2
                continue
            return "".join(out), i + 1
        out.append(ch)
        i += 1
    raise SQLSyntaxError("unterminated string literal", i)


def _loop_read_number(text, i):
    start = i
    n = len(text)
    seen_dot = False
    while i < n and (text[i].isdigit() or (text[i] == "." and not seen_dot)):
        if text[i] == ".":
            if i + 1 >= n or not text[i + 1].isdigit():
                break
            seen_dot = True
        i += 1
    raw = text[start:i]
    return (float(raw) if "." in raw else int(raw)), i


def _outcome(lex, text):
    """The tokens, types included (``1`` is not ``1.0``), or the error."""
    try:
        return [(t, type(v), v, p) for t, v, p in lex(text)]
    except SQLSyntaxError as error:
        return type(error), error.position


def _assert_lexers_agree(text):
    assert _outcome(tokenize, text) == _outcome(_loop_tokenize, text), text
    try:
        tokens = tokenize(text)
    except SQLSyntaxError:
        return
    # what `shape` cuts out is what `tokenize` calls a literal
    skeleton, literals = shape(text)
    if "--" in text:
        assert literals is None or "--" in "".join(literals)
        return
    values = [t.value for t in tokens if t.type in (TokenType.NUMBER, TokenType.STRING)]
    found = [literal_value(each) for each in literals]
    assert [(type(v), v) for v in found] == [(type(v), v) for v in values], text
    assert len(skeleton) == len(literals) + 1


def _workload_sql():
    rng = random.Random(24)
    airca_db = airca.generate_airca(scale=0.05, seed=3)
    mot_db = mot.generate_mot(scale=0.05, seed=3)
    for _ in range(3):
        params = airca.sample_params(airca_db, rng)
        yield from (t.format(**params) for t in airca.TEMPLATES.values())
        params = mot.sample_params(mot_db, rng)
        yield from (t.format(**params) for t in mot.TEMPLATES.values())
        yield from (c.make_sql(rng) for c in airca_traffic_mix(airca_db))
    yield from tpch_queries.QUERIES.values()


class TestRegexLexerIsTheLoop:
    def test_on_every_workload_statement(self):
        statements = list(_workload_sql())
        assert len(statements) > 90
        for sql in statements:
            _assert_lexers_agree(sql)

    @pytest.mark.parametrize(
        "text",
        [
            "a = 'it''s' and b = ''",
            ".5 + 1. + 1.5.5 + 1..5",
            "t1.a2 > q1.x_9 and F.5",
            "x -- c'mon 5\n= 7 --",
            "a<=b>=c<>d!=e=f<g>h(i),j*k+l-m/n.o",
            "'open",
            "a ! b",
            "x = 1e5",
            "y = 12abc and 3_4",
            "n = .5e",
            "\x1f1 = ٣",
            "'a'5'b'",
        ],
    )
    def test_on_the_corners(self, text):
        _assert_lexers_agree(text)

    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from(
                    ["select", "where", "F", ".", "a2", "q1", "=", "<=", "!=",
                     "<", "-", "--", "\n", " ", "'", "''", "'x'", "1", "0.5",
                     ".5", "1.", "e5", "_", "(", ",", ")", "é", "@", "!"]
                ),
                st.text(alphabet="ab1 .'-\n_", max_size=4),
            ),
            max_size=12,
        ).map("".join)
    )
    def test_on_generated_text(self, text):
        _assert_lexers_agree(text)


class TestLexerBugsFixed:
    def test_a_literal_records_where_it_starts(self):
        text = "select F.a from FLIGHT F where F.b = 'abc' 'def'"
        tokens = tokenize(text)
        abc, def_ = tokens[-3], tokens[-2]
        # the loop recorded 43 and 49 — where each literal *ends*
        assert (abc.value, abc.position) == ("abc", text.index("'abc'")) == ("abc", 37)
        assert (def_.value, def_.position) == ("def", 43)
        with pytest.raises(SQLSyntaxError) as caught:
            parse(text)
        assert caught.value.position == 43
        number = tokenize("x =  1.25 ")[2]
        assert (number.value, number.position) == (1.25, 5)

    @pytest.mark.parametrize("text", ["1e5", "1.5e3", ".5x", "12abc", "1_000"])
    def test_a_number_glued_to_a_word_is_an_error(self, text):
        # the loop lexed NUMBER then IDENT: `select F.a, 1e5 from FLIGHT F`
        # parsed as `1 AS e5`
        with pytest.raises(SQLSyntaxError, match="malformed number") as caught:
            parse(f"select F.a, {text} from FLIGHT F")
        assert caught.value.position == len("select F.a, ")
        assert text in str(caught.value)

    def test_a_number_before_a_dot_or_an_operator_is_not(self):
        values = [t.value for t in tokenize("1.a 2<3 4.")[:-1]]
        assert values == [1, ".", "a", 2, "<", 3, 4, "."]


class TestShape:
    def test_literals_are_cut_out_in_order(self):
        skeleton, literals = shape("select 1 from T where a = 'x''y' and b < 2.5")
        assert skeleton == ("select ", " from T where a = ", " and b < ", "")
        assert literals == ["1", "'x''y'", "2.5"]
        assert [literal_value(each) for each in literals] == [1, "x'y", 2.5]

    def test_digits_of_an_identifier_stay(self):
        assert shape("select q1.a2 from T3 q1") == (("select q1.a2 from T3 q1",), [])

    def test_a_comment_is_not_a_shape(self):
        assert shape("select 1 -- it's 5\n from T")[1] is None
        assert shape("select '--' from T")[1] == ["'--'"]
