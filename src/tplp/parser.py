"""Text format for temporal probabilistic programs, queries, evolution
skeletons and ``ialg`` interval expressions, all read by one lexer.

Program grammar (``%`` comments run to end of line)::

    program   := calendar clause*
    calendar  := "calendar" INT ".." INT "."
    clause    := head ( ":-" body )? "."
    head      := tatom ":" annot
    body      := bform ":" annot ( "and" bform ":" annot )*
    tatom     := IDENT ( "(" term ("," term)* ")" )? "@" (TVAR | INT)
    bform     := tatom ( ("and"|"or") tatom )*          -- homogeneous
    annot     := "<" constr "," weights "," weights ">"
    constr    := leaf | constr ("and"|"or") constr | "not" constr | "(" constr ")"
    leaf      := TVAR OP iexpr | TVAR ":" iexpr "~" iexpr
    OP        := "<=" | "<" | "=" | "!=" | ">" | ">="
    weights   := "#" | "uniform" | "[" NUM ("," NUM)* "]"

Identifiers starting with an upper-case letter are object variables, except
those starting with ``Y`` which are temporal variables; lower-case identifiers
are constants.  ``and`` binds atoms inside a formula before the ``:`` and
separates body conjuncts after an annotation.  NUM is an integer, a decimal
with at most nine fractional digits, or an exact ratio ``n/d``, in ASCII
digits; ``intervals.parse_rational`` states that rule for every number a user
types, and the parser only collects a literal's tokens for it.  An optional
``constants a, b.`` statement declares constants beyond the occurring ones.
A constraint nests at most ``MAX_NESTING`` levels, and so does an ``ialg``
expression.

Query files hold a single statement::

    "?" "entail" bform ":" annot "."
    "?" "tighten" gform "."      -- atom times all "@t" (one shared t) or all "@*"
"""

from __future__ import annotations

import bisect
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .diagnostics import Diagnostic, DiagnosticKind, SourceSpan, error
from .intervals import OPERATORS, ProbInterval, format_rational, parse_int, parse_rational
from .model import (
    BasicFormula,
    CAtom,
    Calendar,
    CAnd,
    Cmp,
    CNot,
    Connective,
    COr,
    ObjVar,
    PTProgram,
    TAtom,
    TBin,
    TConst,
    TimeRange,
    TPAnnotation,
    TPClause,
    TRef,
    TVar,
    WeightFunction,
    WeightKind,
    arity_errors,
    companion_vars,
    constraint_principal,
    occurring_constants,
)

# --- lexer ----------------------------------------------------------------------

# Operator and punctuation lexemes, each its own token type.
_OPERATORS = {
    "..": "DOTDOT",
    ":-": "IMPL",
    "<=": "LE",
    ">=": "GE",
    "!=": "NE",
    ".": "DOT",
    ",": "COMMA",
    ":": "COLON",
    "~": "TILDE",
    "@": "AT",
    "<": "LT",
    ">": "GT",
    "=": "EQ",
    "(": "LPAREN",
    ")": "RPAREN",
    "[": "LBRACK",
    "]": "RBRACK",
    "#": "HASH",
    "*": "STAR",
    "+": "PLUS",
    "-": "MINUS",
    "/": "SLASH",
    "?": "QMARK",
}
# Cuts a text into lexemes, each character in exactly one: whitespace, a
# comment, a number, a word, a two-character operator, or any one character.
_LEXEME = re.compile(
    r"[ \t\r\n]+|%[^\n]*|[0-9]+(?:\.[0-9]+)?|[A-Za-z][A-Za-z0-9_]*|"
    + "|".join(re.escape(op) for op in _OPERATORS if len(op) == 2)
    + "|.",
    re.S,
)
# The token type of a lexeme that is no operator, by its first character: ""
# for whitespace and comments, which make no token.  A number with a "." is
# a DEC.  A character in neither table is an error.
_BY_FIRST = {
    **dict.fromkeys("0123456789", "INT"),
    **dict.fromkeys("abcdefghijklmnopqrstuvwxyz", "IDENT"),
    **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZ", "VAR"),
    **dict.fromkeys(" \t\r\n%", ""),
}
_NEWLINE = re.compile("\n")


class Token:
    """A lexeme: its type, its text and the half-open range of character
    offsets it covers.  Spans are built from tokens only where a node or a
    diagnostic keeps one (see ``_Cursor.span``)."""

    __slots__ = ("type", "text", "start", "end")

    def __init__(self, type_: str, text: str, start: int, end: int):
        self.type = type_
        self.text = text
        self.start = start
        self.end = end


def _span(line_starts: list[int], start: int, end: int) -> SourceSpan:
    """The span of [start, end), its line and column found by one bisect over
    the offsets at which the text's lines start."""
    line = bisect.bisect_right(line_starts, start)
    return SourceSpan(line, start - line_starts[line - 1] + 1, start, end)


def _line_starts(text: str) -> list[int]:
    return [0, *(m.end() for m in _NEWLINE.finditer(text))]


def _lex(text: str) -> tuple[list[Token], list[Diagnostic]]:
    """The tokens of text, ending in EOF, and a diagnostic for each character
    no token takes.  Lexemes tile the text, so each starts where the last
    ended."""
    tokens: list[Token] = []
    diags: list[Diagnostic] = []
    line_starts = None  # found at the first diagnostic
    append = tokens.append
    end = 0
    for lexeme in _LEXEME.findall(text):
        start = end
        end += len(lexeme)
        kind = _OPERATORS.get(lexeme) or _BY_FIRST.get(lexeme[0])
        if kind:
            if kind == "INT" and "." in lexeme:
                kind = "DEC"
            append(Token(kind, lexeme, start, end))
        elif kind is None:
            line_starts = line_starts or _line_starts(text)
            span = _span(line_starts, start, end)
            diags.append(error(DiagnosticKind.SYNTAX, f"unexpected character {lexeme!r}", span))
    append(Token("EOF", "", end, end))
    return tokens, diags


# --- parse results ---------------------------------------------------------------


@dataclass
class ParseResult:
    program: PTProgram | None
    diagnostics: list[Diagnostic]

    @property
    def ok(self) -> bool:
        return self.program is not None

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.is_error]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if not d.is_error]


class QueryKind(Enum):
    ENTAIL = "entail"
    TIGHTEN = "tighten"


@dataclass(frozen=True)
class Query:
    kind: QueryKind
    formula: BasicFormula
    annot: TPAnnotation | None = None  # entailment target
    at: int | None = None  # tighten time point; None means every calendar point
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@dataclass
class QueryResult:
    query: Query | None
    diagnostics: list[Diagnostic]

    @property
    def ok(self) -> bool:
        return self.query is not None


class _Unexpected(Exception):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(message)
        self.message = message
        self.span = span


class _Cursor:
    """Reads tokens by index.  The last token is EOF, which advancing never
    passes, so the index always names a token."""

    def __init__(self, text: str):
        self.tokens, self.diags = _lex(text)
        self.line_starts = _line_starts(text)
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def at(self, type_: str, text: str | None = None) -> bool:
        tok = self.tokens[self.i]
        return tok.type == type_ and (text is None or tok.text == text)

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        if tok.type != "EOF":
            self.i += 1
        return tok

    def accept(self, type_: str, text: str | None = None) -> Token | None:
        """The next token, consumed, if it is a type_ with that text, else
        None.  type_ is never EOF: only expect reads that."""
        tok = self.tokens[self.i]
        if tok.type == type_ and (text is None or tok.text == text):
            self.i += 1
            return tok
        return None

    def expect(self, type_: str, what: str) -> Token:
        tok = self.tokens[self.i]
        if tok.type == type_:
            if type_ != "EOF":
                self.i += 1
            return tok
        shown = tok.text or "end of input"
        raise _Unexpected(f"expected {what}, found {shown!r}", self.span(tok))

    def span(self, tok: Token) -> SourceSpan:
        return _span(self.line_starts, tok.start, tok.end)

    def span_from(self, first: Token) -> SourceSpan:
        """The span from first to the end of the last token consumed."""
        return _span(self.line_starts, first.start, self.tokens[self.i - 1].end)

    def sync_to_dot(self):
        """Error recovery: skip past the next clause terminator."""
        while not self.at("EOF"):
            if self.advance().type == "DOT":
                return


# The deepest an annotation's constraint, with its temporal terms, or an
# ``ialg`` expression may nest: parentheses, "not", unary minus and operator
# calls each open a level, and the tree a constraint builds may be no deeper,
# so a flat chain of "and" or "+" counts one level per operator.  Deeper input
# is a syntax error, not a stack overflow in this parser or in the model's
# recursive walks of the tree (companion_vars, solve_constraint, __str__).
MAX_NESTING = 100
_TOO_DEEP = f"nested deeper than {MAX_NESTING} levels"

_TREE_NODES = (CAnd, Cmp, CNot, COr, TBin, TConst, TimeRange, TRef)


def _tree_depth(node) -> int:
    """The depth of a constraint or temporal term tree, walked without
    recursion."""
    deepest, stack = 0, [(node, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        stack.extend((c, depth + 1) for c in vars(node).values() if isinstance(c, _TREE_NODES))
    return deepest


class _ProgramParser:
    def __init__(self, text: str):
        self.cur = _Cursor(text)
        self.diags = self.cur.diags
        self.rejected_numbers = 0
        self.nesting = 0  # constraint and term levels open, see MAX_NESTING

    @contextmanager
    def nested(self, tok: Token):
        """One more constraint or term level, opened by tok: a parenthesis,
        "not" or a unary minus."""
        if self.nesting == MAX_NESTING:
            raise _Unexpected(f"constraint {_TOO_DEEP}", self.cur.span(tok))
        self.nesting += 1
        try:
            yield
        finally:
            self.nesting -= 1

    # -- small pieces --

    def parse_number(self) -> Fraction:
        """Collect a NUM literal's tokens (INT ["/" INT] or DEC) for
        ``parse_rational``.  A literal it rejects is one diagnostic and reads
        as 0, so that the clause parses on to its next syntax error; the
        program then leaves that clause out (see ``parse_program``)."""
        first = self.cur.peek()
        if self.cur.accept("INT"):
            literal = first.text
            if self.cur.accept("SLASH"):
                literal += "/" + self.cur.expect("INT", "a denominator").text
        elif self.cur.accept("DEC"):
            literal = first.text
        else:
            raise _Unexpected("expected a number", self.cur.span(first))
        try:
            return parse_rational(literal)
        except ValueError as exc:
            self.diags.append(error(DiagnosticKind.SYNTAX, str(exc), self.cur.span_from(first)))
            self.rejected_numbers += 1
            return Fraction(0)

    def int_of(self, tok: Token) -> int:
        """An INT token's value; one too long to read is an error at the token."""
        try:
            return parse_int(tok.text)
        except ValueError as exc:
            raise _Unexpected(str(exc), self.cur.span(tok)) from None

    def parse_prob(self) -> Fraction:
        """A NUM in [0, 1].  One above 1 is rejected as parse_number rejects
        a malformed literal: one diagnostic, read as 0, clause left out."""
        start = self.cur.peek()
        value = self.parse_number()
        if not 0 <= value.numerator <= value.denominator:
            self.diags.append(
                error(
                    DiagnosticKind.VALUE_RANGE,
                    f"probability {format_rational(value)} outside [0,1]",
                    self.cur.span(start),
                )
            )
            self.rejected_numbers += 1
            return Fraction(0)
        return value

    def parse_weights(self) -> WeightFunction:
        if tok := self.cur.accept("HASH"):
            return WeightFunction(WeightKind.SHARP, (), self.cur.span(tok))
        if tok := self.cur.accept("IDENT", "uniform"):
            return WeightFunction(WeightKind.UNIFORM, (), self.cur.span(tok))
        start = self.cur.expect("LBRACK", "a weight function ('#', 'uniform' or '[...]')")
        values = [self.parse_prob()]
        while self.cur.accept("COMMA"):
            values.append(self.parse_prob())
        self.cur.expect("RBRACK", "']'")
        return WeightFunction(WeightKind.LIST, tuple(values), self.cur.span_from(start))

    def parse_tvar(self) -> tuple[TVar, Token]:
        tok = self.cur.expect("VAR", "a temporal variable")
        if not tok.text.startswith("Y"):
            raise _Unexpected(
                f"{tok.text} is an object variable; temporal variables start with Y",
                self.cur.span(tok),
            )
        return TVar(tok.text), tok

    def parse_negated_ifactor(self):
        inner = self.parse_ifactor()
        return TConst(-inner.value) if isinstance(inner, TConst) else TBin("-", TConst(0), inner)

    def parse_ifactor(self):
        if tok := self.cur.accept("MINUS"):
            with self.nested(tok):
                return self.parse_negated_ifactor()
        if tok := self.cur.accept("LPAREN"):
            with self.nested(tok):
                e = self.parse_iexpr()
            self.cur.expect("RPAREN", "')'")
            return e
        if tok := self.cur.accept("INT"):
            return TConst(self.int_of(tok))
        var, _ = self.parse_tvar()
        return TRef(var)

    def parse_iterm(self, first=None):
        left = first if first is not None else self.parse_ifactor()
        while self.cur.accept("STAR"):
            left = TBin("*", left, self.parse_ifactor())
        return left

    def parse_iexpr(self, first=None):
        left = self.parse_iterm(first)
        while (op := self.cur.peek()).type == "PLUS" or op.type == "MINUS":
            self.cur.advance()
            left = TBin(op.text, left, self.parse_iterm())
        return left

    _CMP = {"LE": "<=", "LT": "<", "EQ": "=", "NE": "!=", "GT": ">", "GE": ">="}

    def parse_leaf(self):
        var, vtok = self.parse_tvar()
        tok = self.cur.peek()
        if tok.type in self._CMP:
            self.cur.advance()
            rhs = self.parse_iexpr()
            return Cmp(var, self._CMP[tok.type], rhs, self.cur.span(vtok))
        if self.cur.accept("IMPL"):
            # "Y:-2" lexes as ':-'; re-read it as ':' plus a negated factor.
            first = self.parse_negated_ifactor()
        elif self.cur.accept("COLON"):
            first = None
        else:
            raise _Unexpected("expected a comparison operator or ':'", self.cur.span(tok))
        lo = self.parse_iexpr(first)
        self.cur.expect("TILDE", "'~'")
        hi = self.parse_iexpr()
        return TimeRange(var, lo, hi, self.cur.span(vtok))

    def parse_cunary(self):
        if tok := self.cur.accept("IDENT", "not"):
            with self.nested(tok):
                return CNot(self.parse_cunary())
        if tok := self.cur.accept("LPAREN"):
            with self.nested(tok):
                c = self.parse_constr()
            self.cur.expect("RPAREN", "')'")
            return c
        return self.parse_leaf()

    def parse_cand(self):
        left = self.parse_cunary()
        while self.cur.accept("IDENT", "and"):
            left = CAnd(left, self.parse_cunary())
        return left

    def parse_constr(self):
        left = self.parse_cand()
        while self.cur.accept("IDENT", "or"):
            left = COr(left, self.parse_cand())
        return left

    def parse_annot(self, tvar: TVar | None) -> TPAnnotation:
        """The annotation of a formula whose temporal variable is tvar (None
        when its atoms are time-ground), which the annotation must bind."""
        start = self.cur.expect("LT", "'<' starting an annotation")
        first = self.cur.i
        constraint = self.parse_constr()
        # every level of the tree takes a token of its own, so only a
        # constraint of more tokens than MAX_NESTING can be too deep
        if self.cur.i - first > MAX_NESTING and _tree_depth(constraint) > MAX_NESTING:
            raise _Unexpected(f"constraint {_TOO_DEEP}", self.cur.span(start))
        try:
            principal = constraint_principal(constraint)
        except ValueError as exc:
            raise _Unexpected(str(exc), self.cur.span(start)) from None
        if principal.name in companion_vars(constraint):
            raise _Unexpected(
                f"principal variable {principal.name} may not occur inside a temporal term",
                self.cur.span(start),
            )
        self.cur.expect("COMMA", "','")
        lower = self.parse_weights()
        self.cur.expect("COMMA", "','")
        upper = self.parse_weights()
        self.cur.expect("GT", "'>' closing the annotation")
        span = self.cur.span_from(start)
        if tvar is not None and tvar != principal:
            raise _Unexpected(
                f"formula uses temporal variable {tvar.name} but the annotation binds "
                f"{principal.name}",
                span,
            )
        return TPAnnotation(constraint, lower, upper, span)

    def parse_term(self):
        tok = self.cur.peek()
        if tok.type == "IDENT":
            self.cur.advance()
            return tok.text
        if tok.type == "VAR":
            if tok.text.startswith("Y"):
                raise _Unexpected(
                    f"temporal variable {tok.text} cannot appear in an object position",
                    self.cur.span(tok),
                )
            self.cur.advance()
            return ObjVar(tok.text)
        raise _Unexpected("expected a constant or object variable", self.cur.span(tok))

    def parse_tatom(self, allow_star: bool = False) -> tuple[TAtom, str | None]:
        """Returns the atom plus a time marker: None for symbolic, 'int', or '*'."""
        name = self.cur.expect("IDENT", "a predicate name")
        args: list = []
        if self.cur.accept("LPAREN"):
            args.append(self.parse_term())
            while self.cur.accept("COMMA"):
                args.append(self.parse_term())
            self.cur.expect("RPAREN", "')'")
        self.cur.expect("AT", "'@'")
        tok = self.cur.peek()
        marker: str | None = None
        if tok.type == "VAR" and tok.text.startswith("Y"):
            self.cur.advance()
            time = TVar(tok.text)
        elif tok.type == "INT":
            self.cur.advance()
            time = self.int_of(tok)
            marker = "int"
        elif allow_star and tok.type == "STAR":
            self.cur.advance()
            time = TVar("Y")
            marker = "*"
        else:
            raise _Unexpected(
                "expected a temporal variable or time point after '@'", self.cur.span(tok)
            )
        return TAtom(name.text, tuple(args), time, self.cur.span_from(name)), marker

    def parse_compound(self, parse_atom) -> tuple[Connective, tuple]:
        """atom ( ("and"|"or") atom )*: the connective, SINGLE for one atom, and
        the parsed atoms.  Mixing connectives is an error; the first one wins."""
        items = [parse_atom()]
        connective = None
        while (word := self.cur.peek()).type == "IDENT" and word.text in ("and", "or"):
            self.cur.advance()
            connective = connective or word.text
            if connective != word.text:
                self.diags.append(
                    error(
                        DiagnosticKind.SYNTAX,
                        "a compound formula must use a single connective",
                        self.cur.span(word),
                    )
                )
            items.append(parse_atom())
        if len(items) == 1:
            return Connective.SINGLE, tuple(items)
        return Connective.OR if connective == "or" else Connective.AND, tuple(items)

    def parse_bform(self, allow_star: bool = False) -> tuple[BasicFormula, list[str | None]]:
        first_tok = self.cur.peek()
        conn, items = self.parse_compound(lambda: self.parse_tatom(allow_star))
        atoms = tuple(a for a, _ in items)
        span = self.cur.span_from(first_tok)
        formula = BasicFormula(conn, atoms, span)
        try:
            formula.temporal_var
        except ValueError as exc:
            raise _Unexpected(str(exc), span) from None
        return formula, [m for _, m in items]

    def parse_clause(self) -> TPClause:
        head_tok = self.cur.peek()
        head, _ = self.parse_tatom()
        self.cur.expect("COLON", "':' before the head annotation")
        head_annot = self.parse_annot(head.time if isinstance(head.time, TVar) else None)
        body: list[tuple[BasicFormula, TPAnnotation]] = []
        if self.cur.accept("IMPL"):
            while True:
                formula, _ = self.parse_bform()
                self.cur.expect("COLON", "':' before a body annotation")
                body.append((formula, self.parse_annot(formula.temporal_var)))
                if not self.cur.accept("IDENT", "and"):
                    break
        self.cur.expect("DOT", "'.' ending the clause")
        return TPClause(head, head_annot, tuple(body), self.cur.span_from(head_tok))

    def parse_calendar(self) -> Calendar | None:
        if not self.cur.at("IDENT", "calendar"):
            tok = self.cur.peek()
            self.diags.append(
                error(
                    DiagnosticKind.SYNTAX,
                    "a program must start with 'calendar <first>..<last>.'",
                    self.cur.span(tok),
                )
            )
            return None
        self.cur.advance()
        try:
            first = self.int_of(self.cur.expect("INT", "the first calendar point"))
            self.cur.expect("DOTDOT", "'..'")
            last_tok = self.cur.expect("INT", "the last calendar point")
            last = self.int_of(last_tok)
            self.cur.expect("DOT", "'.'")
        except _Unexpected as exc:
            self.diags.append(error(DiagnosticKind.SYNTAX, exc.message, exc.span))
            self.cur.sync_to_dot()
            return None
        if last < first:
            self.diags.append(
                error(DiagnosticKind.SYNTAX, "calendar range is empty", self.cur.span(last_tok))
            )
            return None
        return Calendar.from_range(first, last)

    def parse_program(self) -> ParseResult:
        calendar = self.parse_calendar()
        clauses: list[TPClause] = []
        declared: set[str] = set()
        while not self.cur.at("EOF"):
            if self.cur.at("IDENT", "constants"):
                self.cur.advance()
                try:
                    tok = self.cur.expect("IDENT", "a constant name")
                    declared.add(tok.text)
                    while self.cur.accept("COMMA"):
                        declared.add(self.cur.expect("IDENT", "a constant name").text)
                    self.cur.expect("DOT", "'.'")
                except _Unexpected as exc:
                    self.diags.append(error(DiagnosticKind.SYNTAX, exc.message, exc.span))
                    self.cur.sync_to_dot()
                continue
            try:
                rejected = self.rejected_numbers
                clause = self.parse_clause()
                # a 0 read in place of a rejected number would only add
                # validation errors against a value nobody wrote
                if self.rejected_numbers == rejected:
                    clauses.append(clause)
            except _Unexpected as exc:
                self.diags.append(error(DiagnosticKind.SYNTAX, exc.message, exc.span))
                self.cur.sync_to_dot()
        if calendar is None:
            return ParseResult(None, self.diags)
        program = PTProgram(calendar, tuple(clauses), frozenset(declared))
        self.diags.extend(program.validate())
        if any(d.is_error for d in self.diags):
            return ParseResult(None, self.diags)
        return ParseResult(program, self.diags)

    def parse_query(self) -> QueryResult:
        """The query, or None when any diagnostic is an error: a rejected
        number in the target annotation rejects the query."""
        try:
            query = self._query()
        except _Unexpected as exc:
            self.diags.append(error(DiagnosticKind.SYNTAX, exc.message, exc.span))
            query = None
        if any(d.is_error for d in self.diags):
            query = None
        return QueryResult(query, self.diags)

    def _query(self) -> Query:
        self.cur.expect("QMARK", "'?' starting a query")
        kw = self.cur.expect("IDENT", "'entail' or 'tighten'")
        if kw.text == "entail":
            formula, _ = self.parse_bform()
            self.cur.expect("COLON", "':' before the target annotation")
            annot = self.parse_annot(formula.temporal_var)
            # a query grounds nothing, so no companion could ever be given a value
            companions = companion_vars(annot.constraint)
            if companions:
                raise _Unexpected(
                    f"query constraints cannot use companion temporal variables, found "
                    f"{', '.join(sorted(companions))}",
                    annot.span,
                )
            self.cur.expect("DOT", "'.'")
            self.cur.expect("EOF", "end of input")
            self._require_object_ground(formula)
            return Query(QueryKind.ENTAIL, formula, annot=annot, span=formula.span)
        if kw.text == "tighten":
            formula, markers = self.parse_bform(allow_star=True)
            self.cur.expect("DOT", "'.'")
            self.cur.expect("EOF", "end of input")
            self._require_object_ground(formula)
            if all(m == "*" for m in markers):
                at = None
            elif all(m == "int" for m in markers):
                times = {a.time for a in formula.atoms}
                if len(times) != 1:
                    raise _Unexpected(
                        "tighten atoms must share a single time point (or all use '*')",
                        formula.span,
                    )
                at = next(iter(times))
                formula = BasicFormula(
                    formula.connective,
                    tuple(TAtom(a.predicate, a.args, TVar("Y"), a.span) for a in formula.atoms),
                    formula.span,
                )
            else:
                raise _Unexpected(
                    "tighten atoms must all carry '@<time>' or all carry '@*'", formula.span
                )
            return Query(QueryKind.TIGHTEN, formula, at=at, span=formula.span)
        raise _Unexpected(f"unknown query form {kw.text!r}", self.cur.span(kw))

    def _require_object_ground(self, formula: BasicFormula):
        for a in formula.atoms:
            if a.object_vars:
                raise _Unexpected(
                    f"queries require ground object terms, found variable(s) "
                    f"{', '.join(sorted(a.object_vars))}",
                    a.span,
                )


def parse_program(text: str) -> ParseResult:
    return _ProgramParser(text).parse_program()


def parse_query(text: str) -> QueryResult:
    return _ProgramParser(text).parse_query()


# --- evolution skeletons ----------------------------------------------------------
#
# Skeleton files carry timeless, annotation-free clauses; conjuncts are comma
# separated since there is no annotation to delimit them:
#
#     skeleton := calendar sclause*
#     sclause  := satom ( ":-" sformula ("," sformula)* )? "."
#     sformula := satom ( ("and"|"or") satom )*
#     satom    := IDENT ( "(" IDENT ("," IDENT)* ")" )?


@dataclass(frozen=True)
class SkeletonClause:
    head: CAtom
    body: tuple[BasicFormula, ...] = ()  # formulas over CAtoms


@dataclass(frozen=True)
class PSkeleton:
    """A probabilistic program shape: clauses without annotations or times."""

    calendar: Calendar
    clauses: tuple[SkeletonClause, ...]

    def formula_slots(self) -> list[tuple[str, BasicFormula]]:
        """Positional formula identifiers: c<i>.head and c<i>.b<j>."""
        slots: list[tuple[str, BasicFormula]] = []
        for i, cl in enumerate(self.clauses):
            slots.append((f"c{i}.head", BasicFormula.single(cl.head)))
            for j, f in enumerate(cl.body):
                slots.append((f"c{i}.b{j}", f))
        return slots


class _SkeletonParser(_ProgramParser):
    def parse_satom(self) -> CAtom:
        name = self.cur.expect("IDENT", "a predicate name")
        args: list[str] = []
        if self.cur.accept("LPAREN"):
            args.append(self.cur.expect("IDENT", "a constant").text)
            while self.cur.accept("COMMA"):
                args.append(self.cur.expect("IDENT", "a constant").text)
            self.cur.expect("RPAREN", "')'")
        return CAtom(name.text, tuple(args), self.cur.span_from(name))

    def parse_sformula(self) -> BasicFormula:
        return BasicFormula(*self.parse_compound(self.parse_satom))

    def parse_skeleton(self) -> tuple[PSkeleton | None, list[Diagnostic]]:
        calendar = self.parse_calendar()
        clauses: list[SkeletonClause] = []
        while not self.cur.at("EOF"):
            try:
                head = self.parse_satom()
                body: list[BasicFormula] = []
                if self.cur.accept("IMPL"):
                    body.append(self.parse_sformula())
                    while self.cur.accept("COMMA"):
                        body.append(self.parse_sformula())
                self.cur.expect("DOT", "'.' ending the clause")
                clauses.append(SkeletonClause(head, tuple(body)))
            except _Unexpected as exc:
                self.diags.append(error(DiagnosticKind.SYNTAX, exc.message, exc.span))
                self.cur.sync_to_dot()
        arities: dict[str, int] = {}
        for cl in clauses:
            for a in (cl.head, *(x for f in cl.body for x in f.atoms)):
                self.diags.extend(arity_errors(a, arities))
        if calendar is None or any(d.is_error for d in self.diags):
            return None, self.diags
        return PSkeleton(calendar, tuple(clauses)), self.diags


def parse_skeleton(text: str) -> tuple[PSkeleton | None, list[Diagnostic]]:
    return _SkeletonParser(text).parse_skeleton()


# --- interval expressions ---------------------------------------------------------


def eval_interval_expr(text: str):
    """Evaluate a ``tplp ialg`` expression, e.g. ``join_k([0,0.3],[0.7,1])``::

        iexpr := "[" bound "," bound "]" | IDENT "(" iexpr ("," iexpr)* ")"

    IDENT names one of ``intervals.OPERATORS``; a bound is the source text up
    to the next "," or "]", read as NUM.  Returns a ProbInterval or a bool; a
    malformed expression raises ValueError.
    """
    cur = _Cursor(text)
    bounds: list[tuple[int, int]] = []  # source ranges read as NUM

    def bound(after: Token) -> Fraction:
        while cur.peek().type not in ("COMMA", "RBRACK", "EOF"):
            cur.advance()
        start, end = after.end, cur.peek().start
        bounds.append((start, end))
        return parse_rational(text[start:end])

    def expr(depth=1):
        if bracket := cur.accept("LBRACK"):
            lo = bound(bracket)
            hi = bound(cur.expect("COMMA", "','"))
            cur.expect("RBRACK", "']'")
            return ProbInterval(lo, hi)
        name = cur.expect("IDENT", "an interval or operator").text
        paren = cur.expect("LPAREN", "'('")
        if depth > MAX_NESTING:
            raise _Unexpected(f"expression {_TOO_DEEP}", cur.span(paren))
        args = [expr(depth + 1)]
        while cur.accept("COMMA"):
            args.append(expr(depth + 1))
        cur.expect("RPAREN", "')'")
        if name not in OPERATORS:
            raise ValueError(f"unknown operator {name!r}")
        fn, arity = OPERATORS[name]
        if len(args) != arity:
            plural = "s" if arity != 1 else ""
            raise ValueError(f"{name} takes {arity} argument{plural}, got {len(args)}")
        if not all(isinstance(a, ProbInterval) for a in args):
            raise ValueError(f"{name} expects interval arguments")
        return fn(*args)

    try:
        result = expr()
        cur.expect("EOF", "end of input")
    except _Unexpected as exc:
        raise ValueError(f"{exc.message} at offset {exc.span.start}") from None
    for d in cur.diags:
        if not any(start <= d.span.start < end for start, end in bounds):
            raise ValueError(f"{d.message} at offset {d.span.start}")
    return result


# --- rendering --------------------------------------------------------------------


def render_program(p: PTProgram) -> str:
    """Emit program text that reparses to a structurally equal program.  Each
    annotation object is rendered once: ground instances share their source
    clause's."""
    if not p.calendar.is_contiguous:
        raise ValueError("only contiguous calendars have a textual form")
    if p.calendar.first < 0:
        # the grammar's time points are unsigned
        raise ValueError("only calendars starting at 0 or later have a textual form")
    lines = [f"calendar {p.calendar.first}..{p.calendar.last}."]
    extra = sorted(p.constants - occurring_constants(p.clauses))
    if extra:
        lines.append(f"constants {', '.join(extra)}.")
    # Keyed by identity, which p keeps stable for the call: hashing an
    # annotation by value costs about as much as rendering it.
    texts: dict[int, str] = {}

    def annot(a: TPAnnotation) -> str:
        text = texts.get(id(a))
        if text is None:
            text = texts[id(a)] = f"<{a.constraint}, {a.lower}, {a.upper}>"
        return text

    for cl in p.clauses:
        head = f"{cl.head} : {annot(cl.head_annot)}"
        if cl.body:
            conjuncts = " and ".join(f"{f} : {annot(ann)}" for f, ann in cl.body)
            lines.append(f"{head} :- {conjuncts}.")
        else:
            lines.append(f"{head}.")
    return "\n".join(lines) + "\n"
