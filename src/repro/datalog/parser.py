"""Prolog-syntax parser for rules, programs, facts and queries.

The paper writes recursions in Prolog syntax, e.g.::

    t(X, Y) :- a(X, Z), t(Z, Y).
    t(X, Y) :- b(X, Y).

This module parses exactly that syntax:

* identifiers starting with an upper-case letter or ``_`` are variables,
* identifiers starting with a lower-case letter are constants *or* predicate
  names depending on position,
* integers and single-quoted strings are constants,
* a clause ends with ``.``; ``%`` starts a line comment,
* a clause without ``:-`` is a fact (it must be ground),
* ``pred(arg, ...)?`` parses as a query (see :func:`parse_query`).

The parser is a small hand-written tokenizer + recursive-descent parser; it
reports positions in :class:`~repro.datalog.errors.ParseError` so malformed
input is easy to locate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from .atoms import Atom
from .errors import ParseError
from .rules import Program, Rule
from .terms import Constant, Term, Variable


@dataclass(frozen=True)
class _Token:
    kind: str  # 'name', 'variable', 'number', 'string', 'punct'
    value: str
    line: int
    column: int


def _tokenize(text: str) -> Iterator[_Token]:
    line = 1
    column = 1
    index = 0
    length = len(text)
    while index < length:
        char = text[index]
        if char == "\n":
            line += 1
            column = 1
            index += 1
            continue
        if char.isspace():
            index += 1
            column += 1
            continue
        if char == "%":
            while index < length and text[index] != "\n":
                index += 1
            continue
        if text.startswith(":-", index):
            yield _Token("punct", ":-", line, column)
            index += 2
            column += 2
            continue
        if char in "(),.?":
            yield _Token("punct", char, line, column)
            index += 1
            column += 1
            continue
        if char == "'":
            end = text.find("'", index + 1)
            if end == -1:
                raise ParseError("unterminated quoted constant", line, column)
            yield _Token("string", text[index + 1 : end], line, column)
            column += end - index + 1
            index = end + 1
            continue
        if char.isdigit() or (char == "-" and index + 1 < length and text[index + 1].isdigit()):
            start = index
            index += 1
            while index < length and (text[index].isdigit() or text[index] == "."):
                index += 1
            token_text = text[start:index]
            yield _Token("number", token_text, line, column)
            column += index - start
            continue
        if char.isalpha() or char == "_":
            start = index
            while index < length and (text[index].isalnum() or text[index] == "_"):
                index += 1
            token_text = text[start:index]
            kind = "variable" if token_text[0].isupper() or token_text[0] == "_" else "name"
            yield _Token(kind, token_text, line, column)
            column += index - start
            continue
        raise ParseError(f"unexpected character {char!r}", line, column)


class _Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, text: str) -> None:
        self.tokens: List[_Token] = list(_tokenize(text))
        self.position = 0

    # -- token helpers -------------------------------------------------
    def _peek(self) -> Optional[_Token]:
        if self.position < len(self.tokens):
            return self.tokens[self.position]
        return None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            last = self.tokens[-1] if self.tokens else _Token("punct", "", 1, 1)
            raise ParseError("unexpected end of input", last.line, last.column)
        self.position += 1
        return token

    def _expect(self, value: str) -> _Token:
        token = self._next()
        if token.value != value:
            raise ParseError(f"expected {value!r}, found {token.value!r}", token.line, token.column)
        return token

    def at_end(self) -> bool:
        return self._peek() is None

    # -- grammar -------------------------------------------------------
    def parse_term(self) -> Term:
        token = self._next()
        if token.kind == "variable":
            return Variable(token.value)
        if token.kind == "name":
            return Constant(token.value)
        if token.kind == "string":
            return Constant(token.value)
        if token.kind == "number":
            value = float(token.value) if "." in token.value else int(token.value)
            return Constant(value)
        raise ParseError(f"expected a term, found {token.value!r}", token.line, token.column)

    def parse_atom(self) -> Atom:
        token = self._next()
        if token.kind not in ("name",):
            raise ParseError(
                f"expected a predicate name, found {token.value!r}", token.line, token.column
            )
        predicate = token.value
        args: List[Term] = []
        next_token = self._peek()
        if next_token is not None and next_token.value == "(":
            self._expect("(")
            while True:
                args.append(self.parse_term())
                token = self._next()
                if token.value == ")":
                    break
                if token.value != ",":
                    raise ParseError(
                        f"expected ',' or ')', found {token.value!r}", token.line, token.column
                    )
        return Atom(predicate, tuple(args))

    def parse_clause(self) -> Tuple[Atom, Tuple[Atom, ...], str]:
        """Parse one clause; returns (head, body, terminator) with terminator '.' or '?'."""
        head = self.parse_atom()
        token = self._next()
        if token.value in (".", "?"):
            return head, (), token.value
        if token.value != ":-":
            raise ParseError(f"expected ':-', '.' or '?', found {token.value!r}", token.line, token.column)
        body: List[Atom] = []
        while True:
            body.append(self.parse_atom())
            token = self._next()
            if token.value in (".", "?"):
                return head, tuple(body), token.value
            if token.value != ",":
                raise ParseError(
                    f"expected ',', '.' or '?', found {token.value!r}", token.line, token.column
                )


def parse_rule(text: str) -> Rule:
    """Parse a single rule (or fact), e.g. ``"t(X, Y) :- a(X, Z), t(Z, Y)."``."""
    parser = _Parser(text)
    head, body, terminator = parser.parse_clause()
    if terminator == "?":
        raise ParseError("found a query where a rule was expected")
    if not parser.at_end():
        token = parser._peek()
        assert token is not None
        raise ParseError(f"trailing input after rule: {token.value!r}", token.line, token.column)
    return Rule(head, body)


def parse_atom(text: str) -> Atom:
    """Parse a single atom, e.g. ``"t(X, Y)"`` (no trailing punctuation required)."""
    parser = _Parser(text)
    atom = parser.parse_atom()
    next_token = parser._peek()
    if next_token is not None and next_token.value in (".", "?"):
        parser._next()
    if not parser.at_end():
        token = parser._peek()
        assert token is not None
        raise ParseError(f"trailing input after atom: {token.value!r}", token.line, token.column)
    return atom


def parse_program(text: str) -> Program:
    """Parse a whole program: a sequence of rules and facts.

    Ground bodiless clauses become facts represented as bodiless rules; use
    :func:`split_facts` to separate them into an EDB when needed.
    """
    parser = _Parser(text)
    rules: List[Rule] = []
    while not parser.at_end():
        head, body, terminator = parser.parse_clause()
        if terminator == "?":
            raise ParseError("queries are not allowed inside a program; use parse_query")
        rules.append(Rule(head, body))
    return Program(tuple(rules))


def parse_query(text: str) -> Atom:
    """Parse a query such as ``"t(1, Y)?"`` or ``"t(1, Y)"``.

    The result is an atom whose constant arguments are the selection
    ("column = constant") bindings and whose variable arguments are the
    requested output columns.
    """
    parser = _Parser(text)
    head, body, _terminator = parser.parse_clause() if _contains_clause_end(text) else (parser.parse_atom(), (), "?")
    if body:
        raise ParseError("a query must be a single atom")
    if not parser.at_end():
        token = parser._peek()
        assert token is not None
        raise ParseError(f"trailing input after query: {token.value!r}", token.line, token.column)
    return head


def _contains_clause_end(text: str) -> bool:
    stripped = text.strip()
    return stripped.endswith(".") or stripped.endswith("?")


def split_facts(program: Program) -> Tuple[Program, List[Atom]]:
    """Separate bodiless ground rules (facts) from proper rules.

    Returns ``(rules_only_program, facts)``.
    """
    rules: List[Rule] = []
    facts: List[Atom] = []
    for rule in program.rules:
        if rule.is_fact:
            facts.append(rule.head)
        else:
            rules.append(rule)
    return Program(tuple(rules)), facts
