"""Datalog substrate: terms, atoms, rules, programs, parser, storage.

This package is the function-free Horn-clause language and extensional store
that the paper's constructions are defined over (Section 2).
"""

from .atoms import Atom, fact, share_variable
from .database import Database
from .errors import (
    EvaluationError,
    NotOneSidedError,
    ParseError,
    ProgramError,
    QueryTimeout,
    ReproError,
    SchemaError,
)
from .parser import parse_atom, parse_program, parse_query, parse_rule, split_facts
from .relation import Relation
from .rules import Program, Rule
from .terms import Constant, Term, Variable, is_constant, is_variable, make_term

__all__ = [
    "Atom",
    "Constant",
    "Database",
    "EvaluationError",
    "NotOneSidedError",
    "ParseError",
    "Program",
    "ProgramError",
    "QueryTimeout",
    "Relation",
    "ReproError",
    "Rule",
    "SchemaError",
    "Term",
    "Variable",
    "fact",
    "is_constant",
    "is_variable",
    "make_term",
    "parse_atom",
    "parse_program",
    "parse_query",
    "parse_rule",
    "share_variable",
    "split_facts",
]
