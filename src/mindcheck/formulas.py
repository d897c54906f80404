"""Formula AST, concrete ASCII syntax, and sugar expansion.

The language has propositional connectives, the global modalities A/E, weak
and strict order modalities over the plausibility (P) and desirability (D)
preorders, minimality (mu), conditional mental attitudes (B, G, AdmInt, Int),
dynamic modalities (announcement, radical upgrade, natural contraction), and
plan modalities ([alpha]phi, I(alpha)).

Concrete syntax (precedence: ~  >  &  >  |  >  ->, with -> right-associative;
prefix modalities bind tighter than any binary connective):

    formula   = implication
    implication = disjunction ["->" implication]
    disjunction = conjunction {"|" conjunction}
    conjunction = prefixed {"&" prefixed}
    prefixed  = "~" prefixed | "A" prefixed | "E" prefixed
              | "[<=P]" prefixed | "[<P]" prefixed | "[<=D]" prefixed | "[<D]" prefixed
              | "<<=P>>" prefixed | "<<P>>" prefixed | "<<=D>>" prefixed | "<<D>>" prefixed
              | "mu_P" prefixed | "mu_D" prefixed
              | "[" "!" formula "]" prefixed
              | "[" ("up_P"|"up_D"|"drop_P"|"drop_D") formula "]" prefixed
              | "[" plan "]" prefixed
              | primary
    primary   = "T" | "F" | atom | "(" formula ")"
              | ("B"|"G"|"AdmInt"|"Int") "(" formula ["|" formula] ")"
              | "I" "(" plan ")"
    atom      = [a-z][a-zA-Z0-9_]*, not a keyword  (plan symbols share this class)

Inside B(...), G(...), AdmInt(...) and Int(...) a top-level "|" separates the
consequent from the condition; write "B((a | b))" for a disjunctive consequent.
Dynamic-modality arguments must be propositional; this is checked at parse
and construction time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Optional, Union

ORDER_TAGS = ("P", "D")
DYN_OPS = ("announce", "upgrade", "contract")

_ATOM_RE = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")


class FormulaError(Exception):
    """Base class for formula construction and parsing problems."""


class ParseError(FormulaError):
    def __init__(self, message, line=1, column=1, expected=()):
        self.line = line
        self.column = column
        self.expected = tuple(expected)
        detail = f"{message} (line {line}, column {column})"
        if self.expected:
            detail += "; expected one of: " + ", ".join(self.expected)
        super().__init__(detail)


class UnknownPlanError(FormulaError):
    pass


@dataclass(frozen=True)
class Atom:
    name: str

    def __post_init__(self):
        if not _ATOM_RE.match(self.name) or self.name in _KEYWORDS:
            raise FormulaError(f"bad atom name {self.name!r}")


@dataclass(frozen=True)
class Top:
    pass


@dataclass(frozen=True)
class Bottom:
    pass


@dataclass(frozen=True)
class Not:
    child: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class A:
    """Holds at a world iff the child holds at every world."""

    child: "Formula"


@dataclass(frozen=True)
class E:
    """Holds at a world iff the child holds at some world."""

    child: "Formula"


@dataclass(frozen=True)
class Box:
    """[<=X] / [<X]: the child holds at every (strictly) X-below world."""

    order: str
    strict: bool
    child: "Formula"

    def __post_init__(self):
        if self.order not in ORDER_TAGS:
            raise FormulaError(f"bad order tag {self.order!r}")


@dataclass(frozen=True)
class Diamond:
    order: str
    strict: bool
    child: "Formula"

    def __post_init__(self):
        if self.order not in ORDER_TAGS:
            raise FormulaError(f"bad order tag {self.order!r}")


@dataclass(frozen=True)
class Mu:
    """mu_X phi: the most X-preferred worlds satisfying phi."""

    order: str
    child: "Formula"

    def __post_init__(self):
        if self.order not in ORDER_TAGS:
            raise FormulaError(f"bad order tag {self.order!r}")


@dataclass(frozen=True)
class Bel:
    consequent: "Formula"
    condition: "Formula"


@dataclass(frozen=True)
class Goal:
    consequent: "Formula"
    condition: "Formula"


@dataclass(frozen=True)
class AdmInt:
    consequent: "Formula"
    condition: "Formula"


@dataclass(frozen=True)
class Int:
    consequent: "Formula"
    condition: "Formula"


@dataclass(frozen=True)
class DynMod:
    """[!arg]body, [up_X arg]body, or [drop_X arg]body."""

    op: str
    order: Optional[str]
    argument: "Formula"
    body: "Formula"

    def __post_init__(self):
        if self.op not in DYN_OPS:
            raise FormulaError(f"bad dynamic operator {self.op!r}")
        if self.op == "announce":
            if self.order is not None:
                raise FormulaError("announcement carries no order tag")
        elif self.order not in ORDER_TAGS:
            raise FormulaError(f"{self.op} needs an order tag in {ORDER_TAGS}")
        if not is_propositional(self.argument):
            raise FormulaError("dynamic-modality argument must be propositional")


@dataclass(frozen=True)
class PlanMod:
    plan: str
    body: "Formula"


@dataclass(frozen=True)
class Intends:
    plan: str


Formula = Union[
    Atom, Top, Bottom, Not, And, Or, Implies, A, E, Box, Diamond, Mu,
    Bel, Goal, AdmInt, Int, DynMod, PlanMod, Intends,
]

_PROP_NODES = (Atom, Top, Bottom, Not, And, Or, Implies)
_SUGAR_NODES = (Mu, Bel, Goal, AdmInt, Int)
_BINARY_NODES = (And, Or, Implies)


def walk(f: Formula) -> Iterator[Formula]:
    """Yield every node of the AST, preorder."""
    yield f
    if isinstance(f, Not):
        yield from walk(f.child)
    elif isinstance(f, _BINARY_NODES):
        yield from walk(f.left)
        yield from walk(f.right)
    elif isinstance(f, (A, E, Box, Diamond, Mu)):
        yield from walk(f.child)
    elif isinstance(f, (Bel, Goal, AdmInt, Int)):
        yield from walk(f.consequent)
        yield from walk(f.condition)
    elif isinstance(f, DynMod):
        yield from walk(f.argument)
        yield from walk(f.body)
    elif isinstance(f, PlanMod):
        yield from walk(f.body)


def is_propositional(f: Formula) -> bool:
    return all(isinstance(node, _PROP_NODES) for node in walk(f))


def is_sugar_free(f: Formula) -> bool:
    return not any(isinstance(node, _SUGAR_NODES) for node in walk(f))


def atoms_of(f: Formula) -> frozenset[str]:
    return frozenset(n.name for n in walk(f) if isinstance(n, Atom))


def plan_symbols_of(f: Formula) -> frozenset[str]:
    return frozenset(
        n.plan for n in walk(f) if isinstance(n, (PlanMod, Intends))
    )


# ---------------------------------------------------------------------------
# Tokenizer

_KEYWORDS = {
    "T", "F", "A", "E", "B", "G", "I", "AdmInt", "Int",
    "mu_P", "mu_D", "up_P", "up_D", "drop_P", "drop_D",
}

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<dia><<=[PD]>>|<<[PD]>>)
    | (?P<boxtag><=[PD]|<[PD])
    | (?P<arrow>->)
    | (?P<punct>[()\[\]|&~!])
    | (?P<word>[A-Za-z][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # 'dia', 'boxtag', 'arrow', punct char, 'ident', keyword, 'eof'
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            line, col = _line_col(text, i)
            raise ParseError(f"unexpected character {text[i]!r}", line, col)
        i = m.end()
        if m.lastgroup == "ws":
            continue
        tok = m.group()
        if m.lastgroup == "word":
            if tok in _KEYWORDS:
                tokens.append(_Token(tok, tok, m.start()))
            elif _ATOM_RE.match(tok):
                tokens.append(_Token("ident", tok, m.start()))
            else:
                line, col = _line_col(text, m.start())
                raise ParseError(f"unknown operator {tok!r}", line, col)
        elif m.lastgroup == "punct":
            tokens.append(_Token(tok, tok, m.start()))
        else:
            tokens.append(_Token(m.lastgroup, tok, m.start()))
    tokens.append(_Token("eof", "", len(text)))
    return tokens


def _line_col(text: str, pos: int) -> tuple[int, int]:
    line = text.count("\n", 0, pos) + 1
    col = pos - (text.rfind("\n", 0, pos) + 1) + 1
    return line, col


# ---------------------------------------------------------------------------
# Parser

_SUGAR_HEADS = {"B": Bel, "G": Goal, "AdmInt": AdmInt, "Int": Int}
_DYN_HEADS = {
    "up_P": ("upgrade", "P"), "up_D": ("upgrade", "D"),
    "drop_P": ("contract", "P"), "drop_D": ("contract", "D"),
}


MAX_NESTING = 50


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            self.fail(f"unexpected {self._show(tok)}", expected=(kind,))
        return self.advance()

    def fail(self, message, expected=()):
        line, col = _line_col(self.text, self.peek().pos)
        raise ParseError(message, line, col, expected)

    @staticmethod
    def _show(tok: _Token) -> str:
        return "end of input" if tok.kind == "eof" else repr(tok.text)

    def parse(self) -> Formula:
        f = self.formula()
        if self.peek().kind != "eof":
            self.fail(f"trailing input at {self._show(self.peek())}")
        return f

    # no_bar: stop at a top-level '|' (conditional-modality separator)
    def formula(self, no_bar=False) -> Formula:
        left = self.disjunction(no_bar)
        if self.peek().kind == "arrow":
            self.advance()
            self.enter()
            right = self.formula(no_bar)
            self.depth -= 1
            return Implies(left, right)
        return left

    def disjunction(self, no_bar=False) -> Formula:
        f = self.conjunction()
        while self.peek().kind == "|" and not no_bar:
            self.advance()
            f = Or(f, self.conjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.prefixed()
        while self.peek().kind == "&":
            self.advance()
            f = And(f, self.prefixed())
        return f

    def enter(self) -> None:
        """Open one nesting level. Every nested construct opens one, in
        prefixed or on the right of '->', so capping them keeps the parser
        and every recursive walk of its result within the interpreter's
        stack. A failed parse is abandoned, so only success closes levels."""
        if self.depth == MAX_NESTING:
            self.fail(f"formula nested deeper than {MAX_NESTING} levels")
        self.depth += 1

    def prefixed(self) -> Formula:
        self.enter()
        f = self._prefixed()
        self.depth -= 1
        return f

    def _prefixed(self) -> Formula:
        tok = self.peek()
        if tok.kind == "~":
            self.advance()
            return Not(self.prefixed())
        if tok.kind in ("A", "E"):
            self.advance()
            return (A if tok.kind == "A" else E)(self.prefixed())
        if tok.kind in ("mu_P", "mu_D"):
            self.advance()
            return Mu(tok.text[-1], self.prefixed())
        if tok.kind == "dia":
            self.advance()
            inner = tok.text[2:-2]  # '<=P' / 'P'-style payload
            strict = not inner.startswith("=")
            return Diamond(inner[-1], strict, self.prefixed())
        if tok.kind == "[":
            return self.bracket_modality()
        return self.primary()

    def bracket_modality(self) -> Formula:
        self.advance()  # '['
        tok = self.peek()
        if tok.kind == "boxtag":
            self.advance()
            self.expect("]")
            strict = not tok.text.startswith("<=")
            return Box(tok.text[-1], strict, self.prefixed())
        if tok.kind == "!":
            self.advance()
            arg = self.require_prop(self.formula(), tok)
            self.expect("]")
            return DynMod("announce", None, arg, self.prefixed())
        if tok.kind in _DYN_HEADS:
            self.advance()
            op, order = _DYN_HEADS[tok.kind]
            arg = self.require_prop(self.formula(), tok)
            self.expect("]")
            return DynMod(op, order, arg, self.prefixed())
        if tok.kind == "ident":
            self.advance()
            self.expect("]")
            return PlanMod(tok.text, self.prefixed())
        self.fail(
            f"unexpected {self._show(tok)} after '['",
            expected=("<=P", "<P", "<=D", "<D", "!", "up_P", "up_D",
                      "drop_P", "drop_D", "plan symbol"),
        )

    def require_prop(self, f: Formula, at: _Token) -> Formula:
        if not is_propositional(f):
            line, col = _line_col(self.text, at.pos)
            raise ParseError(
                "dynamic-modality argument must be propositional", line, col
            )
        return f

    def primary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "T":
            self.advance()
            return Top()
        if tok.kind == "F":
            self.advance()
            return Bottom()
        if tok.kind == "ident":
            self.advance()
            return Atom(tok.text)
        if tok.kind == "(":
            self.advance()
            f = self.formula()
            self.expect(")")
            return f
        if tok.kind in _SUGAR_HEADS:
            self.advance()
            ctor = _SUGAR_HEADS[tok.kind]
            self.expect("(")
            consequent = self.formula(no_bar=True)
            condition: Formula = Top()
            if self.peek().kind == "|":
                self.advance()
                condition = self.formula()
            if self.peek().kind != ")":
                self.fail(
                    f"{tok.text}(...) takes a consequent and at most one "
                    f"'|'-separated condition", expected=(")", "|"),
                )
            self.advance()
            return ctor(consequent, condition)
        if tok.kind == "I":
            self.advance()
            self.expect("(")
            plan = self.expect("ident")
            self.expect(")")
            return Intends(plan.text)
        self.fail(f"unexpected {self._show(tok)}",
                  expected=("atom", "T", "F", "(", "~", "modality"))


def parse(text: str) -> Formula:
    """Parse the concrete syntax into an AST."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Renderer

_LVL_IMP, _LVL_OR, _LVL_AND, _LVL_PREFIX = 1, 2, 3, 4


def render(f: Formula, memo: Optional[dict] = None) -> str:
    """Render to concrete syntax; parse(render(f)) is structurally equal to f.

    memo is a table the caller owns when rendering many formulas that share
    sub-formula objects, such as the nodes of an extracted graph: each
    shared sub-formula is then rendered once per context, so the cost grows
    with the formula DAG rather than the tree. It maps a sub-formula's id,
    precedence level and bar guard to the sub-formula and its text; holding
    the sub-formula keeps its id from being reused while the table lives.
    """
    return _rend(f, _LVL_IMP, False, {} if memo is None else memo)


def _paren_if(text: str, level: int, min_level: int) -> str:
    return f"({text})" if level < min_level else text


def _rend(f: Formula, min_level: int, bar_guard: bool, memo: dict) -> str:
    # The table is read here rather than in a wrapper, so each nesting level
    # costs one stack frame and long chains stay within the recursion limit.
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Top):
        return "T"
    if isinstance(f, Bottom):
        return "F"
    key = (id(f), min_level, bar_guard)
    hit = memo.get(key)
    if hit is not None:
        return hit[1]
    if isinstance(f, Implies):
        # right-associative; a bare '|' in either side of an unparenthesised
        # implication would still sit at separator level, so the guard flows on
        left = _rend(f.left, _LVL_OR, bar_guard, memo)
        right = _rend(f.right, _LVL_IMP, bar_guard, memo)
        text = _paren_if(f"{left} -> {right}", _LVL_IMP, min_level)
    elif isinstance(f, Or):
        text = (f"{_rend(f.left, _LVL_OR, bar_guard, memo)} | "
                f"{_rend(f.right, _LVL_AND, bar_guard, memo)}")
        text = f"({text})" if bar_guard else _paren_if(text, _LVL_OR, min_level)
    elif isinstance(f, And):
        text = (f"{_rend(f.left, _LVL_AND, False, memo)} & "
                f"{_rend(f.right, _LVL_PREFIX, False, memo)}")
        text = _paren_if(text, _LVL_AND, min_level)
    elif isinstance(f, Not):
        text = f"~{_rend(f.child, _LVL_PREFIX, False, memo)}"
    elif isinstance(f, A):
        text = f"A {_rend(f.child, _LVL_PREFIX, False, memo)}"
    elif isinstance(f, E):
        text = f"E {_rend(f.child, _LVL_PREFIX, False, memo)}"
    elif isinstance(f, Box):
        op = f"[<{f.order}]" if f.strict else f"[<={f.order}]"
        text = f"{op} {_rend(f.child, _LVL_PREFIX, False, memo)}"
    elif isinstance(f, Diamond):
        op = f"<<{f.order}>>" if f.strict else f"<<={f.order}>>"
        text = f"{op} {_rend(f.child, _LVL_PREFIX, False, memo)}"
    elif isinstance(f, Mu):
        text = f"mu_{f.order} {_rend(f.child, _LVL_PREFIX, False, memo)}"
    elif isinstance(f, (Bel, Goal, AdmInt, Int)):
        head = {Bel: "B", Goal: "G", AdmInt: "AdmInt", Int: "Int"}[type(f)]
        consequent = _rend(f.consequent, _LVL_IMP, True, memo)
        if f.condition == Top():
            text = f"{head}({consequent})"
        else:
            text = f"{head}({consequent}|{_rend(f.condition, _LVL_IMP, False, memo)})"
    elif isinstance(f, DynMod):
        arg = _rend(f.argument, _LVL_IMP, False, memo)
        if f.op == "announce":
            head = f"[!{arg}]"
        elif f.op == "upgrade":
            head = f"[up_{f.order} {arg}]"
        else:
            head = f"[drop_{f.order} {arg}]"
        text = f"{head} {_rend(f.body, _LVL_PREFIX, False, memo)}"
    elif isinstance(f, PlanMod):
        text = f"[{f.plan}] {_rend(f.body, _LVL_PREFIX, False, memo)}"
    elif isinstance(f, Intends):
        text = f"I({f.plan})"
    else:
        raise FormulaError(f"cannot render {f!r}")
    memo[key] = (f, text)
    return text


# ---------------------------------------------------------------------------
# Sugar expansion

def _mu_expansion(order: str, f: Formula) -> Formula:
    return And(f, Not(Diamond(order, True, f)))


def desugar(f: Formula, lib=None) -> Formula:
    """Expand B, G, AdmInt, Int and mu into the core language.

    A plan library is needed only when f contains Int; plan symbols occurring
    in f are checked against the library when one is given.
    """
    if lib is not None:
        unknown = plan_symbols_of(f) - set(lib.plans)
        if unknown:
            raise UnknownPlanError(f"unknown plan symbol {sorted(unknown)[0]!r}")
    return _desugar(f, lib)


def _bel_expansion(order, consequent, condition):
    return A(Implies(_mu_expansion(order, condition), consequent))


def _admint_expansion(consequent, condition):
    goal = _bel_expansion("D", consequent, condition)
    possible = E(And(consequent, condition))
    believed = _bel_expansion("P", consequent, condition)
    return And(And(goal, possible), Not(believed))


def _desugar(f: Formula, lib) -> Formula:
    if isinstance(f, (Atom, Top, Bottom, Intends)):
        return f
    if isinstance(f, Not):
        return Not(_desugar(f.child, lib))
    if isinstance(f, _BINARY_NODES):
        return type(f)(_desugar(f.left, lib), _desugar(f.right, lib))
    if isinstance(f, (A, E)):
        return type(f)(_desugar(f.child, lib))
    if isinstance(f, (Box, Diamond)):
        return type(f)(f.order, f.strict, _desugar(f.child, lib))
    if isinstance(f, Mu):
        return _mu_expansion(f.order, _desugar(f.child, lib))
    if isinstance(f, Bel):
        return _bel_expansion("P", _desugar(f.consequent, lib),
                              _desugar(f.condition, lib))
    if isinstance(f, Goal):
        return _bel_expansion("D", _desugar(f.consequent, lib),
                              _desugar(f.condition, lib))
    if isinstance(f, AdmInt):
        return _admint_expansion(_desugar(f.consequent, lib),
                                 _desugar(f.condition, lib))
    if isinstance(f, Int):
        if lib is None:
            raise UnknownPlanError("a plan library is required to expand Int")
        consequent = _desugar(f.consequent, lib)
        condition = _desugar(f.condition, lib)
        admissible = _admint_expansion(consequent, condition)
        backing: Formula = Bottom()
        for name in sorted(lib.plans, reverse=True):
            plan = lib.plans[name]
            achieved = And(plan.pre, PlanMod(name, consequent))
            disjunct = And(Intends(name),
                           _bel_expansion("P", achieved, condition))
            backing = disjunct if isinstance(backing, Bottom) else Or(disjunct, backing)
        return And(admissible, backing)
    if isinstance(f, DynMod):
        return DynMod(f.op, f.order, f.argument, _desugar(f.body, lib))
    if isinstance(f, PlanMod):
        return PlanMod(f.plan, _desugar(f.body, lib))
    raise FormulaError(f"cannot desugar {f!r}")
