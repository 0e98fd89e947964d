"""Recursive-descent parser for the Verilog subset.

Supported constructs (everything the bundled benchmark designs need):

* module headers in ANSI and non-ANSI port styles,
* ``input``/``output``/``wire``/``reg`` declarations with constant ranges,
* ``parameter`` / ``localparam`` constants (folded at parse time),
* continuous ``assign`` statements,
* ``always @(posedge clk)`` sequential and ``always @*`` combinational
  processes with ``begin/end``, ``if/else``, ``case`` and assignments,
* the full expression grammar of :mod:`repro.hdl.ast` with standard
  Verilog precedence.

Deliberately out of scope (not needed by any evaluated design): module
instantiation hierarchies, generate blocks, tasks/functions, delays,
four-state values and assignments to bit/part selects.

Parsing is memoised per source text (:data:`PARSE_CACHE_SIZE` texts per
process): every call on one text returns the same elaborated
:class:`~repro.hdl.module.Module` objects, which are read-only from then
on.  A source that fails to parse is never cached and raises every time.
"""

from __future__ import annotations

import functools

from repro.hdl.ast import (
    BinaryOp,
    BitSelect,
    Concat,
    Const,
    Expr,
    PartSelect,
    Ref,
    Ternary,
    UnaryOp,
)
from repro.hdl.errors import ParseError
from repro.hdl.lexer import Token, tokenize
from repro.hdl.module import (
    AlwaysBlock,
    Module,
    ProcessKind,
    SignalKind,
    guess_reset,
)
from repro.hdl.stmt import Assign, Block, Case, CaseItem, If, Statement


#: Binary operator -> (precedence level, spelling in the AST).  A higher
#: level binds tighter; ``===``/``!==`` and the arithmetic shifts read as
#: their two-valued equivalents.
BINARY_OPERATORS: dict[str, tuple[int, str]] = {
    "||": (1, "||"),
    "&&": (2, "&&"),
    "|": (3, "|"),
    "^": (4, "^"), "~^": (4, "~^"), "^~": (4, "^~"),
    "&": (5, "&"),
    "==": (6, "=="), "!=": (6, "!="), "===": (6, "=="), "!==": (6, "!="),
    "<": (7, "<"), "<=": (7, "<="), ">": (7, ">"), ">=": (7, ">="),
    "<<": (8, "<<"), ">>": (8, ">>"), "<<<": (8, "<<"), ">>>": (8, ">>"),
    "+": (9, "+"), "-": (9, "-"),
    "*": (10, "*"),
}


#: Deepest expression tree the parser accepts; a leaf has depth 1, so a
#: flat ``a + a + ...`` chain may have this many terms.  Validation,
#: synthesis and code generation walk expression trees recursively (and
#: generated code nests parentheses, which CPython caps at 200), so a
#: deeper tree would overflow them after parsing.
MAX_EXPRESSION_DEPTH = 64


class _TokenStream:
    """Cursor over the token list with convenience accessors."""

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._index = 0

    @property
    def current(self) -> Token:
        return self._tokens[self._index]

    def peek(self, offset: int = 0) -> Token:
        index = min(self._index + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def advance(self) -> Token:
        token = self.current
        if token.kind != "EOF":
            self._index += 1
        return token

    def check(self, kind: str, text: str | None = None) -> bool:
        token = self.current
        if token.kind != kind:
            return False
        return text is None or token.text == text

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        if self.check(kind, text):
            return self.advance()
        return None

    def expect(self, kind: str, text: str | None = None) -> Token:
        if not self.check(kind, text):
            wanted = text or kind
            found = self.current.text or self.current.kind
            raise ParseError(
                f"expected '{wanted}' but found '{found}'",
                self.current.line,
                self.current.column,
            )
        return self.advance()


class Parser:
    """Parse one or more modules from source text."""

    def __init__(self, source: str):
        self._stream = _TokenStream(tokenize(source))
        self._module: Module | None = None
        self._parameters: dict[str, int] = {}

    # ------------------------------------------------------------------
    # top level
    # ------------------------------------------------------------------
    def parse_modules(self) -> list[Module]:
        modules: list[Module] = []
        while not self._stream.check("EOF"):
            try:
                modules.append(self._parse_module())
            except RecursionError:
                # Parentheses add no tree depth but recurse in the parser.
                token = self._stream.current
                raise ParseError("expression nested too deeply",
                                 token.line, token.column) from None
        if not modules:
            raise ParseError("no module found in source")
        return modules

    def _parse_module(self) -> Module:
        stream = self._stream
        stream.expect("KEYWORD", "module")
        name = stream.expect("IDENT").text
        module = Module(name)
        self._module = module
        self._parameters = {}
        pending_ports: list[str] = []

        if stream.accept("OP", "("):
            if not stream.check("OP", ")"):
                pending_ports = self._parse_port_list(module)
            stream.expect("OP", ")")
        stream.expect("OP", ";")

        while not stream.check("KEYWORD", "endmodule"):
            self._parse_module_item(module, pending_ports)
        stream.expect("KEYWORD", "endmodule")

        module.reset = guess_reset(module)
        module.validate()
        return module

    def _parse_port_list(self, module: Module) -> list[str]:
        """Parse either ANSI or non-ANSI port lists.

        Returns the names of ports declared in non-ANSI style (their
        directions arrive later in the body).
        """
        stream = self._stream
        pending: list[str] = []
        direction: SignalKind | None = None
        is_reg = False
        width = 1
        while True:
            if stream.check("KEYWORD", "input") or stream.check("KEYWORD", "output"):
                keyword = stream.advance().text
                direction = SignalKind.INPUT if keyword == "input" else SignalKind.OUTPUT
                is_reg = bool(stream.accept("KEYWORD", "reg"))
                stream.accept("KEYWORD", "wire")
                width = self._parse_optional_range()
            name = stream.expect("IDENT").text
            if direction is None:
                pending.append(name)
            else:
                module.add_signal(name, width, direction)
                if direction is SignalKind.OUTPUT and is_reg:
                    # Remember the reg flavour by leaving the declared signal
                    # as OUTPUT; sequential assignment detection relies on
                    # process membership, not the reg keyword.
                    pass
            if not stream.accept("OP", ","):
                break
        return pending

    def _parse_module_item(self, module: Module, pending_ports: list[str]) -> None:
        stream = self._stream
        if stream.check("KEYWORD", "input") or stream.check("KEYWORD", "output"):
            self._parse_port_declaration(module)
        elif stream.check("KEYWORD", "wire") or stream.check("KEYWORD", "reg") \
                or stream.check("KEYWORD", "integer"):
            self._parse_net_declaration(module)
        elif stream.check("KEYWORD", "parameter") or stream.check("KEYWORD", "localparam"):
            self._parse_parameter()
        elif stream.check("KEYWORD", "assign"):
            self._parse_continuous_assign(module)
        elif stream.check("KEYWORD", "always"):
            self._parse_always(module)
        else:
            token = stream.current
            raise ParseError(
                f"unexpected token '{token.text}' in module body", token.line, token.column
            )

    # ------------------------------------------------------------------
    # declarations
    # ------------------------------------------------------------------
    def _parse_optional_range(self) -> int:
        stream = self._stream
        if stream.accept("OP", "["):
            msb = self._parse_constant_expression()
            stream.expect("OP", ":")
            lsb = self._parse_constant_expression()
            stream.expect("OP", "]")
            if msb < lsb:
                raise ParseError(f"descending range [{msb}:{lsb}] required")
            return msb - lsb + 1
        return 1

    def _parse_port_declaration(self, module: Module) -> None:
        stream = self._stream
        keyword = stream.advance().text
        direction = SignalKind.INPUT if keyword == "input" else SignalKind.OUTPUT
        stream.accept("KEYWORD", "reg")
        stream.accept("KEYWORD", "wire")
        width = self._parse_optional_range()
        while True:
            name = stream.expect("IDENT").text
            if module.has_signal(name):
                # Re-declaration of an ANSI port or of a pending non-ANSI port.
                existing = module.signals[name]
                if existing.kind is not direction or existing.width != width:
                    raise ParseError(f"conflicting declaration of port '{name}'")
            else:
                module.add_signal(name, width, direction)
            if not stream.accept("OP", ","):
                break
        stream.expect("OP", ";")

    def _parse_net_declaration(self, module: Module) -> None:
        stream = self._stream
        keyword = stream.advance().text
        width = 32 if keyword == "integer" else self._parse_optional_range()
        kind = SignalKind.REG if keyword in ("reg", "integer") else SignalKind.WIRE
        while True:
            name = stream.expect("IDENT").text
            if module.has_signal(name):
                existing = module.signals[name]
                if existing.kind is SignalKind.OUTPUT:
                    # `output foo; reg foo;` style: keep the port declaration.
                    if existing.width != width and width != 1:
                        raise ParseError(f"conflicting width for '{name}'")
                else:
                    raise ParseError(f"signal '{name}' declared twice")
            else:
                module.add_signal(name, width, kind)
            # Optional initialisation `reg r = 0;` is folded into reset value.
            if stream.accept("OP", "="):
                value = self._parse_constant_expression()
                signal = module.signals[name]
                module.signals[name] = type(signal)(
                    signal.name, signal.width, signal.kind, value
                )
            if not stream.accept("OP", ","):
                break
        stream.expect("OP", ";")

    def _parse_parameter(self) -> None:
        stream = self._stream
        stream.advance()  # parameter / localparam
        self._parse_optional_range()
        while True:
            name = stream.expect("IDENT").text
            stream.expect("OP", "=")
            value = self._parse_constant_expression()
            self._parameters[name] = value
            if not stream.accept("OP", ","):
                break
        stream.expect("OP", ";")

    def _parse_constant_expression(self) -> int:
        expr = self._parse_expression()
        try:
            from repro.hdl.ast import DictContext

            return expr.evaluate(DictContext(self._parameters, default_width=32))
        except Exception as exc:  # pragma: no cover - defensive
            token = self._stream.current
            raise ParseError(f"expected constant expression ({exc})", token.line) from exc

    # ------------------------------------------------------------------
    # behaviour
    # ------------------------------------------------------------------
    def _parse_continuous_assign(self, module: Module) -> None:
        stream = self._stream
        stream.expect("KEYWORD", "assign")
        while True:
            target = stream.expect("IDENT").text
            stream.expect("OP", "=")
            expr = self._parse_expression()
            module.add_assign(target, expr)
            if not stream.accept("OP", ","):
                break
        stream.expect("OP", ";")

    def _parse_always(self, module: Module) -> None:
        stream = self._stream
        stream.expect("KEYWORD", "always")
        stream.expect("OP", "@")
        kind = ProcessKind.COMBINATIONAL
        clock: str | None = None
        if stream.accept("OP", "*"):
            pass
        else:
            stream.expect("OP", "(")
            if stream.accept("OP", "*"):
                stream.expect("OP", ")")
            else:
                while True:
                    if stream.accept("KEYWORD", "posedge") or stream.accept("KEYWORD", "negedge"):
                        edge_signal = stream.expect("IDENT").text
                        if kind is ProcessKind.COMBINATIONAL:
                            kind = ProcessKind.SEQUENTIAL
                            clock = edge_signal
                        # Additional edges (e.g. an async reset) are accepted
                        # but modelled synchronously; the body's reset branch
                        # still applies on every clock edge.
                    else:
                        stream.expect("IDENT")
                    if stream.check("IDENT", "or") or stream.check("OP", ","):
                        stream.advance()
                        continue
                    break
                stream.expect("OP", ")")
        body = self._parse_statement_as_block()
        module.add_process(AlwaysBlock(kind, body, clock))

    def _parse_statement_as_block(self) -> Block:
        stmt = self._parse_statement()
        if isinstance(stmt, Block):
            return stmt
        return Block([stmt])

    def _parse_statement(self) -> Statement:
        stream = self._stream
        if stream.accept("KEYWORD", "begin"):
            statements: list[Statement] = []
            while not stream.check("KEYWORD", "end"):
                statements.append(self._parse_statement())
            stream.expect("KEYWORD", "end")
            return Block(statements)
        if stream.accept("KEYWORD", "if"):
            stream.expect("OP", "(")
            cond = self._parse_expression()
            stream.expect("OP", ")")
            then = self._parse_statement_as_block()
            otherwise: Block | None = None
            if stream.accept("KEYWORD", "else"):
                otherwise = self._parse_statement_as_block()
            return If(cond, then, otherwise)
        if stream.check("KEYWORD", "case") or stream.check("KEYWORD", "casez") \
                or stream.check("KEYWORD", "casex"):
            return self._parse_case()
        # Plain assignment.
        target = stream.expect("IDENT").text
        blocking = True
        if stream.accept("OP", "<="):
            blocking = False
        else:
            stream.expect("OP", "=")
        expr = self._parse_expression()
        stream.expect("OP", ";")
        return Assign(target, expr, blocking=blocking)

    def _parse_case(self) -> Case:
        stream = self._stream
        stream.advance()  # case/casez/casex
        stream.expect("OP", "(")
        subject = self._parse_expression()
        stream.expect("OP", ")")
        items: list[CaseItem] = []
        default: Block | None = None
        while not stream.check("KEYWORD", "endcase"):
            if stream.accept("KEYWORD", "default"):
                stream.accept("OP", ":")
                default = self._parse_statement_as_block()
                continue
            labels = [self._parse_constant_expression()]
            while stream.accept("OP", ","):
                labels.append(self._parse_constant_expression())
            stream.expect("OP", ":")
            body = self._parse_statement_as_block()
            items.append(CaseItem(tuple(labels), body))
        stream.expect("KEYWORD", "endcase")
        return Case(subject, items, default)

    # ------------------------------------------------------------------
    # expressions (standard precedence, lowest binds last)
    # ------------------------------------------------------------------
    def _parse_expression(self) -> Expr:
        return self._parse_tree()[0]

    def _parse_tree(self) -> tuple[Expr, int]:
        """An expression and its tree depth (a leaf has depth 1); the
        methods below return the same pairs."""
        cond = self._parse_binary()
        token = self._stream.accept("OP", "?")
        if token is None:
            return cond
        then = self._parse_tree()
        self._stream.expect("OP", ":")
        other = self._parse_tree()
        return self._node(token, Ternary(cond[0], then[0], other[0]), cond, then, other)

    @staticmethod
    def _node(token: Token, expr: Expr, *operands: tuple[Expr, int]) -> tuple[Expr, int]:
        """``expr`` built at ``token`` over ``operands``, with its depth;
        past :data:`MAX_EXPRESSION_DEPTH` a located error at ``token``."""
        depth = 1 + max(depth for _, depth in operands)
        if depth > MAX_EXPRESSION_DEPTH:
            raise ParseError("expression nested too deeply", token.line, token.column)
        return expr, depth

    def _parse_binary(self, min_level: int = 1) -> tuple[Expr, int]:
        """Precedence climbing over :data:`BINARY_OPERATORS`; every level
        is left-associative."""
        stream = self._stream
        left = self._parse_unary()
        while True:
            token = stream.current
            entry = BINARY_OPERATORS.get(token.text) if token.kind == "OP" else None
            if entry is None or entry[0] < min_level:
                return left
            stream.advance()
            level, op = entry
            right = self._parse_binary(level + 1)
            left = self._node(token, BinaryOp(op, left[0], right[0]), left, right)

    def _parse_unary(self) -> tuple[Expr, int]:
        stream = self._stream
        if stream.check("OP") and stream.current.text in ("~", "!", "-", "&", "|", "^", "~&", "~|", "~^"):
            token = stream.advance()
            operand = self._parse_unary()
            return self._node(token, UnaryOp(token.text, operand[0]), operand)
        if stream.check("OP") and stream.current.text == "+":
            stream.advance()
            return self._parse_unary()
        return self._parse_primary()

    def _parse_primary(self) -> tuple[Expr, int]:
        stream = self._stream
        if stream.accept("OP", "("):
            tree = self._parse_tree()
            stream.expect("OP", ")")
            return tree
        if stream.check("OP", "{"):
            return self._parse_concat()
        if stream.check("NUMBER"):
            token = stream.advance()
            width = token.width if token.width is not None else 32
            return Const(token.value or 0, width), 1
        if stream.check("IDENT"):
            name = stream.advance().text
            if name in self._parameters and not stream.check("OP", "["):
                value = self._parameters[name]
                return Const(value, max(value.bit_length(), 1)), 1
            if stream.accept("OP", "["):
                first = self._parse_constant_expression()
                if stream.accept("OP", ":"):
                    second = self._parse_constant_expression()
                    stream.expect("OP", "]")
                    return PartSelect(name, first, second), 1
                stream.expect("OP", "]")
                return BitSelect(name, first), 1
            return Ref(name), 1
        token = stream.current
        raise ParseError(
            f"unexpected token '{token.text or token.kind}' in expression",
            token.line,
            token.column,
        )

    def _parse_concat(self) -> tuple[Expr, int]:
        stream = self._stream
        token = stream.expect("OP", "{")
        parts = [self._parse_tree()]
        while stream.accept("OP", ","):
            parts.append(self._parse_tree())
        stream.expect("OP", "}")
        return self._node(token, Concat(tuple(part for part, _ in parts)), *parts)


#: Distinct source texts whose parsed modules are kept per process.
PARSE_CACHE_SIZE = 128


@functools.lru_cache(maxsize=PARSE_CACHE_SIZE)
def _parse_once(source: str) -> tuple[Module, ...]:
    return tuple(Parser(source).parse_modules())


def parse_modules(source: str) -> list[Module]:
    """Parse every module in ``source``.

    The list is new on every call; the modules in it are shared by every
    caller that parses the same text, and must not be mutated.
    """
    return list(_parse_once(source))


def parse_module(source: str, name: str | None = None) -> Module:
    """Parse ``source`` and return one module.

    When ``name`` is given, the module with that name is returned;
    otherwise the source must contain exactly one module.
    """
    modules = parse_modules(source)
    if name is None:
        if len(modules) != 1:
            raise ParseError(
                f"expected exactly one module, found {[m.name for m in modules]}"
            )
        return modules[0]
    for module in modules:
        if module.name == name:
            return module
    raise ParseError(f"module '{name}' not found in source")
