"""Hash-consed Boolean expression DAG with structural simplification.

These nodes sit below the word-level HDL AST: bit-blasting produces them,
the Tseitin encoder consumes them for SAT, and the BDD engine builds BDDs
from them.  Constructors (`and_`, `or_`, `not_`, ...) apply cheap local
simplifications (constant folding, involution, duplicate absorption) so the
downstream encodings stay small.

Every node built through the constructor functions is *interned*:
structurally identical expressions are the same Python object, so equality
and hashing are identity-based (``eq=False`` on the dataclasses) and run in
O(1) regardless of DAG depth.  The interning is what lets a persistent
Tseitin encoder (:class:`repro.boolean.cnf.CnfBuilder`) recognise
subexpressions shared across unrolling cycles and across candidate
assertions and encode each of them exactly once — the backbone of the
incremental BMC engine.  Construct nodes through the module functions, not
the raw class constructors: a raw node is never interned and therefore
never compares equal to its interned twin.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Mapping, Sequence


class BoolExpr:
    """Base class for Boolean expressions."""

    __slots__ = ()

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        """Truth value under ``assignment``; absent variables read as 0.

        The one-lane case of :meth:`evaluate_lanes`.
        """
        return bool(self.evaluate_lanes(assignment, 1))

    def evaluate_lanes(self, lanes: Mapping[str, int], mask: int) -> int:
        """Bit-parallel truth values: bit ``i`` of the result is the
        expression's value when every variable takes bit ``i`` of its
        entry in ``lanes``.

        ``mask`` has one set bit per lane, and every entry of ``lanes``
        must lie within it; absent variables read as 0 in every lane.
        Iterative post-order with per-call memoisation keyed by node
        identity: each shared DAG node is computed once and without
        recursion, so neither deep unrolled bit functions nor subgraphs
        shared along many paths cost more than the DAG's size.
        """
        memo: dict[BoolExpr, int] = {}
        stack: list[BoolExpr] = [self]
        while stack:
            node = stack[-1]
            if node in memo:
                stack.pop()
                continue
            if isinstance(node, BConst):
                memo[node] = mask if node.value else 0
                stack.pop()
                continue
            if isinstance(node, BVar):
                memo[node] = lanes.get(node.name, 0)
                stack.pop()
                continue
            children = node.children()
            unresolved = [child for child in children if child not in memo]
            if unresolved:
                stack.extend(unresolved)
                continue
            stack.pop()
            if isinstance(node, BNot):
                memo[node] = mask ^ memo[node.operand]
            elif isinstance(node, BAnd):
                value = mask
                for operand in node.operands:
                    value &= memo[operand]
                memo[node] = value
            elif isinstance(node, BOr):
                value = 0
                for operand in node.operands:
                    value |= memo[operand]
                memo[node] = value
            elif isinstance(node, BXor):
                memo[node] = memo[node.left] ^ memo[node.right]
            else:
                cond = memo[node.cond]
                memo[node] = (cond & memo[node.then]) | ((mask ^ cond) & memo[node.other])
        return memo[self]

    def support(self) -> frozenset[str]:
        """Names of the variables this expression reads (:func:`support_of`)."""
        return support_of(self)

    def children(self) -> Sequence["BoolExpr"]:
        return ()

    def __and__(self, other: "BoolExpr") -> "BoolExpr":
        return and_(self, other)

    def __or__(self, other: "BoolExpr") -> "BoolExpr":
        return or_(self, other)

    def __invert__(self) -> "BoolExpr":
        return not_(self)

    def __xor__(self, other: "BoolExpr") -> "BoolExpr":
        return xor_(self, other)


@dataclass(frozen=True, eq=False)
class BConst(BoolExpr):
    """Boolean constant."""

    value: bool

    def __repr__(self) -> str:
        return "TRUE" if self.value else "FALSE"


@dataclass(frozen=True, eq=False)
class BVar(BoolExpr):
    """A named Boolean variable."""

    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True, eq=False)
class BNot(BoolExpr):
    """Negation."""

    operand: BoolExpr

    def children(self) -> Sequence[BoolExpr]:
        return (self.operand,)

    def __repr__(self) -> str:
        return f"~{self.operand!r}"


@dataclass(frozen=True, eq=False)
class BAnd(BoolExpr):
    """N-ary conjunction."""

    operands: tuple[BoolExpr, ...]

    def children(self) -> Sequence[BoolExpr]:
        return self.operands

    def __repr__(self) -> str:
        return "(" + " & ".join(repr(op) for op in self.operands) + ")"


@dataclass(frozen=True, eq=False)
class BOr(BoolExpr):
    """N-ary disjunction."""

    operands: tuple[BoolExpr, ...]

    def children(self) -> Sequence[BoolExpr]:
        return self.operands

    def __repr__(self) -> str:
        return "(" + " | ".join(repr(op) for op in self.operands) + ")"


@dataclass(frozen=True, eq=False)
class BXor(BoolExpr):
    """Binary exclusive-or."""

    left: BoolExpr
    right: BoolExpr

    def children(self) -> Sequence[BoolExpr]:
        return (self.left, self.right)

    def __repr__(self) -> str:
        return f"({self.left!r} ^ {self.right!r})"


@dataclass(frozen=True, eq=False)
class BIte(BoolExpr):
    """If-then-else (multiplexer) node."""

    cond: BoolExpr
    then: BoolExpr
    other: BoolExpr

    def children(self) -> Sequence[BoolExpr]:
        return (self.cond, self.then, self.other)

    def __repr__(self) -> str:
        return f"ite({self.cond!r}, {self.then!r}, {self.other!r})"


TRUE = BConst(True)
FALSE = BConst(False)

#: Intern table: structural key -> the canonical node.  Values are weak,
#: so a DAG no longer referenced anywhere (e.g. a finished job's unrolled
#: design in a long-lived pool worker) is collected instead of pinned for
#: the process lifetime.  Keys reference children by ``id``; the stored
#: node keeps its children alive, so while an entry exists its key ids
#: cannot be recycled — and once the node dies the entry vanishes with
#: it, taking the now-meaningless ids along.
_HASHCONS: "weakref.WeakValueDictionary[tuple, BoolExpr]" = weakref.WeakValueDictionary()


def support_of(expr: BoolExpr,
               memo: dict[BoolExpr, frozenset[str]] | None = None) -> frozenset[str]:
    """Variable support of ``expr``, each shared DAG node walked once.

    Iterative post-order walk (unrolled bit functions nest far deeper
    than the recursion limit).  Results are keyed by node identity, which
    hash-consing makes structural; pass a long-lived ``memo`` to amortise
    the walk over subformulas shared between calls.
    """
    if memo is None:
        memo = {}
    stack = [expr]
    while stack:
        node = stack[-1]
        if node in memo:
            stack.pop()
            continue
        children = node.children()
        unresolved = [child for child in children if child not in memo]
        if unresolved:
            stack.extend(unresolved)
            continue
        stack.pop()
        if isinstance(node, BVar):
            memo[node] = frozenset((node.name,))
        elif children:
            memo[node] = frozenset().union(*(memo[child] for child in children))
        else:
            memo[node] = frozenset()
    return memo[expr]


def var(name: str) -> BVar:
    """Create (or reference) the Boolean variable ``name``."""
    key = ("var", name)
    node = _HASHCONS.get(key)
    if node is None:
        node = _HASHCONS[key] = BVar(name)
    return node  # type: ignore[return-value]


def const(value: bool) -> BConst:
    return TRUE if value else FALSE


def not_(operand: BoolExpr) -> BoolExpr:
    """Simplifying negation."""
    if isinstance(operand, BConst):
        return const(not operand.value)
    if isinstance(operand, BNot):
        return operand.operand
    key = ("not", id(operand))
    node = _HASHCONS.get(key)
    if node is None:
        node = _HASHCONS[key] = BNot(operand)
    return node


def and_(*operands: BoolExpr) -> BoolExpr:
    """Simplifying n-ary conjunction (flattens nested ANDs)."""
    flat: list[BoolExpr] = []
    for operand in operands:
        if isinstance(operand, BConst):
            if not operand.value:
                return FALSE
            continue
        if isinstance(operand, BAnd):
            flat.extend(operand.operands)
        else:
            flat.append(operand)
    unique: list[BoolExpr] = []
    for operand in flat:
        if operand not in unique:
            unique.append(operand)
    for operand in unique:
        if not_(operand) in unique:
            return FALSE
    if not unique:
        return TRUE
    if len(unique) == 1:
        return unique[0]
    key = ("and",) + tuple(id(op) for op in unique)
    node = _HASHCONS.get(key)
    if node is None:
        node = _HASHCONS[key] = BAnd(tuple(unique))
    return node


def or_(*operands: BoolExpr) -> BoolExpr:
    """Simplifying n-ary disjunction (flattens nested ORs)."""
    flat: list[BoolExpr] = []
    for operand in operands:
        if isinstance(operand, BConst):
            if operand.value:
                return TRUE
            continue
        if isinstance(operand, BOr):
            flat.extend(operand.operands)
        else:
            flat.append(operand)
    unique: list[BoolExpr] = []
    for operand in flat:
        if operand not in unique:
            unique.append(operand)
    for operand in unique:
        if not_(operand) in unique:
            return TRUE
    if not unique:
        return FALSE
    if len(unique) == 1:
        return unique[0]
    key = ("or",) + tuple(id(op) for op in unique)
    node = _HASHCONS.get(key)
    if node is None:
        node = _HASHCONS[key] = BOr(tuple(unique))
    return node


def xor_(left: BoolExpr, right: BoolExpr) -> BoolExpr:
    """Simplifying exclusive-or."""
    if isinstance(left, BConst):
        return not_(right) if left.value else right
    if isinstance(right, BConst):
        return not_(left) if right.value else left
    if left == right:
        return FALSE
    if left == not_(right):
        return TRUE
    key = ("xor", id(left), id(right))
    node = _HASHCONS.get(key)
    if node is None:
        node = _HASHCONS[key] = BXor(left, right)
    return node


def ite(cond: BoolExpr, then: BoolExpr, other: BoolExpr) -> BoolExpr:
    """Simplifying if-then-else."""
    if isinstance(cond, BConst):
        return then if cond.value else other
    if then == other:
        return then
    if isinstance(then, BConst) and isinstance(other, BConst):
        return cond if then.value else not_(cond)
    if isinstance(then, BConst):
        # ite(c, 1, e) = c | e ; ite(c, 0, e) = ~c & e
        return or_(cond, other) if then.value else and_(not_(cond), other)
    if isinstance(other, BConst):
        # ite(c, t, 1) = ~c | t ; ite(c, t, 0) = c & t
        return or_(not_(cond), then) if other.value else and_(cond, then)
    key = ("ite", id(cond), id(then), id(other))
    node = _HASHCONS.get(key)
    if node is None:
        node = _HASHCONS[key] = BIte(cond, then, other)
    return node


def implies(antecedent: BoolExpr, consequent: BoolExpr) -> BoolExpr:
    """Logical implication."""
    return or_(not_(antecedent), consequent)


def iff(left: BoolExpr, right: BoolExpr) -> BoolExpr:
    """Logical equivalence."""
    return not_(xor_(left, right))
