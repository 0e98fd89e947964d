"""Optimization passes over the bit-level netlist.

Two passes live here; the third (cone-of-influence slicing) is
:mod:`repro.ir.coi`.

*Structural hashing* is not a rewrite: the expression layer
(:mod:`repro.boolean.expr`) interns every node at construction, so the
netlist is hash-consed by birth.  :func:`structural_hash_stats` measures
what that buys — how many references the bit functions make versus how
many distinct nodes exist.

*Constant folding* (:func:`fold_constants`) finds registers that can
never leave their reset values.  It computes the greatest fixpoint of

    "every register in the candidate set has a next-state function that
    evaluates to its reset constant whenever all candidates hold their
    reset constants (inputs free)"

by iterated partial evaluation: candidate register bits (and the reset
input, which the from-reset unrolling pins low on every cycle) are
substituted as constants, combinational bits that collapse to
constants are propagated in evaluation order, and any register whose
next-state fails to reproduce its reset value is evicted until the set
is stable.  Registers in the fixpoint are genuinely stuck: by induction
from the reset state they hold their reset constants in every reachable
state, so replacing them with constants preserves all behaviours of the
reset-low transition system the formal engines unroll.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.boolean.expr import (
    BAnd,
    BConst,
    BIte,
    BNot,
    BOr,
    BoolExpr,
    BVar,
    BXor,
    and_,
    const,
    ite,
    not_,
    or_,
    xor_,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ir.netlist import NetlistIR


def partial_eval(expr: BoolExpr, env: Mapping[str, bool],
                 memo: dict[BoolExpr, BoolExpr] | None = None) -> BoolExpr:
    """Rebuild ``expr`` with the variables in ``env`` replaced by constants.

    The rebuild goes through the simplifying constructors, so constants
    propagate as far as the structure allows (a fully determined
    expression collapses to ``TRUE``/``FALSE``).  Iterative over the DAG;
    ``memo`` may be shared across calls evaluating under the same ``env``
    so shared subgraphs are rewritten once.
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
            value = env.get(node.name)
            memo[node] = node if value is None else const(value)
        elif isinstance(node, BConst):
            memo[node] = node
        elif isinstance(node, BNot):
            memo[node] = not_(memo[node.operand])
        elif isinstance(node, BAnd):
            memo[node] = and_(*[memo[op] for op in node.operands])
        elif isinstance(node, BOr):
            memo[node] = or_(*[memo[op] for op in node.operands])
        elif isinstance(node, BXor):
            memo[node] = xor_(memo[node.left], memo[node.right])
        elif isinstance(node, BIte):
            memo[node] = ite(memo[node.cond], memo[node.then], memo[node.other])
        else:  # pragma: no cover - exhaustive over the expr node kinds
            raise TypeError(f"cannot partially evaluate {type(node).__name__}")
    return memo[expr]


@dataclass
class FoldResult:
    """Outcome of :func:`fold_constants`.

    ``constant_registers`` maps each folded register to the word value it
    is stuck at (its reset value); ``constant_register_bits`` is the same
    information at bit granularity (canonical bit name -> bool), which is
    what the cone pass and the unroller consume directly.
    """

    constant_registers: dict[str, int] = field(default_factory=dict)
    constant_register_bits: dict[str, bool] = field(default_factory=dict)
    #: Fixpoint iterations taken (telemetry).
    iterations: int = 0


def fold_constants(netlist: "NetlistIR") -> FoldResult:
    """Find registers provably stuck at their reset values (reset held low)."""
    module = netlist.module
    candidates = list(netlist.synth.registers)
    reset_env: dict[str, bool] = {}
    if module.reset is not None:
        from repro.boolean.bitblast import default_bit_name

        for bit in range(module.width_of(module.reset)):
            reset_env[default_bit_name(module.reset, bit)] = False

    iterations = 0
    while True:
        iterations += 1
        env = dict(reset_env)
        for name in candidates:
            for node in netlist.bits_of(name):
                env[node.name] = node.reset
        # Propagate through combinational bits in evaluation order so a
        # register whose next-state reads a now-constant wire still folds.
        memo: dict[BoolExpr, BoolExpr] = {}
        for name in netlist.synth.comb_order:
            for node in netlist.bits_of(name):
                value = partial_eval(node.function, env, memo)
                if isinstance(value, BConst):
                    env[node.name] = value.value
        survivors = []
        for name in candidates:
            stuck = True
            for node in netlist.bits_of(name):
                value = partial_eval(node.function, env, memo)
                if not (isinstance(value, BConst) and value.value == node.reset):
                    stuck = False
                    break
            if stuck:
                survivors.append(name)
        if len(survivors) == len(candidates):
            break
        candidates = survivors

    result = FoldResult(iterations=iterations)
    for name in candidates:
        result.constant_registers[name] = module.signal(name).reset_value
        for node in netlist.bits_of(name):
            result.constant_register_bits[node.name] = node.reset
    return result


def structural_hash_stats(netlist: "NetlistIR") -> dict:
    """Measure expression sharing across the netlist's bit functions.

    ``unique_nodes`` counts distinct interned DAG nodes reachable from
    any bit function; ``node_references`` counts every reference to them
    (root uses plus child edges).  Their ratio is the factor by which
    hash-consing shrank the netlist relative to a per-reference copy.
    """
    seen: set[int] = set()
    references = 0
    stack: list[BoolExpr] = []
    for node in netlist.nodes.values():
        if node.function is not None:
            references += 1
            stack.append(node.function)
    while stack:
        expr = stack.pop()
        if id(expr) in seen:
            continue
        seen.add(id(expr))
        children = expr.children()
        references += len(children)
        stack.extend(children)
    unique = len(seen)
    return {
        "unique_nodes": unique,
        "node_references": references,
        "sharing_ratio": round(references / unique, 3) if unique else 1.0,
    }
