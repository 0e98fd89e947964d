"""Constant folding over the bit-level netlist.

:func:`fold_constants` finds registers that can never leave their reset
values.  It computes the greatest fixpoint of

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

from typing import TYPE_CHECKING, Mapping

from repro.boolean.bitblast import default_bit_name
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


def fold_constants(netlist: "NetlistIR") -> dict[str, int]:
    """Registers provably stuck at their reset values (reset held low).

    Maps each folded register to the word value it is stuck at.
    """
    module = netlist.module
    candidates = list(netlist.synth.registers)
    reset_env: dict[str, bool] = {}
    if module.reset is not None:
        for bit in range(module.width_of(module.reset)):
            reset_env[default_bit_name(module.reset, bit)] = False

    while True:
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
            return {name: module.signal(name).reset_value for name in candidates}
        candidates = survivors
