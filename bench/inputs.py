"""Seeded inputs for the benchmark workloads.

Everything a child process runs is generated here, in the parent, from the
workload name, the seed and the size preset: the arithmetics to bind, the
``nda laws`` command lines, the expressions (as trees, so the oracle can
evaluate them without the package's parser) and the fold sequences.  The
same (workload, seed, preset) always gives the same inputs.

A tree is a JSON-able list:

* ``["lit", k]``: the carrier value with index k;
* ``["bad", text]``: a literal that is deliberately off the carrier;
* ``[op, left, right]`` with op in add, sub, mul;
* ``["rel", rel, left, right]`` at the root only, rel in eq, lt, mll, mlll.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("audit-float", "audit-exact", "session")


@dataclass(frozen=True)
class Preset:
    upper: int  # -R of every law audit
    atanh_step: str  # grid step of the session's mpmath-backed arithmetic
    table_points: int
    session_exprs: int
    probe_exprs: int  # expressions evaluated after the audits, outside run_s
    fold_terms: int


FULL = Preset(upper=300, atanh_step="0.00002", table_points=2000,
              session_exprs=10000, probe_exprs=4000, fold_terms=100000)
SMOKE = Preset(upper=12, atanh_step="0.001", table_points=200,
               session_exprs=100, probe_exprs=50, fold_terms=300)

AUDIT_SPECS = {
    "audit-float": ("projective:pow:1.5@int:0:1000",),
    "audit-exact": ("dual:pow:2@int:0:1000", "projective:exp2m1@int:0:1000"),
}

_REL_TEXT = {"eq": "==", "lt": "<", "mll": "<<", "mlll": "<<<"}
_OP_TEXT = {"add": "+", "sub": "-", "mul": "*"}
_PRECEDENCE = {"add": 1, "sub": 1, "mul": 2}


@dataclass(frozen=True)
class CarrierShape:
    """Just enough of a carrier to draw and print literals: int or grid."""

    size: int
    step: str | None = None  # decimal text of the grid step; None for int:0:<max>

    def literal(self, k: int) -> str:
        if self.step is None:
            return str(k)
        decimals = len(self.step.split(".")[1])
        return f"{k * float(self.step):.{decimals}f}"

    def off_literal(self, rng: random.Random) -> str:
        """Text of a number the carrier does not hold: past the top, or between two points."""
        k = rng.randrange(self.size - 1)
        if self.step is None:
            return str(self.size + rng.randrange(500)) if rng.random() < 0.5 else f"{k}.5"
        decimals = len(self.step.split(".")[1]) + 1
        if rng.random() < 0.5:
            return f"{1 + rng.randrange(1, 9) / 10:.1f}"
        return f"{(k + 0.5) * float(self.step):.{decimals}f}"


@dataclass
class ArithInput:
    spec: str
    shape: CarrierShape
    mul_weight: float  # how often '*' is drawn; low where '*' is expected to fail


@dataclass
class Inputs:
    """What one child process runs, plus the trees the oracle re-evaluates."""

    binds: list[str]
    audits: list[dict] = field(default_factory=list)  # {"spec", "upper", "argv"}
    exprs: list[tuple[str, str]] = field(default_factory=list)  # (spec, text)
    trees: list = field(default_factory=list)  # parallel to exprs
    folds: list[tuple[str, list]] = field(default_factory=list)  # (spec, term values)
    fold_indices: list[list[int]] = field(default_factory=list)  # parallel to folds
    table: list[tuple[int, int]] | None = None  # (x, f(x)) rows of the table file
    probes: bool = False  # the expressions are timed after run_s closes, not in it

    def to_child(self) -> dict:
        timed, probes = ([], self.exprs) if self.probes else (self.exprs, [])
        return {"binds": self.binds, "audits": self.audits,
                "exprs": timed, "probes": probes, "folds": self.folds}


def table_points(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """A strictly increasing, roughly quadratic exact-int f with f(0) = 0 and f(1) = 1."""
    rows = [(0, 0), (1, 1)]
    y = 1
    for x in range(2, n):
        y += rng.randint(1, x)
        rows.append((x, y))
    return rows


def _draw_index(rng: random.Random, shape: CarrierShape) -> int:
    # mostly small operands, so sums stay below the top often enough to matter
    return int((shape.size - 1) * rng.random() ** 3)


def _draw_tree(rng: random.Random, arith: ArithInput, ops: int):
    if ops == 0:
        if rng.random() < 0.02:
            return ["bad", arith.shape.off_literal(rng)]
        return ["lit", _draw_index(rng, arith.shape)]
    left_ops = rng.randrange(ops)
    r = rng.random()
    op = "mul" if r < arith.mul_weight else ("sub" if r < arith.mul_weight + 0.2 else "add")
    return [op, _draw_tree(rng, arith, left_ops), _draw_tree(rng, arith, ops - 1 - left_ops)]


def draw_expression(rng: random.Random, arith: ArithInput) -> list:
    tree = _draw_tree(rng, arith, rng.choice((1, 1, 2, 2, 3, 4)))
    if rng.random() < 0.25:
        rel = rng.choice(tuple(_REL_TEXT))
        return ["rel", rel, tree, _draw_tree(rng, arith, rng.choice((0, 1, 2)))]
    return tree


def render(tree, shape: CarrierShape, rng: random.Random) -> str:
    """Expression text; parentheses where the left fold needs them, sometimes more."""
    if tree[0] == "rel":
        return f"{render(tree[2], shape, rng)} {_REL_TEXT[tree[1]]} {render(tree[3], shape, rng)}"
    return _render(tree, shape, rng, 0, False)


def _render(tree, shape: CarrierShape, rng: random.Random, parent_level: int, right_side: bool) -> str:
    if tree[0] == "lit":
        return shape.literal(tree[1])
    if tree[0] == "bad":
        return tree[1]
    level = _PRECEDENCE[tree[0]]
    text = (f"{_render(tree[1], shape, rng, level, False)} {_OP_TEXT[tree[0]]} "
            f"{_render(tree[2], shape, rng, level, True)}")
    if level < parent_level or (level == parent_level and right_side) or rng.random() < 0.1:
        return f"({text})"
    return text


def build(workload: str, seed: int, preset: Preset, table_path: str) -> Inputs:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}/{seed}")
    int1000 = CarrierShape(1001)
    if workload in AUDIT_SPECS:
        specs = AUDIT_SPECS[workload]
        ariths = [ArithInput(spec, int1000, 0.3) for spec in specs]
        inputs = Inputs(binds=list(specs), probes=True)
        for spec in specs:
            argv = ["--format", "json", "laws", spec, "--check", "all", "-R", str(preset.upper)]
            inputs.audits.append({"spec": spec, "upper": preset.upper, "argv": argv})
        _add_exprs(inputs, rng, ariths, preset.probe_exprs)
        return inputs

    atanh_size = round(1 / float(preset.atanh_step)) + 1
    atanh = ArithInput(f"projective:atanh:1@grid:0:1:{preset.atanh_step}",
                       CarrierShape(atanh_size, preset.atanh_step), 0.1)
    table = ArithInput(f"projective:table:{table_path}@int:0:{preset.table_points - 1}",
                       CarrierShape(preset.table_points), 0.3)
    ariths = [atanh, table,
              ArithInput("projective:pow:1.5@int:0:1000", int1000, 0.3),
              ArithInput("projective:exp2m1@int:0:1000", int1000, 0.3),
              ArithInput("dual:pow:2@int:0:1000", int1000, 0.3)]
    inputs = Inputs(binds=[a.spec for a in ariths], table=table_points(rng, preset.table_points))
    _add_exprs(inputs, rng, ariths, preset.session_exprs)
    # velocity-like sums on the grid, then the table and pow:1.5 folds, all of small terms
    for arith, top in ((atanh, 200), (table, 20), (ariths[2], 50)):
        indices = [rng.randrange(top) for _ in range(preset.fold_terms)]
        step = float(arith.shape.step) if arith.shape.step else None
        values = [k * step for k in indices] if step else indices
        inputs.folds.append((arith.spec, values))
        inputs.fold_indices.append(indices)
    return inputs


def _add_exprs(inputs: Inputs, rng: random.Random, ariths: list[ArithInput], count: int) -> None:
    for _ in range(count):
        arith = rng.choice(ariths)
        tree = draw_expression(rng, arith)
        inputs.trees.append(tree)
        inputs.exprs.append((arith.spec, render(tree, arith.shape, rng)))
