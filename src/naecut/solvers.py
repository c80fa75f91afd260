"""Exact oracles: NAE satisfiability, triangle-free cuts, and fast paths.

Both brute-force oracles run the same exhaustive backtracking engine over
"not-all-equal groups" (a clause's literals, or a triangle's vertices read
as side bits).  The engine branches on variables in index order trying
False before True, so the first model found is the lexicographically
smallest one; pruning never skips a model, it only discards candidates
that provably cannot be completed.  Before searching it adds implied
equalities: two apexes over the same positive 3-group, as in a gadget's
two tetrahedra glued along a face, must take the same value.  The search
keeps its decisions on an explicit stack, so its depth is bounded by the
budget, not by the interpreter's recursion limit.  A budget error is
always distinct from "no solution exists".
"""

from __future__ import annotations

import random

from .errors import BudgetExceeded, FormatError, SearchBudget
from .formula import (
    Assignment,
    Clause,
    CnfFormula,
    incidence_graph,
    is_monotone_3sat,
    nae_satisfies,
)
from .graphs import (
    Colouring,
    Cut,
    Graph,
    enumerate_triangles,
    verify_colouring,
    verify_cut_triangle_free,
)
from .textio import ints, records

_MAX_CLAUSE_ATTEMPTS = 10_000


def exhaustive_budget(num_binary_choices: int) -> SearchBudget:
    """A budget admitting the full candidate space of the given bit width."""
    return SearchBudget(max_states=2 ** max(num_binary_choices + 1, 24))


def _apex_equalities(num_vars: int, groups) -> list[tuple[int, int]]:
    """2-groups (x, -y) equating consecutive apexes x < y of each positive 3-group."""
    faces = {tuple(sorted(g)) for g in groups if len(g) == 3 and min(g) > 0}
    by_var: list[list[tuple[int, ...]]] = [[] for _ in range(num_vars + 1)]
    for face in faces:
        for v in face:
            by_var[v].append(face)
    equalities = set()
    for a, b, c in faces:
        apexes = []
        for other in by_var[a]:
            if b in other and c not in other:
                x = sum(other) - a - b
                if tuple(sorted((x, a, c))) in faces and tuple(sorted((x, b, c))) in faces:
                    apexes.append(x)
        apexes.sort()
        equalities.update((x, -y) for x, y in zip(apexes, apexes[1:]))
    return sorted(equalities)


class _NaeEngine:
    """Backtracking search for systems of not-all-equal constraints.

    Each group is a tuple of signed variable indices; a negative entry means
    the literal value is the variable's complement.  A group is violated
    exactly when all its literal values are equal.  Per-group counters of
    true/false literal values give O(1) conflict and unit detection; when a
    group has one unassigned literal and all assigned ones agree, the last
    literal is forced to the opposite value.

    On top of unit propagation, each branch runs failed-literal probing on
    the unassigned variables around fresh assignments: a value whose
    propagation conflicts is excluded, and if both values conflict the
    branch is abandoned.  Probing is what lets the search discover, at the
    moment the second endpoint of a gadget is placed, that separated
    endpoints doom the whole subtree, without knowing what a gadget is.

    Equivalence reasoning spares most of that probing.  Call x an apex of
    the positive 3-group {a,b,c} when {x,a,b}, {x,a,c} and {x,b,c} are
    positive 3-groups too.  Those three groups force x to the minority value
    of a, b, c, so all apexes of one face are equal, and `__init__` adds the
    2-group (x, -y) for each pair of consecutive apexes x < y.  The added
    groups hold in every model, so the search finds the same first model.

    The search is a loop over a stack of (variable, trail mark, value
    tried) frames, one per decision, rather than a recursion per variable.
    """

    def __init__(self, num_vars: int, groups):
        self.n = num_vars
        self.groups = [tuple(g) for g in groups]
        self.groups.extend(_apex_equalities(num_vars, self.groups))
        self.sizes = [len(g) for g in self.groups]
        self.true_count = [0] * len(self.groups)
        self.false_count = [0] * len(self.groups)
        self.occurs: list[list[tuple[int, bool]]] = [[] for _ in range(num_vars + 1)]
        for gi, lits in enumerate(self.groups):
            for lit in lits:
                self.occurs[abs(lit)].append((gi, lit < 0))
        self.value: list[bool | None] = [None] * (num_vars + 1)
        self.trail: list[int] = []
        self.nodes = 0
        self.max_nodes = 0
        self.max_depth = 0
        self.require_some_true = False

    def _set(self, var: int, val: bool) -> tuple[bool, list[int]]:
        """Assign var=val; returns (no conflict, groups that may force a unit)."""
        self.value[var] = val
        self.trail.append(var)
        ok = True
        units = []
        for gi, neg in self.occurs[var]:
            if (not val) if neg else val:
                self.true_count[gi] += 1
            else:
                self.false_count[gi] += 1
            t = self.true_count[gi]
            f = self.false_count[gi]
            size = self.sizes[gi]
            if t == size or f == size:
                ok = False
            elif t + f == size - 1 and (t == 0 or f == 0):
                units.append(gi)
        return ok, units

    def _mark(self) -> int:
        return len(self.trail)

    def _undo(self, mark: int) -> None:
        while len(self.trail) > mark:
            var = self.trail.pop()
            val = self.value[var]
            self.value[var] = None
            for gi, neg in self.occurs[var]:
                if (not val) if neg else val:
                    self.true_count[gi] -= 1
                else:
                    self.false_count[gi] -= 1

    def _assign(self, var: int, val: bool) -> bool:
        """Assign and unit-propagate to fixpoint; False on conflict."""
        ok, queue = self._set(var, val)
        if not ok:
            return False
        while queue:
            next_queue = []
            for gi in queue:
                t = self.true_count[gi]
                f = self.false_count[gi]
                if t + f != self.sizes[gi] - 1 or (t != 0 and f != 0):
                    continue
                for lit in self.groups[gi]:
                    u = abs(lit)
                    if self.value[u] is None:
                        forced_lv = t == 0
                        forced_val = (not forced_lv) if lit < 0 else forced_lv
                        ok, more = self._set(u, forced_val)
                        if not ok:
                            return False
                        next_queue.extend(more)
                        break
            queue = next_queue
        return True

    def _probe(self, var: int) -> bool:
        """Try both values of var; prune the branch if neither survives."""
        mark = self._mark()
        ok_false = self._assign(var, False)
        self._undo(mark)
        ok_true = self._assign(var, True)
        self._undo(mark)
        if not ok_false and not ok_true:
            return False
        if ok_false != ok_true:
            return self._assign(var, ok_true)
        return True

    def _probe_around(self, mark: int) -> bool:
        """Probe unassigned variables co-occurring with assignments past `mark`."""
        probed: set[int] = set()
        scanned = mark
        while True:
            frontier: set[int] = set()
            for var in self.trail[scanned:]:
                for gi, _neg in self.occurs[var]:
                    if self.true_count[gi] and self.false_count[gi]:
                        continue
                    for lit in self.groups[gi]:
                        u = abs(lit)
                        if self.value[u] is None and u not in probed:
                            frontier.add(u)
            scanned = len(self.trail)
            if not frontier:
                return True
            for u in sorted(frontier):
                if self.value[u] is not None:
                    continue
                probed.add(u)
                if not self._probe(u):
                    return False
            if len(self.trail) == scanned:
                return True

    def solve(self, require_some_true: bool, max_nodes: int) -> list[bool | None] | None:
        """First model with variable 1 False, or None; needs at least one variable."""
        self.max_nodes = max_nodes
        self.require_some_true = require_some_true
        mark = self._mark()
        if not (self._assign(1, False) and self._probe_around(mark)):
            return None
        if self._dfs():
            return list(self.value)
        return None

    def _dfs(self) -> bool:
        """Branch on free variables in index order, False first; True at a model."""
        value = self.value
        n = self.n
        stack: list[tuple[int, int, bool]] = []
        var, val = 1, False
        while True:
            while var <= n and value[var] is not None:
                var += 1
            if var > n:
                if not self.require_some_true or True in value:
                    return True
                ok = False
            else:
                self.nodes += 1
                if self.nodes > self.max_nodes:
                    raise BudgetExceeded(
                        f"search exceeded {self.max_nodes} states; "
                        f"deepest decision level {self.max_depth}"
                    )
                mark = self._mark()
                stack.append((var, mark, val))
                if len(stack) > self.max_depth:
                    self.max_depth = len(stack)
                ok = self._assign(var, val) and self._probe_around(mark)
            if ok:
                val = False
                continue
            while stack:
                var, mark, val = stack.pop()
                self._undo(mark)
                if not val:
                    val = True
                    break
            else:
                return False


def brute_force_nae(f: CnfFormula, budget: SearchBudget | None = None) -> Assignment | None:
    """Lexicographically smallest NAE-satisfying assignment, or None.

    Variables are ordered by index with False < True.  NAE constraints are
    complement-invariant, so variable 1 is pinned to False: whenever any
    witness exists, the smallest one has variable 1 false.
    """
    budget = budget or SearchBudget()
    if 2**f.num_vars > budget.max_states:
        raise BudgetExceeded(
            f"2^{f.num_vars} candidate assignments exceed the budget of "
            f"{budget.max_states} states"
        )
    if f.num_vars == 0:
        return {} if not f.clauses else None
    engine = _NaeEngine(f.num_vars, [cl.literals for cl in f.clauses])
    result = engine.solve(require_some_true=False, max_nodes=budget.max_states)
    if result is None:
        return None
    witness = {x: bool(result[x]) for x in range(1, f.num_vars + 1)}
    if not nae_satisfies(f, witness):
        raise AssertionError("search returned a non-satisfying assignment")
    return witness


def brute_force_cut(g: Graph, budget: SearchBudget | None = None) -> Cut | None:
    """Smallest triangle-free cut of g, or None.

    Encoding: vertex on side A means bit 1, vertex 1 is pinned to side B
    (cut sides are symmetric), and "smallest" is lexicographic over the side
    bits of vertices 2..n with side B first.  Graphs with fewer than two
    vertices admit no cut at all.
    """
    budget = budget or SearchBudget()
    n = g.num_vertices
    if n <= 1:
        return None
    if 2 ** (n - 1) > budget.max_states:
        raise BudgetExceeded(
            f"2^{n - 1} candidate cuts exceed the budget of {budget.max_states} states"
        )
    engine = _NaeEngine(n, enumerate_triangles(g))
    result = engine.solve(require_some_true=True, max_nodes=budget.max_states)
    if result is None:
        return None
    side_a = frozenset(v for v in range(1, n + 1) if result[v])
    side_b = frozenset(v for v in range(1, n + 1) if not result[v])
    cut = Cut(side_a, side_b)
    if not verify_cut_triangle_free(g, cut):
        raise AssertionError("search returned an invalid cut")
    return cut


def assignment_from_4colouring(f: CnfFormula, colouring: Colouring) -> Assignment:
    """NAE witness from a proper 4-colouring of the incidence graph.

    A clause's three variables carry three distinct colours, which cannot
    all fall into {1, 2} nor all into {3, 4}, so setting a variable true iff
    its colour is 1 or 2 always satisfies the formula.
    """
    if not is_monotone_3sat(f):
        raise ValueError("fast path requires monotone 3-SAT input")
    if colouring.k > 4:
        raise ValueError(f"expected at most 4 colours, got {colouring.k}")
    g = incidence_graph(f, "A")
    if not verify_colouring(g, colouring):
        raise ValueError("not a proper colouring of the incidence graph")
    witness = {x: colouring.colours[x] in (1, 2) for x in range(1, f.num_vars + 1)}
    if not nae_satisfies(f, witness):
        raise AssertionError("two-colour-class split failed to satisfy the formula")
    return witness


def cut_from_4colouring(g: Graph, colouring: Colouring) -> Cut:
    """Triangle-free cut from a proper 4-colouring: colours {1,2} vs {3,4}.

    A triangle inside one side would need three distinct colours within a
    two-colour class.  If one side comes out empty, the smallest vertex of
    the full side moves over; a lone vertex forms no triangle and removing
    a vertex cannot create one.
    """
    if colouring.k > 4:
        raise ValueError(f"expected at most 4 colours, got {colouring.k}")
    if g.num_vertices < 2:
        raise ValueError("a cut needs at least two vertices")
    if not verify_colouring(g, colouring):
        raise ValueError("not a proper colouring of the graph")
    side_a = {v for v in range(1, g.num_vertices + 1) if colouring.colours[v] in (1, 2)}
    side_b = {v for v in range(1, g.num_vertices + 1) if colouring.colours[v] in (3, 4)}
    if not side_a:
        v = min(side_b)
        side_b.discard(v)
        side_a.add(v)
    elif not side_b:
        v = min(side_a)
        side_a.discard(v)
        side_b.add(v)
    cut = Cut(frozenset(side_a), frozenset(side_b))
    if not verify_cut_triangle_free(g, cut):
        raise AssertionError("colour-class cut is not triangle-free")
    return cut


def randbelow(rng: random.Random, bound: int) -> int:
    """Uniform integer in [0, bound) from raw generator bits.

    Uses getrandbits with rejection so the sampling procedure is pinned to
    the generator's bit stream and reproducible across platforms and Python
    versions.
    """
    bits = bound.bit_length()
    r = rng.getrandbits(bits)
    while r >= bound:
        r = rng.getrandbits(bits)
    return r


def generate_instance(
    seed: int, num_vars: int, num_clauses: int, distinct_pairs: bool = False
) -> CnfFormula:
    """Seeded random monotone 3-CNF: each clause a uniform 3-subset of variables.

    With distinct_pairs, clauses are rejection-sampled so no variable pair
    co-occurs twice; generation fails if a clause cannot be placed after a
    bounded number of attempts.  Identical arguments yield identical
    formulas on every platform (Mersenne Twister bit stream).
    """
    if num_vars < 3:
        raise ValueError("need at least three variables")
    if num_clauses < 0:
        raise ValueError("clause count must be non-negative")
    rng = random.Random(seed)
    used_pairs: set[tuple[int, int]] = set()
    clauses: list[Clause] = []
    for ci in range(num_clauses):
        for _attempt in range(_MAX_CLAUSE_ATTEMPTS):
            chosen: list[int] = []
            while len(chosen) < 3:
                v = randbelow(rng, num_vars) + 1
                if v not in chosen:
                    chosen.append(v)
            triple = tuple(sorted(chosen))
            pairs = [
                (triple[0], triple[1]),
                (triple[0], triple[2]),
                (triple[1], triple[2]),
            ]
            if distinct_pairs and any(p in used_pairs for p in pairs):
                continue
            break
        else:
            raise ValueError(
                f"could not place clause {ci + 1} without repeating a variable pair"
            )
        used_pairs.update(pairs)
        clauses.append(Clause.from_signed(*triple))
    return CnfFormula(num_vars, tuple(clauses))


def emit_nae_witness(witness: Assignment | None) -> str:
    """SAT-solver style witness: `s` status line plus a 0-terminated `v` line."""
    if witness is None:
        return "s NAE-UNSATISFIABLE\n"
    lits = [x if witness[x] else -x for x in sorted(witness)]
    return "s NAE-SATISFIABLE\nv " + " ".join(str(x) for x in lits) + " 0\n"


def _read_witness(text: str | bytes, found: str, none: str) -> tuple[bool, list[int]]:
    """(last `s` status is `found`, not `none`; non-zero ints of all `v` lines); others ignored."""
    status = None
    values: list[int] = []
    for line, _ in records(text):
        if line.startswith("s "):
            status = line[2:].strip()
        elif line.startswith("v"):
            values.extend(x for x in ints(line[1:].split(), "v line", line) if x)
    if status not in (found, none):
        raise FormatError("missing or unrecognized witness status line")
    return status == found, values


def parse_nae_witness(text: str | bytes) -> Assignment | None:
    satisfiable, lits = _read_witness(text, "NAE-SATISFIABLE", "NAE-UNSATISFIABLE")
    witness: Assignment = {}
    for lit in lits:
        var = abs(lit)
        if var in witness and witness[var] != (lit > 0):
            raise FormatError(f"conflicting values for variable {var}")
        witness[var] = lit > 0
    if not satisfiable:
        return None
    if not witness:
        raise FormatError("satisfiable witness carries no `v` line")
    return witness


def emit_cut_witness(cut: Cut | None) -> str:
    """`s CUT-FOUND` plus the side-A vertex ids, or `s NO-CUT`."""
    if cut is None:
        return "s NO-CUT\n"
    ids = " ".join(str(v) for v in sorted(cut.side_a))
    return f"s CUT-FOUND\nv {ids} 0\n" if ids else "s CUT-FOUND\nv 0\n"


def parse_cut_witness(text: str | bytes, num_vertices: int) -> Cut | None:
    found, ids = _read_witness(text, "CUT-FOUND", "NO-CUT")
    for v in ids:
        if not (1 <= v <= num_vertices):
            raise FormatError(f"vertex {v} out of range 1..{num_vertices}")
    if not found:
        return None
    side_a = frozenset(ids)
    side_b = frozenset(v for v in range(1, num_vertices + 1) if v not in side_a)
    return Cut(side_a, side_b)
