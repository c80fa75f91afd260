"""Exact oracles: NAE satisfiability, triangle-free cuts, and fast paths.

Both brute-force oracles run one conflict-driven engine over "not-all-equal
groups" (a clause's literals, or a triangle's vertices read as side bits).
Each group is stored once and listed under both literals of each of its
variables, next to its other two literals as read from that side, so a
literal made True checks each of its groups by one or two values.  A
conflict teaches the engine a clause and sends it back to the level where
that clause is unit; decisions follow variable activity, which starts at
each variable's group count for the first model.  Learned clauses enter
only through `_learn`, level-0 facts through `_fix` and new activities
through `_set_scores`.  The smallest witness is then fixed variable by
variable in index order: a variable is False when some model extends the
values fixed so far with it False, which the last model or one solve under
that assumption shows, and True otherwise.  Those solves start from zero
activity, so they decide in index order, near the smallest witness.

The engine takes each group in variable order, its variables increasing
from first entry to last, and the list of groups in lexicographic order:
`brute_force_nae` orders each clause and then the list once, and triangle
enumeration already lists each triangle, and the triangles, in order.
Before searching, the engine rewrites the groups once by two exact rules.
A gadget interior (the face two glued tetrahedra share) whose indices are
the largest left is peeled: its apexes must be equal, and each of their
values has one smallest completion, on which nothing earlier depends.
Its seven groups are matched in the one order the sorted list gives
them.  Then a parity union-find merges the classes that 2-groups and apex
equalities define into their smallest indices, and rewrites the groups
through one table of every literal's signed root.  Two models first
differ at a representative, so searching the representatives in index
order keeps the smallest witness.  The search sees one canonical order
of the 3-groups left, so a reduction graph and its formula are one
search.  All search state lives in explicit lists, so depth is bounded by
the budget, not by the interpreter's recursion limit.  A budget error is
always distinct from "no solution exists".
"""

from __future__ import annotations

import heapq
import random
from itertools import chain, compress

from .errors import BudgetExceeded, FormatError, SearchBudget
from .formula import (
    Assignment,
    CnfFormula,
    incidence_graph,
    is_monotone_3sat,
    nae_fault,
    require_variables,
)
from .graphs import Colouring, Cut, Graph, colouring_fault, enumerate_triangles
from .reduction import cut_from_vertex_assignment
from .textio import ints, records


def exhaustive_budget(num_binary_choices: int) -> SearchBudget:
    """A budget admitting the full candidate space of the given bit width."""
    return SearchBudget(max_states=2 ** max(num_binary_choices + 1, 24))


def _apex_equalities(num_vars: int, groups) -> list[tuple[int, int]]:
    """2-groups (x, -y) equating consecutive apexes x < y of each positive 3-group.

    Each group lists its variables in increasing order, so a positive
    3-group is its face as given.
    """
    faces = {tuple(g) for g in groups if len(g) == 3 and min(g) > 0}
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


def _peel_trailing_interiors(num_vars: int, groups: list):
    """The groups left after peeling gadget interiors off the top, and the apex x of each.

    The three largest indices a < b < c still left are an interior when
    their only groups are the positive face (a, b, c) and the six positive
    (z, u, w) for two apexes z in {x, y} below a and the face's pairs
    {u, w}.  Every model then has x = y, and each value of x extends to
    a, b, c, so the seven groups give way to (x, -y).  Peeling stops at
    the first triple that is not an interior.

    Each group is a tuple listing its variables in increasing order, so
    its last entry is its largest variable, and the list is sorted, so an
    interior's groups reach their buckets as (x, a, b), (y, a, b) with
    0 < x < y, then (x, a, c), (x, b, c), (y, a, c), (y, b, c), (a, b, c),
    which is the one order matched.
    """
    # by_top[v]: the groups left whose largest variable is v.  While a, b, c
    # are the largest left, the groups holding any of them are exactly those
    # of by_top[a], by_top[b] and by_top[c]: each apex keeps a 2-group in
    # by_top of the larger apex, which is then also in the triple.
    by_top: list[list] = [[] for _ in range(num_vars + 1)]
    for g in groups:
        by_top[abs(g[-1])].append(g)
    peeled = []
    top = num_vars
    while top >= 5:
        a, b, c = top - 2, top - 1, top
        mid, high = by_top[b], by_top[c]
        x, y = (mid[0][0], mid[1][0]) if len(mid) == 2 else (0, 0)
        listed = [(x, a, b), (y, a, b)], [(x, a, c), (x, b, c), (y, a, c), (y, b, c), (a, b, c)]
        if by_top[a] or not (0 < x < y and (mid, high) == listed):
            break
        by_top[y].append((x, -y))
        peeled.append(x)
        top -= 3
    return list(chain.from_iterable(by_top[: top + 1])), peeled


def _presolve(num_vars: int, groups: list):
    """Rewrite the groups onto the variables the search needs, or None when there is no model.

    Takes groups as `_NaeEngine` does.  Returns (m, 3-groups over 1..m, lits,
    the number of peeled variables).  The 3-groups come sorted, each by
    variable, with no duplicates.
    Input variable v takes the value of the signed search variable lits[v].
    A peeled interior a, b, c with apex x reads 1, -lits[x], -1: False,
    not x, True, the smallest completion once the search pins 1 False.
    """
    groups, peeled = _peel_trailing_interiors(num_vars, groups)
    top = num_vars - 3 * len(peeled)
    pairs = [g for g in groups if len(g) == 2] + _apex_equalities(top, groups)
    triples = [g for g in groups if len(g) == 3]

    # Parity union-find: v takes the value of parent[v], complemented when flip[v].
    parent = list(range(top + 1))
    flip = bytearray(top + 1)

    def find(lit: int) -> int:
        """The signed class root whose value literal lit takes; a root is its class's smallest index."""
        v = lit if lit > 0 else -lit
        path = []
        while parent[v] != v:
            path.append(v)
            v = parent[v]
        parity = 0
        for u in reversed(path):
            parity ^= flip[u]
            parent[u], flip[u] = v, parity
        return -v if parity ^ (lit < 0) else v

    def signed(table: list[int]) -> list[int]:
        """table over 0..top, extended so that index -v reads -table[v]."""
        return table + [-x for x in reversed(table[1:])]

    def root_table() -> list[int]:
        """The signed root of every literal, by one pass in index order."""
        # A parent is a smaller index, so its root is known when v is reached.
        table = list(range(top + 1))
        for v in range(2, top + 1):
            u = parent[v]
            if u != v:
                table[v] = -table[u] if flip[v] else table[u]
        return signed(table)

    # A 2-group holds exactly when its literals differ.  Rewritten onto
    # roots, a 3-group holding a literal and its complement always holds,
    # one with a repeated literal holds exactly when its two literals
    # differ, and one literal three times never holds.  find runs only on
    # the pairs united; each round then rewrites the 3-groups through one
    # table of roots.
    root = None
    while pairs:
        for p, q in pairs:
            p, q = find(p), find(q)
            if p == q:
                return None
            if p != -q:
                lo, hi = sorted((p, q), key=abs)
                parent[abs(hi)] = abs(lo)
                flip[abs(hi)] = (lo < 0) ^ (hi < 0) ^ 1
        root = root_table()
        pairs = []
        left = []
        for g in triples:
            h = tuple(map(root.__getitem__, g))
            distinct = len({abs(x) for x in h})
            if distinct == 3:
                left.append(h)
            elif len(set(h)) == distinct:
                if distinct == 1:
                    return None
                pairs.append(tuple(set(h)))
        triples = left
    if root is None:
        root = root_table()

    roots = [v for v in range(1, top + 1) if root[v] == v]
    index = [0] * (top + 1)
    for i, v in enumerate(roots, 1):
        index[v] = i
    # renamed[lit]: the signed search variable whose value lit takes.
    renamed = list(map(signed(index).__getitem__, root))
    lits = renamed[: top + 1]
    triples = sorted({tuple(sorted(map(renamed.__getitem__, g), key=abs)) for g in triples})
    for x in reversed(peeled):
        lits += (1, -lits[x], -1)
    return len(roots), triples, lits, 3 * len(peeled)


class _NaeEngine:
    """Conflict-driven search for the smallest model of not-all-equal groups.

    A group is a sequence of signed variable indices (a negative entry reads
    the variable's complement), violated exactly when all its literal values
    are equal.  Literal code 2v means v is True and 2v+1 that v is False, and
    `val` is indexed by code.  A group stands for the clauses (l1 | l2 | l3)
    and (-l1 | -l2 | -l3) but is stored once, as the tuple g of its three
    codes.  `occ` has one list per code p: for each group g over p's
    variable it holds (x, y, g), where x and y are g's other two codes,
    both complemented when p is the complement of g's own code.  With p
    True, g is all-equal exactly when x and y are True too, so propagating
    p reads one or two values per group: x or y False leaves g alone, x and y
    True is a conflict, and one of them True with the other free forces
    the free one's complement.  The last variable of a group to be
    assigned sees all the others' values, so once the trail is processed
    no group is unit or all-equal.  The group is the reason of what it
    forces, every other variable being an antecedent.

    A conflict yields a first-UIP clause, minus literals whose reasons it
    already covers, and a jump back to the level where it is unit.  `_learn`
    takes it there, every literal False but the free clause[0] and clause[1]
    of the highest level, watches those two, counts it in `learned` and
    asserts clause[0].  `_fix` assigns a free literal at level 0 with no
    reason, for the caller to propagate: the pin, a one-literal lemma and
    each False value of the lex-min phase.  Decisions take the most active
    free variable (VSIDS) and set it False.  The first search starts each
    activity at the variable's number of presolved groups, as Chaff starts
    its scores at literal counts, so it decides the busiest variables
    first.  The heap holds at most one entry per variable with its current
    activity (`queued`): a bump makes that entry stale, and a backjump
    pushes only the variables without a live one.  `_set_scores` alone
    replaces the activities and their bump, leaving one live entry per
    free variable.

    `__init__` takes tuples of 2 or 3 literals over distinct variables,
    each listing its variables in increasing order, in a lexicographically
    sorted list (`brute_force_nae` orders each clause, then the list;
    `brute_force_cut` passes triangle enumeration's sorted triples), and
    presolves them (`_presolve`): it peels trailing gadget interiors,
    merges the classes of the 2-groups and apex equalities, and keeps only
    3-groups over the `n` variables left, in one canonical order, so a
    reduction graph runs its formula's search.  The presolve reads a
    group's largest variable as its last entry, so a group out of that
    order can peel what it should not; a list out of order peels less,
    never wrongly.  `eliminated` counts the peeled variables and `merged`
    those merged into a smaller index.

    `solve` pins variable 1 False, as complement symmetry allows, finds a
    first model, then sets every activity back to zero and fixes variables
    in index order, each as a level-0 unit since it holds in every later
    solve.  The reset matters: with the first search's scores kept, the
    solves below decide far from the smallest witness and there are more
    of them (534 against 137 over 15 reduction graphs of 64-1024
    variables).  Variable i keeps a value the fixed prefix implies.  Else,
    if the last model has i True, one solve assumes i False at level 1: a
    model found there replaces the last one, and a refutation leaves i
    True at level 0 by a unit lemma or its propagation.  An i still free
    is then fixed False, as the last model has it.  Each step keeps the
    smaller value exactly when some model extends the prefix with it, so
    the last model is the lexicographically smallest.  It then maps the
    model back to every input variable through the signed search
    variables `lits` of the presolve.  Budget states are decisions,
    counted across every solve of one `solve` call.  A budget error gives
    the deepest decision level, the conflicts, and whether the first model
    was still being searched for or how many search variables the lex-min
    phase had fixed.
    """

    def __init__(self, num_vars: int, groups):
        presolved = _presolve(num_vars, list(groups))
        # lits is None when the presolve already shows there is no model.
        n, groups, self.lits, self.eliminated = presolved or (0, [], None, 0)
        self.merged = 0 if presolved is None else num_vars - self.eliminated - n
        self.n = n
        self.val: list[bool | None] = [None] * (2 * n + 2)
        self.level = [0] * (n + 1)
        self.reason: list[tuple[int, ...] | list[int] | None] = [None] * (n + 1)
        self.cwatch: list[list[list[int]]] = [[] for _ in range(2 * n + 2)]
        # occ[p]: (x, y, g) for each group g over p's variable, as read with p True.
        occ: list[list[tuple[int, int, tuple[int, int, int]]]] = [[] for _ in range(2 * n + 2)]
        for g in groups:
            a, b, c = g = tuple([2 * x if x > 0 else 1 - 2 * x for x in g])
            occ[a].append((b, c, g))
            occ[a ^ 1].append((b ^ 1, c ^ 1, g))
            occ[b].append((a, c, g))
            occ[b ^ 1].append((a ^ 1, c ^ 1, g))
            occ[c].append((a, b, g))
            occ[c ^ 1].append((a ^ 1, b ^ 1, g))
        self.occ = occ
        self.trail: list[int] = []
        self.lim: list[int] = []
        self.qhead = 0
        # queued[v]: the heap holds an entry for v carrying its current activity.
        self.queued = bytearray(n + 1)
        self._set_scores([float(len(occ[2 * v])) for v in range(n + 1)], 1.0)
        self.seen = bytearray(n + 1)
        self.decisions = self.propagations = self.conflicts = self.learned = 0
        self.solves = self.max_depth = 0
        self.max_states = 0
        # The lex-min phase has fixed search variables 1..fixed; None before a first model.
        self.fixed: int | None = None

    def _assign(self, lit: int, why: list[int] | None) -> None:
        self.val[lit], self.val[lit ^ 1] = True, False
        self.level[lit >> 1] = len(self.lim)
        self.reason[lit >> 1] = why
        self.trail.append(lit)

    def _propagate(self) -> tuple[int, ...] | list[int] | None:
        """Propagate the unprocessed trail; the violated group or clause, or None."""
        val, trail, level, reason = self.val, self.trail, self.level, self.reason
        occ, cwatch = self.occ, self.cwatch
        dl = len(self.lim)
        q = self.qhead
        try:
            while q < len(trail):
                p = trail[q]
                q += 1
                # p is True, so its group g is all-equal exactly when the
                # stored codes x and y are both True too.
                for x, y, g in occ[p]:
                    vx = val[x]
                    if vx is None:
                        if not val[y]:
                            continue
                        u = x ^ 1
                    elif vx:
                        vy = val[y]
                        if vy is None:
                            u = y ^ 1
                        elif vy:
                            return g
                        else:
                            continue
                    else:
                        continue
                    # _assign(u, g) inline: groups force most assignments, and
                    # the call costs nae_threshold about 3% of its wall time.
                    val[u], val[u ^ 1] = True, False
                    level[u >> 1] = dl
                    reason[u >> 1] = g
                    trail.append(u)
                f = p ^ 1
                ws = cwatch[f]
                if not ws:
                    continue
                keep = []
                for k, cl in enumerate(ws):
                    first = cl[0]
                    if first == f:
                        first = cl[0] = cl[1]
                        cl[1] = f
                    fv = val[first]
                    if fv is not True:
                        for m in range(2, len(cl)):
                            if val[cl[m]] is not False:
                                cl[1], cl[m] = cl[m], cl[1]
                                cwatch[cl[1]].append(cl)
                                break
                        else:
                            if fv is False:
                                cwatch[f] = keep + ws[k:]
                                return cl
                            val[first], val[first ^ 1] = True, False
                            level[first >> 1] = dl
                            reason[first >> 1] = cl
                            trail.append(first)
                            keep.append(cl)
                        continue
                    keep.append(cl)
                cwatch[f] = keep
            return None
        finally:
            self.propagations += q - self.qhead
            self.qhead = q

    def _analyze(self, confl: tuple[int, ...] | list[int]) -> tuple[list[int], int]:
        """First-UIP clause, asserting literal first, and the level it is unit at."""
        seen, level, reason, trail, val = self.seen, self.level, self.reason, self.trail, self.val
        dl = len(self.lim)
        learnt = [0]
        touched = []
        pending = pivot = 0
        i = len(trail)
        lits = confl
        while True:
            for c in lits:
                u = c >> 1
                if u != pivot and not seen[u] and level[u]:
                    seen[u] = 1
                    touched.append(u)
                    if level[u] == dl:
                        pending += 1
                    else:
                        learnt.append(c ^ 1 if val[c] else c)
            i -= 1
            while not seen[trail[i] >> 1]:
                i -= 1
            pivot = trail[i] >> 1
            seen[pivot] = 0
            pending -= 1
            if not pending:
                break
            lits = reason[pivot]
        learnt[0] = trail[i] ^ 1
        # Drop each literal whose reason's other literals are all in the
        # clause or fixed at level 0, and find the first of the highest level
        # left: it is watched second, and the level is where the clause is unit.
        kept = top = 1
        back = 0
        for c in learnt[1:]:
            r = reason[c >> 1]
            if r is not None:
                for x in r:
                    if not seen[x >> 1] and level[x >> 1]:
                        break
                else:
                    continue
            if level[c >> 1] > back:
                top, back = kept, level[c >> 1]
            learnt[kept] = c
            kept += 1
        del learnt[kept:]
        act, inc, queued = self.activity, self.inc, self.queued
        for u in touched:
            seen[u] = 0
            queued[u] = 0
            act[u] += inc
        self.inc = inc / 0.95
        if self.inc > 1e100:
            self._set_scores([a * 1e-100 for a in act], self.inc * 1e-100)
        if kept > 1:
            learnt[1], learnt[top] = learnt[top], learnt[1]
        return learnt, back

    def _set_scores(self, activity: list[float], inc: float) -> None:
        """Keep activity and its bump inc; the heap then holds one live entry per free variable."""
        self.activity, self.inc, val = activity, inc, self.val
        self.queued[:] = bytes(val[2 * v] is None for v in range(self.n + 1))
        self.heap = [(-activity[v], v) for v in range(1, self.n + 1) if val[2 * v] is None]
        heapq.heapify(self.heap)

    def _learn(self, clause: list[int]) -> None:
        """Keep a clause unit here: watch clause[0] and clause[1], count it, assert clause[0]."""
        if len(clause) == 1:
            self._fix(clause[0])
        else:
            self.learned += 1
            self.cwatch[clause[0]].append(clause)
            self.cwatch[clause[1]].append(clause)
            self._assign(clause[0], clause)

    def _fix(self, lit: int) -> None:
        """Assign the free lit at level 0 with no reason; the caller propagates it."""
        self._assign(lit, None)

    def _backtrack(self, lvl: int) -> None:
        if len(self.lim) <= lvl:
            return
        start = self.lim[lvl]
        val, act, heap, queued = self.val, self.activity, self.heap, self.queued
        push = heapq.heappush
        for p in self.trail[start:]:
            val[p] = val[p ^ 1] = None
            v = p >> 1
            if not queued[v]:
                queued[v] = 1
                push(heap, (-act[v], v))
        del self.trail[start:]
        del self.lim[lvl:]
        self.qhead = start
        if len(heap) > 2 * self.n:
            self._set_scores(act, self.inc)

    def _decide(self, lit: int | None) -> bool:
        """Open a level with lit, or else the most active free variable False.

        Returns False when no variable is free.  Heap entries whose activity
        is stale or whose variable is assigned are dropped on the way.
        """
        heap, val, act = self.heap, self.val, self.activity
        while lit is None and heap:
            key, v = heapq.heappop(heap)
            if -key == act[v]:
                self.queued[v] = 0
                if val[2 * v] is None:
                    lit = 2 * v + 1
        if lit is None:
            return False
        self.decisions += 1
        if self.decisions > self.max_states:
            progress = (
                "first model not found"
                if self.fixed is None
                else f"lex-min phase had fixed {self.fixed} of {self.n} search variables"
            )
            raise BudgetExceeded(
                f"search exceeded {self.max_states} states; "
                f"deepest decision level {self.max_depth}; "
                f"{self.conflicts} conflicts; {progress}"
            )
        self.lim.append(len(self.trail))
        self.max_depth = max(self.max_depth, len(self.lim))
        self._assign(lit, None)
        return True

    def _search(self, assume: int | None) -> bool:
        """Search from level 0 with `assume` at level 1 unless implied; True at a model."""
        self.solves += 1
        while True:
            confl = self._propagate()
            if confl is not None:
                self.conflicts += 1
                if not self.lim:
                    return False
                learnt, back = self._analyze(confl)
                self._backtrack(back)
                self._learn(learnt)
            elif assume is not None and not self.lim and self.val[assume] is not True:
                if self.val[assume] is False:
                    return False
                self._decide(assume)
            elif not self._decide(None):
                return True

    def solve(self, max_states: int) -> list[bool] | None:
        """Lexicographically smallest model over the input's variables (index 0 unused), or None."""
        self.max_states = max_states
        if self.lits is None:
            return None
        self._fix(3)  # variable 1 False
        if not self._search(None):
            return None
        model = self.val[::2]
        self._backtrack(0)
        # The lex-min solves start from zero activity, deciding in index order.
        self._set_scores([0.0] * (self.n + 1), 1.0)
        val = self.val
        for i in range(2, self.n + 1):
            self.fixed = i - 1
            if val[2 * i] is None:
                if model[i] and self._search(2 * i + 1):
                    model = self.val[::2]
                self._backtrack(0)
                if val[2 * i] is None:
                    self._fix(2 * i + 1)
                    self._propagate()
        return [model[x] if x >= 0 else not model[-x] for x in self.lits]


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
        return {}
    # The engine takes each group in variable order, and the list sorted.
    engine = _NaeEngine(f.num_vars, sorted(tuple(sorted(c, key=abs)) for c in f.clauses))
    result = engine.solve(budget.max_states)
    if result is None:
        return None
    witness = {x: bool(result[x]) for x in range(1, f.num_vars + 1)}
    if nae_fault(f, witness) is not None:
        raise AssertionError("search returned a non-satisfying assignment")
    return witness


def brute_force_cut(g: Graph, budget: SearchBudget | None = None) -> Cut | None:
    """Smallest triangle-free cut of g, or None.

    Encoding: vertex on side A means bit 1, vertex 1 is pinned to side B
    (cut sides are symmetric), and "smallest" is lexicographic over the side
    bits of vertices 2..n with side B first.  Graphs with fewer than two
    vertices admit no cut at all.  Without a triangle the smallest cut puts
    vertex n alone on side A; with one, no triangle-free cut leaves a side
    empty, so the engine needs no "some vertex on side A" constraint, and
    checking its model against every triangle also rules out an empty side.
    """
    budget = budget or SearchBudget()
    n = g.num_vertices
    if n <= 1:
        return None
    if 2 ** (n - 1) > budget.max_states:
        raise BudgetExceeded(
            f"2^{n - 1} candidate cuts exceed the budget of {budget.max_states} states"
        )
    triangles = enumerate_triangles(g)
    if not triangles:
        return Cut.from_side_a({n}, n)
    result = _NaeEngine(n, triangles).solve(budget.max_states)
    if result is None:
        return None
    if any(result[u] == result[v] == result[w] for u, v, w in triangles):
        raise AssertionError("search returned an invalid cut")
    return Cut.from_side_a(compress(range(1, n + 1), result[1:]), n)


def _split_4colouring(g: Graph, colouring: Colouring, noun: str) -> Assignment:
    """Each vertex of g True iff its colour is 1 or 2; ValueError unless the
    colouring is a proper colouring of g (the `noun`) with at most 4 colours."""
    if colouring.k > 4:
        raise ValueError(f"expected at most 4 colours, got {colouring.k}")
    fault = colouring_fault(g, colouring)
    if fault is not None:
        raise ValueError(f"not a proper colouring of the {noun}: {fault}")
    return {v: colouring.colours[v] in (1, 2) for v in range(1, g.num_vertices + 1)}


def assignment_from_4colouring(f: CnfFormula, colouring: Colouring) -> Assignment:
    """NAE witness from a proper 4-colouring of the incidence graph.

    A clause's three variables carry three distinct colours, which cannot
    all fall into {1, 2} nor all into {3, 4}, so setting a variable true iff
    its colour is 1 or 2 always satisfies the formula.
    """
    if not is_monotone_3sat(f):
        raise ValueError("fast path requires monotone 3-SAT input")
    witness = _split_4colouring(incidence_graph(f), colouring, "incidence graph")
    if nae_fault(f, witness) is not None:
        raise AssertionError("two-colour-class split failed to satisfy the formula")
    return witness


def cut_from_4colouring(g: Graph, colouring: Colouring) -> Cut:
    """Triangle-free cut from a proper 4-colouring: colours {1,2} vs {3,4}.

    A triangle inside one side would need three distinct colours within a
    two-colour class.  The classes become a vertex assignment, so a one-sided
    split is rebalanced as in cut_from_vertex_assignment: such a colouring
    uses two colours, the graph is bipartite, and vertex 1 moves over.
    """
    return cut_from_vertex_assignment(g, _split_4colouring(g, colouring, "graph"))


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


def generate_instance(seed: int, num_vars: int, num_clauses: int) -> CnfFormula:
    """Seeded random monotone 3-CNF: each clause a uniform 3-subset of variables.

    Identical arguments yield identical formulas on every platform
    (Mersenne Twister bit stream).
    """
    if num_vars < 3:
        raise ValueError("need at least three variables")
    if num_clauses < 0:
        raise ValueError("clause count must be non-negative")
    rng = random.Random(seed)
    clauses: list[tuple[int, int, int]] = []
    for _ in range(num_clauses):
        chosen: list[int] = []
        while len(chosen) < 3:
            v = randbelow(rng, num_vars) + 1
            if v not in chosen:
                chosen.append(v)
        clauses.append(tuple(sorted(chosen)))
    return CnfFormula(num_vars, clauses)


def _emit_witness(status: str, values: list[int]) -> str:
    """SAT-solver style witness: `s` status line plus one 0-terminated `v` line of the values."""
    return f"s {status}\nv " + " ".join(map(str, [*values, 0])) + "\n"


def emit_nae_witness(witness: Assignment | None) -> str:
    """`s NAE-SATISFIABLE` plus the witness's literals, or `s NAE-UNSATISFIABLE`."""
    if witness is None:
        return "s NAE-UNSATISFIABLE\n"
    return _emit_witness("NAE-SATISFIABLE", [x if witness[x] else -x for x in sorted(witness)])


def _read_witness(text: str | bytes, found: str, none: str) -> tuple[bool, list[int]]:
    """(last `s` status is `found`, not `none`; non-zero ints of all `v` lines).

    A line's kind is its first token, exactly `s` or `v`; other lines are ignored.
    """
    status = None
    values: list[int] = []
    for line, tokens in records(text):
        if tokens[0] == "s":
            status = tokens[1:]
        elif tokens[0] == "v":
            values.extend(x for x in ints(tokens[1:], "v line", line) if x)
    if status not in ([found], [none]):
        raise FormatError("missing or unrecognized witness status line")
    return status == [found], values


def parse_nae_witness(text: str | bytes, num_vars: int) -> Assignment | None:
    """The witness's assignment, or None for `s NAE-UNSATISFIABLE`.

    ValueError unless a satisfiable witness assigns exactly the variables 1..num_vars.
    """
    satisfiable, lits = _read_witness(text, "NAE-SATISFIABLE", "NAE-UNSATISFIABLE")
    witness: Assignment = {}
    for lit in lits:
        var = abs(lit)
        if var in witness and witness[var] != (lit > 0):
            raise FormatError(f"conflicting values for variable {var}")
        witness[var] = lit > 0
    if not satisfiable:
        return None
    require_variables(witness, range(1, num_vars + 1))
    top = max(witness, default=0)
    if top > num_vars:
        raise FormatError(f"variable {top} out of range 1..{num_vars}")
    return witness


def emit_cut_witness(cut: Cut | None) -> str:
    """`s CUT-FOUND` plus the side-A vertex ids, or `s NO-CUT`."""
    if cut is None:
        return "s NO-CUT\n"
    return _emit_witness("CUT-FOUND", sorted(cut.side_a))


def parse_cut_witness(text: str | bytes, num_vertices: int) -> Cut | None:
    found, ids = _read_witness(text, "CUT-FOUND", "NO-CUT")
    for v in ids:
        if not (1 <= v <= num_vertices):
            raise FormatError(f"vertex {v} out of range 1..{num_vertices}")
    return Cut.from_side_a(ids, num_vertices) if found else None
