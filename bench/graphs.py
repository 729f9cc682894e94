"""Graph helpers shared by the generators and the checkers.

Standard library only; nothing here imports ``omegabaire``.
"""

from __future__ import annotations

def tarjan(n: int, succ) -> list[list[int]]:
    """Strongly connected components of a graph on 0..n-1, iteratively."""
    index = [-1] * n
    low = [0] * n
    on = [False] * n
    stack: list[int] = []
    out: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on[root] = True
        while work:
            q, it = work[-1]
            pushed = False
            for t in it:
                if index[t] == -1:
                    index[t] = low[t] = counter
                    counter += 1
                    stack.append(t)
                    on[t] = True
                    work.append((t, iter(succ[t])))
                    pushed = True
                    break
                if on[t] and index[t] < low[q]:
                    low[q] = index[t]
            if pushed:
                continue
            work.pop()
            if work and low[q] < low[work[-1][0]]:
                low[work[-1][0]] = low[q]
            if low[q] == index[q]:
                comp = []
                while True:
                    w = stack.pop()
                    on[w] = False
                    comp.append(w)
                    if w == q:
                        break
                out.append(comp)
    return out


def cyclic_sccs(rows, region) -> list[frozenset[int]]:
    """SCCs of the subgraph induced on ``region`` that contain a cycle."""
    order = sorted(region)
    pos = {q: i for i, q in enumerate(order)}
    succ = [[pos[t] for t in rows[q] if t in pos] for q in order]
    out = []
    for comp in tarjan(len(order), succ):
        if len(comp) > 1 or comp[0] in succ[comp[0]]:
            out.append(frozenset(order[i] for i in comp))
    return out


def bottom_sccs(rows) -> list[frozenset[int]]:
    out = []
    for comp in tarjan(len(rows), rows):
        c = frozenset(comp)
        if all(t in c for q in c for t in rows[q]):
            out.append(c)
    return out


def reachable(rows, start) -> set[int]:
    seen = {start}
    stack = [start]
    while stack:
        q = stack.pop()
        for t in rows[q]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def reaching(rows, targets) -> set[int]:
    preds: list[list[int]] = [[] for _ in rows]
    for q, row in enumerate(rows):
        for t in row:
            preds[t].append(q)
    seen = set(targets)
    stack = list(targets)
    while stack:
        q = stack.pop()
        for p in preds[q]:
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return seen


def bfs_renumber(spec):
    """Rows and old->new map after the program's breadth-first renumbering."""
    order = [spec.initial]
    num = {spec.initial: 0}
    i = 0
    while i < len(order):
        for t in spec.rows[order[i]]:
            if t not in num:
                num[t] = len(order)
                order.append(t)
        i += 1
    rows = tuple(tuple(num[t] for t in spec.rows[q]) for q in order)
    return rows, num


def product_rows(specs):
    """Reachable synchronous product of automata over one alphabet: the
    state tuples in breadth-first order and the transition rows."""
    k = len(specs[0].symbols)
    start = tuple(s.initial for s in specs)
    number = {start: 0}
    states = [start]
    rows = []
    i = 0
    while i < len(states):
        cur = states[i]
        row = []
        for si in range(k):
            t = tuple(s.rows[q][si] for s, q in zip(specs, cur))
            if t not in number:
                number[t] = len(states)
                states.append(t)
            row.append(number[t])
        rows.append(tuple(row))
        i += 1
    return states, tuple(rows)
