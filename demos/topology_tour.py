"""A tour of the topological side: density, meagerness, closure, interior.

Cantor space here is the set of infinite words over {a, b} with the
usual prefix topology: basic open sets are "all words extending u".
"""

from omegabaire import (
    Alphabet,
    DMA,
    avoided_infix,
    closure,
    contains_disjunctive,
    interior,
    is_dense,
    is_meager,
    is_nowhere_dense,
    open_to_dma,
    parse_up,
    serialize_oaf,
    from_dma,
    up_membership,
)

ab = Alphabet("ab")


def show(name, a):
    flags = []
    if is_meager(a):
        flags.append("meager")
    if is_dense(a):
        flags.append("dense")
    if is_nowhere_dense(a):
        flags.append("nowhere dense")
    if contains_disjunctive(a):
        flags.append("contains a disjunctive word")
    print(f"{name:28s} -> {', '.join(flags) if flags else '(none of the flags)'}")


print("== Four languages over {a, b} ==")

inf_a = DMA.from_parts(ab, 2, 0, [[0, 1], [0, 1]], [{0}, {0, 1}])
show("infinitely many a", inf_a)

singleton = DMA.from_parts(ab, 2, 0, [[0, 1], [1, 1]], [{0}])
show("just the word aaaa...", singleton)

fin_b = DMA.from_parts(ab, 2, 0, [[1, 0], [1, 0]], [{1}])
show("finitely many b", fin_b)

ball = DMA.from_parts(ab, 3, 0, [[1, 2], [1, 1], [2, 2]], [{1}])
show("every word starting with a", ball)

print()
print("== Meager but dense ==")
print("'finitely many b' avoids no infix: every finite word can still occur.")
print("avoided_infix(finitely many b):", avoided_infix(fin_b))
print("'just aaaa...' is nowhere dense and avoids:", repr(avoided_infix(singleton)))

print()
print("== Closure and interior ==")
one_b = DMA.from_parts(ab, 3, 0, [[0, 1], [1, 2], [2, 2]], [{1}])
print("Take 'exactly one b overall' (a*b a^w). It is not closed:")
c = closure(one_b)
x = parse_up(ab, "(a)^w")
print("  closure gains the limit word (a)^w:",
      up_membership(c, x), "(was", up_membership(one_b, x), "before)")
print("  its interior is empty:", interior(one_b).is_empty())
print()
print("The closure, as a deterministic Muller automaton:")
print(serialize_oaf(from_dma(c)))

print("== Interior of a clopen set is itself ==")
i = open_to_dma(interior(ball))
print("interior of a.X^w accepts a(b)^w:", up_membership(i, parse_up(ab, "a(b)^w")))
print("interior of a.X^w rejects (b)^w: ", not up_membership(i, parse_up(ab, "(b)^w")))
