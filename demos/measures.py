"""Exact Bernoulli measures of omega-regular languages.

Pick letter weights (by default uniform); the measure of a language is
the probability that an infinite word drawn letter by letter lies in it.
All arithmetic is exact rational arithmetic.
"""

from fractions import Fraction

from omegabaire import (
    Alphabet,
    DMA,
    OpenSet,
    acceptance_probabilities,
    complement,
    format_decimal,
    intersection,
    measure_open,
    mu,
    union,
)

ab = Alphabet("ab")

inf_a = DMA.from_parts(ab, 2, 0, [[0, 1], [0, 1]], [{0}, {0, 1}])
ball = DMA.from_parts(ab, 3, 0, [[1, 2], [1, 1], [2, 2]], [{1}])
singleton = DMA.from_parts(ab, 2, 0, [[0, 1], [1, 1]], [{0}])

print("== Uniform measure ==")
print("mu(infinitely many a)      =", mu(inf_a))
print("mu(starts with a)          =", mu(ball))
print("mu(just aaaa...)           =", mu(singleton))
print("mu(complement of the ball) =", mu(complement(ball)))

print()
print("== Additivity, exactly ==")
lhs = mu(union(inf_a, ball)) + mu(intersection(inf_a, ball))
rhs = mu(inf_a) + mu(ball)
print(f"mu(A|B) + mu(A&B) = {lhs}   mu(A) + mu(B) = {rhs}   equal: {lhs == rhs}")

print()
print("== Biased letters ==")
w = {"a": Fraction(1, 10), "b": Fraction(9, 10)}
print("with a:1/10 b:9/10, mu(starts with a) =", mu(ball, w))
print("yet mu(infinitely many a) stays", mu(inf_a, w),
      "(tail events ignore any full-support bias)")

print()
print("== Per-state acceptance probabilities ==")
# eventually only a: state 1 while reading a, state 0 on b
fin_b = DMA.from_parts(ab, 2, 0, [[1, 0], [1, 0]], [{1}])
print("'finitely many b' has measure", mu(fin_b),
      "- probabilities per state:", acceptance_probabilities(fin_b))

print()
print("== Open sets of word sets ==")
# the balls of {a, ba} are disjoint: 1/2 + 1/4
a_ba = OpenSet.from_parts(ab, 4, 0, [[1, 2], [3, 3], [1, 3], [3, 3]], [1])
print("mu({a, ba}.X^w) =", measure_open(a_ba))
# the balls of all words a^k b: the geometric series sums to 1 exactly
aab = OpenSet.from_parts(ab, 3, 0, [[0, 1], [2, 2], [2, 2]], [1])
s = measure_open(aab)
print("mu(a* b.X^w)    =", s, f"(~ {format_decimal(s, 4)})")
