"""Every omega-regular language is open modulo a meager set - constructively.

For each language F the package produces an open set E and a meager
omega-regular F' with (F symmetric-difference E) contained in F', then
re-verifies the pair with independent decision procedures.
"""

from omegabaire import (
    Alphabet,
    DMA,
    complement,
    finite_up_abp,
    is_empty,
    is_meager,
    mu,
    open_to_dma,
    parse_up,
    symdiff,
    synthesize_abp_witness,
    union,
    up_membership,
    verify_abp_witness,
)

ab = Alphabet("ab")

print("== Synthesis ==")
inf_a = DMA.from_parts(ab, 2, 0, [[0, 1], [0, 1]], [{0}, {0, 1}])
w = synthesize_abp_witness(inf_a)
print("F = infinitely many a")
print("  E is the whole space?  ", mu(open_to_dma(w.e)) == 1)
print("  error term F' is meager:", is_meager(w.fprime),
      " (it is 'finitely many a')")
print("  verification:", bool(verify_abp_witness(inf_a, w)))

singleton = DMA.from_parts(ab, 2, 0, [[0, 1], [1, 1]], [{0}])
w2 = synthesize_abp_witness(singleton)
print("F = just aaaa...  ->  E empty:", w2.e.is_empty(),
      " F' = F itself (a meager set is its own error term)")

print()
print("== The symmetric difference really is meager ==")
delta = symdiff(inf_a, open_to_dma(w.e))
print("F delta E meager:", is_meager(delta), " mu:", mu(delta))

print()
print("== Unions and complements ==")
ball = DMA.from_parts(ab, 3, 0, [[1, 2], [1, 1], [2, 2]], [{1}])
either = union(inf_a, ball)
u = synthesize_abp_witness(either)
print("witness of the union verifies:", bool(verify_abp_witness(either, u)))
not_ball = complement(ball)
c = synthesize_abp_witness(not_ball)
print("witness of the complement of the clopen ball verifies:",
      bool(verify_abp_witness(not_ball, c)))
print("  E_c = b.X^w, error empty:", is_empty(c.fprime))

print()
print("== Finite sets of ultimately periodic words ==")
xs = [parse_up(ab, "a(b)^w"), parse_up(ab, "(ab)^w")]
fw = finite_up_abp(xs)
print("cover of {a(b)^w, (ab)^w}: meager:", is_meager(fw.fprime))
for x in xs:
    print(f"  {str(x):8s} covered:", up_membership(fw.fprime, x))
print("  (ba)^w also inside?    ", up_membership(fw.fprime, parse_up(ab, "(ba)^w")),
      " - the cover avoids some infix, it is not exact")
