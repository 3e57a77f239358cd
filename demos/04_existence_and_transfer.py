# When does an even lattice with prescribed signature and discriminant form
# exist, how do we certify a primitive embedding into a unimodular lattice,
# and how do certificates move between a lattice and an index-p sublattice.

from enrlat import (
    condition_star,
    discriminant_form,
    exists_even_lattice,
    find_embedding_datum,
    index_p_sublattice,
    milgram_signature,
    standard_lattice,
    transfer_datum_down,
    transfer_datum_up,
    trivial_form,
    verify_embedding_datum,
)
from enrlat.fqf import is_isomorphic
from enrlat.lattice import Lattice

# Existence. An even unimodular lattice of signature (p, n) exists exactly
# when p - n is divisible by 8. The existence test knows this:

for sig in ((1, 1), (8, 0), (1, 2), (0, 8), (5, 1)):
    print("signature", sig, "unimodular ->", exists_even_lattice(sig, trivial_form()))

# With a nontrivial target form the criterion is subtler; the test weighs
# rank against the number of generators the form needs, checks the Gauss
# sum against the signature, then the local conditions prime by prime.

lat = Lattice([[2, 1], [1, -6]])
q = discriminant_form(lat)
print()
print("det", lat.det, "form order", q.group_order)
print("a lattice with this data exists:", exists_even_lattice(lat.signature, q))
print("...but not with the signature flipped:", exists_even_lattice((0, 2), q))

# Certification. A primitive embedding of a 2-elementary lattice into an
# even unimodular one is pinned down by a small package of invariants: two
# subgroup ranks, a gluing map, and the complement's rank, signature and
# discriminant form. The finder assembles one and the verifier replays
# every compatibility check; the glued subquotient is built once per
# lattice and (H_L, gamma).

big = standard_lattice("U")
datum = find_embedding_datum(big)
ok, reasons = verify_embedding_datum(big, datum)
print()
print("datum for U inside the rank-12 ambient lattice: valid =", ok)
print("complement rank", datum.k_rank, "sig", datum.k_signature)

# Descent. Certificates transfer to a sublattice of odd prime index once a
# coprimality condition on the pair holds. The condition inspects the
# index, a gcd, and bounds at witness primes; its report is printable.

lat44 = Lattice([[4, 0], [0, 4]])
sub, rows = index_p_sublattice(lat44, 3)
star = condition_star(lat44, sub)
print()
print("index", star.index, "verdict", star.verdict)

parent = find_embedding_datum(lat44)
child = transfer_datum_down(lat44, sub, parent, rows)
ok_child, _ = verify_embedding_datum(sub, child)
print("descended datum valid for the sublattice:", ok_child)
print("form order grew by", child.k_fqf.group_order // parent.k_fqf.group_order)

# And back up. The reverse transfer reconstructs the parent certificate;
# round-tripping is the consistency check.

back = transfer_datum_up(lat44, sub, child, rows)
ok_back, _ = verify_embedding_datum(lat44, back)
print("lifted back up: valid =", ok_back,
      "and the complement form matches:",
      is_isomorphic(back.k_fqf, parent.k_fqf))

# Milgram consistency ties the whole chain together: the descended
# complement data still satisfies the signature congruence mod 8.

pos, neg = child.k_signature
print()
print("child complement Milgram:", milgram_signature(child.k_fqf),
      "vs signature mod 8:", (pos - neg) % 8)
