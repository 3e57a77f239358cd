"""Sweep hashes of the embedding tables.

Every `embedding_for_label` result on four fixed parameter sweeps is
written out (the images, or the exception type) and hashed, so a change to
how the tables are stored or interpreted must reproduce every embedding
byte for byte.
"""

import hashlib
from itertools import product

import pytest

from enrlat.embeddings import embedding_for_label, suggest_params, t_gram
from enrlat.enriques import ambient
from enrlat.errors import EnrLatError
from enrlat.lattice import gram_of_rows


def _sweep_params(rho):
    if rho == 20:
        return [(a, b, c) for a in range(1, 6) for b in range(-6, 7) for c in range(1, 6)
                if 4 * a * c - b * b > 0]
    if rho == 19:
        return suggest_params(19, 7, count=40)
    if rho == 18:
        return [(a, b, c) for a in range(-3, 0) for b in range(1, 10) for c in range(-3, 0)
                if b * b > 4 * a * c]
    return [(m,) for m in range(1, 7)]


def _sweep(rho):
    width = {20: 2, 19: 3, 18: 4, 17: 5}[rho]
    lines, realized = [], 0
    for params in _sweep_params(rho):
        for label in product((0, 1), repeat=width):
            if not any(label):
                continue
            try:
                out = embedding_for_label(rho, params, label).images
                realized += 1
            except EnrLatError as exc:
                out = type(exc).__name__
            lines.append("%s %s %s %s" % (rho, params, label, out))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest(), realized, len(lines)


# sha256 of the sweep's lines, and how many labels it realizes (all of them)
SWEEPS = {
    20: ("391817a6ab29cf7fab49ee978b4f60a5b26b85ce68bd80e6799487d4f0335bb5", 741),
    19: ("968410fcc8419063c11a89d6a35ce19bd53004704fdbc95b3fa3652264e4f63b", 280),
    18: ("644d92c4543b6817183b04db5ba8eba3cc6e904224921a0ba3473e13eeda74ba", 765),
    17: ("f4d073929bd79ce9ba51f85a037abc4537c3977195fb4eeb4529f21b66b0153c", 186),
}


@pytest.mark.parametrize("rho", sorted(SWEEPS, reverse=True))
def test_sweep_hash_is_unchanged(rho):
    digest, realized, total = _sweep(rho)
    assert (realized, total) == (SWEEPS[rho][1], SWEEPS[rho][1])
    assert digest == SWEEPS[rho][0]


def test_rho_18_realizes_every_label_for_negative_b():
    # (a, -b, c) is (a, b, c) with the first basis vector negated, which
    # keeps every parity; the (1, 1, *, *) templates build at |b|
    params = [(a, b, c) for a in range(-3, 0) for b in range(-9, 0) for c in range(-3, 0)
              if b * b > 4 * a * c]
    assert len(params) == 51
    for p in params:
        g = t_gram(18, p)
        for label in product((0, 1), repeat=4):
            if any(label):
                emb = embedding_for_label(18, p, label)
                assert emb.label == label
                assert gram_of_rows([list(r) for r in emb.images], ambient().gram) == g
