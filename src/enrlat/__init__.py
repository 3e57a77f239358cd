"""Exact integer lattice toolkit: discriminant forms, primitive embeddings
into the rank-12 hyperbolic ambient lattice, existence tests for even
lattices, gluing-datum transfer, and binary quadratic class groups."""

from .classgroups import (
    ClassGroup,
    CmReport,
    class_group,
    class_number_nonmaximal,
    cm_report,
    fundamental_split,
    is_fundamental,
    prime2_splitting,
    ray_class2_order,
    reduce_form,
)
from .embeddings import (
    PrimitiveEmbedding,
    character_upper_bound,
    embedding_complement,
    embedding_for_label,
    embedding_from_images,
    iter_tuples_in_e82,
    realized_characters,
    suggest_params,
    t_gram,
    vectors_of_norm,
)
from .enriques import (
    InvolutionSplit,
    ambient,
    epsilon,
    generate_isometry,
    involution_eigenlattices,
    is_twice_even,
)
from .errors import EnrLatError
from .fqf import (
    FiniteQuadraticForm,
    canonical_form,
    discriminant_form,
    direct_sum_fqf,
    fqf_isomorphic,
    is_isomorphic,
    milgram_signature,
    negate_fqf,
    p_part,
    quotient_form,
    trivial_form,
    verify_fqf_iso,
)
from .lattice import (
    DegenerateQuadraticModule,
    Lattice,
    direct_sum,
    orthogonal_complement,
    rescale,
    standard_lattice,
)
from .nikulin import (
    EmbeddingDatum,
    StarReport,
    condition_star,
    exists_even_lattice,
    find_embedding_datum,
    index_p_sublattice,
    make_datum,
    transfer_datum_down,
    transfer_datum_up,
    verify_embedding_datum,
)

__version__ = "0.1.0"
