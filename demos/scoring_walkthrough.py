"""
Scoring triples with DistMult and the conv scorer
=================================================
"""

import numpy as np

from radkg import (
    conve_pipeline,
    embed_subject,
    init_model,
    param_count,
    score_conve,
    score_distmult,
    scoring,
)

rng = np.random.default_rng(0)

# ---------------------------------------------------------------------------
# DistMult is a trilinear form: elementwise product of subject, relation, and
# object vectors, summed. Three lines of numpy, written out here by hand.
# ---------------------------------------------------------------------------
e_s = np.array([1.0, 2.0, -1.0])
r_r = np.array([0.5, 1.0, 2.0])
e_o = np.array([2.0, 0.0, 1.0])

by_hand = float(np.sum(e_s * r_r * e_o))
psi = score_distmult(e_s, r_r, e_o)
print(f"distmult by hand: {by_hand}")
print(f"score_distmult:   {psi}")
assert psi == by_hand == -1.0

# The product is symmetric in subject and object, bit for bit:
assert score_distmult(e_s, r_r, e_o) == score_distmult(e_o, r_r, e_s)
print("subject/object symmetry holds exactly")

# ---------------------------------------------------------------------------
# The conv scorer reshapes subject and relation embeddings into two k x k
# planes (k = sqrt(d)), stacks them, convolves, and projects back to d dims
# before the dot product with the object embedding.
# ---------------------------------------------------------------------------
model = init_model("conve", feature_dim=64, embed_dim=100, n_findings=14,
                   channels=8, seed=1)
c_x = rng.normal(size=64)  # a precomputed image feature code
e_s = embed_subject(model, c_x)

pipe = conve_pipeline(model, e_s, model.er[0])
print("\nconv pipeline shapes for d=100, C=8:")
print(f"  stacked input : {pipe.stacked.shape}")
print(f"  conv output   : {pipe.conv_out.shape}")
print(f"  flattened     : {pipe.flat.shape}")
print(f"  projected     : {pipe.z2.shape}")

psi = score_conve(model, e_s, model.er[0], model.ef[3])
print(f"  score vs finding 3: {psi:+.4f}")

# Scoring one image against every finding runs the pipeline once, up to the
# final product with the whole finding table: one pass for n scores. The
# batched engine takes a batch of subject embeddings (here one) and their
# relation rows; its convolution sums in another order, so it agrees with the
# single-triple score to rounding:
(all_psi,), _ = scoring.forward(model, e_s[None], [0])
print(f"\nscores for all 14 findings:\n{np.round(all_psi, 3)}")
assert abs(all_psi[3] - psi) <= 1e-12 * abs(psi)

# ---------------------------------------------------------------------------
# Model sizes. The embedding formulation at D=1024, d=100, n=14 carries about
# as many parameters as a plain 1024 -> 100 -> 14 linear readout.
# ---------------------------------------------------------------------------
distmult = init_model("distmult", 1024, 100, 14, seed=0)
dense_reference = 1024 * 100 + 100 * 14
print(f"\ndistmult parameters : {param_count(distmult):,}")
print(f"dense readout       : {dense_reference:,}")
print(f"conv scorer         : {param_count(model):,} (at D=64)")
