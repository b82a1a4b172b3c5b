"""
From a label table to a knowledge graph
=======================================

A tiny annotation table is mapped to typed triples under each of the three
uncertainty policies, then extended with co-occurrence edges between findings.
"""

import numpy as np

from radkg import (
    AnnotationTable,
    RelationKind,
    UncertainPolicy,
    add_cooccurrence,
    build_radkg,
    cooccurrence_matrix,
)

# Four chest images against three findings. 1 = positive, 0 = negative,
# -1 = mentioned but uncertain, -2 = not mentioned at all.
table = AnnotationTable(
    image_ids=["xr_0001", "xr_0002", "xr_0003", "xr_0004"],
    finding_names=["edema", "effusion", "pneumonia"],
    labels=np.array(
        [
            [1, 1, -2],
            [1, -1, 0],
            [0, 1, -2],
            [1, 0, -1],
        ],
        dtype=np.int8,
    ),
)

print("label grid:")
print(table.labels)

for policy in UncertainPolicy:
    kg = build_radkg(table, policy)
    print(f"\npolicy = {policy.value}: {len(kg)} triples")
    for triple in sorted(kg.triples, key=str):
        print(f"  {triple}")

# Uncertain cells decide the difference between the policies. Under the
# separate-relation policy the uncertain cell (xr_0002, effusion) became a
# probablyHasFinding edge instead of vanishing or being promoted.

# Closed world: every finding NOT linked to an image is a negative example,
# so the negatives of an image are the False cells of its grid row.
kg = build_radkg(table, UncertainPolicy.AS_POSITIVE)
neg = np.flatnonzero(~kg.grid(RelationKind.HAS_FINDING)[1])
print(f"\nclosed-world negatives of {table.image_ids[1]} under hasFinding: "
      f"{[table.finding_names[j] for j in neg]}")

# Directional co-occurrence. Entry (i, j) is P(finding i | finding j) counted
# over the policy-mapped positives; NaN marks findings that never occur.
cond = cooccurrence_matrix(table, UncertainPolicy.AS_POSITIVE)
print("\nP(row finding | column finding):")
print(np.round(cond, 3))

kg = add_cooccurrence(kg, cond, threshold=0.2)
print("\nafter adding edges with conditional probability > 0.2:")
for triple in sorted(kg.triples, key=str):
    if triple.relation is RelationKind.CO_OCCURS:
        print(f"  {triple}")

counts = kg.relation_counts()
print("\nrelation counts:", {r.value: c for r, c in counts.items() if c})
