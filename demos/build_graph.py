"""
From a label table to a knowledge graph
=======================================

A tiny annotation table is mapped to a graph under each of the three
uncertainty policies, then extended with co-occurrence edges between findings.
A graph is one boolean grid per relation, rows for subjects and columns for
findings, and its edges are the True cells; each policy's edges are printed
by image id and finding name.
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

names = table.finding_names
for policy in UncertainPolicy:
    kg = build_radkg(table, policy)
    print(f"\npolicy = {policy.value}: {len(kg)} edges")
    for relation in (RelationKind.HAS_FINDING, RelationKind.PROBABLY_HAS_FINDING):
        for i, j in np.argwhere(kg.grid(relation)).tolist():
            print(f"  {table.image_ids[i]}  {relation.value}  {names[j]}")

# Uncertain cells decide the difference between the policies. Under the
# separate-relation policy the uncertain cell (xr_0002, effusion) became a
# probablyHasFinding edge instead of vanishing or being promoted.

# Closed world: every finding NOT linked to an image is a negative example,
# so the negatives of an image are the False cells of its grid row.
kg = build_radkg(table, UncertainPolicy.AS_POSITIVE)
neg = np.flatnonzero(~kg.grid(RelationKind.HAS_FINDING)[1])
print(f"\nclosed-world negatives of {table.image_ids[1]} under hasFinding: "
      f"{[names[j] for j in neg]}")

# Directional co-occurrence. Entry (i, j) is P(finding i | finding j) counted
# over the policy-mapped positives; NaN marks findings that never occur.
cond = cooccurrence_matrix(table, UncertainPolicy.AS_POSITIVE)
print("\nP(row finding | column finding):")
print(np.round(cond, 3))

kg = add_cooccurrence(kg, cond, threshold=0.2)
print("\nafter adding edges with conditional probability > 0.2:")
for i, j in np.argwhere(kg.grid(RelationKind.CO_OCCURS)).tolist():
    print(f"  {names[i]}  {RelationKind.CO_OCCURS.value}  {names[j]}")

counts = kg.relation_counts()
print("\nrelation counts:", {r.value: c for r, c in counts.items() if c})
