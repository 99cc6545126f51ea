"""Walkthrough: clustering utterance embeddings into modes and scoring entropy.

Builds three synthetic topic clusters, lets the silhouette criterion pick
the number of modes, and shows how the normalized entropy of the mode
labels reacts as the labels concentrate on one mode.
"""

import numpy as np

from coreval import cluster_modes, mode_entropy

rng = np.random.default_rng(42)
centers = np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]])
sizes = (40, 30, 10)  # unbalanced on purpose
points = np.vstack([c + rng.normal(size=(n, 2)) * 0.05 for c, n in zip(centers, sizes)])

assignment = cluster_modes(points, k_max=10, seed=42)
print(f"selected k = {assignment.k} modes for {points.shape[0]} points "
      f"(inertia {assignment.inertia:.4f})")

freqs = np.bincount(assignment.labels) / assignment.labels.size
print(f"mode frequencies: {freqs.round(3).tolist()}")
print(f"normalized entropy (k_max=10): {mode_entropy(assignment.labels, 10):.4f}\n")

print("entropy vs concentration (k_max = 4), from each mode's label count:")
for counts in [(1, 1, 1, 1), (4, 2, 1, 1), (7, 1, 1, 1), (97, 1, 1, 1), (100,)]:
    labels = np.repeat(np.arange(len(counts)), counts)
    h = mode_entropy(labels, 4)
    bar = "#" * int(h * 40)
    print(f"  {str(counts):<15} ->  {h:.3f} {bar}")

print("\nLabels collapsing onto one mode drive the first factor of the")
print("robustness score toward zero.")
