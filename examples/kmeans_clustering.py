"""k-means on PC, following the paper's Appendix A pattern.

One AggregateComp per Lloyd iteration, carrying the current centroids;
the updated model is read back from the stored Map set each round.

Run:  python examples/kmeans_clustering.py
"""

import numpy as np

from repro.cluster import PCCluster
from repro.ml import PCKMeans


def main():
    rng = np.random.default_rng(3)
    true_centers = np.array([[0.0, 0.0], [6.0, 6.0], [0.0, 6.0], [6.0, 0.0]])
    points = np.vstack([
        rng.normal(loc=center, scale=0.4, size=(150, 2))
        for center in true_centers
    ])

    cluster = PCCluster(n_workers=4, page_size=1 << 16)
    km = PCKMeans(cluster).load(points, chunk_size=64)
    centers, history = km.train(k=4, iterations=8, seed=11)

    print("converged centers (sorted):")
    for center in sorted(map(tuple, np.round(centers, 2))):
        print("  ", center)
    drift = [
        float(np.abs(a - b).max())
        for a, b in zip(history, history[1:])
    ]
    print("\nper-iteration max center movement:",
          [round(d, 4) for d in drift])
    snapshot = cluster.metrics()
    print("network: %d messages, %d bytes (%d zero-copy)" % tuple(
        snapshot.value(name) for name in (
            "pc_net_messages_total", "pc_net_bytes_total",
            "pc_net_bytes_zero_copy_total",
        )
    ))


if __name__ == "__main__":
    main()
