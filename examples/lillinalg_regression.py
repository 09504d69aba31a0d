"""lilLinAlg: least-squares regression in the Matlab-like DSL.

Reproduces the paper's flagship tool-development example (Section 8.3):
a distributed linear-algebra DSL whose multiply compiles to a PC join +
aggregation.  The program below is (modulo quoting) the one printed in
the paper.

Run:  python examples/lillinalg_regression.py
"""

import numpy as np

from repro.cluster import PCCluster
from repro.lillinalg import LilLinAlg


def main():
    rng = np.random.default_rng(7)
    n, d = 400, 5
    x = rng.normal(size=(n, d))
    beta_true = rng.normal(size=d)
    y = x @ beta_true + 0.05 * rng.normal(size=n)

    cluster = PCCluster(n_workers=4, page_size=1 << 20)
    lla = LilLinAlg(cluster)
    lla.load_numpy("X", x, block_rows=64, block_cols=d)
    lla.load_numpy("y", y.reshape(-1, 1), block_rows=64, block_cols=1)

    beta = lla.run("""
        X = load("lla", "X");
        y = load("lla", "y");
        beta = (X '* X)^-1 %*% (X '* y);
        save(beta, "lla", "beta");
    """)

    estimate = beta.to_numpy().ravel()
    print("true beta:     ", np.round(beta_true, 4))
    print("estimated beta:", np.round(estimate, 4))
    print("max abs error: ", float(np.abs(estimate - np.linalg.solve(
        x.T @ x, x.T @ y)).max()))
    print()
    snapshot = cluster.metrics()
    print("network: %d messages, %d bytes (%d zero-copy)" % tuple(
        snapshot.value(name) for name in (
            "pc_net_messages_total", "pc_net_bytes_total",
            "pc_net_bytes_zero_copy_total",
        )
    ))


if __name__ == "__main__":
    main()
