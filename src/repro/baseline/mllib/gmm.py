"""mllib-style Gaussian mixture EM for the baseline engine.

Matched to the PC implementation except for the one documented
difference the paper calls out: mllib avoids underflow by *thresholding*
responsibilities, while the PC code uses the log-space trick.
"""

from __future__ import annotations

import numpy as np


class GaussianMixtureModel:
    def __init__(self, weights, means, covariances):
        self.weights = np.asarray(weights)
        self.means = np.asarray(means)
        self.covariances = np.asarray(covariances)


def initialize(points_rdd, k, seed=0):
    """Random initialization shared (by construction) with the PC code."""
    sample = np.asarray(points_rdd.take(max(20 * k, k)))
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(sample), size=k, replace=False)
    means = sample[chosen]
    d = sample.shape[1]
    cov = np.cov(sample.T) + 1e-3 * np.eye(d)
    return (
        np.full(k, 1.0 / k),
        means,
        np.array([cov.copy() for _ in range(k)]),
    )


def precompute_precisions(covariances):
    """Invert each covariance once per EM step (driver side)."""
    precisions = []
    for cov in covariances:
        d = cov.shape[0]
        try:
            inv = np.linalg.inv(cov)
            _sign, logdet = np.linalg.slogdet(cov)
        except np.linalg.LinAlgError:
            cov = cov + 1e-6 * np.eye(d)
            inv = np.linalg.inv(cov)
            _sign, logdet = np.linalg.slogdet(cov)
        precisions.append((inv, logdet))
    return precisions


def _gaussian_pdf(points, mean, precision):
    d = points.shape[1]
    inv, logdet = precision
    delta = points - mean
    mahalanobis = ((delta @ inv) * delta).sum(1)
    log_p = -0.5 * (mahalanobis + logdet + d * np.log(2 * np.pi))
    return np.exp(log_p)


def em_step(points_rdd, weights, means, covariances, threshold=1e-300):
    """One EM iteration; responsibilities via thresholding (mllib style)."""
    context = points_rdd.context
    k, d = means.shape
    precisions = precompute_precisions(covariances)
    shared = context.broadcast((weights, means, precisions))

    def accumulate(index, partition):
        w, mu, precs = shared.value(index)
        points = np.asarray(list(partition))
        if points.size == 0:
            return []
        densities = np.stack([
            w[j] * _gaussian_pdf(points, mu[j], precs[j]) for j in range(k)
        ], axis=1)
        densities = np.maximum(densities, threshold)  # the mllib trick
        resp = densities / densities.sum(axis=1, keepdims=True)
        stats = []
        for j in range(k):
            r = resp[:, j]
            weight_sum = float(r.sum())
            mean_sum = r @ points
            cov_sum = (points * r[:, None]).T @ points
            stats.append((j, (weight_sum, mean_sum, cov_sum)))
        return stats

    from repro.baseline.rdd import RDD

    stats = RDD(context, "map_partitions_indexed", [points_rdd],
                fn=accumulate)
    merged = dict(stats.reduce_by_key(
        lambda a, b: (a[0] + b[0], a[1] + b[1], a[2] + b[2])
    ).collect())

    total = sum(entry[0] for entry in merged.values())
    new_weights = np.zeros(k)
    new_means = np.zeros((k, d))
    new_covs = np.zeros((k, d, d))
    for j in range(k):
        weight_sum, mean_sum, cov_sum = merged.get(
            j, (1e-12, np.zeros(d), 1e-6 * np.eye(d))
        )
        new_weights[j] = weight_sum / total
        new_means[j] = mean_sum / weight_sum
        new_covs[j] = (
            cov_sum / weight_sum - np.outer(new_means[j], new_means[j])
            + 1e-6 * np.eye(d)
        )
    return new_weights, new_means, new_covs


def train(points_rdd, k, iterations, seed=0):
    """Fit a GMM by EM; returns the model."""
    weights, means, covariances = initialize(points_rdd, k, seed=seed)
    for _iteration in range(iterations):
        weights, means, covariances = em_step(
            points_rdd, weights, means, covariances
        )
    return GaussianMixtureModel(weights, means, covariances)
