"""Seeded input generator for the benchmark workloads.

Everything here is plain numpy and stays independent of the package under
test, so the parent commit and a change read byte-identical inputs for the
same seed. The published constants below are copies of the ones the paper
prints (the three-state model and the degree-10 sampling weights).
"""
from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

EXAMPLE1_P = np.array([
    [0.9089, 0.0281, 0.0630],
    [0.0346, 0.9433, 0.0221],
    [0.0065, 0.0138, 0.9797],
])
EXAMPLE1_O1 = np.array([
    [0.6382, 0.1809, 0.1809],
    [0.1809, 0.6382, 0.1809],
    [0.1809, 0.1809, 0.6382],
])
INTENT_WEIGHT_FRACTIONS = (
    Fraction(25, 1296), Fraction(1555, 15552), Fraction(3461, 15552),
    Fraction(86925, 311040), Fraction(13627, 62208), Fraction(11617, 103680),
    Fraction(437, 11520), Fraction(2671, 311040), Fraction(73, 62208),
    Fraction(29, 311040), Fraction(1, 311040),
)

CERTIFY_STATES = 10
CERTIFY_CHANNELS = 5
CERTIFY_BASE_DRAW = 10
EM_SYMBOLS = 50_000
EM_ALPHABET = ("a", "b", "c")


def _normalized_weights() -> np.ndarray:
    total = sum(INTENT_WEIGHT_FRACTIONS, Fraction(0))
    return np.array([float(f / total) for f in INTENT_WEIGHT_FRACTIONS])


def _deflate_once(c: np.ndarray) -> np.ndarray:
    """Divide out the smallest-magnitude root (a real root, else a conjugate pair)."""
    nz = np.nonzero(np.abs(c) > 1e-14 * max(1.0, float(np.abs(c).max())))[0]
    c = c[: nz[-1] + 1]
    roots = sorted(np.roots(c[::-1]), key=lambda z: (abs(z), abs(z.imag)))
    z0 = roots[0]
    candidates = []
    if abs(z0.imag) <= 1e-4 * max(1.0, abs(z0)):
        candidates.append(np.array([-z0.real, 1.0]))
    if abs(z0.imag) > 1e-8 * max(1.0, abs(z0)):
        candidates.append(np.array([abs(z0) ** 2, -2.0 * z0.real, 1.0]))
    for factor in candidates:
        factor = factor / factor.sum()
        quo, rem = np.polydiv(c[::-1], factor[::-1])
        if rem.size and np.abs(rem).max() > 1e-8:
            continue
        h = np.clip(quo[::-1], 0.0, None)
        return h / h.sum()
    raise ValueError("no factor of the smallest root divides the polynomial")


def sampling_polynomials() -> list[np.ndarray]:
    """f_1 .. f_5 (coefficients, lowest degree first), most deflated first."""
    chain = [_normalized_weights()]
    for _ in range(CERTIFY_CHANNELS - 1):
        chain.append(_deflate_once(chain[-1]))
    return chain[::-1]


def intent_matrix(B: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """B f(B) by Horner's rule, rows renormalised against rounding."""
    eye = np.eye(B.shape[0])
    acc = coeffs[-1] * eye
    for beta in coeffs[-2::-1]:
        acc = acc @ B + beta * eye
    out = B @ acc
    return out / out.sum(axis=1, keepdims=True)


def certify_channels(seed: int) -> list[np.ndarray]:
    """Five intent channels B f_u(B) on one Dirichlet(1) level matrix B.

    B is a fixed draw whose levels the seed relabels. Independent draws
    change the dense simplex's pivot count by about 7% and the
    Blahut-Arimoto iteration count with it, which would swamp a run-to-run
    comparison; a relabelling poses the same LPs in another variable order.
    """
    X = CERTIFY_STATES
    B = np.random.default_rng(CERTIFY_BASE_DRAW).dirichlet(np.ones(X), size=X)
    perm = np.random.default_rng([seed, 10]).permutation(X)
    return [intent_matrix(B[np.ix_(perm, perm)], f) for f in sampling_polynomials()]


def em_symbols(seed: int) -> np.ndarray:
    """A 50k-symbol path of the three-state published hidden Markov model."""
    rng = np.random.default_rng([seed, 50])
    u = rng.random((EM_SYMBOLS, 2))
    cum_p = np.cumsum(EXAMPLE1_P, axis=1).tolist()
    cum_o = np.cumsum(EXAMPLE1_O1, axis=1)
    states = np.empty(EM_SYMBOLS, dtype=np.int64)
    x = int(u[0, 0] * 3)
    for t, ut in enumerate(u[:, 0].tolist()):
        if t:
            row = cum_p[x]
            x = 0 if ut < row[0] else (1 if ut < row[1] else 2)
        states[t] = x
    return np.minimum((cum_o[states] < u[:, 1:2]).sum(axis=1), 2)


def write_inputs(part: str, seed: int, workdir: Path) -> dict[str, str]:
    """Write a workload part's input files; return {relative name: sha256}."""
    files: dict[str, bytes] = {}
    if part == "certify-x10":
        for k, m in enumerate(certify_channels(seed), start=1):
            files[f"channel{k}.json"] = json.dumps({"matrix": m.tolist()}).encode()
    elif part == "em-50k":
        y = em_symbols(seed)
        body = ",".join(EM_ALPHABET[int(s)] for s in y)
        files["observations.csv"] = (",".join(EM_ALPHABET) + "\n" + body + "\n").encode()
    hashes = {}
    for name, blob in files.items():
        (workdir / name).write_bytes(blob)
        hashes[name] = hashlib.sha256(blob).hexdigest()
    return hashes
