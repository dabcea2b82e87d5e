"""The benchmark's three workloads, as lists of CLI operations.

An operation is one `sobolev` command line.  The two fixed workloads run the
shipped `configs/*.json`; `product-stream` is generated from the seed.  See
NOTES.md for why each workload exists and which layer it stresses.
"""

from __future__ import annotations

import json
import os
import random

SHIPPED = (
    "large_beta_single_mass",
    "legendre_saddle",
    "two_points_mixed_orders",
    "two_symmetric_masses",
)

# Fixed workloads: (command, n, configs), at the configs' 256 bits.  One
# electro-n40 op takes 11-25 s on a shared 2-core machine, and a full
# evaluation (70 runs in 3420 s) has room for two configs per pass: the
# ill-conditioned beta = 100 product and the symmetric one whose saddle has
# two negative-curvature coordinates.
FIXED = {
    "electro-n40": ("electro", 40, ("large_beta_single_mass", "two_symmetric_masses")),
    "verify-n24": ("verify", 24, SHIPPED),
}
STREAM = "product-stream"
WORKLOADS = tuple(FIXED) + (STREAM,)

# product-stream: a pass has one op per slot of a fixed layout, repeated
# STREAM_ROUNDS times.  The layout covers every (command, precision) pair at
# a low and a high degree, with d* spread over 1..8.  These properties set an
# op's cost most, so fixing the layout keeps a pass's cost alike across
# seeds; the seed draws the product of each op (alpha, beta, mass points,
# orders, masses) and the op order.  What the seed draws still decides which
# ops fail and how early, so a pass holds two rounds of draws to halve the
# variance that this adds to a pass's time.
STREAM_COMMANDS = ("polys", "zeros", "ode")
STREAM_PRECISIONS = (128, 256, 512)
STREAM_N = (6, 28)
STREAM_DSTAR = (1, 8)
ALPHAS = ("0", "0.5", "2")
LOCATIONS = ("1", "1.25", "1.5", "2", "3", "4")
LAMBDAS = ("0.5", "1", "2")
STREAM_ROUNDS = 2

# Passes a run makes at least.  One pass takes 7-15 s on verify-n24 and 20-45 s
# on the other two, and the time budget allows no more than one when the
# machine is slow.  Ops are timed with speed probes inside them, so one pass
# is steady enough.
MIN_PASSES = {"electro-n40": 1, "verify-n24": 1, STREAM: 1}


def _op(op_id, command, config, n, precision, golden=None):
    return {
        "id": op_id,
        "command": command,
        "config": config,
        "n": n,
        "precision": precision,
        "golden": golden,
        "argv": [command, "--config", config, "--n", str(n), "--precision", str(precision)],
    }


def fixed_ops(workload: str) -> list:
    """The ops of `electro-n40` or `verify-n24`; configs are repo-relative paths."""
    command, n, configs = FIXED[workload]
    return [
        _op(f"{command}-n{n}:{name}", command, f"configs/{name}.json", n, 256, golden=name)
        for name in configs
    ]


def stream_layout() -> list:
    """(command, precision, n, d*) of every slot of a product-stream pass."""
    cells = [(cmd, bits) for cmd in STREAM_COMMANDS for bits in STREAM_PRECISIONS]
    lo, hi = STREAM_N
    d_lo, d_hi = STREAM_DSTAR
    d_count = d_hi - d_lo + 1
    slots = []
    for i, (cmd, bits) in enumerate(cells):
        slots.append((cmd, bits, lo + i, d_lo + (2 * i) % d_count))
        slots.append((cmd, bits, hi - i, d_lo + (2 * i + 1) % d_count))
    return slots


def _mass_points(rng: random.Random, dstar: int) -> list:
    """1-4 distinct locations with 1-2 distinct orders each, `dstar` terms in all."""
    n_points = rng.randint((dstar + 1) // 2, min(4, dstar))
    orders_per_point = [1] * n_points
    for i in rng.sample(range(n_points), dstar - n_points):
        orders_per_point[i] = 2
    signed = [s + c for c in LOCATIONS for s in ("", "-")]
    points = []
    for c, n_orders in zip(rng.sample(signed, n_points), orders_per_point):
        terms = [{"k": k, "lambda": rng.choice(LAMBDAS)} for k in sorted(rng.sample((0, 1, 2), n_orders))]
        points.append({"c": c, "terms": terms})
    return points


def stream_configs(seed: int) -> list:
    """The generated `product-stream` ops as (op, config document) pairs.

    The op's `config` path is relative to the work directory that the
    caller writes the documents into.
    """
    rng = random.Random(seed)
    slots = stream_layout() * STREAM_ROUNDS
    rng.shuffle(slots)
    out = []
    for i, (command, bits, n, dstar) in enumerate(slots):
        doc = {
            "alpha": rng.choice(ALPHAS),
            "beta": str(rng.randint(0, 120)),
            "points": _mass_points(rng, dstar),
            "n": n,
            "precision_bits": bits,
        }
        op = _op(f"{command}-{i:02d}", command, f"stream/op{i:02d}.json", n, bits)
        out.append((op, doc))
    return out


def materialise(workload: str, seed: int, work_dir: str) -> list:
    """Ops of `workload`, with every config path absolute.  Generated configs
    are written into `work_dir/stream/` first."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if workload in FIXED:
        ops = fixed_ops(workload)
        base = root
    elif workload == STREAM:
        os.makedirs(os.path.join(work_dir, "stream"), exist_ok=True)
        ops = []
        for op, doc in stream_configs(seed):
            with open(os.path.join(work_dir, op["config"]), "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1)
            ops.append(op)
        base = work_dir
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    for op in ops:
        op["config"] = os.path.join(base, op["config"])
        op["argv"][2] = op["config"]
    return ops
