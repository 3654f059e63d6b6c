"""Answer checks against the sequential GS*-Index reference.

Every check returns a list of mismatch descriptions; an empty list
means the operation's answer is correct. The benchmark counts an
operation with any mismatch as failed.
"""
from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd

from repro.baselines.gs_index_seq import SequentialGSIndex
from repro.quality.ari import adjusted_rand_index_pandas

#: Largest allowed difference between an engine's similarity and the
#: reference's (both are float64 closed-form expressions of the same
#: integer counts, so only rounding may differ).
SIM_TOL = 1e-9


def _canonical(no: pd.DataFrame) -> pd.DataFrame:
    """Rows of a neighbor order with u < v, one per edge."""
    return no[no["u"] < no["v"]].sort_values(["u", "v"]).reset_index(drop=True)


def _reference_sims(ref: SequentialGSIndex, edges: pd.DataFrame) -> np.ndarray:
    return np.array(
        [ref.sim_lookup[(int(a), int(b))] for a, b in zip(edges["u"], edges["v"])]
    )


def index_shape(no: pd.DataFrame, co_rows: int, m: int) -> list[str]:
    """NO and CO each hold one row per directed edge, 2m in all, and
    NO covers each canonical edge from both sides with one similarity."""
    problems = []
    if len(no) != 2 * m:
        problems.append(f"NO has {len(no)} rows, expected {2 * m}")
    if co_rows != 2 * m:
        problems.append(f"CO has {co_rows} rows, expected {2 * m}")
    fwd = _canonical(no)
    back = no[no["u"] > no["v"]].rename(columns={"u": "v", "v": "u"})
    back = back.sort_values(["u", "v"]).reset_index(drop=True)
    if len(fwd) != m or len(back) != m:
        problems.append("NO does not list every edge once from each endpoint")
    elif not np.array_equal(fwd["sim"].to_numpy(), back["sim"].to_numpy()):
        problems.append("NO gives an edge different similarities from its two ends")
    return problems


def similarities(
    no: pd.DataFrame, ref: SequentialGSIndex, keep: Callable[[pd.DataFrame], np.ndarray] | None = None
) -> list[str]:
    """Per-edge similarities of ``no`` equal the reference within SIM_TOL,
    on the canonical edges ``keep`` selects (all by default)."""
    fwd = _canonical(no)
    if keep is not None:
        fwd = fwd[keep(fwd)]
    want = _reference_sims(ref, fwd)
    err = np.abs(fwd["sim"].to_numpy() - want)
    bad = int((err > SIM_TOL).sum())
    if bad:
        return [f"{bad} of {len(fwd)} similarities differ from GS*-Index (max {err.max():.3g})"]
    return []


def labels(got: dict[int, int], want: dict[int, int]) -> list[str]:
    """A clustering equals the reference's exactly."""
    if got == want:
        return []
    wrong = sum(1 for v in set(got) | set(want) if got.get(v) != want.get(v))
    return [f"{wrong} vertices labelled differently from GS*-Index"]


def core_labels(assignments: pd.DataFrame, want: dict[int, int], cores: list[int]) -> list[str]:
    """Cores and their labels equal the reference's (border choices may
    differ: ppSCAN orders them by a similarity lower bound)."""
    got_cores = assignments[assignments["is_core"]]
    got = dict(zip(got_cores["v"].astype(int), got_cores["cluster"].astype(int)))
    if set(got) != set(cores):
        return [f"{len(set(got) ^ set(cores))} vertices disagree on being a core"]
    return labels(got, {c: want[c] for c in cores})


def total(clustering: dict[int, int], num_vertices: int) -> dict[int, int]:
    """Every vertex labelled; an unclustered vertex is its own cluster."""
    return {v: clustering.get(v, v) for v in range(1, num_vertices + 1)}


def ari(got: dict[int, int], want: dict[int, int], num_vertices: int) -> float:
    return adjusted_rand_index_pandas(total(got, num_vertices), total(want, num_vertices))


def clustering_from_index(no: pd.DataFrame, num_vertices: int, mu: int, eps: float):
    """The clustering an index's similarities give at (mu, eps)."""
    edges = _canonical(no)[["u", "v", "sim"]]
    return SequentialGSIndex.from_similarities(edges, num_vertices).query(mu, eps)
