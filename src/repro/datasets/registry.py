"""Dataset registry: the paper's SNAP table and our synthetic stand-ins.

The paper evaluates on six SNAP graphs (§4.1).  Without network access
(and without a 256 GB machine) this reproduction generates *stand-ins*
that preserve what the algorithms are sensitive to — ``n``, ``m``, the
average degree ``m/n`` and the in-degree skew — at three size tiers:

* ``tiny``  — seconds-fast sizes for unit tests;
* ``small`` — a few thousand nodes, where even CSR-NI fits in memory;
* ``bench`` — the default for figures: sized so each baseline survives
  or exceeds the default budgets exactly where the paper reports it
  surviving or crashing.

Every stand-in is deterministic (fixed seed per key+tier) and cached
in-process.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Dict, List, Tuple

from repro.errors import DatasetError

if TYPE_CHECKING:
    from repro.graphs.digraph import DiGraph

__all__ = ["DatasetSpec", "PAPER_DATASETS", "dataset_keys", "load_dataset", "paper_table"]

TIERS = ("tiny", "small", "bench")


@dataclass(frozen=True)
class DatasetSpec:
    """One row of the paper's dataset table plus stand-in recipes."""

    key: str
    description: str
    paper_nodes: int
    paper_edges: int
    generator: str  # human-readable family name
    #: tier -> (num_nodes, num_edges) of the synthetic stand-in
    standin_sizes: Dict[str, Tuple[int, int]]
    seed: int

    @property
    def paper_density(self) -> float:
        return self.paper_edges / self.paper_nodes


def _sizes(tiny, small, bench) -> Dict[str, Tuple[int, int]]:
    return {"tiny": tiny, "small": small, "bench": bench}


#: Stand-in sizes keep each dataset's m/n ratio from the paper:
#: FB 21.9, P2P 2.4, YT 5.3, WT 2.1, TW 35.3, WB 8.6.
PAPER_DATASETS: Dict[str, DatasetSpec] = {
    "FB": DatasetSpec(
        key="FB",
        description="Social friendship from ego-Facebook",
        paper_nodes=4_039,
        paper_edges=88_234,
        generator="preferential-attachment (dense social)",
        standin_sizes=_sizes((200, 4_380), (800, 17_520), (1_200, 26_280)),
        seed=101,
    ),
    "P2P": DatasetSpec(
        key="P2P",
        description="Gnutella peer-to-peer network",
        paper_nodes=22_687,
        paper_edges=54_705,
        generator="Erdos-Renyi (near-homogeneous overlay)",
        standin_sizes=_sizes((300, 720), (1_000, 2_400), (1_600, 3_840)),
        seed=102,
    ),
    "YT": DatasetSpec(
        key="YT",
        description="Youtube social network communities",
        paper_nodes=1_134_890,
        paper_edges=5_975_248,
        generator="Chung-Lu power-law",
        standin_sizes=_sizes((500, 2_650), (3_000, 15_900), (12_000, 63_600)),
        seed=103,
    ),
    "WT": DatasetSpec(
        key="WT",
        description="Wikipedia talk (communication) graph",
        paper_nodes=2_394_385,
        paper_edges=5_021_410,
        generator="Chung-Lu power-law (sparse)",
        standin_sizes=_sizes((600, 1_260), (5_000, 10_500), (40_000, 84_000)),
        seed=104,
    ),
    "TW": DatasetSpec(
        key="TW",
        description="Twitter user-follower network",
        paper_nodes=41_625_230,
        paper_edges=1_468_365_182,
        generator="R-MAT (heavy-skew crawl)",
        standin_sizes=_sizes((1_024, 9_000), (16_384, 260_000), (131_072, 2_300_000)),
        seed=105,
    ),
    "WB": DatasetSpec(
        key="WB",
        description="A graph obtained by a Webbase crawler",
        paper_nodes=118_142_155,
        paper_edges=1_019_903_190,
        generator="R-MAT (web crawl)",
        standin_sizes=_sizes((2_048, 6_000), (32_768, 140_000), (262_144, 1_130_000)),
        seed=106,
    ),
}

#: Datasets in the paper's small-to-large order.
_ORDER = ("FB", "P2P", "YT", "WT", "TW", "WB")


def dataset_keys() -> List[str]:
    """Dataset keys in the paper's order."""
    return list(_ORDER)


def _build(spec: DatasetSpec, num_nodes: int, num_edges: int) -> DiGraph:
    # the generators need scipy; the key table above must not
    from repro.graphs.generators import (
        chung_lu,
        erdos_renyi,
        preferential_attachment,
        rmat,
    )

    if spec.key == "FB":
        # out_degree tuned so mirrored PA lands near the target m.
        out_degree = max(1, round(num_edges / num_nodes / 1.5))
        return preferential_attachment(num_nodes, out_degree, seed=spec.seed)
    if spec.key == "P2P":
        return erdos_renyi(num_nodes, num_edges, seed=spec.seed)
    if spec.key in ("YT", "WT"):
        return chung_lu(num_nodes, num_edges, exponent=2.2, seed=spec.seed)
    # TW / WB: R-MAT on the next power of two >= num_nodes.
    scale = max(1, (num_nodes - 1).bit_length())
    return rmat(scale, num_edges, seed=spec.seed)


@lru_cache(maxsize=32)
def load_dataset(key: str, tier: str = "bench") -> DiGraph:
    """Materialise the stand-in for dataset ``key`` at size ``tier``.

    Deterministic per ``(key, tier)`` and cached in-process.
    """
    try:
        spec = PAPER_DATASETS[key]
    except KeyError:
        raise DatasetError(
            f"unknown dataset {key!r}; known: {sorted(PAPER_DATASETS)}"
        ) from None
    if tier not in TIERS:
        raise DatasetError(f"unknown tier {tier!r}; known: {TIERS}")
    num_nodes, num_edges = spec.standin_sizes[tier]
    return _build(spec, num_nodes, num_edges)


def paper_table() -> List[Dict[str, object]]:
    """The paper's §4.1 dataset table as a list of rows."""
    rows = []
    for key in _ORDER:
        spec = PAPER_DATASETS[key]
        rows.append(
            {
                "Data": spec.key,
                "m": spec.paper_edges,
                "n": spec.paper_nodes,
                "m/n": round(spec.paper_density, 1),
                "Description": spec.description,
            }
        )
    return rows
