"""Seeded Zipf taxonomies with planted answer sets, for the benchmark.

Each workload's taxonomy has two parts:

* **Zipf noise.** Entity popularity follows a Zipf law, and so do the sizes
  of the ``topic<i>`` noise concepts. Every noise edge joins a concept to an
  entity drawn by popularity, so a few entities belong to very many concepts.
* **Planted heads.** A head noun ``h<j>`` owns a set of modifiers and a
  planted answer set of ``ANSWERS`` entities, built like
  ``conceptq.evaluation.planted_instance``. Each short concept
  ``"<modifier> h<j>"`` holds the first ``CORE`` answers plus a few noise
  entities drawn uniformly from the unpopular three quarters, so short
  concepts rarely share noise; the other answers are in no short concept.
  The equivalent concept ``eq<j>`` holds exactly the answers with high
  counts, and the related concepts ``rel0 h<j>`` and ``rel1 h<j>`` hold most
  answers plus junk. The answers outside the short concepts can only be
  found through expansion, so recall@10 is not 0 and drops when expansion
  or aggregation loses them.

The same workload and seed give a byte-identical TSV and query file.

    python3 perfbench/gen.py --workload interactive --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ANSWERS = 10
CORE = 6
RELATED = 2
JUNK = 4
MODIFIER_VOCAB = 48


@dataclass(frozen=True)
class Spec:
    """Shape of one workload's taxonomy and query stream."""

    entities: int
    noise_concepts: int
    noise_edges: int
    heads: int
    modifiers_per_head: int
    k_block: tuple  # modifier counts of each block of queries, shuffled within the block
    short_noise: int  # noise draws per short concept
    answers_from_top: tuple  # (a, b): answers from popularity ranks a..b-1; (): from the tail
    head_zipf: float  # 0: every query has its own head; s: heads drawn Zipf(s)
    queries: int


SPECS = {
    "interactive": Spec(
        entities=20_000, noise_concepts=6_000, noise_edges=150_000, heads=60,
        modifiers_per_head=12, k_block=(2, 2, 2, 2, 2, 2, 3, 3, 3, 4, 4, 5, 5, 6, 7, 8, 9, 10, 11, 12),
        short_noise=6, answers_from_top=(), head_zipf=1.1, queries=4_000,
    ),
    "large_kb": Spec(
        entities=150_000, noise_concepts=40_000, noise_edges=650_000, heads=1_500,
        modifiers_per_head=4, k_block=(2, 2, 2, 2, 3, 4),
        short_noise=6, answers_from_top=(10, 300), head_zipf=0.0, queries=1_500,
    ),
    "holdout": Spec(
        entities=12_000, noise_concepts=400, noise_edges=4_000, heads=200,
        modifiers_per_head=4, k_block=(2, 2, 2, 2, 3, 4),
        short_noise=6, answers_from_top=(), head_zipf=0.0, queries=200,
    ),
}


def _zipf_cdf(n: int, s: float) -> np.ndarray:
    w = np.cumsum(1.0 / np.arange(1, n + 1) ** s)
    return w / w[-1]


def _draw(rng: np.random.Generator, cdf: np.ndarray, size: int) -> np.ndarray:
    return np.minimum(np.searchsorted(cdf, rng.random(size), side="right"), cdf.size - 1)


def rng_seed(workload: str, seed: int) -> list[int]:
    """The generator's seed sequence for ``workload`` and the benchmark ``seed``."""
    return [seed, sorted(SPECS).index(workload)]


def generate(workload: str, seed: int, spec: Spec | None = None):
    """Return ``(rows, queries)`` for ``workload`` and ``seed``.

    ``rows`` are ``(concept, entity, count)`` triples, one per distinct pair;
    ``queries`` are ``{"query", "head", "answers"}`` dicts in stream order.
    ``spec`` replaces the workload's shape, for small self-test inputs.
    """
    spec = spec or SPECS[workload]
    rng = np.random.default_rng(rng_seed(workload, seed))
    entity_cdf = _zipf_cdf(spec.entities, 1.0)
    entity = [f"e{i}" for i in range(spec.entities)]
    rows: list[tuple[str, str, int]] = []

    # Zipf noise: concept sizes and entity popularity both heavy-tailed.
    concept_ids = _draw(rng, _zipf_cdf(spec.noise_concepts, 0.8), spec.noise_edges)
    entity_ids = _draw(rng, entity_cdf, spec.noise_edges)
    pairs = np.unique(concept_ids.astype(np.int64) * spec.entities + entity_ids)
    counts = rng.geometric(0.5, size=pairs.size)
    for pair, n in zip(pairs.tolist(), counts.tolist()):
        c, e = divmod(pair, spec.entities)
        rows.append((f"topic{c}", entity[e], n))

    # Planted heads.
    heads = []
    tail = spec.entities // 4
    for j in range(spec.heads):
        head = f"h{j}"
        modifiers = [f"m{k}" for k in rng.choice(MODIFIER_VOCAB, spec.modifiers_per_head, replace=False)]
        if spec.answers_from_top:
            picked = spec.answers_from_top[0] + rng.choice(
                spec.answers_from_top[1] - spec.answers_from_top[0], ANSWERS, replace=False
            )
        else:
            picked = tail + rng.choice(spec.entities - tail, ANSWERS, replace=False)
        answers = [entity[e] for e in picked.tolist()]
        for modifier in modifiers:
            concept = f"{modifier} {head}"
            for a in answers[:CORE]:
                rows.append((concept, a, int(rng.integers(8, 13))))
            drawn = rng.integers(tail, spec.entities, spec.short_noise).tolist()
            noise = dict.fromkeys(entity[e] for e in drawn)
            rows.extend((concept, e, 1) for e in noise if e not in answers)
        rows.extend((f"eq{j}", a, int(rng.integers(900, 1101))) for a in answers)
        for r in range(RELATED):
            kept = sorted(rng.choice(ANSWERS, ANSWERS - 2, replace=False).tolist())
            junk = dict.fromkeys(entity[e] for e in rng.integers(0, spec.entities, JUNK).tolist())
            rows.extend((f"rel{r} {head}", answers[i], int(rng.integers(450, 551))) for i in kept)
            rows.extend((f"rel{r} {head}", e, 1) for e in junk if e not in answers)
        heads.append((head, modifiers, answers))

    # Query stream: Zipf-skewed heads that repeat, or one distinct head per query.
    if spec.head_zipf:
        head_ids = _draw(rng, _zipf_cdf(spec.heads, spec.head_zipf), spec.queries)
    else:
        head_ids = rng.permutation(spec.heads)[: spec.queries]
    # Every block of len(k_block) queries has the same mix of lengths, so a
    # run's tail percentiles do not depend on how many long queries it drew.
    blocks = -(-spec.queries // len(spec.k_block))
    ks = np.concatenate([rng.permutation(spec.k_block) for _ in range(blocks)])[: spec.queries]
    queries = []
    for j, k in zip(head_ids.tolist(), ks.tolist()):
        head, modifiers, answers = heads[j]
        chosen = [modifiers[i] for i in rng.choice(len(modifiers), k, replace=False).tolist()]
        queries.append({"query": " ".join(chosen + [head]), "head": head, "answers": answers})
    return rows, queries


def write(workload: str, seed: int, out: Path, spec: Spec | None = None) -> None:
    """Write ``taxonomy.tsv`` and ``queries.json`` for one workload into ``out``."""
    rows, queries = generate(workload, seed, spec)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "taxonomy.tsv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(f"{c}\t{e}\t{n}\n" for c, e, n in rows))
    with open(out / "queries.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "edges": len(rows), "queries": queries}, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SPECS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    write(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
