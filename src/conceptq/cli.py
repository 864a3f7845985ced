"""Command-line interface: query, eval, and validate subcommands.

Every run prints a reproducibility header first, echoing the full effective
configuration (defaulted values included), so identical configs and inputs
give byte-identical output.

Exit codes: 0 success, 2 usage error, 3 data error, 4 unanswerable query.

With ``--format json`` each command emits a single JSON document (keys
sorted) instead of the text report:

  query     {"config": {<flag echo>}, "short_concepts": [str],
             "unresolved_modifiers": [str],
             "results": [{"rank": int, "entity": str, "score": float,
                          "provenance": "seed"|"expanded"|"baseline-only"}]}
  eval      {"config": {<flag echo>},
             "per_query": [{"query": str, "metrics": {"<name>@<k>": float}}],
             "skipped": [{"query": str, "reason": str}],
             "averages": {"<name>@<k>": float}}
  validate  {"taxonomy": str, "stats": {"concepts": int, "entities": int,
             "edges": int, "grand_total": int, "marginals": "ok"}}
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from .errors import (
    DataFormatError,
    EngineError,
    NoCandidateEntitiesError,
    QueryParseError,
    UnanswerableQueryError,
)
from .evaluation import GroundTruth, average_metrics, evaluate_queries
from .evaluation import check_cutoffs, check_removal_fraction, holdout_experiment
from .expansion import NAIVE_BAYES, NOISY_OR
from .pipeline import PipelineConfig, run_query
from .taxonomy import check_cutoff, data_lines, load, normalize

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_UNANSWERABLE = 4

MODEL_FLAGS = {"nb": NAIVE_BAYES, "noisy-or": NOISY_OR}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conceptq",
        description="Answer long concept queries over an isA co-occurrence taxonomy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--model", choices=sorted(MODEL_FLAGS), default="noisy-or",
                        help="concept expansion model (default: noisy-or)")
    common.add_argument("--gamma", type=float, default=PipelineConfig.gamma,
                        help="naive bayes smoothing weight")
    common.add_argument("--lambda", dest="leak", type=float, default=PipelineConfig.leak,
                        help="noisy-or leak probability")
    common.add_argument("--delta", type=float, default=PipelineConfig.delta,
                        help="over-generality penalty floor")
    common.add_argument("--alpha", type=float, default=PipelineConfig.alpha,
                        help="weight of the expansion ordering")
    common.add_argument("--beta", type=float, default=PipelineConfig.beta,
                        help="weight of the pairwise constraints")
    common.add_argument("--concepts-top-k", type=int, default=PipelineConfig.concepts_top_k,
                        help="expanded concepts kept per seed set")
    common.add_argument("--format", choices=["text", "json"], default="text",
                        help="output format")

    query = sub.add_parser("query", parents=[common],
                           help="answer one long concept query")
    query.add_argument("taxonomy", help="taxonomy file (concept<TAB>entity<TAB>count)")
    query.add_argument("text", help="the long concept query")
    query.add_argument("--k", type=int, default=10, help="results to return")
    query.add_argument("--head", default=None,
                       help="multi-word head override (must end the query)")

    evalp = sub.add_parser("eval", parents=[common],
                           help="score queries against ground truth or by hold-out")
    evalp.add_argument("taxonomy")
    evalp.add_argument("queries", help="file with one query per line")
    evalp.add_argument("truth", nargs="?", default=None,
                       help="ground truth file (query<TAB>entity per line)")
    evalp.add_argument("--k", default="10",
                       help="comma-separated list of cutoffs (default: 10)")
    evalp.add_argument("--holdout", type=float, default=None, metavar="FRACTION",
                       help="run the hold-out experiment instead of truth scoring")
    evalp.add_argument("--seed", type=int, default=0,
                       help="random seed for hold-out removal")

    validate = sub.add_parser("validate", help="ingest a taxonomy and print statistics")
    validate.add_argument("taxonomy")
    validate.add_argument("--format", choices=["text", "json"], default="text")

    return parser


def _config_from_args(args) -> PipelineConfig:
    return PipelineConfig(
        model_kind=MODEL_FLAGS[args.model],
        gamma=args.gamma,
        leak=args.leak,
        delta=args.delta,
        alpha=args.alpha,
        beta=args.beta,
        concepts_top_k=args.concepts_top_k,
        head=getattr(args, "head", None),
    )


def _config_echo(args, config: PipelineConfig, **extra) -> dict[str, object]:
    # the header names the model by its flag, not by its internal kind
    return {
        "command": args.command,
        "taxonomy": args.taxonomy,
        **config.echo(model=args.model, format=args.format, **extra),
    }


def _print_header(echo: dict[str, object]) -> None:
    pairs = " ".join(f"{key}={value!r}" for key, value in echo.items())
    print(f"# conceptq {pairs}")


def _warn_unconverged(query: str, converged: bool) -> None:
    """A ``warning:`` line on stderr, naming the query, when its aggregation
    solve stopped before its stopping rule held; stdout is left as it is."""
    if not converged:
        print(f"warning: {query!r}: rank aggregation did not converge", file=sys.stderr)


def cmd_query(args) -> int:
    check_cutoff(args.k, "--k")
    config = _config_from_args(args)
    taxonomy = load(args.taxonomy)
    result = run_query(taxonomy, args.text, config)
    _warn_unconverged(args.text, result.scores.converged)
    echo = _config_echo(args, config, query=args.text, k=args.k, head=args.head)

    if args.format == "json":
        doc = {
            "config": echo,
            "short_concepts": list(result.decomposition.short_concepts),
            "unresolved_modifiers": list(result.decomposition.unresolved),
            "results": [
                {
                    "rank": i,
                    "entity": r.entity,
                    "score": r.score,
                    "provenance": r.provenance,
                }
                for i, r in enumerate(result.top(args.k), start=1)
            ],
        }
        print(json.dumps(doc, sort_keys=True))
        return EXIT_OK

    _print_header(echo)
    print(f"# short-concepts={list(result.decomposition.short_concepts)!r} "
          f"unresolved={list(result.decomposition.unresolved)!r}")
    for i, r in enumerate(result.top(args.k), start=1):
        print(f"{i}\t{r.entity}\t{r.score:.6f}\t{r.provenance}")
    return EXIT_OK


def _read_truth(path) -> dict[str, set[str]]:
    truth: dict[str, set[str]] = {}
    for line_num, line in data_lines(path):
        fields = line.split("\t")
        if len(fields) != 2 or not fields[0].strip() or not fields[1].strip():
            raise DataFormatError(
                f"line {line_num}: expected query<TAB>entity", row=line_num
            )
        truth.setdefault(normalize(fields[0]), set()).add(fields[1])
    return truth


def _metric_line(label: str, metrics: dict[str, float]) -> str:
    parts = [f"{key}={metrics[key]:.6f}" for key in sorted(metrics)]
    return "\t".join([label] + parts)


def cmd_eval(args) -> int:
    config = _config_from_args(args)
    try:
        ks = check_cutoffs([int(part) for part in str(args.k).split(",") if part.strip()])
    except ValueError:
        print(f"error: bad --k list {args.k!r}", file=sys.stderr)
        return EXIT_USAGE
    if (args.holdout is None) == (args.truth is None):
        both = "" if args.truth is None else ", not both"
        raise ValueError(f"eval needs a truth file or --holdout{both}")
    if args.holdout is not None:
        check_removal_fraction(args.holdout)

    taxonomy = load(args.taxonomy)
    queries = [line.strip() for _, line in data_lines(args.queries)]
    echo = _config_echo(
        args, config, queries=args.queries, truth=args.truth,
        k=",".join(map(str, ks)), holdout=args.holdout,
        # only the hold-out removal reads the seed
        **({} if args.holdout is None else {"seed": args.seed}),
    )

    truth_map = None if args.truth is None else _read_truth(args.truth)
    per_query, skipped = [], []
    for query in queries:
        try:
            if truth_map is None:
                report = holdout_experiment(
                    taxonomy, query, args.holdout, args.seed, ks, config
                )
            else:
                answers = truth_map.get(normalize(query))
                if not answers:
                    raise EngineError("no ground truth")
                truth = GroundTruth(query=query, answers=frozenset(answers))
                report = evaluate_queries(taxonomy, [truth], ks, config)
        except EngineError as exc:
            print(f"warning: {query!r} skipped: {exc}", file=sys.stderr)
            skipped.append({"query": query, "reason": str(exc)})
            continue
        for qm in report.per_query:
            _warn_unconverged(qm.query, qm.converged)
        per_query.extend(report.per_query)
    averages = average_metrics(per_query)

    if args.format == "json":
        doc = {
            "config": echo,
            "per_query": [
                {"query": qm.query, "metrics": qm.metrics} for qm in per_query
            ],
            "skipped": skipped,
            "averages": averages,
        }
        print(json.dumps(doc, sort_keys=True))
        return EXIT_OK

    _print_header(echo)
    for qm in per_query:
        print(_metric_line(f"query={qm.query}", qm.metrics))
    for item in skipped:
        print(f"skipped query={item['query']!r} reason={item['reason']!r}")
    print(_metric_line("average", averages))
    return EXIT_OK


def cmd_validate(args) -> int:
    taxonomy = load(args.taxonomy)
    taxonomy.check_marginals()
    stats = {
        "concepts": len(taxonomy.concept_names),
        "entities": len(taxonomy.entity_names),
        "edges": taxonomy.n_edges,
        "grand_total": taxonomy.grand_total,
        "marginals": "ok",
    }
    if args.format == "json":
        print(json.dumps({"taxonomy": args.taxonomy, "stats": stats}, sort_keys=True))
        return EXIT_OK
    _print_header({"command": args.command, "taxonomy": args.taxonomy, "format": args.format})
    for key, value in stats.items():
        print(f"{key}={value}")
    return EXIT_OK


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING, format="%(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "query":
            return cmd_query(args)
        if args.command == "eval":
            return cmd_eval(args)
        return cmd_validate(args)
    except (UnanswerableQueryError, QueryParseError, NoCandidateEntitiesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNANSWERABLE
    except ValueError as exc:
        # out-of-range parameter values are usage errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (EngineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
