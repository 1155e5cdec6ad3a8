"""Command-line front end.

Subcommands:
  classify      build the ring described by a spec file and classify it
  corpus        classify every ring in the generated corpus, assert invariants
  conjecture45  compare pseudo-arithmetical vs zero-ideal local irreducibility
  theorems      run the residue-idealization and factor-descent law checks

Exit codes: 0 success (including conjecture disagreement — that is a result,
not an error), 1 usage or spec-parse error, 2 search/lattice bound exceeded,
3 internal-consistency failure (failed law, failed invariant, or failed
certificate replay).
"""

from __future__ import annotations

import argparse
import os
import sys

from .classify import (SEARCH_BOUNDS, ClassifyConfig, classify,
                       gaussian_ring_verdict)
from .corpus import (CorpusConfig, DEFAULT_FAMILIES, run_conjecture,
                     run_corpus, run_theorems)
from .errors import (BoundExceededError, ConsistencyError, RingBuildError,
                     SpecError)
from .polys import certify_gaussian, make_poly
from .reports import (classification_markdown, conjecture_markdown,
                      corpus_markdown, harness_markdown, to_json)
from .specfile import build_ring, build_target, parse_ring_spec


class UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_search_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--degree-bound", type=int, default=None,
                        help="maximum degree for Gaussian searches (default 3)")
    parser.add_argument("--witness-cap", type=int, default=None,
                        help="candidate cap for single-polynomial searches")
    parser.add_argument("--pair-cap", type=int, default=None,
                        help="candidate cap for (f, g) pair searches")
    parser.add_argument("--pseudo-candidate-cap", type=int, default=None,
                        help="per-ideal candidate cap in the pseudo-arithmetical "
                             "search")
    parser.add_argument("--timing", action="store_true",
                        help="include per-condition millis in reports "
                             "(disables byte-identical output)")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "md"), default="json")
    parser.add_argument("--out", default=None,
                        help="write the report to this path instead of stdout")


def _add_corpus_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-order", type=int, default=None)
    parser.add_argument("--families", default=None,
                        help="comma-separated subset of zmod,gf,product,trivext")
    parser.add_argument("--zmod-max", type=int, default=None)
    parser.add_argument("--gf-max", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="finring",
                             description="finite commutative ring classifier")
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="classify a spec-file ring")
    p_classify.add_argument("--spec", required=True,
                            help="path to the ring spec file")
    _add_search_flags(p_classify)
    _add_output_flags(p_classify)
    p_classify.set_defaults(func=cmd_classify)

    p_corpus = sub.add_parser("corpus", help="classify the generated corpus")
    _add_corpus_flags(p_corpus)
    _add_search_flags(p_corpus)
    _add_output_flags(p_corpus)
    p_corpus.set_defaults(func=cmd_corpus)

    p_conj = sub.add_parser("conjecture45",
                            help="pseudo-arithmetical vs locally irreducible "
                                 "zero ideal over the corpus")
    _add_corpus_flags(p_conj)
    _add_search_flags(p_conj)
    _add_output_flags(p_conj)
    p_conj.set_defaults(func=cmd_conjecture)

    p_thm = sub.add_parser("theorems",
                           help="run the structural-law harness")
    _add_corpus_flags(p_thm)
    _add_search_flags(p_thm)
    _add_output_flags(p_thm)
    p_thm.set_defaults(func=cmd_theorems)
    return parser


def _classify_config(args) -> ClassifyConfig:
    overrides = {}
    for attr in SEARCH_BOUNDS:
        value = getattr(args, attr)
        if value is not None:
            overrides[attr] = value
    if args.timing:
        overrides["timing"] = True
    try:
        return ClassifyConfig.from_env(**overrides)
    except (BoundExceededError, ValueError) as exc:
        # from_env only raises for a malformed or negative bound, which is a
        # usage problem, not a genuine bound excess
        raise UsageError(str(exc)) from exc


def _corpus_config(args) -> CorpusConfig:
    kwargs = {"classify": _classify_config(args)}
    if args.families is not None:
        families = tuple(f.strip() for f in args.families.split(",") if f.strip())
        unknown = [f for f in families if f not in DEFAULT_FAMILIES]
        if unknown:
            raise UsageError(f"unknown families: {', '.join(unknown)}")
        kwargs["families"] = families
    for attr in ("max_order", "zmod_max", "gf_max"):
        value = getattr(args, attr)
        if value is not None:
            kwargs[attr] = value
    return CorpusConfig(**kwargs)


def _check_out(path: str) -> None:
    """Refuse an --out path that cannot be written before any work starts."""
    if os.path.isdir(path):
        raise UsageError(f"cannot write report: {path} is a directory")
    if not os.access(os.path.dirname(os.path.abspath(path)), os.W_OK):
        raise UsageError(f"cannot write report: the directory of {path} is "
                         f"missing or not writable")


def _emit(args, payload: dict, renderer) -> None:
    text = to_json(payload) if args.format == "json" else renderer(payload)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write report: {exc}") from exc
    else:
        sys.stdout.write(text)


def cmd_classify(args) -> int:
    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read spec file: {exc}") from exc
    program = parse_ring_spec(text)
    config = _classify_config(args)
    report = classify(build_target(program), config)
    payload = report.to_dict()
    if program.polys:
        payload["polynomials"] = _poly_section(program, config)
    _emit(args, payload, classification_markdown)
    return 0


def _poly_section(program, config: ClassifyConfig) -> dict:
    out = {}
    for name, (ring_id, lits) in program.polys.items():
        owner = build_ring(program.rings[ring_id])
        f = make_poly(owner, [owner.encode_literal(l) for l in lits])
        certified_ring = gaussian_ring_verdict(owner, config).verdict == "Yes"
        verdict = certify_gaussian(f, config.degree_bound, config.witness_cap,
                                   ring_gaussian_certified=certified_ring)
        entry: dict = {"ring": owner.name, "coefficients": f.literals(),
                       "status": verdict.status}
        if verdict.reason is not None:
            entry["reason"] = verdict.reason
        if verdict.witness is not None:
            entry["witness_g"] = verdict.witness.literals()
        if verdict.bound is not None:
            entry["bound"] = verdict.bound
        out[name] = entry
    return out


def cmd_corpus(args) -> int:
    report = run_corpus(_corpus_config(args))
    _emit(args, report.to_dict(), corpus_markdown)
    return 0


def cmd_conjecture(args) -> int:
    report = run_conjecture(_corpus_config(args))
    for row in report.disagreements:
        sys.stderr.write(
            f"DISAGREE (replay-verified): {row.ring_name} (order {row.order}) "
            f"pseudo-arithmetical={row.pseudo['verdict']} "
            f"zero-ideal-locally-irreducible="
            f"{row.zero_locally_irreducible['verdict']}\n")
    _emit(args, report.to_dict(), conjecture_markdown)
    return 0


def cmd_theorems(args) -> int:
    report = run_theorems(_corpus_config(args))
    _emit(args, report.to_dict(), harness_markdown)
    if report.failures:
        for failing in report.failures:
            sys.stderr.write(to_json(failing.to_dict()))
        sys.stderr.write(f"{len(report.failures)} harness instance(s) failed\n")
        return 3
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.out:
            _check_out(args.out)
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except SpecError as exc:
        sys.stderr.write(f"spec error: {exc}\n")
        return 1
    except RingBuildError as exc:
        sys.stderr.write(f"build error: {exc}\n")
        return 1
    except BoundExceededError as exc:
        sys.stderr.write(f"bound exceeded: {exc}\n")
        return 2
    except ConsistencyError as exc:
        sys.stderr.write(f"internal consistency failure: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
