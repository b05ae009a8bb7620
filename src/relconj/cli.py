"""Command line surface: load a presentation and its constants profile,
run word-problem, classification, conjugacy, and cross-check queries on the
profile, and build (and cache) the tables with precompute.

Output discipline: stdout carries machine-parseable key=value lines only
(or a single JSON object with --json) and is byte-identical for identical
inputs; the wall-clock timing line goes to stderr.  Exit status is 0
exactly when the command status is ok.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import conjugacy, shortening, tables
from .errors import (
    BudgetExceededError,
    NotConjugateError,
    OracleUnavailableError,
    ParseError,
    RelconjError,
    UnknownLetterError,
)
from .presentation import load_presentation, read_constants, read_text

_ERROR_KINDS = (
    (ParseError, "parse"),
    (UnknownLetterError, "parse"),
    (BudgetExceededError, "budget"),
    (OracleUnavailableError, "oracle"),
    (NotConjugateError, "conjugacy"),
    (RelconjError, "internal"),
    (OSError, "io"),
)


class CommandResult:
    """A command's status ("ok" or "error"), its key=value payload, and its
    wall time in seconds, which run() sets."""

    __slots__ = ("status", "payload", "timing")

    def __init__(self, status: str, payload: dict, timing: float = 0.0):
        self.status = status
        self.payload = payload
        self.timing = timing


def _error_result(exc) -> CommandResult:
    for cls, kind in _ERROR_KINDS:
        if isinstance(exc, cls):
            return CommandResult("error",
                                 {"error": kind, "message": str(exc)})
    raise exc


def _read_profile_overrides(path):
    """One key=value per line (see read_constants), # comments and blank
    lines ignored."""
    out = []
    if path is not None:
        for lineno, raw in enumerate(read_text(path).splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if line:
                read_constants(out, [line], lineno)
    return out


def _setup(args):
    p = load_presentation(args.presentation)
    profile = tables.profile_for(p, _read_profile_overrides(args.profile))
    return p, profile


def cmd_wp(args) -> dict:
    p, _ = _setup(args)
    res = shortening.shorten(p, args.word)
    return {
        "trivial": res.output == "",
        "shortened": res.output,
        "steps": len(res.steps),
    }


def cmd_classify(args) -> dict:
    p, profile = _setup(args)
    return conjugacy.classify(p, profile, args.word)._asdict()


def cmd_conj(args) -> dict:
    p, profile = _setup(args)
    cert = conjugacy.decide(p, profile, args.u, args.v)
    if args.search and cert.answer != "conjugate":
        raise NotConjugateError(cert.reason)
    # every field of the certificate, in order, with length printed as L
    return {"L" if key == "length" else key: value
            for key, value in cert._asdict().items()}


def cmd_precompute(args) -> dict:
    p, profile = _setup(args)
    t = tables.precompute(p, profile)
    cache_path = args.cachefile or args.cache
    if cache_path:
        tables.save_tables(cache_path, t)
    return {
        "presentation": t.p_hash,
        "profile": t.profile.hash,
        "size_l3": t.l3,
        "k_i": ",".join(str(v) for v in t.k_i) or "-",
        "k_hyp_4delta": t.k_hyp_4delta,
        "k_4delta": t.k_4delta,
        "cache": cache_path,
    }


def cmd_crosscheck(args) -> dict:
    """decide() against the ball oracle's conjugacy classes over all
    ordered pairs of ball elements, or a seeded sample of them.  The only
    command that loads the ball oracle (metric_oracle)."""
    from . import metric_oracle

    if args.maxlen < 0:
        raise ParseError("maxlen must be nonnegative")
    if args.sample is not None and args.sample < 1:
        raise ParseError("--sample must be at least 1")
    p, profile = _setup(args)
    engine = conjugacy.ConjugacyEngine(p, profile)
    elements = metric_oracle.ball(p, args.maxlen,
                                  budget=profile.budget).elements
    n = len(elements)
    if (n * n if args.sample is None else args.sample) > profile.budget:
        raise BudgetExceededError("crosscheck pairs", profile.budget)
    classes = metric_oracle.conjugacy_classes(p, args.maxlen,
                                              budget=profile.budget)
    if args.sample is None:
        pairs = [(u, v) for u in elements for v in elements]
    else:
        import random

        rng = random.Random(args.seed)
        pairs = [(elements[rng.randrange(n)], elements[rng.randrange(n)])
                 for _ in range(args.sample)]
    mismatches = 0
    counterexample = None
    for u, v in pairs:
        expected = classes[u] == classes[v]
        got = conjugacy.decide(p, profile, u, v,
                               engine=engine).answer == "conjugate"
        if expected != got:
            mismatches += 1
            if counterexample is None:
                counterexample = "%s|%s" % (u, v)
    agreement = 1.0 - mismatches / len(pairs)  # the ball holds the identity
    return {
        "elements": n,
        "pairs": len(pairs),
        "agreement": "%.6f" % agreement,
        "mismatches": mismatches,
        "counterexample": counterexample,
    }


def _format_value(value):
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _emit(result: CommandResult, as_json: bool):
    if as_json:
        import json

        body = {"status": result.status}
        body.update(result.payload)
        sys.stdout.write(json.dumps(body, sort_keys=True) + "\n")
    else:
        sys.stdout.write("status=%s\n" % result.status)
        for key, value in result.payload.items():
            sys.stdout.write("%s=%s\n" % (key, _format_value(value)))
    sys.stderr.write("elapsed_ms=%.1f\n" % (result.timing * 1000.0))


def _add_common(parser, suppress):
    """The global flags, attached to the main parser with real defaults and
    to every subparser with suppressed ones, so they parse in either
    position without the subparser clobbering main-level values."""
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument("--profile", metavar="PATH",
                        default=d,
                        help="constants overrides, one key=value per line "
                             "(default: the presentation's constants block)")
    parser.add_argument("--cache", metavar="PATH",
                        default=d,
                        help="tables cache file that precompute writes; "
                             "query commands accept it and do not read it "
                             "(default: no cache)")
    parser.add_argument("--json", action="store_true",
                        default=argparse.SUPPRESS if suppress else False,
                        help="emit one JSON object instead of key=value "
                             "lines (default: key=value)")
    parser.add_argument("--seed", type=int,
                        default=argparse.SUPPRESS if suppress else 0,
                        help="seed for sampled crosscheck pairs (default 0)")


def _word_arguments(sp):
    sp.add_argument("presentation")
    sp.add_argument("word")


def _conj_arguments(sp):
    sp.add_argument("presentation")
    sp.add_argument("u")
    sp.add_argument("v")
    sp.add_argument("--search", action="store_true",
                    help="fail unless a verified witness is produced")


def _precompute_arguments(sp):
    sp.add_argument("presentation")
    sp.add_argument("cachefile", nargs="?", default=None,
                    help="where to write the cache (default: --cache value)")


def _crosscheck_arguments(sp):
    sp.add_argument("presentation")
    sp.add_argument("maxlen", type=int)
    sp.add_argument("--sample", type=int, default=None,
                    help="check this many seeded random pairs instead of "
                         "all of them (default: exhaustive)")


# name, help line, argument builder and handler of every subcommand, in
# help order; the handler takes the parsed arguments and returns the payload
_SUBCOMMANDS = (
    ("wp", "word problem: is the word trivial?", _word_arguments, cmd_wp),
    ("classify", "hyperbolic or parabolic?", _word_arguments, cmd_classify),
    ("conj", "decide conjugacy of two words", _conj_arguments, cmd_conj),
    ("precompute", "build tables, print sizes", _precompute_arguments,
     cmd_precompute),
    ("crosscheck", "decide vs the brute-force oracle on all pairs",
     _crosscheck_arguments, cmd_crosscheck),
)


def _subparser(listed_only=False, **kwargs):
    """The parser of one subcommand, or None for one that is only listed:
    argv does not name it, so no parse selects it."""
    return None if listed_only else argparse.ArgumentParser(**kwargs)


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The command line parser.  Given the arguments argv it is to parse,
    it builds a subparser only for the subcommands that argv names; the
    others are listed by name and help line, which is all that the main
    help, the main usage and its errors print, so every output is the full
    parser's.  Without argv it builds every subparser."""
    parser = argparse.ArgumentParser(
        prog="relconj",
        description="Word problem and conjugacy for relatively hyperbolic "
                    "groups with free, free-abelian, or finite parabolics.",
    )
    _add_common(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_subparser)
    for name, help_line, add_arguments, handler in _SUBCOMMANDS:
        sp = sub.add_parser(name, help=help_line,
                            listed_only=argv is not None and name not in argv)
        if sp is not None:
            _add_common(sp, suppress=True)
            add_arguments(sp)
            sp.set_defaults(handler=handler)
    return parser


def run(args) -> CommandResult:
    start = time.perf_counter()
    try:
        result = CommandResult("ok", args.handler(args))
    except Exception as exc:  # noqa: BLE001 - mapped to typed payloads
        result = _error_result(exc)
    result.timing = time.perf_counter() - start
    return result


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    result = run(args)
    _emit(result, args.json)
    return 0 if result.status == "ok" else 1


if __name__ == "__main__":
    sys.exit(main())
