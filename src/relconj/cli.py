"""Command line surface: load a presentation and its constants profile,
run word-problem, classification, conjugacy, and cross-check queries on the
profile, and build (and cache) the tables with precompute.

Output discipline: stdout carries machine-parseable key=value lines only
(or a single JSON object with --json) and is byte-identical for identical
inputs; the wall-clock timing line goes to stderr.  Exit status is 0
exactly when the command status is ok.

A well-formed command line is read straight from the grammar tables below;
argparse, built from the same tables, loads only to print help and errors.
"""

from __future__ import annotations

import sys
import time
import types
from itertools import zip_longest

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


# The global flags, which parse before or after the subcommand, the last
# one given winning: flag, value type (None for a switch), default, metavar
# and help line.
_FLAGS = (
    ("--profile", str, None, "PATH",
     "constants overrides, one key=value per line "
     "(default: the presentation's constants block)"),
    ("--cache", str, None, "PATH",
     "tables cache file that precompute writes; query commands accept it "
     "and do not read it (default: no cache)"),
    ("--json", None, False, None,
     "emit one JSON object instead of key=value lines (default: key=value)"),
    ("--seed", int, 0, None, "seed for sampled crosscheck pairs (default 0)"),
)

_PRESENTATION = ("presentation", str, None)
_WORD = ("word", str, None)

# name, help line, handler, positionals and options of every subcommand, in
# help order.  A positional is (name, value type, help line), the type None
# marking one that may be left out (it defaults to None); an option is
# written as a global flag is.  The handler takes the parsed arguments and
# returns the payload.
_SUBCOMMANDS = (
    ("wp", "word problem: is the word trivial?", cmd_wp,
     (_PRESENTATION, _WORD), ()),
    ("classify", "hyperbolic or parabolic?", cmd_classify,
     (_PRESENTATION, _WORD), ()),
    ("conj", "decide conjugacy of two words", cmd_conj,
     (_PRESENTATION, ("u", str, None), ("v", str, None)),
     (("--search", None, False, None,
       "fail unless a verified witness is produced"),)),
    ("precompute", "build tables, print sizes", cmd_precompute,
     (_PRESENTATION, ("cachefile", None,
                      "where to write the cache (default: --cache value)")),
     ()),
    ("crosscheck", "decide vs the brute-force oracle on all pairs",
     cmd_crosscheck, (_PRESENTATION, ("maxlen", int, None)),
     (("--sample", int, None, None,
       "check this many seeded random pairs instead of all of them "
       "(default: exhaustive)"),)),
)


def _parse(argv):
    """The arguments that build_parser().parse_args(argv) gives, read
    straight from the tables above, or None for a command line that is not
    plainly well formed: one that asks for help, abbreviates a flag, writes
    --flag=value or --, has any other token starting with -, leaves a flag
    without its value or an integer unreadable, or has too few or too many
    positionals.  Positionals may stand on both sides of a flag, as in
    precompute F --json C, whose optional cache file argparse would leave
    unread and reject.  main hands the declined lines to argparse, so that
    every help, usage and error line is argparse's own."""
    values = {flag[2:]: default for flag, _, default, _, _ in _FLAGS}
    kinds = {flag: kind for flag, kind, *_ in _FLAGS}
    positionals = None  # until the subcommand
    words = []
    tokens = iter(argv)
    try:
        for token in tokens:
            if token.startswith("-"):
                kind = kinds[token]
                if kind is None:
                    value = True
                else:
                    value = next(tokens, "-")  # a missing value declines
                    if value.startswith("-"):
                        return None
                    value = kind(value)
                values[token[2:]] = value
            elif positionals is None:
                name, _, handler, positionals, options = next(
                    sub for sub in _SUBCOMMANDS if sub[0] == token)
                values.update(command=name, handler=handler)
                for flag, kind, default, _, _ in options:
                    kinds[flag] = kind
                    values[flag[2:]] = default
            else:
                words.append(token)
        if positionals is None or not (
                sum(kind is not None for _, kind, _ in positionals)
                <= len(words) <= len(positionals)):
            return None
        for (name, kind, _), word in zip_longest(positionals, words):
            values[name] = word if kind is None else kind(word)
    except (KeyError, StopIteration, ValueError):
        return None
    return types.SimpleNamespace(**values)


def build_parser():
    """The argparse parser of the same grammar, for help, usage and error
    messages: main runs it only on a command line that _parse declines."""
    import argparse

    def add_flag(parser, flag, kind, default, metavar, help_line):
        if kind is None:
            parser.add_argument(flag, action="store_true", default=default,
                                help=help_line)
        else:
            parser.add_argument(flag, type=kind, default=default,
                                metavar=metavar, help=help_line)

    parser = argparse.ArgumentParser(
        prog="relconj",
        description="Word problem and conjugacy for relatively hyperbolic "
                    "groups with free, free-abelian, or finite parabolics.",
    )
    for flag in _FLAGS:
        add_flag(parser, *flag)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_line, handler, positionals, options in _SUBCOMMANDS:
        sp = sub.add_parser(name, help=help_line)
        # suppressed defaults, so that a subparser leaves the main-level
        # values of the flags it is not given alone
        for flag, kind, _, metavar, flag_help in _FLAGS:
            add_flag(sp, flag, kind, argparse.SUPPRESS, metavar, flag_help)
        for arg, kind, arg_help in positionals:
            if kind is None:
                sp.add_argument(arg, nargs="?", default=None, help=arg_help)
            else:
                sp.add_argument(arg, type=kind, help=arg_help)
        for option in options:
            add_flag(sp, *option)
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
    args = _parse(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    result = run(args)
    _emit(result, args.json)
    return 0 if result.status == "ok" else 1

