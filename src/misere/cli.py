"""Command-line front end.

Subcommands parse games from the notation grammar, compute outcomes and
canonical forms, compare and distinguish games relative to a universe,
enumerate slices, and run the built-in verification scans.

Exit codes: 0 success, 1 verification found violations, 2 usage error
(including a rank below 0, fewer than one option, a budget variable that
is not an integer, budget or universe flags on a scan with a fixed
budget and universe, and ``--seed`` where nothing is sampled: every
verify target but uniqueness, and enumerate without ``--census``), 3
notation error, 4 domain error (wrong universe, bad precondition), 5
resource cap exceeded (an enumeration or node cap, the reduction pass
cap, or a game nested deeper than the recursion limit, such as ``parse
5000``).

Default enumeration budgets may be overridden with the environment
variables MISERE_MAX_RANK and MISERE_MAX_OPTIONS; explicit flags win
over the environment, which wins over the built-in defaults (rank 2,
four options per side).  The murders and ends scans have fixed budgets,
always scan the dead-ending universe, and ignore the environment.

Each query runs in a fresh interpreter, so importing and building the
argument parser are part of its latency.  This module loads only core,
notation and outcomes; a subcommand imports ordering, canonical, lab or
json when it first needs them, and none of these imports dataclasses.
``main`` builds the subparser of the one subcommand the query names, or
all of them when the first argument names none (help, a missing or an
unknown subcommand).  Either way the usage and help texts are the same.
It keeps each parser it builds, so an in-process caller that runs many
queries builds each one once; budgets are read from the environment when
a command runs, not when its parser is built, so a change between calls
is honoured.  ``build_parser`` itself always builds a fresh parser.
Each answer is built only in the format printed.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import core, notation, outcomes
from .core import _DEFAULT_OPTIONS, _DEFAULT_RANK, DomainError, ResourceError, Universe

ENV_MAX_RANK = "MISERE_MAX_RANK"
ENV_MAX_OPTIONS = "MISERE_MAX_OPTIONS"

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_DOMAIN = 4
EXIT_RESOURCE = 5


class UsageError(Exception):
    """Arguments that parse but cannot be honoured."""


def _env_int(name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise UsageError("%s must be an integer, got %r" % (name, raw)) from None


def _budget_value(given, flag: str, env: str, default: int, least: int) -> int:
    value, source = given, flag
    if given is None:
        value, source = _env_int(env, default), env
    if value < least:
        raise UsageError("%s must be at least %d, got %d" % (source, least, value))
    return value


def _resolve_budget(args) -> tuple:
    return (_budget_value(args.max_rank, "--max-rank", ENV_MAX_RANK, _DEFAULT_RANK, 0),
            _budget_value(args.max_options, "--max-options", ENV_MAX_OPTIONS,
                          _DEFAULT_OPTIONS, 1))


def _emit(args, doc, text) -> None:
    """Print text(), or in structured mode the JSON of doc(); only the
    answer printed is built."""
    if args.format == "structured":
        import json

        sys.stdout.write(json.dumps(doc(), sort_keys=True) + "\n")
    else:
        sys.stdout.write(text() + "\n")


def _game_doc(g) -> dict:
    return {
        "named": notation.print_game(g, "named"),
        "brace": notation.print_game(g, "brace"),
        "tree": notation.to_interchange(g),
    }


def _named(g):
    return lambda: notation.print_game(g, "named")


def cmd_parse(args) -> int:
    g = notation.parse(args.game)

    def text():
        import json

        return "%s\n%s\n%s" % (notation.print_game(g, "named"),
                               notation.print_game(g, "brace"),
                               json.dumps(notation.to_interchange(g), sort_keys=True))

    _emit(args, lambda: _game_doc(g), text)
    return EXIT_OK


def cmd_outcome(args) -> int:
    g = notation.parse(args.game)
    o = outcomes.normal_outcome(g) if args.normal else outcomes.outcome(g)
    kind = "normal" if args.normal else "misere"
    _emit(args, lambda: {"outcome": str(o), "convention": kind}, lambda: str(o))
    return EXIT_OK


def cmd_strong_outcome(args) -> int:
    g = notation.parse(args.game)
    o = outcomes.strong_outcome(g)
    _emit(args, lambda: {"strong_outcome": str(o), "left": str(o.left),
                         "right": str(o.right)},
          lambda: "%s (left %s, right %s)" % (o, o.left, o.right))
    return EXIT_OK


def cmd_sum(args) -> int:
    g = core.zero()
    for text in args.game:
        g = core.add(g, notation.parse(text))
    _emit(args, lambda: _game_doc(g), _named(g))
    return EXIT_OK


def cmd_conj(args) -> int:
    g = core.conjugate(notation.parse(args.game))
    _emit(args, lambda: _game_doc(g), _named(g))
    return EXIT_OK


def cmd_compare(args) -> int:
    from . import ordering

    g = notation.parse(args.left)
    h = notation.parse(args.right)
    if args.universe == "normal":
        ge_gh = ordering.ge_normal(g, h)
        ge_hg = ordering.ge_normal(h, g)
    else:
        u = Universe(args.universe)
        ge_gh = ordering.ge(g, h, u)
        ge_hg = ordering.ge(h, g, u)
    if ge_gh and ge_hg:
        rel = "="
    elif ge_gh:
        rel = ">="
    elif ge_hg:
        rel = "<="
    else:
        rel = "incomparable"
    _emit(args, lambda: {"relation": rel, "universe": args.universe}, lambda: rel)
    return EXIT_OK


def cmd_reduce(args) -> int:
    from . import canonical

    g = notation.parse(args.game)
    u = Universe(args.universe)
    if args.trace:
        canon, steps = canonical.canonical_form_traced(g, u)

        def text():
            lines = [notation.print_game(canon, "named")]
            for s in steps:
                lines.append("%s [%s]: %s -> %s" % (
                    s.rule, s.side,
                    notation.print_game(s.before, "named"),
                    notation.print_game(s.after, "named")))
            return "\n".join(lines)

        _emit(args, lambda: dict(_game_doc(canon), trace=[
            canonical.step_to_doc(s) for s in steps]), text)
    else:
        canon = canonical.canonical_form(g, u)
        _emit(args, lambda: _game_doc(canon), _named(canon))
    return EXIT_OK


def cmd_distinguish(args) -> int:
    from . import ordering

    g = notation.parse(args.left)
    h = notation.parse(args.right)
    u = Universe(args.universe)
    max_rank, max_options = _resolve_budget(args)
    verdict = ordering.distinguish(g, h, u, max_rank, max_options)

    def doc():
        d = {"verdict": verdict.verdict,
             "budget": {"max_rank": max_rank, "max_options": max_options}}
        if verdict.witness is not None:
            d["witness"] = _game_doc(verdict.witness)
        return d

    def text():
        if verdict.witness is None:
            return verdict.verdict
        return verdict.verdict + ": " + notation.print_game(verdict.witness, "named")

    _emit(args, doc, text)
    return EXIT_OK


def _census(args, lab) -> int:
    """enumerate --census and verify uniqueness: the census of the slice
    the flags and environment give, sampled with --seed or the default
    seed; exit 1 on violations."""
    u = Universe(args.universe)
    budget = lab.EnumerationBudget(*_resolve_budget(args), u)
    seed = core.DEFAULT_SEED if args.seed is None else args.seed
    report = lab.census(budget, seed=seed)
    _emit(args, report.to_doc, report.render_text)
    return EXIT_OK if report.ok else EXIT_VIOLATIONS


def cmd_enumerate(args) -> int:
    from . import lab

    if not args.census and args.seed is not None:
        raise UsageError("enumerate draws no sample without --census; "
                         "--seed does not apply")
    if args.census:
        return _census(args, lab)
    u = Universe(args.universe)
    games = lab.enumerate_games(lab.EnumerationBudget(*_resolve_budget(args), u))
    names = [notation.print_game(g, "named") for g in games]
    _emit(args, lambda: {"universe": u.value, "count": len(games), "games": names},
          lambda: "\n".join(names))
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import lab

    target = args.target
    if target != "uniqueness" and args.seed is not None:
        raise UsageError("verify %s draws no sample; --seed does not apply"
                         % target)
    if target in ("murders", "ends"):
        if args.max_rank is not None or args.max_options is not None:
            raise UsageError("verify %s has a fixed budget; --max-rank and "
                             "--max-options do not apply" % target)
        if args.universe is not None:
            raise UsageError("verify %s always scans the dead-ending "
                             "universe; --universe does not apply" % target)
    elif args.universe is None:
        args.universe = "dead-ending"
    if target == "murders":
        report = lab.scan_murder_theorems()
    elif target == "conjugate":
        report = lab.scan_conjugate_property(Universe(args.universe),
                                             *_resolve_budget(args))
    elif target == "uniqueness":
        return _census(args, lab)
    elif target == "ends":
        report = lab.scan_end_invertibility()
    else:  # embedding; argparse allows no other target
        report = lab.scan_normal_embedding(Universe(args.universe),
                                           *_resolve_budget(args))
    _emit(args, report.to_doc, report.render_text)
    return EXIT_OK if report.ok else EXIT_VIOLATIONS


def _add_game(p):
    p.add_argument("game")


def _add_outcome(p):
    p.add_argument("game")
    p.add_argument("--normal", action="store_true")


def _add_sum(p):
    p.add_argument("game", nargs="+")


def _add_compare(p):
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--universe", required=True,
                   choices=("dicot", "dead-ending", "normal"))


def _add_reduce(p):
    p.add_argument("game")
    p.add_argument("--universe", required=True, choices=("dicot", "dead-ending"))
    p.add_argument("--trace", action="store_true",
                   help="also list the rewrite steps")


def _add_budget(p):
    p.add_argument("--max-rank", type=int, default=None)
    p.add_argument("--max-options", type=int, default=None)


def _add_distinguish(p):
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--universe", required=True, choices=("dicot", "dead-ending"))
    _add_budget(p)


def _add_enumerate(p):
    p.add_argument("--universe", required=True, choices=("dicot", "dead-ending"))
    p.add_argument("--census", action="store_true")
    p.add_argument("--seed", type=int, default=None,
                   help="default %d; only --census samples, a listing "
                        "refuses it" % core.DEFAULT_SEED)
    _add_budget(p)


def _add_verify(p):
    p.add_argument("target",
                   choices=("murders", "conjugate", "uniqueness", "ends",
                            "embedding"))
    p.add_argument("--universe", default=None,
                   choices=("dicot", "dead-ending"),
                   help="default dead-ending; murders and ends refuse it")
    p.add_argument("--seed", type=int, default=None,
                   help="default %d; only uniqueness samples, the other "
                        "targets refuse it" % core.DEFAULT_SEED)
    _add_budget(p)


# Subcommand -> (help, argument adder, handler), in the order usage lists them.
_COMMANDS = {
    "parse": ("normalize a game expression", _add_game, cmd_parse),
    "outcome": ("misère (default) or normal outcome", _add_outcome, cmd_outcome),
    "strong-outcome": ("strong outcome of a dead-ending game", _add_game,
                       cmd_strong_outcome),
    "sum": ("disjunctive sum of the arguments", _add_sum, cmd_sum),
    "conj": ("conjugate (swap the players)", _add_game, cmd_conj),
    "compare": ("order two games in a universe", _add_compare, cmd_compare),
    "reduce": ("canonical form within a universe", _add_reduce, cmd_reduce),
    "distinguish": ("search for a context separating two games",
                    _add_distinguish, cmd_distinguish),
    "enumerate": ("list a slice, or census it", _add_enumerate, cmd_enumerate),
    "verify": ("run a built-in verification scan", _add_verify, cmd_verify),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The argument parser, with every subcommand or only ``command``.

    A query parses with the one subparser it names, which is faster to
    build than all of them and parses it the same way.
    """
    top = argparse.ArgumentParser(
        prog="misere",
        description="Misère game algebra in the dicot and dead-ending universes.")
    if command is None:
        names = list(_COMMANDS)
        sub = top.add_subparsers(dest="command", required=True)
    else:
        # The usage line lists every subcommand, as the full parser's does;
        # the full parser keeps no metavar, which would also rename the
        # argument in its "required" and "invalid choice" errors.
        names = [command]
        sub = top.add_subparsers(dest="command", required=True,
                                 metavar="{%s}" % ",".join(_COMMANDS))
    for name in names:
        help_, add_arguments, handler = _COMMANDS[name]
        p = sub.add_parser(name, help=help_)
        add_arguments(p)
        p.add_argument("--format", choices=("text", "structured"),
                       default="text",
                       help="structured prints one JSON document on stdout")
        p.set_defaults(func=handler)
    return top


# Parsers built by main, keyed by the subcommand they parse (None for the
# full parser); an in-process caller builds each one once.
_PARSERS: dict = {}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    parser = _PARSERS.get(command)
    if parser is None:
        parser = _PARSERS[command] = build_parser(command)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except notation.ParseError as e:
        sys.stderr.write("notation error: %s\n" % e)
        return EXIT_PARSE
    except DomainError as e:
        sys.stderr.write("domain error: %s\n" % e)
        return EXIT_DOMAIN
    except ResourceError as e:
        sys.stderr.write("resource cap: %s\n" % e)
        return EXIT_RESOURCE
    except RecursionError as e:
        sys.stderr.write("resource cap: game nests deeper than the recursion "
                         "limit (%s)\n" % e)
        return EXIT_RESOURCE
    except UsageError as e:
        sys.stderr.write("usage error: %s\n" % e)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
