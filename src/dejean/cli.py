"""Command line front end.

Every invocation prints exactly one JSON document:

    {"schema": 1, "command": ..., "status": ..., "payload": {...}}

with status pass, fail, info, usage or unavailable.  The process exit code
is 0 for pass and info, 1 for fail, 2 for usage errors (argparse also prints
the usage line on stderr) and 3 for unavailable.  Payloads are deterministic
for fixed arguments and seeds; the --jobs flag only changes how work is
distributed, never the bytes printed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from ._util import Record
from .carpi import PipelineError, load_morphism_table, threshold_pipeline
from .constructions import (
    alpha_prefix,
    beta_prefix,
    z4_language,
    zm_count,
    zm_enumerate,
    zm_samples,
)
from .core_words import (
    find_forbidden_factor,
    format_ratio,
    format_word,
    parse_ratio,
    parse_word,
    repetition_threshold,
)
from .growth import (
    DEFAULT_BUDGET,
    build_growth_table,
    count_language,
    count_threshold_words,
    growth_estimate,
    table_to_csv,
    theorem2_lower_bound,
)
from .pansiot import gamma, scan_prop32
from .verifier import (
    binary_avoidance_longest,
    check_lemma6,
    check_prop7_desk,
    compute_W,
    n26_stabilizing_check,
    verify_Ew,
    verify_short_elimination,
    w_breakdown,
)

EXIT_CODES = {"pass": 0, "info": 0, "fail": 1, "usage": 2, "unavailable": 3}

EXPECTED_W_COUNT = 200
EXPECTED_W_BREAKDOWN = {(76, 77): 160, (92, 93): 36, (112, 114): 4}
EXPECTED_BINARY26 = 15


class CommandResult(Record):
    """A command's status and payload; plain, when set, is raw text printed
    in place of the JSON document."""

    __slots__ = ("status", "payload", "plain")
    _defaults = {"plain": None}

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.status]


def _breakdown_rows(hist: dict) -> list[dict]:
    return [
        {"kernel_period": p, "length": ln, "count": c}
        for (p, ln), c in sorted(hist.items())
    ]


# ------------------------------------------------------------ handlers


def _cmd_rt(args) -> CommandResult:
    r = repetition_threshold(args.n)
    return CommandResult("info", {"n": args.n, "threshold": format_ratio(r)})


def _cmd_check(args) -> CommandResult:
    r = parse_ratio(args.r)
    w = parse_word(args.word, args.alphabet)
    report = find_forbidden_factor(w, r, strict=args.strict)
    payload = {
        "word": format_word(w),
        "alphabet": args.alphabet,
        "r": format_ratio(r),
        "strict": args.strict,
    }
    if report is None:
        payload["free"] = True
        return CommandResult("pass", payload)
    payload["free"] = False
    payload["report"] = report.to_payload()
    return CommandResult("fail", payload)


def _cmd_gamma(args) -> CommandResult:
    w = gamma(args.n, args.binary)
    return CommandResult(
        "info",
        {"n": args.n, "binary": args.binary, "word": format_word(w), "length": len(w)},
    )


def _cmd_scan_pansiot(args) -> CommandResult:
    report = scan_prop32(args.n, args.binary)
    payload = {"n": args.n, "binary": args.binary}
    if report is None:
        payload["clean"] = True
        return CommandResult("pass", payload)
    payload["clean"] = False
    payload["report"] = report.to_payload()
    return CommandResult("fail", payload)


def _gen_result(args, words: list[str], extra: dict) -> CommandResult:
    if args.limit is not None:
        if args.limit < 0:
            raise ValueError("limit must be nonnegative")
        words = words[: args.limit]
    plain = "\n".join(words) + "\n" if args.plain else None
    return CommandResult("info", {**extra, "count": len(words), "words": words}, plain)


def _cmd_gen_beta(args) -> CommandResult:
    return _gen_result(args, [beta_prefix(args.k)], {"kind": "beta", "k": args.k})


def _cmd_gen_alpha(args) -> CommandResult:
    word = alpha_prefix(args.m, args.k)
    return _gen_result(args, [word], {"kind": "alpha", "m": args.m, "k": args.k})


def _cmd_gen_zm(args) -> CommandResult:
    words = zm_enumerate(args.m, args.k, limit=args.limit)
    result = _gen_result(args, words, {"kind": "zm", "m": args.m, "k": args.k})
    return result


def _cmd_gen_z4(args) -> CommandResult:
    engine = z4_language(args.length)
    words = engine.factors(args.length)
    return _gen_result(args, words, {"kind": "z4", "length": args.length})


def _table_result(args, table) -> CommandResult:
    if args.format == "csv":
        return CommandResult("info", table.to_payload(), table_to_csv(table))
    payload = table.to_payload()
    if table.counts:
        payload["estimate"] = growth_estimate(table)
    return CommandResult("info", payload)


def _cmd_count_threshold(args) -> CommandResult:
    table = count_threshold_words(
        args.n, args.k, budget=args.budget, symmetry=args.symmetry, jobs=args.jobs
    )
    return _table_result(args, table)


def _cmd_count_zm(args) -> CommandResult:
    # the closed form; the parameters and errors are those of enumerating
    # Z_m with count_language, whose tables these are
    m, k = args.m, args.k
    if m < 1:
        raise ValueError("alphabet_size must be positive")
    if k < 0:
        raise ValueError("max_length must be nonnegative")
    if k and m < 4:
        raise ValueError("alphabet size must be at least 4")
    table = build_growth_table(
        f"zm-{m}",
        {"alphabet": m, "prefix_closed": True, "m": m},
        [zm_count(length) for length in range(1, k + 1)],
    )
    return _table_result(args, table)


def _cmd_count_z4(args) -> CommandResult:
    engine = z4_language(args.k)
    table = count_language(
        engine.is_factor, 4, args.k, prefix_closed=True, name="z4-factors"
    )
    return _table_result(args, table)


def _cmd_lower_bound(args) -> CommandResult:
    return CommandResult("info", theorem2_lower_bound(args.n, args.k))


def _cmd_verify_elimination(args) -> CommandResult:
    report = verify_short_elimination(max_length=args.max_length)
    return CommandResult(report.status, report.to_payload())


def _cmd_verify_w_set(args) -> CommandResult:
    w_set = compute_W(args.max_length, bound_filter=not args.no_bound_filter)
    hist = w_breakdown(w_set)
    payload = {
        "max_length": args.max_length,
        "bound_filter": not args.no_bound_filter,
        "count": len(w_set),
        "breakdown": _breakdown_rows(hist),
    }
    if args.witnesses:
        payload["entries"] = [r.to_payload() for r in w_set]
    if args.no_bound_filter or args.max_length != 155:
        return CommandResult("info", payload)
    expected = len(w_set) == EXPECTED_W_COUNT and hist == EXPECTED_W_BREAKDOWN
    payload["expected_count"] = EXPECTED_W_COUNT
    return CommandResult("pass" if expected else "fail", payload)


def _cmd_verify_ew(args) -> CommandResult:
    w_set = compute_W(args.max_length)
    report = verify_Ew(w_set, jobs=args.jobs)
    return CommandResult(report.status, report.to_payload())


def _cmd_verify_binary26(args) -> CommandResult:
    try:
        length, witness = binary_avoidance_longest(args.n, depth_cap=args.depth_cap)
    except RuntimeError as err:
        # the search hit the depth cap, so finiteness is not certified
        payload = {"n": args.n, "depth_cap": args.depth_cap, "error": str(err)}
        return CommandResult("fail", payload)
    payload = {"n": args.n, "length": length, "witness": witness}
    if args.n != 26:
        return CommandResult("info", payload)
    payload["expected"] = EXPECTED_BINARY26
    status = "pass" if length == EXPECTED_BINARY26 else "fail"
    return CommandResult(status, payload)


def _cmd_verify_lemma6(args) -> CommandResult:
    samples = zm_samples(args.m, args.length, args.samples, seed=args.seed)
    violations = []
    kernel_lengths: set[int] = set()
    for z in samples:
        report = check_lemma6(args.m, z)
        violations.extend(report.payload["violations"])
        kernel_lengths.update(report.payload["kernel_lengths"])
    payload = {
        "m": args.m,
        "modulus": 4 ** (args.m - 1),
        "length": args.length,
        "samples": args.samples,
        "seed": args.seed,
        "kernel_lengths": sorted(kernel_lengths),
        "violations": violations,
    }
    return CommandResult("pass" if not violations else "fail", payload)


def _cmd_verify_prop7(args) -> CommandResult:
    report = check_prop7_desk(
        args.m, args.n, length=args.length, samples=args.samples, seed=args.seed
    )
    return CommandResult(report.status, report.to_payload())


def _cmd_verify_n26(args) -> CommandResult:
    table = load_morphism_table(args.table) if args.table else None
    report = n26_stabilizing_check(table)
    return CommandResult(report.status, report.to_payload())


def _cmd_pipeline(args) -> CommandResult:
    table = load_morphism_table(args.table)
    payload = {"n": table.n, "word": args.word, "verify": args.verify}
    try:
        out = threshold_pipeline(table, args.word, verify=args.verify)
    except PipelineError as err:
        payload["stage"] = err.stage
        payload["report"] = err.report.to_payload()
        return CommandResult("fail", payload)
    payload["output"] = format_word(out)
    payload["output_length"] = len(out)
    return CommandResult("pass" if args.verify else "info", payload)


# ------------------------------------------------------------ parser


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a usage document before exiting with 2;
    subcommand parsers inherit the class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        command = self.prog.removeprefix("dejean").strip() or "dejean"
        _emit(command, CommandResult("usage", {"error": message}))
        raise SystemExit(2)


def _int_at_least(text: str, low: int, kind: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = low - 1
    if value < low:
        raise argparse.ArgumentTypeError(f"invalid {kind} int value: {text!r}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1, "positive")


def _nonnegative_int(text: str) -> int:
    return _int_at_least(text, 0, "nonnegative")


def _add_jobs(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--jobs",
        type=_positive_int,
        default=os.cpu_count() or 1,
        help="worker processes (default: all cores); never changes the output",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dejean",
        description="Workbench for words avoiding repetitions above the "
        "alphabet's repetition threshold.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rt", help="repetition threshold of an alphabet")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_rt, command_name="rt")

    p = sub.add_parser("check", help="check a word for forbidden exponents")
    p.add_argument("--r", required=True, help="exponent bound as NUM/DEN")
    p.add_argument("--strict", action="store_true", help="ban exponents > r only")
    p.add_argument("--word", required=True)
    p.add_argument("--alphabet", type=int, required=True)
    p.set_defaults(handler=_cmd_check, command_name="check")

    p = sub.add_parser("gamma", help="decode a binary word to an n-letter word")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--binary", required=True, help="word over {0,1}")
    p.set_defaults(handler=_cmd_gamma, command_name="gamma")

    p = sub.add_parser(
        "scan-pansiot", help="scan a binary code word for kernel repetitions "
        "and short stabilizing factors"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--binary", required=True)
    p.set_defaults(handler=_cmd_scan_pansiot, command_name="scan-pansiot")

    gen = sub.add_parser("gen", help="generate construction words")
    gen_sub = gen.add_subparsers(dest="subcommand", required=True)
    for kind, fn in (
        ("beta", _cmd_gen_beta),
        ("alpha", _cmd_gen_alpha),
        ("zm", _cmd_gen_zm),
        ("z4", _cmd_gen_z4),
    ):
        p = gen_sub.add_parser(kind)
        if kind in ("alpha", "zm"):
            p.add_argument("--m", type=int, required=True)
        if kind == "z4":
            p.add_argument("--length", type=int, required=True)
        else:
            p.add_argument("--k", type=int, required=True)
        p.add_argument("--limit", type=int, default=None)
        p.add_argument("--plain", action="store_true", help="print words as lines")
        p.set_defaults(handler=fn, command_name=f"gen {kind}")

    count = sub.add_parser("count", help="count languages by length")
    count_sub = count.add_subparsers(dest="subcommand", required=True)

    p = count_sub.add_parser("threshold")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--budget", type=_nonnegative_int, default=DEFAULT_BUDGET,
        help="candidate extensions examined before the table is cut; once the "
             "frontier is sharded it caps each worker, so the total can reach "
             "about jobs x budget (the table is the same)")
    p.add_argument("--symmetry", action="store_true")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_jobs(p)
    p.set_defaults(handler=_cmd_count_threshold, command_name="count threshold")

    p = count_sub.add_parser("zm")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(handler=_cmd_count_zm, command_name="count zm")

    p = count_sub.add_parser("z4")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(handler=_cmd_count_z4, command_name="count z4")

    p = sub.add_parser(
        "lower-bound", help="exponential lower bound on threshold word counts"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=_cmd_lower_bound, command_name="lower-bound")

    verify = sub.add_parser("verify", help="run a named verification")
    verify_sub = verify.add_subparsers(dest="subcommand", required=True)

    p = verify_sub.add_parser("elimination")
    p.add_argument("--max-length", type=int, default=130)
    p.set_defaults(handler=_cmd_verify_elimination, command_name="verify elimination")

    p = verify_sub.add_parser("w-set")
    p.add_argument("--max-length", type=int, default=155)
    p.add_argument("--no-bound-filter", action="store_true")
    p.add_argument("--witnesses", action="store_true", help="include all entries")
    p.set_defaults(handler=_cmd_verify_w_set, command_name="verify w-set")

    p = verify_sub.add_parser("ew")
    p.add_argument("--max-length", type=int, default=155)
    _add_jobs(p)
    p.set_defaults(handler=_cmd_verify_ew, command_name="verify ew")

    p = verify_sub.add_parser("binary26")
    p.add_argument("--n", type=int, default=26)
    p.add_argument("--depth-cap", type=int, default=64)
    p.set_defaults(handler=_cmd_verify_binary26, command_name="verify binary26")

    p = verify_sub.add_parser("lemma6")
    p.add_argument("--m", type=int, default=5)
    p.add_argument("--length", type=_positive_int, default=2048)
    p.add_argument("--samples", type=_positive_int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_verify_lemma6, command_name="verify lemma6")

    p = verify_sub.add_parser("prop7-desk")
    p.add_argument("--m", type=int, default=5)
    p.add_argument("--n", type=int, default=33)
    p.add_argument("--length", type=_positive_int, default=2048)
    p.add_argument("--samples", type=_positive_int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_verify_prop7, command_name="verify prop7-desk")

    p = verify_sub.add_parser("n26-stab")
    p.add_argument("--table", default=None, help="morphism table JSON file")
    p.set_defaults(handler=_cmd_verify_n26, command_name="verify n26-stab")

    p = sub.add_parser("pipeline", help="encode through a morphism table")
    p.add_argument("--table", required=True, help="morphism table JSON file")
    p.add_argument("--word", required=True)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(handler=_cmd_pipeline, command_name="pipeline")

    return parser


def run(argv: Optional[list[str]] = None) -> tuple[str, CommandResult]:
    args = build_parser().parse_args(argv)
    try:
        return args.command_name, args.handler(args)
    except (ValueError, OSError) as err:
        return args.command_name, CommandResult("fail", {"error": str(err)})


def _emit(command: str, result: CommandResult) -> None:
    if result.plain is not None:
        sys.stdout.write(result.plain)
    else:
        doc = {
            "schema": 1,
            "command": command,
            "status": result.status,
            "payload": result.payload,
        }
        sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def main(argv: Optional[list[str]] = None) -> int:
    command, result = run(argv)
    _emit(command, result)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
