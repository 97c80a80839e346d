"""Command-line front end.

Subcommands: ``ladder`` (rate approximations table), ``limits`` (exact
optimal rates), ``constants`` (achievability/converse constant block),
``census`` (low-entropy string counts), ``codec encode|decode``.

Exit codes: 0 success, 1 stdout closed by its reader (as by ``| head``),
2 invalid input, 3 resource cap exceeded, 4 internal invariant violation.

Start-up is the parser alone (``argparse``, ``sys`` and ``errors``): each
handler imports the modules it runs, so ``codec`` never loads the rate
approximations, nor ``constants`` the codec stores.
"""

from __future__ import annotations

import argparse
import sys

from .errors import (
    DEFAULT_TYPE_CAP,
    CodewordError,
    DistributionError,
    DomainError,
    InvariantViolation,
    PragrateError,
    ResourceLimitError,
)

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_INVALID_INPUT = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4
_CODEC_FORMAT = "1"  # the header's fmt=: 1 is the universal code's orbit tie order


def _parse_n_range(text: str) -> range:
    """'50' -> range(50, 51); '20:100' -> 20..100; '20:100:20' -> 20,40,...,100.

    Every blocklength and the step must be integers >= 1, and the range
    must hold at least one blocklength."""
    parts = text.split(":")
    if not 1 <= len(parts) <= 3:
        raise DomainError(f"bad n range {text!r}; use N, LO:HI or LO:HI:STEP")
    try:
        bounds = [int(x) for x in parts]
    except ValueError as exc:
        raise DomainError(f"bad n range {text!r}: {exc}") from exc
    if min(bounds) < 1:
        raise DomainError(f"bad n range {text!r}: blocklengths and step must be >= 1")
    lo = bounds[0]
    hi = bounds[1] if len(bounds) > 1 else lo
    step = bounds[2] if len(bounds) > 2 else 1
    ns = range(lo, hi + 1, step)
    if not ns:
        raise DomainError("empty n range")
    return ns


def _cap_types(text: str) -> int:
    """``--cap-types``: an integer >= 1, from the command line or a config."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {value}")
    return value


def _parse_float_list(text: str) -> list[float]:
    """A comma-separated list's values (none for only commas); no entry may be empty."""
    if not text.replace(",", "").strip():
        return []
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise DomainError(f"bad numeric list {text!r}: {exc}") from exc


def _apply_config(argv: list[str] | None) -> argparse.Namespace:
    """Re-parse ``argv`` with the --config file's values as the subcommand's
    defaults: they beat argparse defaults, and explicit flags beat both.
    Unknown keys and values outside an option's choices are refused.  The
    defaults go on a parser built for this call; the shared one never changes."""
    import json
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:  # a decode error, or an integer past int's digit limit
        raise DomainError(f"cannot read config file {args.config!r}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise DomainError("config file must hold a JSON object")
    actions = {a.dest: a for a in args.subparser._actions if a.dest not in ("help", "config")}
    for key, value in cfg.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise DomainError(f"unknown config key {key!r}")
        if action.choices is not None and value not in action.choices:
            raise DomainError(f"config key {key!r}: {value!r} is not one of {list(action.choices)}")
        if action.nargs == 0:  # a flag (store_true) takes only a JSON bool
            if not isinstance(value, bool):
                raise DomainError(f"config key {key!r}: {value!r} is not true or false")
            action.default = value
        else:  # argparse converts and checks a string default like a command-line value
            action.default = str(value)
    return parser.parse_args(argv)


def _read_input(path: str) -> str:
    """The codec's input text: the file at ``path``, or stdin for '-'."""
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read input file {path!r}: {exc}") from exc


def _load_source(args: argparse.Namespace) -> SourcePmf:
    from .distributions import SourcePmf
    if not getattr(args, "source", None):
        raise DomainError("--source is required for this subcommand")
    return SourcePmf.load(str(args.source))


def _parse_eps_or_delta(args: argparse.Namespace) -> tuple[list[float] | None, list[float] | None]:
    """(epsilons, deltas) from exactly one of --eps and --delta; the other
    is None.  A bad value, named as typed, or a list with none, is refused
    here, before any type is enumerated."""
    if bool(args.eps) == bool(args.delta):
        raise DomainError("provide exactly one of --eps or --delta")
    flag, text = ("--delta", args.delta) if args.delta else ("--eps", args.eps)
    values = _parse_float_list(text)
    if not values:
        raise DomainError(f"{flag} {text!r} holds no values")
    for token, value in zip(text.split(","), values):
        if not 0.0 < value < (float("inf") if args.delta else 1.0):
            need = "be a positive finite exponent" if args.delta else "lie in (0, 1)"
            if value == 0.0:  # typed as zero, or too small for a double
                need += "; it is 0.0 as a double"
                need += "" if args.delta else ", so give its exponent with --delta"
            raise DomainError(f"{flag} entry {token!r} must {need}")
    return (None, values) if args.delta else (values, None)


# the ladder's columns in table order; every format reads this one tuple
_LADDER_COLUMNS = ("n", "epsilon", "delta", "exact", "shannon", "strassen", "blahut", "pragmatic")
# Markdown shows a table's inputs as given and every other cell to 3 decimals
_MARKDOWN_SPEC = {"n": "d", "epsilon": "g", "delta": "g"}


def _write_table(columns: tuple[str, ...], rows: Iterable[tuple], fmt: str = "csv") -> None:
    """Write a table to stdout row by row, as ``rows`` yields them.  A row
    is a tuple of its cells in ``columns`` order, at full precision and
    None where a value is unavailable, then its note ('' for none).

    CSV (the default) holds each cell's repr, '-' for None; Markdown rounds
    for display (``_MARKDOWN_SPEC``); JSON is an array of flat objects, each
    with its row's note under ``note``, in the bytes of ``json.dumps`` of the
    whole array at ``indent=2``.  The first row is pulled before the writer
    holds anything or writes a byte, so a table whose first row fails
    writes nothing.  Every nonempty note is held, and goes to stderr as a
    ``note:`` line after the table."""
    from itertools import chain
    rows = iter(rows)
    first = next(rows, None)
    if fmt == "csv":
        # one template per table, whose "%.0s" takes the note and prints nothing;
        # no column name, nor repr of an int or float, holds "None"
        line = ",".join(["%r"] * len(columns)) + "\n%.0s"
        head = empty = ",".join(columns) + "\n"
        sep = tail = ""

        def render(row: tuple) -> str:
            return (line % row).replace("None", "-")
    elif fmt == "markdown":
        specs = [_MARKDOWN_SPEC.get(column, ".3f") for column in columns]
        head = empty = "| " + " | ".join(columns) + " |\n" + "|---" * len(columns) + "|\n"
        sep = tail = ""

        def render(row: tuple) -> str:  # zip stops at the last column, before the note
            cells = ["-" if v is None else format(v, spec) for v, spec in zip(row, specs)]
            return "| " + " | ".join(cells) + " |\n"
    else:
        import json
        keys = (*columns, "note")
        # a row's members, one a line, four spaces in, as the whole array's dump
        # at indent=2 writes them; the C encoder, as indent=None, leaves no garbage
        members = json.JSONEncoder(separators=(",\n    ", ": ")).encode
        head, sep, tail, empty = "[\n  {\n    ", "\n  },\n  {\n    ", "\n  }\n]\n", "[]\n"

        def render(row: tuple) -> str:
            return members(dict(zip(keys, row)))[1:-1]  # the members, without the braces
    write, notes = sys.stdout.write, []
    if first is None:
        write(empty)
        return
    lead = head
    for row in chain((first,), rows):
        write(lead + render(row))
        lead = sep
        if row[-1]:
            notes.append(row[-1])
    write(tail)
    for note in notes:
        sys.stderr.write(f"note: {note}\n")


def _cmd_ladder(args: argparse.Namespace) -> int:
    from dataclasses import fields
    from operator import itemgetter
    from . import approximations as ap
    p = _load_source(args)
    epsilons, deltas = _parse_eps_or_delta(args)
    rows = ap._rate_ladders(  # one sweep over the whole range: alpha* once per delta
        p, _parse_n_range(str(args.n)), epsilons, deltas=deltas, include_exact=not args.no_exact,
        cap_types=args.cap_types, prefix_mode=(args.mode == "prefix"),
    )
    order = [field.name for field in fields(ap.RateLadder)]  # the order of a row's entries
    cells = itemgetter(*map(order.index, (*_LADDER_COLUMNS, "note")))
    _write_table(_LADDER_COLUMNS, map(cells, rows), args.format)
    return EXIT_OK


def _cmd_limits(args: argparse.Namespace) -> int:
    import math
    from . import exact_limits as el
    p = _load_source(args)
    epsilons, deltas = _parse_eps_or_delta(args)
    ns = _parse_n_range(str(args.n))
    # a delta is read at log2(epsilon) = -n*delta: no float epsilon, so no underflow
    if deltas is None:
        column, values, log2_eps = "epsilon", epsilons, lambda n, eps: math.log2(eps)
    else:
        column, values, log2_eps = "delta", deltas, lambda n, delta: -n * delta
    rows = []
    for n in ns:
        dist = el.length_distribution(p, n, cap_types=args.cap_types)
        for value in values:
            rate = dist.optimal_rate(log2_eps(n, value))
            rows.append((n, value, round(rate * n) + 1, rate, ""))  # L* = n*rate + 1
    _write_table(("n", column, "L_star", "rate"), rows)
    return EXIT_OK


def _cmd_constants(args: argparse.Namespace) -> int:
    import json
    from . import approximations as ap
    p = _load_source(args)
    cc = ap.converse_constants(p, float(args.delta))
    payload = cc.to_dict()
    payload["pragmatic_correction_note"] = (
        "achievability holds for all n >= 1; converse for n > N0"
    )
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def _cmd_census(args: argparse.Namespace) -> int:
    import math
    from . import types_census as tc
    from .distributions import SourcePmf, entropy
    if (args.threshold_bits is None) == (args.threshold_source is None):
        raise DomainError("provide exactly one of --threshold-bits or --threshold-source")
    if args.threshold_bits is not None:
        h, m = float(args.threshold_bits), args.m
        if m is None:
            raise DomainError("--m is required with --threshold-bits")
    else:
        q = SourcePmf.load(args.threshold_source)
        h = entropy(q)
        m = args.m if args.m is not None else q.m
    if m < 2:
        raise DomainError(f"--m must be >= 2, got {m}")
    ns = _parse_n_range(str(args.n))
    tc._check_m(m)  # past the alphabet cap the call is refused, not truncated
    rows = []
    for n in ns:
        try:
            tc._check_walk_cap(n, m, args.cap_types, per_orbit=1)
        except ResourceLimitError:
            sys.stderr.write(f"warning: n={n} exceeds type cap; sweep truncated\n")
            break
        if args.slab:
            rows.append((n, h, tc.entropy_slab_count(n, m, h), ""))
        else:
            rep = tc.low_entropy_count(n, m, h)
            log2c = math.log2(rep.count) if rep.count else float("-inf")
            theta, note = rep.theta_ratio, ""
            if theta < sys.float_info.min:  # subnormal or zero: an underflow, not a measurement
                theta, note = None, (f"n={n}: theta_ratio is below 2^-1022; its normalisation "
                                     f"n^((m-3)/2) 2^(nh) is an n -> inf asymptotic at fixed m")
            rows.append((n, h, log2c, theta, note))
    counts = ("slab_type_count",) if args.slab else ("log2_count", "theta_ratio")
    _write_table(("n", "threshold_bits", *counts), rows)
    return EXIT_OK


def _check_alphabet(alphabet: str | None) -> str:
    if not alphabet:
        raise DomainError("--alphabet is required (e.g. --alphabet ab)")
    if len(set(alphabet)) != len(alphabet) or len(alphabet) < 2:
        raise DomainError("alphabet must be >= 2 distinct symbols")
    if any(ch.isspace() for ch in alphabet):
        # the codeword header is split on whitespace
        raise DomainError(f"alphabet {alphabet!r} holds whitespace, which the header cannot carry")
    return alphabet


def _codec_source(args: argparse.Namespace, m: int) -> SourcePmf | None:
    """The known-source codec's pmf, checked against the alphabet size;
    None in universal mode, which ignores any --source."""
    if args.mode != "known":
        return None
    source = _load_source(args)
    if source.m != m:
        raise DomainError("source pmf size must match alphabet length")
    return source


def _source_digest(source: SourcePmf) -> str:
    """The known-source header's ``src=`` field: the first 16 hex digits of
    sha256(repr(source.probs)).  The same pmf given inline, as JSON or in a
    file has the same floats, hence the same digest."""
    import hashlib  # only the known-source codec needs it
    return hashlib.sha256(repr(source.probs).encode()).hexdigest()[:16]


def _build_cli_ordering(
    args: argparse.Namespace, m: int, source: SourcePmf | None
) -> coding.CodeOrdering:
    from . import coding
    mode = coding.KNOWN_SOURCE if source is not None else coding.UNIVERSAL
    return coding.build_ordering(mode, args.n, m, source, cap_types=args.cap_types)


class _SymbolTable(dict):
    """``str.translate``'s table from each alphabet character to the
    character whose code point is its index; a character outside the
    alphabet, the first of a line, is refused as the translation meets it."""

    def __init__(self, alphabet: str) -> None:
        super().__init__(zip(map(ord, alphabet), range(len(alphabet))))
        self.alphabet = alphabet

    def __missing__(self, code: int) -> int:
        raise DomainError(f"symbol {chr(code)!r} not in alphabet {self.alphabet!r}")


def _cmd_codec_encode(args: argparse.Namespace) -> int:
    from array import array
    from . import coding, types_census as tc
    alphabet = _check_alphabet(args.alphabet)
    source = _codec_source(args, len(alphabet))
    lines = [ln for ln in map(str.strip, _read_input(args.infile).splitlines()) if ln]
    ordering = _build_cli_ordering(args, len(alphabet), source)
    header = f"# mode={args.mode} m={len(alphabet)} n={args.n} alphabet={alphabet}"
    if source is not None:
        header += f" src={_source_digest(source)}"
    out = [header + f" fmt={_CODEC_FORMAT}"]
    table = _SymbolTable(alphabet)
    for line in lines:
        if len(line) != args.n:
            raise DomainError(f"string {line!r} is not of length n={args.n}")
        indices = line.translate(table)
        # one byte per symbol up to 256 symbols, else two (ALPHABET_CAP < 2**16)
        x = indices.encode("latin-1") if len(alphabet) <= 256 else array("H", map(ord, indices))
        cw = coding.encode(ordering, x)
        if args.audit:
            h_emp = tc.type_entropy_bits(list(map(x.count, range(len(alphabet)))))
            out.append(f"{cw.bits} # len={cw.length} emp_entropy={h_emp!r}")
        else:
            out.append(cw.bits)
    sys.stdout.write("\n".join(out) + "\n")
    return EXIT_OK


def _parse_codec_header(line: str) -> tuple[str, int, int, str, str | None]:
    """(mode, m, n, alphabet, src) from an encoder's ``# mode=... m=...
    n=... alphabet=... [src=...] fmt=1`` line; a missing or bad field is
    refused.  ``src`` is the source digest of a known-source stream, or None
    when the header has no ``src=`` field.  A format other than
    ``_CODEC_FORMAT`` is refused, and so is a universal header with no
    ``fmt=``: it predates the orbit tie order.  A known-source header with
    no ``fmt=`` decodes, since that order never changed."""
    header = dict(tok.split("=", 1) for tok in line.lstrip("# ").split() if "=" in tok)
    try:
        mode, m, n, alphabet = (header[key] for key in ("mode", "m", "n", "alphabet"))
    except KeyError as exc:
        raise DomainError(f"codeword header missing field {exc}") from exc
    if mode not in ("known", "universal"):
        raise DomainError(f"codeword header: mode must be 'known' or 'universal', got {mode!r}")
    try:
        m, n = int(m), int(n)
    except ValueError as exc:
        raise DomainError(f"codeword header: bad m or n: {exc}") from exc
    if len(alphabet) != m:
        raise DomainError(f"codeword header: alphabet {alphabet!r} does not have m={m} symbols")
    alphabet, fmt = _check_alphabet(alphabet), header.get("fmt")
    if fmt is None and mode == "universal":
        raise DomainError("codeword header: a universal stream with no fmt= field was written under an "
                          f"earlier tie order; re-encode it (this version writes fmt={_CODEC_FORMAT})")
    if fmt not in (None, _CODEC_FORMAT):
        raise DomainError(f"codeword header: unknown format fmt={fmt!r}; this version reads fmt={_CODEC_FORMAT}")
    return mode, m, n, alphabet, header.get("src")


def _check_source_digest(src: str | None, source: SourcePmf) -> None:
    """Refuse to decode a known-source stream under a pmf other than the one
    it was encoded with; a header without ``src=`` decodes unchecked, with
    a warning."""
    digest = _source_digest(source)
    if src is None:
        sys.stderr.write("warning: codeword header has no src= digest; the --source pmf is unchecked\n")
    elif src != digest:
        raise DomainError(
            f"codeword stream was encoded under source src={src}, "
            f"but --source has src={digest}"
        )


def _cmd_codec_decode(args: argparse.Namespace) -> int:
    from . import coding
    lines = [ln.rstrip("\n") for ln in _read_input(args.infile).splitlines()]
    if not lines or not lines[0].startswith("#"):
        raise DomainError("codeword stream must start with its '# mode=...' header")
    mode, m, n, alphabet, src = _parse_codec_header(lines[0])
    args.mode, args.n = mode, n
    source = _codec_source(args, m)
    if source is not None:
        _check_source_digest(src, source)
    ordering = _build_cli_ordering(args, m, source)
    out = []
    # Every line after the header is one codeword; an empty line is the
    # legitimate empty codeword (index 1), so blank lines are not skipped.
    for line in lines[1:]:
        bits = line.split("#", 1)[0].strip()
        x = coding.decode(ordering, coding.Codeword(bits))
        # symbol i is code point i, and the alphabet, indexed by it, its character
        indices = bytes(x).decode("latin-1") if m <= 256 else "".join(map(chr, x))
        out.append(indices.translate(alphabet) + "\n")
    sys.stdout.write("".join(out))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pragrate",
        description=(
            "Fundamental limits of variable-rate lossless compression at "
            "exponentially small excess-rate probability"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, source=True, cap_types=True):
        sp.set_defaults(subparser=sp)
        sp.add_argument("--config", help="JSON config file supplying defaults")
        if cap_types:
            sp.add_argument("--cap-types", type=_cap_types, default=DEFAULT_TYPE_CAP)
        if source:
            sp.add_argument("--source", help="pmf: inline '0.2,0.8', JSON, or a file path")

    ladder = sub.add_parser("ladder", help="rate approximation table")
    common(ladder)
    ladder.add_argument("--n", required=True, help="blocklength or LO:HI[:STEP]")
    ladder.add_argument("--eps", help="comma-separated excess-rate probabilities")
    ladder.add_argument("--delta", help="comma-separated exponents (bits)")
    ladder.add_argument("--mode", choices=["one-to-one", "prefix"], default="one-to-one")
    ladder.add_argument("--format", choices=["csv", "markdown", "json"], default="csv")
    ladder.add_argument("--no-exact", action="store_true", help="skip the exact column")
    ladder.set_defaults(func=_cmd_ladder)

    limits = sub.add_parser("limits", help="exact optimal rates")
    common(limits)
    limits.add_argument("--n", required=True)
    limits.add_argument("--eps", help="comma-separated excess-rate probabilities")
    limits.add_argument("--delta", help="comma-separated exponents (bits)")
    limits.set_defaults(func=_cmd_limits)

    constants = sub.add_parser("constants", help="achievability/converse constants")
    common(constants, cap_types=False)  # the envelope enumerates no types
    constants.add_argument("--delta", required=True, type=float)
    constants.set_defaults(func=_cmd_constants)

    census = sub.add_parser("census", help="low-empirical-entropy census sweep")
    common(census, source=False)
    census.add_argument("--m", type=int, help="alphabet size")
    census.add_argument("--n", required=True, help="blocklength range LO:HI[:STEP]")
    census.add_argument("--threshold-bits", type=float)
    census.add_argument("--threshold-source", help="pmf whose entropy is the threshold")
    census.add_argument("--slab", action="store_true", help="count types in [h-1/n, h] instead")
    census.set_defaults(func=_cmd_census)

    codec = sub.add_parser("codec", help="encode/decode fixed-length strings")
    codec_sub = codec.add_subparsers(dest="codec_op", required=True)
    enc = codec_sub.add_parser("encode")
    common(enc)
    enc.add_argument("--mode", choices=["known", "universal"], default="universal")
    enc.add_argument("--alphabet", required=True, help="symbol order, e.g. 'ab'")
    enc.add_argument("--n", required=True, type=int)
    enc.add_argument("--audit", action="store_true", help="emit lengths and empirical entropies")
    enc.add_argument("infile", nargs="?", default="-", help="input path, '-' for stdin")
    enc.set_defaults(func=_cmd_codec_encode)
    dec = codec_sub.add_parser("decode")
    common(dec)
    dec.add_argument("infile", nargs="?", default="-", help="input path, '-' for stdin")
    dec.set_defaults(func=_cmd_codec_decode)

    return parser


_PARSER: argparse.ArgumentParser | None = None


def _shared_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use and never mutated:
    building one costs far more than a parse, and leaves reference cycles."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    return _PARSER


def main(argv: list[str] | None = None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        if args.config:
            args = _apply_config(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at the interpreter's exit
        return code
    except BrokenPipeError:
        # the reader closed stdout (as ``| head`` does): as the signal module's
        # docs advise for SIGPIPE, point stdout at devnull, so that the
        # interpreter's last flush of what the buffer still holds raises nothing
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (DistributionError, DomainError, CodewordError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID_INPUT
    except ResourceLimitError as exc:
        sys.stderr.write(f"resource limit: {exc}\n")
        return EXIT_RESOURCE
    except InvariantViolation as exc:
        sys.stderr.write(f"internal invariant violation: {exc}\n")
        return EXIT_INTERNAL
    except PragrateError as exc:  # pragma: no cover - safety net
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
