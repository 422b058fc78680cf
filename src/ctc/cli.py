"""Command-line runner: load bundled or local data files, run checks,
emit reports whose JSON form is byte-identical across runs and -j levels."""

from __future__ import annotations

import os
import re
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from . import DataFile, Error
from .algebra import (
    algebra_dim_with_twist,
    check_algebra,
    compute_index,
    frobenius_identity_check,
    load_algebra,
)
from .category import (
    load_category,
    verify_hexagon,
    verify_pentagon,
    verify_triangle,
    verify_zigzag,
)
from .fields import scalar_literal
from .ledger import load_ledger, solution_report
from .modules import category_match, check_module, condense, is_local, load_module, run_suite_manifest
from .report import Report


def _naturality(spec) -> Report:
    """Naturality of the braiding and the associator.  A morphism is one
    matrix per label, acting on the copies of that label.  Both maps act
    on channel labels only, through R and F, and on copies as the
    identity, so they commute with every morphism for any data, and the
    report is empty."""
    return Report()


def _prefixed(out: Report, prefix: str, report: Report) -> None:
    """Append every item of ``report`` to ``out`` as ``prefix/check``, dropping ``elapsed``."""
    for item in report.items:
        out.append("%s/%s" % (prefix, item.check), item.status, witness=item.witness)


def _staged(stem: str, stages, target) -> Report:
    """The items of each ``(name, stage)`` of ``stages`` run on ``target``,
    in order, as ``stem/check``; each stage's time goes on its first item.
    A ``ctc.Error`` in a stage is one ``stem/name`` error item and ends
    the input, and the items already emitted stay."""
    out = Report()
    for name, stage in stages:
        start, first = time.perf_counter(), len(out.items)
        try:
            _prefixed(out, stem, stage(target))
        except Error as exc:
            out.refuse("%s/%s" % (stem, name), exc)
            break
        finally:
            if len(out.items) > first:
                out.items[first].elapsed = time.perf_counter() - start
    return out


def _swept(name: str, sweep):
    """A check-category stage: the sweep's report, or one ``name`` pass
    line when it is clean."""

    def stage(spec) -> Report:
        report = sweep(spec)
        if report.ok:
            report = Report()
            report.append(name, "pass")
        return report

    return name, stage


_SWEEPS = (
    _swept("pentagon", verify_pentagon),
    _swept("hexagon", verify_hexagon),
    _swept("triangle", verify_triangle),
    _swept("zigzag", verify_zigzag),
    _swept("naturality-probe", _naturality),
)


def _run_check_category(path: Path) -> Report:
    return _staged(path.stem, _SWEEPS, load_category(path))


def _index_report(alg) -> Report:
    """The index and the twisted loop of ``alg`` as passing items."""
    out = Report()
    out.append("index", "pass", witness=scalar_literal(compute_index(alg)))
    out.append("twisted-dim", "pass", witness=scalar_literal(algebra_dim_with_twist(alg)))
    return out


def _run_check_algebra(path: Path) -> Report:
    # the Frobenius identities solve the kit; the index reads it
    stages = (("axioms", check_algebra), ("frobenius", frobenius_identity_check), ("index", _index_report))
    return _staged(path.stem, stages, load_algebra(path))


def _locality(mod) -> Report:
    out = Report()
    out.append("is-local", "pass", witness=is_local(mod)[0])
    return out


def _run_check_module(path: Path) -> Report:
    return _staged(path.stem, (("module", check_module), ("is-local", _locality)), load_module(path))


def _run_condense(category_path: Path, algebra_path: Path) -> Report:
    spec = load_category(category_path)
    stages = (
        ("category-match", lambda alg: category_match(alg, spec)),
        ("index", _index_report),
        ("condense", lambda alg: condense(alg).to_report()),
    )
    return _staged(algebra_path.stem, stages, load_algebra(algebra_path))


def _run_suite(path: Path) -> Report:
    raw, name, folder = DataFile("suites", path).read()
    out = Report()
    _prefixed(out, name, run_suite_manifest(raw, folder))
    return out


# every command: the kind of data file its inputs name, and its runner
_COMMANDS = {
    "check-category": ("categories", _run_check_category),
    "check-algebra": ("algebras", _run_check_algebra),
    "check-module": ("modules", _run_check_module),
    "condense": ("categories", _run_condense),
    "suite": ("suites", _run_suite),
    "ledger": ("ledger", lambda path: solution_report(load_ledger(path))),
}


def _job(command: str, arg: str, algebra: str | None) -> Report:
    """The report of one input.  When no item carries a time, the first
    carries the input's elapsed time (text reports only)."""
    start = time.perf_counter()
    report = _run(command, arg, algebra)
    if report.items and not any(item.elapsed for item in report.items):
        report.items[0].elapsed = time.perf_counter() - start
    return report


def _run(command: str, arg: str, algebra: str | None) -> Report:
    kind, runner = _COMMANDS[command]
    try:
        path = Path(DataFile(kind, arg).path)
        if command == "condense":
            return runner(path, Path(DataFile("algebras", algebra).path))
        return runner(path)
    except Error as exc:
        # the command's own files cannot be found or loaded: one item, the batch goes on
        bad = Report()
        bad.refuse("load:%s" % arg, exc)
        return bad


_USAGE = """\
usage: ctc [-h] [--algebra ALGEBRA] [--report {text,json}] [--jobs JOBS]
           [--seed SEED]
           {check-algebra,check-category,check-module,condense,ledger,suite}
           inputs [inputs ...]
"""

_HELP = _USAGE + """
exact checks for braided categories, algebra objects, and their modules

positional arguments:
  {check-algebra,check-category,check-module,condense,ledger,suite}
                        what to run; file arguments may be paths or bundled
                        names
  inputs                input files or bundled names

options:
  -h, --help            show this help message and exit
  --algebra ALGEBRA     algebra file for condense
  --report {text,json}
  --jobs JOBS
  --seed SEED           ignored: no check draws random data
"""

# every option and the key its value is stored under; --help takes none
_OPTIONS = {
    "-h": None,
    "--help": None,
    "--algebra": "algebra",
    "--report": "report",
    "--jobs": "jobs",
    "--seed": "seed",
}
_CHOICES = {"command": sorted(_COMMANDS), "report": ("text", "json")}
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _fail(message: str):
    """Exit as argparse does on a bad argv: the usage, one error line, status 2."""
    sys.stderr.write("%sctc: error: %s\n" % (_USAGE, message))
    raise SystemExit(2)


def _value(key: str, strings: list):
    """The value of one argument from its tokens: the first "--" among them
    is dropped, and a single-valued argument with one token left is that
    token converted, else the list of converted tokens."""
    if "--" in strings:
        strings.remove("--")
    name, values = key if key in ("command", "inputs") else "--" + key, []
    for string in strings:
        if key in ("jobs", "seed"):
            try:
                string = int(string)
            except ValueError:
                _fail("argument %s: invalid int value: %r" % (name, string))
        elif key in _CHOICES and string not in _CHOICES[key]:
            choices = ", ".join(map(repr, _CHOICES[key]))
            _fail("argument %s: invalid choice: %r (choose from %s)" % (name, string, choices))
        values.append(string)
    return values[0] if len(values) == 1 and key != "inputs" else values


def _option(arg: str):
    """What a token before "--" is: None for a positional, else the option
    it names (None if unknown) and its value after "=" (None if absent).
    A unique prefix of a long option names it; a token that reads as a
    negative number or holds a space is a positional."""
    if not arg.startswith("-"):
        return None
    if arg in _OPTIONS:
        return arg, None
    if len(arg) == 1:
        return None
    prefix, eq, explicit = arg.partition("=")
    if eq and prefix in _OPTIONS:
        return prefix, explicit
    if arg[1] == "-":
        matches = [option for option in _OPTIONS if option.startswith(prefix)]
        if len(matches) > 1:
            _fail("ambiguous option: %s could match %s" % (arg, ", ".join(matches)))
        if matches:
            return matches[0], explicit if eq else None
    elif arg.startswith("-h"):
        return "-h", arg[2:]
    if _NEGATIVE.match(arg) or " " in arg:
        return None
    return None, None


def parse_args(argv: list) -> SimpleNamespace:
    """The command, inputs and options of ``argv``, read as argparse read
    them when the CLI was built on it: options before, between or after
    the positionals, the inputs one run of positionals, ``--name=value``
    and unique prefixes, the last of a repeated option wins.  ``-h``
    prints the help and exits 0; a bad argv prints the usage and one
    ``ctc: error:`` line to stderr and exits 2."""
    end = argv.index("--") if "--" in argv else len(argv)
    options = {}
    for i, arg in enumerate(argv[:end]):
        option = _option(arg)
        if option is not None:
            options[i] = option
    args = {"algebra": None, "report": "text", "jobs": 1, "seed": 0}
    wanted, extras, i = ["command", "inputs"], [], 0
    while i < len(argv):
        if i not in options:
            # a run of positionals up to the next option: the command takes
            # its first token, the inputs the rest of the run; the "--" at
            # ``end`` goes with the token before it, or else after it
            stop = min((j for j in options if j > i), default=len(argv))
            first = i + (i == end)
            if not wanted or first == stop:
                extras += argv[i:stop]
            else:
                if wanted[0] == "command":
                    split = first + 1 + (first + 1 == end)
                    args[wanted.pop(0)] = _value("command", argv[i:split])
                    i = split
                if i < stop:
                    args[wanted.pop(0)] = _value("inputs", argv[i:stop])
            i = stop
            continue
        option, value = options[i]
        key = _OPTIONS.get(option)
        i += 1
        if option is None:
            extras.append(argv[i - 1])
        elif key is None:
            # -hh is two help flags; any other value after --help, -h= or -h is an error
            rest = value if option == "--help" else (value or "").lstrip("h")
            if rest or value == "":
                _fail("argument -h/--help: ignored explicit argument %r" % rest)
            sys.stdout.write(_HELP)
            raise SystemExit(0)
        else:
            if value is None:
                if i == len(argv) or i in options or i == end:
                    _fail("argument %s: expected one argument" % option)
                value, i = argv[i], i + 1
            args[key] = _value(key, [value])
    if wanted:
        _fail("the following arguments are required: %s" % ", ".join(wanted))
    if extras:
        _fail("unrecognized arguments: %s" % " ".join(extras))
    return SimpleNamespace(**args)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
    # parse_args keeps argparse's rule that drops the first "--" among an
    # argument's tokens, so "--jobs=--" leaves a list and "-- --" no input
    for key in ("algebra", "report", "jobs"):
        if isinstance(getattr(args, key), list):
            _fail("argument --%s: expected one argument" % key)
    if not args.inputs:
        _fail("the following arguments are required: inputs")
    if args.jobs < 1:
        _fail("--jobs must be at least 1")
    if args.command == "condense" and args.algebra is None:
        _fail("condense needs --algebra")
    jobs = [(args.command, arg, args.algebra) for arg in args.inputs]
    if args.jobs == 1 or len(jobs) == 1:
        partials = [_job(*j) for j in jobs]
    else:
        # imported here: the pool pulls in threading and logging, which a
        # serial run never needs
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            partials = list(pool.map(lambda j: _job(*j), jobs))
    report = Report()
    for part in partials:
        report.extend(part)
    try:
        if args.report == "json":
            sys.stdout.buffer.write(report.to_json_bytes())
            sys.stdout.buffer.write(b"\n")
        else:
            print(report.to_text())
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed early; send what is left to devnull so the
        # interpreter's flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
