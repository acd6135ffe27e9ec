"""Command line: typecheck, run, dump-dist and make-fixtures.

Exit status 0 on success, 1 for language or runtime failures, 2 for
usage and file-system problems.
"""

import argparse
import sys

from . import fixtures, interp
from .checker import check_program
from .errors import CheckError, MeshError, SourceError
from .parser import parse


def _load(path):
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _frontend(path):
    source = _load(path)
    try:
        program = parse(source)
        return check_program(program, source_name=path)
    except SourceError as exc:
        print(f"{path}:{exc.line}:{exc.column}: {type(exc).__name__}: {exc.reason}",
              file=sys.stderr)
        raise SystemExit(1)
    except CheckError as exc:
        for diag in exc.diagnostics:
            print(diag, file=sys.stderr)
        raise SystemExit(1)


def _parse_defines(pairs, checked):
    """The overrides of --define, each naming a top-level untyped var."""
    names = {name for name, info in checked.toplevel.items() if info.type_expr is None}
    overrides = {}
    for item in pairs or []:
        name, sep, value = item.partition("=")
        if not sep or not name:
            print(f"error: bad --define {item!r}, expected NAME=INT", file=sys.stderr)
            raise SystemExit(2)
        if name not in names:
            print(f"error: --define {name}: the program declares no top-level untyped var {name}",
                  file=sys.stderr)
            raise SystemExit(2)
        try:
            overrides[name] = int(value)
        except ValueError:
            print(f"error: --define {name} needs an integer, got {value!r}", file=sys.stderr)
            raise SystemExit(2)
    return overrides


def cmd_typecheck(args):
    _frontend(args.file)
    return 0


def cmd_run(args):
    checked = _frontend(args.file)
    result = interp.run(checked, args.procs, seed=args.scheduler_seed,
                        overrides=_parse_defines(args.define, checked))
    if args.trace:
        try:
            with open(args.trace, "w", encoding="utf-8") as fh:
                fh.write(result.trace.render())
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return 0


def _dist_text(descriptor):
    dist = descriptor.distribution
    if dist[0] == "on":
        return f"on[{dist[1]}]"
    if dist[0] == "even":
        return "evendist"
    if dist[0] == "arraydist":
        return "arraydist" + str(list(dist[1]))
    return "multiple"


def cmd_dump_dist(args):
    checked = _frontend(args.file)
    result = interp.run(checked, args.procs, layout_only=True,
                        overrides=_parse_defines(args.define, checked))
    for name, array in result.declared:
        d = array.descriptor
        shape = "x".join(str(s) for s in d.shape) if d.shape else "scalar"
        part = "none" if d.partition is None else f"{d.partition[0]}[{d.partition[1]}]"
        line = (f"{name}: {d.elem}[{shape}] ordering={d.ordering} "
                f"partition={part} distribution={_dist_text(d)}")
        if array.alias_of:
            line += f" share-of={array.alias_of}"
        print(line)
        if array.replicated:
            print(f"  replicated on all {d.nprocs} processes")
            continue
        for block in array.blocks:
            print(f"  block {block.block_id}: owner {block.owner} "
                  f"low {block.low} high {block.high}")
    return 0


def cmd_make_fixtures(args):
    try:
        written = fixtures.write_fixtures(args.dir, n=args.size, seed=args.seed)
    except MeshError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(path)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="meshlite",
                                     description="meshlite language tools")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("typecheck", help="parse and type-check a program")
    p.add_argument("file")
    p.set_defaults(fn=cmd_typecheck)

    p = sub.add_parser("run", help="run a program on simulated processes")
    p.add_argument("file")
    p.add_argument("--procs", type=int, required=True)
    p.add_argument("--trace", help="write the communication trace here")
    p.add_argument("--scheduler-seed", type=int, default=0)
    p.add_argument("--define", action="append", metavar="NAME=INT",
                   help="override a top-level untyped var initializer")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("dump-dist", help="print block placement without computing")
    p.add_argument("file")
    p.add_argument("--procs", type=int, required=True)
    p.add_argument("--define", action="append", metavar="NAME=INT")
    p.set_defaults(fn=cmd_dump_dist)

    p = sub.add_parser("make-fixtures", help="write the program corpus and its data files")
    p.add_argument("--dir", default="fixtures")
    p.add_argument("--size", type=int, default=16)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(fn=cmd_make_fixtures)

    args = parser.parse_args(argv)
    if getattr(args, "procs", 1) < 1:
        print("error: --procs must be at least 1", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except SystemExit as exc:
        return exc.code
    except MeshError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
