"""Mutation gate: each listed mutant of a fast path must fail its tests.

A mutant is (name, file under src/meshlite, an exact fragment of that
file, its replacement, the pytest arguments of the tests that must fail).
For each, the script copies src/ into a temporary directory, puts the
replacement in place of the fragment there, and runs the tests against
the copy (PYTHONPATH set to it). A mutant is killed when its tests fail.
The script exits 1 when a mutant survives, when its tests cannot run, or
when a fragment no longer occurs exactly once in the source, so that a
refactor updates this list instead of silently losing a mutant. It
assumes the unmutated tests pass (the tier-1 step).

    python tests/mutants.py            # every mutant
    python tests/mutants.py --check    # only that every fragment matches
    python tests/mutants.py gather     # the mutants whose name holds "gather"

A change that adds a fast path adds at least one mutant of it here.
"""

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

GATHERED = ["tests/test_compiler.py", "-k", "gathered_loops_match"]
HOT_FAULTS = ["tests/test_compiler.py", "-k", "hot_loop_faults"]
RUN_ONCE = ["tests/test_compiler.py", "-k",
            "run_once_match or other_types_or_signs or loops_in_proc_and_function_bodies "
            "or reaches_deeper"]
LEXER = ["tests/test_lexer.py"]
COPY = ["tests/test_redistribution.py", "-k",
        "copy_matches or replicated_source_is_read or copies_as_the_per_segment"]

MUTANTS = [
    # the generated path of hot loops (compiler.generate)
    ("generated: no write-back on a fault", "compiler.py",
     "            if name in held:\n",
     "            if False:\n",
     HOT_FAULTS),
    ("generated: X[v] read at v - low off by one", "compiler.py",
     'return f"buf[{self.local(self.v)} - low]"',
     'return f"buf[{self.local(self.v)} - low + 1]"',
     GATHERED),
    ("generated: reads counted per iteration, not per statement", "compiler.py",
     '            self.line(text + (f"; g += {self.reads}" if self.reads else ""), pad, '
     '(s, fn, level))\n',
     "            self.pending = getattr(self, 'pending', 0) + self.reads; self.line(text + "
     "(f'; g += {self.pending}' if s is pairs[-1][0] and self.pending else ''), pad, "
     "(s, fn, level)); self.pending = 0 if s is pairs[-1][0] else self.pending\n",
     HOT_FAULTS),
    ("generated: ctx.stmt not set at the end", "compiler.py",
     'tail.append(f"ctx.stmt = {src.last(stmts)}")',
     'tail.append("pass")',
     ["tests/test_compiler.py", "-k", "hot_loop_ends_where"]),
    ("generated: a call frame binding two names to one Local generated too", "compiler.py",
     "frame is ctx.top or len({id(frame[s]) for s in facts.locals})",
     "True or len({id(frame[s]) for s in facts.locals})",
     ["tests/test_compiler.py", "-k", "loops_in_proc_and_function_bodies"]),
    ("generated: a nested loop past MAX_DEPTH generated too", "compiler.py",
     "if code and ctx.depth + code.nest <= MAX_DEPTH and (",
     "if code and (",
     HOT_FAULTS),
    # gathered reads and the one loop path, on the closures
    ("gathered: gets recorded only when no iteration faults (no finally)", "compiler.py",
     "                finally:  # a remote run's gets: one record, even when an iteration faults\n",
     "                except GeneratorExit:\n                    raise\n                else:\n",
     GATHERED),
    ("gathered: a run's gets counted per iteration, not per read", "compiler.py",
     "ctx.get(array, block, repeat=window[2])",
     "ctx.get(array, block, repeat=len(indices))",
     GATHERED),
    ("gathered: no piece below 0", "compiler.py",
     "    yield None, range(lo, min(hi, -1) + 1)\n",
     "",
     GATHERED),
    ("gathered: an X in slot 0 taken for owner computes", "compiler.py",
     "None if gather is not None else ctx.rank",
     "None if gather else ctx.rank",
     GATHERED),
    ("one loop path: the variable set to hi after every loop", "compiler.py",
     "            if blockwise is not None:  # a plain loop's body may store its variable\n",
     "            if True:\n",
     ["tests/test_compiler.py", "-k", "compiled_matches_the_ast_walk_and_python"]),
    ("one loop path: the window opened by the truth of X's slot", "compiler.py",
     "opened = gather is not None and block is not None",
     "opened = gather and block is not None",
     ["tests/test_compiler.py", "-k", "gathered_loops_read_blocks_not_elements"]),
    # run-once loops (interp.ProcessContext.run_once)
    ("run-once: snapshots compared by == on their values, not by marshal bytes", "interp.py",
     "            inputs = marshal.dumps(\n"
     "                (self.depth, aliases, [c.value for c in cells], replicas), 2)\n",
     "            inputs = (self.depth, aliases, [c.value for c in cells], "
     "[list(r) for r in replicas])\n",
     RUN_ONCE),
    ("run-once: no alias check", "interp.py",
     "if len(set(map(id, objects))) < len(objects):",
     "if False:",
     RUN_ONCE),
    ("run-once: the depth not in the snapshot", "interp.py",
     "(self.depth, aliases, [c.value for c in cells], replicas)",
     "(aliases, [c.value for c in cells], replicas)",
     RUN_ONCE),
    # the tokenizer's line-at-a-time scan (lexer.tokenize)
    ("lexer: a column off by one", "lexer.py",
     "            column = start + 1\n",
     "            column = start\n",
     LEXER),
    ("lexer: a carriage return not skipped", "lexer.py",
     r'_SKIP = r"[ \t\r]*+',
     r'_SKIP = r"[ \t]*+',
     LEXER),
    ("lexer: the end marker's column the line's length", "lexer.py",
     'tokens.append(Token(END, "", line, len(text) + 1))',
     'tokens.append(Token(END, "", line, len(text)))',
     LEXER),
    # the collective copy from the two layouts (runtime.copy_array) and its plan
    ("copy: a same-dimension slice ending at high, not high + 1", "runtime.py",
     "buf[:] = flat[low * line : (high + 1) * line]",
     "buf[:] = flat[low * line : high * line]",
     COPY),
    ("copy: a transposed line stepping by the destination's line length", "runtime.py",
     "flat[j::src_line]",
     "flat[j::line]",
     COPY),
    ("copy: a replicated source read from replica 0", "runtime.py",
     "flat = src.replicas[owner]",
     "flat = src.replicas[0]",
     COPY),
    ("plan: the overlapping source blocks without the last", "runtime.py",
     "src_blocks[src.element(lo)[0] : src.element(hi)[0] + 1]",
     "src_blocks[src.element(lo)[0] : src.element(hi)[0]]",
     ["tests/test_redistribution.py", "-k", "planner_agrees"]),
]


def matches(mutant):
    """How many times the mutant's fragment occurs in its file."""
    _, name, fragment, _, _ = mutant
    with open(os.path.join(ROOT, "src", "meshlite", name), encoding="utf-8") as fh:
        return fh.read().count(fragment)


def run(mutant):
    """Apply mutant to a copy of src/ and run its tests there: 'killed',
    'alive', or why its tests did not run."""
    _, name, fragment, replacement, tests = mutant
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(os.path.join(ROOT, "src"), src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        path = os.path.join(src, "meshlite", name)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace(fragment, replacement))
        env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=ROOT, env=env, capture_output=True, text=True)
    if done.returncode == 1:
        return "killed"
    if done.returncode == 0:
        return "alive"
    return f"tests did not run (pytest exit {done.returncode}):\n{done.stdout[-2000:]}"


def main(argv):
    check = "--check" in argv
    chosen = [m for m in MUTANTS if all(word in m[0] for word in argv if word != "--check")]
    failed = 0
    for mutant in chosen:
        count = matches(mutant)
        if count != 1:
            verdict = f"fragment occurs {count} times in src/meshlite/{mutant[1]}"
        elif check:
            continue
        else:
            verdict = run(mutant)
        failed += verdict != "killed"
        print(f"{verdict}: {mutant[0]}", flush=True)
    if check:
        print(f"{len(chosen) - failed} of {len(chosen)} fragments match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
