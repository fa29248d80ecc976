"""Mutation gauge for the package: is every statement, check and branch of src/itmfree
needed, and does a tier-1 test show it?

Every module is gauged but ``__init__.py``, which only re-exports. A site is of one of two
kinds. An operator site is a comparison, arithmetic, augmented-assignment or boolean
operator (swapped: < <=, > >=, == !=, is / is not, + -, * /, ** *, and / or), an int or
float literal (c becomes 2c, 0 becomes 1) or the test of an ``if`` (negated). A statement
site is a statement replaced by ``pass``: docstrings, ``def``, ``class``, imports and
``pass`` itself are not sites, and a compound statement goes whole, its body with it. Each
mutant is one site changed in a temporary copy of the checkout, where tier-1 then runs with
-x, a fixed hypothesis seed and a 120 s timeout (a mutant that times out is killed), two
mutants at a time; a mutant that passes survives. Text inside string literals (the RK4
template and the RHS bodies) is not a site.

    python -S tests/mutation.py --list [FILE ...]   # enumerate the sites, run nothing
    python tests/mutation.py [FILE ...] [--sample K --seed N]

FILE names modules of src/itmfree (``cli.py``); with none, every module is gauged. A run
prints each survivor as it is found and compares them with ``tests/mutation_survivors.json``,
the equivalent mutants with the reason of each; it exits 1 if a survivor is not listed there
or a listed mutant is now killed. Either form exits 1 first if a listed key is not a current
site, as happens when an edit above a listed mutant moves it.
"""

import argparse, ast, bisect, json, os, random, re, shutil, signal, subprocess, sys, tempfile, time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FILES = ("cli.py", "errors.py", "itm.py", "ivp.py", "problems.py", "reference.py",
         "similarity.py")
TIMEOUT = 120.0  # seconds per mutant; tier-1 takes about 12
SWAP = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
        ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="), ast.Is: ("is", "is not"),
        ast.IsNot: ("is not", "is"), ast.Add: ("+", "-"), ast.Sub: ("-", "+"),
        ast.Mult: ("*", "/"), ast.Div: ("/", "*"), ast.Pow: ("**", "*"),
        ast.And: ("and", "or"), ast.Or: ("or", "and")}
NOT_STATEMENTS = (ast.FunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom, ast.Pass)


def sites(name):
    """(key, file, start, end, mutant) per site: bytes [start, end) of the file become mutant,
    and the key is ``file:line:column original -> mutant``."""
    src = (ROOT / "src" / "itmfree" / name).read_bytes()
    starts = [0] + [i + 1 for i, c in enumerate(src) if c == 10]
    span = lambda n: (starts[n.lineno - 1] + n.col_offset,
                      starts[n.end_lineno - 1] + n.end_col_offset)
    found = []  # (start, end, mutant)
    for node in ast.walk(ast.parse(src)):
        gaps = []  # (operator, the operand it follows, the one it precedes)
        if isinstance(node, ast.BinOp):
            gaps = [(node.op, node.left, node.right)]
        elif isinstance(node, ast.AugAssign):
            gaps = [(node.op, node.target, node.value)]
        elif isinstance(node, ast.Compare):
            gaps = zip(node.ops, [node.left, *node.comparators], node.comparators)
        elif isinstance(node, ast.BoolOp):
            gaps = [(node.op, a, b) for a, b in zip(node.values, node.values[1:])]
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
            found.append((*span(node), repr(2 * node.value or 1)))
        elif isinstance(node, (ast.If, ast.IfExp)):
            found.append((*span(node.test), f"not ({src[slice(*span(node.test))].decode()})"))
        if isinstance(node, ast.stmt) and not isinstance(node, NOT_STATEMENTS) and not (
                isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)):
            found.append((*span(node), "pass"))
        for op, left, right in gaps:
            if type(op) in SWAP:
                old, new = (t + "=" * isinstance(node, ast.AugAssign) for t in SWAP[type(op)])
                start, end = span(left)[1], span(right)[0]
                gap = re.sub(rb"#[^\n]*", lambda m: b" " * len(m[0]), src[start:end])
                found.append((start + gap.index(old.encode()), start + gap.index(old.encode())
                              + len(old), new))
    keyed = []
    for start, end, new in sorted(found):
        line = bisect.bisect(starts, start)
        lines = src[start:end].decode().splitlines()  # a statement: its first line stands for it
        text = " ".join(f"{lines[0]}{' ...' * (len(lines) > 1)} -> {new}".split())
        keyed.append((f"{name}:{line}:{start - starts[line - 1]} {text}", name, start, end, new))
    return keyed


def survives(site):
    """True if tier-1 passes with this one site mutated, in a copy of the checkout."""
    _, name, start, end, new = site
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench*"))
        target = copy / "src" / "itmfree" / name
        src = target.read_bytes()
        target.write_bytes(src[:start] + new.encode() + src[end:])
        path = os.pathsep.join(filter(None, [str(copy / "src"), os.environ.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", "--continue-on-collection-errors"],
            cwd=copy, env={**os.environ, "PYTHONPATH": path}, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, start_new_session=True)
        try:
            return proc.wait(TIMEOUT) == 0
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return False


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", metavar="FILE", help=f"any of {', '.join(FILES)}")
    parser.add_argument("--list", action="store_true", help="print the sites and exit")
    parser.add_argument("--sample", type=int, help="run this many sites, drawn with --seed")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if set(args.files) - set(FILES):
        parser.error(f"not a gauged module: {', '.join(sorted(set(args.files) - set(FILES)))}")
    every = [site for name in FILES for site in sites(name)]
    listed = {entry["mutant"] for entry in json.loads(
        (ROOT / "tests" / "mutation_survivors.json").read_text())}
    stale = listed - {site[0] for site in every}
    every = [site for site in every if site[1] in (args.files or FILES)]
    if args.list:
        print(*(site[0] for site in every), f"{len(every)} sites", sep="\n")
    for key in sorted(stale):
        print(f"listed, not a site: {key}")
    if args.list or stale:
        return int(bool(stale))
    chosen = random.Random(args.seed).sample(every, args.sample) if args.sample else every
    listed &= {s[0] for s in chosen}
    begin, survived = time.monotonic(), set()
    with ThreadPoolExecutor(2) as pool:  # two pytest processes at a time
        for site, alive in zip(chosen, pool.map(survives, chosen)):
            if alive:
                survived.add(site[0])
                print(f"survived: {site[0]}" + ("" if site[0] in listed else "  (not listed)"),
                      flush=True)
    for key in sorted(listed - survived):
        print(f"listed, killed: {key}")
    print(f"seed {args.seed}: {len(chosen)} sites, {len(chosen) - len(survived)} killed, "
          f"{len(survived)} survived, {time.monotonic() - begin:.0f} s")
    return int(survived != listed)


if __name__ == "__main__":
    sys.exit(main())
