"""Mutation analysis of the package: which small changes the tests kill.

    python tools/mutants.py              # every mutant
    python tools/mutants.py ID ...       # the mutants whose ids start so

Mutants are generated from ``src/dfm_em`` with ``ast``, inside function
bodies only: + <-> -, * <-> /, < <-> <=, > <-> >=, a float constant
times 2, ``and`` <-> ``or``, a dropped ``not``, a slice bound moved
inward by one, and a deleted augmented assignment or subscript or
attribute store. An id is file:function:operator:source text, with
``#k`` for the k-th repeat of that text in that function, so an edit
elsewhere renames nothing. ``HAND`` adds the named mutants that no
generated one twins, such as those of module constants.

The whole of ``tests/`` first runs once on an unmutated copy of ``src/``
under a line tracer; the lines a fixture runs count for every test that
requests it. Each mutant then runs in a copy of ``src/`` against the
tests that run its lines (a hand mutant: its named tests), fastest
first, with ``-x`` and a timeout, on every CPU this process may use.
The script prints a verdict a mutant, then a score a module and the
survivors. It exits 1 on a survivor listed in neither ``EQUIVALENT``
nor ``OPEN``, on a listed mutant that is killed, or on an error.
"""

import argparse
import ast
import os
import queue
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "dfm_em")


class Mutant(NamedTuple):
    id: str
    path: str  # relative to src/dfm_em
    edits: tuple  # (start, end, text): byte offsets into the file
    lines: frozenset = frozenset()  # a test that runs one of them runs the mutant
    tests: tuple = ()  # a hand mutant's pytest node ids


# Named mutants that no generated one twins: (name, file, old, which occurs
# once in the file, new, tests). The module constants, and the changes
# whose lines hold no generated mutant that the named tests kill.
HAND = (
    ("abort_fraction_0.3", "montecarlo.py", "MAX_FAILURE_FRACTION = 0.2",
     "MAX_FAILURE_FRACTION = 0.3", ("tests/test_montecarlo.py",)),
    ("gamma_rtol_1e-6", "em.py", "_GAMMA_RTOL = 1e-8", "_GAMMA_RTOL = 1e-6",
     ("tests/test_em.py",)),
    ("burn_in_t_4", "metrics.py", "BURN_IN_T = 5", "BURN_IN_T = 4", ("tests/test_metrics.py",)),
    ("shrink_0.2", "em.py", "_SHRINK = 0.1", "_SHRINK = 0.2", ("tests/test_em.py",)),
    ("freeze_rtol_1e-9", "kalman.py", "_FREEZE_RTOL = 1e-15", "_FREEZE_RTOL = 1e-9",
     ("tests/test_kalman.py",)),
    ("steady_tol_1e-6", "kalman.py", "_STEADY_TOL = 1e-8", "_STEADY_TOL = 1e-6",
     ("tests/test_kalman.py",)),
    ("burn_in_50", "simulate.py", "BURN_IN = 100", "BURN_IN = 50", ("tests/test_simulate.py",)),
    # Each drops the last row block when there are several.
    ("m_step_sums_drop_last_block", "em.py", 'np.einsum("ij,ij->i", E, E, out=ss[b])',
     'np.einsum("ij,ij->i", E, float(b.start == 0 or b.stop < panel.n) * E, out=ss[b])',
     ("tests/test_model.py::TestSqResidualSums", "tests/test_em.py")),
    ("ecm_moments_drop_last_block", "extensions.py", 'np.einsum("it,it->i", E, E, out=ss[b])',
     'np.einsum("it,it->i", E, float(b.start == 0 or b.stop < n) * E, out=ss[b])',
     ("tests/test_extensions.py::TestArUpdates",)),
    ("ar1_v_drops_last_block", "metrics.py", "np.linalg.solve(inner[b], F[None])",
     "float(b.start == 0 or b.stop < n) * np.linalg.solve(inner[b], F[None])",
     ("tests/test_metrics.py::TestAsvar",)),
    # A refusal skipped or untyped, and the estimator records swapped.
    ("em_cell_shorter_than_burn_in", "montecarlo.py", "if self.T < BURN_IN_T:", "if False:",
     ("tests/test_cli.py::TestMontecarlo::test_bad_cell_exits_before_running",)),
    ("draw_violation_untyped", "simulate.py", 'raise ValueError(f"drawn parameters',
     'raise RuntimeError(f"drawn parameters', ("tests/test_simulate.py::TestDrawDgp",)),
    ("params_value_error_unnamed", "io.py",
     'except ValueError as exc:\n        raise ValueError(f"{path}: {exc}") from None',
     "except ValueError:\n        raise", ("tests/test_io.py::TestParamsJson",)),
    ("ridge_guarded", "extensions.py", "_Estimator(guarded=False, gamma0=",
     "_Estimator(guarded=True, gamma0=",
     ("tests/test_em.py::TestFitFailures::test_ridge_and_ecm_do_not_guard_ascent",)),
    ("em_fit_unguarded", "em.py", "_Estimator(guarded=True)", "_Estimator(guarded=False)",
     ("tests/test_em.py::TestFitFailures::test_falling_loglik_raises_ascent_violation",)),
    ("cli_ecm_runs_em", "cli.py", '"ecm": ecm_fit}', '"ecm": em_fit}',
     ("tests/test_cli.py::TestFit",)),
)

# Generated mutants that no test can kill, with the reason.
EQUIVALENT = {
    "extensions.py:_ridge_gamma:le>lt:n <= m":
        "at n = T + r both branches return factors of the same Gamma",
    "kalman.py:_scan:le>lt:T <= 1": "at T = 1 the recursion also returns [Q_0]",
    "kalman.py:_scan:upper-1:2 * h": "the stride-2 slice from 0 ends at 2h - 2 either way",
    "kalman.py:_scan:upper-1:2 * h#1": "the stride-2 slice from 0 ends at 2h - 2 either way",
    "metrics.py:trace_statistic:lt>le:M.shape[0] < M.shape[1]":
        "a square estimate of full rank spans the space: the statistic is 1 either way",
    "pca.py:_sign_fix_columns:mul>div:V * _column_signs(V)":
        "dividing by +-1 is multiplying by it",
    "simulate.py:DgpConfig.__post_init__:gt>ge:1.0 - 2.0 * self.delta > self.delta":
        "no double delta has 1 - 2 delta equal to delta",
    "simulate.py:_draw_shock_loader:mul>div:Q * np.sign(np.diag(R))":
        "dividing by +-1 is multiplying by it; a diagonal 0 of R needs a singular draw",
    "simulate.py:_simulate:gt>ge:tau > 0.0":
        "at tau = 0 the Toeplitz root multiplies by 1 and adds 0",
}

# Generated mutants that a test could kill but none does yet, with the reason.
OPEN = {
    "metrics.py:trace_statistic:float*2:1e-300":
        "needs an estimate whose Gram trace is under 2e-300",
    "pca.py:pc_estimate:float*2:1e-300": "needs a panel whose top eigenvalue is under 2e-300",
    "pca.py:pc_estimate:le>lt:abs(w[r - 1] - w[r]) <= _TIE_RTOL * max(abs(w[0]), 1e-300)":
        "needs an eigenvalue gap of exactly 1e-12 of the top eigenvalue",
    "pca.py:var_from_factors:float*2:1e-300":
        "needs factors whose lagged second moments have a trace under 2e-300",
}

_SWAP = {ast.Add: ("+", "-", "add>sub"), ast.Sub: ("-", "+", "sub>add"),
         ast.Mult: ("*", "/", "mul>div"), ast.Div: ("/", "*", "div>mul"),
         ast.Lt: ("<", "<=", "lt>le"), ast.LtE: ("<=", "<", "le>lt"),
         ast.Gt: (">", ">=", "gt>ge"), ast.GtE: (">=", ">", "ge>gt"),
         ast.And: ("and", "or", "and>or"), ast.Or: ("or", "and", "or>and")}
_STORES = (ast.Subscript, ast.Attribute)


class _Generator(ast.NodeVisitor):
    """The mutants of one module's source, in source order."""

    def __init__(self, source, path):
        self.data, self.path = source.encode(), path
        self.starts = [0]
        for line in self.data.splitlines(keepends=True):
            self.starts.append(self.starts[-1] + len(line))
        self.qual, self.in_body, self.stmt = [], False, None
        self.mutants, self.seen = [], Counter()

    def span(self, node):
        return (self.starts[node.lineno - 1] + node.col_offset,
                self.starts[node.end_lineno - 1] + node.end_col_offset)

    def text(self, node):
        start, end = self.span(node)
        return " ".join(self.data[start:end].decode().split())

    def add(self, node, op, *edits):
        text = self.text(node)
        key = (".".join(self.qual), op, text if len(text) <= 60 else text[:57] + "...")
        k, self.seen[key] = self.seen[key], self.seen[key] + 1
        lines = {*range(node.lineno, node.end_lineno + 1), self.stmt.lineno}
        self.mutants.append(Mutant(":".join((self.path, *key)) + (f"#{k}" if k else ""),
                                   self.path, edits, frozenset(lines)))

    def swap(self, left, right, op, suffix=""):
        """The name of ``op``'s swap and its edit of the token between
        ``left`` and ``right``."""
        old, new, name = _SWAP[type(op)]
        start, end = self.span(left)[1], self.span(right)[0]
        gap = re.sub(rb"#[^\n]*", lambda m: b" " * len(m.group()), self.data[start:end])
        token = re.escape((old + suffix).encode())
        pattern = rb"\b%s\b" % token if old.isalpha() else rb"(?<![<>=!*/])%s(?![<>=*/])" % token
        (found,) = re.finditer(pattern, gap)
        return name, (start + found.start(), start + found.end(), new + suffix)

    def visit_FunctionDef(self, node):
        self.qual.append(node.name)
        outer, self.in_body = self.in_body, not isinstance(node, ast.ClassDef)
        for stmt in node.body:
            self.visit(stmt)
        self.qual.pop()
        self.in_body = outer

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_JoinedStr(self, node):
        pass

    def generic_visit(self, node):
        outer = self.stmt
        if self.in_body:
            self.stmt = node if isinstance(node, ast.stmt) else outer
            self.mutate(node)
        super().generic_visit(node)
        self.stmt = outer

    def mutate(self, node):
        if isinstance(node, ast.BinOp) and type(node.op) in _SWAP:
            self.add(node, *self.swap(node.left, node.right, node.op))
        elif isinstance(node, ast.AugAssign):
            if type(node.op) in _SWAP:
                self.add(node, *self.swap(node.target, node.value, node.op, "="))
            self.add(node, "del", (*self.span(node), "pass"))
        elif isinstance(node, ast.Assign) and all(isinstance(t, _STORES) for t in node.targets):
            self.add(node, "del", (*self.span(node), "pass"))
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for left, right, op in zip(operands, operands[1:], node.ops):
                if type(op) in _SWAP:
                    self.add(node, *self.swap(left, right, op))
        elif isinstance(node, ast.BoolOp):
            swaps = [self.swap(a, b, node.op) for a, b in zip(node.values, node.values[1:])]
            self.add(node, swaps[0][0], *(edit for _, edit in swaps))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            start = self.span(node)[0]
            end = start + len("not")
            while self.data[end:end + 1].isspace():
                end += 1
            self.add(node, "drop-not", (start, end, ""))
        elif (isinstance(node, ast.Constant) and type(node.value) is float
              and 0.0 < abs(node.value) < 1e300):
            self.add(node, "float*2", (*self.span(node), repr(2.0 * node.value)))
        elif isinstance(node, ast.Slice):
            for bound, op, sign in ((node.lower, "lower+1", "+"), (node.upper, "upper-1", "-")):
                if bound is not None:
                    self.add(bound, op, (*self.span(bound), f"({self.text(bound)}) {sign} 1"))


def generate(source, path):
    """The mutants of the module ``path`` whose text is ``source``."""
    gen = _Generator(source, path)
    gen.visit(ast.parse(source))
    return gen.mutants


def apply(source, mutant):
    """``source`` with ``mutant``'s edits made."""
    data = source.encode()
    for start, end, text in sorted(mutant.edits, reverse=True):
        data = data[:start] + text.encode() + data[end:]
    return data.decode()


def _read(path):
    with open(path) as fh:
        return fh.read()


def all_mutants():
    """Every generated mutant of the package, then the hand ones."""
    found = [m for name in sorted(os.listdir(PACKAGE)) if name.endswith(".py")
             for m in generate(_read(os.path.join(PACKAGE, name)), name)]
    for name, path, old, new, tests in HAND:
        data, token = _read(os.path.join(PACKAGE, path)).encode(), old.encode()
        if data.count(token) != 1:
            raise SystemExit(f"{name}: {old!r} is not once in {path}")
        start = data.index(token)
        found.append(Mutant(name, path, ((start, start + len(token), new),), tests=tests))
    return found


class _Recorder:
    """A pytest plugin that records the package lines each test runs, and
    what it costs alone: its time plus the set-up time of the fixtures it
    requests, which an earlier test may have paid."""

    def __init__(self, package):
        self.prefix = os.path.realpath(package) + os.sep
        self.lines, self.seconds = {}, {}  # by node id
        self.fixtures = {}  # (name, base id) -> (lines, seconds)
        self.bucket = set()

    def _call(self, frame, event, arg):
        return self._line if frame.f_code.co_filename.startswith(self.prefix) else None

    def _line(self, frame, event, arg):
        if event == "line":
            self.bucket.add((frame.f_code.co_filename[len(self.prefix):], frame.f_lineno))
        return self._line

    @pytest.hookimpl(hookwrapper=True)
    def pytest_fixture_setup(self, fixturedef, request):
        outer, self.bucket = self.bucket, set()
        start = time.perf_counter()
        yield
        self.fixtures[fixturedef.argname, fixturedef.baseid] = (
            self.bucket, time.perf_counter() - start)
        self.bucket = outer

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(self, item, nextitem):
        lines = self.bucket = self.lines.setdefault(item.nodeid, set())
        start = time.perf_counter()
        sys.settrace(self._call)
        yield
        sys.settrace(None)
        seconds = time.perf_counter() - start
        for (name, base), (used, setup) in self.fixtures.items():
            if name in item.fixturenames and item.nodeid.startswith(base):
                lines |= used
                seconds += setup
        self.seconds[item.nodeid] = seconds
        self.bucket = set()


def _record(src):
    """{(file, line): node ids of the tests that run it} for the package
    under ``src``, and each test's cost in seconds."""
    recorder = _Recorder(os.path.join(src, "dfm_em"))
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = src
    code = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", ROOT,
                        os.path.join(ROOT, "tests")], plugins=[recorder])
    if code != 0:
        raise SystemExit(f"the unmutated source fails its tests (exit {code})")
    index = {}
    for test, lines in recorder.lines.items():
        for key in lines:
            index.setdefault(key, []).append(test)
    return index, recorder.seconds


def _copy_src(dest):
    shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dest, "src"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    return os.path.realpath(os.path.join(dest, "src"))


def _run(src, tests, timeout):
    """(verdict, detail) of ``tests`` on the package under ``src``."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(name, "1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider", *tests],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        start_new_session=True)
    try:
        out = proc.communicate(timeout=timeout)[0]
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return "killed", f"timeout after {timeout:.0f} s"
    # A test module that no longer imports is an ERROR line too, and exit 4
    # when the tests were named by node id.
    failed = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - |$)", out, re.MULTILINE)
    if proc.returncode in (1, 2, 4) and failed:
        return "killed", failed.group(1)
    if proc.returncode == 4 and "ImportError while loading conftest" in out:
        return "killed", "the package no longer imports"
    if proc.returncode == 0:
        return "survived", ""
    return "error", f"pytest exit {proc.returncode}"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("ids", nargs="*", help="prefixes of the mutant ids to run (default: all)")
    ids = tuple(p.parse_args(argv).ids)
    chosen = [m for m in all_mutants() if not ids or m.id.startswith(ids)]
    if not chosen:
        raise SystemExit(f"no mutant id starts with {' or '.join(ids)}")
    sys.dont_write_bytecode = True  # a stale .pyc would hide a same-size mutation
    began, workers = time.perf_counter(), len(os.sched_getaffinity(0))
    with tempfile.TemporaryDirectory() as tmp:
        copies = queue.Queue()
        for k in range(workers):
            copies.put(_copy_src(os.path.join(tmp, str(k))))
        index, seconds = _record(copies.queue[0])

        def verdict(m):
            tests = m.tests or sorted(
                {t for line in m.lines for t in index.get((m.path, line), ())},
                key=lambda t: (seconds[t], t))
            if not tests:
                return "uncovered", ""
            cost = sum(s for t, s in seconds.items() if t.startswith(tuple(tests)))
            src = copies.get()
            path = os.path.join(src, "dfm_em", m.path)
            original = _read(path)
            try:
                with open(path, "w") as fh:
                    fh.write(apply(original, m))
                return _run(src, tests, 60 + 4 * cost)
            finally:
                with open(path, "w") as fh:
                    fh.write(original)
                copies.put(src)

        results = []
        with ThreadPoolExecutor(workers) as pool:
            for m, (v, detail) in zip(chosen, pool.map(verdict, chosen)):
                print(f"{v:9s} {m.id}  {detail}", flush=True)
                results.append((m, v, detail))
    print(f"\n{len(results)} mutants in {(time.perf_counter() - began) / 60:.1f} min on "
          f"{workers} CPUs\n\n{'module':16s} killed  listed  mutants   score")
    for module in sorted({m.path for m, _, _ in results}):
        ours = [(m, v) for m, v, _ in results if m.path == module]
        killed = sum(v == "killed" for _, v in ours)
        listed = sum(m.id in EQUIVALENT or m.id in OPEN for m, _ in ours)
        print(f"{module:16s} {killed:6d}  {listed:6d}  {len(ours):7d}  "
              f"{killed / max(len(ours) - listed, 1):6.1%}")
    bad = 0
    print("\nsurvivors:")
    for m, v, detail in results:
        listed = "equivalent" if m.id in EQUIVALENT else "open" if m.id in OPEN else ""
        if v != "killed" or listed:
            # an error, an unlisted survivor or a listed mutant that is killed
            bad += v == "error" or (v == "killed") == bool(listed)
            print(f"  {v:9s} {listed or 'UNLISTED':10s} {m.id}  {detail}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
