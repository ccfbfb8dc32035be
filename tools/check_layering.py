#!/usr/bin/env python
"""Structural lint: the layering DAG and one table of rules.

Layering: no module imports, even in a function body, from a layer above
its own.  A module ranks as its longest dotted prefix in ``RANKS``.

Rules keep the python simulator and ``kernel.c`` one semantics.  A count
rule's regex matches exactly ``count`` lines under its paths (0: a
retired name), its ``home`` files aside, which must each hold it.  An
only-in rule requires every call it matches on the AST to sit inside
``function``.  A reached rule requires every public function, class and
method under its paths to be named (a method as an attribute or a
string), and each defaulted parameter of one to be passed (by a
``super().__init__`` only to its class's bases; by a call through a
module-level dict of classes to each class it names), by a module under
its paths or ``callers`` (never ``tests``), matching by name on the AST.
A defaulted field of a dataclass in its ``fields`` files is a parameter
of that class's ``__init__``, passed by a construction or a
``dataclasses.replace`` keyword, never by a string.  What only tests
reach is in its ``allow`` list with its role, and an entry that names
nothing or that a caller reaches fails.  A path that names nothing fails.
``mutate`` derives each rule's failing edit from its kind and
``example``.  The tree is read once, without bytecode, undecodable
files, this file or ``HISTORY``.

Usage: ``python tools/check_layering.py [SRC]`` (the package root,
default ``src``).  Exits 0 when clean, else 1 with a line per failure.
"""

from __future__ import annotations

import ast
import functools
import importlib.util
import re
import sys
from dataclasses import dataclass
from pathlib import Path

#: dotted-prefix -> layer rank; keep in sync with docs/INTERNALS.md
RANKS: dict[str, int] = {
    "repro._version": 0, "repro.core.config": 0, "repro.core.metrics": 0,
    "repro.core.resultcache": 0, "repro.memory": 1, "repro.network": 1,
    "repro.native": 2, "repro.sim": 3, "repro.apps": 4, "repro.runtime": 5,
    "repro.core": 6, "repro.service": 7, "repro.analysis": 8,
    "repro.cli": 9, "repro": 10}
#: history, which no rule searches: these quote retired names as they were
HISTORY = {"CHANGES.md", "ROADMAP.md", "docs/MEASURING.md"}


@dataclass(frozen=True)
class Rule:
    name: str
    pr: int
    paths: str  # space-separated files and directories
    pattern: str
    example: str
    count: int = 0
    home: str = ""  # space-separated files
    function: str = ""  # only-in: the one "Class.method" that may call
    callers: str = ""  # reached: where callers live besides ``paths``
    fields: str = ""  # reached: files whose dataclass fields are parameters
    allow: tuple[tuple[str, str], ...] = ()  # reached: (entry, role) pairs


#: what a public name that only tests reach is to them: each entry of the
#: ``reached`` rule's allow-list, a name or ``name(parameter)``, has one
ROLES = ("test oracle", "test probe", "test seam")
TEST_ONLY: tuple[tuple[str, str], ...] = (
    ("LUApp.reconstruct", "test oracle"),
    ("OceanApp.solution", "test oracle"),
    ("OceanApp.residual_norm", "test oracle"),
    ("MP3DApp.total_count", "test oracle"),
    ("MP3DApp.kinetic_energy", "test oracle"),
    ("FFTApp.reference", "test oracle"),
    ("RadixApp.reference", "test oracle"),
    ("Directory.is_sharer", "test probe"),
    ("Directory.sharer_list", "test probe"),
    ("Directory.entry", "test probe"),
    ("AddressSpace.regions", "test probe"),
    ("AddressSpace.region", "test probe"),
    ("Region.contains", "test probe"),
    ("Region.n_elements", "test probe"),
    # one page bound by hand, refused if already bound (place_range skips)
    ("PageAllocator.place_page", "test seam"),
    ("FigureData.series", "test probe"),
    ("BarnesApp.__init__(dt)", "test seam"),  # dt=0: bodies stand still
    ("FMMApp.__init__(dt)", "test seam"),
    ("MP3DApp.__init__(collide_prob)", "test seam"),
    ("MP3DApp.__init__(cells_per_side)", "test seam"),  # a small space array
    ("RadixApp.__init__(n_digits)", "test seam"),  # one digit pass
    # the capture's line arithmetic is property-tested across line sizes
    ("MachineConfig.__init__(line_size)", "test seam"),
    ("MachineConfig.__init__(page_size)", "test seam"),
    # unit directory occupancy puts latency + delay on a half
    ("NetworkConfig.__init__(directory_cycles)", "test seam"),
    ("RaytraceApp.__init__(max_depth)", "test seam"),
    ("VolrendApp.__init__(opacity_cutoff)", "test seam"),  # early termination
    ("DaemonThread", "test seam"),  # an in-process daemon on a thread
    ("main(argv)", "test seam"),  # the CLI in-process; its entry point: none
)

GRID_CALL = r"(executor|pool)(\([^)]*\))?\.run\("
MEMORY, KERNEL = "src/repro/memory", "src/repro/native/kernel.c"
BACK_ENDS = " ".join(f"{MEMORY}/{m}.py" for m in ("coherence", "snoopy", "dls"))

RULES: tuple[Rule, ...] = (
    Rule("retired-names", 14, "src tools docs README.md", (
        r"sim\.batch|replay_fused|submit_group|batch_prefetch|heap_fast_path|REPRO_TRACE_LRU\b|"
        r"_writeback|map_put_ordered|dir_log|hist_log|repro_release|NativeDeadlock|native_fusible|"
        r"as_point_spec|PointSpec|core\.bench|bench_engine|check_floor|benchmarks/perf|"
        r"REPRO_TRACE_MMAP|ENV_TRACE_MMAP|mmap_ok|RPROTRC1|fork_available|preload_traces|"
        r"fork-server|fork_server|use_compiled|evaluate_point|AsyncServiceClient|StatsAssembler|"
        r"residency_profile|heap_push|heap_pop|ev_lt|_ChunkedColumn|execute_program|fuse_work|"
        r"register_protocol|_retire_inline|NATIVE_PROTOCOLS|memory\.refmodel|memory/refmodel|"
        r"miss_latency|FullyAssociativeCache|SetAssociativeCache|make_cache|_slot_maps|_set_free|"
        r"kernels is not None|_flat\b|_t_local|_t_remote|_t_c2c|_local_dirty_remote|"
        r"_remote_dirty_3p|cluster_shift|_dtable\[|run_detailed|memory_factory|read_hit_cycles|"
        r"TraceRecord|max_cycles|runtime_columns|_boxed|_le_bytes|fused_work|"
        r"REPRO_TRACE_LRU_BYTES|ENV_TRACE_LRU_BYTES|memory_cache_len|memory_cache_bytes|"
        r"buffer_info|_force_on|_far_field|_near_field|MissKind|_invalidate_bits|run_one|"
        r"_run_grid|_exc_text|_bar_from_norm|_DEFAULT_SEED|SweepService|executor\.cache = None|"
        r"def scaled|def base_url|def key\(self, app|OP_SPAN|_span_words|_span_ops|_item_words|"
        r"_ITEM_MIN_OPS|_line_divisors|read_span|write_span|leaf_of|CrossbarTopology|"
        r"make_topology|NETWORK_TOPOLOGIES|wire_cycles|router_cycles|hit_by_cluster_size"),
         "spec = PointSpec('lu', 2)"),
    Rule("slab-and-cache-twins", 25, "src tools docs README.md tests",
         r"check_slots|\.kernels\(\)|_kernels|_INITIAL_SLOTS|_grow\(|RefFullyAssociativeCache|"
         r"RefSetAssociativeCache|LineEntry|RefEviction|pending_until_of|fetcher_of",
         "entry = LineEntry(tag)"),
    # the pytest-benchmark harness, the rendered-text parser and build_app's paper_scale
    Rule("one-results-path", 21, "src tools docs README.md EXPERIMENTS.md DESIGN.md "
         "pyproject.toml tests", r"REPRO_BENCH_|pytest.benchmark|benchmark-only|analysis\.golden|"
         r"parse_rows|load_figure|parse_cost_table|compare_figures|paper_scale=",
         "rows = parse_rows(text)"),
    Rule("one-grid-run", 36, "src", GRID_CALL, "pool.run(specs, config)", 1),
    Rule("one-failure-raise", 36, "src", r"(?<!def )raise_failures\(", "raise_failures(out)", 1),
    Rule("grid-calls-in-sweep", 36, "src", GRID_CALL + r"|raise_failures\(",
         "executor.run(specs, config)", function="ClusteringStudy.sweep"),
    # SweepExecutor alone keys, reads and writes results, as objects or as text
    Rule("service-skips-result-cache", 37, "src/repro/service",
         r"cache\.(get|put|get_text|put_text|put_bytes)\(", "text = self.cache.get_text(key)"),
    Rule("daemon-under-asyncio-run", 37, "src/repro/service/daemon.py",
         r"new_event_loop|run_forever", "loop = asyncio.new_event_loop()"),
    Rule("session-built-by-executor", 38, "src/repro", r"RunSession\(", "s = RunSession(config)",
         home="src/repro/core/executor.py src/repro/__init__.py"),
    Rule("cli-without-session", 38, "src/repro/cli", "RunSession", "from .x import RunSession"),
    Rule("providers-price-misses", 38, "src/repro/network", "hit_cycles", "c = p.hit_cycles(op)"),
    Rule("one-pool-one-provider", 40, "src tools docs", r"BACKENDS|worker_pids|_thread_pool|"
         r"_process_pool|TableLatency|make_latency_provider|LatencyProvider|"
         r"SweepExecutor\(backend", "provider = TableLatency(config)"),
    Rule("lines-through-cache", 33, BACK_ENDS, r"\.sets\b|_n_sets|_ways\b|self\._lines\b",
         "ways = cache.sets[0]"),
    Rule("engine-heap-shortcut", 33, "src/repro/sim/engine.py", r"heap\[0\]\[0\]", "heap[0][0]"),
    # the operand-to-line store: an op's in _drain, a batch's in _words
    Rule("one-op-store-rule", 33, "src/repro/sim/compiled.py",
         r"//=? (line_size|np\.array\()", "line = addr // line_size", 2),
    # a capture is packed once in memory; TraceCache.put is the one write
    Rule("one-trace-write", 48, "src/repro/sim", r"put_bytes\(|\.writing\(",
         "store.put_bytes(key, blob)", 1),
    Rule("span-stays-in-capture", 42, f"src/repro/sim/engine.py src/repro/native {MEMORY}",
         "OP_WORDS", "kind = OP_WORDS"),
    Rule("directory-writes-through-transitions", 29, BACK_ENDS,
         r"\.(mask|dir_state) *([|&^+-]|<<|>>)?=($|[^=])", "rec.mask |= 1"),
    Rule("one-record-per-line", 29, MEMORY,
         r"_history|\.packed\b|SHARER_SHIFT|_RESIDENT|_EVICTED|_INVALIDATED", "miss_history = {}"),
    Rule("page-table-in-allocation", 29, "src tests tools", "_page_home", "h = self._page_home[0]",
         home=f"{MEMORY}/allocation.py"),
    # each memory step once, shared by the three back ends as kernel.c shares it
    *(Rule(name, 34, MEMORY, re.escape(step), example, 1) for name, step, example in (
        ("one-merge-probe", "pending_until > now", "late = rec.pending_until > now"),
        ("one-capacity-loss", "lost_cap |=", "rec.lost_cap |= bit"),
        ("one-capacity-clear", "lost_cap &=", "rec.lost_cap &= ~bit"),
        ("one-coherence-clear", "lost_coh &=", "rec.lost_coh &= ~bit"),
        ("one-hit-tuple", "_HIT = (", "_HIT = (0, 0)"),
        ("one-directory-check", "(state == NOT_CACHED) != (mask == 0)",
         "bad = (state == NOT_CACHED) != (mask == 0)"),
        ("one-home-binding", "rec.home == -1", "unbound = rec.home == -1"))),
    # the oracle writes its own rules out: it must not share the probe it checks
    Rule("oracle-owns-its-probe", 34, "tests/refmodel.py", "probe_read", "c.probe_read(0, 0)"),
    # a replay reads only the placement half of an app's set-up: the whole
    # set-up (the input problem too) runs where the generators run — a
    # capture's drain, barnes' recording, the generator engine run
    Rule("problem-built-by-generators", 53, "src", r"ensure_setup\(\)",
         "app.ensure_setup()", 4),
    Rule("barnes-alone-recorded", 24, "src", "stream_invariant = False",
         "stream_invariant = False", home="src/repro/apps/barnes.py"),
    # and only its tree builds are timed: the rest of its run is drained
    Rule("barnes-alone-timed", 49, "src", r"timed_barriers(: [^=]+)? [-+*]?= (?!None\b)",
         "timed_barriers = 1", home="src/repro/apps/barnes.py"),
    Rule("one-task-loop", 24, KERNEL, r"q_pop\(q\)", "t = q_pop(q);", 2),
    Rule("kernel-one-index", 30, KERNEL,
         r"\bMap\b|map_[a-z]+\(|lock_enqueue|lock_dequeue|wpid|warr|qpid|qarr", "Map *m = 0;"),
    # the benchmark harness is a caller; tests are not
    Rule("reached", 47, "src", "", "def unreached(): pass",
         callers="tools examples benchmarks/e2e",
         fields="src/repro/core/config.py", allow=TEST_ONLY),
)

#: the checkout's top-level entries the rules search
TOPS = sorted({path.split("/")[0] for rule in RULES
               for path in f"{rule.paths} {rule.callers}".split()})


def rank_of(module: str) -> int | None:
    """Layer rank of a dotted module name (None = not a repro module)."""
    prefixes = [p for p in RANKS if module == p or module.startswith(p + ".")]
    return RANKS[max(prefixes, key=len)] if prefixes else None


def upward_imports(tree: dict[str, str], prefix: str = "") -> list[str]:
    """Upward imports among the ``.py`` files under ``prefix`` in ``tree``."""
    violations = []
    for path, text in tree.items():
        parts = Path(path.removeprefix(prefix)).with_suffix("").parts
        package = ".".join(parts[:-1])
        importer = package if parts[-1] == "__init__" else ".".join(parts)
        if not (path.startswith(prefix) and path.endswith(".py")
                and rank_of(importer) is not None):
            continue
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported = [importlib.util.resolve_name(
                    "." * node.level + (node.module or ""), package)]
            else:
                continue
            violations += [
                f"{importer} (rank {rank_of(importer)}) imports "
                f"{module} (rank {rank_of(module)})" for module in imported
                if rank_of(module) is not None
                and rank_of(module) > rank_of(importer)]
    return violations


def check(src_root: Path) -> list[str]:
    """All upward-import violations under ``src_root`` (empty = clean)."""
    return upward_imports(read_tree(src_root, ["."]))


def read_tree(root: Path, paths) -> dict[str, str]:
    """``path -> text`` of the searched files under ``root`` / ``paths``."""
    tree = {}
    for top in paths:
        top = root / top
        for file in [top] if top.is_file() else sorted(top.rglob("*")):
            path = file.relative_to(root).as_posix()
            if (file.is_file() and file.suffix not in (".pyc", ".pyo")
                    and path not in HISTORY
                    and file.resolve() != Path(__file__).resolve()):
                try:
                    tree[path] = file.read_text(encoding="utf-8")
                except UnicodeDecodeError:
                    pass
    return tree


@functools.cache  # the mutation test re-checks trees one file apart
def _matches(pattern: str, text: str) -> tuple[tuple[int, str], ...]:
    """``(line number, line)`` of every line ``pattern`` matches."""
    regex = re.compile(pattern, re.MULTILINE)
    if not regex.search(text):
        return ()
    return tuple((n, line) for n, line in enumerate(text.splitlines(), 1)
                 if regex.search(line))


def _files(paths: str, tree: dict[str, str]) -> list[str]:
    """The files of ``tree`` that ``paths`` names or holds, sorted."""
    roots = paths.split()
    dirs = tuple(f"{root}/" for root in roots)
    return [path for path in sorted(tree)
            if path in roots or path.startswith(dirs)]


def in_scope(rule: Rule, tree: dict[str, str]) -> list[str]:
    """The files ``rule`` counts or parses: under its paths, not home."""
    return [path for path in _files(rule.paths, tree)
            if path not in rule.home.split()
            and (not (rule.function or rule.callers) or path.endswith(".py"))]


@functools.cache
def _stray_calls(rule: Rule, text: str) -> frozenset[int]:
    """Lines of the calls matching ``rule.pattern`` outside
    ``rule.function``, found on the AST."""
    tree, (cls, fn) = ast.parse(text), rule.function.split(".")
    spans = [(f.lineno, f.end_lineno) for c in tree.body
             if isinstance(c, ast.ClassDef) and c.name == cls
             for f in c.body if getattr(f, "name", None) == fn]
    return frozenset(
        node.func.end_lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and re.search(rule.pattern, ast.unparse(node.func) + "(")
        and not any(a <= node.lineno <= b for a, b in spans))


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


@dataclass(frozen=True)
class Defined:
    """A public function, class or method, or a class's ``__init__``."""
    qual: str  # "name" or "Class.name"
    name: str  # what a caller names: the class, for its ``__init__``
    line: int
    end: int
    params: tuple[tuple[str, int | None], ...]  # defaulted: (name, position)
    field: bool = False  # a dataclass field, which no string passes


def _defined(node, cls: str = "") -> Defined:
    args, drop = node.args, 0
    if cls and not any(getattr(d, "id", "") == "staticmethod"
                       for d in node.decorator_list):
        drop = 1  # self or cls
    positional = [a.arg for a in args.posonlyargs + args.args]
    first = len(positional) - len(args.defaults)
    params = [(name, i - drop) for i, name in enumerate(positional)
              if i >= first]
    params += [(a.arg, None) for a, default in
               zip(args.kwonlyargs, args.kw_defaults) if default is not None]
    init = node.name == "__init__"
    return Defined(f"{cls}.{node.name}" if cls else node.name,
                   cls if init else node.name, node.lineno, node.end_lineno,
                   tuple(params))


def _fields(node: ast.ClassDef) -> list[Defined]:
    """A dataclass's defaulted fields, each a defaulted parameter of its
    ``__init__`` at the field's position, defined on the field's line."""
    if not any("dataclass" in ast.unparse(d) for d in node.decorator_list):
        return []
    init = [f for f in node.body if isinstance(f, ast.AnnAssign)
            and isinstance(f.target, ast.Name)
            and "ClassVar" not in ast.unparse(f.annotation)]
    return [Defined(f"{node.name}.__init__", node.name, f.lineno,
                    f.end_lineno, ((f.target.id, i),), field=True)
            for i, f in enumerate(init) if f.value is not None]


def _registries(module: ast.Module) -> dict[str, tuple[str, ...]]:
    """``expression -> classes`` for each lookup into a module-level dict
    naming classes (``TABLE[k]``, ``TABLE.get(k)``) and each name bound to
    one: calling it calls each class the dict names, aliases resolved."""
    real = {a.asname: a.name for node in module.body
            if isinstance(node, ast.ImportFrom) for a in node.names}
    tables = {target.id: tuple(real.get(v.id, v.id) for v in node.value.values
                               if isinstance(v, ast.Name))
              for node in module.body
              if isinstance(node, (ast.Assign, ast.AnnAssign))
              and isinstance(node.value, ast.Dict)
              for target in (node.targets if isinstance(node, ast.Assign)
                             else [node.target])
              if isinstance(target, ast.Name)}

    def looked_up(expr) -> tuple[str, ...]:
        if isinstance(expr, ast.Call) and isinstance(
                expr.func, ast.Attribute) and expr.func.attr == "get":
            expr = expr.func
        elif not isinstance(expr, ast.Subscript):
            return ()
        return tables.get(getattr(expr.value, "id", None), ())

    lookups = {}
    for node in ast.walk(module):
        if classes := looked_up(node):
            lookups[ast.unparse(node)] = classes
        elif isinstance(node, ast.Assign) and (
                classes := looked_up(node.value)):
            lookups.update((ast.unparse(t), classes) for t in node.targets)
    return lookups


@functools.cache  # the mutation test re-checks trees one file apart
def _surface(text: str, facade: bool, fields: bool):
    """One module's ``(defined, names, strings, calls, prefixes,
    classes)``: its public definitions (with ``fields``, each defaulted
    dataclass field too), every ``(name, line, member)`` it
    mentions (``member``: as an attribute or a string, the ways a method
    is named), the strings among them, every call's ``(callee, line,
    positional count, keywords)``, the constant heads of its f-strings
    (``f"cmd_{name}"`` -> ``cmd_``) and every class's ``(name, bases,
    whether it defines __init__)``.  A ``super().__init__`` call's callee
    is ``"super <enclosing class>"``; a call through a registry of
    classes is a call of each.  An
    ``__all__`` or ``_LAZY`` table lists names and a facade's imports
    re-export them: neither mentions one."""
    module, defined, names, strings = ast.parse(text), [], [], []
    calls, prefixes = [], []
    classes = [c for c in ast.walk(module) if isinstance(c, ast.ClassDef)]
    registries = _registries(module)
    skip = {id(n) for node in module.body
            if isinstance(node, ast.Assign) and any(
                getattr(t, "id", "") in ("__all__", "_LAZY")
                for t in node.targets)
            for n in ast.walk(node.value)}
    for node in module.body:
        if isinstance(node, FUNCTIONS):
            if not node.name.startswith("_"):
                defined.append(_defined(node))
        elif isinstance(node, ast.ClassDef):
            if not node.name.startswith("_"):
                defined.append(Defined(node.name, node.name, node.lineno,
                                       node.end_lineno, ()))
            defined += [_defined(f, node.name) for f in node.body
                        if isinstance(f, FUNCTIONS) and (f.name == "__init__"
                                                         or f.name[0] != "_")]
            defined += _fields(node) if fields else []
    for node in ast.walk(module):
        if isinstance(node, ast.Name):
            names.append((node.id, node.lineno, False))
        elif isinstance(node, ast.Attribute):
            names.append((node.attr, node.end_lineno, True))
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and not facade:
            names += [(part, node.lineno, False) for alias in node.names
                      for part in alias.name.split(".")]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skip):
            names.append((node.value, node.lineno, True))
            strings.append(node.value)
        elif isinstance(node, ast.JoinedStr) and len(node.values) > 1 \
                and isinstance(node.values[0], ast.Constant):
            prefixes.append(node.values[0].value)
        elif isinstance(node, ast.Call):
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            if callee == "__init__" and ast.unparse(node.func) \
                    == "super().__init__":
                callee = "super " + max(
                    (c for c in classes
                     if c.lineno <= node.lineno <= c.end_lineno),
                    key=lambda c: c.lineno).name
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            calls += [(each, node.lineno,
                       sys.maxsize if starred else len(node.args),
                       frozenset(k.arg for k in node.keywords if k.arg))
                      for each in (registries.get(ast.unparse(node.func),
                                                  (callee,))
                                   if registries else (callee,))]
    return (tuple(defined), tuple(names), frozenset(strings), tuple(calls),
            tuple(prefixes), tuple(
                (c.name, tuple(ast.unparse(b).split(".")[-1] for b in c.bases),
                 any(getattr(f, "name", "") == "__init__" for f in c.body))
                for c in classes))


def unreached(rule: Rule, tree: dict[str, str]) -> list[str]:
    """The ``reached`` rule: each public name defined under ``rule.paths``
    is named, and each of its defaulted parameters passed, outside its
    own definition by a module under ``rule.paths`` or ``rule.callers``
    (a method as an attribute or a string; a ``super().__init__`` call
    passes to the ``__init__`` its class's bases reach, by class name);
    else it is in ``rule.allow``, whose entries must each name a
    definition that no caller reaches, in one of ``ROLES``."""
    callers = [p for p in _files(f"{rule.paths} {rule.callers}", tree)
               if p.endswith(".py")]
    surface = {p: _surface(tree[p], p.endswith("/__init__.py"),
                           p in rule.fields.split())
               for p in callers}
    mentions, passes, strings, heads = {}, {}, set(), set()
    bases, inits = {}, set()
    for path, (_, names, texts, calls, prefixes, classes) in surface.items():
        for name, line, member in names:
            mentions.setdefault(name, []).append((path, line, member))
        strings |= texts
        heads.update(h for h in prefixes if h.isidentifier())
        for callee, line, n, keywords in calls:
            passes.setdefault(callee, []).append((path, line, n, keywords))
        for name, parents, init in classes:
            bases.setdefault(name, set()).update(parents)
            if init:
                inits.add(name)

    def init_of(cls: str, seen: frozenset = frozenset()) -> set[str]:
        """The classes whose ``__init__`` ``cls``'s ``super().__init__``
        runs: each base that defines one, else that base's own."""
        return {owner for base in bases.get(cls, set()) - seen
                for owner in ({base} if base in inits
                              else init_of(base, seen | {cls}))}

    for callee in [c for c in passes if c and c.startswith("super ")]:
        for owner in init_of(callee.removeprefix("super ")):
            passes.setdefault(owner, []).extend(passes[callee])

    def outside(d: Defined, path: str, sites) -> list:
        return [s for s in sites
                if s[0] != path or not d.line <= s[1] <= d.end]

    allowed = {entry: role for entry, role in rule.allow}
    failures, seen = [], set()
    for path in in_scope(rule, tree):
        for d in surface[path][0]:
            method = "." in d.qual
            reached = (d.qual.endswith(".__init__")
                       or outside(d, path, [
                           m for m in mentions.get(d.name, ())
                           if m[2] or not method])
                       or any(d.name.startswith(h)  # f"{head}{key}"
                              and d.name[len(h):] in strings for h in heads))
            if d.qual in allowed:
                seen.add(d.qual)
                if reached:
                    failures.append(f"{rule.name}: allow-list {d.qual}: "
                                     f"{path}:{d.line} has a caller")
                continue
            if not reached:
                failures.append(f"{rule.name}: {path}:{d.line}: {d.qual} "
                                "has no caller outside tests")
                continue
            sites = outside(d, path, passes.get(d.name, []))
            if d.field:  # dataclasses.replace passes its keywords alone
                sites += [(p, n, 0, kw)
                          for p, n, _, kw in passes.get("replace", ())]
            for param, position in d.params:
                entry = f"{d.qual}({param})"
                passed = param in strings and not d.field or any(
                    param in kw or position is not None and n > position
                    for _, _, n, kw in sites)
                if entry in allowed:
                    seen.add(entry)
                    if passed:
                        failures.append(f"{rule.name}: allow-list {entry}: "
                                        f"{path}:{d.line} has a caller")
                elif not passed:
                    failures.append(f"{rule.name}: {path}:{d.line}: {d.qual}"
                                    f"({param}=) is passed by no caller "
                                    "outside tests")
    failures += [f"{rule.name}: allow-list {entry}: names nothing"
                 for entry in allowed if entry not in seen]
    failures += [f"{rule.name}: allow-list {entry}: {role!r} is not a role"
                 for entry, role in rule.allow if role not in ROLES]
    return failures


def check_rules(tree: dict[str, str], rules=RULES) -> list[str]:
    """Every failure of ``rules`` on ``tree`` (empty = clean)."""
    failures = []
    for rule in rules:
        roots = (f"{rule.paths} {rule.home} {rule.callers} "
                 f"{rule.fields}").split()
        missing = [p for p in roots if not _files(p, tree)]
        if missing:
            failures += [f"{rule.name}: {p}: no such path" for p in missing]
        elif rule.callers:
            failures += unreached(rule, tree)
        else:
            hits = [f"{rule.name}: {path}:{n}: {line.strip()}"
                    for path in in_scope(rule, tree)
                    for n, line in _matches(rule.pattern, tree[path])
                    if not rule.function
                    or n in _stray_calls(rule, tree[path])]
            if len(hits) != rule.count:
                failures += hits + [f"{rule.name}: {len(hits)} lines match, "
                                    f"{rule.count} expected"]
            failures += [f"{rule.name}: {path}: its home lacks the pattern"
                         for path in rule.home.split()
                         if not _matches(rule.pattern, tree[path])]
    return failures


def mutate(rule: Rule, tree: dict[str, str]) -> tuple[dict, str, int]:
    """``tree`` with ``rule.example`` appended to the first file the rule
    searches: one line too many for a count rule, a module-level call
    for an only-in rule, a definition no caller reaches for a reached
    rule.  Returns the copy, the path and the line."""
    path = in_scope(rule, tree)[0]
    lines = tree[path].splitlines() + [rule.example]
    return {**tree, path: "\n".join(lines) + "\n"}, path, len(lines)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    src_root = Path(argv[0] if argv else "src")
    if not src_root.is_dir():
        print(f"check_layering: source root {src_root} not found",
              file=sys.stderr)
        return 2
    src = src_root.resolve()
    tree = read_tree(src.parent, {src.name, *TOPS})
    failures = upward_imports(tree, src.name + "/") + check_rules(tree)
    if failures:
        print(f"{len(failures)} layering violation(s) or rule failure(s):",
              *failures, sep="\n", file=sys.stderr)
        return 1
    print(f"layering OK under {src_root}; {len(RULES)} rules hold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
