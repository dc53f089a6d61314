"""The rule registry and repro's project-specific rules.

Every rule encodes one invariant the test matrix relies on but no generic
linter can see.  Per-file rules receive a :class:`FileContext`; project rules
receive a :class:`ProjectContext` (all parsed files plus the repo layout) and
run once per lint invocation.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.lint.violations import FileContext, ProjectContext, Violation

__all__ = ["RULES", "Rule", "all_rules", "get_rule", "rule"]

CheckFunction = Callable[..., Iterable[Violation]]


@dataclass(frozen=True)
class Rule:
    """One named invariant check."""

    name: str
    description: str
    check: CheckFunction
    #: ``"file"`` rules run per parsed file; ``"project"`` rules run once.
    scope: str = "file"


RULES: Dict[str, Rule] = {}


def rule(name: str, description: str, scope: str = "file"
         ) -> Callable[[CheckFunction], CheckFunction]:
    """Register a check function under ``name`` (decorator)."""
    if scope not in ("file", "project"):
        raise ValueError(f"unknown rule scope {scope!r}")

    def _register(check: CheckFunction) -> CheckFunction:
        if name in RULES:
            raise ValueError(f"lint rule {name!r} is already registered")
        RULES[name] = Rule(name=name, description=description,
                           check=check, scope=scope)
        return check

    return _register


def get_rule(name: str) -> Rule:
    """Look up one rule by name."""
    try:
        return RULES[name]
    except KeyError:
        known = ", ".join(sorted(RULES))
        raise KeyError(f"unknown lint rule {name!r}; known rules: {known}") from None


def all_rules() -> List[Rule]:
    """Every registered rule, sorted by name."""
    return [RULES[name] for name in sorted(RULES)]


# ------------------------------------------------------------------- helpers
def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, or ``None`` for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def numpy_names(tree: ast.Module) -> Dict[str, str]:
    """Each local name the module binds to numpy, with the numpy dotted path
    it stands for.

    ``import numpy as np`` binds ``np`` to ``numpy``, ``import numpy.linalg
    as la`` binds ``la`` to ``numpy.linalg``, ``import numpy.random`` binds
    ``numpy``, and ``from numpy.random import default_rng`` binds
    ``default_rng`` to ``numpy.random.default_rng``.
    """
    names: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.name == "numpy" or item.name.startswith("numpy."):
                    if item.asname:
                        names[item.asname] = item.name
                    else:
                        names[item.name.split(".")[0]] = "numpy"
        elif (isinstance(node, ast.ImportFrom) and node.level == 0 and node.module
                and (node.module == "numpy" or node.module.startswith("numpy."))):
            for item in node.names:
                names[item.asname or item.name] = f"{node.module}.{item.name}"
    return names


def numpy_path(node: ast.AST, names: Dict[str, str]) -> Optional[str]:
    """The numpy member ``node`` names, relative to the package (``"linalg.eigh"``
    for ``np.linalg.eigh`` or a from-imported ``eigh``), or ``None``."""
    name = dotted_name(node)
    if name is None:
        return None
    head, _, tail = name.partition(".")
    package = names.get(head)
    if package is None:
        return None
    path = f"{package}.{tail}" if tail else package
    return path[len("numpy."):] if path.startswith("numpy.") else None


def _in_file(context: FileContext, *suffixes: str) -> bool:
    """True when the analysed file is one of ``suffixes`` (posix paths)."""
    path = context.relpath.replace("\\", "/")
    return any(path.endswith(suffix) for suffix in suffixes)


# --------------------------------------------------------------- seam-bypass
#: The only module allowed to touch the raw kernels directly.
_SEAM_MODULE = "repro/kernels/backend.py"

#: Hot-path modules where even matmul must go through the kernel module
#: (the analysis loops whose kernel cost the stage ledger breaks out).
_HOT_PATH_MODULES = ("repro/aoa/batch.py", "repro/aoa/subspace.py")

#: ``np.linalg`` factorisations the kernel module owns.
_SEAM_LINALG = ("linalg.eigh", "linalg.inv")

#: FFT transforms the kernel module owns (grid helpers like ``fft.fftfreq``
#: and ``fft.fftshift`` are pure index arithmetic and stay free).
_SEAM_FFT = tuple(
    f"fft.{name}" for name in
    ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
     "rfftn", "irfftn"))

#: Matmul-family calls checked on hot paths only.
_SEAM_MATMUL = ("matmul", "dot", "einsum")


@rule(
    "seam-bypass",
    "hot numerics (np.linalg.eigh/inv, np.fft transforms, matmul on hot "
    "paths) must go through repro.kernels: one module holds the hot kernels "
    "that the ledger times")
def check_seam_bypass(context: FileContext) -> Iterator[Violation]:
    if _in_file(context, _SEAM_MODULE):
        return
    names = numpy_names(context.tree)
    hot_path = _in_file(context, *_HOT_PATH_MODULES)
    for node in ast.walk(context.tree):
        if isinstance(node, ast.Call):
            path = numpy_path(node.func, names)
            if path is None:
                continue
            name = dotted_name(node.func)
            if path in _SEAM_LINALG:
                yield context.violation(
                    "seam-bypass", node,
                    f"direct {name}() bypasses repro.kernels; route through "
                    f"kernels.{path.split('.')[-1]}() so the ledger times "
                    "this path")
            elif path in _SEAM_FFT:
                yield context.violation(
                    "seam-bypass", node,
                    f"direct {name}() bypasses repro.kernels; use the kernel "
                    "FFTs (or document the exception) so the ledger times "
                    "this transform")
            elif hot_path and path in _SEAM_MATMUL:
                yield context.violation(
                    "seam-bypass", node,
                    f"{name}() on a hot-path module must go through the "
                    "kernel module (kernels.matmul) or carry a documented "
                    "exception")
        elif hot_path and isinstance(node, ast.BinOp) and isinstance(
                node.op, ast.MatMult):
            yield context.violation(
                "seam-bypass", node,
                "the @ operator on a hot-path module must go through the "
                "kernel module (kernels.matmul) or carry a documented "
                "exception")


# ------------------------------------------------------------ rng-discipline
#: The module that owns generator construction and seed derivation.
_RNG_MODULE = "repro/utils/rng.py"

#: Legacy ``np.random`` global-state API — never allowed: global state breaks
#: the per-shard substream layout every bit-identity suite pins.
_LEGACY_RANDOM = frozenset({
    "seed", "random", "rand", "randn", "randint", "random_sample", "ranf",
    "sample", "choice", "shuffle", "permutation", "uniform", "normal",
    "standard_normal", "poisson", "exponential", "beta", "binomial",
    "bytes", "get_state", "set_state", "RandomState",
})

#: Generator constructors that must stay inside ``repro.utils.rng``.
_RNG_CONSTRUCTORS = ("random.default_rng", "random.SeedSequence")

#: Classes that build a generator when called; only the call is flagged, so
#: ``np.random.Generator`` still serves as a type annotation anywhere.
_RNG_CLASS_CALLS = ("random.Generator", "random.SFC64", "random.PCG64",
                    "random.PCG64DXSM", "random.Philox", "random.MT19937")


def _is_spawn_bound(node: ast.AST) -> bool:
    """True for the ``2**31 - 1`` / ``2**63 - 1`` spawn-derivation bounds."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)):
        return False
    left, right = node.left, node.right
    if not (isinstance(right, ast.Constant) and right.value == 1):
        return False
    if not (isinstance(left, ast.BinOp) and isinstance(left.op, ast.Pow)):
        return False
    base, exponent = left.left, left.right
    return (isinstance(base, ast.Constant) and base.value == 2
            and isinstance(exponent, ast.Constant)
            and exponent.value in (31, 63))


def _constructor_violation(context: FileContext, node: ast.AST,
                           name: Optional[str]) -> Violation:
    return context.violation(
        "rng-discipline", node,
        f"{name} outside repro.utils.rng; construct generators via "
        "ensure_rng/spawn_rng/keyed_rng/keyed_noise_rng and derive seeds via "
        "derive_seed so substream layouts stay canonical")


@rule(
    "rng-discipline",
    "no legacy np.random global-state API anywhere; generator construction "
    "(np.random.Generator and bit-generator calls included) and seed "
    "derivation only via repro.utils.rng (ensure_rng / spawn_rng / "
    "derive_seed / keyed_rng / keyed_noise_rng), so shard seeds stay a pure "
    "function of the spec")
def check_rng_discipline(context: FileContext) -> Iterator[Violation]:
    names = numpy_names(context.tree)
    in_rng_module = _in_file(context, _RNG_MODULE)
    for node in ast.walk(context.tree):
        if isinstance(node, (ast.Name, ast.Attribute)):
            path = numpy_path(node, names)
            if path is None:
                continue
            if path.startswith("random.") and path[len("random."):] in _LEGACY_RANDOM:
                yield context.violation(
                    "rng-discipline", node,
                    f"legacy global-state API {dotted_name(node)} is forbidden; use "
                    "a seeded np.random.Generator via repro.utils.rng")
            elif not in_rng_module and path in _RNG_CONSTRUCTORS:
                yield _constructor_violation(context, node, dotted_name(node))
        elif (isinstance(node, ast.Call) and not in_rng_module
                and numpy_path(node.func, names) in _RNG_CLASS_CALLS):
            yield _constructor_violation(context, node, dotted_name(node.func))
        elif (isinstance(node, ast.Call) and not in_rng_module
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "integers"
                and len(node.args) >= 2
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value == 0
                and _is_spawn_bound(node.args[1])):
            yield context.violation(
                "rng-discipline", node,
                "hand-rolled spawn-seed derivation (.integers(0, 2**N - 1)); "
                "use repro.utils.rng.derive_seed / spawn_rng / keyed_rng "
                "so the draw count stays part of the documented stream "
                "layout")


# ---------------------------------------------------------------- atomic-write
#: Packages whose on-disk artifacts other processes watch: campaign stores
#: are shared across workers that may die mid-write, and the serve announce
#: file is polled by clients racing the server's startup.
_ATOMIC_PACKAGES = ("repro/campaign/", "repro/serve/")

_WRITE_METHODS = ("write_text", "write_bytes")


def _write_mode(call: ast.Call) -> Optional[str]:
    """The constant write mode of an ``open()`` call, if any."""
    mode_node: Optional[ast.expr] = None
    if len(call.args) >= 2:
        mode_node = call.args[1]
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode_node = keyword.value
    if (isinstance(mode_node, ast.Constant) and isinstance(mode_node.value, str)
            and ("w" in mode_node.value or "x" in mode_node.value)):
        return mode_node.value
    return None


def _function_calls_os_replace(function: ast.AST) -> bool:
    return any(isinstance(node, ast.Call)
               and dotted_name(node.func) in ("os.replace", "os.rename")
               for node in ast.walk(function))


@rule(
    "atomic-write",
    "campaign-store and serve files must be written with the tmp + "
    "os.replace idiom (ResultStore._write_atomic); a bare open(path, 'w') "
    "or write_text can leave a torn record behind a crashed worker or a "
    "torn announce document under a polling client")
def check_atomic_write(context: FileContext) -> Iterator[Violation]:
    path = context.relpath.replace("\\", "/")
    if not any(package in path for package in _ATOMIC_PACKAGES):
        return
    # Walk functions so a write inside the tmp+os.replace idiom itself
    # (the function also calls os.replace) is recognised as the idiom.
    functions = [node for node in ast.walk(context.tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    atomic_functions = {id(fn) for fn in functions
                        if _function_calls_os_replace(fn)}
    owner: Dict[int, Optional[ast.AST]] = {}
    # ast.walk yields outer functions before nested ones, so plain
    # assignment leaves each node owned by its *innermost* function.
    for function in functions:
        for node in ast.walk(function):
            owner[id(node)] = function
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        enclosing = owner.get(id(node))
        if enclosing is not None and id(enclosing) in atomic_functions:
            continue
        if isinstance(node.func, ast.Name) and node.func.id == "open":
            mode = _write_mode(node)
            if mode is not None:
                yield context.violation(
                    "atomic-write", node,
                    f"bare open(..., {mode!r}) in a watched package; use "
                    "the tmp + os.replace idiom (ResultStore._write_atomic) "
                    "or document why a torn file is harmless")
        elif (isinstance(node.func, ast.Attribute)
                and node.func.attr in _WRITE_METHODS):
            yield context.violation(
                "atomic-write", node,
                f".{node.func.attr}() in a watched package; use the tmp + "
                "os.replace idiom (ResultStore._write_atomic) or document "
                "why a torn file is harmless")


# -------------------------------------------------------------- async-blocking
#: Package whose async functions run on the service event loop.
_SERVE_PACKAGE = "repro/serve/"

#: Synchronous calls that stall an event loop (use the asyncio counterpart,
#: or hoist the work into a sync helper invoked off-loop / per micro-batch).
_BLOCKING_CALLS = frozenset({
    "time.sleep", "os.system", "os.popen", "os.wait",
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output", "subprocess.Popen",
    "socket.create_connection", "urllib.request.urlopen",
})

#: Blocking file-I/O method names (Path.read_text and friends).
_BLOCKING_METHODS = frozenset({
    "read_text", "write_text", "read_bytes", "write_bytes",
})


@rule(
    "async-blocking",
    "async functions in repro.serve run on the shared event loop and must "
    "not call blocking I/O (time.sleep, open, Path read/write methods, "
    "subprocess); use the asyncio counterpart or a sync helper run "
    "off-loop")
def check_async_blocking(context: FileContext) -> Iterator[Violation]:
    path = context.relpath.replace("\\", "/")
    if _SERVE_PACKAGE not in path:
        return
    functions = [node for node in ast.walk(context.tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    owner: Dict[int, ast.AST] = {}
    # Outer functions are walked first, so plain assignment leaves each node
    # owned by its *innermost* function — a sync def nested inside an async
    # def is therefore (correctly) not treated as loop-resident code.
    for function in functions:
        for node in ast.walk(function):
            owner[id(node)] = function
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        if not isinstance(owner.get(id(node)), ast.AsyncFunctionDef):
            continue
        name = dotted_name(node.func)
        if name in _BLOCKING_CALLS:
            yield context.violation(
                "async-blocking", node,
                f"{name}() blocks the event loop; every tenant and "
                "connection shares it — use the asyncio counterpart "
                "(e.g. await asyncio.sleep) or run the work off-loop")
        elif isinstance(node.func, ast.Name) and node.func.id == "open":
            yield context.violation(
                "async-blocking", node,
                "open() inside an async function blocks the event loop; "
                "do file I/O in a sync helper outside the coroutine (the "
                "announce writer pattern) or via run_in_executor")
        elif (isinstance(node.func, ast.Attribute)
                and node.func.attr in _BLOCKING_METHODS):
            yield context.violation(
                "async-blocking", node,
                f".{node.func.attr}() inside an async function blocks the "
                "event loop; do file I/O in a sync helper outside the "
                "coroutine or via run_in_executor")


# ------------------------------------------------------ frozen-config-mutation
def _is_frozen_dataclass(classdef: ast.ClassDef) -> bool:
    for decorator in classdef.decorator_list:
        if (isinstance(decorator, ast.Call)
                and dotted_name(decorator.func)
                in ("dataclass", "dataclasses.dataclass")
                and any(keyword.arg == "frozen"
                        and isinstance(keyword.value, ast.Constant)
                        and keyword.value.value is True
                        for keyword in decorator.keywords)):
            return True
    return False


def _frozen_config_names(tree: ast.Module) -> Set[str]:
    """Frozen dataclasses defined here, plus repro Config/Spec imports.

    The project convention (pinned by the serde round-trip suites) is that
    every ``*Config`` / ``*Spec`` dataclass in repro is frozen, so imported
    names matching that shape are treated as frozen too.
    """
    names = {node.name for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef) and _is_frozen_dataclass(node)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.module
                and (node.module == "repro"
                     or node.module.startswith("repro."))):
            for item in node.names:
                if item.name.endswith(("Config", "Spec")):
                    names.add(item.asname or item.name)
    return names


@rule(
    "frozen-config-mutation",
    "frozen config dataclasses are immutable outside their own class body: "
    "no object.__setattr__ escape hatches in free functions and no "
    "attribute assignment on config instances (compiled shards must see "
    "exactly the spec that was hashed)")
def check_frozen_config_mutation(context: FileContext) -> Iterator[Violation]:
    frozen_classes = [node for node in ast.walk(context.tree)
                      if isinstance(node, ast.ClassDef)
                      and _is_frozen_dataclass(node)]
    inside_frozen: Set[int] = set()
    for classdef in frozen_classes:
        for node in ast.walk(classdef):
            inside_frozen.add(id(node))
    for node in ast.walk(context.tree):
        if (isinstance(node, ast.Call) and id(node) not in inside_frozen
                and dotted_name(node.func) == "object.__setattr__"):
            yield context.violation(
                "frozen-config-mutation", node,
                "object.__setattr__ outside a frozen dataclass body "
                "defeats the immutability the config hash relies on; "
                "canonicalise in __post_init__ or dataclasses.replace()")

    config_names = _frozen_config_names(context.tree)
    if not config_names:
        return
    for function in ast.walk(context.tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        instances: Set[str] = set()
        for node in ast.walk(function):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                callee = dotted_name(node.value.func)
                if callee in config_names:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            instances.add(target.id)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id in instances):
                        yield context.violation(
                            "frozen-config-mutation", target,
                            f"attribute assignment on frozen config instance "
                            f"{target.value.id!r} (raises FrozenInstanceError "
                            "at runtime); build a new instance with "
                            "dataclasses.replace()")


# ---------------------------------------------------- registry-completeness
#: registry variable -> (conformance test file, checking mode).  ``literal``
#: requires every registered name to appear as a string literal in the
#: conformance file (the tiny-grid table); ``auto-or-literal`` also accepts
#: the file iterating the registry itself (``REG.names()`` / ``REG.items()``),
#: which covers every registration by construction.
_REGISTRY_CONFORMANCE: Dict[str, Tuple[str, str]] = {
    "CAMPAIGNS": ("tests/test_campaign_conformance.py", "literal"),
    "AOA_METHODS": ("tests/test_api_registries.py", "auto-or-literal"),
}


def _registrations(project: ProjectContext,
                   registry: str) -> List[Tuple[FileContext, ast.Call, str]]:
    found = []
    for context in project.files:
        for node in ast.walk(context.tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "register"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == registry
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)):
                found.append((context, node, node.args[0].value))
    return found


def _conformance_facts(project: ProjectContext, filename: str,
                       registry: str) -> Optional[Tuple[Set[str], bool]]:
    """(string literals, iterates-registry) for a conformance test file."""
    if project.tests_dir is None:
        return None
    path = project.tests_dir.parent / filename
    if not path.is_file():
        return None
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"))
    except SyntaxError:
        return None
    literals: Set[str] = set()
    iterates = False
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            literals.add(node.value)
        elif (isinstance(node, ast.Attribute)
                and node.attr in ("names", "items")
                and isinstance(node.value, ast.Name)
                and node.value.id == registry):
            iterates = True
    return literals, iterates


@rule(
    "registry-completeness",
    "every CAMPAIGNS / AOA_METHODS registration must be reachable by its "
    "conformance suite (tiny-grid entry or auto-discovering iteration), so "
    "a new adapter cannot ship without conformance coverage",
    scope="project")
def check_registry_completeness(project: ProjectContext) -> Iterator[Violation]:
    for registry, (filename, mode) in sorted(_REGISTRY_CONFORMANCE.items()):
        registrations = _registrations(project, registry)
        if not registrations:
            continue
        facts = _conformance_facts(project, filename, registry)
        if facts is None:
            continue  # no tests tree alongside the linted sources
        literals, iterates = facts
        if mode == "auto-or-literal" and iterates:
            continue
        for context, node, name in registrations:
            if name not in literals:
                yield context.violation(
                    "registry-completeness", node,
                    f"{registry}.register({name!r}) has no entry in "
                    f"{filename}; add the tiny-grid / conformance entry so "
                    "the conformance suite covers it")
