"""Every function, class, method and defaulted parameter under ``src/``
has a caller on a run path.

A run path is ``src/`` itself, ``benchmarks/``, ``examples/`` or
``perfbench/`` outside its tests; tests do not count.  A definition is
used when a run path names it as a ``Name``, as an ``Attribute`` (a
bare ``b.amax`` picked without a call counts), or as the string of a
``getattr``/``hasattr``.  Imports and ``__all__`` entries do not count.
The scan matches by name only, so a name used anywhere keeps every
definition of it.

A second scan holds each defaulted parameter of a function or method
(a class's ``__init__`` counts as the class) to a run path that passes
it, by keyword or by position, to a call of that name.  A function
bound to a name, by ``name = f`` or by ``name=f`` in a call (the
``distance_fn=`` bound method), also takes the calls of that name.  A
function a run path names any other way than as a callee (a registry
entry, a positional callback) or calls with ``*``/``**`` passes every
parameter, since its call sites are out of sight.

A third scan holds each non-``__init__`` module under ``src/`` to the
names it imports: each must be read there, as a ``Name`` or as a whole
string (a quoted annotation or an ``__all__`` entry).

The first two scans list each offender as ``path:line name``, sorted.
"""

from __future__ import annotations

import ast
import functools
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"

#: Definitions no run path calls, kept on purpose: dotted name -> reason.
KEEP = {
    "repro.temporal.dtw.dtw_distance": "the scalar reference the vectorised DTW tests compare against",
    "repro.autograd.grad_check.check_gradients": "the finite-difference reference of the autograd tests",
    "repro.engine.store.ArtifactStore.clear_memory": "test setup hook: forces disk reads",
    "repro.data.dataset.SpatioTemporalDataset.subset_steps": "test setup hook: cuts a dataset to fewer steps",
    "repro.optim.optimizers.SGD": "the optimiser of the trainer and checkpoint test fixtures",
    "repro.data.missing.impute_linear": "kept for the missing-observations roadmap item",
    "repro.backend.registry.use_backend": "test seam: scopes a counting or twin backend in the backend tests",
    "repro.serving.transport.http_server._Handler.do_GET": "called by http.server",
    "repro.serving.transport.http_server._Handler.do_POST": "called by http.server",
    "repro.serving.transport.http_server._Handler.log_message": "called by http.server",
}


#: Defaulted parameters no run path passes, kept on purpose:
#: ``dotted.function(param)`` -> reason (a class's ``__init__`` is named
#: by the class).
KEEP_PARAMS = {
    **dict.fromkeys([
        "repro.autograd.grad_check.check_gradients(atol)",
        "repro.autograd.grad_check.check_gradients(rtol)",
    ], "tolerance the autograd tests set"),
    "repro.autograd.grad_check.check_gradients(eps)": "finite-difference step of the test reference",
    **dict.fromkeys([
        "repro.core.features.cosine_similarities(eps)",
        "repro.core.features.spatial_proximities(eps)",
        "repro.core.pseudo.idw_weights(eps)",
        "repro.nn.layers.LayerNorm(eps)",
        "repro.nn.loss.cosine_similarity_matrix(eps)",
    ], "numerical eps that guards a division"),
    "repro.nn.loss.mse_loss(mask)": "kept for the missing-observations roadmap item",
    **dict.fromkeys([
        "repro.data.synthetic.airquality.simulate_pm25(base_level)",
        "repro.data.synthetic.city.generate_highway_city(num_corridors)",
        "repro.data.synthetic.city.generate_highway_city(poi_radius)",
        "repro.data.synthetic.city.generate_urban_city(block)",
        "repro.data.synthetic.city.generate_urban_city(poi_radius)",
        "repro.data.synthetic.traffic.simulate_traffic_speeds(incident_rate)",
        "repro.data.synthetic.traffic.simulate_traffic_speeds(noise_std)",
    ], "synthetic-generator knob"),
    "repro.data.missing.block_missing_mask(mean_block)": "missing-data generator knob the tests vary",
    **dict.fromkeys([
        "repro.data.splits.progressive_splits(base_fraction)",
        "repro.data.splits.progressive_splits(core_fraction)",
    ], "split geometry the split tests vary"),
    "repro.data.splits.temporal_split(train_fraction)": "the paper's 70/30 split; the split tests vary it",
    **dict.fromkeys([
        "repro.experiments.table8_simgain.similarity_gain(epsilon_sg)",
        "repro.experiments.table8_simgain.similarity_gain(sigma_scale)",
        "repro.experiments.table8_simgain.similarity_gain(mask_ratio)",
    ], "paper hyper-parameter (Table 8), named like its STSMConfig field"),
    **dict.fromkeys([
        "repro.experiments.__main__.main(argv)",
        "repro.obs.__main__.main(argv)",
        "repro.serving.__main__.main(argv)",
        "repro.streaming.__main__.main(argv)",
    ], "CLI test seam"),
    **dict.fromkeys([
        "repro.serving.transport.workers.run_worker(reuse_port)",
        "repro.serving.transport.workers.run_worker(stop_event)",
    ], "test seam: an in-thread worker"),
    "repro.data.dataset.SpatioTemporalDataset.subset_steps(name_suffix)": "test hook: names the cut dataset",
    "repro.experiments.runners.build_dataset(num_days)": "test hook: shorter datasets",
    "repro.obs.trace.record_span(recorder)": "test seam: records into a private recorder",
    "repro.streaming.buffer.StreamBuffer.append(arrival_time)": "test seam: a fixed arrival clock",
    "repro.streaming.replay.FeedReplayer(start_step)": "the replay tests start mid-feed",
    "repro.viz.render.scatter_map(marker)": "the render tests set the marker",
    "repro.experiments.reporting.format_table(columns)": "column selection the reporting tests use",
    "repro.obs.metrics.MetricsRegistry.histogram(buckets)": "bucket bounds the metrics tests set",
    "repro.optim.optimizers.SGD(momentum)": "SGD is a test fixture (KEEP); its tests set momentum",
    "repro.engine.store.ArtifactStore.gc(target_bytes)": "deployment setting: the disk budget gc trims to",
    "repro.serving.transport.http_server.ForecastHTTPServer(result_timeout_s)":
        "deployment setting: a request's result timeout",
}


def _run_path_files() -> list[Path]:
    files = [*PACKAGE.rglob("*.py"), *(ROOT / "benchmarks").rglob("*.py"),
             *(ROOT / "examples").rglob("*.py")]
    perfbench = ROOT / "perfbench"
    files += [p for p in perfbench.rglob("*.py")
              if "tests" not in p.relative_to(perfbench).parts]
    return files


@functools.cache
def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _used_names(tree: ast.AST, skip: frozenset[int] = frozenset()) -> set[str]:
    """Names ``tree`` uses, leaving out the nodes whose ``id`` is in ``skip``."""
    names = set()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("getattr", "hasattr") and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)
              and isinstance(node.args[1].value, str)):
            names.add(node.args[1].value)
    return names


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _package_modules():
    """``(path, dotted module, tree)`` of each module under ``src/``."""
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        yield path, module, _parse(path)


def _definitions(tree: ast.Module, module: str):
    """``(dotted name, name, node)`` of each top-level function and class
    and each method."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, kinds):
                    yield f"{module}.{node.name}.{sub.name}", sub.name, sub


def _where(path: Path, node: ast.AST) -> str:
    return f"{path.relative_to(ROOT)}:{node.lineno}"


def _listing(lines) -> str:
    return "".join(f"\n  {line}" for line in sorted(lines))


def _unused_definitions() -> dict[str, str]:
    """Dotted name -> ``path:line`` of each definition no run path uses,
    dunders excluded."""
    used = set()
    for path in _run_path_files():
        used |= _used_names(_parse(path))
    return {
        dotted: _where(path, node)
        for path, module, tree in _package_modules()
        for dotted, name, node in _definitions(tree, module)
        if not _is_dunder(name) and name not in used
    }


def test_every_definition_has_a_run_path_caller():
    unused = _unused_definitions()
    missing = unused.keys() - KEEP.keys()
    assert not missing, (
        "no run path uses these; delete them with their tests, or add a "
        "reason to KEEP:" + _listing(f"{unused[name]} {name}" for name in missing)
    )


def test_keep_list_names_only_unused_definitions():
    stale = sorted(KEEP.keys() - _unused_definitions().keys())
    assert not stale, f"these KEEP entries are called or gone; drop them: {stale}"


def _name_of(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def _call_index(trees) -> tuple[dict[str, list], dict[str, set], set[str]]:
    """``(calls, bound, named)`` over ``trees``: per callee name, the
    ``(positional count, keywords)`` of each call of it, ``None`` for a
    call with ``*``/``**``; per function name, the names it is bound to;
    and the names used other than as a callee or a bound value."""
    calls: dict[str, list] = {}
    bound: dict[str, set] = {}
    named: set[str] = set()
    for tree in trees:
        skip = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                keywords = {keyword.arg for keyword in node.keywords}
                starred = None in keywords or any(isinstance(a, ast.Starred) for a in node.args)
                calls.setdefault(_name_of(node.func), []).append(
                    None if starred else (len(node.args), keywords)
                )
                skip.add(id(node.func))
                bindings = [(k.arg, k.value) for k in node.keywords if k.arg]
            elif isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
                bindings = [(node.targets[0].id, node.value)]
            else:
                continue
            for alias, value in bindings:
                name = _name_of(value)
                if name is not None:
                    bound.setdefault(name, set()).add(alias)
                    skip.add(id(value))
        named |= _used_names(tree, frozenset(skip))
    return calls, bound, named


def _callables(tree: ast.Module, module: str):
    """``(dotted name, callee name, node, implicit)`` of each function and
    method, where ``implicit`` counts the leading parameters a call does
    not fill (``self``/``cls``).  ``__init__`` is called by its class's
    name; other dunders are called by the language, so they are left out."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, kinds) and not _is_dunder(node.name):
            yield f"{module}.{node.name}", node.name, node, 0
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if not isinstance(sub, kinds):
                    continue
                if sub.name == "__init__":
                    yield f"{module}.{node.name}", node.name, sub, 1
                elif not _is_dunder(sub.name):
                    static = any(getattr(d, "id", None) == "staticmethod" for d in sub.decorator_list)
                    yield f"{module}.{node.name}.{sub.name}", sub.name, sub, int(not static)


def _defaulted(node: ast.FunctionDef, implicit: int):
    """``(parameter, call slot)`` of each defaulted parameter; the slot is
    the positional argument index that fills it, ``None`` if keyword-only."""
    positional = [*node.args.posonlyargs, *node.args.args]
    first = len(positional) - len(node.args.defaults)
    for index in range(first, len(positional)):
        yield positional[index], index - implicit
    for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
        if default is not None:
            yield arg, None


def _unpassed_in(modules, index) -> dict[str, str]:
    """``dotted(param)`` -> ``path:line`` of each defaulted parameter of
    ``modules`` (``(path, dotted module, tree)`` triples) that no call in
    ``index`` (a :func:`_call_index`) passes."""
    calls, bound, named = index
    unpassed = {}
    for path, module, tree in modules:
        for dotted, callee, node, implicit in _callables(tree, module):
            if callee in named:
                continue
            sites = [
                site
                for name in (callee, *bound.get(callee, ()))
                for site in calls.get(name, [])
            ]
            for arg, slot in _defaulted(node, implicit):
                if not any(
                    site is None or arg.arg in site[1] or (slot is not None and site[0] > slot)
                    for site in sites
                ):
                    unpassed[f"{dotted}({arg.arg})"] = _where(path, arg)
    return unpassed


def _unpassed_parameters() -> dict[str, str]:
    """``dotted(param)`` -> ``path:line`` of each defaulted parameter under
    ``src/`` that no run path passes."""
    index = _call_index(_parse(path) for path in _run_path_files())
    return _unpassed_in(_package_modules(), index)


def test_every_defaulted_parameter_is_passed_on_a_run_path():
    unpassed = _unpassed_parameters()
    missing = unpassed.keys() - KEEP_PARAMS.keys()
    assert not missing, (
        "no run path passes these; delete them (their default becomes the "
        "code), or add a reason to KEEP_PARAMS:"
        + _listing(f"{unpassed[name]} {name[:-1]}=)" for name in missing)
    )


def test_keep_params_names_only_unpassed_parameters():
    stale = sorted(KEEP_PARAMS.keys() - _unpassed_parameters().keys())
    assert not stale, f"these KEEP_PARAMS entries are passed or gone; drop them: {stale}"


def _unpassed_in_sources(library: str, run_path: str) -> dict[str, str]:
    """The parameter scan on one ``library`` module, called only from
    ``run_path``; names are dotted under the module ``case``."""
    path = PACKAGE / "case.py"
    module = (path, "case", ast.parse(textwrap.dedent(library)))
    index = _call_index([ast.parse(textwrap.dedent(run_path))])
    return {name.removeprefix("case."): where for name, where in _unpassed_in([module], index).items()}


_RULE_CASES = {
    # id: (library, run path, the parameters left unpassed)
    "keyword": ("def f(x, k=1): pass", "f(0, k=2)", set()),
    "positional": ("def f(x, k=1): pass", "f(0, 2)", set()),
    "default-only": ("def f(x, k=1): pass", "f(0)", {"f(k)"}),
    "positional-short-of-slot": ("def f(x, a=1, b=2): pass", "f(0, 1)", {"f(b)"}),
    "keyword-only-not-filled-by-position": ("def f(a=0, *, k=1): pass", "f(0, 1)", {"f(k)"}),
    "method-self-is-implicit": (
        "class C:\n    def m(self, k=1): pass", "obj.m(2)", set(),
    ),
    "staticmethod-has-no-self": (
        "class C:\n    @staticmethod\n    def m(a, k=1): pass", "C.m(0)", {"C.m(k)"},
    ),
    "init-called-by-class-name": (
        "class C:\n    def __init__(self, a, k=1): pass", "C(0, 1)", set(),
    ),
    "init-default-only": (
        "class C:\n    def __init__(self, a, k=1): pass", "C(0)", {"C(k)"},
    ),
    "other-dunders-left-out": ("class C:\n    def __call__(self, k=1): pass", "", set()),
    "star-args-pass-all": ("def f(a=0, k=1): pass", "f(*args)", set()),
    "star-kwargs-pass-all": ("def f(a=0, k=1): pass", "f(**options)", set()),
    "named-as-value-passes-all": ("def f(k=1): pass", "REGISTRY = {'f': f}", set()),
    "alias-takes-its-calls": ("def f(k=1): pass", "g = f\ng(k=2)", set()),
    "alias-is-not-a-use": ("def f(k=1): pass", "g = f\ng()", {"f(k)"}),
    "keyword-binding-takes-its-calls": (
        "def f(x, k=1): pass", "run(fn=f)\nfn(0, 1)", set(),
    ),
    "keyword-binding-is-not-a-use": ("def f(x, k=1): pass", "run(fn=f)", {"f(k)"}),
}


@pytest.mark.parametrize("library, run_path, expected", _RULE_CASES.values(), ids=_RULE_CASES)
def test_parameter_scan_rule(library, run_path, expected):
    assert set(_unpassed_in_sources(library, run_path)) == expected


def test_parameter_scan_locates_each_offender():
    library = """
        def dtw_distance(a, b,
                         band=None):
            pass
    """
    unpassed = _unpassed_in_sources(library, "dtw_distance(x, y)")
    assert unpassed == {"dtw_distance(band)": "src/repro/case.py:3"}


def _unread_imports(path: Path) -> list[str]:
    tree = _parse(path)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return sorted(imported - read)


def test_every_imported_name_is_read_in_its_module():
    unread = {
        str(path.relative_to(ROOT)): names
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "__init__.py" and (names := _unread_imports(path))
    }
    assert not unread, f"these modules import names they never read; delete them: {unread}"
