"""Public names: every export resolves, the package and its ``cli``
subpackage export what they import, the channels leave the step mapping
to the receiver, the pipeline leaves starting chain rows to the engine,
the trainer and the pipeline leave the source to ``diffusion``, the CLI
imports no other module's private names, the config parser reads every
scalar through one reader, the codec writes every layer gradient through
one rule and decodes to plain arrays, every function the benchmark
tracer wraps still exists, and the README's library example runs."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import diffcomm
import diffcomm.cli

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(diffcomm.__path__, prefix="diffcomm.")
)


@pytest.mark.parametrize("name", ["diffcomm", *MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def _assert_exports_what_it_imports(package):
    """``package.__all__`` lists each name its ``__init__`` imports, once."""
    tree = ast.parse(Path(package.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert len(package.__all__) == len(set(package.__all__))
    assert set(package.__all__) == imported


def test_package_exports_exactly_what_it_imports():
    _assert_exports_what_it_imports(diffcomm)


def test_cli_exports_exactly_what_it_imports():
    _assert_exports_what_it_imports(diffcomm.cli)


def test_channels_transmit_without_the_schedule():
    """The channels only transmit; the receiver maps a stream onto a step."""
    import diffcomm.channels as channels

    tree = ast.parse(Path(channels.__file__).read_text())
    sources = [
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module is not None
    ]
    assert "schedule" not in sources and "diffcomm.schedule" not in sources
    for fn in (channels.awgn_transmit, channels.rayleigh_transmit_mmse, channels.mimo_transmit):
        assert "schedule" not in inspect.signature(fn).parameters, fn.__name__


def test_cli_declares_chain_rows_without_starting_them():
    """The receive only declares chain rows; the chain engine starts them,
    so the pipeline that declares them imports neither start rule's
    forward-process draw."""
    import diffcomm.pipeline as pipeline

    tree = ast.parse(Path(pipeline.__file__).read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert "_Row" in imported
    assert imported.isdisjoint({"compensate_to_step", "forward_sample"})


def test_loss_and_pipeline_leave_the_source_to_diffusion():
    """``diffusion`` owns what a source is: its check and its one reader
    serve ``train_codec`` and ``run_trials``, so neither module names the
    Gaussian model it would branch on."""
    package = Path(diffcomm.__file__).parent
    for name in ("loss.py", "pipeline.py"):
        tree = ast.parse((package / name).read_text())
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        assert "GaussianSourceModel" not in names, name


def test_cli_imports_no_private_name_of_another_module():
    """The CLI parses, seeds, loops cells and writes; what it runs is the
    library's public surface, so no module under ``cli/`` imports an
    underscore name from another module, a sibling included, or reads one
    off a module it imports."""
    paths = sorted(Path(diffcomm.cli.__file__).parent.rglob("*.py"))
    private = []
    for path in paths:
        tree = ast.parse(path.read_text())
        imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
        for node in imports:
            module = f"{node.module or ''}." if isinstance(node, ast.ImportFrom) else ""
            dotted = [module + alias.name for alias in node.names]
            private += [f"{path.name}: {name}" for name in dotted
                        if any(p.startswith("_") and p != "__future__" for p in name.split("."))]
        bound = {alias.asname or alias.name.split(".")[0] for node in imports for alias in node.names}
        private += [
            f"{path.name}: {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in bound and node.attr.startswith("_")
            and not node.attr.startswith("__")
        ]
    assert paths and private == []


def test_config_reads_every_scalar_through_one_reader():
    """``_Section`` has one scalar reader, ``take``, beside the readers of a
    nested object and of a number list; no table maps types to readers."""
    import diffcomm.cli.config as config

    tree = ast.parse(Path(config.__file__).read_text())
    section = next(
        node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "_Section"
    )
    readers = {
        node.name
        for node in section.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("take")
    }
    assert readers == {"take", "take_section", "take_float_list"}
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert "_READERS" not in names


def test_codec_writes_every_layer_gradient_through_one_rule():
    """Every call in ``codec.py`` that writes into an ``out=`` array (a
    layer's gradient into its view of the gradient vector) is one of the
    two in ``_linear_backward``."""
    import diffcomm.codec as codec

    tree = ast.parse(Path(codec.__file__).read_text())
    rule = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_linear_backward"
    )
    in_rule = {id(node) for node in ast.walk(rule)}
    writes = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and any(kw.arg == "out" for kw in node.keywords)
    ]
    assert len(writes) == 2 and all(id(node) in in_rule for node in writes)


def test_no_module_defines_or_imports_a_gaussian_wrapper():
    """The decoder returns its mean, scale and sample as plain arrays."""
    package = Path(diffcomm.__file__).parent
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text())
        names = {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
        names |= {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        assert "GaussianParams" not in names, path.name


def test_every_bench_trace_target_resolves():
    """The tracer skips a target it cannot find and reports zero for it, so
    a rename would silently zero a per-layer metric.  The one exception is
    ``diffusion.Latent``: the package now carries latents as plain arrays,
    and the target reads zero until the benchmark's own change drops it
    (ROADMAP item 1(b)), which restores ``unresolved == []``."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    unresolved = [
        f"{layer}.{label}"
        for layer, label, owner, attr in tracer.TARGETS
        if tracer._resolve(layer, owner, attr)[1] is None
    ]
    assert unresolved == ["diffusion.Latent"]


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library example\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    step, mse = capsys.readouterr().out.split()
    assert step == "259"  # unit noise maps to the step whose alpha-bar is nearest 1/2
    assert float(mse) > 0.0
