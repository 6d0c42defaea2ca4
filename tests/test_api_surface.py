"""Names that code outside the package looks up in it.

The benchmark tracer (perfbench/spans.py) patches functions and methods at
the module globals and class attributes where the package looks them up, the
benchmark's workloads and checks call into the package, the demos import from
it, and the README shows command lines, a config file and a scenario spec. A
rename in the package must fail here, not only when the benchmark or a demo is
run or a reader copies from the README.
"""

import argparse
import ast
import dataclasses
import importlib
import importlib.util
import json
import logging
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import ward_sentinel
from ward_sentinel.cli import build_parser
from ward_sentinel.model import FlowParams, PipelineConfig
from ward_sentinel.pipeline import ADAPTERS
from ward_sentinel.simulator import (
    NoiseModel,
    OccupantTrack,
    ScenarioSpec,
    ScheduleInterval,
    SimulationResult,
    spec_from_dict,
)

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _package():
    return SimpleNamespace(
        **{
            m.name: importlib.import_module(f"ward_sentinel.{m.name}")
            for m in pkgutil.iter_modules(ward_sentinel.__path__)
        }
    )


def test_tracer_patches_and_restores_every_lookup_site():
    spans = _load_spans()
    ws = _package()
    sites = [(owner, attr) for owner, attr, _ in spans._patch_table(ws, spans.Tracer())]
    original = [owner.__dict__[attr] for owner, attr in sites]
    logic_log = logging.getLogger(ws.logic.__name__)
    handlers = list(logic_log.handlers)

    with spans.installed(ws, spans.Tracer()):
        for (owner, attr), fn in zip(sites, original):
            assert owner.__dict__[attr] is not fn, f"{owner.__name__}.{attr} not patched"

    for (owner, attr), fn in zip(sites, original):
        assert owner.__dict__[attr] is fn, f"{owner.__name__}.{attr} not restored"
    assert logic_log.handlers == handlers


# The layers each workload of perfbench/README.md crosses. The imageops layers
# are left out: frame mode builds the flow image with resize_luma_via, which the
# tracer does not wrap, and the synthetic detector reads no analysis image, so
# resize_bilinear, resize_bicubic, to_grayscale and to_uint8 read 0 calls there.
# The zone's motion mask is rasterized on a session's first frame pair, so
# rasterize is a frames layer only, and replay must not reach it at all.
PER_SECOND_LAYERS = (
    "pipeline.run_pipeline",
    "model.validate_record",
    "logic.SmoothingWindow.push",
    "logic.derive_state",
    "geometry.expand_polygon",
    "geometry.detect_crossings",
    "schema.dumps_row",
    "store.append",
    "store.append_crossing",
    "store.seal",
)
CROSSED_LAYERS = {
    "frames": PER_SECOND_LAYERS + (
        "pipeline.frame_source",
        "pipeline.preprocess",
        "pipeline.detector.detect",
        "logic.attribute_roles",
        "flow.farneback_flow",
        "flow.roi_motion",
        "geometry.rasterize",
        "geometry.bed_roi_from_detection",
    ),
    "replay": PER_SECOND_LAYERS + ("pipeline.rows_source", "schema.read_rows_jsonl", "schema.loads_row"),
}


@pytest.mark.parametrize("mode", sorted(CROSSED_LAYERS))
def test_tracer_sees_every_layer_a_workload_crosses(tmp_path, mode):
    """A lookup site bound at definition time would trace 0 calls; this run
    through the wrapped names must reach every layer at least once."""
    spans = _load_spans()
    ws = _package()
    p = ws.pipeline
    zone = ((400.0, 300.0), (700.0, 300.0), (700.0, 560.0), (400.0, 560.0))
    spec = ScenarioSpec(
        seed=21,
        duration_s=5,
        schedule=(ScheduleInterval(0, 5, patients=1, motion=1.0),),
        tracks=(OccupantTrack("staff", ((0, 200.0, 430.0), (4, 600.0, 430.0))),),
        session_id="room",
        zone=zone,
    )
    cfg = PipelineConfig(zones={"room": zone})
    sim = ws.simulator.generate(spec, cfg)
    frames = list(sim.frames())  # set-up: the simulator's own rasterize stays untraced
    rows = tmp_path / "rows.jsonl"
    ws.schema.write_rows_jsonl((ws.schema.CanonicalRow(r, sim.motions.get(r.ts)) for r in sim.records), rows)

    with spans.installed(ws, spans.Tracer()) as tr:
        store = ws.store.Store(tmp_path / "store")
        if mode == "frames":
            stats = p.run_pipeline(p.frame_source(frames), cfg, store, detector=p.SyntheticDetector(sim))
        else:
            stats = p.run_pipeline(p.rows_source(ws.schema.read_rows_jsonl(rows)), cfg, store)
    assert stats.rows == 5 and stats.crossings == tr.counters["geometry.crossings"] > 0
    calls = {name: tr.names.count(name) for name in CROSSED_LAYERS[mode]}
    assert all(calls.values()), calls
    if mode == "replay":
        assert tr.names.count("geometry.rasterize") == 0


def _package_chains(tree: ast.AST) -> set[tuple[str, ...]]:
    """Each attribute chain read from the package namespace, such as
    ("simulator", "ScenarioSpec") for `ws.simulator.ScenarioSpec`.

    The namespace is `ws` or `self.ws`; a local name bound to a chain, such as
    `p = self.ws.pipeline`, continues it.
    """
    aliases: dict[str, tuple[str, ...]] = {"ws": ()}

    def chain(node):
        names = []
        while isinstance(node, ast.Attribute):
            names.insert(0, node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id == "self" and names[:1] == ["ws"]:
            return tuple(names[1:])
        if isinstance(node, ast.Name) and node.id in aliases:
            return aliases[node.id] + tuple(names)
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            pairs = [(target, value)]
            if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
                pairs = zip(target.elts, value.elts)
            for name, expr in pairs:
                if isinstance(name, ast.Name) and chain(expr) is not None:
                    aliases[name.id] = chain(expr)
    return {c for node in ast.walk(tree) if isinstance(node, ast.Attribute) and (c := chain(node))}


@pytest.mark.parametrize("source,least", [("workloads.py", 30), ("checks.py", 1)])
def test_benchmark_package_lookups_resolve(source, least):
    tree = ast.parse((ROOT / "perfbench" / source).read_text())
    chains = _package_chains(tree)
    assert len(chains) >= least
    ws = _package()
    for names in sorted(chains):
        obj = ws
        for name in names:
            assert hasattr(obj, name), f"{source}: ws.{'.'.join(names)}"
            obj = getattr(obj, name)


def test_benchmark_instance_lookups_resolve():
    """What the workloads read from a spec or simulation result they hold."""
    assert callable(ScenarioSpec.interval_at)
    assert "raw_frame_dims" in {f.name for f in dataclasses.fields(ScenarioSpec)}
    assert callable(SimulationResult.frames)


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_imports_resolve(demo):
    tree = ast.parse(demo.read_text(), filename=str(demo))
    resolved = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ward_sentinel":
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
                resolved += 1
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "ward_sentinel":
                    importlib.import_module(alias.name)
                    resolved += 1
    assert resolved > 0, f"{demo.name} imports nothing from ward_sentinel"


# Demo 07 runs the whole pipeline on a simulated room for about 10 s; the
# modules it calls are the ones demos 01-06 and the workload tests above run.
RUNNABLE_DEMOS = [p for p in DEMOS if not p.name.startswith("07_")]


@pytest.mark.parametrize("demo", RUNNABLE_DEMOS, ids=[p.name for p in RUNNABLE_DEMOS])
def test_demo_runs(tmp_path, demo):
    """Imports resolving is not enough: a demo that calls a removed method
    fails only when run. A demo cleans up the temporary files it makes."""
    src = str(ROOT / "src")
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    env = dict(os.environ, TMPDIR=str(tmp),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp.iterdir()) == []


# The detector port's documented image, for detectors outside the package.
UNREAD_ALLOWED = {"pipeline.PreprocessedFrame.analysis"}
PACKAGE = ROOT / "src" / "ward_sentinel"


def _definitions() -> dict[str, str]:
    """Qualified name -> name of each function, method and class defined in
    the package, leaving out protocol methods such as __len__, which the
    language calls."""
    out = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualname = prefix + child.name
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    out[qualname] = child.name
                visit(child, qualname + ".")
            else:
                visit(child, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), f"{path.stem}.")
    return out


def _names_read_outside_tests() -> set[str]:
    """Every name, attribute, import alias and identifier string that the
    package (less the re-exports of its __init__.py), the demos, the benchmark
    and the tools read."""
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    for folder in ("demos", "perfbench", "tools"):
        files += sorted((ROOT / folder).rglob("*.py"))
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                names.add(node.value)
    return names


def test_every_definition_is_read_outside_the_tests():
    """A function, method or class that only tests call is API no program
    uses: it should go, with its tests."""
    read = _names_read_outside_tests()
    unread = {q for q, name in _definitions().items() if name not in read}
    assert sorted(unread - UNREAD_ALLOWED) == []
    assert UNREAD_ALLOWED <= unread, "an allowed name is read now: take it off the list"


def _readme_block(after: str, lang: str) -> str:
    """The first fenced `lang` block after the line containing `after`."""
    text = (ROOT / "README.md").read_text()
    match = re.compile(rf"```{lang}\n(.*?)```", re.S).search(text, text.index(after))
    return match.group(1)


def test_readme_command_lines_parse():
    block = _readme_block("## Command line", "bash")
    lines = [line for line in block.splitlines() if line.startswith("ward-sentinel ")]
    assert len(lines) >= 9
    parser = build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert callable(args.func), line


def _subcommands(parser, prefix=()):
    """Each leaf command path the parser defines, such as ("evaluate", "frames")."""
    actions = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not actions:
        yield prefix
    for action in actions:
        for name, sub in action.choices.items():
            yield from _subcommands(sub, prefix + (name,))


def test_readme_shows_every_subcommand():
    block = _readme_block("## Command line", "bash")
    shown = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("ward-sentinel ")]
    commands = list(_subcommands(build_parser()))
    assert len(commands) >= 7
    for command in commands:
        assert any(words[: len(command)] == list(command) for words in shown), command


def test_readme_shows_every_ingest_adapter():
    block = _readme_block("## Command line", "bash")
    shown = set(re.findall(r"^ward-sentinel ingest --adapter (\S+)", block, re.M))
    assert set(ADAPTERS) <= shown


def test_readme_config_example_loads():
    raw = json.loads(_readme_block("Global flag `--config", "json"))
    assert PipelineConfig.from_dict(raw).zones
    assert set(raw) == {f.name for f in dataclasses.fields(PipelineConfig)}
    assert set(raw["flow"]) == {f.name for f in dataclasses.fields(FlowParams)}


def test_readme_scenario_spec_example_loads():
    spec = spec_from_dict(json.loads(_readme_block("A scenario spec for", "json")))
    assert spec == ScenarioSpec(
        seed=7,
        duration_s=3600,
        session_id="roomA",
        schedule=(
            ScheduleInterval(0, 1800, patients=1, motion=0.0),
            ScheduleInterval(1800, 3600, patients=1, staff=2, motion=1.5),
        ),
        tracks=(OccupantTrack("staff", ((100, 100.0, 430.0), (200, 550.0, 430.0))),),
        noise=NoiseModel(p_miss=0.05, p_spur=0.05, p_role=0.0),
        zone=((400, 300), (700, 300), (700, 560), (400, 560)),
    )
