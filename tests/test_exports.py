import ast
import dataclasses
import inspect
import sys
from pathlib import Path

import dasris
import dasris.baselines
import dasris.das
import dasris.harness
import dasris.model

# the explicit candidate route lives in tests/candidate_route.py as the reference
MOVED_TO_TESTS = (
    "CandidateSet",
    "FoldResult",
    "SortPermutation",
    "build_candidates",
    "fold_angles",
    "recover_config",
    "select_best",
    "sort_folded",
)


def test_every_exported_name_resolves():
    for name in dasris.__all__:
        assert getattr(dasris, name, None) is not None, name


def test_export_list_has_no_duplicates():
    assert len(set(dasris.__all__)) == len(dasris.__all__)


def test_candidate_route_is_not_in_the_library():
    for name in MOVED_TO_TESTS:
        assert name not in dasris.__all__
        assert not hasattr(dasris, name)
        assert not hasattr(dasris.das, name)


def test_timing_scaling_is_gone():
    # per-size solver time is aggregate(run_plan(plan)).total_time
    assert "timing_scaling" not in dasris.__all__
    assert not hasattr(dasris, "timing_scaling")
    assert not hasattr(dasris.harness, "timing_scaling")


def test_composite_phi_returns_a_plain_vector():
    assert "CompositePhi" not in dasris.__all__
    assert not hasattr(dasris.model, "CompositePhi")
    assert tuple(f.name for f in dataclasses.fields(dasris.Solution)) == (
        "config", "power", "evaluations")


def test_das_solution_and_baseline_result_are_gone():
    # every solver returns a Solution
    for name, module in (("DasSolution", dasris.das), ("BaselineResult", dasris.baselines)):
        assert name not in dasris.__all__
        assert not hasattr(dasris, name)
        assert not hasattr(module, name)


def test_what_the_benchmark_workloads_call_keeps_its_shape():
    # perfbench/workloads.py derives each trial's channel seed with
    # trial_seeds and draws the channel with generate_channel
    assert list(inspect.signature(dasris.trial_seeds).parameters) == ["base_seed", "n", "trial"]
    pair = dasris.trial_seeds(7, 64, 3)
    assert type(pair) is tuple and len(pair) == 2
    assert all(type(word) is int for word in pair)
    params = inspect.signature(dasris.generate_channel).parameters
    assert list(params) == ["n", "seed", "params"]
    assert params["params"].default is None
    ch = dasris.generate_channel(64, pair[0], dasris.ChannelParams())
    assert isinstance(ch, dasris.ChannelRealization) and ch.n == 64


def test_seed_block_routines_stay_private():
    for module, name in ((dasris.harness, "_trial_seed_block"), (dasris.model, "_seed_state"),
                         (dasris.model, "_draw_seeded")):
        assert callable(getattr(module, name))
        assert name not in dasris.__all__
        assert not hasattr(dasris, name)


def test_the_library_imports_nothing_but_the_standard_library_and_numpy():
    # numpy is the one runtime dependency that pyproject.toml declares
    allowed = sys.stdlib_module_names | {"numpy", "dasris"}
    modules = sorted(Path(dasris.__file__).parent.rglob("*.py"))
    assert len(modules) >= 6
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:  # a relative import stays inside dasris
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name}:{node.lineno} imports {name}"
