import dataclasses

import dasris
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
    assert tuple(f.name for f in dataclasses.fields(dasris.DasSolution)) == ("config", "power")
