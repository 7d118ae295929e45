"""The seeded LP corpus of tests/data/make_lp_digests.py against its recorded digests."""

import importlib.util
import json
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"


def _recorder():
    spec = importlib.util.spec_from_file_location("make_lp_digests", DATA / "make_lp_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_lp_family_returns_the_recorded_bits():
    """Status, objective, primal, dual and ray of every corpus LP are
    bit-identical to the recorded ones, family by family, and every family
    the library builds has LPs in the corpus."""
    recorded = json.loads((DATA / "lp_digests.json").read_text(encoding="utf-8"))
    assert set(recorded) == {
        "witness_margin", "membership_margin", "l0_min", "relaxation_consistency",
        "relaxation_gd", "one_bit_bp_8x16", "one_bit_bp_20x40", "one_bit_bp_40x80",
        "uniqueness_certificate_40x80", "alternative_optimum", "near_ties"}
    assert all(entry["lps"] > 0 for entry in recorded.values())
    assert _recorder().corpus_digests() == recorded
