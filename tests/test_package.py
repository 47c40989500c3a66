import dataclasses

import chronomine
import chronomine.itemsets as itemsets
import chronomine.model as model
import chronomine.pipeline as pipeline
import chronomine.rules as rules
from chronomine.matcher import TypeIndex


def test_every_exported_name_resolves():
    missing = [name for name in chronomine.__all__ if not hasattr(chronomine, name)]
    assert missing == []
    assert len(set(chronomine.__all__)) == len(chronomine.__all__)


def test_removed_names_are_gone():
    for name in ("check_multiset_discriminancy", "row_growth"):
        assert name not in chronomine.__all__
        assert not hasattr(chronomine, name)
    assert not hasattr(pipeline, "check_multiset_discriminancy")
    assert not hasattr(rules, "row_growth")
    assert not hasattr(TypeIndex, "supports")
    for name in ("BATCH_TABLES", "BATCH_CELLS", "SLICES_PER_WORKER"):
        assert not hasattr(pipeline, name)
    assert "strict_growth" not in {f.name for f in dataclasses.fields(chronomine.DcmConfig)}
    # the learner has one entry path, and a table's rows one key, seq_index
    assert "induce_rules_batch" not in chronomine.__all__
    assert not hasattr(chronomine, "induce_rules_batch")
    assert not hasattr(rules, "induce_rules_batch")
    assert not hasattr(rules, "_learn_batch")
    for name in ("sids", "to_csv", "sequences"):
        assert not hasattr(rules.DurationTable, name)
    # the reference encoding lives in itemsets only; the output order
    # comes from the types, and the infinities and event key are written once
    for name in (
        "IndexedItem",
        "Transaction",
        "encode",
        "mine_frequent_itemsets",
        "decode_to_multisets",
    ):
        assert name not in chronomine.__all__
        assert not hasattr(chronomine, name)
        assert hasattr(itemsets, name)
    assert not hasattr(pipeline, "_output_order")
    for name in ("NEG_INF", "POS_INF", "_sequence_order"):
        assert not hasattr(model, name)
